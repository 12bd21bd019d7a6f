//! The distributed in-memory shuffle — Algorithm 2 of the paper.
//!
//! Every record is assigned a uniformly random destination rank; the
//! exchange runs as `MPI_Alltoallv`. Because MPI counts and displacements
//! are 32-bit, the paper first partitions the local tensor into `m` segments
//! ("this is to overcome the deficiency of MPI to handle more than 32 bit
//! offsets") and alltoallv's each segment separately; we reproduce exactly
//! that segmentation, with a configurable cap so tests can exercise multiple
//! segments. After the exchange each node permutes its received records
//! locally.

use dcnn_collectives::primitives::{try_allgather_bytes, try_alltoallv_bytes};
use dcnn_collectives::runtime::{Comm, CommError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// MPI's real limit; tests use far smaller caps to force segmentation.
pub const MPI_COUNT_LIMIT: usize = i32::MAX as usize;

/// A record travelling through the shuffle: compressed bytes + label.
pub type Record = (Vec<u8>, u32);

/// Pack records into their exchange form: per record
/// `len u32 | label u32 | bytes`. The same encoding carries shuffle
/// segments between ranks and mini-batches from a blob server to its
/// clients (`dimd::service`).
pub fn pack(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::with_capacity(packed_len(records));
    pack_into(&mut out, records);
    out
}

/// Append the [`pack`] encoding of `records` to `out` — the one encoder,
/// which the shuffle also calls to pack straight into a send buffer.
fn pack_into(out: &mut Vec<u8>, records: &[Record]) {
    for (bytes, label) in records {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&label.to_le_bytes());
        out.extend_from_slice(bytes);
    }
}

fn packed_len(records: &[Record]) -> usize {
    records.iter().map(|(b, _)| 8 + b.len()).sum()
}

/// What was wrong with a malformed packed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleErrorKind {
    /// Fewer than the 8 header bytes remained in the buffer.
    Header {
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The header promised `need` payload bytes; fewer remained.
    Payload {
        /// Payload bytes the header promised.
        need: usize,
        /// Bytes actually remaining after the header.
        remaining: usize,
    },
}

/// A malformed buffer in the shuffle exchange, with enough context to
/// point at the culprit: which receiving rank saw it, which sending rank
/// packed it, which alltoallv segment round carried it, and where parsing
/// stopped. A truncated record means wire corruption or a peer running a
/// different version — either way the operator needs the link, not a bare
/// "truncated record header".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShuffleError {
    /// Rank that was unpacking when the corruption surfaced.
    pub rank: usize,
    /// Rank whose packed buffer was malformed.
    pub src: usize,
    /// Zero-based alltoallv segment round (Algorithm 2's `m` loop).
    pub segment: usize,
    /// Byte offset into the received buffer where parsing stopped.
    pub offset: usize,
    /// What was truncated.
    pub kind: ShuffleErrorKind,
}

impl std::fmt::Display for ShuffleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {}: malformed shuffle record from rank {} in segment round {} at byte {}: ",
            self.rank, self.src, self.segment, self.offset
        )?;
        match self.kind {
            ShuffleErrorKind::Header { remaining } => {
                write!(f, "record header truncated ({remaining} of 8 bytes)")
            }
            ShuffleErrorKind::Payload { need, remaining } => {
                write!(f, "record payload truncated ({remaining} of {need} bytes)")
            }
        }
    }
}

impl std::error::Error for ShuffleError {}

impl From<ShuffleError> for CommError {
    /// A malformed buffer ends the exchange as its sender's death does: the
    /// job cannot go on with that peer, whether the bytes came from a
    /// corrupt link or a peer running a different version.
    fn from(e: ShuffleError) -> Self {
        let (rank, peer, cause) = (e.rank, e.src, e.to_string());
        CommError::PeerDead { rank, peer, cause, phase: None, bucket: None, label: None }
    }
}

/// Parse a [`pack`]-encoded buffer, appending records to `out`. On a
/// truncated record, returns the byte offset where parsing stopped plus
/// what was missing; callers wrap that into a [`ShuffleError`] (or a
/// data-plane equivalent) with link context.
pub fn unpack(buf: &[u8], out: &mut Vec<Record>) -> Result<(), (usize, ShuffleErrorKind)> {
    let mut off = 0usize;
    while off < buf.len() {
        let rest = &buf[off..];
        if rest.len() < 8 {
            return Err((off, ShuffleErrorKind::Header { remaining: rest.len() }));
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4")) as usize;
        let label = u32::from_le_bytes(rest[4..8].try_into().expect("4"));
        if rest.len() < 8 + len {
            return Err((off, ShuffleErrorKind::Payload { need: len, remaining: rest.len() - 8 }));
        }
        out.push((rest[8..8 + len].to_vec(), label));
        off += 8 + len;
    }
    Ok(())
}

/// Shuffle `records` across the ranks of `comm` (Algorithm 2).
///
/// * `seed` — shuffle round seed; all ranks must pass the same value (each
///   rank derives its own stream from it, like the paper's per-learner
///   seeds).
/// * `max_segment_bytes` — the 32-bit-count emulation: the total payload a
///   single alltoallv may carry from this rank. Pass [`MPI_COUNT_LIMIT`]
///   for realism or something small to exercise segmentation.
///
/// Returns this rank's new partition, locally permuted.
///
/// # Panics
/// Panics with the rendered error if a peer is dead or a received buffer
/// holds a truncated [`ShuffleError`] record; use [`try_shuffle_records`]
/// to handle either as a value.
pub fn shuffle_records(
    comm: &Comm,
    records: Vec<Record>,
    seed: u64,
    max_segment_bytes: usize,
) -> Vec<Record> {
    try_shuffle_records(comm, records, seed, max_segment_bytes).unwrap_or_else(|e| panic!("{e}"))
}

/// [`shuffle_records`], but a dead peer or a malformed received buffer
/// comes back as a [`CommError`] naming the link (and, for a malformed
/// buffer, the [`ShuffleError`] with its segment round) instead of a panic.
pub fn try_shuffle_records(
    comm: &Comm,
    records: Vec<Record>,
    seed: u64,
    max_segment_bytes: usize,
) -> Result<Vec<Record>, CommError> {
    let mine = vec![HostedPartition {
        virtual_rank: comm.rank(),
        rng_id: comm.global_rank() as u64,
        seed,
        records,
    }];
    let mut out = try_shuffle_hosted(comm, mine, comm.size(), |v| v, max_segment_bytes)?;
    Ok(out.partitions.pop().expect("one hosted partition").1)
}

/// One virtual rank's partition while its shuffle runs on a hosting
/// fabric. In the classic path every trainer rank hosts its own partition
/// (`virtual_rank == comm.rank()`); in the data-plane service a smaller
/// fleet of blob servers hosts all trainer partitions and runs the same
/// exchange between server processes, bit-for-bit.
pub struct HostedPartition {
    /// The trainer rank this partition belongs to — its position in the
    /// virtual world. Destination draws land in this space and receive
    /// order replays in this order.
    pub virtual_rank: usize,
    /// The id mixed into this partition's rng streams. The classic path
    /// passes the owner's *global* rank, which differs from
    /// `virtual_rank` on split sub-communicators.
    pub rng_id: u64,
    /// This partition's shuffle-round seed (the classic path's `seed`).
    pub seed: u64,
    /// The records currently held for this virtual rank.
    pub records: Vec<Record>,
}

/// What [`try_shuffle_hosted`] hands back: each hosted partition's new
/// records, plus how many alltoallv segment rounds the exchange took
/// (Algorithm 2's `m` — observable so tests and server logs can prove
/// the 32-bit segmentation actually engaged).
pub struct HostedShuffle {
    /// `(virtual_rank, records)` for every partition passed in, same order.
    pub partitions: Vec<(usize, Vec<Record>)>,
    /// Number of alltoallv segment rounds executed.
    pub rounds: usize,
}

/// Algorithm 2 generalized to hosted partitions: `comm` is the fabric the
/// exchange physically runs on (trainer ranks classically, blob servers in
/// the data-plane service), `mine` the partitions this process hosts,
/// `virtual_world` the total partition count, and `host_of` the
/// partition→fabric-rank placement (every process must agree on it).
///
/// The result is bitwise-identical to running the classic
/// [`try_shuffle_records`] with `virtual_world` ranks: destination draws,
/// greedy segmentation, round count, receive order (by virtual source
/// rank), and the final local permutation all replay per *virtual* rank,
/// independent of where the partitions physically live.
pub fn try_shuffle_hosted(
    comm: &Comm,
    mine: Vec<HostedPartition>,
    virtual_world: usize,
    host_of: impl Fn(usize) -> usize,
    max_segment_bytes: usize,
) -> Result<HostedShuffle, CommError> {
    assert!(max_segment_bytes > 0);
    assert!(virtual_world >= 1, "virtual world must be non-empty");
    if virtual_world <= 1 {
        // Single trainer rank: a purely local permutation, same stream as
        // the classic single-rank path.
        let partitions = mine
            .into_iter()
            .map(|p| {
                let mut out = p.records;
                let mut rng = StdRng::seed_from_u64(p.seed ^ 0xD1D);
                out.shuffle(&mut rng);
                (p.virtual_rank, out)
            })
            .collect();
        return Ok(HostedShuffle { partitions, rounds: 0 });
    }
    let fabric = comm.size();

    // Assign destinations up front, per virtual rank (uniform over the
    // virtual world, self included) — the stream depends only on the
    // partition's seed and rng_id, never on placement.
    // (virtual_rank, rng_id, seed, [(dest, record)]) per hosted partition.
    type PartState = (usize, u64, u64, Vec<(usize, Record)>);
    let mut parts: Vec<PartState> = mine
        .into_iter()
        .map(|p| {
            let mut rng = StdRng::seed_from_u64(p.seed.wrapping_mul(0x9E3779B97F4A7C15) ^ p.rng_id);
            let assigned: Vec<(usize, Record)> =
                p.records.into_iter().map(|r| (rng.random_range(0..virtual_world), r)).collect();
            (p.virtual_rank, p.rng_id, p.seed, assigned)
        })
        .collect();
    let local_of: std::collections::HashMap<usize, usize> =
        parts.iter().enumerate().map(|(i, p)| (p.0, i)).collect();

    // Segment greedily per virtual rank: each alltoallv round ships at most
    // `max_segment_bytes` of payload from each partition (and at least one
    // record). Every fabric rank runs the most segments any partition
    // needs, agreed in one allgather.
    let segments: Vec<Vec<usize>> = parts
        .iter()
        .map(|(_, _, _, assigned)| {
            let (mut lens, mut n, mut bytes) = (Vec::new(), 0usize, 0usize);
            for (_, (b, _)) in assigned {
                if n > 0 && bytes + 8 + b.len() > max_segment_bytes {
                    lens.push(std::mem::take(&mut n));
                    bytes = 0;
                }
                n += 1;
                bytes += 8 + b.len();
            }
            lens.extend((n > 0).then_some(n));
            lens
        })
        .collect();
    let most = segments.iter().map(Vec::len).max().unwrap_or(0) as u64;
    let rounds = try_allgather_bytes(comm, most.to_le_bytes().to_vec())?
        .iter()
        .map(|b| u64::from_le_bytes(b.as_slice().try_into().expect("8")))
        .max()
        .expect("non-empty cluster") as usize;

    let mut received: Vec<Vec<Record>> = parts.iter().map(|_| Vec::new()).collect();
    for round in 0..rounds {
        // Sub-chunks keyed (virtual dst, virtual src); the BTreeMap
        // iteration replays each partition's appends in virtual-source
        // order — exactly the classic path's `for src in 0..n` order. A
        // sub-chunk bound for a partition hosted here is moved into its
        // slot uncopied; every other one leaves in its server's send buffer
        // as `src_virtual u32 | dst_virtual u32 | len u32 | packed records`.
        let mut chunks: std::collections::BTreeMap<(usize, usize), Vec<Record>> =
            std::collections::BTreeMap::new();
        let mut outgoing = Vec::new();
        let mut send_len = vec![0usize; fabric];
        for ((u, _, _, assigned), lens) in parts.iter_mut().zip(&segments) {
            let mut per_dest: Vec<Vec<Record>> = vec![Vec::new(); virtual_world];
            for (dest, rec) in assigned.drain(..lens.get(round).copied().unwrap_or(0)) {
                per_dest[dest].push(rec);
            }
            for (v, recs) in per_dest.into_iter().enumerate().filter(|(_, r)| !r.is_empty()) {
                let host = host_of(v);
                if host == comm.rank() {
                    chunks.insert((v, *u), recs);
                } else {
                    let len = packed_len(&recs);
                    send_len[host] += 12 + len;
                    outgoing.push((host, *u, v, len, recs));
                }
            }
        }
        let mut send: Vec<Vec<u8>> = send_len.into_iter().map(Vec::with_capacity).collect();
        for (host, u, v, len, recs) in outgoing {
            let out = &mut send[host];
            out.extend_from_slice(&(u as u32).to_le_bytes());
            out.extend_from_slice(&(v as u32).to_le_bytes());
            out.extend_from_slice(&(len as u32).to_le_bytes());
            pack_into(out, &recs);
        }
        let recv = try_alltoallv_bytes(comm, send)?;

        for (src_server, buf) in recv.iter().enumerate() {
            let mut off = 0usize;
            while off < buf.len() {
                if buf.len() - off < 12 {
                    return Err(ShuffleError {
                        rank: comm.rank(),
                        src: src_server,
                        segment: round,
                        offset: off,
                        kind: ShuffleErrorKind::Header { remaining: buf.len() - off },
                    }
                    .into());
                }
                let u = u32::from_le_bytes(buf[off..off + 4].try_into().expect("4")) as usize;
                let v = u32::from_le_bytes(buf[off + 4..off + 8].try_into().expect("4")) as usize;
                let len =
                    u32::from_le_bytes(buf[off + 8..off + 12].try_into().expect("4")) as usize;
                off += 12;
                if buf.len() - off < len {
                    return Err(ShuffleError {
                        rank: comm.rank(),
                        src: u,
                        segment: round,
                        offset: off,
                        kind: ShuffleErrorKind::Payload { need: len, remaining: buf.len() - off },
                    }
                    .into());
                }
                let slot = chunks.entry((v, u)).or_default();
                unpack(&buf[off..off + len], slot).map_err(|(o, kind)| ShuffleError {
                    rank: comm.rank(),
                    src: u,
                    segment: round,
                    offset: off + o,
                    kind,
                })?;
                off += len;
            }
        }
        for ((v, _), recs) in chunks {
            let li = *local_of
                .get(&v)
                .expect("received a chunk for a partition not hosted here: host_of mismatch");
            received[li].extend(recs);
        }
    }

    // Local permutation per virtual rank (the paper's final
    // `random_permutation` step) — XOR the salt in, as in the classic path.
    let partitions = parts
        .into_iter()
        .enumerate()
        .map(|(i, (v, rng_id, seed, _))| {
            let mut recs = std::mem::take(&mut received[i]);
            let mut perm_rng = StdRng::seed_from_u64((seed ^ (rng_id << 32)) ^ 0xD1D);
            recs.shuffle(&mut perm_rng);
            (v, recs)
        })
        .collect();
    Ok(HostedShuffle { partitions, rounds })
}

/// Byte-count matrix of one shuffle round for virtual-time simulation:
/// `counts[src][dst]` bytes. With `groups` groups of `nodes/groups` members
/// each (paper Figure 9), exchange stays within the group; a uniformly
/// random reassignment sends `partition/S` to each of the `S` group members
/// (the self-share stays local and costs nothing on the fabric).
pub fn shuffle_counts_matrix(nodes: usize, partition_bytes: f64, groups: usize) -> Vec<Vec<f64>> {
    assert!(nodes > 0 && groups > 0 && nodes.is_multiple_of(groups), "groups must divide nodes");
    let group_size = nodes / groups;
    let share = partition_bytes / group_size as f64;
    let mut m = vec![vec![0.0; nodes]; nodes];
    for (src, row) in m.iter_mut().enumerate() {
        let g = src / group_size;
        for dst in g * group_size..(g + 1) * group_size {
            if dst != src {
                row[dst] = share;
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnn_collectives::{run_cluster, ClusterBuilder};
    use std::collections::HashMap;

    fn make_records(rank: usize, count: usize) -> Vec<Record> {
        (0..count)
            .map(|i| {
                let len = 5 + (rank * 7 + i * 3) % 40;
                (vec![(rank * 100 + i) as u8; len], (rank * 1000 + i) as u32)
            })
            .collect()
    }

    fn census(all: &[Vec<Record>]) -> HashMap<(Vec<u8>, u32), usize> {
        let mut m = HashMap::new();
        for recs in all {
            for r in recs {
                *m.entry(r.clone()).or_insert(0) += 1;
            }
        }
        m
    }

    #[test]
    fn shuffle_preserves_record_multiset() {
        for n in [2, 4, 5] {
            let before: Vec<Vec<Record>> = (0..n).map(|r| make_records(r, 20)).collect();
            let expect = census(&before);
            let after = run_cluster(n, |c| {
                shuffle_records(c, make_records(c.rank(), 20), 99, MPI_COUNT_LIMIT)
            });
            assert_eq!(census(&after), expect, "n={n}");
        }
    }

    #[test]
    fn segmentation_matches_unsegmented_multiset() {
        let n = 4;
        let before: Vec<Vec<Record>> = (0..n).map(|r| make_records(r, 30)).collect();
        let expect = census(&before);
        // Tiny cap: forces many alltoallv rounds (Algorithm 2's m > 1).
        let after = run_cluster(n, |c| shuffle_records(c, make_records(c.rank(), 30), 7, 64));
        assert_eq!(census(&after), expect);
    }

    #[test]
    fn shuffle_actually_moves_records() {
        let n = 4;
        let after =
            run_cluster(n, |c| shuffle_records(c, make_records(c.rank(), 40), 3, MPI_COUNT_LIMIT));
        // Rank 0 should now hold some records that originated elsewhere
        // (labels ≥ 1000).
        assert!(after[0].iter().any(|(_, label)| *label >= 1000), "no foreign records on rank 0");
    }

    #[test]
    fn uneven_partitions_rebalance_approximately() {
        let n = 4;
        let after = run_cluster(n, |c| {
            // Rank 0 starts with everything.
            let recs = if c.rank() == 0 { make_records(0, 400) } else { Vec::new() };
            shuffle_records(c, recs, 11, MPI_COUNT_LIMIT)
        });
        for (r, recs) in after.iter().enumerate() {
            assert!((60..=140).contains(&recs.len()), "rank {r} got {} records", recs.len());
        }
    }

    #[test]
    fn single_rank_shuffle_is_local_permutation() {
        let out = run_cluster(1, |c| shuffle_records(c, make_records(0, 10), 5, MPI_COUNT_LIMIT));
        assert_eq!(out[0].len(), 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            run_cluster(3, move |c| {
                shuffle_records(c, make_records(c.rank(), 15), seed, MPI_COUNT_LIMIT)
            })
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn group_shuffle_stays_within_group() {
        // 4 ranks, 2 groups: records must not cross group boundaries.
        let after = run_cluster(4, |c| {
            let group = c.rank() / 2;
            let sub = c.split(group as u64, c.rank() as i64);
            shuffle_records(&sub, make_records(c.rank(), 25), 13, MPI_COUNT_LIMIT)
        });
        for (r, recs) in after.iter().enumerate() {
            let group = r / 2;
            for (_, label) in recs {
                let origin = (*label / 1000) as usize;
                assert_eq!(origin / 2, group, "rank {r} received from {origin}");
            }
        }
    }

    #[test]
    fn adjacent_seeds_permute_differently() {
        // Regression: the perm seed used to be `seed ^ rank << 32 | 0xD1D`,
        // which ORs the salt in — every seed pair differing only within the
        // 0xD1D bits collapsed to the same local permutation.
        let run = |seed: u64| {
            run_cluster(2, move |c| {
                shuffle_records(c, make_records(c.rank(), 40), seed, MPI_COUNT_LIMIT)
            })
        };
        let mut distinct = 0;
        for base in [0u64, 0x100, 0xD00] {
            let a = run(base);
            let b = run(base + 1);
            assert_eq!(census(&a), census(&b), "same records, different order");
            if a != b {
                distinct += 1;
            }
        }
        assert!(
            distinct >= 2,
            "adjacent seeds produced identical shuffles in {}/3 cases",
            3 - distinct
        );
    }

    #[test]
    fn truncated_buffers_are_typed_errors_with_context() {
        let packed = pack(&make_records(0, 3));
        // Intact buffer parses.
        let mut out = Vec::new();
        unpack(&packed, &mut out).expect("intact buffer");
        assert_eq!(out.len(), 3);
        // Chop mid-payload: the header promises more than remains.
        let (off, kind) =
            unpack(&packed[..packed.len() - 2], &mut Vec::new()).expect_err("truncated payload");
        assert!(matches!(kind, ShuffleErrorKind::Payload { .. }), "{kind:?}");
        // Chop mid-header of the first record.
        let (off0, kind0) = unpack(&packed[..5], &mut Vec::new()).expect_err("truncated header");
        assert_eq!(off0, 0);
        assert_eq!(kind0, ShuffleErrorKind::Header { remaining: 5 });
        // The rendered error names every coordinate an operator needs.
        let e = ShuffleError { rank: 2, src: 3, segment: 1, offset: off, kind };
        let s = e.to_string();
        for needle in ["rank 2", "rank 3", "segment round 1", "truncated"] {
            assert!(s.contains(needle), "{s:?} missing {needle:?}");
        }
    }

    #[test]
    fn try_shuffle_returns_clean_records() {
        let n = 3;
        let before: Vec<Vec<Record>> = (0..n).map(|r| make_records(r, 12)).collect();
        let expect = census(&before);
        let after = run_cluster(n, |c| {
            try_shuffle_records(c, make_records(c.rank(), 12), 7, MPI_COUNT_LIMIT)
                .expect("clean exchange")
        });
        assert_eq!(census(&after), expect);
    }

    /// Per-rank seeds the way `Dimd::shuffle` derives them — the hosted
    /// path must replay exactly these streams.
    fn vseed(v: usize) -> u64 {
        0x55 ^ ((v as u64) << 20)
    }

    fn hosted_run(servers: usize, virtual_world: usize, cap: usize) -> (Vec<Vec<Record>>, usize) {
        let outs = run_cluster(servers, move |c| {
            let mine: Vec<HostedPartition> = (0..virtual_world)
                .filter(|v| v % servers == c.rank())
                .map(|v| HostedPartition {
                    virtual_rank: v,
                    rng_id: v as u64,
                    seed: vseed(v),
                    records: make_records(v, 25),
                })
                .collect();
            let out = try_shuffle_hosted(c, mine, virtual_world, |v| v % servers, cap)
                .expect("clean hosted exchange");
            (out.partitions, out.rounds)
        });
        let mut by_v: Vec<Vec<Record>> = vec![Vec::new(); virtual_world];
        let mut rounds = 0;
        for (partitions, r) in outs {
            rounds = rounds.max(r);
            for (v, recs) in partitions {
                by_v[v] = recs;
            }
        }
        (by_v, rounds)
    }

    #[test]
    fn hosted_shuffle_matches_classic_bitwise() {
        let t = 4;
        // The reference: t trainer ranks each shuffling their own partition.
        let classic = run_cluster(t, |c| {
            shuffle_records(c, make_records(c.rank(), 25), vseed(c.rank()), MPI_COUNT_LIMIT)
        });
        // The same virtual world hosted on fewer servers — including a
        // single server, where the whole exchange is self-delivery.
        for servers in [1, 2] {
            let (hosted, _) = hosted_run(servers, t, MPI_COUNT_LIMIT);
            assert_eq!(hosted, classic, "{servers} servers");
        }
    }

    #[test]
    fn hosted_shuffle_matches_classic_under_segmentation() {
        // A 96-byte cap forces many alltoallv rounds; segmentation changes
        // the receive order, so equality here proves the hosted greedy cuts
        // and round count replay the classic ones per virtual rank.
        let t = 4;
        let classic =
            run_cluster(t, |c| shuffle_records(c, make_records(c.rank(), 25), vseed(c.rank()), 96));
        let (hosted, rounds) = hosted_run(2, t, 96);
        assert_eq!(hosted, classic);
        assert!(rounds >= 2, "cap did not engage segmentation (rounds={rounds})");
    }

    #[test]
    fn hosted_shuffle_single_virtual_rank_is_local() {
        let (hosted, rounds) = hosted_run(1, 1, MPI_COUNT_LIMIT);
        let classic =
            run_cluster(1, |c| shuffle_records(c, make_records(0, 25), vseed(0), MPI_COUNT_LIMIT));
        assert_eq!(hosted, classic);
        assert_eq!(rounds, 0);
    }

    #[test]
    fn records_staying_on_their_rank_keep_their_buffers() {
        let out = run_cluster(2, |c| {
            // Spare capacity tells a moved buffer from a copy even when the
            // allocator hands a copy a freed address.
            let mut records = make_records(c.rank(), 40);
            records.iter_mut().for_each(|(b, _)| b.reserve_exact(1));
            let bufs: HashMap<usize, usize> =
                records.iter().map(|(b, _)| (b.as_ptr() as usize, b.capacity())).collect();
            let after = shuffle_records(c, records, 17, MPI_COUNT_LIMIT);
            let stayed: Vec<&Record> =
                after.iter().filter(|(_, label)| *label as usize / 1000 == c.rank()).collect();
            let kept = stayed
                .iter()
                .filter(|(b, _)| bufs.get(&(b.as_ptr() as usize)) == Some(&b.capacity()));
            (stayed.len(), kept.count())
        });
        for (rank, (stayed, kept)) in out.into_iter().enumerate() {
            assert!(stayed > 0, "rank {rank}: no record stayed");
            assert_eq!(kept, stayed, "rank {rank}: {kept} of {stayed} staying records kept");
        }
    }

    #[test]
    fn the_round_count_is_agreed_in_one_collective() {
        // A 96-byte cap forces several rounds; two shuffles back to back.
        let run = ClusterBuilder::new(2).run(|c| {
            (0..2u64)
                .map(|seed| {
                    let mine = vec![HostedPartition {
                        virtual_rank: c.rank(),
                        rng_id: c.rank() as u64,
                        seed,
                        records: make_records(c.rank(), 25),
                    }];
                    try_shuffle_hosted(c, mine, 2, |v| v, 96).expect("clean exchange").rounds
                })
                .sum::<usize>()
        });
        let rounds = run.results[0];
        assert!(rounds >= 2 * 2, "cap did not engage segmentation (rounds={rounds})");
        let phases = &run.stats[0].phase_ns;
        let count = |label: &str| phases.iter().find(|p| p.0 == label).map_or(0, |p| p.2);
        assert_eq!(count("allgather"), 2, "one allgather per shuffle expected; {phases:?}");
        assert_eq!(count("alltoallv"), rounds as u64, "one alltoallv per round; {phases:?}");
    }

    #[test]
    fn counts_matrix_shapes() {
        let m = shuffle_counts_matrix(8, 800.0, 2);
        // src 0 sends 200 to each of ranks 1..3 (its group), nothing beyond.
        assert_eq!(m[0][1], 200.0);
        assert_eq!(m[0][3], 200.0);
        assert_eq!(m[0][4], 0.0);
        assert_eq!(m[0][0], 0.0);
        // Total fabric bytes: 8 nodes × 3 peers × 200.
        let total: f64 = m.iter().flatten().sum();
        assert_eq!(total, 8.0 * 3.0 * 200.0);
    }

    #[test]
    #[should_panic]
    fn counts_matrix_bad_groups_panics() {
        let _ = shuffle_counts_matrix(8, 1.0, 3);
    }
}
