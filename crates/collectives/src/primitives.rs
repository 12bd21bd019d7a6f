//! Rooted collectives, the pairwise `alltoallv`, and the ring
//! reduce-scatter/allgather pair.
//!
//! These are the building blocks the paper's framework relies on besides the
//! allreduce itself: broadcast (model distribution to GPUs' host buffers),
//! gather/allgather (control-plane exchanges such as shuffle counts), and
//! `MPI_Alltoallv`, which implements the DIMD shuffle (Algorithm 2). The
//! `f32` collectives — the counts-based ring reduce-scatter / allgather and
//! the binomial reduce / broadcast — are written as [`Step`] generators, so
//! algorithms concatenate them into their plans (the ring allreduce, the
//! hierarchical allreduce) and the wrappers here just execute them. The
//! ring pair backs the sharded optimizer: the scatter steps are
//! [`crate::RingReduceScatter`]'s reduce-scatter plan (what
//! [`Comm::reduce_scatter`] runs, as a reduce-scatter
//! [`crate::CollectiveOp`]), and the parameters come back through
//! [`Comm::allgather_f32`], an allgather [`crate::CollectiveOp`] over the
//! gather steps.

use dcnn_simnet::CommSchedule;

use crate::plan::{execute, Step};
use crate::runtime::{Comm, CommError};

const TAG_BCAST: u32 = 0x0100_0000;
const TAG_REDUCE: u32 = 0x0200_0000;
const TAG_GATHER: u32 = 0x0300_0000;
const TAG_A2A: u32 = 0x0400_0000;
const TAG_RSC: u32 = 0x0C00_0000;
const TAG_AGC: u32 = 0x0D00_0000;

/// Prefix-sum `counts` into `n + 1` chunk boundaries.
fn chunk_offsets(counts: &[usize]) -> Vec<usize> {
    let mut off = Vec::with_capacity(counts.len() + 1);
    off.push(0);
    let mut pos = 0;
    for &c in counts {
        pos += c;
        off.push(pos);
    }
    off
}

/// One pass around the ring over per-rank `counts` (chunk `i` is
/// `counts[i]` contiguous elements, in rank order): at step `s` rank `r`
/// sends chunk `r - s - 1 + lead` to `r + 1` and receives the chunk one
/// further back from `r - 1`.
fn ring_pass(
    r: usize,
    counts: &[usize],
    lead: usize,
    tag0: u32,
    recv: fn(usize, std::ops::Range<usize>, u32) -> Step,
) -> Vec<Step> {
    let n = counts.len();
    let off = chunk_offsets(counts);
    let chunk = |i: usize| off[i % n]..off[i % n + 1];
    let mut steps = Vec::new();
    for step in 0..n.saturating_sub(1) {
        let tag = tag0 + step as u32;
        let send_idx = r + 2 * n - step - 1 + lead;
        steps.push(Step::Send { to: (r + 1) % n, range: chunk(send_idx), tag });
        steps.push(recv((r + n - 1) % n, chunk(send_idx - 1), tag));
    }
    steps
}

/// Ring reduce-scatter over per-rank `counts`, as rank `r`'s steps: chunk
/// `r` of the buffer (contiguous, in rank order, `counts[r]` elements)
/// belongs to rank `r`; afterwards this rank's chunk holds the elementwise
/// sum over all ranks, and the other chunks hold partial sums.
///
/// Step `s` moves the running partial sum of a chunk one hop closer to its
/// owner, so the ring anchors each element's accumulation order at its
/// owning rank (owner `o` computes `g_o + (g_{o-1} + (… + g_{o+1})…)`),
/// never at the chunk boundaries — for a fixed global owner map the owned
/// bits are identical no matter how the payload is split into buckets. The
/// sharded optimizer's bitwise-equivalence guarantee rests on this.
pub(crate) fn ring_reduce_scatter_steps(r: usize, counts: &[usize]) -> Vec<Step> {
    ring_pass(r, counts, 0, TAG_RSC, |from, range, tag| Step::RecvReduce { from, range, tag })
}

/// Ring allgather over per-rank `counts`, as rank `r`'s steps: each rank
/// contributes its own chunk (layout as in [`ring_reduce_scatter_steps`])
/// and afterwards every rank holds all chunks. Pure forwarding — no
/// arithmetic, so it cannot perturb bits.
pub(crate) fn ring_allgather_steps(r: usize, counts: &[usize]) -> Vec<Step> {
    ring_pass(r, counts, 1, TAG_AGC, |from, range, tag| Step::RecvCopy { from, range, tag })
}

/// Binomial-tree broadcast of a byte buffer from `root`.
pub fn bcast_bytes(comm: &Comm, root: usize, buf: &mut Vec<u8>) -> Result<(), CommError> {
    let _phase = comm.phase("bcast");
    let n = comm.size();
    if n <= 1 {
        return Ok(());
    }
    let vrank = (comm.rank() + n - root) % n;
    // Receive from the parent (strip my lowest set bit), then forward to the
    // subtree below each remaining bit.
    let mut mask = 1usize;
    while mask < n {
        if vrank & mask != 0 {
            let parent = (vrank - mask + root) % n;
            *buf = comm.recv(parent, TAG_BCAST)?.into_bytes();
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if vrank + mask < n && vrank & (mask - 1) == 0 && vrank & mask == 0 {
            let child = (vrank + mask + root) % n;
            comm.send_bytes(child, TAG_BCAST, buf.clone());
        }
        mask >>= 1;
    }
    Ok(())
}

/// Binomial-tree broadcast of a `len`-element `f32` buffer from `root`, as
/// the steps of `rank` of `n`.
pub(crate) fn bcast_steps(n: usize, rank: usize, root: usize, len: usize) -> Vec<Step> {
    let mut steps = Vec::new();
    let vrank = (rank + n - root) % n;
    let mut mask = 1usize;
    while mask < n {
        if vrank & mask != 0 {
            let parent = (vrank - mask + root) % n;
            steps.push(Step::RecvCopy { from: parent, range: 0..len, tag: TAG_BCAST });
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if vrank + mask < n && vrank & (mask - 1) == 0 && vrank & mask == 0 {
            let child = (vrank + mask + root) % n;
            steps.push(Step::Send { to: child, range: 0..len, tag: TAG_BCAST });
        }
        mask >>= 1;
    }
    steps
}

/// Binomial-tree sum-reduction of a `len`-element buffer to `root`, as the
/// steps of `rank` of `n`.
pub(crate) fn reduce_steps(n: usize, rank: usize, root: usize, len: usize) -> Vec<Step> {
    let mut steps = Vec::new();
    let vrank = (rank + n - root) % n;
    let mut mask = 1usize;
    while mask < n {
        if vrank & mask == 0 {
            let peer = vrank | mask;
            if peer < n {
                steps.push(Step::RecvReduce { from: (peer + root) % n, range: 0..len, tag: TAG_REDUCE });
            }
        } else {
            let peer = (vrank & !mask) % n;
            steps.push(Step::Send { to: (peer + root) % n, range: 0..len, tag: TAG_REDUCE });
            break;
        }
        mask <<= 1;
    }
    steps
}

/// Binomial-tree broadcast of an `f32` buffer from `root`.
pub fn bcast_f32(comm: &Comm, root: usize, buf: &mut [f32]) -> Result<(), CommError> {
    let _phase = comm.phase("bcast");
    execute(comm, &bcast_steps(comm.size(), comm.rank(), root, buf.len()), buf)
}

/// Binomial-tree sum-reduction of `buf` to `root`. On return, `root`'s `buf`
/// holds the elementwise sum over all ranks; other ranks' buffers are
/// unspecified (they hold partial sums).
pub fn reduce_f32(comm: &Comm, root: usize, buf: &mut [f32]) -> Result<(), CommError> {
    let _phase = comm.phase("reduce");
    execute(comm, &reduce_steps(comm.size(), comm.rank(), root, buf.len()), buf)
}

/// Gather per-rank byte buffers at `root`. Returns `Some(all)` on the root
/// (indexed by rank), `None` elsewhere.
pub fn gather_bytes(
    comm: &Comm,
    root: usize,
    mine: Vec<u8>,
) -> Result<Option<Vec<Vec<u8>>>, CommError> {
    let _phase = comm.phase("gather");
    let n = comm.size();
    if comm.rank() == root {
        let mut all: Vec<Vec<u8>> = vec![Vec::new(); n];
        for r in 0..n {
            if r == root {
                all[r] = mine.clone();
            } else {
                all[r] = comm.recv(r, TAG_GATHER)?.into_bytes();
            }
        }
        Ok(Some(all))
    } else {
        comm.send_bytes(root, TAG_GATHER, mine);
        Ok(None)
    }
}

/// [`try_allgather_bytes`], panicking with the report if a peer is dead.
pub fn allgather_bytes(comm: &Comm, mine: Vec<u8>) -> Vec<Vec<u8>> {
    try_allgather_bytes(comm, mine).unwrap_or_else(|e| panic!("{e}"))
}

/// Allgather byte buffers: every rank receives all ranks' buffers, indexed
/// by rank. Implemented as gather-to-0 + broadcast.
pub fn try_allgather_bytes(comm: &Comm, mine: Vec<u8>) -> Result<Vec<Vec<u8>>, CommError> {
    let _phase = comm.phase("allgather");
    let n = comm.size();
    let gathered = gather_bytes(comm, 0, mine)?;
    // Flatten with a length prefix table so one broadcast moves everything.
    let mut flat = Vec::new();
    if comm.rank() == 0 {
        let all = gathered.expect("root gathered");
        flat.extend_from_slice(&(n as u64).to_le_bytes());
        for b in &all {
            flat.extend_from_slice(&(b.len() as u64).to_le_bytes());
        }
        for b in &all {
            flat.extend_from_slice(b);
        }
    }
    bcast_bytes(comm, 0, &mut flat)?;
    let cnt = u64::from_le_bytes(flat[0..8].try_into().expect("8")) as usize;
    assert_eq!(cnt, n);
    let mut lens = Vec::with_capacity(n);
    for r in 0..n {
        let off = 8 + 8 * r;
        lens.push(u64::from_le_bytes(flat[off..off + 8].try_into().expect("8")) as usize);
    }
    let mut out = Vec::with_capacity(n);
    let mut pos = 8 + 8 * n;
    for &l in &lens {
        out.push(flat[pos..pos + l].to_vec());
        pos += l;
    }
    Ok(out)
}

/// [`try_alltoallv_bytes`], panicking with the report if a peer is dead.
pub fn alltoallv_bytes(comm: &Comm, send: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    try_alltoallv_bytes(comm, send).unwrap_or_else(|e| panic!("{e}"))
}

/// Pairwise-exchange `MPI_Alltoallv` on byte buffers.
///
/// `send[d]` is the buffer destined for rank `d` (may be empty). Returns
/// `recv` where `recv[s]` came from rank `s`. This is the collective DIMD's
/// shuffle is built on (paper Algorithm 2); the pairwise schedule matches
/// what MPI libraries use for large messages.
pub fn try_alltoallv_bytes(
    comm: &Comm,
    mut send: Vec<Vec<u8>>,
) -> Result<Vec<Vec<u8>>, CommError> {
    let _phase = comm.phase("alltoallv");
    let n = comm.size();
    assert_eq!(send.len(), n, "alltoallv needs one buffer per rank");
    let r = comm.rank();
    let mut recv: Vec<Vec<u8>> = vec![Vec::new(); n];
    recv[r] = std::mem::take(&mut send[r]);
    for step in 1..n {
        let dst = (r + step) % n;
        let src = (r + n - step) % n;
        comm.send_bytes(dst, TAG_A2A, std::mem::take(&mut send[dst]));
        recv[src] = comm.recv(src, TAG_A2A)?.into_bytes();
    }
    Ok(recv)
}

/// Build the network schedule of an `alltoallv` with byte-count matrix
/// `counts[src][dst]`, for virtual-time evaluation. All pairwise flows are
/// issued concurrently, as the pairwise algorithm does under an eager
/// rendezvous protocol.
pub fn alltoallv_schedule(counts: &[Vec<f64>]) -> CommSchedule {
    let n = counts.len();
    let mut s = CommSchedule::new(n.max(1));
    for (src, row) in counts.iter().enumerate() {
        assert_eq!(row.len(), n, "count matrix must be square");
        for (dst, &bytes) in row.iter().enumerate() {
            if src != dst && bytes > 0.0 {
                s.transfer(src, dst, bytes, vec![]);
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_cluster;

    #[test]
    fn bcast_bytes_all_roots() {
        for n in [1, 2, 3, 4, 7, 8] {
            for root in 0..n {
                let out = run_cluster(n, |c| {
                    let mut buf = if c.rank() == root { vec![9, 9, 9] } else { Vec::new() };
                    bcast_bytes(c, root, &mut buf).expect("no peer dies");
                    buf
                });
                for b in out {
                    assert_eq!(b, vec![9, 9, 9], "n={n} root={root}");
                }
            }
        }
    }

    #[test]
    fn bcast_f32_matches() {
        let out = run_cluster(5, |c| {
            let mut buf = vec![0.0f32; 16];
            if c.rank() == 2 {
                for (i, v) in buf.iter_mut().enumerate() {
                    *v = i as f32;
                }
            }
            bcast_f32(c, 2, &mut buf).expect("no peer dies");
            buf
        });
        for b in out {
            assert_eq!(b[15], 15.0);
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for n in [1, 2, 3, 4, 6, 8] {
            for root in [0, n - 1] {
                let out = run_cluster(n, |c| {
                    let mut buf = vec![c.rank() as f32 + 1.0; 8];
                    reduce_f32(c, root, &mut buf).expect("no peer dies");
                    buf
                });
                let expect = (n * (n + 1) / 2) as f32;
                assert_eq!(out[root][0], expect, "n={n} root={root}");
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = run_cluster(4, |c| {
            gather_bytes(c, 1, vec![c.rank() as u8; c.rank() + 1]).expect("no peer dies")
        });
        let all = out[1].as_ref().expect("root has data");
        for (r, b) in all.iter().enumerate() {
            assert_eq!(b, &vec![r as u8; r + 1]);
        }
        assert!(out[0].is_none());
    }

    #[test]
    fn allgather_everyone_sees_everything() {
        let out = run_cluster(5, |c| allgather_bytes(c, vec![c.rank() as u8 * 3]));
        for all in out {
            for (r, b) in all.iter().enumerate() {
                assert_eq!(b, &vec![r as u8 * 3]);
            }
        }
    }

    #[test]
    fn allgather_with_empty_contributions() {
        let out = run_cluster(3, |c| {
            let mine = if c.rank() == 1 { vec![7u8] } else { Vec::new() };
            allgather_bytes(c, mine)
        });
        for all in out {
            assert!(all[0].is_empty());
            assert_eq!(all[1], vec![7]);
            assert!(all[2].is_empty());
        }
    }

    #[test]
    fn alltoallv_exchanges_correctly() {
        let n = 4;
        let out = run_cluster(n, |c| {
            let send: Vec<Vec<u8>> = (0..n)
                .map(|d| vec![(c.rank() * 10 + d) as u8; d + 1])
                .collect();
            alltoallv_bytes(c, send)
        });
        for (r, recv) in out.iter().enumerate() {
            for (s, b) in recv.iter().enumerate() {
                assert_eq!(b, &vec![(s * 10 + r) as u8; r + 1], "rank {r} from {s}");
            }
        }
    }

    #[test]
    fn alltoallv_with_empty_rows() {
        let out = run_cluster(3, |c| {
            let send = vec![Vec::new(), vec![c.rank() as u8], Vec::new()];
            alltoallv_bytes(c, send)
        });
        assert_eq!(out[1], vec![vec![0], vec![1], vec![2]]);
        assert!(out[0][1].is_empty());
    }

    fn even_counts(len: usize, n: usize) -> Vec<usize> {
        crate::algorithms::even_ranges(len, n).iter().map(|c| c.len()).collect()
    }

    /// Deterministic, rank- and index-dependent contribution with a messy
    /// mantissa so accumulation-order differences would show up in the bits.
    fn contrib(rank: usize, i: usize) -> f32 {
        let h = (rank as u32).wrapping_mul(0x9E37_79B9).wrapping_add(i as u32).wrapping_mul(0x85EB_CA6B);
        (h as f32 / u32::MAX as f32) * 2.0 - 1.0
    }

    #[test]
    fn reduce_scatter_owned_chunk_sums() {
        for n in [1, 2, 3, 4, 5] {
            for len in [0, 1, n, 4 * n + 3, 97] {
                let counts = even_counts(len, n);
                let out = run_cluster(n, |c| {
                    let mut buf: Vec<f32> =
                        (0..len).map(|i| ((c.rank() + 1) * (i + 1)) as f32).collect();
                    c.reduce_scatter(&mut buf, &counts);
                    buf
                });
                let off = chunk_offsets(&counts);
                for (rk, b) in out.iter().enumerate() {
                    for i in off[rk]..off[rk + 1] {
                        let want: f32 = (0..n).map(|r| ((r + 1) * (i + 1)) as f32).sum();
                        assert_eq!(b[i], want, "n={n} len={len} rank={rk} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_scatter_uneven_counts_with_empty_chunks() {
        let counts = vec![5, 0, 2, 9];
        let len: usize = counts.iter().sum();
        let counts2 = counts.clone();
        let out = run_cluster(4, |c| {
            let mut buf: Vec<f32> = (0..len).map(|i| contrib(c.rank(), i)).collect();
            c.reduce_scatter(&mut buf, &counts2);
            buf
        });
        let off = chunk_offsets(&counts);
        for rk in 0..4 {
            for i in off[rk]..off[rk + 1] {
                // Exact accumulation order for owner rk: fold starting at
                // rank rk+1, ending with rk's own contribution added last.
                let mut acc = contrib((rk + 1) % 4, i);
                acc += contrib((rk + 2) % 4, i);
                acc += contrib((rk + 3) % 4, i);
                acc += contrib(rk, i);
                assert_eq!(out[rk][i].to_bits(), acc.to_bits(), "rank={rk} i={i}");
            }
        }
    }

    #[test]
    fn allgather_f32_distributes_every_chunk() {
        for n in [1, 2, 3, 4, 6] {
            for len in [0, 1, n, 53] {
                let counts = even_counts(len, n);
                let off = chunk_offsets(&counts);
                let off2 = off.clone();
                let counts2 = counts.clone();
                let out = run_cluster(n, |c| {
                    // Own chunk holds real data; everything else is garbage
                    // the allgather must overwrite.
                    let mut buf = vec![f32::NAN; len];
                    for i in off2[c.rank()]..off2[c.rank() + 1] {
                        buf[i] = contrib(c.rank(), i);
                    }
                    c.allgather_f32(&mut buf, &counts2);
                    buf
                });
                for (rk, b) in out.iter().enumerate() {
                    for owner in 0..n {
                        for i in off[owner]..off[owner + 1] {
                            assert_eq!(
                                b[i].to_bits(),
                                contrib(owner, i).to_bits(),
                                "n={n} len={len} rank={rk} owner={owner} i={i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_scatter_bits_invariant_under_bucketing() {
        // The load-bearing property of the sharded optimizer: splitting a
        // payload into buckets (each reduce-scattered with the owner map
        // restricted to it) yields bit-identical owned chunks to one fused
        // reduce-scatter, because the ring anchors accumulation order at the
        // owner, not at chunk boundaries.
        let n = 3;
        let len = 23;
        let global = even_counts(len, n); // [8, 8, 7]
        let fused = {
            let g = global.clone();
            run_cluster(n, move |c| {
                let mut buf: Vec<f32> = (0..len).map(|i| contrib(c.rank(), i)).collect();
                c.reduce_scatter(&mut buf, &g);
                buf
            })
        };
        for split in [1, 5, 10, 16, 22] {
            let g = global.clone();
            let bucketed = run_cluster(n, move |c| {
                let mut buf: Vec<f32> = (0..len).map(|i| contrib(c.rank(), i)).collect();
                let off = chunk_offsets(&g);
                // Owner map restricted to [0, split) and [split, len).
                let lo: Vec<usize> =
                    (0..n).map(|r| off[r + 1].min(split).saturating_sub(off[r].min(split))).collect();
                let hi: Vec<usize> =
                    (0..n).map(|r| off[r + 1].max(split) - off[r].max(split)).collect();
                let (a, b) = buf.split_at_mut(split);
                c.reduce_scatter(a, &lo);
                c.reduce_scatter(b, &hi);
                buf
            });
            let off = chunk_offsets(&global);
            for rk in 0..n {
                for i in off[rk]..off[rk + 1] {
                    assert_eq!(
                        bucketed[rk][i].to_bits(),
                        fused[rk][i].to_bits(),
                        "split={split} rank={rk} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn alltoallv_schedule_counts() {
        let counts = vec![
            vec![0.0, 10.0, 20.0],
            vec![1.0, 0.0, 2.0],
            vec![0.0, 0.0, 0.0],
        ];
        let s = alltoallv_schedule(&counts);
        assert_eq!(s.len(), 4); // four non-zero off-diagonal entries
        assert!((s.total_bytes() - 33.0).abs() < 1e-9);
    }
}
