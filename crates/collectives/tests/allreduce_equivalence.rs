//! Cross-algorithm integration tests: every allreduce implementation must
//! compute the same sums, and the simulated fabric must rank the paper's
//! three algorithms the way Figure 5 does.

use std::sync::Arc;

use dcnn_collectives::{
    crc32_f32, run_cluster, Allreduce, AllreduceAlgo, ClusterBuilder, CollectiveOp, CostModel,
    MultiColor, PipelinedRing, RecursiveDoubling, RingReduceScatter, TransportKind,
};
use dcnn_simnet::{throughput_gbps, FatTree, SimOptions};
use proptest::prelude::*;

fn reference(n: usize, len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            (0..n)
                .map(|r| contribution(r, i, seed))
                .sum()
        })
        .collect()
}

fn contribution(rank: usize, i: usize, seed: u64) -> f32 {
    let x = (rank as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(i as u64)
        .wrapping_add(seed);
    ((x % 1000) as f32 - 500.0) / 250.0
}

fn run_algo(algo: &AllreduceAlgo, n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
    let a = algo.build();
    run_cluster(n, move |c| {
        let mut buf: Vec<f32> = (0..len).map(|i| contribution(c.rank(), i, seed)).collect();
        a.run(c, &mut buf);
        buf
    })
}

#[test]
fn all_algorithms_agree_with_reference() {
    for n in [2, 3, 5, 8] {
        for len in [1, 17, 260] {
            let expect = reference(n, len, 42);
            for algo in AllreduceAlgo::all() {
                let out = run_algo(&algo, n, len, 42);
                for (rank, buf) in out.iter().enumerate() {
                    for i in 0..len {
                        let err = (buf[i] - expect[i]).abs();
                        assert!(
                            err <= 1e-4 * expect[i].abs().max(1.0),
                            "{} n={n} len={len} rank={rank} i={i}: {} vs {}",
                            algo.name(),
                            buf[i],
                            expect[i]
                        );
                    }
                }
            }
        }
    }
}

/// World sizes of the golden fingerprints, column order of [`GOLDEN`].
const GOLDEN_WORLDS: [usize; 5] = [2, 3, 4, 5, 8];

/// CRC-32 of every algorithm's reduced buffer on the seed-42 `contribution`
/// inputs, captured from the hand-written `run` bodies at the commit before
/// they became step plans: 260 elements stays under the default `Pipeline`
/// threshold, 1.2 M elements cuts every color into ≥ 2 sub-chunks. Matching
/// them bit for bit is the proof that the plans kept each algorithm's
/// summation order.
const GOLDEN: [(&str, usize, [u32; 5]); 12] = [
    ("multicolor", 260, [0xe11cdcde, 0x851ca40a, 0xc84a1b58, 0x73cb3aa6, 0x5a156c1d]),
    ("ring", 260, [0xe11cdcde, 0x8c4b5864, 0xd63b0507, 0xfd0b63f4, 0x6cc9bd09]),
    ("openmpi-default", 260, [0xe11cdcde, 0x8c4b5864, 0xe64926e5, 0xb4646ea5, 0x8b023494]),
    ("ring-reduce-scatter", 260, [0xe11cdcde, 0x46cb5bab, 0x9648f1fb, 0xcf1a7bbf, 0x5d175e97]),
    ("halving-doubling", 260, [0xe11cdcde, 0x8c4b5864, 0xf62b365d, 0xe97c10c6, 0x7b8d5f87]),
    ("hierarchical", 260, [0xe11cdcde, 0x8c4b5864, 0xe64926e5, 0x21794bd6, 0x8b023494]),
    ("multicolor", 1_200_000, [0x72ac8239, 0x2c93e524, 0x36ecbb15, 0x7d3f02d2, 0x72a303d1]),
    ("ring", 1_200_000, [0x72ac8239, 0xca28bb9c, 0xdf0896e9, 0x8cd42ca0, 0x8e015732]),
    ("openmpi-default", 1_200_000, [0x72ac8239, 0xca28bb9c, 0x3a23f8fb, 0xbffa8c84, 0x99517501]),
    ("ring-reduce-scatter", 1_200_000, [0x72ac8239, 0xe6d1f28c, 0x26614493, 0xad3f3d73, 0x1f3ac17c]),
    ("halving-doubling", 1_200_000, [0x72ac8239, 0xca28bb9c, 0x359f9acc, 0x33455252, 0x19d1791a]),
    ("hierarchical", 1_200_000, [0x72ac8239, 0xca28bb9c, 0x3a23f8fb, 0x5942d023, 0x99517501]),
];

#[test]
fn every_algorithm_reproduces_the_golden_fingerprints() {
    for (name, len, crcs) in GOLDEN {
        let algo: AllreduceAlgo = name.parse().expect("golden row names an algorithm");
        for (n, want) in GOLDEN_WORLDS.into_iter().zip(crcs) {
            for (rank, buf) in run_algo(&algo, n, len, 42).iter().enumerate() {
                assert_eq!(!crc32_f32(!0, buf), want, "{name} n={n} len={len} rank={rank}");
            }
        }
    }
}

/// Same capture for the reduce-scatter ring's native scatter seam under
/// uneven owner maps (one with an empty shard): each rank's owned range.
#[test]
fn ring_reduce_scatter_seam_reproduces_the_golden_fingerprints() {
    let golden: [(&[usize], &[u32]); 3] = [
        (&[35, 34, 34], &[0x6581808d, 0x659a0176, 0xf6952b6d]),
        (&[100, 0, 37, 123], &[0x1df1abf6, 0x00000000, 0xcc6cc1b5, 0x5a6451d8]),
        (&[21, 21, 21, 20, 20], &[0x926f6a35, 0xe62ec9aa, 0xa4f8abf9, 0xa16260b9, 0xedcd37b5]),
    ];
    for (counts, crcs) in golden {
        let len: usize = counts.iter().sum();
        let owned = run_cluster(counts.len(), move |c| {
            let mut buf: Vec<f32> = (0..len).map(|i| contribution(c.rank(), i, 42)).collect();
            RingReduceScatter.reduce_scatter(c, &mut buf, counts);
            let start: usize = counts[..c.rank()].iter().sum();
            !crc32_f32(!0, &buf[start..start + counts[c.rank()]])
        });
        assert_eq!(owned, crcs, "counts {counts:?}");
    }
}

/// Blocking reference on an arbitrary transport.
fn run_blocking(kind: TransportKind, algo: &AllreduceAlgo, n: usize, len: usize) -> Vec<Vec<f32>> {
    let a = algo.build();
    ClusterBuilder::new(n)
        .transport(kind)
        .run(move |c| {
            let mut buf: Vec<f32> = (0..len).map(|i| contribution(c.rank(), i, 9)).collect();
            a.run(c, &mut buf);
            buf
        })
        .results
}

/// Same payload through the nonblocking engine, cut into `bucket_len`-sized
/// buckets all launched before any is drained.
fn run_async_bucketed(
    kind: TransportKind,
    algo: &AllreduceAlgo,
    n: usize,
    len: usize,
    bucket_len: usize,
) -> Vec<Vec<f32>> {
    let a = algo.build();
    ClusterBuilder::new(n)
        .transport(kind)
        .run(move |c| {
            let full: Vec<f32> = (0..len).map(|i| contribution(c.rank(), i, 9)).collect();
            let mut spans = Vec::new();
            let mut pending = Vec::new();
            let mut start = 0;
            while start < len {
                let end = (start + bucket_len).min(len);
                let op = CollectiveOp::allreduce(Arc::clone(&a));
                pending.push(c.launch(op, full[start..end].to_vec()));
                spans.push(start..end);
                start = end;
            }
            let mut out = vec![0.0f32; len];
            for (span, p) in spans.into_iter().zip(pending) {
                out[span].copy_from_slice(&p.wait());
            }
            out
        })
        .results
}

fn assert_bitwise(label: &str, a: &[Vec<f32>], b: &[Vec<f32>]) {
    for (rank, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{label} rank {rank}");
        for i in 0..x.len() {
            assert_eq!(
                x[i].to_bits(),
                y[i].to_bits(),
                "{label} rank={rank} i={i}: {} vs {}",
                x[i],
                y[i]
            );
        }
    }
}

/// One async bucket spanning the whole payload is the blocking call run on
/// a worker thread: every algorithm, both transports, bitwise identical.
#[test]
fn async_single_bucket_bitwise_matches_blocking_every_algorithm() {
    let (n, len) = (4, 193);
    for kind in [TransportKind::Threads, TransportKind::Tcp] {
        for algo in AllreduceAlgo::all() {
            let blocking = run_blocking(kind, &algo, n, len);
            let async_one = run_async_bucketed(kind, &algo, n, len, len);
            assert_bitwise(&format!("{} {kind:?}", algo.name()), &blocking, &async_one);
        }
    }
}

/// At two ranks every per-element sum is one f32 addition, so any bucketing
/// must reproduce the fused blocking result exactly — the invariant the
/// trainer's bitwise CI smoke leans on, across all algorithms and both
/// transports.
#[test]
fn bucketed_async_bitwise_matches_blocking_at_two_ranks() {
    let (n, len) = (2, 260);
    for kind in [TransportKind::Threads, TransportKind::Tcp] {
        for algo in AllreduceAlgo::all() {
            let blocking = run_blocking(kind, &algo, n, len);
            let bucketed = run_async_bucketed(kind, &algo, n, len, 37);
            assert_bitwise(&format!("{} {kind:?}", algo.name()), &blocking, &bucketed);
        }
    }
}

/// Even per-rank counts for a `len`-element buffer.
fn even_counts(len: usize, n: usize) -> Vec<usize> {
    dcnn_collectives::even_ranges(len, n).iter().map(|c| c.len()).collect()
}

/// The sharded optimizer's contract on the reduce-scatter seam: for every
/// algorithm, the chunk a rank owns after `reduce_scatter` is bit-identical
/// to the same chunk after the full replicated `run`. For the five
/// algorithms without a native scatter phase that is by construction (the
/// default seam *is* `run`); for the reduce-scatter ring it holds because
/// `run` is composed from the same scatter primitive.
#[test]
fn reduce_scatter_seam_owned_chunk_matches_run_every_algorithm() {
    for n in [2, 4, 5] {
        // 103 is not divisible by any tested n: uneven shards.
        let len = 103;
        let counts = even_counts(len, n);
        for algo in AllreduceAlgo::all() {
            let full = run_algo(&algo, n, len, 7);
            let a = algo.build();
            let cts = counts.clone();
            let scattered = run_cluster(n, move |c| {
                let mut buf: Vec<f32> =
                    (0..len).map(|i| contribution(c.rank(), i, 7)).collect();
                a.reduce_scatter(c, &mut buf, &cts);
                buf
            });
            let mut start = 0;
            for (rank, &cnt) in counts.iter().enumerate() {
                for i in start..start + cnt {
                    assert_eq!(
                        scattered[rank][i].to_bits(),
                        full[rank][i].to_bits(),
                        "{} n={n} rank={rank} i={i}: {} vs {}",
                        algo.name(),
                        scattered[rank][i],
                        full[rank][i]
                    );
                }
                start += cnt;
            }
        }
    }
}

/// Async reduce-scatter launches resolve to the same owned bits as the
/// blocking seam call, every algorithm, both transports.
#[test]
fn async_reduce_scatter_bitwise_matches_blocking_every_algorithm() {
    let (n, len) = (4, 193);
    let counts = even_counts(len, n);
    for kind in [TransportKind::Threads, TransportKind::Tcp] {
        for algo in AllreduceAlgo::all() {
            let a = algo.build();
            let cts = counts.clone();
            let blocking = ClusterBuilder::new(n)
                .transport(kind)
                .run(move |c| {
                    let mut buf: Vec<f32> =
                        (0..len).map(|i| contribution(c.rank(), i, 9)).collect();
                    a.reduce_scatter(c, &mut buf, &cts);
                    buf
                })
                .results;
            let a = algo.build();
            let cts = counts.clone();
            let asynced = ClusterBuilder::new(n)
                .transport(kind)
                .run(move |c| {
                    let buf: Vec<f32> =
                        (0..len).map(|i| contribution(c.rank(), i, 9)).collect();
                    c.launch(CollectiveOp::reduce_scatter(Arc::clone(&a), cts.clone()), buf).wait()
                })
                .results;
            // Only owned chunks are specified; compare those.
            let mut start = 0;
            for (rank, &cnt) in counts.iter().enumerate() {
                for i in start..start + cnt {
                    assert_eq!(
                        blocking[rank][i].to_bits(),
                        asynced[rank][i].to_bits(),
                        "{} {kind:?} rank={rank} i={i}",
                        algo.name()
                    );
                }
                start += cnt;
            }
        }
    }
}

/// The param-path allgather: async handle resolves to the blocking result,
/// both transports, and scatter/gather byte counters move.
#[test]
fn allgather_f32_async_matches_blocking_and_counts() {
    let (n, len) = (4, 101);
    let counts = even_counts(len, n);
    for kind in [TransportKind::Threads, TransportKind::Tcp] {
        let cts = counts.clone();
        let run = ClusterBuilder::new(n).transport(kind).run(move |c| {
            let mut off = 0usize;
            let mut buf = vec![0.0f32; len];
            for (r, &cnt) in cts.iter().enumerate() {
                for (i, v) in buf.iter_mut().enumerate().skip(off).take(cnt) {
                    *v = if r == c.rank() { contribution(r, i, 3) } else { -1.0 };
                }
                off += cnt;
            }
            let blocking = {
                let mut b = buf.clone();
                c.allgather_f32(&mut b, &cts);
                b
            };
            let asynced = c.launch(CollectiveOp::allgather(cts.clone()), buf).wait();
            (blocking, asynced)
        });
        for (rank, (blocking, asynced)) in run.results.iter().enumerate() {
            let mut off = 0usize;
            for (owner, &cnt) in counts.iter().enumerate() {
                for i in off..off + cnt {
                    assert_eq!(
                        blocking[i].to_bits(),
                        contribution(owner, i, 3).to_bits(),
                        "{kind:?} rank={rank} owner={owner} i={i}"
                    );
                    assert_eq!(blocking[i].to_bits(), asynced[i].to_bits());
                }
                off += cnt;
            }
        }
        for (rank, st) in run.stats.iter().enumerate() {
            assert!(st.gather_bytes > 0, "{kind:?} rank {rank} gather_bytes");
            assert!(st.gather_wait_ns > 0, "{kind:?} rank {rank} gather_wait_ns");
        }
    }
}

#[test]
fn figure5_ordering_large_messages() {
    // Figure 5: at large message sizes on 16 nodes, throughput order is
    // multicolor > ring > default OpenMPI.
    let topo = FatTree::minsky(16);
    let cost = CostModel::default();
    let opts = SimOptions::default();
    let bytes = 93e6; // the GoogLeNet-BN payload of §5.1
    let mc = MultiColor::new(4).schedule(16, bytes, &cost).simulate(&topo, &opts).makespan;
    let ring = PipelinedRing::default().schedule(16, bytes, &cost).simulate(&topo, &opts).makespan;
    let rd = RecursiveDoubling.schedule(16, bytes, &cost).simulate(&topo, &opts).makespan;
    assert!(mc < ring, "multicolor {mc} should beat ring {ring}");
    assert!(ring < rd, "ring {ring} should beat openmpi-default {rd}");
    // Paper §5.1: multi-color takes 50-60% less time than default OpenMPI.
    let saving = 1.0 - mc / rd;
    assert!(
        saving > 0.40,
        "multicolor should save >40% over default: saved {:.0}%",
        saving * 100.0
    );
    // Sanity: achieved bus throughput is below the NIC aggregate.
    let gbps = throughput_gbps(bytes, mc);
    assert!(gbps > 1.0 && gbps < 400.0, "throughput {gbps} Gbps");
}

#[test]
fn schedules_execute_on_all_paper_node_counts() {
    let cost = CostModel::default();
    let opts = SimOptions::default();
    for nodes in [8usize, 16, 32] {
        let topo = FatTree::minsky(nodes);
        for algo in AllreduceAlgo::all() {
            let s = algo.build().schedule(nodes, 4e6, &cost);
            s.validate();
            let rep = s.simulate(&topo, &opts);
            assert!(rep.makespan > 0.0, "{} at {nodes}", algo.name());
            assert!(rep.makespan < 1.0, "{} at {nodes}: implausible {}", algo.name(), rep.makespan);
        }
    }
}

#[test]
fn multicolor_scaling_efficiency_shape() {
    // Figure 6: the multi-color algorithm keeps epoch time scaling near-
    // linear. Here we check allreduce time grows slowly from 8 to 32 nodes.
    let cost = CostModel::default();
    let opts = SimOptions::default();
    let bytes = 93e6;
    let t8 = MultiColor::new(4)
        .schedule(8, bytes, &cost)
        .simulate(&FatTree::minsky(8), &opts)
        .makespan;
    let t32 = MultiColor::new(4)
        .schedule(32, bytes, &cost)
        .simulate(&FatTree::minsky(32), &opts)
        .makespan;
    assert!(
        t32 < t8 * 2.0,
        "allreduce should not blow up with node count: 8n={t8}, 32n={t32}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every algorithm sums correctly for arbitrary (n, len).
    #[test]
    fn allreduce_correct_prop(n in 2usize..7, len in 1usize..120, seed in 0u64..u64::MAX) {
        let expect = reference(n, len, seed);
        for algo in AllreduceAlgo::all() {
            let out = run_algo(&algo, n, len, seed);
            for buf in &out {
                for i in 0..len {
                    prop_assert!((buf[i] - expect[i]).abs() <= 1e-3 * expect[i].abs().max(1.0),
                        "{} n={n} len={len}", algo.name());
                }
            }
        }
    }

    /// Schedules are valid DAGs and simulate without stalling for arbitrary
    /// payload sizes.
    #[test]
    fn schedules_simulate_prop(n in 2usize..10, kb in 1u32..2048) {
        let topo = FatTree::minsky(n);
        let cost = CostModel::default();
        for algo in AllreduceAlgo::all() {
            let s = algo.build().schedule(n, kb as f64 * 1024.0, &cost);
            s.validate();
            let rep = s.simulate(&topo, &SimOptions::default());
            prop_assert!(rep.makespan.is_finite() && rep.makespan >= 0.0);
        }
    }
}
