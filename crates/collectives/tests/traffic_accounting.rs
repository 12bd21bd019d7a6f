//! Cross-validation of the two faces of each algorithm: the bytes the *real*
//! threaded execution puts on each link must equal the bytes its compiled
//! schedule claims to move there. This pins the simulation results
//! (Figures 5–6) to the actual implementations.

use dcnn_collectives::plan::{compile, Step};
use dcnn_collectives::{run_cluster, AllreduceAlgo, ClusterBuilder, CollectiveOp, CostModel};
use dcnn_simnet::OpKind;

#[test]
fn real_link_bytes_equal_schedule_link_bytes() {
    let elems = 4099; // prime: uneven chunks at every world size
    let cost = CostModel::default();
    for n in [2usize, 3, 4, 8] {
        for algo in AllreduceAlgo::all() {
            let a = algo.build();
            // real[src][dst]: what each rank's per-link counters recorded.
            let real: Vec<Vec<u64>> = run_cluster(n, |comm| {
                let before = comm.stats();
                let mut buf = vec![comm.rank() as f32; elems];
                a.run(comm, &mut buf);
                comm.stats().link_bytes_delta(&before)
            });
            let mut scheduled = vec![vec![0u64; n]; n];
            for op in a.schedule(n, (elems * 4) as f64, &cost).ops() {
                if let OpKind::Transfer { src, dst, bytes } = op.kind {
                    scheduled[src][dst] += bytes as u64;
                }
            }
            assert_eq!(real, scheduled, "{} n={n}", algo.name());
        }
    }
}

/// Every plan is well-formed at every world size, degenerate lengths
/// included: compiling terminates (a stuck compile *is* a deadlock of the
/// real run), pairs each send with exactly one receive of equal length and
/// leaves none over — `compile` panics otherwise — so the schedule has one
/// transfer per send and one compute per receive-and-sum.
#[test]
fn every_plan_is_well_formed() {
    let cost = CostModel::default();
    for algo in AllreduceAlgo::all() {
        let a = algo.build();
        for n in 1..=17usize {
            for len in [0, 1, n - 1, n, 257] {
                let plans: Vec<Vec<Step>> = (0..n).map(|r| a.plan(n, r, len)).collect();
                let count = |f: fn(&Step) -> bool| plans.iter().flatten().filter(|s| f(s)).count();
                let sends = count(|s| matches!(s, Step::Send { .. }));
                let sums = count(|s| matches!(s, Step::RecvReduce { .. }));
                let copies = count(|s| matches!(s, Step::RecvCopy { .. }));
                assert_eq!(sends, sums + copies, "{} n={n} len={len}", algo.name());
                let sch = compile(&plans, &cost);
                let transfers =
                    sch.ops().iter().filter(|op| matches!(op.kind, OpKind::Transfer { .. })).count();
                assert_eq!(transfers, sends, "{} n={n} len={len}", algo.name());
                assert_eq!(sch.len() - transfers, sums, "{} n={n} len={len}", algo.name());
            }
        }
    }
}

#[test]
fn traffic_totals_and_distribution_match_theory() {
    // Totals: the multi-color trees, both rings and halving-doubling all
    // move 2(n−1)·payload across the cluster; whole-buffer recursive
    // doubling moves n·log₂(n)·payload. Distribution: the reduce-scatter
    // ring spreads traffic perfectly evenly, while the multi-color trees
    // load interior nodes more than leaves.
    let n = 8;
    let elems = 4096;
    let per_rank = |algo: AllreduceAlgo| -> Vec<u64> {
        let a = algo.build();
        run_cluster(n, |comm| {
            let mut buf = vec![1.0f32; elems];
            a.run(comm, &mut buf);
            comm.bytes_sent()
        })
    };
    let payload = (elems * 4) as u64;
    let rs = per_rank(AllreduceAlgo::RingReduceScatter);
    let mc = per_rank(AllreduceAlgo::MultiColor(4));
    let rd = per_rank(AllreduceAlgo::RecursiveDoubling);
    let hd = per_rank(AllreduceAlgo::HalvingDoubling);

    let total = |v: &[u64]| v.iter().sum::<u64>();
    assert_eq!(total(&rs), 2 * (n as u64 - 1) * payload);
    assert_eq!(total(&mc), 2 * (n as u64 - 1) * payload);
    assert_eq!(total(&hd), 2 * (n as u64 - 1) * payload);
    assert_eq!(total(&rd), 3 * n as u64 * payload); // log2(8) rounds

    // Reduce-scatter ring: perfectly uniform per rank.
    assert!(rs.iter().all(|&b| b == rs[0]), "{rs:?}");
    // The multi-color construction puts every node in exactly one color's
    // interior, so its per-rank traffic is *also* perfectly balanced — the
    // design property behind Figure 2's "non leaf nodes are distinct across
    // colors". (With one color the tree hot-spots instead.)
    assert!(mc.iter().all(|&b| b == mc[0]), "multicolor unbalanced: {mc:?}");
    let one = per_rank(AllreduceAlgo::MultiColor(1));
    let (mn, mx) = (one.iter().min().expect("ranks"), one.iter().max().expect("ranks"));
    assert!(mx > mn, "single tree should hot-spot: {one:?}");
}

#[test]
fn message_counts_reflect_pipelining() {
    // The pipelined algorithms send many sub-chunk messages; the whole-
    // buffer recursive doubling sends exactly log₂(n) per rank.
    let n = 8;
    let elems = 1 << 20; // large enough to hit the pipeline caps
    let msgs = |algo: AllreduceAlgo| -> u64 {
        let a = algo.build();
        run_cluster(n, |comm| {
            let mut buf = vec![1.0f32; elems];
            a.run(comm, &mut buf);
            comm.msgs_sent()
        })
        .iter()
        .sum()
    };
    let rd = msgs(AllreduceAlgo::RecursiveDoubling);
    assert_eq!(rd, (n as u64) * 3); // log2(8) exchanges per rank
    let mc = msgs(AllreduceAlgo::MultiColor(4));
    assert!(mc > rd, "pipelined trees should send more, smaller messages");
}

/// The scatter counters are bumped where every sharded exchange passes —
/// the reduce-scatter op — so they read the same for an algorithm with a
/// native scatter phase (the ring) and one whose reduce-scatter is derived
/// (multicolor), blocking or launched: the buffer's bytes, once.
#[test]
fn sharded_exchange_counts_its_scatter_bytes_once_whatever_the_algorithm() {
    let (n, len) = (3usize, 4099usize);
    let counts: Vec<usize> = dcnn_collectives::even_ranges(len, n).iter().map(|r| r.len()).collect();
    for algo in [AllreduceAlgo::MultiColor(4), AllreduceAlgo::RingReduceScatter] {
        for launched in [false, true] {
            let (a, counts) = (algo.build(), counts.clone());
            let run = ClusterBuilder::new(n).run(move |comm| {
                let op = CollectiveOp::reduce_scatter(a.clone(), counts.clone());
                let mut buf = vec![comm.rank() as f32; len];
                if launched {
                    comm.launch(op, buf).wait();
                } else {
                    op.run(comm, &mut buf);
                }
            });
            for (rank, st) in run.stats.iter().enumerate() {
                let ctx = format!("{} launched={launched} rank={rank}", algo.name());
                assert_eq!(st.scatter_bytes, 4 * len as u64, "{ctx}");
                assert!(st.scatter_wait_ns > 0, "{ctx}");
                assert_eq!(st.gather_bytes, 0, "{ctx}");
            }
        }
    }
}
