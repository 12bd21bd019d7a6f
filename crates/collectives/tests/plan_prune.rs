//! Dead-step elimination ([`plan::reduce_scatter`]): the reduce-scatter
//! derived from every allreduce plan keeps each rank's owned bits, stays a
//! well-formed plan, and moves no more than the allreduce — for every
//! algorithm, world size, length around the chunk edges and owner map.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use dcnn_collectives::algorithms::Pipeline;
use dcnn_collectives::plan::{self, Step};
use dcnn_collectives::runtime::CollectiveOp;
use dcnn_collectives::{
    even_ranges, run_cluster, Allreduce, AllreduceAlgo, CostModel, MultiColor, PipelinedRing,
    RingReduceScatter,
};

type Algo = Arc<dyn Allreduce + Send + Sync>;

/// The six algorithms as configured for training, plus the two pipelined
/// ones with sub-chunks small enough that test-sized buffers are cut.
fn algorithms() -> Vec<Algo> {
    let small = || Pipeline { target_bytes: 64, max_chunks: 4 };
    let mut all: Vec<Algo> = AllreduceAlgo::all().iter().map(|a| a.build()).collect();
    all.push(Arc::new(MultiColor::with_pipeline(4, small())));
    all.push(Arc::new(PipelinedRing::with_pipeline(small())));
    all
}

/// Lengths on both sides of the edges the plans cut at: one element per
/// rank, per color (4) and per pipeline sub-chunk (16 elements), and sizes
/// that divide by none of them.
fn lengths(n: usize) -> Vec<usize> {
    let mut v = vec![1, n - 1, n, n + 1, 4 * n - 1, 4 * n, 16 * n + 1, 103, 257];
    v.sort_unstable();
    v.dedup();
    v
}

/// Owner maps over `len` elements: the even cut, one growing with the rank,
/// and one that leaves every other rank (rank 0 included) nothing.
fn owner_maps(len: usize, n: usize) -> Vec<Vec<usize>> {
    let even = even_counts(len, n);
    let weights: usize = (1..=n).sum();
    let mut uneven: Vec<usize> = (1..=n).map(|w| len * w / weights).collect();
    uneven[n - 1] += len - uneven.iter().sum::<usize>();
    let holders = even_ranges(len, n / 2);
    let holes: Vec<usize> = (0..n).map(|r| if r % 2 == 1 { holders[r / 2].len() } else { 0 }).collect();
    vec![even, uneven, holes]
}

fn even_counts(len: usize, n: usize) -> Vec<usize> {
    even_ranges(len, n).iter().map(|r| r.len()).collect()
}

fn contribution(rank: usize, i: usize) -> f32 {
    ((i * 37 + rank * 11) as f32 * 0.618).sin()
}

fn plans_of(a: &Algo, n: usize, len: usize) -> Vec<Vec<Step>> {
    (0..n).map(|r| a.plan(n, r, len)).collect()
}

/// `(elements, messages)` the plans send, cluster-wide.
fn sent(plans: &[Vec<Step>]) -> (usize, usize) {
    let sends = || plans.iter().flatten().filter(|s| matches!(s, Step::Send { .. }));
    (sends().map(|s| s.range().len()).sum(), sends().count())
}

fn world_sizes() -> Vec<usize> {
    (2..=9).chain([16]).collect()
}

#[test]
fn pruned_plan_keeps_owned_bits_and_stays_well_formed() {
    for a in algorithms() {
        for n in world_sizes() {
            for len in lengths(n) {
                let full = plans_of(&a, n, len);
                let maps = owner_maps(len, n);
                let pruned: Vec<Vec<Vec<Step>>> =
                    maps.iter().map(|counts| plan::reduce_scatter(&full, counts)).collect();
                for (counts, p) in maps.iter().zip(&pruned) {
                    // Panics on a deadlock, an unmatched send or a length
                    // mismatch.
                    plan::compile(p, &CostModel::default());
                    assert!(
                        sent(p).0 <= sent(&full).0,
                        "{} n={n} len={len} {counts:?}: pruned sends more",
                        a.name()
                    );
                }
                let out = run_cluster(n, |comm| {
                    let mine = || -> Vec<f32> { (0..len).map(|i| contribution(comm.rank(), i)).collect() };
                    let mut reference = mine();
                    a.run(comm, &mut reference);
                    let scattered: Vec<Vec<f32>> = pruned
                        .iter()
                        .map(|p| {
                            let mut buf = mine();
                            plan::execute(comm, &p[comm.rank()], &mut buf).expect("no peer dies");
                            buf
                        })
                        .collect();
                    (reference, scattered)
                });
                for (rank, (reference, scattered)) in out.iter().enumerate() {
                    for (counts, buf) in maps.iter().zip(scattered) {
                        let start: usize = counts[..rank].iter().sum();
                        for i in start..start + counts[rank] {
                            assert_eq!(
                                buf[i].to_bits(),
                                reference[i].to_bits(),
                                "{} n={n} len={len} {counts:?} rank={rank} i={i}",
                                a.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// What the pass saves, where it can be said exactly.
#[test]
fn pruned_traffic_matches_theory() {
    let len = 1 << 12;
    for n in world_sizes() {
        let counts = even_counts(len, n);
        let pruned_of = |a: &Algo| {
            let full = plans_of(a, n, len);
            (sent(&plan::reduce_scatter(&full, &counts)), sent(&full))
        };
        // Every color's root owns that color's chunk when there are as many
        // colors as ranks: the whole broadcast is dead.
        if n <= 4 {
            let (pruned, full) = pruned_of(&AllreduceAlgo::MultiColor(4).build());
            assert_eq!(2 * pruned.0, full.0, "multicolor n={n}");
        }
        // The ring's allgather half is dead: what is left is its native
        // scatter phase, message for message.
        let (pruned, full) = pruned_of(&AllreduceAlgo::RingReduceScatter.build());
        let native: Vec<Vec<Step>> =
            (0..n).map(|r| RingReduceScatter.scatter_plan(r, &counts)).collect();
        assert_eq!(pruned, sent(&native), "ring-reduce-scatter n={n}");
        assert_eq!(2 * pruned.0, full.0, "ring-reduce-scatter n={n}");
        if n.is_power_of_two() {
            let (pruned, full) = pruned_of(&AllreduceAlgo::HalvingDoubling.build());
            assert_eq!(2 * pruned.0, full.0, "halving-doubling n={n}");
            // Whole-buffer doubling: n·log n buffer lengths fall to n − 1.
            let (pruned, full) = pruned_of(&AllreduceAlgo::RecursiveDoubling.build());
            assert_eq!(full.0, n * n.trailing_zeros() as usize * len, "openmpi-default n={n}");
            assert_eq!(pruned.0, (n - 1) * len, "openmpi-default n={n}");
        }
    }
}

/// `inner`, counting calls of `plan`.
struct Counting {
    inner: Algo,
    plans: AtomicUsize,
}

impl Allreduce for Counting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn plan(&self, n: usize, rank: usize, len: usize) -> Vec<Step> {
        self.plans.fetch_add(1, Relaxed);
        self.inner.plan(n, rank, len)
    }
}

/// A kept reduce-scatter op plans on its first run only: its clones — one
/// per step, blocking or launched — execute the plan it built.
#[test]
fn reduce_scatter_op_plans_once_however_often_it_runs() {
    let (n, len) = (3, 103);
    let counts = even_counts(len, n);
    let algo = Arc::new(Counting { inner: AllreduceAlgo::MultiColor(4).build(), plans: AtomicUsize::new(0) });
    run_cluster(n, |comm| {
        let op = CollectiveOp::reduce_scatter(Arc::clone(&algo) as Algo, counts.clone());
        for step in 0..4 {
            let mut buf: Vec<f32> = (0..len).map(|i| contribution(comm.rank(), i + step)).collect();
            if step % 2 == 0 {
                op.clone().run(comm, &mut buf).expect("no peer dies");
            } else {
                comm.launch(op.clone(), buf).wait().expect("no peer dies");
            }
        }
    });
    // Each rank plans all n ranks, once.
    assert_eq!(algo.plans.load(Relaxed), n * n);
}
