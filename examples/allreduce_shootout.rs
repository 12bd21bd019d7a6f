//! Allreduce shootout: every algorithm, executed two ways —
//!
//! 1. **for real** across threaded ranks on this machine (correctness +
//!    relative cost of the message patterns), and
//! 2. **in virtual time** on the simulated 16-node Minsky fat-tree (the
//!    paper's Figure 5 conditions).
//!
//! ```text
//! cargo run --release --example allreduce_shootout
//! ```

use dist_cnn::collectives::{CollectiveOp, CostModel};
use dist_cnn::prelude::*;

fn main() {
    let ranks = 8;
    let elems = 1 << 20; // 4 MiB of f32 per rank
    println!("== real execution: {ranks} rank threads, {} MiB payload ==", (elems * 4) >> 20);
    for algo in AllreduceAlgo::all() {
        let a = algo.build();
        let t0 = std::time::Instant::now();
        // ClusterBuilder (vs plain run_cluster) also returns the runtime's
        // per-rank counters; DCNN_TRACE=1 would add the full event log.
        let run = ClusterBuilder::new(ranks).run(|comm| {
            let mut buf = vec![(comm.rank() + 1) as f32; elems];
            a.run(comm, &mut buf);
            buf[elems / 2]
        });
        let dt = t0.elapsed().as_secs_f64();
        let expect: f32 = (1..=ranks).map(|r| r as f32).sum();
        assert!(
            run.results.iter().all(|&v| (v - expect).abs() < 1e-3),
            "{} wrong sum",
            algo.name()
        );
        let bytes: u64 = run.stats.iter().map(|s| s.bytes_sent).sum();
        let max_wait_ns = run.stats.iter().map(|s| s.recv_wait_ns).max().unwrap_or(0);
        let stash_hwm = run.stats.iter().map(|s| s.stash_hwm).max().unwrap_or(0);
        println!(
            "  {:<20} {:>8.2} ms   (sum ok; {:>6.1} MiB sent, max recv wait {:>6.2} ms, stash hwm {})",
            algo.name(),
            dt * 1e3,
            bytes as f64 / (1 << 20) as f64,
            max_wait_ns as f64 / 1e6,
            stash_hwm,
        );
    }

    println!();
    println!("== overlap engine: same payload in 8 nonblocking buckets per rank ==");
    let buckets = 8;
    for algo in AllreduceAlgo::all() {
        let a = algo.build();
        let t0 = std::time::Instant::now();
        let run = ClusterBuilder::new(ranks).run(|comm| {
            // Launch every bucket before draining any — the trainer does the
            // same as backprop hands it reverse-layer gradient segments.
            let pending: Vec<_> = (0..buckets)
                .map(|_| {
                    let chunk = vec![(comm.rank() + 1) as f32; elems / buckets];
                    comm.launch(CollectiveOp::allreduce(a.clone()), chunk)
                })
                .collect();
            pending.into_iter().map(|p| p.wait()[0]).sum::<f32>()
        });
        let dt = t0.elapsed().as_secs_f64();
        let expect: f32 = (1..=ranks).map(|r| r as f32).sum::<f32>() * buckets as f32;
        assert!(
            run.results.iter().all(|&v| (v - expect).abs() < 1e-3),
            "{} wrong bucketed sum",
            algo.name()
        );
        let hwm = run.stats.iter().map(|s| s.async_inflight_hwm).max().unwrap_or(0);
        let max_wait = run.stats.iter().map(CommStats::bucket_wait_secs).fold(0.0, f64::max);
        println!(
            "  {:<20} {:>8.2} ms   (sum ok; inflight hwm {}, max bucket wait {:>6.2} ms)",
            algo.name(),
            dt * 1e3,
            hwm,
            max_wait * 1e3,
        );
    }

    println!();
    println!("== virtual time: 16 Minsky nodes, 2×100 Gbit/s fat-tree, 93 MB payload ==");
    let topo = FatTree::minsky(16);
    let cost = CostModel::default();
    for algo in AllreduceAlgo::all() {
        let s = algo.build().schedule(16, 93e6, &cost);
        let rep = s.simulate(&topo, &SimOptions::default());
        println!(
            "  {:<20} {:>8.2} ms   ({:.1} Gbit/s algorithm bandwidth, {} ops, {:.0}% peak link)",
            algo.name(),
            rep.makespan * 1e3,
            dist_cnn::simnet::throughput_gbps(93e6, rep.makespan),
            s.len(),
            rep.max_link_utilization(&topo) * 100.0,
        );
    }
    println!();
    println!("paper §5.1: the multi-color algorithm takes 50–60% less time than default OpenMPI.");
}
