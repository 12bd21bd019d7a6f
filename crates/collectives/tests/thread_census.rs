//! A launched collective runs on no thread of its own: while a 2-rank TCP
//! cluster holds launched buckets in flight, the process runs no
//! `dcnn-comm-*` thread, and exactly one socket reader per ordered pair of
//! ranks. Its own test binary, so no other test's threads are counted.
#![cfg(target_os = "linux")]

use std::sync::{Arc, Barrier};

use dcnn_collectives::{ClusterBuilder, CollectiveOp, RingReduceScatter, TransportKind};

/// The names of this process's threads, as the kernel reports them
/// (truncated to 15 bytes).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

#[test]
fn launched_buckets_run_on_no_thread_of_their_own() {
    let n = 2;
    let launched = Barrier::new(n);
    let counted = Barrier::new(n);
    let run = ClusterBuilder::new(n).transport(TransportKind::Tcp).run(|c| {
        // A reader names itself once it first runs; a barrier's messages
        // have passed through every one of them.
        c.barrier();
        let pending: Vec<_> = (0..3)
            .map(|b| {
                let op = CollectiveOp::allreduce(Arc::new(RingReduceScatter));
                c.launch(op, vec![(c.rank() + b) as f32; 4096])
            })
            .collect();
        // Both ranks have launched and neither calls into the runtime until
        // the census is taken, so their cursors sit parked.
        launched.wait();
        let names = if c.rank() == 0 { thread_names() } else { Vec::new() };
        counted.wait();
        let reduced: Vec<Vec<f32>> =
            pending.into_iter().map(|p| p.wait().expect("no peer dies")).collect();
        (names, reduced)
    });
    let names = &run.results[0].0;
    let comm: Vec<_> = names.iter().filter(|t| t.starts_with("dcnn-comm-")).collect();
    assert!(comm.is_empty(), "comm-worker threads exist: {comm:?} (all: {names:?})");
    let readers = names.iter().filter(|t| t.starts_with("dcnn-tcp-read-")).count();
    assert_eq!(readers, n * (n - 1), "socket readers among {names:?}");
    for (_, reduced) in &run.results {
        for (b, buf) in reduced.iter().enumerate() {
            assert!(buf.iter().all(|&x| x == (1 + 2 * b) as f32), "bucket {b}: {:?}", &buf[..4]);
        }
    }
}
