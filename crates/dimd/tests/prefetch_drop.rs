//! A `Prefetcher` dropped with batches still pending frees its threads: the
//! picker and the decode lanes end within seconds instead of blocking for
//! the rest of the process. Its own test binary, so no other test's threads
//! are counted.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use dcnn_dimd::{Dimd, Prefetcher, SynthConfig, SynthImageNet};

/// The names of this process's threads, as the kernel reports them
/// (truncated to 15 bytes).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

fn pipeline_threads() -> Vec<String> {
    let ours = |t: &String| t == "dcnn-prefetch" || t.starts_with("dcnn-decode-");
    thread_names().into_iter().filter(ours).collect()
}

#[test]
fn a_dropped_prefetcher_ends_its_picker_and_lanes() {
    let mut cfg = SynthConfig::tiny(3);
    cfg.train_per_class = 12;
    cfg.base_hw = 16;
    let ds = SynthImageNet::new(cfg);
    let before = thread_names().len();
    let (dimd, workers) = (Dimd::load_partition(&ds, 0, 1, 70, 9), 2);
    let p = Prefetcher::run_epoch_with(dimd, 100, 4, 16, 2, workers);
    let _ = p.next_batch();
    let running = pipeline_threads();
    assert_eq!(running.len(), 1 + workers, "picker and lanes while running: {running:?}");

    // 99 batches still pending, and no `finish`.
    drop(p);
    let deadline = Instant::now() + Duration::from_secs(5);
    while (!pipeline_threads().is_empty() || thread_names().len() > before)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    let left = pipeline_threads();
    assert!(left.is_empty(), "pipeline threads outlived the drop: {left:?}");
    let all = thread_names();
    assert!(all.len() <= before, "{} threads before, {} after: {all:?}", before, all.len());
}
