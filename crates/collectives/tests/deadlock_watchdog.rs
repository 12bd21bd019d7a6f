//! Provoked-deadlock tests: the watchdog must turn a hung receive into a
//! readable cross-rank report instead of a bare timeout panic.
//!
//! Each test drives a short [`ClusterBuilder::recv_timeout`] so a genuine
//! deadlock resolves in milliseconds, catches the propagated panic, and
//! asserts on the report text.

use dcnn_collectives::runtime::ClusterBuilder;
use std::time::Duration;

/// Run `f` on `n` ranks with a test-short watchdog timeout and return the
/// deadlock report it panicked with.
fn provoke(n: usize, f: impl Fn(&dcnn_collectives::Comm) + Sync) -> String {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ClusterBuilder::new(n)
            .recv_timeout(Duration::from_millis(250))
            .run(|c| f(c));
    }));
    let payload = result.expect_err("cluster should deadlock");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload should be the report string")
}

#[test]
fn crossed_tags_report_names_both_ranks_and_their_waits() {
    // Classic mis-ordered collective: both ranks send tag A / recv tag B in
    // opposite orders, so each blocks on a message the other never sends.
    let report = provoke(2, |c| {
        if c.rank() == 0 {
            let _ = c.recv(1, 7); // waits for tag 7; rank 1 only sends tag 8
            c.send_bytes(1, 8, vec![0]);
        } else {
            let _ = c.recv(0, 8); // waits for tag 8; rank 0 only sends tag 7
            c.send_bytes(0, 7, vec![1]);
        }
    });
    assert!(report.contains("deadlock suspected"), "{report}");
    // Both blocked ranks appear with exactly what they wait on.
    assert!(report.contains("rank 0: waiting on src 1"), "{report}");
    assert!(report.contains("tag 7"), "{report}");
    assert!(report.contains("rank 1: waiting on src 0"), "{report}");
    assert!(report.contains("tag 8"), "{report}");
    // And the wait-for cycle is called out.
    assert!(report.contains("wait-for cycle"), "{report}");
    assert!(report.contains("rank 0 ->"), "{report}");
    assert!(report.contains("rank 1 ->"), "{report}");
}

#[test]
fn report_shows_stashed_messages() {
    // Rank 1 sends tag 9 but rank 0 waits on tag 7: the arrival parks in
    // the stash and the report must surface it (the classic wrong-tag bug).
    let report = provoke(2, |c| {
        if c.rank() == 0 {
            let _ = c.recv(1, 7);
        } else {
            c.send_bytes(0, 9, vec![1, 2, 3]);
            let _ = c.recv(0, 7); // keep rank 1 alive and blocked too
        }
    });
    assert!(report.contains("rank 0: waiting on src 1"), "{report}");
    assert!(report.contains("tag 9"), "{report}"); // the stashed key
    assert!(report.contains("x1"), "{report}"); // one queued message
}

#[test]
fn recv_any_timeout_notes_unblocked_peers() {
    // The parameter-server shape: rank 0 serves recv_any but every worker
    // already exited. No cycle exists — the report must say the waited-on
    // ranks are not blocked (they finished).
    let report = provoke(2, |c| {
        if c.rank() == 0 {
            let _ = c.recv_any(3);
        }
        // rank 1 returns immediately without sending
    });
    assert!(report.contains("rank 0: waiting on any of"), "{report}");
    assert!(report.contains("rank 1: not blocked"), "{report}");
    assert!(report.contains("no wait-for cycle"), "{report}");
}

#[test]
fn subcommunicator_deadlock_reports_nonzero_comm_id() {
    // Deadlock inside a split: the report's comm ids distinguish the
    // subcommunicator (non-zero hash) from the world (0x0).
    let report = provoke(4, |c| {
        let sub = c.split((c.rank() % 2) as u64, c.rank() as i64);
        if c.rank() % 2 == 0 {
            // Even group deadlocks on crossed tags within the split.
            if sub.rank() == 0 {
                let _ = sub.recv(1, 5);
            } else {
                let _ = sub.recv(0, 6);
            }
        } else {
            // Odd group deadlocks too (keeps the run from finishing early).
            let _ = sub.recv((sub.rank() + 1) % 2, 40);
        }
    });
    assert!(report.contains("deadlock suspected"), "{report}");
    // All four ranks blocked, none on the world communicator.
    for r in 0..4 {
        assert!(report.contains(&format!("rank {r}: waiting on")), "{report}");
    }
    assert!(!report.contains("comm 0x0,"), "{report}");
    assert!(report.contains("wait-for cycle"), "{report}");
}

#[test]
fn async_bucket_deadlock_names_the_owning_bucket() {
    // Rank 0 launches a nonblocking bucket reduce that rank 1 never joins:
    // the blocked receive lives on rank 0's comm worker, and the report
    // must attribute it to the bucket (its launch sequence number) rather
    // than printing an anonymous rank-0 wait.
    use dcnn_collectives::{AllreduceAlgo, CollectiveOp};
    let report = provoke(2, |c| {
        if c.rank() == 0 {
            let op = CollectiveOp::allreduce(AllreduceAlgo::RecursiveDoubling.build());
            let p = c.launch(op, vec![1.0f32; 64]);
            let _ = p.wait(); // never resolves: the peer never launches
        } else {
            let _ = c.recv(0, 33); // keep rank 1 alive and blocked too
        }
    });
    assert!(report.contains("deadlock suspected"), "{report}");
    assert!(report.contains("rank 0 [bucket 0]: waiting on src 1"), "{report}");
    assert!(report.contains("rank 1: waiting on src 0"), "{report}");
    assert!(report.contains("tag 33"), "{report}");
}

#[test]
fn labeled_bucket_deadlock_names_the_sealing_segment() {
    // The hooked overlap engine labels each bucket launch with the name of
    // the parameter segment that sealed it; a hung bucket reduce must
    // surface that label so the report points at a layer, not just a
    // sequence number.
    use dcnn_collectives::{AllreduceAlgo, CollectiveOp};
    use std::sync::Arc;
    let report = provoke(2, |c| {
        if c.rank() == 0 {
            let op = CollectiveOp::allreduce(AllreduceAlgo::RecursiveDoubling.build())
                .labeled(Arc::from("blocks.0.main.2.weight"));
            let p = c.launch(op, vec![1.0f32; 64]);
            let _ = p.wait(); // never resolves: the peer never launches
        } else {
            let _ = c.recv(0, 33); // keep rank 1 alive and blocked too
        }
    });
    assert!(report.contains("deadlock suspected"), "{report}");
    assert!(
        report.contains("rank 0 [bucket 0, sealed by blocks.0.main.2.weight]: waiting on src 1"),
        "{report}"
    );
}

#[test]
fn healthy_cluster_with_short_timeout_does_not_fire() {
    // The watchdog must not false-positive on a run that simply takes a few
    // poll intervals: rank 1 sleeps well past the poll slice, then sends.
    let out = ClusterBuilder::new(2)
        .recv_timeout(Duration::from_millis(400))
        .run(|c| {
            if c.rank() == 0 {
                c.recv_bytes(1, 1)[0]
            } else {
                std::thread::sleep(Duration::from_millis(200));
                c.send_bytes(0, 1, vec![42]);
                0
            }
        });
    assert_eq!(out.results[0], 42);
    // The slow receive was counted as a blocked receive.
    assert_eq!(out.stats[0].recv_blocks, 1);
    assert!(out.stats[0].recv_wait_ns >= 150_000_000);
}
