//! The progress rule: a launched collective has no thread of its own, so a
//! rank that blocks in an unrelated receive must still carry its parked
//! cursors forward, or a peer waiting on them never finishes.

use std::sync::Arc;
use std::time::Duration;

use dcnn_collectives::{ClusterBuilder, CollectiveOp, RingReduceScatter, TransportKind};

#[test]
fn a_blocking_receive_advances_parked_cursors() {
    // Rank 1 launches first and says so; only then does rank 0 launch and
    // wait. Rank 0's wait needs rank 1's allgather send, which rank 1's
    // cursor can only make after rank 0's reduce-scatter message arrives —
    // while rank 1 sits in a plain receive for a message rank 0 sends only
    // once its wait has returned. Without progress inside that receive the
    // two ranks wait on each other until the watchdog fires.
    for kind in [TransportKind::Threads, TransportKind::Tcp] {
        let run = ClusterBuilder::new(2)
            .transport(kind)
            .recv_timeout(Duration::from_secs(10))
            .run(|c| {
                let op = CollectiveOp::allreduce(Arc::new(RingReduceScatter));
                let bucket = vec![c.rank() as f32 + 1.0; 1000];
                if c.rank() == 0 {
                    c.recv(1, 76).expect("rank 1 launched");
                    let reduced = c.launch(op, bucket).wait().expect("no peer dies");
                    c.send_bytes(1, 77, vec![1]);
                    reduced
                } else {
                    let pending = c.launch(op, bucket);
                    c.send_bytes(0, 76, Vec::new());
                    c.recv(0, 77).expect("rank 0's wait returned");
                    pending.wait().expect("no peer dies")
                }
            });
        for (rank, reduced) in run.results.iter().enumerate() {
            assert!(reduced.iter().all(|&x| x == 3.0), "{kind:?} rank {rank}: {:?}", &reduced[..4]);
        }
    }
}
