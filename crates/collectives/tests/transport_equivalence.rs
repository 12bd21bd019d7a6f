//! Backend equivalence: the same collective math must come out of the
//! threaded mpsc fabric and the TCP socket fabric — bit for bit, and with
//! the same `CommStats` byte/message counts (counters live in the `Comm`
//! layer, above the transport, so a backend that secretly resent or
//! re-framed messages would show up here).
//!
//! TCP runs here keep ranks as threads of this process (the sockets are
//! real; only the process boundary is absent). Spawned-process coverage
//! lives in the facade crate's `transport_process` test, which drives the
//! `dcnn-launch` binary.

use std::sync::Arc;
use std::time::Duration;

use dcnn_collectives::runtime::ClusterRun;
use dcnn_collectives::{AllreduceAlgo, ClusterBuilder, Comm, TransportKind};

fn contribution(rank: usize, i: usize, seed: u64) -> f32 {
    let x = (rank as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(i as u64)
        .wrapping_add(seed);
    ((x % 1000) as f32 - 500.0) / 250.0
}

fn run_algo(kind: TransportKind, algo: &AllreduceAlgo, n: usize, len: usize) -> ClusterRun<Vec<f32>> {
    let a = algo.build();
    ClusterBuilder::new(n).transport(kind).run(move |c| {
        let mut buf: Vec<f32> = (0..len).map(|i| contribution(c.rank(), i, 7)).collect();
        a.run(c, &mut buf);
        buf
    })
}

/// Every algorithm, several world sizes: TCP and threads produce bitwise
/// identical buffers on every rank, and identical send/recv counters.
#[test]
fn all_algorithms_bitwise_identical_across_backends() {
    for n in [2, 4] {
        for algo in AllreduceAlgo::all() {
            let th = run_algo(TransportKind::Threads, &algo, n, 260);
            let tcp = run_algo(TransportKind::Tcp, &algo, n, 260);
            for rank in 0..n {
                let a: &[f32] = &th.results[rank];
                let b: &[f32] = &tcp.results[rank];
                assert_eq!(a.len(), b.len());
                for i in 0..a.len() {
                    assert_eq!(
                        a[i].to_bits(),
                        b[i].to_bits(),
                        "{} n={n} rank={rank} i={i}: {} (threads) vs {} (tcp)",
                        algo.name(),
                        a[i],
                        b[i]
                    );
                }
                let (sa, sb) = (&th.stats[rank], &tcp.stats[rank]);
                assert_eq!(sa.bytes_sent, sb.bytes_sent, "{} rank {rank}", algo.name());
                assert_eq!(sa.msgs_sent, sb.msgs_sent, "{} rank {rank}", algo.name());
                assert_eq!(sa.bytes_recvd, sb.bytes_recvd, "{} rank {rank}", algo.name());
                assert_eq!(sa.msgs_recvd, sb.msgs_recvd, "{} rank {rank}", algo.name());
            }
        }
    }
}

/// Communicator split and barrier survive the socket fabric: the 4-rank
/// split into even/odd sub-communicators computes the same sub-sums.
#[test]
fn split_and_barrier_work_over_tcp() {
    let work = |c: &Comm| {
        let sub = c.split((c.rank() % 2) as u64, c.rank() as i64);
        let mut buf = vec![c.rank() as f32 + 1.0; 8];
        AllreduceAlgo::RecursiveDoubling.build().run(&sub, &mut buf);
        c.barrier();
        buf[0]
    };
    let th = ClusterBuilder::new(4).transport(TransportKind::Threads).run(work);
    let tcp = ClusterBuilder::new(4).transport(TransportKind::Tcp).run(work);
    // Evens: 1 + 3 = 4; odds: 2 + 4 = 6.
    assert_eq!(th.results, vec![4.0, 6.0, 4.0, 6.0]);
    assert_eq!(th.results, tcp.results);
}

/// A payload big enough for the TCP bulk little-endian copy: threads
/// (zero-copy buffers) and TCP (reinterpret-cast frame encode, direct decode
/// into the final allocation) must agree bit for bit.
#[test]
fn large_payload_allreduce_bitwise_through_bulk_copy() {
    let len = 70_003; // odd on purpose: exercises every tail path at once
    let run = |kind: TransportKind| {
        let a = AllreduceAlgo::HalvingDoubling.build();
        ClusterBuilder::new(2).transport(kind).run(move |c| {
            let mut buf: Vec<f32> = (0..len).map(|i| contribution(c.rank(), i, 42)).collect();
            a.run(c, &mut buf);
            buf
        })
    };
    let th = run(TransportKind::Threads);
    let tcp = run(TransportKind::Tcp);
    for rank in 0..2 {
        let (a, b) = (&th.results[rank], &tcp.results[rank]);
        assert_eq!(a.len(), b.len());
        for i in 0..len {
            assert_eq!(
                a[i].to_bits(),
                b[i].to_bits(),
                "rank={rank} i={i}: {} (threads) vs {} (tcp)",
                a[i],
                b[i]
            );
        }
    }
}

/// The threaded hot path never copies an f32 payload: the receiver ends up
/// with the *same allocation* the sender handed over (`Arc` pointer
/// equality observed via the buffer's data pointer).
#[test]
fn threaded_f32_send_is_zero_copy() {
    let out = ClusterBuilder::new(2)
        .transport(TransportKind::Threads)
        .recv_timeout(Duration::from_secs(20))
        .run(|c| {
            if c.rank() == 0 {
                let data = Arc::new(vec![1.0f32, 2.0, 3.0]);
                let ptr = data.as_ptr() as usize;
                c.send_shared_f32(1, 3, data);
                ptr
            } else {
                let got = c.recv_f32(0, 3);
                assert_eq!(got, vec![1.0, 2.0, 3.0]);
                got.as_ptr() as usize
            }
        });
    assert_eq!(
        out.results[0], out.results[1],
        "receiver should own the sender's buffer, not a copy"
    );
}

/// Same property through a full allreduce: no per-send clone means the
/// bytes counter equals the sum of payload sizes exactly once per message
/// (a cloning fabric can't be caught by value equality, but the pointer
/// test above plus identical counters across backends pin the path down).
#[test]
fn tcp_backend_reports_itself() {
    let out = ClusterBuilder::new(2)
        .transport(TransportKind::Tcp)
        .run(|c| c.transport_backend().to_string());
    assert_eq!(out.results, vec!["tcp".to_string(), "tcp".to_string()]);
    let th = ClusterBuilder::new(1).run(|c| c.transport_backend().to_string());
    assert_eq!(th.results, vec!["threads".to_string()]);
}
