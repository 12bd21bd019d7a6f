//! Peer failure propagates as a structured [`CommError`] value instead of a
//! hang: sever a live TCP link via the `drop-link` fault and check that a
//! blocked collective fails fast with an error naming the dead peer — with
//! no `DCNN_RECV_TIMEOUT_MS` involved, on the real socket transport.

use std::net::TcpListener;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use dcnn_collectives::runtime::{ClusterBuilder, ClusterRun};
use dcnn_collectives::transport::tcp::TcpTransport;
use dcnn_collectives::transport::WireMsg;
use dcnn_collectives::{
    try_run_tcp_rank_with, Allreduce, CollectiveOp, Comm, CommError, FaultSpec, MultiColor,
    Payload, RuntimeConfig, Transport, TransportKind,
};

/// The first rank's error in `run`, which must have one.
fn first_error<T>(run: ClusterRun<Result<T, CommError>>, what: &str) -> CommError {
    run.results.into_iter().find_map(Result::err).unwrap_or_else(|| panic!("{what}"))
}

#[test]
fn severed_link_fails_collective_with_structured_error() {
    // Rank 0 severs its socket to rank 1 the moment the fabric is up. The
    // first allreduce then blocks on the dead link; the LinkDown event must
    // fail it immediately — well inside the (default, 60 s) watchdog window.
    let cfg = RuntimeConfig {
        fault: Some(FaultSpec::DropLink { from: 0, to: 1 }),
        ..RuntimeConfig::default()
    };
    let started = Instant::now();
    let run = ClusterBuilder::new(2).transport(TransportKind::Tcp).configure(cfg).run(|comm| {
        let mut buf = vec![comm.rank() as f32; 64];
        MultiColor::new(2).try_run(comm, &mut buf).map(|()| buf)
    });
    let elapsed = started.elapsed();

    let err = first_error(run, "collective over a severed link must fail");
    let CommError::PeerDead { rank, peer, cause, .. } = &err;
    assert!(
        (*rank == 0 && *peer == 1) || (*rank == 1 && *peer == 0),
        "wrong endpoints in {err}"
    );
    assert!(!cause.is_empty(), "cause must describe the tear: {err}");
    let msg = err.to_string();
    assert!(msg.contains("is dead"), "{msg}");
    assert!(
        elapsed < Duration::from_secs(10),
        "failure took {elapsed:?}; LinkDown should fail fast, not wait out a timeout"
    );
}

#[test]
fn messages_sent_before_the_link_died_stay_deliverable_in_order() {
    // Rank 1 is a bare TCP endpoint: it sends three tagged messages and a
    // marker, and cuts the link once rank 0 has the marker — so the three
    // sit in rank 0's receive queue, unreceived, when the link dies. Rank 0
    // first waits out the death on a tag rank 1 never sent (that receive
    // fails), then must still get all three in order; only the receive
    // after them fails, naming rank 1.
    let addr = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("addr").to_string()
    };
    let timeout = Duration::from_secs(20);
    let marked = Barrier::new(2);
    let got = Mutex::new(Vec::new());
    let recv = |comm: &Comm, tag| comm.recv(1, tag).map(Payload::into_bytes);
    let (death, fourth, elapsed) = std::thread::scope(|s| {
        s.spawn(|| {
            let t1 = TcpTransport::connect(&addr, 1, 2, timeout).expect("rank 1 joins");
            for (i, tag) in [5u32, 6, 5, 7].into_iter().enumerate() {
                t1.send(0, WireMsg { src: 1, comm_id: 0, tag, payload: Payload::bytes(vec![i as u8]) });
            }
            marked.wait();
            t1.sever_link(0);
            t1.shutdown();
        });
        let cfg = RuntimeConfig::default().with_rendezvous(addr.clone()).with_rank_world(0, 2);
        let rank0 = try_run_tcp_rank_with(&cfg, |comm| {
            let _ = comm.recv_bytes(1, 7);
            marked.wait();
            let started = Instant::now();
            let death = recv(comm, 8);
            for tag in [5, 6, 5] {
                got.lock().expect("got").push(recv(comm, tag)?[0]);
            }
            Ok((death, recv(comm, 5), started.elapsed()))
        });
        rank0.expect("rank 0 itself returns").result
    });
    assert!(death.is_err(), "a receive only the dead peer could satisfy must fail");
    assert_eq!(*got.lock().expect("got"), vec![0, 1, 2], "queued messages lost or reordered");
    let err = fourth.expect_err("a fourth receive from a dead peer must fail");
    let CommError::PeerDead { rank, peer, .. } = &err;
    assert_eq!((*rank, *peer), (0, 1), "wrong endpoints in {err}");
    assert!(elapsed < Duration::from_secs(10), "failure took {elapsed:?}");
}

#[test]
fn point_to_point_recv_from_dead_peer_fails_with_phase_context() {
    // Same fault, but a bare recv inside a labeled phase: the error must
    // carry the phase attribution so the report says *where* training was.
    let cfg = RuntimeConfig {
        fault: Some(FaultSpec::DropLink { from: 0, to: 1 }),
        ..RuntimeConfig::default()
    };
    let run = ClusterBuilder::new(2).transport(TransportKind::Tcp).configure(cfg).run(|comm| {
        let _g = comm.phase("shuffle");
        comm.recv(1 - comm.rank(), 7).map(Payload::into_f32)
    });
    let err = first_error(run, "recv from a dead peer must fail");
    let CommError::PeerDead { phase, .. } = &err;
    assert_eq!(phase.as_deref(), Some("shuffle"), "missing phase in {err}");
}

#[test]
fn launched_bucket_names_itself_and_the_next_launch_fails_as_its_own_bucket() {
    // Both ranks launch a labelled bucket reduce over the severed link. The
    // failure comes back through the bucket's handle, naming the bucket and
    // the label it was launched with. The rank's runtime goes on: the next
    // launch gets a cursor of its own (which fails the same way, as bucket
    // 1), and the cluster's teardown completes without a panic.
    let cfg = RuntimeConfig {
        fault: Some(FaultSpec::DropLink { from: 0, to: 1 }),
        ..RuntimeConfig::default()
    };
    let run = ClusterBuilder::new(2).transport(TransportKind::Tcp).configure(cfg).run(|comm| {
        let launch = |label: &str| {
            let op = CollectiveOp::allreduce(Arc::new(MultiColor::new(2))).labeled(Arc::from(label));
            comm.launch(op, vec![comm.rank() as f32; 64]).wait()
        };
        (launch("fc.weight"), launch("fc.bias"))
    });
    for (rank, (first, second)) in run.results.into_iter().enumerate() {
        for (res, seq, name) in [(first, 0, "fc.weight"), (second, 1, "fc.bias")] {
            let err = res.expect_err("a bucket over a severed link must fail");
            let CommError::PeerDead { rank: r, peer, bucket, label, .. } = &err;
            assert_eq!((*r, *peer), (rank, 1 - rank), "wrong endpoints in {err}");
            assert_eq!(*bucket, Some(seq), "wrong bucket in {err}");
            assert_eq!(label.as_deref(), Some(name), "wrong label in {err}");
        }
    }
}
