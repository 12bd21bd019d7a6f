//! `dcnn-data-server` — a rank-resident DIMD blob server (the data-plane
//! half of the paper's §4.1 deployment, run as its own OS process).
//!
//! ```text
//! dcnn-data-server --workload data-epoch --world 2 \
//!     --rank 0 --servers 1 [--listen 127.0.0.1:0] [--addr-file PATH] \
//!     [--rendezvous HOST:PORT]
//! ```
//!
//! The server owns the [`Dimd`] partitions of every *virtual* trainer rank
//! `v < world` with `v % servers == rank`, serves their mini-batch requests
//! over DCTP data frames, and runs Algorithm 2's segmented alltoallv
//! between servers at the epoch boundaries the clients' handshakes request.
//! The dataset, partition seeds and shuffle parameters come from the named
//! workload's [`data_plane_spec`], so a service-backed run reproduces the
//! in-process run bit for bit.
//!
//! With one server the inter-server fabric is a single-rank thread cluster;
//! with more, the servers join their own TCP fabric through `--rendezvous`
//! (the same rendezvous protocol `dcnn-launch` uses, but a *separate*
//! fabric from the trainers'). `--addr-file` publishes the bound listen
//! address (ephemeral ports included) for launchers to collect into
//! `DCNN_DATA_SERVICE`.
//!
//! `DCNN_FAULT=kill-after-step=N@R` is reinterpreted on the data plane:
//! server `R` aborts the store loop after serving its `N`th batch, dropping
//! every client socket — the fault-injection tests assert the trainers die
//! fast with a structured `PeerDead` naming the server, not a hang.

use std::process::ExitCode;
use std::sync::Mutex;

use dcnn_collectives::{run_cluster, FaultSpec, RuntimeConfig};
use dcnn_dimd::{try_serve_blocking, Dimd, SynthImageNet};
use dist_cnn::launch::{data_plane_partition, data_plane_spec};

fn usage() -> ! {
    eprintln!(
        "usage: dcnn-data-server --workload NAME --world N \
         [--rank R] [--servers S] [--listen HOST:PORT] \
         [--addr-file PATH] [--rendezvous HOST:PORT]\n\
         workloads: data-epoch, data-storm"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut workload: Option<String> = None;
    let mut world: Option<usize> = None;
    let mut rank = 0usize;
    let mut servers = 1usize;
    let mut listen = "127.0.0.1:0".to_string();
    let mut addr_file: Option<String> = None;
    let mut rendezvous: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |what: &str| args.next().unwrap_or_else(|| {
            eprintln!("dcnn-data-server: {what} needs a value");
            usage()
        });
        match a.as_str() {
            "--workload" | "-w" => workload = Some(take("--workload")),
            "--world" => world = take("--world").parse().ok(),
            "--rank" => rank = take("--rank").parse().unwrap_or_else(|_| usage()),
            "--servers" => servers = take("--servers").parse().unwrap_or_else(|_| usage()),
            "--listen" => listen = take("--listen"),
            "--addr-file" => addr_file = Some(take("--addr-file")),
            "--rendezvous" => rendezvous = Some(take("--rendezvous")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("dcnn-data-server: unexpected argument {other:?}");
                usage();
            }
        }
    }
    let (Some(workload), Some(world)) = (workload, world) else { usage() };
    // Both data-plane workloads share one spec; the flag exists so future
    // workloads with different datasets stay addressable.
    let spec = match workload.as_str() {
        "data-epoch" | "data-storm" => data_plane_spec(),
        other => {
            eprintln!("dcnn-data-server: unknown data workload {other:?}");
            usage();
        }
    };
    if servers == 0 || rank >= servers {
        eprintln!("dcnn-data-server: rank {rank} out of range for {servers} server(s)");
        usage();
    }
    if servers > 1 && rendezvous.is_none() {
        eprintln!("dcnn-data-server: {servers} servers need --rendezvous for the shuffle fabric");
        usage();
    }

    // Load this server's share of the virtual trainer ranks' partitions —
    // the same (seed, quality) derivation the trainers use in-process.
    let ds = SynthImageNet::new(spec.synth.clone());
    let partitions: Vec<(usize, Dimd)> = (0..world)
        .filter(|v| v % servers == rank)
        .map(|v| (v, data_plane_partition(&spec, &ds, v, world)))
        .collect();

    let listener = match std::net::TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("dcnn-data-server: bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = listener.local_addr().expect("bound address").to_string();
    if let Some(path) = &addr_file {
        // Write to a temp name then rename: collectors polling the path
        // never observe a half-written address.
        let tmp = format!("{path}.tmp");
        if let Err(e) = std::fs::write(&tmp, &addr).and_then(|()| std::fs::rename(&tmp, path)) {
            eprintln!("dcnn-data-server: write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("dcnn-data-server: rank {rank}/{servers}: listening on {addr}");

    let rt = RuntimeConfig::from_env().unwrap_or_else(|e| {
        eprintln!("dcnn-data-server: {e}");
        std::process::exit(2);
    });
    // `kill-after-step=N@R` on the data plane: server R kills itself after
    // serving N batches.
    let fault_after = match rt.fault {
        Some(FaultSpec::KillAfterStep { step, rank: r }) if r == rank => Some(step),
        _ => None,
    };

    let trainer_world = world;
    let served = if servers == 1 {
        // Single server: the shuffle fabric is a 1-rank thread cluster (the
        // segmented alltoallv still runs — every exchange is a self-send).
        let cell = Mutex::new(Some((listener, partitions)));
        let mut out = run_cluster(1, |comm| {
            let (listener, partitions) = cell.lock().expect("state").take().expect("one rank");
            try_serve_blocking(listener, comm, partitions, trainer_world, fault_after)
        });
        out.swap_remove(0)
    } else {
        let cfg = rt
            .clone()
            .with_rank_world(rank, servers)
            .with_rendezvous(rendezvous.expect("checked above"));
        dcnn_collectives::try_run_tcp_rank_with(&cfg, move |comm| {
            try_serve_blocking(listener, comm, partitions, trainer_world, fault_after)
        })
        .map(|run| run.result)
    };
    let report = match served {
        Ok(report) => report,
        Err(e) => {
            eprintln!("dcnn-data-server: rank {rank}: shuffle fabric failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    match report {
        Ok(r) => {
            println!(
                "data-server rank={rank} served={} shuffles={} rounds={:?}",
                r.batches_served,
                r.shuffle_rounds.len(),
                r.shuffle_rounds
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dcnn-data-server: rank {rank}: {e}");
            ExitCode::FAILURE
        }
    }
}
