//! `dcnn-launch` — run a registered workload as N separate OS processes
//! talking TCP, the repo's stand-in for `mpirun` on one box.
//!
//! ```text
//! dcnn-launch --ranks 4 --workload allreduce [--rendezvous 127.0.0.1:7077]
//! ```
//!
//! The parent picks a rendezvous address (an ephemeral localhost port
//! unless `--rendezvous` or `DCNN_RENDEZVOUS` says otherwise), then
//! re-executes itself N times with `DCNN_RANK`/`DCNN_WORLD`/
//! `DCNN_RENDEZVOUS` set. Each child joins the TCP fabric through
//! `try_run_tcp_rank_with`, runs the workload against its world `Comm`, and
//! rank 0 prints the report lines. A communication failure (for example a
//! peer dying mid-run) comes back from the workload as a `CommError`, which
//! the child reports on stderr as one `aborted:` line and a non-zero exit. The parent
//! exits non-zero if any rank fails, so the whole thing works as a CI smoke
//! test and as the harness for fault-injection runs (`DCNN_FAULT`).

use std::process::{Command, ExitCode};

use dist_cnn::launch::{workload, workload_names};

const CHILD_ENV: &str = "DCNN_LAUNCH_CHILD";
const WORKLOAD_ENV: &str = "DCNN_LAUNCH_WORKLOAD";

fn usage() -> ! {
    eprintln!(
        "usage: dcnn-launch --ranks N --workload NAME [--rendezvous HOST:PORT]\n\
         workloads: {}",
        workload_names().join(", ")
    );
    std::process::exit(2);
}

fn child_main() -> ExitCode {
    let name = std::env::var(WORKLOAD_ENV).unwrap_or_else(|_| usage());
    let work = workload(&name).unwrap_or_else(|| {
        eprintln!("dcnn-launch: unknown workload {name:?}");
        std::process::exit(2);
    });
    let cfg = dcnn_collectives::RuntimeConfig::from_env().unwrap_or_else(|e| {
        eprintln!("dcnn-launch: {e}");
        std::process::exit(2);
    });
    let run = dcnn_collectives::try_run_tcp_rank_with(&cfg, |comm| {
        let lines = work(comm)?;
        if comm.rank() == 0 {
            for line in &lines {
                println!("{line}");
            }
        }
        Ok(())
    });
    match run {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            // The error is the structured report; this line ties it to
            // the launcher's rank.
            let rank = cfg.rank.map_or_else(|| "?".to_string(), |r| r.to_string());
            eprintln!("dcnn-launch: rank {rank}: aborted: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if std::env::var(CHILD_ENV).is_ok() {
        return child_main();
    }

    let mut ranks: Option<usize> = None;
    let mut name: Option<String> = None;
    let mut rendezvous = std::env::var("DCNN_RENDEZVOUS").ok();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ranks" | "-n" => {
                ranks = args.next().and_then(|v| v.parse().ok());
            }
            "--workload" | "-w" => name = args.next(),
            "--rendezvous" => rendezvous = args.next(),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("dcnn-launch: unexpected argument {other:?}");
                usage();
            }
        }
    }
    let (Some(n), Some(name)) = (ranks, name) else { usage() };
    if n == 0 || workload(&name).is_none() {
        usage();
    }

    // Pick the rendezvous address up front so every child agrees on it. An
    // ephemeral bind finds a free port; the listener is dropped and rank 0
    // rebinds it moments later (localhost, so the tiny race is acceptable
    // for a launcher).
    let rendezvous = rendezvous.unwrap_or_else(|| {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("probe free port");
        l.local_addr().expect("probe addr").to_string()
    });

    let exe = std::env::current_exe().expect("own executable path");
    let mut children = Vec::with_capacity(n);
    for rank in 0..n {
        let child = Command::new(&exe)
            .env(CHILD_ENV, "1")
            .env(WORKLOAD_ENV, &name)
            .env("DCNN_RANK", rank.to_string())
            .env("DCNN_WORLD", n.to_string())
            .env("DCNN_RENDEZVOUS", &rendezvous)
            .spawn();
        match child {
            Ok(c) => children.push((rank, c)),
            Err(e) => {
                eprintln!("dcnn-launch: spawn rank {rank}: {e}");
                for (_, mut c) in children {
                    let _ = c.kill();
                }
                return ExitCode::FAILURE;
            }
        }
    }

    let mut ok = true;
    for (rank, mut c) in children {
        match c.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("dcnn-launch: rank {rank} exited with {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("dcnn-launch: wait rank {rank}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
