//! End-to-end multi-process coverage: spawn the real `dcnn-launch` binary
//! (4 OS processes over TCP) and check its report against the same
//! workload run on the threaded backend inside this test process. Every
//! line is deterministic — allreduce crcs fingerprint the exact result
//! bits, and the stats lines carry per-rank send counters — so the two
//! reports must match byte for byte.

use std::process::Command;

use dist_cnn::launch::{allreduce_workload, workload};

fn launch_with(ranks: usize, workload: &str, envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dcnn-launch"));
    cmd.args(["--ranks", &ranks.to_string(), "--workload", workload]);
    // Isolate from any ambient transport/trace/overlap settings.
    for var in dcnn_collectives::RuntimeConfig::ENV_VARS {
        cmd.env_remove(var);
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn dcnn-launch")
}

fn launch(ranks: usize, workload: &str) -> std::process::Output {
    launch_with(ranks, workload, &[])
}

#[test]
fn four_process_allreduce_matches_threaded_run() {
    let out = launch(4, "allreduce");
    assert!(
        out.status.success(),
        "dcnn-launch failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let tcp_lines: Vec<String> = String::from_utf8(out.stdout)
        .expect("utf8 report")
        .lines()
        .map(str::to_string)
        .collect();

    let threaded = dcnn_collectives::run_cluster(4, |c| allreduce_workload(c).expect("no peer dies"));
    assert_eq!(
        tcp_lines, threaded[0],
        "spawned-process TCP report diverged from the threaded backend"
    );
    // The report covered every algorithm and every rank's counters.
    assert!(tcp_lines.iter().any(|l| l.starts_with("allreduce multicolor ")));
    assert_eq!(tcp_lines.iter().filter(|l| l.starts_with("stats rank=")).count(), 4);
}

#[test]
fn two_process_quickstart_epoch_matches_threaded_run() {
    let out = launch(2, "quickstart-epoch");
    assert!(
        out.status.success(),
        "dcnn-launch failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let tcp_report = String::from_utf8(out.stdout).expect("utf8 report");

    let work = workload("quickstart-epoch").expect("registered");
    let threaded = dcnn_collectives::run_cluster(2, |c| work(c).expect("no peer dies"));
    let threaded_report: String =
        threaded[0].iter().map(|l| format!("{l}\n")).collect();
    assert_eq!(
        tcp_report, threaded_report,
        "training over sockets must reproduce the threaded trajectory bit-for-bit"
    );
}

#[test]
fn two_process_overlap_epoch_matches_threaded_run() {
    // The epoch lines are bitwise-deterministic; overlap_frac/inflight_hwm
    // are measured timings and may differ between runs, so compare only the
    // training trajectory and sanity-check the measurements separately.
    fn epoch_lines(report: &str) -> Vec<String> {
        report.lines().filter(|l| l.starts_with("epoch ")).map(str::to_string).collect()
    }
    fn overlap_frac(report: &str) -> f64 {
        report
            .lines()
            .find_map(|l| l.strip_prefix("overlap_frac="))
            .expect("report carries overlap_frac")
            .parse()
            .expect("overlap_frac parses")
    }

    let work = workload("overlap-epoch").expect("registered");
    let threaded = dcnn_collectives::run_cluster(2, |c| work(c).expect("no peer dies"));
    let threaded_epochs: Vec<String> = threaded[0]
        .iter()
        .filter(|l| l.starts_with("epoch "))
        .cloned()
        .collect();
    assert!(!threaded_epochs.is_empty());

    // Blocking (no buckets) over real sockets reproduces the trajectory.
    let blocking = launch_with(2, "overlap-epoch", &[]);
    assert!(blocking.status.success(), "{}", String::from_utf8_lossy(&blocking.stderr));
    let blocking_report = String::from_utf8(blocking.stdout).expect("utf8");
    assert_eq!(epoch_lines(&blocking_report), threaded_epochs);

    // Hooked overlap (buckets launched mid-backprop) over real sockets is
    // bitwise identical to both, and reports a finite overlap fraction.
    let hooked = launch_with(
        2,
        "overlap-epoch",
        &[("DCNN_BUCKET_BYTES", "16384"), ("DCNN_OVERLAP_MODE", "hooked")],
    );
    assert!(hooked.status.success(), "{}", String::from_utf8_lossy(&hooked.stderr));
    let hooked_report = String::from_utf8(hooked.stdout).expect("utf8");
    assert_eq!(
        epoch_lines(&hooked_report),
        threaded_epochs,
        "hooked overlap over sockets must not change a single loss bit"
    );
    let frac = overlap_frac(&hooked_report);
    assert!((0.0..=1.0).contains(&frac), "overlap_frac={frac}");
}

#[test]
fn four_process_sharded_epoch_matches_replicated_bitwise() {
    // The sharded-optimizer acceptance test: the same 4-rank TCP training
    // run with and without DCNN_SHARD_OPTIM must print identical `epoch`
    // lines (reduce-scatter → shard-local step → allgather is arithmetic-
    // identical to allreduce + replicated step on the ring schedule), while
    // the sharded run's measured per-rank optimizer residency shrinks by at
    // least the world size.
    fn epoch_lines(report: &str) -> Vec<String> {
        report.lines().filter(|l| l.starts_with("epoch ")).map(str::to_string).collect()
    }
    fn rank0_opt_bytes(report: &str) -> u64 {
        report
            .lines()
            .find_map(|l| l.strip_prefix("resident rank=0 "))
            .and_then(|l| l.split("opt_bytes=").nth(1))
            .expect("report carries rank 0 residency")
            .parse()
            .expect("opt_bytes parses")
    }

    let rep = launch_with(4, "sharded-epoch", &[]);
    assert!(rep.status.success(), "{}", String::from_utf8_lossy(&rep.stderr));
    let rep_report = String::from_utf8(rep.stdout).expect("utf8");

    let shd = launch_with(4, "sharded-epoch", &[("DCNN_SHARD_OPTIM", "1")]);
    assert!(shd.status.success(), "{}", String::from_utf8_lossy(&shd.stderr));
    let shd_report = String::from_utf8(shd.stdout).expect("utf8");

    let rep_epochs = epoch_lines(&rep_report);
    assert_eq!(rep_epochs.len(), 2, "{rep_report}");
    assert_eq!(
        epoch_lines(&shd_report),
        rep_epochs,
        "sharded optimizer must not change a single loss bit"
    );

    let (rep_opt, shd_opt) = (rank0_opt_bytes(&rep_report), rank0_opt_bytes(&shd_report));
    assert!(
        shd_opt * 4 <= rep_opt,
        "sharding should shrink optimizer bytes ~world-size x: replicated={rep_opt} sharded={shd_opt}"
    );
}

#[test]
fn sigkilled_rank_fails_survivors_fast_with_structured_report() {
    // The acceptance test for fault tolerance: start a 3-rank training run
    // over real TCP, SIGKILL rank 1 mid-epoch, and demand that every
    // survivor exits non-zero within a bounded time with a structured error
    // naming the dead peer — no DCNN_RECV_TIMEOUT_MS, no hang, no raw
    // panic backtrace.
    use std::io::BufRead;

    let world = 3usize;
    let rendezvous = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("probe free port");
        l.local_addr().expect("probe addr").to_string()
    };
    // A fault spec that never fires: arming DCNN_FAULT turns on the
    // per-step heartbeat lines, which tell us when rank 1 is mid-epoch so
    // the external SIGKILL lands deterministically inside training.
    let fault = "kill-after-step=1000000@1";

    let spawn = |rank: usize| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_dcnn-launch"));
        for var in dcnn_collectives::RuntimeConfig::ENV_VARS {
            cmd.env_remove(var);
        }
        cmd.env("DCNN_LAUNCH_CHILD", "1")
            .env("DCNN_LAUNCH_WORKLOAD", "fault-epoch")
            .env("DCNN_RANK", rank.to_string())
            .env("DCNN_WORLD", world.to_string())
            .env("DCNN_RENDEZVOUS", &rendezvous)
            .env("DCNN_FAULT", fault)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped());
        cmd.spawn().unwrap_or_else(|e| panic!("spawn rank {rank}: {e}"))
    };

    let mut victim = spawn(1);
    let mut survivors: Vec<(usize, std::process::Child)> =
        [0, 2].into_iter().map(|r| (r, spawn(r))).collect();

    // Wait for rank 1's first heartbeat, then SIGKILL it. The kernel closes
    // its sockets; peers must see the bare EOF as a LinkDown.
    let victim_stderr = victim.stderr.take().expect("piped stderr");
    let mut lines = std::io::BufReader::new(victim_stderr).lines();
    let mut saw_heartbeat = false;
    for line in &mut lines {
        let line = line.expect("read victim stderr");
        if line.starts_with("dcnn-fault: rank 1 step") {
            saw_heartbeat = true;
            break;
        }
    }
    assert!(saw_heartbeat, "rank 1 never reached a training step");
    victim.kill().expect("SIGKILL rank 1");
    let _ = victim.wait();

    // Every survivor must notice and die on its own — bounded by the test's
    // deadline, not by any receive timeout (none is set).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    for (rank, child) in &mut survivors {
        let status = loop {
            match child.try_wait().expect("try_wait") {
                Some(status) => break status,
                None if std::time::Instant::now() >= deadline => {
                    // Grab what we can about the stuck process before
                    // killing it, so a hang failure is diagnosable.
                    let stacks = std::fs::read_dir(format!("/proc/{}/task", child.id()))
                        .map(|tasks| {
                            tasks
                                .flatten()
                                .map(|t| {
                                    let dir = t.path();
                                    let read = |f: &str| {
                                        std::fs::read_to_string(dir.join(f))
                                            .unwrap_or_default()
                                    };
                                    format!("[{}]\n{}", read("comm").trim(), read("stack"))
                                })
                                .collect::<String>()
                        })
                        .unwrap_or_default();
                    let _ = child.kill();
                    let mut stderr = String::new();
                    if let Some(mut pipe) = child.stderr.take() {
                        use std::io::Read;
                        let _ = pipe.read_to_string(&mut stderr);
                    }
                    panic!(
                        "rank {rank} still running 10s after peer death: hang\n\
                         --- stderr so far ---\n{stderr}--- thread stacks ---\n{stacks}"
                    );
                }
                None => std::thread::sleep(std::time::Duration::from_millis(50)),
            }
        };
        assert!(!status.success(), "rank {rank} exited cleanly despite a dead peer");
    }
    // Each survivor names the peer whose link actually tore under it. The
    // first to fail is always reacting to rank 1 (the only dead process at
    // that instant); the other may instead report the cascade — the first
    // survivor's own abnormal exit. Both are accurate, structured reports.
    let mut named_the_victim = false;
    let outputs: Vec<(usize, std::process::Output)> = survivors
        .into_iter()
        .map(|(rank, child)| (rank, child.wait_with_output().expect("collect output")))
        .collect();
    for (rank, out) in &outputs {
        eprintln!(
            "=== rank {rank} stderr ===\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    for (rank, out) in outputs {
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("is dead"),
            "rank {rank} stderr lacks a structured peer-death report:\n{err}"
        );
        assert!(
            err.contains(&format!("dcnn-launch: rank {rank}: aborted:")),
            "rank {rank} stderr lacks the launcher abort line:\n{err}"
        );
        assert!(
            !err.contains("stack backtrace"),
            "rank {rank} died with a raw backtrace instead of a structured report:\n{err}"
        );
        named_the_victim |= err.contains("peer rank 1 is dead");
    }
    assert!(
        named_the_victim,
        "no survivor named the SIGKILLed rank 1 as the dead peer"
    );
}

#[test]
fn launcher_rejects_unknown_workload() {
    let out = launch(2, "no-such-workload");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn four_process_autotune_epoch_agrees_and_matches_fixed_bitwise() {
    // A tuned run whose candidate set is {ring} must converge to ring and
    // train bit-for-bit like a fixed-ring run — over real TCP, where the
    // probe timings every rank measures genuinely differ. The decisions
    // lines prove the allgather+max merge left all four ranks with the
    // same frozen table.
    fn epoch_lines(report: &str) -> Vec<String> {
        report.lines().filter(|l| l.starts_with("epoch ")).map(str::to_string).collect()
    }
    fn decision_tables(report: &str) -> Vec<String> {
        report
            .lines()
            .filter(|l| l.starts_with("decisions rank="))
            .map(|l| l.splitn(3, ' ').nth(2).expect("table").to_string())
            .collect()
    }

    let tuned = launch_with(4, "autotune-epoch", &[("DCNN_ALGO", "auto:ring")]);
    assert!(tuned.status.success(), "{}", String::from_utf8_lossy(&tuned.stderr));
    let fixed = launch_with(4, "autotune-epoch", &[("DCNN_ALGO", "ring")]);
    assert!(fixed.status.success(), "{}", String::from_utf8_lossy(&fixed.stderr));

    let tuned_out = String::from_utf8(tuned.stdout).expect("utf8 report");
    let fixed_out = String::from_utf8(fixed.stdout).expect("utf8 report");
    assert_eq!(epoch_lines(&tuned_out).len(), 3, "{tuned_out}");
    assert_eq!(
        epoch_lines(&tuned_out),
        epoch_lines(&fixed_out),
        "tuned run diverged from fixed ring"
    );

    let tables = decision_tables(&tuned_out);
    assert_eq!(tables.len(), 4, "{tuned_out}");
    assert!(tables[0].contains("<="), "table never froze: {tables:?}");
    assert!(tables.iter().all(|t| t == &tables[0]), "ranks disagree: {tables:?}");
    assert!(
        decision_tables(&fixed_out).iter().all(|t| t == "ring"),
        "{fixed_out}"
    );
}
