//! The whole suite: every workload untraced and traced, one child process
//! per run so that `peak_rss_mib` is per workload, with the machine and
//! build recorded beside the numbers. `--aa` runs the untraced suite twice
//! on the same build and holds the two to the benchmark's own bounds.

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use dist_cnn::collectives::RuntimeConfig;
use serde_json::Value;

use crate::workloads::{Workload, NAMES};
use crate::{Args, END_TO_END};

/// One `metric` line of a child run.
struct Row {
    name: String,
    unit: String,
    value: f64,
    samples: f64,
    q1: f64,
    q3: f64,
}

/// One child run's output: its `metric` lines and the result line's counts.
struct RunOutput {
    metrics: Vec<Row>,
    attempted: f64,
    failed: f64,
}

impl RunOutput {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

fn run_child(args: &Args, workload: &str, trace: bool) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} --trace {}: exit {}", trace as u8, out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut metrics = Vec::new();
    for line in text.lines().filter(|l| l.starts_with("metric ")) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize, key: &str| -> Result<f64, String> {
            f.get(i)
                .and_then(|s| s.strip_prefix(key))
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("malformed metric line `{line}`"))
        };
        metrics.push(Row {
            name: f[1].to_string(),
            unit: f[2].to_string(),
            value: num(3, "value=")?,
            samples: num(4, "n=")?,
            q1: num(5, "q1=")?,
            q3: num(6, "q3=")?,
        });
    }
    let last = text.lines().last().unwrap_or_default();
    let result: Value = serde_json::from_str(last).map_err(|e| format!("result line: {e:?}"))?;
    let count =
        |k: &str| result.get(k).and_then(Value::as_f64).ok_or(format!("no `{k}` in result"));
    Ok(RunOutput { metrics, attempted: count("attempted")?, failed: count("failed")? })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// What was measured on, recorded with every result file.
fn environment(args: &Args, suite_wall_s: f64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    object(vec![
        ("seed", Value::Number(args.seed as f64)),
        ("quick", Value::Bool(args.quick)),
        ("seconds_per_run", Value::Number(args.seconds)),
        ("git_commit", text(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", text(command_line("rustc", &["--version"]))),
        ("nproc", Value::Number(nproc as f64)),
        ("cpu_model", text(cpu_model())),
        ("suite_wall_s", Value::Number(suite_wall_s)),
    ])
}

fn workload_record(args: &Args, name: &str, runs: &[(bool, RunOutput)]) -> Value {
    let w = Workload::by_name(name, args.seed, args.quick).expect("known workload");
    let mut fields = vec![
        ("ranks", Value::Number(w.cfg.nodes as f64)),
        ("gpus_per_rank", Value::Number(w.cfg.gpus_per_node as f64)),
        // One compute thread per rank; the rest block on IO.
        ("rank_threads", Value::Number(w.cfg.nodes as f64)),
        (
            "comm_workers_per_rank",
            Value::Number(RuntimeConfig::default().comm_workers_or_default() as f64),
        ),
        (
            "decode_threads_per_rank",
            Value::Number(w.cfg.prefetch_depth.min(1) as f64 * w.cfg.decode_workers as f64),
        ),
        ("transport", text(format!("{:?}", w.transport))),
        ("epochs_per_repetition", Value::Number(w.cfg.epochs as f64)),
        ("steps_per_repetition", Value::Number(w.steps_per_rep() as f64)),
    ];
    for (traced, run) in runs {
        let metrics = run
            .metrics
            .iter()
            .map(|r| {
                let v = object(vec![
                    ("value", Value::Number(r.value)),
                    ("unit", text(r.unit.clone())),
                    ("samples", Value::Number(r.samples)),
                    ("q1", Value::Number(r.q1)),
                    ("q3", Value::Number(r.q3)),
                ]);
                (r.name.clone(), v)
            })
            .collect();
        let record = object(vec![
            ("attempted", Value::Number(run.attempted)),
            ("failed", Value::Number(run.failed)),
            ("failed_step_frac", Value::Number(run.failed / run.attempted)),
            ("metrics", Value::Object(metrics)),
        ]);
        fields.push((if *traced { "traced" } else { "untraced" }, record));
    }
    object(fields)
}

pub fn run(args: &Args) -> ExitCode {
    let start = Instant::now();
    let passes = if args.aa { 2 } else { 1 };
    let traces: &[bool] = if args.aa { &[false] } else { &[false, true] };
    let mut failed_runs = 0;
    // workloads x passes x (untraced, traced). The passes of one workload run
    // back to back, so that an A/A pair sees the same state of the machine.
    let mut results: Vec<Vec<Vec<(bool, RunOutput)>>> = Vec::new();
    for name in NAMES {
        let mut per_pass = Vec::new();
        for pass in 0..passes {
            let mut runs = Vec::new();
            for &traced in traces {
                eprintln!("dcnn-benchmark: pass {} {name} --trace {}", pass + 1, traced as u8);
                match run_child(args, name, traced) {
                    Ok(out) => {
                        for Row { name: metric, unit, value, samples, q1, q3 } in &out.metrics {
                            println!(
                                "{name} {metric} {unit} value={value} n={samples} q1={q1} q3={q3}"
                            );
                        }
                        println!(
                            "{name} failed_step_frac ratio failed={} attempted={} value={}",
                            out.failed,
                            out.attempted,
                            out.failed / out.attempted
                        );
                        failed_runs += (out.failed > 0.0) as u32;
                        runs.push((traced, out));
                    }
                    Err(e) => {
                        eprintln!("dcnn-benchmark: FAILED {e}");
                        failed_runs += 1;
                    }
                }
            }
            per_pass.push(runs);
        }
        results.push(per_pass);
    }

    let wall = start.elapsed().as_secs_f64();
    let doc = object(vec![
        ("environment", environment(args, wall)),
        (
            "workloads",
            Value::Object(
                NAMES
                    .iter()
                    .zip(&results)
                    .map(|(name, passes)| {
                        let records = passes.iter().map(|runs| workload_record(args, name, runs));
                        (name.to_string(), Value::Array(records.collect()))
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = args.out.join(format!(
        "results-seed{}{}{}.json",
        args.seed,
        if args.quick { "-quick" } else { "" },
        if args.aa { "-aa" } else { "" }
    ));
    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        std::fs::write(&path, serde_json::to_string_pretty(&doc).expect("serialize") + "\n")
    });
    match written {
        Ok(()) => eprintln!("dcnn-benchmark: wrote {} ({wall:.0} s)", path.display()),
        Err(e) => eprintln!("dcnn-benchmark: cannot write {}: {e}", path.display()),
    }

    let mut beyond = 0;
    if args.aa {
        println!("A/A: two runs of the same build; a difference counts when the second is worse");
        for (w, name) in NAMES.iter().enumerate() {
            for (metric, _, better, bound) in END_TO_END {
                let value =
                    |pass: usize| results[w][pass].first().and_then(|(_, r)| r.value(metric));
                let (Some(a), Some(b)) = (value(0), value(1)) else {
                    continue;
                };
                let worse = if better == "higher" { (a - b) / a } else { (b - a) / a };
                let verdict = if worse > bound { "BEYOND" } else { "within" };
                beyond += (worse > bound) as u32;
                println!("{name} {metric} first={a} second={b} worse_by={worse:+.4} bound={bound} {verdict}");
            }
        }
    }
    if failed_runs > 0 || beyond > 0 {
        eprintln!(
            "dcnn-benchmark: {failed_runs} run(s) with failures, {beyond} metric(s) beyond bound"
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
