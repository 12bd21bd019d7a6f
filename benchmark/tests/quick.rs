//! Runs the benchmark in `--quick` mode (one repetition of one epoch, probes
//! at N = 3) and checks what it prints against `BENCHMARK.json`: every
//! declared metric is present for every workload, with its unit and a sample
//! count, under a well-formed name, and no step or check failed.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

const EXE: &str = env!("CARGO_BIN_EXE_dcnn-benchmark");

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a metric list of the contract.
fn declared(contract: &Value, list: &str) -> Vec<(String, String)> {
    let field =
        |m: &Value, k: &str| m.get(k).and_then(Value::as_str).expect("string field").to_string();
    let entries = contract.get(list).and_then(Value::as_array).expect("metric list");
    entries.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn run(args: &[&str], out_dir: &str) -> String {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out_dir);
    let output = Command::new(EXE).args(args).arg("--out").arg(&out).output().expect("spawn");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{args:?} exited {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

#[test]
fn quick_suite_prints_every_declared_metric_for_every_workload() {
    let contract = contract();
    let stdout = run(&["--quick", "--seed", "42"], "suite");
    // `<workload> <metric> <unit> value=<v> n=<samples> q1=<..> q3=<..>`
    let rows: Vec<Vec<&str>> = stdout.lines().map(|l| l.split_whitespace().collect()).collect();
    let workloads = contract.get("workloads").and_then(Value::as_array).expect("workloads");
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let w = w.get("name").and_then(Value::as_str).expect("workload name");
        assert!(well_formed(w), "workload name `{w}`");
        for list in ["end_to_end", "per_layer"] {
            for (name, unit) in declared(&contract, list) {
                assert!(well_formed(&name), "metric name `{name}`");
                let row = rows
                    .iter()
                    .find(|r| r.len() == 7 && r[0] == w && r[1] == name)
                    .unwrap_or_else(|| panic!("{w}: metric `{name}` not printed"));
                assert_eq!(row[2], unit, "{w} {name}: unit");
                let samples: f64 =
                    row[4].strip_prefix("n=").expect("sample count").parse().expect("count");
                assert!(samples >= 1.0, "{w} {name}: sample count {samples}");
                let value: f64 =
                    row[3].strip_prefix("value=").expect("value").parse().expect("number");
                assert!(value.is_finite(), "{w} {name}: value {value}");
            }
        }
        let failures = rows
            .iter()
            .filter(|r| r.len() == 6 && r[0] == w && r[1] == "failed_step_frac")
            .inspect(|r| assert_eq!(r[5], "value=0", "{w}: {r:?}"))
            .count();
        assert_eq!(failures, 2, "{w}: one failed_step_frac row per run");
    }
    // Nothing undeclared is printed either.
    let known: Vec<String> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|l| declared(&contract, l))
        .map(|(name, _)| name)
        .collect();
    for r in rows.iter().filter(|r| r.len() == 7) {
        assert!(known.iter().any(|k| k == r[1]), "`{}` is printed but not declared", r[1]);
    }
}

#[test]
fn a_single_run_ends_with_the_result_object() {
    let contract = contract();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = run(
            &[
                "--workload",
                "resnet-compute",
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
            ],
            "single",
        );
        let result: Value = serde_json::from_str(stdout.lines().last().expect("a last line"))
            .expect("result parses");
        let Value::Object(fields) = &result else { panic!("result is not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        assert!(result.get("attempted").and_then(Value::as_u64).expect("attempted") >= 1);
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        let Some(Value::Object(metrics)) = result.get("metrics") else { panic!("no metrics") };
        let mut printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(k, v)| {
                (k.clone(), v.get("unit").and_then(Value::as_str).expect("unit").to_string())
            })
            .collect();
        let mut wanted = declared(&contract, list);
        printed.sort();
        wanted.sort();
        assert_eq!(printed, wanted, "--trace {trace} prints exactly the {list} metrics");
    }
}
