//! `dcnn-perf` — the hot-path kernel tripwire.
//!
//! Times each hot-path kernel against the code it replaced, in alternating
//! turns of one run (see `dcnn_bench::perf`), writes `BENCH_<date>.json`
//! into `--out`, and fails if a pair reads below its floor:
//!
//! ```sh
//! # Full run, write the trajectory row into the repo root:
//! cargo run --release -p dcnn-bench --bin dcnn-perf -- --out .
//!
//! # CI smoke: fewer sizes, same gate:
//! dcnn-perf --quick --out target/bench-smoke
//! ```
//!
//! Exit status: `0` on success, `1` if a gated pair is below its floor
//! (each named with its measured ratio and the floor), `2` on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use dcnn_bench::perf;

fn usage() -> ExitCode {
    eprintln!("usage: dcnn-perf [--quick] [--out DIR]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let (mut quick, mut out) = (false, PathBuf::from("."));
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            other => {
                eprintln!("dcnn-perf: unknown argument `{other}`");
                return usage();
            }
        }
    }

    eprintln!("dcnn-perf: running {} suite…", if quick { "quick" } else { "full" });
    let (report, pairs) = perf::run_suite(quick);
    for r in &report.rows {
        eprintln!(
            "  {:<32} {:>10.0} ns/iter  {:>8.2} GiB/s  {}",
            r.name,
            r.ns_per_iter,
            r.gib_per_s,
            if r.tracked { "tracked" } else { "-" }
        );
    }
    for p in &pairs {
        eprintln!("  {p}");
    }

    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("dcnn-perf: cannot create {}: {e}", out.display());
        return ExitCode::from(2);
    }
    let path = out.join(format!("BENCH_{}.json", report.date));
    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("dcnn-perf: serialize failed: {e:?}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::write(&path, json + "\n") {
        eprintln!("dcnn-perf: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    eprintln!("dcnn-perf: wrote {}", path.display());

    let slow = perf::below_floor(&pairs);
    if !slow.is_empty() {
        eprintln!("dcnn-perf: {} pair(s) below their floor:", slow.len());
        for p in slow {
            eprintln!("  {p}");
        }
        return ExitCode::from(1);
    }
    eprintln!("dcnn-perf: every gated pair at or above its floor");
    ExitCode::SUCCESS
}
