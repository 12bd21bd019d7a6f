//! `dcnn-perf` — the hot-path performance baseline harness.
//!
//! Runs min-of-N microbenchmarks of the reduce kernels and the frame
//! encoder (see `dcnn_bench::perf`), writes `BENCH_<date>.json` into
//! `--out`, and optionally gates against a committed baseline:
//!
//! ```sh
//! # Full run, write the trajectory row into the repo root:
//! cargo run --release -p dcnn-bench --bin dcnn-perf -- --out .
//!
//! # CI smoke: quick iterations, fail on >20% tracked-kernel regression:
//! dcnn-perf --quick --out target/bench --baseline BENCH_2026-08-07.json
//! ```
//!
//! Exit status: `0` on success, `1` if any tracked row regresses past
//! `--max-regress` (default `0.20`), `2` on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use dcnn_bench::perf;

struct Args {
    quick: bool,
    out: PathBuf,
    baseline: Option<PathBuf>,
    max_regress: f64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dcnn-perf [--quick] [--out DIR] [--baseline BENCH_*.json] [--max-regress FRAC]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args =
        Args { quick: false, out: PathBuf::from("."), baseline: None, max_regress: 0.20 };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(it.next().ok_or_else(usage)?),
            "--baseline" => args.baseline = Some(PathBuf::from(it.next().ok_or_else(usage)?)),
            "--max-regress" => {
                let v = it.next().ok_or_else(usage)?;
                args.max_regress = v.parse().map_err(|_| usage())?;
            }
            "--help" | "-h" => return Err(usage()),
            other => {
                eprintln!("dcnn-perf: unknown argument `{other}`");
                return Err(usage());
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };

    eprintln!("dcnn-perf: running {} suite…", if args.quick { "quick" } else { "full" });
    let report = perf::run_suite(args.quick);
    for r in &report.rows {
        eprintln!(
            "  {:<32} {:>10.0} ns/iter  {:>8.2} GiB/s  {}",
            r.name,
            r.ns_per_iter,
            r.gib_per_s,
            if r.tracked { "tracked" } else { "-" }
        );
    }

    if let Some(x) = report.speedup(perf::DECODE_WINDOW_ROW, perf::DECODE_FULL_CROP_ROW) {
        eprintln!(
            "  {} is {x:.1}x its in-run reference {}",
            perf::DECODE_WINDOW_ROW,
            perf::DECODE_FULL_CROP_ROW
        );
    }

    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("dcnn-perf: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let path = args.out.join(format!("BENCH_{}.json", report.date));
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

    if let Some(baseline_path) = &args.baseline {
        let text = match std::fs::read_to_string(baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("dcnn-perf: cannot read baseline {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        };
        let baseline: serde_json::Value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("dcnn-perf: baseline {} is not JSON: {e:?}", baseline_path.display());
                return ExitCode::from(2);
            }
        };
        match perf::baseline_schema(&baseline) {
            Some(s) if s == perf::SCHEMA => {}
            other => {
                // A stale or foreign report must not gate: its rows either
                // vanish silently (every kernel reads "no regression") or
                // carry incomparable numbers. Warn and skip instead.
                eprintln!(
                    "dcnn-perf: baseline {} has schema {} (expected {}); skipping the \
                     regression gate",
                    baseline_path.display(),
                    other.map_or_else(|| "<none>".to_string(), |s| format!("{s:?}")),
                    perf::SCHEMA
                );
                return ExitCode::SUCCESS;
            }
        }
        let hits = perf::regressions(&report, &baseline, args.max_regress);
        if !hits.is_empty() {
            eprintln!(
                "dcnn-perf: {} tracked kernel(s) regressed past {:.0}% vs {}:",
                hits.len(),
                args.max_regress * 100.0,
                baseline_path.display()
            );
            for h in &hits {
                eprintln!(
                    "  {:<32} {:>10.0} -> {:>10.0} ns/iter  (+{:.1}%)",
                    h.name,
                    h.baseline_ns,
                    h.current_ns,
                    h.slowdown * 100.0
                );
            }
            return ExitCode::from(1);
        }
        eprintln!(
            "dcnn-perf: all tracked kernels within {:.0}% of {}",
            args.max_regress * 100.0,
            baseline_path.display()
        );
    }
    ExitCode::SUCCESS
}
