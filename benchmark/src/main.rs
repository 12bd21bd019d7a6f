//! `dcnn-benchmark` — the repo benchmark.
//!
//! One run measures one workload, untraced (end-to-end metrics) or traced
//! (per-layer metrics), and prints one JSON object as its last line:
//!
//! ```sh
//! dcnn-benchmark --workload fcnet-comm-tcp --seed 42 --seconds 20 --trace 0
//! ```
//!
//! Without `--workload` it runs the whole suite, one child process per run
//! so that memory is per workload; see `README.md` beside this crate.

mod e2e;
mod measure;
mod probes;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dist_cnn::trainer::EpochStats;

use e2e::{judge, setup_once, timed_cluster, train_rep, Rep};
use measure::{peak_rss_mib, Metric, Metrics, Tally};
use trace::{layered_rank, pass_log, LoopTotals, SpanLog, SpanModule, StepSamples};
use workloads::{Workload, NAMES, RANKS};

/// `(name, unit, better, bound)`: what a user of the trainer sees, and the
/// share of the parent's median by which each may worsen. `BENCHMARK.json`
/// carries the same table; a unit test below checks that they agree.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("images_per_s", "img/s", "higher", 0.25),
    ("cpu_ms_per_img", "ms/img", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.25),
];

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub aa: bool,
    pub out: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dcnn-benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds N] \
         [--quick] [--aa] [--out DIR]\n  workloads: {}",
        NAMES.join(", ")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
        quick: false,
        aa: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(usage);
        match a.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| usage())?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| usage())?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage()),
                }
            }
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            "--out" => args.out = PathBuf::from(value()?),
            _ => {
                eprintln!("dcnn-benchmark: unknown argument `{a}`");
                return Err(usage());
            }
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(usage());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let Some(name) = &args.workload else {
        return suite::run(&args);
    };
    let Some(w) = Workload::by_name(name, args.seed, args.quick) else {
        eprintln!("dcnn-benchmark: unknown workload `{name}`");
        return usage();
    };
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced_run(&w, &args, &mut tally)
    } else {
        untraced_run(&w, &args, &mut tally)
    };
    let Some(metrics) = metrics else {
        for note in &tally.notes {
            eprintln!("dcnn-benchmark: FAILED {note}");
        }
        eprintln!("dcnn-benchmark: no repetition of {} completed", w.name);
        return ExitCode::from(1);
    };
    print_result(&metrics, &tally);
    ExitCode::SUCCESS
}

/// Every metric by name with unit, value, sample count and quartiles (the
/// value is the sample's median; for a layer probe, the minimum of `n` timed
/// repetitions; for a counter, the count), then the result object the driver
/// reads from the last line.
fn print_result(metrics: &Metrics, tally: &Tally) {
    let mut failed = tally.failed;
    let mut body = String::new();
    for Metric { name, unit, value, samples, q1, q3 } in &metrics.0 {
        println!("metric {name} {unit} value={value} n={samples} q1={q1} q3={q3}");
        let value = if value.is_finite() {
            *value
        } else {
            eprintln!("dcnn-benchmark: FAILED metric {name} is not finite");
            failed += 1;
            0.0
        };
        if !body.is_empty() {
            body.push(',');
        }
        body.push_str(&format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    for note in &tally.notes {
        eprintln!("dcnn-benchmark: FAILED {note}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{body}}}}}",
        failed == 0,
        tally.attempted.max(1),
    );
}

/// Whether a measuring loop that has made `done` passes goes on: until
/// `--seconds` have gone by since `started` and at least `least` passes are
/// made; the smoke mode makes exactly one.
fn goes_on(args: &Args, done: usize, least: usize, started: Instant) -> bool {
    if args.quick {
        return done < 1;
    }
    done < least || started.elapsed().as_secs_f64() < args.seconds
}

/// Run the warm-up repetition (the first repetition in a process runs
/// 1.1-1.7x slower) and keep its loss trajectory as the reference every later
/// repetition must reproduce bit for bit.
fn warm_up(
    w: &Workload,
    ds: &dist_cnn::dimd::SynthImageNet,
    tally: &mut Tally,
) -> Option<Vec<u64>> {
    let rep = train_rep(w, ds, &|_| w.build_model());
    judge_rep(tally, w, "warm-up", &rep, None);
    let rep = rep.ok()?;
    let losses: Vec<f64> = rep.stats.iter().map(|s| s.train_loss).collect();
    eprintln!("dcnn-benchmark: {} per-epoch training loss {losses:?}", w.name);
    Some(rep.loss_bits())
}

fn judge_rep(
    tally: &mut Tally,
    w: &Workload,
    label: &str,
    rep: &Result<Rep, String>,
    reference: Option<&[u64]>,
) {
    let losses: Vec<f64>;
    let outcome = match rep {
        Ok(r) => {
            losses = r.stats.iter().map(|s| s.train_loss).collect();
            Ok(&losses[..])
        }
        Err(e) => Err(e.as_str()),
    };
    judge(tally, w, label, outcome, reference);
}

/// The untraced run: one set-up, one warm-up, then a set-up and a timed
/// repetition in turn for `--seconds`.
fn untraced_run(w: &Workload, args: &Args, tally: &mut Tally) -> Option<Metrics> {
    // One set-up and one training call are what a user's process does, so
    // peak memory is read here, before the repeated set-ups and repetitions
    // below leave the allocator in a state that differs from run to run.
    let mut setups = vec![setup_once(w)];
    let ds = w.dataset();
    let reference = if args.quick { None } else { warm_up(w, &ds, tally) };
    let peak_rss = peak_rss_mib();

    // A set-up is short next to a repetition and as exposed to a noisy
    // neighbour, so one runs before every repetition: the samples span the
    // whole run, and their median is the report.
    let mut reps: Vec<Rep> = Vec::new();
    let t0 = Instant::now();
    let mut attempts = 0;
    while goes_on(args, attempts, 5, t0) {
        attempts += 1;
        if !args.quick {
            setups.push(setup_once(w));
        }
        let rep = train_rep(w, &ds, &|_| w.build_model());
        judge_rep(tally, w, &format!("repetition {attempts}"), &rep, reference.as_deref());
        reps.extend(rep.ok());
    }
    if reps.is_empty() {
        return None;
    }

    let images = w.images_per_rep() as f64;
    let rates: Vec<f64> = reps.iter().map(|r| images / r.wall_s).collect();
    eprintln!("dcnn-benchmark: {} img/s per repetition {rates:.1?}", w.name);
    let mut m = Metrics::default();
    m.sample("images_per_s", "img/s", &rates);
    let cpu: Vec<f64> = reps.iter().map(|r| r.cpu_s * 1e3 / images).collect();
    m.sample("cpu_ms_per_img", "ms/img", &cpu);
    m.sample("setup_s", "s", &setups);
    // The smoke mode has no warm-up, so it reads the peak after its one call.
    m.scalar("peak_rss_mib", "MiB", if args.quick { peak_rss_mib() } else { peak_rss });
    Some(m)
}

/// Exact counters of traced run A, from the trainer's own per-epoch
/// `EpochStats` (rank 0's communication counters) over `steps` steps.
fn report_counters(e: &[EpochStats], steps: f64, m: &mut Metrics) {
    let per_step = |f: &dyn Fn(&EpochStats) -> f64| e.iter().map(f).sum::<f64>() / steps;
    let mean = |f: &dyn Fn(&EpochStats) -> f64| e.iter().map(f).sum::<f64>() / e.len() as f64;
    let last = e.last().expect("at least one epoch");
    m.scalar("trainer.overlap_frac", "ratio", mean(&|s| s.overlap_frac));
    m.scalar("trainer.buckets_per_step", "count", per_step(&|s| s.buckets_launched as f64));
    m.scalar("trainer.resident_opt_bytes", "bytes", last.resident_opt_bytes as f64);
    m.scalar("trainer.resident_param_bytes", "bytes", last.resident_param_bytes as f64);
    m.scalar("collectives.bytes_per_step", "bytes", per_step(&|s| s.comm_bytes as f64));
    m.scalar("collectives.msgs_per_step", "count", per_step(&|s| s.comm_msgs as f64));
    m.scalar("collectives.allreduce_ms_per_step", "ms", per_step(&|s| s.allreduce_secs * 1e3));
    m.scalar("collectives.recv_wait_ms_per_step", "ms", per_step(&|s| s.comm_wait_secs * 1e3));
    m.scalar("collectives.bucket_wait_ms_per_step", "ms", per_step(&|s| s.bucket_wait_secs * 1e3));
    m.scalar("collectives.link_imbalance", "ratio", mean(&|s| s.link_imbalance));
    m.scalar("collectives.inflight_hwm", "count", last.async_inflight_hwm as f64);
}

/// The traced run: untraced, span-wrapped (A) and layered (B) repetitions
/// in turn for `--seconds`, so the three rates see the same machine state;
/// then the layer probes.
fn traced_run(w: &Workload, args: &Args, tally: &mut Tally) -> Option<Metrics> {
    setup_once(w);
    let ds = w.dataset();
    let reference = warm_up(w, &ds, tally)?;
    let steps = w.steps_per_rep();

    // Per cycle: the rate of the untraced, span-wrapped and layered
    // repetition. The two ratios are taken within a cycle, between
    // repetitions a few seconds apart, and reported as medians over cycles.
    let mut cycle_rates: Vec<[f64; 3]> = Vec::new();
    let mut samples = StepSamples::default();
    let mut epochs: Vec<EpochStats> = Vec::new();
    let mut totals = LoopTotals::default();
    let mut last_spans = Vec::new();
    let mut partition_bytes = 0usize;
    let rate = |wall_s: f64| w.images_per_rep() as f64 / wall_s;
    let t0 = Instant::now();
    let mut cycles = 0;
    while goes_on(args, cycles, 2, t0) {
        cycles += 1;
        let plain = train_rep(w, &ds, &|_| w.build_model());
        judge_rep(tally, w, &format!("untraced repetition {cycles}"), &plain, Some(&reference));

        let logs: Vec<_> = (0..RANKS).map(|_| pass_log(steps)).collect();
        let wrapped =
            train_rep(w, &ds, &|rank| SpanModule::wrap(w.build_model(), logs[rank].clone()));
        judge_rep(tally, w, &format!("traced run A {cycles}"), &wrapped, Some(&reference));

        let origin = Instant::now();
        let layered = timed_cluster(w, |comm| {
            let mut log = SpanLog::new(origin, comm.rank(), steps);
            let (losses, bytes) = layered_rank(comm, w, &ds, &mut log);
            (losses, bytes, log.spans)
        });
        let losses =
            layered.as_ref().map(|(_, _, ranks)| ranks[0].0.as_slice()).map_err(|e| e.as_str());
        judge(tally, w, &format!("traced run B {cycles}"), losses, Some(&reference));

        if let (Ok(plain), Ok(wrapped), Ok((layered_wall_s, _, ranks))) = (plain, wrapped, layered)
        {
            cycle_rates.push([rate(plain.wall_s), rate(wrapped.wall_s), rate(layered_wall_s)]);
            samples.extend_from(&logs[0]);
            epochs.extend(wrapped.stats);
            partition_bytes = ranks[0].1;
            totals.add(&ranks[0].2);
            last_spans = ranks.into_iter().flat_map(|r| r.2).collect();
        }
    }
    if cycle_rates.is_empty() {
        return None;
    }

    let mut m = Metrics::default();
    samples.report(&mut m);
    let overhead: Vec<f64> = cycle_rates.iter().map(|[plain, a, _]| 1.0 - a / plain).collect();
    m.sample("trainer.trace_overhead_frac", "ratio", &overhead);
    report_counters(&epochs, (steps * cycle_rates.len()) as f64, &mut m);
    totals.report(&mut m);
    let vs_trainer: Vec<f64> = cycle_rates.iter().map(|[plain, _, b]| b / plain).collect();
    m.sample("loop.vs_trainer_frac", "ratio", &vs_trainer);
    m.scalar("dimd.memory_bytes", "bytes", partition_bytes as f64);

    let unaccounted = m.get("loop.unaccounted_frac").expect("reported above");
    tally.check((0.0..=0.03).contains(&unaccounted), || {
        format!("{}: the layered loop leaves {unaccounted:.4} of the step unaccounted", w.name)
    });
    if w.name == "fcnet-sharded" {
        sharded_matches_tcp(w, args, &reference, tally);
    }
    let spans_path = args.out.join(format!("{}.spans.jsonl", w.name));
    if let Err(e) = trace::write_spans(&spans_path, &last_spans) {
        eprintln!("dcnn-benchmark: cannot write {}: {e}", spans_path.display());
    }

    probes::run_all(args.seed, if args.quick { 3 } else { 5 }, &mut m, tally);
    Some(m)
}

/// `fcnet-sharded` and `fcnet-comm-tcp` share model, data, lr and seed, and
/// sharding the optimizer over a different transport must not move a bit:
/// their per-epoch losses are equal on the epochs both run.
fn sharded_matches_tcp(sharded: &Workload, args: &Args, reference: &[u64], tally: &mut Tally) {
    let tcp = Workload::by_name("fcnet-comm-tcp", args.seed, args.quick).expect("known workload");
    let rep = train_rep(&tcp, &tcp.dataset(), &|_| tcp.build_model());
    let shared = tcp.cfg.epochs.min(sharded.cfg.epochs);
    let same = rep.as_ref().is_ok_and(|r| r.loss_bits()[..shared] == reference[..shared]);
    tally.check(same, || {
        format!(
            "fcnet-sharded losses {reference:x?} differ from fcnet-comm-tcp's {:x?}",
            rep.map(|r| r.loss_bits()).unwrap_or_default()
        )
    });
}

#[cfg(test)]
mod tests {
    use serde_json::Value;

    #[test]
    fn end_to_end_table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let declared: Vec<(&str, &str, &str, f64)> = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("end_to_end list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect("string field");
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Value::as_f64).expect("bound"),
                )
            })
            .collect();
        assert_eq!(declared, super::END_TO_END);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, super::NAMES);
    }
}
