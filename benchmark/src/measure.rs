//! Order statistics, process counters from `/proc`, and the named-metric
//! record every part of the benchmark reports into.

use std::time::Instant;

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so the
/// numbers printed here compare directly with the driver's.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub p50: f64,
    pub q3: f64,
}

/// The `num/den` quantile of an ascending sample by the exclusive method,
/// step for step as CPython computes it (it extrapolates on tiny samples).
fn quantile_exclusive(sorted: &[f64], num: usize, den: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let m = n + 1;
    let j = (num * m / den).clamp(1, n - 1);
    let delta = (num * m) as f64 - (j * den) as f64;
    (sorted[j - 1] * (den as f64 - delta) + sorted[j] * delta) / den as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn summary(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        n: v.len(),
        q1: quantile_exclusive(&v, 1, 4),
        p50: quantile_exclusive(&v, 1, 2),
        q3: quantile_exclusive(&v, 3, 4),
    }
}

pub fn p90(values: &[f64]) -> f64 {
    quantile_exclusive(&sorted(values), 9, 10)
}

/// Minimum seconds per call of `f` over `reps` repetitions of `iters` calls
/// — the statistic `dcnn-perf` uses: preemption and cache pollution only
/// ever add time, so the minimum is the steadiest view of a kernel's cost.
pub fn min_secs(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// User + system CPU seconds this process has used, all threads (exited
/// ones included), from `/proc/self/stat`. `USER_HZ` is 100 on Linux.
pub fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields count from the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("tick count");
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    let kib: f64 =
        line.split_whitespace().nth(1).expect("VmHWM value").parse().expect("VmHWM number");
    kib / 1024.0
}

/// One reported metric: a value with its unit and, where it summarises a
/// sample, the sample's size and quartiles.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub q1: f64,
    pub q3: f64,
}

#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// A single measured or counted value.
    pub fn scalar(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.probe(name, unit, value, 1);
    }

    /// The median of a sample, with its size and quartiles.
    pub fn sample(&mut self, name: impl Into<String>, unit: &'static str, values: &[f64]) {
        let s = summary(values);
        self.0.push(Metric {
            name: name.into(),
            unit,
            value: s.p50,
            samples: s.n,
            q1: s.q1,
            q3: s.q3,
        });
    }

    /// A minimum over `samples` timed repetitions (a layer probe).
    pub fn probe(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) {
        self.0.push(Metric { name: name.into(), unit, value, samples, q1: value, q3: value });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Failures counted against attempts: training steps, plus one unit per
/// discrete correctness check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count `units` attempts, all failed unless `ok`.
    pub fn count(&mut self, units: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += units;
        if !ok {
            self.failed += units;
            self.notes.push(what());
        }
    }

    /// One discrete check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, ok, what);
    }
}
