//! Shared cell descriptor for the scenario-matrix evaluation harness.
//!
//! One [`CellSpec`] names a single point in the `dcnn-eval` matrix —
//! {allreduce algorithm or `auto`} × {world size} × {payload} × {bucket
//! size / overlap mode} × {transport} × {optional fault script} — and can
//! do three things with itself:
//!
//! * **run** on a live [`Comm`] ([`CellSpec::measure_on_comm`]), timing the
//!   configured reduction and capturing the per-link byte counters, so the
//!   same code path produces the row whether the cell executes as
//!   in-process threads or as real TCP processes (the `eval-cell` launch
//!   workload re-parses the spec from `DCNN_*` variables via
//!   [`CellSpec::from_runtime`]);
//! * **simulate** itself ([`CellSpec::simulate`]) by compiling the same
//!   algorithm to a [`dcnn_simnet::CommSchedule`] and running it over the
//!   modelled fat-tree — the basis of the real-vs-simnet discrepancy
//!   report;
//! * **serialize** itself (serde) into the schema-versioned JSON row the
//!   sweep engine writes per cell.
//!
//! Keeping the descriptor here (rather than in the bench crate) lets the
//! facade's launch registry and the sweep engine share one definition
//! through `dcnn-core`, with [`RuntimeConfig`] as the common env carrier.

use std::time::Instant;

use serde::Serialize;
use serde_json::Value;

use crate::algorithms::{AllreduceAlgo, CostModel};
use crate::config::{OverlapMode, RuntimeConfig};
use crate::runtime::{CollectiveOp, Comm};
use crate::transport::{crc32_f32, TransportKind};
use crate::tune::{AlgoPolicy, Tuner};

/// One point in the evaluation matrix. String-typed where the value must
/// round-trip through environment variables and JSON rows (`algo` holds
/// anything `DCNN_ALGO` accepts, including `auto:<c1>,<c2>`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellSpec {
    /// Allreduce policy in `DCNN_ALGO` syntax (`ring`, `multicolor:2`,
    /// `auto`, `auto:ring,halving-doubling`, ...).
    pub algo: String,
    /// Number of ranks.
    pub world: usize,
    /// Gradient payload reduced per iteration, in bytes (f32-aligned).
    pub payload_bytes: usize,
    /// Bucket size target in bytes; `0` = one fused blocking allreduce.
    pub bucket_bytes: usize,
    /// Overlap mode: `fused` (implied by `bucket_bytes == 0`), `drain`, or
    /// `hooked`.
    pub overlap: String,
    /// Transport backend: `threads` or `tcp`.
    pub transport: String,
    /// Timed iterations; the cell reports the fastest.
    pub iters: usize,
    /// Optional `DCNN_FAULT` script active during the cell.
    pub fault: Option<String>,
}

/// What one rank measured executing a [`CellSpec`] on a live fabric.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellMeasurement {
    /// Fastest single-iteration wall time, nanoseconds.
    pub wall_ns: u64,
    /// Payload bytes reduced per iteration.
    pub bytes: u64,
    /// Per-peer bytes this rank sent over the whole measurement, indexed
    /// by global rank (see [`crate::CommStats::link_bytes_sent`]).
    pub link_bytes_sent: Vec<u64>,
    /// The decision table (`auto`) or fixed algorithm name that ran.
    pub algo_choices: String,
    /// CRC-32 of the final reduced buffer — identical on every rank, the
    /// cell's own correctness check.
    pub fingerprint: u32,
}

impl CellMeasurement {
    /// One-line JSON encoding (what the `eval-cell` workload prints for
    /// the sweep engine to harvest from the child's stdout).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("CellMeasurement serializes")
    }

    /// Parse [`Self::to_json`] output back. Typed deserialization is
    /// spelled out over the untyped document because the vendored serde
    /// shim only parses into [`Value`].
    pub fn from_json(s: &str) -> Result<CellMeasurement, String> {
        let v: Value =
            serde_json::from_str(s).map_err(|e| format!("measurement JSON: {e:?}"))?;
        CellMeasurement::from_value(&v)
    }

    /// Parse a measurement out of an already-parsed JSON document.
    pub fn from_value(v: &Value) -> Result<CellMeasurement, String> {
        Ok(CellMeasurement {
            wall_ns: json_u64(v, "wall_ns", "measurement")?,
            bytes: json_u64(v, "bytes", "measurement")?,
            link_bytes_sent: json_u64_array(v, "link_bytes_sent", "measurement")?,
            algo_choices: json_str(v, "algo_choices", "measurement")?,
            fingerprint: json_u64(v, "fingerprint", "measurement")? as u32,
        })
    }
}

/// `v[k]` as an owned string, with a message naming the field (`what` says
/// which document kind for the error).
pub fn json_str(v: &Value, k: &str, what: &str) -> Result<String, String> {
    v.get(k)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{what}: missing string field {k:?}"))
}

/// `v[k]` as a non-negative integer.
pub fn json_u64(v: &Value, k: &str, what: &str) -> Result<u64, String> {
    v.get(k).and_then(Value::as_u64).ok_or_else(|| format!("{what}: missing integer field {k:?}"))
}

/// `v[k]` as a float.
pub fn json_f64(v: &Value, k: &str, what: &str) -> Result<f64, String> {
    v.get(k).and_then(Value::as_f64).ok_or_else(|| format!("{what}: missing number field {k:?}"))
}

/// `v[k]` as an array of non-negative integers.
pub fn json_u64_array(v: &Value, k: &str, what: &str) -> Result<Vec<u64>, String> {
    v.get(k)
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_u64).collect::<Vec<u64>>())
        .ok_or_else(|| format!("{what}: missing integer-array field {k:?}"))
}

/// What the simulator predicts for a [`CellSpec`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimEstimate {
    /// Predicted single-iteration wall time, nanoseconds. Bucketed cells
    /// sum their buckets' schedules (no cross-bucket overlap is modelled —
    /// real overlapped runs beating this estimate is expected and is
    /// exactly what the discrepancy report quantifies).
    pub sim_ns: f64,
    /// Peak utilization over the simulated fabric's links, in `[0, 1]`,
    /// maxed across bucket schedules.
    pub max_link_utilization: f64,
}

impl CellSpec {
    /// Parse a spec out of a JSON document (the inverse of the `Serialize`
    /// impl; the vendored serde shim only parses untyped [`Value`]s).
    pub fn from_value(v: &Value) -> Result<CellSpec, String> {
        let fault = match v.get("fault") {
            None | Some(Value::Null) => None,
            Some(f) => Some(
                f.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "cell spec: fault must be a string or null".to_string())?,
            ),
        };
        Ok(CellSpec {
            algo: json_str(v, "algo", "cell spec")?,
            world: json_u64(v, "world", "cell spec")? as usize,
            payload_bytes: json_u64(v, "payload_bytes", "cell spec")? as usize,
            bucket_bytes: json_u64(v, "bucket_bytes", "cell spec")? as usize,
            overlap: json_str(v, "overlap", "cell spec")?,
            transport: json_str(v, "transport", "cell spec")?,
            iters: json_u64(v, "iters", "cell spec")? as usize,
            fault,
        })
    }

    /// Rebuild the spec a TCP child process is being asked to run from its
    /// parsed environment (`DCNN_ALGO`, `DCNN_BUCKET_BYTES`,
    /// `DCNN_OVERLAP_MODE`, `DCNN_EVAL_PAYLOAD`, `DCNN_EVAL_ITERS`,
    /// `DCNN_FAULT`), with `world` taken from the live communicator.
    pub fn from_runtime(cfg: &RuntimeConfig, world: usize) -> CellSpec {
        let bucket_bytes = cfg.bucket_bytes_or_default();
        CellSpec {
            algo: cfg.algo_or_default().to_string(),
            world,
            payload_bytes: cfg.eval_payload_or_default(),
            bucket_bytes,
            overlap: if bucket_bytes == 0 {
                "fused".to_string()
            } else {
                match cfg.overlap_mode_or_default() {
                    OverlapMode::Drain => "drain".to_string(),
                    OverlapMode::Hooked => "hooked".to_string(),
                }
            },
            transport: match cfg.transport_or_default() {
                TransportKind::Threads => "threads".to_string(),
                TransportKind::Tcp => "tcp".to_string(),
            },
            iters: cfg.eval_iters_or_default(),
            fault: cfg.fault.map(|f| f.to_string()),
        }
    }

    /// The `DCNN_*` variables describing this cell to a re-launched child
    /// process. Transport topology (`DCNN_TRANSPORT`, `DCNN_RANK`,
    /// `DCNN_WORLD`, `DCNN_RENDEZVOUS`) is the launcher's job and is not
    /// included.
    pub fn to_env(&self) -> Vec<(&'static str, String)> {
        let mut env = vec![
            ("DCNN_ALGO", self.algo.clone()),
            ("DCNN_BUCKET_BYTES", self.bucket_bytes.to_string()),
            ("DCNN_EVAL_PAYLOAD", self.payload_bytes.to_string()),
            ("DCNN_EVAL_ITERS", self.iters.to_string()),
        ];
        if self.bucket_bytes > 0 && self.overlap != "fused" {
            env.push(("DCNN_OVERLAP_MODE", self.overlap.clone()));
        }
        if let Some(f) = &self.fault {
            env.push(("DCNN_FAULT", f.clone()));
        }
        env
    }

    /// Stable cell identity: `algo/wN/pBYTES/bucketing/transport`, e.g.
    /// `ring/w4/p1048576/fused/threads` or
    /// `multicolor:4/w8/p4194304/b262144-hooked/tcp`. Used as the row file
    /// stem and as the join key between real and simulated results.
    pub fn id(&self) -> String {
        let bucketing = if self.bucket_bytes == 0 {
            "fused".to_string()
        } else {
            format!("b{}-{}", self.bucket_bytes, self.overlap)
        };
        let fault = self.fault.as_ref().map(|f| format!("/{f}")).unwrap_or_default();
        format!(
            "{}/w{}/p{}/{}/{}{}",
            self.algo, self.world, self.payload_bytes, bucketing, self.transport, fault
        )
    }

    /// Parse [`CellSpec::algo`] into the typed policy.
    pub fn policy(&self) -> Result<AlgoPolicy, String> {
        self.algo
            .parse()
            .map_err(|e| format!("cell {}: unparseable algo {:?}: {e}", self.id(), self.algo))
    }

    /// Number of f32 elements in the payload (at least one).
    pub fn elems(&self) -> usize {
        (self.payload_bytes / 4).max(1)
    }

    /// Cut `0..elems` into contiguous bucket ranges of at most
    /// `bucket_bytes` (the whole payload when fused).
    fn bucket_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let elems = self.elems();
        // Fused: one bucket spanning the whole payload.
        let per = if self.bucket_bytes == 0 { elems } else { (self.bucket_bytes / 4).max(1) };
        (0..elems.div_ceil(per)).map(|i| (i * per)..((i + 1) * per).min(elems)).collect()
    }

    /// Execute this cell on a live communicator and time it. Collective:
    /// every rank calls this with the identical spec. The returned
    /// fingerprint is asserted identical across ranks by the caller (the
    /// `eval-cell` workload allgathers it).
    pub fn measure_on_comm(&self, comm: &Comm) -> Result<CellMeasurement, String> {
        let mut tuner = self.policy()?.tuner();
        let n = comm.size();
        let elems = self.elems();
        let bytes = (elems * 4) as u64;
        let ranges = self.bucket_ranges();
        let hooked = self.overlap == "hooked";
        let start_stats = comm.stats();
        // Spans from whatever ran on this rank before the cell are not the
        // tuner's to score.
        comm.take_bucket_spans();
        let mut best_ns = u64::MAX;
        let mut fingerprint = 0u32;

        for iter in 0..self.iters.max(1) {
            let mut buf = cell_fill(comm.global_rank(), elems, iter as u64);
            let t0 = Instant::now();
            if self.bucket_bytes == 0 {
                // Fused: one blocking allreduce in place, reported to the
                // tuner directly (no bucket span records it).
                let sel = tuner.select(0, bytes, n, false);
                sel.handle.run(comm, &mut buf);
                tuner.record(&sel, bytes, t0.elapsed().as_nanos() as u64);
            } else {
                run_bucketed(comm, &mut buf, &ranges, hooked, &mut tuner);
            }
            let ns = t0.elapsed().as_nanos() as u64;
            best_ns = best_ns.min(ns);
            fingerprint = !crc32_f32(!0, &buf);
            tuner.close_epoch(comm, &comm.take_bucket_spans());
        }

        Ok(CellMeasurement {
            wall_ns: best_ns,
            bytes,
            link_bytes_sent: comm.stats().link_bytes_delta(&start_stats),
            algo_choices: tuner.decision_table(),
            fingerprint,
        })
    }

    /// Predict this cell's single-iteration time by compiling the same
    /// algorithm(s) to schedules over the modelled fat-tree. `auto` cells
    /// are scored as their steady state: per bucket, the candidate with
    /// the smallest simulated makespan.
    pub fn simulate(&self, cost: &CostModel) -> Result<SimEstimate, String> {
        let tuner = self.policy()?.tuner();
        let topo = dcnn_simnet::FatTree::minsky(self.world);
        let opts = dcnn_simnet::SimOptions::default();
        let run_one = |algo: &AllreduceAlgo, bytes: f64| {
            let report = algo.build().schedule(self.world, bytes, cost).simulate(&topo, &opts);
            (report.makespan, report.max_link_utilization(&topo))
        };
        let mut sim_ns = 0.0;
        let mut max_util: f64 = 0.0;
        for r in self.bucket_ranges() {
            let bytes = (r.len() * 4) as f64;
            let (secs, util) = tuner
                .candidates()
                .iter()
                .map(|a| run_one(a, bytes))
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("a tuner has at least one candidate");
            sim_ns += secs * 1e9;
            max_util = max_util.max(util);
        }
        Ok(SimEstimate { sim_ns, max_link_utilization: max_util })
    }
}

/// Launch every bucket nonblocking, each with the algorithm `tuner` picks
/// for its slot and size, and copy the reductions back. `hooked`
/// interleaves a deterministic compute spin between launches (standing in
/// for the backward pass the trainer would be running); `drain` launches
/// back to back. Both wait in launch order, so results are bitwise
/// identical to the fused reduction.
fn run_bucketed(
    comm: &Comm,
    buf: &mut [f32],
    ranges: &[std::ops::Range<usize>],
    hooked: bool,
    tuner: &mut Tuner,
) {
    let mut pending = Vec::with_capacity(ranges.len());
    let mut sink = 0.0f32;
    for (slot, r) in ranges.iter().enumerate() {
        let algo = tuner.select(slot, (r.len() * 4) as u64, comm.size(), true).handle;
        pending.push(comm.launch(CollectiveOp::allreduce(algo), buf[r.clone()].to_vec()));
        if hooked {
            // A small fixed busywork quantum per bucket, like a layer's
            // backward pass running while the reduce is in flight.
            for i in 0..2048u32 {
                sink += (i as f32).sqrt();
            }
        }
    }
    std::hint::black_box(sink);
    for (r, p) in ranges.iter().zip(pending) {
        buf[r.clone()].copy_from_slice(&p.wait());
    }
}

/// Deterministic per-rank payload: every rank contributes different bits,
/// varying by iteration, so the reduced fingerprint actually exercises the
/// reduction (an all-zeros payload would fingerprint identically under a
/// broken algorithm).
pub fn cell_fill(rank: usize, elems: usize, iter: u64) -> Vec<f32> {
    let mut state = 0x9e37_79b9_u64
        .wrapping_mul(rank as u64 + 1)
        .wrapping_add(iter.wrapping_mul(0x85eb_ca6b));
    (0..elems)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Small magnitudes keep the sum exact in f32 at any world size.
            ((state >> 33) as u32 % 512) as f32 / 256.0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_cluster;

    fn spec(algo: &str, bucket: usize, overlap: &str, world: usize) -> CellSpec {
        CellSpec {
            algo: algo.to_string(),
            world,
            payload_bytes: 16 * 1024,
            bucket_bytes: bucket,
            overlap: overlap.to_string(),
            transport: "threads".to_string(),
            iters: 2,
            fault: None,
        }
    }

    #[test]
    fn id_round_trips_the_matrix_axes() {
        assert_eq!(spec("ring", 0, "fused", 4).id(), "ring/w4/p16384/fused/threads");
        assert_eq!(
            spec("multicolor:4", 4096, "hooked", 8).id(),
            "multicolor:4/w8/p16384/b4096-hooked/threads"
        );
        let mut faulty = spec("ring", 0, "fused", 2);
        faulty.fault = Some("drop-link=0:1".to_string());
        assert!(faulty.id().ends_with("/drop-link=0:1"));
    }

    #[test]
    fn from_runtime_and_to_env_round_trip() {
        let cfg = RuntimeConfig::default()
            .with_algo(AlgoPolicy::Fixed(AllreduceAlgo::PipelinedRing))
            .with_bucket_bytes(4096)
            .with_overlap_mode(OverlapMode::Drain)
            .with_eval_payload(32768)
            .with_eval_iters(4);
        let cell = CellSpec::from_runtime(&cfg, 4);
        assert_eq!(cell.algo, "ring");
        assert_eq!(cell.bucket_bytes, 4096);
        assert_eq!(cell.overlap, "drain");
        assert_eq!((cell.payload_bytes, cell.iters), (32768, 4));

        // Re-parsing the exported environment reproduces the cell.
        let env: std::collections::HashMap<&str, String> = cell.to_env().into_iter().collect();
        let back = RuntimeConfig::from_lookup(|var| env.get(var).cloned()).expect("parses");
        assert_eq!(CellSpec::from_runtime(&back, 4), cell);
    }

    #[test]
    fn fused_bucketed_and_auto_cells_agree_on_the_reduction() {
        // Every bucketing/policy variant of the same payload must produce
        // the same reduced bits on every rank.
        let cells = [
            spec("ring", 0, "fused", 3),
            spec("ring", 4096, "drain", 3),
            spec("ring", 4096, "hooked", 3),
            spec("auto:ring,halving-doubling", 4096, "drain", 3),
        ];
        let mut fingerprints = Vec::new();
        for cell in cells {
            let runs = run_cluster(3, move |comm| {
                cell.measure_on_comm(comm).expect("cell runs").fingerprint
            });
            assert!(runs.iter().all(|&f| f == runs[0]), "ranks disagree");
            fingerprints.push(runs[0]);
        }
        assert!(
            fingerprints.iter().all(|&f| f == fingerprints[0]),
            "bucketing/policy changed the reduction: {fingerprints:?}"
        );
    }

    #[test]
    fn measurement_reports_link_bytes_that_sum_to_traffic() {
        let cell = spec("ring", 0, "fused", 3);
        let runs = run_cluster(3, move |comm| {
            let m = cell.measure_on_comm(comm).expect("cell runs");
            (m.link_bytes_sent.clone(), m.bytes, m.wall_ns)
        });
        for (links, bytes, wall_ns) in &runs {
            assert_eq!(links.len(), 3, "one counter per global rank");
            assert!(*bytes > 0 && *wall_ns > 0);
            let total: u64 = links.iter().sum();
            assert!(total > 0, "a 3-rank ring must move bytes");
        }
    }

    #[test]
    fn measurement_and_spec_round_trip_through_json() {
        let m = CellMeasurement {
            wall_ns: 123_456,
            bytes: 4096,
            link_bytes_sent: vec![0, 2048, 2048],
            algo_choices: "<=4096:ring".to_string(),
            fingerprint: 0xDEAD_BEEF,
        };
        assert_eq!(CellMeasurement::from_json(&m.to_json()), Ok(m));
        let cell = spec("auto:ring,halving-doubling", 4096, "hooked", 4);
        let doc: Value = serde_json::from_str(&serde_json::to_string(&cell).expect("json"))
            .expect("parses");
        assert_eq!(CellSpec::from_value(&doc), Ok(cell));
        assert!(CellMeasurement::from_json("{}").unwrap_err().contains("wall_ns"));
    }

    #[test]
    fn simulate_estimates_every_policy() {
        let cost = CostModel::default();
        for cell in [
            spec("ring", 0, "fused", 4),
            spec("multicolor:4", 0, "fused", 4),
            spec("ring", 4096, "drain", 4),
            spec("auto", 0, "fused", 4),
        ] {
            let est = cell.simulate(&cost).expect("simulates");
            assert!(est.sim_ns > 0.0, "{}: {est:?}", cell.id());
            assert!(
                (0.0..=1.0).contains(&est.max_link_utilization),
                "{}: {est:?}",
                cell.id()
            );
        }
        let bad = spec("warp-speed", 0, "fused", 4);
        assert!(bad.policy().is_err());
    }
}
