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
//!   workload reads the spec from the [`CELL_ENV`] handshake). The
//!   reduction is the trainer's own exchange, [`GradSync`]: the payload is
//!   cut into synthetic parameter segments of `bucket_bytes` each
//!   ([`payload_segments`]), so a fused cell is its blocking allreduce, a
//!   drain cell its `finish` with nothing streamed, and a hooked cell the
//!   backward hook's reports in reverse layer order;
//! * **simulate** itself ([`CellSpec::simulate`]) by compiling the same
//!   algorithm to a [`dcnn_simnet::CommSchedule`] per bucket of that cut
//!   and running it over the modelled fat-tree — the basis of the
//!   real-vs-simnet discrepancy report;
//! * **serialize** itself (serde) into the schema-versioned JSON row the
//!   sweep engine writes per cell.
//!
//! Keeping the descriptor here (rather than in the bench crate) lets the
//! facade's launch registry and the sweep engine share one definition
//! through `dcnn-core`; it lives in the trainer because it runs
//! [`GradSync`].

use std::time::Instant;

use dcnn_collectives::measurement::{json_str, json_u64};
use dcnn_collectives::{
    crc32_f32, AlgoPolicy, AllreduceAlgo, CellMeasurement, Comm, CommError, CostModel,
};
use dcnn_tensor::layers::ParamSegment;
use serde::Serialize;
use serde_json::Value;

use crate::grad_sync::{plan_buckets, GradSync};

/// The internal handshake variable `dcnn-eval` hands `dcnn-launch
/// --workload eval-cell` beside `DCNN_LAUNCH_WORKLOAD`: the serialized
/// [`CellSpec`] the launched ranks measure. Like the launcher's own
/// handshake it is not configuration (`RuntimeConfig::ENV_VARS` does not
/// list it).
pub const CELL_ENV: &str = "DCNN_LAUNCH_CELL";

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
    /// The cell the `eval-cell` workload measures when no handshake names
    /// one: the paper's multicolor allreduce over 1 MiB, fused, 3
    /// iterations, on `world` ranks.
    fn default_cell(world: usize) -> CellSpec {
        CellSpec {
            algo: "multicolor".to_string(),
            world,
            payload_bytes: 1 << 20,
            bucket_bytes: 0,
            overlap: "fused".to_string(),
            transport: "threads".to_string(),
            iters: 3,
            fault: None,
        }
    }

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

    /// This cell as the value of the [`CELL_ENV`] handshake variable.
    pub fn to_handshake(&self) -> String {
        serde_json::to_string(self).expect("CellSpec serializes")
    }

    /// The cell a [`CELL_ENV`] value describes; `None` (the variable is
    /// unset) is the default cell (multicolor, 1 MiB, fused, 3 iterations)
    /// on `world` ranks.
    pub fn from_handshake(value: Option<&str>, world: usize) -> Result<CellSpec, String> {
        let Some(text) = value else { return Ok(CellSpec::default_cell(world)) };
        let v: Value = serde_json::from_str(text).map_err(|e| format!("{CELL_ENV}: {e:?}"))?;
        CellSpec::from_value(&v)
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

    /// Execute this cell on a live communicator and time it. Collective:
    /// every rank calls this with the identical spec. One [`GradSync`]
    /// runs every iteration. An `auto` cell makes its decision
    /// ([`GradSync::decide`]) before the timed iterations, as training
    /// does before its first step, so those iterations — seeded like a
    /// fixed cell's — run the decided table. The returned fingerprint is
    /// asserted identical across ranks by the caller (the `eval-cell`
    /// workload allgathers it).
    ///
    /// The outer error is a spec that names no policy, found before any
    /// communication; the inner one a peer that died mid-cell.
    pub fn measure_on_comm(
        &self,
        comm: &Comm,
    ) -> Result<Result<CellMeasurement, CommError>, String> {
        self.policy().map(|policy| self.measure(comm, policy))
    }

    /// [`CellSpec::measure_on_comm`] under the parsed `policy`.
    fn measure(&self, comm: &Comm, policy: AlgoPolicy) -> Result<CellMeasurement, CommError> {
        let elems = self.elems();
        let segments = payload_segments(elems, self.bucket_bytes);
        let mut sync = GradSync::with_policy(policy, &segments, self.bucket_bytes, false);
        sync.decide(comm)?;
        let hooked = self.bucket_bytes > 0 && self.overlap == "hooked";
        let start_stats = comm.stats();
        let mut best_ns = u64::MAX;
        let mut fingerprint = 0u32;
        for iter in 0..self.iters.max(1) {
            let mut buf = cell_fill(comm.global_rank(), elems, iter as u64);
            let t0 = Instant::now();
            let mut stream = sync.begin(comm);
            if hooked {
                let mut sink = 0.0f32;
                for seg in segments.iter().rev() {
                    stream.segment_ready(&buf, seg.offset, seg.len);
                    // A small fixed busywork quantum per report, like a
                    // layer's backward pass running while the reduce is in
                    // flight.
                    for i in 0..2048u32 {
                        sink += (i as f32).sqrt();
                    }
                }
                std::hint::black_box(sink);
            }
            stream.try_finish(&mut buf)?;
            best_ns = best_ns.min(t0.elapsed().as_nanos() as u64);
            fingerprint = !crc32_f32(!0, &buf);
        }
        Ok(CellMeasurement {
            wall_ns: best_ns,
            bytes: (elems * 4) as u64,
            link_bytes_sent: comm.stats().link_bytes_delta(&start_stats),
            algo_choices: sync.choices_string(),
            fingerprint,
        })
    }

    /// Predict this cell's single-iteration time by compiling the same
    /// algorithm(s) to schedules over the modelled fat-tree, one per bucket
    /// of the cut [`CellSpec::measure_on_comm`] exchanges. `auto` cells are
    /// scored per bucket by the candidate with the smallest simulated
    /// makespan.
    pub fn simulate(&self, cost: &CostModel) -> Result<SimEstimate, String> {
        let policy = self.policy()?;
        let topo = dcnn_simnet::FatTree::minsky(self.world);
        let opts = dcnn_simnet::SimOptions::default();
        let run_one = |algo: &AllreduceAlgo, bytes: f64| {
            let report = algo.build().schedule(self.world, bytes, cost).simulate(&topo, &opts);
            (report.makespan, report.max_link_utilization(&topo))
        };
        let mut sim_ns = 0.0;
        let mut max_util: f64 = 0.0;
        let segments = payload_segments(self.elems(), self.bucket_bytes);
        for b in plan_buckets(&segments, self.bucket_bytes) {
            let (secs, util) = policy
                .candidates()
                .iter()
                .map(|a| run_one(a, b.bytes() as f64))
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("a policy has at least one candidate");
            sim_ns += secs * 1e9;
            max_util = max_util.max(util);
        }
        Ok(SimEstimate { sim_ns, max_link_utilization: max_util })
    }
}

/// Cut an `elems`-element payload into synthetic parameter segments of
/// `bucket_bytes` each, in layout order (the last one may be shorter; one
/// segment when `bucket_bytes == 0`). No two fit one bucket, so
/// [`plan_buckets`] gives each segment a bucket of its own.
pub fn payload_segments(elems: usize, bucket_bytes: usize) -> Vec<ParamSegment> {
    let per = if bucket_bytes == 0 { elems } else { (bucket_bytes / 4).max(1) };
    (0..elems.div_ceil(per))
        .map(|i| ParamSegment {
            name: format!("bucket.{i}"),
            offset: i * per,
            len: per.min(elems - i * per),
        })
        .collect()
}

/// Deterministic per-rank payload: every rank contributes different bits,
/// varying by iteration, so the reduced fingerprint actually exercises the
/// reduction (an all-zeros payload would fingerprint identically under a
/// broken algorithm).
fn cell_fill(rank: usize, elems: usize, iter: u64) -> Vec<f32> {
    let mut state =
        0x9e37_79b9_u64.wrapping_mul(rank as u64 + 1).wrapping_add(iter.wrapping_mul(0x85eb_ca6b));
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
    use dcnn_collectives::run_cluster;

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
    fn handshake_round_trips_and_an_absent_variable_is_the_default_cell() {
        let mut cell = spec("auto:ring,halving-doubling", 4096, "drain", 4);
        cell.fault = Some("drop-link=0:1".to_string());
        assert_eq!(CellSpec::from_handshake(Some(&cell.to_handshake()), 4), Ok(cell));

        let default = CellSpec::from_handshake(None, 3).expect("default cell");
        assert_eq!(default, CellSpec::default_cell(3));
        assert_eq!(default.id(), "multicolor/w3/p1048576/fused/threads");
        assert_eq!(default.iters, 3);
        assert!(CellSpec::from_handshake(Some("{}"), 3).unwrap_err().contains("algo"));
        assert!(CellSpec::from_handshake(Some("not json"), 3).is_err());
    }

    #[test]
    fn payload_segments_get_one_bucket_each() {
        for (elems, bucket_bytes) in [(4096, 0), (4096, 4096), (4097, 4096), (10, 6), (5, 1)] {
            let segs = payload_segments(elems, bucket_bytes);
            assert_eq!(segs.iter().map(|s| s.len).sum::<usize>(), elems);
            let plan = plan_buckets(&segs, bucket_bytes);
            assert_eq!(plan.len(), segs.len(), "elems={elems} bucket_bytes={bucket_bytes}");
            for (b, s) in plan.iter().zip(segs.iter().rev()) {
                assert_eq!(b.range(), s.offset..s.offset + s.len);
            }
        }
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
                cell.measure_on_comm(comm).expect("cell runs").expect("no peer dies").fingerprint
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
            let m = cell.measure_on_comm(comm).expect("cell runs").expect("no peer dies");
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
        let doc: Value =
            serde_json::from_str(&serde_json::to_string(&cell).expect("json")).expect("parses");
        assert_eq!(CellSpec::from_value(&doc), Ok(cell));
        assert!(CellMeasurement::from_json("{}").unwrap_err().contains("wall_ns"));
    }

    #[test]
    fn auto_cell_times_its_frozen_table_not_its_probes() {
        let cell = CellSpec { iters: 1, ..spec("auto:ring,halving-doubling", 0, "fused", 2) };
        let measure = |cell: CellSpec| {
            run_cluster(2, move |comm| {
                cell.measure_on_comm(comm).expect("cell runs").expect("no peer dies")
            })
        };
        let runs = measure(cell);
        for m in &runs {
            assert!(m.algo_choices.contains("<="), "timed undecided: {:?}", m.algo_choices);
            assert_eq!(m.fingerprint, runs[0].fingerprint, "ranks disagree");
        }
        // The timed iteration reduces the payload a fixed cell's does.
        let fixed = CellSpec { iters: 1, ..spec("ring", 0, "fused", 2) };
        let fixed = measure(fixed);
        assert_eq!(runs[0].fingerprint, fixed[0].fingerprint);
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
            assert!((0.0..=1.0).contains(&est.max_link_utilization), "{}: {est:?}", cell.id());
        }
        let bad = spec("warp-speed", 0, "fused", 4);
        assert!(bad.policy().is_err());
    }
}
