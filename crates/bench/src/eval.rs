//! Scenario-matrix evaluation engine behind the `dcnn-eval` binary.
//!
//! Drives a configurable matrix of {allreduce algorithm or `auto`} ×
//! {world size} × {payload} × {bucketing / overlap mode} × {transport} ×
//! {optional fault script} over the *real* runtime — in-process rank
//! threads, or genuine TCP processes re-launched through `dcnn-launch`'s
//! `eval-cell` workload — and feeds the identical
//! [`CellSpec`](dcnn_core::trainer::CellSpec) matrix through
//! `dcnn-simnet`. Every cell runs the trainer's own gradient exchange
//! (`GradSync`). Three artifacts land in the results directory:
//!
//! * one schema-versioned JSON row per cell (`cell-NNN.json`),
//! * `report.md` — the per-size winner table (our Figure 5/6 analog) plus
//!   the real-vs-simulated discrepancy table,
//! * `discrepancy.json` — every cell's real and simulated nanoseconds with
//!   the relative error, sorted by |relative error| descending (the
//!   simulator honesty trajectory later perf PRs regress against).

use std::ffi::OsString;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use dcnn_core::collectives::measurement::{json_f64, json_str, json_u64, json_u64_array};
use dcnn_core::collectives::{
    CellMeasurement, ClusterBuilder, CommStats, CostModel, RuntimeConfig,
};
use dcnn_core::trainer::cell::CELL_ENV;
use dcnn_core::trainer::CellSpec;
use serde::Serialize;
use serde_json::Value;

/// Schema tag written into every row (bump when the row shape changes).
pub const SCHEMA: &str = "dcnn-eval-v1";

/// The matrix to sweep: the cross product of every axis.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Algorithm axis, in `DCNN_ALGO` syntax (includes `auto`).
    pub algos: Vec<String>,
    /// World-size axis.
    pub worlds: Vec<usize>,
    /// Payload axis, bytes.
    pub payloads: Vec<usize>,
    /// Bucketing axis: `(bucket_bytes, overlap)`; `(0, "fused")` is the
    /// single blocking allreduce.
    pub bucketings: Vec<(usize, String)>,
    /// Transport axis: `threads` and/or `tcp`.
    pub transports: Vec<String>,
    /// Timed iterations per cell.
    pub iters: usize,
    /// Fault axis: `None` (clean run) and/or `DCNN_FAULT` scripts.
    pub faults: Vec<Option<String>>,
}

impl Default for MatrixSpec {
    /// The default local sweep: all six algorithms plus `auto`, two world
    /// sizes, a small and a large payload, fused, in-process — 28 cells.
    fn default() -> Self {
        let mut algos: Vec<String> = dcnn_core::collectives::AllreduceAlgo::all()
            .iter()
            .map(|a| a.to_string())
            .collect();
        algos.push("auto".to_string());
        MatrixSpec {
            algos,
            worlds: vec![2, 4],
            payloads: vec![16 * 1024, 1 << 20],
            bucketings: vec![(0, "fused".to_string())],
            transports: vec!["threads".to_string()],
            iters: 3,
            faults: vec![None],
        }
    }
}

/// Parse one `--bucketing` item: `fused` or `BYTES:MODE` (mode `drain` or
/// `hooked`), e.g. `65536:hooked`.
pub fn parse_bucketing(s: &str) -> Result<(usize, String), String> {
    let s = s.trim();
    if s.eq_ignore_ascii_case("fused") {
        return Ok((0, "fused".to_string()));
    }
    let (bytes, mode) = s
        .split_once(':')
        .ok_or_else(|| format!("bucketing {s:?}: expected \"fused\" or \"BYTES:drain|hooked\""))?;
    let bytes: usize = bytes
        .trim()
        .parse()
        .map_err(|_| format!("bucketing {s:?}: bucket bytes must be an unsigned integer"))?;
    if bytes == 0 {
        return Err(format!("bucketing {s:?}: use \"fused\" for the unbucketed cell"));
    }
    match mode.trim() {
        m @ ("drain" | "hooked") => Ok((bytes, m.to_string())),
        other => Err(format!("bucketing {s:?}: unknown overlap mode {other:?}")),
    }
}

impl MatrixSpec {
    /// Expand the cross product into concrete cells, in a stable order.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out = Vec::new();
        for transport in &self.transports {
            for world in &self.worlds {
                for payload in &self.payloads {
                    for (bucket, overlap) in &self.bucketings {
                        for algo in &self.algos {
                            for fault in &self.faults {
                                out.push(CellSpec {
                                    algo: algo.clone(),
                                    world: *world,
                                    payload_bytes: *payload,
                                    bucket_bytes: *bucket,
                                    overlap: overlap.clone(),
                                    transport: transport.clone(),
                                    iters: self.iters,
                                    fault: fault.clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// One result row: the cell, what the real runtime measured, and what the
/// simulator predicted for the same cell.
#[derive(Debug, Clone, Serialize)]
pub struct CellRow {
    /// Row format version ([`SCHEMA`]).
    pub schema: String,
    /// Stable cell identity ([`CellSpec::id`]).
    pub id: String,
    /// The cell that produced this row.
    pub cell: CellSpec,
    /// Fastest single-iteration wall time, nanoseconds (0 when `error`).
    pub wall_ns: u64,
    /// Payload bytes reduced per iteration.
    pub bytes: u64,
    /// Effective algorithm bandwidth, payload GB/s (`bytes / wall_ns`).
    pub gbytes_per_sec: f64,
    /// The decision table (`auto`) or fixed algorithm that ran.
    pub algo_choices: String,
    /// CRC-32 of the reduced buffer (identical across ranks by assertion).
    pub fingerprint: u32,
    /// Rank 0's per-peer bytes sent over the measurement.
    pub link_bytes_sent: Vec<u64>,
    /// Rank 0's busiest outgoing link, bytes.
    pub link_bytes_max: u64,
    /// Rank 0's busiest-link / mean-link ratio (1.0 = perfectly balanced).
    pub link_imbalance: f64,
    /// Simulated single-iteration time for the same cell, nanoseconds.
    pub sim_ns: f64,
    /// Simulated peak link utilization, `[0, 1]`.
    pub sim_max_link_utilization: f64,
    /// `(wall_ns - sim_ns) / sim_ns`; 0 when either side is missing.
    pub rel_err: f64,
    /// Why the cell produced no measurement (fault cells that died, spawn
    /// failures); measurement fields are zeroed when set.
    pub error: Option<String>,
}

impl CellRow {
    /// Parse a row out of a JSON document (the inverse of the `Serialize`
    /// impl; the vendored serde shim only parses untyped values). The
    /// caller checks `schema` first — this assumes a [`SCHEMA`] document.
    pub fn from_value(v: &Value) -> Result<CellRow, String> {
        let error = match v.get("error") {
            None | Some(Value::Null) => None,
            Some(e) => Some(
                e.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "cell row: error must be a string or null".to_string())?,
            ),
        };
        Ok(CellRow {
            schema: json_str(v, "schema", "cell row")?,
            id: json_str(v, "id", "cell row")?,
            cell: CellSpec::from_value(
                v.get("cell").ok_or_else(|| "cell row: missing cell".to_string())?,
            )?,
            wall_ns: json_u64(v, "wall_ns", "cell row")?,
            bytes: json_u64(v, "bytes", "cell row")?,
            gbytes_per_sec: json_f64(v, "gbytes_per_sec", "cell row")?,
            algo_choices: json_str(v, "algo_choices", "cell row")?,
            fingerprint: json_u64(v, "fingerprint", "cell row")? as u32,
            link_bytes_sent: json_u64_array(v, "link_bytes_sent", "cell row")?,
            link_bytes_max: json_u64(v, "link_bytes_max", "cell row")?,
            link_imbalance: json_f64(v, "link_imbalance", "cell row")?,
            sim_ns: json_f64(v, "sim_ns", "cell row")?,
            sim_max_link_utilization: json_f64(v, "sim_max_link_utilization", "cell row")?,
            rel_err: json_f64(v, "rel_err", "cell row")?,
            error,
        })
    }
}

/// Execute a `threads` cell: every rank is an in-process thread on a
/// default-configured cluster (the ambient `DCNN_*` environment must not
/// leak into matrix cells).
pub fn run_threads_cell(cell: &CellSpec) -> Result<CellMeasurement, String> {
    let c = cell.clone();
    let run = ClusterBuilder::new(cell.world)
        .configure(RuntimeConfig::default())
        .run(move |comm| c.measure_on_comm(comm));
    let measurements: Result<Vec<CellMeasurement>, String> =
        run.results.into_iter().map(|m| m?.map_err(|e| e.to_string())).collect();
    let measurements = measurements?;
    let fp0 = measurements[0].fingerprint;
    if measurements.iter().any(|m| m.fingerprint != fp0) {
        return Err(format!("cell {}: ranks disagree on the reduced bits", cell.id()));
    }
    Ok(measurements[0].clone())
}

/// The environment a `tcp` cell's `dcnn-launch` runs under: `inherited`
/// (the harness's own) minus every `DCNN_*` variable, plus the cell in the
/// [`CELL_ENV`] handshake and, for a faulted cell only, its `DCNN_FAULT`.
/// An ambient `DCNN_FAULT` or `DCNN_BUCKET_BYTES` therefore never reaches a
/// cell, just as `threads` cells run [`RuntimeConfig::default`].
fn tcp_cell_env(
    cell: &CellSpec,
    inherited: impl IntoIterator<Item = (OsString, OsString)>,
) -> Vec<(OsString, OsString)> {
    let mut env: Vec<(OsString, OsString)> = inherited
        .into_iter()
        .filter(|(k, _)| !k.to_string_lossy().starts_with("DCNN_"))
        .collect();
    env.push((CELL_ENV.into(), cell.to_handshake().into()));
    if let Some(f) = &cell.fault {
        env.push(("DCNN_FAULT".into(), f.into()));
    }
    env
}

/// Execute a `tcp` cell as real OS processes: re-launch through
/// `dcnn-launch --workload eval-cell` under [`tcp_cell_env`], and harvest
/// rank 0's JSON measurement line from stdout.
pub fn run_tcp_cell(cell: &CellSpec, launch: &Path) -> Result<CellMeasurement, String> {
    let out = Command::new(launch)
        .arg("--ranks")
        .arg(cell.world.to_string())
        .arg("--workload")
        .arg("eval-cell")
        .env_clear()
        .envs(tcp_cell_env(cell, std::env::vars_os()))
        .output()
        .map_err(|e| format!("cell {}: spawning {}: {e}", cell.id(), launch.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!(
            "cell {}: dcnn-launch exited with {}: {}",
            cell.id(),
            out.status,
            stderr.lines().last().unwrap_or("")
        ));
    }
    stdout
        .lines()
        .rev()
        .find_map(|l| CellMeasurement::from_json(l.trim()).ok())
        .ok_or_else(|| {
            format!("cell {}: no measurement JSON on dcnn-launch stdout", cell.id())
        })
}

/// Build the result row for a cell: attach the simulator's prediction
/// (cost model calibrated from the cell's own measured bandwidth) and the
/// per-link counters to the measurement — or an error row.
pub fn row_from(cell: &CellSpec, measured: Result<CellMeasurement, String>) -> CellRow {
    let (m, error) = match measured {
        Ok(m) => (Some(m), None),
        Err(e) => (None, Some(e)),
    };
    let wall_ns = m.as_ref().map_or(0, |m| m.wall_ns);
    let bytes = m.as_ref().map_or(0, |m| m.bytes);
    let cost = if wall_ns > 0 {
        CostModel::measured(bytes, wall_ns)
    } else {
        CostModel::default()
    };
    let sim = cell.simulate(&cost).ok();
    let sim_ns = sim.as_ref().map_or(0.0, |s| s.sim_ns);
    let rel_err = if wall_ns > 0 && sim_ns > 0.0 {
        (wall_ns as f64 - sim_ns) / sim_ns
    } else {
        0.0
    };
    let links = m.as_ref().map_or_else(Vec::new, |m| m.link_bytes_sent.clone());
    CellRow {
        schema: SCHEMA.to_string(),
        id: cell.id(),
        cell: cell.clone(),
        wall_ns,
        bytes,
        gbytes_per_sec: if wall_ns > 0 { bytes as f64 / wall_ns as f64 } else { 0.0 },
        algo_choices: m.as_ref().map_or_else(String::new, |m| m.algo_choices.clone()),
        fingerprint: m.as_ref().map_or(0, |m| m.fingerprint),
        link_bytes_max: CommStats::link_bytes_max(0, &links),
        link_imbalance: CommStats::link_imbalance(0, &links),
        link_bytes_sent: links,
        sim_ns,
        sim_max_link_utilization: sim.as_ref().map_or(0.0, |s| s.max_link_utilization),
        rel_err,
        error,
    }
}

/// Run every cell of the matrix, writing one `cell-NNN.json` row into
/// `out_dir` as it completes. `launch` locates the `dcnn-launch` binary
/// for `tcp` cells; `progress` receives one line per cell.
pub fn run_matrix(
    spec: &MatrixSpec,
    out_dir: &Path,
    launch: &Path,
    mut progress: impl FnMut(&str),
) -> io::Result<Vec<CellRow>> {
    std::fs::create_dir_all(out_dir)?;
    let cells = spec.cells();
    let mut rows = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let measured = match cell.transport.as_str() {
            "threads" => run_threads_cell(cell),
            "tcp" => run_tcp_cell(cell, launch),
            other => Err(format!("cell {}: unknown transport {other:?}", cell.id())),
        };
        let row = row_from(cell, measured);
        let path = out_dir.join(format!("cell-{i:03}.json"));
        std::fs::write(&path, serde_json::to_string_pretty(&row).expect("row serializes"))?;
        match &row.error {
            None => progress(&format!(
                "[{}/{}] {}  {:.3} ms real / {:.3} ms sim",
                i + 1,
                cells.len(),
                row.id,
                row.wall_ns as f64 / 1e6,
                row.sim_ns / 1e6
            )),
            Some(e) => progress(&format!("[{}/{}] {}  FAILED: {e}", i + 1, cells.len(), row.id)),
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Load every `cell-*.json` row from a results directory (`--report`
/// mode). Rows with a foreign schema are skipped with a note pushed to
/// `warnings` — the eval analog of the perf baseline schema gate.
pub fn load_rows(dir: &Path, warnings: &mut Vec<String>) -> io::Result<Vec<CellRow>> {
    let mut rows = Vec::new();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("cell-") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    for p in paths {
        let text = std::fs::read_to_string(&p)?;
        let doc: Value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                warnings.push(format!("{}: not JSON: {e:?}", p.display()));
                continue;
            }
        };
        match doc.get("schema").and_then(Value::as_str) {
            Some(s) if s == SCHEMA => {}
            other => {
                warnings.push(format!(
                    "{}: schema {} (expected {SCHEMA:?}); skipped",
                    p.display(),
                    other.map_or_else(|| "<none>".to_string(), |s| format!("{s:?}"))
                ));
                continue;
            }
        }
        match CellRow::from_value(&doc) {
            Ok(row) => rows.push(row),
            Err(e) => warnings.push(format!("{}: not a cell row: {e}", p.display())),
        }
    }
    Ok(rows)
}

/// Group key for the winner table: everything about a cell except the
/// algorithm axis.
fn group_key(c: &CellSpec) -> String {
    let bucketing = if c.bucket_bytes == 0 {
        "fused".to_string()
    } else {
        format!("b{}-{}", c.bucket_bytes, c.overlap)
    };
    let fault = c.fault.as_ref().map(|f| format!(" fault={f}")).unwrap_or_default();
    format!(
        "transport={} world={} payload={} {bucketing}{fault}",
        c.transport, c.world, c.payload_bytes
    )
}

/// The per-size winner table: for each (transport, world, payload,
/// bucketing) group, the fastest algorithm — the repo's Figure 5/6
/// crossover story on the real fabric. One greppable `winner ...` line
/// per group.
pub fn winner_report(rows: &[CellRow]) -> String {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<String, Vec<&CellRow>> = BTreeMap::new();
    for r in rows.iter().filter(|r| r.error.is_none() && r.wall_ns > 0) {
        groups.entry(group_key(&r.cell)).or_default().push(r);
    }
    let mut s = String::from("## Winner per size class\n\n");
    if groups.is_empty() {
        s.push_str("no successful cells\n");
        return s;
    }
    for (key, mut group) in groups {
        group.sort_by_key(|r| r.wall_ns);
        let win = group[0];
        let runner = group.get(1).map(|r| {
            format!(
                "; runner-up {} +{:.0}%",
                r.cell.algo,
                (r.wall_ns as f64 / win.wall_ns as f64 - 1.0) * 100.0
            )
        });
        s.push_str(&format!(
            "winner {key}: {} ({:.3} ms, {:.2} GB/s{})\n",
            win.cell.algo,
            win.wall_ns as f64 / 1e6,
            win.gbytes_per_sec,
            runner.unwrap_or_default()
        ));
    }
    s
}

/// The real-vs-simulated discrepancy table, sorted by |relative error|
/// descending — the harness's honesty check on `dcnn-simnet`.
pub fn discrepancy_report(rows: &[CellRow]) -> String {
    let mut s = String::from(
        "## Real vs simulated (sorted by |relative error|)\n\n\
         | cell | real ms | sim ms | rel err |\n|---|---|---|---|\n",
    );
    for r in discrepancy_sorted(rows) {
        s.push_str(&format!(
            "| {} | {:.3} | {:.3} | {:+.1}% |\n",
            r.id,
            r.wall_ns as f64 / 1e6,
            r.sim_ns / 1e6,
            r.rel_err * 100.0
        ));
    }
    s
}

/// Successful rows sorted by |relative error| descending (the order the
/// `discrepancy.json` artifact is written in).
pub fn discrepancy_sorted(rows: &[CellRow]) -> Vec<&CellRow> {
    let mut ok: Vec<&CellRow> =
        rows.iter().filter(|r| r.error.is_none() && r.sim_ns > 0.0).collect();
    ok.sort_by(|a, b| b.rel_err.abs().total_cmp(&a.rel_err.abs()));
    ok
}

/// The full `report.md` body: header, winner table, discrepancy table,
/// failed cells.
pub fn report(rows: &[CellRow]) -> String {
    let failed: Vec<&CellRow> = rows.iter().filter(|r| r.error.is_some()).collect();
    let mut s = format!(
        "# dcnn-eval report\n\nschema {SCHEMA}; {} cells, {} failed.\n\n",
        rows.len(),
        failed.len()
    );
    s.push_str(&winner_report(rows));
    s.push('\n');
    s.push_str(&discrepancy_report(rows));
    if !failed.is_empty() {
        s.push_str("\n## Failed cells\n\n");
        for r in failed {
            s.push_str(&format!("- {}: {}\n", r.id, r.error.as_deref().unwrap_or("?")));
        }
    }
    s
}

/// Minimal discrepancy artifact entry (`discrepancy.json`).
#[derive(Debug, Serialize)]
pub struct DiscrepancyEntry {
    /// Cell identity.
    pub id: String,
    /// Real nanoseconds.
    pub wall_ns: u64,
    /// Simulated nanoseconds.
    pub sim_ns: f64,
    /// `(wall - sim) / sim`.
    pub rel_err: f64,
}

/// Serialize the sorted discrepancy artifact.
pub fn discrepancy_json(rows: &[CellRow]) -> String {
    let entries: Vec<DiscrepancyEntry> = discrepancy_sorted(rows)
        .into_iter()
        .map(|r| DiscrepancyEntry {
            id: r.id.clone(),
            wall_ns: r.wall_ns,
            sim_ns: r.sim_ns,
            rel_err: r.rel_err,
        })
        .collect();
    serde_json::to_string_pretty(&entries).expect("entries serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matrix_is_at_least_24_cells() {
        let cells = MatrixSpec::default().cells();
        assert!(cells.len() >= 24, "default sweep too small: {}", cells.len());
        // Identities are unique — the id is the join key across artifacts.
        let ids: std::collections::BTreeSet<String> = cells.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), cells.len());
    }

    #[test]
    fn bucketing_syntax_parses_and_rejects() {
        assert_eq!(parse_bucketing("fused").unwrap(), (0, "fused".to_string()));
        assert_eq!(parse_bucketing("65536:drain").unwrap(), (65536, "drain".to_string()));
        assert_eq!(parse_bucketing(" 4096:hooked ").unwrap(), (4096, "hooked".to_string()));
        for bad in ["0:drain", "65536:eager", "65536", "lots:drain"] {
            assert!(parse_bucketing(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn rows_are_schema_versioned_and_round_trip() {
        let cell = CellSpec {
            algo: "ring".into(),
            world: 2,
            payload_bytes: 4096,
            bucket_bytes: 0,
            overlap: "fused".into(),
            transport: "threads".into(),
            iters: 1,
            fault: None,
        };
        let row = row_from(&cell, run_threads_cell(&cell));
        assert_eq!(row.schema, SCHEMA);
        assert!(row.error.is_none(), "{:?}", row.error);
        assert!(row.wall_ns > 0 && row.sim_ns > 0.0);
        let text = serde_json::to_string(&row).expect("serializes");
        let doc: Value = serde_json::from_str(&text).expect("parses");
        let back = CellRow::from_value(&doc).expect("typed");
        assert_eq!(back.id, row.id);
        assert_eq!(back.fingerprint, row.fingerprint);
        assert_eq!(back.cell, row.cell);
        assert_eq!(back.wall_ns, row.wall_ns);
        assert!(back.error.is_none());
    }

    #[test]
    fn tcp_cell_env_replaces_every_inherited_dcnn_variable() {
        let os = |k: &str, v: &str| (OsString::from(k), OsString::from(v));
        let inherited = vec![
            os("PATH", "/usr/bin"),
            os("DCNN_FAULT", "drop-link=0:1"),
            os("DCNN_BUCKET_BYTES", "4096"),
            os("DCNN_LAUNCH_CELL", "{}"),
            os("HOME", "/home/user"),
        ];
        let mut cell = CellSpec {
            algo: "ring".into(),
            world: 2,
            payload_bytes: 4096,
            bucket_bytes: 0,
            overlap: "fused".into(),
            transport: "tcp".into(),
            iters: 1,
            fault: None,
        };
        let handshake = os(CELL_ENV, &cell.to_handshake());
        assert_eq!(
            tcp_cell_env(&cell, inherited.clone()),
            vec![os("PATH", "/usr/bin"), os("HOME", "/home/user"), handshake]
        );

        cell.fault = Some("drop-link=1:0".into());
        let handshake = os(CELL_ENV, &cell.to_handshake());
        assert_eq!(
            tcp_cell_env(&cell, inherited),
            vec![
                os("PATH", "/usr/bin"),
                os("HOME", "/home/user"),
                handshake,
                os("DCNN_FAULT", "drop-link=1:0"),
            ]
        );
    }

    #[test]
    fn winner_report_names_a_winner_per_group() {
        let mk = |algo: &str, payload: usize, wall: u64| {
            let cell = CellSpec {
                algo: algo.into(),
                world: 2,
                payload_bytes: payload,
                bucket_bytes: 0,
                overlap: "fused".into(),
                transport: "threads".into(),
                iters: 1,
                fault: None,
            };
            let mut row = row_from(&cell, Err("synthetic".into()));
            row.error = None;
            row.wall_ns = wall;
            row
        };
        let rows =
            vec![mk("ring", 4096, 200), mk("halving-doubling", 4096, 100), mk("ring", 1 << 20, 50)];
        let report = winner_report(&rows);
        assert!(
            report.contains("winner transport=threads world=2 payload=4096 fused: halving-doubling"),
            "{report}"
        );
        assert!(
            report.contains("winner transport=threads world=2 payload=1048576 fused: ring"),
            "{report}"
        );
        assert!(report.matches("winner ").count() == 2, "{report}");
    }

    /// The harness's own honesty check: a real threads-mode ring cell at a
    /// small size must land within a (very generous) band of the
    /// simulator's prediction once the cost model is calibrated from the
    /// measured bandwidth. Guards against unit slips (ns vs s, bytes vs
    /// elements) on either side of the discrepancy report.
    #[test]
    fn threads_ring_cell_tracks_the_simulator() {
        let cell = CellSpec {
            algo: "ring".into(),
            world: 2,
            payload_bytes: 64 * 1024,
            bucket_bytes: 0,
            overlap: "fused".into(),
            transport: "threads".into(),
            iters: 3,
            fault: None,
        };
        let row = row_from(&cell, run_threads_cell(&cell));
        assert!(row.error.is_none(), "{:?}", row.error);
        assert!(row.wall_ns > 0 && row.sim_ns > 0.0);
        let ratio = row.wall_ns as f64 / row.sim_ns;
        assert!(
            (1e-2..=1e2).contains(&ratio),
            "real {} ns vs sim {} ns is outside the 100x honesty band",
            row.wall_ns,
            row.sim_ns
        );
    }
}
