//! The record one rank emits after measuring a `dcnn-eval` matrix cell,
//! and the typed JSON field readers the eval rows share.
//!
//! The cell itself — spec, the run through the trainer's gradient exchange
//! and the simulated estimate — is `dcnn_trainer::cell`; the record it
//! prints stays here, beside the [`crate::CommStats`] counters it carries.

use serde::Serialize;
use serde_json::Value;

/// What one rank measured executing an evaluation cell (the trainer's
/// `cell::CellSpec`) on a live fabric.
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
