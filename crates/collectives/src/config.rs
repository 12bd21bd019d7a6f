//! Unified typed runtime configuration: every `DCNN_*` environment variable
//! parsed in one place.
//!
//! Runtime knobs used to be read ad hoc wherever they were consumed —
//! transport selection in `transport`, tracing in `trace`, worker counts and
//! timeouts in `runtime`, bucket sizes in the trainer — each with its own
//! silent fallback on a malformed value. [`RuntimeConfig`] replaces that:
//! [`RuntimeConfig::from_env`] parses the whole `DCNN_*` namespace once and
//! returns a [`ConfigError`] that names the offending variable, its value and
//! what was expected, instead of quietly training with a default. Builders
//! ([`crate::runtime::ClusterBuilder::configure`]) and the trainer derive
//! from the parsed struct; the `with_*` methods are the programmatic
//! override layer (explicit code wins over environment).
//!
//! Every field is an `Option`: `None` means "the variable was unset or
//! empty", so call sites can distinguish "operator said 0" from "operator
//! said nothing" and apply their own default (`*_or_default` accessors give
//! the runtime's). The README's environment table documents exactly
//! [`RuntimeConfig::ENV_VARS`]; a doc-consistency test keeps the two in sync.

use std::fmt;
use std::time::Duration;

use crate::transport::TransportKind;

/// How the trainer schedules gradient-bucket allreduces relative to
/// backprop (`DCNN_OVERLAP_MODE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlapMode {
    /// PR 3 behavior: finish the whole backward pass, then launch every
    /// bucket nonblocking and drain — buckets overlap each other only.
    Drain,
    /// Launch each bucket the moment backprop finishes its last segment
    /// (per-layer backward hooks), so reductions overlap the *remaining*
    /// backward compute. The default.
    #[default]
    Hooked,
}

/// An injected fault for exercising the failure paths on real processes
/// (`DCNN_FAULT`). Production runs leave it unset; the kill-one-rank tests
/// and the ci.sh fault smoke drive the peer-death machinery through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// `kill-after-step=N@R` (or `kill-after-step=N`, which defaults to
    /// rank 1): rank `R` calls `std::process::abort()` right after finishing
    /// optimizer step `N` — the kernel closes its sockets, so every peer
    /// observes the same bare EOF a SIGKILLed process leaves.
    KillAfterStep {
        /// Zero-based optimizer step after which the rank dies.
        step: usize,
        /// The rank that dies. Defaults to 1 so rank 0 survives to report.
        rank: usize,
    },
    /// `drop-link=FROM:TO`: rank `FROM` shuts down its established socket
    /// to rank `TO` immediately after the fabric comes up, so both ends see
    /// an abnormal link tear without any process dying.
    DropLink {
        /// Rank that severs the connection.
        from: usize,
        /// Rank on the other end of the severed link.
        to: usize,
    },
}

const FAULT_SYNTAX: &str = "\"kill-after-step=N\", \"kill-after-step=N@RANK\" or \"drop-link=FROM:TO\"";

impl FaultSpec {
    /// Parse the `DCNN_FAULT` syntax. Returns `None` on malformed input so
    /// the caller can wrap it in a [`ConfigError`] naming the variable.
    fn parse(v: &str) -> Option<FaultSpec> {
        let v = v.trim();
        if let Some(rest) = v.strip_prefix("kill-after-step=") {
            let (step, rank) = match rest.split_once('@') {
                Some((s, r)) => (s.trim().parse().ok()?, r.trim().parse().ok()?),
                None => (rest.trim().parse().ok()?, 1),
            };
            Some(FaultSpec::KillAfterStep { step, rank })
        } else if let Some(rest) = v.strip_prefix("drop-link=") {
            let (from, to) = rest.split_once(':')?;
            let (from, to) = (from.trim().parse().ok()?, to.trim().parse().ok()?);
            if from == to {
                return None;
            }
            Some(FaultSpec::DropLink { from, to })
        } else {
            None
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpec::KillAfterStep { step, rank } => {
                write!(f, "kill-after-step={step}@{rank}")
            }
            FaultSpec::DropLink { from, to } => write!(f, "drop-link={from}:{to}"),
        }
    }
}

/// A malformed `DCNN_*` environment variable: which one, what it held, and
/// what the parser expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The environment variable that failed to parse.
    pub var: &'static str,
    /// The value it held.
    pub value: String,
    /// Human-readable description of the accepted syntax.
    pub expected: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}={:?}: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for ConfigError {}

/// Typed snapshot of the whole `DCNN_*` configuration namespace.
///
/// `None` fields were unset (or empty) in the source; consumers apply their
/// defaults through the `*_or_default` accessors. Construct with
/// [`RuntimeConfig::from_env`] (strict parsing) or [`RuntimeConfig::default`]
/// plus `with_*` overrides (programmatic, environment-free).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Message fabric (`DCNN_TRANSPORT`: `threads` or `tcp`).
    pub transport: Option<TransportKind>,
    /// Rendezvous address for the TCP fabric (`DCNN_RENDEZVOUS`,
    /// `host:port`; rank 0 binds it, everyone else dials it).
    pub rendezvous: Option<String>,
    /// This process's rank in a multi-process run (`DCNN_RANK`).
    pub rank: Option<usize>,
    /// World size of a multi-process run (`DCNN_WORLD`).
    pub world: Option<usize>,
    /// Event tracing on/off (`DCNN_TRACE`: `1`/`true`/`on` or
    /// `0`/`false`/`off`).
    pub trace: Option<bool>,
    /// JSON-lines trace export path (`DCNN_TRACE_JSON`; implies tracing).
    pub trace_json: Option<String>,
    /// Deadlock-watchdog receive timeout (`DCNN_RECV_TIMEOUT_MS`).
    pub recv_timeout: Option<Duration>,
    /// Comm-worker threads per rank for async reduces
    /// (`DCNN_COMM_WORKERS`, ≥ 1).
    pub comm_workers: Option<usize>,
    /// Gradient bucket size target in bytes (`DCNN_BUCKET_BYTES`;
    /// `0` = one fused blocking allreduce).
    pub bucket_bytes: Option<usize>,
    /// Bucket scheduling relative to backprop (`DCNN_OVERLAP_MODE`:
    /// `hooked` or `drain`).
    pub overlap_mode: Option<OverlapMode>,
    /// TCP dial/rendezvous bound (`DCNN_CONNECT_TIMEOUT_MS`): how long
    /// bootstrap connects retry and rank 0's registration accept loop
    /// waits before naming the ranks that never showed up.
    pub connect_timeout: Option<Duration>,
    /// Injected fault for failure-path testing (`DCNN_FAULT`).
    pub fault: Option<FaultSpec>,
    /// Directory the trainer flushes an abort checkpoint into when a peer
    /// dies mid-epoch (`DCNN_CHECKPOINT_DIR`; unset = no abort checkpoint).
    pub checkpoint_dir: Option<String>,
    /// Data-pipeline prefetch depth (`DCNN_DATA_PREFETCH_DEPTH`): how many
    /// decoded batches the donkey pipeline / service client may run ahead
    /// of training; `0` = decode inline on the training thread.
    pub data_prefetch_depth: Option<usize>,
    /// Parallel decode workers in the data pipeline
    /// (`DCNN_DATA_DECODE_WORKERS`, ≥ 1).
    pub data_decode_workers: Option<usize>,
    /// Blob-server address list for the remote data plane
    /// (`DCNN_DATA_SERVICE`, comma-separated `host:port`; unset = sample
    /// from the in-process `Dimd` partition).
    pub data_service: Option<String>,
    /// Shard optimizer state across ranks (`DCNN_SHARD_OPTIM`:
    /// `1`/`true`/`on` or `0`/`false`/`off`): reduce-scatter gradient
    /// buckets, step only the locally owned parameter shard, allgather
    /// updated parameters — ZeRO-style, bitwise-identical in loss to the
    /// replicated path.
    pub shard_optim: Option<bool>,
    /// Allreduce selection policy (`DCNN_ALGO`): a fixed algorithm name
    /// (`ring`, `multicolor:2`, ...), `auto` (self-tuning over every
    /// algorithm), or `auto:<c1>,<c2>,...` (self-tuning over the listed
    /// candidates).
    pub algo: Option<crate::tune::AlgoPolicy>,
    /// Payload size in bytes for one `dcnn-eval` matrix cell
    /// (`DCNN_EVAL_PAYLOAD`, ≥ 4 — at least one f32). The eval harness sets
    /// this when it re-launches a cell as real TCP processes.
    pub eval_payload: Option<usize>,
    /// Timed iterations per `dcnn-eval` matrix cell (`DCNN_EVAL_ITERS`,
    /// ≥ 1; the cell reports the fastest).
    pub eval_iters: Option<usize>,
}

fn parse_usize(
    var: &'static str,
    v: &str,
    expected: &'static str,
) -> Result<usize, ConfigError> {
    v.trim().parse().map_err(|_| ConfigError { var, value: v.to_string(), expected })
}

/// An unsigned integer no smaller than `min`.
fn parse_at_least(
    var: &'static str,
    v: &str,
    min: usize,
    expected: &'static str,
) -> Result<usize, ConfigError> {
    match parse_usize(var, v, expected)? {
        n if n >= min => Ok(n),
        _ => Err(ConfigError { var, value: v.to_string(), expected }),
    }
}

/// An on/off switch.
fn parse_switch(var: &'static str, v: String) -> Result<bool, ConfigError> {
    match v.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" => Ok(true),
        "0" | "false" | "off" => Ok(false),
        _ => Err(ConfigError { var, value: v, expected: "1/true/on or 0/false/off" }),
    }
}

impl RuntimeConfig {
    /// Every environment variable this struct parses — the full public
    /// `DCNN_*` surface. (The `dcnn-launch` binary additionally uses the
    /// internal `DCNN_LAUNCH_CHILD` / `DCNN_LAUNCH_WORKLOAD` handshake
    /// variables, which are not configuration.) The README env table is
    /// tested against this list.
    pub const ENV_VARS: [&'static str; 20] = [
        "DCNN_TRANSPORT",
        "DCNN_RENDEZVOUS",
        "DCNN_RANK",
        "DCNN_WORLD",
        "DCNN_TRACE",
        "DCNN_TRACE_JSON",
        "DCNN_RECV_TIMEOUT_MS",
        "DCNN_COMM_WORKERS",
        "DCNN_BUCKET_BYTES",
        "DCNN_OVERLAP_MODE",
        "DCNN_CONNECT_TIMEOUT_MS",
        "DCNN_FAULT",
        "DCNN_CHECKPOINT_DIR",
        "DCNN_DATA_PREFETCH_DEPTH",
        "DCNN_DATA_DECODE_WORKERS",
        "DCNN_DATA_SERVICE",
        "DCNN_SHARD_OPTIM",
        "DCNN_ALGO",
        "DCNN_EVAL_PAYLOAD",
        "DCNN_EVAL_ITERS",
    ];

    /// Parse the process environment. Unset (or empty) variables become
    /// `None`; a present-but-malformed value is an error naming the
    /// variable, never a silent default.
    pub fn from_env() -> Result<Self, ConfigError> {
        Self::from_lookup(|var| std::env::var(var).ok())
    }

    /// Parse from an arbitrary variable source (`from_env` with the real
    /// environment; tests pass closures so they never mutate process-global
    /// state). Empty values count as unset.
    pub fn from_lookup(
        lookup: impl Fn(&'static str) -> Option<String>,
    ) -> Result<Self, ConfigError> {
        let get = |var: &'static str| lookup(var).filter(|v| !v.trim().is_empty());
        let mut cfg = RuntimeConfig::default();

        if let Some(v) = get("DCNN_TRANSPORT") {
            cfg.transport = Some(match v.trim().to_ascii_lowercase().as_str() {
                "threads" => TransportKind::Threads,
                "tcp" => TransportKind::Tcp,
                _ => {
                    return Err(ConfigError {
                        var: "DCNN_TRANSPORT",
                        value: v,
                        expected: "\"threads\" or \"tcp\"",
                    })
                }
            });
        }
        cfg.rendezvous = get("DCNN_RENDEZVOUS");
        if let Some(v) = get("DCNN_RANK") {
            cfg.rank = Some(parse_usize("DCNN_RANK", &v, "a rank index (unsigned integer)")?);
        }
        if let Some(v) = get("DCNN_WORLD") {
            cfg.world = Some(parse_at_least("DCNN_WORLD", &v, 1, "a rank count (integer ≥ 1)")?);
        }
        if let Some(v) = get("DCNN_TRACE") {
            cfg.trace = Some(parse_switch("DCNN_TRACE", v)?);
        }
        cfg.trace_json = get("DCNN_TRACE_JSON");
        if let Some(v) = get("DCNN_RECV_TIMEOUT_MS") {
            let ms = v.trim().parse::<u64>().map_err(|_| ConfigError {
                var: "DCNN_RECV_TIMEOUT_MS",
                value: v,
                expected: "a timeout in milliseconds (unsigned integer)",
            })?;
            cfg.recv_timeout = Some(Duration::from_millis(ms));
        }
        if let Some(v) = get("DCNN_COMM_WORKERS") {
            cfg.comm_workers =
                Some(parse_at_least("DCNN_COMM_WORKERS", &v, 1, "a thread count (integer ≥ 1)")?);
        }
        if let Some(v) = get("DCNN_BUCKET_BYTES") {
            cfg.bucket_bytes =
                Some(parse_usize("DCNN_BUCKET_BYTES", &v, "a size in bytes (0 = fused blocking)")?);
        }
        if let Some(v) = get("DCNN_OVERLAP_MODE") {
            cfg.overlap_mode = Some(match v.trim().to_ascii_lowercase().as_str() {
                "hooked" => OverlapMode::Hooked,
                "drain" => OverlapMode::Drain,
                _ => {
                    return Err(ConfigError {
                        var: "DCNN_OVERLAP_MODE",
                        value: v,
                        expected: "\"hooked\" or \"drain\"",
                    })
                }
            });
        }
        if let Some(v) = get("DCNN_CONNECT_TIMEOUT_MS") {
            let ms = parse_at_least(
                "DCNN_CONNECT_TIMEOUT_MS",
                &v,
                1,
                "a timeout in milliseconds (integer ≥ 1)",
            )?;
            cfg.connect_timeout = Some(Duration::from_millis(ms as u64));
        }
        if let Some(v) = get("DCNN_FAULT") {
            cfg.fault = Some(FaultSpec::parse(&v).ok_or(ConfigError {
                var: "DCNN_FAULT",
                value: v,
                expected: FAULT_SYNTAX,
            })?);
        }
        cfg.checkpoint_dir = get("DCNN_CHECKPOINT_DIR");
        if let Some(v) = get("DCNN_DATA_PREFETCH_DEPTH") {
            cfg.data_prefetch_depth = Some(parse_usize(
                "DCNN_DATA_PREFETCH_DEPTH",
                &v,
                "a prefetch depth in batches (0 = decode inline)",
            )?);
        }
        if let Some(v) = get("DCNN_DATA_DECODE_WORKERS") {
            cfg.data_decode_workers = Some(parse_at_least(
                "DCNN_DATA_DECODE_WORKERS",
                &v,
                1,
                "a worker count (integer ≥ 1)",
            )?);
        }
        cfg.data_service = get("DCNN_DATA_SERVICE");
        if let Some(v) = get("DCNN_SHARD_OPTIM") {
            cfg.shard_optim = Some(parse_switch("DCNN_SHARD_OPTIM", v)?);
        }
        if let Some(v) = get("DCNN_ALGO") {
            cfg.algo = Some(v.trim().parse().map_err(|_| ConfigError {
                var: "DCNN_ALGO",
                value: v,
                expected: "an allreduce algorithm name (multicolor[:colors], ring, \
                           openmpi-default, ring-reduce-scatter, halving-doubling, \
                           hierarchical[:group]), \"auto\", or \"auto:<c1>,<c2>,...\"",
            })?);
        }
        if let Some(v) = get("DCNN_EVAL_PAYLOAD") {
            cfg.eval_payload = Some(parse_at_least(
                "DCNN_EVAL_PAYLOAD",
                &v,
                4,
                "a payload size in bytes (integer ≥ 4)",
            )?);
        }
        if let Some(v) = get("DCNN_EVAL_ITERS") {
            cfg.eval_iters =
                Some(parse_at_least("DCNN_EVAL_ITERS", &v, 1, "an iteration count (integer ≥ 1)")?);
        }
        Ok(cfg)
    }

    // ---- resolved accessors (the runtime's defaults) ----

    /// The transport backend to use (default: in-process threads).
    pub fn transport_or_default(&self) -> TransportKind {
        self.transport.unwrap_or(TransportKind::Threads)
    }

    /// Whether event tracing is on (explicitly, or implied by a JSON export
    /// path).
    pub fn trace_or_default(&self) -> bool {
        self.trace.unwrap_or(false) || self.trace_json.is_some()
    }

    /// The deadlock-watchdog receive timeout (default 60 s).
    pub fn recv_timeout_or_default(&self) -> Duration {
        self.recv_timeout.unwrap_or(Duration::from_secs(60))
    }

    /// Comm-worker threads per rank (default 2, minimum 1).
    pub fn comm_workers_or_default(&self) -> usize {
        self.comm_workers.unwrap_or(2).max(1)
    }

    /// Gradient bucket size target in bytes (default 0 = fused blocking).
    pub fn bucket_bytes_or_default(&self) -> usize {
        self.bucket_bytes.unwrap_or(0)
    }

    /// Bucket scheduling mode (default [`OverlapMode::Hooked`]).
    pub fn overlap_mode_or_default(&self) -> OverlapMode {
        self.overlap_mode.unwrap_or_default()
    }

    /// TCP connect/rendezvous timeout (default 20 s).
    pub fn connect_timeout_or_default(&self) -> Duration {
        self.connect_timeout.unwrap_or(Duration::from_secs(20))
    }

    /// Data-pipeline prefetch depth in batches (default 0 = inline decode).
    pub fn data_prefetch_depth_or_default(&self) -> usize {
        self.data_prefetch_depth.unwrap_or(0)
    }

    /// Parallel decode workers in the data pipeline (default 1, minimum 1).
    pub fn data_decode_workers_or_default(&self) -> usize {
        self.data_decode_workers.unwrap_or(1).max(1)
    }

    /// The allreduce selection policy (default: the paper's multicolor
    /// algorithm with 4 colors, fixed).
    pub fn algo_or_default(&self) -> crate::tune::AlgoPolicy {
        self.algo
            .clone()
            .unwrap_or(crate::tune::AlgoPolicy::Fixed(crate::algorithms::AllreduceAlgo::MultiColor(4)))
    }

    /// Eval-cell payload size in bytes (default 1 MiB, minimum 4).
    pub fn eval_payload_or_default(&self) -> usize {
        self.eval_payload.unwrap_or(1 << 20).max(4)
    }

    /// Timed iterations per eval cell (default 3, minimum 1).
    pub fn eval_iters_or_default(&self) -> usize {
        self.eval_iters.unwrap_or(3).max(1)
    }

    // ---- builder-style programmatic overrides ----

    /// Override the rendezvous address.
    pub fn with_rendezvous(mut self, addr: impl Into<String>) -> Self {
        self.rendezvous = Some(addr.into());
        self
    }

    /// Override rank and world size for a multi-process run.
    pub fn with_rank_world(mut self, rank: usize, world: usize) -> Self {
        self.rank = Some(rank);
        self.world = Some(world);
        self
    }

    /// Override the gradient bucket size target.
    pub fn with_bucket_bytes(mut self, bytes: usize) -> Self {
        self.bucket_bytes = Some(bytes);
        self
    }

    /// Override the bucket scheduling mode.
    pub fn with_overlap_mode(mut self, mode: OverlapMode) -> Self {
        self.overlap_mode = Some(mode);
        self
    }

    /// Inject a fault (see [`FaultSpec`]).
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Override the allreduce selection policy.
    pub fn with_algo(mut self, policy: crate::tune::AlgoPolicy) -> Self {
        self.algo = Some(policy);
        self
    }

    /// Override the eval-cell payload size (bytes).
    pub fn with_eval_payload(mut self, bytes: usize) -> Self {
        self.eval_payload = Some(bytes);
        self
    }

    /// Override the eval-cell iteration count.
    pub fn with_eval_iters(mut self, n: usize) -> Self {
        self.eval_iters = Some(n);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn from_map(pairs: &[(&'static str, &str)]) -> Result<RuntimeConfig, ConfigError> {
        let map: HashMap<&str, String> =
            pairs.iter().map(|&(k, v)| (k, v.to_string())).collect();
        RuntimeConfig::from_lookup(|var| map.get(var).cloned())
    }

    #[test]
    fn empty_environment_is_all_defaults() {
        let cfg = from_map(&[]).expect("empty env parses");
        assert_eq!(cfg, RuntimeConfig::default());
        assert_eq!(cfg.transport_or_default(), TransportKind::Threads);
        assert!(!cfg.trace_or_default());
        assert_eq!(cfg.recv_timeout_or_default(), Duration::from_secs(60));
        assert_eq!(cfg.comm_workers_or_default(), 2);
        assert_eq!(cfg.bucket_bytes_or_default(), 0);
        assert_eq!(cfg.overlap_mode_or_default(), OverlapMode::Hooked);
        assert_eq!(cfg.data_prefetch_depth_or_default(), 0);
        assert_eq!(cfg.data_decode_workers_or_default(), 1);
        assert_eq!(cfg.data_service, None);
        assert_eq!(
            cfg.algo_or_default(),
            crate::tune::AlgoPolicy::Fixed(crate::AllreduceAlgo::MultiColor(4))
        );
        assert_eq!(cfg.eval_payload_or_default(), 1 << 20);
        assert_eq!(cfg.eval_iters_or_default(), 3);
    }

    #[test]
    fn empty_values_count_as_unset() {
        let cfg = from_map(&[("DCNN_TRACE", ""), ("DCNN_BUCKET_BYTES", "  ")])
            .expect("empty values are unset");
        assert_eq!(cfg.trace, None);
        assert_eq!(cfg.bucket_bytes, None);
    }

    #[test]
    fn full_environment_parses() {
        let cfg = from_map(&[
            ("DCNN_TRANSPORT", "TCP"),
            ("DCNN_RENDEZVOUS", "127.0.0.1:4400"),
            ("DCNN_RANK", "1"),
            ("DCNN_WORLD", "4"),
            ("DCNN_TRACE", "on"),
            ("DCNN_TRACE_JSON", "/tmp/trace.jsonl"),
            ("DCNN_RECV_TIMEOUT_MS", "2500"),
            ("DCNN_COMM_WORKERS", "3"),
            ("DCNN_BUCKET_BYTES", "4096"),
            ("DCNN_OVERLAP_MODE", "drain"),
            ("DCNN_CONNECT_TIMEOUT_MS", "750"),
            ("DCNN_FAULT", "kill-after-step=3@2"),
            ("DCNN_CHECKPOINT_DIR", "/tmp/ckpt"),
            ("DCNN_DATA_PREFETCH_DEPTH", "6"),
            ("DCNN_DATA_DECODE_WORKERS", "2"),
            ("DCNN_DATA_SERVICE", "127.0.0.1:7500,127.0.0.1:7501"),
            ("DCNN_SHARD_OPTIM", "1"),
            ("DCNN_ALGO", "auto:multicolor:2,ring"),
            ("DCNN_EVAL_PAYLOAD", "262144"),
            ("DCNN_EVAL_ITERS", "5"),
        ])
        .expect("full env parses");
        assert_eq!(cfg.transport, Some(TransportKind::Tcp));
        assert_eq!(cfg.rendezvous.as_deref(), Some("127.0.0.1:4400"));
        assert_eq!(cfg.rank, Some(1));
        assert_eq!(cfg.world, Some(4));
        assert_eq!(cfg.trace, Some(true));
        assert_eq!(cfg.trace_json.as_deref(), Some("/tmp/trace.jsonl"));
        assert_eq!(cfg.recv_timeout, Some(Duration::from_millis(2500)));
        assert_eq!(cfg.comm_workers, Some(3));
        assert_eq!(cfg.bucket_bytes, Some(4096));
        assert_eq!(cfg.overlap_mode, Some(OverlapMode::Drain));
        assert_eq!(cfg.connect_timeout, Some(Duration::from_millis(750)));
        assert_eq!(cfg.fault, Some(FaultSpec::KillAfterStep { step: 3, rank: 2 }));
        assert_eq!(cfg.checkpoint_dir.as_deref(), Some("/tmp/ckpt"));
        assert_eq!(cfg.data_prefetch_depth, Some(6));
        assert_eq!(cfg.data_decode_workers, Some(2));
        assert_eq!(cfg.data_service.as_deref(), Some("127.0.0.1:7500,127.0.0.1:7501"));
        assert_eq!(cfg.shard_optim, Some(true));
        assert_eq!(
            cfg.algo,
            Some(crate::tune::AlgoPolicy::Auto(crate::tune::TunerConfig::with_candidates(
                vec![crate::AllreduceAlgo::MultiColor(2), crate::AllreduceAlgo::PipelinedRing]
            )))
        );
        assert_eq!(cfg.eval_payload, Some(262144));
        assert_eq!(cfg.eval_iters, Some(5));
    }

    #[test]
    fn algo_policy_syntax() {
        use crate::tune::AlgoPolicy;
        use crate::AllreduceAlgo;
        let fixed = from_map(&[("DCNN_ALGO", "hierarchical:8")]).expect("parses");
        assert_eq!(fixed.algo, Some(AlgoPolicy::Fixed(AllreduceAlgo::Hierarchical(8))));
        let auto = from_map(&[("DCNN_ALGO", "auto")]).expect("parses");
        assert_eq!(auto.algo, Some(AlgoPolicy::Auto(Default::default())));
        for bad in ["warp-speed", "ring:4", "auto:", "auto:ring,", "multicolor:0"] {
            let err = from_map(&[("DCNN_ALGO", bad)])
                .expect_err(&format!("{bad:?} must be rejected"));
            assert_eq!(err.var, "DCNN_ALGO");
        }
    }

    #[test]
    fn fault_spec_syntax() {
        for (text, want) in [
            ("kill-after-step=5", FaultSpec::KillAfterStep { step: 5, rank: 1 }),
            ("kill-after-step=0@3", FaultSpec::KillAfterStep { step: 0, rank: 3 }),
            ("drop-link=0:2", FaultSpec::DropLink { from: 0, to: 2 }),
            (" drop-link=1 : 0 ", FaultSpec::DropLink { from: 1, to: 0 }),
        ] {
            let cfg = from_map(&[("DCNN_FAULT", text)])
                .unwrap_or_else(|e| panic!("{text:?} must parse: {e}"));
            assert_eq!(cfg.fault, Some(want), "{text:?}");
            // Display round-trips through the parser.
            assert_eq!(FaultSpec::parse(&want.to_string()), Some(want));
        }
        for bad in [
            "kill-after-step=", "kill-after-step=two", "kill-after-step=3@",
            "drop-link=1", "drop-link=1:1", "drop-link=a:b", "reboot",
        ] {
            let err = from_map(&[("DCNN_FAULT", bad)])
                .expect_err(&format!("{bad:?} must be rejected"));
            assert_eq!(err.var, "DCNN_FAULT");
        }
    }

    #[test]
    fn malformed_values_name_the_variable() {
        for (var, value) in [
            ("DCNN_TRANSPORT", "carrier-pigeon"),
            ("DCNN_RANK", "zero"),
            ("DCNN_WORLD", "0"),
            ("DCNN_TRACE", "maybe"),
            ("DCNN_RECV_TIMEOUT_MS", "2.5s"),
            ("DCNN_COMM_WORKERS", "0"),
            ("DCNN_BUCKET_BYTES", "-1"),
            ("DCNN_OVERLAP_MODE", "eager"),
            ("DCNN_CONNECT_TIMEOUT_MS", "0"),
            ("DCNN_FAULT", "unplug-the-rack"),
            ("DCNN_DATA_PREFETCH_DEPTH", "deep"),
            ("DCNN_DATA_DECODE_WORKERS", "0"),
            ("DCNN_SHARD_OPTIM", "maybe"),
            ("DCNN_ALGO", "warp-speed"),
            ("DCNN_EVAL_PAYLOAD", "3"),
            ("DCNN_EVAL_ITERS", "0"),
        ] {
            let err = from_map(&[(var, value)])
                .expect_err(&format!("{var}={value} must be rejected"));
            assert_eq!(err.var, var);
            assert_eq!(err.value, value);
            let msg = err.to_string();
            assert!(msg.contains(var), "error must name the variable: {msg}");
            assert!(msg.contains("expected"), "error must say what was expected: {msg}");
        }
    }

    #[test]
    fn trace_json_implies_tracing() {
        let cfg = from_map(&[("DCNN_TRACE_JSON", "/tmp/t.jsonl")]).expect("parses");
        assert_eq!(cfg.trace, None);
        assert!(cfg.trace_or_default());
    }

    #[test]
    fn builder_overrides_win() {
        let cfg = from_map(&[("DCNN_BUCKET_BYTES", "4096")])
            .expect("parses")
            .with_bucket_bytes(8192)
            .with_overlap_mode(OverlapMode::Drain)
            .with_rank_world(2, 8)
            .with_rendezvous("10.0.0.1:9000")
            .with_fault(FaultSpec::DropLink { from: 0, to: 1 })
            .with_algo(crate::tune::AlgoPolicy::Fixed(crate::AllreduceAlgo::PipelinedRing))
            .with_eval_payload(1 << 16)
            .with_eval_iters(7);
        assert_eq!(cfg.bucket_bytes, Some(8192));
        assert_eq!(cfg.overlap_mode, Some(OverlapMode::Drain));
        assert_eq!((cfg.rank, cfg.world), (Some(2), Some(8)));
        assert_eq!(cfg.rendezvous.as_deref(), Some("10.0.0.1:9000"));
        assert_eq!(cfg.fault, Some(FaultSpec::DropLink { from: 0, to: 1 }));
        assert_eq!(
            cfg.algo,
            Some(crate::tune::AlgoPolicy::Fixed(crate::AllreduceAlgo::PipelinedRing))
        );
        assert_eq!(cfg.eval_payload, Some(1 << 16));
        assert_eq!(cfg.eval_iters, Some(7));
    }

    #[test]
    fn env_vars_list_is_complete_and_unique() {
        let vars = RuntimeConfig::ENV_VARS;
        let set: std::collections::HashSet<&str> = vars.iter().copied().collect();
        assert_eq!(set.len(), vars.len(), "duplicate entries in ENV_VARS");
        // Every listed var is actually consulted by the parser: setting it
        // alone to a recognizable bad value must either error or change the
        // parse relative to the empty environment.
        let baseline = from_map(&[]).expect("empty env");
        for var in vars {
            let poked = from_map(&[(var, "definitely-not-a-valid-value !")]);
            let consulted = match poked {
                Err(e) => e.var == var,
                Ok(cfg) => cfg != baseline, // free-form vars (paths, addrs)
            };
            assert!(consulted, "{var} is listed but never parsed");
        }
    }
}
