//! Allreduce algorithms.
//!
//! Every algorithm implements [`Allreduce`] by writing one thing: its
//! [`Allreduce::plan`], the per-rank list of [`Step`]s (send / receive-and-sum
//! / receive-and-copy over element ranges). Both faces of the algorithm are
//! derived from it. [`Allreduce::try_run`] hands the calling rank's plan to
//! the interpreter ([`crate::plan::execute`]), which moves real `f32` buffers
//! over either transport — what the trainer, tests and benches use.
//! [`Allreduce::schedule`] hands all `n` ranks' plans to the compiler
//! ([`crate::plan::compile`]), which yields the [`dcnn_simnet::CommSchedule`]
//! whose virtual-time simulation over the modelled fat-tree reproduces the
//! paper's Figure 5/6 comparisons. No algorithm file builds schedule ops or
//! calls `send`/`recv` itself, so the simulated message pattern is the
//! executed one by construction.

mod halving;
mod hierarchical;
mod multicolor;
mod rdouble;
mod ring;
mod ring_rs;

pub use halving::HalvingDoubling;
pub use hierarchical::Hierarchical;
pub use multicolor::MultiColor;
pub use rdouble::RecursiveDoubling;
pub use ring::PipelinedRing;
pub use ring_rs::RingReduceScatter;

use std::sync::Arc;

use dcnn_simnet::CommSchedule;

use crate::plan::{self, Step};
use crate::runtime::{Comm, CommError};

/// Cost constants for compiling an algorithm to a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Host summation bandwidth in bytes/second (the altivec kernel of the
    /// paper; memory-bandwidth bound on POWER8, ~20 GB/s sustained).
    pub reduce_bw: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { reduce_bw: CostModel::PRIOR_REDUCE_BW }
    }
}

impl CostModel {
    /// Cold-start prior for [`CostModel::reduce_bw`] (bytes/second), used
    /// until a real measurement exists. The paper's POWER8 altivec
    /// summation kernel sustains ~20 GB/s.
    pub const PRIOR_REDUCE_BW: f64 = 20e9;

    /// Seconds to sum `bytes` of received data into a local buffer.
    pub fn sum_secs(&self, bytes: f64) -> f64 {
        bytes / self.reduce_bw
    }

    /// A model whose summation bandwidth is derived from a measurement:
    /// `bytes` of reduced payload observed to take `ns` wall-clock
    /// nanoseconds end to end. Degenerate measurements (zero bytes or zero
    /// time) fall back to the cold-start prior rather than producing an
    /// absurd model.
    pub fn measured(bytes: u64, ns: u64) -> Self {
        if bytes == 0 || ns == 0 {
            return CostModel::default();
        }
        CostModel { reduce_bw: bytes as f64 / (ns as f64 / 1e9) }
    }
}

/// Pipelining parameters: how a payload is cut into sub-chunks that stream
/// through a tree/ring. Matches the paper's "higher level of pipelining on
/// the reduction trees" enabled by direct RDMA.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Preferred sub-chunk size in bytes.
    pub target_bytes: usize,
    /// Upper bound on the number of sub-chunks.
    pub max_chunks: usize,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline { target_bytes: 1 << 20, max_chunks: 32 }
    }
}

impl Pipeline {
    /// Number of sub-chunks for a payload of `bytes`.
    pub fn chunks_for(&self, bytes: usize) -> usize {
        if bytes == 0 {
            return 1;
        }
        bytes.div_ceil(self.target_bytes).clamp(1, self.max_chunks)
    }
}

/// A distributed sum over identical-length `f32` buffers.
pub trait Allreduce {
    /// Human-readable name (appears in figures and benches).
    fn name(&self) -> &'static str;

    /// The algorithm itself: the steps `rank` of `n` performs to allreduce
    /// a `len`-element buffer. Empty when `n <= 1`.
    fn plan(&self, n: usize, rank: usize, len: usize) -> Vec<Step>;

    /// [`Allreduce::try_run`], panicking with the report if a peer is dead.
    fn run(&self, comm: &Comm, buf: &mut [f32]) {
        self.try_run(comm, buf).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Execute on the runtime: on return every rank's `buf` holds the
    /// elementwise sum over all ranks, or a peer is dead.
    fn try_run(&self, comm: &Comm, buf: &mut [f32]) -> Result<(), CommError> {
        let _phase = comm.phase(self.name());
        plan::execute(comm, &self.plan(comm.size(), comm.rank(), buf.len()), buf)
    }

    /// Compile to a network schedule for `n` ranks and a `bytes` payload
    /// (rounded up to whole `f32` elements).
    fn schedule(&self, n: usize, bytes: f64, cost: &CostModel) -> CommSchedule {
        let len = (bytes / 4.0).ceil() as usize;
        let plans: Vec<Vec<Step>> = (0..n).map(|r| self.plan(n, r, len)).collect();
        plan::compile(&plans, cost)
    }

    /// The reduce-scatter this algorithm contains: the steps `rank` performs
    /// so that every rank's owned chunk — `counts` cuts the buffer into one
    /// contiguous chunk per rank, chunk `r` owned by rank `r` — ends fully
    /// reduced. By default the allreduce [`Allreduce::plan`] minus its dead
    /// steps ([`plan::reduce_scatter`]): owned bits equal [`Allreduce::run`]'s
    /// by construction, and nothing is moved that no owned element needs.
    /// Plans all `counts.len()` ranks, so callers that repeat an exchange
    /// keep the result ([`crate::runtime::CollectiveOp::reduce_scatter`],
    /// the one runner, does).
    fn scatter_plan(&self, rank: usize, counts: &[usize]) -> Vec<Step> {
        let (n, len) = (counts.len(), counts.iter().sum());
        let plans: Vec<Vec<Step>> = (0..n).map(|r| self.plan(n, r, len)).collect();
        plan::reduce_scatter(&plans, counts).swap_remove(rank)
    }
}

/// Enum of all algorithms, for configuration and sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceAlgo {
    /// The paper's multi-color tree algorithm (§4.2) with this many colors.
    MultiColor(usize),
    /// The paper's ring comparator: pipelined reduce-to-root + broadcast.
    PipelinedRing,
    /// Whole-buffer recursive doubling ("default OpenMPI" comparator).
    RecursiveDoubling,
    /// Reduce-scatter + allgather ring (NCCL/Horovod style; ablation).
    RingReduceScatter,
    /// Rabenseifner's recursive halving + doubling (ablation).
    HalvingDoubling,
    /// Two-level hierarchical: per-group reduce, leaders' multicolor
    /// allreduce, group broadcast (extension; group size is the parameter).
    Hierarchical(usize),
}

impl AllreduceAlgo {
    /// All algorithms at their default configuration.
    pub fn all() -> Vec<AllreduceAlgo> {
        vec![
            AllreduceAlgo::MultiColor(4),
            AllreduceAlgo::PipelinedRing,
            AllreduceAlgo::RecursiveDoubling,
            AllreduceAlgo::RingReduceScatter,
            AllreduceAlgo::HalvingDoubling,
            AllreduceAlgo::Hierarchical(4),
        ]
    }

    /// The three algorithms the paper compares in Figures 5–6.
    pub fn paper_trio() -> Vec<AllreduceAlgo> {
        vec![
            AllreduceAlgo::MultiColor(4),
            AllreduceAlgo::PipelinedRing,
            AllreduceAlgo::RecursiveDoubling,
        ]
    }

    /// Instantiate the algorithm as a shared handle: call it directly, or
    /// clone it into a [`crate::runtime::CollectiveOp`] per bucket launch.
    pub fn build(&self) -> Arc<dyn Allreduce + Send + Sync> {
        match *self {
            AllreduceAlgo::MultiColor(k) => Arc::new(MultiColor::new(k)),
            AllreduceAlgo::PipelinedRing => Arc::new(PipelinedRing::default()),
            AllreduceAlgo::RecursiveDoubling => Arc::new(RecursiveDoubling),
            AllreduceAlgo::RingReduceScatter => Arc::new(RingReduceScatter),
            AllreduceAlgo::HalvingDoubling => Arc::new(HalvingDoubling),
            AllreduceAlgo::Hierarchical(g) => Arc::new(Hierarchical::new(g, 4)),
        }
    }

    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AllreduceAlgo::MultiColor(_) => "multicolor",
            AllreduceAlgo::PipelinedRing => "ring",
            AllreduceAlgo::RecursiveDoubling => "openmpi-default",
            AllreduceAlgo::RingReduceScatter => "ring-reduce-scatter",
            AllreduceAlgo::HalvingDoubling => "halving-doubling",
            AllreduceAlgo::Hierarchical(_) => "hierarchical",
        }
    }
}

/// Renders the [`AllreduceAlgo::name`] string, with a `:k` suffix when a
/// parameterized algorithm departs from its default (`multicolor:2`,
/// `hierarchical:8`). The output always parses back via [`FromStr`].
impl std::fmt::Display for AllreduceAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AllreduceAlgo::MultiColor(k) if k != 4 => write!(f, "multicolor:{k}"),
            AllreduceAlgo::Hierarchical(g) if g != 4 => write!(f, "hierarchical:{g}"),
            _ => f.write_str(self.name()),
        }
    }
}

/// Parses the [`AllreduceAlgo::name`] strings, plus parameterized forms
/// for the algorithms that take one: `multicolor:<colors>` and
/// `hierarchical:<group>` (bare `multicolor` / `hierarchical` mean the
/// default parameter, 4). Any other `name:param` combination is an error.
impl std::str::FromStr for AllreduceAlgo {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (base, param) = match s.split_once(':') {
            Some((b, p)) => (b, Some(p)),
            None => (s, None),
        };
        let parse_param = |what: &str| -> Result<usize, String> {
            match param {
                None => Ok(4),
                Some(p) => match p.parse::<usize>() {
                    Ok(k) if k >= 1 => Ok(k),
                    _ => Err(format!("bad {what} {p:?} in allreduce algorithm {s:?}")),
                },
            }
        };
        let algo = match base {
            "multicolor" => AllreduceAlgo::MultiColor(parse_param("color count")?),
            "hierarchical" => AllreduceAlgo::Hierarchical(parse_param("group size")?),
            "ring" => AllreduceAlgo::PipelinedRing,
            "openmpi-default" => AllreduceAlgo::RecursiveDoubling,
            "ring-reduce-scatter" => AllreduceAlgo::RingReduceScatter,
            "halving-doubling" => AllreduceAlgo::HalvingDoubling,
            _ => return Err(format!("unknown allreduce algorithm {s:?}")),
        };
        if param.is_some()
            && !matches!(algo, AllreduceAlgo::MultiColor(_) | AllreduceAlgo::Hierarchical(_))
        {
            return Err(format!("allreduce algorithm {base:?} takes no parameter (got {s:?})"));
        }
        Ok(algo)
    }
}

/// Split `len` items into `k` contiguous, maximally even ranges (the first
/// `len % k` ranges are one element longer). This is the canonical owner map
/// shared by the ring reduce-scatter chunks and the trainer's parameter
/// shards, so the two agree on which rank anchors each element's
/// accumulation order.
pub fn even_ranges(len: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    assert!(k >= 1);
    let base = len / k;
    let extra = len % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let l = base + usize::from(i < extra);
        out.push(start..start + l);
        start += l;
    }
    debug_assert_eq!(start, len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_ranges_cover_exactly() {
        for len in [0, 1, 7, 10, 100] {
            for k in [1, 2, 3, 7] {
                let r = even_ranges(len, k);
                assert_eq!(r.len(), k);
                assert_eq!(r[0].start, 0);
                assert_eq!(r[k - 1].end, len);
                for w in r.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                let sizes: Vec<usize> = r.iter().map(|x| x.len()).collect();
                let (mn, mx) = (sizes.iter().min().copied().into_iter().min().unwrap(), *sizes.iter().max().unwrap());
                assert!(mx - mn <= 1);
            }
        }
    }

    #[test]
    fn pipeline_chunk_counts() {
        let p = Pipeline { target_bytes: 1024, max_chunks: 8 };
        assert_eq!(p.chunks_for(0), 1);
        assert_eq!(p.chunks_for(1), 1);
        assert_eq!(p.chunks_for(1024), 1);
        assert_eq!(p.chunks_for(1025), 2);
        assert_eq!(p.chunks_for(1 << 20), 8); // clamped
    }

    #[test]
    fn cost_model_sum_secs() {
        let c = CostModel { reduce_bw: 1e9 };
        assert!((c.sum_secs(1e9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn algo_names_unique() {
        let names: Vec<_> = AllreduceAlgo::all().iter().map(|a| a.name()).collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
#[test]
    fn algo_display_from_str_round_trips() {
        for a in AllreduceAlgo::all() {
            let s = a.to_string();
            assert_eq!(s, a.name(), "defaults render as the bare name");
            assert_eq!(s.parse::<AllreduceAlgo>().unwrap(), a);
        }
        for a in [AllreduceAlgo::MultiColor(2), AllreduceAlgo::Hierarchical(8)] {
            let s = a.to_string();
            assert!(s.contains(':'), "{s}");
            assert_eq!(s.parse::<AllreduceAlgo>().unwrap(), a);
        }
        assert_eq!("multicolor:4".parse::<AllreduceAlgo>().unwrap(), AllreduceAlgo::MultiColor(4));
        assert_eq!("hierarchical".parse::<AllreduceAlgo>().unwrap(), AllreduceAlgo::Hierarchical(4));
        for bad in ["", "ring:2", "multicolor:", "multicolor:0", "halving-doubling:3", "warp"] {
            assert!(bad.parse::<AllreduceAlgo>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn measured_cost_model_keeps_prior_on_degenerate_input() {
        assert_eq!(CostModel::measured(0, 5).reduce_bw, CostModel::PRIOR_REDUCE_BW);
        assert_eq!(CostModel::measured(5, 0).reduce_bw, CostModel::PRIOR_REDUCE_BW);
        let m = CostModel::measured(1 << 20, 1_000_000); // 1 MiB in 1 ms
        assert!((m.reduce_bw - (1u64 << 20) as f64 * 1e3).abs() / m.reduce_bw < 1e-9);
    }

    #[test]
    fn measured_model_reorders_a_crossover_the_static_model_gets_wrong() {
        use dcnn_simnet::{FatTree, SimOptions};
        let n = 16;
        let bytes = 65536.0;
        let makespan = |algo: AllreduceAlgo, cost: &CostModel| {
            algo.build()
                .schedule(n, bytes, cost)
                .simulate(&FatTree::minsky(n), &SimOptions::default())
                .makespan
        };
        // Under the static 20 GB/s prior, the multicolor trees beat the
        // reduce-scatter ring at 64 KiB on 16 nodes — summation is nearly
        // free, so the lower network critical path of the trees wins.
        let prior = CostModel::default();
        assert!(
            makespan(AllreduceAlgo::MultiColor(4), &prior)
                < makespan(AllreduceAlgo::RingReduceScatter, &prior)
        );
        // A host measured at ~100 MB/s summation (64 KiB summed in 655 us)
        // flips that ordering: the trees re-sum whole subtree payloads on
        // the critical path while the ring sums each element once, so the
        // measured model correctly prefers the ring where the static one
        // would still pick multicolor.
        let measured = CostModel::measured(65536, 655_360);
        assert!((measured.reduce_bw - 1e8).abs() / 1e8 < 1e-9);
        assert!(
            makespan(AllreduceAlgo::RingReduceScatter, &measured)
                < makespan(AllreduceAlgo::MultiColor(4), &measured)
        );
    }
}
