#![warn(missing_docs)]
// The crate's few `unsafe` blocks (DESIGN.md, "Unsafe inventory") each carry
// a `// SAFETY:` argument; `ci.sh` runs clippy with `-D warnings`, so a new
// block without one fails the gate.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]
// Index loops over parallel arrays (ranks, channels, coefficient tables) are
// clearer than zipped iterators in this domain.
#![allow(clippy::needless_range_loop)]

//! # dcnn-collectives — MPI-like runtime and collective algorithms
//!
//! This crate implements the communication layer of *Kumar et al. (CLUSTER
//! 2018)* from scratch:
//!
//! * [`runtime`] — a threaded, in-process message-passing runtime standing in
//!   for MPI over InfiniBand verbs: one OS thread per rank, eager typed
//!   sends delivered straight into the receiver's mailbox, tag matching,
//!   communicator `split` (used by DIMD's group-based shuffle), and
//!   message-based barriers.
//! * [`tree`] — construction of the paper's **multi-color k-ary BFS spanning
//!   trees** (Figure 2): the payload is split into `k` chunks and each chunk
//!   is reduced along its own tree whose *interior (non-leaf) nodes are
//!   disjoint from every other color's*, so the summing work and the
//!   root-adjacent links are spread across the machine.
//! * [`plan`] — per-rank step plans (send / receive-and-sum / receive-and-copy
//!   over element ranges), the interpreter that runs one on a [`Comm`] and
//!   the compiler that turns all ranks' plans into a
//!   [`dcnn_simnet::CommSchedule`].
//! * [`algorithms`] — Allreduce implementations, each written once as a plan,
//!   so the same description (a) executes on real `f32` buffers across the
//!   runtime and (b) is evaluated in virtual time on the simulated fat-tree:
//!     * [`algorithms::MultiColor`] — the paper's contribution (§4.2),
//!     * [`algorithms::PipelinedRing`] — the paper's ring comparator (reduce
//!       to a single root along the ring, broadcast in the opposite
//!       direction, §5.1),
//!     * [`algorithms::RecursiveDoubling`] — the "default OpenMPI" comparator,
//!     * [`algorithms::RingReduceScatter`] — classic reduce-scatter +
//!       allgather ring (NCCL/Horovod-style), included as an ablation,
//!     * [`algorithms::HalvingDoubling`] — Rabenseifner's algorithm, ablation.
//! * [`primitives`] — broadcast, reduce, gather, allgather, barrier and the
//!   **pairwise `alltoallv`** used by DIMD's distributed in-memory shuffle
//!   (Algorithm 2 of the paper).
//! * [`reduce`] — the summation kernel (the paper uses POWER altivec; we use
//!   an unrolled, auto-vectorizable loop).

pub mod algorithms;
pub mod compress;
pub mod config;
pub mod measurement;
pub mod plan;
pub mod primitives;
pub mod reduce;
pub mod runtime;
pub mod trace;
pub mod transport;
pub mod tree;
pub mod tune;

pub use algorithms::{
    even_ranges, Allreduce, AllreduceAlgo, CostModel, HalvingDoubling, Hierarchical, MultiColor,
    Pipeline, PipelinedRing, RecursiveDoubling, RingReduceScatter,
};
pub use compress::quantize_f16;
pub use config::{ConfigError, FaultSpec, OverlapMode, RuntimeConfig};
pub use measurement::CellMeasurement;
pub use plan::Step;
pub use runtime::{
    run_cluster, try_run_tcp_rank_with, ClusterBuilder, ClusterRun, CollectiveOp, Comm, CommError,
    CommStats, PendingReduce, ProcessRun,
};
pub use trace::{render_trace, write_trace_json, TraceEvent, TraceEventKind};
pub use transport::{crc32, crc32_f32, Payload, Transport, TransportKind};
pub use tree::ColorTree;
pub use tune::{size_class, AlgoPolicy, Decision};
