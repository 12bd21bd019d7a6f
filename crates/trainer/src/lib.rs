#![warn(missing_docs)]

//! # dcnn-trainer — data-parallel distributed synchronous SGD
//!
//! The paper's Algorithm 1, twice:
//!
//! * [`distributed`] — **for real**: N learner ranks on the threaded MPI
//!   runtime, each driving m GPU-worker replicas through a data-parallel
//!   table, sampling batches from DIMD partitions, summing gradients
//!   intra-node, allreducing across nodes with a selectable algorithm,
//!   applying the paper's warmup + step-decay LR schedule, and reporting
//!   per-epoch loss and top-1 validation accuracy. This is what produces
//!   the accuracy/error curves (Figures 13–16) at laptop scale.
//! * [`epoch_model`] — **in virtual time**: the end-to-end epoch-time model
//!   that composes the P100 roofline (`dcnn-gpusim`), the data-parallel
//!   table overheads (`dcnn-dpt`), the allreduce schedules on the simulated
//!   fat-tree (`dcnn-collectives` + `dcnn-simnet`) and the file-server /
//!   DIMD data path (`dcnn-dimd`) into the epoch seconds the paper plots in
//!   Figures 6 and 10–12 and tabulates in Tables 1–2.

pub mod async_sgd;
pub mod cell;
pub mod checkpoint;
pub mod distributed;
pub mod epoch_model;
pub mod grad_sync;
pub mod shard;

pub use async_sgd::{train_async, AsyncConfig, AsyncStats};
pub use cell::CellSpec;
pub use checkpoint::{Checkpoint, CheckpointError, ShardCheckpoint, ShardMeta};
pub use distributed::{
    train_distributed, train_on_comm, try_train_on_comm, EpochStats, TrainConfig,
};
pub use epoch_model::{ClusterSetup, EpochBreakdown, EpochTimeModel, OptimizationFlags, Workload};
pub use grad_sync::{plan_buckets, Bucket, GradStream, GradSync};
pub use shard::ShardMap;
