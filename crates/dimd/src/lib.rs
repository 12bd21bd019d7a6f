#![warn(missing_docs)]
// Index loops over parallel arrays (ranks, channels, coefficient tables) are
// clearer than zipped iterators in this domain.
#![allow(clippy::needless_range_loop)]

//! # dcnn-dimd — Distributed In-Memory Data (paper §4.1)
//!
//! The paper's first contribution: instead of fetching random JPEGs from a
//! slow network file system every iteration, resize and compress the whole
//! dataset once into *one blob file plus an index*, load partitions of it
//! into node memory, serve random mini-batches from memory (decompressing
//! on the fly), and periodically **shuffle the partitions across nodes with
//! `MPI_Alltoallv`** (Algorithm 2) so mini-batch sampling stays globally
//! random.
//!
//! Everything the paper used but we lack is substituted with a real
//! implementation of the same code path:
//!
//! * ImageNet → [`synth::SynthImageNet`], a seeded class-conditional image
//!   generator (the data is synthetic; the byte-handling is not).
//! * libjpeg → [`codec`], a from-scratch 8×8 block-DCT codec with
//!   quality-scaled quantization, zigzag scan and varint entropy coding, so
//!   record sizes and decode costs behave like JPEG's.
//! * The 70 GB / 220 GB blob + index files → [`blob::BlobStore`], with the
//!   same build pipeline (resize shorter side to 256 → compress →
//!   concatenate → index of (offset, length, label)).
//! * GPFS/NFS → [`fileserver::FileServer`], an analytic model of sequential
//!   vs random-access throughput (the I/O bottleneck DIMD removes).
//! * `MPI_Alltoallv` → `dcnn-collectives`' pairwise implementation, run for
//!   real across rank threads, **including Algorithm 2's segmentation that
//!   keeps each exchange under MPI's 32-bit counts**.

pub mod blob;
pub mod codec;
pub mod crc;
pub mod fileserver;
pub mod image;
pub mod plan;
pub mod prefetch;
pub mod service;
pub mod shuffle;
pub mod store;
pub mod synth;

pub use blob::{BlobStore, RecordMeta};
pub use codec::{decode_image, decode_window, encode_image, try_decode_window, CodecError};
pub use fileserver::FileServer;
pub use image::RawImage;
pub use plan::{plan_groups, PartitionPlan};
pub use prefetch::Prefetcher;
pub use service::{
    open_source, serve_blocking, BatchSource, Hello, LocalSource, ServiceClient, ServiceSource,
};
pub use shuffle::{try_shuffle_hosted, HostedPartition, HostedShuffle, Record};
pub use store::{decode_augmented_batch, try_decode_augmented_batch, Dimd, ValSet};
pub use synth::{SynthConfig, SynthImageNet};
