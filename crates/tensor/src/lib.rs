#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
// Index loops over parallel arrays (ranks, channels, coefficient tables) are
// clearer than zipped iterators in this domain.
#![allow(clippy::needless_range_loop)]

//! # dcnn-tensor — CPU tensor and neural-network layers
//!
//! The compute substrate for reproducing *Kumar et al. (CLUSTER 2018)*. The
//! paper trains ResNet-50 and GoogLeNet-BN with cuDNN kernels on P100 GPUs;
//! we do not have those, so this crate implements the same mathematics on
//! the CPU, exactly (forward *and* backward for every layer). The kernels
//! hand their row blocks and images to `rayon`'s `par_*` API; the vendored
//! shim runs those in order on the calling thread, so today each rank
//! computes on one core:
//!
//! * [`Tensor`] — dense row-major `f32` tensors with shape tracking.
//! * [`gemm`] — register-tiled matrix multiplication (the workhorse:
//!   convolutions are GEMMs that read the image's rows of `col` from a
//!   padded copy laid out by [`im2col`], as cuDNN's implicit-GEMM kernels
//!   never unroll it). Each kernel is one safe body compiled for the baseline
//!   target and, on x86_64, for AVX2; the CPU picks the arm and the bits do
//!   not depend on which ran. Its two calls of the `#[target_feature]` arm
//!   are the crate's only `unsafe`.
//! * [`layers`] — `Conv2d`, `BatchNorm2d`, `ReLU`, `MaxPool2d`,
//!   `GlobalAvgPool`, `Linear`, each a [`Module`] with a verified backward
//!   pass (numeric gradient checks in the test suite).
//! * [`nn`] — composition: [`nn::Sequential`], [`nn::Residual`] (ResNet skip
//!   connections) and [`nn::Concat`] (GoogLeNet inception branches).
//! * [`loss`] — softmax cross-entropy with gradient.
//! * [`optim`] — SGD with momentum, weight decay and pluggable LR schedules
//!   (including the paper's warm-start linear ramp, §5).
//!
//! Timing of these layers on the paper's hardware is the job of
//! `dcnn-gpusim`; this crate is about the *math* being real so that the
//! accuracy experiments (Figures 13–16) train and converge for real.

pub mod gemm;
pub mod im2col;
pub mod init;
pub mod layers;
pub mod loss;
pub mod nn;
pub mod optim;
pub mod tensor;

pub use layers::{
    AvgPool2d, BatchNorm2d, Conv2d, Dropout, Flatten, GlobalAvgPool, Linear, MaxPool2d, Module,
    Param, ReLU,
};
pub use loss::SoftmaxCrossEntropy;
pub use nn::{Concat, Residual, Sequential};
pub use optim::{Lars, LrSchedule, Sgd, SgdConfig};
pub use tensor::Tensor;
