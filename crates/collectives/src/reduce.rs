//! Summation kernels for gradient reduction.
//!
//! The paper sums network buffers into the local contribution with
//! hand-written POWER altivec code (§4.2). Here the three operations are
//! plain iterator loops: rustc turns each into packed `addps` / `mulps` at
//! the baseline `x86-64` target (and `ymm` code at `x86-64-v3`), and an
//! 8-lane hand-unrolled version with a chunked split measured equal to them
//! (EXPERIMENTS.md "Plain reduce loops"), so one copy of each is all there
//! is. Every operation is element-independent — `dst[i]` depends only on
//! index `i` of its inputs — so any traversal produces the same bits;
//! `tests/kernel_equivalence.rs` holds that on NaN, ±inf, −0.0 and
//! subnormal inputs.

/// `dst[i] += src[i]` for all `i`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sum_into(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "reduction length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `dst[i] = a[i] + b[i]` for all `i` (non-destructive variant).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sum_to(dst: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(dst.len(), a.len(), "reduction length mismatch");
    assert_eq!(dst.len(), b.len(), "reduction length mismatch");
    for ((d, x), y) in dst.iter_mut().zip(a).zip(b) {
        *d = x + y;
    }
}

/// `dst[i] *= k` — used to average gradients after summation.
pub fn scale(dst: &mut [f32], k: f32) {
    for d in dst {
        *d *= k;
    }
}

/// The same three loops under the name the allreduce correctness checks
/// and the benchmark's probes compare results against.
pub mod reference {
    pub use super::{scale, sum_into, sum_to};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_into_basic() {
        let mut a = vec![1.0, 2.0, 3.0];
        sum_into(&mut a, &[10.0, 20.0, 30.0]);
        assert_eq!(a, vec![11.0, 22.0, 33.0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut a = vec![0.0; 3];
        sum_into(&mut a, &[0.0; 4]);
    }

    #[test]
    fn sum_to_and_scale() {
        let mut d = vec![0.0; 4];
        sum_to(&mut d, &[1.0, 2.0, 3.0, 4.0], &[4.0, 3.0, 2.0, 1.0]);
        assert_eq!(d, vec![5.0; 4]);
        scale(&mut d, 0.2);
        assert_eq!(d, vec![1.0; 4]);
    }
}
