//! Blocked matrix multiplication.
//!
//! Convolutions lower to GEMM (see [`crate::im2col`]); the linear layer and
//! every backward pass do too, so these kernels carry nearly all of the
//! training FLOPs — the CPU analogue of the cuDNN kernels the paper drives.
//!
//! Two kernel shapes. [`gemm_acc`] and [`gemm_tn_acc`] walk `ikj`: the inner
//! `j` loop is a unit-stride AXPY (`C[i,·] += a · B[l,·]`), independent per
//! element, which LLVM vectorizes as written. [`gemm_nt_acc`] has no such
//! loop — `C[i,j]` is a dot product of two rows, one dependent chain that
//! may not be reassociated — so it splits each dot product over `LANES`
//! interleaved partial sums, folds them in a fixed order, and keeps a 2×2
//! tile of them in registers.
//!
//! Every kernel's result is a pure function of its operands: `C[i,j]` comes
//! from one operation sequence set by `k` (and, for the AXPY kernels, by
//! which `A` values are zero), whatever `m`, `n`, the tile it falls in or
//! the calls made before. Splitting a batch over replicas or calls therefore
//! cannot change a bit.
//!
//! Row blocks go through `rayon`'s `par_chunks` API. The vendored shim runs
//! them in order on the calling thread; with the real crate they would be
//! distributed over its pool, with the same bits.

use rayon::prelude::*;

/// Row count below which a kernel skips the `par_chunks` split.
const PAR_THRESHOLD: usize = 8;

/// Rows of `C` per `par_chunks` task (a block of `A` rows stays in L1
/// while a `K_PANEL × n` slice of `B` streams through L2).
const M_BLOCK: usize = 32;

/// Depth of the `k` panel kept hot in cache per pass.
const K_PANEL: usize = 256;

/// `C[m×n] += A[m×k] · B[k×n]` (all row-major), cache-tiled over `(m, k)`,
/// one task per row block.
///
/// # Panics
/// Panics if the slice lengths don't match the dimensions.
pub fn gemm_acc(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // One row block: for each k panel, every row's AXPYs reuse the same
    // panel of B before it is evicted.
    let block = |cb: &mut [f32], ab: &[f32]| {
        let rows = cb.len() / n;
        let mut l0 = 0;
        while l0 < k {
            let l1 = (l0 + K_PANEL).min(k);
            for r in 0..rows {
                let ci = &mut cb[r * n..(r + 1) * n];
                for l in l0..l1 {
                    let av = ab[r * k + l];
                    if av != 0.0 {
                        let brow = &b[l * n..(l + 1) * n];
                        for (cv, &bv) in ci.iter_mut().zip(brow) {
                            *cv += av * bv;
                        }
                    }
                }
            }
            l0 = l1;
        }
    };
    if m >= PAR_THRESHOLD {
        c.par_chunks_mut(M_BLOCK * n)
            .zip(a.par_chunks(M_BLOCK * k))
            .for_each(|(cb, ab)| block(cb, ab));
    } else {
        block(c, a);
    }
}

/// `C[m×n] = A[m×k] · B[k×n]` (overwrites C).
pub fn gemm(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    c.iter_mut().for_each(|x| *x = 0.0);
    gemm_acc(c, a, b, m, k, n);
}

/// `C[m×n] += Aᵀ · B` where `A` is `k×m` row-major (i.e. multiply by the
/// transpose of a stored matrix without materializing it).
pub fn gemm_tn_acc(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "A size (stored k×m)");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // cᵢ += Σ_l A[l,i] · B[l,·]; one task per output row.
    let row = |i: usize, ci: &mut [f32]| {
        for l in 0..k {
            let av = a[l * m + i];
            if av != 0.0 {
                let brow = &b[l * n..(l + 1) * n];
                for (cv, &bv) in ci.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    };
    if m >= PAR_THRESHOLD {
        c.par_chunks_mut(n).enumerate().for_each(|(i, ci)| row(i, ci));
    } else {
        for (i, ci) in c.chunks_mut(n).enumerate() {
            row(i, ci);
        }
    }
}

/// Lanes of a split accumulator: a sum that would be one dependent chain is
/// kept as `LANES` interleaved partial sums (lane `t` takes the terms at
/// `t mod LANES`) so it vectorizes, then folded by [`fold_lanes`].
pub(crate) const LANES: usize = 8;

/// The one order in which partial sums are folded:
/// `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))`.
#[inline(always)]
pub(crate) fn fold_lanes<T: Copy + std::ops::Add<Output = T>>(s: [T; LANES]) -> T {
    ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]))
}

/// Rows of `A` and of `B` per register tile of [`gemm_nt_acc`]: four
/// accumulators of `LANES` floats fill half the SSE register file and each
/// loaded chunk feeds two of them.
const NT_TILE: usize = 2;

/// Dot products of `MR` rows of `A` with `NR` rows of `B` (all of one
/// length), each as `LANES` interleaved partial sums folded in a fixed order.
///
/// Lane `t` of a pair sums `a[l]·b[l]` over `l ≡ t (mod LANES)` in ascending
/// `l`, then [`fold_lanes`]. The sequence depends on the length alone, so a
/// dot product has the same bits in every tile shape and position.
// Compiled on its own LLVM keeps the accumulators in vector registers;
// inlined into the tile loop it does not (9 against 25 GFLOP/s at 16×2048×144).
#[inline(never)]
fn dot_tile<const MR: usize, const NR: usize>(a: [&[f32]; MR], b: [&[f32]; NR]) -> [[f32; NR]; MR] {
    let k = a[0].len();
    let a = a.map(|r| &r[..k]);
    let b = b.map(|r| &r[..k]);
    let chunk = |r: &[f32], l: usize| -> [f32; LANES] {
        r[l..l + LANES].try_into().expect("LANES-long chunk")
    };
    let mut acc = [[[0.0f32; LANES]; NR]; MR];
    for l in (0..k - k % LANES).step_by(LANES) {
        let av = a.map(|r| chunk(r, l));
        let bv = b.map(|r| chunk(r, l));
        for i in 0..MR {
            for j in 0..NR {
                for t in 0..LANES {
                    acc[i][j][t] += av[i][t] * bv[j][t];
                }
            }
        }
    }
    for (t, l) in (k - k % LANES..k).enumerate() {
        for i in 0..MR {
            for j in 0..NR {
                acc[i][j][t] += a[i][l] * b[j][l];
            }
        }
    }
    acc.map(|row| row.map(fold_lanes))
}

/// `C[i0.., j0..] += A[i0..][..MR] · B[j0..][..NR]ᵀ` for one register tile.
fn nt_tile<const MR: usize, const NR: usize>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    (i0, j0): (usize, usize),
    (k, n): (usize, usize),
) {
    let d = dot_tile::<MR, NR>(
        std::array::from_fn(|i| &a[(i0 + i) * k..(i0 + i + 1) * k]),
        std::array::from_fn(|j| &b[(j0 + j) * k..(j0 + j + 1) * k]),
    );
    for (i, di) in d.iter().enumerate() {
        let ct = &mut c[(i0 + i) * n + j0..][..NR];
        ct.iter_mut().zip(di).for_each(|(cv, dv)| *cv += dv);
    }
}

/// `C[m×n] += A[m×k] · Bᵀ` where `B` is `n×k` row-major.
///
/// Every `C[i,j]` is one [`dot_tile`] dot product added to its old value, so
/// a row or column subset computed in a separate call has the same bits.
pub fn gemm_nt_acc(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), n * k, "B size (stored n×k)");
    assert_eq!(c.len(), m * n, "C size");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // One block of `A` rows: each pair of `B` rows meets all of them before
    // the next pair is loaded, so a batch-2 `Linear::forward` streams its
    // weight matrix once.
    let block = |cb: &mut [f32], ab: &[f32]| {
        let rows = cb.len() / n;
        for j in (0..n).step_by(NT_TILE) {
            for i in (0..rows).step_by(NT_TILE) {
                match (NT_TILE.min(rows - i), NT_TILE.min(n - j)) {
                    (2, 2) => nt_tile::<2, 2>(cb, ab, b, (i, j), (k, n)),
                    (2, 1) => nt_tile::<2, 1>(cb, ab, b, (i, j), (k, n)),
                    (1, 2) => nt_tile::<1, 2>(cb, ab, b, (i, j), (k, n)),
                    _ => nt_tile::<1, 1>(cb, ab, b, (i, j), (k, n)),
                }
            }
        }
    };
    c.par_chunks_mut(M_BLOCK * n).zip(a.par_chunks(M_BLOCK * k)).for_each(|(cb, ab)| block(cb, ab));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for l in 0..k {
                    c[i * n + j] += a[i * k + l] * b[l * n + j];
                }
            }
        }
        c
    }

    fn seq(n: usize, scale: f32) -> Vec<f32> {
        (0..n).map(|i| ((i * 7919 % 23) as f32 - 11.0) * scale).collect()
    }

    #[test]
    fn gemm_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (2, 3, 4), (5, 7, 3), (16, 16, 16), (33, 17, 9)] {
            let a = seq(m * k, 0.1);
            let b = seq(k * n, 0.05);
            let want = naive(&a, &b, m, k, n);
            let mut c = vec![0.0; m * n];
            gemm(&mut c, &a, &b, m, k, n);
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-4, "({m},{k},{n})");
            }
        }
    }

    #[test]
    fn gemm_acc_accumulates() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![1.0; 4];
        gemm_acc(&mut c, &a, &b, 2, 2, 2);
        assert_eq!(c, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let (m, k, n) = (6, 11, 4);
        let a_t = seq(k * m, 0.1); // stored k×m
        let b = seq(k * n, 0.2);
        // Build the explicit m×k transpose and compare.
        let mut a = vec![0.0; m * k];
        for l in 0..k {
            for i in 0..m {
                a[i * k + l] = a_t[l * m + i];
            }
        }
        let want = naive(&a, &b, m, k, n);
        let mut c = vec![0.0; m * n];
        gemm_tn_acc(&mut c, &a_t, &b, m, k, n);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn gemm_nt_matches_explicit_transpose() {
        let (m, k, n) = (9, 5, 12);
        let a = seq(m * k, 0.1);
        let b_t = seq(n * k, 0.2); // stored n×k
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for l in 0..k {
                b[l * n + j] = b_t[j * k + l];
            }
        }
        let want = naive(&a, &b, m, k, n);
        let mut c = vec![0.0; m * n];
        gemm_nt_acc(&mut c, &a, &b_t, m, k, n);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn degenerate_dims_are_noops() {
        let mut c: Vec<f32> = vec![];
        gemm(&mut c, &[], &[], 0, 5, 0);
        let mut c2 = vec![3.0; 4];
        gemm_acc(&mut c2, &[], &[], 2, 0, 2);
        assert_eq!(c2, vec![3.0; 4]);
    }

    #[test]
    #[should_panic]
    fn size_mismatch_panics() {
        let mut c = vec![0.0; 4];
        gemm(&mut c, &[1.0; 3], &[1.0; 4], 2, 2, 2);
    }

    #[test]
    fn large_parallel_path() {
        let (m, k, n) = (64, 32, 48);
        let a = seq(m * k, 0.01);
        let b = seq(k * n, 0.02);
        let want = naive(&a, &b, m, k, n);
        let mut c = vec![0.0; m * n];
        gemm(&mut c, &a, &b, m, k, n);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn tiling_boundaries_are_exact() {
        // Dimensions straddling M_BLOCK and K_PANEL boundaries.
        for (m, k, n) in [(31, 255, 7), (32, 256, 8), (33, 257, 9), (97, 300, 11)] {
            let a = seq(m * k, 0.01);
            let b = seq(k * n, 0.02);
            let want = naive(&a, &b, m, k, n);
            let mut c = vec![0.0; m * n];
            gemm(&mut c, &a, &b, m, k, n);
            for (i, (x, y)) in c.iter().zip(&want).enumerate() {
                assert!((x - y).abs() < 2e-2 * y.abs().max(1.0), "({m},{k},{n}) at {i}: {x} vs {y}");
            }
        }
    }
}
