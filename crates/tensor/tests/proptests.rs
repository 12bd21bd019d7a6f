//! Property-based tests for the tensor/NN substrate.

use dcnn_tensor::gemm::{gemm, gemm_acc, gemm_nt_acc, gemm_tn_acc, portable, NR};
use dcnn_tensor::im2col::{col2im, im2col, out_dim};
use dcnn_tensor::layers::{Conv2d, GlobalAvgPool, Linear, MaxPool2d, Module, ReLU};
use dcnn_tensor::loss::SoftmaxCrossEntropy;
use dcnn_tensor::Tensor;
use proptest::prelude::*;

fn vecf(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2000) as f32 - 1000.0) / 500.0
        })
        .collect()
}

/// The four GEMM entry points over one logical product `C[m×n] (+)= A[m×k] · B[k×n]`.
#[derive(Debug, Clone, Copy)]
enum Gemm {
    Nn,
    NnAcc,
    TnAcc,
    NtAcc,
}

const GEMMS: [Gemm; 4] = [Gemm::Nn, Gemm::NnAcc, Gemm::TnAcc, Gemm::NtAcc];

fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols).map(|i| x[(i % rows) * cols + i / rows]).collect()
}

impl Gemm {
    /// Run the entry point on logical row-major `a` (m×k) and `b` (k×n),
    /// storing whichever operand it wants transposed.
    fn run(self, c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        match self {
            Gemm::Nn => gemm(c, a, b, m, k, n),
            Gemm::NnAcc => gemm_acc(c, a, b, m, k, n),
            Gemm::TnAcc => gemm_tn_acc(c, &transpose(a, m, k), b, m, k, n),
            Gemm::NtAcc => gemm_nt_acc(c, a, &transpose(b, k, n), m, k, n),
        }
    }

    fn accumulates(self) -> bool {
        !matches!(self, Gemm::Nn)
    }
}

/// Rows `rows` of a row-major matrix with `cols` columns.
fn take_rows(x: &[f32], cols: usize, rows: &[usize]) -> Vec<f32> {
    rows.iter().flat_map(|&r| x[r * cols..(r + 1) * cols].iter().copied()).collect()
}

/// Columns `pick` of a row-major matrix with `cols` columns.
fn take_cols(x: &[f32], cols: usize, pick: &[usize]) -> Vec<f32> {
    x.chunks(cols).flat_map(|row| pick.iter().map(|&j| row[j])).collect()
}

/// Every entry point against an f64 reference at one shape, starting from a
/// non-zero `C`: the error of an f32 sum of `k` products (in any order) is
/// within `(k + 2)·ε·Σ|aₗ·bₗ|`.
fn check_against_f64(m: usize, k: usize, n: usize, seed: u64) {
    let (a, b, c0) = (vecf(m * k, seed), vecf(k * n, seed + 1), vecf(m * n, seed + 2));
    for g in GEMMS {
        let mut c = c0.clone();
        g.run(&mut c, &a, &b, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let start = if g.accumulates() { c0[i * n + j] as f64 } else { 0.0 };
                let (mut want, mut mag) = (start, start.abs());
                for l in 0..k {
                    let p = a[i * k + l] as f64 * b[l * n + j] as f64;
                    want += p;
                    mag += p.abs();
                }
                let bound = (k + 2) as f64 * f32::EPSILON as f64 * mag;
                let got = c[i * n + j] as f64;
                assert!(
                    (got - want).abs() <= bound,
                    "{g:?} ({m},{k},{n}) C[{i},{j}] = {got}, want {want} ± {bound}"
                );
            }
        }
    }
}

/// Sub-block invariance, bitwise: the rows `rows` and the columns `cols` of
/// `C`, each computed by a call of its own on the matching operand subset,
/// equal the same entries of the one-call result.
fn check_sub_blocks(m: usize, k: usize, n: usize, rows: &[usize], cols: &[usize], seed: u64) {
    let (a, b, c0) = (vecf(m * k, seed), vecf(k * n, seed + 1), vecf(m * n, seed + 2));
    let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    for g in GEMMS {
        let mut full = c0.clone();
        g.run(&mut full, &a, &b, m, k, n);

        let mut by_rows = take_rows(&c0, n, rows);
        g.run(&mut by_rows, &take_rows(&a, k, rows), &b, rows.len(), k, n);
        assert_eq!(
            bits(&by_rows),
            bits(&take_rows(&full, n, rows)),
            "{g:?} ({m},{k},{n}) rows {rows:?}"
        );

        let mut by_cols = take_cols(&c0, n, cols);
        g.run(&mut by_cols, &a, &take_cols(&b, n, cols), m, k, cols.len());
        assert_eq!(
            bits(&by_cols),
            bits(&take_cols(&full, n, cols)),
            "{g:?} ({m},{k},{n}) cols {cols:?}"
        );
    }
}

/// The `k` values on either side of the accumulator lane count and its
/// multiples, plus the two probe depths.
const RAGGED_K: [usize; 9] = [1, 7, 8, 9, 15, 16, 17, 144, 1024];

#[test]
fn gemm_entry_points_match_f64_reference_at_ragged_shapes() {
    for k in RAGGED_K {
        for m in 1..=9 {
            for n in 1..=9 {
                check_against_f64(m, k, n, (k * 100 + m * 10 + n) as u64);
            }
        }
    }
    check_against_f64(16, 144, 2048, 1);
    check_against_f64(2, 1024, 1024, 2);
}

#[test]
fn gemm_sub_blocks_are_bitwise_at_probe_shapes() {
    check_sub_blocks(16, 144, 2048, &[0, 3, 4, 9, 15], &[1, 2, 3, 500, 2047], 3);
    check_sub_blocks(2, 1024, 1024, &[1], &[0, 7, 8, 1023], 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any row subset and any column subset of `C` computed in separate
    /// calls carries the bits of the one-call result — what keeps a batch
    /// split across replicas or calls from changing a gradient bit.
    ///
    /// `n` runs past two register tiles, so a column lands in an `NR`-wide
    /// strip in one call and in a narrower remainder strip in the other.
    #[test]
    fn gemm_sub_block_invariance(m in 1usize..=9, n in 1usize..=2 * NR + 7,
                                 ki in 0usize..RAGGED_K.len(), row_mask in 1u64..512,
                                 col_mask in 1u64..1 << (2 * NR + 7), seed in 0u64..1000) {
        let pick = |len: usize, mask: u64| -> Vec<usize> {
            let set: Vec<usize> = (0..len).filter(|i| mask >> i & 1 == 1).collect();
            if set.is_empty() { vec![len - 1] } else { set }
        };
        check_sub_blocks(m, RAGGED_K[ki], n, &pick(m, row_mask), &pick(n, col_mask), seed);
    }

    /// The entry points (the AVX2 arm where the CPU has it) and the portable
    /// arm are one function of the operands, bit for bit, at any shape.
    #[test]
    fn gemm_dispatched_equals_portable(m in 1usize..=40, k in 1usize..=300, n in 1usize..=100,
                                       seed in 0u64..1000) {
        let (a, b, c0) = (vecf(m * k, seed), vecf(k * n, seed + 1), vecf(m * n, seed + 2));
        type Kernel = fn(&mut [f32], &[f32], &[f32], usize, usize, usize);
        let arms: [(Kernel, Kernel); 3] = [
            (gemm_acc, portable::gemm_acc),
            (gemm_tn_acc, portable::gemm_tn_acc),
            (gemm_nt_acc, portable::gemm_nt_acc),
        ];
        for (x, (dispatched, reference)) in arms.into_iter().enumerate() {
            let (mut got, mut want) = (c0.clone(), c0.clone());
            dispatched(&mut got, &a, &b, m, k, n);
            reference(&mut want, &a, &b, m, k, n);
            prop_assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()),
                         "kernel {x} ({m},{k},{n})");
        }
    }

    /// GEMM distributes over addition: (A+A')B == AB + A'B.
    #[test]
    fn gemm_linear_in_a(m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..1000) {
        let a1 = vecf(m * k, seed);
        let a2 = vecf(m * k, seed + 1);
        let b = vecf(k * n, seed + 2);
        let sum_a: Vec<f32> = a1.iter().zip(&a2).map(|(x, y)| x + y).collect();
        let mut c_sum = vec![0.0; m * n];
        gemm(&mut c_sum, &sum_a, &b, m, k, n);
        let mut c_sep = vec![0.0; m * n];
        gemm_acc(&mut c_sep, &a1, &b, m, k, n);
        gemm_acc(&mut c_sep, &a2, &b, m, k, n);
        for (x, y) in c_sum.iter().zip(&c_sep) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// (Aᵀ)ᵀ = A: gemm_tn on a transposed layout equals plain gemm.
    #[test]
    fn gemm_tn_consistent(m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1000) {
        let a = vecf(m * k, seed); // m×k
        let b = vecf(k * n, seed + 7);
        // Store explicit transpose (k×m) and multiply back.
        let mut a_t = vec![0.0; k * m];
        for i in 0..m {
            for l in 0..k {
                a_t[l * m + i] = a[i * k + l];
            }
        }
        let mut c1 = vec![0.0; m * n];
        gemm(&mut c1, &a, &b, m, k, n);
        let mut c2 = vec![0.0; m * n];
        gemm_tn_acc(&mut c2, &a_t, &b, m, k, n);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// gemm_nt against explicit transpose.
    #[test]
    fn gemm_nt_consistent(m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1000) {
        let a = vecf(m * k, seed);
        let b_t = vecf(n * k, seed + 3); // n×k
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for l in 0..k {
                b[l * n + j] = b_t[j * k + l];
            }
        }
        let mut c1 = vec![0.0; m * n];
        gemm(&mut c1, &a, &b, m, k, n);
        let mut c2 = vec![0.0; m * n];
        gemm_nt_acc(&mut c2, &a, &b_t, m, k, n);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// im2col/col2im adjointness for arbitrary geometry.
    #[test]
    fn im2col_adjoint(c in 1usize..3, h in 3usize..10, w in 3usize..10,
                      k in 1usize..4, stride in 1usize..3, pad in 0usize..2, seed in 0u64..500) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let oh = out_dim(h, k, stride, pad);
        let ow = out_dim(w, k, stride, pad);
        let x = vecf(c * h * w, seed);
        let y = vecf(c * k * k * oh * ow, seed + 1);
        let mut col = vec![0.0; y.len()];
        im2col(&x, &mut col, c, h, w, k, k, stride, pad);
        let lhs: f64 = col.iter().zip(&y).map(|(&a, &b)| (a * b) as f64).sum();
        let mut dx = vec![0.0; x.len()];
        col2im(&y, &mut dx, c, h, w, k, k, stride, pad);
        let rhs: f64 = x.iter().zip(&dx).map(|(&a, &b)| (a * b) as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    /// Conv2d backward is the adjoint of forward in its input
    /// (⟨conv(x), g⟩ = ⟨x, convᵀ(g)⟩ when weight grads are ignored).
    #[test]
    fn conv_input_adjoint(seed in 0u64..200, stride in 1usize..3, pad in 0usize..2) {
        let mut conv = Conv2d::new(2, 3, 3, stride, pad, false, seed);
        let x = Tensor::from_vec(vecf(2 * 2 * 7 * 6, seed + 1), &[2, 2, 7, 6]);
        let y = conv.forward(&x, true);
        let g = Tensor::from_vec(vecf(y.len(), seed + 2), y.shape());
        let dx = conv.backward(&g);
        let lhs: f64 = y.data().iter().zip(g.data()).map(|(&a, &b)| (a * b) as f64).sum();
        let rhs: f64 = x.data().iter().zip(dx.data()).map(|(&a, &b)| (a * b) as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    /// ReLU backward never increases gradient magnitude.
    #[test]
    fn relu_gradient_contraction(n in 1usize..100, seed in 0u64..1000) {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vecf(n, seed), &[n]);
        let _ = r.forward(&x, true);
        let g = Tensor::from_vec(vecf(n, seed + 1), &[n]);
        let dx = r.backward(&g);
        for (a, b) in dx.data().iter().zip(g.data()) {
            prop_assert!(a.abs() <= b.abs() + 1e-9);
        }
    }

    /// MaxPool forward outputs are always one of the window inputs, and the
    /// backward routes every gradient unit somewhere (sum preserved).
    #[test]
    fn maxpool_sum_preserved(h in 2usize..9, w in 2usize..9, seed in 0u64..500) {
        let mut p = MaxPool2d::new(2, 2, 0);
        let x = Tensor::from_vec(vecf(h * w, seed), &[1, 1, h, w]);
        let y = p.forward(&x, true);
        let g = Tensor::full(y.shape(), 1.0);
        let dx = p.backward(&g);
        let total: f32 = dx.data().iter().sum();
        prop_assert!((total - y.len() as f32).abs() < 1e-4);
    }

    /// GlobalAvgPool preserves the mean through the backward pass.
    #[test]
    fn gap_backward_spreads_evenly(c in 1usize..4, hw in 1usize..6, seed in 0u64..500) {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::from_vec(vecf(c * hw * hw, seed), &[1, c, hw, hw]);
        let _ = p.forward(&x, true);
        let g = Tensor::from_vec(vecf(c, seed + 1), &[1, c]);
        let dx = p.backward(&g);
        let gsum: f32 = g.data().iter().sum();
        let dsum: f32 = dx.data().iter().sum();
        prop_assert!((gsum - dsum).abs() < 1e-4 * gsum.abs().max(1.0));
    }

    /// Softmax-XE loss is non-negative, and ≤ ln K + margin for bounded logits.
    #[test]
    fn softmax_loss_bounds(n in 1usize..8, k in 2usize..10, seed in 0u64..1000) {
        let logits = Tensor::from_vec(vecf(n * k, seed), &[n, k]);
        let labels: Vec<usize> = (0..n).map(|i| i % k).collect();
        let out = SoftmaxCrossEntropy.forward(&logits, &labels);
        prop_assert!(out.loss >= 0.0);
        // logits bounded in [-2, 2] → loss ≤ ln K + 4.
        prop_assert!(out.loss <= (k as f64).ln() + 4.0);
        prop_assert!(out.correct <= n);
    }

    /// Linear layer: forward of a sum equals sum of forwards (linearity,
    /// bias cancels in the difference).
    #[test]
    fn linear_is_linear(inf in 1usize..10, outf in 1usize..10, seed in 0u64..500) {
        let mut l = Linear::new(inf, outf, seed);
        let x1 = Tensor::from_vec(vecf(inf, seed + 1), &[1, inf]);
        let x2 = Tensor::from_vec(vecf(inf, seed + 2), &[1, inf]);
        let y1 = l.forward(&x1, false);
        let y2 = l.forward(&x2, false);
        let xs = x1.add(&x2);
        let ys = l.forward(&xs, false);
        // y(x1+x2) + b == y(x1) + y(x2)  →  ys - y1 - y2 + b == 0; check
        // via the identity ys + y(0) == y1 + y2.
        let y0 = l.forward(&Tensor::zeros(&[1, inf]), false);
        for i in 0..outf {
            let lhs = ys.data()[i] + y0.data()[i];
            let rhs = y1.data()[i] + y2.data()[i];
            prop_assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
        }
    }
}
