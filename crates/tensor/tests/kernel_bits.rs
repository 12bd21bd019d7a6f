//! The GEMM kernels, bit for bit: the dispatching entry points (the AVX2 arm
//! where the CPU has it), the `gemm::portable` arm, and the operation
//! sequence each kernel is *defined* by — written out below as the plainest
//! loop that performs it — must agree in every `to_bits()`.
//!
//! The written-out loops are what the kernels computed before they held a
//! tile of `C` in registers, so they pin those bits: every trainer golden
//! (loss bits, CRCs, `step == step_streamed`) rests on them. The property is
//! about optimised code — `ci.sh` runs this file in release too.

use dcnn_tensor::gemm::{self, portable, MR, NR};

type Kernel = fn(&mut [f32], &[f32], &[f32], usize, usize, usize);

/// `C += A·B` (or `Aᵀ·B` with `A` stored `k×m`) as defined: for each row,
/// `l` ascending, one AXPY per non-zero `A` value.
fn axpy_reference(c: &mut [f32], a_at: impl Fn(usize, usize) -> f32, b: &[f32], k: usize, n: usize) {
    for (i, ci) in c.chunks_mut(n).enumerate() {
        for l in 0..k {
            let av = a_at(i, l);
            if av != 0.0 {
                for j in 0..n {
                    ci[j] += av * b[l * n + j];
                }
            }
        }
    }
}

fn nn_reference(c: &mut [f32], a: &[f32], b: &[f32], _m: usize, k: usize, n: usize) {
    axpy_reference(c, |i, l| a[i * k + l], b, k, n);
}

fn tn_reference(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    axpy_reference(c, |i, l| a[l * m + i], b, k, n);
}

/// `C += A·Bᵀ` as defined: each dot product over eight interleaved partial
/// sums (lane `t` takes `l ≡ t mod 8`, ascending), folded
/// `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))`, then added to `C`.
fn nt_reference(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut s = [0.0f32; 8];
            for l in 0..k {
                s[l % 8] += a[i * k + l] * b[j * k + l];
            }
            c[i * n + j] += ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
        }
    }
}

/// (name, dispatching entry point, portable arm, definition).
const KERNELS: [(&str, Kernel, Kernel, Kernel); 3] = [
    ("gemm_acc", gemm::gemm_acc, portable::gemm_acc, nn_reference),
    ("gemm_tn_acc", gemm::gemm_tn_acc, portable::gemm_tn_acc, tn_reference),
    ("gemm_nt_acc", gemm::gemm_nt_acc, portable::gemm_nt_acc, nt_reference),
];

/// Seeded values in about `[-2, 2]`, every seventh one an exact zero (as a
/// ReLU output or a masked gradient would be).
fn values(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if i % 7 == 3 {
                0.0
            } else {
                ((s % 4001) as f32 - 2000.0) / 1000.0
            }
        })
        .collect()
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// All three arms of one kernel on the same operands.
fn check(kernel: usize, (a, b, c0): (&[f32], &[f32], &[f32]), (m, k, n): (usize, usize, usize)) {
    let (name, dispatched, portable, reference) = KERNELS[kernel];
    let run = |f: Kernel| {
        let mut c = c0.to_vec();
        f(&mut c, a, b, m, k, n);
        bits(&c)
    };
    let want = run(reference);
    assert_eq!(run(portable), want, "portable {name} ({m},{k},{n}) != its definition");
    assert_eq!(run(dispatched), want, "dispatched {name} ({m},{k},{n}) != its definition");
}

/// Every kernel at one logical shape `m×k×n`, on seeded operands.
fn check_shape(shape: (usize, usize, usize), seed: u64) {
    let (m, k, n) = shape;
    let (a, b, c0) = (values(m * k, seed), values(k * n, seed + 1), values(m * n, seed + 2));
    for kernel in 0..KERNELS.len() {
        check(kernel, (&a, &b, &c0), shape);
    }
}

/// `ResNetConfig::tiny` on 32×32 inputs, layer by layer: (out_c, in_c·kh·kw,
/// oh·ow) of the stem, the three stages' 3×3 convolutions and the two 1×1
/// stride-2 projections.
const TINY_CONVS: [(usize, usize, usize); 8] = [
    (8, 27, 1024),
    (8, 72, 1024),
    (16, 72, 256),
    (16, 144, 256),
    (16, 8, 256),
    (32, 144, 64),
    (32, 288, 64),
    (32, 16, 64),
];

#[test]
fn every_conv_shape_of_the_tiny_resnet_is_bitwise() {
    for (s, &(out_c, k2, ohow)) in TINY_CONVS.iter().enumerate() {
        // Forward `y = W·col` and `gW += g·colᵀ` share one logical shape per
        // kernel; `gcol = Wᵀ·g` is the transpose.
        check_shape((out_c, k2, ohow), 10 * s as u64);
        check_shape((k2, out_c, ohow), 10 * s as u64 + 5);
        check_shape((out_c, ohow, k2), 10 * s as u64 + 7);
    }
}

#[test]
fn probe_and_fc_shapes_are_bitwise() {
    // The benchmark's conv-shape and fc-shape probes, and what a batch-2
    // `Linear` (1024 → 1024) calls: forward nt, weight gradient tn, input
    // gradient nn.
    for (s, shape) in [(16, 144, 2048), (144, 16, 2048), (2, 1024, 1024), (1024, 2, 1024)]
        .into_iter()
        .enumerate()
    {
        check_shape(shape, 100 + s as u64);
    }
}

#[test]
fn shapes_straddling_every_tile_edge_are_bitwise() {
    // Rows around the register tile and the 32-row block; columns around
    // the 4-wide, `NR`-wide and one-row (`MR·NR`-wide) strips; depths around
    // the eight dot-product lanes and the 256-deep `k` panel.
    let ms = [1, MR - 1, MR, MR + 1, 2 * MR + 3, 31, 33];
    let ns = [1, 3, 5, NR - 1, NR, NR + 1, 2 * NR + 3, MR * NR - 1, MR * NR, MR * NR + NR + 5];
    let ks = [1, 2, 7, 8, 9, 255, 256, 257, 515];
    for (x, &m) in ms.iter().enumerate() {
        for (y, &n) in ns.iter().enumerate() {
            for (z, &k) in ks.iter().enumerate() {
                check_shape((m, k, n), (x * 100 + y * 10 + z) as u64);
            }
        }
    }
}

#[test]
fn a_zero_in_a_skips_its_term_in_the_axpy_kernels() {
    // Where `A` is exactly zero the AXPY kernels perform no operation at
    // all, and that is observable: `C` keeps a `-0.0` that `+ 0.0·b` would
    // turn into `+0.0`, and stays finite where `0.0·inf` or `0.0·NaN` would
    // poison it. A tile must not trade the skip for a multiply by zero.
    let (m, k, n) = (MR + 2, 9, 2 * NR + 3);
    // Row 0 of the logical A is all zeros, row 1 is zero wherever B is not
    // finite, the rest is dense.
    let mut a = values(m * k, 1);
    let mut b = values(k * n, 2);
    for (l, av) in a[..k].iter_mut().enumerate() {
        *av = if l % 2 == 0 { 0.0 } else { -0.0 };
    }
    for (l, poison) in [(2, f32::INFINITY), (5, f32::NAN), (7, f32::NEG_INFINITY)] {
        a[k + l] = 0.0;
        for j in (0..n).step_by(3) {
            b[l * n + j] = poison;
        }
    }
    let c0: Vec<f32> = (0..m * n).map(|i| if i % 2 == 0 { -0.0 } else { 1.5 }).collect();
    let a_t: Vec<f32> = (0..k * m).map(|i| a[(i % m) * k + i / m]).collect();

    for (kernel, a) in [(0, &a), (1, &a_t)] {
        check(kernel, (a, &b, &c0), (m, k, n));
        let mut c = c0.clone();
        KERNELS[kernel].1(&mut c, a, &b, m, k, n);
        assert_eq!(bits(&c[..n]), bits(&c0[..n]), "{}: an all-zero row of A", KERNELS[kernel].0);
        assert!(c[n..2 * n].iter().all(|v| v.is_finite()), "{}: 0·inf was computed", KERNELS[kernel].0);
        assert!(c[2 * n..].iter().any(|v| v.is_nan()), "{}: dense rows meet the NaNs", KERNELS[kernel].0);
    }
}

#[test]
fn gemm_overwrites_with_the_accumulating_kernel_from_zero() {
    let (m, k, n) = (MR + 1, 40, NR + 7);
    let (a, b) = (values(m * k, 8), values(k * n, 9));
    let mut c = vec![f32::NAN; m * n];
    gemm::gemm(&mut c, &a, &b, m, k, n);
    let mut want = vec![0.0; m * n];
    nn_reference(&mut want, &a, &b, m, k, n);
    assert_eq!(bits(&c), bits(&want));
}
