//! Blocked matrix multiplication.
//!
//! Convolutions lower to GEMM (see [`crate::im2col`]); the linear layer and
//! every backward pass do too, so these kernels carry nearly all of the
//! training FLOPs — the CPU analogue of the cuDNN kernels the paper drives.
//!
//! Two kernel shapes, both register tiles. [`gemm_acc`] and [`gemm_tn_acc`]
//! are AXPY-shaped (`C[i,·] += a · B[l,·]`, independent per element): a tile
//! of `MR × NR` elements of `C` is loaded into registers, takes every `l` of
//! a `K_PANEL` in ascending order — one strip of `B` loaded per `l` and
//! shared by the tile's rows — and is stored back once, so `C` costs a load
//! and a store per panel instead of per multiply-add. The two differ only in
//! the strides they read `A` by; rows and columns a whole tile does not cover
//! go through narrower instances of the same tile. [`gemm_nt_acc`] has no
//! independent inner loop — `C[i,j]` is a dot product of two rows, one
//! dependent chain that may not be reassociated — so it splits each dot
//! product over `LANES` interleaved partial sums, folds them in a fixed
//! order, and keeps a 2×2 tile of them in registers.
//!
//! Every kernel's result is a pure function of its operands: `C[i,j]` comes
//! from one operation sequence set by `k` (and, for the AXPY kernels, by
//! which `A` values are zero: those terms are skipped, which is observable
//! when `B` holds an infinity or `C` a `-0.0`), whatever `m`, `n`, the tile
//! it falls in or the calls made before. A tile only decides *where* an
//! element waits between two of its operations — a register or memory —
//! never which operations it sees or in what order. Splitting a batch over
//! replicas or calls therefore cannot change a bit.
//!
//! Each kernel body is compiled twice: once for the build's baseline target
//! ([`portable`], the only arm off x86_64 and the reference tests and
//! `dcnn-perf` compare against) and, on x86_64, once under
//! `#[target_feature(enable = "avx2")]`, where a tile row is two 256-bit
//! registers instead of four 128-bit ones. The entry points pick the arm
//! from [`avx2_selected`] once per call. Both arms multiply, then add — rustc
//! never contracts `a * b + c` into a fused multiply-add, and no arm enables
//! `fma` — and an IEEE multiply or add rounds a lane the same at any vector
//! width, so the arms agree to the bit and no golden value depends on the
//! CPU. (A 512-bit arm is deliberately absent; ROADMAP.md item 2 has what
//! the trials of one read.)
//!
//! Row blocks go through `rayon`'s `par_chunks` API. The vendored shim runs
//! them in order on the calling thread; with the real crate they would be
//! distributed over its pool, with the same bits.

use rayon::prelude::*;

/// Rows of `C` per `par_chunks` task (a block of `A` rows stays in L1
/// while a `K_PANEL × n` slice of `B` streams through L2).
const M_BLOCK: usize = 32;

/// Depth of the `k` panel kept hot in cache per pass: a tile's accumulators
/// go back to `C` once per panel.
const K_PANEL: usize = 256;

/// Rows of a full register tile of the AXPY kernels.
pub const MR: usize = 4;

/// Columns of a full register tile of the AXPY kernels: with `MR` rows,
/// eight 256-bit accumulators — enough independent add chains to hide the
/// add latency, with registers left for the `B` strip.
pub const NR: usize = 16;

/// Whether the entry points of this module run their AVX2 arm in this
/// process — the one place the CPU is asked. Public so `dcnn-perf` holds the
/// `gemm/*` pairs to the wide arm's floor only where that arm is what runs.
#[inline]
pub fn avx2_selected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The instruction set a kernel body is compiled for. The bodies are written
/// once; an `Isa` supplies the two leaf functions that must exist per
/// instruction set — everything above them is generic and everything below
/// them is `#[inline(always)]`.
trait Isa: Copy + Send + Sync {
    /// [`axpy_block`] compiled for this instruction set.
    fn axpy_block(self, cb: &mut [f32], a: &[f32], strides: (usize, usize), b: &[f32], n: usize);

    /// [`dot_tile`] compiled for this instruction set.
    fn dot_tile<const R: usize, const W: usize>(
        self,
        a: [&[f32]; R],
        b: [&[f32]; W],
    ) -> [[f32; W]; R];
}

/// The build's baseline target.
#[derive(Clone, Copy)]
struct Baseline;

impl Isa for Baseline {
    fn axpy_block(self, cb: &mut [f32], a: &[f32], strides: (usize, usize), b: &[f32], n: usize) {
        axpy_block(cb, a, strides, b, n)
    }

    // Compiled on its own LLVM keeps the accumulators in vector registers;
    // inlined into the tile loop it does not (9 against 25 GFLOP/s at 16×2048×144).
    #[inline(never)]
    fn dot_tile<const R: usize, const W: usize>(
        self,
        a: [&[f32]; R],
        b: [&[f32]; W],
    ) -> [[f32; W]; R] {
        dot_tile(a, b)
    }
}

/// Proof that this CPU has AVX2: the only constructor is [`Avx2::detect`].
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx2(());

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    fn detect() -> Option<Self> {
        avx2_selected().then_some(Avx2(()))
    }
}

#[cfg(target_arch = "x86_64")]
impl Isa for Avx2 {
    #[inline(always)]
    fn axpy_block(self, cb: &mut [f32], a: &[f32], strides: (usize, usize), b: &[f32], n: usize) {
        // SAFETY: `axpy_block_avx2`'s only requirement is a CPU with AVX2,
        // and a value of `Avx2` exists only where `avx2_selected()` said so.
        unsafe { axpy_block_avx2(cb, a, strides, b, n) }
    }

    #[inline(always)]
    fn dot_tile<const R: usize, const W: usize>(
        self,
        a: [&[f32]; R],
        b: [&[f32]; W],
    ) -> [[f32; W]; R] {
        // SAFETY: `dot_tile_avx2`'s only requirement is a CPU with AVX2,
        // and a value of `Avx2` exists only where `avx2_selected()` said so.
        unsafe { dot_tile_avx2(a, b) }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn axpy_block_avx2(cb: &mut [f32], a: &[f32], strides: (usize, usize), b: &[f32], n: usize) {
    axpy_block(cb, a, strides, b, n)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn dot_tile_avx2<const R: usize, const W: usize>(a: [&[f32]; R], b: [&[f32]; W]) -> [[f32; W]; R] {
    dot_tile(a, b)
}

/// The same kernels as the entry points of [`crate::gemm`], always on the
/// arm compiled for the build's baseline target: what runs off x86_64 and on
/// CPUs without AVX2, and what tests and `dcnn-perf` compare the dispatching
/// entry points against, bit for bit.
pub mod portable {
    use super::Baseline;

    /// [`crate::gemm::gemm_acc`] on the baseline arm.
    pub fn gemm_acc(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        super::gemm_acc_on(Baseline, c, a, b, m, k, n)
    }

    /// [`crate::gemm::gemm_tn_acc`] on the baseline arm.
    pub fn gemm_tn_acc(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        super::gemm_tn_acc_on(Baseline, c, a, b, m, k, n)
    }

    /// [`crate::gemm::gemm_nt_acc`] on the baseline arm.
    pub fn gemm_nt_acc(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        super::gemm_nt_acc_on(Baseline, c, a, b, m, k, n)
    }
}

/// `C[i0.., j0..] += Aₚ · Bₚ[·, j0..]` for one `R × W` register tile over
/// one `k` panel: the accumulators are loaded from `C`, take `l` in ascending
/// order — the `B` strip loaded once per `l`, the term skipped where `A` is
/// zero — and are stored back. `a_panel[l]` is the tile's column `l` of `A`,
/// `b_panel` the matching rows of `B`.
#[inline(always)]
fn axpy_tile<const R: usize, const W: usize>(
    c: &mut [f32],
    (i0, j0): (usize, usize),
    a_panel: &[[f32; R]],
    b_panel: &[f32],
    n: usize,
) {
    let strip = |row: &[f32]| -> [f32; W] { row[j0..j0 + W].try_into().expect("W-wide strip") };
    let mut acc: [[f32; W]; R] = std::array::from_fn(|r| strip(&c[(i0 + r) * n..(i0 + r + 1) * n]));
    for (av, b_row) in a_panel.iter().zip(b_panel.chunks_exact(n)) {
        let bv = strip(b_row);
        for r in 0..R {
            if av[r] != 0.0 {
                for t in 0..W {
                    acc[r][t] += av[r] * bv[t];
                }
            }
        }
    }
    for r in 0..R {
        c[(i0 + r) * n + j0..][..W].copy_from_slice(&acc[r]);
    }
}

/// Columns of a one-row tile: the same eight accumulators as an `MR × NR`
/// tile, laid along the row.
const NR_ROW: usize = MR * NR;

/// Rows `i0..i0 + R` of a block over one `k` panel, in tiles `W0` wide and
/// then — past the last whole one — `NR`, 4 and 1 wide: the same generic
/// tile, so an element sees the same operations wherever it falls.
///
/// The rows' panel of `A` is gathered once (`a[(i0 + r)·rs + l·ls]`), so the
/// tile loop reads it unit-stride whichever way `A` is stored.
#[inline(always)]
fn axpy_rows<const R: usize, const W0: usize>(
    cb: &mut [f32],
    i0: usize,
    a: &[f32],
    (rs, ls): (usize, usize),
    (l0, b_panel): (usize, &[f32]),
    n: usize,
) {
    let mut a_panel = [[0.0f32; R]; K_PANEL];
    let a_panel = &mut a_panel[..b_panel.len() / n];
    for (l, av) in a_panel.iter_mut().enumerate() {
        *av = std::array::from_fn(|r| a[(i0 + r) * rs + (l0 + l) * ls]);
    }
    // (Where `W0 == NR` the second sweep finds no whole tile left.)
    let j = axpy_strips::<R, W0>(cb, (i0, 0), a_panel, b_panel, n);
    let j = axpy_strips::<R, NR>(cb, (i0, j), a_panel, b_panel, n);
    let j = axpy_strips::<R, 4>(cb, (i0, j), a_panel, b_panel, n);
    axpy_strips::<R, 1>(cb, (i0, j), a_panel, b_panel, n);
}

/// `R × W` tiles from column `j` on while a whole one fits; returns the
/// first column left uncovered.
#[inline(always)]
fn axpy_strips<const R: usize, const W: usize>(
    cb: &mut [f32],
    (i0, mut j): (usize, usize),
    a_panel: &[[f32; R]],
    b_panel: &[f32],
    n: usize,
) -> usize {
    while j + W <= n {
        axpy_tile::<R, W>(cb, (i0, j), a_panel, b_panel, n);
        j += W;
    }
    j
}

/// One row block of an AXPY kernel: `cb[r, ·] += Σ_l a[r·rs + l·ls] · B[l, ·]`
/// with `(rs, ls) = strides` — `(k, 1)` reads `A` as stored (`gemm_acc`),
/// `(1, m)` reads it transposed (`gemm_tn_acc`).
///
/// For each `k` panel, `MR` rows at a time sweep the panel of `B` in `NR`-wide
/// tiles; the rows past the last whole tile (all of them when `m < MR`) go
/// one at a time in `NR_ROW`-wide tiles.
#[inline(always)]
fn axpy_block(cb: &mut [f32], a: &[f32], strides: (usize, usize), b: &[f32], n: usize) {
    let rows = cb.len() / n;
    let whole = rows - rows % MR;
    for (p, b_panel) in b.chunks(K_PANEL * n).enumerate() {
        let panel = (p * K_PANEL, b_panel);
        for i in (0..whole).step_by(MR) {
            axpy_rows::<MR, NR>(cb, i, a, strides, panel, n);
        }
        for i in whole..rows {
            axpy_rows::<1, NR_ROW>(cb, i, a, strides, panel, n);
        }
    }
}

fn gemm_acc_on<I: Isa>(isa: I, c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    c.par_chunks_mut(M_BLOCK * n)
        .zip(a.par_chunks(M_BLOCK * k))
        .for_each(|(cb, ab)| isa.axpy_block(cb, ab, (k, 1), b, n));
}

fn gemm_tn_acc_on<I: Isa>(
    isa: I,
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), k * m, "A size (stored k×m)");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Row `i` of the block that starts at row `i0` reads `A[l, i0 + i]`.
    c.par_chunks_mut(M_BLOCK * n)
        .enumerate()
        .for_each(|(blk, cb)| isa.axpy_block(cb, &a[blk * M_BLOCK..], (1, m), b, n));
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

/// Rows of `A` and of `B` per register tile of [`gemm_nt_acc`]: each loaded
/// chunk feeds two of the four `LANES`-wide accumulators (one 256-bit
/// register each on the AVX2 arm, two 128-bit ones on the baseline).
const NT_TILE: usize = 2;

/// Dot products of `R` rows of `A` with `W` rows of `B` (all of one length),
/// each as `LANES` interleaved partial sums folded in a fixed order.
///
/// Lane `t` of a pair sums `a[l]·b[l]` over `l ≡ t (mod LANES)` in ascending
/// `l`, then [`fold_lanes`]. The sequence depends on the length alone, so a
/// dot product has the same bits in every tile shape and position.
#[inline(always)]
fn dot_tile<const R: usize, const W: usize>(a: [&[f32]; R], b: [&[f32]; W]) -> [[f32; W]; R] {
    let k = a[0].len();
    let a = a.map(|r| &r[..k]);
    let b = b.map(|r| &r[..k]);
    let chunk = |r: &[f32], l: usize| -> [f32; LANES] {
        r[l..l + LANES].try_into().expect("LANES-long chunk")
    };
    let mut acc = [[[0.0f32; LANES]; W]; R];
    for l in (0..k - k % LANES).step_by(LANES) {
        let av = a.map(|r| chunk(r, l));
        let bv = b.map(|r| chunk(r, l));
        for i in 0..R {
            for j in 0..W {
                for t in 0..LANES {
                    acc[i][j][t] += av[i][t] * bv[j][t];
                }
            }
        }
    }
    for (t, l) in (k - k % LANES..k).enumerate() {
        for i in 0..R {
            for j in 0..W {
                acc[i][j][t] += a[i][l] * b[j][l];
            }
        }
    }
    acc.map(|row| row.map(fold_lanes))
}

/// `C[i0.., j0..] += A[i0..][..R] · B[j0..][..W]ᵀ` for one register tile.
#[inline(always)]
fn nt_tile<I: Isa, const R: usize, const W: usize>(
    isa: I,
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    (i0, j0): (usize, usize),
    (k, n): (usize, usize),
) {
    let d = isa.dot_tile::<R, W>(
        std::array::from_fn(|i| &a[(i0 + i) * k..(i0 + i + 1) * k]),
        std::array::from_fn(|j| &b[(j0 + j) * k..(j0 + j + 1) * k]),
    );
    for (i, di) in d.iter().enumerate() {
        let ct = &mut c[(i0 + i) * n + j0..][..W];
        ct.iter_mut().zip(di).for_each(|(cv, dv)| *cv += dv);
    }
}

fn gemm_nt_acc_on<I: Isa>(
    isa: I,
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
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
                    (2, 2) => nt_tile::<I, 2, 2>(isa, cb, ab, b, (i, j), (k, n)),
                    (2, 1) => nt_tile::<I, 2, 1>(isa, cb, ab, b, (i, j), (k, n)),
                    (1, 2) => nt_tile::<I, 1, 2>(isa, cb, ab, b, (i, j), (k, n)),
                    _ => nt_tile::<I, 1, 1>(isa, cb, ab, b, (i, j), (k, n)),
                }
            }
        }
    };
    c.par_chunks_mut(M_BLOCK * n).zip(a.par_chunks(M_BLOCK * k)).for_each(|(cb, ab)| block(cb, ab));
}

/// Run `$kernel` on the arm this CPU selects.
macro_rules! dispatch {
    ($kernel:ident($($arg:expr),*)) => {{
        #[cfg(target_arch = "x86_64")]
        if let Some(wide) = Avx2::detect() {
            return $kernel(wide, $($arg),*);
        }
        $kernel(Baseline, $($arg),*)
    }};
}

/// `C[m×n] += A[m×k] · B[k×n]` (all row-major), register-tiled over
/// `(m, n)` and cache-tiled over `(m, k)`, one task per row block.
///
/// # Panics
/// Panics if the slice lengths don't match the dimensions.
pub fn gemm_acc(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    dispatch!(gemm_acc_on(c, a, b, m, k, n))
}

/// `C[m×n] = A[m×k] · B[k×n]` (overwrites C).
pub fn gemm(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    c.iter_mut().for_each(|x| *x = 0.0);
    gemm_acc(c, a, b, m, k, n);
}

/// `C[m×n] += Aᵀ · B` where `A` is `k×m` row-major (i.e. multiply by the
/// transpose of a stored matrix without materializing it).
pub fn gemm_tn_acc(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    dispatch!(gemm_tn_acc_on(c, a, b, m, k, n))
}

/// `C[m×n] += A[m×k] · Bᵀ` where `B` is `n×k` row-major.
///
/// Every `C[i,j]` is one [`dot_tile`] dot product added to its old value, so
/// a row or column subset computed in a separate call has the same bits.
pub fn gemm_nt_acc(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    dispatch!(gemm_nt_acc_on(c, a, b, m, k, n))
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
