//! Blocked matrix multiplication.
//!
//! Convolutions run as GEMMs against the image (see [`crate::im2col`]); the
//! linear layer and every backward pass are GEMMs too, so these kernels carry
//! nearly all of the training FLOPs — the CPU analogue of the cuDNN kernels
//! the paper drives.
//!
//! Two kernel shapes, both register tiles. [`gemm_acc`] and [`gemm_tn_acc`]
//! are AXPY-shaped (`C[i,·] += a · B[l,·]`, independent per element): a tile
//! of `MR × NR` elements of `C` is loaded into registers, takes every `l` of
//! a `K_PANEL` in ascending order — one strip of `B` loaded per `l` and
//! shared by the tile's rows — and is stored back once, so `C` costs a load
//! and a store per panel instead of per multiply-add. The two differ only in
//! the strides they read `A` by; rows and columns a whole tile does not cover
//! go through narrower instances of the same tile. The tile reads `B` through
//! a [`Strips`] source, each row from its own start: a dense matrix, or a
//! convolution's padded image, in which every row of the unrolled image is
//! contiguous (`crate::im2col::ConvGeom::strips`).
//! [`gemm_nt_acc`] has no independent inner loop — `C[i,j]` is a dot product
//! of two rows, one dependent chain that may not be reassociated — so it
//! splits each dot product over `LANES` interleaved partial sums, folds them
//! in a fixed order, and keeps a 2×2 tile of them in registers. It takes its
//! `B` rows a pair at a time from a [`RowSource`], which for a convolution
//! copies the pair out of the padded image just before it is used.
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
//! CPU. (A 512-bit arm is deliberately absent; ROADMAP.md item 3 has what
//! the trials of one read.)
//!
//! Row blocks go through `rayon`'s `par_chunks` API. The vendored shim runs
//! them in order on the calling thread; with the real crate they would be
//! distributed over its pool, with the same bits.

use std::ops::Range;

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

/// The strides `(rs, ls)` an AXPY kernel reads `A[i, l]` by: `a[i·rs + l·ls]`.
type Strides = (usize, usize);

/// The instruction set a kernel body is compiled for. The bodies are written
/// once; an `Isa` supplies the two leaf functions that must exist per
/// instruction set — everything above them is generic and everything below
/// them is `#[inline(always)]`.
trait Isa: Copy + Send + Sync {
    /// [`axpy_block`] compiled for this instruction set.
    fn axpy_block<S: RowStarts>(
        self,
        cb: &mut [f32],
        a: &[f32],
        strides: Strides,
        b: &Strips<S>,
        dest: Dest,
    );

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
    fn axpy_block<S: RowStarts>(
        self,
        cb: &mut [f32],
        a: &[f32],
        strides: Strides,
        b: &Strips<S>,
        dest: Dest,
    ) {
        axpy_block(cb, a, strides, b, dest)
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
    fn axpy_block<S: RowStarts>(
        self,
        cb: &mut [f32],
        a: &[f32],
        strides: Strides,
        b: &Strips<S>,
        dest: Dest,
    ) {
        // SAFETY: `axpy_block_avx2`'s only requirement is a CPU with AVX2,
        // and a value of `Avx2` exists only where `avx2_selected()` said so.
        unsafe { axpy_block_avx2(cb, a, strides, b, dest) }
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
fn axpy_block_avx2<S: RowStarts>(
    cb: &mut [f32],
    a: &[f32],
    strides: Strides,
    b: &Strips<S>,
    dest: Dest,
) {
    axpy_block(cb, a, strides, b, dest)
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
    use super::{Baseline, Dest, Strips};

    /// [`crate::gemm::gemm_acc`] on the baseline arm.
    pub fn gemm_acc(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        super::gemm_acc_on(Baseline, (c, Dest::Add), a, &Strips::dense(b, k, n), m)
    }

    /// [`crate::gemm::gemm_tn_acc`] on the baseline arm.
    pub fn gemm_tn_acc(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        super::gemm_tn_acc_on(Baseline, (c, Dest::Add), a, &Strips::dense(b, k, n), (0..m, m))
    }

    /// [`crate::gemm::gemm_nt_acc`] on the baseline arm.
    pub fn gemm_nt_acc(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        super::gemm_nt_acc_on(Baseline, c, a, &Strips::dense(b, n, k), (m, k, n))
    }
}

/// Where each row of a [`Strips`] source starts in its data.
pub(crate) trait RowStarts: Copy + Send + Sync {
    /// The offset of row `l`'s first element.
    fn at(self, l: usize) -> usize;
}

/// Rows a fixed distance apart: a dense row-major matrix.
#[derive(Clone, Copy)]
pub(crate) struct Pitch(usize);

impl RowStarts for Pitch {
    #[inline(always)]
    fn at(self, l: usize) -> usize {
        l * self.0
    }
}

/// Each row's start looked up: a convolution's taps, one per `(c, ki, kj)`.
impl RowStarts for &[usize] {
    #[inline(always)]
    fn at(self, l: usize) -> usize {
        self[l]
    }
}

/// The `B` of an AXPY kernel (`depth × n`) as its tile reads it: row `l`
/// is the `n` values of `data` from `starts.at(l)` on. A dense matrix's rows
/// are `n` apart; a convolution's are its taps' offsets into the padded
/// image, each of whose rows of `B` is contiguous there
/// (`crate::im2col::ConvGeom::strips`), so the tile loads the values the
/// unrolled matrix would hold without that matrix existing.
#[derive(Clone, Copy)]
pub(crate) struct Strips<'a, S> {
    pub data: &'a [f32],
    pub starts: S,
    pub depth: usize,
    pub n: usize,
}

impl<'a> Strips<'a, Pitch> {
    /// A dense row-major `rows × n` matrix.
    pub(crate) fn dense(b: &'a [f32], rows: usize, n: usize) -> Self {
        assert_eq!(b.len(), rows * n, "B size");
        Strips { data: b, starts: Pitch(n), depth: rows, n }
    }
}

/// The `W` values of `data` from `at` on.
#[inline(always)]
fn load<const W: usize>(data: &[f32], at: usize) -> [f32; W] {
    data[at..at + W].try_into().expect("W-wide strip")
}

/// `C[i0.., j0..] += Aₚ · Bₚ[·, j0..]` for one `R × W` register tile over
/// the `k` panel that starts at row `l0` of `b`: the accumulators are loaded
/// from `C` (or start at `+0.0` for a [`Dest::Write`] `C`'s first panel),
/// take `l` in ascending order — the `B` strip loaded once per `l`, the term
/// skipped where `A` is zero — and are stored back. `a_panel[l]` is the
/// tile's column `l` of `A`.
#[inline(always)]
fn axpy_tile<const R: usize, const W: usize, S: RowStarts>(
    (c, dest): (&mut [f32], Dest),
    (i0, j0): (usize, usize),
    a_panel: &[[f32; R]],
    (l0, b): (usize, &Strips<S>),
) {
    let n = b.n;
    let mut acc: [[f32; W]; R] = match dest {
        Dest::Write if l0 == 0 => [[0.0; W]; R],
        _ => std::array::from_fn(|r| load(c, (i0 + r) * n + j0)),
    };
    for (l, av) in (l0..).zip(a_panel) {
        let bv = load::<W>(b.data, b.starts.at(l) + j0);
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

/// Rows `i0..i0 + R` of a block over the `k` panel of `depth` rows from
/// `l0` on, in tiles `W0` wide and then — past the last whole one — `NR`, 4
/// and 1 wide: the same generic tile, so an element sees the same
/// operations wherever it falls.
///
/// The rows' panel of `A` is gathered once (`a[(i0 + r)·rs + l·ls]`), so the
/// tile loop reads it unit-stride whichever way `A` is stored.
#[inline(always)]
fn axpy_rows<const R: usize, const W0: usize, S: RowStarts>(
    (cb, dest): (&mut [f32], Dest),
    i0: usize,
    a: &[f32],
    (rs, ls): (usize, usize),
    (l0, depth): (usize, usize),
    b: &Strips<S>,
) {
    let mut a_panel = [[0.0f32; R]; K_PANEL];
    let a_panel = &mut a_panel[..depth];
    for (l, av) in a_panel.iter_mut().enumerate() {
        *av = std::array::from_fn(|r| a[(i0 + r) * rs + (l0 + l) * ls]);
    }
    let panel = (l0, b);
    // (Where `W0 == NR` the second sweep finds no whole tile left.)
    let j = axpy_strips::<R, W0, S>((cb, dest), (i0, 0), a_panel, panel);
    let j = axpy_strips::<R, NR, S>((cb, dest), (i0, j), a_panel, panel);
    let j = axpy_strips::<R, 4, S>((cb, dest), (i0, j), a_panel, panel);
    axpy_strips::<R, 1, S>((cb, dest), (i0, j), a_panel, panel);
}

/// `R × W` tiles from column `j` on while a whole one fits; returns the
/// first column left uncovered.
#[inline(always)]
fn axpy_strips<const R: usize, const W: usize, S: RowStarts>(
    (cb, dest): (&mut [f32], Dest),
    (i0, mut j): (usize, usize),
    a_panel: &[[f32; R]],
    panel: (usize, &Strips<S>),
) -> usize {
    while j + W <= panel.1.n {
        axpy_tile::<R, W, S>((&mut *cb, dest), (i0, j), a_panel, panel);
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
fn axpy_block<S: RowStarts>(
    cb: &mut [f32],
    a: &[f32],
    strides: Strides,
    b: &Strips<S>,
    dest: Dest,
) {
    let rows = cb.len() / b.n;
    let whole = rows - rows % MR;
    for l0 in (0..b.depth).step_by(K_PANEL) {
        let panel = (l0, K_PANEL.min(b.depth - l0));
        for i in (0..whole).step_by(MR) {
            axpy_rows::<MR, NR, S>((&mut *cb, dest), i, a, strides, panel, b);
        }
        for i in whole..rows {
            axpy_rows::<1, NR_ROW, S>((&mut *cb, dest), i, a, strides, panel, b);
        }
    }
}

/// What an AXPY kernel does to `C`: add the product to it, or write the
/// product into it — the bits of zeroing `C` and adding, without the
/// zeroing pass or the loads of the zeros.
#[derive(Clone, Copy)]
enum Dest {
    Add,
    Write,
}

/// `C[m×n] (+)= A[m×k] · B` for `B` read through `b` (`k × n`).
fn gemm_acc_on<I: Isa, S: RowStarts>(
    isa: I,
    (c, dest): (&mut [f32], Dest),
    a: &[f32],
    b: &Strips<S>,
    m: usize,
) {
    let (k, n) = (b.depth, b.n);
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(c.len(), m * n, "C size");
    if m == 0 || n == 0 || k == 0 {
        if let Dest::Write = dest {
            c.fill(0.0);
        }
        return;
    }
    c.par_chunks_mut(M_BLOCK * n)
        .zip(a.par_chunks(M_BLOCK * k))
        .for_each(|(cb, ab)| isa.axpy_block(cb, ab, (k, 1), b, dest));
}

/// Rows `rows` of `Aᵀ · B` added or written into `c` (`rows.len() × n`),
/// where `A` is stored `k × m`.
fn gemm_tn_acc_on<I: Isa>(
    isa: I,
    (c, dest): (&mut [f32], Dest),
    a: &[f32],
    b: &Strips<Pitch>,
    (rows, m): (Range<usize>, usize),
) {
    let (k, n) = (b.depth, b.n);
    assert_eq!(a.len(), k * m, "A size (stored k×m)");
    assert!(rows.end <= m, "rows {rows:?} of a {m}-row product");
    assert_eq!(c.len(), rows.len() * n, "C size");
    if rows.is_empty() || n == 0 || k == 0 {
        if let Dest::Write = dest {
            c.fill(0.0);
        }
        return;
    }
    // Row `i` of the block that starts at row `i0` reads `A[l, rows.start + i0 + i]`.
    c.par_chunks_mut(M_BLOCK * n).enumerate().for_each(|(blk, cb)| {
        isa.axpy_block(cb, &a[rows.start + blk * M_BLOCK..], (1, m), b, dest)
    });
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

/// The `B` of [`gemm_nt_acc`] (`n × k`, stored by rows) as its outer loop
/// reads it: `NT_TILE` rows at a time, each group met by every row of `A` in
/// the block before the next group is asked for.
pub(crate) trait RowSource: Sync {
    /// Rows `rows` of `B`, back to back. A source that has to build them
    /// writes them into `scratch` and returns that.
    fn rows<'a>(&'a self, rows: Range<usize>, scratch: &'a mut Vec<f32>) -> &'a [f32];
}

/// A dense matrix hands out its rows where they lie.
impl RowSource for Strips<'_, Pitch> {
    fn rows<'a>(&'a self, rows: Range<usize>, _: &'a mut Vec<f32>) -> &'a [f32] {
        &self.data[rows.start * self.n..rows.end * self.n]
    }
}

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

/// `C[i0.., j0..] += A[i0..][..R] · B[j0..][..W]ᵀ` for one register tile;
/// `bj` holds rows `j0..j0 + W` of `B`, back to back.
#[inline(always)]
fn nt_tile<I: Isa, const R: usize, const W: usize>(
    isa: I,
    c: &mut [f32],
    a: &[f32],
    bj: &[f32],
    (i0, j0): (usize, usize),
    (k, n): (usize, usize),
) {
    let d = isa.dot_tile::<R, W>(
        std::array::from_fn(|i| &a[(i0 + i) * k..(i0 + i + 1) * k]),
        std::array::from_fn(|j| &bj[j * k..(j + 1) * k]),
    );
    for (i, di) in d.iter().enumerate() {
        let ct = &mut c[(i0 + i) * n + j0..][..W];
        ct.iter_mut().zip(di).for_each(|(cv, dv)| *cv += dv);
    }
}

fn gemm_nt_acc_on<I: Isa, B: RowSource>(
    isa: I,
    c: &mut [f32],
    a: &[f32],
    b: &B,
    (m, k, n): (usize, usize, usize),
) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(c.len(), m * n, "C size");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // One block of `A` rows: each pair of `B` rows meets all of them before
    // the next pair is read, so a batch-2 `Linear::forward` streams its
    // weight matrix once and a convolution copies each pair of its `col`
    // rows once per block.
    let block = |cb: &mut [f32], ab: &[f32]| {
        let rows = cb.len() / n;
        let mut scratch = Vec::new();
        for j in (0..n).step_by(NT_TILE) {
            let bj = b.rows(j..n.min(j + NT_TILE), &mut scratch);
            for i in (0..rows).step_by(NT_TILE) {
                match (NT_TILE.min(rows - i), NT_TILE.min(n - j)) {
                    (2, 2) => nt_tile::<I, 2, 2>(isa, cb, ab, bj, (i, j), (k, n)),
                    (2, 1) => nt_tile::<I, 2, 1>(isa, cb, ab, bj, (i, j), (k, n)),
                    (1, 2) => nt_tile::<I, 1, 2>(isa, cb, ab, bj, (i, j), (k, n)),
                    _ => nt_tile::<I, 1, 1>(isa, cb, ab, bj, (i, j), (k, n)),
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
    dispatch!(gemm_acc_on((c, Dest::Add), a, &Strips::dense(b, k, n), m))
}

/// `C = A · B` with `B` read through a [`Strips`] source: a convolution's
/// forward, straight from its padded image. `C` is written, with the bits
/// [`gemm_acc`] gives a zeroed `C`.
pub(crate) fn gemm_strips<S: RowStarts>(c: &mut [f32], a: &[f32], b: &Strips<S>, m: usize) {
    dispatch!(gemm_acc_on((c, Dest::Write), a, b, m))
}

/// `C[m×n] = A[m×k] · B[k×n]` (overwrites C).
pub fn gemm(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    c.iter_mut().for_each(|x| *x = 0.0);
    gemm_acc(c, a, b, m, k, n);
}

/// `C[m×n] += Aᵀ · B` where `A` is `k×m` row-major (i.e. multiply by the
/// transpose of a stored matrix without materializing it).
pub fn gemm_tn_acc(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    dispatch!(gemm_tn_acc_on((c, Dest::Add), a, &Strips::dense(b, k, n), (0..m, m)))
}

/// Rows `rows` of `Aᵀ · B` written into `c` (`rows.len() × n`): the bits
/// those rows get from [`gemm_tn_acc`] into a zeroed `C`.
pub(crate) fn gemm_tn_rows(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    rows: Range<usize>,
    (m, k, n): (usize, usize, usize),
) {
    dispatch!(gemm_tn_acc_on((c, Dest::Write), a, &Strips::dense(b, k, n), (rows, m)))
}

/// `C[m×n] += A[m×k] · Bᵀ` where `B` is `n×k` row-major.
///
/// Every `C[i,j]` is one [`dot_tile`] dot product added to its old value, so
/// a row or column subset computed in a separate call has the same bits.
pub fn gemm_nt_acc(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    dispatch!(gemm_nt_acc_on(c, a, &Strips::dense(b, n, k), (m, k, n)))
}

/// [`gemm_nt_acc`] with the rows of `B` (`n × k`) read through a
/// [`RowSource`]: a convolution's weight gradient, its unrolled rows copied
/// out of the padded image a pair at a time.
pub(crate) fn gemm_nt_rows_acc<B: RowSource>(
    c: &mut [f32],
    a: &[f32],
    b: &B,
    (m, k, n): (usize, usize, usize),
) {
    dispatch!(gemm_nt_acc_on(c, a, b, (m, k, n)))
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
