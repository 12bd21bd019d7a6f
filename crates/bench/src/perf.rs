//! The in-CI kernel tripwire: every hot-path kernel that replaced simpler
//! code — the frame encoder under every TCP send, the CRC-32 under every
//! frame and blob record, the windowed decode under every training batch,
//! the GEMM kernels under every layer, the convolution that reads its image
//! without unrolling it — timed against the code it replaced
//! (or, for a kernel picked by the CPU, its portable arm) **in the same run,
//! in alternating turns**, and emitted as one `BENCH_<date>.json` row per kernel × size.
//!
//! What is judged is a [`Pair`]: the median over turns of the per-turn
//! `reference_ns / product_ns`, held to a constant floor that sits beside
//! the pair in this file. A slow phase of the machine falls on both sides of
//! a turn and cancels in the ratio, so nothing is compared with a committed
//! file or with another run. What a ratio cannot see — a change that slows
//! product and reference alike — is what `benchmark/`'s end-to-end bounds
//! are for. Rows keep reporting the *minimum* ns per call (preemption and
//! cache pollution only ever add time); rows with no reference (`tune/*`,
//! `sim/*`) are recorded for the trajectory and never gate.

use std::fmt;
use std::hint::black_box;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use dcnn_core::collectives::transport::{
    crc32_clmul_selected, crc32_update, crc32_update_portable, wire, Payload,
};
use serde::Serialize;

/// Schema tag stamped into every report.
pub const SCHEMA: &str = "dcnn-bench-v1";

/// One measured kernel × size.
#[derive(Debug, Clone, Serialize)]
pub struct PerfRow {
    /// Stable row identifier, `family/kernel/size`.
    pub name: String,
    /// Payload bytes processed per iteration.
    pub bytes: u64,
    /// Minimum observed nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Throughput implied by the minimum, GiB/s.
    pub gib_per_s: f64,
    /// Whether CI gates on this row: it is the product side of a [`Pair`]
    /// whose floor can fire.
    pub tracked: bool,
}

/// A full benchmark report — what `BENCH_<date>.json` holds.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Civil date the report was taken (UTC), `YYYY-MM-DD`.
    pub date: String,
    /// Quick mode runs fewer sizes (the CI smoke).
    pub quick: bool,
    /// The measurements.
    pub rows: Vec<PerfRow>,
}

/// A product kernel read against its in-run reference.
#[derive(Debug, Clone)]
pub struct Pair {
    /// The product row's name.
    pub name: String,
    /// The reference row's name.
    pub reference: String,
    /// Median over turns of the per-turn `reference_ns / product_ns`.
    pub ratio: f64,
    /// What `ratio` must reach; `None` = timed and printed, cannot fire.
    pub floor: Option<f64>,
}

impl fmt::Display for Pair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} is {:.2}x {}", self.name, self.ratio, self.reference)?;
        match self.floor {
            Some(floor) => write!(f, " (floor {floor}x)"),
            None => write!(f, " (not gated)"),
        }
    }
}

/// The gate: every pair that reads below its floor.
pub fn below_floor(pairs: &[Pair]) -> Vec<&Pair> {
    pairs.iter().filter(|p| p.floor.is_some_and(|floor| p.ratio < floor)).collect()
}

/// "Never slower than the code you replaced": the floor of every pair on a
/// machine where the hardware its own floor rests on is not there.
const NO_SLOWER: f64 = 0.7;

/// Encode pairs below this many elements are timed and printed but cannot
/// fire: about one process in a thousand runs one side of a 1 024-element
/// pair ~2x slow from first turn to last — either side — so no floor tells
/// that from a regression (EXPERIMENTS.md "Ratio gate").
const GATED_MIN_ELEMS: usize = 1 << 14;

/// A floor that exists because of a hardware kernel holds only where the
/// process observes that kernel selected; elsewhere the pair is held to
/// [`NO_SLOWER`].
fn floor_where(selected: bool, floor: f64) -> f64 {
    if selected {
        floor
    } else {
        NO_SLOWER
    }
}

/// Today's civil date (UTC) as `YYYY-MM-DD`, from `SystemTime` alone —
/// Howard Hinnant's days-from-civil algorithm inverted, no date crate.
pub fn civil_date_utc() -> String {
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).expect("clock before 1970").as_secs();
    let days = (secs / 86_400) as i64;
    // civil_from_days(z) with the 1970-03-01 era shift.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Nanoseconds per call of `f` over `iters` back-to-back calls.
fn ns_per_call<S>(state: &mut S, f: &mut impl FnMut(&mut S), iters: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f(state);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Minimum ns per iteration of `f` over `reps` repetitions of `iters`
/// calls each — the timer of the rows that have no reference.
fn min_ns_per_iter(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    (0..reps).map(|_| ns_per_call(&mut (), &mut |_| f(), iters)).fold(f64::INFINITY, f64::min)
}

/// Alternating turns per pair, and how long one side's turn lasts. A
/// hundred turns of a quarter millisecond put both sides inside every
/// machine phase longer than a millisecond and leave the median fifty
/// readings clear of any preempted turn.
const TURNS: usize = 100;
const TURN_NS: f64 = 250_000.0;

/// What [`time_pair`] read: each side's minimum ns per call, and the
/// median over turns of the per-turn `reference / product`.
struct PairTiming {
    product_ns: f64,
    reference_ns: f64,
    ratio: f64,
}

/// How many calls of `f` fill one turn.
fn calls_per_turn<S>(state: &mut S, f: &mut impl FnMut(&mut S)) -> usize {
    let mut n = 1;
    loop {
        let ns = ns_per_call(state, f, n) * n as f64;
        if ns * 4.0 >= TURN_NS || n >= 1 << 20 {
            return ((n as f64 * TURN_NS / ns.max(1.0)) as usize).max(1);
        }
        n *= 2;
    }
}

/// Time `product` against `reference` in [`TURNS`] alternating turns on
/// the same `state`, so a slow phase of the machine — or an unlucky buffer
/// placement — falls on both. The judged number is the median of the
/// per-turn ratios, not the ratio of the two minima: the minima of two
/// equal kernels can come from different phases (one such pair read 0.71x
/// on an idle machine where the median of turns read 0.95–1.05x).
fn time_pair<S>(
    state: &mut S,
    mut product: impl FnMut(&mut S),
    mut reference: impl FnMut(&mut S),
) -> PairTiming {
    let product_calls = calls_per_turn(state, &mut product);
    let reference_calls = calls_per_turn(state, &mut reference);
    let (mut product_ns, mut reference_ns) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(TURNS);
    for _ in 0..TURNS {
        let p = ns_per_call(state, &mut product, product_calls);
        let r = ns_per_call(state, &mut reference, reference_calls);
        product_ns = product_ns.min(p);
        reference_ns = reference_ns.min(r);
        ratios.push(r / p);
    }
    ratios.sort_by(f64::total_cmp);
    PairTiming { product_ns, reference_ns, ratio: ratios[TURNS / 2] }
}

fn row(name: String, bytes: u64, ns: f64, tracked: bool) -> PerfRow {
    let gib_per_s = if ns > 0.0 { bytes as f64 / ns * 1e9 / (1u64 << 30) as f64 } else { 0.0 };
    PerfRow { name, bytes, ns_per_iter: ns, gib_per_s, tracked }
}

/// Everything one run measured.
#[derive(Default)]
struct Suite {
    rows: Vec<PerfRow>,
    pairs: Vec<Pair>,
}

impl Suite {
    /// Time one pair and record its two rows and its reading.
    fn pair<S>(
        &mut self,
        (name, reference_name): (String, String),
        bytes: u64,
        floor: Option<f64>,
        state: &mut S,
        product: impl FnMut(&mut S),
        reference: impl FnMut(&mut S),
    ) {
        let t = time_pair(state, product, reference);
        self.rows.push(row(name.clone(), bytes, t.product_ns, floor.is_some()));
        self.rows.push(row(reference_name.clone(), bytes, t.reference_ns, false));
        self.pairs.push(Pair { name, reference: reference_name, ratio: t.ratio, floor });
    }
}

fn fill(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as i32 as f32) * 1e-4
        })
        .collect()
}

/// The vectored encoder skips the staging copy (the payload's bytes go to
/// the socket as they lie in memory, which needs a little-endian host) and
/// then spends its time in the CRC, so its floor rests on the hardware CRC
/// too. The full suite's 256 Ki-element pair reads as low as 2.19x.
const ENCODE_FLOOR: f64 = 1.5;

/// Frame encoding: the bulk little-endian vectored path against the staged
/// per-element reference encoder, on an f32 payload.
fn bench_frame_encode(quick: bool, suite: &mut Suite) {
    let sizes: &[usize] = if quick { &[1 << 14] } else { &[1 << 10, 1 << 14, 1 << 18] };
    let fast_path = cfg!(target_endian = "little") && crc32_clmul_selected();
    for &n in sizes {
        let payload = Payload::f32(fill(n, 11));
        let mut sink = Vec::with_capacity(n * 4 + 64);
        suite.pair(
            (format!("frame/encode_vectored/{n}"), format!("frame/encode_staged/{n}")),
            (n * 4) as u64,
            (n >= GATED_MIN_ELEMS).then(|| floor_where(fast_path, ENCODE_FLOOR)),
            &mut sink,
            |sink| {
                sink.clear();
                let body = wire::payload_wire_bytes(black_box(&payload));
                let parts = wire::frame_parts(0, 0, 0, wire::payload_kind(&payload), &body);
                wire::write_all_vectored(sink, &[&parts.head, &body, &parts.crc])
                    .expect("vec write");
                black_box(sink.len());
            },
            |_| {
                black_box(wire::encode_frame(0, 0, 0, black_box(&payload)).len());
            },
        );
    }
}

/// The carry-less-multiply kernel reads 12–18x the table walk on the
/// machines this ran on; 5x is far below any of them and far above a
/// `crc32_update` that fell back to the tables.
const CRC_FLOOR: f64 = 5.0;

/// The CRC-32 every frame and blob record pays: the dispatching entry point
/// (the hardware kernel where the CPU has one) against the portable
/// slicing-by-8 kernel.
fn bench_crc(suite: &mut Suite) {
    for n in [1usize << 10, 1 << 14, 1 << 18] {
        let data: Vec<u8> = fill(n / 4, 13).iter().flat_map(|v| v.to_le_bytes()).collect();
        suite.pair(
            (format!("crc/update/{n}"), format!("crc/portable/{n}")),
            n as u64,
            Some(floor_where(crc32_clmul_selected(), CRC_FLOOR)),
            &mut (),
            |_| {
                black_box(crc32_update(!0, black_box(&data)));
            },
            |_| {
                black_box(crc32_update_portable(!0, black_box(&data)));
            },
        );
    }
}

/// The windowed decode reads 3.1–12x the chain it replaced (the spread is
/// the crop's position in the record, drawn per run).
const DECODE_WINDOW_FLOOR: f64 = 2.0;

/// The windowed decode against the chain it replaced, on the benchmark's
/// `decode-data` shape: 8 records of 128x128 cropped to 16.
fn bench_decode(suite: &mut Suite) {
    use dcnn_core::dimd::{decode_augmented_batch, Dimd, SynthConfig, SynthImageNet};

    let mut synth = SynthConfig::tiny(4);
    synth.train_per_class = 2;
    synth.base_hw = 128;
    let ds = SynthImageNet::new(synth);
    let (salt, records) = Dimd::load_partition(&ds, 0, 1, 70, 42).sample_batch_records(8);
    suite.pair(
        ("data/decode_window/128to16".into(), "data/decode_full_crop/128to16".into()),
        (8 * 3 * 16 * 16 * 4) as u64,
        Some(DECODE_WINDOW_FLOOR),
        &mut (),
        |_| {
            let (x, _) = decode_augmented_batch(black_box(&records), 16, black_box(salt));
            black_box(x.data().len());
        },
        |_| {
            black_box(decode_full_then_crop(black_box(&records), 16, black_box(salt)).len());
        },
    );
}

/// `decode_augmented_batch` as it ran before the windowed decoder: every
/// record decoded whole, then cropped, flipped and normalised as separate
/// images. Same RNG draws, same floats — only the work differs.
fn decode_full_then_crop(records: &[dcnn_core::dimd::Record], crop: usize, salt: u64) -> Vec<f32> {
    use dcnn_core::dimd::image::{IMAGENET_MEAN, IMAGENET_STD};
    use rand::{rngs::StdRng, SeedableRng};
    let mut data = Vec::with_capacity(records.len() * 3 * crop * crop);
    for (j, (bytes, label)) in records.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(salt ^ (j as u64) << 17 ^ *label as u64);
        let img = dcnn_core::dimd::decode_image(bytes).random_crop_flip(crop, &mut rng);
        data.extend_from_slice(img.to_tensor(&IMAGENET_MEAN, &IMAGENET_STD).data());
    }
    data
}

/// The AVX2 arm of the register-tiled AXPY kernels reads 1.34–1.52x the
/// portable arm at the conv shape (a tile row is two registers instead of
/// four, so the sixteen accumulators stop spilling); 1.25x is under every
/// reading and over a dispatch that fell back to the portable arm.
const GEMM_AXPY_FLOOR: f64 = 1.25;

/// The GEMM entry points (the AVX2 arm where `avx2_selected()`) against
/// their portable arm: the three kernels at the benchmark's widest
/// convolution (16 filters over 16x3x3 patches, 2048 output positions), and
/// `gemm_acc` at a batch-2 `Linear`'s input gradient, where `m < MR` leaves
/// only one-row tiles — timed so a small-shape regression has a row, not
/// gated (it is bound by streaming the 4 MiB weight matrix, on either arm).
/// `gemm_nt_acc`'s eight lanes fill one 256-bit register on either arm's
/// schedule, so its pair is held to "no slower" only.
fn bench_gemm(suite: &mut Suite) {
    use dcnn_core::tensor::gemm::{self, avx2_selected, portable};
    type Kernel = fn(&mut [f32], &[f32], &[f32], usize, usize, usize);

    let mut pair = |name: &str, (m, k, n), floor, product: Kernel, reference: Kernel| {
        let (a, b) = (fill(m * k, 17), fill(k * n, 19));
        let mut c = vec![0.0f32; m * n];
        suite.pair(
            (format!("gemm/{name}/{m}x{k}x{n}"), format!("gemm/{name}_portable/{m}x{k}x{n}")),
            ((m * k + k * n + m * n) * 4) as u64,
            floor,
            &mut c,
            |c| product(black_box(c), black_box(&a), black_box(&b), m, k, n),
            |c| reference(black_box(c), black_box(&a), black_box(&b), m, k, n),
        );
    };
    let conv = (16, 144, 2048);
    let wide = Some(floor_where(avx2_selected(), GEMM_AXPY_FLOOR));
    pair("nn", conv, wide, gemm::gemm_acc, portable::gemm_acc);
    pair("tn", conv, wide, gemm::gemm_tn_acc, portable::gemm_tn_acc);
    pair("nt", conv, Some(NO_SLOWER), gemm::gemm_nt_acc, portable::gemm_nt_acc);
    pair("nn-fc", (2, 1024, 1024), None, gemm::gemm_acc, portable::gemm_acc);
}

/// `Conv2d` at `resnet-compute`'s stage-1 convolution (8 images, 8 → 8
/// channels, 3x3, pad 1, 32x32) against the lowered convolution it
/// replaced, composed from the public `im2col`, GEMM kernels and `col2im`
/// with a reused `col` buffer: the same bits, the unrolled matrix built and
/// read back. Held to "no slower", so a kernel change that brings the copy
/// back has a gate. The layer's backward needs its own forward first, so
/// both sides of `conv/bwd` run the layer's forward and then their
/// backward: the ratio is diluted by the shared forward, never flattered.
fn bench_conv(suite: &mut Suite) {
    use dcnn_core::tensor::gemm::{gemm_acc, gemm_nt_acc, gemm_tn_acc};
    use dcnn_core::tensor::im2col::{col2im, im2col};
    use dcnn_core::tensor::{Conv2d, Module, Tensor};

    let (n, c, hw) = (8, 8, 32);
    let (k2, cols, img) = (c * 9, hw * hw, c * hw * hw);
    let shape = [n, c, hw, hw];
    let x = Tensor::from_vec(fill(n * img, 23), &shape);
    let g = Tensor::from_vec(fill(n * img, 29), &shape);
    let mut conv = Conv2d::new(c, c, 3, 1, 1, false, 31);
    let w = conv.weight.value.data().to_vec();
    let mut col = vec![0.0f32; k2 * cols];
    let size = format!("{n}x{c}x{hw}x{hw}");
    let bytes = (2 * n * img * 4) as u64;

    suite.pair(
        (format!("conv/fwd/{size}"), format!("conv/fwd_lowered/{size}")),
        bytes,
        Some(NO_SLOWER),
        &mut (&mut conv, &mut col),
        |(conv, _)| {
            black_box(conv.forward(black_box(&x), false));
        },
        |(_, col)| {
            let mut y = vec![0.0f32; n * img];
            for (yo, xo) in y.chunks_mut(img).zip(black_box(&x).data().chunks(img)) {
                im2col(xo, col, c, hw, hw, 3, 3, 1, 1);
                gemm_acc(yo, &w, col, c, k2, cols);
            }
            black_box(y);
        },
    );
    let mut gcol = vec![0.0f32; k2 * cols];
    suite.pair(
        (format!("conv/bwd/{size}"), format!("conv/bwd_lowered/{size}")),
        bytes,
        Some(NO_SLOWER),
        &mut (&mut conv, &mut col, &mut gcol),
        |(conv, _, _)| {
            conv.forward(&x, true);
            black_box(conv.backward(black_box(&g)));
        },
        |(conv, col, gcol)| {
            conv.forward(&x, true);
            let (mut dx, mut gw) = (vec![0.0f32; n * img], vec![0.0f32; c * k2]);
            let images = dx.chunks_mut(img).zip(x.data().chunks(img));
            for ((dxo, xo), go) in images.zip(black_box(&g).data().chunks(img)) {
                im2col(xo, col, c, hw, hw, 3, 3, 1, 1);
                gemm_nt_acc(&mut gw, go, col, c, cols, k2);
                gcol.fill(0.0);
                gemm_tn_acc(gcol, &w, go, k2, c, cols);
                col2im(gcol, dxo, c, hw, hw, 3, 3, 1, 1);
            }
            black_box((dx, gw));
        },
    );
}

/// The collective-tuner decision path: freezing the decision table from a
/// cluster-agreed score table, and the per-bucket `select` that runs on
/// every bucket launch once the table is frozen. Bookkeeping with nothing
/// it replaced to be read against, so both rows are recorded and neither
/// gates (`apply_agreed` allocates, and read +34…+74 % against a committed
/// baseline whenever both cores were busy).
fn bench_tuner(quick: bool, suite: &mut Suite) {
    use dcnn_core::collectives::{AlgoPolicy, AllreduceAlgo, TunerConfig};

    let reps = if quick { 5 } else { 9 };
    let cfg = TunerConfig::with_candidates(vec![
        AllreduceAlgo::PipelinedRing,
        AllreduceAlgo::HalvingDoubling,
        AllreduceAlgo::RecursiveDoubling,
    ]);

    // A synthetic agreed table: 64 size classes x 3 candidates of 16-byte
    // wire entries, scores arranged so every class has a distinct argmin.
    let table: Vec<(u32, u32, f64)> = (0..64u32)
        .flat_map(|class| {
            (0..3u32).map(move |cand| (class, cand, ((class * 7 + cand * 13) % 29) as f64 + 1.0))
        })
        .collect();

    let mut tuner = AlgoPolicy::Auto(cfg).tuner();
    let bytes = (table.len() * 16) as u64;
    let iters = if quick { 1 << 9 } else { 1 << 11 };
    let ns = min_ns_per_iter(reps, iters, || {
        tuner.apply_agreed(black_box(&table));
    });
    suite.rows.push(row(format!("tune/apply_agreed/{}", table.len()), bytes, ns, false));

    // Converged select: one decision per bucket launch, cycled over 16
    // bucket sizes spanning the agreed classes.
    let sizes: Vec<u64> = (6..22).map(|c| 1u64 << c).collect();
    let iters = if quick { 1 << 11 } else { 1 << 13 };
    let ns = min_ns_per_iter(reps, iters, || {
        for (slot, &b) in sizes.iter().enumerate() {
            let sel = tuner.select(slot, black_box(b), 4, false);
            black_box(sel.candidate);
        }
    }) / sizes.len() as f64;
    suite.rows.push(row(format!("tune/select_converged/{}", sizes.len()), 0, ns, false));
}

/// The simulator's own speed: schedule and simulate one 93 MB ring
/// allreduce (GoogLeNet-BN's gradient) across 16 Minsky nodes — what every
/// figure experiment does many times over.
fn bench_sim(quick: bool, suite: &mut Suite) {
    use dcnn_core::collectives::{AllreduceAlgo, CostModel};
    use dcnn_core::simnet::{FatTree, SimOptions};

    let topo = FatTree::minsky(16);
    let ring = AllreduceAlgo::PipelinedRing.build();
    let ns = min_ns_per_iter(if quick { 2 } else { 5 }, 1, || {
        let schedule = ring.schedule(16, 93e6, &CostModel::default());
        black_box(schedule.simulate(&topo, &SimOptions::default()).makespan);
    });
    suite.rows.push(row("sim/allreduce_ring_16nodes/93MB".into(), 0, ns, false));
}

/// What a sharded exchange pays once per bucket and owner map: plan every
/// rank's allreduce and prune it to its reduce-scatter
/// (`plan::reduce_scatter`), here the reduce-scatter ring's 480 steps at 16
/// ranks over 1 Mi elements. One-off bookkeeping with nothing it replaced,
/// so the row is recorded and does not gate.
fn bench_plan(quick: bool, suite: &mut Suite) {
    use dcnn_core::collectives::{even_ranges, plan, AllreduceAlgo};

    let (n, len) = (16, 1 << 20);
    let ring = AllreduceAlgo::RingReduceScatter.build();
    let counts: Vec<usize> = even_ranges(len, n).iter().map(|r| r.len()).collect();
    let ns = min_ns_per_iter(if quick { 5 } else { 9 }, if quick { 8 } else { 32 }, || {
        let plans: Vec<_> = (0..n).map(|r| ring.plan(n, r, black_box(len))).collect();
        black_box(plan::reduce_scatter(&plans, &counts));
    });
    suite.rows.push(row(format!("plan/reduce_scatter/n{n}"), 0, ns, false));
}

/// Run the full suite: the report, and the pairs the gate reads.
pub fn run_suite(quick: bool) -> (BenchReport, Vec<Pair>) {
    let mut suite = Suite::default();
    bench_frame_encode(quick, &mut suite);
    bench_crc(&mut suite);
    bench_decode(&mut suite);
    bench_gemm(&mut suite);
    bench_conv(&mut suite);
    bench_tuner(quick, &mut suite);
    bench_plan(quick, &mut suite);
    bench_sim(quick, &mut suite);
    let Suite { rows, pairs } = suite;
    (BenchReport { schema: SCHEMA.to_string(), date: civil_date_utc(), quick, rows }, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_is_iso_shaped() {
        let d = civil_date_utc();
        assert_eq!(d.len(), 10, "{d}");
        let b = d.as_bytes();
        assert_eq!((b[4], b[7]), (b'-', b'-'), "{d}");
        let year: i32 = d[..4].parse().expect("year");
        assert!((2020..2200).contains(&year), "{d}");
        let month: u32 = d[5..7].parse().expect("month");
        let day: u32 = d[8..10].parse().expect("day");
        assert!((1..=12).contains(&month) && (1..=31).contains(&day), "{d}");
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport {
            schema: SCHEMA.to_string(),
            date: "2026-08-07".to_string(),
            quick: true,
            rows: vec![row("crc/update/1024".into(), 4096, 100.0, true)],
        };
        let json = serde_json::to_string(&report).expect("serialize");
        let v: serde_json::Value = serde_json::from_str(&json).expect("parse");
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(SCHEMA));
        let rows = v.get("rows").and_then(|r| r.as_array()).expect("rows");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("bytes").and_then(|b| b.as_u64()), Some(4096));
    }

    #[test]
    fn gate_fires_below_the_floor_and_only_there() {
        let pair = |name: &str, ratio: f64, floor: Option<f64>| Pair {
            name: name.into(),
            reference: format!("{name}_ref"),
            ratio,
            floor,
        };
        let pairs = [
            pair("crc/just_below", 0.99 * CRC_FLOOR, Some(CRC_FLOOR)),
            pair("crc/just_above", 1.01 * CRC_FLOOR, Some(CRC_FLOOR)),
            pair("frame/small", 0.01, None),
            // No hardware kernel selected: 5x is not owed, no-slower is.
            pair("crc/tables_only", 1.0, Some(floor_where(false, CRC_FLOOR))),
            pair("crc/tables_only_slow", 0.69, Some(floor_where(false, CRC_FLOOR))),
            pair("crc/hardware", 1.0, Some(floor_where(true, CRC_FLOOR))),
        ];
        let fired: Vec<String> = below_floor(&pairs).iter().map(|p| p.to_string()).collect();
        assert_eq!(
            fired,
            [
                "crc/just_below is 4.95x crc/just_below_ref (floor 5x)",
                "crc/tables_only_slow is 0.69x crc/tables_only_slow_ref (floor 0.7x)",
                "crc/hardware is 1.00x crc/hardware_ref (floor 5x)",
            ]
        );
    }

    #[test]
    fn rows_without_a_reference_make_no_pair() {
        let mut suite = Suite::default();
        bench_tuner(true, &mut suite);
        bench_plan(true, &mut suite);
        bench_sim(true, &mut suite);
        let names: Vec<&str> = suite.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "tune/apply_agreed/192",
                "tune/select_converged/16",
                "plan/reduce_scatter/n16",
                "sim/allreduce_ring_16nodes/93MB"
            ]
        );
        assert!(suite.rows.iter().all(|r| !r.tracked && r.ns_per_iter > 0.0));
        assert!(suite.pairs.is_empty());
    }

    #[test]
    fn pair_helper_alternates_product_and_reference() {
        // Every call leaves its mark; runs of equal marks are the turns.
        let mut calls: Vec<u8> = Vec::new();
        let spin = || std::thread::sleep(std::time::Duration::from_micros(50));
        let t = time_pair(
            &mut calls,
            |log| {
                log.push(b'p');
                spin();
            },
            |log| {
                log.push(b'r');
                spin();
                spin();
            },
        );
        let turns: Vec<(u8, usize)> =
            calls.chunk_by(|a, b| a == b).map(|run| (run[0], run.len())).collect();
        // Calibration may add turns in front; the measured ones are the last
        // 2 x TURNS, product first, each side always the same length.
        assert!(turns.len() >= 2 * TURNS, "{} turns", turns.len());
        let measured = &turns[turns.len() - 2 * TURNS..];
        let (product_calls, reference_calls) = (measured[0].1, measured[1].1);
        for pair in measured.chunks(2) {
            assert_eq!(pair, [(b'p', product_calls), (b'r', reference_calls)]);
        }
        assert!(t.ratio > 1.0, "the reference sleeps twice as long: {}", t.ratio);
        assert!(t.product_ns >= 50_000.0 && t.reference_ns >= 100_000.0);
    }
}
