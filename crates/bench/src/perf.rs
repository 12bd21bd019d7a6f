//! The standing performance baseline: min-of-N microbenchmarks of the
//! hot paths — the reduce kernels under every allreduce, the frame
//! encoder under every TCP send, the CRC-32 under every frame and blob
//! record, and the data-plane record codec under every served batch —
//! emitted as one `BENCH_<date>.json` trajectory row per kernel × size.
//!
//! Timing discipline: each row reports the *minimum* wall time per
//! iteration over several repetitions. The minimum, not the mean, is the
//! statistic of record — scheduler preemption and cache pollution only ever
//! add time, so the min is the closest observable to the kernel's true
//! cost and is by far the most stable across runs. Deterministic
//! CPU-bound rows are `tracked` (CI gates on them); rows that time a
//! hand-off between threads — loopback socket round-trips and the two-rank
//! `shard/*` collectives — are recorded for the trajectory but untracked,
//! because their wall clock is the scheduler's, not the kernel's.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use dcnn_core::collectives::reduce::{self, reference};
use dcnn_core::collectives::transport::{crc32_update, crc32_update_portable, wire, Payload};
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
    /// Whether CI gates on this row (deterministic kernels yes, socket
    /// round-trips no).
    pub tracked: bool,
}

/// A full benchmark report — what `BENCH_<date>.json` holds.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Civil date the report was taken (UTC), `YYYY-MM-DD`.
    pub date: String,
    /// Quick mode trades repetitions for runtime (the CI smoke).
    pub quick: bool,
    /// The measurements.
    pub rows: Vec<PerfRow>,
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

/// Minimum ns per iteration of `f` over `reps` repetitions of `iters`
/// calls each.
fn min_ns_per_iter(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

fn row(name: String, bytes: u64, ns: f64, tracked: bool) -> PerfRow {
    let gib_per_s = if ns > 0.0 { bytes as f64 / ns * 1e9 / (1u64 << 30) as f64 } else { 0.0 };
    PerfRow { name, bytes, ns_per_iter: ns, gib_per_s, tracked }
}

/// Iteration count targeting roughly constant work per repetition across
/// sizes, floored so tiny kernels still amortize timer overhead.
fn iters_for(bytes: u64, quick: bool) -> usize {
    let budget: u64 = if quick { 1 << 22 } else { 1 << 26 };
    (budget / bytes.max(1)).clamp(8, 1 << 16) as usize
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

/// Element counts spanning the Figure 5 message-size crossover: below,
/// around and above the default split threshold (2^18 elements = 1 MiB).
pub fn reduce_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![1 << 10, 1 << 17]
    } else {
        vec![1 << 10, 1 << 14, 1 << 17, 1 << 20]
    }
}

/// Benchmark the reduce kernels — vectorized public entry points and the
/// scalar references — at each size.
pub fn bench_reduce(quick: bool, rows: &mut Vec<PerfRow>) {
    let reps = if quick { 5 } else { 9 };
    for n in reduce_sizes(quick) {
        let bytes = (n * 4) as u64;
        let iters = iters_for(bytes, quick);
        let src = fill(n, 3);
        let base = fill(n, 5);

        let mut dst = base.clone();
        let ns = min_ns_per_iter(reps, iters, || {
            reduce::sum_into(std::hint::black_box(&mut dst), std::hint::black_box(&src));
        });
        rows.push(row(format!("reduce/sum_into/{n}"), bytes, ns, true));

        let mut dst = base.clone();
        let ns = min_ns_per_iter(reps, iters, || {
            reference::sum_into(std::hint::black_box(&mut dst), std::hint::black_box(&src));
        });
        rows.push(row(format!("reduce/sum_into_ref/{n}"), bytes, ns, false));

        let mut out = vec![0.0f32; n];
        let ns = min_ns_per_iter(reps, iters, || {
            reduce::sum_to(
                std::hint::black_box(&mut out),
                std::hint::black_box(&base),
                std::hint::black_box(&src),
            );
        });
        rows.push(row(format!("reduce/sum_to/{n}"), bytes, ns, true));

        let mut dst = base.clone();
        let ns = min_ns_per_iter(reps, iters, || {
            reduce::scale(std::hint::black_box(&mut dst), std::hint::black_box(1.000_001));
        });
        rows.push(row(format!("reduce/scale/{n}"), bytes, ns, true));
    }
}

/// Benchmark frame encoding: the bulk little-endian vectored path against
/// the staged per-element reference encoder, on an f32 payload.
pub fn bench_frame_encode(quick: bool, rows: &mut Vec<PerfRow>) {
    let reps = if quick { 5 } else { 9 };
    let sizes: &[usize] = if quick { &[1 << 14] } else { &[1 << 10, 1 << 14, 1 << 18] };
    for &n in sizes {
        let payload = Payload::f32(fill(n, 11));
        let bytes = (n * 4) as u64;
        let iters = iters_for(bytes, quick);

        let mut sink = Vec::with_capacity(n * 4 + 64);
        let ns = min_ns_per_iter(reps, iters, || {
            sink.clear();
            let body = wire::payload_wire_bytes(std::hint::black_box(&payload));
            let parts = wire::frame_parts(0, 0, 0, wire::payload_kind(&payload), &body);
            wire::write_all_vectored(&mut sink, &[&parts.head, &body, &parts.crc])
                .expect("vec write");
            std::hint::black_box(sink.len());
        });
        rows.push(row(format!("frame/encode_vectored/{n}"), bytes, ns, true));

        let ns = min_ns_per_iter(reps, iters, || {
            let frame = wire::encode_frame(0, 0, 0, std::hint::black_box(&payload));
            std::hint::black_box(frame.len());
        });
        rows.push(row(format!("frame/encode_staged/{n}"), bytes, ns, false));
    }
}

/// Benchmark the CRC-32 every frame and blob record pays: the dispatching
/// entry point (the hardware kernel where the CPU has one) and the portable
/// slicing-by-8 kernel it is measured against.
pub fn bench_crc(quick: bool, rows: &mut Vec<PerfRow>) {
    let reps = if quick { 5 } else { 9 };
    for n in [1usize << 10, 1 << 14, 1 << 18] {
        let data: Vec<u8> = fill(n / 4, 13).iter().flat_map(|v| v.to_le_bytes()).collect();
        let bytes = n as u64;
        let iters = iters_for(bytes, quick);

        let ns = min_ns_per_iter(reps, iters, || {
            std::hint::black_box(crc32_update(!0, std::hint::black_box(&data)));
        });
        rows.push(row(format!("crc/update/{n}"), bytes, ns, true));

        let ns = min_ns_per_iter(reps, iters, || {
            std::hint::black_box(crc32_update_portable(!0, std::hint::black_box(&data)));
        });
        rows.push(row(format!("crc/portable/{n}"), bytes, ns, false));
    }
}

/// Benchmark the data-plane hot paths: record pack/unpack (every batch a
/// blob server ships travels through them) and the client-side
/// decode+augment of a whole mini-batch. All three are deterministic and
/// CPU-bound, so they gate; the 128 → 16 decode also carries its own
/// reference, measured in the same run.
pub fn bench_data_plane(quick: bool, rows: &mut Vec<PerfRow>) {
    use dcnn_core::dimd::shuffle::{pack, unpack};
    use dcnn_core::dimd::{decode_augmented_batch, Dimd, SynthConfig, SynthImageNet};
    use std::hint::black_box;

    let reps = if quick { 5 } else { 9 };
    let mut synth = SynthConfig::tiny(4);
    synth.train_per_class = 24;
    synth.base_hw = 16;
    let ds = SynthImageNet::new(synth.clone());
    let mut dimd = Dimd::load_partition(&ds, 0, 1, 70, 42);

    for n in [8usize, 32] {
        let (salt, records) = dimd.sample_batch_records(n);
        let packed = pack(&records);
        let bytes = packed.len() as u64;
        let iters = iters_for(bytes, quick).min(1 << 12);

        let ns = min_ns_per_iter(reps, iters, || {
            let body = pack(std::hint::black_box(&records));
            std::hint::black_box(body.len());
        });
        rows.push(row(format!("data/pack_batch/{n}"), bytes, ns, true));

        let ns = min_ns_per_iter(reps, iters, || {
            let mut out = Vec::with_capacity(n);
            unpack(std::hint::black_box(&packed), &mut out).expect("well-formed payload");
            std::hint::black_box(out.len());
        });
        rows.push(row(format!("data/unpack_batch/{n}"), bytes, ns, true));

        // Decode dominates the client pipeline; crop 16 matches the
        // data-plane workloads. Uncompressed tensor bytes are the work done.
        let decode_bytes = (n * 3 * 16 * 16 * 4) as u64;
        let decode_iters = if quick { 16 } else { 64 };
        let ns = min_ns_per_iter(reps, decode_iters, || {
            let (x, labels) =
                decode_augmented_batch(std::hint::black_box(&records), 16, std::hint::black_box(salt));
            std::hint::black_box((x.data().len(), labels.len()));
        });
        rows.push(row(format!("data/decode_batch/{n}"), decode_bytes, ns, true));
    }

    // The windowed decode against the chain it replaced, on the benchmark's
    // `decode-data` shape: 8 records of 128x128 cropped to 16. The two sides
    // take turns repetition by repetition, so a slow phase of the machine
    // falls on both and their ratio (`BenchReport::speedup`) holds when
    // neither absolute number does. Only the product path gates.
    synth.base_hw = 128;
    synth.train_per_class = 2;
    let ds = SynthImageNet::new(synth);
    let (salt, records) = Dimd::load_partition(&ds, 0, 1, 70, 42).sample_batch_records(8);
    let iters = if quick { 8 } else { 32 };
    let (mut window_ns, mut full_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        window_ns = window_ns.min(min_ns_per_iter(1, iters, || {
            let (x, _) = decode_augmented_batch(black_box(&records), 16, black_box(salt));
            black_box(x.data().len());
        }));
        full_ns = full_ns.min(min_ns_per_iter(1, iters, || {
            let x = decode_full_then_crop(black_box(&records), 16, black_box(salt));
            black_box(x.len());
        }));
    }
    let bytes = (8 * 3 * 16 * 16 * 4) as u64;
    rows.push(row(DECODE_WINDOW_ROW.into(), bytes, window_ns, true));
    rows.push(row(DECODE_FULL_CROP_ROW.into(), bytes, full_ns, false));
}

/// The tracked 128 → 16 batch decode and its untracked in-run reference.
pub const DECODE_WINDOW_ROW: &str = "data/decode_window/128to16";
/// See [`DECODE_WINDOW_ROW`].
pub const DECODE_FULL_CROP_ROW: &str = "data/decode_full_crop/128to16";

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

/// Benchmark the sharded-optimizer collectives: a blocking ring
/// reduce-scatter and the matching counts-based allgather between two
/// threaded ranks — the per-step exchange pair the `DCNN_SHARD_OPTIM`
/// gradient path lives on. Each row reports the cluster-max of the
/// per-rank minima, since a collective is only as fast as its slowest
/// rank. Untracked: every iteration is a rendezvous of two threads, and on
/// a 2-core host the same binary reads ~11 µs or ~30 µs minutes apart.
pub fn bench_shard_collectives(quick: bool, rows: &mut Vec<PerfRow>) {
    use dcnn_core::collectives::{run_cluster, Comm};

    let reps = if quick { 3 } else { 7 };
    let sizes: &[usize] = if quick { &[1 << 14] } else { &[1 << 10, 1 << 14, 1 << 18] };
    for &n in sizes {
        let bytes = (n * 4) as u64;
        let iters = iters_for(bytes, quick).clamp(8, 1 << 9);
        let counts = vec![n / 2, n - n / 2];

        let c = counts.clone();
        let mins = run_cluster(2, move |comm: &Comm| {
            let src = fill(n, 7 + comm.rank() as u64);
            let mut buf = src.clone();
            min_ns_per_iter(reps, iters, || {
                buf.copy_from_slice(&src);
                comm.reduce_scatter(std::hint::black_box(&mut buf), &c);
            })
        });
        let ns = mins.into_iter().fold(0.0f64, f64::max);
        rows.push(row(format!("shard/reduce_scatter/{n}"), bytes, ns, false));

        let c = counts.clone();
        let mins = run_cluster(2, move |comm: &Comm| {
            let mut buf = fill(n, 9 + comm.rank() as u64);
            min_ns_per_iter(reps, iters, || {
                comm.allgather_f32(std::hint::black_box(&mut buf), &c);
            })
        });
        let ns = mins.into_iter().fold(0.0f64, f64::max);
        rows.push(row(format!("shard/allgather/{n}"), bytes, ns, false));
    }
}

/// Benchmark the collective-tuner decision path: freezing the decision
/// table from a cluster-agreed score table, and the per-bucket `select`
/// that runs on every bucket launch once the table is frozen. Both are
/// deterministic CPU-bound bookkeeping — the select in particular sits on
/// the gradient hot path, so it must stay down in the noise next to the
/// reduce it schedules.
pub fn bench_tuner(quick: bool, rows: &mut Vec<PerfRow>) {
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
        tuner.apply_agreed(std::hint::black_box(&table));
    });
    rows.push(row(format!("tune/apply_agreed/{}", table.len()), bytes, ns, true));

    // Converged select: one decision per bucket launch, cycled over 16
    // bucket sizes spanning the agreed classes.
    let sizes: Vec<u64> = (6..22).map(|c| 1u64 << c).collect();
    let iters = if quick { 1 << 11 } else { 1 << 13 };
    let ns = min_ns_per_iter(reps, iters, || {
        for (slot, &b) in sizes.iter().enumerate() {
            let sel = tuner.select(slot, std::hint::black_box(b), 4, false);
            std::hint::black_box(sel.candidate);
        }
    }) / sizes.len() as f64;
    rows.push(row(format!("tune/select_converged/{}", sizes.len()), 0, ns, true));
}

/// Loopback socket round-trip of one framed f32 payload (untracked: real
/// kernel TCP, so wall-clock noise is expected).
pub fn bench_socket_rtt(quick: bool, rows: &mut Vec<PerfRow>) {
    let n = 1 << 14;
    let payload = Payload::f32(fill(n, 13));
    let bytes = (n * 4) as u64;
    let frame = wire::encode_frame(0, 0, 0, &payload);
    let frame_len = frame.len();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        s.set_nodelay(true).ok();
        let mut buf = vec![0u8; frame_len];
        while s.read_exact(&mut buf).is_ok() {
            if s.write_all(&buf).is_err() {
                break;
            }
        }
    });
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).ok();
    let mut back = vec![0u8; frame_len];
    let reps = if quick { 3 } else { 5 };
    let iters = if quick { 20 } else { 100 };
    let ns = min_ns_per_iter(reps, iters, || {
        s.write_all(&frame).expect("send");
        s.read_exact(&mut back).expect("echo");
    });
    drop(s);
    echo.join().expect("echo thread");
    rows.push(row(format!("socket/rtt_loopback/{n}"), bytes, ns, false));
}

/// Run the full suite and assemble the report.
pub fn run_suite(quick: bool) -> BenchReport {
    let mut rows = Vec::new();
    bench_reduce(quick, &mut rows);
    bench_frame_encode(quick, &mut rows);
    bench_crc(quick, &mut rows);
    bench_data_plane(quick, &mut rows);
    bench_shard_collectives(quick, &mut rows);
    bench_tuner(quick, &mut rows);
    bench_socket_rtt(quick, &mut rows);
    BenchReport { schema: SCHEMA.to_string(), date: civil_date_utc(), quick, rows }
}

impl BenchReport {
    /// How many times faster `name` ran than `reference` in this report —
    /// for rows measured as an interleaved pair, a number that survives a
    /// slow machine. `None` if either row is missing.
    pub fn speedup(&self, name: &str, reference: &str) -> Option<f64> {
        let ns = |n: &str| self.rows.iter().find(|r| r.name == n).map(|r| r.ns_per_iter);
        Some(ns(reference)? / ns(name)?)
    }
}

/// One tracked-row regression against a baseline report.
#[derive(Debug)]
pub struct Regression {
    /// Row name.
    pub name: String,
    /// Baseline ns/iter.
    pub baseline_ns: f64,
    /// Current ns/iter.
    pub current_ns: f64,
    /// `current / baseline - 1`.
    pub slowdown: f64,
}

/// The `schema` field of a parsed baseline document, if present. Callers
/// must check this against [`SCHEMA`] before gating on [`regressions`]:
/// a baseline written by a different report format would otherwise gate
/// on garbage (missing rows read as "no regression") or panic downstream.
/// `None` means the document carries no schema at all — equally untrusted.
pub fn baseline_schema(baseline: &serde_json::Value) -> Option<&str> {
    baseline.get("schema").and_then(|s| s.as_str())
}

/// Compare `current` against a parsed baseline JSON document: every
/// tracked row present in both reports must not be slower than
/// `max_regress` (fractional, e.g. `0.20`). Rows only in one report are
/// ignored — adding a benchmark must not fail CI retroactively.
pub fn regressions(
    current: &BenchReport,
    baseline: &serde_json::Value,
    max_regress: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    let Some(rows) = baseline.get("rows").and_then(|r| r.as_array()) else {
        return out;
    };
    for cur in current.rows.iter().filter(|r| r.tracked) {
        let base = rows
            .iter()
            .find(|b| b.get("name").and_then(|n| n.as_str()) == Some(cur.name.as_str()));
        let Some(base_ns) = base.and_then(|b| b.get("ns_per_iter")).and_then(|v| v.as_f64()) else {
            continue;
        };
        if base_ns <= 0.0 {
            continue;
        }
        let slowdown = cur.ns_per_iter / base_ns - 1.0;
        if slowdown > max_regress {
            out.push(Regression {
                name: cur.name.clone(),
                baseline_ns: base_ns,
                current_ns: cur.ns_per_iter,
                slowdown,
            });
        }
    }
    out
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
            rows: vec![row("reduce/sum_into/1024".into(), 4096, 100.0, true)],
        };
        let json = serde_json::to_string(&report).expect("serialize");
        let v: serde_json::Value = serde_json::from_str(&json).expect("parse");
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(SCHEMA));
        let rows = v.get("rows").and_then(|r| r.as_array()).expect("rows");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("bytes").and_then(|b| b.as_u64()), Some(4096));
    }

    #[test]
    fn regression_gate_fires_only_past_the_threshold() {
        let mk = |ns: f64| BenchReport {
            schema: SCHEMA.to_string(),
            date: "2026-08-07".to_string(),
            quick: true,
            rows: vec![row("reduce/sum_into/1024".into(), 4096, ns, true)],
        };
        let baseline_json = serde_json::to_string(&mk(100.0)).expect("serialize");
        let baseline: serde_json::Value = serde_json::from_str(&baseline_json).expect("parse");

        assert!(regressions(&mk(110.0), &baseline, 0.20).is_empty(), "10% is inside budget");
        let hits = regressions(&mk(130.0), &baseline, 0.20);
        assert_eq!(hits.len(), 1, "30% must trip the 20% gate");
        assert!((hits[0].slowdown - 0.30).abs() < 1e-9);
        // Untracked rows never gate: same slowdown, tracked = false.
        let mut fast = mk(130.0);
        fast.rows[0].tracked = false;
        assert!(regressions(&fast, &baseline, 0.20).is_empty());
    }

    #[test]
    fn speedup_is_the_reference_over_the_row() {
        let report = BenchReport {
            schema: SCHEMA.to_string(),
            date: "2026-10-02".to_string(),
            quick: true,
            rows: vec![
                row(DECODE_WINDOW_ROW.into(), 1, 250.0, true),
                row(DECODE_FULL_CROP_ROW.into(), 1, 1000.0, false),
            ],
        };
        assert_eq!(report.speedup(DECODE_WINDOW_ROW, DECODE_FULL_CROP_ROW), Some(4.0));
        assert_eq!(report.speedup(DECODE_WINDOW_ROW, "data/absent"), None);
    }

    #[test]
    fn shard_rows_are_recorded_but_never_gate() {
        // The committed baseline still marks them tracked; the gate reads
        // the current report's flag, so a 3x slower rendezvous passes.
        let mut rows = Vec::new();
        bench_shard_collectives(true, &mut rows);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["shard/reduce_scatter/16384", "shard/allgather/16384"]);
        assert!(rows.iter().all(|r| !r.tracked), "scheduler-bound rows must be untracked");
        let baseline_rows: Vec<PerfRow> =
            rows.iter().map(|r| row(r.name.clone(), r.bytes, r.ns_per_iter / 3.0, true)).collect();
        let report = |rows| BenchReport {
            schema: SCHEMA.to_string(),
            date: "2026-08-07".to_string(),
            quick: true,
            rows,
        };
        let baseline_json = serde_json::to_string(&report(baseline_rows)).expect("serialize");
        let baseline: serde_json::Value = serde_json::from_str(&baseline_json).expect("parse");
        assert!(regressions(&report(rows), &baseline, 0.20).is_empty());
    }

    #[test]
    fn baseline_schema_distinguishes_matching_foreign_and_missing() {
        let ours: serde_json::Value =
            serde_json::from_str(&format!(r#"{{"schema":"{SCHEMA}","rows":[]}}"#)).expect("parse");
        assert_eq!(baseline_schema(&ours), Some(SCHEMA));

        // A foreign report format (say an eval row file that landed in the
        // bench dir) must be detectable before anyone gates on it.
        let foreign: serde_json::Value =
            serde_json::from_str(r#"{"schema":"dcnn-eval-v1","rows":[]}"#).expect("parse");
        assert_eq!(baseline_schema(&foreign), Some("dcnn-eval-v1"));
        assert_ne!(baseline_schema(&foreign), Some(SCHEMA));

        // No schema field, or a non-string one, reads as None — untrusted.
        let missing: serde_json::Value = serde_json::from_str(r#"{"rows":[]}"#).expect("parse");
        assert_eq!(baseline_schema(&missing), None);
        let wrong_type: serde_json::Value =
            serde_json::from_str(r#"{"schema":3,"rows":[]}"#).expect("parse");
        assert_eq!(baseline_schema(&wrong_type), None);
    }
}
