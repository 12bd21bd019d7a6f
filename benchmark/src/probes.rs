//! Layer probes: direct timed calls into single public functions, at the
//! sizes the four workloads actually use, min-of-N as `dcnn-perf` does.
//! Every traced run reports all of them; the README says which workload
//! each group is sized for and which `dcnn-perf` rows they duplicate.

use std::hint::black_box;
use std::net::TcpListener;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dist_cnn::collectives::primitives::alltoallv_bytes;
use dist_cnn::collectives::reduce::{self, reference};
use dist_cnn::collectives::transport::wire::{encode_frame, read_frame, write_frames_vectored};
use dist_cnn::collectives::transport::WireMsg;
use dist_cnn::collectives::{crc32, AllreduceAlgo, Comm, Payload, TransportKind};
use dist_cnn::dimd::shuffle::{pack, unpack, Record, MPI_COUNT_LIMIT};
use dist_cnn::dimd::{
    decode_image, encode_image, serve_blocking, BatchSource, Dimd, Hello, Prefetcher, ServiceSource,
};
use dist_cnn::dpt::{DptExecutor, DptStrategy};
use dist_cnn::tensor::gemm::{gemm, gemm_nt_acc, gemm_tn_acc};
use dist_cnn::tensor::im2col::{col2im, im2col};
use dist_cnn::tensor::layers::{collect_params, param_count, param_segments, set_grads};
use dist_cnn::tensor::optim::SgdConfig;
use dist_cnn::tensor::{BatchNorm2d, Conv2d, Module, Sgd, Tensor};
use dist_cnn::trainer::{plan_buckets, Checkpoint};

use crate::measure::{min_secs, Metrics, Tally};
use crate::workloads::{cluster, Workload, RANKS};

const GIB: f64 = (1u64 << 30) as f64;
const MIB: f64 = (1u64 << 20) as f64;

/// Elements of the two allreduce sizes: a latency-bound message and one the
/// size of the FC gradient's larger buckets.
const ALLREDUCE_SIZES: [(&str, usize); 2] = [("16KiB", 4 << 10), ("4MiB", 1 << 20)];

/// Deterministic values in `[-0.5, 0.5)`.
fn fill(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

fn gibps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / GIB
}

/// Every probe, `reps` timed repetitions each.
pub fn run_all(seed: u64, reps: usize, m: &mut Metrics, tally: &mut Tally) {
    collectives_on(TransportKind::Threads, "threads", seed, reps, m, tally);
    collectives_on(TransportKind::Tcp, "tcp", seed, reps, m, tally);
    let boot = min_secs(reps, 1, || {
        black_box(cluster(TransportKind::Tcp).run(|comm| comm.rank()));
    });
    m.probe("collectives.bootstrap.tcp_ms", "ms", boot * 1e3, reps);
    wire(seed, reps, m);
    reduce_kernels(seed, reps, m);
    fcnet_state(seed, reps, m);
    tensor_kernels(seed, reps, m);
    dpt_and_models(seed, reps, m);
    dimd(seed, reps, m);
}

/// How a collective's seconds become its metric's value.
#[derive(Clone, Copy)]
enum Reading {
    /// A rate: this much work divided by the seconds.
    Per(f64),
    /// A time: the seconds times this scale.
    Times(f64),
}

/// Collectives between two ranks on one transport, all inside one cluster
/// run so that the bootstrap is paid once. A collective is as fast as its
/// slowest rank: each row is the maximum over ranks of the per-rank minimum.
fn collectives_on(
    transport: TransportKind,
    tname: &str,
    seed: u64,
    reps: usize,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let mut algos = AllreduceAlgo::paper_trio();
    algos.push(AllreduceAlgo::RingReduceScatter);
    let per_rank = cluster(transport)
        .run(|comm: &Comm| {
            let me = comm.rank();
            // (metric, unit, reading, seconds)
            let mut rows: Vec<(String, &'static str, Reading, f64)> = Vec::new();
            let mut sums_ok = true;
            for algo in &algos {
                let sizes: &[(&str, usize)] = if *algo == AllreduceAlgo::RingReduceScatter {
                    &ALLREDUCE_SIZES[1..]
                } else {
                    &ALLREDUCE_SIZES
                };
                let handle = algo.build();
                for &(label, n) in sizes {
                    let src = fill(n, seed + me as u64);
                    let mut expected = fill(n, seed);
                    reference::sum_into(&mut expected, &fill(n, seed + 1));
                    let mut buf = src.clone();
                    let secs = min_secs(reps, 1, || {
                        buf.copy_from_slice(&src);
                        comm.barrier();
                        handle.run(comm, black_box(&mut buf));
                    });
                    sums_ok &= buf == expected;
                    // Bus bandwidth: 2(n-1)/n of the payload crosses each link.
                    let bus_mib = 2.0 * (RANKS - 1) as f64 / RANKS as f64 * (n * 4) as f64 / MIB;
                    let name =
                        format!("collectives.allreduce.{}.{tname}.{label}.bus_mibps", algo.name());
                    rows.push((name, "MiB/s", Reading::Per(bus_mib), secs));
                }
            }

            // Ping-pong of one 64 KiB f32 message; rank 0 holds the clock.
            let ping = fill(16 << 10, seed);
            let rtt = min_secs(reps, 8, || {
                if me == 0 {
                    comm.send_f32(1, 7, &ping);
                    black_box(comm.recv_f32(1, 8));
                } else {
                    let v = comm.recv_f32(0, 7);
                    comm.send_f32(0, 8, &v);
                }
            });
            rows.push((
                format!("collectives.rtt.{tname}.64KiB_us"),
                "us",
                Reading::Times(1e6),
                rtt,
            ));

            if transport == TransportKind::Threads {
                let n = 1 << 20;
                let counts = vec![n / 2, n - n / 2];
                let src = fill(n, seed + me as u64);
                let mut buf = src.clone();
                let rs = min_secs(reps, 1, || {
                    buf.copy_from_slice(&src);
                    comm.reduce_scatter(black_box(&mut buf), &counts);
                });
                let ag = min_secs(reps, 1, || comm.allgather_f32(black_box(&mut buf), &counts));
                let a2a = min_secs(reps, 1, || {
                    let send = vec![vec![me as u8; 512 << 10]; RANKS];
                    black_box(alltoallv_bytes(comm, send));
                });
                for (name, secs) in [
                    ("collectives.reduce_scatter.threads.4MiB_ms", rs),
                    ("collectives.allgather.threads.4MiB_ms", ag),
                    ("collectives.alltoallv.threads.1MiB_ms", a2a),
                ] {
                    rows.push((name.to_string(), "ms", Reading::Times(1e3), secs));
                }
            }
            (rows, sums_ok)
        })
        .results;

    tally.check(per_rank.iter().all(|(_, ok)| *ok), || {
        format!("allreduce probe on {tname}: result differs from reduce::reference")
    });
    for (i, (name, unit, reading, _)) in per_rank[0].0.iter().enumerate() {
        let secs = per_rank.iter().map(|(rows, _)| rows[i].3).fold(0.0, f64::max);
        let value = match reading {
            Reading::Per(work) => work / secs,
            Reading::Times(scale) => secs * scale,
        };
        m.probe(name.clone(), unit, value, reps);
    }
}

/// Frame encode, frame parse and the CRC under both, on a 1 MiB payload.
fn wire(seed: u64, reps: usize, m: &mut Metrics) {
    let bytes = 1 << 20;
    let msg = WireMsg { src: 0, comm_id: 0, tag: 0, payload: Payload::f32(fill(bytes / 4, seed)) };
    let mut sink: Vec<u8> = Vec::with_capacity(bytes + 64);
    let enc = min_secs(reps, 8, || {
        sink.clear();
        write_frames_vectored(&mut sink, std::slice::from_ref(black_box(&msg))).expect("vec write");
        black_box(sink.len());
    });
    m.probe("collectives.wire.encode.1MiB_gibps", "GiB/s", gibps(bytes, enc), reps);

    let frame = encode_frame(0, 0, 0, &msg.payload);
    let dec = min_secs(reps, 8, || {
        black_box(read_frame(&mut black_box(&frame[..])).expect("well-formed frame"));
    });
    m.probe("collectives.wire.read_frame.1MiB_gibps", "GiB/s", gibps(bytes, dec), reps);

    let crc = min_secs(reps, 8, || {
        black_box(crc32(black_box(&frame[..bytes])));
    });
    m.probe("collectives.crc32.1MiB_gibps", "GiB/s", gibps(bytes, crc), reps);
}

/// The reduce kernels at 1 Mi elements — the FC gradient's order of size.
fn reduce_kernels(seed: u64, reps: usize, m: &mut Metrics) {
    let n = 1 << 20;
    let (a, b) = (fill(n, seed), fill(n, seed + 1));
    let mut dst = a.clone();
    let t = min_secs(reps, 4, || reduce::sum_into(black_box(&mut dst), black_box(&b)));
    m.probe("collectives.reduce.sum_into.1Mi_gibps", "GiB/s", gibps(n * 4, t), reps);
    let t = min_secs(reps, 4, || reduce::sum_to(black_box(&mut dst), black_box(&a), black_box(&b)));
    m.probe("collectives.reduce.sum_to.1Mi_gibps", "GiB/s", gibps(n * 4, t), reps);
    let t = min_secs(reps, 4, || reduce::scale(black_box(&mut dst), black_box(1.000_001)));
    m.probe("collectives.reduce.scale.1Mi_gibps", "GiB/s", gibps(n * 4, t), reps);
}

/// Optimizer, gradient-install, bucket-plan and checkpoint calls on the FC
/// model (1.58 M parameters), as the two `fcnet-*` workloads make them.
fn fcnet_state(seed: u64, reps: usize, m: &mut Metrics) {
    let w = Workload::by_name("fcnet-sharded", seed, false).expect("known workload");
    let mut model = w.build_model();
    let total = param_count(model.as_mut());
    let grads = fill(total, seed);
    let sgd = Sgd::new(SgdConfig::default());

    let t = min_secs(reps, 2, || set_grads(model.as_mut(), black_box(&grads)));
    m.probe("tensor.set_grads_gibps", "GiB/s", gibps(total * 4, t), reps);
    let t = min_secs(reps, 2, || sgd.step(model.as_mut(), black_box(1e-6)));
    m.probe("tensor.sgd.step_gibps", "GiB/s", gibps(total * 4, t), reps);
    let owned = 0..total / 2;
    let mut velocity = vec![0.0f32; owned.len()];
    let t = min_secs(reps, 2, || {
        sgd.step_range(model.as_mut(), black_box(1e-6), owned.clone(), &mut velocity)
    });
    m.probe("tensor.sgd.step_range_gibps", "GiB/s", gibps(owned.len() * 4, t), reps);
    let t = min_secs(reps, 2, || {
        black_box(collect_params(model.as_mut()));
    });
    m.probe("tensor.collect_params_gibps", "GiB/s", gibps(total * 4, t), reps);

    let segments = param_segments(model.as_mut());
    let t = min_secs(reps, 64, || {
        black_box(plan_buckets(black_box(&segments), 262_144));
    });
    m.probe("trainer.plan_buckets_us", "us", t * 1e6, reps);

    let ckpt = Checkpoint::capture(model.as_mut(), 0);
    let mut bytes = Vec::new();
    let t = min_secs(reps, 1, || bytes = black_box(&ckpt).to_bytes());
    m.probe("trainer.checkpoint.to_bytes_ms", "ms", t * 1e3, reps);
    let t = min_secs(reps, 1, || {
        black_box(Checkpoint::from_bytes(black_box(&bytes)).expect("round trip"));
    });
    m.probe("trainer.checkpoint.from_bytes_ms", "ms", t * 1e3, reps);
}

/// Minimum seconds of `timed` over `reps` runs, each after an untimed
/// `prepare` (a backward pass consumes the forward pass's cache).
fn min_secs_after<S>(
    reps: usize,
    state: &mut S,
    prepare: impl Fn(&mut S),
    timed: impl Fn(&mut S),
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        prepare(state);
        let t0 = Instant::now();
        timed(state);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// GEMM at the shapes `resnet-compute`'s widest convolution (16 filters over
/// 16x3x3 patches, 2048 output positions) and the FC layers (batch 2,
/// 1024x1024) produce; im2col/col2im, convolution and BN at the same size.
fn tensor_kernels(seed: u64, reps: usize, m: &mut Metrics) {
    let gflops = |mm: usize, k: usize, n: usize, secs: f64| 2.0 * (mm * k * n) as f64 / secs / 1e9;
    let (mm, k, n) = (16, 144, 2048);
    let (a, b) = (fill(mm * k, seed), fill(k * n, seed + 1));
    let mut c = vec![0.0f32; mm * n];
    let t = min_secs(reps, 8, || gemm(black_box(&mut c), black_box(&a), black_box(&b), mm, k, n));
    m.probe("tensor.gemm.conv-shape_gflops", "GFLOP/s", gflops(mm, k, n, t), reps);
    // `b` doubles as the stored n x k (nt) matrix, `a` as the stored k x m (tn).
    let t = min_secs(reps, 8, || {
        gemm_nt_acc(black_box(&mut c), black_box(&a), black_box(&b), mm, k, n)
    });
    m.probe("tensor.gemm_nt.conv-shape_gflops", "GFLOP/s", gflops(mm, k, n, t), reps);
    c.iter_mut().for_each(|v| *v = 0.0);
    let t = min_secs(reps, 8, || {
        gemm_tn_acc(black_box(&mut c), black_box(&a), black_box(&b), mm, k, n)
    });
    m.probe("tensor.gemm_tn.conv-shape_gflops", "GFLOP/s", gflops(mm, k, n, t), reps);

    let (mm, k, n) = (2, 1024, 1024);
    let (a, b) = (fill(mm * k, seed), fill(k * n, seed + 1));
    let mut c = vec![0.0f32; mm * n];
    let t = min_secs(reps, 8, || gemm(black_box(&mut c), black_box(&a), black_box(&b), mm, k, n));
    m.probe("tensor.gemm.fc-shape_gflops", "GFLOP/s", gflops(mm, k, n, t), reps);

    let (ch, hw) = (16, 32);
    let x = fill(ch * hw * hw, seed);
    let mut col = vec![0.0f32; ch * 9 * hw * hw];
    let t =
        min_secs(reps, 8, || im2col(black_box(&x), black_box(&mut col), ch, hw, hw, 3, 3, 1, 1));
    m.probe("tensor.im2col_gibps", "GiB/s", gibps(col.len() * 4, t), reps);
    let mut dx = vec![0.0f32; ch * hw * hw];
    let t =
        min_secs(reps, 8, || col2im(black_box(&col), black_box(&mut dx), ch, hw, hw, 3, 3, 1, 1));
    m.probe("tensor.col2im_gibps", "GiB/s", gibps(col.len() * 4, t), reps);

    let shape = [8, ch, hw, hw];
    let x = Tensor::from_vec(fill(shape.iter().product(), seed), &shape);
    let g = Tensor::from_vec(fill(shape.iter().product(), seed + 1), &shape);
    let mut conv = Conv2d::new(ch, ch, 3, 1, 1, false, seed);
    let t = min_secs(reps, 1, || {
        black_box(conv.forward(black_box(&x), true));
    });
    m.probe("tensor.conv.fwd_ms", "ms", t * 1e3, reps);
    let t = min_secs_after(
        reps,
        &mut conv,
        |conv| {
            conv.forward(&x, true);
        },
        |conv| {
            black_box(conv.backward(black_box(&g)));
        },
    );
    m.probe("tensor.conv.bwd_ms", "ms", t * 1e3, reps);
    let mut bn = BatchNorm2d::new(ch);
    let t = min_secs(reps, 1, || {
        black_box(bn.forward(black_box(&x), true));
        black_box(bn.backward(black_box(&g)));
    });
    m.probe("tensor.bn.fwd_bwd_ms", "ms", t * 1e3, reps);
}

/// One DPT iteration of the `resnet-compute` model on a node batch of 8:
/// one replica, two replicas under both schedules (the paper's Figure 3-4
/// comparison), the streamed variant and inference; plus the model build.
fn dpt_and_models(seed: u64, reps: usize, m: &mut Metrics) {
    let w = Workload::by_name("resnet-compute", seed, false).expect("known workload");
    let x = Tensor::from_vec(fill(8 * 3 * 32 * 32, seed), &[8, 3, 32, 32]);
    let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();

    let mut one = DptExecutor::new(1, || w.build_model());
    let t = min_secs(reps, 1, || {
        black_box(one.step(&x, &labels, DptStrategy::Optimized));
    });
    m.probe("dpt.step.m1_ms", "ms", t * 1e3, reps);
    let t = min_secs(reps, 1, || {
        black_box(one.eval_logits(&x));
    });
    m.probe("dpt.eval_logits_ms", "ms", t * 1e3, reps);

    let mut two = DptExecutor::new(2, || w.build_model());
    for (name, strategy) in [
        ("dpt.step.m2_optimized_ms", DptStrategy::Optimized),
        ("dpt.step.m2_baseline_ms", DptStrategy::Baseline),
    ] {
        let t = min_secs(reps, 1, || {
            black_box(two.step(&x, &labels, strategy));
        });
        m.probe(name, "ms", t * 1e3, reps);
    }
    let t = min_secs(reps, 1, || {
        black_box(two.step_streamed(&x, &labels, |off, vals| {
            black_box((off, vals.len()));
        }));
    });
    m.probe("dpt.step_streamed.m2_ms", "ms", t * 1e3, reps);

    let mut built = w.build_model();
    let t = min_secs(reps, 1, || built = w.build_model());
    m.probe("models.build_ms", "ms", t * 1e3, reps);
    m.scalar("models.params", "count", param_count(built.as_mut()) as f64);
}

/// The data layer on `decode-data`'s records: 128x128 images at quality 70,
/// batches of 8 cropped to 16.
fn dimd(seed: u64, reps: usize, m: &mut Metrics) {
    let w = Workload::by_name("decode-data", seed, false).expect("known workload");
    let ds = w.dataset();
    let (batch, crop, quality) = (8usize, w.cfg.crop, w.cfg.quality);

    let img = ds.train_image(0);
    let mut encoded = Vec::new();
    let t = min_secs(reps, 4, || encoded = encode_image(black_box(&img), quality));
    m.probe("dimd.encode_image.128_us", "us", t * 1e6, reps);
    let t = min_secs(reps, 4, || {
        black_box(decode_image(black_box(&encoded)));
    });
    m.probe("dimd.decode_image.128_us", "us", t * 1e6, reps);

    // Every 8th record: a 32-image partition, enough for batches of 8.
    let group = ds.train_len() / 32;
    let mut part = Dimd::load_partition(&ds, 0, group, quality, seed);
    let t = min_secs(reps.min(3), 1, || part = Dimd::load_partition(&ds, 0, group, quality, seed));
    m.probe("dimd.load_partition_ms_per_img", "ms/img", t * 1e3 / part.len() as f64, reps.min(3));
    let t = min_secs(reps, 2, || {
        black_box(part.random_batch(batch, crop));
    });
    m.probe("dimd.random_batch.8x128to16_ms", "ms", t * 1e3, reps);

    let (_, records) = part.sample_batch_records(batch);
    let packed = pack(&records);
    let t = min_secs(reps, 32, || {
        black_box(pack(black_box(&records)));
    });
    m.probe("dimd.pack_gibps", "GiB/s", gibps(packed.len(), t), reps);
    let t = min_secs(reps, 32, || {
        let mut out = Vec::with_capacity(batch);
        unpack(black_box(&packed), &mut out).expect("well-formed payload");
        black_box(out.len());
    });
    m.probe("dimd.unpack_gibps", "GiB/s", gibps(packed.len(), t), reps);

    // The donkey pipeline at depth 2, one decode thread: mean wait per batch
    // over an epoch of 16 batches.
    let iters = 16;
    let mut slot = Some(part);
    let t = min_secs(reps, 1, || {
        let pre = Prefetcher::run_epoch(slot.take().expect("partition"), iters, batch, crop, 2);
        for _ in 0..iters {
            black_box(pre.next_batch());
        }
        slot = Some(pre.finish());
    });
    m.probe("dimd.prefetch.next_batch_ms", "ms", t * 1e3 / iters as f64, reps);
    let mut part = slot.take().expect("partition");

    // Algorithm 2 between two ranks holding 128 records each (the workload's
    // partition size; the 32 encoded images repeat to fill it).
    let records: Vec<Record> = part.take_records();
    let t = cluster(TransportKind::Threads)
        .run(|comm| {
            let mine: Vec<Record> = records.iter().cycle().take(128).cloned().collect();
            let mut d = Dimd::from_records(mine, seed + comm.rank() as u64);
            let mut round = 0;
            min_secs(reps, 1, || {
                round += 1;
                d.shuffle(comm, round, MPI_COUNT_LIMIT);
            })
        })
        .results
        .into_iter()
        .fold(0.0, f64::max);
    m.probe("dimd.shuffle.2rank_256rec_ms", "ms", t * 1e3, reps);

    // The same store served remotely: one blob server, one client, loopback.
    let t = service_next_batch_secs(Dimd::from_records(records, seed), batch, crop, reps, iters);
    m.probe("dimd.service.next_batch_ms", "ms", t * 1e3, reps);
}

/// Mean seconds per `ServiceSource::next_batch` (depth 0: request, serve,
/// ship, decode in series), minimum over `reps` epochs of `iters` batches.
fn service_next_batch_secs(
    part: Dimd,
    batch: usize,
    crop: usize,
    reps: usize,
    iters: usize,
) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let hello = Hello {
        rank: 0,
        world: 1,
        batch,
        requests_per_epoch: iters,
        epochs: reps,
        shuffle_every: 0,
        segment_bytes: MPI_COUNT_LIMIT as u64,
    };
    std::thread::scope(|s| {
        let server = s.spawn(move || {
            let part = Mutex::new(Some(part));
            dist_cnn::collectives::ClusterBuilder::new(1)
                .configure(Default::default())
                .transport(TransportKind::Threads)
                .run(|comm| {
                    let part = part.lock().expect("partition").take().expect("one server rank");
                    serve_blocking(
                        listener.try_clone().expect("clone listener"),
                        comm,
                        vec![(0, part)],
                        1,
                        None,
                    )
                    .expect("serve")
                    .batches_served
                })
                .results
        });
        let mut client: Box<dyn BatchSource> = Box::new(
            ServiceSource::connect(&[addr], hello, crop, 0, 1, Duration::from_secs(10))
                .expect("connect to the blob server"),
        );
        let mut best = f64::INFINITY;
        for epoch in 0..reps {
            client.begin_epoch(epoch);
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(client.next_batch());
            }
            best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
            client.end_epoch(epoch, false);
        }
        client.finish();
        let served = server.join().expect("server thread");
        assert_eq!(served, vec![reps * iters], "blob server served every batch");
        best
    })
}
