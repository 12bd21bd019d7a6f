//! Criterion microbenchmarks of the real (non-simulated) kernels: the
//! threaded allreduce algorithms, GEMM/convolution, the distributed shuffle
//! and the data-parallel-table executors. (The DCT codec is timed by
//! `dcnn-perf`'s `data/*` rows and the benchmark's `dimd.*` probes.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use dcnn_core::collectives::{run_cluster, AllreduceAlgo};
use dcnn_core::dimd::shuffle::{shuffle_records, MPI_COUNT_LIMIT};
use dcnn_core::dpt::{DptExecutor, DptStrategy};
use dcnn_core::models::resnet::ResNetConfig;
use dcnn_core::simnet::{FatTree, SimOptions};
use dcnn_core::tensor::gemm::{gemm, gemm_nt_acc, gemm_tn_acc};
use dcnn_core::tensor::im2col::{col2im, im2col};
use dcnn_core::tensor::layers::{Conv2d, Module};
use dcnn_core::tensor::Tensor;

/// Real threaded allreduce across 8 ranks, per algorithm and payload.
fn bench_allreduce_real(c: &mut Criterion) {
    let mut g = c.benchmark_group("allreduce_real_8ranks");
    g.sample_size(10);
    for algo in AllreduceAlgo::all() {
        for kb in [256usize, 4096] {
            let elems = kb * 1024 / 4;
            g.throughput(Throughput::Bytes((kb * 1024) as u64));
            g.bench_with_input(
                BenchmarkId::new(algo.name(), format!("{kb}KiB")),
                &elems,
                |b, &elems| {
                    let a = algo.build();
                    b.iter(|| {
                        let out = run_cluster(8, |comm| {
                            let mut buf = vec![comm.rank() as f32; elems];
                            a.run(comm, &mut buf);
                            buf[0]
                        });
                        black_box(out)
                    });
                },
            );
        }
    }
    g.finish();
}

/// Simulated allreduce schedule construction + fluid simulation (what the
/// figure experiments run many times).
fn bench_allreduce_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("allreduce_sim_16nodes");
    g.sample_size(10);
    let topo = FatTree::minsky(16);
    let cost = dcnn_core::collectives::CostModel::default();
    for algo in AllreduceAlgo::paper_trio() {
        g.bench_function(algo.name(), |b| {
            let a = algo.build();
            b.iter(|| {
                let s = a.schedule(16, 93e6, &cost);
                black_box(s.simulate(&topo, &SimOptions::default()).makespan)
            });
        });
    }
    g.finish();
}

/// GEMM, im2col/col2im and convolution kernels.
fn bench_tensor_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("tensor_kernels");
    let n = 128;
    let a = Tensor::randn(&[n, n], 1.0, 1);
    let bm = Tensor::randn(&[n, n], 1.0, 2);
    let mut out = vec![0.0f32; n * n];
    g.throughput(Throughput::Elements((2 * n * n * n) as u64));
    g.bench_function("gemm_128", |b| {
        b.iter(|| {
            gemm(&mut out, a.data(), bm.data(), n, n, n);
            black_box(out[0])
        })
    });
    // The two conv-backward GEMMs of a 16-filter 3x3 conv on a 16-channel
    // 32x32 image: gW += g · colᵀ (nt) and gcol += Wᵀ · g (tn).
    let (oc, k2, hw) = (16, 144, 1024);
    let grad = Tensor::randn(&[oc, hw], 1.0, 3);
    let colm = Tensor::randn(&[k2, hw], 1.0, 4);
    let w = Tensor::randn(&[oc, k2], 1.0, 5);
    let mut gw = vec![0.0f32; oc * k2];
    let mut gcol = vec![0.0f32; k2 * hw];
    g.throughput(Throughput::Elements((2 * oc * k2 * hw) as u64));
    g.bench_function("gemm_nt_acc_16x1024x144", |b| {
        b.iter(|| {
            gemm_nt_acc(&mut gw, grad.data(), colm.data(), oc, hw, k2);
            black_box(gw[0])
        })
    });
    g.bench_function("gemm_tn_acc_144x16x1024", |b| {
        b.iter(|| {
            gemm_tn_acc(&mut gcol, w.data(), grad.data(), k2, oc, hw);
            black_box(gcol[0])
        })
    });
    let (ch, side) = (16, 32);
    let img = Tensor::randn(&[ch, side, side], 1.0, 6);
    let mut dimg = vec![0.0f32; img.len()];
    g.throughput(Throughput::Bytes((gcol.len() * 4) as u64));
    g.bench_function("im2col_16x32x32_k3p1", |b| {
        b.iter(|| {
            im2col(img.data(), &mut gcol, ch, side, side, 3, 3, 1, 1);
            black_box(gcol[0])
        })
    });
    g.bench_function("col2im_16x32x32_k3p1", |b| {
        b.iter(|| {
            col2im(&gcol, &mut dimg, ch, side, side, 3, 3, 1, 1);
            black_box(dimg[0])
        })
    });
    g.finish();

    let mut g = c.benchmark_group("conv2d");
    g.sample_size(20);
    let x = Tensor::randn(&[4, 16, 32, 32], 1.0, 3);
    g.bench_function("fwd_bwd_16x32_3x3", |b| {
        let mut conv = Conv2d::new(16, 32, 3, 1, 1, false, 5);
        b.iter(|| {
            let y = conv.forward(&x, true);
            black_box(conv.backward(&y))
        })
    });
    g.finish();
}

/// The real distributed shuffle (Algorithm 2) across 4 ranks.
fn bench_shuffle(c: &mut Criterion) {
    let mut g = c.benchmark_group("dimd_shuffle_4ranks");
    g.sample_size(10);
    g.bench_function("1000x1KB_records", |b| {
        b.iter(|| {
            let out = run_cluster(4, |comm| {
                let records: Vec<(Vec<u8>, u32)> =
                    (0..1000).map(|i| (vec![i as u8; 1024], i as u32)).collect();
                shuffle_records(comm, records, 3, MPI_COUNT_LIMIT).len()
            });
            black_box(out)
        })
    });
    g.finish();
}

/// Both data-parallel-table executors on the same node batch.
fn bench_dpt(c: &mut Criterion) {
    let mut g = c.benchmark_group("dpt_step_4gpus");
    g.sample_size(10);
    let factory = || {
        ResNetConfig {
            blocks: vec![1],
            base_width: 8,
            bottleneck: false,
            classes: 8,
            input: [3, 32, 32],
            imagenet_stem: false,
        }
        .build(3)
    };
    let x = Tensor::randn(&[16, 3, 32, 32], 1.0, 9);
    let labels: Vec<usize> = (0..16).map(|i| i % 8).collect();
    for (name, strategy) in
        [("baseline", DptStrategy::Baseline), ("optimized", DptStrategy::Optimized)]
    {
        g.bench_function(name, |b| {
            let mut exec = DptExecutor::new(4, factory);
            b.iter(|| black_box(exec.step(&x, &labels, strategy).loss));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_allreduce_real,
    bench_allreduce_sim,
    bench_tensor_kernels,
    bench_shuffle,
    bench_dpt
);
criterion_main!(benches);
