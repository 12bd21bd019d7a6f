//! The traced runs. Both record spans from this file, around calls into the
//! library's public functions; nothing inside the library is instrumented.
//!
//! * **Run A** trains with the real trainer, but every rank's model sits in
//!   a [`SpanModule`] that notes when `forward(train)` and `backward*` start
//!   and end. Step *i* is forward-start(*i*) to forward-start(*i*+1).
//! * **Run B** ([`layered_rank`]) replays `run_rank` for the workload's mode
//!   from public calls only, with a span around each call, so the step
//!   splits into data wait, compute, exposed communication and optimizer.
//!   Its per-epoch losses must equal the trainer's bit for bit, which is
//!   what makes the split a statement about the trainer.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dist_cnn::collectives::primitives::allgather_bytes;
use dist_cnn::collectives::{reduce, Comm, OverlapMode};
use dist_cnn::dimd::{BatchSource, Dimd, LocalSource, SynthImageNet};
use dist_cnn::dpt::{DptExecutor, DptStrategy};
use dist_cnn::tensor::layers::{collect_params, release_momentum, set_grads, Param};
use dist_cnn::tensor::{Module, Sgd, Tensor};
use dist_cnn::trainer::{GradSync, ShardMap};

use crate::measure::{p90, Metrics};
use crate::workloads::Workload;

// ---------------------------------------------------------------- run A

#[derive(Clone, Copy, PartialEq)]
pub enum Pass {
    Forward,
    Backward,
}

/// `(pass, start, end)` in call order; one log per rank.
pub type PassLog = Arc<Mutex<Vec<(Pass, Instant, Instant)>>>;

pub fn pass_log(steps: usize) -> PassLog {
    Arc::new(Mutex::new(Vec::with_capacity(2 * steps + 2)))
}

/// Delegates every `Module` method to the wrapped model and times the
/// training passes. The lock is uncontended (one module per rank) and the
/// log is pre-sized, so a recorded pass costs two clock reads and a push.
pub struct SpanModule {
    inner: Box<dyn Module>,
    log: PassLog,
}

impl SpanModule {
    pub fn wrap(inner: Box<dyn Module>, log: PassLog) -> Box<dyn Module> {
        Box::new(SpanModule { inner, log })
    }

    fn record(&self, pass: Pass, start: Instant) {
        self.log.lock().expect("pass log").push((pass, start, Instant::now()));
    }
}

impl Module for SpanModule {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let start = Instant::now();
        let y = self.inner.forward(x, train);
        if train {
            self.record(Pass::Forward, start);
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let start = Instant::now();
        let dx = self.inner.backward(grad);
        self.record(Pass::Backward, start);
        dx
    }

    fn backward_hooked(
        &mut self,
        grad: &Tensor,
        base: usize,
        hook: &mut dyn FnMut(usize, &[f32]),
    ) -> Tensor {
        let start = Instant::now();
        let dx = self.inner.backward_hooked(grad, base, hook);
        self.record(Pass::Backward, start);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f)
    }

    fn visit_params_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        self.inner.visit_params_named(prefix, f)
    }
}

/// Per-step samples from one rank's pass log, milliseconds.
#[derive(Default)]
pub struct StepSamples {
    pub step: Vec<f64>,
    pub forward: Vec<f64>,
    pub backward: Vec<f64>,
    pub gap: Vec<f64>,
}

impl StepSamples {
    /// Append the steps of one repetition. The last forward of a repetition
    /// has no successor, so a repetition of `n` steps yields `n - 1` samples.
    pub fn extend_from(&mut self, log: &PassLog) {
        let log = log.lock().expect("pass log");
        let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
        let forwards: Vec<usize> = (0..log.len()).filter(|&i| log[i].0 == Pass::Forward).collect();
        for pair in forwards.windows(2) {
            let (f, next) = (log[pair[0]], log[pair[1]]);
            let fwd = ms(f.1, f.2);
            let bwd: f64 = log[pair[0] + 1..pair[1]].iter().map(|b| ms(b.1, b.2)).sum();
            let step = ms(f.1, next.1);
            self.step.push(step);
            self.forward.push(fwd);
            self.backward.push(bwd);
            self.gap.push(step - fwd - bwd);
        }
    }

    pub fn report(&self, m: &mut Metrics) {
        m.sample("trainer.step_ms_p50", "ms", &self.step);
        m.scalar("trainer.step_ms_p90", "ms", p90(&self.step));
        m.scalar("trainer.step_samples", "count", self.step.len() as f64);
        m.sample("trainer.forward_ms_p50", "ms", &self.forward);
        m.sample("trainer.backward_ms_p50", "ms", &self.backward);
        m.sample("trainer.gap_ms_p50", "ms", &self.gap);
    }
}

// ---------------------------------------------------------------- run B

/// One span of the layered loop. `step` is the step the span belongs to
/// (the spans of one step share it); a `step` span's own parent is the
/// repetition, and spans outside any step carry `step == 0`.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub rank: usize,
    pub step: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct SpanLog {
    origin: Instant,
    rank: usize,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, rank: usize, steps: usize) -> SpanLog {
        SpanLog { origin, rank, spans: Vec::with_capacity(8 * steps + 64) }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, step: u64, start_ns: u64) {
        let end_ns = self.now();
        self.spans.push(Span { name, rank: self.rank, step, start_ns, end_ns });
    }

    fn timed<T>(&mut self, name: &'static str, step: u64, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.push(name, step, start);
        out
    }
}

/// Which of the four shares a child span of a step counts into.
fn category(name: &str) -> Option<usize> {
    match name {
        "data.next_batch" => Some(0),
        "dpt.step" | "dpt.step_streamed" => Some(1),
        "gradsync.reduce" | "gradstream.finish" | "reduce.scale" | "comm.allgather_f32" => Some(2),
        "sgd.step" | "sgd.step_range" | "params.rebroadcast" => Some(3),
        _ => None,
    }
}

/// This rank's share of Algorithm 1 for `w`'s mode, from public calls
/// only — the same calls in the same order as the trainer's `run_rank`, minus
/// what these workloads leave off (validation, accumulation, fp16, faults,
/// the tuner, the remote data plane). Returns the per-epoch training loss and
/// the bytes the rank's partition holds in memory.
pub fn layered_rank(
    comm: &Comm,
    w: &Workload,
    ds: &SynthImageNet,
    log: &mut SpanLog,
) -> (Vec<f64>, usize) {
    let cfg = &w.cfg;
    let (me, n) = (comm.rank(), comm.size());
    let batch_node = cfg.batch_per_gpu * cfg.gpus_per_node;
    let iterations = (ds.train_len() / (batch_node * n)).max(1);
    let sgd = Sgd::new(cfg.sgd.clone());

    let dimd = log.timed("dimd.load_partition", 0, || {
        Dimd::load_partition(ds, me, n, cfg.quality, cfg.seed ^ (me as u64) << 20)
    });
    let memory_bytes = dimd.memory_bytes();
    let mut exec = DptExecutor::new(cfg.gpus_per_node, || w.build_model());
    let param_total: usize = exec.segments().iter().map(|s| s.len).sum();
    let mut gsync =
        GradSync::with_policy(cfg.algo.clone(), exec.segments(), cfg.bucket_bytes, cfg.fp16_grads);
    let shards = cfg.shard_optim.then(|| ShardMap::new(param_total, n));
    let shard_counts = shards.as_ref().map(|sm| sm.counts());
    let mut velocity: Vec<f32> = Vec::new();
    if let Some(sm) = &shards {
        gsync = gsync.with_shards(sm.clone());
        velocity = vec![0.0f32; sm.owned(me).len()];
        exec.visit_replicas(|m| {
            release_momentum(m);
        });
    }
    let hooked = cfg.overlap == OverlapMode::Hooked
        && gsync.is_bucketed()
        && cfg.strategy == DptStrategy::Optimized;
    let mut grad = vec![0.0f32; param_total];
    let mut source = LocalSource::new(
        comm,
        dimd,
        iterations,
        batch_node,
        cfg.crop,
        cfg.prefetch_depth,
        cfg.decode_workers,
        cfg.shuffle_segment_bytes,
    );

    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut step = 0u64;
    for epoch in 0..cfg.epochs {
        source.begin_epoch(epoch);
        let (mut loss_sum, mut correct, mut seen) = (0.0f64, 0u64, 0u64);
        for it in 0..iterations {
            step += 1;
            let step_start = log.now();
            let lr = cfg.lr.lr_at(epoch as f32 + it as f32 / iterations as f32);
            let (x, labels) = log.timed("data.next_batch", step, || source.next_batch());
            let (l, c) = if hooked {
                let mut stream = gsync.begin(comm);
                let out = log.timed("dpt.step_streamed", step, || {
                    exec.step_streamed(&x, &labels, |off, vals| {
                        grad[off..off + vals.len()].copy_from_slice(vals);
                        stream.segment_ready(&grad[..], off, vals.len());
                    })
                });
                log.timed("gradstream.finish", step, || stream.finish(&mut grad[..]));
                (out.0, out.1 as u64)
            } else {
                let out = log.timed("dpt.step", step, || {
                    let out = exec.step(&x, &labels, cfg.strategy);
                    grad.copy_from_slice(&out.grad);
                    out
                });
                log.timed("gradsync.reduce", step, || gsync.reduce(comm, &mut grad[..]));
                (out.loss, out.correct as u64)
            };
            log.timed("reduce.scale", step, || reduce::scale(&mut grad, 1.0 / n as f32));
            match &shards {
                None => log.timed("sgd.step", step, || {
                    exec.visit_replicas(|m| {
                        set_grads(m, &grad[..]);
                        sgd.step(m, lr);
                    })
                }),
                Some(sm) => {
                    let mut params = log.timed("sgd.step_range", step, || {
                        let r0 = exec.replica(0);
                        set_grads(r0, &grad[..]);
                        sgd.step_range(r0, lr, sm.owned(me), &mut velocity);
                        collect_params(r0)
                    });
                    log.timed("comm.allgather_f32", step, || {
                        comm.allgather_f32(&mut params, shard_counts.as_ref().expect("counts"))
                    });
                    log.timed("params.rebroadcast", step, || exec.set_params_all(&params));
                }
            }
            loss_sum += l;
            correct += c;
            seen += batch_node as u64;
            log.push("step", step, step_start);
        }
        let total_loss = log.timed("epoch_end", 0, || {
            // The trainer's `allreduce_stats`: gather every rank's triple and
            // sum in rank order, so the epoch loss has the same bits.
            let mut buf = Vec::with_capacity(24);
            buf.extend_from_slice(&loss_sum.to_le_bytes());
            buf.extend_from_slice(&correct.to_le_bytes());
            buf.extend_from_slice(&seen.to_le_bytes());
            let total: f64 = allgather_bytes(comm, buf)
                .iter()
                .map(|b| f64::from_le_bytes(b[0..8].try_into().expect("8 bytes")))
                .fold(0.0, |acc, l| acc + l);
            let shuffle_due =
                cfg.shuffle_every_epochs > 0 && (epoch + 1) % cfg.shuffle_every_epochs == 0;
            source.end_epoch(epoch, shuffle_due);
            total
        });
        losses.push(total_loss / (n * iterations) as f64);
    }
    (losses, memory_bytes)
}

/// Totals over rank 0's spans of any number of layered repetitions.
#[derive(Default)]
pub struct LoopTotals {
    steps: u64,
    epochs: u64,
    step_ns: u64,
    category_ns: [u64; 4],
    epoch_end_ns: u64,
}

impl LoopTotals {
    pub fn add(&mut self, spans: &[Span]) {
        for s in spans.iter().filter(|s| s.rank == 0) {
            let ns = s.end_ns - s.start_ns;
            match (s.name, category(s.name)) {
                ("step", _) => {
                    self.steps += 1;
                    self.step_ns += ns;
                }
                ("epoch_end", _) => {
                    self.epochs += 1;
                    self.epoch_end_ns += ns;
                }
                (_, Some(c)) => self.category_ns[c] += ns,
                _ => {}
            }
        }
    }

    /// Per-step means and shares. The step's self time (its span minus its
    /// children) is `loop.unaccounted_frac`; the four shares therefore sum to
    /// one minus it.
    pub fn report(&self, m: &mut Metrics) {
        let per_step = |ns: u64| ns as f64 / 1e6 / self.steps.max(1) as f64;
        let share = |ns: u64| ns as f64 / self.step_ns.max(1) as f64;
        let [data, compute, comm, optimizer] = self.category_ns;
        m.scalar("loop.data_wait_ms", "ms", per_step(data));
        m.scalar("loop.compute_ms", "ms", per_step(compute));
        m.scalar("loop.exposed_comm_ms", "ms", per_step(comm));
        m.scalar("loop.optimizer_ms", "ms", per_step(optimizer));
        m.scalar(
            "loop.epoch_end_ms",
            "ms",
            self.epoch_end_ns as f64 / 1e6 / self.epochs.max(1) as f64,
        );
        m.scalar("loop.share.data", "ratio", share(data));
        m.scalar("loop.share.compute", "ratio", share(compute));
        m.scalar("loop.share.comm", "ratio", share(comm));
        m.scalar("loop.share.optimizer", "ratio", share(optimizer));
        let accounted: u64 = self.category_ns.iter().sum();
        m.scalar("loop.unaccounted_frac", "ratio", 1.0 - share(accounted));
    }
}

/// Write spans as JSON lines: name, rank, step (the identifier the spans of
/// one step share, and the parent of every span but `step` itself), start
/// and end in nanoseconds since the repetition began.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.name == "step" { 0 } else { s.step };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"rank\":{},\"step\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.rank, s.step, parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
