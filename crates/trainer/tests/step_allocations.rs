//! Regression guard for the copies this repository removed from the
//! gradient path (DESIGN.md, "Where the gradient is copied"): once two
//! warm-up steps have filled the buffers that get reused — the trainer's
//! gradient buffer, which the replicas' merge lands in and the sharded
//! allgather reuses, the per-bucket payloads, the transports' message pools
//! — a training step
//! of the FC model (6.3 MB of gradient) allocates no block of 64 KiB or
//! more, bar the site a test names (before those copies went, 22 such
//! blocks per rank and step on the TCP run and 11 on the sharded one; the
//! sharded run now allocates none).
//!
//! A counting global allocator notes every allocation (or growing
//! reallocation) of at least [`BIG`] bytes while armed. The model sits in a
//! [`StepGate`] that, at the start of step [`WARMUP`] + 1 and again
//! [`MEASURED`] steps later, holds every rank at a barrier and arms or
//! disarms the counter there — so the window is exactly those steps on every
//! rank and every thread (the rank threads, which also advance launched
//! buckets, and the socket readers).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Barrier, Mutex};

use dcnn_collectives::{ClusterBuilder, OverlapMode, RuntimeConfig, TransportKind};
use dcnn_dimd::{SynthConfig, SynthImageNet};
use dcnn_tensor::layers::{Conv2d, Flatten, Linear, Module, Param, ReLU};
use dcnn_tensor::{LrSchedule, Sequential, Tensor};
use dcnn_trainer::{train_on_comm, TrainConfig};

/// Allocations of at least this many bytes are counted.
const BIG: usize = 64 << 10;
/// Steps every rank runs before the window opens.
const WARMUP: usize = 2;
/// Steps inside the window.
const MEASURED: usize = 2;
const RANKS: usize = 2;

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNTED: AtomicUsize = AtomicUsize::new(0);
/// The sizes of the first counted allocations, for the failure message.
static SIZES: [AtomicUsize; 32] = [const { AtomicUsize::new(0) }; 32];

fn note(size: usize) {
    if size >= BIG && ARMED.load(SeqCst) {
        let i = COUNTED.fetch_add(1, SeqCst);
        if let Some(slot) = SIZES.get(i) {
            slot.store(size, SeqCst);
        }
    }
}

/// `System`, counting large allocations into atomics (which never
/// allocate themselves).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it only touches
// atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller meets `alloc`'s contract, which is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note(new_size);
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller meets the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One test at a time: the counter is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// Windows closed since the test began.
static CLOSED: AtomicUsize = AtomicUsize::new(0);

/// Hold every rank at `barrier`, arm or disarm the counter while all of them
/// wait, and release them together.
fn switch(barrier: &Barrier, armed: bool) {
    if barrier.wait().is_leader() {
        ARMED.store(armed, SeqCst);
        if !armed {
            CLOSED.fetch_add(1, SeqCst);
        }
    }
    barrier.wait();
}

/// The model behind a gate: counts its training forwards (one per step at
/// one replica a rank) and opens and closes the window at the start of a
/// step, when the previous step is finished on every rank (`gate` is shared
/// by every rank's model).
struct StepGate {
    inner: Box<dyn Module>,
    steps: usize,
    gate: Arc<Barrier>,
}

impl Module for StepGate {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.steps += 1;
            if self.steps == WARMUP + 1 {
                switch(&self.gate, true);
            } else if self.steps == WARMUP + MEASURED + 1 {
                switch(&self.gate, false);
            }
        }
        self.inner.forward(x, train)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.inner.backward(grad)
    }

    fn backward_hooked(
        &mut self,
        grad: &Tensor,
        base: usize,
        hook: &mut dyn FnMut(usize, &[f32]),
    ) -> Tensor {
        self.inner.backward_hooked(grad, base, hook)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f)
    }

    fn visit_params_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        self.inner.visit_params_named(prefix, f)
    }
}

/// The benchmark's `fcnet` shape: 1 579 236 parameters over 3x8x8 inputs.
fn fcnet() -> Box<dyn Module> {
    Box::new(
        Sequential::new()
            .push(Conv2d::new(3, 8, 3, 1, 1, true, 1))
            .push(ReLU::new())
            .push(Flatten::new())
            .push(Linear::new(512, 1024, 2))
            .push(ReLU::new())
            .push(Linear::new(1024, 1024, 3))
            .push(ReLU::new())
            .push(Linear::new(1024, 4, 4)),
    )
}

/// Train one epoch of `WARMUP + MEASURED + 2` steps on `transport` and
/// return how many large allocations the window saw, with the sizes of the
/// first [`SIZES`]`.len()` of them.
fn big_allocations_per_window(cfg: &TrainConfig, transport: TransportKind) -> (usize, Vec<usize>) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let steps = WARMUP + MEASURED + 2;
    let ds = SynthImageNet::new(SynthConfig {
        classes: 4,
        train_per_class: RANKS * cfg.batch_per_gpu * steps / 4,
        val_per_class: 1,
        base_hw: 8,
        hw_jitter: 0,
        noise: 18.0,
        seed: 7,
    });
    let gate = Arc::new(Barrier::new(RANKS));
    let factory = || -> Box<dyn Module> {
        Box::new(StepGate { inner: fcnet(), steps: 0, gate: Arc::clone(&gate) })
    };
    COUNTED.store(0, SeqCst);
    CLOSED.store(0, SeqCst);
    let run = ClusterBuilder::new(RANKS)
        .configure(RuntimeConfig::default())
        .transport(transport)
        .run(|comm| train_on_comm(comm, cfg, &ds, &factory));
    assert_eq!(CLOSED.load(SeqCst), 1, "the window must open and close once");
    assert!(run.results.iter().all(|epochs| epochs.len() == 1 && epochs[0].train_loss.is_finite()));
    let counted = COUNTED.load(SeqCst);
    (counted, SIZES.iter().take(counted).map(|s| s.load(SeqCst)).collect())
}

fn fc_config() -> TrainConfig {
    let mut cfg = TrainConfig::paper(RANKS, 1, 2, 1);
    // The benchmark's rate for this model (the paper's 0.1 diverges on it).
    let lr = 0.002;
    cfg.lr =
        LrSchedule { init_lr: lr, base_lr: lr, warmup_epochs: 1.0, step_epochs: 1e3, decay: 0.1 };
    cfg.crop = 8;
    cfg.validate = false;
    cfg.shuffle_every_epochs = 0;
    cfg
}

#[test]
fn hooked_tcp_step_allocates_nothing_but_pool_growth() {
    // The `fcnet-comm-tcp` exchange: 256 KiB buckets launched from the
    // backward hook, multicolor allreduce over loopback sockets. At two
    // ranks every message is a 1 MiB sub-chunk of the 4 MiB fc2 bucket (4
    // sent and 4 received per rank and step) or of the 2 MiB fc1 bucket (2
    // and 2) — or under 64 KiB.
    //
    // One site remains: a miss in an endpoint's `BufPool`. The pool keeps
    // as many sub-chunk buffers as the most messages any earlier step had
    // alive on that endpoint at once (being written by a send, or read and
    // not yet summed). That number depends on thread timing and only rises, so
    // now and then a step sets a new high and allocates a buffer or two
    // (0–3 in this window over 20 runs). A broken return path would miss on
    // every message of one direction instead: 6 per endpoint and step, 24 in
    // this window — the bound is half that.
    let mut cfg = fc_config();
    cfg.bucket_bytes = 262_144;
    cfg.overlap = OverlapMode::Hooked;
    let sub_chunk = 1 << 20;
    let (counted, sizes) = big_allocations_per_window(&cfg, TransportKind::Tcp);
    assert!(
        counted < 6 * MEASURED * RANKS / 2 && sizes.iter().all(|&s| s == sub_chunk),
        "{counted} allocation(s) of >= {BIG} bytes in {MEASURED} steps x {RANKS} ranks; \
         only a few {sub_chunk}-byte pool misses may remain (sizes: {sizes:?})"
    );
}

#[test]
fn sharded_threads_step_allocates_only_the_iteration_gradient() {
    // The `fcnet-sharded` exchange: one fused reduce-scatter, `step_range`,
    // the parameter allgather, over the threaded fabric. Nothing remains:
    // the replica's ranges merge into the executor's buffer and stream into
    // the trainer's (no `IterOutput::grad` per step any more), and that
    // buffer carries the allgather.
    let mut cfg = fc_config();
    cfg.shard_optim = true;
    let (counted, sizes) = big_allocations_per_window(&cfg, TransportKind::Threads);
    assert_eq!(
        (counted, sizes),
        (0, vec![]),
        "expected no allocation of >= {BIG} bytes in {MEASURED} steps x {RANKS} ranks"
    );
}
