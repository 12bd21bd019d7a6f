//! The donkey prefetch pipeline, for real: background threads decode and
//! augment upcoming mini-batches while the GPUs train on the current one —
//! exactly the overlap Torch's donkeys are supposed to provide and that DIMD
//! makes possible (in-memory records decode fast enough to stay ahead,
//! §4.1).
//!
//! [`Prefetcher::run_epoch`] takes ownership of the [`Dimd`] partition,
//! streams `iterations` batches through the pipeline, and returns the
//! partition when joined — ready for the end-of-epoch shuffle.
//!
//! The pipeline has two stages, mirroring the data-plane service split:
//! a *picker* thread draws records from the store (cheap — no decode), and
//! `workers` decode threads run the JPEG-decode + augment + normalize work
//! in parallel. `depth` bounds the number of batches picked but not yet
//! consumed to *exactly* `depth` (the old bounded-channel design allowed
//! `depth + 1`: `depth` queued plus one blocked in `send`): the picker
//! spends one token per pick from a channel that starts with `depth` of
//! them, and each consumed batch sends one back. Dropping the
//! [`Prefetcher`] — finished or not — hangs up that channel, which ends
//! the picker, and the ended picker ends the lanes.
//!
//! The decode threads are *decode lanes* (`decode_lanes`), the pool the
//! data-plane service client decodes on too, fed by its socket reader.

use dcnn_tensor::Tensor;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::shuffle::Record;
use crate::store::{try_decode_augmented_batch, Dimd};

/// What a decode lane delivers: a batch, or why there is none — a record
/// the codec refused, or a death notice the producer queued as a job.
pub(crate) type Decoded = Result<(Tensor, Vec<usize>), String>;

/// The producer's end of a pool of decode lanes, each one decode thread
/// with a job channel in and a result channel out: the `k`-th job goes to
/// lane `k % lanes`.
pub(crate) struct LaneJobs<J>(Vec<Sender<J>>, usize);

/// The consumer's end: the `k`-th result comes from lane `k % lanes`, so
/// results arrive in job order for any lane count.
pub(crate) struct LaneOuts {
    outs: Vec<Receiver<Decoded>>,
    next: Cell<usize>,
    threads: Vec<JoinHandle<()>>,
}

/// Spawn `lanes` decode threads (`dcnn-decode-N`), each running `decode`
/// on its jobs.
pub(crate) fn decode_lanes<J: Send + 'static>(
    lanes: usize,
    decode: impl Fn(J) -> Decoded + Clone + Send + 'static,
) -> (LaneJobs<J>, LaneOuts) {
    assert!(lanes >= 1, "need at least one decode worker");
    let mut jobs = Vec::with_capacity(lanes);
    let mut outs = LaneOuts { outs: Vec::new(), next: Cell::new(0), threads: Vec::new() };
    for lane in 0..lanes {
        let (job_tx, job_rx) = channel::<J>();
        let (out_tx, out_rx) = channel();
        jobs.push(job_tx);
        outs.outs.push(out_rx);
        let decode = decode.clone();
        // A lane stops after delivering an `Err`, or once either end hangs
        // up.
        let run = move || {
            for job in job_rx {
                let decoded = decode(job);
                let failed = decoded.is_err();
                if out_tx.send(decoded).is_err() || failed {
                    return;
                }
            }
        };
        outs.threads.push(spawn_named(format!("dcnn-decode-{lane}"), run));
    }
    (LaneJobs(jobs, 0), outs)
}

fn spawn_named<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    std::thread::Builder::new().name(name).spawn(f).expect("spawn a data-pipeline thread")
}

impl<J> LaneJobs<J> {
    /// Queue the next job on its lane; `false` once that lane has stopped.
    pub(crate) fn send(&mut self, job: J) -> bool {
        let lane = self.1 % self.0.len();
        self.1 += 1;
        self.0[lane].send(job).is_ok()
    }
}

impl LaneOuts {
    /// The next result in job order; `None` once its lane and every
    /// producer are gone with nothing left to deliver.
    pub(crate) fn recv(&self) -> Option<Decoded> {
        let lane = self.next.get();
        self.next.set((lane + 1) % self.outs.len());
        self.outs[lane].recv().ok()
    }

    /// Drop the result channels, then join the decode threads.
    pub(crate) fn join(self) {
        drop(self.outs);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// A running prefetch pipeline for one epoch.
pub struct Prefetcher {
    lanes: LaneOuts,
    /// One token back per consumed batch; dropping it ends the picker.
    tokens: Sender<()>,
    produced: Arc<AtomicUsize>,
    picker: JoinHandle<Dimd>,
}

impl Prefetcher {
    /// Spawn the pipeline with a single decode thread: `iterations`
    /// batches of `batch` images cropped to `crop²`, at most `depth`
    /// batches picked but not yet consumed.
    pub fn run_epoch(
        dimd: Dimd,
        iterations: usize,
        batch: usize,
        crop: usize,
        depth: usize,
    ) -> Prefetcher {
        Prefetcher::run_epoch_with(dimd, iterations, batch, crop, depth, 1)
    }

    /// [`Prefetcher::run_epoch`] with `workers` parallel decode threads.
    /// Batches are handed to decoders round-robin and consumed in the same
    /// order, so the delivered sequence is identical for any worker count.
    pub fn run_epoch_with(
        dimd: Dimd,
        iterations: usize,
        batch: usize,
        crop: usize,
        depth: usize,
        workers: usize,
    ) -> Prefetcher {
        assert!(depth >= 1, "queue depth must be at least 1");
        let (tokens, picker_tokens) = channel();
        for _ in 0..depth {
            tokens.send(()).expect("the picker's end is alive");
        }
        let produced = Arc::new(AtomicUsize::new(0));
        let (mut jobs, lanes) =
            decode_lanes(workers, move |(salt, records): (u64, Vec<Record>)| {
                try_decode_augmented_batch(&records, crop, salt)
                    .map_err(|e| format!("malformed DCC1 record: {e}"))
            });

        let picker_produced = Arc::clone(&produced);
        let picker = spawn_named("dcnn-prefetch".into(), move || {
            let mut dimd = dimd;
            for _ in 0..iterations {
                if picker_tokens.recv().is_err() {
                    break; // consumer finished early
                }
                let job = dimd.sample_batch_records(batch);
                picker_produced.fetch_add(1, Ordering::SeqCst);
                if !jobs.send(job) {
                    break;
                }
            }
            dimd
        });

        Prefetcher { lanes, tokens, produced, picker }
    }

    /// Receive the next batch (blocks until the pipeline catches up).
    ///
    /// # Panics
    /// Panics if more than `iterations` batches are requested.
    pub fn next_batch(&self) -> (Tensor, Vec<usize>) {
        let b = match self.lanes.recv() {
            Some(Ok(b)) => b,
            Some(Err(cause)) => panic!("prefetch decode failed: {cause}"),
            None => panic!("prefetcher exhausted: more batches requested than produced"),
        };
        // The picker may be gone already (its last pick made); nothing
        // then waits for the token.
        let _ = self.tokens.send(());
        b
    }

    /// Batches picked from the store so far (consumed or in flight) —
    /// observable so tests can pin the `depth` bound.
    pub fn produced(&self) -> usize {
        self.produced.load(Ordering::SeqCst)
    }

    /// Join the pipeline and recover the partition.
    pub fn finish(self) -> Dimd {
        drop(self.tokens);
        self.lanes.join();
        self.picker.join().expect("prefetch picker panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SynthConfig, SynthImageNet};

    fn ds() -> SynthImageNet {
        let mut cfg = SynthConfig::tiny(3);
        cfg.train_per_class = 12;
        cfg.base_hw = 16;
        SynthImageNet::new(cfg)
    }

    #[test]
    fn prefetched_batches_match_direct_sampling() {
        let ds = ds();
        // Same seed ⇒ identical sampling order with or without the pipeline.
        let mut direct = Dimd::load_partition(&ds, 0, 1, 70, 7);
        let pre = Dimd::load_partition(&ds, 0, 1, 70, 7);
        let p = Prefetcher::run_epoch(pre, 4, 6, 16, 2);
        for _ in 0..4 {
            let (xd, ld) = direct.random_batch(6, 16);
            let (xp, lp) = p.next_batch();
            assert_eq!(xd, xp);
            assert_eq!(ld, lp);
        }
        let back = p.finish();
        assert_eq!(back.len(), direct.len());
    }

    #[test]
    fn parallel_decoders_preserve_batch_order() {
        let ds = ds();
        let mut direct = Dimd::load_partition(&ds, 0, 1, 70, 21);
        let pre = Dimd::load_partition(&ds, 0, 1, 70, 21);
        // 3 decode workers: delivery order must still match direct sampling.
        let p = Prefetcher::run_epoch_with(pre, 7, 4, 16, 2, 3);
        for i in 0..7 {
            let (xd, ld) = direct.random_batch(4, 16);
            let (xp, lp) = p.next_batch();
            assert_eq!(xd, xp, "batch {i} out of order");
            assert_eq!(ld, lp, "batch {i} labels out of order");
        }
        p.finish();
    }

    #[test]
    fn depth_bounds_picked_batches_exactly() {
        let ds = ds();
        let dimd = Dimd::load_partition(&ds, 0, 1, 70, 5);
        let depth = 3;
        let p = Prefetcher::run_epoch(dimd, 100, 2, 16, depth);
        // Consume nothing: the picker must stall at exactly `depth` picks
        // (the old sync_channel(depth) design crept to depth + 1).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while p.produced() < depth && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(p.produced(), depth, "picker did not reach depth");
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(p.produced(), depth, "picker overran the depth bound");
        // Consuming one batch frees exactly one permit.
        let _ = p.next_batch();
        while p.produced() < depth + 1 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(p.produced(), depth + 1);
        p.finish();
    }

    #[test]
    fn early_drop_does_not_hang() {
        let ds = ds();
        let dimd = Dimd::load_partition(&ds, 0, 1, 70, 9);
        let p = Prefetcher::run_epoch(dimd, 100, 4, 16, 1);
        let _ = p.next_batch();
        let back = p.finish(); // hangs up the tokens with 99 batches pending
        assert_eq!(back.len(), 36);
    }

    #[test]
    fn partition_usable_after_epoch() {
        let ds = ds();
        let dimd = Dimd::load_partition(&ds, 0, 1, 70, 3);
        let p = Prefetcher::run_epoch(dimd, 2, 4, 16, 2);
        let _ = p.next_batch();
        let _ = p.next_batch();
        let mut back = p.finish();
        let (x, _) = back.random_batch(4, 16);
        assert_eq!(x.shape(), &[4, 3, 16, 16]);
    }

    #[test]
    #[should_panic]
    fn over_consuming_panics() {
        let ds = ds();
        let dimd = Dimd::load_partition(&ds, 0, 1, 70, 3);
        let p = Prefetcher::run_epoch(dimd, 1, 4, 16, 1);
        let _ = p.next_batch();
        let _ = p.next_batch();
    }
}
