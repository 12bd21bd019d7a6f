//! Overlap-aware gradient exchange: bucketed, nonblocking allreduce driven
//! by backward hooks.
//!
//! Backprop finishes the **last** layer's gradient first, yet the classic
//! Algorithm 1 waits for the whole flattened gradient before starting one
//! fused allreduce. [`GradSync`] instead packs the model's parameter
//! segments — walked in reverse layer order, the order backprop completes
//! them — into size-targeted buckets, and one schedule, the [`GradStream`],
//! exchanges them:
//!
//! * the backward hook reports each parameter range the moment its gradient
//!   is final ([`GradStream::segment_ready`]); a bucket seals and launches
//!   the instant its last segment arrives, so early buckets travel the
//!   network while earlier layers are still backpropagating (**hooked**);
//! * [`GradStream::finish`] launches whatever was never sealed
//!   **first-needed first** (the bucket covering the first forward layer
//!   goes out ahead of the rest) and drains the in-flight handles in
//!   reverse-launch order, so the bucket the next iteration's forward pass
//!   needs first completes first. With nothing reported that is the
//!   **drain** schedule ([`GradSync::reduce`]): every bucket launched after
//!   backward, overlapping each other but not backprop.
//!
//! A bucket size of `0` disables bucketing entirely: `finish` runs one
//! blocking allreduce over the fused gradient, in place on the caller's
//! thread. At two ranks the bucketed path is **bitwise identical** to the
//! blocking one for every algorithm (a single f32 addition per element
//! commutes); at larger scale each algorithm's summation order over a
//! sub-range can differ from its order over the fused buffer, exactly as
//! MPI makes no cross-count reproducibility promise. Seal order is
//! deterministic and identical on every rank (each rank walks the same
//! module tree backwards), which is what lets the runtime derive matching
//! bucket communicator IDs from launch sequence numbers alone.
//!
//! [`GradSync::with_shards`] swaps every allreduce in the plan — fused,
//! drained or hooked — for a reduce-scatter over the
//! [`crate::shard::ShardMap`] owner map: after the exchange only the
//! caller's owned range is fully reduced, which is all the sharded
//! optimizer reads before it allgathers the stepped parameters.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dcnn_collectives::runtime::{BucketSpan, CollectiveOp, Comm, CommStats, PendingReduce};
use dcnn_collectives::{quantize_f16, AlgoPolicy, Selection, Tuner};
use dcnn_tensor::layers::ParamSegment;

use crate::shard::ShardMap;

/// One planned bucket: a contiguous span of the flattened gradient covering
/// consecutive parameter segments in reverse layer order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    /// Start offset within the flattened gradient.
    pub offset: usize,
    /// Number of scalars.
    pub len: usize,
    /// Names of the parameter segments packed into this bucket, in reverse
    /// layer order (diagnostic: shows up in overlap reports).
    pub params: Vec<String>,
}

impl Bucket {
    /// The bucket's span over the flattened gradient.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }

    /// Payload size in bytes.
    pub fn bytes(&self) -> usize {
        self.len * 4
    }
}

/// Greedily pack `segments` (given in forward layer order) into buckets of
/// roughly `bucket_bytes` each, walking the segments in **reverse** so the
/// first bucket holds the parameters backprop finishes first. A segment
/// larger than the target gets a bucket of its own; `bucket_bytes == 0`
/// yields a single bucket spanning everything (the blocking path).
pub fn plan_buckets(segments: &[ParamSegment], bucket_bytes: usize) -> Vec<Bucket> {
    let total: usize = segments.iter().map(|s| s.len).sum();
    if bucket_bytes == 0 || segments.is_empty() {
        return vec![Bucket {
            offset: 0,
            len: total,
            params: segments.iter().map(|s| s.name.clone()).rev().collect(),
        }];
    }
    let mut out = Vec::new();
    let mut cur: Option<Bucket> = None;
    for seg in segments.iter().rev() {
        match &mut cur {
            Some(b) if (b.len + seg.len) * 4 <= bucket_bytes => {
                // Reverse walk: `seg` immediately precedes the bucket's
                // current start in the flat layout.
                debug_assert_eq!(seg.offset + seg.len, b.offset);
                b.offset = seg.offset;
                b.len += seg.len;
                b.params.push(seg.name.clone());
            }
            _ => {
                if let Some(b) = cur.take() {
                    out.push(b);
                }
                cur = Some(Bucket {
                    offset: seg.offset,
                    len: seg.len,
                    params: vec![seg.name.clone()],
                });
            }
        }
    }
    if let Some(b) = cur {
        out.push(b);
    }
    out
}

/// The gradient-exchange engine: owns the algorithm selector and the bucket
/// plan, and runs one exchange per training iteration.
pub struct GradSync {
    /// Picks the algorithm per bucket launch; a `Fixed` policy is a tuner
    /// pinned to its one candidate. The `RefCell` keeps selection usable
    /// from `&self` ([`GradStream`] holds a shared borrow while sealing).
    tuner: RefCell<Tuner>,
    segments: Vec<ParamSegment>,
    buckets: Vec<Bucket>,
    bucket_bytes: usize,
    fp16: bool,
    shards: Option<ShardMap>,
    /// The sharded strategy's reduce-scatter op per (bucket, tuner
    /// candidate). An op plans on its first run and its clones share the
    /// plan, so every step after the first launches without planning.
    scatter_ops: RefCell<HashMap<(usize, usize), CollectiveOp>>,
    /// One payload buffer per bucket: a seal copies the bucket into it and
    /// hands it to the launch, `finish` puts it back after the copy-back,
    /// so after the first exchange a seal allocates nothing.
    payloads: RefCell<Vec<Vec<f32>>>,
}

impl GradSync {
    /// Plan buckets over `segments` (forward layer order, as produced by
    /// `dcnn_tensor::layers::param_segments`) and stand up `policy`'s
    /// launch-time selector ([`AlgoPolicy::tuner`]). `bucket_bytes == 0`
    /// selects the fused blocking exchange; `fp16` quantizes each bucket's
    /// payload before it is reduced (elementwise, so identical to
    /// quantizing the fused gradient).
    pub fn with_policy(
        policy: AlgoPolicy,
        segments: &[ParamSegment],
        bucket_bytes: usize,
        fp16: bool,
    ) -> Self {
        let buckets = plan_buckets(segments, bucket_bytes);
        GradSync {
            tuner: RefCell::new(policy.tuner()),
            segments: segments.to_vec(),
            payloads: RefCell::new(vec![Vec::new(); buckets.len()]),
            buckets,
            bucket_bytes,
            fp16,
            shards: None,
            scatter_ops: RefCell::default(),
        }
    }

    /// Switch the exchange to the sharded strategy: every reduce becomes a
    /// reduce-scatter over `shards`' owner map, so after the exchange only
    /// this rank's owned range of the gradient is fully reduced — the rest
    /// holds partial sums the optimizer must not read. `shards.total()`
    /// must equal the segment map's total length.
    pub fn with_shards(mut self, shards: ShardMap) -> Self {
        let total: usize = self.segments.iter().map(|s| s.len).sum();
        assert_eq!(shards.total(), total, "shard map must cover the gradient");
        self.shards = Some(shards);
        self.scatter_ops.get_mut().clear();
        self
    }

    /// The planned buckets, in launch (reverse layer) order.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// The current bucket size target in bytes (`0` = fused blocking).
    pub fn bucket_bytes(&self) -> usize {
        self.bucket_bytes
    }

    /// Whether the nonblocking bucketed path is active.
    pub fn is_bucketed(&self) -> bool {
        self.bucket_bytes > 0
    }

    /// Total nanoseconds `stats` attributes to this sync's allreduce
    /// phase(s), summed over the selector's candidate labels.
    pub fn allreduce_phase_ns(&self, stats: &CommStats) -> u64 {
        self.tuner.borrow().phase_ns(stats)
    }

    /// Epoch boundary hook for the selector. `spans` are the bucket spans
    /// the communicator completed during the finished epoch. When a probe
    /// window just closed this runs the **collective** agreement round
    /// (every rank reaches this on the same epoch, so the collective is
    /// matched) and freezes the decision table. Returns the rendered
    /// decision table.
    pub fn tune_epoch_end(&self, comm: &Comm, spans: &[BucketSpan]) -> String {
        self.tuner.borrow_mut().close_epoch(comm, spans)
    }

    /// The current decision table without any communication: the fixed
    /// algorithm's name, or the tuner's frozen table (`"probe"` while the
    /// warm-up window is still open). Safe to call off the collective path,
    /// e.g. while flushing stats after an injected fault.
    pub fn choices_string(&self) -> String {
        self.tuner.borrow().decision_table()
    }

    /// Name of the parameter segment containing flat index `idx` (used to
    /// label a bucket with the segment that sealed it).
    fn segment_name_at(&self, idx: usize) -> &str {
        let i = self.segments.partition_point(|s| s.offset <= idx);
        if i == 0 {
            return "";
        }
        &self.segments[i - 1].name
    }

    /// The collective that exchanges bucket `i` with the selected algorithm:
    /// an allreduce, or under the sharded strategy the kept reduce-scatter
    /// over the owner map's cut of that bucket.
    fn op(&self, sel: &Selection, i: usize) -> CollectiveOp {
        let algo = Arc::clone(&sel.handle);
        match &self.shards {
            None => CollectiveOp::allreduce(algo),
            Some(sm) => self
                .scatter_ops
                .borrow_mut()
                .entry((i, sel.candidate))
                .or_insert_with(|| {
                    CollectiveOp::reduce_scatter(algo, sm.bucket_counts(self.buckets[i].range()))
                })
                .clone(),
        }
    }

    /// Start one iteration's exchange. Feed the stream from the backward
    /// hook via [`GradStream::segment_ready`] (or not at all), then call
    /// [`GradStream::finish`] before the SGD step.
    pub fn begin<'a>(&'a self, comm: &'a Comm) -> GradStream<'a> {
        GradStream {
            sync: self,
            comm,
            remaining: self.buckets.iter().map(|b| b.len).collect(),
            in_flight: Vec::new(),
        }
    }

    /// Sum `grad` elementwise across all ranks of `comm`, in place: the
    /// exchange with nothing streamed. Blocking mode runs one fused
    /// allreduce on the calling thread; bucketed mode launches every
    /// bucket's nonblocking reduce back to back and drains them.
    pub fn reduce(&self, comm: &Comm, grad: &mut [f32]) {
        self.begin(comm).finish(grad);
    }
}

/// One training iteration's gradient exchange: buckets seal and launch as
/// the backward hook reports parameter ranges, and the remainder launches
/// and drains with next-iteration priority in [`GradStream::finish`].
pub struct GradStream<'a> {
    sync: &'a GradSync,
    comm: &'a Comm,
    /// Scalars of each bucket not yet reported by the hook; `0` = sealed.
    remaining: Vec<usize>,
    /// Launched buckets (plan index, handle), in launch order.
    in_flight: Vec<(usize, PendingReduce)>,
}

impl<'a> GradStream<'a> {
    /// Report that `grad[off..off + len]` is final (no later backward step
    /// will touch it). Every bucket the range overlaps credits the overlap;
    /// a bucket whose last outstanding scalars just arrived seals — its
    /// payload is copied out of `grad` and its nonblocking allreduce
    /// launches immediately, labeled with the name of the parameter segment
    /// that sealed it (the watchdog surfaces that label if the reduce ever
    /// blocks).
    ///
    /// All ranks must report the same ranges in the same order — true by
    /// construction when the reports come from the backward hook over
    /// identical model replicas.
    pub fn segment_ready(&mut self, grad: &[f32], off: usize, len: usize) {
        let end = off + len;
        for (i, b) in self.sync.buckets.iter().enumerate() {
            if self.remaining[i] == 0 {
                continue;
            }
            let lo = b.offset.max(off);
            let hi = (b.offset + b.len).min(end);
            if lo >= hi {
                continue;
            }
            self.remaining[i] -= hi - lo;
            if self.remaining[i] == 0 {
                self.seal(i, grad, lo);
            }
        }
    }

    /// Number of buckets whose reduce has launched so far.
    pub fn launched(&self) -> usize {
        self.in_flight.len()
    }

    /// Everything one bucket's launch takes: copy the payload into the
    /// bucket's buffer, quantize it, pick the algorithm, build the op from
    /// the shard map, launch.
    fn seal(&mut self, i: usize, grad: &[f32], sealed_at: usize) {
        let sync = self.sync;
        let b = &sync.buckets[i];
        let mut payload = std::mem::take(&mut sync.payloads.borrow_mut()[i]);
        payload.clear();
        payload.extend_from_slice(&grad[b.range()]);
        if sync.fp16 {
            quantize_f16(&mut payload);
        }
        // Seal order is deterministic and identical on every rank, and the
        // tuner's choice depends only on the bucket's plan index — so every
        // rank launches the same algorithm for the same seq.
        let sel = sync.tuner.borrow_mut().select(i, b.bytes() as u64, self.comm.size(), true);
        let op = sync.op(&sel, i).labeled(Arc::from(sync.segment_name_at(sealed_at)));
        self.in_flight.push((i, self.comm.launch(op, payload)));
    }

    /// Launch any buckets backprop never sealed (stragglers, ranges the
    /// caller withheld, or — nothing reported — all of them) and drain
    /// everything in flight, scattering the reduced payloads back into
    /// `grad`. Returns the number of nonblocking reduces this exchange
    /// launched.
    ///
    /// Stragglers launch in **reverse bucket-index order** — the plan's last
    /// bucket covers the first forward layers, which the next iteration
    /// needs first — and the drain walks reverse-launch order for the same
    /// reason. Both orders are deterministic, so ranks keep launching the
    /// same buckets in the same sequence.
    ///
    /// A fused plan (`bucket_bytes == 0`) that has launched nothing is the
    /// classic Algorithm 1 exchange instead: its one op runs blocking, in
    /// place, on the caller's communicator — no payload copy, no worker
    /// hop, and `0` launches reported.
    pub fn finish(mut self, grad: &mut [f32]) -> usize {
        let sync = self.sync;
        if !sync.is_bucketed() && self.in_flight.is_empty() {
            if sync.fp16 {
                quantize_f16(grad);
            }
            // No bucket span will record a blocking launch, so time it
            // here and report back to the tuner directly.
            let bytes = (grad.len() * 4) as u64;
            let sel = sync.tuner.borrow_mut().select(0, bytes, self.comm.size(), false);
            let op = sync.op(&sel, 0);
            let start = Instant::now();
            op.run(self.comm, grad);
            sync.tuner.borrow_mut().record(&sel, bytes, start.elapsed().as_nanos() as u64);
            return 0;
        }
        for i in (0..sync.buckets.len()).rev() {
            if self.remaining[i] > 0 {
                self.seal(i, grad, sync.buckets[i].offset);
            }
        }
        let launched = self.in_flight.len();
        for (i, p) in self.in_flight.into_iter().rev() {
            let reduced = p.wait();
            grad[sync.buckets[i].range()].copy_from_slice(&reduced);
            sync.payloads.borrow_mut()[i] = reduced;
        }
        launched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnn_collectives::{run_cluster, AllreduceAlgo};

    fn segs(lens: &[usize]) -> Vec<ParamSegment> {
        let mut out = Vec::new();
        let mut off = 0;
        for (i, &l) in lens.iter().enumerate() {
            out.push(ParamSegment { name: format!("p{i}"), offset: off, len: l });
            off += l;
        }
        out
    }

    #[test]
    fn zero_target_is_one_fused_bucket() {
        let s = segs(&[10, 20, 30]);
        let plan = plan_buckets(&s, 0);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].offset, 0);
        assert_eq!(plan[0].len, 60);
        assert_eq!(plan[0].params, ["p2", "p1", "p0"]);
    }

    #[test]
    fn buckets_tile_the_gradient_in_reverse_order() {
        let s = segs(&[100, 3, 7, 50, 40]);
        let total: usize = 200;
        for bytes in [1, 64, 160, 200, 400, 1_000_000] {
            let plan = plan_buckets(&s, bytes);
            // Launch order walks the flat layout backwards without gaps.
            let mut end = total;
            let mut names = Vec::new();
            for b in &plan {
                assert_eq!(b.offset + b.len, end, "gap at bucket {b:?}");
                assert!(b.len > 0);
                end = b.offset;
                names.extend(b.params.iter().cloned());
            }
            assert_eq!(end, 0, "buckets must reach offset 0");
            assert_eq!(names, ["p4", "p3", "p2", "p1", "p0"]);
        }
    }

    #[test]
    fn respects_size_target_except_oversized_segments() {
        let s = segs(&[100, 3, 7, 50, 40]);
        let plan = plan_buckets(&s, 160); // 40 floats
        for b in &plan {
            assert!(
                b.bytes() <= 160 || b.params.len() == 1,
                "over-target multi-segment bucket: {b:?}"
            );
        }
        // 100-float segment must sit alone.
        let big = plan.iter().find(|b| b.params.contains(&"p0".to_string())).unwrap();
        assert_eq!(big.params, ["p0"]);
    }

    #[test]
    fn bucketed_reduce_matches_blocking_bitwise_at_two_ranks() {
        let s = segs(&[33, 5, 61, 2]);
        let out = run_cluster(2, move |comm| {
            let mk = |rank: usize| -> Vec<f32> {
                (0..101).map(|i| ((i * 37 + rank * 11) as f32 * 0.618).sin()).collect()
            };
            let algo = AllreduceAlgo::RingReduceScatter;
            let mut blocking = mk(comm.rank());
            GradSync::with_policy(algo.into(), &s, 0, false).reduce(comm, &mut blocking);
            let mut bucketed = mk(comm.rank());
            GradSync::with_policy(algo.into(), &s, 128, false).reduce(comm, &mut bucketed);
            (blocking, bucketed)
        });
        for (rank, (a, b)) in out.iter().enumerate() {
            for i in 0..a.len() {
                assert_eq!(
                    a[i].to_bits(),
                    b[i].to_bits(),
                    "rank {rank} elem {i}: {} vs {}",
                    a[i],
                    b[i]
                );
            }
        }
    }

    #[test]
    fn streamed_exchange_matches_blocking_bitwise_at_two_ranks() {
        let s = segs(&[33, 5, 61, 2]);
        let out = run_cluster(2, move |comm| {
            let mk = |rank: usize| -> Vec<f32> {
                (0..101).map(|i| ((i * 37 + rank * 11) as f32 * 0.618).sin()).collect()
            };
            let algo = AllreduceAlgo::RingReduceScatter;
            let mut blocking = mk(comm.rank());
            GradSync::with_policy(algo.into(), &s, 0, false).reduce(comm, &mut blocking);

            // Hooked: report segments in backward (reverse) order so buckets
            // seal and launch mid-"backprop".
            let gsync = GradSync::with_policy(algo.into(), &s, 128, false);
            let mut streamed = mk(comm.rank());
            let mut stream = gsync.begin(comm);
            for seg in s.iter().rev() {
                stream.segment_ready(&streamed, seg.offset, seg.len);
            }
            assert_eq!(stream.launched(), gsync.buckets().len(), "every bucket sealed");
            stream.finish(&mut streamed);

            // Ranges that straddle the bucket boundaries ([99..101),
            // [38..99), [33..38), [0..33)) and arrive out of reverse order:
            // each bucket still seals exactly once, at the report that
            // completes it, and `finish` launches the one left short
            // ([0..33) never hears about 20..30).
            let mut straddled = mk(comm.rank());
            let mut stream = gsync.begin(comm);
            let sealed_after: Vec<usize> = [(30, 40), (95, 6), (0, 20), (70, 25)]
                .iter()
                .map(|&(off, len)| {
                    stream.segment_ready(&straddled, off, len);
                    stream.launched()
                })
                .collect();
            assert_eq!(sealed_after, [1, 2, 2, 3]);
            assert_eq!(stream.finish(&mut straddled), gsync.buckets().len());
            (blocking, streamed, straddled)
        });
        for (rank, (a, b, c)) in out.iter().enumerate() {
            for i in 0..a.len() {
                assert_eq!(a[i].to_bits(), b[i].to_bits(), "rank {rank} elem {i}");
                assert_eq!(a[i].to_bits(), c[i].to_bits(), "rank {rank} elem {i} (straddled)");
            }
        }
    }

    #[test]
    fn finish_launches_stragglers_and_still_matches() {
        // Report only the tail segment; finish must seal and reduce the
        // rest (first-needed-first) and end bitwise equal to blocking.
        let s = segs(&[40, 9, 12]);
        let out = run_cluster(2, move |comm| {
            let mk = |rank: usize| -> Vec<f32> {
                (0..61).map(|i| ((i + 3 * rank) as f32).cos()).collect()
            };
            let algo = AllreduceAlgo::HalvingDoubling;
            let mut blocking = mk(comm.rank());
            GradSync::with_policy(algo.into(), &s, 0, false).reduce(comm, &mut blocking);

            let gsync = GradSync::with_policy(algo.into(), &s, 64, false);
            let mut streamed = mk(comm.rank());
            let mut stream = gsync.begin(comm);
            stream.segment_ready(&streamed, s[2].offset, s[2].len);
            stream.finish(&mut streamed);
            (blocking, streamed)
        });
        for (a, b) in &out {
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn sharded_fused_reduce_matches_replicated_on_owned_range_every_algorithm() {
        // The strategy seam: after a sharded fused reduce, this rank's owned
        // range must carry exactly the bits the replicated fused reduce
        // produces there — for every algorithm, at a world size that leaves
        // uneven shards.
        let total = 101usize;
        for algo_kind in AllreduceAlgo::all() {
            let s = segs(&[33, 5, 61, 2]);
            let out = run_cluster(3, move |comm| {
                let mk = |rank: usize| -> Vec<f32> {
                    (0..total).map(|i| ((i * 37 + rank * 11) as f32 * 0.618).sin()).collect()
                };
                let mut replicated = mk(comm.rank());
                GradSync::with_policy(algo_kind.into(), &s, 0, false)
                    .reduce(comm, &mut replicated);
                let sm = ShardMap::new(total, comm.size());
                let mut sharded = mk(comm.rank());
                GradSync::with_policy(algo_kind.into(), &s, 0, false)
                    .with_shards(sm.clone())
                    .reduce(comm, &mut sharded);
                let owned = sm.owned(comm.rank());
                (replicated[owned.clone()].to_vec(), sharded[owned].to_vec())
            });
            for (rank, (a, b)) in out.iter().enumerate() {
                assert_eq!(
                    a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{algo_kind:?} rank {rank}"
                );
            }
        }
    }

    #[test]
    fn sharded_exchange_plans_each_bucket_once_not_each_step() {
        // Pruning the allreduce down to its reduce-scatter plans all ranks;
        // the sync keeps one op per bucket, so two steps plan as often as
        // one. `scatter-plan` is the phase a reduce-scatter op plans under.
        use dcnn_collectives::ClusterBuilder;
        let total = 101usize;
        for bucket_bytes in [0, 128] {
            let s = segs(&[33, 5, 61, 2]);
            let run = ClusterBuilder::new(3).run(move |comm| {
                let gsync =
                    GradSync::with_policy(AllreduceAlgo::MultiColor(4).into(), &s, bucket_bytes, false)
                        .with_shards(ShardMap::new(total, comm.size()));
                let step = || {
                    let mut grad: Vec<f32> =
                        (0..total).map(|i| (i + comm.rank()) as f32).collect();
                    gsync.reduce(comm, &mut grad);
                    comm.stats().phase_ns.iter().find(|p| p.0 == "scatter-plan").map(|p| p.2)
                };
                (step(), step(), gsync.buckets().len() as u64)
            });
            for (rank, (first, second, buckets)) in run.results.into_iter().enumerate() {
                assert_eq!(first, Some(buckets), "bucket_bytes={bucket_bytes} rank {rank}");
                assert_eq!(second, first, "bucket_bytes={bucket_bytes} rank {rank}: step 2 planned");
            }
        }
    }

    #[test]
    fn sharded_bucketed_and_streamed_match_fused_with_ring_at_three_ranks() {
        // The ring's true reduce-scatter anchors each element at its owner,
        // so sharded bucketing (per-bucket reduce-scatters) and the hooked
        // stream must land the same owned bits as the fused sharded
        // exchange — even at three ranks, where summation order matters.
        let s = segs(&[33, 5, 61, 2]);
        let total = 101usize;
        let out = run_cluster(3, move |comm| {
            let mk = |rank: usize| -> Vec<f32> {
                (0..total).map(|i| ((i * 41 + rank * 13) as f32 * 0.377).cos()).collect()
            };
            let algo = AllreduceAlgo::RingReduceScatter;
            let sm = ShardMap::new(total, comm.size());
            let mut fused = mk(comm.rank());
            GradSync::with_policy(algo.into(), &s, 0, false)
                .with_shards(sm.clone())
                .reduce(comm, &mut fused);

            let mut bucketed = mk(comm.rank());
            GradSync::with_policy(algo.into(), &s, 128, false)
                .with_shards(sm.clone())
                .reduce(comm, &mut bucketed);

            let gsync =
                GradSync::with_policy(algo.into(), &s, 128, false).with_shards(sm.clone());
            let mut streamed = mk(comm.rank());
            let mut stream = gsync.begin(comm);
            for seg in s.iter().rev() {
                stream.segment_ready(&streamed, seg.offset, seg.len);
            }
            stream.finish(&mut streamed);

            let owned = sm.owned(comm.rank());
            (
                fused[owned.clone()].to_vec(),
                bucketed[owned.clone()].to_vec(),
                streamed[owned].to_vec(),
            )
        });
        for (rank, (f, b, st)) in out.iter().enumerate() {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(f), bits(b), "rank {rank}: bucketed diverged");
            assert_eq!(bits(f), bits(st), "rank {rank}: streamed diverged");
        }
    }

    #[test]
    fn auto_single_candidate_matches_fixed_bitwise_everywhere() {
        // Satellite acceptance: `Auto` with one registered candidate must be
        // bitwise-identical to `Fixed` of that algorithm for every launch
        // schedule (fused / drain / hooked) in both the replicated and the
        // sharded strategy — at three ranks, where summation order matters.
        use dcnn_collectives::{AlgoPolicy, TunerConfig};
        let total = 101usize;
        let auto = || {
            AlgoPolicy::Auto(TunerConfig::with_candidates(vec![AllreduceAlgo::RingReduceScatter]))
        };
        let fixed = || AlgoPolicy::Fixed(AllreduceAlgo::RingReduceScatter);
        for sharded in [false, true] {
            let s = segs(&[33, 5, 61, 2]);
            let out = run_cluster(3, move |comm| {
                let mk = |rank: usize| -> Vec<f32> {
                    (0..total).map(|i| ((i * 37 + rank * 11) as f32 * 0.618).sin()).collect()
                };
                let build = |policy: AlgoPolicy, bytes: usize| {
                    let g = GradSync::with_policy(policy, &s, bytes, false);
                    if sharded {
                        g.with_shards(ShardMap::new(total, comm.size()))
                    } else {
                        g
                    }
                };
                let run_fused = |policy: AlgoPolicy| {
                    let mut g = mk(comm.rank());
                    build(policy, 0).reduce(comm, &mut g);
                    g
                };
                let run_drain = |policy: AlgoPolicy| {
                    let mut g = mk(comm.rank());
                    build(policy, 128).reduce(comm, &mut g);
                    g
                };
                let run_hooked = |policy: AlgoPolicy, report: bool| {
                    let gsync = build(policy, 128);
                    let mut g = mk(comm.rank());
                    let mut stream = gsync.begin(comm);
                    for seg in s.iter().rev().filter(|_| report) {
                        stream.segment_ready(&g, seg.offset, seg.len);
                    }
                    stream.finish(&mut g);
                    g
                };
                let owned = ShardMap::new(total, comm.size()).owned(comm.rank());
                let view = |v: Vec<f32>| -> Vec<u32> {
                    let r = if sharded { &v[owned.clone()] } else { &v[..] };
                    r.iter().map(|x| x.to_bits()).collect()
                };
                (
                    view(run_fused(auto())) == view(run_fused(fixed())),
                    view(run_drain(auto())) == view(run_drain(fixed())),
                    view(run_hooked(auto(), true)) == view(run_hooked(fixed(), true)),
                    // Drain is not separate code: `reduce` on a bucketed
                    // plan is the stream with nothing reported.
                    view(run_drain(fixed())) == view(run_hooked(fixed(), false)),
                )
            });
            for (rank, (fused, drain, hooked, unreported)) in out.iter().enumerate() {
                assert!(fused, "sharded={sharded} rank {rank}: fused diverged");
                assert!(drain, "sharded={sharded} rank {rank}: drain diverged");
                assert!(hooked, "sharded={sharded} rank {rank}: hooked diverged");
                assert!(unreported, "sharded={sharded} rank {rank}: reduce != unreported stream");
            }
        }
    }

    #[test]
    fn fp16_bucketing_equals_fp16_fused_at_two_ranks() {
        let s = segs(&[17, 48]);
        let out = run_cluster(2, move |comm| {
            let mk = |rank: usize| -> Vec<f32> {
                (0..65).map(|i| ((i + rank * 7) as f32).cos()).collect()
            };
            let algo = AllreduceAlgo::RecursiveDoubling;
            let mut fused = mk(comm.rank());
            GradSync::with_policy(algo.into(), &s, 0, true).reduce(comm, &mut fused);
            let mut bucketed = mk(comm.rank());
            GradSync::with_policy(algo.into(), &s, 64, true).reduce(comm, &mut bucketed);
            (fused, bucketed)
        });
        for (a, b) in &out {
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
