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
//!
//! The algorithm per bucket is decided once, before the first exchange:
//! `Fixed` (and single-candidate `auto`) at construction, a multi-candidate
//! `auto` policy by the collective [`GradSync::decide`] step, which times
//! each candidate on each size class of the plan through the exchange's own
//! op and path. After that every bucket has one op, and no step measures or
//! agrees anything.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use dcnn_collectives::runtime::{CollectiveOp, Comm, CommError, CommStats, PendingReduce};
use dcnn_collectives::{quantize_f16, size_class, AlgoPolicy, AllreduceAlgo, Decision};
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

/// The gradient-exchange engine: owns the algorithm decision and the bucket
/// plan, and runs one exchange per training iteration.
pub struct GradSync {
    policy: AlgoPolicy,
    /// The algorithm per bucket size; `None` until [`GradSync::decide`]
    /// for a multi-candidate `auto` policy.
    decision: Option<Decision>,
    segments: Vec<ParamSegment>,
    buckets: Vec<Bucket>,
    bucket_bytes: usize,
    fp16: bool,
    shards: Option<ShardMap>,
    /// One op per bucket, from the decision: an allreduce, or the sharded
    /// strategy's reduce-scatter, which plans on its first run and whose
    /// clones share the plan, so every step after the first launches
    /// without planning. Empty while undecided.
    ops: Vec<CollectiveOp>,
    /// One payload buffer per bucket: a seal copies the bucket into it and
    /// hands it to the launch, `finish` puts it back after the copy-back,
    /// so after the first exchange a seal allocates nothing.
    payloads: RefCell<Vec<Vec<f32>>>,
}

impl GradSync {
    /// Plan buckets over `segments` (forward layer order, as produced by
    /// `dcnn_tensor::layers::param_segments`) under `policy`: `Fixed` and
    /// single-candidate `auto` are decided here, a multi-candidate `auto`
    /// by [`GradSync::decide`]. `bucket_bytes == 0` selects the fused
    /// blocking exchange; `fp16` quantizes each bucket's payload before it
    /// is reduced (elementwise, so identical to quantizing the fused
    /// gradient).
    pub fn with_policy(
        policy: AlgoPolicy,
        segments: &[ParamSegment],
        bucket_bytes: usize,
        fp16: bool,
    ) -> Self {
        let buckets = plan_buckets(segments, bucket_bytes);
        let mut sync = GradSync {
            policy,
            decision: None,
            segments: segments.to_vec(),
            payloads: RefCell::new(vec![Vec::new(); buckets.len()]),
            buckets,
            bucket_bytes,
            fp16,
            shards: None,
            ops: Vec::new(),
        };
        sync.decision = sync.policy.settled(sync.class_buckets().into_keys());
        sync.build_ops();
        sync
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
        self.build_ops();
        self
    }

    /// Decide the algorithm for every bucket, once, before the first
    /// [`GradSync::begin`]: **collective** for a multi-candidate `auto`
    /// policy ([`AlgoPolicy::decide`]: per size class of the plan and per
    /// candidate, timed exchanges of the class's largest bucket through the
    /// op and path a step runs — its reduce-scatter when sharded, a launch
    /// and wait when bucketed, inline when fused — then one agreement
    /// round), immediate for any other policy or once decided. Every rank
    /// calls it at the same point, after [`GradSync::with_shards`].
    pub fn decide(&mut self, comm: &Comm) -> Result<(), CommError> {
        if self.decision.is_some() {
            return Ok(());
        }
        let probes = self.class_buckets();
        let classes: Vec<u32> = probes.keys().copied().collect();
        let bucketed = self.is_bucketed();
        let decision = self.policy.decide(comm, &classes, |class, algo| {
            let i = probes[&class];
            let op = self.op(i, algo);
            let mut buf = vec![0.0f32; self.buckets[i].len];
            move || {
                if bucketed {
                    buf = comm.launch(op.clone(), std::mem::take(&mut buf)).wait()?;
                } else {
                    op.run(comm, &mut buf)?;
                }
                Ok(())
            }
        })?;
        self.decision = Some(decision);
        self.build_ops();
        Ok(())
    }

    /// Per size class of the plan, the index of its largest bucket (the
    /// first of equals) — the one [`GradSync::decide`] times.
    fn class_buckets(&self) -> BTreeMap<u32, usize> {
        let mut out: BTreeMap<u32, usize> = BTreeMap::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let e = out.entry(size_class(b.bytes() as u64)).or_insert(i);
            if b.len > self.buckets[*e].len {
                *e = i;
            }
        }
        out
    }

    /// The collective that exchanges bucket `i` with `algo`: an allreduce,
    /// or under the sharded strategy the reduce-scatter over the owner
    /// map's cut of that bucket.
    fn op(&self, i: usize, algo: AllreduceAlgo) -> CollectiveOp {
        match &self.shards {
            None => CollectiveOp::allreduce(algo.build()),
            Some(sm) => CollectiveOp::reduce_scatter(
                algo.build(),
                sm.bucket_counts(self.buckets[i].range()),
            ),
        }
    }

    /// Rebuild every bucket's op from the decision (none while undecided).
    fn build_ops(&mut self) {
        self.ops = match &self.decision {
            None => Vec::new(),
            Some(d) => (0..self.buckets.len())
                .map(|i| self.op(i, d.algo(self.buckets[i].bytes() as u64)))
                .collect(),
        };
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
    /// phase(s), summed over the policy's candidate labels.
    pub fn allreduce_phase_ns(&self, stats: &CommStats) -> u64 {
        self.policy.phase_ns(stats)
    }

    /// The decision as text, without any communication: the fixed
    /// algorithm's name, or the `<=BYTES:algo;...` table; empty while
    /// undecided. Safe to call off the collective path, e.g. while
    /// flushing stats after an injected fault.
    pub fn choices_string(&self) -> String {
        self.decision.as_ref().map_or_else(String::new, Decision::to_string)
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

    /// Start one iteration's exchange. Feed the stream from the backward
    /// hook via [`GradStream::segment_ready`] (or not at all), then call
    /// [`GradStream::finish`] before the SGD step.
    ///
    /// # Panics
    /// If a multi-candidate `auto` policy has not run [`GradSync::decide`].
    pub fn begin<'a>(&'a self, comm: &'a Comm) -> GradStream<'a> {
        assert!(
            !self.ops.is_empty(),
            "GradSync::begin before GradSync::decide: policy {} measures its candidates in \
             one collective decision step before the first exchange",
            self.policy
        );
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
    /// bucket's nonblocking reduce back to back and drains them. Panics
    /// with the report if a peer is dead.
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
    /// bucket's buffer, quantize it, launch the bucket's op labeled with
    /// the segment that sealed it.
    fn seal(&mut self, i: usize, grad: &[f32], sealed_at: usize) {
        let sync = self.sync;
        let b = &sync.buckets[i];
        let mut payload = std::mem::take(&mut sync.payloads.borrow_mut()[i]);
        payload.clear();
        payload.extend_from_slice(&grad[b.range()]);
        if sync.fp16 {
            quantize_f16(&mut payload);
        }
        // Seal order is deterministic and identical on every rank, and so is
        // the decision — so every rank launches the same op for the same seq.
        let op = sync.ops[i].clone().labeled(Arc::from(sync.segment_name_at(sealed_at)));
        self.in_flight.push((i, self.comm.launch(op, payload)));
    }

    /// Launch any buckets backprop never sealed (stragglers, ranges the
    /// caller withheld, or — nothing reported — all of them) and drain
    /// everything in flight, scattering the reduced payloads back into
    /// `grad`: the copy-back case of [`GradStream::try_finish_each`].
    /// Returns the number of nonblocking reduces this exchange launched.
    pub fn try_finish(self, grad: &mut [f32]) -> Result<usize, CommError> {
        self.drain(grad, |grad, range, reduced| {
            if let Some(reduced) = reduced {
                grad[range].copy_from_slice(reduced);
            }
        })
    }

    /// [`GradStream::try_finish`], panicking with the report if a peer is
    /// dead.
    pub fn finish(self, grad: &mut [f32]) -> usize {
        self.try_finish(grad).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Launch any buckets backprop never sealed and drain everything in
    /// flight, handing `done` each bucket's span of the flattened gradient
    /// and its reduced values the moment its wait returns — the bucket's
    /// payload, never copied back into `grad`. The replicated trainer steps
    /// each bucket's parameters from them while later buckets are still in
    /// flight. The fused in-place exchange hands over the whole of `grad`
    /// once. Returns the number of nonblocking reduces launched.
    ///
    /// Stragglers launch in **reverse bucket-index order** — the plan's last
    /// bucket covers the first forward layers, which the next iteration
    /// needs first — and the drain walks reverse-launch order for the same
    /// reason. Both orders are deterministic, so ranks keep launching the
    /// same buckets in the same sequence.
    ///
    /// A fused plan (`bucket_bytes == 0`) that has launched nothing is the
    /// classic Algorithm 1 exchange instead: its one op runs blocking, in
    /// place, on the caller's communicator — no payload copy, no derived
    /// communicator, and `0` launches reported.
    ///
    /// A dead peer ends the drain at the first bucket that reports it, with
    /// the buckets drained before it already handed over; the error names
    /// that bucket and the segment that sealed it.
    pub fn try_finish_each(
        self,
        grad: &mut [f32],
        mut done: impl FnMut(Range<usize>, &[f32]),
    ) -> Result<usize, CommError> {
        self.drain(grad, |grad, range, reduced| {
            done(range.clone(), reduced.unwrap_or(&grad[range]))
        })
    }

    /// The one drain loop behind [`GradStream::try_finish_each`] and
    /// [`GradStream::try_finish`]: `done(grad, range, reduced)` per bucket
    /// as its wait returns, `reduced` being its payload, or `None` when the
    /// fused exchange reduced `grad[range]` in place.
    fn drain(
        mut self,
        grad: &mut [f32],
        mut done: impl FnMut(&mut [f32], Range<usize>, Option<&[f32]>),
    ) -> Result<usize, CommError> {
        let sync = self.sync;
        if !sync.is_bucketed() && self.in_flight.is_empty() {
            if sync.fp16 {
                quantize_f16(grad);
            }
            sync.ops[0].run(self.comm, grad)?;
            done(grad, 0..grad.len(), None);
            return Ok(0);
        }
        for i in (0..sync.buckets.len()).rev() {
            if self.remaining[i] > 0 {
                self.seal(i, grad, sync.buckets[i].offset);
            }
        }
        let launched = self.in_flight.len();
        for (i, p) in self.in_flight.into_iter().rev() {
            let reduced = p.wait()?;
            done(grad, sync.buckets[i].range(), Some(&reduced));
            sync.payloads.borrow_mut()[i] = reduced;
        }
        Ok(launched)
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
    fn each_bucket_is_handed_over_once_with_the_copied_back_values() {
        // Fused, drained and hooked: the ranges `try_finish_each` hands
        // over tile the gradient once, in drain order, and their values
        // are the bits `try_finish` copies back; the buffer itself keeps
        // the local gradient unless the exchange ran in place.
        let s = segs(&[33, 5, 61, 2]);
        let out = run_cluster(2, move |comm| {
            let mk = |rank: usize| -> Vec<f32> {
                (0..101).map(|i| ((i * 41 + rank * 7) as f32 * 0.377).cos()).collect()
            };
            let algo = AllreduceAlgo::RingReduceScatter;
            let mut checked = 0;
            for (bytes, hooked) in [(0, false), (128, false), (128, true)] {
                let gsync = GradSync::with_policy(algo.into(), &s, bytes, false);
                let mut copied = mk(comm.rank());
                gsync.reduce(comm, &mut copied);
                let mut local = mk(comm.rank());
                let mut stream = gsync.begin(comm);
                if hooked {
                    for seg in s.iter().rev() {
                        stream.segment_ready(&local, seg.offset, seg.len);
                    }
                }
                let mut handed = vec![f32::NAN; local.len()];
                let mut ranges = Vec::new();
                stream
                    .try_finish_each(&mut local, |range, reduced| {
                        assert!(
                            handed[range.clone()].iter().all(|x| x.is_nan()),
                            "{range:?} twice"
                        );
                        handed[range.clone()].copy_from_slice(reduced);
                        ranges.push(range);
                    })
                    .expect("no peer dies");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&handed), bits(&copied), "{bytes} B, hooked {hooked}");
                // Hooked seals in plan order, the drain launches stragglers
                // last first, and both drain in reverse-launch order.
                let mut drained: Vec<_> = gsync.buckets().iter().map(Bucket::range).collect();
                if hooked {
                    drained.reverse();
                }
                assert_eq!(ranges, drained, "{bytes} B, hooked {hooked}: drain order");
                let in_place = bytes == 0;
                assert_eq!(bits(&local) == bits(&mk(comm.rank())), !in_place, "{bytes} B");
                checked += 1;
            }
            checked
        });
        assert_eq!(out, [3, 3]);
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
                GradSync::with_policy(algo_kind.into(), &s, 0, false).reduce(comm, &mut replicated);
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
                let gsync = GradSync::with_policy(
                    AllreduceAlgo::MultiColor(4).into(),
                    &s,
                    bucket_bytes,
                    false,
                )
                .with_shards(ShardMap::new(total, comm.size()));
                let step = || {
                    let mut grad: Vec<f32> = (0..total).map(|i| (i + comm.rank()) as f32).collect();
                    gsync.reduce(comm, &mut grad);
                    comm.stats().phase_ns.iter().find(|p| p.0 == "scatter-plan").map(|p| p.2)
                };
                (step(), step(), gsync.buckets().len() as u64)
            });
            for (rank, (first, second, buckets)) in run.results.into_iter().enumerate() {
                assert_eq!(first, Some(buckets), "bucket_bytes={bucket_bytes} rank {rank}");
                assert_eq!(
                    second, first,
                    "bucket_bytes={bucket_bytes} rank {rank}: step 2 planned"
                );
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

            let gsync = GradSync::with_policy(algo.into(), &s, 128, false).with_shards(sm.clone());
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
        let total = 101usize;
        let auto = || AlgoPolicy::Auto(vec![AllreduceAlgo::RingReduceScatter]);
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
    fn decided_exchanges_run_only_the_chosen_algorithms() {
        // After the decision every exchange runs the table: repeated steps
        // add phase time under the chosen algorithms' labels and under no
        // other candidate's — fused, bucketed and sharded alike. Three
        // candidates over at most two size classes leave one unchosen.
        let candidates = [
            AllreduceAlgo::PipelinedRing,
            AllreduceAlgo::HalvingDoubling,
            AllreduceAlgo::RecursiveDoubling,
        ];
        for (bucket_bytes, sharded) in [(0, false), (128, false), (128, true)] {
            let s = segs(&[33, 5, 61, 2]);
            let out = run_cluster(3, move |comm| {
                let mut gsync = GradSync::with_policy(
                    AlgoPolicy::Auto(candidates.to_vec()),
                    &s,
                    bucket_bytes,
                    false,
                );
                if sharded {
                    gsync = gsync.with_shards(ShardMap::new(101, comm.size()));
                }
                gsync.decide(comm).expect("no peer dies");
                let table = gsync.choices_string();
                let before = comm.stats();
                for _ in 0..3 {
                    gsync.reduce(comm, &mut vec![1.0f32; 101]);
                }
                let after = comm.stats();
                let ran: Vec<bool> = candidates
                    .iter()
                    .map(|c| after.phase(c.name()) > before.phase(c.name()))
                    .collect();
                (table, ran)
            });
            let (table, ran) = &out[0];
            let chosen: Vec<&str> =
                table.split(';').map(|e| e.split_once(':').expect("an entry").1).collect();
            for (c, ran) in candidates.iter().zip(ran) {
                let what = format!("{c} in {table:?}, bucket_bytes={bucket_bytes}");
                assert_eq!(*ran, chosen.contains(&c.name()), "{what}");
            }
            assert!(out.iter().all(|r| r == &out[0]), "ranks disagree: {out:?}");
        }
    }

    #[test]
    #[should_panic(expected = "GradSync::decide")]
    fn undecided_multi_candidate_auto_panics_at_begin() {
        let s = segs(&[16]);
        run_cluster(2, move |comm| {
            let policy = AlgoPolicy::Auto(vec![
                AllreduceAlgo::PipelinedRing,
                AllreduceAlgo::HalvingDoubling,
            ]);
            GradSync::with_policy(policy, &s, 0, false).reduce(comm, &mut [0.0; 16]);
        });
    }

    #[test]
    fn fp16_exchange_sums_the_quantized_inputs() {
        let s = segs(&[16]);
        let out = run_cluster(4, move |comm| {
            let mut grad = vec![0.1f32 + comm.rank() as f32; 16];
            GradSync::with_policy(AllreduceAlgo::MultiColor(2).into(), &s, 0, true)
                .reduce(comm, &mut grad);
            grad[0]
        });
        let expect: f32 = (0..4)
            .map(|r| {
                let mut v = [0.1 + r as f32];
                quantize_f16(&mut v);
                v[0]
            })
            .sum();
        for v in out {
            assert!((v - expect).abs() < 1e-3, "{v} vs {expect}");
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
