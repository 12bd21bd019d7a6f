//! Per-rank step plans — the one description of a collective's message
//! pattern.
//!
//! A collective is written once, as the list of [`Step`]s each rank performs
//! over element ranges of its buffer. Exactly two things consume a plan:
//! `advance` interprets one rank's steps on a [`Comm`] as a cursor (the real
//! run, blocking or launched), and [`compile`] matches all ranks' steps
//! into a [`CommSchedule`] for the virtual-time simulator. What runs and what is simulated therefore cannot
//! drift apart: they are the same list. One pass rewrites plans:
//! [`reduce_scatter`] drops from an allreduce's plans every transfer the
//! ranks' owned chunks do not depend on, so no algorithm writes its
//! reduce-scatter by hand either.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;

use dcnn_simnet::{CommSchedule, OpId};

use crate::algorithms::CostModel;
use crate::reduce::sum_into;
use crate::runtime::{Comm, CommError, Payload};

/// One action of one rank on element `range` of its buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Send `range` to rank `to`. Never blocks.
    Send {
        /// Destination rank.
        to: usize,
        /// Elements sent.
        range: Range<usize>,
        /// Message tag.
        tag: u32,
    },
    /// Receive from rank `from` and add elementwise into `range`.
    RecvReduce {
        /// Source rank.
        from: usize,
        /// Elements accumulated into.
        range: Range<usize>,
        /// Message tag.
        tag: u32,
    },
    /// Receive from rank `from` and overwrite `range`.
    RecvCopy {
        /// Source rank.
        from: usize,
        /// Elements overwritten.
        range: Range<usize>,
        /// Message tag.
        tag: u32,
    },
}

impl Step {
    /// The element range the step sends from or receives into.
    pub fn range(&self) -> &Range<usize> {
        match self {
            Step::Send { range, .. } | Step::RecvReduce { range, .. } | Step::RecvCopy { range, .. } => range,
        }
    }

    /// The same step over `range` instead.
    fn over(&self, range: Range<usize>) -> Step {
        let mut step = self.clone();
        match &mut step {
            Step::Send { range: r, .. } | Step::RecvReduce { range: r, .. } | Step::RecvCopy { range: r, .. } => *r = range,
        }
        step
    }
}

/// Re-address steps planned over a sub-group's local ranks `0..group.len()`
/// onto the enclosing ranks `group[i]` — how phases on subsets of ranks
/// (group reduce, leaders' allreduce) concatenate into one plan.
pub fn embed(steps: Vec<Step>, group: &[usize]) -> impl Iterator<Item = Step> + '_ {
    steps.into_iter().map(|s| match s {
        Step::Send { to, range, tag } => Step::Send { to: group[to], range, tag },
        Step::RecvReduce { from, range, tag } => Step::RecvReduce { from: group[from], range, tag },
        Step::RecvCopy { from, range, tag } => Step::RecvCopy { from: group[from], range, tag },
    })
}

/// The step interpreter: run `steps[*at..]` on `comm` over `buf`, in order,
/// moving the cursor `at` past each step done; `Ok(true)` once all are.
/// Receive step `i` takes its message from `recv(i, from, tag)`, and stops
/// the cursor there on `Ok(None)` (not here yet: `Ok(false)`) or an error.
/// Each received buffer goes back to the transport's pool as soon as it is
/// summed or copied, for the next send or receive to reuse.
pub(crate) fn advance(
    comm: &Comm,
    steps: &[Step],
    at: &mut usize,
    buf: &mut [f32],
    mut recv: impl FnMut(usize, usize, u32) -> Result<Option<Payload>, CommError>,
) -> Result<bool, CommError> {
    while let Some(step) = steps.get(*at) {
        match step {
            Step::Send { to, range, tag } => comm.send_f32(*to, *tag, &buf[range.clone()]),
            Step::RecvReduce { from, range, tag } | Step::RecvCopy { from, range, tag } => {
                let Some(msg) = recv(*at, *from, *tag)? else { return Ok(false) };
                if matches!(step, Step::RecvReduce { .. }) {
                    sum_into(&mut buf[range.clone()], msg.as_f32());
                } else {
                    buf[range.clone()].copy_from_slice(msg.as_f32());
                }
                comm.recycle(msg);
            }
        }
        *at += 1;
    }
    Ok(true)
}

/// Run this rank's `steps` on `comm` over `buf`: the cursor driven to the
/// end with blocking receives, stopping at the first whose peer is dead.
pub fn execute(comm: &Comm, steps: &[Step], buf: &mut [f32]) -> Result<(), CommError> {
    advance(comm, steps, &mut 0, buf, |_, from, tag| comm.recv(from, tag).map(Some)).map(drop)
}

/// Which op last wrote each element of one rank's buffer, as disjoint
/// ranges keyed by start.
#[derive(Default, Clone)]
struct Writers(BTreeMap<usize, (usize, OpId)>);

impl Writers {
    /// The recorded ranges overlapping `range`, as `(start, end, op)`.
    fn overlapping(&self, range: &Range<usize>) -> Vec<(usize, usize, OpId)> {
        if range.is_empty() {
            return Vec::new();
        }
        self.0
            .range(..range.end)
            .rev()
            .take_while(|(_, &(end, _))| end > range.start)
            .map(|(&start, &(end, op))| (start, end, op))
            .collect()
    }

    /// The ops a read of `range` must wait for.
    fn of(&self, range: &Range<usize>) -> Vec<OpId> {
        let mut ops: Vec<OpId> = self.overlapping(range).iter().map(|w| w.2).collect();
        ops.sort_unstable();
        ops.dedup();
        ops
    }

    /// `op` now owns `range`; earlier writers keep only what sticks out.
    fn write(&mut self, range: &Range<usize>, op: OpId) {
        for (start, end, old) in self.overlapping(range) {
            self.0.remove(&start);
            if start < range.start {
                self.0.insert(start, (range.start, old));
            }
            if end > range.end {
                self.0.insert(range.end, (end, old));
            }
        }
        if !range.is_empty() {
            self.0.insert(range.start, (range.end, op));
        }
    }
}

/// One entry of [`matched_order`]: step `idx` of rank `rank`'s plan and, for
/// a receive, the index in the source rank's plan of the send it takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Matched {
    /// The rank performing the step.
    pub rank: usize,
    /// Index of the step in that rank's plan.
    pub idx: usize,
    /// For a receive, the matched send's index in `from`'s plan.
    pub send_idx: Option<usize>,
}

/// Every rank's steps (`plans[r]` is rank `r`'s) in one order a real run
/// could take: each rank's own order kept, and every receive after the send
/// it takes — sends matched to receives per `(src, dst, tag)` in FIFO
/// order, as the runtime matches them. Ranks advance round-robin, each as
/// far as it can before it blocks.
///
/// # Panics
/// Panics when the plans are not well-formed: a receive no send ever
/// matches (the real run would deadlock), a send nobody receives, or a
/// matched pair of different lengths.
pub fn matched_order(plans: &[Vec<Step>]) -> Vec<Matched> {
    let n = plans.len();
    let mut order = Vec::with_capacity(plans.iter().map(Vec::len).sum());
    let mut pc = vec![0usize; n];
    let mut in_flight: HashMap<(usize, usize, u32), VecDeque<usize>> = HashMap::new();
    let mut progressed = true;
    while progressed {
        progressed = false;
        for r in 0..n {
            while let Some(step) = plans[r].get(pc[r]) {
                let send_idx = match step {
                    Step::Send { to, tag, .. } => {
                        in_flight.entry((r, *to, *tag)).or_default().push_back(pc[r]);
                        None
                    }
                    Step::RecvReduce { from, range, tag } | Step::RecvCopy { from, range, tag } => {
                        let Some(idx) =
                            in_flight.get_mut(&(*from, r, *tag)).and_then(VecDeque::pop_front)
                        else {
                            break; // blocked until `from` gets to the matching send
                        };
                        let len = plans[*from][idx].range().len();
                        assert_eq!(
                            len,
                            range.len(),
                            "rank {r} step {}: {step:?} got {len} elements",
                            pc[r]
                        );
                        Some(idx)
                    }
                };
                order.push(Matched { rank: r, idx: pc[r], send_idx });
                pc[r] += 1;
                progressed = true;
            }
        }
    }
    for r in 0..n {
        assert!(
            pc[r] == plans[r].len(),
            "plan deadlocks: rank {r} stuck at step {} {:?}",
            pc[r],
            plans[r][pc[r]]
        );
    }
    if let Some((k, _)) = in_flight.iter().find(|(_, q)| !q.is_empty()) {
        panic!("send {} -> {} tag {:#x} is never received", k.0, k.1, k.2);
    }
    order
}

/// Compile every rank's plan (`plans[r]` is rank `r`'s) into a schedule.
///
/// Steps are taken in [`matched_order`]. Each matched pair becomes a
/// transfer and each `RecvReduce` a `cost.sum_secs` compute. An op depends
/// on whatever last wrote the elements it reads (read-after-write on each
/// rank), and a transfer also on the previous transfer on its directed link
/// (in-order delivery) — which is what makes a pipelined source stream its
/// sub-chunks one after another instead of starting them all at time zero.
///
/// The schedule vocabulary only has finished-before-started edges, so the
/// link edge charges the wire latency once per message where a real link
/// would pipeline it: negligible for bandwidth-bound sub-chunks, visible
/// for many-step algorithms at latency-bound sizes on fabrics with unequal
/// hop counts (see EXPERIMENTS.md).
///
/// # Panics
/// Panics when the plans are not well-formed, as [`matched_order`] does.
pub fn compile(plans: &[Vec<Step>], cost: &CostModel) -> CommSchedule {
    let n = plans.len();
    let bytes = |range: &Range<usize>| (range.len() * 4) as f64;
    let mut sch = CommSchedule::new(n.max(1));
    let mut transfer_of: HashMap<(usize, usize), OpId> = HashMap::new();
    let mut link_tail: HashMap<(usize, usize), OpId> = HashMap::new();
    let mut writers = vec![Writers::default(); n];
    for Matched { rank: r, idx, send_idx } in matched_order(plans) {
        match &plans[r][idx] {
            Step::Send { to, range, .. } => {
                let mut deps = writers[r].of(range);
                deps.extend(link_tail.get(&(r, *to)));
                let t = sch.transfer(r, *to, bytes(range), deps);
                link_tail.insert((r, *to), t);
                transfer_of.insert((r, idx), t);
            }
            step @ (Step::RecvReduce { from, range, .. } | Step::RecvCopy { from, range, .. }) => {
                let t = transfer_of[&(*from, send_idx.expect("a receive is matched"))];
                let done = if matches!(step, Step::RecvReduce { .. }) {
                    let mut deps = writers[r].of(range);
                    deps.push(t);
                    sch.compute(r, cost.sum_secs(bytes(range)), deps)
                } else {
                    t
                };
                writers[r].write(range, done);
            }
        }
    }
    sch
}

/// Sorted, disjoint, non-touching element intervals of one rank's buffer.
#[derive(Default)]
struct Intervals(Vec<Range<usize>>);

impl Intervals {
    /// The parts of `range` in the set, ascending.
    fn within(&self, range: &Range<usize>) -> Vec<Range<usize>> {
        self.0
            .iter()
            .map(|iv| iv.start.max(range.start)..iv.end.min(range.end))
            .filter(|iv| !iv.is_empty())
            .collect()
    }

    fn remove(&mut self, range: &Range<usize>) {
        let old = std::mem::take(&mut self.0);
        for iv in old {
            for part in [iv.start..iv.end.min(range.start), iv.start.max(range.end)..iv.end] {
                if !part.is_empty() {
                    self.0.push(part);
                }
            }
        }
    }

    fn insert(&mut self, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        let (mut start, mut end) = (range.start, range.end);
        self.0.retain(|iv| {
            let apart = iv.end < start || end < iv.start;
            if !apart {
                start = start.min(iv.start);
                end = end.max(iv.end);
            }
            apart
        });
        let at = self.0.partition_point(|iv| iv.start < start);
        self.0.insert(at, start..end);
    }
}

/// Dead-step elimination: the reduce-scatter every allreduce plan contains.
///
/// `plans[r]` is rank `r`'s allreduce plan and `counts` cuts the buffer
/// into one contiguous owned chunk per rank. The result is the same plans
/// with every transfer (or part of one) removed that no owned element
/// depends on. The matched order is walked backwards with, per rank, the set
/// of elements whose current value is still needed — at the end, the owned
/// chunk. A `RecvCopy` is needed where its range is live and kills that part
/// (the value before it is overwritten); a `RecvReduce` is needed where its
/// range is live and leaves it live; the matched `Send` shrinks to the same
/// elements — several steps with the same tag when they are several
/// intervals — and makes them live on the sender. A transfer with nothing
/// live is dropped on both sides.
///
/// Surviving steps keep their order and elementwise sums are independent,
/// so every owned element goes through exactly the additions, in exactly
/// the sequence, that the full plan gives it: owned bits equal the
/// allreduce's. The pruned plans are well-formed whenever the input is
/// (both sides of a pair are cut identically, in place).
pub fn reduce_scatter(plans: &[Vec<Step>], counts: &[usize]) -> Vec<Vec<Step>> {
    assert_eq!(counts.len(), plans.len(), "one owned chunk per rank");
    let mut live = Vec::with_capacity(plans.len());
    let mut start = 0;
    for &c in counts {
        let mut owned = Intervals::default();
        owned.insert(start..start + c);
        live.push(owned);
        start += c;
    }
    // kept[r][i]: the parts of step i's range that survive, ascending.
    let mut kept: Vec<Vec<Vec<Range<usize>>>> =
        plans.iter().map(|p| vec![Vec::new(); p.len()]).collect();
    for Matched { rank: r, idx, send_idx } in matched_order(plans).into_iter().rev() {
        match &plans[r][idx] {
            Step::Send { .. } => {
                for part in &kept[r][idx] {
                    live[r].insert(part.clone());
                }
            }
            step @ (Step::RecvReduce { from, range, .. } | Step::RecvCopy { from, range, .. }) => {
                let parts = live[r].within(range);
                if matches!(step, Step::RecvCopy { .. }) {
                    live[r].remove(range);
                }
                // The sender's range may sit at a different offset.
                let send_idx = send_idx.expect("a receive is matched");
                let sent_from = plans[*from][send_idx].range().start;
                kept[*from][send_idx] = parts
                    .iter()
                    .map(|p| p.start - range.start + sent_from..p.end - range.start + sent_from)
                    .collect();
                kept[r][idx] = parts;
            }
        }
    }
    plans
        .iter()
        .zip(kept)
        .map(|(plan, kept)| {
            plan.iter()
                .zip(kept)
                .flat_map(|(step, parts)| parts.into_iter().map(|part| step.over(part)))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnn_simnet::OpKind;

    #[test]
    fn compile_orders_by_data_flow_and_link() {
        // 0 sends two halves to 1; 1 sums the first, then forwards it to 2.
        let plans = vec![
            vec![
                Step::Send { to: 1, range: 0..4, tag: 7 },
                Step::Send { to: 1, range: 4..8, tag: 7 },
            ],
            vec![
                Step::RecvReduce { from: 0, range: 0..4, tag: 7 },
                Step::RecvCopy { from: 0, range: 4..8, tag: 7 },
                Step::Send { to: 2, range: 2..6, tag: 9 },
            ],
            vec![Step::RecvCopy { from: 1, range: 2..6, tag: 9 }],
        ];
        let s = compile(&plans, &CostModel::default());
        s.validate();
        let ops = s.ops();
        assert_eq!(ops.len(), 4);
        assert_eq!(ops[1].deps, vec![0], "second send queues behind the first on link 0->1");
        assert!(matches!(ops[2].kind, OpKind::Compute { rank: 1, .. }));
        assert_eq!(ops[2].deps, vec![0]);
        // The forward reads 2..4 (summed by op 2) and 4..6 (copied in by op 1).
        assert_eq!(ops[3].deps, vec![1, 2]);
        assert_eq!(s.total_bytes(), 48.0);
    }

    #[test]
    fn reduce_scatter_keeps_what_the_owned_chunks_need() {
        // Reduce to rank 1, broadcast back. Rank 0 owns 0..2, rank 1 the rest.
        let plans = vec![
            vec![
                Step::Send { to: 1, range: 0..8, tag: 1 },
                Step::RecvCopy { from: 1, range: 0..8, tag: 2 },
            ],
            vec![
                Step::RecvReduce { from: 0, range: 0..8, tag: 1 },
                Step::Send { to: 0, range: 0..8, tag: 2 },
            ],
        ];
        let pruned = reduce_scatter(&plans, &[2, 6]);
        // The sum needs all of rank 0's contribution; the way back only
        // what rank 0 owns.
        assert_eq!(
            pruned,
            vec![
                vec![
                    Step::Send { to: 1, range: 0..8, tag: 1 },
                    Step::RecvCopy { from: 1, range: 0..2, tag: 2 },
                ],
                vec![
                    Step::RecvReduce { from: 0, range: 0..8, tag: 1 },
                    Step::Send { to: 0, range: 0..2, tag: 2 },
                ],
            ]
        );
        // Rank 1 owns everything: the broadcast is dead, on both sides.
        let pruned = reduce_scatter(&plans, &[0, 8]);
        assert_eq!(pruned[0], vec![Step::Send { to: 1, range: 0..8, tag: 1 }]);
        assert_eq!(pruned[1], vec![Step::RecvReduce { from: 0, range: 0..8, tag: 1 }]);
        compile(&pruned, &CostModel::default());
    }

    #[test]
    fn reduce_scatter_splits_a_transfer_around_a_later_overwrite() {
        // Rank 1 (owner of 0..8) takes 0..8 from rank 0's 10..18, then has
        // 3..5 overwritten by rank 2: of the first transfer only 0..3 and
        // 5..8 are ever read, and the sender is cut at its own offsets.
        let plans = vec![
            vec![Step::Send { to: 1, range: 10..18, tag: 1 }],
            vec![
                Step::RecvCopy { from: 0, range: 0..8, tag: 1 },
                Step::RecvCopy { from: 2, range: 3..5, tag: 1 },
            ],
            vec![Step::Send { to: 1, range: 3..5, tag: 1 }],
        ];
        let pruned = reduce_scatter(&plans, &[0, 8, 0]);
        assert_eq!(
            pruned[0],
            vec![
                Step::Send { to: 1, range: 10..13, tag: 1 },
                Step::Send { to: 1, range: 15..18, tag: 1 },
            ]
        );
        assert_eq!(
            pruned[1],
            vec![
                Step::RecvCopy { from: 0, range: 0..3, tag: 1 },
                Step::RecvCopy { from: 0, range: 5..8, tag: 1 },
                Step::RecvCopy { from: 2, range: 3..5, tag: 1 },
            ]
        );
        assert_eq!(pruned[2], plans[2]);
        compile(&pruned, &CostModel::default());
    }

    #[test]
    fn intervals_stay_sorted_disjoint_and_merged() {
        let mut set = Intervals::default();
        for r in [10..12, 0..2, 4..6, 2..4, 20..20] {
            set.insert(r);
        }
        assert_eq!(set.0, vec![0..6, 10..12]);
        assert_eq!(set.within(&(5..11)), vec![5..6, 10..11]);
        set.remove(&(1..11));
        assert_eq!(set.0, vec![0..1, 11..12]);
        set.insert(1..11);
        assert_eq!(set.0, vec![0..12]);
    }

    #[test]
    #[should_panic(expected = "plan deadlocks")]
    fn crossed_tags_are_a_deadlock() {
        let plans = vec![
            vec![
                Step::RecvCopy { from: 1, range: 0..1, tag: 2 },
                Step::Send { to: 1, range: 0..1, tag: 1 },
            ],
            vec![
                Step::RecvCopy { from: 0, range: 0..1, tag: 1 },
                Step::Send { to: 0, range: 0..1, tag: 2 },
            ],
        ];
        compile(&plans, &CostModel::default());
    }
}
