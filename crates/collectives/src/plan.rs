//! Per-rank step plans — the one description of a collective's message
//! pattern.
//!
//! A collective is written once, as the list of [`Step`]s each rank performs
//! over element ranges of its buffer. Exactly two things consume a plan:
//! [`execute`] interprets one rank's steps on a [`Comm`] (the real run), and
//! [`compile`] matches all ranks' steps into a [`CommSchedule`] for the
//! virtual-time simulator. What runs and what is simulated therefore cannot
//! drift apart: they are the same list.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;

use dcnn_simnet::{CommSchedule, OpId};

use crate::algorithms::CostModel;
use crate::reduce::sum_into;
use crate::runtime::Comm;

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

/// Run this rank's `steps` on `comm` over `buf`, in order.
pub fn execute(comm: &Comm, steps: &[Step], buf: &mut [f32]) {
    for step in steps {
        match step {
            Step::Send { to, range, tag } => comm.send_f32(*to, *tag, &buf[range.clone()]),
            Step::RecvReduce { from, range, tag } => {
                sum_into(&mut buf[range.clone()], &comm.recv_f32(*from, *tag));
            }
            Step::RecvCopy { from, range, tag } => {
                buf[range.clone()].copy_from_slice(&comm.recv_f32(*from, *tag));
            }
        }
    }
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

/// Compile every rank's plan (`plans[r]` is rank `r`'s) into a schedule.
///
/// Sends are matched to receives per `(src, dst, tag)` in FIFO order, as
/// the runtime matches them. Each matched pair becomes a transfer and each
/// `RecvReduce` a `cost.sum_secs` compute. An op depends on whatever last
/// wrote the elements it reads (read-after-write on each rank), and a
/// transfer also on the previous transfer on its directed link (in-order
/// delivery) — which is what makes a pipelined source stream its sub-chunks
/// one after another instead of starting them all at time zero.
///
/// The schedule vocabulary only has finished-before-started edges, so the
/// link edge charges the wire latency once per message where a real link
/// would pipeline it: negligible for bandwidth-bound sub-chunks, visible
/// for many-step algorithms at latency-bound sizes on fabrics with unequal
/// hop counts (see EXPERIMENTS.md).
///
/// # Panics
/// Panics when the plans are not well-formed: a receive no send ever
/// matches (the real run would deadlock), a send nobody receives, or a
/// matched pair of different lengths.
pub fn compile(plans: &[Vec<Step>], cost: &CostModel) -> CommSchedule {
    let n = plans.len();
    let bytes = |range: &Range<usize>| (range.len() * 4) as f64;
    let mut sch = CommSchedule::new(n.max(1));
    let mut pc = vec![0usize; n];
    let mut in_flight: HashMap<(usize, usize, u32), VecDeque<(OpId, usize)>> = HashMap::new();
    let mut link_tail: HashMap<(usize, usize), OpId> = HashMap::new();
    let mut writers = vec![Writers::default(); n];
    let mut progressed = true;
    while progressed {
        progressed = false;
        for r in 0..n {
            while let Some(step) = plans[r].get(pc[r]) {
                match step {
                    Step::Send { to, range, tag } => {
                        let mut deps = writers[r].of(range);
                        deps.extend(link_tail.get(&(r, *to)));
                        let t = sch.transfer(r, *to, bytes(range), deps);
                        link_tail.insert((r, *to), t);
                        in_flight.entry((r, *to, *tag)).or_default().push_back((t, range.len()));
                    }
                    Step::RecvReduce { from, range, tag } | Step::RecvCopy { from, range, tag } => {
                        let Some((t, len)) =
                            in_flight.get_mut(&(*from, r, *tag)).and_then(VecDeque::pop_front)
                        else {
                            break; // blocked until `from` gets to the matching send
                        };
                        assert_eq!(
                            len,
                            range.len(),
                            "rank {r} step {}: {step:?} got {len} elements",
                            pc[r]
                        );
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
    sch
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
