//! Discrete-event execution of a [`CommSchedule`] over a [`FatTree`].
//!
//! Transfers become *fluid flows*: while active, a flow receives a max-min
//! fair share of every link on its path, and rates are recomputed whenever the
//! set of active flows changes. Compute ops occupy their rank's (optionally
//! serialized) compute resource. The engine advances virtual time to the next
//! of (a) earliest flow completion, (b) earliest pending discrete event.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::maxmin::maxmin_rates;
use crate::schedule::{CommSchedule, OpId, OpKind};
use crate::topology::{FatTree, LinkId};
use crate::total::TotalF64;

/// Residual-byte tolerance below which a flow is considered finished.
const EPS_BYTES: f64 = 1e-3;

/// Options controlling simulation semantics.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// If true (default), compute ops on the same rank execute one at a time,
    /// modelling a single reduction core/accelerator per node. The paper's
    /// implementation sums network buffers on the host CPU with altivec.
    pub serialize_compute: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { serialize_compute: true }
    }
}

/// Result of simulating a schedule.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Time each op became ready (all dependencies satisfied).
    pub start: Vec<f64>,
    /// Finish time of each op (seconds of virtual time).
    pub finish: Vec<f64>,
    /// Time at which the last op finished.
    pub makespan: f64,
    /// Bytes carried by each directed link.
    pub link_bytes: Vec<f64>,
    /// Number of rate recomputations performed (diagnostic).
    pub rate_recomputes: usize,
}

impl SimReport {
    /// Utilization of a link over the whole makespan, in `[0, 1]`.
    pub fn link_utilization(&self, topo: &FatTree, l: LinkId) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.link_bytes[l] / (topo.capacity(l) * self.makespan)
    }

    /// The highest per-link utilization (the schedule's bottleneck link).
    pub fn max_link_utilization(&self, topo: &FatTree) -> f64 {
        (0..topo.n_links())
            .map(|l| self.link_utilization(topo, l))
            .fold(0.0, f64::max)
    }

    /// Export a Gantt-style timeline as CSV
    /// (`op,kind,rank,peer,bytes,start,finish`), for plotting schedules.
    pub fn timeline_csv(&self, sched: &CommSchedule) -> String {
        let mut out = String::from("op,kind,rank,peer,bytes,start,finish\n");
        for (id, op) in sched.ops().iter().enumerate() {
            let (kind, rank, peer, bytes) = match op.kind {
                OpKind::Transfer { src, dst, bytes } => ("transfer", src, dst as i64, bytes),
                OpKind::Compute { rank, .. } => ("compute", rank, -1, 0.0),
            };
            out.push_str(&format!(
                "{id},{kind},{rank},{peer},{bytes},{:.9},{:.9}\n",
                self.start[id], self.finish[id]
            ));
        }
        out
    }
}

/// Trace the schedule's critical path through its declared dependencies:
/// starting from the op that finished last, repeatedly step to the
/// dependency that finished latest. Returns op ids in execution order.
/// (Implicit serialization — per-rank compute queues, link contention — is
/// not part of the declared DAG, so this is the *algorithmic* critical path;
/// gaps between an op's deps finishing and the op itself finishing indicate
/// resource contention.)
pub fn critical_path(sched: &CommSchedule, rep: &SimReport) -> Vec<OpId> {
    if sched.is_empty() {
        return Vec::new();
    }
    let mut cur = (0..sched.len())
        .max_by(|&a, &b| rep.finish[a].partial_cmp(&rep.finish[b]).expect("finite"))
        .expect("non-empty");
    let mut path = vec![cur];
    loop {
        let deps = &sched.ops()[cur].deps;
        let Some(&next) = deps.iter().max_by(|&&a, &&b| {
            rep.finish[a].partial_cmp(&rep.finish[b]).expect("finite")
        }) else {
            break;
        };
        path.push(next);
        cur = next;
    }
    path.reverse();
    path
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// All dependencies of the op are satisfied; dispatch it.
    OpReady(OpId),
    /// A transfer's latency elapsed; it joins the fluid system.
    FlowActivate(OpId),
    /// A compute op finished.
    ComputeDone(OpId),
}

struct HeapItem {
    t: TotalF64,
    seq: u64,
    ev: Event,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t, self.seq).cmp(&(other.t, other.seq))
    }
}

struct ActiveFlow {
    op: OpId,
    remaining: f64,
    rate: f64,
    path: Vec<LinkId>,
}

struct Engine<'a> {
    sched: &'a CommSchedule,
    topo: &'a FatTree,
    opts: SimOptions,
    t: f64,
    seq: u64,
    heap: BinaryHeap<Reverse<HeapItem>>,
    flows: Vec<ActiveFlow>,
    rates_dirty: bool,
    indeg: Vec<usize>,
    children: Vec<Vec<OpId>>,
    start: Vec<f64>,
    finish: Vec<f64>,
    done: Vec<bool>,
    n_done: usize,
    rank_free: Vec<f64>,
    link_bytes: Vec<f64>,
    rate_recomputes: usize,
}

impl CommSchedule {
    /// Execute the schedule over `topo` in virtual time.
    ///
    /// # Panics
    /// Panics if the schedule references ranks outside the topology, or if it
    /// cannot make progress (impossible for schedules built through the
    /// public API, which enforces the DAG property).
    pub fn simulate(&self, topo: &FatTree, opts: &SimOptions) -> SimReport {
        assert!(
            self.n_ranks() <= topo.nodes(),
            "schedule uses {} ranks but topology has {} nodes",
            self.n_ranks(),
            topo.nodes()
        );
        let n = self.len();
        let mut children: Vec<Vec<OpId>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for (id, op) in self.ops().iter().enumerate() {
            indeg[id] = op.deps.len();
            for &d in &op.deps {
                children[d].push(id);
            }
        }
        let mut eng = Engine {
            sched: self,
            topo,
            opts: opts.clone(),
            t: 0.0,
            seq: 0,
            heap: BinaryHeap::new(),
            flows: Vec::new(),
            rates_dirty: false,
            indeg,
            children,
            start: vec![0.0; n],
            finish: vec![0.0; n],
            done: vec![false; n],
            n_done: 0,
            rank_free: vec![0.0; topo.nodes()],
            link_bytes: vec![0.0; topo.n_links()],
            rate_recomputes: 0,
        };
        for id in 0..n {
            if eng.indeg[id] == 0 {
                eng.push_event(0.0, Event::OpReady(id));
            }
        }
        eng.run();
        assert_eq!(eng.n_done, n, "simulation stalled: {}/{} ops completed", eng.n_done, n);
        let makespan = eng.finish.iter().copied().fold(0.0, f64::max);
        SimReport {
            start: eng.start,
            finish: eng.finish,
            makespan,
            link_bytes: eng.link_bytes,
            rate_recomputes: eng.rate_recomputes,
        }
    }
}

impl Engine<'_> {
    fn push_event(&mut self, t: f64, ev: Event) {
        self.seq += 1;
        self.heap.push(Reverse(HeapItem { t: TotalF64::new(t), seq: self.seq, ev }));
    }

    fn run(&mut self) {
        loop {
            if self.rates_dirty {
                self.recompute_rates();
            }
            let t_flow = self.next_flow_completion();
            let t_heap = self.heap.peek().map(|Reverse(h)| h.t.get());
            let t_next = match (t_flow, t_heap) {
                (None, None) => return,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => a.min(b),
            };
            self.advance_to(t_next);
            self.complete_finished_flows();
            self.drain_events_at_now();
        }
    }

    fn recompute_rates(&mut self) {
        let paths: Vec<Vec<LinkId>> = self.flows.iter().map(|f| f.path.clone()).collect();
        let rates = maxmin_rates(&paths, self.topo.capacities());
        for (f, r) in self.flows.iter_mut().zip(rates) {
            f.rate = r;
        }
        self.rates_dirty = false;
        self.rate_recomputes += 1;
    }

    fn next_flow_completion(&self) -> Option<f64> {
        self.flows
            .iter()
            .map(|f| {
                if f.rate.is_infinite() || f.remaining <= EPS_BYTES {
                    self.t
                } else {
                    self.t + f.remaining / f.rate
                }
            })
            .min_by(|a, b| a.partial_cmp(b).expect("finite times"))
    }

    fn advance_to(&mut self, t_next: f64) {
        let dt = t_next - self.t;
        debug_assert!(dt >= -1e-12, "time went backwards: {} -> {}", self.t, t_next);
        if dt > 0.0 {
            for f in &mut self.flows {
                if f.rate.is_finite() {
                    let moved = (f.rate * dt).min(f.remaining);
                    f.remaining -= moved;
                    for &l in &f.path {
                        self.link_bytes[l] += moved;
                    }
                } else {
                    f.remaining = 0.0;
                }
            }
        }
        self.t = t_next;
    }

    fn complete_finished_flows(&mut self) {
        let mut i = 0;
        let mut completed = Vec::new();
        while i < self.flows.len() {
            if self.flows[i].remaining <= EPS_BYTES || self.flows[i].rate.is_infinite() {
                let f = self.flows.swap_remove(i);
                completed.push(f.op);
                self.rates_dirty = true;
            } else {
                i += 1;
            }
        }
        for op in completed {
            self.finish_op(op);
        }
    }

    fn drain_events_at_now(&mut self) {
        // Process every event with timestamp <= now. Newly produced events at
        // the same timestamp are handled in the same pass.
        while let Some(Reverse(h)) = self.heap.peek() {
            if h.t.get() > self.t + 1e-15 {
                break;
            }
            let Reverse(item) = self.heap.pop().expect("peeked");
            match item.ev {
                Event::OpReady(id) => {
                    self.start[id] = self.t;
                    self.dispatch(id)
                }
                Event::FlowActivate(id) => self.activate_flow(id),
                Event::ComputeDone(id) => self.finish_op(id),
            }
        }
    }

    fn dispatch(&mut self, id: OpId) {
        match self.sched.ops()[id].kind {
            OpKind::Transfer { src, dst, .. } => {
                if src == dst {
                    // Local handoff: no fabric involvement.
                    self.finish_op(id);
                } else {
                    // Zero-byte messages still pay the wire latency; the
                    // activation step completes them immediately.
                    let lat = self.topo.path_latency(src, dst);
                    self.push_event(self.t + lat, Event::FlowActivate(id));
                }
            }
            OpKind::Compute { rank, secs } => {
                let start = if self.opts.serialize_compute {
                    self.t.max(self.rank_free[rank])
                } else {
                    self.t
                };
                let end = start + secs;
                if self.opts.serialize_compute {
                    self.rank_free[rank] = end;
                }
                self.push_event(end, Event::ComputeDone(id));
            }
        }
    }

    fn activate_flow(&mut self, id: OpId) {
        let OpKind::Transfer { src, dst, bytes } = self.sched.ops()[id].kind else {
            unreachable!("FlowActivate on a compute op");
        };
        if bytes <= 0.0 {
            self.finish_op(id);
            return;
        }
        let path = self.topo.route(src, dst, id as u64);
        self.flows.push(ActiveFlow { op: id, remaining: bytes, rate: 0.0, path });
        self.rates_dirty = true;
    }

    fn finish_op(&mut self, id: OpId) {
        debug_assert!(!self.done[id], "op {id} finished twice");
        self.done[id] = true;
        self.n_done += 1;
        self.finish[id] = self.t;
        // Children are notified at the current instant.
        let kids = std::mem::take(&mut self.children[id]);
        for k in kids {
            self.indeg[k] -= 1;
            if self.indeg[k] == 0 {
                self.push_event(self.t, Event::OpReady(k));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FatTreeConfig;

    fn tiny_net(nodes: usize, bw: f64) -> FatTree {
        FatTree::new(FatTreeConfig {
            nodes,
            leaf_radix: 4,
            spines: 2,
            nics_per_node: 1,
            nic_bandwidth: bw,
            latency: 1e-6,
            oversubscription: 1.0,
        })
    }

    #[test]
    fn single_transfer_time_is_latency_plus_serialization() {
        let topo = tiny_net(2, 1e9);
        let mut s = CommSchedule::new(2);
        s.transfer(0, 1, 1e9, vec![]);
        let rep = s.simulate(&topo, &SimOptions::default());
        // 1 GB over 1 GB/s = 1 s, plus 1 µs latency.
        assert!((rep.makespan - 1.000001).abs() < 1e-4, "makespan {}", rep.makespan);
    }

    #[test]
    fn two_flows_same_nic_halve_throughput() {
        let topo = tiny_net(3, 1e9);
        let mut s = CommSchedule::new(3);
        // Both transfers leave node 0 through its single NIC.
        s.transfer(0, 1, 1e9, vec![]);
        s.transfer(0, 2, 1e9, vec![]);
        let rep = s.simulate(&topo, &SimOptions::default());
        assert!((rep.makespan - 2.0).abs() < 1e-3, "makespan {}", rep.makespan);
    }

    #[test]
    fn disjoint_flows_run_concurrently() {
        let topo = tiny_net(4, 1e9);
        let mut s = CommSchedule::new(4);
        s.transfer(0, 1, 1e9, vec![]);
        s.transfer(2, 3, 1e9, vec![]);
        let rep = s.simulate(&topo, &SimOptions::default());
        assert!(rep.makespan < 1.1, "disjoint flows should overlap: {}", rep.makespan);
    }

    #[test]
    fn dependencies_serialize() {
        let topo = tiny_net(2, 1e9);
        let mut s = CommSchedule::new(2);
        let a = s.transfer(0, 1, 1e9, vec![]);
        s.transfer(1, 0, 1e9, vec![a]);
        let rep = s.simulate(&topo, &SimOptions::default());
        assert!((rep.makespan - 2.0).abs() < 1e-3, "makespan {}", rep.makespan);
    }

    #[test]
    fn compute_serialization_per_rank() {
        let topo = tiny_net(2, 1e9);
        let mut s = CommSchedule::new(2);
        s.compute(0, 0.5, vec![]);
        s.compute(0, 0.5, vec![]);
        let rep = s.simulate(&topo, &SimOptions::default());
        assert!((rep.makespan - 1.0).abs() < 1e-9);
        let rep2 = s.simulate(&topo, &SimOptions { serialize_compute: false });
        assert!((rep2.makespan - 0.5).abs() < 1e-9);
    }

    #[test]
    fn self_transfer_is_free() {
        let topo = tiny_net(2, 1e9);
        let mut s = CommSchedule::new(2);
        s.transfer(1, 1, 1e12, vec![]);
        let rep = s.simulate(&topo, &SimOptions::default());
        assert_eq!(rep.makespan, 0.0);
    }

    #[test]
    fn zero_byte_transfer_costs_latency_only() {
        let topo = tiny_net(2, 1e9);
        let mut s = CommSchedule::new(2);
        s.transfer(0, 1, 0.0, vec![]);
        let rep = s.simulate(&topo, &SimOptions::default());
        assert!((rep.makespan - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn link_bytes_accounted() {
        let topo = tiny_net(2, 1e9);
        let mut s = CommSchedule::new(2);
        s.transfer(0, 1, 1e6, vec![]);
        let rep = s.simulate(&topo, &SimOptions::default());
        let total: f64 = rep.link_bytes.iter().sum();
        // Intra-leaf path traverses 2 links.
        assert!((total - 2e6).abs() < 1.0, "total {total}");
    }

    #[test]
    fn diamond_dag_ordering() {
        let topo = tiny_net(4, 1e9);
        let mut s = CommSchedule::new(4);
        let a = s.transfer(0, 1, 1e6, vec![]);
        let b = s.transfer(0, 2, 1e6, vec![]);
        let c = s.compute(3, 0.001, vec![a, b]);
        let d = s.transfer(3, 0, 1e6, vec![c]);
        let rep = s.simulate(&topo, &SimOptions::default());
        assert!(rep.finish[c] >= rep.finish[a].max(rep.finish[b]));
        assert!(rep.finish[d] > rep.finish[c]);
        assert_eq!(rep.makespan, rep.finish[d]);
    }

    #[test]
    fn critical_path_follows_longest_chain() {
        let topo = tiny_net(4, 1e9);
        let mut s = CommSchedule::new(4);
        // Short branch: one transfer. Long branch: three chained transfers.
        let short = s.transfer(0, 1, 1e6, vec![]);
        let a = s.transfer(0, 2, 1e6, vec![]);
        let b = s.transfer(2, 3, 1e6, vec![a]);
        let c = s.transfer(3, 1, 1e6, vec![b]);
        let sink = s.compute(1, 0.001, vec![short, c]);
        let rep = s.simulate(&topo, &SimOptions::default());
        let path = critical_path(&s, &rep);
        assert_eq!(path, vec![a, b, c, sink]);
    }

    #[test]
    fn start_times_respect_dependencies() {
        let topo = tiny_net(3, 1e9);
        let mut s = CommSchedule::new(3);
        let a = s.transfer(0, 1, 1e8, vec![]);
        let b = s.transfer(1, 2, 1e8, vec![a]);
        let rep = s.simulate(&topo, &SimOptions::default());
        assert_eq!(rep.start[a], 0.0);
        assert!((rep.start[b] - rep.finish[a]).abs() < 1e-12);
        assert!(rep.finish[b] > rep.start[b]);
    }

    #[test]
    fn timeline_csv_lines() {
        let topo = tiny_net(2, 1e9);
        let mut s = CommSchedule::new(2);
        let a = s.transfer(0, 1, 1e6, vec![]);
        s.compute(1, 0.01, vec![a]);
        let rep = s.simulate(&topo, &SimOptions::default());
        let csv = rep.timeline_csv(&s);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0,transfer,0,1,1000000,"));
        assert!(lines[2].starts_with("1,compute,1,-1,0,"));
    }

    #[test]
    fn critical_path_of_empty_schedule() {
        let s = CommSchedule::new(1);
        let topo = tiny_net(1, 1e9);
        let rep = s.simulate(&topo, &SimOptions::default());
        assert!(critical_path(&s, &rep).is_empty());
    }

    #[test]
    fn pipelining_beats_single_message() {
        // Sending 8 chunks through a 2-hop relay pipelined should beat
        // store-and-forward of the whole message.
        let topo = tiny_net(3, 1e9);
        let bytes = 8e8;
        // Store-and-forward whole message.
        let mut s1 = CommSchedule::new(3);
        let a = s1.transfer(0, 1, bytes, vec![]);
        s1.transfer(1, 2, bytes, vec![a]);
        let r1 = s1.simulate(&topo, &SimOptions::default());
        // Pipelined in 8 chunks.
        let mut s2 = CommSchedule::new(3);
        let chunk = bytes / 8.0;
        let mut prev_in: Option<usize> = None;
        for _ in 0..8 {
            let dep = prev_in.map(|p| vec![p]).unwrap_or_default();
            let t_in = s2.transfer(0, 1, chunk, dep);
            s2.transfer(1, 2, chunk, vec![t_in]);
            prev_in = Some(t_in);
        }
        let r2 = s2.simulate(&topo, &SimOptions::default());
        assert!(
            r2.makespan < r1.makespan * 0.7,
            "pipelined {} vs whole {}",
            r2.makespan,
            r1.makespan
        );
    }
}
