//! The paper's multi-color tree Allreduce (§4.2, Figure 2).
//!
//! The payload is split into `k` chunks. Chunk `c` is reduced up color tree
//! `c` (leaves send, interior nodes sum and forward) and then broadcast back
//! down the same tree. Interior node sets are disjoint across colors, so the
//! `k` reductions use different summing CPUs and different root-adjacent
//! links and can progress concurrently. Each chunk is further cut into
//! pipeline sub-chunks that stream through the tree, the way the paper's
//! RDMA-read implementation pipelines the reduction.
//!
//! **Send before you wait.** §4.2 has "network packets for each color …
//! transferred concurrently", but a rank runs its plan in program order and
//! blocks in every receive. Every rank is a leaf of some colors and interior
//! to another, so if it walked the colors in index order it would sit in
//! color 0's receive holding the color-1 send its peer is itself waiting
//! for — at two ranks the copy, sum, copy, sum of each sub-chunk then run
//! strictly in series and one rank is always idle. So within each wave (one
//! phase of one pipeline sub-chunk) the plan emits the steps that wait for
//! nothing first: in the reduce phase the sends of every color this rank is
//! a leaf of, then receive-sum-forward for the colors it is interior to; in
//! the broadcast phase the sends of the color it roots, then
//! receive-copy-forward. Tags, ranges, the per-parent child order and the
//! `LOOKAHEAD` window are as in index order, so sums, message counts and
//! bytes are too; only the idle time goes. It is also the order
//! [`crate::plan::compile`]'s data-flow model always assumed.

use std::ops::Range;

use super::{even_ranges, Allreduce, Pipeline};
use crate::plan::Step;
use crate::tree::ColorTree;

const TAG_RED: u32 = 0x0500_0000;
const TAG_BC: u32 = 0x0600_0000;

/// How many pipeline sub-chunks a rank keeps in flight before entering the
/// broadcast phase for the oldest one. Any value ≥ 1 is deadlock-free (the
/// action dependency graph stays acyclic); larger values overlap the
/// reduction and broadcast waves better.
const LOOKAHEAD: usize = 4;

/// Multi-color Allreduce with `colors` spanning trees.
#[derive(Debug, Clone)]
pub struct MultiColor {
    colors: usize,
    pipeline: Pipeline,
}

impl MultiColor {
    /// A `k`-color allreduce with the default pipeline.
    pub fn new(colors: usize) -> Self {
        assert!(colors >= 1, "need at least one color");
        MultiColor { colors, pipeline: Pipeline::default() }
    }

    /// Override the pipelining parameters.
    pub fn with_pipeline(colors: usize, pipeline: Pipeline) -> Self {
        MultiColor { colors, pipeline }
    }

    /// The number of colors requested.
    pub fn colors(&self) -> usize {
        self.colors
    }
}

impl Allreduce for MultiColor {
    fn name(&self) -> &'static str {
        "multicolor"
    }

    fn plan(&self, n: usize, me: usize, len: usize) -> Vec<Step> {
        let mut steps = Vec::new();
        if n <= 1 {
            return steps;
        }
        let k = self.colors.clamp(1, n);
        let trees = ColorTree::build_all(n, k);
        let color_ranges = even_ranges(len, k);
        let s_max = color_ranges
            .iter()
            .map(|r| self.pipeline.chunks_for(r.len() * 4))
            .max()
            .expect("k >= 1");
        // subs[c][s] — absolute element range of sub-chunk s of color c.
        let subs: Vec<Vec<Range<usize>>> = color_ranges
            .iter()
            .map(|cr| {
                even_ranges(cr.len(), s_max)
                    .into_iter()
                    .map(|r| cr.start + r.start..cr.start + r.end)
                    .collect()
            })
            .collect();
        let tag_of = |phase: u32, c: usize, s: usize| phase + (c * s_max + s) as u32;

        for i in 0..s_max + LOOKAHEAD {
            if i < s_max {
                // Reduce sub-chunk i up every tree. What waits for nothing
                // goes first: the sends of the colors this rank is a leaf
                // of, then sum-the-children-and-forward where it is interior.
                for leaf in [true, false] {
                    for (c, tree) in trees.iter().enumerate() {
                        if tree.children(me).is_empty() != leaf {
                            continue;
                        }
                        let (range, tag) = (&subs[c][i], tag_of(TAG_RED, c, i));
                        for &from in tree.children(me) {
                            steps.push(Step::RecvReduce { from, range: range.clone(), tag });
                        }
                        if tree.parent(me) != me {
                            steps.push(Step::Send { to: tree.parent(me), range: range.clone(), tag });
                        }
                    }
                }
            }
            if i >= LOOKAHEAD {
                // Broadcast sub-chunk i - LOOKAHEAD back down every tree:
                // the root's sends first, then receive-copy-forward.
                let s = i - LOOKAHEAD;
                for root in [true, false] {
                    for (c, tree) in trees.iter().enumerate() {
                        if (tree.parent(me) == me) != root {
                            continue;
                        }
                        let (range, tag) = (&subs[c][s], tag_of(TAG_BC, c, s));
                        if !root {
                            steps.push(Step::RecvCopy { from: tree.parent(me), range: range.clone(), tag });
                        }
                        for &to in tree.children(me) {
                            steps.push(Step::Send { to, range: range.clone(), tag });
                        }
                    }
                }
            }
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::CostModel;
    use crate::runtime::run_cluster;
    use dcnn_simnet::{FatTree, SimOptions};

    fn reference(n: usize, len: usize) -> Vec<f32> {
        // Sum over ranks of rank-dependent values.
        (0..len)
            .map(|i| (0..n).map(|r| (r * 31 + i) as f32 * 0.5).sum())
            .collect()
    }

    fn check(n: usize, len: usize, k: usize) {
        let algo = MultiColor::with_pipeline(k, Pipeline { target_bytes: 64, max_chunks: 4 });
        let out = run_cluster(n, |c| {
            let mut buf: Vec<f32> =
                (0..len).map(|i| (c.rank() * 31 + i) as f32 * 0.5).collect();
            algo.run(c, &mut buf);
            buf
        });
        let expect = reference(n, len);
        for (r, b) in out.iter().enumerate() {
            for (i, (&got, &want)) in b.iter().zip(&expect).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                    "n={n} len={len} k={k} rank={r} i={i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn correct_across_sizes_and_colors() {
        for n in [2, 3, 4, 7, 8] {
            for len in [1, 5, 64, 257] {
                for k in [1, 2, 4] {
                    check(n, len, k);
                }
            }
        }
    }

    #[test]
    fn single_rank_is_identity() {
        let algo = MultiColor::new(4);
        let out = run_cluster(1, |c| {
            let mut buf = vec![3.0f32; 8];
            algo.run(c, &mut buf);
            buf
        });
        assert_eq!(out[0], vec![3.0; 8]);
    }

    #[test]
    fn more_colors_than_ranks_clamps() {
        check(2, 16, 8);
    }

    /// The plan as it was before the send-first rule: inside an iteration,
    /// colors in index order, each color's receives before its sends.
    fn index_order_plan(algo: &MultiColor, n: usize, me: usize, len: usize) -> Vec<Step> {
        let k = algo.colors.clamp(1, n);
        let trees = ColorTree::build_all(n, k);
        let s_max = sub_chunks(algo, n, len);
        let sub = |c: usize, s: usize| {
            let cr = &even_ranges(len, k)[c];
            let r = &even_ranges(cr.len(), s_max)[s];
            cr.start + r.start..cr.start + r.end
        };
        let mut steps = Vec::new();
        for i in 0..s_max + LOOKAHEAD {
            for (c, tree) in trees.iter().enumerate().filter(|_| i < s_max) {
                let (range, tag) = (sub(c, i), TAG_RED + (c * s_max + i) as u32);
                for &from in tree.children(me) {
                    steps.push(Step::RecvReduce { from, range: range.clone(), tag });
                }
                if tree.parent(me) != me {
                    steps.push(Step::Send { to: tree.parent(me), range: range.clone(), tag });
                }
            }
            for (c, tree) in trees.iter().enumerate().filter(|_| i >= LOOKAHEAD) {
                let s = i - LOOKAHEAD;
                let (range, tag) = (sub(c, s), TAG_BC + (c * s_max + s) as u32);
                if tree.parent(me) != me {
                    steps.push(Step::RecvCopy { from: tree.parent(me), range: range.clone(), tag });
                }
                for &to in tree.children(me) {
                    steps.push(Step::Send { to, range: range.clone(), tag });
                }
            }
        }
        steps
    }

    fn sub_chunks(algo: &MultiColor, n: usize, len: usize) -> usize {
        even_ranges(len, algo.colors.clamp(1, n))
            .iter()
            .map(|r| algo.pipeline.chunks_for(r.len() * 4))
            .max()
            .expect("k >= 1")
    }

    /// `(is a send, peer, tag)` — the key messages are matched in order by.
    fn stream(step: &Step) -> (bool, usize, u32) {
        match step {
            Step::Send { to, tag, .. } => (true, *to, *tag),
            Step::RecvReduce { from, tag, .. } | Step::RecvCopy { from, tag, .. } => (false, *from, *tag),
        }
    }

    /// Every (world, colors, length) the structural tests walk; sub-chunks
    /// of 16 elements, so the longer buffers pipeline (and 2000 elements
    /// overlap the reduce and broadcast waves).
    fn shapes() -> impl Iterator<Item = (MultiColor, usize, usize)> {
        (2..=9).chain([16]).flat_map(|n| {
            [1, 2, 4].into_iter().flat_map(move |k| {
                [1, 5, 64, 257, 2000].into_iter().map(move |len| {
                    let pipeline = Pipeline { target_bytes: 64, max_chunks: 8 };
                    (MultiColor::with_pipeline(k, pipeline), n, len)
                })
            })
        })
    }

    #[test]
    fn send_first_keeps_every_step_and_every_streams_order() {
        for (algo, n, len) in shapes() {
            for me in 0..n {
                let (new, old) = (algo.plan(n, me, len), index_order_plan(&algo, n, me, len));
                assert_eq!(new.len(), old.len(), "n={n} len={len} rank={me}");
                // Stable sort by stream: equal vectors mean the same steps
                // and, within each (direction, peer, tag), the same order.
                let by_stream = |mut steps: Vec<Step>| {
                    steps.sort_by_key(stream);
                    steps
                };
                assert_eq!(by_stream(new), by_stream(old), "n={n} len={len} rank={me}");
            }
        }
    }

    #[test]
    fn no_send_that_waits_for_nothing_follows_a_receive_of_its_wave() {
        for (algo, n, len) in shapes() {
            let s_max = sub_chunks(&algo, n, len) as u32;
            // A wave: one phase (reduce or broadcast) of one sub-chunk.
            let wave = |step: &Step| {
                let tag = stream(step).2;
                (tag & 0xFF00_0000, (tag & 0x00FF_FFFF) % s_max)
            };
            for me in 0..n {
                let plan = algo.plan(n, me, len);
                for (at, step) in plan.iter().enumerate() {
                    // Free: a send of a color this rank receives nothing
                    // for in this wave (a reduce leaf, a broadcast root).
                    let receives_its_color = |other: &Step| {
                        !stream(other).0 && stream(other).2 == stream(step).2
                    };
                    if !stream(step).0 || plan.iter().any(receives_its_color) {
                        continue;
                    }
                    let blocked_behind =
                        plan[..at].iter().find(|p| !stream(p).0 && wave(p) == wave(step));
                    assert_eq!(
                        blocked_behind, None,
                        "n={n} len={len} rank={me}: {step:?} waits behind a receive"
                    );
                }
            }
        }
    }

    #[test]
    fn schedule_simulates_and_beats_whole_buffer_tree() {
        let topo = FatTree::minsky(16);
        let bytes = 64.0 * 1024.0 * 1024.0;
        let cost = CostModel::default();
        let mc = MultiColor::new(4).schedule(16, bytes, &cost);
        mc.validate();
        let r = mc.simulate(&topo, &SimOptions::default());
        assert!(r.makespan > 0.0);
        // One-color (single tree) should be slower: all summing serializes
        // through one interior set and the root links.
        let one = MultiColor::new(1).schedule(16, bytes, &cost);
        let r1 = one.simulate(&topo, &SimOptions::default());
        assert!(
            r.makespan < r1.makespan,
            "4-color {} vs 1-color {}",
            r.makespan,
            r1.makespan
        );
    }

    #[test]
    fn schedule_total_bytes_scale_with_tree_edges() {
        // Each of k trees moves (n-1) edges × chunk up and down.
        let n = 8;
        let bytes = 8.0e6;
        let s = MultiColor::new(4).schedule(n, bytes, &CostModel::default());
        let expect = 2.0 * (n as f64 - 1.0) * bytes / 4.0 * 4.0; // 2 × (n-1) × bytes
        assert!(
            (s.total_bytes() - expect).abs() < 1e-6 * expect,
            "{} vs {}",
            s.total_bytes(),
            expect
        );
    }

    #[test]
    fn empty_schedule_for_one_rank() {
        let s = MultiColor::new(4).schedule(1, 1e6, &CostModel::default());
        assert!(s.is_empty());
    }
}
