//! The paper's multi-color tree Allreduce (§4.2, Figure 2).
//!
//! The payload is split into `k` chunks. Chunk `c` is reduced up color tree
//! `c` (leaves send, interior nodes sum and forward) and then broadcast back
//! down the same tree. Interior node sets are disjoint across colors, so the
//! `k` reductions use different summing CPUs and different root-adjacent
//! links and can progress concurrently. Each chunk is further cut into
//! pipeline sub-chunks that stream through the tree, the way the paper's
//! RDMA-read implementation pipelines the reduction.

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
                // Reduce sub-chunk i up every tree: sum the children, forward.
                for (c, tree) in trees.iter().enumerate() {
                    let (range, tag) = (&subs[c][i], tag_of(TAG_RED, c, i));
                    for &from in tree.children(me) {
                        steps.push(Step::RecvReduce { from, range: range.clone(), tag });
                    }
                    if tree.parent(me) != me {
                        steps.push(Step::Send { to: tree.parent(me), range: range.clone(), tag });
                    }
                }
            }
            if i >= LOOKAHEAD {
                // Broadcast sub-chunk i - LOOKAHEAD back down every tree.
                let s = i - LOOKAHEAD;
                for (c, tree) in trees.iter().enumerate() {
                    let (range, tag) = (&subs[c][s], tag_of(TAG_BC, c, s));
                    if tree.parent(me) != me {
                        steps.push(Step::RecvCopy { from: tree.parent(me), range: range.clone(), tag });
                    }
                    for &to in tree.children(me) {
                        steps.push(Step::Send { to, range: range.clone(), tag });
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
