//! Two-level hierarchical allreduce — an extension beyond the paper.
//!
//! Groups of `group_size` ranks first reduce to a group leader (binomial
//! tree), the leaders run an inner allreduce among themselves (the paper's
//! multi-color algorithm by default), and the result is broadcast back down
//! within each group. This is the structure that later became standard for
//! node/rack hierarchies (NCCL's tree+ring hybrids); it also mirrors what
//! the paper's Algorithm 1 does implicitly with its intra-node summation
//! before `MPI_Allreduce`.

use super::{Allreduce, MultiColor};
use crate::plan::{embed, Step};
use crate::primitives::{bcast_steps, reduce_steps};

/// Hierarchical allreduce: per-group reduce → leaders' allreduce → bcast.
#[derive(Debug, Clone)]
pub struct Hierarchical {
    group_size: usize,
    inner: MultiColor,
}

impl Hierarchical {
    /// Groups of `group_size` ranks; leaders run a `colors`-color allreduce.
    pub fn new(group_size: usize, colors: usize) -> Self {
        assert!(group_size >= 1);
        Hierarchical { group_size, inner: MultiColor::new(colors) }
    }
}

impl Allreduce for Hierarchical {
    fn name(&self) -> &'static str {
        "hierarchical"
    }

    fn plan(&self, n: usize, me: usize, len: usize) -> Vec<Step> {
        if n <= 1 {
            return Vec::new();
        }
        let g = self.group_size;
        let first = me / g * g;
        let group: Vec<usize> = (first..(first + g).min(n)).collect();
        let leaders: Vec<usize> = (0..n).step_by(g).collect();
        let local = me - first;
        // Phase 1: reduce to the group leader (the group's first rank).
        let mut steps: Vec<Step> =
            embed(reduce_steps(group.len(), local, 0, len), &group).collect();
        // Phase 2: leaders allreduce among themselves.
        if local == 0 {
            steps.extend(embed(self.inner.plan(leaders.len(), me / g, len), &leaders));
        }
        // Phase 3: broadcast within the group.
        steps.extend(embed(bcast_steps(group.len(), local, 0, len), &group));
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::CostModel;
    use crate::runtime::run_cluster;
    use dcnn_simnet::{FatTree, SimOptions};

    #[test]
    fn correct_for_various_group_sizes() {
        for n in [4usize, 6, 8, 12] {
            for g in [1usize, 2, 3, 4] {
                if g > n {
                    continue;
                }
                let algo = Hierarchical::new(g, 2);
                let len = 37;
                let out = run_cluster(n, |c| {
                    let mut buf: Vec<f32> =
                        (0..len).map(|i| (c.rank() * 3 + i) as f32).collect();
                    algo.run(c, &mut buf);
                    buf
                });
                for (rk, b) in out.iter().enumerate() {
                    for i in 0..len {
                        let want: f32 = (0..n).map(|r| (r * 3 + i) as f32).sum();
                        assert!(
                            (b[i] - want).abs() < 1e-2 * want.abs().max(1.0),
                            "n={n} g={g} rank={rk} i={i}: {} vs {want}",
                            b[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn group_of_one_degenerates_to_inner() {
        // group_size 1: every rank is a leader; equivalent to multicolor.
        let algo = Hierarchical::new(1, 2);
        let out = run_cluster(4, |c| {
            let mut buf = vec![c.rank() as f32 + 1.0; 8];
            algo.run(c, &mut buf);
            buf[0]
        });
        assert!(out.iter().all(|&v| (v - 10.0).abs() < 1e-4));
    }

    #[test]
    fn schedule_simulates_and_moves_less_inter_group_traffic() {
        let n = 16;
        let g = 4;
        let bytes = 16e6;
        let cost = CostModel::default();
        let sch = Hierarchical::new(g, 2).schedule(n, bytes, &cost);
        sch.validate();
        let topo = FatTree::minsky(n);
        let rep = sch.simulate(&topo, &SimOptions::default());
        assert!(rep.makespan > 0.0 && rep.makespan.is_finite());
        // Traffic accounting: 12 intra-group up + leaders' allreduce
        // (2·(n_leaders−1)·bytes for the trees) + 12 down.
        let flat = MultiColor::new(4).schedule(n, bytes, &cost);
        // Hierarchical sends fewer long-haul bytes but more total hops at
        // this scale; just confirm both deliver and are same order.
        let rep_flat = flat.simulate(&topo, &SimOptions::default());
        assert!(rep.makespan < rep_flat.makespan * 20.0);
    }

    #[test]
    fn leader_self_contains_result_midway() {
        // After phase 1, leaders hold the group sums: verify by a 2-group
        // run where the final result equals the global sum everywhere.
        let algo = Hierarchical::new(2, 1);
        let out = run_cluster(4, |c| {
            let mut buf = vec![2.0f32 * c.rank() as f32; 4];
            algo.run(c, &mut buf);
            buf
        });
        for b in out {
            assert_eq!(b[0], 12.0); // 0+2+4+6
        }
    }
}
