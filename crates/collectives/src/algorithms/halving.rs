//! Rabenseifner's recursive halving + doubling allreduce — an ablation
//! baseline: bandwidth-optimal like the reduce-scatter ring but with
//! logarithmic latency. MPI libraries (including the MPICH lineage the paper
//! cites as [12]) use it for large payloads.
//!
//! Phase 1 reduce-scatters by recursive halving (exchange half of the current
//! range each round, at distance p/2, p/4, …, 1); phase 2 allgathers by
//! recursive doubling, replaying the ranges in reverse.

use super::rdouble::{eff_to_global, fold_steps, global_to_eff, prev_pow2, unfold_steps};
use super::Allreduce;
use crate::plan::Step;

const TAG: u32 = 0x0C00_0000;

/// Recursive halving-doubling (Rabenseifner) allreduce.
#[derive(Debug, Clone, Copy, Default)]
pub struct HalvingDoubling;

impl Allreduce for HalvingDoubling {
    fn name(&self) -> &'static str {
        "halving-doubling"
    }

    fn plan(&self, n: usize, r: usize, len: usize) -> Vec<Step> {
        let mut steps = Vec::new();
        if n <= 1 {
            return steps;
        }
        let p = prev_pow2(n);
        let rem = n - p;
        fold_steps(r, rem, len, TAG, &mut steps);

        if let Some(er) = global_to_eff(r, rem) {
            // Reduce-scatter by recursive halving. `cur` is the range this
            // rank keeps refining; `trail` records (range_before, partner)
            // per step so the allgather can replay it backwards.
            let mut cur = 0..len;
            let mut trail: Vec<(std::ops::Range<usize>, usize)> = Vec::new();
            let mut mask = p / 2;
            let mut round = 1u32;
            while mask >= 1 {
                let peer = eff_to_global(er ^ mask, rem);
                let mid = cur.start + cur.len() / 2;
                let (keep, give) = if er & mask == 0 {
                    (cur.start..mid, mid..cur.end)
                } else {
                    (mid..cur.end, cur.start..mid)
                };
                steps.push(Step::Send { to: peer, range: give, tag: TAG + round });
                steps.push(Step::RecvReduce { from: peer, range: keep.clone(), tag: TAG + round });
                trail.push((cur, peer));
                cur = keep;
                mask /= 2;
                round += 1;
            }

            // Allgather by recursive doubling: reverse the trail.
            for (outer, peer) in trail.into_iter().rev() {
                // The peer holds the other half of `outer`.
                let sibling = if cur.start == outer.start {
                    cur.end..outer.end
                } else {
                    outer.start..cur.start
                };
                steps.push(Step::Send { to: peer, range: cur, tag: TAG + round });
                steps.push(Step::RecvCopy { from: peer, range: sibling, tag: TAG + round });
                cur = outer;
                round += 1;
            }
        }

        unfold_steps(r, rem, len, TAG + 63, &mut steps);
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_cluster;

    #[test]
    fn correct_powers_of_two() {
        for n in [2, 4, 8, 16] {
            for len in [16, 33, 128] {
                let out = run_cluster(n, |c| {
                    let mut buf: Vec<f32> =
                        (0..len).map(|i| (c.rank() * 7 + i) as f32).collect();
                    HalvingDoubling.run(c, &mut buf);
                    buf
                });
                for (rk, b) in out.iter().enumerate() {
                    for i in 0..len {
                        let want: f32 = (0..n).map(|r| (r * 7 + i) as f32).sum();
                        assert!(
                            (b[i] - want).abs() < 1e-2 * want.abs().max(1.0),
                            "n={n} len={len} rank={rk} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn correct_non_powers() {
        for n in [3, 5, 6, 7, 12] {
            let len = 40;
            let out = run_cluster(n, |c| {
                let mut buf: Vec<f32> = (0..len).map(|i| (c.rank() + i) as f32).collect();
                HalvingDoubling.run(c, &mut buf);
                buf
            });
            for b in &out {
                for i in 0..len {
                    let want: f32 = (0..n).map(|r| (r + i) as f32).sum();
                    assert!((b[i] - want).abs() < 1e-2, "n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn odd_length_buffers() {
        // Halving splits must handle ranges that don't divide evenly.
        let out = run_cluster(4, |c| {
            let mut buf: Vec<f32> = (0..7).map(|i| (c.rank() * 10 + i) as f32).collect();
            HalvingDoubling.run(c, &mut buf);
            buf
        });
        for b in out {
            for i in 0..7 {
                let want: f32 = (0..4).map(|r| (r * 10 + i) as f32).sum();
                assert_eq!(b[i], want);
            }
        }
    }

    #[test]
    fn schedule_less_traffic_than_rdouble() {
        use super::super::{CostModel, RecursiveDoubling};
        let cost = CostModel::default();
        let hd = HalvingDoubling.schedule(8, 8e6, &cost);
        let rd = RecursiveDoubling.schedule(8, 8e6, &cost);
        hd.validate();
        // HD moves 2·bytes·(1 - 1/p) per rank vs log2(p)·bytes for RD:
        // 14/24 of RD's traffic at p = 8.
        assert!(hd.total_bytes() < rd.total_bytes() * 0.6, "{} vs {}", hd.total_bytes(), rd.total_bytes());
    }
}
