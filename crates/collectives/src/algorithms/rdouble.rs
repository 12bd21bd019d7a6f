//! Whole-buffer recursive doubling — our stand-in for the "default OpenMPI"
//! allreduce the paper compares against (Figures 5–6).
//!
//! ⌈log₂ n⌉ rounds of full-payload pairwise exchange + local sum. Latency-
//! optimal for small messages but moves `log₂(n) × payload` per NIC with no
//! pipelining, which is why it trails both rings and the multi-color trees at
//! the gradient sizes deep learning cares about.

use super::Allreduce;
use crate::plan::Step;

const TAG: u32 = 0x0900_0000;

/// Recursive-doubling allreduce (with the standard fold for non-powers of 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecursiveDoubling;

/// Largest power of two ≤ n (n ≥ 1).
pub(crate) fn prev_pow2(n: usize) -> usize {
    let mut p = 1;
    while p * 2 <= n {
        p *= 2;
    }
    p
}

/// For the non-power-of-two fold: maps effective rank → global rank, where
/// the first `rem` effective ranks are the even ranks among `0..2*rem`.
pub(crate) fn eff_to_global(er: usize, rem: usize) -> usize {
    if er < rem {
        2 * er
    } else {
        er + rem
    }
}

/// Global rank → effective rank, `None` for folded-away odd ranks.
pub(crate) fn global_to_eff(r: usize, rem: usize) -> Option<usize> {
    if r < 2 * rem {
        if r.is_multiple_of(2) {
            Some(r / 2)
        } else {
            None
        }
    } else {
        Some(r - rem)
    }
}

/// The non-power-of-two fold both doubling algorithms open with: odd ranks
/// below `2 * rem` contribute their whole buffer to their even neighbour.
pub(crate) fn fold_steps(r: usize, rem: usize, len: usize, tag: u32, steps: &mut Vec<Step>) {
    if r < 2 * rem {
        steps.push(if r % 2 == 1 {
            Step::Send { to: r - 1, range: 0..len, tag }
        } else {
            Step::RecvReduce { from: r + 1, range: 0..len, tag }
        });
    }
}

/// The matching unfold: even ranks return the result to the folded neighbour.
pub(crate) fn unfold_steps(r: usize, rem: usize, len: usize, tag: u32, steps: &mut Vec<Step>) {
    if r < 2 * rem {
        steps.push(if r.is_multiple_of(2) {
            Step::Send { to: r + 1, range: 0..len, tag }
        } else {
            Step::RecvCopy { from: r - 1, range: 0..len, tag }
        });
    }
}

impl Allreduce for RecursiveDoubling {
    fn name(&self) -> &'static str {
        "openmpi-default"
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
            let mut mask = 1usize;
            let mut round = 1u32;
            while mask < p {
                let peer = eff_to_global(er ^ mask, rem);
                steps.push(Step::Send { to: peer, range: 0..len, tag: TAG + round });
                steps.push(Step::RecvReduce { from: peer, range: 0..len, tag: TAG + round });
                mask <<= 1;
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
    use crate::algorithms::CostModel;
    use crate::runtime::run_cluster;

    #[test]
    fn prev_pow2_values() {
        assert_eq!(prev_pow2(1), 1);
        assert_eq!(prev_pow2(2), 2);
        assert_eq!(prev_pow2(3), 2);
        assert_eq!(prev_pow2(8), 8);
        assert_eq!(prev_pow2(9), 8);
        assert_eq!(prev_pow2(31), 16);
    }

    #[test]
    fn eff_mapping_roundtrips() {
        for n in 1..20usize {
            let p = prev_pow2(n);
            let rem = n - p;
            let mut effs = Vec::new();
            for r in 0..n {
                if let Some(er) = global_to_eff(r, rem) {
                    assert_eq!(eff_to_global(er, rem), r);
                    effs.push(er);
                }
            }
            effs.sort_unstable();
            assert_eq!(effs, (0..p).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn correct_for_powers_and_non_powers() {
        for n in [2, 3, 4, 5, 6, 7, 8, 12] {
            let len = 33;
            let out = run_cluster(n, |c| {
                let mut buf: Vec<f32> = (0..len).map(|i| (c.rank() * 2 + i) as f32).collect();
                RecursiveDoubling.run(c, &mut buf);
                buf
            });
            for (rk, b) in out.iter().enumerate() {
                for i in 0..len {
                    let want: f32 = (0..n).map(|r| (r * 2 + i) as f32).sum();
                    assert!((b[i] - want).abs() < 1e-3, "n={n} rank={rk} i={i}: {} vs {want}", b[i]);
                }
            }
        }
    }

    #[test]
    fn schedule_moves_logn_times_payload_per_rank() {
        let n = 8;
        let bytes = 1e6;
        let s = RecursiveDoubling.schedule(n, bytes, &CostModel::default());
        s.validate();
        // 3 rounds × 8 ranks × bytes each direction.
        let expect = 3.0 * 8.0 * bytes;
        assert!((s.total_bytes() - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn schedule_nonpower_has_fold_traffic() {
        let s = RecursiveDoubling.schedule(6, 1e6, &CostModel::default());
        s.validate();
        // fold: 2 transfers, rounds: 2 × 4 transfers, unfold: 2 transfers
        let expect = (2.0 + 8.0 + 2.0) * 1e6;
        assert!((s.total_bytes() - expect).abs() < 1.0);
    }
}
