//! Classic reduce-scatter + allgather ring allreduce (the NCCL/Horovod
//! bandwidth-optimal algorithm). Not in the paper — included as an ablation
//! so the benches can situate the multi-color trees against the algorithm
//! that later became standard practice.
//!
//! Every rank sends `2(n-1)/n × payload` in total, the bandwidth lower bound
//! for an allreduce, at the cost of `2(n-1)` latency terms.

use super::{even_ranges, Allreduce};
use crate::plan::Step;
use crate::primitives::{ring_allgather_steps, ring_reduce_scatter_steps};

/// Reduce-scatter + allgather ring.
#[derive(Debug, Clone, Copy, Default)]
pub struct RingReduceScatter;

impl Allreduce for RingReduceScatter {
    fn name(&self) -> &'static str {
        "ring-reduce-scatter"
    }

    fn plan(&self, n: usize, rank: usize, len: usize) -> Vec<Step> {
        // Composed from the first-class primitives: an even reduce-scatter
        // (chunk r owned by rank r) followed by the matching allgather.
        let counts: Vec<usize> = even_ranges(len, n).iter().map(|c| c.len()).collect();
        let mut steps = ring_reduce_scatter_steps(rank, &counts);
        steps.extend(ring_allgather_steps(rank, &counts));
        steps
    }

    /// The native scatter phase, not the default's pruned allreduce. At even
    /// `counts` the two move the same messages; they differ when the owner map
    /// is not the ring's own even chunking (a bucket of a larger gradient),
    /// and there the contracts differ: the default reproduces `run` over
    /// *this* buffer, while the ring anchors each element's accumulation
    /// order at its owning rank wherever the chunk boundaries fall. That is
    /// what makes the ring's sharded bits independent of how the gradient
    /// is bucketed (the `ring-reduce-scatter/*/sharded` goldens pin it), so
    /// the override stays.
    fn scatter_plan(&self, rank: usize, counts: &[usize]) -> Vec<Step> {
        ring_reduce_scatter_steps(rank, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::CostModel;
    use crate::runtime::run_cluster;

    #[test]
    fn correct_various_sizes() {
        for n in [2, 3, 4, 5, 8] {
            for len in [1, 2, n, 4 * n + 3, 100] {
                let out = run_cluster(n, |c| {
                    let mut buf: Vec<f32> =
                        (0..len).map(|i| ((c.rank() + 1) * (i + 1)) as f32).collect();
                    RingReduceScatter.run(c, &mut buf);
                    buf
                });
                for (rk, b) in out.iter().enumerate() {
                    for i in 0..len {
                        let want: f32 = (0..n).map(|r| ((r + 1) * (i + 1)) as f32).sum();
                        assert!(
                            (b[i] - want).abs() < 1e-2 * want.abs().max(1.0),
                            "n={n} len={len} rank={rk} i={i}: {} vs {want}",
                            b[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn len_smaller_than_ranks() {
        // Chunks may be empty; algorithm must still terminate correctly.
        let out = run_cluster(6, |c| {
            let mut buf = vec![c.rank() as f32 + 1.0];
            RingReduceScatter.run(c, &mut buf);
            buf
        });
        for b in out {
            assert_eq!(b[0], 21.0);
        }
    }

    #[test]
    fn schedule_bandwidth_optimal() {
        let n = 8;
        let bytes = 8e6;
        let s = RingReduceScatter.schedule(n, bytes, &CostModel::default());
        s.validate();
        // 2(n-1) steps × n ranks × bytes/n per send = 2(n-1) × bytes total.
        let expect = 2.0 * (n as f64 - 1.0) * bytes;
        assert!((s.total_bytes() - expect).abs() < 1e-6 * expect);
    }
}
