//! The paper's ring comparator (§5.1): "a pipelined ring algorithm where
//! packets are reduced to a single root node along the ring then broadcast
//! from the root to all peers in the opposite direction."
//!
//! Rank `n-1` is the root. Sub-chunk `s` travels `0 → 1 → … → n-1`, each hop
//! summing its local contribution, then travels `n-1 → … → 0` carrying the
//! final value. Unlike the reduce-scatter ring ([`super::RingReduceScatter`])
//! every byte crosses `O(n)` links, which is why the paper's multi-color
//! algorithm beats it.

use super::{even_ranges, Allreduce, Pipeline};
use crate::plan::Step;

const TAG_RED: u32 = 0x0700_0000;
const TAG_BC: u32 = 0x0800_0000;

/// Pipelined reduce-to-root + opposite-direction broadcast ring.
#[derive(Debug, Clone, Default)]
pub struct PipelinedRing {
    pipeline: Pipeline,
}

impl PipelinedRing {
    /// Override pipelining parameters.
    pub fn with_pipeline(pipeline: Pipeline) -> Self {
        PipelinedRing { pipeline }
    }
}

impl Allreduce for PipelinedRing {
    fn name(&self) -> &'static str {
        "ring"
    }

    fn plan(&self, n: usize, r: usize, len: usize) -> Vec<Step> {
        let mut steps = Vec::new();
        if n <= 1 {
            return steps;
        }
        let s_max = self.pipeline.chunks_for(len * 4);
        let subs = even_ranges(len, s_max);
        // Keep up to `n` reduce sub-chunks in flight before collecting the
        // broadcast of the oldest — roughly when the root has finished it.
        let lookahead = n.min(s_max).max(1);

        for i in 0..s_max + lookahead {
            if i < s_max {
                let (range, tag) = (subs[i].clone(), TAG_RED + i as u32);
                if r > 0 {
                    steps.push(Step::RecvReduce { from: r - 1, range: range.clone(), tag });
                }
                if r < n - 1 {
                    steps.push(Step::Send { to: r + 1, range, tag });
                }
            }
            if i >= lookahead {
                let s = i - lookahead;
                let (range, tag) = (subs[s].clone(), TAG_BC + s as u32);
                if r < n - 1 {
                    steps.push(Step::RecvCopy { from: r + 1, range: range.clone(), tag });
                }
                if r > 0 {
                    steps.push(Step::Send { to: r - 1, range, tag });
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

    #[test]
    fn correct_small_pipelined() {
        let algo =
            PipelinedRing::with_pipeline(Pipeline { target_bytes: 32, max_chunks: 8 });
        for n in [2, 3, 5, 8] {
            let len = 50;
            let out = run_cluster(n, |c| {
                let mut buf: Vec<f32> = (0..len).map(|i| (c.rank() + i) as f32).collect();
                algo.run(c, &mut buf);
                buf
            });
            for b in &out {
                for i in 0..len {
                    let want: f32 = (0..n).map(|r| (r + i) as f32).sum();
                    assert!((b[i] - want).abs() < 1e-3, "n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn single_rank_noop() {
        let algo = PipelinedRing::default();
        let out = run_cluster(1, |c| {
            let mut b = vec![1.0f32, 2.0];
            algo.run(c, &mut b);
            b
        });
        assert_eq!(out[0], vec![1.0, 2.0]);
    }

    #[test]
    fn schedule_bytes_are_2_nminus1_payload() {
        let n = 8;
        let bytes = 1e7;
        let s = PipelinedRing::default().schedule(n, bytes, &CostModel::default());
        s.validate();
        let expect = 2.0 * (n as f64 - 1.0) * bytes;
        assert!((s.total_bytes() - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn pipelining_improves_makespan() {
        let topo = FatTree::minsky(16);
        let cost = CostModel::default();
        let bytes = 64e6;
        let fat = PipelinedRing::with_pipeline(Pipeline { target_bytes: usize::MAX, max_chunks: 1 })
            .schedule(16, bytes, &cost)
            .simulate(&topo, &SimOptions::default());
        let pipe = PipelinedRing::default()
            .schedule(16, bytes, &cost)
            .simulate(&topo, &SimOptions::default());
        assert!(
            pipe.makespan < fat.makespan * 0.5,
            "pipelined {} vs monolithic {}",
            pipe.makespan,
            fat.makespan
        );
    }
}
