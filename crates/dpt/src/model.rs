//! Overhead timeline model of the two data-parallel-table designs.
//!
//! The per-iteration *compute* (forward+backward on a shard) is identical in
//! both designs; what differs is everything around it. This module prices
//! those differences on a [`dcnn_gpusim::NodeModel`].

use dcnn_gpusim::NodeModel;
use dcnn_models::ModelCensus;

/// Which data-parallel-table design to price.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DptVariant {
    /// Stock Torch design (paper Figure 3).
    Baseline,
    /// The paper's redesign (Figure 4).
    Optimized,
}

/// Scheduling cost constants.
#[derive(Debug, Clone)]
pub struct DptParams {
    /// Cost of one serialized "ending callback" on the main thread, seconds.
    /// Torch runs these fully serialized; the paper counts reducing them as
    /// one of its three fixes.
    pub callback_secs: f64,
    /// Serialization points per GPU per iteration in the baseline design
    /// (scatter, forward, output-gather, criterion, backward, reduce).
    pub baseline_sync_points: usize,
    /// Serialization points per GPU per iteration after the redesign.
    pub optimized_sync_points: usize,
    /// Effective copy bandwidth of the stock design's gradient staging,
    /// bytes/s. Stock Torch moved gradients through *pageable* Lua tensor
    /// memory on the default stream (~PCIe-class 5.5 GB/s); the redesign
    /// pins buffers and rides NVLink.
    pub pageable_copy_bw: f64,
}

impl Default for DptParams {
    fn default() -> Self {
        DptParams {
            callback_secs: 0.5e-3,
            baseline_sync_points: 6,
            optimized_sync_points: 2,
            pageable_copy_bw: 5.5e9,
        }
    }
}

/// Per-iteration overhead breakdown, seconds.
#[derive(Debug, Clone)]
pub struct DptOverheads {
    /// Host→device input movement (staged through GPU1 in the baseline).
    pub input_movement: f64,
    /// Criterion evaluation beyond the parallel case.
    pub criterion: f64,
    /// Intra-node gradient reduction.
    pub gradient_reduce: f64,
    /// Serialized ending callbacks.
    pub callbacks: f64,
}

impl DptOverheads {
    /// Sum of all components.
    pub fn total(&self) -> f64 {
        self.input_movement + self.criterion + self.gradient_reduce + self.callbacks
    }
}

/// Bytes of one input sample for the census' input shape.
fn sample_bytes(census: &ModelCensus) -> f64 {
    (census.input[0] * census.input[1] * census.input[2]) as f64 * 4.0
}

/// Criterion cost for `n` samples: softmax + NLL over `classes`, a
/// memory-bound pointwise pass.
fn criterion_secs(census: &ModelCensus, n: usize, node: &NodeModel) -> f64 {
    let bytes = n as f64 * census.classes as f64 * 4.0 * 3.0;
    bytes / node.device.mem_bw + node.device.launch_overhead
}

/// Price one iteration's scheduling overhead for a node batch of
/// `batch_node` samples spread over the node's GPUs.
pub fn iter_overhead_secs(
    census: &ModelCensus,
    batch_node: usize,
    node: &NodeModel,
    params: &DptParams,
    variant: DptVariant,
) -> DptOverheads {
    let m = node.gpus;
    let link = node.device.host_link_bw;
    let batch_bytes = batch_node as f64 * sample_bytes(census);
    let shard_bytes = batch_bytes / m as f64;
    let payload = census.payload_bytes();
    match variant {
        DptVariant::Baseline => DptOverheads {
            // Whole batch to GPU1, then (m−1) shard copies serialized
            // through GPU1's link.
            input_movement: batch_bytes / link + (m as f64 - 1.0) * shard_bytes / link,
            // Outputs gathered to GPU1, criterion on the full batch there,
            // gradient scattered back. Output tensors are small; the
            // criterion itself runs on one GPU over the whole batch.
            criterion: criterion_secs(census, batch_node, node)
                + 2.0 * (batch_node * census.classes) as f64 * 4.0 / link,
            // (m−1) full payloads serialized into GPU1 through pageable host
            // memory, plus the summation there.
            gradient_reduce: (m as f64 - 1.0)
                * (payload / params.pageable_copy_bw + payload / node.device.mem_bw),
            callbacks: params.callback_secs * (params.baseline_sync_points * m) as f64,
        },
        DptVariant::Optimized => DptOverheads {
            // Direct shard copies proceed in parallel over per-GPU links.
            input_movement: shard_bytes / link,
            // Criterion on every GPU over its own shard, in parallel.
            criterion: criterion_secs(census, batch_node / m, node),
            // Tree reduction across the node.
            gradient_reduce: node.intra_node_reduce_secs(payload),
            callbacks: params.callback_secs * (params.optimized_sync_points * m) as f64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnn_gpusim::NodeModel;
    use dcnn_models::{googlenet_bn, resnet50};

    #[test]
    fn optimized_is_cheaper() {
        let node = NodeModel::minsky();
        let p = DptParams::default();
        for census in [googlenet_bn(), resnet50()] {
            let base = iter_overhead_secs(&census, 256, &node, &p, DptVariant::Baseline);
            let opt = iter_overhead_secs(&census, 256, &node, &p, DptVariant::Optimized);
            assert!(
                opt.total() < base.total(),
                "{}: opt {} vs base {}",
                census.name,
                opt.total(),
                base.total()
            );
            assert!(opt.input_movement < base.input_movement);
            assert!(opt.callbacks < base.callbacks);
        }
    }

    #[test]
    fn figure12_magnitude_band() {
        // §5.3: the DPT optimizations improve per-epoch time by 15%
        // (GoogLeNet-BN) and 18% (ResNet-50). The per-iteration saving over
        // compute should land in that neighbourhood.
        let node = NodeModel::minsky();
        let p = DptParams::default();
        for (census, lo, hi) in [(googlenet_bn(), 0.10, 0.30), (resnet50(), 0.12, 0.26)] {
            let batch = 64 * node.gpus;
            let base = iter_overhead_secs(&census, batch, &node, &p, DptVariant::Baseline);
            let opt = iter_overhead_secs(&census, batch, &node, &p, DptVariant::Optimized);
            let compute = node.device.train_step_secs(&census, 64);
            let saving = (base.total() - opt.total()) / (compute + opt.total());
            assert!((lo..hi).contains(&saving), "{}: saving fraction {saving:.3}", census.name);
        }
    }

    #[test]
    fn single_gpu_node_has_minimal_overhead_difference() {
        let mut node = NodeModel::minsky();
        node.gpus = 1;
        let p = DptParams::default();
        let census = resnet50();
        let base = iter_overhead_secs(&census, 64, &node, &p, DptVariant::Baseline);
        let opt = iter_overhead_secs(&census, 64, &node, &p, DptVariant::Optimized);
        // With one GPU there is no scatter/reduce; only callback counts differ.
        assert_eq!(base.gradient_reduce, 0.0);
        assert_eq!(opt.gradient_reduce, 0.0);
        assert!(base.total() > opt.total());
        assert!(base.total() - opt.total() <= p.callback_secs * 6.0 + 1e-2);
    }

    #[test]
    fn overheads_scale_with_batch() {
        let node = NodeModel::minsky();
        let p = DptParams::default();
        let census = googlenet_bn();
        let small = iter_overhead_secs(&census, 64, &node, &p, DptVariant::Baseline);
        let large = iter_overhead_secs(&census, 512, &node, &p, DptVariant::Baseline);
        assert!(large.input_movement > 7.0 * small.input_movement);
        // Gradient reduce is batch-independent.
        assert!((large.gradient_reduce - small.gradient_reduce).abs() < 1e-12);
    }
}
