//! Analytic model of the network file server — the bottleneck DIMD removes.
//!
//! §4.1: "a critical scaling bottleneck was insufficient I/O throughput from
//! the file system. The Torch donkeys … were unable to load the next samples
//! of the mini-batch before the GPUs finished executing". The characteristic
//! asymmetry is that *sequential* bulk reads are fast while *random*
//! per-image reads pay a request latency and a low per-stream bandwidth —
//! that asymmetry is exactly why loading the whole blob once (DIMD) wins
//! over fetching random JPEGs every iteration.

use serde::{Deserialize, Serialize};

/// A shared network file server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FileServer {
    /// Aggregate sequential read bandwidth, bytes/s (shared by all nodes).
    pub seq_bw: f64,
    /// Latency of one random read request, seconds.
    pub req_latency: f64,
    /// Per-stream bandwidth of random reads, bytes/s.
    pub rand_stream_bw: f64,
    /// Concurrent random streams the server sustains before saturating.
    pub max_streams: usize,
}

impl FileServer {
    /// A GPFS-class installation consistent with the paper's observations:
    /// healthy sequential bandwidth (12 GB/s aggregate — bulk loads are
    /// cheap), but random per-image reads pay a 1.5 ms request latency and a
    /// modest per-stream bandwidth, so the donkey pipeline cannot hide them
    /// (4 P100s outrun it, §4.1).
    pub fn paper_nfs() -> Self {
        FileServer { seq_bw: 12e9, req_latency: 1.5e-3, rand_stream_bw: 40e6, max_streams: 640 }
    }

    /// Seconds for all nodes together to bulk-load `total_bytes`
    /// sequentially (the one-time DIMD partitioned load).
    pub fn bulk_load_secs(&self, total_bytes: f64) -> f64 {
        total_bytes / self.seq_bw
    }

    /// Aggregate random-read throughput (bytes/s) for records of
    /// `avg_record_bytes`, with `streams` concurrent reader threads across
    /// the cluster.
    pub fn random_read_bw(&self, avg_record_bytes: f64, streams: usize) -> f64 {
        let s = streams.min(self.max_streams) as f64;
        let per_stream =
            avg_record_bytes / (self.req_latency + avg_record_bytes / self.rand_stream_bw);
        (s * per_stream).min(self.seq_bw)
    }

    /// Seconds for the cluster to randomly read `images` records of
    /// `avg_record_bytes` with `streams` concurrent donkey threads — the
    /// per-epoch I/O cost of the non-DIMD baseline.
    pub fn epoch_random_read_secs(
        &self,
        images: usize,
        avg_record_bytes: f64,
        streams: usize,
    ) -> f64 {
        images as f64 * avg_record_bytes / self.random_read_bw(avg_record_bytes, streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_load_is_linear() {
        let fs = FileServer::paper_nfs();
        // 74 GB (ImageNet-1k blob) at 12 GB/s ≈ 6 s.
        let t = fs.bulk_load_secs(74e9);
        assert!((5.0..8.0).contains(&t), "bulk {t}");
        assert!((fs.bulk_load_secs(148e9) / t - 2.0).abs() < 1e-9);
    }

    #[test]
    fn random_reads_much_slower_than_sequential() {
        let fs = FileServer::paper_nfs();
        // 110 KB average JPEG (ImageNet-1k: 74 GB / 1.28 M images ≈ 58 KB).
        let bw = fs.random_read_bw(58e3, 32);
        assert!(bw < fs.seq_bw * 0.25, "random bw {bw} too close to sequential");
    }

    #[test]
    fn more_streams_help_until_saturation() {
        let fs = FileServer::paper_nfs();
        let b8 = fs.random_read_bw(58e3, 8);
        let b64 = fs.random_read_bw(58e3, 64);
        let b1000 = fs.random_read_bw(58e3, 1000);
        let b2000 = fs.random_read_bw(58e3, 2000);
        assert!(b64 > b8);
        assert!(b1000 >= b64);
        assert_eq!(b1000, b2000, "capped at max_streams/seq_bw");
    }

    #[test]
    fn bigger_records_amortize_latency() {
        let fs = FileServer::paper_nfs();
        let small = fs.random_read_bw(10e3, 16);
        let large = fs.random_read_bw(1e6, 16);
        assert!(large > 2.0 * small, "large {large} vs small {small}");
    }

    #[test]
    fn random_epoch_dwarfs_bulk_load() {
        // The premise behind DIMD (Figure 10): randomly reading the dataset
        // every epoch costs far more than bulk-loading it once.
        let fs = FileServer::paper_nfs();
        let bulk = fs.bulk_load_secs(74e9);
        let random = fs.epoch_random_read_secs(1_281_167, 110e3, 8 * 20);
        assert!(random > 5.0 * bulk, "random epoch {random:.0}s vs one bulk load {bulk:.0}s");
    }
}
