//! Metrics export: CSV and JSON serialization of training statistics, for
//! plotting the accuracy/error-vs-time curves (Figures 13–16) outside Rust.

use crate::distributed::EpochStats;

/// Render epoch statistics as CSV (header + one row per epoch).
pub fn stats_to_csv(stats: &[EpochStats]) -> String {
    let mut out = String::from(
        "epoch,lr,train_loss,train_acc,val_acc,comm_bytes,comm_msgs,comm_wait_secs,allreduce_secs,stash_hwm,bucket_wait_secs,overlap_frac,async_inflight_hwm,bucket_bytes,buckets_launched,resident_param_bytes,resident_opt_bytes,link_bytes_max,link_imbalance,algo_choices\n",
    );
    for s in stats {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            s.epoch,
            s.lr,
            s.train_loss,
            s.train_acc,
            s.val_acc,
            s.comm_bytes,
            s.comm_msgs,
            s.comm_wait_secs,
            s.allreduce_secs,
            s.stash_hwm,
            s.bucket_wait_secs,
            s.overlap_frac,
            s.async_inflight_hwm,
            s.bucket_bytes,
            s.buckets_launched,
            s.resident_param_bytes,
            s.resident_opt_bytes,
            s.link_bytes_max,
            s.link_imbalance,
            s.algo_choices
        ));
    }
    out
}

/// Render epoch statistics as a JSON array.
pub fn stats_to_json(stats: &[EpochStats]) -> String {
    serde_json::to_string_pretty(stats).expect("EpochStats serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(epoch: usize) -> EpochStats {
        EpochStats {
            epoch,
            train_loss: 1.0 / (epoch + 1) as f64,
            train_acc: 0.5,
            val_acc: 0.25 * epoch as f64,
            lr: 0.1,
            comm_bytes: 1024 * epoch as u64,
            comm_msgs: 8 * epoch as u64,
            comm_wait_secs: 0.125,
            allreduce_secs: 0.0625,
            stash_hwm: 2,
            bucket_wait_secs: 0.03125,
            overlap_frac: 0.75,
            async_inflight_hwm: 3,
            bucket_bytes: 4096,
            buckets_launched: 12 * epoch as u64,
            resident_param_bytes: 65536,
            resident_opt_bytes: 8192,
            link_bytes_max: 512 * epoch as u64,
            link_imbalance: 1.5,
            algo_choices: "multicolor".to_string(),
        }
    }

    #[test]
    fn csv_shape() {
        let csv = stats_to_csv(&[fake(0), fake(1)]);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("epoch,"));
        assert!(lines[1].starts_with("0,"));
        assert_eq!(lines[1].split(',').count(), 20);
        assert!(lines[0].ends_with("link_bytes_max,link_imbalance,algo_choices"));
    }

    #[test]
    fn json_parses_back() {
        let j = stats_to_json(&[fake(2)]);
        let v: serde_json::Value = serde_json::from_str(&j).expect("valid json");
        assert_eq!(v[0]["epoch"], 2);
        assert_eq!(v[0]["comm_bytes"], 2048);
        assert_eq!(v[0]["comm_wait_secs"], 0.125);
    }
}
