//! The deadlock watchdog: the diagnostics registry blocked receives publish
//! into, and the cross-rank report the first receive to time out builds
//! from it (see the parent module's docs).

use std::sync::Arc;

use super::{ClusterShared, ConsumerId};

/// A blocked-receive descriptor, published to the diagnostics registry while
/// a consumer waits in a receive past the first poll interval.
#[derive(Debug, Clone)]
pub(super) struct BlockedRecv {
    /// Global ranks the receive can match (one entry for a plain `recv`,
    /// the whole group for `recv_any`).
    pub(super) sources: Vec<usize>,
    /// True for an any-source receive.
    pub(super) any_source: bool,
    pub(super) comm_id: u64,
    pub(super) tag: u32,
    /// Nanoseconds since cluster start when the consumer blocked.
    pub(super) since_ns: u64,
    /// For bucket consumers: the gradient segment that sealed the bucket
    /// (set by the trainer's streaming scheduler), so watchdog reports can
    /// name the layer instead of just a launch sequence number.
    pub(super) label: Option<Arc<str>>,
}

/// Per-rank slot in the shared diagnostics registry.
#[derive(Default)]
pub(super) struct RankDiag {
    /// Blocked-receive descriptors, one per blocked consumer of the rank's
    /// mailbox (main thread and/or in-flight async buckets).
    pub(super) blocked: Vec<(ConsumerId, BlockedRecv)>,
    /// Stash keys `(src, comm_id, tag, queued)` snapshotted at block time.
    pub(super) stash_keys: Vec<(usize, u64, u32, usize)>,
}

/// One rank's diagnostics snapshot: its blocked-receive descriptors (one per
/// blocked consumer) and its stash keys `(src, comm_id, tag, queued)`.
type DiagSnapshot = (Vec<(ConsumerId, BlockedRecv)>, Vec<(usize, u64, u32, usize)>);

/// The rank's main-thread blocked descriptor, if any. The wait-for graph is
/// built over main threads only: a rank whose main thread still runs can
/// always make progress toward the send a peer waits on, while async bucket
/// workers reduce independently and are reported but not graphed.
fn main_blocked(entry: &DiagSnapshot) -> Option<&BlockedRecv> {
    entry.0.iter().find(|(c, _)| *c == ConsumerId::Main).map(|(_, b)| b)
}

/// Build (once) the cross-rank deadlock report: every blocked consumer's
/// receive descriptor and stash snapshot, the wait-for graph, and any cycle
/// in it.
pub(super) fn deadlock_report(shared: &Arc<ClusterShared>, me: usize) -> Arc<String> {
    let mut memo = shared.report.lock().expect("report memo");
    if let Some(r) = memo.as_ref() {
        return Arc::clone(r);
    }
    let snap: Vec<DiagSnapshot> = shared
        .diags
        .iter()
        .map(|m| {
            let d = m.lock().expect("diag slot");
            (d.blocked.clone(), d.stash_keys.clone())
        })
        .collect();

    let timeout = shared.recv_timeout;
    let mut out = format!(
        "deadlock suspected: rank {me} blocked in recv past the {timeout:?} watchdog timeout \
         (set via ClusterBuilder::recv_timeout or DCNN_RECV_TIMEOUT_MS)\n\
         blocked receives:\n"
    );
    for (rank, (blocked, stash)) in snap.iter().enumerate() {
        if blocked.is_empty() {
            if shared.cross_process {
                out.push_str(&format!(
                    "  rank {rank}: no visibility (remote process; re-run that rank with \
                     DCNN_TRACE=1 for its side)\n"
                ));
            } else {
                out.push_str(&format!("  rank {rank}: not blocked (running or finished)\n"));
            }
            continue;
        }
        let mut entries = blocked.clone();
        entries.sort_by_key(|&(c, _)| c);
        for (consumer, b) in &entries {
            let who = match (consumer, b.label.as_deref()) {
                (ConsumerId::Main, _) => format!("rank {rank}"),
                (ConsumerId::Bucket(k), Some(l)) => {
                    format!("rank {rank} [bucket {k}, sealed by {l}]")
                }
                (ConsumerId::Bucket(k), None) => format!("rank {rank} [bucket {k}]"),
            };
            let src = if b.any_source {
                format!("any of {:?}", b.sources)
            } else {
                format!("src {}", b.sources[0])
            };
            let waited = (shared.now_ns().saturating_sub(b.since_ns)) as f64 / 1e9;
            out.push_str(&format!(
                "  {who}: waiting on {src} (comm {:#x}, tag {}), blocked {waited:.1}s\n",
                b.comm_id, b.tag
            ));
        }
        if stash.is_empty() {
            out.push_str("          stash: empty\n");
        } else {
            out.push_str("          stash:");
            for &(s, cid, t, n) in stash {
                out.push_str(&format!(" (src {s}, comm {cid:#x}, tag {t}) x{n}"));
            }
            out.push('\n');
        }
    }

    // Wait-for graph: r -> s when blocked rank r can only be satisfied by a
    // send from s. Edges into non-blocked ranks cannot close a cycle.
    if let Some(cycle) = find_wait_cycle(&snap) {
        out.push_str("wait-for cycle: ");
        for r in &cycle {
            out.push_str(&format!("rank {r} -> "));
        }
        out.push_str(&format!(
            "rank {} (each rank waits on a send the next never posts)\n",
            cycle[0]
        ));
        out.push_str(
            "hint: ranks disagree on collective order or tags — compare each rank's \
             blocked (comm, tag) above, and re-run with DCNN_TRACE=1 for the full event log\n",
        );
    } else {
        let waiting_on_live: Vec<usize> = snap
            .iter()
            .enumerate()
            .filter_map(|(r, entry)| {
                main_blocked(entry)
                    .filter(|b| b.sources.iter().any(|&s| main_blocked(&snap[s]).is_none()))
                    .map(|_| r)
            })
            .collect();
        out.push_str(&format!(
            "no wait-for cycle: blocked ranks {waiting_on_live:?} wait on ranks that are not \
             blocked — the expected sender likely exited or never reached the matching send\n"
        ));
    }

    let report = Arc::new(out);
    *memo = Some(Arc::clone(&report));
    report
}

/// Find a cycle in the blocked-rank wait-for graph, as the rank sequence
/// around the cycle (each waits on the next; last waits on first).
fn find_wait_cycle(snap: &[DiagSnapshot]) -> Option<Vec<usize>> {
    let n = snap.len();
    // 0 = unvisited, 1 = on the current DFS path, 2 = done.
    let mut state = vec![0u8; n];
    let mut stack: Vec<usize> = Vec::new();

    fn dfs(
        r: usize,
        snap: &[DiagSnapshot],
        state: &mut [u8],
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        state[r] = 1;
        stack.push(r);
        if let Some(b) = main_blocked(&snap[r]) {
            // An any-source receive is stuck only if every possible sender
            // is; while one source still runs, draw no edges (it may send).
            let live_source = b.any_source
                && b.sources.iter().any(|&s| s != r && main_blocked(&snap[s]).is_none());
            for &s in &b.sources {
                if live_source || (b.any_source && s == r) {
                    continue; // a blocked rank cannot send to itself
                }
                if main_blocked(&snap[s]).is_none() {
                    continue; // a running rank can still satisfy the recv
                }
                match state[s] {
                    0 => {
                        if let Some(c) = dfs(s, snap, state, stack) {
                            return Some(c);
                        }
                    }
                    1 => {
                        let start = stack.iter().position(|&x| x == s).expect("on path");
                        return Some(stack[start..].to_vec());
                    }
                    _ => {}
                }
            }
        }
        stack.pop();
        state[r] = 2;
        None
    }

    (0..n).find_map(|r| {
        if state[r] == 0 {
            dfs(r, snap, &mut state, &mut stack)
        } else {
            None
        }
    })
}
