//! Runtime event tracing for deadlock diagnosis and perf forensics.
//!
//! When enabled (builder option [`crate::runtime::ClusterBuilder::trace`] or
//! the `DCNN_TRACE` environment variable), every rank records one
//! [`TraceEvent`] per point-to-point operation — sends, deliveries and
//! blocked-receive enter/exit — with monotonic timestamps taken
//! against the cluster's start instant. Recording appends to a plain
//! per-rank `Vec` on the rank's own thread, so the toggle costs one branch
//! per operation when off and no synchronization when on.
//!
//! The collected stream comes back in [`crate::runtime::ClusterRun::events`],
//! merged across ranks and sorted by time; [`render_trace`] formats it for
//! human reading when chasing an ordering bug, and [`write_trace_json`]
//! exports it as JSON lines (`DCNN_TRACE_JSON=path`) so traces from
//! separate rank processes can be concatenated and re-sorted offline.

use serde::Serialize;

/// What happened (one variant per traced runtime operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceEventKind {
    /// A message was handed to the transport for a peer (eager send —
    /// never waits for a matching receive).
    Send,
    /// A matching message was delivered to a receive call.
    Recv,
    /// A receive ran out of immediately available messages and blocked.
    BlockEnter,
    /// A blocked receive was satisfied and resumed.
    BlockExit,
    /// A nonblocking allreduce was handed to the comm worker (`tag` holds
    /// the launch sequence number, `comm_id` the derived bucket comm).
    AsyncLaunch,
    /// A nonblocking allreduce finished on the comm worker.
    AsyncDone,
    /// The link to `peer` died abnormally (no BYE): recorded by the receive
    /// the death dooms, as it fails with `CommError::PeerDead`.
    LinkDown,
}

impl TraceEventKind {
    /// Fixed-width tag for rendered traces.
    pub fn label(&self) -> &'static str {
        match self {
            TraceEventKind::Send => "send",
            TraceEventKind::Recv => "recv",
            TraceEventKind::BlockEnter => "block",
            TraceEventKind::BlockExit => "resume",
            TraceEventKind::AsyncLaunch => "launch",
            TraceEventKind::AsyncDone => "reduced",
            TraceEventKind::LinkDown => "linkdown",
        }
    }
}

/// One recorded runtime event.
#[derive(Debug, Clone, Serialize)]
pub struct TraceEvent {
    /// Nanoseconds since the cluster started (monotonic, comparable across
    /// ranks — all ranks share one epoch instant).
    pub t_ns: u64,
    /// Global rank that recorded the event.
    pub rank: usize,
    /// Operation kind.
    pub kind: TraceEventKind,
    /// Communicator the operation ran on (0 = world).
    pub comm_id: u64,
    /// MPI-style message tag.
    pub tag: u32,
    /// The peer global rank: destination for sends, source for receives.
    /// `None` for an any-source blocked receive.
    pub peer: Option<usize>,
    /// Payload size in bytes (0 for block enter/exit markers).
    pub bytes: usize,
}

impl TraceEvent {
    /// One-line rendering: `[  12.345ms] rank 1 send    -> 0  comm 0x0 tag 7  4096 B`.
    pub fn render(&self) -> String {
        let peer = match (self.kind, self.peer) {
            (TraceEventKind::Send, Some(p)) => format!("-> {p}"),
            (_, Some(p)) => format!("<- {p}"),
            (_, None) => "<- any".to_string(),
        };
        format!(
            "[{:>10.3}ms] rank {} {:<7} {:<7} comm {:#x} tag {} {} B",
            self.t_ns as f64 / 1e6,
            self.rank,
            self.kind.label(),
            peer,
            self.comm_id,
            self.tag,
            self.bytes
        )
    }
}

/// Render a merged event stream, one event per line in time order.
pub fn render_trace(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.render());
        out.push('\n');
    }
    out
}

/// Serialize `events` to `out` as JSON lines — one compact object per
/// event, in the order given. Multi-process runs write one file per rank
/// (`<path>.rank<N>`); concatenating the files and sorting on `t_ns`
/// reconstructs the merged timeline, which is why the format is
/// line-oriented rather than one big array.
pub fn trace_to_json_lines(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        e.json_write(&mut out);
        out.push('\n');
    }
    out
}

/// Write `events` to `path` as JSON lines (see [`trace_to_json_lines`]).
pub fn write_trace_json(path: &std::path::Path, events: &[TraceEvent]) -> std::io::Result<()> {
    std::fs::write(path, trace_to_json_lines(events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_mentions_ranks_tags_and_direction() {
        let e = TraceEvent {
            t_ns: 1_500_000,
            rank: 2,
            kind: TraceEventKind::Send,
            comm_id: 0,
            tag: 7,
            peer: Some(3),
            bytes: 4096,
        };
        let s = e.render();
        assert!(s.contains("rank 2"), "{s}");
        assert!(s.contains("-> 3"), "{s}");
        assert!(s.contains("tag 7"), "{s}");
        assert!(s.contains("4096 B"), "{s}");

        let b = TraceEvent { kind: TraceEventKind::BlockEnter, peer: None, ..e };
        assert!(b.render().contains("<- any"));
    }

    #[test]
    fn json_lines_round_trip_through_value_parser() {
        let events = vec![
            TraceEvent {
                t_ns: 42,
                rank: 1,
                kind: TraceEventKind::Send,
                comm_id: 3,
                tag: 7,
                peer: Some(0),
                bytes: 16,
            },
            TraceEvent {
                t_ns: 99,
                rank: 0,
                kind: TraceEventKind::BlockEnter,
                comm_id: 0,
                tag: 0,
                peer: None,
                bytes: 0,
            },
        ];
        let text = trace_to_json_lines(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v: serde_json::Value = serde_json::from_str(lines[0]).expect("line 0 parses");
        assert_eq!(v.get("t_ns").and_then(|x| x.as_u64()), Some(42));
        assert_eq!(v.get("kind").and_then(|x| x.as_str()), Some("Send"));
        assert_eq!(v.get("peer").and_then(|x| x.as_u64()), Some(0));
        let w: serde_json::Value = serde_json::from_str(lines[1]).expect("line 1 parses");
        assert!(matches!(w.get("peer"), Some(serde_json::Value::Null)));
    }
}
