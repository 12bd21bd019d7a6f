//! The receive side of a rank. Every receive — `recv`, `recv_any`, the
//! runtime's internal ones and those of every async bucket — is one loop
//! over the rank's [`Mailbox`], which the transport delivers into on its
//! own threads (the sender's, or a connection reader's). The loop:
//!
//! 1. takes a matching message if one is queued;
//! 2. fails with [`CommError::PeerDead`] if none is and every source that
//!    could still send is dead;
//! 3. otherwise waits on the mailbox for one poll slice, publishing its
//!    blocked-receive descriptor to the watchdog after the first slice and
//!    raising the watchdog's report at the receive timeout.
//!
//! A receive never moves another consumer's message, so the rank's main
//! thread and its comm workers wait on the same mailbox side by side.
//!
//! [`Mailbox`]: crate::transport::Mailbox

use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use super::watchdog::{deadlock_report, BlockedRecv};
use super::{current_phase, install_comm_error_hook, Comm, CommError, ConsumerId};
use crate::trace::TraceEventKind;
use crate::transport::{MailboxState, Payload};

/// Take the earliest-arrived message queued under `(any of sources,
/// comm_id, tag)`: per-sender FIFO within a source, and the first arrival
/// across sources for an any-source receive (`MPI_ANY_SOURCE`).
fn take(
    state: &mut MailboxState,
    sources: &[usize],
    comm_id: u64,
    tag: u32,
) -> Option<(usize, Payload)> {
    let (_, src) = sources
        .iter()
        .filter_map(|&s| Some((state.queues.get(&(s, comm_id, tag))?.front()?.0, s)))
        .min()?;
    Some((src, state.pop((src, comm_id, tag))?))
}

/// The dead peer that dooms a receive on rank `me` from `sources`, if any:
/// a plain receive once its source is dead, an any-source one once every
/// source but `me` is (self-sends bypass the wire).
fn doomed_by(
    dead: &HashMap<usize, String>,
    sources: &[usize],
    any_source: bool,
    me: usize,
) -> Option<usize> {
    let mut others = sources.iter().filter(|&&s| s != me);
    let first = *others.clone().next()?;
    let doomed =
        if any_source { others.all(|s| dead.contains_key(s)) } else { dead.contains_key(&first) };
    doomed.then_some(first)
}

impl Comm {
    /// Blocking receive matching `(any of sources, this communicator, tag)`
    /// on behalf of this handle's consumer. Returns `(global_src, payload)`.
    pub(super) fn recv_from_sources(
        &self,
        sources: &[usize],
        any_source: bool,
        tag: u32,
    ) -> (usize, Payload) {
        let local = &self.local;
        let timeout = local.shared.recv_timeout;
        // Wait in slices so blocked consumers publish diagnostics long
        // before any rank's deadline expires; a receive whose message is
        // already queued never touches the registry.
        let poll = (timeout / 4).min(Duration::from_millis(100)).max(Duration::from_millis(1));
        let mailbox = local.transport.mailbox();
        let mut state = mailbox.lock();
        let mut wait_start: Option<Instant> = None;
        let mut published = false;
        loop {
            if let Some((src, payload)) = take(&mut state, sources, self.comm_id, tag) {
                drop(state);
                if published {
                    self.unpublish_blocked(tag);
                }
                if let Some(t0) = wait_start {
                    local.recv_wait_ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
                }
                local.bytes_recvd.fetch_add(payload.len_bytes() as u64, Relaxed);
                local.msgs_recvd.fetch_add(1, Relaxed);
                local.trace(TraceEventKind::Recv, self.comm_id, tag, Some(src), payload.len_bytes());
                return (src, payload);
            }
            // Nothing queued: if every source that could still satisfy this
            // receive is dead, no message will ever arrive — fail fast with a
            // structured error instead of waiting out the watchdog. (What a
            // peer sent before dying was queued, and checked above.)
            if let Some(peer) = doomed_by(&state.dead, sources, any_source, local.rank) {
                let cause = state.dead[&peer].clone();
                // Release the lock before unwinding so sibling consumers see
                // an unpoisoned mailbox.
                drop(state);
                local.trace(TraceEventKind::LinkDown, self.comm_id, tag, Some(peer), 0);
                self.fail_peer_dead(peer, cause);
            }
            let waited = wait_start.get_or_insert_with(Instant::now).elapsed();
            if !published && waited >= poll {
                self.publish_blocked(&state, sources, any_source, tag);
                published = true;
            }
            if waited >= timeout {
                drop(state);
                let report = deadlock_report(&local.shared, local.rank);
                panic!("{report}");
            }
            state = mailbox.wait(state, poll);
        }
    }

    /// Abort a doomed receive with a structured [`CommError::PeerDead`]
    /// panic payload, attributed with the thread's current algorithm phase
    /// and (for bucket consumers) the bucket number and sealing segment —
    /// the same descriptors the deadlock watchdog reports.
    fn fail_peer_dead(&self, peer: usize, cause: String) -> ! {
        let (bucket, seg) = match self.consumer {
            ConsumerId::Main => (None, None),
            ConsumerId::Bucket(k) => (Some(k), self.label.as_ref().map(|l| l.to_string())),
        };
        let err = CommError::PeerDead {
            rank: self.local.rank,
            peer,
            cause,
            phase: current_phase(),
            bucket,
            label: seg,
        };
        install_comm_error_hook();
        std::panic::panic_any(err);
    }

    fn publish_blocked(&self, state: &MailboxState, sources: &[usize], any_source: bool, tag: u32) {
        let shared = &self.local.shared;
        self.local.recv_blocks.fetch_add(1, Relaxed);
        self.local.trace(
            TraceEventKind::BlockEnter,
            self.comm_id,
            tag,
            if any_source { None } else { sources.first().copied() },
            0,
        );
        let desc = BlockedRecv {
            sources: sources.to_vec(),
            any_source,
            comm_id: self.comm_id,
            tag,
            since_ns: shared.now_ns(),
            label: self.label.clone(),
        };
        let mut slot = shared.diags[self.local.rank].lock().expect("diag slot");
        if let Some(e) = slot.blocked.iter_mut().find(|(c, _)| *c == self.consumer) {
            e.1 = desc;
        } else {
            slot.blocked.push((self.consumer, desc));
        }
        slot.stash_keys = state
            .queues
            .iter()
            .map(|(&(src, cid, t), q)| (src, cid, t, q.len()))
            .collect();
        slot.stash_keys.sort_unstable();
    }

    fn unpublish_blocked(&self, tag: u32) {
        let mut slot = self.local.shared.diags[self.local.rank].lock().expect("diag slot");
        slot.blocked.retain(|(c, _)| *c != self.consumer);
        if slot.blocked.is_empty() {
            slot.stash_keys.clear();
        }
        drop(slot);
        self.local.trace(TraceEventKind::BlockExit, self.comm_id, tag, None, 0);
    }
}
