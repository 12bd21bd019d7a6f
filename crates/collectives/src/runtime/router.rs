//! The receive side of a rank. Every blocking receive — `recv`, `recv_any`
//! and the runtime's internal ones — is one loop over the rank's
//! [`Mailbox`], which the transport delivers into on its own threads (the
//! sender's, or a connection reader's). The loop:
//!
//! 1. takes a matching message if one is queued;
//! 2. returns [`CommError::PeerDead`] if none is and every source that
//!    could still send is dead;
//! 3. advances the rank's parked cursors if anything arrived since they
//!    last could not move (MPI's progress rule: a rank blocked in one
//!    receive still carries its launched collectives);
//! 4. otherwise waits on the mailbox for one poll slice, publishing its
//!    blocked-receive descriptor and the parked cursors' to the watchdog
//!    after each slice and raising the watchdog's report at the receive
//!    timeout.
//!
//! A parked cursor takes its messages through the same loop, which returns
//! at step 3 instead. No receive moves another's message, so blocking
//! receives and cursors share the one mailbox.
//!
//! [`Mailbox`]: crate::transport::Mailbox

use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use super::launch::BucketId;
use super::watchdog::{deadlock_report, BlockedRecv};
use super::{Comm, CommError, PHASE_STACK};
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
    /// Receive matching `(any of sources, this communicator, tag)`: the
    /// rank's own, or with `cursor` — a launched bucket, the index of its
    /// receive step, its step count — that step's. Returns `(global_src,
    /// payload)`, `None` if nothing is queued and `block` is false, or the
    /// dead peer that means no message will ever match.
    pub(super) fn recv_from_sources(
        &self,
        sources: &[usize],
        any_source: bool,
        tag: u32,
        cursor: Option<(&BucketId, usize, usize)>,
        block: bool,
    ) -> Result<Option<(usize, Payload)>, CommError> {
        let local = &self.local;
        let timeout = local.shared.recv_timeout;
        // Wait in slices so blocked receives publish diagnostics long
        // before any rank's deadline expires; a receive whose message is
        // already queued never touches the registry.
        let poll = (timeout / 4).min(Duration::from_millis(100)).max(Duration::from_millis(1));
        let mailbox = local.transport.mailbox();
        let mut state = mailbox.lock();
        let mut wait_start: Option<Instant> = None;
        let mut published = 0;
        // The mailbox's event count when the parked cursors last could not
        // move.
        let mut settled = None;
        loop {
            if let Some((src, payload)) = take(&mut state, sources, self.comm_id, tag) {
                drop(state);
                self.end_wait(wait_start, published, tag);
                local.bytes_recvd.fetch_add(payload.len_bytes() as u64, Relaxed);
                local.msgs_recvd.fetch_add(1, Relaxed);
                local.trace(TraceEventKind::Recv, self.comm_id, tag, Some(src), payload.len_bytes());
                return Ok(Some((src, payload)));
            }
            // Nothing queued: if every source that could still satisfy this
            // receive is dead, no message will ever arrive — fail fast with a
            // structured error instead of waiting out the watchdog. (What a
            // peer sent before dying was queued, and checked above.)
            if let Some(peer) = doomed_by(&state.dead, sources, any_source, local.rank) {
                let cause = state.dead[&peer].clone();
                drop(state);
                self.end_wait(wait_start, published, tag);
                local.trace(TraceEventKind::LinkDown, self.comm_id, tag, Some(peer), 0);
                return Err(self.peer_dead(peer, cause, cursor.map(|c| c.0)));
            }
            if !block {
                return Ok(None);
            }
            // Something arrived since the parked cursors last moved: advance
            // them first (MPI's progress rule).
            if settled != Some(state.events()) {
                drop(state);
                settled = Some(local.progress());
                state = mailbox.lock();
                continue;
            }
            let waited = wait_start.get_or_insert_with(Instant::now).elapsed();
            if waited >= timeout {
                drop(state);
                let report = deadlock_report(&local.shared, local.rank);
                panic!("{report}");
            }
            if waited < poll * (published + 1) {
                state = mailbox.wait(state, poll);
                continue;
            }
            // After each slice waited, publish this receive and the parked
            // cursors' — outside the mailbox lock, which cursors take.
            let mut stash_keys: Vec<_> =
                state.queues.iter().map(|(&(src, cid, t), q)| (src, cid, t, q.len())).collect();
            drop(state);
            stash_keys.sort_unstable();
            let own = BlockedRecv {
                sources: sources.to_vec(),
                any_source,
                comm_id: self.comm_id,
                tag,
                since_ns: local.shared.now_ns().saturating_sub(waited.as_nanos() as u64),
                cursor: cursor.map(|(id, at, of)| (id.clone(), at, of)),
            };
            self.publish_blocked(own, stash_keys, published == 0);
            published += 1;
            state = mailbox.lock();
        }
    }

    /// The [`CommError::PeerDead`] a doomed receive returns, attributed with
    /// a launched bucket's number, label and algorithm, or else with the
    /// innermost phase the thread is in — the same descriptors the deadlock
    /// watchdog reports.
    fn peer_dead(&self, peer: usize, cause: String, bucket: Option<&BucketId>) -> CommError {
        let phase = PHASE_STACK.with(|s| Some(s.borrow().last()?.to_string()));
        CommError::PeerDead {
            rank: self.local.rank,
            peer,
            cause,
            phase: bucket.map_or(phase, |b| Some(b.phase.to_string())),
            bucket: bucket.map(|b| b.seq),
            label: bucket.and_then(|b| Some(b.label.as_deref()?.to_string())),
        }
    }

    /// Replace this rank's watchdog slot with `own` and the parked cursors'
    /// descriptors.
    fn publish_blocked(&self, own: BlockedRecv, stash_keys: Vec<(usize, u64, u32, usize)>, first: bool) {
        let local = &self.local;
        if first {
            local.recv_blocks.fetch_add(1, Relaxed);
            let peer = if own.any_source { None } else { own.sources.first().copied() };
            local.trace(TraceEventKind::BlockEnter, own.comm_id, own.tag, peer, 0);
        }
        let mut blocked = vec![own];
        blocked.extend(local.parked_blocked());
        let mut slot = local.shared.diags[local.rank].lock().expect("diag slot");
        slot.blocked = blocked;
        slot.stash_keys = stash_keys;
    }

    /// The receive is over: withdraw what it published and count the time
    /// it waited.
    fn end_wait(&self, wait_start: Option<Instant>, published: u32, tag: u32) {
        let local = &self.local;
        if published > 0 {
            let mut slot = local.shared.diags[local.rank].lock().expect("diag slot");
            slot.blocked.clear();
            slot.stash_keys.clear();
            drop(slot);
            local.trace(TraceEventKind::BlockExit, self.comm_id, tag, None, 0);
        }
        if let Some(t0) = wait_start {
            local.recv_wait_ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        }
    }
}
