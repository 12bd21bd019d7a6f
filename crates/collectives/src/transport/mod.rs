//! Pluggable point-to-point transports behind the rank runtime.
//!
//! The runtime in [`crate::runtime`] is written against one small trait,
//! [`Transport`]: an eager, tagged, rank-addressed message fabric whose
//! endpoints each own one [`Mailbox`]. A backend's only job on the receive
//! side is to deliver into the destination's mailbox; the runtime's
//! receives match against it and wait on it. Two backends implement it:
//!
//! * [`local::LocalTransport`] — the in-process backend: a send delivers
//!   into the destination rank's mailbox on the sending thread. Payloads
//!   travel as [`Payload`] values whose buffers are `Arc`-shared, so a
//!   same-process send moves a pointer, never the data (the zero-copy path
//!   RDMA would give between nodes).
//! * [`tcp::TcpTransport`] — real sockets: every rank is its own OS process
//!   (or thread) and messages cross a TCP wire as length-prefixed frames
//!   with a CRC-32 trailer. A rank-0 rendezvous bootstraps the full mesh
//!   (`DCNN_RENDEZVOUS`), connects retry with backoff, and each peer's
//!   reader thread delivers into the rank's mailbox.
//!
//! Collectives, the trainer and the examples are all written against
//! [`crate::runtime::Comm`] and run unchanged on either backend; select one
//! with [`crate::runtime::ClusterBuilder::transport`] or `DCNN_TRANSPORT`.
//!
//! ## The checksum
//!
//! [`crc`] owns CRC-32/IEEE for the whole repository — polynomial, tables,
//! the portable slicing-by-8 kernel, the x86_64 `PCLMULQDQ` folding kernel
//! and the one place that chooses between them, [`crc32_update`]. Its
//! functions are re-exported here, which is the path every caller uses
//! ([`wire`] for the frame trailer, `dcnn_dimd::crc` for blob records, the
//! launcher for its `crc=` fingerprints). Which kernel ran is not
//! observable in any checksum: both compute the same polynomial remainder,
//! so frames written by an x86_64 rank verify on any other target and vice
//! versa, and a binary from before the hardware kernel interoperates with
//! one from after it.

pub mod crc;
pub mod local;
pub mod pool;
pub mod tcp;
pub mod wire;

pub use crc::{
    crc32, crc32_bytewise, crc32_clmul_selected, crc32_f32, crc32_update, crc32_update_portable,
};
pub use pool::BufPool;

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Payload of a message. Buffers are `Arc`-shared so cloning a payload (a
/// broadcast fan-out, a same-process send) copies a pointer, not the data;
/// `f32` payloads stay typed end-to-end so the hot allreduce path never
/// serializes inside one process (the TCP backend frames them only at the
/// socket boundary).
#[derive(Debug, Clone)]
pub enum Payload {
    /// Raw bytes (index exchanges, control messages, image records).
    Bytes(Arc<Vec<u8>>),
    /// Gradient / parameter data.
    F32(Arc<Vec<f32>>),
}

impl Payload {
    /// Wrap a byte buffer.
    pub fn bytes(v: Vec<u8>) -> Self {
        Payload::Bytes(Arc::new(v))
    }

    /// Wrap an `f32` buffer.
    pub fn f32(v: Vec<f32>) -> Self {
        Payload::F32(Arc::new(v))
    }

    /// Wrap an already-shared `f32` buffer without copying it. The threaded
    /// backend delivers the very same allocation to the receiver.
    pub fn shared_f32(v: Arc<Vec<f32>>) -> Self {
        Payload::F32(v)
    }

    /// Borrow as bytes; panics if the payload is typed `f32`.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Payload::Bytes(b) => b,
            Payload::F32(_) => panic!("expected byte payload, got f32"),
        }
    }

    /// Borrow as `f32`s; panics if the payload is raw bytes.
    pub fn as_f32(&self) -> &[f32] {
        match self {
            Payload::F32(v) => v,
            Payload::Bytes(_) => panic!("expected f32 payload, got bytes"),
        }
    }

    /// Interpret as bytes; panics if the payload is typed `f32`. Takes the
    /// buffer without copying when this is the last reference (the common
    /// single-consumer case); clones only if other holders remain.
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            Payload::Bytes(b) => Arc::try_unwrap(b).unwrap_or_else(|a| (*a).clone()),
            Payload::F32(_) => panic!("expected byte payload, got f32"),
        }
    }

    /// Interpret as `f32`s; panics if the payload is raw bytes. Zero-copy
    /// when this is the last reference to the buffer.
    pub fn into_f32(self) -> Vec<f32> {
        match self {
            Payload::F32(v) => Arc::try_unwrap(v).unwrap_or_else(|a| (*a).clone()),
            Payload::Bytes(_) => panic!("expected f32 payload, got bytes"),
        }
    }

    /// The shared `f32` buffer itself; panics if the payload is raw bytes.
    /// Never copies — use this to observe that a same-process send delivered
    /// the sender's allocation.
    pub fn into_shared_f32(self) -> Arc<Vec<f32>> {
        match self {
            Payload::F32(v) => v,
            Payload::Bytes(_) => panic!("expected f32 payload, got bytes"),
        }
    }

    /// Size in bytes, for accounting.
    pub fn len_bytes(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::F32(v) => v.len() * 4,
        }
    }
}

/// One message on the fabric: source rank, communicator, tag, data.
#[derive(Debug, Clone)]
pub struct WireMsg {
    /// Global rank of the sender.
    pub src: usize,
    /// Communicator the message belongs to (0 = world).
    pub comm_id: u64,
    /// MPI-style tag.
    pub tag: u32,
    /// The data.
    pub payload: Payload,
}

/// One rank endpoint's receive side: every message delivered to the rank
/// waits here until a receive takes it, and every peer whose link died is
/// recorded here. Transports write into it from whichever thread a message
/// arrives on — the sender's for the local backend, a connection's reader
/// for TCP — and wake every waiting receive; the runtime's router
/// (`runtime/router.rs`) matches and waits under the same lock, so no
/// thread stands between an arrival and the receive it satisfies.
#[derive(Default)]
pub struct Mailbox {
    state: Mutex<MailboxState>,
    arrived: Condvar,
}

/// What a [`Mailbox`] holds under its lock.
#[derive(Default)]
pub(crate) struct MailboxState {
    /// Queued payloads per `(src, comm_id, tag)`, oldest first, each with
    /// its arrival number — per-sender FIFO within a key, and arrival order
    /// across keys for an any-source match.
    pub(crate) queues: HashMap<(usize, u64, u32), VecDeque<(u64, Payload)>>,
    /// Peers whose links died abnormally (torn socket, CRC corruption, a
    /// killed process — anything but a clean BYE), with the failure cause.
    /// Their messages queued before the failure stay deliverable.
    pub(crate) dead: HashMap<usize, String>,
    /// Messages queued right now, and the most ever queued at once.
    queued: u64,
    queued_hwm: u64,
    arrivals: u64,
}

impl MailboxState {
    /// Take the oldest payload queued under `key`.
    pub(crate) fn pop(&mut self, key: (usize, u64, u32)) -> Option<Payload> {
        let q = self.queues.get_mut(&key)?;
        let (_, payload) = q.pop_front()?;
        if q.is_empty() {
            self.queues.remove(&key);
        }
        self.queued -= 1;
        Some(payload)
    }
}

impl Mailbox {
    /// Queue `msg` for the receive that matches it and wake the waiters.
    pub fn deliver(&self, msg: WireMsg) {
        let mut s = self.lock();
        let seq = s.arrivals;
        s.arrivals += 1;
        s.queues.entry((msg.src, msg.comm_id, msg.tag)).or_default().push_back((seq, msg.payload));
        s.queued += 1;
        s.queued_hwm = s.queued_hwm.max(s.queued);
        drop(s);
        self.arrived.notify_all();
    }

    /// Record that the link to `peer` died (the first cause sticks) and
    /// wake the waiters, so a receive only `peer` could satisfy fails fast
    /// instead of waiting out the watchdog.
    pub fn link_down(&self, peer: usize, cause: String) {
        self.lock().dead.entry(peer).or_insert(cause);
        self.arrived.notify_all();
    }

    /// The most messages delivered but not yet received at once.
    pub(crate) fn high_water_mark(&self) -> u64 {
        self.lock().queued_hwm
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, MailboxState> {
        self.state.lock().expect("mailbox poisoned")
    }

    /// Release `state`, sleep until the next delivery or link death (or
    /// `timeout`), and take the lock back.
    pub(crate) fn wait<'a>(
        &self,
        state: MutexGuard<'a, MailboxState>,
        timeout: Duration,
    ) -> MutexGuard<'a, MailboxState> {
        self.arrived.wait_timeout(state, timeout).expect("mailbox poisoned").0
    }
}

/// An eager, tagged, rank-addressed message fabric — what the rank runtime
/// needs from MPI. A send never waits for a matching receive (TCP waits at
/// most for the peer's kernel to take the bytes); each endpoint's
/// [`Mailbox`] receives in per-sender FIFO order. One `Transport` instance
/// belongs to one rank, shared between the rank's main thread and its comm
/// workers (hence `Send + Sync`).
pub trait Transport: Send + Sync {
    /// This endpoint's global rank.
    fn rank(&self) -> usize;

    /// Number of ranks on the fabric.
    fn world_size(&self) -> usize;

    /// Backend name for diagnostics ("threads", "tcp").
    fn backend(&self) -> &'static str;

    /// Send `msg` to global rank `dst`. Must not wait for a matching
    /// receive.
    fn send(&self, dst: usize, msg: WireMsg);

    /// The mailbox this endpoint's receives wait on: the backend delivers
    /// every inbound message into it ([`Mailbox::deliver`]) and records
    /// every abnormal link death there ([`Mailbox::link_down`]).
    fn mailbox(&self) -> &Mailbox;

    /// The [`BufPool`] this endpoint's `f32` messages cycle through: sends
    /// copy into its buffers, and a consumer done with a received payload
    /// returns the buffer to it.
    fn pool(&self) -> &BufPool;

    /// Tear the fabric down. Called once, after the rank's work has
    /// returned; must leave already-sent data deliverable to peers still
    /// receiving.
    fn shutdown(&self);
}

/// Which [`Transport`] backend a cluster run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process rank threads delivering into each other's mailboxes (the
    /// default).
    Threads,
    /// Real TCP sockets between ranks (threads or separate processes).
    Tcp,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Wait up to `timeout` for `ready` to find something in `mb`.
    fn wait_for<T>(
        mb: &Mailbox,
        timeout: Duration,
        mut ready: impl FnMut(&mut MailboxState) -> Option<T>,
    ) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut s = mb.lock();
        loop {
            if let Some(v) = ready(&mut s) {
                return Some(v);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            s = mb.wait(s, left);
        }
    }

    /// The earliest-arrived message in `mb`, waiting up to `timeout` for one.
    pub(crate) fn next_arrival(mb: &Mailbox, timeout: Duration) -> Option<WireMsg> {
        wait_for(mb, timeout, |s| {
            let (_, key) = s.queues.iter().filter_map(|(&k, q)| Some((q.front()?.0, k))).min()?;
            let payload = s.pop(key)?;
            Some(WireMsg { src: key.0, comm_id: key.1, tag: key.2, payload })
        })
    }

    /// The cause recorded for the death of `peer`'s link, waiting up to
    /// `timeout` for one.
    pub(crate) fn link_down_cause(mb: &Mailbox, peer: usize, timeout: Duration) -> Option<String> {
        wait_for(mb, timeout, |s| s.dead.get(&peer).cloned())
    }

    #[test]
    fn mailbox_counts_what_waits_and_keeps_arrival_order_across_keys() {
        let mb = Mailbox::default();
        for (src, tag) in [(2, 1), (1, 1), (2, 1), (1, 3)] {
            mb.deliver(WireMsg { src, comm_id: 0, tag, payload: Payload::bytes(vec![src as u8]) });
        }
        let order: Vec<(usize, u32)> = (0..4)
            .map(|_| next_arrival(&mb, Duration::ZERO).map(|m| (m.src, m.tag)).expect("queued"))
            .collect();
        assert_eq!(order, [(2, 1), (1, 1), (2, 1), (1, 3)]);
        assert!(next_arrival(&mb, Duration::from_millis(5)).is_none());
        assert_eq!(mb.high_water_mark(), 4);
        mb.link_down(1, "first".into());
        mb.link_down(1, "second".into());
        assert_eq!(link_down_cause(&mb, 1, Duration::ZERO).as_deref(), Some("first"));
    }

    #[test]
    fn payload_into_bytes_is_zero_copy_when_unique() {
        let v = vec![1u8, 2, 3];
        let ptr = v.as_ptr() as usize;
        let p = Payload::bytes(v);
        let back = p.into_bytes();
        assert_eq!(back.as_ptr() as usize, ptr, "unique payload should not copy");
    }

    #[test]
    fn payload_clone_shares_the_buffer() {
        let p = Payload::f32(vec![1.0, 2.0]);
        let q = p.clone();
        let (a, b) = match (&p, &q) {
            (Payload::F32(a), Payload::F32(b)) => (Arc::as_ptr(a), Arc::as_ptr(b)),
            _ => unreachable!(),
        };
        assert_eq!(a, b);
        // Unwrapping while a clone lives must fall back to a copy.
        let v = p.into_f32();
        assert_eq!(v, vec![1.0, 2.0]);
        assert_eq!(q.as_f32(), &[1.0, 2.0]);
    }

    #[test]
    fn payload_len_bytes() {
        assert_eq!(Payload::bytes(vec![0; 7]).len_bytes(), 7);
        assert_eq!(Payload::f32(vec![0.0; 7]).len_bytes(), 28);
    }
}
