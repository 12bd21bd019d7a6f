//! Pluggable point-to-point transports behind the rank runtime.
//!
//! The runtime in [`crate::runtime`] is written against one small trait,
//! [`Transport`]: an eager, tagged, rank-addressed message fabric. Two
//! backends implement it:
//!
//! * [`local::LocalTransport`] — the in-process backend: one `mpsc` inbox
//!   per rank thread. Payloads travel as [`Payload`] values whose buffers
//!   are `Arc`-shared, so a same-process send moves a pointer, never the
//!   data (the zero-copy path RDMA would give between nodes).
//! * [`tcp::TcpTransport`] — real sockets: every rank is its own OS process
//!   (or thread) and messages cross a TCP wire as length-prefixed frames
//!   with a CRC-32 trailer. A rank-0 rendezvous bootstraps the full mesh
//!   (`DCNN_RENDEZVOUS`), connects retry with backoff, and per-peer
//!   send/recv threads feed the same single-inbox receive path the local
//!   backend uses.
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

use std::sync::Arc;
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

/// Outcome of a bounded wait for the next inbound message.
#[derive(Debug)]
pub enum RecvPoll {
    /// A message arrived.
    Msg(WireMsg),
    /// Nothing arrived within the timeout.
    TimedOut,
    /// The link to `peer` died abnormally (torn socket, CRC corruption, a
    /// killed process — anything but a clean BYE). Messages from `peer`
    /// received before the failure remain deliverable; nothing further will
    /// arrive from it. Delivered in-band so a blocked receive fails fast
    /// instead of waiting for a watchdog timeout.
    LinkDown {
        /// Global rank whose link failed.
        peer: usize,
        /// Human-readable failure cause (the underlying I/O error).
        cause: String,
    },
    /// The fabric is gone (every peer hung up); no message can ever arrive.
    Closed,
}

/// An eager, tagged, rank-addressed message fabric — what the rank runtime
/// needs from MPI. Sends never block (buffering happens behind the trait);
/// receives deliver in per-sender FIFO order. One `Transport` instance
/// belongs to one rank, shared between the rank's main thread and its comm
/// worker (hence `Send + Sync`); the runtime's receive router guarantees at
/// most one thread polls `recv_timeout` at a time.
pub trait Transport: Send + Sync {
    /// This endpoint's global rank.
    fn rank(&self) -> usize;

    /// Number of ranks on the fabric.
    fn world_size(&self) -> usize;

    /// Backend name for diagnostics ("threads", "tcp").
    fn backend(&self) -> &'static str;

    /// Send `msg` to global rank `dst`. Must not block on the receiver.
    fn send(&self, dst: usize, msg: WireMsg);

    /// Wait up to `timeout` for the next inbound message (any source).
    fn recv_timeout(&self, timeout: Duration) -> RecvPoll;

    /// The [`BufPool`] this endpoint's `f32` messages cycle through: sends
    /// copy into its buffers, and a consumer done with a received payload
    /// returns the buffer to it.
    fn pool(&self) -> &BufPool;

    /// Flush queued sends and tear the fabric down. Called once, after the
    /// rank's work has returned; must leave already-sent data deliverable
    /// to peers still receiving.
    fn shutdown(&self);
}

/// Which [`Transport`] backend a cluster run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process rank threads over `mpsc` channels (the default).
    Threads,
    /// Real TCP sockets between ranks (threads or separate processes).
    Tcp,
}

#[cfg(test)]
mod tests {
    use super::*;

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
