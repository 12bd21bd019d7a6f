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

pub mod local;
pub mod tcp;
pub mod wire;

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

    /// Wrap an already-shared byte buffer without copying it.
    pub fn shared_bytes(v: Arc<Vec<u8>>) -> Self {
        Payload::Bytes(v)
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

/// Reflected polynomial of CRC-32/IEEE.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC_TABLES[k]` advances a byte that sits `k` positions further
/// ahead in the stream, so eight table reads retire eight input bytes with
/// one XOR tree instead of an eight-deep dependent chain.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            t[k][i] = t[0][(t[k - 1][i] & 0xFF) as usize] ^ (t[k - 1][i] >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// Lookup tables computed at compile time (8 × 256 × 4 B = 8 KiB).
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Advance a *raw* (pre-/post-inversion handled by the caller) CRC-32 state
/// over `data` with slicing-by-8. Streaming callers seed with
/// `0xFFFF_FFFF`, fold in chunks as they arrive, and invert once at the
/// end — exactly what the frame writer does around its scattered
/// header/payload/trailer pieces.
pub fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE 802.3) of `data`, from scratch (slicing-by-8). Guards every
/// TCP frame (trailer) and every DIMD blob record — `dcnn_dimd::crc`
/// re-exports this single implementation (the dependency points dimd →
/// collectives, so the shared code lives here).
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// The pre-slicing byte-at-a-time table walk, kept as the reference the
/// equivalence tests (and the perf baseline) compare the sliced kernel
/// against.
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b""), 0);
    }

    #[test]
    fn sliced_crc_matches_bytewise_on_random_inputs() {
        // Deterministic xorshift stream; lengths sweep every alignment
        // class around the 8-byte slicing width plus larger buffers.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut byte = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        };
        for len in (0..64).chain([255, 256, 257, 1 << 12, (1 << 16) + 3]) {
            let data: Vec<u8> = (0..len).map(|_| byte()).collect();
            assert_eq!(crc32(&data), crc32_bytewise(&data), "len {len}");
        }
    }

    #[test]
    fn sliced_crc_matches_bytewise_on_adversarial_inputs() {
        // Patterns that break table-mixing bugs: all-zero, all-ones, each
        // single-bit flip near slice boundaries, and runs of the polynomial
        // bytes themselves.
        for data in [vec![0u8; 1024], vec![0xFF; 1024], vec![0xA5; 7], vec![0x5A; 9]] {
            assert_eq!(crc32(&data), crc32_bytewise(&data));
        }
        let base = vec![0u8; 40];
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut d = base.clone();
                d[byte] ^= 1 << bit;
                assert_eq!(crc32(&d), crc32_bytewise(&d), "flip {byte}:{bit}");
            }
        }
        let poly: Vec<u8> = CRC_POLY.to_le_bytes().iter().copied().cycle().take(123).collect();
        assert_eq!(crc32(&poly), crc32_bytewise(&poly));
    }

    #[test]
    fn streaming_update_is_split_invariant() {
        let data: Vec<u8> = (0u32..300).map(|i| (i * 31 % 251) as u8).collect();
        let whole = !crc32_update(0xFFFF_FFFF, &data);
        for split in [0, 1, 7, 8, 9, 128, 299, 300] {
            let (a, b) = data.split_at(split);
            let st = crc32_update(0xFFFF_FFFF, a);
            assert_eq!(!crc32_update(st, b), whole, "split {split}");
        }
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
