//! The TCP backend: ranks as separate OS processes (or threads) talking
//! over real sockets.
//!
//! ## Wire format
//!
//! Every message is one length-prefixed frame with a CRC-32 trailer; the
//! format itself (and its copy-free encode/decode) lives in
//! [`crate::transport::wire`]. The checksum is
//! [`crate::transport::crc32_update`], the same implementation
//! `dcnn_dimd::crc` re-exports: on x86_64 with `PCLMULQDQ` a frame body is
//! checksummed at memory speed (~25 GiB/s against ~1.5 for the portable
//! table kernel), which is what keeps the senders and readers of a
//! 6 MiB-per-step gradient exchange from spending more CPU on the trailer
//! than on the socket. Either kernel puts the same four bytes on the wire
//! ([`crate::transport::crc`]), so ranks on different CPUs interoperate.
//!
//! ## Bootstrap
//!
//! Rank 0 listens on the rendezvous address (the `DCNN_RENDEZVOUS`
//! environment variable, e.g. `127.0.0.1:47555`). Every rank binds an
//! ephemeral data listener, registers `(rank, data_addr)` with rank 0
//! (connect retries with exponential backoff — processes start at different
//! times), and receives the full address table back. The mesh is then built
//! deterministically: rank *r* dials every rank below it and accepts from
//! every rank above it, each connection starting with a HELLO frame naming
//! the dialer's rank.
//!
//! Every step is bounded by the timeout. Each retry — a dial, and a
//! registration or mesh HELLO whose connection tore — runs one backoff loop
//! ([`with_backoff`]), shared with the data plane's blob-server dial; both
//! accept phases run one polling loop ([`accept_until`]) that fails naming
//! the ranks that never arrived.
//!
//! ## Data plane
//!
//! Each established connection gets a reader thread (parses frames, checks
//! the CRC, delivers each [`WireMsg`] into the rank's [`Mailbox`], where the
//! waiting receive takes it — the same mailbox the threaded backend's
//! senders deliver into). [`Transport::send`] writes its frame on the
//! calling thread under the link's lock, head, payload and CRC trailer in
//! one vectored write ([`wire::write_frames_vectored`]). It waits for the
//! peer's kernel to take the bytes, never for a matching receive, so it
//! cannot deadlock: every reader drains its socket whatever receives are
//! posted.
//!
//! `f32` buffers cycle through the endpoint's [`BufPool`]: a send returns
//! its payload once written, the reader takes the buffer it reads the next
//! `f32` body into, and the rank returns a received payload once it has
//! summed or copied it.
//!
//! ## Failure semantics
//!
//! A connection that ends **without** a BYE frame is an abnormal death: a
//! SIGKILLed peer's kernel closes the socket, a torn link resets it, a
//! corrupted frame fails its CRC. In every such case the reader thread, or
//! the send whose write failed, records the death in the mailbox the data
//! frames land in ([`Mailbox::link_down`]), so a receive blocked on that
//! peer fails fast — no timeout required. Messages that arrived before the
//! failure stay deliverable (per-sender FIFO holds right up to the cut). A
//! write that makes no progress for the constructors' timeout fails too, so
//! a peer that stops reading cannot hang a sender; a failed write shuts the
//! socket down and later sends to that peer are dropped. Only
//! [`Transport::shutdown`] sends BYE, which is what lets bare EOF be
//! treated as a peer death rather than a graceful close.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::wire::{self, encode_bye, read_frame_with, FrameRead, FRAME_MAGIC};
use super::{BufPool, Mailbox, Transport, WireMsg};

/// How long [`accept_until`] sleeps between polls of its listener. Picked
/// by measurement: a two-rank loopback bootstrap takes ~0.6 ms at 200 µs,
/// ~2.2 ms at 1 ms and ~10 ms at 5 ms (2-core x86_64), while waiting out a
/// missing rank costs only ~5 000 wake-ups a second.
const ACCEPT_POLL: Duration = Duration::from_micros(200);

/// One rank's endpoint on the TCP fabric. See the module docs for the
/// protocol; from the runtime's point of view this behaves exactly like
/// [`crate::transport::local::LocalTransport`].
pub struct TcpTransport {
    rank: usize,
    world: usize,
    /// Where every reader thread and every self-send (no socket, no
    /// serialization) delivers, and every link death is recorded.
    mailbox: Arc<Mailbox>,
    /// The socket to each peer, indexed by global rank: `None` at `rank`,
    /// and once the link's write failed or the endpoint tore down. A send
    /// writes its frame under the lock, so frames never interleave.
    links: Vec<Mutex<Option<TcpStream>>>,
    /// The reader threads, joined on shutdown.
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// The endpoint's `f32` buffers, shared with its reader threads.
    pool: Arc<BufPool>,
    /// How long a write may make no progress before it counts as failed:
    /// the constructors' timeout.
    write_timeout: Duration,
}

/// Run `attempt` until it succeeds, fails with an error `retry` declines, or
/// `timeout` elapses, sleeping with exponential backoff in between. Each
/// attempt is handed the budget left. The bootstrap's one retry loop: a
/// dial retries any error, a handshake only a torn connection.
fn with_backoff<T>(
    timeout: Duration,
    retry: impl Fn(&io::Error) -> bool,
    mut attempt: impl FnMut(Duration) -> io::Result<T>,
) -> io::Result<T> {
    let deadline = Instant::now() + timeout;
    let mut delay = Duration::from_millis(5);
    loop {
        let err = match attempt(deadline.saturating_duration_since(Instant::now())) {
            Ok(v) => return Ok(v),
            Err(e) => e,
        };
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || !retry(&err) {
            return Err(err);
        }
        // Clamp the sleep to the remaining budget: the last allowed attempt
        // must actually happen, not be forfeited because a full backoff
        // step would overshoot the deadline.
        std::thread::sleep(delay.min(left));
        delay = (delay * 2).min(Duration::from_millis(200));
    }
}

/// Dial `addr`, retrying with exponential backoff until `timeout` elapses.
/// Needed because peer processes (and rank 0's rendezvous listener, and a
/// data server) come up at different times.
pub fn connect_with_backoff(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    with_backoff(timeout, |_| true, |_| TcpStream::connect(addr)).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("connect to {addr} failed after {timeout:?} of retries: {e}"),
        )
    })
}

fn write_len_prefixed(w: &mut impl Write, data: &[u8]) -> io::Result<()> {
    let len: u16 = data.len().try_into().map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "length-prefixed blob is {} bytes; the u16 length prefix caps it at {} — \
                 refusing to truncate",
                data.len(),
                u16::MAX
            ),
        )
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(data)
}

fn read_len_prefixed(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 2];
    r.read_exact(&mut len)?;
    let mut buf = vec![0u8; u16::from_le_bytes(len) as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Accept one connection on `listener`, polling it until `deadline`. On
/// timeout, fail with `TimedOut` and `missing()`'s account of who never
/// connected. The bootstrap's one accept loop: the rendezvous host waits
/// for registrations through it, every rank for its mesh dialers.
fn accept_until(
    listener: &TcpListener,
    deadline: Instant,
    missing: impl Fn() -> String,
) -> io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false)?;
                return Ok(s);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, missing()));
                }
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) => return Err(e),
        }
    }
}

/// The comma-separated ranks from `first` on whose slot is still empty.
fn empty_slots<T>(slots: &[Option<T>], first: usize) -> String {
    let ranks: Vec<String> =
        (first..slots.len()).filter(|&r| slots[r].is_none()).map(|r| r.to_string()).collect();
    ranks.join(", ")
}

/// Rank 0's side of the rendezvous: accept `n-1` registrations of
/// `(rank, data_addr)` within `timeout`, then send everyone the full table.
///
/// The accept loop is bounded: if some rank never starts (a crashed
/// launcher child, a typoed world size), the host fails after `timeout`
/// with an error **listing the ranks that never registered** instead of
/// blocking every process in the job forever. A rank that re-registers
/// (its first registration connection tore mid-handshake and it retried
/// with backoff) replaces its earlier entry — last registration wins.
fn rendezvous_host(
    listener: &TcpListener,
    n: usize,
    my_data_addr: &str,
    timeout: Duration,
) -> io::Result<Vec<String>> {
    let deadline = Instant::now() + timeout;
    let mut table: Vec<Option<String>> = vec![None; n];
    table[0] = Some(my_data_addr.to_string());
    let mut regs: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
    while table.iter().any(|t| t.is_none()) {
        let mut s = accept_until(listener, deadline, || {
            format!(
                "rendezvous timed out after {timeout:?}: rank(s) {} never registered (world {n})",
                empty_slots(&table, 1)
            )
        })?;
        let from = peer_addr_of(&s);
        let mut rank_buf = [0u8; 4];
        s.read_exact(&mut rank_buf)?;
        let r = u32::from_le_bytes(rank_buf) as usize;
        if r == 0 || r >= n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("rendezvous registration from {from} announced out-of-range rank {r} (world {n})"),
            ));
        }
        let addr = String::from_utf8(read_len_prefixed(&mut s)?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        // A re-registration is legitimate only when the first attempt's
        // connection tore (the peer's bounded-retry loop re-dials); a
        // second *live* claimant for the same rank is a conflict that must
        // fail bootstrap loudly, not silently replace the table entry.
        if let Some(old) = &regs[r] {
            if peer_alive(old) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "duplicate rendezvous registration for rank {r} from {from}: \
                         rank {r} is already registered by a live peer at {}",
                        peer_addr_of(old)
                    ),
                ));
            }
        }
        table[r] = Some(addr);
        regs[r] = Some(s);
    }
    let full: Vec<String> = table.into_iter().map(|t| t.expect("filled")).collect();
    for s in regs.iter_mut().flatten() {
        s.write_all(&(n as u32).to_le_bytes())?;
        for a in &full {
            write_len_prefixed(s, a.as_bytes())?;
        }
        s.flush()?;
    }
    Ok(full)
}

/// Whether a bootstrap-time I/O failure is a torn connection worth
/// re-dialing (as opposed to a protocol violation, which never heals).
fn is_torn(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionRefused
    )
}

/// Whether the remote end of an established bootstrap socket is still
/// alive, probed with a nonblocking peek: `WouldBlock` (link open, nothing
/// queued) or buffered data mean alive; an orderly EOF or a reset-class
/// error means the peer is gone. Used to tell a *legitimate* duplicate
/// HELLO (the first attempt tore after its bytes left the socket, the
/// retry supersedes the husk) from a *conflicting* one (two live peers
/// both claiming the same rank — misconfiguration or spoofing, which must
/// be a structured bootstrap error, never silent misrouting). The socket
/// is restored to blocking mode before returning.
fn peer_alive(s: &TcpStream) -> bool {
    if s.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let alive = match s.peek(&mut probe) {
        Ok(0) => false,
        Ok(_) => true,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => true,
        Err(e) => !is_torn(&e),
    };
    let _ = s.set_nonblocking(false);
    alive
}

/// Best-effort peer address for bootstrap error messages.
fn peer_addr_of(s: &TcpStream) -> String {
    s.peer_addr().map_or_else(|_| "<unknown peer>".to_string(), |a| a.to_string())
}

/// A non-zero rank's side of the rendezvous: register and read the table
/// back, re-dialing a registration connection that tears mid-handshake
/// (rank 0 restarting, a flaky first SYN) until `timeout` elapses.
fn rendezvous_register(
    addr: &str,
    rank: usize,
    n: usize,
    my_data_addr: &str,
    timeout: Duration,
) -> io::Result<Vec<String>> {
    with_backoff(timeout, is_torn, |left| {
        let mut s = connect_with_backoff(addr, left)?;
        s.write_all(&(rank as u32).to_le_bytes())?;
        write_len_prefixed(&mut s, my_data_addr.as_bytes())?;
        s.flush()?;
        let mut n_buf = [0u8; 4];
        s.read_exact(&mut n_buf)?;
        let got_n = u32::from_le_bytes(n_buf) as usize;
        if got_n != n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("rendezvous world size mismatch: host says {got_n}, we say {n}"),
            ));
        }
        (0..n)
            .map(|_| {
                String::from_utf8(read_len_prefixed(&mut s)?)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            })
            .collect()
    })
    .map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("rank {rank}: rendezvous registration with {addr} failed: {e}"),
        )
    })
}

/// Dial a mesh peer and complete the HELLO handshake, retrying torn
/// connections with backoff until `timeout` elapses.
fn mesh_dial(addr: &str, my_rank: usize, timeout: Duration) -> io::Result<TcpStream> {
    with_backoff(timeout, is_torn, |left| {
        let mut s = connect_with_backoff(addr, left)?;
        s.write_all(&FRAME_MAGIC)?;
        s.write_all(&(my_rank as u32).to_le_bytes())?;
        s.flush()?;
        Ok(s)
    })
    .map_err(|e| {
        io::Error::new(e.kind(), format!("rank {my_rank}: mesh dial of {addr} failed: {e}"))
    })
}

impl TcpTransport {
    /// Establish the fabric as rank 0, hosting the rendezvous on an
    /// already-bound `listener` (bind it yourself to pick the port, or use
    /// [`TcpTransport::establish`] to bind from an address string). Every
    /// dial and the registration accept loop give up after `timeout`.
    pub fn host(listener: TcpListener, world: usize, timeout: Duration) -> io::Result<Self> {
        Self::build(0, world, RendezvousRole::Host(listener), timeout)
    }

    /// Establish the fabric as a non-zero rank, registering with the
    /// rendezvous at `addr`.
    pub fn connect(addr: &str, rank: usize, world: usize, timeout: Duration) -> io::Result<Self> {
        assert!(rank > 0 && rank < world, "rank {rank} out of range for world {world}");
        Self::build(rank, world, RendezvousRole::Peer(addr.to_string()), timeout)
    }

    /// Establish the fabric from `(rank, world, rendezvous)`: rank 0 binds
    /// and hosts `rendezvous`, everyone else dials it. This is the entry the
    /// multi-process runtime uses with `DCNN_RANK` / `DCNN_WORLD` /
    /// `DCNN_RENDEZVOUS`.
    pub fn establish(rank: usize, world: usize, rendezvous: &str, timeout: Duration) -> io::Result<Self> {
        if rank == 0 {
            let listener = TcpListener::bind(rendezvous)?;
            Self::host(listener, world, timeout)
        } else {
            Self::connect(rendezvous, rank, world, timeout)
        }
    }

    fn build(rank: usize, world: usize, role: RendezvousRole, timeout: Duration) -> io::Result<Self> {
        assert!(world >= 1, "world needs at least one rank");
        let mailbox = Arc::new(Mailbox::default());
        let mut links: Vec<_> = (0..world).map(|_| Mutex::new(None)).collect();
        let mut readers = Vec::new();
        let pool = Arc::new(BufPool::default());
        // The socket option refuses a zero timeout.
        let write_timeout = timeout.max(Duration::from_millis(1));

        if world > 1 {
            // Every rank accepts mesh connections on its own ephemeral
            // data listener; the rendezvous only trades addresses.
            let data_listener = TcpListener::bind("127.0.0.1:0")?;
            let my_data_addr = data_listener.local_addr()?.to_string();
            let table = match &role {
                RendezvousRole::Host(listener) => {
                    rendezvous_host(listener, world, &my_data_addr, timeout)?
                }
                RendezvousRole::Peer(addr) => {
                    rendezvous_register(addr, rank, world, &my_data_addr, timeout)?
                }
            };

            // Deterministic mesh: dial below, accept from above.
            let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();
            for peer in 0..rank {
                streams[peer] = Some(mesh_dial(&table[peer], rank, timeout)?);
            }
            // Accept from above, bounded like the rendezvous: a rank that
            // registered and then died before dialing fails the bootstrap
            // by name instead of hanging every rank below it.
            let deadline = Instant::now() + timeout;
            while streams[rank + 1..].iter().any(Option::is_none) {
                let mut s = accept_until(&data_listener, deadline, || {
                    format!(
                        "rank {rank}: mesh accept timed out after {timeout:?}: rank(s) {} never \
                         dialed (world {world})",
                        empty_slots(&streams, rank + 1)
                    )
                })?;
                let mut hello = [0u8; 8];
                // A dialer that died between connect and HELLO delivers a
                // short read here; skip the husk and keep accepting (the
                // retrying dialer will come back on a fresh connection).
                match s.read_exact(&mut hello) {
                    Ok(()) => {}
                    Err(e) if is_torn(&e) => continue,
                    Err(e) => return Err(e),
                }
                let from = peer_addr_of(&s);
                if hello[0..4] != FRAME_MAGIC {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad mesh hello from {from}: magic mismatch"),
                    ));
                }
                let peer = u32::from_le_bytes(hello[4..8].try_into().expect("4")) as usize;
                // The announced rank is untrusted until validated: rank
                // `rank` accepts only dialers strictly above it (the
                // dial-below/accept-above mesh), and never one at or past
                // the world size.
                if peer <= rank || peer >= world {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "mesh hello from {from} announced out-of-range rank {peer} \
                             (rank {rank} accepts dialers {}..{world})",
                            rank + 1
                        ),
                    ));
                }
                match &streams[peer] {
                    // A duplicate HELLO from a *live* link means two peers
                    // both claim this rank — reject it, naming the address,
                    // instead of silently rerouting the mesh slot.
                    Some(old) if peer_alive(old) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "duplicate mesh hello for rank {peer} from {from}: \
                                 that rank's link is already established and alive"
                            ),
                        ));
                    }
                    // A first HELLO, or a retry superseding the husk of an
                    // attempt that tore after its handshake bytes left.
                    _ => streams[peer] = Some(s),
                }
            }

            for (peer, slot) in streams.into_iter().enumerate() {
                let Some(stream) = slot else { continue };
                // Latency over throughput: the collectives exchange many
                // small control frames.
                stream.set_nodelay(true)?;
                stream.set_write_timeout(Some(write_timeout))?;
                let reader = stream.try_clone()?;
                readers.push(spawn_reader(reader, peer, Arc::clone(&mailbox), Arc::clone(&pool)));
                links[peer] = Mutex::new(Some(stream));
            }
        }

        Ok(TcpTransport {
            rank,
            world,
            mailbox,
            links,
            readers: Mutex::new(readers),
            pool,
            write_timeout,
        })
    }

    /// The slot of the link to `peer`.
    fn link(&self, peer: usize) -> std::sync::MutexGuard<'_, Option<TcpStream>> {
        self.links[peer].lock().expect("a send panicked holding the link")
    }

    /// Fault injection: cut the live connection to `peer` at the socket
    /// level (both directions). Every side of the link observes the same
    /// thing a peer death produces — an EOF/reset with no BYE — so the
    /// full LinkDown → `PeerDead` path runs exactly as it would for a
    /// SIGKILLed process. No-op if the link is already gone.
    pub fn sever_link(&self, peer: usize) {
        if let Some(s) = self.link(peer).as_ref() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

enum RendezvousRole {
    Host(TcpListener),
    Peer(String),
}

fn spawn_reader(
    mut stream: TcpStream,
    peer: usize,
    mailbox: Arc<Mailbox>,
    pool: Arc<BufPool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("dcnn-tcp-read-{peer}"))
        .spawn(move || {
            let cause = loop {
                match read_frame_with(&mut stream, Some(&pool)) {
                    Ok(FrameRead::Msg(msg)) => mailbox.deliver(msg),
                    Ok(FrameRead::Bye) => return, // graceful close
                    // Data-plane frames belong on blob-server connections,
                    // never on the rank fabric: treat one as corruption.
                    Ok(FrameRead::Service { kind, .. }) => {
                        break format!("unexpected data-plane frame (kind {kind}) on the rank fabric")
                    }
                    // EOF with no BYE: the peer's process died and its
                    // kernel closed the socket.
                    Ok(FrameRead::Eof) => {
                        break "connection closed without BYE (peer process died?)".into()
                    }
                    // Corruption or a torn connection: record the death
                    // rather than deliver bad data (or silence).
                    Err(e) => break format!("read failed: {e}"),
                }
            };
            // A receive blocked on this peer fails fast instead of hanging.
            mailbox.link_down(peer, cause);
        })
        .expect("spawn reader thread")
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world
    }

    fn backend(&self) -> &'static str {
        "tcp"
    }

    fn send(&self, dst: usize, msg: WireMsg) {
        if dst == self.rank {
            self.mailbox.deliver(msg);
            return;
        }
        let mut link = self.link(dst);
        // A send to a dead peer is dropped, not a panic: the link's death
        // is already in the mailbox, and the next receive touching that
        // peer turns it into a structured failure.
        if let Some(stream) = link.as_mut() {
            if let Err(e) = wire::write_frames_vectored(stream, std::slice::from_ref(&msg)) {
                let cause = match e.kind() {
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                        format!("write failed: stalled for {:?}", self.write_timeout)
                    }
                    _ => format!("write failed: {e}"),
                };
                // Recorded before the shutdown, so the reader's EOF that
                // follows it does not stand in for the cause.
                self.mailbox.link_down(dst, cause);
                let _ = stream.shutdown(Shutdown::Both);
                *link = None;
            }
        }
        drop(link);
        self.pool.recycle(msg.payload);
    }

    fn mailbox(&self) -> &Mailbox {
        &self.mailbox
    }

    fn pool(&self) -> &BufPool {
        &self.pool
    }

    fn shutdown(&self) {
        // Every frame sent is already written, so a BYE behind it leaves it
        // deliverable to peers still receiving.
        for peer in 0..self.world {
            if let Some(mut stream) = self.link(peer).take() {
                let _ = stream.write_all(&encode_bye(self.rank));
                let _ = stream.shutdown(Shutdown::Write);
            }
        }
        let readers = std::mem::take(&mut *self.readers.lock().expect("reader registry"));
        for h in readers {
            let _ = h.join();
        }
    }
}

/// Every way out but [`Transport::shutdown`] — a rank returning `Err`, an
/// unwind, a plain drop — closes each live link without a BYE, so its peer
/// sees the link die instead of a graceful close. Each reader holds a clone
/// of its socket, so dropping ours alone would leave the connection open;
/// the shutdown ends the reader too.
impl Drop for TcpTransport {
    fn drop(&mut self) {
        for link in &mut self.links {
            if let Some(s) = link.get_mut().unwrap_or_else(|p| p.into_inner()).take() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        for h in self.readers.get_mut().unwrap_or_else(|p| p.into_inner()).drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::{link_down_cause, next_arrival};
    use crate::transport::Payload;
    use std::sync::Arc;

    const TIMEOUT: Duration = Duration::from_secs(20);

    fn msg(src: usize, tag: u32, payload: Payload) -> WireMsg {
        WireMsg { src, comm_id: 7, tag, payload }
    }

    #[test]
    fn len_prefix_errors_instead_of_truncating() {
        // Exactly u16::MAX bytes round-trips; one more must be a structured
        // error naming the length, never a silent `as u16` truncation that
        // would corrupt the rendezvous table.
        let max = vec![7u8; u16::MAX as usize];
        let mut buf = Vec::new();
        write_len_prefixed(&mut buf, &max).expect("at the boundary");
        assert_eq!(read_len_prefixed(&mut buf.as_slice()).expect("read back"), max);

        let over = vec![7u8; u16::MAX as usize + 1];
        let mut sink = Vec::new();
        let err = write_len_prefixed(&mut sink, &over).expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let text = err.to_string();
        assert!(text.contains("65536"), "error must name the actual length: {text}");
        assert!(sink.is_empty(), "nothing may be written on refusal");
    }

    #[test]
    fn backoff_uses_the_whole_deadline_against_a_late_listener() {
        // The listener binds ~350 ms in; the backoff schedule's failures
        // land at ~5/15/35/75/155/315 ms with the next full delay being
        // 200 ms. The old code gave up at ~315 ms (now + delay >= deadline)
        // with ~135 ms still on the clock; the fix clamps the final sleep
        // to the remaining budget so the last attempt happens and connects.
        let port = {
            // Reserve a port, then free it for the late bind.
            let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
            probe.local_addr().expect("addr").port()
        };
        let addr = format!("127.0.0.1:{port}");
        let late = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(350));
                let l = TcpListener::bind(&addr).expect("late bind");
                // Hold the listener long enough for the dialer to land.
                let _ = l.accept();
            })
        };
        let s = connect_with_backoff(&addr, Duration::from_millis(450))
            .expect("final clamped attempt must connect");
        drop(s);
        late.join().expect("listener thread");
    }

    #[test]
    fn small_frame_burst_arrives_in_order() {
        // Many tiny frames sent back to back, one write each: the receiver
        // must see every frame, in order, bit-identical.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let n = 500usize;
        let t = std::thread::spawn(move || {
            let t1 = TcpTransport::connect(&addr, 1, 2, TIMEOUT).expect("rank 1");
            for i in 0..n {
                t1.send(0, msg(1, i as u32, Payload::f32(vec![i as f32, -(i as f32)])));
            }
            t1.shutdown();
        });
        let t0 = TcpTransport::host(listener, 2, TIMEOUT).expect("rank 0");
        for i in 0..n {
            let m = next_arrival(t0.mailbox(), Duration::from_secs(10))
                .unwrap_or_else(|| panic!("expected frame {i}"));
            assert_eq!(m.tag, i as u32, "frames must arrive in FIFO order");
            assert_eq!(m.payload.as_f32(), &[i as f32, -(i as f32)]);
        }
        t0.shutdown();
        t.join().expect("rank 1 thread");
    }

    /// The `f32` payload of frame `i` from sender thread `t`: its length
    /// cycles from one element to 256 KiB, and every element names the
    /// frame.
    fn mixed_frame(t: usize, i: usize) -> Vec<f32> {
        let len = [1, 33, 1024, 16_384, 65_536][i % 5];
        (0..len).map(|j| (t * 1_000_000 + i * 1000 + j % 1000) as f32).collect()
    }

    #[test]
    fn concurrent_senders_on_one_link_keep_each_threads_order() {
        // Two threads of rank 1 send 200 frames each to rank 0 at once, on
        // their own tags: the link's lock must keep every frame whole and
        // each thread's frames in its send order.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let n = 200usize;
        let t = std::thread::spawn(move || {
            let t1 = TcpTransport::connect(&addr, 1, 2, TIMEOUT).expect("rank 1");
            std::thread::scope(|s| {
                for tag in 1..=2 {
                    let t1 = &t1;
                    s.spawn(move || {
                        for i in 0..n {
                            t1.send(0, msg(1, tag as u32, Payload::f32(mixed_frame(tag, i))));
                        }
                    });
                }
            });
            t1.shutdown();
        });
        let t0 = TcpTransport::host(listener, 2, TIMEOUT).expect("rank 0");
        let mut next = [0usize; 3];
        for _ in 0..2 * n {
            let m = next_arrival(t0.mailbox(), Duration::from_secs(10)).expect("a frame");
            let tag = m.tag as usize;
            assert!(tag == 1 || tag == 2, "unexpected tag {tag}");
            let i = next[tag];
            assert_eq!(m.payload.as_f32(), mixed_frame(tag, i), "thread {tag}, frame {i}");
            next[tag] += 1;
        }
        assert_eq!(next, [0, n, n]);
        t0.shutdown();
        t.join().expect("rank 1 thread");
    }

    #[test]
    fn a_drop_without_shutdown_closes_the_link_without_bye() {
        // The path a rank that returns `Err` takes: its peers must see the
        // link die (a receive from it is `PeerDead`), not a graceful close
        // that leaves them waiting for the watchdog. A frame sent before
        // the drop stays deliverable.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let t = std::thread::spawn(move || {
            let t1 = TcpTransport::connect(&addr, 1, 2, TIMEOUT).expect("rank 1");
            t1.send(0, msg(1, 4, Payload::bytes(vec![9])));
            drop(t1);
        });
        let t0 = TcpTransport::host(listener, 2, TIMEOUT).expect("rank 0");
        t.join().expect("rank 1 thread");
        let cause = link_down_cause(t0.mailbox(), 1, Duration::from_secs(10))
            .expect("rank 1's link must die, not close");
        assert!(cause.contains("closed without BYE"), "{cause}");
        let m = next_arrival(t0.mailbox(), Duration::ZERO).expect("the frame sent before the drop");
        assert_eq!((m.tag, m.payload.into_bytes()), (4, vec![9]));
        t0.shutdown();
    }

    #[test]
    fn a_peer_that_stops_reading_fails_the_send_at_the_timeout() {
        // A fake rank 1 completes the mesh HELLO and then never reads. A
        // 64 MiB frame fills both loopback buffers; the write that then
        // makes no progress for the endpoint's timeout fails the link, so
        // the send returns and a receive from rank 1 is `PeerDead` at once.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let timeout = Duration::from_secs(1);
        let host = std::thread::spawn(move || TcpTransport::host(listener, 2, timeout));
        let (_reg, table) = register_fake(&addr, 1, 2);
        let mut stalled =
            connect_with_backoff(&table[0], Duration::from_secs(5)).expect("dial data");
        stalled.write_all(&FRAME_MAGIC).expect("magic");
        stalled.write_all(&1u32.to_le_bytes()).expect("rank");
        stalled.flush().expect("flush");
        let t0 = host.join().expect("rank 0 thread").expect("rank 0");

        let start = Instant::now();
        t0.send(1, msg(0, 3, Payload::bytes(vec![0; 64 << 20])));
        let elapsed = start.elapsed();
        // Half the timeout below: the kernel rounds its timer, and the point
        // is that the send waited on the socket instead of queueing.
        assert!(elapsed >= timeout / 2, "the send returned after {elapsed:?}");
        assert!(elapsed < timeout + Duration::from_secs(4), "the send hung for {elapsed:?}");
        let cause = link_down_cause(t0.mailbox(), 1, Duration::ZERO)
            .expect("the failed write must record the link's death");
        assert!(cause.contains("write failed: stalled"), "{cause}");

        // Later sends to the dead peer are dropped at once.
        let start = Instant::now();
        t0.send(1, msg(0, 4, Payload::bytes(vec![1])));
        assert!(start.elapsed() < timeout / 2, "a send to a dead link waited");
        t0.shutdown();
        drop(stalled);
    }

    #[test]
    fn severed_link_surfaces_as_linkdown_on_both_ends() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let t = std::thread::spawn(move || {
            let t1 = TcpTransport::connect(&addr, 1, 2, TIMEOUT).expect("rank 1");
            // The remote end of a cut link sees an EOF/reset with no BYE.
            let cause = link_down_cause(t1.mailbox(), 0, Duration::from_secs(10))
                .expect("rank 1 expected rank 0's link down");
            assert!(!cause.is_empty());
            // Sends to the dead peer are dropped, not panics.
            t1.send(0, msg(1, 9, Payload::bytes(vec![1])));
            t1.shutdown();
        });
        let t0 = TcpTransport::host(listener, 2, TIMEOUT).expect("rank 0");
        t0.sever_link(1);
        assert!(
            link_down_cause(t0.mailbox(), 1, Duration::from_secs(10)).is_some(),
            "rank 0 expected rank 1's link down"
        );
        t0.shutdown();
        t.join().expect("rank 1 thread");
    }

    #[test]
    fn rendezvous_names_missing_ranks_instead_of_hanging() {
        // World of 3, but only rank 1 ever registers: the host must fail
        // within the bound and name rank 2 as the absentee.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let reg = std::thread::spawn(move || {
            // Register as rank 1, then just hold the socket open.
            let mut s = connect_with_backoff(&addr, Duration::from_secs(5)).expect("dial");
            s.write_all(&1u32.to_le_bytes()).expect("rank");
            write_len_prefixed(&mut s, b"127.0.0.1:1").expect("addr");
            s.flush().expect("flush");
            s
        });
        let err = rendezvous_host(&listener, 3, "127.0.0.1:0", Duration::from_millis(300))
            .expect_err("must time out");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let text = err.to_string();
        assert!(text.contains('2') && text.contains("never registered"), "{text}");
        drop(reg.join());
    }

    /// Register `rank` with the rendezvous at `addr` without reading the
    /// table reply (the host only replies once every rank registered, so a
    /// fake peer must not block on it while other fakes still register).
    /// The socket must stay open so the host's eventual table write lands.
    fn register_silent(addr: &str, rank: u32) -> TcpStream {
        let mut s = connect_with_backoff(addr, Duration::from_secs(5)).expect("dial rendezvous");
        s.write_all(&rank.to_le_bytes()).expect("rank");
        write_len_prefixed(&mut s, b"127.0.0.1:1").expect("addr");
        s.flush().expect("flush");
        s
    }

    /// Register `rank` with the rendezvous at `addr` and read the address
    /// table back, impersonating a real peer's bootstrap. Call this for the
    /// *last* fake rank only; earlier fakes use [`register_silent`].
    fn register_fake(addr: &str, rank: u32, world: usize) -> (TcpStream, Vec<String>) {
        let mut s = register_silent(addr, rank);
        let mut n_buf = [0u8; 4];
        s.read_exact(&mut n_buf).expect("world echo");
        assert_eq!(u32::from_le_bytes(n_buf) as usize, world);
        let table = (0..world)
            .map(|_| String::from_utf8(read_len_prefixed(&mut s).expect("entry")).expect("utf8"))
            .collect();
        (s, table)
    }

    #[test]
    fn mesh_accept_names_a_rank_that_registered_and_never_dialed() {
        // World of 3: rank 2 registers, then never dials. Rank 1 dials rank
        // 0 and must then fail its accept within the bound, naming rank 2.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let timeout = Duration::from_millis(500);
        let host = std::thread::spawn(move || TcpTransport::host(listener, 3, timeout).err());
        let rank1 = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let start = Instant::now();
                let err = TcpTransport::connect(&addr, 1, 3, timeout).err();
                (err, start.elapsed())
            })
        };
        let (_reg, _table) = register_fake(&addr, 2, 3);
        let (err, elapsed) = rank1.join().expect("rank 1 thread");
        let err = err.expect("rank 1 must not complete a mesh missing rank 2");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        let text = err.to_string();
        assert!(text.contains("rank(s) 2 never dialed"), "{text}");
        // Rendezvous, dial and accept: each phase bounded by the timeout.
        assert!(elapsed < 3 * timeout, "rank 1 gave up after {elapsed:?}");
        let host_err = host.join().expect("rank 0 thread").expect("rank 0 is missing rank 2 too");
        assert!(host_err.to_string().contains("rank(s) 2 never dialed"), "{host_err}");
    }

    #[test]
    fn garbled_mesh_hello_fails_with_the_offending_address() {
        // A peer that registers cleanly but then opens the data link with
        // garbage magic must fail bootstrap with a structured error naming
        // its address, not corrupt the mesh.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let attacker = std::thread::spawn(move || {
            let (_reg, table) = register_fake(&addr, 1, 2);
            let mut s =
                connect_with_backoff(&table[0], Duration::from_secs(5)).expect("dial data");
            s.write_all(b"NOPE").expect("garbled magic");
            s.write_all(&1u32.to_le_bytes()).expect("rank");
            s.flush().expect("flush");
            s // keep the socket open so the read side sees the bytes, not a reset
        });
        let err = match TcpTransport::host(listener, 2, TIMEOUT) {
            Err(e) => e,
            Ok(_) => panic!("garbled hello must fail bootstrap"),
        };
        let text = err.to_string();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(text.contains("magic mismatch"), "{text}");
        assert!(text.contains("127.0.0.1"), "error must name the offending address: {text}");
        drop(attacker.join());
    }

    #[test]
    fn out_of_range_mesh_hello_names_rank_and_address() {
        // Valid magic, but the announced rank is outside the world: the
        // peer-supplied rank must be validated before it indexes anything.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let attacker = std::thread::spawn(move || {
            let (_reg, table) = register_fake(&addr, 1, 2);
            let mut s =
                connect_with_backoff(&table[0], Duration::from_secs(5)).expect("dial data");
            s.write_all(&FRAME_MAGIC).expect("magic");
            s.write_all(&5u32.to_le_bytes()).expect("bogus rank");
            s.flush().expect("flush");
            s
        });
        let err = match TcpTransport::host(listener, 2, TIMEOUT) {
            Err(e) => e,
            Ok(_) => panic!("out-of-range hello must fail bootstrap"),
        };
        let text = err.to_string();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(text.contains("out-of-range rank 5"), "{text}");
        assert!(text.contains("127.0.0.1"), "error must name the offending address: {text}");
        drop(attacker.join());
    }

    #[test]
    fn duplicate_live_mesh_hello_is_rejected() {
        // Two live connections both claiming rank 2 is a conflict the host
        // must reject with the second claimant's address.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let attacker = std::thread::spawn(move || {
            let _reg1 = register_silent(&addr, 1);
            let (_reg2, table) = register_fake(&addr, 2, 3);
            let hello = |rank: u32| {
                let mut s =
                    connect_with_backoff(&table[0], Duration::from_secs(5)).expect("dial data");
                s.write_all(&FRAME_MAGIC).expect("magic");
                s.write_all(&rank.to_le_bytes()).expect("rank");
                s.flush().expect("flush");
                s
            };
            let first = hello(2);
            // Give the host time to accept the first claim before the
            // conflicting one arrives on a separate live socket.
            std::thread::sleep(Duration::from_millis(100));
            let second = hello(2);
            (_reg1, _reg2, first, second)
        });
        let err = match TcpTransport::host(listener, 3, TIMEOUT) {
            Err(e) => e,
            Ok(_) => panic!("second live claimant for rank 2 must fail bootstrap"),
        };
        let text = err.to_string();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(text.contains("duplicate mesh hello for rank 2"), "{text}");
        assert!(text.contains("127.0.0.1"), "error must name the offending address: {text}");
        drop(attacker.join());
    }

    #[test]
    fn torn_mesh_hello_retry_still_supersedes_the_husk() {
        // The legitimate duplicate: a HELLO whose connection tears is
        // superseded by the dialer's retry — bootstrap must complete, not
        // report a conflict against a dead socket.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let peers = std::thread::spawn(move || {
            let reg1 = register_silent(&addr, 1);
            let (reg2, table) = register_fake(&addr, 2, 3);
            let hello = |rank: u32| {
                let mut s =
                    connect_with_backoff(&table[0], Duration::from_secs(5)).expect("dial data");
                s.write_all(&FRAME_MAGIC).expect("magic");
                s.write_all(&rank.to_le_bytes()).expect("rank");
                s.flush().expect("flush");
                s
            };
            let first = hello(2);
            std::thread::sleep(Duration::from_millis(100));
            drop(first); // the torn attempt
            std::thread::sleep(Duration::from_millis(50));
            let retry = hello(2);
            let other = hello(1);
            (reg1, reg2, retry, other)
        });
        let t0 = TcpTransport::host(listener, 3, TIMEOUT)
            .expect("torn-then-retried hello must not wedge bootstrap");
        let socks = peers.join().expect("peer thread");
        drop(socks); // EOF the fake links so reader threads exit
        t0.shutdown();
    }

    #[test]
    fn duplicate_rendezvous_registration_from_live_peer_is_rejected() {
        // Same conflict at the rendezvous layer: rank 1 registers twice
        // over two sockets that both stay open. The re-registration must
        // be a structured error naming the address, not a silent table
        // overwrite that misroutes the mesh.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let attacker = std::thread::spawn(move || {
            let reg = || {
                let mut s =
                    connect_with_backoff(&addr, Duration::from_secs(5)).expect("dial");
                s.write_all(&1u32.to_le_bytes()).expect("rank");
                write_len_prefixed(&mut s, b"127.0.0.1:1").expect("addr");
                s.flush().expect("flush");
                s
            };
            let first = reg();
            std::thread::sleep(Duration::from_millis(100));
            let second = reg();
            (first, second)
        });
        // World 3 keeps the host accepting (rank 2 never shows), so it
        // meets the duplicate instead of completing early.
        let err = rendezvous_host(&listener, 3, "127.0.0.1:0", Duration::from_secs(5))
            .expect_err("live duplicate registration must fail");
        let text = err.to_string();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(text.contains("duplicate rendezvous registration for rank 1"), "{text}");
        assert!(text.contains("127.0.0.1"), "error must name the offending address: {text}");
        drop(attacker.join());
    }

    #[test]
    fn two_rank_fabric_over_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let t = std::thread::spawn(move || {
            let t1 = TcpTransport::connect(&addr, 1, 2, TIMEOUT).expect("rank 1");
            t1.send(0, msg(1, 4, Payload::f32(vec![2.5; 8])));
            let m = next_arrival(t1.mailbox(), Duration::from_secs(10)).expect("rank 1 reply");
            assert_eq!(m.payload.into_bytes(), vec![7, 8]);
            t1.shutdown();
        });
        let t0 = TcpTransport::host(listener, 2, TIMEOUT).expect("rank 0");
        let m = next_arrival(t0.mailbox(), Duration::from_secs(10)).expect("rank 0 message");
        assert_eq!((m.src, m.tag), (1, 4));
        assert_eq!(m.payload.as_f32(), &[2.5; 8]);
        t0.send(1, msg(0, 5, Payload::bytes(vec![7, 8])));
        t0.shutdown();
        t.join().expect("rank 1 thread");
    }

    #[test]
    fn self_send_skips_the_wire() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let t0 = TcpTransport::host(listener, 1, TIMEOUT).expect("solo");
        let data = Arc::new(vec![1.0f32; 4]);
        let ptr = Arc::as_ptr(&data) as usize;
        t0.send(0, msg(0, 1, Payload::shared_f32(data)));
        let m = next_arrival(t0.mailbox(), Duration::from_secs(1)).expect("loopback message");
        assert_eq!(Arc::as_ptr(&m.payload.into_shared_f32()) as usize, ptr);
        t0.shutdown();
    }
}
