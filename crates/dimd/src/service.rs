//! The DIMD data plane as a real multi-process service: rank-resident
//! **blob servers** own trainers' [`Dimd`] partitions and stream
//! decode-ahead mini-batches to remote trainer ranks over TCP, using the
//! same CRC'd DCTP frame format as the rank fabric
//! (`dcnn_collectives::transport::wire`).
//!
//! The paper keeps data *in memory next to the learner*; this module is
//! the other deployment the same APIs support — a small fleet of data
//! servers feeding a larger fleet of trainers, as production input
//! pipelines (tf.data service, Ray Data) do. The contract is strict
//! **bitwise identity**: a service-backed epoch must produce exactly the
//! training batches the in-process path produces, because the server runs
//! the very same [`Dimd::sample_batch_records`] stream on the trainer's
//! behalf and ships the still-compressed records + augmentation salt; the
//! client decodes them through [`try_decode_augmented_batch`] — the
//! identical code path local training calls, with a record the codec
//! refuses reported as a dead link instead of a panic.
//!
//! Protocol, on top of DCTP service frames (all little-endian):
//!
//! * client → server `KIND_DATA_REQ` with `tag == HELLO_TAG`: the
//!   [`Hello`] handshake (who am I, global job shape).
//! * client → server `KIND_DATA_REQ`: request batch `tag = seq` of epoch
//!   `comm_id`. Clients pipeline up to `prefetch_depth` of these.
//! * server → client `KIND_DATA_BATCH`: `tag = seq`, `comm_id = salt`,
//!   payload = [`pack`]ed records.
//! * client → server `KIND_DATA_EOE` (`comm_id = epoch`): this rank
//!   finished the epoch. When every rank a server hosts has sent it, the
//!   server fleet runs Algorithm 2's segmented alltoallv **between server
//!   processes** ([`try_shuffle_hosted`]) if the cadence says so, then
//!   acks each client with `KIND_DATA_EOE`.
//! * server → client BYE: once, after the ack of the job's last epoch. A
//!   connection that ends any other way — EOF, an error, a BYE before that
//!   ack — is a dead server, reported as [`CommError::PeerDead`].
//!
//! The connection code is the rank fabric's: each end writes a frame on
//! the calling thread in one vectored write ([`write_service_frames_vectored`])
//! — the server from its store loop, beside one reader thread per client.
//! The client dials through the fabric's backoff loop
//! ([`connect_with_backoff`]) and decodes on the [`Prefetcher`]'s decode
//! lanes. Whatever a client sends, [`serve_blocking`] answers a violation
//! with an `InvalidData` error naming the rank and its address, never a
//! panic.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use dcnn_collectives::runtime::{Comm, CommError};
use dcnn_collectives::transport::tcp::connect_with_backoff;
use dcnn_collectives::transport::wire::{
    encode_bye, read_frame, write_service_frames_vectored, FrameRead, KIND_DATA_BATCH,
    KIND_DATA_EOE, KIND_DATA_REQ,
};
use dcnn_collectives::transport::{Payload, WireMsg};
use dcnn_tensor::Tensor;

use crate::prefetch::{decode_lanes, Decoded, LaneJobs, LaneOuts, Prefetcher};
use crate::shuffle::{pack, try_shuffle_hosted, unpack, HostedPartition};
use crate::store::{try_decode_augmented_batch, Dimd};

/// `tag` value marking a `KIND_DATA_REQ` frame as the [`Hello`] handshake
/// rather than a batch request (real seqs are far smaller).
pub const HELLO_TAG: u32 = 0xFFFF_FFFF;

const HELLO_MAGIC: [u8; 4] = *b"DIMD";
const HELLO_VERSION: u32 = 1;

/// The client handshake: identifies the trainer rank and carries the job
/// shape every participant must agree on. The server cross-checks all its
/// clients sent the same global parameters — config skew between ranks
/// would silently break bitwise identity, so it is a hard error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// This client's trainer rank.
    pub rank: usize,
    /// Trainer world size (number of partitions the service hosts).
    pub world: usize,
    /// Records per requested batch for this rank.
    pub batch: usize,
    /// Batch requests this rank will make per epoch.
    pub requests_per_epoch: usize,
    /// Total epochs in the job.
    pub epochs: usize,
    /// Cross-node shuffle cadence: shuffle when
    /// `(epoch + 1) % shuffle_every == 0`; `0` = never.
    pub shuffle_every: usize,
    /// Algorithm 2 segmentation cap for the epoch shuffle, in bytes.
    pub segment_bytes: u64,
}

impl Hello {
    /// Serialize for the handshake frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 4 + 6 * 4 + 8);
        out.extend_from_slice(&HELLO_MAGIC);
        out.extend_from_slice(&HELLO_VERSION.to_le_bytes());
        for v in [
            self.rank,
            self.world,
            self.batch,
            self.requests_per_epoch,
            self.epochs,
            self.shuffle_every,
        ] {
            out.extend_from_slice(&(v as u32).to_le_bytes());
        }
        out.extend_from_slice(&self.segment_bytes.to_le_bytes());
        out
    }

    /// Parse a handshake payload.
    pub fn decode(buf: &[u8]) -> Result<Hello, String> {
        if buf.len() != 4 + 4 + 6 * 4 + 8 {
            return Err(format!("handshake length {} (want {})", buf.len(), 4 + 4 + 6 * 4 + 8));
        }
        if buf[0..4] != HELLO_MAGIC {
            return Err(format!("bad handshake magic {:02x?}", &buf[0..4]));
        }
        let u32_at =
            |i: usize| u32::from_le_bytes(buf[i..i + 4].try_into().expect("4 bytes")) as usize;
        let version = u32_at(4);
        if version != HELLO_VERSION as usize {
            return Err(format!("handshake version {version} (want {HELLO_VERSION})"));
        }
        Ok(Hello {
            rank: u32_at(8),
            world: u32_at(12),
            batch: u32_at(16),
            requests_per_epoch: u32_at(20),
            epochs: u32_at(24),
            shuffle_every: u32_at(28),
            segment_bytes: u64::from_le_bytes(buf[32..40].try_into().expect("8 bytes")),
        })
    }

    /// The fields every client of a job must agree on (everything except
    /// its own rank and per-rank batch size).
    fn job_shape(&self) -> (usize, usize, usize, usize, u64) {
        (self.world, self.requests_per_epoch, self.epochs, self.shuffle_every, self.segment_bytes)
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// What a finished [`serve_blocking`] call observed.
#[derive(Debug)]
pub struct ServeReport {
    /// Total batches served across all clients and epochs.
    pub batches_served: usize,
    /// Alltoallv segment-round counts, one per executed epoch shuffle
    /// (Algorithm 2's `m` — proves the 32-bit segmentation engaged).
    pub shuffle_rounds: Vec<usize>,
}

/// Events the per-connection reader threads feed the store loop. Each
/// client's events arrive in its socket order, so per-partition request
/// order — and therefore the sampling rng stream — is preserved.
enum Event {
    Hello { hello: Hello, stream: TcpStream, peer: String },
    Req { rank: usize, epoch: u64, seq: u32 },
    Eoe { rank: usize, epoch: u64 },
    Gone { who: String, cause: String },
}

/// Per-connected-client server state.
struct Client {
    hello: Hello,
    /// The client's socket address, for errors about what it sent.
    peer: String,
    /// The socket the store loop writes to; the reader holds a clone.
    stream: TcpStream,
    next_seq: u32,
    eoe_epoch: Option<u64>,
}

impl Client {
    /// Write one frame on the store loop's thread. A failed write needs no
    /// report: this client's reader sees the dead socket and sends `Gone`.
    fn send(&self, kind: u8, msg: WireMsg) {
        let _ = write_service_frames_vectored(&mut &self.stream, &[(kind, msg)]);
    }
}

/// A client let go before the job's end sees a dead server: no BYE, and
/// the reader's clone of the socket does not keep the connection open.
impl Drop for Client {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Read frames from one client socket and translate them into [`Event`]s,
/// ending with one `Gone`. `rank` is `None` until the handshake names the
/// peer.
fn spawn_client_reader(stream: TcpStream, events: Sender<Event>) {
    std::thread::spawn(move || {
        let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into());
        let mut reader = BufReader::new(stream.try_clone().expect("clone client socket"));
        let mut stream = Some(stream);
        let mut rank: Option<usize> = None;
        let cause = loop {
            let event = match (read_frame(&mut reader), rank) {
                (Ok(FrameRead::Service { kind: KIND_DATA_REQ, msg }), _)
                    if msg.tag == HELLO_TAG =>
                {
                    let Some(stream) = stream.take() else { break "a second handshake".into() };
                    match Hello::decode(msg.payload.as_bytes()) {
                        Ok(hello) => {
                            rank = Some(hello.rank);
                            Event::Hello { hello, stream, peer: peer.clone() }
                        }
                        Err(e) => break format!("bad handshake: {e}"),
                    }
                }
                (Ok(FrameRead::Service { kind: KIND_DATA_REQ, msg }), Some(rank)) => {
                    Event::Req { rank, epoch: msg.comm_id, seq: msg.tag }
                }
                (Ok(FrameRead::Service { kind: KIND_DATA_EOE, msg }), Some(rank)) => {
                    Event::Eoe { rank, epoch: msg.comm_id }
                }
                (Ok(FrameRead::Bye), _) => break "client sent BYE".into(),
                (Ok(FrameRead::Eof), _) => break "connection closed without BYE".into(),
                (Ok(_), _) => break "a frame outside the data-plane protocol".into(),
                (Err(e), _) => break e.to_string(),
            };
            if events.send(event).is_err() {
                return;
            }
        };
        let who = match rank {
            Some(r) => format!("client rank {r} at {peer}"),
            None => format!("client at {peer}"),
        };
        let _ = events.send(Event::Gone { who, cause });
    });
}

/// A client sent something the job cannot accept: an `InvalidData` error
/// naming what, for the caller to return instead of panicking the server.
fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Run one blob server: accept the expected clients on `listener`, serve
/// their batch requests from `partitions`, run the cross-node epoch
/// shuffle over `comm` (the *server* fabric) at the cadence the clients'
/// handshakes declare, and return when the job's final epoch is acked.
///
/// `partitions` maps trainer (virtual) ranks to their [`Dimd`] stores;
/// server `comm.rank()` of `comm.size()` must host exactly the ranks
/// `{ v : v % comm.size() == comm.rank(), v < trainer_world }`.
///
/// `fault_after_batches` is the fault-injection hook: after serving that
/// many batches the server drops every connection and returns an error —
/// from the clients' point of view, a crashed data server.
///
/// Panics with the report if a peer server of `comm` dies; see
/// [`try_serve_blocking`].
pub fn serve_blocking(
    listener: TcpListener,
    comm: &Comm,
    partitions: Vec<(usize, Dimd)>,
    trainer_world: usize,
    fault_after_batches: Option<usize>,
) -> io::Result<ServeReport> {
    try_serve_blocking(listener, comm, partitions, trainer_world, fault_after_batches)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`serve_blocking`], with the two ways it can fail kept apart: the
/// outer error is a peer server of `comm` dying in the epoch shuffle,
/// which ends this server's fabric; the inner one is what a client did.
pub fn try_serve_blocking(
    listener: TcpListener,
    comm: &Comm,
    partitions: Vec<(usize, Dimd)>,
    trainer_world: usize,
    fault_after_batches: Option<usize>,
) -> Result<io::Result<ServeReport>, CommError> {
    let mut fabric = None;
    let served = serve(listener, comm, partitions, trainer_world, fault_after_batches, &mut fabric);
    fabric.map_or(Ok(served), Err)
}

/// [`try_serve_blocking`]'s loop; a failed shuffle leaves its
/// [`CommError`] in `fabric` and ends the loop with an I/O error.
fn serve(
    listener: TcpListener,
    comm: &Comm,
    mut partitions: Vec<(usize, Dimd)>,
    trainer_world: usize,
    fault_after_batches: Option<usize>,
    fabric: &mut Option<CommError>,
) -> io::Result<ServeReport> {
    let servers = comm.size();
    let me = comm.rank();
    partitions.sort_by_key(|(v, _)| *v);
    for (v, _) in &partitions {
        assert!(
            *v < trainer_world && *v % servers == me,
            "partition {v} does not belong on server {me} of {servers}"
        );
    }
    let hosted: Vec<usize> = partitions.iter().map(|(v, _)| *v).collect();
    assert!(!hosted.is_empty(), "server {me} hosts no partitions");

    let (events_tx, events) = channel::<Event>();

    // Accept until every hosted rank has handshaked. The reader thread owns
    // frame parsing; accepted sockets surface here as Hello events. Clients
    // that handshook early may already be pipelining batch requests while
    // later clients are still connecting — buffer those for the store loop.
    let mut clients: HashMap<usize, Client> = HashMap::new();
    let mut job: Option<Hello> = None;
    let mut pending: std::collections::VecDeque<Event> = std::collections::VecDeque::new();
    while clients.len() < hosted.len() {
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true).ok();
        spawn_client_reader(stream, events_tx.clone());
        // Wait for this connection's handshake (or its failure) before
        // accepting more — the handshake is the first frame on its socket.
        loop {
            match events.recv() {
                Ok(Event::Hello { hello, stream, peer }) => {
                    let rank = hello.rank;
                    if !hosted.contains(&rank) {
                        return Err(invalid(format!(
                            "client rank {rank} at {peer} is not hosted by server {me} of {servers}"
                        )));
                    }
                    if hello.world != trainer_world {
                        return Err(invalid(format!(
                            "client rank {rank} at {peer} says trainer world {}, the server \
                             hosts world {trainer_world}",
                            hello.world
                        )));
                    }
                    if job.get_or_insert(hello).job_shape() != hello.job_shape() {
                        return Err(invalid(format!(
                            "client rank {rank} at {peer} disagrees on the job shape"
                        )));
                    }
                    if let Some(live) = clients.get(&rank) {
                        return Err(invalid(format!(
                            "duplicate handshake for rank {rank} from {peer}: rank {rank} is \
                             already connected from {}",
                            live.peer
                        )));
                    }
                    clients
                        .insert(rank, Client { hello, peer, stream, next_seq: 0, eoe_epoch: None });
                    break;
                }
                Ok(Event::Gone { who, cause }) => {
                    return Err(io::Error::other(format!(
                        "{who} failed during handshake: {cause}"
                    )));
                }
                Ok(ev) => pending.push_back(ev),
                Err(_) => return Err(io::Error::other("reader threads gone")),
            }
        }
    }
    let job = job.expect("at least one client");

    // The store loop: single-threaded ownership of every hosted partition.
    // Per-client order is socket order, so each partition's sample stream
    // replays exactly what the trainer's in-process path would draw.
    let mut report = ServeReport { batches_served: 0, shuffle_rounds: Vec::new() };
    let mut epoch = 0u64;
    loop {
        let ev = match pending.pop_front() {
            Some(ev) => ev,
            None => match events.recv() {
                Ok(ev) => ev,
                Err(_) => return Err(io::Error::other("all client readers exited mid-job")),
            },
        };
        match ev {
            Event::Hello { .. } => return Err(io::Error::other("duplicate handshake")),
            Event::Req { rank, epoch: e, seq } => {
                let client = clients.get_mut(&rank).expect("known client");
                if e != epoch || seq != client.next_seq {
                    return Err(invalid(format!(
                        "client rank {rank} at {} requested batch {seq} of epoch {e}, \
                         expected batch {} of epoch {epoch}",
                        client.peer, client.next_seq
                    )));
                }
                client.next_seq += 1;
                let batch = client.hello.batch;
                let dimd = &mut partitions
                    .iter_mut()
                    .find(|(v, _)| *v == rank)
                    .expect("hosted partition")
                    .1;
                let (salt, records) = dimd.sample_batch_records(batch);
                report.batches_served += 1;
                let payload = Payload::bytes(pack(&records));
                client.send(KIND_DATA_BATCH, WireMsg { src: me, comm_id: salt, tag: seq, payload });
                if let Some(n) = fault_after_batches {
                    if report.batches_served >= n {
                        // Simulate a crashed server: drop every socket on
                        // the floor. Clients must observe a structured
                        // peer-death, not a hang.
                        drop(clients);
                        return Err(io::Error::other(format!(
                            "fault: killed after serving {n} batches"
                        )));
                    }
                }
            }
            Event::Eoe { rank, epoch: e } => {
                let client = clients.get_mut(&rank).expect("known client");
                if e != epoch {
                    return Err(invalid(format!(
                        "client rank {rank} at {} ended epoch {e} during epoch {epoch}",
                        client.peer
                    )));
                }
                client.eoe_epoch = Some(e);
                if !clients.values().all(|c| c.eoe_epoch == Some(epoch)) {
                    continue;
                }
                // Every hosted rank finished this epoch. Shuffle across the
                // server fabric if the cadence says so, then release the
                // clients into the next epoch.
                let due =
                    job.shuffle_every > 0 && (epoch as usize + 1).is_multiple_of(job.shuffle_every);
                if due {
                    let mine: Vec<HostedPartition> = partitions
                        .iter_mut()
                        .map(|(v, d)| HostedPartition {
                            virtual_rank: *v,
                            rng_id: *v as u64,
                            seed: d.epoch_seed() ^ epoch,
                            records: d.take_records(),
                        })
                        .collect();
                    let shuffled = try_shuffle_hosted(
                        comm,
                        mine,
                        trainer_world,
                        |v| v % servers,
                        job.segment_bytes as usize,
                    );
                    let out = match shuffled {
                        Ok(out) => out,
                        Err(e) => {
                            let msg = e.to_string();
                            *fabric = Some(e);
                            return Err(io::Error::other(msg));
                        }
                    };
                    eprintln!(
                        "dcnn-data-server: rank {me}: shuffle epoch={epoch} rounds={}",
                        out.rounds
                    );
                    report.shuffle_rounds.push(out.rounds);
                    for (v, recs) in out.partitions {
                        partitions
                            .iter_mut()
                            .find(|(pv, _)| *pv == v)
                            .expect("hosted partition")
                            .1
                            .install_shuffled_records(recs);
                    }
                }
                for c in clients.values_mut() {
                    let payload = Payload::bytes(Vec::new());
                    c.send(KIND_DATA_EOE, WireMsg { src: me, comm_id: epoch, tag: 0, payload });
                    c.eoe_epoch = None;
                    c.next_seq = 0;
                }
                epoch += 1;
                if epoch as usize >= job.epochs {
                    // The final EOE ack is already written; say BYE behind
                    // it. Dropping `clients` on return closes the sockets.
                    for client in clients.values() {
                        let _ = (&client.stream).write_all(&encode_bye(0));
                    }
                    return Ok(report);
                }
            }
            // A clean BYE only makes sense once the job is over; the store
            // loop is still running, so either way the client is gone early.
            Event::Gone { who, cause } => {
                return Err(io::Error::other(format!("{who} died mid-job ({cause})")));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// One decode lane's job: a `KIND_DATA_BATCH` body and its salt into a
/// batch. The bytes came off a socket, so a payload that does not unpack
/// or a record the codec refuses is a dead link, not a panic.
fn decode_job(salt: u64, body: &[u8], crop: usize) -> Decoded {
    let mut records = Vec::new();
    if let Err((off, kind)) = unpack(body, &mut records) {
        return Err(format!("malformed batch payload at byte {off}: {kind:?}"));
    }
    try_decode_augmented_batch(&records, crop, salt).map_err(|e| format!("malformed record: {e}"))
}

/// A client's reader thread: hand each batch body to the decode lanes
/// (moved, not copied) and each epoch ack to `eoe`, until the server's BYE
/// after the job's last epoch (`Ok`) or a consumer hangs up; `Err` says why
/// the link died.
fn read_server(
    stream: TcpStream,
    jobs: &mut LaneJobs<Result<(u64, Vec<u8>), String>>,
    eoe: &Sender<u64>,
    epochs: usize,
) -> Result<(), String> {
    let mut r = BufReader::new(stream);
    let mut acked = 0usize;
    loop {
        match read_frame(&mut r) {
            Ok(FrameRead::Service { kind: KIND_DATA_BATCH, msg }) => {
                if !jobs.send(Ok((msg.comm_id, msg.payload.into_bytes()))) {
                    return Ok(());
                }
            }
            Ok(FrameRead::Service { kind: KIND_DATA_EOE, msg }) => {
                acked += 1;
                if eoe.send(msg.comm_id).is_err() {
                    return Ok(());
                }
            }
            // The server says goodbye once, after acking the job's last
            // epoch. Earlier, it is a server that gave up on the job.
            Ok(FrameRead::Bye) if acked < epochs => {
                return Err(format!("server sent BYE after acking {acked} of {epochs} epochs"))
            }
            Ok(FrameRead::Bye) => return Ok(()),
            Ok(FrameRead::Eof) => return Err("server closed the connection without BYE".into()),
            Ok(_) => return Err("unexpected rank-fabric frame on the data plane".into()),
            Err(e) => return Err(format!("server link failed without BYE: {e}")),
        }
    }
}

/// A trainer rank's connection to its blob server: pipelines batch
/// requests `depth` ahead, decodes arriving record sets on `workers`
/// parallel threads, and delivers batches in request order.
pub struct ServiceClient {
    stream: TcpStream,
    hello: Hello,
    server_index: usize,
    addr: String,
    depth: usize,
    lanes: LaneOuts,
    eoe: Receiver<u64>,
    epoch: u64,
    sent: usize,
    consumed: usize,
    reader: std::thread::JoinHandle<()>,
}

impl ServiceClient {
    /// Dial `addr` (retrying while the server comes up, until `timeout`),
    /// perform the [`Hello`] handshake, and spawn the reader + `workers`
    /// decode threads. `server_index` is only used to label failures.
    pub fn connect(
        addr: &str,
        server_index: usize,
        hello: Hello,
        crop: usize,
        depth: usize,
        workers: usize,
        timeout: Duration,
    ) -> io::Result<ServiceClient> {
        let stream = connect_with_backoff(addr, timeout)?;
        stream.set_nodelay(true).ok();

        let handshake = WireMsg {
            src: hello.rank,
            comm_id: 0,
            tag: HELLO_TAG,
            payload: Payload::bytes(hello.encode()),
        };
        write_service_frames_vectored(&mut &stream, &[(KIND_DATA_REQ, handshake)])?;

        // A job is a batch body and its salt, or the reader's death notice.
        let (mut jobs, lanes) =
            decode_lanes(workers, move |job: Result<(u64, Vec<u8>), String>| {
                job.and_then(|(salt, body)| decode_job(salt, &body, crop))
            });
        let (eoe_tx, eoe) = channel::<u64>();
        let reader_stream = stream.try_clone()?;
        let reader = std::thread::spawn(move || {
            if let Err(cause) = read_server(reader_stream, &mut jobs, &eoe_tx, hello.epochs) {
                jobs.send(Err(cause));
            }
        });

        Ok(ServiceClient {
            stream,
            hello,
            server_index,
            addr: addr.to_string(),
            depth,
            lanes,
            eoe,
            epoch: 0,
            sent: 0,
            consumed: 0,
            reader,
        })
    }

    /// The data-plane analogue of a torn fabric link: a structured
    /// [`CommError::PeerDead`] naming the server — the error a collective
    /// returns for a dead rank, so `dcnn-launch` reports both alike.
    fn dead(&self, cause: String) -> CommError {
        CommError::PeerDead {
            rank: self.hello.rank,
            peer: self.server_index,
            cause: format!("data server {}: {cause}", self.addr),
            phase: Some("data-plane".into()),
            bucket: None,
            label: None,
        }
    }

    /// Send an empty-bodied request or end-of-epoch frame to the server.
    fn send(&self, kind: u8, comm_id: u64, tag: usize) -> Result<(), CommError> {
        let payload = Payload::bytes(Vec::new());
        let msg = WireMsg { src: self.hello.rank, comm_id, tag: tag as u32, payload };
        write_service_frames_vectored(&mut &self.stream, &[(kind, msg)])
            .map_err(|e| self.dead(e.to_string()))
    }

    /// Open an epoch: prime the request pipeline `depth` deep (depth 0 =
    /// fully synchronous request-then-wait).
    pub fn begin_epoch(&mut self, epoch: u64) -> Result<(), CommError> {
        self.epoch = epoch;
        self.sent = 0;
        self.consumed = 0;
        let window = self.depth.min(self.hello.requests_per_epoch);
        for seq in 0..window {
            self.send(KIND_DATA_REQ, epoch, seq)?;
        }
        self.sent = window;
        Ok(())
    }

    /// Receive the next decoded batch, keeping the request window full.
    pub fn next_batch(&mut self) -> Result<(Tensor, Vec<usize>), CommError> {
        assert!(
            self.consumed < self.hello.requests_per_epoch,
            "epoch over-consumed: {} batches of {}",
            self.consumed + 1,
            self.hello.requests_per_epoch
        );
        if self.depth == 0 {
            self.send(KIND_DATA_REQ, self.epoch, self.sent)?;
            self.sent += 1;
        }
        let out = match self.lanes.recv() {
            Some(Ok(batch)) => batch,
            Some(Err(cause)) => return Err(self.dead(cause)),
            None => return Err(self.dead("decode pipeline exited".into())),
        };
        self.consumed += 1;
        if self.depth > 0 && self.sent < self.hello.requests_per_epoch {
            self.send(KIND_DATA_REQ, self.epoch, self.sent)?;
            self.sent += 1;
        }
        Ok(out)
    }

    /// Close an epoch: tell the server this rank is done and block until
    /// the fleet acks — which is also when the cross-node shuffle (if due
    /// this epoch) has completed on the servers.
    pub fn end_epoch(&mut self, epoch: u64) -> Result<(), CommError> {
        assert_eq!(
            self.consumed, self.hello.requests_per_epoch,
            "epoch ended early: {} of {} batches consumed",
            self.consumed, self.hello.requests_per_epoch
        );
        self.send(KIND_DATA_EOE, epoch, 0)?;
        match self.eoe.recv() {
            Ok(e) => {
                assert_eq!(e, epoch, "out-of-order epoch ack");
                Ok(())
            }
            // The reader died; its cause is waiting on the decode lanes.
            Err(_) => Err(self.dead(match self.lanes.recv() {
                Some(Err(cause)) => cause,
                _ => "server vanished at end of epoch".into(),
            })),
        }
    }

    /// Graceful teardown: BYE the server, close the socket, join threads.
    pub fn finish(self) {
        let _ = (&self.stream).write_all(&encode_bye(self.hello.rank));
        let _ = self.stream.shutdown(Shutdown::Both);
        let _ = self.reader.join();
        self.lanes.join();
    }
}

// ---------------------------------------------------------------------------
// BatchSource: one seam for both data paths
// ---------------------------------------------------------------------------

/// Where a trainer's mini-batches come from — the in-process [`Dimd`] +
/// [`Prefetcher`] path or the remote blob-server service — behind one
/// seam, so the training loop is identical either way. A dead peer — a
/// shuffle partner or the blob server — comes back as a [`CommError`].
pub trait BatchSource {
    /// Start an epoch (spins up the prefetch pipeline / request window).
    fn try_begin_epoch(&mut self, epoch: usize) -> Result<(), CommError>;
    /// The next `([n, 3, crop, crop], labels)` batch, in epoch order.
    fn try_next_batch(&mut self) -> Result<(Tensor, Vec<usize>), CommError>;
    /// Finish the epoch; `shuffle` runs the cross-node reshuffle (locally
    /// via [`Dimd::try_shuffle`], remotely by the server fleet — the
    /// service decides from the handshake cadence, so the flag is advisory
    /// there).
    fn try_end_epoch(&mut self, epoch: usize, shuffle: bool) -> Result<(), CommError>;
    /// Tear down: join the prefetch pipeline, or say BYE to the server.
    fn finish(self: Box<Self>);

    /// [`BatchSource::try_begin_epoch`], panicking with the report if a
    /// peer is dead.
    fn begin_epoch(&mut self, epoch: usize) {
        self.try_begin_epoch(epoch).unwrap_or_else(|e| panic!("{e}"))
    }
    /// [`BatchSource::try_next_batch`], panicking with the report if a peer
    /// is dead.
    fn next_batch(&mut self) -> (Tensor, Vec<usize>) {
        self.try_next_batch().unwrap_or_else(|e| panic!("{e}"))
    }
    /// [`BatchSource::try_end_epoch`], panicking with the report if a peer
    /// is dead.
    fn end_epoch(&mut self, epoch: usize, shuffle: bool) {
        self.try_end_epoch(epoch, shuffle).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The in-process path: a [`Dimd`] partition, optionally fronted by the
/// [`Prefetcher`] pipeline when `depth > 0`.
pub struct LocalSource<'a> {
    comm: &'a Comm,
    dimd: Option<Dimd>,
    pre: Option<Prefetcher>,
    epoch: usize,
    batches_per_epoch: usize,
    batch: usize,
    crop: usize,
    depth: usize,
    workers: usize,
    segment_bytes: usize,
}

impl<'a> LocalSource<'a> {
    /// Wrap a partition. `batches_per_epoch` counts the batches the trainer
    /// will draw per epoch (one per iteration).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        comm: &'a Comm,
        dimd: Dimd,
        batches_per_epoch: usize,
        batch: usize,
        crop: usize,
        depth: usize,
        workers: usize,
        segment_bytes: usize,
    ) -> LocalSource<'a> {
        LocalSource {
            comm,
            dimd: Some(dimd),
            pre: None,
            epoch: 0,
            batches_per_epoch,
            batch,
            crop,
            depth,
            workers,
            segment_bytes,
        }
    }
}

impl BatchSource for LocalSource<'_> {
    fn try_begin_epoch(&mut self, epoch: usize) -> Result<(), CommError> {
        self.epoch = epoch;
        if self.depth > 0 {
            self.pre = Some(Prefetcher::run_epoch_with(
                self.dimd.take().expect("partition present"),
                self.batches_per_epoch,
                self.batch,
                self.crop,
                self.depth,
                self.workers,
            ));
        }
        Ok(())
    }

    fn try_next_batch(&mut self) -> Result<(Tensor, Vec<usize>), CommError> {
        Ok(match &self.pre {
            Some(p) => p.next_batch(),
            None => {
                self.dimd.as_mut().expect("partition present").random_batch(self.batch, self.crop)
            }
        })
    }

    fn try_end_epoch(&mut self, epoch: usize, shuffle: bool) -> Result<(), CommError> {
        if let Some(p) = self.pre.take() {
            self.dimd = Some(p.finish());
        }
        if shuffle {
            let dimd = self.dimd.as_mut().expect("partition present");
            dimd.try_shuffle(self.comm, epoch as u64, self.segment_bytes)?;
        }
        Ok(())
    }

    fn finish(self: Box<Self>) {
        if let Some(p) = self.pre {
            p.finish();
        }
    }
}

/// The service path: batches come from a remote blob server via
/// [`ServiceClient`].
pub struct ServiceSource {
    client: ServiceClient,
}

impl ServiceSource {
    /// Connect this rank to its server (`addrs[rank % addrs.len()]`).
    #[allow(clippy::too_many_arguments)]
    pub fn connect(
        addrs: &[String],
        hello: Hello,
        crop: usize,
        depth: usize,
        workers: usize,
        timeout: Duration,
    ) -> io::Result<ServiceSource> {
        assert!(!addrs.is_empty(), "DCNN_DATA_SERVICE has no addresses");
        let idx = hello.rank % addrs.len();
        let client =
            ServiceClient::connect(&addrs[idx], idx, hello, crop, depth, workers, timeout)?;
        Ok(ServiceSource { client })
    }
}

impl BatchSource for ServiceSource {
    fn try_begin_epoch(&mut self, epoch: usize) -> Result<(), CommError> {
        self.client.begin_epoch(epoch as u64)
    }

    fn try_next_batch(&mut self) -> Result<(Tensor, Vec<usize>), CommError> {
        self.client.next_batch()
    }

    fn try_end_epoch(&mut self, epoch: usize, _shuffle: bool) -> Result<(), CommError> {
        self.client.end_epoch(epoch as u64)
    }

    fn finish(self: Box<Self>) {
        self.client.finish();
    }
}

/// Open a rank's batch source — the one place the data plane is chosen.
/// With `data_service` unset the rank samples `partition()` in-process;
/// with a comma-separated server list it dials its server instead
/// (retrying until `connect_timeout`) and `partition` is never called.
/// `hello` carries the batch size, requests per epoch and shuffle
/// segmentation both paths need.
#[allow(clippy::too_many_arguments)]
pub fn open_source<'a>(
    comm: &'a Comm,
    data_service: Option<&str>,
    partition: impl FnOnce() -> Dimd,
    hello: Hello,
    crop: usize,
    depth: usize,
    workers: usize,
    connect_timeout: Duration,
) -> io::Result<Box<dyn BatchSource + 'a>> {
    Ok(match data_service {
        None => Box::new(LocalSource::new(
            comm,
            partition(),
            hello.requests_per_epoch,
            hello.batch,
            crop,
            depth,
            workers,
            hello.segment_bytes as usize,
        )),
        Some(spec) => {
            let addrs: Vec<String> = spec.split(',').map(|s| s.trim().to_string()).collect();
            Box::new(ServiceSource::connect(&addrs, hello, crop, depth, workers, connect_timeout)?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::decode_augmented_batch;
    use crate::synth::{SynthConfig, SynthImageNet};
    use dcnn_collectives::run_cluster;

    const WORLD: usize = 2;
    const EPOCHS: usize = 2;
    const ITERS: usize = 3;
    const BATCH: usize = 4;
    const CROP: usize = 16;
    const QUALITY: u8 = 70;
    const SEED: u64 = 0x5EED;
    const SEG: u64 = 256; // tiny: forces multi-round segmented shuffles

    fn ds() -> SynthImageNet {
        let mut cfg = SynthConfig::tiny(3);
        cfg.train_per_class = 10;
        cfg.base_hw = 16;
        SynthImageNet::new(cfg)
    }

    fn partition(ds: &SynthImageNet, rank: usize) -> Dimd {
        Dimd::load_partition(ds, rank, WORLD, QUALITY, SEED ^ ((rank as u64) << 20))
    }

    fn hello(rank: usize) -> Hello {
        Hello {
            rank,
            world: WORLD,
            batch: BATCH,
            requests_per_epoch: ITERS,
            epochs: EPOCHS,
            shuffle_every: 1,
            segment_bytes: SEG,
        }
    }

    /// The in-process reference: every batch each rank would train on,
    /// with the cross-node shuffle between epochs.
    fn reference_batches() -> Vec<Vec<(Tensor, Vec<usize>)>> {
        let ds = ds();
        run_cluster(WORLD, |c| {
            let mut d = partition(&ds, c.rank());
            let mut out = Vec::new();
            for epoch in 0..EPOCHS {
                for _ in 0..ITERS {
                    out.push(d.random_batch(BATCH, CROP));
                }
                d.shuffle(c, epoch as u64, SEG as usize);
            }
            out
        })
    }

    /// Drive the full service with one server process-equivalent (a
    /// world-1 server fabric on a thread) and `WORLD` client threads.
    fn service_batches(depth: usize, workers: usize) -> Vec<Vec<(Tensor, Vec<usize>)>> {
        let ds = ds();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let parts: Vec<(usize, Dimd)> = (0..WORLD).map(|v| (v, partition(&ds, v))).collect();
            let parts = std::sync::Mutex::new(Some(parts));
            run_cluster(1, move |c| {
                let parts = parts.lock().expect("parts").take().expect("one server rank");
                serve_blocking(listener.try_clone().expect("clone listener"), c, parts, WORLD, None)
                    .expect("serve")
            })
        });
        let clients: Vec<_> = (0..WORLD)
            .map(|r| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut c = ServiceClient::connect(
                        &addr,
                        0,
                        hello(r),
                        CROP,
                        depth,
                        workers,
                        Duration::from_secs(10),
                    )
                    .expect("connect");
                    let mut out = Vec::new();
                    for epoch in 0..EPOCHS {
                        c.begin_epoch(epoch as u64).expect("server alive");
                        for _ in 0..ITERS {
                            out.push(c.next_batch().expect("server alive"));
                        }
                        c.end_epoch(epoch as u64).expect("server alive");
                    }
                    c.finish();
                    out
                })
            })
            .collect();
        let result: Vec<_> = clients.into_iter().map(|h| h.join().expect("client")).collect();
        let reports = server.join().expect("server");
        assert_eq!(reports[0].batches_served, WORLD * EPOCHS * ITERS);
        // Final epoch also shuffles (cadence 1), and the tiny cap forces
        // Algorithm 2's segmentation into multiple rounds.
        assert_eq!(reports[0].shuffle_rounds.len(), EPOCHS);
        assert!(reports[0].shuffle_rounds.iter().all(|&r| r >= 2), "{:?}", reports[0]);
        result
    }

    #[test]
    fn service_epoch_is_bitwise_identical_to_local() {
        let reference = reference_batches();
        // Synchronous client (depth 0) and a pipelined, parallel-decode
        // client must both reproduce the local path exactly.
        assert_eq!(service_batches(0, 1), reference);
        assert_eq!(service_batches(2, 3), reference);
    }

    #[test]
    fn a_record_the_codec_refuses_is_a_dead_link_not_a_panic() {
        let ds = ds();
        let (salt, mut records) = partition(&ds, 0).sample_batch_records(BATCH);
        let Ok(batch) = decode_job(salt, &pack(&records), CROP) else {
            panic!("a well-formed batch was refused");
        };
        assert_eq!(batch, decode_augmented_batch(&records, CROP, salt));

        records[2].0.truncate(40);
        let Err(cause) = decode_job(salt, &pack(&records), CROP) else {
            panic!("a truncated record decoded");
        };
        assert_eq!(cause, "malformed record: truncated at byte 40");

        let Err(cause) = decode_job(salt, &[1, 2, 3], CROP) else {
            panic!("a three-byte payload unpacked");
        };
        assert!(cause.starts_with("malformed batch payload"), "{cause}");
    }

    #[test]
    fn every_truncation_and_byte_flip_of_a_batch_is_ok_or_err_never_a_panic() {
        // The decode lanes run `decode_job` on whatever bytes a socket
        // delivered: a damaged body must come back `Ok` or `Err`.
        let ds = ds();
        let (salt, records) = partition(&ds, 0).sample_batch_records(2);
        let body = pack(&records);
        assert_eq!(decode_job(salt, &body, CROP), Ok(decode_augmented_batch(&records, CROP, salt)));
        // A cut inside a record's header or bytes is an error; a cut at a
        // record boundary is a shorter, well-formed batch.
        let boundary = 8 + records[0].0.len();
        for cut in 1..body.len() {
            let got = decode_job(salt, &body[..cut], CROP);
            assert_eq!(got.is_ok(), cut == boundary, "cut at {cut}: {got:?}");
        }
        let mut flipped_ok = 0;
        let mut bad = body.clone();
        for at in 0..body.len() {
            for mask in 1..=255u8 {
                bad[at] = body[at] ^ mask;
                flipped_ok += usize::from(decode_job(salt, &bad, CROP).is_ok());
            }
            bad[at] = body[at];
        }
        // Most flips land in coefficient bytes and decode to other pixels.
        assert!(flipped_ok > 0, "no flip decoded");
    }

    #[test]
    fn unreachable_server_fails_at_the_connect_timeout_naming_the_address() {
        // Bind, note the port, drop: nothing listens there now.
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("reserve a port")
            .to_string();
        let timeout = Duration::from_millis(300);
        let start = std::time::Instant::now();
        let err = ServiceClient::connect(&addr, 0, hello(0), CROP, 0, 1, timeout)
            .err()
            .expect("nothing listens there");
        let elapsed = start.elapsed();
        assert!(err.to_string().contains(&addr), "{err}");
        // It kept dialing until the deadline, and the last back-off sleep
        // was clamped to it: the timeout plus one refused connect, not plus
        // a 200 ms back-off step.
        assert!(elapsed >= timeout, "gave up after {elapsed:?}");
        assert!(elapsed < timeout + Duration::from_millis(100), "returned after {elapsed:?}");
    }

    #[test]
    fn dead_server_surfaces_structured_peer_death() {
        let ds = ds();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let parts: Vec<(usize, Dimd)> = (0..WORLD).map(|v| (v, partition(&ds, v))).collect();
            let parts = std::sync::Mutex::new(Some(parts));
            run_cluster(1, move |c| {
                let parts = parts.lock().expect("parts").take().expect("one server rank");
                serve_blocking(
                    listener.try_clone().expect("clone listener"),
                    c,
                    parts,
                    WORLD,
                    Some(2), // die after two batches
                )
            })
        });
        let clients: Vec<_> = (0..WORLD)
            .map(|r| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut c = ServiceClient::connect(
                        &addr,
                        0,
                        hello(r),
                        CROP,
                        2,
                        1,
                        Duration::from_secs(10),
                    )
                    .expect("connect");
                    let mut epochs = || -> Result<(), CommError> {
                        for epoch in 0..EPOCHS {
                            c.begin_epoch(epoch as u64)?;
                            for _ in 0..ITERS {
                                c.next_batch()?;
                            }
                            c.end_epoch(epoch as u64)?;
                        }
                        Ok(())
                    };
                    epochs().expect_err("client survived a dead server")
                })
            })
            .collect();
        let errors: Vec<CommError> =
            clients.into_iter().map(|h| h.join().expect("client thread")).collect();
        for (r, e) in errors.iter().enumerate() {
            let CommError::PeerDead { rank, peer, cause, phase, .. } = e;
            assert_eq!(*rank, r);
            assert_eq!(*peer, 0, "server index");
            assert!(cause.contains("data server"), "{cause:?}");
            // The injected crash drops the sockets mid-job: no goodbye.
            assert!(cause.contains("without BYE"), "{cause:?}");
            assert_eq!(phase.as_deref(), Some("data-plane"));
        }
        let report = server.join().expect("server thread");
        assert!(report[0].is_err(), "server should report the injected fault");
    }

    /// A world-1 server fabric hosting partition 0 (and 1 when
    /// `trainer_world` is 2) on a thread; `serve_blocking`'s result arrives
    /// on the receiver, which disconnects instead if the server panicked.
    fn hostile_server(trainer_world: usize) -> (String, Receiver<io::Result<ServeReport>>) {
        let ds = ds();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let parts: Vec<(usize, Dimd)> =
                (0..trainer_world).map(|v| (v, partition(&ds, v))).collect();
            let parts = std::sync::Mutex::new(Some(parts));
            let listener = std::sync::Mutex::new(Some(listener));
            run_cluster(1, move |c| {
                let parts = parts.lock().expect("parts").take().expect("one server rank");
                let listener = listener.lock().expect("listener").take().expect("one server rank");
                let _ = tx.send(serve_blocking(listener, c, parts, trainer_world, None));
            });
        });
        (addr, rx)
    }

    /// Dial `addr` and send `frames` as a client would; the socket stays
    /// open for as long as the caller holds it.
    fn raw_client(addr: &str, frames: &[(u8, WireMsg)]) -> TcpStream {
        let mut s = connect_with_backoff(addr, Duration::from_secs(10)).expect("dial");
        write_service_frames_vectored(&mut s, frames).expect("send");
        s
    }

    fn hello_frame(hello: Hello) -> (u8, WireMsg) {
        let payload = Payload::bytes(hello.encode());
        (KIND_DATA_REQ, WireMsg { src: hello.rank, comm_id: 0, tag: HELLO_TAG, payload })
    }

    /// `serve_blocking` must return an `InvalidData` error naming `want`
    /// and the client's address within a bound, without panicking.
    fn expect_refusal(rx: &Receiver<io::Result<ServeReport>>, want: &str) {
        let err = match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Err(e)) => e,
            Ok(Ok(report)) => panic!("served a hostile client: {report:?}"),
            Err(e) => panic!("server panicked or hung: {e}"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let text = err.to_string();
        assert!(text.contains(want) && text.contains("127.0.0.1"), "{text}");
    }

    #[test]
    fn forged_hello_for_a_rank_the_server_does_not_host_is_refused() {
        let (addr, rx) = hostile_server(1);
        let _c = raw_client(&addr, &[hello_frame(Hello { world: 1, ..hello(1) })]);
        expect_refusal(&rx, "client rank 1 at");
    }

    #[test]
    fn hello_with_the_wrong_world_is_refused() {
        let (addr, rx) = hostile_server(1);
        let _c = raw_client(&addr, &[hello_frame(hello(0))]);
        expect_refusal(&rx, "trainer world 2");
    }

    #[test]
    fn a_second_live_connection_for_a_rank_is_refused() {
        let (addr, rx) = hostile_server(2);
        let _first = raw_client(&addr, &[hello_frame(hello(0))]);
        let _second = raw_client(&addr, &[hello_frame(hello(0))]);
        expect_refusal(&rx, "duplicate handshake for rank 0");
    }

    #[test]
    fn an_out_of_order_request_is_refused() {
        let (addr, rx) = hostile_server(1);
        let req = WireMsg { src: 0, comm_id: 0, tag: 3, payload: Payload::bytes(Vec::new()) };
        let hello = Hello { world: 1, ..hello(0) };
        let _c = raw_client(&addr, &[hello_frame(hello), (KIND_DATA_REQ, req)]);
        expect_refusal(&rx, "requested batch 3 of epoch 0, expected batch 0");
    }
}
