//! The in-process backend: one `mpsc` inbox per rank thread.
//!
//! This is the refactored form of what the runtime originally hard-wired.
//! Payload buffers are `Arc`-shared ([`Payload`]), so a send moves a pointer
//! across the channel and the receiver that ends up sole owner takes the
//! buffer without copying — the same-process stand-in for zero-copy RDMA.
//! Because of that the whole fabric shares one [`BufPool`]: a buffer one
//! rank sends is the one its receiver returns.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use super::{BufPool, RecvPoll, Transport, WireMsg};

/// One rank's endpoint on the in-process fabric.
pub struct LocalTransport {
    rank: usize,
    /// Senders to every rank's inbox, indexed by global rank. Each rank owns
    /// a full row (including its own inbox, which also keeps `rx` connected
    /// while the rank lives).
    txs: Vec<Sender<WireMsg>>,
    /// The inbox. `mpsc::Receiver` is single-consumer; the runtime's router
    /// guarantees one polling thread at a time, and the mutex makes the
    /// endpoint shareable between a rank's main thread and its comm worker.
    rx: Mutex<Receiver<WireMsg>>,
    /// The fabric's one buffer pool.
    pool: Arc<BufPool>,
}

/// Build the full in-process fabric for `n` ranks: one endpoint per rank,
/// in rank order. Move each endpoint onto its rank's thread.
pub fn local_fabric(n: usize) -> Vec<LocalTransport> {
    let mut txs: Vec<Sender<WireMsg>> = Vec::with_capacity(n);
    let mut rxs: Vec<Receiver<WireMsg>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        txs.push(tx);
        rxs.push(rx);
    }
    let pool = Arc::new(BufPool::default());
    rxs.into_iter()
        .enumerate()
        .map(|(rank, rx)| LocalTransport {
            rank,
            txs: txs.clone(),
            rx: Mutex::new(rx),
            pool: Arc::clone(&pool),
        })
        .collect()
}

impl Transport for LocalTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.txs.len()
    }

    fn backend(&self) -> &'static str {
        "threads"
    }

    fn send(&self, dst: usize, msg: WireMsg) {
        // A hung-up peer (its thread panicked and dropped the inbox) must
        // not take the sender down with it — same contract as the TCP
        // backend, where writes to a dead peer are dropped and the failure
        // surfaces on the receive path instead.
        let _ = self.txs[dst].send(msg);
    }

    fn recv_timeout(&self, timeout: Duration) -> RecvPoll {
        match self.rx.lock().expect("inbox receiver").recv_timeout(timeout) {
            Ok(msg) => RecvPoll::Msg(msg),
            Err(RecvTimeoutError::Timeout) => RecvPoll::TimedOut,
            Err(RecvTimeoutError::Disconnected) => RecvPoll::Closed,
        }
    }

    fn pool(&self) -> &BufPool {
        &self.pool
    }

    fn shutdown(&self) {
        // Nothing buffered outside the channels themselves; queued messages
        // stay deliverable because receivers own their `rx` ends.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Payload;

    #[test]
    fn fabric_delivers_across_threads() {
        let mut fabric = local_fabric(2);
        let b = fabric.pop().expect("endpoint 1");
        let a = fabric.pop().expect("endpoint 0");
        let t = std::thread::spawn(move || {
            a.send(1, WireMsg { src: 0, comm_id: 0, tag: 5, payload: Payload::bytes(vec![9]) });
        });
        match b.recv_timeout(Duration::from_secs(5)) {
            RecvPoll::Msg(m) => {
                assert_eq!((m.src, m.tag), (0, 5));
                assert_eq!(m.payload.into_bytes(), vec![9]);
            }
            other => panic!("expected message, got {other:?}"),
        }
        t.join().expect("sender thread");
    }

    #[test]
    fn recv_times_out_when_idle() {
        let fabric = local_fabric(1);
        assert!(matches!(
            fabric[0].recv_timeout(Duration::from_millis(10)),
            RecvPoll::TimedOut
        ));
    }
}
