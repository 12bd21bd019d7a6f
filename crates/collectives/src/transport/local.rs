//! The in-process backend: one [`Mailbox`] per rank thread, delivered into
//! on the sending thread.
//!
//! Payload buffers are `Arc`-shared ([`Payload`]), so a send moves a pointer
//! into the receiver's mailbox and the receiver that ends up sole owner
//! takes the buffer without copying — the same-process stand-in for
//! zero-copy RDMA. Because of that the whole fabric shares one [`BufPool`]:
//! a buffer one rank sends is the one its receiver returns.
//!
//! [`Payload`]: super::Payload

use std::sync::Arc;

use super::{BufPool, Mailbox, Transport, WireMsg};

/// One rank's endpoint on the in-process fabric.
pub struct LocalTransport {
    rank: usize,
    /// Every rank's mailbox, indexed by global rank: a send delivers into
    /// the destination's before it returns.
    mailboxes: Arc<[Mailbox]>,
    /// The fabric's one buffer pool.
    pool: Arc<BufPool>,
}

/// Build the full in-process fabric for `n` ranks: one endpoint per rank,
/// in rank order. Move each endpoint onto its rank's thread.
pub fn local_fabric(n: usize) -> Vec<LocalTransport> {
    let mailboxes: Arc<[Mailbox]> = (0..n).map(|_| Mailbox::default()).collect();
    let pool = Arc::new(BufPool::default());
    (0..n)
        .map(|rank| LocalTransport {
            rank,
            mailboxes: Arc::clone(&mailboxes),
            pool: Arc::clone(&pool),
        })
        .collect()
}

impl Transport for LocalTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.mailboxes.len()
    }

    fn backend(&self) -> &'static str {
        "threads"
    }

    fn send(&self, dst: usize, msg: WireMsg) {
        // A peer whose thread panicked never takes the message; it waits in
        // the mailbox until the fabric is dropped — same contract as the TCP
        // backend, where writes to a dead peer are dropped.
        self.mailboxes[dst].deliver(msg);
    }

    fn mailbox(&self) -> &Mailbox {
        &self.mailboxes[self.rank]
    }

    fn pool(&self) -> &BufPool {
        &self.pool
    }

    fn shutdown(&self) {
        // Nothing is buffered outside the mailboxes, which outlive every
        // endpoint sharing them, so queued messages stay deliverable.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::next_arrival;
    use crate::transport::Payload;
    use std::time::Duration;

    #[test]
    fn fabric_delivers_across_threads() {
        let mut fabric = local_fabric(2);
        let b = fabric.pop().expect("endpoint 1");
        let a = fabric.pop().expect("endpoint 0");
        let t = std::thread::spawn(move || {
            a.send(1, WireMsg { src: 0, comm_id: 0, tag: 5, payload: Payload::bytes(vec![9]) });
        });
        let m = next_arrival(b.mailbox(), Duration::from_secs(5)).expect("expected message");
        assert_eq!((m.src, m.tag), (0, 5));
        assert_eq!(m.payload.into_bytes(), vec![9]);
        t.join().expect("sender thread");
    }

    #[test]
    fn recv_times_out_when_idle() {
        let fabric = local_fabric(1);
        assert!(next_arrival(fabric[0].mailbox(), Duration::from_millis(10)).is_none());
    }
}
