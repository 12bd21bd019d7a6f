//! Recycled `f32` message buffers.
//!
//! Every `f32` message a collective receives arrives in a buffer the size
//! of the range it moves — on the FC workload 1 MiB sub-chunks, a dozen per
//! rank and step. Instead of allocating each one and freeing it after the
//! sum (on TCP also zero-filling it before the socket overwrites it), the
//! buffers cycle through a [`BufPool`] owned by the transport: one per
//! threaded cluster, where a send copies its slice into a pooled buffer
//! that becomes the receiver's, and one per TCP endpoint, where the reader
//! thread takes what it reads into (a send to a peer writes straight from
//! the caller's slice and takes none; a send of an owned payload returns
//! it once written).
//! [`crate::plan::execute`] returns every receive buffer once its elements
//! are summed or copied.
//!
//! A buffer is never grown or shrunk in place. A request takes the smallest
//! pooled buffer that holds it and is at most twice its size — a larger one
//! stays for the requests of its own size, so each message size keeps as
//! many buffers as it has messages alive at once — or allocates. The pool
//! holds at most `BufPool::CAP` (16) buffers; a full pool keeps the larger
//! of a returned buffer and its smallest one.

use std::sync::{Arc, Mutex};

use super::Payload;

/// A bounded free list of `f32` buffers, shared by the threads of one
/// transport (see the module docs).
#[derive(Debug, Default)]
pub struct BufPool {
    free: Mutex<Vec<Vec<f32>>>,
}

impl BufPool {
    /// The most buffers a pool holds: more than the messages two in-flight
    /// buckets of a two-rank multicolor exchange keep alive at once on one
    /// endpoint (at most 6 sent and 6 received).
    pub(crate) const CAP: usize = 16;

    /// The smallest pooled buffer holding `len` elements in at most twice
    /// their size.
    fn pop_fitting(&self, len: usize) -> Option<Vec<f32>> {
        let mut free = self.free.lock().expect("buffer pool poisoned by a panicking rank thread");
        let (i, _) = free
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len && b.capacity() / 2 <= len)
            .min_by_key(|(_, b)| b.capacity())?;
        Some(free.swap_remove(i))
    }

    /// `data` in a buffer of its own: a recycled one when one fits, else a
    /// fresh copy.
    pub(crate) fn copy_of(&self, data: &[f32]) -> Vec<f32> {
        match self.pop_fitting(data.len()) {
            Some(mut buf) => {
                buf.clear();
                buf.extend_from_slice(data);
                buf
            }
            None => data.to_vec(),
        }
    }

    /// A buffer of exactly `len` initialised elements for the caller to
    /// overwrite: a recycled one when one fits (only elements past its old
    /// length are written, with zeros), else a freshly zeroed one.
    pub(crate) fn take(&self, len: usize) -> Vec<f32> {
        match self.pop_fitting(len) {
            Some(mut buf) => {
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Give `buf` back for a later [`copy_of`](Self::copy_of) or
    /// [`take`](Self::take).
    pub(crate) fn put(&self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut free = self.free.lock().expect("buffer pool poisoned by a panicking rank thread");
        if free.len() < Self::CAP {
            free.push(buf);
        } else if let Some(smallest) = free.iter_mut().min_by_key(|b| b.capacity()) {
            if smallest.capacity() < buf.capacity() {
                *smallest = buf;
            }
        }
    }

    /// Give back a message's `f32` buffer, unless something else still
    /// shares it (a fanned-out payload) or it holds bytes.
    pub(crate) fn recycle(&self, payload: Payload) {
        if let Payload::F32(v) = payload {
            if let Ok(buf) = Arc::try_unwrap(v) {
                self.put(buf);
            }
        }
    }

    /// Buffers held right now.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.free.lock().expect("buffer pool poisoned by a panicking rank thread").len()
    }

    /// Whether the pool holds no buffer.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_fitting_buffer_is_reused_whatever_its_length() {
        let pool = BufPool::default();
        let old = vec![7.0f32; 100];
        let ptr = old.as_ptr();
        pool.put(old);
        // Shorter than the buffer: exactly `len` elements, same allocation.
        let data: Vec<f32> = (0..60).map(|i| i as f32 - 0.5).chain([-0.0, f32::NAN]).collect();
        let copy = pool.copy_of(&data);
        assert_eq!(copy.as_ptr(), ptr);
        assert_eq!(bits(&copy), bits(&data));
        pool.put(copy);
        // Longer than its length, within its capacity: lengthened in place.
        let taken = pool.take(90);
        assert_eq!((taken.len(), taken.as_ptr()), (90, ptr));
        pool.put(taken);
        // Longer than its capacity, or under half of it: a fresh buffer,
        // and the pooled one stays.
        assert_eq!(pool.take(101).len(), 101);
        assert_eq!(pool.copy_of(&[1.0; 49]), vec![1.0; 49]);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn the_smallest_buffer_within_twice_the_request_is_taken() {
        let pool = BufPool::default();
        for n in [64, 8, 32, 24] {
            pool.put(Vec::with_capacity(n));
        }
        assert_eq!(pool.take(16).capacity(), 24);
        assert_eq!(pool.take(16).capacity(), 32);
        // 64 is more than twice 16: left for a request of its own size.
        assert_eq!(pool.take(16).capacity(), 16);
        assert_eq!(pool.take(40).capacity(), 64);
        assert_eq!(pool.take(5).capacity(), 8);
        assert!(pool.is_empty());
    }

    #[test]
    fn the_pool_never_holds_more_than_its_cap_and_keeps_the_largest() {
        let pool = BufPool::default();
        for n in 1..=3 * BufPool::CAP {
            pool.put(vec![0.0; n]);
            assert!(pool.len() <= BufPool::CAP, "{} buffers after {n} puts", pool.len());
        }
        let mut held: Vec<usize> =
            pool.free.lock().expect("pool").iter().map(Vec::capacity).collect();
        held.sort_unstable();
        assert_eq!(held, (2 * BufPool::CAP + 1..=3 * BufPool::CAP).collect::<Vec<_>>());
        // A smaller buffer than any held one is dropped, not swapped in.
        pool.put(vec![0.0; 1]);
        assert_eq!(pool.len(), BufPool::CAP);
        assert!(pool.free.lock().expect("pool").iter().all(|b| b.capacity() > 2 * BufPool::CAP));
    }

    #[test]
    fn only_allocated_unshared_f32_buffers_come_back() {
        let pool = BufPool::default();
        pool.put(Vec::new());
        let shared = Payload::f32(vec![1.0; 4]);
        let other = shared.clone();
        pool.recycle(shared);
        pool.recycle(Payload::bytes(vec![1, 2]));
        assert!(pool.is_empty());
        pool.recycle(other);
        assert_eq!(pool.len(), 1);
    }
}
