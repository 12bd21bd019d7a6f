//! The DIMD storage format: one big concatenated blob of compressed records
//! plus an index of `(offset, length, label)` — the paper's "two large files
//! for the training and validation data sets … \[and\] an index file which
//! contains the start location of each image along with its label id" (§4.1).

use crate::codec::{decode_image, encode_image};
use crate::crc::crc32;
use crate::image::RawImage;
use crate::synth::SynthImageNet;

/// Index entry for one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// Byte offset into the blob.
    pub offset: u64,
    /// Record length in bytes.
    pub len: u32,
    /// Class label.
    pub label: u32,
    /// CRC-32 of the record bytes (end-to-end integrity).
    pub crc: u32,
}

/// A concatenated-record store with an index.
#[derive(Debug, Clone, Default)]
pub struct BlobStore {
    /// Concatenated compressed records.
    pub data: Vec<u8>,
    /// One entry per record.
    pub index: Vec<RecordMeta>,
}

const FILE_MAGIC: &[u8; 4] = b"DIMD";

impl BlobStore {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total blob size in bytes (what occupies node memory).
    pub fn blob_bytes(&self) -> usize {
        self.data.len()
    }

    /// The raw bytes of record `i`.
    pub fn record(&self, i: usize) -> &[u8] {
        let m = self.index[i];
        &self.data[m.offset as usize..m.offset as usize + m.len as usize]
    }

    /// Label of record `i`.
    pub fn label(&self, i: usize) -> u32 {
        self.index[i].label
    }

    /// Decode record `i` back into an image.
    pub fn decode(&self, i: usize) -> RawImage {
        decode_image(self.record(i))
    }

    /// Append a pre-compressed record.
    pub fn push_record(&mut self, bytes: &[u8], label: u32) {
        let offset = self.data.len() as u64;
        self.data.extend_from_slice(bytes);
        self.index.push(RecordMeta { offset, len: bytes.len() as u32, label, crc: crc32(bytes) });
    }

    /// Check record `i`'s bytes against its stored CRC-32.
    pub fn verify(&self, i: usize) -> bool {
        crc32(self.record(i)) == self.index[i].crc
    }

    /// Index of the first corrupt record, if any.
    pub fn verify_all(&self) -> Option<usize> {
        (0..self.len()).find(|&i| !self.verify(i))
    }

    /// Build the training blob from a synthetic dataset, compressing records
    /// in `indices` order. `indices` selects which training records to
    /// include (a node's partition); pass `0..ds.train_len()` for the full set.
    pub fn build_train(
        ds: &SynthImageNet,
        indices: impl Iterator<Item = usize>,
        quality: u8,
        resize_shorter: Option<usize>,
    ) -> Self {
        let mut store = BlobStore::default();
        for i in indices {
            let img = ds.train_image(i);
            let img = match resize_shorter {
                Some(s) => img.resize_shorter_to(s),
                None => img,
            };
            store.push_record(&encode_image(&img, quality), ds.train_label(i) as u32);
        }
        store
    }

    /// Serialize to the on-disk format: magic, record count, index, blob.
    pub fn to_file_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.index.len() * 20 + self.data.len());
        out.extend_from_slice(FILE_MAGIC);
        out.extend_from_slice(&(self.index.len() as u64).to_le_bytes());
        for m in &self.index {
            out.extend_from_slice(&m.offset.to_le_bytes());
            out.extend_from_slice(&m.len.to_le_bytes());
            out.extend_from_slice(&m.label.to_le_bytes());
            out.extend_from_slice(&m.crc.to_le_bytes());
        }
        out.extend_from_slice(&self.data);
        out
    }

    /// Parse the on-disk format.
    ///
    /// # Panics
    /// Panics on malformed input.
    pub fn from_file_bytes(bytes: &[u8]) -> Self {
        assert!(bytes.len() >= 12 && &bytes[0..4] == FILE_MAGIC, "bad DIMD magic");
        let n = u64::from_le_bytes(bytes[4..12].try_into().expect("8")) as usize;
        let mut index = Vec::with_capacity(n);
        let mut pos = 12usize;
        for _ in 0..n {
            let offset = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8"));
            let len = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4"));
            let label = u32::from_le_bytes(bytes[pos + 12..pos + 16].try_into().expect("4"));
            let crc = u32::from_le_bytes(bytes[pos + 16..pos + 20].try_into().expect("4"));
            index.push(RecordMeta { offset, len, label, crc });
            pos += 20;
        }
        BlobStore { data: bytes[pos..].to_vec(), index }
    }

    /// Average record size in bytes (0 when empty).
    pub fn avg_record_bytes(&self) -> f64 {
        if self.index.is_empty() {
            0.0
        } else {
            self.data.len() as f64 / self.index.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::psnr;
    use crate::synth::{SynthConfig, SynthImageNet};

    fn small_ds() -> SynthImageNet {
        let mut cfg = SynthConfig::tiny(3);
        cfg.train_per_class = 6;
        SynthImageNet::new(cfg)
    }

    #[test]
    fn build_and_access() {
        let ds = small_ds();
        let store = BlobStore::build_train(&ds, 0..ds.train_len(), 60, None);
        assert_eq!(store.len(), 18);
        for i in 0..store.len() {
            assert_eq!(store.label(i) as usize, ds.train_label(i));
            let dec = store.decode(i);
            let orig = ds.train_image(i);
            assert!(psnr(&orig, &dec) > 24.0, "record {i}");
        }
    }

    #[test]
    fn partition_build_selects_subset() {
        let ds = small_ds();
        let store = BlobStore::build_train(&ds, (0..18).filter(|i| i % 3 == 1), 60, None);
        assert_eq!(store.len(), 6);
        assert_eq!(store.label(0), 0); // index 1 is class 0
        assert_eq!(store.label(5), 2); // index 16 is class 2
    }

    #[test]
    fn file_roundtrip() {
        let ds = small_ds();
        let store = BlobStore::build_train(&ds, 0..6, 70, None);
        let bytes = store.to_file_bytes();
        let back = BlobStore::from_file_bytes(&bytes);
        assert_eq!(back.index, store.index);
        assert_eq!(back.data, store.data);
    }

    #[test]
    fn resize_shorter_applies_at_build() {
        let mut cfg = SynthConfig::tiny(1);
        cfg.train_per_class = 2;
        cfg.base_hw = 40;
        let ds = SynthImageNet::new(cfg);
        let store = BlobStore::build_train(&ds, 0..2, 60, Some(24));
        let img = store.decode(0);
        assert_eq!(img.h.min(img.w), 24);
    }

    #[test]
    fn offsets_are_contiguous() {
        let ds = small_ds();
        let store = BlobStore::build_train(&ds, 0..10, 60, None);
        let mut expect = 0u64;
        for m in &store.index {
            assert_eq!(m.offset, expect);
            expect += m.len as u64;
        }
        assert_eq!(expect as usize, store.data.len());
    }

    #[test]
    fn crc_verification_catches_corruption() {
        let ds = small_ds();
        let mut store = BlobStore::build_train(&ds, 0..6, 60, None);
        assert_eq!(store.verify_all(), None);
        // Flip a byte in record 3's payload.
        let off = store.index[3].offset as usize + 2;
        store.data[off] ^= 0x40;
        assert!(!store.verify(3));
        assert_eq!(store.verify_all(), Some(3));
        // And a serialized round-trip carries the CRCs.
        store.data[off] ^= 0x40;
        let back = BlobStore::from_file_bytes(&store.to_file_bytes());
        assert_eq!(back.verify_all(), None);
    }

    #[test]
    fn avg_record_bytes_sane() {
        let ds = small_ds();
        let store = BlobStore::build_train(&ds, 0..18, 60, None);
        let avg = store.avg_record_bytes();
        // 32×32×3 = 3072 raw; compressed should be well under that.
        assert!(avg > 50.0 && avg < 3072.0, "avg {avg}");
        assert_eq!(BlobStore::default().avg_record_bytes(), 0.0);
    }

    #[test]
    #[should_panic]
    fn bad_file_magic_panics() {
        let _ = BlobStore::from_file_bytes(&[1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0]);
    }
}
