//! CRC-32 (IEEE 802.3) — record-level integrity for the blob store. A
//! 220 GB blob that lives for a multi-day 22k training run on GPFS wants
//! end-to-end checksums; every production record format (TFRecord,
//! RecordIO) carries them.
//!
//! The implementation lives in `dcnn_collectives::transport::crc` (the TCP
//! frame trailer uses the same polynomial, and the dependency already
//! points dimd → collectives); this module re-exports it so blob-store
//! code keeps its `crc::crc32` spelling. Records of 64 bytes or more are
//! checksummed by its `PCLMULQDQ` kernel where the CPU has one; the stored
//! CRCs are the same values either way, so blobs move between machines.

pub use dcnn_collectives::transport::{crc32, crc32_bytewise, crc32_update};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sliced_and_bytewise_agree_on_record_shaped_buffers() {
        // Blob records are arbitrary-length compressed byte runs; sweep the
        // alignment classes a record boundary can land on.
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1021, 4096] {
            let data: Vec<u8> =
                (0..len).map(|i| ((i as u32).wrapping_mul(2654435761) >> 13) as u8).collect();
            assert_eq!(crc32(&data), crc32_bytewise(&data), "len {len}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0xA5u8; 257];
        let base = crc32(&data);
        for byte in [0usize, 100, 256] {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "missed flip at {byte}:{bit}");
            }
        }
    }
}
