//! Hostile bytes against the checkpoint parsers. A `DCKP` (full replica) or
//! `DCKS` (one rank's shard) file is read back after a crash — exactly when
//! a partial write, a wrong file or bit rot is most likely — so
//! `Checkpoint::from_bytes` and `ShardCheckpoint::from_bytes` must answer
//! any bytes with a typed `Err`, never a panic, and never size an
//! allocation from an element count that has not been checked against the
//! buffer's length.

use dcnn_trainer::{Checkpoint, CheckpointError, ShardCheckpoint};

/// `DCKP` header: magic, epoch, u64 element count.
const FULL_HEADER: usize = 16;
/// `DCKS` header: magic, epoch, rank, world, offset, total, u64 count.
const SHARD_HEADER: usize = 40;

fn full() -> Checkpoint {
    Checkpoint {
        epoch: 3,
        params: vec![0.5, -1.25, 3.0, 1e-3, 7.5, -0.0],
        momentum: vec![0.1, 0.2, -0.3, 0.0, 9.0, 1.5],
    }
}

fn shard() -> ShardCheckpoint {
    full().to_shard(1, 2)
}

/// The error a single-byte change at `at` must produce in a buffer whose
/// header is `header` bytes long: the magic is checked first, then the
/// length the element count implies, then the CRC-32 trailer.
fn expected_kind(at: usize, header: usize) -> &'static str {
    match at {
        0..=3 => "magic",
        _ if (header - 8..header).contains(&at) => "length",
        _ => "checksum",
    }
}

fn kind(e: &CheckpointError) -> &'static str {
    match e {
        CheckpointError::TooShort { .. } => "short",
        CheckpointError::BadMagic { .. } => "magic",
        CheckpointError::Truncated { .. } => "length",
        CheckpointError::BadChecksum { .. } => "checksum",
        CheckpointError::ShardMismatch { .. } => "shard",
    }
}

/// Every proper prefix of `good` is refused: too short for the header, or
/// shorter than the header's count implies.
fn check_truncations(good: &[u8], header: usize, parse: impl Fn(&[u8]) -> Option<CheckpointError>) {
    for cut in 0..good.len() {
        let err = parse(&good[..cut]).unwrap_or_else(|| panic!("a {cut}-byte prefix parsed"));
        let want = if cut < header { "short" } else { "length" };
        assert_eq!(kind(&err), want, "cut at {cut}: {err}");
    }
}

/// Every single-byte change to `good` is refused, by the check that owns
/// the byte it hit.
fn check_mutations(good: &[u8], header: usize, parse: impl Fn(&[u8]) -> Option<CheckpointError>) {
    for at in 0..good.len() {
        for value in 0..=255u8 {
            if value == good[at] {
                continue;
            }
            let mut bad = good.to_vec();
            bad[at] = value;
            let err = parse(&bad).unwrap_or_else(|| panic!("byte {at} set to {value} parsed"));
            assert_eq!(kind(&err), expected_kind(at, header), "byte {at} set to {value}: {err}");
        }
    }
}

#[test]
fn valid_checkpoints_round_trip() {
    assert_eq!(Checkpoint::from_bytes(&full().to_bytes()), Ok(full()));
    assert_eq!(ShardCheckpoint::from_bytes(&shard().to_bytes()), Ok(shard()));
}

#[test]
fn every_truncation_is_refused() {
    check_truncations(&full().to_bytes(), FULL_HEADER, |b| Checkpoint::from_bytes(b).err());
    check_truncations(&shard().to_bytes(), SHARD_HEADER, |b| ShardCheckpoint::from_bytes(b).err());
}

#[test]
fn every_single_byte_mutation_is_refused() {
    check_mutations(&full().to_bytes(), FULL_HEADER, |b| Checkpoint::from_bytes(b).err());
    check_mutations(&shard().to_bytes(), SHARD_HEADER, |b| ShardCheckpoint::from_bytes(b).err());
}

#[test]
fn header_counts_that_overflow_the_length_are_refused_before_anything_is_sized_from_them() {
    // Each count asks for terabytes or more (or wraps the length arithmetic
    // outright) if believed: an allocation sized from it would abort the
    // test binary, so the test finishing at all is the proof. The bomb is
    // resealed, so only the length check stands between it and a parse.
    let per_element = 8u64; // one parameter and one momentum value
    for count in [
        u64::MAX,
        u64::MAX / per_element + 1, // the multiply overflows by one element
        u64::MAX / per_element,     // the multiply fits, the header on top does not
        1 << 40,
    ] {
        for (good, header) in [(full().to_bytes(), FULL_HEADER), (shard().to_bytes(), SHARD_HEADER)] {
            let mut bomb = good[..good.len() - 4].to_vec();
            bomb[header - 8..header].copy_from_slice(&count.to_le_bytes());
            let crc = dcnn_collectives::crc32(&bomb);
            bomb.extend_from_slice(&crc.to_le_bytes());
            let err = if header == FULL_HEADER {
                Checkpoint::from_bytes(&bomb).err()
            } else {
                ShardCheckpoint::from_bytes(&bomb).err()
            };
            let err = err.unwrap_or_else(|| panic!("count {count} parsed"));
            assert_eq!(kind(&err), "length", "count {count}: {err}");
        }
    }
}
