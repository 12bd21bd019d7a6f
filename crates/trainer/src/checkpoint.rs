//! Checkpointing: capture and restore the full training state (weights +
//! optimizer momentum), with a compact binary format. Multi-day ImageNet-22k
//! runs on the paper's cluster cannot afford to lose progress; this is the
//! mechanism a production deployment of the system needs.
//!
//! Two on-disk formats share the machinery, each closed by a CRC-32 of
//! everything before it so a flipped bit is an error, not a restored state:
//!
//! * `DCKP` — a full replica: every parameter and every momentum value.
//! * `DCKS` — one rank's shard under the sharded optimizer
//!   ([`crate::shard::ShardMap`]): that rank's owned slice of the parameters
//!   and of the momentum (its velocity buffer), plus the
//!   [`ShardMeta`] needed to reassemble. [`Checkpoint::merge`] stitches a
//!   full world of shards back into a `DCKP`-equivalent [`Checkpoint`] —
//!   byte-identical to what a replicated run would have captured at the same
//!   step, because the sharded trajectory is bitwise identical — and
//!   [`Checkpoint::to_shard`] slices a full checkpoint for a rank, so an
//!   aborted run restores into either strategy regardless of which one
//!   wrote the files.

use dcnn_collectives::crc32;
use dcnn_tensor::layers::{collect_momentum, collect_params, set_momentum, set_params, Module};

use crate::shard::ShardMap;

const MAGIC: &[u8; 4] = b"DCKP";
const SHARD_MAGIC: &[u8; 4] = b"DCKS";

/// Why a serialized checkpoint failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Shorter than the fixed 16-byte header.
    TooShort {
        /// Bytes actually present.
        len: usize,
    },
    /// The first four bytes are not the `DCKP` magic.
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// Header promised `expected` bytes of payload; the buffer has `len`.
    Truncated {
        /// Total length the header implies.
        expected: usize,
        /// Total length actually present.
        len: usize,
    },
    /// The CRC-32 trailer does not match the bytes before it.
    BadChecksum {
        /// The checksum the trailer holds.
        expected: u32,
        /// The checksum of the bytes actually present.
        found: u32,
    },
    /// A set of shard checkpoints cannot be merged into one full state.
    ShardMismatch {
        /// What disagreed (world size, epoch, offsets, …).
        why: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::TooShort { len } => {
                write!(f, "checkpoint buffer too short: {len} bytes, header needs 16")
            }
            CheckpointError::BadMagic { found } => {
                write!(f, "bad checkpoint magic {found:02x?}, expected {MAGIC:02x?}")
            }
            CheckpointError::Truncated { expected, len } => {
                write!(f, "truncated checkpoint: header implies {expected} bytes, got {len}")
            }
            CheckpointError::BadChecksum { expected, found } => {
                write!(f, "checkpoint checksum {found:08x}, trailer says {expected:08x}")
            }
            CheckpointError::ShardMismatch { why } => {
                write!(f, "shard checkpoints do not merge: {why}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Close a serialized checkpoint with the CRC-32 of everything in it.
fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Check a serialized checkpoint of either format — `header` bytes opening
/// with `magic` and ending in the u64 element count `n`, then `n` parameters
/// and `n` momentum values, then the CRC-32 trailer — and return `n`.
fn open(bytes: &[u8], magic: &[u8; 4], header: usize) -> Result<usize, CheckpointError> {
    if bytes.len() < header {
        return Err(CheckpointError::TooShort { len: bytes.len() });
    }
    if &bytes[0..4] != magic {
        return Err(CheckpointError::BadMagic { found: bytes[0..4].try_into().expect("4") });
    }
    let n = u64::from_le_bytes(bytes[header - 8..header].try_into().expect("8")) as usize;
    let expected = header.saturating_add(n.saturating_mul(8)).saturating_add(4);
    if bytes.len() != expected {
        return Err(CheckpointError::Truncated { expected, len: bytes.len() });
    }
    let (body, trailer) = bytes.split_at(expected - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4"));
    let found = crc32(body);
    if found != stored {
        return Err(CheckpointError::BadChecksum { expected: stored, found });
    }
    Ok(n)
}

/// `count` little-endian f32s starting at byte `off`.
fn read_f32s(bytes: &[u8], off: usize, count: usize) -> Vec<f32> {
    bytes[off..off + 4 * count]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
        .collect()
}

/// A point-in-time training state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Epochs completed when the checkpoint was taken.
    pub epoch: u32,
    /// Flattened model parameters.
    pub params: Vec<f32>,
    /// Flattened SGD momentum buffers.
    pub momentum: Vec<f32>,
}

impl Checkpoint {
    /// Capture the state of `m`.
    pub fn capture(m: &mut dyn Module, epoch: u32) -> Self {
        Checkpoint { epoch, params: collect_params(m), momentum: collect_momentum(m) }
    }

    /// Restore this state into `m` (which must have the same architecture).
    ///
    /// # Panics
    /// Panics if the parameter counts don't match.
    pub fn restore(&self, m: &mut dyn Module) {
        set_params(m, &self.params);
        set_momentum(m, &self.momentum);
    }

    /// Serialize to a byte buffer (`DCKP` header + params + momentum +
    /// CRC-32 trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + 4 * (self.params.len() + self.momentum.len()));
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.params.len() as u64).to_le_bytes());
        for v in &self.params {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in &self.momentum {
            out.extend_from_slice(&v.to_le_bytes());
        }
        seal(out)
    }

    /// Parse a serialized checkpoint. A malformed buffer (a partial write,
    /// a wrong file, bit rot) comes back as a typed [`CheckpointError`]
    /// rather than a panic, so a resume path can fall back to earlier
    /// checkpoints.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let n = open(bytes, MAGIC, 16)?;
        let epoch = u32::from_le_bytes(bytes[4..8].try_into().expect("4"));
        Ok(Checkpoint {
            epoch,
            params: read_f32s(bytes, 16, n),
            momentum: read_f32s(bytes, 16 + 4 * n, n),
        })
    }

    /// Write the serialized checkpoint to `path` via a `.tmp` sibling and a
    /// rename, so a crash mid-write never leaves a half-written file under
    /// the final name (the abort path runs exactly when things are failing).
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)
    }

    /// Read and parse a checkpoint file; a malformed file surfaces as an
    /// `InvalidData` I/O error wrapping the [`CheckpointError`].
    pub fn read_from(path: &std::path::Path) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Slice this full checkpoint down to `rank`'s shard under a
    /// `world`-rank [`ShardMap`] — the bridge from a replicated run into a
    /// sharded one (each rank keeps only its owned momentum slice as its
    /// velocity buffer).
    pub fn to_shard(&self, rank: usize, world: usize) -> ShardCheckpoint {
        let sm = ShardMap::new(self.params.len(), world);
        let owned = sm.owned(rank);
        ShardCheckpoint {
            epoch: self.epoch,
            meta: ShardMeta {
                rank: rank as u32,
                world: world as u32,
                offset: owned.start as u64,
                total: self.params.len() as u64,
            },
            params: self.params[owned.clone()].to_vec(),
            momentum: self.momentum[owned].to_vec(),
        }
    }

    /// Reassemble one full checkpoint from a complete world of shard
    /// checkpoints (any order). The result is byte-identical to the `DCKP`
    /// checkpoint a replicated run would have written at the same step,
    /// since shard boundaries follow the canonical [`ShardMap`] and the
    /// sharded trajectory matches the replicated one bitwise.
    pub fn merge(shards: &[ShardCheckpoint]) -> Result<Self, CheckpointError> {
        let mismatch = |why: String| CheckpointError::ShardMismatch { why };
        let first = shards.first().ok_or_else(|| mismatch("no shards given".into()))?;
        let world = first.meta.world as usize;
        let total = first.meta.total as usize;
        if shards.len() != world {
            return Err(mismatch(format!("{} shard(s) for world size {world}", shards.len())));
        }
        let sm = ShardMap::new(total, world);
        let mut params = vec![0.0f32; total];
        let mut momentum = vec![0.0f32; total];
        let mut seen = vec![false; world];
        for s in shards {
            let r = s.meta.rank as usize;
            if s.meta.world as usize != world || s.meta.total as usize != total {
                return Err(mismatch(format!(
                    "rank {r} captured world {} / total {}, expected {world} / {total}",
                    s.meta.world, s.meta.total
                )));
            }
            if s.epoch != first.epoch {
                return Err(mismatch(format!(
                    "rank {r} is at epoch {}, rank {} at {}",
                    s.epoch, first.meta.rank, first.epoch
                )));
            }
            if r >= world || std::mem::replace(&mut seen[r], true) {
                return Err(mismatch(format!("rank {r} out of range or duplicated")));
            }
            let owned = sm.owned(r);
            if s.meta.offset as usize != owned.start || s.params.len() != owned.len() {
                return Err(mismatch(format!(
                    "rank {r} holds [{}, +{}), canonical shard is [{}, +{})",
                    s.meta.offset,
                    s.params.len(),
                    owned.start,
                    owned.len()
                )));
            }
            params[owned.clone()].copy_from_slice(&s.params);
            momentum[owned].copy_from_slice(&s.momentum);
        }
        Ok(Checkpoint { epoch: first.epoch, params, momentum })
    }
}

/// Which slice of the flattened parameter vector a [`ShardCheckpoint`]
/// holds, and for which cluster shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMeta {
    /// Owning rank.
    pub rank: u32,
    /// World size the shard map was built for.
    pub world: u32,
    /// Start of the owned range within the flattened vector.
    pub offset: u64,
    /// Full flattened parameter count (all shards together).
    pub total: u64,
}

/// One rank's slice of the training state under the sharded optimizer:
/// owned parameters and owned momentum (the velocity buffer), `DCKS` on
/// disk. See [`Checkpoint::merge`] / [`Checkpoint::to_shard`] for the
/// conversions to and from the full `DCKP` state.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// Epochs completed when the shard was taken.
    pub epoch: u32,
    /// Shard placement metadata.
    pub meta: ShardMeta,
    /// Owned slice of the flattened parameters.
    pub params: Vec<f32>,
    /// Owned slice of the momentum (shard-local velocity).
    pub momentum: Vec<f32>,
}

impl ShardCheckpoint {
    /// Serialize to a byte buffer (`DCKS` header + owned params + owned
    /// momentum + CRC-32 trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(44 + 4 * (self.params.len() + self.momentum.len()));
        out.extend_from_slice(SHARD_MAGIC);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.meta.rank.to_le_bytes());
        out.extend_from_slice(&self.meta.world.to_le_bytes());
        out.extend_from_slice(&self.meta.offset.to_le_bytes());
        out.extend_from_slice(&self.meta.total.to_le_bytes());
        out.extend_from_slice(&(self.params.len() as u64).to_le_bytes());
        for v in &self.params {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in &self.momentum {
            out.extend_from_slice(&v.to_le_bytes());
        }
        seal(out)
    }

    /// Parse a serialized shard checkpoint; malformed buffers come back as
    /// the same typed [`CheckpointError`]s the full format uses.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let n = open(bytes, SHARD_MAGIC, 40)?;
        let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4"));
        let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8"));
        Ok(ShardCheckpoint {
            epoch: u32_at(4),
            meta: ShardMeta {
                rank: u32_at(8),
                world: u32_at(12),
                offset: u64_at(16),
                total: u64_at(24),
            },
            params: read_f32s(bytes, 40, n),
            momentum: read_f32s(bytes, 40 + 4 * n, n),
        })
    }

    /// Write the serialized shard to `path` via a `.tmp` sibling and a
    /// rename, like [`Checkpoint::write_to`].
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)
    }

    /// Read and parse a shard checkpoint file; malformed files surface as
    /// `InvalidData` I/O errors wrapping the [`CheckpointError`].
    pub fn read_from(path: &std::path::Path) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnn_models::resnet::ResNetConfig;
    use dcnn_tensor::layers::zero_grads;
    use dcnn_tensor::loss::SoftmaxCrossEntropy;
    use dcnn_tensor::optim::{Sgd, SgdConfig};
    use dcnn_tensor::Tensor;

    fn model() -> Box<dyn Module> {
        ResNetConfig {
            blocks: vec![1],
            base_width: 4,
            bottleneck: false,
            classes: 3,
            input: [3, 8, 8],
            imagenet_stem: false,
        }
        .build(5)
    }

    fn train_steps(m: &mut dyn Module, steps: usize, seed: u64) -> f64 {
        let sgd = Sgd::new(SgdConfig::default());
        let crit = SoftmaxCrossEntropy;
        let mut last = 0.0;
        for s in 0..steps {
            let x = Tensor::randn(&[4, 3, 8, 8], 1.0, seed + s as u64);
            let labels = [0usize, 1, 2, 0];
            zero_grads(m);
            let y = m.forward(&x, true);
            let out = crit.forward(&y, &labels);
            let _ = m.backward(&out.grad);
            sgd.step(m, 0.05);
            last = out.loss;
        }
        last
    }

    #[test]
    fn roundtrip_bytes() {
        let mut m = model();
        train_steps(m.as_mut(), 3, 1);
        let ck = Checkpoint::capture(m.as_mut(), 7);
        let back = Checkpoint::from_bytes(&ck.to_bytes()).expect("roundtrip parses");
        assert_eq!(back, ck);
        assert_eq!(back.epoch, 7);
    }

    #[test]
    fn resume_is_bit_exact() {
        // Train 6 steps straight vs train 3, checkpoint, restore into a
        // fresh model, train 3 more: identical losses and weights (momentum
        // must be part of the state for this to hold).
        let mut a = model();
        let direct = {
            train_steps(a.as_mut(), 3, 9);
            train_steps(a.as_mut(), 3, 9 + 3)
        };
        let mut b = model();
        train_steps(b.as_mut(), 3, 9);
        let ck = Checkpoint::capture(b.as_mut(), 3);
        let mut c = model();
        ck.restore(c.as_mut());
        let resumed = train_steps(c.as_mut(), 3, 9 + 3);
        assert_eq!(direct, resumed, "resume diverged");
        assert_eq!(collect_params(a.as_mut()), collect_params(c.as_mut()));
    }

    #[test]
    fn momentum_matters() {
        // Restoring without momentum (params only) must diverge — guards
        // against silently dropping optimizer state.
        let mut a = model();
        train_steps(a.as_mut(), 3, 2);
        let ck = Checkpoint::capture(a.as_mut(), 3);
        let direct = train_steps(a.as_mut(), 2, 40);

        let mut b = model();
        set_params(b.as_mut(), &ck.params); // no momentum restore
        let partial = train_steps(b.as_mut(), 2, 40);
        assert_ne!(direct, partial, "momentum had no effect?");
    }

    #[test]
    fn too_short_buffer_is_typed_error() {
        assert_eq!(Checkpoint::from_bytes(&[0u8; 3]), Err(CheckpointError::TooShort { len: 3 }));
        assert_eq!(Checkpoint::from_bytes(&[]), Err(CheckpointError::TooShort { len: 0 }));
    }

    #[test]
    fn bad_magic_is_typed_error() {
        assert_eq!(
            Checkpoint::from_bytes(&[0u8; 20]),
            Err(CheckpointError::BadMagic { found: [0, 0, 0, 0] })
        );
    }

    #[test]
    fn truncated_buffer_is_typed_error() {
        let mut m = model();
        let full = Checkpoint::capture(m.as_mut(), 1).to_bytes();
        // Chop one byte off the end: header still promises the full size.
        let err = Checkpoint::from_bytes(&full[..full.len() - 1]).expect_err("truncated");
        assert_eq!(err, CheckpointError::Truncated { expected: full.len(), len: full.len() - 1 });
        // A corrupt (absurd) count must error, not attempt a huge allocation.
        let mut bomb = full[..16].to_vec();
        bomb[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(Checkpoint::from_bytes(&bomb), Err(CheckpointError::Truncated { .. })));
    }

    #[test]
    fn a_flipped_bit_anywhere_past_the_header_is_a_bad_checksum() {
        let mut m = model();
        train_steps(m.as_mut(), 2, 3);
        let full = Checkpoint::capture(m.as_mut(), 1);
        let n = full.params.len();
        let flipped = |bytes: &[u8], at: usize| {
            let mut b = bytes.to_vec();
            b[at] ^= 0x10;
            b
        };
        let bytes = full.to_bytes();
        let shard = full.to_shard(1, 2);
        let shard_bytes = shard.to_bytes();
        let sn = shard.params.len();
        // One bit in the params, in the momentum, in the trailer.
        for at in [16 + 4 * (n / 2), 16 + 4 * n + 4 * (n / 2) + 1, bytes.len() - 1] {
            let err = Checkpoint::from_bytes(&flipped(&bytes, at)).expect_err("bit rot");
            assert!(matches!(err, CheckpointError::BadChecksum { .. }), "byte {at}: {err}");
        }
        for at in [40 + 4 * (sn / 2), 40 + 4 * sn + 4 * (sn / 2) + 1, shard_bytes.len() - 1] {
            let err = ShardCheckpoint::from_bytes(&flipped(&shard_bytes, at)).expect_err("bit rot");
            assert!(matches!(err, CheckpointError::BadChecksum { .. }), "byte {at}: {err}");
        }
        // The error carries both checksums, and they differ.
        let Err(CheckpointError::BadChecksum { expected, found }) =
            Checkpoint::from_bytes(&flipped(&bytes, 20))
        else {
            panic!("a flipped parameter bit must be a BadChecksum");
        };
        assert_eq!(expected, u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4")));
        assert_ne!(expected, found);
    }

    #[test]
    fn file_roundtrip_and_garbage_file_is_invalid_data() {
        let dir = std::env::temp_dir().join(format!("dcnn-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("state.ckpt");
        let mut m = model();
        let ck = Checkpoint::capture(m.as_mut(), 2);
        ck.write_to(&path).expect("write");
        let back = Checkpoint::read_from(&path).expect("read");
        assert_eq!(back, ck);
        std::fs::write(&path, b"garbage").expect("overwrite");
        let err = Checkpoint::read_from(&path).expect_err("garbage must not parse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_messages_name_the_cause() {
        let s = CheckpointError::Truncated { expected: 32, len: 20 }.to_string();
        assert!(s.contains("32") && s.contains("20"), "{s}");
        let s = CheckpointError::BadMagic { found: *b"NOPE" }.to_string();
        assert!(s.contains("magic"), "{s}");
        let s = CheckpointError::BadChecksum { expected: 0xdead_beef, found: 1 }.to_string();
        assert!(s.contains("deadbeef") && s.contains("00000001"), "{s}");
        let s = CheckpointError::ShardMismatch { why: "epoch skew".into() }.to_string();
        assert!(s.contains("epoch skew"), "{s}");
    }

    #[test]
    fn shard_roundtrip_bytes_and_file() {
        let mut m = model();
        train_steps(m.as_mut(), 2, 6);
        let shard = Checkpoint::capture(m.as_mut(), 4).to_shard(1, 3);
        let back = ShardCheckpoint::from_bytes(&shard.to_bytes()).expect("roundtrip");
        assert_eq!(back, shard);

        let dir = std::env::temp_dir().join(format!("dcnn-shard-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("shard.ckpt");
        shard.write_to(&path).expect("write");
        assert_eq!(ShardCheckpoint::read_from(&path).expect("read"), shard);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn to_shard_then_merge_is_byte_identity() {
        // Slicing a full checkpoint into a world of shards and merging them
        // back must reproduce the original serialization exactly — the
        // property the sharded-run checkpoint path rests on. Uneven world
        // sizes exercise the remainder-carrying shard boundaries.
        let mut m = model();
        train_steps(m.as_mut(), 3, 8);
        let full = Checkpoint::capture(m.as_mut(), 11);
        for world in [1usize, 2, 3, 5] {
            let shards: Vec<ShardCheckpoint> =
                (0..world).rev().map(|r| full.to_shard(r, world)).collect();
            let merged = Checkpoint::merge(&shards).expect("complete world merges");
            assert_eq!(merged.to_bytes(), full.to_bytes(), "world {world}");
        }
    }

    #[test]
    fn merge_rejects_inconsistent_shards() {
        let mut m = model();
        let full = Checkpoint::capture(m.as_mut(), 2);
        assert!(matches!(Checkpoint::merge(&[]), Err(CheckpointError::ShardMismatch { .. })));
        // Missing a rank.
        let partial = [full.to_shard(0, 3), full.to_shard(1, 3)];
        assert!(matches!(Checkpoint::merge(&partial), Err(CheckpointError::ShardMismatch { .. })));
        // Duplicate rank.
        let dup = [full.to_shard(0, 2), full.to_shard(0, 2)];
        assert!(matches!(Checkpoint::merge(&dup), Err(CheckpointError::ShardMismatch { .. })));
        // Epoch skew.
        let mut skew = [full.to_shard(0, 2), full.to_shard(1, 2)];
        skew[1].epoch = 3;
        let err = Checkpoint::merge(&skew).expect_err("skewed epochs");
        assert!(err.to_string().contains("epoch"), "{err}");
    }

    #[test]
    fn sharded_world_checkpoints_merge_and_cross_restore_bitwise() {
        // A miniature sharded "cluster" without a communicator: every rank
        // holds a full replica (identical batches stand in for the
        // allreduce), steps only its owned range with a shard velocity, and
        // "allgathers" by splicing owned params together. Against it, one
        // replicated model takes the same batches. Verifies the whole
        // satellite-(d) matrix: shard checkpoints merge byte-identical to
        // the replicated checkpoint, and restore crosses strategies in both
        // directions without losing a bit.
        use crate::shard::ShardMap;
        use dcnn_tensor::layers::release_momentum;

        let world = 3usize;
        let lr = 0.05f32;
        let sgd = Sgd::new(SgdConfig::default());
        let crit = SoftmaxCrossEntropy;
        let backward = |m: &mut dyn Module, s: u64| {
            let x = Tensor::randn(&[4, 3, 8, 8], 1.0, s);
            let labels = [0usize, 1, 2, 0];
            zero_grads(m);
            let y = m.forward(&x, true);
            let out = crit.forward(&y, &labels);
            let _ = m.backward(&out.grad);
        };

        let mut rep = model();
        let total = collect_params(rep.as_mut()).len();
        let sm = ShardMap::new(total, world);
        let mut ranks: Vec<Box<dyn Module>> = (0..world).map(|_| model()).collect();
        let mut vel: Vec<Vec<f32>> = (0..world).map(|r| vec![0.0f32; sm.owned(r).len()]).collect();
        for m in &mut ranks {
            release_momentum(m.as_mut());
        }
        let sharded_step = |ranks: &mut [Box<dyn Module>], vel: &mut [Vec<f32>], s: u64| {
            let mut gathered = vec![0.0f32; total];
            for (r, m) in ranks.iter_mut().enumerate() {
                backward(m.as_mut(), s);
                sgd.step_range(m.as_mut(), lr, sm.owned(r), &mut vel[r]);
                let p = collect_params(m.as_mut());
                gathered[sm.owned(r)].copy_from_slice(&p[sm.owned(r)]);
            }
            for m in ranks.iter_mut() {
                set_params(m.as_mut(), &gathered);
            }
        };

        for s in 0..3 {
            backward(rep.as_mut(), s);
            sgd.step(rep.as_mut(), lr);
            sharded_step(&mut ranks, &mut vel, s);
        }

        // (1) Shards merge byte-identical to the replicated checkpoint.
        let shards: Vec<ShardCheckpoint> = (0..world)
            .map(|r| {
                let p = collect_params(ranks[r].as_mut());
                ShardCheckpoint {
                    epoch: 5,
                    meta: ShardMeta {
                        rank: r as u32,
                        world: world as u32,
                        offset: sm.owned(r).start as u64,
                        total: total as u64,
                    },
                    params: p[sm.owned(r)].to_vec(),
                    momentum: vel[r].clone(),
                }
            })
            .collect();
        let merged = Checkpoint::merge(&shards).expect("complete world merges");
        let full = Checkpoint::capture(rep.as_mut(), 5);
        assert_eq!(merged.to_bytes(), full.to_bytes(), "merge must be byte-identical");

        // (2) Sharded → replicated: the merged state resumes a replicated
        // run that tracks the original bitwise.
        let mut resumed = model();
        merged.restore(resumed.as_mut());
        for s in 10..12 {
            backward(rep.as_mut(), s);
            sgd.step(rep.as_mut(), lr);
            backward(resumed.as_mut(), s);
            sgd.step(resumed.as_mut(), lr);
        }
        assert_eq!(
            collect_params(rep.as_mut()),
            collect_params(resumed.as_mut()),
            "sharded→replicated restore diverged"
        );

        // (3) Replicated → sharded: slicing the full checkpoint seeds a
        // sharded world that also tracks the replicated run bitwise.
        let mut ranks2: Vec<Box<dyn Module>> = (0..world).map(|_| model()).collect();
        let mut vel2: Vec<Vec<f32>> = Vec::new();
        for (r, m) in ranks2.iter_mut().enumerate() {
            let shard = full.to_shard(r, world);
            set_params(m.as_mut(), &full.params);
            release_momentum(m.as_mut());
            vel2.push(shard.momentum);
        }
        for s in 10..12 {
            sharded_step(&mut ranks2, &mut vel2, s);
        }
        assert_eq!(
            collect_params(ranks2[0].as_mut()),
            collect_params(rep.as_mut()),
            "replicated→sharded restore diverged"
        );
    }

    #[test]
    fn formats_reject_each_others_magic() {
        let mut m = model();
        let full = Checkpoint::capture(m.as_mut(), 1);
        let shard_bytes = full.to_shard(0, 2).to_bytes();
        assert_eq!(
            Checkpoint::from_bytes(&shard_bytes),
            Err(CheckpointError::BadMagic { found: *b"DCKS" })
        );
        assert_eq!(
            ShardCheckpoint::from_bytes(&full.to_bytes()),
            Err(CheckpointError::BadMagic { found: *b"DCKP" })
        );
    }
}
