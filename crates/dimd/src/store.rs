//! The in-memory store a learner trains from: the three DIMD APIs of §4.1
//! — *partitioned load*, *random in-memory batch load*, and *shuffle*.

use dcnn_collectives::runtime::{Comm, CommError};
use dcnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::codec::{header, malformed, try_decode_window, CodecError};
use crate::image::{IMAGENET_MEAN, IMAGENET_STD};
use crate::shuffle::{try_shuffle_records, Record};
use crate::synth::SynthImageNet;

/// A learner's in-memory partition of the training set.
pub struct Dimd {
    records: Vec<Record>,
    /// Epoch sampling state: a shuffled ordering of local records.
    order: Vec<usize>,
    cursor: usize,
    rng: StdRng,
    epoch_seed: u64,
}

impl Dimd {
    /// **Partitioned load** (API i): member `group_rank` of a group of
    /// `group_size` learners loads every `group_size`-th record, so the
    /// group collectively owns the whole dataset. With `group_size == 1`
    /// the learner holds everything (the "enough memory" extreme).
    pub fn load_partition(
        ds: &SynthImageNet,
        group_rank: usize,
        group_size: usize,
        quality: u8,
        seed: u64,
    ) -> Self {
        assert!(group_size >= 1 && group_rank < group_size);
        let records: Vec<Record> = (0..ds.train_len())
            .filter(|i| i % group_size == group_rank)
            .map(|i| {
                (crate::codec::encode_image(&ds.train_image(i), quality), ds.train_label(i) as u32)
            })
            .collect();
        Self::from_records(records, seed)
    }

    /// Wrap an existing record set (e.g. after deserializing a blob file).
    pub fn from_records(records: Vec<Record>, seed: u64) -> Self {
        let n = records.len();
        let mut d = Dimd {
            records,
            order: (0..n).collect(),
            cursor: 0,
            rng: StdRng::seed_from_u64(seed),
            epoch_seed: seed,
        };
        d.order.shuffle(&mut d.rng);
        d
    }

    /// Number of locally held records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Bytes of node memory the partition occupies (the y-axis annotation of
    /// Figures 7–9).
    pub fn memory_bytes(&self) -> usize {
        self.records.iter().map(|(b, _)| b.len() + 16).sum()
    }

    /// Advance the epoch cursor (reshuffling when a pass completes) and
    /// return the augmentation salt for this batch plus the indices of the
    /// picked records.
    fn pick_batch(&mut self, n: usize) -> (u64, Vec<usize>) {
        assert!(!self.records.is_empty(), "empty partition");
        let mut picks = Vec::with_capacity(n);
        for _ in 0..n {
            if self.cursor >= self.order.len() {
                self.order.shuffle(&mut self.rng);
                self.cursor = 0;
            }
            picks.push(self.order[self.cursor]);
            self.cursor += 1;
        }
        (self.epoch_seed.wrapping_add(self.cursor as u64), picks)
    }

    /// The sampling half of [`Dimd::random_batch`], with the picked records
    /// copied out. The blob server runs exactly this on behalf of a remote
    /// trainer rank and ships the still-compressed records; the client then
    /// decodes them through [`decode_augmented_batch`] — the same function
    /// the local path calls — so local and service-backed training are
    /// bitwise identical.
    pub fn sample_batch_records(&mut self, n: usize) -> (u64, Vec<Record>) {
        let (salt, picks) = self.pick_batch(n);
        (salt, picks.iter().map(|&i| self.records[i].clone()).collect())
    }

    /// **Random in-memory batch load** (API ii): decode `n` randomly
    /// sampled records (without replacement within an epoch pass), apply the
    /// paper's augmentation (random `crop²` crop + flip) and normalize.
    /// Returns `([n, 3, crop, crop], labels)`. The records are decoded where
    /// they lie; only [`Dimd::sample_batch_records`] copies them.
    pub fn random_batch(&mut self, n: usize, crop: usize) -> (Tensor, Vec<usize>) {
        let (salt, picks) = self.pick_batch(n);
        let records: Vec<(&[u8], u32)> =
            picks.iter().map(|&i| (self.records[i].0.as_slice(), self.records[i].1)).collect();
        decode_augmented_batch(&records, crop, salt)
    }

    /// [`Dimd::try_shuffle`], panicking with the report if a peer is dead.
    pub fn shuffle(&mut self, comm: &Comm, round: u64, max_segment_bytes: usize) {
        self.try_shuffle(comm, round, max_segment_bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// **Shuffle across learners** (API iii): Algorithm 2 over the ranks of
    /// `comm` (pass a group sub-communicator for group-based shuffles). On
    /// a dead peer the partition is left empty: the run cannot go on.
    pub fn try_shuffle(
        &mut self,
        comm: &Comm,
        round: u64,
        max_segment_bytes: usize,
    ) -> Result<(), CommError> {
        let records = self.take_records();
        let out = try_shuffle_records(comm, records, self.epoch_seed ^ round, max_segment_bytes)?;
        self.install_shuffled_records(out);
        Ok(())
    }

    /// The base seed this partition's sampling and shuffle streams derive
    /// from (what `load_partition` was given).
    pub fn epoch_seed(&self) -> u64 {
        self.epoch_seed
    }

    /// Remove this partition's records for an externally-run exchange —
    /// the blob-server fabric runs the hosted shuffle over many trainers'
    /// partitions at once ([`crate::shuffle::try_shuffle_hosted`]) and
    /// cannot go through [`Dimd::shuffle`]'s per-`Comm`-rank path.
    pub fn take_records(&mut self) -> Vec<Record> {
        std::mem::take(&mut self.records)
    }

    /// Install post-exchange records with exactly [`Dimd::shuffle`]'s
    /// bookkeeping: rebuild the sampling order, reshuffle it with the
    /// *ongoing* rng (so subsequent picks continue the same stream as the
    /// classic path), and rewind the epoch cursor.
    pub fn install_shuffled_records(&mut self, records: Vec<Record>) {
        self.records = records;
        self.order = (0..self.records.len()).collect();
        self.order.shuffle(&mut self.rng);
        self.cursor = 0;
    }

    /// Labels currently held (diagnostics / tests).
    pub fn labels(&self) -> Vec<u32> {
        self.records.iter().map(|(_, l)| *l).collect()
    }
}

/// One record as the `crop²` sample a model sees, written into `out`
/// (`[3, crop, crop]`): a random crop + flip drawn from `rng`, or the centre
/// crop without one. The window is placed from the record's header and only
/// that window is decoded, so the cost follows the crop's area, not the
/// record's. The draws — `top` if the image is taller than the crop, `left`
/// if wider, then the flip — are [`RawImage::random_crop_flip`]'s, in its
/// order: which pixels a seed selects is part of every training run's bits.
///
/// [`RawImage::random_crop_flip`]: crate::image::RawImage::random_crop_flip
fn decode_sample(
    bytes: &[u8],
    crop: usize,
    rng: Option<&mut StdRng>,
    out: &mut [f32],
) -> Result<(), CodecError> {
    let (c, h, w) = header(bytes)?;
    if c != 3 {
        return Err(CodecError::BadDims);
    }
    let (img, flip) = if h < crop || w < crop {
        // Upscaling reads the whole image.
        let full = try_decode_window(bytes, 0, 0, h, w)?;
        let img = match rng {
            Some(rng) => full.random_crop_flip(crop, rng),
            None => full.center_crop(crop),
        };
        (img, false)
    } else {
        let (top, left, flip) = match rng {
            Some(rng) => (
                if h > crop { rng.random_range(0..=h - crop) } else { 0 },
                if w > crop { rng.random_range(0..=w - crop) } else { 0 },
                rng.random::<bool>(),
            ),
            None => ((h - crop) / 2, (w - crop) / 2, false),
        };
        (try_decode_window(bytes, top, left, crop, crop)?, flip)
    };
    let rows = img.data.chunks_exact(crop).zip(out.chunks_exact_mut(crop));
    for (i, (src, dst)) in rows.enumerate() {
        let (m, s) = (IMAGENET_MEAN[i / crop], IMAGENET_STD[i / crop]);
        let normalize = |(d, &px): (&mut f32, &u8)| *d = (px as f32 / 255.0 - m) / s;
        if flip {
            dst.iter_mut().zip(src.iter().rev()).for_each(normalize);
        } else {
            dst.iter_mut().zip(src).for_each(normalize);
        }
    }
    Ok(())
}

/// Run `sample(j, out)` for each of the `n` slots of a `[n, 3, crop, crop]`
/// tensor, in slot order, and gather the labels it returns; the first
/// refused record ends the batch.
fn decode_batch(
    n: usize,
    crop: usize,
    sample: impl Fn(usize, &mut [f32]) -> Result<usize, CodecError>,
) -> Result<(Tensor, Vec<usize>), CodecError> {
    assert!(crop > 0, "crop must be positive");
    let mut data = vec![0.0f32; n * 3 * crop * crop];
    let labels = data
        .chunks_mut(3 * crop * crop)
        .enumerate()
        .map(|(j, out)| sample(j, out))
        .collect::<Result<Vec<usize>, CodecError>>()?;
    Ok((Tensor::from_vec(data, &[n, 3, crop, crop]), labels))
}

/// Decode and augment one sampled batch: the per-sample decode + random
/// crop/flip + normalize pipeline of [`Dimd::random_batch`], factored out
/// so the data-plane client (which receives still-compressed records and a
/// salt over the wire) runs the byte-identical code the in-process path
/// runs. Takes owned [`Record`]s or borrowed `(&[u8], u32)` pairs. Returns
/// `([n, 3, crop, crop], labels)`, or the first record the codec refused.
pub fn try_decode_augmented_batch<B: AsRef<[u8]>>(
    records: &[(B, u32)],
    crop: usize,
    salt: u64,
) -> Result<(Tensor, Vec<usize>), CodecError> {
    decode_batch(records.len(), crop, |j, out| {
        let (bytes, label) = &records[j];
        let mut rng = StdRng::seed_from_u64(salt ^ (j as u64) << 17 ^ *label as u64);
        decode_sample(bytes.as_ref(), crop, Some(&mut rng), out)?;
        Ok(*label as usize)
    })
}

/// [`try_decode_augmented_batch`] for records this process encoded itself.
///
/// # Panics
/// Panics on a malformed record.
pub fn decode_augmented_batch<B: AsRef<[u8]>>(
    records: &[(B, u32)],
    crop: usize,
    salt: u64,
) -> (Tensor, Vec<usize>) {
    try_decode_augmented_batch(records, crop, salt).unwrap_or_else(|e| malformed(e))
}

/// The in-memory validation set. The paper stores *two* blob files — "two
/// large files for the training and validation data sets" (§4.1) — and the
/// validation blob is small enough that every learner holds it whole.
/// Evaluation uses the deterministic center-crop path, no augmentation.
pub struct ValSet {
    records: Vec<Record>,
}

impl ValSet {
    /// Compress and load the full validation split.
    pub fn load(ds: &SynthImageNet, quality: u8) -> Self {
        let records: Vec<Record> = (0..ds.val_len())
            .map(|i| {
                (crate::codec::encode_image(&ds.val_image(i), quality), ds.val_label(i) as u32)
            })
            .collect();
        ValSet { records }
    }

    /// Number of validation records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.records.iter().map(|(b, _)| b.len() + 16).sum()
    }

    /// Decode the given records as an evaluation batch:
    /// `([len, 3, crop, crop], labels)` with center crops.
    pub fn batch(&self, indices: &[usize], crop: usize) -> (Tensor, Vec<usize>) {
        assert!(!indices.is_empty());
        decode_batch(indices.len(), crop, |j, out| {
            let (bytes, label) = &self.records[indices[j]];
            decode_sample(bytes, crop, None, out)?;
            Ok(*label as usize)
        })
        .unwrap_or_else(|e| malformed(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_image, encode_image};
    use crate::image::RawImage;
    use crate::synth::SynthConfig;
    use dcnn_collectives::run_cluster;

    fn ds() -> SynthImageNet {
        let mut cfg = SynthConfig::tiny(4);
        cfg.train_per_class = 8;
        SynthImageNet::new(cfg)
    }

    #[test]
    fn partitions_cover_dataset_disjointly() {
        let ds = ds();
        let parts: Vec<Dimd> =
            (0..4).map(|r| Dimd::load_partition(&ds, r, 4, 60, r as u64)).collect();
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, ds.train_len());
        // Class coverage: strided partitioning interleaves classes.
        for p in &parts {
            let labels = p.labels();
            let distinct: std::collections::HashSet<_> = labels.iter().collect();
            assert!(distinct.len() >= 2, "partition should span classes");
        }
    }

    #[test]
    fn full_load_when_group_of_one() {
        let ds = ds();
        let d = Dimd::load_partition(&ds, 0, 1, 60, 0);
        assert_eq!(d.len(), ds.train_len());
        assert!(d.memory_bytes() > 0);
    }

    #[test]
    fn random_batch_shapes_and_determinism() {
        let ds = ds();
        let mut d1 = Dimd::load_partition(&ds, 0, 1, 60, 7);
        let mut d2 = Dimd::load_partition(&ds, 0, 1, 60, 7);
        let (t1, l1) = d1.random_batch(6, 24);
        let (t2, l2) = d2.random_batch(6, 24);
        assert_eq!(t1.shape(), &[6, 3, 24, 24]);
        assert_eq!(l1.len(), 6);
        assert_eq!(t1, t2);
        assert_eq!(l1, l2);
    }

    #[test]
    fn random_batch_decodes_in_place_what_sample_batch_records_copies() {
        let ds = ds();
        let mut in_place = Dimd::load_partition(&ds, 0, 1, 60, 11);
        let mut copied = Dimd::load_partition(&ds, 0, 1, 60, 11);
        // 7 x 5 > 32 records: the cursor wraps and reshuffles on the way.
        for _ in 0..7 {
            let (salt, records) = copied.sample_batch_records(5);
            assert_eq!(in_place.random_batch(5, 20), decode_augmented_batch(&records, 20, salt));
        }
    }

    #[test]
    fn non_square_centre_windows_match_decode_then_center_crop() {
        let ds = ds();
        let shapes = [(32, 32), (24, 40), (41, 24), (33, 47), (12, 40), (30, 9)];
        let records: Vec<Record> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(h, w))| (encode_image(&ds.val_image(i).resize(h, w), 70), i as u32))
            .collect();
        let reference: Vec<f32> = records
            .iter()
            .flat_map(|(bytes, _)| {
                let img = decode_image(bytes).center_crop(24);
                img.to_tensor(&IMAGENET_MEAN, &IMAGENET_STD).into_vec()
            })
            .collect();
        let indices: Vec<usize> = (0..records.len()).collect();
        let (x, labels) = ValSet { records }.batch(&indices, 24);
        assert_eq!(x, Tensor::from_vec(reference, &[shapes.len(), 3, 24, 24]));
        assert_eq!(labels, indices);
    }

    #[test]
    fn a_refused_record_is_an_error_not_a_panic() {
        let ds = ds();
        let good = (encode_image(&ds.train_image(0), 60), 0u32);
        let mut cut = good.clone();
        cut.0.truncate(100);
        assert_eq!(
            try_decode_augmented_batch(&[good.clone(), cut], 16, 3).err(),
            Some(CodecError::Truncated { offset: 100 })
        );
        // The batch tensor is three-channel; a grey record has no place in it.
        let grey = (encode_image(&RawImage::new(1, 32, 32), 60), 0u32);
        assert_eq!(
            try_decode_augmented_batch(&[good, grey], 16, 3).err(),
            Some(CodecError::BadDims)
        );
    }

    #[test]
    fn epoch_pass_visits_everything_once() {
        let ds = ds();
        let mut d = Dimd::load_partition(&ds, 0, 1, 60, 3);
        let n = d.len();
        let mut seen = vec![0usize; 4];
        // one full epoch in batches of 8
        for _ in 0..n / 8 {
            let (_, labels) = d.random_batch(8, 16);
            for l in labels {
                seen[l] += 1;
            }
        }
        // Exactly 8 per class (8 per class in the dataset).
        assert_eq!(seen, vec![8, 8, 8, 8]);
    }

    #[test]
    fn batches_vary_across_draws() {
        let ds = ds();
        let mut d = Dimd::load_partition(&ds, 0, 1, 60, 9);
        let (t1, _) = d.random_batch(4, 16);
        let (t2, _) = d.random_batch(4, 16);
        assert_ne!(t1, t2);
    }

    #[test]
    fn distributed_shuffle_keeps_global_census() {
        let ds = ds();
        let before: Vec<u32> = (0..ds.train_len()).map(|i| ds.train_label(i) as u32).collect();
        let mut expect: Vec<u32> = before.clone();
        expect.sort_unstable();
        let after = run_cluster(4, |c| {
            let mut d = Dimd::load_partition(&ds, c.rank(), 4, 60, 1);
            d.shuffle(c, 0, crate::shuffle::MPI_COUNT_LIMIT);
            d.labels()
        });
        let mut got: Vec<u32> = after.into_iter().flatten().collect();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn val_set_loads_and_batches() {
        let ds = ds();
        let vs = ValSet::load(&ds, 70);
        assert_eq!(vs.len(), ds.val_len());
        assert!(vs.memory_bytes() > 0);
        let (t, labels) = vs.batch(&[0, 1, ds.val_len() - 1], 16);
        assert_eq!(t.shape(), &[3, 3, 16, 16]);
        assert_eq!(labels[0], ds.val_label(0));
        assert_eq!(labels[2], ds.val_label(ds.val_len() - 1));
    }

    #[test]
    fn val_batches_are_deterministic() {
        let ds = ds();
        let vs = ValSet::load(&ds, 70);
        let (a, _) = vs.batch(&[2, 5], 16);
        let (b, _) = vs.batch(&[2, 5], 16);
        assert_eq!(a, b);
    }

    /// One CRC-32 over the `(bytes, label)` records of rank 0 of 2 at the
    /// `decode-data` benchmark shape (4 classes × 64 images of 128×128,
    /// seed 42, quality 70): each record's bytes, then its label as a
    /// little-endian `u32`. The value was captured from the generator and
    /// encoder as they stood before the per-axis render tables and the
    /// branchless quantiser, so a record byte that moves fails here.
    #[test]
    fn decode_data_partition_matches_its_golden() {
        const PARTITION_GOLDEN: u32 = 0x27C9_08C3;
        let mut cfg = SynthConfig::tiny(4);
        cfg.base_hw = 128;
        cfg.val_per_class = 1;
        cfg.seed = 42;
        let d = Dimd::load_partition(&SynthImageNet::new(cfg), 0, 2, 70, 42);
        assert_eq!(d.len(), 128);
        let crc = d.records.iter().fold(0xFFFF_FFFF, |c, (bytes, label)| {
            crate::crc::crc32_update(crate::crc::crc32_update(c, bytes), &label.to_le_bytes())
        });
        assert_eq!(!crc, PARTITION_GOLDEN, "partition CRC {:#010x}", !crc);
    }

    /// CRC-32 over records in order: each record's bytes, then its label
    /// as a little-endian `u32`.
    fn records_crc(records: &[Record]) -> u32 {
        !records.iter().fold(0xFFFF_FFFF, |c, (bytes, label)| {
            crate::crc::crc32_update(crate::crc::crc32_update(c, bytes), &label.to_le_bytes())
        })
    }

    /// Each rank's [`records_crc`] after three epoch shuffles (rounds 0, 1,
    /// 2) of the `decode_data_partition_matches_its_golden` dataset, split
    /// over 2 and 3 ranks. The values were captured from the shuffle as it
    /// stood before records bound for their own rank were moved instead of
    /// packed, so a record that lands elsewhere, or in another order, fails
    /// here. The hosted case runs both partitions of the 2-rank split on one
    /// server and must read the 2-rank values.
    #[test]
    fn shuffled_partition_matches_its_golden() {
        use crate::shuffle::{try_shuffle_hosted, HostedPartition, MPI_COUNT_LIMIT};
        use dcnn_collectives::ClusterBuilder;
        const TWO_RANKS: [u32; 2] = [0x3275_3A50, 0x4E87_520F];
        const THREE_RANKS: [u32; 3] = [0xB9C8_7C31, 0x9698_BE05, 0x1A78_0102];
        // Segmentation changes the receive order, so the capped run has its own.
        const TWO_RANKS_CAPPED: [u32; 2] = [0x113F_EA66, 0x26B3_1E14];
        let mut cfg = SynthConfig::tiny(4);
        cfg.base_hw = 128;
        cfg.val_per_class = 1;
        cfg.seed = 42;
        // Encoded once: member r of n holds every n-th record, as
        // `load_partition(ds, r, n, 70, 42)` would load it.
        let all = Dimd::load_partition(&SynthImageNet::new(cfg), 0, 1, 70, 42).records;
        let split = |r: usize, n: usize| -> Vec<Record> {
            all.iter().skip(r).step_by(n).cloned().collect()
        };
        let classic = |n: usize, cap: usize| {
            ClusterBuilder::new(n).run(|c| {
                let mut d = Dimd::from_records(split(c.rank(), n), 42);
                for round in 0..3 {
                    d.shuffle(c, round, cap);
                }
                records_crc(&d.records)
            })
        };
        let two = classic(2, MPI_COUNT_LIMIT);
        assert_eq!(two.results, TWO_RANKS, "2 ranks: {:#010x?}", two.results);
        let three = classic(3, MPI_COUNT_LIMIT);
        assert_eq!(three.results, THREE_RANKS, "3 ranks: {:#010x?}", three.results);
        // A 1 MiB cap against ~1.9 MB leaving each rank per epoch.
        let capped = classic(2, 1 << 20);
        assert_eq!(capped.results, TWO_RANKS_CAPPED, "capped: {:#010x?}", capped.results);
        let a2a = capped.stats[0].phase_ns.iter().find(|p| p.0 == "alltoallv").map_or(0, |p| p.2);
        assert!(a2a >= 2 * 3, "the cap did not force two rounds per shuffle: {a2a} alltoallv");
        // Both virtual ranks of the 2-rank split on one server.
        let hosted = dcnn_collectives::run_cluster(1, |c| {
            let mut parts: Vec<Vec<Record>> = (0..2).map(|v| split(v, 2)).collect();
            for round in 0..3u64 {
                let mine = parts
                    .iter_mut()
                    .enumerate()
                    .map(|(v, records)| HostedPartition {
                        virtual_rank: v,
                        rng_id: v as u64,
                        seed: 42 ^ round,
                        records: std::mem::take(records),
                    })
                    .collect();
                let out =
                    try_shuffle_hosted(c, mine, 2, |_| 0, MPI_COUNT_LIMIT).expect("one server");
                for (v, records) in out.partitions {
                    parts[v] = records;
                }
            }
            parts.iter().map(|p| records_crc(p)).collect::<Vec<u32>>()
        });
        assert_eq!(hosted[0], TWO_RANKS, "hosted: {:#010x?}", hosted[0]);
    }

    #[test]
    fn shuffle_resets_epoch_cursor() {
        let ds = ds();
        let out = run_cluster(2, |c| {
            let mut d = Dimd::load_partition(&ds, c.rank(), 2, 60, 5);
            let _ = d.random_batch(4, 16);
            d.shuffle(c, 1, crate::shuffle::MPI_COUNT_LIMIT);
            let (t, _) = d.random_batch(4, 16);
            t.len()
        });
        assert!(out.iter().all(|&l| l == 4 * 3 * 16 * 16));
    }
}
