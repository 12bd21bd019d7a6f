//! The batch decode path, pinned from outside: checksums of
//! `decode_augmented_batch` and `ValSet::batch` outputs captured at commit
//! `2a64676` — before the windowed decoder existed, when every sample was
//! `decode_image → random_crop_flip / center_crop → to_tensor` — and the
//! same chain rebuilt here from the public `RawImage` methods as a live
//! reference. Together they pin that neither the RNG stream (which draws
//! happen, in which order) nor one bit of the tensor moved.

use dcnn_collectives::transport::crc32_f32;
use dcnn_dimd::codec::{decode_image, encode_image};
use dcnn_dimd::image::{RawImage, IMAGENET_MEAN, IMAGENET_STD};
use dcnn_dimd::{decode_augmented_batch, Record, SynthConfig, SynthImageNet, ValSet};
use dcnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn synth(base_hw: usize, hw_jitter: usize) -> SynthImageNet {
    let mut cfg = SynthConfig::tiny(3);
    cfg.train_per_class = 4;
    cfg.val_per_class = 3;
    cfg.base_hw = base_hw;
    cfg.hw_jitter = hw_jitter;
    SynthImageNet::new(cfg)
}

fn train_records(ds: &SynthImageNet, reshape: impl Fn(usize, RawImage) -> RawImage) -> Vec<Record> {
    (0..ds.train_len())
        .map(|i| (encode_image(&reshape(i, ds.train_image(i)), 70), ds.train_label(i) as u32))
        .collect()
}

/// One named record set per shape of the crop decision.
fn cases() -> Vec<(&'static str, Vec<Record>, usize)> {
    vec![
        // Both draws, the window keeps <= 3x3 of 16x16 blocks per channel.
        ("128to16", train_records(&synth(128, 0), |_, img| img), 16),
        // h == w == crop: neither `top` nor `left` is drawn, only the flip.
        ("32to32", train_records(&synth(32, 0), |_, img| img), 32),
        // Sizes 40..=56, non-square, edge blocks partly outside the image;
        // every fourth record has h == crop (no `top` draw) and every
        // fourth w == crop (no `left` draw).
        (
            "jittered",
            train_records(&synth(48, 8), |i, img| match i % 4 {
                1 => img.resize(24, img.w),
                3 => img.resize(img.h, 24),
                _ => img.resize(img.h - 7, img.w + 5),
            }),
            24,
        ),
        // Smaller than the crop in one or both dimensions: the resize
        // fallback, which still draws on the side that is larger.
        (
            "smaller",
            train_records(&synth(16, 0), |i, img| match i % 3 {
                0 => img,
                1 => img.resize(12, 40),
                _ => img.resize(31, 9),
            }),
            24,
        ),
    ]
}

fn stack(samples: Vec<Tensor>, crop: usize) -> Tensor {
    let n = samples.len();
    let data: Vec<f32> = samples.into_iter().flat_map(Tensor::into_vec).collect();
    Tensor::from_vec(data, &[n, 3, crop, crop])
}

/// The training chain as it ran before the windowed decoder.
fn augmented_reference(records: &[Record], crop: usize, salt: u64) -> Tensor {
    let samples = records
        .iter()
        .enumerate()
        .map(|(j, (bytes, label))| {
            let mut rng = StdRng::seed_from_u64(salt ^ (j as u64) << 17 ^ *label as u64);
            decode_image(bytes)
                .random_crop_flip(crop, &mut rng)
                .to_tensor(&IMAGENET_MEAN, &IMAGENET_STD)
        })
        .collect();
    stack(samples, crop)
}

const SALTS: [u64; 3] = [0, 0x5EED_0000_0000_0011, u64::MAX];

#[test]
fn augmented_batches_match_the_parent_capture_and_the_old_chain() {
    let golden: [(&str, [u32; 3]); 4] = [
        ("128to16", [0xe55c_64b9, 0x98c2_5dd9, 0x7129_8adf]),
        ("32to32", [0x87e0_fe2b, 0xfe8d_d761, 0xc53b_7944]),
        ("jittered", [0xaaea_07a2, 0x879f_d7f7, 0xe757_1136]),
        ("smaller", [0xa715_2d83, 0x0394_62f5, 0x2b18_41bf]),
    ];
    let mut got = Vec::new();
    for (name, records, crop) in cases() {
        let mut crcs = [0u32; 3];
        for (crc, salt) in crcs.iter_mut().zip(SALTS) {
            let (x, labels) = decode_augmented_batch(&records, crop, salt);
            assert_eq!(x.shape(), &[records.len(), 3, crop, crop]);
            let expect: Vec<usize> = records.iter().map(|(_, l)| *l as usize).collect();
            assert_eq!(labels, expect);
            assert_eq!(x, augmented_reference(&records, crop, salt), "{name} salt {salt:#x}");
            *crc = !crc32_f32(!0, x.data());
        }
        got.push((name, crcs));
    }
    assert_eq!(got, golden, "captured rows, as Rust literals: {got:#x?}");
}

#[test]
fn val_batches_match_the_parent_capture_and_the_old_chain() {
    // `ValSet::load` takes the generator's (square) images; non-square
    // centre windows are covered by the unit tests in `store.rs`.
    let golden: [(&str, u32); 4] = [
        ("128to16", 0x1c2a_2e5f),
        ("32to32", 0xd02c_d5c3),
        ("jittered", 0xdf5d_1c19),
        ("smaller", 0xea42_890a),
    ];
    let mut got = Vec::new();
    for (name, ds, crop) in [
        ("128to16", synth(128, 0), 16),
        ("32to32", synth(32, 0), 32),
        ("jittered", synth(48, 8), 24),
        ("smaller", synth(16, 0), 24),
    ] {
        let indices: Vec<usize> = (0..ds.val_len()).rev().collect();
        let (x, labels) = ValSet::load(&ds, 70).batch(&indices, crop);
        let expect: Vec<usize> = indices.iter().map(|&i| ds.val_label(i)).collect();
        assert_eq!(labels, expect);
        let reference = indices
            .iter()
            .map(|&i| {
                decode_image(&encode_image(&ds.val_image(i), 70))
                    .center_crop(crop)
                    .to_tensor(&IMAGENET_MEAN, &IMAGENET_STD)
            })
            .collect();
        assert_eq!(x, stack(reference, crop), "{name}");
        got.push((name, !crc32_f32(!0, x.data())));
    }
    assert_eq!(got, golden, "captured rows, as Rust literals: {got:#x?}");
}
