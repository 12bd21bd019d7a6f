//! Property-based tests for the DIMD substrate.

use dcnn_dimd::blob::BlobStore;
use dcnn_dimd::codec::{decode_image, decode_window, encode_image, psnr};
use dcnn_dimd::image::RawImage;
use proptest::prelude::*;

fn arb_image() -> impl Strategy<Value = RawImage> {
    (1usize..=3, 1usize..=40, 1usize..=40, 0u64..1_000_000).prop_map(|(c, h, w, seed)| {
        let mut s = seed | 1;
        let data = (0..c * h * w)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 256) as u8
            })
            .collect();
        RawImage { c, h, w, data }
    })
}

fn smooth_image() -> impl Strategy<Value = RawImage> {
    (1usize..=3, 8usize..=48, 8usize..=48, 0u32..1000).prop_map(|(c, h, w, phase)| {
        let mut img = RawImage::new(c, h, w);
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let v = 128.0
                        + 55.0 * ((x as f32) * 0.11 + phase as f32 * 0.01).sin()
                        + 45.0 * ((y as f32) * 0.09 + ci as f32).cos();
                    img.set(ci, y, x, v.clamp(0.0, 255.0) as u8);
                }
            }
        }
        img
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The codec round-trips any dimensions without panicking or changing
    /// the shape, even on pure noise (worst case for a DCT codec).
    #[test]
    fn codec_roundtrip_shape(img in arb_image(), q in 1u8..=100) {
        let enc = encode_image(&img, q);
        let dec = decode_image(&enc);
        prop_assert_eq!((dec.c, dec.h, dec.w), (img.c, img.h, img.w));
        prop_assert_eq!(dec.data.len(), img.data.len());
    }

    /// On smooth content the codec is both faithful (PSNR) and compressive.
    #[test]
    fn codec_quality_on_smooth_content(img in smooth_image()) {
        let enc = encode_image(&img, 70);
        let dec = decode_image(&enc);
        prop_assert!(psnr(&img, &dec) > 28.0);
        prop_assert!(enc.len() < img.data.len(), "no compression: {} vs {}", enc.len(), img.data.len());
    }

    /// Higher quality never reduces PSNR by a meaningful margin.
    #[test]
    fn quality_monotone_fidelity(img in smooth_image()) {
        let lo = decode_image(&encode_image(&img, 25));
        let hi = decode_image(&encode_image(&img, 90));
        prop_assert!(psnr(&img, &hi) >= psnr(&img, &lo) - 0.5);
    }

    /// Any rectangular window — empty, one pixel, block-straddling, the
    /// whole image — is byte for byte that rectangle of the full decode.
    #[test]
    fn window_equals_decode_then_crop(img in arb_image(), q in 1u8..=100,
                                      a in any::<u32>(), b in any::<u32>(),
                                      c in any::<u32>(), d in any::<u32>()) {
        let (wh, ww) = (a as usize % (img.h + 1), b as usize % (img.w + 1));
        let (top, left) = (c as usize % (img.h - wh + 1), d as usize % (img.w - ww + 1));
        let enc = encode_image(&img, q);
        let full = decode_image(&enc);
        let win = decode_window(&enc, top, left, wh, ww);
        prop_assert_eq!((win.c, win.h, win.w), (img.c, wh, ww));
        for ci in 0..img.c {
            for y in 0..wh {
                let row = &full.data[(ci * img.h + top + y) * img.w + left..][..ww];
                prop_assert_eq!(&win.data[(ci * wh + y) * ww..][..ww], row);
            }
        }
    }

    /// Resize preserves value bounds and hits requested dimensions.
    #[test]
    fn resize_bounds(img in arb_image(), nh in 1usize..50, nw in 1usize..50) {
        let r = img.resize(nh, nw);
        prop_assert_eq!((r.h, r.w), (nh, nw));
        let (mn, mx) = img.data.iter().fold((255u8, 0u8), |(a, b), &v| (a.min(v), b.max(v)));
        prop_assert!(r.data.iter().all(|&v| v >= mn && v <= mx));
    }

    /// Blob file format round-trips arbitrary record sets.
    #[test]
    fn blob_file_roundtrip(records in prop::collection::vec((prop::collection::vec(any::<u8>(), 0..200), any::<u32>()), 0..20)) {
        let mut store = BlobStore::default();
        for (bytes, label) in &records {
            store.push_record(bytes, *label);
        }
        let back = BlobStore::from_file_bytes(&store.to_file_bytes());
        prop_assert_eq!(back.len(), records.len());
        for (i, (bytes, label)) in records.iter().enumerate() {
            prop_assert_eq!(back.record(i), bytes.as_slice());
            prop_assert_eq!(back.label(i), *label);
        }
    }

    /// Shorter-side resize always makes the shorter side the target.
    #[test]
    fn resize_shorter_invariant(img in arb_image(), short in 4usize..64) {
        let r = img.resize_shorter_to(short);
        prop_assert_eq!(r.h.min(r.w), short);
        // Aspect ratio approximately preserved.
        let orig = img.h as f64 / img.w as f64;
        let new = r.h as f64 / r.w as f64;
        prop_assert!((orig.ln() - new.ln()).abs() < 0.35, "{orig} vs {new}");
    }
}

mod shuffle_props {
    use dcnn_collectives::run_cluster;
    use dcnn_dimd::shuffle::shuffle_records;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Conservation: the global record multiset survives any shuffle,
        /// for any rank count, record distribution and segment cap.
        #[test]
        fn shuffle_conserves(n in 2usize..5, counts in prop::collection::vec(0usize..15, 2..5),
                             cap in 32usize..100_000, seed in 0u64..1000) {
            let n = n.min(counts.len());
            let make = |rank: usize| -> Vec<(Vec<u8>, u32)> {
                (0..counts[rank])
                    .map(|i| (vec![(rank * 17 + i) as u8; 3 + (i % 9)], (rank * 100 + i) as u32))
                    .collect()
            };
            let mut expect: HashMap<(Vec<u8>, u32), usize> = HashMap::new();
            for r in 0..n {
                for rec in make(r) {
                    *expect.entry(rec).or_insert(0) += 1;
                }
            }
            let after = run_cluster(n, |c| shuffle_records(c, make(c.rank()), seed, cap));
            let mut got: HashMap<(Vec<u8>, u32), usize> = HashMap::new();
            for recs in after {
                for rec in recs {
                    *got.entry(rec).or_insert(0) += 1;
                }
            }
            prop_assert_eq!(got, expect);
        }
    }
}
