//! Hostile bytes against the DCC1 decoder. Records reach a trainer over TCP
//! (the data service), so every entry point must answer arbitrary bytes
//! with `Err` or a well-formed image — never a panic, never a read past the
//! end, never an allocation sized from a header that has not been checked
//! against the record's length — and a window must refuse exactly the
//! records the full-image decode refuses, with the same error, whichever
//! blocks it skips.

use dcnn_dimd::codec::{encode_image, header, try_decode_window, CodecError};
use dcnn_dimd::{try_decode_augmented_batch, RawImage};

/// A small image with enough noise that blocks keep many coefficients and
/// some need two-byte varints.
fn noisy_image(c: usize, h: usize, w: usize) -> RawImage {
    let mut s = 0x9E37_79B9u64;
    let data = (0..c * h * w)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (96 + (i % w) * 3 + (s % 64) as usize) as u8
        })
        .collect();
    RawImage { c, h, w, data }
}

fn crop(img: &RawImage, top: usize, left: usize, h: usize, w: usize) -> RawImage {
    let mut out = RawImage::new(img.c, h, w);
    for c in 0..img.c {
        for y in 0..h {
            for x in 0..w {
                out.set(c, y, x, img.at(c, top + y, left + x));
            }
        }
    }
    out
}

/// Whatever `data` holds: every window agrees with the full-image decode,
/// on the pixels if it decodes and on the error if it does not.
fn check_all_entry_points_agree(data: &[u8]) -> Result<RawImage, CodecError> {
    let (c, h, w) = match header(data) {
        Ok(dims) => dims,
        Err(e) => {
            assert_eq!(try_decode_window(data, 0, 0, 1, 1), Err(e));
            return Err(e);
        }
    };
    let full = try_decode_window(data, 0, 0, h, w);
    if let Ok(img) = &full {
        assert_eq!((img.c, img.h, img.w, img.data.len()), (c, h, w, c * h * w));
    }
    let (ch, cw) = (h.min(9), w.min(9));
    for (top, left, wh, ww) in [
        (0, 0, ch, cw),                       // a corner: skips everything after it
        ((h - ch) / 2, (w - cw) / 2, ch, cw), // the centre: skips before and after
        (h - 1, w - 1, 1, 1),                 // the last pixel: skips everything before it
        (0, 0, 0, 0),                         // keeps nothing, still walks it all
    ] {
        let window = try_decode_window(data, top, left, wh, ww);
        let expect = full.as_ref().map(|img| crop(img, top, left, wh, ww)).map_err(|e| *e);
        assert_eq!(window, expect, "window {wh}x{ww} at ({top}, {left})");
    }
    full
}

#[test]
fn every_truncation_is_refused_the_same_way_by_every_window() {
    let enc = encode_image(&noisy_image(3, 20, 27), 90);
    assert!(enc.len() > 400, "the record should outlast the mutation sweep: {}", enc.len());
    assert!(check_all_entry_points_agree(&enc).is_ok());
    for cut in 0..enc.len() {
        let err = check_all_entry_points_agree(&enc[..cut]).expect_err("a cut record decoded");
        let expect = match cut {
            0..=13 => CodecError::TooShort,
            // 3 x 3 x 4 blocks need at least a byte each.
            14..=49 => CodecError::BadDims,
            _ => CodecError::Truncated { offset: cut },
        };
        assert_eq!(err, expect, "cut at {cut}");
    }
}

#[test]
fn every_single_byte_mutation_is_survived_and_judged_alike() {
    let enc = encode_image(&noisy_image(3, 20, 27), 90);
    let (mut refused, mut decoded) = (0, 0);
    for at in 0..200 {
        for value in 0..=255u8 {
            if value == enc[at] {
                continue;
            }
            let mut bad = enc.clone();
            bad[at] = value;
            match check_all_entry_points_agree(&bad) {
                Ok(_) => decoded += 1,
                Err(_) => refused += 1,
            }
        }
    }
    // Both outcomes are exercised: a changed coefficient still decodes, a
    // changed length byte usually runs off the end.
    assert!(refused > 1000 && decoded > 1000, "refused {refused}, decoded {decoded}");
}

/// A hand-built record: header, then the given bytes as the block stream.
fn record(c: u8, h: u32, w: u32, blocks: &[u8]) -> Vec<u8> {
    let mut out = b"DCC1".to_vec();
    out.push(c);
    out.extend_from_slice(&h.to_le_bytes());
    out.extend_from_slice(&w.to_le_bytes());
    out.push(70);
    out.extend_from_slice(blocks);
    out
}

#[test]
fn corruption_inside_a_skipped_block_is_still_found() {
    // One channel, 16x16: four blocks of one coefficient each. The corner
    // window keeps block 0 only; the damage is in block 3.
    let good = record(1, 16, 16, &[1, 10, 1, 2, 1, 4, 1, 6]);
    assert!(check_all_entry_points_agree(&good).is_ok());

    let mut too_many = good.clone();
    too_many[14 + 6] = 65;
    assert_eq!(
        check_all_entry_points_agree(&too_many),
        Err(CodecError::CorruptBlock { offset: 14 + 6 })
    );

    // Block 3 announces two coefficients; the second is five continuation
    // bytes (then a terminator, which does not redeem it).
    let long = record(1, 16, 16, &[1, 10, 1, 2, 1, 4, 2, 6, 0x80, 0x80, 0x80, 0x80, 0x80, 0]);
    assert_eq!(
        check_all_entry_points_agree(&long),
        Err(CodecError::VarintTooLong { offset: 14 + 8 })
    );
    // The same run as the DC delta, which every window reads.
    let long_dc = record(1, 16, 16, &[1, 10, 1, 2, 1, 4, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0]);
    assert_eq!(
        check_all_entry_points_agree(&long_dc),
        Err(CodecError::VarintTooLong { offset: 14 + 7 })
    );
    // Five bytes are allowed, and bytes after the last block are ignored.
    let five = record(1, 16, 16, &[1, 10, 1, 2, 1, 4, 2, 6, 0x80, 0x80, 0x80, 0x80, 0x00, 9, 9]);
    assert!(check_all_entry_points_agree(&five).is_ok());
    // A DC chain that overflows wraps, in every window alike.
    let max = [1, 0xFE, 0xFF, 0xFF, 0xFF, 0x0F]; // a block whose DC delta is i32::MAX
    let wrap = record(1, 8, 16, &[max, max].concat());
    assert!(check_all_entry_points_agree(&wrap).is_ok());
}

#[test]
fn header_bombs_are_refused_before_anything_is_sized_from_them() {
    // Each of these would ask for gigabytes (or wrap `c * h * w`) if the
    // header were believed; the test finishing at all is the proof.
    let filler = [0u8; 64];
    for (c, h, w) in [
        (3, 65_535, 65_535),
        (255, u32::MAX, u32::MAX),
        (3, u32::MAX, 1),
        (1, 1, u32::MAX),
        (0, 8, 8),
        (3, 0, 8),
        (3, 8, 0),
        (3, 0, u32::MAX),
        // One block more than there are bytes for.
        (1, 8, 8 * 65),
    ] {
        let bomb = record(c, h, w, &filler);
        assert_eq!(header(&bomb), Err(CodecError::BadDims), "{c}x{h}x{w}");
        assert_eq!(try_decode_window(&bomb, 0, 0, 1, 1), Err(CodecError::BadDims));
        let batch = try_decode_augmented_batch(&[(bomb, 0u32)], 16, 0);
        assert_eq!(batch.err(), Some(CodecError::BadDims));
    }
    // As many blocks as bytes is plausible, and is then read block by block.
    assert!(check_all_entry_points_agree(&record(1, 8, 8 * 64, &filler)).is_ok());
    assert_eq!(header(b"DCC1"), Err(CodecError::TooShort));
    assert_eq!(header(&[0u8; 32]), Err(CodecError::BadMagic));
}
