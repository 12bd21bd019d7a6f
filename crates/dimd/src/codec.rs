//! A from-scratch block-DCT image codec.
//!
//! The paper stores the dataset as compressed JPEGs and decompresses them
//! in memory during SGD ("an in-memory JPEG decompresser is also used to
//! decompress images to generate image tensor objects", §4.1). We implement
//! the same class of codec so that record sizes, compression ratios and
//! decode CPU costs are real: 8×8 DCT-II per channel, JPEG-style
//! quality-scaled quantization, zigzag scan, DC delta coding and
//! varint entropy coding with end-of-block truncation.
//!
//! Decoding is one function, [`try_decode_window`]: it walks every block
//! (the DC chain needs each one's first coefficient) but dequantises,
//! inverts and stores only the blocks the caller's window meets — the whole
//! image is the largest window. Most coefficients are one-byte varints, so
//! the walk steps over a run of them with one bounds check instead of
//! reading them one by one. Records also arrive over TCP, so malformed
//! bytes come back as a [`CodecError`], never as a panic or an allocation
//! sized by the sender.

use std::sync::LazyLock;

use crate::image::RawImage;

const MAGIC: &[u8; 4] = b"DCC1";

/// JPEG Annex K luminance quantization table (zigzag-ordered at use time).
const QBASE: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// Zigzag scan order for an 8×8 block.
const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

fn quant_table(quality: u8) -> [f32; 64] {
    let q = quality.clamp(1, 100) as f32;
    let scale = if q < 50.0 { 5000.0 / q } else { 200.0 - 2.0 * q } / 100.0;
    let mut t = [0.0f32; 64];
    for i in 0..64 {
        t[i] = (QBASE[i] as f32 * scale).clamp(1.0, 255.0);
    }
    t
}

/// [`quant_table`] in scan order: entry `zi` scales the `zi`-th coefficient
/// of a block's stream.
fn zigzag_quant_table(quality: u8) -> [f32; 64] {
    let qt = quant_table(quality);
    ZIGZAG.map(|p| qt[p])
}

/// Orthonormal 8-point DCT-II basis, computed on first use.
fn dct_basis() -> &'static [[f32; 8]; 8] {
    static BASIS: LazyLock<[[f32; 8]; 8]> = LazyLock::new(|| {
        let mut b = [[0.0f32; 8]; 8];
        for (k, row) in b.iter_mut().enumerate() {
            let a = if k == 0 { (1.0f32 / 8.0).sqrt() } else { (2.0f32 / 8.0).sqrt() };
            for (n, v) in row.iter_mut().enumerate() {
                *v = a * ((std::f32::consts::PI / 8.0) * (n as f32 + 0.5) * k as f32).cos();
            }
        }
        b
    });
    &BASIS
}

/// Eight sums that advance together: one row of an 8×8 block.
type Lanes = [f32; 8];

/// `acc + a · s` per lane: a rounded multiply, then a rounded add (no FMA).
#[inline(always)]
fn axpy(acc: Lanes, a: Lanes, s: f32) -> Lanes {
    let mut r = acc;
    for i in 0..8 {
        r[i] += a[i] * s;
    }
    r
}

/// Forward 8×8 DCT; `basis_t` is `basis` transposed.
///
/// The arithmetic contract, which every coefficient of every record
/// depends on: `tmp[y][k] = Σ_x block[y][x] · basis[k][x]` then
/// `out[k][x] = Σ_y tmp[y][x] · basis[k][y]`, each sum taken in ascending
/// `x` / `y` from `+0.0`. Both passes carry eight sums by value, as
/// [`idct2d`] does and out of line for the same reason: a row of `tmp`
/// advances along a column of the basis (a row of `basis_t`), then a row
/// of `out` along the rows of `tmp`.
#[inline(never)]
fn dct2d(block: &[f32; 64], basis: &[[f32; 8]; 8], basis_t: &[[f32; 8]; 8]) -> [f32; 64] {
    let mut tmp = [0.0f32; 64];
    for (t, b) in tmp.chunks_exact_mut(8).zip(block.chunks_exact(8)) {
        let mut acc = [0.0f32; 8];
        for x in 0..8 {
            acc = axpy(acc, basis_t[x], b[x]);
        }
        t.copy_from_slice(&acc);
    }
    let mut out = [0.0f32; 64];
    for (o, basis_k) in out.chunks_exact_mut(8).zip(basis) {
        let mut acc = [0.0f32; 8];
        for (y, t) in tmp.chunks_exact(8).enumerate() {
            acc = axpy(acc, t.try_into().expect("8 lanes"), basis_k[y]);
        }
        o.copy_from_slice(&acc);
    }
    out
}

/// Inverse 8×8 DCT.
///
/// The arithmetic contract, which every pixel of every record depends on:
/// `tmp[y][kx] = Σ_ky coef[ky][kx] · basis[ky][y]` then
/// `out[y][x] = Σ_kx tmp[y][kx] · basis[kx][x]`, each sum taken in
/// ascending `ky` / `kx` from `+0.0`. Both passes carry one row of eight
/// sums by value, which the compiler keeps in vector registers — but only
/// out of line: inlined into the block loop it spills them (the
/// `dot_tile` lesson of `dcnn-tensor`'s `gemm`).
#[inline(never)]
fn idct2d(coef: &[f32; 64], basis: &[[f32; 8]; 8]) -> [f32; 64] {
    let mut tmp = [0.0f32; 64];
    for (y, t) in tmp.chunks_exact_mut(8).enumerate() {
        let mut acc = [0.0f32; 8];
        for ky in 0..8 {
            let c: Lanes = coef[ky * 8..ky * 8 + 8].try_into().expect("8 lanes");
            acc = axpy(acc, c, basis[ky][y]);
        }
        t.copy_from_slice(&acc);
    }
    let mut out = [0.0f32; 64];
    for (o, t) in out.chunks_exact_mut(8).zip(tmp.chunks_exact(8)) {
        let mut acc = [0.0f32; 8];
        for kx in 0..8 {
            acc = axpy(acc, basis[kx], t[kx]);
        }
        o.copy_from_slice(&acc);
    }
    out
}

fn put_varint(out: &mut Vec<u8>, v: i32) {
    // zigzag-map the sign, then LEB128.
    let mut u = ((v << 1) ^ (v >> 31)) as u32;
    loop {
        let byte = (u & 0x7F) as u8;
        u >>= 7;
        if u == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Undo [`put_varint`]'s sign mapping (0, -1, 1, -2, … → 0, 1, 2, 3, …).
fn decode_sign(u: u32) -> i32 {
    ((u >> 1) as i32) ^ -((u & 1) as i32)
}

/// One varint at `*pos`. Skipped and decoded coefficients both come through
/// here, so a record is refused for the same byte whichever blocks a window
/// keeps.
#[inline]
fn get_varint(data: &[u8], pos: &mut usize) -> Result<i32, CodecError> {
    match data.get(*pos) {
        // Most coefficients fit one byte.
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            Ok(decode_sign(byte as u32))
        }
        _ => get_long_varint(data, pos),
    }
}

/// The general case: at most five bytes, the last with its high bit clear.
#[cold]
fn get_long_varint(data: &[u8], pos: &mut usize) -> Result<i32, CodecError> {
    let rest = data.get(*pos..).unwrap_or_default();
    let mut u: u32 = 0;
    for (i, &byte) in rest.iter().take(5).enumerate() {
        u |= ((byte & 0x7F) as u32) << (7 * i);
        if byte & 0x80 == 0 {
            *pos += i + 1;
            return Ok(decode_sign(u));
        }
    }
    Err(if rest.len() < 5 {
        CodecError::Truncated { offset: data.len() }
    } else {
        CodecError::VarintTooLong { offset: *pos }
    })
}

/// The first byte at or after `from` with its high bit set, or
/// `data.len()`: every byte before it is a whole one-byte varint. The bytes
/// are OR-ed 32 at a time, as four words, and only the chunk that trips is
/// searched.
fn clean_run_end(data: &[u8], from: usize) -> usize {
    const CHUNK: usize = 32;
    let continues = |byte: &u8| byte & 0x80 != 0;
    let (chunks, rest) = data[from..].as_chunks::<CHUNK>();
    for (i, chunk) in chunks.iter().enumerate() {
        let words = chunk.as_chunks::<8>().0.iter();
        if words.fold(0, |acc, &w| acc | u64::from_ne_bytes(w)) & 0x8080_8080_8080_8080 != 0 {
            let within = chunk.iter().position(continues).expect("a byte tripped the OR");
            return from + i * CHUNK + within;
        }
    }
    from + chunks.len() * CHUNK + rest.iter().position(continues).unwrap_or(rest.len())
}

/// `x.round() as i32` — round half away from zero, NaN to 0, saturating —
/// without `round`, which is a libm call on the baseline x86-64 target and
/// keeps the quantiser's loop from vectorising. The rounding is
/// [`to_pixel`]'s, on `|x|`: adding and subtracting 2²³ rounds ties to
/// even, a tie that went down is put back up, then the sign is copied
/// back. From 2²³ up every float is an integer already; those and NaN go
/// through the plain saturating cast unrounded. Equal on every one of the
/// 2³² inputs (`quantiser_matches_round_everywhere`).
#[inline]
fn round_to_i32(x: f32) -> i32 {
    const NO_FRACTION: f32 = 8_388_608.0; // 2²³
    let a = x.abs();
    let even = (a + NO_FRACTION) - NO_FRACTION;
    let r = if a - even == 0.5 { even + 1.0 } else { even };
    (if a < NO_FRACTION { r.copysign(x) } else { x }) as i32
}

/// Compress an image. `quality` ∈ 1..=100 (higher = larger + more faithful).
///
/// The arithmetic contract, which every byte of every record depends on:
/// after `dct2d`, coefficient `k` of a block is quantised as
/// `coef[k] / qt[k]` — a division; a multiply by the reciprocal would move
/// the quotient's last bit — rounded half away from zero to `i32`
/// (`round_to_i32`, which is `f32::round` then the saturating cast), in
/// natural order. The integers are then permuted into zigzag order and the
/// DC is delta-coded on the block before it.
pub fn encode_image(img: &RawImage, quality: u8) -> Vec<u8> {
    let qt = quant_table(quality);
    let basis = dct_basis();
    let basis_t: [[f32; 8]; 8] = std::array::from_fn(|x| basis.map(|row| row[x]));
    let mut out = Vec::with_capacity(img.data.len() / 4 + 32);
    out.extend_from_slice(MAGIC);
    out.push(img.c as u8);
    out.extend_from_slice(&(img.h as u32).to_le_bytes());
    out.extend_from_slice(&(img.w as u32).to_le_bytes());
    out.push(quality.clamp(1, 100));

    let bh = img.h.div_ceil(8);
    let bw = img.w.div_ceil(8);
    for c in 0..img.c {
        let mut prev_dc: i32 = 0;
        for by in 0..bh {
            for bx in 0..bw {
                // Gather the block with edge replication, centered at 0.
                let mut block = [0.0f32; 64];
                for y in 0..8 {
                    let sy = (by * 8 + y).min(img.h - 1);
                    for x in 0..8 {
                        let sx = (bx * 8 + x).min(img.w - 1);
                        block[y * 8 + x] = img.at(c, sy, sx) as f32 - 128.0;
                    }
                }
                let coef = dct2d(&block, basis, &basis_t);
                // Quantise in natural order, scan in zigzag; DC is delta-coded.
                let mut natural = [0i32; 64];
                for ((n, &v), &d) in natural.iter_mut().zip(&coef).zip(&qt) {
                    *n = round_to_i32(v / d);
                }
                let mut q = ZIGZAG.map(|pos| natural[pos]);
                let dc = q[0];
                q[0] = dc - prev_dc;
                prev_dc = dc;
                // End-of-block: keep coefficients up to the last nonzero.
                let last = q.iter().rposition(|&v| v != 0).map(|i| i + 1).unwrap_or(0);
                out.push(last as u8);
                for &v in &q[..last] {
                    put_varint(&mut out, v);
                }
            }
        }
    }
    out
}

/// Why [`try_decode_window`] refused a record. Records reach a trainer
/// over TCP (the data service), so every one of these is reachable from
/// outside the program; offsets are byte positions in the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the 14-byte header.
    TooShort,
    /// The first four bytes are not `DCC1`.
    BadMagic,
    /// A zero dimension, or more blocks announced than bytes follow the
    /// header (every block costs at least its length byte).
    BadDims,
    /// The requested window does not lie inside the image the header
    /// describes.
    WindowOutOfBounds,
    /// The record ends inside a block.
    Truncated {
        /// The record's length: the first byte that is missing.
        offset: usize,
    },
    /// A block announces more than 64 coefficients.
    CorruptBlock {
        /// Position of the block's length byte.
        offset: usize,
    },
    /// Five bytes in a row with the continuation bit set.
    VarintTooLong {
        /// Position of the first of them.
        offset: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::TooShort => write!(f, "shorter than the {HEADER_LEN}-byte header"),
            CodecError::BadMagic => write!(f, "bad codec magic"),
            CodecError::BadDims => write!(f, "zero or implausible dimensions for its length"),
            CodecError::WindowOutOfBounds => write!(f, "window outside the image"),
            CodecError::Truncated { offset } => write!(f, "truncated at byte {offset}"),
            CodecError::CorruptBlock { offset } => {
                write!(f, "corrupt block header at byte {offset}")
            }
            CodecError::VarintTooLong { offset } => write!(f, "varint too long at byte {offset}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Magic, channels (u8), height and width (u32 LE), quality (u8).
const HEADER_LEN: usize = 14;

/// Validate a record's header and return `(channels, height, width)`
/// without decoding a block — what a caller needs to place a crop window
/// before it decodes. Nothing may be sized from a header this refuses.
pub fn header(data: &[u8]) -> Result<(usize, usize, usize), CodecError> {
    if data.len() < HEADER_LEN {
        return Err(CodecError::TooShort);
    }
    if &data[0..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let c = data[4] as usize;
    let h = u32::from_le_bytes(data[5..9].try_into().expect("4")) as usize;
    let w = u32::from_le_bytes(data[9..13].try_into().expect("4")) as usize;
    let blocks = c.checked_mul(h.div_ceil(8)).and_then(|b| b.checked_mul(w.div_ceil(8)));
    match blocks {
        Some(b) if b > 0 && b <= data.len() - HEADER_LEN => Ok((c, h, w)),
        _ => Err(CodecError::BadDims),
    }
}

/// `(v + 128.0).round().clamp(0.0, 255.0) as u8`, in operations the
/// baseline x86-64 target has as vector instructions (`round` is a libm
/// call there, and a saturating float-to-int cast is done lane by lane).
/// Adding and subtracting 2²³ rounds to an integer, ties to even; a tie
/// that went down is put back up, which is `round`'s half away from zero
/// for everything the clamp does not send to 0; after the clamp the
/// integer is the low mantissa byte of the sum with 2²³. Equal on every one
/// of the 2³² inputs (`pixel_conversion_matches_round_clamp_everywhere`).
#[inline]
#[allow(clippy::manual_clamp)] // `max` sends NaN to 0 as the cast did; `clamp` would keep it
fn to_pixel(v: f32) -> u8 {
    const NO_FRACTION: f32 = 8_388_608.0; // 2²³: floats from here to 2²⁴ are the integers
    let x = v + 128.0;
    let even = (x + NO_FRACTION) - NO_FRACTION;
    let r = if x - even == 0.5 { even + 1.0 } else { even };
    (r.max(0.0).min(255.0) + NO_FRACTION).to_bits() as u8
}

/// Decompress the `h × w` window at `(top, left)` of an image produced by
/// [`encode_image`]: byte for byte `decode_image(data).crop(..)`, for the
/// cost of the blocks the window meets.
///
/// The walk visits every block of every channel: each block's DC is a
/// delta on the block before it and blocks have no byte-length prefix, so
/// its length byte and first varint are read in turn. The rest of a block
/// is stepped over where it can be: the walk keeps `clean`, the first byte
/// ahead with its high bit set (found 32 bytes at a time), and a block
/// whose coefficients end at or before it is `last − 1` one-byte varints —
/// skipped with one add, or dequantised straight from the bytes when the
/// window keeps it. A block that reaches past `clean` is read varint by
/// varint through `get_varint`, which is also where every refusal is
/// found, and `clean` is found anew once the walk has passed it.
///
/// Dequantisation, the inverse DCT and the pixel store run only for blocks
/// that meet the window. The walk never stops early, so a window accepts
/// exactly the records the full image accepts, refused at the same byte.
pub fn try_decode_window(
    data: &[u8],
    top: usize,
    left: usize,
    h: usize,
    w: usize,
) -> Result<RawImage, CodecError> {
    let (c, ih, iw) = header(data)?;
    let inside = |at: usize, len: usize, of: usize| at.checked_add(len).is_some_and(|e| e <= of);
    if !inside(top, h, ih) || !inside(left, w, iw) {
        return Err(CodecError::WindowOutOfBounds);
    }
    let qz = zigzag_quant_table(data[13]);
    let basis = dct_basis();
    let mut img = RawImage::new(c, h, w);
    let mut pos = HEADER_LEN;
    let mut clean = clean_run_end(data, pos);
    for ci in 0..c {
        let mut dc: i32 = 0;
        for by in (0..ih).step_by(8) {
            // Image rows and columns of this block that the window keeps.
            let (y0, y1) = (top.max(by), (top + h).min(by + 8));
            for bx in (0..iw).step_by(8) {
                let (x0, x1) = (left.max(bx), (left + w).min(bx + 8));
                let at = pos;
                let last = *data.get(at).ok_or(CodecError::Truncated { offset: at })? as usize;
                pos += 1;
                if last > 64 {
                    return Err(CodecError::CorruptBlock { offset: at });
                }
                if last > 0 {
                    dc = dc.wrapping_add(get_varint(data, &mut pos)?);
                }
                // Every byte before `clean` is a whole one-byte varint, so
                // AC coefficients that end by it are `ac` bytes. Once the
                // walk has passed `clean` (a long DC, or a block read below)
                // the run is found anew; a stale `clean` is slow, not wrong.
                // A block that reaches past it is read varint by varint,
                // which is also where every refusal is found.
                if pos > clean {
                    clean = clean_run_end(data, pos);
                }
                let ac = last.saturating_sub(1);
                let in_run = pos + ac <= clean;
                if y0 >= y1 || x0 >= x1 {
                    if in_run {
                        pos += ac;
                    } else {
                        for _ in 0..ac {
                            get_varint(data, &mut pos)?;
                        }
                    }
                    continue;
                }
                // Dequantise straight out of the stream; what the stream
                // leaves out (end-of-block) stays +0.0.
                let mut coef = [0.0f32; 64];
                coef[0] = dc as f32 * qz[0];
                if in_run {
                    let run = &data[pos..pos + ac];
                    for ((&p, &q), &byte) in ZIGZAG[1..].iter().zip(&qz[1..]).zip(run) {
                        coef[p] = decode_sign(byte as u32) as f32 * q;
                    }
                    pos += ac;
                } else {
                    for zi in 1..last {
                        coef[ZIGZAG[zi]] = get_varint(data, &mut pos)? as f32 * qz[zi];
                    }
                }
                let block = idct2d(&coef, basis);
                for y in y0..y1 {
                    let src = &block[(y - by) * 8 + (x0 - bx)..][..x1 - x0];
                    let dst = &mut img.data[(ci * h + (y - top)) * w + (x0 - left)..][..x1 - x0];
                    for (d, &v) in dst.iter_mut().zip(src) {
                        *d = to_pixel(v);
                    }
                }
            }
        }
    }
    Ok(img)
}

/// How the panicking entry points report a refused record.
pub(crate) fn malformed(e: CodecError) -> ! {
    panic!("malformed DCC1 record: {e}")
}

/// [`try_decode_window`] for records this process encoded itself.
///
/// # Panics
/// Panics on malformed input or a window outside the image.
pub fn decode_window(data: &[u8], top: usize, left: usize, h: usize, w: usize) -> RawImage {
    try_decode_window(data, top, left, h, w).unwrap_or_else(|e| malformed(e))
}

/// Decompress an image produced by [`encode_image`]: the window that is
/// the whole image.
///
/// # Panics
/// Panics on malformed input (wrong magic, truncation).
pub fn decode_image(data: &[u8]) -> RawImage {
    let (_, h, w) = header(data).unwrap_or_else(|e| malformed(e));
    decode_window(data, 0, 0, h, w)
}

/// Peak signal-to-noise ratio between two same-shape images, in dB.
pub fn psnr(a: &RawImage, b: &RawImage) -> f64 {
    assert_eq!((a.c, a.h, a.w), (b.c, b.h, b.w));
    let mse: f64 = a
        .data
        .iter()
        .zip(&b.data)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        / a.data.len() as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decoder as it stood before the windowed one — scalar IDCT, every
    /// block dequantised, per-pixel store through `round().clamp()` — and
    /// the encoder before the eight-lane DCT and the branchless quantiser,
    /// kept as what the kernels above are compared against bit for bit.
    mod reference {
        use super::super::*;

        pub fn dct2d(block: &[f32; 64], basis: &[[f32; 8]; 8]) -> [f32; 64] {
            // rows then columns
            let mut tmp = [0.0f32; 64];
            for y in 0..8 {
                for k in 0..8 {
                    let mut acc = 0.0;
                    for x in 0..8 {
                        acc += block[y * 8 + x] * basis[k][x];
                    }
                    tmp[y * 8 + k] = acc;
                }
            }
            let mut out = [0.0f32; 64];
            for k in 0..8 {
                for x in 0..8 {
                    let mut acc = 0.0;
                    for y in 0..8 {
                        acc += tmp[y * 8 + x] * basis[k][y];
                    }
                    out[k * 8 + x] = acc;
                }
            }
            out
        }

        pub fn idct2d(coef: &[f32; 64], basis: &[[f32; 8]; 8]) -> [f32; 64] {
            let mut tmp = [0.0f32; 64];
            for k in 0..8 {
                for x in 0..8 {
                    let mut acc = 0.0;
                    for ky in 0..8 {
                        acc += coef[ky * 8 + x] * basis[ky][k];
                    }
                    tmp[k * 8 + x] = acc;
                }
            }
            let mut out = [0.0f32; 64];
            for y in 0..8 {
                for x in 0..8 {
                    let mut acc = 0.0;
                    for kx in 0..8 {
                        acc += tmp[y * 8 + kx] * basis[kx][x];
                    }
                    out[y * 8 + x] = acc;
                }
            }
            out
        }

        pub fn to_pixel(v: f32) -> u8 {
            (v + 128.0).round().clamp(0.0, 255.0) as u8
        }

        /// The encoder before the branchless quantiser: scalar DCT, then
        /// `round` per coefficient in zigzag order.
        pub fn encode_image(img: &RawImage, quality: u8) -> Vec<u8> {
            let qt = quant_table(quality);
            let basis = dct_basis();
            let mut out = Vec::with_capacity(img.data.len() / 4 + 32);
            out.extend_from_slice(MAGIC);
            out.push(img.c as u8);
            out.extend_from_slice(&(img.h as u32).to_le_bytes());
            out.extend_from_slice(&(img.w as u32).to_le_bytes());
            out.push(quality.clamp(1, 100));

            let bh = img.h.div_ceil(8);
            let bw = img.w.div_ceil(8);
            for c in 0..img.c {
                let mut prev_dc: i32 = 0;
                for by in 0..bh {
                    for bx in 0..bw {
                        let mut block = [0.0f32; 64];
                        for y in 0..8 {
                            let sy = (by * 8 + y).min(img.h - 1);
                            for x in 0..8 {
                                let sx = (bx * 8 + x).min(img.w - 1);
                                block[y * 8 + x] = img.at(c, sy, sx) as f32 - 128.0;
                            }
                        }
                        let coef = dct2d(&block, basis);
                        let mut q = [0i32; 64];
                        for (zi, &pos) in ZIGZAG.iter().enumerate() {
                            q[zi] = (coef[pos] / qt[pos]).round() as i32;
                        }
                        let dc = q[0];
                        q[0] = dc - prev_dc;
                        prev_dc = dc;
                        let last = q.iter().rposition(|&v| v != 0).map(|i| i + 1).unwrap_or(0);
                        out.push(last as u8);
                        for &v in &q[..last] {
                            put_varint(&mut out, v);
                        }
                    }
                }
            }
            out
        }

        /// The windowed decoder before the walk stepped over one-byte runs:
        /// every coefficient, kept or skipped, read through `get_varint`.
        pub fn try_decode_window(
            data: &[u8],
            top: usize,
            left: usize,
            h: usize,
            w: usize,
        ) -> Result<RawImage, CodecError> {
            let (c, ih, iw) = header(data)?;
            let inside =
                |at: usize, len: usize, of: usize| at.checked_add(len).is_some_and(|e| e <= of);
            if !inside(top, h, ih) || !inside(left, w, iw) {
                return Err(CodecError::WindowOutOfBounds);
            }
            let qz = zigzag_quant_table(data[13]);
            let basis = dct_basis();
            let mut img = RawImage::new(c, h, w);
            let mut pos = HEADER_LEN;
            for ci in 0..c {
                let mut dc: i32 = 0;
                for by in (0..ih).step_by(8) {
                    let (y0, y1) = (top.max(by), (top + h).min(by + 8));
                    for bx in (0..iw).step_by(8) {
                        let (x0, x1) = (left.max(bx), (left + w).min(bx + 8));
                        let at = pos;
                        let last =
                            *data.get(at).ok_or(CodecError::Truncated { offset: at })? as usize;
                        pos += 1;
                        if last > 64 {
                            return Err(CodecError::CorruptBlock { offset: at });
                        }
                        if last > 0 {
                            dc = dc.wrapping_add(get_varint(data, &mut pos)?);
                        }
                        if y0 >= y1 || x0 >= x1 {
                            for _ in 1..last {
                                get_varint(data, &mut pos)?;
                            }
                            continue;
                        }
                        let mut coef = [0.0f32; 64];
                        coef[0] = dc as f32 * qz[0];
                        for zi in 1..last {
                            coef[ZIGZAG[zi]] = get_varint(data, &mut pos)? as f32 * qz[zi];
                        }
                        let block = idct2d(&coef, basis);
                        for y in y0..y1 {
                            let src = &block[(y - by) * 8 + (x0 - bx)..][..x1 - x0];
                            let dst =
                                &mut img.data[(ci * h + (y - top)) * w + (x0 - left)..][..x1 - x0];
                            for (d, &v) in dst.iter_mut().zip(src) {
                                *d = to_pixel(v);
                            }
                        }
                    }
                }
            }
            Ok(img)
        }

        pub fn decode_image(data: &[u8]) -> RawImage {
            assert!(data.len() > 14 && &data[0..4] == MAGIC, "bad codec magic");
            let c = data[4] as usize;
            let h = u32::from_le_bytes(data[5..9].try_into().expect("4")) as usize;
            let w = u32::from_le_bytes(data[9..13].try_into().expect("4")) as usize;
            let qt = quant_table(data[13]);
            let basis = dct_basis();
            let mut img = RawImage::new(c, h, w);
            let mut pos = 14usize;
            for ci in 0..c {
                let mut prev_dc: i32 = 0;
                for by in 0..h.div_ceil(8) {
                    for bx in 0..w.div_ceil(8) {
                        let last = data[pos] as usize;
                        pos += 1;
                        assert!(last <= 64, "corrupt block header");
                        let mut q = [0i32; 64];
                        for item in q.iter_mut().take(last) {
                            *item = get_varint(data, &mut pos).expect("well-formed varint");
                        }
                        let dc = q[0] + prev_dc;
                        prev_dc = dc;
                        q[0] = dc;
                        let mut coef = [0.0f32; 64];
                        for (zi, &p) in ZIGZAG.iter().enumerate() {
                            coef[p] = q[zi] as f32 * qt[p];
                        }
                        let block = idct2d(&coef, basis);
                        for y in 0..8 {
                            let dy = by * 8 + y;
                            if dy >= h {
                                continue;
                            }
                            for x in 0..8 {
                                let dx = bx * 8 + x;
                                if dx >= w {
                                    continue;
                                }
                                img.set(ci, dy, dx, to_pixel(block[y * 8 + x]));
                            }
                        }
                    }
                }
            }
            img
        }
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// [`natural_image`] under pixel noise: blocks keep most of their 64
    /// coefficients, and at high quality some need two-byte varints.
    fn noisy_image(h: usize, w: usize, seed: u64) -> RawImage {
        let mut img = natural_image(h, w);
        let mut s = seed | 1;
        for px in &mut img.data {
            let noise = (xorshift(&mut s) % 61) as i32 - 30;
            *px = (*px as i32 + noise).clamp(0, 255) as u8;
        }
        img
    }

    fn natural_image(h: usize, w: usize) -> RawImage {
        // Smooth gradients + low-frequency waves: JPEG-friendly content.
        let mut img = RawImage::new(3, h, w);
        for c in 0..3 {
            for y in 0..h {
                for x in 0..w {
                    let v = 128.0
                        + 60.0 * ((x as f32 * 0.07 + c as f32).sin())
                        + 50.0 * ((y as f32 * 0.05).cos());
                    img.set(c, y, x, v.clamp(0.0, 255.0) as u8);
                }
            }
        }
        img
    }

    #[test]
    fn flat_image_compresses_hugely_and_exactly() {
        let img = RawImage { c: 3, h: 64, w: 64, data: vec![128; 3 * 64 * 64] };
        let enc = encode_image(&img, 50);
        assert!(enc.len() < img.data.len() / 20, "flat: {} bytes", enc.len());
        let dec = decode_image(&enc);
        assert_eq!(dec, img);
    }

    #[test]
    fn natural_roundtrip_high_psnr() {
        let img = natural_image(48, 56);
        for (q, min_psnr) in [(30u8, 30.0), (50, 33.0), (90, 40.0)] {
            let enc = encode_image(&img, q);
            let dec = decode_image(&enc);
            let p = psnr(&img, &dec);
            assert!(p >= min_psnr, "quality {q}: PSNR {p:.1} dB");
        }
    }

    #[test]
    fn compression_ratio_reasonable() {
        let img = natural_image(64, 64);
        let enc = encode_image(&img, 50);
        let ratio = img.data.len() as f64 / enc.len() as f64;
        assert!(ratio > 3.0, "ratio {ratio:.1}");
    }

    #[test]
    fn quality_monotone_in_size() {
        let img = natural_image(64, 64);
        let lo = encode_image(&img, 20).len();
        let hi = encode_image(&img, 95).len();
        assert!(hi > lo, "q95 {hi} should exceed q20 {lo}");
    }

    #[test]
    fn non_multiple_of_8_dims() {
        let img = natural_image(33, 41);
        let dec = decode_image(&encode_image(&img, 80));
        assert_eq!((dec.c, dec.h, dec.w), (3, 33, 41));
        assert!(psnr(&img, &dec) > 32.0);
    }

    #[test]
    fn single_channel_tiny_image() {
        let img = RawImage {
            c: 1,
            h: 3,
            w: 5,
            data: vec![7, 50, 100, 150, 200, 10, 60, 110, 160, 210, 20, 70, 120, 170, 220],
        };
        let dec = decode_image(&encode_image(&img, 95));
        assert_eq!((dec.c, dec.h, dec.w), (1, 3, 5));
        // Small block, high quality: close reconstruction.
        for (a, b) in img.data.iter().zip(&dec.data) {
            assert!((*a as i32 - *b as i32).abs() < 24, "{a} vs {b}");
        }
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0, 1, -1, 2, -2, 63, -64, 127, -128, 1000, -100000, i32::MAX / 2];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos), Ok(v));
        }
        assert_eq!(pos, buf.len());
        assert_eq!(get_varint(&buf, &mut pos), Err(CodecError::Truncated { offset: buf.len() }));
        // Five continuation bytes are refused where they start, however
        // the sixth byte reads; four at the end of the data are a cut.
        let long = [0x80, 0x80, 0x80, 0x80, 0x80, 0x00];
        assert_eq!(get_varint(&long, &mut 0), Err(CodecError::VarintTooLong { offset: 0 }));
        assert_eq!(get_varint(&long[..4], &mut 0), Err(CodecError::Truncated { offset: 4 }));
        assert_eq!(get_varint(&[0xFF, 0xFF, 0xFF, 0xFF, 0x7F], &mut 0), Ok(i32::MIN));
    }

    #[test]
    fn dct_orthonormal_roundtrip() {
        let basis = dct_basis();
        let mut block = [0.0f32; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = ((i * 37) % 256) as f32 - 128.0;
        }
        let basis_t = std::array::from_fn(|x| basis.map(|row| row[x]));
        let coef = dct2d(&block, basis, &basis_t);
        let back = idct2d(&coef, basis);
        for (a, b) in block.iter().zip(&back) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        // Parseval: energy preserved.
        let e1: f32 = block.iter().map(|v| v * v).sum();
        let e2: f32 = coef.iter().map(|v| v * v).sum();
        assert!((e1 - e2).abs() < e1 * 1e-4);
    }

    #[test]
    #[should_panic]
    fn bad_magic_panics() {
        let _ = decode_image(&[0u8; 32]);
    }

    #[test]
    fn idct_matches_the_scalar_reference_bitwise() {
        let basis = dct_basis();
        let mut s = 0x1D_C7u64;
        for case in 0..4000 {
            // From one coefficient to all 64, small and large, both signs.
            let mut coef = [0.0f32; 64];
            for _ in 0..1 + case % 64 {
                let v = (xorshift(&mut s) % 2001) as i32 - 1000;
                let q = (1 + xorshift(&mut s) % 255) as f32;
                coef[(xorshift(&mut s) % 64) as usize] = v as f32 * q;
            }
            assert_eq!(
                idct2d(&coef, basis).map(f32::to_bits),
                reference::idct2d(&coef, basis).map(f32::to_bits)
            );
        }
    }

    #[test]
    fn dct_matches_the_scalar_reference_bitwise() {
        let basis = dct_basis();
        let basis_t = std::array::from_fn(|x| basis.map(|row| row[x]));
        let mut s = 0xD_C7u64;
        for case in 0..4000 {
            // Centred pixels, from a flat block to full-range noise.
            let spread = 1 + case % 256;
            let block: [f32; 64] =
                std::array::from_fn(|_| (xorshift(&mut s) % spread) as f32 - 128.0);
            assert_eq!(
                dct2d(&block, basis, &basis_t).map(f32::to_bits),
                reference::dct2d(&block, basis).map(f32::to_bits)
            );
        }
    }

    #[test]
    fn full_decode_matches_the_pre_change_decoder() {
        for (h, w) in [(40, 56), (33, 41), (8, 8), (3, 5), (64, 64)] {
            for q in [1u8, 30, 70, 95, 100] {
                for img in [natural_image(h, w), noisy_image(h, w, q as u64)] {
                    let enc = encode_image(&img, q);
                    assert_eq!(decode_image(&enc), reference::decode_image(&enc), "{h}x{w} q{q}");
                }
            }
        }
    }

    #[test]
    fn encode_matches_the_pre_change_encoder_bytewise() {
        for (h, w) in [(40, 56), (33, 41), (8, 8), (3, 5), (64, 64)] {
            for q in [1u8, 30, 70, 95, 100] {
                for img in [natural_image(h, w), noisy_image(h, w, q as u64)] {
                    assert_eq!(
                        encode_image(&img, q),
                        reference::encode_image(&img, q),
                        "{h}x{w} q{q}"
                    );
                }
            }
        }
    }

    /// Every position of square windows of sizes {1, 7, 8, 9, 16} (block
    /// interior, block-aligned, straddling) plus the whole image, against
    /// the full decode cropped.
    fn sweep_windows(h: usize, w: usize) {
        for q in [30u8, 70, 95] {
            let enc = encode_image(&noisy_image(h, w, 7 + q as u64), q);
            let full = decode_image(&enc);
            assert_eq!(header(&enc), Ok((3, h, w)));
            assert_eq!(decode_window(&enc, 0, 0, h, w), full);
            for size in [1usize, 7, 8, 9, 16] {
                if size > h || size > w {
                    continue;
                }
                for top in 0..=h - size {
                    for left in 0..=w - size {
                        assert_eq!(
                            decode_window(&enc, top, left, size, size),
                            full.crop(top, left, size),
                            "{h}x{w} q{q}: {size}x{size} at ({top}, {left})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_window_equals_decode_then_crop() {
        sweep_windows(40, 56);
        sweep_windows(33, 41); // edge blocks reach past the image
        sweep_windows(8, 8);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "minutes in debug; ci.sh runs it in release")]
    fn every_window_of_a_128x128_record_equals_decode_then_crop() {
        sweep_windows(128, 128);
    }

    /// Where each block's length byte lies in a well-formed record.
    fn block_starts(enc: &[u8]) -> Vec<usize> {
        let (c, h, w) = header(enc).expect("well-formed header");
        let mut pos = HEADER_LEN;
        (0..c * h.div_ceil(8) * w.div_ceil(8))
            .map(|_| {
                let at = pos;
                pos += 1;
                for _ in 0..enc[at] {
                    get_varint(enc, &mut pos).expect("well-formed varint");
                }
                at
            })
            .collect()
    }

    /// Mutated records come out of the walk exactly as they came out of the
    /// one that read every coefficient through `get_varint`: the same pixels,
    /// or the same refusal at the same offset. Records are 128x128: a
    /// `decode-data` image at q70, where every coefficient is one byte (the
    /// walk steps over whole blocks), and a noisier one at q95, where some
    /// are two (the walk falls back and finds its run anew).
    #[test]
    fn window_refusals_match_the_pre_change_walk() {
        let (h, w) = (128usize, 128usize);
        let mut s = 0xC1EA_u64;
        let (mut cases, mut refused) = (0usize, 0usize);
        // The empty window, a 16x16 one at `(top, left)`, the whole image.
        let mut check = |rec: &[u8], top: usize, left: usize, what: &str| {
            for (t, l, wh, ww) in [(h, w, 0, 0), (top, left, 16, 16), (0, 0, h, w)] {
                let expect = reference::try_decode_window(rec, t, l, wh, ww);
                assert_eq!(
                    try_decode_window(rec, t, l, wh, ww),
                    expect,
                    "{what}: {wh}x{ww} window at ({t}, {l})"
                );
                refused += expect.is_err() as usize;
                cases += 1;
            }
        };
        let mut synth = crate::synth::SynthConfig::tiny(4);
        synth.base_hw = h;
        let synth = crate::synth::SynthImageNet::new(synth).train_image(0);
        for (q, img) in [(70u8, synth), (95, noisy_image(h, w, 95))] {
            let enc = encode_image(&img, q);
            let starts = block_starts(&enc);
            let long: Vec<usize> = (HEADER_LEN..enc.len()).filter(|&i| enc[i] >= 0x80).collect();
            assert_eq!(long.is_empty(), q == 70, "q{q}: {} continuation bytes", long.len());
            let window = |s: &mut u64| {
                let top = (xorshift(s) % (h - 15) as u64) as usize;
                (top, (xorshift(s) % (w - 15) as u64) as usize)
            };
            for _ in 0..2000 {
                let (top, left) = window(&mut s);
                let mut rec = enc.clone();
                let at = (xorshift(&mut s) % enc.len() as u64) as usize;
                rec[at] = xorshift(&mut s) as u8;
                check(&rec, top, left, &format!("q{q}: byte {at} set to {:#x}", rec[at]));
            }
            // Five continuation bytes in a block the 16x16 window skips.
            for _ in 0..500 {
                let (top, left) = window(&mut s);
                let k = (xorshift(&mut s) % starts.len() as u64) as usize;
                let (by, bx) = (k / (w / 8) % (h / 8) * 8, k % (w / 8) * 8);
                if by + 8 > top && by < top + 16 && bx + 8 > left && bx < left + 16 {
                    continue;
                }
                let end = starts.get(k + 1).copied().unwrap_or(enc.len());
                let at = starts[k] + 1 + (xorshift(&mut s) % (end - starts[k]) as u64) as usize;
                let mut rec = enc.clone();
                for byte in rec.iter_mut().skip(at).take(5) {
                    *byte = 0x80;
                }
                check(&rec, top, left, &format!("q{q}: block {k}, 5 x 0x80 at {at}"));
            }
            // A high bit flipped on each side of where a clean run ends:
            // the record's end and, at q95, a sample of its long varints.
            let stops = long.iter().copied().step_by(long.len() / 200 + 1).chain([enc.len()]);
            for stop in stops {
                for at in [stop - 1, stop + 1].into_iter().filter(|&at| at < enc.len()) {
                    let (top, left) = window(&mut s);
                    let mut rec = enc.clone();
                    rec[at] ^= 0x80;
                    check(&rec, top, left, &format!("q{q}: high bit of {at} flipped"));
                }
            }
            if q == 95 {
                for at in starts.iter().copied().chain([enc.len()]) {
                    let (top, left) = window(&mut s);
                    check(&enc[..at], top, left, &format!("q{q}: cut at {at}"));
                }
            }
        }
        // The sweep reaches both outcomes in bulk.
        assert!(refused > cases / 10 && refused < cases * 9 / 10, "{refused} of {cases}");
    }

    #[test]
    fn windows_outside_the_image_are_refused() {
        let enc = encode_image(&natural_image(20, 30), 70);
        let refused = Err(CodecError::WindowOutOfBounds);
        assert_eq!(try_decode_window(&enc, 0, 0, 21, 30), refused);
        assert_eq!(try_decode_window(&enc, 5, 0, 16, 30), refused);
        assert_eq!(try_decode_window(&enc, 0, 23, 20, 8), refused);
        assert_eq!(try_decode_window(&enc, usize::MAX, 0, 2, 2), refused);
        assert_eq!(try_decode_window(&enc, 0, 1, 2, usize::MAX), refused);
        // An empty window is inside: it still walks (and so validates) the record.
        assert_eq!(try_decode_window(&enc, 20, 30, 0, 0), Ok(RawImage::new(3, 0, 0)));
        assert!(try_decode_window(&enc[..enc.len() - 1], 20, 30, 0, 0).is_err());
    }

    #[test]
    fn pixel_conversion_matches_round_clamp_on_the_boundaries() {
        // Around every half-integer the two expressions could disagree on,
        // the ends of the range, and a prime-strided walk over all floats.
        let mut inputs = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
        for k in -130..=130 {
            let half = k as f32 + 0.5;
            for steps in -3i32..=3 {
                inputs.push(f32::from_bits((half.to_bits() as i32 + steps) as u32));
                inputs.push(f32::from_bits(((k as f32).to_bits() as i32 + steps) as u32));
            }
        }
        inputs.extend((0..=u32::MAX).step_by(4099).map(f32::from_bits));
        for v in inputs {
            assert_eq!(to_pixel(v), reference::to_pixel(v), "{v:e} ({:#x})", v.to_bits());
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "minutes in debug; ci.sh runs it in release")]
    fn pixel_conversion_matches_round_clamp_everywhere() {
        for bits in 0..=u32::MAX {
            let v = f32::from_bits(bits);
            assert_eq!(to_pixel(v), reference::to_pixel(v), "{v:e} ({bits:#x})");
        }
    }

    #[test]
    fn quantiser_matches_round_on_the_boundaries() {
        // ±0, every half-integer a block's quotient can reach and its
        // neighbours, the integers' upper end at 2²³, i32 saturation, NaN
        // and the infinities.
        let mut inputs = vec![0.0, f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut near = |v: f32, ulps: i32| {
            for steps in -ulps..=ulps {
                inputs.push(f32::from_bits((v.to_bits() as i32 + steps) as u32));
            }
        };
        for k in 0..=1100 {
            near(k as f32 + 0.5, 3);
            near(k as f32, 3);
        }
        near(8_388_608.0, 4); // 2²³
        near(2_147_483_648.0, 4); // 2³¹
        near(f32::MAX, 1);
        near(f32::MIN_POSITIVE, 1);
        let inputs: Vec<f32> = inputs.iter().flat_map(|&v| [v, -v]).collect();
        for v in inputs {
            assert_eq!(round_to_i32(v), v.round() as i32, "{v:e} ({:#x})", v.to_bits());
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "minutes in debug; ci.sh runs it in release")]
    fn quantiser_matches_round_everywhere() {
        for bits in 0..=u32::MAX {
            let v = f32::from_bits(bits);
            assert_eq!(round_to_i32(v), v.round() as i32, "{v:e} ({bits:#x})");
        }
    }
}
