//! CRC-32/IEEE — the one checksum of the repository, and every kernel that
//! computes it.
//!
//! The polynomial, the lookup tables, the kernels and the choice between
//! them all live here. Callers see one streaming entry point,
//! [`crc32_update`], and thin conveniences over it ([`crc32`],
//! [`crc32_f32`]); the TCP frame trailer, the DIMD blob record checksums
//! (`dcnn_dimd::crc` re-exports this module) and the `crc=` fingerprints the
//! launcher prints all go through it.
//!
//! ## Which kernel runs where
//!
//! * [`crc32_update_portable`] — slicing-by-8 table lookups, ~1.4 GiB/s. The
//!   only kernel on targets other than x86_64, and the reference (next to
//!   [`crc32_bytewise`]) the tests compare the hardware kernel against.
//! * the private `clmul` kernel — x86_64 only, compiled under
//!   `#[target_feature(enable = "pclmulqdq,sse4.1")]`: carry-less
//!   multiplication folds 64 input bytes per iteration into four 128-bit
//!   accumulators, then folds those to one, and a Barrett reduction brings
//!   the 128 bits down to the 32-bit state (Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel 2009). Memory speed: ~15–25 GiB/s on the machines this ran on.
//!
//! [`crc32_update`] picks between them from two things only: whether the CPU
//! reports the instructions (`is_x86_feature_detected!`, a cached atomic
//! load) and whether the input is at least `CLMUL_MIN_LEN` (64) bytes. Both
//! kernels compute the same function of (state, bytes) — the CRC is a
//! polynomial remainder, not an implementation detail — so a stream may
//! cross between them at any byte and no checksum on the wire, on disk or
//! in a golden test depends on which one ran.

/// Reflected polynomial of CRC-32/IEEE.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC_TABLES[k]` advances a byte that sits `k` positions further
/// ahead in the stream, so eight table reads retire eight input bytes with
/// one XOR tree instead of an eight-deep dependent chain.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            t[k][i] = t[0][(t[k - 1][i] & 0xFF) as usize] ^ (t[k - 1][i] >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// Lookup tables computed at compile time (8 × 256 × 4 B = 8 KiB).
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Inputs shorter than this stay on the portable kernel: the folding kernel
/// starts by loading four 16-byte blocks, so 64 bytes is the least it can
/// take, and below that (the 25-byte frame header, the 8-byte labels of a
/// fingerprint) the table walk is already a few dozen nanoseconds.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN_LEN: usize = 64;

/// Advance a *raw* (pre-/post-inversion handled by the caller) CRC-32 state
/// over `data`. Streaming callers seed with `0xFFFF_FFFF`, fold in chunks
/// as they arrive, and invert once at the end — exactly what the frame
/// writer does around its scattered header/payload/trailer pieces.
///
/// On x86_64 with PCLMULQDQ, inputs of `CLMUL_MIN_LEN` bytes or more run
/// the carry-less-multiply kernel over their whole 16-byte blocks and hand
/// the last `len % 16` bytes to the portable kernel; everything else is
/// [`crc32_update_portable`]. The result is the same either way.
pub fn crc32_update(c: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN_LEN && crc32_clmul_selected() {
        let (blocks, tail) = data.split_at(data.len() & !15);
        // SAFETY: `clmul::fold`'s only requirement is a CPU with PCLMULQDQ
        // and SSE4.1, and `crc32_clmul_selected` detected both on the line
        // above.
        let c = unsafe { clmul::fold(c, blocks) };
        return crc32_update_portable(c, tail);
    }
    crc32_update_portable(c, data)
}

/// Whether [`crc32_update`] runs the carry-less-multiply kernel in this
/// process: the CPU half of its dispatch. Public so `dcnn-perf` holds the
/// `crc/update` pair to the hardware kernel's floor only where that kernel
/// is what runs.
#[inline]
pub fn crc32_clmul_selected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The portable slicing-by-8 kernel behind [`crc32_update`], same raw-state
/// contract. Public so tests and `dcnn-perf` can run it on machines where
/// [`crc32_update`] would pick the hardware kernel.
pub fn crc32_update_portable(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE 802.3) of `data`, from scratch. Guards every TCP frame
/// (trailer) and every DIMD blob record — `dcnn_dimd::crc` re-exports this
/// single implementation (the dependency points dimd → collectives, so the
/// shared code lives here).
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// Advance a raw CRC-32 state over the little-endian bit patterns of `data`
/// — the bytes an `f32` payload has on the wire — without staging them: on
/// little-endian targets the slice is checksummed in place. Seed with
/// `!0` and invert the result for the fingerprint that matches only when
/// two buffers are bitwise identical.
pub fn crc32_f32(c: u32, data: &[f32]) -> u32 {
    crc32_update(c, &super::wire::f32s_as_le_bytes(data))
}

/// The pre-slicing byte-at-a-time table walk, kept as the reference the
/// equivalence tests (and the perf baseline) compare the faster kernels
/// against.
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The PCLMULQDQ folding kernel.
///
/// A reflected CRC treats the message as a polynomial over GF(2) whose
/// *first* byte holds the highest powers, stored bit-reversed — so in a
/// 128-bit register loaded from memory the low quadword is the
/// higher-degree half. "Folding" replaces a block `A` that sits `n` bits
/// ahead of a block `B` by `A · (xⁿ mod P) ⊕ B`, which leaves the remainder
/// mod `P` unchanged and is two carry-less multiplies (one per quadword of
/// `A`) and two XORs. Every constant below is `x^k mod P` for the distance
/// it folds across; they are derived from `CRC_POLY` at compile time and
/// pinned against the published values by a unit test.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    use super::{CLMUL_MIN_LEN, CRC_POLY};

    /// `x^n mod P`, bit-reflected and shifted left once: the operand form
    /// that makes `PCLMULQDQ` of two reflected values come out aligned (the
    /// product of two reflected 64-bit polynomials is 127 bits, one short
    /// of the register).
    pub(super) const fn x_pow_mod_p(n: u32) -> i64 {
        let mut c = 0x8000_0000u32; // x^0
        let mut i = 0;
        while i < n {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            i += 1;
        }
        ((c as u64) << 1) as i64
    }

    /// `P(x)` itself as a reflected 33-bit value.
    pub(super) const P_X: i64 = (((CRC_POLY as u64) << 1) | 1) as i64;

    /// `⌊x^64 / P(x)⌋`, the Barrett constant μ, as a reflected 33-bit value.
    pub(super) const fn barrett_mu() -> i64 {
        // Schoolbook long division in the normal (unreflected) bit order.
        let p = (CRC_POLY.reverse_bits() as u128) | 1 << 32;
        let mut rem = 1u128 << 64;
        let mut q = 0u64;
        let mut bit = 33;
        while bit > 0 {
            bit -= 1;
            if (rem >> (bit + 32)) & 1 != 0 {
                q |= 1 << bit;
                rem ^= p << bit;
            }
        }
        (q.reverse_bits() >> 31) as i64
    }

    /// Fold distances: 4 blocks (512 bits) for the main loop, 1 block for
    /// the tail; each 128-bit block folds as two quadwords, 64 bits apart.
    const FOLD_4_LO: i64 = x_pow_mod_p(512 + 32);
    const FOLD_4_HI: i64 = x_pow_mod_p(512 - 32);
    const FOLD_1_LO: i64 = x_pow_mod_p(128 + 32);
    const FOLD_1_HI: i64 = x_pow_mod_p(128 - 32);
    const FOLD_64: i64 = x_pow_mod_p(64);
    const MU: i64 = barrett_mu();

    /// `acc` moved `n` bits up the message (where `keys` holds
    /// `x^(n+32) mod P` low and `x^(n−32) mod P` high) and added to `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advance raw CRC state `crc` over `data`, which must be a whole number
    /// of 16-byte blocks and at least four of them (checked).
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(crc: u32, data: &[u8]) -> u32 {
        assert!(
            data.len() >= CLMUL_MIN_LEN && data.len().is_multiple_of(16),
            "clmul kernel takes >= 4 whole blocks"
        );
        let mut blocks = data.chunks_exact(16).map(|b| {
            // SAFETY: `chunks_exact(16)` yields in-bounds slices of exactly
            // 16 bytes, and `_mm_loadu_si128` has no alignment requirement.
            unsafe { _mm_loadu_si128(b.as_ptr().cast::<__m128i>()) }
        });
        let mut next = || blocks.next().expect("block count checked above");

        // The incoming state is the remainder so far; XORing it into the
        // first four message bytes continues the division from there.
        let mut acc =
            [_mm_xor_si128(next(), _mm_cvtsi32_si128(crc as i32)), next(), next(), next()];
        let fold_4 = _mm_set_epi64x(FOLD_4_HI, FOLD_4_LO);
        for _ in 0..(data.len() - 64) / 64 {
            for a in &mut acc {
                *a = fold_into(*a, next(), fold_4);
            }
        }

        // Four accumulators → one, then the < 4 remaining blocks.
        let fold_1 = _mm_set_epi64x(FOLD_1_HI, FOLD_1_LO);
        let mut x = fold_into(acc[0], acc[1], fold_1);
        x = fold_into(x, acc[2], fold_1);
        x = fold_into(x, acc[3], fold_1);
        for block in blocks {
            x = fold_into(x, block, fold_1);
        }

        // 128 → 96 → 64 bits: fold the high-degree quadword, then the
        // high-degree dword, onto what follows them.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, fold_1), _mm_srli_si128::<8>(x));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, FOLD_64)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction, 64 → 32 bits: T1 = ⌊R / x^32⌋ · μ,
        // T2 = ⌊T1 / x^32⌋ · P, remainder = (R ⊕ T2) mod x^32 — in the
        // reflected layout, dword 1.
        let p_mu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), p_mu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b""), 0);
    }

    #[test]
    fn sliced_crc_matches_bytewise_on_random_inputs() {
        // Deterministic xorshift stream; lengths sweep every alignment
        // class around the 8-byte slicing width plus larger buffers.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut byte = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        };
        for len in (0..64).chain([255, 256, 257, 1 << 12, (1 << 16) + 3]) {
            let data: Vec<u8> = (0..len).map(|_| byte()).collect();
            assert_eq!(crc32(&data), crc32_bytewise(&data), "len {len}");
        }
    }

    #[test]
    fn sliced_crc_matches_bytewise_on_adversarial_inputs() {
        // Patterns that break table-mixing bugs: all-zero, all-ones, each
        // single-bit flip near slice boundaries, and runs of the polynomial
        // bytes themselves.
        for data in [vec![0u8; 1024], vec![0xFF; 1024], vec![0xA5; 7], vec![0x5A; 9]] {
            assert_eq!(crc32(&data), crc32_bytewise(&data));
        }
        let base = vec![0u8; 40];
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut d = base.clone();
                d[byte] ^= 1 << bit;
                assert_eq!(crc32(&d), crc32_bytewise(&d), "flip {byte}:{bit}");
            }
        }
        let poly: Vec<u8> = CRC_POLY.to_le_bytes().iter().copied().cycle().take(123).collect();
        assert_eq!(crc32(&poly), crc32_bytewise(&poly));
    }

    #[test]
    fn streaming_update_is_split_invariant() {
        let data: Vec<u8> = (0u32..300).map(|i| (i * 31 % 251) as u8).collect();
        let whole = !crc32_update(0xFFFF_FFFF, &data);
        for split in [0, 1, 7, 8, 9, 128, 299, 300] {
            let (a, b) = data.split_at(split);
            let st = crc32_update(0xFFFF_FFFF, a);
            assert_eq!(!crc32_update(st, b), whole, "split {split}");
        }
    }

    /// Deterministic non-repeating bytes (xorshift), so a block swapped or
    /// dropped by a folding bug cannot cancel out.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    fn portable(data: &[u8]) -> u32 {
        !crc32_update_portable(0xFFFF_FFFF, data)
    }

    #[test]
    fn dispatch_matches_both_references_at_every_length_and_alignment() {
        // Every length across the cut-off, the 64-byte main loop and the
        // 16-byte tail loop, at every start offset within a 16-byte line:
        // the kernel's unaligned loads must not care where the slice sits.
        let buf = noise(600 + 16, 0x9E37_79B9_7F4A_7C15);
        for offset in 0..16 {
            for len in 0..=600 {
                let data = &buf[offset..offset + len];
                let want = crc32_bytewise(data);
                assert_eq!(portable(data), want, "portable, offset {offset} len {len}");
                assert_eq!(crc32(data), want, "dispatch, offset {offset} len {len}");
            }
        }
        let big = noise((1 << 20) + 3, 42);
        let want = crc32_bytewise(&big);
        assert_eq!(portable(&big), want);
        assert_eq!(crc32(&big), want);
    }

    #[test]
    fn streaming_hands_off_between_kernels_at_every_split() {
        // Splits below 64 bytes start portable and finish on the hardware
        // kernel, splits above 960 the reverse, everything between is
        // hardware to hardware — the raw state is the whole contract.
        let data = noise(1024, 7);
        let whole = crc32_bytewise(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            let st = crc32_update(0xFFFF_FFFF, a);
            assert_eq!(!crc32_update(st, b), whole, "split {split}");
        }
    }

    #[test]
    fn every_single_bit_flip_in_a_4k_payload_changes_the_crc() {
        let mut data = noise(4096, 3);
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "missed flip at {byte}:{bit}");
                data[byte] ^= 1 << bit;
            }
        }
        assert_eq!(crc32(&data), base);
    }

    #[test]
    fn f32_crc_is_the_crc_of_the_little_endian_bytes() {
        let vals: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.37).sin()).collect();
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(!crc32_f32(!0, &vals), crc32_bytewise(&bytes));
        // Streaming over sub-slices equals one pass over the whole.
        let (a, b) = vals.split_at(333);
        assert_eq!(crc32_f32(crc32_f32(!0, a), b), crc32_f32(!0, &vals));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_derived_from_the_polynomial_match_the_published_ones() {
        // Table 1 of the Intel white paper (also zlib's and Linux's
        // crc32-pclmul): k1..k5, P(x) and μ for the reflected IEEE polynomial.
        assert_eq!(clmul::x_pow_mod_p(512 + 32), 0x1_5444_2bd4);
        assert_eq!(clmul::x_pow_mod_p(512 - 32), 0x1_c6e4_1596);
        assert_eq!(clmul::x_pow_mod_p(128 + 32), 0x1_7519_97d0);
        assert_eq!(clmul::x_pow_mod_p(128 - 32), 0x0_ccaa_009e);
        assert_eq!(clmul::x_pow_mod_p(64), 0x1_63cd_6124);
        assert_eq!(clmul::P_X, 0x1_db71_0641);
        assert_eq!(clmul::barrett_mu(), 0x1_f701_1641);
    }
}
