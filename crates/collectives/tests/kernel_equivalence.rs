//! Bitwise agreement of `reduce::{sum_into, sum_to, scale}` with a loop
//! written out here, one element at a time.
//!
//! Each operation is element-independent — `dst[i]` depends only on index
//! `i` of its inputs — so however the compiler vectorises the product loop
//! it must produce the bits of the indexed loop below at every length,
//! including on NaN and infinity payloads where `==` would lie. These
//! tests compare raw `to_bits()` words.

use dcnn_collectives::reduce;

/// Deterministic pseudo-random f32s with NaN, ±inf, subnormals and signed
/// zeros sprinkled in — bit patterns the vector path must carry verbatim.
fn awkward_values(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match i % 17 {
                3 => f32::NAN,
                7 => f32::INFINITY,
                11 => f32::NEG_INFINITY,
                13 => -0.0,
                15 => f32::from_bits(0x0000_0001), // smallest subnormal
                _ => ((state >> 40) as i32 as f32) * 1.000_123e-3,
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every vector-width remainder up to 65, and one length past 2^18
/// elements (1 MiB of `f32`, a whole-gradient-sized operand).
fn lengths() -> impl Iterator<Item = usize> {
    (0..=65).chain([(1 << 18) + 3])
}

#[test]
fn sum_into_matches_the_indexed_loop() {
    for n in lengths() {
        let src = awkward_values(n, 1);
        let base = awkward_values(n, 2);
        let mut got = base.clone();
        reduce::sum_into(&mut got, &src);
        let want: Vec<f32> = (0..n).map(|i| base[i] + src[i]).collect();
        assert_eq!(bits(&got), bits(&want), "sum_into diverges at n={n}");
    }
}

#[test]
fn sum_to_matches_the_indexed_loop() {
    for n in lengths() {
        let a = awkward_values(n, 3);
        let b = awkward_values(n, 4);
        let mut got = vec![0.0f32; n];
        reduce::sum_to(&mut got, &a, &b);
        let want: Vec<f32> = (0..n).map(|i| a[i] + b[i]).collect();
        assert_eq!(bits(&got), bits(&want), "sum_to diverges at n={n}");
    }
}

#[test]
fn scale_matches_the_indexed_loop() {
    for n in lengths() {
        let base = awkward_values(n, 5);
        for factor in [0.25f32, 1.0 / 3.0, f32::NAN, f32::INFINITY, -0.0] {
            let mut got = base.clone();
            reduce::scale(&mut got, factor);
            let want: Vec<f32> = (0..n).map(|i| base[i] * factor).collect();
            assert_eq!(bits(&got), bits(&want), "scale diverges at n={n}, factor={factor}");
        }
    }
}

#[test]
#[should_panic(expected = "reduction length mismatch")]
fn sum_into_rejects_a_shorter_source() {
    reduce::sum_into(&mut [0.0; 9], &[0.0; 8]);
}

#[test]
#[should_panic(expected = "reduction length mismatch")]
fn sum_to_rejects_a_shorter_first_operand() {
    reduce::sum_to(&mut [0.0; 9], &[0.0; 8], &[0.0; 9]);
}

#[test]
#[should_panic(expected = "reduction length mismatch")]
fn sum_to_rejects_a_longer_second_operand() {
    reduce::sum_to(&mut [0.0; 9], &[0.0; 9], &[0.0; 10]);
}
