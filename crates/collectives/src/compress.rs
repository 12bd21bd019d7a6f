//! Gradient compression — an extension beyond the paper.
//!
//! Half-precision (IEEE 754 binary16) gradient exchange halves the allreduce
//! payload; it became standard practice in the large-batch training line of
//! work the paper competes in. We implement the conversion from scratch
//! (round-to-nearest-even) and wrap any [`Allreduce`] so that local
//! gradients are quantized before the exchange — modelling both the
//! precision loss (in real execution) and the bandwidth saving (in the
//! schedule).

use dcnn_simnet::CommSchedule;

use crate::algorithms::{Allreduce, CostModel};
use crate::plan::Step;
use crate::runtime::Comm;

/// Convert an `f32` to IEEE 754 binary16 bits, round-to-nearest-even.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x7F_FFFF;

    if exp == 0xFF {
        // Inf / NaN.
        let m = if mant != 0 { 0x200 } else { 0 };
        return sign | 0x7C00 | m;
    }
    // Unbiased exponent.
    let e = exp - 127;
    if e > 15 {
        return sign | 0x7C00; // overflow → ±inf
    }
    if e >= -14 {
        // Normal f16. Keep 10 mantissa bits, round-to-nearest-even on the
        // 13 dropped bits.
        let mut m = mant >> 13;
        let rest = mant & 0x1FFF;
        if rest > 0x1000 || (rest == 0x1000 && (m & 1) == 1) {
            m += 1;
        }
        let mut e16 = (e + 15) as u32;
        if m == 0x400 {
            // Mantissa rounded up past 10 bits.
            m = 0;
            e16 += 1;
            if e16 >= 31 {
                return sign | 0x7C00;
            }
        }
        return sign | ((e16 as u16) << 10) | (m as u16);
    }
    if e >= -24 {
        // Subnormal f16.
        let full = mant | 0x80_0000; // implicit leading 1
        let shift = (-14 - e) + 13;
        let m = full >> shift;
        let rest = full & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let mut m = m;
        if rest > half || (rest == half && (m & 1) == 1) {
            m += 1;
        }
        return sign | (m as u16);
    }
    sign // underflow → ±0
}

/// Convert IEEE 754 binary16 bits to `f32`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x3FF) as u32;
    let bits = if exp == 0x1F {
        // Inf / NaN.
        sign | 0x7F80_0000 | (mant << 13)
    } else if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: normalize. `lead` counts the zeros above the most
            // significant set bit within the 10-bit field.
            let lead = mant.leading_zeros() - 22;
            let m = (mant << (lead + 1)) & 0x3FF;
            let e = 127 - 15 - lead;
            sign | (e << 23) | (m << 13)
        }
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

/// Quantize a slice in place through f16 (the value each peer would receive).
pub fn quantize_f16(buf: &mut [f32]) {
    for v in buf {
        *v = f16_bits_to_f32(f32_to_f16_bits(*v));
    }
}

/// Wrap an allreduce with f16 gradient quantization: inputs are quantized
/// before the exchange (precision effect), and the compiled schedule carries
/// half the bytes (bandwidth effect).
pub struct Fp16Allreduce<A: Allreduce> {
    inner: A,
}

impl<A: Allreduce> Fp16Allreduce<A> {
    /// Wrap `inner`.
    pub fn new(inner: A) -> Self {
        Fp16Allreduce { inner }
    }
}

impl<A: Allreduce> Allreduce for Fp16Allreduce<A> {
    fn name(&self) -> &'static str {
        "fp16"
    }

    fn plan(&self, n: usize, rank: usize, len: usize) -> Vec<Step> {
        self.inner.plan(n, rank, len)
    }

    fn run(&self, comm: &Comm, buf: &mut [f32]) {
        let _phase = comm.phase(self.name());
        quantize_f16(buf);
        self.inner.run(comm, buf);
    }

    fn schedule(&self, n: usize, bytes: f64, cost: &CostModel) -> CommSchedule {
        self.inner.schedule(n, bytes / 2.0, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::MultiColor;
    use crate::runtime::run_cluster;

    #[test]
    fn exact_values_roundtrip() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 1024.0, 0.0009765625] {
            let q = f16_bits_to_f32(f32_to_f16_bits(v));
            assert_eq!(q, v, "{v}");
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xC000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7BFF); // f16::MAX
        assert_eq!(f32_to_f16_bits(1e6), 0x7C00); // overflow → inf
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7C00);
        assert_eq!(f16_bits_to_f32(0x3C00), 1.0);
        assert_eq!(f16_bits_to_f32(0x7C00), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(0xFC00), f32::NEG_INFINITY);
        assert!(f16_bits_to_f32(0x7E00).is_nan());
    }

    #[test]
    fn subnormals_roundtrip() {
        // Smallest positive f16 subnormal: 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(f32_to_f16_bits(tiny), 0x0001);
        assert_eq!(f16_bits_to_f32(0x0001), tiny);
        // Largest subnormal.
        let big_sub = f16_bits_to_f32(0x03FF);
        assert_eq!(f32_to_f16_bits(big_sub), 0x03FF);
        // Underflow to zero.
        assert_eq!(f32_to_f16_bits(1e-10), 0x0000);
    }

    #[test]
    fn relative_error_bounded_for_normals() {
        // ULP of f16 normals: 2^-11 relative.
        let mut s = 0x12345u64;
        for _ in 0..2000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let v = ((s % 2_000_000) as f32 - 1_000_000.0) / 37_000.0;
            if v.abs() < 1e-3 {
                continue;
            }
            let q = f16_bits_to_f32(f32_to_f16_bits(v));
            let rel = ((q - v) / v).abs();
            assert!(rel < 1.0 / 2048.0 + 1e-7, "{v} → {q}: rel {rel}");
        }
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16
        // (1 + 2^-10); nearest-even rounds down to 1.0.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(halfway)), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-16);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(above)), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn fp16_allreduce_sums_quantized_inputs() {
        let algo = Fp16Allreduce::new(MultiColor::new(2));
        let out = run_cluster(4, |c| {
            let mut buf = vec![0.1f32 + c.rank() as f32; 16];
            algo.run(c, &mut buf);
            buf[0]
        });
        // Sum of the f16-quantized per-rank values.
        let expect: f32 = (0..4)
            .map(|r| f16_bits_to_f32(f32_to_f16_bits(0.1 + r as f32)))
            .sum();
        for v in out {
            assert!((v - expect).abs() < 1e-3, "{v} vs {expect}");
        }
    }

    #[test]
    fn schedule_halves_bytes() {
        let cost = CostModel::default();
        let full = MultiColor::new(4).schedule(8, 8e6, &cost).total_bytes();
        let half = Fp16Allreduce::new(MultiColor::new(4)).schedule(8, 8e6, &cost).total_bytes();
        assert!((half * 2.0 - full).abs() < 1e-6 * full);
    }
}
