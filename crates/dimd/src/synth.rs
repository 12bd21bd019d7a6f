//! SynthImageNet: a seeded, class-conditional image generator.
//!
//! We do not have ImageNet, so we synthesize a classification dataset whose
//! *learnability* mirrors the real task's role in the paper: each class owns
//! a random low-frequency pattern bank; an image is its class pattern under
//! a random phase shift, contrast jitter and pixel noise. A CNN must learn
//! translation-robust class signatures — trivially separable datasets would
//! make the accuracy curves (Figures 13–16) meaningless.
//!
//! The class pattern is `sin(fx₀·x + φx)·cos(fy₀·y + φy) + cos(fx₁·x + φy)·
//! sin(fy₁·y + φx)`: each of its four factors depends on one axis only, so
//! `SynthImageNet::render` evaluates them into two per-column and two
//! per-row tables (`4·hw` trig calls per image instead of `12·hw²`). Every
//! entry is the expression the per-pixel loop used to evaluate, in the same
//! `f32` operations, and the pixel combines the same four values in the
//! same order, so each pixel keeps its bits; the per-pixel noise is still
//! drawn in channel, row, column order. Records, and every training run
//! over them, are the same bytes as when the trig ran per pixel
//! (`render_matches_the_pre_change_generator_bitwise`).

use crate::image::RawImage;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of classes.
    pub classes: usize,
    /// Training images per class.
    pub train_per_class: usize,
    /// Validation images per class.
    pub val_per_class: usize,
    /// Generated image height/width (images are square at `base ± jitter`).
    pub base_hw: usize,
    /// ± size jitter so the resize path is exercised (0 = fixed size).
    pub hw_jitter: usize,
    /// Pixel noise amplitude (0–128).
    pub noise: f32,
    /// Master seed.
    pub seed: u64,
}

impl SynthConfig {
    /// A small, quickly learnable config for CPU training tests.
    pub fn tiny(classes: usize) -> Self {
        SynthConfig {
            classes,
            train_per_class: 64,
            val_per_class: 16,
            base_hw: 32,
            hw_jitter: 0,
            noise: 18.0,
            seed: 0x5EED,
        }
    }
}

/// The dataset: deterministic function of (config, split, index).
#[derive(Debug, Clone)]
pub struct SynthImageNet {
    cfg: SynthConfig,
    /// Per class: two spatial frequency pairs and channel amplitudes.
    patterns: Vec<ClassPattern>,
}

#[derive(Debug, Clone)]
struct ClassPattern {
    fx: [f32; 2],
    fy: [f32; 2],
    amp: [f32; 3],
    chroma: [f32; 3],
}

impl SynthImageNet {
    /// Build the generator (cheap; images are produced lazily).
    pub fn new(cfg: SynthConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let patterns = (0..cfg.classes)
            .map(|_| ClassPattern {
                fx: [rng.random_range(0.15..0.9), rng.random_range(0.15..0.9)],
                fy: [rng.random_range(0.15..0.9), rng.random_range(0.15..0.9)],
                amp: [
                    rng.random_range(30.0..70.0),
                    rng.random_range(30.0..70.0),
                    rng.random_range(30.0..70.0),
                ],
                chroma: [
                    rng.random_range(-30.0..30.0),
                    rng.random_range(-30.0..30.0),
                    rng.random_range(-30.0..30.0),
                ],
            })
            .collect();
        SynthImageNet { cfg, patterns }
    }

    /// The configuration.
    pub fn config(&self) -> &SynthConfig {
        &self.cfg
    }

    /// Total training images.
    pub fn train_len(&self) -> usize {
        self.cfg.classes * self.cfg.train_per_class
    }

    /// Total validation images.
    pub fn val_len(&self) -> usize {
        self.cfg.classes * self.cfg.val_per_class
    }

    /// Label of training image `i` (images are class-major).
    pub fn train_label(&self, i: usize) -> usize {
        i / self.cfg.train_per_class
    }

    /// Label of validation image `i`.
    pub fn val_label(&self, i: usize) -> usize {
        i / self.cfg.val_per_class
    }

    /// Generate training image `i`.
    pub fn train_image(&self, i: usize) -> RawImage {
        assert!(i < self.train_len());
        self.render(self.train_label(i), i as u64, false)
    }

    /// Generate validation image `i`.
    pub fn val_image(&self, i: usize) -> RawImage {
        assert!(i < self.val_len());
        self.render(self.val_label(i), 0x8000_0000_0000_0000 | i as u64, true)
    }

    fn render(&self, class: usize, salt: u64, val: bool) -> RawImage {
        let mut mix = salt.wrapping_add(self.cfg.seed).wrapping_add(if val {
            0x5851_F42D_4C95_7F2D
        } else {
            0
        });
        mix ^= mix >> 30;
        mix = mix.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        mix ^= mix >> 27;
        mix = mix.wrapping_mul(0x94D0_49BB_1331_11EB);
        mix ^= mix >> 31;
        let mut rng = StdRng::seed_from_u64(mix);
        let jitter = if self.cfg.hw_jitter > 0 {
            rng.random_range(0..=2 * self.cfg.hw_jitter) as i64 - self.cfg.hw_jitter as i64
        } else {
            0
        };
        let hw = (self.cfg.base_hw as i64 + jitter).max(8) as usize;
        let p = &self.patterns[class];
        let phase_x: f32 = rng.random_range(0.0..std::f32::consts::TAU);
        let phase_y: f32 = rng.random_range(0.0..std::f32::consts::TAU);
        let contrast: f32 = rng.random_range(0.7..1.3);
        // The pattern's four one-axis factors, each entry exactly the
        // per-pixel expression it replaces.
        let axis = |f: f32, phase: f32, trig: fn(f32) -> f32| -> Vec<f32> {
            (0..hw).map(|i| trig(f * i as f32 + phase)).collect()
        };
        let (sin_x, cos_x) = (axis(p.fx[0], phase_x, f32::sin), axis(p.fx[1], phase_y, f32::cos));
        let (cos_y, sin_y) = (axis(p.fy[0], phase_y, f32::cos), axis(p.fy[1], phase_x, f32::sin));
        let mut img = RawImage::new(3, hw, hw);
        for (c, plane) in img.data.chunks_exact_mut(hw * hw).enumerate() {
            for (row, (&cy, &sy)) in plane.chunks_exact_mut(hw).zip(cos_y.iter().zip(&sin_y)) {
                for (px, (&sx, &cx)) in row.iter_mut().zip(sin_x.iter().zip(&cos_x)) {
                    let s = sx * cy + cx * sy;
                    let noise: f32 = rng.random_range(-self.cfg.noise..=self.cfg.noise);
                    let v = 128.0 + p.chroma[c] + contrast * p.amp[c] * s * 0.5 + noise;
                    *px = v.clamp(0.0, 255.0) as u8;
                }
            }
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator as it stood before the per-axis tables — four trig
    /// calls per pixel per channel — kept as what `render` is compared
    /// against bit for bit.
    mod reference {
        use super::super::*;

        pub fn render(ds: &SynthImageNet, class: usize, salt: u64, val: bool) -> RawImage {
            let mut mix = salt.wrapping_add(ds.cfg.seed).wrapping_add(if val {
                0x5851_F42D_4C95_7F2D
            } else {
                0
            });
            mix ^= mix >> 30;
            mix = mix.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            mix ^= mix >> 27;
            mix = mix.wrapping_mul(0x94D0_49BB_1331_11EB);
            mix ^= mix >> 31;
            let mut rng = StdRng::seed_from_u64(mix);
            let jitter = if ds.cfg.hw_jitter > 0 {
                rng.random_range(0..=2 * ds.cfg.hw_jitter) as i64 - ds.cfg.hw_jitter as i64
            } else {
                0
            };
            let hw = (ds.cfg.base_hw as i64 + jitter).max(8) as usize;
            let p = &ds.patterns[class];
            let phase_x: f32 = rng.random_range(0.0..std::f32::consts::TAU);
            let phase_y: f32 = rng.random_range(0.0..std::f32::consts::TAU);
            let contrast: f32 = rng.random_range(0.7..1.3);
            let mut img = RawImage::new(3, hw, hw);
            for c in 0..3 {
                for y in 0..hw {
                    for x in 0..hw {
                        let s = (p.fx[0] * x as f32 + phase_x).sin()
                            * (p.fy[0] * y as f32 + phase_y).cos()
                            + (p.fx[1] * x as f32 + phase_y).cos()
                                * (p.fy[1] * y as f32 + phase_x).sin();
                        let noise: f32 = rng.random_range(-ds.cfg.noise..=ds.cfg.noise);
                        let v = 128.0 + p.chroma[c] + contrast * p.amp[c] * s * 0.5 + noise;
                        img.set(c, y, x, v.clamp(0.0, 255.0) as u8);
                    }
                }
            }
            img
        }
    }

    #[test]
    fn render_matches_the_pre_change_generator_bitwise() {
        for base_hw in [8, 32, 33, 128] {
            for hw_jitter in [0, 8] {
                for noise in [0.0, 18.0] {
                    for seed in [0x5EED, 7, 42] {
                        let cfg = SynthConfig {
                            classes: 3,
                            train_per_class: 2,
                            val_per_class: 1,
                            base_hw,
                            hw_jitter,
                            noise,
                            seed,
                        };
                        let ds = SynthImageNet::new(cfg.clone());
                        let at = format!("{cfg:?}");
                        for i in 0..ds.train_len() {
                            let want = reference::render(&ds, ds.train_label(i), i as u64, false);
                            assert_eq!(ds.train_image(i), want, "train {i} of {at}");
                        }
                        for i in 0..ds.val_len() {
                            let salt = 0x8000_0000_0000_0000 | i as u64;
                            let want = reference::render(&ds, ds.val_label(i), salt, true);
                            assert_eq!(ds.val_image(i), want, "val {i} of {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let ds = SynthImageNet::new(SynthConfig::tiny(4));
        assert_eq!(ds.train_image(7), ds.train_image(7));
        let ds2 = SynthImageNet::new(SynthConfig::tiny(4));
        assert_eq!(ds.train_image(7), ds2.train_image(7));
    }

    #[test]
    fn different_images_differ() {
        let ds = SynthImageNet::new(SynthConfig::tiny(4));
        assert_ne!(ds.train_image(0), ds.train_image(1));
        assert_ne!(ds.train_image(0), ds.val_image(0));
    }

    #[test]
    fn labels_are_class_major() {
        let ds = SynthImageNet::new(SynthConfig::tiny(3));
        assert_eq!(ds.train_label(0), 0);
        assert_eq!(ds.train_label(63), 0);
        assert_eq!(ds.train_label(64), 1);
        assert_eq!(ds.val_label(47), 2);
        assert_eq!(ds.train_len(), 192);
        assert_eq!(ds.val_len(), 48);
    }

    #[test]
    fn size_jitter_produces_varied_dims() {
        let mut cfg = SynthConfig::tiny(2);
        cfg.hw_jitter = 8;
        cfg.base_hw = 48;
        let ds = SynthImageNet::new(cfg);
        let sizes: std::collections::HashSet<usize> =
            (0..20).map(|i| ds.train_image(i).h).collect();
        assert!(sizes.len() > 1, "jitter should vary sizes");
        assert!(sizes.iter().all(|&s| (40..=56).contains(&s)));
    }

    #[test]
    fn classes_are_statistically_distinct() {
        // Mean per-class images should differ more across classes than the
        // noise level within a class.
        let ds = SynthImageNet::new(SynthConfig::tiny(2));
        let mean_img = |class: usize| {
            let mut acc = vec![0.0f64; 3 * 32 * 32];
            for i in 0..8 {
                let img = ds.train_image(class * 64 + i);
                for (a, &b) in acc.iter_mut().zip(&img.data) {
                    *a += b as f64 / 8.0;
                }
            }
            acc
        };
        let m0 = mean_img(0);
        let m1 = mean_img(1);
        let dist: f64 =
            m0.iter().zip(&m1).map(|(a, b)| (a - b).abs()).sum::<f64>() / m0.len() as f64;
        assert!(dist > 5.0, "class means too similar: {dist}");
    }

    #[test]
    fn images_survive_codec() {
        let ds = SynthImageNet::new(SynthConfig::tiny(2));
        let img = ds.train_image(0);
        let enc = crate::codec::encode_image(&img, 60);
        let dec = crate::codec::decode_image(&enc);
        assert!(crate::codec::psnr(&img, &dec) > 24.0);
    }
}
