//! Rectified linear activation.

use super::{Module, Param};
use crate::tensor::Tensor;

/// Elementwise `max(0, x)`.
#[derive(Debug, Default)]
pub struct ReLU {
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// A fresh ReLU.
    pub fn new() -> Self {
        ReLU { mask: None }
    }
}

impl Module for ReLU {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train {
            return x.map(|v| v.max(0.0));
        }
        // One pass over `x` fills output and mask.
        let mut y = Tensor::zeros(x.shape());
        let mut mask = vec![false; x.len()];
        for ((yv, mv), &v) in y.data_mut().iter_mut().zip(&mut mask).zip(x.data()) {
            *yv = v.max(0.0);
            *mv = v > 0.0;
        }
        self.mask = Some(mask);
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mask = self.mask.take().expect("forward(train=true) before backward");
        assert_eq!(mask.len(), grad.len());
        let data = grad
            .data()
            .iter()
            .zip(&mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, grad.shape())
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(r.forward(&x, false).data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0, 0.0], &[4]);
        let _ = r.forward(&x, true);
        let g = Tensor::from_vec(vec![10.0, 10.0, 10.0, 10.0], &[4]);
        assert_eq!(r.backward(&g).data(), &[0.0, 10.0, 10.0, 0.0]);
    }

    #[test]
    fn one_pass_keeps_the_two_pass_semantics_bitwise() {
        // Output is `v.max(0.0)`, mask is `v > 0.0`, whatever `v`: both
        // zeros are masked, and a NaN gives what those two expressions give.
        let mut vals = vec![0.0, -0.0, f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        vals.extend((0..26).map(|i| (i as f32 - 12.5) * 0.37));
        let x = Tensor::from_vec(vals.clone(), &[4, 8]);
        let g = Tensor::from_vec((0..32).map(|i| i as f32 - 15.5).collect(), &[4, 8]);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let want_y: Vec<u32> = vals.iter().map(|v| v.max(0.0).to_bits()).collect();
        let want_dx: Vec<u32> = vals
            .iter()
            .zip(g.data())
            .map(|(&v, &gv)| if v > 0.0 { gv } else { 0.0f32 }.to_bits())
            .collect();
        let mut r = ReLU::new();
        assert_eq!(bits(&r.forward(&x, false)), want_y, "eval forward");
        assert_eq!(bits(&r.forward(&x, true)), want_y, "train forward");
        assert_eq!(bits(&r.backward(&g)), want_dx, "backward");
    }

    #[test]
    #[should_panic]
    fn backward_without_forward_panics() {
        let mut r = ReLU::new();
        let _ = r.backward(&Tensor::zeros(&[1]));
    }
}
