//! Fully connected layer (the classifier head of both paper models).

use super::{lay_grad, GradSink, Module, OwnGrads, Param};
use crate::gemm::{gemm, gemm_nt_acc, gemm_tn_rows};
use crate::init::xavier_linear;
use crate::tensor::Tensor;

/// `y = x·Wᵀ + b` with `x: [N, in]`, `W: [out, in]`, `b: [out]`.
pub struct Linear {
    /// Weight `[out, in]`.
    pub weight: Param,
    /// Bias `[out]`.
    pub bias: Param,
    in_f: usize,
    out_f: usize,
    saved_x: Option<Tensor>,
}

impl Linear {
    /// Xavier-initialized linear layer.
    pub fn new(in_f: usize, out_f: usize, seed: u64) -> Self {
        Linear {
            weight: Param::new(xavier_linear(out_f, in_f, seed)),
            bias: Param::new(Tensor::zeros(&[out_f])),
            in_f,
            out_f,
            saved_x: None,
        }
    }
}

impl Module for Linear {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let n = x.shape()[0];
        assert_eq!(x.len(), n * self.in_f, "linear input shape");
        let mut y = Tensor::zeros(&[n, self.out_f]);
        // y[N,out] = x[N,in] · Wᵀ (W stored out×in), into the fresh zeros.
        gemm_nt_acc(y.data_mut(), x.data(), self.weight.value.data(), n, self.in_f, self.out_f);
        let b = self.bias.value.data();
        for row in y.data_mut().chunks_mut(self.out_f) {
            for (v, &bv) in row.iter_mut().zip(b) {
                *v += bv;
            }
        }
        if train {
            self.saved_x = Some(x.clone());
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_into(grad, 0, &mut OwnGrads(&mut |_, _| {}))
    }

    fn backward_into(&mut self, grad: &Tensor, base: usize, sink: &mut dyn GradSink) -> Tensor {
        let x = self.saved_x.take().expect("forward(train=true) before backward");
        let n = x.shape()[0];
        let (in_f, out_f) = (self.in_f, self.out_f);
        assert_eq!(grad.shape(), &[n, out_f]);
        // gW[out,in] = gᵀ[out,N] · x[N,in]  (g stored N×out).
        lay_grad(sink, base, &mut self.weight.grad, |gw| {
            gemm_tn_rows(gw, grad.data(), x.data(), 0..out_f, (out_f, n, in_f));
        });
        // gb = column sums of g.
        lay_grad(sink, base + out_f * in_f, &mut self.bias.grad, |gb| {
            gb.fill(0.0);
            for row in grad.data().chunks(out_f) {
                gb.iter_mut().zip(row).for_each(|(g, &v)| *g += v);
            }
        });
        // dx[N,in] = g[N,out] · W[out,in].
        let mut dx = Tensor::zeros(x.shape());
        gemm(dx.data_mut(), grad.data(), self.weight.value.data(), n, self.out_f, self.in_f);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_params_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        f(&format!("{prefix}weight"), &mut self.weight);
        f(&format!("{prefix}bias"), &mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::check_input_gradient;

    #[test]
    fn forward_known_values() {
        let mut l = Linear::new(2, 3, 0);
        l.weight.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        l.bias.value = Tensor::from_vec(vec![0.0, 10.0, 100.0], &[3]);
        let x = Tensor::from_vec(vec![2.0, 3.0], &[1, 2]);
        let y = l.forward(&x, false);
        assert_eq!(y.data(), &[2.0, 13.0, 105.0]);
    }

    #[test]
    fn input_gradient_checks() {
        let mut l = Linear::new(5, 4, 1);
        let x = Tensor::randn(&[3, 5], 1.0, 2);
        check_input_gradient(
            &mut l,
            &x,
            |y| 0.5 * y.data().iter().map(|&v| (v as f64).powi(2)).sum::<f64>(),
            |y| y.clone(),
            1e-2,
        );
    }

    #[test]
    fn weight_bias_gradients_known() {
        let mut l = Linear::new(2, 1, 0);
        l.weight.value = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let x = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]);
        let _ = l.forward(&x, true);
        let _ = l.backward(&Tensor::from_vec(vec![1.0, 2.0], &[2, 1]));
        // gW = Σ_n g_n · x_n = 1·(3,4) + 2·(5,6) = (13, 16)
        assert_eq!(l.weight.grad.data(), &[13.0, 16.0]);
        assert_eq!(l.bias.grad.data(), &[3.0]);
    }

    #[test]
    fn dx_is_g_times_w() {
        let mut l = Linear::new(2, 2, 0);
        l.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let _ = l.forward(&x, true);
        let dx = l.backward(&Tensor::from_vec(vec![1.0, 1.0], &[1, 2]));
        assert_eq!(dx.data(), &[4.0, 6.0]);
    }

    #[test]
    fn param_visit_sizes() {
        let mut l = Linear::new(2048, 1000, 0);
        let mut total = 0;
        l.visit_params(&mut |p| total += p.len());
        assert_eq!(total, 2048 * 1000 + 1000);
    }
}
