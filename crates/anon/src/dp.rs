//! Differential privacy \[Dwo11\] — the paper cites DP as one of the
//! anonymization concepts the postprocessor can choose from. This module
//! provides the Laplace mechanism for numeric aggregates and randomized
//! response for boolean attributes.

use rand::distributions::{Distribution, Laplace};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use paradise_engine::{Frame, Value};

use crate::error::{AnonError, AnonResult};

/// A seeded Laplace-mechanism noise source.
#[derive(Debug)]
pub struct LaplaceMechanism {
    rng: StdRng,
    /// Privacy budget ε.
    pub epsilon: f64,
}

impl LaplaceMechanism {
    /// New mechanism with privacy budget `epsilon`.
    pub fn new(epsilon: f64, seed: u64) -> AnonResult<Self> {
        if epsilon <= 0.0 || !epsilon.is_finite() {
            return Err(AnonError::BadParameter(format!("epsilon must be > 0, got {epsilon}")));
        }
        Ok(LaplaceMechanism { rng: StdRng::seed_from_u64(seed), epsilon })
    }

    /// Release `value` with the given L1 `sensitivity`.
    pub fn release(&mut self, value: f64, sensitivity: f64) -> AnonResult<f64> {
        if sensitivity <= 0.0 || !sensitivity.is_finite() {
            return Err(AnonError::BadParameter(format!(
                "sensitivity must be > 0, got {sensitivity}"
            )));
        }
        Ok(value + laplace_noise(&mut self.rng, sensitivity / self.epsilon))
    }

    /// DP count of rows (sensitivity 1).
    pub fn dp_count(&mut self, frame: &Frame) -> AnonResult<f64> {
        self.release(frame.len() as f64, 1.0)
    }

    /// DP sum over a numeric column clamped to `[lo, hi]`
    /// (sensitivity = max(|lo|, |hi|)).
    pub fn dp_sum(&mut self, frame: &Frame, column: usize, lo: f64, hi: f64) -> AnonResult<f64> {
        if column >= frame.schema.len() {
            return Err(AnonError::BadColumn(column));
        }
        if lo >= hi || lo.is_nan() || hi.is_nan() {
            return Err(AnonError::BadParameter("need lo < hi for clamping".into()));
        }
        let col = frame.column(column);
        let sum: f64 = (0..frame.len())
            .filter_map(|i| col.as_f64(i))
            .map(|x| x.clamp(lo, hi))
            .sum();
        self.release(sum, lo.abs().max(hi.abs()))
    }

    /// DP mean over a clamped column, via the standard sum/count split
    /// (each gets ε/2).
    pub fn dp_avg(&mut self, frame: &Frame, column: usize, lo: f64, hi: f64) -> AnonResult<f64> {
        let eps = self.epsilon;
        self.epsilon = eps / 2.0;
        let sum = self.dp_sum(frame, column, lo, hi)?;
        let count = self.dp_count(frame)?.max(1.0);
        self.epsilon = eps;
        Ok(sum / count)
    }

    /// Randomized response over a boolean column: each value is kept with
    /// probability `e^ε/(1+e^ε)` and flipped otherwise. Returns a frame
    /// with the column perturbed (ε-DP for that bit).
    pub fn randomized_response(&mut self, frame: &Frame, column: usize) -> AnonResult<Frame> {
        if column >= frame.schema.len() {
            return Err(AnonError::BadColumn(column));
        }
        let keep_p = self.epsilon.exp() / (1.0 + self.epsilon.exp());
        let mut out = frame.clone();
        let col = out.column_mut(column);
        for i in 0..col.len() {
            if let Value::Bool(b) = col.value(i) {
                let keep: bool = self.rng.gen_bool(keep_p);
                col.set(i, Value::Bool(if keep { b } else { !b }));
            }
        }
        Ok(out)
    }
}

/// One Laplace(0, `scale`) draw from the workspace's single sampler
/// (the one `paradise_engine::noise` uses), whose tail guard keeps the
/// extreme uniform draw finite.
fn laplace_noise<R: RngCore>(rng: &mut R, scale: f64) -> f64 {
    Laplace::new(scale).expect("scale is sensitivity / epsilon, both validated > 0").sample(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_engine::{DataType, Schema};

    fn values(vals: &[f64]) -> Frame {
        let schema = Schema::from_pairs(&[("v", DataType::Float)]);
        Frame::new(schema, vals.iter().map(|v| vec![Value::Float(*v)]).collect()).unwrap()
    }

    #[test]
    fn epsilon_validation() {
        assert!(LaplaceMechanism::new(0.0, 1).is_err());
        assert!(LaplaceMechanism::new(-1.0, 1).is_err());
        assert!(LaplaceMechanism::new(1.0, 1).is_ok());
    }

    #[test]
    fn extreme_uniform_draw_releases_a_finite_value() {
        // next_u64 = 0 is the uniform draw -0.5, where the inverse CDF
        // takes ln(0); a 2^-53 event no seed search reaches
        struct ZeroRng;
        impl RngCore for ZeroRng {
            fn next_u64(&mut self) -> u64 {
                0
            }
        }
        let noise = laplace_noise(&mut ZeroRng, 2.0);
        assert!((100.0 + noise).is_finite(), "release was {}", 100.0 + noise);
        assert!(noise < 0.0, "the draw is the far negative tail");
    }

    #[test]
    fn noise_is_centred() {
        let mut m = LaplaceMechanism::new(1.0, 7).unwrap();
        let n = 5000;
        let mean: f64 = (0..n).map(|_| laplace_noise(&mut m.rng, 1.0)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "sample mean {mean}");
    }

    #[test]
    fn higher_epsilon_means_less_noise() {
        let f = values(&[10.0; 100]);
        let trials = 200;
        let err = |eps: f64| -> f64 {
            let mut total = 0.0;
            for seed in 0..trials {
                let mut m = LaplaceMechanism::new(eps, seed).unwrap();
                let noisy = m.dp_count(&f).unwrap();
                total += (noisy - 100.0).abs();
            }
            total / trials as f64
        };
        assert!(err(10.0) < err(0.1));
    }

    #[test]
    fn dp_sum_clamps() {
        let f = values(&[1.0, 2.0, 1000.0]);
        let mut m = LaplaceMechanism::new(1000.0, 3).unwrap(); // ~no noise
        let s = m.dp_sum(&f, 0, 0.0, 10.0).unwrap();
        // 1 + 2 + 10 (clamped) = 13 ± tiny noise
        assert!((s - 13.0).abs() < 1.0, "{s}");
        assert!(m.dp_sum(&f, 0, 10.0, 0.0).is_err());
        assert!(m.dp_sum(&f, 9, 0.0, 1.0).is_err());
    }

    #[test]
    fn dp_avg_reasonable() {
        let f = values(&[2.0; 50]);
        let mut m = LaplaceMechanism::new(50.0, 11).unwrap();
        let avg = m.dp_avg(&f, 0, 0.0, 4.0).unwrap();
        assert!((avg - 2.0).abs() < 0.5, "{avg}");
        // budget restored after the split
        assert_eq!(m.epsilon, 50.0);
    }

    #[test]
    fn randomized_response_flips_some_bits() {
        let schema = Schema::from_pairs(&[("b", DataType::Boolean)]);
        let rows = (0..200).map(|_| vec![Value::Bool(true)]).collect();
        let f = Frame::new(schema, rows).unwrap();
        let mut m = LaplaceMechanism::new(1.0, 5).unwrap();
        let out = m.randomized_response(&f, 0).unwrap();
        let flipped = out.column_values(0).filter(|v| *v == Value::Bool(false)).count();
        // keep probability e/(1+e) ≈ 0.73 → expect ~54 flips of 200
        assert!(flipped > 20 && flipped < 100, "flipped {flipped}");
    }

    #[test]
    fn release_sensitivity_validation() {
        let mut m = LaplaceMechanism::new(1.0, 1).unwrap();
        assert!(m.release(1.0, 0.0).is_err());
        assert!(m.release(1.0, -2.0).is_err());
    }
}
