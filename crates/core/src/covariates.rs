//! Multiplicative covariate adjustment (§18.4.3: "the features are applied
//! multiplicatively similar to the Cox proportional hazards model").
//!
//! The chapter states the mechanism only by analogy, so the concrete design
//! is documented here (and in DESIGN.md): a Poisson regression with exposure
//! offset is fitted to the training-window segment statistics,
//!
//! `s_l ~ Poisson(E_l · exp(β₀ + βᵀ x_l))`,
//!
//! and each segment's *relative* hazard multiplier `exp(βᵀ x_l)` (intercept
//! excluded, clamped to a safe range) scales its exposure inside the
//! beta-process models. With β = 0 the models reduce exactly to the
//! covariate-free HBP/DPMHBP. The same regression machinery powers the
//! Weibull NHPP baseline.

use crate::{CoreError, Result};
use pipefail_network::attributes::PipeClass;
use pipefail_network::dataset::Dataset;
use pipefail_network::features::{FeatureEncoder, FeatureMask};
use pipefail_network::split::TrainTestSplit;
use pipefail_stats::linalg::solve_spd;

/// Fitted Poisson regression with log link and exposure offset.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonRegression {
    /// Intercept β₀.
    pub intercept: f64,
    /// Coefficients β (same order as the feature encoder's schema).
    pub coefficients: Vec<f64>,
}

impl PoissonRegression {
    /// Fit by Newton–Raphson (IRLS) with an L2 ridge on the coefficients
    /// (not the intercept). `counts[i]` events over `exposure[i]` units with
    /// features `x[i]`.
    pub fn fit(
        x: &[Vec<f64>],
        counts: &[f64],
        exposure: &[f64],
        l2: f64,
        max_iter: usize,
    ) -> Result<Self> {
        let n = x.len();
        if n == 0 || counts.len() != n || exposure.len() != n {
            return Err(CoreError::BadConfig("poisson fit needs aligned, non-empty inputs"));
        }
        let d = x[0].len();
        if x.iter().any(|r| r.len() != d) {
            return Err(CoreError::BadConfig("ragged feature matrix"));
        }
        // Parameters: [intercept, beta...]; design column 0 is the constant.
        let p = d + 1;
        let mut theta = vec![0.0; p];
        // Sensible intercept start: log of the aggregate rate.
        let total_events: f64 = counts.iter().sum();
        let total_exposure: f64 = exposure.iter().filter(|e| **e > 0.0).sum();
        theta[0] = ((total_events + 0.5) / (total_exposure + 1.0)).ln();

        let mut grad = vec![0.0; p];
        let mut hess = vec![0.0; p * p];
        for _ in 0..max_iter {
            grad.iter_mut().for_each(|g| *g = 0.0);
            hess.iter_mut().for_each(|h| *h = 0.0);
            for i in 0..n {
                if exposure[i] <= 0.0 {
                    continue;
                }
                let mut eta = theta[0];
                for (j, &xij) in x[i].iter().enumerate() {
                    eta += theta[j + 1] * xij;
                }
                // Cap the linear predictor to keep mu finite on bad steps.
                let mu = exposure[i] * eta.clamp(-30.0, 30.0).exp();
                let resid = counts[i] - mu;
                grad[0] += resid;
                for (j, &xij) in x[i].iter().enumerate() {
                    grad[j + 1] += resid * xij;
                }
                // Hessian of the negative log-likelihood is X' diag(mu) X.
                hess[0] += mu;
                for (j, &xij) in x[i].iter().enumerate() {
                    hess[j + 1] += mu * xij; // column 0 row j+1 mirrored below
                    hess[(j + 1) * p] += 0.0; // filled by symmetry after loop
                }
                for j in 0..d {
                    for k in j..d {
                        hess[(j + 1) * p + (k + 1)] += mu * x[i][j] * x[i][k];
                    }
                }
            }
            // Symmetrise and add the ridge.
            for j in 1..p {
                hess[j * p] = hess[j];
                grad[j] -= l2 * theta[j];
                hess[j * p + j] += l2;
            }
            for j in 0..p {
                for k in 0..j {
                    hess[j * p + k] = hess[k * p + j];
                }
            }
            let step = solve_spd(&mut hess, &grad, p)
                .ok_or_else(|| CoreError::FitFailed("singular Poisson Hessian".into()))?;
            let mut max_step = 0.0_f64;
            for (t, s) in theta.iter_mut().zip(&step) {
                *t += s;
                max_step = max_step.max(s.abs());
            }
            if max_step < 1e-9 {
                break;
            }
        }
        Ok(Self {
            intercept: theta[0],
            coefficients: theta[1..].to_vec(),
        })
    }

    /// Linear predictor including the intercept.
    pub fn linear_predictor(&self, x: &[f64]) -> f64 {
        self.intercept
            + self
                .coefficients
                .iter()
                .zip(x)
                .map(|(b, v)| b * v)
                .sum::<f64>()
    }

    /// Relative hazard multiplier `exp(βᵀx)` (intercept excluded), clamped
    /// to `[e⁻³, e³]` so one segment can never dominate the likelihood.
    pub fn multiplier(&self, x: &[f64]) -> f64 {
        let eta: f64 = self
            .coefficients
            .iter()
            .zip(x)
            .map(|(b, v)| b * v)
            .sum();
        eta.clamp(-3.0, 3.0).exp()
    }
}

/// Per-segment hazard multipliers fitted on a dataset's training window.
#[derive(Debug, Clone)]
pub struct CovariateAdjuster {
    multipliers: Vec<f64>,
    regression: PoissonRegression,
}

impl CovariateAdjuster {
    /// Fit multipliers for every segment of `dataset` whose pipe is of
    /// `class`, using training-window failure counts. Segments outside the
    /// class get multiplier 1.
    pub fn fit(
        dataset: &Dataset,
        split: &TrainTestSplit,
        mask: FeatureMask,
        class: PipeClass,
    ) -> Result<Self> {
        let encoder = FeatureEncoder::fit(dataset, mask, split.prediction_year());
        let stats = dataset.segment_stats(split.train);
        let mut xs = Vec::new();
        let mut counts = Vec::new();
        let mut exposure = Vec::new();
        let mut in_class = Vec::new();
        for seg in dataset.segments() {
            let keep = dataset.pipe(seg.pipe).class() == class;
            in_class.push(keep);
            if keep {
                xs.push(encoder.encode_segment(dataset, seg));
                let st = stats[seg.id.index()];
                counts.push(st.failure_years as f64);
                exposure.push(st.exposure_years as f64);
            }
        }
        if xs.is_empty() {
            return Err(CoreError::EmptyEvaluationSet("no segments of the requested class"));
        }
        let regression = PoissonRegression::fit(&xs, &counts, &exposure, 1.0, 25)?;
        let mut multipliers = vec![1.0; dataset.segments().len()];
        let mut xi = 0;
        for (seg, keep) in dataset.segments().iter().zip(&in_class) {
            if *keep {
                multipliers[seg.id.index()] = regression.multiplier(&xs[xi]);
                xi += 1;
            }
        }
        Ok(Self {
            multipliers,
            regression,
        })
    }

    /// A no-op adjuster (all multipliers 1) for `n` segments.
    pub fn identity(n: usize) -> Self {
        Self {
            multipliers: vec![1.0; n],
            regression: PoissonRegression {
                intercept: 0.0,
                coefficients: Vec::new(),
            },
        }
    }

    /// Multiplier for segment `i`.
    pub fn multiplier(&self, segment_index: usize) -> f64 {
        self.multipliers.get(segment_index).copied().unwrap_or(1.0)
    }

    /// The fitted regression (for inspection/ablation reports).
    pub fn regression(&self) -> &PoissonRegression {
        &self.regression
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefail_stats::dist::{Poisson, Sampler};
    use pipefail_stats::rng::seeded_rng;

    #[test]
    fn recovers_known_coefficients() {
        let mut rng = seeded_rng(140);
        // True model: rate = exp(-3 + 1.2 x1 - 0.7 x2), exposure varies.
        let n = 4_000;
        let mut xs = Vec::with_capacity(n);
        let mut counts = Vec::with_capacity(n);
        let mut exposure = Vec::with_capacity(n);
        for _ in 0..n {
            let x1: f64 = rand::Rng::gen_range(&mut rng, -1.0..1.0);
            let x2: f64 = rand::Rng::gen_range(&mut rng, -1.0..1.0);
            let e: f64 = rand::Rng::gen_range(&mut rng, 5.0..15.0);
            let mu = e * (-3.0 + 1.2 * x1 - 0.7 * x2_scale(x2)).exp();
            let y = Poisson::new(mu.max(1e-12)).unwrap().sample(&mut rng) as f64;
            xs.push(vec![x1, x2_scale(x2)]);
            counts.push(y);
            exposure.push(e);
        }
        let fit = PoissonRegression::fit(&xs, &counts, &exposure, 1e-6, 50).unwrap();
        assert!((fit.intercept - (-3.0)).abs() < 0.15, "intercept {}", fit.intercept);
        assert!((fit.coefficients[0] - 1.2).abs() < 0.15, "{:?}", fit.coefficients);
        assert!((fit.coefficients[1] + 0.7).abs() < 0.15, "{:?}", fit.coefficients);
    }

    fn x2_scale(x: f64) -> f64 {
        x
    }

    #[test]
    fn multiplier_is_relative_and_clamped() {
        let r = PoissonRegression {
            intercept: -5.0,
            coefficients: vec![10.0],
        };
        // Intercept must not affect the multiplier; clamping caps at e³.
        assert!((r.multiplier(&[0.0]) - 1.0).abs() < 1e-12);
        assert!((r.multiplier(&[1.0]) - 3.0_f64.exp()).abs() < 1e-9);
        assert!((r.multiplier(&[-1.0]) - (-3.0_f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(PoissonRegression::fit(&[], &[], &[], 1.0, 10).is_err());
        let xs = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(PoissonRegression::fit(&xs, &[1.0, 1.0], &[1.0, 1.0], 1.0, 10).is_err());
    }

    #[test]
    fn identity_adjuster() {
        let a = CovariateAdjuster::identity(3);
        assert_eq!(a.multiplier(0), 1.0);
        assert_eq!(a.multiplier(2), 1.0);
        assert_eq!(a.multiplier(99), 1.0);
    }

    #[test]
    fn zero_exposure_rows_are_ignored() {
        // Rows with zero exposure must not poison the fit.
        let xs = vec![vec![0.0], vec![1.0], vec![0.0], vec![1.0]];
        let counts = vec![1.0, 3.0, 0.0, 2.0];
        let exposure = vec![10.0, 10.0, 0.0, 10.0];
        let fit = PoissonRegression::fit(&xs, &counts, &exposure, 0.1, 30).unwrap();
        assert!(fit.coefficients[0].is_finite());
    }
}
