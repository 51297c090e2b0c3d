//! Shared machinery for the hierarchical beta-process models (HBP and
//! DPMHBP): exposure-scaled observation patterns, the marginal
//! Beta–Bernoulli likelihood, and [`GroupPrior`], the prior on a group's
//! `(q, c)` with the one step both fitters use to update them.
//!
//! A unit (pipe for HBP, segment for DPMHBP) with `s` failure-years and `f`
//! clean exposure-years has, after integrating its failure probability
//! π ~ Beta(c·q, c·(1−q)) out, the marginal likelihood
//!
//! `B(c·q + s, c·(1−q) + f) / B(c·q, c·(1−q))`.
//!
//! Covariates enter by scaling the clean exposure `f → f·e` (the
//! Poisson-offset view of "multiplicative features"); multipliers are
//! quantised to a fixed grid so units collapse into a small set of distinct
//! `(s, f·e)` *patterns* — the trick that keeps Gibbs sweeps O(units ×
//! clusters) with tiny constants even though every likelihood involves six
//! log-gamma evaluations.

use crate::{CoreError, Result};
use pipefail_mcmc::slice::SliceSampler;
use pipefail_mcmc::transform::Transform;
use pipefail_stats::dist::{Beta, ContinuousDist, Gamma, Sampler};
use pipefail_stats::special::{ln_beta, ln_gamma};
use rand::Rng;

/// Quantise a hazard multiplier onto a geometric grid (ln-steps of 0.25
/// over [e⁻³, e³]), so pattern tables stay small.
pub fn quantize_multiplier(e: f64) -> f64 {
    let ln_e = e.max(1e-9).ln().clamp(-3.0, 3.0);
    ((ln_e / 0.25).round() * 0.25).exp()
}

/// One distinct observation pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsPattern {
    /// Failure-years.
    pub s: f64,
    /// Exposure-scaled clean years.
    pub f: f64,
}

impl ObsPattern {
    /// Marginal log-likelihood of this pattern under group parameters
    /// `(q, c)`.
    pub fn log_marginal(&self, q: f64, c: f64) -> f64 {
        let a = c * q;
        let b = c * (1.0 - q);
        ln_beta(a + self.s, b + self.f) - ln_beta(a, b)
    }

    /// Posterior mean of the unit's failure probability given `(q, c)`:
    /// `(c·q + s) / (c + s + f)`.
    pub fn posterior_mean(&self, q: f64, c: f64) -> f64 {
        (c * q + self.s) / (c + self.s + self.f)
    }
}

/// Hoisted per-`(q, c)` state for evaluating many pattern marginals under
/// the same group parameters.
///
/// `log_marginal` expands to six log-gamma evaluations per pattern; three of
/// them (`ln Γ(a)`, `ln Γ(b)`, `ln Γ(a+b)`) depend only on `(q, c)` and are
/// hoisted here. The remaining three are *shifted* arguments `ln Γ(x + d)`,
/// and when the shift `d` is a small non-negative integer — failure-years
/// always, exposure-years whenever the covariate multiplier is 1 — the
/// recurrence `ln Γ(x+d) − ln Γ(x) = Σ_{j<d} ln(x+j)` replaces the Lanczos
/// evaluation with `d` plain logs (zero work for the dominant `s = 0` case).
#[derive(Debug, Clone, Copy)]
pub struct MarginalContext {
    a: f64,
    b: f64,
    ab: f64,
    ln_gamma_a: f64,
    ln_gamma_b: f64,
    ln_gamma_ab: f64,
}

impl MarginalContext {
    /// Hoist the `(q, c)`-only log-gammas.
    pub fn new(q: f64, c: f64) -> Self {
        let a = c * q;
        let b = c * (1.0 - q);
        Self {
            a,
            b,
            ab: a + b,
            ln_gamma_a: ln_gamma(a),
            ln_gamma_b: ln_gamma(b),
            ln_gamma_ab: ln_gamma(a + b),
        }
    }

    /// `ln Γ(x + d) − ln Γ(x)` given the cached `ln Γ(x)`.
    #[inline]
    fn ln_gamma_shift(x: f64, ln_gamma_x: f64, d: f64) -> f64 {
        if d == 0.0 {
            return 0.0;
        }
        // Recurrence beats Lanczos up to a few dozen steps; beyond that (or
        // for fractional shifts from covariate-scaled exposure) fall back.
        const MAX_SHIFT: f64 = 48.0;
        if d > 0.0 && d <= MAX_SHIFT && d.fract() == 0.0 {
            let mut acc = 0.0;
            for j in 0..d as usize {
                acc += (x + j as f64).ln();
            }
            acc
        } else {
            ln_gamma(x + d) - ln_gamma_x
        }
    }

    /// Marginal log-likelihood of `pat` under this context's `(q, c)`;
    /// equal to [`ObsPattern::log_marginal`] up to ~1e-13 (the recurrence
    /// and the direct Lanczos path round differently in the last bits).
    pub fn log_marginal(&self, pat: ObsPattern) -> f64 {
        Self::ln_gamma_shift(self.a, self.ln_gamma_a, pat.s)
            + Self::ln_gamma_shift(self.b, self.ln_gamma_b, pat.f)
            - Self::ln_gamma_shift(self.ab, self.ln_gamma_ab, pat.s + pat.f)
    }
}

/// A deduplicated pattern table over `n` units.
#[derive(Debug, Clone)]
pub struct PatternTable {
    patterns: Vec<ObsPattern>,
    index_of: Vec<usize>,
}

impl PatternTable {
    /// Build from per-unit `(failure_years, clean_years, multiplier)`.
    /// Multipliers are quantised; patterns keyed to 1e-9 resolution.
    pub fn build(units: impl Iterator<Item = (f64, f64, f64)>) -> Self {
        let mut patterns: Vec<ObsPattern> = Vec::new();
        let mut keys: std::collections::HashMap<(u64, u64), usize> = std::collections::HashMap::new();
        let mut index_of = Vec::new();
        for (s, f, e) in units {
            let fe = f * quantize_multiplier(e);
            let key = ((s * 1e6).round() as u64, (fe * 1e6).round() as u64);
            let idx = *keys.entry(key).or_insert_with(|| {
                patterns.push(ObsPattern { s, f: fe });
                patterns.len() - 1
            });
            index_of.push(idx);
        }
        Self { patterns, index_of }
    }

    /// Number of units.
    pub fn units(&self) -> usize {
        self.index_of.len()
    }

    /// Number of distinct patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Pattern index of unit `i`.
    pub fn pattern_of(&self, i: usize) -> usize {
        self.index_of[i]
    }

    /// Pattern by index.
    pub fn pattern(&self, idx: usize) -> ObsPattern {
        self.patterns[idx]
    }

    /// All patterns.
    pub fn patterns(&self) -> &[ObsPattern] {
        &self.patterns
    }

    /// The pooled failure rate `(Σs + 0.5) / (Σ(s + f) + 1)` over all
    /// units, clamped to `[1e-6, 0.5]`: both models' default hyper mean `q₀`.
    pub fn empirical_rate(&self) -> f64 {
        let (mut s, mut m) = (0.0, 0.0);
        for &idx in &self.index_of {
            let p = self.patterns[idx];
            s += p.s;
            m += p.s + p.f;
        }
        ((s + 0.5) / (m + 1.0)).clamp(1e-6, 0.5)
    }

    /// Sum of `count[p] · log_marginal(p | q, c)` over pattern counts — the
    /// group log-likelihood used when slice-sampling `(q, c)`.
    pub fn group_log_likelihood(&self, counts: &[f64], q: f64, c: f64) -> f64 {
        debug_assert_eq!(counts.len(), self.patterns.len());
        let ctx = MarginalContext::new(q, c);
        let mut acc = 0.0;
        for (pat, &cnt) in self.patterns.iter().zip(counts) {
            if cnt > 0.0 {
                acc += cnt * ctx.log_marginal(*pat);
            }
        }
        acc
    }

    /// [`group_log_likelihood`](Self::group_log_likelihood) over a sparse
    /// `(pattern index, count)` list, skipping the dense zero scan. The
    /// Gibbs sweeps evaluate this with fixed counts and many `(q, c)`
    /// proposals, and most groups touch a handful of the table's patterns.
    pub fn group_log_likelihood_sparse(&self, sparse: &[(usize, f64)], q: f64, c: f64) -> f64 {
        let ctx = MarginalContext::new(q, c);
        let mut acc = 0.0;
        for &(idx, cnt) in sparse {
            acc += cnt * ctx.log_marginal(self.patterns[idx]);
        }
        acc
    }
}

/// The prior on one group's parameters, `q ~ Beta(c₀q₀, c₀(1−q₀))` and
/// `c ~ Gamma(shape, rate)`, and the Metropolis-within-Gibbs step that
/// updates them. HBP's fixed groups and DPMHBP's clusters share it.
#[derive(Debug, Clone, Copy)]
pub struct GroupPrior {
    q: Beta,
    c: Gamma,
    slice_q: SliceSampler,
    slice_c: SliceSampler,
}

impl GroupPrior {
    /// The prior for hyper mean `q0`, hyper concentration `c0` and the Gamma
    /// `(shape, rate)` on `c`; `Err(BadConfig)` when either is invalid.
    pub fn new(q0: f64, c0: f64, c_prior: (f64, f64)) -> Result<Self> {
        let q = Beta::with_mean_concentration(q0, c0)
            .map_err(|_| CoreError::BadConfig("invalid (q0, c0) hyper-prior"))?;
        let c = Gamma::new(c_prior.0, c_prior.1)
            .map_err(|_| CoreError::BadConfig("invalid c prior"))?;
        Ok(Self {
            q,
            c,
            slice_q: SliceSampler::try_new(1.0)?,
            slice_c: SliceSampler::try_new(0.7)?,
        })
    }

    /// Draw `(q, c)` from the prior, with `c` floored at 1e-3.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64) {
        let q = self.q.sample(rng);
        let c = self.c.sample(rng).max(1e-3);
        (q, c)
    }

    /// One update of a group's `(q, c)` given its sparse `(pattern, count)`
    /// list: a slice step on `logit q` at the current `c`, then one on
    /// `ln c` at the new `q`.
    ///
    /// The input `q` is clamped to `[1e-9, 1 − 1e-9]`, and the outputs to
    /// that range and to `c ∈ [1e-6, 1e9]`. The clamps act after the step,
    /// not in the target, so where they bind the chain targets neither the
    /// prior nor a declared truncation of it. Errors (instead of panicking)
    /// when the current parameters have non-finite posterior density.
    pub fn step<R: Rng + ?Sized>(
        &self,
        table: &PatternTable,
        counts: &[(usize, f64)],
        q: f64,
        c: f64,
        rng: &mut R,
    ) -> Result<(f64, f64)> {
        let logit = Transform::Logit;
        let log_t = Transform::Log;
        let log_post_q = |y: f64| {
            let qv = logit.inverse(y);
            self.q.ln_pdf(qv)
                + table.group_log_likelihood_sparse(counts, qv, c)
                + logit.ln_jacobian(y)
        };
        let y0 = logit.forward(q.clamp(1e-9, 1.0 - 1e-9));
        let y = self.slice_q.try_step(y0, &log_post_q, rng)?;
        let q = logit.inverse(y).clamp(1e-9, 1.0 - 1e-9);
        let log_post_c = |y: f64| {
            let cv = log_t.inverse(y);
            if !(cv.is_finite() && cv > 0.0) {
                return f64::NEG_INFINITY;
            }
            self.c.ln_pdf(cv)
                + table.group_log_likelihood_sparse(counts, q, cv)
                + log_t.ln_jacobian(y)
        };
        let y = self.slice_c.try_step(log_t.forward(c), &log_post_c, rng)?;
        Ok((q, log_t.inverse(y).clamp(1e-6, 1e9)))
    }
}

/// The nonzero `(pattern index, count)` pairs of a dense count vector, for
/// [`PatternTable::group_log_likelihood_sparse`].
pub fn sparse_counts(counts: &[f64]) -> Vec<(usize, f64)> {
    counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0.0)
        .map(|(i, &c)| (i, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_is_idempotent_and_bounded() {
        for &e in &[0.001, 0.1, 0.5, 1.0, 2.7, 100.0] {
            let q = quantize_multiplier(e);
            assert!((quantize_multiplier(q) - q).abs() < 1e-12);
            assert!(q >= (-3.0_f64).exp() - 1e-9 && q <= (3.0_f64).exp() + 1e-9);
        }
        assert_eq!(quantize_multiplier(1.0), 1.0);
    }

    #[test]
    fn log_marginal_matches_direct_integration() {
        // For s=1, f=0: marginal = E[π] = q. For s=0, f=1: = 1 − q.
        let p1 = ObsPattern { s: 1.0, f: 0.0 };
        let p0 = ObsPattern { s: 0.0, f: 1.0 };
        for &(q, c) in &[(0.1, 5.0), (0.7, 2.0), (0.01, 50.0)] {
            assert!((p1.log_marginal(q, c) - q.ln()).abs() < 1e-10);
            assert!((p0.log_marginal(q, c) - (1.0 - q).ln()).abs() < 1e-10);
        }
    }

    #[test]
    fn posterior_mean_interpolates_prior_and_data() {
        let pat = ObsPattern { s: 3.0, f: 7.0 };
        // Huge c → prior mean dominates; c → 0 → empirical rate.
        assert!((pat.posterior_mean(0.2, 1e9) - 0.2).abs() < 1e-6);
        assert!((pat.posterior_mean(0.2, 1e-9) - 0.3).abs() < 1e-6);
    }

    #[test]
    fn table_dedupes_patterns() {
        let units = vec![
            (0.0, 11.0, 1.0),
            (0.0, 11.0, 1.0),
            (1.0, 10.0, 1.0),
            (0.0, 11.0, 2.0), // different multiplier → different pattern
        ];
        let t = PatternTable::build(units.into_iter());
        assert_eq!(t.units(), 4);
        assert_eq!(t.len(), 3);
        assert_eq!(t.pattern_of(0), t.pattern_of(1));
        assert_ne!(t.pattern_of(0), t.pattern_of(2));
        assert_ne!(t.pattern_of(0), t.pattern_of(3));
    }

    #[test]
    fn group_log_likelihood_sums_counts() {
        let t = PatternTable::build(vec![(0.0, 5.0, 1.0), (1.0, 4.0, 1.0)].into_iter());
        let counts = vec![3.0, 2.0];
        let direct = 3.0 * t.pattern(0).log_marginal(0.1, 10.0)
            + 2.0 * t.pattern(1).log_marginal(0.1, 10.0);
        assert!((t.group_log_likelihood(&counts, 0.1, 10.0) - direct).abs() < 1e-12);
    }

    #[test]
    fn marginal_context_matches_direct_evaluation() {
        // Integer shifts (the recurrence path), fractional shifts (the
        // fallback path), and the zero-shift fast path must all agree with
        // the straight six-log-gamma evaluation.
        let pats = [
            ObsPattern { s: 0.0, f: 0.0 },
            ObsPattern { s: 0.0, f: 11.0 },
            ObsPattern { s: 3.0, f: 8.0 },
            ObsPattern { s: 1.0, f: 14.127 },
            ObsPattern { s: 0.0, f: 7.77 },
            ObsPattern { s: 47.0, f: 48.0 },
            ObsPattern { s: 60.0, f: 200.0 }, // beyond MAX_SHIFT → fallback
        ];
        for &(q, c) in &[(0.01, 50.0), (0.3, 2.0), (0.9, 0.4), (1e-6, 1e4)] {
            let ctx = MarginalContext::new(q, c);
            for pat in pats {
                let direct = pat.log_marginal(q, c);
                let cached = ctx.log_marginal(pat);
                // The error scale is set by the intermediate ln Γ magnitudes
                // (~c·ln c), not the (possibly tiny, cancellation-prone)
                // result — at c = 1e4 the *direct* path already carries
                // ~1e-11 of cancellation error that the recurrence avoids.
                let tol = 1e-12 * (1.0 + direct.abs() + c);
                assert!(
                    (cached - direct).abs() <= tol,
                    "pat {pat:?} (q={q}, c={c}): cached {cached} vs direct {direct}"
                );
            }
        }
    }

    #[test]
    fn sparse_group_log_likelihood_matches_dense() {
        let t = PatternTable::build(
            vec![(0.0, 5.0, 1.0), (1.0, 4.0, 1.0), (2.0, 3.0, 1.0), (0.0, 5.0, 2.0)].into_iter(),
        );
        let counts = vec![10.0, 0.0, 2.0, 0.0];
        let sparse = sparse_counts(&counts);
        assert_eq!(sparse, vec![(0, 10.0), (2, 2.0)]);
        for &(q, c) in &[(0.05, 20.0), (0.5, 1.0)] {
            let dense = t.group_log_likelihood(&counts, q, c);
            let sp = t.group_log_likelihood_sparse(&sparse, q, c);
            assert_eq!(sp.to_bits(), dense.to_bits(), "paths must be byte-identical");
        }
    }

    #[test]
    fn group_step_matches_quadrature_posterior() {
        // The shared (q, c) step against a 600×600 midpoint quadrature of
        // one group's posterior over logit q and ln c, at the default c₀ and
        // c prior. Both groups' posteriors stay clear of the step's clamps
        // and of its stepping-out cap. The posterior means of logit q and
        // ln c must lie within 4 Monte Carlo standard errors of the
        // quadrature, with the errors sized by the chain's ESS.
        use pipefail_mcmc::diagnostics::effective_sample_size;
        use pipefail_stats::descriptive::{mean, variance};
        use pipefail_stats::rng::seeded_rng;
        let defaults = crate::dpmhbp::DpmhbpConfig::default();
        let (c0, c_prior) = (defaults.c0, defaults.c_prior);
        let groups: [(&[(f64, usize)], f64); 2] = [
            (&[(0.0, 30), (1.0, 4), (2.0, 1)], 0.05),
            (&[(0.0, 200), (1.0, 2)], 0.01),
        ];
        for (g, &(units, q0)) in groups.iter().enumerate() {
            let table = PatternTable::build(
                units
                    .iter()
                    .flat_map(|&(s, n)| std::iter::repeat_n((s, 11.0 - s, 1.0), n)),
            );
            let mut dense = vec![0.0; table.len()];
            for u in 0..table.units() {
                dense[table.pattern_of(u)] += 1.0;
            }
            let counts = sparse_counts(&dense);

            let q_prior = Beta::with_mean_concentration(q0, c0).unwrap();
            let c_prior_dist = Gamma::new(c_prior.0, c_prior.1).unwrap();
            const N: usize = 600;
            let (y_lo, y_hi, t_lo, t_hi) = (pipefail_stats::special::logit(1e-9), 12.0, -9.0, 11.0);
            let (dy, dt) = ((y_hi - y_lo) / N as f64, (t_hi - t_lo) / N as f64);
            let mut cells: Vec<(f64, f64, f64)> = Vec::with_capacity(N * N);
            for i in 0..N {
                let y = y_lo + (i as f64 + 0.5) * dy;
                let q = 1.0 / (1.0 + (-y).exp());
                let ln_q_part = q_prior.ln_pdf(q) + q.ln() + (1.0 - q).ln();
                for j in 0..N {
                    let t = t_lo + (j as f64 + 0.5) * dt;
                    let c = t.exp();
                    let ln_w = ln_q_part
                        + c_prior_dist.ln_pdf(c)
                        + t
                        + table.group_log_likelihood_sparse(&counts, q, c);
                    cells.push((ln_w, y, t));
                }
            }
            let ln_max = cells.iter().map(|c| c.0).fold(f64::NEG_INFINITY, f64::max);
            let (mut z, mut ey, mut et) = (0.0, 0.0, 0.0);
            for &(ln_w, y, t) in &cells {
                let w = (ln_w - ln_max).exp();
                z += w;
                ey += w * y;
                et += w * t;
            }
            let exact = [ey / z, et / z];

            let prior = GroupPrior::new(q0, c0, c_prior).unwrap();
            let mut rng = seeded_rng(2003);
            let (mut q, mut c) = (q0, c_prior.0 / c_prior.1);
            let (burn_in, kept) = (500, 20_000);
            let mut draws = [Vec::with_capacity(kept), Vec::with_capacity(kept)];
            for sweep in 0..burn_in + kept {
                (q, c) = prior.step(&table, &counts, q, c, &mut rng).unwrap();
                if sweep >= burn_in {
                    draws[0].push((q / (1.0 - q)).ln());
                    draws[1].push(c.ln());
                }
            }
            for (k, name) in ["logit q", "ln c"].iter().enumerate() {
                let m = mean(&draws[k]).unwrap();
                let mcse = (variance(&draws[k]).unwrap() / effective_sample_size(&draws[k])).sqrt();
                let z_score = (m - exact[k]) / mcse;
                assert!(
                    z_score.abs() <= 4.0,
                    "group {g}, {name}: chain mean {m:.4} vs quadrature {:.4} (z = {z_score:.2})",
                    exact[k]
                );
            }
        }
    }

    #[test]
    fn sparsity_collapses_thousands_into_few_patterns() {
        // The pipe regime: 12-year windows, almost everyone at (0, 11).
        let units = (0..10_000).map(|i| {
            let s = if i % 97 == 0 { 1.0 } else { 0.0 };
            (s, 11.0 - s, 1.0)
        });
        let t = PatternTable::build(units);
        assert_eq!(t.units(), 10_000);
        assert!(t.len() <= 3, "patterns {}", t.len());
    }
}
