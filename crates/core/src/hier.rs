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
//! `(s, f·e)` *patterns*. A group's likelihood is one column over the
//! patterns, computed once per `(q, c)` draw although each entry involves
//! six log-gamma evaluations. The table also lists each pattern's units, so
//! DPMHBP's assignment sweep scales a column entry once per pattern and then
//! pays one multiply-add per candidate cluster per unit: O(patterns ×
//! clusters) `exp`s and O(units × clusters) multiply-adds per sweep.

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
        let ctx = Self::for_q(q, c);
        Self {
            ln_gamma_ab: ln_gamma(ctx.ab),
            ..ctx
        }
    }

    /// The context [`log_marginal_q`](Self::log_marginal_q) needs: that of
    /// [`new`](Self::new) without `ln Γ(c)`, which only the `c`-dependent
    /// shift reads. It is NaN here, so `log_marginal` must not be called.
    fn for_q(q: f64, c: f64) -> Self {
        let a = c * q;
        let b = c * (1.0 - q);
        Self {
            a,
            b,
            ab: a + b,
            ln_gamma_a: ln_gamma(a),
            ln_gamma_b: ln_gamma(b),
            ln_gamma_ab: f64::NAN,
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
        self.log_marginal_q(pat) - Self::ln_gamma_shift(self.ab, self.ln_gamma_ab, pat.s + pat.f)
    }

    /// The two shifts of [`log_marginal`](Self::log_marginal) that depend on
    /// `q`, `ln Γ(a + s) − ln Γ(a) + ln Γ(b + f) − ln Γ(b)`. The third,
    /// `ln Γ(c + s + f) − ln Γ(c)`, is constant in `q` at fixed `c`, so a
    /// step on `q` alone can leave it out.
    fn log_marginal_q(&self, pat: ObsPattern) -> f64 {
        Self::ln_gamma_shift(self.a, self.ln_gamma_a, pat.s)
            + Self::ln_gamma_shift(self.b, self.ln_gamma_b, pat.f)
    }
}

/// A deduplicated pattern table over `n` units.
#[derive(Debug, Clone)]
pub struct PatternTable {
    patterns: Vec<ObsPattern>,
    index_of: Vec<usize>,
    /// Pattern `p`'s units are `members[offsets[p]..offsets[p + 1]]`.
    offsets: Vec<usize>,
    /// Every unit once, grouped by pattern, ascending within a pattern.
    members: Vec<usize>,
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
        let mut offsets = vec![0; patterns.len() + 1];
        for &idx in &index_of {
            offsets[idx + 1] += 1;
        }
        for p in 1..offsets.len() {
            offsets[p] += offsets[p - 1];
        }
        // A stable sort keeps the units of a pattern ascending.
        let mut members: Vec<usize> = (0..index_of.len()).collect();
        members.sort_by_key(|&unit| index_of[unit]);
        Self {
            patterns,
            index_of,
            offsets,
            members,
        }
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

    /// The units of pattern `idx`, ascending.
    pub fn units_of(&self, idx: usize) -> &[usize] {
        &self.members[self.offsets[idx]..self.offsets[idx + 1]]
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
        self.sparse_sum(sparse, |pat| ctx.log_marginal(pat))
    }

    /// The part of
    /// [`group_log_likelihood_sparse`](Self::group_log_likelihood_sparse)
    /// that depends on `q` (see [`MarginalContext::log_marginal_q`]). At
    /// fixed `c` the two differ by a constant.
    fn group_log_likelihood_q_sparse(&self, sparse: &[(usize, f64)], q: f64, c: f64) -> f64 {
        let ctx = MarginalContext::for_q(q, c);
        self.sparse_sum(sparse, |pat| ctx.log_marginal_q(pat))
    }

    fn sparse_sum(&self, sparse: &[(usize, f64)], marginal: impl Fn(ObsPattern) -> f64) -> f64 {
        let mut acc = 0.0;
        for &(idx, cnt) in sparse {
            acc += cnt * marginal(self.patterns[idx]);
        }
        acc
    }
}

/// Lower and upper bounds of a group rate `q`.
const Q_SUPPORT: (f64, f64) = (1e-9, 1.0 - 1e-9);
/// Lower and upper bounds of a group concentration `c`.
const C_SUPPORT: (f64, f64) = (1e-6, 1e9);

/// True when `(q, c)` lies in the declared support of [`GroupPrior`],
/// `q ∈ [1e-9, 1 − 1e-9]` and `c ∈ [1e-6, 1e9]`; false for NaN.
pub fn in_group_support(q: f64, c: f64) -> bool {
    (Q_SUPPORT.0..=Q_SUPPORT.1).contains(&q) && (C_SUPPORT.0..=C_SUPPORT.1).contains(&c)
}

/// The prior on one group's parameters, `q ~ Beta(c₀q₀, c₀(1−q₀))` and
/// `c ~ Gamma(shape, rate)`, truncated to the support
/// `q ∈ [1e-9, 1 − 1e-9]`, `c ∈ [1e-6, 1e9]` (see [`in_group_support`]),
/// and the Metropolis-within-Gibbs step that updates them. HBP's fixed
/// groups and DPMHBP's clusters share it.
///
/// The truncation is part of the model: the step's target is −∞ outside the
/// support, and [`GroupPrior::draw`] samples the truncated prior. The Beta
/// part can put most of its mass below 1e-9 (at the empirical `q₀` of the
/// pipe worlds, 72–95%), so the truncation changes it materially; the
/// Gamma part loses under 1e-9 of its mass at the default `c` prior.
#[derive(Debug, Clone, Copy)]
pub struct GroupPrior {
    q: Beta,
    c: Gamma,
    /// The Beta CDF at the two ends of the `q` support.
    q_cdf: (f64, f64),
    slice_q: SliceSampler,
    slice_c: SliceSampler,
}

impl GroupPrior {
    /// The prior for hyper mean `q0`, hyper concentration `c0` and the Gamma
    /// `(shape, rate)` on `c`. `Err(BadConfig)` when either is invalid, when
    /// `q0` lies outside the support (HBP starts its groups at `q0`), or when
    /// the `c` prior puts under half its mass inside the support, so that
    /// drawing `c` by rejection could spin.
    pub fn new(q0: f64, c0: f64, c_prior: (f64, f64)) -> Result<Self> {
        if !(Q_SUPPORT.0..=Q_SUPPORT.1).contains(&q0) {
            return Err(CoreError::BadConfig("hyper mean q0 outside [1e-9, 1 - 1e-9]"));
        }
        let q = Beta::with_mean_concentration(q0, c0)
            .map_err(|_| CoreError::BadConfig("invalid (q0, c0) hyper-prior"))?;
        let c = Gamma::new(c_prior.0, c_prior.1)
            .map_err(|_| CoreError::BadConfig("invalid c prior"))?;
        let c_mass = c.cdf(C_SUPPORT.1) - c.cdf(C_SUPPORT.0);
        if c_mass.is_nan() || c_mass < 0.5 {
            return Err(CoreError::BadConfig("c prior puts under half its mass in [1e-6, 1e9]"));
        }
        Ok(Self {
            q,
            c,
            q_cdf: (q.cdf(Q_SUPPORT.0), q.cdf(Q_SUPPORT.1)),
            slice_q: SliceSampler::try_new(1.0)?,
            slice_c: SliceSampler::try_new(0.7)?,
        })
    }

    /// Draw `(q, c)` from the truncated prior: `q` by inverse CDF between
    /// the Beta CDF's values at the support's ends, `c` by rejection.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64) {
        let (lo, hi) = self.q_cdf;
        // The clamp only absorbs the quantile's rounding at the two ends.
        let q = self
            .q
            .quantile(lo + (hi - lo) * rng.gen::<f64>())
            .clamp(Q_SUPPORT.0, Q_SUPPORT.1);
        let c = loop {
            let c = self.c.sample(rng);
            if (C_SUPPORT.0..=C_SUPPORT.1).contains(&c) {
                break c;
            }
        };
        (q, c)
    }

    /// One update of a group's `(q, c)` given its sparse `(pattern, count)`
    /// list: a slice step on `logit q` at the current `c`, then one on
    /// `ln c` at the new `q`. Both targets are the posterior under the
    /// truncated prior, so they are −∞ outside the support. The `q` target
    /// leaves out the likelihood's terms that are constant in `q`, which a
    /// slice transition does not see.
    ///
    /// Errors (instead of panicking) when the current parameters lie outside
    /// the support or have non-finite posterior density.
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
            if !in_group_support(qv, c) {
                return f64::NEG_INFINITY;
            }
            self.q.ln_pdf(qv)
                + table.group_log_likelihood_q_sparse(counts, qv, c)
                + logit.ln_jacobian(y)
        };
        let y = self.slice_q.try_step(logit.forward(q), &log_post_q, rng)?;
        let q = logit.inverse(y);
        let log_post_c = |y: f64| {
            let cv = log_t.inverse(y);
            if !in_group_support(q, cv) {
                return f64::NEG_INFINITY;
            }
            self.c.ln_pdf(cv)
                + table.group_log_likelihood_sparse(counts, q, cv)
                + log_t.ln_jacobian(y)
        };
        let y = self.slice_c.try_step(log_t.forward(c), &log_post_c, rng)?;
        Ok((q, log_t.inverse(y)))
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
        assert_eq!(t.units_of(t.pattern_of(0)), &[0, 1]);
        assert_eq!(t.units_of(t.pattern_of(2)), &[2]);
        assert_eq!(t.units_of(t.pattern_of(3)), &[3]);
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
    fn q_only_likelihood_differs_from_the_full_one_by_a_constant_in_q() {
        // Integer and covariate-scaled (fractional) exposures, failures and
        // none: at fixed c the full group log-likelihood, summed from the
        // direct six-log-gamma marginal, minus its q part is
        // Σ count · −(ln Γ(c + s + f) − ln Γ(c)), whatever q is.
        let t = PatternTable::build(
            vec![
                (0.0, 11.0, 1.0),
                (1.0, 10.0, 1.0),
                (3.0, 8.0, 1.0),
                (0.0, 11.0, 1.4),
                (2.0, 9.0, 0.6),
            ]
            .into_iter(),
        );
        let sparse = vec![(0, 40.0), (1, 3.0), (2, 1.0), (3, 12.0), (4, 2.0)];
        for c in [0.3, 5.0, 80.0, 4e3] {
            let gap = |q: f64| {
                let full: f64 = sparse
                    .iter()
                    .map(|&(idx, cnt)| cnt * t.pattern(idx).log_marginal(q, c))
                    .sum();
                full - t.group_log_likelihood_q_sparse(&sparse, q, c)
            };
            let at_half = gap(0.5);
            let expected: f64 = sparse
                .iter()
                .map(|&(idx, cnt)| {
                    let pat = t.pattern(idx);
                    -cnt * (ln_gamma(c + pat.s + pat.f) - ln_gamma(c))
                })
                .sum();
            assert!(
                (at_half - expected).abs() <= 1e-9 * expected.abs(),
                "c {c}: {at_half} vs {expected}"
            );
            for q in [1e-6, 1e-3, 0.02, 0.3, 0.9, 1.0 - 1e-6] {
                assert!(
                    (gap(q) - at_half).abs() <= 1e-9 * at_half.abs(),
                    "c {c}, q {q:e}: gap {} vs {at_half} at q = 0.5",
                    gap(q)
                );
            }
        }
    }

    #[test]
    fn group_step_matches_quadrature_posterior() {
        // The shared (q, c) step against a 600×600 midpoint quadrature of
        // one group's posterior over logit q and ln c, under the truncated
        // prior at the default c₀ and c prior. The three failure-free groups
        // have posteriors nearly flat in logit q for a dozen or more slice
        // widths, down to the support's lower end. The posterior means of
        // logit q and ln c must lie within 4 Monte Carlo standard errors of
        // the quadrature, with the errors sized by the chain's ESS.
        use pipefail_mcmc::diagnostics::effective_sample_size;
        use pipefail_stats::descriptive::{mean, variance};
        use pipefail_stats::rng::seeded_rng;
        let defaults = crate::dpmhbp::DpmhbpConfig::default();
        let (c0, c_prior) = (defaults.c0, defaults.c_prior);
        let groups: [(&[(f64, usize)], f64); 5] = [
            (&[(0.0, 30), (1.0, 4), (2.0, 1)], 0.05),
            (&[(0.0, 200), (1.0, 2)], 0.01),
            (&[(0.0, 50)], 0.001),
            (&[(0.0, 50)], 0.01),
            (&[(0.0, 50)], 0.05),
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
    fn draws_follow_the_truncated_prior() {
        // At q₀ = 7.4e-4 the Beta part keeps only a few percent of its mass
        // above 1e-9. Every draw must lie in the support, and the q draws'
        // empirical CDF must match the truncated Beta CDF at its deciles.
        use pipefail_stats::rng::seeded_rng;
        let defaults = crate::dpmhbp::DpmhbpConfig::default();
        let q0 = 7.4e-4;
        let prior = GroupPrior::new(q0, defaults.c0, defaults.c_prior).unwrap();
        let beta = Beta::with_mean_concentration(q0, defaults.c0).unwrap();
        let (lo, hi) = (beta.cdf(1e-9), beta.cdf(1.0 - 1e-9));
        let mut rng = seeded_rng(74);
        const N: usize = 20_000;
        let mut qs = Vec::with_capacity(N);
        for _ in 0..N {
            let (q, c) = prior.draw(&mut rng);
            assert!(in_group_support(q, c), "draw ({q:e}, {c:e}) outside the support");
            qs.push(q);
        }
        qs.sort_by(f64::total_cmp);
        for k in 1..10 {
            let p = k as f64 / 10.0;
            let truncated_cdf = (beta.cdf(qs[k * N / 10]) - lo) / (hi - lo);
            assert!(
                (truncated_cdf - p).abs() < 0.015,
                "decile {p}: truncated CDF {truncated_cdf:.4} at q = {:e}",
                qs[k * N / 10]
            );
        }
    }

    #[test]
    fn priors_off_the_support_are_rejected() {
        // A hyper mean outside the support, where HBP would start its
        // groups, and a c prior with nearly all its mass below 1e-6, on
        // which drawing c by rejection would spin.
        let defaults = crate::dpmhbp::DpmhbpConfig::default();
        let (c0, c_prior) = (defaults.c0, defaults.c_prior);
        for (q0, c_prior) in [(1e-12, c_prior), (1.0 - 1e-12, c_prior), (0.01, (1e-9, 1.0))] {
            assert!(
                matches!(GroupPrior::new(q0, c0, c_prior), Err(CoreError::BadConfig(_))),
                "q0 {q0:e}, c prior {c_prior:?} accepted"
            );
        }
        assert!(GroupPrior::new(1e-9, c0, c_prior).is_ok());
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
