//! Categorical distribution with Walker alias-table sampling.

use super::Sampler;
use crate::{Result, StatsError};
use rand::Rng;

/// Categorical distribution over `0..k` given (unnormalised) weights.
///
/// Sampling is O(1) through a Walker alias table built once at construction.
#[derive(Debug, Clone)]
pub struct Categorical {
    probs: Vec<f64>,
    alias: AliasTable,
}

impl Categorical {
    /// Build from non-negative weights (at least one strictly positive).
    pub fn new(weights: &[f64]) -> Result<Self> {
        let alias = AliasTable::new(weights)?;
        let total: f64 = weights.iter().sum();
        let probs = weights.iter().map(|w| w / total).collect();
        Ok(Self { probs, alias })
    }

    /// Number of categories.
    pub fn k(&self) -> usize {
        self.probs.len()
    }

    /// Normalised probability of category `i`.
    pub fn prob(&self, i: usize) -> f64 {
        self.probs.get(i).copied().unwrap_or(0.0)
    }
}

impl Sampler for Categorical {
    type Value = usize;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.alias.sample(rng)
    }
}

/// Walker alias table: O(k) construction, O(1) sampling.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Build from non-negative weights.
    pub fn new(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(StatsError::BadParameter("alias table needs >= 1 weight"));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(StatsError::BadParameter(
                "alias table weights must be finite and non-negative",
            ));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(StatsError::BadParameter(
                "alias table needs a positive total weight",
            ));
        }
        let k = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * k as f64 / total).collect();
        let mut alias = vec![0usize; k];
        let mut small: Vec<usize> = Vec::with_capacity(k);
        let mut large: Vec<usize> = Vec::with_capacity(k);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers are certainties.
        for i in large {
            prob[i] = 1.0;
        }
        for i in small {
            prob[i] = 1.0;
        }
        Ok(Self { prob, alias })
    }

    /// Draw a category index in O(1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let k = self.prob.len();
        let i = rng.gen_range(0..k);
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn rejects_bad_weights() {
        assert!(AliasTable::new(&[]).is_err());
        assert!(AliasTable::new(&[0.0, 0.0]).is_err());
        assert!(AliasTable::new(&[1.0, -0.5]).is_err());
        assert!(AliasTable::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn alias_matches_weights_empirically() {
        let mut rng = seeded_rng(16);
        let c = Categorical::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[c.sample(&mut rng)] += 1;
        }
        for (i, &cnt) in counts.iter().enumerate() {
            let want = (i + 1) as f64 / 10.0;
            let got = cnt as f64 / n as f64;
            assert!((got - want).abs() < 0.01, "cat {i}: {got} vs {want}");
        }
    }

    #[test]
    fn single_category() {
        let mut rng = seeded_rng(17);
        let c = Categorical::new(&[3.0]).unwrap();
        for _ in 0..10 {
            assert_eq!(c.sample(&mut rng), 0);
        }
        assert_eq!(c.prob(0), 1.0);
    }

    #[test]
    fn zero_weight_category_never_sampled() {
        let mut rng = seeded_rng(18);
        let c = Categorical::new(&[1.0, 0.0, 1.0]).unwrap();
        for _ in 0..5_000 {
            assert_ne!(c.sample(&mut rng), 1);
        }
    }
}
