//! Descriptive statistics over `f64` slices.
//!
//! Everything returns [`crate::StatsError::NotEnoughData`] rather than NaN
//! when the input cannot support the statistic, so callers never silently
//! propagate NaNs into model fits.

use crate::{Result, StatsError};

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData("mean of empty slice"));
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased (n−1) sample variance.
pub fn variance(xs: &[f64]) -> Result<f64> {
    if xs.len() < 2 {
        return Err(StatsError::NotEnoughData("variance needs >= 2 points"));
    }
    let m = mean(xs)?;
    // Two-pass algorithm for numerical stability.
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    Ok(ss / (xs.len() - 1) as f64)
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    variance(xs).map(f64::sqrt)
}

/// Median (interpolated for even lengths). Sorts a copy.
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (type 7, the R/NumPy default). Sorts a copy.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData("quantile of empty slice"));
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::BadParameter("quantile q must be in [0,1]"));
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Ok(v[lo])
    } else {
        let frac = pos - lo as f64;
        Ok(v[lo] * (1.0 - frac) + v[hi] * frac)
    }
}

/// Sample covariance (unbiased).
pub fn covariance(xs: &[f64], ys: &[f64]) -> Result<f64> {
    if xs.len() != ys.len() {
        return Err(StatsError::BadParameter("covariance needs equal lengths"));
    }
    if xs.len() < 2 {
        return Err(StatsError::NotEnoughData("covariance needs >= 2 points"));
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let s: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum();
    Ok(s / (xs.len() - 1) as f64)
}

/// Pearson correlation coefficient.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Result<f64> {
    let c = covariance(xs, ys)?;
    let sx = std_dev(xs)?;
    let sy = std_dev(ys)?;
    if sx == 0.0 || sy == 0.0 {
        return Err(StatsError::BadParameter("pearson undefined for constant input"));
    }
    Ok(c / (sx * sy))
}

/// Spearman rank correlation (average ranks for ties).
pub fn spearman(xs: &[f64], ys: &[f64]) -> Result<f64> {
    let rx = ranks(xs)?;
    let ry = ranks(ys)?;
    pearson(&rx, &ry)
}

/// Average ranks (1-based; ties share the average of their rank range).
pub fn ranks(xs: &[f64]) -> Result<Vec<f64>> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData("ranks of empty slice"));
    }
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN in ranks input"));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // ranks i+1 ..= j+1 (1-based) share the average
        let avg = (i + 1 + j + 1) as f64 / 2.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    Ok(out)
}

/// Minimum and maximum in one pass.
pub fn min_max(xs: &[f64]) -> Result<(f64, f64)> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData("min_max of empty slice"));
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    Ok((lo, hi))
}

/// Compact five-number-plus-moments summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 when n < 2).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Lower quartile.
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q75: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarise a non-empty sample.
    pub fn of(xs: &[f64]) -> Result<Self> {
        let (min, max) = min_max(xs)?;
        Ok(Summary {
            n: xs.len(),
            mean: mean(xs)?,
            std_dev: std_dev(xs).unwrap_or(0.0),
            min,
            q25: quantile(xs, 0.25)?,
            median: quantile(xs, 0.5)?,
            q75: quantile(xs, 0.75)?,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs).unwrap(), 5.0);
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!(mean(&[]).is_err());
        assert!(variance(&[1.0]).is_err());
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
    }

    #[test]
    fn quantile_type7() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
        assert!((quantile(&xs, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert!(quantile(&xs, 1.5).is_err());
    }

    #[test]
    fn correlation_perfect_lines() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -2.0 * x).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
        assert!(pearson(&xs, &[1.0; 5]).is_err());
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys: Vec<f64> = xs.iter().map(|x: &f64| x.exp()).collect();
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_with_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]).unwrap();
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mean, 22.0);
    }
}
