//! Summaries shared by every workload: percentiles over latency samples,
//! medians over repeated cycles, and the ESS summary of a DPMHBP fit.

use pipefail_mcmc::diagnostics::effective_sample_size;

/// Nearest-rank percentile `p` (0–100) of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps float error in p·n (0.999 · 1000 = 999.0000000000001)
    // from pushing an exact rank up by one.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `p` — how many
/// observations the percentile rests on.
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    let cut = percentile(sorted, p);
    sorted.len() - sorted.partition_point(|&x| x <= cut)
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sorted copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// ESS of each diagnostic trace of one chain, in the order given.
pub fn trace_ess(traces: &[&[f64]]) -> Vec<f64> {
    traces.iter().map(|t| effective_sample_size(t)).collect()
}

/// The chain's worst-mixing trace: the minimum ESS over its traces.
pub fn min_ess(traces: &[&[f64]]) -> f64 {
    trace_ess(traces).into_iter().fold(f64::INFINITY, f64::min)
}

/// Effective samples per second over a set of chains: each chain's
/// minimum ESS, summed, over the total fit wall time.
pub fn ess_per_s(min_ess_per_chain: &[f64], total_fit_s: f64) -> f64 {
    min_ess_per_chain.iter().sum::<f64>() / total_fit_s
}
