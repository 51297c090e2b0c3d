//! MCMC kernel throughput: a slice transition on the kind of posterior the
//! pipe models sample, plus diagnostics cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pipefail_mcmc::diagnostics::{effective_sample_size, split_r_hat};
use pipefail_mcmc::slice::SliceSampler;
use pipefail_mcmc::transform::Transform;
use pipefail_stats::rng::seeded_rng;

fn beta_like_log_post(q: f64) -> f64 {
    if q <= 0.0 || q >= 1.0 {
        return f64::NEG_INFINITY;
    }
    // Posterior shape of a group failure rate: Beta-ish with data term.
    6.0 * q.ln() + 480.0 * (1.0 - q).ln()
}

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    let mut rng = seeded_rng(2);

    let slice = SliceSampler::new(1.0);
    let logit = Transform::Logit;
    let wrapped = logit.wrap_log_density(beta_like_log_post);
    let mut y = logit.forward(0.01);
    g.bench_function("slice_step_logit_beta_posterior", |b| {
        b.iter(|| {
            y = slice.step(y, &wrapped, &mut rng);
            black_box(y)
        })
    });
    g.finish();
}

fn bench_diagnostics(c: &mut Criterion) {
    let mut g = c.benchmark_group("diagnostics");
    let mut rng = seeded_rng(3);
    let slice = SliceSampler::new(1.0);
    let mut x = 0.0;
    let chain: Vec<f64> = (0..2_000)
        .map(|_| {
            x = slice.step(x, &|v: f64| -0.5 * v * v, &mut rng);
            x
        })
        .collect();
    g.bench_function("ess_2000", |b| {
        b.iter(|| black_box(effective_sample_size(black_box(&chain))))
    });
    g.bench_function("split_r_hat_2000", |b| {
        b.iter(|| black_box(split_r_hat(black_box(&chain))))
    });
    g.finish();
}

criterion_group!(benches, bench_kernels, bench_diagnostics);
criterion_main!(benches);
