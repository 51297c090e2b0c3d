//! Extension — MCMC convergence diagnostics for the DPMHBP fit.
//!
//! The paper asserts its Metropolis-within-Gibbs sampler "handles
//! large-scale datasets" but shows no convergence evidence; this driver runs
//! *multiple independent chains* per region (in parallel on the task pool),
//! reports per-chain effective sample size and Geweke scores, and the
//! cross-chain Gelman–Rubin R̂ — the diagnostic that actually detects a
//! sampler stuck in one mode, which single-chain split-R̂ cannot.

use pipefail_core::dpmhbp::{Dpmhbp, DpmhbpConfig, DpmhbpDiagnostics};
use pipefail_core::model::FailureModel;
use pipefail_experiments::{section, Context};
use pipefail_mcmc::diagnostics::{effective_sample_size, geweke, r_hat_many, split_r_hat};
use pipefail_stats::rng::derive_seed;

/// Stream offset for per-chain sub-seeds, far from the retry and replicate
/// stream ids, so independent chains never share an RNG stream with any
/// other component.
const CHAIN_STREAM_BASE: u64 = 0x0043_4841_494e; // "CHAIN"

/// Independent chains per region. Four is the standard multi-chain protocol:
/// enough for a meaningful between-chain variance, cheap enough to run by
/// default.
const CHAINS: usize = 4;

fn run_chain(ctx: &Context, ds: &pipefail_network::dataset::Dataset, chain: usize) -> DpmhbpDiagnostics {
    let split = ctx.split();
    let mut model = Dpmhbp::new(if ctx.fast {
        DpmhbpConfig::fast()
    } else {
        DpmhbpConfig::default()
    });
    // Chain 0 keeps the master seed so single-chain artefacts stay
    // reproducible against older revisions; chains 1.. jitter through the
    // dedicated stream.
    let seed = if chain == 0 {
        ctx.seed
    } else {
        derive_seed(ctx.seed, CHAIN_STREAM_BASE + chain as u64)
    };
    model.fit_rank(ds, &split, seed).expect("fit failed");
    model.diagnostics().clone()
}

fn main() {
    let ctx = Context::from_env();
    let world = ctx.build_world();
    let pool = ctx.run_config().pool();
    let mut out = String::new();
    // Wall-clock phase times vary run to run, so they go to stdout only and
    // the artifact stays a function of the seed.
    let mut phase_times = String::new();
    for ds in world.regions() {
        // Chains are fully independent fits, so the pool fans them out;
        // results come back in chain order regardless of thread count.
        let diags = pool.run(CHAINS, |chain| run_chain(&ctx, ds, chain));
        out.push_str(&format!(
            "== {} ==  ({CHAINS} chains, {} thread(s))\n",
            ds.name(),
            pool.threads()
        ));
        type Select = fn(&DpmhbpDiagnostics) -> &[f64];
        let monitors: [(&str, Select); 3] = [
            ("clusters", |d| &d.clusters),
            ("alpha", |d| &d.alpha),
            ("mean_q", |d| &d.mean_q),
        ];
        for (name, select) in monitors {
            let chains: Vec<&[f64]> = diags.iter().map(select).collect();
            let pooled_mean = chains
                .iter()
                .map(|c| c.iter().sum::<f64>() / c.len().max(1) as f64)
                .sum::<f64>()
                / chains.len() as f64;
            // Per-chain diagnostics are reported for the master-seed chain
            // (comparable with the old single-chain artefact); R̂ is the
            // cross-chain statistic.
            let lead = chains[0];
            out.push_str(&format!(
                "{:<9} mean {:>9.4}  R-hat({CHAINS}) {:>6.3}  split-R-hat {:>6.3}  ESS {:>7.1}  Geweke z {:>6.2}\n",
                name,
                pooled_mean,
                r_hat_many(&chains),
                split_r_hat(lead),
                effective_sample_size(lead),
                geweke(lead, 0.1, 0.5),
            ));
        }
        out.push('\n');
        let sum = |select: fn(&DpmhbpDiagnostics) -> f64| diags.iter().map(select).sum::<f64>();
        phase_times.push_str(&format!(
            "{:<9} assignments {:>7.3}  parameters {:>7.3}  alpha {:>7.3}\n",
            ds.name(),
            sum(|d| d.assignment_secs),
            sum(|d| d.parameter_secs),
            sum(|d| d.alpha_secs),
        ));
    }
    section("DPMHBP sampler convergence diagnostics (multi-chain)", &out);
    section(
        &format!("DPMHBP seconds per Gibbs phase (wall clock, summed over {CHAINS} chains)"),
        &phase_times,
    );
    ctx.write_artifact("mcmc_diagnostics.txt", &out)
        .expect("write artifact");
}
