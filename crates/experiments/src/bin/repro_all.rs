//! Run every experiment, writing all artefacts under the output directory.
//! This is the one command behind EXPERIMENTS.md:
//!
//! ```text
//! PIPEFAIL_SCALE=0.12 cargo run --release -p pipefail-experiments --bin repro_all
//! ```
//!
//! The driver is fault-tolerant and parallel:
//!
//! * experiment binaries are independent processes, so they fan out on the
//!   task pool (`PIPEFAIL_THREADS`, default auto); each child is pinned to
//!   `PIPEFAIL_THREADS=1` so the process-level fan-out is the only source of
//!   parallelism — no core oversubscription from nested pools;
//! * each experiment runs to completion even when another fails — one
//!   broken figure no longer kills the whole reproduction;
//! * a failed binary is retried (up to `PIPEFAIL_MAX_RETRIES` extra
//!   launches) before being reported as failed;
//! * a completed binary drops a marker under `<out>/status/`, so rerunning
//!   `repro_all` after an interruption skips everything already done.
//!   Delete the `status/` directory (or `PIPEFAIL_OUT`) for a from-scratch
//!   rerun;
//! * the run ends with a pass/fail/retried summary table — now with per-bin
//!   wall-clock — and exits non-zero if any binary still failed.
//!
//! A child's stdout/stderr is captured and echoed as one block when it
//! finishes, so parallel runs stay readable.

use pipefail_eval::RetryPolicy;
use pipefail_experiments::Context;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::Instant;

const BINS: [&str; 15] = [
    "table18_1",
    "table18_2",
    "fig18_2",
    "fig18_3",
    "fig18_5_6",
    "fig18_7",
    "table18_3",
    "table18_4",
    "fig18_8",
    "fig18_9",
    "ablation_grouping",
    "ablation_domain_knowledge",
    "mcmc_diagnostics",
    "rolling_origin",
    "calibration",
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    /// Succeeded this run.
    Passed,
    /// Marker from a previous run; not re-executed.
    AlreadyDone,
    /// Every launch failed.
    Failed,
}

struct BinStatus {
    bin: &'static str,
    outcome: Outcome,
    /// Launches made this run (0 when skipped via marker).
    attempts: usize,
    /// Wall-clock across all launches this run, in seconds.
    elapsed_secs: f64,
    /// Failure detail of the last attempt, if any.
    detail: Option<String>,
}

fn main() {
    let ctx = Context::from_env();
    let status_dir = ctx.out_dir.join("status");
    if let Err(e) = std::fs::create_dir_all(&status_dir) {
        eprintln!(
            "cannot create status dir {}: {e}; resume markers disabled",
            status_dir.display()
        );
    }
    let retries = RetryPolicy::from_env().max_retries;
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf));
    let pool = ctx.run_config().pool();
    println!(
        "running {} experiments on {} thread(s)",
        BINS.len(),
        pool.threads()
    );

    // Completed children print their whole captured transcript under this
    // lock so parallel bins never interleave mid-block.
    let echo = Mutex::new(());
    let statuses: Vec<BinStatus> = pool.run(BINS.len(), |i| {
        let bin = BINS[i];
        let started = Instant::now();
        let marker = status_dir.join(format!("{bin}.done"));
        if marker.exists() {
            let _g = echo.lock().unwrap_or_else(|e| e.into_inner());
            println!("\n================ {bin} ================");
            println!("[skipped: marker {} exists]", marker.display());
            return BinStatus {
                bin,
                outcome: Outcome::AlreadyDone,
                attempts: 0,
                elapsed_secs: started.elapsed().as_secs_f64(),
                detail: None,
            };
        }
        let mut attempts = 0;
        let mut detail = None;
        let outcome = loop {
            attempts += 1;
            match launch(bin, exe_dir.as_deref(), pool.threads()) {
                Ok(transcript) => {
                    let _g = echo.lock().unwrap_or_else(|e| e.into_inner());
                    println!("\n================ {bin} ================");
                    if attempts > 1 {
                        println!("[passed on retry {} of {retries}]", attempts - 1);
                    }
                    let mut stdout = std::io::stdout().lock();
                    let _ = stdout.write_all(&transcript);
                    break Outcome::Passed;
                }
                Err(e) => {
                    let _g = echo.lock().unwrap_or_else(|e| e.into_inner());
                    eprintln!("[{bin}] attempt {attempts} failed: {e}");
                    detail = Some(e);
                    if attempts > retries {
                        break Outcome::Failed;
                    }
                }
            }
        };
        if outcome == Outcome::Passed {
            let note = format!("completed after {attempts} attempt(s)\n");
            if let Err(e) = std::fs::write(&marker, note) {
                eprintln!("cannot write marker {}: {e}", marker.display());
            }
        }
        BinStatus {
            bin,
            outcome,
            attempts,
            elapsed_secs: started.elapsed().as_secs_f64(),
            detail,
        }
    });

    print_summary(&statuses, pool.threads());
    let failed: Vec<&str> = statuses
        .iter()
        .filter(|s| s.outcome == Outcome::Failed)
        .map(|s| s.bin)
        .collect();
    if failed.is_empty() {
        println!("\nAll experiments completed.");
    } else {
        eprintln!("\nFAILED experiments: {}", failed.join(", "));
        eprintln!("(rerun `repro_all` to retry only the failures — completed bins are skipped)");
        std::process::exit(1);
    }
}

/// Launch one experiment binary with its output captured; `Ok` carries the
/// combined stdout+stderr transcript, `Err` the failure detail (with the
/// tail of the child's stderr). The child gets `PIPEFAIL_THREADS=1`: with
/// whole binaries fanned out here, inner model loops must stay serial.
fn launch(bin: &str, exe_dir: Option<&Path>, parent_threads: usize) -> Result<Vec<u8>, String> {
    // Prefer the sibling executable (present after `cargo build`); fall
    // back to `cargo run` so `cargo run --bin repro_all` works alone.
    let sibling: Option<PathBuf> = exe_dir.map(|d| d.join(bin)).filter(|p| p.exists());
    let mut cmd = match sibling {
        Some(exe) => Command::new(exe),
        None => {
            let mut c = Command::new("cargo");
            c.args(["run", "--release", "-q", "-p", "pipefail-experiments", "--bin", bin]);
            c
        }
    };
    if parent_threads > 1 {
        cmd.env("PIPEFAIL_THREADS", "1");
    }
    match cmd.output() {
        Ok(out) if out.status.success() => {
            let mut transcript = out.stdout;
            if !out.stderr.is_empty() {
                transcript.extend_from_slice(b"--- stderr ---\n");
                transcript.extend_from_slice(&out.stderr);
            }
            Ok(transcript)
        }
        Ok(out) => {
            let stderr = String::from_utf8_lossy(&out.stderr);
            let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
            let tail: Vec<&str> = tail.into_iter().rev().collect();
            Err(format!("exited with {}: {}", out.status, tail.join(" | ")))
        }
        Err(e) => Err(format!("failed to launch: {e}")),
    }
}

fn print_summary(statuses: &[BinStatus], threads: usize) {
    println!("\n================ summary ({threads} thread(s)) ================");
    println!("{:<28} {:<18} {:>8} {:>10}", "experiment", "result", "attempts", "wall [s]");
    for s in statuses {
        let result = match s.outcome {
            Outcome::Passed if s.attempts > 1 => "pass (retried)",
            Outcome::Passed => "pass",
            Outcome::AlreadyDone => "done (resumed)",
            Outcome::Failed => "FAIL",
        };
        print!(
            "{:<28} {:<18} {:>8} {:>10.2}",
            s.bin, result, s.attempts, s.elapsed_secs
        );
        if let Some(d) = &s.detail {
            if s.outcome == Outcome::Failed {
                print!("   [{d}]");
            }
        }
        println!();
    }
    let passed = statuses
        .iter()
        .filter(|s| matches!(s.outcome, Outcome::Passed | Outcome::AlreadyDone))
        .count();
    let retried = statuses
        .iter()
        .filter(|s| s.outcome == Outcome::Passed && s.attempts > 1)
        .count();
    let failed = statuses.len() - passed;
    let wall: f64 = statuses.iter().map(|s| s.elapsed_secs).sum();
    println!(
        "\n{passed} passed ({retried} after retry), {failed} failed, {} total; {wall:.1}s of bin wall-clock on {threads} thread(s)",
        statuses.len()
    );
}
