//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric with its unit, then, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer metrics traced. Exits non-zero, printing no result, when
//! the arguments are bad or the workload cannot run.

use perfbench::report::{Report, END_TO_END, PER_LAYER};
use perfbench::{fit, serving};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <lookup|analytics|federated|fit> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("seconds must be in 1..=600, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let w = match args.workload.as_str() {
        "lookup" => serving::LOOKUP,
        "analytics" => serving::ANALYTICS,
        "federated" => serving::FEDERATED,
        "fit" => {
            if !args.trace {
                fit::run(args.seed, args.seconds, None, report)?;
            } else {
                let untraced = fit::run(args.seed, args.seconds, None, &mut Report::default())?;
                fit::run(args.seed, args.seconds, Some(untraced), report)?;
            }
            return Ok(());
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    if !args.trace {
        serving::run(&w, args.seed, args.seconds, None, report)?;
    } else {
        let untraced = serving::run(&w, args.seed, args.seconds, None, &mut Report::default())?;
        serving::run(&w, args.seed, args.seconds, Some(untraced), report)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    if let Err(e) = run(&args, &mut report) {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    report.print(if args.trace { PER_LAYER } else { END_TO_END });
    ExitCode::SUCCESS
}
