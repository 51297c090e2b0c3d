//! `pipefail` — command-line interface for the generate → rank → evaluate
//! workflow on CSV asset registers.
//!
//! ```text
//! pipefail generate --scale 0.1 --seed 7 --out data/        # synthesize CSVs
//! pipefail rank     --data data/region_a --model dpmhbp     # rank CWM pipes
//! pipefail evaluate --data data/region_a                    # compare models
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to keep the
//! dependency set minimal.

use pipefail::core::model::FailureModel;
use pipefail::eval::report::format_auc_table;
use pipefail::eval::runner::{evaluate_region, ModelKind, RunConfig};
use pipefail::network::csvio::{read_dataset, write_dataset};
use pipefail::network::Dataset;
use pipefail::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, options)) = parse(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&options),
        "rank" => cmd_rank(&options),
        "evaluate" => cmd_evaluate(&options),
        "snapshot" => cmd_snapshot(&options),
        "serve" => cmd_serve(&options),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
pipefail — water pipe failure prediction

USAGE:
  pipefail generate [--scale F] [--seed N] [--out DIR]
      Generate the calibrated synthetic metropolis and export each region
      as CSV under DIR (default data/).
  pipefail rank --data DIR [--model NAME] [--seed N] [--top N] [--out FILE]
      Fit a model on a CSV dataset (train 1998-2008) and rank the critical
      mains by 2009 risk. Models: dpmhbp (default), hbp, cox, weibull, svm.
  pipefail evaluate --data DIR [--seed N] [--full]
      Fit all five compared models and print the AUC table (--full uses the
      full MCMC schedules).
  pipefail snapshot --data DIR --out FILE [--model NAME] [--seed N] [--full]
                    [--format v1|v2]
      Fit a model and freeze its posterior summary plus the full risk
      ranking into a versioned snapshot file (see docs/SNAPSHOT_FORMAT.md).
      --format picks the encoding: v2 (default) is the aligned columnar
      layout the server memory-maps for O(ms) loads; v1 is the legacy
      layout, which the server parses into an owned v2 copy. Per-pipe attributes (length, material, laid year)
      are embedded so the server can answer POST /aggregate pipelines (see
      docs/AGGREGATE.md).
  pipefail serve (--snapshot FILE [--snapshot FILE ...] | --snapshot-dir DIR
                  | --backend KEY=HOST:PORT [--backend KEY=HOST:PORT ...])
                 [--addr HOST:PORT] [--data DIR] [--max-requests N]
      Serve snapshots over HTTP with keep-alive connections: /health /top
      /pipe /model /batch /aggregate /metrics (and /riskmap.svg when --data
      is given with a single snapshot). POST /aggregate runs a declarative
      group-by/aggregate pipeline over the fleet (docs/AGGREGATE.md). One --snapshot is the classic single-region
      server; repeated --snapshot flags or --snapshot-dir (every *.pfsnap
      in DIR) serve one shard per region behind one endpoint: /top?region=R
      routes to one shard, region-less /top scatter-gathers the global
      top-K. Honors PIPEFAIL_HTTP_WORKERS, PIPEFAIL_HTTP_TIMEOUT_SECS,
      PIPEFAIL_HTTP_IDLE_SECS, PIPEFAIL_HTTP_KEEPALIVE_REQS, and
      PIPEFAIL_HTTP_RELOAD_SECS (N > 0 polls every watched snapshot file
      every N seconds and hot-swaps shards independently); see
      docs/SERVING.md. One epoll event loop drives every connection
      (Linux only). Admission knobs: PIPEFAIL_HTTP_MAX_CONNS
      (open-connection cap, idle keep-alive connections are shed first,
      0 = unlimited) and PIPEFAIL_HTTP_INFLIGHT (in-flight request cap
      answering 429 + Retry-After, 0 = unbounded).
      Repeated --backend flags start a *federation front-end* instead: no
      snapshots are loaded; region-tagged queries relay to the named
      backend serve processes over keep-alive TCP with health checks,
      timeouts, retries, and hedged requests; region-less /top and
      POST /aggregate scatter-gather across the live fleet. Honors the
      PIPEFAIL_FED_* knobs (TIMEOUT_SECS, RETRIES, BACKOFF_MS,
      BACKOFF_CAP_MS, HEDGE_MS, PROBE_SECS, FAIL_THRESHOLD); see the
      Federation section of docs/SERVING.md.
  pipefail help";

/// Parsed CLI options: every `--key` keeps all its values in order, so
/// repeatable flags (`--snapshot A --snapshot B`) accumulate while
/// single-valued flags read the last occurrence.
type Options = HashMap<String, Vec<String>>;

fn parse(args: &[String]) -> Option<(String, Options)> {
    let mut it = args.iter();
    let command = it.next()?.clone();
    let mut options: Options = HashMap::new();
    while let Some(key) = it.next() {
        let key = key.strip_prefix("--")?;
        let value = if key == "full" {
            "1".to_string()
        } else {
            it.next()?.clone()
        };
        options.entry(key.to_string()).or_default().push(value);
    }
    Some((command, options))
}

/// Last value of a single-valued option (the usual "last flag wins").
fn opt<'a>(options: &'a Options, key: &str) -> Option<&'a String> {
    options.get(key).and_then(|v| v.last())
}

fn opt_f64(options: &Options, key: &str, default: f64) -> Result<f64, String> {
    opt(options, key)
        .map_or(Ok(default), |v| v.parse().map_err(|_| format!("bad --{key}: {v:?}")))
}

fn opt_u64(options: &Options, key: &str, default: u64) -> Result<u64, String> {
    opt(options, key)
        .map_or(Ok(default), |v| v.parse().map_err(|_| format!("bad --{key}: {v:?}")))
}

fn load(options: &Options) -> Result<Dataset, String> {
    let dir = opt(options, "data")
        .ok_or("missing --data DIR (a directory written by `pipefail generate`)")?;
    read_dataset(Path::new(dir)).map_err(|e| format!("loading {dir}: {e}"))
}

fn cmd_generate(options: &Options) -> Result<(), String> {
    let scale = opt_f64(options, "scale", 0.05)?;
    let seed = opt_u64(options, "seed", 7)?;
    let out = PathBuf::from(opt(options, "out").map_or("data", String::as_str));
    let world = WorldConfig::paper().scaled(scale).build(seed);
    for ds in world.regions() {
        let dir = out.join(ds.name().to_lowercase().replace(' ', "_"));
        write_dataset(ds, &dir).map_err(|e| e.to_string())?;
        println!(
            "{}: {} pipes, {} segments, {} failures -> {}",
            ds.name(),
            ds.pipes().len(),
            ds.segments().len(),
            ds.failures().len(),
            dir.display()
        );
    }
    Ok(())
}

/// Construct a model by CLI name. `full` selects the paper MCMC schedules;
/// otherwise the shortened `fast()` schedules are used where they exist.
fn make_model(name: &str, full: bool) -> Result<Box<dyn FailureModel>, String> {
    Ok(match name {
        "dpmhbp" if full => Box::new(Dpmhbp::new(DpmhbpConfig::default())),
        "dpmhbp" => Box::new(Dpmhbp::new(DpmhbpConfig::fast())),
        "hbp" if full => Box::new(Hbp::new(HbpConfig::default())),
        "hbp" => Box::new(Hbp::new(HbpConfig::fast())),
        "cox" => Box::new(pipefail::baselines::cox::CoxModel::default_config()),
        "weibull" => Box::new(pipefail::baselines::weibull_nhpp::WeibullNhpp::default_config()),
        "svm" => Box::new(RankSvm::new(RankSvmConfig::default())),
        other => return Err(format!("unknown model {other:?} (dpmhbp|hbp|cox|weibull|svm)")),
    })
}

fn cmd_rank(options: &Options) -> Result<(), String> {
    let ds = load(options)?;
    let seed = opt_u64(options, "seed", 7)?;
    let top = opt_u64(options, "top", 20)? as usize;
    let name = opt(options, "model").map_or("dpmhbp", String::as_str);
    let mut model = make_model(name, true)?;
    let split = TrainTestSplit::paper_protocol();
    let ranking = model
        .fit_rank(&ds, &split, seed)
        .map_err(|e| e.to_string())?;
    println!("{} ranked {} critical mains; top {top}:", model.name(), ranking.len());
    println!("{:<14} {:>12} {:>8} {:>6} {:>6} {:>9}", "pipe", "score", "dia_mm", "mat", "laid", "length_m");
    for s in ranking.scores().iter().take(top) {
        let p = ds.pipe(s.pipe);
        println!(
            "{:<14} {:>12.6} {:>8.0} {:>6} {:>6} {:>9.0}",
            format!("{}", s.pipe),
            s.score,
            p.diameter_mm,
            p.material.code(),
            p.laid_year,
            ds.pipe_length_m(s.pipe)
        );
    }
    if let Some(path) = opt(options, "out") {
        let mut csv = String::from("pipe_id,score\n");
        for s in ranking.scores() {
            csv.push_str(&format!("{},{}\n", s.pipe.0, s.score));
        }
        std::fs::write(path, csv).map_err(|e| e.to_string())?;
        println!("wrote full ranking to {path}");
    }
    Ok(())
}

fn cmd_evaluate(options: &Options) -> Result<(), String> {
    let ds = load(options)?;
    let seed = opt_u64(options, "seed", 7)?;
    let fast = !options.contains_key("full");
    let split = TrainTestSplit::paper_protocol();
    let config = RunConfig {
        fast,
        ..RunConfig::default()
    };
    let result = evaluate_region(&ds, &split, &ModelKind::paper_five(), config, seed)
        .map_err(|e| e.to_string())?;
    println!("{}", format_auc_table(std::slice::from_ref(&result)));
    Ok(())
}

fn cmd_snapshot(options: &Options) -> Result<(), String> {
    let ds = load(options)?;
    let seed = opt_u64(options, "seed", 7)?;
    let out = opt(options, "out")
        .ok_or("missing --out FILE (where to write the snapshot)")?;
    let name = opt(options, "model").map_or("dpmhbp", String::as_str);
    let mut model = make_model(name, options.contains_key("full"))?;
    let split = TrainTestSplit::paper_protocol();
    let ranking = model
        .fit_rank(&ds, &split, seed)
        .map_err(|e| e.to_string())?;
    let mut snap = Snapshot::from_fit(model.as_ref(), ds.name(), seed, &ranking);
    // Per-pipe attributes ride along in score order so the serving layer
    // can answer declarative POST /aggregate pipelines (docs/AGGREGATE.md).
    let scores = ranking.scores();
    snap.push_section(pipefail::core::snapshot::attributes_section(
        scores.iter().map(|s| ds.pipe_length_m(s.pipe)).collect(),
        scores
            .iter()
            .map(|s| {
                let material = ds.pipe(s.pipe).material;
                Material::ALL
                    .iter()
                    .position(|m| *m == material)
                    .unwrap_or(0) as f64
            })
            .collect(),
        scores
            .iter()
            .map(|s| f64::from(ds.pipe(s.pipe).laid_year))
            .collect(),
    ));
    let format = match opt(options, "format") {
        None => SnapshotFormat::V2,
        Some(label) => SnapshotFormat::parse(label)
            .ok_or_else(|| format!("unknown --format {label:?} (expected v1 or v2)"))?,
    };
    let path = PathBuf::from(out);
    snap.save_as(&path, format).map_err(|e| e.to_string())?;
    println!(
        "{}: froze {} ranked pipes + {} posterior sections ({format}) -> {}",
        snap.model,
        snap.scores.len(),
        snap.sections.len(),
        path.display()
    );
    Ok(())
}

/// Federation mode: `--backend KEY=HOST:PORT` flags build a front-end that
/// holds no snapshots, only routes. Mutually exclusive with the snapshot
/// flags — a process is either a shard owner or a router, never both.
fn cmd_serve_federated(options: &Options, backends: &[String]) -> Result<(), String> {
    for flag in ["snapshot", "snapshot-dir", "data"] {
        if options.contains_key(flag) {
            return Err(format!("--backend starts a federation front-end; --{flag} is for snapshot-serving processes"));
        }
    }
    let mut targets = Vec::with_capacity(backends.len());
    for spec in backends {
        let Some((key, addr)) = spec.split_once('=') else {
            return Err(format!("bad --backend {spec:?}: expected KEY=HOST:PORT"));
        };
        targets.push((key.to_string(), addr.to_string()));
    }
    let fed = std::sync::Arc::new(
        pipefail::serve::Federation::new(targets, pipefail::serve::FedConfig::from_env())
            .map_err(|e| e.to_string())?,
    );
    for key in fed.keys() {
        println!("federating region {key}");
    }
    let mut config = ServerConfig::from_env();
    if let Some(addr) = opt(options, "addr") {
        config = config.with_addr(addr);
    }
    let handle =
        pipefail::serve::serve_federated(fed, &config).map_err(|e| e.to_string())?;
    println!("federation front-end on http://{} (Ctrl-C to stop)", handle.addr());
    let max_requests = opt_u64(options, "max-requests", 0)?;
    if max_requests > 0 {
        while handle.metrics().total() < max_requests {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        handle.shutdown();
        println!("served {max_requests} requests; shut down");
    } else {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    Ok(())
}

fn cmd_serve(options: &Options) -> Result<(), String> {
    if let Some(backends) = options.get("backend") {
        return cmd_serve_federated(options, backends);
    }
    let snapshots: &[String] = options.get("snapshot").map_or(&[], Vec::as_slice);
    let dir = opt(options, "snapshot-dir");
    let pool = pipefail::par::TaskPool::from_env();
    // Three shapes: --snapshot-dir DIR (one shard per *.pfsnap), repeated
    // --snapshot (one shard each), or a single --snapshot (the classic
    // single-region server). Snapshots load and strict-validate in
    // parallel on the task pool either way.
    let ctx = match (dir, snapshots) {
        (Some(_), [_, ..]) => {
            return Err("pass either --snapshot-dir or --snapshot, not both".into());
        }
        (Some(dir), []) => ServeContext::sharded(
            ShardSet::load_dir(Path::new(dir), &pool).map_err(|e| e.to_string())?,
        ),
        (None, []) => {
            return Err(
                "missing --snapshot FILE or --snapshot-dir DIR (written by `pipefail snapshot`)"
                    .into(),
            );
        }
        (None, [path]) => {
            let scorer =
                Scorer::load(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))?;
            ServeContext::new(scorer)
        }
        (None, many) => {
            let paths: Vec<PathBuf> = many.iter().map(PathBuf::from).collect();
            ServeContext::sharded(ShardSet::load_paths(&paths, &pool).map_err(|e| e.to_string())?)
        }
    };
    let mut ctx = ctx;
    for shard in ctx.shards().shards() {
        let s = shard.last_good();
        println!(
            "loaded {} snapshot of {} ({} pipes, {} via {}){}",
            s.model(),
            s.region(),
            s.len(),
            s.format(),
            s.loader(),
            if ctx.shards().is_single() {
                String::new()
            } else {
                format!(" [region={}]", shard.key())
            }
        );
    }
    if options.contains_key("data") {
        if !ctx.shards().is_single() {
            return Err("--data (risk maps) only works with a single --snapshot".into());
        }
        // Optional geometry: enables the /riskmap.svg endpoint.
        ctx = ctx.with_dataset(load(options)?);
    }
    // Wire the snapshot files into the config so PIPEFAIL_HTTP_RELOAD_SECS
    // can arm the hot-reload watcher on the same files we just loaded:
    // sharded sets carry their own per-shard paths, single-snapshot mode
    // watches the one file.
    let mut config = ServerConfig::from_env();
    if let (true, [path]) = (ctx.shards().is_single(), snapshots) {
        config = config.with_snapshot_path(Path::new(path));
    }
    if let Some(addr) = opt(options, "addr") {
        config = config.with_addr(addr);
    }
    if config.reload_poll_secs > 0.0 {
        let watched = ctx
            .shards()
            .shards()
            .iter()
            .filter(|s| s.path().is_some())
            .count()
            .max(usize::from(config.snapshot_path.is_some()));
        println!(
            "hot-reload armed: polling {watched} snapshot file(s) every {}s",
            config.reload_poll_secs
        );
    }
    let max_requests = opt_u64(options, "max-requests", 0)?;
    let handle =
        pipefail::serve::serve(std::sync::Arc::new(ctx), &config).map_err(|e| e.to_string())?;
    println!("serving on http://{} (Ctrl-C to stop)", handle.addr());
    if max_requests > 0 {
        // Bounded mode (used by tests/CI): answer N requests, then exit.
        while handle.metrics().total() < max_requests {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        handle.shutdown();
        println!("served {max_requests} requests; shut down");
    } else {
        // Run until killed; the OS reclaims the socket on exit.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    Ok(())
}
