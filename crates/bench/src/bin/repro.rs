//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [flags]
//! repro all [flags]
//! repro list
//! repro cache-gc --cache-dir DIR [--max-entries N]
//!                  [--trace-store DIR [--max-trace-bytes N]]
//! repro serve [--addr HOST:PORT] [flags]
//!
//! flags:
//!   --quick             reduced-scale config (3 machines, short windows)
//!   --sampling <MODE>   exact (default) or simpoint: phase-sampled
//!                       simulation — clusters trace intervals and
//!                       simulates only representatives (approximate,
//!                       error-budgeted; see DESIGN.md §15)
//!   --jobs <N>          worker threads (default: available parallelism)
//!   --cache-dir <DIR>   persist measurements to an on-disk cache
//!   --trace-store <DIR> persist packed instruction traces at DIR and
//!                       replay them on later runs
//!   --stats             print engine statistics and the per-phase
//!                       wall-clock table to stderr when done
//!   --trace-out <FILE>  write the run's telemetry trace as JSONL
//!   --metrics-out <FILE> write counters/histograms in Prometheus text form
//!   --otlp-out <FILE>   write spans as an OTLP/JSON trace-export document
//!   --max-entries <N>   cache-gc: measurement entries to keep (default 1024)
//!   --max-trace-bytes <N>  cache-gc: byte budget for the --trace-store
//!                       store (default 268435456 = 256 MiB)
//!   --addr <HOST:PORT>  serve: bind address (default 127.0.0.1:7878)
//!   --workers <N>       serve: request worker threads
//!   --queue-cap <N>     serve: queued connections beyond busy workers
//!                       (past the cap requests get 503 + Retry-After)
//!   --request-timeout-ms <N>  serve: default per-run deadline
//! ```
//!
//! Unknown flags are rejected with exit code 2. Experiment reports go to
//! stdout and are bit-identical regardless of `--jobs` or cache state;
//! statistics, traces and metrics go to stderr or files so report output
//! stays diffable.

use std::process::ExitCode;
use std::sync::Arc;

use horizon_bench::serve::{self, ServeOptions, Server};
use horizon_bench::{find_experiment, run_experiment, ReproConfig, REGISTRY};
use horizon_core::campaign::SamplingPolicy;
use horizon_engine::{DiskCache, Engine, EngineStats, TraceStore};
use horizon_telemetry::Recorder;
use std::time::Duration;

struct Options {
    target: Option<String>,
    quick: bool,
    sampling: Option<SamplingPolicy>,
    jobs: Option<usize>,
    cache_dir: Option<String>,
    trace_store: Option<String>,
    max_trace_bytes: Option<u64>,
    stats: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    otlp_out: Option<String>,
    max_entries: Option<usize>,
    addr: Option<String>,
    workers: Option<usize>,
    queue_cap: Option<usize>,
    request_timeout_ms: Option<u64>,
}

enum ParseError {
    UnknownFlag(String),
    ExtraArgument(String),
    MissingValue(&'static str),
    BadValue(&'static str, String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownFlag(flag) => write!(f, "unknown flag '{flag}'"),
            ParseError::ExtraArgument(arg) => write!(f, "unexpected argument '{arg}'"),
            ParseError::MissingValue(flag) => write!(f, "flag '{flag}' expects a value"),
            ParseError::BadValue(flag, value) => {
                write!(f, "invalid value '{value}' for flag '{flag}'")
            }
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, ParseError> {
    let mut opts = Options {
        target: None,
        quick: false,
        sampling: None,
        jobs: None,
        cache_dir: None,
        trace_store: None,
        max_trace_bytes: None,
        stats: false,
        trace_out: None,
        metrics_out: None,
        otlp_out: None,
        max_entries: None,
        addr: None,
        workers: None,
        queue_cap: None,
        request_timeout_ms: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut value = |name: &'static str| {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or(ParseError::MissingValue(name))
        };
        match flag {
            "--quick" => opts.quick = true,
            "--sampling" => {
                let v = value("--sampling")?;
                opts.sampling = Some(match v.as_str() {
                    "exact" => SamplingPolicy::Exact,
                    "simpoint" => SamplingPolicy::simpoint_default(),
                    _ => return Err(ParseError::BadValue("--sampling", v)),
                });
            }
            "--stats" => opts.stats = true,
            "--jobs" => {
                let v = value("--jobs")?;
                let n = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(ParseError::BadValue("--jobs", v))?;
                opts.jobs = Some(n);
            }
            "--cache-dir" => opts.cache_dir = Some(value("--cache-dir")?),
            "--trace-store" => opts.trace_store = Some(value("--trace-store")?),
            "--max-trace-bytes" => {
                let v = value("--max-trace-bytes")?;
                let n = v
                    .parse::<u64>()
                    .ok()
                    .ok_or(ParseError::BadValue("--max-trace-bytes", v))?;
                opts.max_trace_bytes = Some(n);
            }
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
            "--otlp-out" => opts.otlp_out = Some(value("--otlp-out")?),
            "--max-entries" => {
                let v = value("--max-entries")?;
                let n = v
                    .parse::<usize>()
                    .ok()
                    .ok_or(ParseError::BadValue("--max-entries", v))?;
                opts.max_entries = Some(n);
            }
            "--addr" => opts.addr = Some(value("--addr")?),
            "--workers" => {
                let v = value("--workers")?;
                let n = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(ParseError::BadValue("--workers", v))?;
                opts.workers = Some(n);
            }
            "--queue-cap" => {
                let v = value("--queue-cap")?;
                let n = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(ParseError::BadValue("--queue-cap", v))?;
                opts.queue_cap = Some(n);
            }
            "--request-timeout-ms" => {
                let v = value("--request-timeout-ms")?;
                let n = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(ParseError::BadValue("--request-timeout-ms", v))?;
                opts.request_timeout_ms = Some(n);
            }
            other if other.starts_with("--") => {
                return Err(ParseError::UnknownFlag(other.to_string()));
            }
            positional => {
                if opts.target.is_some() {
                    return Err(ParseError::ExtraArgument(positional.to_string()));
                }
                opts.target = Some(positional.to_string());
            }
        }
    }
    Ok(opts)
}

/// Known non-experiment subcommands, for usage and error messages.
const SUBCOMMANDS: &str = "all, list, serve, cache-gc, help";

fn usage() {
    eprintln!(
        "usage: repro <experiment|all|list> [--quick] [--sampling exact|simpoint] \
         [--jobs N] [--cache-dir DIR] [--trace-store DIR] [--stats] \
         [--trace-out FILE] [--metrics-out FILE] [--otlp-out FILE]\n\
         \x20      repro cache-gc --cache-dir DIR [--max-entries N] \
         [--trace-store DIR [--max-trace-bytes N]]\n\
         \x20      repro serve [--addr HOST:PORT] [--workers N] [--queue-cap N] \
         [--request-timeout-ms N] [--jobs N] [--cache-dir DIR] [--trace-store DIR]"
    );
    eprintln!("subcommands: {SUBCOMMANDS}");
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    eprintln!("experiments: {}", ids.join(", "));
}

/// Prunes the on-disk cache down to `--max-entries` LRU entries, and the
/// `--trace-store` store (if named) down to `--max-trace-bytes`.
fn run_cache_gc(opts: &Options) -> u8 {
    let Some(dir) = &opts.cache_dir else {
        eprintln!("error: cache-gc requires --cache-dir");
        return 2;
    };
    let max_entries = opts.max_entries.unwrap_or(DiskCache::DEFAULT_MAX_ENTRIES);
    let cache = match DiskCache::open(dir) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("error: cannot open cache dir '{dir}': {e}");
            return 1;
        }
    };
    let mut report = match cache.gc(max_entries) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: cache gc failed for '{dir}': {e}");
            return 1;
        }
    };
    println!(
        "cache-gc: examined {} entries, removed {}, reclaimed {} bytes, retained {}",
        report.examined, report.removed, report.reclaimed_bytes, report.retained
    );
    if report.tmp_removed > 0 {
        println!(
            "cache-gc: pruned {} orphaned entry temp file(s)",
            report.tmp_removed
        );
    }

    if let Some(trace_dir) = &opts.trace_store {
        let store = match TraceStore::open(trace_dir) {
            Ok(store) => store,
            Err(e) => {
                eprintln!("error: cannot open trace store '{trace_dir}': {e}");
                return 1;
            }
        };
        let budget = opts
            .max_trace_bytes
            .unwrap_or(TraceStore::DEFAULT_MAX_BYTES);
        match store.gc(budget) {
            Ok(trace) => {
                report.absorb_trace(&trace);
                println!(
                    "cache-gc: examined {} traces, removed {}, reclaimed {} bytes, \
                     retained {} ({} bytes)",
                    report.trace_examined,
                    report.trace_removed,
                    report.trace_reclaimed_bytes,
                    report.trace_retained,
                    report.trace_retained_bytes
                );
                if report.trace_tmp_removed > 0 {
                    println!(
                        "cache-gc: pruned {} orphaned temp file(s), reclaimed {} bytes",
                        report.trace_tmp_removed, report.trace_tmp_reclaimed_bytes
                    );
                }
            }
            Err(e) => {
                eprintln!("error: trace gc failed for '{trace_dir}': {e}");
                return 1;
            }
        }
    }
    0
}

/// Runs the persistent daemon until SIGTERM/SIGINT, then drains.
fn run_serve(
    opts: &Options,
    engine: std::sync::Arc<Engine>,
    recorder: std::sync::Arc<Recorder>,
) -> u8 {
    let mut serve_opts = ServeOptions::default();
    if let Some(addr) = &opts.addr {
        serve_opts.addr = addr.clone();
    }
    if let Some(workers) = opts.workers {
        serve_opts.workers = workers;
    }
    if let Some(cap) = opts.queue_cap {
        serve_opts.queue_cap = cap;
    }
    if let Some(ms) = opts.request_timeout_ms {
        serve_opts.request_timeout = Duration::from_millis(ms);
    }
    let addr = serve_opts.addr.clone();
    let server = match Server::bind(serve_opts, engine, recorder, opts.jobs) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind '{addr}': {e}");
            return 1;
        }
    };
    // The ready line is load-bearing: smoke tests and scripts parse the
    // resolved (possibly ephemeral) port from it.
    eprintln!("repro-serve listening on http://{}", server.local_addr());
    match server.run() {
        Ok(()) => {
            eprintln!("repro-serve: drained in-flight work, shutting down cleanly");
            0
        }
        Err(e) => {
            eprintln!("error: serve: {e}");
            1
        }
    }
}

/// Writes a telemetry sink file, mapping failure to a stderr message.
fn write_sink(
    path: &str,
    label: &str,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> bool {
    let result = std::fs::File::create(path)
        .map(std::io::BufWriter::new)
        .and_then(|mut out| {
            write(&mut out)?;
            std::io::Write::flush(&mut out)
        });
    match result {
        Ok(()) => true,
        Err(e) => {
            eprintln!("error: cannot write {label} to '{path}': {e}");
            false
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("hint: run `repro help` for usage");
            return ExitCode::from(2);
        }
    };

    let mut cfg = if opts.quick {
        ReproConfig::quick()
    } else {
        ReproConfig::default()
    };
    if let Some(sampling) = opts.sampling {
        cfg.campaign.sampling = sampling;
    }
    if opts.max_trace_bytes.is_some() && opts.trace_store.is_none() {
        eprintln!("error: flag '--max-trace-bytes' requires '--trace-store'");
        return ExitCode::from(2);
    }

    // One recorder serves the whole process: installed globally (so the
    // simulator and analysis stages record into it) and shared with the
    // engine (so campaign/job spans and the derived stats join the same
    // trace). The daemon keeps no span records unless a trace sink asks
    // for them (see `serve::daemon_recorder`).
    let recorder = if opts.target.as_deref() == Some("serve")
        && opts.trace_out.is_none()
        && opts.otlp_out.is_none()
    {
        serve::daemon_recorder()
    } else {
        Recorder::new()
    };
    let recorder = Arc::new(recorder);
    horizon_telemetry::install(Arc::clone(&recorder));

    let mut engine = Engine::new().with_recorder(Arc::clone(&recorder));
    if let Some(jobs) = opts.jobs {
        engine = engine.with_jobs(jobs);
    }
    if let Some(dir) = &opts.cache_dir {
        engine = match engine.with_cache_dir(dir) {
            Ok(engine) => engine,
            Err(e) => {
                eprintln!("error: cannot open cache dir '{dir}': {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    // Only `--trace-store DIR` attaches a store. cache-gc manages the store
    // itself, so the engine skips attaching it there.
    if let Some(dir) = opts
        .trace_store
        .as_ref()
        .filter(|_| opts.target.as_deref() != Some("cache-gc"))
    {
        engine = match engine.with_trace_store(dir) {
            Ok(engine) => engine,
            Err(e) => {
                eprintln!("error: cannot open trace store '{dir}': {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    let engine = Arc::new(engine);
    Arc::clone(&engine).install();

    // Batch runs carry a telemetry run id: the JSONL trace's span and meta
    // `run` labels and the OTLP trace ids all attribute to it. Scoped on
    // the main thread; the engine re-enters it on its workers.
    let run_id = horizon_telemetry::next_run_id();
    let _run_scope = horizon_telemetry::RunScope::enter(run_id);

    let is_experiment_run = !matches!(
        opts.target.as_deref(),
        None | Some("help") | Some("serve") | Some("list") | Some("cache-gc")
    );
    if opts.sampling.is_some() && !is_experiment_run {
        eprintln!("error: flag '--sampling' only applies to experiment runs");
        return ExitCode::from(2);
    }

    // The serve-only flags are rejected elsewhere so typos fail loudly
    // instead of being silently ignored.
    if opts.target.as_deref() != Some("serve") {
        let misplaced: &[(&str, bool)] = &[
            ("--addr", opts.addr.is_some()),
            ("--workers", opts.workers.is_some()),
            ("--queue-cap", opts.queue_cap.is_some()),
            ("--request-timeout-ms", opts.request_timeout_ms.is_some()),
        ];
        if let Some((flag, _)) = misplaced.iter().find(|(_, set)| *set) {
            eprintln!("error: flag '{flag}' only applies to `repro serve`");
            return ExitCode::from(2);
        }
    }

    let mut code: u8 = match opts.target.as_deref() {
        None | Some("help") => {
            usage();
            2
        }
        Some("serve") => run_serve(&opts, Arc::clone(&engine), Arc::clone(&recorder)),
        Some("list") => {
            for e in REGISTRY {
                if e.aliases.is_empty() {
                    println!("{:<16} {}", e.id, e.summary);
                } else {
                    println!(
                        "{:<16} {}  (aliases: {})",
                        e.id,
                        e.summary,
                        e.aliases.join(", ")
                    );
                }
            }
            0
        }
        Some("cache-gc") => run_cache_gc(&opts),
        Some("all") => {
            let mut failed = false;
            for e in REGISTRY {
                match run_experiment(e, &cfg) {
                    Ok(report) => {
                        println!("==================== {} ====================", e.id);
                        println!("{report}");
                    }
                    Err(err) => {
                        eprintln!("error: {err}");
                        failed = true;
                        break;
                    }
                }
            }
            u8::from(failed)
        }
        Some(name) => match find_experiment(name) {
            Some(experiment) => match run_experiment(experiment, &cfg) {
                Ok(report) => {
                    println!("{report}");
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            },
            None => {
                eprintln!("error: unknown subcommand or experiment '{name}'");
                eprintln!("subcommands: {SUBCOMMANDS}");
                let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
                eprintln!("experiments: {}", ids.join(", "));
                2
            }
        },
    };

    let snapshot = recorder.snapshot();
    if opts.stats {
        eprintln!("{}", EngineStats::from_snapshot(&snapshot).summary());
        eprintln!("{}", snapshot.render_phase_table());
    }
    if let Some(path) = &opts.trace_out {
        let experiment = is_experiment_run.then(|| opts.target.clone()).flatten();
        if !write_sink(path, "trace", |out| {
            horizon_telemetry::write_trace_with_meta(&snapshot, run_id, experiment.as_deref(), out)
        }) && code == 0
        {
            code = 1;
        }
    }
    if let Some(path) = &opts.metrics_out {
        if !write_sink(path, "metrics", |out| {
            horizon_telemetry::write_prometheus(&snapshot, out)
        }) && code == 0
        {
            code = 1;
        }
    }
    if let Some(path) = &opts.otlp_out {
        if !write_sink(path, "otlp trace", |out| {
            horizon_telemetry::write_otlp(&snapshot, "horizon-repro", out)
        }) && code == 0
        {
            code = 1;
        }
    }
    ExitCode::from(code)
}
