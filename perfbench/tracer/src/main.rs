//! In-process traced run of one performance-ledger workload.
//!
//! `perfbench/run.py --trace 1` runs this after its untraced measurement.
//! It drives the same workload through the library instead of the `repro`
//! binary and records spans only here: around each [`run_experiment`]
//! call, around a delegating [`CampaignExecutor`] wrapped round the
//! [`Engine`], and around drains of the run's distinct instruction traces.
//! What the program already records at its layer boundaries (`sim.*`,
//! `simpoint.sample`, `stats.*`, `core.similarity`, `cluster.linkage`,
//! `engine.*`, `fleet.*`, `tracestore.*`) is read from the recorder
//! snapshot as a delta over the measured phase.
//!
//! ```text
//! perfbench-tracer --workload W --seconds S --work DIR --expected DIR
//!                  [--orders FILE]
//! ```
//!
//! Every experiment output is checked byte for byte against
//! `<expected>/<reference>/<id>`, the sections run.py split out of
//! `repro_output.txt` (`golden`) and the recorded references
//! (`quick_cold`, `sampled_replay`). The last stdout line
//! is one JSON object: `wall_s`, `warm_median_ms`, `attempted`, `failed`,
//! `reconcile` and the per-layer `metrics`.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use horizon_bench::serve::{ServeOptions, Server};
use horizon_bench::{run_experiment, ReproConfig, REGISTRY};
use horizon_core::campaign::{
    install_executor, Campaign, CampaignExecutor, CampaignResult, SamplingPolicy,
};
use horizon_engine::{Engine, TraceKey, TraceStore};
use horizon_simpoint::SimPointConfig;
use horizon_telemetry::{Recorder, SpanRecord, TelemetrySnapshot};
use horizon_trace::{TraceGenerator, WorkloadProfile};
use horizon_uarch::MachineConfig;

/// Engine workers, as `repro --jobs 2`.
const JOBS: usize = 2;
/// Client connections of `serve_warm`, and the daemon's connection workers.
const CONNECTIONS: usize = 2;
/// In-process warm runs per experiment; the median is reported.
const WARM_REPEATS: usize = 3;
/// The program's own analysis spans. Where they nest (`core.similarity`
/// encloses a PCA fit and a linkage), only the outermost counts.
const ANALYSIS_SPANS: [&str; 6] = [
    "core.similarity",
    "cluster.linkage",
    "stats.standardize",
    "stats.covariance",
    "stats.eigen",
    "stats.project",
];
/// `(engine.campaign_s + analysis spans) / wall_s` of the cold phase must
/// lie in this range. What it leaves unattributed is experiment code with
/// no span of its own (feature assembly, rendering) and the gaps between
/// experiments: 0.3–0.6% of the wall at the seed commit, on every workload.
/// Without the analysis spans the ratio falls to 0.89 on `full_cold` and
/// 0.97 on `quick_cold`.
const CRITICAL_PATH_TOLERANCE: (f64, f64) = (0.98, 1.0 + 1e-6);
/// Thread-summed `uarch` (or `simpoint`) time over
/// `campaign × workers × parallel_efficiency` must lie in this range: the
/// layer spans cover the simulation wall except fleet construction.
const SIM_COVERAGE_TOLERANCE: (f64, f64) = (0.80, 1.0 + 1e-6);

struct Args {
    workload: String,
    seconds: f64,
    work: PathBuf,
    expected: PathBuf,
    orders: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("flag '{flag}' expects a value"))?;
        map.insert(flag, value);
    }
    let mut take = |flag: &str| map.remove(flag).ok_or(format!("missing {flag}"));
    let args = Args {
        workload: take("--workload")?,
        seconds: take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        work: take("--work")?.into(),
        expected: take("--expected")?.into(),
        orders: take("--orders").ok().map(PathBuf::from),
    };
    match map.keys().next() {
        Some(extra) => Err(format!("unknown flag '{extra}'")),
        None => Ok(args),
    }
}

/// The trace-defining inputs of one distinct instruction stream.
struct TraceInput {
    profile: WorkloadProfile,
    seed: u64,
    window: u64,
}

/// A transparent executor round the engine: times every campaign call on
/// the caller's thread and remembers the distinct traces requested.
struct TimedEngine {
    engine: Arc<Engine>,
    nanos: AtomicU64,
    traces: Mutex<BTreeMap<TraceKey, TraceInput>>,
}

impl CampaignExecutor for TimedEngine {
    fn measure_profiles(
        &self,
        campaign: &Campaign,
        profiles: &[WorkloadProfile],
        machines: &[MachineConfig],
    ) -> CampaignResult {
        let window = campaign.warmup + campaign.instructions;
        {
            let mut traces = self.traces.lock().expect("trace set: no holder panics");
            for profile in profiles {
                traces
                    .entry(TraceKey::of(profile, campaign.seed, window))
                    .or_insert_with(|| TraceInput {
                        profile: profile.clone(),
                        seed: campaign.seed,
                        window,
                    });
            }
        }
        let _span = horizon_telemetry::span("perfbench.campaign");
        let start = Instant::now();
        let result = self.engine.measure_profiles(campaign, profiles, machines);
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

/// Wraps `engine` and installs the wrapper as the process executor.
fn install(engine: Engine) -> (Arc<Engine>, Arc<TimedEngine>) {
    let engine = Arc::new(engine);
    let timed = Arc::new(TimedEngine {
        engine: Arc::clone(&engine),
        nanos: AtomicU64::new(0),
        traces: Mutex::new(BTreeMap::new()),
    });
    install_executor(Arc::clone(&timed) as Arc<dyn CampaignExecutor>);
    (engine, timed)
}

/// Span wall totals, counters and campaign time at one instant.
#[derive(Clone, Default)]
struct Totals {
    spans: BTreeMap<&'static str, u64>,
    counters: BTreeMap<&'static str, u64>,
    campaign_nanos: u64,
    /// Wall of the outermost [`ANALYSIS_SPANS`].
    analysis_nanos: u64,
    /// Spans the recorder dropped past its cap; nonzero makes
    /// `analysis_nanos` an undercount.
    dropped_spans: u64,
}

impl Totals {
    fn take(recorder: &Recorder, timed: &TimedEngine) -> Totals {
        let snap: TelemetrySnapshot = recorder.snapshot();
        let by_id: BTreeMap<u64, &SpanRecord> = snap.spans.iter().map(|s| (s.id, s)).collect();
        let is_analysis = |s: &SpanRecord| ANALYSIS_SPANS.contains(&s.name);
        let outermost = |s: &SpanRecord| {
            let mut parent = s.parent;
            while let Some(p) = parent.and_then(|id| by_id.get(&id)) {
                if is_analysis(p) {
                    return false;
                }
                parent = p.parent;
            }
            true
        };
        Totals {
            spans: snap.span_wall.iter().map(|(&k, h)| (k, h.sum())).collect(),
            counters: snap.counters,
            campaign_nanos: timed.nanos.load(Ordering::Relaxed),
            analysis_nanos: snap
                .spans
                .iter()
                .filter(|s| is_analysis(s) && outermost(s))
                .map(|s| s.duration_nanos)
                .sum(),
            dropped_spans: snap.dropped_spans,
        }
    }

    /// What accumulated between `before` and `self`.
    fn since(&self, before: &Totals) -> Totals {
        let sub = |now: &BTreeMap<&'static str, u64>, then: &BTreeMap<&'static str, u64>| {
            now.iter()
                .map(|(&k, &v)| (k, v - then.get(k).copied().unwrap_or(0)))
                .collect()
        };
        Totals {
            spans: sub(&self.spans, &before.spans),
            counters: sub(&self.counters, &before.counters),
            campaign_nanos: self.campaign_nanos - before.campaign_nanos,
            analysis_nanos: self.analysis_nanos - before.analysis_nanos,
            dropped_spans: self.dropped_spans,
        }
    }

    fn span_s(&self, name: &str) -> f64 {
        self.spans.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn campaign_s(&self) -> f64 {
        self.campaign_nanos as f64 / 1e9
    }

    fn analysis_spans_s(&self) -> f64 {
        self.analysis_nanos as f64 / 1e9
    }

    /// Thread-summed simulation time charged to `uarch`, or to `simpoint`
    /// when sampled (its span encloses the sampled run's `sim.*` spans).
    fn layer_sum_s(&self) -> f64 {
        let sampled = self.span_s("simpoint.sample");
        if sampled > 0.0 {
            sampled
        } else {
            self.span_s("sim.prewarm") + self.span_s("sim.warmup") + self.span_s("sim.measure")
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The expected output of every experiment under one reference: the
/// report plus its trailing newline, as `repro <id>` prints it.
fn expected(dir: &Path, reference: &str) -> Result<BTreeMap<String, String>, String> {
    REGISTRY
        .iter()
        .map(|e| {
            let path = dir.join(reference).join(e.id);
            std::fs::read_to_string(&path)
                .map(|text| (e.id.to_string(), text))
                .map_err(|err| format!("{}: {err}", path.display()))
        })
        .collect()
}

/// Runs and checks experiments; counts what it attempted and what failed.
struct Checker {
    expected: BTreeMap<String, String>,
    attempted: usize,
    failed: usize,
}

impl Checker {
    fn check(&mut self, id: &str, output: Result<String, String>) {
        self.attempted += 1;
        let ok = match output {
            Ok(text) => self.expected.get(id) == Some(&text),
            Err(e) => {
                eprintln!("perfbench-tracer: {id}: {e}");
                false
            }
        };
        if !ok {
            eprintln!("perfbench-tracer: {id} differs from its reference section");
            self.failed += 1;
        }
    }

    /// One in-process run of experiment `index`, checked as `repro <id>`
    /// would print it.
    fn run(&mut self, index: usize, cfg: &ReproConfig) -> Duration {
        let experiment = &REGISTRY[index];
        let mut span = horizon_telemetry::span("perfbench.experiment");
        span.record("id", experiment.id);
        let start = Instant::now();
        let output = run_experiment(experiment, cfg)
            .map(|report| format!("{report}\n"))
            .map_err(|e| e.to_string());
        let wall = start.elapsed();
        drop(span);
        self.check(experiment.id, output);
        wall
    }

    /// Every experiment once, cold: per-experiment seconds and the wall.
    fn cold_pass(&mut self, cfg: &ReproConfig) -> (Vec<f64>, f64) {
        let start = Instant::now();
        let per = (0..REGISTRY.len())
            .map(|i| self.run(i, cfg).as_secs_f64())
            .collect();
        (per, start.elapsed().as_secs_f64())
    }

    /// Median warm milliseconds per experiment (memo already filled).
    fn warm_pass(&mut self, cfg: &ReproConfig) -> Vec<f64> {
        (0..REGISTRY.len())
            .map(|i| {
                let mut ms: Vec<f64> = (0..WARM_REPEATS)
                    .map(|_| self.run(i, cfg).as_secs_f64() * 1e3)
                    .collect();
                median(&mut ms)
            })
            .collect()
    }
}

/// Drains the generator for every distinct trace: (seconds, instructions).
fn drain_generation(timed: &TimedEngine) -> (f64, u64) {
    let traces = timed.traces.lock().expect("trace set: no holder panics");
    let mut span = horizon_telemetry::span("perfbench.trace_generate");
    let start = Instant::now();
    let mut instructions = 0u64;
    for t in traces.values() {
        instructions += TraceGenerator::new(&t.profile, t.seed)
            .take(t.window as usize)
            .map(std::hint::black_box)
            .count() as u64;
    }
    span.record("traces", traces.len());
    (start.elapsed().as_secs_f64(), instructions)
}

/// Loads and replays every distinct trace from `store`:
/// (seconds, instructions, packed bytes).
fn drain_store(timed: &TimedEngine, store: &TraceStore) -> Result<(f64, u64, u64), String> {
    let traces = timed.traces.lock().expect("trace set: no holder panics");
    let _span = horizon_telemetry::span("perfbench.trace_decode");
    let start = Instant::now();
    let (mut instructions, mut bytes) = (0u64, 0u64);
    for key in traces.keys() {
        let reader = store
            .load(key)
            .ok_or(format!("trace {} missing from the store", key.as_str()))?;
        instructions += reader.iter().map(std::hint::black_box).count() as u64;
        bytes += reader.packed_bytes();
    }
    Ok((start.elapsed().as_secs_f64(), instructions, bytes))
}

/// A keep-alive HTTP/1.1 client for `POST /run/{id}?format=text`.
struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    fn post(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        let request =
            format!("POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\n\r\n");
        conn.get_mut().write_all(request.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        conn.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let (mut length, mut close) = (None, false);
        loop {
            line.clear();
            conn.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                match name.to_ascii_lowercase().as_str() {
                    "content-length" => length = value.trim().parse::<usize>().ok(),
                    "connection" => close = value.trim().eq_ignore_ascii_case("close"),
                    _ => {}
                }
            }
        }
        let mut body = vec![0u8; length.ok_or_else(|| bad("no Content-Length"))?];
        conn.read_exact(&mut body)?;
        if close {
            self.conn = None;
        }
        Ok((
            status,
            String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?,
        ))
    }
}

/// Closed-loop sweeps over the daemon for `seconds`: every sweep requests
/// each experiment once, in the order of the next line of `orders`, over
/// `CONNECTIONS` keep-alive connections. Returns the sweep walls in seconds.
fn sweeps(
    addr: SocketAddr,
    orders: &[Vec<String>],
    seconds: f64,
    checker: &Mutex<Checker>,
) -> Vec<f64> {
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client { addr, conn: None })
        .collect();
    let mut walls = Vec::new();
    let begin = Instant::now();
    while walls.is_empty() || begin.elapsed().as_secs_f64() < seconds {
        let queue: Mutex<VecDeque<&str>> = Mutex::new(
            orders[walls.len() % orders.len()]
                .iter()
                .map(String::as_str)
                .collect(),
        );
        let start = Instant::now();
        std::thread::scope(|scope| {
            for client in clients.iter_mut() {
                let queue = &queue;
                scope.spawn(move || loop {
                    let Some(id) = queue.lock().expect("queue: no holder panics").pop_front()
                    else {
                        return;
                    };
                    let output = match client.post(&format!("/run/{id}?format=text")) {
                        Ok((200, body)) => Ok(body),
                        Ok((status, _)) => Err(format!("HTTP {status}")),
                        Err(e) => {
                            client.conn = None;
                            Err(e.to_string())
                        }
                    };
                    checker
                        .lock()
                        .expect("checker: no holder panics")
                        .check(id, output);
                });
            }
        });
        walls.push(start.elapsed().as_secs_f64());
    }
    walls
}

/// What one workload's traced run measured.
struct Traced {
    /// The measured phase (timed runs, or the warm HTTP phase).
    phase: Totals,
    /// The set-up phase (store write), if the workload has one.
    setup: Totals,
    /// The phase that simulated cold, for the reconciliation.
    cold: Totals,
    cold_wall_s: f64,
    cold_experiment_s: Vec<f64>,
    warm_ms: Vec<f64>,
    wall_s: f64,
    generate: (f64, u64),
    decode: (f64, u64, u64),
    window: f64,
    checker: Checker,
}

fn sampled(mut cfg: ReproConfig) -> ReproConfig {
    cfg.campaign.sampling = SamplingPolicy::SimPoint {
        interval: SimPointConfig::DEFAULT_INTERVAL,
        max_phases: SimPointConfig::DEFAULT_MAX_PHASES,
    };
    cfg
}

fn run(args: &Args) -> Result<Traced, String> {
    let recorder = Arc::new(Recorder::new());
    horizon_telemetry::install(Arc::clone(&recorder));
    let engine = || {
        Engine::new()
            .with_recorder(Arc::clone(&recorder))
            .with_jobs(JOBS)
    };
    let reference = |name: &str| expected(&args.expected, name);
    let checker = |expected| Checker {
        expected,
        attempted: 0,
        failed: 0,
    };

    match args.workload.as_str() {
        "full_cold" | "quick_cold" => {
            let (cfg, mut checker) = if args.workload == "full_cold" {
                (ReproConfig::default(), checker(reference("golden")?))
            } else {
                (ReproConfig::quick(), checker(reference("quick_cold")?))
            };
            let (_, timed) = install(engine());
            let before = Totals::take(&recorder, &timed);
            let (cold_experiment_s, cold_wall_s) = checker.cold_pass(&cfg);
            let phase = Totals::take(&recorder, &timed).since(&before);
            let warm_ms = checker.warm_pass(&cfg);
            Ok(Traced {
                cold: phase.clone(),
                phase,
                setup: Totals::default(),
                cold_wall_s,
                cold_experiment_s,
                warm_ms,
                wall_s: cold_wall_s,
                generate: drain_generation(&timed),
                decode: (0.0, 0, 0),
                window: (cfg.campaign.warmup + cfg.campaign.instructions) as f64,
                checker,
            })
        }
        "sampled_replay" => {
            let store_dir = args.work.join("store");
            let with_store = |e: Engine| e.with_trace_store(&store_dir).map_err(|e| e.to_string());
            let mut exact = checker(reference("golden")?);
            let (_, writer) = install(with_store(engine())?);
            let before = Totals::take(&recorder, &writer);
            exact.cold_pass(&ReproConfig::default());
            let setup = Totals::take(&recorder, &writer).since(&before);

            let cfg = sampled(ReproConfig::default());
            let mut checker = checker(reference("sampled_replay")?);
            let (engine, timed) = install(with_store(engine())?);
            let before = Totals::take(&recorder, &timed);
            let (cold_experiment_s, cold_wall_s) = checker.cold_pass(&cfg);
            let phase = Totals::take(&recorder, &timed).since(&before);
            let warm_ms = checker.warm_pass(&cfg);
            checker.attempted += exact.attempted;
            checker.failed += exact.failed;
            let store = engine.trace_store().ok_or("engine lost its trace store")?;
            Ok(Traced {
                cold: phase.clone(),
                phase,
                setup,
                cold_wall_s,
                cold_experiment_s,
                warm_ms,
                wall_s: cold_wall_s,
                // Every trace of the measured phase came from the store.
                generate: (0.0, 0),
                decode: drain_store(&timed, store)?,
                window: (cfg.campaign.warmup + cfg.campaign.instructions) as f64,
                checker,
            })
        }
        "serve_warm" => {
            let orders: Vec<Vec<String>> = {
                let path = args.orders.as_ref().ok_or("serve_warm needs --orders")?;
                std::fs::read_to_string(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?
                    .lines()
                    .map(|l| l.split_whitespace().map(String::from).collect())
                    .collect()
            };
            if orders.is_empty() {
                return Err("--orders is empty".into());
            }
            let cfg = ReproConfig::default();
            let (engine, timed) = install(engine());
            let server = Server::bind(
                ServeOptions {
                    addr: "127.0.0.1:0".into(),
                    workers: CONNECTIONS,
                    ..ServeOptions::default()
                },
                engine,
                Arc::clone(&recorder),
                Some(JOBS),
            )
            .map_err(|e| format!("bind: {e}"))?;
            let addr = server.local_addr();
            let stop = server.shutdown_handle();
            let daemon = std::thread::spawn(move || server.run());

            // Set-up: the cold pass fills the shared memo.
            let mut checker = checker(reference("golden")?);
            let before = Totals::take(&recorder, &timed);
            let (cold_experiment_s, cold_wall_s) = checker.cold_pass(&cfg);
            let cold = Totals::take(&recorder, &timed).since(&before);

            let before = Totals::take(&recorder, &timed);
            let shared = Mutex::new(checker);
            let mut walls = sweeps(addr, &orders, args.seconds, &shared);
            let phase = Totals::take(&recorder, &timed).since(&before);
            let mut checker = shared.into_inner().expect("checker: no holder panics");
            let warm_ms = checker.warm_pass(&cfg);

            stop.store(true, Ordering::SeqCst);
            daemon
                .join()
                .map_err(|_| "daemon thread panicked")?
                .map_err(|e| format!("serve: {e}"))?;
            Ok(Traced {
                phase,
                setup: Totals::default(),
                cold,
                cold_wall_s,
                cold_experiment_s,
                warm_ms,
                wall_s: median(&mut walls),
                // The measured phase hits the memo and generates nothing.
                generate: (0.0, 0),
                decode: (0.0, 0, 0),
                window: (cfg.campaign.warmup + cfg.campaign.instructions) as f64,
                checker,
            })
        }
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// The per-layer metrics, by name, with their units.
fn metrics(t: &Traced) -> Vec<(String, f64, &'static str)> {
    let p = &t.phase;
    let measure_s = p.span_s("sim.measure");
    let sample_s = p.span_s("simpoint.sample");
    let campaign_s = p.campaign_s();
    let (generate_s, generated) = t.generate;
    let (decode_s, decoded, packed) = t.decode;
    let hits = p.counter("tracestore.hits");
    let mut out: Vec<(String, f64, &'static str)> = vec![
        ("uarch.prewarm_s".into(), p.span_s("sim.prewarm"), "s"),
        ("uarch.warmup_s".into(), p.span_s("sim.warmup"), "s"),
        ("uarch.measure_s".into(), measure_s, "s"),
        (
            "uarch.measure_minst_per_s".into(),
            ratio(p.counter("sim.instructions") / 1e6, measure_s),
            "Minst/s",
        ),
        (
            "uarch.lane_groups_per_machine".into(),
            ratio(
                p.counter("fleet.lane_groups"),
                p.counter("fleet.laned_machines"),
            ),
            "count",
        ),
        ("trace.generate_s".into(), generate_s, "s"),
        (
            "trace.generate_minst_per_s".into(),
            ratio(generated as f64 / 1e6, generate_s),
            "Minst/s",
        ),
        ("tracestore.decode_s".into(), decode_s, "s"),
        (
            "tracestore.decode_minst_per_s".into(),
            ratio(decoded as f64 / 1e6, decode_s),
            "Minst/s",
        ),
        (
            "tracestore.hit_ratio".into(),
            ratio(hits, hits + p.counter("tracestore.misses")),
            "ratio",
        ),
        (
            "tracestore.bytes_per_inst".into(),
            ratio(packed as f64, decoded as f64),
            "B/inst",
        ),
        (
            "tracestore.bytes_written".into(),
            t.setup.counter("tracestore.bytes_written"),
            "B",
        ),
        ("simpoint.sample_s".into(), sample_s, "s"),
        (
            "simpoint.fastforward_s".into(),
            if sample_s > 0.0 {
                sample_s - p.span_s("sim.prewarm") - measure_s
            } else {
                0.0
            },
            "s",
        ),
        (
            "simpoint.detail_ratio".into(),
            ratio(
                p.counter("simpoint.sampled_instructions"),
                p.counter("simpoint.runs") * t.window,
            ),
            "ratio",
        ),
        ("engine.campaign_s".into(), campaign_s, "s"),
        ("engine.expand_s".into(), p.span_s("engine.expand"), "s"),
        ("engine.probe_s".into(), p.span_s("engine.probe"), "s"),
        (
            "engine.memo_hit_ratio".into(),
            ratio(
                p.counter("engine.memo_hits"),
                p.counter("engine.unique_jobs"),
            ),
            "ratio",
        ),
        (
            "engine.simulated_jobs".into(),
            p.counter("engine.simulated_jobs"),
            "count",
        ),
        (
            "engine.fleet_batches".into(),
            p.counter("engine.fleet_batches"),
            "count",
        ),
        (
            "engine.parallel_efficiency".into(),
            parallel_efficiency(p),
            "ratio",
        ),
        ("stats.eigen_s".into(), p.span_s("stats.eigen"), "s"),
        (
            "stats.covariance_s".into(),
            p.span_s("stats.covariance"),
            "s",
        ),
        (
            "core.analysis_s".into(),
            p.span_s("experiment") - campaign_s,
            "s",
        ),
        ("core.similarity_s".into(), p.span_s("core.similarity"), "s"),
        ("cluster.linkage_s".into(), p.span_s("cluster.linkage"), "s"),
    ];
    for (i, e) in REGISTRY.iter().enumerate() {
        let id = e.id.replace('+', "_");
        out.push((
            format!("bench.experiment_s.{id}"),
            t.cold_experiment_s[i],
            "s",
        ));
        out.push((format!("bench.warm_experiment_ms.{id}"), t.warm_ms[i], "ms"));
    }
    out
}

/// Thread-summed simulation wall over (campaign time × workers).
fn parallel_efficiency(p: &Totals) -> f64 {
    ratio(
        p.counter("engine.simulation_wall_nanos") / 1e9,
        p.campaign_s() * JOBS as f64,
    )
}

fn reconcile(t: &Traced) -> (String, bool) {
    let c = &t.cold;
    let campaign_s = c.campaign_s();
    let analysis_s = c.analysis_spans_s();
    let unattributed_s = t.cold_wall_s - campaign_s - analysis_s;
    let critical = ratio(campaign_s + analysis_s, t.cold_wall_s);
    let efficiency = parallel_efficiency(c);
    let sim_wall_s = campaign_s * JOBS as f64 * efficiency;
    let coverage = ratio(c.layer_sum_s(), sim_wall_s);
    let within = |x: f64, (lo, hi): (f64, f64)| (lo..=hi).contains(&x);
    if c.dropped_spans > 0 {
        eprintln!(
            "perfbench-tracer: the recorder dropped {} spans; analysis time is undercounted",
            c.dropped_spans
        );
    }
    let holds = c.dropped_spans == 0
        && within(critical, CRITICAL_PATH_TOLERANCE)
        && (sim_wall_s == 0.0 || within(coverage, SIM_COVERAGE_TOLERANCE));
    let json = format!(
        "{{\"campaign_s\": {campaign_s}, \"analysis_spans_s\": {analysis_s}, \"wall_s\": {}, \
         \"unattributed_s\": {unattributed_s}, \
         \"critical_path_ratio\": {critical}, \"critical_path_tolerance\": [{}, {}], \
         \"layer_sum_s\": {}, \"workers\": {JOBS}, \"parallel_efficiency\": {efficiency}, \
         \"sim_wall_s\": {sim_wall_s}, \"sim_coverage_ratio\": {coverage}, \
         \"sim_coverage_tolerance\": [{}, {}], \"holds\": {holds}}}",
        t.cold_wall_s,
        CRITICAL_PATH_TOLERANCE.0,
        CRITICAL_PATH_TOLERANCE.1,
        c.layer_sum_s(),
        SIM_COVERAGE_TOLERANCE.0,
        SIM_COVERAGE_TOLERANCE.1,
    );
    (json, holds)
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let traced = match run(&args) {
        Ok(traced) => traced,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let metrics: Vec<String> = metrics(&traced)
        .into_iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let (reconcile, _) = reconcile(&traced);
    let mut warm = traced.warm_ms.clone();
    println!(
        "{{\"wall_s\": {}, \"warm_median_ms\": {}, \"attempted\": {}, \"failed\": {}, \
         \"reconcile\": {reconcile}, \"metrics\": {{{}}}}}",
        traced.wall_s,
        median(&mut warm),
        traced.checker.attempted,
        traced.checker.failed,
        metrics.join(", ")
    );
    std::process::ExitCode::SUCCESS
}
