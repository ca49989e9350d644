//! `repro serve` — a persistent characterization daemon.
//!
//! Batch mode pays the full simulation bill on every invocation; the
//! daemon keeps one warm [`Engine`] (memo table + optional disk cache) and
//! one global [`Recorder`] alive across requests, so repeated
//! characterization queries are served from cache at interactive latency —
//! characterization-as-a-service over the experiment [`REGISTRY`].
//!
//! # Endpoints
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness + warm-cache size |
//! | `GET /experiments` | the experiment registry as JSON |
//! | `POST /run/{experiment}[?format=json\|text]` | run one experiment; JSON body for `quick`/`seed`/`sampling`/`jobs`/`deadline_ms` options |
//! | `GET /metrics` | live Prometheus text exposition of the shared recorder |
//! | `POST /cache/gc` | LRU-prune the on-disk cache and trace store ([`horizon_engine::GcReport`] JSON; `max_entries` / `max_trace_bytes` body options) |
//!
//! # Reports
//!
//! The default `POST /run` response carries a **schema-versioned
//! structured report** ([`horizon_core::report_v1::ReportV1`]) under
//! `report`: tables, subsets, error statistics and notes parsed from the
//! rendered text, plus engine cache-effectiveness deltas alongside.
//! `?format=text` instead returns `text/plain` **byte-identical** to the
//! experiment's batch `repro <experiment>` stdout (report text plus
//! trailing newline): both paths call [`crate::run_experiment`] with the same
//! [`ReproConfig`], engine results are bit-identical regardless of worker
//! count or cache state, and the structured view is *derived from* that
//! same text, so the two formats can never disagree. `format` is the only
//! query parameter; any other one is rejected with a `400` naming it, as
//! unknown body options are.
//!
//! # Run scheduling
//!
//! Connection workers never execute experiments; they submit to the
//! crate-private `sched` run scheduler and wait under the request's
//! deadline.
//! Identical in-flight requests (same experiment + campaign options)
//! coalesce onto a single execution whose result answers every waiter —
//! counted by `serve.coalesced_runs` — while distinct runs queue, in
//! arrival order, to a dedicated run-worker pool of the same size as the
//! connection pool (`serve.active_runs` gauges the executing ones).
//!
//! # Robustness
//!
//! * **Keep-alive, bounded** — connections are reused per HTTP/1.1
//!   semantics (`Connection: close` honored, HTTP/1.0 opt-in), but each
//!   is bounded by `max_requests_per_connection` and an `idle_timeout`
//!   between requests, so no client can pin a worker forever.
//! * **Bounded worker pool** — `workers` threads consume accepted
//!   connections from a queue capped at `queue_cap`; past the cap the
//!   accept loop answers `503` with `Retry-After` *inline*, so saturation
//!   never kills in-flight work and never blocks the accept thread on a
//!   slow handler.
//! * **Deadlines** — socket reads/writes carry an I/O timeout; each
//!   request waits for its run under a per-request deadline
//!   (`deadline_ms` in the body, else the server default). A waiter that
//!   overshoots answers `504` and detaches cleanly: the run finishes on
//!   the scheduler, co-waiters on the same run still get their results,
//!   and the shared engine cache stays warm so a retry is cheap.
//! * **Hardened parsing** — see [`crate::http`]: malformed requests map to
//!   4xx responses, never a panic; a panicking handler poisons nothing
//!   because workers catch unwinds and answer `500` (a panicking *run* is
//!   caught on the run worker and answered as a clean `500` to every
//!   waiter).
//! * **Graceful shutdown** — `SIGTERM`/`SIGINT` (or
//!   [`Server::shutdown_handle`]) stop the accept loop, drain queued and
//!   in-flight requests (connection pool first, so waiters can still be
//!   answered by live run workers), then drain the run scheduler up to
//!   the drain deadline, and return so the caller can flush telemetry
//!   sinks and exit 0.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use horizon_core::campaign::SamplingPolicy;
use horizon_core::report_v1::ReportV1;
use horizon_engine::{DiskCache, Engine, TraceStore};
use horizon_telemetry::Recorder;

use serde::Value;

use crate::http::{read_request, HttpError, Limits, Request, Response};
use crate::sched::{Pool, RunKey, RunOutput, RunScheduler, Saturated};
use crate::{find_experiment, Experiment, ReproConfig, REGISTRY};

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// `HOST:PORT` to bind (port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Maximum connections queued beyond the busy workers; excess gets an
    /// inline `503` + `Retry-After`.
    pub queue_cap: usize,
    /// Default per-run deadline (a request body's `deadline_ms` overrides
    /// it); overshooting runs answer `504` and detach.
    pub request_timeout: Duration,
    /// Socket read/write timeout for request parsing and response writes.
    pub io_timeout: Duration,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Requests served over one connection before the server closes it
    /// (the last response says `Connection: close`); bounds how long a
    /// single client can monopolize a worker.
    pub max_requests_per_connection: usize,
    /// How long shutdown waits for detached (timed-out) runs to finish.
    pub drain_timeout: Duration,
    /// Request parsing limits.
    pub limits: Limits,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7878".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .clamp(2, 8),
            queue_cap: 64,
            request_timeout: Duration::from_secs(600),
            io_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 100,
            drain_timeout: Duration::from_secs(30),
            limits: Limits::default(),
        }
    }
}

/// Unix signal plumbing: a handler that flips one atomic flag, the only
/// async-signal-safe thing worth doing. The accept loop polls the flag.
#[cfg(unix)]
mod signal {
    #![allow(unsafe_code)]

    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Routes `SIGTERM` and `SIGINT` into the shutdown flag.
    pub fn install() {
        // SAFETY: `signal` is installed with a handler that only performs
        // an atomic store, which is async-signal-safe; the handler pointer
        // outlives the process.
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }

    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signal {
    /// Non-unix builds have no signal-driven shutdown; use
    /// [`super::Server::shutdown_handle`].
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}

/// Listener readiness: the accept loop blocks in `poll(2)` until a
/// connection is pending, so a new connection is accepted at once, while
/// the timeout still lets the loop observe the shutdown flags.
#[cfg(unix)]
mod readiness {
    #![allow(unsafe_code)]

    use std::net::TcpListener;
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x1;

    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    /// Waits up to `timeout` for `listener` to have a connection to
    /// accept. False on timeout, on a signal (`EINTR`) and on error; the
    /// caller re-checks its shutdown flags and tries again.
    pub fn wait(listener: &TcpListener, timeout: Duration) -> bool {
        let mut fd = PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let millis = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: `fd` is one live, exclusively borrowed `pollfd` for the
        // duration of the call, and `nfds` is 1; `poll` writes only its
        // `revents` field.
        let ready = unsafe { poll(&mut fd, 1, millis) };
        ready > 0 && fd.revents & POLLIN != 0
    }
}

#[cfg(not(unix))]
mod readiness {
    use std::net::TcpListener;
    use std::time::Duration;

    /// Non-unix builds have no `poll(2)` binding: nap, then try to accept.
    pub fn wait(_listener: &TcpListener, timeout: Duration) -> bool {
        std::thread::sleep(timeout);
        true
    }
}

/// The recorder `repro serve` runs with: counters, gauges, histograms
/// and `/metrics` as usual, but no span records. Nothing reads a span
/// record back from a daemon that writes no trace, and keeping one per
/// request grows the process for as long as it serves; per-name span
/// wall histograms and the `horizon_dropped_spans` count still see every
/// span.
pub fn daemon_recorder() -> Recorder {
    Recorder::new().with_span_capacity(0)
}

/// State shared between the accept loop, connection workers and the run
/// scheduler.
struct ServerState {
    engine: Arc<Engine>,
    recorder: Arc<Recorder>,
    opts: ServeOptions,
    started: Instant,
    /// Executes and coalesces `POST /run` requests; shutdown drains it
    /// after the connection pool.
    sched: RunScheduler,
    /// Connections accepted but not yet claimed by a worker — gauged in
    /// `/healthz` and `/metrics` so saturation is visible before 503s.
    queue_depth: AtomicUsize,
}

/// The daemon: a bound listener plus its worker pool. Construct with
/// [`Server::bind`], then [`Server::run`] until shutdown.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    pool: Pool<TcpStream>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener and spawns the worker pool. `engine` and
    /// `recorder` are the long-lived shared instances — the same engine
    /// memo serves every request, which is the point of daemon mode.
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, bad syntax).
    pub fn bind(
        opts: ServeOptions,
        engine: Arc<Engine>,
        recorder: Arc<Recorder>,
        default_jobs: Option<usize>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let sched = RunScheduler::new(
            opts.workers,
            Arc::clone(&engine),
            Arc::clone(&recorder),
            default_jobs,
        );
        let state = Arc::new(ServerState {
            engine,
            recorder,
            opts,
            started: Instant::now(),
            sched,
            queue_depth: AtomicUsize::new(0),
        });
        let handler_state = Arc::clone(&state);
        let pool = Pool::new(
            state.opts.workers,
            state.opts.queue_cap,
            move |stream: TcpStream| {
                // Claimed: the connection leaves the accept queue now.
                handler_state.queue_depth.fetch_sub(1, Ordering::SeqCst);
                handle_connection(&handler_state, stream)
            },
        );
        Ok(Server {
            listener,
            local_addr,
            state,
            pool,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A flag that stops the accept loop when set — the programmatic
    /// equivalent of `SIGTERM`, used by tests and embedders.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Installs `SIGTERM`/`SIGINT` handlers and serves until one fires (or
    /// the [`Server::shutdown_handle`] flag is set), then drains: queued
    /// and in-flight requests complete, the run scheduler gets up to the
    /// drain timeout, and the method returns `Ok(())` for a clean exit.
    ///
    /// # Errors
    ///
    /// Returns an I/O error only for unrecoverable listener failures;
    /// per-connection errors are answered with 4xx/5xx responses instead.
    pub fn run(self) -> std::io::Result<()> {
        signal::install();
        // Bounds how long a shutdown request waits to be noticed.
        let poll = Duration::from_millis(25);
        while !(self.shutdown.load(Ordering::SeqCst) || signal::requested()) {
            if !readiness::wait(&self.listener, poll) {
                continue;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Responses leave in one write; never hold it back
                    // waiting for an ACK.
                    let _ = stream.set_nodelay(true);
                    self.dispatch(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                // Transient accept failures (e.g. EMFILE, aborted
                // handshakes) must not kill the daemon.
                Err(_) => std::thread::sleep(poll),
            }
        }
        // Stop accepting, then drain. Connection pool first: its workers
        // may be waiting on run slots, and the run workers (still alive
        // here) are what answer them.
        drop(self.listener);
        self.pool.shutdown();
        self.state.sched.shutdown(self.state.opts.drain_timeout);
        Ok(())
    }

    /// Hands an accepted connection to the pool, or answers `503` inline
    /// when saturated (cheap enough for the accept thread: one small
    /// write under a write timeout).
    fn dispatch(&self, stream: TcpStream) {
        // Count before the push: a worker can claim (and decrement) the
        // instant the item lands, so incrementing afterwards could strand
        // the gauge above zero forever.
        self.state.queue_depth.fetch_add(1, Ordering::SeqCst);
        if let Err(Saturated(stream)) = self.pool.try_submit(stream) {
            self.state.queue_depth.fetch_sub(1, Ordering::SeqCst);
            reject_saturated(&self.state, stream);
        }
    }
}

/// Serves one connection: parse, route, respond — repeatedly, while the
/// client keeps the connection alive — recording telemetry per request.
/// The loop ends when the client asks to close (or is HTTP/1.0), the
/// per-connection request cap is reached, an error is answered, the idle
/// timeout expires between requests, or a response write fails.
fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    let rec = &state.recorder;
    let _ = stream.set_write_timeout(Some(state.opts.io_timeout));
    let mut reader = BufReader::new(stream);
    let cap = state.opts.max_requests_per_connection.max(1);
    let mut served = 0usize;

    while served < cap {
        // The first request gets the normal I/O timeout; once kept alive,
        // the connection may wait only the idle timeout for the next one.
        let wait = if served == 0 {
            state.opts.io_timeout
        } else {
            state.opts.idle_timeout
        };
        let _ = reader.get_ref().set_read_timeout(Some(wait));
        let started = Instant::now();
        let parsed = read_request(&mut reader, &state.opts.limits);
        if let Err(e) = &parsed {
            if served > 0 && e.is_idle_disconnect() {
                // The client finished with the connection; nothing to
                // answer and nothing abnormal to count.
                break;
            }
        }
        rec.counter_add("serve.requests", 1);
        if served > 0 {
            rec.counter_add("serve.keepalive_reuses", 1);
        }
        let mut span = rec.span("serve.request");
        let mut label: &'static str = "unparsed";
        let (response, keep) = match parsed {
            Ok(request) => {
                span.record("method", request.method.as_str());
                span.record("path", request.path.as_str());
                label = route_label(&request);
                let keep = request.keep_alive && served + 1 < cap;
                (route(state, &request), keep)
            }
            Err(e) => {
                rec.counter_add("serve.bad_requests", 1);
                span.record("path", "<unparsed>");
                // A connection that produced garbage is not worth reusing.
                (Response::error(e.status, &e.message), false)
            }
        };
        span.record("status", u64::from(response.status));
        match response.status / 100 {
            2 => rec.counter_add("serve.http_2xx", 1),
            4 => rec.counter_add("serve.http_4xx", 1),
            _ => rec.counter_add("serve.http_5xx", 1),
        }
        rec.histogram_record("serve.request_wall_ns", started.elapsed().as_nanos() as u64);
        rec.histogram_record_labeled(
            "serve.request_wall_ms",
            "route",
            label,
            started.elapsed().as_millis() as u64,
        );
        rec.gauge_set(
            "serve.queue_depth",
            state.queue_depth.load(Ordering::SeqCst) as i64,
        );
        if response.write_to(reader.get_mut(), keep).is_err() {
            rec.counter_add("serve.write_failures", 1);
            break;
        }
        if !keep {
            break;
        }
        served += 1;
    }
}

/// Writes the saturation response on the accept thread.
fn reject_saturated(state: &ServerState, mut stream: TcpStream) {
    state.recorder.counter_add("serve.saturated", 1);
    state.recorder.counter_add("serve.http_5xx", 1);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = Response::error(503, "request queue is full")
        .with_header("Retry-After", "1")
        .write_to(&mut stream, false);
    // Drain whatever request bytes the client already sent before closing.
    // Closing with unread input makes the kernel answer with RST, which can
    // discard the 503 before the client reads it.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Static route label for the `serve.request_wall_ms{route=…}` histogram
/// family — one series per endpoint, never per path (unbounded label
/// cardinality is how metrics stores die).
fn route_label(request: &Request) -> &'static str {
    let path = request.path.split('?').next().unwrap_or("");
    match path {
        "/healthz" => "healthz",
        "/experiments" => "experiments",
        "/metrics" => "metrics",
        "/cache/gc" => "cache_gc",
        _ if path.starts_with("/run/") => "run",
        _ => "other",
    }
}

/// Routes a parsed request to its endpoint handler.
fn route(state: &Arc<ServerState>, request: &Request) -> Response {
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/experiments") => experiments(),
        ("GET", "/metrics") => Response::text(200, state.recorder.prometheus_text()),
        ("POST", "/cache/gc") => cache_gc(state, request),
        ("POST", run_path) if run_path.starts_with("/run/") => {
            run(state, &run_path["/run/".len()..], request)
        }
        (_, "/healthz" | "/experiments" | "/metrics") => {
            Response::error(405, "method not allowed").with_header("Allow", "GET")
        }
        (_, "/cache/gc") => Response::error(405, "method not allowed").with_header("Allow", "POST"),
        (_, run_path) if run_path.starts_with("/run/") => {
            Response::error(405, "method not allowed").with_header("Allow", "POST")
        }
        _ => Response::error(404, &format!("no such endpoint '{path}'")),
    }
}

fn json_str(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn json_num(n: impl std::fmt::Display) -> Value {
    Value::Num(n.to_string())
}

fn to_json(value: &Value) -> String {
    serde_json::to_string(value).expect("value tree serializes")
}

/// `GET /healthz`: liveness, uptime, and the warm-cache size that makes
/// daemon mode worth running.
fn healthz(state: &ServerState) -> Response {
    let body = Value::Map(vec![
        ("status".into(), json_str("ok")),
        (
            "uptime_ms".into(),
            json_num(state.started.elapsed().as_millis()),
        ),
        ("experiments".into(), json_num(REGISTRY.len())),
        ("memo_entries".into(), json_num(state.engine.memo_entries())),
        ("workers".into(), json_num(state.opts.workers)),
        ("queue_cap".into(), json_num(state.opts.queue_cap)),
        ("runs_pending".into(), json_num(state.sched.pending())),
        (
            "queue_depth".into(),
            json_num(state.queue_depth.load(Ordering::SeqCst)),
        ),
    ]);
    Response::json(200, to_json(&body))
}

/// `GET /experiments`: the registry as JSON.
fn experiments() -> Response {
    let list: Vec<Value> = REGISTRY
        .iter()
        .map(|e| {
            Value::Map(vec![
                ("id".into(), json_str(e.id)),
                (
                    "aliases".into(),
                    Value::Seq(e.aliases.iter().map(|a| json_str(a)).collect()),
                ),
                ("summary".into(), json_str(e.summary)),
            ])
        })
        .collect();
    Response::json(200, to_json(&Value::Seq(list)))
}

/// `POST /cache/gc`: LRU-prune the daemon's disk cache and trace store.
fn cache_gc(state: &ServerState, request: &Request) -> Response {
    let (cache, traces) = (state.engine.cache(), state.engine.trace_store());
    if cache.is_none() && traces.is_none() {
        return Response::error(409, "no --cache-dir configured for this daemon");
    }
    let opts = match parse_gc_options(request) {
        Ok(opts) => opts,
        Err(e) => return Response::error(e.status, &e.message),
    };
    let mut report = horizon_engine::GcReport::default();
    if let Some(cache) = cache {
        report = match cache.gc(opts.max_entries) {
            Ok(report) => report,
            Err(e) => return Response::error(500, &format!("cache gc failed: {e}")),
        };
    }
    if let Some(store) = traces {
        match store.gc(opts.max_trace_bytes) {
            Ok(trace) => report.absorb_trace(&trace),
            Err(e) => return Response::error(500, &format!("trace gc failed: {e}")),
        }
    }
    match serde_json::to_string(&report) {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::error(500, &format!("cannot serialize gc report: {e}")),
    }
}

struct GcOptions {
    max_entries: usize,
    max_trace_bytes: u64,
}

impl Default for GcOptions {
    fn default() -> Self {
        GcOptions {
            max_entries: DiskCache::DEFAULT_MAX_ENTRIES,
            max_trace_bytes: TraceStore::DEFAULT_MAX_BYTES,
        }
    }
}

fn parse_gc_options(request: &Request) -> Result<GcOptions, HttpError> {
    let mut opts = GcOptions::default();
    if request.body.is_empty() {
        return Ok(opts);
    }
    let value: Value = serde_json::from_str(request.body_str()?)
        .map_err(|e| HttpError::new(400, format!("invalid JSON body: {e}")))?;
    let Value::Map(entries) = value else {
        return Err(HttpError::new(400, "body must be a JSON object"));
    };
    for (key, value) in &entries {
        match key.as_str() {
            "max_entries" => {
                opts.max_entries = parse_u64(value, "max_entries")? as usize;
            }
            "max_trace_bytes" => {
                opts.max_trace_bytes = parse_u64(value, "max_trace_bytes")?;
            }
            other => {
                return Err(HttpError::new(400, format!("unknown option '{other}'")));
            }
        }
    }
    Ok(opts)
}

/// Per-request run options, mirroring the batch CLI flags.
struct RunOptions {
    quick: bool,
    seed: Option<u64>,
    jobs: Option<usize>,
    deadline: Option<Duration>,
    sampling: Option<SamplingPolicy>,
}

fn parse_u64(value: &Value, key: &str) -> Result<u64, HttpError> {
    use serde::Deserialize;
    u64::from_value(value).map_err(|e| HttpError::new(400, format!("option '{key}': {e}")))
}

/// Parses the `POST /run/...` JSON body; unknown keys are rejected so
/// typos fail loudly instead of silently running the wrong config.
fn parse_run_options(request: &Request) -> Result<RunOptions, HttpError> {
    use serde::Deserialize;
    let mut opts = RunOptions {
        quick: false,
        seed: None,
        jobs: None,
        deadline: None,
        sampling: None,
    };
    if request.body.is_empty() {
        return Ok(opts);
    }
    let value: Value = serde_json::from_str(request.body_str()?)
        .map_err(|e| HttpError::new(400, format!("invalid JSON body: {e}")))?;
    let Value::Map(entries) = value else {
        return Err(HttpError::new(400, "body must be a JSON object"));
    };
    for (key, value) in &entries {
        match key.as_str() {
            "quick" => {
                opts.quick = bool::from_value(value)
                    .map_err(|e| HttpError::new(400, format!("option 'quick': {e}")))?;
            }
            "seed" => opts.seed = Some(parse_u64(value, "seed")?),
            "jobs" => {
                let n = parse_u64(value, "jobs")?;
                if n == 0 {
                    return Err(HttpError::new(400, "option 'jobs' must be positive"));
                }
                opts.jobs = Some(n as usize);
            }
            "deadline_ms" => {
                let ms = parse_u64(value, "deadline_ms")?;
                if ms == 0 {
                    return Err(HttpError::new(400, "option 'deadline_ms' must be positive"));
                }
                opts.deadline = Some(Duration::from_millis(ms));
            }
            "sampling" => {
                let mode = String::from_value(value)
                    .map_err(|e| HttpError::new(400, format!("option 'sampling': {e}")))?;
                opts.sampling = Some(match mode.as_str() {
                    "exact" => SamplingPolicy::Exact,
                    "simpoint" => SamplingPolicy::simpoint_default(),
                    _ => {
                        return Err(HttpError::new(
                            400,
                            "option 'sampling' must be 'exact' or 'simpoint'",
                        ))
                    }
                });
            }
            other => {
                return Err(HttpError::new(400, format!("unknown option '{other}'")));
            }
        }
    }
    Ok(opts)
}

/// The response format a `?format=` query selects.
enum RunFormat {
    /// Structured `report_v1` JSON (the default).
    Json,
    /// The batch report text, byte-identical to `repro <experiment>`.
    Text,
}

/// The structured JSON body for a successful `?format=json` run.
fn run_json_body(
    state: &ServerState,
    experiment: &Experiment,
    quick: bool,
    coalesced: bool,
    output: &RunOutput,
    report: &str,
) -> Result<String, String> {
    let structured = ReportV1::from_text(experiment.id, report);
    let report_value = serde_json::to_string(&structured)
        .and_then(|json| serde_json::from_str::<Value>(&json))
        .map_err(|e| format!("cannot serialize report_v1: {e}"))?;
    let engine_stats = Value::Map(vec![
        ("memo_hits_delta".into(), json_num(output.memo_hits_delta)),
        ("disk_hits_delta".into(), json_num(output.disk_hits_delta)),
        (
            "simulated_jobs_delta".into(),
            json_num(output.simulated_jobs_delta),
        ),
        ("memo_entries".into(), json_num(state.engine.memo_entries())),
    ]);
    let body = Value::Map(vec![
        ("experiment".into(), json_str(experiment.id)),
        ("quick".into(), Value::Bool(quick)),
        ("coalesced".into(), Value::Bool(coalesced)),
        ("wall_ms".into(), json_num(output.wall_ms)),
        ("engine".into(), engine_stats),
        ("report".into(), report_value),
    ]);
    Ok(to_json(&body))
}

/// `POST /run/{experiment}`: schedule one registry experiment on the warm
/// engine (coalescing with identical in-flight runs) and return either the
/// structured `report_v1` JSON or, with `?format=text`, the batch-stdout
/// report text.
fn run(state: &Arc<ServerState>, name: &str, request: &Request) -> Response {
    let unknown: Vec<&str> = request
        .query_pairs()
        .map(|(key, _)| key)
        .filter(|&key| key != "format")
        .collect();
    if !unknown.is_empty() {
        return Response::error(
            400,
            &format!(
                "unknown query parameter(s) '{}' (known: format)",
                unknown.join("', '")
            ),
        );
    }
    let format = match request.query_param("format") {
        None | Some("json") => RunFormat::Json,
        Some("text") => RunFormat::Text,
        Some(other) => {
            return Response::error(
                400,
                &format!("unknown format '{other}' (known: json, text)"),
            )
        }
    };
    let Some(experiment) = find_experiment(name) else {
        let known: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        return Response::error(
            404,
            &format!("unknown experiment '{name}' (known: {})", known.join(", ")),
        );
    };
    let opts = match parse_run_options(request) {
        Ok(opts) => opts,
        Err(e) => return Response::error(e.status, &e.message),
    };

    let mut cfg = if opts.quick {
        ReproConfig::quick()
    } else {
        ReproConfig::default()
    };
    if let Some(seed) = opts.seed {
        cfg.campaign.seed = seed;
    }
    if let Some(sampling) = opts.sampling {
        cfg.campaign.sampling = sampling;
    }
    let key = RunKey {
        experiment: experiment.id,
        quick: opts.quick,
        seed: opts.seed,
        sampling: cfg.campaign.sampling,
    };
    let (slot, coalesced) = state.sched.submit(experiment, key, cfg, opts.jobs);
    let deadline = opts.deadline.unwrap_or(state.opts.request_timeout);

    let rec = &state.recorder;
    let Some(output) = slot.wait(deadline) else {
        rec.counter_add("serve.deadline_exceeded", 1);
        return Response::error(
            504,
            &format!(
                "experiment '{}' exceeded its {} ms deadline (this waiter detached; the run \
                 continues on the scheduler, co-waiters are unaffected, and the warm cache \
                 makes a retry cheap)",
                experiment.id,
                deadline.as_millis()
            ),
        );
    };
    let report = match &output.report {
        Ok(report) => report.clone(),
        Err(message) => return Response::error(500, message),
    };
    match format {
        // Byte-identical to batch mode's `println!("{report}")`.
        RunFormat::Text => Response::text(200, format!("{report}\n")),
        RunFormat::Json => {
            match run_json_body(state, experiment, opts.quick, coalesced, &output, &report) {
                Ok(body) => Response::json(200, body),
                Err(message) => Response::error(500, &message),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicU32;
    use std::sync::mpsc;

    type Job = Box<dyn FnOnce() + Send + 'static>;

    fn job_pool(workers: usize, cap: usize) -> Pool<Job> {
        Pool::new(workers, cap, |job: Job| job())
    }

    fn test_opts(workers: usize, queue_cap: usize) -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_cap,
            request_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_millis(500),
            max_requests_per_connection: 16,
            drain_timeout: Duration::from_secs(5),
            limits: Limits::default(),
        }
    }

    fn bind_server(opts: ServeOptions) -> Server {
        Server::bind(
            opts,
            Arc::new(Engine::new()),
            Arc::new(Recorder::new()),
            None,
        )
        .expect("bind ephemeral")
    }

    fn test_server(workers: usize, queue_cap: usize) -> Server {
        bind_server(test_opts(workers, queue_cap))
    }

    fn request(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("send");
        // Half-close: the server sees EOF when it looks for a follow-up
        // request, so read_to_string below terminates without waiting out
        // the keep-alive idle timeout.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    /// Reads exactly one `Content-Length`-framed response, leaving the
    /// connection open for the next one.
    fn read_one_response(stream: &mut TcpStream) -> String {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).expect("response header byte");
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).expect("utf8 response head");
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("content-length header")
            .trim()
            .parse()
            .expect("content-length value");
        let mut body = vec![0u8; length];
        stream.read_exact(&mut body).expect("response body");
        head + &String::from_utf8(body).expect("utf8 response body")
    }

    #[test]
    fn pool_runs_jobs_and_drains_on_shutdown() {
        let pool = job_pool(2, 16);
        let ran = Arc::new(AtomicU32::new(0));
        for _ in 0..10 {
            let ran = Arc::clone(&ran);
            pool.try_submit(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap_or_else(|_| panic!("pool saturated unexpectedly"));
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 10, "shutdown drains the queue");
    }

    #[test]
    fn pool_rejects_past_queue_cap_and_recovers() {
        let pool = job_pool(1, 1);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }))
        .unwrap_or_else(|_| panic!("first job rejected"));
        // Wait until the worker owns the blocking job (queue is empty).
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("worker picked up the job");

        let ran = Arc::new(AtomicU32::new(0));
        let queued = Arc::clone(&ran);
        pool.try_submit(Box::new(move || {
            queued.fetch_add(1, Ordering::SeqCst);
        }))
        .unwrap_or_else(|_| panic!("queue slot rejected"));
        assert_eq!(pool.queued(), 1);
        assert!(
            pool.try_submit(Box::new(|| {})).is_err(),
            "queue past cap must saturate"
        );

        release_tx.send(()).unwrap();
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 1, "queued job still ran");
    }

    #[test]
    fn pool_survives_panicking_jobs() {
        let pool = job_pool(1, 4);
        pool.try_submit(Box::new(|| panic!("handler bug")))
            .unwrap_or_else(|_| panic!("rejected"));
        let ran = Arc::new(AtomicU32::new(0));
        let after = Arc::clone(&ran);
        pool.try_submit(Box::new(move || {
            after.fetch_add(1, Ordering::SeqCst);
        }))
        .unwrap_or_else(|_| panic!("rejected"));
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 1, "worker outlived the panic");
    }

    #[test]
    fn saturated_server_answers_503_without_killing_in_flight_work() {
        let server = test_server(1, 1);
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let recorder = Arc::clone(&server.state.recorder);
        let serving = std::thread::spawn(move || server.run());

        // Occupy the single worker and the single queue slot with
        // connections that send nothing (the worker blocks reading).
        let hold_worker = TcpStream::connect(addr).expect("connect");
        std::thread::sleep(Duration::from_millis(400));
        let hold_queue = TcpStream::connect(addr).expect("connect");
        std::thread::sleep(Duration::from_millis(400));

        let response = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            response.starts_with("HTTP/1.1 503 "),
            "expected saturation 503, got: {response}"
        );
        assert!(response.contains("Retry-After: 1"), "{response}");

        // Releasing the held connections lets the daemon serve again: the
        // saturation rejection killed nothing in flight.
        drop(hold_worker);
        drop(hold_queue);
        std::thread::sleep(Duration::from_millis(400));
        let response = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            response.starts_with("HTTP/1.1 200 "),
            "daemon should recover after saturation, got: {response}"
        );
        assert!(recorder.counter_value("serve.saturated") >= 1);

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("clean exit");
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let server = test_server(2, 8);
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let recorder = Arc::clone(&server.state.recorder);
        let serving = std::thread::spawn(move || server.run());

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("send first");
        let first = read_one_response(&mut stream);
        assert!(first.starts_with("HTTP/1.1 200 "), "{first}");
        assert!(first.contains("Connection: keep-alive\r\n"), "{first}");

        // Second request over the SAME connection; `Connection: close`
        // must be honored with a close header and then EOF.
        stream
            .write_all(b"GET /experiments HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .expect("send second");
        let mut rest = String::new();
        stream.read_to_string(&mut rest).expect("read to close");
        assert!(rest.starts_with("HTTP/1.1 200 "), "{rest}");
        assert!(rest.contains("Connection: close\r\n"), "{rest}");
        assert!(rest.contains("\"id\":\"table1\""), "{rest}");
        assert_eq!(recorder.counter_value("serve.keepalive_reuses"), 1);

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("clean exit");
    }

    #[test]
    fn request_cap_closes_the_connection() {
        let mut opts = test_opts(2, 8);
        opts.max_requests_per_connection = 2;
        let server = bind_server(opts);
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let serving = std::thread::spawn(move || server.run());

        let mut stream = TcpStream::connect(addr).expect("connect");
        let probe = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        stream.write_all(probe).expect("send first");
        let first = read_one_response(&mut stream);
        assert!(first.contains("Connection: keep-alive\r\n"), "{first}");

        // The second request hits the cap: the server answers it but
        // announces (and performs) the close.
        stream.write_all(probe).expect("send second");
        let mut rest = String::new();
        stream.read_to_string(&mut rest).expect("read to close");
        assert!(rest.starts_with("HTTP/1.1 200 "), "{rest}");
        assert!(rest.contains("Connection: close\r\n"), "{rest}");

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("clean exit");
    }

    #[test]
    fn idle_keep_alive_connection_is_closed_quietly() {
        let server = test_server(2, 8);
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let recorder = Arc::clone(&server.state.recorder);
        let serving = std::thread::spawn(move || server.run());

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("send");
        let first = read_one_response(&mut stream);
        assert!(first.starts_with("HTTP/1.1 200 "), "{first}");

        // Send nothing more: past the idle timeout the server closes
        // without emitting a response or counting a bad request.
        let mut rest = String::new();
        stream.read_to_string(&mut rest).expect("read to close");
        assert_eq!(rest, "", "idle close must not write anything");
        assert_eq!(recorder.counter_value("serve.bad_requests"), 0);

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("clean exit");
    }

    #[test]
    fn router_covers_errors_and_health() {
        let server = test_server(2, 8);
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let serving = std::thread::spawn(move || server.run());

        let health = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        let list = request(addr, "GET /experiments HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(list.contains("\"id\":\"table1\""), "{list}");
        let metrics = request(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(metrics.contains("horizon_serve_requests"), "{metrics}");

        let missing = request(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404 "), "{missing}");
        let events = request(addr, "GET /events HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(events.starts_with("HTTP/1.1 404 "), "{events}");
        let bad_method = request(addr, "DELETE /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(bad_method.starts_with("HTTP/1.1 405 "), "{bad_method}");
        assert!(bad_method.contains("Allow: GET"), "{bad_method}");
        let get_run = request(addr, "GET /run/table1 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(get_run.starts_with("HTTP/1.1 405 "), "{get_run}");
        let garbage = request(addr, "THIS IS NOT HTTP\r\n\r\n");
        assert!(garbage.starts_with("HTTP/1.1 400 "), "{garbage}");
        let no_cache = request(
            addr,
            "POST /cache/gc HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(no_cache.starts_with("HTTP/1.1 409 "), "{no_cache}");
        let unknown_exp = request(
            addr,
            "POST /run/nope HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(unknown_exp.starts_with("HTTP/1.1 404 "), "{unknown_exp}");
        let bad_body = "POST /run/table1 HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\nnot json!";
        let bad = request(addr, bad_body);
        assert!(bad.starts_with("HTTP/1.1 400 "), "{bad}");
        let unknown_opt =
            "POST /run/table1 HTTP/1.1\r\nHost: x\r\nContent-Length: 13\r\n\r\n{\"typo\":true}";
        let unknown = request(addr, unknown_opt);
        assert!(unknown.starts_with("HTTP/1.1 400 "), "{unknown}");
        let bad_format = request(
            addr,
            "POST /run/table1?format=xml HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(bad_format.starts_with("HTTP/1.1 400 "), "{bad_format}");
        assert!(bad_format.contains("unknown format 'xml'"), "{bad_format}");

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("clean exit");
    }
}
