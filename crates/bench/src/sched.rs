//! Run-level scheduling and coalescing for `repro serve`.
//!
//! Connection workers do not execute experiments; they [`submit`] run
//! requests to this scheduler and wait on the returned [`RunSlot`] under
//! their own per-request deadline. The scheduler owns a dedicated pool of
//! run workers and two policies:
//!
//! * **Coalescing** — identical in-flight requests (same [`RunKey`]:
//!   experiment plus the campaign-shaping options `quick`, `instructions`,
//!   `warmup`, `seed`) share one execution. The first submission *leads*
//!   and enqueues the run; later identical submissions *coalesce* onto the
//!   leader's slot and receive the same [`RunOutput`]. Engine results are
//!   deterministic, so a coalesced answer is bit-identical to a private
//!   one. `jobs` and `deadline_ms` do not shape the result and are
//!   deliberately excluded from the key.
//! * **Largest-first ordering** — distinct queued runs are dispatched by
//!   descending estimated cost ([`Experiment::weight`] × campaign window),
//!   FIFO among equals, so a burst of cheap probes cannot starve the one
//!   expensive campaign everyone is actually waiting for (and the
//!   expensive run starts warming the shared engine memo earliest).
//!
//! # Waiter accounting
//!
//! A deadline-expired waiter simply detaches: [`RunSlot::wait`] returns
//! `None` without mutating the slot, the run keeps executing, its result
//! still lands in the slot for every co-waiter, and the engine cache stays
//! warm for the retry. A leader that panics publishes an error `RunOutput`
//! (the run worker catches the unwind), so co-waiters get a clean `500`
//! instead of hanging.

use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use horizon_core::campaign::SamplingPolicy;
use horizon_engine::Engine;
use horizon_telemetry::Recorder;

use crate::{run_experiment, Experiment, ReproConfig};

/// Locks a mutex, recovering from poison: scheduler state must stay
/// usable while a panicking run worker unwinds.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Estimated cost of one run: [`Experiment::weight`] × campaign window
/// (warmup + measured instructions). The single definition both the HTTP
/// layer (ETA hints) and the scheduler (largest-first dispatch) price
/// runs with — computed once per request and carried in the queued entry,
/// never re-derived during queue scans.
pub(crate) fn estimated_cost(experiment: &Experiment, cfg: &ReproConfig) -> u64 {
    experiment.weight.saturating_mul(
        cfg.campaign
            .instructions
            .saturating_add(cfg.campaign.warmup),
    )
}

/// Identity of a run for coalescing: everything that shapes the report.
///
/// `jobs` (wall-clock only — engine results are worker-count invariant)
/// and `deadline_ms` (a property of the *request*, not the run) are
/// excluded, so requests differing only in those still share one
/// execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct RunKey {
    /// Canonical experiment id.
    pub experiment: &'static str,
    /// Whether the quick-scale config was requested.
    pub quick: bool,
    /// Campaign window override.
    pub instructions: Option<u64>,
    /// Warmup override.
    pub warmup: Option<u64>,
    /// Seed override.
    pub seed: Option<u64>,
    /// Resolved sampling policy (an explicit `"sampling": "exact"` and an
    /// omitted option are the same run, so the key stores the resolved
    /// policy rather than the raw request option).
    pub sampling: SamplingPolicy,
}

/// What a finished run hands every waiter (leader and coalesced alike).
#[derive(Debug, Clone)]
pub(crate) struct RunOutput {
    /// The rendered report, or a displayable error (experiment failures
    /// and caught run panics both land here).
    pub report: Result<String, String>,
    /// Wall time of the execution itself (not any queue wait).
    pub wall_ms: u128,
    /// Engine memo hits observed during the execution.
    pub memo_hits_delta: u64,
    /// Engine disk-cache hits observed during the execution.
    pub disk_hits_delta: u64,
    /// Jobs actually simulated during the execution.
    pub simulated_jobs_delta: u64,
}

/// The rendezvous between one scheduled run and its waiters.
#[derive(Debug, Default)]
pub(crate) struct RunSlot {
    /// Telemetry run id the execution runs under — coalesced waiters
    /// share the leader's id, so an SSE stream can filter the live bus
    /// down to exactly this run's events.
    run_id: u64,
    output: Mutex<Option<RunOutput>>,
    done: Condvar,
}

impl RunSlot {
    fn new(run_id: u64) -> Self {
        RunSlot {
            run_id,
            ..RunSlot::default()
        }
    }

    /// The telemetry run id this slot's execution is attributed to.
    pub(crate) fn run_id(&self) -> u64 {
        self.run_id
    }

    /// Blocks until the run publishes (cloning its output) or `deadline`
    /// elapses (`None`). Detaching never disturbs the slot: co-waiters
    /// and the run itself are unaffected.
    pub(crate) fn wait(&self, deadline: Duration) -> Option<RunOutput> {
        let end = Instant::now() + deadline;
        let mut output = lock(&self.output);
        loop {
            if let Some(output) = output.as_ref() {
                return Some(output.clone());
            }
            let now = Instant::now();
            if now >= end {
                return None;
            }
            output = self
                .done
                .wait_timeout(output, end - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
    }

    fn publish(&self, output: RunOutput) {
        *lock(&self.output) = Some(output);
        self.done.notify_all();
    }
}

/// One queued run. Ordered by estimated cost (largest first), FIFO among
/// equals — `BinaryHeap` pops the maximum.
struct QueuedRun {
    cost: u64,
    seq: u64,
    key: RunKey,
    experiment: &'static Experiment,
    cfg: ReproConfig,
    jobs: Option<usize>,
    slot: Arc<RunSlot>,
}

impl PartialEq for QueuedRun {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.seq == other.seq
    }
}

impl Eq for QueuedRun {}

impl PartialOrd for QueuedRun {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedRun {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Higher cost wins; among equals the earlier sequence number wins
        // (reversed comparison, since the heap pops the maximum).
        self.cost
            .cmp(&other.cost)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct SchedShared {
    queue: Mutex<BinaryHeap<QueuedRun>>,
    ready: Condvar,
    /// Runs currently queued or executing, by coalescing key.
    inflight: Mutex<HashMap<RunKey, Arc<RunSlot>>>,
    stop: AtomicBool,
    /// Queued + executing runs; shutdown drains this to zero.
    pending: AtomicUsize,
    seq: AtomicU64,
    engine: Arc<Engine>,
    recorder: Arc<Recorder>,
    /// Worker count to restore after a per-run `jobs` override.
    default_jobs: Option<usize>,
}

/// The run scheduler: a priority queue of distinct runs, a coalescing
/// table, and the worker pool executing them.
pub(crate) struct RunScheduler {
    shared: Arc<SchedShared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl RunScheduler {
    /// Spawns `workers` run workers over one shared engine/recorder.
    pub(crate) fn new(
        workers: usize,
        engine: Arc<Engine>,
        recorder: Arc<Recorder>,
        default_jobs: Option<usize>,
    ) -> RunScheduler {
        // Touch the scheduler's metrics so they are exported (as zero)
        // before the first run — scrapers and the CI smoke can rely on
        // their presence instead of special-casing an idle daemon.
        recorder.counter_add("serve.coalesced_runs", 0);
        recorder.counter_add("serve.runs_executed", 0);
        recorder.gauge_add("serve.active_runs", 0);
        let shared = Arc::new(SchedShared {
            queue: Mutex::new(BinaryHeap::new()),
            ready: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            engine,
            recorder,
            default_jobs,
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("run-worker-{i}"))
                    .spawn(move || loop {
                        let run = {
                            let mut queue = lock(&shared.queue);
                            loop {
                                if let Some(run) = queue.pop() {
                                    break Some(run);
                                }
                                if shared.stop.load(Ordering::SeqCst) {
                                    break None;
                                }
                                queue = shared
                                    .ready
                                    .wait(queue)
                                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                            }
                        };
                        match run {
                            Some(run) => execute(&shared, run),
                            None => break,
                        }
                    })
                    .expect("spawn run worker")
            })
            .collect();
        RunScheduler {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Submits a run: returns its slot plus whether this submission
    /// coalesced onto an already in-flight identical run (counted in
    /// `serve.coalesced_runs`). A leader's run is enqueued by `cost`
    /// (the caller's [`estimated_cost`], priced once at admission and
    /// carried into the queued entry); the caller then waits on the slot
    /// under its own deadline.
    pub(crate) fn submit(
        &self,
        experiment: &'static Experiment,
        key: RunKey,
        cfg: ReproConfig,
        jobs: Option<usize>,
        cost: u64,
    ) -> (Arc<RunSlot>, bool) {
        let slot = {
            let mut inflight = lock(&self.shared.inflight);
            if let Some(slot) = inflight.get(&key) {
                let slot = Arc::clone(slot);
                drop(inflight);
                self.shared.recorder.counter_add("serve.coalesced_runs", 1);
                return (slot, true);
            }
            let slot = Arc::new(RunSlot::new(horizon_telemetry::next_run_id()));
            inflight.insert(key.clone(), Arc::clone(&slot));
            slot
        };
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        let run = QueuedRun {
            cost,
            seq: self.shared.seq.fetch_add(1, Ordering::SeqCst),
            key,
            experiment,
            cfg,
            jobs,
            slot: Arc::clone(&slot),
        };
        lock(&self.shared.queue).push(run);
        self.shared.ready.notify_one();
        (slot, false)
    }

    /// Runs currently queued or executing.
    pub(crate) fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::SeqCst)
    }

    /// Stops the workers, draining queued runs for at most `drain`.
    /// Workers still mid-run past the deadline are left detached — the
    /// process is exiting and no waiter remains (the connection pool
    /// drains before the scheduler).
    pub(crate) fn shutdown(&self, drain: Duration) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.ready.notify_all();
        let deadline = Instant::now() + drain;
        while self.pending() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(25));
        }
        if self.pending() == 0 {
            for handle in lock(&self.handles).drain(..) {
                let _ = handle.join();
            }
        }
    }
}

/// Executes one run on a run worker and publishes the outcome to every
/// waiter. Panics inside the experiment are caught and published as
/// errors, so a faulty run can neither hang its waiters nor take the
/// worker down.
fn execute(shared: &SchedShared, run: QueuedRun) {
    let rec = &shared.recorder;
    rec.gauge_add("serve.active_runs", 1);
    if let Some(jobs) = run.jobs {
        // Best-effort under concurrency: worker count changes wall clock
        // only, never results (engine determinism), so racing runs cannot
        // corrupt each other.
        shared.engine.set_jobs(Some(jobs));
    }
    let before_memo = rec.counter_value("engine.memo_hits");
    let before_disk = rec.counter_value("engine.disk_hits");
    let before_sim = rec.counter_value("engine.simulated_jobs");
    let started = Instant::now();
    // Attribute everything this run records or publishes on the live bus
    // (the engine re-enters the scope on its own workers).
    let run_scope = horizon_telemetry::RunScope::enter(run.slot.run_id());
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_experiment(run.experiment, &run.cfg)
    }));
    drop(run_scope);
    if run.jobs.is_some() {
        shared.engine.set_jobs(shared.default_jobs);
    }
    let report = match result {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(format!("experiment '{}': {e}", run.experiment.id)),
        Err(panic) => {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            Err(format!(
                "experiment '{}' panicked: {message}",
                run.experiment.id
            ))
        }
    };
    let output = RunOutput {
        report,
        wall_ms: started.elapsed().as_millis(),
        memo_hits_delta: rec.counter_value("engine.memo_hits") - before_memo,
        disk_hits_delta: rec.counter_value("engine.disk_hits") - before_disk,
        simulated_jobs_delta: rec.counter_value("engine.simulated_jobs") - before_sim,
    };
    // Retire the key and settle the books *before* publishing: a waiter
    // that wakes on the publish may immediately read the scheduler's
    // metrics and must see this run fully accounted for. A submitter
    // landing between the removal and the publish starts a fresh run —
    // duplicated wall clock at worst (the engine memo absorbs the cost),
    // never a wrong or lost answer.
    lock(&shared.inflight).remove(&run.key);
    rec.gauge_add("serve.active_runs", -1);
    rec.counter_add("serve.runs_executed", 1);
    shared.pending.fetch_sub(1, Ordering::SeqCst);
    run.slot.publish(output);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_experiment;
    use horizon_core::CoreError;

    fn scheduler(workers: usize) -> (RunScheduler, Arc<Recorder>) {
        let recorder = Arc::new(Recorder::new());
        let sched = RunScheduler::new(
            workers,
            Arc::new(Engine::new()),
            Arc::clone(&recorder),
            None,
        );
        (sched, recorder)
    }

    fn key_for(experiment: &'static Experiment) -> RunKey {
        RunKey {
            experiment: experiment.id,
            quick: false,
            instructions: Some(15_000),
            warmup: Some(5_000),
            seed: Some(42),
            sampling: SamplingPolicy::Exact,
        }
    }

    #[test]
    fn identical_submissions_coalesce_onto_one_execution() {
        let (sched, recorder) = scheduler(1);
        let experiment = find_experiment("table1").expect("registry");
        let cfg = ReproConfig::smoke();
        let (first, coalesced_first) =
            sched.submit(experiment, key_for(experiment), cfg.clone(), None, 1);
        let (second, coalesced_second) =
            sched.submit(experiment, key_for(experiment), cfg, None, 1);
        assert!(!coalesced_first, "the first submission leads");
        assert!(
            coalesced_second,
            "the identical second submission coalesces"
        );
        assert!(Arc::ptr_eq(&first, &second), "both share one slot");
        assert_eq!(recorder.counter_value("serve.coalesced_runs"), 1);

        let a = first.wait(Duration::from_secs(60)).expect("leader output");
        let b = second
            .wait(Duration::from_secs(60))
            .expect("coalesced output");
        let a = a.report.expect("experiment succeeds");
        let b = b.report.expect("coalesced report");
        assert_eq!(a, b, "coalesced waiters read the same report");
        assert!(a.contains("Table I"), "{a}");
        assert_eq!(
            recorder.counter_value("serve.runs_executed"),
            1,
            "one execution served both"
        );
        sched.shutdown(Duration::from_secs(10));
        assert_eq!(sched.pending(), 0);
        assert_eq!(recorder.gauge_value("serve.active_runs"), 0);
    }

    #[test]
    fn deadline_expired_waiter_detaches_without_poisoning_co_waiters() {
        let (sched, recorder) = scheduler(1);
        let experiment = find_experiment("table1").expect("registry");
        let (slot, _) = sched.submit(
            experiment,
            key_for(experiment),
            ReproConfig::smoke(),
            None,
            1,
        );
        // 43 benchmarks of simulation cannot finish in a millisecond: the
        // impatient waiter times out and detaches...
        assert!(
            slot.wait(Duration::from_millis(1)).is_none(),
            "impatient waiter must detach"
        );
        // ...while the patient co-waiter on the same slot still gets the
        // full, valid result, and the run was executed exactly once.
        let output = slot
            .wait(Duration::from_secs(60))
            .expect("co-waiter output");
        let report = output.report.expect("experiment succeeds");
        assert!(report.contains("Table I"), "{report}");
        assert_eq!(recorder.counter_value("serve.runs_executed"), 1);
        sched.shutdown(Duration::from_secs(10));
        assert_eq!(sched.pending(), 0);
    }

    fn boom(_: &ReproConfig) -> Result<String, CoreError> {
        panic!("injected run fault");
    }

    static BOOM: Experiment = Experiment {
        id: "boom",
        aliases: &[],
        summary: "test-only run that always panics",
        weight: 1,
        run: boom,
    };

    #[test]
    fn panicking_run_answers_waiters_cleanly_and_spares_the_worker() {
        let (sched, _recorder) = scheduler(1);
        let (slot, _) = sched.submit(&BOOM, key_for(&BOOM), ReproConfig::smoke(), None, 1);
        let output = slot.wait(Duration::from_secs(30)).expect("published error");
        let error = output.report.expect_err("panicking run maps to an error");
        assert!(error.contains("panicked"), "{error}");
        assert!(error.contains("injected run fault"), "{error}");
        // The worker survived the panic and still executes new runs.
        let experiment = find_experiment("table1").expect("registry");
        let (next, _) = sched.submit(
            experiment,
            key_for(experiment),
            ReproConfig::smoke(),
            None,
            1,
        );
        let output = next.wait(Duration::from_secs(60)).expect("worker alive");
        assert!(output.report.is_ok());
        sched.shutdown(Duration::from_secs(10));
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn queued_runs_dispatch_largest_estimated_cost_first() {
        let experiment = find_experiment("table1").expect("registry");
        let queued = |cost: u64, seq: u64| QueuedRun {
            cost,
            seq,
            key: key_for(experiment),
            experiment,
            cfg: ReproConfig::smoke(),
            jobs: None,
            slot: Arc::new(RunSlot::default()),
        };
        let mut heap = BinaryHeap::new();
        heap.push(queued(10, 0));
        heap.push(queued(700, 1));
        heap.push(queued(700, 2));
        heap.push(queued(43, 3));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|r| (r.cost, r.seq))
            .collect();
        assert_eq!(
            order,
            vec![(700, 1), (700, 2), (43, 3), (10, 0)],
            "largest cost first, FIFO among equals"
        );
    }

    #[test]
    fn dispatch_order_is_stable_under_concurrent_submits() {
        // Mirrors `submit`'s enqueue discipline — take a sequence number,
        // then push under the queue lock — from many threads at once. The
        // cost stored in each entry is priced exactly once (at submit), so
        // however the pushes interleave, draining the heap must observe
        // descending cost with strictly increasing seq among equals: no
        // entry's priority can drift while it sits in the queue.
        let experiment = find_experiment("table1").expect("registry");
        let queue = Arc::new(Mutex::new(BinaryHeap::new()));
        let seq = Arc::new(AtomicU64::new(0));
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 50;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let queue = Arc::clone(&queue);
                let seq = Arc::clone(&seq);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // Three cost classes, interleaved differently per
                        // thread so equal-cost entries arrive from many
                        // threads at once.
                        let cost = [10u64, 500, 10_000][((t + i) % 3) as usize];
                        let run = QueuedRun {
                            cost,
                            seq: seq.fetch_add(1, Ordering::SeqCst),
                            key: key_for(experiment),
                            experiment,
                            cfg: ReproConfig::smoke(),
                            jobs: None,
                            slot: Arc::new(RunSlot::default()),
                        };
                        lock(&queue).push(run);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("submitter thread");
        }
        let mut queue = lock(&queue);
        let drained: Vec<(u64, u64)> = std::iter::from_fn(|| queue.pop())
            .map(|r| (r.cost, r.seq))
            .collect();
        assert_eq!(drained.len(), (THREADS * PER_THREAD) as usize);
        for window in drained.windows(2) {
            let ((cost_a, seq_a), (cost_b, seq_b)) = (window[0], window[1]);
            assert!(
                cost_a > cost_b || (cost_a == cost_b && seq_a < seq_b),
                "unstable dispatch order: ({cost_a}, seq {seq_a}) before ({cost_b}, seq {seq_b})"
            );
        }
    }
}
