//! Worker pools and run-level coalescing for `repro serve`.
//!
//! Both of the daemon's thread pools are a [`Pool`]: a fixed set of
//! workers over one FIFO queue. The connection pool caps its queue (past
//! the cap the accept loop answers `503`); the run pool is uncapped, so
//! connection saturation stays the only `503` path.
//!
//! Connection workers do not execute experiments; they [`submit`] run
//! requests to the [`RunScheduler`] and wait on the returned [`RunSlot`]
//! under their own per-request deadline. Identical in-flight requests
//! (same [`RunKey`]: experiment plus the campaign-shaping options `quick`,
//! `seed` and `sampling`) share one execution. The first submission
//! *leads* and enqueues the run; later identical submissions *coalesce*
//! onto the leader's slot and receive the same [`RunOutput`]. Engine
//! results are deterministic, so a coalesced answer is bit-identical to a
//! private one. `jobs` and `deadline_ms` do not shape the result and are
//! deliberately excluded from the key.
//!
//! # Waiter accounting
//!
//! A deadline-expired waiter simply detaches: [`RunSlot::wait`] returns
//! `None` without mutating the slot, the run keeps executing, its result
//! still lands in the slot for every co-waiter, and the engine cache stays
//! warm for the retry. A leader that panics publishes an error `RunOutput`
//! (the run worker catches the unwind), so co-waiters get a clean `500`
//! instead of hanging.
//!
//! [`submit`]: RunScheduler::submit

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// Error returned by [`Pool::try_submit`] when the queue is at capacity;
/// carries the rejected item back so the caller can answer `503` on it.
pub(crate) struct Saturated<T>(pub T);

struct PoolShared<T> {
    queue: Mutex<VecDeque<T>>,
    ready: Condvar,
    cap: usize,
    stop: AtomicBool,
}

/// A fixed-size worker pool over a bounded FIFO queue of `T`, each item
/// handled by one shared handler function. Shutdown is draining: workers
/// finish every queued item before exiting.
pub(crate) struct Pool<T: Send + 'static> {
    shared: Arc<PoolShared<T>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<T: Send + 'static> Pool<T> {
    /// Spawns `workers` threads over a queue holding at most `cap` items.
    pub(crate) fn new(
        workers: usize,
        cap: usize,
        handler: impl Fn(T) + Send + Sync + 'static,
    ) -> Pool<T> {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            cap: cap.max(1),
            stop: AtomicBool::new(false),
        });
        let handler = Arc::new(handler);
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("pool-worker-{i}"))
                    .spawn(move || loop {
                        let item = {
                            let mut queue = shared.queue.lock().expect("pool queue");
                            loop {
                                if let Some(item) = queue.pop_front() {
                                    break Some(item);
                                }
                                if shared.stop.load(Ordering::SeqCst) {
                                    break None;
                                }
                                queue = shared.ready.wait(queue).expect("pool queue");
                            }
                        };
                        match item {
                            // A panicking handler must not take the worker
                            // (or the process) down with it.
                            Some(item) => {
                                let _ = catch_unwind(AssertUnwindSafe(|| handler(item)));
                            }
                            None => break,
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Enqueues `item` unless the queue is at capacity.
    pub(crate) fn try_submit(&self, item: T) -> Result<(), Saturated<T>> {
        {
            let mut queue = self.shared.queue.lock().expect("pool queue");
            if queue.len() >= self.shared.cap {
                return Err(Saturated(item));
            }
            queue.push_back(item);
        }
        self.shared.ready.notify_one();
        Ok(())
    }

    /// Queued (not yet claimed) items.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        self.shared.queue.lock().expect("pool queue").len()
    }

    /// Drains the queue and joins every worker.
    pub(crate) fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.ready.notify_all();
        for handle in self.handles {
            let _ = handle.join();
        }
    }
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
    /// share the leader's id, so the run's spans carry one `run` label in
    /// the JSONL and OTLP traces.
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

/// One queued run, claimed by the run pool in submission order.
struct QueuedRun {
    key: RunKey,
    experiment: &'static Experiment,
    cfg: ReproConfig,
    jobs: Option<usize>,
    slot: Arc<RunSlot>,
}

struct SchedShared {
    /// Runs currently queued or executing, by coalescing key.
    inflight: Mutex<HashMap<RunKey, Arc<RunSlot>>>,
    /// Queued + executing runs; shutdown drains this to zero.
    pending: AtomicUsize,
    engine: Arc<Engine>,
    recorder: Arc<Recorder>,
    /// Worker count to restore after a per-run `jobs` override.
    default_jobs: Option<usize>,
}

/// The run scheduler: a coalescing table in front of the run pool.
pub(crate) struct RunScheduler {
    shared: Arc<SchedShared>,
    /// Taken by a shutdown that drained every run.
    pool: Mutex<Option<Pool<QueuedRun>>>,
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
            inflight: Mutex::new(HashMap::new()),
            pending: AtomicUsize::new(0),
            engine,
            recorder,
            default_jobs,
        });
        let worker_shared = Arc::clone(&shared);
        // Uncapped: run admission never rejects, connection saturation is
        // the only 503 path.
        let pool = Pool::new(workers, usize::MAX, move |run| execute(&worker_shared, run));
        RunScheduler {
            shared,
            pool: Mutex::new(Some(pool)),
        }
    }

    /// Submits a run: returns its slot plus whether this submission
    /// coalesced onto an already in-flight identical run (counted in
    /// `serve.coalesced_runs`). A leader's run is queued behind earlier
    /// leaders; the caller then waits on the slot under its own deadline.
    pub(crate) fn submit(
        &self,
        experiment: &'static Experiment,
        key: RunKey,
        cfg: ReproConfig,
        jobs: Option<usize>,
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
            key,
            experiment,
            cfg,
            jobs,
            slot: Arc::clone(&slot),
        };
        let admitted = lock(&self.pool)
            .as_ref()
            .is_some_and(|pool| pool.try_submit(run).is_ok());
        assert!(
            admitted,
            "the run pool is uncapped and lives until shutdown"
        );
        (slot, false)
    }

    /// Runs currently queued or executing.
    pub(crate) fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::SeqCst)
    }

    /// Waits at most `drain` for queued and executing runs to finish, then
    /// stops the pool. Workers still mid-run past the deadline are left
    /// detached — the process is exiting and no waiter remains (the
    /// connection pool drains before the scheduler).
    pub(crate) fn shutdown(&self, drain: Duration) {
        let deadline = Instant::now() + drain;
        while self.pending() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(25));
        }
        if self.pending() == 0 {
            if let Some(pool) = lock(&self.pool).take() {
                pool.shutdown();
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
    // Attribute every span this run records to its run id (the engine
    // re-enters the scope on its own workers).
    let run_scope = horizon_telemetry::RunScope::enter(run.slot.run_id);
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
            sched.submit(experiment, key_for(experiment), cfg.clone(), None);
        let (second, coalesced_second) = sched.submit(experiment, key_for(experiment), cfg, None);
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
        let (slot, _) = sched.submit(experiment, key_for(experiment), ReproConfig::smoke(), None);
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
        run: boom,
    };

    #[test]
    fn panicking_run_answers_waiters_cleanly_and_spares_the_worker() {
        let (sched, _recorder) = scheduler(1);
        let (slot, _) = sched.submit(&BOOM, key_for(&BOOM), ReproConfig::smoke(), None);
        let output = slot.wait(Duration::from_secs(30)).expect("published error");
        let error = output.report.expect_err("panicking run maps to an error");
        assert!(error.contains("panicked"), "{error}");
        assert!(error.contains("injected run fault"), "{error}");
        // The worker survived the panic and still executes new runs.
        let experiment = find_experiment("table1").expect("registry");
        let (next, _) = sched.submit(experiment, key_for(experiment), ReproConfig::smoke(), None);
        let output = next.wait(Duration::from_secs(60)).expect("worker alive");
        assert!(output.report.is_ok());
        sched.shutdown(Duration::from_secs(10));
        assert_eq!(sched.pending(), 0);
    }
}
