//! Memoizing, work-stealing campaign execution engine.
//!
//! The builtin backend in `horizon-core` simulates every (workload,
//! machine) grid cell of every campaign, even when experiments overlap —
//! `repro all` re-simulates the full Table IV grid many times. This crate
//! replaces that with a three-layer engine:
//!
//! 1. **Expansion + deduplication** — a campaign expands into jobs keyed
//!    by a content [`Fingerprint`] of `(workload profile, machine config,
//!    window, warmup, seed)`; identical cells collapse to one job.
//! 2. **Work stealing** — pending jobs land in a flat vector, sorted
//!    largest-estimated-cost-first ([`estimated_cost`], classic LPT
//!    scheduling), and workers claim them through an atomic cursor, so a
//!    slow job (e.g. a 43rd workload on the largest machine) never idles
//!    the other threads the way per-call static chunking did. Worker count
//!    comes from an explicit override ([`Engine::with_jobs`]), else
//!    `HORIZON_JOBS`, else the machine's available parallelism.
//! 3. **Memoization** — results are kept in an in-memory memo table and,
//!    optionally, an on-disk JSON cache ([`DiskCache`]), so each unique
//!    job simulates exactly once per process (and at most once per cache
//!    lifetime across processes).
//! 4. **In-flight coalescing** — campaigns running *concurrently* on one
//!    engine (e.g. overlapping `repro serve` requests) claim their memo
//!    misses in a shared in-flight table under the memo lock. The first
//!    claimant of a fingerprint leads and simulates it; later claimants
//!    follow and receive the leader's published measurement, so
//!    overlapping campaigns never duplicate work even before anything
//!    reaches the memo. A leader that dies before publishing fails its
//!    followers with a clean error — no waiter hangs, no partial memo
//!    entry ([`Engine::inflight_waiting`] reports live waiters).
//!
//! # Determinism
//!
//! Campaign results are **bit-identical regardless of thread count, job
//! ordering, or cache state**. This holds because each job's measurement
//! is a pure function of its fingerprinted inputs: simulation is
//! deterministic given `(profile, machine, window, warmup, seed)`; workers
//! share nothing but the job queue; the JSON cache round-trips every
//! counter and float losslessly (text-preserved integers,
//! shortest-round-trip floats); and grids are assembled by cell index, not
//! completion order. Scheduling and caching decide only *when and whether*
//! a job is simulated, never *what it computes*.
//!
//! # Telemetry
//!
//! Every engine owns a [`horizon_telemetry::Recorder`]. Each campaign call
//! opens an `engine.campaign` span with child stage spans
//! (`engine.expand`, `engine.probe`, `engine.simulate`, `engine.integrate`,
//! `engine.assemble`) and one `engine.job` span per unique job carrying
//! `workload` / `machine` / `outcome` (`"memo"`, `"disk"`, `"coalesced"`,
//! or `"simulated"`) fields; worker-side job spans are explicitly parented
//! to the campaign span. Counters (`engine.campaigns`, `engine.cells`,
//! `engine.unique_jobs`, `engine.simulated_jobs`, `engine.coalesced_jobs`,
//! `engine.memo_hits`,
//! `engine.disk_hits`, `engine.simulated_instructions`,
//! `engine.simulation_wall_nanos`, `engine.elapsed_nanos`) and histograms
//! (`engine.queue_wait_ns`, `engine.job_wall_ns`) accumulate alongside.
//! With a trace store attached ([`Engine::with_trace_store`]), fleet
//! batches additionally account `tracestore.hits`, `tracestore.misses`,
//! `tracestore.bytes_read`, `tracestore.bytes_written`, and
//! `tracestore.instructions_written`.
//! [`EngineStats`] is *derived* from this recorder — see
//! [`EngineStats::from_snapshot`] — so the trace and the stats can never
//! disagree. Pass a shared recorder with [`Engine::with_recorder`] (the
//! `repro` binary shares the globally installed one, merging engine spans
//! with simulator and analysis-pipeline spans into one trace).
//!
//! Install an engine process-wide with [`Engine::install`] to route every
//! `Campaign::measure` / `measure_profiles` call through it, or call
//! [`Engine::measure_profiles`] directly.

#![forbid(unsafe_code)]

mod cache;
mod cost;
mod fingerprint;
mod inflight;
mod stats;

pub use cache::{DiskCache, GcReport};
pub use cost::estimated_cost;
pub use fingerprint::{Fingerprint, SCHEMA_VERSION};
pub use stats::{EngineStats, JobTiming};
// The trace-store types a CLI needs to manage the store the engine reads
// and writes (GC passes, direct inspection), re-exported so callers don't
// grow their own `horizon-tracestore` dependency.
pub use horizon_tracestore::{TraceGc, TraceKey, TraceStore};

use crate::inflight::{Claim, FollowerTicket, InflightTable, LeaderGuard};
use horizon_core::campaign::{Campaign, CampaignExecutor, CampaignResult, Measurement};
use horizon_telemetry::{Recorder, Span};
use horizon_trace::{Instruction, TraceGenerator, WorkloadProfile};
use horizon_tracestore::{PendingTrace, TraceReader};
use horizon_uarch::MachineConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Progress report for one resolved job.
#[derive(Debug, Clone)]
pub struct ProgressEvent {
    /// Jobs resolved so far in this campaign (including this one).
    pub completed: usize,
    /// Unique jobs in this campaign.
    pub total: usize,
    /// Workload name of the job.
    pub workload: String,
    /// Machine name of the job.
    pub machine: String,
    /// True when served from memo or disk cache rather than simulated.
    pub cached: bool,
}

type ProgressCallback = Box<dyn Fn(&ProgressEvent) + Send + Sync>;

/// The execution engine. Cheap to construct; hold one for the process
/// lifetime to maximize memoization.
pub struct Engine {
    /// Pinned worker count; `0` means "unset" (fall back to `HORIZON_JOBS`
    /// or auto-detection). Atomic so long-lived holders (the `repro serve`
    /// daemon) can retune a shared engine between requests; determinism
    /// guarantees the setting only affects wall clock, never results.
    jobs: AtomicUsize,
    disk: Option<DiskCache>,
    traces: Option<TraceStore>,
    memo: Mutex<HashMap<Fingerprint, Measurement>>,
    inflight: InflightTable,
    recorder: Arc<Recorder>,
    progress: Option<ProgressCallback>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with in-memory memoization only, automatic worker count,
    /// and a private telemetry recorder.
    pub fn new() -> Self {
        Engine {
            jobs: AtomicUsize::new(0),
            disk: None,
            traces: None,
            memo: Mutex::new(HashMap::new()),
            inflight: InflightTable::default(),
            recorder: Arc::new(Recorder::new()),
            progress: None,
        }
    }

    /// Pins the worker count (overrides `HORIZON_JOBS` and auto-detection).
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    #[must_use]
    pub fn with_jobs(self, jobs: usize) -> Self {
        assert!(jobs > 0, "worker count must be positive");
        self.jobs.store(jobs, Ordering::Relaxed);
        self
    }

    /// Retunes the worker count of a live engine (`None` restores
    /// `HORIZON_JOBS`/auto-detection). Results are unaffected — campaign
    /// output is bit-identical across worker counts — so concurrent callers
    /// can only influence each other's wall clock.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is `Some(0)`.
    pub fn set_jobs(&self, jobs: Option<usize>) {
        assert!(jobs != Some(0), "worker count must be positive");
        self.jobs.store(jobs.unwrap_or(0), Ordering::Relaxed);
    }

    /// Attaches an on-disk cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be
    /// created.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.disk = Some(DiskCache::open(dir)?);
        Ok(self)
    }

    /// Attaches a content-addressed trace store rooted at `dir`: fleet
    /// batches replay stored instruction streams instead of re-expanding
    /// them, and write packed traces through on a miss. Strictly a
    /// wall-clock optimization — replay is bit-identical to regeneration
    /// (`horizon-tracestore`'s equivalence gates), so results never depend
    /// on store state.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be
    /// created.
    pub fn with_trace_store(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.traces = Some(TraceStore::open(dir)?);
        Ok(self)
    }

    /// The attached trace store, if [`Engine::with_trace_store`] configured
    /// one. Long-lived holders (the `repro serve` daemon) use this to run
    /// GC passes against the same store the executor reads and writes.
    pub fn trace_store(&self) -> Option<&TraceStore> {
        self.traces.as_ref()
    }

    /// Replaces the engine's telemetry recorder — typically with one that
    /// is also installed globally via [`horizon_telemetry::install`], so
    /// engine spans, simulator spans and analysis spans land in one trace.
    /// Pass [`Recorder::disabled`] to run the engine dark.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The engine's telemetry recorder.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The attached on-disk cache, if [`Engine::with_cache_dir`] configured
    /// one. Long-lived holders (the `repro serve` daemon) use this to run
    /// GC passes against the same cache the executor reads and writes.
    pub fn cache(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Number of measurements currently memoized in memory. A long-lived
    /// engine (one per daemon process rather than one per invocation)
    /// accumulates entries across requests; this is the warm-cache size a
    /// health endpoint reports.
    pub fn memo_entries(&self) -> usize {
        self.memo.lock().expect("memo lock").len()
    }

    /// Campaigns' follower jobs currently blocked waiting on another
    /// campaign's in-flight simulation of the same fingerprint. A health
    /// endpoint reports this as live coalescing pressure; it is `0`
    /// whenever no campaigns overlap.
    pub fn inflight_waiting(&self) -> usize {
        self.inflight.waiting()
    }

    /// Registers a progress callback, invoked once per unique job as it
    /// resolves (possibly from worker threads).
    #[must_use]
    pub fn with_progress(
        mut self,
        callback: impl Fn(&ProgressEvent) + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(Box::new(callback));
        self
    }

    /// Installs this engine as the process-wide campaign executor.
    pub fn install(self: Arc<Self>) {
        horizon_core::campaign::install_executor(self);
    }

    /// A snapshot of cumulative statistics, derived from the recorder.
    pub fn stats(&self) -> EngineStats {
        EngineStats::from_snapshot(&self.recorder.snapshot())
    }

    /// Clears accumulated telemetry and statistics (the memo table is
    /// kept).
    pub fn reset_stats(&self) {
        self.recorder.reset();
    }

    /// The worker count the engine would use for `pending` runnable jobs.
    pub fn worker_count(&self, pending: usize) -> usize {
        let pinned = self.jobs.load(Ordering::Relaxed);
        let configured = (pinned > 0)
            .then_some(pinned)
            .or_else(|| {
                std::env::var("HORIZON_JOBS")
                    .ok()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
            })
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        configured.max(1).min(pending.max(1))
    }

    /// Measures the full grid, deduplicating, memoizing and running misses
    /// on the work-stealing pool. Semantically identical to
    /// `Campaign::measure_profiles_builtin`, bit for bit.
    pub fn measure_profiles(
        &self,
        campaign: &Campaign,
        profiles: &[WorkloadProfile],
        machines: &[MachineConfig],
    ) -> CampaignResult {
        let call_start = Instant::now();
        let rec = &self.recorder;
        let mut campaign_span = rec.phase_span("engine.campaign");
        let campaign_id = campaign_span.id();
        // Run attribution for the live bus: workers re-enter this scope on
        // their own threads (the id is thread-local, not inherited).
        let run = horizon_telemetry::current_run_id();

        // Phase 1: expand the grid into de-duplicated jobs.
        let expand_span = rec.phase_span("engine.expand");
        let mut job_index: HashMap<Fingerprint, usize> = HashMap::new();
        // job id -> (profile index, machine index) of its first occurrence.
        let mut jobs: Vec<(usize, usize)> = Vec::new();
        let mut fingerprints: Vec<Fingerprint> = Vec::new();
        let mut cell_jobs: Vec<Vec<usize>> = Vec::with_capacity(profiles.len());
        for (w, profile) in profiles.iter().enumerate() {
            let mut row = Vec::with_capacity(machines.len());
            for (m, machine) in machines.iter().enumerate() {
                let fp = Fingerprint::of_job(campaign, profile, machine);
                let id = *job_index.entry(fp.clone()).or_insert_with(|| {
                    jobs.push((w, m));
                    fingerprints.push(fp);
                    jobs.len() - 1
                });
                row.push(id);
            }
            cell_jobs.push(row);
        }
        drop(expand_span);

        // Phase 2: serve jobs from the memo table, then the disk cache.
        // Cached jobs get their span here, implicitly nested under
        // engine.probe (itself under engine.campaign). Each memo miss is
        // claimed in the in-flight table *while the memo lock is held*:
        // publication inserts into the memo before retiring the in-flight
        // entry, so under the lock every job is either memoized, in
        // flight (another campaign leads it — we follow), or genuinely
        // unstarted (we lead it). There is no window in which two
        // campaigns can both decide to simulate the same fingerprint.
        let probe_span = rec.phase_span("engine.probe");
        let probe_id = probe_span.id();
        let mut resolved: Vec<Option<Measurement>> = vec![None; jobs.len()];
        let mut leaders: Vec<Option<LeaderGuard<'_>>> = Vec::with_capacity(jobs.len());
        let mut followers: Vec<(usize, FollowerTicket)> = Vec::new();
        let mut memo_hits = 0u64;
        let mut disk_hits = 0u64;
        {
            let memo = self.memo.lock().expect("memo lock");
            for (id, fp) in fingerprints.iter().enumerate() {
                if let Some(m) = memo.get(fp) {
                    resolved[id] = Some(m.clone());
                    memo_hits += 1;
                    let (w, mach) = jobs[id];
                    drop(self.job_span(probe_id, &profiles[w], &machines[mach], "memo"));
                    leaders.push(None);
                } else {
                    match self.inflight.claim(fp) {
                        Claim::Leader(guard) => leaders.push(Some(guard)),
                        Claim::Follower(ticket) => {
                            followers.push((id, ticket));
                            leaders.push(None);
                        }
                    }
                }
            }
        }
        // Disk hits are published too: a follower waiting on this
        // fingerprint in another campaign gets fed from here.
        if let Some(disk) = &self.disk {
            for (id, fp) in fingerprints.iter().enumerate() {
                if leaders[id].is_some() {
                    if let Some(m) = disk.load(fp) {
                        leaders[id]
                            .take()
                            .expect("leader checked above")
                            .publish(&m, &self.memo);
                        resolved[id] = Some(m);
                        disk_hits += 1;
                        let (w, mach) = jobs[id];
                        drop(self.job_span(probe_id, &profiles[w], &machines[mach], "disk"));
                    }
                }
            }
        }

        let completed = AtomicUsize::new(0);
        let total = jobs.len();
        for (id, m) in resolved.iter().enumerate() {
            if m.is_some() {
                let (w, mach) = jobs[id];
                self.emit_progress(&completed, total, &profiles[w], &machines[mach], true);
            }
        }
        drop(probe_span);

        // Phase 3: simulate the misses on the work-stealing pool, grouped
        // into fleet batches. Jobs whose trace-defining inputs match —
        // same profile content, window, warmup and seed
        // ([`Fingerprint::of_profile`]) — replay the identical instruction
        // stream, so one `Campaign::measure_fleet` call simulates all
        // their machines in a single streaming pass, bit-identical to
        // per-job simulation. Workers claim whole batches through an
        // atomic cursor; per-job results land in per-job slots, so
        // ordering never matters for the output. Batches are sorted
        // largest-estimated-cost-first (LPT) so the longest batch starts
        // earliest and cannot become a lone tail; ties break by first job
        // id to keep the order deterministic. Batch composition depends
        // only on the miss set, never on the worker count, so traces stay
        // structurally identical across `--jobs` settings.
        let profile_cost: Vec<u64> = profiles
            .iter()
            .map(|p| estimated_cost(campaign, p))
            .collect();
        let mut batch_index: HashMap<Fingerprint, usize> = HashMap::new();
        // Per batch: (workload index of the first job, member job ids).
        // Only jobs this campaign leads are scheduled; followed jobs are
        // collected from their leaders after the pool drains.
        let mut batches: Vec<(usize, Vec<usize>)> = Vec::new();
        for id in (0..jobs.len()).filter(|&id| leaders[id].is_some()) {
            let w = jobs[id].0;
            match batch_index.entry(Fingerprint::of_profile(campaign, &profiles[w])) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    batches[*e.get()].1.push(id);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(batches.len());
                    batches.push((w, vec![id]));
                }
            }
        }
        batches.sort_by(|a, b| {
            profile_cost[b.0]
                .cmp(&profile_cost[a.0])
                .then(a.1[0].cmp(&b.1[0]))
        });
        // Flat batch-major job list: slot i holds the result for job
        // `misses[i]`, and batch `b` owns the contiguous slot range
        // starting at `batch_start[b]`.
        let misses: Vec<usize> = batches
            .iter()
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect();
        let batch_start: Vec<usize> = batches
            .iter()
            .scan(0usize, |acc, (_, ids)| {
                let start = *acc;
                *acc += ids.len();
                Some(start)
            })
            .collect();
        let workers = if batches.is_empty() {
            0
        } else {
            self.worker_count(batches.len())
        };
        let slots: Vec<OnceLock<(Measurement, u64)>> =
            misses.iter().map(|_| OnceLock::new()).collect();
        // In-flight guards, batch-major like `slots`. A worker takes a
        // batch's guards before simulating; if the simulation (or the
        // progress callback) panics, the unwound guards flip their slots
        // to failed and every follower in other campaigns gets a clean
        // error instead of hanging. Guards for batches no worker reached
        // drop the same way when this frame unwinds.
        let guards: Vec<Mutex<Option<LeaderGuard<'_>>>> = misses
            .iter()
            .map(|&id| Mutex::new(leaders[id].take()))
            .collect();
        if !batches.is_empty() {
            let simulate_span = rec.phase_span("engine.simulate");
            let cursor = AtomicUsize::new(0);
            let pool_start = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let _run_scope = horizon_telemetry::RunScope::enter(run);
                        loop {
                            let b = cursor.fetch_add(1, Ordering::Relaxed);
                            if b >= batches.len() {
                                break;
                            }
                            let queue_wait = pool_start.elapsed().as_nanos() as u64;
                            let (w, ids) = &batches[b];
                            let batch_machines: Vec<MachineConfig> =
                                ids.iter().map(|&id| machines[jobs[id].1].clone()).collect();
                            let batch_guards: Vec<LeaderGuard<'_>> = (0..ids.len())
                                .map(|k| {
                                    guards[batch_start[b] + k]
                                        .lock()
                                        .expect("guard slot")
                                        .take()
                                        .expect("each guard is taken once")
                                })
                                .collect();
                            let job_start = Instant::now();
                            let measurements =
                                self.measure_batch(campaign, &profiles[*w], &batch_machines);
                            let wall = job_start.elapsed().as_nanos() as u64;
                            // Attribute the batch's wall clock across its jobs
                            // so per-job accounting sums exactly to the batch.
                            let n = ids.len() as u64;
                            let (share, extra) = (wall / n, wall % n);
                            for (k, ((&id, measurement), guard)) in
                                ids.iter().zip(measurements).zip(batch_guards).enumerate()
                            {
                                let (jw, jm) = jobs[id];
                                let wall_nanos = share + u64::from((k as u64) < extra);
                                rec.histogram_record("engine.queue_wait_ns", queue_wait);
                                let mut job_span = self.job_span(
                                    campaign_id,
                                    &profiles[jw],
                                    &machines[jm],
                                    "simulated",
                                );
                                job_span.record(
                                    "instructions",
                                    campaign.instructions + campaign.warmup,
                                );
                                job_span.record("est_cost", profile_cost[jw]);
                                job_span.record("fleet", ids.len());
                                job_span.record("wall_ns", wall_nanos);
                                drop(job_span);
                                rec.histogram_record("engine.job_wall_ns", wall_nanos);
                                slots[batch_start[b] + k]
                                    .set((measurement, wall_nanos))
                                    .expect("each slot is claimed once");
                                self.emit_progress(
                                    &completed,
                                    total,
                                    &profiles[jw],
                                    &machines[jm],
                                    false,
                                );
                                // Publish last: anything that panics above
                                // (simulation, telemetry, the progress
                                // callback) drops the guard unpublished and
                                // fails co-waiters instead of feeding them a
                                // result this campaign never vouched for.
                                let (m, _) = slots[batch_start[b] + k]
                                    .get()
                                    .expect("slot set just above");
                                guard.publish(m, &self.memo);
                            }
                        }
                    });
                }
            });
            drop(simulate_span);
        }

        // Phase 3b: collect followed jobs from their leaders. Waited only
        // after this campaign's own misses drained, so coalescing never
        // idles the local pool. A leader that abandoned its job (panic or
        // terminal error in the other campaign) fails this campaign too —
        // loudly, with nothing partial memoized.
        let coalesced = followers.len() as u64;
        for (id, ticket) in followers {
            let (w, mach) = jobs[id];
            match ticket.wait() {
                Ok(m) => {
                    drop(self.job_span(campaign_id, &profiles[w], &machines[mach], "coalesced"));
                    resolved[id] = Some(m);
                    self.emit_progress(&completed, total, &profiles[w], &machines[mach], true);
                }
                Err(error) => panic!(
                    "coalesced job {} on {} failed in its leading campaign: {error}",
                    profiles[w].name(),
                    machines[mach].name,
                ),
            }
        }

        // Phase 4: integrate results into the disk cache and counters.
        // Memo entries were already inserted at publication time (so
        // co-waiting campaigns could read them); only this campaign's own
        // simulated jobs are stored to disk.
        let integrate_span = rec.phase_span("engine.integrate");
        let mut simulation_wall_nanos = 0u64;
        for (slot, &id) in misses.iter().enumerate() {
            let (measurement, wall_nanos) = slots[slot].get().expect("all jobs ran").clone();
            if let Some(disk) = &self.disk {
                disk.store(&fingerprints[id], &measurement);
            }
            simulation_wall_nanos += wall_nanos;
            resolved[id] = Some(measurement);
        }
        let window = campaign.instructions + campaign.warmup;
        rec.counter_add("engine.campaigns", 1);
        rec.counter_add("engine.cells", (profiles.len() * machines.len()) as u64);
        rec.counter_add("engine.unique_jobs", jobs.len() as u64);
        rec.counter_add("engine.simulated_jobs", misses.len() as u64);
        rec.counter_add("engine.fleet_batches", batches.len() as u64);
        rec.counter_add("engine.memo_hits", memo_hits);
        rec.counter_add("engine.disk_hits", disk_hits);
        rec.counter_add("engine.coalesced_jobs", coalesced);
        rec.counter_add(
            "engine.simulated_instructions",
            misses.len() as u64 * window,
        );
        rec.counter_add("engine.simulation_wall_nanos", simulation_wall_nanos);
        drop(integrate_span);

        // Phase 5: assemble the grid by cell index.
        let assemble_span = rec.phase_span("engine.assemble");
        let workload_names = profiles.iter().map(|p| p.name().to_string()).collect();
        let machine_names = machines.iter().map(|m| m.name.clone()).collect();
        let grid = cell_jobs
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&id| resolved[id].clone().expect("job resolved"))
                    .collect()
            })
            .collect();
        drop(assemble_span);

        campaign_span.record("cells", profiles.len() * machines.len());
        campaign_span.record("unique_jobs", jobs.len());
        campaign_span.record("simulated", misses.len());
        campaign_span.record("workers", workers);
        rec.counter_add(
            "engine.elapsed_nanos",
            call_start.elapsed().as_nanos() as u64,
        );
        CampaignResult::from_grid(workload_names, machine_names, grid)
    }

    /// Opens the `engine.job` span of one resolved job under `parent`,
    /// recording its `workload`, `machine` and `outcome` (`"memo"`,
    /// `"disk"`, `"simulated"` or `"coalesced"`). Cache hits resolve on
    /// the campaign thread under `engine.probe`; simulated and coalesced
    /// jobs resolve on workers or after the pool drains and hang off the
    /// campaign span. Callers add outcome-specific fields before the span
    /// drops.
    fn job_span(
        &self,
        parent: Option<u64>,
        profile: &WorkloadProfile,
        machine: &MachineConfig,
        outcome: &'static str,
    ) -> Span {
        let mut span = self.recorder.span("engine.job");
        span.set_parent(parent);
        span.record("workload", profile.name());
        span.record("machine", machine.name.as_str());
        span.record("outcome", outcome);
        span
    }

    /// Measures one fleet batch through [`Campaign::measure_fleet`],
    /// choosing the instruction source once. With a trace store attached,
    /// a stored `(profile, seed, window)` trace is replayed instead of
    /// re-expanded. On a store miss an exact campaign tees the generated
    /// stream into the store while it simulates, and a sampled campaign —
    /// which reads the stream twice — materializes the packed trace first
    /// and replays it for both passes; either way every later batch (any
    /// machine set, any campaign, any process) that shares the trace
    /// replays it. With no store, or when the store fails at any point,
    /// the generator is the source. Replay is bit-identical to
    /// regeneration, so this can only change wall clock, never
    /// measurements.
    fn measure_batch(
        &self,
        campaign: &Campaign,
        profile: &WorkloadProfile,
        machines: &[MachineConfig],
    ) -> Vec<Measurement> {
        let window = campaign.warmup + campaign.instructions;
        let generate = || TraceGenerator::new(profile, campaign.seed).take(window as usize);
        let Some(store) = &self.traces else {
            return campaign.measure_fleet(profile, machines, generate);
        };
        let key = TraceKey::of(profile, campaign.seed, window);
        let rec = &self.recorder;
        let replay = |reader: TraceReader| {
            rec.counter_add("tracestore.bytes_read", reader.packed_bytes());
            campaign.measure_fleet(profile, machines, || reader.iter())
        };
        if let Some(reader) = store.load(&key).filter(|r| r.instructions() == window) {
            rec.counter_add("tracestore.hits", 1);
            return replay(reader);
        }
        rec.counter_add("tracestore.misses", 1);
        let Ok(mut pending) = store.begin(&key, window) else {
            // Store directory unusable (permissions, disk full): simulate
            // without it rather than failing the campaign.
            return campaign.measure_fleet(profile, machines, generate);
        };
        let count_written = |bytes: u64| {
            rec.counter_add("tracestore.bytes_written", bytes);
            rec.counter_add("tracestore.instructions_written", window);
        };
        if campaign.sampling.is_sampled() {
            let stored = generate()
                .try_for_each(|inst| pending.push(&inst))
                .and_then(|()| pending.publish())
                .ok()
                .inspect(|&bytes| count_written(bytes))
                .and_then(|_| store.load(&key))
                .filter(|r| r.instructions() == window);
            return match stored {
                Some(reader) => replay(reader),
                None => campaign.measure_fleet(profile, machines, generate),
            };
        }
        let mut ok = true;
        let mut tee = Some(Tee {
            inner: generate(),
            sink: &mut pending,
            ok: &mut ok,
        });
        let measurements = campaign.measure_fleet(profile, machines, || {
            tee.take().expect("an exact campaign reads its source once")
        });
        if ok {
            if let Ok(bytes) = pending.publish() {
                count_written(bytes);
            }
        }
        measurements
    }

    fn emit_progress(
        &self,
        completed: &AtomicUsize,
        total: usize,
        profile: &WorkloadProfile,
        machine: &MachineConfig,
        cached: bool,
    ) {
        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
        self.recorder
            .publish_progress(done as u64, total as u64, cached);
        if let Some(callback) = &self.progress {
            callback(&ProgressEvent {
                completed: done,
                total,
                workload: profile.name().to_string(),
                machine: machine.name.clone(),
                cached,
            });
        }
    }
}

impl CampaignExecutor for Engine {
    fn measure_profiles(
        &self,
        campaign: &Campaign,
        profiles: &[WorkloadProfile],
        machines: &[MachineConfig],
    ) -> CampaignResult {
        Engine::measure_profiles(self, campaign, profiles, machines)
    }
}

/// Write-through adapter: forwards a generator stream to the simulator
/// while packing every instruction into a pending trace. An encoder or
/// I/O failure flips `ok` and stops writing, but the simulation keeps
/// streaming unaffected — the store is best-effort, the measurement is
/// not.
struct Tee<'a, I: Iterator<Item = Instruction>> {
    inner: I,
    sink: &'a mut PendingTrace,
    ok: &'a mut bool,
}

impl<I: Iterator<Item = Instruction>> Iterator for Tee<'_, I> {
    type Item = Instruction;

    fn next(&mut self) -> Option<Instruction> {
        let inst = self.inner.next()?;
        if *self.ok && self.sink.push(&inst).is_err() {
            *self.ok = false;
        }
        Some(inst)
    }
}
