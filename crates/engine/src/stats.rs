//! Run statistics for the execution engine.
//!
//! Since the telemetry refactor the engine no longer maintains a separate
//! statistics ledger: every number here is *derived* from the engine's
//! [`horizon_telemetry::Recorder`] via [`EngineStats::from_snapshot`], so
//! the recorder is the single source of truth and the stats can never
//! drift from the trace.

use horizon_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Wall time of one simulated job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobTiming {
    /// Workload name.
    pub workload: String,
    /// Machine name.
    pub machine: String,
    /// Wall-clock nanoseconds spent simulating the job.
    pub wall_nanos: u64,
    /// Instructions simulated (measurement window plus warmup).
    pub instructions: u64,
}

/// Cumulative statistics across every campaign an engine has executed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Campaigns executed.
    pub campaigns: u64,
    /// Grid cells served (workload × machine pairs, pre-deduplication).
    pub cells: u64,
    /// Distinct job fingerprints encountered.
    pub unique_jobs: u64,
    /// Jobs actually simulated (memo/disk misses).
    pub simulated_jobs: u64,
    /// Fleet batches the simulated jobs were grouped into: jobs sharing a
    /// trace fingerprint (profile, window, warmup, seed) stream the trace
    /// once together, so this is at most `simulated_jobs`.
    pub fleet_batches: u64,
    /// Jobs served from the in-memory memo table.
    pub memo_hits: u64,
    /// Jobs served from the on-disk cache.
    pub disk_hits: u64,
    /// Instructions simulated (window + warmup, summed over simulated jobs).
    pub simulated_instructions: u64,
    /// Fleet batches whose instruction stream was replayed from a stored
    /// packed trace instead of re-expanded from the profile.
    pub trace_hits: u64,
    /// Fleet batches that found no stored trace (or an invalid one) and
    /// regenerated — writing the trace through for later batches.
    pub trace_misses: u64,
    /// Packed trace bytes published to the store.
    pub trace_bytes_written: u64,
    /// Packed trace bytes replayed from the store.
    pub trace_bytes_read: u64,
    /// Instructions covered by the published traces (the denominator for
    /// bytes per instruction).
    pub trace_instructions_written: u64,
    /// Config-identical lane groups the fleet kernels stepped (summed over
    /// fleet constructions): each group advances every machine that shares
    /// the structure config in one data-parallel batch.
    pub fleet_lane_groups: u64,
    /// Machine lanes covered by those groups (summed over fleet
    /// constructions); `fleet_lane_groups / fleet_laned_machines` below 7
    /// means structure dedup is collapsing work.
    pub fleet_laned_machines: u64,
    /// Summed per-job simulation wall time, in nanoseconds. With N workers
    /// this exceeds elapsed time by up to a factor of N.
    pub simulation_wall_nanos: u64,
    /// Wall time spent inside engine campaign calls, in nanoseconds.
    pub elapsed_nanos: u64,
    /// Per-job wall-time records, in completion order. Reconstructed from
    /// retained `engine.job` spans, so extremely long runs that overflow
    /// the recorder's span cap may truncate this list (the aggregate
    /// counters above stay exact).
    pub job_timings: Vec<JobTiming>,
}

impl EngineStats {
    /// Derives cumulative stats from a telemetry snapshot: counters map
    /// one-to-one onto the aggregate fields, and each retained
    /// `engine.job` span with `outcome == "simulated"` contributes a
    /// [`JobTiming`].
    pub fn from_snapshot(snapshot: &TelemetrySnapshot) -> Self {
        let job_timings = snapshot
            .spans
            .iter()
            .filter(|s| s.name == "engine.job" && s.field_str("outcome") == Some("simulated"))
            .map(|s| JobTiming {
                workload: s.field_str("workload").unwrap_or_default().to_string(),
                machine: s.field_str("machine").unwrap_or_default().to_string(),
                wall_nanos: s.field_u64("wall_ns").unwrap_or(s.duration_nanos),
                instructions: s.field_u64("instructions").unwrap_or(0),
            })
            .collect();
        EngineStats {
            campaigns: snapshot.counter("engine.campaigns"),
            cells: snapshot.counter("engine.cells"),
            unique_jobs: snapshot.counter("engine.unique_jobs"),
            simulated_jobs: snapshot.counter("engine.simulated_jobs"),
            fleet_batches: snapshot.counter("engine.fleet_batches"),
            memo_hits: snapshot.counter("engine.memo_hits"),
            disk_hits: snapshot.counter("engine.disk_hits"),
            simulated_instructions: snapshot.counter("engine.simulated_instructions"),
            trace_hits: snapshot.counter("tracestore.hits"),
            trace_misses: snapshot.counter("tracestore.misses"),
            trace_bytes_written: snapshot.counter("tracestore.bytes_written"),
            trace_bytes_read: snapshot.counter("tracestore.bytes_read"),
            trace_instructions_written: snapshot.counter("tracestore.instructions_written"),
            fleet_lane_groups: snapshot.counter("fleet.lane_groups"),
            fleet_laned_machines: snapshot.counter("fleet.laned_machines"),
            simulation_wall_nanos: snapshot.counter("engine.simulation_wall_nanos"),
            elapsed_nanos: snapshot.counter("engine.elapsed_nanos"),
            job_timings,
        }
    }

    /// Cache hits (memo + disk) over unique jobs, in `[0, 1]`; zero when
    /// nothing has run.
    pub fn hit_rate(&self) -> f64 {
        if self.unique_jobs == 0 {
            return 0.0;
        }
        (self.memo_hits + self.disk_hits) as f64 / self.unique_jobs as f64
    }

    /// Total cache hits (memo + disk).
    pub fn cache_hits(&self) -> u64 {
        self.memo_hits + self.disk_hits
    }

    /// Aggregate simulation throughput: simulated instructions per second
    /// of summed simulation wall time (zero when nothing was simulated).
    pub fn instructions_per_second(&self) -> f64 {
        if self.simulation_wall_nanos == 0 {
            return 0.0;
        }
        self.simulated_instructions as f64 / (self.simulation_wall_nanos as f64 / 1e9)
    }

    /// Packed size of the traces this engine published, in bytes per
    /// instruction (zero when nothing was written). The format budget is
    /// 8 B/inst; typical streams pack to 2–4.
    pub fn trace_bytes_per_instruction(&self) -> f64 {
        if self.trace_instructions_written == 0 {
            return 0.0;
        }
        self.trace_bytes_written as f64 / self.trace_instructions_written as f64
    }

    /// Summed simulation wall time.
    pub fn simulation_wall(&self) -> Duration {
        Duration::from_nanos(self.simulation_wall_nanos)
    }

    /// Wall time spent inside engine campaign calls.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.elapsed_nanos)
    }

    /// A human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str("engine stats:\n");
        out.push_str(&format!(
            "  campaigns:       {}\n  grid cells:      {}\n  unique jobs:     {}\n",
            self.campaigns, self.cells, self.unique_jobs
        ));
        out.push_str(&format!(
            "  simulated:       {} (in {} fleet batches)\n",
            self.simulated_jobs, self.fleet_batches
        ));
        out.push_str(&format!(
            "  memo hits:       {}\n  disk hits:       {}\n",
            self.memo_hits, self.disk_hits
        ));
        out.push_str(&format!(
            "  hit rate:        {:.1}%\n",
            self.hit_rate() * 100.0
        ));
        out.push_str(&format!(
            "  simulated instr: {} ({:.2} M/s)\n",
            self.simulated_instructions,
            self.instructions_per_second() / 1e6
        ));
        if self.fleet_laned_machines > 0 {
            out.push_str(&format!(
                "  lane stepping:   {} machine lanes in {} config groups\n",
                self.fleet_laned_machines, self.fleet_lane_groups
            ));
        }
        if self.trace_hits + self.trace_misses > 0 {
            out.push_str(&format!(
                "  trace store:     {} hits, {} misses ({} B written, {} B read",
                self.trace_hits, self.trace_misses, self.trace_bytes_written, self.trace_bytes_read,
            ));
            if self.trace_instructions_written > 0 {
                out.push_str(&format!(
                    ", {:.2} B/inst",
                    self.trace_bytes_per_instruction()
                ));
            }
            out.push_str(")\n");
        }
        out.push_str(&format!(
            "  sim wall:        {:.3} s (elapsed {:.3} s)",
            self.simulation_wall().as_secs_f64(),
            self.elapsed().as_secs_f64()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horizon_telemetry::Recorder;
    use std::sync::Arc;

    #[test]
    fn rates_on_empty_stats_are_zero() {
        let s = EngineStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.instructions_per_second(), 0.0);
        assert!(s.summary().contains("unique jobs:     0"));
    }

    #[test]
    fn empty_snapshot_derives_empty_stats() {
        let r = Recorder::new();
        let s = EngineStats::from_snapshot(&r.snapshot());
        assert_eq!(s, EngineStats::default());
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.instructions_per_second(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let s = EngineStats {
            campaigns: 2,
            cells: 10,
            unique_jobs: 8,
            simulated_jobs: 2,
            fleet_batches: 1,
            memo_hits: 5,
            disk_hits: 1,
            simulated_instructions: 2_000_000,
            trace_hits: 3,
            trace_misses: 1,
            trace_bytes_written: 300_000,
            trace_bytes_read: 900_000,
            trace_instructions_written: 100_000,
            fleet_lane_groups: 37,
            fleet_laned_machines: 7,
            simulation_wall_nanos: 500_000_000,
            elapsed_nanos: 250_000_000,
            job_timings: vec![],
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.cache_hits(), 6);
        assert!((s.instructions_per_second() - 4_000_000.0).abs() < 1e-6);
        assert!((s.trace_bytes_per_instruction() - 3.0).abs() < 1e-12);
        assert!(s.summary().contains("trace store:     3 hits, 1 misses"));
        assert!(s.summary().contains("3.00 B/inst"));
        assert!(s
            .summary()
            .contains("lane stepping:   7 machine lanes in 37 config groups"));
    }

    #[test]
    fn from_snapshot_maps_counters_and_job_spans() {
        let r = Arc::new(Recorder::new());
        r.counter_add("engine.campaigns", 1);
        r.counter_add("engine.cells", 4);
        r.counter_add("engine.unique_jobs", 3);
        r.counter_add("engine.simulated_jobs", 1);
        r.counter_add("engine.memo_hits", 2);
        r.counter_add("engine.simulated_instructions", 25_000);
        r.counter_add("engine.simulation_wall_nanos", 9_000);
        {
            let mut cached = r.span("engine.job");
            cached.record("workload", "mcf");
            cached.record("machine", "skylake");
            cached.record("outcome", "memo");
        }
        {
            let mut sim = r.span("engine.job");
            sim.record("workload", "gcc");
            sim.record("machine", "sparc");
            sim.record("outcome", "simulated");
            sim.record("instructions", 25_000u64);
            sim.record("wall_ns", 9_000u64);
        }
        let s = EngineStats::from_snapshot(&r.snapshot());
        assert_eq!(s.campaigns, 1);
        assert_eq!(s.memo_hits, 2);
        assert_eq!(s.job_timings.len(), 1, "cached jobs carry no timing");
        assert_eq!(s.job_timings[0].workload, "gcc");
        assert_eq!(s.job_timings[0].machine, "sparc");
        assert_eq!(s.job_timings[0].wall_nanos, 9_000);
        assert_eq!(s.job_timings[0].instructions, 25_000);
    }

    #[test]
    fn stats_serialize_round_trip() {
        let s = EngineStats {
            campaigns: 1,
            cells: 4,
            unique_jobs: 4,
            simulated_jobs: 4,
            fleet_batches: 4,
            memo_hits: 0,
            disk_hits: 0,
            simulated_instructions: 100,
            trace_hits: 1,
            trace_misses: 2,
            trace_bytes_written: 50,
            trace_bytes_read: 25,
            trace_instructions_written: 100,
            fleet_lane_groups: 21,
            fleet_laned_machines: 4,
            simulation_wall_nanos: 42,
            elapsed_nanos: 43,
            job_timings: vec![JobTiming {
                workload: "w".into(),
                machine: "m".into(),
                wall_nanos: 42,
                instructions: 100,
            }],
        };
        let text = serde_json::to_string_pretty(&s).unwrap();
        let back: EngineStats = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }
}
