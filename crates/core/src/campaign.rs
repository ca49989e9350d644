//! Measurement campaigns: the data-collection step of §III.
//!
//! A campaign simulates a set of workloads on a set of machines and records
//! hardware-counter readouts plus power estimates — the stand-in for the
//! paper's perf-counter experiments on seven physical systems.

use horizon_simpoint::SimPointConfig;
use horizon_trace::{Instruction, TraceGenerator, WorkloadProfile};
use horizon_uarch::{Counters, FleetSimulator, MachineConfig, PowerModel, PowerReport};
use horizon_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, RwLock};

use crate::CoreError;

/// A pluggable measurement backend for campaigns.
///
/// The builtin backend simulates every grid cell directly (see
/// [`Campaign::measure_profiles`]). An alternative executor — such as
/// `horizon-engine`'s memoizing work-stealing engine — can be installed
/// process-wide with [`install_executor`]; every campaign in the process
/// then routes through it. Executors must be *transparent*: for any input
/// they must return exactly the grid the builtin backend would produce.
pub trait CampaignExecutor: Send + Sync {
    /// Measures the full `profiles` × `machines` grid for `campaign`.
    fn measure_profiles(
        &self,
        campaign: &Campaign,
        profiles: &[WorkloadProfile],
        machines: &[MachineConfig],
    ) -> CampaignResult;
}

static EXECUTOR: RwLock<Option<Arc<dyn CampaignExecutor>>> = RwLock::new(None);

/// Installs a process-wide campaign executor, replacing any previous one.
pub fn install_executor(executor: Arc<dyn CampaignExecutor>) {
    *EXECUTOR.write().expect("executor lock") = Some(executor);
}

fn installed_executor() -> Option<Arc<dyn CampaignExecutor>> {
    EXECUTOR.read().expect("executor lock").clone()
}

/// One (workload, machine) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Raw counter readout.
    pub counters: Counters,
    /// RAPL-style power estimate.
    pub power: PowerReport,
}

/// How a campaign turns its window into counters: exact full-window
/// simulation (the default, bit-reproducible) or SimPoint-style phase
/// sampling (approximate, bounded by a measured error budget).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SamplingPolicy {
    /// Simulate every instruction of the window. Results are bit-exact.
    #[default]
    Exact,
    /// Fingerprint fixed-size intervals, cluster them, and simulate only
    /// per-cluster representatives (see `horizon-simpoint`). Counters are
    /// reconstructed as weighted sums and carry a small, measured error.
    SimPoint {
        /// Instructions per fingerprinted interval.
        interval: u64,
        /// Cluster budget (a short tail interval may add one phase).
        max_phases: u64,
    },
}

impl SamplingPolicy {
    /// The SimPoint policy with the `horizon-simpoint` default knobs.
    pub fn simpoint_default() -> Self {
        SamplingPolicy::SimPoint {
            interval: SimPointConfig::DEFAULT_INTERVAL,
            max_phases: SimPointConfig::DEFAULT_MAX_PHASES,
        }
    }

    /// True for any non-exact policy.
    pub fn is_sampled(&self) -> bool {
        *self != SamplingPolicy::Exact
    }

    fn simpoint_config(&self) -> Option<SimPointConfig> {
        match *self {
            SamplingPolicy::Exact => None,
            SamplingPolicy::SimPoint {
                interval,
                max_phases,
            } => Some(SimPointConfig {
                interval,
                max_phases,
            }),
        }
    }
}

/// Campaign configuration: simulation window, warmup, seed and sampling
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    /// Measured instructions per run.
    pub instructions: u64,
    /// Warmup instructions before measurement (plus structure pre-warming).
    pub warmup: u64,
    /// Trace seed; campaigns are fully deterministic given the seed.
    pub seed: u64,
    /// Exact simulation or phase sampling. Sampled campaigns remain fully
    /// deterministic, but their counters are reconstructions, not replays.
    pub sampling: SamplingPolicy,
}

impl Default for Campaign {
    /// The default window: large enough for stable MPKI estimates on every
    /// catalog workload.
    fn default() -> Self {
        Campaign {
            instructions: 300_000,
            warmup: 60_000,
            seed: 42,
            sampling: SamplingPolicy::Exact,
        }
    }
}

impl Campaign {
    /// A reduced window for tests and quick exploration.
    pub fn quick() -> Self {
        Campaign {
            instructions: 60_000,
            warmup: 20_000,
            seed: 42,
            sampling: SamplingPolicy::Exact,
        }
    }

    /// Returns the campaign with the given sampling policy.
    pub fn with_sampling(mut self, sampling: SamplingPolicy) -> Self {
        self.sampling = sampling;
        self
    }

    /// Measures every benchmark on every machine.
    pub fn measure(&self, benchmarks: &[Benchmark], machines: &[MachineConfig]) -> CampaignResult {
        let profiles: Vec<WorkloadProfile> =
            benchmarks.iter().map(|b| b.profile().clone()).collect();
        self.measure_profiles(&profiles, machines)
    }

    /// Measures arbitrary workload profiles (used for input-set variants)
    /// on every machine.
    pub fn measure_profiles(
        &self,
        profiles: &[WorkloadProfile],
        machines: &[MachineConfig],
    ) -> CampaignResult {
        if let Some(executor) = installed_executor() {
            return executor.measure_profiles(self, profiles, machines);
        }
        self.measure_profiles_builtin(profiles, machines)
    }

    /// The builtin backend: simulates the grid one workload row at a time
    /// through the fused fleet kernel — each row expands its trace once and
    /// steps every machine per instruction (see
    /// [`horizon_uarch::FleetSimulator`]) — fanning rows out across
    /// threads. Bypasses any installed executor (executors use
    /// [`Campaign::measure_fleet`] instead, so there is no recursion
    /// hazard either way).
    pub fn measure_profiles_builtin(
        &self,
        profiles: &[WorkloadProfile],
        machines: &[MachineConfig],
    ) -> CampaignResult {
        let workload_names: Vec<String> = profiles.iter().map(|p| p.name().to_string()).collect();
        let machine_names: Vec<String> = machines.iter().map(|m| m.name.clone()).collect();

        // One row of measurements per workload; rows are independent, so
        // fan out across threads.
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(profiles.len().max(1));
        let mut rows: Vec<Vec<Measurement>> = Vec::with_capacity(profiles.len());
        if threads <= 1 || profiles.len() <= 1 {
            for p in profiles {
                rows.push(self.measure_fleet(p, machines, || TraceGenerator::new(p, self.seed)));
            }
        } else {
            let chunk = profiles.len().div_ceil(threads);
            let results: Vec<Vec<Vec<Measurement>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = profiles
                    .chunks(chunk)
                    .map(|ps| {
                        scope.spawn(move || {
                            ps.iter()
                                .map(|p| {
                                    self.measure_fleet(p, machines, || {
                                        TraceGenerator::new(p, self.seed)
                                    })
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("no panics"))
                    .collect()
            });
            for group in results {
                rows.extend(group);
            }
        }

        CampaignResult {
            workload_names,
            machine_names,
            measurements: rows,
        }
    }

    /// Simulates one workload on a whole fleet of machines: the trace
    /// streams once and structures shared between machine configurations
    /// are simulated once (see [`horizon_uarch::FleetSimulator`]).
    ///
    /// `source` is a restartable instruction source: every call must
    /// return, from position 0, the stream
    /// `TraceGenerator::new(profile, self.seed)` would expand, at least
    /// `warmup + instructions` long — the generator itself, or a packed
    /// trace replayed from `horizon-tracestore`. An exact campaign calls
    /// it once; a SimPoint campaign calls it twice, once to fingerprint
    /// the intervals and once for the stitched simulation (see
    /// `horizon-simpoint`). Fully deterministic: the result depends only
    /// on `(profile, machines, instructions, warmup, seed, sampling)`.
    pub fn measure_fleet<I: Iterator<Item = Instruction>>(
        &self,
        profile: &WorkloadProfile,
        machines: &[MachineConfig],
        mut source: impl FnMut() -> I,
    ) -> Vec<Measurement> {
        let counters = match self.sampling.simpoint_config() {
            None => FleetSimulator::new(machines)
                .with_warmup(self.warmup)
                .run_trace(profile, self.instructions, source()),
            Some(config) => {
                horizon_simpoint::sample_fleet(
                    &config,
                    profile,
                    machines,
                    self.warmup,
                    self.instructions,
                    source,
                )
                .1
            }
        };
        counters
            .into_iter()
            .zip(machines)
            .map(|(counters, machine)| {
                let power = PowerModel::for_machine(machine).estimate(&counters, machine);
                Measurement { counters, power }
            })
            .collect()
    }
}

/// All measurements of a campaign: a workload × machine grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    workload_names: Vec<String>,
    machine_names: Vec<String>,
    /// `measurements[workload][machine]`.
    measurements: Vec<Vec<Measurement>>,
}

impl CampaignResult {
    /// Assembles a result from its parts (for alternative executors).
    ///
    /// # Panics
    ///
    /// Panics if the measurement grid's shape does not match the name
    /// lists.
    pub fn from_grid(
        workload_names: Vec<String>,
        machine_names: Vec<String>,
        measurements: Vec<Vec<Measurement>>,
    ) -> CampaignResult {
        assert_eq!(measurements.len(), workload_names.len(), "row count");
        for row in &measurements {
            assert_eq!(row.len(), machine_names.len(), "column count");
        }
        CampaignResult {
            workload_names,
            machine_names,
            measurements,
        }
    }

    /// Workload names, in measurement order.
    pub fn workloads(&self) -> &[String] {
        &self.workload_names
    }

    /// Machine names, in measurement order.
    pub fn machines(&self) -> &[String] {
        &self.machine_names
    }

    /// The measurement for a workload/machine index pair.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn at(&self, workload: usize, machine: usize) -> &Measurement {
        &self.measurements[workload][machine]
    }

    /// Looks a measurement up by names.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotFound`] if either name is unknown.
    pub fn lookup(&self, workload: &str, machine: &str) -> Result<&Measurement, CoreError> {
        let w = self.workload_index(workload)?;
        let m = self
            .machine_names
            .iter()
            .position(|n| n == machine)
            .ok_or_else(|| CoreError::NotFound {
                kind: "machine",
                name: machine.to_string(),
            })?;
        Ok(&self.measurements[w][m])
    }

    /// Index of a workload by name.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotFound`] for unknown names.
    pub fn workload_index(&self, workload: &str) -> Result<usize, CoreError> {
        self.workload_names
            .iter()
            .position(|n| n == workload)
            .ok_or_else(|| CoreError::NotFound {
                kind: "workload",
                name: workload.to_string(),
            })
    }

    /// Restricts the result to a subset of workloads (by index, in order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_workloads(&self, indices: &[usize]) -> CampaignResult {
        CampaignResult {
            workload_names: indices
                .iter()
                .map(|&i| self.workload_names[i].clone())
                .collect(),
            machine_names: self.machine_names.clone(),
            measurements: indices
                .iter()
                .map(|&i| self.measurements[i].clone())
                .collect(),
        }
    }

    /// Restricts the result to a subset of machines (by index, in order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_machines(&self, indices: &[usize]) -> CampaignResult {
        CampaignResult {
            workload_names: self.workload_names.clone(),
            machine_names: indices
                .iter()
                .map(|&m| self.machine_names[m].clone())
                .collect(),
            measurements: self
                .measurements
                .iter()
                .map(|row| indices.iter().map(|&m| row[m].clone()).collect())
                .collect(),
        }
    }

    /// Exports the campaign as CSV: one row per (workload, machine) pair,
    /// one column per metric — ready for external plotting tools.
    pub fn to_csv(&self, metrics: &[crate::metrics::Metric]) -> String {
        let mut out = String::from("workload,machine");
        for m in metrics {
            out.push(',');
            out.push_str(m.label());
        }
        out.push('\n');
        for (w, workload) in self.workload_names.iter().enumerate() {
            for (m, machine) in self.machine_names.iter().enumerate() {
                out.push_str(&format!("\"{workload}\",\"{machine}\""));
                for metric in metrics {
                    out.push_str(&format!(",{:.6}", metric.extract(self.at(w, m))));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Merges two campaigns over the same machines (e.g. CPU2017 + CPU2006).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if the machine lists differ.
    pub fn concat(&self, other: &CampaignResult) -> Result<CampaignResult, CoreError> {
        if self.machine_names != other.machine_names {
            return Err(CoreError::InvalidArgument {
                reason: "cannot concatenate campaigns over different machines".into(),
            });
        }
        let mut workload_names = self.workload_names.clone();
        workload_names.extend(other.workload_names.iter().cloned());
        let mut measurements = self.measurements.clone();
        measurements.extend(other.measurements.iter().cloned());
        Ok(CampaignResult {
            workload_names,
            machine_names: self.machine_names.clone(),
            measurements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horizon_workloads::cpu2017;

    fn tiny_campaign() -> CampaignResult {
        let benchmarks: Vec<Benchmark> = cpu2017::speed_int().into_iter().take(3).collect();
        let machines = vec![MachineConfig::skylake_i7_6700(), MachineConfig::sparc_t4()];
        Campaign {
            instructions: 20_000,
            warmup: 5_000,
            seed: 7,
            ..Campaign::default()
        }
        .measure(&benchmarks, &machines)
    }

    #[test]
    fn grid_shape_and_names() {
        let r = tiny_campaign();
        assert_eq!(r.workloads().len(), 3);
        assert_eq!(r.machines().len(), 2);
        assert_eq!(r.workloads()[0], "600.perlbench_s");
        let m = r.at(0, 0);
        assert_eq!(m.counters.instructions, 20_000);
        assert!(m.power.core_watts > 0.0);
    }

    #[test]
    fn lookup_by_name() {
        let r = tiny_campaign();
        assert!(r.lookup("602.gcc_s", "SPARC T4").is_ok());
        assert!(matches!(
            r.lookup("nope", "SPARC T4"),
            Err(CoreError::NotFound {
                kind: "workload",
                ..
            })
        ));
        assert!(matches!(
            r.lookup("602.gcc_s", "nope"),
            Err(CoreError::NotFound {
                kind: "machine",
                ..
            })
        ));
    }

    #[test]
    fn deterministic_across_runs_and_threading() {
        let a = tiny_campaign();
        let b = tiny_campaign();
        assert_eq!(a, b);
    }

    #[test]
    fn select_and_concat() {
        let r = tiny_campaign();
        let sub = r.select_workloads(&[2, 0]);
        assert_eq!(sub.workloads(), &["605.mcf_s", "600.perlbench_s"]);
        assert_eq!(sub.at(1, 0), r.at(0, 0));

        let merged = r.concat(&sub).unwrap();
        assert_eq!(merged.workloads().len(), 5);

        let other_machines =
            Campaign::quick().measure(&cpu2017::speed_int()[..1], &[MachineConfig::opteron_2435()]);
        assert!(r.concat(&other_machines).is_err());
    }

    #[test]
    fn select_machines_projects_columns() {
        let r = tiny_campaign();
        let sub = r.select_machines(&[1]);
        assert_eq!(sub.machines(), &["SPARC T4"]);
        assert_eq!(sub.workloads().len(), 3);
        assert_eq!(sub.at(0, 0), r.at(0, 1));
    }

    #[test]
    fn csv_export_shape() {
        use crate::metrics::Metric;
        let r = tiny_campaign();
        let csv = r.to_csv(&[Metric::Cpi, Metric::L1DMpki]);
        let lines: Vec<&str> = csv.lines().collect();
        // Header + workloads × machines rows.
        assert_eq!(lines.len(), 1 + 3 * 2);
        assert_eq!(lines[0], "workload,machine,CPI,L1D_MPKI");
        assert!(lines[1].starts_with("\"600.perlbench_s\",\"Intel Core i7-6700\","));
        // Every data row has 4 comma-separated fields.
        for line in &lines[1..] {
            assert_eq!(line.matches(',').count(), 3, "{line}");
        }
    }

    #[test]
    fn different_machines_produce_different_counters() {
        let r = tiny_campaign();
        // mcf on Skylake vs T4: distinct cache geometry → distinct misses.
        let sky = r.lookup("605.mcf_s", "Intel Core i7-6700").unwrap();
        let t4 = r.lookup("605.mcf_s", "SPARC T4").unwrap();
        assert_ne!(sky.counters.l1d_misses, t4.counters.l1d_misses);
    }
}
