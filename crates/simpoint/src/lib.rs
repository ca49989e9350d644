//! SimPoint-style phase sampling for trace-driven simulation.
//!
//! Full-window fleet simulation is the cost center of every campaign: the
//! default window steps 360k instructions through up to seven machine
//! models per workload. Program behavior, however, is phased — long
//! stretches of a trace repeat the same kind mix, working set and branch
//! behavior. This crate exploits that the classic SimPoint way:
//!
//! 1. slice the measured window into fixed-size **intervals**,
//! 2. fingerprint each interval with a **behavior vector** (kind mix,
//!    hashed pc/branch-target working-set signature, load/store locality),
//! 3. **cluster** the vectors with deterministic k-means
//!    ([`horizon_cluster::kmeans`]),
//! 4. simulate only each cluster's **representative** interval, stitched
//!    in trace order through **one** persistent [`FleetSimulator`] state
//!    (skipped instructions still update every cache, TLB and predictor
//!    — functional warming), and
//! 5. reconstruct full-window counters as `Σ weight_c × counters(rep_c)`.
//!
//! The result is approximate by design; its contract is a *measured* error
//! budget (see the `sampling_equivalence` harness and DESIGN.md §15), not
//! bit-exactness. Everything here is deterministic: the same trace and
//! config produce a bit-identical [`SimPointPlan`] and reconstruction on
//! every run, platform and thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use horizon_cluster::kmeans;
use horizon_trace::{Instruction, Kind, WorkloadProfile, CACHE_LINE_BYTES};
use horizon_uarch::{Counters, CpiStack, FleetSimulator, MachineConfig, TraceSegment};
use serde::{Deserialize, Serialize};

/// Sampling knobs: interval length and phase budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SimPointConfig {
    /// Instructions per fingerprinted interval (also caps the initial
    /// detailed warmup before the first slice).
    pub interval: u64,
    /// Maximum number of phases (k-means cluster budget). A short tail
    /// interval, when the window is not a multiple of `interval`, is always
    /// simulated exactly and may add one extra phase.
    pub max_phases: u64,
}

impl SimPointConfig {
    /// Default interval length: 30 intervals across the default 300k
    /// window — fine enough to resolve phases, long enough that each
    /// slice's counters are not dominated by rare-event noise.
    pub const DEFAULT_INTERVAL: u64 = 10_000;
    /// Default phase budget: with [`Self::DEFAULT_INTERVAL`] this bounds
    /// detailed simulation at `(1 + 6) × 10k = 70k` instructions per
    /// (workload, fleet) pair against the default 360k full window — a
    /// ≥5× reduction.
    pub const DEFAULT_MAX_PHASES: u64 = 6;
}

impl Default for SimPointConfig {
    fn default() -> Self {
        SimPointConfig {
            interval: Self::DEFAULT_INTERVAL,
            max_phases: Self::DEFAULT_MAX_PHASES,
        }
    }
}

/// One selected phase: a representative interval plus its cluster weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimPointPhase {
    /// Number of intervals this representative stands for.
    pub weight: u64,
    /// Start of the representative interval, in instructions from the
    /// beginning of the *measured* window (campaign warmup excluded).
    pub start: u64,
    /// End (exclusive) of the representative interval.
    pub end: u64,
}

/// A deterministic sampling plan for one `(profile, seed, window)` trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimPointPlan {
    /// Interval length the plan was built with.
    pub interval: u64,
    /// Measured-window instructions the plan reconstructs.
    pub instructions: u64,
    /// Number of fingerprinted intervals (including any short tail).
    pub intervals: u64,
    /// Selected phases, sorted by `start` ascending.
    pub phases: Vec<SimPointPhase>,
}

impl SimPointPlan {
    /// Total instructions the reconstruction accounts for:
    /// `Σ weight × (end − start)`. Always equals [`Self::instructions`].
    pub fn weighted_instructions(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.weight * (p.end - p.start))
            .sum()
    }

    /// Instructions whose counters are **measured** — the representative
    /// intervals themselves, `Σ (end − start)`. This is the detailed
    /// simulation footprint that scales with a simulator's per-instruction
    /// cost, and the denominator of the sampling speedup.
    pub fn sampled_instructions(&self) -> u64 {
        self.phases.iter().map(|p| p.end - p.start).sum()
    }

    /// Instructions consumed for state warming only, when this plan runs
    /// with the given campaign `warmup`: the warm-bubble before each slice
    /// (full-state, detailed but unmeasured) plus the functionally warmed
    /// gaps (branch outcomes and TLB probes only). Together with
    /// [`Self::sampled_instructions`] this covers the stream up to the
    /// last phase's end.
    pub fn warmed_instructions(&self, warmup: u64) -> u64 {
        let Some(last) = self.phases.last() else {
            return 0;
        };
        (warmup + last.end).saturating_sub(self.sampled_instructions())
    }
}

/// Behavior-vector dimensions: 6 kind fractions, taken/kernel fractions,
/// 2 locality fractions, 16 hashed pc-line buckets, 8 hashed data-line
/// buckets.
const PC_BUCKETS: usize = 16;
const DATA_BUCKETS: usize = 8;
const DIMS: usize = 10 + PC_BUCKETS + DATA_BUCKETS;

/// splitmix64 finalizer — spreads line addresses across histogram buckets.
fn bucket(x: u64, buckets: usize) -> usize {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % buckets as u64) as usize
}

/// Per-interval feature accumulator; interval-local so fingerprints do not
/// depend on where interval boundaries fall relative to earlier intervals.
#[derive(Default)]
struct IntervalFeatures {
    len: u64,
    loads: u64,
    stores: u64,
    branches: u64,
    int_alu: u64,
    fp_alu: u64,
    simd: u64,
    taken: u64,
    kernel: u64,
    new_pc_lines: u64,
    data_line_reuse: u64,
    pc_hist: [u64; PC_BUCKETS],
    data_hist: [u64; DATA_BUCKETS],
    prev_pc_line: Option<u64>,
    prev_data_line: Option<u64>,
}

impl IntervalFeatures {
    fn note(&mut self, inst: &Instruction) {
        self.len += 1;
        let pc_line = inst.pc / CACHE_LINE_BYTES;
        if self.prev_pc_line != Some(pc_line) {
            self.new_pc_lines += 1;
        }
        self.prev_pc_line = Some(pc_line);
        self.pc_hist[bucket(pc_line, PC_BUCKETS)] += 1;
        if inst.kernel {
            self.kernel += 1;
        }
        match inst.kind {
            Kind::Load { addr } | Kind::Store { addr } => {
                if matches!(inst.kind, Kind::Load { .. }) {
                    self.loads += 1;
                } else {
                    self.stores += 1;
                }
                let line = addr / CACHE_LINE_BYTES;
                if self.prev_data_line == Some(line) {
                    self.data_line_reuse += 1;
                }
                self.prev_data_line = Some(line);
                self.data_hist[bucket(line, DATA_BUCKETS)] += 1;
            }
            Kind::Branch { target, taken } => {
                self.branches += 1;
                if taken {
                    self.taken += 1;
                }
                // Branch targets join the code working-set signature.
                self.pc_hist[bucket(target / CACHE_LINE_BYTES, PC_BUCKETS)] += 1;
            }
            Kind::IntAlu => self.int_alu += 1,
            Kind::FpAlu => self.fp_alu += 1,
            Kind::Simd => self.simd += 1,
        }
    }

    fn vector(&self) -> Vec<f64> {
        let n = self.len.max(1) as f64;
        let mut v = Vec::with_capacity(DIMS);
        for count in [
            self.loads,
            self.stores,
            self.branches,
            self.int_alu,
            self.fp_alu,
            self.simd,
            self.taken,
            self.kernel,
            self.new_pc_lines,
            self.data_line_reuse,
        ] {
            v.push(count as f64 / n);
        }
        // pc_hist also counts branch targets, so normalize by its own mass.
        let pc_mass = self.pc_hist.iter().sum::<u64>().max(1) as f64;
        v.extend(self.pc_hist.iter().map(|&c| c as f64 / pc_mass));
        v.extend(self.data_hist.iter().map(|&c| c as f64 / n));
        v
    }
}

/// Builds a sampling plan by fingerprinting and clustering the measured
/// window of `source`.
///
/// `source` must reproduce the stream `TraceGenerator::new(profile, seed)`
/// would expand (a packed-trace replay qualifies); the first `warmup`
/// items are skipped and the next `instructions` items are fingerprinted.
/// A source that ends early simply yields a plan over the instructions it
/// produced.
///
/// When the window holds no more than `config.max_phases` full intervals,
/// every interval becomes its own weight-1 phase (exact coverage — no
/// savings, no clustering error).
pub fn plan(
    config: &SimPointConfig,
    warmup: u64,
    instructions: u64,
    mut source: impl Iterator<Item = Instruction>,
) -> SimPointPlan {
    let interval = config.interval.max(1);
    let max_phases = config.max_phases.max(1) as usize;
    if warmup > 0 {
        source.nth(warmup as usize - 1);
    }

    let mut vectors: Vec<Vec<f64>> = Vec::new();
    let mut lengths: Vec<u64> = Vec::new();
    let mut current = IntervalFeatures::default();
    let mut seen = 0u64;
    for inst in source.take(instructions as usize) {
        current.note(&inst);
        seen += 1;
        if current.len == interval {
            vectors.push(current.vector());
            lengths.push(current.len);
            current = IntervalFeatures::default();
        }
    }
    if current.len > 0 {
        vectors.push(current.vector());
        lengths.push(current.len);
    }

    let has_tail = lengths.last().is_some_and(|&l| l < interval);
    let full = lengths.len() - usize::from(has_tail);

    let mut phases: Vec<SimPointPhase> = Vec::new();
    if full <= max_phases {
        for i in 0..full {
            phases.push(SimPointPhase {
                weight: 1,
                start: i as u64 * interval,
                end: (i as u64 + 1) * interval,
            });
        }
    } else {
        let km = kmeans(&vectors[..full], max_phases).expect("non-empty intervals");
        for members in km.clusters() {
            if members.is_empty() {
                continue;
            }
            // Representative = the cluster's *median-position* member, not
            // its feature-space medoid. The fingerprint vector captures
            // program behavior, which for many workloads is stationary —
            // cluster membership is then near-arbitrary and a medoid can
            // land anywhere in the window. Microarchitectural state keeps
            // drifting long after warmup (predictors still training,
            // large caches still filling), so an early-window medoid
            // would weight its whole cluster with inflated transient
            // counts. Members are index-sorted (kmeans assigns in order),
            // so the median member sits mid-drift and the bias averages
            // out; for genuinely phased workloads the median member still
            // belongs to the cluster, so representativeness is kept.
            let rep = members[members.len() / 2] as u64;
            phases.push(SimPointPhase {
                weight: members.len() as u64,
                start: rep * interval,
                end: (rep + 1) * interval,
            });
        }
    }
    if has_tail {
        // The odd-sized tail cannot stand for (or be stood for by) a
        // full-length interval; always simulate it exactly.
        phases.push(SimPointPhase {
            weight: 1,
            start: full as u64 * interval,
            end: seen,
        });
    }
    phases.sort_by_key(|p| p.start);

    SimPointPlan {
        interval,
        instructions: seen,
        intervals: lengths.len() as u64,
        phases,
    }
}

/// Simulates a plan's representative slices **stitched** through one
/// persistent fleet state and reconstructs full-window counters, one
/// [`Counters`] per machine (same order as `machines`).
///
/// `source` must reproduce the `(profile, seed)` stream from position 0;
/// it is consumed in a single pass. Each slice is preceded by a
/// **warm-bubble** of up to one interval of full-state warming (detailed
/// simulation with measurement disabled), re-establishing the recent
/// cache working set before counters are read; the rest of every skipped
/// stretch is functionally warmed (every cache, TLB and predictor update,
/// unmeasured), so all structures stay exactly on the full run's
/// trajectory. The weighted sum
/// `Σ weight × counters(rep)` is then taken field-wise and the CPI stack
/// recomputed from the reconstructed totals.
pub fn simulate(
    simpoint_plan: &SimPointPlan,
    profile: &WorkloadProfile,
    machines: &[MachineConfig],
    warmup: u64,
    source: impl Iterator<Item = Instruction>,
) -> Vec<Counters> {
    let mut segments = Vec::with_capacity(simpoint_plan.phases.len());
    let mut pos = 0u64;
    for phase in &simpoint_plan.phases {
        let abs_start = warmup + phase.start;
        let gap = abs_start - pos;
        let bubble = simpoint_plan.interval.min(gap);
        segments.push(TraceSegment {
            skip: gap - bubble,
            warmup: bubble,
            measure: phase.end - phase.start,
        });
        pos = warmup + phase.end;
    }
    let per_phase = FleetSimulator::new(machines).run_trace_segments(profile, &segments, source);

    let mut acc = vec![Counters::default(); machines.len()];
    for (counters, phase) in per_phase.iter().zip(&simpoint_plan.phases) {
        for (a, c) in acc.iter_mut().zip(counters) {
            add_weighted(a, c, phase.weight);
        }
    }
    for (a, machine) in acc.iter_mut().zip(machines) {
        a.cpi_stack = CpiStack::compute(a, machine);
    }
    acc
}

/// Plans and simulates in one call — the campaign entry point — and emits
/// `simpoint.*` telemetry (runs, intervals, phases, detailed vs. warmed
/// vs. skipped instructions) through the process-wide recorder.
///
/// `mk_source` is invoked twice — once for the fingerprint pass and once
/// for the stitched simulation — and must return the same stream from
/// position 0 both times (re-open a trace replay, or re-seed a generator).
pub fn sample_fleet<I: Iterator<Item = Instruction>>(
    config: &SimPointConfig,
    profile: &WorkloadProfile,
    machines: &[MachineConfig],
    warmup: u64,
    instructions: u64,
    mut mk_source: impl FnMut() -> I,
) -> (SimPointPlan, Vec<Counters>) {
    let mut span = horizon_telemetry::span("simpoint.sample");
    span.record("workload", profile.name());
    let simpoint_plan = plan(config, warmup, instructions, mk_source());
    let counters = simulate(&simpoint_plan, profile, machines, warmup, mk_source());
    let sampled = simpoint_plan.sampled_instructions();
    let full_window = warmup + simpoint_plan.instructions;
    horizon_telemetry::counter_add("simpoint.runs", 1);
    horizon_telemetry::counter_add("simpoint.intervals", simpoint_plan.intervals);
    horizon_telemetry::counter_add("simpoint.phases", simpoint_plan.phases.len() as u64);
    horizon_telemetry::counter_add("simpoint.sampled_instructions", sampled);
    horizon_telemetry::counter_add(
        "simpoint.warmed_instructions",
        simpoint_plan.warmed_instructions(warmup),
    );
    horizon_telemetry::counter_add(
        "simpoint.skipped_instructions",
        full_window.saturating_sub(sampled),
    );
    (simpoint_plan, counters)
}

/// Field-wise `acc += weight × c` over the raw event counts; the f64
/// trace metadata (dependency intensity, frequency) is identical across
/// slices and copied through.
fn add_weighted(acc: &mut Counters, c: &Counters, weight: u64) {
    acc.instructions += weight * c.instructions;
    acc.loads += weight * c.loads;
    acc.stores += weight * c.stores;
    acc.branches += weight * c.branches;
    acc.taken_branches += weight * c.taken_branches;
    acc.mispredicts += weight * c.mispredicts;
    acc.fp_ops += weight * c.fp_ops;
    acc.simd_ops += weight * c.simd_ops;
    acc.kernel_instructions += weight * c.kernel_instructions;
    acc.l1i_accesses += weight * c.l1i_accesses;
    acc.l1i_misses += weight * c.l1i_misses;
    acc.l1d_accesses += weight * c.l1d_accesses;
    acc.l1d_misses += weight * c.l1d_misses;
    acc.l2i_accesses += weight * c.l2i_accesses;
    acc.l2i_misses += weight * c.l2i_misses;
    acc.l2d_accesses += weight * c.l2d_accesses;
    acc.l2d_misses += weight * c.l2d_misses;
    acc.l3_accesses += weight * c.l3_accesses;
    acc.l3_misses += weight * c.l3_misses;
    acc.memory_accesses += weight * c.memory_accesses;
    acc.itlb_misses += weight * c.itlb_misses;
    acc.dtlb_misses += weight * c.dtlb_misses;
    acc.page_walks_instruction += weight * c.page_walks_instruction;
    acc.page_walks_data += weight * c.page_walks_data;
    acc.dependency_intensity = c.dependency_intensity;
    acc.freq_ghz = c.freq_ghz;
}

#[cfg(test)]
mod tests {
    use super::*;
    use horizon_trace::TraceGenerator;
    use horizon_workloads::cpu2017;

    fn profile() -> WorkloadProfile {
        cpu2017::speed_int()[0].profile().clone()
    }

    fn generator(p: &WorkloadProfile) -> TraceGenerator {
        TraceGenerator::new(p, 42)
    }

    #[test]
    fn weights_cover_the_window_exactly() {
        let p = profile();
        let cfg = SimPointConfig {
            interval: 1_000,
            max_phases: 4,
        };
        let sp = plan(&cfg, 2_000, 23_500, generator(&p));
        assert_eq!(sp.instructions, 23_500);
        assert_eq!(sp.intervals, 24);
        assert_eq!(sp.weighted_instructions(), 23_500);
        // Cluster budget plus the forced tail phase.
        assert!(sp.phases.len() <= 5, "{} phases", sp.phases.len());
        let tail = sp.phases.last().unwrap();
        assert_eq!((tail.start, tail.end, tail.weight), (23_000, 23_500, 1));
    }

    #[test]
    fn plan_is_deterministic_and_sorted() {
        let p = profile();
        let cfg = SimPointConfig::default();
        let a = plan(&cfg, 5_000, 40_000, generator(&p));
        let b = plan(&cfg, 5_000, 40_000, generator(&p));
        assert_eq!(a, b);
        assert!(a.phases.windows(2).all(|w| w[0].start < w[1].start));
    }

    #[test]
    fn small_windows_get_exact_coverage() {
        let p = profile();
        let cfg = SimPointConfig {
            interval: 10_000,
            max_phases: 6,
        };
        let sp = plan(&cfg, 0, 30_000, generator(&p));
        assert_eq!(sp.phases.len(), 3);
        assert!(sp.phases.iter().all(|ph| ph.weight == 1));
    }

    #[test]
    fn reconstruction_tracks_the_exact_run() {
        let p = profile();
        let machines = [MachineConfig::skylake_i7_6700()];
        let (warmup, instructions) = (10_000u64, 60_000u64);
        let exact = FleetSimulator::new(&machines)
            .with_warmup(warmup)
            .run(&p, instructions, 42);
        let cfg = SimPointConfig {
            interval: 5_000,
            max_phases: 6,
        };
        let (sp, sampled) =
            sample_fleet(&cfg, &p, &machines, warmup, instructions, || generator(&p));
        assert_eq!(sampled[0].instructions, instructions);
        assert!(sp.sampled_instructions() < warmup + instructions);
        let exact_cpi = exact[0].cpi();
        let sampled_cpi = sampled[0].cpi();
        let err = (sampled_cpi - exact_cpi).abs() / exact_cpi;
        assert!(
            err < 0.10,
            "sampled CPI {sampled_cpi:.4} vs exact {exact_cpi:.4} ({:.2}% off)",
            err * 100.0
        );
    }

    #[test]
    fn simulate_is_deterministic() {
        let p = profile();
        let machines = [MachineConfig::skylake_i7_6700(), MachineConfig::sparc_t4()];
        let cfg = SimPointConfig {
            interval: 2_000,
            max_phases: 4,
        };
        let sp = plan(&cfg, 3_000, 20_000, generator(&p));
        let a = simulate(&sp, &p, &machines, 3_000, generator(&p));
        let b = simulate(&sp, &p, &machines, 3_000, generator(&p));
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_ne!(a[0].l1d_misses, a[1].l1d_misses);
    }

    #[test]
    fn empty_window_yields_empty_plan() {
        let p = profile();
        let cfg = SimPointConfig::default();
        let sp = plan(&cfg, 0, 0, generator(&p));
        assert_eq!(sp.instructions, 0);
        assert!(sp.phases.is_empty());
        let machines = [MachineConfig::skylake_i7_6700()];
        let counters = simulate(&sp, &p, &machines, 0, generator(&p));
        assert_eq!(counters[0].instructions, 0);
    }

    #[test]
    fn replay_and_generator_agree_on_the_plan() {
        // A plan built from any faithful reproduction of the stream must be
        // identical — here simulated by collecting the generator output.
        let p = profile();
        let cfg = SimPointConfig {
            interval: 1_000,
            max_phases: 3,
        };
        let collected: Vec<Instruction> = generator(&p).take(15_000).collect();
        let a = plan(&cfg, 2_000, 13_000, generator(&p));
        let b = plan(&cfg, 2_000, 13_000, collected.into_iter());
        assert_eq!(a, b);
    }
}
