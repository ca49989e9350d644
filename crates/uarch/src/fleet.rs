//! Trace-once simulation of one workload across a fleet of machines.
//!
//! The paper characterizes every workload on seven machines (Table I).
//! The instruction trace for a (profile, seed) pair is machine-independent,
//! so simulating the fleet as N independent [`CoreSimulator`] runs expands
//! the same trace N times and pays the generator's cost N times. The
//! [`FleetSimulator`] streams the trace **once** and fans each instruction
//! out across every machine's microarchitectural state, producing counters
//! bit-identical to the independent runs.
//!
//! Two observations make the fused kernel fast *and* exact:
//!
//! 1. **Structure purity.** Each machine's caches, TLBs and branch
//!    predictor consume only the (pc, data address, branch outcome)
//!    streams, which depend on (profile, seed) alone; structures of
//!    different machines never interact. Stepping every structure with the
//!    identical event in program order therefore visits exactly the states
//!    of the independent simulation — and the per-instruction fan-out keeps
//!    the structures' loop-carried update chains independent, so they
//!    overlap in the host pipeline just as an inline simulation's do.
//!
//! 2. **Config-group deduplication.** A structure's entire evolution is a
//!    deterministic function of (its configuration, its input stream). The
//!    input streams of L1 structures are machine-independent, so machines
//!    with an identical L1 front-end — the ([`CacheConfig`] of L1I/L1D
//!    plus prefetcher) triple, an L1 TLB config, or a [`PredictorKind`] —
//!    share **one** simulated instance and copy its counters. The shared
//!    levels (L2/L3, L2 TLB) are still per machine, but they are driven
//!    from the front-end's hit/miss/install outcomes and only do work on
//!    the rare events that reach them. In the paper's Table IV fleet this
//!    collapses 7 L1 cache front-ends to 4 and 7+7 L1 TLBs to 4+5, and
//!    pays trace generation once instead of 7 times.
//!
//! On top of the dedup, the kernel is *lane-stepped*: instead of fanning
//! each instruction out across every group, events are buffered into small
//! program-order blocks ([`LaneBatch`]) and each group lane advances over a
//! whole block at a time, structure-major. Shared-level lanes consume
//! position-merged event lists that reconstruct each machine's exact
//! per-instruction order; see `FleetState::run_batch` for the kernel order
//! and the bit-identity argument, and DESIGN.md §16 for the full write-up.
//!
//! Trace-side counters (instruction mix, taken branches, kernel
//! instructions) are likewise accumulated once at generation time. The
//! bit-identity is enforced by fixed-vector tests here and a property test
//! in `tests/fleet_equivalence.rs`.
//!
//! [`CoreSimulator`]: crate::CoreSimulator
//! [`CacheConfig`]: crate::CacheConfig
//! [`PredictorKind`]: crate::PredictorKind

use horizon_trace::{Instruction, Kind, TraceGenerator, WorkloadProfile};

use crate::branch::{BranchPredictor, PredictorKind};
use crate::cache::Cache;
use crate::cache::CacheConfig;
use crate::counters::Counters;
use crate::hierarchy::{AccessKind, DataFront, HierarchyConfig, L2Back, PrefetchConfig};
use crate::machine::MachineConfig;
use crate::prewarm::prewarm_regions;
use crate::tlb::{Tlb, TlbConfig, TlbHierarchyConfig};
use crate::topdown::CpiStack;

/// Deduplicates `keys`, returning the unique keys (first-occurrence order)
/// and, per input, the index of its unique key.
fn dedup_groups<K: PartialEq>(keys: Vec<K>) -> (Vec<K>, Vec<usize>) {
    let mut uniq: Vec<K> = Vec::new();
    let mut index = Vec::with_capacity(keys.len());
    for k in keys {
        match uniq.iter().position(|u| *u == k) {
            Some(i) => index.push(i),
            None => {
                uniq.push(k);
                index.push(uniq.len() - 1);
            }
        }
    }
    (uniq, index)
}

/// Per-event outcome bits of one data-front group.
const DATA_MISS: u8 = 1 << 1;
const INSTALL: u8 = 1 << 2;

/// Instructions buffered per lane batch before the group kernels drain it.
/// Big enough to amortize the per-group kernel setup and keep each
/// structure's clock/memo/hint state hot across a whole run of events;
/// small enough that every per-batch event list stays L1-resident.
const LANE_BLOCK: usize = 256;

/// One batch of per-structure event lists, filled in program order by
/// [`FleetState::step`] (and the prewarm walks) and drained by
/// [`FleetState::run_batch`]. Every list records its events' positions
/// within the batch, so the back-lane kernels can merge two lists back
/// into exact per-instruction order.
#[derive(Default)]
struct LaneBatch {
    /// Probes folded into this batch so far (also the next position).
    len: u32,
    /// `(position, pc)` of fetch probes that left the current line granule.
    fetch: Vec<(u32, u64)>,
    /// `(position, pc)` of fetch probes that left the current page granule.
    itlb: Vec<(u32, u64)>,
    /// `(position, address)` of every data access.
    data: Vec<(u32, u64)>,
    /// `(position, address)` of data accesses that left the page granule.
    dtlb: Vec<(u32, u64)>,
    /// `(pc, taken)` of branches, in program order.
    branches: Vec<(u64, bool)>,
}

impl LaneBatch {
    fn new() -> Self {
        LaneBatch {
            len: 0,
            fetch: Vec::with_capacity(LANE_BLOCK),
            itlb: Vec::with_capacity(LANE_BLOCK),
            data: Vec::with_capacity(LANE_BLOCK),
            dtlb: Vec::with_capacity(LANE_BLOCK),
            branches: Vec::with_capacity(LANE_BLOCK),
        }
    }

    fn clear(&mut self) {
        self.len = 0;
        self.fetch.clear();
        self.itlb.clear();
        self.data.clear();
        self.dtlb.clear();
        self.branches.clear();
    }
}

/// One machine-distinct shared-level cache (distinct full
/// [`HierarchyConfig`]), driven by its front groups' recorded outcomes.
struct CacheBackLane {
    back: L2Back,
    l1i_group: usize,
    data_group: usize,
}

/// One machine-distinct L2 TLB + page-walk accounting (distinct full
/// [`TlbHierarchyConfig`]), driven by the per-side front lanes.
struct TlbBackLane {
    l2: Option<Tlb>,
    walks_i: u64,
    walks_d: u64,
    itlb_group: usize,
    dtlb_group: usize,
}

impl TlbBackLane {
    /// Mirrors `TlbHierarchy::refill`: returns `true` when the refill
    /// required a page walk.
    #[inline]
    fn refill(&mut self, addr: u64) -> bool {
        match &mut self.l2 {
            Some(l2) => !l2.access(addr),
            None => true,
        }
    }
}

/// One shared branch predictor (distinct [`PredictorKind`]).
struct PredictorLane {
    predictor: Box<dyn BranchPredictor + Send>,
    mispredicts: u64,
}

/// Machine-independent counters accumulated once while the trace streams.
#[derive(Default)]
struct TraceCounts {
    instructions: u64,
    kernel_instructions: u64,
    loads: u64,
    stores: u64,
    branches: u64,
    taken_branches: u64,
    fp_ops: u64,
    simd_ops: u64,
}

impl TraceCounts {
    #[inline]
    fn note(&mut self, inst: &Instruction) {
        self.instructions += 1;
        self.kernel_instructions += inst.kernel as u64;
        match inst.kind {
            Kind::Load { .. } => self.loads += 1,
            Kind::Store { .. } => self.stores += 1,
            Kind::Branch { taken, .. } => {
                self.branches += 1;
                self.taken_branches += taken as u64;
            }
            Kind::FpAlu => self.fp_ops += 1,
            Kind::Simd => self.simd_ops += 1,
            Kind::IntAlu => {}
        }
    }
}

/// Warm-state counter snapshot of every group, taken after warmup so the
/// measured window can be isolated by subtraction (same bookkeeping as
/// `CoreSimulator::run`, per group instead of per machine).
struct GroupSnapshots {
    /// Per L1I group: (accesses, misses).
    l1is: Vec<(u64, u64)>,
    /// Per data-front group: (l1d_accesses, l1d_misses).
    datas: Vec<(u64, u64)>,
    /// Per cache back lane: (l2i_acc, l2i_miss, l2d_acc, l2d_miss, l3_acc,
    /// l3_miss, mem).
    cache_backs: Vec<(u64, u64, u64, u64, u64, u64, u64)>,
    /// Per I-TLB front group: misses.
    itlbs: Vec<u64>,
    /// Per D-TLB front group: misses.
    dtlbs: Vec<u64>,
    /// Per TLB back lane: (walks_i, walks_d).
    tlb_backs: Vec<(u64, u64)>,
    /// Per predictor lane: measured mispredicts so far.
    predictors: Vec<u64>,
}

/// One contiguous stretch of the trace handed to
/// [`FleetSimulator::run_trace_segments`]: `skip` instructions are dropped
/// from the measured stream (functionally warmed, never counted), then
/// `warmup` instructions run detailed but unmeasured, then `measure`
/// instructions are counted. Microarchitectural state persists across
/// segments — that carry-over is the stitched-sampling approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSegment {
    /// Instructions dropped before the detailed portion.
    pub skip: u64,
    /// Detailed but unmeasured instructions immediately before the window.
    pub warmup: u64,
    /// Measured instructions.
    pub measure: u64,
}

/// Simulates one workload on many machines from a single trace expansion.
///
/// Counters are bit-identical to running [`crate::CoreSimulator`] once per
/// machine with the same warmup/window/seed; trace generation, prewarm
/// address walks, instruction-mix accounting, and every structure shared
/// between machine configurations are paid once per fleet instead of once
/// per machine.
///
/// # Example
///
/// ```
/// use horizon_trace::WorkloadProfile;
/// use horizon_uarch::{CoreSimulator, FleetSimulator, MachineConfig};
///
/// let p = WorkloadProfile::builder("w").loads(0.25).build()?;
/// let machines = [MachineConfig::skylake_i7_6700(), MachineConfig::sparc_t4()];
/// let fleet = FleetSimulator::new(&machines).run(&p, 20_000, 7);
/// let solo = CoreSimulator::new(&machines[1]).run(&p, 20_000, 7);
/// assert_eq!(fleet[1], solo);
/// # Ok::<(), horizon_trace::ProfileError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FleetSimulator {
    machines: Vec<MachineConfig>,
    /// Instructions to run before counters start (cold-start warmup).
    warmup: u64,
}

impl FleetSimulator {
    /// Creates a fleet simulator with no warmup, like
    /// [`crate::CoreSimulator::new`].
    pub fn new(machines: &[MachineConfig]) -> Self {
        FleetSimulator {
            machines: machines.to_vec(),
            warmup: 0,
        }
    }

    /// Sets the warmup instruction count applied to every machine.
    pub fn with_warmup(mut self, instructions: u64) -> Self {
        self.warmup = instructions;
        self
    }

    /// The machines this fleet models, in result order.
    pub fn machines(&self) -> &[MachineConfig] {
        &self.machines
    }

    /// Runs `instructions` measured instructions of `profile` (after any
    /// warmup) on every machine and returns one [`Counters`] per machine,
    /// in [`FleetSimulator::machines`] order.
    pub fn run(&self, profile: &WorkloadProfile, instructions: u64, seed: u64) -> Vec<Counters> {
        self.run_trace(profile, instructions, TraceGenerator::new(profile, seed))
    }

    /// [`FleetSimulator::run`] with the instruction stream supplied by the
    /// caller instead of expanded in place — the replay entry point. Any
    /// `Iterator<Item = Instruction>` works: a live [`TraceGenerator`], a
    /// packed trace replayed from disk, or a synthetic test stream. The
    /// source must yield at least `warmup + instructions` items and must
    /// reproduce the generator stream exactly for counters to match
    /// [`FleetSimulator::run`]; `run` itself delegates here, so the two
    /// paths cannot drift.
    pub fn run_trace(
        &self,
        profile: &WorkloadProfile,
        instructions: u64,
        source: impl Iterator<Item = Instruction>,
    ) -> Vec<Counters> {
        let seg = TraceSegment {
            skip: 0,
            warmup: 0,
            measure: instructions,
        };
        self.run_trace_segments(profile, &[seg], source)
            .pop()
            .unwrap_or_default()
    }

    /// Runs a sequence of [`TraceSegment`]s through **one** persistent
    /// fleet state and returns per-segment, per-machine counters (outer
    /// index: segment; inner: [`FleetSimulator::machines`] order).
    ///
    /// This is the stitched-sampling entry point: skipped instructions
    /// are dropped from the measured stream but are *functionally warmed*
    /// SMARTS-style — they still perform every cache, TLB and predictor
    /// state update with measurement disabled, so all structures (slow-
    /// training TAGE tables and slow-filling last-level caches included)
    /// enter each measured segment with exactly the state the full run
    /// would have had. Reconstruction error is then pure sampling error,
    /// never state staleness. The simulator's own
    /// `warmup` runs detailed at the head of the stream, before the
    /// first segment; [`FleetSimulator::run_trace`] is exactly a
    /// single-segment call, so the two paths cannot drift.
    pub fn run_trace_segments(
        &self,
        profile: &WorkloadProfile,
        segments: &[TraceSegment],
        source: impl Iterator<Item = Instruction>,
    ) -> Vec<Vec<Counters>> {
        if self.machines.is_empty() {
            return segments.iter().map(|_| Vec::new()).collect();
        }
        let mut fleet = FleetState::new(&self.machines);

        if self.warmup > 0 || segments.iter().any(|s| s.warmup > 0) {
            let _prewarm_span = horizon_telemetry::span("sim.prewarm");
            fleet.prewarm(profile);
        }

        let mut gen = source;
        {
            let mut warmup_span = horizon_telemetry::span("sim.warmup");
            warmup_span.record("instructions", self.warmup);
            for inst in gen.by_ref().take(self.warmup as usize) {
                fleet.step(&inst, false);
            }
        }

        let mut out = Vec::with_capacity(segments.len());
        for seg in segments {
            for inst in gen.by_ref().take(seg.skip as usize) {
                fleet.warm_skipped(&inst);
            }
            for inst in gen.by_ref().take(seg.warmup as usize) {
                fleet.step(&inst, false);
            }
            fleet.flush_repeats();
            let warm = fleet.snapshots();

            let mut trace = TraceCounts::default();
            {
                let mut measure_span = horizon_telemetry::span("sim.measure");
                measure_span.record("instructions", seg.measure);
                for inst in gen.by_ref().take(seg.measure as usize) {
                    trace.note(&inst);
                    fleet.step(&inst, true);
                }
            }

            fleet.flush_repeats();
            out.push(fleet.assemble(&self.machines, profile, &trace, &warm));
        }
        out
    }
}

/// All shared group lanes plus the machine → group index maps.
struct FleetState {
    l1i_lanes: Vec<Cache>,
    data_lanes: Vec<DataFront>,
    cache_backs: Vec<CacheBackLane>,
    itlbs: Vec<Tlb>,
    dtlbs: Vec<Tlb>,
    tlb_backs: Vec<TlbBackLane>,
    predictors: Vec<PredictorLane>,
    /// Event accumulator for the current lane batch.
    batch: LaneBatch,
    /// Whether the buffered batch is measured. Uniform per batch: a flag
    /// change flushes the pending batch first.
    batch_measured: bool,
    /// Per L1I group: the current batch's miss list, `(position, pc)`.
    fetch_miss: Vec<Vec<(u32, u64)>>,
    /// Per data-front group: the current batch's outcome list —
    /// `(position, flags, install line, address)` for events with nonzero
    /// flags only.
    data_out: Vec<Vec<(u32, u8, u64, u64)>>,
    /// Per I-TLB group: the current batch's miss list, `(position, pc)`.
    itlb_miss: Vec<Vec<(u32, u64)>>,
    /// Per D-TLB group: the current batch's miss list,
    /// `(position, address)`.
    dtlb_miss: Vec<Vec<(u32, u64)>>,
    // Repeat-granule fast path: when the current probe address falls in the
    // same line/page as the immediately preceding probe of the same
    // structure set, that line is resident and already MRU in *every* group
    // (the preceding probe made it so, and nothing touched these structures
    // since), so the probe is a guaranteed hit that neither moves LRU order
    // nor can change any later victim choice. The fleet skips the whole
    // group loop and credits the hits in bulk at snapshot boundaries. The
    // granule is the finest across groups, so equality holds per group.
    last_fetch_line: u64,
    last_fetch_page: u64,
    last_data_page: u64,
    l1i_repeats: u64,
    itlb_repeats: u64,
    dtlb_repeats: u64,
    l1i_min_shift: u32,
    itlb_min_shift: u32,
    dtlb_min_shift: u32,
    /// Per machine: index into each group vector.
    l1i_of: Vec<usize>,
    data_of: Vec<usize>,
    cache_back_of: Vec<usize>,
    itlb_of: Vec<usize>,
    dtlb_of: Vec<usize>,
    tlb_back_of: Vec<usize>,
    predictor_of: Vec<usize>,
}

impl FleetState {
    fn new(machines: &[MachineConfig]) -> Self {
        type DataKey = (CacheConfig, PrefetchConfig);
        let data_key = |h: &HierarchyConfig| -> DataKey { (h.l1d, h.prefetch) };

        let (l1i_keys, l1i_of) =
            dedup_groups::<CacheConfig>(machines.iter().map(|m| m.hierarchy.l1i).collect());
        let (data_keys, data_of) =
            dedup_groups(machines.iter().map(|m| data_key(&m.hierarchy)).collect());
        let (back_keys, cache_back_of) =
            dedup_groups::<HierarchyConfig>(machines.iter().map(|m| m.hierarchy).collect());
        let (itlb_keys, itlb_of) =
            dedup_groups::<TlbConfig>(machines.iter().map(|m| m.tlb.l1i).collect());
        let (dtlb_keys, dtlb_of) =
            dedup_groups::<TlbConfig>(machines.iter().map(|m| m.tlb.l1d).collect());
        let (tlb_back_keys, tlb_back_of) =
            dedup_groups::<TlbHierarchyConfig>(machines.iter().map(|m| m.tlb).collect());
        let (pred_keys, predictor_of) =
            dedup_groups::<PredictorKind>(machines.iter().map(|m| m.predictor).collect());

        let cache_backs: Vec<CacheBackLane> = back_keys
            .iter()
            .map(|h| CacheBackLane {
                back: L2Back::new(h),
                l1i_group: l1i_keys.iter().position(|k| *k == h.l1i).unwrap(),
                data_group: data_keys.iter().position(|k| *k == data_key(h)).unwrap(),
            })
            .collect();
        let tlb_backs: Vec<TlbBackLane> = tlb_back_keys
            .iter()
            .map(|t| TlbBackLane {
                l2: t.l2.map(Tlb::new),
                walks_i: 0,
                walks_d: 0,
                itlb_group: itlb_keys.iter().position(|k| *k == t.l1i).unwrap(),
                dtlb_group: dtlb_keys.iter().position(|k| *k == t.l1d).unwrap(),
            })
            .collect();
        let min_shift =
            |it: &mut dyn Iterator<Item = u64>| it.map(|b| b.trailing_zeros()).min().unwrap_or(0);
        // Lane-dedup effectiveness counters: group lanes actually stepped
        // vs. machines riding them (7 machines → 37 lanes in Table IV,
        // where fully independent simulation would step 49 structures).
        let lane_groups = l1i_keys.len()
            + data_keys.len()
            + cache_backs.len()
            + itlb_keys.len()
            + dtlb_keys.len()
            + tlb_backs.len()
            + pred_keys.len();
        horizon_telemetry::counter_add("fleet.lane_groups", lane_groups as u64);
        horizon_telemetry::counter_add("fleet.laned_machines", machines.len() as u64);
        FleetState {
            batch: LaneBatch::new(),
            batch_measured: false,
            fetch_miss: vec![Vec::with_capacity(LANE_BLOCK); l1i_keys.len()],
            data_out: vec![Vec::with_capacity(LANE_BLOCK); data_keys.len()],
            itlb_miss: vec![Vec::with_capacity(LANE_BLOCK); itlb_keys.len()],
            dtlb_miss: vec![Vec::with_capacity(LANE_BLOCK); dtlb_keys.len()],
            last_fetch_line: u64::MAX,
            last_fetch_page: u64::MAX,
            last_data_page: u64::MAX,
            l1i_repeats: 0,
            itlb_repeats: 0,
            dtlb_repeats: 0,
            l1i_min_shift: min_shift(&mut l1i_keys.iter().map(|k| k.line_bytes)),
            itlb_min_shift: min_shift(&mut itlb_keys.iter().map(|k| k.page_bytes)),
            dtlb_min_shift: min_shift(&mut dtlb_keys.iter().map(|k| k.page_bytes)),
            l1i_lanes: l1i_keys.into_iter().map(Cache::new).collect(),
            data_lanes: data_keys
                .into_iter()
                .map(|(l1d, prefetch)| DataFront::new(l1d, prefetch))
                .collect(),
            cache_backs,
            itlbs: itlb_keys.into_iter().map(Tlb::new).collect(),
            dtlbs: dtlb_keys.into_iter().map(Tlb::new).collect(),
            tlb_backs,
            predictors: pred_keys
                .iter()
                .map(|k| PredictorLane {
                    predictor: k.build(),
                    mispredicts: 0,
                })
                .collect(),
            l1i_of,
            data_of,
            cache_back_of,
            itlb_of,
            dtlb_of,
            tlb_back_of,
            predictor_of,
        }
    }

    /// Folds one instruction into the current lane batch, draining through
    /// the group kernels when the batch fills or the measured flag flips.
    ///
    /// Per structure the batch replays the exact per-instruction call
    /// sequence of `CoreSimulator::run` (see [`FleetState::run_batch`]);
    /// structures are mutually independent, so deferring and regrouping
    /// events *between* them is invisible in the counters while letting
    /// every group's kernel run structure-major over a whole block.
    #[inline]
    fn step(&mut self, inst: &Instruction, measured: bool) {
        if measured != self.batch_measured {
            self.run_batch();
            self.batch_measured = measured;
        }
        let pc = inst.pc;
        let pos = self.batch.len;
        self.batch.len += 1;

        // Repeat-granule fast path (see the field docs): a granule-repeat
        // probe is a guaranteed MRU hit in every group, credited in bulk
        // at flush_repeats; only granule-crossing probes become events.
        let fetch_line = pc >> self.l1i_min_shift;
        if fetch_line == self.last_fetch_line {
            self.l1i_repeats += 1;
        } else {
            self.last_fetch_line = fetch_line;
            self.batch.fetch.push((pos, pc));
        }
        let fetch_page = pc >> self.itlb_min_shift;
        if fetch_page == self.last_fetch_page {
            self.itlb_repeats += 1;
        } else {
            self.last_fetch_page = fetch_page;
            self.batch.itlb.push((pos, pc));
        }
        match inst.kind {
            Kind::Load { addr, .. } | Kind::Store { addr, .. } => {
                self.batch.data.push((pos, addr));
                let page = addr >> self.dtlb_min_shift;
                if page == self.last_data_page {
                    self.dtlb_repeats += 1;
                } else {
                    self.last_data_page = page;
                    self.batch.dtlb.push((pos, addr));
                }
            }
            Kind::Branch { taken, .. } => self.batch.branches.push((pc, taken)),
            _ => {}
        }
        if self.batch.len as usize >= LANE_BLOCK {
            self.run_batch();
        }
    }

    /// Drains the buffered batch through the per-group lane kernels.
    ///
    /// Kernel order and the bit-identity argument:
    ///
    /// 1. **L1I groups**, then **data-front groups**: pure front-end
    ///    structures, each consuming its own event list in program order —
    ///    exactly the probe sequence the per-instruction fan-out produced.
    /// 2. **Cache back lanes**: each lane merges its L1I group's miss list
    ///    with its data group's outcome list by batch position — fetch
    ///    before data on the same instruction, and prefetch install before
    ///    demand within one data event — which is exactly the
    ///    per-instruction call sequence of `MemoryHierarchy::access`. The
    ///    shared levels are *one* structure serving both sides, so this
    ///    merge (rather than per-side batches) is what keeps their LRU
    ///    evolution bit-identical.
    /// 3. **I-TLB / D-TLB groups**, then **TLB back lanes** under the same
    ///    position merge (instruction-side refill first, matching
    ///    `TlbHierarchy`'s per-instruction order; the L2 TLB is shared
    ///    between the sides just like the L2/L3 caches).
    /// 4. **Predictor lanes**: the batch's branch list in program order,
    ///    one virtual dispatch per lane per batch.
    ///
    /// A partial batch (segment boundary, measured-flag flip, end of
    /// stream) drains through the identical kernels — the scalar tail is
    /// just a shorter block.
    fn run_batch(&mut self) {
        if self.batch.len == 0 {
            return;
        }
        for (l1i, out) in self.l1i_lanes.iter_mut().zip(&mut self.fetch_miss) {
            out.clear();
            l1i.access_events(&self.batch.fetch, out);
        }
        for (front, out) in self.data_lanes.iter_mut().zip(&mut self.data_out) {
            out.clear();
            for &(pos, addr) in &self.batch.data {
                let (hit, install) = front.access(addr);
                if !hit || install.is_some() {
                    let mut flags = ((!hit) as u8) << 1;
                    let mut line = 0;
                    if let Some(l) = install {
                        flags |= INSTALL;
                        line = l;
                    }
                    out.push((pos, flags, line, addr));
                }
            }
        }
        for lane in &mut self.cache_backs {
            let fm = &self.fetch_miss[lane.l1i_group];
            let dd = &self.data_out[lane.data_group];
            let (mut i, mut j) = (0, 0);
            while i < fm.len() || j < dd.len() {
                let fpos = fm.get(i).map_or(u32::MAX, |e| e.0);
                let dpos = dd.get(j).map_or(u32::MAX, |e| e.0);
                // Fetch precedes data on the same instruction.
                if fpos <= dpos {
                    lane.back.demand(fm[i].1, AccessKind::Fetch);
                    i += 1;
                } else {
                    let (_, flags, line, addr) = dd[j];
                    if flags & INSTALL != 0 {
                        lane.back.install_shared(line);
                    }
                    if flags & DATA_MISS != 0 {
                        lane.back.demand(addr, AccessKind::Data);
                    }
                    j += 1;
                }
            }
        }
        for (tlb, out) in self.itlbs.iter_mut().zip(&mut self.itlb_miss) {
            out.clear();
            tlb.access_events(&self.batch.itlb, out);
        }
        for (tlb, out) in self.dtlbs.iter_mut().zip(&mut self.dtlb_miss) {
            out.clear();
            tlb.access_events(&self.batch.dtlb, out);
        }
        for lane in &mut self.tlb_backs {
            let im = &self.itlb_miss[lane.itlb_group];
            let dm = &self.dtlb_miss[lane.dtlb_group];
            let (mut i, mut j) = (0, 0);
            while i < im.len() || j < dm.len() {
                let ipos = im.get(i).map_or(u32::MAX, |e| e.0);
                let dpos = dm.get(j).map_or(u32::MAX, |e| e.0);
                // Instruction-side refill precedes data-side.
                if ipos <= dpos {
                    if lane.refill(im[i].1) {
                        lane.walks_i += 1;
                    }
                    i += 1;
                } else {
                    if lane.refill(dm[j].1) {
                        lane.walks_d += 1;
                    }
                    j += 1;
                }
            }
        }
        if !self.batch.branches.is_empty() {
            let measured = self.batch_measured;
            for lane in &mut self.predictors {
                let wrong = lane.predictor.execute_lanes(&self.batch.branches);
                if measured {
                    lane.mispredicts += wrong;
                }
            }
        }
        self.batch.clear();
    }

    /// Functional warming for one skipped instruction, SMARTS-style: the
    /// full state update of [`FleetState::step`] with measurement
    /// disabled. Every cache and TLB probe still installs and evicts its
    /// lines/pages and every branch outcome still trains every predictor
    /// lane, so the whole machine state enters the next measured segment
    /// exactly as the full run would have left it; measured counters are
    /// isolated by the per-segment snapshot deltas, so none of these
    /// events are ever reported. What sampling *removes* is the measured
    /// footprint — the instructions whose events must be attributed — not
    /// the state updates, exactly as in SMARTS functional warming.
    #[inline]
    fn warm_skipped(&mut self, inst: &Instruction) {
        self.step(inst, false);
    }

    /// Drains the pending lane batch and folds the pending repeat-granule
    /// hit counts into every group's access counters. Must run before any
    /// counter snapshot.
    fn flush_repeats(&mut self) {
        self.run_batch();
        for l1i in &mut self.l1i_lanes {
            l1i.credit_hits(self.l1i_repeats);
        }
        self.l1i_repeats = 0;
        for tlb in &mut self.itlbs {
            tlb.credit_hits(self.itlb_repeats);
        }
        self.itlb_repeats = 0;
        for tlb in &mut self.dtlbs {
            tlb.credit_hits(self.dtlb_repeats);
        }
        self.dtlb_repeats = 0;
    }

    /// One pass of the prewarm address walks for the whole fleet, riding
    /// the same lane kernels as simulation (batch-prewarm): the region
    /// layout and the address loops run once, probes accumulate into
    /// batches, and one region walk warms every lane of every group. Per
    /// structure the probe sequence is identical to a per-machine prewarm.
    fn prewarm(&mut self, profile: &WorkloadProfile) {
        for region in prewarm_regions(profile) {
            match region.kind {
                AccessKind::Data => region.lines().for_each(|addr| self.prewarm_data(addr)),
                AccessKind::Fetch => region.lines().for_each(|addr| self.prewarm_fetch(addr)),
            }
        }
        // The tail batch stays pending: warmup instructions are unmeasured
        // too, so they share it; any snapshot path drains it first.
    }

    /// Data-side prewarm probe: a data access with no fetch side, batched
    /// like any other event.
    fn prewarm_data(&mut self, addr: u64) {
        let pos = self.batch.len;
        self.batch.len += 1;
        self.batch.data.push((pos, addr));
        let page = addr >> self.dtlb_min_shift;
        if page == self.last_data_page {
            self.dtlb_repeats += 1;
        } else {
            self.last_data_page = page;
            self.batch.dtlb.push((pos, addr));
        }
        if self.batch.len as usize >= LANE_BLOCK {
            self.run_batch();
        }
    }

    /// Fetch-side prewarm probe: an instruction fetch with no data side.
    fn prewarm_fetch(&mut self, addr: u64) {
        let pos = self.batch.len;
        self.batch.len += 1;
        let line = addr >> self.l1i_min_shift;
        if line == self.last_fetch_line {
            self.l1i_repeats += 1;
        } else {
            self.last_fetch_line = line;
            self.batch.fetch.push((pos, addr));
        }
        let page = addr >> self.itlb_min_shift;
        if page == self.last_fetch_page {
            self.itlb_repeats += 1;
        } else {
            self.last_fetch_page = page;
            self.batch.itlb.push((pos, addr));
        }
        if self.batch.len as usize >= LANE_BLOCK {
            self.run_batch();
        }
    }

    fn snapshots(&self) -> GroupSnapshots {
        GroupSnapshots {
            l1is: self
                .l1i_lanes
                .iter()
                .map(|c| (c.accesses(), c.misses()))
                .collect(),
            datas: self
                .data_lanes
                .iter()
                .map(|f| (f.l1d().accesses(), f.l1d().misses()))
                .collect(),
            cache_backs: self
                .cache_backs
                .iter()
                .map(|l| {
                    let (l2i_a, l2i_m) = l.back.instruction_side();
                    let (l2d_a, l2d_m) = l.back.data_side();
                    let (l3_a, l3_m) = l.back.l3_counts();
                    (
                        l2i_a,
                        l2i_m,
                        l2d_a,
                        l2d_m,
                        l3_a,
                        l3_m,
                        l.back.memory_accesses(),
                    )
                })
                .collect(),
            itlbs: self.itlbs.iter().map(|t| t.misses()).collect(),
            dtlbs: self.dtlbs.iter().map(|t| t.misses()).collect(),
            tlb_backs: self
                .tlb_backs
                .iter()
                .map(|l| (l.walks_i, l.walks_d))
                .collect(),
            predictors: self.predictors.iter().map(|l| l.mispredicts).collect(),
        }
    }

    fn assemble(
        &self,
        machines: &[MachineConfig],
        profile: &WorkloadProfile,
        trace: &TraceCounts,
        warm: &GroupSnapshots,
    ) -> Vec<Counters> {
        let end = self.snapshots();
        machines
            .iter()
            .enumerate()
            .map(|(m, machine)| {
                let mut c = Counters {
                    dependency_intensity: profile.dependency_intensity(),
                    freq_ghz: machine.freq_ghz,
                    ..Default::default()
                };
                c.instructions = trace.instructions;
                c.kernel_instructions = trace.kernel_instructions;
                c.loads = trace.loads;
                c.stores = trace.stores;
                c.branches = trace.branches;
                c.taken_branches = trace.taken_branches;
                c.fp_ops = trace.fp_ops;
                c.simd_ops = trace.simd_ops;
                let pg = self.predictor_of[m];
                c.mispredicts = self.predictors[pg].mispredicts - warm.predictors[pg];

                let ig = self.l1i_of[m];
                c.l1i_accesses = end.l1is[ig].0 - warm.l1is[ig].0;
                c.l1i_misses = end.l1is[ig].1 - warm.l1is[ig].1;
                let dg = self.data_of[m];
                c.l1d_accesses = end.datas[dg].0 - warm.datas[dg].0;
                c.l1d_misses = end.datas[dg].1 - warm.datas[dg].1;

                let bg = self.cache_back_of[m];
                let (w, e) = (warm.cache_backs[bg], end.cache_backs[bg]);
                c.l2i_accesses = e.0 - w.0;
                c.l2i_misses = e.1 - w.1;
                c.l2d_accesses = e.2 - w.2;
                c.l2d_misses = e.3 - w.3;
                c.l3_accesses = e.4 - w.4;
                c.l3_misses = e.5 - w.5;
                c.memory_accesses = e.6 - w.6;

                let ig = self.itlb_of[m];
                c.itlb_misses = end.itlbs[ig] - warm.itlbs[ig];
                let dg = self.dtlb_of[m];
                c.dtlb_misses = end.dtlbs[dg] - warm.dtlbs[dg];
                let tg = self.tlb_back_of[m];
                c.page_walks_instruction = end.tlb_backs[tg].0 - warm.tlb_backs[tg].0;
                c.page_walks_data = end.tlb_backs[tg].1 - warm.tlb_backs[tg].1;

                // Per-machine telemetry, so fleet totals equal the sums the
                // independent runs would have produced.
                horizon_telemetry::counter_add("sim.instructions", c.instructions);
                horizon_telemetry::counter_add("sim.l1d_accesses", c.l1d_accesses);
                horizon_telemetry::counter_add("sim.l1d_misses", c.l1d_misses);
                horizon_telemetry::counter_add("sim.l3_accesses", c.l3_accesses);
                horizon_telemetry::counter_add("sim.l3_misses", c.l3_misses);
                horizon_telemetry::counter_add("sim.branch_mispredicts", c.mispredicts);

                c.cpi_stack = CpiStack::compute(&c, machine);
                c
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::CoreSimulator;
    use horizon_trace::Region;

    #[test]
    fn empty_fleet_returns_no_counters() {
        let p = WorkloadProfile::builder("w").build().unwrap();
        assert!(FleetSimulator::new(&[]).run(&p, 10_000, 1).is_empty());
    }

    #[test]
    fn single_machine_fleet_equals_core_simulator() {
        let p = WorkloadProfile::builder("w")
            .loads(0.3)
            .stores(0.1)
            .branches(0.15)
            .build()
            .unwrap();
        let m = MachineConfig::skylake_i7_6700();
        let fleet = FleetSimulator::new(std::slice::from_ref(&m))
            .with_warmup(20_000)
            .run(&p, 100_000, 7);
        let solo = CoreSimulator::new(&m)
            .with_warmup(20_000)
            .run(&p, 100_000, 7);
        assert_eq!(fleet, vec![solo]);
    }

    #[test]
    fn full_table_iv_fleet_matches_independent_runs() {
        // The fixed-vector correctness gate: all seven paper machines, a
        // memory-heavy profile, warmup enabled.
        let p = WorkloadProfile::builder("w")
            .loads(0.35)
            .stores(0.12)
            .branches(0.18)
            .regions(vec![
                Region::random(24 << 10, 0.6),
                Region::random(3 << 20, 0.4),
            ])
            .build()
            .unwrap();
        let machines = MachineConfig::table_iv_machines();
        let fleet = FleetSimulator::new(&machines)
            .with_warmup(30_000)
            .run(&p, 120_000, 42);
        for (c, m) in fleet.iter().zip(&machines) {
            let solo = CoreSimulator::new(m)
                .with_warmup(30_000)
                .run(&p, 120_000, 42);
            assert_eq!(*c, solo, "machine {}", m.name);
        }
    }

    #[test]
    fn zero_warmup_fleet_matches() {
        let p = WorkloadProfile::builder("w").loads(0.2).build().unwrap();
        let machines = [MachineConfig::core2_e5405(), MachineConfig::opteron_2435()];
        let fleet = FleetSimulator::new(&machines).run(&p, 50_000, 3);
        for (c, m) in fleet.iter().zip(&machines) {
            assert_eq!(*c, CoreSimulator::new(m).run(&p, 50_000, 3));
        }
    }

    #[test]
    fn duplicate_machines_get_identical_counters() {
        let p = WorkloadProfile::builder("w").loads(0.3).build().unwrap();
        let m = MachineConfig::sparc_t4();
        let fleet = FleetSimulator::new(&[m.clone(), m]).run(&p, 30_000, 9);
        assert_eq!(fleet[0], fleet[1]);
    }

    #[test]
    fn group_dedup_is_semantically_invisible() {
        // Two machines that differ ONLY in shared levels: same L1 front
        // ends, same predictor. The fleet simulates the fronts once; the
        // counters must still match machine-by-machine independent runs.
        let a = MachineConfig::skylake_i7_6700();
        let mut b = a.clone();
        b.name = "variant".into();
        b.hierarchy.l3 = Some(CacheConfig::new(2 << 20, 16));
        b.tlb.l2 = None;
        let p = WorkloadProfile::builder("w")
            .loads(0.35)
            .regions(vec![Region::random(4 << 20, 1.0)])
            .build()
            .unwrap();
        let machines = [a, b];
        let fleet = FleetSimulator::new(&machines)
            .with_warmup(10_000)
            .run(&p, 60_000, 11);
        for (c, m) in fleet.iter().zip(&machines) {
            assert_eq!(
                *c,
                CoreSimulator::new(m)
                    .with_warmup(10_000)
                    .run(&p, 60_000, 11),
                "machine {}",
                m.name
            );
        }
    }
}
