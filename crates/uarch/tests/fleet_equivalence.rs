//! Property-based equivalence gate for the fleet kernel.
//!
//! The contract of [`FleetSimulator`] is exact: for any workload profile,
//! seed, window and warmup, streaming the trace once across N machines
//! must produce counters bit-identical to N independent
//! [`CoreSimulator`] runs. These properties randomize the trace-defining
//! inputs over all seven paper machines and compare the *serialized*
//! counters byte-for-byte, so even a float that renders differently
//! would fail.

use horizon_trace::{Region, TraceGenerator, WorkloadProfile};
use horizon_uarch::{
    CacheConfig, CoreSimulator, Counters, FleetSimulator, MachineConfig, TlbConfig, TraceSegment,
};
use proptest::prelude::*;

/// A randomized but always-valid profile. The mix fractions are kept
/// comfortably inside the builder's validity envelope while still
/// exercising load/store/branch/fp extremes and one- or two-region
/// memory footprints from 64 KiB up to 16 MiB.
fn arb_profile() -> impl Strategy<Value = WorkloadProfile> {
    (
        0.05..0.35f64, // loads
        0.01..0.15f64, // stores
        0.05..0.25f64, // branches
        0.0..0.15f64,  // fp
        16u32..24,     // log2 primary region bytes
        // Optional second (streaming) region.
        prop_oneof![Just(None), (18u32..22).prop_map(Some)],
    )
        .prop_map(|(loads, stores, branches, fp, lg, second)| {
            let mut regions = vec![Region::random(1 << lg, 1.0)];
            if let Some(lg2) = second {
                regions.push(Region::streaming(1 << lg2, 0.5, 64));
            }
            WorkloadProfile::builder("fleet-prop")
                .loads(loads)
                .stores(stores)
                .branches(branches)
                .fp(fp)
                .regions(regions)
                .build()
                .expect("generated profile stays within validity envelope")
        })
}

fn counters_json<T: serde::Serialize>(c: &T) -> String {
    serde_json::to_string(c).expect("counters serialize")
}

/// The raw event counts of one [`Counters`], in a fixed order. Derived
/// floats (CPI stack, MPKI) are per-window ratios and do not sum across
/// segments; the underlying events do.
fn event_counts(c: &Counters) -> [u64; 24] {
    [
        c.instructions,
        c.loads,
        c.stores,
        c.branches,
        c.taken_branches,
        c.mispredicts,
        c.fp_ops,
        c.simd_ops,
        c.kernel_instructions,
        c.l1i_accesses,
        c.l1i_misses,
        c.l1d_accesses,
        c.l1d_misses,
        c.l2i_accesses,
        c.l2i_misses,
        c.l2d_accesses,
        c.l2d_misses,
        c.l3_accesses,
        c.l3_misses,
        c.memory_accesses,
        c.itlb_misses,
        c.dtlb_misses,
        c.page_walks_instruction,
        c.page_walks_data,
    ]
}

/// A deliberately degenerate machine: direct-mapped (1-way) L1s — the
/// wide-scan kernels' shortest scalar tail — and the SPARC-style huge
/// fully-associative TLBs (512 ways in one set, the widest scan in any
/// paper machine, forced through the way-hint path).
fn degenerate_machine() -> MachineConfig {
    let mut m = MachineConfig::table_iv_machines()[0].clone();
    m.name = "degenerate-1way-512fa".into();
    m.hierarchy.l1i = CacheConfig::new(32 << 10, 1);
    m.hierarchy.l1d = CacheConfig::new(32 << 10, 1);
    m.tlb.l1i = TlbConfig::new(64, 64);
    m.tlb.l1d = TlbConfig::new(512, 512);
    m.tlb.l2 = None;
    m
}

proptest! {
    // Each case runs 8 simulations (7 fleet lanes stream once + 7
    // independent), so keep the case count modest; the fixed-vector
    // gate in `fleet.rs` covers the deterministic paper configuration.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fleet counters are byte-identical to independent per-machine runs
    /// across random profiles, seeds, windows and warmups.
    #[test]
    fn fleet_matches_independent_runs(
        profile in arb_profile(),
        seed in any::<u64>(),
        window in 5_000u64..60_000,
        warmup in prop_oneof![Just(0u64), 1_000u64..20_000],
    ) {
        let machines = MachineConfig::table_iv_machines();
        let fleet = FleetSimulator::new(&machines)
            .with_warmup(warmup)
            .run(&profile, window, seed);
        prop_assert_eq!(fleet.len(), machines.len());
        for (machine, fleet_counters) in machines.iter().zip(&fleet) {
            let solo = CoreSimulator::new(machine)
                .with_warmup(warmup)
                .run(&profile, window, seed);
            prop_assert_eq!(
                counters_json(fleet_counters),
                counters_json(&solo),
                "fleet diverged from CoreSimulator on {}",
                machine.name
            );
        }
    }

    /// Subsetting the fleet never changes any machine's counters: lane
    /// state is fully isolated, so simulating fewer machines together is
    /// indistinguishable from simulating more.
    #[test]
    fn fleet_subsets_are_consistent(
        profile in arb_profile(),
        seed in any::<u64>(),
        split in 1usize..6,
    ) {
        let machines = MachineConfig::table_iv_machines();
        let full = FleetSimulator::new(&machines)
            .with_warmup(2_000)
            .run(&profile, 15_000, seed);
        let front = FleetSimulator::new(&machines[..split])
            .with_warmup(2_000)
            .run(&profile, 15_000, seed);
        let back = FleetSimulator::new(&machines[split..])
            .with_warmup(2_000)
            .run(&profile, 15_000, seed);
        let stitched: Vec<String> = front.iter().chain(&back).map(counters_json).collect();
        let whole: Vec<String> = full.iter().map(counters_json).collect();
        prop_assert_eq!(stitched, whole);
    }

    /// The sampled path: consecutive gap-free measured segments through
    /// `run_trace_segments` see exactly the events of one contiguous
    /// window — per machine, the per-segment event counts sum to the
    /// single-window counts. Exercises the lane batch draining at segment
    /// boundaries (each boundary snapshot flushes a partial batch through
    /// the same kernels as a full block).
    #[test]
    fn segment_deltas_sum_to_single_window(
        profile in arb_profile(),
        seed in any::<u64>(),
        n1 in 2_000u64..12_000,
        n2 in 1u64..12_000,
        n3 in 2_000u64..12_000,
    ) {
        let machines = MachineConfig::table_iv_machines();
        let seg = |measure| TraceSegment { skip: 0, warmup: 0, measure };
        let fleet = FleetSimulator::new(&machines);
        let split = fleet.run_trace_segments(
            &profile,
            &[seg(n1), seg(n2), seg(n3)],
            TraceGenerator::new(&profile, seed),
        );
        let whole = fleet.run_trace_segments(
            &profile,
            &[seg(n1 + n2 + n3)],
            TraceGenerator::new(&profile, seed),
        );
        for (m, machine) in machines.iter().enumerate() {
            let mut summed = [0u64; 24];
            for seg_counters in &split {
                for (acc, v) in summed.iter_mut().zip(event_counts(&seg_counters[m])) {
                    *acc += v;
                }
            }
            prop_assert_eq!(
                summed,
                event_counts(&whole[0][m]),
                "segment sums diverged on {}",
                machine.name
            );
        }
    }

    /// With functional warming, a skipped prefix is the same state update
    /// as explicit warmup: `skip + warmup` splits of the same unmeasured
    /// prefix produce byte-identical counters.
    #[test]
    fn functional_warming_absorbs_skip_into_warmup(
        profile in arb_profile(),
        seed in any::<u64>(),
        skip in 1_000u64..10_000,
        warmup in 1u64..5_000,
        measure in 3_000u64..15_000,
    ) {
        let machines = MachineConfig::table_iv_machines();
        let fleet = FleetSimulator::new(&machines);
        let skipped = fleet.run_trace_segments(
            &profile,
            &[TraceSegment { skip, warmup, measure }],
            TraceGenerator::new(&profile, seed),
        );
        let warmed = fleet.run_trace_segments(
            &profile,
            &[TraceSegment { skip: 0, warmup: skip + warmup, measure }],
            TraceGenerator::new(&profile, seed),
        );
        prop_assert_eq!(counters_json(&skipped), counters_json(&warmed));
    }
}

/// Degenerate geometries pin the kernel edge cases the proptests' paper
/// machines never reach: 1-way sets (pure scalar-tail scans), 512-way
/// fully-associative TLBs (the widest wide-op path plus way-hint), and a
/// single-machine fleet (every group has exactly one lane).
#[test]
fn degenerate_geometries_match_core_simulator() {
    let profile = WorkloadProfile::builder("fleet-degenerate")
        .loads(0.3)
        .stores(0.1)
        .branches(0.15)
        .regions(vec![
            Region::random(1 << 22, 1.0),
            Region::streaming(1 << 20, 0.5, 64),
        ])
        .build()
        .expect("valid profile");
    let degenerate = degenerate_machine();

    // Single-machine fleet of the degenerate config.
    let solo_fleet = FleetSimulator::new(std::slice::from_ref(&degenerate))
        .with_warmup(5_000)
        .run(&profile, 40_000, 99);
    let solo_core = CoreSimulator::new(&degenerate)
        .with_warmup(5_000)
        .run(&profile, 40_000, 99);
    assert_eq!(counters_json(&solo_fleet[0]), counters_json(&solo_core));

    // Mixed fleet: the degenerate machine alongside two paper machines, so
    // its one-lane groups batch next to multi-lane groups.
    let paper = MachineConfig::table_iv_machines();
    let mixed = vec![degenerate.clone(), paper[0].clone(), paper[4].clone()];
    let fleet = FleetSimulator::new(&mixed)
        .with_warmup(5_000)
        .run(&profile, 40_000, 99);
    for (machine, fleet_counters) in mixed.iter().zip(&fleet) {
        let solo = CoreSimulator::new(machine)
            .with_warmup(5_000)
            .run(&profile, 40_000, 99);
        assert_eq!(
            counters_json(fleet_counters),
            counters_json(&solo),
            "mixed fleet diverged from CoreSimulator on {}",
            machine.name
        );
    }
}
