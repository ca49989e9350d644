//! Engine-level guarantees: bit-identical results regardless of worker
//! count or cache state, exactly-once simulation, and graceful fallback
//! when the on-disk cache is damaged.

use horizon_core::campaign::Campaign;
use horizon_engine::Engine;
use horizon_trace::WorkloadProfile;
use horizon_uarch::MachineConfig;
use horizon_workloads::cpu2017;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn profiles() -> Vec<WorkloadProfile> {
    cpu2017::speed_int()
        .iter()
        .take(4)
        .map(|b| b.profile().clone())
        .collect()
}

fn machines() -> Vec<MachineConfig> {
    vec![MachineConfig::skylake_i7_6700(), MachineConfig::sparc_t4()]
}

fn campaign() -> Campaign {
    Campaign {
        instructions: 20_000,
        warmup: 5_000,
        seed: 42,
        ..Campaign::default()
    }
}

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "horizon-engine-test-{}-{tag}-{n}",
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

#[test]
fn results_are_bit_identical_across_worker_counts_and_match_builtin() {
    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();
    let builtin = campaign.measure_profiles_builtin(&profiles, &machines);

    let serial = Engine::new()
        .with_jobs(1)
        .measure_profiles(&campaign, &profiles, &machines);
    let parallel = Engine::new()
        .with_jobs(7)
        .measure_profiles(&campaign, &profiles, &machines);

    assert_eq!(serial, builtin, "--jobs 1 must reproduce the builtin grid");
    assert_eq!(
        parallel, builtin,
        "--jobs 7 must reproduce the builtin grid"
    );
}

#[test]
fn memo_serves_repeat_campaigns_without_resimulating() {
    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();

    let engine = Engine::new();
    let first = engine.measure_profiles(&campaign, &profiles, &machines);
    let after_first = engine.stats();
    let second = engine.measure_profiles(&campaign, &profiles, &machines);
    let after_second = engine.stats();

    assert_eq!(first, second);
    let unique = (profiles.len() * machines.len()) as u64;
    assert_eq!(after_first.simulated_jobs, unique);
    assert_eq!(
        after_second.simulated_jobs, unique,
        "repeat campaign must not simulate anything"
    );
    assert_eq!(after_second.memo_hits, unique);
    assert_eq!(after_second.cells, 2 * unique);
}

#[test]
fn cold_and_warm_disk_cache_produce_identical_results() {
    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();
    let dir = scratch_dir("warm");

    // Cold: fresh directory, everything simulates.
    let cold_engine = Engine::new().with_cache_dir(&dir).unwrap();
    let cold = cold_engine.measure_profiles(&campaign, &profiles, &machines);
    assert_eq!(
        cold_engine.stats().simulated_jobs,
        (profiles.len() * machines.len()) as u64
    );

    // Warm: a brand-new engine (empty memo) reads every job from disk.
    let warm_engine = Engine::new().with_cache_dir(&dir).unwrap();
    let warm = warm_engine.measure_profiles(&campaign, &profiles, &machines);
    let stats = warm_engine.stats();
    assert_eq!(warm, cold, "warm-cache grid must be bit-identical");
    assert_eq!(stats.simulated_jobs, 0);
    assert_eq!(stats.disk_hits, (profiles.len() * machines.len()) as u64);
    assert!(stats.hit_rate() > 0.99);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_cache_files_fall_back_to_resimulation() {
    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();
    let dir = scratch_dir("corrupt");

    let engine = Engine::new().with_cache_dir(&dir).unwrap();
    let expected = engine.measure_profiles(&campaign, &profiles, &machines);

    // Vandalize every cache file a different way.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), profiles.len() * machines.len());
    for (i, path) in entries.iter().enumerate() {
        match i % 3 {
            0 => std::fs::write(path, "not json at all").unwrap(),
            1 => {
                // Truncate mid-document.
                let text = std::fs::read_to_string(path).unwrap();
                std::fs::write(path, &text[..text.len() / 2]).unwrap();
            }
            _ => std::fs::write(path, "{\"version\": 999}").unwrap(),
        }
    }

    let recovered_engine = Engine::new().with_cache_dir(&dir).unwrap();
    let recovered = recovered_engine.measure_profiles(&campaign, &profiles, &machines);
    let stats = recovered_engine.stats();
    assert_eq!(recovered, expected, "re-simulated grid must be identical");
    assert_eq!(stats.disk_hits, 0, "no damaged entry may be served");
    assert_eq!(
        stats.simulated_jobs,
        (profiles.len() * machines.len()) as u64
    );

    // The engine also repairs the cache as it re-simulates.
    let repaired_engine = Engine::new().with_cache_dir(&dir).unwrap();
    let repaired = repaired_engine.measure_profiles(&campaign, &profiles, &machines);
    assert_eq!(repaired, expected);
    assert_eq!(
        repaired_engine.stats().disk_hits,
        (profiles.len() * machines.len()) as u64
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn duplicate_grid_cells_collapse_to_one_job() {
    let campaign = campaign();
    let mut profiles = profiles();
    // Same workload listed twice: a real occurrence in `repro all`, where
    // overlapping experiments share benchmarks.
    profiles.push(profiles[0].clone());
    let machines = machines();

    let engine = Engine::new();
    let result = engine.measure_profiles(&campaign, &profiles, &machines);
    let stats = engine.stats();

    assert_eq!(stats.cells, (profiles.len() * machines.len()) as u64);
    assert_eq!(
        stats.unique_jobs,
        ((profiles.len() - 1) * machines.len()) as u64,
        "duplicate rows must deduplicate"
    );
    assert_eq!(stats.simulated_jobs, stats.unique_jobs);
    // The duplicated rows carry identical measurements.
    for m in 0..machines.len() {
        assert_eq!(result.at(0, m), result.at(profiles.len() - 1, m));
    }
}

#[test]
fn misses_are_claimed_largest_estimated_cost_first() {
    use horizon_engine::estimated_cost;

    let campaign = campaign();
    // Full speed-int suite for a meaningful spread of estimated costs.
    let profiles: Vec<WorkloadProfile> = cpu2017::speed_int()
        .iter()
        .map(|b| b.profile().clone())
        .collect();
    let machines = vec![MachineConfig::skylake_i7_6700()];

    // One worker: span close order == claim order == scheduled order.
    let engine = Engine::new().with_jobs(1);
    engine.measure_profiles(&campaign, &profiles, &machines);
    let order: Vec<String> = engine
        .recorder()
        .snapshot()
        .spans_named("engine.job")
        .iter()
        .map(|s| s.field_str("workload").unwrap().to_string())
        .collect();

    let mut expected: Vec<(u64, usize)> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| (estimated_cost(&campaign, p), i))
        .collect();
    expected.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let expected: Vec<String> = expected
        .iter()
        .map(|&(_, i)| profiles[i].name().to_string())
        .collect();
    assert_eq!(order, expected);
}

#[test]
fn telemetry_captures_campaign_structure_and_matches_stats() {
    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();
    let unique = profiles.len() * machines.len();

    let engine = Engine::new().with_jobs(3);
    engine.measure_profiles(&campaign, &profiles, &machines);
    engine.measure_profiles(&campaign, &profiles, &machines);
    let snap = engine.recorder().snapshot();

    // Stage spans nest under the campaign span.
    let campaigns = snap.spans_named("engine.campaign");
    assert_eq!(campaigns.len(), 2);
    assert_eq!(campaigns[0].parent, None);
    for stage in [
        "engine.expand",
        "engine.probe",
        "engine.simulate",
        "engine.integrate",
        "engine.assemble",
    ] {
        let stages = snap.spans_named(stage);
        assert!(!stages.is_empty(), "{stage} span missing");
        for s in &stages {
            assert!(
                campaigns.iter().any(|c| Some(c.id) == s.parent),
                "{stage} must be a child of a campaign span"
            );
        }
    }
    // The second, fully memoized campaign runs no simulate stage.
    assert_eq!(snap.spans_named("engine.simulate").len(), 1);

    // One engine.job span per unique job per campaign, correctly parented
    // (simulated jobs hang off the campaign, cached ones off the probe
    // stage) and labeled with its outcome.
    let job_spans = snap.spans_named("engine.job");
    assert_eq!(job_spans.len(), 2 * unique);
    let simulated: Vec<_> = job_spans
        .iter()
        .filter(|s| s.field_str("outcome") == Some("simulated"))
        .collect();
    let memoized: Vec<_> = job_spans
        .iter()
        .filter(|s| s.field_str("outcome") == Some("memo"))
        .collect();
    assert_eq!(simulated.len(), unique);
    assert_eq!(memoized.len(), unique);
    assert!(simulated.iter().all(|s| s.parent == Some(campaigns[0].id)));
    let probe_ids: Vec<u64> = snap
        .spans_named("engine.probe")
        .iter()
        .map(|s| s.id)
        .collect();
    assert!(memoized
        .iter()
        .all(|s| probe_ids.contains(&s.parent.unwrap())));
    for s in &simulated {
        assert!(s.field_str("workload").is_some());
        assert!(s.field_str("machine").is_some());
        assert!(s.field_u64("wall_ns").is_some());
        assert!(s.field_u64("est_cost").is_some());
    }

    // Histograms saw every simulated job.
    assert_eq!(
        snap.histogram("engine.job_wall_ns").unwrap().count(),
        unique as u64
    );
    assert_eq!(
        snap.histogram("engine.queue_wait_ns").unwrap().count(),
        unique as u64
    );

    // Stats are derived from this very snapshot — no second ledger.
    let stats = engine.stats();
    assert_eq!(stats.campaigns, 2);
    assert_eq!(stats.cells, snap.counter("engine.cells"));
    assert_eq!(stats.simulated_jobs, unique as u64);
    assert_eq!(stats.memo_hits, unique as u64);
    assert_eq!(stats.job_timings.len(), unique);
    assert!(stats.simulation_wall_nanos > 0);

    // reset_stats clears the recorder.
    engine.reset_stats();
    assert_eq!(engine.stats(), horizon_engine::EngineStats::default());
}

#[test]
fn concurrent_identical_campaigns_simulate_each_job_once() {
    use std::sync::{Arc, Barrier};

    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();
    let unique = profiles.len() * machines.len();

    let engine = Arc::new(Engine::new().with_jobs(2));
    let barrier = Arc::new(Barrier::new(2));
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let barrier = Arc::clone(&barrier);
                let (campaign, profiles, machines) = (&campaign, &profiles, &machines);
                scope.spawn(move || {
                    barrier.wait();
                    engine.measure_profiles(campaign, profiles, machines)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Whichever campaign takes the simulation lock first, the other finds
    // every job in the memo once it gets the lock: each unique job
    // simulates exactly once across both.
    let stats = engine.stats();
    assert_eq!(stats.simulated_jobs, unique as u64);
    assert_eq!(
        stats.memo_hits, unique as u64,
        "the later campaign is fully served without simulating"
    );

    // Both campaigns see bit-identical grids.
    let reference = Engine::new()
        .with_jobs(1)
        .measure_profiles(&campaign, &profiles, &machines);
    for result in &results {
        assert_eq!(result, &reference);
    }
}

#[test]
fn concurrent_overlapping_campaigns_simulate_the_union_once() {
    use std::sync::{Arc, Barrier};

    let campaign = campaign();
    let profiles = profiles();
    // Two distinct grids sharing the Skylake column.
    let grids = [
        vec![MachineConfig::skylake_i7_6700(), MachineConfig::sparc_t4()],
        vec![MachineConfig::skylake_i7_6700()],
    ];
    let union = profiles.len() * grids[0].len();

    let engine = Arc::new(Engine::new().with_jobs(2));
    let barrier = Arc::new(Barrier::new(grids.len()));
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = grids
            .iter()
            .map(|machines| {
                let engine = Arc::clone(&engine);
                let barrier = Arc::clone(&barrier);
                let (campaign, profiles) = (&campaign, &profiles);
                scope.spawn(move || {
                    barrier.wait();
                    engine.measure_profiles(campaign, profiles, machines)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = engine.stats();
    assert_eq!(
        stats.simulated_jobs, union as u64,
        "the shared column must simulate once"
    );
    assert_eq!(engine.memo_entries(), union);
    for (result, machines) in results.iter().zip(&grids) {
        let reference = Engine::new()
            .with_jobs(1)
            .measure_profiles(&campaign, &profiles, machines);
        assert_eq!(result, &reference);
    }
}

#[test]
fn a_panicking_campaign_leaves_the_engine_usable() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();
    let mut broken = MachineConfig::skylake_i7_6700();
    broken.name = "broken".to_string();
    broken.hierarchy.l1d.associativity = 0;

    // The fleet rejects the zero-way cache mid-simulation, unwinding the
    // campaign while it holds the simulation lock.
    let engine = Engine::new().with_jobs(2);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        engine.measure_profiles(&campaign, &profiles, &[machines[0].clone(), broken])
    }));
    assert!(outcome.is_err(), "a zero-way L1D must panic");
    assert_eq!(engine.memo_entries(), 0, "nothing partial is memoized");

    let result = engine.measure_profiles(&campaign, &profiles, &machines);
    let reference = Engine::new()
        .with_jobs(1)
        .measure_profiles(&campaign, &profiles, &machines);
    assert_eq!(result, reference);
}
