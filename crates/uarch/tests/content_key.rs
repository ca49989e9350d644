//! `MachineConfig::content_key` keys a machine exactly as finely as its
//! canonical JSON: equal keys if and only if equal JSON, on random machines
//! and on single-field perturbations of them.

use horizon_uarch::{
    CacheConfig, HierarchyConfig, Isa, LatencyModel, MachineConfig, PredictorKind, PrefetchConfig,
    TlbConfig, TlbHierarchyConfig,
};
use proptest::prelude::*;

/// A uniform pick from a small pool, so independent draws often coincide
/// and both sides of the equivalence are exercised.
fn pick<T: Clone + 'static>(pool: &'static [T]) -> impl Strategy<Value = T> {
    (0..pool.len()).prop_map(move |i| pool[i].clone())
}

fn float() -> impl Strategy<Value = f64> {
    pick(&[0.0, -0.0, 1.0, 2.5, 3.4])
}

fn cache() -> impl Strategy<Value = CacheConfig> {
    (
        pick(&[32u64 << 10, 256 << 10, 8 << 20]),
        pick(&[4u32, 8, 16]),
        pick(&[32u64, 64]),
    )
        .prop_map(|(capacity_bytes, associativity, line_bytes)| CacheConfig {
            capacity_bytes,
            associativity,
            line_bytes,
        })
}

fn tlb() -> impl Strategy<Value = TlbConfig> {
    (
        pick(&[64u32, 128, 1536]),
        pick(&[4u32, 8, 12]),
        pick(&[4096u64, 8192]),
    )
        .prop_map(|(entries, associativity, page_bytes)| TlbConfig {
            entries,
            associativity,
            page_bytes,
        })
}

fn machine() -> impl Strategy<Value = MachineConfig> {
    const ISAS: &[Isa] = &[Isa::X86, Isa::Sparc];
    const PREDICTORS: &[PredictorKind] = &[
        PredictorKind::Bimodal { table_bits: 12 },
        PredictorKind::Gshare {
            table_bits: 12,
            history_bits: 12,
        },
        PredictorKind::TwoLevelLocal {
            history_table_bits: 12,
            history_bits: 12,
        },
        PredictorKind::TageLite { table_bits: 12 },
        PredictorKind::TageLite { table_bits: 13 },
        PredictorKind::Tournament {
            table_bits: 12,
            history_bits: 12,
        },
    ];
    let hierarchy = (
        cache(),
        cache(),
        cache(),
        (any::<bool>(), cache()),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(l1i, l1d, l2, (has_l3, l3), to_l1, to_l2)| HierarchyConfig {
                l1i,
                l1d,
                l2,
                l3: has_l3.then_some(l3),
                prefetch: PrefetchConfig { to_l1, to_l2 },
            },
        );
    let tlbs = (tlb(), tlb(), (any::<bool>(), tlb())).prop_map(|(l1i, l1d, (has_l2, l2))| {
        TlbHierarchyConfig {
            l1i,
            l1d,
            l2: has_l2.then_some(l2),
        }
    });
    let latency = (float(), float(), float(), float(), float(), float()).prop_map(
        |(l2_hit, l3_hit, memory, page_walk, mispredict, overlap_scale)| LatencyModel {
            l2_hit,
            l3_hit,
            memory,
            page_walk,
            mispredict,
            overlap_scale,
        },
    );
    (
        pick(&["m", "n", "Intel Core i7-6700"]),
        pick(ISAS),
        float(),
        float(),
        hierarchy,
        tlbs,
        pick(PREDICTORS),
        latency,
    )
        .prop_map(
            |(name, isa, freq_ghz, issue_width, hierarchy, tlb, predictor, latency)| {
                MachineConfig {
                    name: name.to_string(),
                    isa,
                    freq_ghz,
                    issue_width,
                    hierarchy,
                    tlb,
                    predictor,
                    latency,
                }
            },
        )
}

/// `base` with field `field` of the 30 below taken from `donor`.
fn with_field_of(base: &MachineConfig, donor: &MachineConfig, field: usize) -> MachineConfig {
    fn cache_field(to: &mut CacheConfig, from: &CacheConfig, k: usize) {
        match k {
            0 => to.capacity_bytes = from.capacity_bytes,
            1 => to.associativity = from.associativity,
            _ => to.line_bytes = from.line_bytes,
        }
    }
    fn tlb_field(to: &mut TlbConfig, from: &TlbConfig, k: usize) {
        match k {
            0 => to.entries = from.entries,
            1 => to.associativity = from.associativity,
            _ => to.page_bytes = from.page_bytes,
        }
    }
    let mut m = base.clone();
    let (h, d) = (&mut m.hierarchy, &donor.hierarchy);
    let (t, dt) = (&mut m.tlb, &donor.tlb);
    let (l, dl) = (&mut m.latency, &donor.latency);
    match field {
        0 => m.name.clone_from(&donor.name),
        1 => m.isa = donor.isa,
        2 => m.freq_ghz = donor.freq_ghz,
        3 => m.issue_width = donor.issue_width,
        4..=6 => cache_field(&mut h.l1i, &d.l1i, field - 4),
        7..=9 => cache_field(&mut h.l1d, &d.l1d, field - 7),
        10..=12 => cache_field(&mut h.l2, &d.l2, field - 10),
        13 => h.l3 = d.l3,
        14 => h.prefetch.to_l1 = d.prefetch.to_l1,
        15 => h.prefetch.to_l2 = d.prefetch.to_l2,
        16..=18 => tlb_field(&mut t.l1i, &dt.l1i, field - 16),
        19..=21 => tlb_field(&mut t.l1d, &dt.l1d, field - 19),
        22 => t.l2 = dt.l2,
        23 => m.predictor = donor.predictor,
        24 => l.l2_hit = dl.l2_hit,
        25 => l.l3_hit = dl.l3_hit,
        26 => l.memory = dl.memory,
        27 => l.page_walk = dl.page_walk,
        28 => l.mispredict = dl.mispredict,
        29 => l.overlap_scale = dl.overlap_scale,
        _ => unreachable!("30 fields"),
    }
    m
}

fn json(machine: &MachineConfig) -> String {
    serde_json::to_string(machine).unwrap()
}

/// Asserts that `a` and `b` key equal exactly when they serialize equal.
fn keys_match_json(a: &MachineConfig, b: &MachineConfig) -> Result<(), TestCaseError> {
    let same_key = a.content_key() == b.content_key();
    let same_json = json(a) == json(b);
    prop_assert_eq!(
        same_key,
        same_json,
        "keys equal: {}, JSON equal: {}\n{}\n{}",
        same_key,
        same_json,
        json(a),
        json(b)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn content_key_equality_is_json_equality(
        base in machine(),
        donor in machine(),
        field in 0usize..30,
    ) {
        prop_assert_eq!(base.content_key(), base.clone().content_key());
        keys_match_json(&base, &donor)?;
        keys_match_json(&base, &with_field_of(&base, &donor, field))?;
    }
}

#[test]
fn table_iv_machines_key_apart() {
    let keys: Vec<Vec<u64>> = MachineConfig::table_iv_machines()
        .iter()
        .map(MachineConfig::content_key)
        .collect();
    for (i, a) in keys.iter().enumerate() {
        for b in &keys[i + 1..] {
            assert_ne!(a, b);
        }
    }
}
