//! `WorkloadProfile::content_key` keys a profile exactly as finely as its
//! canonical JSON: equal keys if and only if equal JSON, on random valid
//! profiles and on single-field perturbations of them.

use horizon_trace::{AccessPattern, BranchBehavior, CodeModel, Region, WorkloadProfile};
use proptest::prelude::*;

/// The builder inputs of one profile, so a test can change one field.
#[derive(Debug, Clone)]
struct Spec {
    name: String,
    icount_billions: f64,
    mix: [f64; 5],
    regions: Vec<Region>,
    branches: BranchBehavior,
    code: CodeModel,
    kernel_fraction: f64,
    dependency_intensity: f64,
}

impl Spec {
    fn build(&self) -> WorkloadProfile {
        let [loads, stores, branches, fp, simd] = self.mix;
        WorkloadProfile::builder(self.name.as_str())
            .icount_billions(self.icount_billions)
            .loads(loads)
            .stores(stores)
            .branches(branches)
            .fp(fp)
            .simd(simd)
            .regions(self.regions.clone())
            .branch_behavior(self.branches)
            .code_model(self.code)
            .kernel_fraction(self.kernel_fraction)
            .dependency_intensity(self.dependency_intensity)
            .build()
            .expect("spec pools only hold valid values")
    }

    /// Field `field` of the 22 below taken from `donor`.
    fn with_field_of(&self, donor: &Spec, field: usize) -> Spec {
        let mut s = self.clone();
        match field {
            0 => s.name.clone_from(&donor.name),
            1 => s.icount_billions = donor.icount_billions,
            2..=6 => s.mix[field - 2] = donor.mix[field - 2],
            7 => s.regions[0].bytes = donor.regions[0].bytes,
            8 => s.regions[0].weight = donor.regions[0].weight,
            9 => s.regions[0].pattern = donor.regions[0].pattern,
            10 => s.regions.clone_from(&donor.regions),
            11 => s.regions.reverse(),
            12 => s.branches.taken_fraction = donor.branches.taken_fraction,
            13 => s.branches.regularity = donor.branches.regularity,
            14 => s.branches.pattern_share = donor.branches.pattern_share,
            15 => s.branches.static_branches = donor.branches.static_branches,
            16 => s.branches.bias_spread = donor.branches.bias_spread,
            17 => s.code.footprint_bytes = donor.code.footprint_bytes,
            18 => s.code.hot_fraction = donor.code.hot_fraction,
            19 => s.code.hot_bytes = donor.code.hot_bytes,
            20 => s.kernel_fraction = donor.kernel_fraction,
            21 => s.dependency_intensity = donor.dependency_intensity,
            _ => unreachable!("22 fields"),
        }
        s
    }
}

/// A uniform pick from a small pool, so independent draws often coincide
/// and both sides of the equivalence are exercised.
fn pick<T: Clone + 'static>(pool: &'static [T]) -> impl Strategy<Value = T> {
    (0..pool.len()).prop_map(move |i| pool[i].clone())
}

/// Valid fractions, `-0.0` included: five of them sum below 1.
fn fraction() -> impl Strategy<Value = f64> {
    pick(&[0.0, -0.0, 0.05, 0.1, 0.125, 0.19])
}

fn region() -> impl Strategy<Value = Region> {
    const PATTERNS: &[AccessPattern] = &[
        AccessPattern::Random,
        AccessPattern::Streaming { stride: 64 },
        AccessPattern::Streaming { stride: 128 },
    ];
    (
        pick(&[64u64, 4096, 1 << 20]),
        pick(&[0.5, 1.0, 2.0]),
        pick(PATTERNS),
    )
        .prop_map(|(bytes, weight, pattern)| Region {
            bytes,
            weight,
            pattern,
        })
}

fn spec() -> impl Strategy<Value = Spec> {
    let mix = (fraction(), fraction(), fraction(), fraction(), fraction());
    let branches = (
        fraction(),
        fraction(),
        fraction(),
        pick(&[1usize, 256, 4096]),
        fraction(),
    )
        .prop_map(
            |(taken_fraction, regularity, pattern_share, static_branches, bias_spread)| {
                BranchBehavior {
                    taken_fraction,
                    regularity,
                    pattern_share,
                    static_branches,
                    bias_spread,
                }
            },
        );
    let code = (
        pick(&[16384u64, 65536]),
        fraction(),
        pick(&[4096u64, 8192, 16384]),
    )
        .prop_map(|(footprint_bytes, hot_fraction, hot_bytes)| CodeModel {
            footprint_bytes,
            hot_fraction,
            hot_bytes,
        });
    (
        pick(&["a", "b", "605.mcf_s", "605.mcf_s.in-1"]),
        pick(&[0.5, 1.0, 2.5]),
        mix,
        proptest::collection::vec(region(), 1..=3),
        branches,
        code,
        fraction(),
        fraction(),
    )
        .prop_map(
            |(name, icount_billions, (l, s, b, f, v), regions, branches, code, k, d)| Spec {
                name: name.to_string(),
                icount_billions,
                mix: [l, s, b, f, v],
                regions,
                branches,
                code,
                kernel_fraction: k,
                dependency_intensity: d,
            },
        )
}

fn json(profile: &WorkloadProfile) -> String {
    serde_json::to_string(profile).unwrap()
}

/// Asserts that `a` and `b` key equal exactly when they serialize equal.
fn keys_match_json(a: &WorkloadProfile, b: &WorkloadProfile) -> Result<(), TestCaseError> {
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
        base in spec(),
        donor in spec(),
        field in 0usize..22,
    ) {
        let a = base.build();
        prop_assert_eq!(a.content_key(), base.build().content_key());
        keys_match_json(&a, &donor.build())?;
        keys_match_json(&a, &base.with_field_of(&donor, field).build())?;
    }
}

fn profile(regions: Vec<Region>) -> WorkloadProfile {
    WorkloadProfile::builder("p")
        .regions(regions)
        .build()
        .unwrap()
}

#[test]
fn signed_zero_keys_apart_though_the_profiles_compare_equal() {
    let positive = WorkloadProfile::builder("p")
        .kernel_fraction(0.0)
        .build()
        .unwrap();
    let negative = WorkloadProfile::builder("p")
        .kernel_fraction(-0.0)
        .build()
        .unwrap();
    assert_eq!(positive, negative, "PartialEq cannot tell them apart");
    assert_ne!(json(&positive), json(&negative));
    assert_ne!(positive.content_key(), negative.content_key());
}

#[test]
fn a_rename_changes_the_key() {
    let p = profile(vec![Region::random(4096, 1.0)]);
    assert_ne!(p.content_key(), p.with_name("q").content_key());
    assert_eq!(p.content_key(), p.with_name("p").content_key());
}

#[test]
fn swapped_regions_key_apart() {
    let a = Region::random(4096, 1.0);
    let b = Region::streaming(1 << 20, 0.5, 64);
    assert_ne!(
        profile(vec![a, b]).content_key(),
        profile(vec![b, a]).content_key()
    );
}

#[test]
fn streaming_and_random_over_the_same_bytes_key_apart() {
    assert_ne!(
        profile(vec![Region::streaming(4096, 1.0, 64)]).content_key(),
        profile(vec![Region::random(4096, 1.0)]).content_key()
    );
}
