//! Content fingerprints for simulation jobs.
//!
//! A job is one `(workload profile, machine config, window, warmup, seed)`
//! quintuple. Its fingerprint is a 128-bit FNV-1a hash of the quintuple's
//! canonical JSON encoding, so two jobs share a fingerprint exactly when
//! every simulation input matches — the memo table and the on-disk cache
//! key on it. The encoding includes a schema version, so any change to the
//! serialized shape of profiles or machines invalidates old cache entries
//! instead of silently aliasing them.

use horizon_core::campaign::Campaign;
use horizon_trace::WorkloadProfile;
use horizon_uarch::MachineConfig;
use serde::{Serialize, Value};

/// Bump when the fingerprint encoding (or the meaning of a cached
/// measurement) changes; old disk-cache entries then miss cleanly.
pub const SCHEMA_VERSION: u32 = 1;

/// A job's content fingerprint: 32 lowercase hex digits.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(String);

impl Fingerprint {
    /// Fingerprints one simulation job.
    pub fn of_job(campaign: &Campaign, profile: &WorkloadProfile, machine: &MachineConfig) -> Self {
        let mut entries = vec![
            ("schema".to_string(), SCHEMA_VERSION.to_value()),
            ("instructions".to_string(), campaign.instructions.to_value()),
            ("warmup".to_string(), campaign.warmup.to_value()),
            ("seed".to_string(), campaign.seed.to_value()),
            ("profile".to_string(), profile.to_value()),
            ("machine".to_string(), machine.to_value()),
        ];
        // Sampled measurements are approximations of their exact
        // counterparts, never substitutes: the policy joins the key (only
        // when non-default, so every pre-existing exact entry keeps its
        // digest) and sampled/exact results can never alias.
        if campaign.sampling.is_sampled() {
            entries.push(("sampling".to_string(), campaign.sampling.to_value()));
        }
        let key = Value::Map(entries);
        let canonical = serde_json::to_string(&key).expect("canonical key serializes");
        Fingerprint(fnv1a_128_hex(canonical.as_bytes()))
    }

    /// Fingerprints the trace-defining inputs of a job — the campaign
    /// window and the workload profile, *without* the machine. Two jobs
    /// sharing this fingerprint expand the identical instruction stream,
    /// so the engine can simulate their machines together as one fleet
    /// batch (see `horizon_uarch::FleetSimulator`) without changing any
    /// result.
    pub fn of_profile(campaign: &Campaign, profile: &WorkloadProfile) -> Self {
        let mut entries = vec![
            ("schema".to_string(), SCHEMA_VERSION.to_value()),
            ("instructions".to_string(), campaign.instructions.to_value()),
            ("warmup".to_string(), campaign.warmup.to_value()),
            ("seed".to_string(), campaign.seed.to_value()),
            ("profile".to_string(), profile.to_value()),
        ];
        // Keep sampled and exact batches apart for the same reason as
        // `of_job`: a fleet batch's sampling policy changes what its jobs
        // compute, even though the expanded trace is identical.
        if campaign.sampling.is_sampled() {
            entries.push(("sampling".to_string(), campaign.sampling.to_value()));
        }
        let key = Value::Map(entries);
        let canonical = serde_json::to_string(&key).expect("canonical key serializes");
        Fingerprint(fnv1a_128_hex(canonical.as_bytes()))
    }

    /// The hex digest.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// 128-bit FNV-1a, rendered as 32 hex digits.
fn fnv1a_128_hex(bytes: &[u8]) -> String {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u128::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    format!("{hash:032x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_inputs() -> (Campaign, WorkloadProfile, MachineConfig) {
        let campaign = Campaign::quick();
        let profile = horizon_workloads::cpu2017::all()[0].profile().clone();
        let machine = MachineConfig::skylake_i7_6700();
        (campaign, profile, machine)
    }

    #[test]
    fn stable_for_identical_inputs() {
        let (c, p, m) = sample_inputs();
        assert_eq!(
            Fingerprint::of_job(&c, &p, &m),
            Fingerprint::of_job(&c, &p, &m)
        );
    }

    #[test]
    fn sensitive_to_every_campaign_knob() {
        let (c, p, m) = sample_inputs();
        let base = Fingerprint::of_job(&c, &p, &m);
        for variant in [
            Campaign {
                instructions: c.instructions + 1,
                ..c
            },
            Campaign {
                warmup: c.warmup + 1,
                ..c
            },
            Campaign {
                seed: c.seed + 1,
                ..c
            },
        ] {
            assert_ne!(base, Fingerprint::of_job(&variant, &p, &m));
        }
    }

    #[test]
    fn sensitive_to_profile_and_machine() {
        let (c, p, m) = sample_inputs();
        let base = Fingerprint::of_job(&c, &p, &m);
        let other_profile = horizon_workloads::cpu2017::all()[1].profile().clone();
        assert_ne!(base, Fingerprint::of_job(&c, &other_profile, &m));
        let other_machine = MachineConfig::sparc_t4();
        assert_ne!(base, Fingerprint::of_job(&c, &p, &other_machine));
    }

    #[test]
    fn sampling_policy_separates_and_keeps_exact_digests() {
        use horizon_core::campaign::SamplingPolicy;
        let (c, p, m) = sample_inputs();
        assert_eq!(c.sampling, SamplingPolicy::Exact);
        let exact_job = Fingerprint::of_job(&c, &p, &m);
        let sampled = Campaign {
            sampling: SamplingPolicy::simpoint_default(),
            ..c
        };
        assert_ne!(exact_job, Fingerprint::of_job(&sampled, &p, &m));
        assert_ne!(
            Fingerprint::of_profile(&c, &p),
            Fingerprint::of_profile(&sampled, &p)
        );
        let other_knobs = Campaign {
            sampling: SamplingPolicy::SimPoint {
                interval: 1_000,
                max_phases: 2,
            },
            ..c
        };
        assert_ne!(
            Fingerprint::of_job(&sampled, &p, &m),
            Fingerprint::of_job(&other_knobs, &p, &m)
        );
    }

    #[test]
    fn digest_shape() {
        let (c, p, m) = sample_inputs();
        let fp = Fingerprint::of_job(&c, &p, &m);
        assert_eq!(fp.as_str().len(), 32);
        assert!(fp.as_str().chars().all(|ch| ch.is_ascii_hexdigit()));
    }
}
