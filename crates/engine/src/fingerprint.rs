//! Content fingerprints for simulation jobs.
//!
//! A job is one `(workload profile, machine config, window, warmup, seed)`
//! quintuple. Its fingerprint is a 128-bit FNV-1a hash of the quintuple's
//! canonical JSON encoding, so two jobs share a fingerprint exactly when
//! every simulation input matches — the memo table and the on-disk cache
//! key on it. The encoding includes a schema version, so any change to the
//! serialized shape of profiles or machines invalidates old cache entries
//! instead of silently aliasing them.

use horizon_core::campaign::{Campaign, SamplingPolicy};
use horizon_trace::WorkloadProfile;
use horizon_uarch::MachineConfig;
use serde::{Serialize, Value};
use std::collections::HashMap;

/// Bump when the fingerprint encoding (or the meaning of a cached
/// measurement) changes; old disk-cache entries then miss cleanly.
pub const SCHEMA_VERSION: u32 = 1;

/// A job's content fingerprint: 32 lowercase hex digits.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(String);

/// The canonical key entries every job of one profile shares, in key
/// order: `schema` through `profile`.
fn profile_entries(campaign: &Campaign, profile: &WorkloadProfile) -> Vec<(String, Value)> {
    vec![
        ("schema".to_string(), SCHEMA_VERSION.to_value()),
        ("instructions".to_string(), campaign.instructions.to_value()),
        ("warmup".to_string(), campaign.warmup.to_value()),
        ("seed".to_string(), campaign.seed.to_value()),
        ("profile".to_string(), profile.to_value()),
    ]
}

/// The `"sampling"` entry. Sampled measurements are approximations of
/// their exact counterparts, never substitutes: the policy joins the key
/// so sampled and exact results can never alias, but only when
/// non-default, so every exact key keeps the digest it had before
/// sampling existed.
fn sampling_entry(campaign: &Campaign) -> Option<(String, Value)> {
    campaign
        .sampling
        .is_sampled()
        .then(|| ("sampling".to_string(), campaign.sampling.to_value()))
}

impl Fingerprint {
    /// Fingerprints one simulation job. The engine fingerprints a whole
    /// grid without this call: its `KeyCache` hashes each profile row's key
    /// prefix once (`JobPrefix`), serializes each machine once
    /// (`MachineJson`) and keeps every digest, which are the same digests.
    pub fn of_job(campaign: &Campaign, profile: &WorkloadProfile, machine: &MachineConfig) -> Self {
        JobPrefix::new(campaign, profile).job(&MachineJson::new(machine))
    }

    /// Fingerprints the trace-defining inputs of a job — the campaign
    /// window and the workload profile, *without* the machine. Two jobs
    /// sharing this fingerprint expand the identical instruction stream,
    /// so the engine can simulate their machines together as one fleet
    /// batch (see `horizon_uarch::FleetSimulator`) without changing any
    /// result.
    pub fn of_profile(campaign: &Campaign, profile: &WorkloadProfile) -> Self {
        let mut entries = profile_entries(campaign, profile);
        // Keep sampled and exact batches apart for the same reason as job
        // keys: a fleet batch's sampling policy changes what its jobs
        // compute, even though the expanded trace is identical.
        entries.extend(sampling_entry(campaign));
        let canonical = serde_json::to_string(&Value::Map(entries)).expect("key serializes");
        let mut hash = Fnv1a128::new();
        hash.write(canonical.as_bytes());
        Fingerprint(hash.hex())
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

/// A machine config's canonical JSON, serialized once and reused for
/// every job of the grid that runs on it.
#[derive(Debug, Clone)]
pub(crate) struct MachineJson(String);

impl MachineJson {
    /// Serializes `machine` as it appears in a job key.
    pub(crate) fn new(machine: &MachineConfig) -> Self {
        MachineJson(serde_json::to_string(machine).expect("machine serializes"))
    }
}

/// The job key of one profile row, hashed up to the machine.
///
/// A job's canonical key is the compact JSON object
/// `{"schema":…,"instructions":…,"warmup":…,"seed":…,"profile":…,"machine":…}`,
/// plus a trailing `"sampling"` entry for sampled campaigns, and its
/// fingerprint is the 128-bit FNV-1a hash of those bytes. FNV-1a is a
/// left-to-right fold, so the state after the shared prefix (everything
/// before the machine's value) is computed once per profile and every
/// job of the row continues it over the machine's pre-serialized JSON
/// and the closing bytes. The digest is identical to hashing the whole
/// key as one string.
#[derive(Debug, Clone)]
pub(crate) struct JobPrefix {
    hash: Fnv1a128,
    /// The bytes after the machine's value: the sampling entry, if any,
    /// and the closing brace.
    tail: String,
}

impl JobPrefix {
    /// Hashes the key prefix shared by every job of `profile`.
    pub(crate) fn new(campaign: &Campaign, profile: &WorkloadProfile) -> Self {
        let head = serde_json::to_string(&Value::Map(profile_entries(campaign, profile)))
            .expect("key prefix serializes");
        let open = head.strip_suffix('}').expect("a JSON object");
        let mut hash = Fnv1a128::new();
        hash.write(open.as_bytes());
        hash.write(b",\"machine\":");
        let mut tail = String::new();
        if let Some((key, value)) = sampling_entry(campaign) {
            tail.push(',');
            tail.push_str(&serde_json::to_string(&key).expect("key serializes"));
            tail.push(':');
            tail.push_str(&serde_json::to_string(&value).expect("policy serializes"));
        }
        tail.push('}');
        JobPrefix { hash, tail }
    }

    /// The fingerprint of this profile's job on `machine`.
    pub(crate) fn job(&self, machine: &MachineJson) -> Fingerprint {
        let mut hash = self.hash;
        hash.write(machine.0.as_bytes());
        hash.write(self.tail.as_bytes());
        Fingerprint(hash.hex())
    }
}

/// The engine's memo of job keys, so a warm expansion costs one hash
/// lookup per profile row and per cell instead of a JSON serialization
/// and an FNV-1a fold.
///
/// Machines are interned by [`MachineConfig::content_key`] to an id and
/// their canonical JSON. Rows are keyed by the campaign's window, seed and
/// sampling policy plus [`WorkloadProfile::content_key`]; a row holds its
/// [`JobPrefix`], its [`Fingerprint::of_profile`] batch key, and the job
/// fingerprint of each machine id it has met. Content keys are the
/// bit-exact words of every field, never coarser than the JSON, and a miss
/// computes exactly what [`Fingerprint::of_job`] computes, so every cached
/// digest equals the uncached one. The cache grows by one entry per
/// distinct row and per distinct job, as the memo does.
#[derive(Debug, Default)]
pub(crate) struct KeyCache {
    machine_ids: HashMap<Vec<u64>, usize>,
    /// Canonical JSON by machine id.
    machines: Vec<MachineJson>,
    row_ids: HashMap<RowKey, usize>,
    rows: Vec<Row>,
}

/// Everything a profile row's keys depend on besides the machine.
#[derive(Debug, PartialEq, Eq, Hash)]
struct RowKey {
    instructions: u64,
    warmup: u64,
    seed: u64,
    sampling: SamplingPolicy,
    profile: Vec<u64>,
}

#[derive(Debug)]
struct Row {
    prefix: JobPrefix,
    batch: Fingerprint,
    /// Job fingerprints by machine id, filled as machines are met.
    jobs: Vec<Option<Fingerprint>>,
}

impl KeyCache {
    /// The id of `machine`, interning it on first sight.
    pub(crate) fn machine(&mut self, machine: &MachineConfig) -> usize {
        let key = machine.content_key();
        if let Some(&id) = self.machine_ids.get(&key) {
            return id;
        }
        let id = self.machines.len();
        self.machines.push(MachineJson::new(machine));
        self.machine_ids.insert(key, id);
        id
    }

    /// The id of `profile`'s row under `campaign`, and whether it was
    /// cached.
    pub(crate) fn row(&mut self, campaign: &Campaign, profile: &WorkloadProfile) -> (usize, bool) {
        let key = RowKey {
            instructions: campaign.instructions,
            warmup: campaign.warmup,
            seed: campaign.seed,
            sampling: campaign.sampling,
            profile: profile.content_key(),
        };
        if let Some(&id) = self.row_ids.get(&key) {
            return (id, true);
        }
        let id = self.rows.len();
        self.rows.push(Row {
            prefix: JobPrefix::new(campaign, profile),
            batch: Fingerprint::of_profile(campaign, profile),
            jobs: Vec::new(),
        });
        self.row_ids.insert(key, id);
        (id, false)
    }

    /// The fingerprint of row `row`'s job on machine id `machine`, and
    /// whether it was cached.
    pub(crate) fn job(&mut self, row: usize, machine: usize) -> (&Fingerprint, bool) {
        let Row { prefix, jobs, .. } = &mut self.rows[row];
        if jobs.len() <= machine {
            jobs.resize(machine + 1, None);
        }
        let hit = jobs[machine].is_some();
        let fp = jobs[machine].get_or_insert_with(|| prefix.job(&self.machines[machine]));
        (fp, hit)
    }

    /// Row `row`'s fleet-batch key ([`Fingerprint::of_profile`]).
    pub(crate) fn batch(&self, row: usize) -> &Fingerprint {
        &self.rows[row].batch
    }
}

/// 128-bit FNV-1a state, rendered as 32 hex digits.
#[derive(Debug, Clone, Copy)]
struct Fnv1a128(u128);

impl Fnv1a128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    fn new() -> Self {
        Fnv1a128(Self::OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn hex(self) -> String {
        format!("{:032x}", self.0)
    }
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

    /// The whole-string key: the canonical JSON built in one piece and
    /// hashed in one pass. The streamed path must match it digit for digit.
    fn reference_of_job(
        campaign: &Campaign,
        profile: &WorkloadProfile,
        machine: &MachineConfig,
    ) -> Fingerprint {
        let mut entries = vec![
            ("schema".to_string(), SCHEMA_VERSION.to_value()),
            ("instructions".to_string(), campaign.instructions.to_value()),
            ("warmup".to_string(), campaign.warmup.to_value()),
            ("seed".to_string(), campaign.seed.to_value()),
            ("profile".to_string(), profile.to_value()),
            ("machine".to_string(), machine.to_value()),
        ];
        if campaign.sampling.is_sampled() {
            entries.push(("sampling".to_string(), campaign.sampling.to_value()));
        }
        let canonical = serde_json::to_string(&Value::Map(entries)).unwrap();
        let mut hash = Fnv1a128::new();
        hash.write(canonical.as_bytes());
        Fingerprint(hash.hex())
    }

    #[test]
    fn streamed_digests_match_the_whole_string_key_for_every_cell() {
        use horizon_core::campaign::SamplingPolicy;
        let mut profiles: Vec<WorkloadProfile> = Vec::new();
        for benchmark in horizon_workloads::full_catalog() {
            profiles.push(benchmark.profile().clone());
            for input in horizon_workloads::inputs::input_sets(&benchmark) {
                profiles.push(input.profile);
            }
        }
        let machines = MachineConfig::table_iv_machines();
        let machine_json: Vec<MachineJson> = machines.iter().map(MachineJson::new).collect();
        let campaigns = [
            Campaign::default(),
            Campaign::quick(),
            Campaign {
                sampling: SamplingPolicy::simpoint_default(),
                ..Campaign::quick()
            },
        ];
        let mut cells = 0;
        for campaign in &campaigns {
            for profile in &profiles {
                let prefix = JobPrefix::new(campaign, profile);
                for (machine, json) in machines.iter().zip(&machine_json) {
                    let reference = reference_of_job(campaign, profile, machine);
                    assert_eq!(prefix.job(json), reference, "{}", profile.name());
                    assert_eq!(Fingerprint::of_job(campaign, profile, machine), reference);
                    cells += 1;
                }
            }
        }
        assert!(cells >= 3 * 70 * 7, "{cells} cells");
    }

    #[test]
    fn key_cache_returns_the_uncached_digests_on_every_expansion() {
        use horizon_core::campaign::SamplingPolicy;
        let mut profiles: Vec<WorkloadProfile> = Vec::new();
        for benchmark in horizon_workloads::full_catalog() {
            profiles.push(benchmark.profile().clone());
            for input in horizon_workloads::inputs::input_sets(&benchmark) {
                profiles.push(input.profile);
            }
        }
        let machines = MachineConfig::table_iv_machines();
        let campaigns = [
            Campaign::default(),
            Campaign::quick(),
            Campaign {
                sampling: SamplingPolicy::simpoint_default(),
                ..Campaign::quick()
            },
        ];
        // Some input sets share their benchmark's content, so the first
        // pass already hits on their rows.
        let distinct: std::collections::HashSet<Vec<u64>> =
            profiles.iter().map(WorkloadProfile::content_key).collect();
        let mut keys = KeyCache::default();
        for pass in 0..2 {
            for campaign in &campaigns {
                let mut seen = std::collections::HashSet::new();
                let ids: Vec<usize> = machines.iter().map(|m| keys.machine(m)).collect();
                for profile in &profiles {
                    let warm = pass == 1 || !seen.insert(profile.content_key());
                    let (row, row_hit) = keys.row(campaign, profile);
                    assert_eq!(row_hit, warm, "{}", profile.name());
                    assert_eq!(keys.batch(row), &Fingerprint::of_profile(campaign, profile));
                    for (machine, &id) in machines.iter().zip(&ids) {
                        let (fp, cell_hit) = keys.job(row, id);
                        assert_eq!(cell_hit, warm);
                        assert_eq!(fp, &Fingerprint::of_job(campaign, profile, machine));
                    }
                }
            }
        }
        assert_eq!(keys.machines.len(), machines.len());
        assert_eq!(keys.rows.len(), campaigns.len() * distinct.len());
    }

    #[test]
    fn digests_are_pinned() {
        // Disk caches written by earlier builds key on these digests; a
        // change here silently turns every cached entry into a miss.
        let (c, p, m) = sample_inputs();
        assert_eq!(
            Fingerprint::of_job(&c, &p, &m).as_str(),
            "285852e5460b2309e0a371376c60ed33"
        );
        assert_eq!(
            Fingerprint::of_profile(&c, &p).as_str(),
            "1fcd381a7c492b226f81ea8680290d59"
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
