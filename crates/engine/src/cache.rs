//! Optional on-disk measurement cache.
//!
//! One JSON file per job fingerprint, `<dir>/<fingerprint>.json`, holding a
//! versioned envelope around the serialized [`Measurement`]. The cache is
//! strictly best-effort and self-validating: a missing, unreadable,
//! corrupted, version-skewed, or mis-keyed file is treated as a miss and
//! the job is re-simulated, then the entry is rewritten. Because
//! simulation is deterministic, a valid entry is interchangeable with a
//! fresh simulation, so cache state can never change campaign results.

use horizon_core::campaign::Measurement;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

use crate::fingerprint::{Fingerprint, SCHEMA_VERSION};

/// Envelope stored per cached job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CacheEntry {
    /// Must equal [`SCHEMA_VERSION`]; older entries are stale.
    version: u32,
    /// Must match the file's fingerprint; guards against renamed files.
    fingerprint: String,
    /// The cached simulation result.
    measurement: Measurement,
}

/// Result of one [`DiskCache::gc`] pass, optionally combined with a trace
/// store pass ([`GcReport::absorb_trace`]). Serializable so the `repro
/// serve` daemon can return it as a JSON response body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GcReport {
    /// Entries present before the pass.
    pub examined: u64,
    /// Entries deleted.
    pub removed: u64,
    /// Bytes freed by the deletions.
    pub reclaimed_bytes: u64,
    /// Entries left in the cache.
    pub retained: u64,
    /// Trace files present before the trace-store pass (zero when no
    /// trace store was pruned).
    pub trace_examined: u64,
    /// Trace files deleted.
    pub trace_removed: u64,
    /// Bytes freed by trace deletions.
    pub trace_reclaimed_bytes: u64,
    /// Trace files left in the store.
    pub trace_retained: u64,
    /// Bytes still held by the retained trace files.
    pub trace_retained_bytes: u64,
    /// Orphaned trace temp files (interrupted publications) deleted.
    pub trace_tmp_removed: u64,
    /// Bytes freed by deleting those orphans.
    pub trace_tmp_reclaimed_bytes: u64,
}

impl GcReport {
    /// Folds a trace-store GC pass into this report.
    pub fn absorb_trace(&mut self, trace: &horizon_tracestore::TraceGc) {
        self.trace_examined += trace.examined;
        self.trace_removed += trace.removed;
        self.trace_reclaimed_bytes += trace.reclaimed_bytes;
        self.trace_retained += trace.retained;
        self.trace_retained_bytes += trace.retained_bytes;
        self.trace_tmp_removed += trace.tmp_removed;
        self.trace_tmp_reclaimed_bytes += trace.tmp_reclaimed_bytes;
    }
}

/// A directory of cached measurements.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// The entry count `repro cache-gc` and the daemon's `POST /cache/gc`
    /// prune the cache to when none is given.
    pub const DEFAULT_MAX_ENTRIES: usize = 1024;

    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, fingerprint: &Fingerprint) -> PathBuf {
        self.dir.join(format!("{fingerprint}.json"))
    }

    /// Loads a measurement, returning `None` on any validation failure
    /// (absent, unreadable, unparseable, stale version, wrong key).
    pub fn load(&self, fingerprint: &Fingerprint) -> Option<Measurement> {
        let path = self.entry_path(fingerprint);
        let text = std::fs::read_to_string(&path).ok()?;
        let entry: CacheEntry = serde_json::from_str(&text).ok()?;
        if entry.version != SCHEMA_VERSION || entry.fingerprint != fingerprint.as_str() {
            return None;
        }
        // Mark the entry recently used so LRU garbage collection keeps the
        // working set. Best-effort: a read-only cache still serves hits.
        touch(&path);
        Some(entry.measurement)
    }

    /// Stores a measurement. Best-effort: reports success, and leaves any
    /// prior entry untouched on failure (writes go through a temp file and
    /// an atomic rename, so readers never see partial JSON). Each writer
    /// gets its own temp file, named by pid and a process-wide counter, so
    /// concurrent stores of one entry never write into each other's file;
    /// the last rename wins, and every candidate holds the same bytes.
    pub fn store(&self, fingerprint: &Fingerprint, measurement: &Measurement) -> bool {
        let entry = CacheEntry {
            version: SCHEMA_VERSION,
            fingerprint: fingerprint.as_str().to_string(),
            measurement: measurement.clone(),
        };
        let Ok(text) = serde_json::to_string_pretty(&entry) else {
            return false;
        };
        let path = self.entry_path(fingerprint);
        static WRITERS: AtomicU64 = AtomicU64::new(0);
        let writer = WRITERS.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".{fingerprint}.{}.{writer}.tmp",
            std::process::id()
        ));
        let write = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
            std::fs::rename(&tmp, &path)
        };
        let ok = write().is_ok();
        if !ok {
            let _ = std::fs::remove_file(&tmp);
        }
        ok
    }

    /// Prunes the cache down to `max_entries` entries, deleting the least
    /// recently used first (by file mtime; [`DiskCache::load`] touches
    /// entries on every hit). Ties break by file name so a pass is
    /// deterministic on coarse-mtime filesystems. Emits an
    /// `engine.cache_gc` span plus `engine.cache_gc_removed` and
    /// `engine.cache_gc_reclaimed_bytes` counters to the globally
    /// installed recorder, if any.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the cache directory cannot be
    /// listed. Individual entry deletions are best-effort: an entry that
    /// vanishes or resists deletion mid-pass is skipped, not fatal.
    pub fn gc(&self, max_entries: usize) -> std::io::Result<GcReport> {
        let mut span = horizon_telemetry::span("engine.cache_gc");
        let mut entries: Vec<(SystemTime, PathBuf, u64)> = Vec::new();
        for dirent in std::fs::read_dir(&self.dir)? {
            let dirent = dirent?;
            let path = dirent.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let Ok(meta) = dirent.metadata() else {
                continue;
            };
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            entries.push((mtime, path, meta.len()));
        }
        entries.sort();

        let mut report = GcReport {
            examined: entries.len() as u64,
            ..GcReport::default()
        };
        let excess = entries.len().saturating_sub(max_entries);
        for (_, path, len) in &entries[..excess] {
            if std::fs::remove_file(path).is_ok() {
                report.removed += 1;
                report.reclaimed_bytes += *len;
            }
        }
        report.retained = report.examined - report.removed;

        span.record("examined", report.examined);
        span.record("removed", report.removed);
        span.record("reclaimed_bytes", report.reclaimed_bytes);
        horizon_telemetry::counter_add("engine.cache_gc_removed", report.removed);
        horizon_telemetry::counter_add("engine.cache_gc_reclaimed_bytes", report.reclaimed_bytes);
        Ok(report)
    }
}

/// Marks a cache entry recently used by bumping its mtime (best-effort).
fn touch(path: &Path) {
    if let Ok(file) = std::fs::OpenOptions::new().append(true).open(path) {
        let _ = file.set_modified(SystemTime::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horizon_core::campaign::Campaign;
    use horizon_trace::{TraceGenerator, WorkloadProfile};
    use horizon_uarch::MachineConfig;

    /// One (profile, machine) cell through the fleet entry point.
    fn measure_cell(
        campaign: &Campaign,
        profile: &WorkloadProfile,
        machine: &MachineConfig,
    ) -> Measurement {
        campaign
            .measure_fleet(profile, std::slice::from_ref(machine), || {
                TraceGenerator::new(profile, campaign.seed)
            })
            .pop()
            .expect("one machine, one measurement")
    }

    fn sample() -> (Fingerprint, Measurement) {
        let campaign = Campaign {
            instructions: 20_000,
            warmup: 5_000,
            seed: 7,
            ..Campaign::default()
        };
        let profile = horizon_workloads::cpu2017::all()[0].profile().clone();
        let machine = MachineConfig::skylake_i7_6700();
        let fp = Fingerprint::of_job(&campaign, &profile, &machine);
        let m = measure_cell(&campaign, &profile, &machine);
        (fp, m)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "horizon-engine-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_is_exact() {
        let dir = temp_dir("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        let (fp, m) = sample();
        assert!(cache.load(&fp).is_none());
        assert!(cache.store(&fp, &m));
        assert_eq!(cache.load(&fp).as_ref(), Some(&m));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_and_stale_entries_miss() {
        let dir = temp_dir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        let (fp, m) = sample();
        assert!(cache.store(&fp, &m));
        let path = dir.join(format!("{fp}.json"));

        // Truncated JSON.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(cache.load(&fp).is_none());

        // Valid JSON, stale schema version.
        std::fs::write(&path, full.replacen("\"version\": 1", "\"version\": 0", 1)).unwrap();
        assert!(cache.load(&fp).is_none());

        // Valid JSON, wrong fingerprint (renamed file).
        std::fs::write(&path, full.replace(fp.as_str(), &"0".repeat(32))).unwrap();
        assert!(cache.load(&fp).is_none());

        // Not JSON at all.
        std::fs::write(&path, "not json").unwrap();
        assert!(cache.load(&fp).is_none());

        // Re-storing repairs the entry.
        assert!(cache.store(&fp, &m));
        assert_eq!(cache.load(&fp).as_ref(), Some(&m));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_stores_of_one_entry_all_succeed() {
        let dir = temp_dir("concurrent-store");
        let (fp, m) = sample();
        let (failed_stores, missed_loads) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = DiskCache::open(&dir).unwrap();
                    let (fp, m) = (&fp, &m);
                    scope.spawn(move || {
                        let (mut failed, mut missed) = (0, 0);
                        for _ in 0..200 {
                            failed += usize::from(!cache.store(fp, m));
                            missed += usize::from(cache.load(fp).as_ref() != Some(m));
                        }
                        (failed, missed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold((0, 0), |acc, (f, l)| (acc.0 + f, acc.1 + l))
        });
        assert_eq!(failed_stores, 0, "every store must succeed");
        assert_eq!(missed_loads, 0, "no load may see a torn entry");
        let leftovers = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(leftovers, 1, "only the entry remains, no temp files");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Distinct fingerprints over the same measurement, for filling a cache.
    fn sample_entries(n: u64) -> Vec<(Fingerprint, Measurement)> {
        let profile = horizon_workloads::cpu2017::all()[0].profile().clone();
        let machine = MachineConfig::skylake_i7_6700();
        (0..n)
            .map(|seed| {
                let campaign = Campaign {
                    instructions: 20_000,
                    warmup: 5_000,
                    seed,
                    ..Campaign::default()
                };
                let fp = Fingerprint::of_job(&campaign, &profile, &machine);
                let m = measure_cell(&campaign, &profile, &machine);
                (fp, m)
            })
            .collect()
    }

    /// Pins an entry's mtime so LRU order is unambiguous in tests.
    fn set_mtime(path: &Path, seconds: u64) {
        let file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        file.set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(seconds))
            .unwrap();
    }

    #[test]
    fn gc_prunes_least_recently_used_entries_first() {
        let dir = temp_dir("gc-lru");
        let cache = DiskCache::open(&dir).unwrap();
        let entries = sample_entries(4);
        for (i, (fp, m)) in entries.iter().enumerate() {
            assert!(cache.store(fp, m));
            set_mtime(&dir.join(format!("{fp}.json")), 1_000 + i as u64);
        }
        // Touch the oldest entry via a load: it becomes the most recent.
        assert!(cache.load(&entries[0].0).is_some());

        let report = cache.gc(2).unwrap();
        assert_eq!(report.examined, 4);
        assert_eq!(report.removed, 2);
        assert_eq!(report.retained, 2);
        assert!(report.reclaimed_bytes > 0);

        // Survivors: the loaded entry (freshly touched) and the newest.
        assert!(cache.load(&entries[0].0).is_some());
        assert!(cache.load(&entries[3].0).is_some());
        assert!(cache.load(&entries[1].0).is_none());
        assert!(cache.load(&entries[2].0).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_under_capacity_removes_nothing() {
        let dir = temp_dir("gc-under");
        let cache = DiskCache::open(&dir).unwrap();
        let entries = sample_entries(2);
        for (fp, m) in &entries {
            assert!(cache.store(fp, m));
        }
        let report = cache.gc(10).unwrap();
        assert_eq!(
            report,
            GcReport {
                examined: 2,
                removed: 0,
                reclaimed_bytes: 0,
                retained: 2,
                ..GcReport::default()
            }
        );
        for (fp, _) in &entries {
            assert!(cache.load(fp).is_some());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
