//! Content-addressed on-disk trace store.
//!
//! One packed trace file per [`TraceKey`], `<dir>/<key>.trace`. The key is
//! a 128-bit FNV-1a hash of the canonical JSON encoding of
//! `(schema, window, seed, profile)` — the same idiom as the engine's job
//! fingerprints, but deliberately *without* the machine and without the
//! warmup/measure split: every machine simulated against the same
//! `(profile, seed, window)` replays the same file, and campaigns that
//! slice the window differently (warmup vs. measured) still share it.
//!
//! The store is strictly best-effort and self-validating, like the
//! engine's measurement cache: a missing, truncated, corrupt, or
//! version-skewed file is a miss and the caller regenerates the stream.
//! Publication is atomic (write to a hidden temp file, fsync, rename), so
//! concurrent writers and readers never observe partial traces; mtime-LRU
//! eviction mirrors `DiskCache::gc` but budgets bytes rather than entry
//! counts, because traces are large and variably sized.

use crate::format::{TraceReader, TraceWriter, FORMAT_VERSION};
use horizon_trace::{Instruction, WorkloadProfile};
use serde::{Serialize, Value};
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// How stale a hidden `.tmp` file must be before a GC pass
/// ([`sweep_tmp_orphans`], run by [`TraceStore::gc`] and the engine's
/// measurement-cache GC) treats it as an orphan of an interrupted write,
/// such as a [`PendingTrace`] publication, rather than a concurrent
/// in-flight one. Crashed writers never clean up their temp file (`Drop`
/// does not run), so without this sweep the orphans accumulate invisibly —
/// they carry no `.trace` or `.json` extension, so the LRU pass never
/// sees them.
pub const TMP_ORPHAN_TTL: Duration = Duration::from_secs(60 * 60);

/// Deletes the hidden `.*.tmp` files in `dir` older than
/// [`TMP_ORPHAN_TTL`]: the orphans of writers that died between creating
/// a temp file and renaming it into place. Younger ones may belong to a
/// write still in progress and are kept. Returns the files deleted and
/// the bytes they held.
///
/// # Errors
///
/// Returns the underlying I/O error if `dir` cannot be listed. Individual
/// deletions are best-effort.
pub fn sweep_tmp_orphans(dir: &Path) -> std::io::Result<(u64, u64)> {
    let now = SystemTime::now();
    let (mut removed, mut reclaimed_bytes) = (0, 0);
    for dirent in std::fs::read_dir(dir)? {
        let Ok(dirent) = dirent else { continue };
        let path = dirent.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.starts_with('.') || !name.ends_with(".tmp") {
            continue;
        }
        let Ok(meta) = dirent.metadata() else {
            continue;
        };
        let age = meta
            .modified()
            .ok()
            .and_then(|m| now.duration_since(m).ok())
            .unwrap_or(Duration::ZERO);
        if age < TMP_ORPHAN_TTL {
            continue;
        }
        let len = meta.len();
        if std::fs::remove_file(&path).is_ok() {
            removed += 1;
            reclaimed_bytes += len;
        }
    }
    Ok((removed, reclaimed_bytes))
}

/// A trace's content address: 32 lowercase hex digits over the
/// trace-defining inputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceKey(String);

impl TraceKey {
    /// Keys the instruction stream a `(profile, seed)` pair expands, cut
    /// to `instructions` total (warmup and measured window combined).
    pub fn of(profile: &WorkloadProfile, seed: u64, instructions: u64) -> Self {
        let key = Value::Map(vec![
            ("schema".to_string(), FORMAT_VERSION.to_value()),
            ("instructions".to_string(), instructions.to_value()),
            ("seed".to_string(), seed.to_value()),
            ("profile".to_string(), profile.to_value()),
        ]);
        let canonical = serde_json::to_string(&key).expect("canonical key serializes");
        TraceKey(fnv1a_128_hex(canonical.as_bytes()))
    }

    /// The hex digest.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for TraceKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// 128-bit FNV-1a, rendered as 32 hex digits (same constants as the
/// engine's job fingerprints).
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

/// Result of one [`TraceStore::gc`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct TraceGc {
    /// Trace files present before the pass.
    pub examined: u64,
    /// Trace files deleted.
    pub removed: u64,
    /// Bytes freed by the deletions.
    pub reclaimed_bytes: u64,
    /// Trace files left in the store.
    pub retained: u64,
    /// Bytes still held by the retained files.
    pub retained_bytes: u64,
    /// Orphaned `.tmp` files (interrupted publications older than
    /// [`TMP_ORPHAN_TTL`]) deleted by the pass.
    pub tmp_removed: u64,
    /// Bytes freed by deleting those orphans.
    pub tmp_reclaimed_bytes: u64,
}

/// A directory of packed traces, addressed by [`TraceKey`].
#[derive(Debug, Clone)]
pub struct TraceStore {
    dir: PathBuf,
}

impl TraceStore {
    /// The byte budget `repro cache-gc` and the daemon's `POST /cache/gc`
    /// prune the store to when none is given: 256 MiB.
    pub const DEFAULT_MAX_BYTES: u64 = 256 << 20;

    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(TraceStore { dir })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn trace_path(&self, key: &TraceKey) -> PathBuf {
        self.dir.join(format!("{key}.trace"))
    }

    /// Loads and validates a stored trace, returning `None` on any miss or
    /// validation failure (absent, truncated, corrupt, version-skewed) —
    /// the caller then regenerates. A hit bumps the file's mtime so LRU
    /// eviction keeps the working set.
    pub fn load(&self, key: &TraceKey) -> Option<TraceReader> {
        let path = self.trace_path(key);
        let reader = TraceReader::open(&path).ok()?;
        touch(&path);
        Some(reader)
    }

    /// Starts writing the trace for `key`, declared to hold exactly
    /// `instructions` instructions. The bytes go to a hidden temp file;
    /// nothing is visible under the key until [`PendingTrace::publish`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the temp file cannot be created.
    pub fn begin(&self, key: &TraceKey, instructions: u64) -> std::io::Result<PendingTrace> {
        // The pid keeps concurrent processes racing on the same key from
        // clobbering each other's temp file; last rename wins, and both
        // published files are byte-identical anyway.
        let tmp = self.dir.join(format!(".{key}.{}.tmp", std::process::id()));
        let writer = TraceWriter::new(BufWriter::new(File::create(&tmp)?), instructions)?;
        Ok(PendingTrace {
            writer: Some(writer),
            tmp,
            path: self.trace_path(key),
        })
    }

    /// Prunes the store down to `max_total_bytes` of trace data, deleting
    /// the least recently used files first (by mtime; [`TraceStore::load`]
    /// touches traces on every hit, ties break by file name). Emits a
    /// `tracestore.gc` span plus `tracestore.gc_removed` and
    /// `tracestore.gc_reclaimed_bytes` counters to the globally installed
    /// recorder, if any.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the store directory cannot be
    /// listed. Individual deletions are best-effort: a file that vanishes
    /// or resists deletion mid-pass is skipped, not fatal.
    pub fn gc(&self, max_total_bytes: u64) -> std::io::Result<TraceGc> {
        let mut span = horizon_telemetry::span("tracestore.gc");
        let mut entries: Vec<(SystemTime, PathBuf, u64)> = Vec::new();
        for dirent in std::fs::read_dir(&self.dir)? {
            let dirent = dirent?;
            let path = dirent.path();
            if path.extension().and_then(|e| e.to_str()) != Some("trace") {
                continue;
            }
            let Ok(meta) = dirent.metadata() else {
                continue;
            };
            let modified = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            entries.push((modified, path, meta.len()));
        }
        entries.sort();

        let mut report = TraceGc {
            examined: entries.len() as u64,
            ..TraceGc::default()
        };
        let mut live: u64 = entries.iter().map(|(_, _, len)| len).sum();
        for (_, path, len) in &entries {
            if live <= max_total_bytes {
                break;
            }
            if std::fs::remove_file(path).is_ok() {
                report.removed += 1;
                report.reclaimed_bytes += *len;
                live -= *len;
            }
        }
        report.retained = report.examined - report.removed;
        report.retained_bytes = live;

        (report.tmp_removed, report.tmp_reclaimed_bytes) = sweep_tmp_orphans(&self.dir)?;

        span.record("examined", report.examined);
        span.record("removed", report.removed);
        span.record("reclaimed_bytes", report.reclaimed_bytes);
        span.record("tmp_removed", report.tmp_removed);
        horizon_telemetry::counter_add("tracestore.gc_removed", report.removed);
        horizon_telemetry::counter_add("tracestore.gc_reclaimed_bytes", report.reclaimed_bytes);
        horizon_telemetry::counter_add("tracestore.gc_tmp_removed", report.tmp_removed);
        horizon_telemetry::counter_add(
            "tracestore.gc_tmp_reclaimed_bytes",
            report.tmp_reclaimed_bytes,
        );
        Ok(report)
    }
}

/// An in-flight trace write: instructions stream into a hidden temp file,
/// and [`PendingTrace::publish`] atomically renames it under its key.
/// Dropping without publishing removes the temp file, so an aborted or
/// failed write leaves no debris and never a partial trace.
#[derive(Debug)]
pub struct PendingTrace {
    writer: Option<TraceWriter<BufWriter<File>>>,
    tmp: PathBuf,
    path: PathBuf,
}

impl PendingTrace {
    /// Appends one instruction to the pending trace.
    ///
    /// # Errors
    ///
    /// Propagates encoder and file I/O errors; after an error the pending
    /// trace should be dropped (publishing would fail anyway).
    pub fn push(&mut self, inst: &Instruction) -> std::io::Result<()> {
        self.writer
            .as_mut()
            .expect("writer present until publish")
            .push(inst)
    }

    /// Instructions pushed so far.
    pub fn instructions_written(&self) -> u64 {
        self.writer
            .as_ref()
            .expect("writer present until publish")
            .instructions_written()
    }

    /// Finalizes, fsyncs, and atomically renames the trace into place,
    /// returning the published file's size in bytes.
    ///
    /// # Errors
    ///
    /// Fails if fewer instructions were pushed than declared, or on any
    /// file I/O error; either way the temp file is removed on drop and the
    /// store is unchanged.
    pub fn publish(mut self) -> std::io::Result<u64> {
        let writer = self.writer.take().expect("writer present until publish");
        let file = writer
            .finish()?
            .into_inner()
            .map_err(std::io::Error::other)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&self.tmp, &self.path)?;
        Ok(std::fs::metadata(&self.path)?.len())
    }
}

impl Drop for PendingTrace {
    fn drop(&mut self) {
        // No-op after a successful publish (the temp file was renamed away).
        let _ = std::fs::remove_file(&self.tmp);
    }
}

/// Marks a trace recently used by bumping its mtime (best-effort).
fn touch(path: &Path) {
    if let Ok(file) = std::fs::OpenOptions::new().append(true).open(path) {
        let _ = file.set_modified(SystemTime::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horizon_trace::{Kind, TraceGenerator};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "horizon-tracestore-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_profile() -> WorkloadProfile {
        horizon_workloads::cpu2017::all()[0].profile().clone()
    }

    fn write_trace(
        store: &TraceStore,
        key: &TraceKey,
        profile: &WorkloadProfile,
        seed: u64,
        n: u64,
    ) {
        let mut pending = store.begin(key, n).unwrap();
        for inst in TraceGenerator::new(profile, seed).take(n as usize) {
            pending.push(&inst).unwrap();
        }
        assert!(pending.publish().unwrap() > 0);
    }

    #[test]
    fn store_round_trip_matches_generator() {
        let dir = temp_dir("roundtrip");
        let store = TraceStore::open(&dir).unwrap();
        let profile = sample_profile();
        let key = TraceKey::of(&profile, 42, 5_000);
        assert!(store.load(&key).is_none());
        write_trace(&store, &key, &profile, 42, 5_000);

        let reader = store.load(&key).expect("published trace loads");
        assert_eq!(reader.instructions(), 5_000);
        let replayed: Vec<Instruction> = reader.iter().collect();
        let fresh: Vec<Instruction> = TraceGenerator::new(&profile, 42).take(5_000).collect();
        assert_eq!(replayed, fresh);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keys_are_sensitive_to_every_input() {
        let profile = sample_profile();
        let base = TraceKey::of(&profile, 42, 5_000);
        assert_eq!(base, TraceKey::of(&profile, 42, 5_000));
        assert_ne!(base, TraceKey::of(&profile, 43, 5_000));
        assert_ne!(base, TraceKey::of(&profile, 42, 5_001));
        let other = horizon_workloads::cpu2017::all()[1].profile().clone();
        assert_ne!(base, TraceKey::of(&other, 42, 5_000));
        assert_eq!(base.as_str().len(), 32);
    }

    #[test]
    fn dropped_pending_trace_leaves_no_debris() {
        let dir = temp_dir("abort");
        let store = TraceStore::open(&dir).unwrap();
        let profile = sample_profile();
        let key = TraceKey::of(&profile, 1, 1_000);
        {
            let mut pending = store.begin(&key, 1_000).unwrap();
            for inst in TraceGenerator::new(&profile, 1).take(10) {
                pending.push(&inst).unwrap();
            }
            // Dropped before the declared count: publish never happens.
        }
        assert!(store.load(&key).is_none());
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "temp file removed"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_publish_is_rejected() {
        let dir = temp_dir("short");
        let store = TraceStore::open(&dir).unwrap();
        let profile = sample_profile();
        let key = TraceKey::of(&profile, 2, 1_000);
        let mut pending = store.begin(&key, 1_000).unwrap();
        for inst in TraceGenerator::new(&profile, 2).take(10) {
            pending.push(&inst).unwrap();
        }
        assert!(pending.publish().is_err());
        assert!(store.load(&key).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_trace_is_a_miss() {
        let dir = temp_dir("corrupt");
        let store = TraceStore::open(&dir).unwrap();
        let profile = sample_profile();
        let key = TraceKey::of(&profile, 3, 2_000);
        write_trace(&store, &key, &profile, 3, 2_000);
        let path = dir.join(format!("{key}.trace"));

        // Truncation.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(store.load(&key).is_none());

        // Version skew.
        let mut skewed = full.clone();
        skewed[8] = 0xfe;
        std::fs::write(&path, &skewed).unwrap();
        assert!(store.load(&key).is_none());

        // Bad magic.
        let mut bad = full.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(store.load(&key).is_none());

        // Rewriting repairs the entry.
        write_trace(&store, &key, &profile, 3, 2_000);
        assert!(store.load(&key).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Pins a trace's mtime so LRU order is unambiguous in tests.
    fn set_mtime(path: &Path, seconds: u64) {
        let file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        file.set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(seconds))
            .unwrap();
    }

    #[test]
    fn gc_evicts_least_recently_used_until_under_budget() {
        let dir = temp_dir("gc-lru");
        let store = TraceStore::open(&dir).unwrap();
        let profile = sample_profile();
        let keys: Vec<TraceKey> = (0..4)
            .map(|seed| {
                let key = TraceKey::of(&profile, seed, 3_000);
                write_trace(&store, &key, &profile, seed, 3_000);
                set_mtime(&dir.join(format!("{key}.trace")), 1_000 + seed);
                key
            })
            .collect();
        // Touch the oldest trace via a load: it becomes the most recent.
        assert!(store.load(&keys[0]).is_some());

        let per_trace = keys
            .iter()
            .map(|key| {
                std::fs::metadata(dir.join(format!("{key}.trace")))
                    .unwrap()
                    .len()
            })
            .max()
            .unwrap();
        let report = store.gc(2 * per_trace + 1).unwrap();
        assert_eq!(report.examined, 4);
        assert_eq!(report.removed, 2);
        assert_eq!(report.retained, 2);
        assert!(report.reclaimed_bytes > 0);
        assert!(report.retained_bytes <= 2 * per_trace + 1);

        // Survivors: the loaded trace (freshly touched) and the newest.
        assert!(store.load(&keys[0]).is_some());
        assert!(store.load(&keys[3]).is_some());
        assert!(store.load(&keys[1]).is_none());
        assert!(store.load(&keys[2]).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_under_budget_removes_nothing() {
        let dir = temp_dir("gc-under");
        let store = TraceStore::open(&dir).unwrap();
        let profile = sample_profile();
        let key = TraceKey::of(&profile, 9, 1_000);
        write_trace(&store, &key, &profile, 9, 1_000);
        let report = store.gc(u64::MAX).unwrap();
        assert_eq!(report.examined, 1);
        assert_eq!(report.removed, 0);
        assert_eq!(report.reclaimed_bytes, 0);
        assert_eq!(report.retained, 1);
        assert!(report.retained_bytes > 0);
        assert!(store.load(&key).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_prunes_stale_orphaned_tmp_files_but_keeps_fresh_ones() {
        let dir = temp_dir("gc-tmp");
        let store = TraceStore::open(&dir).unwrap();
        let profile = sample_profile();
        let key = TraceKey::of(&profile, 7, 1_000);
        write_trace(&store, &key, &profile, 7, 1_000);

        // An interrupted publication: a crashed writer (here, some other
        // pid) leaves its hidden temp file behind — Drop never ran.
        let orphan_path = dir.join(format!(".{key}.99999.tmp"));
        std::fs::write(&orphan_path, b"interrupted publication").unwrap();
        assert!(orphan_path.exists());

        // Fresh orphans survive: they may be a concurrent in-flight write.
        let report = store.gc(u64::MAX).unwrap();
        assert_eq!(report.tmp_removed, 0);
        assert_eq!(report.tmp_reclaimed_bytes, 0);
        assert!(orphan_path.exists());

        // Aged past the TTL it is pruned, without touching the published
        // trace.
        set_mtime(&orphan_path, 1_000);
        let report = store.gc(u64::MAX).unwrap();
        assert_eq!(report.tmp_removed, 1);
        assert!(report.tmp_reclaimed_bytes > 0);
        assert_eq!(report.removed, 0);
        assert!(!orphan_path.exists());
        assert!(store.load(&key).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn packed_size_stays_under_eight_bytes_per_instruction() {
        let dir = temp_dir("density");
        let store = TraceStore::open(&dir).unwrap();
        for workload in horizon_workloads::cpu2017::all().iter().take(4) {
            let profile = workload.profile().clone();
            let key = TraceKey::of(&profile, 42, 20_000);
            write_trace(&store, &key, &profile, 42, 20_000);
            let bytes = store.load(&key).unwrap().packed_bytes();
            assert!(
                bytes < 8 * 20_000,
                "{}: {bytes} bytes for 20000 instructions",
                workload.name()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generator_streams_have_expected_shape() {
        // Sanity-pin the generator contract the codec leans on: 4-aligned
        // mostly-sequential pcs and clustered data addresses.
        let profile = sample_profile();
        let mut sequential = 0usize;
        let mut prev_pc = None;
        for inst in TraceGenerator::new(&profile, 42).take(10_000) {
            assert_eq!(inst.pc % 4, 0);
            if let Some(p) = prev_pc {
                if inst.pc == p + 4 {
                    sequential += 1;
                }
            }
            prev_pc = Some(inst.pc);
            if let Kind::Load { addr } | Kind::Store { addr } = inst.kind {
                assert!(addr > 0);
            }
        }
        assert!(
            sequential > 5_000,
            "only {sequential} sequential pcs in 10k"
        );
    }
}
