//! Packed binary instruction traces and a content-addressed trace store.
//!
//! The simulators in this workspace consume instruction streams that a
//! [`horizon_trace::TraceGenerator`] expands deterministically from a
//! `(profile, seed)` pair. Re-expanding that stream is the dominant cost
//! of a warm simulation run, and the same stream is expanded once per
//! machine batch even when the engine's result memo is cold. This crate
//! splits generation from consumption:
//!
//! - [`TraceWriter`] / [`TraceReader`] implement a schema-versioned,
//!   checksummed, delta-encoded binary format ([`mod@format`] documents the
//!   byte layout) whose decoded stream is bit-identical to the generator's
//!   and packs an instruction into a few bytes — well under the 8-byte
//!   budget, vs. 24 in memory.
//! - [`TraceStore`] is a content-addressed directory of such files keyed
//!   by [`TraceKey`] (a 128-bit hash of `(profile, seed, window)`), with
//!   atomic write-then-rename publication ([`PendingTrace`]) and
//!   byte-budgeted mtime-LRU eviction ([`gc`](TraceStore::gc)).
//!
//! Everything is best-effort and self-validating: any corruption —
//! truncation, bit flips, version skew — surfaces as a clean
//! [`TraceError`] (or a `load` miss) and the caller falls back to
//! regeneration, so the store can only ever change wall-clock time, never
//! simulation results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod store;

pub use format::{
    Replay, TraceError, TraceReader, TraceWriter, FORMAT_VERSION, GRANULE_INSTRUCTIONS,
};
pub use store::{sweep_tmp_orphans, PendingTrace, TraceGc, TraceKey, TraceStore, TMP_ORPHAN_TTL};
