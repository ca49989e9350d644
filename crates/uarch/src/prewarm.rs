//! The prewarm region policy: which address regions a warmed run walks
//! through the caches and TLBs before its warmup instructions.
//!
//! Short simulation windows over-count cold misses of rarely-touched
//! regions, so every simulator with a warmup first touches each line of
//! the regions a long-running benchmark would keep resident. The scalar
//! [`crate::CoreSimulator`], the [`crate::FleetSimulator`] kernel and the
//! engine's cost estimate all take the region list from
//! [`prewarm_regions`], so they cannot disagree on it.

use horizon_trace::WorkloadProfile;

use crate::hierarchy::AccessKind;

/// Largest data region the prewarm pass walks: anything bigger cannot stay
/// resident and would only wash the LLC right before measurement.
const PREWARM_LIMIT: u64 = 6 << 20;

/// One address region the prewarm pass walks, one probe per 64 B line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrewarmRegion {
    /// First byte of the region.
    pub base: u64,
    /// Region size in bytes.
    pub bytes: u64,
    /// [`AccessKind::Data`] for data regions, [`AccessKind::Fetch`] for
    /// code.
    pub kind: AccessKind,
}

impl PrewarmRegion {
    /// The line addresses the walk probes, in ascending order.
    pub fn lines(&self) -> std::iter::StepBy<std::ops::Range<u64>> {
        (self.base..self.base + self.bytes).step_by(64)
    }
}

/// The regions a warmed run of `profile` prewarms, in walk order: every
/// data region of at most 6 MiB (DRAM-scale regions are skipped), then
/// the hot code, then the kernel code when the profile spends time in the
/// kernel.
pub fn prewarm_regions(profile: &WorkloadProfile) -> Vec<PrewarmRegion> {
    let data = horizon_trace::region_layout(profile)
        .into_iter()
        .filter(|&(_, bytes)| bytes <= PREWARM_LIMIT)
        .map(|(base, bytes)| (base, bytes, AccessKind::Data));
    let kernel = (profile.kernel_fraction() > 0.0).then(horizon_trace::kernel_code_layout);
    let code = std::iter::once(horizon_trace::hot_code_layout(profile))
        .chain(kernel)
        .map(|(base, bytes)| (base, bytes, AccessKind::Fetch));
    data.chain(code)
        .map(|(base, bytes, kind)| PrewarmRegion { base, bytes, kind })
        .collect()
}
