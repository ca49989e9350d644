//! Sensitivity classification (§V-G, Table IX).
//!
//! A benchmark is *sensitive* to a machine characteristic (branch
//! predictor, L1D geometry, D-TLB) when its rank by the corresponding
//! metric moves a lot from machine to machine; insensitive benchmarks hold
//! their rank everywhere ("they perform similarly poor across the different
//! machines", as the paper notes for leela).

use horizon_stats::{rank_spread, ranks};
use serde::{Deserialize, Serialize};

use crate::campaign::CampaignResult;
use crate::metrics::Metric;
use crate::CoreError;

/// Sensitivity class of one benchmark for one characteristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SensitivityClass {
    /// Rank barely moves across machines.
    Low,
    /// Rank moves moderately.
    Medium,
    /// Rank swings widely across machines.
    High,
}

impl std::fmt::Display for SensitivityClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SensitivityClass::Low => "Low",
            SensitivityClass::Medium => "Medium",
            SensitivityClass::High => "High",
        })
    }
}

/// One benchmark's sensitivity verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sensitivity {
    /// Benchmark name.
    pub benchmark: String,
    /// Rank spread (max rank − min rank) across machines.
    pub rank_spread: f64,
    /// Symmetric relative range of the metric across machines:
    /// `(max − min) / (max + min)`, in `[0, 1)`.
    pub relative_range: f64,
    /// The classification.
    pub class: SensitivityClass,
}

/// Classification thresholds as fractions of the maximum possible spread.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensitivityThresholds {
    /// Spread fraction at or above which a benchmark is High.
    pub high: f64,
    /// Spread fraction at or above which a benchmark is Medium.
    pub medium: f64,
}

impl Default for SensitivityThresholds {
    fn default() -> Self {
        SensitivityThresholds {
            high: 0.5,
            medium: 0.25,
        }
    }
}

/// Classifies every workload's cross-machine sensitivity to `metric`.
///
/// The paper uses rank differences across machines as the indicator; with a
/// handful of machines ranks saturate at the extremes (a benchmark that is
/// worst *everywhere* never moves rank however much its miss rate changes),
/// so the classification combines the rank-spread fraction with the
/// symmetric relative range of the metric value, taking the larger. Both
/// are reported.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] for campaigns with fewer than two
/// machines or two workloads; propagates rank failures.
///
/// # Example
///
/// ```no_run
/// use horizon_core::campaign::Campaign;
/// use horizon_core::metrics::Metric;
/// use horizon_core::sensitivity::{classify_sensitivity, SensitivityThresholds};
/// use horizon_uarch::MachineConfig;
/// use horizon_workloads::cpu2017;
///
/// let result = Campaign::default()
///     .measure(&cpu2017::all(), &MachineConfig::table_iv_machines());
/// let classes = classify_sensitivity(
///     &result,
///     Metric::L1DMpki,
///     SensitivityThresholds::default(),
/// )?;
/// for s in classes {
///     println!("{}: {}", s.benchmark, s.class);
/// }
/// # Ok::<(), horizon_core::CoreError>(())
/// ```
pub fn classify_sensitivity(
    result: &CampaignResult,
    metric: Metric,
    thresholds: SensitivityThresholds,
) -> Result<Vec<Sensitivity>, CoreError> {
    let n = result.workloads().len();
    let machines = result.machines().len();
    if n < 2 || machines < 2 {
        return Err(CoreError::InvalidArgument {
            reason: "sensitivity needs ≥2 workloads and ≥2 machines".into(),
        });
    }
    let values: Vec<Vec<f64>> = (0..machines)
        .map(|m| (0..n).map(|w| metric.extract(result.at(w, m))).collect())
        .collect();
    let rankings = values
        .iter()
        .map(|v| ranks(v))
        .collect::<Result<Vec<_>, _>>()?;
    let spreads = rank_spread(&rankings)?;
    let max_spread = (n - 1) as f64;
    // A benchmark that barely exercises the metric anywhere cannot be
    // sensitive to it, however large its *relative* variation: floor the
    // classification at a small fraction of the strongest exerciser.
    let mean_of = |w: usize| -> f64 { values.iter().map(|v| v[w]).sum::<f64>() / machines as f64 };
    let strongest = (0..n).map(mean_of).fold(0.0f64, f64::max);
    let floor = strongest * 0.05;
    Ok(result
        .workloads()
        .iter()
        .enumerate()
        .zip(spreads)
        .map(|((w, name), spread)| {
            let per_machine: Vec<f64> = values.iter().map(|v| v[w]).collect();
            let max = per_machine
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            let min = per_machine.iter().cloned().fold(f64::INFINITY, f64::min);
            let relative_range = if max + min > 0.0 {
                (max - min) / (max + min)
            } else {
                0.0
            };
            let frac = if mean_of(w) < floor {
                0.0
            } else {
                (spread / max_spread).max(relative_range)
            };
            let class = if frac >= thresholds.high {
                SensitivityClass::High
            } else if frac >= thresholds.medium {
                SensitivityClass::Medium
            } else {
                SensitivityClass::Low
            };
            Sensitivity {
                benchmark: name.clone(),
                rank_spread: spread,
                relative_range,
                class,
            }
        })
        .collect())
}

/// The benchmarks in a given class, preserving campaign order.
pub fn in_class(sensitivities: &[Sensitivity], class: SensitivityClass) -> Vec<&str> {
    sensitivities
        .iter()
        .filter(|s| s.class == class)
        .map(|s| s.benchmark.as_str())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use horizon_uarch::MachineConfig;
    use horizon_workloads::cpu2017;

    fn campaign() -> CampaignResult {
        // Rank over both rate sub-suites: ranks need enough peers to move.
        let mut benchmarks = cpu2017::rate_int();
        benchmarks.extend(cpu2017::rate_fp());
        // Four machines, as in §V-G.
        Campaign::quick().measure(
            &benchmarks,
            &[
                MachineConfig::skylake_i7_6700(),
                MachineConfig::core2_e5405(),
                MachineConfig::sparc_iv_plus_v490(),
                MachineConfig::opteron_2435(),
            ],
        )
    }

    #[test]
    fn classifies_every_workload() {
        let r = campaign();
        let s =
            classify_sensitivity(&r, Metric::L1DMpki, SensitivityThresholds::default()).unwrap();
        assert_eq!(s.len(), r.workloads().len());
        let high = in_class(&s, SensitivityClass::High);
        let medium = in_class(&s, SensitivityClass::Medium);
        let low = in_class(&s, SensitivityClass::Low);
        assert_eq!(high.len() + medium.len() + low.len(), s.len());
    }

    #[test]
    fn fotonik_is_l1d_sensitive() {
        // Table IX: 549.fotonik3d_r is in the High class for L1 D-cache —
        // its wide-stride footprint fits 64 KiB L1s but not 32 KiB ones.
        let r = campaign();
        let s =
            classify_sensitivity(&r, Metric::L1DMpki, SensitivityThresholds::default()).unwrap();
        let fotonik = s.iter().find(|x| x.benchmark == "549.fotonik3d_r").unwrap();
        assert_ne!(fotonik.class, SensitivityClass::Low, "{fotonik:?}");
    }

    #[test]
    fn spread_is_bounded() {
        let r = campaign();
        let s =
            classify_sensitivity(&r, Metric::BranchMpki, SensitivityThresholds::default()).unwrap();
        let max = (r.workloads().len() - 1) as f64;
        for x in &s {
            assert!(x.rank_spread >= 0.0 && x.rank_spread <= max);
        }
    }

    #[test]
    fn needs_two_machines() {
        let r = Campaign::quick().measure(
            &cpu2017::rate_fp()[..3],
            &[MachineConfig::skylake_i7_6700()],
        );
        assert!(
            classify_sensitivity(&r, Metric::L1DMpki, SensitivityThresholds::default()).is_err()
        );
    }
}
