//! Subset validation against commercial-system scores (§IV-B, Figures 5/6,
//! Table VI).
//!
//! SPEC scores are geometric means of per-benchmark speedups over a
//! reference machine. The paper checks that the geomean over a 3-benchmark
//! subset predicts the geomean over the full sub-suite for real submitted
//! systems, and that random subsets do much worse.

use horizon_stats::geometric_mean;

use horizon_uarch::MachineConfig;
use horizon_workloads::systems::SystemRecord;
use horizon_workloads::Benchmark;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::campaign::Campaign;
use crate::CoreError;

/// Validation outcome for one commercial system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemScore {
    /// System name.
    pub system: String,
    /// Geomean speedup over the full benchmark group.
    pub full_score: f64,
    /// Geomean speedup over the subset only.
    pub subset_score: f64,
}

impl SystemScore {
    /// Relative prediction error in percent.
    pub fn error_pct(&self) -> f64 {
        if self.full_score == 0.0 {
            return 0.0;
        }
        ((self.subset_score - self.full_score) / self.full_score).abs() * 100.0
    }
}

/// Per-benchmark speedups of every system over the reference machine.
///
/// Speedup is runtime ratio; dynamic instruction counts cancel, leaving
/// `CPI_ref · f_sys / (CPI_sys · f_ref)`.
#[derive(Debug, Clone)]
pub struct SpeedupTable {
    benchmark_names: Vec<String>,
    system_names: Vec<String>,
    /// `speedups[system][benchmark]`.
    speedups: Vec<Vec<f64>>,
}

impl SpeedupTable {
    /// Measures all benchmarks on the reference machine and every system.
    ///
    /// # Example
    ///
    /// ```no_run
    /// use horizon_core::campaign::Campaign;
    /// use horizon_core::validation::{average_error, SpeedupTable};
    /// use horizon_workloads::systems::{reference_machine, submitted_systems};
    /// use horizon_workloads::{cpu2017, SubSuite};
    ///
    /// let benchmarks = cpu2017::rate_int();
    /// let table = SpeedupTable::measure(
    ///     &benchmarks,
    ///     &submitted_systems(SubSuite::RateInt),
    ///     &reference_machine(),
    ///     &Campaign::default(),
    /// );
    /// let scores = table.validate(&["505.mcf_r".to_string()])?;
    /// println!("avg error {:.1}%", average_error(&scores));
    /// # Ok::<(), horizon_core::CoreError>(())
    /// ```
    pub fn measure(
        benchmarks: &[Benchmark],
        systems: &[SystemRecord],
        reference: &MachineConfig,
        campaign: &Campaign,
    ) -> SpeedupTable {
        let mut machines: Vec<MachineConfig> = vec![reference.clone()];
        machines.extend(systems.iter().map(|s| s.machine.clone()));
        // Machine names must be unique for lookups; rely on position instead.
        let result = campaign.measure(benchmarks, &machines);
        let n = benchmarks.len();
        let speedups: Vec<Vec<f64>> = (0..systems.len())
            .map(|s| {
                (0..n)
                    .map(|b| {
                        let refm = &result.at(b, 0).counters;
                        let sysm = &result.at(b, s + 1).counters;
                        let ref_time = refm.cpi() / refm.freq_ghz;
                        let sys_time = sysm.cpi() / sysm.freq_ghz;
                        ref_time / sys_time
                    })
                    .collect()
            })
            .collect();
        SpeedupTable {
            benchmark_names: benchmarks.iter().map(|b| b.name().to_string()).collect(),
            system_names: systems.iter().map(|s| s.name.clone()).collect(),
            speedups,
        }
    }

    /// Benchmark names, in column order.
    pub fn benchmarks(&self) -> &[String] {
        &self.benchmark_names
    }

    /// System names, in row order.
    pub fn systems(&self) -> &[String] {
        &self.system_names
    }

    /// The speedup of `system` (by index) on benchmark `b` (by index).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn speedup(&self, system: usize, benchmark: usize) -> f64 {
        self.speedups[system][benchmark]
    }

    /// Validates a subset: per system, geomean over all benchmarks vs
    /// geomean over the subset.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotFound`] if a subset name is not in the table
    /// and propagates geometric-mean failures.
    pub fn validate(&self, subset: &[String]) -> Result<Vec<SystemScore>, CoreError> {
        let mut span = horizon_telemetry::span("core.validate");
        span.record("subset", subset.len());
        let indices: Vec<usize> = subset
            .iter()
            .map(|name| {
                self.benchmark_names
                    .iter()
                    .position(|n| n == name)
                    .ok_or_else(|| CoreError::NotFound {
                        kind: "benchmark",
                        name: name.clone(),
                    })
            })
            .collect::<Result<_, _>>()?;
        self.system_names
            .iter()
            .zip(&self.speedups)
            .map(|(system, row)| {
                let full = geometric_mean(row)?;
                let sub: Vec<f64> = indices.iter().map(|&i| row[i]).collect();
                let subset_score = geometric_mean(&sub)?;
                Ok(SystemScore {
                    system: system.clone(),
                    full_score: full,
                    subset_score,
                })
            })
            .collect()
    }

    /// Validates a uniformly random `k`-benchmark subset (Table VI's
    /// "Rand set" baselines).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for out-of-range `k`.
    pub fn validate_random(&self, k: usize, seed: u64) -> Result<Vec<SystemScore>, CoreError> {
        let n = self.benchmark_names.len();
        if k == 0 || k > n {
            return Err(CoreError::InvalidArgument {
                reason: format!("random subset size {k} out of range 1..={n}"),
            });
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        // Floyd's algorithm for a k-distinct sample.
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for j in n - k..n {
            let t = rng.gen_range(0..=j);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        let names: Vec<String> = chosen
            .iter()
            .map(|&i| self.benchmark_names[i].clone())
            .collect();
        self.validate(&names)
    }
}

/// Mean prediction error (percent) across systems.
pub fn average_error(scores: &[SystemScore]) -> f64 {
    if scores.is_empty() {
        return 0.0;
    }
    scores.iter().map(SystemScore::error_pct).sum::<f64>() / scores.len() as f64
}

/// Largest prediction error (percent) across systems.
pub fn max_error(scores: &[SystemScore]) -> f64 {
    scores
        .iter()
        .map(SystemScore::error_pct)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use horizon_workloads::cpu2017;
    use horizon_workloads::systems::{reference_machine, submitted_systems};
    use horizon_workloads::SubSuite;

    fn table() -> SpeedupTable {
        SpeedupTable::measure(
            &cpu2017::speed_int()[..5],
            &submitted_systems(SubSuite::SpeedInt),
            &reference_machine(),
            &Campaign::quick(),
        )
    }

    #[test]
    fn speedups_exceed_reference() {
        let t = table();
        // Modern systems beat a 2.1 GHz SPARC-IV+ on everything.
        for s in 0..t.systems().len() {
            for b in 0..t.benchmarks().len() {
                assert!(t.speedup(s, b) > 1.0, "system {s} bench {b}");
            }
        }
    }

    #[test]
    fn full_subset_has_zero_error() {
        let t = table();
        let all: Vec<String> = t.benchmarks().to_vec();
        let scores = t.validate(&all).unwrap();
        for s in &scores {
            assert!(s.error_pct() < 1e-9);
        }
    }

    #[test]
    fn subset_error_is_bounded_and_reported() {
        let t = table();
        let scores = t
            .validate(&["605.mcf_s".to_string(), "623.xalancbmk_s".to_string()])
            .unwrap();
        assert_eq!(scores.len(), 4);
        let avg = average_error(&scores);
        assert!(avg >= 0.0 && avg.is_finite());
        assert!(max_error(&scores) >= avg);
    }

    #[test]
    fn unknown_subset_name_errors() {
        let t = table();
        assert!(matches!(
            t.validate(&["nope".to_string()]),
            Err(CoreError::NotFound { .. })
        ));
    }

    #[test]
    fn random_subsets_are_deterministic_per_seed() {
        let t = table();
        let a = t.validate_random(2, 1).unwrap();
        let b = t.validate_random(2, 1).unwrap();
        assert_eq!(a, b);
        assert!(t.validate_random(0, 1).is_err());
        assert!(t.validate_random(99, 1).is_err());
    }

    #[test]
    fn faster_clock_scores_higher() {
        // The 3.8 GHz variant of the same machine must outscore 3.4 GHz.
        let t = table();
        let all: Vec<String> = t.benchmarks().to_vec();
        let scores = t.validate(&all).unwrap();
        let find = |name: &str| {
            scores
                .iter()
                .find(|s| s.system.contains(name))
                .unwrap()
                .full_score
        };
        assert!(find("3.8GHz") > find("3.4GHz"));
    }
}
