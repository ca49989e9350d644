//! The similarity methodology of §III: standardize the feature matrix,
//! extract principal components with the Kaiser criterion, measure
//! Euclidean distances in PC space, and cluster hierarchically.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use horizon_cluster::{cluster, render_ascii, Dendrogram, Linkage, RenderOptions};
use horizon_stats::{DistanceMatrix, Matrix, Metric as DistanceMetric, Pca, Retention, StatsError};

use crate::campaign::CampaignResult;
use crate::metrics::{feature_matrix, Metric};
use crate::CoreError;

/// A complete similarity analysis over a set of workloads.
#[derive(Debug, Clone)]
pub struct SimilarityAnalysis {
    names: Vec<String>,
    feature_labels: Vec<String>,
    pca: Pca,
    distances: DistanceMatrix,
    tree: Dendrogram,
    linkage: Linkage,
}

impl SimilarityAnalysis {
    /// Runs the full §III pipeline on a campaign result using the Table III
    /// metric set, Kaiser-criterion retention and average linkage (the
    /// defaults of published SPEC subsetting practice).
    ///
    /// # Errors
    ///
    /// Propagates statistics/clustering failures (e.g. fewer than two
    /// workloads).
    pub fn from_campaign(result: &CampaignResult) -> Result<Self, CoreError> {
        Self::from_campaign_with(
            result,
            &Metric::table_iii(),
            Retention::Kaiser,
            Linkage::Average,
        )
    }

    /// Like [`SimilarityAnalysis::from_campaign`] with explicit metric set,
    /// PC retention and linkage — the knobs the paper varies between
    /// analyses (e.g. Figure 9 uses only branch metrics).
    ///
    /// # Errors
    ///
    /// Propagates statistics/clustering failures.
    pub fn from_campaign_with(
        result: &CampaignResult,
        metrics: &[Metric],
        retention: Retention,
        linkage: Linkage,
    ) -> Result<Self, CoreError> {
        let (x, labels) = feature_matrix(result, metrics);
        let mut analysis =
            Self::from_features(result.workloads().to_vec(), &x, retention, linkage)?;
        analysis.feature_labels = labels;
        Ok(analysis)
    }

    /// Runs the pipeline on an explicit feature matrix (rows = workloads in
    /// the order of `names`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if `names` does not match the
    /// matrix rows; otherwise propagates statistics/clustering failures.
    pub fn from_features(
        names: Vec<String>,
        features: &Matrix,
        retention: Retention,
        linkage: Linkage,
    ) -> Result<Self, CoreError> {
        let mut span = horizon_telemetry::span("core.similarity");
        span.record("workloads", names.len());
        span.record("features", features.cols());
        if names.len() != features.rows() {
            return Err(CoreError::InvalidArgument {
                reason: format!("{} names for {} feature rows", names.len(), features.rows()),
            });
        }
        let (pca, hit) = PCA_MEMO.fit(features, retention)?;
        horizon_telemetry::counter_add(
            if hit {
                "core.pca_memo_hits"
            } else {
                "core.pca_memo_misses"
            },
            1,
        );
        span.record("pca_memo", if hit { "hit" } else { "miss" });
        let distances = DistanceMatrix::from_observations(pca.scores(), DistanceMetric::Euclidean);
        let tree = cluster(&distances, linkage)?;
        let feature_labels = (0..features.cols()).map(|i| format!("f{i}")).collect();
        Ok(SimilarityAnalysis {
            names,
            feature_labels,
            pca,
            distances,
            tree,
            linkage,
        })
    }

    /// Workload names, in row order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The fitted PCA model (retained PCs, eigenvalues, loadings).
    pub fn pca(&self) -> &Pca {
        &self.pca
    }

    /// Pairwise Euclidean distances in retained-PC space.
    pub fn distances(&self) -> &DistanceMatrix {
        &self.distances
    }

    /// The dendrogram over the workloads.
    pub fn dendrogram(&self) -> &Dendrogram {
        &self.tree
    }

    /// The linkage criterion used.
    pub fn linkage(&self) -> Linkage {
        self.linkage
    }

    /// Index of a workload by name.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotFound`] for unknown names.
    pub fn index_of(&self, name: &str) -> Result<usize, CoreError> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| CoreError::NotFound {
                kind: "workload",
                name: name.to_string(),
            })
    }

    /// Distance between two workloads by name.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotFound`] for unknown names.
    pub fn distance_between(&self, a: &str, b: &str) -> Result<f64, CoreError> {
        Ok(self.distances.get(self.index_of(a)?, self.index_of(b)?))
    }

    /// The workload with the most distinct behavior: the one whose mean
    /// distance to all others is largest (how the paper identifies mcf and
    /// cactuBSSN as outliers).
    pub fn most_distinct(&self) -> &str {
        let idx = (0..self.names.len())
            .max_by(|&a, &b| {
                self.distances
                    .mean_distance_from(a)
                    .partial_cmp(&self.distances.mean_distance_from(b))
                    .expect("finite distances")
            })
            .expect("non-empty analysis");
        &self.names[idx]
    }

    /// Scatter coordinates `(names, x, y)` of the workloads on two retained
    /// PCs (0-based), as in Figures 9–12.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if a PC index is not retained.
    pub fn pc_scatter(
        &self,
        pc_x: usize,
        pc_y: usize,
    ) -> Result<Vec<(String, f64, f64)>, CoreError> {
        let k = self.pca.components();
        if pc_x >= k || pc_y >= k {
            return Err(CoreError::InvalidArgument {
                reason: format!(
                    "PC{}/{} requested but only {k} retained",
                    pc_x + 1,
                    pc_y + 1
                ),
            });
        }
        let scores = self.pca.scores();
        Ok(self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), scores[(i, pc_x)], scores[(i, pc_y)]))
            .collect())
    }

    /// The `k` features with the largest absolute loading on a retained PC
    /// (most dominant first) — the paper's "PC2 is dominated by branch
    /// mispredictions per kilo instructions" interpretation (§IV-E).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for non-retained PCs.
    pub fn dominant_features(&self, pc: usize, k: usize) -> Result<Vec<(String, f64)>, CoreError> {
        if pc >= self.pca.components() {
            return Err(CoreError::InvalidArgument {
                reason: format!("PC{} not retained (have {})", pc + 1, self.pca.components()),
            });
        }
        let loadings = self.pca.loadings();
        Ok(self
            .pca
            .dominant_features(pc, k)
            .into_iter()
            .map(|f| (self.feature_labels[f].clone(), loadings[(f, pc)]))
            .collect())
    }

    /// ASCII dendrogram (Figures 2–4 and 13).
    ///
    /// # Errors
    ///
    /// Propagates rendering failures.
    pub fn render_dendrogram(&self) -> Result<String, CoreError> {
        Ok(render_ascii(
            &self.tree,
            &self.names,
            &RenderOptions::default(),
        )?)
    }
}

/// Fits held by the process-wide PCA memo. One paper-scale entry (a
/// 43 × 140 input plus its fit) is about 60 KB, so the memo stays near
/// 2 MB; a full `repro all` makes about 20 distinct fits, so every
/// repeat within a run or across `repro serve` requests finds its entry.
const PCA_MEMO_CAPACITY: usize = 32;

/// The memo behind every [`SimilarityAnalysis`]: the experiments fit the
/// same feature matrix many times over (within one `repro all`, and on
/// every warm `repro serve` request), and a 140-dimensional Jacobi
/// eigendecomposition costs tens of milliseconds each time.
static PCA_MEMO: PcaMemo = PcaMemo::new(PCA_MEMO_CAPACITY);

/// One memoized fit, keyed by its exact input.
struct PcaMemoEntry {
    hash: u64,
    input: Matrix,
    retention: (u8, u64),
    pca: Pca,
}

/// A bounded, least-recently-used memo of [`Pca::fit`]. An entry matches
/// only an input identical to the bit — same shape, every `f64` bit
/// pattern, and the same [`Retention`] with its `f64` compared by bits —
/// so a hit returns exactly what a fresh fit would. Failed fits are never
/// stored.
struct PcaMemo {
    capacity: usize,
    /// Least recently used first.
    entries: Mutex<VecDeque<PcaMemoEntry>>,
}

impl PcaMemo {
    const fn new(capacity: usize) -> Self {
        PcaMemo {
            capacity,
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// `Pca::fit(x, retention)`, from the memo when it holds this exact
    /// input. The flag is true for a hit. The lock is not held while
    /// fitting, so concurrent analyses never wait on each other's
    /// eigendecompositions.
    fn fit(&self, x: &Matrix, retention: Retention) -> Result<(Pca, bool), StatsError> {
        let bits = retention_bits(retention);
        let hash = input_hash(x, bits);
        let matches =
            |e: &PcaMemoEntry| e.hash == hash && e.retention == bits && same_bits(&e.input, x);
        {
            let mut entries = self.entries.lock().expect("pca memo");
            if let Some(pos) = entries.iter().position(matches) {
                let entry = entries.remove(pos).expect("position is in range");
                let pca = entry.pca.clone();
                entries.push_back(entry);
                return Ok((pca, true));
            }
        }
        let pca = Pca::fit(x, retention)?;
        let mut entries = self.entries.lock().expect("pca memo");
        // A concurrent miss on the same input may have stored it already.
        if !entries.iter().any(matches) {
            if entries.len() == self.capacity {
                entries.pop_front();
            }
            entries.push_back(PcaMemoEntry {
                hash,
                input: x.clone(),
                retention: bits,
                pca: pca.clone(),
            });
        }
        Ok((pca, false))
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.lock().expect("pca memo").len()
    }
}

/// `Retention` as plain bits, so a coverage fraction compares by its bit
/// pattern: the variant and its parameter.
fn retention_bits(retention: Retention) -> (u8, u64) {
    match retention {
        Retention::Kaiser => (0, 0),
        Retention::VarianceCoverage(frac) => (1, frac.to_bits()),
        Retention::Fixed(k) => (2, k as u64),
        Retention::All => (3, 0),
    }
}

fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn input_hash(x: &Matrix, retention: (u8, u64)) -> u64 {
    let mut hasher = DefaultHasher::new();
    (x.rows(), x.cols(), retention).hash(&mut hasher);
    for v in x.as_slice() {
        v.to_bits().hash(&mut hasher);
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use horizon_uarch::MachineConfig;
    use horizon_workloads::cpu2017;

    fn analysis() -> SimilarityAnalysis {
        let benchmarks = cpu2017::speed_int();
        let machines = vec![
            MachineConfig::skylake_i7_6700(),
            MachineConfig::sparc_t4(),
            MachineConfig::opteron_2435(),
        ];
        let r = Campaign::quick().measure(&benchmarks, &machines);
        SimilarityAnalysis::from_campaign(&r).unwrap()
    }

    #[test]
    fn pipeline_produces_consistent_shapes() {
        let a = analysis();
        assert_eq!(a.names().len(), 10);
        assert_eq!(a.distances().len(), 10);
        assert_eq!(a.dendrogram().len(), 10);
        assert!(a.pca().components() >= 1);
        assert_eq!(a.pca().scores().rows(), 10);
        assert_eq!(a.linkage(), Linkage::Average);
    }

    #[test]
    fn kaiser_retains_high_variance() {
        let a = analysis();
        // Kaiser-retained PCs cover most variance, like the paper's 91%+.
        assert!(a.pca().coverage() > 0.7, "{}", a.pca().coverage());
    }

    #[test]
    fn identical_benchmark_is_closest_to_itself() {
        let a = analysis();
        let d = a.distance_between("605.mcf_s", "605.mcf_s").unwrap();
        assert_eq!(d, 0.0);
    }

    #[test]
    fn mcf_is_most_distinct_speed_int() {
        // §IV-A: "the 605.mcf_s … have the most distinct performance
        // features among all the INT benchmarks."
        let a = analysis();
        assert_eq!(a.most_distinct(), "605.mcf_s");
    }

    #[test]
    fn scatter_and_render() {
        let a = analysis();
        let pts = a.pc_scatter(0, 1).unwrap();
        assert_eq!(pts.len(), 10);
        assert!(a.pc_scatter(99, 0).is_err());
        let art = a.render_dendrogram().unwrap();
        assert!(art.contains("605.mcf_s"));
    }

    #[test]
    fn dominant_features_carry_metric_labels() {
        let a = analysis();
        let top = a.dominant_features(0, 3).unwrap();
        assert_eq!(top.len(), 3);
        // Labels come from the metric set: "METRIC@machine".
        for (label, loading) in &top {
            assert!(label.contains('@'), "{label}");
            assert!(loading.is_finite());
        }
        // Descending by |loading|.
        assert!(top[0].1.abs() >= top[1].1.abs());
        assert!(a.dominant_features(99, 3).is_err());
    }

    fn features(seed: u64) -> Matrix {
        let mut state = seed;
        let data = (0..12 * 6)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        Matrix::from_vec(12, 6, data).unwrap()
    }

    #[test]
    fn pca_memo_hits_exactly_the_same_input() {
        let memo = PcaMemo::new(4);
        let x = features(1);
        let (first, hit) = memo.fit(&x, Retention::Kaiser).unwrap();
        assert!(!hit);
        let (again, hit) = memo.fit(&x, Retention::Kaiser).unwrap();
        assert!(hit);
        let fresh = Pca::fit(&x, Retention::Kaiser).unwrap();
        assert_eq!(again, fresh);
        assert_eq!(first, fresh);

        // One ulp in one feature is a different input.
        let mut data = x.as_slice().to_vec();
        data[17] = f64::from_bits(data[17].to_bits() + 1);
        let nudged = Matrix::from_vec(x.rows(), x.cols(), data).unwrap();
        let (fit, hit) = memo.fit(&nudged, Retention::Kaiser).unwrap();
        assert!(!hit, "a one-ulp change must miss");
        assert_eq!(fit, Pca::fit(&nudged, Retention::Kaiser).unwrap());

        // So is another retention rule, or another coverage fraction.
        for retention in [
            Retention::All,
            Retention::Fixed(2),
            Retention::VarianceCoverage(0.9),
        ] {
            assert!(!memo.fit(&x, retention).unwrap().1, "{retention:?}");
        }
        let next_up = f64::from_bits(0.9f64.to_bits() + 1);
        assert!(
            !memo
                .fit(&x, Retention::VarianceCoverage(next_up))
                .unwrap()
                .1
        );
        assert_eq!(memo.len(), 4, "the memo never outgrows its capacity");
    }

    #[test]
    fn pca_memo_compares_the_full_input_on_a_hash_match() {
        let memo = PcaMemo::new(4);
        let (x, y) = (features(1), features(2));
        let kaiser = retention_bits(Retention::Kaiser);
        let forged = |input: &Matrix, retention: Retention| PcaMemoEntry {
            hash: input_hash(&x, kaiser),
            input: input.clone(),
            retention: retention_bits(retention),
            pca: Pca::fit(input, retention).unwrap(),
        };
        // Colliding entries: another input, and the same input under
        // another retention rule, both stored under `x`'s Kaiser hash.
        memo.entries
            .lock()
            .unwrap()
            .extend([forged(&y, Retention::Kaiser), forged(&x, Retention::All)]);
        let (fit, hit) = memo.fit(&x, Retention::Kaiser).unwrap();
        assert!(!hit, "a hash match alone is not a hit");
        assert_eq!(fit, Pca::fit(&x, Retention::Kaiser).unwrap());
    }

    #[test]
    fn pca_memo_is_bounded_and_evicts_least_recently_used() {
        let memo = PcaMemo::new(3);
        let inputs: Vec<Matrix> = (1..=5).map(features).collect();
        for x in &inputs[..3] {
            assert!(!memo.fit(x, Retention::Kaiser).unwrap().1);
        }
        // Touch the oldest so the second input becomes the eviction victim.
        assert!(memo.fit(&inputs[0], Retention::Kaiser).unwrap().1);
        for x in &inputs[3..] {
            assert!(!memo.fit(x, Retention::Kaiser).unwrap().1);
            assert!(memo.len() <= 3);
        }
        assert_eq!(memo.len(), 3);
        assert!(memo.fit(&inputs[0], Retention::Kaiser).unwrap().1);
        assert!(!memo.fit(&inputs[1], Retention::Kaiser).unwrap().1);
    }

    #[test]
    fn pca_memo_does_not_store_failed_fits() {
        let memo = PcaMemo::new(2);
        let single = Matrix::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        assert!(memo.fit(&single, Retention::Kaiser).is_err());
        assert_eq!(memo.len(), 0);
    }

    #[test]
    fn name_mismatch_rejected() {
        let x = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let err = SimilarityAnalysis::from_features(
            vec!["a".into()],
            &x,
            Retention::Kaiser,
            Linkage::Average,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidArgument { .. }));
    }
}
