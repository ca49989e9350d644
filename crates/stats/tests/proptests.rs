//! Property-based tests for the statistical core.

use horizon_stats::{
    correlation_matrix, euclidean, geometric_mean, jacobi_eigen, manhattan, mean, rank_spread,
    ranks, spearman, standardize, DistanceMatrix, Matrix, Metric, Pca, Retention, StatsError,
};
use proptest::prelude::*;

fn is_non_finite<T>(result: &Result<T, StatsError>) -> bool {
    matches!(result, Err(StatsError::NonFinite { .. }))
}

/// Strategy: a well-formed observation matrix with bounded values.
fn obs_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (2..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(proptest::collection::vec(-1e3..1e3f64, c..=c), r..=r)
            .prop_map(|rows| Matrix::from_rows(rows).expect("well-formed"))
    })
}

proptest! {
    #[test]
    fn standardize_produces_zero_mean(x in obs_matrix(10, 6)) {
        let z = standardize(&x).unwrap();
        for m in z.column_means() {
            prop_assert!(m.abs() < 1e-8);
        }
    }

    #[test]
    fn transpose_is_involution(x in obs_matrix(8, 8)) {
        prop_assert_eq!(x.transpose().transpose(), x);
    }

    #[test]
    fn correlation_is_symmetric_and_bounded(x in obs_matrix(8, 5)) {
        let r = correlation_matrix(&x).unwrap();
        for i in 0..r.rows() {
            prop_assert!((r[(i, i)] - 1.0).abs() < 1e-12);
            for j in 0..r.cols() {
                prop_assert!((r[(i, j)] - r[(j, i)]).abs() < 1e-12);
                prop_assert!(r[(i, j)] <= 1.0 + 1e-9 && r[(i, j)] >= -1.0 - 1e-9);
            }
        }
    }

    #[test]
    fn eigen_trace_preserved(x in obs_matrix(8, 6)) {
        let r = correlation_matrix(&x).unwrap();
        let eig = jacobi_eigen(&r).unwrap();
        let trace: f64 = (0..r.rows()).map(|i| r[(i, i)]).sum();
        let sum: f64 = eig.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-6 * trace.abs().max(1.0));
    }

    #[test]
    fn eigenvalues_sorted_descending(x in obs_matrix(8, 6)) {
        let r = correlation_matrix(&x).unwrap();
        let eig = jacobi_eigen(&r).unwrap();
        for w in eig.values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn pca_scores_are_finite_and_centered(x in obs_matrix(10, 6)) {
        let pca = Pca::fit(&x, Retention::Kaiser).unwrap();
        prop_assert!(pca.scores().is_finite());
        for c in 0..pca.components() {
            let col = pca.scores().col(c);
            let m = mean(&col).unwrap();
            prop_assert!(m.abs() < 1e-7);
        }
    }

    #[test]
    fn pca_coverage_monotone_in_retention(x in obs_matrix(10, 6)) {
        let k1 = Pca::fit(&x, Retention::Fixed(1)).unwrap().coverage();
        let kall = Pca::fit(&x, Retention::All).unwrap().coverage();
        prop_assert!(kall + 1e-9 >= k1);
        prop_assert!(kall <= 1.0 + 1e-9);
    }

    #[test]
    fn euclidean_is_a_metric(
        a in proptest::collection::vec(-1e3..1e3f64, 4),
        b in proptest::collection::vec(-1e3..1e3f64, 4),
        c in proptest::collection::vec(-1e3..1e3f64, 4),
    ) {
        // Symmetry, identity, triangle inequality.
        prop_assert!((euclidean(&a, &b) - euclidean(&b, &a)).abs() < 1e-9);
        prop_assert!(euclidean(&a, &a) < 1e-12);
        prop_assert!(euclidean(&a, &c) <= euclidean(&a, &b) + euclidean(&b, &c) + 1e-9);
        prop_assert!(manhattan(&a, &c) <= manhattan(&a, &b) + manhattan(&b, &c) + 1e-9);
    }

    #[test]
    fn distance_matrix_agrees_with_direct_computation(x in obs_matrix(8, 4)) {
        let d = DistanceMatrix::from_observations(&x, Metric::Euclidean);
        for i in 0..x.rows() {
            for j in 0..x.rows() {
                let direct = euclidean(x.row(i), x.row(j));
                prop_assert!((d.get(i, j) - direct).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn ranks_are_a_permutation_sum(values in proptest::collection::vec(-1e6..1e6f64, 1..20)) {
        // Sum of ranks (with average ties) is always n(n+1)/2.
        let r = ranks(&values).unwrap();
        let n = values.len() as f64;
        let sum: f64 = r.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn nan_input_is_an_error_never_a_panic(
        values in proptest::collection::vec(-1e6..1e6f64, 1..20),
        at in any::<usize>(),
    ) {
        // One NaN anywhere in otherwise ordinary data.
        let mut with_nan = values.clone();
        with_nan.insert(at % (values.len() + 1), f64::NAN);
        prop_assert!(is_non_finite(&ranks(&with_nan)));
        let clean = vec![0.0; with_nan.len()];
        prop_assert!(is_non_finite(&spearman(&with_nan, &clean)));
        prop_assert!(is_non_finite(&spearman(&clean, &with_nan)));
        prop_assert!(is_non_finite(&rank_spread(&[clean, with_nan])));
    }

    #[test]
    fn geometric_mean_between_min_and_max(values in proptest::collection::vec(1e-3..1e3f64, 1..20)) {
        let g = geometric_mean(&values).unwrap();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(g >= min - 1e-9 && g <= max + 1e-9);
    }

    #[test]
    fn projection_of_mean_row_is_origin(x in obs_matrix(10, 5)) {
        let pca = Pca::fit(&x, Retention::All).unwrap();
        let means = x.column_means();
        let proj = pca.project_row(&means).unwrap();
        for v in proj {
            prop_assert!(v.abs() < 1e-7);
        }
    }
}
