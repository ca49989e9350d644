//! Rankings, Spearman correlation, and rank spread.
//!
//! Table IX of the paper classifies benchmark *sensitivity*: a benchmark is
//! sensitive to (say) L1D geometry if its rank by L1D MPKI moves a lot from
//! machine to machine. [`rank_spread`] quantifies exactly that.

use crate::StatsError;

/// Fractional ranks (1-based) with ties receiving their average rank.
///
/// Returns an empty vector for empty input.
///
/// # Errors
///
/// [`StatsError::NonFinite`] if any value is NaN (ranks would be
/// ill-defined). Infinities order normally.
///
/// # Example
///
/// ```
/// use horizon_stats::ranks;
///
/// assert_eq!(ranks(&[10.0, 30.0, 20.0])?, vec![1.0, 3.0, 2.0]);
/// assert_eq!(ranks(&[1.0, 2.0, 2.0])?, vec![1.0, 2.5, 2.5]);
/// assert!(ranks(&[1.0, f64::NAN]).is_err());
/// # Ok::<(), horizon_stats::StatsError>(())
/// ```
pub fn ranks(values: &[f64]) -> Result<Vec<f64>, StatsError> {
    if values.iter().any(|v| v.is_nan()) {
        return Err(StatsError::NonFinite { context: "ranks" });
    }
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));

    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        // Find the run of tied values.
        let mut j = i;
        while j + 1 < n && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        // Average rank of positions i..=j (1-based).
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = avg;
        }
        i = j + 1;
    }
    Ok(out)
}

/// Spearman rank correlation coefficient between two equal-length samples.
///
/// # Errors
///
/// * [`StatsError::DimensionMismatch`] if lengths differ.
/// * [`StatsError::Empty`] for fewer than two observations.
/// * [`StatsError::NonFinite`] if either sample contains NaN.
///
/// Returns 0 when either sample is constant (rank variance is zero).
pub fn spearman(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    if a.len() != b.len() {
        return Err(StatsError::DimensionMismatch {
            op: "spearman",
            left: (a.len(), 1),
            right: (b.len(), 1),
        });
    }
    if a.len() < 2 {
        return Err(StatsError::Empty);
    }
    pearson(&ranks(a)?, &ranks(b)?)
}

/// Pearson correlation used internally on rank vectors.
fn pearson(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return Ok(0.0);
    }
    Ok(cov / (va.sqrt() * vb.sqrt()))
}

/// Spread of an item's rank across several rankings.
///
/// `rankings` holds one rank vector per machine (each of length `items`);
/// the result holds, per item, `max rank − min rank` across machines —
/// the paper's indicator of sensitivity to a machine characteristic.
///
/// # Errors
///
/// * [`StatsError::Empty`] if `rankings` is empty.
/// * [`StatsError::DimensionMismatch`] if rank vectors differ in length.
/// * [`StatsError::NonFinite`] if any rank is NaN.
///
/// # Example
///
/// ```
/// use horizon_stats::rank_spread;
///
/// // Item 0 is rank 1 everywhere (insensitive); item 1 swings from 2 to 3.
/// let spread = rank_spread(&[vec![1.0, 2.0, 3.0], vec![1.0, 3.0, 2.0]])?;
/// assert_eq!(spread, vec![0.0, 1.0, 1.0]);
/// # Ok::<(), horizon_stats::StatsError>(())
/// ```
pub fn rank_spread(rankings: &[Vec<f64>]) -> Result<Vec<f64>, StatsError> {
    let first = rankings.first().ok_or(StatsError::Empty)?;
    let items = first.len();
    for r in rankings {
        if r.len() != items {
            return Err(StatsError::DimensionMismatch {
                op: "rank_spread",
                left: (items, 1),
                right: (r.len(), 1),
            });
        }
        if r.iter().any(|v| v.is_nan()) {
            return Err(StatsError::NonFinite {
                context: "rank_spread",
            });
        }
    }
    let mut out = Vec::with_capacity(items);
    for i in 0..items {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for r in rankings {
            min = min.min(r[i]);
            max = max.max(r[i]);
        }
        out.push(max - min);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_simple() {
        assert_eq!(ranks(&[3.0, 1.0, 2.0]).unwrap(), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn ranks_with_ties() {
        assert_eq!(ranks(&[5.0, 5.0, 1.0]).unwrap(), vec![2.5, 2.5, 1.0]);
        assert_eq!(ranks(&[2.0, 2.0, 2.0]).unwrap(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn ranks_empty() {
        assert!(ranks(&[]).unwrap().is_empty());
    }

    #[test]
    fn ranks_reject_nan() {
        assert_eq!(
            ranks(&[1.0, f64::NAN]),
            Err(StatsError::NonFinite { context: "ranks" })
        );
    }

    #[test]
    fn spearman_perfect_monotone() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 100.0, 1000.0, 10000.0];
        assert!((spearman(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let c = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&a, &c).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_constant_is_zero() {
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).unwrap(), 0.0);
    }

    #[test]
    fn spearman_rejects_mismatch() {
        assert!(spearman(&[1.0], &[1.0, 2.0]).is_err());
        assert!(spearman(&[1.0], &[1.0]).is_err());
    }

    #[test]
    fn rank_spread_identifies_stable_items() {
        let machines = vec![
            ranks(&[0.1, 5.0, 2.0]).unwrap(),
            ranks(&[0.2, 4.0, 9.0]).unwrap(),
            ranks(&[0.1, 6.0, 1.0]).unwrap(),
        ];
        let spread = rank_spread(&machines).unwrap();
        // Item 0 is always the smallest → rank 1 everywhere → spread 0.
        assert_eq!(spread[0], 0.0);
        // Item 2 swings between rank 2 and rank 3 → spread 1.
        assert_eq!(spread[2], 1.0);
        // Item 1 swings between rank 2 and rank 3 → spread 1.
        assert_eq!(spread[1], 1.0);
    }

    #[test]
    fn rank_spread_errors() {
        assert!(rank_spread(&[]).is_err());
        assert!(rank_spread(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }
}
