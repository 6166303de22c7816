//! The estimators behind every reported number: tail percentiles that
//! the sample can support, the per-slice-minimum host-time composite and
//! medians.

/// Nearest rank (1-based) of the percentile `tenths / 10` among `n`
/// samples, in integer arithmetic: the rank must not depend on how
/// `0.99 * n` happens to round.
fn rank(n: usize, tenths: usize) -> usize {
    (n * tenths).div_ceil(1000).clamp(1, n.max(1))
}

/// The percentile `tenths / 10` of `sorted` (ascending, non-empty).
fn percentile_sorted(sorted: &[f64], tenths: usize) -> f64 {
    sorted[rank(sorted.len(), tenths) - 1]
}

/// A latency sample summarised as the guide asks: the median, and the
/// highest percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Sample count.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// Which percentile `tail` is (99.0 when the sample supports it).
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 that leaves at least ten
/// samples beyond it, capped at `cap` (reports ask for p99, so more
/// samples do not silently move the goalposts). With fewer than 40
/// samples nothing qualifies and the median stands in.
pub fn supported_tail_pct(n: usize, cap: f64) -> f64 {
    for tenths in [999usize, 990, 950, 900, 750] {
        let pct = tenths as f64 / 10.0;
        if pct <= cap && n >= 10 + rank(n, tenths) {
            return pct;
        }
    }
    50.0
}

/// Summarises `values` (any order). `None` when empty.
pub fn tail(values: &[f64], cap: f64) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = supported_tail_pct(sorted.len(), cap);
    Some(Tail {
        n: sorted.len(),
        p50: percentile_sorted(&sorted, 500),
        tail_pct,
        tail: percentile_sorted(&sorted, (tail_pct * 10.0).round() as usize),
    })
}

/// The composite host time of a workload: every repetition does
/// identical work in slice `i`, so the minimum across repetitions is the
/// least-disturbed observation of that slice, and the sum of those
/// minima estimates an undisturbed whole run. `reps[r][i]` is the time of
/// slice `i` in repetition `r`; all repetitions must have the same
/// length.
pub fn sum_of_slice_minima(reps: &[Vec<f64>]) -> f64 {
    let Some(first) = reps.first() else {
        return 0.0;
    };
    assert!(reps.iter().all(|r| r.len() == first.len()), "repetitions differ in slice count");
    (0..first.len()).map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min)).sum()
}

/// The median of `values` (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: exactly 10 lie beyond p99, none beyond p99.9's 1.
        assert_eq!(supported_tail_pct(1000, 99.9), 99.0);
        assert_eq!(supported_tail_pct(999, 99.9), 95.0, "ceil(989.01)=990 leaves 9");
        assert_eq!(supported_tail_pct(10_000, 99.9), 99.9);
        assert_eq!(supported_tail_pct(10_000, 99.0), 99.0, "capped at what reports name");
        assert_eq!(supported_tail_pct(200, 99.9), 95.0);
        assert_eq!(supported_tail_pct(100, 99.9), 90.0);
        assert_eq!(supported_tail_pct(40, 99.9), 75.0);
        assert_eq!(supported_tail_pct(39, 99.9), 50.0);
        assert_eq!(supported_tail_pct(0, 99.9), 50.0);
    }

    #[test]
    fn tail_reports_count_median_and_supported_percentile() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&values, 99.0).unwrap();
        assert_eq!((t.n, t.p50, t.tail_pct, t.tail), (1000, 500.0, 99.0, 990.0));
        assert!(tail(&[], 99.0).is_none());
    }

    #[test]
    fn composite_sums_the_per_slice_minima() {
        // A disturbance hits a different slice in each repetition; the
        // composite sees through all three, the whole-run minimum (8)
        // sees through none.
        let reps = vec![vec![1.0, 2.0, 9.0], vec![5.0, 2.0, 3.0], vec![1.0, 7.0, 3.0]];
        assert_eq!(sum_of_slice_minima(&reps), 6.0);
        assert_eq!(sum_of_slice_minima(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "slice count")]
    fn composite_rejects_ragged_repetitions() {
        sum_of_slice_minima(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
