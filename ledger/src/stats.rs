//! Order statistics for the ledger: nearest-rank percentiles, the "ten
//! samples beyond it" rule, quartiles as Python's `statistics.quantiles`
//! computes them, and the geometric mean.

/// Sort a sample ascending.  NaNs would make every order statistic
/// meaningless, so they panic here rather than land in a report.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    xs
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `pct` percent of the sample at or below it.
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a report may quote, lowest first.
const LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// The highest percentile of [`LADDER`] that still has at least ten of
/// `n` samples beyond it; `None` when even the median has fewer.
pub fn highest_reportable(n: usize) -> Option<f64> {
    LADDER.iter().copied().rfind(|p| {
        let at_or_below = (p / 100.0 * n as f64).ceil() as usize;
        n.saturating_sub(at_or_below) >= 10
    })
}

/// Median of a sample (mean of the two middle values when even).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, by the method of Python's
/// `statistics.quantiles(xs, n=4)` (exclusive), so spreads computed here
/// and by a Python driver agree.
///
/// # Panics
/// Panics on fewer than two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let cut = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, clamped into the sample,
        // then linear interpolation between the two neighbours.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Distance between the first and third quartile as a share of the
/// median; 0 for a single sample (no spread is known).
pub fn iqr_rel(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / q2.abs()
    }
}

/// The *floor* of repeated timings of the same work: the fastest one.
/// On a shared host noise only ever adds time, and it comes in phases of
/// seconds to tens of seconds, so a low quantile of a window still moves
/// with how much of the window a slow phase covered; the minimum needs
/// only one undisturbed repetition.  Windows have a fixed length, so the
/// number of samples it is taken over does not drift either.
///
/// # Panics
/// Panics on an empty sample.
pub fn floor(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "floor of an empty sample");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The counterpart of [`floor`] for rates: the highest one.
///
/// # Panics
/// Panics on an empty sample.
pub fn ceiling(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "ceiling of an empty sample");
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The tail a report may quote for an ascending sample: the highest
/// reportable percentile and its value.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    highest_reportable(sorted.len()).map(|p| (p, percentile(sorted, p)))
}

/// Geometric mean of positive values.
///
/// # Panics
/// Panics on an empty sample or a non-positive value.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty sample");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean needs positive values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_by_hand() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        // ceil(0.5·10) = 5th value; ceil(0.95·10) = 10th; ceil(0.01·10) = 1st.
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 95.0), 10.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 1.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn highest_reportable_keeps_ten_samples_beyond() {
        // 19 samples: p50 is the 10th, nine beyond it — not enough.
        assert_eq!(highest_reportable(19), None);
        // 20 samples: ten beyond the median.
        assert_eq!(highest_reportable(20), Some(50.0));
        // 40 samples: p75 is the 30th, ten beyond; p90 leaves four.
        assert_eq!(highest_reportable(40), Some(75.0));
        // 100 samples: p90 leaves exactly ten.
        assert_eq!(highest_reportable(100), Some(90.0));
        assert_eq!(highest_reportable(199), Some(90.0));
        assert_eq!(highest_reportable(200), Some(95.0));
        assert_eq!(highest_reportable(1000), Some(99.0));
    }

    #[test]
    fn floor_and_ceiling_are_the_extremes() {
        let xs: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(floor(&xs), 1.0);
        assert_eq!(ceiling(&xs), 30.0);
        assert_eq!(floor(&[4.0]), 4.0);
        assert_eq!(ceiling(&[4.0]), 4.0);
        // Slow phases, however many, leave the floor where it was.
        assert_eq!(floor(&[90.0, 10.0, 90.0, 90.0]), 10.0);
        let s: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&s), Some((75.0, 30.0)));
        assert_eq!(tail(&s[..10]), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) = [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) = [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
        assert!((iqr_rel(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_rel(&[5.0]), 0.0);
    }

    #[test]
    fn geomean_by_hand() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }
}
