//! Order statistics the report is made of. Kept here, not taken from
//! `fe-metrics`, so that an edit there cannot shift the baseline.

/// Nearest-rank quantile of an ascending slice: the smallest element
/// with at least `q` of the samples at or below it. 0 for no samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n >= 1` samples.
fn rank(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n)
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
}

/// Nearest-rank median of a few readings.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.into_iter().collect();
    sort(&mut values);
    percentile(&values, 0.5)
}

/// Percentiles tried for the tail, lowest first.
const TAIL_LADDER: [f64; 5] = [0.9, 0.99, 0.999, 0.9999, 0.99999];
/// A tail percentile is reported only with this many samples beyond it.
const TAIL_SUPPORT: usize = 10;

/// The highest percentile of the ladder that still has
/// [`TAIL_SUPPORT`] samples beyond it, and its value. With too few
/// samples for any rung this is the median (`q = 0.5`).
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let q = TAIL_LADDER
        .iter()
        .copied()
        .take_while(|&q| !sorted.is_empty() && sorted.len() - rank(sorted.len(), q) >= TAIL_SUPPORT)
        .last()
        .unwrap_or(0.5);
    (q, percentile(sorted, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.2), 1.0);
        assert_eq!(percentile(&v, 0.21), 2.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Even count: nearest rank takes the lower middle, never a mean.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median([9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 has 1.
        assert_eq!(tail(&ramp(1000)), (0.99, 990.0));
        // One fewer and p99 (rank 990 of 999) has only 9 beyond.
        assert_eq!(tail(&ramp(999)), (0.9, 900.0));
        // 100 samples: p90 has 10 beyond.
        assert_eq!(tail(&ramp(100)), (0.9, 90.0));
        // Too few for any rung: the median.
        assert_eq!(tail(&ramp(99)), (0.5, 50.0));
        assert_eq!(tail(&[]), (0.5, 0.0));
        assert_eq!(tail(&ramp(10_000)).0, 0.999);
        assert_eq!(tail(&ramp(100_000)).0, 0.9999);
    }
}
