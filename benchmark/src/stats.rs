//! Minimum, median and percentile selection for the reported numbers.

/// Median of the samples (mean of the two middle ones for an even count).
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        0.5 * (v[mid - 1] + v[mid])
    } else {
        v[mid]
    }
}

/// The fastest of the samples: what repeated identical, deterministic work is
/// timed by. On this kind of box another tenant slows every repetition of a
/// ten-second window by a half now and then; that only ever adds time, so the
/// minimum is the sample nearest the undisturbed cost, where a median reports
/// the disturbance whenever it covers most of a run.
pub fn fastest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Samples a tail percentile must have beyond it before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100), refused (`None`) when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it: p90 needs 100 samples, p75
/// needs 40. The median is exempt — use [`median`].
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0);
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    (n >= rank + MIN_SAMPLES_BEYOND).then(|| percentile_of_all(samples, p))
}

/// Nearest-rank percentile without the sample-count rule, for populations
/// that are reported with their `n` because they cannot be made larger
/// (twelve ensemble members, one SCF).
pub fn percentile_of_all(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty() && p > 0.0 && p <= 100.0);
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.max(1) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts_and_fastest() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn p90_is_refused_below_100_samples_and_p75_below_40() {
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 90.0), None);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 90.0), Some(90.0));
        let s: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 75.0), None);
        let s: Vec<f64> = (1..=48).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 75.0), Some(36.0));
    }

    #[test]
    fn percentile_of_all_is_nearest_rank() {
        assert_eq!(percentile_of_all(&[5.0], 75.0), 5.0);
        assert_eq!(percentile_of_all(&[1.0, 2.0, 3.0, 4.0], 75.0), 3.0);
        assert_eq!(percentile_of_all(&[1.0, 2.0, 3.0, 4.0], 100.0), 4.0);
    }
}
