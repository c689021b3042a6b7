//! Order statistics for op timings and run-to-run spreads.

/// Sorts ascending (timings are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    values
}

/// Median of an ascending slice; the mean of the two middle samples when the
/// count is even.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of unsorted samples.
pub fn median_of(values: Vec<f64>) -> f64 {
    median(&sorted(values))
}

/// Median of the calm samples: those whose `disturbance` is no higher than
/// the disturbance a third of the way up the sample. With nothing disturbed
/// that is every sample; under disturbance it is the calmest third and
/// whatever ties with it.
pub fn calm_median(values: &[f64], disturbance: &[f64]) -> f64 {
    assert_eq!(values.len(), disturbance.len());
    let limit = sorted(disturbance.to_vec())[disturbance.len() / 3];
    median_of(
        values
            .iter()
            .zip(disturbance)
            .filter(|(_, &d)| d <= limit)
            .map(|(&v, _)| v)
            .collect(),
    )
}

/// The tail the sample supports: the highest percentile with at least ten
/// samples beyond it, as `(value, percentile)`. With `n` samples that is the
/// `(n - 10)`-th smallest — p66 at 30 samples, p98 at 600. Fewer than
/// eleven samples support no tail; the maximum is reported as p100.
pub fn supported_tail(sorted: &[f64]) -> (f64, u32) {
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    if n <= 10 {
        return (sorted[n - 1], 100);
    }
    let rank = n - 10;
    (sorted[rank - 1], (100 * rank / n) as u32)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the driver's spread rule.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two samples");
    let cut = |q: usize| {
        let m = n + 1;
        let j = (q * m / 4).clamp(1, n - 1);
        let delta = (q * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let (q1, q3) = quartiles(&s);
    (q3 - q1) / median(&s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(supported_tail(&ramp(30)), (20.0, 66));
        assert_eq!(supported_tail(&ramp(100)), (90.0, 90));
        assert_eq!(supported_tail(&ramp(600)), (590.0, 98));
        assert_eq!(supported_tail(&ramp(11)), (1.0, 9));
        // Too few samples for any tail: the maximum, labelled p100.
        assert_eq!(supported_tail(&ramp(10)), (10.0, 100));
        assert_eq!(supported_tail(&ramp(1)), (1.0, 100));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 5.0, 9.0]), 5.0);
        assert_eq!(median(&[1.0, 5.0, 7.0, 9.0]), 6.0);
    }

    #[test]
    fn calm_median_drops_the_disturbed_two_thirds_and_keeps_ties() {
        // Nothing disturbed: the plain median.
        assert_eq!(calm_median(&ramp(5), &[0.0; 5]), 3.0);
        // One of six disturbed: the limit is still zero, five samples stay.
        let d = [0.0, 0.0, 0.5, 0.0, 0.0, 0.0];
        assert_eq!(calm_median(&[1.0, 2.0, 90.0, 4.0, 5.0, 6.0], &d), 4.0);
        // All disturbed, each differently: the calmest third plus the
        // sample at the limit.
        let d = [0.6, 0.1, 0.5, 0.2, 0.4, 0.3];
        assert_eq!(calm_median(&[60.0, 10.0, 50.0, 20.0, 40.0, 30.0], &d), 20.0);
        assert_eq!(calm_median(&[7.0], &[0.9]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&ramp(2)), (0.75, 2.25));
        assert_eq!(spread(&ramp(10)), 1.0);
    }
}
