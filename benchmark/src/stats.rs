//! Order statistics over timing samples.

/// Nearest-rank percentile of `samples` (`p` in `0.0..=100.0`): the
/// smallest sample with at least `p` percent of the samples at or
/// below it. Sorts a copy; an empty input yields `0.0` so an absent
/// layer reads as "no work" instead of aborting the run.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or `0.0` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // Order of the input does not matter.
        let shuffled = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(percentile(&shuffled, 50.0), 5.0);
        assert_eq!(percentile(&shuffled, 95.0), 9.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }
}
