//! Median and percentile helpers for the round-time samples.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest order statistic that still has at least `beyond` samples
/// above it, with the percentile it stands for: `(percentile, value)`.
/// With fewer than `beyond + 1` samples there is no such statistic and the
/// smallest sample is returned at percentile 0.
pub fn p_high(values: &[f64], beyond: usize) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len().saturating_sub(beyond + 1);
    (100.0 * idx as f64 / v.len() as f64, v[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p_high_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (pct, value) = p_high(&v, 10);
        // 40 samples, 10 beyond: the 30th order statistic (index 29).
        assert_eq!(value, 30.0);
        assert!((pct - 72.5).abs() < 1e-9);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn p_high_with_too_few_samples_is_the_minimum() {
        assert_eq!(p_high(&[2.0, 1.0, 3.0], 10), (0.0, 1.0));
        assert_eq!(p_high(&[], 10), (0.0, 0.0));
    }
}
