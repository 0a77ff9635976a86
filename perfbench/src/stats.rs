//! Order statistics over measured samples.

/// The `q`-quantile (`0.0..=1.0`) of `values`, linearly interpolated
/// between the two closest ranks. `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_hits_the_extremes() {
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.0), Some(0.0));
        assert_eq!(quantile(&values, 0.99), Some(99.0));
        assert_eq!(quantile(&values, 1.0), Some(100.0));
    }
}
