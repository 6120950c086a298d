//! Order statistics over timing samples.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between closest ranks (the "inclusive" definition: the minimum is
/// quantile 0, the maximum quantile 1). `None` for an empty slice.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `samples`, or `0.0` for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// How many of `samples` lie strictly above their `q`-quantile: the
/// sample support behind a reported percentile.
#[must_use]
pub fn beyond(samples: &[f64], q: f64) -> usize {
    quantile(samples, q).map_or(0, |cut| samples.iter().filter(|&&s| s > cut).count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(11.0));
        assert_eq!(quantile(&s, 0.9), Some(10.0));
        let s = [10.0, 20.0];
        assert_eq!(quantile(&s, 0.25), Some(12.5));
        assert_eq!(quantile(&s, 1.5), None);
    }

    #[test]
    fn p90_of_a_hundred_and_ten_samples_has_ten_beyond() {
        let s: Vec<f64> = (0..110).map(f64::from).collect();
        let p90 = quantile(&s, 0.9).expect("non-empty");
        assert!((p90 - 98.1).abs() < 1e-9, "{p90}");
        assert_eq!(beyond(&s, 0.9), 11);
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(beyond(&s, 0.9) >= 10);
    }
}
