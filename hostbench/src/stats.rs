//! Order statistics.

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
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

/// The `q` quantile (nearest rank) of a non-empty `v`, reordering `v`.
pub fn quantile(v: &mut [u64], q: f64) -> f64 {
    let k = ((v.len() - 1) as f64 * q).round() as usize;
    *v.select_nth_unstable(k).1 as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<u64> = (1..=101).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 51.0);
        assert_eq!(quantile(&mut v, 0.99), 100.0);
    }
}
