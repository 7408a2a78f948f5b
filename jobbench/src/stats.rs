//! Order statistics used for every reported timing.

/// A percentile is only reported when at least this many samples lie beyond
/// it; with fewer, a single outlier decides the value.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of ascending `sorted`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it (p99 therefore needs at least
/// 1000 samples).
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The smallest sample count for which [`percentile`] reports `q`.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            n - rank >= MIN_BEYOND
        })
        .expect("some sample count always suffices for q < 1")
}

/// Median of unsorted values (mean of the middle pair for even counts);
/// 0 for an empty slice.
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
