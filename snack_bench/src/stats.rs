//! Order statistics for host-time samples.

/// Median, quartiles and tail of a sample set.
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    /// `(percentile, value)` of the highest percentile with at least ten
    /// samples above it, if the set is large enough to have one.
    pub tail: Option<(f64, f64)>,
}

/// Linear interpolation between the closest ranks of `sorted`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest of p99.9, p99, p90, p75 and p50 that has at least ten of
/// `n` samples beyond it.
fn tail_pct(n: usize) -> Option<f64> {
    // In per-mille, so the "ten beyond" test is exact integer arithmetic.
    [999, 990, 900, 750, 500]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10_000)
        .map(|pm| pm as f64 / 10.0)
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: sorted.len(),
        median: percentile(&sorted, 50.0),
        p25: percentile(&sorted, 25.0),
        p75: percentile(&sorted, 75.0),
        tail: tail_pct(sorted.len()).map(|p| (p, percentile(&sorted, p))),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_and_tail_needs_ten_beyond() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.median, s.p25, s.p75), (3.0, 2.0, 4.0));
        assert!(s.tail.is_none(), "5 samples have no percentile with 10 beyond");
        let many: Vec<f64> = (0..1_000).map(f64::from).collect();
        assert_eq!(summarize(&many).tail.map(|t| t.0), Some(99.0));
        assert_eq!(summarize(&many[..100]).tail.map(|t| t.0), Some(90.0));
    }
}
