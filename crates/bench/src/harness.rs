//! Wall-clock summary statistics shared by the timing drivers
//! (`snack-perf`, `snack-sweep`): the median and p90 of a set of
//! per-iteration timings, robust to scheduler noise, and an adaptive
//! nanosecond formatter for their report tables.

/// Summary statistics of one measurement, in nanoseconds per iteration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchStats {
    /// Measurement name (`group/case` style).
    pub name: String,
    /// Number of timed iterations.
    pub samples: u32,
    /// Median iteration time.
    pub median_ns: u64,
    /// 90th-percentile iteration time.
    pub p90_ns: u64,
    /// Fastest iteration.
    pub min_ns: u64,
    /// Slowest iteration.
    pub max_ns: u64,
}

/// Computes [`BenchStats`] from raw per-iteration timings.
///
/// # Panics
///
/// Panics if `timings_ns` is empty.
#[must_use]
pub fn summarize(name: &str, timings_ns: &[u64]) -> BenchStats {
    assert!(!timings_ns.is_empty(), "need at least one timing");
    let mut sorted = timings_ns.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let pick = |q_num: usize, q_den: usize| {
        // index of the ceil(n * q)-th order statistic (1-based), clamped.
        let rank = (n * q_num).div_ceil(q_den);
        sorted[rank.max(1) - 1]
    };
    BenchStats {
        name: name.to_string(),
        samples: u32::try_from(n).expect("sample count fits u32"),
        median_ns: pick(1, 2),
        p90_ns: pick(9, 10),
        min_ns: sorted[0],
        max_ns: sorted[n - 1],
    }
}

/// Formats nanoseconds with an adaptive unit, e.g. `12.3 µs`.
#[must_use]
pub fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_orders_and_picks_quantiles() {
        let s = summarize("x", &[50, 10, 30, 20, 40]);
        assert_eq!(s.samples, 5);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 50);
        assert_eq!(s.median_ns, 30, "ceil(5*0.5)=3rd order stat");
        assert_eq!(s.p90_ns, 50, "ceil(5*0.9)=5th order stat");
        let one = summarize("y", &[7]);
        assert_eq!((one.median_ns, one.p90_ns), (7, 7));
    }

    #[test]
    fn fmt_ns_adapts_units() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(12_300), "12.30 µs");
        assert_eq!(fmt_ns(4_560_000), "4.56 ms");
        assert_eq!(fmt_ns(2_000_000_000), "2.000 s");
    }
}
