//! Network statistics: utilization time series, buffer-occupancy CDFs and
//! per-class latency accounting.
//!
//! These are the measurements §II of the paper uses to identify NoC slack:
//! router crossbar usage (Fig. 2a), link usage (Fig. 2b) and input-buffer
//! occupancy (Fig. 3), plus the delivered-packet latency/runtime statistics
//! behind the QoS experiments (Figs. 11–13).

use crate::flit::TrafficClass;

/// One sample of a windowed utilization time series.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SeriesSample {
    /// Cycle at which the window ended.
    pub end_cycle: u64,
    /// Utilization over the window, in `[0, 1]`.
    pub utilization: f64,
}

/// A windowed utilization counter: counts "busy" events per sampling window
/// and emits one [`SeriesSample`] per window.
#[derive(Clone, Debug)]
pub struct WindowSeries {
    window: u64,
    busy_in_window: u64,
    samples: Vec<SeriesSample>,
}

impl WindowSeries {
    fn new(window: u64) -> Self {
        WindowSeries { window, busy_in_window: 0, samples: Vec::new() }
    }

    fn record(&mut self, busy: bool) {
        if busy {
            self.busy_in_window += 1;
        }
    }

    fn roll(&mut self, end_cycle: u64) {
        let utilization = self.busy_in_window as f64 / self.window as f64;
        self.samples.push(SeriesSample { end_cycle, utilization });
        self.busy_in_window = 0;
    }

    /// Rolls a *partial* window of `elapsed` cycles, normalizing by the
    /// cycles actually observed rather than the nominal window length.
    /// Used by [`NetStats::finalize`] so runs shorter than one sampling
    /// window (or ending mid-window) still contribute a sample instead of
    /// silently dropping their tail measurements.
    fn roll_partial(&mut self, end_cycle: u64, elapsed: u64) {
        debug_assert!(elapsed > 0, "partial roll needs observed cycles");
        let utilization = self.busy_in_window as f64 / elapsed as f64;
        self.samples.push(SeriesSample { end_cycle, utilization });
        self.busy_in_window = 0;
    }

    /// The completed window samples.
    pub fn samples(&self) -> &[SeriesSample] {
        &self.samples
    }

    /// Median utilization across completed windows (0 if no windows yet).
    pub fn median(&self) -> f64 {
        percentile(self.samples.iter().map(|s| s.utilization), 50.0)
    }

    /// Peak window utilization.
    pub fn peak(&self) -> f64 {
        self.samples.iter().map(|s| s.utilization).fold(0.0, f64::max)
    }

    /// Mean utilization across completed windows.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.utilization).sum::<f64>() / self.samples.len() as f64
    }
}

/// Computes the `p`-th percentile (0–100) of a sequence; 0.0 when empty.
///
/// `p` is clamped into `0.0..=100.0`: an out-of-range request answers the
/// nearest extreme (minimum or maximum) instead of indexing outside the
/// sorted sample and panicking. A NaN `p` reads as the minimum.
///
/// # NaN handling
///
/// Inputs are ordered with [`f64::total_cmp`], so the function never
/// panics: positive NaNs sort after `+inf` and negative NaNs before
/// `-inf` (IEEE 754 `totalOrder`). A NaN therefore only surfaces in the
/// result when the requested percentile actually lands on (or
/// interpolates with) a NaN sample — it skews the extreme tails instead
/// of aborting the whole experiment.
pub fn percentile(values: impl Iterator<Item = f64>, p: f64) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = rank - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// A cumulative distribution of buffer occupancy, bucketed at 1 % steps
/// (the paper's Fig. 3).
#[derive(Clone, Debug)]
pub struct OccupancyCdf {
    /// `buckets[i]` counts cycles with occupancy in `[i%, (i+1)%)`;
    /// bucket 100 counts exactly-full cycles.
    buckets: [u64; 101],
    total: u64,
    /// NaN samples rejected by [`OccupancyCdf::record`]. A NaN fraction
    /// used to land silently in bucket 0 (`NaN.clamp` stays NaN, `as
    /// usize` saturates to 0), skewing the Fig. 3 CDF low; now the sample
    /// is skipped and counted here so the stats report can surface it.
    dropped: u64,
    /// Bulk zero-sample batches whose count overflowed u64 and were
    /// saturated instead of recorded exactly (see
    /// `NetStats::advance_idle`).
    saturated: u64,
}

impl Default for OccupancyCdf {
    fn default() -> Self {
        OccupancyCdf { buckets: [0; 101], total: 0, dropped: 0, saturated: 0 }
    }
}

impl OccupancyCdf {
    /// Creates an empty CDF.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample at the given occupancy fraction (`0.0..=1.0`).
    ///
    /// A NaN fraction is not a measurement: it is skipped and counted in
    /// [`OccupancyCdf::dropped_samples`] instead of being misfiled as a
    /// zero-occupancy cycle.
    pub fn record(&mut self, fraction: f64) {
        if fraction.is_nan() {
            self.dropped += 1;
            return;
        }
        let pct = (fraction.clamp(0.0, 1.0) * 100.0).round() as usize;
        self.buckets[pct.min(100)] += 1;
        self.total += 1;
    }

    /// Records `n` zero-occupancy samples at once (bulk path for idle
    /// routers). Saturates rather than wraps if the running totals would
    /// overflow u64, counting the event in
    /// [`OccupancyCdf::saturated_batches`].
    pub fn record_zeros(&mut self, n: u64) {
        let bucket = self.buckets[0].checked_add(n);
        let total = self.total.checked_add(n);
        match (bucket, total) {
            (Some(b), Some(t)) => {
                self.buckets[0] = b;
                self.total = t;
            }
            _ => {
                self.buckets[0] = self.buckets[0].saturating_add(n);
                self.total = self.total.saturating_add(n);
                self.saturated += 1;
            }
        }
    }

    /// NaN samples skipped by [`OccupancyCdf::record`].
    pub fn dropped_samples(&self) -> u64 {
        self.dropped
    }

    /// Bulk zero batches saturated on u64 overflow (0 in any sane run).
    pub fn saturated_batches(&self) -> u64 {
        self.saturated
    }

    /// Cumulative probability that occupancy is `<= pct` percent.
    pub fn cumulative_at(&self, pct: usize) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let sum: u64 = self.buckets[..=pct.min(100)].iter().sum();
        sum as f64 / self.total as f64
    }

    /// The full CDF as 101 `(percent, cumulative_probability)` points.
    pub fn points(&self) -> Vec<(usize, f64)> {
        (0..=100).map(|p| (p, self.cumulative_at(p))).collect()
    }

    /// Fraction of recorded cycles with zero occupancy.
    pub fn zero_fraction(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.buckets[0] as f64 / self.total as f64
    }

    /// Number of recorded cycles.
    pub fn total_cycles(&self) -> u64 {
        self.total
    }
}

/// A log₂-bucketed latency histogram supporting approximate percentiles.
///
/// Bucket `i` counts latencies in `[2^i, 2^(i+1))` (bucket 0 holds 0 and
/// 1). Percentile queries interpolate within the winning bucket, giving
/// tail-latency estimates without storing every sample.
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    buckets: [u64; 32],
    total: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: u64) {
        let bucket = (64 - latency.max(1).leading_zeros() - 1).min(31) as usize;
        self.buckets[bucket] += 1;
        self.total += 1;
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.total
    }

    /// Merges another histogram into this one, bucket-wise. Used to
    /// aggregate per-CPM recovery-latency histograms into one report.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Approximate `p`-th percentile (0–100) latency in cycles.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if seen + count >= rank {
                // Interpolate inside [2^i, 2^(i+1)).
                let lo = 1u64 << i;
                let width = lo; // bucket width equals its lower bound
                let into = (rank - seen) as f64 / count as f64;
                return lo + (into * width as f64) as u64;
            }
            seen += count;
        }
        u64::MAX
    }
}

/// Counts of wire-protocol violations observed at packet reassembly.
///
/// A healthy, fault-free network keeps all of these at zero; the
/// tolerant ejection path counts-and-discards instead of panicking so a
/// faulty run degrades into measurable loss rather than an abort.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProtocolErrors {
    /// A tail flit ejected with no head on record; the packet is
    /// discarded and counted as lost.
    pub tail_without_head: u64,
    /// A head flit arrived carrying no payload; the packet is discarded.
    pub missing_payload: u64,
    /// A second head flit ejected for a packet id already holding one;
    /// the first head wins.
    pub duplicate_head: u64,
}

impl ProtocolErrors {
    /// Total protocol violations of any kind.
    pub fn total(&self) -> u64 {
        self.tail_without_head + self.missing_payload + self.duplicate_head
    }
}

/// Latency and delivery accounting for one traffic class.
#[derive(Clone, Debug, Default)]
pub struct ClassStats {
    /// Packets delivered.
    pub delivered: u64,
    /// Flits delivered.
    pub flits: u64,
    /// Sum of end-to-end packet latencies (cycles).
    pub latency_sum: u64,
    /// Maximum packet latency seen.
    pub latency_max: u64,
    /// Log-bucketed latency distribution.
    pub latency_hist: LatencyHistogram,
}

impl ClassStats {
    /// Mean packet latency in cycles (0 if nothing delivered).
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered as f64
        }
    }

    /// Approximate `p`-th percentile latency (see [`LatencyHistogram`]).
    pub fn latency_percentile(&self, p: f64) -> u64 {
        self.latency_hist.percentile(p)
    }
}

/// All statistics gathered by a [`crate::Network`].
#[derive(Clone, Debug)]
pub struct NetStats {
    window: u64,
    cycles_in_window: u64,
    /// Per-router crossbar-busy series.
    crossbar: Vec<WindowSeries>,
    /// Per-directed-link usage series, indexed by link id.
    links: Vec<WindowSeries>,
    /// Network-wide input-buffer occupancy CDF.
    pub occupancy: OccupancyCdf,
    /// Per-class delivery stats, indexed by class.
    comm: ClassStats,
    instr: ClassStats,
    data: ClassStats,
    /// Total flits injected into router input buffers from NIs.
    pub injected_flits: u64,
    /// Total crossbar transfers (flits moved input→output).
    pub crossbar_transfers: u64,
    /// Wire-protocol violations observed at reassembly (zero when the
    /// network is healthy).
    pub protocol_errors: ProtocolErrors,
}

impl NetStats {
    pub(crate) fn new(routers: usize, links: usize, window: u64) -> Self {
        NetStats {
            window,
            cycles_in_window: 0,
            crossbar: (0..routers).map(|_| WindowSeries::new(window)).collect(),
            links: (0..links).map(|_| WindowSeries::new(window)).collect(),
            occupancy: OccupancyCdf::new(),
            comm: ClassStats::default(),
            instr: ClassStats::default(),
            data: ClassStats::default(),
            injected_flits: 0,
            crossbar_transfers: 0,
            protocol_errors: ProtocolErrors::default(),
        }
    }

    /// Counts one cycle of router `router`'s crossbar into its series.
    pub(crate) fn record_router_cycle(&mut self, router: usize, crossbar_busy: bool) {
        self.crossbar[router].record(crossbar_busy);
    }

    /// Counts one cycle of directed link `link` into its series.
    pub(crate) fn record_link_cycle(&mut self, link: usize, busy: bool) {
        self.links[link].record(busy);
    }

    /// Closes one simulated cycle: counts it into the sampling window and
    /// rolls every series when the window is complete.
    pub(crate) fn end_cycle(&mut self, cycle: u64) {
        self.cycles_in_window += 1;
        if self.cycles_in_window >= self.window {
            for s in &mut self.crossbar {
                s.roll(cycle);
            }
            for s in &mut self.links {
                s.roll(cycle);
            }
            self.cycles_in_window = 0;
        }
    }

    /// Accounts for `cycles` consecutive *dead* cycles in one call — the
    /// stats half of an event-driven clock jump starting at `from_cycle`
    /// (the last cycle actually simulated).
    ///
    /// Bit-identical to calling `record_zeros(zeros_per_cycle)` +
    /// `end_cycle(c)` once per dead cycle `c` in
    /// `from_cycle+1 ..= from_cycle+cycles`: the zero-occupancy samples are
    /// bulk-credited, and a jump spanning several sampling windows is
    /// **split across the window boundaries it crosses** — one
    /// [`WindowSeries`] sample per boundary, stamped with the boundary's
    /// own end cycle, with the in-progress partial window's busy counts
    /// rolled into the first of them — rather than attributing every dead
    /// cycle to the window that happens to be current.
    pub(crate) fn advance_idle(&mut self, from_cycle: u64, cycles: u64, zeros_per_cycle: u64) {
        if cycles == 0 {
            return;
        }
        // An overflowing jump would silently corrupt the occupancy CDF —
        // break the bit-identity contract *visibly*: panic in debug
        // builds, saturate-and-count in release so the run degrades into
        // a measurable artifact instead of a wrong-but-plausible CDF.
        let zeros = match cycles.checked_mul(zeros_per_cycle) {
            Some(z) => z,
            None => {
                debug_assert!(
                    false,
                    "idle jump of {cycles} cycles x {zeros_per_cycle} routers \
                     overflows the occupancy sample count"
                );
                self.occupancy.saturated += 1;
                u64::MAX
            }
        };
        self.occupancy.record_zeros(zeros);
        let total = self.cycles_in_window + cycles;
        let rolls = total / self.window;
        if rolls > 0 {
            let mut boundary = from_cycle + (self.window - self.cycles_in_window);
            for _ in 0..rolls {
                for s in &mut self.crossbar {
                    s.roll(boundary);
                }
                for s in &mut self.links {
                    s.roll(boundary);
                }
                boundary += self.window;
            }
        }
        self.cycles_in_window = total % self.window;
    }

    /// Flushes the trailing partial sampling window, if any.
    ///
    /// Stepping only emits a series sample every `sample_window` cycles,
    /// so a run shorter than one window — or one that stops
    /// mid-window — would otherwise report *zero* samples and a silently
    /// wrong `median_crossbar_utilization() == 0.0`. The partial window is
    /// normalized by the cycles actually elapsed, not the nominal window
    /// length. Idempotent: calling it again before further cycles elapse
    /// is a no-op, and simulation may continue afterwards (a fresh window
    /// simply starts).
    pub fn finalize(&mut self, cycle: u64) {
        if self.cycles_in_window == 0 {
            return;
        }
        let elapsed = self.cycles_in_window;
        for s in &mut self.crossbar {
            s.roll_partial(cycle, elapsed);
        }
        for s in &mut self.links {
            s.roll_partial(cycle, elapsed);
        }
        self.cycles_in_window = 0;
    }

    pub(crate) fn record_delivery(&mut self, class: TrafficClass, flits: u64, latency: u64) {
        let c = self.class_mut(class);
        c.delivered += 1;
        c.flits += flits;
        c.latency_sum += latency;
        c.latency_max = c.latency_max.max(latency);
        c.latency_hist.record(latency);
    }

    pub(crate) fn class_mut(&mut self, class: TrafficClass) -> &mut ClassStats {
        match class {
            TrafficClass::Communication => &mut self.comm,
            TrafficClass::SnackInstruction => &mut self.instr,
            TrafficClass::SnackData => &mut self.data,
        }
    }

    /// Delivery stats for a traffic class.
    pub fn class(&self, class: TrafficClass) -> &ClassStats {
        match class {
            TrafficClass::Communication => &self.comm,
            TrafficClass::SnackInstruction => &self.instr,
            TrafficClass::SnackData => &self.data,
        }
    }

    /// The crossbar-usage time series of router `r`.
    pub fn crossbar_series(&self, r: usize) -> &WindowSeries {
        &self.crossbar[r]
    }

    /// Number of router series tracked.
    pub fn router_count(&self) -> usize {
        self.crossbar.len()
    }

    /// The usage time series of directed link `l`.
    pub fn link_series(&self, l: usize) -> &WindowSeries {
        &self.links[l]
    }

    /// Number of directed router-router links tracked.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Median crossbar utilization across all routers and completed windows.
    pub fn median_crossbar_utilization(&self) -> f64 {
        percentile(
            self.crossbar.iter().flat_map(|s| s.samples().iter().map(|x| x.utilization)),
            50.0,
        )
    }

    /// Peak crossbar utilization across all routers and windows.
    pub fn peak_crossbar_utilization(&self) -> f64 {
        self.crossbar.iter().map(|s| s.peak()).fold(0.0, f64::max)
    }

    /// Median link utilization across all links and completed windows.
    pub fn median_link_utilization(&self) -> f64 {
        percentile(
            self.links.iter().flat_map(|s| s.samples().iter().map(|x| x.utilization)),
            50.0,
        )
    }

    /// Peak link utilization across all links and windows.
    pub fn peak_link_utilization(&self) -> f64 {
        self.links.iter().map(|s| s.peak()).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_series_rolls() {
        let mut s = WindowSeries::new(10);
        for i in 0..10 {
            s.record(i < 3);
        }
        s.roll(10);
        assert_eq!(s.samples().len(), 1);
        assert!((s.samples()[0].utilization - 0.3).abs() < 1e-12);
        assert_eq!(s.samples()[0].end_cycle, 10);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(v.iter().copied(), 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile(v.iter().copied(), 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(v.iter().copied(), 100.0) - 4.0).abs() < 1e-12);
        assert_eq!(percentile(std::iter::empty(), 50.0), 0.0);
    }

    #[test]
    fn percentile_tolerates_nan_without_panicking() {
        // Regression: `partial_cmp().expect(...)` used to panic here.
        let v = [2.0, f64::NAN, 1.0, 3.0];
        let p25 = percentile(v.iter().copied(), 25.0);
        assert!((p25 - 1.75).abs() < 1e-12, "NaN sorts to the tail: {p25}");
        assert!((percentile(v.iter().copied(), 0.0) - 1.0).abs() < 1e-12);
        // The top percentile lands on the NaN sample itself.
        assert!(percentile(v.iter().copied(), 100.0).is_nan());
        // All-NaN input yields NaN, still without panicking.
        assert!(percentile([f64::NAN].iter().copied(), 50.0).is_nan());
    }

    #[test]
    fn finalize_flushes_partial_window_normalized_by_elapsed() {
        // Run shorter than the sampling window: without finalize() the
        // series has zero samples and the median silently reads 0.0.
        let mut st = NetStats::new(2, 1, 10_000);
        for c in 1..=100u64 {
            st.record_router_cycle(0, c <= 50); // router 0 busy half the time
            st.record_router_cycle(1, false);
            st.record_link_cycle(0, true);
            st.end_cycle(c);
        }
        assert!(st.crossbar_series(0).samples().is_empty(), "window not yet full");
        st.finalize(100);
        assert_eq!(st.crossbar_series(0).samples().len(), 1);
        // Normalized by the 100 elapsed cycles, not the 10 K window.
        assert!((st.crossbar_series(0).samples()[0].utilization - 0.5).abs() < 1e-12);
        assert!((st.link_series(0).samples()[0].utilization - 1.0).abs() < 1e-12);
        assert!((st.median_crossbar_utilization() - 0.25).abs() < 1e-12);
        // Idempotent until more cycles elapse.
        st.finalize(100);
        assert_eq!(st.crossbar_series(0).samples().len(), 1);
        // Simulation may continue: a fresh window starts cleanly.
        st.record_router_cycle(0, true);
        st.end_cycle(101);
        st.finalize(101);
        assert_eq!(st.crossbar_series(0).samples().len(), 2);
        assert!((st.crossbar_series(0).samples()[1].utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn finalize_after_exact_window_boundary_is_a_noop() {
        let mut st = NetStats::new(1, 0, 50);
        for c in 1..=50u64 {
            st.record_router_cycle(0, true);
            st.end_cycle(c);
        }
        assert_eq!(st.crossbar_series(0).samples().len(), 1);
        st.finalize(50);
        assert_eq!(st.crossbar_series(0).samples().len(), 1, "no empty partial sample");
    }

    #[test]
    fn occupancy_cdf_accumulates() {
        let mut cdf = OccupancyCdf::new();
        for _ in 0..96 {
            cdf.record(0.0);
        }
        for _ in 0..4 {
            cdf.record(0.10);
        }
        assert!((cdf.zero_fraction() - 0.96).abs() < 1e-12);
        assert!((cdf.cumulative_at(9) - 0.96).abs() < 1e-12);
        assert!((cdf.cumulative_at(10) - 1.0).abs() < 1e-12);
        assert_eq!(cdf.total_cycles(), 100);
        assert_eq!(cdf.points().len(), 101);
    }

    #[test]
    fn occupancy_cdf_clamps() {
        let mut cdf = OccupancyCdf::new();
        cdf.record(2.0);
        cdf.record(-1.0);
        assert!((cdf.cumulative_at(100) - 1.0).abs() < 1e-12);
        assert!((cdf.zero_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn latency_histogram_percentiles() {
        let mut h = LatencyHistogram::new();
        for lat in 1..=1000u64 {
            h.record(lat);
        }
        assert_eq!(h.samples(), 1000);
        let p50 = h.percentile(50.0);
        assert!((256..=1024).contains(&p50), "p50 {p50} near the median bucket");
        let p99 = h.percentile(99.0);
        assert!(p99 >= p50, "p99 {p99} >= p50 {p50}");
        assert!(h.percentile(100.0) >= p99);
        assert_eq!(LatencyHistogram::new().percentile(50.0), 0);
    }

    #[test]
    fn latency_histogram_handles_extremes() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.samples(), 2);
        assert!(h.percentile(99.0) > 0);
    }

    #[test]
    fn latency_histogram_merge_adds_bucketwise() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for lat in 1..=100u64 {
            a.record(lat);
            b.record(lat * 8);
        }
        let a_p50 = a.percentile(50.0);
        a.merge(&b);
        assert_eq!(a.samples(), 200);
        assert!(a.percentile(50.0) >= a_p50, "merging larger samples raises the median");
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.samples(), 200, "merging empty is a no-op");
    }

    #[test]
    fn finalize_is_idempotent_for_all_derived_metrics() {
        // Regression guard: a second (or N-th) finalize before any further
        // cycle must not emit extra partial samples or move any medians.
        let mut st = NetStats::new(3, 2, 1_000);
        for c in 1..=137u64 {
            st.record_router_cycle(0, c % 2 == 0);
            st.record_router_cycle(1, c % 3 == 0);
            st.record_router_cycle(2, true);
            st.record_link_cycle(0, c % 4 == 0);
            st.record_link_cycle(1, false);
            st.end_cycle(c);
        }
        st.finalize(137);
        let samples: Vec<usize> =
            (0..3).map(|r| st.crossbar_series(r).samples().len()).collect();
        let med_x = st.median_crossbar_utilization();
        let med_l = st.median_link_utilization();
        let peak = st.peak_crossbar_utilization();
        for _ in 0..3 {
            st.finalize(137);
        }
        let samples2: Vec<usize> =
            (0..3).map(|r| st.crossbar_series(r).samples().len()).collect();
        assert_eq!(samples, samples2, "repeat finalize must not add samples");
        assert_eq!(st.median_crossbar_utilization(), med_x);
        assert_eq!(st.median_link_utilization(), med_l);
        assert_eq!(st.peak_crossbar_utilization(), peak);
    }

    #[test]
    fn latency_histogram_empty_and_single_sample() {
        let empty = LatencyHistogram::new();
        assert_eq!(empty.samples(), 0);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(empty.percentile(p), 0, "empty histogram reads 0 at p{p}");
        }
        let mut one = LatencyHistogram::new();
        one.record(37);
        assert_eq!(one.samples(), 1);
        let (lo, hi) = (32, 64); // 37's log2 bucket
        for p in [1.0, 50.0, 100.0] {
            let v = one.percentile(p);
            assert!(
                (lo..=hi).contains(&v),
                "single sample always lands in its own bucket: p{p} -> {v}"
            );
        }
        // Merging the single sample into empty equals the single histogram.
        let mut merged = LatencyHistogram::new();
        merged.merge(&one);
        assert_eq!(merged.samples(), 1);
        assert_eq!(merged.percentile(50.0), one.percentile(50.0));
    }

    #[test]
    fn merge_then_percentile_matches_concatenated_samples() {
        // Two disjoint streams merged must answer percentile queries
        // exactly like one histogram fed the concatenation.
        let left: Vec<u64> = (1..=500).collect();
        let right: Vec<u64> = (1..=400).map(|i| i * 13 + 7).collect();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut concat = LatencyHistogram::new();
        for &v in &left {
            a.record(v);
            concat.record(v);
        }
        for &v in &right {
            b.record(v);
            concat.record(v);
        }
        a.merge(&b);
        assert_eq!(a.samples(), concat.samples());
        for p in [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            assert_eq!(
                a.percentile(p),
                concat.percentile(p),
                "merged and concatenated histograms disagree at p{p}"
            );
        }
    }

    #[test]
    fn protocol_errors_total() {
        let mut e = ProtocolErrors::default();
        assert_eq!(e.total(), 0);
        e.tail_without_head = 2;
        e.missing_payload = 1;
        e.duplicate_head = 4;
        assert_eq!(e.total(), 7);
    }

    #[test]
    fn advance_idle_is_bit_identical_to_per_cycle_dead_stepping() {
        // The event-driven jump path must fold an arbitrary run of dead
        // cycles into exactly the samples the per-cycle loop would emit.
        for (start, dead) in [(0u64, 7u64), (3, 10), (9, 1), (4, 26), (10, 30)] {
            let mut stepped = NetStats::new(2, 1, 10);
            let mut jumped = NetStats::new(2, 1, 10);
            for c in 1..=start {
                let busy = c % 3 == 0;
                stepped.record_router_cycle(0, busy);
                stepped.record_link_cycle(0, !busy);
                stepped.end_cycle(c);
                jumped.record_router_cycle(0, busy);
                jumped.record_link_cycle(0, !busy);
                jumped.end_cycle(c);
            }
            for c in start + 1..=start + dead {
                stepped.occupancy.record_zeros(2);
                stepped.end_cycle(c);
            }
            jumped.advance_idle(start, dead, 2);
            stepped.finalize(start + dead);
            jumped.finalize(start + dead);
            for r in 0..2 {
                assert_eq!(
                    stepped.crossbar_series(r).samples(),
                    jumped.crossbar_series(r).samples(),
                    "router {r} series diverged for start={start} dead={dead}"
                );
            }
            assert_eq!(stepped.link_series(0).samples(), jumped.link_series(0).samples());
            assert_eq!(stepped.occupancy.total_cycles(), jumped.occupancy.total_cycles());
            assert_eq!(stepped.occupancy.zero_fraction(), jumped.occupancy.zero_fraction());
        }
    }

    #[test]
    fn advance_idle_splits_a_jump_spanning_three_windows() {
        // Regression (event-mode jump accounting): a single jump crossing
        // several sampling-window boundaries must emit one sample per
        // boundary — the in-progress busy counts roll into the first, the
        // later windows read zero — instead of attributing every dead
        // cycle to the window that happened to be current at jump time.
        let mut st = NetStats::new(1, 1, 100);
        // 40 cycles into the first window, 10 of them busy.
        for c in 1..=40u64 {
            st.record_router_cycle(0, c <= 10);
            st.record_link_cycle(0, c <= 10);
            st.occupancy.record(if c <= 10 { 0.5 } else { 0.0 });
            st.end_cycle(c);
        }
        // One jump over 340 dead cycles: crosses boundaries at 100, 200,
        // 300, and leaves 80 cycles of a fresh partial window.
        st.advance_idle(40, 340, 1);
        let xb = st.crossbar_series(0).samples();
        assert_eq!(xb.len(), 3, "three boundaries crossed, three samples");
        assert_eq!(xb[0].end_cycle, 100);
        assert!((xb[0].utilization - 0.10).abs() < 1e-12, "partial busy rolls into window 1");
        assert_eq!(xb[1].end_cycle, 200);
        assert_eq!(xb[1].utilization, 0.0);
        assert_eq!(xb[2].end_cycle, 300);
        assert_eq!(xb[2].utilization, 0.0);
        assert_eq!(st.occupancy.total_cycles(), 380);
        // Finalize flushes the 80-cycle tail as a partial, all idle.
        st.finalize(380);
        let xb = st.crossbar_series(0).samples();
        assert_eq!(xb.len(), 4);
        assert_eq!(xb[3].end_cycle, 380);
        assert_eq!(xb[3].utilization, 0.0);
        assert_eq!(st.link_series(0).samples().len(), 4);
    }

    #[test]
    fn percentile_extreme_ranks() {
        let v = [5.0, 1.0, 3.0];
        // p = 0 is the minimum, p = 100 the maximum — no interpolation
        // off the ends of the sorted sample.
        assert_eq!(percentile(v.iter().copied(), 0.0), 1.0);
        assert_eq!(percentile(v.iter().copied(), 100.0), 5.0);
        // p = 1.0 (one percent) interpolates just above the minimum.
        let p1 = percentile(v.iter().copied(), 1.0);
        assert!((p1 - 1.04).abs() < 1e-12, "p1 {p1}");
        // Extremes on the empty iterator fall back to 0.0, not a panic.
        assert_eq!(percentile(std::iter::empty(), 0.0), 0.0);
        assert_eq!(percentile(std::iter::empty(), 100.0), 0.0);
        // A single sample answers every rank with itself.
        for p in [0.0, 1.0, 50.0, 100.0] {
            assert_eq!(percentile([7.0].iter().copied(), p), 7.0);
        }
    }

    #[test]
    fn latency_histogram_bucket_formula_at_zero_and_max() {
        // latency 0 is clamped to 1 before the log2, landing in bucket 0
        // ([1, 2)): the percentile interpolates inside [1, 2].
        let mut zero = LatencyHistogram::new();
        zero.record(0);
        assert_eq!(zero.samples(), 1);
        assert_eq!(zero.percentile(100.0), 2, "bucket 0 upper edge");
        assert!(zero.percentile(0.0) >= 1, "bucket 0 lower edge");
        // u64::MAX has zero leading zeros; the raw bucket index 63 clamps
        // to 31, so the sample lands in the top bucket instead of
        // indexing out of bounds.
        let mut max = LatencyHistogram::new();
        max.record(u64::MAX);
        assert_eq!(max.samples(), 1);
        assert_eq!(max.percentile(100.0), (1u64 << 31) + (1u64 << 31), "top-bucket clamp");
        // Clamped extremes merge like any other samples.
        zero.merge(&max);
        assert_eq!(zero.samples(), 2);
        assert!(zero.percentile(100.0) > zero.percentile(0.0));
    }

    #[test]
    fn percentile_clamps_out_of_range_ranks() {
        // Regression: p > 100 used to compute a rank past `len - 1` and
        // index out of bounds; p < 0 underflowed towards the front.
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(v.iter().copied(), 150.0), 4.0, "p=150 answers the maximum");
        assert_eq!(percentile(v.iter().copied(), -5.0), 1.0, "p=-5 answers the minimum");
        assert_eq!(percentile([7.0].iter().copied(), 150.0), 7.0);
        assert_eq!(percentile(std::iter::empty(), 150.0), 0.0);
        assert_eq!(percentile(std::iter::empty(), -5.0), 0.0);
        // In-range queries are untouched by the clamp.
        assert!((percentile(v.iter().copied(), 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn occupancy_cdf_skips_and_counts_nan() {
        // Regression: NaN.clamp stays NaN and `as usize` saturates to 0,
        // so NaN fractions were silently filed as zero-occupancy cycles.
        let mut cdf = OccupancyCdf::new();
        cdf.record(0.5);
        cdf.record(f64::NAN);
        cdf.record(0.5);
        assert_eq!(cdf.total_cycles(), 2, "NaN is not a sample");
        assert_eq!(cdf.dropped_samples(), 1);
        assert_eq!(cdf.zero_fraction(), 0.0, "no phantom bucket-0 entry");
        cdf.record(f64::NAN);
        assert_eq!(cdf.dropped_samples(), 2);
    }

    #[test]
    fn record_zeros_saturates_with_counter_instead_of_wrapping() {
        let mut cdf = OccupancyCdf::new();
        cdf.record_zeros(10);
        cdf.record_zeros(u64::MAX);
        assert_eq!(cdf.total_cycles(), u64::MAX, "saturated, not wrapped");
        assert_eq!(cdf.saturated_batches(), 1);
        cdf.record_zeros(u64::MAX);
        assert_eq!(cdf.saturated_batches(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "overflows the occupancy sample count")]
    fn advance_idle_panics_loudly_on_overflowing_jump_in_debug() {
        // Regression: `saturating_mul` silently corrupted the CDF on a
        // u64::MAX-scale jump; the overflow must now fail visibly.
        let mut st = NetStats::new(4096, 0, 10_000);
        st.advance_idle(0, u64::MAX, 4096);
    }

    #[test]
    fn class_stats_mean() {
        let mut st = NetStats::new(1, 0, 10);
        st.record_delivery(TrafficClass::Communication, 4, 20);
        st.record_delivery(TrafficClass::Communication, 4, 40);
        let c = st.class(TrafficClass::Communication);
        assert_eq!(c.delivered, 2);
        assert_eq!(c.flits, 8);
        assert!((c.mean_latency() - 30.0).abs() < 1e-12);
        assert_eq!(c.latency_max, 40);
        assert_eq!(st.class(TrafficClass::SnackData).delivered, 0);
    }
}
