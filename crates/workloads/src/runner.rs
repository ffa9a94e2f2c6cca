//! Standalone benchmark runner: plays one profile over a private NoC and
//! reports runtime plus the slack measurements of paper §II.

use crate::engine::TrafficEngine;
use crate::message::CmpMessage;
use crate::profile::BenchmarkProfile;
use snacknoc_noc::{ConfigError, NetStats, Network, NocConfig};

/// The outcome of a standalone benchmark run.
#[derive(Debug)]
pub struct RunResult {
    /// Cycle at which the last response arrived (application runtime).
    pub runtime_cycles: u64,
    /// Whether the run finished before the safety cap.
    pub finished: bool,
    /// Requests completed.
    pub completed_requests: u64,
    /// Full network statistics (crossbar/link series, occupancy CDF, …).
    pub stats: NetStats,
}

impl RunResult {
    /// Median router crossbar utilization across routers and windows.
    pub fn median_crossbar(&self) -> f64 {
        self.stats.median_crossbar_utilization()
    }

    /// Peak router crossbar utilization.
    pub fn peak_crossbar(&self) -> f64 {
        self.stats.peak_crossbar_utilization()
    }

    /// Median link utilization.
    pub fn median_link(&self) -> f64 {
        self.stats.median_link_utilization()
    }
}

/// Hard cap multiplier: a run is abandoned after this many times its
/// nominal (zero-contention) duration.
const SAFETY_FACTOR: u64 = 20;

/// Runs `profile` to completion on a fresh NoC built from `cfg`.
///
/// Returns the application runtime and the gathered slack statistics.
/// The run aborts (with `finished == false`) if it exceeds a generous
/// safety cap, which indicates a saturated/misconfigured network.
///
/// # Errors
///
/// Returns [`ConfigError`] if `cfg` is invalid.
pub fn run_benchmark(
    profile: &BenchmarkProfile,
    cfg: NocConfig,
    seed: u64,
) -> Result<RunResult, ConfigError> {
    let mut net: Network<CmpMessage> = Network::new(cfg)?;
    let mesh = *net.mesh();
    let mut engine = TrafficEngine::new(profile.clone(), mesh, seed);
    let nominal: f64 = profile
        .phases
        .iter()
        .map(|p| p.requests_per_core as f64 * p.think_time / profile.outstanding as f64)
        .sum();
    let cap = (nominal as u64 + 100_000) * SAFETY_FACTOR;
    drive(&mut net, &mut engine, cap);
    // Flush the trailing partial sampling window so short (CI-scale) runs
    // still report utilization samples instead of a silent zero median.
    let stats = net.finalize_stats().clone();
    Ok(RunResult {
        runtime_cycles: engine.finished_at().unwrap_or(net.cycle()),
        finished: engine.done(),
        completed_requests: engine.completed(),
        stats,
    })
}

/// Pumps `engine` over `net` until the workload finishes or `cap` cycles
/// elapse. Exposed for callers that want to share the loop (e.g. the
/// SnackNoC platform runs the same protocol alongside kernel traffic).
pub fn drive(net: &mut Network<CmpMessage>, engine: &mut TrafficEngine, cap: u64) {
    let nodes: Vec<_> = net.mesh().nodes().collect();
    let mut specs = Vec::new();
    while !engine.done() && net.cycle() < cap {
        engine.tick(net.cycle(), &mut specs);
        for spec in specs.drain(..) {
            net.inject(spec).expect("engine produces valid packets");
        }
        net.step();
        let now = net.cycle();
        for &node in &nodes {
            for pkt in net.drain_ejected(node) {
                engine.deliver(now, node, pkt.payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{profile, Benchmark};

    #[test]
    fn small_run_finishes_and_reports_stats() {
        let p = profile(Benchmark::Fmm).scaled(0.01);
        let r = run_benchmark(&p, NocConfig::dapper().with_sample_window(1_000), 42).unwrap();
        assert!(r.finished, "run must finish");
        assert_eq!(r.completed_requests, p.requests_per_core() * 16);
        assert!(r.runtime_cycles > 0);
        assert!(r.peak_crossbar() > 0.0);
    }

    #[test]
    fn runtime_grows_under_reduced_resources() {
        // The paper's Fig. 1 premise: cutting NoC resources slows the
        // application. Use a heavy benchmark so contention matters.
        let p = profile(Benchmark::Radix).scaled(0.004);
        let full = run_benchmark(&p, NocConfig::axnoc(), 9).unwrap();
        let starved =
            run_benchmark(&p, NocConfig::axnoc().with_channel_width(4), 9).unwrap();
        assert!(full.finished && starved.finished);
        assert!(
            starved.runtime_cycles > full.runtime_cycles,
            "quartered channel width must hurt: {} vs {}",
            starved.runtime_cycles,
            full.runtime_cycles
        );
    }

    #[test]
    fn utilization_ordering_low_vs_high() {
        let low = run_benchmark(
            &profile(Benchmark::Cholesky).scaled(0.02),
            NocConfig::dapper().with_sample_window(1_000),
            3,
        )
        .unwrap();
        let high = run_benchmark(
            &profile(Benchmark::Radix).scaled(0.002),
            NocConfig::dapper().with_sample_window(1_000),
            3,
        )
        .unwrap();
        assert!(
            high.median_crossbar() > low.median_crossbar(),
            "radix {} must exceed cholesky {}",
            high.median_crossbar(),
            low.median_crossbar()
        );
    }

    #[test]
    fn short_run_below_sample_window_still_reports_samples() {
        // Regression for the end_cycle partial-window bug: with the
        // paper-default 10 K-cycle window, a CI-scale run finishing in a
        // few thousand cycles used to report zero samples and
        // `median_crossbar_utilization() == 0.0` silently.
        let p = profile(Benchmark::Radix).scaled(0.0005);
        let r = run_benchmark(&p, NocConfig::dapper(), 7).unwrap(); // 10 K window
        assert!(r.finished);
        assert!(
            r.runtime_cycles < NocConfig::dapper().sample_window,
            "run ({} cycles) must be shorter than the sampling window",
            r.runtime_cycles
        );
        for router in 0..r.stats.router_count() {
            assert!(
                !r.stats.crossbar_series(router).samples().is_empty(),
                "router {router} must have a flushed partial-window sample"
            );
        }
        assert!(r.median_crossbar() > 0.0, "partial window counts toward the median");
    }

    #[test]
    fn deterministic_runtime_for_fixed_seed() {
        let p = profile(Benchmark::Volrend).scaled(0.005);
        let a = run_benchmark(&p, NocConfig::binochs(), 5).unwrap();
        let b = run_benchmark(&p, NocConfig::binochs(), 5).unwrap();
        assert_eq!(a.runtime_cycles, b.runtime_cycles);
    }
}
