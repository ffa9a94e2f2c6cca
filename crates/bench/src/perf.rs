//! Hot-loop performance measurements (`BENCH_perf.json`, the repo's perf
//! trajectory). Every network and platform here is built in its stepping
//! mode ([`NocConfig::stepping`]); nothing switches modes mid-run.
//!
//! Three families of measurements:
//!
//! * **`Network::step` scenarios** — a bare network driven by a
//!   pre-generated uniform-random injection schedule at idle / low /
//!   saturation rates, timed under the dense reference loop
//!   ([`Stepping::Dense`]) and serial stepping ([`Stepping::Serial`], the
//!   default: active sets plus clock jumps, DESIGN.md §11–§12). The
//!   schedule is generated once per scenario, so both modes replay
//!   byte-identical injections and must report byte-identical simulation
//!   statistics ([`StepTiming::stats_identical`]).
//! * **Closed-loop platform scenario** — a think-heavy closed-loop CMP
//!   workload on the full `SnackPlatform` run loop, the regime where
//!   clock jumps compress real dead time between request bursts.
//! * **`SnackPlatform::run_kernel` timings** — full compiler kernels run to
//!   completion under both modes, with outputs and statistics compared.
//!
//! Wall-clock numbers (median/p90 ns) are machine-dependent and are *not*
//! covered by any determinism guarantee; the simulation fingerprints are.

#![deny(clippy::unwrap_used)]

use crate::harness::{summarize, BenchStats};
use crate::table::print_table;
use snacknoc_compiler::{build, MapperConfig};
use snacknoc_core::SnackPlatform;
use snacknoc_noc::{Network, NetStats, NocConfig, NodeId, PacketSpec, Stepping, TrafficClass};
use snacknoc_prng::Rng;
use std::io::{self, Write};
use std::time::Instant;

/// One `Network::step` timing scenario.
#[derive(Clone, Debug)]
pub struct StepScenario {
    /// Scenario label (e.g. `idle`).
    pub name: &'static str,
    /// Mesh columns.
    pub cols: usize,
    /// Mesh rows.
    pub rows: usize,
    /// Injection rate in packets per node per cycle (0.0 = idle mesh).
    pub injection: f64,
    /// Simulated cycles per timed iteration.
    pub cycles: u64,
    /// Schedule seed.
    pub seed: u64,
}

impl StepScenario {
    /// `name/COLSxROWS` display label.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/{}x{}", self.name, self.cols, self.rows)
    }
}

/// The canonical scenario set behind the committed `BENCH_perf.json`:
/// the idle mesh (the paper's common case — SnackNoC computes in *spare*
/// NoC bandwidth), a paper-sweep low injection rate, and saturation.
#[must_use]
pub fn default_step_scenarios() -> Vec<StepScenario> {
    vec![
        StepScenario { name: "idle", cols: 16, rows: 16, injection: 0.0, cycles: 20_000, seed: 11 },
        StepScenario { name: "low", cols: 16, rows: 16, injection: 0.002, cycles: 20_000, seed: 12 },
        StepScenario {
            name: "saturation",
            cols: 16,
            rows: 16,
            injection: 0.15,
            cycles: 5_000,
            seed: 13,
        },
        // The loaded-path scaling row (PR 10): same saturation regime on a
        // 4x-larger mesh, where payload pooling and the bitmask allocator
        // dominate the wall clock.
        StepScenario {
            name: "saturation",
            cols: 32,
            rows: 32,
            injection: 0.15,
            cycles: 2_000,
            seed: 14,
        },
    ]
}

/// A reduced grid for the CI `--smoke` gate: small meshes, short runs —
/// enough to exercise every code path and the bit-identity check without
/// meaningful wall-clock cost.
#[must_use]
pub fn smoke_step_scenarios() -> Vec<StepScenario> {
    vec![
        StepScenario { name: "idle", cols: 8, rows: 8, injection: 0.0, cycles: 2_000, seed: 11 },
        StepScenario { name: "low", cols: 8, rows: 8, injection: 0.01, cycles: 2_000, seed: 12 },
        StepScenario {
            name: "saturation",
            cols: 8,
            rows: 8,
            injection: 0.2,
            cycles: 1_000,
            seed: 13,
        },
    ]
}

/// One scheduled injection: (cycle, src, dst, vnet).
type Injection = (u64, usize, usize, u8);

/// Pre-generates the uniform-random injection schedule for `s`, sorted by
/// cycle. Generated once per scenario so the serial and dense runs replay
/// identical traffic.
#[must_use]
pub fn build_schedule(s: &StepScenario, cfg: &NocConfig) -> Vec<Injection> {
    let n = s.cols * s.rows;
    let mut rng = Rng::new(s.seed ^ 0x5EED_9E37_79B9_7F4A);
    let mut schedule = Vec::new();
    if s.injection <= 0.0 {
        return schedule;
    }
    for cycle in 0..s.cycles {
        for src in 0..n {
            if rng.unit_f64() < s.injection {
                let dst = {
                    let d = rng.range_usize(0..n - 1);
                    if d >= src {
                        d + 1
                    } else {
                        d
                    }
                };
                let vnet = rng.range(0..u64::from(cfg.vnets)) as u8;
                schedule.push((cycle, src, dst, vnet));
            }
        }
    }
    schedule
}

/// Canonical fingerprint of a network run: every deterministic simulation
/// counter the statistics layer exposes, formatted into one string. Two
/// runs are "identical" for `BENCH_perf.json` purposes iff these bytes
/// match.
#[must_use]
pub fn stats_fingerprint(injected: u64, delivered: u64, pending: u64, stats: &NetStats) -> String {
    let mut out = format!(
        "injected={injected} delivered={delivered} pending={pending} \
         inj_flits={} xbar={} occ_total={} occ_zero={:.12e} occ_dropped={} \
         occ_c50={:.12e} occ_c90={:.12e} \
         xbar_med={:.12e} xbar_peak={:.12e} link_med={:.12e} link_peak={:.12e} \
         perr={}/{}/{}",
        stats.injected_flits,
        stats.crossbar_transfers,
        stats.occupancy.total_cycles(),
        stats.occupancy.zero_fraction(),
        stats.occupancy.dropped_samples(),
        stats.occupancy.cumulative_at(50),
        stats.occupancy.cumulative_at(90),
        stats.median_crossbar_utilization(),
        stats.peak_crossbar_utilization(),
        stats.median_link_utilization(),
        stats.peak_link_utilization(),
        stats.protocol_errors.tail_without_head,
        stats.protocol_errors.missing_payload,
        stats.protocol_errors.duplicate_head,
    );
    for class in [TrafficClass::Communication, TrafficClass::SnackInstruction, TrafficClass::SnackData]
    {
        let c = stats.class(class);
        out.push_str(&format!(
            " [{class:?}: d={} f={} ls={} lm={} p50={} p99={}]",
            c.delivered,
            c.flits,
            c.latency_sum,
            c.latency_max,
            c.latency_hist.percentile(0.5),
            c.latency_hist.percentile(0.99),
        ));
    }
    out
}

/// Dense-vs-serial timings of one scenario.
struct ModeTimings<E> {
    dense: BenchStats,
    serial: BenchStats,
    identical: bool,
    /// What the dense warmup run reported beside its fingerprint.
    extra: E,
}

/// Runs `once(mode)` — [`Stepping::Dense`] or [`Stepping::Serial`] —
/// which returns wall ns, a simulation fingerprint and a
/// scenario-specific extra. One untimed warmup per mode (dense is the
/// reference fingerprint), then `samples` timed iterations alternating
/// the modes to decorrelate them from machine noise; every fingerprint
/// must equal the reference.
fn time_modes<E>(
    label: &str,
    samples: u32,
    once: impl Fn(Stepping) -> (u64, String, E),
) -> ModeTimings<E> {
    let modes = [Stepping::Dense, Stepping::Serial];
    let (_, reference, extra) = once(modes[0]);
    let mut identical = once(modes[1]).1 == reference;
    let mut ns: [Vec<u64>; 2] = Default::default();
    for _ in 0..samples {
        for (i, &mode) in modes.iter().enumerate() {
            let (t, fp, _) = once(mode);
            identical &= fp == reference;
            ns[i].push(t);
        }
    }
    ModeTimings {
        dense: summarize(&format!("{label}/dense"), &ns[0]),
        serial: summarize(&format!("{label}/serial"), &ns[1]),
        identical,
        extra,
    }
}

/// Runs `s` once, replaying `schedule`, under the dense reference loop
/// or serial stepping. Returns the wall time of the
/// stepping loop (ns), the simulation fingerprint and the injected flit
/// count.
///
/// Dense mode drives the canonical per-cycle loop (inject, step, drain —
/// the original baseline loop). Serial mode drives the same schedule
/// through [`Network::step_until`] segments between injection cycles,
/// which is where clock jumps pay; the drain cadence differs but
/// draining is stats-neutral, so the fingerprints must still match
/// byte-for-byte.
fn run_step_once(
    s: &StepScenario,
    cfg: &NocConfig,
    schedule: &[Injection],
    mode: Stepping,
) -> (u64, String, u64) {
    let mut net: Network<u64> =
        Network::new(cfg.clone().with_stepping(mode)).expect("valid perf config");
    let mut cursor = 0usize;
    let mut drained: Vec<_> = Vec::new();
    let nodes: Vec<NodeId> = net.mesh().nodes().collect();
    let t0 = Instant::now();
    if mode == Stepping::Serial {
        while cursor < schedule.len() {
            let at = schedule[cursor].0;
            net.step_until(at);
            for &node in &nodes {
                net.drain_ejected_into(node, &mut drained);
            }
            drained.clear();
            while cursor < schedule.len() && schedule[cursor].0 == at {
                let (_, src, dst, vnet) = schedule[cursor];
                let spec = PacketSpec::new(
                    NodeId::new(src),
                    NodeId::new(dst),
                    vnet,
                    TrafficClass::Communication,
                    16,
                    at,
                );
                net.inject(spec).expect("schedule produces valid packets");
                cursor += 1;
            }
        }
        net.step_until(s.cycles);
        for &node in &nodes {
            net.drain_ejected_into(node, &mut drained);
        }
        drained.clear();
    } else {
        for cycle in 0..s.cycles {
            while cursor < schedule.len() && schedule[cursor].0 == cycle {
                let (_, src, dst, vnet) = schedule[cursor];
                let spec = PacketSpec::new(
                    NodeId::new(src),
                    NodeId::new(dst),
                    vnet,
                    TrafficClass::Communication,
                    16,
                    cycle,
                );
                net.inject(spec).expect("schedule produces valid packets");
                cursor += 1;
            }
            net.step();
            // Closed-loop delivery drain, as a platform would do.
            for &node in &nodes {
                net.drain_ejected_into(node, &mut drained);
            }
            drained.clear();
        }
    }
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let injected = net.injected_packets();
    let delivered = net.delivered_packets();
    let pending = net.pending_packets();
    let stats = net.finalize_stats();
    let flits = stats.injected_flits;
    let fp = stats_fingerprint(injected, delivered, pending, stats);
    (ns, fp, flits)
}

/// Timing + bit-identity result for one `Network::step` scenario.
#[derive(Clone, Debug)]
pub struct StepTiming {
    /// Scenario label.
    pub name: String,
    /// Simulated cycles per iteration.
    pub sim_cycles: u64,
    /// Packets injected per iteration (same for both modes).
    pub injected_packets: u64,
    /// Flits injected per iteration (same for both modes).
    pub injected_flits: u64,
    /// Serial-stepping timings (the default mode).
    pub serial: BenchStats,
    /// Dense reference-loop timings (the baseline).
    pub dense: BenchStats,
    /// Whether both modes reported byte-identical simulation statistics.
    pub stats_identical: bool,
}

impl StepTiming {
    /// Simulated cycles per wall-clock second, serial stepping.
    #[must_use]
    pub fn serial_cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 * 1e9 / self.serial.median_ns.max(1) as f64
    }

    /// Simulated cycles per wall-clock second, dense baseline.
    #[must_use]
    pub fn dense_cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 * 1e9 / self.dense.median_ns.max(1) as f64
    }

    /// Injected flits simulated per wall-clock second under serial
    /// stepping — the loaded-path throughput figure the hot-path data
    /// layout (DESIGN.md §16) targets. Zero on idle scenarios.
    #[must_use]
    pub fn flits_per_sec(&self) -> f64 {
        self.injected_flits as f64 * 1e9 / self.serial.median_ns.max(1) as f64
    }

    /// Serial speedup over the dense baseline (median-based).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.dense.median_ns as f64 / self.serial.median_ns.max(1) as f64
    }
}

/// Times `s` under both modes (`samples` iterations each, interleaved)
/// and checks that every iteration produced the dense fingerprint.
///
/// # Panics
///
/// Panics if the scenario's mesh config is invalid.
#[must_use]
pub fn time_step_scenario(s: &StepScenario, samples: u32) -> StepTiming {
    let cfg = NocConfig::default().with_mesh(s.cols as u16, s.rows as u16);
    let schedule = build_schedule(s, &cfg);
    let label = s.label();
    let t = time_modes(&format!("step/{label}"), samples, |mode| {
        run_step_once(s, &cfg, &schedule, mode)
    });
    StepTiming {
        sim_cycles: s.cycles,
        injected_packets: schedule.len() as u64,
        injected_flits: t.extra,
        serial: t.serial,
        dense: t.dense,
        stats_identical: t.identical,
        name: label,
    }
}

/// The host's hardware thread count, as recorded into `BENCH_perf.json`
/// so a committed capture carries the context its timings were measured
/// under (the bit-identity columns are machine-independent, the
/// wall-clock columns are not).
#[must_use]
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Timing + bit-identity result for one full-kernel run.
#[derive(Clone, Debug)]
pub struct KernelTiming {
    /// `kernel/size` label.
    pub name: String,
    /// Kernel completion latency in simulated cycles (same for both
    /// modes when `stats_identical`).
    pub sim_cycles: u64,
    /// Whether outputs matched the reference interpreter.
    pub verified: bool,
    /// Serial-stepping timings (the default mode).
    pub serial: BenchStats,
    /// Dense reference-loop timings (the baseline).
    pub dense: BenchStats,
    /// Whether both modes agreed on cycles, outputs and statistics.
    pub stats_identical: bool,
}

impl KernelTiming {
    /// Serial speedup over the dense baseline (median-based).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.dense.median_ns as f64 / self.serial.median_ns.max(1) as f64
    }
}

/// Compiles `kernel` at `size` once, then times `Platform::run_kernel`
/// to completion under both stepping modes.
///
/// # Panics
///
/// Panics if the kernel fails to compile, validate or finish — platform
/// bugs, not experimental conditions.
#[must_use]
pub fn time_kernel(
    kernel: snacknoc_workloads::kernels::Kernel,
    size: usize,
    seed: u64,
    samples: u32,
) -> KernelTiming {
    let cfg = NocConfig::default();
    let built = build(kernel, size, seed);
    let mesh = *SnackPlatform::new(cfg.clone()).expect("valid platform config").mesh();
    let mapper = MapperConfig::for_mesh(&mesh);
    let compiled = built.context.compile(built.root, &mapper).expect("kernel compiles");
    compiled.validate().expect("compiled kernel is well-formed");
    let cap = 200 * compiled.len() as u64 + 1_000_000;
    let reference = built.context.interpret(built.root).expect("interpretable");
    let name = format!("{kernel}/{size}");
    let t = time_modes(&format!("kernel/{name}"), samples, |mode| {
        let mut platform = SnackPlatform::new(cfg.clone().with_stepping(mode))
            .expect("valid platform config");
        let t0 = Instant::now();
        let run = platform
            .run_kernel(&compiled, cap)
            .unwrap_or_else(|e| panic!("{kernel} did not finish within {cap} cycles: {e}"));
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let injected = platform.net_injected_packets();
        let delivered = platform.net_delivered_packets();
        let rcu = platform.rcu_stats();
        let fp = format!(
            "cycles={} outputs={:?} rcu={}/{}/{} {}",
            run.cycles,
            run.outputs,
            rcu.executed,
            rcu.captures,
            rcu.stalled_cycles,
            stats_fingerprint(injected, delivered, 0, platform.finalize_stats()),
        );
        (ns, fp, (run.cycles, run.outputs == reference))
    });
    let (cycles, verified) = t.extra;
    KernelTiming {
        sim_cycles: cycles,
        verified,
        serial: t.serial,
        dense: t.dense,
        stats_identical: t.identical,
        name,
    }
}

/// Times a think-heavy closed-loop CMP workload on the full
/// [`SnackPlatform`] run loop under both stepping modes.
///
/// Each core issues a handful of requests separated by long exponential
/// think gaps (mean `think_time` cycles), so most of the simulated window
/// is genuinely dead time between bursts — the regime clock jumps
/// (DESIGN.md §12) are built for. Reported as an extra [`StepTiming`]
/// row named `closed-loop/COLSxROWS`.
///
/// # Panics
///
/// Panics if the platform config is invalid — a bench bug, not an
/// experimental condition.
#[must_use]
pub fn time_closed_loop(cycles: u64, samples: u32) -> StepTiming {
    use snacknoc_workloads::{BenchmarkProfile, Phase};
    let cfg = NocConfig::default().with_mesh(8, 8);
    let profile = BenchmarkProfile {
        name: "closed-loop",
        phases: vec![Phase::smooth(4, 6_000.0)],
        outstanding: 1,
    };
    let t = time_modes("step/closed-loop/8x8", samples, |mode| {
        let mut p = SnackPlatform::new(cfg.clone().with_stepping(mode))
            .expect("valid platform config");
        p.attach_workload(&profile, 29);
        let t0 = Instant::now();
        p.run(cycles);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let injected = p.net_injected_packets();
        let delivered = p.net_delivered_packets();
        let done = p.workload_done();
        let runtime = p.workload_runtime();
        let stats = p.finalize_stats();
        let flits = stats.injected_flits;
        let fp = format!(
            "done={done} runtime={runtime:?} {}",
            stats_fingerprint(injected, delivered, 0, stats),
        );
        (ns, fp, (injected, flits))
    });
    let (injected, flits) = t.extra;
    StepTiming {
        name: "closed-loop/8x8".to_string(),
        sim_cycles: cycles,
        injected_packets: injected,
        injected_flits: flits,
        serial: t.serial,
        dense: t.dense,
        stats_identical: t.identical,
    }
}

/// The full `BENCH_perf.json` payload.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// `Network::step` scenario results.
    pub step: Vec<StepTiming>,
    /// Full-kernel results.
    pub kernels: Vec<KernelTiming>,
}

impl PerfReport {
    /// Every scenario and kernel reported byte-identical simulation
    /// statistics under both stepping modes.
    #[must_use]
    pub fn all_identical(&self) -> bool {
        self.step.iter().all(|s| s.stats_identical)
            && self.kernels.iter().all(|k| k.stats_identical && k.verified)
    }

    /// The idle-mesh speedup (serial vs dense), if an `idle` scenario ran.
    #[must_use]
    pub fn idle_speedup(&self) -> Option<f64> {
        self.step.iter().find(|s| s.name.starts_with("idle")).map(StepTiming::speedup)
    }

    /// Writes the `snacknoc-perf-v4` JSON document (v2 added per-row
    /// `flits_per_sec` and the `saturation/32x32` scaling row, DESIGN.md
    /// §16; v3 folded the `active_*` and `event_*` columns into
    /// `serial_*`, DESIGN.md §12; v4 dropped the `shard` array with the
    /// stepping mode it timed). Wall-clock fields are
    /// machine-dependent; the `stats_identical` fields are the
    /// determinism contract.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`, including the final flush.
    pub fn write_json(&self, mut w: impl Write) -> io::Result<()> {
        writeln!(w, "{{")?;
        writeln!(w, "  \"schema\": \"snacknoc-perf-v4\",")?;
        writeln!(w, "  \"host_threads\": {},", host_threads())?;
        writeln!(w, "  \"step\": [")?;
        for (i, s) in self.step.iter().enumerate() {
            let comma = if i + 1 == self.step.len() { "" } else { "," };
            writeln!(
                w,
                "    {{\"name\": \"{}\", \"sim_cycles\": {}, \"injected_packets\": {}, \
                 \"injected_flits\": {}, \
                 \"serial_median_ns\": {}, \"serial_p90_ns\": {}, \
                 \"dense_median_ns\": {}, \"dense_p90_ns\": {}, \
                 \"serial_cycles_per_sec\": {:.1}, \"dense_cycles_per_sec\": {:.1}, \
                 \"flits_per_sec\": {:.1}, \"speedup\": {:.3}, \
                 \"stats_identical\": {}}}{comma}",
                crate::sweep::json_escape(&s.name),
                s.sim_cycles,
                s.injected_packets,
                s.injected_flits,
                s.serial.median_ns,
                s.serial.p90_ns,
                s.dense.median_ns,
                s.dense.p90_ns,
                s.serial_cycles_per_sec(),
                s.dense_cycles_per_sec(),
                s.flits_per_sec(),
                s.speedup(),
                s.stats_identical,
            )?;
        }
        writeln!(w, "  ],")?;
        writeln!(w, "  \"kernels\": [")?;
        for (i, k) in self.kernels.iter().enumerate() {
            let comma = if i + 1 == self.kernels.len() { "" } else { "," };
            writeln!(
                w,
                "    {{\"name\": \"{}\", \"sim_cycles\": {}, \"verified\": {}, \
                 \"serial_median_ns\": {}, \"serial_p90_ns\": {}, \
                 \"dense_median_ns\": {}, \"dense_p90_ns\": {}, \
                 \"speedup\": {:.3}, \"stats_identical\": {}}}{comma}",
                crate::sweep::json_escape(&k.name),
                k.sim_cycles,
                k.verified,
                k.serial.median_ns,
                k.serial.p90_ns,
                k.dense.median_ns,
                k.dense.p90_ns,
                k.speedup(),
                k.stats_identical,
            )?;
        }
        writeln!(w, "  ]")?;
        writeln!(w, "}}")?;
        w.flush()
    }

    /// Prints the human-readable report tables.
    pub fn print_tables(&self) {
        let step_rows: Vec<Vec<String>> = self
            .step
            .iter()
            .map(|s| {
                vec![
                    s.name.clone(),
                    s.sim_cycles.to_string(),
                    format!("{:.2e}", s.dense_cycles_per_sec()),
                    format!("{:.2e}", s.serial_cycles_per_sec()),
                    format!("{:.2e}", s.flits_per_sec()),
                    format!("{:.2}x", s.speedup()),
                    if s.stats_identical { "yes".into() } else { "NO".into() },
                ]
            })
            .collect();
        print_table(
            &[
                "step scenario",
                "cycles",
                "dense cyc/s",
                "serial cyc/s",
                "flits/s",
                "speedup",
                "bit-identical",
            ],
            &step_rows,
        );
        let kernel_rows: Vec<Vec<String>> = self
            .kernels
            .iter()
            .map(|k| {
                vec![
                    k.name.clone(),
                    k.sim_cycles.to_string(),
                    crate::harness::fmt_ns(k.dense.median_ns),
                    crate::harness::fmt_ns(k.serial.median_ns),
                    format!("{:.2}x", k.speedup()),
                    if k.stats_identical && k.verified { "yes".into() } else { "NO".into() },
                ]
            })
            .collect();
        print_table(
            &["kernel", "sim cycles", "dense median", "serial median", "speedup", "bit-identical"],
            &kernel_rows,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snacknoc_workloads::kernels::Kernel;

    /// A writer whose every write and flush fails, like a full disk.
    struct FullDisk;

    impl Write for FullDisk {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("no space left on device"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("no space left on device"))
        }
    }

    #[test]
    fn write_errors_surface_through_a_buffered_writer() {
        // The report fits a `BufWriter`'s 8 KiB buffer, so the failing
        // writer is reached only by the final flush.
        let report = PerfReport { step: Vec::new(), kernels: Vec::new() };
        let mut buf = Vec::new();
        report.write_json(&mut buf).expect("vec write");
        assert!(buf.len() < 8 * 1024);
        assert!(report.write_json(io::BufWriter::new(FullDisk)).is_err());
    }

    #[test]
    fn schedule_is_deterministic_and_respects_rate() {
        let s = StepScenario { name: "low", cols: 4, rows: 4, injection: 0.05, cycles: 500, seed: 3 };
        let cfg = NocConfig::default().with_mesh(s.cols as u16, s.rows as u16);
        let a = build_schedule(&s, &cfg);
        let b = build_schedule(&s, &cfg);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(!a.is_empty());
        // ~0.05 * 16 nodes * 500 cycles = ~400 expected; be generous.
        assert!(a.len() > 100 && a.len() < 1200, "rate plausible: {}", a.len());
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by cycle");
        assert!(a.iter().all(|&(_, src, dst, _)| src != dst && src < 16 && dst < 16));
        let idle =
            StepScenario { name: "idle", cols: 4, rows: 4, injection: 0.0, cycles: 500, seed: 3 };
        assert!(build_schedule(&idle, &cfg).is_empty());
    }

    #[test]
    fn step_scenarios_are_bit_identical_across_modes() {
        for s in smoke_step_scenarios() {
            let small = StepScenario { cols: 4, rows: 4, cycles: 300, ..s };
            let t = time_step_scenario(&small, 1);
            assert!(t.stats_identical, "{}: a stepping mode diverged from dense", t.name);
            if small.injection > 0.0 {
                assert!(t.injected_packets > 0, "{}: schedule injected nothing", t.name);
            }
        }
    }

    #[test]
    fn closed_loop_scenario_is_bit_identical_across_modes() {
        let t = time_closed_loop(30_000, 1);
        assert!(t.stats_identical, "closed-loop: a stepping mode diverged from dense");
        assert!(t.injected_packets > 0, "closed-loop workload injected nothing");
    }

    #[test]
    fn kernel_timing_is_bit_identical_and_verified() {
        let k = time_kernel(Kernel::Mac, 12, 7, 1);
        assert!(k.verified, "outputs match the interpreter");
        assert!(k.stats_identical, "serial vs dense kernel run diverged");
        assert!(k.sim_cycles > 0);
    }

    #[test]
    fn json_schema_has_required_fields() {
        let s = StepScenario { name: "idle", cols: 4, rows: 4, injection: 0.0, cycles: 200, seed: 1 };
        let report = PerfReport { step: vec![time_step_scenario(&s, 1)], kernels: Vec::new() };
        let mut buf = Vec::new();
        report.write_json(&mut buf).expect("vec write");
        let json = String::from_utf8(buf).expect("utf-8");
        for field in [
            "\"schema\": \"snacknoc-perf-v4\"",
            "\"host_threads\"",
            "\"injected_flits\"",
            "\"flits_per_sec\"",
            "\"serial_cycles_per_sec\"",
            "\"dense_cycles_per_sec\"",
            "\"dense_median_ns\"",
            "\"serial_p90_ns\"",
            "\"speedup\"",
            "\"serial_median_ns\"",
            "\"stats_identical\": true",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert!(!json.contains("\"shard"), "v4 has no shard rows: {json}");
        assert!(report.all_identical());
        assert!(report.idle_speedup().is_some());
    }
}
