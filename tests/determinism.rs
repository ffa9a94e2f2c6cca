//! Whole-stack determinism: identical seeds must reproduce identical
//! simulations bit-for-bit, across every subsystem at once. This guards
//! the common-random-numbers machinery the experiments rely on (any
//! accidental dependence on iteration order or ambient randomness breaks
//! the paper comparisons silently).

use snacknoc::compiler::{build, MapperConfig};
use snacknoc::core::SnackPlatform;
use snacknoc::noc::{NocConfig, NocPreset, Stepping, TrafficClass};
use snacknoc::workloads::kernels::Kernel;
use snacknoc::workloads::suite::{profile, Benchmark};
use snacknoc_bench::chaos::{run_chaos, CellKind, ChaosSpec};
use snacknoc_bench::sweep::{run_sweep, SweepSpec};

/// A fingerprint of a multi-program run that any nondeterminism would
/// perturb, under stepping mode `stepping`: dense (the reference loop,
/// DESIGN.md §11) or serial (active sets plus clock jumps, the default,
/// DESIGN.md §12). Both modes must be bit-identical.
fn fingerprint_stepping(seed: u64, stepping: Stepping) -> (u64, u64, f64, u64, u64) {
    let mut p = SnackPlatform::new(
        NocConfig::dapper()
            .with_priority_arbitration(true)
            .with_sample_window(500)
            .with_stepping(stepping),
    )
    .expect("valid platform");
    let built = build(Kernel::Spmv, 48, seed);
    let kernel = built
        .context
        .compile(built.root, &MapperConfig::for_mesh(p.mesh()))
        .expect("compiles");
    p.attach_workload(&profile(Benchmark::Graph500).scaled(0.0008), seed);
    let run = p.run_multiprogram_capped(Some(&kernel));
    assert!(run.app_finished);
    let comm = run.stats.class(TrafficClass::Communication);
    (
        run.app_runtime,
        run.kernels_completed,
        run.stats.median_crossbar_utilization(),
        comm.latency_sum,
        p.rcu_stats().executed,
    )
}

/// Default-mode fingerprint (serial stepping).
fn fingerprint(seed: u64) -> (u64, u64, f64, u64, u64) {
    fingerprint_stepping(seed, Stepping::Serial)
}

#[test]
fn multiprogram_runs_are_bit_reproducible() {
    let a = fingerprint(41);
    let b = fingerprint(41);
    assert_eq!(a, b, "same seed, same universe");
    let c = fingerprint(42);
    assert_ne!(a, c, "different seeds diverge");
}

/// The parallel sweep pool is a pure wall-clock optimization: the merged
/// simulation report is byte-identical whether one worker runs every cell
/// or four workers race for them (and whether a cell is repeated for
/// wall-clock sampling).
#[test]
fn sweep_reports_are_thread_count_invariant() {
    let cells = SweepSpec::grid(
        &[Benchmark::Fmm, Benchmark::WaterSpatial],
        &[NocPreset::Dapper, NocPreset::BiNoChs],
        &[11, 12],
        0.003,
    )
    .with_kernels(&[Kernel::Reduction, Kernel::Mac], 24, &[NocPreset::AxNoc], &[11])
    .cells;
    let serial = run_sweep(
        &SweepSpec { cells: cells.clone(), threads: 1, samples: 1 },
    );
    let parallel = run_sweep(
        &SweepSpec { cells: cells.clone(), threads: 4, samples: 2 },
    );
    assert_eq!(
        serial.deterministic_json(),
        parallel.deterministic_json(),
        "threads=1 and threads=4 must merge to identical bytes"
    );
    assert_eq!(serial.cells.len(), cells.len());
    assert!(serial.cells.iter().all(|c| c.finished), "every cell completes");
    // Pool accounting is consistent with the per-cell timings: every
    // cell ran, and busy time covers every timed repetition.
    assert_eq!(parallel.cells.len(), cells.len());
    assert_eq!(parallel.pool.workers, 4);
    assert!(
        parallel.pool.busy_ns
            >= parallel.cells.iter().map(|c| c.wall.min_ns * u64::from(c.wall.samples)).sum::<u64>()
    );
}

/// The fixed-rate fault grid is deterministic under the same worker pool:
/// fault plans are seeded per cell, so the injected drop/corrupt schedule —
/// and every downstream detection/recovery counter — must be byte-identical
/// whether one worker runs the grid or four workers race for it.
#[test]
fn fault_sweep_reports_are_thread_count_invariant() {
    let spec = ChaosSpec::grid(
        &[Kernel::Mac, Kernel::Reduction],
        8,
        &CellKind::fixed_rates(&[0.05]),
        &[1, 2],
    );
    let serial = run_chaos(&spec.clone().with_threads(1));
    let parallel = run_chaos(&spec.with_threads(4));
    assert_eq!(
        serial.deterministic_json(),
        parallel.deterministic_json(),
        "threads=1 and threads=4 fault sweeps must merge to identical bytes"
    );
    assert!(serial.all_invariants_hold(), "every cell verified, recovered == detected");
    assert!(
        serial.cells.iter().any(|c| c.detected > 0),
        "the faulty scenarios actually exercised recovery"
    );
    for clean in serial.cells.iter().filter(|c| c.name.contains("/clean/")) {
        assert!(clean.verified && clean.injected == 0, "{}: clean cells inject nothing", clean.name);
    }
}

#[test]
fn kernel_results_do_not_depend_on_interference() {
    // QoS may change *when* a kernel finishes, never *what* it computes.
    let built = build(Kernel::Sgemm, 16, 7);
    let reference = built.context.interpret(built.root).expect("interpretable");
    for (arb, attach) in [(false, false), (true, false), (false, true), (true, true)] {
        let mut p = SnackPlatform::new(NocConfig::dapper().with_priority_arbitration(arb))
            .expect("valid platform");
        let kernel = built
            .context
            .compile(built.root, &MapperConfig::for_mesh(p.mesh()))
            .expect("compiles");
        if attach {
            p.attach_workload(&profile(Benchmark::Radix).scaled(0.0005), 3);
            p.run(1_000);
        }
        let run = p.run_kernel(&kernel, 10_000_000).expect("finishes");
        assert_eq!(run.outputs, reference, "arb={arb} attach={attach}");
    }
}

/// Tracing determinism, part 1: the default `TracerHandle::Nop` is exactly free.
/// A run with an explicitly installed `Nop` handle must be bit-identical
/// to the untraced fingerprint above — same cycles, same stats, same
/// medians.
#[test]
fn nop_traced_multiprogram_is_bit_identical_to_untraced() {
    use snacknoc::trace::TracerHandle;
    let untraced = fingerprint(41);
    let traced = {
        let mut p = SnackPlatform::new(
            NocConfig::dapper().with_priority_arbitration(true).with_sample_window(500),
        )
        .expect("valid platform");
        p.set_tracer(TracerHandle::Nop);
        let built = build(Kernel::Spmv, 48, 41);
        let kernel = built
            .context
            .compile(built.root, &MapperConfig::for_mesh(p.mesh()))
            .expect("compiles");
        p.attach_workload(&profile(Benchmark::Graph500).scaled(0.0008), 41);
        let run = p.run_multiprogram_capped(Some(&kernel));
        assert!(run.app_finished);
        let comm = run.stats.class(TrafficClass::Communication);
        (
            run.app_runtime,
            run.kernels_completed,
            run.stats.median_crossbar_utilization(),
            comm.latency_sum,
            p.rcu_stats().executed,
        )
    };
    assert_eq!(untraced, traced, "a Nop tracer must not perturb a single cycle");
}

/// Tracing determinism, part 2: a `RingTracer` observes without
/// perturbing, and the exported event stream is byte-identical across
/// reruns of the same seed and across 1-vs-4 worker pools running the
/// same traced jobs.
#[test]
fn ring_trace_exports_are_byte_identical_across_reruns_and_workers() {
    use snacknoc_bench::sweep::parallel_map;
    use snacknoc_bench::tracing::run_traced_kernel;

    let traced_json = |kernel: Kernel, seed: u64| {
        let run = run_traced_kernel(kernel, 10, NocConfig::default(), seed, 1 << 16);
        assert!(run.verified, "{kernel} traced run verifies");
        run.chrome_json()
    };

    // Rerun of the same seed: identical bytes.
    assert_eq!(
        traced_json(Kernel::Spmv, 5),
        traced_json(Kernel::Spmv, 5),
        "same seed, same event stream"
    );

    // 1-vs-4 workers over a small traced-job grid: the merged artifact
    // list is byte-identical (each job owns its tracer, so worker count
    // is a pure wall-clock knob).
    let grid: Vec<(Kernel, u64)> = Kernel::ALL
        .into_iter()
        .flat_map(|k| [(k, 3u64), (k, 4u64)])
        .collect();
    let serial = parallel_map(grid.len(), 1, |i| traced_json(grid[i].0, grid[i].1));
    let parallel = parallel_map(grid.len(), 4, |i| traced_json(grid[i].0, grid[i].1));
    assert_eq!(serial, parallel, "1-vs-4 workers must produce identical traces");
}

/// Tracing determinism, part 3: observing a kernel with a `RingTracer`
/// leaves its timing and outputs identical to the untraced run (the
/// tracer is a pure observer, not a participant).
#[test]
fn ring_traced_kernel_matches_untraced_kernel() {
    use snacknoc_bench::experiments::run_snack_kernel;
    use snacknoc_bench::tracing::run_traced_kernel;
    for kernel in Kernel::ALL {
        let plain = run_snack_kernel(kernel, 10, NocConfig::default(), 7);
        let traced = run_traced_kernel(kernel, 10, NocConfig::default(), 7, 1 << 16);
        assert_eq!(plain.cycles, traced.cycles, "{kernel}: timing unchanged");
        assert_eq!(plain.verified, traced.verified);
        let cp = traced.critical_path.expect("bracket captured");
        assert_eq!(cp.attributed_total(), cp.total(), "{kernel}: tiling exact");
        assert_eq!(cp.total(), traced.cycles, "{kernel}: bracket spans latency");
    }
}

/// Active-set scheduling, part 1: serial stepping (the default: active
/// sets plus clock jumps) is a pure wall-clock optimization. A full
/// multi-program run — kernel + background workload + priority
/// arbitration — produces a bit-identical fingerprint under dense
/// stepping, which visits every router, NI and RCU each cycle and
/// never jumps (DESIGN.md §11–§12).
#[test]
fn active_set_multiprogram_is_bit_identical_to_dense() {
    for seed in [41, 42, 1009] {
        let dense = fingerprint_stepping(seed, Stepping::Dense);
        assert_eq!(
            fingerprint_stepping(seed, Stepping::Serial),
            dense,
            "seed {seed}: serial stepping must match dense stepping bit-for-bit"
        );
    }
}

/// Active-set scheduling, part 2: bit-identity holds *under a fault plan*
/// — link faults perturb the wakeup edges (drops synthesize credits,
/// downed links park flits) and RCU stall windows force the platform's
/// dense-RCU fallback, so this pins exactly the hairiest scheduling
/// corners. Outputs, cycle count, RCU counters, recovery counters and the
/// full network-stats fingerprint must all match.
#[test]
fn active_set_matches_dense_under_fault_plan() {
    use snacknoc::core::RecoveryConfig;
    use snacknoc::noc::{Dir, FaultPlan, LinkFaultKind, NodeId};
    use snacknoc_bench::perf::stats_fingerprint;

    let built = build(Kernel::Reduction, 48, 9);
    let run_mode = |mode: Stepping| {
        let mut p =
            SnackPlatform::new(NocConfig::default().with_stepping(mode)).expect("valid platform");
        // MAC fusion off: intermediate values travel the transient ring,
        // which the fault plan targets.
        let mapper = MapperConfig::for_mesh(p.mesh()).with_mac_fusion(false);
        let kernel =
            built.context.compile(built.root, &mapper).expect("compiles");
        let plan = FaultPlan::seeded(0xFA57_0001)
            .with_link_fault(NodeId::new(5), Dir::East, 50, 700, LinkFaultKind::Down)
            .with_link_fault(
                NodeId::new(9),
                Dir::North,
                200,
                900,
                LinkFaultKind::Drop { rate: 1.0 },
            )
            .with_rcu_stall(NodeId::new(3), 100, 400);
        p.set_fault_plan(plan).expect("valid fault plan");
        p.enable_recovery(RecoveryConfig::aggressive());
        let run = p.run_kernel(&kernel, 10_000_000).expect("finishes under recovery");
        let rcu = p.rcu_stats();
        let rec = p.recovery_stats();
        let injected = p.net_injected_packets();
        let delivered = p.net_delivered_packets();
        format!(
            "cycles={} outputs={:?} rcu={}/{}/{} recovery={}/{} {}",
            run.cycles,
            run.outputs,
            rcu.executed,
            rcu.captures,
            rcu.stalled_cycles,
            rec.detected,
            rec.recovered,
            stats_fingerprint(injected, delivered, 0, p.finalize_stats()),
        )
    };
    let [dense, serial] = Stepping::ALL.map(run_mode);
    assert_eq!(serial, dense, "serial faulted kernel run must be bit-identical to dense");
    assert!(dense.contains("rcu="), "fingerprint is non-trivial");
}

/// Event-driven RCUs (DESIGN.md §11): on the configuration of
/// `snack_bench`'s kernel-faults workload — BiNoCHS, MAC fusion off, 1%
/// token drops, aggressive recovery — a stalled RCU parks until a
/// capture, an instruction or an abort wakes it, and owes its stalls
/// lazily. The plan has no RCU stall window, so serial stepping takes
/// the parking path while dense ticks every RCU every cycle. Driven by
/// `step_or_jump` to fixed checkpoints, both must
/// read the same `rcu_stats()` at each checkpoint and at the end, and
/// finish with the same cycles, outputs, recovery counters and network
/// statistics.
#[test]
fn parked_rcus_match_dense_under_token_drops() {
    use snacknoc::core::RecoveryConfig;
    use snacknoc::noc::FaultPlan;
    use snacknoc_bench::perf::stats_fingerprint;
    use std::fmt::Write;

    let built = build(Kernel::Sgemm, 8, 3);
    let run_mode = |mode: Stepping| {
        let mut p = SnackPlatform::new(NocConfig::preset(NocPreset::BiNoChs).with_stepping(mode))
            .expect("valid platform");
        let mapper = MapperConfig::for_mesh(p.mesh()).with_mac_fusion(false);
        let kernel = built.context.compile(built.root, &mapper).expect("compiles");
        p.set_fault_plan(FaultPlan::seeded(0x9A4C_0001).with_drop_rate(0.01))
            .expect("valid fault plan");
        p.enable_recovery(RecoveryConfig::aggressive());
        p.submit_kernel(&kernel).expect("idle CPM accepts");
        let mut readings = String::new();
        let mut run = None;
        for checkpoint in [200, 700, 1_500, 2_500, 1_000_000] {
            while run.is_none() && p.cycle() < checkpoint {
                p.step_or_jump(checkpoint);
                run = p.take_kernel_results();
            }
            let s = p.rcu_stats();
            write!(readings, "@{}={}/{}/{} ", p.cycle(), s.executed, s.captures, s.stalled_cycles)
                .expect("write to String");
        }
        let run = run.expect("the kernel finishes under recovery");
        let rec = p.recovery_stats();
        let injected = p.net_injected_packets();
        let delivered = p.net_delivered_packets();
        format!(
            "cycles={} outputs={:?} rcu {readings}recovery={}/{}/{} dropped={} {}",
            run.cycles,
            run.outputs,
            rec.detected,
            rec.recovered,
            rec.retries,
            p.fault_counters().dropped_packets,
            stats_fingerprint(injected, delivered, 0, p.finalize_stats()),
        )
    };
    let [dense, serial] = Stepping::ALL.map(run_mode);
    assert_eq!(serial, dense, "serial RCU stalls must match dense under token drops");
    assert!(!dense.contains(" dropped=0 "), "the plan dropped tokens: {dense}");
}

/// Graceful degradation, part 1: a kernel that must *remap* (an RCU dies
/// under it mid-run) and *fail over* (its home-CPM corner is dead at
/// submission) completes bit-identically in both stepping modes —
/// including the degradation report itself.
/// This pins the hairiest new scheduling corners: the abort/quarantine
/// path, the namespace-epoch bump, and the escalation deadline (which
/// clock jumps must land on exactly).
#[test]
fn remap_and_failover_are_bit_identical_across_modes() {
    use snacknoc::core::{PlatformConfig, RecoveryConfig};
    use snacknoc::noc::FaultPlan;
    use snacknoc_bench::perf::stats_fingerprint;

    let built = build(Kernel::Reduction, 48, 9);
    let run_with = |mode: Stepping| {
        let mut p = SnackPlatform::with_cpm_count(NocConfig::default().with_stepping(mode), 4)
            .expect("valid platform");
        let mapper = MapperConfig::for_mesh(p.mesh()).with_mac_fusion(false);
        let kernel = built.context.compile(built.root, &mapper).expect("compiles");
        let home = p.cpm_at(0).node();
        let victim = p.mesh().node_at(1, 1);
        // Home corner dead at submission (failover) + a mid-run RCU death
        // (stall, quarantine, remapped retry).
        let plan = FaultPlan::seeded(0xDEAD_0001)
            .with_dead_rcu(home, 0)
            .with_dead_rcu(victim, 1);
        p.set_fault_plan(plan).expect("valid fault plan");
        p.enable_recovery(RecoveryConfig::aggressive());
        p.set_platform_config(PlatformConfig {
            no_progress_window: 4_096,
            ..PlatformConfig::default()
        })
        .expect("valid window");
        let run = p.run_kernel(&kernel, 10_000_000).expect("degrades gracefully");
        let d = run.degradation.expect("degraded run reports");
        assert_eq!(d.failovers, 1, "home corner moved to a standby");
        assert!(d.remaps >= 1, "the dead RCU forced a remap");
        let rcu = p.rcu_stats();
        let rec = p.recovery_stats();
        let injected = p.net_injected_packets();
        let delivered = p.net_delivered_packets();
        format!(
            "cycles={} outputs={:?} report={:?} rcu={}/{}/{} recovery={}/{} {}",
            run.cycles,
            run.outputs,
            d,
            rcu.executed,
            rcu.captures,
            rcu.stalled_cycles,
            rec.detected,
            rec.recovered,
            stats_fingerprint(injected, delivered, 0, p.finalize_stats()),
        )
    };
    assert_eq!(
        run_with(Stepping::Serial),
        run_with(Stepping::Dense),
        "serial remap/failover run must be bit-identical to dense"
    );
}

/// Worklists wider than one 64-bit word (DESIGN.md §11): a bare 12×9
/// network (108 routers, 390 links) under near-saturated random traffic,
/// with one link-down window and one drop window, steps identically
/// dense and serial. The router and NI sets span two words and the link
/// set seven. Serial stepping runs twice: once advancing in `step_until`
/// segments, which jump where they can, and once by per-cycle `step`.
#[test]
fn multi_word_worklists_step_identically_in_every_mode() {
    use snacknoc::noc::{
        Dir, FaultPlan, FaultTargets, LinkFaultKind, Network, NodeId, PacketSpec,
    };
    use snacknoc::prng::Rng;
    use snacknoc_bench::perf::stats_fingerprint;

    const SEGMENT: u64 = 16;
    const TRAFFIC_CYCLES: u64 = 1_200;
    let run = |stepping: Stepping, per_cycle: bool| {
        let cfg = NocConfig::default()
            .with_mesh(12, 9)
            .with_sample_window(200)
            .with_stepping(stepping);
        let mut net: Network<u64> = Network::new(cfg).expect("valid 12x9 config");
        let every_class = FaultTargets { data: true, instructions: true, communication: true };
        let plan = FaultPlan::seeded(0x51AC_1209)
            .with_targets(every_class)
            .with_link_fault(NodeId::new(41), Dir::East, 150, 500, LinkFaultKind::Down)
            .with_link_fault(NodeId::new(78), Dir::North, 300, 800, LinkFaultKind::Drop {
                rate: 0.5,
            });
        net.set_fault_plan(plan).expect("valid fault plan");
        let nodes = net.mesh().node_count();
        let mut rng = Rng::new(0x51AC_1209);
        let mut log = Vec::new();
        let advance = |net: &mut Network<u64>, log: &mut Vec<(u64, usize, u64, u32)>| {
            let target = net.cycle() + SEGMENT;
            if per_cycle {
                while net.cycle() < target {
                    net.step();
                }
            } else {
                net.step_until(target);
            }
            for node in 0..nodes {
                for p in net.drain_ejected(NodeId::new(node)) {
                    log.push((p.id, node, p.delivered_at, p.hops));
                }
            }
        };
        while net.cycle() < TRAFFIC_CYCLES {
            // 0.14 packets of 1-4 flits per node per cycle: about 0.35
            // flits, near the mesh's uniform-traffic saturation rate.
            for _ in 0..nodes * SEGMENT as usize * 14 / 100 {
                let src = NodeId::new(rng.range_usize(0..nodes));
                let dst = NodeId::new(rng.range_usize(0..nodes));
                let vnet = rng.range(0..3) as u8;
                let bytes = 32 * (1 + rng.range(0..4) as u32);
                let tag = rng.next_u64();
                let spec = PacketSpec::new(src, dst, vnet, TrafficClass::Communication, bytes, tag);
                net.inject(spec).expect("valid packet");
            }
            advance(&mut net, &mut log);
        }
        while net.pending_packets() > 0 {
            assert!(net.cycle() < 200_000, "{stepping} failed to drain: {}", net.stall_report());
            advance(&mut net, &mut log);
        }
        assert_eq!(net.payload_pool_live(), 0, "{stepping} leaked pooled payloads");
        let (injected, delivered) = (net.injected_packets(), net.delivered_packets());
        let lost = net.lost_packets();
        let faults = net.fault_counters();
        let fingerprint = stats_fingerprint(injected, delivered, 0, net.finalize_stats());
        (fingerprint, log, lost, faults)
    };
    let dense = run(Stepping::Dense, false);
    assert!(dense.2 > 0 && dense.3.dropped_flits > 0, "the drop window fired");
    assert!(dense.1.len() > 10_000, "traffic was heavy: {} deliveries", dense.1.len());
    for per_cycle in [false, true] {
        let other = run(Stepping::Serial, per_cycle);
        let driver = if per_cycle { "step" } else { "step_until" };
        assert_eq!(other.0, dense.0, "serial {driver} statistics diverged from dense");
        assert!(other.1 == dense.1, "serial {driver} delivery log diverged from dense");
        assert_eq!(other.2, dense.2, "serial {driver} lost packets diverged from dense");
        assert_eq!(other.3, dense.3, "serial {driver} fault counters diverged from dense");
    }
}

/// Graceful degradation, part 2: the chaos grid — randomized permanent +
/// transient schedules, each cell already spanning both stepping modes
/// internally — merges to identical bytes on 1 and 4 workers, with every
/// invariant intact.
#[test]
fn chaos_grid_reports_are_worker_count_invariant() {
    let spec = ChaosSpec::grid(&[Kernel::Mac, Kernel::Reduction], 8, &[CellKind::Random], &[1, 2, 3]);
    let serial = run_chaos(&spec.clone().with_threads(1));
    let parallel = run_chaos(&spec.with_threads(4));
    assert_eq!(
        serial.deterministic_json(),
        parallel.deterministic_json(),
        "threads=1 and threads=4 chaos grids must merge to identical bytes"
    );
    assert!(
        serial.all_invariants_hold(),
        "chaos invariants: {}",
        serial.deterministic_json()
    );
    assert!(
        serial.cells.iter().all(|c| c.modes_agree),
        "every cell is bit-identical across the modes"
    );
}

/// Active-set scheduling, part 3: mode choice composes with the worker
/// pool. A grid of {dense, serial} x seeds fingerprinted on 1 worker and
/// on 4 workers merges to the same bytes, and within the merged vector
/// the modes agree per seed.
#[test]
fn active_vs_dense_fingerprints_are_worker_count_invariant() {
    use snacknoc_bench::sweep::parallel_map;
    let grid: Vec<(u64, Stepping)> =
        [7u64, 8, 9].iter().flat_map(|&s| Stepping::ALL.map(|m| (s, m))).collect();
    let job = |i: usize| {
        let (seed, mode) = grid[i];
        format!("{:?}", fingerprint_stepping(seed, mode))
    };
    let serial = parallel_map(grid.len(), 1, job);
    let parallel = parallel_map(grid.len(), 4, job);
    assert_eq!(serial, parallel, "1-vs-4 workers must merge identically");
    for modes in serial.chunks(Stepping::ALL.len()) {
        assert!(modes.iter().all(|fp| *fp == modes[0]), "the modes agree per seed: {modes:?}");
    }
}

/// The multi-tenant service loop composes with every stepping mode: a
/// fixed service schedule (the SLO-sweep preset at two load levels, plus
/// the fault-tolerant decentralized preset) produces a bit-identical
/// report — every admission verdict, dispatch, completion cycle and
/// latency percentile — in both modes, whether the grid runs on one
/// sweep worker or four. Clock jumps are capped at the next
/// service event (pending arrival, abort deadline), which is exactly the
/// property this matrix proves.
#[test]
fn service_reports_are_mode_and_worker_count_invariant() {
    use snacknoc::service::{decentralized_cpm, run_service, slo_sweep};
    use snacknoc_bench::sweep::parallel_map;

    let specs = [slo_sweep(70, 41), slo_sweep(170, 41), decentralized_cpm(3, 42)];
    let grid: Vec<(usize, Stepping)> =
        (0..specs.len()).flat_map(|s| Stepping::ALL.map(|m| (s, m))).collect();
    let job = |i: usize| {
        let (s, mode) = grid[i];
        let mut spec = specs[s].clone();
        spec.noc.stepping = mode;
        let report = run_service(&spec).expect("preset specs are valid");
        assert!(report.violations.is_empty(), "{mode}: {:?}", report.violations);
        report.fingerprint()
    };
    let serial = parallel_map(grid.len(), 1, job);
    let parallel = parallel_map(grid.len(), 4, job);
    assert_eq!(serial, parallel, "1-vs-4 workers must merge identically");
    for (s, modes) in serial.chunks(Stepping::ALL.len()).enumerate() {
        for (m, fp) in modes.iter().enumerate() {
            assert_eq!(
                *fp,
                modes[0],
                "service spec {s}: {} diverged from dense",
                Stepping::ALL[m]
            );
        }
    }
}

/// The service grid driver itself (what `snack-service` ships as
/// `BENCH_service.json`) is byte-identical across sweep-worker counts.
#[test]
fn service_grid_json_is_worker_count_invariant() {
    use snacknoc_bench::service::{run_service_grid, ServiceGridSpec};
    let serial = run_service_grid(&ServiceGridSpec::new(&[80, 160], 19).with_threads(1));
    let parallel = run_service_grid(&ServiceGridSpec::new(&[80, 160], 19).with_threads(4));
    assert_eq!(
        serial.deterministic_json(),
        parallel.deterministic_json(),
        "threads=1 and threads=4 service grids must merge to identical bytes"
    );
    assert!(serial.all_invariants_hold(), "\n{}", serial.deterministic_json());
}
