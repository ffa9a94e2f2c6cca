//! Cross-crate property-based tests (on the in-repo `snacknoc_prng`
//! harness): the invariants listed in DESIGN.md §5, exercised with
//! randomly generated traffic, graphs and topologies.
//!
//! Each test runs `cases` deterministic cases (at least the 24 the old
//! proptest configuration used); on failure the harness prints the case
//! seed for exact replay via `snacknoc_prng::check::replay`.

use snacknoc::compiler::{Context, MapperConfig, Res};
use snacknoc::core::SnackPlatform;
use snacknoc::noc::{Mesh, Network, NocConfig, NodeId, PacketSpec, Stepping, TrafficClass};
use snacknoc_prng::{prop_check, Rng};

/// Generator: a small mesh with at least one even side (ring exists).
fn mesh_dims(rng: &mut Rng) -> (u16, u16) {
    (rng.range(2..6) as u16, 2 * rng.range(1..4) as u16)
}

/// Every injected packet is delivered exactly once, regardless of traffic
/// pattern, vnet mix, packet sizes and mesh shape.
#[test]
fn flit_conservation() {
    prop_check!(cases = 24, seed = 0x51AC_0001, |rng| {
        let (cols, rows) = mesh_dims(rng);
        let stagger = rng.range(1..5);
        let cfg = NocConfig::default().with_mesh(cols, rows);
        let mut net: Network<usize> = Network::new(cfg).unwrap();
        let n = net.mesh().node_count();
        let mut sent = 0u64;
        for i in 0..rng.range_usize(1..120) {
            let spec = PacketSpec::new(
                NodeId::new(rng.range_usize(0..64) % n),
                NodeId::new(rng.range_usize(0..64) % n),
                rng.range(0..3) as u8,
                TrafficClass::Communication,
                rng.range(1..200) as u32,
                i,
            );
            net.inject(spec).unwrap();
            sent += 1;
            if (i as u64).is_multiple_of(stagger) {
                net.step();
            }
        }
        assert!(net.run_until_drained(2_000_000).is_ok(), "network must drain");
        assert_eq!(net.delivered_packets(), sent);
        let mut got = Vec::new();
        for node in 0..n {
            for p in net.drain_ejected(NodeId::new(node)) {
                assert_eq!(p.dst.index(), node, "delivered at its destination");
                got.push(p.payload);
            }
        }
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len() as u64, sent, "no duplicates");
        assert_eq!(net.buffered_flits(), 0, "no stranded flits");
    });
}

/// The ring route is a Hamiltonian cycle on every mesh with an even side.
#[test]
fn ring_is_hamiltonian() {
    prop_check!(cases = 32, seed = 0x51AC_0002, |rng| {
        let (cols, rows) = mesh_dims(rng);
        let mesh = Mesh::new(cols, rows);
        let ring = mesh.ring().unwrap();
        assert_eq!(ring.len(), mesh.node_count());
        let mut seen = vec![false; mesh.node_count()];
        for n in &ring {
            assert!(!seen[n.index()]);
            seen[n.index()] = true;
        }
        for i in 0..ring.len() {
            let a = ring[i];
            let b = ring[(i + 1) % ring.len()];
            let adjacent = snacknoc::noc::Dir::ROUTER_DIRS
                .iter()
                .any(|&d| mesh.neighbor(a, d) == Some(b));
            assert!(adjacent, "consecutive ring nodes adjacent");
        }
    });
}

/// Compiling and simulating a random dataflow expression produces
/// bit-exactly the interpreter's result — under either mapping strategy
/// (MAC fusion on or off).
#[test]
fn random_expressions_simulate_exactly() {
    prop_check!(cases = 24, seed = 0x51AC_0003, |rng| {
        let (m, k, n) =
            (rng.range_usize(1..4), rng.range_usize(1..4), rng.range_usize(1..4));
        let values: Vec<i32> =
            (0..64).map(|_| rng.range_i64(-64..64) as i32).collect();
        let fusion = rng.flip();
        let v = |i: usize| f64::from(values[i % values.len()]) / 8.0;
        let mut cxt = Context::new("prop");
        let a_data: Vec<f64> = (0..m * k).map(v).collect();
        let b_data: Vec<f64> = (0..k * n).map(|i| v(i + 7)).collect();
        let a = cxt.input(&a_data, m, k).unwrap();
        let b = cxt.input(&b_data, k, n).unwrap();
        let mut root: Res = cxt.mul(a, b).unwrap();
        // Grow a random chain of further array expressions on top.
        for step in 0..rng.range_usize(1..6) {
            let op = rng.range(0..5) as u8;
            let shape = cxt.shape(root).unwrap();
            let extra: Vec<f64> =
                (0..shape.len()).map(|i| v(i + 13 * (step + 1))).collect();
            let e = cxt.input(&extra, shape.rows, shape.cols).unwrap();
            root = match op {
                0 => cxt.add(root, e).unwrap(),
                1 => cxt.sub(root, e).unwrap(),
                2 => cxt.elem_mul(root, e).unwrap(),
                3 => {
                    let s = cxt.scalar(v(step) + 0.5);
                    cxt.mul(s, root).unwrap()
                }
                _ => cxt.reduce(root).unwrap(),
            };
        }
        let mut platform = SnackPlatform::new(NocConfig::default()).unwrap();
        let mapper = MapperConfig::for_mesh(platform.mesh()).with_mac_fusion(fusion);
        let kernel = cxt.compile(root, &mapper).unwrap();
        kernel.validate().unwrap();
        let run = platform
            .run_kernel(&kernel, 5_000_000)
            .expect("kernel must finish");
        let reference = cxt.interpret(root).unwrap();
        assert_eq!(run.outputs, reference);
    });
}

/// The MESI protocol is live: random access patterns always complete,
/// every directory quiesces, and no packets are left in the network.
#[test]
fn coherence_protocol_never_deadlocks() {
    use snacknoc::workloads::coherence::{AccessPattern, CoherentEngine};
    prop_check!(cases = 24, seed = 0x51AC_0004, |rng| {
        let pattern = AccessPattern {
            private_lines: 128,
            shared_lines: rng.range(1..64),
            shared_fraction: rng.unit_f64(),
            write_fraction: rng.unit_f64(),
            think_time: rng.range_f64(1.0..120.0),
            accesses_per_core: 120,
        };
        let engine_seed = rng.range(0..1000);
        let mut net: snacknoc::noc::Network<snacknoc::workloads::coherence::CohMessage> =
            snacknoc::noc::Network::new(NocConfig::dapper()).unwrap();
        let mut eng =
            CoherentEngine::new(pattern, *net.mesh(), Default::default(), engine_seed);
        let nodes: Vec<_> = net.mesh().nodes().collect();
        while !eng.done() && net.cycle() < 5_000_000 {
            for spec in eng.tick(net.cycle()) {
                net.inject(spec).unwrap();
            }
            net.step();
            let now = net.cycle();
            for &node in &nodes {
                for pkt in net.drain_ejected(node) {
                    eng.deliver(now, node, pkt.payload);
                }
            }
        }
        assert!(eng.done(), "protocol must complete all accesses");
        assert_eq!(eng.completed(), 120 * 16);
        // Drain residual acks/writebacks.
        assert!(net.run_until_drained(1_000_000).is_ok());
    });
}

/// Random small sweep grids produce byte-identical deterministic JSON
/// whether they run on one worker or four — the sweep pool's merge order
/// never leaks thread scheduling into the report.
#[test]
fn random_sweeps_are_thread_count_invariant() {
    use snacknoc::noc::NocPreset;
    use snacknoc::workloads::kernels::Kernel;
    use snacknoc::workloads::suite::Benchmark;
    use snacknoc_bench::sweep::{run_sweep, SweepCell, SweepSpec};
    // Light benchmarks only: property cases must stay CI-scale.
    const LIGHT: [Benchmark; 4] =
        [Benchmark::Fmm, Benchmark::Cholesky, Benchmark::Volrend, Benchmark::Barnes];
    prop_check!(cases = 6, seed = 0x51AC_0006, |rng| {
        let n_bench = rng.range_usize(1..3);
        let benchmarks: Vec<Benchmark> =
            (0..n_bench).map(|_| LIGHT[rng.range_usize(0..LIGHT.len())]).collect();
        let presets =
            [NocPreset::ALL[rng.range_usize(0..NocPreset::ALL.len())]];
        let seeds: Vec<u64> = (0..rng.range(1..3)).map(|_| rng.range(0..100)).collect();
        let scale = 0.001 + rng.unit_f64() * 0.002;
        let mut cells: Vec<SweepCell> =
            SweepSpec::grid(&benchmarks, &presets, &seeds, scale).cells;
        if rng.flip() {
            let kernel = Kernel::ALL[rng.range_usize(0..Kernel::ALL.len())];
            let size = rng.range_usize(8..24);
            cells.extend(
                SweepSpec::grid(&[], &presets, &[], scale)
                    .with_kernels(&[kernel], size, &presets, &seeds)
                    .cells,
            );
        }
        let serial = run_sweep(&SweepSpec { cells: cells.clone(), threads: 1, samples: 1 });
        let parallel = run_sweep(&SweepSpec { cells, threads: 4, samples: 1 });
        assert_eq!(
            serial.deterministic_json(),
            parallel.deterministic_json(),
            "sweep merge must not depend on worker scheduling"
        );
    });
}

/// Fault tolerance: any *single transient link fault* — one random link,
/// one bounded window, any kind (down/drop/corrupt) — with recovery
/// enabled completes every paper kernel with outputs bit-identical to the
/// fault-free run, and the watchdog recovers everything it detects.
#[test]
fn single_transient_link_fault_recovers_bit_identically() {
    use snacknoc::compiler::build;
    use snacknoc::core::RecoveryConfig;
    use snacknoc::noc::{Dir, FaultPlan, LinkFaultKind};
    use snacknoc::workloads::kernels::Kernel;
    prop_check!(cases = 12, seed = 0x51AC_0007, |rng| {
        let kernel = Kernel::ALL[rng.range_usize(0..Kernel::ALL.len())];
        let size = rng.range_usize(6..16);
        let input_seed = rng.range(0..1000);
        let built = build(kernel, size, input_seed);

        let compile = |platform: &SnackPlatform| {
            // MAC fusion off: intermediate values travel the transient
            // ring, the fault target.
            let mapper =
                MapperConfig::for_mesh(platform.mesh()).with_mac_fusion(false);
            built.context.compile(built.root, &mapper).unwrap()
        };

        // Fault-free reference run.
        let mut clean = SnackPlatform::new(NocConfig::default()).unwrap();
        let compiled = compile(&clean);
        let clean_run = clean.run_kernel(&compiled, 10_000_000).expect("clean run finishes");

        // One random transient fault on one random (valid) link.
        let mut faulted = SnackPlatform::new(NocConfig::default()).unwrap();
        let mesh = *faulted.mesh();
        let (node, dir) = loop {
            let node = NodeId::new(rng.range_usize(0..mesh.node_count()));
            let dir = Dir::ROUTER_DIRS[rng.range_usize(0..4)];
            if mesh.neighbor(node, dir).is_some() {
                break (node, dir);
            }
        };
        let start = rng.range(0..400);
        let end = start + rng.range(100..1600);
        let kind = match rng.range(0..3) {
            0 => LinkFaultKind::Down,
            1 => LinkFaultKind::Drop { rate: 1.0 },
            _ => LinkFaultKind::Corrupt { rate: 1.0 },
        };
        let plan = FaultPlan::seeded(rng.range(0..1 << 30))
            .with_link_fault(node, dir, start, end, kind);
        faulted.set_fault_plan(plan).unwrap();
        faulted.enable_recovery(RecoveryConfig::aggressive());
        let run = faulted
            .run_kernel(&compiled, 10_000_000)
            .expect("faulted run completes under recovery");

        assert_eq!(
            run.outputs, clean_run.outputs,
            "{kernel}-{size}: outputs must be bit-identical to fault-free \
             ({kind:?} on {node:?}/{dir:?} cycles {start}..{end})"
        );
        let rs = faulted.recovery_stats();
        assert_eq!(
            rs.recovered, rs.detected,
            "every detected loss recovers ({kind:?} on {node:?}/{dir:?})"
        );
    });
}

/// Random fixed-rate fault grids produce byte-identical JSON on 1 and 4
/// workers, and every cell holds the robustness contract (finished cells
/// are verified with `recovered == detected`).
#[test]
fn random_fault_sweeps_are_thread_count_invariant() {
    use snacknoc::workloads::kernels::Kernel;
    use snacknoc_bench::chaos::{run_chaos, CellKind, ChaosSpec};
    prop_check!(cases = 4, seed = 0x51AC_0008, |rng| {
        let kernel = Kernel::ALL[rng.range_usize(0..Kernel::ALL.len())];
        let size = rng.range_usize(6..14);
        let rate = 0.01 + rng.unit_f64() * 0.1;
        let seeds: Vec<u64> = (0..rng.range(1..3)).map(|_| rng.range(0..100)).collect();
        let spec = ChaosSpec::grid(&[kernel], size, &CellKind::fixed_rates(&[rate]), &seeds);
        let serial = run_chaos(&spec);
        let parallel = run_chaos(&spec.clone().with_threads(4));
        assert_eq!(serial.deterministic_json(), parallel.deterministic_json());
        assert!(serial.all_invariants_hold(), "{}", serial.deterministic_json());
    });
}

/// Mapping is deterministic: the same context compiles to the same
/// instruction stream every time.
#[test]
fn mapping_is_deterministic() {
    prop_check!(cases = 32, seed = 0x51AC_0005, |rng| {
        let seedlets: Vec<i32> =
            (0..16).map(|_| rng.range_i64(-16..16) as i32).collect();
        let rows = rng.range_usize(1..4);
        let cols = rng.range_usize(1..4);
        let build = || {
            let mut cxt = Context::new("det");
            let data: Vec<f64> = seedlets.iter().map(|&x| f64::from(x) / 4.0).collect();
            let a = cxt.input(&data[..rows * cols], rows, cols).unwrap();
            let b = cxt.input(&data[..rows * cols], rows, cols).unwrap();
            let s = cxt.add(a, b).unwrap();
            let r = cxt.reduce(s).unwrap();
            cxt.compile(r, &MapperConfig::for_mesh(&Mesh::new(4, 4))).unwrap()
        };
        let k1 = build();
        let k2 = build();
        assert_eq!(k1.instructions, k2.instructions);
    });
}

/// `Trace -> CSV -> Trace` is the identity for arbitrary (valid) traces:
/// the CSV encoding loses nothing, and `Trace::new`'s cycle ordering makes
/// the round trip canonical.
#[test]
fn workload_trace_csv_round_trip_is_identity() {
    use snacknoc::workloads::trace::{Trace, TraceEvent};
    prop_check!(cases = 48, seed = 0x51AC_0008, |rng| {
        let n = rng.range_usize(0..64);
        let events: Vec<TraceEvent> = (0..n)
            .map(|_| TraceEvent {
                cycle: rng.range(0..1_000_000),
                src: rng.range(0..256) as u32,
                dst: rng.range(0..256) as u32,
                vnet: rng.range(0..4) as u8,
                size_bytes: rng.range(1..4096) as u32,
            })
            .collect();
        let trace = Trace::new(events);
        let mut csv = Vec::new();
        trace.to_csv(&mut csv).expect("in-memory write");
        let parsed = Trace::from_csv(csv.as_slice()).expect("own CSV parses");
        assert_eq!(parsed, trace, "round trip must be the identity");
        // And the round trip is a fixed point: re-serialising gives the
        // same bytes.
        let mut csv2 = Vec::new();
        parsed.to_csv(&mut csv2).expect("in-memory write");
        assert_eq!(csv, csv2, "serialisation is byte-stable");
    });
}

/// Activity-driven stepping is bit-identical to dense stepping on *random*
/// workloads: any mesh shape, any vnet mix, any packet sizes, any injection
/// schedule, and an optional random transient link fault. The full
/// network-stats fingerprint (occupancy series, utilizations, latency
/// percentiles, per-class counters) must match — the active-set scheduler
/// may only change *when routers are visited*, never what they compute
/// (DESIGN.md §11).
#[test]
fn random_workloads_step_identically_active_and_dense() {
    use snacknoc::noc::{Dir, FaultPlan, LinkFaultKind};
    use snacknoc_bench::perf::stats_fingerprint;
    prop_check!(cases = 16, seed = 0x51AC_0009, |rng| {
        let (cols, rows) = mesh_dims(rng);
        let cfg = NocConfig::default()
            .with_mesh(cols, rows)
            .with_sample_window(rng.range(50..400));
        let mesh = Mesh::new(cols, rows);
        let n = mesh.node_count();
        let cycles = rng.range(400..1500);

        // Pre-generate the injection schedule so both modes replay the
        // exact same traffic.
        let mut schedule: Vec<(u64, usize, usize, u8, u32)> = (0..rng
            .range_usize(5..80))
            .map(|_| {
                (
                    rng.range(0..cycles / 2),
                    rng.range_usize(0..n),
                    rng.range_usize(0..n),
                    rng.range(0..3) as u8,
                    rng.range(1..120) as u32,
                )
            })
            .collect();
        schedule.sort_unstable();

        // Optionally overlay one random transient link fault: fault
        // windows are wakeup edges for the active-set scheduler, so this
        // probes the scheduling corner dense mode trivially gets right.
        let fault = if rng.flip() {
            let (node, dir) = loop {
                let node = NodeId::new(rng.range_usize(0..n));
                let dir = Dir::ROUTER_DIRS[rng.range_usize(0..4)];
                if mesh.neighbor(node, dir).is_some() {
                    break (node, dir);
                }
            };
            let start = rng.range(0..cycles / 2);
            let end = start + rng.range(20..400);
            let kind = match rng.range(0..2) {
                0 => LinkFaultKind::Down,
                _ => LinkFaultKind::Drop { rate: 0.5 },
            };
            Some((node, dir, start, end, kind, rng.range(0..1 << 30)))
        } else {
            None
        };

        let run_mode = |mode: Stepping| {
            let mut net: Network<usize> = Network::new(cfg.clone().with_stepping(mode)).unwrap();
            if let Some((node, dir, start, end, kind, fseed)) = fault {
                net.set_fault_plan(
                    FaultPlan::seeded(fseed).with_link_fault(node, dir, start, end, kind),
                )
                .unwrap();
            }
            let mut cursor = 0usize;
            let mut drained = Vec::new();
            let mut ejected_log = Vec::new();
            for cycle in 0..cycles {
                while cursor < schedule.len() && schedule[cursor].0 == cycle {
                    let (_, src, dst, vnet, bytes) = schedule[cursor];
                    net.inject(PacketSpec::new(
                        NodeId::new(src),
                        NodeId::new(dst),
                        vnet,
                        TrafficClass::Communication,
                        bytes,
                        cursor,
                    ))
                    .unwrap();
                    cursor += 1;
                }
                net.step();
                for node in 0..n {
                    net.drain_ejected_into(NodeId::new(node), &mut drained);
                    for p in drained.drain(..) {
                        ejected_log.push((cycle, node, p.payload));
                    }
                }
            }
            let injected = net.injected_packets();
            let delivered = net.delivered_packets();
            let pending = net.pending_packets();
            format!(
                "ejections={ejected_log:?} backlog={} {}",
                net.total_ni_backlog(),
                stats_fingerprint(injected, delivered, pending, net.finalize_stats()),
            )
        };
        let active = run_mode(Stepping::Serial);
        let dense = run_mode(Stepping::Dense);
        assert_eq!(
            active, dense,
            "{cols}x{rows} mesh, {} packets, fault={fault:?}: \
             active-set and dense stepping must be bit-identical",
            schedule.len()
        );
    });
}

/// Serial stepping with clock jumps (DESIGN.md §12) is bit-identical to
/// dense stepping on random meshes with random traffic bursts separated
/// by long dead gaps, under random *short-window* fault plans. The idle
/// gaps are where the clock jumps, every fault-window edge is a calendar
/// event a jump must land on, and the fault verdicts are hash-derived per
/// flit — a single missed edge shifts the drop/corrupt schedule and
/// breaks the fingerprint.
#[test]
fn random_short_window_fault_plans_step_identically_event_and_dense() {
    use snacknoc::noc::{Dir, FaultPlan, LinkFaultKind};
    use snacknoc_bench::perf::stats_fingerprint;
    prop_check!(cases = 12, seed = 0x51AC_000A, |rng| {
        let (cols, rows) = mesh_dims(rng);
        let cfg = NocConfig::default()
            .with_mesh(cols, rows)
            .with_sample_window(rng.range(50..400));
        let mesh = Mesh::new(cols, rows);
        let n = mesh.node_count();

        // A few injection bursts separated by dead gaps of up to 8k cycles,
        // then a long idle tail. Each burst: (cycle, [(src, dst, vnet, bytes)]).
        type Burst = (u64, Vec<(usize, usize, u8, u32)>);
        let n_bursts = rng.range_usize(1..4);
        let mut bursts: Vec<Burst> = Vec::new();
        let mut at = 0u64;
        for _ in 0..n_bursts {
            at += rng.range(0..8_000);
            let packets = (0..rng.range_usize(1..20))
                .map(|_| {
                    (
                        rng.range_usize(0..n),
                        rng.range_usize(0..n),
                        rng.range(0..3) as u8,
                        rng.range(1..120) as u32,
                    )
                })
                .collect();
            bursts.push((at, packets));
            at += 1;
        }
        let horizon = at + rng.range(5_000..30_000);

        // Several brief link faults; their window edges land anywhere,
        // including deep inside the idle stretches.
        let mut plan = FaultPlan::seeded(rng.range(0..1 << 30));
        for _ in 0..rng.range_usize(1..5) {
            let (node, dir) = loop {
                let node = NodeId::new(rng.range_usize(0..n));
                let dir = Dir::ROUTER_DIRS[rng.range_usize(0..4)];
                if mesh.neighbor(node, dir).is_some() {
                    break (node, dir);
                }
            };
            let start = rng.range(0..horizon);
            let end = start + rng.range(1..200);
            let kind = match rng.range(0..3) {
                0 => LinkFaultKind::Down,
                1 => LinkFaultKind::Drop { rate: rng.unit_f64() },
                _ => LinkFaultKind::Corrupt { rate: rng.unit_f64() },
            };
            plan = plan.with_link_fault(node, dir, start, end, kind);
        }

        let run_mode = |mode: Stepping| {
            let mut net: Network<usize> = Network::new(cfg.clone().with_stepping(mode)).unwrap();
            net.set_fault_plan(plan.clone()).unwrap();
            let mut tag = 0usize;
            for (cycle, packets) in &bursts {
                net.step_until(*cycle);
                for &(src, dst, vnet, bytes) in packets {
                    net.inject(PacketSpec::new(
                        NodeId::new(src),
                        NodeId::new(dst),
                        vnet,
                        TrafficClass::Communication,
                        bytes,
                        tag,
                    ))
                    .unwrap();
                    tag += 1;
                }
            }
            net.step_until(horizon);
            let mut drained = 0usize;
            for node in 0..n {
                drained += net.drain_ejected(NodeId::new(node)).len();
            }
            format!(
                "drained={drained} {}",
                stats_fingerprint(
                    net.injected_packets(),
                    net.delivered_packets(),
                    net.pending_packets(),
                    net.finalize_stats(),
                ),
            )
        };
        let dense = run_mode(Stepping::Dense);
        assert_eq!(
            run_mode(Stepping::Serial),
            dense,
            "{cols}x{rows} mesh, horizon {horizon}: serial diverged from dense"
        );
    });
}

/// The pooled payload slab (DESIGN.md §16) is invisible to every
/// observable: on random meshes with random multi-flit traffic and random
/// fault plans, both stepping modes (the dense oracle and serial)
/// deliver bit-identical
/// payload contents and per-packet metadata — delivered cycle, hop count,
/// corruption mark — and identical stats. Once the network drains, every
/// slot has been returned to the pool (delivered payloads are moved out,
/// dropped packets' payloads are released), with the same high-water mark
/// and demand-growth count in both modes: slot recycling is
/// deterministic.
#[test]
fn pooled_payloads_are_bit_identical_across_modes_and_leak_free() {
    use snacknoc::noc::{Dir, FaultPlan, LinkFaultKind};
    use snacknoc_bench::perf::stats_fingerprint;
    prop_check!(cases = 10, seed = 0x51AC_000C, |rng| {
        let (cols, rows) = mesh_dims(rng);
        let cfg = NocConfig::default()
            .with_mesh(cols, rows)
            .with_sample_window(rng.range(50..400));
        let mesh = Mesh::new(cols, rows);
        let n = mesh.node_count();

        // Random staggered traffic: (cycle, src, dst, vnet, bytes, tag).
        // Sizes span single-flit packets up to long multi-flit worms so
        // head-only payload refs and reassembly both churn the pool.
        let mut schedule = Vec::new();
        let mut at = 0u64;
        for tag in 0..rng.range_usize(1..40) {
            at += rng.range(0..80);
            schedule.push((
                at,
                rng.range_usize(0..n),
                rng.range_usize(0..n),
                rng.range(0..3) as u8,
                rng.range(1..160) as u32,
                tag,
            ));
        }
        let horizon = at + 1;

        // A few brief link faults so drops and corruption exercise the
        // head-release and tail-drop pool paths, not just delivery.
        let mut plan = FaultPlan::seeded(rng.range(0..1 << 30));
        for _ in 0..rng.range_usize(0..4) {
            let (node, dir) = loop {
                let node = NodeId::new(rng.range_usize(0..n));
                let dir = Dir::ROUTER_DIRS[rng.range_usize(0..4)];
                if mesh.neighbor(node, dir).is_some() {
                    break (node, dir);
                }
            };
            let start = rng.range(0..horizon + 200);
            let end = start + rng.range(1..200);
            let kind = match rng.range(0..3) {
                0 => LinkFaultKind::Down,
                1 => LinkFaultKind::Drop { rate: rng.unit_f64() },
                _ => LinkFaultKind::Corrupt { rate: rng.unit_f64() },
            };
            plan = plan.with_link_fault(node, dir, start, end, kind);
        }

        let run_mode = |mode: Stepping| {
            let mut net: Network<usize> = Network::new(cfg.clone().with_stepping(mode)).unwrap();
            net.set_fault_plan(plan.clone()).unwrap();
            for &(cycle, src, dst, vnet, bytes, tag) in &schedule {
                net.step_until(cycle);
                net.inject(PacketSpec::new(
                    NodeId::new(src),
                    NodeId::new(dst),
                    vnet,
                    TrafficClass::Communication,
                    bytes,
                    tag,
                ))
                .unwrap();
            }
            net.step_until(horizon);
            assert!(
                net.run_until_drained(4_000_000).is_ok(),
                "{cols}x{rows} mesh mode {mode}: network must drain"
            );
            let mut log = Vec::new();
            for node in 0..n {
                for p in net.drain_ejected(NodeId::new(node)) {
                    log.push((node, p.delivered_at, p.hops, p.corrupted, p.payload));
                }
            }
            assert_eq!(
                net.payload_pool_live(),
                0,
                "{cols}x{rows} mesh mode {mode}: drained pool leaked payloads"
            );
            format!(
                "log={log:?} pool={}g{} {}",
                net.payload_pool_high_water(),
                net.payload_pool_growth_events(),
                stats_fingerprint(
                    net.injected_packets(),
                    net.delivered_packets(),
                    net.pending_packets(),
                    net.finalize_stats(),
                ),
            )
        };
        let dense = run_mode(Stepping::Dense);
        assert_eq!(
            run_mode(Stepping::Serial),
            dense,
            "{cols}x{rows} mesh: serial pooled payloads diverged from dense"
        );
    });
}

/// Graceful degradation under *random chaos schedules* (permanent RCU and
/// link deaths mixed with transient drop/corrupt noise, on 1- or 4-CPM
/// platforms) produces the identical verdict in every stepping mode:
/// same outcome (completion, timeout, or typed unrecoverable), same
/// cycle counts, same outputs, a bit-equal [`DegradationReport`], and
/// the same recovery, RCU and network counters. Completed runs must
/// additionally match the fixed-point reference interpreter —
/// remapping and failover may move work, never change it — and every
/// other clause of the checker's robustness contract holds.
#[test]
fn random_chaos_schedules_degrade_identically_in_every_mode() {
    use snacknoc::workloads::kernels::Kernel;
    use snacknoc_bench::chaos::{run_chaos_cell, CellKind, ChaosCell};
    prop_check!(cases = 6, seed = 0x51AC_000B, |rng| {
        let seed = rng.next_u64();
        let kernel = Kernel::ALL[rng.range_usize(0..Kernel::ALL.len())];
        let size = rng.range_usize(6..12);
        let cell = run_chaos_cell(&ChaosCell { kernel, size, seed, kind: CellKind::Random });
        assert!(cell.modes_agree, "{}: stepping modes diverged under chaos: {:?}", cell.name, cell.violations);
        assert!(cell.violations.is_empty(), "{}: {:?}", cell.name, cell.violations);
    });
}

/// Randomized multi-tenant service schedules are stepping-mode invariant:
/// for any tenant mix (class, kernel, arrival process), queue policy and
/// CPM count, the service report's fingerprint — every admission verdict,
/// completion count and latency percentile — is identical between the
/// default serial loop and the dense oracle, and
/// its conservation invariants hold (submitted = admitted + rejected,
/// admitted = completed + aborted + residual).
#[test]
fn service_schedules_are_mode_invariant() {
    use snacknoc::service::{
        run_service, Arrivals, ClassPolicy, QosClass, ServiceSpec, TenantSpec,
    };
    use snacknoc::workloads::kernels::Kernel;

    prop_check!(cases = 12, seed = 0x51AC_0009, |rng| {
        let kernels = [Kernel::Mac, Kernel::Reduction, Kernel::Spmv];
        let n = rng.range_usize(1..5);
        let tenants: Vec<TenantSpec> = (0..n)
            .map(|i| {
                let class = QosClass::ALL[rng.range_usize(0..3)];
                let kernel = kernels[rng.range_usize(0..kernels.len())];
                let size = match kernel {
                    Kernel::Spmv => rng.range_usize(4..8),
                    _ => rng.range_usize(16..56),
                };
                let arrivals = if rng.flip() {
                    Arrivals::Open { mean_gap: rng.range(300..2_500) }
                } else {
                    Arrivals::Closed {
                        think: rng.range(100..1_200),
                        inflight: rng.range(1..3) as u32,
                    }
                };
                TenantSpec::new(format!("t{i}"), class, kernel, size, arrivals)
            })
            .collect();
        let mut spec = ServiceSpec::new(tenants, rng.next_u64());
        spec.cpm_count = rng.range_usize(1..3);
        spec.horizon = rng.range(10_000..30_000);
        spec.drain = 20_000;
        for p in &mut spec.policies {
            *p = ClassPolicy::new(rng.range_usize(1..6), rng.range(512..8_192));
        }

        let reference = run_service(&spec).expect("generated specs are valid");
        assert!(reference.violations.is_empty(), "{:?}", reference.violations);
        for t in &reference.tenants {
            assert_eq!(t.submitted, t.admitted + t.rejected(), "{}", t.name);
            assert_eq!(t.admitted, t.completed + t.aborted + t.residual, "{}", t.name);
        }

        spec.noc.stepping = Stepping::Dense;
        let twin = run_service(&spec).expect("generated specs are valid");
        assert_eq!(
            reference.fingerprint(),
            twin.fingerprint(),
            "serial vs dense diverged for {n} tenants"
        );
    });
}
