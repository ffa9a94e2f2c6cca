//! Cross-crate integration tests: compile kernels with the compiler, run
//! them on the full platform, and check results, QoS behaviour and paper
//! headline properties end to end.

use snacknoc::compiler::{build, sim_size, Context, MapperConfig};
use snacknoc::core::cpm::NAMESPACE_SHIFT;
use snacknoc::core::{
    CompiledKernel, CpmState, Fixed, Instruction, Op, Operand, PlatformConfig, ResultDest,
    SnackPlatform,
};
use snacknoc::noc::{FaultPlan, Mesh, NocConfig, NocPreset};
use snacknoc::trace::{EventKind, TracerHandle};
use snacknoc::workloads::kernels::Kernel;
use snacknoc::workloads::suite::{profile, Benchmark};

fn platform(cfg: NocConfig) -> SnackPlatform {
    SnackPlatform::new(cfg).expect("valid platform config")
}

#[test]
fn every_kernel_simulates_bit_exact_on_every_baseline_noc() {
    for preset in NocPreset::ALL {
        let cfg = NocConfig::preset(preset).with_vnets(3);
        for kernel in Kernel::ALL {
            let built = build(kernel, 14, 99);
            let mut p = platform(cfg.clone());
            let compiled = built
                .context
                .compile(built.root, &MapperConfig::for_mesh(p.mesh()))
                .expect("compiles");
            compiled.validate().expect("valid program");
            let run = p
                .run_kernel(&compiled, 1_000_000)
                .unwrap_or_else(|e| panic!("{kernel} on {preset} did not finish: {e}"));
            let reference = built.context.interpret(built.root).expect("interpretable");
            assert_eq!(run.outputs, reference, "{kernel} on {preset} must be bit-exact");
        }
    }
}

#[test]
fn kernels_scale_down_correctly_on_bigger_meshes() {
    // 8x4 mesh (32 RCUs): same kernels, same results, more parallelism.
    let cfg = NocConfig::default().with_mesh(8, 4);
    for kernel in Kernel::ALL {
        let built = build(kernel, 12, 5);
        let mut p = platform(cfg.clone());
        let compiled =
            built.context.compile(built.root, &MapperConfig::for_mesh(p.mesh())).expect("compiles");
        let run = p.run_kernel(&compiled, 1_000_000).expect("finishes");
        let reference = built.context.interpret(built.root).expect("interpretable");
        assert_eq!(run.outputs, reference, "{kernel} on 8x4");
    }
}

#[test]
fn paper_expression_runs_on_the_platform() {
    // D = alpha*A*B + C (paper Fig. 8) across expressions and tokens.
    let mut cxt = Context::new("fig8");
    let a = cxt.input(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3).unwrap();
    let b = cxt.input(&[1.0, 0.5, 0.25, 2.0, 1.0, 0.5], 3, 2).unwrap();
    let c = cxt.input(&[1.0, 1.0, 1.0, 1.0], 2, 2).unwrap();
    let alpha = cxt.scalar(0.5);
    let ab = cxt.mul(a, b).unwrap();
    let sab = cxt.mul(alpha, ab).unwrap();
    let d = cxt.add(sab, c).unwrap();
    let mut p = platform(NocConfig::default());
    let kernel = cxt.compile(d, &MapperConfig::for_mesh(p.mesh())).unwrap();
    let run = p.run_kernel(&kernel, 100_000).expect("finishes");
    assert_eq!(run.outputs, cxt.interpret(d).unwrap());
}

#[test]
fn cpm_is_busy_while_a_kernel_is_resident_and_recovers() {
    let mut p = platform(NocConfig::default());
    let built = build(Kernel::Mac, 64, 1);
    let kernel =
        built.context.compile(built.root, &MapperConfig::for_mesh(p.mesh())).unwrap();
    p.submit_kernel(&kernel).expect("idle cpm accepts");
    assert!(p.submit_kernel(&kernel).is_err(), "busy cpm rejects");
    // Drive to completion, then resubmit.
    for _ in 0..1_000_000 {
        p.step();
        if p.take_kernel_results().is_some() {
            break;
        }
    }
    assert_eq!(p.cpm().state(), CpmState::Idle);
    p.submit_kernel(&kernel).expect("idle again");
}

/// out0 = (1 + 2) * 4 on two RCUs: the producer at (1,1) sends its sum
/// over the ring to the consumer at (2,3).
fn cross_pe_kernel(mesh: &Mesh) -> CompiledKernel {
    let imm = |v| Operand::Imm(Fixed::from_f64(v));
    let instruction = |op, pe, vl, vr, dest, sub_block| Instruction {
        op,
        pe,
        vl,
        vr,
        dest,
        sub_block,
        seq: 0,
        ends_block: true,
    };
    CompiledKernel {
        name: "cross".into(),
        num_outputs: 1,
        irregular_fetch: false,
        instructions: vec![
            instruction(
                Op::Add,
                mesh.node_at(1, 1),
                imm(1.0),
                imm(2.0),
                ResultDest::Token { dep: 0, dependents: 1 },
                0,
            ),
            instruction(
                Op::Mul,
                mesh.node_at(2, 3),
                Operand::Dep(0),
                imm(4.0),
                ResultDest::Output { index: 0 },
                1,
            ),
        ],
    }
}

#[test]
fn every_kernel_attempt_runs_under_a_fresh_namespace() {
    // Two run_kernel calls on one platform, each forced into one
    // quarantined retry: the consumer RCU dies at cycle 1, then the
    // producer dies one cycle after the second call submits. Every
    // attempt must take its own namespace epoch, or a straggler of an
    // abandoned attempt (or of the earlier call) could pass for a live
    // token of the next one.
    let mut p = platform(NocConfig::default());
    p.set_platform_config(PlatformConfig { no_progress_window: 3_000, ..PlatformConfig::default() })
        .expect("valid window");
    p.set_tracer(TracerHandle::ring(1 << 16));
    let mesh = *p.mesh();
    let kernel = cross_pe_kernel(&mesh);
    let consumer_dead = FaultPlan::seeded(13).with_dead_rcu(mesh.node_at(2, 3), 1);
    p.set_fault_plan(consumer_dead.clone()).expect("valid plan");
    let first = p.run_kernel(&kernel, 200_000).expect("the retry remaps off the dead consumer");
    let producer_dies = p.cycle() + 1;
    p.set_fault_plan(consumer_dead.with_dead_rcu(mesh.node_at(1, 1), producer_dies))
        .expect("valid plan");
    let second = p.run_kernel(&kernel, 200_000).expect("the retry remaps off both corpses");
    for run in [&first, &second] {
        assert_eq!(run.outputs, vec![Fixed::from_f64(12.0)]);
        let d = run.degradation.expect("both runs degraded");
        assert!(d.penalty_cycles >= 3_000, "one attempt stalled out its window: {d:?}");
    }
    // The namespaces each submission's instructions were issued under,
    // one list per attempt.
    let tracer = p.take_tracer().take_ring().expect("ring tracer installed");
    let mut attempts: Vec<Vec<u32>> = Vec::new();
    for event in tracer.merged_events() {
        match event.kind {
            EventKind::KernelSubmit { .. } => attempts.push(Vec::new()),
            EventKind::RcuIssue { sub_block, .. } => {
                let ns = sub_block >> NAMESPACE_SHIFT;
                let issued = attempts.last_mut().expect("issued after a submission");
                if !issued.contains(&ns) {
                    issued.push(ns);
                }
            }
            _ => {}
        }
    }
    assert_eq!(
        attempts,
        [[0], [1], [2], [3]],
        "each of the four attempts issues under its own epoch"
    );
}

#[test]
fn interference_is_small_and_arbitration_helps() {
    // The QoS headline (Fig. 12) at test scale: kernel traffic changes a
    // heavy application's runtime by well under 5%, and priority
    // arbitration keeps the impact no worse. The exact values pin the
    // priority-arbitration allocator path, which no other exact check
    // reaches: (benchmark, arbitration, runtime alone, runtime beside the
    // kernel, kernels completed).
    let seed = 77;
    let goldens = [
        (Benchmark::Radix, false, 13_002, 13_096, 2),
        (Benchmark::Radix, true, 13_002, 13_004, 2),
        (Benchmark::Lulesh, false, 22_854, 22_963, 5),
        (Benchmark::Lulesh, true, 22_854, 22_861, 5),
    ];
    for (bench, arb, alone, beside, kernels) in goldens {
        let workload = profile(bench).scaled(0.001);
        let runtime = |with_kernel: bool| {
            let cfg = NocConfig::dapper().with_priority_arbitration(arb);
            let mut p = platform(cfg);
            let built = build(Kernel::Sgemm, 16, seed);
            let kernel =
                built.context.compile(built.root, &MapperConfig::for_mesh(p.mesh())).unwrap();
            p.attach_workload(&workload, seed);
            let run = p.run_multiprogram_capped(with_kernel.then_some(&kernel));
            assert!(run.app_finished, "workload must finish");
            (run.app_runtime, run.kernels_completed)
        };
        let (base, _) = runtime(false);
        let (with_kernel, completed) = runtime(true);
        assert_eq!(
            (base, with_kernel, completed),
            (alone, beside, kernels),
            "{bench:?} with arbitration {arb}"
        );
        let impact = (with_kernel as f64 / base as f64 - 1.0).abs();
        assert!(impact < 0.05, "{bench:?} interference {impact} (arbitration {arb}) must stay small");
    }
}

#[test]
fn snacknoc_outperforms_one_modelled_core_on_sgemm() {
    // The Fig. 9 headline, as a regression bound: SGEMM on SnackNoC beats
    // the single-core CPU model by at least 4x (paper: 6.15x).
    use snacknoc::cpu::{CpuKernel, CpuModel};
    let kernel = Kernel::Sgemm;
    let size = sim_size(kernel);
    let built = build(kernel, size, 42);
    let mut p = platform(NocConfig::default());
    let compiled =
        built.context.compile(built.root, &MapperConfig::for_mesh(p.mesh())).unwrap();
    let run = p.run_kernel(&compiled, 10_000_000).expect("finishes");
    let snack_seconds = run.cycles as f64 / 1e9;
    let cpu = CpuModel::haswell();
    let ops = snacknoc::compiler::op_count(kernel, size);
    let cpu_seconds = cpu.kernel_seconds(CpuKernel::Sgemm, ops, 1);
    let speedup = cpu_seconds / snack_seconds;
    assert!(speedup > 4.0, "SGEMM speedup {speedup:.2} must exceed 4x");
    assert!(speedup < 10.0, "speedup {speedup:.2} suspiciously high");
}

#[test]
fn slack_quartiles_are_ordered_like_the_paper() {
    use snacknoc::workloads::runner::run_benchmark;
    let run = |b: Benchmark, s: f64| {
        run_benchmark(&profile(b).scaled(s), NocConfig::dapper().with_sample_window(1_000), 13)
            .expect("valid config")
    };
    let fmm = run(Benchmark::Fmm, 0.005);
    let lulesh = run(Benchmark::Lulesh, 0.005);
    let graph = run(Benchmark::Graph500, 0.002);
    assert!(fmm.finished && lulesh.finished && graph.finished);
    assert!(fmm.median_crossbar() < 0.03, "FMM is low-utilization");
    assert!(
        lulesh.median_crossbar() > fmm.median_crossbar(),
        "LULESH above FMM"
    );
    assert!(
        graph.peak_crossbar() > 0.15,
        "Graph500 has high-utilization spikes"
    );
}

#[test]
fn overflow_management_engages_under_saturation() {
    // Flood the CMP vnets around the CPM and run a token-heavy kernel: the
    // ALO congestion monitor should trip at least once, and the kernel
    // must still complete correctly (overflowed tokens are replayed).
    let workload = profile(Benchmark::Radix).scaled(0.002);
    let mut p = platform(NocConfig::dapper());
    // A chained expression to force transient tokens through the ring.
    let mut cxt = Context::new("tokens");
    let a = cxt.input(&vec![1.0; 64], 8, 8).unwrap();
    let b = cxt.input(&vec![0.5; 64], 8, 8).unwrap();
    let ab = cxt.mul(a, b).unwrap();
    let two = cxt.scalar(2.0);
    let scaled = cxt.mul(two, ab).unwrap();
    let total = cxt.reduce(scaled).unwrap();
    let kernel = cxt.compile(total, &MapperConfig::for_mesh(p.mesh())).unwrap();
    p.attach_workload(&workload, 3);
    let run = p.run_multiprogram_capped(Some(&kernel));
    assert!(run.app_finished);
    assert!(run.kernels_completed > 0, "kernels complete despite congestion");
}
