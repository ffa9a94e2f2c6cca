//! Ablation report — simulated-cycle comparisons for the design choices
//! DESIGN.md §6 calls out:
//!
//! 1. **MAC fusion** (paper §IV-B1): inner products in one accumulator vs
//!    distributed multiplies + a reduction through ring tokens.
//! 2. **Priority arbitration** (paper §III-D3 / §V-C1): communication
//!    flits beating snack flits at the allocators.
//! 3. **Instruction packing**: 2 instructions per flit (32 B channel) vs 1.
//! 4. **Congestion/overflow threshold** (paper §III-C2) sweep.

use snacknoc_bench::args::CliArgs;
use snacknoc_bench::table::print_table;
use snacknoc_compiler::{build, MapperConfig};
use snacknoc_core::{CpmConfig, DramModel, SnackPlatform};
use snacknoc_noc::NocConfig;
use snacknoc_workloads::kernels::Kernel;
use snacknoc_workloads::suite::{profile, Benchmark};

const USAGE: &str = "usage: ablation_report [--seed N] [--scale F]";

fn main() {
    let args = CliArgs::parse(USAGE, &["seed", "scale"], &[]);
    let seed = args.u64_or("seed", 7);
    let scale = args.f64_or("scale", 0.002);

    println!("Ablation 1: MAC fusion (SGEMM-16, zero-load, cycles lower = better)\n");
    let mut rows = Vec::new();
    for fusion in [true, false] {
        let built = build(Kernel::Sgemm, 16, seed);
        let mut p = SnackPlatform::new(NocConfig::default()).expect("valid");
        let cfg = MapperConfig::for_mesh(p.mesh()).with_mac_fusion(fusion);
        let kernel = built.context.compile(built.root, &cfg).expect("compiles");
        let run = p.run_kernel(&kernel, 10_000_000).expect("finishes");
        let reference = built.context.interpret(built.root).expect("ok");
        assert_eq!(run.outputs, reference, "both mappings bit-exact");
        rows.push(vec![
            if fusion { "fused (paper)" } else { "distributed mul+reduce" }.to_string(),
            format!("{}", kernel.len()),
            format!("{}", run.cycles),
        ]);
    }
    print_table(&["Mapping", "Instructions", "Cycles"], &rows);

    println!("\nAblation 2: priority arbitration under Radix + SGEMM (app slowdown)\n");
    let mut rows = Vec::new();
    for arb in [false, true] {
        let cfg = NocConfig::dapper().with_priority_arbitration(arb);
        let workload = profile(Benchmark::Radix).scaled(scale);
        let base = {
            let mut p = SnackPlatform::new(cfg.clone()).expect("valid");
            p.attach_workload(&workload, seed);
            p.run_multiprogram_capped(None)
        };
        let shared = {
            let built = build(Kernel::Sgemm, 20, seed);
            let mut p = SnackPlatform::new(cfg).expect("valid");
            let k = built
                .context
                .compile(built.root, &MapperConfig::for_mesh(p.mesh()))
                .expect("compiles");
            p.attach_workload(&workload, seed);
            p.run_multiprogram_capped(Some(&k))
        };
        assert!(base.app_finished && shared.app_finished);
        rows.push(vec![
            if arb { "priority arbitration" } else { "round-robin only" }.to_string(),
            format!("{:.3}%", 100.0 * (shared.app_runtime as f64 / base.app_runtime as f64 - 1.0)),
            format!("{}", shared.kernels_completed),
            format!("{:.0}", shared.mean_kernel_cycles),
        ]);
    }
    print_table(&["Allocator", "App impact", "Kernels done", "Mean kernel cycles"], &rows);

    println!("\nAblation 3: instruction packing (Reduction-8192, zero-load)\n");
    let mut rows = Vec::new();
    for pack in [1usize, 2] {
        let built = build(Kernel::Reduction, 8_192, seed);
        let cpm = CpmConfig { instrs_per_packet: pack, ..CpmConfig::default() };
        let mut p =
            SnackPlatform::with_cpm_config(NocConfig::default(), cpm, DramModel::default())
                .expect("valid");
        let k = built
            .context
            .compile(built.root, &MapperConfig::for_mesh(p.mesh()))
            .expect("compiles");
        let run = p.run_kernel(&k, 10_000_000).expect("finishes");
        rows.push(vec![format!("{pack} instr/flit"), format!("{}", run.cycles)]);
    }
    print_table(&["Packing", "Cycles"], &rows);

    println!("\nAblation 4: overflow threshold sweep (Radix + token-heavy kernel)\n");
    let mut rows = Vec::new();
    for enter in [0.0f64, 0.25, 0.5, 0.9] {
        let cpm = CpmConfig {
            overflow_enter_below: enter,
            overflow_exit_above: (enter * 1.1).clamp(0.1, 0.99),
            ..CpmConfig::default()
        };
        let workload = profile(Benchmark::Radix).scaled(scale);
        // A chained expression so intermediate tokens circulate the ring
        // (and pass through the CPM node, where overflow absorbs them).
        let kernel = {
            let mut cxt = snacknoc_compiler::Context::new("token-heavy");
            let a = cxt.input(&vec![0.5; 144], 12, 12).expect("input");
            let b = cxt.input(&vec![0.25; 144], 12, 12).expect("input");
            let ab = cxt.mul(a, b).expect("mul");
            let two = cxt.scalar(2.0);
            let scaled_ab = cxt.mul(two, ab).expect("scale");
            let root = cxt.reduce(scaled_ab).expect("reduce");
            (cxt.clone(), root)
        };
        let mut p =
            SnackPlatform::with_cpm_config(NocConfig::dapper(), cpm, DramModel::default())
                .expect("valid");
        let k = kernel
            .0
            .compile(kernel.1, &MapperConfig::for_mesh(p.mesh()))
            .expect("compiles");
        p.attach_workload(&workload, seed);
        let run = p.run_multiprogram_capped(Some(&k));
        rows.push(vec![
            format!("enter < {enter:.2}"),
            format!("{}", run.app_runtime),
            format!("{}", run.kernels_completed),
            format!("{}", p.cpm().stats.overflow_cycles),
            format!("{}", p.cpm().stats.tokens_absorbed),
        ]);
    }
    print_table(
        &["Threshold", "App runtime", "Kernels", "Overflow cycles", "Tokens absorbed"],
        &rows,
    );
}
