//! Fig. 12 — runtime impact of running SnackNoC kernels on CMP
//! multi-threaded application runtime.
//!
//! For each of the 16 benchmarks, runs the application alone on the
//! platform, then concurrently with each of the four kernels
//! (continually resubmitted), with and without communication-priority
//! arbitration. Reports the runtime impact percentage — the paper finds
//! it below ~1.1% everywhere, reduced to at most 0.83% by priority
//! arbitration.
//!
//! Arguments: `--scale <f>` (default 0.004), `--seed <n>`,
//! `--kernel-size <n>` (0 = per-kernel default).
//!
//! Priority arbitration is also exercised as a live *service policy* —
//! kernels served to QoS-classed tenants concurrently with the CMP
//! application — via the `snacknoc_service::fig12_qos` preset (see the
//! `snack-service` binary and DESIGN.md §15).

use snacknoc_bench::args::CliArgs;
use snacknoc_bench::table::print_table;
use snacknoc_compiler::{build, MapperConfig};
use snacknoc_core::{CompiledKernel, SnackPlatform};
use snacknoc_noc::NocConfig;
use snacknoc_workloads::kernels::Kernel;
use snacknoc_workloads::suite::{profile, Benchmark};

fn kernel_for(mesh_cfg: &NocConfig, kernel: Kernel, size: usize, seed: u64) -> CompiledKernel {
    let built = build(kernel, size, seed);
    let platform = SnackPlatform::new(mesh_cfg.clone()).expect("valid platform");
    built
        .context
        .compile(built.root, &MapperConfig::for_mesh(platform.mesh()))
        .expect("kernel compiles")
}

fn app_runtime(
    cfg: &NocConfig,
    bench: Benchmark,
    scale: f64,
    seed: u64,
    kernel: Option<&CompiledKernel>,
) -> u64 {
    let p = profile(bench).scaled(scale);
    let mut platform = SnackPlatform::new(cfg.clone()).expect("valid platform");
    platform.attach_workload(&p, seed);
    let run = platform.run_multiprogram_capped(kernel);
    assert!(run.app_finished, "{bench} must finish");
    run.app_runtime
}

const USAGE: &str = "usage: fig12_qos_impact [--scale F] [--seed N] [--kernel-size N]";

fn main() {
    let args = CliArgs::parse(USAGE, &["scale", "seed", "kernel-size"], &[]);
    let scale = args.f64_or("scale", 0.004);
    let seed = args.u64_or("seed", 5);
    let ksize = args.u64_or("kernel-size", 0) as usize;
    println!("Fig. 12: Runtime impact (%) of SnackNoC kernels on CMP applications");
    println!("(DAPPER 4x4, workload scale {scale}, seed {seed}; 'P' = priority arbitration)\n");
    let base_cfg = NocConfig::dapper();
    let arb_cfg = NocConfig::dapper().with_priority_arbitration(true);
    let sizes: Vec<(Kernel, usize)> = Kernel::ALL
        .into_iter()
        .map(|k| (k, if ksize == 0 { snacknoc_compiler::sim_size(k).min(2048) } else { ksize }))
        .collect();
    let mut headers = vec!["Benchmark".to_string()];
    for (k, _) in &sizes {
        headers.push(k.name().to_string());
        headers.push(format!("{} P", k.name()));
    }
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();

    let mut rows = Vec::new();
    let mut worst_plain = 0.0f64;
    let mut worst_arb = 0.0f64;
    for bench in Benchmark::ALL {
        let mut row = vec![bench.name().to_string()];
        let base = app_runtime(&base_cfg, bench, scale, seed, None);
        let base_arb = app_runtime(&arb_cfg, bench, scale, seed, None);
        for (kernel, size) in &sizes {
            for (cfg, baseline, worst) in [
                (&base_cfg, base, &mut worst_plain),
                (&arb_cfg, base_arb, &mut worst_arb),
            ] {
                let k = kernel_for(cfg, *kernel, *size, seed);
                let rt = app_runtime(cfg, bench, scale, seed, Some(&k));
                let impact = 100.0 * (rt as f64 / baseline as f64 - 1.0);
                *worst = worst.max(impact);
                row.push(format!("{impact:.2}"));
            }
        }
        rows.push(row);
        eprintln!("  done: {bench}");
    }
    print_table(&header_refs, &rows);
    println!("\nPeak impact without arbitration: {worst_plain:.2}% (paper: up to ~1.1%)");
    println!("Peak impact with priority arbitration: {worst_arb:.2}% (paper: <= 0.83%)");
}
