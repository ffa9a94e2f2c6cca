//! Fig. 11 — NoC crossbar usage of LULESH while SPMV executes on SnackNoC.
//!
//! The paper: median crossbar utilization rises from 9.3% (LULESH alone,
//! Fig. 2(a)-3) to 29.6% with SPMV sharing the NoC — evidence that
//! SnackNoC genuinely repurposes the crossbar slack.
//!
//! Arguments: `--scale <f>` (default 0.01), `--seed <n>`, `--spmv <n>`
//! (SPMV size, default 96).

use snacknoc_bench::args::CliArgs;
use snacknoc_bench::table::{pct, print_table};
use snacknoc_compiler::{build, MapperConfig};
use snacknoc_core::SnackPlatform;
use snacknoc_noc::NocConfig;
use snacknoc_workloads::kernels::Kernel;
use snacknoc_workloads::suite::{profile, Benchmark};

const USAGE: &str = "usage: fig11_lulesh_spmv [--scale F] [--seed N] [--spmv SIZE]";

fn main() {
    let args = CliArgs::parse(USAGE, &["scale", "seed", "spmv"], &[]);
    let scale = args.f64_or("scale", 0.01);
    let seed = args.u64_or("seed", 31);
    let spmv_size = args.u64_or("spmv", 96) as usize;
    let cfg = NocConfig::dapper().with_sample_window(1_000);
    println!("Fig. 11: LULESH crossbar usage with a continually-resubmitted SPMV kernel\n");

    let p = profile(Benchmark::Lulesh).scaled(scale);
    // Alone.
    let mut alone = SnackPlatform::new(cfg.clone()).expect("valid platform");
    alone.attach_workload(&p, seed);
    let alone_run = alone.run_multiprogram_capped(None);
    assert!(alone_run.app_finished);
    // With SPMV.
    let built = build(Kernel::Spmv, spmv_size, seed);
    let mut shared = SnackPlatform::new(cfg).expect("valid platform");
    let kernel = built
        .context
        .compile(built.root, &MapperConfig::for_mesh(shared.mesh()))
        .expect("spmv compiles");
    shared.attach_workload(&p, seed);
    let shared_run = shared.run_multiprogram_capped(Some(&kernel));
    assert!(shared_run.app_finished);

    let rows = vec![
        vec![
            "LULESH alone".to_string(),
            format!("{}", alone_run.app_runtime),
            pct(alone_run.stats.median_crossbar_utilization()),
            pct(alone_run.stats.peak_crossbar_utilization()),
            "0".to_string(),
        ],
        vec![
            "LULESH + SPMV".to_string(),
            format!("{}", shared_run.app_runtime),
            pct(shared_run.stats.median_crossbar_utilization()),
            pct(shared_run.stats.peak_crossbar_utilization()),
            format!("{}", shared_run.kernels_completed),
        ],
    ];
    print_table(
        &["Run", "App runtime", "Median xbar", "Peak xbar", "Kernels done"],
        &rows,
    );
    let impact = 100.0
        * (shared_run.app_runtime as f64 / alone_run.app_runtime as f64 - 1.0);
    println!("\nLULESH runtime impact: {impact:.2}% (paper: < 1%)");
    println!("Paper: median crossbar utilization rises 9.3% -> 29.6% with SPMV.");
}
