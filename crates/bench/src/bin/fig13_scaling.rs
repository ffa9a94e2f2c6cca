//! Fig. 13 — performance impact of SGEMM as cores (and RCUs) scale.
//!
//! Runs every benchmark concurrently with a continually-resubmitted SGEMM
//! on 16-, 32-, 64- and 128-node meshes. The paper finds the impact stays
//! below ~0.5% (0.58% for LULESH at 128) — it does not grow with scale.
//!
//! Arguments: `--scale <f>` (default 0.001), `--seed <n>`,
//! `--sgemm <n>` (SGEMM size, default 20).

use snacknoc_bench::args::CliArgs;
use snacknoc_bench::table::print_table;
use snacknoc_compiler::{build, MapperConfig};
use snacknoc_core::SnackPlatform;
use snacknoc_noc::NocConfig;
use snacknoc_workloads::kernels::Kernel;
use snacknoc_workloads::suite::{profile, Benchmark};

const USAGE: &str = "usage: fig13_scaling [--scale F] [--seed N] [--sgemm SIZE]";

fn main() {
    let args = CliArgs::parse(USAGE, &["scale", "seed", "sgemm"], &[]);
    let scale = args.f64_or("scale", 0.001);
    let seed = args.u64_or("seed", 3);
    let sgemm = args.u64_or("sgemm", 20) as usize;
    println!("Fig. 13: Runtime impact (%) of SGEMM as cores and RCUs scale");
    println!("(DAPPER, workload scale {scale}, SGEMM-{sgemm}, seed {seed})\n");
    let meshes: [(u16, u16); 4] = [(4, 4), (8, 4), (8, 8), (16, 8)];
    let mut rows = Vec::new();
    let mut worst = vec![0.0f64; meshes.len()];
    for bench in Benchmark::ALL {
        let mut row = vec![bench.name().to_string()];
        for (mi, &(cols, rows_)) in meshes.iter().enumerate() {
            let cfg = NocConfig::dapper().with_mesh(cols, rows_).with_priority_arbitration(true);
            let p = profile(bench).scaled(scale);
            let built = build(Kernel::Sgemm, sgemm, seed);
            // Baseline.
            let mut alone = SnackPlatform::new(cfg.clone()).expect("valid platform");
            alone.attach_workload(&p, seed);
            let base = alone.run_multiprogram_capped(None);
            assert!(base.app_finished, "{bench} at {cols}x{rows_} must finish");
            // With SGEMM.
            let mut shared = SnackPlatform::new(cfg).expect("valid platform");
            let kernel = built
                .context
                .compile(built.root, &MapperConfig::for_mesh(shared.mesh()))
                .expect("sgemm compiles");
            shared.attach_workload(&p, seed);
            let run = shared.run_multiprogram_capped(Some(&kernel));
            assert!(run.app_finished);
            let impact = 100.0 * (run.app_runtime as f64 / base.app_runtime as f64 - 1.0);
            worst[mi] = worst[mi].max(impact);
            row.push(format!("{impact:.2}"));
        }
        rows.push(row);
        eprintln!("  done: {bench}");
    }
    print_table(&["Benchmark", "16 nodes", "32 nodes", "64 nodes", "128 nodes"], &rows);
    println!("\nPeak impact per size: {:?}", worst.iter().map(|w| format!("{w:.2}%")).collect::<Vec<_>>());
    println!("Paper: below 0.50% for all benchmarks and core counts (0.58% for LULESH at 128).");
}
