//! `snack-perf` — the canonical hot-loop performance benchmark.
//!
//! Times `Network::step` at idle / low / saturation injection, a
//! think-heavy closed-loop platform scenario, and full
//! `Platform::run_kernel` for three compiler kernels, each under the
//! dense reference loop and serial stepping (the default: active sets
//! plus clock jumps). A default run (no options) writes `BENCH_perf.json`
//! (`snacknoc-perf-v4`) — the perf trajectory's committed baseline;
//! `--json <path>` writes any run's report there, and any other run
//! without it writes none. The dense numbers in the same file *are* the
//! baseline future PRs compare against.
//!
//! ```text
//! snack-perf [--samples N] [--kernel-size N] [--seed N] [--json PATH] [--smoke]
//! ```
//!
//! Wall-clock numbers are machine-dependent; the `stats_identical`
//! fields assert that all stepping modes produced byte-identical
//! simulation statistics, and the binary exits non-zero if any scenario
//! diverged. `--smoke` shrinks the grid to a CI-sized run (used by
//! `scripts/verify.sh`) — it checks bit-identity and the JSON schema,
//! not the speedup, so a loaded CI machine cannot flake the gate.

#![deny(clippy::unwrap_used)]

use snacknoc_bench::args::{write_report, CliArgs};
use snacknoc_bench::perf::{
    default_step_scenarios, host_threads, smoke_step_scenarios, time_closed_loop, time_kernel,
    time_step_scenario, PerfReport,
};
use snacknoc_workloads::kernels::Kernel;

const USAGE: &str =
    "usage: snack-perf [--samples N] [--kernel-size N] [--seed N] [--json PATH] [--smoke]";

fn main() {
    let args = CliArgs::parse(USAGE, &["samples", "kernel-size", "seed", "json"], &["smoke"]);
    let smoke = args.switch("smoke");
    let json_path = args.report_path("BENCH_perf.json", &[]);
    let samples = args.u64_or("samples", if smoke { 3 } else { 9 }).max(1) as u32;
    let seed = args.u64_or("seed", 42);
    let kernel_size = args.positive_or("kernel-size", if smoke { 10 } else { 24 });

    let scenarios = if smoke { smoke_step_scenarios() } else { default_step_scenarios() };
    let kernels = if smoke {
        vec![Kernel::Mac]
    } else {
        vec![Kernel::Mac, Kernel::Reduction, Kernel::Spmv]
    };

    println!(
        "perf: {} step scenario(s) + {} kernel(s), {samples} sample(s) per mode{} \
         (host threads: {})",
        scenarios.len(),
        kernels.len(),
        if smoke { " [smoke]" } else { "" },
        host_threads(),
    );
    let mut step: Vec<_> = scenarios.iter().map(|s| time_step_scenario(s, samples)).collect();
    step.push(time_closed_loop(if smoke { 20_000 } else { 200_000 }, samples));
    let kernel_results =
        kernels.iter().map(|&k| time_kernel(k, kernel_size, seed, samples)).collect();
    let report = PerfReport { step, kernels: kernel_results };
    report.print_tables();

    write_report("snack-perf", json_path.as_deref(), |w| report.write_json(w));

    if let Some(speedup) = report.idle_speedup() {
        println!("idle-speedup: {speedup:.2}x (serial over dense baseline)");
    }
    if !report.all_identical() {
        eprintln!(
            "error: a stepping mode disagreed with the dense oracle on \
             simulation statistics (or a kernel failed verification)"
        );
        std::process::exit(1);
    }
    println!("stats-identical: yes (all scenarios, all modes)");
}
