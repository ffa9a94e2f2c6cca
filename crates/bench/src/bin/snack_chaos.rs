//! `snack-chaos` — the deterministic fault harness driver.
//!
//! Runs every kernel under seeded fault schedules, each cell in **both
//! stepping modes**, and asserts the robustness invariants on every run:
//! termination with a typed verdict, bit-exact outputs on completion,
//! transient-loss recovery, consistent degradation reports, bounded
//! watchdog retries, and bit-identity across the modes. Prints the
//! per-cell table. A default run (no option but `--threads`) writes
//! `BENCH_chaos.json`; `--json <path>` writes any run's report there,
//! and any other run without it writes none. The simulation output is
//! bit-identical for any `--threads` value.
//!
//! ```text
//! snack-chaos [--kernels all|sgemm,spmv,...] [--size N] [--seeds N]
//!             [--rates R1,R2,...] [--threads N] [--json PATH] [--smoke]
//! ```
//!
//! By default each cell draws a random schedule: permanent RCU/link/CPM
//! deaths mixed with transient drop/corrupt windows. `--rates` runs the
//! fixed-rate grid instead: a clean cell, then one global drop-rate and
//! one corrupt-rate cell per nonzero rate, on one CPM. Defaults: all
//! four paper kernels, size 10, 4 seeds, threads = available
//! parallelism.
//!
//! `--smoke` runs a fixed micro-grid (two kernels, small size) of random
//! schedules and fixed 5% rates, and exits non-zero unless every
//! invariant holds, at least one cell completed *through* graceful
//! degradation (a remap or failover actually fired), and the fixed-rate
//! cells detected at least one loss — CI uses this via
//! `scripts/verify.sh`.

use snacknoc_bench::args::{write_report, CliArgs};
use snacknoc_bench::chaos::{run_chaos, CellKind, ChaosSpec};
use snacknoc_noc::Stepping;
use snacknoc_workloads::kernels::Kernel;

const USAGE: &str = "usage: snack-chaos [--kernels all|sgemm,spmv,...] [--size N] [--seeds N]
                   [--rates R1,R2,...] [--threads N] [--json PATH] [--smoke]";

/// The `--rates` list; a malformed rate or one outside `[0, 1]` is a
/// usage error (exit 2).
fn parse_rates(args: &CliArgs, spec: &str) -> Vec<f64> {
    spec.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| match s.parse::<f64>() {
            Ok(rate) if (0.0..=1.0).contains(&rate) => rate,
            _ => args.fail(&format!("bad value for --rates: '{s}' (each rate must be in [0, 1])")),
        })
        .collect()
}

fn main() {
    let args = CliArgs::parse(
        USAGE,
        &["kernels", "size", "seeds", "rates", "threads", "json"],
        &["smoke"],
    );
    let smoke = args.switch("smoke");
    let json_path = args.report_path("BENCH_chaos.json", &["threads"]);
    let threads = args.u64_or(
        "threads",
        std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
    ) as usize;

    let spec = if smoke {
        let kernels = [Kernel::Mac, Kernel::Spmv];
        let mut spec = ChaosSpec::grid(&kernels, 8, &[CellKind::Random], &[1, 2, 3, 4, 5, 6]);
        let fixed_rates = ChaosSpec::grid(&kernels, 8, &CellKind::fixed_rates(&[0.05]), &[1]);
        spec.cells.extend(fixed_rates.cells);
        spec
    } else {
        let kernels = args.kernels_or("kernels", &Kernel::ALL);
        let size = args.positive_or("size", 10);
        let seeds: Vec<u64> = (1..=args.u64_or("seeds", 4).max(1)).collect();
        let kinds = match args.str_opt("rates") {
            Some(rates) => CellKind::fixed_rates(&parse_rates(&args, rates)),
            None => vec![CellKind::Random],
        };
        ChaosSpec::grid(&kernels, size, &kinds, &seeds)
    }
    .with_threads(threads);

    println!(
        "chaos grid: {} cells x {} stepping modes on {} thread(s){}",
        spec.cells.len(),
        Stepping::ALL.len(),
        spec.threads,
        if smoke { " [smoke]" } else { "" },
    );
    let results = run_chaos(&spec);
    results.print_table();

    write_report("snack-chaos", json_path.as_deref(), |w| results.write_json(w));

    let degraded = results.degraded_completions();
    println!("degraded completions (remap/failover taken): {degraded}");
    let fixed_rate: Vec<_> = spec
        .cells
        .iter()
        .zip(&results.cells)
        .filter(|(cell, _)| cell.kind != CellKind::Random)
        .map(|(_, c)| c)
        .collect();
    let detected: u64 = fixed_rate.iter().map(|c| c.detected).sum();
    if !fixed_rate.is_empty() {
        let recovered: u64 = fixed_rate.iter().map(|c| c.recovered).sum();
        println!("fixed-rate recovery: {recovered}/{detected} detected losses recovered");
    }
    if !results.all_invariants_hold() {
        eprintln!("error: chaos invariant violations (see table / JSON)");
        std::process::exit(1);
    }
    if smoke && degraded == 0 {
        eprintln!("error: smoke grid never exercised graceful degradation");
        std::process::exit(1);
    }
    if smoke && detected == 0 {
        eprintln!("error: smoke grid's fixed-rate cells detected no loss");
        std::process::exit(1);
    }
}
