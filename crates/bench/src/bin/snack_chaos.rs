//! `snack-chaos` — the deterministic chaos harness driver.
//!
//! Throws seeded randomized fault schedules (permanent RCU/link/CPM
//! deaths mixed with transient drop/corrupt windows) at every kernel,
//! runs each cell in **both stepping modes**, and asserts the
//! robustness invariants on every run: termination with a typed verdict,
//! bit-exact outputs on completion, transient-loss recovery, consistent
//! degradation reports, and bit-identity across the modes. Prints the per-cell
//! table and writes `BENCH_chaos.json` (override with `--json <path>`);
//! the simulation output is bit-identical for any `--threads` value.
//!
//! ```text
//! snack-chaos [--kernels all|sgemm,spmv,...] [--size N]
//!             [--seeds N] [--threads N] [--json PATH] [--smoke]
//! ```
//!
//! Defaults: all four paper kernels, size 10, 4 seeds per kernel,
//! threads = available parallelism.
//!
//! `--smoke` runs a fixed micro-grid (two kernels, small size) and exits
//! non-zero unless every invariant holds and at least one cell completed
//! *through* graceful degradation (a remap or failover actually fired) —
//! CI uses this via `scripts/verify.sh`.

use snacknoc_bench::args::{write_or_exit, CliArgs};
use snacknoc_bench::chaos::{run_chaos, ChaosSpec};
use snacknoc_noc::Stepping;
use snacknoc_workloads::kernels::Kernel;

const USAGE: &str = "usage: snack-chaos [--kernels all|sgemm,spmv,...] [--size N]
                   [--seeds N] [--threads N] [--json PATH] [--smoke]";

fn parse_kernels(spec: &str) -> Vec<Kernel> {
    if spec.eq_ignore_ascii_case("all") {
        return Kernel::ALL.to_vec();
    }
    spec.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| {
            Kernel::ALL
                .into_iter()
                .find(|k| k.to_string().eq_ignore_ascii_case(name))
                .unwrap_or_else(|| {
                    eprintln!("error: unknown kernel '{name}'");
                    eprintln!("known kernels: {}", Kernel::ALL.map(|k| k.to_string()).join(", "));
                    std::process::exit(2);
                })
        })
        .collect()
}

fn main() {
    let args = CliArgs::parse(
        USAGE,
        &["kernels", "size", "seeds", "threads", "json"],
        &["smoke"],
    );
    let smoke = args.switch("smoke");
    let json_path = args.str_or("json", "BENCH_chaos.json");
    let threads = args.u64_or(
        "threads",
        std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
    ) as usize;

    let spec = if smoke {
        ChaosSpec::grid(&[Kernel::Mac, Kernel::Spmv], 8, &[1, 2, 3, 4, 5, 6])
            .with_threads(threads)
    } else {
        let kernels = parse_kernels(&args.str_or("kernels", "all"));
        let size = args.positive_or("size", 10);
        let seeds: Vec<u64> = (1..=args.u64_or("seeds", 4).max(1)).collect();
        ChaosSpec::grid(&kernels, size, &seeds).with_threads(threads)
    };

    println!(
        "chaos grid: {} cells x {} stepping modes on {} thread(s){}",
        spec.cells.len(),
        Stepping::ALL.len(),
        spec.threads,
        if smoke { " [smoke]" } else { "" },
    );
    let results = run_chaos(&spec);
    results.print_table();

    write_or_exit("snack-chaos", &json_path, |w| results.write_json(w));
    println!("json: {json_path}");

    let degraded = results.degraded_completions();
    println!("degraded completions (remap/failover taken): {degraded}");
    if !results.all_invariants_hold() {
        eprintln!("error: chaos invariant violations (see table / JSON)");
        std::process::exit(1);
    }
    if smoke && degraded == 0 {
        eprintln!("error: smoke grid never exercised graceful degradation");
        std::process::exit(1);
    }
}
