//! `snack-service` — the multi-tenant service SLO sweep driver.
//!
//! Drives the `snacknoc-service` SLO scenario (six open-loop tenants,
//! two per QoS class, on a two-CPM DAPPER mesh) across load levels, each
//! level in **both stepping modes**, and reports per-class/per-tenant
//! p50/p90/p99 latency, throughput, Jain fairness and typed admission
//! rejections. Writes `BENCH_service.json` (override with
//! `--json <path>`); the simulation output is bit-identical for any
//! `--threads` value and any stepping mode.
//!
//! ```text
//! snack-service [--loads 40,100,180] [--seed N] [--threads N]
//!               [--json PATH] [--smoke]
//! ```
//!
//! Defaults: loads 40,70,100,140,180 (percent of the two-CPM saturation
//! knee), seed 5, threads = available parallelism.
//!
//! `--smoke` runs a reduced three-level sweep and exits non-zero unless
//! every level is violation-free and bit-identical across the modes, the
//! Guaranteed class's p99 stays below BestEffort's at peak load, and the
//! peak level rejects at least one submission — CI uses this via
//! `scripts/verify.sh`.

use snacknoc_bench::args::{write_or_exit, CliArgs};
use snacknoc_bench::service::{run_service_grid, ServiceGridSpec};
use snacknoc_service::Stepping;

const USAGE: &str =
    "usage: snack-service [--loads 40,100,180] [--seed N] [--threads N] [--json PATH] [--smoke]";

fn parse_loads(spec: &str) -> Vec<u32> {
    let loads: Vec<u32> = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("error: bad load level '{s}' (want a percentage like 120)");
                std::process::exit(2);
            })
        })
        .collect();
    if loads.is_empty() {
        eprintln!("error: --loads needs at least one level");
        std::process::exit(2);
    }
    loads
}

fn main() {
    let args = CliArgs::parse(USAGE, &["loads", "seed", "threads", "json"], &["smoke"]);
    let smoke = args.switch("smoke");
    let json_path = args.str_or("json", "BENCH_service.json");
    let seed = args.u64_or("seed", 5);
    let threads = args.u64_or(
        "threads",
        std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
    ) as usize;

    let loads = if smoke {
        vec![60, 100, 180]
    } else {
        parse_loads(&args.str_or("loads", "40,70,100,140,180"))
    };
    let spec = ServiceGridSpec::new(&loads, seed).with_threads(threads);

    println!(
        "service sweep: {} load level(s) x {} stepping modes x 3 QoS classes on {} thread(s){}",
        spec.loads.len(),
        Stepping::ALL.len(),
        spec.threads,
        if smoke { " [smoke]" } else { "" },
    );
    let results = run_service_grid(&spec);
    results.print_table();

    write_or_exit("snack-service", &json_path, |w| results.write_json(w));
    println!("json: {json_path}");
    println!(
        "qos-protected: {}  rejections-at-peak: {}",
        if results.qos_protected() { "yes" } else { "NO" },
        results.rejections_at_peak(),
    );

    if !results.all_invariants_hold() {
        eprintln!("error: service invariant violations or stepping-mode divergence (see table)");
        std::process::exit(1);
    }
    if smoke && !results.qos_protected() {
        eprintln!("error: Guaranteed p99 was not protected below BestEffort p99 at peak load");
        std::process::exit(1);
    }
    if smoke && results.rejections_at_peak() == 0 {
        eprintln!("error: peak load never tripped admission control");
        std::process::exit(1);
    }
}
