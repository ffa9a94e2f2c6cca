//! `snack-sweep` — the deterministic parallel sweep driver.
//!
//! Runs a declarative `{benchmark | kernel} × {NoC preset} × {seed}` grid
//! over the std-only worker pool in `snacknoc_bench::sweep`, prints the
//! per-cell table, and writes machine-readable reports:
//!
//! * `BENCH_sweep.json` (override with `--json <path>`): per-cell
//!   simulation metrics + wall-clock stats + pool accounting
//!   (cells/sec, worker utilization).
//! * optional CSV (`--csv <path>`) in the harness layout
//!   (`bench,samples,median_ns,p90_ns,min_ns,max_ns`).
//!
//! The merged simulation output is **bit-identical for any `--threads`
//! value** (see `tests/determinism.rs`), so parallelism is purely a
//! wall-clock optimization.
//!
//! ```text
//! snack-sweep [--benchmarks all|fmm,radix,...] [--kernels sgemm,spmv,...]
//!             [--configs all|dapper,axnoc,binochs] [--seeds N]
//!             [--scale F] [--kernel-size N] [--threads N] [--samples N]
//!             [--json PATH] [--csv PATH]
//! ```
//!
//! Defaults: all 16 benchmarks, no kernels, all three Table I presets,
//! 1 seed, scale 0.002 (CI scale; 1.0 is paper scale), kernel size 16,
//! threads = available parallelism, 1 sample, JSON to `BENCH_sweep.json`.

use snacknoc_bench::args::{write_or_exit, CliArgs};
use snacknoc_bench::sweep::{run_sweep, SweepSpec};
use snacknoc_noc::NocPreset;
use snacknoc_workloads::suite::Benchmark;

const USAGE: &str = "usage: snack-sweep [--benchmarks all|fmm,radix,...] [--kernels sgemm,spmv,...]
                   [--configs all|dapper,axnoc,binochs] [--seeds N]
                   [--scale F] [--kernel-size N] [--threads N] [--samples N]
                   [--json PATH] [--csv PATH]";

/// Splits a comma-separated list, trimming blanks.
fn split_list(v: &str) -> Vec<&str> {
    v.split(',').map(str::trim).filter(|s| !s.is_empty()).collect()
}

fn parse_benchmarks(spec: &str) -> Vec<Benchmark> {
    if spec.eq_ignore_ascii_case("all") {
        return Benchmark::ALL.to_vec();
    }
    split_list(spec)
        .into_iter()
        .map(|name| {
            name.parse().unwrap_or_else(|e| {
                eprintln!("error: {e}");
                eprintln!(
                    "known benchmarks: {}",
                    Benchmark::ALL.map(|b| b.to_string()).join(", ")
                );
                std::process::exit(2);
            })
        })
        .collect()
}

fn parse_presets(spec: &str) -> Vec<NocPreset> {
    if spec.eq_ignore_ascii_case("all") {
        return NocPreset::ALL.to_vec();
    }
    split_list(spec)
        .into_iter()
        .map(|name| {
            let norm: String =
                name.chars().filter(char::is_ascii_alphanumeric).collect::<String>().to_lowercase();
            NocPreset::ALL
                .into_iter()
                .find(|p| p.to_string().to_lowercase() == norm)
                .unwrap_or_else(|| {
                    eprintln!("error: unknown NoC config '{name}'");
                    eprintln!("known configs: {}", NocPreset::ALL.map(|p| p.to_string()).join(", "));
                    std::process::exit(2);
                })
        })
        .collect()
}

fn main() {
    let args = CliArgs::parse(
        USAGE,
        &[
            "benchmarks",
            "kernels",
            "configs",
            "seeds",
            "scale",
            "kernel-size",
            "threads",
            "samples",
            "json",
            "csv",
        ],
        &[],
    );
    let benchmarks = parse_benchmarks(&args.str_or("benchmarks", "all"));
    let kernels = args.kernels_or("kernels", &[]);
    let presets = parse_presets(&args.str_or("configs", "all"));
    let seeds: Vec<u64> = (1..=args.u64_or("seeds", 1).max(1)).collect();
    let scale = args.f64_or("scale", 0.002);
    let kernel_size = args.positive_or("kernel-size", 16);
    let threads = args.u64_or(
        "threads",
        std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
    ) as usize;
    let samples = u32::try_from(args.u64_or("samples", 1).max(1)).unwrap_or(1);
    let json_path = args.str_or("json", "BENCH_sweep.json");
    let csv_path = args.str_opt("csv").map(str::to_string);

    let spec = SweepSpec::grid(&benchmarks, &presets, &seeds, scale)
        .with_kernels(&kernels, kernel_size, &presets, &seeds)
        .with_threads(threads)
        .with_samples(samples);
    if spec.cells.is_empty() {
        eprintln!("error: empty sweep (no benchmarks or kernels selected)");
        std::process::exit(2);
    }
    println!(
        "sweep: {} cells ({} benchmark(s), {} kernel(s), {} preset(s), {} seed(s)) on {} thread(s), {} sample(s)/cell",
        spec.cells.len(),
        benchmarks.len(),
        kernels.len(),
        presets.len(),
        seeds.len(),
        spec.threads,
        spec.samples,
    );
    let results = run_sweep(&spec);
    results.print_table();

    write_or_exit("snack-sweep", &json_path, |w| results.write_json(w));
    println!("json: {json_path}");
    if let Some(path) = csv_path {
        write_or_exit("snack-sweep", &path, |w| results.write_csv(w));
        println!("csv: {path}");
    }
    if results.cells.iter().any(|c| !c.finished) {
        eprintln!("warning: some cells did not finish (saturated network or failed verification)");
        std::process::exit(1);
    }
}
