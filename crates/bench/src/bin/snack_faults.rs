//! `snack-faults` — the deterministic fault-injection sweep driver.
//!
//! Runs a `{kernel} × {fault scenario} × {seed}` grid over the worker pool
//! in `snacknoc_bench::faults`, with a seeded fault plan and the CPM
//! token-loss watchdog enabled on every cell. Prints the per-cell
//! fault/recovery table and writes `BENCH_faults.json` (override with
//! `--json <path>`); the simulation output is bit-identical for any
//! `--threads` value.
//!
//! ```text
//! snack-faults [--kernels all|sgemm,spmv,...] [--size N]
//!              [--rates R1,R2,...] [--mode drop|corrupt|both]
//!              [--seeds N] [--threads N] [--json PATH] [--smoke]
//! ```
//!
//! Defaults: all four paper kernels, size 12, rates `0.01,0.05`, both
//! modes (plus the always-included `clean` baseline scenario), 1 seed,
//! threads = available parallelism.
//!
//! `--smoke` runs a fixed 30-second-class micro-grid (one kernel, small
//! size) and exits non-zero unless every cell is consistent — CI uses
//! this via `scripts/verify.sh`.

use snacknoc_bench::args::{write_or_exit, CliArgs};
use snacknoc_bench::faults::{run_fault_sweep, FaultScenario, FaultSweepSpec};
use snacknoc_workloads::kernels::Kernel;

const USAGE: &str = "usage: snack-faults [--kernels all|sgemm,spmv,...] [--size N]
                    [--rates R1,R2,...] [--mode drop|corrupt|both]
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

fn parse_rates(spec: &str) -> Vec<f64> {
    spec.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            let r: f64 = s.parse().unwrap_or_else(|_| {
                eprintln!("error: bad rate '{s}'");
                std::process::exit(2);
            });
            if !(0.0..=1.0).contains(&r) {
                eprintln!("error: rate {r} outside [0, 1]");
                std::process::exit(2);
            }
            r
        })
        .collect()
}

fn scenarios(rates: &[f64], mode: &str) -> Vec<FaultScenario> {
    let mut out = vec![FaultScenario::Clean];
    for &rate in rates {
        if rate == 0.0 {
            continue; // clean already covers it
        }
        match mode {
            "drop" => out.push(FaultScenario::Drop { rate }),
            "corrupt" => out.push(FaultScenario::Corrupt { rate }),
            "both" => {
                out.push(FaultScenario::Drop { rate });
                out.push(FaultScenario::Corrupt { rate });
            }
            other => {
                eprintln!("error: unknown mode '{other}' (drop|corrupt|both)");
                std::process::exit(2);
            }
        }
    }
    out
}

fn main() {
    let args = CliArgs::parse(
        USAGE,
        &["kernels", "size", "rates", "mode", "seeds", "threads", "json"],
        &["smoke"],
    );
    let smoke = args.switch("smoke");
    let json_path = args.str_or("json", "BENCH_faults.json");
    let threads = args.u64_or(
        "threads",
        std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
    ) as usize;

    let spec = if smoke {
        FaultSweepSpec::grid(
            &[Kernel::Mac, Kernel::Spmv],
            8,
            &[
                FaultScenario::Clean,
                FaultScenario::Drop { rate: 0.05 },
                FaultScenario::Corrupt { rate: 0.05 },
            ],
            &[1],
        )
        .with_threads(threads)
    } else {
        let kernels = parse_kernels(&args.str_or("kernels", "all"));
        let size = args.positive_or("size", 12);
        let rates = parse_rates(&args.str_or("rates", "0.01,0.05"));
        let mode = args.str_or("mode", "both");
        let seeds: Vec<u64> = (1..=args.u64_or("seeds", 1).max(1)).collect();
        FaultSweepSpec::grid(&kernels, size, &scenarios(&rates, &mode), &seeds)
            .with_threads(threads)
    };

    println!(
        "fault sweep: {} cells on {} thread(s){}",
        spec.cells.len(),
        spec.threads,
        if smoke { " [smoke]" } else { "" },
    );
    let results = run_fault_sweep(&spec);
    results.print_table();

    write_or_exit("snack-faults", &json_path, |w| results.write_json(w));
    println!("json: {json_path}");

    if !results.all_consistent() {
        eprintln!(
            "error: inconsistent fault cells (finished-but-unverified, or \
             recovered != detected)"
        );
        std::process::exit(1);
    }
    let recovered: u64 = results.cells.iter().map(|c| c.recovered).sum();
    let detected: u64 = results.cells.iter().map(|c| c.detected).sum();
    println!("recovery: {recovered}/{detected} detected losses recovered");
    if smoke && detected == 0 {
        eprintln!("error: smoke grid injected no recoverable faults");
        std::process::exit(1);
    }
}
