//! `snack-trace` — run a paper kernel under the cycle-level tracer and
//! emit timeline artifacts.
//!
//! ```text
//! snack-trace [--kernel sgemm|reduction|mac|spmv] [--size N] [--seed N]
//!             [--config dapper|axnoc|binochs] [--capacity N]
//!             [--json PATH] [--smoke]
//! ```
//!
//! Writes Chrome trace-event JSON (load it in Perfetto or
//! `chrome://tracing`) to `trace.json` (override with `--json`) and
//! prints a text report: per-component event accounting, the
//! critical-path breakdown of the kernel's latency (compute vs ring-wait
//! vs VC-stall vs spill ...), token-lifetime histogram, and the busiest
//! links.
//!
//! `--smoke` runs a fixed micro-kernel and exits non-zero unless the
//! emitted JSON parses with at least one event on every component lane
//! and the critical-path attribution sums exactly to the kernel latency —
//! CI uses this via `scripts/verify.sh`.

use snacknoc_bench::args::{write_or_exit, CliArgs};
use snacknoc_bench::tracing::{run_traced_kernel, DEFAULT_TRACE_CAPACITY};
use snacknoc_noc::{NocConfig, NocPreset};
use snacknoc_workloads::kernels::Kernel;
use std::io::Write;

const USAGE: &str = "usage: snack-trace [--kernel sgemm|reduction|mac|spmv] [--size N] [--seed N]
                   [--config dapper|axnoc|binochs] [--capacity N]
                   [--json PATH] [--smoke]";

fn parse_config(args: &CliArgs, name: &str) -> NocConfig {
    let norm: String =
        name.chars().filter(char::is_ascii_alphanumeric).collect::<String>().to_lowercase();
    NocPreset::ALL
        .into_iter()
        .find(|p| p.to_string().to_lowercase() == norm)
        .map(NocConfig::preset)
        .unwrap_or_else(|| {
            args.fail(&format!(
                "unknown NoC config '{name}' (known: {})",
                NocPreset::ALL.map(|p| p.to_string()).join(", ")
            ))
        })
}

fn main() {
    let args = CliArgs::parse(
        USAGE,
        &["kernel", "size", "seed", "config", "capacity", "json"],
        &["smoke"],
    );
    let smoke = args.switch("smoke");
    let json_path = args.str_or("json", "trace.json");

    let (kernel, size, seed, cfg, capacity) = if smoke {
        // SPMV crosses mesh links (MAC at this size maps onto one router),
        // so the smoke exercises the flit-hop/link-heatmap path too.
        (Kernel::Spmv, 8, 7, NocConfig::default(), 1 << 16)
    } else {
        let kernel = args.kernel(&args.str_or("kernel", "mac"));
        let cfg = args
            .str_opt("config")
            .map(|c| parse_config(&args, c))
            .unwrap_or_default();
        (
            kernel,
            args.positive_or("size", 12),
            args.u64_or("seed", 7),
            cfg,
            args.u64_or("capacity", DEFAULT_TRACE_CAPACITY as u64) as usize,
        )
    };

    let run = run_traced_kernel(kernel, size, cfg, seed, capacity);
    print!("{}", run.report());
    if !run.verified {
        eprintln!("error: traced run diverged from the reference interpreter");
        std::process::exit(1);
    }

    let json = run.chrome_json();
    write_or_exit("snack-trace", &json_path, |w| w.write_all(json.as_bytes()));
    println!("trace: {json_path} ({} bytes)", json.len());

    // Self-check the artifact; --smoke makes the checks fatal for CI.
    match snacknoc_trace::validate_chrome_trace(&json) {
        Ok(summary) => println!(
            "validated: {} events (router {}, rcu {}, cpm {})",
            summary.total_events, summary.router_events, summary.rcu_events, summary.cpm_events
        ),
        Err(e) => {
            eprintln!("error: emitted trace failed validation: {e}");
            std::process::exit(1);
        }
    }
    match &run.critical_path {
        Some(cp) if cp.attributed_total() == cp.total() && cp.total() == run.cycles => {}
        Some(cp) => {
            eprintln!(
                "error: critical path attribution {} != kernel latency {} (total {})",
                cp.attributed_total(),
                run.cycles,
                cp.total()
            );
            std::process::exit(1);
        }
        None if smoke => {
            eprintln!("error: smoke trace captured no kernel submit/finish bracket");
            std::process::exit(1);
        }
        None => eprintln!("warning: no critical path (trace buffers may have saturated)"),
    }
    if smoke {
        println!("smoke: ok");
    }
}
