//! Fig. 1 — performance of NoC resource selections.
//!
//! Runs the 16 benchmarks on the three baseline NoCs plus six
//! resource-starved AxNoC variants (buffers ÷2/÷4, VCs ÷2/÷4, channel
//! width ÷2/÷4) and reports each variant's execution slowdown relative to
//! BiNoCHS — the paper's evidence that the baselines are *not*
//! overprovisioned.
//!
//! Arguments: `--scale <f>` (workload scale, default 0.004),
//! `--seed <n>`.

use snacknoc_bench::args::CliArgs;
use snacknoc_bench::table::print_table;
use snacknoc_noc::NocConfig;
use snacknoc_workloads::runner::run_benchmark;
use snacknoc_workloads::suite::{profile, Benchmark};

fn variants() -> Vec<(&'static str, NocConfig)> {
    let ax = NocConfig::axnoc();
    vec![
        ("BiNoCHS", NocConfig::binochs()),
        ("DAPPER", NocConfig::dapper()),
        ("AxNoC", ax.clone()),
        ("AxNoC Buf/2", ax.clone().with_buffers_per_vc(2)),
        ("AxNoC Buf/4", ax.clone().with_buffers_per_vc(1)),
        ("AxNoC VC/2", ax.clone().with_vcs_per_vnet(2)),
        ("AxNoC VC/4", ax.clone().with_vcs_per_vnet(1)),
        ("AxNoC CW/2", ax.clone().with_channel_width(8)),
        ("AxNoC CW/4", ax.with_channel_width(4)),
    ]
}

const USAGE: &str = "usage: fig1_resource_selection [--scale F] [--seed N]";

fn main() {
    let args = CliArgs::parse(USAGE, &["scale", "seed"], &[]);
    let scale = args.f64_or("scale", 0.004);
    let seed = args.u64_or("seed", 7);
    println!("Fig. 1: Normalised execution slowdown (%) w.r.t. BiNoCHS");
    println!("(workload scale {scale}, seed {seed})\n");
    let vs = variants();
    let mut headers: Vec<&str> = vec!["Benchmark"];
    headers.extend(vs.iter().skip(1).map(|(n, _)| *n));
    let mut rows = Vec::new();
    let mut worst: Vec<f64> = vec![0.0; vs.len() - 1];
    for bench in Benchmark::ALL {
        let p = profile(bench).scaled(scale);
        let base = run_benchmark(&p, vs[0].1.clone(), seed).expect("valid config");
        assert!(base.finished, "{bench}: baseline must finish");
        let mut row = vec![bench.name().to_string()];
        for (vi, (_, cfg)) in vs.iter().enumerate().skip(1) {
            let r = run_benchmark(&p, cfg.clone(), seed).expect("valid config");
            let slowdown = if r.finished {
                100.0 * (r.runtime_cycles as f64 / base.runtime_cycles as f64 - 1.0)
            } else {
                f64::INFINITY // saturated: never drained
            };
            worst[vi - 1] = worst[vi - 1].max(slowdown);
            row.push(if slowdown.is_finite() {
                format!("{slowdown:.1}%")
            } else {
                "sat".to_string()
            });
        }
        rows.push(row);
    }
    print_table(&headers, &rows);
    println!("\nPeak slowdown per variant:");
    for ((name, _), w) in vs.iter().skip(1).zip(&worst) {
        println!("  {name:<14} {w:.1}%");
    }
    println!("\nPaper reference peaks: DAPPER/AxNoC within ~4.4% of BiNoCHS;");
    println!("Buf/2 up to 11.4%, Buf/4 25.7%, VC/2 4.8%, VC/4 22.9%, CW/2 12.2%, CW/4 37.5%.");
}
