//! Fig. 3 — NoC input-buffer utilization CDF for Raytrace.
//!
//! The paper: "during approximately 96% of all clock-cycles, input buffer
//! utilization is at 0% ... localized contention only occurs 4% of the
//! time ... during almost all phases of contention, the buffer utilization
//! is only at 10% of the total capacity."
//!
//! Arguments: `--scale <f>` (default 0.01), `--seed <n>`.

use snacknoc_bench::args::CliArgs;
use snacknoc_bench::table::{pct, print_table};
use snacknoc_noc::NocConfig;
use snacknoc_workloads::runner::run_benchmark;
use snacknoc_workloads::suite::{profile, Benchmark};

const USAGE: &str = "usage: fig3_buffer_cdf [--scale F] [--seed N]";

fn main() {
    let args = CliArgs::parse(USAGE, &["scale", "seed"], &[]);
    let scale = args.f64_or("scale", 0.01);
    let seed = args.u64_or("seed", 23);
    println!("Fig. 3: NoC buffer utilization CDF for Raytrace (DAPPER)\n");
    let p = profile(Benchmark::Raytrace).scaled(scale);
    let r = run_benchmark(&p, NocConfig::dapper(), seed).expect("valid config");
    assert!(r.finished, "raytrace must finish");
    let cdf = &r.stats.occupancy;
    let mut rows = Vec::new();
    for probe in [0usize, 1, 2, 5, 10, 20, 30, 55, 100] {
        rows.push(vec![format!("<= {probe}%"), format!("{:.4}", cdf.cumulative_at(probe))]);
    }
    print_table(&["Buffer utilization", "Cumulative probability"], &rows);
    println!(
        "\nZero-occupancy cycles: {} (paper: ~96%)",
        pct(cdf.zero_fraction())
    );
    println!(
        "Cycles with occupancy <= 10%: {} (paper: ~100% of contended cycles stay under 10%)",
        pct(cdf.cumulative_at(10))
    );
    println!("Total cycles observed: {}", cdf.total_cycles());
}
