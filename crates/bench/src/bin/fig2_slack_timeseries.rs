//! Fig. 2 — NoC crossbar (a) and link (b) usage over time on DAPPER.
//!
//! Reproduces the slack characterisation of paper §II-A for the four
//! quartile-representative benchmarks: FMM (low), Cholesky (low),
//! LULESH (medium-high) and Graph500 (high). Prints per-window peak and
//! per-router median crossbar usage plus link usage, and an ASCII sketch
//! of the max-across-routers series.
//!
//! Arguments: `--scale <f>` (default 0.01), `--seed <n>`, `--window <n>`
//! (sampling window in cycles, default 1000), `--csv <prefix>` (also
//! write `<prefix>-<bench>-xbar.csv` / `-link.csv` series for external
//! plotting; a series that cannot be written exits 1).

use snacknoc_bench::args::{write_or_exit, CliArgs};
use snacknoc_bench::csv::{write_crossbar_series, write_link_series};
use snacknoc_bench::table::{pct, print_table};
use snacknoc_noc::NocConfig;
use snacknoc_workloads::runner::run_benchmark;
use snacknoc_workloads::suite::{profile, Benchmark};

const BIN: &str = "fig2_slack_timeseries";
const USAGE: &str =
    "usage: fig2_slack_timeseries [--scale F] [--seed N] [--window CYCLES] [--csv PREFIX]";

fn sketch(series: &[f64], cols: usize, peak: f64) -> String {
    if series.is_empty() || peak <= 0.0 {
        return String::new();
    }
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let bucket = series.len().div_ceil(cols);
    series
        .chunks(bucket)
        .map(|c| {
            let m = c.iter().copied().fold(0.0, f64::max) / peak;
            glyphs[((m * (glyphs.len() - 1) as f64).round() as usize).min(glyphs.len() - 1)]
        })
        .collect()
}

fn main() {
    let args = CliArgs::parse(USAGE, &["scale", "seed", "window", "csv"], &[]);
    let scale = args.f64_or("scale", 0.01);
    let seed = args.u64_or("seed", 11);
    let window = args.u64_or("window", 1_000);
    let csv = args.str_opt("csv");
    println!("Fig. 2: NoC router crossbar and link usage over time (DAPPER)");
    println!("(workload scale {scale}, {window}-cycle windows, seed {seed})\n");
    let selected = [Benchmark::Fmm, Benchmark::Cholesky, Benchmark::Lulesh, Benchmark::Graph500];
    let paper_median = [0.008, 0.005, 0.093, 0.133];
    let mut rows = Vec::new();
    for (i, bench) in selected.into_iter().enumerate() {
        let p = profile(bench).scaled(scale);
        let cfg = NocConfig::dapper().with_sample_window(window);
        let r = run_benchmark(&p, cfg, seed).expect("valid config");
        assert!(r.finished, "{bench} must finish");
        // Max-across-routers crossbar series for the sketch.
        let windows = r.stats.crossbar_series(0).samples().len();
        let mut max_series = vec![0.0f64; windows];
        for router in 0..r.stats.router_count() {
            for (w, s) in r.stats.crossbar_series(router).samples().iter().enumerate() {
                max_series[w] = max_series[w].max(s.utilization);
            }
        }
        if let Some(prefix) = &csv {
            let stem = format!("{prefix}-{}", bench.name().to_lowercase());
            write_or_exit(BIN, &format!("{stem}-xbar.csv"), |w| write_crossbar_series(&r.stats, w));
            write_or_exit(BIN, &format!("{stem}-link.csv"), |w| write_link_series(&r.stats, w));
        }
        rows.push(vec![
            bench.name().to_string(),
            format!("{}", r.runtime_cycles),
            format!("{} ({})", pct(r.median_crossbar()), pct(paper_median[i])),
            pct(r.peak_crossbar()),
            pct(r.median_link()),
            pct(r.stats.peak_link_utilization()),
        ]);
        println!(
            "{:<10} xbar peak {:<7} |{}|",
            bench.name(),
            pct(r.peak_crossbar()),
            sketch(&max_series, 64, r.peak_crossbar())
        );
    }
    println!();
    print_table(
        &[
            "Benchmark",
            "Runtime",
            "Median xbar (paper)",
            "Peak xbar",
            "Median link",
            "Peak link",
        ],
        &rows,
    );
    println!("\nPaper: no link exceeds 18% utilization; LULESH median link 3.3%.");
}
