//! Fig. 9 — SnackNoC kernel performance vs. CPU cores.
//!
//! Runs the four kernels on a zero-load 16-RCU SnackNoC (Table IV config)
//! and compares against the Haswell CPU model at 1/2/4/8 threads, all
//! normalised to single-core time — the paper's Fig. 9 bars.
//!
//! Kernels run at simulation-scale sizes (`sim_size`); speedups are ratios
//! of rates, so they are comparable with the paper's full-scale runs as
//! long as both platforms are in steady state.

use snacknoc_bench::args::CliArgs;
use snacknoc_bench::table::{print_table, ratio};
use snacknoc_bench::{kernel_to_cpu, run_snack_kernel, FIG9_SEED};
use snacknoc_compiler::{op_count, sim_size};
use snacknoc_cpu::CpuModel;
use snacknoc_noc::NocConfig;
use snacknoc_workloads::kernels::Kernel;

const USAGE: &str = "usage: fig9_kernel_speedup";

fn main() {
    CliArgs::parse(USAGE, &[], &[]);
    println!("Fig. 9: SnackNoC kernel performance vs. CPU cores");
    println!("(normalised to 1 Haswell core; paper values in parentheses)\n");
    let cpu = CpuModel::haswell();
    let paper_snack = [6.15, 2.76, 2.57, 2.09];
    let paper_eight = [7.9, 7.9, 7.6, 5.4];
    let mut rows = Vec::new();
    for (i, kernel) in Kernel::ALL.into_iter().enumerate() {
        let size = sim_size(kernel);
        let run = run_snack_kernel(kernel, size, NocConfig::default(), FIG9_SEED);
        assert!(run.verified, "{kernel}: outputs must match the reference");
        let ops = op_count(kernel, size);
        let ck = kernel_to_cpu(kernel);
        let t1 = cpu.kernel_seconds(ck, ops, 1);
        let bars: Vec<f64> = [1, 2, 4, 8]
            .iter()
            .map(|&threads| t1 / cpu.kernel_seconds(ck, ops, threads))
            .collect();
        let snack = t1 / run.seconds();
        rows.push(vec![
            kernel.name().to_string(),
            format!("{size}"),
            format!("{}", run.cycles),
            ratio(bars[0]),
            ratio(bars[1]),
            ratio(bars[2]),
            format!("{} ({})", ratio(bars[3]), ratio(paper_eight[i])),
            format!("{} ({})", ratio(snack), ratio(paper_snack[i])),
        ]);
    }
    print_table(
        &["Kernel", "Size", "SnackCycles", "1 Core", "2 Cores", "4 Cores", "8 Cores", "SnackNoC"],
        &rows,
    );
    println!("\nAll SnackNoC outputs verified bit-exact against the fixed-point interpreter.");
}
