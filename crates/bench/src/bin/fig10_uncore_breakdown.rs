//! Fig. 10 — uncore power and area breakdown with SnackNoC (16-core CMP).

use snacknoc_bench::args::CliArgs;
use snacknoc_bench::table::print_table;
use snacknoc_cost::uncore_breakdown;

const USAGE: &str = "usage: fig10_uncore_breakdown [--cores N]";

fn main() {
    let args = CliArgs::parse(USAGE, &["cores"], &[]);
    let cores = args.u64_or("cores", 16) as usize;
    println!("Fig. 10: Uncore power and area with SnackNoC ({cores}-core CMP)\n");
    let slices = uncore_breakdown(cores);
    let paper: &[(&str, f64, f64)] = &[
        ("L2 Cache", 73.7, 83.2),
        ("L1 Cache", 18.7, 13.3),
        ("Baseline NoC", 6.0, 2.4),
        ("SnackNoC Additions", 1.6, 1.1),
    ];
    let rows: Vec<Vec<String>> = slices
        .iter()
        .map(|s| {
            let p = paper.iter().find(|(n, _, _)| *n == s.name);
            let (pp, pa) = p.map(|&(_, a, b)| (a, b)).unwrap_or((f64::NAN, f64::NAN));
            vec![
                s.name.to_string(),
                format!("{:.3} W", s.cost.power_w),
                if cores == 16 {
                    format!("{:.1}% ({pp}%)", s.power_pct)
                } else {
                    format!("{:.1}%", s.power_pct)
                },
                format!("{:.2} mm2", s.cost.area_mm2),
                if cores == 16 {
                    format!("{:.1}% ({pa}%)", s.area_pct)
                } else {
                    format!("{:.1}%", s.area_pct)
                },
            ]
        })
        .collect();
    print_table(&["Component", "Power", "Power % (paper)", "Area", "Area % (paper)"], &rows);
    println!("\nSnackNoC stays ~1-2% of the uncore in both power and area.");
}
