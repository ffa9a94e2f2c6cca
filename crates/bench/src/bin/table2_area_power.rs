//! Table II — area and power per functional unit, platform scaling, and
//! the Table V CPU comparison.

use snacknoc_bench::args::CliArgs;
use snacknoc_bench::table::print_table;
use snacknoc_cost::{
    cpm_cost, platform_cost, rcu_cost, CPM_ITEMS, RCU_ITEMS, TERAFLOPS_POWER_RANGE_W,
    XEON_E5_2660_V3,
};

const USAGE: &str = "usage: table2_area_power";

fn main() {
    CliArgs::parse(USAGE, &[], &[]);
    println!("Table II: Area and Power Overhead per Functional Unit (45nm, 1GHz)\n");
    let item_rows = |items: &[snacknoc_cost::CostItem]| {
        items
            .iter()
            .map(|i| {
                vec![
                    i.name.to_string(),
                    format!("{:.1}m", i.cost.power_w * 1e3),
                    format!("{:.4}", i.cost.area_mm2),
                ]
            })
            .collect::<Vec<_>>()
    };
    println!("Central Packet Manager (CPM):");
    print_table(&["Component", "Power (W)", "Area (mm2)"], &item_rows(&CPM_ITEMS));
    println!("\nRouter Compute Unit (RCU):");
    print_table(&["Component", "Power (W)", "Area (mm2)"], &item_rows(&RCU_ITEMS));
    println!(
        "\nOne CPM: {} | One RCU: {}",
        cpm_cost(),
        rcu_cost()
    );

    println!("\nPlatform totals (paper values in parentheses):");
    let paper = [(16, 0.13, 0.90), (32, 0.20, 1.16), (64, 0.34, 1.67), (128, 0.61, 2.71), (147, 0.70, 3.02)];
    let rows: Vec<Vec<String>> = paper
        .iter()
        .map(|&(n, pp, pa)| {
            let c = platform_cost(n);
            vec![
                format!("CPM + {n} RCU"),
                format!("{:.2} ({:.2})", c.power_w, pp),
                format!("{:.2} ({:.2})", c.area_mm2, pa),
            ]
        })
        .collect();
    print_table(&["Configuration", "Power (W)", "Area (mm2)"], &rows);

    println!("\nTable V: Area and Power of CPU vs SnackNoC");
    let snack = platform_cost(16);
    print_table(
        &["Platform", "Power (W)", "Area (mm2)"],
        &[
            vec![
                "Intel Xeon E5 2660 v3".into(),
                format!("{}", XEON_E5_2660_V3.power_w),
                format!("{}", XEON_E5_2660_V3.area_mm2),
            ],
            vec![
                "SnackNoC (CPM + 16 RCU)".into(),
                format!("{:.2}", snack.power_w),
                format!("{:.2}", snack.area_mm2),
            ],
        ],
    );
    let frac = platform_cost(147).power_w / TERAFLOPS_POWER_RANGE_W.0;
    println!(
        "\n147-RCU SnackNoC vs Intel Teraflops (65W): {:.1}% of its power (paper: ~1%).",
        100.0 * frac
    );
}
