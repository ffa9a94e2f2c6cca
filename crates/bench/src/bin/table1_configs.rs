//! Table I — baseline NoC configurations.
//!
//! Prints the three state-of-the-art NoC baselines used throughout the
//! evaluation, exactly as configured in `snacknoc_noc::NocConfig`.

use snacknoc_bench::args::CliArgs;
use snacknoc_bench::table::print_table;
use snacknoc_noc::{NocConfig, NocPreset};

const USAGE: &str = "usage: table1_configs";

fn main() {
    CliArgs::parse(USAGE, &[], &[]);
    println!("Table I: Baseline NoC Configurations\n");
    let rows: Vec<Vec<String>> = NocPreset::ALL
        .iter()
        .map(|&p| {
            let c = NocConfig::preset(p);
            vec![
                p.to_string(),
                format!("{}-stage pipeline", c.pipeline_stages),
                format!("{}B", c.channel_width_bytes),
                format!("{}", c.vcs_per_vnet),
                format!("{}", c.buffers_per_vc),
            ]
        })
        .collect();
    print_table(
        &["NoC", "Router Microarchitecture", "Channel Width", "VCs/vnet", "Buffers/VC"],
        &rows,
    );
    println!("\nAll experiments use 3 virtual networks (CMP requests, CMP responses,");
    println!("SnackNoC) on a 4x4 mesh with corner memory controllers (Table IV).");
}
