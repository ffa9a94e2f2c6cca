//! The paper-figure and table binaries reject what they do not
//! understand: a misspelled flag or an unparsable value exits 2 and names
//! the offending token, instead of rerunning a figure with its defaults.

use std::process::Command;

/// Every figure and table binary, with the path Cargo built it at.
const BINARIES: [(&str, &str); 13] = [
    ("fig1_resource_selection", env!("CARGO_BIN_EXE_fig1_resource_selection")),
    ("fig2_slack_timeseries", env!("CARGO_BIN_EXE_fig2_slack_timeseries")),
    ("fig3_buffer_cdf", env!("CARGO_BIN_EXE_fig3_buffer_cdf")),
    ("fig9_kernel_speedup", env!("CARGO_BIN_EXE_fig9_kernel_speedup")),
    ("fig10_uncore_breakdown", env!("CARGO_BIN_EXE_fig10_uncore_breakdown")),
    ("fig11_lulesh_spmv", env!("CARGO_BIN_EXE_fig11_lulesh_spmv")),
    ("fig12_qos_impact", env!("CARGO_BIN_EXE_fig12_qos_impact")),
    ("fig13_scaling", env!("CARGO_BIN_EXE_fig13_scaling")),
    ("ablation_report", env!("CARGO_BIN_EXE_ablation_report")),
    ("ext_coherent_traffic", env!("CARGO_BIN_EXE_ext_coherent_traffic")),
    ("ext_decentralized_cpm", env!("CARGO_BIN_EXE_ext_decentralized_cpm")),
    ("table1_configs", env!("CARGO_BIN_EXE_table1_configs")),
    ("table2_area_power", env!("CARGO_BIN_EXE_table2_area_power")),
];

/// Runs `path` with `args` and requires a usage error naming `token`.
fn assert_usage_error(name: &str, path: &str, args: &[&str], token: &str) {
    let out = Command::new(path).args(args).output().expect("the binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: stderr {stderr}");
    assert!(stderr.contains(token), "{name} {args:?} must name '{token}': {stderr}");
}

#[test]
fn a_misspelled_flag_exits_2() {
    for (name, path) in BINARIES {
        assert_usage_error(name, path, &["--sacle", "0.5"], "--sacle");
    }
}

#[test]
fn a_fractional_seed_exits_2() {
    let (name, path) = BINARIES[2];
    assert_usage_error(name, path, &["--seed", "1.9"], "1.9");
}
