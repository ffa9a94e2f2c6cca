//! Paper-reproduction goldens: the simulated-cycle results EXPERIMENTS.md
//! reports, pinned exactly so that a hot-path rewrite cannot move them
//! quietly. Every kernel runs in every stepping mode and must match the
//! compiler's interpreter bit for bit. A change that moves a result on
//! purpose updates the golden here and the EXPERIMENTS.md row together.

use snacknoc::compiler::{build, sim_size, MapperConfig};
use snacknoc::core::SnackPlatform;
use snacknoc::noc::{NocConfig, Stepping};
use snacknoc::workloads::kernels::Kernel;

/// Runs `kernel` at `size` on a fresh zero-load `NocConfig::default()`
/// platform stepping in `mode`, with or without MAC fusion, checks its
/// outputs against `Context::interpret` and returns its cycles.
fn kernel_cycles(kernel: Kernel, size: usize, seed: u64, mac_fusion: bool, mode: Stepping) -> u64 {
    let built = build(kernel, size, seed);
    let mut p =
        SnackPlatform::new(NocConfig::default().with_stepping(mode)).expect("valid platform");
    let mapper = MapperConfig::for_mesh(p.mesh()).with_mac_fusion(mac_fusion);
    let compiled = built.context.compile(built.root, &mapper).expect("kernel compiles");
    let cap = 200 * compiled.len() as u64 + 1_000_000;
    let run = p
        .run_kernel(&compiled, cap)
        .unwrap_or_else(|e| panic!("{kernel}-{size} in {mode} stepping: {e}"));
    let reference = built.context.interpret(built.root).expect("interpretable");
    assert_eq!(run.outputs, reference, "{kernel}-{size} in {mode} stepping: outputs");
    run.cycles
}

/// Fig. 9: SnackNoC cycles per kernel at `sim_size`, seed 42 (what
/// `fig9_kernel_speedup` prints).
#[test]
fn fig9_snacknoc_cycles_match_the_goldens() {
    let goldens =
        [(Kernel::Sgemm, 7_178), (Kernel::Reduction, 4_295), (Kernel::Mac, 4_297), (Kernel::Spmv, 3_035)];
    for (kernel, golden) in goldens {
        for mode in Stepping::ALL {
            let cycles = kernel_cycles(kernel, sim_size(kernel), 42, true, mode);
            assert_eq!(cycles, golden, "Fig. 9 {kernel} in {mode} stepping");
        }
    }
}

/// The MAC-fusion ablation on SGEMM-16, seed 7 (what `ablation_report`
/// prints): inner products fused in one accumulator against distributed
/// multiplies reduced through ring tokens.
#[test]
fn mac_fusion_ablation_matches_the_goldens() {
    for (mac_fusion, golden) in [(true, 2_255), (false, 8_031)] {
        for mode in Stepping::ALL {
            let cycles = kernel_cycles(Kernel::Sgemm, 16, 7, mac_fusion, mode);
            assert_eq!(cycles, golden, "SGEMM-16 fusion={mac_fusion} in {mode} stepping");
        }
    }
}
