//! Shared experiment drivers used by the per-figure binaries.

use snacknoc_compiler::{build, MapperConfig};
use snacknoc_core::{Fixed, SnackPlatform};
use snacknoc_cpu::CpuKernel;
use snacknoc_noc::NocConfig;
use snacknoc_workloads::kernels::Kernel;

/// The RCU/NoC clock of Table IV, GHz.
pub const SNACK_FREQ_GHZ: f64 = 1.0;

/// The seed used for Fig. 9 kernel inputs.
pub const FIG9_SEED: u64 = 42;

/// Bridges the workloads-crate kernel enum to the CPU model's.
pub fn kernel_to_cpu(kernel: Kernel) -> CpuKernel {
    match kernel {
        Kernel::Sgemm => CpuKernel::Sgemm,
        Kernel::Reduction => CpuKernel::Reduction,
        Kernel::Mac => CpuKernel::Mac,
        Kernel::Spmv => CpuKernel::Spmv,
    }
}

/// Outcome of running one kernel on a zero-load SnackNoC.
#[derive(Clone, Debug)]
pub struct SnackKernelRun {
    /// The kernel.
    pub kernel: Kernel,
    /// The size it ran at.
    pub size: usize,
    /// Completion latency in SnackNoC (1 GHz) cycles.
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: usize,
    /// Whether the simulated outputs matched the fixed-point reference
    /// interpreter bit-for-bit.
    pub verified: bool,
    /// The outputs.
    pub outputs: Vec<Fixed>,
}

impl SnackKernelRun {
    /// Wall-clock seconds at the SnackNoC frequency.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / (SNACK_FREQ_GHZ * 1e9)
    }
}

/// Compiles `kernel` at `size` and runs it to completion on a zero-load
/// SnackNoC platform (the paper's Fig. 9 measurement condition),
/// verifying the result against the reference interpreter.
///
/// # Panics
///
/// Panics if the kernel fails to compile, validate or finish — all of
/// which indicate a platform bug rather than an experimental condition.
pub fn run_snack_kernel(kernel: Kernel, size: usize, cfg: NocConfig, seed: u64) -> SnackKernelRun {
    let built = build(kernel, size, seed);
    let mut platform = SnackPlatform::new(cfg).expect("valid platform config");
    let mapper = MapperConfig::for_mesh(platform.mesh());
    let compiled = built.context.compile(built.root, &mapper).expect("kernel compiles");
    compiled.validate().expect("compiled kernel is well-formed");
    let instructions = compiled.len();
    let cap = 200 * instructions as u64 + 1_000_000;
    let run = platform
        .run_kernel(&compiled, cap)
        .unwrap_or_else(|e| panic!("{kernel} did not finish within {cap} cycles: {e}"));
    let reference = built.context.interpret(built.root).expect("interpretable");
    SnackKernelRun {
        kernel,
        size,
        cycles: run.cycles,
        instructions,
        verified: run.outputs == reference,
        outputs: run.outputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snack_kernel_runs_verify_against_interpreter() {
        for kernel in Kernel::ALL {
            let run = run_snack_kernel(kernel, 10, NocConfig::default(), 7);
            assert!(run.verified, "{kernel} simulation must match the interpreter");
            assert!(run.cycles > 0);
        }
    }
}
