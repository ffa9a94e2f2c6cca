//! Deterministic fault-injection sweep: `kernel × fault scenario × seed`.
//!
//! The robustness companion to [`crate::sweep`]: every cell compiles one
//! paper kernel, installs a seeded [`FaultPlan`] on the platform, enables
//! the CPM token-loss watchdog, and runs the kernel to completion (or a
//! structured [`PlatformError::KernelTimeout`]). Per-cell results carry the
//! full fault/recovery accounting — injected/dropped/corrupted packets,
//! detected/recovered tokens, retry counts and recovery-latency
//! percentiles — next to the usual cycle counts and bit-exactness check
//! against the fixed-point reference interpreter.
//!
//! Cells run over [`crate::sweep::parallel_map`], so the merged simulation
//! output is bit-identical for any `--threads` value (proved by
//! `tests/determinism.rs`). The `snack-faults` binary drives this module
//! and writes `BENCH_faults.json`.

use crate::sweep::parallel_map;
use crate::table::print_table;
use snacknoc_compiler::{build, MapperConfig};
use snacknoc_core::{PlatformError, RecoveryConfig, SnackPlatform};
use snacknoc_noc::{FaultPlan, NocConfig, NocPreset};
use snacknoc_workloads::kernels::Kernel;
use std::fmt;
use std::io::{self, Write};

/// The fault condition one sweep cell applies to its network.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultScenario {
    /// No faults at all (the bit-identity baseline: must reproduce the
    /// fault-free run exactly).
    Clean,
    /// Global per-packet drop probability on SnackNoC data tokens.
    Drop {
        /// Per-packet drop probability in `[0, 1]`.
        rate: f64,
    },
    /// Global per-packet payload-corruption probability on data tokens.
    Corrupt {
        /// Per-packet corruption probability in `[0, 1]`.
        rate: f64,
    },
}

impl fmt::Display for FaultScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultScenario::Clean => write!(f, "clean"),
            FaultScenario::Drop { rate } => write!(f, "drop{rate}"),
            FaultScenario::Corrupt { rate } => write!(f, "corrupt{rate}"),
        }
    }
}

impl FaultScenario {
    /// The [`FaultPlan`] this scenario compiles to for `seed`.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        match *self {
            FaultScenario::Clean => FaultPlan::none(),
            FaultScenario::Drop { rate } => FaultPlan::seeded(seed).with_drop_rate(rate),
            FaultScenario::Corrupt { rate } => FaultPlan::seeded(seed).with_corrupt_rate(rate),
        }
    }
}

/// One cell of the fault sweep grid.
#[derive(Clone, Copy, Debug)]
pub struct FaultCell {
    /// The kernel to run.
    pub kernel: Kernel,
    /// Kernel input size.
    pub size: usize,
    /// The fault condition.
    pub scenario: FaultScenario,
    /// Seed for both the kernel inputs and the fault decisions.
    pub seed: u64,
}

impl FaultCell {
    /// Display name, `kernel-size/scenario/s<seed>`.
    pub fn name(&self) -> String {
        format!("{}-{}/{}/s{}", self.kernel, self.size, self.scenario, self.seed)
    }
}

/// The declarative fault sweep the `snack-faults` binary exposes.
#[derive(Clone, Debug)]
pub struct FaultSweepSpec {
    /// Cells in merge (output) order.
    pub cells: Vec<FaultCell>,
    /// Worker threads (1 = serial; output is identical either way).
    pub threads: usize,
    /// Recovery policy installed on every cell's CPMs.
    pub recovery: RecoveryConfig,
}

impl FaultSweepSpec {
    /// Builds the `kernels × scenarios × seeds` grid (kernel outermost,
    /// seed innermost) at kernel input `size`, recovery enabled with the
    /// aggressive defaults.
    pub fn grid(
        kernels: &[Kernel],
        size: usize,
        scenarios: &[FaultScenario],
        seeds: &[u64],
    ) -> Self {
        let mut cells = Vec::with_capacity(kernels.len() * scenarios.len() * seeds.len());
        for &kernel in kernels {
            for &scenario in scenarios {
                for &seed in seeds {
                    cells.push(FaultCell { kernel, size, scenario, seed });
                }
            }
        }
        FaultSweepSpec { cells, threads: 1, recovery: RecoveryConfig::aggressive() }
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// The merged outcome of one fault cell.
#[derive(Clone, Debug)]
pub struct FaultCellResult {
    /// Cell display name (`kernel-size/scenario/s<seed>`).
    pub name: String,
    /// Whether the kernel completed (vs. aborting with a
    /// [`PlatformError::KernelTimeout`]).
    pub finished: bool,
    /// Whether the outputs matched the reference interpreter bit-for-bit
    /// (always `false` when the kernel did not finish).
    pub verified: bool,
    /// Kernel completion latency in cycles (time-to-abort if unfinished).
    pub cycles: u64,
    /// Fault events injected by the network fault layer.
    pub injected: u64,
    /// Whole packets dropped from the wire.
    pub dropped_packets: u64,
    /// Packets delivered with corrupted payloads.
    pub corrupted_packets: u64,
    /// Tokens the CPM watchdog declared lost.
    pub detected: u64,
    /// Detected tokens that subsequently retired normally.
    pub recovered: u64,
    /// Re-issue attempts (overflow replays + producer retransmissions).
    pub retries: u64,
    /// Watchdog sweeps that found at least one overdue token.
    pub watchdog_fires: u64,
    /// Tokens discarded on arrival for failing their checksum.
    pub corrupt_detected: u64,
    /// Median detection-to-retirement recovery latency, cycles (0 when
    /// nothing was recovered).
    pub recovery_p50: u64,
}

/// Runs one fault cell to completion (never panics on a timeout: an
/// unrecoverable fault condition is a *result*, not a harness bug).
pub fn run_fault_cell(cell: &FaultCell, recovery: RecoveryConfig) -> FaultCellResult {
    let built = build(cell.kernel, cell.size, cell.seed);
    let cfg = NocConfig::preset(NocPreset::BiNoChs);
    let mut platform = SnackPlatform::new(cfg).expect("valid platform config");
    // MAC fusion off: the distributed mapping routes intermediate values
    // over the transient-token ring — exactly the traffic the fault plan
    // targets. (Fused mappings keep values RCU-local and would give the
    // fault layer nothing to hit.)
    let mapper = MapperConfig::for_mesh(platform.mesh()).with_mac_fusion(false);
    let compiled = built.context.compile(built.root, &mapper).expect("kernel compiles");
    compiled.validate().expect("compiled kernel is well-formed");
    platform
        .set_fault_plan(cell.scenario.plan(cell.seed))
        .expect("scenario plans are valid");
    platform.enable_recovery(recovery);
    // Generous cap: recovery backoff can multiply transit time. The
    // platform's no-progress watchdog bounds truly-stuck runs well below
    // this.
    let cap = 800 * compiled.len() as u64 + 2_000_000;
    let (finished, verified, cycles) = match platform.run_kernel(&compiled, cap) {
        Ok(run) => {
            let reference = built.context.interpret(built.root).expect("interpretable");
            (true, run.outputs == reference, run.cycles)
        }
        Err(PlatformError::KernelTimeout { cycles, .. }) => (false, false, cycles),
        Err(e) => panic!("fault cell {} failed to submit: {e}", cell.name()),
    };
    let counters = platform.fault_counters();
    let rec = platform.recovery_stats();
    FaultCellResult {
        name: cell.name(),
        finished,
        verified,
        cycles,
        injected: counters.injected,
        dropped_packets: counters.dropped_packets,
        corrupted_packets: counters.corrupted_packets,
        detected: rec.detected,
        recovered: rec.recovered,
        retries: rec.retries,
        watchdog_fires: rec.watchdog_fires,
        corrupt_detected: rec.corrupt_detected,
        recovery_p50: if rec.recovery_latency.samples() > 0 {
            rec.recovery_latency.percentile(0.5)
        } else {
            0
        },
    }
}

/// The outcome of [`run_fault_sweep`], in cell-index order.
#[derive(Clone, Debug)]
pub struct FaultSweepResults {
    /// Per-cell results, merged deterministically.
    pub cells: Vec<FaultCellResult>,
}

/// Executes the sweep over the deterministic worker pool.
pub fn run_fault_sweep(spec: &FaultSweepSpec) -> FaultSweepResults {
    let recovery = spec.recovery;
    let cells = parallel_map(spec.cells.len(), spec.threads, |i| {
        run_fault_cell(&spec.cells[i], recovery)
    });
    FaultSweepResults { cells }
}

impl FaultSweepResults {
    /// The deterministic JSON report (`BENCH_faults.json`): pure
    /// simulation outputs, byte-identical for any worker-thread count.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`, including the final flush.
    pub fn write_json(&self, mut w: impl Write) -> io::Result<()> {
        writeln!(w, "{{")?;
        writeln!(w, "  \"cells\": [")?;
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 == self.cells.len() { "" } else { "," };
            writeln!(
                w,
                "    {{\"name\": \"{}\", \"finished\": {}, \"verified\": {}, \
                 \"cycles\": {}, \"injected\": {}, \"dropped_packets\": {}, \
                 \"corrupted_packets\": {}, \"detected\": {}, \"recovered\": {}, \
                 \"retries\": {}, \"watchdog_fires\": {}, \"corrupt_detected\": {}, \
                 \"recovery_p50\": {}}}{comma}",
                crate::sweep::json_escape(&c.name),
                c.finished,
                c.verified,
                c.cycles,
                c.injected,
                c.dropped_packets,
                c.corrupted_packets,
                c.detected,
                c.recovered,
                c.retries,
                c.watchdog_fires,
                c.corrupt_detected,
                c.recovery_p50,
            )?;
        }
        writeln!(w, "  ]")?;
        writeln!(w, "}}")?;
        w.flush()
    }

    /// The report as a string (what the determinism tests compare).
    ///
    /// # Panics
    ///
    /// Never — writing to a `Vec` is infallible.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        let mut buf = Vec::new();
        self.write_json(&mut buf).expect("vec write");
        String::from_utf8(buf).expect("json is utf-8")
    }

    /// Prints the per-cell summary table.
    pub fn print_table(&self) {
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.name.clone(),
                    c.cycles.to_string(),
                    if !c.finished {
                        "TIMEOUT".into()
                    } else if c.verified {
                        "yes".into()
                    } else {
                        "NO".into()
                    },
                    c.injected.to_string(),
                    format!("{}/{}", c.recovered, c.detected),
                    c.retries.to_string(),
                    c.recovery_p50.to_string(),
                ]
            })
            .collect();
        print_table(
            &["cell", "cycles", "verified", "injected", "recovered", "retries", "rec p50"],
            &rows,
        );
    }

    /// Every cell either completed bit-exactly or (when the fault load is
    /// unrecoverable) terminated with a structured timeout — and every
    /// *finished* cell recovered exactly what it detected.
    pub fn all_consistent(&self) -> bool {
        self.cells.iter().all(|c| {
            if c.finished {
                c.verified && c.recovered == c.detected
            } else {
                // Timeouts must come from genuinely unrecovered losses.
                c.detected > c.recovered
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_spec() -> FaultSweepSpec {
        FaultSweepSpec::grid(
            &[Kernel::Mac],
            8,
            &[
                FaultScenario::Clean,
                FaultScenario::Drop { rate: 0.05 },
                FaultScenario::Corrupt { rate: 0.05 },
            ],
            &[1],
        )
    }

    #[test]
    fn fault_sweep_is_thread_count_invariant_and_consistent() {
        let serial = run_fault_sweep(&smoke_spec());
        let parallel = run_fault_sweep(&smoke_spec().with_threads(4));
        assert_eq!(serial.deterministic_json(), parallel.deterministic_json());
        assert!(serial.all_consistent(), "{}", serial.deterministic_json());
        let clean = &serial.cells[0];
        assert!(clean.finished && clean.verified && clean.injected == 0);
    }

    #[test]
    fn clean_scenario_matches_the_fault_free_baseline_bit_for_bit() {
        // Zero-cost when disabled: a Clean cell (FaultPlan::none() +
        // recovery off) must report the same cycle count as a platform
        // that never heard of fault plans, at the identical mapping.
        let cell = FaultCell {
            kernel: Kernel::Spmv,
            size: 8,
            scenario: FaultScenario::Clean,
            seed: 3,
        };
        let with_plan = run_fault_cell(&cell, RecoveryConfig::default());

        let built = build(Kernel::Spmv, 8, 3);
        let mut platform = SnackPlatform::new(NocConfig::preset(NocPreset::BiNoChs)).unwrap();
        let mapper = MapperConfig::for_mesh(platform.mesh()).with_mac_fusion(false);
        let compiled = built.context.compile(built.root, &mapper).unwrap();
        let baseline = platform.run_kernel(&compiled, 10_000_000).expect("finishes");
        assert_eq!(with_plan.cycles, baseline.cycles);
        assert!(with_plan.verified);
    }
}
