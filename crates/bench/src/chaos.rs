//! Deterministic chaos harness: randomized permanent+transient fault
//! schedules × kernels × **both stepping modes**, with invariants
//! asserted on every run.
//!
//! The graceful-degradation companion to [`crate::faults`]: where the
//! fault sweep measures recovery under *transient* loss, the chaos
//! harness throws randomized *schedules* — permanently dead RCUs, dead
//! links and dead home-CPM nodes mixed with transient drop/corrupt
//! windows — at the platform and checks that every run upholds the
//! robustness contract:
//!
//! 1. **terminates** — `run_kernel` returns `Ok` or a typed error,
//!    never a hang (bounded by the no-progress window × attempt budget);
//! 2. **bit-exact** — completed runs match the fixed-point reference
//!    interpreter checksum exactly, faults or not;
//! 3. **transients recover** — runs that finished without a kernel-level
//!    retry recovered every watchdog-detected loss;
//! 4. **reports are consistent** — degradation reports agree with the
//!    schedule and with the run's own cycle accounting;
//! 5. **mode-invariant** — both stepping modes produce the identical
//!    outcome (common-random-number schedules make this a paired
//!    comparison).
//!
//! Schedules are derived purely from the cell seed (common random
//! numbers), so the whole grid is reproducible and thread-count
//! invariant. The `snack-chaos` binary drives this module and writes
//! `BENCH_chaos.json`.

use crate::sweep::parallel_map;
use crate::table::print_table;
use snacknoc_compiler::{build, MapperConfig};
use snacknoc_core::{
    DegradationReport, Fixed, PlatformConfig, PlatformError, RecoveryConfig, SnackPlatform,
};
use snacknoc_noc::{Dir, FaultPlan, LinkFaultKind, Mesh, NocConfig, NocPreset, NodeId, Stepping};
use snacknoc_prng::Rng;
use snacknoc_workloads::kernels::Kernel;
use std::io::{self, Write};

/// The no-progress window chaos cells run under: small enough that a
/// stalled attempt escalates to remap/failover quickly, comfortably
/// above [`SnackPlatform::MIN_NO_PROGRESS_WINDOW`].
pub const CHAOS_WINDOW: u64 = 8_192;

/// One randomized fault schedule, derived deterministically from a seed.
#[derive(Clone, Debug)]
pub struct ChaosSchedule {
    /// The generated fault plan.
    pub plan: FaultPlan,
    /// Corner CPMs on the platform (1 or 4; a dead home corner needs a
    /// standby to fail over to, and single-CPM cells exercise the typed
    /// unrecoverable path instead).
    pub cpm_count: usize,
    /// Permanent RCU/node deaths scheduled.
    pub dead_rcus: usize,
    /// Permanent link deaths scheduled.
    pub dead_links: usize,
    /// Whether any transient fault source (global rates or outage
    /// windows) is active.
    pub transient: bool,
}

fn random_link(rng: &mut Rng, mesh: &Mesh) -> (NodeId, Dir) {
    loop {
        let node = mesh
            .nodes()
            .nth(rng.range_usize(0..mesh.node_count()))
            .expect("index in range");
        let dir = Dir::ROUTER_DIRS[rng.range_usize(0..Dir::ROUTER_DIRS.len())];
        if mesh.neighbor(node, dir).is_some() {
            return (node, dir);
        }
    }
}

/// Generates the schedule for `seed`: an independent mix of global
/// transient rates, per-link outage windows, permanent RCU deaths and a
/// permanent link death, on a 1- or 4-CPM platform. Identical for every
/// stepping mode and worker count (pure function of the seed).
pub fn chaos_schedule(mesh: &Mesh, seed: u64) -> ChaosSchedule {
    let mut rng = Rng::new(seed ^ 0xC4A0_5EED_0000_0000);
    let mut plan = FaultPlan::seeded(seed);
    let mut transient = false;
    if rng.flip() {
        plan = plan.with_drop_rate(rng.range_f64(0.005..0.04));
        transient = true;
    }
    if rng.flip() {
        plan = plan.with_corrupt_rate(rng.range_f64(0.005..0.04));
        transient = true;
    }
    for _ in 0..rng.range(0..3) {
        let (node, dir) = random_link(&mut rng, mesh);
        let start = rng.range(0..400);
        let end = start + rng.range(200..1_500);
        let kind = if rng.flip() {
            LinkFaultKind::Drop { rate: 1.0 }
        } else {
            LinkFaultKind::Corrupt { rate: 1.0 }
        };
        plan = plan.with_link_fault(node, dir, start, end, kind);
        transient = true;
    }
    // Death times are biased toward cycle 0 (dead at submission → a
    // proactive remap) with a mid-run tail (dies under the kernel → a
    // stall-quarantine-retry); both sit inside typical kernel latencies
    // so the degradation paths actually fire.
    let death_cycle = |rng: &mut Rng| if rng.flip() { 0 } else { rng.range(1..800) };
    let dead_rcus = rng.range_usize(0..3);
    for _ in 0..dead_rcus {
        let node = mesh
            .nodes()
            .nth(rng.range_usize(0..mesh.node_count()))
            .expect("index in range");
        let from = death_cycle(&mut rng);
        plan = plan.with_dead_rcu(node, from);
    }
    let dead_links = usize::from(rng.flip());
    if dead_links > 0 {
        let (node, dir) = random_link(&mut rng, mesh);
        let from = death_cycle(&mut rng);
        plan = plan.with_dead_link(node, dir, from);
    }
    let cpm_count = if rng.flip() { 4 } else { 1 };
    // Deaths can collide on one node; count distinct scheduled deaths.
    ChaosSchedule { plan, cpm_count, dead_rcus, dead_links, transient }
}

impl ChaosSchedule {
    /// No fault source at all: the run must be bit-identical to a
    /// fault-free platform.
    pub fn is_clean(&self) -> bool {
        !self.transient && self.dead_rcus == 0 && self.dead_links == 0
    }

    /// Whether the schedule contains permanent faults (the only legal
    /// source of an `Unrecoverable` verdict).
    pub fn has_permanent(&self) -> bool {
        self.dead_rcus > 0 || self.dead_links > 0
    }
}

/// One cell of the chaos grid: a kernel run under `chaos_schedule(seed)`
/// in **every** stepping mode.
#[derive(Clone, Copy, Debug)]
pub struct ChaosCell {
    /// The kernel to run.
    pub kernel: Kernel,
    /// Kernel input size.
    pub size: usize,
    /// Seed for kernel inputs, fault decisions and the schedule shape.
    pub seed: u64,
}

impl ChaosCell {
    /// Display name, `kernel-size/s<seed>`.
    pub fn name(&self) -> String {
        format!("{}-{}/s{}", self.kernel, self.size, self.seed)
    }
}

/// Everything one stepping mode's run could legally vary in — compared
/// for exact equality across the modes.
#[derive(Clone, Debug, PartialEq)]
struct ModeOutcome {
    outcome: String,
    cycles: u64,
    outputs: Vec<Fixed>,
    degradation: Option<DegradationReport>,
    detected: u64,
    recovered: u64,
    retries: u64,
    corrupt_detected: u64,
    injected: u64,
    dropped_packets: u64,
}

fn run_mode(cell: &ChaosCell, mode: Stepping) -> (ModeOutcome, ChaosSchedule, Vec<Fixed>) {
    let built = build(cell.kernel, cell.size, cell.seed);
    let cfg = NocConfig::preset(NocPreset::BiNoChs).with_stepping(mode);
    let sched = {
        // The schedule depends only on the mesh shape, identical across
        // modes; generate it before the platform borrows the config.
        let probe = SnackPlatform::new(cfg.clone()).expect("valid platform config");
        chaos_schedule(probe.mesh(), cell.seed)
    };
    let mut platform = SnackPlatform::with_cpm_count(cfg, sched.cpm_count)
        .expect("valid platform config");
    // MAC fusion off: intermediate values ride the transient-token ring —
    // exactly the traffic the schedule attacks.
    let mapper = MapperConfig::for_mesh(platform.mesh()).with_mac_fusion(false);
    let compiled = built.context.compile(built.root, &mapper).expect("kernel compiles");
    compiled.validate().expect("compiled kernel is well-formed");
    platform.set_fault_plan(sched.plan.clone()).expect("schedule plans are valid");
    platform.enable_recovery(RecoveryConfig::aggressive());
    let pcfg = PlatformConfig::default();
    platform
        .set_platform_config(PlatformConfig { no_progress_window: CHAOS_WINDOW, ..pcfg })
        .expect("chaos window is valid");
    let reference = built.context.interpret(built.root).expect("interpretable");
    // Bounded even in the worst case: the attempt budget × stall window
    // dominates; the 2M slack covers recovery backoff multiplication.
    let cap = 800 * compiled.len() as u64
        + u64::from(pcfg.max_kernel_attempts) * CHAOS_WINDOW
        + 2_000_000;
    let (outcome, cycles, outputs, degradation) = match platform.run_kernel(&compiled, cap) {
        Ok(run) => ("ok".to_string(), run.cycles, run.outputs.clone(), run.degradation),
        Err(PlatformError::KernelTimeout { cycles, .. }) => {
            ("timeout".to_string(), cycles, Vec::new(), None)
        }
        Err(PlatformError::Unrecoverable { resource, attempts, cycles, .. }) => {
            (format!("unrecoverable:{resource}/a{attempts}"), cycles, Vec::new(), None)
        }
        Err(e) => panic!("chaos cell {} failed to submit: {e}", cell.name()),
    };
    let rec = platform.recovery_stats();
    let counters = platform.fault_counters();
    (
        ModeOutcome {
            outcome,
            cycles,
            outputs,
            degradation,
            detected: rec.detected,
            recovered: rec.recovered,
            retries: rec.retries,
            corrupt_detected: rec.corrupt_detected,
            injected: counters.injected,
            dropped_packets: counters.dropped_packets,
        },
        sched,
        reference,
    )
}

/// The merged outcome of one chaos cell across both stepping modes.
#[derive(Clone, Debug)]
pub struct ChaosCellResult {
    /// Cell display name (`kernel-size/s<seed>`).
    pub name: String,
    /// `"ok"`, `"timeout"`, or `"unrecoverable:<resource>/a<attempts>"`.
    pub outcome: String,
    /// Whether completed outputs matched the reference interpreter
    /// bit-for-bit (`false` whenever the kernel did not complete).
    pub verified: bool,
    /// Final-attempt latency (time-to-verdict for errors), cycles.
    pub cycles: u64,
    /// Scheduled permanent RCU deaths.
    pub dead_rcus: usize,
    /// Scheduled permanent link deaths.
    pub dead_links: usize,
    /// Corner CPMs on the cell's platform.
    pub cpms: usize,
    /// Kernel-level remapped resubmissions taken.
    pub remaps: u32,
    /// Home-CPM failovers taken.
    pub failovers: u32,
    /// Cycles burned by abandoned attempts.
    pub penalty_cycles: u64,
    /// Watchdog re-issue attempts across the whole run.
    pub watchdog_retries: u64,
    /// Tokens the CPM watchdog declared lost.
    pub detected: u64,
    /// Detected tokens that subsequently retired normally.
    pub recovered: u64,
    /// Whether both stepping modes produced the identical outcome.
    pub modes_agree: bool,
    /// Invariant violations found (empty on a healthy run).
    pub violations: Vec<String>,
}

/// Runs one chaos cell in both stepping modes and checks every
/// invariant. Violations are *recorded*, not panicked — the harness
/// reports them so CI can fail with the full picture.
pub fn run_chaos_cell(cell: &ChaosCell) -> ChaosCellResult {
    let [dense, others @ ..] = Stepping::ALL;
    let (base, sched, reference) = run_mode(cell, dense);
    let mut violations = Vec::new();
    let mut modes_agree = true;
    for mode in others {
        let (other, _, _) = run_mode(cell, mode);
        if other != base {
            modes_agree = false;
            violations.push(format!(
                "{mode} stepping diverged from dense: {} @{} vs {} @{}",
                other.outcome, other.cycles, base.outcome, base.cycles
            ));
        }
    }
    let finished = base.outcome == "ok";
    let verified = finished && base.outputs == reference;
    if finished && !verified {
        violations.push("completed outputs do not match the reference checksum".into());
    }
    if sched.is_clean() {
        if !finished {
            violations.push(format!("clean schedule did not complete: {}", base.outcome));
        }
        if base.degradation.is_some() {
            violations.push("clean schedule produced a degradation report".into());
        }
    }
    let d = base.degradation.unwrap_or_default();
    if finished {
        if base.degradation.is_some_and(|d| !d.is_degraded()) {
            violations.push("degradation report present but reports nothing".into());
        }
        if let Some(d) = base.degradation {
            if d.final_attempt_cycles != base.cycles {
                violations.push(format!(
                    "report final_attempt_cycles {} != run cycles {}",
                    d.final_attempt_cycles, base.cycles
                ));
            }
            if d.total_cycles() != d.final_attempt_cycles + d.penalty_cycles {
                violations.push("report total_cycles is inconsistent".into());
            }
        }
        if d.penalty_cycles == 0 && base.recovered != base.detected {
            // No attempt was abandoned, so no detection was orphaned by a
            // quarantine: the transient watchdog must have healed all.
            violations.push(format!(
                "transients unrecovered without a kernel retry: {}/{}",
                base.recovered, base.detected
            ));
        }
        if sched.dead_links > 0 && base.degradation.is_none() {
            violations.push("permanently dead link but no degradation report".into());
        }
    }
    if base.outcome.starts_with("unrecoverable") && !sched.has_permanent() {
        violations.push("unrecoverable verdict without a permanent fault".into());
    }
    // Every watchdog retry belongs to a record counted once in `detected`,
    // and a record retries at most `max_retries` times, so retries stay
    // within that budget per detected loss on every run.
    let max_retries = RecoveryConfig::aggressive().max_retries;
    if base.retries > u64::from(max_retries) * base.detected {
        violations.push(format!(
            "{} watchdog retries exceed {max_retries} per detected loss ({} detected)",
            base.retries, base.detected
        ));
    }
    ChaosCellResult {
        name: cell.name(),
        outcome: base.outcome,
        verified,
        cycles: base.cycles,
        dead_rcus: sched.dead_rcus,
        dead_links: sched.dead_links,
        cpms: sched.cpm_count,
        remaps: d.remaps,
        failovers: d.failovers,
        penalty_cycles: d.penalty_cycles,
        watchdog_retries: d.watchdog_retries,
        detected: base.detected,
        recovered: base.recovered,
        modes_agree,
        violations,
    }
}

/// The declarative chaos grid the `snack-chaos` binary exposes.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// Cells in merge (output) order.
    pub cells: Vec<ChaosCell>,
    /// Worker threads (1 = serial; output is identical either way).
    pub threads: usize,
}

impl ChaosSpec {
    /// Builds the `kernels × seeds` grid (kernel outermost) at input
    /// `size`.
    pub fn grid(kernels: &[Kernel], size: usize, seeds: &[u64]) -> Self {
        let mut cells = Vec::with_capacity(kernels.len() * seeds.len());
        for &kernel in kernels {
            for &seed in seeds {
                cells.push(ChaosCell { kernel, size, seed });
            }
        }
        ChaosSpec { cells, threads: 1 }
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// The outcome of [`run_chaos`], in cell-index order.
#[derive(Clone, Debug)]
pub struct ChaosResults {
    /// Per-cell results, merged deterministically.
    pub cells: Vec<ChaosCellResult>,
}

/// Executes the grid over the deterministic worker pool.
pub fn run_chaos(spec: &ChaosSpec) -> ChaosResults {
    let cells = parallel_map(spec.cells.len(), spec.threads, |i| {
        run_chaos_cell(&spec.cells[i])
    });
    ChaosResults { cells }
}

impl ChaosResults {
    /// Zero invariant violations across the grid (every run terminated,
    /// verified, recovered its transients, reported consistently, and was
    /// bit-identical in both stepping modes).
    pub fn all_invariants_hold(&self) -> bool {
        self.cells.iter().all(|c| c.violations.is_empty())
    }

    /// Completed runs that actually exercised graceful degradation
    /// (remaps or failovers taken).
    pub fn degraded_completions(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.outcome == "ok" && (c.remaps > 0 || c.failovers > 0))
            .count()
    }

    /// The deterministic JSON report (`BENCH_chaos.json`): pure
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
            let violations = c
                .violations
                .iter()
                .map(|v| format!("\"{}\"", crate::sweep::json_escape(v)))
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(
                w,
                "    {{\"name\": \"{}\", \"outcome\": \"{}\", \"verified\": {}, \
                 \"cycles\": {}, \"dead_rcus\": {}, \"dead_links\": {}, \"cpms\": {}, \
                 \"remaps\": {}, \"failovers\": {}, \"penalty_cycles\": {}, \
                 \"watchdog_retries\": {}, \"detected\": {}, \"recovered\": {}, \
                 \"modes_agree\": {}, \"violations\": [{violations}]}}{comma}",
                crate::sweep::json_escape(&c.name),
                crate::sweep::json_escape(&c.outcome),
                c.verified,
                c.cycles,
                c.dead_rcus,
                c.dead_links,
                c.cpms,
                c.remaps,
                c.failovers,
                c.penalty_cycles,
                c.watchdog_retries,
                c.detected,
                c.recovered,
                c.modes_agree,
            )?;
        }
        writeln!(w, "  ],")?;
        writeln!(
            w,
            "  \"invariants_hold\": {}, \"degraded_completions\": {}",
            self.all_invariants_hold(),
            self.degraded_completions(),
        )?;
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
                    c.outcome.clone(),
                    c.cycles.to_string(),
                    if c.outcome != "ok" {
                        "-".into()
                    } else if c.verified {
                        "yes".into()
                    } else {
                        "NO".into()
                    },
                    format!("{}r/{}l", c.dead_rcus, c.dead_links),
                    format!("{}/{}", c.remaps, c.failovers),
                    format!("{}/{}", c.recovered, c.detected),
                    if c.modes_agree { "yes".into() } else { "NO".into() },
                    c.violations.len().to_string(),
                ]
            })
            .collect();
        print_table(
            &[
                "cell", "outcome", "cycles", "verified", "dead", "remap/fo", "recovered",
                "modes", "viol",
            ],
            &rows,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_schedules_are_seed_deterministic() {
        let p = SnackPlatform::new(NocConfig::preset(NocPreset::BiNoChs)).unwrap();
        let a = chaos_schedule(p.mesh(), 42);
        let b = chaos_schedule(p.mesh(), 42);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.cpm_count, b.cpm_count);
        let c = chaos_schedule(p.mesh(), 43);
        assert!(a.plan != c.plan || a.cpm_count != c.cpm_count, "seeds vary the schedule");
    }

    #[test]
    fn chaos_cell_holds_invariants_and_is_thread_invariant() {
        let spec = ChaosSpec::grid(&[Kernel::Mac], 8, &[1, 2, 3]);
        let serial = run_chaos(&spec);
        let parallel = run_chaos(&spec.clone().with_threads(4));
        assert_eq!(serial.deterministic_json(), parallel.deterministic_json());
        assert!(
            serial.all_invariants_hold(),
            "violations:\n{}",
            serial.deterministic_json()
        );
        assert!(serial.cells.iter().all(|c| c.modes_agree));
    }
}
