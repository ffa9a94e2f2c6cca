//! The fault harness: one checker that runs a kernel under any fault
//! schedule in **both stepping modes** and applies the robustness
//! contract, and the grid that feeds it schedules.
//!
//! A *schedule* ([`ChaosSchedule`]) is a [`FaultPlan`] plus the
//! platform's CPM count. A grid cell draws its schedule from its
//! [`CellKind`]:
//!
//! * [`CellKind::Random`] — [`chaos_schedule`]: permanently dead RCUs,
//!   dead links and dead home-CPM nodes mixed with transient drop/corrupt
//!   windows, on a 1- or 4-CPM platform;
//! * [`CellKind::Clean`], [`CellKind::Drop`] and [`CellKind::Corrupt`] —
//!   no faults, or one global per-packet drop or corruption rate, on one
//!   CPM: the recovery-rate grid.
//!
//! [`check_schedule`] runs the kernel on BiNoCHS with MAC fusion off and
//! aggressive watchdog recovery, once per stepping mode, and records
//! every broken clause of the contract as a violation:
//!
//! 1. **terminates** — `run_kernel` returns `Ok` or a typed error,
//!    never a hang (bounded by the no-progress window × attempt budget);
//! 2. **bit-exact** — completed runs match the fixed-point reference
//!    interpreter checksum exactly, faults or not;
//! 3. **transients recover** — runs that finished without abandoning an
//!    attempt recovered every watchdog-detected loss, and a timeout left
//!    at least one detected loss unrecovered;
//! 4. **reports are consistent** — degradation reports agree with the
//!    schedule and with the run's own cycle accounting;
//! 5. **retries are bounded** — at most `max_retries` watchdog retries
//!    per detected loss;
//! 6. **mode-invariant** — both stepping modes produce the identical
//!    outcome, recovery and fault counters, RCU counters and network
//!    statistics (common-random-number schedules make this a paired
//!    comparison).
//!
//! Schedules are derived purely from the cell seed, so the whole grid is
//! reproducible and thread-count invariant. The `snack-chaos` binary
//! drives this module and writes `BENCH_chaos.json`.

use crate::perf::stats_fingerprint;
use crate::sweep::{json_escape, parallel_map};
use crate::table::print_table;
use snacknoc_compiler::{build, MapperConfig};
use snacknoc_core::{
    CompiledKernel, DegradationReport, Fixed, KernelRun, PlatformConfig, PlatformError,
    RecoveryConfig, SnackPlatform,
};
use snacknoc_noc::{Dir, FaultPlan, LinkFaultKind, Mesh, NocConfig, NocPreset, NodeId, Stepping};
use snacknoc_prng::Rng;
use snacknoc_workloads::kernels::Kernel;
use std::io::{self, Write};

/// The no-progress window checked runs use: small enough that a
/// stalled attempt escalates to remap/failover quickly, comfortably
/// above [`SnackPlatform::MIN_NO_PROGRESS_WINDOW`].
pub const CHAOS_WINDOW: u64 = 8_192;

/// The network every checked run uses (paper Table I's BiNoCHS).
fn noc_config() -> NocConfig {
    NocConfig::preset(NocPreset::BiNoChs)
}

fn noc_mesh() -> Mesh {
    let cfg = noc_config();
    Mesh::new(cfg.cols, cfg.rows)
}

/// A fault schedule: what [`check_schedule`] runs a kernel under.
#[derive(Clone, Debug)]
pub struct ChaosSchedule {
    /// The fault plan installed on the platform.
    pub plan: FaultPlan,
    /// Corner CPMs on the platform (1 or 4; a dead home corner needs a
    /// standby to fail over to, and single-CPM cells exercise the typed
    /// unrecoverable path instead).
    pub cpm_count: usize,
}

impl ChaosSchedule {
    /// Permanent RCU/node deaths scheduled.
    pub fn dead_rcus(&self) -> usize {
        self.plan.dead_rcus.len()
    }

    /// Permanent link deaths scheduled.
    pub fn dead_links(&self) -> usize {
        self.plan.links.iter().filter(|l| l.kind == LinkFaultKind::Dead).count()
    }

    /// No fault source at all: the run must complete undegraded.
    pub fn is_clean(&self) -> bool {
        !self.plan.enabled()
    }

    /// Whether the schedule contains permanent faults (the only legal
    /// source of an `Unrecoverable` verdict).
    pub fn has_permanent(&self) -> bool {
        self.plan.has_permanent_faults()
    }
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
    if rng.flip() {
        plan = plan.with_drop_rate(rng.range_f64(0.005..0.04));
    }
    if rng.flip() {
        plan = plan.with_corrupt_rate(rng.range_f64(0.005..0.04));
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
    }
    // Death times are biased toward cycle 0 (dead at submission → a
    // proactive remap) with a mid-run tail (dies under the kernel → a
    // stall-quarantine-retry); both sit inside typical kernel latencies
    // so the degradation paths actually fire.
    let death_cycle = |rng: &mut Rng| if rng.flip() { 0 } else { rng.range(1..800) };
    for _ in 0..rng.range_usize(0..3) {
        let node = mesh
            .nodes()
            .nth(rng.range_usize(0..mesh.node_count()))
            .expect("index in range");
        let from = death_cycle(&mut rng);
        plan = plan.with_dead_rcu(node, from);
    }
    if rng.flip() {
        let (node, dir) = random_link(&mut rng, mesh);
        let from = death_cycle(&mut rng);
        plan = plan.with_dead_link(node, dir, from);
    }
    let cpm_count = if rng.flip() { 4 } else { 1 };
    ChaosSchedule { plan, cpm_count }
}

/// Where a grid cell's schedule comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CellKind {
    /// [`chaos_schedule`] of the cell seed.
    Random,
    /// No faults at all, one CPM.
    Clean,
    /// This global per-packet drop probability on SnackNoC data tokens,
    /// one CPM.
    Drop(f64),
    /// This global per-packet payload-corruption probability on data
    /// tokens, one CPM.
    Corrupt(f64),
}

impl CellKind {
    /// The fixed-rate kinds for `rates`: `Clean`, then a `Drop` and a
    /// `Corrupt` kind per nonzero rate.
    pub fn fixed_rates(rates: &[f64]) -> Vec<CellKind> {
        let mut kinds = vec![CellKind::Clean];
        for &rate in rates.iter().filter(|&&r| r != 0.0) {
            kinds.extend([CellKind::Drop(rate), CellKind::Corrupt(rate)]);
        }
        kinds
    }

    /// The schedule this kind gives for `seed`.
    pub fn schedule(self, seed: u64) -> ChaosSchedule {
        let plan = match self {
            CellKind::Random => return chaos_schedule(&noc_mesh(), seed),
            CellKind::Clean => FaultPlan::none(),
            CellKind::Drop(rate) => FaultPlan::seeded(seed).with_drop_rate(rate),
            CellKind::Corrupt(rate) => FaultPlan::seeded(seed).with_corrupt_rate(rate),
        };
        ChaosSchedule { plan, cpm_count: 1 }
    }
}

/// One cell of the grid: a kernel run under its kind's schedule in
/// **every** stepping mode.
#[derive(Clone, Copy, Debug)]
pub struct ChaosCell {
    /// The kernel to run.
    pub kernel: Kernel,
    /// Kernel input size.
    pub size: usize,
    /// Seed for kernel inputs, fault decisions and the schedule shape.
    pub seed: u64,
    /// Where the schedule comes from.
    pub kind: CellKind,
}

impl ChaosCell {
    /// Display name: `kernel-size/s<seed>` for a random schedule,
    /// `kernel-size/<kind><rate>/s<seed>` otherwise (`SGEMM-12/drop0.01/s1`).
    pub fn name(&self) -> String {
        let kind = match self.kind {
            CellKind::Random => String::new(),
            CellKind::Clean => "clean/".into(),
            CellKind::Drop(rate) => format!("drop{rate}/"),
            CellKind::Corrupt(rate) => format!("corrupt{rate}/"),
        };
        format!("{}-{}/{kind}s{}", self.kernel, self.size, self.seed)
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
    watchdog_fires: u64,
    corrupt_detected: u64,
    recovery_p50: u64,
    injected: u64,
    dropped_packets: u64,
    corrupted_packets: u64,
    /// RCU instructions executed, ring captures and stalled cycles.
    rcu: (u64, u64, u64),
    /// [`stats_fingerprint`] of the network statistics.
    stats: String,
}

/// `kernel` compiled for the checked platform, with MAC fusion off so
/// intermediate values ride the transient-token ring the schedule
/// attacks, and its reference outputs from the interpreter.
fn prepare(kernel: Kernel, size: usize, seed: u64) -> (CompiledKernel, Vec<Fixed>) {
    let built = build(kernel, size, seed);
    let mapper = MapperConfig::for_mesh(&noc_mesh()).with_mac_fusion(false);
    let compiled = built.context.compile(built.root, &mapper).expect("kernel compiles");
    compiled.validate().expect("compiled kernel is well-formed");
    let reference = built.context.interpret(built.root).expect("interpretable");
    (compiled, reference)
}

/// Runs `kernel` once under `sched` in stepping mode `mode`; returns the
/// platform, for its counters, with the verdict.
fn run_mode(
    kernel: &CompiledKernel,
    sched: &ChaosSchedule,
    mode: Stepping,
) -> (SnackPlatform, Result<KernelRun, PlatformError>) {
    let mut platform =
        SnackPlatform::with_cpm_count(noc_config().with_stepping(mode), sched.cpm_count)
            .expect("valid platform config");
    platform.set_fault_plan(sched.plan.clone()).expect("schedule plans are valid");
    platform.enable_recovery(RecoveryConfig::aggressive());
    let pcfg = PlatformConfig { no_progress_window: CHAOS_WINDOW, ..PlatformConfig::default() };
    platform.set_platform_config(pcfg).expect("chaos window is valid");
    // Bounded even in the worst case: the attempt budget × stall window
    // dominates; the 2M slack covers recovery backoff multiplication.
    let cap = 800 * kernel.len() as u64
        + u64::from(pcfg.max_kernel_attempts) * CHAOS_WINDOW
        + 2_000_000;
    let verdict = platform.run_kernel(kernel, cap);
    (platform, verdict)
}

/// The merged outcome of one checked run across both stepping modes.
#[derive(Clone, Debug)]
pub struct ChaosCellResult {
    /// Display name (see [`ChaosCell::name`]).
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
    /// Kernel-level remapped resubmissions taken (0 unless the kernel
    /// completed).
    pub remaps: u32,
    /// Home-CPM failovers taken (0 unless the kernel completed).
    pub failovers: u32,
    /// Cycles burned by abandoned attempts (0 unless the kernel
    /// completed).
    pub penalty_cycles: u64,
    /// Watchdog re-issue attempts (overflow replays + producer
    /// retransmissions) across the whole run, whatever the verdict.
    pub watchdog_retries: u64,
    /// Tokens the CPM watchdog declared lost.
    pub detected: u64,
    /// Detected tokens that subsequently retired normally.
    pub recovered: u64,
    /// Fault events injected by the network fault layer.
    pub injected: u64,
    /// Whole packets dropped from the wire.
    pub dropped_packets: u64,
    /// Packets delivered with corrupted payloads.
    pub corrupted_packets: u64,
    /// Watchdog sweeps that found at least one overdue token.
    pub watchdog_fires: u64,
    /// Tokens discarded on arrival for failing their checksum.
    pub corrupt_detected: u64,
    /// Median detection-to-retirement recovery latency, cycles (0 when
    /// nothing was recovered).
    pub recovery_p50: u64,
    /// Whether both stepping modes produced the identical outcome.
    pub modes_agree: bool,
    /// Invariant violations found (empty on a healthy run).
    pub violations: Vec<String>,
}

/// The checker: runs `kernel` at `size` with inputs from `seed` under
/// `sched` in every stepping mode, and checks every clause of the
/// robustness contract (module docs). `sched` may be any schedule.
/// Violations are *recorded*, not panicked — the harness reports them
/// so CI can fail with the full picture; the row is named `name`.
///
/// # Panics
///
/// Panics if the platform rejects the kernel at submission, a harness
/// bug rather than a fault outcome.
pub fn check_schedule(
    name: String,
    kernel: Kernel,
    size: usize,
    seed: u64,
    sched: &ChaosSchedule,
) -> ChaosCellResult {
    let (compiled, reference) = prepare(kernel, size, seed);
    let [base, others @ ..] = Stepping::ALL.map(|mode| {
        let (mut platform, verdict) = run_mode(&compiled, sched, mode);
        let (outcome, cycles, outputs, degradation) = match verdict {
            Ok(run) => ("ok".to_string(), run.cycles, run.outputs, run.degradation),
            Err(PlatformError::KernelTimeout { cycles, .. }) => {
                ("timeout".to_string(), cycles, Vec::new(), None)
            }
            Err(PlatformError::Unrecoverable { resource, attempts, cycles, .. }) => {
                (format!("unrecoverable:{resource}/a{attempts}"), cycles, Vec::new(), None)
            }
            Err(e) => panic!("{name} failed to submit: {e}"),
        };
        let rec = platform.recovery_stats();
        let faults = platform.fault_counters();
        let rcu = platform.rcu_stats();
        let (sent, delivered) =
            (platform.net_injected_packets(), platform.net_delivered_packets());
        ModeOutcome {
            outcome,
            cycles,
            outputs,
            degradation,
            detected: rec.detected,
            recovered: rec.recovered,
            retries: rec.retries,
            watchdog_fires: rec.watchdog_fires,
            corrupt_detected: rec.corrupt_detected,
            recovery_p50: rec.recovery_latency.percentile(50.0),
            injected: faults.injected,
            dropped_packets: faults.dropped_packets,
            corrupted_packets: faults.corrupted_packets,
            rcu: (rcu.executed, rcu.captures, rcu.stalled_cycles),
            stats: stats_fingerprint(sent, delivered, 0, platform.finalize_stats()),
        }
    });
    let mut violations = Vec::new();
    for (mode, other) in Stepping::ALL[1..].iter().zip(&others) {
        if *other != base {
            violations.push(format!(
                "{mode} stepping diverged from dense: {} @{} vs {} @{}",
                other.outcome, other.cycles, base.outcome, base.cycles
            ));
        }
    }
    let modes_agree = violations.is_empty();
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
        if sched.dead_links() > 0 && base.degradation.is_none() {
            violations.push("permanently dead link but no degradation report".into());
        }
    }
    if base.outcome == "timeout" && base.detected <= base.recovered {
        // A run only times out on losses the watchdog could not heal.
        violations.push(format!(
            "timeout with every detected loss recovered: {}/{}",
            base.recovered, base.detected
        ));
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
        name,
        outcome: base.outcome,
        verified,
        cycles: base.cycles,
        dead_rcus: sched.dead_rcus(),
        dead_links: sched.dead_links(),
        cpms: sched.cpm_count,
        remaps: d.remaps,
        failovers: d.failovers,
        penalty_cycles: d.penalty_cycles,
        watchdog_retries: base.retries,
        detected: base.detected,
        recovered: base.recovered,
        injected: base.injected,
        dropped_packets: base.dropped_packets,
        corrupted_packets: base.corrupted_packets,
        watchdog_fires: base.watchdog_fires,
        corrupt_detected: base.corrupt_detected,
        recovery_p50: base.recovery_p50,
        modes_agree,
        violations,
    }
}

/// Runs one grid cell: [`check_schedule`] under its kind's schedule.
pub fn run_chaos_cell(cell: &ChaosCell) -> ChaosCellResult {
    let sched = cell.kind.schedule(cell.seed);
    check_schedule(cell.name(), cell.kernel, cell.size, cell.seed, &sched)
}

/// The declarative grid the `snack-chaos` binary exposes.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// Cells in merge (output) order.
    pub cells: Vec<ChaosCell>,
    /// Worker threads (1 = serial; output is identical either way).
    pub threads: usize,
}

impl ChaosSpec {
    /// Builds the `kernels × kinds × seeds` grid (kernel outermost, seed
    /// innermost) at input `size`.
    pub fn grid(kernels: &[Kernel], size: usize, kinds: &[CellKind], seeds: &[u64]) -> Self {
        let mut cells = Vec::with_capacity(kernels.len() * kinds.len() * seeds.len());
        for &kernel in kernels {
            for &kind in kinds {
                for &seed in seeds {
                    cells.push(ChaosCell { kernel, size, seed, kind });
                }
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
                .map(|v| format!("\"{}\"", json_escape(v)))
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(
                w,
                "    {{\"name\": \"{}\", \"outcome\": \"{}\", \"verified\": {}, \
                 \"cycles\": {}, \"dead_rcus\": {}, \"dead_links\": {}, \"cpms\": {}, \
                 \"remaps\": {}, \"failovers\": {}, \"penalty_cycles\": {}, \
                 \"watchdog_retries\": {}, \"detected\": {}, \"recovered\": {}, \
                 \"injected\": {}, \"dropped_packets\": {}, \"corrupted_packets\": {}, \
                 \"watchdog_fires\": {}, \"corrupt_detected\": {}, \"recovery_p50\": {}, \
                 \"modes_agree\": {}, \"violations\": [{violations}]}}{comma}",
                json_escape(&c.name),
                json_escape(&c.outcome),
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
                c.injected,
                c.dropped_packets,
                c.corrupted_packets,
                c.watchdog_fires,
                c.corrupt_detected,
                c.recovery_p50,
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
                    c.injected.to_string(),
                    format!("{}/{}", c.recovered, c.detected),
                    c.watchdog_retries.to_string(),
                    c.recovery_p50.to_string(),
                    if c.modes_agree { "yes".into() } else { "NO".into() },
                    c.violations.len().to_string(),
                ]
            })
            .collect();
        print_table(
            &[
                "cell", "outcome", "cycles", "verified", "dead", "remap/fo", "injected",
                "recovered", "retries", "rec p50", "modes", "viol",
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
        let a = chaos_schedule(&noc_mesh(), 42);
        let b = chaos_schedule(&noc_mesh(), 42);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.cpm_count, b.cpm_count);
        let c = chaos_schedule(&noc_mesh(), 43);
        assert!(a.plan != c.plan || a.cpm_count != c.cpm_count, "seeds vary the schedule");
    }

    #[test]
    fn chaos_cell_holds_invariants_and_is_thread_invariant() {
        let spec = ChaosSpec::grid(&[Kernel::Mac], 8, &[CellKind::Random], &[1, 2, 3]);
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

    #[test]
    fn fixed_rate_cells_keep_their_names_and_plans() {
        let kinds = CellKind::fixed_rates(&[0.0, 0.01]);
        assert_eq!(kinds, [CellKind::Clean, CellKind::Drop(0.01), CellKind::Corrupt(0.01)]);
        let spec = ChaosSpec::grid(&[Kernel::Sgemm, Kernel::Mac], 12, &kinds, &[1, 2]);
        assert_eq!(spec.cells.len(), 12);
        assert_eq!(spec.cells[0].name(), "SGEMM-12/clean/s1");
        assert_eq!(spec.cells[3].name(), "SGEMM-12/drop0.01/s2");
        assert_eq!(spec.cells[11].name(), "MAC-12/corrupt0.01/s2");
        let drop = CellKind::Drop(0.01).schedule(7);
        assert_eq!(drop.plan, FaultPlan::seeded(7).with_drop_rate(0.01));
        assert_eq!(drop.cpm_count, 1);
        assert!(CellKind::Clean.schedule(7).is_clean());
        let cell = ChaosCell { kernel: Kernel::Mac, size: 10, seed: 4, kind: CellKind::Random };
        assert_eq!(cell.name(), "MAC-10/s4");
    }

    /// `LatencyHistogram::percentile` takes `p` in 0–100: the reported
    /// median is `percentile(50.0)`, on a cell where `percentile(0.5)`
    /// (the 0.5th percentile) reads something else.
    #[test]
    fn recovery_p50_is_the_median_recovery_latency() {
        let cell =
            ChaosCell { kernel: Kernel::Sgemm, size: 12, seed: 1, kind: CellKind::Drop(0.01) };
        let (compiled, _) = prepare(cell.kernel, cell.size, cell.seed);
        let (platform, verdict) =
            run_mode(&compiled, &cell.kind.schedule(cell.seed), Stepping::Serial);
        assert!(verdict.is_ok());
        let latency = platform.recovery_stats().recovery_latency;
        assert_ne!(latency.percentile(0.5), latency.percentile(50.0));
        assert_eq!(run_chaos_cell(&cell).recovery_p50, latency.percentile(50.0));
    }
}
