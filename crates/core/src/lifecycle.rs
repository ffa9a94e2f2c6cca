//! The kernel lifecycle: [`SnackPlatform::run_kernel`] and its
//! graceful-degradation attempt loop. It sits beside [`crate::platform`],
//! so it cannot reach the platform's fields and drives kernels through
//! the same platform methods the service layer uses.

use crate::fixed::Fixed;
use crate::platform::{DegradedResource, PlatformError, SnackPlatform};
use crate::token::CompiledKernel;
use snacknoc_noc::{LinkFaultKind, NodeId};
use snacknoc_trace::EventKind;
use std::collections::HashMap;

/// Result of running one kernel to completion.
#[derive(Clone, Debug)]
pub struct KernelRun {
    /// Kernel name.
    pub name: String,
    /// Cycles from submission to the final result writeback (the *final*
    /// attempt only; abandoned graceful-degradation attempts are accounted
    /// in [`DegradationReport::penalty_cycles`]).
    pub cycles: u64,
    /// The kernel outputs, in slot order.
    pub outputs: Vec<Fixed>,
    /// How the run coped with permanent faults — `None` for a clean run
    /// on an undegraded platform.
    pub degradation: Option<DegradationReport>,
}

/// How a kernel run completed *despite* permanent faults: the resources
/// lost, the recovery work taken, and the latency penalty relative to a
/// fault-free run. Attached to [`KernelRun::degradation`] whenever the
/// platform was degraded or graceful degradation had to act.
///
/// Invariant: [`DegradationReport::total_cycles`] (`final_attempt_cycles +
/// penalty_cycles`) equals the wall-clock cycles from the original
/// submission to the final writeback.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DegradationReport {
    /// Permanently dead RCU nodes the final mapping avoided.
    pub dead_rcus: usize,
    /// Permanently dead links in the active fault plan.
    pub dead_links: usize,
    /// Attempts whose submitted kernel was remapped off dead RCUs
    /// (including a proactive remap on the first attempt when deaths were
    /// already visible at submission time).
    pub remaps: u32,
    /// Home-CPM failovers to a standby corner.
    pub failovers: u32,
    /// Watchdog re-issue attempts across all attempts (transient-loss
    /// recovery work, *retries taken*).
    pub watchdog_retries: u64,
    /// Cycles burned by abandoned attempts — the latency penalty versus a
    /// fault-free run that completes on its first attempt.
    pub penalty_cycles: u64,
    /// Cycles of the successful final attempt (equals
    /// [`KernelRun::cycles`]).
    pub final_attempt_cycles: u64,
}

impl DegradationReport {
    /// Whether anything in the report is non-trivial (a clean run on an
    /// undegraded platform reports nothing at all).
    pub fn is_degraded(&self) -> bool {
        self.dead_rcus > 0
            || self.dead_links > 0
            || self.remaps > 0
            || self.failovers > 0
            || self.penalty_cycles > 0
    }

    /// Submission-to-writeback wall clock: the final attempt plus every
    /// abandoned attempt's penalty.
    pub fn total_cycles(&self) -> u64 {
        self.final_attempt_cycles + self.penalty_cycles
    }
}

/// How one graceful-degradation attempt of
/// [`SnackPlatform::run_kernel`] ended.
enum AttemptEnd {
    /// Results written back.
    Finished(KernelRun),
    /// A full no-progress window elapsed with a frozen progress
    /// signature.
    Stalled,
    /// The caller's overall `max_cycles` deadline was reached.
    Deadline,
}

/// One `run_kernel` call's bookkeeping: when it began, the platform's
/// watchdog retry count then, and the degradation work done since.
struct RunLog {
    start: u64,
    base_retries: u64,
    report: DegradationReport,
}

impl SnackPlatform {
    /// Submits `kernel` and steps until its results are written back,
    /// gracefully degrading around permanent faults.
    ///
    /// With no permanent faults this is a single attempt. With a fault
    /// plan declaring dead RCUs, dead links, or dead CPM nodes, the run
    /// becomes an *attempt loop* (bounded by
    /// [`crate::PlatformConfig::max_kernel_attempts`]):
    ///
    /// * a dead home-CPM node triggers failover to the first live, idle
    ///   corner CPM ([`SnackPlatform::first_live_idle_cpm`]);
    /// * kernel blocks mapped to dead RCUs are remapped round-robin onto
    ///   live nodes before submission;
    /// * an attempt that stalls for a full no-progress window against a
    ///   permanent fault is aborted and quarantined
    ///   ([`SnackPlatform::abort_kernel_on`]) and the kernel is
    ///   resubmitted remapped.
    ///
    /// Every attempt submits through
    /// [`SnackPlatform::submit_kernel_epoch`], so it runs under its home
    /// CPM's next namespace epoch: in-flight stragglers of an abandoned
    /// attempt, or of an earlier call on the same platform, carry a
    /// retired namespace and can never pollute this run.
    ///
    /// A run that needed any of this (or merely ran on a degraded
    /// platform) carries a [`DegradationReport`] in
    /// [`KernelRun::degradation`].
    ///
    /// # Errors
    ///
    /// Propagates CPM submission errors as [`PlatformError::Submit`].
    /// If the kernel does not finish within `max_cycles`, or stalls with
    /// no permanent fault to route around, returns
    /// [`PlatformError::KernelTimeout`] with a
    /// [`snacknoc_noc::StallReport`] snapshot. If permanent faults
    /// exhaust a degradation resource — no live RCU to remap onto, no
    /// live standby CPM, or the attempt budget — returns
    /// [`PlatformError::Unrecoverable`] naming the exhausted resource.
    /// Never hangs: every attempt is bounded by the validated no-progress
    /// window.
    pub fn run_kernel(
        &mut self,
        kernel: &CompiledKernel,
        max_cycles: u64,
    ) -> Result<KernelRun, PlatformError> {
        let mut log = RunLog {
            start: self.cycle(),
            base_retries: self.recovery_stats().retries,
            report: DegradationReport::default(),
        };
        let deadline = log.start + max_cycles;
        let mut home = 0usize;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let now = self.cycle();
            // Home-CPM failover: a dead home node can neither fetch,
            // issue, nor collect results — move the kernel to a live,
            // idle corner before (re)submitting. Every CPM already holds
            // the platform's recovery policy, so nothing is handed over.
            if self.cpm_node_dead(home) {
                let Some(standby) = self.first_live_idle_cpm() else {
                    return Err(self.unrecoverable(
                        log,
                        DegradedResource::StandbyCpms,
                        attempt - 1,
                    ));
                };
                self.tracer_mut().record_with(now, || EventKind::CpmFailover {
                    from: home as u32,
                    to: standby as u32,
                });
                home = standby;
                log.report.failovers += 1;
            }
            // Remap off permanently dead RCUs: nodes already dead at
            // submission time are guaranteed stalls, and nodes that died
            // mid-attempt get their blocks moved on the retry. The
            // translation is always derived from the *original* kernel,
            // so repeated remaps never chain.
            let dead = self.fault_plan().map_or_else(Vec::new, |p| p.dead_rcu_nodes_at(now));
            let mut remapped = None;
            if !dead.is_empty() {
                let live: Vec<NodeId> = self.mesh().nodes().filter(|n| !dead.contains(n)).collect();
                if live.is_empty() {
                    return Err(self.unrecoverable(log, DegradedResource::Rcus, attempt - 1));
                }
                remapped = remap(kernel, &dead, &live);
            }
            if let Some((_, moved)) = &remapped {
                log.report.remaps += 1;
                self.tracer_mut().record_with(now, || EventKind::KernelRemap {
                    cpm: home as u32,
                    attempt,
                    moved: *moved,
                });
            }
            self.submit_kernel_epoch(home, remapped.as_ref().map_or(kernel, |(k, _)| k))?;
            let attempt_start = self.cycle();
            let end = self.run_attempt(home, deadline);
            let now = self.cycle();
            match end {
                AttemptEnd::Finished(run) => {
                    log.report.final_attempt_cycles = run.cycles;
                    self.settle_report(&mut log);
                    let degradation = log.report.is_degraded().then_some(log.report);
                    return Ok(KernelRun { degradation, ..run });
                }
                AttemptEnd::Stalled
                    if self.fault_plan().is_some_and(|p| p.has_permanent_faults()) =>
                {
                    log.report.penalty_cycles += now - attempt_start;
                    self.abort_kernel_on(home);
                    if attempt >= self.platform_config().max_kernel_attempts {
                        return Err(self.unrecoverable(
                            log,
                            DegradedResource::RetryBudget,
                            attempt,
                        ));
                    }
                }
                // The deadline, or a transient-only stall with nothing to
                // remap around: the plain timeout.
                AttemptEnd::Stalled | AttemptEnd::Deadline => {
                    return Err(PlatformError::KernelTimeout {
                        cycles: now - log.start,
                        stall: Box::new(self.stall_report()),
                    });
                }
            }
        }
    }

    /// Completes the run's report: the watchdog retries taken since the
    /// run began, and the dead RCUs and links of the installed plan now.
    fn settle_report(&self, log: &mut RunLog) {
        let now = self.cycle();
        log.report.watchdog_retries = self.recovery_stats().retries - log.base_retries;
        if let Some(p) = self.fault_plan() {
            log.report.dead_rcus = p.dead_rcu_nodes_at(now).len();
            log.report.dead_links =
                p.links.iter().filter(|l| matches!(l.kind, LinkFaultKind::Dead)).count();
        }
    }

    /// The verdict of a run that ran out of `resource` after `attempts`
    /// attempts, carrying its settled degradation report.
    fn unrecoverable(
        &self,
        mut log: RunLog,
        resource: DegradedResource,
        attempts: u32,
    ) -> PlatformError {
        self.settle_report(&mut log);
        PlatformError::Unrecoverable {
            resource,
            attempts,
            cycles: self.cycle() - log.start,
            report: log.report,
            stall: Box::new(self.stall_report()),
        }
    }

    /// Advances until the kernel resident on CPM `home` finishes, stalls
    /// for a full no-progress window, or reaches the overall `deadline`.
    /// The stall cycle is `last_change + no_progress_window` exactly, in
    /// every stepping mode: clock jumps are capped there, so the hang
    /// detector observes the same cycle it would have fired at under
    /// dense stepping.
    fn run_attempt(&mut self, home: usize, deadline: u64) -> AttemptEnd {
        let window = self.platform_config().no_progress_window;
        let mut last_sig = self.progress_signature();
        let mut last_change = self.cycle();
        while self.cycle() < deadline {
            // A jump can land exactly on the final-writeback cycle: the
            // poll below ends the run where dense stepping ends it.
            let now = self.step_or_jump(deadline.min(last_change + window));
            if let Some(run) = self.take_kernel_results_from(home) {
                return AttemptEnd::Finished(run);
            }
            // A jump skips only no-op cycles, so it never moves the
            // signature; the window check below then fires on the cycle
            // a jump lands on, as on a stepped one.
            let sig = self.progress_signature();
            if sig != last_sig {
                last_sig = sig;
                last_change = now;
            } else if now - last_change >= window {
                return AttemptEnd::Stalled;
            }
        }
        AttemptEnd::Deadline
    }
}

/// `kernel` with its blocks on `dead` nodes rehomed round-robin over
/// `live`, in first-use order for determinism, and the number of
/// instructions moved; `None` when no instruction sits on a dead node.
fn remap(
    kernel: &CompiledKernel,
    dead: &[NodeId],
    live: &[NodeId],
) -> Option<(CompiledKernel, u32)> {
    let mut translate: HashMap<NodeId, NodeId> = HashMap::new();
    for ins in &kernel.instructions {
        if dead.contains(&ins.pe) && !translate.contains_key(&ins.pe) {
            translate.insert(ins.pe, live[translate.len() % live.len()]);
        }
    }
    if translate.is_empty() {
        return None;
    }
    let moved = kernel.instructions.iter().filter(|i| translate.contains_key(&i.pe)).count();
    Some((kernel.remapped(&translate), moved as u32))
}
