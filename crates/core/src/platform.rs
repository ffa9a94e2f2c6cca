//! The assembled SnackNoC platform: a mesh NoC whose routers carry RCUs,
//! a CPM at a memory-controller node, and (optionally) a CMP workload
//! sharing the network — the full system of paper Fig. 5.

use crate::cpm::{
    Cpm, CpmConfig, CpmConfigError, CpmEmission, CpmState, RecoveryConfig, RecoveryStats,
    SubmitError, NAMESPACE_MASK, NAMESPACE_SHIFT,
};
use crate::dram::DramModel;
use crate::fixed::Fixed;
use crate::token::{CompiledKernel, DataToken, Instruction, DATA_TOKEN_BYTES, INSTRUCTION_BYTES};
use crate::rcu::{Emission, Rcu, RcuStats};
use snacknoc_noc::routing::xy_route;
use snacknoc_noc::{
    BitSet, ConfigError, FaultCounters, FaultPlan, FaultPlanError, LinkFaultKind, Mesh, NetStats,
    Network, NocConfig, NodeId, Packet, PacketSpec, StallReport, Stepping, TrafficClass,
};
use snacknoc_trace::{EventKind, TracerHandle};
use snacknoc_workloads::coherence::{AccessPattern, CohMessage, CoherentEngine};
use snacknoc_workloads::{BenchmarkProfile, CmpMessage, TrafficEngine};
use std::collections::HashMap;
use std::fmt;

/// The payload carried by every packet on a SnackNoC platform network.
#[derive(Clone, Debug)]
pub enum SnackPayload {
    /// Baseline CMP communication (phase-model traffic).
    Cmp(CmpMessage),
    /// Baseline CMP communication (MESI coherence traffic).
    Coh(CohMessage),
    /// An instruction packet: one flit carrying instructions for one RCU.
    Instructions(Vec<Instruction>),
    /// A transient data token hopping along the static ring.
    Data(DataToken),
    /// A kernel result headed for the CPM output FIFO.
    Result {
        /// Output slot.
        index: u32,
        /// Result value.
        value: Fixed,
    },
}

/// Error building a [`SnackPlatform`].
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum PlatformError {
    /// Invalid NoC configuration.
    Config(ConfigError),
    /// The mesh has no Hamiltonian ring for transient data
    /// (needs at least one even side).
    Ring(snacknoc_noc::topology::RingError),
    /// The configuration lacks the dedicated SnackNoC virtual network
    /// (needs at least 3 vnets).
    MissingSnackVnet,
    /// A decentralized platform asked for more CPMs than the mesh has
    /// memory-controller corners.
    BadCpmCount {
        /// CPMs requested.
        requested: usize,
        /// Corners available.
        corners: usize,
    },
    /// The CPM configuration failed validation (bad hysteresis thresholds,
    /// out-of-range fractions, or zero capacities).
    CpmConfig(CpmConfigError),
    /// An epoch-tagged submission ([`SnackPlatform::submit_kernel_epoch`])
    /// asked for a namespace epoch outside the 8-bit namespace budget.
    BadEpoch {
        /// Epoch requested.
        epoch: u32,
        /// Epochs available per CPM on this platform
        /// ([`SnackPlatform::namespace_epochs`]); valid epochs are
        /// `0..max`.
        max: u32,
    },
    /// The CPM rejected the kernel at submission time.
    Submit(SubmitError),
    /// The kernel made no forward progress for a full watchdog window and
    /// was aborted. Carries a structured snapshot of where the network's
    /// in-flight state was stuck.
    KernelTimeout {
        /// Cycles elapsed since submission when the platform gave up.
        cycles: u64,
        /// In-flight network state at abort time.
        stall: Box<StallReport>,
    },
    /// Permanent faults exhausted every graceful-degradation avenue:
    /// the named resource ran out before any remapped/failed-over attempt
    /// could complete. Unlike [`PlatformError::KernelTimeout`] this is a
    /// *verdict* — retrying on the same platform cannot succeed.
    Unrecoverable {
        /// The resource that ran out.
        resource: DegradedResource,
        /// Kernel-level submission attempts completed before giving up.
        attempts: u32,
        /// Cycles elapsed since the original submission.
        cycles: u64,
        /// The degradation work done before giving up: remaps, failovers,
        /// watchdog retries and the cycles of every abandoned attempt
        /// (`final_attempt_cycles` is 0, since none completed).
        report: DegradationReport,
        /// In-flight network state when the platform gave up.
        stall: Box<StallReport>,
    },
}

/// Which resource ran out when graceful degradation failed (the payload of
/// [`PlatformError::Unrecoverable`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum DegradedResource {
    /// Every candidate RCU node is permanently dead: there is nothing
    /// left to remap kernel blocks onto.
    Rcus,
    /// The home CPM's node died and no live, idle standby corner CPM
    /// remains to fail over to.
    StandbyCpms,
    /// The kernel-attempt budget ([`PlatformConfig::max_kernel_attempts`])
    /// was spent without a completed run.
    RetryBudget,
}

impl fmt::Display for DegradedResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DegradedResource::Rcus => "live RCUs",
            DegradedResource::StandbyCpms => "standby CPMs",
            DegradedResource::RetryBudget => "kernel retry budget",
        };
        f.write_str(s)
    }
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Config(e) => write!(f, "noc config: {e}"),
            PlatformError::Ring(e) => write!(f, "transient ring: {e}"),
            PlatformError::MissingSnackVnet => {
                write!(f, "platform needs >= 3 vnets (requests, responses, snack)")
            }
            PlatformError::BadCpmCount { requested, corners } => {
                write!(f, "requested {requested} cpms but the mesh has {corners} corners")
            }
            PlatformError::CpmConfig(e) => write!(f, "cpm config: {e}"),
            PlatformError::BadEpoch { epoch, max } => {
                write!(f, "namespace epoch {epoch} is outside 0..{max}")
            }
            PlatformError::Submit(e) => write!(f, "kernel submission: {e}"),
            PlatformError::KernelTimeout { cycles, stall } => {
                write!(f, "kernel timeout after {cycles} cycles: {stall}")
            }
            PlatformError::Unrecoverable { resource, attempts, cycles, stall, .. } => write!(
                f,
                "unrecoverable after {attempts} attempt(s) / {cycles} cycles: \
                 out of {resource}: {stall}"
            ),
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<ConfigError> for PlatformError {
    fn from(e: ConfigError) -> Self {
        PlatformError::Config(e)
    }
}

impl From<SubmitError> for PlatformError {
    fn from(e: SubmitError) -> Self {
        PlatformError::Submit(e)
    }
}

impl From<CpmConfigError> for PlatformError {
    fn from(e: CpmConfigError) -> Self {
        PlatformError::CpmConfig(e)
    }
}

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

/// Platform-level runtime knobs: the hang detector's window and the
/// graceful-degradation retry budget. Installed with
/// [`SnackPlatform::set_platform_config`]; invalid values are rejected
/// with a typed [`PlatformConfigError`] instead of silently misbehaving.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PlatformConfig {
    /// Cycles of zero forward progress [`SnackPlatform::run_kernel`]
    /// tolerates before aborting the attempt. Defaults to
    /// [`SnackPlatform::NO_PROGRESS_WINDOW`]; chaos tests shrink it so
    /// remap/failover escalation fires quickly, think-heavy closed-loop
    /// runs may grow it. Must be at least
    /// [`SnackPlatform::MIN_NO_PROGRESS_WINDOW`].
    pub no_progress_window: u64,
    /// Kernel-level submission attempts (the initial run plus
    /// remap/failover retries) before `run_kernel` gives up with
    /// [`PlatformError::Unrecoverable`]. At least 1, at most
    /// [`PlatformConfig::MAX_KERNEL_ATTEMPTS`].
    pub max_kernel_attempts: u32,
    /// Per-kernel cycle budget: how long a single kernel may run from
    /// submission before the caller should give up on it. Consumed by
    /// the multi-tenant service loop as its abort deadline (a dispatched
    /// kernel that outlives the cap is quarantined and counted against
    /// its tenant) and available to any `run_kernel` caller as the
    /// canonical budget instead of an ad-hoc magic number. Must be at
    /// least [`PlatformConfig::no_progress_window`].
    pub kernel_cycle_cap: u64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            no_progress_window: SnackPlatform::NO_PROGRESS_WINDOW,
            max_kernel_attempts: 4,
            kernel_cycle_cap: SnackPlatform::KERNEL_CYCLE_CAP,
        }
    }
}

impl PlatformConfig {
    /// Upper bound on [`PlatformConfig::max_kernel_attempts`]: the
    /// namespace epoch tag (`home + cpm_count * epoch`) must fit the
    /// 8-bit CPM namespace alongside up to 4 corner CPMs.
    pub const MAX_KERNEL_ATTEMPTS: u32 = 32;

    /// Checks the knobs: a window no smaller than
    /// [`SnackPlatform::MIN_NO_PROGRESS_WINDOW`] (zero or tiny windows
    /// would abort runs the watchdog was still legitimately recovering)
    /// and an attempt budget in `1..=MAX_KERNEL_ATTEMPTS`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), PlatformConfigError> {
        if self.no_progress_window < SnackPlatform::MIN_NO_PROGRESS_WINDOW {
            return Err(PlatformConfigError::WindowTooSmall {
                window: self.no_progress_window,
                min: SnackPlatform::MIN_NO_PROGRESS_WINDOW,
            });
        }
        if self.max_kernel_attempts == 0 || self.max_kernel_attempts > Self::MAX_KERNEL_ATTEMPTS {
            return Err(PlatformConfigError::BadAttemptBudget {
                attempts: self.max_kernel_attempts,
                max: Self::MAX_KERNEL_ATTEMPTS,
            });
        }
        if self.kernel_cycle_cap < self.no_progress_window {
            return Err(PlatformConfigError::CycleCapBelowWindow {
                cap: self.kernel_cycle_cap,
                window: self.no_progress_window,
            });
        }
        Ok(())
    }
}

/// An invalid [`PlatformConfig`], rejected before installation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum PlatformConfigError {
    /// The no-progress window is zero or smaller than the deepest
    /// recovery backoff the watchdog may legitimately take.
    WindowTooSmall {
        /// The rejected window.
        window: u64,
        /// The smallest accepted window.
        min: u64,
    },
    /// The kernel-attempt budget is zero or exceeds the namespace-epoch
    /// bit budget.
    BadAttemptBudget {
        /// The rejected budget.
        attempts: u32,
        /// The largest accepted budget.
        max: u32,
    },
    /// [`PlatformConfig::kernel_cycle_cap`] is smaller than the
    /// no-progress window — the hang detector could never fire before
    /// the cap, making the cap the *only* backstop and the window dead
    /// configuration.
    CycleCapBelowWindow {
        /// The rejected cap.
        cap: u64,
        /// The configured no-progress window the cap must cover.
        window: u64,
    },
}

impl fmt::Display for PlatformConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformConfigError::WindowTooSmall { window, min } => {
                write!(f, "no-progress window {window} is below the minimum {min}")
            }
            PlatformConfigError::BadAttemptBudget { attempts, max } => {
                write!(f, "kernel attempt budget {attempts} is outside 1..={max}")
            }
            PlatformConfigError::CycleCapBelowWindow { cap, window } => {
                write!(f, "cycle cap {cap} is below the no-progress window {window}")
            }
        }
    }
}

impl std::error::Error for PlatformConfigError {}

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

/// The CMP workload sharing the platform's NoC.
#[derive(Debug)]
enum Workload {
    /// Phase-model closed-loop traffic (the calibrated Table III suite).
    Phase(TrafficEngine),
    /// Directory-MESI coherence traffic from synthetic address streams.
    Coherent(CoherentEngine),
}

/// Result of a multi-program run (CMP benchmark + repeated kernels).
#[derive(Clone, Debug)]
pub struct MultiProgramRun {
    /// CMP application runtime in cycles.
    pub app_runtime: u64,
    /// Whether the application finished before the safety cap.
    pub app_finished: bool,
    /// Kernels completed during the application run.
    pub kernels_completed: u64,
    /// Mean kernel latency in cycles (completed kernels only).
    pub mean_kernel_cycles: f64,
    /// Final network statistics.
    pub stats: NetStats,
}

/// The SnackNoC platform: network + one or more CPMs + one RCU per router
/// (+ an optional CMP workload).
///
/// The paper's baseline uses a single CPM at one memory controller; its
/// §VII sketches a *decentralized* variant with a CPM per memory
/// controller issuing kernels in parallel. Build the latter with
/// [`SnackPlatform::with_cpm_count`].
#[derive(Debug)]
pub struct SnackPlatform {
    net: Network<SnackPayload>,
    rcus: Vec<Rcu>,
    cpms: Vec<Cpm>,
    engine: Option<Workload>,
    /// `ring_next[node]` = successor on the transient-data ring.
    ring_next: Vec<NodeId>,
    submitted_at: Vec<u64>,
    nodes: Vec<NodeId>,
    /// Ready RCUs: the RCUs the per-cycle loop ticks, in ascending index
    /// order. Every non-idle RCU is ready or parked, never both; an RCU
    /// in neither set is idle, and ticking it would be a pure no-op.
    rcu_ready: BitSet,
    /// Parked RCUs: a worklist tick left each of them stalled (pending
    /// work, nothing fireable), so every later tick stalls too until a
    /// wake edge ([`SnackPlatform::wake_rcu`]) changes what it could
    /// fire. A parked RCU is not ticked and bounds no clock jump; it owes
    /// one stall per cycle from `parked_at`.
    rcu_parked: BitSet,
    /// `parked_at[i]`: the first cycle parked RCU `i` owes a stall for.
    parked_at: Vec<u64>,
    /// Reused scratch buffer for [`Rcu::tick_into`] emissions — one
    /// allocation for the whole platform instead of one `Vec` per RCU
    /// per cycle.
    emit_scratch: Vec<Emission>,
    /// Reused buffer for the phase-model engine's per-cycle injections.
    cmp_specs: Vec<PacketSpec<CmpMessage>>,
    /// Reused buffer the delivery dispatch drains each node into.
    delivered: Vec<Packet<SnackPayload>>,
    /// The virtual network carrying SnackNoC tokens: the last vnet, so the
    /// CMP workload owns the lower ones (2 for the phase model's
    /// request/response pair, 3 for the MESI protocol classes).
    snack_vnet: u8,
    /// Validated platform-level knobs (hang detector window, graceful-
    /// degradation attempt budget).
    pcfg: PlatformConfig,
}

impl SnackPlatform {
    /// Builds a platform on `cfg`, with the CPM at the first corner
    /// memory-controller node and one RCU per router.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError`] for invalid configs, meshes without a
    /// Hamiltonian ring, or fewer than 3 vnets.
    pub fn new(cfg: NocConfig) -> Result<Self, PlatformError> {
        Self::with_cpm_config(cfg, CpmConfig::default(), DramModel::default())
    }

    /// Builds a *decentralized* platform (paper §VII) with `cpm_count`
    /// CPMs, one per memory-controller corner in corner order.
    ///
    /// # Errors
    ///
    /// See [`SnackPlatform::new`]. Also fails if the mesh has fewer
    /// corners than `cpm_count`.
    pub fn with_cpm_count(cfg: NocConfig, cpm_count: usize) -> Result<Self, PlatformError> {
        let mut platform = Self::with_cpm_config(cfg, CpmConfig::default(), DramModel::default())?;
        let corners = platform.net.mesh().corner_nodes();
        if cpm_count == 0 || cpm_count > corners.len() {
            return Err(PlatformError::BadCpmCount { requested: cpm_count, corners: corners.len() });
        }
        platform.cpms = corners[..cpm_count]
            .iter()
            .enumerate()
            .map(|(i, &node)| {
                Cpm::with_namespace(node, i as u32, CpmConfig::default(), DramModel::default())
            })
            .collect();
        platform.submitted_at = vec![0; cpm_count];
        Ok(platform)
    }

    /// Builds a platform with explicit CPM and DRAM parameters.
    ///
    /// # Errors
    ///
    /// See [`SnackPlatform::new`].
    pub fn with_cpm_config(
        cfg: NocConfig,
        cpm_cfg: CpmConfig,
        dram: DramModel,
    ) -> Result<Self, PlatformError> {
        if cfg.vnets < 3 {
            return Err(PlatformError::MissingSnackVnet);
        }
        cpm_cfg.validate().map_err(PlatformError::CpmConfig)?;
        let net: Network<SnackPayload> = Network::new(cfg)?;
        let mesh = *net.mesh();
        let ring = mesh.ring().map_err(PlatformError::Ring)?;
        let mut ring_next = vec![NodeId::new(0); mesh.node_count()];
        for (i, &node) in ring.iter().enumerate() {
            ring_next[node.index()] = ring[(i + 1) % ring.len()];
        }
        let cpm_node = mesh.corner_nodes()[0];
        let snack_vnet = net.config().vnets - 1;
        let n = mesh.node_count();
        Ok(SnackPlatform {
            rcus: (0..n).map(|_| Rcu::new()).collect(),
            cpms: vec![Cpm::new(cpm_node, cpm_cfg, dram)],
            engine: None,
            ring_next,
            submitted_at: vec![0],
            nodes: mesh.nodes().collect(),
            snack_vnet,
            rcu_ready: BitSet::new(n),
            rcu_parked: BitSet::new(n),
            parked_at: vec![0; n],
            emit_scratch: Vec::new(),
            cmp_specs: Vec::new(),
            delivered: Vec::new(),
            pcfg: PlatformConfig::default(),
            net,
        })
    }

    /// Installs validated platform-level knobs (see [`PlatformConfig`]).
    ///
    /// # Errors
    ///
    /// Rejects zero/too-small no-progress windows and out-of-range
    /// attempt budgets with a typed [`PlatformConfigError`].
    pub fn set_platform_config(&mut self, cfg: PlatformConfig) -> Result<(), PlatformConfigError> {
        cfg.validate()?;
        self.pcfg = cfg;
        Ok(())
    }

    /// The platform-level knobs in force.
    pub fn platform_config(&self) -> PlatformConfig {
        self.pcfg
    }

    /// The mesh topology.
    pub fn mesh(&self) -> &Mesh {
        self.net.mesh()
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.net.cycle()
    }

    /// Network statistics.
    pub fn stats(&self) -> &NetStats {
        self.net.stats()
    }

    /// Flushes the trailing partial sampling window and returns the
    /// statistics (see [`snacknoc_noc::Network::finalize_stats`]). Call
    /// at the end of a measurement so runs shorter than one sampling
    /// window still report utilization samples.
    pub fn finalize_stats(&mut self) -> &NetStats {
        self.net.finalize_stats()
    }

    /// Installs a tracer; all subsequent instrumentation events from the
    /// NoC, the RCUs and the CPMs flow into it. Install
    /// [`TracerHandle::Nop`] (the default) to disable tracing — a
    /// `Nop`-traced run is bit-identical to an untraced one.
    pub fn set_tracer(&mut self, tracer: TracerHandle) {
        self.net.set_tracer(tracer);
    }

    /// The installed tracer.
    pub fn tracer(&self) -> &TracerHandle {
        self.net.tracer()
    }

    /// Mutable access to the installed tracer.
    pub fn tracer_mut(&mut self) -> &mut TracerHandle {
        self.net.tracer_mut()
    }

    /// Removes and returns the installed tracer, leaving
    /// [`TracerHandle::Nop`] behind.
    pub fn take_tracer(&mut self) -> TracerHandle {
        self.net.take_tracer()
    }

    /// The primary CPM (kernel controller).
    pub fn cpm(&self) -> &Cpm {
        &self.cpms[0]
    }

    /// The `i`-th CPM of a decentralized platform.
    ///
    /// # Panics
    ///
    /// Panics if `i >= cpm_count()`.
    pub fn cpm_at(&self, i: usize) -> &Cpm {
        &self.cpms[i]
    }

    /// Number of CPMs on this platform.
    pub fn cpm_count(&self) -> usize {
        self.cpms.len()
    }

    /// Replaces every RCU with a `lanes`-wide vectorized one
    /// (paper §VII: increased compute density). Call before submitting
    /// kernels.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn set_rcu_lanes(&mut self, lanes: usize) {
        self.rcus = (0..self.rcus.len()).map(|_| Rcu::with_lanes(lanes)).collect();
        // Fresh RCUs are idle: neither ready nor parked.
        self.rcu_ready.clear();
        self.rcu_parked.clear();
    }

    /// Whether the platform was built for the dense reference loop: every
    /// RCU ticks every cycle and the clock never jumps (DESIGN.md §12).
    fn dense(&self) -> bool {
        self.net.config().stepping == Stepping::Dense
    }

    /// Total packets injected into the underlying network.
    pub fn net_injected_packets(&self) -> u64 {
        self.net.injected_packets()
    }

    /// Total packets fully delivered by the underlying network.
    pub fn net_delivered_packets(&self) -> u64 {
        self.net.delivered_packets()
    }

    /// Aggregated RCU statistics across all routers, including the stalls
    /// parked RCUs owe up to the current cycle.
    pub fn rcu_stats(&self) -> RcuStats {
        let mut agg = RcuStats::default();
        for r in &self.rcus {
            agg.executed += r.stats.executed;
            agg.captures += r.stats.captures;
            agg.stalled_cycles += r.stats.stalled_cycles;
        }
        let now = self.net.cycle();
        agg.stalled_cycles += self.rcu_parked.iter().map(|i| self.owed_stalls(i, now)).sum::<u64>();
        agg
    }

    /// Attaches a phase-model CMP workload that shares the NoC with kernel
    /// execution.
    pub fn attach_workload(&mut self, profile: &BenchmarkProfile, seed: u64) {
        self.engine =
            Some(Workload::Phase(TrafficEngine::new(profile.clone(), *self.net.mesh(), seed)));
    }

    /// Attaches a directory-MESI coherent CMP workload (higher-fidelity
    /// traffic: the protocol of Table IV). Requires a 4-vnet config so the
    /// three protocol classes don't share the SnackNoC vnet.
    ///
    /// # Panics
    ///
    /// Panics if the platform has fewer than 4 vnets.
    pub fn attach_coherent_workload(&mut self, pattern: AccessPattern, seed: u64) {
        assert!(
            self.snack_vnet >= 3,
            "coherent workloads need 4 vnets (request/forward/response + snack)"
        );
        self.engine = Some(Workload::Coherent(CoherentEngine::new(
            pattern,
            *self.net.mesh(),
            Default::default(),
            seed,
        )));
    }

    /// Whether the attached workload (if any) has completed.
    pub fn workload_done(&self) -> bool {
        match &self.engine {
            None => true,
            Some(Workload::Phase(e)) => e.done(),
            Some(Workload::Coherent(e)) => e.done(),
        }
    }

    /// The attached workload's runtime, if it finished.
    pub fn workload_runtime(&self) -> Option<u64> {
        match &self.engine {
            None => None,
            Some(Workload::Phase(e)) => e.finished_at(),
            Some(Workload::Coherent(e)) => e.finished_at(),
        }
    }

    /// Submits a kernel to the CPM.
    ///
    /// # Errors
    ///
    /// Propagates the CPM's busy/validation errors.
    pub fn submit_kernel(&mut self, kernel: &CompiledKernel) -> Result<(), SubmitError> {
        self.submit_kernel_to(0, kernel)
    }

    /// Submits a kernel to the `i`-th CPM of a decentralized platform.
    ///
    /// # Errors
    ///
    /// Propagates the CPM's busy/validation errors.
    ///
    /// # Panics
    ///
    /// Panics if `i >= cpm_count()`.
    pub fn submit_kernel_to(&mut self, i: usize, kernel: &CompiledKernel) -> Result<(), SubmitError> {
        self.cpms[i].submit(kernel, self.net.cycle())?;
        let cycle = self.net.cycle();
        self.submitted_at[i] = cycle;
        self.net.tracer_mut().record_with(cycle, || EventKind::KernelSubmit { cpm: i as u32 });
        Ok(())
    }

    /// Namespace epochs available per CPM: how many distinct epoch tags
    /// (`ns = cpm + cpm_count * epoch`) fit the 8-bit namespace field.
    /// The multi-tenant service layer wraps its per-CPM dispatch epoch
    /// modulo this bound.
    pub fn namespace_epochs(&self) -> u32 {
        (1u32 << (32 - NAMESPACE_SHIFT)) / self.cpms.len() as u32
    }

    /// Submits a kernel to the `i`-th CPM under a fresh namespace epoch
    /// (`ns = i + cpm_count * epoch`): the multi-submission hook for the
    /// online service layer. Re-tagging the namespace before every
    /// dispatch guarantees that stragglers from any earlier kernel on
    /// this CPM — including one the service aborted with
    /// [`SnackPlatform::abort_kernel_on`] — carry a retired epoch and are
    /// quarantined at delivery, so concurrent tenants can never observe
    /// each other's tokens.
    ///
    /// # Errors
    ///
    /// [`PlatformError::BadEpoch`] when `epoch` exceeds
    /// [`SnackPlatform::namespace_epochs`], [`PlatformError::Submit`] for
    /// the CPM's busy/validation rejections.
    ///
    /// # Panics
    ///
    /// Panics if `i >= cpm_count()`.
    pub fn submit_kernel_epoch(
        &mut self,
        i: usize,
        epoch: u32,
        kernel: &CompiledKernel,
    ) -> Result<(), PlatformError> {
        let max = self.namespace_epochs();
        if epoch >= max {
            return Err(PlatformError::BadEpoch { epoch, max });
        }
        if self.cpms[i].state() != CpmState::Idle {
            return Err(PlatformError::Submit(SubmitError::Busy));
        }
        let ns = i as u32 + self.cpms.len() as u32 * epoch;
        self.cpms[i].set_namespace(ns);
        self.submit_kernel_to(i, kernel).map_err(PlatformError::Submit)
    }

    /// Whether the `i`-th CPM's node is permanently dead at the current
    /// cycle under the active fault plan (its CPM is frozen: it can
    /// neither fetch, issue, nor collect results). The service layer's
    /// admission control treats such a CPM as a lost slot.
    ///
    /// # Panics
    ///
    /// Panics if `i >= cpm_count()`.
    pub fn cpm_node_dead(&self, i: usize) -> bool {
        self.node_dead(self.cpms[i].node(), self.net.cycle())
    }

    /// Aborts and quarantines the kernel resident on CPM `i`, returning
    /// whether one was resident. The same quarantine `run_kernel` applies
    /// to a stalled graceful-degradation attempt: the CPM is reset to
    /// idle, the kernel's namespace is purged from every CPM's overflow
    /// buffer and every RCU, and every RCU is woken. In-flight
    /// stragglers keep the retired namespace and are dropped at delivery
    /// once the next [`SnackPlatform::submit_kernel_epoch`] re-tags the
    /// CPM. The service layer uses this to enforce its per-kernel cycle
    /// budget ([`PlatformConfig::kernel_cycle_cap`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= cpm_count()`.
    pub fn abort_kernel_on(&mut self, i: usize) -> bool {
        if self.cpms[i].state() == CpmState::Idle {
            return false;
        }
        self.quarantine(i);
        true
    }

    /// Aborts CPM `i`'s kernel and purges its namespace from every CPM's
    /// overflow buffer and every RCU. A purge can change what any RCU
    /// could fire, so it wakes them all.
    fn quarantine(&mut self, i: usize) {
        let ns = self.cpms[i].namespace();
        self.cpms[i].abort();
        for c in &mut self.cpms {
            c.purge_overflow_namespace(ns);
        }
        for r in &mut self.rcus {
            r.abort_namespace(ns);
        }
        self.wake_all_rcus();
    }

    /// Wakes RCU `i` after an edge that may have made it fireable: an
    /// accepted instruction or a capture. A parked RCU settles the stalls
    /// it owes for the cycles before this one, then ticks again.
    fn wake_rcu(&mut self, i: usize) {
        if self.rcu_parked.remove(i) {
            self.rcus[i].stats.stalled_cycles += self.owed_stalls(i, self.net.cycle());
        }
        self.rcu_ready.insert(i);
    }

    /// The one worklist rebuild: settles every parked RCU's owed stalls at
    /// the current cycle, parks none, and makes exactly the non-idle RCUs
    /// ready.
    fn wake_all_rcus(&mut self) {
        let now = self.net.cycle();
        for i in 0..self.rcus.len() {
            if self.rcu_parked.contains(i) {
                self.rcus[i].stats.stalled_cycles += self.owed_stalls(i, now);
            }
            if self.rcus[i].is_idle() {
                self.rcu_ready.remove(i);
            } else {
                self.rcu_ready.insert(i);
            }
        }
        self.rcu_parked.clear();
    }

    /// Stalls parked RCU `i` owes at cycle `now`: one per cycle from
    /// `parked_at[i]` up to `now`, or up to its node's death, since a dead
    /// RCU never ticks.
    fn owed_stalls(&self, i: usize, now: u64) -> u64 {
        let node = self.nodes[i];
        let until = self.net.fault_plan().map_or(now, |p| {
            p.dead_rcus.iter().filter(|d| d.node == node).fold(now, |t, d| t.min(d.from))
        });
        until.saturating_sub(self.parked_at[i])
    }

    /// Kernels run to completion and collected across all CPMs
    /// (per-namespace accounting aggregated; see
    /// [`crate::cpm::CpmStats::kernels_completed`]).
    pub fn kernels_completed(&self) -> u64 {
        self.cpms.iter().map(|c| c.stats.kernels_completed).sum()
    }

    /// Advances the platform by one clock jump capped at `cap` when it is
    /// quiescent (and not in dense mode), else by one step, and returns
    /// the new cycle. This is the service loop's advance primitive: the
    /// service passes its next scheduled event (pending arrival, abort
    /// deadline, horizon) as the cap, so a jump never skips a cycle on
    /// which the service must act, and every stepping mode observes
    /// service events at identical cycles.
    pub fn step_or_jump(&mut self, cap: u64) -> u64 {
        if !self.maybe_jump(cap) {
            self.step();
        }
        self.net.cycle()
    }

    /// Takes the finished kernel's outputs from the primary CPM.
    pub fn take_kernel_results(&mut self) -> Option<KernelRun> {
        self.take_kernel_results_from(0)
    }

    /// Takes the finished kernel's outputs from the `i`-th CPM.
    ///
    /// # Panics
    ///
    /// Panics if `i >= cpm_count()`.
    pub fn take_kernel_results_from(&mut self, i: usize) -> Option<KernelRun> {
        let finished_at = self.cpms[i].finished_at()?;
        if self.net.cycle() < finished_at {
            return None;
        }
        let (name, outputs) = self.cpms[i].take_results()?;
        self.net.tracer_mut().record_with(finished_at, || EventKind::KernelFinish { cpm: i as u32 });
        // The kernel is complete: drop the RCUs' retained token copies for
        // this CPM's namespace so retransmission state can't leak into the
        // next kernel.
        let ns = self.cpms[i].namespace();
        for r in &mut self.rcus {
            r.clear_retained_namespace(ns);
        }
        Some(KernelRun {
            name,
            cycles: finished_at - self.submitted_at[i],
            outputs,
            degradation: None,
        })
    }

    /// Whether compute at `node` (the RCU and any co-located CPM) is
    /// permanently dead at `cycle` under the active fault plan. Node
    /// death is a compute-layer failure: the *router* at a dead node
    /// keeps forwarding — the paper's slack disappears, the NoC does not.
    fn node_dead(&self, node: NodeId, cycle: u64) -> bool {
        self.net.fault_plan().is_some_and(|p| p.rcu_dead(node, cycle))
    }

    /// Whether the active fault plan declares any permanent RCU/node
    /// deaths (a cheap gate so fault-free stepping pays nothing).
    fn any_dead_nodes(&self) -> bool {
        self.net.fault_plan().is_some_and(|p| !p.dead_rcus.is_empty())
    }

    /// Installs (or replaces) the network's deterministic fault plan.
    /// Pass [`FaultPlan::none`] to clear it; a cleared plan restores
    /// bit-identical fault-free behaviour.
    ///
    /// # Errors
    ///
    /// Rejects invalid plans (out-of-range rates, inverted windows,
    /// off-mesh link coordinates).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        // Parked RCUs owe stalls up to their node's death under the plan
        // in force: settle them before the plan changes.
        self.wake_all_rcus();
        self.net.set_fault_plan(plan)
    }

    /// Fault-injection counters accumulated by the network.
    pub fn fault_counters(&self) -> FaultCounters {
        self.net.fault_counters()
    }

    /// Packets the fault layer dropped outright.
    pub fn lost_packets(&self) -> u64 {
        self.net.lost_packets()
    }

    /// Enables token-loss recovery (watchdog + retransmission) on every
    /// CPM with the given policy.
    pub fn enable_recovery(&mut self, cfg: RecoveryConfig) {
        for c in &mut self.cpms {
            c.enable_recovery(cfg);
        }
    }

    /// Aggregated recovery statistics across all CPMs.
    pub fn recovery_stats(&self) -> RecoveryStats {
        let mut agg = RecoveryStats::default();
        for c in &self.cpms {
            agg.merge(c.recovery_stats());
        }
        agg
    }

    /// Advances the platform by one cycle: workload traffic, CPM issue,
    /// RCU execution, one network step, and delivery dispatch.
    pub fn step(&mut self) {
        let now = self.net.cycle();
        // CMP workload injections.
        match &mut self.engine {
            None => {}
            Some(Workload::Phase(engine)) => {
                engine.tick(now, &mut self.cmp_specs);
                for spec in self.cmp_specs.drain(..) {
                    let mapped = PacketSpec::new(
                        spec.src,
                        spec.dst,
                        spec.vnet,
                        spec.class,
                        spec.size_bytes,
                        SnackPayload::Cmp(spec.payload),
                    );
                    self.net.inject(mapped).expect("engine produces valid packets");
                }
            }
            Some(Workload::Coherent(engine)) => {
                for spec in engine.tick(now) {
                    let mapped = PacketSpec::new(
                        spec.src,
                        spec.dst,
                        spec.vnet,
                        spec.class,
                        spec.size_bytes,
                        SnackPayload::Coh(spec.payload),
                    );
                    self.net.inject(mapped).expect("engine produces valid packets");
                }
            }
        }
        // CPM issue (1 flit/cycle each).
        let dead_active = self.any_dead_nodes();
        for c in 0..self.cpms.len() {
            let node = self.cpms[c].node();
            if dead_active && self.node_dead(node, now) {
                // A dead corner node's CPM is frozen: no fetch, no issue,
                // no watchdog sweeps. The router underneath keeps
                // forwarding. All stepping modes skip it identically.
                continue;
            }
            let congestion = self.net.useful_free_output_vcs(node);
            // CPM decision events (overflow mode flips, watchdog loss
            // declarations) are diffed across the tick. The pre/post state
            // reads are gated on an enabled tracer so the disabled path
            // does no extra work.
            let traced = self.net.tracer().is_enabled();
            let (was_overflow, prev_detected) = if traced {
                (self.cpms[c].in_overflow(), self.cpms[c].recovery_stats().detected)
            } else {
                (false, 0)
            };
            let emission = self.cpms[c].tick(now, congestion);
            if traced {
                let now_overflow = self.cpms[c].in_overflow();
                if now_overflow != was_overflow {
                    let (free, total) = congestion;
                    self.net.tracer_mut().record_with(now, || {
                        if now_overflow {
                            EventKind::CpmOverflowEnter {
                                cpm: c as u32,
                                free: free as u32,
                                total: total as u32,
                            }
                        } else {
                            EventKind::CpmOverflowExit {
                                cpm: c as u32,
                                free: free as u32,
                                total: total as u32,
                            }
                        }
                    });
                }
                let detected = self.cpms[c].recovery_stats().detected;
                if detected > prev_detected {
                    self.net.tracer_mut().record_with(now, || EventKind::WatchdogDetect {
                        cpm: c as u32,
                        losses: detected - prev_detected,
                    });
                }
            }
            match emission {
                Some(CpmEmission::Instructions(packet)) => {
                    let dst = packet[0].pe;
                    self.net.tracer_mut().record_with(now, || EventKind::CpmIssue {
                        cpm: c as u32,
                        pe: dst.index() as u32,
                        count: packet.len() as u32,
                    });
                    let bytes = INSTRUCTION_BYTES * packet.len() as u32;
                    let spec = PacketSpec::new(
                        node,
                        dst,
                        self.snack_vnet,
                        TrafficClass::SnackInstruction,
                        bytes,
                        SnackPayload::Instructions(packet),
                    )
                    .with_protected();
                    self.net.inject(spec).expect("valid instruction packet");
                }
                Some(CpmEmission::ReplayToken(token)) => {
                    self.net.tracer_mut().record_with(now, || EventKind::CpmRefill {
                        cpm: c as u32,
                        dep: token.dep,
                    });
                    self.launch_token(node, token);
                }
                Some(CpmEmission::RequestRetransmit { dep, producer, remaining }) => {
                    self.net.tracer_mut().record_with(now, || EventKind::WatchdogRetransmit {
                        cpm: c as u32,
                        dep,
                        producer: producer.index() as u32,
                    });
                    // The watchdog asks the producing RCU to re-issue from
                    // its retained copy. We model the request as arriving
                    // instantly (a single control flit on the protected
                    // class); the re-issued token pays full ring transit.
                    // A dead producer's retained state is gone with it: the
                    // request goes unanswered, the watchdog burns its
                    // bounded retries, and the platform's no-progress
                    // window escalates to a kernel-level remap.
                    if dead_active && self.node_dead(producer, now) {
                        // Unanswered by design.
                    } else if let Some(token) =
                        self.rcus[producer.index()].retransmit(dep, remaining)
                    {
                        self.launch_token(producer, token);
                    }
                }
                None => {}
            }
        }
        // RCU execution. Fault-stall plans charge `stalled_cycles` to
        // *every* stalled RCU, idle or not, so they force the full loop,
        // which settles parked RCUs first and then ticks every RCU, as
        // dense stepping always does; otherwise only ready RCUs tick.
        #[cfg(debug_assertions)]
        self.check_rcu_sets();
        let has_stalls =
            self.net.fault_plan().is_some_and(|p| !p.rcu_stalls.is_empty());
        if has_stalls || self.dense() {
            self.wake_all_rcus();
            for i in 0..self.rcus.len() {
                if dead_active && self.node_dead(self.nodes[i], now) {
                    // A dead RCU never ticks (and never accrues stall
                    // statistics): its pending work freezes in place until
                    // the platform's escalation path purges it.
                    continue;
                }
                if has_stalls {
                    let node = self.nodes[i];
                    let stalled = self
                        .net
                        .fault_plan()
                        .is_some_and(|p| p.rcu_stalled(node, now));
                    if stalled {
                        self.rcus[i].stats.stalled_cycles += 1;
                        continue;
                    }
                }
                self.tick_rcu(i, now);
            }
        } else {
            // Tick the ready set in index order (matching the dense loop).
            // An RCU that goes idle leaves it; one whose tick stalled
            // parks. Ticks cannot wake an RCU, so the walk only removes
            // the RCU it just ticked.
            let mut at = 0;
            while let Some(i) = self.rcu_ready.next_from(at) {
                at = i + 1;
                // Dead RCUs are skipped (identically to the dense loop);
                // their frozen pending work keeps them ready until
                // escalation purges it.
                if dead_active && self.node_dead(self.nodes[i], now) {
                    continue;
                }
                let stalls = self.rcus[i].stats.stalled_cycles;
                self.tick_rcu(i, now);
                if self.rcus[i].is_idle() {
                    self.rcu_ready.remove(i);
                } else if self.rcus[i].stats.stalled_cycles > stalls {
                    self.rcu_ready.remove(i);
                    self.rcu_parked.insert(i);
                    self.parked_at[i] = now + 1;
                }
            }
        }
        // The network cycle.
        self.net.step();
        // Deliveries, in node order, on cycles that ejected anything.
        if self.net.has_ejected() {
            self.dispatch_deliveries(dead_active);
        }
    }

    /// Hands every packet the network ejected this cycle to its consumer,
    /// node by node in index order, through the reused `delivered` buffer.
    fn dispatch_deliveries(&mut self, dead_active: bool) {
        let now = self.net.cycle();
        let mut delivered = std::mem::take(&mut self.delivered);
        for i in 0..self.nodes.len() {
            if !self.net.has_ejected() {
                break;
            }
            let node = self.nodes[i];
            self.net.drain_ejected_into(node, &mut delivered);
            for pkt in delivered.drain(..) {
                let corrupted = pkt.corrupted;
                match pkt.payload {
                    SnackPayload::Cmp(msg) => {
                        if let Some(Workload::Phase(engine)) = &mut self.engine {
                            engine.deliver(now, node, msg);
                        }
                    }
                    SnackPayload::Coh(msg) => {
                        if let Some(Workload::Coherent(engine)) = &mut self.engine {
                            engine.deliver(now, node, msg);
                        }
                    }
                    SnackPayload::Instructions(instrs) => {
                        // Stale instruction packets from an aborted
                        // attempt's epoch are quarantined, and packets
                        // that arrive at a node that has since died are
                        // dropped (the kernel stalls, then escalates to
                        // remap-and-retry). On a healthy platform every
                        // namespace matches its issuing CPM, so neither
                        // branch ever fires.
                        let ns = instrs[0].sub_block >> NAMESPACE_SHIFT;
                        let stale =
                            self.cpms[ns as usize % self.cpms.len()].namespace() != ns;
                        if stale || (dead_active && self.node_dead(node, now)) {
                            continue;
                        }
                        for ins in instrs {
                            debug_assert_eq!(ins.pe, node, "instruction routed to its PE");
                            self.net.tracer_mut().record_with(now, || EventKind::RcuIssue {
                                node: i as u32,
                                sub_block: ins.sub_block,
                                seq: ins.seq,
                            });
                            self.rcus[i].accept_instruction(ins);
                        }
                        // Wake edge: the RCU has new work to try.
                        self.wake_rcu(i);
                    }
                    SnackPayload::Data(token) => {
                        // Quarantine first: tokens from an aborted
                        // attempt's stale epoch, or homed to a CPM whose
                        // node has died, are dropped — their kernel is
                        // gone (or about to be resubmitted under a fresh
                        // namespace) and a late straggler must never be
                        // confused with the retry's tokens.
                        let ns = token.dep >> NAMESPACE_SHIFT;
                        let home = ns as usize % self.cpms.len();
                        if self.cpms[home].namespace() != ns
                            || (dead_active && self.node_dead(self.cpms[home].node(), now))
                        {
                            continue;
                        }
                        // A corrupted ring hop damages the token's value; the
                        // checksum (sealed over dep/seq/value, not the
                        // in-flight dependent count) is the single detection
                        // path — corrupt tokens are quarantined and reported
                        // to the owning CPM's watchdog instead of poisoning
                        // downstream captures.
                        let token = if corrupted { token.with_damaged_value() } else { token };
                        if token.checksum_ok() {
                            self.ring_pass(node, token);
                        } else {
                            self.cpms[home].note_corrupt(token.dep, now);
                        }
                    }
                    SnackPayload::Result { index, value } => {
                        let ns = index >> NAMESPACE_SHIFT;
                        let home = ns as usize % self.cpms.len();
                        // Same quarantine as data tokens: stale-epoch
                        // results and results homed to a dead CPM are
                        // dropped, never written into a live kernel's FIFO.
                        if self.cpms[home].namespace() != ns
                            || (dead_active && self.node_dead(self.cpms[home].node(), now))
                        {
                            continue;
                        }
                        self.cpms[home].accept_result(index & NAMESPACE_MASK, value, now);
                    }
                }
            }
        }
        self.delivered = delivered;
    }

    /// Ticks RCU `i` through the reused emission scratch buffer and
    /// dispatches its completions (ring tokens, result packets). Shared
    /// by the dense and active-set RCU loops so both produce identical
    /// emission order with zero steady-state allocation.
    fn tick_rcu(&mut self, i: usize, now: u64) {
        let mut emissions = std::mem::take(&mut self.emit_scratch);
        debug_assert!(emissions.is_empty());
        self.rcus[i].tick_into(now, i as u32, self.net.tracer_mut(), &mut emissions);
        let node = self.nodes[i];
        for emission in emissions.drain(..) {
            match emission {
                Emission::Token(token) => self.launch_token(node, token),
                Emission::Output { index, value } => {
                    // The namespace in the index's high bits routes the
                    // result home to the CPM that issued the kernel
                    // (modulo the CPM count: epoch-bumped namespaces from
                    // graceful degradation still resolve to their home).
                    let home = (index >> NAMESPACE_SHIFT) as usize % self.cpms.len();
                    let spec = PacketSpec::new(
                        node,
                        self.cpms[home].node(),
                        self.snack_vnet,
                        TrafficClass::SnackData,
                        DATA_TOKEN_BYTES,
                        SnackPayload::Result { index, value },
                    )
                    .with_protected();
                    self.net.inject(spec).expect("valid result packet");
                }
            }
        }
        self.emit_scratch = emissions;
    }

    /// Checks the RCU sets against a full scan: every non-idle RCU is
    /// ready or parked, never both, and no parked RCU could fire.
    #[cfg(debug_assertions)]
    fn check_rcu_sets(&self) {
        for (i, rcu) in self.rcus.iter().enumerate() {
            let (ready, parked) = (self.rcu_ready.contains(i), self.rcu_parked.contains(i));
            assert!(!(ready && parked), "RCU {i} is both ready and parked");
            assert!(rcu.is_idle() || ready || parked, "busy RCU {i} is neither ready nor parked");
            assert!(!parked || !rcu.can_fire(), "parked RCU {i} has a fireable instruction");
        }
    }

    /// Attempts a clock jump: if the platform is provably quiescent at the
    /// current cycle, every component reports its next wake and the clock
    /// jumps to the earliest one (capped at `cap`). Returns whether a jump
    /// happened; `false` means the caller must take a real
    /// [`SnackPlatform::step`]. Dense mode never jumps.
    ///
    /// Cost: while the network holds any work the attempt is a few word
    /// tests of the network's worklists. A quiescent network adds one
    /// poll of the workload engine (O(1) for the phase model), of each
    /// CPM, and of each ready RCU — an idle or parked RCU has no wake.
    ///
    /// Soundness: a jump from `now` to `to` is taken only when every
    /// skipped [`SnackPlatform::step`] in `now..to` would have been a
    /// no-op — network quiescent (nothing buffered, in flight, or queued
    /// at an NI), the workload engine's next response/think-expiry at or
    /// past `to`, every CPM's next effectful tick at or past `to` (the
    /// ALO congestion signal is frozen while the network is quiescent, so
    /// polling it once is sound), every RCU idle, parked or busy until at
    /// least `to`, no RCU-stall fault window open or opening before `to`,
    /// and no fault-plan link-window edge before `to`. A parked RCU
    /// stalls on every skipped cycle, and it owes those stalls lazily:
    /// its next wake or any [`SnackPlatform::rcu_stats`] read counts them.
    /// The skipped cycles' only other observable effect — idle statistics
    /// accounting — is replayed in bulk by
    /// [`snacknoc_noc::Network::advance_idle_to`].
    fn maybe_jump(&mut self, cap: u64) -> bool {
        let now = self.net.cycle();
        if self.dense() || cap <= now || !self.net.is_quiescent() {
            return false;
        }
        // Fold every component's next wake into `to`. Any wake at (or
        // before) `now` means the next step is not a no-op: no jump.
        let mut to = cap;
        let engine_wake = match &self.engine {
            None => None,
            Some(Workload::Phase(e)) => e.next_event_cycle(),
            Some(Workload::Coherent(e)) => e.next_event_cycle(),
        };
        if let Some(w) = engine_wake {
            if w <= now {
                return false;
            }
            to = to.min(w);
        }
        let dead_active = self.any_dead_nodes();
        for c in 0..self.cpms.len() {
            // Dead CPMs never tick (see `step`), so they never bound a
            // jump either.
            if dead_active && self.node_dead(self.cpms[c].node(), now) {
                continue;
            }
            let congestion = self.net.useful_free_output_vcs(self.cpms[c].node());
            match self.cpms[c].next_wake(now, congestion) {
                Some(w) if w <= now => return false,
                Some(w) => to = to.min(w),
                None => {}
            }
        }
        if let Some(plan) = self.net.fault_plan() {
            if !plan.rcu_stalls.is_empty() {
                if plan.any_rcu_stalled(now) {
                    // Stalled RCUs are charged `stalled_cycles` every
                    // cycle of the window: stepping is mandatory.
                    return false;
                }
                if let Some(s) = plan.next_rcu_stall_start_after(now) {
                    to = to.min(s);
                }
            }
        }
        // Parked RCUs stall every skipped cycle and owe those stalls
        // lazily, so only ready RCUs bound the jump.
        for i in self.rcu_ready.iter() {
            // Dead RCUs never tick, so their frozen pending work must not
            // pin the clock (it would otherwise report a wake at `now`
            // forever and forbid every jump).
            if dead_active && self.node_dead(self.nodes[i], now) {
                continue;
            }
            match self.rcus[i].next_wake(now) {
                Some(w) if w <= now => return false,
                Some(w) => to = to.min(w),
                None => {}
            }
        }
        if let Some(w) = self.net.next_wake() {
            to = to.min(w);
        }
        self.net.advance_idle_to(to);
        true
    }

    /// Steps until the clock reaches `target`, jumping across provably
    /// dead stretches unless in dense mode.
    pub fn step_until(&mut self, target: u64) {
        while self.net.cycle() < target {
            if !self.maybe_jump(target) {
                self.step();
            }
        }
    }

    /// Runs `cycles` cycles (jumping across provably dead stretches,
    /// landing on exactly the same cycle and statistics as stepping).
    pub fn run(&mut self, cycles: u64) {
        self.step_until(self.net.cycle() + cycles);
    }

    /// Submits `kernel` and steps until its results are written back,
    /// gracefully degrading around permanent faults.
    ///
    /// With no permanent faults this is a single attempt. With a fault
    /// plan declaring dead RCUs, dead links, or dead CPM nodes, the run
    /// becomes an *attempt loop* (bounded by
    /// [`PlatformConfig::max_kernel_attempts`]):
    ///
    /// * a dead home-CPM node triggers failover to the first live, idle
    ///   standby corner CPM (the standby inherits the recovery policy);
    /// * kernel blocks mapped to dead RCUs are remapped round-robin onto
    ///   live nodes before submission;
    /// * an attempt that stalls for a full no-progress window against a
    ///   permanent fault is aborted and quarantined (its namespace epoch
    ///   is retired so in-flight stragglers can never pollute the retry)
    ///   and the kernel is resubmitted remapped.
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
    /// [`PlatformError::KernelTimeout`] with a [`StallReport`] snapshot.
    /// If permanent faults exhaust a degradation resource — no live RCU
    /// to remap onto, no live standby CPM, or the attempt budget — returns
    /// [`PlatformError::Unrecoverable`] naming the exhausted resource.
    /// Never hangs: every attempt is bounded by the validated no-progress
    /// window.
    pub fn run_kernel(
        &mut self,
        kernel: &CompiledKernel,
        max_cycles: u64,
    ) -> Result<KernelRun, PlatformError> {
        let overall_start = self.net.cycle();
        let deadline = overall_start + max_cycles;
        let base_retries = self.recovery_stats().retries;
        let mut report = DegradationReport::default();
        let mut home = 0usize;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let now = self.net.cycle();
            // Home-CPM failover: a dead home node can neither fetch,
            // issue, nor collect results — move the kernel to the first
            // live, idle standby corner before (re)submitting.
            if self.node_dead(self.cpms[home].node(), now) {
                let standby = (0..self.cpms.len()).find(|&i| {
                    !self.node_dead(self.cpms[i].node(), now)
                        && self.cpms[i].state() == CpmState::Idle
                });
                let Some(standby) = standby else {
                    return Err(self.unrecoverable(
                        DegradedResource::StandbyCpms,
                        attempt - 1,
                        overall_start,
                        report,
                        base_retries,
                    ));
                };
                self.net.tracer_mut().record_with(now, || EventKind::CpmFailover {
                    from: home as u32,
                    to: standby as u32,
                });
                // Retained-state handoff: the standby inherits the dead
                // home's recovery policy so watchdog behaviour survives
                // the move.
                let policy = self.cpms[home].recovery_config();
                self.cpms[standby].enable_recovery(policy);
                home = standby;
                report.failovers += 1;
            }
            // Remap off permanently dead RCUs: nodes already dead at
            // submission time are guaranteed stalls, and nodes that died
            // mid-attempt get their blocks moved on the retry. The
            // translation is always derived from the *original* kernel,
            // so repeated remaps never chain.
            let dead =
                self.net.fault_plan().map_or_else(Vec::new, |p| p.dead_rcu_nodes_at(now));
            let prepared: CompiledKernel;
            let to_run: &CompiledKernel = if dead.is_empty() {
                kernel
            } else {
                let live: Vec<NodeId> =
                    self.nodes.iter().copied().filter(|n| !dead.contains(n)).collect();
                if live.is_empty() {
                    return Err(self.unrecoverable(
                        DegradedResource::Rcus,
                        attempt - 1,
                        overall_start,
                        report,
                        base_retries,
                    ));
                }
                // Dead PEs rehome round-robin over the live set, in
                // first-use order for determinism.
                let mut translate: HashMap<NodeId, NodeId> = HashMap::new();
                let mut rr = 0usize;
                for ins in &kernel.instructions {
                    if dead.contains(&ins.pe) && !translate.contains_key(&ins.pe) {
                        translate.insert(ins.pe, live[rr % live.len()]);
                        rr += 1;
                    }
                }
                if translate.is_empty() {
                    kernel
                } else {
                    let moved = kernel
                        .instructions
                        .iter()
                        .filter(|i| translate.contains_key(&i.pe))
                        .count();
                    report.remaps += 1;
                    self.net.tracer_mut().record_with(now, || EventKind::KernelRemap {
                        cpm: home as u32,
                        attempt,
                        moved: moved as u32,
                    });
                    prepared = kernel.remapped(&translate);
                    &prepared
                }
            };
            // Epoch bump on every resubmission: stragglers from aborted
            // attempts stay behind a retired namespace. Home resolution is
            // namespace mod CPM count, so the bumped tag still routes here.
            if attempt > 1 {
                let epoch = attempt - 1;
                let ns = home as u32 + self.cpms.len() as u32 * epoch;
                self.cpms[home].set_namespace(ns);
            }
            self.submit_kernel_to(home, to_run).map_err(PlatformError::Submit)?;
            let attempt_start = self.net.cycle();
            match self.run_attempt(home, deadline) {
                AttemptEnd::Finished(run) => {
                    report.final_attempt_cycles = run.cycles;
                    self.settle_report(&mut report, base_retries);
                    let degradation = report.is_degraded().then_some(report);
                    return Ok(KernelRun { degradation, ..run });
                }
                AttemptEnd::Deadline => {
                    return Err(PlatformError::KernelTimeout {
                        cycles: self.net.cycle() - overall_start,
                        stall: Box::new(self.net.stall_report()),
                    });
                }
                AttemptEnd::Stalled => {
                    let now = self.net.cycle();
                    let permanent =
                        self.net.fault_plan().is_some_and(|p| p.has_permanent_faults());
                    if !permanent {
                        // Transient-only stall: nothing to remap around —
                        // the pre-degradation timeout semantics hold.
                        return Err(PlatformError::KernelTimeout {
                            cycles: now - overall_start,
                            stall: Box::new(self.net.stall_report()),
                        });
                    }
                    report.penalty_cycles += now - attempt_start;
                    self.quarantine(home);
                    if attempt >= self.pcfg.max_kernel_attempts {
                        return Err(self.unrecoverable(
                            DegradedResource::RetryBudget,
                            attempt,
                            overall_start,
                            report,
                            base_retries,
                        ));
                    }
                }
            }
        }
    }

    /// Completes `report` at the end of a run: the watchdog retries taken
    /// since the run began at `base_retries`, and the dead RCUs and links
    /// of the installed plan now.
    fn settle_report(&self, report: &mut DegradationReport, base_retries: u64) {
        let now = self.net.cycle();
        report.watchdog_retries = self.recovery_stats().retries - base_retries;
        if let Some(p) = self.net.fault_plan() {
            report.dead_rcus = p.dead_rcu_nodes_at(now).len();
            report.dead_links =
                p.links.iter().filter(|l| matches!(l.kind, LinkFaultKind::Dead)).count();
        }
    }

    /// The verdict of a run that ran out of `resource` after `attempts`
    /// attempts, carrying its settled degradation `report`.
    fn unrecoverable(
        &self,
        resource: DegradedResource,
        attempts: u32,
        overall_start: u64,
        mut report: DegradationReport,
        base_retries: u64,
    ) -> PlatformError {
        self.settle_report(&mut report, base_retries);
        PlatformError::Unrecoverable {
            resource,
            attempts,
            cycles: self.net.cycle() - overall_start,
            report,
            stall: Box::new(self.net.stall_report()),
        }
    }

    /// Steps (and jumps) until the kernel resident on CPM `home`
    /// finishes, stalls for a full no-progress window, or reaches the
    /// overall `deadline`. The stall cycle is
    /// `last_change + no_progress_window` exactly, in every stepping mode:
    /// clock jumps are capped there, so the hang detector observes the
    /// same cycle it would have fired at under dense stepping.
    fn run_attempt(&mut self, home: usize, deadline: u64) -> AttemptEnd {
        let window = self.pcfg.no_progress_window;
        let mut last_sig = self.progress_signature();
        let mut last_change = self.net.cycle();
        while self.net.cycle() < deadline {
            if self.net.cycle() - last_change >= window {
                return AttemptEnd::Stalled;
            }
            if self.maybe_jump(deadline.min(last_change + window)) {
                // A jump can land exactly on the final-writeback deadline:
                // poll completion so the run ends at the same cycle dense
                // stepping ends at.
                if let Some(run) = self.take_kernel_results_from(home) {
                    return AttemptEnd::Finished(run);
                }
                continue;
            }
            self.step();
            if let Some(run) = self.take_kernel_results_from(home) {
                return AttemptEnd::Finished(run);
            }
            let sig = self.progress_signature();
            if sig != last_sig {
                last_sig = sig;
                last_change = self.net.cycle();
            } else if self.net.cycle() - last_change >= window {
                return AttemptEnd::Stalled;
            }
        }
        AttemptEnd::Deadline
    }

    /// Default for [`PlatformConfig::no_progress_window`]: how long
    /// `run_kernel` tolerates zero forward progress before aborting an
    /// attempt. Generous enough to cover the deepest recovery backoff
    /// (`max_retries * backoff` plus a full ring circulation) at default
    /// settings.
    pub const NO_PROGRESS_WINDOW: u64 = 50_000;

    /// Smallest accepted [`PlatformConfig::no_progress_window`]: it must
    /// comfortably exceed the deepest default recovery backoff
    /// (`max_retries * backoff = 1024` cycles) plus a full ring
    /// circulation, or the hang detector would abort runs the watchdog
    /// was still legitimately recovering.
    pub const MIN_NO_PROGRESS_WINDOW: u64 = 2_048;

    /// Default for [`PlatformConfig::kernel_cycle_cap`]: the per-kernel
    /// cycle budget historically hardcoded at `run_kernel` call sites
    /// (generous enough for every paper kernel at its simulated size,
    /// including watchdog recovery and graceful-degradation retries).
    pub const KERNEL_CYCLE_CAP: u64 = 50_000_000;

    /// The deadline of [`SnackPlatform::run_multiprogram_capped`]:
    /// effectively unbounded, so the workload's completion ends the run.
    pub const MULTIPROGRAM_CYCLE_CAP: u64 = u64::MAX / 2;

    /// A deterministic fingerprint of kernel-level forward progress:
    /// instruction issue, RCU execution and captures, overflow absorption
    /// and replay, recovery activity, and pending result count. Network
    /// injections are deliberately *excluded* — a token circling the ring
    /// without ever being captured is not progress.
    fn progress_signature(&self) -> u64 {
        let mut sig = 0u64;
        for r in &self.rcus {
            sig = sig.wrapping_add(r.stats.executed).wrapping_add(r.stats.captures);
        }
        for c in &self.cpms {
            let s = &c.stats;
            sig = sig
                .wrapping_add(s.instructions_issued)
                .wrapping_add(s.tokens_absorbed)
                .wrapping_add(s.tokens_replayed);
            let rs = c.recovery_stats();
            sig = sig.wrapping_add(rs.retries).wrapping_add(rs.corrupt_detected);
            sig = sig.wrapping_add(c.pending_results() as u64);
        }
        sig
    }

    /// Runs the attached workload to completion while *continually*
    /// re-submitting `kernel` (the paper's multi-program experiment:
    /// kernels execute on the NoC simultaneously with CMP applications).
    ///
    /// Pass `kernel = None` to run the workload alone on the same platform
    /// (the interference baseline).
    ///
    /// # Panics
    ///
    /// Panics if no workload is attached.
    pub fn run_multiprogram(
        &mut self,
        kernel: Option<&CompiledKernel>,
        max_cycles: u64,
    ) -> MultiProgramRun {
        assert!(self.engine.is_some(), "attach_workload first");
        let mut kernels_completed = 0u64;
        let mut kernel_cycles_sum = 0u64;
        let deadline = self.net.cycle() + max_cycles;
        while !self.workload_done() && self.net.cycle() < deadline {
            if let Some(k) = kernel {
                if self.cpms[0].state() == CpmState::Idle {
                    self.submit_kernel(k).expect("cpm idle");
                }
            }
            // Jump across workload think-time gaps (a fresh submission
            // parks a wake at `now` via the CPM's fetch path, so a jump
            // never skips kernel work).
            if !self.maybe_jump(deadline) {
                self.step();
            }
            if let Some(run) = self.take_kernel_results() {
                kernels_completed += 1;
                kernel_cycles_sum += run.cycles;
            }
        }
        MultiProgramRun {
            app_runtime: self.workload_runtime().unwrap_or(self.net.cycle()),
            app_finished: self.workload_done(),
            kernels_completed,
            mean_kernel_cycles: if kernels_completed == 0 {
                0.0
            } else {
                kernel_cycles_sum as f64 / kernels_completed as f64
            },
            // Flush the trailing partial sampling window so short runs
            // report real utilization medians (not a silent 0.0).
            stats: self.net.finalize_stats().clone(),
        }
    }

    /// [`SnackPlatform::run_multiprogram`] bounded by
    /// [`SnackPlatform::MULTIPROGRAM_CYCLE_CAP`] instead of a caller
    /// magic number.
    ///
    /// # Panics
    ///
    /// Panics if no workload is attached.
    pub fn run_multiprogram_capped(&mut self, kernel: Option<&CompiledKernel>) -> MultiProgramRun {
        self.run_multiprogram(kernel, Self::MULTIPROGRAM_CYCLE_CAP)
    }

    /// Launches a data token from `node` to the next node on the static
    /// ring, detouring around faulted-down ring links when a fault plan is
    /// active.
    fn launch_token(&mut self, node: NodeId, token: DataToken) {
        debug_assert!(token.dependents > 0, "dead token launched");
        let now = self.net.cycle();
        let ns = token.dep >> NAMESPACE_SHIFT;
        let home = ns as usize % self.cpms.len();
        // Registry bookkeeping only for the epoch actually resident on
        // the home CPM — a straggler from an aborted attempt must not
        // plant a watch record in the retry's registry.
        if self.cpms[home].namespace() == ns {
            self.cpms[home].note_token(&token, node, now);
        }
        let mut next = self.ring_next[node.index()];
        if let Some(plan) = self.net.fault_plan() {
            if plan
                .links
                .iter()
                .any(|l| matches!(l.kind, LinkFaultKind::Down | LinkFaultKind::Dead))
            {
                // Graceful ring degradation: if the deterministic route to
                // the ring successor crosses a severed link right now, skip
                // ahead to the first successor whose route is fully live.
                // Skipped nodes are safe — a circulating token revisits
                // them on a later lap once the link heals, and permanently
                // unreachable captures are the watchdog's job.
                let mesh = *self.net.mesh();
                let route_blocked = |dst: NodeId| -> bool {
                    let mut cur = node;
                    while cur != dst {
                        let dir = xy_route(&mesh, cur, dst);
                        if plan.link_is_down(cur, dir, now) {
                            return true;
                        }
                        match mesh.neighbor(cur, dir) {
                            Some(nb) => cur = nb,
                            None => return true,
                        }
                    }
                    false
                };
                let mut candidate = next;
                for _ in 0..mesh.node_count() {
                    if candidate != node && !route_blocked(candidate) {
                        next = candidate;
                        break;
                    }
                    candidate = self.ring_next[candidate.index()];
                }
            }
        }
        self.net.tracer_mut().record_with(now, || EventKind::TokenLaunch {
            dep: token.dep,
            seq: token.seq,
            from: node.index() as u32,
            to: next.index() as u32,
        });
        let spec = PacketSpec::new(
            node,
            next,
            self.snack_vnet,
            TrafficClass::SnackData,
            DATA_TOKEN_BYTES,
            SnackPayload::Data(token),
        );
        self.net.inject(spec).expect("valid token packet");
    }

    /// Handles a ring token arriving at `node`: CPM overflow absorption,
    /// RCU inspection, then retirement or the next hop.
    fn ring_pass(&mut self, node: NodeId, token: DataToken) {
        let now = self.net.cycle();
        let dep = token.dep;
        // A dead node's compute is gone but its router forwards: the token
        // passes straight through — no CPM absorption, no RCU capture.
        let dead_here = self.node_dead(node, now);
        let cpm_here =
            if dead_here { None } else { self.cpms.iter().position(|c| c.node() == node) };
        let mut token = if let Some(ci) = cpm_here {
            match self.cpms[ci].maybe_absorb(token, now) {
                Some(t) => t,
                None => {
                    // Parked in the overflow buffer.
                    self.net
                        .tracer_mut()
                        .record_with(now, || EventKind::CpmSpill { cpm: ci as u32, dep });
                    return;
                }
            }
        } else {
            token
        };
        let before = token.dependents;
        if !dead_here {
            self.rcus[node.index()].observe_token(&mut token);
        }
        let home = ((token.dep >> NAMESPACE_SHIFT) as usize) % self.cpms.len();
        let captured = before - token.dependents;
        if captured > 0 {
            // Wake edge: the capture may have readied an operand.
            self.wake_rcu(node.index());
            self.net.tracer_mut().record_with(now, || EventKind::RcuCapture {
                node: node.index() as u32,
                dep,
                captured,
            });
            self.cpms[home].note_captures(token.dep, captured, now);
        }
        // A copy retires when its own countdown hits zero — or, with the
        // watchdog enabled, as soon as the home CPM's record says every
        // dependent has been served. The latter catches duplicates from
        // false-positive loss declarations: the original and the replay
        // each capture a subset, so neither copy's own counter reaches
        // zero even though the dep is fully settled.
        if token.dependents > 0 && !self.cpms[home].token_settled(token.dep) {
            self.launch_token(node, token);
        } else {
            self.net.tracer_mut().record_with(now, || EventKind::TokenRetire {
                dep,
                node: node.index() as u32,
            });
            self.cpms[home].note_retired(token.dep, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{Op, Operand, ResultDest};

    fn imm(v: f64) -> Operand {
        Operand::Imm(Fixed::from_f64(v))
    }

    fn platform() -> SnackPlatform {
        SnackPlatform::new(NocConfig::default().with_sample_window(1_000)).unwrap()
    }

    /// out0 = (1+2)*4 computed on two different RCUs via a ring token.
    fn cross_pe_kernel(mesh: &Mesh) -> CompiledKernel {
        CompiledKernel {
            irregular_fetch: false,
            name: "cross".into(),
            num_outputs: 1,
            instructions: vec![
                Instruction {
                    op: Op::Add,
                    pe: mesh.node_at(1, 1),
                    vl: imm(1.0),
                    vr: imm(2.0),
                    dest: ResultDest::Token { dep: 0, dependents: 1 },
                    sub_block: 0,
                    seq: 0,
                    ends_block: true,
                },
                Instruction {
                    op: Op::Mul,
                    pe: mesh.node_at(2, 3),
                    vl: Operand::Dep(0),
                    vr: imm(4.0),
                    dest: ResultDest::Output { index: 0 },
                    sub_block: 1,
                    seq: 0,
                    ends_block: true,
                },
            ],
        }
    }

    #[test]
    fn runs_a_cross_pe_kernel_end_to_end() {
        let mut p = platform();
        let k = cross_pe_kernel(&p.mesh().clone());
        let run = p.run_kernel(&k, 10_000).expect("kernel finishes");
        assert_eq!(run.outputs, vec![Fixed::from_f64(12.0)]);
        assert!(run.cycles > 60, "includes DRAM fetch latency");
        assert_eq!(run.name, "cross");
        let rs = p.rcu_stats();
        assert_eq!(rs.executed, 2);
        assert!(rs.captures >= 1);
    }

    #[test]
    fn mac_reduction_kernel_on_one_rcu() {
        let mut p = platform();
        let pe = p.mesh().node_at(3, 3);
        // acc = 1*2 + 3*4 + 5*6 = 44.
        let pairs = [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)];
        let n = pairs.len();
        let instructions = pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| Instruction {
                op: Op::Mac,
                pe,
                vl: imm(a),
                vr: imm(b),
                dest: if i == n - 1 {
                    ResultDest::Output { index: 0 }
                } else {
                    ResultDest::Accumulate
                },
                sub_block: 0,
                seq: i as u32,
                ends_block: i == n - 1,
            })
            .collect();
        let k = CompiledKernel { name: "dot".into(), num_outputs: 1, instructions, irregular_fetch: false };
        let run = p.run_kernel(&k, 10_000).expect("finishes");
        assert_eq!(run.outputs, vec![Fixed::from_f64(44.0)]);
    }

    #[test]
    fn token_with_many_dependents_feeds_every_rcu() {
        let mut p = platform();
        let mesh = *p.mesh();
        let producer = mesh.node_at(0, 1);
        let n = mesh.node_count() as u32;
        let mut instructions = vec![Instruction {
            op: Op::Add,
            pe: producer,
            vl: imm(5.0),
            vr: imm(5.0),
            dest: ResultDest::Token { dep: 0, dependents: n },
            sub_block: 0,
            seq: 0,
            ends_block: true,
        }];
        for (i, node) in mesh.nodes().enumerate() {
            instructions.push(Instruction {
                op: Op::Add,
                pe: node,
                vl: Operand::Dep(0),
                vr: imm(i as f64),
                dest: ResultDest::Output { index: i as u32 },
                sub_block: 1 + i as u32,
                seq: 0,
                ends_block: true,
            });
        }
        let k = CompiledKernel { name: "bcast".into(), num_outputs: 16, instructions, irregular_fetch: false };
        let run = p.run_kernel(&k, 50_000).expect("finishes");
        for (i, out) in run.outputs.iter().enumerate() {
            assert_eq!(*out, Fixed::from_f64(10.0 + i as f64), "output {i}");
        }
    }

    #[test]
    fn workload_alone_matches_standalone_runner_protocol() {
        let mut p = platform();
        let profile = snacknoc_workloads::suite::profile(snacknoc_workloads::Benchmark::Fmm)
            .scaled(0.005);
        p.attach_workload(&profile, 11);
        let run = p.run_multiprogram(None, 50_000_000);
        assert!(run.app_finished);
        assert_eq!(run.kernels_completed, 0);
        assert!(run.app_runtime > 0);
    }

    #[test]
    fn multiprogram_runs_kernels_alongside_workload() {
        let mut p = platform();
        let mesh = *p.mesh();
        let profile = snacknoc_workloads::suite::profile(snacknoc_workloads::Benchmark::Volrend)
            .scaled(0.003);
        p.attach_workload(&profile, 13);
        let k = cross_pe_kernel(&mesh);
        let run = p.run_multiprogram(Some(&k), 100_000_000);
        assert!(run.app_finished);
        assert!(run.kernels_completed > 0, "kernels complete during the app");
        assert!(run.mean_kernel_cycles > 0.0);
    }

    #[test]
    fn platform_and_results_are_send() {
        // The parallel sweep harness constructs platforms from owned
        // configs inside worker threads and ships results back; these
        // bounds are load-bearing for `crates/bench/src/sweep.rs`.
        fn assert_send<T: Send>() {}
        assert_send::<SnackPlatform>();
        assert_send::<MultiProgramRun>();
        assert_send::<KernelRun>();
        assert_send::<NocConfig>();
    }

    #[test]
    fn rejects_two_vnets() {
        let cfg = NocConfig::default().with_vnets(2);
        assert!(matches!(
            SnackPlatform::new(cfg),
            Err(PlatformError::MissingSnackVnet)
        ));
    }

    #[test]
    fn decentralized_cpms_run_kernels_concurrently() {
        // Paper §VII future work: one CPM per memory controller. Four
        // kernels with *identical* dependency ids run at once; namespacing
        // keeps their ring tokens apart and routes results home.
        let mut p = SnackPlatform::with_cpm_count(
            NocConfig::default().with_sample_window(1_000),
            4,
        )
        .unwrap();
        assert_eq!(p.cpm_count(), 4);
        let mesh = *p.mesh();
        let kernels: Vec<CompiledKernel> = (0..4)
            .map(|i| {
                let mut k = cross_pe_kernel(&mesh);
                // Different immediate so each CPM's answer is distinct:
                // out = (1 + 2 + i) * 4.
                k.instructions[0].vr = imm(2.0 + i as f64);
                k.name = format!("k{i}");
                k
            })
            .collect();
        for (i, k) in kernels.iter().enumerate() {
            p.submit_kernel_to(i, k).expect("idle cpm accepts");
        }
        let mut done = vec![None; 4];
        for _ in 0..100_000 {
            p.step();
            for (i, slot) in done.iter_mut().enumerate() {
                if slot.is_none() {
                    *slot = p.take_kernel_results_from(i);
                }
            }
            if done.iter().all(|d| d.is_some()) {
                break;
            }
        }
        for (i, run) in done.into_iter().enumerate() {
            let run = run.unwrap_or_else(|| panic!("kernel {i} must finish"));
            assert_eq!(run.name, format!("k{i}"));
            assert_eq!(run.outputs, vec![Fixed::from_f64((3.0 + i as f64) * 4.0)], "kernel {i}");
        }
    }

    #[test]
    fn decentralized_cpm_count_is_validated() {
        assert!(matches!(
            SnackPlatform::with_cpm_count(NocConfig::default(), 5),
            Err(PlatformError::BadCpmCount { requested: 5, corners: 4 })
        ));
        assert!(matches!(
            SnackPlatform::with_cpm_count(NocConfig::default(), 0),
            Err(PlatformError::BadCpmCount { .. })
        ));
    }

    #[test]
    fn coherent_workload_shares_the_noc_with_kernels() {
        // The MESI traffic mode: protocol classes on vnets 0-2, snack on 3.
        let cfg = NocConfig::default().with_vnets(4).with_sample_window(1_000);
        let mut p = SnackPlatform::new(cfg).unwrap();
        let mesh = *p.mesh();
        p.attach_coherent_workload(
            AccessPattern { accesses_per_core: 200, ..AccessPattern::shared_heavy() },
            21,
        );
        let k = cross_pe_kernel(&mesh);
        let run = p.run_multiprogram(Some(&k), 100_000_000);
        assert!(run.app_finished, "coherent workload completes");
        assert!(run.kernels_completed > 0, "kernels complete alongside MESI traffic");
    }

    #[test]
    fn coherent_workload_requires_four_vnets() {
        let mut p = SnackPlatform::new(NocConfig::default()).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.attach_coherent_workload(AccessPattern::default(), 1);
        }));
        assert!(result.is_err(), "3-vnet platform must reject coherent workloads");
    }

    #[test]
    fn kernel_latency_grows_under_interference() {
        // Zero-load kernel latency vs the same kernel sharing the NoC with
        // a heavy benchmark: interference must not speed the kernel up, and
        // the paper reports it slows by a few percent at most.
        let mesh_kernel = |p: &SnackPlatform| cross_pe_kernel(p.mesh());
        let mut alone = platform();
        let k = mesh_kernel(&alone);
        let solo = alone.run_kernel(&k, 100_000).expect("finishes").cycles;

        let mut shared = platform();
        let profile = snacknoc_workloads::suite::profile(snacknoc_workloads::Benchmark::Radix)
            .scaled(0.001);
        shared.attach_workload(&profile, 17);
        // Let the workload warm up, then run the kernel.
        shared.run(2_000);
        let busy = shared.run_kernel(&k, 200_000).expect("finishes").cycles;
        assert!(busy >= solo, "interference cannot accelerate the kernel: {busy} vs {solo}");
    }

    /// A plan that drops *every* unprotected data packet on *every* link
    /// for cycles `start..end` — the worst transient outage.
    fn blackout_plan(mesh: &Mesh, start: u64, end: u64) -> FaultPlan {
        let mut plan = FaultPlan::seeded(7);
        for node in mesh.nodes() {
            for dir in snacknoc_noc::Dir::ROUTER_DIRS {
                if mesh.neighbor(node, dir).is_some() {
                    plan = plan.with_link_fault(
                        node,
                        dir,
                        start,
                        end,
                        LinkFaultKind::Drop { rate: 1.0 },
                    );
                }
            }
        }
        plan
    }

    #[test]
    fn recovery_replays_tokens_lost_to_a_transient_blackout() {
        let mut p = platform();
        let mesh = *p.mesh();
        let k = cross_pe_kernel(&mesh);
        p.set_fault_plan(blackout_plan(&mesh, 0, 2_000)).unwrap();
        p.enable_recovery(RecoveryConfig::aggressive());
        let run = p.run_kernel(&k, 100_000).expect("kernel survives the outage");
        assert_eq!(run.outputs, vec![Fixed::from_f64(12.0)]);
        assert!(p.lost_packets() > 0, "the blackout actually dropped tokens");
        let rs = p.recovery_stats();
        assert!(rs.detected > 0, "the watchdog noticed the loss");
        assert_eq!(rs.recovered, rs.detected, "every detected loss was recovered");
        assert!(rs.retries >= rs.detected);
        assert!(rs.recovery_latency.samples() > 0);
    }

    #[test]
    fn corrupted_tokens_are_quarantined_and_retransmitted() {
        let mut p = platform();
        let mesh = *p.mesh();
        let k = cross_pe_kernel(&mesh);
        // Corrupt every data packet until cycle 1500, then go clean.
        let mut plan = FaultPlan::seeded(11);
        for node in mesh.nodes() {
            for dir in snacknoc_noc::Dir::ROUTER_DIRS {
                if mesh.neighbor(node, dir).is_some() {
                    plan = plan.with_link_fault(
                        node,
                        dir,
                        0,
                        1_500,
                        LinkFaultKind::Corrupt { rate: 1.0 },
                    );
                }
            }
        }
        p.set_fault_plan(plan).unwrap();
        p.enable_recovery(RecoveryConfig::aggressive());
        let run = p.run_kernel(&k, 100_000).expect("kernel survives corruption");
        assert_eq!(run.outputs, vec![Fixed::from_f64(12.0)]);
        let rs = p.recovery_stats();
        assert!(rs.corrupt_detected > 0, "checksums caught the damage");
        assert_eq!(rs.recovered, rs.detected);
        assert_eq!(run.outputs, vec![Fixed::from_f64(12.0)]);
    }

    #[test]
    fn permanent_loss_terminates_with_a_kernel_timeout() {
        let mut p = platform();
        let mesh = *p.mesh();
        let k = cross_pe_kernel(&mesh);
        // The blackout never lifts: the token can never reach its consumer
        // and the retry budget runs dry. run_kernel must abort with a
        // structured report instead of spinning to the cycle cap.
        p.set_fault_plan(blackout_plan(&mesh, 0, u64::MAX)).unwrap();
        p.enable_recovery(RecoveryConfig::aggressive());
        match p.run_kernel(&k, 50_000_000) {
            Err(PlatformError::KernelTimeout { cycles, stall }) => {
                assert!(
                    cycles < 1_000_000,
                    "no-progress watchdog fires long before the cycle cap: {cycles}"
                );
                assert!(stall.lost_packets > 0, "report blames the dropped tokens: {stall}");
            }
            other => panic!("expected KernelTimeout, got {other:?}"),
        }
        let rs = p.recovery_stats();
        assert!(rs.detected > 0);
        assert!(rs.recovered < rs.detected, "the loss was genuinely unrecoverable");
    }

    #[test]
    fn ring_detours_around_a_downed_link_without_recovery() {
        let mut p = platform();
        let mesh = *p.mesh();
        // Sever the producer's outbound ring hop for the whole run. The
        // launch path must steer tokens around the dead wire; no recovery
        // machinery is enabled, so completion proves the detour works.
        let ring = mesh.ring().unwrap();
        let producer = mesh.node_at(1, 1);
        let pos = ring.iter().position(|&n| n == producer).unwrap();
        let succ = ring[(pos + 1) % ring.len()];
        let dir = snacknoc_noc::Dir::ROUTER_DIRS
            .into_iter()
            .find(|&d| mesh.neighbor(producer, d) == Some(succ))
            .expect("ring hops are mesh links");
        let plan = FaultPlan::seeded(3).with_link_fault(
            producer,
            dir,
            0,
            u64::MAX,
            LinkFaultKind::Down,
        );
        p.set_fault_plan(plan).unwrap();
        let k = cross_pe_kernel(&mesh);
        let run = p.run_kernel(&k, 100_000).expect("detour keeps the ring live");
        assert_eq!(run.outputs, vec![Fixed::from_f64(12.0)]);
    }

    #[test]
    fn rcu_stall_windows_delay_but_do_not_break_kernels() {
        let mut baseline = platform();
        let mesh = *baseline.mesh();
        let k = cross_pe_kernel(&mesh);
        let clean = baseline.run_kernel(&k, 100_000).expect("finishes").cycles;

        let mut p = platform();
        let plan = FaultPlan::seeded(5)
            .with_rcu_stall(mesh.node_at(1, 1), 0, 3_000)
            .with_rcu_stall(mesh.node_at(2, 3), 0, 3_000);
        p.set_fault_plan(plan).unwrap();
        let run = p.run_kernel(&k, 100_000).expect("finishes after the stall");
        assert_eq!(run.outputs, vec![Fixed::from_f64(12.0)]);
        assert!(
            run.cycles > clean,
            "stalled RCUs must slow the kernel: {} vs {clean}",
            run.cycles
        );
    }

    #[test]
    fn with_cpm_config_rejects_inverted_hysteresis() {
        let cfg = CpmConfig {
            overflow_enter_below: 0.9,
            overflow_exit_above: 0.2,
            ..CpmConfig::default()
        };
        assert!(matches!(
            SnackPlatform::with_cpm_config(NocConfig::default(), cfg, DramModel::default()),
            Err(PlatformError::CpmConfig(CpmConfigError::HysteresisInverted { .. }))
        ));
    }

    #[test]
    fn default_fault_free_run_is_bit_identical_with_and_without_none_plan() {
        // Zero-cost-when-disabled: installing FaultPlan::none() must not
        // perturb a single cycle of the simulation.
        let mut a = platform();
        let mesh = *a.mesh();
        let k = cross_pe_kernel(&mesh);
        let run_a = a.run_kernel(&k, 100_000).expect("finishes");

        let mut b = platform();
        b.set_fault_plan(FaultPlan::none()).unwrap();
        let run_b = b.run_kernel(&k, 100_000).expect("finishes");
        assert_eq!(run_a.cycles, run_b.cycles);
        assert_eq!(run_a.outputs, run_b.outputs);
        assert_eq!(b.fault_counters(), FaultCounters::default());
    }

    #[test]
    fn ring_tracer_records_full_kernel_lifecycle() {
        use snacknoc_trace::{ComponentClass, TracerHandle};
        let mut p = platform();
        p.set_tracer(TracerHandle::ring(1 << 16));
        let k = cross_pe_kernel(&p.mesh().clone());
        let run = p.run_kernel(&k, 10_000).expect("kernel finishes");
        assert_eq!(run.outputs, vec![Fixed::from_f64(12.0)]);
        let tracer = *p.take_tracer().take_ring().expect("ring tracer installed");
        assert_eq!(tracer.dropped(ComponentClass::Cpm), 0);
        let count = |name: &str| {
            tracer.merged_events().iter().filter(|e| e.kind.name() == name).count()
        };
        // Kernel bracket on the CPM lane.
        assert_eq!(count("kernel_submit"), 1);
        assert_eq!(count("kernel_finish"), 1);
        // One instruction packet per PE, one issue event per instruction.
        assert_eq!(count("cpm_issue"), 2);
        assert_eq!(count("rcu_issue"), 2);
        // Both instructions fired; the token launched, was captured by the
        // consumer RCU, and retired.
        assert_eq!(count("rcu_fire"), 2);
        assert!(count("token_launch") >= 1);
        assert_eq!(count("rcu_capture"), 1);
        assert_eq!(count("token_retire"), 1);
        // The NoC lane saw every snack packet.
        assert!(count("packet_inject") >= 4, "2 instr + token hops + result");
        assert_eq!(count("packet_inject"), count("packet_eject"));
        // Submit/finish bracket matches the measured kernel latency.
        let submit = tracer
            .merged_events()
            .iter()
            .find(|e| e.kind.name() == "kernel_submit")
            .map(|e| e.cycle)
            .expect("submit recorded");
        let finish = tracer
            .merged_events()
            .iter()
            .find(|e| e.kind.name() == "kernel_finish")
            .map(|e| e.cycle)
            .expect("finish recorded");
        assert_eq!(finish - submit, run.cycles);
    }

    #[test]
    fn nop_tracer_kernel_run_is_bit_identical_to_untraced() {
        use snacknoc_trace::TracerHandle;
        let mut a = platform();
        let mesh = *a.mesh();
        let k = cross_pe_kernel(&mesh);
        let run_a = a.run_kernel(&k, 100_000).expect("finishes");

        let mut b = platform();
        b.set_tracer(TracerHandle::Nop);
        let run_b = b.run_kernel(&k, 100_000).expect("finishes");
        assert_eq!(run_a.cycles, run_b.cycles);
        assert_eq!(run_a.outputs, run_b.outputs);
        assert_eq!(a.rcu_stats().executed, b.rcu_stats().executed);
        assert_eq!(a.stats().injected_flits, b.stats().injected_flits);
        assert_eq!(a.stats().crossbar_transfers, b.stats().crossbar_transfers);
    }

    #[test]
    fn ring_tracer_does_not_perturb_kernel_timing() {
        use snacknoc_trace::TracerHandle;
        let mut a = platform();
        let mesh = *a.mesh();
        let k = cross_pe_kernel(&mesh);
        let run_a = a.run_kernel(&k, 100_000).expect("finishes");

        let mut b = platform();
        b.set_tracer(TracerHandle::ring(4096));
        let run_b = b.run_kernel(&k, 100_000).expect("finishes");
        assert_eq!(run_a.cycles, run_b.cycles, "observation must not change timing");
        assert_eq!(run_a.outputs, run_b.outputs);
    }

    /// The test platform in stepping mode `mode`.
    fn platform_in(mode: Stepping) -> SnackPlatform {
        SnackPlatform::new(NocConfig::default().with_sample_window(1_000).with_stepping(mode)).unwrap()
    }

    /// Runs `run` in both stepping modes, asserts serial stepping
    /// reproduces the dense oracle, and returns the dense result.
    fn modes_match_dense<T: PartialEq + fmt::Debug>(run: impl Fn(Stepping) -> T) -> T {
        let [dense, serial] = Stepping::ALL.map(run);
        assert_eq!(dense, serial, "serial mode diverged from dense");
        dense
    }

    /// A comparable snapshot of everything a stepping mode could perturb.
    fn mode_fingerprint(p: &mut SnackPlatform) -> (u64, u64, u64, u64, u64, u64, u64, usize) {
        let rcu = p.rcu_stats();
        let rec = p.recovery_stats();
        let cycle = p.cycle();
        let (inj, del) = (p.net_injected_packets(), p.net_delivered_packets());
        let stats = p.finalize_stats();
        (
            cycle,
            inj,
            del,
            stats.injected_flits,
            stats.crossbar_transfers,
            rcu.executed + rcu.captures + rcu.stalled_cycles,
            rec.detected + rec.recovered + rec.retries,
            (0..stats.router_count())
                .map(|r| stats.crossbar_series(r).samples().len())
                .sum::<usize>(),
        )
    }

    /// A clock jump that lands exactly on the no-progress deadline must
    /// time out at the *same cycle* as the dense reference, with
    /// identical statistics — the watchdog fires neither early
    /// (spuriously, mid-jump) nor late (jumped over).
    #[test]
    fn clock_jump_watchdog_fires_at_the_exact_dense_timeout_cycle() {
        let run = |mode: Stepping| {
            let mut p = platform_in(mode);
            let k = cross_pe_kernel(&p.mesh().clone());
            // Drop *everything*, protected classes included: the kernel
            // can never progress and the platform goes fully quiescent,
            // so serial stepping's only path to the timeout is an idle jump
            // that lands exactly on `last_change + NO_PROGRESS_WINDOW`.
            let plan = FaultPlan::seeded(3)
                .with_drop_rate(1.0)
                .with_respect_protection(false)
                .with_targets(snacknoc_noc::FaultTargets {
                    data: true,
                    instructions: true,
                    communication: true,
                });
            p.set_fault_plan(plan).unwrap();
            match p.run_kernel(&k, 10_000_000) {
                Err(PlatformError::KernelTimeout { cycles, .. }) => (cycles, mode_fingerprint(&mut p)),
                other => panic!("expected KernelTimeout, got {other:?}"),
            }
        };
        let dense = modes_match_dense(run);
        assert!(
            dense.0 >= SnackPlatform::NO_PROGRESS_WINDOW
                && dense.0 < SnackPlatform::NO_PROGRESS_WINDOW + 1_000,
            "timeout = brief issue burst + one full dead window, got {}",
            dense.0
        );
    }

    /// Recovery-watchdog sweep deadlines are component wakes — jumping
    /// across the post-blackout quiet period must reach each sweep at
    /// exactly the dense cycle, declaring exactly the same losses and
    /// replaying exactly the same tokens.
    #[test]
    fn clock_jump_recovery_matches_dense_across_watchdog_deadlines() {
        let run = |mode: Stepping| {
            let mut p = platform_in(mode);
            let mesh = *p.mesh();
            let k = cross_pe_kernel(&mesh);
            p.set_fault_plan(blackout_plan(&mesh, 0, 2_000)).unwrap();
            p.enable_recovery(RecoveryConfig::aggressive());
            let run = p.run_kernel(&k, 100_000).expect("kernel survives the outage");
            (run.cycles, run.outputs.clone(), mode_fingerprint(&mut p))
        };
        modes_match_dense(run);
    }

    /// A fault-free run with recovery armed must never declare a loss —
    /// idle jumps crossing sweep deadlines are observationally identical
    /// to stepping through them.
    #[test]
    fn idle_jumps_do_not_trip_the_recovery_watchdog_spuriously() {
        let mut p = platform();
        p.enable_recovery(RecoveryConfig::aggressive());
        let k = cross_pe_kernel(&p.mesh().clone());
        let run = p.run_kernel(&k, 100_000).expect("finishes");
        assert_eq!(run.outputs, vec![Fixed::from_f64(12.0)]);
        assert_eq!(p.recovery_stats().detected, 0, "no spurious loss declarations");
        // A long idle run afterwards is one jump: the clock lands exactly
        // on target and the watchdog still holds its fire.
        let before = p.cycle();
        p.run(1_000_000);
        assert_eq!(p.cycle(), before + 1_000_000);
        assert_eq!(p.recovery_stats().detected, 0);
    }

    /// Dense stepping never jumps: an idle dense platform takes one step
    /// where a serial one crosses a million cycles in one `step_or_jump`.
    #[test]
    fn dense_steps_where_serial_jumps_to_the_cap() {
        assert_eq!(platform_in(Stepping::Dense).step_or_jump(1_000_000), 1);
        assert_eq!(platform_in(Stepping::Serial).step_or_jump(1_000_000), 1_000_000);
    }

    /// Serial stepping must produce the identical multiprogram result —
    /// think-time gaps between workload bursts are where the jumps land.
    #[test]
    fn clock_jump_multiprogram_is_bit_identical() {
        let run = |mode: Stepping| {
            let mut p = platform_in(mode);
            let profile = snacknoc_workloads::suite::profile(snacknoc_workloads::Benchmark::Radix)
                .scaled(0.002);
            p.attach_workload(&profile, 23);
            let k = cross_pe_kernel(&p.mesh().clone());
            let out = p.run_multiprogram(Some(&k), 2_000_000);
            (
                out.app_runtime,
                out.app_finished,
                out.kernels_completed,
                out.mean_kernel_cycles.to_bits(),
                mode_fingerprint(&mut p),
            )
        };
        modes_match_dense(run);
    }

    /// A parked RCU owes its stalls exactly. The consumer of
    /// `cross_pe_kernel` parks waiting for a token its dead producer
    /// never sends. Dense stepping ticks it every cycle; serial stepping
    /// parks it and jumps. Both must read the same `rcu_stats()` at every
    /// checkpoint when the consumer's node dies later, when a new plan
    /// revives it mid-park, and when a new plan kills it in the past.
    #[test]
    fn parked_rcus_owe_exact_stalls_across_deaths_and_plan_swaps() {
        let mesh = *platform().mesh();
        let (producer, consumer) = (mesh.node_at(1, 1), mesh.node_at(2, 3));
        let plan = FaultPlan::seeded(1).with_dead_rcu(producer, 0);
        let swaps = [
            None,
            Some(FaultPlan::none()),
            Some(plan.clone().with_dead_rcu(consumer, 2_000)),
        ];
        for swap in swaps {
            let run = |mode: Stepping| {
                let mut p = platform_in(mode);
                p.set_fault_plan(plan.clone().with_dead_rcu(consumer, 4_000)).unwrap();
                p.submit_kernel(&cross_pe_kernel(&mesh)).unwrap();
                let mut readings = Vec::new();
                let mut calls = 0;
                for checkpoint in [1_000, 3_000, 6_000, 9_000] {
                    while p.cycle() < checkpoint {
                        p.step_or_jump(checkpoint);
                        calls += 1;
                    }
                    let s = p.rcu_stats();
                    readings.push((s.executed, s.captures, s.stalled_cycles));
                    if checkpoint == 3_000 {
                        if let Some(new_plan) = &swap {
                            p.set_fault_plan(new_plan.clone()).unwrap();
                        }
                    }
                }
                (readings, calls)
            };
            let (dense, _) = run(Stepping::Dense);
            let (serial, serial_calls) = run(Stepping::Serial);
            assert_eq!(serial, dense, "swap {swap:?}: serial stalls diverged from dense");
            assert!(dense[0].2 > 900, "the consumer stalls from its first tick: {dense:?}");
            if swap.is_none() {
                assert_eq!(dense[2], dense[3], "a dead RCU owes no stalls: {dense:?}");
                assert!(serial_calls < 100, "parked RCUs must not veto jumps: {serial_calls}");
            }
        }
    }

    #[test]
    fn dead_rcu_at_submission_is_remapped_proactively() {
        // Node (1,1) hosts sub-block 0 and is dead before submission: the
        // first attempt must already run on a remapped kernel — no wasted
        // stall window, no penalty cycles.
        let run = |mode: Stepping| {
            let mut p = platform_in(mode);
            let mesh = *p.mesh();
            let k = cross_pe_kernel(&mesh);
            let plan = FaultPlan::seeded(9).with_dead_rcu(mesh.node_at(1, 1), 0);
            p.set_fault_plan(plan).unwrap();
            let run = p.run_kernel(&k, 200_000).expect("remap routes around the dead RCU");
            assert_eq!(run.outputs, vec![Fixed::from_f64(12.0)]);
            let d = run.degradation.expect("degraded run carries a report");
            assert_eq!(d.dead_rcus, 1);
            assert_eq!(d.remaps, 1, "proactive remap on the first attempt");
            assert_eq!(d.failovers, 0);
            assert_eq!(d.penalty_cycles, 0, "no attempt was wasted");
            assert_eq!(d.final_attempt_cycles, run.cycles);
            assert_eq!(d.total_cycles(), run.cycles);
            (run.cycles, run.outputs.clone(), d, mode_fingerprint(&mut p))
        };
        modes_match_dense(run);
    }

    #[test]
    fn mid_run_rcu_death_stalls_then_retries_with_a_remap() {
        // The consumer RCU dies *after* submission but before its
        // instruction packet can arrive: attempt 1 stalls out a full
        // no-progress window, is quarantined, and attempt 2 resubmits the
        // kernel remapped off the corpse under a fresh namespace epoch.
        let run = |mode: Stepping| {
            let mut p = platform_in(mode);
            let mesh = *p.mesh();
            let k = cross_pe_kernel(&mesh);
            let plan = FaultPlan::seeded(13).with_dead_rcu(mesh.node_at(2, 3), 1);
            p.set_fault_plan(plan).unwrap();
            p.set_platform_config(PlatformConfig {
                no_progress_window: 3_000,
                ..PlatformConfig::default()
            })
            .unwrap();
            let run = p.run_kernel(&k, 200_000).expect("retry-with-remap recovers");
            assert_eq!(run.outputs, vec![Fixed::from_f64(12.0)]);
            let d = run.degradation.expect("degraded run carries a report");
            assert_eq!(d.dead_rcus, 1);
            assert_eq!(d.remaps, 1, "the retry was remapped");
            assert!(d.penalty_cycles >= 3_000, "attempt 1 burned a stall window");
            assert_eq!(d.final_attempt_cycles, run.cycles);
            (run.cycles, run.outputs.clone(), d, mode_fingerprint(&mut p))
        };
        modes_match_dense(run);
    }

    #[test]
    fn dead_home_cpm_node_fails_over_to_a_standby_corner() {
        let run = |mode: Stepping| {
            let cfg = NocConfig::default().with_sample_window(1_000).with_stepping(mode);
            let mut p = SnackPlatform::with_cpm_count(cfg, 4).unwrap();
            let mesh = *p.mesh();
            let home_node = p.cpm_at(0).node();
            let k = cross_pe_kernel(&mesh);
            let plan = FaultPlan::seeded(17).with_dead_rcu(home_node, 0);
            p.set_fault_plan(plan).unwrap();
            let run = p.run_kernel(&k, 200_000).expect("failover keeps the kernel alive");
            assert_eq!(run.outputs, vec![Fixed::from_f64(12.0)]);
            let d = run.degradation.expect("degraded run carries a report");
            assert_eq!(d.failovers, 1, "home CPM moved to a standby corner");
            assert_eq!(d.dead_rcus, 1);
            (run.cycles, run.outputs.clone(), d, mode_fingerprint(&mut p))
        };
        modes_match_dense(run);
    }

    #[test]
    fn dead_home_cpm_with_no_standby_is_unrecoverable() {
        let mut p = platform();
        let mesh = *p.mesh();
        let home_node = p.cpm().node();
        let k = cross_pe_kernel(&mesh);
        p.set_fault_plan(FaultPlan::seeded(19).with_dead_rcu(home_node, 0)).unwrap();
        match p.run_kernel(&k, 200_000) {
            Err(PlatformError::Unrecoverable { resource, attempts, report, .. }) => {
                assert_eq!(resource, DegradedResource::StandbyCpms);
                assert_eq!(attempts, 0, "failed before any submission");
                assert_eq!(report.remaps, 0, "nothing was submitted, so nothing remapped");
                assert_eq!((report.failovers, report.penalty_cycles), (0, 0));
                assert_eq!(report.dead_rcus, 1, "the report names the dead home node");
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn unfixable_permanent_stall_exhausts_the_attempt_budget() {
        // A permanent dead link plus a total forever-blackout: every
        // attempt stalls, no remap can help (no RCU is dead), and the
        // attempt budget runs out with a typed verdict — never a hang.
        let mut p = platform();
        let mesh = *p.mesh();
        let k = cross_pe_kernel(&mesh);
        let node = mesh.node_at(1, 1);
        let dir = snacknoc_noc::Dir::ROUTER_DIRS
            .into_iter()
            .find(|&d| mesh.neighbor(node, d).is_some())
            .unwrap();
        let plan = blackout_plan(&mesh, 0, u64::MAX).with_dead_link(node, dir, 0);
        p.set_fault_plan(plan).unwrap();
        p.set_platform_config(PlatformConfig {
            no_progress_window: SnackPlatform::MIN_NO_PROGRESS_WINDOW,
            max_kernel_attempts: 2,
            ..PlatformConfig::default()
        })
        .unwrap();
        match p.run_kernel(&k, 10_000_000) {
            Err(PlatformError::Unrecoverable { resource, attempts, cycles, report, .. }) => {
                assert_eq!(resource, DegradedResource::RetryBudget);
                assert_eq!(attempts, 2, "both budgeted attempts were spent");
                assert!(cycles < 100_000, "bounded by windows, not the cycle cap: {cycles}");
                assert_eq!(report.remaps, 0, "no RCU is dead, so no attempt was remapped");
                assert_eq!(report.dead_links, 1);
                assert_eq!(report.final_attempt_cycles, 0, "no attempt completed");
                assert!(
                    report.penalty_cycles > 0 && report.penalty_cycles <= cycles,
                    "both abandoned attempts are charged: {} of {cycles}",
                    report.penalty_cycles
                );
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn transient_only_stalls_keep_the_plain_timeout_contract() {
        // No permanent fault to route around: the degradation loop must
        // not retry at all — same KernelTimeout as before this feature.
        let mut p = platform();
        let mesh = *p.mesh();
        let k = cross_pe_kernel(&mesh);
        p.set_fault_plan(blackout_plan(&mesh, 0, u64::MAX)).unwrap();
        match p.run_kernel(&k, 10_000_000) {
            Err(PlatformError::KernelTimeout { .. }) => {}
            other => panic!("expected KernelTimeout, got {other:?}"),
        }
    }

    #[test]
    fn platform_config_knobs_are_validated() {
        let mut p = platform();
        assert_eq!(
            p.set_platform_config(PlatformConfig {
                no_progress_window: 0,
                ..PlatformConfig::default()
            }),
            Err(PlatformConfigError::WindowTooSmall {
                window: 0,
                min: SnackPlatform::MIN_NO_PROGRESS_WINDOW,
            })
        );
        assert_eq!(
            p.set_platform_config(PlatformConfig {
                no_progress_window: SnackPlatform::MIN_NO_PROGRESS_WINDOW - 1,
                ..PlatformConfig::default()
            }),
            Err(PlatformConfigError::WindowTooSmall {
                window: SnackPlatform::MIN_NO_PROGRESS_WINDOW - 1,
                min: SnackPlatform::MIN_NO_PROGRESS_WINDOW,
            })
        );
        assert_eq!(
            p.set_platform_config(PlatformConfig {
                max_kernel_attempts: 0,
                ..PlatformConfig::default()
            }),
            Err(PlatformConfigError::BadAttemptBudget {
                attempts: 0,
                max: PlatformConfig::MAX_KERNEL_ATTEMPTS,
            })
        );
        assert_eq!(
            p.set_platform_config(PlatformConfig {
                max_kernel_attempts: PlatformConfig::MAX_KERNEL_ATTEMPTS + 1,
                ..PlatformConfig::default()
            }),
            Err(PlatformConfigError::BadAttemptBudget {
                attempts: PlatformConfig::MAX_KERNEL_ATTEMPTS + 1,
                max: PlatformConfig::MAX_KERNEL_ATTEMPTS,
            })
        );
        assert_eq!(
            p.set_platform_config(PlatformConfig {
                kernel_cycle_cap: SnackPlatform::NO_PROGRESS_WINDOW - 1,
                ..PlatformConfig::default()
            }),
            Err(PlatformConfigError::CycleCapBelowWindow {
                cap: SnackPlatform::NO_PROGRESS_WINDOW - 1,
                window: SnackPlatform::NO_PROGRESS_WINDOW,
            })
        );
        // A valid config installs and reads back.
        let cfg = PlatformConfig {
            no_progress_window: 4_096,
            max_kernel_attempts: 8,
            ..PlatformConfig::default()
        };
        p.set_platform_config(cfg).unwrap();
        assert_eq!(p.platform_config(), cfg);
    }

    #[test]
    fn clean_runs_report_no_degradation() {
        let mut p = platform();
        let k = cross_pe_kernel(&p.mesh().clone());
        let run = p.run_kernel(&k, 100_000).expect("finishes");
        assert_eq!(run.degradation, None, "fault-free runs carry no report");
    }

}
