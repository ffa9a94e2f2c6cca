//! The assembled SnackNoC platform: a mesh NoC whose routers carry RCUs,
//! a CPM at a memory-controller node, and (optionally) a CMP workload
//! sharing the network — the full system of paper Fig. 5.
//!
//! Submodules: `cycle` (the cycle engine), `ring` (ring-token transport)
//! and the error and config types; [`SnackPlatform::run_kernel`] lives
//! in [`crate::lifecycle`].

mod config;
mod cycle;
mod error;
mod ring;

pub use config::{PlatformConfig, PlatformConfigError};
pub use error::{DegradedResource, PlatformError};

use crate::cpm::{
    Cpm, CpmConfig, CpmState, RecoveryConfig, RecoveryStats, SubmitError, NAMESPACE_SHIFT,
};
use crate::dram::DramModel;
use crate::fixed::Fixed;
use crate::lifecycle::KernelRun;
use crate::rcu::{Emission, Rcu, RcuStats};
use crate::token::{CompiledKernel, DataToken, Instruction};
use snacknoc_noc::{
    BitSet, FaultCounters, FaultPlan, FaultPlanError, Mesh, NetStats, Network, NocConfig, NodeId,
    Packet, PacketSpec, StallReport,
};
use snacknoc_trace::{EventKind, TracerHandle};
use snacknoc_workloads::coherence::{AccessPattern, CohMessage, CoherentEngine};
use snacknoc_workloads::{BenchmarkProfile, CmpMessage, TrafficEngine};

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
    /// `next_epoch[i]`: the namespace epoch CPM `i`'s next
    /// [`SnackPlatform::submit_kernel_epoch`] takes.
    next_epoch: Vec<u32>,
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
        platform.next_epoch = vec![0; cpm_count];
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
            next_epoch: vec![0],
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

    /// The network's in-flight state now: what a kernel timeout or an
    /// unrecoverable verdict reports.
    pub(crate) fn stall_report(&self) -> StallReport {
        self.net.stall_report()
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

    /// Submits a kernel to the `i`-th CPM of a decentralized platform,
    /// under the namespace that CPM already holds.
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

    /// Namespace epochs available per CPM: how many distinct tags
    /// `ns = cpm + cpm_count × epoch` fit the 8-bit namespace field.
    /// Each CPM's epoch counter wraps at this bound.
    pub fn namespace_epochs(&self) -> u32 {
        (1u32 << (32 - NAMESPACE_SHIFT)) / self.cpms.len() as u32
    }

    /// Submits a kernel to the `i`-th CPM under that CPM's next namespace
    /// epoch, re-tagging it `ns = i + cpm_count × epoch` (each CPM's
    /// counter wraps at [`SnackPlatform::namespace_epochs`]). Every
    /// `run_kernel` attempt and every service dispatch submits this way,
    /// so stragglers of any earlier kernel on this CPM carry a retired
    /// namespace and are quarantined at delivery.
    ///
    /// # Errors
    ///
    /// The CPM's busy/validation rejections, which take no epoch.
    ///
    /// # Panics
    ///
    /// Panics if `i >= cpm_count()`.
    pub fn submit_kernel_epoch(
        &mut self,
        i: usize,
        kernel: &CompiledKernel,
    ) -> Result<(), SubmitError> {
        let epoch = self.next_epoch[i];
        let ns = i as u32 + self.cpms.len() as u32 * epoch;
        // A busy CPM keeps its resident kernel's tag; the submission
        // below then rejects (and counts) the busy attempt.
        if self.cpms[i].state() == CpmState::Idle {
            self.cpms[i].set_namespace(ns);
        }
        self.submit_kernel_to(i, kernel)?;
        self.next_epoch[i] = (epoch + 1) % self.namespace_epochs();
        Ok(())
    }

    /// The home CPM of a wire id (a dep, sub-block or output index whose
    /// high bits carry the namespace `cpm + cpm_count × epoch`), and
    /// whether that namespace is resident there; a non-resident one
    /// belongs to a finished or aborted kernel, quarantined at delivery.
    fn home_of(&self, wire: u32) -> (usize, bool) {
        let ns = wire >> NAMESPACE_SHIFT;
        let home = ns as usize % self.cpms.len();
        (home, self.cpms[home].namespace() == ns)
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

    /// The first CPM, in corner order, whose node is alive and which has
    /// no kernel resident: where `run_kernel` fails a dead home over to,
    /// and the slot the service layer dispatches its next job to.
    pub fn first_live_idle_cpm(&self) -> Option<usize> {
        (0..self.cpms.len())
            .find(|&i| self.cpms[i].state() == CpmState::Idle && !self.cpm_node_dead(i))
    }

    /// Aborts and quarantines the kernel resident on CPM `i`, returning
    /// whether one was resident: the CPM is reset to idle, the kernel's
    /// namespace is purged from every CPM's overflow buffer and every RCU,
    /// and every RCU is woken (a purge can change what any RCU could
    /// fire). In-flight stragglers keep the retired namespace and are
    /// dropped at delivery once the next
    /// [`SnackPlatform::submit_kernel_epoch`] re-tags the CPM.
    /// `run_kernel` quarantines a stalled attempt this way, and the
    /// service layer uses it to enforce its per-kernel cycle budget
    /// ([`PlatformConfig::kernel_cycle_cap`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= cpm_count()`.
    pub fn abort_kernel_on(&mut self, i: usize) -> bool {
        if self.cpms[i].state() == CpmState::Idle {
            return false;
        }
        let ns = self.cpms[i].namespace();
        self.cpms[i].abort();
        for c in &mut self.cpms {
            c.purge_overflow_namespace(ns);
        }
        for r in &mut self.rcus {
            r.abort_namespace(ns);
        }
        self.wake_all_rcus();
        true
    }

    /// Kernels run to completion and collected across all CPMs
    /// (per-namespace accounting aggregated; see
    /// [`crate::cpm::CpmStats::kernels_completed`]).
    pub fn kernels_completed(&self) -> u64 {
        self.cpms.iter().map(|c| c.stats.kernels_completed).sum()
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

    /// The installed fault plan, if any.
    pub(crate) fn fault_plan(&self) -> Option<&FaultPlan> {
        self.net.fault_plan()
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

    /// A deterministic fingerprint of kernel-level forward progress:
    /// instruction issue, RCU execution and captures, overflow absorption
    /// and replay, recovery activity, and pending result count. Network
    /// injections are deliberately *excluded* — a token circling the ring
    /// without ever being captured is not progress. `run_kernel`'s hang
    /// detector reads it every advance, so it sums the counters directly.
    pub(crate) fn progress_signature(&self) -> u64 {
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
            self.step_or_jump(deadline);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpm::CpmConfigError;
    use crate::token::{Op, Operand, ResultDest};
    use snacknoc_noc::{LinkFaultKind, Stepping};
    use std::fmt;

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

    /// An attempt whose stall cycle is also the caller's deadline stalls
    /// in both modes: dense stepping steps onto that cycle and serial
    /// stepping jumps onto it, and both read the no-progress window
    /// before the deadline. With a one-attempt budget the stall is the
    /// retry-budget verdict, not a plain timeout.
    #[test]
    fn a_stall_on_the_deadline_cycle_is_a_stall_in_both_modes() {
        let run = |mode: Stepping, max_cycles: u64| {
            let mut p = platform_in(mode);
            let mesh = *p.mesh();
            // The producer dies before its instructions arrive: the
            // consumer parks, the network drains, and serial stepping
            // crosses the whole window in jumps.
            p.set_fault_plan(FaultPlan::seeded(5).with_dead_rcu(mesh.node_at(1, 1), 1)).unwrap();
            p.set_platform_config(PlatformConfig {
                no_progress_window: 3_000,
                max_kernel_attempts: 1,
                ..PlatformConfig::default()
            })
            .unwrap();
            match p.run_kernel(&cross_pe_kernel(&mesh), max_cycles) {
                Err(PlatformError::Unrecoverable { resource, cycles, .. }) => {
                    assert_eq!(resource, DegradedResource::RetryBudget);
                    (cycles, mode_fingerprint(&mut p))
                }
                other => panic!("expected Unrecoverable, got {other:?}"),
            }
        };
        let (stall, _) = modes_match_dense(|mode| run(mode, 200_000));
        assert!(stall >= 3_000, "one full window, got {stall}");
        modes_match_dense(|mode| run(mode, stall));
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
