//! The Central Packet Manager: the controller of the SnackNoC platform
//! (paper §III-C).
//!
//! The CPM sits at a memory-controller node. It:
//!
//! 1. fetches the kernel's command buffer from main memory in DRAM batches,
//! 2. assembles instruction flits and issues them at 1 packet per cycle,
//! 3. tracks kernel execution state and collects results in an output FIFO,
//! 4. monitors NoC congestion with an ALO-style free-VC heuristic and, when
//!    the network is saturated, absorbs passing transient data tokens into
//!    an overflow buffer in main memory, replaying them when the pressure
//!    clears (paper §III-C2),
//! 5. answers runtime submissions — with a *busy* rejection while a kernel
//!    is resident or the network is in overflow.

use crate::dram::DramModel;
use crate::fixed::Fixed;
use crate::token::{CompiledKernel, DataToken, DepId, Instruction, ProgramError};
use snacknoc_noc::{LatencyHistogram, NodeId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Tunable CPM parameters.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CpmConfig {
    /// Capacity of the internal instruction buffer, in instructions.
    /// Paper §III-C1 sizes it from the peak DDR3 stream rate.
    pub instr_buffer_capacity: usize,
    /// Instructions fetched per DRAM batch.
    pub fetch_batch: usize,
    /// Instructions packed into one instruction packet (flit). With 16 B
    /// instructions on a 32 B channel this is 2 (paper Table IV flit size).
    pub instrs_per_packet: usize,
    /// Enter the overflow state when the fraction of useful free output
    /// VCs at the CPM's router drops below this.
    pub overflow_enter_below: f64,
    /// Leave the overflow state when the fraction rises above this
    /// (hysteresis).
    pub overflow_exit_above: f64,
    /// Capacity of the Offload Data Memory Buffer in tokens; paper
    /// §III-C2 sizes it to 4 instruction flits (one 64 B DDR3 transaction).
    pub offload_buffer_tokens: usize,
}

impl Default for CpmConfig {
    fn default() -> Self {
        CpmConfig {
            instr_buffer_capacity: 128,
            fetch_batch: 64,
            instrs_per_packet: 2,
            overflow_enter_below: 0.25,
            overflow_exit_above: 0.50,
            offload_buffer_tokens: 4,
        }
    }
}

/// An invalid [`CpmConfig`], rejected before a platform is built on it.
#[derive(Clone, Copy, PartialEq, Debug)]
#[non_exhaustive]
pub enum CpmConfigError {
    /// The overflow hysteresis band is empty or inverted: the enter
    /// threshold must be strictly below the exit threshold, otherwise the
    /// CPM oscillates in and out of the overflow state every cycle.
    HysteresisInverted {
        /// `overflow_enter_below`.
        enter: f64,
        /// `overflow_exit_above`.
        exit: f64,
    },
    /// A threshold fraction is not a finite value in `[0, 1]`.
    FractionOutOfRange {
        /// Which field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A buffer/batch capacity is zero.
    ZeroCapacity {
        /// Which field.
        field: &'static str,
    },
}

impl fmt::Display for CpmConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpmConfigError::HysteresisInverted { enter, exit } => write!(
                f,
                "overflow hysteresis inverted: enter_below {enter} must be < exit_above {exit}"
            ),
            CpmConfigError::FractionOutOfRange { field, value } => {
                write!(f, "{field} = {value} is outside [0, 1]")
            }
            CpmConfigError::ZeroCapacity { field } => write!(f, "{field} must be nonzero"),
        }
    }
}

impl std::error::Error for CpmConfigError {}

impl CpmConfig {
    /// Checks the invariants the CPM relies on: both overflow thresholds
    /// finite fractions in `[0, 1]` with `enter_below` strictly less than
    /// `exit_above` (a real hysteresis band), and nonzero buffer, batch
    /// and packing capacities.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), CpmConfigError> {
        for (field, value) in [
            ("overflow_enter_below", self.overflow_enter_below),
            ("overflow_exit_above", self.overflow_exit_above),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(CpmConfigError::FractionOutOfRange { field, value });
            }
        }
        if self.overflow_enter_below >= self.overflow_exit_above {
            return Err(CpmConfigError::HysteresisInverted {
                enter: self.overflow_enter_below,
                exit: self.overflow_exit_above,
            });
        }
        for (field, value) in [
            ("instr_buffer_capacity", self.instr_buffer_capacity),
            ("fetch_batch", self.fetch_batch),
            ("instrs_per_packet", self.instrs_per_packet),
            ("offload_buffer_tokens", self.offload_buffer_tokens),
        ] {
            if value == 0 {
                return Err(CpmConfigError::ZeroCapacity { field });
            }
        }
        Ok(())
    }
}

/// Parameters of the CPM's token-loss watchdog (the recovery half of the
/// fault-injection subsystem).
///
/// The watchdog keeps a registry of every live ring token (registered at
/// launch, refreshed on every hop/capture the platform reports). A token
/// whose registry entry goes quiet for longer than `deadline` cycles is
/// presumed lost; the CPM then re-issues it — from its overflow buffer if
/// a copy is parked there, otherwise by asking the producing RCU to
/// retransmit from retained kernel state — with bounded retries and a
/// linearly growing backoff between attempts.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RecoveryConfig {
    /// Master switch. Disabled (the default) costs nothing per cycle.
    pub enabled: bool,
    /// Cycles of registry silence after which a token is presumed lost.
    ///
    /// Must exceed the worst-case hop-to-hop token latency under
    /// congestion, or the watchdog declares merely-delayed tokens lost
    /// (harmless — duplicates retire once the registry settles — but the
    /// spurious retransmissions cost cycles). 512 is calibrated so a
    /// fault-free congested SGEMM run stays at zero detections.
    pub deadline: u64,
    /// Cycles between watchdog sweeps of the registry.
    pub watchdog_period: u64,
    /// Re-issue attempts per token before the CPM gives up (the kernel
    /// then surfaces as a `KernelTimeout` at the platform layer).
    pub max_retries: u32,
    /// Base backoff between attempts; attempt `n` waits `n * backoff`.
    pub backoff: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            enabled: false,
            deadline: 512,
            watchdog_period: 32,
            max_retries: 16,
            backoff: 64,
        }
    }
}

impl RecoveryConfig {
    /// The enabled profile used by the fault experiments: default timing
    /// with the watchdog switched on.
    pub fn aggressive() -> Self {
        RecoveryConfig { enabled: true, ..RecoveryConfig::default() }
    }
}

/// Watchdog/recovery counters (the `FaultStats` of the paper-facing
/// reports, CPM side; the NoC's injection counters live in
/// `snacknoc_noc::FaultCounters`).
#[derive(Clone, Debug, Default)]
pub struct RecoveryStats {
    /// Tokens the watchdog declared lost (unique loss events).
    pub detected: u64,
    /// Detected tokens that subsequently retired normally.
    pub recovered: u64,
    /// Re-issue attempts (overflow replays + producer retransmissions).
    pub retries: u64,
    /// Watchdog sweeps that found at least one overdue token.
    pub watchdog_fires: u64,
    /// Tokens discarded on arrival because their checksum failed.
    pub corrupt_detected: u64,
    /// Detection-to-retirement latency of recovered tokens, in cycles.
    pub recovery_latency: LatencyHistogram,
}

impl RecoveryStats {
    /// Accumulates `other` into `self` (multi-CPM aggregation).
    pub fn merge(&mut self, other: &Self) {
        self.detected += other.detected;
        self.recovered += other.recovered;
        self.retries += other.retries;
        self.watchdog_fires += other.watchdog_fires;
        self.corrupt_detected += other.corrupt_detected;
        self.recovery_latency.merge(&other.recovery_latency);
    }
}

/// Watchdog registry entry for one live ring token.
#[derive(Clone, Debug)]
struct TokenRecord {
    /// The RCU that produced the token (retransmission source).
    producer: NodeId,
    /// Operand references not yet captured.
    outstanding: u32,
    /// Last cycle the platform reported any sign of life for this token.
    last_activity: u64,
    /// Cycle the watchdog first declared it lost.
    first_lost_at: u64,
    /// Re-issue attempts so far.
    retries: u32,
    /// Earliest cycle the next re-issue may happen (backoff).
    next_retry_at: u64,
    /// Whether this token has been declared lost at least once.
    detected: bool,
    /// Whether the token currently sits in this CPM's overflow buffer
    /// (parked tokens are safe; the sweep skips them).
    parked: bool,
}

/// Kernel execution state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CpmState {
    /// No kernel resident.
    Idle,
    /// Fetching/issuing/awaiting results of the resident kernel.
    Running,
}

/// Why a kernel submission failed.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum SubmitError {
    /// A kernel is already resident.
    Busy,
    /// The program failed validation.
    Invalid(ProgramError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Busy => write!(f, "cpm busy: a kernel is already resident"),
            SubmitError::Invalid(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Something the CPM wants to inject this cycle.
#[derive(Clone, PartialEq, Debug)]
pub enum CpmEmission {
    /// An instruction packet (one flit) carrying instructions for one RCU.
    Instructions(Vec<Instruction>),
    /// A replayed overflow token, re-launched onto the ring.
    ReplayToken(DataToken),
    /// A watchdog request: `producer` should re-issue the retained token
    /// for `dep` with `remaining` dependents (the captures already served
    /// must not be counted again).
    RequestRetransmit {
        /// The lost dependency.
        dep: DepId,
        /// The RCU that produced it.
        producer: NodeId,
        /// Dependents still outstanding.
        remaining: u32,
    },
}

/// Counters for the cost/QoS analyses.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpmStats {
    /// Instruction packets issued.
    pub packets_issued: u64,
    /// Instructions issued.
    pub instructions_issued: u64,
    /// Tokens absorbed into the overflow buffer.
    pub tokens_absorbed: u64,
    /// Tokens replayed from the overflow buffer.
    pub tokens_replayed: u64,
    /// Cycles spent in the overflow state.
    pub overflow_cycles: u64,
    /// Submissions rejected busy.
    pub busy_rejections: u64,
    /// Kernels run to completion and collected (per-CPM accounting for
    /// the multi-tenant service layer; incremented by
    /// [`Cpm::take_results`], so it counts identically in every stepping
    /// mode).
    pub kernels_completed: u64,
}

/// Bit position of the CPM namespace within dependency ids and output
/// indices. A decentralized platform (paper §VII) runs one CPM per memory
/// controller; each tags the tokens it issues with its namespace so
/// concurrently-resident kernels never collide on the ring.
pub const NAMESPACE_SHIFT: u32 = 24;

/// Mask selecting the intra-kernel part of a dependency id/output index.
pub const NAMESPACE_MASK: u32 = (1 << NAMESPACE_SHIFT) - 1;

/// The Central Packet Manager.
#[derive(Clone, Debug)]
pub struct Cpm {
    node: NodeId,
    /// Namespace tag stamped into issued dependency ids and output indices.
    namespace: u32,
    cfg: CpmConfig,
    dram: DramModel,
    state: CpmState,
    /// Resident program (command buffer in main memory).
    program: Vec<Instruction>,
    /// Next program index to fetch from memory.
    fetch_ptr: usize,
    /// In-flight DRAM batch: (ready_at, count).
    fetch_inflight: Option<(u64, usize)>,
    /// Assembled instructions awaiting issue.
    instr_buffer: VecDeque<Instruction>,
    /// Output results FIFO (slot-indexed).
    results: Vec<Option<Fixed>>,
    results_remaining: usize,
    kernel_name: String,
    started_at: u64,
    finished_at: Option<u64>,
    /// Offload Data Memory Buffer: staging for overflow tokens. Tokens
    /// beyond its capacity spill (conceptually) straight to the in-memory
    /// overflow region, modelled by the same queue.
    overflow: VecDeque<DataToken>,
    in_overflow: bool,
    /// Alternation flag between overflow replay and instruction issue.
    replay_turn: bool,
    /// Whether the resident kernel's operand assembly is an irregular
    /// gather (throttles the DRAM stream rate — SPMV, paper §V-B).
    irregular_fetch: bool,
    /// Whether the command-buffer stream has already paid its first row
    /// activation: subsequent batches pipeline behind the open row.
    row_open: bool,
    /// Token-loss watchdog parameters (disabled by default).
    recovery: RecoveryConfig,
    /// Watchdog registry: one record per live ring token, keyed by
    /// dependency id (BTreeMap so sweeps are deterministic).
    watch: BTreeMap<DepId, TokenRecord>,
    /// Next watchdog sweep cycle.
    next_sweep: u64,
    /// Recovery counters.
    rec_stats: RecoveryStats,
    /// Counters.
    pub stats: CpmStats,
}

impl Cpm {
    /// Creates a CPM attached to the router at `node` (a memory-controller
    /// node in the paper's floorplan).
    pub fn new(node: NodeId, cfg: CpmConfig, dram: DramModel) -> Self {
        Self::with_namespace(node, 0, cfg, dram)
    }

    /// Creates a CPM with an explicit namespace tag (used by the
    /// decentralized multi-CPM platform; see [`NAMESPACE_SHIFT`]).
    ///
    /// # Panics
    ///
    /// Panics if `namespace` does not fit above [`NAMESPACE_SHIFT`].
    pub fn with_namespace(node: NodeId, namespace: u32, cfg: CpmConfig, dram: DramModel) -> Self {
        assert!(namespace < (1 << (32 - NAMESPACE_SHIFT)), "namespace too large");
        Cpm {
            node,
            namespace,
            cfg,
            dram,
            state: CpmState::Idle,
            program: Vec::new(),
            fetch_ptr: 0,
            fetch_inflight: None,
            instr_buffer: VecDeque::new(),
            results: Vec::new(),
            results_remaining: 0,
            kernel_name: String::new(),
            started_at: 0,
            finished_at: None,
            overflow: VecDeque::new(),
            in_overflow: false,
            replay_turn: false,
            irregular_fetch: false,
            row_open: false,
            recovery: RecoveryConfig::default(),
            watch: BTreeMap::new(),
            next_sweep: 0,
            rec_stats: RecoveryStats::default(),
            stats: CpmStats::default(),
        }
    }

    /// The node this CPM is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current kernel state.
    pub fn state(&self) -> CpmState {
        self.state
    }

    /// Whether the CPM is in the NoC-overflow state.
    pub fn in_overflow(&self) -> bool {
        self.in_overflow
    }

    /// Cycle the resident kernel finished, if it has.
    pub fn finished_at(&self) -> Option<u64> {
        self.finished_at
    }

    /// Output slots still awaiting a result from the network (a progress
    /// signal for the platform's no-progress detector).
    pub fn pending_results(&self) -> usize {
        self.results_remaining
    }

    /// Submits a kernel for execution.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] while a kernel is resident;
    /// [`SubmitError::Invalid`] if the program fails validation.
    pub fn submit(&mut self, kernel: &CompiledKernel, now: u64) -> Result<(), SubmitError> {
        if self.state != CpmState::Idle {
            self.stats.busy_rejections += 1;
            return Err(SubmitError::Busy);
        }
        kernel.validate().map_err(SubmitError::Invalid)?;
        let fits = |v: u32| v <= NAMESPACE_MASK;
        if !fits(kernel.num_outputs as u32)
            || kernel.instructions.iter().any(|i| {
                !fits(i.sub_block)
                    || matches!(i.dest, crate::token::ResultDest::Token { dep, .. } if !fits(dep))
            })
        {
            return Err(SubmitError::Invalid(ProgramError::NamespaceOverflow));
        }
        self.program = kernel.instructions.clone();
        self.kernel_name = kernel.name.clone();
        self.irregular_fetch = kernel.irregular_fetch;
        self.row_open = false;
        self.fetch_ptr = 0;
        self.instr_buffer.clear();
        self.results = vec![None; kernel.num_outputs];
        self.results_remaining = kernel.num_outputs;
        self.started_at = now;
        self.finished_at = None;
        self.state = CpmState::Running;
        // Stale watchdog records from a previous kernel (e.g. tokens
        // given up on) must not leak into this one.
        self.watch.clear();
        self.next_sweep = now;
        // Kick off the first command-buffer fetch.
        self.start_fetch(now);
        Ok(())
    }

    /// Takes the completed kernel's results, returning the CPM to idle.
    /// Returns `None` if no kernel has finished.
    pub fn take_results(&mut self) -> Option<(String, Vec<Fixed>)> {
        self.finished_at?;
        let values =
            self.results.iter().map(|r| r.expect("all results arrived")).collect();
        self.state = CpmState::Idle;
        self.finished_at = None;
        self.stats.kernels_completed += 1;
        let name = std::mem::take(&mut self.kernel_name);
        self.results.clear();
        Some((name, values))
    }

    /// Receives a kernel result routed back from an RCU. The index may
    /// carry this CPM's namespace tag in its high bits.
    pub fn accept_result(&mut self, index: u32, value: Fixed, now: u64) {
        let slot = &mut self.results[(index & NAMESPACE_MASK) as usize];
        debug_assert!(slot.is_none(), "output {index} written twice");
        *slot = Some(value);
        self.results_remaining -= 1;
        if self.results_remaining == 0 {
            // Remaining FIFO entries are written back to memory; the final
            // writeback transaction closes the kernel (paper §III-C).
            self.finished_at = Some(now + self.dram.access_latency);
        }
    }

    /// Offers a transient token passing through the CPM node at cycle
    /// `now`. In the overflow state the CPM absorbs it into the offload
    /// buffer and returns `None`; otherwise the token continues on the
    /// ring. Either way the watchdog registry records the sighting.
    pub fn maybe_absorb(&mut self, token: DataToken, now: u64) -> Option<DataToken> {
        if self.in_overflow {
            if self.recovery.enabled {
                if let Some(rec) = self.watch.get_mut(&token.dep) {
                    rec.parked = true;
                    rec.last_activity = now;
                }
            }
            self.overflow.push_back(token);
            self.stats.tokens_absorbed += 1;
            None
        } else {
            if self.recovery.enabled {
                if let Some(rec) = self.watch.get_mut(&token.dep) {
                    rec.last_activity = now;
                }
            }
            Some(token)
        }
    }

    // -- Token-loss watchdog (the recovery half of the fault subsystem) --

    /// Switches the token-loss watchdog on/off and sets its timing.
    pub fn enable_recovery(&mut self, cfg: RecoveryConfig) {
        self.recovery = cfg;
        if !cfg.enabled {
            self.watch.clear();
        }
    }

    /// Watchdog/recovery counters.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.rec_stats
    }

    /// Registers/refreshes a ring token the platform just launched from
    /// `producer` (first launch registers; every subsequent hop refreshes
    /// the record's liveness and un-parks it).
    pub fn note_token(&mut self, token: &DataToken, producer: NodeId, now: u64) {
        if !self.recovery.enabled {
            return;
        }
        self.watch
            .entry(token.dep)
            .and_modify(|rec| {
                rec.last_activity = now;
                rec.parked = false;
            })
            .or_insert(TokenRecord {
                producer,
                outstanding: token.dependents,
                last_activity: now,
                first_lost_at: 0,
                retries: 0,
                next_retry_at: 0,
                detected: false,
                parked: false,
            });
    }

    /// Records `captured` operand references served from the token for
    /// `dep` at cycle `now`.
    pub fn note_captures(&mut self, dep: DepId, captured: u32, now: u64) {
        if !self.recovery.enabled {
            return;
        }
        if let Some(rec) = self.watch.get_mut(&dep) {
            rec.outstanding = rec.outstanding.saturating_sub(captured);
            rec.last_activity = now;
        }
    }

    /// Whether the watchdog already considers `dep` fully served.
    ///
    /// True only with recovery enabled and a record whose `outstanding`
    /// count reached zero — or no record at all, which means the dep was
    /// already retired. The platform uses this to retire *duplicate*
    /// copies: after a false-positive loss declaration the original and
    /// the replay each serve a subset of the dependents, so neither
    /// copy's own `dependents` field reaches zero even though every
    /// operand reference has been satisfied. Without this check both
    /// copies would circulate the ring forever.
    pub fn token_settled(&self, dep: DepId) -> bool {
        self.recovery.enabled && self.watch.get(&dep).is_none_or(|rec| rec.outstanding == 0)
    }

    /// Records that the token for `dep` retired normally (all dependents
    /// served). Closes the watchdog record; if the token had been declared
    /// lost, this completes its recovery.
    pub fn note_retired(&mut self, dep: DepId, now: u64) {
        if !self.recovery.enabled {
            return;
        }
        if let Some(rec) = self.watch.remove(&dep) {
            if rec.detected {
                self.rec_stats.recovered += 1;
                self.rec_stats
                    .recovery_latency
                    .record(now.saturating_sub(rec.first_lost_at).max(1));
            }
        }
    }

    /// Records that an arriving copy of `dep` failed its checksum and was
    /// discarded. Marks the token lost immediately (no need to wait out
    /// the deadline: the corruption is positive evidence).
    pub fn note_corrupt(&mut self, dep: DepId, now: u64) {
        if !self.recovery.enabled {
            return;
        }
        self.rec_stats.corrupt_detected += 1;
        if let Some(rec) = self.watch.get_mut(&dep) {
            let first = !rec.detected;
            if first {
                rec.detected = true;
                rec.first_lost_at = now;
                self.rec_stats.detected += 1;
                // Fast-track the first retry: no need to wait out the
                // silence deadline, the corruption is positive evidence.
                rec.next_retry_at = now;
            }
            // Later corruptions keep the standing backoff schedule so a
            // sustained corruption burst can't burn the whole retry budget
            // in a tight loop.
            rec.parked = false;
            rec.last_activity = now.saturating_sub(self.recovery.deadline + 1);
        }
    }

    /// One watchdog sweep: declares overdue tokens lost and emits at most
    /// one re-issue — an overflow-buffer replay if a copy is parked here,
    /// otherwise a retransmission request to the producing RCU.
    fn recovery_sweep(&mut self, cycle: u64) -> Option<CpmEmission> {
        if !self.recovery.enabled || self.watch.is_empty() || cycle < self.next_sweep {
            return None;
        }
        self.next_sweep = cycle + self.recovery.watchdog_period;
        let mut emission = None;
        let mut fired = false;
        for (&dep, rec) in self.watch.iter_mut() {
            if rec.parked || rec.outstanding == 0 {
                continue;
            }
            if cycle.saturating_sub(rec.last_activity) <= self.recovery.deadline
                || cycle < rec.next_retry_at
            {
                continue;
            }
            fired = true;
            if !rec.detected {
                rec.detected = true;
                rec.first_lost_at = cycle;
                self.rec_stats.detected += 1;
            }
            if rec.retries >= self.recovery.max_retries || emission.is_some() {
                // Budget exhausted (give up; the platform's no-progress
                // window surfaces this as a KernelTimeout) or another
                // token already claimed this cycle's flit slot.
                continue;
            }
            rec.retries += 1;
            self.rec_stats.retries += 1;
            rec.next_retry_at = cycle + self.recovery.backoff * u64::from(rec.retries);
            rec.last_activity = cycle;
            emission = Some(match self.overflow.iter().position(|t| t.dep == dep) {
                Some(pos) => {
                    // The lost copy (or a twin) is parked in the offload
                    // buffer: replay it directly from memory.
                    let parked = self.overflow.remove(pos).expect("position exists");
                    self.stats.tokens_replayed += 1;
                    CpmEmission::ReplayToken(
                        DataToken::new(dep, rec.outstanding, parked.value).with_seq(parked.seq + 1),
                    )
                }
                None => CpmEmission::RequestRetransmit {
                    dep,
                    producer: rec.producer,
                    remaining: rec.outstanding,
                },
            });
        }
        if fired {
            self.rec_stats.watchdog_fires += 1;
        }
        emission
    }

    /// Number of tokens parked in the overflow path.
    pub fn overflow_backlog(&self) -> usize {
        self.overflow.len()
    }

    /// Abandons the resident kernel and returns to `Idle` — the
    /// platform's escalation path when an attempt stalls against a
    /// permanent fault. Clears the program, instruction buffer, result
    /// FIFO, watchdog registry, and any overflow tokens belonging to this
    /// CPM's own namespace; parked tokens from *other* namespaces
    /// (concurrent kernels passing through this corner) are kept.
    /// Cumulative statistics are retained across the abort.
    pub fn abort(&mut self) {
        self.state = CpmState::Idle;
        self.program.clear();
        self.fetch_ptr = 0;
        self.fetch_inflight = None;
        self.instr_buffer.clear();
        self.results.clear();
        self.results_remaining = 0;
        self.kernel_name.clear();
        self.finished_at = None;
        self.replay_turn = false;
        self.irregular_fetch = false;
        self.row_open = false;
        self.watch.clear();
        let ns = self.namespace;
        self.overflow.retain(|t| t.dep >> NAMESPACE_SHIFT != ns);
    }

    /// Drops parked overflow tokens belonging to `namespace` — the
    /// platform sweeps every CPM with this when it quarantines an aborted
    /// attempt's epoch, since a token can be absorbed at any corner it
    /// passes, not just its home.
    pub fn purge_overflow_namespace(&mut self, namespace: u32) {
        self.overflow.retain(|t| t.dep >> NAMESPACE_SHIFT != namespace);
    }

    /// Re-tags this CPM's namespace. The platform re-tags a CPM with a
    /// fresh namespace *epoch* before every epoch submission
    /// (`SnackPlatform::submit_kernel_epoch`), so stragglers from an
    /// earlier kernel can never be confused with the new kernel's tokens.
    ///
    /// # Panics
    ///
    /// Panics if `namespace` does not fit above [`NAMESPACE_SHIFT`], or if
    /// a kernel is resident (re-tagging a running kernel would orphan
    /// every token it has in flight).
    pub fn set_namespace(&mut self, namespace: u32) {
        assert!(namespace < (1 << (32 - NAMESPACE_SHIFT)), "namespace too large");
        assert!(self.state == CpmState::Idle, "cannot re-tag a running cpm");
        self.namespace = namespace;
    }

    /// Advances the CPM one cycle.
    ///
    /// `congestion` is the ALO signal from the local router:
    /// `(useful_free_vcs, total_vcs)`. Returns at most one emission (the
    /// CPM issues one flit per cycle, the NoC transaction speed).
    pub fn tick(&mut self, cycle: u64, congestion: (usize, usize)) -> Option<CpmEmission> {
        // Congestion state with hysteresis.
        let (free, total) = congestion;
        if total > 0 {
            let frac = free as f64 / total as f64;
            if !self.in_overflow && frac < self.cfg.overflow_enter_below {
                self.in_overflow = true;
            } else if self.in_overflow && frac > self.cfg.overflow_exit_above {
                self.in_overflow = false;
            }
        }
        if self.in_overflow {
            self.stats.overflow_cycles += 1;
        }
        // Complete an in-flight command-buffer fetch.
        if let Some((ready, count)) = self.fetch_inflight {
            if cycle >= ready {
                let from = self.fetch_ptr;
                self.instr_buffer.extend(self.program[from..from + count].iter().copied());
                self.fetch_ptr += count;
                self.fetch_inflight = None;
            }
        }
        // Refill when the buffer runs low.
        if self.fetch_inflight.is_none()
            && self.fetch_ptr < self.program.len()
            && self.instr_buffer.len() < self.cfg.instr_buffer_capacity / 2
        {
            self.start_fetch(cycle);
        }
        if self.state != CpmState::Running {
            return None;
        }
        // In overflow: pause issue entirely — CMP workloads take priority.
        if self.in_overflow {
            return None;
        }
        // Token-loss watchdog: recovery re-issues pre-empt ordinary issue
        // (a lost token is blocking downstream instructions anyway).
        if let Some(emission) = self.recovery_sweep(cycle) {
            return Some(emission);
        }
        // Alternate overflow replay with instruction issue once pressure
        // has cleared (paper §III-C2).
        if !self.overflow.is_empty() && (self.replay_turn || self.instr_buffer.is_empty()) {
            self.replay_turn = false;
            let token = self.overflow.pop_front().expect("non-empty");
            self.stats.tokens_replayed += 1;
            return Some(CpmEmission::ReplayToken(token));
        }
        self.replay_turn = !self.overflow.is_empty();
        // Issue one instruction packet: up to `instrs_per_packet`
        // consecutive instructions sharing a destination RCU. Dependency
        // ids and output indices are stamped with this CPM's namespace so
        // kernels resident on different CPMs never collide on the wire.
        let first = self.instr_buffer.pop_front()?;
        let mut packet = vec![self.stamp(first)];
        while packet.len() < self.cfg.instrs_per_packet {
            match self.instr_buffer.front() {
                Some(next) if next.pe == packet[0].pe => {
                    let ins = self.instr_buffer.pop_front().expect("peeked");
                    packet.push(self.stamp(ins));
                }
                _ => break,
            }
        }
        self.stats.packets_issued += 1;
        self.stats.instructions_issued += packet.len() as u64;
        Some(CpmEmission::Instructions(packet))
    }

    /// The next cycle at which [`Cpm::tick`] is *not* a provable no-op,
    /// assuming `congestion` stays fixed until then — `None` if ticking can
    /// be skipped indefinitely (event-driven stepping; any submission or
    /// token delivery re-wakes the CPM).
    ///
    /// Mirrors `tick` branch by branch: a pending hysteresis flip, overflow
    /// residency (it accrues `overflow_cycles`), a completable or startable
    /// command-buffer fetch, queued replay/issue work, a stale `replay_turn`
    /// flag (tick resets it — a real state change), and the recovery
    /// watchdog's next sweep all demand a wake.
    pub fn next_wake(&self, now: u64, congestion: (usize, usize)) -> Option<u64> {
        let (free, total) = congestion;
        if total > 0 {
            let frac = free as f64 / total as f64;
            let flips = (!self.in_overflow && frac < self.cfg.overflow_enter_below)
                || (self.in_overflow && frac > self.cfg.overflow_exit_above);
            if flips {
                return Some(now);
            }
        }
        if self.in_overflow {
            return Some(now);
        }
        let mut wake: Option<u64> = None;
        let mut merge = |cycle: u64| {
            let at = cycle.max(now);
            wake = Some(wake.map_or(at, |w| w.min(at)));
        };
        match self.fetch_inflight {
            Some((ready, _)) => merge(ready),
            None => {
                if self.fetch_ptr < self.program.len()
                    && self.instr_buffer.len() < self.cfg.instr_buffer_capacity / 2
                {
                    merge(now);
                }
            }
        }
        if self.state == CpmState::Running {
            if !self.overflow.is_empty() || !self.instr_buffer.is_empty() || self.replay_turn {
                merge(now);
            }
            if self.recovery.enabled && !self.watch.is_empty() {
                merge(self.next_sweep);
            }
            // The final-writeback deadline: the platform's completion poll
            // (`take_kernel_results`) unblocks at `finished_at`, so the
            // clock must not jump past it.
            if let Some(f) = self.finished_at {
                merge(f);
            }
        }
        wake
    }

    /// The namespace tag of this CPM.
    pub fn namespace(&self) -> u32 {
        self.namespace
    }

    /// Applies this CPM's namespace to an instruction's wire-visible ids.
    fn stamp(&self, mut ins: Instruction) -> Instruction {
        use crate::token::{Operand, ResultDest};
        let tag = self.namespace << NAMESPACE_SHIFT;
        if self.namespace == 0 {
            return ins;
        }
        for op in [&mut ins.vl, &mut ins.vr] {
            if let Operand::Dep(d) = op {
                *d |= tag;
            }
        }
        match &mut ins.dest {
            ResultDest::Token { dep, .. } => *dep |= tag,
            ResultDest::Output { index } => *index |= tag,
            ResultDest::Accumulate => {}
        }
        // Sub-blocks are namespaced too: concurrent kernels may map
        // sub-blocks to the same RCU, and its ordered instruction buffer
        // keys on the block id.
        ins.sub_block |= tag;
        ins
    }

    fn start_fetch(&mut self, now: u64) {
        let remaining = self.program.len() - self.fetch_ptr;
        let count = remaining.min(self.cfg.fetch_batch);
        if count == 0 {
            return;
        }
        // The command buffer is a sequential stream: after the first row
        // activation, batches pipeline at the DRAM stream rate (the paper's
        // "peak rate of 45 SnackNoC instructions/cycle buffered", §III-C1).
        let mut latency = self.dram.stream_cycles(count, self.irregular_fetch);
        if !self.row_open {
            latency += self.dram.access_latency;
            self.row_open = true;
        }
        self.fetch_inflight = Some((now + latency, count));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{Op, Operand, ResultDest};

    fn imm(v: f64) -> Operand {
        Operand::Imm(Fixed::from_f64(v))
    }

    /// n independent single-instruction blocks, alternating between 2 PEs.
    fn program(n: usize) -> CompiledKernel {
        CompiledKernel {
            irregular_fetch: false,
            name: "p".into(),
            num_outputs: n,
            instructions: (0..n)
                .map(|i| Instruction {
                    op: Op::Add,
                    pe: NodeId::new(i % 2),
                    vl: imm(i as f64),
                    vr: imm(1.0),
                    dest: ResultDest::Output { index: i as u32 },
                    sub_block: i as u32,
                    seq: 0,
                    ends_block: true,
                })
                .collect(),
        }
    }

    fn uncongested() -> (usize, usize) {
        (16, 16)
    }

    #[test]
    fn fetch_then_issue_one_packet_per_cycle() {
        let mut cpm = Cpm::new(NodeId::new(0), CpmConfig::default(), DramModel::default());
        cpm.submit(&program(8), 0).unwrap();
        assert_eq!(cpm.state(), CpmState::Running);
        // Nothing can issue before the DRAM batch lands.
        let mut first_issue = None;
        let mut packets = 0;
        for c in 1..200 {
            if let Some(CpmEmission::Instructions(p)) = cpm.tick(c, uncongested()) {
                first_issue.get_or_insert(c);
                assert!(!p.is_empty() && p.len() <= 2);
                assert!(p.iter().all(|i| i.pe == p[0].pe), "packet targets one RCU");
                packets += 1;
            }
        }
        let first = first_issue.expect("issues eventually");
        assert!(first > DramModel::default().access_latency, "waits for DRAM");
        // Alternating PEs defeat packing, so 8 packets of 1.
        assert_eq!(packets, 8);
        assert_eq!(cpm.stats.instructions_issued, 8);
    }

    #[test]
    fn packs_consecutive_same_pe_instructions() {
        let mut cpm = Cpm::new(NodeId::new(0), CpmConfig::default(), DramModel::default());
        let mut k = program(8);
        for ins in &mut k.instructions {
            ins.pe = NodeId::new(5);
        }
        cpm.submit(&k, 0).unwrap();
        let mut packets = 0;
        for c in 1..200 {
            if let Some(CpmEmission::Instructions(p)) = cpm.tick(c, uncongested()) {
                assert_eq!(p.len(), 2);
                packets += 1;
            }
        }
        assert_eq!(packets, 4);
    }

    #[test]
    fn busy_until_results_collected() {
        let mut cpm = Cpm::new(NodeId::new(0), CpmConfig::default(), DramModel::default());
        cpm.submit(&program(2), 0).unwrap();
        assert_eq!(cpm.submit(&program(2), 1), Err(SubmitError::Busy));
        assert_eq!(cpm.stats.busy_rejections, 1);
        cpm.accept_result(0, Fixed::ONE, 100);
        assert!(cpm.finished_at().is_none());
        cpm.accept_result(1, Fixed::ONE, 120);
        let done = cpm.finished_at().expect("all results in");
        assert!(done > 120, "writeback latency applies");
        let (name, values) = cpm.take_results().expect("results ready");
        assert_eq!(name, "p");
        assert_eq!(values.len(), 2);
        assert_eq!(cpm.state(), CpmState::Idle);
        cpm.submit(&program(2), 200).expect("idle again");
    }

    #[test]
    fn rejects_invalid_programs() {
        let mut cpm = Cpm::new(NodeId::new(0), CpmConfig::default(), DramModel::default());
        let bad = CompiledKernel::default();
        assert!(matches!(cpm.submit(&bad, 0), Err(SubmitError::Invalid(_))));
    }

    #[test]
    fn overflow_state_absorbs_and_replays_tokens() {
        let mut cpm = Cpm::new(NodeId::new(0), CpmConfig::default(), DramModel::default());
        cpm.submit(&program(4), 0).unwrap();
        // Congested: below the 25% enter threshold.
        assert_eq!(cpm.tick(1, (2, 16)), None, "no issue while congested");
        assert!(cpm.in_overflow());
        let tok = DataToken::new(1, 3, Fixed::ONE);
        assert_eq!(cpm.maybe_absorb(tok, 1), None, "token absorbed");
        assert_eq!(cpm.overflow_backlog(), 1);
        assert_eq!(cpm.stats.tokens_absorbed, 1);
        // Still congested at 40% (hysteresis: needs > 50% to exit).
        cpm.tick(2, (6, 16));
        assert!(cpm.in_overflow());
        // Pressure clears: replay comes back out before/interleaved with
        // instruction issue.
        let mut replayed = false;
        for c in 3..300 {
            if let Some(CpmEmission::ReplayToken(t)) = cpm.tick(c, (14, 16)) {
                assert_eq!(t.dep, 1);
                replayed = true;
            }
        }
        assert!(!cpm.in_overflow());
        assert!(replayed);
        assert_eq!(cpm.stats.tokens_replayed, 1);
        // Tokens pass through untouched when not in overflow.
        let tok2 = DataToken::new(2, 1, Fixed::ONE);
        assert_eq!(cpm.maybe_absorb(tok2, 300), Some(tok2));
    }

    #[test]
    fn namespace_stamps_wire_visible_ids() {
        use crate::token::{Operand, ResultDest};
        let mut cpm =
            Cpm::with_namespace(NodeId::new(0), 3, CpmConfig::default(), DramModel::default());
        assert_eq!(cpm.namespace(), 3);
        let kernel = CompiledKernel {
            name: "ns".into(),
            num_outputs: 1,
            irregular_fetch: false,
            instructions: vec![
                Instruction {
                    op: Op::Add,
                    pe: NodeId::new(1),
                    vl: imm(1.0),
                    vr: imm(2.0),
                    dest: ResultDest::Token { dep: 5, dependents: 1 },
                    sub_block: 0,
                    seq: 0,
                    ends_block: true,
                },
                Instruction {
                    op: Op::Add,
                    pe: NodeId::new(2),
                    vl: Operand::Dep(5),
                    vr: imm(0.0),
                    dest: ResultDest::Output { index: 0 },
                    sub_block: 1,
                    seq: 0,
                    ends_block: true,
                },
            ],
        };
        cpm.submit(&kernel, 0).unwrap();
        let tag = 3u32 << NAMESPACE_SHIFT;
        let mut seen = Vec::new();
        for c in 1..500 {
            if let Some(CpmEmission::Instructions(p)) = cpm.tick(c, (16, 16)) {
                seen.extend(p);
            }
        }
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].dest, ResultDest::Token { dep: 5 | tag, dependents: 1 });
        assert_eq!(seen[0].sub_block, tag);
        assert_eq!(seen[1].vl, Operand::Dep(5 | tag));
        assert_eq!(seen[1].dest, ResultDest::Output { index: tag });
        // Results arrive with the tag; the slot is the masked index.
        cpm.accept_result(tag, Fixed::ONE, 600);
        assert!(cpm.finished_at().is_some());
    }

    #[test]
    fn oversized_ids_are_rejected_for_namespacing() {
        let mut cpm = Cpm::new(NodeId::new(0), CpmConfig::default(), DramModel::default());
        let mut k = program(2);
        k.instructions[0].sub_block = NAMESPACE_MASK + 1;
        k.instructions[0].ends_block = true;
        assert!(matches!(
            cpm.submit(&k, 0),
            Err(SubmitError::Invalid(ProgramError::BadSubBlock(_) | ProgramError::NamespaceOverflow))
        ));
    }

    #[test]
    fn config_validation_rejects_bad_hysteresis_and_ranges() {
        assert_eq!(CpmConfig::default().validate(), Ok(()));
        let inverted = CpmConfig {
            overflow_enter_below: 0.5,
            overflow_exit_above: 0.25,
            ..CpmConfig::default()
        };
        assert_eq!(
            inverted.validate(),
            Err(CpmConfigError::HysteresisInverted { enter: 0.5, exit: 0.25 })
        );
        let empty_band = CpmConfig {
            overflow_enter_below: 0.4,
            overflow_exit_above: 0.4,
            ..CpmConfig::default()
        };
        assert!(
            matches!(empty_band.validate(), Err(CpmConfigError::HysteresisInverted { .. })),
            "equal thresholds leave no hysteresis band"
        );
        let oor = CpmConfig { overflow_enter_below: -0.1, ..CpmConfig::default() };
        assert!(matches!(
            oor.validate(),
            Err(CpmConfigError::FractionOutOfRange { field: "overflow_enter_below", .. })
        ));
        let nan = CpmConfig { overflow_exit_above: f64::NAN, ..CpmConfig::default() };
        assert!(matches!(nan.validate(), Err(CpmConfigError::FractionOutOfRange { .. })));
        let zero = CpmConfig { fetch_batch: 0, ..CpmConfig::default() };
        assert_eq!(zero.validate(), Err(CpmConfigError::ZeroCapacity { field: "fetch_batch" }));
        // Errors render usefully.
        let msg = format!("{}", inverted.validate().unwrap_err());
        assert!(msg.contains("hysteresis"), "{msg}");
    }

    #[test]
    fn watchdog_detects_silence_and_requests_retransmission() {
        let mut cpm = Cpm::new(NodeId::new(0), CpmConfig::default(), DramModel::default());
        let rc = RecoveryConfig {
            enabled: true,
            deadline: 100,
            watchdog_period: 10,
            max_retries: 2,
            backoff: 50,
        };
        cpm.enable_recovery(rc);
        cpm.submit(&program(2), 0).unwrap();
        let tok = DataToken::new(7, 2, Fixed::ONE);
        cpm.note_token(&tok, NodeId::new(5), 10);
        // Alive and refreshed: no emission.
        cpm.note_captures(7, 1, 50);
        for c in 11..110 {
            assert!(
                !matches!(
                    cpm.tick(c, uncongested()),
                    Some(CpmEmission::RequestRetransmit { .. })
                ),
                "cycle {c}: token not yet overdue"
            );
        }
        // Silence past the deadline (last activity 50, deadline 100).
        let mut request = None;
        for c in 110..200 {
            if let Some(CpmEmission::RequestRetransmit { dep, producer, remaining }) =
                cpm.tick(c, uncongested())
            {
                request.get_or_insert((c, dep, producer, remaining));
            }
        }
        let (at, dep, producer, remaining) = request.expect("watchdog fires");
        assert!(at > 150, "fires only after the deadline lapses");
        assert_eq!((dep, producer, remaining), (7, NodeId::new(5), 1));
        assert_eq!(cpm.recovery_stats().detected, 1);
        assert_eq!(cpm.recovery_stats().retries, 1);
        assert!(cpm.recovery_stats().watchdog_fires >= 1);
        // Continued silence: bounded retries, then the CPM gives up.
        let mut more = 0;
        for c in 200..2_000 {
            if let Some(CpmEmission::RequestRetransmit { .. }) = cpm.tick(c, uncongested()) {
                more += 1;
            }
        }
        assert_eq!(more, 1, "max_retries = 2 bounds the re-issues");
        assert_eq!(cpm.recovery_stats().retries, 2);
        // The token finally retires: recovery completes.
        cpm.note_retired(7, 2_000);
        assert_eq!(cpm.recovery_stats().recovered, 1);
        assert_eq!(cpm.recovery_stats().recovery_latency.samples(), 1);
    }

    #[test]
    fn watchdog_replays_parked_overflow_copies_first() {
        let mut cpm = Cpm::new(NodeId::new(0), CpmConfig::default(), DramModel::default());
        cpm.enable_recovery(RecoveryConfig {
            enabled: true,
            deadline: 50,
            watchdog_period: 5,
            max_retries: 4,
            backoff: 10,
        });
        cpm.submit(&program(2), 0).unwrap();
        let tok = DataToken::new(9, 3, Fixed::from_f64(2.0));
        cpm.note_token(&tok, NodeId::new(3), 1);
        // Congestion absorbs the token; parked copies are safe from the
        // watchdog no matter how long the pressure lasts.
        cpm.tick(2, (1, 16));
        assert!(cpm.in_overflow());
        assert_eq!(cpm.maybe_absorb(tok, 2), None);
        for c in 3..300 {
            assert_eq!(cpm.tick(c, (1, 16)), None, "parked token never triggers recovery");
        }
        // A corruption report un-parks it: the watchdog re-issues from the
        // overflow buffer (not the producer) with a bumped seq.
        cpm.note_corrupt(9, 300);
        let mut replay = None;
        for c in 301..400 {
            if let Some(CpmEmission::ReplayToken(t)) = cpm.tick(c, (14, 16)) {
                replay.get_or_insert(t);
                break;
            }
        }
        let t = replay.expect("replayed from overflow");
        assert_eq!((t.dep, t.dependents, t.seq), (9, 3, 1));
        assert!(t.checksum_ok(), "replay is re-sealed");
        assert_eq!(cpm.overflow_backlog(), 0);
        assert_eq!(cpm.recovery_stats().corrupt_detected, 1);
        assert_eq!(cpm.recovery_stats().detected, 1);
    }

    #[test]
    fn disabled_recovery_keeps_the_watchdog_registry_empty() {
        let mut cpm = Cpm::new(NodeId::new(0), CpmConfig::default(), DramModel::default());
        cpm.submit(&program(2), 0).unwrap();
        let tok = DataToken::new(1, 1, Fixed::ONE);
        cpm.note_token(&tok, NodeId::new(1), 5);
        cpm.note_captures(1, 1, 6);
        cpm.note_retired(1, 7);
        cpm.note_corrupt(1, 8);
        assert_eq!(cpm.recovery_stats().detected, 0);
        assert_eq!(cpm.recovery_stats().corrupt_detected, 0);
        assert!(cpm.watch.is_empty());
    }

    #[test]
    fn instruction_buffer_refills_in_batches() {
        let cfg = CpmConfig { fetch_batch: 16, instr_buffer_capacity: 32, ..CpmConfig::default() };
        let mut cpm = Cpm::new(NodeId::new(0), cfg, DramModel::default());
        cpm.submit(&program(64), 0).unwrap();
        let mut issued = 0;
        for c in 1..2_000 {
            if let Some(CpmEmission::Instructions(p)) = cpm.tick(c, uncongested()) {
                issued += p.len();
            }
        }
        assert_eq!(issued, 64, "all instructions eventually issued across refills");
    }
}
