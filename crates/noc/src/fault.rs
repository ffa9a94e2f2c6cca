//! Deterministic fault injection for the NoC substrate.
//!
//! A [`FaultPlan`] describes *when and where* the network misbehaves:
//! cycle-scheduled link-down windows, per-link flit drops, payload
//! corruption and RCU stall windows. Every decision is derived by hashing
//! `(seed, link, packet)` with the workspace's counter-based PRNG
//! ([`snacknoc_prng::hashrand`]), so a plan replays bit-identically no
//! matter how the simulation is threaded or resumed — the same *common
//! random numbers* discipline the traffic engines use.
//!
//! The plan is pure data; the network compiles it into a [`FaultState`]
//! (resolving `(node, direction)` pairs to directed link ids) via
//! [`crate::Network::set_fault_plan`]. With the default
//! [`FaultPlan::none`] the network keeps a `None` state and the hot path
//! is byte-identical to a build without this module.
//!
//! Fault semantics:
//!
//! * **Down** windows stall switch allocation toward the dead output
//!   port — flits wait in their input buffers, exactly as a link whose
//!   receiver stopped returning credits. Nothing is lost or corrupted;
//!   a flit already on the wire when the window opens still delivers.
//! * **Drop** removes a packet from the wire. The decision is made once,
//!   at the head flit; body/tail flits of a dropped packet are swallowed
//!   by a memo so a wormhole packet is never split in half. Credits are
//!   synthesized upstream so flow control stays live.
//! * **Corrupt** marks the head flit; the packet still delivers but
//!   surfaces `corrupted = true` to the consumer, which is expected to
//!   detect it via payload checksums.

use crate::flit::TrafficClass;
use crate::packet::PacketId;
use crate::routing::Dir;
use crate::topology::NodeId;
use std::collections::HashSet;
use std::fmt;

/// Decision salt for drop rolls (see [`snacknoc_prng::hashrand::unit`]).
const SALT_DROP: u64 = 0xFA17_0001;
/// Decision salt for corruption rolls.
const SALT_CORRUPT: u64 = 0xFA17_0002;

/// What a scheduled [`LinkFault`] does to traffic on its link.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum LinkFaultKind {
    /// The link is dead: the upstream router cannot send through it.
    Down,
    /// Flits crossing the link are dropped with this probability
    /// (decided per packet at its head flit).
    Drop {
        /// Per-packet drop probability in `[0, 1]`.
        rate: f64,
    },
    /// Head flits crossing the link are payload-corrupted with this
    /// probability.
    Corrupt {
        /// Per-packet corruption probability in `[0, 1]`.
        rate: f64,
    },
    /// The link is *permanently* dead from `start` onward — a hard
    /// failure that never heals. Behaves like [`LinkFaultKind::Down`]
    /// on the wire (flits stall in their input buffers), but higher
    /// layers treat it as permanent: ring launches recompute a detour
    /// cycle that excludes the link for the rest of the run instead of
    /// waiting the window out. The window `end` must be `u64::MAX`
    /// (use [`FaultPlan::with_dead_link`], which sets it).
    Dead,
}

/// A cycle-scheduled fault on one directed mesh link.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LinkFault {
    /// Node owning the faulty *output* port.
    pub from: NodeId,
    /// Direction of the faulty output port (`Local` is not a link).
    pub dir: Dir,
    /// First cycle (inclusive) the fault is active.
    pub start: u64,
    /// Last cycle (exclusive) the fault is active.
    pub end: u64,
    /// What the fault does.
    pub kind: LinkFaultKind,
}

impl LinkFault {
    fn active(&self, cycle: u64) -> bool {
        (self.start..self.end).contains(&cycle)
    }
}

/// A cycle window during which one node's RCU refuses to execute.
///
/// The NoC itself does not model RCUs; the platform layer polls
/// [`FaultPlan::rcu_stalled`] before ticking each compute unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StallWindow {
    /// The stalled node.
    pub node: NodeId,
    /// First cycle (inclusive) of the stall.
    pub start: u64,
    /// Last cycle (exclusive) of the stall.
    pub end: u64,
}

/// A permanent node death: the RCU (and any CPM co-located at the node)
/// stops doing compute work from `from` onward, forever.
///
/// Death is a *compute*-layer failure: the node's router keeps forwarding
/// traffic (the NoC failure mode is [`LinkFaultKind::Dead`]). The NoC
/// itself does not model RCUs; the platform layer polls
/// [`FaultPlan::rcu_dead`] before ticking each compute unit, excludes
/// dead nodes from the transient-token ring, and escalates to
/// remap/failover when a kernel depends on a dead node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeadRcu {
    /// The dead node.
    pub node: NodeId,
    /// First cycle (inclusive) the node is dead; it never revives.
    pub from: u64,
}

/// Which traffic classes the random drop/corrupt rates apply to.
///
/// Scheduled [`LinkFault`] windows also respect this mask. `Down` windows
/// stall *everything* regardless (a dead wire has no class filter).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultTargets {
    /// Target SnackNoC transient data tokens (the default).
    pub data: bool,
    /// Target SnackNoC instruction tokens.
    pub instructions: bool,
    /// Target baseline communication traffic.
    pub communication: bool,
}

impl Default for FaultTargets {
    fn default() -> Self {
        FaultTargets { data: true, instructions: false, communication: false }
    }
}

impl FaultTargets {
    /// Whether `class` is in the target set.
    pub fn targets(&self, class: TrafficClass) -> bool {
        match class {
            TrafficClass::Communication => self.communication,
            TrafficClass::SnackInstruction => self.instructions,
            TrafficClass::SnackData => self.data,
        }
    }
}

/// A complete, seeded description of the faults to inject into one run.
///
/// The default plan ([`FaultPlan::none`]) injects nothing and compiles to
/// no per-cycle work at all.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultPlan {
    /// Seed for all hash-derived fault decisions.
    pub seed: u64,
    /// Global per-packet drop probability on every link, every cycle.
    pub drop_rate: f64,
    /// Global per-packet corruption probability on every link.
    pub corrupt_rate: f64,
    /// Scheduled per-link fault windows.
    pub links: Vec<LinkFault>,
    /// Scheduled RCU stall windows (consumed by the platform layer).
    pub rcu_stalls: Vec<StallWindow>,
    /// Permanent node deaths (consumed by the platform layer).
    pub dead_rcus: Vec<DeadRcu>,
    /// Which traffic classes random faults apply to.
    pub targets: FaultTargets,
    /// When `true` (the default), packets flagged as protected
    /// ([`crate::PacketSpec::with_protected`]) are exempt from drops and
    /// corruption — modelling a small ECC/ack-protected control channel.
    pub respect_protection: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults, zero simulation cost.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            links: Vec::new(),
            rcu_stalls: Vec::new(),
            dead_rcus: Vec::new(),
            targets: FaultTargets::default(),
            respect_protection: true,
        }
    }

    /// An empty plan carrying a decision seed, ready for builders.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, ..Self::none() }
    }

    /// Sets the global per-packet drop rate.
    #[must_use]
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the global per-packet corruption rate.
    #[must_use]
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Schedules a fault on the directed link `from → dir` for cycles
    /// `start..end`.
    #[must_use]
    pub fn with_link_fault(
        mut self,
        from: NodeId,
        dir: Dir,
        start: u64,
        end: u64,
        kind: LinkFaultKind,
    ) -> Self {
        self.links.push(LinkFault { from, dir, start, end, kind });
        self
    }

    /// Schedules an RCU stall at `node` for cycles `start..end`.
    #[must_use]
    pub fn with_rcu_stall(mut self, node: NodeId, start: u64, end: u64) -> Self {
        self.rcu_stalls.push(StallWindow { node, start, end });
        self
    }

    /// Kills the directed link `from → dir` permanently from cycle
    /// `from_cycle` onward ([`LinkFaultKind::Dead`], never heals).
    #[must_use]
    pub fn with_dead_link(mut self, from: NodeId, dir: Dir, from_cycle: u64) -> Self {
        self.links.push(LinkFault {
            from,
            dir,
            start: from_cycle,
            end: u64::MAX,
            kind: LinkFaultKind::Dead,
        });
        self
    }

    /// Kills the node `node` permanently from cycle `from_cycle` onward:
    /// its RCU (and any co-located CPM) stops computing forever. The
    /// node's router keeps forwarding — use [`Self::with_dead_link`] for
    /// wire failures.
    #[must_use]
    pub fn with_dead_rcu(mut self, node: NodeId, from_cycle: u64) -> Self {
        self.dead_rcus.push(DeadRcu { node, from: from_cycle });
        self
    }

    /// Replaces the traffic-class target mask.
    #[must_use]
    pub fn with_targets(mut self, targets: FaultTargets) -> Self {
        self.targets = targets;
        self
    }

    /// Sets whether protected packets are exempt from random faults.
    #[must_use]
    pub fn with_respect_protection(mut self, respect: bool) -> Self {
        self.respect_protection = respect;
        self
    }

    /// Whether this plan injects anything at all.
    pub fn enabled(&self) -> bool {
        self.drop_rate > 0.0
            || self.corrupt_rate > 0.0
            || !self.links.is_empty()
            || !self.rcu_stalls.is_empty()
            || !self.dead_rcus.is_empty()
    }

    /// Whether this plan contains any *permanent* fault (a dead link or a
    /// dead node). Permanent faults make a run eligible for the platform's
    /// remap/failover escalation path.
    pub fn has_permanent_faults(&self) -> bool {
        !self.dead_rcus.is_empty()
            || self.links.iter().any(|f| f.kind == LinkFaultKind::Dead)
    }

    /// Whether the directed link `from → dir` is inside a `Down` window
    /// (or permanently dead) at `cycle`. Used by higher layers to steer
    /// around unusable links.
    pub fn link_is_down(&self, from: NodeId, dir: Dir, cycle: u64) -> bool {
        self.links.iter().any(|f| {
            matches!(f.kind, LinkFaultKind::Down | LinkFaultKind::Dead)
                && f.from == from
                && f.dir == dir
                && f.active(cycle)
        })
    }

    /// Whether the directed link `from → dir` is permanently dead at
    /// `cycle` (a [`LinkFaultKind::Dead`] fault whose start has passed).
    pub fn link_is_dead(&self, from: NodeId, dir: Dir, cycle: u64) -> bool {
        self.links.iter().any(|f| {
            f.kind == LinkFaultKind::Dead && f.from == from && f.dir == dir && f.start <= cycle
        })
    }

    /// Whether the node `node` is permanently dead at `cycle`.
    pub fn rcu_dead(&self, node: NodeId, cycle: u64) -> bool {
        self.dead_rcus.iter().any(|d| d.node == node && d.from <= cycle)
    }

    /// The nodes permanently dead at `cycle`, ascending by node index —
    /// the exclusion set for remapping a kernel off dead RCUs.
    pub fn dead_rcu_nodes_at(&self, cycle: u64) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> =
            self.dead_rcus.iter().filter(|d| d.from <= cycle).map(|d| d.node).collect();
        nodes.sort_unstable_by_key(|n| n.index());
        nodes.dedup();
        nodes
    }

    /// Whether the RCU at `node` is inside a stall window at `cycle`.
    pub fn rcu_stalled(&self, node: NodeId, cycle: u64) -> bool {
        self.rcu_stalls.iter().any(|w| w.node == node && (w.start..w.end).contains(&cycle))
    }

    /// Whether *any* RCU stall window covers `cycle`. A covered cycle
    /// charges `stalled_cycles` to the stalled RCUs, so event-driven
    /// stepping must run it on the real clock.
    pub fn any_rcu_stalled(&self, cycle: u64) -> bool {
        self.rcu_stalls.iter().any(|w| (w.start..w.end).contains(&cycle))
    }

    /// The earliest RCU stall-window start strictly after `cycle`, if any —
    /// a wake event for event-driven stepping (a jump must never overshoot
    /// into or across a stall window).
    pub fn next_rcu_stall_start_after(&self, cycle: u64) -> Option<u64> {
        self.rcu_stalls.iter().map(|w| w.start).filter(|&s| s > cycle).min()
    }

    /// Validates rates and windows.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError`] for rates outside `[0, 1]` or inverted
    /// windows.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let frac = |field: &'static str, v: f64| -> Result<(), FaultPlanError> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(FaultPlanError::RateOutOfRange { field, value: v })
            }
        };
        frac("drop_rate", self.drop_rate)?;
        frac("corrupt_rate", self.corrupt_rate)?;
        for f in &self.links {
            match f.kind {
                LinkFaultKind::Drop { rate } => frac("link drop rate", rate)?,
                LinkFaultKind::Corrupt { rate } => frac("link corrupt rate", rate)?,
                LinkFaultKind::Down => {}
                LinkFaultKind::Dead => {
                    // Permanence is the contract: a bounded "dead" window
                    // is a Down window and must be spelled as one.
                    if f.end != u64::MAX {
                        return Err(FaultPlanError::BoundedDeath { end: f.end });
                    }
                }
            }
            if f.start >= f.end {
                return Err(FaultPlanError::EmptyWindow { start: f.start, end: f.end });
            }
            if f.dir == Dir::Local {
                return Err(FaultPlanError::BadLink { node: f.from, dir: f.dir });
            }
        }
        for w in &self.rcu_stalls {
            if w.start >= w.end {
                return Err(FaultPlanError::EmptyWindow { start: w.start, end: w.end });
            }
        }
        Ok(())
    }
}

/// Error returned when a [`FaultPlan`] cannot be compiled for a network.
#[derive(Clone, Copy, PartialEq, Debug)]
#[non_exhaustive]
pub enum FaultPlanError {
    /// A rate field is outside `[0, 1]`.
    RateOutOfRange {
        /// Which rate.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A scheduled window has `start >= end`.
    EmptyWindow {
        /// Window start (inclusive).
        start: u64,
        /// Window end (exclusive).
        end: u64,
    },
    /// A [`LinkFault`] references a link that does not exist in the mesh.
    BadLink {
        /// The node owning the (nonexistent) output port.
        node: NodeId,
        /// The direction with no neighbour.
        dir: Dir,
    },
    /// A [`LinkFaultKind::Dead`] fault has a finite window end — death
    /// is permanent by contract (`end` must be `u64::MAX`).
    BoundedDeath {
        /// The offending (finite) window end.
        end: u64,
    },
    /// A [`DeadRcu`] references a node outside the mesh.
    BadNode {
        /// The nonexistent node.
        node: NodeId,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::RateOutOfRange { field, value } => {
                write!(f, "fault {field} {value} outside [0, 1]")
            }
            FaultPlanError::EmptyWindow { start, end } => {
                write!(f, "fault window {start}..{end} is empty")
            }
            FaultPlanError::BadLink { node, dir } => {
                write!(f, "no link leaves {node} toward {dir}")
            }
            FaultPlanError::BoundedDeath { end } => {
                write!(f, "Dead link fault has finite end {end} (death is permanent)")
            }
            FaultPlanError::BadNode { node } => {
                write!(f, "dead node {node} is outside the mesh")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Counters for everything the fault layer did to the network.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultCounters {
    /// Fault events injected (packet drops + corruptions).
    pub injected: u64,
    /// Individual flits removed from the wire.
    pub dropped_flits: u64,
    /// Whole packets dropped (counted at their tail flit).
    pub dropped_packets: u64,
    /// Packets delivered with a corrupted payload.
    pub corrupted_packets: u64,
}

/// What the fault layer decides for one flit on one link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FaultAction {
    /// Deliver the flit untouched.
    Deliver,
    /// Deliver the flit with its corruption mark set.
    DeliverCorrupted,
    /// Swallow the flit.
    Drop,
}

/// A [`FaultPlan`] compiled against one network's link table.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    /// Resolved `Down` windows: `(link id, start, end)`.
    down: Vec<(usize, u64, u64)>,
    /// Resolved `Drop` windows: `(link id, start, end, rate)`.
    drops: Vec<(usize, u64, u64, f64)>,
    /// Resolved `Corrupt` windows: `(link id, start, end, rate)`.
    corrupts: Vec<(usize, u64, u64, f64)>,
    /// Every distinct window start/end cycle across all down/drop/corrupt
    /// windows, sorted ascending. Event-driven stepping treats each edge
    /// as a wake cycle so a clock jump can never silently cross (and thus
    /// skip) a fault window contained inside the jumped interval.
    edges: Vec<u64>,
    /// Mid-packet drop memo: the `(link, packet)` pairs whose head was
    /// dropped and whose tail has not yet crossed.
    dropping: HashSet<(usize, PacketId)>,
    /// What this plan has done to the network so far.
    counters: FaultCounters,
}

impl FaultState {
    /// Compiles `plan` using `resolve` to map `(node, dir)` to link ids.
    pub(crate) fn compile(
        plan: FaultPlan,
        mut resolve: impl FnMut(NodeId, Dir) -> Option<usize>,
    ) -> Result<Self, FaultPlanError> {
        plan.validate()?;
        let mut down = Vec::new();
        let mut drops = Vec::new();
        let mut corrupts = Vec::new();
        for f in &plan.links {
            let lid = resolve(f.from, f.dir)
                .ok_or(FaultPlanError::BadLink { node: f.from, dir: f.dir })?;
            match f.kind {
                // A Dead link is a Down window that never closes: the
                // wire-level machinery (stall switch allocation toward the
                // port) is identical; only higher layers distinguish.
                LinkFaultKind::Down | LinkFaultKind::Dead => down.push((lid, f.start, f.end)),
                LinkFaultKind::Drop { rate } => drops.push((lid, f.start, f.end, rate)),
                LinkFaultKind::Corrupt { rate } => corrupts.push((lid, f.start, f.end, rate)),
            }
        }
        let mut edges: Vec<u64> = down
            .iter()
            .map(|&(_, s, e)| (s, e))
            .chain(drops.iter().map(|&(_, s, e, _)| (s, e)))
            .chain(corrupts.iter().map(|&(_, s, e, _)| (s, e)))
            .flat_map(|(s, e)| [s, e])
            // A window that never ends has no closing edge to wake on.
            .filter(|&c| c != u64::MAX)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        Ok(FaultState {
            plan,
            down,
            drops,
            corrupts,
            edges,
            dropping: HashSet::new(),
            counters: FaultCounters::default(),
        })
    }

    /// What this plan has done to the network so far.
    pub(crate) fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Every distinct down/drop/corrupt window edge (starts and exclusive
    /// ends), ascending. These are the cycles event-driven stepping must
    /// treat as wake events.
    pub(crate) fn window_edges(&self) -> &[u64] {
        &self.edges
    }

    /// The plan this state was compiled from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether link `lid` is inside a `Down` window at `cycle`.
    pub(crate) fn link_down(&self, lid: usize, cycle: u64) -> bool {
        self.down.iter().any(|&(l, s, e)| l == lid && (s..e).contains(&cycle))
    }

    /// Whether any `Down` window exists at all (lets the network skip
    /// building per-router masks when only drop/corrupt faults run).
    pub(crate) fn has_down_windows(&self) -> bool {
        !self.down.is_empty()
    }

    /// The effective rate for `lid` at `cycle`: the plan-wide baseline,
    /// raised by any covering scheduled window.
    fn rate_at(base: f64, windows: &[(usize, u64, u64, f64)], lid: usize, cycle: u64) -> f64 {
        let mut rate = base;
        for &(l, s, e, r) in windows {
            if l == lid && (s..e).contains(&cycle) {
                rate = rate.max(r);
            }
        }
        rate
    }

    /// Decides the fate of one flit crossing link `lid` at `cycle`.
    ///
    /// Drop decisions are made at head flits only; later flits of a
    /// dropped packet follow via the mid-packet drop memo, so a wormhole
    /// packet never splits across a window edge. Drop and corrupt rolls
    /// hash `(seed, link, packet)` (common random numbers), so the
    /// verdict is independent of evaluation order.
    pub(crate) fn on_link_flit(
        &mut self,
        lid: usize,
        cycle: u64,
        flit: &crate::flit::Flit,
    ) -> FaultAction {
        let (plan, dropping, counters) = (&self.plan, &mut self.dropping, &mut self.counters);
        let (kind, class, protected, already_corrupted, packet_id) =
            (flit.kind(), flit.class(), flit.protected(), flit.corrupted(), flit.packet_id);
        if !kind.is_head() {
            if dropping.contains(&(lid, packet_id)) {
                if kind.is_tail() {
                    dropping.remove(&(lid, packet_id));
                    counters.dropped_packets += 1;
                    counters.injected += 1;
                }
                counters.dropped_flits += 1;
                return FaultAction::Drop;
            }
            return FaultAction::Deliver;
        }
        if !plan.targets.targets(class) || (protected && plan.respect_protection) {
            return FaultAction::Deliver;
        }
        let drop = Self::rate_at(plan.drop_rate, &self.drops, lid, cycle);
        if drop > 0.0
            && snacknoc_prng::hashrand::unit(plan.seed, lid as u64, packet_id, SALT_DROP) < drop
        {
            counters.dropped_flits += 1;
            if kind.is_tail() {
                // Single-flit packet: dropped whole right here.
                counters.dropped_packets += 1;
                counters.injected += 1;
            } else {
                dropping.insert((lid, packet_id));
            }
            return FaultAction::Drop;
        }
        let corrupt = Self::rate_at(plan.corrupt_rate, &self.corrupts, lid, cycle);
        if !already_corrupted
            && corrupt > 0.0
            && snacknoc_prng::hashrand::unit(plan.seed, lid as u64, packet_id, SALT_CORRUPT)
                < corrupt
        {
            counters.corrupted_packets += 1;
            counters.injected += 1;
            return FaultAction::DeliverCorrupted;
        }
        FaultAction::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::FlitKind;

    /// Builds a minimal flit carrying just the fields the fault layer
    /// inspects.
    fn probe(
        kind: FlitKind,
        class: TrafficClass,
        protected: bool,
        corrupted: bool,
        packet_id: PacketId,
    ) -> crate::flit::Flit {
        let mut f = crate::flit::Flit::new(
            0,
            packet_id,
            kind,
            class,
            0,
            NodeId::new(0),
            NodeId::new(0),
            0,
            crate::pool::PayloadRef::NONE,
            protected,
        );
        if corrupted {
            f.mark_corrupted();
        }
        f
    }

    /// Compiles `plan` with every link fault resolved to link `lid`.
    fn compile(plan: FaultPlan, lid: usize) -> FaultState {
        FaultState::compile(plan, |_, _| Some(lid)).unwrap()
    }

    #[test]
    fn empty_plan_is_disabled_and_valid() {
        let plan = FaultPlan::none();
        assert!(!plan.enabled());
        assert!(plan.validate().is_ok());
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn builders_enable_the_plan() {
        assert!(FaultPlan::seeded(1).with_drop_rate(0.1).enabled());
        assert!(FaultPlan::seeded(1).with_corrupt_rate(0.1).enabled());
        assert!(FaultPlan::seeded(1)
            .with_link_fault(NodeId::new(0), Dir::East, 0, 10, LinkFaultKind::Down)
            .enabled());
        assert!(FaultPlan::seeded(1).with_rcu_stall(NodeId::new(3), 5, 9).enabled());
        assert!(!FaultPlan::seeded(77).enabled(), "a bare seed injects nothing");
    }

    #[test]
    fn validation_rejects_bad_rates_and_windows() {
        assert!(matches!(
            FaultPlan::seeded(1).with_drop_rate(1.5).validate(),
            Err(FaultPlanError::RateOutOfRange { field: "drop_rate", .. })
        ));
        assert!(matches!(
            FaultPlan::seeded(1).with_corrupt_rate(-0.1).validate(),
            Err(FaultPlanError::RateOutOfRange { .. })
        ));
        assert!(matches!(
            FaultPlan::seeded(1)
                .with_link_fault(NodeId::new(0), Dir::East, 10, 10, LinkFaultKind::Down)
                .validate(),
            Err(FaultPlanError::EmptyWindow { start: 10, end: 10 })
        ));
        assert!(matches!(
            FaultPlan::seeded(1)
                .with_link_fault(NodeId::new(0), Dir::Local, 0, 10, LinkFaultKind::Down)
                .validate(),
            Err(FaultPlanError::BadLink { .. })
        ));
        let err = FaultPlan::seeded(1).with_drop_rate(2.0).validate().unwrap_err();
        assert!(err.to_string().contains("drop_rate"));
    }

    #[test]
    fn down_and_stall_windows_are_half_open() {
        let plan = FaultPlan::seeded(9)
            .with_link_fault(NodeId::new(2), Dir::South, 100, 200, LinkFaultKind::Down)
            .with_rcu_stall(NodeId::new(5), 50, 60);
        assert!(!plan.link_is_down(NodeId::new(2), Dir::South, 99));
        assert!(plan.link_is_down(NodeId::new(2), Dir::South, 100));
        assert!(plan.link_is_down(NodeId::new(2), Dir::South, 199));
        assert!(!plan.link_is_down(NodeId::new(2), Dir::South, 200));
        assert!(!plan.link_is_down(NodeId::new(3), Dir::South, 150), "other node unaffected");
        assert!(!plan.link_is_down(NodeId::new(2), Dir::North, 150), "other dir unaffected");
        assert!(plan.rcu_stalled(NodeId::new(5), 50));
        assert!(!plan.rcu_stalled(NodeId::new(5), 60));
        assert!(!plan.rcu_stalled(NodeId::new(4), 55));
    }

    #[test]
    fn drop_decision_is_head_keyed_and_deterministic() {
        let plan = FaultPlan::seeded(42).with_drop_rate(1.0);
        let mut st = compile(plan.clone(), 0);
        // Multi-flit packet: head decides, body/tail follow the memo.
        assert_eq!(
            st.on_link_flit(3, 10, &probe(FlitKind::Head, TrafficClass::SnackData, false, false, 7)),
            FaultAction::Drop
        );
        assert_eq!(
            st.on_link_flit(3, 11, &probe(FlitKind::Body, TrafficClass::SnackData, false, false, 7)),
            FaultAction::Drop
        );
        assert_eq!(
            st.on_link_flit(3, 12, &probe(FlitKind::Tail, TrafficClass::SnackData, false, false, 7)),
            FaultAction::Drop
        );
        assert_eq!(st.counters.dropped_flits, 3);
        assert_eq!(st.counters.dropped_packets, 1);
        assert_eq!(st.counters.injected, 1);
        // A different packet's body on the same link is untouched.
        assert_eq!(
            st.on_link_flit(3, 12, &probe(FlitKind::Body, TrafficClass::SnackData, false, false, 8)),
            FaultAction::Deliver
        );
        // Replay is bit-identical.
        let mut st2 = compile(plan, 0);
        assert_eq!(
            st2.on_link_flit(3, 10, &probe(FlitKind::Head, TrafficClass::SnackData, false, false, 7)),
            FaultAction::Drop
        );
    }

    #[test]
    fn targeting_and_protection_exempt_traffic() {
        let mut st = compile(FaultPlan::seeded(1).with_drop_rate(1.0), 0);
        // Default targets: data only.
        assert_eq!(
            st.on_link_flit(0, 0, &probe(FlitKind::HeadTail, TrafficClass::Communication, false, false, 1)),
            FaultAction::Deliver
        );
        assert_eq!(
            st.on_link_flit(0, 0, &probe(FlitKind::HeadTail, TrafficClass::SnackInstruction, false, false, 2)),
            FaultAction::Deliver
        );
        // Protected data survives too: the would-be drop becomes delivery.
        assert_eq!(
            st.on_link_flit(0, 0, &probe(FlitKind::HeadTail, TrafficClass::SnackData, true, false, 3)),
            FaultAction::Deliver
        );
        assert_eq!(
            st.on_link_flit(0, 0, &probe(FlitKind::HeadTail, TrafficClass::SnackData, false, false, 4)),
            FaultAction::Drop
        );
        assert_eq!(st.counters.dropped_packets, 1);
    }

    #[test]
    fn corruption_marks_but_delivers() {
        let mut st = compile(FaultPlan::seeded(5).with_corrupt_rate(1.0), 0);
        assert_eq!(
            st.on_link_flit(0, 0, &probe(FlitKind::HeadTail, TrafficClass::SnackData, false, false, 1)),
            FaultAction::DeliverCorrupted
        );
        assert_eq!(st.counters.corrupted_packets, 1);
        assert_eq!(st.counters.dropped_flits, 0);
    }

    #[test]
    fn windowed_drop_rate_composes_with_global() {
        let plan = FaultPlan::seeded(3)
            .with_link_fault(NodeId::new(0), Dir::East, 10, 20, LinkFaultKind::Drop { rate: 1.0 });
        let mut st = compile(plan, 4);
        // Outside the window: no drops at rate 0.
        assert_eq!(
            st.on_link_flit(4, 9, &probe(FlitKind::HeadTail, TrafficClass::SnackData, false, false, 1)),
            FaultAction::Deliver
        );
        // Inside: certain drop.
        assert_eq!(
            st.on_link_flit(4, 10, &probe(FlitKind::HeadTail, TrafficClass::SnackData, false, false, 2)),
            FaultAction::Drop
        );
        // Other links unaffected.
        assert_eq!(
            st.on_link_flit(5, 10, &probe(FlitKind::HeadTail, TrafficClass::SnackData, false, false, 3)),
            FaultAction::Deliver
        );
    }

    #[test]
    fn dead_links_and_nodes_are_permanent() {
        let plan = FaultPlan::seeded(11)
            .with_dead_link(NodeId::new(2), Dir::East, 1_000)
            .with_dead_rcu(NodeId::new(7), 500);
        assert!(plan.enabled());
        assert!(plan.has_permanent_faults());
        assert!(plan.validate().is_ok());
        // Dead links read as down (detour machinery) and as dead
        // (permanence), from their start cycle to forever.
        assert!(!plan.link_is_down(NodeId::new(2), Dir::East, 999));
        assert!(!plan.link_is_dead(NodeId::new(2), Dir::East, 999));
        assert!(plan.link_is_down(NodeId::new(2), Dir::East, 1_000));
        assert!(plan.link_is_dead(NodeId::new(2), Dir::East, 1_000));
        assert!(plan.link_is_down(NodeId::new(2), Dir::East, u64::MAX - 1));
        // Node death never revives either.
        assert!(!plan.rcu_dead(NodeId::new(7), 499));
        assert!(plan.rcu_dead(NodeId::new(7), 500));
        assert!(plan.rcu_dead(NodeId::new(7), u64::MAX));
        assert!(!plan.rcu_dead(NodeId::new(6), 10_000));
        assert_eq!(plan.dead_rcu_nodes_at(499), Vec::<NodeId>::new());
        assert_eq!(plan.dead_rcu_nodes_at(500), vec![NodeId::new(7)]);
        // A transient-only plan is not permanent.
        assert!(!FaultPlan::seeded(1).with_drop_rate(0.5).has_permanent_faults());
    }

    #[test]
    fn bounded_death_is_rejected() {
        let mut plan = FaultPlan::seeded(1).with_dead_link(NodeId::new(0), Dir::East, 10);
        plan.links[0].end = 5_000;
        assert!(matches!(plan.validate(), Err(FaultPlanError::BoundedDeath { end: 5_000 })));
        let err = plan.validate().unwrap_err();
        assert!(err.to_string().contains("permanent"));
    }

    #[test]
    fn dead_link_compiles_to_an_unbounded_down_window_with_no_end_edge() {
        let plan = FaultPlan::seeded(1).with_dead_link(NodeId::new(0), Dir::East, 42);
        let st = FaultState::compile(plan, |_, _| Some(3)).unwrap();
        assert!(st.has_down_windows());
        assert!(!st.link_down(3, 41));
        assert!(st.link_down(3, 42));
        assert!(st.link_down(3, u64::MAX - 1));
        assert_eq!(st.window_edges(), &[42], "u64::MAX must not appear as a wake edge");
    }

    #[test]
    fn compile_rejects_nonexistent_links() {
        let plan = FaultPlan::seeded(1).with_link_fault(
            NodeId::new(0),
            Dir::West,
            0,
            10,
            LinkFaultKind::Down,
        );
        assert!(matches!(
            FaultState::compile(plan, |_, _| None),
            Err(FaultPlanError::BadLink { .. })
        ));
    }
}
