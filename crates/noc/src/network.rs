//! The whole-network simulator: routers, links, network interfaces,
//! packet segmentation/reassembly and the per-cycle evaluation loop.

use crate::config::{ConfigError, NocConfig};
use crate::fault::{FaultAction, FaultCounters, FaultPlan, FaultPlanError, FaultState};
use crate::flit::{Flit, FlitKind};
use crate::packet::{Packet, PacketId, PacketSpec};
use crate::pool::{PayloadPool, PayloadRef};
use crate::router::{Departure, Router};
use crate::routing::Dir;
use crate::stats::NetStats;
use crate::topology::{Mesh, NodeId};
use snacknoc_trace::{EventKind, TracerHandle};
use std::collections::{HashMap, VecDeque};
use std::fmt;

mod sharded;
use sharded::Sharding;

/// A one-cycle-latency directed link between two routers.
#[derive(Clone, Debug)]
struct Link {
    to_router: usize,
    in_port: Dir,
    slot: Option<Flit>,
}

/// A credit / VC-free signal in flight back to an upstream router.
#[derive(Clone, Copy, Debug)]
struct CreditMsg {
    router: usize,
    port: Dir,
    vc: u8,
    frees_vc: bool,
}

/// Per-node network interface: per-vnet injection FIFOs.
#[derive(Clone, Debug)]
struct NetIf {
    /// Per-vnet queues of pre-segmented flits.
    queues: Vec<VecDeque<Flit>>,
    /// Per-vnet: the Local input VC currently receiving a packet's flits.
    streaming: Vec<Option<u8>>,
    /// Round-robin pointer over vnets.
    rr: usize,
}

/// Reassembly state for one in-flight packet at its destination NI.
#[derive(Debug)]
struct Partial {
    head: Option<Flit>,
    flits: u64,
    corrupted: bool,
    /// Destination node index — lets sharded stepping keep each partial
    /// in the lane of the shard that owns its ejecting router.
    dst: usize,
}

/// A structured snapshot of why a network failed to drain: which routers
/// still hold flits, how many packets are starved for output VCs, and how
/// stale the oldest in-flight flit is. Returned by
/// [`Network::run_until_drained`] and available any time through
/// [`Network::stall_report`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StallReport {
    /// Cycle at which the report was taken.
    pub cycle: u64,
    /// Packets injected but neither delivered nor lost.
    pub pending_packets: u64,
    /// Packets destroyed by fault injection (never going to arrive).
    pub lost_packets: u64,
    /// Flits resident in router input buffers.
    pub buffered_flits: u64,
    /// Routers still holding at least one buffered flit.
    pub blocked_routers: Vec<usize>,
    /// Input VCs holding a routed packet with no output VC granted.
    pub starved_vcs: usize,
    /// Age (cycles since source queueing) of the oldest buffered or
    /// NI-queued flit; 0 when nothing is in flight.
    pub oldest_packet_age: u64,
    /// Flits still waiting in source NI injection queues.
    pub ni_backlog: u64,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stall at cycle {}: {} pending packets ({} lost to faults), \
             {} buffered flits across {} blocked routers, {} starved VCs, \
             {} flits backlogged at NIs, oldest in-flight flit {} cycles old",
            self.cycle,
            self.pending_packets,
            self.lost_packets,
            self.buffered_flits,
            self.blocked_routers.len(),
            self.starved_vcs,
            self.ni_backlog,
            self.oldest_packet_age,
        )
    }
}

/// A cycle-level mesh NoC. `P` is the packet payload type.
///
/// See the [crate-level documentation](crate) for the model and an example.
#[derive(Debug)]
pub struct Network<P> {
    cfg: NocConfig,
    mesh: Mesh,
    routers: Vec<Router>,
    nis: Vec<NetIf>,
    links: Vec<Link>,
    /// Slab storage for in-flight packet payloads; head flits carry only
    /// a [`PayloadRef`] (DESIGN.md §16). Inserts happen at injection,
    /// takes/releases at ejection and fault drops — all serial contexts,
    /// so slot assignment is identical across every stepping mode.
    pool: PayloadPool<P>,
    /// `link_of[router][dir]` = outgoing link id.
    link_of: Vec<[Option<usize>; 4]>,
    pending_credits: Vec<CreditMsg>,
    reassembly: HashMap<PacketId, Partial>,
    ejected: Vec<Vec<Packet<P>>>,
    /// Packets in `ejected` not yet drained, so [`Network::has_ejected`]
    /// need not scan every node.
    ejected_count: usize,
    /// Dedup flags for the router worklist: `work[r]` ⟺ `r ∈ active`.
    work: Vec<bool>,
    /// The router worklist. Between cycles it holds exactly the routers
    /// that can make progress next cycle (buffered flits survived Phase 4,
    /// plus wakeups from credit return, link delivery and NI injection).
    active: Vec<usize>,
    /// Scratch the worklist is drained through each Phase 4 (kept around
    /// so steady-state stepping never allocates).
    active_scratch: Vec<usize>,
    /// Links whose slot is occupied — exactly one entry per filled slot,
    /// pushed when Phase 4 fills the slot, drained by the next Phase 2.
    occupied_links: Vec<usize>,
    links_scratch: Vec<usize>,
    /// NI worklist: nodes with a nonzero injection backlog.
    ni_active: Vec<usize>,
    ni_scratch: Vec<usize>,
    /// Dedup flags for `ni_active`.
    ni_flag: Vec<bool>,
    /// Per-node incremental NI backlog (flits queued, all vnets).
    ni_backlogs: Vec<u64>,
    /// Network-wide incremental NI backlog.
    ni_backlog_total: u64,
    /// Phase-1 scratch: last cycle's credits are processed out of this
    /// buffer while Phases 2/4 push next cycle's into `pending_credits`
    /// (the two vectors ping-pong, so neither ever reallocates in steady
    /// state).
    credits_scratch: Vec<CreditMsg>,
    /// Phase-4 scratch for router departures.
    departures_scratch: Vec<Departure>,
    /// Dense (reference) stepping: every phase walks every component, as
    /// the pre-activity-driven simulator did, and the clock never jumps.
    /// Bit-identical to the serial schedule — `tests/determinism.rs`
    /// proves it — and kept as the oracle and the baseline the
    /// `snack-perf` speedups are measured against.
    dense: bool,
    cycle: u64,
    next_packet_id: PacketId,
    next_flit_id: u64,
    buffered_total: u64,
    buffer_capacity: u64,
    injected_packets: u64,
    delivered_packets: u64,
    lost_packets: u64,
    /// Fault-injection state; `None` (the default) keeps every hot path
    /// byte-identical to a fault-free build.
    fault: Option<FaultState>,
    stats: NetStats,
    /// Structured event tracer; [`TracerHandle::Nop`] (the default) keeps
    /// every hook a single discriminant branch with no event construction.
    tracer: TracerHandle,
    /// Sharded stepping state (DESIGN.md §13): the mesh split into
    /// horizontal row bands stepped by one worker thread each, with
    /// per-cycle barrier sync and boundary mailboxes. `None` (the
    /// default) keeps the serial paths untouched.
    sharding: Option<Sharding>,
}

/// Error returned by [`Network::inject`] for malformed packet specs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum InjectError {
    /// The vnet index is out of range.
    BadVnet(u8),
    /// Source or destination node is out of range.
    BadNode,
    /// The payload pool hit its configured slot cap
    /// ([`Network::limit_payload_pool`]); the packet was not queued.
    PayloadPoolExhausted {
        /// The pool cap that was hit.
        capacity: usize,
    },
}

impl std::fmt::Display for InjectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectError::BadVnet(v) => write!(f, "vnet {v} out of range"),
            InjectError::BadNode => write!(f, "source or destination node out of range"),
            InjectError::PayloadPoolExhausted { capacity } => {
                write!(f, "payload pool exhausted at {capacity} slots")
            }
        }
    }
}

impl std::error::Error for InjectError {}

/// Error returned by [`Network::set_sharding`] for impossible tilings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ShardError {
    /// More tiles than mesh rows: a row band needs at least one row.
    TooManyShards {
        /// Requested shard count.
        shards: usize,
        /// Mesh rows available to tile.
        rows: usize,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::TooManyShards { shards, rows } => {
                write!(f, "{shards} shards requested but the mesh has only {rows} rows")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl<P> Network<P> {
    /// Builds a network from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(cfg: NocConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mesh = Mesh::new(cfg.cols, cfg.rows);
        let n = mesh.node_count();
        let routers: Vec<Router> =
            mesh.nodes().map(|node| Router::new(&cfg, &mesh, node)).collect();
        let mut links = Vec::new();
        let mut link_of = vec![[None; 4]; n];
        for node in mesh.nodes() {
            for d in Dir::ROUTER_DIRS {
                if let Some(nb) = mesh.neighbor(node, d) {
                    link_of[node.index()][d.index()] = Some(links.len());
                    links.push(Link { to_router: nb.index(), in_port: d.opposite(), slot: None });
                }
            }
        }
        let nis = (0..n)
            .map(|_| NetIf {
                queues: (0..cfg.vnets).map(|_| VecDeque::new()).collect(),
                streaming: vec![None; cfg.vnets as usize],
                rr: 0,
            })
            .collect();
        let buffer_capacity = (n * Dir::COUNT * cfg.vcs_per_port()) as u64
            * u64::from(cfg.buffers_per_vc);
        let stats = NetStats::new(n, links.len(), cfg.sample_window);
        Ok(Network {
            cfg,
            mesh,
            routers,
            nis,
            links,
            pool: PayloadPool::new(),
            link_of,
            pending_credits: Vec::new(),
            reassembly: HashMap::new(),
            ejected: (0..n).map(|_| Vec::new()).collect(),
            ejected_count: 0,
            work: vec![false; n],
            active: Vec::with_capacity(n),
            active_scratch: Vec::with_capacity(n),
            occupied_links: Vec::with_capacity(stats.link_count()),
            links_scratch: Vec::with_capacity(stats.link_count()),
            ni_active: Vec::with_capacity(n),
            ni_scratch: Vec::with_capacity(n),
            ni_flag: vec![false; n],
            ni_backlogs: vec![0; n],
            ni_backlog_total: 0,
            credits_scratch: Vec::new(),
            departures_scratch: Vec::new(),
            dense: false,
            cycle: 0,
            next_packet_id: 0,
            next_flit_id: 0,
            buffered_total: 0,
            buffer_capacity,
            injected_packets: 0,
            delivered_packets: 0,
            lost_packets: 0,
            fault: None,
            stats,
            tracer: TracerHandle::Nop,
            sharding: None,
        })
    }

    /// Installs (or clears) a fault-injection plan.
    ///
    /// A disabled plan ([`FaultPlan::none`]) removes all fault state, so
    /// the per-cycle cost returns to exactly zero. Scheduled link faults
    /// are resolved against this network's link table up front.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError`] for invalid rates/windows or link
    /// faults that reference links absent from the mesh.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        if !plan.enabled() {
            plan.validate()?;
            self.fault = None;
            return Ok(());
        }
        for d in &plan.dead_rcus {
            if d.node.index() >= self.mesh.node_count() {
                return Err(FaultPlanError::BadNode { node: d.node });
            }
        }
        let link_of = &self.link_of;
        let state =
            FaultState::compile(plan, |node, dir| link_of[node.index()][dir.index()])?;
        self.fault = Some(state);
        // A fresh plan starts with an empty mid-packet drop memo; stale
        // per-lane memos from a previous plan must not outlive it.
        if let Some(sh) = self.sharding.as_mut() {
            sh.clear_fault_memos();
        }
        Ok(())
    }

    /// The installed fault plan, if any faults are enabled.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| f.plan())
    }

    /// What the fault layer did so far (all zeros when disabled).
    pub fn fault_counters(&self) -> FaultCounters {
        self.fault.as_ref().map(|f| f.counters).unwrap_or_default()
    }

    /// Packets destroyed by fault injection or protocol-error discard;
    /// they will never be delivered and are excluded from
    /// [`Network::pending_packets`].
    pub fn lost_packets(&self) -> u64 {
        self.lost_packets
    }

    /// The mesh topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// The current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Gathered statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Flushes the trailing partial sampling window (see
    /// [`NetStats::finalize`]) and returns the statistics. Runners call
    /// this once the workload completes so runs shorter than one sampling
    /// window still report utilization samples. Safe to call repeatedly
    /// and safe to keep stepping the network afterwards.
    pub fn finalize_stats(&mut self) -> &NetStats {
        let cycle = self.cycle;
        self.stats.finalize(cycle);
        &self.stats
    }

    /// Installs a tracer; pass [`TracerHandle::Nop`] to disable tracing.
    ///
    /// With the default `Nop` handle the simulation is bit-identical to a
    /// build without tracing hooks: events are never constructed and no
    /// heap traffic occurs. With a [`snacknoc_trace::RingTracer`] the
    /// simulated behavior is unchanged — only observations are recorded.
    pub fn set_tracer(&mut self, tracer: TracerHandle) {
        self.tracer = tracer;
    }

    /// The installed tracer handle.
    pub fn tracer(&self) -> &TracerHandle {
        &self.tracer
    }

    /// Mutable access for instrumentation layered above the network
    /// (the SnackNoC platform records RCU/CPM events through this).
    pub fn tracer_mut(&mut self) -> &mut TracerHandle {
        &mut self.tracer
    }

    /// Takes the tracer out (leaving `Nop`), e.g. to export a trace.
    pub fn take_tracer(&mut self) -> TracerHandle {
        std::mem::take(&mut self.tracer)
    }

    /// Number of packets with reassembly in flight at destination NIs
    /// (a head or body flit ejected, tail not yet seen).
    ///
    /// After a network has fully drained this must be zero; a nonzero
    /// value after [`Network::run_until_drained`] returns `Ok` would
    /// indicate a reassembly-map leak (an entry whose tail never ejects),
    /// which would otherwise grow silently.
    pub fn stuck_packets(&self) -> usize {
        self.reassembly.len()
            + self.sharding.as_ref().map_or(0, Sharding::stuck_packets)
    }

    /// Queues a packet for injection at its source NI.
    ///
    /// The packet is segmented into flits immediately; flits enter the
    /// network as the NI wins buffer space, at most
    /// [`NocConfig::ni_flits_per_cycle`] per cycle.
    ///
    /// # Errors
    ///
    /// Returns [`InjectError`] if the vnet or either node is out of range.
    pub fn inject(&mut self, spec: PacketSpec<P>) -> Result<PacketId, InjectError> {
        if spec.vnet >= self.cfg.vnets {
            return Err(InjectError::BadVnet(spec.vnet));
        }
        let n = self.mesh.node_count();
        if spec.src.index() >= n || spec.dst.index() >= n {
            return Err(InjectError::BadNode);
        }
        // Pool the payload before touching any other state: a typed
        // exhaustion error must leave the network exactly as it was.
        let payload = match self.pool.insert(spec.payload) {
            Ok(r) => r,
            Err(e) => return Err(InjectError::PayloadPoolExhausted { capacity: e.capacity }),
        };
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        self.injected_packets += 1;
        let nf = self.cfg.flits_for(spec.size_bytes);
        self.tracer.record_with(self.cycle, || EventKind::PacketInject {
            packet: id,
            src: spec.src.index() as u32,
            dst: spec.dst.index() as u32,
            vnet: spec.vnet,
            class: spec.class.code(),
            flits: nf as u32,
        });
        let src = spec.src.index();
        if nf > 0 {
            self.ni_backlogs[src] += nf as u64;
            self.ni_backlog_total += nf as u64;
            if !self.ni_flag[src] {
                self.ni_flag[src] = true;
                // Under sharded stepping the NI worklist lives in the
                // owning shard's lane; the wakeup edge is the same.
                match self.sharding.as_mut() {
                    Some(sh) => sh.push_ni_active(src),
                    None => self.ni_active.push(src),
                }
            }
        }
        let queue = &mut self.nis[src].queues[spec.vnet as usize];
        for i in 0..nf {
            let kind = match (i, nf) {
                (0, 1) => FlitKind::HeadTail,
                (0, _) => FlitKind::Head,
                (i, nf) if i == nf - 1 => FlitKind::Tail,
                _ => FlitKind::Body,
            };
            queue.push_back(Flit::new(
                self.next_flit_id,
                id,
                kind,
                spec.class,
                spec.vnet,
                spec.src,
                spec.dst,
                self.cycle,
                if kind.is_head() { payload } else { PayloadRef::NONE },
                spec.protected,
            ));
            self.next_flit_id += 1;
        }
        Ok(id)
    }

    /// Takes all packets delivered to `node` since the last drain.
    pub fn drain_ejected(&mut self, node: NodeId) -> Vec<Packet<P>> {
        let packets = std::mem::take(&mut self.ejected[node.index()]);
        self.ejected_count -= packets.len();
        packets
    }

    /// Moves all packets delivered to `node` into `out`, preserving the
    /// internal buffer's capacity — the allocation-free counterpart of
    /// [`Network::drain_ejected`] for steady-state delivery loops.
    pub fn drain_ejected_into(&mut self, node: NodeId, out: &mut Vec<Packet<P>>) {
        let queue = &mut self.ejected[node.index()];
        self.ejected_count -= queue.len();
        out.append(queue);
    }

    /// Whether any node currently has undrained delivered packets. O(1):
    /// maintained incrementally at ejection and drain.
    pub fn has_ejected(&self) -> bool {
        debug_assert_eq!(
            self.ejected_count,
            self.ejected.iter().map(Vec::len).sum::<usize>(),
            "incremental ejected-packet counter out of sync"
        );
        self.ejected_count > 0
    }

    /// Records `packet` as delivered at `node`, awaiting a drain.
    fn push_ejected(&mut self, node: usize, packet: Packet<P>) {
        self.ejected[node].push(packet);
        self.ejected_count += 1;
    }

    /// Packets injected but not yet fully delivered, excluding packets
    /// known to be lost (dropped by faults or discarded on protocol
    /// errors) — those can never drain and are tracked by
    /// [`Network::lost_packets`] instead.
    pub fn pending_packets(&self) -> u64 {
        self.injected_packets - self.delivered_packets - self.lost_packets
    }

    /// Total packets injected so far.
    pub fn injected_packets(&self) -> u64 {
        self.injected_packets
    }

    /// Total packets fully delivered so far.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Flits waiting in the injection queue of `node` (all vnets).
    /// O(1): maintained incrementally at inject/transfer time.
    pub fn ni_backlog(&self, node: NodeId) -> usize {
        debug_assert_eq!(
            self.ni_backlogs[node.index()],
            self.nis[node.index()].queues.iter().map(|q| q.len() as u64).sum::<u64>(),
            "incremental NI backlog counter out of sync"
        );
        self.ni_backlogs[node.index()] as usize
    }

    /// Network-wide NI injection backlog in flits, all nodes and vnets.
    /// O(1): maintained incrementally.
    pub fn total_ni_backlog(&self) -> u64 {
        debug_assert_eq!(
            self.ni_backlog_total,
            self.ni_backlogs.iter().sum::<u64>(),
            "incremental NI backlog total out of sync"
        );
        self.ni_backlog_total
    }

    /// Switches between serial stepping (the default) and the dense
    /// reference loop that walks every router, link and NI each cycle and
    /// never jumps the clock. Serial stepping visits only the components
    /// on its worklists and, whenever the network is provably quiescent,
    /// lets [`Network::step_until`] and [`Network::run`] jump the clock
    /// straight to the next wake event (DESIGN.md §12). Both modes are
    /// bit-identical — dense stepping exists as the verification oracle
    /// (`tests/determinism.rs`, `tests/properties.rs`) and as the
    /// denominator for the `snack-perf` speedup report. Safe to flip
    /// between cycles: both modes keep the worklists consistent.
    pub fn set_dense_stepping(&mut self, dense: bool) {
        self.dense = dense;
        if dense {
            // Dense stepping walks the serial worklists; fold any sharded
            // state back into them first.
            sharded::unshard(self);
        }
    }

    /// Whether the dense reference loop is active.
    pub fn dense_stepping(&self) -> bool {
        self.dense
    }

    /// Whether a [`Network::step`] right now would be a provable no-op
    /// apart from stats bookkeeping: no credits in flight (Phase 1), no
    /// occupied links (Phase 2), no NI injection backlog (Phase 3) and no
    /// router with buffered flits (Phase 4). While this holds, nothing in
    /// the network can change until either an external injection or a
    /// scheduled wake event.
    pub fn is_quiescent(&self) -> bool {
        self.pending_credits.is_empty()
            && self.occupied_links.is_empty()
            && self.ni_active.is_empty()
            && self.active.is_empty()
            && self.sharding.as_ref().is_none_or(Sharding::is_quiescent)
    }

    /// The next fault-plan window edge strictly after the current cycle,
    /// if any. Every window edge is a wake: a clock jump stops at each
    /// edge instead of silently crossing a window that opens and closes
    /// inside the jumped interval. Only meaningful while the network
    /// [is quiescent](Network::is_quiescent); an active network wakes
    /// every cycle by definition.
    pub fn next_wake(&self) -> Option<u64> {
        let edges = self.fault.as_ref()?.window_edges();
        edges.get(edges.partition_point(|&edge| edge <= self.cycle)).copied()
    }

    /// Jumps the clock directly to `cycle`, accounting for the skipped
    /// cycles as dead: bulk zero-occupancy samples, with sampling-window
    /// boundaries inside the jump split into their own series samples
    /// (see `NetStats::advance_idle`). The caller asserts that nothing
    /// can happen in between — the network must be quiescent and no wake
    /// event may be scheduled inside the open interval.
    ///
    /// # Panics
    ///
    /// Panics if the network is not quiescent or `cycle` is not ahead of
    /// the current cycle.
    pub fn advance_idle_to(&mut self, cycle: u64) {
        assert!(self.is_quiescent(), "clock jump while the network has work");
        assert!(cycle > self.cycle, "clock jump must move forward");
        debug_assert_eq!(self.buffered_total, 0, "quiescent network holds no flits");
        debug_assert_eq!(self.ni_backlog_total, 0, "quiescent network has no NI backlog");
        let delta = cycle - self.cycle;
        self.stats.advance_idle(self.cycle, delta, self.routers.len() as u64);
        self.cycle = cycle;
    }

    /// Advances the clock to exactly `target`, stepping active cycles one
    /// at a time and jumping over provably-dead stretches (landing on
    /// every scheduled wake event in between). In dense mode this is
    /// plain per-cycle stepping to `target`.
    pub fn step_until(&mut self, target: u64) {
        while self.cycle < target {
            if !self.dense && self.is_quiescent() {
                let to = self.next_wake().map_or(target, |w| w.min(target));
                if to > self.cycle {
                    self.advance_idle_to(to);
                    continue;
                }
            }
            if self.sharding.is_some() {
                // Amortize the thread-scope setup over the whole stretch.
                // The batch returns early once every shard is provably
                // quiescent, handing control back to the clock-jump
                // branch above.
                sharded::step_batch(self, target - self.cycle);
                continue;
            }
            self.step();
        }
    }

    /// Flits currently resident in router input buffers, network-wide.
    pub fn buffered_flits(&self) -> u64 {
        self.buffered_total
    }

    /// ALO-style congestion signal at `node`: `(useful_free, total)` output
    /// VCs that are unallocated and hold at least one credit
    /// (paper §III-C2).
    pub fn useful_free_output_vcs(&self, node: NodeId) -> (usize, usize) {
        self.routers[node.index()].useful_free_output_vcs()
    }

    /// Marks router `r` as having work next Phase 4 (idempotent).
    #[inline]
    fn mark_router(&mut self, r: usize) {
        if !self.work[r] {
            self.work[r] = true;
            self.active.push(r);
        }
    }

    /// Debug invariant: `occupied_links` lists exactly the filled slots.
    fn links_list_consistent(&self) -> bool {
        let filled = self.links.iter().filter(|l| l.slot.is_some()).count();
        filled == self.occupied_links.len()
            && self.occupied_links.iter().all(|&lid| self.links[lid].slot.is_some())
    }

    /// Advances the network by one cycle.
    ///
    /// The loop is **activity-driven**: each phase visits only the
    /// components that can make progress (worklists maintained by the
    /// previous phases), and **allocation-free in steady state** (every
    /// transient buffer is a reusable scratch). The dense reference loop
    /// ([`Network::set_dense_stepping`]) walks every component instead;
    /// the two are bit-identical because a skipped component is provably
    /// quiescent — see DESIGN.md §11 for the invariants and the wakeup
    /// edges.
    pub fn step(&mut self) {
        if self.sharding.is_some() {
            sharded::step_batch(self, 1);
            return;
        }
        self.cycle += 1;
        let cycle = self.cycle;

        // Phase 1: apply credit / VC-free signals sent last cycle. The
        // pending list ping-pongs with a scratch buffer: this cycle's
        // batch is processed out of `credits_scratch` while Phases 2/4
        // push next cycle's messages into the (empty, capacity-warm)
        // `pending_credits`.
        debug_assert!(self.credits_scratch.is_empty());
        std::mem::swap(&mut self.pending_credits, &mut self.credits_scratch);
        for i in 0..self.credits_scratch.len() {
            let msg = self.credits_scratch[i];
            let r = &mut self.routers[msg.router];
            r.return_credit(msg.port, msg.vc, self.cfg.buffers_per_vc);
            if msg.frees_vc {
                r.free_output_vc(msg.port, msg.vc);
            }
            // Wakeup edge: credit return can unblock a waiting flit.
            self.mark_router(msg.router);
        }
        self.credits_scratch.clear();

        // Phase 2: link traversal — deliver flits sent last cycle. Only
        // occupied links can deliver; ascending id order replays the
        // dense loop's iteration order exactly (fault decisions are
        // hash-derived per (link, packet), so they are order-independent
        // anyway).
        let cap = self.cfg.buffers_per_vc as usize;
        debug_assert!(self.links_list_consistent());
        if self.dense {
            for lid in 0..self.links.len() {
                if self.links[lid].slot.is_some() {
                    self.deliver_link(lid, cycle, cap);
                }
            }
            self.occupied_links.clear();
        } else {
            debug_assert!(self.links_scratch.is_empty());
            std::mem::swap(&mut self.occupied_links, &mut self.links_scratch);
            self.links_scratch.sort_unstable();
            for i in 0..self.links_scratch.len() {
                let lid = self.links_scratch[i];
                self.deliver_link(lid, cycle, cap);
            }
            self.links_scratch.clear();
        }

        // Phase 3: NI injection — only nodes with a queued flit can
        // inject. A node with an empty queue is a provable no-op in the
        // dense loop (no state, not even the vnet round-robin pointer,
        // changes), so skipping it is exact.
        if self.dense {
            self.ni_active.clear();
            for node in 0..self.nis.len() {
                let backlog = self.inject_from_ni(node, cycle);
                self.ni_flag[node] = backlog;
                if backlog {
                    self.ni_active.push(node);
                }
            }
        } else {
            debug_assert!(self.ni_scratch.is_empty());
            std::mem::swap(&mut self.ni_active, &mut self.ni_scratch);
            self.ni_scratch.sort_unstable();
            for i in 0..self.ni_scratch.len() {
                let node = self.ni_scratch[i];
                let backlog = self.inject_from_ni(node, cycle);
                self.ni_flag[node] = backlog;
                if backlog {
                    self.ni_active.push(node);
                }
            }
            self.ni_scratch.clear();
        }

        // Phase 4: router pipelines (RC, VA, SA/ST) + ejection, for the
        // worklist only. Both modes visit exactly the routers with
        // `work[r]` set, in ascending order, and leave `active` holding
        // the survivors (routers still buffering flits) in ascending
        // order for Phase 5. No same-phase wakeups exist: credits are
        // deferred to next Phase 1 and link fills to next Phase 2.
        let use_down = self.fault.as_ref().is_some_and(|f| f.has_down_windows());
        if self.dense {
            self.active.clear();
            for r in 0..self.routers.len() {
                if !self.work[r] {
                    continue;
                }
                let still = self.run_router(r, cycle, use_down);
                self.work[r] = still;
                if still {
                    self.active.push(r);
                }
            }
        } else {
            debug_assert!(self.active_scratch.is_empty());
            std::mem::swap(&mut self.active, &mut self.active_scratch);
            self.active_scratch.sort_unstable();
            for i in 0..self.active_scratch.len() {
                let r = self.active_scratch[i];
                debug_assert!(self.work[r], "worklist entry without its flag");
                let still = self.run_router(r, cycle, use_down);
                self.work[r] = still;
                if still {
                    self.active.push(r);
                }
            }
            self.active_scratch.clear();
        }

        // Phase 5: per-router input-buffer occupancy samples + window
        // roll. The paper's Fig. 3 measures buffer utilization per
        // router-cycle: localized contention shows up even when the
        // network as a whole is nearly empty. After Phase 4 the worklist
        // holds exactly the routers with buffered flits (ascending), so
        // the incremental path records the same nonzero samples in the
        // same order as the dense scan, then credits the zeros in one
        // batched call — identical `OccupancyCdf` updates.
        let per_router_capacity = self.buffer_capacity as f64 / self.routers.len() as f64;
        if self.dense {
            let mut zeros = 0u64;
            for r in &self.routers {
                let buffered = r.buffered_flits();
                if buffered == 0 {
                    zeros += 1;
                } else {
                    self.stats.occupancy.record(buffered as f64 / per_router_capacity);
                }
            }
            self.stats.occupancy.record_zeros(zeros);
        } else {
            let zeros = (self.routers.len() - self.active.len()) as u64;
            debug_assert_eq!(
                zeros,
                self.routers.iter().filter(|r| r.buffered_flits() == 0).count() as u64,
                "post-Phase-4 worklist must equal the set of occupied routers"
            );
            for i in 0..self.active.len() {
                let r = self.active[i];
                let buffered = self.routers[r].buffered_flits();
                debug_assert!(buffered > 0);
                self.stats.occupancy.record(buffered as f64 / per_router_capacity);
            }
            self.stats.occupancy.record_zeros(zeros);
        }
        self.stats.end_cycle(cycle);
    }

    /// Runs `cycles` steps (jumping dead stretches unless dense).
    pub fn run(&mut self, cycles: u64) {
        self.step_until(self.cycle + cycles);
    }

    /// Steps until every non-lost injected packet is delivered, up to
    /// `max_cycles`.
    ///
    /// # Errors
    ///
    /// Returns a [`StallReport`] describing the blocked state if packets
    /// remain undelivered when the cycle budget runs out.
    pub fn run_until_drained(&mut self, max_cycles: u64) -> Result<(), StallReport> {
        let deadline = self.cycle + max_cycles;
        while self.pending_packets() > 0 && self.cycle < deadline {
            self.step();
        }
        if self.pending_packets() == 0 {
            Ok(())
        } else {
            Err(self.stall_report())
        }
    }

    /// Snapshots why the network is (or would be) failing to drain:
    /// blocked routers, starved VCs and the age of the oldest in-flight
    /// flit. Cheap relative to simulation, but walks every buffer — call
    /// it on failure paths, not per cycle.
    pub fn stall_report(&self) -> StallReport {
        let mut blocked_routers = Vec::new();
        let mut starved_vcs = 0;
        let mut oldest: Option<u64> = None;
        for (i, r) in self.routers.iter().enumerate() {
            if r.buffered_flits() > 0 {
                blocked_routers.push(i);
            }
            starved_vcs += r.routed_waiting_vcs();
            if let Some(q) = r.oldest_buffered_queued_at() {
                oldest = Some(oldest.map_or(q, |o| o.min(q)));
            }
        }
        let ni_backlog = self.ni_backlog_total;
        debug_assert_eq!(
            ni_backlog,
            self.nis.iter().map(|ni| ni.queues.iter().map(std::collections::VecDeque::len).sum::<usize>() as u64).sum::<u64>(),
            "incremental NI backlog counter diverged from the queues"
        );
        for ni in &self.nis {
            for q in &ni.queues {
                if let Some(f) = q.front() {
                    oldest = Some(oldest.map_or(f.queued_at, |o| o.min(f.queued_at)));
                }
            }
        }
        StallReport {
            cycle: self.cycle,
            pending_packets: self.pending_packets(),
            lost_packets: self.lost_packets,
            buffered_flits: self.buffered_total,
            blocked_routers,
            starved_vcs,
            oldest_packet_age: oldest.map_or(0, |q| self.cycle.saturating_sub(q)),
            ni_backlog,
        }
    }

    /// Phase-2 link traversal for a single link, with the fault layer
    /// consulted per flit. Dropped flits synthesize their upstream credit
    /// so flow control stays live; corrupted head flits carry the mark to
    /// delivery. No-op if the link slot is empty, so calling it for every
    /// link (dense mode) or only occupied links (active mode) is identical.
    fn deliver_link(&mut self, lid: usize, cycle: u64, cap: usize) {
        let Some(mut flit) = self.links[lid].slot.take() else { return };
        let action = match self.fault.as_mut() {
            Some(f) => f.on_link_flit(lid, cycle, &flit),
            None => FaultAction::Deliver,
        };
        let to = self.links[lid].to_router;
        let in_port = self.links[lid].in_port;
        match action {
            FaultAction::Drop => {
                // The downstream buffer slot reserved for this flit is
                // never filled: return the credit (and the VC on a
                // tail) so the upstream router does not wedge.
                let upstream = self
                    .mesh
                    .neighbor(NodeId::new(to), in_port)
                    .expect("every link has an upstream router");
                self.pending_credits.push(CreditMsg {
                    router: upstream.index(),
                    port: in_port.opposite(),
                    vc: flit.vc(),
                    frees_vc: flit.kind().is_tail(),
                });
                if flit.kind().is_head() {
                    // The payload dies with its head flit.
                    self.pool.release(flit.payload);
                }
                if flit.kind().is_tail() {
                    self.lost_packets += 1;
                    // A partially-delivered wormhole (flits that crossed
                    // earlier links before the drop) may sit in the
                    // reassembly map; it can never complete, so retire
                    // it here rather than leak it.
                    if let Some(partial) = self.reassembly.remove(&flit.packet_id) {
                        if let Some(head) = partial.head {
                            self.pool.release(head.payload);
                        }
                    }
                }
            }
            FaultAction::DeliverCorrupted | FaultAction::Deliver => {
                if action == FaultAction::DeliverCorrupted {
                    flit.mark_corrupted();
                }
                self.routers[to].accept_flit(&self.mesh, &self.cfg, in_port, flit, cycle, cap);
                self.mark_router(to);
                self.buffered_total += 1;
            }
        }
    }

    /// Phase-3 NI injection for a single node: drains up to
    /// `ni_flits_per_cycle` flits into the local router, maintaining the
    /// incremental backlog counters and waking the router. Returns whether
    /// the node still has backlogged flits (i.e. should stay on the NI
    /// worklist). A node with empty queues is a pure no-op in the dense
    /// loop — no state (including the round-robin pointer) changes — so
    /// skipping it in active mode is exact.
    fn inject_from_ni(&mut self, node: usize, cycle: u64) -> bool {
        let vnets = self.cfg.vnets as usize;
        let k = self.cfg.vcs_per_vnet as usize;
        let cap = self.cfg.buffers_per_vc as usize;
        for _ in 0..self.cfg.ni_flits_per_cycle {
            let mut pushed = false;
            for step in 0..vnets {
                let v = (self.nis[node].rr + step) % vnets;
                let ni = &mut self.nis[node];
                let Some(front) = ni.queues[v].front() else { continue };
                let router = &self.routers[node];
                let vc = match ni.streaming[v] {
                    Some(vc) => {
                        debug_assert!(!front.kind().is_head());
                        if router.local_vc_accepts(vc as usize, false, cap) {
                            Some(vc)
                        } else {
                            None
                        }
                    }
                    None => {
                        debug_assert!(front.kind().is_head());
                        (v * k..(v + 1) * k)
                            .find(|&vc| router.local_vc_accepts(vc, true, cap))
                            .map(|vc| vc as u8)
                    }
                };
                let Some(vc) = vc else { continue };
                let ni = &mut self.nis[node];
                let mut flit = ni.queues[v].pop_front().expect("front checked above");
                flit.set_vc(vc);
                ni.streaming[v] = if flit.kind().is_tail() { None } else { Some(vc) };
                self.routers[node].accept_flit(&self.mesh, &self.cfg, Dir::Local, flit, cycle, cap);
                self.buffered_total += 1;
                self.ni_backlogs[node] -= 1;
                self.ni_backlog_total -= 1;
                self.stats.injected_flits += 1;
                self.mark_router(node);
                self.nis[node].rr = (v + 1) % vnets;
                pushed = true;
                break;
            }
            if !pushed {
                break;
            }
        }
        self.ni_backlogs[node] > 0
    }

    /// Phase-4 router pipeline for a single router: RC → VA → SA/ST,
    /// then departures are committed to links / ejection with credits
    /// returned upstream. Uses the per-network departure scratch buffer so
    /// steady-state cycles allocate nothing. Returns whether the router
    /// still buffers flits (i.e. must stay on the worklist).
    fn run_router(&mut self, r: usize, cycle: u64, use_down: bool) -> bool {
        let mut down = Router::NO_DOWN_PORTS;
        if use_down {
            if let Some(f) = &self.fault {
                for d in Dir::ROUTER_DIRS {
                    if let Some(lid) = self.link_of[r][d.index()] {
                        down[d.index()] = f.link_down(lid, cycle);
                    }
                }
            }
        }
        let mut departures = std::mem::take(&mut self.departures_scratch);
        debug_assert!(departures.is_empty());
        {
            // Route computation happened eagerly at head acceptance
            // (`Router::accept_flit`); the per-cycle pipeline starts at VA.
            let router = &mut self.routers[r];
            router.vc_allocate(&self.cfg, cycle, &mut self.tracer);
            router.switch_allocate_into(&self.cfg, cycle, &down, &mut departures);
        }
        if !departures.is_empty() {
            self.stats.record_router_cycle(r, true);
            self.stats.crossbar_transfers += departures.len() as u64;
        }
        for dep in departures.drain(..) {
            self.buffered_total -= 1;
            if dep.in_port != Dir::Local {
                let upstream = self
                    .mesh
                    .neighbor(NodeId::new(r), dep.in_port)
                    .expect("flit arrived from a connected port");
                self.pending_credits.push(CreditMsg {
                    router: upstream.index(),
                    port: dep.in_port.opposite(),
                    vc: dep.in_vc,
                    frees_vc: dep.was_tail,
                });
            }
            if dep.out_port == Dir::Local {
                self.eject(r, dep.flit, cycle);
            } else {
                let lid = self.link_of[r][dep.out_port.index()]
                    .expect("departure through a connected port");
                debug_assert!(self.links[lid].slot.is_none(), "link carries one flit per cycle");
                self.tracer.record_with(cycle, || EventKind::FlitHop {
                    router: r as u32,
                    out_port: dep.out_port.index() as u8,
                    flit: dep.flit.id,
                    packet: dep.flit.packet_id,
                });
                self.tracer.count_link(cycle, r as u32, dep.out_port.index() as u8);
                self.links[lid].slot = Some(dep.flit);
                self.occupied_links.push(lid);
                self.stats.record_link_cycle(lid, true);
            }
        }
        self.departures_scratch = departures;
        self.routers[r].buffered_flits() > 0
    }

    fn eject(&mut self, node: usize, flit: Flit, cycle: u64) {
        let pid = flit.packet_id;
        let is_tail = flit.kind().is_tail();
        let entry = self
            .reassembly
            .entry(pid)
            .or_insert(Partial { head: None, flits: 0, corrupted: false, dst: node });
        entry.flits += 1;
        entry.corrupted |= flit.corrupted();
        if flit.kind().is_head() {
            match &entry.head {
                Some(kept) => {
                    // Wormhole routing cannot legally deliver two heads
                    // for one packet id; count the protocol violation and
                    // keep the first head rather than abort. A true
                    // duplicate shares the kept head's ref (one pool
                    // insert per packet); free only a genuinely distinct
                    // orphaned slot.
                    self.stats.protocol_errors.duplicate_head += 1;
                    if kept.payload != flit.payload {
                        self.pool.release(flit.payload);
                    }
                }
                None => entry.head = Some(flit),
            }
        }
        if is_tail {
            // Wormhole routing ejects a packet's flits in order, so the
            // head is present by the time the tail arrives — unless a
            // protocol fault lost it, which is counted rather than fatal.
            let Some(partial) = self.reassembly.remove(&pid) else { return };
            let Some(head) = partial.head else {
                self.stats.protocol_errors.tail_without_head += 1;
                self.lost_packets += 1;
                return;
            };
            let Some(payload) = self.pool.take(head.payload) else {
                self.stats.protocol_errors.missing_payload += 1;
                self.lost_packets += 1;
                return;
            };
            let packet = Packet {
                id: head.packet_id,
                src: head.src(),
                dst: head.dst(),
                vnet: head.vnet(),
                class: head.class(),
                queued_at: head.queued_at,
                delivered_at: cycle,
                hops: head.hops(),
                corrupted: partial.corrupted || head.corrupted(),
                payload,
            };
            self.tracer.record_with(cycle, || EventKind::PacketEject {
                packet: packet.id,
                node: node as u32,
                latency: packet.latency(),
                hops: packet.hops,
                flits: partial.flits,
                class: packet.class.code(),
            });
            self.stats.record_delivery(packet.class, partial.flits, packet.latency());
            self.delivered_packets += 1;
            self.push_ejected(node, packet);
        }
    }

    /// Payloads currently pooled — equals the number of injected packets
    /// whose payload has not yet been delivered or destroyed. Zero after
    /// a full drain; a nonzero value then would be a pool leak.
    pub fn payload_pool_live(&self) -> usize {
        self.pool.live()
    }

    /// Maximum simultaneous in-flight payloads ever observed.
    pub fn payload_pool_high_water(&self) -> usize {
        self.pool.high_water()
    }

    /// Times the payload slab grew on demand. Constant across a stretch
    /// of stepping means the loaded steady state performs no payload
    /// allocations (see `tests/alloc.rs`).
    pub fn payload_pool_growth_events(&self) -> u64 {
        self.pool.growth_events()
    }

    /// Pre-grows the payload slab to `capacity` slots without counting
    /// growth events — warmup for allocation-free steady states.
    pub fn preallocate_payloads(&mut self, capacity: usize) {
        self.pool.preallocate(capacity);
    }

    /// Caps the payload pool at `max_slots`; [`Network::inject`] then
    /// fails with [`InjectError::PayloadPoolExhausted`] instead of
    /// growing past the cap.
    pub fn limit_payload_pool(&mut self, max_slots: usize) {
        self.pool.set_limit(max_slots);
    }

    /// Times any flit's hop counter saturated at `u32::MAX` instead of
    /// wrapping (network-wide; normally zero — a mesh path is far
    /// shorter, so a nonzero value flags a routing livelock).
    pub fn hops_saturations(&self) -> u64 {
        self.routers.iter().map(Router::hops_saturations).sum()
    }

    /// Switches between serial stepping (`shards == 0`, the default) and
    /// sharded stepping (DESIGN.md §13): the mesh is split into `shards`
    /// horizontal row bands, each stepped by its own worker thread, with
    /// per-cycle barrier synchronization and deterministic boundary-flit
    /// mailboxes. Bit-identical to every serial mode for any shard count —
    /// `tests/determinism.rs` and `tests/properties.rs` prove it against
    /// the dense oracle.
    ///
    /// The clock still jumps dead stretches, once *all* shards are
    /// quiescent. Sharding turns dense stepping off; enabling dense
    /// stepping folds the shards back.
    /// Sharded stepping records no tracer events (install
    /// [`TracerHandle::Nop`] semantics apply regardless of the handle).
    ///
    /// # Errors
    ///
    /// Returns [`ShardError`] if `shards` exceeds the mesh row count.
    pub fn set_sharding(&mut self, shards: usize) -> Result<(), ShardError> {
        if shards == self.sharding() {
            return Ok(());
        }
        if shards > self.mesh.rows() {
            return Err(ShardError::TooManyShards { shards, rows: self.mesh.rows() });
        }
        sharded::unshard(self);
        if shards > 0 {
            sharded::enshard(self, shards);
            self.dense = false;
        }
        Ok(())
    }

    /// The active shard (worker-thread) count; 0 when stepping serially.
    pub fn sharding(&self) -> usize {
        self.sharding.as_ref().map_or(0, |sh| sh.tiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::flit::TrafficClass;
    use crate::routing::hop_count;

    fn net(cfg: NocConfig) -> Network<u64> {
        Network::new(cfg).expect("valid config")
    }

    fn comm(src: NodeId, dst: NodeId, bytes: u32, tag: u64) -> PacketSpec<u64> {
        PacketSpec::new(src, dst, 0, TrafficClass::Communication, bytes, tag)
    }

    #[test]
    fn delivers_a_single_packet_with_correct_hops() {
        let mut n = net(NocConfig::binochs());
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 2);
        n.inject(comm(src, dst, 32, 7)).unwrap();
        assert!(n.run_until_drained(1_000).is_ok());
        let pkts = n.drain_ejected(dst);
        assert_eq!(pkts.len(), 1);
        let p = &pkts[0];
        assert_eq!(p.payload, 7);
        assert_eq!(p.hops as usize, hop_count(n.mesh(), src, dst));
        assert_eq!(p.src, src);
        assert!(p.latency() > 0);
    }

    #[test]
    fn per_hop_latency_scales_with_pipeline_depth() {
        // One single-flit packet across the full row; latency grows with
        // pipeline depth by (stages delta) × hops.
        let mut lat = Vec::new();
        for stages in [2u8, 3, 4] {
            let cfg = NocConfig::binochs().with_pipeline_stages(stages);
            let mut n = net(cfg);
            let src = n.mesh().node_at(0, 0);
            let dst = n.mesh().node_at(3, 0);
            n.inject(comm(src, dst, 32, 0)).unwrap();
            assert!(n.run_until_drained(1_000).is_ok());
            let p = n.drain_ejected(dst).remove(0);
            lat.push(p.latency());
        }
        // 3 network hops + ejection; each extra stage adds ~1 cycle per
        // router visited (4 routers on this path).
        assert!(lat[1] > lat[0] && lat[2] > lat[1], "latencies: {lat:?}");
        assert_eq!(lat[1] - lat[0], 4);
        assert_eq!(lat[2] - lat[1], 4);
    }

    #[test]
    fn multi_flit_packets_reassemble() {
        let cfg = NocConfig::dapper(); // 16 B channels
        let mut n = net(cfg);
        let src = n.mesh().node_at(0, 3);
        let dst = n.mesh().node_at(3, 0);
        n.inject(comm(src, dst, 64, 99)).unwrap(); // 4 flits
        assert!(n.run_until_drained(2_000).is_ok());
        let pkts = n.drain_ejected(dst);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].payload, 99);
        assert_eq!(n.stats().class(TrafficClass::Communication).flits, 4);
    }

    #[test]
    fn conservation_under_random_traffic() {
        use snacknoc_prng::Rng;
        let mut rng = Rng::new(42);
        let mut n = net(NocConfig::axnoc());
        let nodes = n.mesh().node_count();
        let mut sent = 0u64;
        for i in 0..400 {
            let src = NodeId::new(rng.range_usize(0..nodes));
            let dst = NodeId::new(rng.range_usize(0..nodes));
            let vnet = rng.range(0..3) as u8;
            let bytes = *rng.choose(&[16u32, 32, 64, 128]).unwrap();
            n.inject(PacketSpec::new(src, dst, vnet, TrafficClass::Communication, bytes, i))
                .unwrap();
            sent += 1;
            if i % 4 == 0 {
                n.step();
            }
        }
        assert!(n.run_until_drained(100_000).is_ok(), "network must drain");
        assert_eq!(n.delivered_packets(), sent);
        assert_eq!(n.stuck_packets(), 0, "no reassembly leaks after drain");
        let mut got = 0;
        for node in 0..nodes {
            got += n.drain_ejected(NodeId::new(node)).len();
        }
        assert_eq!(got as u64, sent, "every packet ejected exactly once");
    }

    #[test]
    fn self_addressed_packets_loop_back() {
        let mut n = net(NocConfig::binochs());
        let a = n.mesh().node_at(1, 1);
        n.inject(comm(a, a, 32, 5)).unwrap();
        assert!(n.run_until_drained(100).is_ok());
        let pkts = n.drain_ejected(a);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].hops, 0);
    }

    #[test]
    fn rejects_bad_specs() {
        let mut n = net(NocConfig::binochs());
        let a = n.mesh().node_at(0, 0);
        let bad = NodeId::new(999);
        assert_eq!(
            n.inject(PacketSpec::new(a, bad, 0, TrafficClass::Communication, 8, 0)),
            Err(InjectError::BadNode)
        );
        assert_eq!(
            n.inject(PacketSpec::new(a, a, 9, TrafficClass::Communication, 8, 0)),
            Err(InjectError::BadVnet(9))
        );
    }

    #[test]
    fn stats_accumulate_crossbar_and_link_usage() {
        let mut n = net(NocConfig::binochs().with_sample_window(100));
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 0);
        for i in 0..20 {
            n.inject(comm(src, dst, 32, i)).unwrap();
        }
        n.run(300);
        assert!(n.stats().crossbar_transfers > 0);
        assert!(n.stats().peak_crossbar_utilization() > 0.0);
        assert!(n.stats().peak_link_utilization() > 0.0);
        // One occupancy sample per router per cycle.
        assert_eq!(n.stats().occupancy.total_cycles(), 300 * 16);
    }

    #[test]
    fn vnets_isolate_head_of_line_blocking() {
        // Saturate vnet 0 towards a hotspot; a lone vnet-1 packet crossing
        // the same region must still get through quickly (separate VCs).
        let mut n = net(NocConfig::binochs());
        let hot = n.mesh().node_at(0, 0);
        for node in n.mesh().nodes().collect::<Vec<_>>() {
            for i in 0..30 {
                n.inject(comm(node, hot, 128, i)).unwrap();
            }
        }
        n.run(20); // let congestion build
        let src = n.mesh().node_at(3, 3);
        n.inject(PacketSpec::new(src, hot, 1, TrafficClass::Communication, 32, 9999))
            .unwrap();
        let injected_at = n.cycle();
        let mut arrival = None;
        for _ in 0..100_000 {
            n.step();
            for p in n.drain_ejected(hot) {
                if p.vnet == 1 {
                    arrival = Some(n.cycle());
                }
            }
            if arrival.is_some() {
                break;
            }
        }
        let lat = arrival.expect("vnet-1 packet delivered") - injected_at;
        // The vnet-0 backlog is hundreds of flits; the vnet-1 packet should
        // cross in a small multiple of its zero-load latency (it still
        // shares physical links, so allow generous slack).
        assert!(lat < 2_000, "vnet-1 latency {lat} under vnet-0 saturation");
        assert!(n.run_until_drained(200_000).is_ok());
    }

    #[test]
    fn yx_routing_delivers_everything_too() {
        use crate::routing::RoutingAlgorithm;
        let mut n = net(NocConfig::binochs().with_routing(RoutingAlgorithm::Yx));
        let nodes: Vec<_> = n.mesh().nodes().collect();
        for (i, &src) in nodes.iter().enumerate() {
            for (j, &dst) in nodes.iter().enumerate() {
                n.inject(comm(src, dst, 32, (i * 16 + j) as u64)).unwrap();
            }
        }
        assert!(n.run_until_drained(100_000).is_ok());
        let mut got = 0;
        for &node in &nodes {
            for p in n.drain_ejected(node) {
                assert_eq!(p.dst, node);
                assert_eq!(p.hops as usize, hop_count(n.mesh(), p.src, p.dst), "minimal route");
                got += 1;
            }
        }
        assert_eq!(got, 256);
    }

    #[test]
    fn latency_percentiles_are_monotone_under_load() {
        let mut n = net(NocConfig::dapper());
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 3);
        for i in 0..100 {
            n.inject(comm(src, dst, 64, i)).unwrap();
        }
        assert!(n.run_until_drained(100_000).is_ok());
        let c = n.stats().class(TrafficClass::Communication);
        assert_eq!(c.delivered, 100);
        let p50 = c.latency_percentile(50.0);
        let p99 = c.latency_percentile(99.0);
        assert!(p50 > 0 && p99 >= p50);
        assert!(c.latency_max as f64 >= c.mean_latency());
    }

    #[test]
    fn heavy_hotspot_traffic_eventually_drains() {
        // Everyone sends to one corner: worst-case contention.
        let mut n = net(NocConfig::binochs());
        let dst = n.mesh().node_at(0, 0);
        for node in n.mesh().nodes().collect::<Vec<_>>() {
            for i in 0..10 {
                n.inject(comm(node, dst, 64, i)).unwrap();
            }
        }
        assert!(n.run_until_drained(50_000).is_ok());
        assert_eq!(n.stuck_packets(), 0, "hotspot drain leaves no partial reassembly");
        assert_eq!(n.drain_ejected(dst).len(), 160);
    }

    #[test]
    fn stuck_packets_tracks_inflight_reassembly() {
        // A multi-flit packet is "stuck" between its head ejecting and its
        // tail ejecting; once drained the count must return to zero.
        let mut n = net(NocConfig::dapper()); // 16 B channels -> 8 flits
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 3);
        n.inject(comm(src, dst, 128, 1)).unwrap();
        let mut saw_partial = false;
        while n.pending_packets() > 0 && n.cycle() < 10_000 {
            n.step();
            if n.stuck_packets() > 0 {
                saw_partial = true;
            }
        }
        assert!(saw_partial, "reassembly must be observable mid-flight");
        assert_eq!(n.pending_packets(), 0);
        assert_eq!(n.stuck_packets(), 0, "tail ejection retires the entry");
    }

    #[test]
    fn short_run_reports_partial_window_stats_after_finalize() {
        // Regression: a run shorter than `sample_window` used to report
        // zero utilization samples (median silently 0.0).
        let mut n = net(NocConfig::binochs()); // default 10 K-cycle window
        // Traffic from every node so every router's crossbar moves flits.
        for (i, src) in n.mesh().nodes().collect::<Vec<_>>().into_iter().enumerate() {
            let (x, y) = n.mesh().coords(src);
            let dst = n.mesh().node_at(3 - x, 3 - y);
            n.inject(comm(src, dst, 64, i as u64)).unwrap();
        }
        assert!(n.run_until_drained(5_000).is_ok());
        assert!(n.cycle() < 10_000, "run stays under one sampling window");
        assert!(n.stats().crossbar_series(0).samples().is_empty(), "bug precondition");
        assert_eq!(n.stats().median_crossbar_utilization(), 0.0, "the silent zero");
        let stats = n.finalize_stats();
        for r in 0..stats.router_count() {
            assert_eq!(stats.crossbar_series(r).samples().len(), 1, "router {r}");
        }
        assert!(stats.median_crossbar_utilization() > 0.0, "partial window counted");
        assert!(stats.peak_crossbar_utilization() <= 1.0);
    }

    #[test]
    fn useful_free_vcs_drop_under_load() {
        let mut n = net(NocConfig::binochs());
        let probe = n.mesh().node_at(0, 0);
        let (free0, total) = n.useful_free_output_vcs(probe);
        assert_eq!(free0, total);
        // Saturate the corner.
        for node in n.mesh().nodes().collect::<Vec<_>>() {
            for i in 0..20 {
                n.inject(comm(node, probe, 128, i)).unwrap();
            }
        }
        n.run(50);
        let (free_loaded, _) = n.useful_free_output_vcs(probe);
        assert!(free_loaded <= free0);
        assert!(n.run_until_drained(100_000).is_ok());
    }

    #[test]
    fn ring_tracer_records_packet_lifecycle() {
        use snacknoc_trace::{ComponentClass, EventKind, TracerHandle};
        let mut n = net(NocConfig::binochs());
        n.set_tracer(TracerHandle::ring(4096));
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 2);
        n.inject(comm(src, dst, 32, 7)).unwrap();
        assert!(n.run_until_drained(1_000).is_ok());
        let expected_hops = hop_count(n.mesh(), src, dst) as u64;
        let tracer = n.take_tracer();
        let ring = tracer.as_ring().expect("ring tracer installed");
        let router_events = ring.events(ComponentClass::Router);
        let injects = router_events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PacketInject { .. }))
            .count();
        let vc_allocs = router_events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::VcAlloc { .. }))
            .count();
        let flit_hops = router_events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FlitHop { .. }))
            .count() as u64;
        let ejects: Vec<(u64, u32)> = router_events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::PacketEject { latency, hops, .. } => Some((latency, hops)),
                _ => None,
            })
            .collect();
        assert_eq!(injects, 1);
        assert_eq!(ejects.len(), 1);
        assert_eq!(u64::from(ejects[0].1), expected_hops, "eject carries the hop count");
        assert_eq!(flit_hops, expected_hops, "one flit_hop event per link traversal");
        // VA fires once per router visit plus the ejection grant.
        assert_eq!(vc_allocs as u64, expected_hops + 1);
        // The exact link-counter heatmap agrees with the event stream.
        let heat_total: u64 = ring.link_heatmap().iter().map(|(_, c)| *c).sum();
        assert_eq!(heat_total, expected_hops);
        assert_eq!(ring.dropped(ComponentClass::Router), 0);
    }

    #[test]
    fn nop_tracer_run_matches_untraced_run() {
        use snacknoc_trace::TracerHandle;
        let run = |set_nop: bool| {
            let mut n = net(NocConfig::axnoc());
            if set_nop {
                n.set_tracer(TracerHandle::Nop);
            }
            let nodes = n.mesh().node_count();
            use snacknoc_prng::Rng;
            let mut rng = Rng::new(11);
            for i in 0..200 {
                let src = NodeId::new(rng.range_usize(0..nodes));
                let dst = NodeId::new(rng.range_usize(0..nodes));
                n.inject(comm(src, dst, 64, i)).unwrap();
                if i % 3 == 0 {
                    n.step();
                }
            }
            n.run_until_drained(100_000).unwrap();
            (n.cycle(), n.delivered_packets(), n.stats().crossbar_transfers)
        };
        assert_eq!(run(false), run(true), "Nop tracer is observationally free");
    }

    // ---------------------------------------------------------------
    // Fault injection
    // ---------------------------------------------------------------

    use crate::fault::{FaultPlan, FaultTargets, LinkFaultKind};

    /// Targets communication traffic so the plain-payload tests above can
    /// keep using the default class.
    fn comm_targets() -> FaultTargets {
        FaultTargets { data: true, instructions: true, communication: true }
    }

    #[test]
    fn disabled_plan_changes_nothing() {
        let run = |plan: Option<FaultPlan>| {
            let mut n = net(NocConfig::dapper());
            if let Some(p) = plan {
                n.set_fault_plan(p).unwrap();
            }
            let nodes: Vec<_> = n.mesh().nodes().collect();
            for (i, &src) in nodes.iter().enumerate() {
                for (j, &dst) in nodes.iter().enumerate() {
                    n.inject(comm(src, dst, 64, (i * 16 + j) as u64)).unwrap();
                }
            }
            n.run_until_drained(200_000).unwrap();
            (n.cycle(), n.delivered_packets(), n.stats().crossbar_transfers)
        };
        assert_eq!(run(None), run(Some(FaultPlan::none())), "FaultPlan::none is zero-cost");
    }

    #[test]
    fn full_drop_window_loses_exactly_the_crossing_packets() {
        let mut n = net(NocConfig::binochs());
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 0);
        // Certain drop on the first east link, forever.
        n.set_fault_plan(
            FaultPlan::seeded(7)
                .with_targets(comm_targets())
                .with_link_fault(src, Dir::East, 0, u64::MAX, LinkFaultKind::Drop { rate: 1.0 }),
        )
        .unwrap();
        for i in 0..10 {
            n.inject(comm(src, dst, 64, i)).unwrap();
        }
        // Every packet must cross the dead link: all are lost, none hang.
        n.run_until_drained(100_000).unwrap();
        assert_eq!(n.lost_packets(), 10);
        assert_eq!(n.delivered_packets(), 0);
        assert_eq!(n.pending_packets(), 0, "lost packets do not count as pending");
        assert_eq!(n.buffered_flits(), 0, "credits were synthesized; nothing wedged");
        assert_eq!(n.stuck_packets(), 0);
        let c = n.fault_counters();
        assert_eq!(c.dropped_packets, 10);
        assert_eq!(c.injected, 10);
        assert!(c.dropped_flits >= 10);
        // Traffic not crossing the faulty link is untouched.
        let other = n.mesh().node_at(0, 2);
        n.inject(comm(other, n.mesh().node_at(3, 2), 64, 99)).unwrap();
        n.run_until_drained(10_000).unwrap();
        assert_eq!(n.delivered_packets(), 1);
    }

    #[test]
    fn down_window_delays_but_delivers() {
        let mk = |down: bool| {
            let mut n = net(NocConfig::binochs());
            if down {
                n.set_fault_plan(FaultPlan::seeded(1).with_link_fault(
                    n.mesh().node_at(0, 0),
                    Dir::East,
                    0,
                    500,
                    LinkFaultKind::Down,
                ))
                .unwrap();
            }
            let src = n.mesh().node_at(0, 0);
            let dst = n.mesh().node_at(3, 0);
            n.inject(comm(src, dst, 32, 5)).unwrap();
            n.run_until_drained(10_000).unwrap();
            let p = n.drain_ejected(dst).remove(0);
            assert_eq!(p.payload, 5);
            assert!(!p.corrupted);
            p.latency()
        };
        let clean = mk(false);
        let faulted = mk(true);
        assert!(
            faulted >= 500 && faulted > clean,
            "down window stalls the flit ({clean} vs {faulted})"
        );
    }

    #[test]
    fn corruption_delivers_with_the_mark() {
        let mut n = net(NocConfig::dapper());
        n.set_fault_plan(
            FaultPlan::seeded(3).with_corrupt_rate(1.0).with_targets(comm_targets()),
        )
        .unwrap();
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 3);
        n.inject(comm(src, dst, 64, 42)).unwrap();
        n.run_until_drained(10_000).unwrap();
        let p = n.drain_ejected(dst).remove(0);
        assert!(p.corrupted, "corruption mark survives reassembly");
        assert_eq!(p.payload, 42, "payload object itself is delivered");
        assert_eq!(n.fault_counters().corrupted_packets, 1);
        assert_eq!(n.lost_packets(), 0);
    }

    #[test]
    fn protected_packets_are_exempt_from_random_faults() {
        let mut n = net(NocConfig::binochs());
        n.set_fault_plan(FaultPlan::seeded(9).with_drop_rate(1.0).with_targets(comm_targets()))
            .unwrap();
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 3);
        n.inject(comm(src, dst, 64, 1).with_protected()).unwrap();
        n.inject(comm(src, dst, 64, 2)).unwrap();
        n.run_until_drained(10_000).unwrap();
        let pkts = n.drain_ejected(dst);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].payload, 1, "only the protected packet survives");
        assert_eq!(n.lost_packets(), 1);
    }

    #[test]
    fn stall_report_names_the_blockage() {
        let mut n = net(NocConfig::binochs());
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 0);
        // Permanently dead link on the only XY route: the packet wedges.
        n.set_fault_plan(FaultPlan::seeded(1).with_link_fault(
            src,
            Dir::East,
            0,
            u64::MAX,
            LinkFaultKind::Down,
        ))
        .unwrap();
        n.inject(comm(src, dst, 32, 1)).unwrap();
        let report = n.run_until_drained(2_000).unwrap_err();
        assert_eq!(report.pending_packets, 1);
        assert_eq!(report.blocked_routers, vec![src.index()]);
        assert!(report.buffered_flits > 0);
        assert!(report.oldest_packet_age > 1_000, "the flit aged the whole run");
        let text = report.to_string();
        assert!(text.contains("1 pending"), "display is informative: {text}");
        // The exhaustive-deadline path and the report accessor agree.
        assert_eq!(n.stall_report(), report);
    }

    #[test]
    fn fault_runs_replay_bit_identically() {
        let run = || {
            let mut n = net(NocConfig::axnoc());
            n.set_fault_plan(
                FaultPlan::seeded(1234)
                    .with_drop_rate(0.2)
                    .with_corrupt_rate(0.1)
                    .with_targets(comm_targets()),
            )
            .unwrap();
            let nodes = n.mesh().node_count();
            use snacknoc_prng::Rng;
            let mut rng = Rng::new(5);
            for i in 0..200 {
                let src = NodeId::new(rng.range_usize(0..nodes));
                let dst = NodeId::new(rng.range_usize(0..nodes));
                n.inject(comm(src, dst, 64, i)).unwrap();
                if i % 3 == 0 {
                    n.step();
                }
            }
            n.run_until_drained(100_000).unwrap();
            let mut log = Vec::new();
            for node in 0..nodes {
                for p in n.drain_ejected(NodeId::new(node)) {
                    log.push((p.payload, p.delivered_at, p.corrupted));
                }
            }
            (n.cycle(), n.fault_counters(), log)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "hash-derived fault decisions replay exactly");
        assert!(a.1.dropped_packets > 0 && a.1.corrupted_packets > 0, "faults actually fired");
    }

    // ---------------------------------------------------------------
    // Sharded stepping (DESIGN.md §13)
    // ---------------------------------------------------------------

    /// Everything observable about a finished run, for byte-identity
    /// comparisons across stepping modes.
    type RunFingerprint = (u64, u64, u64, u64, u64, u64, String, Vec<(u64, u64, bool)>);

    fn run_fingerprint(n: &mut Network<u64>) -> RunFingerprint {
        let nodes = n.mesh().node_count();
        let mut log = Vec::new();
        for node in 0..nodes {
            for p in n.drain_ejected(NodeId::new(node)) {
                log.push((p.payload, p.delivered_at, p.corrupted));
            }
        }
        let occupancy = format!(
            "{}/{}/{:.12}",
            n.stats().occupancy.total_cycles(),
            n.stats().occupancy.dropped_samples(),
            n.stats().occupancy.zero_fraction(),
        );
        (
            n.cycle(),
            n.delivered_packets(),
            n.lost_packets(),
            n.stats().crossbar_transfers,
            n.stats().injected_flits,
            n.fault_counters().dropped_flits,
            occupancy,
            log,
        )
    }

    /// Drains in batch-friendly chunks so sharded runs amortize the
    /// per-batch thread-scope setup.
    fn drain_in_chunks(n: &mut Network<u64>) {
        for _ in 0..2_000 {
            if n.pending_packets() == 0 {
                return;
            }
            let target = n.cycle() + 64;
            n.step_until(target);
        }
        panic!("network failed to drain: {}", n.stall_report());
    }

    fn faulted_random_run(shards: usize) -> RunFingerprint {
        let mut n = net(NocConfig::axnoc());
        if shards == 0 {
            n.set_dense_stepping(true);
        } else {
            n.set_sharding(shards).unwrap();
        }
        n.set_fault_plan(
            FaultPlan::seeded(1234)
                .with_drop_rate(0.2)
                .with_corrupt_rate(0.1)
                .with_targets(comm_targets()),
        )
        .unwrap();
        let nodes = n.mesh().node_count();
        use snacknoc_prng::Rng;
        let mut rng = Rng::new(5);
        for i in 0..200 {
            let src = NodeId::new(rng.range_usize(0..nodes));
            let dst = NodeId::new(rng.range_usize(0..nodes));
            n.inject(comm(src, dst, 64, i)).unwrap();
            if i % 3 == 0 {
                n.step();
            }
        }
        drain_in_chunks(&mut n);
        run_fingerprint(&mut n)
    }

    #[test]
    fn sharded_stepping_matches_the_dense_oracle() {
        let dense = faulted_random_run(0);
        for shards in [1, 2, 4] {
            assert_eq!(
                faulted_random_run(shards),
                dense,
                "{shards}-shard run must be byte-identical to dense"
            );
        }
        assert!(dense.2 > 0, "faults actually fired");
    }

    #[test]
    fn sharding_survives_mid_run_mode_flips() {
        let run = |flip: bool| {
            let mut n = net(NocConfig::binochs());
            let nodes: Vec<_> = n.mesh().nodes().collect();
            for (i, &src) in nodes.iter().enumerate() {
                for (j, &dst) in nodes.iter().enumerate() {
                    n.inject(comm(src, dst, 64, (i * 16 + j) as u64)).unwrap();
                }
            }
            // Flip serial → 2 shards → 3 shards → serial mid-flight: the
            // state migrations must be exact, not just the steady state.
            n.run(20);
            if flip {
                n.set_sharding(2).unwrap();
            }
            n.run(50);
            if flip {
                n.set_sharding(3).unwrap();
            }
            n.run(50);
            if flip {
                n.set_sharding(0).unwrap();
            }
            drain_in_chunks(&mut n);
            assert_eq!(n.sharding(), 0);
            run_fingerprint(&mut n)
        };
        assert_eq!(run(true), run(false), "mode flips are observationally free");
    }

    #[test]
    fn sharded_stepping_jumps_dead_cycles_identically() {
        let run = |shards: usize| {
            let mut n = net(NocConfig::binochs().with_sample_window(100));
            if shards > 0 {
                n.set_sharding(shards).unwrap();
            }
            let src = n.mesh().node_at(0, 0);
            let dst = n.mesh().node_at(3, 3);
            for i in 0..10 {
                n.inject(comm(src, dst, 64, i)).unwrap();
            }
            // Drain, then cross a long dead stretch: the sharded batch
            // must hand control back to the clock jump immediately.
            n.step_until(50_000);
            assert!(n.is_quiescent());
            run_fingerprint(&mut n)
        };
        let serial = run(0);
        assert_eq!(serial.0, 50_000, "the jump lands exactly on the target");
        for shards in [1, 2, 4] {
            assert_eq!(run(shards), serial, "{shards}-shard jumping run identical");
        }
    }

    #[test]
    fn set_sharding_rejects_impossible_tilings() {
        let mut n = net(NocConfig::binochs()); // 4 rows
        assert_eq!(
            n.set_sharding(5),
            Err(ShardError::TooManyShards { shards: 5, rows: 4 })
        );
        assert_eq!(n.sharding(), 0, "failed request leaves serial stepping");
        n.set_sharding(4).unwrap();
        assert_eq!(n.sharding(), 4);
        n.set_sharding(4).unwrap(); // idempotent
        assert_eq!(n.sharding(), 4);
        n.set_dense_stepping(true);
        assert_eq!(n.sharding(), 0, "dense stepping folds the shards back");
    }

    #[test]
    fn injection_wakes_sharded_nis() {
        let mut n = net(NocConfig::binochs());
        n.set_sharding(2).unwrap();
        let src = n.mesh().node_at(1, 3); // bottom band
        let dst = n.mesh().node_at(2, 0); // top band
        n.inject(comm(src, dst, 32, 77)).unwrap();
        drain_in_chunks(&mut n);
        let pkts = n.drain_ejected(dst);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].payload, 77);
        assert_eq!(n.stuck_packets(), 0);
    }
}
