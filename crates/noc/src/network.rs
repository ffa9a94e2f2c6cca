//! The whole-network simulator: routers, links, network interfaces,
//! packet segmentation/reassembly and the per-cycle evaluation loop.

use crate::config::{ConfigError, NocConfig, Stepping};
use crate::fault::{FaultCounters, FaultPlan, FaultPlanError, FaultState};
use crate::flit::{Flit, FlitKind};
use crate::packet::{Packet, PacketId, PacketSpec};
use crate::pool::{PayloadPool, PayloadRef};
use crate::router::Router;
use crate::stats::NetStats;
use crate::topology::{Mesh, NodeId};
use snacknoc_trace::{EventKind, TracerHandle};
use std::fmt;

mod cycle;
use cycle::{Core, PoolWork};

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
    /// Everything a cycle reads and writes except the payloads.
    core: Core,
    /// Slab storage for in-flight packet payloads; head flits carry only
    /// a [`PayloadRef`] (DESIGN.md §16). Inserts happen at injection,
    /// takes and releases when a step resolves the core's staged pool
    /// work.
    pool: PayloadPool<P>,
    ejected: Vec<Vec<Packet<P>>>,
    /// Packets in `ejected` not yet drained, so [`Network::has_ejected`]
    /// need not scan every node.
    ejected_count: usize,
    next_packet_id: PacketId,
    next_flit_id: u64,
    injected_packets: u64,
    delivered_packets: u64,
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

impl<P> Network<P> {
    /// Builds a network from a validated configuration, stepping in the
    /// mode [`NocConfig::stepping`] selects.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(cfg: NocConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let core = Core::new(cfg);
        let ejected = (0..core.mesh.node_count()).map(|_| Vec::new()).collect();
        Ok(Network {
            core,
            pool: PayloadPool::new(),
            ejected,
            ejected_count: 0,
            next_packet_id: 0,
            next_flit_id: 0,
            injected_packets: 0,
            delivered_packets: 0,
        })
    }

    /// Installs (or clears) a fault-injection plan.
    ///
    /// A disabled plan ([`FaultPlan::none`]) removes all fault state, so
    /// the per-cycle cost returns to exactly zero. Scheduled link faults
    /// are resolved against this network's link table up front. Either
    /// way the fault counters and the mid-packet drop memo start afresh.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError`] for invalid rates/windows or link
    /// faults that reference links absent from the mesh.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        if !plan.enabled() {
            plan.validate()?;
            self.core.fault = None;
            return Ok(());
        }
        for d in &plan.dead_rcus {
            if d.node.index() >= self.core.mesh.node_count() {
                return Err(FaultPlanError::BadNode { node: d.node });
            }
        }
        let link_of = &self.core.link_of;
        let state = FaultState::compile(plan, |node, dir| link_of[node.index()][dir.index()])?;
        self.core.fault = Some(state);
        Ok(())
    }

    /// The installed fault plan, if any faults are enabled.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.core.fault.as_ref().map(|f| f.plan())
    }

    /// What the fault layer did so far (all zeros when disabled).
    pub fn fault_counters(&self) -> FaultCounters {
        self.core.fault.as_ref().map_or_else(FaultCounters::default, FaultState::counters)
    }

    /// Packets destroyed by fault injection or protocol-error discard;
    /// they will never be delivered and are excluded from
    /// [`Network::pending_packets`].
    pub fn lost_packets(&self) -> u64 {
        self.core.lost
    }

    /// The mesh topology.
    pub fn mesh(&self) -> &Mesh {
        &self.core.mesh
    }

    /// The configuration this network was built with, stepping mode
    /// included.
    pub fn config(&self) -> &NocConfig {
        &self.core.cfg
    }

    /// The current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// Gathered statistics.
    pub fn stats(&self) -> &NetStats {
        &self.core.stats
    }

    /// Flushes the trailing partial sampling window (see
    /// [`NetStats::finalize`]) and returns the statistics. Runners call
    /// this once the workload completes so runs shorter than one sampling
    /// window still report utilization samples. Safe to call repeatedly
    /// and safe to keep stepping the network afterwards.
    pub fn finalize_stats(&mut self) -> &NetStats {
        self.core.stats.finalize(self.core.cycle);
        &self.core.stats
    }

    /// Installs a tracer; pass [`TracerHandle::Nop`] to disable tracing.
    ///
    /// With the default `Nop` handle the simulation is bit-identical to a
    /// build without tracing hooks: events are never constructed and no
    /// heap traffic occurs. With a [`snacknoc_trace::RingTracer`] the
    /// simulated behavior is unchanged — only observations are recorded.
    pub fn set_tracer(&mut self, tracer: TracerHandle) {
        self.core.tracer = tracer;
    }

    /// The installed tracer handle.
    pub fn tracer(&self) -> &TracerHandle {
        &self.core.tracer
    }

    /// Mutable access for instrumentation layered above the network
    /// (the SnackNoC platform records RCU/CPM events through this).
    pub fn tracer_mut(&mut self) -> &mut TracerHandle {
        &mut self.core.tracer
    }

    /// Takes the tracer out (leaving `Nop`), e.g. to export a trace.
    pub fn take_tracer(&mut self) -> TracerHandle {
        std::mem::take(&mut self.core.tracer)
    }

    /// Number of packets with reassembly in flight at destination NIs
    /// (a head or body flit ejected, tail not yet seen).
    ///
    /// After a network has fully drained this must be zero; a nonzero
    /// value after [`Network::run_until_drained`] returns `Ok` would
    /// indicate a reassembly-map leak (an entry whose tail never ejects),
    /// which would otherwise grow silently.
    pub fn stuck_packets(&self) -> usize {
        self.core.reassembly.len()
    }

    /// Queues a packet for injection at its source NI.
    ///
    /// The packet is segmented into flits immediately; flits enter the
    /// network as the NI wins buffer space, at most one per cycle.
    ///
    /// # Errors
    ///
    /// Returns [`InjectError`] if the vnet or either node is out of range.
    pub fn inject(&mut self, spec: PacketSpec<P>) -> Result<PacketId, InjectError> {
        if spec.vnet >= self.core.cfg.vnets {
            return Err(InjectError::BadVnet(spec.vnet));
        }
        let n = self.core.mesh.node_count();
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
        let nf = self.core.cfg.flits_for(spec.size_bytes);
        let cycle = self.core.cycle;
        self.core.tracer.record_with(cycle, || EventKind::PacketInject {
            packet: id,
            src: spec.src.index() as u32,
            dst: spec.dst.index() as u32,
            vnet: spec.vnet,
            class: spec.class.code(),
            flits: nf as u32,
        });
        // Every packet has at least one flit (`NocConfig::flits_for`).
        let queue = self.core.ni_queue(spec.src.index(), spec.vnet, nf as u64);
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
                cycle,
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

    /// Packets injected but not yet fully delivered, excluding packets
    /// known to be lost (dropped by faults or discarded on protocol
    /// errors) — those can never drain and are tracked by
    /// [`Network::lost_packets`] instead.
    pub fn pending_packets(&self) -> u64 {
        self.injected_packets - self.delivered_packets - self.lost_packets()
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
        let ni = &self.core.nis[node.index()];
        debug_assert_eq!(
            ni.backlog,
            ni.queues.iter().map(|q| q.len() as u64).sum::<u64>(),
            "incremental NI backlog counter out of sync"
        );
        ni.backlog as usize
    }

    /// Network-wide NI injection backlog in flits, all nodes and vnets.
    /// O(1): maintained incrementally.
    pub fn total_ni_backlog(&self) -> u64 {
        debug_assert_eq!(
            self.core.ni_backlog,
            self.core.nis.iter().map(|ni| ni.backlog).sum::<u64>(),
            "incremental NI backlog total out of sync"
        );
        self.core.ni_backlog
    }

    /// Whether a [`Network::step`] right now would be a provable no-op
    /// apart from stats bookkeeping: no credits in flight (Phase 1), no
    /// occupied links (Phase 2), no NI injection backlog (Phase 3) and no
    /// router with buffered flits (Phase 4). While this holds, nothing in
    /// the network can change until either an external injection or a
    /// scheduled wake event.
    pub fn is_quiescent(&self) -> bool {
        self.core.is_quiescent()
    }

    /// The next fault-plan window edge strictly after the current cycle,
    /// if any. Every window edge is a wake: a clock jump stops at each
    /// edge instead of silently crossing a window that opens and closes
    /// inside the jumped interval. Only meaningful while the network
    /// [is quiescent](Network::is_quiescent); an active network wakes
    /// every cycle by definition.
    pub fn next_wake(&self) -> Option<u64> {
        let edges = self.core.fault.as_ref()?.window_edges();
        edges.get(edges.partition_point(|&edge| edge <= self.core.cycle)).copied()
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
        assert!(cycle > self.core.cycle, "clock jump must move forward");
        debug_assert_eq!(self.buffered_flits(), 0, "quiescent network holds no flits");
        debug_assert_eq!(self.total_ni_backlog(), 0, "quiescent network has no NI backlog");
        let core = &mut self.core;
        core.stats.advance_idle(core.cycle, cycle - core.cycle, core.routers.len() as u64);
        core.cycle = cycle;
    }

    /// Advances the clock to exactly `target`, stepping active cycles and
    /// jumping over provably-dead stretches (landing on every scheduled
    /// wake event in between). Dense stepping steps every cycle to
    /// `target`.
    pub fn step_until(&mut self, target: u64) {
        let dense = self.core.cfg.stepping == Stepping::Dense;
        while self.core.cycle < target {
            if !dense && self.is_quiescent() {
                let to = self.next_wake().map_or(target, |w| w.min(target));
                if to > self.core.cycle {
                    self.advance_idle_to(to);
                    continue;
                }
            }
            self.step();
        }
    }

    /// Flits currently resident in router input buffers, network-wide.
    pub fn buffered_flits(&self) -> u64 {
        self.core.buffered
    }

    /// ALO-style congestion signal at `node`: `(useful_free, total)` output
    /// VCs that are unallocated and hold at least one credit
    /// (paper §III-C2).
    pub fn useful_free_output_vcs(&self, node: NodeId) -> (usize, usize) {
        self.core.routers[node.index()].useful_free_output_vcs()
    }

    /// Advances the network by one cycle.
    ///
    /// The loop is **activity-driven**: each phase visits only the
    /// components that can make progress (worklists maintained by the
    /// previous phases), and **allocation-free in steady state** (every
    /// transient buffer is a reusable scratch). Dense stepping
    /// ([`Stepping::Dense`]) scans every link, NI and router's occupancy
    /// instead of the worklists in Phases 2, 3 and 5; the two are
    /// bit-identical because a skipped component is provably quiescent —
    /// see DESIGN.md §11 for the invariants and the wakeup edges. After
    /// the phases, the payloads of packets the cycle delivered or
    /// destroyed are resolved against the pool, in the order it staged
    /// them.
    pub fn step(&mut self) {
        self.core.step();
        self.resolve_pool_work();
    }

    /// Delivers the packets the last cycle completed (or counts a missing
    /// payload) and releases destroyed heads' slots, in staging order.
    fn resolve_pool_work(&mut self) {
        for work in self.core.pool_work.drain(..) {
            let (node, delivered_at, flits, corrupted, head) = match work {
                PoolWork::Free(r) => {
                    self.pool.release(r);
                    continue;
                }
                PoolWork::Deliver { node, delivered_at, flits, corrupted, head } => {
                    (node, delivered_at, flits, corrupted, head)
                }
            };
            let Some(payload) = self.pool.take(head.payload) else {
                self.core.stats.protocol_errors.missing_payload += 1;
                self.core.lost += 1;
                continue;
            };
            let packet = Packet {
                id: head.packet_id,
                src: head.src(),
                dst: head.dst(),
                vnet: head.vnet(),
                class: head.class(),
                queued_at: head.queued_at,
                delivered_at,
                hops: head.hops(),
                corrupted,
                payload,
            };
            self.core.stats.record_delivery(packet.class, flits, packet.latency());
            self.delivered_packets += 1;
            self.ejected[node].push(packet);
            self.ejected_count += 1;
        }
    }

    /// Runs `cycles` steps (jumping dead stretches unless dense).
    pub fn run(&mut self, cycles: u64) {
        self.step_until(self.core.cycle + cycles);
    }

    /// Steps until every non-lost injected packet is delivered, up to
    /// `max_cycles`.
    ///
    /// # Errors
    ///
    /// Returns a [`StallReport`] describing the blocked state if packets
    /// remain undelivered when the cycle budget runs out.
    pub fn run_until_drained(&mut self, max_cycles: u64) -> Result<(), StallReport> {
        let deadline = self.core.cycle + max_cycles;
        while self.pending_packets() > 0 && self.core.cycle < deadline {
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
        for (i, r) in self.core.routers.iter().enumerate() {
            if r.buffered_flits() > 0 {
                blocked_routers.push(i);
            }
            starved_vcs += r.routed_waiting_vcs();
            if let Some(q) = r.oldest_buffered_queued_at() {
                oldest = Some(oldest.map_or(q, |o| o.min(q)));
            }
        }
        for ni in &self.core.nis {
            for q in &ni.queues {
                if let Some(f) = q.front() {
                    oldest = Some(oldest.map_or(f.queued_at, |o| o.min(f.queued_at)));
                }
            }
        }
        let cycle = self.core.cycle;
        StallReport {
            cycle,
            pending_packets: self.pending_packets(),
            lost_packets: self.lost_packets(),
            buffered_flits: self.buffered_flits(),
            blocked_routers,
            starved_vcs,
            oldest_packet_age: oldest.map_or(0, |q| cycle.saturating_sub(q)),
            ni_backlog: self.total_ni_backlog(),
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
        self.core.routers.iter().map(Router::hops_saturations).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::TrafficClass;
    use crate::routing::{hop_count, Dir};

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
    // Stepping modes (DESIGN.md §11–§12)
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

    /// Drains in `step_until` chunks, so serial runs jump where they can.
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

    fn faulted_random_run(stepping: Stepping) -> RunFingerprint {
        let mut n = net(NocConfig::axnoc().with_stepping(stepping));
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
    fn serial_stepping_matches_the_dense_oracle() {
        let dense = faulted_random_run(Stepping::Dense);
        assert_eq!(
            faulted_random_run(Stepping::Serial),
            dense,
            "serial run must be byte-identical to dense"
        );
        assert!(dense.2 > 0, "faults actually fired");
    }

    #[test]
    fn serial_stepping_jumps_dead_cycles_identically() {
        let run = |stepping: Stepping| {
            let mut n = net(NocConfig::binochs().with_sample_window(100).with_stepping(stepping));
            let src = n.mesh().node_at(0, 0);
            let dst = n.mesh().node_at(3, 3);
            for i in 0..10 {
                n.inject(comm(src, dst, 64, i)).unwrap();
            }
            // Drain, then cross a long dead stretch: serial stepping jumps
            // it, dense stepping walks every cycle.
            n.step_until(50_000);
            assert!(n.is_quiescent());
            run_fingerprint(&mut n)
        };
        let serial = run(Stepping::Serial);
        assert_eq!(serial.0, 50_000, "the jump lands exactly on the target");
        assert_eq!(run(Stepping::Dense), serial, "jumping run identical to the dense walk");
    }
}
