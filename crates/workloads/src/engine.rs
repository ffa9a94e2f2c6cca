//! The closed-loop traffic engine: plays a [`BenchmarkProfile`] over a mesh,
//! producing packet injections and consuming deliveries.
//!
//! The engine is network-agnostic: callers pump it with [`TrafficEngine::tick`]
//! (appends the packets to inject this cycle to a caller-owned buffer) and
//! [`TrafficEngine::deliver`] (hand over every ejected communication packet).
//! This lets the same engine drive a plain NoC (Figs. 1–3) or share the NoC
//! with the SnackNoC platform (Figs. 11–13) without owning the network.

use crate::message::{CmpMessage, VNET_REQUEST, VNET_RESPONSE};
use crate::profile::{BenchmarkProfile, DestModel};
use snacknoc_noc::{Dir, Mesh, NodeId, PacketSpec, TrafficClass};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Service latency of a shared-L2 bank hit, in cycles.
pub const L2_SERVICE_LATENCY: u64 = 10;
/// Service latency of a memory-controller access, in cycles.
pub const MEM_SERVICE_LATENCY: u64 = 80;
/// Length of an on/off burst run, in *requests* (scale-invariant).
const BURST_RUN: u64 = 8;
/// Interval compression inside a burst.
const BURST_SPEEDUP: f64 = 4.0;

/// Marks a slot whose request is still in flight. Being `u64::MAX`, it
/// also reads as "never ready" in a minimum over ready times.
const IN_FLIGHT: u64 = u64::MAX;

/// Per-core issue state.
///
/// Each core owns `outstanding` *slots*; a slot's lifecycle is
/// issue → (network + service + network) → response → think → issue.
/// Because the think timer starts when the response arrives, application
/// runtime responds to NoC latency — the property the paper's Fig. 1
/// resource-starvation study and Figs. 12–13 interference studies measure.
#[derive(Clone, Debug)]
struct CoreState {
    node: NodeId,
    phase: usize,
    issued_in_phase: u64,
    completed: u64,
    /// Per-slot ready time ([`IN_FLIGHT`] while a request is outstanding).
    slots: Vec<u64>,
    next_req_id: u64,
}

/// A response scheduled to leave a service node at a future cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct PendingResponse {
    due: u64,
    /// Tie-break for deterministic heap ordering.
    seq: u64,
    from: NodeId,
    msg: CmpMessage,
}

impl Ord for PendingResponse {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

impl PartialOrd for PendingResponse {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Plays one benchmark profile on all cores of a mesh.
///
/// See the [module documentation](self) for the pumping protocol.
#[derive(Debug)]
pub struct TrafficEngine {
    profile: BenchmarkProfile,
    mesh: Mesh,
    mem_controllers: Vec<NodeId>,
    cores: Vec<CoreState>,
    responses: BinaryHeap<Reverse<PendingResponse>>,
    seed: u64,
    response_seq: u64,
    total_issued: u64,
    total_completed: u64,
    finished_at: Option<u64>,
    /// The earliest ready time over every slot of every core still in
    /// its phase program ([`IN_FLIGHT`] when there is none): no core can
    /// issue before it. A response lowers it in [`TrafficEngine::deliver`];
    /// a `tick` that reaches it issues and recomputes it. Must equal
    /// `scan_next_ready()`.
    next_ready: u64,
}

impl TrafficEngine {
    /// Creates an engine running `profile` on every node of `mesh`,
    /// deterministically seeded with `seed`.
    pub fn new(profile: BenchmarkProfile, mesh: Mesh, seed: u64) -> Self {
        // Stagger slot start-times so cores ramp in rather than firing a
        // synchronized burst at cycle zero.
        let stagger = profile
            .phases
            .first()
            .map(|p| (p.think_time / profile.outstanding as f64).ceil() as u64)
            .unwrap_or(1)
            .max(1);
        let cores = mesh
            .nodes()
            .map(|node| CoreState {
                node,
                phase: 0,
                issued_in_phase: 0,
                completed: 0,
                slots: (0..profile.outstanding).map(|i| i as u64 * stagger).collect(),
                next_req_id: 0,
            })
            .collect();
        let mut engine = TrafficEngine {
            mem_controllers: mesh.corner_nodes(),
            profile,
            mesh,
            cores,
            responses: BinaryHeap::new(),
            seed,
            response_seq: 0,
            total_issued: 0,
            total_completed: 0,
            finished_at: None,
            next_ready: IN_FLIGHT,
        };
        engine.next_ready = engine.scan_next_ready();
        engine
    }

    /// Whether every core has issued and received all its requests.
    pub fn done(&self) -> bool {
        self.finished_at.is_some()
    }

    /// The cycle at which the last response arrived (the benchmark's
    /// runtime), if finished.
    pub fn finished_at(&self) -> Option<u64> {
        self.finished_at
    }

    /// Requests issued so far across all cores.
    pub fn issued(&self) -> u64 {
        self.total_issued
    }

    /// Requests completed (response received) so far across all cores.
    pub fn completed(&self) -> u64 {
        self.total_completed
    }

    /// Total requests the whole run will issue.
    pub fn total_requests(&self) -> u64 {
        self.profile.requests_per_core() * self.mesh.node_count() as u64
    }

    /// Appends the packets to inject at `cycle` to `out`: due service
    /// responses and new core requests (at most one new request per core
    /// per cycle). Before the earliest ready slot, this costs one heap peek
    /// and one comparison however many cores there are.
    pub fn tick(&mut self, cycle: u64, out: &mut Vec<PacketSpec<CmpMessage>>) {
        // Due responses leave their service node.
        while let Some(Reverse(r)) = self.responses.peek() {
            if r.due > cycle {
                break;
            }
            let Reverse(r) = self.responses.pop().expect("peeked above");
            out.push(PacketSpec::new(
                r.from,
                r.msg.core(),
                VNET_RESPONSE,
                TrafficClass::Communication,
                r.msg.size_bytes(),
                r.msg,
            ));
        }
        if cycle < self.next_ready {
            debug_assert_eq!(self.next_ready, self.scan_next_ready(), "cached next-ready cycle");
            return;
        }
        // New requests; the same pass recomputes the earliest ready slot.
        let mut next = IN_FLIGHT;
        for c in 0..self.cores.len() {
            if let Some(spec) = self.try_issue(c, cycle) {
                out.push(spec);
            }
            next = next.min(self.core_next_ready(c));
        }
        self.next_ready = next;
    }

    /// The earliest cycle at which [`TrafficEngine::tick`] can produce a
    /// packet, or `None` if the engine is drained (every request issued and
    /// nothing in the service heap — only a delivery re-wakes it).
    ///
    /// Between now and the returned cycle, `tick` is a pure no-op: no
    /// response is due and no slot's think timer has expired, and neither
    /// changes without the passage of time or a delivery.
    pub fn next_event_cycle(&self) -> Option<u64> {
        debug_assert_eq!(self.next_ready, self.scan_next_ready(), "cached next-ready cycle");
        let due = self.responses.peek().map_or(IN_FLIGHT, |Reverse(r)| r.due);
        let next = due.min(self.next_ready);
        (next != IN_FLIGHT).then_some(next)
    }

    /// The earliest ready slot of core `c`, or [`IN_FLIGHT`] when the core
    /// has finished its phase program or every slot is in flight.
    fn core_next_ready(&self, c: usize) -> u64 {
        let core = &self.cores[c];
        if core.phase >= self.profile.phases.len() {
            return IN_FLIGHT;
        }
        core.slots.iter().copied().min().unwrap_or(IN_FLIGHT)
    }

    /// The cached `next_ready`, recomputed from scratch.
    fn scan_next_ready(&self) -> u64 {
        (0..self.cores.len()).map(|c| self.core_next_ready(c)).min().unwrap_or(IN_FLIGHT)
    }

    /// Hands the engine a delivered communication message.
    ///
    /// Requests arriving at a service node schedule a response; responses
    /// arriving at their core retire the transaction.
    pub fn deliver(&mut self, cycle: u64, at: NodeId, msg: CmpMessage) {
        if msg.is_request() {
            let latency = if self.mem_controllers.contains(&at) {
                MEM_SERVICE_LATENCY
            } else {
                L2_SERVICE_LATENCY
            };
            let resp = match msg {
                CmpMessage::ReadReq { core, req_id } => CmpMessage::ReadResp { core, req_id },
                CmpMessage::WriteReq { core, req_id } => CmpMessage::WriteAck { core, req_id },
                _ => unreachable!("is_request checked"),
            };
            self.response_seq += 1;
            self.responses.push(Reverse(PendingResponse {
                due: cycle + latency,
                seq: self.response_seq,
                from: at,
                msg: resp,
            }));
        } else {
            let c = msg.core().index();
            let req_id = match msg {
                CmpMessage::ReadResp { req_id, .. } | CmpMessage::WriteAck { req_id, .. } => req_id,
                _ => unreachable!("response kinds matched above"),
            };
            let slot = (req_id & 0xff) as usize;
            let think = self.sample_think(c, req_id >> 8);
            let in_program = self.cores[c].phase < self.profile.phases.len();
            let core = &mut self.cores[c];
            debug_assert_eq!(core.slots[slot], IN_FLIGHT, "response without outstanding request");
            core.slots[slot] = cycle + think;
            if in_program {
                self.next_ready = self.next_ready.min(cycle + think);
            }
            core.completed += 1;
            self.total_completed += 1;
            if self.total_completed == self.total_requests() && self.finished_at.is_none() {
                self.finished_at = Some(cycle);
            }
        }
    }

    /// A uniform [0, 1) draw for decision `salt` of request `k` on core `c`.
    fn unit(&self, c: usize, k: u64, salt: u64) -> f64 {
        crate::hashrand::unit(self.seed, c as u64, k, salt)
    }

    /// The think time after request `k` of core `c` completes, applying the
    /// scale-invariant burst modulation: bursty phases compress runs of
    /// [`BURST_RUN`] requests and stretch the gaps so the utilization
    /// time-series is spiky at any workload scale. Fully determined by
    /// `(seed, core, k)`, independent of delivery order.
    fn sample_think(&self, c: usize, k: u64) -> u64 {
        let core = &self.cores[c];
        let phase_idx = core.phase.min(self.profile.phases.len() - 1);
        let phase = self.profile.phases[phase_idx];
        let mut interval = phase.think_time;
        if phase.burstiness > 0.0 {
            let in_burst = self.unit(c, k / BURST_RUN, 4) < 0.5;
            if in_burst {
                interval = phase.think_time / BURST_SPEEDUP;
            } else {
                interval = phase.think_time * (1.0 + phase.burstiness * (BURST_SPEEDUP - 1.0));
            }
        }
        let exp: f64 = -(1.0 - self.unit(c, k, 3)).ln();
        (interval * exp).max(1.0) as u64
    }

    fn try_issue(&mut self, c: usize, cycle: u64) -> Option<PacketSpec<CmpMessage>> {
        let (phase, node, slot) = {
            let core = &self.cores[c];
            if core.phase >= self.profile.phases.len() {
                return None;
            }
            let slot = core
                .slots
                .iter()
                .position(|&ready| ready != IN_FLIGHT && ready <= cycle)?;
            (self.profile.phases[core.phase], core.node, slot)
        };
        let k = self.cores[c].next_req_id;
        let dst = self.sample_dest(c, k, node, phase.dest);
        let is_write = self.unit(c, k, 2) < phase.write_fraction;
        let core = &mut self.cores[c];
        // The slot index rides in the low byte of the request id so the
        // response can free the right slot (and recover the request index
        // for deterministic think-time sampling).
        let req_id = (k << 8) | slot as u64;
        core.next_req_id += 1;
        let msg = if is_write {
            CmpMessage::WriteReq { core: node, req_id }
        } else {
            CmpMessage::ReadReq { core: node, req_id }
        };
        core.slots[slot] = IN_FLIGHT;
        core.issued_in_phase += 1;
        self.total_issued += 1;
        if core.issued_in_phase >= phase.requests_per_core {
            core.phase += 1;
            core.issued_in_phase = 0;
        }
        Some(PacketSpec::new(
            node,
            dst,
            VNET_REQUEST,
            TrafficClass::Communication,
            msg.size_bytes(),
            msg,
        ))
    }

    fn sample_dest(&self, c: usize, k: u64, from: NodeId, model: DestModel) -> NodeId {
        match model {
            DestModel::L2Interleaved => {
                let u = self.unit(c, k, 1);
                NodeId::new((u * self.mesh.node_count() as f64) as usize)
            }
            DestModel::MemoryHotspot => {
                let u = self.unit(c, k, 5);
                self.mem_controllers[(u * self.mem_controllers.len() as f64) as usize]
            }
            DestModel::Mixed { mem_fraction } => {
                if self.unit(c, k, 6) < mem_fraction {
                    self.sample_dest(c, k, from, DestModel::MemoryHotspot)
                } else {
                    self.sample_dest(c, k, from, DestModel::L2Interleaved)
                }
            }
            DestModel::Neighbor => {
                let neighbors: Vec<NodeId> = Dir::ROUTER_DIRS
                    .iter()
                    .filter_map(|&d| self.mesh.neighbor(from, d))
                    .collect();
                let u = self.unit(c, k, 7);
                neighbors[(u * neighbors.len() as f64) as usize]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Phase;

    fn tiny_profile() -> BenchmarkProfile {
        BenchmarkProfile {
            name: "tiny",
            phases: vec![Phase::smooth(5, 10.0)],
            outstanding: 4,
        }
    }

    /// Pump the engine against a perfect zero-latency "network" that
    /// teleports packets: checks the closed loop itself terminates.
    #[test]
    fn closed_loop_terminates_on_ideal_network() {
        let mesh = Mesh::new(4, 4);
        let mut eng = TrafficEngine::new(tiny_profile(), mesh, 1);
        let mut cycle = 0;
        let mut specs = Vec::new();
        while !eng.done() && cycle < 100_000 {
            cycle += 1;
            eng.tick(cycle, &mut specs);
            for s in specs.drain(..) {
                eng.deliver(cycle, s.dst, s.payload);
            }
        }
        assert!(eng.done(), "engine must finish");
        assert_eq!(eng.completed(), 16 * 5);
        assert_eq!(eng.issued(), eng.completed());
        assert!(eng.finished_at().unwrap() > 0);
    }

    #[test]
    fn window_limits_outstanding() {
        let mesh = Mesh::new(2, 2);
        let profile = BenchmarkProfile {
            name: "w",
            phases: vec![Phase::smooth(100, 1.0)],
            outstanding: 2,
        };
        let mut eng = TrafficEngine::new(profile, mesh, 3);
        // Never deliver responses: issues must stall at the window.
        let mut total = 0;
        let mut specs = Vec::new();
        for cycle in 1..1_000 {
            specs.clear();
            eng.tick(cycle, &mut specs);
            total += specs.iter().filter(|s| s.payload.is_request()).count();
            // Requests delivered to the service node generate responses we
            // deliberately drop (they stay in the heap unread).
        }
        assert_eq!(total, 2 * 4, "each core stalls at 2 outstanding");
        assert!(!eng.done());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mesh = Mesh::new(4, 4);
        let run = |seed| {
            let mut eng = TrafficEngine::new(tiny_profile(), mesh, seed);
            let mut log = Vec::new();
            let mut specs = Vec::new();
            for cycle in 1..500 {
                eng.tick(cycle, &mut specs);
                for s in specs.drain(..) {
                    log.push((cycle, s.src.index(), s.dst.index()));
                    eng.deliver(cycle, s.dst, s.payload);
                }
            }
            log
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds give different traffic");
    }

    #[test]
    fn memory_hotspot_targets_corners() {
        let mesh = Mesh::new(4, 4);
        let profile = BenchmarkProfile {
            name: "hot",
            phases: vec![Phase::smooth(20, 5.0).with_dest(DestModel::MemoryHotspot)],
            outstanding: 8,
        };
        let mut eng = TrafficEngine::new(profile, mesh, 11);
        let corners = mesh.corner_nodes();
        let mut specs = Vec::new();
        for cycle in 1..5_000 {
            eng.tick(cycle, &mut specs);
            for s in specs.drain(..) {
                if s.payload.is_request() {
                    assert!(corners.contains(&s.dst));
                }
                eng.deliver(cycle, s.dst, s.payload);
            }
        }
        assert!(eng.done());
    }

    #[test]
    fn responses_wait_for_service_latency() {
        let mesh = Mesh::new(4, 4);
        let mut eng = TrafficEngine::new(tiny_profile(), mesh, 5);
        let core = mesh.node_at(0, 0);
        let l2 = mesh.node_at(1, 1);
        eng.deliver(100, l2, CmpMessage::ReadReq { core, req_id: 0 });
        // Response must not appear before the L2 service latency elapses.
        let mut early = Vec::new();
        eng.tick(100 + L2_SERVICE_LATENCY - 1, &mut early);
        assert!(early.iter().all(|s| s.payload.is_request()));
        let mut due = Vec::new();
        eng.tick(100 + L2_SERVICE_LATENCY, &mut due);
        assert!(due
            .iter()
            .any(|s| matches!(s.payload, CmpMessage::ReadResp { .. }) && s.src == l2));
    }

    /// The wake the engine reports, recomputed naively from every pending
    /// response and every slot of every core still in its phase program.
    fn naive_next_event(eng: &TrafficEngine) -> Option<u64> {
        let mut wakes: Vec<u64> = eng.responses.iter().map(|Reverse(r)| r.due).collect();
        for core in &eng.cores {
            if core.phase < eng.profile.phases.len() {
                wakes.extend(core.slots.iter().copied().filter(|&t| t != IN_FLIGHT));
            }
        }
        wakes.into_iter().min()
    }

    /// The cached next-ready cycle behind `next_event_cycle` matches a
    /// naive recomputation on every cycle of a multi-phase, multi-slot
    /// run: across phase changes, on the cycle the last phase ends (after
    /// which finished cores must stop counting), and until the run drains.
    #[test]
    fn next_event_cycle_matches_a_naive_scan_every_cycle() {
        let mesh = Mesh::new(4, 4);
        let profile = BenchmarkProfile {
            name: "phased",
            phases: vec![
                Phase::smooth(3, 30.0),
                Phase::smooth(2, 4.0).with_dest(DestModel::MemoryHotspot),
                Phase::smooth(4, 60.0).with_burstiness(0.5),
            ],
            outstanding: 3,
        };
        let mut eng = TrafficEngine::new(profile, mesh, 17);
        // A fixed 7-cycle "network" between tick and deliver.
        let mut in_flight: Vec<(u64, NodeId, CmpMessage)> = Vec::new();
        let mut specs = Vec::new();
        let mut last_phase_end = None;
        let mut cycle = 0;
        while !eng.done() {
            assert!(cycle < 200_000, "engine must finish");
            assert_eq!(eng.next_event_cycle(), naive_next_event(&eng), "before tick at {cycle}");
            eng.tick(cycle, &mut specs);
            for s in specs.drain(..) {
                in_flight.push((cycle + 7, s.dst, s.payload));
            }
            if last_phase_end.is_none() && eng.issued() == eng.total_requests() {
                last_phase_end = Some(cycle);
            }
            assert_eq!(eng.next_event_cycle(), naive_next_event(&eng), "after tick at {cycle}");
            cycle += 1;
            let (due, later): (Vec<_>, Vec<_>) =
                in_flight.into_iter().partition(|&(at, _, _)| at == cycle);
            in_flight = later;
            for (_, at, msg) in due {
                eng.deliver(cycle, at, msg);
            }
            assert_eq!(eng.next_event_cycle(), naive_next_event(&eng), "after deliver at {cycle}");
        }
        let end = last_phase_end.expect("every request was issued");
        assert!(end < cycle, "the last phase ended before the run drained");
        assert_eq!(eng.next_event_cycle(), None, "a finished engine never wakes");
    }
}
