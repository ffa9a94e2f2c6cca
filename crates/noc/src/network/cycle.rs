//! The network cycle (DESIGN.md §11): [`Core`], which owns every piece of
//! per-cycle state, and each phase of
//! [`Network::step`](super::Network::step) written once as one of its
//! methods.
//!
//! ## Cycle structure
//!
//! ```text
//! Ph1 credits sent last cycle, in send order
//! Ph2 links: flits sent last cycle, ascending link id
//! Ph3 NI injection, ascending node
//! Ph4 routers (VA, SA/ST, ejection), ascending router
//! Ph5 occupancy samples, then the sampling-window roll
//! ```
//!
//! Phases 2–5 walk [`BitSet`] worklists in ascending index order, the
//! order the dense full scans visit. Dense stepping scans every link, NI
//! and router in Phases 2, 3 and 5 instead and is the oracle the
//! worklists are checked against; Phase 4 walks the router set in every
//! mode.
//!
//! The core is not generic over the payload type, so the phases compile
//! (and inline) once, in this crate. The payload work they produce —
//! deliveries and destroyed heads — is staged in order and resolved
//! against the [`Network`](super::Network)'s pool after the cycle.

use crate::bitset::BitSet;
use crate::config::{NocConfig, Stepping};
use crate::fault::{FaultAction, FaultState};
use crate::flit::{Flit, FlitKind};
use crate::packet::PacketId;
use crate::pool::PayloadRef;
use crate::router::{Departure, Router, RouterTables};
use crate::routing::Dir;
use crate::stats::NetStats;
use crate::topology::Mesh;
use snacknoc_trace::{EventKind, TracerHandle};
use std::collections::{HashMap, VecDeque};

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
pub(super) struct NetIf {
    /// Per-vnet queues of pre-segmented flits.
    pub(super) queues: Vec<VecDeque<Flit>>,
    /// Per-vnet: the Local input VC currently receiving a packet's flits.
    streaming: Vec<Option<u8>>,
    /// Round-robin pointer over vnets.
    rr: usize,
    /// Flits queued across all vnets, kept incrementally.
    pub(super) backlog: u64,
}

/// Reassembly state for one in-flight packet at its destination NI.
#[derive(Debug, Default)]
pub(super) struct Partial {
    head: Option<Flit>,
    flits: u64,
    corrupted: bool,
}

/// Payload-pool work a cycle stages for the [`Network`](super::Network),
/// which owns the pool.
/// Resolved in the order staged.
#[derive(Debug)]
pub(super) enum PoolWork {
    /// A packet whose tail ejected at `node`, identified by its head.
    Deliver { node: usize, delivered_at: u64, flits: u64, corrupted: bool, head: Flit },
    /// A payload whose head flit was destroyed.
    Free(PayloadRef),
}

/// Debug cross-check of a worklist against a fresh scan: `set` holds
/// exactly the indices below `len` that `member` picks.
fn same_members(set: &BitSet, len: usize, member: impl Fn(usize) -> bool) -> bool {
    (0..len).all(|i| set.contains(i) == member(i))
}

/// The whole network apart from its payloads: routers, NIs and links,
/// the worklists that say which of them can act, reassembly, live counts,
/// fault state, statistics, the tracer and the clock.
#[derive(Debug)]
pub(super) struct Core {
    pub(super) cfg: NocConfig,
    pub(super) mesh: Mesh,
    pub(super) routers: Vec<Router>,
    pub(super) nis: Vec<NetIf>,
    links: Vec<Link>,
    /// `link_of[router][dir]` = outgoing link id.
    pub(super) link_of: Vec<[Option<usize>; 4]>,
    /// `upstream[router][dir]` = the neighbour a flit arriving through
    /// port `dir` came from, where credits for it return; `u32::MAX` at
    /// a mesh edge.
    upstream: Vec<[u32; 4]>,
    /// Routers that can make progress next Phase 4.
    active: BitSet,
    /// Backlogged nodes whose NI may inject next Phase 3.
    ni_active: BitSet,
    /// Backlogged nodes whose NI found no Local VC for any vnet's front
    /// flit; they wait for a Local departure or a new packet.
    ni_waiting: BitSet,
    /// Links whose slot is occupied.
    occupied_links: BitSet,
    /// Credits applied next Phase 1.
    pending_credits: Vec<CreditMsg>,
    /// Phase-4 scratch for one router's departures.
    departures: Vec<Departure>,
    /// Packets with some flits ejected and the tail not yet seen.
    pub(super) reassembly: HashMap<PacketId, Partial>,
    /// Deliveries and frees staged for the pool, in order.
    pub(super) pool_work: Vec<PoolWork>,
    /// Flits resident in router input buffers.
    pub(super) buffered: u64,
    /// Flits queued at NIs.
    pub(super) ni_backlog: u64,
    /// Packets lost to fault drops or protocol errors.
    pub(super) lost: u64,
    /// Input-buffer slots per router, the denominator of Phase 5's
    /// occupancy samples.
    per_router_capacity: f64,
    /// Fault-injection state; `None` (the default) keeps every hot path
    /// byte-identical to a fault-free build.
    pub(super) fault: Option<FaultState>,
    pub(super) stats: NetStats,
    /// Structured event tracer; [`TracerHandle::Nop`] (the default) keeps
    /// every hook a single discriminant branch with no event construction.
    pub(super) tracer: TracerHandle,
    pub(super) cycle: u64,
}

impl Core {
    /// Builds the routers, NIs and links of a validated configuration.
    pub(super) fn new(cfg: NocConfig) -> Self {
        let mesh = Mesh::new(cfg.cols, cfg.rows);
        let n = mesh.node_count();
        let tables = RouterTables::new(&cfg, &mesh);
        let routers = mesh.nodes().map(|node| Router::new(&cfg, &mesh, node, &tables)).collect();
        let mut links = Vec::new();
        let mut link_of = vec![[None; 4]; n];
        let mut upstream = vec![[u32::MAX; 4]; n];
        for node in mesh.nodes() {
            for d in Dir::ROUTER_DIRS {
                if let Some(nb) = mesh.neighbor(node, d) {
                    link_of[node.index()][d.index()] = Some(links.len());
                    upstream[node.index()][d.index()] = nb.index() as u32;
                    links.push(Link { to_router: nb.index(), in_port: d.opposite(), slot: None });
                }
            }
        }
        let nis = (0..n)
            .map(|_| NetIf {
                queues: (0..cfg.vnets).map(|_| VecDeque::new()).collect(),
                streaming: vec![None; cfg.vnets as usize],
                rr: 0,
                backlog: 0,
            })
            .collect();
        let per_router_capacity = (Dir::COUNT * cfg.vcs_per_port()) as f64
            * f64::from(cfg.buffers_per_vc);
        let stats = NetStats::new(n, links.len(), cfg.sample_window);
        Core {
            routers,
            nis,
            active: BitSet::new(n),
            ni_active: BitSet::new(n),
            ni_waiting: BitSet::new(n),
            occupied_links: BitSet::new(links.len()),
            links,
            link_of,
            upstream,
            pending_credits: Vec::new(),
            departures: Vec::new(),
            reassembly: HashMap::new(),
            pool_work: Vec::new(),
            buffered: 0,
            ni_backlog: 0,
            lost: 0,
            per_router_capacity,
            fault: None,
            stats,
            tracer: TracerHandle::Nop,
            cycle: 0,
            cfg,
            mesh,
        }
    }

    fn dense(&self) -> bool {
        self.cfg.stepping == Stepping::Dense
    }

    /// Whether a step could change anything but stats: no credits in
    /// flight, occupied links, NI backlog or buffered flits.
    pub(super) fn is_quiescent(&self) -> bool {
        self.pending_credits.is_empty()
            && self.occupied_links.is_empty()
            && self.ni_active.is_empty()
            && self.ni_waiting.is_empty()
            && self.active.is_empty()
    }

    /// The router a credit for a flit that arrived at router `r` through
    /// port `in_port` returns to.
    fn upstream(&self, r: usize, in_port: Dir) -> usize {
        let up = self.upstream[r][in_port.index()];
        debug_assert!(up != u32::MAX, "a flit arrived through an unconnected port");
        up as usize
    }

    /// Accounts `flits` about to be queued at `node`'s NI and returns its
    /// `vnet` queue. This is the NI-enqueue wakeup edge (DESIGN.md §11):
    /// a waiting NI may now have a new front flit.
    pub(super) fn ni_queue(&mut self, node: usize, vnet: u8, flits: u64) -> &mut VecDeque<Flit> {
        self.ni_backlog += flits;
        self.ni_waiting.remove(node);
        self.ni_active.insert(node);
        let ni = &mut self.nis[node];
        ni.backlog += flits;
        &mut ni.queues[usize::from(vnet)]
    }

    /// Advances one cycle: the five phases in order, then the stats
    /// window bookkeeping. Pool work stays staged for the caller.
    pub(super) fn step(&mut self) {
        self.cycle += 1;
        let cycle = self.cycle;
        self.credits();
        self.links(cycle);
        self.inject(cycle);
        self.routers(cycle);
        self.occupancy();
        self.stats.end_cycle(cycle);
    }

    /// Phase 1: credits sent last cycle. Each `(router, port, vc)`
    /// receives independent increments, so send order is a canonical
    /// choice, not a constraint. Credits are only sent in Phases 2 and 4.
    fn credits(&mut self) {
        for msg in self.pending_credits.drain(..) {
            let r = &mut self.routers[msg.router];
            r.return_credit(msg.port, msg.vc, self.cfg.buffers_per_vc);
            if msg.frees_vc {
                r.free_output_vc(msg.port, msg.vc);
            }
            // Wakeup edge: credit return can unblock a waiting flit.
            self.active.insert(msg.router);
        }
    }

    /// Phase 2: link traversal, delivering flits sent last cycle in
    /// ascending link order (dense stepping scans every slot instead).
    /// Links only fill in Phase 4, so every slot ends this phase empty.
    fn links(&mut self, cycle: u64) {
        let filled = |l: usize| self.links[l].slot.is_some();
        debug_assert!(same_members(&self.occupied_links, self.links.len(), filled));
        let dense = self.dense();
        let mut at = 0;
        loop {
            let next = if dense {
                (at..self.links.len()).find(|&l| self.links[l].slot.is_some())
            } else {
                self.occupied_links.next_from(at)
            };
            let Some(lid) = next else { break };
            at = lid + 1;
            let link = &mut self.links[lid];
            let flit = link.slot.take().expect("occupied link holds a flit");
            let (to, in_port) = (link.to_router, link.in_port);
            self.deliver(lid, to, in_port, flit, cycle);
        }
        self.occupied_links.clear();
    }

    /// Delivers one flit off link `lid` into router `to`, consulting the
    /// fault layer. A dropped flit synthesizes its upstream credit so flow
    /// control stays live; a corrupted one carries the mark to delivery.
    fn deliver(&mut self, lid: usize, to: usize, in_port: Dir, mut flit: Flit, cycle: u64) {
        let action = match &mut self.fault {
            Some(f) => f.on_link_flit(lid, cycle, &flit),
            None => FaultAction::Deliver,
        };
        if action == FaultAction::Drop {
            // The downstream buffer slot reserved for this flit is never
            // filled: return the credit (and the VC on a tail) so the
            // upstream router does not wedge.
            self.pending_credits.push(CreditMsg {
                router: self.upstream(to, in_port),
                port: in_port.opposite(),
                vc: flit.vc(),
                frees_vc: flit.kind().is_tail(),
            });
            if flit.kind().is_head() {
                // The payload dies with its head flit.
                self.pool_work.push(PoolWork::Free(flit.payload));
            }
            if flit.kind().is_tail() {
                self.lost += 1;
                // Flits that crossed earlier links before the drop may sit
                // in a partial reassembly that can never complete; its
                // head still owns the payload slot.
                if let Some(head) = self.reassembly.remove(&flit.packet_id).and_then(|p| p.head) {
                    self.pool_work.push(PoolWork::Free(head.payload));
                }
            }
            return;
        }
        if action == FaultAction::DeliverCorrupted {
            flit.mark_corrupted();
        }
        let cap = self.cfg.buffers_per_vc as usize;
        self.routers[to].accept_flit(in_port, flit, cycle, cap);
        self.active.insert(to);
        self.buffered += 1;
    }

    /// Phase 3: NI injection for the backlogged nodes that are not
    /// waiting, ascending (dense stepping visits every NI). A node with
    /// empty queues is a pure no-op, round-robin pointer included, and so
    /// is a waiting one: until a Local departure at its router or a new
    /// packet, no vnet's front flit can find a Local VC. So skipping
    /// either is exact.
    fn inject(&mut self, cycle: u64) {
        let ready = |n: usize| self.nis[n].backlog > 0 && !self.ni_waiting.contains(n);
        debug_assert!(same_members(&self.ni_active, self.nis.len(), ready));
        let stuck = |n: usize| self.nis[n].backlog > 0 && self.ni_pick(n).is_none();
        debug_assert!(self.ni_waiting.iter().all(stuck), "a waiting NI could inject");
        let dense = self.dense();
        let mut at = 0;
        loop {
            let next = if dense {
                (at < self.nis.len()).then_some(at)
            } else {
                self.ni_active.next_from(at)
            };
            let Some(node) = next else { break };
            at = node + 1;
            match self.ni_pick(node) {
                Some((v, vc)) => self.inject_flit(node, v, vc, cycle),
                None if self.nis[node].backlog > 0 => {
                    self.ni_active.remove(node);
                    self.ni_waiting.insert(node);
                }
                None => {}
            }
        }
    }

    /// The vnet whose front flit NI `node` would inject now, trying the
    /// vnets round-robin, and the Local input VC it would take.
    fn ni_pick(&self, node: usize) -> Option<(usize, u8)> {
        let vnets = self.cfg.vnets as usize;
        let k = self.cfg.vcs_per_vnet as usize;
        let cap = self.cfg.buffers_per_vc as usize;
        let (ni, router) = (&self.nis[node], &self.routers[node]);
        if ni.backlog == 0 {
            return None;
        }
        let mut v = ni.rr;
        for _ in 0..vnets {
            if let Some(front) = ni.queues[v].front() {
                let vc = match ni.streaming[v] {
                    Some(vc) => {
                        debug_assert!(!front.kind().is_head());
                        router.local_vc_accepts(vc as usize, false, cap).then_some(vc)
                    }
                    None => {
                        debug_assert!(front.kind().is_head());
                        (v * k..(v + 1) * k)
                            .find(|&vc| router.local_vc_accepts(vc, true, cap))
                            .map(|vc| vc as u8)
                    }
                };
                if let Some(vc) = vc {
                    return Some((v, vc));
                }
            }
            v += 1;
            if v == vnets {
                v = 0;
            }
        }
        None
    }

    /// Moves the front flit of NI `node`'s vnet `v` into Local input VC
    /// `vc` of its router, and takes it off the NI worklist once the
    /// backlog empties.
    fn inject_flit(&mut self, node: usize, v: usize, vc: u8, cycle: u64) {
        let vnets = self.cfg.vnets as usize;
        let cap = self.cfg.buffers_per_vc as usize;
        let ni = &mut self.nis[node];
        let mut flit = ni.queues[v].pop_front().expect("the picked vnet has a front flit");
        flit.set_vc(vc);
        ni.streaming[v] = if flit.kind().is_tail() { None } else { Some(vc) };
        ni.backlog -= 1;
        ni.rr = if v + 1 == vnets { 0 } else { v + 1 };
        if ni.backlog == 0 {
            self.ni_active.remove(node);
        }
        self.routers[node].accept_flit(Dir::Local, flit, cycle, cap);
        self.buffered += 1;
        self.ni_backlog -= 1;
        self.stats.injected_flits += 1;
        self.active.insert(node);
    }

    /// Phase 4: router pipelines (VA, SA/ST) plus ejection for routers
    /// with work, ascending, leaving `active` holding the survivors (the
    /// routers still buffering flits) for Phase 5. No same-phase wakeups
    /// exist: credits wait for next Phase 1 and link fills for next
    /// Phase 2, so the walk only removes the router it just ran.
    fn routers(&mut self, cycle: u64) {
        let mut at = 0;
        while let Some(r) = self.active.next_from(at) {
            at = r + 1;
            if !self.run_router(r, cycle) {
                self.active.remove(r);
            }
        }
    }

    /// One router's pipeline: VA, then SA/ST, then its departures
    /// committed to links or ejection with credits returned upstream.
    /// Returns whether the router still buffers flits.
    fn run_router(&mut self, r: usize, cycle: u64) -> bool {
        let mut down = Router::NO_DOWN_PORTS;
        if let Some(f) = self.fault.as_ref().filter(|f| f.has_down_windows()) {
            for d in Dir::ROUTER_DIRS {
                if let Some(lid) = self.link_of[r][d.index()] {
                    down[d.index()] = f.link_down(lid, cycle);
                }
            }
        }
        let mut departures = std::mem::take(&mut self.departures);
        debug_assert!(departures.is_empty());
        // Route computation happened eagerly at head acceptance
        // (`Router::accept_flit`); the per-cycle pipeline starts at VA.
        let router = &mut self.routers[r];
        router.vc_allocate(&self.cfg, cycle, &mut self.tracer);
        router.switch_allocate_into(&self.cfg, cycle, &down, &mut departures);
        if !departures.is_empty() {
            self.stats.record_router_cycle(r, true);
            self.stats.crossbar_transfers += departures.len() as u64;
        }
        for dep in departures.drain(..) {
            self.buffered -= 1;
            if dep.in_port == Dir::Local {
                // Wakeup edge: a Local departure frees buffer space or a
                // VC that the node's waiting NI may take.
                if self.ni_waiting.remove(r) {
                    self.ni_active.insert(r);
                }
            } else {
                self.pending_credits.push(CreditMsg {
                    router: self.upstream(r, dep.in_port),
                    port: dep.in_port.opposite(),
                    vc: dep.in_vc,
                    frees_vc: dep.was_tail,
                });
            }
            let flit = self.routers[r].departed(&dep);
            if dep.out_port == Dir::Local {
                let flit = *flit;
                self.eject(r, flit, cycle);
                continue;
            }
            let lid =
                self.link_of[r][dep.out_port.index()].expect("departure through a connected port");
            self.tracer.record_with(cycle, || EventKind::FlitHop {
                router: r as u32,
                out_port: dep.out_port.index() as u8,
                flit: flit.id,
                packet: flit.packet_id,
            });
            self.tracer.count_link(cycle, r as u32, dep.out_port.index() as u8);
            self.stats.record_link_cycle(lid, true);
            let slot = &mut self.links[lid].slot;
            debug_assert!(slot.is_none(), "link carries one flit per cycle");
            *slot = Some(*flit);
            self.occupied_links.insert(lid);
        }
        self.departures = departures;
        self.routers[r].buffered_flits() > 0
    }

    /// Ejects one flit at `node` into its packet's reassembly. A completed
    /// packet is traced here and staged for payload resolution. A
    /// single-flit packet ejecting while no reassembly is pending cannot
    /// meet a partial of its own, so it is staged directly.
    fn eject(&mut self, node: usize, flit: Flit, cycle: u64) {
        if flit.kind() == FlitKind::HeadTail && self.reassembly.is_empty() {
            self.deliver_packet(node, flit, 1, flit.corrupted(), cycle);
            return;
        }
        let pid = flit.packet_id;
        let entry = self.reassembly.entry(pid).or_default();
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
                        self.pool_work.push(PoolWork::Free(flit.payload));
                    }
                }
                None => entry.head = Some(flit),
            }
        }
        if !flit.kind().is_tail() {
            return;
        }
        // Wormhole routing ejects a packet's flits in order, so the head
        // is present by the time the tail arrives — unless a protocol
        // fault lost it, which is counted rather than fatal.
        let Some(partial) = self.reassembly.remove(&pid) else {
            return;
        };
        let Some(head) = partial.head else {
            self.stats.protocol_errors.tail_without_head += 1;
            self.lost += 1;
            return;
        };
        let corrupted = partial.corrupted || head.corrupted();
        self.deliver_packet(node, head, partial.flits, corrupted, cycle);
    }

    /// Traces a packet whose tail ejected at `node` and stages its
    /// delivery.
    fn deliver_packet(&mut self, node: usize, head: Flit, flits: u64, corrupted: bool, cycle: u64) {
        self.tracer.record_with(cycle, || EventKind::PacketEject {
            packet: head.packet_id,
            node: node as u32,
            latency: cycle.saturating_sub(head.queued_at),
            hops: head.hops(),
            flits,
            class: head.class().code(),
        });
        self.pool_work.push(PoolWork::Deliver { node, delivered_at: cycle, flits, corrupted, head });
    }

    /// Phase 5: per-router input-buffer occupancy samples (the paper's
    /// Fig. 3 measures them per router-cycle). After Phase 4 the worklist
    /// holds exactly the routers with buffered flits, so it records the
    /// same nonzero samples as a full scan, then credits the zeros in one
    /// batched call.
    fn occupancy(&mut self) {
        let occupied = |r: usize| self.routers[r].buffered_flits() > 0;
        debug_assert!(
            same_members(&self.active, self.routers.len(), occupied),
            "post-Phase-4 worklist must equal the set of occupied routers"
        );
        let dense = self.dense();
        let capacity = self.per_router_capacity;
        let occupancy = &mut self.stats.occupancy;
        let mut zeros = self.routers.len() as u64;
        let mut record = |buffered: usize| {
            occupancy.record(buffered as f64 / capacity);
            zeros -= 1;
        };
        if dense {
            self.routers
                .iter()
                .map(Router::buffered_flits)
                .filter(|&b| b > 0)
                .for_each(&mut record);
        } else {
            for r in self.active.iter() {
                record(self.routers[r].buffered_flits());
            }
        }
        occupancy.record_zeros(zeros);
    }
}
