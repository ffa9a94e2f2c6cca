//! The network cycle (DESIGN.md §11, §13): every phase of
//! [`Network::step`] written once, as methods of a *view* — one shard's
//! slices of the routers, NIs and links plus its [`Lane`] — and the two
//! drivers that run views.
//!
//! ## Views and lanes
//!
//! Serial and dense stepping are one view over the whole mesh. Sharded
//! stepping tiles the mesh into horizontal row bands
//! ([`Mesh::row_bands`]). Row-major node numbering makes every band a
//! contiguous node range, and links are built per source node in the same
//! order, so each view owns contiguous `split_at_mut` slices of all
//! per-node and per-link state. A view touches only its own slices and
//! its own lane: the worklists (band-relative [`BitSet`]s, walked in
//! ascending index order), reassembly map, fault memo and counters, and
//! the payload-pool work it stages for the calling thread.
//!
//! ## Boundary exchange
//!
//! Band boundaries only cut north-south links. A flit departing across a
//! boundary cannot be written into the reader's link slot (the writer
//! owns the link by source, the reader delivers it), so it travels
//! through a mailbox cell instead, carrying `(link, to_router, in_port)`
//! captured at send time. Credits and drop-retirements cross the same
//! way. Each `(from, to)` shard pair has its own single-buffered cell;
//! the phase order below makes every cell strictly write-then-read within
//! a cycle. A one-view network has no cells, so none of its phases locks.
//!
//! ## Cycle structure and determinism
//!
//! ```text
//! Ph1 credits (own, then mail in sender order)        | barrier
//! Ph2 links   (own ascending, then mail by link id)
//! Ph3 NI injection (own nodes ascending)              | barrier
//! Ph4 retire mail, then routers (own ascending)
//! Ph5 occupancy samples + window rolls                | barrier
//! quiescence vote (threaded batches only)             | barrier
//! ```
//!
//! Two drivers run this protocol. [`Network::step`] runs every view on
//! the calling thread, phase by phase in view order: one legal schedule
//! of the barrier protocol, and for a single view exactly the serial
//! loop. [`Network::step_until`] on a sharded network runs its stretches
//! on one scoped worker thread per view, with real barriers and a
//! quiescence vote that hands dead stretches back to the clock jump.
//!
//! Every schedule gives the same result because every cross-shard
//! interaction commutes: fault verdicts hash `(seed, link, packet)`;
//! credits are unique per `(router, port, vc)` per cycle; flits landing
//! in distinct `(port, vc)` queues are independent; ejection is confined
//! to one node; and all stats deltas are sums, maxima or bucket counts.
//! `tests/determinism.rs` and `tests/properties.rs` prove fingerprints
//! equal to the dense oracle for every shard count.
//!
//! Sharded stepping records no tracer events (its views get a
//! [`TracerHandle::Nop`]); install a tracer on serial or dense networks.

use super::*;
use crate::bitset::BitSet;
use crate::stats::{Tally, TallyDelta, WindowSeries};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

/// A flit crossing a shard boundary, with the link metadata the reader
/// would otherwise have to fetch from the writer's `Link` entry.
#[derive(Debug)]
struct BoundaryFlit {
    lid: usize,
    to: usize,
    in_port: Dir,
    flit: Flit,
}

/// One directed mailbox cell between a `(from, to)` shard pair.
///
/// Single-buffered: the phase/barrier structure guarantees each message
/// kind is fully written before its reader drains it (credits and flits
/// written one cycle, read the next; retirements written in Phase 2, read
/// before the same cycle's Phase 4).
#[derive(Debug, Default)]
pub(super) struct MailCell {
    credits: Vec<CreditMsg>,
    flits: Vec<BoundaryFlit>,
    retire: Vec<PacketId>,
}

impl MailCell {
    pub(super) fn is_empty(&self) -> bool {
        self.credits.is_empty() && self.flits.is_empty() && self.retire.is_empty()
    }
}

/// Payload-pool work a view stages for the calling thread, which owns
/// the pool. Resolved in the order staged, lane by lane.
#[derive(Debug)]
enum PoolWork {
    /// A packet whose tail ejected at `node`, identified by its head.
    Deliver { node: usize, delivered_at: u64, flits: u64, corrupted: bool, head: Flit },
    /// A payload whose head flit was destroyed.
    Free(PayloadRef),
}

/// One view's private half of the network: the worklists, reassembly
/// map and fault memo restricted to the routers, links and NIs the view
/// owns, plus live counts the network sums across lanes on demand. The
/// worklists hold indices relative to the view's first node or link.
#[derive(Debug, Default)]
pub(super) struct Lane {
    /// Routers that can make progress next Phase 4.
    active: BitSet,
    /// Nodes with a nonzero NI backlog.
    pub(super) ni_active: BitSet,
    /// Own links whose slot is occupied.
    occupied_links: BitSet,
    /// Credits for own routers, applied next Phase 1.
    pending_credits: Vec<CreditMsg>,
    /// Phase-4 scratch for one router's departures.
    departures: Vec<Departure>,
    /// Scratch for draining boundary-flit mail without holding the cell
    /// lock across delivery (delivery may lock *other* cells to send drop
    /// credits; holding two cells at once could deadlock).
    inbox: Vec<BoundaryFlit>,
    /// Reassembly entries whose destination node this view owns.
    pub(super) reassembly: HashMap<PacketId, Partial>,
    /// Mid-packet drop memo for the links this view delivers.
    pub(super) dropping: HashSet<(usize, PacketId)>,
    /// Deliveries and frees staged for the calling thread, in order.
    pool_work: Vec<PoolWork>,
    /// Flits resident in own router input buffers.
    pub(super) buffered: u64,
    /// Flits queued at own NIs.
    pub(super) ni_backlog: u64,
    /// Packets lost to fault drops or protocol errors.
    pub(super) lost: u64,
    /// Fault events on the links this view delivers.
    pub(super) fault: FaultCounters,
}

impl Lane {
    pub(super) fn new(nodes: usize, links: usize) -> Self {
        Lane {
            active: BitSet::new(nodes),
            ni_active: BitSet::new(nodes),
            occupied_links: BitSet::new(links),
            ..Lane::default()
        }
    }

    /// Whether a step could change anything this lane owns: no credits in
    /// flight, occupied links, NI backlog or buffered flits.
    pub(super) fn is_idle(&self) -> bool {
        self.pending_credits.is_empty()
            && self.occupied_links.is_empty()
            && self.ni_active.is_empty()
            && self.active.is_empty()
    }

    /// Retires a dropped packet's partial reassembly; its head still owns
    /// the payload slot.
    fn retire(&mut self, pid: PacketId) {
        if let Some(head) = self.reassembly.remove(&pid).and_then(|p| p.head) {
            self.pool_work.push(PoolWork::Free(head.payload));
        }
    }
}

/// Locks a mailbox cell, ignoring poison: cells hold plain data and every
/// access re-establishes its own invariants, so a panicked peer thread
/// must not wedge the teardown path too.
pub(super) fn lock<T>(cell: &Mutex<T>) -> MutexGuard<'_, T> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which shard a monotone bounds table assigns `index` to.
pub(super) fn shard_of(bounds: &[usize], index: usize) -> usize {
    debug_assert!(bounds.len() >= 2 && index < bounds[bounds.len() - 1]);
    bounds.partition_point(|&b| b <= index) - 1
}

/// Debug cross-check of a worklist against a fresh scan: `set` holds
/// exactly the indices below `len` that `member` picks.
fn same_members(set: &BitSet, len: usize, member: impl Fn(usize) -> bool) -> bool {
    (0..len).all(|i| set.contains(i) == member(i))
}

/// Splits `slice` into the consecutive bands `bounds` delimits (a
/// monotone table from 0 to `slice.len()`).
fn bands<'a, T>(mut slice: &'a mut [T], bounds: &'a [usize]) -> impl Iterator<Item = &'a mut [T]> {
    bounds.windows(2).map(move |w| {
        let (band, rest) = std::mem::take(&mut slice).split_at_mut(w[1] - w[0]);
        slice = rest;
        band
    })
}

/// What every view of one network reads for a cycle or a batch.
struct Shared<'a> {
    cfg: &'a NocConfig,
    mesh: &'a Mesh,
    link_of: &'a [[Option<usize>; 4]],
    fault: Option<&'a FaultState>,
    mail: &'a [Mutex<MailCell>],
    node_bounds: &'a [usize],
    tiles: usize,
    dense: bool,
    use_down: bool,
    per_router_capacity: f64,
}

impl Shared<'_> {
    /// Every shard but `tile`, ascending.
    fn peers(&self, tile: usize) -> impl Iterator<Item = usize> {
        (0..self.tiles).filter(move |&t| t != tile)
    }

    fn cell(&self, from: usize, to: usize) -> MutexGuard<'_, MailCell> {
        lock(&self.mail[from * self.tiles + to])
    }
}

/// The network's per-node and per-link state with its lanes, borrowed
/// whole, before it is cut into views.
struct Parts<'a> {
    routers: &'a mut [Router],
    nis: &'a mut [NetIf],
    links: &'a mut [Link],
    xbar: &'a mut [WindowSeries],
    linkser: &'a mut [WindowSeries],
    lanes: &'a mut [Lane],
    node_bounds: &'a [usize],
    link_bounds: &'a [usize],
}

impl<'a> Parts<'a> {
    /// The single view over the whole mesh of a one-lane network.
    fn whole(self) -> View<'a> {
        let [lane] = self.lanes else { panic!("a whole-mesh view needs exactly one lane") };
        View {
            tile: 0,
            node_start: 0,
            links_base: 0,
            routers: self.routers,
            nis: self.nis,
            links: self.links,
            xbar: self.xbar,
            linkser: self.linkser,
            lane,
        }
    }

    /// Runs one cycle over every view on the calling thread, in
    /// barrier-phase order. Not generic over the payload type, so the
    /// phases compile (and inline) once, in this crate.
    fn run_inline(
        self,
        sh: &Shared<'_>,
        mut tally: Tally<'_>,
        tracer: &mut TracerHandle,
        cycle: u64,
    ) {
        if sh.tiles == 1 {
            let mut view = self.whole();
            run_cycle(std::slice::from_mut(&mut view), sh, &mut tally, tracer, cycle, || {});
        } else {
            let mut views: Vec<View<'_>> = self.views().collect();
            run_cycle(&mut views, sh, &mut tally, &mut TracerHandle::Nop, cycle, || {});
        }
    }

    /// One view per lane, over its band of nodes and links.
    fn views(self) -> impl Iterator<Item = View<'a>> {
        let (nb, lb) = (self.node_bounds, self.link_bounds);
        let mut routers = bands(self.routers, nb);
        let mut nis = bands(self.nis, nb);
        let mut links = bands(self.links, lb);
        let mut xbar = bands(self.xbar, nb);
        let mut linkser = bands(self.linkser, lb);
        self.lanes.iter_mut().enumerate().map(move |(tile, lane)| {
            let band = "bounds cover every lane";
            View {
                tile,
                node_start: nb[tile],
                links_base: lb[tile],
                routers: routers.next().expect(band),
                nis: nis.next().expect(band),
                links: links.next().expect(band),
                xbar: xbar.next().expect(band),
                linkser: linkser.next().expect(band),
                lane,
            }
        })
    }
}

/// One shard's disjoint mutable view of the network.
struct View<'a> {
    tile: usize,
    node_start: usize,
    links_base: usize,
    routers: &'a mut [Router],
    nis: &'a mut [NetIf],
    links: &'a mut [Link],
    xbar: &'a mut [WindowSeries],
    linkser: &'a mut [WindowSeries],
    lane: &'a mut Lane,
}

impl View<'_> {
    fn owns(&self, node: usize) -> bool {
        node.wrapping_sub(self.node_start) < self.routers.len()
    }

    /// Marks router `r` as having work next Phase 4 (idempotent).
    fn mark_router(&mut self, r: usize) {
        self.lane.active.insert(r - self.node_start);
    }

    /// Queues a credit for next Phase 1, locally or through the mailbox.
    fn send_credit(&mut self, sh: &Shared<'_>, msg: CreditMsg) {
        if self.owns(msg.router) {
            self.lane.pending_credits.push(msg);
        } else {
            sh.cell(self.tile, shard_of(sh.node_bounds, msg.router)).credits.push(msg);
        }
    }

    /// Retires a dropped packet's reassembly entry at its destination
    /// shard: immediately when local, else via retire mail the owner
    /// drains before its same-cycle Phase 4 (the serial remove-before-
    /// eject order).
    fn retire_packet(&mut self, sh: &Shared<'_>, pid: PacketId, dst: usize) {
        if self.owns(dst) {
            self.lane.retire(pid);
        } else {
            sh.cell(self.tile, shard_of(sh.node_bounds, dst)).retire.push(pid);
        }
    }

    /// Phase 1: credits sent last cycle, own first, then boundary credits
    /// in sender order. Each `(router, port, vc)` receives independent
    /// increments, so the order is a canonical choice, not a constraint.
    /// Credits are only sent in Phases 2 and 4, so the list is drained in
    /// place.
    fn credits(&mut self, sh: &Shared<'_>) {
        for i in 0..self.lane.pending_credits.len() {
            let msg = self.lane.pending_credits[i];
            self.apply_credit(sh, msg);
        }
        self.lane.pending_credits.clear();
        for from in sh.peers(self.tile) {
            for msg in sh.cell(from, self.tile).credits.drain(..) {
                self.apply_credit(sh, msg);
            }
        }
    }

    fn apply_credit(&mut self, sh: &Shared<'_>, msg: CreditMsg) {
        let r = &mut self.routers[msg.router - self.node_start];
        r.return_credit(msg.port, msg.vc, sh.cfg.buffers_per_vc);
        if msg.frees_vc {
            r.free_output_vc(msg.port, msg.vc);
        }
        // Wakeup edge: credit return can unblock a waiting flit.
        self.mark_router(msg.router);
    }

    /// Phase 2: link traversal, delivering flits sent last cycle. Own
    /// occupied links go in ascending id order (dense stepping scans
    /// every own slot instead), then boundary flits per sender in link-id
    /// order. Fault verdicts are per `(link, packet)` and deliveries land
    /// in distinct `(port, vc)` queues, so the order is canonical only.
    /// Links only fill in Phase 4, so every slot ends this phase empty.
    fn links(&mut self, sh: &Shared<'_>, cycle: u64) {
        // Boundary links never fill a slot: their flits travel as mail.
        let filled = |l: usize| self.links[l].slot.is_some();
        debug_assert!(same_members(&self.lane.occupied_links, self.links.len(), filled));
        let mut at = 0;
        loop {
            let next = if sh.dense {
                (at..self.links.len()).find(|&l| self.links[l].slot.is_some())
            } else {
                self.lane.occupied_links.next_from(at)
            };
            let Some(rel) = next else { break };
            at = rel + 1;
            let link = &mut self.links[rel];
            let flit = link.slot.take().expect("occupied link holds a flit");
            let (to, in_port) = (link.to_router, link.in_port);
            self.deliver(sh, self.links_base + rel, to, in_port, flit, cycle);
        }
        self.lane.occupied_links.clear();
        for from in sh.peers(self.tile) {
            let mut inbox = std::mem::take(&mut self.lane.inbox);
            inbox.append(&mut sh.cell(from, self.tile).flits);
            // The cell lock is released before delivery: delivering a
            // dropped flit sends a cross-shard credit, which locks the
            // *outgoing* cell — holding two cells at once risks deadlock.
            inbox.sort_unstable_by_key(|b| b.lid);
            for b in inbox.drain(..) {
                self.deliver(sh, b.lid, b.to, b.in_port, b.flit, cycle);
            }
            self.lane.inbox = inbox;
        }
    }

    /// Delivers one flit off link `lid` into router `to`, consulting the
    /// fault layer. A dropped flit synthesizes its upstream credit so flow
    /// control stays live; a corrupted one carries the mark to delivery.
    fn deliver(
        &mut self,
        sh: &Shared<'_>,
        lid: usize,
        to: usize,
        in_port: Dir,
        mut flit: Flit,
        cycle: u64,
    ) {
        let action = match sh.fault {
            Some(f) => {
                f.on_link_flit(lid, cycle, &flit, &mut self.lane.dropping, &mut self.lane.fault)
            }
            None => FaultAction::Deliver,
        };
        if action == FaultAction::Drop {
            // The downstream buffer slot reserved for this flit is never
            // filled: return the credit (and the VC on a tail) so the
            // upstream router does not wedge.
            let upstream = sh
                .mesh
                .neighbor(NodeId::new(to), in_port)
                .expect("every link has an upstream router");
            self.send_credit(
                sh,
                CreditMsg {
                    router: upstream.index(),
                    port: in_port.opposite(),
                    vc: flit.vc(),
                    frees_vc: flit.kind().is_tail(),
                },
            );
            if flit.kind().is_head() {
                // The payload dies with its head flit.
                self.lane.pool_work.push(PoolWork::Free(flit.payload));
            }
            if flit.kind().is_tail() {
                self.lane.lost += 1;
                // Flits that crossed earlier links before the drop may sit
                // in a partial reassembly that can never complete.
                self.retire_packet(sh, flit.packet_id, flit.dst().index());
            }
            return;
        }
        if action == FaultAction::DeliverCorrupted {
            flit.mark_corrupted();
        }
        let cap = sh.cfg.buffers_per_vc as usize;
        self.routers[to - self.node_start].accept_flit(sh.mesh, sh.cfg, in_port, flit, cycle, cap);
        self.mark_router(to);
        self.lane.buffered += 1;
    }

    /// Phase 3: NI injection for own backlogged nodes, ascending (dense
    /// stepping visits every own NI). A node with empty queues is a pure
    /// no-op, round-robin pointer included, so skipping it is exact.
    fn inject(&mut self, sh: &Shared<'_>, tally: &mut Tally<'_>, cycle: u64) {
        let backlogged = |n: usize| self.nis[n].backlog > 0;
        debug_assert!(same_members(&self.lane.ni_active, self.nis.len(), backlogged));
        let mut at = 0;
        loop {
            let next = if sh.dense {
                (at < self.nis.len()).then_some(at)
            } else {
                self.lane.ni_active.next_from(at)
            };
            let Some(rel) = next else { break };
            at = rel + 1;
            if !self.inject_node(sh, tally, rel, cycle) {
                self.lane.ni_active.remove(rel);
            }
        }
    }

    /// Moves at most one flit from own NI `rel` into its local router,
    /// trying the vnets round-robin. Returns whether the NI still has
    /// backlogged flits.
    fn inject_node(
        &mut self,
        sh: &Shared<'_>,
        tally: &mut Tally<'_>,
        rel: usize,
        cycle: u64,
    ) -> bool {
        let vnets = sh.cfg.vnets as usize;
        let k = sh.cfg.vcs_per_vnet as usize;
        let cap = sh.cfg.buffers_per_vc as usize;
        for step in 0..vnets {
            let v = (self.nis[rel].rr + step) % vnets;
            let ni = &mut self.nis[rel];
            let Some(front) = ni.queues[v].front() else {
                continue;
            };
            let router = &self.routers[rel];
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
            let Some(vc) = vc else { continue };
            let mut flit = ni.queues[v].pop_front().expect("front checked above");
            flit.set_vc(vc);
            ni.streaming[v] = if flit.kind().is_tail() { None } else { Some(vc) };
            ni.backlog -= 1;
            ni.rr = (v + 1) % vnets;
            self.routers[rel].accept_flit(sh.mesh, sh.cfg, Dir::Local, flit, cycle, cap);
            self.lane.buffered += 1;
            self.lane.ni_backlog -= 1;
            *tally.injected_flits += 1;
            self.lane.active.insert(rel);
            break;
        }
        self.nis[rel].backlog > 0
    }

    /// Pre-Phase-4 retire drain: removes reassembly entries for packets
    /// whose tail another shard dropped this cycle in its Phase 2, before
    /// this shard's Phase 4 can eject more of their flits.
    fn retires(&mut self, sh: &Shared<'_>) {
        for from in sh.peers(self.tile) {
            for pid in sh.cell(from, self.tile).retire.drain(..) {
                self.lane.retire(pid);
            }
        }
    }

    /// Phase 4: router pipelines (VA, SA/ST) plus ejection for own routers
    /// with work, ascending, leaving `active` holding the survivors (the
    /// routers still buffering flits) for Phase 5. No same-phase wakeups
    /// exist: credits wait for next Phase 1 and link fills for next
    /// Phase 2, so the walk only removes the router it just ran.
    fn routers(
        &mut self,
        sh: &Shared<'_>,
        tally: &mut Tally<'_>,
        tracer: &mut TracerHandle,
        cycle: u64,
    ) {
        let mut at = 0;
        while let Some(rel) = self.lane.active.next_from(at) {
            at = rel + 1;
            if !self.run_router(sh, tally, tracer, self.node_start + rel, cycle) {
                self.lane.active.remove(rel);
            }
        }
    }

    /// One router's pipeline: VA, then SA/ST, then its departures
    /// committed to links or ejection with credits returned upstream.
    /// Returns whether the router still buffers flits.
    fn run_router(
        &mut self,
        sh: &Shared<'_>,
        tally: &mut Tally<'_>,
        tracer: &mut TracerHandle,
        r: usize,
        cycle: u64,
    ) -> bool {
        let rel = r - self.node_start;
        let mut down = Router::NO_DOWN_PORTS;
        if let Some(f) = sh.fault.filter(|_| sh.use_down) {
            for d in Dir::ROUTER_DIRS {
                if let Some(lid) = sh.link_of[r][d.index()] {
                    down[d.index()] = f.link_down(lid, cycle);
                }
            }
        }
        let mut departures = std::mem::take(&mut self.lane.departures);
        debug_assert!(departures.is_empty());
        // Route computation happened eagerly at head acceptance
        // (`Router::accept_flit`); the per-cycle pipeline starts at VA.
        let router = &mut self.routers[rel];
        router.vc_allocate(sh.cfg, cycle, tracer);
        router.switch_allocate_into(sh.cfg, cycle, &down, &mut departures);
        if !departures.is_empty() {
            self.xbar[rel].record(true);
            *tally.crossbar_transfers += departures.len() as u64;
        }
        for dep in departures.drain(..) {
            self.lane.buffered -= 1;
            if dep.in_port != Dir::Local {
                let upstream = sh
                    .mesh
                    .neighbor(NodeId::new(r), dep.in_port)
                    .expect("flit arrived from a connected port");
                self.send_credit(
                    sh,
                    CreditMsg {
                        router: upstream.index(),
                        port: dep.in_port.opposite(),
                        vc: dep.in_vc,
                        frees_vc: dep.was_tail,
                    },
                );
            }
            if dep.out_port == Dir::Local {
                self.eject(tally, tracer, r, dep.flit, cycle);
                continue;
            }
            let lid =
                sh.link_of[r][dep.out_port.index()].expect("departure through a connected port");
            tracer.record_with(cycle, || EventKind::FlitHop {
                router: r as u32,
                out_port: dep.out_port.index() as u8,
                flit: dep.flit.id,
                packet: dep.flit.packet_id,
            });
            tracer.count_link(cycle, r as u32, dep.out_port.index() as u8);
            let rel_lid = lid - self.links_base;
            self.linkser[rel_lid].record(true);
            let Link { to_router: to, in_port, .. } = self.links[rel_lid];
            if self.owns(to) {
                let slot = &mut self.links[rel_lid].slot;
                debug_assert!(slot.is_none(), "link carries one flit per cycle");
                *slot = Some(dep.flit);
                self.lane.occupied_links.insert(rel_lid);
            } else {
                let flit = BoundaryFlit { lid, to, in_port, flit: dep.flit };
                sh.cell(self.tile, shard_of(sh.node_bounds, to)).flits.push(flit);
            }
        }
        self.lane.departures = departures;
        self.routers[rel].buffered_flits() > 0
    }

    /// Ejects one flit at `node` into its packet's reassembly. A completed
    /// packet is traced here and staged for payload resolution on the
    /// calling thread.
    fn eject(
        &mut self,
        tally: &mut Tally<'_>,
        tracer: &mut TracerHandle,
        node: usize,
        flit: Flit,
        cycle: u64,
    ) {
        let pid = flit.packet_id;
        let entry = self.lane.reassembly.entry(pid).or_default();
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
                    tally.protocol_errors.duplicate_head += 1;
                    if kept.payload != flit.payload {
                        self.lane.pool_work.push(PoolWork::Free(flit.payload));
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
        let Some(partial) = self.lane.reassembly.remove(&pid) else {
            return;
        };
        let Some(head) = partial.head else {
            tally.protocol_errors.tail_without_head += 1;
            self.lane.lost += 1;
            return;
        };
        tracer.record_with(cycle, || EventKind::PacketEject {
            packet: pid,
            node: node as u32,
            latency: cycle.saturating_sub(head.queued_at),
            hops: head.hops(),
            flits: partial.flits,
            class: head.class().code(),
        });
        self.lane.pool_work.push(PoolWork::Deliver {
            node,
            delivered_at: cycle,
            flits: partial.flits,
            corrupted: partial.corrupted || head.corrupted(),
            head,
        });
    }

    /// Phase 5: per-router input-buffer occupancy samples (the paper's
    /// Fig. 3 measures them per router-cycle). After Phase 4 the worklist
    /// holds exactly the routers with buffered flits, so it records the
    /// same nonzero samples as a full scan, then credits the zeros in one
    /// batched call.
    fn occupancy(&mut self, sh: &Shared<'_>, tally: &mut Tally<'_>) {
        let occupied = |r: usize| self.routers[r].buffered_flits() > 0;
        debug_assert!(
            same_members(&self.lane.active, self.routers.len(), occupied),
            "post-Phase-4 worklist must equal the set of occupied routers"
        );
        let mut zeros = self.routers.len() as u64;
        let mut record = |buffered: usize| {
            tally.occupancy.record(buffered as f64 / sh.per_router_capacity);
            zeros -= 1;
        };
        if sh.dense {
            self.routers
                .iter()
                .map(Router::buffered_flits)
                .filter(|&b| b > 0)
                .for_each(&mut record);
        } else {
            for rel in self.lane.active.iter() {
                record(self.routers[rel].buffered_flits());
            }
        }
        tally.occupancy.record_zeros(zeros);
    }

    /// Rolls the sampling window of own routers' and links' series.
    fn roll(&mut self, cycle: u64) {
        self.xbar.iter_mut().chain(self.linkser.iter_mut()).for_each(|s| s.roll(cycle));
    }

    /// Quiescence vote input: own worklists plus every inbound mailbox
    /// cell (all peers' sends completed before the vote barrier).
    fn has_work(&self, sh: &Shared<'_>) -> bool {
        !self.lane.is_idle() || sh.peers(self.tile).any(|from| !sh.cell(from, self.tile).is_empty())
    }
}

/// Runs one cycle's phases over `views` in barrier-phase order, calling
/// `sync` at each barrier. The inline driver passes every view and a
/// no-op; a worker thread passes its own view and a barrier wait.
fn run_cycle(
    views: &mut [View<'_>],
    sh: &Shared<'_>,
    tally: &mut Tally<'_>,
    tracer: &mut TracerHandle,
    cycle: u64,
    sync: impl Fn(),
) {
    for v in views.iter_mut() {
        v.credits(sh);
    }
    sync();
    for v in views.iter_mut() {
        v.links(sh, cycle);
        v.inject(sh, tally, cycle);
    }
    sync();
    for v in views.iter_mut() {
        v.retires(sh);
        v.routers(sh, tally, tracer, cycle);
        v.occupancy(sh, tally);
    }
}

/// What the workers of one threaded batch share besides [`Shared`].
struct Batch {
    barrier: Barrier,
    busy: Vec<AtomicBool>,
    completed: AtomicU64,
    start_cycle: u64,
    max_cycles: u64,
    window: u64,
    start_in_window: u64,
}

/// One worker thread's batch loop: up to `max_cycles` barrier-synchronized
/// cycles, breaking early once every shard votes quiescent. All workers
/// observe identical votes, so they break at the same cycle; worker 0
/// publishes the count. Returns the worker's stats delta.
fn worker(mut view: View<'_>, sh: &Shared<'_>, batch: &Batch) -> TallyDelta {
    let mut delta = TallyDelta::default();
    let mut tally = delta.tally();
    let mut tracer = TracerHandle::Nop;
    let mut in_window = batch.start_in_window;
    let mut done = batch.max_cycles;
    let sync = || {
        batch.barrier.wait();
    };
    for i in 0..batch.max_cycles {
        let cycle = batch.start_cycle + i + 1;
        run_cycle(std::slice::from_mut(&mut view), sh, &mut tally, &mut tracer, cycle, sync);
        // The per-worker mirror of `NetStats::end_cycle`: every worker
        // advances the same in-window count, so the rolls land on the
        // same cycles as the inline driver's.
        in_window += 1;
        if in_window >= batch.window {
            view.roll(cycle);
            in_window = 0;
        }
        sync();
        batch.busy[view.tile].store(view.has_work(sh), Ordering::SeqCst);
        sync();
        if batch.busy.iter().all(|b| !b.load(Ordering::SeqCst)) {
            done = i + 1;
            break;
        }
    }
    if view.tile == 0 {
        batch.completed.store(done, Ordering::SeqCst);
    }
    delta
}

impl<P> Network<P> {
    /// Splits the network into what its views share, its per-lane state,
    /// the stats tally and the tracer.
    fn split(&mut self) -> (Shared<'_>, Parts<'_>, Tally<'_>, &mut TracerHandle) {
        let (xbar, linkser, tally) = self.stats.split_mut();
        let shared = Shared {
            cfg: &self.cfg,
            mesh: &self.mesh,
            link_of: &self.link_of,
            fault: self.fault.as_ref(),
            mail: &self.mail,
            node_bounds: &self.node_bounds,
            tiles: self.lanes.len(),
            dense: self.cfg.stepping == Stepping::Dense,
            use_down: self.fault.as_ref().is_some_and(FaultState::has_down_windows),
            per_router_capacity: self.per_router_capacity,
        };
        let parts = Parts {
            routers: &mut self.routers,
            nis: &mut self.nis,
            links: &mut self.links,
            xbar,
            linkser,
            lanes: &mut self.lanes,
            node_bounds: &self.node_bounds,
            link_bounds: &self.link_bounds,
        };
        (shared, parts, tally, &mut self.tracer)
    }

    /// Advances the network by one cycle, running every view on the
    /// calling thread (see the [module docs](self)).
    pub(super) fn step_inline(&mut self) {
        self.cycle += 1;
        let cycle = self.cycle;
        let (sh, parts, tally, tracer) = self.split();
        parts.run_inline(&sh, tally, tracer, cycle);
        self.stats.end_cycle(cycle);
        self.resolve_pool_work();
    }

    /// Steps up to `max_cycles` cycles with one scoped worker thread per
    /// shard, stopping early once every shard is quiescent (the caller's
    /// clock jump takes over), then folds the workers' stats deltas in
    /// shard order and resolves the staged pool work.
    pub(super) fn step_batch(&mut self, max_cycles: u64) {
        let tiles = self.lanes.len();
        let window = self.stats.sample_window();
        let batch = Batch {
            barrier: Barrier::new(tiles),
            busy: (0..tiles).map(|_| AtomicBool::new(false)).collect(),
            completed: AtomicU64::new(max_cycles),
            start_cycle: self.cycle,
            max_cycles,
            window,
            start_in_window: self.stats.cycles_in_window(),
        };
        let deltas: Vec<TallyDelta> = {
            let (sh, parts, _, _) = self.split();
            std::thread::scope(|scope| {
                let workers: Vec<_> = parts
                    .views()
                    .map(|view| {
                        let (sh, batch) = (&sh, &batch);
                        scope.spawn(move || worker(view, sh, batch))
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().expect("shard worker panicked")).collect()
            })
        };
        let done = batch.completed.load(Ordering::SeqCst);
        debug_assert!(done >= 1 && done <= max_cycles);
        self.cycle = batch.start_cycle + done;
        self.stats.set_cycles_in_window((batch.start_in_window + done) % window);
        for delta in &deltas {
            self.stats.merge_delta(delta);
        }
        self.resolve_pool_work();
    }

    /// Finishes the lanes' staged pool work on the calling thread, lane by
    /// lane in staging order: delivers completed packets (or counts a
    /// missing payload) and releases destroyed heads' slots.
    fn resolve_pool_work(&mut self) {
        for lane in &mut self.lanes {
            for work in lane.pool_work.drain(..) {
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
                    self.stats.protocol_errors.missing_payload += 1;
                    lane.lost += 1;
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
                self.stats.record_delivery(packet.class, flits, packet.latency());
                self.delivered_packets += 1;
                self.ejected[node].push(packet);
                self.ejected_count += 1;
            }
        }
    }
}
