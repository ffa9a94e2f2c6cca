//! Sharded stepping (DESIGN.md §13): the mesh split into horizontal row
//! bands, each stepped by one worker thread, with per-cycle conservative
//! barrier synchronization and deterministic boundary mailboxes.
//!
//! ## Partitioning
//!
//! [`Mesh::row_bands`] tiles the mesh into full-width horizontal bands.
//! Row-major node numbering makes every band a contiguous node-index
//! range, and links are built per source node in the same order, so each
//! worker owns contiguous `split_at_mut` slices of *all* per-node and
//! per-link state — routers, NIs, link slots, ejection queues, worklist
//! flags and the per-router/per-link stats series. No locks guard the hot
//! path: a worker touches only its own slices.
//!
//! ## Boundary exchange
//!
//! Band boundaries only cut north-south links. A flit departing across a
//! boundary cannot be written into the reader's `Link` slot (the writer
//! owns the link by source, the reader delivers it), so it travels through
//! a mailbox cell instead, carrying `(link, to_router, in_port)` captured
//! at send time. Credits and drop-retirements cross the same way. Each
//! `(from, to)` shard pair has its own single-buffered cell; the phase
//! structure below makes every cell strictly write-then-read within a
//! cycle, so one buffer suffices.
//!
//! ## Cycle structure and determinism
//!
//! Each simulated cycle runs the same five phases as the serial loop,
//! separated by three barriers, plus a fourth for the all-shards-quiescent
//! vote that hands a dead stretch to the clock jump:
//!
//! ```text
//! Ph1 credits (own, then mail in sender order)        | barrier
//! Ph2 links   (own ascending, then mail by link id)
//! Ph3 NI injection (own nodes ascending)              | barrier
//! Ph4 retire mail, then routers (own ascending)
//! Ph5 occupancy samples + window rolls                | barrier
//! quiescence vote                                     | barrier
//! ```
//!
//! Bit-identity with the serial modes holds because every cross-shard
//! interaction commutes: fault verdicts hash `(seed, link, packet)` so
//! they are evaluation-order-free; credits are unique per
//! `(router, port, vc)` per cycle; flits landing in distinct `(port, vc)`
//! queues are independent; ejection is confined to one node; and all stats
//! deltas are sums, maxima or bucket counts, merged in shard-index order
//! at the batch epilogue. `tests/determinism.rs` and `tests/properties.rs`
//! prove fingerprints equal to the dense oracle for every shard count.
//!
//! Sharded stepping records no tracer events (the per-worker handle is
//! [`TracerHandle::Nop`]); install a tracer only on serial modes.

use super::*;
use crate::stats::{OccupancyCdf, ProtocolErrors, WindowSeries};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

/// A flit crossing a shard boundary, with the link metadata the reader
/// would otherwise have to fetch from the writer's `Link` entry.
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
struct MailCell {
    credits: Vec<CreditMsg>,
    flits: Vec<BoundaryFlit>,
    retire: Vec<PacketId>,
}

impl MailCell {
    fn new() -> Self {
        MailCell { credits: Vec::new(), flits: Vec::new(), retire: Vec::new() }
    }

    fn is_empty(&self) -> bool {
        self.credits.is_empty() && self.flits.is_empty() && self.retire.is_empty()
    }
}

/// Per-shard accumulator deltas, zeroed at batch start and folded into
/// the network totals in shard-index order at the batch epilogue. Every
/// field merges by sum / max / bucket count, so the fold is exact.
#[derive(Default)]
struct LaneStats {
    occupancy: OccupancyCdf,
    injected_flits: u64,
    crossbar_transfers: u64,
    protocol_errors: ProtocolErrors,
    fault: FaultCounters,
    lost_packets: u64,
    ni_drained: u64,
}

/// One shard's private half of the network: the worklists, reassembly map
/// and fault memo restricted to the routers/links/NIs the shard owns,
/// plus the per-batch stats deltas. The serial `Network` fields these
/// mirror sit empty while sharding is active; mode transitions migrate
/// the state both ways ([`enshard`] / [`unshard`]).
struct Lane {
    active: Vec<usize>,
    active_scratch: Vec<usize>,
    ni_active: Vec<usize>,
    occupied_links: Vec<usize>,
    links_scratch: Vec<usize>,
    pending_credits: Vec<CreditMsg>,
    credits_scratch: Vec<CreditMsg>,
    departures: Vec<Departure>,
    /// Scratch for draining boundary-flit mail without holding the cell
    /// lock across delivery (delivery may lock *other* cells to send drop
    /// credits; holding two cells at once could deadlock).
    inbox: Vec<BoundaryFlit>,
    /// Reassembly entries whose destination node this shard owns.
    reassembly: HashMap<PacketId, Partial>,
    /// Mid-packet drop memo for the links this shard delivers.
    dropping: HashSet<(usize, PacketId)>,
    /// Flits resident in this shard's router input buffers.
    buffered: u64,
    /// Completed packets awaiting payload resolution — the pool lives on
    /// the serial `Network`, so workers stage ejections here and the
    /// batch epilogue finishes delivery in shard-index order.
    ejections: Vec<StagedEject>,
    /// Payload refs whose head flit was destroyed in this shard (fault
    /// drops, retirements); released into the pool at the epilogue.
    freed: Vec<PayloadRef>,
    stats: LaneStats,
}

impl Lane {
    fn new() -> Self {
        Lane {
            active: Vec::new(),
            active_scratch: Vec::new(),
            ni_active: Vec::new(),
            occupied_links: Vec::new(),
            links_scratch: Vec::new(),
            pending_credits: Vec::new(),
            credits_scratch: Vec::new(),
            departures: Vec::new(),
            inbox: Vec::new(),
            reassembly: HashMap::new(),
            dropping: HashSet::new(),
            buffered: 0,
            ejections: Vec::new(),
            freed: Vec::new(),
            stats: LaneStats::default(),
        }
    }

    fn has_own_work(&self) -> bool {
        !(self.pending_credits.is_empty()
            && self.occupied_links.is_empty()
            && self.ni_active.is_empty()
            && self.active.is_empty())
    }
}

/// A delivered packet staged by a worker for serial payload resolution.
/// Holds the ejected head flit (carrying the [`PayloadRef`]) plus the
/// per-packet facts the serial `eject` reads off its `Partial`.
struct StagedEject {
    node: usize,
    delivered_at: u64,
    flits: u64,
    corrupted: bool,
    head: Flit,
}

/// The sharded-stepping state hung off [`Network`].
pub(super) struct Sharding {
    /// Shard (= worker thread) count.
    pub(super) tiles: usize,
    /// `node_bounds[t]..node_bounds[t+1]` = the node range of shard `t`.
    node_bounds: Vec<usize>,
    /// Same for link ids (contiguous per shard: links are built per
    /// source node in node order).
    link_bounds: Vec<usize>,
    lanes: Vec<Lane>,
    /// `mail[from * tiles + to]` = the directed cell between two shards.
    mail: Vec<Mutex<MailCell>>,
    /// Per-shard has-work flags for the quiescence vote.
    busy: Vec<AtomicBool>,
}

impl fmt::Debug for Sharding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sharding")
            .field("tiles", &self.tiles)
            .field("node_bounds", &self.node_bounds)
            .field("link_bounds", &self.link_bounds)
            .finish_non_exhaustive()
    }
}

impl Sharding {
    /// Which shard owns node (or router) `node`.
    fn shard_of(&self, node: usize) -> usize {
        shard_of(&self.node_bounds, node)
    }

    /// Serial-context half of [`Network::is_quiescent`]: no lane has
    /// worklist entries and no mailbox cell holds an undelivered message.
    pub(super) fn is_quiescent(&self) -> bool {
        self.lanes.iter().all(|l| !l.has_own_work())
            && self.mail.iter().all(|cell| lock(cell).is_empty())
    }

    /// Reassembly entries across all lanes (for [`Network::stuck_packets`]).
    pub(super) fn stuck_packets(&self) -> usize {
        self.lanes.iter().map(|l| l.reassembly.len()).sum()
    }

    /// Routes an NI wakeup to the owning shard's worklist (the sharded
    /// counterpart of pushing onto `Network::ni_active`).
    pub(super) fn push_ni_active(&mut self, node: usize) {
        let t = self.shard_of(node);
        self.lanes[t].ni_active.push(node);
    }

    /// Drops all per-lane mid-packet fault memos (a fresh fault plan
    /// starts with an empty memo, exactly as the serial state does).
    pub(super) fn clear_fault_memos(&mut self) {
        for lane in &mut self.lanes {
            lane.dropping.clear();
        }
    }
}

/// Locks a mailbox cell, ignoring poison: cells hold plain data and every
/// access re-establishes its own invariants, so a panicked peer thread
/// must not wedge the teardown path too.
fn lock<T>(cell: &Mutex<T>) -> MutexGuard<'_, T> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which tile a monotone bounds table assigns `index` to.
fn shard_of(bounds: &[usize], index: usize) -> usize {
    debug_assert!(bounds.len() >= 2 && index < bounds[bounds.len() - 1]);
    bounds.partition_point(|&b| b <= index) - 1
}

/// Splits `slice` into the consecutive sub-slices delimited by `bounds`
/// (a monotone table starting at 0 and ending at `slice.len()`).
fn split_ranges<'a, T>(mut slice: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
    let mut prev = 0;
    for &b in &bounds[1..] {
        let (head, tail) = slice.split_at_mut(b - prev);
        out.push(head);
        slice = tail;
        prev = b;
    }
    debug_assert!(slice.is_empty(), "bounds must cover the whole slice");
    out
}

/// Turns sharding on: builds the tile tables and migrates every piece of
/// serial worklist/reassembly/fault state into the owning shard's lane.
/// The caller has validated `1 <= tiles <= mesh.rows()`.
pub(super) fn enshard<P>(net: &mut Network<P>, tiles: usize) {
    debug_assert!(net.sharding.is_none(), "enshard over live sharding state");
    let bands = net.mesh.row_bands(tiles).expect("caller validated the tile count");
    let mut node_bounds = Vec::with_capacity(tiles + 1);
    node_bounds.push(0);
    for band in &bands {
        node_bounds.push(band.end);
    }
    let mut link_bounds = Vec::with_capacity(tiles + 1);
    link_bounds.push(0);
    let mut links_seen = 0usize;
    let mut node = 0usize;
    for t in 0..tiles {
        while node < node_bounds[t + 1] {
            links_seen += net.link_of[node].iter().flatten().count();
            node += 1;
        }
        link_bounds.push(links_seen);
    }
    debug_assert_eq!(links_seen, net.links.len());
    let mut sh = Sharding {
        tiles,
        node_bounds,
        link_bounds,
        lanes: (0..tiles).map(|_| Lane::new()).collect(),
        mail: (0..tiles * tiles).map(|_| Mutex::new(MailCell::new())).collect(),
        busy: (0..tiles).map(|_| AtomicBool::new(false)).collect(),
    };
    for r in net.active.drain(..) {
        let t = sh.shard_of(r);
        sh.lanes[t].active.push(r);
    }
    for n in net.ni_active.drain(..) {
        let t = sh.shard_of(n);
        sh.lanes[t].ni_active.push(n);
    }
    for msg in net.pending_credits.drain(..) {
        let t = sh.shard_of(msg.router);
        sh.lanes[t].pending_credits.push(msg);
    }
    // In-flight flits: a link is *delivered* by the shard owning its
    // destination router. Intra-shard links keep their slot; a flit on a
    // boundary link moves into the writer→reader mailbox, exactly where
    // the sharded Phase 4 would have put it.
    for lid in net.occupied_links.drain(..) {
        let to = net.links[lid].to_router;
        let reader = sh.shard_of(to);
        let writer = shard_of(&sh.link_bounds, lid);
        if reader == writer {
            sh.lanes[reader].occupied_links.push(lid);
        } else {
            let link = &mut net.links[lid];
            let flit = link.slot.take().expect("occupied-list entry without a flit");
            lock(&sh.mail[writer * tiles + reader]).flits.push(BoundaryFlit {
                lid,
                to,
                in_port: link.in_port,
                flit,
            });
        }
    }
    for (pid, partial) in net.reassembly.drain() {
        let t = sh.shard_of(partial.dst);
        sh.lanes[t].reassembly.insert(pid, partial);
    }
    if let Some(f) = net.fault.as_mut() {
        let memo: Vec<(usize, PacketId)> = f.dropping_mut().drain().collect();
        for key in memo {
            let t = sh.shard_of(net.links[key.0].to_router);
            sh.lanes[t].dropping.insert(key);
        }
    }
    for t in 0..tiles {
        sh.lanes[t].buffered = net.routers[sh.node_bounds[t]..sh.node_bounds[t + 1]]
            .iter()
            .map(|r| r.buffered_flits() as u64)
            .sum();
    }
    net.sharding = Some(sh);
}

/// Turns sharding off: folds every lane and mailbox cell back into the
/// serial worklists. The inverse of [`enshard`]; a subsequent serial step
/// behaves exactly as if the sharded cycles had been stepped serially.
pub(super) fn unshard<P>(net: &mut Network<P>) {
    let Some(mut sh) = net.sharding.take() else { return };
    for lane in &mut sh.lanes {
        // Between batches the staged pool work is always drained (the
        // epilogue runs unconditionally), so this is a defensive no-op.
        resolve_pool_work(net, lane);
        net.active.append(&mut lane.active);
        net.ni_active.append(&mut lane.ni_active);
        net.pending_credits.append(&mut lane.pending_credits);
        net.occupied_links.append(&mut lane.occupied_links);
        for (pid, partial) in lane.reassembly.drain() {
            net.reassembly.insert(pid, partial);
        }
        if let Some(f) = net.fault.as_mut() {
            f.dropping_mut().extend(lane.dropping.drain());
        }
    }
    for cell in &mut sh.mail {
        let cell = cell.get_mut().unwrap_or_else(PoisonError::into_inner);
        net.pending_credits.append(&mut cell.credits);
        for b in cell.flits.drain(..) {
            debug_assert!(net.links[b.lid].slot.is_none());
            net.links[b.lid].slot = Some(b.flit);
            net.occupied_links.push(b.lid);
        }
        // Retirements drain after the lane reassembly maps merged above;
        // a retired partial's head still owns its payload slot.
        for pid in cell.retire.drain(..) {
            if let Some(partial) = net.reassembly.remove(&pid) {
                if let Some(head) = partial.head {
                    net.pool.release(head.payload);
                }
            }
        }
    }
}

/// Finishes a lane's staged pool work in serial context: resolves staged
/// ejections through the payload pool (delivering the packet, or counting
/// a missing payload exactly as the serial `Network::eject` would) and
/// releases refs freed by in-shard head destruction. Runs per lane in
/// shard-index order, so slot recycling is deterministic.
fn resolve_pool_work<P>(net: &mut Network<P>, lane: &mut Lane) {
    for e in lane.ejections.drain(..) {
        let head = e.head;
        let Some(payload) = net.pool.take(head.payload) else {
            net.stats.protocol_errors.missing_payload += 1;
            net.lost_packets += 1;
            continue;
        };
        let packet = Packet {
            id: head.packet_id,
            src: head.src(),
            dst: head.dst(),
            vnet: head.vnet(),
            class: head.class(),
            queued_at: head.queued_at,
            delivered_at: e.delivered_at,
            hops: head.hops(),
            corrupted: e.corrupted,
            payload,
        };
        net.stats.record_delivery(packet.class, e.flits, packet.latency());
        net.delivered_packets += 1;
        net.push_ejected(e.node, packet);
    }
    for r in lane.freed.drain(..) {
        net.pool.release(r);
    }
}

/// Everything a worker shares read-only (or through sync primitives)
/// with its peers for one batch.
struct SharedCtx<'a> {
    cfg: &'a NocConfig,
    mesh: &'a Mesh,
    link_of: &'a [[Option<usize>; 4]],
    fault: Option<&'a FaultState>,
    mail: &'a [Mutex<MailCell>],
    busy: &'a [AtomicBool],
    node_bounds: &'a [usize],
    barrier: &'a Barrier,
    completed: &'a AtomicU64,
    tiles: usize,
    start_cycle: u64,
    max_cycles: u64,
    use_down: bool,
    per_router_capacity: f64,
    window: u64,
    start_in_window: u64,
}

/// One worker's disjoint mutable view of the network: `split_at_mut`
/// slices of every per-node / per-link table, plus its lane.
struct WorkerCtx<'a> {
    tile: usize,
    node_start: usize,
    node_end: usize,
    links_base: usize,
    routers: &'a mut [Router],
    nis: &'a mut [NetIf],
    work: &'a mut [bool],
    ni_flag: &'a mut [bool],
    ni_backlogs: &'a mut [u64],
    links: &'a mut [Link],
    xbar: &'a mut [WindowSeries],
    linkser: &'a mut [WindowSeries],
    lane: &'a mut Lane,
}

impl WorkerCtx<'_> {
    /// The sharded `Network::mark_router` (idempotent worklist push).
    fn mark_router(&mut self, r: usize) {
        let rel = r - self.node_start;
        if !self.work[rel] {
            self.work[rel] = true;
            self.lane.active.push(r);
        }
    }

    /// Queues a credit for next Phase 1, locally or through the mailbox.
    fn send_credit(&mut self, sh: &SharedCtx<'_>, msg: CreditMsg) {
        let t = shard_of(sh.node_bounds, msg.router);
        if t == self.tile {
            self.lane.pending_credits.push(msg);
        } else {
            lock(&sh.mail[self.tile * sh.tiles + t]).credits.push(msg);
        }
    }

    /// Retires a dropped packet's reassembly entry at its destination
    /// shard — immediately when local, else via retire mail drained by
    /// the owner before its same-cycle Phase 4 (replaying the serial
    /// remove-before-eject ordering). Whichever shard removes the partial
    /// also frees its head's payload slot (through the owner's lane).
    fn retire_packet(&mut self, sh: &SharedCtx<'_>, pid: PacketId, dst_node: usize) {
        let t = shard_of(sh.node_bounds, dst_node);
        if t == self.tile {
            if let Some(partial) = self.lane.reassembly.remove(&pid) {
                if let Some(head) = partial.head {
                    self.lane.freed.push(head.payload);
                }
            }
        } else {
            lock(&sh.mail[self.tile * sh.tiles + t]).retire.push(pid);
        }
    }

    /// Phase 1: own credits first (the serial ping-pong), then boundary
    /// credits in sender-index order. Credit application commutes —
    /// each `(router, port, vc)` receives at most independent increments
    /// per cycle — so the order is a canonical choice, not a constraint.
    fn phase1_credits(&mut self, sh: &SharedCtx<'_>) {
        debug_assert!(self.lane.credits_scratch.is_empty());
        std::mem::swap(&mut self.lane.pending_credits, &mut self.lane.credits_scratch);
        let mut batch = std::mem::take(&mut self.lane.credits_scratch);
        for &msg in &batch {
            self.apply_credit(sh, msg);
        }
        batch.clear();
        self.lane.credits_scratch = batch;
        for from in 0..sh.tiles {
            if from == self.tile {
                continue;
            }
            let mut cell = lock(&sh.mail[from * sh.tiles + self.tile]);
            for msg in cell.credits.drain(..) {
                self.apply_credit(sh, msg);
            }
        }
    }

    fn apply_credit(&mut self, sh: &SharedCtx<'_>, msg: CreditMsg) {
        let r = &mut self.routers[msg.router - self.node_start];
        r.return_credit(msg.port, msg.vc, sh.cfg.buffers_per_vc);
        if msg.frees_vc {
            r.free_output_vc(msg.port, msg.vc);
        }
        self.mark_router(msg.router);
    }

    /// Phase 2: own occupied links in ascending id order, then boundary
    /// flits per sender in link-id order. Fault verdicts are hash-derived
    /// per `(link, packet)` and deliveries land in distinct `(port, vc)`
    /// queues, so inter-link order is immaterial — ascending order is the
    /// same canonical choice the serial active mode makes.
    fn phase2_links(&mut self, sh: &SharedCtx<'_>, cycle: u64, cap: usize) {
        debug_assert!(self.lane.links_scratch.is_empty());
        std::mem::swap(&mut self.lane.occupied_links, &mut self.lane.links_scratch);
        let mut batch = std::mem::take(&mut self.lane.links_scratch);
        batch.sort_unstable();
        for &lid in &batch {
            let link = &mut self.links[lid - self.links_base];
            let Some(flit) = link.slot.take() else { continue };
            let (to, in_port) = (link.to_router, link.in_port);
            self.deliver_flit(sh, lid, to, in_port, flit, cycle, cap);
        }
        batch.clear();
        self.lane.links_scratch = batch;
        for from in 0..sh.tiles {
            if from == self.tile {
                continue;
            }
            let mut inbox = std::mem::take(&mut self.lane.inbox);
            inbox.append(&mut lock(&sh.mail[from * sh.tiles + self.tile]).flits);
            // The cell lock is released before delivery: delivering a
            // dropped flit sends a cross-shard credit, which locks the
            // *outgoing* cell — holding two cells at once risks deadlock.
            inbox.sort_unstable_by_key(|b| b.lid);
            for b in inbox.drain(..) {
                self.deliver_flit(sh, b.lid, b.to, b.in_port, b.flit, cycle, cap);
            }
            self.lane.inbox = inbox;
        }
    }

    /// The sharded `Network::deliver_link` body, fed either from an own
    /// link slot or a boundary mailbox entry.
    #[allow(clippy::too_many_arguments)]
    fn deliver_flit(
        &mut self,
        sh: &SharedCtx<'_>,
        lid: usize,
        to: usize,
        in_port: Dir,
        mut flit: Flit,
        cycle: u64,
        cap: usize,
    ) {
        let action = match sh.fault {
            Some(f) => f.on_link_flit_sharded(
                lid,
                cycle,
                &flit,
                &mut self.lane.dropping,
                &mut self.lane.stats.fault,
            ),
            None => FaultAction::Deliver,
        };
        match action {
            FaultAction::Drop => {
                let upstream = sh
                    .mesh
                    .neighbor(NodeId::new(to), in_port)
                    .expect("every link has an upstream router");
                self.send_credit(sh, CreditMsg {
                    router: upstream.index(),
                    port: in_port.opposite(),
                    vc: flit.vc(),
                    frees_vc: flit.kind().is_tail(),
                });
                if flit.kind().is_head() {
                    // The payload dies with its head flit; the release
                    // itself happens at the serial epilogue.
                    self.lane.freed.push(flit.payload);
                }
                if flit.kind().is_tail() {
                    self.lane.stats.lost_packets += 1;
                    self.retire_packet(sh, flit.packet_id, flit.dst().index());
                }
            }
            FaultAction::DeliverCorrupted | FaultAction::Deliver => {
                if action == FaultAction::DeliverCorrupted {
                    flit.mark_corrupted();
                }
                self.routers[to - self.node_start]
                    .accept_flit(sh.mesh, sh.cfg, in_port, flit, cycle, cap);
                self.mark_router(to);
                self.lane.buffered += 1;
            }
        }
    }

    /// Phase 3: NI injection for the shard's backlogged nodes, ascending.
    fn phase3_ni(&mut self, sh: &SharedCtx<'_>, cycle: u64) {
        let mut batch = std::mem::take(&mut self.lane.ni_active);
        batch.sort_unstable();
        let mut kept = 0;
        for i in 0..batch.len() {
            let node = batch[i];
            let backlog = self.inject_node(sh, node, cycle);
            self.ni_flag[node - self.node_start] = backlog;
            if backlog {
                batch[kept] = node;
                kept += 1;
            }
        }
        batch.truncate(kept);
        self.lane.ni_active = batch;
    }

    /// The sharded `Network::inject_from_ni` body.
    fn inject_node(&mut self, sh: &SharedCtx<'_>, node: usize, cycle: u64) -> bool {
        let rel = node - self.node_start;
        let vnets = sh.cfg.vnets as usize;
        let k = sh.cfg.vcs_per_vnet as usize;
        let cap = sh.cfg.buffers_per_vc as usize;
        for _ in 0..sh.cfg.ni_flits_per_cycle {
            let mut pushed = false;
            for step in 0..vnets {
                let v = (self.nis[rel].rr + step) % vnets;
                let ni = &mut self.nis[rel];
                let Some(front) = ni.queues[v].front() else { continue };
                let router = &self.routers[rel];
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
                let ni = &mut self.nis[rel];
                let mut flit = ni.queues[v].pop_front().expect("front checked above");
                flit.set_vc(vc);
                ni.streaming[v] = if flit.kind().is_tail() { None } else { Some(vc) };
                self.routers[rel].accept_flit(sh.mesh, sh.cfg, Dir::Local, flit, cycle, cap);
                self.lane.buffered += 1;
                self.ni_backlogs[rel] -= 1;
                self.lane.stats.ni_drained += 1;
                self.lane.stats.injected_flits += 1;
                self.mark_router(node);
                self.nis[rel].rr = (v + 1) % vnets;
                pushed = true;
                break;
            }
            if !pushed {
                break;
            }
        }
        self.ni_backlogs[rel] > 0
    }

    /// Pre-Phase-4 retire drain: removes reassembly entries for packets
    /// whose tail another shard dropped this cycle in its Phase 2 —
    /// before this shard's Phase 4 can eject more of their flits, exactly
    /// the serial remove-before-eject order.
    fn phase4_retires(&mut self, sh: &SharedCtx<'_>) {
        for from in 0..sh.tiles {
            if from == self.tile {
                continue;
            }
            let mut cell = lock(&sh.mail[from * sh.tiles + self.tile]);
            for pid in cell.retire.drain(..) {
                if let Some(partial) = self.lane.reassembly.remove(&pid) {
                    if let Some(head) = partial.head {
                        self.lane.freed.push(head.payload);
                    }
                }
            }
        }
    }

    /// Phase 4: router pipelines for the shard's worklist, ascending,
    /// survivors retained in order.
    fn phase4_routers(&mut self, sh: &SharedCtx<'_>, cycle: u64, tracer: &mut TracerHandle) {
        debug_assert!(self.lane.active_scratch.is_empty());
        std::mem::swap(&mut self.lane.active, &mut self.lane.active_scratch);
        let mut batch = std::mem::take(&mut self.lane.active_scratch);
        batch.sort_unstable();
        for &r in &batch {
            debug_assert!(self.work[r - self.node_start], "worklist entry without its flag");
            let still = self.run_router(sh, r, cycle, tracer);
            self.work[r - self.node_start] = still;
            if still {
                self.lane.active.push(r);
            }
        }
        batch.clear();
        self.lane.active_scratch = batch;
    }

    /// The sharded `Network::run_router` body.
    fn run_router(
        &mut self,
        sh: &SharedCtx<'_>,
        r: usize,
        cycle: u64,
        tracer: &mut TracerHandle,
    ) -> bool {
        let rel = r - self.node_start;
        let mut down = Router::NO_DOWN_PORTS;
        if sh.use_down {
            if let Some(f) = sh.fault {
                for d in Dir::ROUTER_DIRS {
                    if let Some(lid) = sh.link_of[r][d.index()] {
                        down[d.index()] = f.link_down(lid, cycle);
                    }
                }
            }
        }
        let mut departures = std::mem::take(&mut self.lane.departures);
        debug_assert!(departures.is_empty());
        {
            // Route computation happened eagerly at head acceptance.
            let router = &mut self.routers[rel];
            router.vc_allocate(sh.cfg, cycle, tracer);
            router.switch_allocate_into(sh.cfg, cycle, &down, &mut departures);
        }
        if !departures.is_empty() {
            self.xbar[rel].record(true);
            self.lane.stats.crossbar_transfers += departures.len() as u64;
        }
        for dep in departures.drain(..) {
            self.lane.buffered -= 1;
            if dep.in_port != Dir::Local {
                let upstream = sh
                    .mesh
                    .neighbor(NodeId::new(r), dep.in_port)
                    .expect("flit arrived from a connected port");
                self.send_credit(sh, CreditMsg {
                    router: upstream.index(),
                    port: dep.in_port.opposite(),
                    vc: dep.in_vc,
                    frees_vc: dep.was_tail,
                });
            }
            if dep.out_port == Dir::Local {
                self.eject(r, dep.flit, cycle);
            } else {
                let lid = sh.link_of[r][dep.out_port.index()]
                    .expect("departure through a connected port");
                let rel_lid = lid - self.links_base;
                self.linkser[rel_lid].record(true);
                let to = self.links[rel_lid].to_router;
                let reader = shard_of(sh.node_bounds, to);
                if reader == self.tile {
                    debug_assert!(
                        self.links[rel_lid].slot.is_none(),
                        "link carries one flit per cycle"
                    );
                    self.links[rel_lid].slot = Some(dep.flit);
                    self.lane.occupied_links.push(lid);
                } else {
                    let in_port = self.links[rel_lid].in_port;
                    lock(&sh.mail[self.tile * sh.tiles + reader]).flits.push(BoundaryFlit {
                        lid,
                        to,
                        in_port,
                        flit: dep.flit,
                    });
                }
            }
        }
        self.lane.departures = departures;
        self.routers[rel].buffered_flits() > 0
    }

    /// The sharded `Network::eject` body (no tracer events). Payload
    /// resolution needs the pool, which lives on the serial `Network`, so
    /// a completed packet is staged for the batch epilogue instead of
    /// being built here.
    fn eject(&mut self, node: usize, flit: Flit, cycle: u64) {
        let pid = flit.packet_id;
        let is_tail = flit.kind().is_tail();
        let entry = self
            .lane
            .reassembly
            .entry(pid)
            .or_insert(Partial { head: None, flits: 0, corrupted: false, dst: node });
        entry.flits += 1;
        entry.corrupted |= flit.corrupted();
        if flit.kind().is_head() {
            match &entry.head {
                Some(kept) => {
                    self.lane.stats.protocol_errors.duplicate_head += 1;
                    // A true duplicate shares the kept head's ref (one
                    // pool insert per packet); free only a genuinely
                    // distinct orphaned slot.
                    if kept.payload != flit.payload {
                        self.lane.freed.push(flit.payload);
                    }
                }
                None => entry.head = Some(flit),
            }
        }
        if is_tail {
            let Some(partial) = self.lane.reassembly.remove(&pid) else { return };
            let Some(head) = partial.head else {
                self.lane.stats.protocol_errors.tail_without_head += 1;
                self.lane.stats.lost_packets += 1;
                return;
            };
            self.lane.ejections.push(StagedEject {
                node,
                delivered_at: cycle,
                flits: partial.flits,
                corrupted: partial.corrupted || head.corrupted(),
                head,
            });
        }
    }

    /// Phase 5: occupancy samples for the shard's routers. Bucket counts
    /// commute across shards, so the merged CDF equals the serial one.
    fn phase5_occupancy(&mut self, sh: &SharedCtx<'_>) {
        let zeros = ((self.node_end - self.node_start) - self.lane.active.len()) as u64;
        debug_assert_eq!(
            zeros,
            self.routers.iter().filter(|r| r.buffered_flits() == 0).count() as u64,
            "post-Phase-4 worklist must equal the set of occupied routers"
        );
        for i in 0..self.lane.active.len() {
            let r = self.lane.active[i];
            let buffered = self.routers[r - self.node_start].buffered_flits();
            debug_assert!(buffered > 0);
            self.lane.stats.occupancy.record(buffered as f64 / sh.per_router_capacity);
        }
        self.lane.stats.occupancy.record_zeros(zeros);
    }

    /// Quiescence vote input: own worklists plus every inbound mailbox
    /// cell (all peers' sends completed before the vote barrier).
    fn has_work(&self, sh: &SharedCtx<'_>) -> bool {
        if self.lane.has_own_work() {
            return true;
        }
        (0..sh.tiles).any(|from| !lock(&sh.mail[from * sh.tiles + self.tile]).is_empty())
    }
}

/// One worker thread's batch loop: `max_cycles` barrier-synchronized
/// cycles, breaking early once every shard votes quiescent. All workers
/// observe identical votes, so they break at the same cycle; worker 0
/// publishes the count.
fn worker(mut ctx: WorkerCtx<'_>, sh: &SharedCtx<'_>) {
    let cap = sh.cfg.buffers_per_vc as usize;
    let mut tracer = TracerHandle::Nop;
    let mut in_window = sh.start_in_window;
    let mut done = sh.max_cycles;
    for i in 0..sh.max_cycles {
        let cycle = sh.start_cycle + i + 1;
        ctx.phase1_credits(sh);
        sh.barrier.wait();
        ctx.phase2_links(sh, cycle, cap);
        ctx.phase3_ni(sh, cycle);
        sh.barrier.wait();
        ctx.phase4_retires(sh);
        ctx.phase4_routers(sh, cycle, &mut tracer);
        ctx.phase5_occupancy(sh);
        // The per-worker mirror of `NetStats::end_cycle`: every worker
        // advances the same in-window count, so the rolls land on the
        // same cycles as the serial loop's.
        in_window += 1;
        if in_window >= sh.window {
            for s in ctx.xbar.iter_mut() {
                s.roll(cycle);
            }
            for s in ctx.linkser.iter_mut() {
                s.roll(cycle);
            }
            in_window = 0;
        }
        sh.barrier.wait();
        sh.busy[ctx.tile].store(ctx.has_work(sh), Ordering::SeqCst);
        sh.barrier.wait();
        if sh.busy.iter().all(|b| !b.load(Ordering::SeqCst)) {
            done = i + 1;
            break;
        }
    }
    if ctx.tile == 0 {
        sh.completed.store(done, Ordering::SeqCst);
    }
}

/// Steps the network up to `max_cycles` cycles with one scoped worker
/// thread per shard, then folds the per-shard stats deltas back into the
/// network totals in shard-index order. Returns the cycles actually
/// stepped (fewer than `max_cycles` only when every shard went
/// quiescent — the caller's clock-jump logic takes over).
pub(super) fn step_batch<P>(net: &mut Network<P>, max_cycles: u64) -> u64 {
    if max_cycles == 0 {
        return 0;
    }
    let Some(mut sh) = net.sharding.take() else { return 0 };
    for lane in &mut sh.lanes {
        lane.stats = LaneStats::default();
    }
    let tiles = sh.tiles;
    let start_cycle = net.cycle;
    let window = net.stats.sample_window();
    let start_in_window = net.stats.cycles_in_window();
    let use_down = net.fault.as_ref().is_some_and(FaultState::has_down_windows);
    let per_router_capacity = net.buffer_capacity as f64 / net.routers.len() as f64;
    let barrier = Barrier::new(tiles);
    let completed = AtomicU64::new(max_cycles);
    {
        let (crossbar, linkser) = net.stats.series_mut();
        let mut crossbar_s = split_ranges(crossbar, &sh.node_bounds).into_iter();
        let mut linkser_s = split_ranges(linkser, &sh.link_bounds).into_iter();
        let mut routers_s = split_ranges(&mut net.routers, &sh.node_bounds).into_iter();
        let mut nis_s = split_ranges(&mut net.nis, &sh.node_bounds).into_iter();
        let mut work_s = split_ranges(&mut net.work, &sh.node_bounds).into_iter();
        let mut ni_flag_s = split_ranges(&mut net.ni_flag, &sh.node_bounds).into_iter();
        let mut ni_backlogs_s = split_ranges(&mut net.ni_backlogs, &sh.node_bounds).into_iter();
        let mut links_s = split_ranges(&mut net.links, &sh.link_bounds).into_iter();
        let shared = SharedCtx {
            cfg: &net.cfg,
            mesh: &net.mesh,
            link_of: &net.link_of,
            fault: net.fault.as_ref(),
            mail: &sh.mail,
            busy: &sh.busy,
            node_bounds: &sh.node_bounds,
            barrier: &barrier,
            completed: &completed,
            tiles,
            start_cycle,
            max_cycles,
            use_down,
            per_router_capacity,
            window,
            start_in_window,
        };
        let mut ctxs = Vec::with_capacity(tiles);
        for (t, lane) in sh.lanes.iter_mut().enumerate() {
            ctxs.push(WorkerCtx {
                tile: t,
                node_start: sh.node_bounds[t],
                node_end: sh.node_bounds[t + 1],
                links_base: sh.link_bounds[t],
                routers: routers_s.next().expect("split covers every tile"),
                nis: nis_s.next().expect("split covers every tile"),
                work: work_s.next().expect("split covers every tile"),
                ni_flag: ni_flag_s.next().expect("split covers every tile"),
                ni_backlogs: ni_backlogs_s.next().expect("split covers every tile"),
                links: links_s.next().expect("split covers every tile"),
                xbar: crossbar_s.next().expect("split covers every tile"),
                linkser: linkser_s.next().expect("split covers every tile"),
                lane,
            });
        }
        std::thread::scope(|scope| {
            for ctx in ctxs {
                let shared = &shared;
                scope.spawn(move || worker(ctx, shared));
            }
        });
    }
    let done = completed.load(Ordering::SeqCst);
    debug_assert!(done >= 1 && done <= max_cycles);
    net.cycle = start_cycle + done;
    net.stats.set_cycles_in_window((start_in_window + done) % window);
    let mut buffered = 0;
    for lane in &mut sh.lanes {
        buffered += lane.buffered;
        {
            let d = &lane.stats;
            net.stats.occupancy.merge(&d.occupancy);
            net.stats.injected_flits += d.injected_flits;
            net.stats.crossbar_transfers += d.crossbar_transfers;
            net.stats.protocol_errors.merge(&d.protocol_errors);
            net.lost_packets += d.lost_packets;
            net.ni_backlog_total -= d.ni_drained;
            if let Some(f) = net.fault.as_mut() {
                f.merge_counters(&d.fault);
            }
        }
        // Deliveries and head-destruction releases touch the payload
        // pool, which only the serial epilogue may do; lanes resolve in
        // shard-index order, so slot recycling stays deterministic.
        resolve_pool_work(net, lane);
    }
    net.buffered_total = buffered;
    net.sharding = Some(sh);
    done
}
