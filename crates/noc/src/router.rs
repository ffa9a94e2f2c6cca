//! The virtual-channel router microarchitecture: input units, route
//! computation, separable VC / switch allocation and the crossbar.
//!
//! Each router is a canonical input-queued VC router. Per cycle it performs,
//! in order: **RC** (route computation — performed once per packet, at head
//! arrival, and cached in the input-VC state), **VA** (virtual-channel
//! allocation, atomic — a downstream VC is granted only when idle and
//! drained) and **SA/ST** (separable two-stage switch allocation followed
//! by crossbar traversal). Pipeline depth is modelled by gating switch
//! allocation until a flit has been buffered for `pipeline_stages - 1`
//! cycles, reproducing the 2/3/4-cycle per-hop latencies of the BiNoCHS /
//! AxNoC / DAPPER baselines.
//!
//! When [`NocConfig::priority_arbitration`] is set, both allocators
//! round-robin over communication-class requests first and consider
//! SnackNoC instruction/data flits only if no communication flit requests
//! the resource (paper §III-D3).
//!
//! ## Request sets
//!
//! The allocators never scan all ports × VCs. VA works on `VcSet`s of
//! flat input-VC indices `port * vcs + vc`. Each output port keeps a
//! *waiting* set (routed heads whose route is that output) and an *open*
//! set (input VCs whose vnet still has a free output VC there; every
//! input VC for `Local`). Head acceptance, VA grants and
//! `Router::free_output_vc` keep both current, so VA visits only the
//! outputs whose two sets intersect and walks each intersection once, in
//! round-robin order from `va_rr`: nearly every head it visits is granted.
//! SA keeps a `u64` per input port of VCs holding an output VC
//! (`active_mask`), and per output port masks of free (`free_mask`) and
//! credited (`credit_mask`) VCs. Stage 1 asks only ports with an active
//! VC to nominate; each nomination sets the input port's bit in a 5-bit
//! request mask of its output (one per class under priority arbitration),
//! and stage 2 visits only the outputs that got a request, granting the
//! first set bit at or after the output's pointer. [`NocConfig::validate`]
//! caps `vcs_per_port` at 64, so a port's VCs fit one word and a set
//! `SET_WORDS` words. Debug builds cross-check every set and mask
//! against a fresh scan of the state it summarizes.
//!
//! ## Flat storage
//!
//! Input-VC records, their rings of slot indices and output credits are
//! flat arrays indexed `port * vcs + vc`, and all of a router's flits
//! share one slot array whose freed slots are reused last-freed first, so
//! a busy router's flits stay in a few hot cache lines (DESIGN.md §16).
//! VA and SA read only the VC records, sets and masks, plus, for the
//! pipeline gate, the front flit of a VC that could otherwise traverse.

use crate::config::NocConfig;
use crate::flit::Flit;
use crate::routing::{xy_dir, Dir};
use crate::topology::{Mesh, NodeId};
use snacknoc_trace::{EventKind, TracerHandle};
use std::sync::Arc;

/// State of an input virtual channel's resident packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VcState {
    /// No packet resident.
    Idle,
    /// Head flit arrived and was routed; waiting for an output VC. The
    /// cached `out_port` is the packet's route decision for this hop —
    /// computed once, never re-derived per cycle.
    Routed { out_port: Dir },
    /// Output VC allocated; flits may compete for the switch.
    Active { out_port: Dir, out_vc: u8 },
}

/// One input virtual channel: its packet's state and where its flits sit
/// in the router's slot ring.
#[derive(Clone, Copy, Debug)]
struct InputVc {
    state: VcState,
    /// Whether the resident packet is SnackNoC traffic, cached when its
    /// head arrives. A VC holds one packet at a time (atomic VC reuse),
    /// so every flit behind the head shares its class.
    snack: bool,
    /// This VC's vnet, `vc / vcs_per_vnet`, which is also its packet's.
    vnet: u8,
    /// This VC's input port and index within it, so that a walk over
    /// flat indices needs no division.
    port: u8,
    vc: u8,
    /// Ring position of the front flit.
    head: u8,
    /// Flits buffered.
    len: u8,
}

/// Index into a router's flit-slot array. A router at
/// [`NocConfig::validate`]'s limits buffers 5 × 64 × 255 = 81,600 flits,
/// more than `u16` can address.
type Slot = u32;

/// The bits `lo..hi` of a `u64`, set.
fn range_mask(lo: usize, hi: usize) -> u64 {
    debug_assert!(lo <= hi && hi <= 64);
    let below_hi = if hi == 64 { u64::MAX } else { (1u64 << hi) - 1 };
    let below_lo = if lo == 64 { u64::MAX } else { (1u64 << lo) - 1 };
    below_hi & !below_lo
}

/// Words in a [`VcSet`]: [`NocConfig::validate`]'s limit of 64 VCs on
/// each of the five ports is 320 flat input VCs.
const SET_WORDS: usize = Dir::COUNT;

/// A set of flat input-VC indices `port * vcs + vc`, one bit each. A
/// router's sets use only its low `words` words, so operations over the
/// whole set take that count: the default, BiNoCHS and AxNoC routers (60
/// input VCs) touch one word and DAPPER's (75) two.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct VcSet([u64; SET_WORDS]);

impl VcSet {
    fn insert(&mut self, i: usize) {
        self.0[i >> 6] |= 1 << (i & 63);
    }

    fn remove(&mut self, i: usize) {
        self.0[i >> 6] &= !(1 << (i & 63));
    }

    fn is_empty(&self, words: usize) -> bool {
        self.0[..words].iter().all(|&w| w == 0)
    }

    fn len(&self, words: usize) -> usize {
        self.0[..words].iter().map(|w| w.count_ones() as usize).sum()
    }

    fn intersects(&self, other: &VcSet, words: usize) -> bool {
        (0..words).any(|w| self.0[w] & other.0[w] != 0)
    }

    fn union_with(&mut self, other: &VcSet, words: usize) {
        for w in 0..words {
            self.0[w] |= other.0[w];
        }
    }

    fn subtract(&mut self, other: &VcSet, words: usize) {
        for w in 0..words {
            self.0[w] &= !other.0[w];
        }
    }
}

/// The word visits of a round-robin walk from flat index `from` over
/// the first `words` words of a [`VcSet`]: `(word, mask)` pairs, first
/// `from`'s word masked to the bits at or above it, then each other word
/// in turn, and last `from`'s word again masked to the bits below it.
fn rotation(words: usize, from: usize) -> impl Iterator<Item = (usize, u64)> {
    let (first, below) = (from >> 6, (1u64 << (from & 63)) - 1);
    (0..=words).map(move |k| {
        let mut w = first + k;
        if w >= words {
            w -= words;
        }
        let part = match k {
            0 => !below,
            _ if k == words => below,
            _ => !0,
        };
        (w, part)
    })
}

/// Lookup tables that every router of a network shares: one copy per
/// network, however many routers.
#[derive(Debug)]
pub(crate) struct RouterTables {
    /// Per vnet, its flat input VCs on all five ports: the members an
    /// output's open set gains or loses with the vnet's last free VC.
    vnet_inputs: Vec<VcSet>,
    /// Every node's `(x, y)` mesh coordinates, so that routing a head
    /// divides nothing.
    coords: Vec<(u16, u16)>,
}

impl RouterTables {
    pub(crate) fn new(cfg: &NocConfig, mesh: &Mesh) -> Arc<RouterTables> {
        let (vcs, per_vnet) = (cfg.vcs_per_port(), usize::from(cfg.vcs_per_vnet));
        let mut vnet_inputs = vec![VcSet::default(); usize::from(cfg.vnets)];
        for port in 0..Dir::COUNT {
            for (vnet, set) in vnet_inputs.iter_mut().enumerate() {
                for i in port * vcs + vnet * per_vnet..port * vcs + (vnet + 1) * per_vnet {
                    set.insert(i);
                }
            }
        }
        // Nodes are numbered row by row.
        let (cols, rows) = (mesh.cols() as u16, mesh.rows() as u16);
        let coords = (0..rows).flat_map(|y| (0..cols).map(move |x| (x, y))).collect();
        Arc::new(RouterTables { vnet_inputs, coords })
    }
}

/// A flit leaving the router through the crossbar this cycle. The flit
/// itself, already stamped with its downstream VC and hop, stays in its
/// freed slot until the router next accepts a flit; read it with
/// [`Router::departed`].
#[derive(Debug)]
pub(crate) struct Departure {
    /// The freed slot holding the flit.
    slot: Slot,
    /// Output port it leaves through (`Local` = ejection).
    pub out_port: Dir,
    /// Input port it occupied (`Local` = it was injected here).
    pub in_port: Dir,
    /// Input VC it occupied, for the upstream credit return.
    pub in_vc: u8,
    /// Whether this was the packet's tail (frees the upstream output VC).
    pub was_tail: bool,
}

/// A single mesh router with its input units, allocators and crossbar-side
/// output bookkeeping.
#[derive(Clone, Debug)]
pub(crate) struct Router {
    node: NodeId,
    /// This router's mesh coordinates, cached for route computation.
    at: (u16, u16),
    /// Virtual channels per port.
    vcs: usize,
    /// VCs per vnet, and a mask of that many low bits.
    per_vnet: usize,
    vnet_vcs: u64,
    /// The [`VcSet`] words that the `Dir::COUNT * vcs` flat input VCs
    /// fill.
    words: usize,
    /// Flit slots per input VC (`buffers_per_vc`).
    depth: usize,
    tables: Arc<RouterTables>,
    /// Input VCs, indexed `port * vcs + vc`.
    inputs: Vec<InputVc>,
    /// Per-input-VC rings of slot indices: VC `i` owns
    /// `ring[i * depth..(i + 1) * depth]`.
    ring: Vec<Slot>,
    /// Buffered flits of every input VC; a slot is either referenced by
    /// exactly one ring entry or on `free_slots`. Capacity for every
    /// buffer slot is reserved at construction, so stepping never
    /// reallocates, but slots are filled only as occupancy first reaches
    /// them.
    slots: Vec<Flit>,
    /// Unused entries of `slots`, reused last-freed first.
    free_slots: Vec<Slot>,
    /// Downstream credits per output VC, indexed `port * vcs + vc`; zero
    /// for `Local` (ejection has no VC/credit limits) and unconnected
    /// ports.
    credits: Vec<u8>,
    /// Whether each output port has a link (Local is always "connected").
    connected: [bool; Dir::COUNT],
    /// Per output port, the `Routed` input VCs whose route it is.
    waiting: [VcSet; Dir::COUNT],
    /// Per output port, the input VCs whose vnet has a free output VC
    /// there; every input VC for `Local`.
    open: [VcSet; Dir::COUNT],
    /// Bit `o` set iff `waiting[o]` is non-empty.
    waiting_ports: u8,
    /// Per-input-port bitmask of VCs in the `Active` state (SA candidates).
    active_mask: [u64; Dir::COUNT],
    /// Per-output-port bitmask of free (unallocated) downstream VCs.
    free_mask: [u64; Dir::COUNT],
    /// Per-output-port bitmask of downstream VCs holding ≥ 1 credit.
    credit_mask: [u64; Dir::COUNT],
    /// Round-robin pointer for VC allocation, over flat input VCs.
    va_rr: usize,
    /// Per-input-port round-robin pointer over VCs for SA stage 1.
    sa_in_rr: [usize; Dir::COUNT],
    /// Per-output-port round-robin pointer over input ports for SA stage 2.
    sa_out_rr: [usize; Dir::COUNT],
    /// Flits currently buffered across all input VCs.
    buffered: usize,
    /// Total router-to-router output VCs (constant after construction).
    useful_total: usize,
    /// Times a flit's hop counter saturated at `u32::MAX` instead of
    /// wrapping — nonzero only under pathological livelock, but counted
    /// rather than silently lost or panicked on.
    hops_saturations: u64,
}

const LOCAL: usize = Dir::Local as usize;

impl Router {
    /// The all-clear down-link mask: every output port usable.
    pub(crate) const NO_DOWN_PORTS: [bool; Dir::COUNT] = [false; Dir::COUNT];

    /// A router at `node` of `mesh`, sharing the network's `tables`.
    pub(crate) fn new(cfg: &NocConfig, mesh: &Mesh, node: NodeId, tables: &Arc<RouterTables>) -> Self {
        let vcs = cfg.vcs_per_port();
        let per_vnet = usize::from(cfg.vcs_per_vnet);
        let depth = cfg.buffers_per_vc as usize;
        let flat = Dir::COUNT * vcs;
        let mut connected = [false; Dir::COUNT];
        connected[LOCAL] = true;
        let mut credits = vec![0; flat];
        let mut free_mask = [0u64; Dir::COUNT];
        let mut credit_mask = [0u64; Dir::COUNT];
        let mut open = [VcSet::default(); Dir::COUNT];
        for vnet in &tables.vnet_inputs {
            open[LOCAL].union_with(vnet, SET_WORDS);
        }
        for d in Dir::ROUTER_DIRS {
            if mesh.neighbor(node, d).is_some() {
                connected[d.index()] = true;
                // Every connected output VC starts free with a full credit
                // stock, so every vnet is open.
                credits[d.index() * vcs..(d.index() + 1) * vcs].fill(cfg.buffers_per_vc);
                free_mask[d.index()] = range_mask(0, vcs);
                credit_mask[d.index()] = range_mask(0, vcs);
                open[d.index()] = open[LOCAL];
            }
        }
        let useful_total = vcs * Dir::ROUTER_DIRS.iter().filter(|d| connected[d.index()]).count();
        let capacity = flat * depth;
        let mut inputs = Vec::with_capacity(flat);
        for port in 0..Dir::COUNT as u8 {
            for vnet in 0..cfg.vnets {
                for k in 0..cfg.vcs_per_vnet {
                    let vc = vnet * cfg.vcs_per_vnet + k;
                    let (snack, head, len) = (false, 0, 0);
                    inputs.push(InputVc { state: VcState::Idle, snack, vnet, port, vc, head, len });
                }
            }
        }
        Router {
            node,
            at: tables.coords[node.index()],
            vcs,
            per_vnet,
            vnet_vcs: range_mask(0, per_vnet),
            words: flat.div_ceil(64),
            depth,
            tables: Arc::clone(tables),
            inputs,
            ring: vec![0; capacity],
            slots: Vec::with_capacity(capacity),
            free_slots: Vec::with_capacity(capacity),
            credits,
            connected,
            waiting: [VcSet::default(); Dir::COUNT],
            open,
            waiting_ports: 0,
            active_mask: [0; Dir::COUNT],
            free_mask,
            credit_mask,
            va_rr: 0,
            sa_in_rr: [0; Dir::COUNT],
            sa_out_rr: [0; Dir::COUNT],
            buffered: 0,
            useful_total,
            hops_saturations: 0,
        }
    }

    /// Number of flits buffered in this router's input units.
    pub(crate) fn buffered_flits(&self) -> usize {
        self.buffered
    }

    /// Times a flit's hop counter saturated in this router (see
    /// [`crate::Network::hops_saturations`]).
    pub(crate) fn hops_saturations(&self) -> u64 {
        self.hops_saturations
    }

    /// The flit of a departure this router's last switch allocation
    /// returned. Valid until the router accepts a flit.
    pub(crate) fn departed(&self, dep: &Departure) -> &Flit {
        &self.slots[dep.slot as usize]
    }

    /// The flits buffered in input VC `i`, front first.
    fn vc_flits(&self, i: usize) -> impl Iterator<Item = &Flit> + '_ {
        let InputVc { head, len, .. } = self.inputs[i];
        let ring = &self.ring[i * self.depth..(i + 1) * self.depth];
        (0..usize::from(len))
            .map(move |k| &self.slots[ring[(usize::from(head) + k) % self.depth] as usize])
    }

    /// Earliest `queued_at` among buffered flits — the age witness for
    /// stall reports. `None` when the router is empty.
    pub(crate) fn oldest_buffered_queued_at(&self) -> Option<u64> {
        (0..self.inputs.len()).flat_map(|i| self.vc_flits(i)).map(|f| f.queued_at).min()
    }

    /// Input VCs holding a routed packet that has not yet been granted an
    /// output VC — the "starved" population in a stall report.
    pub(crate) fn routed_waiting_vcs(&self) -> usize {
        let fast: usize = self.waiting.iter().map(|set| set.len(self.words)).sum();
        debug_assert_eq!(
            fast,
            self.inputs.iter().filter(|vc| matches!(vc.state, VcState::Routed { .. })).count(),
            "waiting sets out of sync"
        );
        fast
    }

    /// Writes an arriving flit into its input buffer. A head flit landing
    /// in an idle VC is route-computed *here*, once, and joins its
    /// output's waiting set — no per-cycle RC stage exists. (A VC left by
    /// a tail is provably empty, so a head can only ever arrive into an
    /// idle, empty VC.)
    ///
    /// # Panics
    ///
    /// Panics (debug) if credit-based flow control was violated.
    pub(crate) fn accept_flit(
        &mut self,
        in_port: Dir,
        mut flit: Flit,
        cycle: u64,
        cap: usize,
    ) {
        flit.buffered_at = cycle;
        let i = in_port.index() * self.vcs + flit.vc() as usize;
        let vc = &mut self.inputs[i];
        debug_assert!(usize::from(vc.len) < cap, "input buffer overflow: credit protocol violated");
        if vc.state == VcState::Idle {
            debug_assert!(vc.len == 0, "idle VC with buffered flits");
            debug_assert!(flit.kind().is_head(), "non-head flit arrived at an idle VC");
            debug_assert_eq!(flit.vnet(), vc.vnet);
            let out_port = xy_dir(self.at, self.tables.coords[flit.dst().index()]);
            vc.state = VcState::Routed { out_port };
            vc.snack = flit.class().is_snack();
            self.waiting[out_port.index()].insert(i);
            self.waiting_ports |= 1 << out_port.index();
        } else {
            // The cached class belongs to the resident packet.
            debug_assert!(!flit.kind().is_head(), "head flit arrived at a busy VC");
        }
        let mut at = usize::from(vc.head) + usize::from(vc.len);
        if at >= self.depth {
            at -= self.depth;
        }
        vc.len += 1;
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot as usize] = flit;
                slot
            }
            None => {
                let slot = Slot::try_from(self.slots.len())
                    .expect("validated configs bound a router at 81,600 flit slots");
                self.slots.push(flit);
                slot
            }
        };
        self.ring[i * self.depth + at] = slot;
        self.buffered += 1;
    }

    /// Whether the NI can start/continue streaming into a Local input VC.
    pub(crate) fn local_vc_accepts(&self, vc: usize, needs_idle: bool, cap: usize) -> bool {
        let v = &self.inputs[LOCAL * self.vcs + vc];
        if needs_idle {
            v.state == VcState::Idle && v.len == 0
        } else {
            usize::from(v.len) < cap
        }
    }

    /// Restores one credit for `(out_port, vc)` after a downstream buffer
    /// slot drained.
    pub(crate) fn return_credit(&mut self, out_port: Dir, vc: u8, max: u8) {
        let credits = &mut self.credits[out_port.index() * self.vcs + vc as usize];
        *credits += 1;
        self.credit_mask[out_port.index()] |= 1u64 << vc;
        debug_assert!(*credits <= max, "credit overflow");
    }

    /// Marks `(out_port, vc)` free after the downstream VC drained a tail.
    /// The first free VC of its vnet opens the output to that vnet's
    /// input VCs again.
    pub(crate) fn free_output_vc(&mut self, out_port: Dir, vc: u8) {
        let o = out_port.index();
        // Input VC `vc` of port 0 shares output VC `vc`'s vnet.
        let vnet = usize::from(self.inputs[usize::from(vc)].vnet);
        if (self.free_mask[o] >> (vnet * self.per_vnet)) & self.vnet_vcs == 0 {
            self.open[o].union_with(&self.tables.vnet_inputs[vnet], self.words);
        }
        self.free_mask[o] |= 1u64 << vc;
    }

    /// Counts `(free, total)` *useful* free output VCs — free and holding at
    /// least one credit — across the router-to-router output ports. This is
    /// the ALO-style congestion signal the SnackNoC CPM monitors
    /// (paper §III-C2, after Baydal et al.). A handful of popcounts: the
    /// free/credit bitmasks are maintained at every transition instead of
    /// rescanned per probe.
    pub(crate) fn useful_free_output_vcs(&self) -> (usize, usize) {
        let free: usize = Dir::ROUTER_DIRS
            .iter()
            .map(|d| (self.free_mask[d.index()] & self.credit_mask[d.index()]).count_ones() as usize)
            .sum();
        debug_assert_eq!(
            (free, self.useful_total),
            self.recount_useful_free_output_vcs(),
            "free/credit bitmasks out of sync"
        );
        (free, self.useful_total)
    }

    /// Reference recount of the congestion probe (debug verification of
    /// the credit bitmask).
    fn recount_useful_free_output_vcs(&self) -> (usize, usize) {
        let mut free = 0;
        let mut total = 0;
        for d in Dir::ROUTER_DIRS.into_iter().filter(|d| self.connected[d.index()]) {
            for vc in 0..self.vcs {
                total += 1;
                if self.free_mask[d.index()] & (1u64 << vc) != 0
                    && self.credits[d.index() * self.vcs + vc] > 0
                {
                    free += 1;
                }
            }
        }
        (free, total)
    }

    /// Debug cross-check: every set and bitmask agrees with a fresh scan
    /// of the state it summarizes, and every flit slot is either buffered
    /// in exactly one VC or free.
    #[cfg(debug_assertions)]
    fn consistent(&self) -> bool {
        let mut buffered = 0;
        let mut waiting = [VcSet::default(); Dir::COUNT];
        let mut open = [VcSet::default(); Dir::COUNT];
        for port in 0..Dir::COUNT {
            let mut active = 0u64;
            let mut credited = 0u64;
            for vc in 0..self.vcs {
                let i = port * self.vcs + vc;
                let input = &self.inputs[i];
                let vnet = vc / self.per_vnet;
                if (usize::from(input.port), usize::from(input.vc), usize::from(input.vnet))
                    != (port, vc, vnet)
                {
                    return false;
                }
                match input.state {
                    VcState::Idle => {}
                    VcState::Routed { out_port } => waiting[out_port.index()].insert(i),
                    VcState::Active { .. } => active |= 1 << vc,
                }
                for (o, set) in open.iter_mut().enumerate() {
                    let vnet_free = range_mask(vnet * self.per_vnet, (vnet + 1) * self.per_vnet);
                    if o == LOCAL || self.free_mask[o] & vnet_free != 0 {
                        set.insert(i);
                    }
                }
                buffered += usize::from(input.len);
                if self.credits[i] > 0 {
                    credited |= 1 << vc;
                }
            }
            let has_output_vcs = self.connected[port] && port != LOCAL;
            let outputs = if has_output_vcs { range_mask(0, self.vcs) } else { 0 };
            if active != self.active_mask[port]
                || credited != self.credit_mask[port]
                || self.free_mask[port] & !outputs != 0
            {
                return false;
            }
        }
        let waits = |o: usize| self.waiting_ports & (1 << o) != 0;
        (0..Dir::COUNT).all(|o| waits(o) != waiting[o].is_empty(SET_WORDS))
            && waiting == self.waiting
            && open == self.open
            && buffered == self.buffered
            && self.free_slots.len() + buffered == self.slots.len()
    }

    /// VA stage: grant free downstream VCs to routed packets, communication
    /// class first when priority arbitration is on. Each grant is reported
    /// to `tracer` (a no-op for [`TracerHandle::Nop`]).
    ///
    /// Grants follow flat `port * vcs + vc` order from `va_rr`, wrapping.
    /// Outputs are independent — a head waits on one output and takes a
    /// VC only there — so each output whose waiting and open sets
    /// intersect walks that intersection once, in that order, and a
    /// router with no waiting head only advances the pointer. No flit is
    /// read: the packet's vnet and class are cached in the VC record, and
    /// an ejecting packet keeps its input VC. The grants' trace events
    /// are emitted afterwards, in the same flat order.
    pub(crate) fn vc_allocate(&mut self, cfg: &NocConfig, cycle: u64, tracer: &mut TracerHandle) {
        #[cfg(debug_assertions)]
        debug_assert!(self.consistent());
        let from = self.va_rr;
        self.va_rr += 1;
        if self.va_rr == self.inputs.len() {
            self.va_rr = 0;
        }
        if self.waiting_ports == 0 {
            return;
        }
        let passes: &[Option<bool>] = if cfg.priority_arbitration {
            // Communication only, then snack only.
            &[Some(false), Some(true)]
        } else {
            &[None]
        };
        let mut granted = VcSet::default();
        let mut ports = self.waiting_ports;
        while ports != 0 {
            let o = ports.trailing_zeros() as usize;
            ports &= ports - 1;
            if !self.waiting[o].intersects(&self.open[o], self.words) {
                continue;
            }
            for &class in passes {
                self.grant_output(o, from, class, &mut granted);
            }
            if self.waiting[o].is_empty(self.words) {
                self.waiting_ports &= !(1 << o);
            }
        }
        if !tracer.is_enabled() {
            return;
        }
        for &class in passes {
            for (w, part) in rotation(self.words, from) {
                let mut bits = granted.0[w] & part;
                while bits != 0 {
                    let vc = &self.inputs[w * 64 + bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                    let VcState::Active { out_port, out_vc } = vc.state else {
                        unreachable!("a granted VC is active")
                    };
                    if class.is_none_or(|snack| vc.snack == snack) {
                        tracer.record_with(cycle, || EventKind::VcAlloc {
                            router: self.node.index() as u32,
                            in_port: vc.port,
                            in_vc: vc.vc,
                            out_port: out_port.index() as u8,
                            out_vc,
                        });
                    }
                }
            }
        }
    }

    /// Grants output `o` to the waiting, open heads of `class` (`None`:
    /// every class), in flat order from `from`, adding each to `granted`.
    /// Each word is read when the walk reaches it, so a vnet closed by an
    /// earlier grant has dropped out; a grant that takes its vnet's last
    /// free VC closes the output to that vnet, for later cycles and for
    /// the rest of the current word.
    fn grant_output(&mut self, o: usize, from: usize, class: Option<bool>, granted: &mut VcSet) {
        let out_port = Dir::ALL[o];
        let words = self.words;
        for (w, part) in rotation(words, from) {
            let mut bits = self.waiting[o].0[w] & self.open[o].0[w] & part;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let vc = self.inputs[i];
                debug_assert!(vc.state == VcState::Routed { out_port } && vc.len > 0);
                if class.is_some_and(|snack| vc.snack != snack) {
                    continue;
                }
                let out_vc = if o == LOCAL {
                    // Ejection has no VC contention: the NI reassembles
                    // any number of interleaved packets.
                    vc.vc
                } else {
                    let lo = usize::from(vc.vnet) * self.per_vnet;
                    let free = (self.free_mask[o] >> lo) & self.vnet_vcs;
                    debug_assert!(free != 0, "an open vnet has a free output VC");
                    if free & (free - 1) == 0 {
                        let vnet = &self.tables.vnet_inputs[usize::from(vc.vnet)];
                        self.open[o].subtract(vnet, words);
                        bits &= !vnet.0[w];
                    }
                    let out_vc = lo + free.trailing_zeros() as usize;
                    self.free_mask[o] &= !(1u64 << out_vc);
                    out_vc as u8
                };
                self.inputs[i].state = VcState::Active { out_port, out_vc };
                self.waiting[o].remove(i);
                self.active_mask[usize::from(vc.port)] |= 1u64 << vc.vc;
                granted.insert(i);
            }
        }
    }

    /// SA + ST: separable two-stage switch allocation, then crossbar
    /// traversal of the winners. Returns the departing flits.
    ///
    /// `down` masks output ports whose link is inside a fault window:
    /// flits headed there are simply not ready, exactly as if the
    /// downstream receiver stopped returning credits. Pass
    /// [`Router::NO_DOWN_PORTS`] when fault injection is off.
    ///
    /// Convenience wrapper over [`Router::switch_allocate_into`]; the
    /// network hot loop uses the `_into` form with a reused scratch
    /// buffer, so this allocating form survives only for unit tests.
    #[cfg(test)]
    pub(crate) fn switch_allocate(
        &mut self,
        cfg: &NocConfig,
        cycle: u64,
        down: &[bool; Dir::COUNT],
    ) -> Vec<tests::Sent> {
        let mut departures = Vec::new();
        self.switch_allocate_into(cfg, cycle, down, &mut departures);
        departures
            .into_iter()
            .map(|d| tests::Sent {
                flit: *self.departed(&d),
                out_port: d.out_port,
                in_port: d.in_port,
                in_vc: d.in_vc,
                was_tail: d.was_tail,
            })
            .collect()
    }

    /// [`Router::switch_allocate`] writing into a caller-owned scratch
    /// buffer — the allocation-free hot-loop entry point. `out` is
    /// appended to (the network's per-cycle loop hands in a cleared,
    /// capacity-warm scratch vector).
    pub(crate) fn switch_allocate_into(
        &mut self,
        cfg: &NocConfig,
        cycle: u64,
        down: &[bool; Dir::COUNT],
        out: &mut Vec<Departure>,
    ) {
        #[cfg(debug_assertions)]
        debug_assert!(self.consistent());
        // A flit spends `pipeline_stages - 1` cycles in the router before
        // link traversal, giving the per-hop latencies of paper §III-D2.
        let extra = cfg.pipeline_extra();
        let priority = cfg.priority_arbitration;
        let passes: &[Option<bool>] = if priority { &[Some(false), Some(true)] } else { &[None] };
        // Stage 1: each input port with an active VC nominates its first
        // ready VC at or after its pointer and sets its bit in the request
        // mask of the nominee's output: `requests[1]` for snack requests
        // under priority arbitration, `requests[0]` for the rest.
        let mut nominated = [0usize; Dir::COUNT];
        let mut requests = [[0u32; Dir::COUNT]; 2];
        let mut requested = 0u32;
        let mut ports = 0u32;
        for (port, &active) in self.active_mask.iter().enumerate() {
            ports |= u32::from(active != 0) << port;
        }
        while ports != 0 {
            let port = ports.trailing_zeros() as usize;
            ports &= ports - 1;
            let active = self.active_mask[port];
            let upper = active & (!0u64 << self.sa_in_rr[port]);
            'pick: for &class in passes {
                for mut bits in [upper, active & !upper] {
                    while bits != 0 {
                        let vc = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let i = port * self.vcs + vc;
                        let snack = self.inputs[i].snack;
                        if class.is_some_and(|want| snack != want) {
                            continue;
                        }
                        let Some(out_port) = self.vc_ready(i, cycle, extra, down) else {
                            continue;
                        };
                        self.sa_in_rr[port] = if vc + 1 == self.vcs { 0 } else { vc + 1 };
                        nominated[port] = vc;
                        requests[usize::from(priority && snack)][out_port.index()] |= 1 << port;
                        requested |= 1 << out_port.index();
                        break 'pick;
                    }
                }
            }
        }
        // Stage 2: each output with a request grants the first requesting
        // input port at or after its round-robin pointer, communication
        // class first. An input port requests one output, so it sends at
        // most one flit.
        while requested != 0 {
            let out_port = requested.trailing_zeros() as usize;
            requested &= requested - 1;
            let mask = if requests[0][out_port] != 0 {
                requests[0][out_port]
            } else {
                requests[1][out_port]
            };
            let rr = self.sa_out_rr[out_port];
            let rotated = (mask >> rr | mask << (Dir::COUNT - rr)) & ((1 << Dir::COUNT) - 1);
            let mut in_port = rr + rotated.trailing_zeros() as usize;
            if in_port >= Dir::COUNT {
                in_port -= Dir::COUNT;
            }
            self.sa_out_rr[out_port] = if in_port + 1 == Dir::COUNT { 0 } else { in_port + 1 };
            out.push(self.traverse(in_port, nominated[in_port]));
        }
    }

    /// The output port the `Active` input VC `i` can traverse to this
    /// cycle, if any. Credits and the down mask are checked first, so the
    /// front flit is read only for a VC that can otherwise go.
    fn vc_ready(&self, i: usize, cycle: u64, extra: u64, down: &[bool; Dir::COUNT]) -> Option<Dir> {
        let vc = &self.inputs[i];
        let VcState::Active { out_port, out_vc } = vc.state else { return None };
        if vc.len == 0 {
            return None;
        }
        if out_port != Dir::Local
            && (down[out_port.index()]
                || self.credit_mask[out_port.index()] & (1u64 << out_vc) == 0)
        {
            return None;
        }
        let front = &self.slots[self.ring[i * self.depth + usize::from(vc.head)] as usize];
        (cycle >= front.buffered_at + extra).then_some(out_port)
    }

    /// ST: pops the granted flit, charges credits, advances VC state.
    fn traverse(&mut self, in_port: usize, vc_idx: usize) -> Departure {
        let i = in_port * self.vcs + vc_idx;
        let vc = &mut self.inputs[i];
        let VcState::Active { out_port, out_vc } = vc.state else {
            unreachable!("traverse on non-active VC")
        };
        assert!(vc.len > 0, "traverse on empty VC");
        let slot = self.ring[i * self.depth + usize::from(vc.head)];
        let next = usize::from(vc.head) + 1;
        vc.head = if next == self.depth { 0 } else { next as u8 };
        vc.len -= 1;
        let flit = &mut self.slots[slot as usize];
        self.free_slots.push(slot);
        self.buffered -= 1;
        let was_tail = flit.kind().is_tail();
        if was_tail {
            // Atomic VC reuse upstream guarantees the next packet's head
            // cannot be buffered yet — the invariant that makes routing at
            // head *arrival* (instead of a per-cycle RC stage) sound.
            debug_assert!(vc.len == 0, "flits buffered behind a departing tail");
            vc.state = VcState::Idle;
            self.active_mask[in_port] &= !(1u64 << vc_idx);
        }
        if out_port != Dir::Local {
            // Atomic VC reuse: the output VC stays allocated until the
            // downstream input VC signals that the tail drained.
            let credits = &mut self.credits[out_port.index() * self.vcs + out_vc as usize];
            debug_assert!(*credits > 0, "ST without credit");
            *credits -= 1;
            if *credits == 0 {
                self.credit_mask[out_port.index()] &= !(1u64 << out_vc);
            }
            if flit.hops == u32::MAX {
                self.hops_saturations += 1;
            } else {
                flit.hops += 1;
            }
            flit.set_vc(out_vc);
        }
        let in_port = Dir::from_index(in_port);
        Departure { slot, out_port, in_port, in_vc: vc_idx as u8, was_tail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, TrafficClass};
    use crate::pool::PayloadRef;
    use snacknoc_prng::Rng;
    use std::collections::VecDeque;

    /// A [`Departure`] with its flit copied out, for assertions.
    pub(crate) struct Sent {
        pub flit: Flit,
        pub out_port: Dir,
        pub in_port: Dir,
        pub in_vc: u8,
        pub was_tail: bool,
    }

    fn router(cfg: &NocConfig, mesh: &Mesh, node: NodeId) -> Router {
        Router::new(cfg, mesh, node, &RouterTables::new(cfg, mesh))
    }

    fn test_cfg() -> NocConfig {
        NocConfig::default().with_vnets(1).with_vcs_per_vnet(2).with_buffers_per_vc(4)
    }

    fn flit(dst: NodeId, kind: FlitKind, class: TrafficClass, vc: u8) -> Flit {
        let mut f = Flit::new(
            0,
            0,
            kind,
            class,
            0,
            NodeId::new(0),
            dst,
            0,
            PayloadRef::NONE,
            false,
        );
        f.set_vc(vc);
        f
    }

    #[test]
    fn range_mask_covers_edges() {
        assert_eq!(range_mask(0, 0), 0);
        assert_eq!(range_mask(0, 1), 1);
        assert_eq!(range_mask(0, 64), u64::MAX);
        assert_eq!(range_mask(63, 64), 1 << 63);
        assert_eq!(range_mask(2, 5), 0b11100);
        assert_eq!(range_mask(64, 64), 0);
    }

    #[test]
    fn single_flit_departs_toward_destination() {
        let cfg = test_cfg();
        let mesh = Mesh::new(4, 4);
        let mut r = router(&cfg, &mesh, mesh.node_at(1, 1));
        let f = flit(mesh.node_at(3, 1), FlitKind::HeadTail, TrafficClass::Communication, 0);
        r.accept_flit(Dir::West, f, 0, 4);
        assert_eq!(r.buffered_flits(), 1);
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        let deps = r.switch_allocate(&cfg, 10, &Router::NO_DOWN_PORTS);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].out_port, Dir::East);
        assert_eq!(deps[0].in_port, Dir::West);
        assert!(deps[0].was_tail);
        assert_eq!(deps[0].flit.hops(), 1);
        assert_eq!(r.buffered_flits(), 0);
    }

    #[test]
    fn ejection_at_destination() {
        let cfg = test_cfg();
        let mesh = Mesh::new(4, 4);
        let node = mesh.node_at(2, 2);
        let mut r = router(&cfg, &mesh, node);
        r.accept_flit(
            Dir::North,
            flit(node, FlitKind::HeadTail, TrafficClass::Communication, 1),
            0,
            4,
        );
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        let deps = r.switch_allocate(&cfg, 10, &Router::NO_DOWN_PORTS);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].out_port, Dir::Local);
        assert_eq!(deps[0].flit.hops(), 0, "ejection is not a hop");
    }

    #[test]
    fn pipeline_depth_gates_switch_allocation() {
        let cfg = test_cfg().with_pipeline_stages(4); // 3 router cycles buffered
        let mesh = Mesh::new(4, 4);
        let mut r = router(&cfg, &mesh, mesh.node_at(1, 1));
        r.accept_flit(
            Dir::West,
            flit(mesh.node_at(3, 1), FlitKind::HeadTail, TrafficClass::Communication, 0),
            10,
            4,
        );
        r.vc_allocate(&cfg, 10, &mut TracerHandle::Nop);
        assert!(r.switch_allocate(&cfg, 10, &Router::NO_DOWN_PORTS).is_empty(), "too early at t");
        assert!(r.switch_allocate(&cfg, 11, &Router::NO_DOWN_PORTS).is_empty(), "too early at t+1");
        assert!(r.switch_allocate(&cfg, 12, &Router::NO_DOWN_PORTS).is_empty(), "too early at t+2");
        assert_eq!(
            r.switch_allocate(&cfg, 13, &Router::NO_DOWN_PORTS).len(),
            1,
            "ready at t + (stages-1)"
        );
    }

    #[test]
    fn credits_block_traversal() {
        let cfg = test_cfg().with_buffers_per_vc(1);
        let mesh = Mesh::new(4, 4);
        let mut r = router(&cfg, &mesh, mesh.node_at(1, 1));
        let dst = mesh.node_at(3, 1);
        // Two single-flit packets from different VCs toward the same output.
        r.accept_flit(Dir::West, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 0), 0, 1);
        r.accept_flit(Dir::North, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 0), 0, 1);
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        // First wins the only free VC/credit pair on vc0; second got vc1.
        let d1 = r.switch_allocate(&cfg, 5, &Router::NO_DOWN_PORTS);
        assert_eq!(d1.len(), 1, "both VCs have a credit, but one output port grant per cycle");
        let d2 = r.switch_allocate(&cfg, 6, &Router::NO_DOWN_PORTS);
        assert_eq!(d2.len(), 1);
        assert_ne!(d1[0].flit.vc(), d2[0].flit.vc(), "packets allocated distinct output VCs");
        // Credits now exhausted on both VCs.
        r.accept_flit(Dir::West, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 1), 6, 1);
        r.vc_allocate(&cfg, 6, &mut TracerHandle::Nop);
        assert!(
            r.switch_allocate(&cfg, 8, &Router::NO_DOWN_PORTS).is_empty(),
            "no credits and no free VCs: nothing may traverse"
        );
        // Returning a credit + freeing the VC unblocks it.
        r.return_credit(Dir::East, 0, 1);
        r.free_output_vc(Dir::East, 0);
        r.vc_allocate(&cfg, 8, &mut TracerHandle::Nop);
        assert_eq!(r.switch_allocate(&cfg, 9, &Router::NO_DOWN_PORTS).len(), 1);
    }

    #[test]
    fn priority_arbitration_prefers_communication() {
        let cfg = test_cfg().with_priority_arbitration(true);
        let mesh = Mesh::new(4, 4);
        let mut r = router(&cfg, &mesh, mesh.node_at(1, 1));
        let dst = mesh.node_at(3, 1);
        // Snack flit arrives first and would win round-robin.
        r.accept_flit(Dir::North, flit(dst, FlitKind::HeadTail, TrafficClass::SnackInstruction, 0), 0, 4);
        r.accept_flit(Dir::West, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 1), 0, 4);
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        let deps = r.switch_allocate(&cfg, 10, &Router::NO_DOWN_PORTS);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].flit.class(), TrafficClass::Communication);
        let deps = r.switch_allocate(&cfg, 11, &Router::NO_DOWN_PORTS);
        assert_eq!(deps[0].flit.class(), TrafficClass::SnackInstruction);
    }

    #[test]
    fn down_mask_stalls_the_port_without_losing_flits() {
        let cfg = test_cfg();
        let mesh = Mesh::new(4, 4);
        let mut r = router(&cfg, &mesh, mesh.node_at(1, 1));
        let f = flit(mesh.node_at(3, 1), FlitKind::HeadTail, TrafficClass::Communication, 0);
        r.accept_flit(Dir::West, f, 0, 4);
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        let mut down = Router::NO_DOWN_PORTS;
        down[Dir::East.index()] = true;
        assert!(r.switch_allocate(&cfg, 10, &down).is_empty(), "east link is down");
        assert_eq!(r.buffered_flits(), 1, "the flit waits in its buffer");
        assert_eq!(r.routed_waiting_vcs(), 0, "it already holds an output VC");
        assert_eq!(r.oldest_buffered_queued_at(), Some(0));
        // The window closes: traversal resumes exactly where it stalled.
        let deps = r.switch_allocate(&cfg, 11, &Router::NO_DOWN_PORTS);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].out_port, Dir::East);
        assert_eq!(r.buffered_flits(), 0);
        assert_eq!(r.oldest_buffered_queued_at(), None);
    }

    #[test]
    fn useful_free_vcs_counts_interior_router() {
        let cfg = test_cfg();
        let mesh = Mesh::new(4, 4);
        let r = router(&cfg, &mesh, mesh.node_at(1, 1));
        let (free, total) = r.useful_free_output_vcs();
        assert_eq!(total, 4 * cfg.vcs_per_port());
        assert_eq!(free, total);
        let corner = router(&cfg, &mesh, mesh.node_at(0, 0));
        let (_, corner_total) = corner.useful_free_output_vcs();
        assert_eq!(corner_total, 2 * cfg.vcs_per_port());
    }

    #[test]
    fn useful_free_counter_tracks_alloc_credit_and_free_transitions() {
        // Drive a VC through allocate -> credit exhaustion -> credit
        // return -> free and check the popcount probe against the recount
        // at every step (the accessor debug_asserts the match).
        let cfg = test_cfg().with_buffers_per_vc(1);
        let mesh = Mesh::new(4, 4);
        let mut r = router(&cfg, &mesh, mesh.node_at(1, 1));
        let dst = mesh.node_at(3, 1);
        let (free0, total) = r.useful_free_output_vcs();
        assert_eq!(free0, total);
        r.accept_flit(Dir::West, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 0), 0, 1);
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        let (after_alloc, _) = r.useful_free_output_vcs();
        assert_eq!(after_alloc, free0 - 1, "the granted VC leaves the useful pool");
        // Traversal spends the VC's only credit; it stays allocated, so the
        // probe is unchanged.
        assert_eq!(r.switch_allocate(&cfg, 5, &Router::NO_DOWN_PORTS).len(), 1);
        assert_eq!(r.useful_free_output_vcs().0, after_alloc);
        // Credit returns while still allocated: not yet useful.
        r.return_credit(Dir::East, 0, 1);
        assert_eq!(r.useful_free_output_vcs().0, after_alloc);
        // The tail drains downstream: the VC is free + credited again.
        r.free_output_vc(Dir::East, 0);
        assert_eq!(r.useful_free_output_vcs().0, free0);
        // Freeing a starved VC first, then crediting it, also re-arms it.
        r.accept_flit(Dir::West, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 0), 6, 1);
        r.vc_allocate(&cfg, 6, &mut TracerHandle::Nop);
        assert_eq!(r.switch_allocate(&cfg, 12, &Router::NO_DOWN_PORTS).len(), 1);
        r.free_output_vc(Dir::East, 0); // freed while credits == 0
        assert_eq!(r.useful_free_output_vcs().0, free0 - 1);
        r.return_credit(Dir::East, 0, 1); // credit arrives after the free
        assert_eq!(r.useful_free_output_vcs().0, free0);
    }

    #[test]
    fn wormhole_keeps_packet_on_one_output_vc() {
        let cfg = test_cfg();
        let mesh = Mesh::new(4, 4);
        let mut r = router(&cfg, &mesh, mesh.node_at(0, 0));
        let dst = mesh.node_at(3, 0);
        r.accept_flit(Dir::Local, flit(dst, FlitKind::Head, TrafficClass::Communication, 0), 0, 4);
        r.accept_flit(Dir::Local, flit(dst, FlitKind::Body, TrafficClass::Communication, 0), 0, 4);
        r.accept_flit(Dir::Local, flit(dst, FlitKind::Tail, TrafficClass::Communication, 0), 0, 4);
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        let mut out_vcs = Vec::new();
        for t in 5..8 {
            let deps = r.switch_allocate(&cfg, t, &Router::NO_DOWN_PORTS);
            assert_eq!(deps.len(), 1);
            out_vcs.push(deps[0].flit.vc());
        }
        assert!(out_vcs.windows(2).all(|w| w[0] == w[1]), "all flits share the output VC");
        assert_eq!(r.buffered_flits(), 0);
    }

    #[test]
    fn hop_counter_saturates_instead_of_wrapping() {
        let cfg = test_cfg();
        let mesh = Mesh::new(4, 4);
        let mut r = router(&cfg, &mesh, mesh.node_at(1, 1));
        let mut f = flit(mesh.node_at(3, 1), FlitKind::HeadTail, TrafficClass::Communication, 0);
        f.hops = u32::MAX;
        r.accept_flit(Dir::West, f, 0, 4);
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        let deps = r.switch_allocate(&cfg, 10, &Router::NO_DOWN_PORTS);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].flit.hops(), u32::MAX, "saturated, not wrapped");
        assert_eq!(r.hops_saturations(), 1, "the saturation is counted");
    }

    #[test]
    fn flat_storage_matches_a_fifo_model_through_wraparound_and_slot_reuse() {
        // Four VCs of three slots on one port, packets of one to five
        // flits: rings wrap within and across packets, and arrivals
        // interleave with traversals so freed slots are taken again.
        let cfg = NocConfig::default().with_vnets(1).with_vcs_per_vnet(4).with_buffers_per_vc(3);
        let (vcs, cap) = (cfg.vcs_per_port(), cfg.buffers_per_vc as usize);
        let mesh = Mesh::new(4, 4);
        let mut r = router(&cfg, &mesh, mesh.node_at(1, 1));
        let dst = mesh.node_at(3, 1);
        let base = Dir::West.index() * vcs;
        let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); vcs];
        // Flits of each VC's current packet not yet sent (0: between packets).
        let mut remaining = vec![0usize; vcs];
        let mut packets = vec![0usize; vcs];
        let (mut wrapped, mut reused) = (false, false);
        let mut rng = Rng::new(0x51AC_0015);
        let mut next_id = 0u64;
        for cycle in 0..3_000u64 {
            if rng.flip() {
                let vc = rng.range_usize(0..vcs);
                let i = base + vc;
                let starts = remaining[vc] == 0;
                if model[vc].len() == cap || (starts && r.inputs[i].state != VcState::Idle) {
                    continue;
                }
                if starts {
                    remaining[vc] = rng.range_usize(1..6);
                    packets[vc] += 1;
                }
                let kind = match (starts, remaining[vc]) {
                    (true, 1) => FlitKind::HeadTail,
                    (true, _) => FlitKind::Head,
                    (false, 1) => FlitKind::Tail,
                    _ => FlitKind::Body,
                };
                let mut f = flit(dst, kind, TrafficClass::Communication, vc as u8);
                f.id = next_id;
                next_id += 1;
                let lifo = r.free_slots.last().copied();
                r.accept_flit(Dir::West, f, cycle, cap);
                let InputVc { head, len, .. } = r.inputs[i];
                let at = usize::from(head) + usize::from(len) - 1;
                wrapped |= at >= cap;
                let slot = r.ring[i * cap + at % cap];
                match lifo {
                    Some(freed) => {
                        assert_eq!(slot, freed, "the last freed slot is taken first");
                        reused = true;
                    }
                    None => assert_eq!(slot as usize, r.slots.len() - 1, "a fresh slot"),
                }
                model[vc].push_back(f.id);
                remaining[vc] -= 1;
            } else {
                r.vc_allocate(&cfg, cycle, &mut TracerHandle::Nop);
                for dep in r.switch_allocate(&cfg, cycle, &Router::NO_DOWN_PORTS) {
                    assert_eq!(dep.in_port, Dir::West);
                    assert_eq!(model[dep.in_vc as usize].pop_front(), Some(dep.flit.id));
                    // The downstream router drains the flit at once.
                    r.return_credit(Dir::East, dep.flit.vc(), cfg.buffers_per_vc);
                    if dep.was_tail {
                        r.free_output_vc(Dir::East, dep.flit.vc());
                    }
                }
            }
            for (vc, expected) in model.iter().enumerate() {
                assert!(r.vc_flits(base + vc).map(|f| f.id).eq(expected.iter().copied()));
            }
            assert_eq!(r.buffered_flits(), model.iter().map(VecDeque::len).sum::<usize>());
            assert_eq!(r.free_slots.len() + r.buffered_flits(), r.slots.len());
        }
        assert!(wrapped && reused, "the run covered ring wrap-around and slot reuse");
        assert!(packets.iter().all(|&p| p > 10), "every VC carried packets: {packets:?}");
    }

    #[test]
    fn storage_addresses_every_slot_at_the_config_limits() {
        // `NocConfig::validate`'s ceiling: 64 VCs per port, 255 flits per
        // VC, so a full router holds more flits than `u16` can index.
        let cfg = NocConfig::default().with_vnets(1).with_vcs_per_vnet(64).with_buffers_per_vc(255);
        assert_eq!(cfg.validate(), Ok(()));
        let (vcs, cap) = (cfg.vcs_per_port(), cfg.buffers_per_vc as usize);
        let mesh = Mesh::new(3, 3);
        let node = mesh.node_at(1, 1);
        let mut r = router(&cfg, &mesh, node);
        // One full-depth packet per input VC, spread so that each output
        // port receives exactly 64: one per downstream VC, whose 255
        // credits carry it whole.
        let dsts =
            [mesh.node_at(2, 1), mesh.node_at(0, 1), mesh.node_at(1, 0), mesh.node_at(1, 2), node];
        for port in Dir::ALL {
            for vc in 0..vcs {
                let i = port.index() * vcs + vc;
                for k in 0..cap {
                    let kind = match k {
                        0 => FlitKind::Head,
                        k if k == cap - 1 => FlitKind::Tail,
                        _ => FlitKind::Body,
                    };
                    let dst = dsts[i % dsts.len()];
                    let mut f = flit(dst, kind, TrafficClass::Communication, vc as u8);
                    f.id = (i * cap + k) as u64;
                    r.accept_flit(port, f, 0, cap);
                }
            }
        }
        let total = Dir::COUNT * vcs * cap;
        assert_eq!(total, 81_600);
        assert_eq!(r.buffered_flits(), total);
        assert_eq!(r.slots.len(), total);
        let mut sent = vec![0u64; Dir::COUNT * vcs];
        let mut cycle = 1;
        while r.buffered_flits() > 0 {
            r.vc_allocate(&cfg, cycle, &mut TracerHandle::Nop);
            for dep in r.switch_allocate(&cfg, cycle, &Router::NO_DOWN_PORTS) {
                let i = dep.in_port.index() * vcs + usize::from(dep.in_vc);
                assert_eq!(dep.flit.id, (i * cap) as u64 + sent[i], "FIFO order per VC");
                sent[i] += 1;
            }
            cycle += 1;
            assert!(cycle < 100_000, "the full router drains");
        }
        assert!(sent.iter().all(|&n| n == cap as u64));
        assert_eq!(r.free_slots.len(), total);
        assert_eq!(r.oldest_buffered_queued_at(), None);
    }

    /// A buffered flit in the reference model.
    struct RefFlit {
        id: u64,
        tail: bool,
        dst: (usize, usize),
        arrived: u64,
    }

    #[derive(Clone, Copy, PartialEq)]
    enum RefState {
        Idle,
        /// Head buffered, no output VC yet; the route is recomputed from
        /// the head flit whenever VA looks at it.
        Routed,
        Active {
            out: usize,
            out_vc: usize,
        },
    }

    struct RefVc {
        flits: VecDeque<RefFlit>,
        state: RefState,
        snack: bool,
        vnet: usize,
    }

    /// A naive single-router allocator written from DESIGN.md's allocator
    /// description and sharing no code with [`Router`]: a queue and state
    /// per input VC, a free flag and credit count per output VC, and
    /// linear round-robin scans. Ports are numbered E, W, N, S, Local.
    struct RefRouter {
        at: (usize, usize),
        vcs: usize,
        per_vnet: usize,
        extra: u64,
        priority: bool,
        inputs: Vec<Vec<RefVc>>,
        out_free: Vec<Vec<bool>>,
        out_credits: Vec<Vec<usize>>,
        va_rr: usize,
        sa_in_rr: [usize; 5],
        sa_out_rr: [usize; 5],
        /// Output-cycles where more than one input port requested the
        /// same output in SA stage 2.
        contested: usize,
        /// VA visits of a routed head whose vnet had no free output VC.
        blocked: usize,
    }

    const LOCAL: usize = 4;

    impl RefRouter {
        fn new(
            at: (usize, usize),
            vcs: usize,
            per_vnet: usize,
            depth: usize,
            stages: u64,
            priority: bool,
        ) -> Self {
            RefRouter {
                at,
                vcs,
                per_vnet,
                extra: stages - 1,
                priority,
                inputs: (0..5)
                    .map(|_| {
                        (0..vcs)
                            .map(|vc| RefVc {
                                flits: VecDeque::new(),
                                state: RefState::Idle,
                                snack: false,
                                vnet: vc / per_vnet,
                            })
                            .collect()
                    })
                    .collect(),
                out_free: vec![vec![true; vcs]; 5],
                out_credits: vec![vec![depth; vcs]; 5],
                va_rr: 0,
                sa_in_rr: [0; 5],
                sa_out_rr: [0; 5],
                contested: 0,
                blocked: 0,
            }
        }

        /// Dimension order: columns first, then rows (row 0 is north).
        fn route(&self, dst: (usize, usize)) -> usize {
            use std::cmp::Ordering::{Greater, Less};
            let (x, y) = self.at;
            match (dst.0.cmp(&x), dst.1.cmp(&y)) {
                (Greater, _) => 0,
                (Less, _) => 1,
                (_, Less) => 2,
                (_, Greater) => 3,
                _ => LOCAL,
            }
        }

        /// The class passes of one allocation: `None` takes every request,
        /// `Some(snack)` only that class.
        fn passes(&self) -> Vec<Option<bool>> {
            if self.priority {
                vec![Some(false), Some(true)]
            } else {
                vec![None]
            }
        }

        fn accept(&mut self, port: usize, vc: usize, flit: RefFlit, head: bool, snack: bool) {
            let v = &mut self.inputs[port][vc];
            if head {
                assert!(v.state == RefState::Idle && v.flits.is_empty());
                v.state = RefState::Routed;
                v.snack = snack;
            }
            v.flits.push_back(flit);
        }

        /// One cycle of VA then SA/ST: `(in port, in VC, out port, out
        /// VC, flit id)` per departure, in grant order.
        fn step(&mut self, cycle: u64, down: [bool; 5]) -> Vec<(usize, usize, usize, usize, u64)> {
            // VA: flattened (port, VC) order from `va_rr`, lowest free
            // output VC of the packet's vnet; ejection keeps its VC.
            let total = 5 * self.vcs;
            for class in self.passes() {
                for step in 0..total {
                    let i = (self.va_rr + step) % total;
                    let (port, vc) = (i / self.vcs, i % self.vcs);
                    let v = &self.inputs[port][vc];
                    if v.state != RefState::Routed || class.is_some_and(|snack| snack != v.snack) {
                        continue;
                    }
                    let out = self.route(v.flits[0].dst);
                    let out_vc = if out == LOCAL {
                        vc
                    } else {
                        let vnet_vcs = v.vnet * self.per_vnet..(v.vnet + 1) * self.per_vnet;
                        let Some(out_vc) = vnet_vcs.into_iter().find(|&o| self.out_free[out][o])
                        else {
                            self.blocked += 1;
                            continue;
                        };
                        self.out_free[out][out_vc] = false;
                        out_vc
                    };
                    self.inputs[port][vc].state = RefState::Active { out, out_vc };
                }
            }
            self.va_rr = (self.va_rr + 1) % total;
            // SA stage 1: each input port nominates its first ready VC
            // from `sa_in_rr`, and the pointer moves past it.
            let mut nominees: [Option<(usize, usize, bool)>; 5] = [None; 5];
            for (port, nominee) in nominees.iter_mut().enumerate() {
                'pick: for class in self.passes() {
                    for step in 0..self.vcs {
                        let vc = (self.sa_in_rr[port] + step) % self.vcs;
                        let v = &self.inputs[port][vc];
                        let RefState::Active { out, out_vc } = v.state else { continue };
                        let Some(front) = v.flits.front() else { continue };
                        if class.is_some_and(|snack| snack != v.snack)
                            || (out != LOCAL && (down[out] || self.out_credits[out][out_vc] == 0))
                            || cycle < front.arrived + self.extra
                        {
                            continue;
                        }
                        *nominee = Some((vc, out, v.snack));
                        self.sa_in_rr[port] = (vc + 1) % self.vcs;
                        break 'pick;
                    }
                }
            }
            // SA stage 2: each output grants the first nominating input
            // port from `sa_out_rr`, and the pointer moves past it; ST.
            let mut departures = Vec::new();
            for out in 0..5 {
                if nominees.iter().flatten().filter(|n| n.1 == out).count() > 1 {
                    self.contested += 1;
                }
                let winner = self.passes().into_iter().find_map(|class| {
                    (0..5).map(|step| (self.sa_out_rr[out] + step) % 5).find(|&port| {
                        nominees[port].is_some_and(|(_, o, snack)| {
                            o == out && class.is_none_or(|c| c == snack)
                        })
                    })
                });
                let Some(port) = winner else { continue };
                self.sa_out_rr[out] = (port + 1) % 5;
                let (vc, ..) = nominees[port].expect("the winner nominated");
                let v = &mut self.inputs[port][vc];
                let RefState::Active { out_vc, .. } = v.state else { unreachable!() };
                let flit = v.flits.pop_front().expect("a nominee holds a flit");
                if flit.tail {
                    v.state = RefState::Idle;
                }
                if out != LOCAL {
                    self.out_credits[out][out_vc] -= 1;
                }
                departures.push((port, vc, out, out_vc, flit.id));
            }
            departures
        }
    }

    #[test]
    fn allocation_matches_a_naive_reference_router() {
        // (vnets, VCs per vnet, pipeline stages, priority arbitration), at
        // three-flit buffers: two vnets of two VCs (20 flat input VCs, one
        // word); DAPPER's three vnets of five (75 flat VCs, two words); and
        // 64 VCs per port (320 flat VCs, five words, the validated limit).
        let shapes = [
            (2, 2, 2, false),
            (2, 2, 2, true),
            (2, 2, 4, false),
            (2, 2, 4, true),
            (3, 5, 4, false),
            (3, 5, 4, true),
            (8, 8, 2, false),
            (8, 8, 2, true),
        ];
        for (shape, (vnets, per_vnet, stages, priority)) in shapes.into_iter().enumerate() {
            // At the centre of a 3×3 mesh, so that every port has a link.
            let cfg = NocConfig::default()
                .with_vnets(vnets)
                .with_vcs_per_vnet(per_vnet)
                .with_buffers_per_vc(3)
                .with_pipeline_stages(stages)
                .with_priority_arbitration(priority);
            let (vcs, per_vnet, cap) =
                (cfg.vcs_per_port(), cfg.vcs_per_vnet as usize, cfg.buffers_per_vc as usize);
            let mesh = Mesh::new(3, 3);
            let mut r = router(&cfg, &mesh, mesh.node_at(1, 1));
            let mut model = RefRouter::new((1, 1), vcs, per_vnet, cap, u64::from(stages), priority);
            let mut rng = Rng::new(0x51AC_0018 ^ u64::from(stages) << 8 ^ u64::from(priority));
            // Flits of each input VC's current packet still to send, and
            // that packet's destination and class.
            let mut remaining = vec![vec![0usize; vcs]; 5];
            let mut packet = vec![vec![((0, 0), TrafficClass::Communication); vcs]; 5];
            // Per output VC, the downstream's (due cycle, frees the VC)
            // credit returns, in the order its flits drain.
            let mut credits: Vec<Vec<VecDeque<(u64, bool)>>> = vec![vec![VecDeque::new(); vcs]; 5];
            let (mut next_id, mut departed, mut snack_departed, mut rate) =
                (0u64, 0usize, 0usize, 0);
            for cycle in 0..6_000u64 {
                if cycle % 500 == 0 {
                    // Idle, light and saturating phases.
                    rate = [0, 15, 40, 80][rng.range_usize(0..4)];
                }
                for (out, per_vc) in credits.iter_mut().enumerate() {
                    for (vc, queue) in per_vc.iter_mut().enumerate() {
                        while let Some(&(_, frees)) = queue.front().filter(|(due, _)| *due <= cycle)
                        {
                            queue.pop_front();
                            r.return_credit(Dir::from_index(out), vc as u8, cfg.buffers_per_vc);
                            model.out_credits[out][vc] += 1;
                            if frees {
                                r.free_output_vc(Dir::from_index(out), vc as u8);
                                model.out_free[out][vc] = true;
                            }
                        }
                    }
                }
                let mut down = [false; 5];
                for d in down.iter_mut().take(4) {
                    *d = rng.range_usize(0..25) == 0;
                }
                // At most one arriving flit per input port, within credits.
                for port in 0..5 {
                    if rng.range_usize(0..100) >= rate {
                        continue;
                    }
                    let vc = rng.range_usize(0..vcs);
                    let v = &model.inputs[port][vc];
                    let head = remaining[port][vc] == 0;
                    if v.flits.len() == cap || (head && v.state != RefState::Idle) {
                        continue;
                    }
                    if head {
                        remaining[port][vc] = rng.range_usize(1..5);
                        let dst = (rng.range_usize(0..3), rng.range_usize(0..3));
                        let classes = [
                            TrafficClass::Communication,
                            TrafficClass::SnackInstruction,
                            TrafficClass::SnackData,
                        ];
                        packet[port][vc] = (dst, *rng.choose(&classes).expect("three classes"));
                    }
                    remaining[port][vc] -= 1;
                    let tail = remaining[port][vc] == 0;
                    let kind = match (head, tail) {
                        (true, true) => FlitKind::HeadTail,
                        (true, false) => FlitKind::Head,
                        (false, true) => FlitKind::Tail,
                        (false, false) => FlitKind::Body,
                    };
                    let (dst, class) = packet[port][vc];
                    let vnet = (vc / per_vnet) as u8;
                    let mut f = Flit::new(
                        next_id,
                        0,
                        kind,
                        class,
                        vnet,
                        NodeId::new(0),
                        mesh.node_at(dst.0, dst.1),
                        0,
                        PayloadRef::NONE,
                        false,
                    );
                    f.set_vc(vc as u8);
                    r.accept_flit(Dir::from_index(port), f, cycle, cap);
                    model.accept(
                        port,
                        vc,
                        RefFlit { id: next_id, tail, dst, arrived: cycle },
                        head,
                        class.is_snack(),
                    );
                    next_id += 1;
                }
                r.vc_allocate(&cfg, cycle, &mut TracerHandle::Nop);
                let got: Vec<_> = r
                    .switch_allocate(&cfg, cycle, &down)
                    .iter()
                    .map(|d| {
                        let (in_port, out_port) = (d.in_port.index(), d.out_port.index());
                        if out_port != LOCAL {
                            let queue = &mut credits[out_port][usize::from(d.flit.vc())];
                            let after = queue.back().map_or(cycle, |&(due, _)| due);
                            queue.push_back((after.max(cycle + rng.range(1..8)), d.was_tail));
                        }
                        snack_departed += usize::from(d.flit.class().is_snack());
                        (
                            in_port,
                            usize::from(d.in_vc),
                            out_port,
                            usize::from(d.flit.vc()),
                            d.flit.id,
                        )
                    })
                    .collect();
                let want = model.step(cycle, down);
                assert_eq!(got, want, "cycle {cycle}, shape {shape}");
                departed += got.len();
            }
            assert!(
                departed > 5_000 && snack_departed > 1_000,
                "shape {shape}: {departed} departures, {snack_departed} snack"
            );
            assert!(model.contested > 1_000, "shape {shape}: {} contested outputs", model.contested);
            assert!(model.blocked > 1_000, "shape {shape}: {} blocked heads", model.blocked);
        }
    }
}
