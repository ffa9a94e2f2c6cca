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
//! ## Bitmask-driven allocation
//!
//! The allocators never scan all ports × VCs. Four per-port `u64` bitmasks
//! — `routed_mask` / `active_mask` over input VCs and `free_mask` /
//! `credit_mask` over output VCs — are maintained at every state
//! transition (head arrival, VC grant, tail traversal, credit return, VC
//! free) and iterated with `trailing_zeros`, so a cycle's allocation work
//! is proportional to the *resident* packets, not the configured resource
//! count: VA only advances its pointer when no VC is routed, SA stage 1
//! asks only ports with an active VC to nominate, and stage 2 keeps a
//! 5-bit request mask over input ports per output (one per class under
//! priority arbitration), whose winner is the first set bit at or after
//! the output's round-robin pointer. [`NocConfig::validate`] caps
//! `vcs_per_port` at 64 to keep one word per port. Debug builds
//! cross-check every mask against a fresh scan of the underlying state,
//! exactly like the incremental occupancy counters elsewhere in the crate.
//!
//! ## Flat storage
//!
//! Input-VC records, their rings of slot indices and output credits are
//! flat arrays indexed `port * vcs + vc`, and all of a router's flits
//! share one slot array whose freed slots are reused last-freed first, so
//! a busy router's flits stay in a few hot cache lines (DESIGN.md §16).
//! VA and SA read only the VC records and masks, plus, for the pipeline
//! gate, the front flit of a VC that could otherwise traverse.

use crate::config::NocConfig;
use crate::flit::Flit;
use crate::routing::{xy_route, Dir};
use crate::topology::{Mesh, NodeId};
use snacknoc_trace::{EventKind, TracerHandle};

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
    /// The resident packet's vnet, which is also `vc / vcs_per_vnet`.
    vnet: u8,
    /// Ring position of the front flit.
    head: u8,
    /// Flits buffered.
    len: u8,
}

impl InputVc {
    const IDLE: InputVc = InputVc { state: VcState::Idle, snack: false, vnet: 0, head: 0, len: 0 };
}

/// Index into a router's flit-slot array. A router at
/// [`NocConfig::validate`]'s limits buffers 5 × 64 × 255 = 81,600 flits,
/// more than `u16` can address.
type Slot = u32;

/// An input port's switch-allocation nominee.
#[derive(Clone, Copy, Debug)]
struct Nominee {
    vc: usize,
    out_port: Dir,
    snack: bool,
}

/// The bits `lo..hi` of a `u64`, set.
fn range_mask(lo: usize, hi: usize) -> u64 {
    debug_assert!(lo <= hi && hi <= 64);
    let below_hi = if hi == 64 { u64::MAX } else { (1u64 << hi) - 1 };
    let below_lo = if lo == 64 { u64::MAX } else { (1u64 << lo) - 1 };
    below_hi & !below_lo
}

/// A flit leaving the router through the crossbar this cycle.
#[derive(Debug)]
pub(crate) struct Departure {
    /// The flit (already stamped with its downstream VC).
    pub flit: Flit,
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
    /// Virtual channels per port.
    vcs: usize,
    /// Flit slots per input VC (`buffers_per_vc`).
    depth: usize,
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
    /// Per-input-port bitmask of VCs in the `Routed` state (VA requests).
    routed_mask: [u64; Dir::COUNT],
    /// Per-input-port bitmask of VCs in the `Active` state (SA candidates).
    active_mask: [u64; Dir::COUNT],
    /// Per-output-port bitmask of free (unallocated) downstream VCs.
    free_mask: [u64; Dir::COUNT],
    /// Per-output-port bitmask of downstream VCs holding ≥ 1 credit.
    credit_mask: [u64; Dir::COUNT],
    /// Round-robin pointer for VC allocation, over flattened (port, vc).
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

impl Router {
    /// The all-clear down-link mask: every output port usable.
    pub(crate) const NO_DOWN_PORTS: [bool; Dir::COUNT] = [false; Dir::COUNT];

    pub(crate) fn new(cfg: &NocConfig, mesh: &Mesh, node: NodeId) -> Self {
        let vcs = cfg.vcs_per_port();
        let depth = cfg.buffers_per_vc as usize;
        let mut connected = [false; Dir::COUNT];
        connected[Dir::Local.index()] = true;
        let mut credits = vec![0; Dir::COUNT * vcs];
        let mut free_mask = [0u64; Dir::COUNT];
        let mut credit_mask = [0u64; Dir::COUNT];
        for d in Dir::ROUTER_DIRS {
            if mesh.neighbor(node, d).is_some() {
                connected[d.index()] = true;
                // Every connected output VC starts free with a full credit
                // stock.
                credits[d.index() * vcs..(d.index() + 1) * vcs].fill(cfg.buffers_per_vc);
                free_mask[d.index()] = range_mask(0, vcs);
                credit_mask[d.index()] = range_mask(0, vcs);
            }
        }
        let useful_total = vcs * Dir::ROUTER_DIRS.iter().filter(|d| connected[d.index()]).count();
        let capacity = Dir::COUNT * vcs * depth;
        Router {
            node,
            vcs,
            depth,
            inputs: vec![InputVc::IDLE; Dir::COUNT * vcs],
            ring: vec![0; capacity],
            slots: Vec::with_capacity(capacity),
            free_slots: Vec::with_capacity(capacity),
            credits,
            connected,
            routed_mask: [0; Dir::COUNT],
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
        let fast: usize = self.routed_mask.iter().map(|m| m.count_ones() as usize).sum();
        debug_assert_eq!(
            fast,
            self.inputs.iter().filter(|vc| matches!(vc.state, VcState::Routed { .. })).count(),
            "routed mask out of sync"
        );
        fast
    }

    /// Writes an arriving flit into its input buffer. A head flit landing
    /// in an idle VC is route-computed *here*, once, and the decision is
    /// cached in the VC state — no per-cycle RC stage exists. (A VC left
    /// by a tail is provably empty, so a head can only ever arrive into an
    /// idle, empty VC.)
    ///
    /// # Panics
    ///
    /// Panics (debug) if credit-based flow control was violated.
    pub(crate) fn accept_flit(
        &mut self,
        mesh: &Mesh,
        cfg: &NocConfig,
        in_port: Dir,
        mut flit: Flit,
        cycle: u64,
        cap: usize,
    ) {
        flit.buffered_at = cycle;
        let vc_idx = flit.vc() as usize;
        let i = in_port.index() * self.vcs + vc_idx;
        let vc = &mut self.inputs[i];
        debug_assert!(usize::from(vc.len) < cap, "input buffer overflow: credit protocol violated");
        if vc.state == VcState::Idle {
            debug_assert!(vc.len == 0, "idle VC with buffered flits");
            debug_assert!(flit.kind().is_head(), "non-head flit arrived at an idle VC");
            debug_assert_eq!(usize::from(flit.vnet()), vc_idx / cfg.vcs_per_vnet as usize);
            let out_port = xy_route(mesh, self.node, flit.dst());
            vc.state = VcState::Routed { out_port };
            vc.snack = flit.class().is_snack();
            vc.vnet = flit.vnet();
            self.routed_mask[in_port.index()] |= 1u64 << vc_idx;
        } else {
            // The cached class and vnet belong to the resident packet.
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
        let v = &self.inputs[Dir::Local.index() * self.vcs + vc];
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
    pub(crate) fn free_output_vc(&mut self, out_port: Dir, vc: u8) {
        self.free_mask[out_port.index()] |= 1u64 << vc;
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

    /// Debug cross-check: every bitmask agrees with a fresh scan of the
    /// state it summarizes, and every flit slot is either buffered in
    /// exactly one VC or free.
    #[cfg(debug_assertions)]
    fn consistent(&self) -> bool {
        let mut buffered = 0;
        for port in 0..Dir::COUNT {
            let mut routed = 0u64;
            let mut active = 0u64;
            let mut credited = 0u64;
            for vc in 0..self.vcs {
                let i = port * self.vcs + vc;
                match self.inputs[i].state {
                    VcState::Idle => {}
                    VcState::Routed { .. } => routed |= 1 << vc,
                    VcState::Active { .. } => active |= 1 << vc,
                }
                buffered += usize::from(self.inputs[i].len);
                if self.credits[i] > 0 {
                    credited |= 1 << vc;
                }
            }
            let has_output_vcs = self.connected[port] && port != Dir::Local.index();
            let outputs = if has_output_vcs { range_mask(0, self.vcs) } else { 0 };
            if routed != self.routed_mask[port]
                || active != self.active_mask[port]
                || credited != self.credit_mask[port]
                || self.free_mask[port] & !outputs != 0
            {
                return false;
            }
        }
        buffered == self.buffered && self.free_slots.len() + buffered == self.slots.len()
    }

    /// VA stage: grant free downstream VCs to routed packets, communication
    /// class first when priority arbitration is on. Each grant is reported
    /// to `tracer` (a no-op for [`TracerHandle::Nop`]).
    ///
    /// Iteration walks the `routed_mask` bits in the exact order the old
    /// flattened `(va_rr + step) % total` scan visited them: the pointer's
    /// port from its VC upward, every later port in full, then the
    /// pointer's port below the pointer. No flit is read: the packet's
    /// vnet and class are cached in the VC record, and an ejecting packet
    /// keeps its input VC. Ports without a routed VC are skipped, and a
    /// router with none only advances the pointer.
    pub(crate) fn vc_allocate(&mut self, cfg: &NocConfig, cycle: u64, tracer: &mut TracerHandle) {
        #[cfg(debug_assertions)]
        debug_assert!(self.consistent());
        let vcs = self.vcs;
        let (p0, v0) = (self.va_rr / vcs, self.va_rr % vcs);
        self.va_rr = (self.va_rr + 1) % (Dir::COUNT * vcs);
        if self.routed_mask == [0; Dir::COUNT] {
            return;
        }
        let per_vnet = cfg.vcs_per_vnet as usize;
        // Output VCs `0..vcs_per_vnet`; vnet `v` owns this range shifted
        // up by `v * vcs_per_vnet`.
        let vnet_vcs = range_mask(0, per_vnet);
        let passes: &[Option<bool>] = if cfg.priority_arbitration {
            // Pass 0: communication only; pass 1: snack only.
            &[Some(false), Some(true)]
        } else {
            &[None]
        };
        for &snack_pass in passes {
            for k in 0..=Dir::COUNT {
                let port = (p0 + k) % Dir::COUNT;
                if self.routed_mask[port] == 0 {
                    continue;
                }
                let (lo, hi) = match k {
                    0 => (v0, vcs),
                    _ if k == Dir::COUNT => (0, v0),
                    _ => (0, vcs),
                };
                let mut bits = self.routed_mask[port] & range_mask(lo, hi);
                while bits != 0 {
                    let vc_idx = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let vc = &mut self.inputs[port * vcs + vc_idx];
                    let VcState::Routed { out_port } = vc.state else {
                        debug_assert!(false, "routed mask bit on a non-routed VC");
                        continue;
                    };
                    debug_assert!(vc.len > 0, "routed VC without its head flit");
                    if snack_pass.is_some_and(|want_snack| vc.snack != want_snack) {
                        continue;
                    }
                    let out_vc = if out_port == Dir::Local {
                        // Ejection has no VC contention: the NI reassembles
                        // any number of interleaved packets.
                        vc_idx as u8
                    } else {
                        let lo = usize::from(vc.vnet) * per_vnet;
                        let free = (self.free_mask[out_port.index()] >> lo) & vnet_vcs;
                        if free == 0 {
                            continue;
                        }
                        let out_vc = (lo + free.trailing_zeros() as usize) as u8;
                        self.free_mask[out_port.index()] &= !(1u64 << out_vc);
                        out_vc
                    };
                    tracer.record_with(cycle, || EventKind::VcAlloc {
                        router: self.node.index() as u32,
                        in_port: port as u8,
                        in_vc: vc_idx as u8,
                        out_port: out_port.index() as u8,
                        out_vc,
                    });
                    vc.state = VcState::Active { out_port, out_vc };
                    self.routed_mask[port] &= !(1u64 << vc_idx);
                    self.active_mask[port] |= 1u64 << vc_idx;
                }
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
    ) -> Vec<Departure> {
        let mut departures = Vec::new();
        self.switch_allocate_into(cfg, cycle, down, &mut departures);
        departures
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
        // Stage 1: each input port with an active VC nominates one ready
        // VC and sets its bit in the request mask of the nominee's output:
        // `requests[1]` for snack requests under priority arbitration,
        // `requests[0]` for the rest.
        let (priority, active) = (cfg.priority_arbitration, self.active_mask);
        let mut nominated_vc = [0; Dir::COUNT];
        let mut requests = [[0u32; Dir::COUNT]; 2];
        for port in (0..Dir::COUNT).filter(|&port| active[port] != 0) {
            if let Some(n) = self.pick_input_vc(port, cycle, extra, priority, down) {
                nominated_vc[port] = n.vc;
                requests[usize::from(priority && n.snack)][n.out_port.index()] |= 1 << port;
            }
        }
        // Stage 2: each output grants the first requesting input port at
        // or after its round-robin pointer, communication class first. An
        // input port requests one output, so it sends at most one flit.
        for out_port in 0..Dir::COUNT {
            let Some(mask) = requests.iter().map(|class| class[out_port]).find(|&m| m != 0) else {
                continue;
            };
            let rr = self.sa_out_rr[out_port];
            let rotated = (mask >> rr | mask << (Dir::COUNT - rr)) & ((1 << Dir::COUNT) - 1);
            let in_port = (rr + rotated.trailing_zeros() as usize) % Dir::COUNT;
            self.sa_out_rr[out_port] = (in_port + 1) % Dir::COUNT;
            out.push(self.traverse(in_port, nominated_vc[in_port]));
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

    /// Picks the input VC that port `port` nominates for the switch,
    /// walking the `active_mask` bits in round-robin order.
    fn pick_input_vc(
        &mut self,
        port: usize,
        cycle: u64,
        extra: u64,
        priority: bool,
        down: &[bool; Dir::COUNT],
    ) -> Option<Nominee> {
        let vcs = self.vcs;
        let rr = self.sa_in_rr[port];
        let passes: &[Option<bool>] = if priority { &[Some(false), Some(true)] } else { &[None] };
        for &snack_pass in passes {
            for (lo, hi) in [(rr, vcs), (0, rr)] {
                let mut bits = self.active_mask[port] & range_mask(lo, hi);
                while bits != 0 {
                    let idx = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let snack = self.inputs[port * vcs + idx].snack;
                    if snack_pass.is_some_and(|want_snack| snack != want_snack) {
                        continue;
                    }
                    let Some(out_port) = self.vc_ready(port * vcs + idx, cycle, extra, down) else {
                        continue;
                    };
                    self.sa_in_rr[port] = (idx + 1) % vcs;
                    return Some(Nominee { vc: idx, out_port, snack });
                }
            }
        }
        None
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
        let mut flit = self.slots[slot as usize];
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
        Departure { flit, out_port, in_port, in_vc: vc_idx as u8, was_tail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, TrafficClass};
    use crate::pool::PayloadRef;
    use snacknoc_prng::Rng;
    use std::collections::VecDeque;

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
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        let f = flit(mesh.node_at(3, 1), FlitKind::HeadTail, TrafficClass::Communication, 0);
        r.accept_flit(&mesh, &cfg, Dir::West, f, 0, 4);
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
        let mut r = Router::new(&cfg, &mesh, node);
        r.accept_flit(
            &mesh,
            &cfg,
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
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        r.accept_flit(
            &mesh,
            &cfg,
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
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        let dst = mesh.node_at(3, 1);
        // Two single-flit packets from different VCs toward the same output.
        r.accept_flit(&mesh, &cfg, Dir::West, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 0), 0, 1);
        r.accept_flit(&mesh, &cfg, Dir::North, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 0), 0, 1);
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        // First wins the only free VC/credit pair on vc0; second got vc1.
        let d1 = r.switch_allocate(&cfg, 5, &Router::NO_DOWN_PORTS);
        assert_eq!(d1.len(), 1, "both VCs have a credit, but one output port grant per cycle");
        let d2 = r.switch_allocate(&cfg, 6, &Router::NO_DOWN_PORTS);
        assert_eq!(d2.len(), 1);
        assert_ne!(d1[0].flit.vc(), d2[0].flit.vc(), "packets allocated distinct output VCs");
        // Credits now exhausted on both VCs.
        r.accept_flit(&mesh, &cfg, Dir::West, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 1), 6, 1);
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
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        let dst = mesh.node_at(3, 1);
        // Snack flit arrives first and would win round-robin.
        r.accept_flit(&mesh, &cfg, Dir::North, flit(dst, FlitKind::HeadTail, TrafficClass::SnackInstruction, 0), 0, 4);
        r.accept_flit(&mesh, &cfg, Dir::West, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 1), 0, 4);
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
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        let f = flit(mesh.node_at(3, 1), FlitKind::HeadTail, TrafficClass::Communication, 0);
        r.accept_flit(&mesh, &cfg, Dir::West, f, 0, 4);
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
        let r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        let (free, total) = r.useful_free_output_vcs();
        assert_eq!(total, 4 * cfg.vcs_per_port());
        assert_eq!(free, total);
        let corner = Router::new(&cfg, &mesh, mesh.node_at(0, 0));
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
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        let dst = mesh.node_at(3, 1);
        let (free0, total) = r.useful_free_output_vcs();
        assert_eq!(free0, total);
        r.accept_flit(&mesh, &cfg, Dir::West, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 0), 0, 1);
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
        r.accept_flit(&mesh, &cfg, Dir::West, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 0), 6, 1);
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
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(0, 0));
        let dst = mesh.node_at(3, 0);
        r.accept_flit(&mesh, &cfg, Dir::Local, flit(dst, FlitKind::Head, TrafficClass::Communication, 0), 0, 4);
        r.accept_flit(&mesh, &cfg, Dir::Local, flit(dst, FlitKind::Body, TrafficClass::Communication, 0), 0, 4);
        r.accept_flit(&mesh, &cfg, Dir::Local, flit(dst, FlitKind::Tail, TrafficClass::Communication, 0), 0, 4);
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
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        let mut f = flit(mesh.node_at(3, 1), FlitKind::HeadTail, TrafficClass::Communication, 0);
        f.hops = u32::MAX;
        r.accept_flit(&mesh, &cfg, Dir::West, f, 0, 4);
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
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
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
                r.accept_flit(&mesh, &cfg, Dir::West, f, cycle, cap);
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
        let mut r = Router::new(&cfg, &mesh, node);
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
                    r.accept_flit(&mesh, &cfg, port, f, 0, cap);
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
        for (stages, priority) in [(2, false), (2, true), (4, false), (4, true)] {
            // Two vnets of two VCs, three-flit buffers, at the centre of a
            // 3×3 mesh so that every port has a link.
            let cfg = NocConfig::default()
                .with_vnets(2)
                .with_vcs_per_vnet(2)
                .with_buffers_per_vc(3)
                .with_pipeline_stages(stages)
                .with_priority_arbitration(priority);
            let (vcs, per_vnet, cap) =
                (cfg.vcs_per_port(), cfg.vcs_per_vnet as usize, cfg.buffers_per_vc as usize);
            let mesh = Mesh::new(3, 3);
            let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
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
                    r.accept_flit(&mesh, &cfg, Dir::from_index(port), f, cycle, cap);
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
                assert_eq!(got, want, "cycle {cycle}, stages {stages}, priority {priority}");
                departed += got.len();
            }
            assert!(
                departed > 5_000 && snack_departed > 1_000,
                "{departed} departures, {snack_departed} snack"
            );
            assert!(model.contested > 1_000, "{} contested outputs", model.contested);
        }
    }
}
