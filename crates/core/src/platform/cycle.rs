//! The cycle engine: one platform step (workload traffic, CPM issue, RCU
//! execution, the network cycle, delivery dispatch), the RCU worklists
//! it keeps, and clock jumps across provably quiet stretches.

use super::{SnackPayload, SnackPlatform, Workload};
use crate::cpm::{CpmEmission, NAMESPACE_MASK};
use crate::rcu::Emission;
use crate::token::{DATA_TOKEN_BYTES, INSTRUCTION_BYTES};
use snacknoc_noc::{NodeId, PacketSpec, Stepping, TrafficClass};
use snacknoc_trace::EventKind;

impl SnackPlatform {
    /// Whether the platform was built for the dense reference loop: every
    /// RCU ticks every cycle and the clock never jumps (DESIGN.md §12).
    fn dense(&self) -> bool {
        self.net.config().stepping == Stepping::Dense
    }

    /// Wakes RCU `i` after an edge that may have made it fireable: an
    /// accepted instruction or a capture. A parked RCU settles the stalls
    /// it owes for the cycles before this one, then ticks again.
    pub(super) fn wake_rcu(&mut self, i: usize) {
        if self.rcu_parked.remove(i) {
            self.rcus[i].stats.stalled_cycles += self.owed_stalls(i, self.net.cycle());
        }
        self.rcu_ready.insert(i);
    }

    /// The one worklist rebuild: settles every parked RCU's owed stalls at
    /// the current cycle, parks none, and makes exactly the non-idle RCUs
    /// ready.
    pub(super) fn wake_all_rcus(&mut self) {
        let now = self.net.cycle();
        for i in 0..self.rcus.len() {
            if self.rcu_parked.contains(i) {
                self.rcus[i].stats.stalled_cycles += self.owed_stalls(i, now);
            }
            if self.rcus[i].is_idle() {
                self.rcu_ready.remove(i);
            } else {
                self.rcu_ready.insert(i);
            }
        }
        self.rcu_parked.clear();
    }

    /// Stalls parked RCU `i` owes at cycle `now`: one per cycle from
    /// `parked_at[i]` up to `now`, or up to its node's death, since a dead
    /// RCU never ticks.
    pub(super) fn owed_stalls(&self, i: usize, now: u64) -> u64 {
        let node = NodeId::new(i);
        let until = self.net.fault_plan().map_or(now, |p| {
            p.dead_rcus.iter().filter(|d| d.node == node).fold(now, |t, d| t.min(d.from))
        });
        until.saturating_sub(self.parked_at[i])
    }

    /// Advances the platform by one cycle: workload traffic, CPM issue,
    /// RCU execution, one network step, and delivery dispatch.
    pub fn step(&mut self) {
        let now = self.net.cycle();
        // CMP workload injections.
        match &mut self.engine {
            None => {}
            Some(Workload::Phase(engine)) => {
                engine.tick(now, &mut self.cmp_specs);
                for spec in self.cmp_specs.drain(..) {
                    self.net.inject(wrap(spec, SnackPayload::Cmp)).expect("valid workload packet");
                }
            }
            Some(Workload::Coherent(engine)) => {
                for spec in engine.tick(now) {
                    self.net.inject(wrap(spec, SnackPayload::Coh)).expect("valid workload packet");
                }
            }
        }
        // CPM issue (1 flit/cycle each).
        let dead_active = self.any_dead_nodes();
        for c in 0..self.cpms.len() {
            let node = self.cpms[c].node();
            if dead_active && self.node_dead(node, now) {
                // A dead corner node's CPM is frozen: no fetch, no issue,
                // no watchdog sweeps. The router underneath keeps
                // forwarding. All stepping modes skip it identically.
                continue;
            }
            let congestion = self.net.useful_free_output_vcs(node);
            // CPM decision events (overflow mode flips, watchdog loss
            // declarations) are diffed across the tick. The pre/post state
            // reads are gated on an enabled tracer so the disabled path
            // does no extra work.
            let traced = self.net.tracer().is_enabled();
            let (was_overflow, prev_detected) = if traced {
                (self.cpms[c].in_overflow(), self.cpms[c].recovery_stats().detected)
            } else {
                (false, 0)
            };
            let emission = self.cpms[c].tick(now, congestion);
            if traced {
                let now_overflow = self.cpms[c].in_overflow();
                if now_overflow != was_overflow {
                    let (free, total) = congestion;
                    self.net.tracer_mut().record_with(now, || {
                        if now_overflow {
                            EventKind::CpmOverflowEnter {
                                cpm: c as u32,
                                free: free as u32,
                                total: total as u32,
                            }
                        } else {
                            EventKind::CpmOverflowExit {
                                cpm: c as u32,
                                free: free as u32,
                                total: total as u32,
                            }
                        }
                    });
                }
                let detected = self.cpms[c].recovery_stats().detected;
                if detected > prev_detected {
                    self.net.tracer_mut().record_with(now, || EventKind::WatchdogDetect {
                        cpm: c as u32,
                        losses: detected - prev_detected,
                    });
                }
            }
            match emission {
                Some(CpmEmission::Instructions(packet)) => {
                    let dst = packet[0].pe;
                    self.net.tracer_mut().record_with(now, || EventKind::CpmIssue {
                        cpm: c as u32,
                        pe: dst.index() as u32,
                        count: packet.len() as u32,
                    });
                    let bytes = INSTRUCTION_BYTES * packet.len() as u32;
                    let spec = PacketSpec::new(
                        node,
                        dst,
                        self.snack_vnet,
                        TrafficClass::SnackInstruction,
                        bytes,
                        SnackPayload::Instructions(packet),
                    )
                    .with_protected();
                    self.net.inject(spec).expect("valid instruction packet");
                }
                Some(CpmEmission::ReplayToken(token)) => {
                    self.net.tracer_mut().record_with(now, || EventKind::CpmRefill {
                        cpm: c as u32,
                        dep: token.dep,
                    });
                    self.launch_token(node, token);
                }
                Some(CpmEmission::RequestRetransmit { dep, producer, remaining }) => {
                    self.net.tracer_mut().record_with(now, || EventKind::WatchdogRetransmit {
                        cpm: c as u32,
                        dep,
                        producer: producer.index() as u32,
                    });
                    // The watchdog asks the producing RCU to re-issue from
                    // its retained copy. We model the request as arriving
                    // instantly (a single control flit on the protected
                    // class); the re-issued token pays full ring transit.
                    // A dead producer's retained state is gone with it: the
                    // request goes unanswered, the watchdog burns its
                    // bounded retries, and the platform's no-progress
                    // window escalates to a kernel-level remap.
                    if dead_active && self.node_dead(producer, now) {
                        // Unanswered by design.
                    } else if let Some(token) =
                        self.rcus[producer.index()].retransmit(dep, remaining)
                    {
                        self.launch_token(producer, token);
                    }
                }
                None => {}
            }
        }
        // RCU execution. Fault-stall plans charge `stalled_cycles` to
        // *every* stalled RCU, idle or not, so they force the full loop,
        // which settles parked RCUs first and then ticks every RCU, as
        // dense stepping always does; otherwise only ready RCUs tick.
        #[cfg(debug_assertions)]
        self.check_rcu_sets();
        let has_stalls =
            self.net.fault_plan().is_some_and(|p| !p.rcu_stalls.is_empty());
        if has_stalls || self.dense() {
            self.wake_all_rcus();
            for i in 0..self.rcus.len() {
                if dead_active && self.node_dead(NodeId::new(i), now) {
                    // A dead RCU never ticks (and never accrues stall
                    // statistics): its pending work freezes in place until
                    // the platform's escalation path purges it.
                    continue;
                }
                if has_stalls {
                    let node = NodeId::new(i);
                    let stalled = self
                        .net
                        .fault_plan()
                        .is_some_and(|p| p.rcu_stalled(node, now));
                    if stalled {
                        self.rcus[i].stats.stalled_cycles += 1;
                        continue;
                    }
                }
                self.tick_rcu(i, now);
            }
        } else {
            // Tick the ready set in index order (matching the dense loop).
            // An RCU that goes idle leaves it; one whose tick stalled
            // parks. Ticks cannot wake an RCU, so the walk only removes
            // the RCU it just ticked.
            let mut at = 0;
            while let Some(i) = self.rcu_ready.next_from(at) {
                at = i + 1;
                // Dead RCUs are skipped (identically to the dense loop);
                // their frozen pending work keeps them ready until
                // escalation purges it.
                if dead_active && self.node_dead(NodeId::new(i), now) {
                    continue;
                }
                let stalls = self.rcus[i].stats.stalled_cycles;
                self.tick_rcu(i, now);
                if self.rcus[i].is_idle() {
                    self.rcu_ready.remove(i);
                } else if self.rcus[i].stats.stalled_cycles > stalls {
                    self.rcu_ready.remove(i);
                    self.rcu_parked.insert(i);
                    self.parked_at[i] = now + 1;
                }
            }
        }
        // The network cycle.
        self.net.step();
        // Deliveries, in node order, on cycles that ejected anything.
        if self.net.has_ejected() {
            self.dispatch_deliveries(dead_active);
        }
    }

    /// Hands every packet the network ejected this cycle to its consumer,
    /// node by node in index order, through the reused `delivered` buffer.
    ///
    /// Kernel packets pass the same quarantine first: one whose namespace
    /// is not the one resident on its home CPM belongs to an aborted or
    /// finished kernel (a retired epoch) and is dropped, so a late
    /// straggler is never confused with a live kernel's traffic. On a
    /// healthy platform every namespace matches its issuing CPM, so the
    /// quarantine never fires.
    fn dispatch_deliveries(&mut self, dead_active: bool) {
        let now = self.net.cycle();
        let mut delivered = std::mem::take(&mut self.delivered);
        for i in 0..self.rcus.len() {
            if !self.net.has_ejected() {
                break;
            }
            let node = NodeId::new(i);
            self.net.drain_ejected_into(node, &mut delivered);
            for pkt in delivered.drain(..) {
                let corrupted = pkt.corrupted;
                match pkt.payload {
                    SnackPayload::Cmp(msg) => {
                        if let Some(Workload::Phase(engine)) = &mut self.engine {
                            engine.deliver(now, node, msg);
                        }
                    }
                    SnackPayload::Coh(msg) => {
                        if let Some(Workload::Coherent(engine)) = &mut self.engine {
                            engine.deliver(now, node, msg);
                        }
                    }
                    SnackPayload::Instructions(instrs) => {
                        // Instruction packets that arrive at a node that
                        // has since died are dropped too (the kernel
                        // stalls, then escalates to remap-and-retry).
                        let (_, resident) = self.home_of(instrs[0].sub_block);
                        if !resident || (dead_active && self.node_dead(node, now)) {
                            continue;
                        }
                        for ins in instrs {
                            debug_assert_eq!(ins.pe, node, "instruction routed to its PE");
                            self.net.tracer_mut().record_with(now, || EventKind::RcuIssue {
                                node: i as u32,
                                sub_block: ins.sub_block,
                                seq: ins.seq,
                            });
                            self.rcus[i].accept_instruction(ins);
                        }
                        // Wake edge: the RCU has new work to try.
                        self.wake_rcu(i);
                    }
                    SnackPayload::Data(token) => {
                        // Tokens homed to a CPM whose node has died are
                        // dropped too: their kernel is gone, or about to
                        // be resubmitted under a fresh namespace.
                        let (home, resident) = self.home_of(token.dep);
                        if !resident || (dead_active && self.node_dead(self.cpms[home].node(), now))
                        {
                            continue;
                        }
                        // A corrupted ring hop damages the token's value; the
                        // checksum (sealed over dep/seq/value, not the
                        // in-flight dependent count) is the single detection
                        // path — corrupt tokens are quarantined and reported
                        // to the owning CPM's watchdog instead of poisoning
                        // downstream captures.
                        let token = if corrupted { token.with_damaged_value() } else { token };
                        if token.checksum_ok() {
                            self.ring_pass(node, token);
                        } else {
                            self.cpms[home].note_corrupt(token.dep, now);
                        }
                    }
                    SnackPayload::Result { index, value } => {
                        // Same quarantine as data tokens: a result is never
                        // written into a live kernel's FIFO from a retired
                        // epoch or for a dead CPM.
                        let (home, resident) = self.home_of(index);
                        if !resident || (dead_active && self.node_dead(self.cpms[home].node(), now))
                        {
                            continue;
                        }
                        self.cpms[home].accept_result(index & NAMESPACE_MASK, value, now);
                    }
                }
            }
        }
        self.delivered = delivered;
    }

    /// Ticks RCU `i` through the reused emission scratch buffer and
    /// dispatches its completions (ring tokens, result packets). Shared
    /// by the dense and active-set RCU loops so both produce identical
    /// emission order with zero steady-state allocation.
    fn tick_rcu(&mut self, i: usize, now: u64) {
        let mut emissions = std::mem::take(&mut self.emit_scratch);
        debug_assert!(emissions.is_empty());
        self.rcus[i].tick_into(now, i as u32, self.net.tracer_mut(), &mut emissions);
        let node = NodeId::new(i);
        for emission in emissions.drain(..) {
            match emission {
                Emission::Token(token) => self.launch_token(node, token),
                Emission::Output { index, value } => {
                    // The namespace in the index's high bits routes the
                    // result home to the CPM that issued the kernel.
                    let (home, _) = self.home_of(index);
                    let spec = PacketSpec::new(
                        node,
                        self.cpms[home].node(),
                        self.snack_vnet,
                        TrafficClass::SnackData,
                        DATA_TOKEN_BYTES,
                        SnackPayload::Result { index, value },
                    )
                    .with_protected();
                    self.net.inject(spec).expect("valid result packet");
                }
            }
        }
        self.emit_scratch = emissions;
    }

    /// Checks the RCU sets against a full scan: every non-idle RCU is
    /// ready or parked, never both, and no parked RCU could fire.
    #[cfg(debug_assertions)]
    fn check_rcu_sets(&self) {
        for (i, rcu) in self.rcus.iter().enumerate() {
            let (ready, parked) = (self.rcu_ready.contains(i), self.rcu_parked.contains(i));
            assert!(!(ready && parked), "RCU {i} is both ready and parked");
            assert!(rcu.is_idle() || ready || parked, "busy RCU {i} is neither ready nor parked");
            assert!(!parked || !rcu.can_fire(), "parked RCU {i} has a fireable instruction");
        }
    }

    /// Attempts a clock jump: if the platform is provably quiescent at the
    /// current cycle, every component reports its next wake and the clock
    /// jumps to the earliest one (capped at `cap`). Returns whether a jump
    /// happened; `false` means the caller must take a real
    /// [`SnackPlatform::step`]. Dense mode never jumps.
    ///
    /// Cost: while the network holds any work the attempt is a few word
    /// tests of the network's worklists. A quiescent network adds one
    /// poll of the workload engine (O(1) for the phase model), of each
    /// CPM, and of each ready RCU — an idle or parked RCU has no wake.
    ///
    /// Soundness: a jump from `now` to `to` is taken only when every
    /// skipped [`SnackPlatform::step`] in `now..to` would have been a
    /// no-op — network quiescent (nothing buffered, in flight, or queued
    /// at an NI), the workload engine's next response/think-expiry at or
    /// past `to`, every CPM's next effectful tick at or past `to` (the
    /// ALO congestion signal is frozen while the network is quiescent, so
    /// polling it once is sound), every RCU idle, parked or busy until at
    /// least `to`, no RCU-stall fault window open or opening before `to`,
    /// and no fault-plan link-window edge before `to`. A parked RCU
    /// stalls on every skipped cycle, and it owes those stalls lazily:
    /// its next wake or any [`SnackPlatform::rcu_stats`] read counts them.
    /// The skipped cycles' only other observable effect — idle statistics
    /// accounting — is replayed in bulk by
    /// [`snacknoc_noc::Network::advance_idle_to`].
    fn maybe_jump(&mut self, cap: u64) -> bool {
        let now = self.net.cycle();
        if self.dense() || cap <= now || !self.net.is_quiescent() {
            return false;
        }
        // Fold every component's next wake into `to`. Any wake at (or
        // before) `now` means the next step is not a no-op: no jump.
        let mut to = cap;
        let engine_wake = match &self.engine {
            None => None,
            Some(Workload::Phase(e)) => e.next_event_cycle(),
            Some(Workload::Coherent(e)) => e.next_event_cycle(),
        };
        if let Some(w) = engine_wake {
            if w <= now {
                return false;
            }
            to = to.min(w);
        }
        let dead_active = self.any_dead_nodes();
        for c in 0..self.cpms.len() {
            // Dead CPMs never tick (see `step`), so they never bound a
            // jump either.
            if dead_active && self.node_dead(self.cpms[c].node(), now) {
                continue;
            }
            let congestion = self.net.useful_free_output_vcs(self.cpms[c].node());
            match self.cpms[c].next_wake(now, congestion) {
                Some(w) if w <= now => return false,
                Some(w) => to = to.min(w),
                None => {}
            }
        }
        if let Some(plan) = self.net.fault_plan() {
            if !plan.rcu_stalls.is_empty() {
                if plan.any_rcu_stalled(now) {
                    // Stalled RCUs are charged `stalled_cycles` every
                    // cycle of the window: stepping is mandatory.
                    return false;
                }
                if let Some(s) = plan.next_rcu_stall_start_after(now) {
                    to = to.min(s);
                }
            }
        }
        // Parked RCUs stall every skipped cycle and owe those stalls
        // lazily, so only ready RCUs bound the jump.
        for i in self.rcu_ready.iter() {
            // Dead RCUs never tick, so their frozen pending work must not
            // pin the clock (it would otherwise report a wake at `now`
            // forever and forbid every jump).
            if dead_active && self.node_dead(NodeId::new(i), now) {
                continue;
            }
            match self.rcus[i].next_wake(now) {
                Some(w) if w <= now => return false,
                Some(w) => to = to.min(w),
                None => {}
            }
        }
        if let Some(w) = self.net.next_wake() {
            to = to.min(w);
        }
        self.net.advance_idle_to(to);
        true
    }

    /// Advances the platform by one clock jump capped at `cap` when it is
    /// quiescent (and not in dense mode), else by one step, and returns
    /// the new cycle. Every run loop advances through this one primitive:
    /// [`SnackPlatform::step_until`], `run_kernel`'s attempt loop,
    /// [`SnackPlatform::run_multiprogram`] and the service loop, which
    /// passes its next scheduled event (pending arrival, abort deadline,
    /// horizon) as the cap, so a jump never skips a cycle on which the
    /// service must act, and every stepping mode observes service events
    /// at identical cycles.
    pub fn step_or_jump(&mut self, cap: u64) -> u64 {
        if !self.maybe_jump(cap) {
            self.step();
        }
        self.net.cycle()
    }

    /// Steps until the clock reaches `target`, jumping across provably
    /// dead stretches unless in dense mode.
    pub fn step_until(&mut self, target: u64) {
        while self.net.cycle() < target {
            self.step_or_jump(target);
        }
    }

    /// Runs `cycles` cycles (jumping across provably dead stretches,
    /// landing on exactly the same cycle and statistics as stepping).
    pub fn run(&mut self, cycles: u64) {
        self.step_until(self.net.cycle() + cycles);
    }
}

/// A workload packet re-typed for the platform network: the same spec,
/// its payload wrapped as a platform payload by `payload`.
fn wrap<M>(spec: PacketSpec<M>, payload: fn(M) -> SnackPayload) -> PacketSpec<SnackPayload> {
    let PacketSpec { src, dst, vnet, class, size_bytes, .. } = spec;
    PacketSpec::new(src, dst, vnet, class, size_bytes, payload(spec.payload))
}
