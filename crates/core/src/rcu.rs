//! The Router Compute Unit: the dataflow processing element added to every
//! NoC router (paper §III-D).
//!
//! An RCU holds an **ordered instruction buffer** (instructions grouped in
//! sub-blocks, executed in sequence within a block), a **dependency
//! buffer** (values captured from passing transient data tokens), an
//! **accumulator register**, and a fixed-point ALU (1-cycle add/sub/acc,
//! 2-cycle multiply/MAC). It follows the classic dataflow firing rule: an
//! instruction executes once its operands are available — with the
//! constraint that a sub-block, once started, owns the accumulator until
//! its final instruction retires (paper §III-D1).

use crate::fixed::Fixed;
use crate::token::{DataToken, DepId, Instruction, Op, Operand, ResultDest, SubBlockId};
use snacknoc_trace::{EventKind, FireDest, TracerHandle, NO_DEP};
use std::collections::{BTreeMap, HashMap};

/// Stable small-integer encoding of an [`Op`] for structured trace events.
fn op_code(op: Op) -> u8 {
    match op {
        Op::Add => 0,
        Op::Sub => 1,
        Op::Mul => 2,
        Op::Mac => 3,
        Op::Acc => 4,
    }
}

/// Something an RCU wants to put on the network after an execution.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Emission {
    /// A transient data token to launch onto the static ring.
    Token(DataToken),
    /// A final kernel result headed for the CPM's output FIFO.
    Output {
        /// Output slot index.
        index: u32,
        /// The result value.
        value: Fixed,
    },
}

/// Counters exposed for the utilization and QoS analyses.
#[derive(Clone, Copy, Debug, Default)]
pub struct RcuStats {
    /// Instructions executed.
    pub executed: u64,
    /// Data-token captures from the ring.
    pub captures: u64,
    /// Cycles spent with at least one instruction pending but none
    /// fireable (dependency stalls).
    pub stalled_cycles: u64,
}

/// One Router Compute Unit.
#[derive(Clone, Debug)]
pub struct Rcu {
    /// Pending instructions: per sub-block, ordered by sequence number.
    pending: BTreeMap<SubBlockId, BTreeMap<u32, Instruction>>,
    /// Next sequence number to execute per sub-block.
    progress: HashMap<SubBlockId, u32>,
    /// Captured dependency values with their remaining local use count.
    dep_buffer: HashMap<DepId, (Fixed, u32)>,
    /// Operand references awaiting capture from the ring.
    wanted: HashMap<DepId, u32>,
    /// The accumulator register.
    acc: Fixed,
    /// The sub-block currently owning the accumulator.
    active_block: Option<SubBlockId>,
    /// Cursor cache for the active block: the sequence number it wants
    /// next (mirror of `progress[active_block]`) and a copy of that
    /// instruction if it has already arrived. Lets [`Rcu::next_fireable`]
    /// answer the common every-cycle question — "can the active block
    /// advance?" — without re-walking `progress` (HashMap) and `pending`
    /// (two BTreeMap levels) per lane per cycle. Meaningful only while
    /// `active_block.is_some()`.
    active_seq: u32,
    /// Copy of `pending[active_block][active_seq]`, `None` if that
    /// instruction has not arrived yet (or no block is active).
    cursor: Option<Instruction>,
    /// ALU busy until this cycle.
    busy_until: u64,
    /// Emissions produced by the in-flight instruction group, released
    /// when the ALU latency elapses.
    staged: Vec<Emission>,
    /// Last token produced per dependency id — the *kernel state* the
    /// CPM watchdog re-issues from when a ring token is lost to a fault
    /// (see [`Rcu::retransmit`]). Cleared per CPM namespace when that
    /// CPM's kernel retires its results.
    produced: HashMap<DepId, DataToken>,
    /// Instructions fired per cycle. 1 models the paper's scalar RCU;
    /// larger widths model the *vectorized RCUs* of §VII (a MAC tree
    /// retiring several chain steps per cycle).
    lanes: usize,
    /// Counters.
    pub stats: RcuStats,
}

impl Default for Rcu {
    fn default() -> Self {
        Self::new()
    }
}

impl Rcu {
    /// Creates an idle scalar (1-lane) RCU.
    pub fn new() -> Self {
        Self::with_lanes(1)
    }

    /// Creates an idle RCU firing up to `lanes` instructions per cycle
    /// (paper §VII: vectorized RCUs).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn with_lanes(lanes: usize) -> Self {
        assert!(lanes > 0, "an RCU needs at least one lane");
        Rcu {
            pending: BTreeMap::new(),
            progress: HashMap::new(),
            dep_buffer: HashMap::new(),
            wanted: HashMap::new(),
            acc: Fixed::ZERO,
            active_block: None,
            active_seq: 0,
            cursor: None,
            busy_until: 0,
            staged: Vec::new(),
            produced: HashMap::new(),
            lanes,
            stats: RcuStats::default(),
        }
    }

    /// Whether the RCU has nothing queued, staged, or in flight.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.staged.is_empty()
    }

    /// The next cycle at which ticking this RCU is *not* a provable no-op,
    /// given the current cycle — `None` for an idle RCU (event-driven
    /// stepping may sleep indefinitely; delivery of work re-wakes it).
    ///
    /// A busy RCU wakes at its execution-latency horizon (`tick` returns
    /// untouched before then); a non-idle RCU past that horizon answers
    /// `now`, since its tick either fires or accrues `stalled_cycles`.
    /// The platform does not ask an RCU whose last tick stalled: it parks
    /// it, counts its stalls lazily, and wakes it on an edge that could
    /// make it fireable (see [`Rcu::tick_into`]).
    pub fn next_wake(&self, now: u64) -> Option<u64> {
        if self.is_idle() {
            None
        } else if self.busy_until > now {
            Some(self.busy_until)
        } else {
            Some(now)
        }
    }

    /// Enqueues an arriving instruction token into the ordered buffer and
    /// registers its dependency wants.
    pub fn accept_instruction(&mut self, ins: Instruction) {
        for operand in [ins.vl, ins.vr] {
            if let Some(d) = operand.dep() {
                *self.wanted.entry(d).or_insert(0) += 1;
            }
        }
        self.pending.entry(ins.sub_block).or_default().insert(ins.seq, ins);
        self.progress.entry(ins.sub_block).or_insert(0);
        // Wake edge for the cursor cache: the active block may have been
        // waiting exactly for this instruction.
        if self.active_block == Some(ins.sub_block) && ins.seq == self.active_seq {
            self.cursor = Some(ins);
        }
    }

    /// Lets the RCU inspect a transient data token passing its router.
    /// If any pending operand references the token's dependency, the value
    /// is captured into the dependency buffer and the token's dependent
    /// count is decremented by the number of captured references.
    pub fn observe_token(&mut self, token: &mut DataToken) {
        if let Some(w) = self.wanted.remove(&token.dep) {
            debug_assert!(w > 0);
            debug_assert!(
                token.dependents >= w,
                "token retired early: dependents underflow (program invalid)"
            );
            token.dependents -= w;
            let entry = self.dep_buffer.entry(token.dep).or_insert((token.value, 0));
            entry.0 = token.value;
            entry.1 += w;
            self.stats.captures += 1;
        }
    }

    /// Re-issues the retained token for `dep` with `remaining` dependents
    /// and a bumped sequence tag — the recovery path the CPM watchdog
    /// drives when a ring token is presumed lost (paper-faithful kernel
    /// state lives at the producing RCU). Returns `None` if this RCU never
    /// produced `dep` (e.g. the producer instruction has not fired yet).
    pub fn retransmit(&mut self, dep: DepId, remaining: u32) -> Option<DataToken> {
        let retained = self.produced.get_mut(&dep)?;
        *retained = retained.with_seq(retained.seq + 1);
        Some(DataToken::new(dep, remaining, retained.value).with_seq(retained.seq))
    }

    /// Drops retained tokens belonging to the CPM namespace `namespace`
    /// (called when that CPM's kernel completes, so retained state never
    /// leaks across kernels).
    pub fn clear_retained_namespace(&mut self, namespace: u32) {
        self.produced.retain(|dep, _| dep >> crate::cpm::NAMESPACE_SHIFT != namespace);
    }

    /// Number of produced tokens currently retained for retransmission.
    pub fn retained_tokens(&self) -> usize {
        self.produced.len()
    }

    /// Purges every piece of per-kernel state belonging to CPM namespace
    /// `namespace`: pending instructions, operand wants, captured operand
    /// values, staged emissions, and retained retransmission tokens. The
    /// platform's graceful-degradation path calls this when it aborts a
    /// stalled kernel attempt — the whole failed epoch is quarantined
    /// before the kernel is resubmitted under a fresh namespace, so no
    /// half-executed sub-block or stale capture can leak into the retry.
    /// State belonging to other namespaces (concurrent kernels from other
    /// CPMs) is untouched.
    pub fn abort_namespace(&mut self, namespace: u32) {
        let foreign = |id: u32| id >> crate::cpm::NAMESPACE_SHIFT != namespace;
        self.pending.retain(|&sb, _| foreign(sb));
        self.progress.retain(|&sb, _| foreign(sb));
        self.wanted.retain(|&d, _| foreign(d));
        self.dep_buffer.retain(|&d, _| foreign(d));
        self.produced.retain(|&d, _| foreign(d));
        if self.active_block.is_some_and(|b| !foreign(b)) {
            // Releasing the accumulator is safe: the next block to claim
            // it resets `acc` before executing (see `execute`).
            self.active_block = None;
            self.cursor = None;
        }
        self.staged.retain(|e| match e {
            Emission::Token(t) => foreign(t.dep),
            Emission::Output { index, .. } => foreign(*index),
        });
    }

    /// Advances the RCU by one cycle. Returns the emissions completing
    /// this cycle (at most one per lane).
    pub fn tick(&mut self, cycle: u64) -> Vec<Emission> {
        self.tick_traced(cycle, 0, &mut TracerHandle::Nop)
    }

    /// [`Rcu::tick`] with tracing: every fired instruction is recorded as a
    /// [`EventKind::RcuFire`] span on `tracer`, attributed to router `node`.
    pub fn tick_traced(
        &mut self,
        cycle: u64,
        node: u32,
        tracer: &mut TracerHandle,
    ) -> Vec<Emission> {
        let mut out = Vec::new();
        self.tick_into(cycle, node, tracer, &mut out);
        out
    }

    /// [`Rcu::tick_traced`] writing completions into a caller-owned
    /// scratch buffer — the allocation-free hot-loop entry point
    /// ([`SnackPlatform::step`](crate::SnackPlatform::step) reuses one
    /// buffer across all RCUs and cycles). `out` is appended to; emission
    /// order is identical to the `Vec`-returning forms.
    ///
    /// A tick that adds to `stalled_cycles` (past the ALU's busy horizon,
    /// it fired nothing while instructions were pending) leaves nothing
    /// staged or in flight. Every later tick then stalls the same way
    /// until one of three calls
    /// changes what could fire: [`Rcu::accept_instruction`], an
    /// [`Rcu::observe_token`] that captures, or [`Rcu::abort_namespace`].
    /// No other method touches `pending`, `dep_buffer` or the active
    /// block, so the platform may skip such an RCU and count its stalls
    /// by the cycle.
    pub fn tick_into(
        &mut self,
        cycle: u64,
        node: u32,
        tracer: &mut TracerHandle,
        out: &mut Vec<Emission>,
    ) {
        if cycle < self.busy_until {
            return;
        }
        out.append(&mut self.staged);
        let mut group_latency = 0;
        for _ in 0..self.lanes {
            let Some((block, seq)) = self.next_fireable() else { break };
            let ins = self
                .pending
                .get_mut(&block)
                .and_then(|b| b.remove(&seq))
                .expect("fireable instruction exists");
            if self.pending.get(&block).is_some_and(|b| b.is_empty()) {
                self.pending.remove(&block);
            }
            group_latency = group_latency.max(ins.op.latency());
            tracer.record_with(cycle, || EventKind::RcuFire {
                node,
                sub_block: ins.sub_block,
                seq: ins.seq,
                op: op_code(ins.op),
                latency: ins.op.latency(),
                deps: [
                    ins.vl.dep().unwrap_or(NO_DEP),
                    ins.vr.dep().unwrap_or(NO_DEP),
                ],
                dest: match ins.dest {
                    ResultDest::Accumulate => FireDest::Acc,
                    ResultDest::Token { dep, .. } => FireDest::Token { dep },
                    ResultDest::Output { index } => FireDest::Output { index },
                },
            });
            self.execute(ins);
        }
        if group_latency > 0 {
            self.busy_until = cycle + group_latency;
        } else if !self.pending.is_empty() {
            self.stats.stalled_cycles += 1;
        }
    }

    /// Finds the next instruction the firing rule allows.
    fn next_fireable(&self) -> Option<(SubBlockId, u32)> {
        if let Some(b) = self.active_block {
            // The active sub-block owns the accumulator: only its next
            // instruction may fire. The cursor cache answers this without
            // touching `progress`/`pending` — the debug assertions below
            // pin it to the maps it mirrors.
            debug_assert_eq!(
                self.active_seq,
                *self.progress.get(&b).expect("active block tracked"),
                "cursor seq diverged from progress map"
            );
            debug_assert_eq!(
                self.cursor,
                self.pending.get(&b).and_then(|blk| blk.get(&self.active_seq)).copied(),
                "cursor instruction diverged from pending buffer"
            );
            let ins = self.cursor.as_ref()?;
            return self.operands_ready(ins).then_some((b, self.active_seq));
        }
        // Otherwise any sub-block may start; take the lowest-numbered ready
        // one for determinism.
        for (&b, block) in &self.pending {
            let seq = *self.progress.get(&b).expect("progress tracked per block");
            if let Some(ins) = block.get(&seq) {
                if self.operands_ready(ins) {
                    return Some((b, seq));
                }
            }
        }
        None
    }

    /// Whether the firing rule allows some pending instruction now.
    #[cfg(debug_assertions)]
    pub(crate) fn can_fire(&self) -> bool {
        self.next_fireable().is_some()
    }

    fn operands_ready(&self, ins: &Instruction) -> bool {
        [ins.vl, ins.vr].iter().all(|o| match o.dep() {
            None => true,
            Some(d) => self.dep_buffer.get(&d).is_some_and(|(_, uses)| *uses > 0),
        })
    }

    fn operand_value(&mut self, o: Operand) -> Fixed {
        match o {
            Operand::Imm(v) => v,
            Operand::Dep(d) => {
                let (value, uses) = self.dep_buffer.get_mut(&d).expect("operand ready");
                let v = *value;
                *uses -= 1;
                if *uses == 0 {
                    self.dep_buffer.remove(&d);
                }
                v
            }
        }
    }

    fn execute(&mut self, ins: Instruction) {
        // A new sub-block claiming the accumulator resets it.
        if self.active_block != Some(ins.sub_block) {
            self.active_block = Some(ins.sub_block);
            self.acc = Fixed::ZERO;
        }
        let vl = self.operand_value(ins.vl);
        let vr = self.operand_value(ins.vr);
        let result = match ins.op {
            Op::Add => vl + vr,
            Op::Sub => vl - vr,
            Op::Mul => vl * vr,
            Op::Mac => {
                self.acc = self.acc.mac(vl, vr);
                self.acc
            }
            Op::Acc => {
                self.acc = self.acc + vl + vr;
                self.acc
            }
        };
        if ins.ends_block {
            self.active_block = None;
            self.cursor = None;
            self.progress.remove(&ins.sub_block);
        } else {
            *self.progress.get_mut(&ins.sub_block).expect("tracked") += 1;
            // Refresh the cursor cache: the block now wants `seq + 1`,
            // which may already be waiting in the ordered buffer.
            self.active_seq = ins.seq + 1;
            self.cursor = self
                .pending
                .get(&ins.sub_block)
                .and_then(|blk| blk.get(&self.active_seq))
                .copied();
        }
        match ins.dest {
            ResultDest::Accumulate => {}
            ResultDest::Token { dep, dependents } => {
                let token = DataToken::new(dep, dependents, result);
                self.produced.insert(dep, token);
                self.staged.push(Emission::Token(token));
            }
            ResultDest::Output { index } => {
                self.staged.push(Emission::Output { index, value: result });
            }
        }
        self.stats.executed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snacknoc_noc::NodeId;

    fn imm(v: f64) -> Operand {
        Operand::Imm(Fixed::from_f64(v))
    }

    fn ins(
        op: Op,
        vl: Operand,
        vr: Operand,
        dest: ResultDest,
        block: SubBlockId,
        seq: u32,
        ends: bool,
    ) -> Instruction {
        Instruction { op, pe: NodeId::new(0), vl, vr, dest, sub_block: block, seq, ends_block: ends }
    }

    /// Drives the RCU until it produces an emission or `limit` cycles pass.
    fn drain(rcu: &mut Rcu, from: u64, limit: u64) -> Option<(u64, Emission)> {
        for c in from..from + limit {
            let out = rcu.tick(c);
            if let Some(e) = out.into_iter().next() {
                return Some((c, e));
            }
        }
        None
    }

    #[test]
    fn add_with_immediates_emits_after_latency() {
        let mut rcu = Rcu::new();
        rcu.accept_instruction(ins(
            Op::Add,
            imm(2.0),
            imm(3.0),
            ResultDest::Output { index: 0 },
            0,
            0,
            true,
        ));
        // Fires at cycle 1, 1-cycle latency, emission at cycle 2.
        assert!(rcu.tick(1).is_empty());
        let e = rcu.tick(2);
        assert_eq!(e, vec![Emission::Output { index: 0, value: Fixed::from_f64(5.0) }]);
        assert!(rcu.is_idle());
        assert_eq!(rcu.stats.executed, 1);
    }

    #[test]
    fn mul_takes_two_cycles() {
        let mut rcu = Rcu::new();
        rcu.accept_instruction(ins(
            Op::Mul,
            imm(2.0),
            imm(3.5),
            ResultDest::Output { index: 0 },
            0,
            0,
            true,
        ));
        assert!(rcu.tick(1).is_empty(), "fires");
        assert!(rcu.tick(2).is_empty(), "still in the multiplier");
        let e = rcu.tick(3);
        assert_eq!(e, vec![Emission::Output { index: 0, value: Fixed::from_f64(7.0) }]);
    }

    #[test]
    fn mac_sub_block_accumulates_and_is_atomic() {
        let mut rcu = Rcu::new();
        // Block 0: acc = 1*2 + 3*4 = 14 (two MACs).
        rcu.accept_instruction(ins(Op::Mac, imm(1.0), imm(2.0), ResultDest::Accumulate, 0, 0, false));
        rcu.accept_instruction(ins(
            Op::Mac,
            imm(3.0),
            imm(4.0),
            ResultDest::Output { index: 0 },
            0,
            1,
            true,
        ));
        // Block 1 is ready too but must not interleave with block 0.
        rcu.accept_instruction(ins(
            Op::Add,
            imm(10.0),
            imm(20.0),
            ResultDest::Output { index: 1 },
            1,
            0,
            true,
        ));
        let (c1, e1) = drain(&mut rcu, 1, 20).unwrap();
        assert_eq!(e1, Emission::Output { index: 0, value: Fixed::from_f64(14.0) });
        let (_, e2) = drain(&mut rcu, c1, 20).unwrap();
        assert_eq!(e2, Emission::Output { index: 1, value: Fixed::from_f64(30.0) });
    }

    #[test]
    fn accumulator_resets_between_blocks() {
        let mut rcu = Rcu::new();
        rcu.accept_instruction(ins(
            Op::Acc,
            imm(5.0),
            imm(5.0),
            ResultDest::Output { index: 0 },
            0,
            0,
            true,
        ));
        rcu.accept_instruction(ins(
            Op::Acc,
            imm(1.0),
            imm(1.0),
            ResultDest::Output { index: 1 },
            1,
            0,
            true,
        ));
        let (c1, e1) = drain(&mut rcu, 1, 20).unwrap();
        assert_eq!(e1, Emission::Output { index: 0, value: Fixed::from_f64(10.0) });
        let (_, e2) = drain(&mut rcu, c1, 20).unwrap();
        assert_eq!(
            e2,
            Emission::Output { index: 1, value: Fixed::from_f64(2.0) },
            "second block must not see the first block's accumulator"
        );
    }

    #[test]
    fn dependency_stalls_until_token_passes() {
        let mut rcu = Rcu::new();
        rcu.accept_instruction(ins(
            Op::Add,
            Operand::Dep(7),
            imm(1.0),
            ResultDest::Output { index: 0 },
            0,
            0,
            true,
        ));
        for c in 1..5 {
            assert!(rcu.tick(c).is_empty(), "stalled on dep 7");
        }
        assert!(rcu.stats.stalled_cycles >= 3);
        let mut tok = DataToken::new(7, 2, Fixed::from_f64(41.0));
        rcu.observe_token(&mut tok);
        assert_eq!(tok.dependents, 1, "one local reference captured");
        assert_eq!(rcu.stats.captures, 1);
        let (_, e) = drain(&mut rcu, 5, 10).unwrap();
        assert_eq!(e, Emission::Output { index: 0, value: Fixed::from_f64(42.0) });
    }

    #[test]
    fn uninterested_tokens_pass_untouched() {
        let mut rcu = Rcu::new();
        let mut tok = DataToken::new(3, 4, Fixed::ONE);
        rcu.observe_token(&mut tok);
        assert_eq!(tok.dependents, 4);
        assert_eq!(rcu.stats.captures, 0);
    }

    #[test]
    fn same_dep_used_by_both_operands() {
        let mut rcu = Rcu::new();
        rcu.accept_instruction(ins(
            Op::Mul,
            Operand::Dep(1),
            Operand::Dep(1),
            ResultDest::Output { index: 0 },
            0,
            0,
            true,
        ));
        let mut tok = DataToken::new(1, 2, Fixed::from_f64(3.0));
        rcu.observe_token(&mut tok);
        assert_eq!(tok.dependents, 0, "both references captured in one pass");
        let (_, e) = drain(&mut rcu, 1, 10).unwrap();
        assert_eq!(e, Emission::Output { index: 0, value: Fixed::from_f64(9.0) });
    }

    #[test]
    fn late_instruction_captures_from_later_pass() {
        // Token passes before the instruction wanting it arrives; since the
        // dependent count includes the future want, the token keeps
        // circulating and a later pass serves it.
        let mut rcu = Rcu::new();
        let mut tok = DataToken::new(9, 1, Fixed::from_f64(6.0));
        rcu.observe_token(&mut tok); // nothing wants it yet
        assert_eq!(tok.dependents, 1);
        rcu.accept_instruction(ins(
            Op::Add,
            Operand::Dep(9),
            imm(0.0),
            ResultDest::Output { index: 0 },
            0,
            0,
            true,
        ));
        rcu.observe_token(&mut tok); // next lap
        assert_eq!(tok.dependents, 0);
        let (_, e) = drain(&mut rcu, 1, 10).unwrap();
        assert_eq!(e, Emission::Output { index: 0, value: Fixed::from_f64(6.0) });
    }

    #[test]
    fn vector_lanes_retire_a_chain_faster() {
        // An 8-step Acc chain: a scalar RCU needs 8 firing cycles, a
        // 4-lane RCU two groups.
        let chain = |rcu: &mut Rcu| {
            for seq in 0..8u32 {
                rcu.accept_instruction(ins(
                    Op::Acc,
                    imm(1.0),
                    imm(0.0),
                    if seq == 7 { ResultDest::Output { index: 0 } } else { ResultDest::Accumulate },
                    0,
                    seq,
                    seq == 7,
                ));
            }
        };
        let mut scalar = Rcu::new();
        chain(&mut scalar);
        let (t_scalar, e) = drain(&mut scalar, 1, 32).unwrap();
        assert_eq!(e, Emission::Output { index: 0, value: Fixed::from_f64(8.0) });
        let mut vector = Rcu::with_lanes(4);
        chain(&mut vector);
        let (t_vector, e) = drain(&mut vector, 1, 32).unwrap();
        assert_eq!(e, Emission::Output { index: 0, value: Fixed::from_f64(8.0) }, "same result");
        assert!(t_vector < t_scalar, "4 lanes finish sooner: {t_vector} vs {t_scalar}");
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = Rcu::with_lanes(0);
    }

    #[test]
    fn retransmit_reissues_retained_tokens_with_bumped_seq() {
        let mut rcu = Rcu::new();
        rcu.accept_instruction(ins(
            Op::Add,
            imm(4.0),
            imm(5.0),
            ResultDest::Token { dep: 3, dependents: 2 },
            0,
            0,
            true,
        ));
        let (_, e) = drain(&mut rcu, 1, 10).unwrap();
        assert_eq!(e, Emission::Token(DataToken::new(3, 2, Fixed::from_f64(9.0))));
        assert_eq!(rcu.retained_tokens(), 1);
        // One dependent already captured elsewhere: re-issue with 1 left.
        let r1 = rcu.retransmit(3, 1).expect("retained");
        assert_eq!((r1.dep, r1.dependents, r1.seq), (3, 1, 1));
        assert_eq!(r1.value, Fixed::from_f64(9.0));
        assert!(r1.checksum_ok());
        let r2 = rcu.retransmit(3, 1).expect("still retained");
        assert_eq!(r2.seq, 2, "each re-issue bumps the sequence tag");
        assert_eq!(rcu.retransmit(99, 1), None, "never produced");
        rcu.clear_retained_namespace(0);
        assert_eq!(rcu.retained_tokens(), 0);
        assert_eq!(rcu.retransmit(3, 1), None, "cleared with its kernel");
    }

    #[test]
    fn clear_retained_namespace_is_selective() {
        let mut rcu = Rcu::new();
        let mk = |dep: DepId, block: SubBlockId| {
            ins(Op::Add, imm(1.0), imm(1.0), ResultDest::Token { dep, dependents: 1 }, block, 0, true)
        };
        let ns1 = 1u32 << crate::cpm::NAMESPACE_SHIFT;
        rcu.accept_instruction(mk(5, 0));
        rcu.accept_instruction(mk(5 | ns1, 1));
        for c in 1..20 {
            rcu.tick(c);
        }
        assert_eq!(rcu.retained_tokens(), 2);
        rcu.clear_retained_namespace(1);
        assert_eq!(rcu.retained_tokens(), 1);
        assert!(rcu.retransmit(5, 1).is_some(), "namespace 0 survives");
    }

    #[test]
    fn out_of_order_arrival_within_block_executes_in_seq_order() {
        let mut rcu = Rcu::new();
        // seq 1 arrives before seq 0.
        rcu.accept_instruction(ins(
            Op::Acc,
            imm(1.0),
            imm(0.0),
            ResultDest::Output { index: 0 },
            0,
            1,
            true,
        ));
        assert_eq!(drain(&mut rcu, 1, 5), None, "cannot start at seq 1");
        rcu.accept_instruction(ins(Op::Acc, imm(10.0), imm(0.0), ResultDest::Accumulate, 0, 0, false));
        let (_, e) = drain(&mut rcu, 6, 20).unwrap();
        assert_eq!(e, Emission::Output { index: 0, value: Fixed::from_f64(11.0) });
    }
}
