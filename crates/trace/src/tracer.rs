//! The bounded [`RingTracer`] and the enum-dispatch [`TracerHandle`]
//! that the simulator threads through its hot loops.
//!
//! Producers call [`TracerHandle::record_with`] at interesting boundaries
//! and [`TracerHandle::count_link`] once per link traversal. Recording is
//! deterministic: no wall-clock, no I/O, no iteration over unordered maps.

use std::collections::BTreeMap;

use crate::event::{ComponentClass, EventKind, TraceEvent};

/// Bounded-memory recording tracer: one fixed-capacity buffer per
/// component class, drop-newest overflow policy with per-class drop
/// counters, and an exact (unbounded but tiny) per-link hop counter map.
///
/// Drop-newest (rather than drop-oldest) keeps span-*birth* events —
/// `kernel_submit`, `packet_inject`, early `rcu_issue`s — which the
/// critical-path walk needs; the tail of a saturated run is summarized by
/// the drop counters instead.
#[derive(Debug, Clone, Default)]
pub struct RingTracer {
    capacity: usize,
    buffers: [Vec<TraceEvent>; 3],
    dropped: [u64; 3],
    link_hops: BTreeMap<(u32, u8), u64>,
    first_cycle: Option<u64>,
    last_cycle: u64,
}

impl RingTracer {
    /// Create a tracer holding at most `capacity` events *per component
    /// class* (so at most `3 * capacity` events total).
    pub fn new(capacity: usize) -> Self {
        RingTracer {
            capacity,
            buffers: [
                Vec::with_capacity(capacity.min(4096)),
                Vec::with_capacity(capacity.min(4096)),
                Vec::with_capacity(capacity.min(4096)),
            ],
            dropped: [0; 3],
            link_hops: BTreeMap::new(),
            first_cycle: None,
            last_cycle: 0,
        }
    }

    /// Per-class event buffer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events retained for `class`, in recording order.
    pub fn events(&self, class: ComponentClass) -> &[TraceEvent] {
        &self.buffers[class.index()]
    }

    /// Events dropped (buffer full) for `class`.
    pub fn dropped(&self, class: ComponentClass) -> u64 {
        self.dropped[class.index()]
    }

    /// Total events retained across all classes.
    pub fn len(&self) -> usize {
        self.buffers.iter().map(Vec::len).sum()
    }

    /// True when no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// First and last cycle any event or link count was recorded at.
    pub fn cycle_range(&self) -> Option<(u64, u64)> {
        self.first_cycle.map(|f| (f, self.last_cycle))
    }

    /// All retained events merged into one deterministic order:
    /// by cycle, then lane (router < rcu < cpm), then recording order.
    pub fn merged_events(&self) -> Vec<TraceEvent> {
        let mut tagged: Vec<(u64, usize, usize, TraceEvent)> = Vec::with_capacity(self.len());
        for class in ComponentClass::ALL {
            for (i, ev) in self.buffers[class.index()].iter().enumerate() {
                tagged.push((ev.cycle, class.index(), i, *ev));
            }
        }
        tagged.sort_by_key(|a| (a.0, a.1, a.2));
        tagged.into_iter().map(|(_, _, _, ev)| ev).collect()
    }

    /// Exact per-link flit counts: `((router, out_port), hops)`, sorted.
    pub fn link_heatmap(&self) -> Vec<((u32, u8), u64)> {
        self.link_hops.iter().map(|(&k, &v)| (k, v)).collect()
    }

    fn touch(&mut self, cycle: u64) {
        if self.first_cycle.is_none() {
            self.first_cycle = Some(cycle);
        }
        self.last_cycle = self.last_cycle.max(cycle);
    }

    /// Records one structured event at `cycle` (dropped, and counted, when
    /// its class's buffer is full).
    pub fn record(&mut self, cycle: u64, kind: EventKind) {
        self.touch(cycle);
        let idx = kind.class().index();
        if self.buffers[idx].len() < self.capacity {
            self.buffers[idx].push(TraceEvent { cycle, kind });
        } else {
            self.dropped[idx] += 1;
        }
    }

    /// Counts one flit traversing the link leaving `router` via
    /// `out_port`. Kept separate from the event buffers so link-utilization
    /// heatmaps stay exact even when the bounded buffers saturate and drop.
    pub fn count_link(&mut self, cycle: u64, router: u32, out_port: u8) {
        self.touch(cycle);
        *self.link_hops.entry((router, out_port)).or_insert(0) += 1;
    }
}

/// Enum-dispatch handle the simulator owns. `Nop` is the default and costs
/// one branch per hook; `Ring` boxes the recording state so the handle
/// itself stays pointer-sized inside `Network`.
#[derive(Debug, Default)]
pub enum TracerHandle {
    /// Tracing disabled (default): hooks are branch-and-return.
    #[default]
    Nop,
    /// Tracing enabled with a bounded [`RingTracer`].
    Ring(Box<RingTracer>),
}

impl TracerHandle {
    /// A recording handle with the given per-class buffer capacity.
    pub fn ring(capacity: usize) -> Self {
        TracerHandle::Ring(Box::new(RingTracer::new(capacity)))
    }

    /// Whether this handle records anything.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        matches!(self, TracerHandle::Ring(_))
    }

    /// Record an event, constructing it *only if* tracing is enabled: the
    /// closure runs solely in the `Ring` arm, so disabled runs do zero
    /// work beyond one discriminant branch.
    #[inline(always)]
    pub fn record_with(&mut self, cycle: u64, make: impl FnOnce() -> EventKind) {
        if let TracerHandle::Ring(t) = self {
            let kind = make();
            t.record(cycle, kind);
        }
    }

    /// Count one link traversal (see [`RingTracer::count_link`]).
    #[inline(always)]
    pub fn count_link(&mut self, cycle: u64, router: u32, out_port: u8) {
        if let TracerHandle::Ring(t) = self {
            t.count_link(cycle, router, out_port);
        }
    }

    /// Borrow the underlying recorder, if enabled.
    pub fn as_ring(&self) -> Option<&RingTracer> {
        match self {
            TracerHandle::Nop => None,
            TracerHandle::Ring(t) => Some(t),
        }
    }

    /// Take the recorder out, leaving `Nop` behind.
    pub fn take_ring(&mut self) -> Option<Box<RingTracer>> {
        match std::mem::take(self) {
            TracerHandle::Nop => None,
            TracerHandle::Ring(t) => Some(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cpm: u32) -> EventKind {
        EventKind::KernelSubmit { cpm }
    }

    #[test]
    fn nop_records_nothing_and_closure_never_runs() {
        let mut h = TracerHandle::Nop;
        let mut ran = false;
        h.record_with(5, || {
            ran = true;
            ev(0)
        });
        assert!(!ran, "event constructor must not run when tracing is off");
        assert!(h.as_ring().is_none());
    }

    #[test]
    fn ring_drops_newest_when_full_and_counts_drops() {
        let mut t = RingTracer::new(2);
        t.record(1, ev(0));
        t.record(2, ev(1));
        t.record(3, ev(2)); // dropped
        let kept = t.events(ComponentClass::Cpm);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].cycle, 1);
        assert_eq!(kept[1].cycle, 2);
        assert_eq!(t.dropped(ComponentClass::Cpm), 1);
        assert_eq!(t.dropped(ComponentClass::Router), 0);
        assert_eq!(t.cycle_range(), Some((1, 3)));
    }

    #[test]
    fn buffers_are_per_class() {
        let mut t = RingTracer::new(1);
        t.record(1, ev(0)); // cpm
        t.record(
            1,
            EventKind::RcuIssue { node: 0, sub_block: 0, seq: 0 },
        ); // rcu: separate buffer, not dropped
        assert_eq!(t.events(ComponentClass::Cpm).len(), 1);
        assert_eq!(t.events(ComponentClass::Rcu).len(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn link_counts_survive_buffer_saturation() {
        let mut t = RingTracer::new(0); // every event drops
        t.record(1, ev(0));
        t.count_link(1, 4, 2);
        t.count_link(2, 4, 2);
        t.count_link(2, 0, 1);
        assert_eq!(t.len(), 0);
        assert_eq!(t.link_heatmap(), vec![((0, 1), 1), ((4, 2), 2)]);
    }

    #[test]
    fn merged_events_order_is_cycle_then_lane_then_arrival() {
        let mut t = RingTracer::new(8);
        t.record(2, ev(0)); // cpm @2
        t.record(1, EventKind::RcuIssue { node: 3, sub_block: 0, seq: 0 }); // rcu @1
        t.record(
            1,
            EventKind::FlitHop { router: 0, out_port: 1, flit: 9, packet: 9 },
        ); // router @1
        let merged = t.merged_events();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].kind.class(), ComponentClass::Router);
        assert_eq!(merged[1].kind.class(), ComponentClass::Rcu);
        assert_eq!(merged[2].kind.class(), ComponentClass::Cpm);
    }

    #[test]
    fn handle_take_leaves_nop() {
        let mut h = TracerHandle::ring(4);
        h.record_with(1, || ev(0));
        let ring = h.take_ring().expect("was ring");
        assert_eq!(ring.len(), 1);
        assert!(!h.is_enabled());
    }
}
