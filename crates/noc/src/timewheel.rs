//! A deterministic calendar queue for clock jumps.
//!
//! Serial stepping (DESIGN.md §12) advances the clock directly to the
//! next cycle at which *anything* can happen instead of iterating dead
//! cycles. The network schedules its timed wake-ups — fault-plan window
//! edges — here; worklist-driven components (routers, links, NI queues)
//! wake "now" by construction and never enter the wheel.
//!
//! Determinism rules:
//!
//! * Slots are keyed by absolute cycle in a `BTreeMap`, so the earliest
//!   pending cycle is always well defined and independent of insertion
//!   order across cycles.
//! * Within one cycle, events drain in **FIFO order of scheduling** — a
//!   plain `Vec` per slot, never a hash structure — so replaying the same
//!   schedule yields the same intra-cycle order bit for bit.
//!
//! The wheel deliberately has no notion of cancellation: stale entries
//! (whose deadline the clock has already passed via a real step) are
//! dropped in bulk with [`TimeWheel::discard_due`], which is cheaper and
//! simpler than keyed removal and cannot perturb ordering.

#![deny(clippy::unwrap_used)]

use std::collections::BTreeMap;

/// A calendar queue mapping absolute cycles to FIFO event lists.
///
/// `T` is the event payload; scheduling and draining preserve per-cycle
/// insertion order exactly.
#[derive(Clone, Debug)]
pub struct TimeWheel<T> {
    slots: BTreeMap<u64, Vec<T>>,
    len: usize,
}

impl<T> Default for TimeWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimeWheel<T> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        TimeWheel { slots: BTreeMap::new(), len: 0 }
    }

    /// Schedules `event` to fire at absolute `cycle`. Events scheduled to
    /// the same cycle fire in the order they were scheduled.
    pub fn schedule(&mut self, cycle: u64, event: T) {
        self.slots.entry(cycle).or_default().push(event);
        self.len += 1;
    }

    /// The earliest cycle with a pending event, if any.
    pub fn next_cycle(&self) -> Option<u64> {
        self.slots.keys().next().copied()
    }

    /// The earliest pending cycle strictly after `cycle`, if any.
    pub fn next_after(&self, cycle: u64) -> Option<u64> {
        self.slots
            .range((std::ops::Bound::Excluded(cycle), std::ops::Bound::Unbounded))
            .next()
            .map(|(&c, _)| c)
    }

    /// Removes every event scheduled at or before `cycle`, appending them
    /// to `out` in deterministic order: ascending cycle, FIFO within a
    /// cycle.
    pub fn drain_due(&mut self, cycle: u64, out: &mut Vec<T>) {
        while let Some((&c, _)) = self.slots.iter().next() {
            if c > cycle {
                break;
            }
            if let Some(mut events) = self.slots.remove(&c) {
                self.len -= events.len();
                out.append(&mut events);
            }
        }
    }

    /// Drops every event scheduled at or before `cycle` without observing
    /// it (bulk cancellation of deadlines the clock has already passed).
    pub fn discard_due(&mut self, cycle: u64) {
        while let Some((&c, _)) = self.slots.iter().next() {
            if c > cycle {
                break;
            }
            if let Some(events) = self.slots.remove(&c) {
                self.len -= events.len();
            }
        }
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// Number of pending events across all cycles.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_cycle_wins_regardless_of_insertion_order() {
        let mut w = TimeWheel::new();
        w.schedule(30, "c");
        w.schedule(10, "a");
        w.schedule(20, "b");
        assert_eq!(w.next_cycle(), Some(10));
        assert_eq!(w.next_after(10), Some(20));
        assert_eq!(w.next_after(25), Some(30));
        assert_eq!(w.next_after(30), None);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn same_cycle_events_drain_in_fifo_order() {
        let mut w = TimeWheel::new();
        w.schedule(5, 1);
        w.schedule(5, 2);
        w.schedule(3, 0);
        w.schedule(5, 3);
        let mut out = Vec::new();
        w.drain_due(5, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(w.is_empty());
    }

    #[test]
    fn drain_due_leaves_future_events_pending() {
        let mut w = TimeWheel::new();
        w.schedule(1, "past");
        w.schedule(2, "now");
        w.schedule(9, "future");
        let mut out = Vec::new();
        w.drain_due(2, &mut out);
        assert_eq!(out, vec!["past", "now"]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_cycle(), Some(9));
    }

    #[test]
    fn discard_due_drops_stale_without_observation() {
        let mut w = TimeWheel::new();
        w.schedule(4, ());
        w.schedule(4, ());
        w.schedule(7, ());
        w.discard_due(6);
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_cycle(), Some(7));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.next_cycle(), None);
    }
}
