//! Slab-style payload storage for in-flight packets.
//!
//! Flits used to carry an `Option<P>` payload inline, which sized every
//! body/tail flit to the payload type and made each buffer move copy a
//! payload-wide struct. The pool hoists payloads out of the flit stream:
//! a packet's payload lives in one [`PayloadPool`] slot for its whole
//! flight, and the head flit carries only a small generational
//! [`PayloadRef`]. Body/tail flits carry [`PayloadRef::NONE`].
//!
//! Generations catch stale references: taking a slot bumps its generation,
//! so a ref held past its payload's lifetime resolves to `None` instead of
//! aliasing a recycled slot.
//!
//! Allocation happens at packet injection and release when a step
//! resolves the deliveries and drops it staged, in the order they
//! happened, so slot assignment is deterministic and identical across
//! both stepping modes — and slot indices never appear in any observable
//! statistic, so pooling cannot perturb bit-identity.

use std::fmt;

/// A generational handle into a [`PayloadPool`].
///
/// Head flits carry the ref for their packet's payload; every other flit
/// carries [`PayloadRef::NONE`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PayloadRef {
    slot: u32,
    gen: u32,
}

impl PayloadRef {
    /// The null reference carried by body/tail flits.
    pub const NONE: PayloadRef = PayloadRef { slot: u32::MAX, gen: 0 };

    /// Whether this is the null reference.
    pub fn is_none(self) -> bool {
        self.slot == u32::MAX
    }

    /// Whether this reference points at a pool slot.
    pub fn is_some(self) -> bool {
        !self.is_none()
    }
}

/// The pool is full: every slot is live and the configured capacity limit
/// forbids growth.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PoolExhausted {
    /// The capacity limit that was hit.
    pub capacity: usize,
}

impl fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "payload pool exhausted at {} slots", self.capacity)
    }
}

impl std::error::Error for PoolExhausted {}

/// Slab allocator for in-flight packet payloads.
///
/// Freed slots go on a free list and are reused before the slab grows, so
/// a warmed pool performs zero heap allocations in steady state. Growth
/// past the initial capacity is counted in `growth_events` (visible via
/// [`crate::Network::payload_pool_growth_events`]); an optional hard limit
/// turns further growth into a typed [`PoolExhausted`] error instead of an
/// allocation — never a silent wrap or a release-mode panic.
#[derive(Clone, Debug)]
pub struct PayloadPool<P> {
    slots: Vec<Option<P>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    live: usize,
    high_water: usize,
    growth_events: u64,
    /// Hard slot cap. `u32::MAX as usize - 1` by default: slot `u32::MAX`
    /// is the [`PayloadRef::NONE`] sentinel and must never be handed out.
    max_slots: usize,
}

impl<P> Default for PayloadPool<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> PayloadPool<P> {
    /// An empty pool with no slots and the default (sentinel-bounded) cap.
    pub fn new() -> Self {
        PayloadPool {
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
            high_water: 0,
            growth_events: 0,
            max_slots: u32::MAX as usize - 1,
        }
    }

    /// Grows the slab to at least `capacity` empty slots without counting
    /// growth events — deliberate warmup, not demand growth.
    pub fn preallocate(&mut self, capacity: usize) {
        let capacity = capacity.min(self.max_slots);
        while self.slots.len() < capacity {
            let slot = self.slots.len() as u32;
            self.slots.push(None);
            self.gens.push(0);
            self.free.push(slot);
        }
    }

    /// Caps the pool at `max_slots`; inserts beyond the cap fail with
    /// [`PoolExhausted`]. The cap is clamped below the `NONE` sentinel.
    pub fn set_limit(&mut self, max_slots: usize) {
        self.max_slots = max_slots.min(u32::MAX as usize - 1);
    }

    /// Stores `payload`, returning its handle.
    ///
    /// # Errors
    ///
    /// [`PoolExhausted`] when every slot is live and the cap forbids growth.
    pub fn insert(&mut self, payload: P) -> Result<PayloadRef, PoolExhausted> {
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                if self.slots.len() >= self.max_slots {
                    return Err(PoolExhausted { capacity: self.max_slots });
                }
                let slot = self.slots.len() as u32;
                self.slots.push(Some(payload));
                self.gens.push(0);
                self.growth_events += 1;
                slot
            }
        };
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        Ok(PayloadRef { slot, gen: self.gens[slot as usize] })
    }

    /// Removes and returns the payload behind `r`.
    ///
    /// Returns `None` for the null ref, a stale generation, or an already
    /// emptied slot.
    pub fn take(&mut self, r: PayloadRef) -> Option<P> {
        if r.is_none() {
            return None;
        }
        let idx = r.slot as usize;
        if idx >= self.slots.len() || self.gens[idx] != r.gen {
            return None;
        }
        let payload = self.slots[idx].take()?;
        // Wrapping is safe: a stale ref with a recycled generation would
        // need 2^32 reuses of one slot while the ref is still held, and
        // every holder (a head flit) lives far shorter than that.
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(r.slot);
        self.live -= 1;
        Some(payload)
    }

    /// Drops the payload behind `r`, if any — the release path for heads
    /// destroyed in flight (fault drops, duplicate heads).
    pub fn release(&mut self, r: PayloadRef) {
        drop(self.take(r));
    }

    /// Payloads currently stored.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Maximum simultaneous live payloads ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Times the slab grew on demand (insert with an empty free list).
    /// Zero after warmup means the loaded steady state allocates nothing.
    pub fn growth_events(&self) -> u64 {
        self.growth_events
    }

    /// Total slots (live + free).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_round_trips() {
        let mut pool: PayloadPool<String> = PayloadPool::new();
        let a = pool.insert("a".to_string()).unwrap();
        let b = pool.insert("b".to_string()).unwrap();
        assert_eq!(pool.live(), 2);
        assert_eq!(pool.take(b).as_deref(), Some("b"));
        assert_eq!(pool.take(a).as_deref(), Some("a"));
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.high_water(), 2);
        assert_eq!(pool.growth_events(), 2);
    }

    #[test]
    fn stale_and_null_refs_resolve_to_none() {
        let mut pool: PayloadPool<u64> = PayloadPool::new();
        let r = pool.insert(7).unwrap();
        assert_eq!(pool.take(r), Some(7));
        assert_eq!(pool.take(r), None, "double take is stale");
        let recycled = pool.insert(8).unwrap();
        assert_eq!(pool.take(r), None, "old gen cannot alias the recycled slot");
        assert_eq!(pool.take(recycled), Some(8));
        assert_eq!(pool.take(PayloadRef::NONE), None);
        pool.release(PayloadRef::NONE);
    }

    #[test]
    fn free_list_reuse_avoids_growth() {
        let mut pool: PayloadPool<u64> = PayloadPool::new();
        pool.preallocate(4);
        assert_eq!(pool.capacity(), 4);
        assert_eq!(pool.growth_events(), 0, "preallocation is not demand growth");
        let mut refs: Vec<PayloadRef> = (0..4).map(|i| pool.insert(i).unwrap()).collect();
        for _ in 0..100 {
            let r = refs.pop().unwrap();
            let v = pool.take(r).unwrap();
            refs.push(pool.insert(v).unwrap());
        }
        assert_eq!(pool.capacity(), 4);
        assert_eq!(pool.growth_events(), 0);
        assert_eq!(pool.high_water(), 4);
    }

    #[test]
    fn limit_turns_growth_into_typed_error() {
        let mut pool: PayloadPool<u64> = PayloadPool::new();
        pool.set_limit(2);
        let a = pool.insert(1).unwrap();
        let _b = pool.insert(2).unwrap();
        assert_eq!(pool.insert(3), Err(PoolExhausted { capacity: 2 }));
        assert!(pool.insert(3).unwrap_err().to_string().contains("exhausted"));
        pool.release(a);
        assert!(pool.insert(3).is_ok(), "freed slots come back under the cap");
    }
}
