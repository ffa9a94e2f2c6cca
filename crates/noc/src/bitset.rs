//! The worklist type: a fixed-size set of indices, one bit each.
//!
//! Every worklist of the network cycle (active routers, backlogged NIs,
//! occupied links) and of the platform's RCU loop (ready and parked RCUs)
//! is a [`BitSet`] (DESIGN.md §11). Membership replaces a flag vector,
//! and walking the set bits with `trailing_zeros` yields ascending index
//! order, the order the dense full scans visit, without a per-cycle sort.

/// A set of indices below a length fixed at construction, stored as one
/// bit per index in `u64` words.
///
/// Walk it in ascending order with [`BitSet::iter`], or, when the walk
/// itself changes the set, step with [`BitSet::next_from`]:
///
/// ```
/// use snacknoc_noc::BitSet;
///
/// let mut set = BitSet::new(130);
/// for i in [129, 3, 64] {
///     set.insert(i);
/// }
/// let mut at = 0;
/// while let Some(i) = set.next_from(at) {
///     at = i + 1;
///     set.remove(i); // removing the bit just visited is fine
/// }
/// assert!(set.is_empty());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over the indices `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// The word holding index `i` and `i`'s bit in it.
    fn locate(&self, i: usize) -> (usize, u64) {
        debug_assert!(i < self.len, "index {i} outside a {}-index set", self.len);
        (i / 64, 1 << (i % 64))
    }

    /// Adds `i`; returns whether it was absent.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, bit) = self.locate(i);
        let absent = self.words[w] & bit == 0;
        self.words[w] |= bit;
        absent
    }

    /// Removes `i`; returns whether it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, bit) = self.locate(i);
        let present = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        present
    }

    /// Whether `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        let (w, bit) = self.locate(i);
        self.words[w] & bit != 0
    }

    /// Whether the set has no members: one test per word.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The smallest member at or above `from`, if any. It reads the set
    /// afresh on every call, so a walk that advances with
    /// `from = visited + 1` may remove the member it just visited.
    pub fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (!0 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let i = self.next_from(at)?;
            at = i + 1;
            Some(i)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_edges_insert_remove_and_contain() {
        let mut set = BitSet::new(130);
        for i in [0, 63, 64, 65, 129] {
            assert!(!set.contains(i));
            assert!(set.insert(i), "{i} was absent");
            assert!(!set.insert(i), "{i} is already present");
            assert!(set.contains(i));
        }
        assert!(!set.contains(1) && !set.contains(62) && !set.contains(66));
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 63, 64, 65, 129]);
        assert!(set.remove(64));
        assert!(!set.remove(64));
        assert!(!set.contains(64) && set.contains(63) && set.contains(65));
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.iter().count(), 0);
    }

    #[test]
    fn empty_sets_have_no_members() {
        let zero = BitSet::new(0);
        assert!(zero.is_empty());
        assert_eq!(zero.next_from(0), None);
        assert_eq!(zero.iter().next(), None);
        let set = BitSet::new(100);
        assert!(set.is_empty());
        assert_eq!(set.next_from(0), None);
        assert_eq!(set.next_from(99), None);
    }

    #[test]
    fn a_length_off_the_word_boundary_holds_its_last_index() {
        let mut set = BitSet::new(70);
        assert!(set.insert(69));
        assert!(!set.is_empty());
        assert_eq!(set.next_from(0), Some(69));
        assert_eq!(set.next_from(69), Some(69));
        assert_eq!(set.next_from(70), None);
        assert_eq!(set.next_from(1_000), None);
    }

    #[test]
    fn walks_ascend_whatever_the_insertion_order() {
        let order = [200, 5, 128, 64, 0, 199, 63, 127, 65];
        let mut set = BitSet::new(201);
        for i in order {
            set.insert(i);
        }
        let mut sorted = order.to_vec();
        sorted.sort_unstable();
        assert_eq!(set.iter().collect::<Vec<_>>(), sorted);
        assert_eq!(set.next_from(6), Some(63));
        assert_eq!(set.next_from(66), Some(127));
        assert_eq!(set.next_from(129), Some(199));
    }

    #[test]
    fn a_walk_may_remove_the_bit_it_just_visited() {
        let mut set = BitSet::new(140);
        for i in [0, 1, 63, 64, 65, 139] {
            set.insert(i);
        }
        let mut visited = Vec::new();
        let mut at = 0;
        while let Some(i) = set.next_from(at) {
            at = i + 1;
            visited.push(i);
            // Drop the odd members as they are visited, keep the even.
            if i % 2 == 1 {
                assert!(set.remove(i));
            }
        }
        assert_eq!(visited, [0, 1, 63, 64, 65, 139]);
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 64]);
    }
}
