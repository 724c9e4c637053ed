//! Fixed-capacity bitset used by the transitive-closure oracle.

use serde::{Deserialize, Serialize};

/// A fixed-size set of `usize` values below a capacity chosen at creation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold values in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Maximum value capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The first way the set fails to hold `capacity` values in the words
    /// that takes, if it does — a lookup below the capacity indexes a word,
    /// so a decoded set with fewer would panic.
    pub fn layout_fault(&self, capacity: usize) -> Option<String> {
        let words = self.words.len();
        (self.capacity != capacity || words != capacity.div_ceil(64)).then(|| {
            let held = self.capacity;
            format!("a set of {held} values in {words} words, not of {capacity}")
        })
    }

    /// Inserts `i`; returns true if it was newly inserted.
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        fresh
    }

    /// Removes `i`; returns true if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        present
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        self.words[w] & (1u64 << b) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union; returns true if `self` changed.
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let before = *a;
            *a |= b;
            changed |= *a != before;
        }
        changed
    }

    /// Iterator over set elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.contains(0));
    }

    #[test]
    fn layout_fault_names_a_set_of_another_size() {
        let s = BitSet::new(70);
        assert_eq!(s.layout_fault(70), None);
        assert!(s.layout_fault(71).is_some());
        let mut short = s;
        short.words.pop();
        assert!(short.layout_fault(70).unwrap().contains("in 1 words"));
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(3);
        b.insert(3);
        b.insert(77);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert!(a.contains(77));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn iter_ascending() {
        let mut s = BitSet::new(300);
        for &i in &[299, 5, 64, 63, 128] {
            s.insert(i);
        }
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![5, 63, 64, 128, 299]);
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::new(64);
        s.insert(10);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
