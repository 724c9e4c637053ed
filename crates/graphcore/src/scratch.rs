//! Reusable dense traversal scratch: a `node -> distance` map that is
//! emptied in O(1).

use crate::{Distance, NodeId};

/// A dense `node -> distance` map for one traversal at a time, reused
/// across traversals without clearing: every slot carries the epoch it was
/// written in, and [`DistScratch::begin`] starts a new epoch, so entries of
/// earlier traversals — over the same graph or another one — are simply
/// never current again. The current entries are also listed in first-touch
/// order, which is a BFS queue when a traversal inserts nodes as it
/// discovers them.
///
/// The index crates keep one per thread (`thread_local!`), so a lookup
/// allocates nothing once the scratch has grown to the largest index the
/// thread has queried.
#[derive(Debug, Default)]
pub struct DistScratch {
    /// Epoch in which `dist[v]` was last written; 0 is never current.
    stamp: Vec<u32>,
    dist: Vec<Distance>,
    touched: Vec<NodeId>,
    epoch: u32,
}

impl DistScratch {
    /// An empty scratch (no allocation until the first [`Self::begin`]).
    pub const fn new() -> Self {
        Self {
            stamp: Vec::new(),
            dist: Vec::new(),
            touched: Vec::new(),
            epoch: 0,
        }
    }

    /// Starts a traversal over nodes `0..n`: forgets every entry and grows
    /// to `n` slots if needed. When the epoch counter wraps, the stamps are
    /// cleared so a slot written 2³² traversals ago cannot read as current.
    pub fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
        }
        self.touched.clear();
        self.epoch = match self.epoch.checked_add(1) {
            Some(next) => next,
            None => {
                self.stamp.fill(0);
                1
            }
        };
    }

    /// Moves the epoch counter to `epoch`, so a test — of this type or of a
    /// scratch built on it — reaches the wrap without 2³² traversals.
    /// Entries written so far keep their stamps.
    #[doc(hidden)]
    pub fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Records `d` for `v` if `v` has no entry yet or `d` is smaller than
    /// the recorded distance. Returns true when `v` was new.
    pub fn relax(&mut self, v: NodeId, d: Distance) -> bool {
        let i = v as usize;
        if self.stamp[i] == self.epoch {
            self.dist[i] = self.dist[i].min(d);
            false
        } else {
            self.stamp[i] = self.epoch;
            self.dist[i] = d;
            self.touched.push(v);
            true
        }
    }

    /// The distance recorded for `v` in the current traversal.
    pub fn get(&self, v: NodeId) -> Option<Distance> {
        let i = v as usize;
        (self.stamp.get(i) == Some(&self.epoch)).then(|| self.dist[i])
    }

    /// The `i`-th entry in first-touch order, as `(node, distance)`. A BFS
    /// that inserts nodes as it discovers them reads its queue through
    /// this: entry `i` is the `i`-th node to expand.
    pub fn nth(&self, i: usize) -> Option<(NodeId, Distance)> {
        let v = *self.touched.get(i)?;
        Some((v, self.dist[v as usize]))
    }

    /// The current entries as `(node, distance)`, in first-touch order.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, Distance)> + '_ {
        self.touched.iter().map(|&v| (v, self.dist[v as usize]))
    }
}

/// Runs a lookup written in its buffer-filling form on a fresh `Vec`:
/// `fill` replaces the contents of the `Vec` it is handed and returns
/// whatever else the lookup answers (a row count, say), and both come back.
/// A caller that answers many lookups in a row keeps one buffer and calls
/// the filling form; this is the one line its `Vec`-returning wrapper is.
pub fn filled<T, R>(fill: impl FnOnce(&mut Vec<T>) -> R) -> (Vec<T>, R) {
    let mut out = Vec::new();
    let answer = fill(&mut out);
    (out, answer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relax_keeps_the_minimum_and_first_touch_order() {
        let mut s = DistScratch::new();
        s.begin(8);
        assert!(s.relax(5, 3));
        assert!(s.relax(2, 7));
        assert!(!s.relax(5, 1));
        assert!(!s.relax(2, 9));
        assert_eq!(s.get(5), Some(1));
        assert_eq!(s.get(2), Some(7));
        assert_eq!(s.get(0), None);
        assert_eq!(s.entries().collect::<Vec<_>>(), vec![(5, 1), (2, 7)]);
        assert_eq!(
            (s.nth(0), s.nth(1), s.nth(2)),
            (Some((5, 1)), Some((2, 7)), None)
        );
    }

    #[test]
    fn begin_forgets_everything_and_resizes_both_ways() {
        let mut s = DistScratch::new();
        s.begin(4);
        s.relax(3, 1);
        // a larger graph: old entries gone, new slots usable
        s.begin(100);
        assert_eq!(s.get(3), None);
        assert_eq!(s.entries().count(), 0);
        assert!(s.relax(99, 2));
        // back to a smaller one: the slot written above is stale, and a
        // node beyond the scratch is simply absent
        s.begin(4);
        assert_eq!(s.get(99), None);
        assert_eq!(s.get(1_000_000), None);
        assert!(s.relax(3, 5));
        assert_eq!(s.get(3), Some(5));
    }

    #[test]
    fn epoch_wrap_clears_the_stamps() {
        let mut s = DistScratch::new();
        s.begin(4);
        // Leave a slot stamped with the epoch the counter will land on
        // after wrapping, then force the wrap.
        s.stamp[2] = 1;
        s.dist[2] = 42;
        s.force_epoch(u32::MAX - 1);
        s.begin(4); // epoch u32::MAX
        s.relax(1, 6);
        assert_eq!(s.get(1), Some(6));
        s.begin(4); // wraps to 1
        assert_eq!(s.epoch, 1);
        assert_eq!(s.get(2), None, "stale stamp 1 must not read as current");
        assert_eq!(s.get(1), None, "entry of the previous epoch is gone");
        assert!(s.relax(2, 9));
        assert_eq!(s.get(2), Some(9));
    }
}
