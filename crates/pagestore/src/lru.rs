//! The least-recently-used table the buffer pool, `flix`'s result cache
//! and its disk-resident index cache evict through. One clock stamps an
//! entry at each lookup and insert, so stamps are unique and an insert is
//! newer than every earlier lookup. The victim, the smallest stamp, is
//! found by one scan, which runs only when a new key meets a full table.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

/// At most `capacity` entries, evicting the least recently used.
pub struct Lru<K, V> {
    capacity: usize,
    clock: u64,
    map: HashMap<K, (u64, V)>,
}

impl<K: Copy + Eq + Hash + Debug, V> Lru<K, V> {
    /// An empty table of at most `capacity` entries.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an LRU table needs at least one slot");
        Self {
            capacity,
            clock: 0,
            map: HashMap::new(),
        }
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The value under `key`, which becomes the most recently used entry.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let (stamp, value) = self.map.get_mut(key)?;
        self.clock += 1;
        *stamp = self.clock;
        Some(value)
    }

    /// The key [`Self::insert`] would evict to make room for `key`: the
    /// least recently used one, if the table is full and `key` is absent.
    pub fn victim_for(&self, key: &K) -> Option<K> {
        if self.map.len() < self.capacity || self.map.contains_key(key) {
            return None;
        }
        let lru = self.map.iter().min_by_key(|(_, (stamp, _))| *stamp);
        lru.map(|(&k, _)| k)
    }

    /// Holds `value` under `key` as the most recently used entry, and
    /// returns what left the table for it: the key's earlier entry, or the
    /// entry evicted to make room.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        let victim = self.victim_for(&key);
        let evicted = victim.and_then(|k| self.map.remove_entry(&k));
        self.clock += 1;
        let replaced = self.map.insert(key, (self.clock, value)).map(|e| (key, e));
        evicted.or(replaced).map(|(k, (_, v))| (k, v))
    }

    /// Takes the entry under `key` out of the table.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|(_, v)| v)
    }

    /// Every entry, in no particular order; recency is left alone.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.map.iter().map(|(&k, (_, v))| (k, v))
    }

    /// Every entry, mutably, in no particular order; recency is left alone.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        self.map.iter_mut().map(|(&k, (_, v))| (k, v))
    }

    /// What is wrong with the table, if anything: more entries than its
    /// capacity, or a stamp ahead of the clock (a later lookup would not
    /// be newer than it).
    pub fn fault(&self) -> Option<String> {
        let (len, capacity, clock) = (self.map.len(), self.capacity, self.clock);
        if len > capacity {
            return Some(format!("{len} entries, capacity {capacity}"));
        }
        let (key, (stamp, _)) = self.map.iter().find(|(_, (stamp, _))| *stamp > clock)?;
        Some(format!(
            "{key:?} is stamped {stamp}, past the clock {clock}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Inserting a key that is already held replaces its value and evicts
    /// nothing, even in a full table: another thread may have loaded the
    /// same key since the caller missed.
    #[test]
    fn admitting_a_cached_id_evicts_nothing() {
        let mut lru = Lru::new(2);
        for id in [0u32, 1] {
            assert!(lru.insert(id, format!("first {id}")).is_none());
        }
        let replaced = lru.insert(1, "again".to_string());
        assert_eq!(replaced, Some((1, "first 1".to_string())));
        assert_eq!(lru.len(), 2, "full, and 0 kept its slot");
        assert_eq!(lru.get(&1).map(String::as_str), Some("again"));
        assert!(lru.map.contains_key(&0));
        // A new key at capacity does evict: the least recently used.
        assert_eq!(lru.victim_for(&2), Some(0));
        assert_eq!(
            lru.insert(2, "new".to_string()),
            Some((0, "first 0".to_string()))
        );
        assert_eq!(lru.len(), 2);
        assert!(lru.map.contains_key(&1) && lru.map.contains_key(&2));
    }

    #[test]
    fn fault_names_each_damage() {
        let mut lru = Lru::new(2);
        lru.insert(7u32, ());
        lru.insert(8, ());
        assert_eq!(lru.fault(), None);
        lru.map.insert(9, (0, ()));
        assert_eq!(lru.fault().as_deref(), Some("3 entries, capacity 2"));
        lru.remove(&9);
        assert_eq!(lru.fault(), None);
        lru.map.get_mut(&8).unwrap().0 = u64::MAX;
        let fault = lru.fault().unwrap();
        assert!(fault.starts_with("8 is stamped "), "{fault}");
        assert!(fault.ends_with(", past the clock 2"), "{fault}");
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        Lru::<u32, ()>::new(0);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(u8),
        Insert(u8, u32),
        Remove(u8),
        VictimFor(u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..4, 0u8..7, 0u32..1000).prop_map(|(kind, key, value)| match kind {
            0 => Op::Get(key),
            1 => Op::Insert(key, value),
            2 => Op::Remove(key),
            _ => Op::VictimFor(key),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table against a `Vec` in recency order, least recent first:
        /// a lookup or an insert moves its entry to the back, and an insert
        /// of a new key into a full table evicts the front.
        #[test]
        fn matches_a_recency_ordered_vec(
            capacity in 1usize..=5,
            ops in proptest::collection::vec(op(), 0..60),
        ) {
            let mut lru = Lru::new(capacity);
            let mut model: Vec<(u8, u32)> = Vec::new();
            let position = |model: &[(u8, u32)], key| model.iter().position(|&(k, _)| k == key);
            for op in ops {
                match op {
                    Op::Get(key) => {
                        let want = position(&model, key).map(|i| {
                            let entry = model.remove(i);
                            model.push(entry);
                            entry.1
                        });
                        prop_assert_eq!(lru.get(&key).copied(), want);
                    }
                    Op::Insert(key, value) => {
                        let want = match position(&model, key) {
                            Some(i) => Some(model.remove(i)),
                            None if model.len() == capacity => Some(model.remove(0)),
                            None => None,
                        };
                        model.push((key, value));
                        prop_assert_eq!(lru.insert(key, value), want);
                    }
                    Op::Remove(key) => {
                        let want = position(&model, key).map(|i| model.remove(i).1);
                        prop_assert_eq!(lru.remove(&key), want);
                    }
                    Op::VictimFor(key) => {
                        let full = model.len() == capacity && position(&model, key).is_none();
                        let want = full.then(|| model[0].0);
                        prop_assert_eq!(lru.victim_for(&key), want);
                    }
                }
                prop_assert_eq!(lru.fault(), None);
                let mut held: Vec<(u8, u32)> = lru.iter().map(|(k, &v)| (k, v)).collect();
                held.sort_unstable();
                let mut want = model.clone();
                want.sort_unstable();
                prop_assert_eq!(held, want);
            }
        }
    }
}
