//! Rows of fixed-width values in compressed-sparse-row form: the one table
//! layout of the workspace — a graph's adjacency, HOPI's label tables,
//! PPO's label lists, a document's children and a collection's tag index
//! are each a [`Rows`].

use crate::flat::{self, Element};
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// A table of rows, row `i` being `entries[offsets[i]..offsets[i + 1]]`:
/// one allocation per array however many rows there are. The image is the
/// two arrays, each packed by [`flat`], and nothing else — what a struct of
/// the two `flat` fields writes, so a table nested where an index held its
/// own pair of arrays writes the same bytes. A decoded table is only
/// sliced after [`Self::fault`] cleared it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows<T> {
    /// Row boundaries: `rows + 1` non-decreasing values, from 0 to
    /// `entries.len()`.
    pub(crate) offsets: Vec<u32>,
    /// Every row's entries, row after row.
    pub(crate) entries: Vec<T>,
}

/// An entry count as a row offset. A table past 2³² entries is out of
/// scope, but it must fail loudly at build, not wrap.
fn offset(entries: usize) -> u32 {
    // flixcheck: allow(unwrap-expect): a table past 2^32 entries must stop the build with a message instead of wrapping its u32 offsets; the build signatures carry no Result
    u32::try_from(entries).expect("a row table holds fewer than 2^32 entries")
}

/// The offsets of `rows` rows holding one entry per key of `keys`: the
/// counting pass of a counting sort.
///
/// # Panics
/// If a key is not below `rows`, or if there are 2³² keys or more.
fn counted(rows: usize, keys: impl IntoIterator<Item = u32>) -> Vec<u32> {
    let (mut offsets, mut total) = (vec![0u32; rows + 1], 0);
    for k in keys {
        offsets[k as usize + 1] += 1;
        total += 1;
    }
    // Below 2^32 in all, so no count or running sum wrapped.
    offset(total);
    for k in 0..rows {
        offsets[k + 1] += offsets[k];
    }
    offsets
}

impl<T: Element> Rows<T> {
    /// `rows`, in order, each keeping its entries' order.
    ///
    /// # Panics
    /// If they hold 2³² entries or more.
    pub fn from_rows<R: AsRef<[T]>>(rows: &[R]) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut entries = Vec::with_capacity(rows.iter().map(|row| row.as_ref().len()).sum());
        offsets.push(0);
        for row in rows {
            entries.extend_from_slice(row.as_ref());
            offsets.push(offset(entries.len()));
        }
        Self { offsets, entries }
    }

    /// `rows` rows, row `k` holding the values of the `(k, value)` pairs in
    /// the order `pairs` yields them: one stable counting sort. `keys`
    /// yields every pair's key, in any order, for the counting pass, so a
    /// caller whose `pairs` walk nested rows counts from a flat array
    /// instead (walking HOPI's label rows twice made its inversion take
    /// twice as long).
    ///
    /// # Panics
    /// If a key is not below `rows`, if `keys` are not the pairs' keys, or
    /// if there are 2³² pairs or more.
    pub fn grouped(
        rows: usize,
        keys: impl IntoIterator<Item = u32>,
        pairs: impl IntoIterator<Item = (u32, T)>,
    ) -> Self {
        let offsets = counted(rows, keys);
        let mut cursor = offsets[..rows].to_vec();
        let mut entries = vec![T::default(); offsets[rows] as usize];
        // Internal iteration: a flattened iterator walks each inner slice
        // in a loop of its own.
        pairs.into_iter().for_each(|(k, value)| {
            let at = &mut cursor[k as usize];
            entries[*at as usize] = value;
            *at += 1;
        });
        assert!(
            cursor == offsets[1..],
            "the keys counted are the pairs' keys"
        );
        Self { offsets, entries }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Row `i`'s entries; `i` must be below [`Self::rows`].
    pub fn row(&self, i: u32) -> &[T] {
        let i = i as usize;
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Every row's entries, row after row.
    pub fn entries(&self) -> &[T] {
        &self.entries
    }

    /// Sorts the entries of every row, in place and stably, by `key`.
    pub fn sort_rows_by_key<K: Ord>(&mut self, key: impl Fn(T) -> K) {
        for row in self.offsets.windows(2) {
            let row = &mut self.entries[row[0] as usize..row[1] as usize];
            row.sort_by_key(|&entry| key(entry));
        }
    }

    /// The first way the table fails to be `rows` rows whose entries' first
    /// lanes lie below `bound`, if it does — the offsets in O(rows), then
    /// one pass over the entries — so that neither slicing a row nor
    /// indexing by an entry goes out of bounds. A built table never has
    /// one; a decoded image can, so whoever decodes one checks before the
    /// first lookup.
    pub fn fault(&self, rows: usize, bound: usize) -> Option<String> {
        let (off, entries) = (&self.offsets, self.entries.len());
        if off.len() != rows + 1 {
            return Some(format!("{} offsets for {rows} rows", off.len()));
        }
        if off[0] != 0 {
            return Some(format!("first offset is {}, not 0", off[0]));
        }
        // Branch-free, as the entries' maximum below, then the search only
        // to name the row.
        let decreases = off.windows(2).fold(false, |bad, w| bad | (w[0] > w[1]));
        if decreases {
            let i = off.windows(2).position(|w| w[0] > w[1])?;
            let (a, b) = (off[i], off[i + 1]);
            return Some(format!("offsets decrease at row {i}: {a} then {b}"));
        }
        if off[rows] as usize != entries {
            let last = off[rows];
            return Some(format!(
                "last offset is {last}, the table holds {entries} entries"
            ));
        }
        // A branch-free maximum, which vectorises (an early-exit search
        // measured 2.5× slower), then the search only to name an entry
        // that is out of range.
        let top = self.entries.iter().fold(0, |top, e| top.max(e.lane(0)));
        if (top as usize) < bound {
            return None;
        }
        let at = (self.entries.iter()).position(|e| e.lane(0) as usize >= bound)?;
        let v = self.entries[at].lane(0);
        Some(format!("entry {at} names node {v} of {bound}"))
    }
}

impl Rows<(u32, u32)> {
    /// The table turned around as a square one: entry `(w, x)` of row `v`
    /// becomes entry `(v, x)` of row `w`, visiting the rows in `order`
    /// (every row index once), so every row of the result lists its `v`s
    /// in the order `order` does, whatever order this table's rows are in
    /// — one counting pass over the flat entries, then one scatter. HOPI
    /// derives each of its inverted tables, and `L_in`, so.
    ///
    /// # Panics
    /// If an entry's first lane or a row in `order` is not below
    /// [`Self::rows`] — a decoded table is inverted only after
    /// [`Self::fault`] with that bound cleared it — or if the rows `order`
    /// visits do not hold, key by key, as many entries as the table.
    pub fn inverted(&self, order: impl IntoIterator<Item = u32>) -> Self {
        let rows = self.rows();
        let offsets = counted(rows, self.entries.iter().map(|&(w, _)| w));
        let mut cursor = offsets[..rows].to_vec();
        let mut entries = vec![(0, 0); self.entries.len()];
        for v in order {
            for &(w, x) in self.row(v) {
                let at = &mut cursor[w as usize];
                entries[*at as usize] = (v, x);
                *at += 1;
            }
        }
        assert!(cursor == offsets[1..], "the order visits every row once");
        Self { offsets, entries }
    }
}

/// One array of a table, packed by [`flat`]: a slice to write, a `Vec`
/// read back.
struct Packed<A>(A);

impl<T: Element> Serialize for Packed<&[T]> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        flat::serialize(self.0, serializer)
    }
}

impl<'de, T: Element> Deserialize<'de> for Packed<Vec<T>> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        flat::deserialize(deserializer).map(Packed)
    }
}

/// The two arrays as a pair, which the codec writes — as it does a struct —
/// as its fields in order and nothing else.
impl<T: Element> Serialize for Rows<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (Packed(&self.offsets[..]), Packed(&self.entries[..])).serialize(serializer)
    }
}

impl<'de, T: Element> Deserialize<'de> for Rows<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let (Packed(offsets), Packed(entries)) = Deserialize::deserialize(deserializer)?;
        Ok(Self { offsets, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Table = Rows<(u32, u32)>;

    fn rows_of(table: &Table) -> Vec<Vec<(u32, u32)>> {
        (0..table.rows() as u32)
            .map(|i| table.row(i).to_vec())
            .collect()
    }

    /// Pushing each value onto its key's row: what the counting sort must
    /// equal.
    fn pushed(rows: usize, pairs: &[(u32, (u32, u32))]) -> Vec<Vec<(u32, u32)>> {
        let mut grouped = vec![Vec::new(); rows];
        for &(k, value) in pairs {
            grouped[k as usize].push(value);
        }
        grouped
    }

    #[test]
    fn fault_names_each_damage() {
        let table = Table::from_rows(&[vec![(0, 7)], vec![], vec![(2, 1), (1, 0)]]);
        assert_eq!(table.fault(3, 3), None);
        type Damage = (fn(&mut Table), &'static str);
        let damage: [Damage; 8] = [
            (|t| t.offsets.clear(), "0 offsets for 3 rows"),
            (|t| t.offsets.push(3), "5 offsets for 3 rows"),
            (|t| t.offsets[0] = 1, "first offset is 1, not 0"),
            (|t| t.offsets[1] = 2, "offsets decrease at row 1: 2 then 1"),
            // the first of two decreases, then one at the last row
            (
                |t| t.offsets[1..].copy_from_slice(&[3, 1, 0]),
                "offsets decrease at row 1: 3 then 1",
            ),
            (|t| t.offsets[2] = 4, "offsets decrease at row 2: 4 then 3"),
            (
                |t| t.offsets[3] = 2,
                "last offset is 2, the table holds 3 entries",
            ),
            (|t| t.entries[1].0 = 3, "entry 1 names node 3 of 3"),
        ];
        for (damage, fault) in damage {
            let mut bad = table.clone();
            damage(&mut bad);
            assert_eq!(bad.fault(3, 3).as_deref(), Some(fault));
        }
        // the bound is the entries', not the rows'
        assert_eq!(table.fault(3, 4), None);
        assert!(table.fault(2, 3).unwrap().contains("for 2 rows"));
    }

    #[test]
    fn tables_without_rows_or_entries_are_sound() {
        let none = Table::from_rows::<Vec<_>>(&[]);
        assert_eq!((none.rows(), none.fault(0, 0)), (0, None));
        assert_eq!(none, Table::grouped(0, [], []));
        let empty = Rows::<u32>::grouped(3, [], []);
        assert_eq!((empty.rows(), empty.fault(3, 0)), (3, None));
        assert!(empty.row(2).is_empty());
    }

    #[test]
    #[should_panic(expected = "the pairs' keys")]
    fn keys_that_are_not_the_pairs_keys_panic() {
        Rows::<u32>::grouped(2, [0, 1], [(0, 7), (0, 8)]);
    }

    #[test]
    #[should_panic(expected = "every row once")]
    fn an_inversion_order_that_skips_a_row_panics() {
        Table::from_rows(&[vec![(0, 7)], vec![]]).inverted([1]);
    }

    #[test]
    #[should_panic(expected = "2^32")]
    fn an_entry_count_past_u32_panics_instead_of_wrapping() {
        offset(u32::MAX as usize + 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Rows of any shape — empty ones first, in the middle and last —
        /// come back as they went in, and the table is sound.
        #[test]
        fn rows_given_in_order_round_trip(
            rows in proptest::collection::vec(
                proptest::collection::vec((0u32..12, 0u32..9), 0..5),
                0..12,
            )
        ) {
            let table = Table::from_rows(&rows);
            prop_assert_eq!(table.fault(rows.len(), 12), None);
            prop_assert_eq!(rows_of(&table), rows.clone());
            prop_assert_eq!(table.entries().to_vec(), rows.concat());
        }

        /// Grouping by key equals pushing each value onto its key's row,
        /// values in the order they came — and sorting every row by a key
        /// equals sorting the pushed rows stably by it.
        #[test]
        fn grouping_equals_pushing_in_visit_order(
            (rows, pairs) in (1usize..12).prop_flat_map(|rows| (
                Just(rows),
                proptest::collection::vec((0..rows as u32, (0u32..20, 0u32..4)), 0..40),
            ))
        ) {
            let keys = pairs.iter().map(|&(k, _)| k).rev();
            let mut table = Table::grouped(rows, keys, pairs.iter().copied());
            prop_assert_eq!(table.fault(rows, 20), None);
            let mut want = pushed(rows, &pairs);
            prop_assert_eq!(rows_of(&table), want.clone());
            table.sort_rows_by_key(|(_, d)| d);
            want.iter_mut().for_each(|row| row.sort_by_key(|&(_, d)| d));
            prop_assert_eq!(rows_of(&table), want);
        }
    }
}
