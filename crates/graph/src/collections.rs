//! Sorted-vec set and map: the arena-friendly replacements for the
//! node-id-keyed `BTreeSet<usize>` / `BTreeMap<usize, _>` that used to
//! hold per-node protocol state.
//!
//! Both containers keep their entries in ascending key order at all
//! times, so iteration visits keys in exactly the order the BTree
//! versions did — message emission driven by `for` loops over these is
//! bit-identical to the pre-refactor path. What changes is the memory
//! shape: one contiguous allocation per container instead of one tree
//! node per entry, `O(log n)` binary-search membership with no pointer
//! chasing, and cheap `clear`/reuse across protocol rounds.
//!
//! Inserts are `O(n)` worst-case (a `Vec::insert` shift), which is the
//! right trade for the protocol workloads here: neighbor sets are
//! bounded by the node degree (tens of entries), and most inserts land
//! near the end. For bulk loads use [`VecSet::from_sorted_iter`], or
//! `collect` unsorted keys: the `FromIterator` impl sorts and dedups.

/// A set of `usize` keys stored as a sorted `Vec`.
///
/// Iteration order is ascending, matching `BTreeSet<usize>`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VecSet {
    items: Vec<usize>,
}

impl VecSet {
    /// Creates an empty set.
    #[inline]
    pub fn new() -> Self {
        VecSet { items: Vec::new() }
    }

    /// Creates an empty set with room for `cap` keys.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        VecSet {
            items: Vec::with_capacity(cap),
        }
    }

    /// Builds a set from keys that are **already sorted ascending and
    /// unique** (a topology neighbor list, say) without re-sorting.
    ///
    /// # Panics
    /// Debug-asserts the precondition.
    pub fn from_sorted_iter(keys: impl IntoIterator<Item = usize>) -> Self {
        let items: Vec<usize> = keys.into_iter().collect();
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        VecSet { items }
    }

    /// Number of keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the set has no keys.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Membership test (`O(log n)`).
    #[inline]
    pub fn contains(&self, key: usize) -> bool {
        self.items.binary_search(&key).is_ok()
    }

    /// Inserts `key`; returns `false` if it was already present.
    pub fn insert(&mut self, key: usize) -> bool {
        match self.items.binary_search(&key) {
            Ok(_) => false,
            Err(at) => {
                self.items.insert(at, key);
                true
            }
        }
    }

    /// Removes `key`; returns `false` if it was absent.
    pub fn remove(&mut self, key: usize) -> bool {
        match self.items.binary_search(&key) {
            Ok(at) => {
                self.items.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Removes all keys, keeping the allocation for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Ascending iteration over the keys (same order as `BTreeSet`).
    #[inline]
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, usize>> {
        self.items.iter().copied()
    }

    /// Smallest key, if any.
    #[inline]
    pub fn first(&self) -> Option<usize> {
        self.items.first().copied()
    }
}

impl FromIterator<usize> for VecSet {
    /// Collects arbitrary (unsorted, possibly duplicated) keys.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut items: Vec<usize> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        VecSet { items }
    }
}

impl<'a> IntoIterator for &'a VecSet {
    type Item = usize;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, usize>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A map from `usize` keys to `V`, stored as a `Vec` sorted by key.
///
/// Iteration order is ascending by key, matching `BTreeMap<usize, V>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecMap<V> {
    items: Vec<(usize, V)>,
}

impl<V> Default for VecMap<V> {
    fn default() -> Self {
        VecMap { items: Vec::new() }
    }
}

impl<V> VecMap<V> {
    /// Creates an empty map.
    #[inline]
    pub fn new() -> Self {
        VecMap { items: Vec::new() }
    }

    /// Creates an empty map with room for `cap` entries.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        VecMap {
            items: Vec::with_capacity(cap),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the map has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    #[inline]
    fn index_of(&self, key: usize) -> Result<usize, usize> {
        self.items.binary_search_by(|(k, _)| k.cmp(&key))
    }

    /// True when `key` has an entry.
    #[inline]
    pub fn contains_key(&self, key: usize) -> bool {
        self.index_of(key).is_ok()
    }

    /// The value stored under `key`, if any.
    #[inline]
    pub fn get(&self, key: usize) -> Option<&V> {
        self.index_of(key).ok().map(|at| &self.items[at].1)
    }

    /// Mutable access to the value stored under `key`, if any.
    #[inline]
    pub fn get_mut(&mut self, key: usize) -> Option<&mut V> {
        match self.index_of(key) {
            Ok(at) => Some(&mut self.items[at].1),
            Err(_) => None,
        }
    }

    /// Inserts or replaces the value under `key`, returning the previous
    /// value if one existed.
    pub fn insert(&mut self, key: usize, value: V) -> Option<V> {
        match self.index_of(key) {
            Ok(at) => Some(std::mem::replace(&mut self.items[at].1, value)),
            Err(at) => {
                self.items.insert(at, (key, value));
                None
            }
        }
    }

    /// Removes the entry under `key`, returning its value if it existed.
    pub fn remove(&mut self, key: usize) -> Option<V> {
        match self.index_of(key) {
            Ok(at) => Some(self.items.remove(at).1),
            Err(_) => None,
        }
    }

    /// Removes all entries, keeping the allocation for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Ascending-by-key iteration (same order as `BTreeMap`).
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (usize, &V)> {
        self.items.iter().map(|(k, v)| (*k, v))
    }

    /// Ascending-by-key iteration with mutable values.
    #[inline]
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut V)> {
        self.items.iter_mut().map(|(k, v)| (*k, v))
    }

    /// Ascending key iteration.
    #[inline]
    pub fn keys(&self) -> impl Iterator<Item = usize> + '_ {
        self.items.iter().map(|(k, _)| *k)
    }

    /// Values in ascending key order.
    #[inline]
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.items.iter().map(|(_, v)| v)
    }
}

impl<V> FromIterator<(usize, V)> for VecMap<V> {
    /// Collects entries; on duplicate keys the **last** value wins, as
    /// with `BTreeMap::from_iter`.
    fn from_iter<I: IntoIterator<Item = (usize, V)>>(iter: I) -> Self {
        let mut m = VecMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 11
        }
    }

    #[test]
    fn vecset_matches_btreeset_under_random_ops() {
        let mut next = lcg(42);
        let mut vs = VecSet::new();
        let mut bs = BTreeSet::new();
        for _ in 0..2000 {
            let key = (next() % 64) as usize;
            match next() % 3 {
                0 => assert_eq!(vs.insert(key), bs.insert(key)),
                1 => assert_eq!(vs.remove(key), bs.remove(&key)),
                _ => assert_eq!(vs.contains(key), bs.contains(&key)),
            }
            assert_eq!(vs.len(), bs.len());
        }
        let via_vs: Vec<usize> = vs.iter().collect();
        let via_bs: Vec<usize> = bs.iter().copied().collect();
        assert_eq!(via_vs, via_bs, "iteration order must match BTreeSet");
        assert_eq!(vs.first(), bs.first().copied());
    }

    #[test]
    fn vecmap_matches_btreemap_under_random_ops() {
        let mut next = lcg(7);
        let mut vm = VecMap::new();
        let mut bm = BTreeMap::new();
        for _ in 0..2000 {
            let key = (next() % 48) as usize;
            let val = next();
            match next() % 3 {
                0 => assert_eq!(vm.insert(key, val), bm.insert(key, val)),
                1 => assert_eq!(vm.remove(key), bm.remove(&key)),
                _ => assert_eq!(vm.get(key), bm.get(&key)),
            }
            assert_eq!(vm.len(), bm.len());
        }
        let via_vm: Vec<(usize, u64)> = vm.iter().map(|(k, v)| (k, *v)).collect();
        let via_bm: Vec<(usize, u64)> = bm.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(via_vm, via_bm, "iteration order must match BTreeMap");
    }

    #[test]
    fn vecset_bulk_loads() {
        let a: VecSet = [5, 1, 3, 1, 5].into_iter().collect();
        assert!(a.iter().eq([1, 3, 5]));
        let b = VecSet::from_sorted_iter([2, 4, 5]);
        assert!(b.iter().eq([2, 4, 5]));
    }

    #[test]
    fn vecmap_from_iter_last_value_wins() {
        let m: VecMap<&str> = [(2, "a"), (1, "b"), (2, "c")].into_iter().collect();
        assert_eq!(m.get(2), Some(&"c"));
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn reuse_after_clear() {
        let mut s = VecSet::with_capacity(8);
        s.insert(3);
        s.clear();
        assert!(s.is_empty());
        s.insert(1);
        assert!(s.iter().eq([1]));
        let mut m: VecMap<u8> = VecMap::with_capacity(8);
        m.insert(3, 1);
        m.clear();
        assert!(m.get(3).is_none());
        assert!(m.is_empty());
    }
}
