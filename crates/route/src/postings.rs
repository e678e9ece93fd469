//! Memory-compact building blocks of the shared path trie: `u32` interners
//! for view names and tags, sorted-`u32` posting lists with merge
//! intersection/union, and the resident gauges the service `STATS` verb
//! reports.
//!
//! Everything routing touches per request is a slice of `u32` ids — class
//! ids on trie nodes, view ids inside a class — 4 bytes per posting entry
//! instead of an owned `String` per (tag, view) pair, so intersecting the
//! update footprint against a 10^5-view catalog moves machine words, not
//! string comparisons.

use std::collections::{BTreeMap, HashMap};

/// Interner for registered view names. Ids are dense `u32`s recycled
/// through a free list on removal, so posting entries stay 4 bytes no
/// matter how much catalog churn the index has seen.
#[derive(Debug, Default)]
pub(crate) struct ViewInterner {
    /// name → id, ordered — fallback routing and `views_reading` answer in
    /// ascending name order straight from this map.
    by_name: BTreeMap<String, u32>,
    /// id → name (`None` = freed slot awaiting reuse).
    names: Vec<Option<String>>,
    free: Vec<u32>,
}

impl ViewInterner {
    /// Intern `name`, reusing a freed id slot when one is available.
    /// `name` must not currently be interned.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        debug_assert!(!self.by_name.contains_key(name));
        let id = match self.free.pop() {
            Some(id) => {
                self.names[id as usize] = Some(name.to_string());
                id
            }
            None => {
                self.names.push(Some(name.to_string()));
                (self.names.len() - 1) as u32
            }
        };
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Release `name`'s id back to the free list. Returns the freed id.
    pub(crate) fn release(&mut self, name: &str) -> Option<u32> {
        let id = self.by_name.remove(name)?;
        self.names[id as usize] = None;
        self.free.push(id);
        Some(id)
    }

    pub(crate) fn id(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// The name behind a live id.
    pub(crate) fn name(&self, id: u32) -> &str {
        self.names[id as usize].as_deref().expect("posting entries only hold live view ids")
    }

    pub(crate) fn len(&self) -> usize {
        self.by_name.len()
    }

    /// All live names, ascending.
    pub(crate) fn names_sorted(&self) -> Vec<String> {
        self.by_name.keys().cloned().collect()
    }

    /// Rough resident bytes: map nodes + name storage + slot table.
    pub(crate) fn approx_bytes(&self) -> usize {
        let strings: usize = self.by_name.keys().map(|k| 2 * k.capacity() + 64).sum();
        strings + self.names.capacity() * std::mem::size_of::<Option<String>>()
    }
}

/// Interner for element tags (and relation names). Tag ids are never
/// recycled — the vocabulary is bounded by the schema, not the catalog
/// size, so a freed-slot protocol would buy nothing.
#[derive(Debug, Default)]
pub(crate) struct TagInterner {
    by_tag: HashMap<String, u32>,
    tags: Vec<String>,
}

impl TagInterner {
    pub(crate) fn intern(&mut self, tag: &str) -> u32 {
        if let Some(id) = self.by_tag.get(tag) {
            return *id;
        }
        let id = self.tags.len() as u32;
        self.tags.push(tag.to_string());
        self.by_tag.insert(tag.to_string(), id);
        id
    }

    pub(crate) fn id(&self, tag: &str) -> Option<u32> {
        self.by_tag.get(tag).copied()
    }

    pub(crate) fn approx_bytes(&self) -> usize {
        self.tags.iter().map(|t| 2 * t.capacity() + 48).sum()
    }
}

/// A sorted list of `u32` ids — class ids on trie nodes, view ids on
/// class members, relations and predicate targets.
#[derive(Debug, Default, Clone)]
pub(crate) struct Postings(Vec<u32>);

impl Postings {
    /// Insert `id`, keeping the list sorted (a no-op if present). Bulk
    /// registration appends monotonically, so the common case is O(1).
    pub(crate) fn insert(&mut self, id: u32) {
        match self.0.last() {
            Some(last) if *last < id => self.0.push(id),
            _ => {
                if let Err(pos) = self.0.binary_search(&id) {
                    self.0.insert(pos, id);
                }
            }
        }
    }

    /// Remove `id` if present.
    pub(crate) fn remove(&mut self, id: u32) {
        if let Ok(pos) = self.0.binary_search(&id) {
            self.0.remove(pos);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub(crate) fn as_slice(&self) -> &[u32] {
        &self.0
    }

    pub(crate) fn approx_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<u32>()
    }
}

/// Intersect sorted id lists, rarest first. An empty `lists` means "no
/// constraint" and is the caller's responsibility to special-case.
pub(crate) fn intersect(mut lists: Vec<&[u32]>) -> Vec<u32> {
    lists.sort_by_key(|l| l.len());
    let (first, rest) = lists.split_first().expect("intersect() needs at least one list");
    let mut out: Vec<u32> = first.to_vec();
    for other in rest {
        intersect_with(&mut out, other);
        if out.is_empty() {
            break;
        }
    }
    out
}

/// `current ∩ other`, in place. Linear merge when the sides are comparable,
/// per-element binary search when `current` is much smaller.
pub(crate) fn intersect_with(current: &mut Vec<u32>, other: &[u32]) {
    if current.len() * 16 < other.len() {
        current.retain(|id| other.binary_search(id).is_ok());
        return;
    }
    let mut out = Vec::with_capacity(current.len().min(other.len()));
    let (mut i, mut j) = (0, 0);
    while i < current.len() && j < other.len() {
        match current[i].cmp(&other[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(current[i]);
                i += 1;
                j += 1;
            }
        }
    }
    *current = out;
}

/// Union of sorted id lists (deduplicated, sorted).
pub(crate) fn union(lists: &[&[u32]]) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::with_capacity(lists.iter().map(|l| l.len()).sum());
    for l in lists {
        out.extend_from_slice(l);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Resident-size and churn gauges of one routing index, as the service
/// `STATS` verb reports them (summed across shards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Live trie nodes (anchored root children, floating tag nodes, edge
    /// nodes).
    pub nodes: usize,
    /// Live structural classes: groups of views whose signatures agree on
    /// everything levels 1–2 test. Routing cost scales with this count,
    /// not with the number of views.
    pub classes: usize,
    /// Total posting entries across trie nodes (class ids), class members,
    /// relation postings and predicate targets.
    pub postings: usize,
    /// Approximate resident bytes of the whole index (postings, nodes,
    /// interners, deduplicated predicate targets).
    pub bytes: usize,
    /// Incremental view insertions since the index was created.
    pub inserts: u64,
    /// Incremental view removals since the index was created.
    pub removes: u64,
}

impl IndexStats {
    /// Accumulate another index's gauges (the sharded catalog merges one
    /// `IndexStats` per shard).
    pub fn merge(&mut self, other: &IndexStats) {
        self.nodes += other.nodes;
        self.classes += other.classes;
        self.postings += other.postings;
        self.bytes += other.bytes;
        self.inserts += other.inserts;
        self.removes += other.removes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_recycles_ids() {
        let mut v = ViewInterner::default();
        let a = v.intern("a");
        let b = v.intern("b");
        assert_ne!(a, b);
        assert_eq!(v.release("a"), Some(a));
        assert_eq!(v.intern("c"), a, "freed slot is reused");
        assert_eq!(v.name(a), "c");
        assert_eq!(v.len(), 2);
        assert_eq!(v.names_sorted(), ["b", "c"]);
    }

    #[test]
    fn postings_stay_sorted_under_mixed_ops() {
        let mut p = Postings::default();
        for id in [5, 1, 9, 3, 9] {
            p.insert(id);
        }
        assert_eq!(p.as_slice(), [1, 3, 5, 9]);
        p.remove(5);
        p.remove(42); // absent: no-op
        assert_eq!(p.as_slice(), [1, 3, 9]);
    }

    #[test]
    fn merge_helpers() {
        assert_eq!(intersect(vec![&[1, 2, 3, 9], &[2, 3, 4], &[0, 2, 3]]), [2, 3]);
        assert_eq!(union(&[&[1, 5], &[2, 5, 7]]), [1, 2, 5, 7]);
        let mut cur = vec![1u32, 2, 3];
        intersect_with(&mut cur, &[2, 3, 4]);
        assert_eq!(cur, [2, 3]);
    }
}
