//! The shared path-trie routing index: every registered view's signature
//! merged into **one** structure, so routing cost scales with the update's
//! footprint and the number of distinct view *shapes*, not the catalog's
//! size.
//!
//! ## Structural classes
//!
//! Levels 1–2 only look at a signature's structure: its vocabulary, its
//! parent→child edges and its root children. Level 3 additionally needs
//! to know which tags carry predicate targets at all. Views that agree on
//! all four — the interned, sorted [`ClassKey`] `(root_children, tokens,
//! edges, leaf-domain tag set)` — get exactly the same level-1/2 answer
//! for every footprint, so they share one **class**. A partition family
//! of 50k views that differ only in their range bounds is one class; the
//! TPC-H fan-out catalog of any size is three.
//!
//! Each class holds its sorted `members` (view ids) and, per leaf-domain
//! tag, a [`PredIndex`] over the members' predicate targets. A tag of the
//! class's vocabulary without a leaf-domain entry is a pass-through: it
//! has no `PredIndex`, and a predicate on it admits every member, exactly
//! as the per-view test does.
//!
//! ## Node layout
//!
//! The trie has two branches under a shared root (YFilter's split between
//! anchored and floating path steps, specialised to the two structural
//! requirements a [`Footprint`] can carry):
//!
//! * **Anchored branch** — one depth-1 node per distinct tag that is a
//!   direct child of some class's root. Its postings answer the
//!   footprint's `root_children` requirements (first steps of
//!   `document(…)` bindings).
//! * **Floating branch** (`//tag`) — one depth-1 node per distinct tag in
//!   any class's vocabulary; its postings answer token requirements
//!   (level 1). Each floating node's children are the tags observed as its
//!   ASG children; those depth-2 nodes' postings answer `(parent, child)`
//!   edge requirements (level 2).
//!
//! Every node carries a sorted `u32` posting list of **class** ids
//! ([`crate::postings`]). Levels 1–2 intersect a handful of short lists;
//! the pruning counters are sums of the member counts of the classes each
//! level drops.
//!
//! ## Predicate level: per class, deduplicated targets + interval stab
//!
//! Level 3 runs only inside the classes levels 1–2 kept. Within a class,
//! each leaf-domain tag keeps the **distinct** `(type, domain, hint)`
//! resolution targets of its members (deduplicated by structural key, each
//! with its own member postings — a partition family collapses to one
//! target per partition, an unconstrained column to one shared target).
//! Targets whose domain is a pure interval with numeric endpoints are also
//! entered into sorted endpoint arrays, so an equality predicate finds the
//! few stabbed intervals by binary search and only those run the real
//! `constrain` + `satisfiable` check. The pre-filter is deliberately
//! **over-approximate** (endpoints widened outward before comparison):
//! admitted targets are always re-checked exactly, and a target is skipped
//! only when the widened interval proves the constrained domain empty —
//! so the surviving set is bit-identical to evaluating every target.
//!
//! A class's survivors start from the first predicate's allowed list
//! (borrowed when one target admits, never re-sorted) and shrink by
//! intersection; a class no predicate constrains contributes its members.
//!
//! ## Cost model
//!
//! A route costs O(classes touched + stabbed targets + output): levels
//! 1–2 merge class-id lists, level 3 binary-searches the surviving
//! classes' endpoint arrays, and only the candidates themselves are
//! copied and named. None of it grows with the number of views that share
//! a class.
//!
//! ## Incremental remove
//!
//! Removal is the mirror of insertion: the view leaves its class's members
//! and its predicate targets' postings (targets whose postings empty are
//! freed). When the class itself empties, its id is unposted from its trie
//! nodes, nodes whose postings and children both emptied are unlinked (the
//! cascade walks up the parent chain) and the class id is recycled. The
//! per-tag endpoint arrays are *not* rebuilt inline — mutation just drops
//! the derived arrays and the next route rebuilds them once (an add/drop
//! burst pays one O(m log m) rebuild, not one per mutation).
//!
//! ## Soundness
//!
//! The trie prunes exactly when the per-view
//! [`RelevanceIndex`](crate::RelevanceIndex) test would. Level 1/2 postings
//! are set-decompositions of the same signature fields, and every member of
//! a class has those fields equal, so a class passes or fails levels 1–2
//! as each of its members would. Level 3 evaluates, per member, the same
//! domains with the same typing and the same satisfiability hint, and
//! passes a member whose signature has no entry for the predicate's tag.
//! `TrieIndex::route` and the per-view `route` therefore return identical
//! candidate sets and identical per-level pruning counters — a property the
//! workspace holds with differential tests (`tests/route_soundness.rs`) and
//! a fuzz oracle (`ufilter-fuzz`).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, RwLock};

use ufilter_asg::ViewAsg;
use ufilter_rdb::sat::Domain;
use ufilter_rdb::{CmpOp, DataType, Value};
use ufilter_xquery::UpdateStmt;

use crate::footprint::Footprint;
use crate::index::{Route, SignatureParts, ViewSignature};
use crate::postings::{
    intersect, intersect_with, union, IndexStats, Postings, TagInterner, ViewInterner,
};

/// Node id of the anchored branch root.
const ANCHORED_ROOT: u32 = 0;
/// Node id of the floating (`//`) branch root.
const FLOATING_ROOT: u32 = 1;

#[derive(Debug, Default)]
struct TrieNode {
    parent: u32,
    tag: u32,
    children: HashMap<u32, u32>,
    /// Class ids.
    postings: Postings,
    live: bool,
}

/// One deduplicated predicate resolution target: the shared
/// `(type, domain, hint)` triple plus the class members that carry it.
#[derive(Debug)]
struct PredTarget {
    ty: DataType,
    sat_ty: DataType,
    domain: Domain,
    /// Structural dedupe key (also the `by_key` reverse entry to erase on
    /// free).
    key: String,
    /// Widened `(lo, hi)` endpoint keys when the domain is a pure numeric
    /// interval; `None` ⇒ the target is always evaluated exactly.
    interval: Option<(f64, f64)>,
    postings: Postings,
}

/// Per-`DataType` view of a tag's targets, derived lazily from the slot
/// table: the sorted endpoint arrays the interval pre-filter searches.
#[derive(Debug)]
struct Group {
    ty: DataType,
    /// Every live slot of this type (the exact-evaluation fallback set).
    members: Vec<u32>,
    /// Interval targets as `(lo, hi, slot)`, ascending `lo`.
    by_lo: Vec<(f64, f64, u32)>,
    /// Running maximum of `hi` over `by_lo[..=i]` — lets the equality stab
    /// walk stop as soon as no earlier interval can still reach the probe.
    prefix_max_hi: Vec<f64>,
    /// Interval targets as `(hi, slot)`, ascending `hi`.
    by_hi: Vec<(f64, u32)>,
    /// Targets without a usable interval (equality pins, disequalities,
    /// non-numeric or contradicted domains) — always evaluated exactly.
    residual: Vec<u32>,
}

impl Default for Group {
    fn default() -> Group {
        Group {
            ty: DataType::Str,
            members: Vec::new(),
            by_lo: Vec::new(),
            prefix_max_hi: Vec::new(),
            by_hi: Vec::new(),
            residual: Vec::new(),
        }
    }
}

#[derive(Debug, Default)]
struct Derived {
    groups: Vec<Group>,
}

/// The level-3 index of one leaf-domain tag of one class: deduplicated
/// targets and the lazily derived endpoint arrays. A tag with no targets
/// (its nodes never reach a value) admits no member.
#[derive(Debug, Default)]
struct PredIndex {
    slots: Vec<Option<PredTarget>>,
    free: Vec<u32>,
    by_key: HashMap<String, u32>,
    /// `None` ⇒ dirty; rebuilt on the next route that needs it. Mutations
    /// run under `&mut self` (no readers), so the lock is only for the
    /// lazy fill under `&self`.
    derived: RwLock<Option<Arc<Derived>>>,
}

impl PredIndex {
    fn slot_for(&mut self, key: String, ty: DataType, sat_ty: DataType, domain: &Domain) -> u32 {
        if let Some(slot) = self.by_key.get(&key) {
            return *slot;
        }
        let target = PredTarget {
            ty,
            sat_ty,
            domain: domain.clone(),
            key: key.clone(),
            interval: interval_of(domain),
            postings: Postings::default(),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(target);
                slot
            }
            None => {
                self.slots.push(Some(target));
                (self.slots.len() - 1) as u32
            }
        };
        self.by_key.insert(key, slot);
        slot
    }

    fn target(&self, slot: u32) -> &PredTarget {
        self.slots[slot as usize].as_ref().expect("derived arrays only hold live slots")
    }

    fn invalidate(&mut self) {
        *self.derived.get_mut().expect("derived lock") = None;
    }

    fn derived(&self) -> Arc<Derived> {
        if let Some(d) = self.derived.read().expect("derived lock").as_ref() {
            return Arc::clone(d);
        }
        let mut w = self.derived.write().expect("derived lock");
        if let Some(d) = w.as_ref() {
            return Arc::clone(d);
        }
        let mut groups: Vec<Group> = Vec::new();
        for (slot, t) in self.slots.iter().enumerate() {
            let Some(t) = t else { continue };
            let slot = slot as u32;
            let g = match groups.iter_mut().find(|g| g.ty == t.ty) {
                Some(g) => g,
                None => {
                    groups.push(Group { ty: t.ty, ..Group::default() });
                    groups.last_mut().expect("just pushed")
                }
            };
            g.members.push(slot);
            match t.interval {
                Some((lo, hi)) => g.by_lo.push((lo, hi, slot)),
                None => g.residual.push(slot),
            }
        }
        for g in &mut groups {
            g.by_lo.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut max_hi = f64::NEG_INFINITY;
            g.prefix_max_hi = g
                .by_lo
                .iter()
                .map(|(_, hi, _)| {
                    max_hi = max_hi.max(*hi);
                    max_hi
                })
                .collect();
            g.by_hi = g.by_lo.iter().map(|(_, hi, slot)| (*hi, *slot)).collect();
            g.by_hi.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        let d = Arc::new(Derived { groups });
        *w = Some(Arc::clone(&d));
        d
    }

    /// Member ids passing `tag θ value`: the union of postings of every
    /// target whose constrained domain stays satisfiable. Exactly the
    /// per-view level-3 test, shared across the class. Borrowed when a
    /// single target admits.
    fn allowed(&self, op: CmpOp, value: &Value) -> Cow<'_, [u32]> {
        let derived = self.derived();
        let mut sat_slots: Vec<u32> = Vec::new();
        for g in &derived.groups {
            let typed = typed_literal(value, g.ty);
            let sat = |slot: u32| {
                let t = self.target(slot);
                let mut d = t.domain.clone();
                d.constrain(op, &typed);
                d.satisfiable(Some(t.sat_ty))
            };
            let Some(q) = numeric(&typed) else {
                // Non-numeric probe (string, bool, null): no endpoint
                // order to exploit — evaluate every target exactly.
                sat_slots.extend(g.members.iter().copied().filter(|s| sat(*s)));
                continue;
            };
            match op {
                CmpOp::Ne => {
                    // ≠ can only contradict point-pinned domains; cheaper
                    // to evaluate the group than to classify widths.
                    sat_slots.extend(g.members.iter().copied().filter(|s| sat(*s)));
                    continue;
                }
                CmpOp::Eq => {
                    // Stab query: intervals with lo ≤ q ≤ hi. Walk the
                    // lo-sorted prefix backwards; the running max-hi bound
                    // proves when no earlier interval can reach q.
                    let p = g.by_lo.partition_point(|e| e.0 <= q);
                    for i in (0..p).rev() {
                        if g.prefix_max_hi[i] < q {
                            break;
                        }
                        let (_, hi, slot) = g.by_lo[i];
                        if hi >= q && sat(slot) {
                            sat_slots.push(slot);
                        }
                    }
                }
                CmpOp::Lt | CmpOp::Le => {
                    // Only intervals starting at/below q can intersect
                    // `< q`; the rest are provably emptied.
                    let p = g.by_lo.partition_point(|e| e.0 <= q);
                    sat_slots.extend(g.by_lo[..p].iter().map(|(_, _, s)| *s).filter(|s| sat(*s)));
                }
                CmpOp::Gt | CmpOp::Ge => {
                    let p = g.by_hi.partition_point(|e| e.0 < q);
                    sat_slots.extend(g.by_hi[p..].iter().map(|(_, s)| *s).filter(|s| sat(*s)));
                }
            }
            sat_slots.extend(g.residual.iter().copied().filter(|s| sat(*s)));
        }
        match sat_slots.as_slice() {
            [] => Cow::Owned(Vec::new()),
            [slot] => Cow::Borrowed(self.target(*slot).postings.as_slice()),
            slots => {
                let lists: Vec<&[u32]> =
                    slots.iter().map(|s| self.target(*s).postings.as_slice()).collect();
                Cow::Owned(union(&lists))
            }
        }
    }
}

/// Type the probe literal the way Step-1 validation would for a target of
/// type `ty` (mirrors `RelevanceIndex`'s per-view `covers_predicates`).
fn typed_literal(value: &Value, ty: DataType) -> Value {
    match value {
        Value::Str(s) => Value::parse_as(s, ty).unwrap_or_else(|| value.clone()),
        other => other.clone().coerce(ty),
    }
}

/// Finite numeric key of a probe value; `None` falls back to exact
/// evaluation of the whole group.
fn numeric(v: &Value) -> Option<f64> {
    let f = match v {
        Value::Int(i) => *i as f64,
        Value::Date(d) => *d as f64,
        Value::Double(d) => *d,
        _ => return None,
    };
    f.is_finite().then_some(f)
}

/// Outward widening that dominates every `f64` conversion error of the
/// endpoint *and* of any probe value of comparable magnitude — admission is
/// conservative, exclusion is proof.
fn widen(x: f64) -> f64 {
    1.0 + x.abs() * 1e-9
}

/// Widened `(lo, hi)` keys of a pure-interval domain: no equality pin, no
/// disequalities, no recorded contradiction, and numeric (or absent)
/// endpoints. Anything else is evaluated exactly on every probe.
fn interval_of(d: &Domain) -> Option<(f64, f64)> {
    if d.is_contradiction() || d.eq.is_some() || !d.ne.is_empty() {
        return None;
    }
    let lo = match &d.lower {
        None => f64::NEG_INFINITY,
        Some(b) => {
            let x = numeric(&b.value)?;
            x - widen(x)
        }
    };
    let hi = match &d.upper {
        None => f64::INFINITY,
        Some(b) => {
            let x = numeric(&b.value)?;
            x + widen(x)
        }
    };
    Some((lo, hi))
}

/// Everything levels 1–2 (and level 3's pass-through test) read from a
/// signature, as sorted, deduplicated tag ids. Views with equal keys share
/// a [`Class`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ClassKey {
    root_children: Vec<u32>,
    tokens: Vec<u32>,
    edges: Vec<(u32, u32)>,
    /// Tags with a `leaf_domains` entry.
    leaf_tags: Vec<u32>,
}

/// The views sharing one [`ClassKey`], and their level-3 index.
#[derive(Debug)]
struct Class {
    key: ClassKey,
    /// Trie nodes whose postings carry this class's id.
    nodes: Vec<u32>,
    /// Member view ids.
    members: Postings,
    /// One entry per leaf tag; vocabulary tags without one pass through.
    pred: HashMap<u32, PredIndex>,
}

impl Class {
    /// Append to `out` the members passing every predicate (`tags[i]` is
    /// the interned tag of `preds[i]`, `None` if no view names it).
    fn admit(&self, preds: &[(String, CmpOp, Value)], tags: &[Option<u32>], out: &mut Vec<u32>) {
        let mut survivors: Option<Cow<'_, [u32]>> = None;
        for ((_, op, value), tag) in preds.iter().zip(tags) {
            let Some(pi) = tag.and_then(|t| self.pred.get(&t)) else { continue };
            let allowed = pi.allowed(*op, value);
            let next = match survivors {
                None => allowed,
                Some(mut cur) => {
                    intersect_with(cur.to_mut(), &allowed);
                    cur
                }
            };
            let empty = next.is_empty();
            survivors = Some(next);
            if empty {
                break;
            }
        }
        out.extend_from_slice(survivors.as_deref().unwrap_or(self.members.as_slice()));
    }
}

/// What one view contributed beyond its class's shared structure —
/// everything its removal must undo, held as plain id vectors.
#[derive(Debug)]
struct ViewEntry {
    class: u32,
    /// `(tag id, target slot)` pairs of the class's predicate index this
    /// view's id was posted under.
    pred_targets: Vec<(u32, u32)>,
    /// Lower-cased relations the view reads.
    relations: Vec<String>,
}

/// The shared path-trie relevance index — the production routing index of
/// `ufilter_core`'s catalog at any catalog size, with the per-view
/// [`RelevanceIndex`](crate::RelevanceIndex) kept as the differential
/// oracle.
///
/// Same API and same observable routing behaviour as the per-view index
/// (identical candidate sets, identical per-level counters, identical
/// fallback); the module-level comments describe the structure and the
/// soundness argument, and [`TrieIndex::stats`] exposes the resident
/// gauges.
#[derive(Debug)]
pub struct TrieIndex {
    views: ViewInterner,
    tags: TagInterner,
    nodes: Vec<TrieNode>,
    node_free: Vec<u32>,
    classes: Vec<Option<Class>>,
    class_free: Vec<u32>,
    class_by_key: HashMap<ClassKey, u32>,
    rel_postings: HashMap<String, Postings>,
    entries: HashMap<u32, ViewEntry>,
    predicate_pruning: bool,
    inserts: u64,
    removes: u64,
}

impl Default for TrieIndex {
    fn default() -> TrieIndex {
        TrieIndex::new()
    }
}

impl TrieIndex {
    /// An empty index with every pruning level enabled.
    pub fn new() -> TrieIndex {
        let root = |parent| TrieNode { parent, live: true, ..TrieNode::default() };
        TrieIndex {
            views: ViewInterner::default(),
            tags: TagInterner::default(),
            nodes: vec![root(ANCHORED_ROOT), root(FLOATING_ROOT)],
            node_free: Vec::new(),
            classes: Vec::new(),
            class_free: Vec::new(),
            class_by_key: HashMap::new(),
            rel_postings: HashMap::new(),
            entries: HashMap::new(),
            predicate_pruning: true,
            inserts: 0,
            removes: 0,
        }
    }

    /// Disable or re-enable the optional level-3 constant-predicate
    /// pruning (levels 1–2 always run).
    pub fn with_predicate_pruning(mut self, enabled: bool) -> TrieIndex {
        self.predicate_pruning = enabled;
        self
    }

    /// Number of indexed views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.views.len() == 0
    }

    /// Index `name`'s compiled ASG (replacing any previous entry under
    /// that name).
    pub fn insert(&mut self, name: &str, asg: &ViewAsg) {
        self.insert_signature(name, ViewSignature::of(asg));
    }

    /// Index `name` under a pre-extracted signature. Warm restarts use
    /// this with the signature decoded from the persisted artifact
    /// prelude, so a 10⁴-view catalog populates the trie without touching
    /// a single ASG.
    pub fn insert_signature(&mut self, name: &str, sig: ViewSignature) {
        self.insert_parts(name, sig.to_parts());
    }

    /// Index `name` from a signature's serialized decomposition (replacing
    /// any previous entry under that name).
    pub fn insert_parts(&mut self, name: &str, parts: SignatureParts) {
        self.remove(name);
        let vid = self.views.intern(name);
        let key = self.class_key(&parts);
        let cid = match self.class_by_key.get(&key) {
            Some(cid) => *cid,
            None => self.create_class(key),
        };
        let class = self.classes[cid as usize].as_mut().expect("class ids index live classes");
        class.members.insert(vid);

        let mut pred_targets = Vec::new();
        for (tag, targets) in &parts.leaf_domains {
            let t = self.tags.id(tag).expect("class_key interned every leaf tag");
            let pi = class.pred.get_mut(&t).expect("a class indexes each of its leaf tags");
            let mut seen: HashSet<u32> = HashSet::new();
            for (ty, domain, sat_ty) in targets {
                let key = format!("{ty:?}|{sat_ty:?}|{domain:?}");
                let slot = pi.slot_for(key, *ty, *sat_ty, domain);
                pi.slots[slot as usize]
                    .as_mut()
                    .expect("slot_for returns a live slot")
                    .postings
                    .insert(vid);
                if seen.insert(slot) {
                    pred_targets.push((t, slot));
                }
            }
            pi.invalidate();
        }

        for rel in &parts.relations {
            self.rel_postings.entry(rel.clone()).or_default().insert(vid);
        }
        self.entries
            .insert(vid, ViewEntry { class: cid, pred_targets, relations: parts.relations });
        self.inserts += 1;
    }

    /// Drop `name` from the index (a no-op if it was never inserted).
    /// Cost is proportional to the removed view's predicate targets, plus
    /// its class's structure when the view was the last member; emptied
    /// targets, trie nodes and classes are unlinked and their ids
    /// recycled, derived endpoint arrays are rebuilt lazily on the next
    /// route.
    pub fn remove(&mut self, name: &str) {
        let Some(vid) = self.views.id(name) else { return };
        let entry = self.entries.remove(&vid).expect("interned views have an entry");
        let class =
            self.classes[entry.class as usize].as_mut().expect("entries point at live classes");
        class.members.remove(vid);
        for (t, slot) in entry.pred_targets {
            let pi = class.pred.get_mut(&t).expect("posted targets have a pred index");
            let target = pi.slots[slot as usize].as_mut().expect("posted targets are live");
            target.postings.remove(vid);
            if target.postings.is_empty() {
                let key = std::mem::take(&mut target.key);
                pi.by_key.remove(&key);
                pi.slots[slot as usize] = None;
                pi.free.push(slot);
            }
            pi.invalidate();
        }
        if class.members.is_empty() {
            self.drop_class(entry.class);
        }
        for rel in entry.relations {
            if let Some(p) = self.rel_postings.get_mut(&rel) {
                p.remove(vid);
                if p.is_empty() {
                    self.rel_postings.remove(&rel);
                }
            }
        }
        self.views.release(name);
        self.removes += 1;
    }

    /// Views reading `relation` (case-insensitive), in name order.
    pub fn views_reading(&self, relation: &str) -> Vec<String> {
        let Some(p) = self.rel_postings.get(&relation.to_ascii_lowercase()) else {
            return Vec::new();
        };
        let mut names: Vec<String> =
            p.as_slice().iter().map(|id| self.views.name(*id).to_string()).collect();
        names.sort_unstable();
        names
    }

    /// Route a parsed update: compute its footprint and intersect it with
    /// the shared structure. Candidates come back in name order.
    pub fn route(&self, u: &UpdateStmt) -> Route {
        self.route_footprint(&Footprint::of(u))
    }

    /// [`route`](Self::route) for a pre-extracted footprint.
    pub fn route_footprint(&self, fp: &Footprint) -> Route {
        let views = self.views.len();
        if fp.fallback {
            return Route {
                candidates: self.views.names_sorted(),
                views,
                fallback: true,
                ..Route::default()
            };
        }
        let mut route = Route { views, ..Route::default() };

        // Level 1: intersect the floating branch's token postings.
        let c1: Vec<u32> = if fp.tokens.is_empty() {
            (0..self.classes.len() as u32).filter(|c| self.classes[*c as usize].is_some()).collect()
        } else {
            let mut lists: Vec<&[u32]> = Vec::with_capacity(fp.tokens.len());
            let mut missing = false;
            for tok in &fp.tokens {
                match self.branch_postings(FLOATING_ROOT, tok) {
                    Some(p) if !p.is_empty() => lists.push(p),
                    _ => {
                        missing = true;
                        break;
                    }
                }
            }
            if missing {
                Vec::new()
            } else {
                intersect(lists)
            }
        };
        let n1 = self.member_count(&c1);
        route.pruned_tags = views - n1;

        // Level 2: anchored root-child postings + floating edge postings.
        let mut c2 = c1;
        for rc in &fp.root_children {
            if c2.is_empty() {
                break;
            }
            match self.branch_postings(ANCHORED_ROOT, rc) {
                Some(p) => intersect_with(&mut c2, p),
                None => c2.clear(),
            }
        }
        for (p, c) in &fp.edges {
            if c2.is_empty() {
                break;
            }
            match self.edge_postings(p, c) {
                Some(e) => intersect_with(&mut c2, e),
                None => c2.clear(),
            }
        }
        let n2 = self.member_count(&c2);
        route.pruned_paths = n1 - n2;

        // Level 3: each surviving class filters its own members.
        let pred_tags: Vec<Option<u32>> =
            fp.predicates.iter().map(|(tag, _, _)| self.tags.id(tag)).collect();
        let mut survivors: Vec<u32> = Vec::new();
        for cid in &c2 {
            let class = self.class(*cid);
            if self.predicate_pruning {
                class.admit(&fp.predicates, &pred_tags, &mut survivors);
            } else {
                survivors.extend_from_slice(class.members.as_slice());
            }
        }
        route.pruned_preds = n2 - survivors.len();

        let mut candidates: Vec<String> =
            survivors.iter().map(|id| self.views.name(*id).to_string()).collect();
        candidates.sort_unstable();
        route.candidates = candidates;
        route
    }

    /// Resident-size and churn gauges, computed by walking the live
    /// structure (self-correcting, and `STATS` is not a hot path).
    pub fn stats(&self) -> IndexStats {
        let mut stats =
            IndexStats { inserts: self.inserts, removes: self.removes, ..IndexStats::default() };
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.live || i as u32 == ANCHORED_ROOT || i as u32 == FLOATING_ROOT {
                continue;
            }
            stats.nodes += 1;
            stats.postings += n.postings.len();
            stats.bytes += std::mem::size_of::<TrieNode>()
                + n.postings.approx_bytes()
                + n.children.capacity() * 2 * std::mem::size_of::<u32>();
        }
        for p in self.rel_postings.values() {
            stats.postings += p.len();
            stats.bytes += p.approx_bytes() + 64;
        }
        for class in self.classes.iter().flatten() {
            stats.classes += 1;
            stats.postings += class.members.len();
            let key = &class.key;
            stats.bytes += std::mem::size_of::<Class>()
                + class.members.approx_bytes()
                + class.nodes.capacity() * std::mem::size_of::<u32>()
                + 2 * (key.root_children.capacity()
                    + key.tokens.capacity()
                    + key.leaf_tags.capacity())
                    * std::mem::size_of::<u32>()
                + 2 * key.edges.capacity() * std::mem::size_of::<(u32, u32)>();
            for t in class.pred.values().flat_map(|pi| pi.slots.iter().flatten()) {
                stats.postings += t.postings.len();
                stats.bytes += std::mem::size_of::<PredTarget>()
                    + t.postings.approx_bytes()
                    + t.key.capacity()
                    + t.domain.ne.capacity() * std::mem::size_of::<Value>();
            }
        }
        for e in self.entries.values() {
            stats.bytes += std::mem::size_of::<ViewEntry>()
                + e.pred_targets.capacity() * std::mem::size_of::<(u32, u32)>();
        }
        stats.bytes += self.views.approx_bytes() + self.tags.approx_bytes();
        stats
    }

    // ---- internals -----------------------------------------------------

    /// Intern `parts`' structural fields into a class key.
    fn class_key(&mut self, parts: &SignatureParts) -> ClassKey {
        let tags = &mut self.tags;
        let mut ids = |names: &mut dyn Iterator<Item = &String>| -> Vec<u32> {
            let mut v: Vec<u32> = names.map(|n| tags.intern(n)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let root_children = ids(&mut parts.root_children.iter());
        let tokens = ids(&mut parts.tokens.iter());
        let leaf_tags = ids(&mut parts.leaf_domains.iter().map(|(tag, _)| tag));
        let mut edges: Vec<(u32, u32)> =
            parts.edges.iter().map(|(p, c)| (self.tags.intern(p), self.tags.intern(c))).collect();
        edges.sort_unstable();
        edges.dedup();
        ClassKey { root_children, tokens, edges, leaf_tags }
    }

    /// Register a new, empty class under `key` and post its id on the
    /// trie nodes of its structure.
    fn create_class(&mut self, key: ClassKey) -> u32 {
        let cid = self.class_free.pop().unwrap_or(self.classes.len() as u32);
        let mut nodes =
            Vec::with_capacity(key.root_children.len() + key.tokens.len() + key.edges.len());
        for t in &key.root_children {
            nodes.push(self.child_or_create(ANCHORED_ROOT, *t));
        }
        for t in &key.tokens {
            nodes.push(self.child_or_create(FLOATING_ROOT, *t));
        }
        for (p, c) in &key.edges {
            let pn = self.child_or_create(FLOATING_ROOT, *p);
            nodes.push(self.child_or_create(pn, *c));
        }
        for n in &nodes {
            self.nodes[*n as usize].postings.insert(cid);
        }
        let pred = key.leaf_tags.iter().map(|t| (*t, PredIndex::default())).collect();
        self.class_by_key.insert(key.clone(), cid);
        let class = Class { key, nodes, members: Postings::default(), pred };
        match self.classes.get_mut(cid as usize) {
            Some(slot) => *slot = Some(class),
            None => self.classes.push(Some(class)),
        }
        cid
    }

    /// Unpost an emptied class from its trie nodes, free the nodes that
    /// emptied with it, and recycle its id.
    fn drop_class(&mut self, cid: u32) {
        let class = self.classes[cid as usize].take().expect("dropped classes are live");
        self.class_by_key.remove(&class.key);
        for n in &class.nodes {
            self.nodes[*n as usize].postings.remove(cid);
        }
        for n in class.nodes {
            self.maybe_free_node(n);
        }
        self.class_free.push(cid);
    }

    fn class(&self, cid: u32) -> &Class {
        self.classes[cid as usize].as_ref().expect("postings only hold live class ids")
    }

    /// Views in the classes `cids`.
    fn member_count(&self, cids: &[u32]) -> usize {
        cids.iter().map(|c| self.class(*c).members.len()).sum()
    }

    fn child_or_create(&mut self, parent: u32, tag: u32) -> u32 {
        if let Some(n) = self.nodes[parent as usize].children.get(&tag) {
            return *n;
        }
        let node = TrieNode { parent, tag, live: true, ..TrieNode::default() };
        let id = match self.node_free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.nodes[parent as usize].children.insert(tag, id);
        id
    }

    /// Unlink `n` (and transitively its emptied ancestors) once neither
    /// postings nor children remain.
    fn maybe_free_node(&mut self, mut n: u32) {
        while n != ANCHORED_ROOT && n != FLOATING_ROOT {
            let node = &self.nodes[n as usize];
            if !node.live || !node.postings.is_empty() || !node.children.is_empty() {
                break;
            }
            let (parent, tag) = (node.parent, node.tag);
            self.nodes[parent as usize].children.remove(&tag);
            self.nodes[n as usize] = TrieNode::default(); // live = false
            self.node_free.push(n);
            n = parent;
        }
    }

    fn branch_postings(&self, root: u32, tag: &str) -> Option<&[u32]> {
        let t = self.tags.id(tag)?;
        let n = *self.nodes[root as usize].children.get(&t)?;
        Some(self.nodes[n as usize].postings.as_slice())
    }

    fn edge_postings(&self, parent: &str, child: &str) -> Option<&[u32]> {
        let pt = self.tags.id(parent)?;
        let ct = self.tags.id(child)?;
        let pn = *self.nodes[FLOATING_ROOT as usize].children.get(&pt)?;
        let en = *self.nodes[pn as usize].children.get(&ct)?;
        Some(self.nodes[en as usize].postings.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::RelevanceIndex;
    use ufilter_asg::build_view_asg;
    use ufilter_rdb::Db;
    use ufilter_xquery::{parse_update, parse_view_query};

    fn db() -> Db {
        let mut db = Db::new();
        db.execute_script(
            "CREATE TABLE book(bookid VARCHAR2(10), title VARCHAR2(50) NOT NULL, \
               price DOUBLE CHECK (price > 0.00), CONSTRAINTS bpk PRIMARYKEY (bookid)); \
             CREATE TABLE review(bookid VARCHAR2(10), reviewid VARCHAR2(3), \
               CONSTRAINTS rpk PRIMARYKEY (bookid, reviewid), \
               FOREIGNKEY (bookid) REFERENCES book (bookid) ON DELETE CASCADE); \
             CREATE TABLE author(name VARCHAR2(50), CONSTRAINTS apk PRIMARYKEY (name))",
        )
        .expect("test DDL");
        db
    }

    fn asg(db: &Db, text: &str) -> ufilter_asg::ViewAsg {
        build_view_asg(&parse_view_query(text).expect("view parses"), db.schema())
            .expect("view compiles")
    }

    const BOOKS_CHEAP: &str = r#"<V>
FOR $b IN document("d.xml")/book/row
WHERE $b/price < 20.00
RETURN { <book> $b/bookid, $b/title, $b/price,
FOR $r IN document("d.xml")/review/row
WHERE $b/bookid = $r/bookid
RETURN { <review> $r/reviewid </review> }
</book> } </V>"#;

    const BOOKS_DEAR: &str = r#"<V>
FOR $b IN document("d.xml")/book/row
WHERE $b/price >= 20.00
RETURN { <book> $b/bookid, $b/title, $b/price </book> } </V>"#;

    const AUTHORS: &str = r#"<V>
FOR $a IN document("d.xml")/author/row
RETURN { <author> $a/name </author> } </V>"#;

    fn both() -> (TrieIndex, RelevanceIndex) {
        let db = db();
        let mut trie = TrieIndex::new();
        let mut linear = RelevanceIndex::new();
        for (name, text) in [("cheap", BOOKS_CHEAP), ("dear", BOOKS_DEAR), ("authors", AUTHORS)] {
            let asg = asg(&db, text);
            trie.insert(name, &asg);
            linear.insert(name, &asg);
        }
        (trie, linear)
    }

    const PROBES: &[&str] = &[
        r#"FOR $a IN document("V.xml")/author UPDATE $a { DELETE $a/name }"#,
        r#"FOR $b IN document("V.xml")/book UPDATE $b { DELETE $b/review }"#,
        r#"FOR $b IN document("V.xml")/book UPDATE $b { DELETE $b/title }"#,
        r#"FOR $b IN document("V.xml")/book
WHERE $b/price/text() = 35.00
UPDATE $b { DELETE $b/title }"#,
        r#"FOR $b IN document("V.xml")/book
WHERE $b/price/text() = 5.00
UPDATE $b { DELETE $b/title }"#,
        r#"FOR $b IN document("V.xml")/book
WHERE $b/price/text() < 0.00
UPDATE $b { DELETE $b/title }"#,
        r#"FOR $a IN document("V.xml")/book, $b IN document("V.xml")/book
WHERE $a/bookid = $b/bookid
UPDATE $a { DELETE $a/review }"#,
        r#"FOR $root IN document("V.xml")
UPDATE $root { INSERT <book><bookid>1</bookid></book> }"#,
        r#"FOR $b IN document("V.xml")/book UPDATE $b { INSERT <review><reviewid>9</reviewid></review> }"#,
    ];

    #[test]
    fn routes_agree_with_the_linear_index_on_every_probe() {
        let (trie, linear) = both();
        for probe in PROBES {
            let u = parse_update(probe).expect("probe parses");
            assert_eq!(trie.route(&u), linear.route(&u), "probe: {probe}");
        }
    }

    #[test]
    fn tag_level_prunes_views_without_the_vocabulary() {
        let (trie, _) = both();
        let u = parse_update(PROBES[0]).unwrap();
        let r = trie.route(&u);
        assert_eq!(r.candidates, ["authors"]);
        assert_eq!(r.pruned_tags, 2);
        assert!(!r.fallback);
    }

    #[test]
    fn predicate_level_prunes_contradicted_partitions() {
        let (trie, _) = both();
        let r = trie.route(&parse_update(PROBES[3]).unwrap());
        assert_eq!(r.candidates, ["dear"], "price 35 contradicts cheap's < 20 domain");
        assert_eq!(r.pruned_preds, 1);
    }

    #[test]
    fn predicate_pruning_can_be_disabled() {
        let db = db();
        let mut trie = TrieIndex::new().with_predicate_pruning(false);
        trie.insert("cheap", &asg(&db, BOOKS_CHEAP));
        trie.insert("dear", &asg(&db, BOOKS_DEAR));
        let r = trie.route(&parse_update(PROBES[3]).unwrap());
        assert_eq!(r.candidates, ["cheap", "dear"]);
    }

    #[test]
    fn fallback_routes_to_every_view() {
        let (trie, _) = both();
        let r = trie.route(&parse_update(PROBES[6]).unwrap());
        assert!(r.fallback);
        assert_eq!(r.candidates, ["authors", "cheap", "dear"]);
        assert_eq!(r.pruned(), 0);
    }

    #[test]
    fn remove_unindexes_and_recycles_structure() {
        let (mut trie, mut linear) = both();
        let before = trie.stats();
        assert!(before.nodes > 0 && before.postings > 0 && before.bytes > 0);
        assert_eq!(before.classes, 3, "cheap, dear and authors differ in structure");
        trie.remove("cheap");
        linear.remove("cheap");
        assert_eq!(trie.len(), 2);
        for probe in PROBES {
            let u = parse_update(probe).unwrap();
            assert_eq!(trie.route(&u), linear.route(&u), "after remove: {probe}");
        }
        assert!(trie.views_reading("book").contains(&"dear".to_string()));
        assert!(!trie.views_reading("book").contains(&"cheap".to_string()));
        assert!(trie.views_reading("review").is_empty(), "review postings freed");
        trie.remove("no-such-view"); // no-op
        assert_eq!(trie.stats().removes, 1);

        // Dropping everything returns the structure to (near-)empty.
        trie.remove("dear");
        trie.remove("authors");
        let empty = trie.stats();
        assert_eq!(
            (empty.classes, empty.nodes, empty.postings),
            (0, 0, 0),
            "all classes, nodes and postings freed"
        );
        assert!(trie.is_empty());
    }

    #[test]
    fn churn_reuses_ids_and_stays_consistent() {
        let (mut trie, mut linear) = both();
        let db = db();
        for round in 0..3 {
            trie.remove("dear");
            linear.remove("dear");
            trie.insert("dear", &asg(&db, BOOKS_DEAR));
            linear.insert("dear", &asg(&db, BOOKS_DEAR));
            for probe in PROBES {
                let u = parse_update(probe).unwrap();
                assert_eq!(trie.route(&u), linear.route(&u), "round {round}: {probe}");
            }
        }
        assert_eq!(trie.stats().inserts, 3 + 3);
        assert_eq!(trie.stats().removes, 3);
    }

    #[test]
    fn relation_postings_answer_dependency_queries_in_name_order() {
        let (trie, _) = both();
        assert_eq!(trie.views_reading("BOOK"), ["cheap", "dear"]);
        assert_eq!(trie.views_reading("review"), ["cheap"]);
        assert!(trie.views_reading("nothing").is_empty());
    }
}
