//! The straightforward STAR marking (Algorithm 1) that `star::mark`
//! replaced, kept only to cross-check it: every `v'_C` candidate set is
//! recomputed by walking parent chains, `CR(v)` is recomputed inside the
//! Rule 3 loop, Rule 1 re-walks each violating subtree, every closure
//! recurses over its node's whole subtree, and `UPBinding(v)` re-walks
//! `v`'s subtree. Cubic in nesting depth, and obviously the paper's text.
//!
//! [`reference_upbindings`] then [`reference_mark`] on a freshly built ASG
//! must reproduce the production marks bit-for-bit (see
//! `tests/star_reference.rs`).

use ufilter_asg::{AsgNodeId, AsgNodeKind, BaseAsg, Closure, UContext, UPoint, ViewAsg};
use ufilter_core::star::StarMarking;
use ufilter_rdb::DatabaseSchema;

/// Overwrite every root/internal node's `UPBinding` with the per-node
/// subtree-walk definition: the relations owning leaf (or aggregate)
/// content in the subtree, ordered by `rel(DEF_V)`.
pub fn reference_upbindings(asg: &mut ViewAsg) {
    let order = asg.relations.clone();
    let ids: Vec<AsgNodeId> = asg.iter().map(|n| n.id).collect();
    for id in ids {
        if !matches!(asg.node(id).kind, AsgNodeKind::Root | AsgNodeKind::Internal) {
            continue;
        }
        let mut rels: Vec<String> = Vec::new();
        for n in asg.subtree(id) {
            let node = asg.node(n);
            for table in
                node.leaf.iter().map(|l| &l.name.table).chain(node.agg.iter().map(|a| &a.table))
            {
                if !rels.iter().any(|r| r.eq_ignore_ascii_case(table)) {
                    rels.push(table.clone());
                }
            }
        }
        rels.sort_by_key(|r| {
            order.iter().position(|o| o.eq_ignore_ascii_case(r)).unwrap_or(usize::MAX)
        });
        asg.node_mut(id).upbinding = rels;
    }
}

/// Whether `node` lies in the subtree rooted at `of`, by walking up.
fn is_descendant(asg: &ViewAsg, node: AsgNodeId, of: AsgNodeId) -> bool {
    let mut cur = Some(node);
    while let Some(c) = cur {
        if c == of {
            return true;
        }
        cur = asg.node(c).parent;
    }
    false
}

/// Internal nodes neither `id`, nor in its subtree, nor on its root path.
fn non_descendant_internals(asg: &ViewAsg, id: AsgNodeId) -> Vec<AsgNodeId> {
    asg.internal_nodes()
        .map(|n| n.id)
        .filter(|&o| o != id && !is_descendant(asg, o, id) && !is_descendant(asg, id, o))
        .collect()
}

/// `v+` by plain recursion over the subtree.
pub fn reference_closure(asg: &ViewAsg, id: AsgNodeId) -> Closure {
    let node = asg.node(id);
    if let Some(leaf) = &node.leaf {
        return Closure::leaf(&format!("{}.{}", leaf.name.table, leaf.name.column));
    }
    if let Some(agg) = &node.agg {
        return Closure::leaf(&format!("agg:{agg}"));
    }
    let mut out = Closure::default();
    for c in &node.children {
        let cc = reference_closure(asg, *c);
        if asg.node(*c).card.is_starred() {
            out.add_group(cc);
        } else {
            out.absorb(cc);
        }
    }
    out
}

/// Algorithm 1 as first written: writes `(UPoint|UContext)` into `asg`.
pub fn reference_mark(asg: &mut ViewAsg, base: &BaseAsg, schema: &DatabaseSchema) -> StarMarking {
    let mut marking = StarMarking::default();
    let internals: Vec<AsgNodeId> = asg.internal_nodes().map(|n| n.id).collect();

    // Rule 1: structural duplication via missing/improper joins.
    for &c in &internals {
        if !asg.node(c).card.is_starred() {
            continue;
        }
        if rule1_violated(asg, schema, c) {
            for s in asg.subtree(c) {
                if asg.node(s).kind == AsgNodeKind::Internal {
                    marking.rule1.insert(s);
                    asg.node_mut(s).ucontext =
                        Some(UContext { safe_delete: false, safe_insert: false });
                }
            }
        }
    }

    // Rule 2: unsafe-delete via shared relations.
    for &c in &internals {
        if asg.node(c).ucontext.is_some_and(|u| !u.safe_delete) {
            continue;
        }
        let cr = asg.cr(c);
        let nds = non_descendant_internals(asg, c);
        let anchor = cr.iter().find(|r| {
            let ext = schema.extend(r, Some(&asg.relations));
            nds.iter().all(|v| {
                !asg.node(*v)
                    .ucbinding
                    .iter()
                    .any(|u| ext.iter().any(|e| e.eq_ignore_ascii_case(u)))
            })
        });
        let prev = asg.node(c).ucontext;
        let safe_insert = prev.is_none_or(|u| u.safe_insert);
        match anchor {
            Some(r) => {
                marking.delete_anchor.insert(c, r.clone());
                asg.node_mut(c).ucontext = Some(UContext { safe_delete: true, safe_insert });
            }
            None => {
                asg.node_mut(c).ucontext = Some(UContext { safe_delete: false, safe_insert });
            }
        }
    }

    // Rule 3: unsafe-insert via overlap with unsafe-delete nodes.
    for &c in &internals {
        if marking.rule1.contains(&c) {
            continue;
        }
        let upb = asg.node(c).upbinding.clone();
        let mut shared: Vec<String> = Vec::new();
        for v in non_descendant_internals(asg, c) {
            if asg.node(v).ucontext.is_some_and(|u| u.safe_delete) {
                continue;
            }
            for r in asg.cr(v) {
                if upb.iter().any(|u| u.eq_ignore_ascii_case(&r))
                    && !shared.iter().any(|s| s.eq_ignore_ascii_case(&r))
                {
                    shared.push(r);
                }
            }
        }
        if !shared.is_empty() {
            let prev = asg.node(c).ucontext.expect("set by Rule 2 pass");
            asg.node_mut(c).ucontext =
                Some(UContext { safe_delete: prev.safe_delete, safe_insert: false });
            marking.rule3.insert(c, shared);
        }
    }

    // UPoint: clean iff CV ≡ CD.
    for &c in &internals {
        let cv = reference_closure(asg, c);
        let cd = base.mapping_closure(&cv.all_leaves());
        asg.node_mut(c).upoint = Some(if cv.equiv(&cd) { UPoint::Clean } else { UPoint::Dirty });
    }

    marking
}

/// Rule 1 for one starred internal node (missing or improper Join).
fn rule1_violated(asg: &ViewAsg, schema: &DatabaseSchema, c: AsgNodeId) -> bool {
    let node = asg.node(c);
    let cr = asg.cr(c);
    let parent = asg.internal_ancestor(c);
    let parent_is_root = parent.is_none_or(|p| asg.node(p).kind == AsgNodeKind::Root);
    let unique =
        |rel: &str, col: &str| schema.table(rel).is_some_and(|t| t.is_unique_identifier(col));

    if !parent_is_root {
        if cr.is_empty() {
            return true;
        }
        let parent_ucb = &asg.node(parent.expect("non-root parent")).ucbinding;
        let in_cr = |t: &str| cr.iter().any(|r| r.eq_ignore_ascii_case(t));
        let in_parent = |t: &str| parent_ucb.iter().any(|r| r.eq_ignore_ascii_case(t));
        let proper = node.conditions.iter().any(|jc| {
            (in_cr(&jc.left.table)
                && in_parent(&jc.right.table)
                && unique(&jc.right.table, &jc.right.column))
                || (in_cr(&jc.right.table)
                    && in_parent(&jc.left.table)
                    && unique(&jc.left.table, &jc.left.column))
        });
        if !proper {
            return true;
        }
    }

    let driving = node.bindings.first().map(|(_, t)| t.clone());
    for r in &cr {
        if driving.as_deref().is_some_and(|d| d.eq_ignore_ascii_case(r)) {
            continue;
        }
        let ok = node.conditions.iter().any(|jc| {
            (jc.left.table.eq_ignore_ascii_case(r) && unique(r, &jc.left.column))
                || (jc.right.table.eq_ignore_ascii_case(r) && unique(r, &jc.right.column))
        });
        if !ok {
            return true;
        }
    }
    false
}

/// The marks of every node, for whole-graph comparison: `(UPoint,
/// UContext, UPBinding)` by node id.
pub fn node_marks(asg: &ViewAsg) -> Vec<(Option<UPoint>, Option<UContext>, Vec<String>)> {
    asg.iter().map(|n| (n.upoint, n.ucontext, n.upbinding.clone())).collect()
}

/// A [`StarMarking`] in comparable form (its sets and maps are
/// hash-ordered): Rule 1 nodes, Rule 3 provenance and delete anchors, each
/// sorted by node id.
pub type MarkingKey = (Vec<AsgNodeId>, Vec<(AsgNodeId, Vec<String>)>, Vec<(AsgNodeId, String)>);

/// See [`MarkingKey`].
pub fn marking_key(m: &StarMarking) -> MarkingKey {
    let mut rule1: Vec<AsgNodeId> = m.rule1.iter().copied().collect();
    rule1.sort();
    let mut rule3: Vec<_> = m.rule3.iter().map(|(k, v)| (*k, v.clone())).collect();
    rule3.sort();
    let mut anchors: Vec<_> = m.delete_anchor.iter().map(|(k, v)| (*k, v.clone())).collect();
    anchors.sort();
    (rule1, rule3, anchors)
}
