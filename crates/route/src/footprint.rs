//! Distilling an [`UpdateStmt`] into the static facts routing needs: which
//! element tags it names, which parent→child steps it walks, and which
//! constant predicates it carries.
//!
//! Extraction mirrors `ufilter-core`'s target resolution *conservatively*:
//! every fact recorded here is one the resolver will certainly require, and
//! anything the extractor cannot follow statically (an unbound variable, a
//! correlation predicate, a `text()` step mid-path) either contributes no
//! requirement or marks the whole footprint as [`fallback`](Footprint::fallback)
//! — never a requirement that could over-prune.

use std::collections::{BTreeMap, BTreeSet};

use ufilter_rdb::{CmpOp, Value};
use ufilter_xquery::{UpdBinding, UpdateAction, UpdateStmt};

/// The statically known position of a bound variable inside any view: the
/// document root, an element with a known tag, or unknown (chain broken by
/// a `text()` step or an empty path).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Pos {
    Root,
    Tag(String),
    Unknown,
}

/// The routing-relevant footprint of one update statement.
///
/// All tags are lower-cased (resolution is case-insensitive); extraction
/// is conservative — anything it cannot follow statically contributes no
/// requirement or sets [`fallback`](Footprint::fallback).
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    /// Every element tag the update names. A relevant view's ASG must
    /// contain all of them.
    pub tokens: BTreeSet<String>,
    /// Consecutive `(parent, child)` tag steps. A relevant view's ASG must
    /// contain each as a parent→child edge somewhere.
    pub edges: BTreeSet<(String, String)>,
    /// Tags required to be direct children of the view root (first steps of
    /// `document(…)` bindings; insert-fragment roots in root context).
    pub root_children: BTreeSet<String>,
    /// Constant predicates `last-tag θ literal` from the WHERE clause. A
    /// relevant view must keep at least one resolution target's merged
    /// check domain satisfiable under each.
    pub predicates: Vec<(String, CmpOp, Value)>,
    /// The extractor met a shape it cannot follow (unbound variable,
    /// correlation predicate). No pruning may happen: every view is a
    /// candidate and the per-view pipeline is the fallback classifier.
    pub fallback: bool,
}

impl Footprint {
    /// Extract the footprint of `u`.
    pub fn of(u: &UpdateStmt) -> Footprint {
        let mut fp = Footprint::default();
        let mut pos: BTreeMap<&str, Pos> = BTreeMap::new();

        for b in &u.bindings {
            match b {
                UpdBinding::Document { var, steps, .. } => {
                    let (end, _) = fp.walk(Pos::Root, steps);
                    pos.insert(var, end);
                }
                UpdBinding::Path { var, path } => {
                    let Some(base) = pos.get(path.var.as_str()).cloned() else {
                        return Footprint::unclassifiable();
                    };
                    let (end, _) = fp.walk(base, &path.steps);
                    pos.insert(var, end);
                }
            }
        }

        for p in &u.predicates {
            let Some((path, op, value)) = p.as_non_correlation() else {
                // Correlation (or literal-only) predicates are rejected by
                // the resolver identically for every view — don't prune.
                return Footprint::unclassifiable();
            };
            let Some(base) = pos.get(path.var.as_str()).cloned() else {
                return Footprint::unclassifiable();
            };
            let (end, _) = fp.walk(base, path.element_steps());
            if let Pos::Tag(tag) = end {
                fp.predicates.push((tag, op, value.clone()));
            }
        }

        let Some(target) = pos.get(u.target.as_str()).cloned() else {
            return Footprint::unclassifiable();
        };

        for action in &u.actions {
            match action {
                UpdateAction::Insert(frag) => {
                    if let Some(tag) = frag.name(frag.root()) {
                        fp.child_of(&target, tag);
                    }
                }
                UpdateAction::Delete(path) => {
                    let Some(base) = pos.get(path.var.as_str()).cloned() else {
                        return Footprint::unclassifiable();
                    };
                    fp.walk(base, &path.steps);
                }
                UpdateAction::Replace { target: tpath, with } => {
                    let Some(base) = pos.get(tpath.var.as_str()).cloned() else {
                        return Footprint::unclassifiable();
                    };
                    // Replace = delete the path's node + insert the fragment
                    // under its *parent*; `walk` reports that parent.
                    let (_, parent) = fp.walk(base, &tpath.steps);
                    if let Some(tag) = with.name(with.root()) {
                        fp.child_of(&parent, tag);
                    }
                }
            }
        }
        fp
    }

    /// An empty footprint with [`fallback`](Footprint::fallback) set: it
    /// routes to every view (an update that does not even parse).
    pub fn unclassifiable() -> Footprint {
        Footprint { fallback: true, ..Footprint::default() }
    }

    /// Record the tokens/edges a step sequence from `cur` requires. Returns
    /// `(end position, parent of end)`. A `text()` step resolves to a leaf
    /// child, so it keeps the current node as the parent but makes the end
    /// position unknown (nothing can follow a text node anyway).
    fn walk(&mut self, mut cur: Pos, steps: &[String]) -> (Pos, Pos) {
        let mut parent = Pos::Unknown;
        for step in steps {
            if step == "text()" {
                parent = cur;
                cur = Pos::Unknown;
                continue;
            }
            let tag = step.to_ascii_lowercase();
            self.tokens.insert(tag.clone());
            match &cur {
                Pos::Root => {
                    self.root_children.insert(tag.clone());
                }
                Pos::Tag(p) => {
                    self.edges.insert((p.clone(), tag.clone()));
                }
                Pos::Unknown => {}
            }
            parent = cur;
            cur = Pos::Tag(tag);
        }
        (cur, parent)
    }

    /// Record that `tag` must be able to occur as a child of `parent`.
    fn child_of(&mut self, parent: &Pos, tag: &str) {
        let tag = tag.to_ascii_lowercase();
        self.tokens.insert(tag.clone());
        match parent {
            Pos::Root => {
                self.root_children.insert(tag);
            }
            Pos::Tag(p) => {
                self.edges.insert((p.clone(), tag));
            }
            Pos::Unknown => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufilter_xquery::parse_update;

    fn fp(update: &str) -> Footprint {
        Footprint::of(&parse_update(update).unwrap())
    }

    #[test]
    fn delete_path_yields_tokens_edges_and_predicate() {
        let f = fp(r#"
FOR $book IN document("BookView.xml")/book
WHERE $book/price < 40.00
UPDATE $book { DELETE $book/review }"#);
        assert!(!f.fallback);
        assert!(f.tokens.contains("book") && f.tokens.contains("review"));
        assert!(f.tokens.contains("price"));
        assert!(f.root_children.contains("book"));
        assert!(f.edges.contains(&("book".into(), "review".into())));
        assert_eq!(f.predicates.len(), 1);
        assert_eq!(f.predicates[0].0, "price");
    }

    #[test]
    fn insert_fragment_root_becomes_child_requirement() {
        let f = fp(r#"
FOR $b IN document("V.xml")/book
UPDATE $b { INSERT <review><reviewid>1</reviewid></review> }"#);
        assert!(f.edges.contains(&("book".into(), "review".into())));
        // Fragment *internals* are deliberately not required: a fragment
        // resolving onto a simple element ignores its children, so deeper
        // tags cannot soundly prune.
        assert!(!f.tokens.contains("reviewid"));
    }

    #[test]
    fn insert_under_root_requires_a_root_child() {
        let f = fp(r#"
FOR $root IN document("V.xml")
UPDATE $root { INSERT <book><bookid>1</bookid></book> }"#);
        assert!(f.root_children.contains("book"));
    }

    #[test]
    fn replace_requires_fragment_under_the_deleted_nodes_parent() {
        let f = fp(r#"
FOR $b IN document("V.xml")/book
UPDATE $b { REPLACE $b/title WITH <title>New</title> }"#);
        // delete path edge…
        assert!(f.edges.contains(&("book".into(), "title".into())));
        // …and the inserted <title> goes back under <book>.
        assert_eq!(
            f.edges.iter().filter(|(p, c)| p == "book" && c == "title").count(),
            1,
            "{:?}",
            f.edges
        );
    }

    #[test]
    fn text_steps_break_the_chain_without_requirements() {
        let f = fp(r#"
FOR $b IN document("V.xml")/book
WHERE $b/title/text() = "T"
UPDATE $b { DELETE $b/bookid/text() }"#);
        assert!(f.tokens.contains("title") && f.tokens.contains("bookid"));
        assert!(!f.tokens.contains("text()"));
        // The predicate still lands on the element tag before text().
        assert_eq!(f.predicates[0].0, "title");
    }

    #[test]
    fn correlation_predicates_force_fallback() {
        let f = fp(r#"
FOR $a IN document("V.xml")/book, $b IN document("V.xml")/book
WHERE $a/bookid = $b/bookid
UPDATE $a { DELETE $a/review }"#);
        assert!(f.fallback);
    }

    #[test]
    fn unbound_variables_force_fallback() {
        let f = fp(r#"FOR $b IN document("V.xml")/book UPDATE $b { DELETE $zz/review }"#);
        assert!(f.fallback);
    }
}
