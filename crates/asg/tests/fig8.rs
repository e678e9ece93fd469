//! Golden test: building the view ASG for BookView (Fig. 3a) over the
//! Fig. 1 schema must reproduce the Node/Edge Annotation Tables of Fig. 8,
//! and the closures must match §5.1.2's worked examples.

use ufilter_asg::{build_view_asg, view_closure, AsgNodeKind, BaseAsg, Card, ViewAsg};
use ufilter_rdb::{CmpOp, Expr};
use ufilter_rdb::{ColRef, Column, DataType, DatabaseSchema, DeletePolicy, TableSchema, Value};
use ufilter_xquery::parse_view_query;

pub const BOOK_VIEW: &str = r#"
<BookView>
FOR $book IN document("default.xml")/book/row,
$publisher IN document("default.xml")/publisher/row
WHERE ($book/pubid = $publisher/pubid)
AND ($book/price<50.00) AND ($book/year > 1990)
RETURN {
<book>
$book/bookid, $book/title, $book/price,
<publisher>
$publisher/pubid, $publisher/pubname
</publisher>,
FOR $review IN document("default.xml")/review/row
WHERE ($book/bookid = $review/bookid)
RETURN{
<review>
$review/reviewid, $review/comment
</review>}
</book>},
FOR $publisher IN document("default.xml")/publisher/row
RETURN{
<publisher>
$publisher/pubid, $publisher/pubname
</publisher>}
</BookView>"#;

pub fn book_schema() -> DatabaseSchema {
    let mut db = DatabaseSchema::new();
    db.add(
        TableSchema::new("publisher")
            .column(Column::new("pubid", DataType::Str))
            .column(Column::new("pubname", DataType::Str).not_null().unique())
            .primary_key(["pubid"]),
    );
    db.add(
        TableSchema::new("book")
            .column(Column::new("bookid", DataType::Str))
            .column(Column::new("title", DataType::Str).not_null())
            .column(Column::new("pubid", DataType::Str))
            .column(Column::new("price", DataType::Double))
            .column(Column::new("year", DataType::Date))
            .primary_key(["bookid"])
            .check("price_pos", Expr::gt(Expr::col("book", "price"), Expr::lit(Value::Double(0.0))))
            .foreign_key(
                "BookFK",
                vec!["pubid"],
                "publisher",
                vec!["pubid"],
                DeletePolicy::Cascade,
            ),
    );
    db.add(
        TableSchema::new("review")
            .column(Column::new("bookid", DataType::Str))
            .column(Column::new("reviewid", DataType::Str))
            .column(Column::new("comment", DataType::Str))
            .column(Column::new("reviewer", DataType::Str))
            .primary_key(["bookid", "reviewid"])
            .foreign_key("ReviewFK", vec!["bookid"], "book", vec!["bookid"], DeletePolicy::Cascade),
    );
    db
}

fn asg() -> ViewAsg {
    let q = parse_view_query(BOOK_VIEW).unwrap();
    build_view_asg(&q, &book_schema()).unwrap()
}

#[test]
fn node_kinds_and_counts() {
    let g = asg();
    let count = |k: AsgNodeKind| g.iter().filter(|n| n.kind == k).count();
    // Fig. 8: vR + 4 vC + 9 vS + 9 vL.
    assert_eq!(count(AsgNodeKind::Root), 1);
    assert_eq!(count(AsgNodeKind::Internal), 4);
    assert_eq!(count(AsgNodeKind::Tag), 9);
    assert_eq!(count(AsgNodeKind::Leaf), 9);
}

#[test]
fn ucbindings_match_fig8() {
    let g = asg();
    let at = |steps: &[&str]| {
        let ids = g.resolve_path(steps);
        assert_eq!(ids.len(), 1, "path {steps:?} ambiguous or missing");
        g.node(ids[0])
    };
    assert!(g.node(g.root()).ucbinding.is_empty());
    assert_eq!(at(&["book"]).ucbinding, vec!["book", "publisher"]); // vC1
    assert_eq!(at(&["book", "publisher"]).ucbinding, vec!["book", "publisher"]); // vC2
    assert_eq!(at(&["book", "review"]).ucbinding, vec!["book", "publisher", "review"]); // vC3
    assert_eq!(at(&["publisher"]).ucbinding, vec!["publisher"]); // vC4
}

#[test]
fn upbindings_match_fig8() {
    let g = asg();
    let at = |steps: &[&str]| g.node(g.resolve_path(steps)[0]);
    assert_eq!(g.node(g.root()).upbinding, vec!["book", "publisher", "review"]);
    assert_eq!(at(&["book"]).upbinding, vec!["book", "publisher", "review"]);
    assert_eq!(at(&["book", "publisher"]).upbinding, vec!["publisher"]);
    assert_eq!(at(&["book", "review"]).upbinding, vec!["review"]);
    assert_eq!(at(&["publisher"]).upbinding, vec!["publisher"]);
}

#[test]
fn cr_current_relations() {
    let g = asg();
    let cr = |steps: &[&str]| g.cr(g.resolve_path(steps)[0]);
    assert_eq!(cr(&["book"]), vec!["book", "publisher"]);
    assert_eq!(cr(&["book", "publisher"]), Vec::<String>::new()); // vC2: ∅
    assert_eq!(cr(&["book", "review"]), vec!["review"]);
    assert_eq!(cr(&["publisher"]), vec!["publisher"]);
}

#[test]
fn edge_annotations_match_fig8() {
    let g = asg();
    let at = |steps: &[&str]| g.node(g.resolve_path(steps)[0]);
    // (vR, vC1): * with book.pubid = publisher.pubid.
    let vc1 = at(&["book"]);
    assert_eq!(vc1.card, Card::Many);
    assert_eq!(vc1.conditions.len(), 1);
    assert!(vc1.conditions[0].left.matches("book", "pubid"));
    assert!(vc1.conditions[0].right.matches("publisher", "pubid"));
    // (vC1, vC2): 1, no condition.
    let vc2 = at(&["book", "publisher"]);
    assert_eq!(vc2.card, Card::One);
    assert!(vc2.conditions.is_empty());
    // (vC1, vC3): * with book.bookid = review.bookid.
    let vc3 = at(&["book", "review"]);
    assert_eq!(vc3.card, Card::Many);
    assert!(vc3.conditions[0].left.matches("book", "bookid"));
    // (vR, vC4): *, no condition.
    let vc4 = at(&["publisher"]);
    assert_eq!(vc4.card, Card::Many);
    assert!(vc4.conditions.is_empty());
}

#[test]
fn leaf_annotations_match_fig8() {
    let g = asg();
    let leaf = |steps: &[&str]| {
        let ids = g.resolve_path(steps);
        g.node(ids[0]).leaf.clone().expect("leaf node")
    };
    // vL1: book.bookid, Not Null (key).
    let l1 = leaf(&["book", "bookid", "text()"]);
    assert!(l1.name.matches("book", "bookid"));
    assert!(l1.not_null);
    // vL2: book.title, Not Null.
    assert!(leaf(&["book", "title", "text()"]).not_null);
    // vL3: book.price — no Not Null, check = {0.00 < value < 50.00}.
    let l3 = leaf(&["book", "price", "text()"]);
    assert!(!l3.not_null);
    assert!(l3.check.contains(&Value::Double(37.0)));
    assert!(!l3.check.contains(&Value::Double(0.0)));
    assert!(!l3.check.contains(&Value::Double(50.0)));
    assert!(!l3.check.contains(&Value::Double(55.0)));
    // vL8: publisher.pubid under vC4, Not Null because it is the key.
    let l8 = leaf(&["publisher", "pubid", "text()"]);
    assert!(l8.not_null);
}

#[test]
fn local_preds_capture_unprojected_year() {
    // `year > 1990` has no leaf; it must survive as a local predicate on vC1
    // (feeding PQ1/PQ2-style probe queries).
    let g = asg();
    let vc1 = g.node(g.resolve_path(&["book"])[0]);
    assert_eq!(vc1.local_preds.len(), 2);
    assert!(vc1.local_preds.iter().any(|p| p.column.matches("book", "year") && p.op == CmpOp::Gt));
    assert!(vc1.local_preds.iter().any(|p| p.column.matches("book", "price") && p.op == CmpOp::Lt));
}

#[test]
fn view_closures_match_section_512() {
    let g = asg();
    let at = |steps: &[&str]| g.resolve_path(steps)[0];
    // v+_C2 = {vL4, vL5}.
    assert_eq!(
        view_closure(&g, at(&["book", "publisher"])).render(),
        "{publisher.pubid, publisher.pubname}"
    );
    // v+_C1 = {vL1..vL5, (vL6, vL7)*}.
    assert_eq!(
        view_closure(&g, at(&["book"])).render(),
        "{book.bookid, book.price, book.title, publisher.pubid, publisher.pubname, \
         (review.comment, review.reviewid)*}"
    );
    // v+_C3 = {vL6, vL7}.
    assert_eq!(
        view_closure(&g, at(&["book", "review"])).render(),
        "{review.comment, review.reviewid}"
    );
}

#[test]
fn mapping_closures_agree_with_base_asg() {
    let g = asg();
    let schema = book_schema();
    let leaves: Vec<ColRef> =
        g.iter().filter_map(|n| n.leaf.as_ref().map(|l| l.name.clone())).collect();
    let base = BaseAsg::build(&schema, &g.relations, &leaves);
    // vC3 is clean: CV ≡ CD.
    let cv3 = view_closure(&g, g.resolve_path(&["book", "review"])[0]);
    let cd3 = base.mapping_closure(&cv3.all_leaves());
    assert!(cv3.equiv(&cd3), "vC3 should be clean: CV={cv3} CD={cd3}");
    // vC2 is dirty: CV ≢ CD (CD pulls in the whole publisher closure).
    let cv2 = view_closure(&g, g.resolve_path(&["book", "publisher"])[0]);
    let cd2 = base.mapping_closure(&cv2.all_leaves());
    assert!(!cv2.equiv(&cd2), "vC2 should be dirty");
    // vC1 dirty too.
    let cv1 = view_closure(&g, g.resolve_path(&["book"])[0]);
    let cd1 = base.mapping_closure(&cv1.all_leaves());
    assert!(!cv1.equiv(&cd1), "vC1 should be dirty: CV={cv1} CD={cd1}");
    // vC4 dirty.
    let cv4 = view_closure(&g, g.resolve_path(&["publisher"])[0]);
    let cd4 = base.mapping_closure(&cv4.all_leaves());
    assert!(!cv4.equiv(&cd4), "vC4 should be dirty");
}

#[test]
fn non_descendants_exclude_subtree_and_ancestors() {
    let g = asg();
    let vc1 = g.resolve_path(&["book"])[0];
    let tour = g.tour();
    let others: Vec<_> =
        g.internal_nodes().map(|n| n.id).filter(|&v| tour.unrelated(v, vc1)).collect();
    // Only vC4 qualifies (vC2/vC3 are descendants; vR is the root, not vC).
    assert_eq!(others.len(), 1);
    assert_eq!(g.node(others[0]).tag, "publisher");
    assert_eq!(g.node(others[0]).ucbinding, vec!["publisher"]);
}

#[test]
fn describe_renders_tables() {
    let g = asg();
    let text = g.describe();
    assert!(text.contains("UCB={book,publisher}"));
    assert!(text.contains("card=*"));
}
