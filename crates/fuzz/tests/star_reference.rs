//! The near-linear `star::mark` must reproduce the straightforward
//! Algorithm 1 (`ufilter_fuzz::star_reference`) bit-for-bit: the same
//! `StarMarking`, the same `(UPoint, UContext, UPBinding)` on every node,
//! the same bottom-up closures, and the same persisted artifact bytes — on
//! the paper's book views, the W3C use cases, the TPC-H views, deep
//! nested-element views, and seeded generator views of every profile.

use std::fmt::Write as _;

use ufilter_asg::{build_view_asg, subtree_closures};
use ufilter_core::persist::encode_artifact;
use ufilter_core::{bookdemo, UFilter};
use ufilter_fuzz::gen_schema::GenSchema;
use ufilter_fuzz::gen_view;
use ufilter_fuzz::star_reference::{
    marking_key, node_marks, reference_closure, reference_mark, reference_upbindings,
};
use ufilter_fuzz::FuzzRng;
use ufilter_rdb::{DatabaseSchema, Db, DeletePolicy};
use ufilter_route::ViewSignature;
use ufilter_xquery::parse_view_query;

/// Compile `text` both ways and compare everything the marks feed.
fn assert_same_marks(label: &str, text: &str, schema: &DatabaseSchema) {
    let new = UFilter::compile(text, schema).unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut old = UFilter::compile(text, schema).expect("compiles twice");
    let query = parse_view_query(text).expect("parsed once already");
    let mut asg = build_view_asg(&query, schema).expect("built once already");
    reference_upbindings(&mut asg);
    let marking = reference_mark(&mut asg, &old.base, schema);

    assert_eq!(node_marks(&new.asg), node_marks(&asg), "{label}: per-node marks");
    assert_eq!(marking_key(&new.marking), marking_key(&marking), "{label}: StarMarking");
    let tour = new.asg.tour();
    subtree_closures(&new.asg, tour.order(), |id, closure| {
        assert_eq!(*closure, reference_closure(&new.asg, id), "{label}: closure of {id:?}");
    });

    old.asg = asg;
    old.marking = marking;
    assert_eq!(
        encode_artifact(&new, &ViewSignature::of(&new.asg)),
        encode_artifact(&old, &ViewSignature::of(&old.asg)),
        "{label}: artifact bytes"
    );
}

fn tpch() -> DatabaseSchema {
    ufilter_tpch::tpch_schema(DeletePolicy::Cascade)
}

/// `depth` constant elements between a customer region and its correlated
/// orders FLWR, plus an uncorrelated sibling orders FLWR: Rule 1 sees a
/// non-root parent, Rules 2 and 3 see an unrelated region.
fn deep_nested_view(depth: usize) -> String {
    let mut out = String::from(
        "<Vnest>\nFOR $c IN document(\"default.xml\")/customer/row\nRETURN {<cust>$c/c_custkey",
    );
    for d in 0..depth {
        let _ = write!(out, "<w{d}>");
    }
    out.push_str(
        "FOR $o IN document(\"default.xml\")/orders/row WHERE $o/o_custkey = $c/c_custkey \
         RETURN {<ord>$o/o_orderkey</ord>}",
    );
    for d in (0..depth).rev() {
        let _ = write!(out, "</w{d}>");
    }
    out.push_str(
        "</cust>}\nFOR $p IN document(\"default.xml\")/orders/row RETURN {<all>$p/o_totalprice</all>}\n</Vnest>",
    );
    out
}

#[test]
fn book_views_mark_identically() {
    let schema = bookdemo::book_schema();
    for (label, text) in [("book", bookdemo::BOOK_VIEW), ("bookstats", bookdemo::BOOK_STATS_VIEW)] {
        assert_same_marks(label, text, &schema);
    }
    for (name, text) in bookdemo::book_view_variants(12) {
        assert_same_marks(&name, &text, &schema);
    }
}

#[test]
fn use_case_views_mark_identically() {
    let mut db = Db::new();
    db.execute_script(ufilter_usecases::subset_schema_sql()).expect("subset schema DDL");
    for (name, text) in ufilter_usecases::subset_views() {
        assert_same_marks(name, text, db.schema());
    }
}

#[test]
fn tpch_views_mark_identically() {
    let schema = tpch();
    for (name, text) in ufilter_tpch::stream_views() {
        assert_same_marks(name, text, &schema);
    }
    for level in ["region", "nation", "customer", "orders", "lineitem"] {
        assert_same_marks(level, &ufilter_tpch::vfail_for(level), &schema);
    }
    for (name, text) in ufilter_tpch::many_views(12, ufilter_tpch::Scale::mb(1)) {
        assert_same_marks(&name, &text, &schema);
    }
}

#[test]
fn deep_views_mark_identically() {
    let schema = tpch();
    for depth in 1..=64 {
        assert_same_marks(&format!("deep {depth}"), &ufilter_tpch::deep_view(depth), &schema);
        assert_same_marks(&format!("nested {depth}"), &deep_nested_view(depth), &schema);
    }
    for width in [2, 8, 32] {
        assert_same_marks(&format!("wide {width}"), &ufilter_tpch::wide_view(width), &schema);
    }
}

#[test]
fn generated_views_mark_identically() {
    let mut compiled = [0usize; 3];
    for seed in 0..200u64 {
        let mut rng = FuzzRng::new(0x57A2_0000 + seed);
        let gschema = GenSchema::generate(&mut rng.fork());
        let mut db = Db::new();
        db.execute_script(&gschema.sql()).expect("generated schema loads");
        let schema = db.schema().clone();
        let views = [
            gen_view::generate(&mut rng, &gschema, 0),
            gen_view::generate_aggregated(&mut rng, &gschema, 1),
            gen_view::generate_deep_wide(&mut rng, &gschema, 2),
        ];
        for (profile, view) in views.iter().enumerate() {
            let text = view.text();
            if UFilter::compile(&text, &schema).is_ok() {
                assert_same_marks(
                    &format!("seed {seed} profile {profile}: {text}"),
                    &text,
                    &schema,
                );
                compiled[profile] += 1;
            }
        }
    }
    assert!(
        compiled.iter().sum::<usize>() >= 500,
        "too few generated views compiled: {compiled:?}"
    );
    assert!(compiled[2] >= 150, "deep/wide views should compile: {compiled:?}");
}
