//! Differential soundness of catalog-wide routing (`ufilter-route`).
//!
//! The contract under test, over randomized TPC-H update streams and the
//! paper's book updates:
//!
//! 1. **Superset**: `relevant_views(u) ⊇ {v : brute-force check(v, u) is
//!    not statically irrelevant}` — the index never prunes a view the full
//!    pipeline would classify as anything but `Invalid` with an
//!    unknown-target / hierarchy-violation / predicate-outside-view
//!    reason.
//! 2. **Identity on candidates**: for every candidate view, `check_all`'s
//!    wire-encoded outcomes are byte-identical to the brute-force per-view
//!    loop's outcomes for that view.
//! 3. **Irrelevance of the pruned**: every pruned view, brute-force
//!    checked, really does come back statically irrelevant.

use u_filter::asg::build_view_asg;
use u_filter::core::catalog::{FanoutReport, ViewCatalog};
use u_filter::core::wire::encode_outcome;
use u_filter::core::{bookdemo, wire_outcome_is_irrelevant, ProbeCache};
use u_filter::route::{RelevanceIndex, TrieIndex, ViewSignature};
use u_filter::tpch::{
    fanout_stream, generate, many_views, stream, stream_views, tpch_schema, Scale, StreamSpec,
};
use u_filter::xquery::{parse_update, parse_view_query};
use ufilter_rdb::{Db, DeletePolicy};

/// Wire lines of one fan-out report, keyed by (update, view).
fn wire_map(report: &FanoutReport) -> Vec<((usize, String), Vec<String>)> {
    report
        .items
        .iter()
        .map(|i| {
            (
                (i.update, i.view.clone()),
                i.reports.iter().map(|r| encode_outcome(&r.outcome)).collect(),
            )
        })
        .collect()
}

/// Hold the routing contract for every update in `updates` against
/// `catalog`: superset, identity on candidates, irrelevance of the pruned.
fn assert_sound(catalog: &ViewCatalog, db: &Db, updates: &[String]) {
    let refs: Vec<&str> = updates.iter().map(String::as_str).collect();
    let mut db_index = db.clone();
    let mut db_brute = db.clone();
    let indexed = catalog.check_all_batch_refs(&refs, &mut db_index, &mut ProbeCache::new());
    let brute = catalog.check_all_brute(&refs, &mut db_brute, &mut ProbeCache::new());
    assert_eq!(brute.fanout.pruned, 0);
    assert_eq!(brute.items.len(), updates.len() * catalog.len());

    let indexed_map = wire_map(&indexed);
    for (key, brute_lines) in wire_map(&brute) {
        let statically_irrelevant = brute_lines.iter().all(|l| wire_outcome_is_irrelevant(l));
        match indexed_map.iter().find(|(k, _)| *k == key) {
            Some((_, indexed_lines)) => {
                // Identity: candidate outcomes are byte-identical to the
                // brute-force per-view loop (the wire codec is the byte
                // format both the CLI and the service print).
                assert_eq!(
                    indexed_lines, &brute_lines,
                    "{key:?}: candidate outcome diverged\nupdate: {}",
                    updates[key.0]
                );
            }
            None => {
                // Superset/irrelevance: pruning is only legal when the
                // brute-force outcome is statically irrelevant.
                assert!(
                    statically_irrelevant,
                    "{key:?}: UNSOUND PRUNE — brute-force outcome {brute_lines:?}\nupdate: {}",
                    updates[key.0]
                );
            }
        }
    }
    // relevant_views agrees with the fan-out's candidate set, name-sorted.
    for (ui, text) in updates.iter().enumerate() {
        if let Ok(u) = ufilter_xquery::parse_update(text) {
            let relevant = catalog.relevant_views(&u);
            let mut sorted = relevant.clone();
            sorted.sort();
            assert_eq!(relevant, sorted, "relevant_views not name-sorted");
            let fanned: Vec<&String> =
                indexed_map.iter().filter(|((i, _), _)| *i == ui).map(|((_, v), _)| v).collect();
            assert_eq!(relevant.iter().collect::<Vec<_>>(), fanned);
        }
    }
}

#[test]
fn randomized_tpch_streams_route_soundly_over_a_many_view_catalog() {
    let scale = Scale::tiny();
    let db = generate(scale, 42, DeletePolicy::Cascade);
    let mut catalog = ViewCatalog::new(tpch_schema(DeletePolicy::Cascade));
    for (name, text) in many_views(24, scale) {
        catalog.add(&name, &text).expect("generated view compiles");
    }
    // The §7.2 evaluation views join the catalog too, so the classic
    // workload's updates have rich overlap with the partitions.
    for (name, text) in stream_views() {
        catalog.add(name, text).expect("evaluation view compiles");
    }
    for seed in [1, 2, 3] {
        let mut updates = fanout_stream(12, scale, seed);
        updates.extend(stream(StreamSpec::heavy(8), scale, seed).into_iter().map(|(_, u)| u));
        assert_sound(&catalog, &db, &updates);
    }
}

#[test]
fn fanout_actually_prunes_partitioned_catalogs() {
    let scale = Scale::tiny();
    let db = generate(scale, 42, DeletePolicy::Cascade);
    let mut catalog = ViewCatalog::new(tpch_schema(DeletePolicy::Cascade));
    for (name, text) in many_views(24, scale) {
        catalog.add(&name, &text).expect("generated view compiles");
    }
    let updates = fanout_stream(16, scale, 9);
    let refs: Vec<&str> = updates.iter().map(String::as_str).collect();
    let mut db = db.clone();
    let report = catalog.check_all_batch_refs(&refs, &mut db, &mut ProbeCache::new());
    let f = report.fanout;
    assert_eq!(f.fanout_requests, 16);
    assert_eq!(f.fallbacks, 0, "fan-out updates are all classifiable");
    assert!(
        f.candidates <= f.fanout_requests * 2,
        "partitioned catalog should route each update to ~1 view, got {f:?}"
    );
    assert!(f.pruned >= 16 * 20, "expected heavy pruning over 24 views, got {f:?}");
    // All three levels contribute on this workload.
    assert!(f.pruned_tags > 0, "{f:?}");
    assert!(f.pruned_paths > 0, "{f:?}");
    assert!(f.pruned_preds > 0, "{f:?}");
}

/// The aggregate/Distinct extension must not perturb routing soundness:
/// views with deduplicated or aggregated regions stay candidates for every
/// update that could reach them (their untranslatable `non-injective`
/// outcomes are *not* statically irrelevant, so pruning one would be
/// unsound), and their candidate outcomes stay byte-identical between the
/// indexed and brute-force paths.
#[test]
fn aggregate_and_distinct_views_route_soundly() {
    let mut catalog = ViewCatalog::new(bookdemo::book_schema());
    catalog.add("books", bookdemo::BOOK_VIEW).unwrap();
    catalog
        .add(
            "stats",
            r#"<Stats> <n_books> count(document("d")/book/row) </n_books>,
<top_price> max(document("d")/book/row/price) </top_price> </Stats>"#,
        )
        .expect("aggregate view compiles");
    catalog
        .add(
            "dedup",
            r#"<Dedup> FOR $b IN distinct(document("d")/book/row)
RETURN { <book> $b/title, $b/price </book> } </Dedup>"#,
        )
        .expect("distinct view compiles");
    catalog
        .add(
            "gated",
            r#"<Gated> FOR $r IN document("d")/review/row
WHERE count(document("d")/review/row) > 1
RETURN { <review> $r/reviewid </review> } </Gated>"#,
        )
        .expect("aggregate-gated view compiles");
    let db = bookdemo::book_db();

    let book_delete = r#"FOR $b IN document("V.xml")/book UPDATE $b { DELETE $b }"#.to_string();
    let updates: Vec<String> = vec![
        // <book> exists in "books" and "dedup": both must be candidates;
        // "dedup" classifies non-injective, "books" runs the classic path.
        book_delete.clone(),
        // Target an aggregate-bearing element directly.
        r#"FOR $n IN document("V.xml")/n_books UPDATE $n { DELETE $n }"#.to_string(),
        // Target the aggregate-gated region.
        r#"FOR $r IN document("V.xml")/review UPDATE $r { DELETE $r }"#.to_string(),
        // Predicate inside a Distinct region.
        r#"FOR $b IN document("V.xml")/book
WHERE $b/price/text() = 45.00
UPDATE $b { DELETE $b }"#
            .to_string(),
        // Insert into the deduplicated region.
        r#"FOR $root IN document("V.xml")
UPDATE $root { INSERT <book><title>T</title><price>9.99</price></book> }"#
            .to_string(),
    ];
    assert_sound(&catalog, &db, &updates);

    // The pinning half of the contract: the Distinct view really is a
    // candidate for the <book> delete, and its candidate outcome is the
    // new untranslatable non-injective wire code — i.e. routing delivered
    // the update to the view whose conservative classification must see it.
    let u = ufilter_xquery::parse_update(&book_delete).unwrap();
    let relevant = catalog.relevant_views(&u);
    assert!(relevant.contains(&"books".to_string()), "{relevant:?}");
    assert!(relevant.contains(&"dedup".to_string()), "{relevant:?}");
    let mut db2 = db.clone();
    let report = catalog.check_all(&book_delete, &mut db2);
    let dedup_item = report.items.iter().find(|i| i.view == "dedup").expect("dedup is a candidate");
    let line = encode_outcome(&dedup_item.reports[0].outcome);
    assert!(line.starts_with("untranslatable non-injective "), "{line}");
    assert!(!wire_outcome_is_irrelevant(&line), "non-injective outcomes are never prunable");
}

/// Route every parseable update through both indexes and demand the full
/// [`u_filter::route::Route`] — candidates, per-level pruning counters and
/// the fallback flag — is identical. The trie may *compute* pruning
/// differently (shared nodes, interval stabs), but it must never *decide*
/// differently.
fn assert_indexes_agree(trie: &TrieIndex, linear: &RelevanceIndex, updates: &[String], ctx: &str) {
    for text in updates {
        let Ok(u) = parse_update(text) else { continue };
        assert_eq!(
            trie.route(&u),
            linear.route(&u),
            "trie and linear walk diverged ({ctx})\nupdate: {text}"
        );
    }
}

/// Differential harness over the two index implementations: the shared
/// path trie (production) against the per-view linear walk (oracle), on
/// randomized TPC-H streams with mid-stream add/drop churn. Signature
/// level only — no UFilter compilation — so the catalog can be large.
#[test]
fn trie_and_linear_walk_agree_on_tpch_streams_with_churn() {
    let scale = Scale::tiny();
    let schema = tpch_schema(DeletePolicy::Cascade);
    let views: Vec<(String, ufilter_asg::ViewAsg)> = many_views(60, scale)
        .into_iter()
        .map(|(name, text)| {
            let q = parse_view_query(&text).expect("generated view parses");
            (name, build_view_asg(&q, &schema).expect("generated view builds"))
        })
        .collect();
    let mut trie = TrieIndex::new();
    let mut linear = RelevanceIndex::new();
    for (name, asg) in &views {
        trie.insert(name, asg);
        linear.insert(name, asg);
    }

    for seed in [11, 12, 13] {
        let mut updates = fanout_stream(20, scale, seed);
        updates.extend(stream(StreamSpec::heavy(6), scale, seed).into_iter().map(|(_, u)| u));
        assert_indexes_agree(&trie, &linear, &updates, "full catalog");

        // Mid-stream churn: drop every third view from both indexes, route
        // the same stream, then re-insert and route again — the trie's
        // incremental remove (node free cascade, postings compaction) must
        // land it in the same state as the rebuilt-from-scratch oracle.
        for (name, _) in views.iter().step_by(3) {
            trie.remove(name);
            linear.remove(name);
        }
        assert_indexes_agree(&trie, &linear, &updates, "after drop churn");
        for (name, asg) in views.iter().step_by(3) {
            trie.insert(name, asg);
            linear.insert(name, asg);
        }
        assert_indexes_agree(&trie, &linear, &updates, "after re-add churn");
    }
}

/// Routing signatures of `many_views(n, …)`: parse + ASG build, no
/// UFilter compilation.
fn family_signatures(n: usize, scale: Scale) -> Vec<(String, ViewSignature)> {
    let schema = tpch_schema(DeletePolicy::Cascade);
    many_views(n, scale)
        .into_iter()
        .map(|(name, text)| {
            let q = parse_view_query(&text).expect("generated view parses");
            (name, ViewSignature::of(&build_view_asg(&q, &schema).expect("generated view builds")))
        })
        .collect()
}

/// The trie's structural classes through their whole lifecycle — a family
/// emptied, re-created with new partition bounds, a class that differs
/// only in its leaf-domain tags, and a full drain — with the full `Route`
/// held equal to the linear oracle after every step.
#[test]
fn trie_classes_live_and_die_with_their_families() {
    let scale = Scale::tiny();
    let mut updates = fanout_stream(60, scale, 21);
    updates.extend(stream(StreamSpec::heavy(6), scale, 21).into_iter().map(|(_, u)| u));
    let classes = |trie: &TrieIndex| trie.stats().classes;

    let views = family_signatures(90, scale);
    let mut trie = TrieIndex::new();
    let mut linear = RelevanceIndex::new();
    for (name, sig) in &views {
        trie.insert_signature(name, sig.clone());
        linear.insert_signature(name, sig.clone());
    }
    assert_indexes_agree(&trie, &linear, &updates, "full catalog");
    assert_eq!(classes(&trie), 3);

    // Drop the whole geo family: its class empties and is unposted.
    let geo = |name: &str| name.starts_with("geo_p");
    for (name, _) in views.iter().filter(|(n, _)| geo(n)) {
        trie.remove(name);
        linear.remove(name);
    }
    assert_indexes_agree(&trie, &linear, &updates, "geo family dropped");
    assert_eq!(classes(&trie), 2);

    // Re-add it with a different partition count, so every bound differs.
    let regeo: Vec<(String, ViewSignature)> =
        family_signatures(150, scale).into_iter().filter(|(n, _)| geo(n)).collect();
    assert_ne!(regeo.len(), views.iter().filter(|(n, _)| geo(n)).count());
    for (name, sig) in &regeo {
        trie.insert_signature(name, sig.clone());
        linear.insert_signature(name, sig.clone());
    }
    assert_indexes_agree(&trie, &linear, &updates, "geo family re-added with new bounds");
    assert_eq!(classes(&trie), 3);

    // A customer view whose c_custkey has no leaf-domain entry differs from
    // its family only in the leaf-domain tag set: its own class, where a
    // c_custkey predicate passes through.
    let mut parts = views[0].1.to_parts();
    parts.leaf_domains.retain(|(tag, _)| tag != "c_custkey");
    trie.insert_parts("cust_passthrough", parts.clone());
    linear.insert_signature("cust_passthrough", ViewSignature::from_parts(parts));
    assert_eq!(classes(&trie), 4, "a different leaf-domain tag set is a different class");
    assert_indexes_agree(&trie, &linear, &updates, "pass-through class added");
    let by_key = parse_update(&u_filter::tpch::fanout_updates::delete_customer_orders(7)).unwrap();
    assert!(trie.route(&by_key).candidates.contains(&"cust_passthrough".to_string()));

    // Drain everything: no class, node or posting survives.
    let mut names: Vec<String> = views.iter().map(|(n, _)| n.clone()).filter(|n| !geo(n)).collect();
    names.extend(regeo.into_iter().map(|(n, _)| n));
    names.push("cust_passthrough".to_string());
    for name in &names {
        trie.remove(name);
        linear.remove(name);
    }
    assert_indexes_agree(&trie, &linear, &updates, "drained");
    let empty = trie.stats();
    assert_eq!((empty.classes, empty.nodes, empty.postings), (0, 0, 0), "{empty:?}");
    assert!(trie.is_empty());
}

/// However many partitions, the three `many_views` families are three
/// structural classes.
#[test]
fn many_view_families_occupy_three_classes_at_any_size() {
    for n in [30, 3000] {
        let mut trie = TrieIndex::new();
        for (name, sig) in family_signatures(n, Scale::tiny()) {
            trie.insert_signature(&name, sig);
        }
        assert_eq!(trie.len(), n);
        assert_eq!(trie.stats().classes, 3, "n={n}");
    }
}

/// The same differential over fuzz-generated plans: grammar-random views
/// and updates (shapes far outside the TPC-H families), with per-plan
/// drop-half/re-add churn.
#[test]
fn trie_and_linear_walk_agree_on_fuzz_streams_with_churn() {
    let mut routed = 0usize;
    for seed in 0..60u64 {
        let plan = ufilter_fuzz::Plan::generate(seed).raw();
        let mut db = Db::new();
        if db.execute_script(&plan.schema_sql).is_err() {
            continue;
        }
        let schema = db.schema().clone();
        let mut trie = TrieIndex::new();
        let mut linear = RelevanceIndex::new();
        let mut built = Vec::new();
        for (name, text) in &plan.views {
            let Ok(q) = parse_view_query(text) else { continue };
            let Ok(asg) = build_view_asg(&q, &schema) else { continue };
            trie.insert(name, &asg);
            linear.insert(name, &asg);
            built.push((name.clone(), asg));
        }
        if built.is_empty() {
            continue;
        }
        let ctx = format!("fuzz seed {seed}");
        assert_indexes_agree(&trie, &linear, &plan.updates, &ctx);
        routed += plan.updates.len();

        // Churn: drop the first half, route, re-add, route.
        let half = built.len().div_ceil(2);
        for (name, _) in &built[..half] {
            trie.remove(name);
            linear.remove(name);
        }
        assert_indexes_agree(&trie, &linear, &plan.updates, &format!("{ctx}, half dropped"));
        for (name, asg) in &built[..half] {
            trie.insert(name, asg);
            linear.insert(name, asg);
        }
        assert_indexes_agree(&trie, &linear, &plan.updates, &format!("{ctx}, re-added"));
    }
    assert!(routed >= 100, "fuzz sweep routed too few updates to mean anything: {routed}");
}

#[test]
fn book_updates_route_soundly_including_edge_shapes() {
    let mut catalog = ViewCatalog::new(bookdemo::book_schema());
    catalog.add("books", bookdemo::BOOK_VIEW).unwrap();
    for (name, text) in bookdemo::book_view_variants(8) {
        catalog.add(&name, &text).expect("book variant compiles");
    }
    let db = bookdemo::book_db();
    let mut updates: Vec<String> =
        bookdemo::all_updates().into_iter().map(|(_, u)| u.to_string()).collect();
    updates.extend([
        // Unparsable text: every view must report the same malformed line.
        "this is not an update".to_string(),
        // Correlation predicate: resolver rejects it for every view — the
        // index must fall back, never prune.
        r#"FOR $a IN document("V.xml")/book, $b IN document("V.xml")/book
WHERE $a/bookid = $b/bookid
UPDATE $a { DELETE $a/review }"#
            .to_string(),
        // Replace splits into delete + insert.
        r#"FOR $b IN document("V.xml")/book
UPDATE $b { REPLACE $b/title WITH <title>New Title</title> }"#
            .to_string(),
        // Unknown tag everywhere: candidates may legally be empty.
        r#"FOR $z IN document("V.xml")/zebra UPDATE $z { DELETE $z/stripe }"#.to_string(),
    ]);
    assert_sound(&catalog, &db, &updates);
}
