//! Differential test of the worker pool's fan-out path (`CHECKALL` /
//! `BATCHALL`), where workers parse, route and check each update.
//!
//! The oracle is [`ViewCatalog::check_all_brute`], which checks every
//! update against every view with no routing. For each pool size and shard
//! count, [`CheckPool::check_all_batch`] must
//!
//! 1. give byte-identical wire lines to the oracle for every (update,
//!    view) pair it checks, and prune only pairs the oracle classifies as
//!    statically irrelevant;
//! 2. report the same [`FanoutStats`] as a single [`ViewCatalog`]'s routed
//!    fan-out (the oracle's own counters record no pruning by design).
//!
//! The stream repeats texts inside one batch and carries one malformed
//! and one unclassifiable update, which fan out to every view. A served
//! `BATCHALL` must print the same `ITEM` lines and `END` counters.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use u_filter::core::catalog::{FanoutItem, FanoutStats, ViewCatalog};
use u_filter::core::wire::encode_outcome;
use u_filter::core::{wire_outcome_is_irrelevant, ProbeCache};
use u_filter::service::{proto, CheckPool, CheckServer, ShardedCatalog};
use u_filter::tpch::{fanout_stream, generate, many_views, tpch_schema, Scale};
use ufilter_rdb::DeletePolicy;

/// Parses, but correlates two variables, so the router cannot classify it.
const UNCLASSIFIABLE: &str = r#"FOR $a IN document("V.xml")/customer, $b IN document("V.xml")/customer
WHERE $a/c_custkey = $b/c_custkey
UPDATE $a { DELETE $a/order }"#;

fn updates() -> Vec<String> {
    let mut updates = fanout_stream(24, Scale::tiny(), 7);
    let repeats: Vec<String> = updates[..6].to_vec();
    updates.extend(repeats);
    updates.push("this is not an update".to_string());
    updates.push(UNCLASSIFIABLE.to_string());
    updates
}

/// The `ITEM` lines a served `BATCHALL` prints for these items.
fn wire_lines(items: &[FanoutItem]) -> Vec<String> {
    items
        .iter()
        .flat_map(|i| {
            i.reports.iter().map(move |r| {
                format!("ITEM {} {} {}", i.update, i.view, encode_outcome(&r.outcome))
            })
        })
        .collect()
}

fn end_line(updates: usize, f: &FanoutStats) -> String {
    format!(
        "END items={updates} fanout_requests={} candidates={} pruned={} fallbacks={}",
        f.fanout_requests, f.candidates, f.pruned, f.fallbacks
    )
}

#[test]
fn pool_fan_out_matches_the_brute_force_oracle_at_every_pool_shape() {
    let scale = Scale::tiny();
    let db = generate(scale, 42, DeletePolicy::Cascade);
    let schema = tpch_schema(DeletePolicy::Cascade);
    let views = many_views(300, scale);
    let mut single = ViewCatalog::new(schema.clone());
    for (name, text) in &views {
        single.add(name, text).expect("generated view compiles");
    }
    let updates = updates();
    let refs: Vec<&str> = updates.iter().map(String::as_str).collect();
    let brute = single.check_all_brute(&refs, &mut db.clone(), &mut ProbeCache::new());
    let routed = single.check_all_batch(&updates, &mut db.clone());
    assert_eq!(brute.items.len(), updates.len() * views.len());
    assert_eq!(routed.fanout.fallbacks, 2, "malformed + unclassifiable: {:?}", routed.fanout);

    let mut oracle: HashMap<(usize, &str), Vec<String>> = HashMap::new();
    for item in &brute.items {
        let lines = item.reports.iter().map(|r| encode_outcome(&r.outcome)).collect();
        oracle.insert((item.update, item.view.as_str()), lines);
    }

    let mut served_catalog = None;
    for shards in [1, 4] {
        let sharded = Arc::new(ShardedCatalog::new(schema.clone(), shards));
        for (name, text) in &views {
            sharded.add(name, text).expect("generated view compiles");
        }
        for workers in [1, 2, 3] {
            let pool = CheckPool::new(Arc::clone(&sharded), db.clone(), workers);
            let report = pool.check_all_batch(&updates).expect("no checker panic");
            let shape = format!("shards={shards} workers={workers}");
            assert_eq!(report.fanout, routed.fanout, "{shape}");
            assert_eq!(report.fanout.views, brute.fanout.views, "{shape}");
            assert_eq!(report.fanout.fanout_requests, brute.fanout.fanout_requests, "{shape}");
            assert_eq!(wire_lines(&report.items), wire_lines(&routed.items), "{shape}");

            let mut checked = HashSet::new();
            for item in &report.items {
                let lines: Vec<String> =
                    item.reports.iter().map(|r| encode_outcome(&r.outcome)).collect();
                let key = (item.update, item.view.as_str());
                assert_eq!(Some(&lines), oracle.get(&key), "{shape}: {key:?} diverged");
                checked.insert(key);
            }
            for (key, lines) in &oracle {
                if !checked.contains(key) {
                    assert!(
                        lines.iter().all(|l| wire_outcome_is_irrelevant(l)),
                        "{shape}: pruned {key:?} but the oracle says {lines:?}"
                    );
                }
            }
        }
        served_catalog = Some(sharded);
    }

    // The served BATCHALL prints the same ITEM lines and END counters.
    let sharded = served_catalog.expect("built above");
    let server = CheckServer::bind("127.0.0.1:0", sharded, db, 2).expect("binds");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serves"));
    let stream = TcpStream::connect(addr).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut recv = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("server replies");
        line.trim_end().to_string()
    };
    writeln!(writer, "BATCHALL {}", updates.len()).unwrap();
    for u in &updates {
        writeln!(writer, "{}", proto::batchall_item(u)).unwrap();
    }
    writer.flush().unwrap();
    assert_eq!(recv(), format!("OK {}", updates.len()));
    let expected = wire_lines(&routed.items);
    let got: Vec<String> = (0..expected.len()).map(|_| recv()).collect();
    assert_eq!(got, expected, "served BATCHALL diverged");
    assert_eq!(recv(), end_line(updates.len(), &routed.fanout));
    writeln!(writer, "SHUTDOWN").unwrap();
    assert_eq!(recv(), "OK bye");
    handle.join().expect("clean shutdown");
}
