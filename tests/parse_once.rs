//! Counts that pin "each step once" on the pool's fan-out path: a
//! `BATCHALL` of N distinct updates parses each update exactly once and
//! routes it exactly once, on the worker that checks it.
//!
//! This test lives in its own integration binary because the metrics it
//! counts are process-global: another test checking updates in the same
//! process would add samples to the window.

use std::sync::Arc;

use u_filter::core::obs::{self, Stage};
use u_filter::service::{CheckPool, ShardedCatalog};
use u_filter::tpch::{fanout_stream, generate, many_views, tpch_schema, Scale};
use ufilter_rdb::DeletePolicy;

#[test]
fn two_worker_batchall_parses_and_routes_each_distinct_update_once() {
    obs::set_enabled(true);
    let scale = Scale::tiny();
    let catalog = Arc::new(ShardedCatalog::new(tpch_schema(DeletePolicy::Cascade), 4));
    for (name, text) in many_views(24, scale) {
        catalog.add(&name, &text).expect("generated view compiles");
    }
    let pool = CheckPool::new(catalog, generate(scale, 42, DeletePolicy::Cascade), 2);
    let mut updates = fanout_stream(40, scale, 5);
    updates.sort();
    updates.dedup();
    let n = updates.len() as u64;
    assert!(n >= 20, "the stream keeps enough distinct updates: {n}");

    let before = obs::snapshot();
    let report = pool.check_all_batch(&updates).expect("no checker panic");
    let after = obs::snapshot();

    assert_eq!(report.fanout.fanout_requests as u64, n);
    assert!(pool.stats().jobs >= 1);
    let samples = |stage: Stage| after.stage(stage).count() - before.stage(stage).count();
    assert_eq!(samples(Stage::Parse), n, "one parse per distinct update");
    assert_eq!(samples(Stage::Route), n, "one route per distinct update");
}
