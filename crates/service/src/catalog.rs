//! The sharded concurrent catalog: an `Arc`-shareable, `Sync` wrapper that
//! spreads registered views over N independently-locked [`ViewCatalog`]
//! shards.
//!
//! Views hash to shards by name ([`ShardedCatalog::shard_of`]), so the
//! read-mostly check path takes exactly one shard **read** lock, while
//! catalog mutations (`add`/`drop_view`) take one targeted shard **write**
//! lock. Only guarded DDL — which changes the schema every shard compiles
//! against — locks all shards, and it does so under the crate's single
//! lock-ordering rule:
//!
//! > **Lock order:** shard locks are only ever acquired in ascending shard
//! > index, and no thread holds two shard locks unless it is the DDL path
//! > acquiring *all* of them (ascending). Check/list paths lock one shard
//! > at a time.
//!
//! That rule makes deadlock impossible: every multi-lock acquisition is a
//! prefix-ordered sweep, and single-lock acquisitions cannot form a cycle.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use ufilter_core::catalog::is_schema_ddl;
use ufilter_core::obs::{self, LockKind, Stage};
use ufilter_core::{
    parse_distinct, BatchEntry, BatchItemReport, BatchReport, BatchStats, CatalogError,
    CatalogStore, FanoutItem, FanoutReport, FanoutStats, Footprint, IndexStats, LogRecord,
    ProbeCache, ReplayStats, Route, UFilterConfig, ViewCatalog, ViewInfo,
};
use ufilter_rdb::{DatabaseSchema, Db, ExecOutcome, Parser, Stmt};
use ufilter_xquery::UpdateStmt;

/// FNV-1a 64-bit hash — deterministic across runs and processes, so view →
/// shard and (view, update) → worker routing is stable (std's default
/// hasher is randomly seeded per `RandomState`, which would make routing
/// unreproducible between a server and its replay).
pub fn affinity_hash(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        // Separator so ("ab","c") and ("a","bc") hash apart.
        h ^= 0x1f;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// A concurrent, sharded view catalog. See the [module docs](self) for the
/// locking design; per-shard semantics are exactly [`ViewCatalog`]'s
/// (compile-once cache, RESTRICT DDL guard, batch amortization).
pub struct ShardedCatalog {
    shards: Vec<RwLock<ViewCatalog>>,
    /// Shared durable store (see [`ufilter_core::persist`]): one log for
    /// the whole catalog, so record order is exactly acknowledgment order
    /// across shards. Each shard holds a clone for its own `add`/`drop`
    /// appends; this handle serves guarded-DDL appends and the service's
    /// `STATS`/`SHUTDOWN`/`CATALOG VERIFY` paths.
    store: Option<Arc<Mutex<CatalogStore>>>,
}

impl ShardedCatalog {
    /// A catalog of `shards` shards (at least 1) over `schema`, with the
    /// default pipeline config.
    pub fn new(schema: DatabaseSchema, shards: usize) -> ShardedCatalog {
        ShardedCatalog::with_config(schema, UFilterConfig::default(), shards)
    }

    /// [`new`](Self::new) with an explicit pipeline configuration.
    pub fn with_config(
        schema: DatabaseSchema,
        config: UFilterConfig,
        shards: usize,
    ) -> ShardedCatalog {
        let shards = shards.max(1);
        ShardedCatalog {
            shards: (0..shards)
                .map(|_| RwLock::new(ViewCatalog::new(schema.clone()).with_config(config)))
                .collect(),
            store: None,
        }
    }

    /// Attach a durable store to every shard (and keep a handle for the
    /// DDL/service paths): from now on all catalog mutations append their
    /// record before acknowledging. Call **after** [`replay`](Self::replay)
    /// and before the catalog is shared (`&mut self` enforces both).
    pub fn attach_store(&mut self, store: Arc<Mutex<CatalogStore>>) {
        for shard in &self.shards {
            shard.write().expect("catalog shard lock poisoned").attach_store(Arc::clone(&store));
        }
        self.store = Some(store);
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Arc<Mutex<CatalogStore>>> {
        self.store.as_ref()
    }

    /// Rebuild the catalog from recovered records: `Add`s rehydrate into
    /// their name's shard, `Drop`s unregister from it, `Ddl`s re-execute
    /// through the all-shards guarded path — exactly the work the original
    /// session did, so list order, relevance routing and check outcomes
    /// come out identical. Must run before [`attach_store`](Self::attach_store).
    pub fn replay(&self, db: &mut Db, records: &[LogRecord]) -> Result<ReplayStats, CatalogError> {
        if self.store.is_some() {
            return Err(CatalogError::Persist {
                detail: "replay must run before attach_store (records would be re-appended)".into(),
            });
        }
        let mut stats = ReplayStats::default();
        for record in records {
            stats.records += 1;
            match record {
                LogRecord::Add { name, view_text, deps, cached, artifact } => {
                    stats.adds += 1;
                    let rehydrated = self
                        .write(self.shard_of(name))
                        .add_rehydrated(name, view_text, deps, *cached, artifact)?;
                    if rehydrated {
                        stats.rehydrated += 1;
                    } else {
                        stats.recompiled += 1;
                    }
                }
                LogRecord::Drop { name } => {
                    stats.drops += 1;
                    self.write(self.shard_of(name)).drop_view(name)?;
                }
                LogRecord::Ddl { sql } => {
                    stats.ddl += 1;
                    self.execute_guarded(db, sql)?;
                }
            }
        }
        Ok(stats)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a view name hashes to.
    pub fn shard_of(&self, view: &str) -> usize {
        (affinity_hash(&[view]) % self.shards.len() as u64) as usize
    }

    fn read(&self, i: usize) -> RwLockReadGuard<'_, ViewCatalog> {
        self.shards[i].read().expect("catalog shard lock poisoned")
    }

    fn write(&self, i: usize) -> RwLockWriteGuard<'_, ViewCatalog> {
        self.shards[i].write().expect("catalog shard lock poisoned")
    }

    /// Register `view_text` under `name` (one shard write lock). A name may
    /// exist in at most one shard by construction, so [`ViewCatalog::add`]'s
    /// duplicate check remains authoritative.
    pub fn add(&self, name: &str, view_text: &str) -> Result<ViewInfo, CatalogError> {
        let span = obs::clock();
        let out = self.write(self.shard_of(name)).add(name, view_text);
        obs::lock_hold_elapsed(LockKind::Write, span);
        out
    }

    /// Unregister `name` (one shard write lock).
    pub fn drop_view(&self, name: &str) -> Result<(), CatalogError> {
        let span = obs::clock();
        let out = self.write(self.shard_of(name)).drop_view(name);
        obs::lock_hold_elapsed(LockKind::Write, span);
        out
    }

    /// All registered views in name order (read locks, one shard at a time,
    /// ascending).
    pub fn list(&self) -> Vec<ViewInfo> {
        let mut out: Vec<ViewInfo> = Vec::new();
        for i in 0..self.shards.len() {
            out.extend(self.read(i).list());
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Total number of registered views.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.read(i).len()).sum()
    }

    /// Whether no view is registered in any shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compile-once cache hits summed over all shards.
    pub fn compile_cache_hits(&self) -> usize {
        (0..self.shards.len()).map(|i| self.read(i).compile_cache_hits()).sum()
    }

    /// Names of registered views (any shard) that read `relation`, in
    /// ascending name order.
    pub fn dependents_of(&self, relation: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for i in 0..self.shards.len() {
            out.extend(self.read(i).dependents_of(relation));
        }
        out.sort();
        out
    }

    /// Route a parsed update across every shard's relevance index: the
    /// merged candidate set (ascending name order) plus summed per-level
    /// pruning counters. Read locks, one shard at a time, ascending — the
    /// lock-ordering rule.
    pub fn route_update(&self, u: &UpdateStmt) -> Route {
        // One footprint extraction per request, shared by every shard.
        self.route_footprint(&Footprint::of(u))
    }

    /// [`route_update`](Self::route_update) for an extracted footprint.
    fn route_footprint(&self, fp: &Footprint) -> Route {
        let mut merged = Route::default();
        for i in 0..self.shards.len() {
            let route = self.read(i).route_footprint(fp);
            merged.views += route.views;
            merged.pruned_tags += route.pruned_tags;
            merged.pruned_paths += route.pruned_paths;
            merged.pruned_preds += route.pruned_preds;
            merged.fallback |= route.fallback;
            merged.candidates.extend(route.candidates);
        }
        merged.candidates.sort();
        merged
    }

    /// The views a parsed update could possibly affect, across all shards,
    /// in ascending name order (a sound superset — see `ufilter_route`).
    pub fn relevant_views(&self, u: &UpdateStmt) -> Vec<String> {
        self.route_update(u).candidates
    }

    /// Routing-index gauges summed over every shard's trie (read locks,
    /// one shard at a time, ascending): live nodes, posting entries,
    /// approximate resident bytes, and incremental insert/remove counts
    /// since the process started. The service `STATS` verb reports these.
    pub fn index_stats(&self) -> IndexStats {
        let mut merged = IndexStats::default();
        for i in 0..self.shards.len() {
            merged.merge(&self.read(i).index_stats());
        }
        merged
    }

    /// The RESTRICT rule across every shard: reject schema-affecting DDL on
    /// a relation any registered view reads. Advisory only — the atomic
    /// guard-and-execute is [`execute_guarded`](Self::execute_guarded),
    /// which re-checks under write locks.
    pub fn guard_ddl(&self, stmt: &Stmt) -> Result<(), CatalogError> {
        for i in 0..self.shards.len() {
            self.read(i).guard_ddl(stmt)?;
        }
        Ok(())
    }

    /// Parse `sql`, then [`execute_guarded_stmt`](Self::execute_guarded_stmt).
    /// With a store attached, successfully-executed schema DDL is appended
    /// once (by this wrapper, not per shard — the statement path below has
    /// no SQL text to log). See [`ViewCatalog::execute_guarded`] for the
    /// re-execute-on-replay rationale.
    pub fn execute_guarded(&self, db: &mut Db, sql: &str) -> Result<ExecOutcome, CatalogError> {
        let stmt =
            Parser::parse_stmt(sql).map_err(|e| CatalogError::Sql { detail: e.to_string() })?;
        let ddl = is_schema_ddl(&stmt);
        let out = self.execute_guarded_stmt(db, stmt)?;
        if ddl {
            if let Some(store) = &self.store {
                store
                    .lock()
                    .expect("catalog store lock")
                    .append(&LogRecord::Ddl { sql: sql.to_string() })
                    .map_err(|e| CatalogError::Persist { detail: e.to_string() })?;
            }
        }
        Ok(out)
    }

    /// Guard and execute one statement atomically with respect to catalog
    /// mutation: **all** shard write locks are taken (ascending index — the
    /// lock-ordering rule), the guard is evaluated under them, the statement
    /// runs against `db`, and on schema-affecting DDL every shard adopts the
    /// new schema before any lock is released. Concurrent checks therefore
    /// never observe a half-updated catalog.
    pub fn execute_guarded_stmt(
        &self,
        db: &mut Db,
        stmt: Stmt,
    ) -> Result<ExecOutcome, CatalogError> {
        let span = obs::clock();
        let mut guards: Vec<RwLockWriteGuard<'_, ViewCatalog>> =
            (0..self.shards.len()).map(|i| self.write(i)).collect();
        let out = Self::run_under_guards(&mut guards, db, stmt);
        drop(guards);
        obs::lock_hold_elapsed(LockKind::Write, span);
        out
    }

    /// [`execute_guarded_stmt`](Self::execute_guarded_stmt)'s body with
    /// every shard write lock already held.
    fn run_under_guards(
        guards: &mut [RwLockWriteGuard<'_, ViewCatalog>],
        db: &mut Db,
        stmt: Stmt,
    ) -> Result<ExecOutcome, CatalogError> {
        for shard in guards.iter() {
            shard.guard_ddl(&stmt)?;
        }
        let ddl = is_schema_ddl(&stmt);
        let out = db.run(stmt).map_err(|e| CatalogError::Sql { detail: e.to_string() })?;
        if ddl {
            for shard in guards.iter_mut() {
                shard.set_schema(db.schema().clone());
            }
        }
        Ok(out)
    }

    /// The check path's one entry point: check `(index, view, update
    /// text)` items, sharing `cache` across the call. An item that names a
    /// view (`CHECK`, `BATCH`) is checked against it; an item without one
    /// (`CHECKALL`, `BATCHALL`) is routed through every shard's relevance
    /// index and checked against each candidate view, an unparsable text
    /// against every view. Returns one [`FanoutItem`] per (index, view)
    /// checked, sorted by `(index, view)`, with the batch and fan-out
    /// counters.
    ///
    /// Each distinct text is parsed once and routed once. Items are then
    /// grouped by shard; each shard's sub-batch runs under that shard's
    /// read lock (one at a time, ascending — the lock-ordering rule) on the
    /// already parsed statements. Outcomes are identical to a single
    /// [`ViewCatalog`] holding every view: grouping by shard only changes
    /// *which* probe scans are shared, never any per-item classification
    /// (batch checking is check-only, so probe results cannot be
    /// invalidated mid-call).
    ///
    /// Routing and checking are two steps, each individually consistent
    /// but not atomic together: a view dropped concurrently between them
    /// yields the same per-item "no view named …" report a direct `CHECK`
    /// of that view would, and a view added in between may be missed.
    /// Holding every shard lock across the pipeline run would serialize the
    /// whole service against its slowest check.
    pub fn check_items(
        &self,
        items: &[(usize, Option<&str>, &str)],
        db: &mut Db,
        cache: &mut ProbeCache,
    ) -> FanoutReport {
        let (parsed, parse_hits) = parse_distinct(items.iter().map(|(_, _, text)| *text));
        let mut routes: HashMap<&str, Route> = HashMap::new();
        for (_, view, text) in items {
            if view.is_some() || routes.contains_key(text) {
                continue;
            }
            let route = match &parsed[text] {
                Ok(u) => {
                    let span = obs::clock();
                    let route = self.route_update(u);
                    obs::stage_elapsed(Stage::Route, span);
                    route
                }
                // The batch engine gives every view the same malformed
                // report the brute-force loop would.
                Err(_) => self.route_footprint(&Footprint::unclassifiable()),
            };
            routes.insert(text, route);
        }

        let mut fanout = FanoutStats::default();
        let mut per_shard: Vec<Vec<BatchEntry>> = vec![Vec::new(); self.shards.len()];
        for (index, view, text) in items.iter().copied() {
            let stmt = parsed[text].as_ref().map_err(String::as_str);
            match view {
                Some(view) => per_shard[self.shard_of(view)].push((index, view, stmt)),
                None => {
                    let route = &routes[text];
                    if stmt.is_ok() {
                        obs::record_route_candidates(route.candidates.len());
                    }
                    fanout.absorb(route);
                    for view in &route.candidates {
                        per_shard[self.shard_of(view)].push((index, view, stmt));
                    }
                }
            }
        }

        let mut out: Vec<FanoutItem> = Vec::new();
        let mut batch = BatchStats { parse_hits, ..BatchStats::default() };
        for (shard, sub) in per_shard.iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            let span = obs::clock();
            let report = self.read(shard).run_batch(sub, db, cache);
            obs::lock_hold_elapsed(LockKind::Read, span);
            batch.merge(&report.stats);
            out.extend(report.items.into_iter().map(FanoutItem::from));
        }
        out.sort_by(|a, b| (a.update, a.view.as_str()).cmp(&(b.update, b.view.as_str())));
        FanoutReport { items: out, fanout, batch }
    }

    /// Single-threaded convenience over [`check_items`](Self::check_items)
    /// with `(view, text)` pairs indexed by position, packaged as a
    /// [`BatchReport`].
    pub fn check_batch_text(&self, items: &[(String, String)], db: &mut Db) -> BatchReport {
        let indexed: Vec<(usize, Option<&str>, &str)> =
            items.iter().enumerate().map(|(i, (v, t))| (i, Some(v.as_str()), t.as_str())).collect();
        let report = self.check_items(&indexed, db, &mut ProbeCache::new());
        BatchReport {
            items: report.items.into_iter().map(BatchItemReport::from).collect(),
            stats: report.batch,
        }
    }
}

// The whole point of the sharded catalog: it can be shared across worker
// threads behind an Arc.
const _: fn() = || {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<ShardedCatalog>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use ufilter_core::bookdemo;

    #[test]
    fn affinity_hash_is_stable_and_separator_aware() {
        assert_eq!(affinity_hash(&["books"]), affinity_hash(&["books"]));
        assert_ne!(affinity_hash(&["ab", "c"]), affinity_hash(&["a", "bc"]));
    }

    #[test]
    fn add_list_drop_across_shards() {
        let cat = ShardedCatalog::new(bookdemo::book_schema(), 4);
        for name in ["a", "b", "c", "d", "e"] {
            cat.add(name, bookdemo::BOOK_VIEW).unwrap();
        }
        assert_eq!(cat.len(), 5);
        let names: Vec<String> = cat.list().into_iter().map(|v| v.name).collect();
        assert_eq!(names, ["a", "b", "c", "d", "e"]);
        assert!(cat.add("a", bookdemo::BOOK_VIEW).is_err(), "duplicate rejected");
        cat.drop_view("c").unwrap();
        assert_eq!(cat.len(), 4);
        assert!(cat.drop_view("c").is_err());
    }

    #[test]
    fn sharded_outcomes_match_single_catalog() {
        let mut single = ViewCatalog::new(bookdemo::book_schema());
        single.add("books", bookdemo::BOOK_VIEW).unwrap();
        let sharded = ShardedCatalog::new(bookdemo::book_schema(), 3);
        sharded.add("books", bookdemo::BOOK_VIEW).unwrap();

        let stream: Vec<(String, String)> = [bookdemo::U8, bookdemo::U10, bookdemo::U13]
            .iter()
            .map(|u| ("books".to_string(), u.to_string()))
            .collect();
        let mut db1 = bookdemo::book_db();
        let mut db2 = bookdemo::book_db();
        let a = single.check_batch_text(&stream, &mut db1);
        let b = sharded.check_batch_text(&stream, &mut db2);
        let wire = |r: &BatchReport| -> Vec<String> {
            r.items
                .iter()
                .flat_map(|i| {
                    i.reports.iter().map(|r| ufilter_core::wire::encode_outcome(&r.outcome))
                })
                .collect()
        };
        assert_eq!(wire(&a), wire(&b));
    }

    #[test]
    fn ddl_guard_spans_all_shards() {
        let cat = ShardedCatalog::new(bookdemo::book_schema(), 4);
        cat.add("books", bookdemo::BOOK_VIEW).unwrap();
        let mut db = bookdemo::book_db();
        let e = cat.execute_guarded(&mut db, "DROP TABLE review").unwrap_err();
        assert!(e.to_string().contains("books"), "{e}");
        // A relation no view reads can be created and dropped; afterwards
        // every shard has adopted the refreshed schema.
        cat.execute_guarded(&mut db, "CREATE TABLE scratch (id INTEGER)").unwrap();
        assert!(cat.guard_ddl(&Parser::parse_stmt("DROP TABLE scratch").unwrap()).is_ok());
        cat.execute_guarded(&mut db, "DROP TABLE scratch").unwrap();
        for i in 0..cat.shard_count() {
            assert!(cat.read(i).schema().table("scratch").is_none(), "shard {i} schema stale");
        }
    }

    #[test]
    fn relevant_views_merge_across_shards_in_name_order() {
        let cat = ShardedCatalog::new(bookdemo::book_schema(), 4);
        for name in ["d", "b", "a", "c"] {
            cat.add(name, bookdemo::BOOK_VIEW).unwrap();
        }
        let u = ufilter_xquery::parse_update(bookdemo::U8).unwrap();
        assert_eq!(cat.relevant_views(&u), ["a", "b", "c", "d"]);
        let route = cat.route_update(&u);
        assert_eq!(route.views, 4);
        assert_eq!(route.pruned(), 0);
        assert!(!route.fallback);
    }

    #[test]
    fn durable_sharded_catalog_replays_to_identical_state() {
        let dir =
            std::env::temp_dir().join(format!("ufilter-sharded-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = bookdemo::book_db();

        // Session 1: mutate through every durable path.
        let mut cat = ShardedCatalog::new(bookdemo::book_schema(), 4);
        cat.attach_store(Arc::new(Mutex::new(CatalogStore::open(&dir).unwrap())));
        for name in ["a", "b", "c"] {
            cat.add(name, bookdemo::BOOK_VIEW).unwrap();
        }
        cat.drop_view("b").unwrap();
        cat.execute_guarded(&mut db, "CREATE TABLE scratch (id INTEGER)").unwrap();
        let before: Vec<(String, bool)> =
            cat.list().into_iter().map(|v| (v.name, v.cached)).collect();

        // Session 2: recover from disk alone.
        let mut db2 = bookdemo::book_db();
        let store = CatalogStore::open(&dir).unwrap();
        let mut cat2 = ShardedCatalog::new(bookdemo::book_schema(), 4);
        let stats = cat2.replay(&mut db2, store.records()).unwrap();
        cat2.attach_store(Arc::new(Mutex::new(store)));
        assert_eq!((stats.adds, stats.drops, stats.ddl), (3, 1, 1));
        assert_eq!(stats.rehydrated, 3, "artifacts (or the cache) served every add");
        let after: Vec<(String, bool)> =
            cat2.list().into_iter().map(|v| (v.name, v.cached)).collect();
        assert_eq!(before, after, "list (with cached flags) is byte-identical");
        assert!(db2.schema().table("scratch").is_some(), "DDL re-executed on replay");

        // Replay after attach is a usage error, not silent double-logging.
        assert!(cat2.replay(&mut db2, &[]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_view_gets_per_item_report() {
        let cat = ShardedCatalog::new(bookdemo::book_schema(), 2);
        let mut db = bookdemo::book_db();
        let report =
            cat.check_batch_text(&[("ghost".to_string(), bookdemo::U8.to_string())], &mut db);
        assert_eq!(report.items.len(), 1);
        assert!(!report.items[0].reports[0].outcome.is_translatable());
    }
}
