//! The worker-pool executor: N std threads fanning check requests over the
//! shared [`ShardedCatalog`], with deterministic **affinity routing** so
//! probe-cache reuse survives concurrency.
//!
//! Every verb is a request shape over one job type: items of `(index,
//! view, update text)`, where the view is absent for a catalog-wide
//! update. Workers do all the checking work — parse, route, check — through
//! [`ShardedCatalog::check_items`]; the calling thread only hashes and
//! dispatches.
//!
//! Each worker owns a private [`Db`] clone and one long-lived
//! [`ProbeCache`]. An item that names a view (`CHECK`, `BATCH`) goes to the
//! worker `hash(view, update text)` picks — every occurrence of the same
//! update against the same view lands on the same worker, so repeat-heavy
//! streams keep hitting that worker's warm cache (and its materialized
//! `TAB_…` tables stay fresh, because no other view's probes thrash them).
//! Plain per-view routing would cap the usable parallelism at the number of
//! registered views; hashing the update text in keeps the affinity property
//! *and* balances a skewed stream. An item without a view (`CHECKALL`,
//! `BATCHALL`) goes to the worker `hash(update text)` picks, which parses
//! and routes it once and checks every candidate view: routing leaves about
//! one candidate per update, so splitting candidates across workers would
//! buy nothing but a second parse. The price is that an update the index
//! cannot classify checks every view on one worker.
//!
//! A checker panic is contained to its job: the request gets a
//! [`WorkerPanic`], and the worker replaces its database with a fresh clone
//! of the pool's snapshot (a transaction may have been half done) and
//! starts a new probe cache before taking the next job.
//!
//! The pool is check-only: workers never execute translations, so their
//! private databases stay byte-identical to the snapshot taken at pool
//! construction and cached probe results stay valid for the pool's
//! lifetime.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use ufilter_core::obs::{self, Verb};
use ufilter_core::{
    BatchItemReport, BatchReport, BatchStats, CheckReport, FanoutReport, FanoutStats, ProbeCache,
};
use ufilter_rdb::Db;

use crate::catalog::{affinity_hash, ShardedCatalog};

/// One job item: its index in the request, the view it names (`None` for
/// a catalog-wide update), and the update text.
type JobItem = (usize, Option<String>, String);

/// A worker's answer to one job.
type JobReply = Result<FanoutReport, WorkerPanic>;

/// One routed unit of work: a slice of a request plus the channel to send
/// the worker's partial report back on.
struct Job {
    items: Vec<JobItem>,
    reply: Sender<JobReply>,
    /// Dispatch time (None when metrics are disabled); the receiving worker
    /// records the queue wait.
    enqueued: Option<Instant>,
}

/// A checker panic, contained to the request whose job raised it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The panic message.
    pub detail: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "internal {}", self.detail)
    }
}

impl std::error::Error for WorkerPanic {}

/// Monotonic counters the pool aggregates across workers (read by the
/// server's `STATS` command).
#[derive(Debug, Default)]
pub struct PoolStats {
    jobs: AtomicUsize,
    items: AtomicUsize,
    probe_hits: AtomicUsize,
    probe_misses: AtomicUsize,
    fanout_requests: AtomicUsize,
    fanout_candidates: AtomicUsize,
    fanout_pruned: AtomicUsize,
    fanout_fallbacks: AtomicUsize,
    panics: AtomicUsize,
}

/// A point-in-time copy of [`PoolStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    /// Jobs dispatched to workers.
    pub jobs: usize,
    /// Stream items checked.
    pub items: usize,
    /// Context probes answered from a worker's warm cache.
    pub probe_hits: usize,
    /// Context probes that had to scan.
    pub probe_misses: usize,
    /// `CHECKALL`/`BATCHALL` updates routed through the relevance index.
    pub fanout_requests: usize,
    /// Candidate (view, update) checks those requests dispatched.
    pub fanout_candidates: usize,
    /// Views the index pruned without running the pipeline.
    pub fanout_pruned: usize,
    /// Requests the index could not classify (checked against every view).
    pub fanout_fallbacks: usize,
    /// Jobs a checker panic aborted (each answered with `ERR internal`).
    pub panics: usize,
}

impl PoolStats {
    fn record(&self, report: &FanoutReport) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(report.items.len(), Ordering::Relaxed);
        self.probe_hits.fetch_add(report.batch.probe_hits, Ordering::Relaxed);
        self.probe_misses.fetch_add(report.batch.probe_misses, Ordering::Relaxed);
        let f = &report.fanout;
        self.fanout_requests.fetch_add(f.fanout_requests, Ordering::Relaxed);
        self.fanout_candidates.fetch_add(f.candidates, Ordering::Relaxed);
        self.fanout_pruned.fetch_add(f.pruned, Ordering::Relaxed);
        self.fanout_fallbacks.fetch_add(f.fallbacks, Ordering::Relaxed);
    }

    fn snapshot(&self) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            jobs: self.jobs.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            probe_hits: self.probe_hits.load(Ordering::Relaxed),
            probe_misses: self.probe_misses.load(Ordering::Relaxed),
            fanout_requests: self.fanout_requests.load(Ordering::Relaxed),
            fanout_candidates: self.fanout_candidates.load(Ordering::Relaxed),
            fanout_pruned: self.fanout_pruned.load(Ordering::Relaxed),
            fanout_fallbacks: self.fanout_fallbacks.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

/// The worker-pool executor. Construct once, share behind an `Arc`, call
/// its check methods from any number of threads.
pub struct CheckPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    stats: Arc<PoolStats>,
}

impl CheckPool {
    /// Spawn `workers` (at least 1) threads, each owning a clone of `db`
    /// and an empty probe cache, all sharing `catalog`. The pool keeps `db`
    /// itself as the snapshot a worker is restored from after a checker
    /// panic.
    pub fn new(catalog: Arc<ShardedCatalog>, db: Db, workers: usize) -> CheckPool {
        let workers = workers.max(1);
        let stats = Arc::new(PoolStats::default());
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        // Clone every worker's database before any worker starts, so a
        // bound server is ready to serve; `Db` is `Send` but not `Sync`, so
        // workers share the snapshot behind a mutex that only a recovering
        // worker takes.
        let clones: Vec<Db> = (0..workers).map(|_| db.clone()).collect();
        let snapshot = Arc::new(Mutex::new(db));
        for db in clones {
            let (tx, rx) = channel::<Job>();
            let catalog = Arc::clone(&catalog);
            let stats = Arc::clone(&stats);
            let snapshot = Arc::clone(&snapshot);
            handles.push(std::thread::spawn(move || {
                worker_main(&catalog, db, &snapshot, &rx, &stats)
            }));
            senders.push(tx);
        }
        CheckPool { senders, handles, stats }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// The worker an item is routed to: `hash(view, update text)` for an
    /// item that names a view, `hash(update text)` for a catalog-wide one.
    pub fn route(&self, view: Option<&str>, text: &str) -> usize {
        let h = match view {
            Some(view) => affinity_hash(&[view, text]),
            None => affinity_hash(&[text]),
        };
        (h % self.senders.len() as u64) as usize
    }

    /// Counters aggregated across all workers.
    pub fn stats(&self) -> PoolStatsSnapshot {
        self.stats.snapshot()
    }

    /// Check a whole `(view, update text)` stream (the `BATCH` verb): fan
    /// the items out by affinity and reassemble per-item reports in input
    /// order. Per-item outcomes are byte-identical (in wire form) to a
    /// single-threaded [`ShardedCatalog::check_batch_text`] of the same
    /// stream — routing only decides which worker's cache absorbs which
    /// probes.
    pub fn check_stream(&self, items: &[(String, String)]) -> Result<BatchReport, WorkerPanic> {
        let span = obs::clock();
        let report = self.dispatch(
            items.iter().enumerate().map(|(i, (v, t))| (i, Some(v.as_str()), t.as_str())),
        );
        obs::verb_elapsed(Verb::Batch, span);
        let report = report?;
        Ok(BatchReport {
            items: report.items.into_iter().map(BatchItemReport::from).collect(),
            stats: report.batch,
        })
    }

    /// Check a single update against one view (the `CHECK` verb).
    pub fn check_one(&self, view: &str, text: &str) -> Result<Vec<CheckReport>, WorkerPanic> {
        let span = obs::clock();
        let report = self.dispatch([(0, Some(view), text)]);
        obs::verb_elapsed(Verb::Check, span);
        Ok(report?.items.pop().expect("a view-named item gets one report").reports)
    }

    /// Catalog-wide fan-out for one update (the `CHECKALL` verb): the
    /// worker routes it through the shards' relevance indexes and checks
    /// the surviving candidate views. Items come back in candidate-name
    /// order with outcomes byte-identical (in wire form) to a per-view
    /// `CHECK` of each candidate.
    pub fn check_all(&self, update_text: &str) -> Result<FanoutReport, WorkerPanic> {
        let span = obs::clock();
        let report = self.dispatch([(0, None, update_text)]);
        obs::verb_elapsed(Verb::CheckAll, span);
        report
    }

    /// [`check_all`](Self::check_all) over a stream of updates (the
    /// `BATCHALL` verb). Each update is parsed, routed and checked on the
    /// worker its text hashes to, so repeats of one text share that
    /// worker's parse and warm cache. Items are sorted by `(update index,
    /// view name)`.
    pub fn check_all_batch(&self, updates: &[String]) -> Result<FanoutReport, WorkerPanic> {
        let span = obs::clock();
        let report = self.dispatch(updates.iter().enumerate().map(|(i, t)| (i, None, t.as_str())));
        obs::verb_elapsed(Verb::BatchAll, span);
        report
    }

    /// The one dispatch path: partition items by [`route`](Self::route),
    /// send one job per busy worker, and merge the partial reports, sorted
    /// by `(index, view)`.
    fn dispatch<'a>(
        &self,
        items: impl IntoIterator<Item = (usize, Option<&'a str>, &'a str)>,
    ) -> Result<FanoutReport, WorkerPanic> {
        let mut per_worker: Vec<Vec<JobItem>> = vec![Vec::new(); self.senders.len()];
        for (index, view, text) in items {
            per_worker[self.route(view, text)].push((
                index,
                view.map(str::to_string),
                text.to_string(),
            ));
        }
        let (reply, inbox): (Sender<JobReply>, Receiver<JobReply>) = channel();
        let mut expected = 0;
        for (w, job_items) in per_worker.into_iter().enumerate() {
            if job_items.is_empty() {
                continue;
            }
            expected += 1;
            // Workers contain checker panics, so a worker thread outlives
            // every job sent to it.
            self.senders[w]
                .send(Job { items: job_items, reply: reply.clone(), enqueued: obs::clock() })
                .expect("worker thread alive while pool exists");
        }
        drop(reply);
        let mut report = FanoutReport {
            items: Vec::new(),
            fanout: FanoutStats::default(),
            batch: BatchStats::default(),
        };
        for _ in 0..expected {
            let part = inbox.recv().expect("worker replies before dropping job")?;
            report.items.extend(part.items);
            report.fanout.merge(&part.fanout);
            report.batch.merge(&part.batch);
        }
        report.items.sort_by(|a, b| (a.update, a.view.as_str()).cmp(&(b.update, b.view.as_str())));
        Ok(report)
    }
}

impl Drop for CheckPool {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops; join so no worker
        // outlives the pool (and any panic surfaces here).
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_main(
    catalog: &ShardedCatalog,
    mut db: Db,
    snapshot: &Mutex<Db>,
    rx: &Receiver<Job>,
    stats: &PoolStats,
) {
    // One cache for the worker's lifetime: probe results and TAB_ freshness
    // both refer to this worker's private db, so sharing the cache across
    // jobs (and across views routed here) is sound.
    let mut cache = ProbeCache::new();
    while let Ok(job) = rx.recv() {
        obs::queue_wait_elapsed(job.enqueued);
        let items: Vec<(usize, Option<&str>, &str)> =
            job.items.iter().map(|(i, v, t)| (*i, v.as_deref(), t.as_str())).collect();
        // Unwind safety: a panic can leave only `db` and `cache` half
        // updated, and both are replaced before the next job.
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            tests::inject_panic(&items, &mut db);
            catalog.check_items(&items, &mut db, &mut cache)
        }));
        let reply = match run {
            Ok(report) => {
                stats.record(&report);
                Ok(report)
            }
            Err(payload) => {
                db = snapshot.lock().expect("the snapshot is only ever cloned").clone();
                cache = ProbeCache::new();
                stats.panics.fetch_add(1, Ordering::Relaxed);
                Err(WorkerPanic { detail: panic_message(payload.as_ref()) })
            }
        };
        // A dropped receiver (caller gave up) is not a worker error.
        let _ = job.reply.send(reply);
    }
}

/// The message a panic was raised with.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => (*s).to_string(),
        (_, Some(s)) => s.clone(),
        _ => "checker panicked".to_string(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ufilter_core::bookdemo;
    use ufilter_core::wire::encode_outcome;

    /// An update text that makes the worker checking it panic mid-job,
    /// after leaving its database half changed: a transaction open and
    /// every table dropped.
    pub(crate) const INJECT_PANIC: &str = "(: inject a worker panic :)";

    /// The worker's test-only panic hook (see [`INJECT_PANIC`]).
    pub(super) fn inject_panic(items: &[(usize, Option<&str>, &str)], db: &mut Db) {
        if items.iter().any(|(_, _, text)| *text == INJECT_PANIC) {
            db.begin().expect("no transaction open between jobs");
            for table in db.schema().tables.clone() {
                db.drop_table(&table.name).expect("table exists");
            }
            panic!("injected worker panic");
        }
    }

    fn book_pool(workers: usize) -> (CheckPool, Arc<ShardedCatalog>) {
        let catalog = Arc::new(ShardedCatalog::new(bookdemo::book_schema(), 4));
        catalog.add("books", bookdemo::BOOK_VIEW).unwrap();
        let db = bookdemo::book_db();
        (CheckPool::new(Arc::clone(&catalog), db, workers), catalog)
    }

    fn wire_lines(report: &BatchReport) -> Vec<String> {
        report
            .items
            .iter()
            .flat_map(|i| i.reports.iter().map(|r| encode_outcome(&r.outcome)))
            .collect()
    }

    #[test]
    fn pool_outcomes_match_single_threaded_batch() {
        let stream: Vec<(String, String)> =
            [bookdemo::U8, bookdemo::U10, bookdemo::U13, bookdemo::U8, bookdemo::U5]
                .iter()
                .map(|u| ("books".to_string(), u.to_string()))
                .collect();
        for workers in [1, 2, 4] {
            let (pool, catalog) = book_pool(workers);
            let mut db = bookdemo::book_db();
            let serial = catalog.check_batch_text(&stream, &mut db);
            let pooled = pool.check_stream(&stream).unwrap();
            assert_eq!(wire_lines(&serial), wire_lines(&pooled), "workers={workers}");
            // Input order survives the fan-out.
            let indices: Vec<usize> = pooled.items.iter().map(|i| i.index).collect();
            assert_eq!(indices, (0..stream.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn affinity_routing_is_deterministic() {
        let (pool, _catalog) = book_pool(4);
        let a = pool.route(Some("books"), bookdemo::U8);
        assert_eq!(a, pool.route(Some("books"), bookdemo::U8));
        assert_eq!(
            pool.route(None, bookdemo::U8) as u64,
            affinity_hash(&[bookdemo::U8]) % 4,
            "a catalog-wide update routes by its text alone"
        );
        // Stats accumulate across calls.
        pool.check_one("books", bookdemo::U8).unwrap();
        pool.check_one("books", bookdemo::U8).unwrap();
        let s = pool.stats();
        assert_eq!(s.items, 2);
        assert!(s.probe_hits >= 1, "second identical check hits the warm cache: {s:?}");
    }

    #[test]
    fn check_all_routes_to_candidates_and_matches_per_view_checks() {
        let catalog = Arc::new(ShardedCatalog::new(bookdemo::book_schema(), 4));
        catalog.add("z_books", bookdemo::BOOK_VIEW).unwrap();
        catalog.add("a_books", bookdemo::BOOK_VIEW).unwrap();
        let db = bookdemo::book_db();
        let pool = CheckPool::new(Arc::clone(&catalog), db, 2);
        let report = pool.check_all(bookdemo::U8).unwrap();
        // Both registrations are candidates, in name order.
        let views: Vec<&str> = report.items.iter().map(|i| i.view.as_str()).collect();
        assert_eq!(views, ["a_books", "z_books"]);
        for item in &report.items {
            let direct = pool.check_one(&item.view, bookdemo::U8).unwrap();
            assert_eq!(
                item.reports.iter().map(|r| encode_outcome(&r.outcome)).collect::<Vec<_>>(),
                direct.iter().map(|r| encode_outcome(&r.outcome)).collect::<Vec<_>>(),
                "{}: fan-out diverged from a direct CHECK",
                item.view
            );
        }
        let s = pool.stats();
        assert_eq!(s.fanout_requests, 1);
        assert_eq!(s.fanout_candidates, 2);
        assert_eq!(s.fanout_fallbacks, 0);
    }

    #[test]
    fn unparsable_checkall_falls_back_to_every_view() {
        let (pool, _catalog) = book_pool(2);
        let report = pool.check_all("this is not an update").unwrap();
        assert_eq!(report.items.len(), 1, "one registered view, one malformed report");
        assert_eq!(report.fanout.fallbacks, 1);
        assert!(
            encode_outcome(&report.items[0].reports[0].outcome).starts_with("invalid malformed"),
            "{:?}",
            report.items[0].reports[0].outcome
        );
    }

    #[test]
    fn warm_cache_survives_across_requests() {
        let (pool, _catalog) = book_pool(2);
        let first = pool.check_one("books", bookdemo::U8).unwrap();
        let hits_after_first = pool.stats().probe_hits;
        let second = pool.check_one("books", bookdemo::U8).unwrap();
        assert_eq!(
            first.iter().map(|r| encode_outcome(&r.outcome)).collect::<Vec<_>>(),
            second.iter().map(|r| encode_outcome(&r.outcome)).collect::<Vec<_>>(),
        );
        assert!(pool.stats().probe_hits > hits_after_first, "repeat probe served from cache");
    }

    #[test]
    fn a_checker_panic_fails_its_job_and_the_worker_recovers() {
        for (verb, update) in [("CHECK", Some("books")), ("BATCHALL", None)] {
            let (pool, _catalog) = book_pool(1);
            let failed = match update {
                Some(view) => pool.check_one(view, INJECT_PANIC).map(|_| ()),
                None => pool.check_all_batch(&[INJECT_PANIC.to_string()]).map(|_| ()),
            };
            assert_eq!(
                failed,
                Err(WorkerPanic { detail: "injected worker panic".into() }),
                "{verb}"
            );
            // The one worker serves on, over a database restored from the
            // snapshot (the injected panic dropped every table).
            let after = pool.check_one("books", bookdemo::U8).unwrap();
            assert!(after[0].outcome.is_translatable(), "{verb}: {:?}", after[0].outcome);
            assert_eq!(pool.stats().panics, 1, "{verb}");
        }
    }
}
