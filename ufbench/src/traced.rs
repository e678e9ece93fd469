//! The traced run (`--trace 1`): the workload's inputs sent to a real
//! server one at a time and, for each request, through the replica in
//! process with spans around every layer call. Served and replica outcomes
//! must agree on every request; the per-layer self times plus the residual
//! add up to the client-observed latency. Waits that exist only inside the
//! server (pool queue, shard locks, persist append and fsync, probe SQL)
//! come from its `METRICS` histograms.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use ufilter_asg::{build_view_asg, BaseAsg, ReadSets};
use ufilter_core::catalog::ViewCatalog;
use ufilter_core::persist::{encode_artifact, CatalogStore, LogRecord};
use ufilter_core::wire::{encode_outcome, escape};
use ufilter_core::{star, UFilter};
use ufilter_rdb::Db;
use ufilter_service::proto::{parse_batchall_item, parse_request, Request};
use ufilter_service::ShardedCatalog;
use ufilter_xquery::{parse_update, parse_view_query};

use crate::answers::Answers;
use crate::inputs::{self, ChurnAdd};
use crate::run::{self, canonical};
use crate::server::Server;
use crate::stats::mean;
use crate::trace::{self, Counts, ReplicaCache, Tracer, CONFIG};
use crate::{Report, Work};

/// CHECK requests traced per run.
const TRACED_CHECKS: usize = 2000;
/// BATCHALL requests traced per run.
const TRACED_BATCHES: usize = 40;
/// Churn adds compiled with spans and sent over the wire per run.
const TRACED_ADDS: usize = 30;
/// One in this many fan-out catalog views is compiled with spans.
const FANOUT_COMPILE_SAMPLE: usize = 40;

/// The per-layer metrics of the JSON result (`per_layer` in
/// `BENCHMARK.json`): those measured, and not constant, on every workload.
const PER_LAYER: &[&str] = &[
    "client_us",
    "proto.parse_us",
    "pool.queue_wait_p50_us",
    "pool.queue_wait_p99_us",
    "catalog.lock_hold_read_us",
    "catalog.lock_hold_write_us",
    "catalog.add_ms",
    "xquery.update_parse_us",
    "xquery.view_parse_ms",
    "route.route_us",
    "route.candidates_per_update",
    "route.pruning_ratio",
    "route.trie_mib",
    "validate.resolve_us",
    "validate.validate_us",
    "star.non_injective_us",
    "star.check_us",
    "star.mark_ms",
    "translate.plan_us",
    "datacheck.us",
    "datacheck.probes_per_update",
    "datacheck.probe_hit_ratio",
    "rdb.probe_sql_us",
    "wire.encode_us",
    "wire.reply_bytes",
    "asg.build_ms",
    "asg.nodes",
    "persist.append_us",
    "persist.fsync_us",
    "persist.replay_ms",
    "persist.hydrate_us",
    "residual_us",
    "trace.overhead_frac",
];

/// Known-answer mismatches, replica disagreements, and the churn side's
/// add latencies (ms, depth) and failed acks.
type Traced = (usize, usize, Vec<(f64, usize)>, usize);

/// One traced request: its wire text and what the replica needs.
enum Req {
    Check { line: String },
    Batch { text: String },
}

struct Replica<'a> {
    catalog: &'a ViewCatalog,
    router: &'a ShardedCatalog,
    db: Db,
    cache: ReplicaCache,
    counts: Counts,
    routes: RouteCounts,
    reply_bytes: usize,
    groups: usize,
    parses: usize,
    parse_hits: usize,
}

#[derive(Default)]
struct RouteCounts {
    updates: usize,
    candidates: usize,
    pruned: usize,
    views: usize,
    fallbacks: usize,
}

impl<'a> Replica<'a> {
    fn new(catalog: &'a ViewCatalog, router: &'a ShardedCatalog, db: &Db) -> Replica<'a> {
        Replica {
            catalog,
            router,
            db: db.clone(),
            cache: ReplicaCache::default(),
            counts: Counts::default(),
            routes: RouteCounts::default(),
            reply_bytes: 0,
            groups: 0,
            parses: 0,
            parse_hits: 0,
        }
    }

    fn filter(&self, t: &mut Tracer, view: &str) -> Result<&'a UFilter, String> {
        t.span("persist.hydrate", || self.catalog.get(view))
            .ok_or_else(|| format!("no view {view} in the replica catalog"))
    }

    fn route(&mut self, t: &mut Tracer, u: &ufilter_xquery::UpdateStmt) -> Vec<String> {
        let route = t.span("route.route", || self.router.route_update(u));
        self.routes.updates += 1;
        self.routes.candidates += route.candidates.len();
        self.routes.pruned += route.pruned();
        self.routes.views += route.views;
        self.routes.fallbacks += usize::from(route.fallback);
        route.candidates
    }

    /// The reply the server should send for `req`, built through the
    /// layers inside a root span.
    fn serve(&mut self, t: &mut Tracer, req: &Req) -> Result<String, String> {
        let root = t.begin("request");
        let out = match req {
            Req::Check { line } => self.check(t, line),
            Req::Batch { text } => self.batch(t, text),
        };
        t.end(root);
        let reply = out?;
        self.reply_bytes += reply.len() + 1;
        Ok(reply)
    }

    fn check(&mut self, t: &mut Tracer, line: &str) -> Result<String, String> {
        let Request::Check { view, update } = t.span("proto.parse", || parse_request(line))? else {
            return Err(format!("not a CHECK: {line}"));
        };
        let u =
            t.span("xquery.update_parse", || parse_update(&update)).map_err(|e| e.to_string())?;
        self.parses += 1;
        self.groups += 1;
        let filter = self.filter(t, &view)?;
        let outcomes = trace::check(t, &mut self.counts, filter, &u, &mut self.db, &mut self.cache);
        Ok(t.span("wire.encode", || {
            let wire: Vec<String> = outcomes.iter().map(encode_outcome).collect();
            format!("OK {}", wire.join("\t"))
        }))
    }

    fn batch(&mut self, t: &mut Tracer, text: &str) -> Result<String, String> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        let updates = t.span("proto.parse", || -> Result<Vec<String>, String> {
            let Request::BatchAll { count } = parse_request(header)? else {
                return Err(format!("not a BATCHALL: {header}"));
            };
            lines.take(count).map(parse_batchall_item).collect()
        })?;
        let mut seen: HashMap<&str, ()> = HashMap::new();
        let mut items: Vec<(usize, String, Vec<String>)> = Vec::new();
        let mut groups: HashMap<(String, usize), ()> = HashMap::new();
        for (i, text) in updates.iter().enumerate() {
            self.parses += 1;
            if seen.insert(text, ()).is_some() {
                self.parse_hits += 1;
            }
            let u =
                t.span("xquery.update_parse", || parse_update(text)).map_err(|e| e.to_string())?;
            let mut candidates = self.route(t, &u);
            candidates.sort();
            for view in candidates {
                let filter = self.filter(t, &view)?;
                if let Ok(actions) = ufilter_core::target::resolve(&filter.asg, &u) {
                    let node = actions.first().map(|a| a.node.0).unwrap_or(0);
                    groups.insert((view.clone(), node), ());
                }
                let outcomes =
                    trace::check(t, &mut self.counts, filter, &u, &mut self.db, &mut self.cache);
                items.push((i, view, outcomes.iter().map(encode_outcome).collect()));
            }
        }
        self.groups += groups.len();
        Ok(t.span("wire.encode", || {
            let mut out = format!("OK {}", updates.len());
            for (i, view, wire) in &items {
                for w in wire {
                    out.push_str(&format!("\nITEM {i} {view} {w}"));
                }
            }
            out
        }))
    }
}

/// Parsed `METRICS` exposition: series name (with labels) → value.
fn scrape(server: &Server) -> Result<HashMap<String, f64>, String> {
    let lines = server.connect()?.request_block("METRICS\n", false)?;
    Ok(lines
        .iter()
        .skip(1)
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            l.rsplit_once(' ').and_then(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        })
        .collect())
}

/// Mean of a summary series over the traced run, in µs.
fn mean_us(m: &HashMap<String, f64>, family: &str, labels: &str) -> f64 {
    let sum = m.get(&format!("{family}_sum{labels}")).copied().unwrap_or(0.0);
    let count = m.get(&format!("{family}_count{labels}")).copied().unwrap_or(0.0);
    if count == 0.0 {
        0.0
    } else {
        sum / count * 1e6
    }
}

fn compile_traced(
    t: &mut Tracer,
    views: &[(String, String, usize)],
    db: &Db,
    store: &mut CatalogStore,
    mark_by_depth: &mut BTreeMap<usize, Vec<f64>>,
) -> Result<usize, String> {
    let schema = db.schema();
    let mut nodes = 0;
    for (name, text, depth) in views {
        let q =
            t.span("xquery.view_parse", || parse_view_query(text)).map_err(|e| e.to_string())?;
        let built = t.span("asg.build", || -> Result<_, String> {
            let asg = build_view_asg(&q, schema).map_err(|e| e.to_string())?;
            let leaves: Vec<_> =
                asg.iter().filter_map(|n| n.leaf.as_ref().map(|l| l.name.clone())).collect();
            let base = BaseAsg::build(schema, &asg.relations, &leaves);
            Ok((asg, base))
        });
        let (mut asg, base) = built?;
        let started = Instant::now();
        t.span("star.mark", || star::mark(&mut asg, &base, schema));
        mark_by_depth.entry(*depth).or_default().push(started.elapsed().as_secs_f64() * 1e3);
        t.span("asg.build", || ReadSets::extract(&asg));
        nodes += asg.len();
        // The artifact comes from the ordinary compile; the traced calls
        // above time the same steps.
        let f = UFilter::compile(text, schema).map_err(|e| e.to_string())?.with_config(CONFIG);
        let record = LogRecord::Add {
            name: name.clone(),
            view_text: canonical(text),
            deps: f.asg.relations.clone(),
            cached: false,
            artifact: encode_artifact(&f, &ufilter_route::ViewSignature::of(&f.asg)),
        };
        t.span("persist.append", || store.append(&record)).map_err(|e| e.to_string())?;
    }
    Ok(nodes)
}

/// Write every span (request id, name, start and end in ns, parent index)
/// to `.bench_build/ufbench-traces/<workload>-<seed>.tsv` in the checkout.
fn write_spans(t: &Tracer, workload: &str, seed: u64) -> Result<(), String> {
    use std::fmt::Write as _;
    let dir = std::path::Path::new(".bench_build").join("ufbench-traces");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut out = String::from("id\trequest\tname\tstart_ns\tend_ns\tparent\n");
    for (i, s) in t.spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ =
            writeln!(out, "{i}\t{}\t{}\t{}\t{}\t{parent}", s.request, s.name, s.start_ns, s.end_ns);
    }
    let path = dir.join(format!("{workload}-{seed}.tsv"));
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// The traced run of `workload`.
pub fn run(
    work: &Work,
    workload: &str,
    seed: u64,
    _secs: f64,
    r: &mut Report,
) -> Result<(), String> {
    let fanout = workload == "fanout-batch";
    let scale = if fanout { inputs::FANOUT_SCALE } else { inputs::CHECK_SCALE };
    let db = inputs::database(scale, seed);
    let sql = work.write("tpch.sql", &inputs::render_sql(&db))?;
    let views = if fanout { inputs::fanout_views() } else { inputs::check_views() };
    let mut answers = Answers::new(db.clone(), &views);
    let adds: Vec<ChurnAdd> = inputs::churn_adds(seed, TRACED_ADDS);
    let template = work.dir.join("catalog-template");
    let (server, reqs, expect): (Server, Vec<Req>, Vec<Vec<String>>) = if fanout {
        run::build_fanout_store(&template, &views, &db)?;
        let server =
            Server::spawn(&work.server_bin, &sql, None, Some(&work.data_dir(0, Some(&template))?))?;
        let batches = inputs::fanout_batches(seed, TRACED_BATCHES);
        let reqs =
            batches.iter().map(|b| Req::Batch { text: crate::load::batchall_request(b) }).collect();
        (server, reqs, batches)
    } else {
        let manifest = work.manifest(&views)?;
        let server =
            Server::spawn(&work.server_bin, &sql, Some(&manifest), Some(&work.data_dir(0, None)?))?;
        let items = inputs::check_stream(seed, TRACED_CHECKS);
        let reqs = items
            .iter()
            .map(|(v, u)| Req::Check { line: format!("CHECK {v} {}", escape(u)) })
            .collect();
        (server, reqs, items.into_iter().map(|(v, u)| vec![v, u]).collect())
    };

    // Compile-side layers: the workload's views (a sample of the fan-out
    // catalog) and the churn adds, each step in its own span.
    let mut t = Tracer::new(true);
    let mut mark_by_depth = BTreeMap::new();
    let catalog_views: Vec<(String, String, usize)> = views
        .iter()
        .step_by(if fanout { FANOUT_COMPILE_SAMPLE } else { 1 })
        .map(|(n, v)| (n.clone(), v.clone(), 0))
        .collect();
    let compiled = catalog_views.len() + adds.len();
    let mut store = CatalogStore::open(work.dir.join("trace-store")).map_err(|e| e.to_string())?;
    let mut nodes = compile_traced(&mut t, &catalog_views, &db, &mut store, &mut mark_by_depth)?;
    let mut churn_store =
        CatalogStore::open(work.dir.join("trace-churn")).map_err(|e| e.to_string())?;
    nodes += compile_traced(&mut t, &adds, &db, &mut churn_store, &mut mark_by_depth)?;
    drop((store, churn_store));
    // Warm restart, timed on the server's own structure (a sharded catalog
    // with the server's shard count), which the replica routes through; a
    // plain catalog restored from the same records lends it the filters.
    let replay_dir = if fanout { template.clone() } else { work.dir.join("trace-store") };
    let store = CatalogStore::open(&replay_dir).map_err(|e| e.to_string())?;
    let router =
        ShardedCatalog::with_config(db.schema().clone(), CONFIG, 2 * crate::server::WORKERS);
    let replayed = t.span("persist.replay", || {
        let store = CatalogStore::open(&replay_dir)?;
        Ok::<_, ufilter_core::PersistError>(router.replay(&mut db.clone(), store.records()))
    });
    replayed.map_err(|e| e.to_string())?.map_err(|e| e.to_string())?;
    let mut catalog = ViewCatalog::new(db.schema().clone()).with_config(CONFIG);
    catalog.replay(&mut db.clone(), store.records()).map_err(|e| e.to_string())?;
    drop(store);
    let trie_mib = router.index_stats().bytes as f64 / (1024.0 * 1024.0);

    // Untraced replica pass (also hydrates every view it touches).
    let mut quiet = Tracer::new(false);
    let mut warm = Replica::new(&catalog, &router, &db);
    for req in &reqs {
        warm.serve(&mut quiet, req)?;
    }

    // Traced pass: each request served over the wire, then replayed.
    let mut conn = server.connect()?;
    let mut replica = Replica::new(&catalog, &router, &db);
    let mut client_us = Vec::with_capacity(reqs.len());
    let metrics_before = scrape(&server)?;
    let layer_start = t.spans.len();
    // On `churn`, durable add/drop pairs run beside the traced requests, as
    // in the measured run; elsewhere they follow them on an idle server.
    let churn = workload == "churn";
    let churn_conn = if churn { Some(server.connect()?) } else { None };
    let done = std::sync::atomic::AtomicBool::new(false);
    let side = crate::load::Churn { adds: &adds, rate: crate::run::CHURN_RATE };
    let traced = std::thread::scope(|s| -> Result<Traced, String> {
        let handle = churn_conn.map(|conn| {
            let (side, done) = (&side, &done);
            s.spawn(move || crate::load::churn_side(conn, side, Instant::now(), done))
        });
        let result = (|| -> Result<(usize, usize), String> {
            let (mut mismatches, mut infidel) = (0, 0);
            for (i, (req, exp)) in reqs.iter().zip(&expect).enumerate() {
                let sent = Instant::now();
                let served = match req {
                    Req::Check { line } => conn.request(line)?,
                    Req::Batch { text } => conn.request_block(text, true)?.join("\n"),
                };
                client_us.push(sent.elapsed().as_secs_f64() * 1e6);
                t.set_request(i as u64 + 1);
                let replica_reply = replica.serve(&mut t, req)?;
                if !fanout {
                    // CHECK does not route; time routing of the same update over
                    // the same catalog outside the request's span tree.
                    if let Ok(u) = parse_update(&exp[1]) {
                        replica.route(&mut t, &u);
                    }
                }
                let (served_items, wrong) = match req {
                    Req::Check { .. } => {
                        let want = format!("OK {}", answers.expected(&exp[0], &exp[1])?);
                        (served.clone(), usize::from(served != want))
                    }
                    Req::Batch { .. } => {
                        let lines: Vec<String> = served.lines().map(str::to_string).collect();
                        let wrong = run::verify_batch(&mut answers, exp, &lines)?;
                        let items: Vec<&str> = lines
                            .iter()
                            .filter(|l| !l.starts_with("END "))
                            .map(String::as_str)
                            .collect();
                        (items.join("\n"), wrong)
                    }
                };
                mismatches += wrong;
                if served_items != replica_reply {
                    if infidel < 3 {
                        eprintln!("replica disagrees with the server:\n  served  {served_items}\n  replica {replica_reply}");
                    }
                    infidel += 1;
                }
            }
            Ok((mismatches, infidel))
        })();
        done.store(true, std::sync::atomic::Ordering::Release);
        let (adds_ms, failures) = match handle {
            Some(h) => h.join().map_err(|_| "churn thread panicked".to_string())??,
            None => (Vec::new(), 0),
        };
        let (mismatches, infidel) = result?;
        Ok((mismatches, infidel, adds_ms, failures))
    });
    let (mismatches, infidel, churned, churn_failures) = traced?;
    drop(conn);

    // Span overhead: the replica alone, traced then untraced, back to back.
    let mut overhead_t = Tracer::new(true);
    let mut traced_only = Replica::new(&catalog, &router, &db);
    for req in &reqs {
        traced_only.serve(&mut overhead_t, req)?;
    }
    let traced_only_ns: f64 = overhead_t.root_durations("request").iter().map(|d| *d as f64).sum();
    let mut untraced = Replica::new(&catalog, &router, &db);
    let started = Instant::now();
    for req in &reqs {
        untraced.serve(&mut quiet, req)?;
    }
    let untraced_ns = started.elapsed().as_nanos() as f64;

    // The write path over the wire: shard write lock, persist, compile.
    let (ms, add_failures) = if churn {
        (churned, churn_failures)
    } else {
        crate::load::sequential_adds(&server, &adds)?
    };
    let add_ms: Vec<f64> = ms.iter().map(|a| a.0).collect();
    let metrics = scrape(&server)?;
    let rss = server.peak_rss_mib()?;
    server.shutdown()?;

    write_spans(&t, workload, seed)?;

    // ---- fold -------------------------------------------------------------
    let n = reqs.len() as f64;
    let mut request_spans = Tracer::new(true);
    request_spans.spans = t.spans[layer_start..]
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.parent = s.parent.map(|p| p - layer_start);
            s
        })
        .collect();
    let layer = request_spans.self_times();
    let all = t.self_times();
    let per_req_us =
        |name: &str| layer.get(name).map(|(ns, _)| *ns as f64 / 1e3 / n).unwrap_or(0.0);
    let per_call_ms = |name: &str, calls: usize| {
        all.get(name).map(|(ns, _)| *ns as f64 / 1e6 / calls.max(1) as f64).unwrap_or(0.0)
    };
    let roots = request_spans.root_durations("request");
    let traced_ns: f64 = roots.iter().map(|d| *d as f64).sum();
    let client_mean = mean(&client_us);
    let residual = client_mean - traced_ns / 1e3 / n;
    let c = &replica.counts;
    let rt = &replica.routes;
    let diff = |family: &str, labels: &str| -> f64 {
        let key = |s: &str| format!("{family}_{s}{labels}");
        let d = |s: &str| {
            metrics.get(&key(s)).copied().unwrap_or(0.0)
                - metrics_before.get(&key(s)).copied().unwrap_or(0.0)
        };
        let (sum, count) = (d("sum"), d("count"));
        if count == 0.0 {
            0.0
        } else {
            sum / count * 1e6
        }
    };
    let q_us = |series: &str| metrics.get(series).copied().unwrap_or(0.0) * 1e6;
    let lock = "ufilter_shard_lock_hold_seconds";
    let frac = |a: usize, b: usize| a as f64 / b.max(1) as f64;

    r.count(reqs.len(), mismatches + infidel);
    r.count(add_ms.len(), add_failures);
    r.line(format!(
        "traced {} requests; replica == served on {} of them; known-answer mismatches {mismatches}",
        reqs.len(),
        reqs.len() - infidel
    ));
    r.line(format!(
        "client-observed latency mean {client_mean:.2} us; server peak RSS {rss:.1} MiB"
    ));
    r.line("per-layer self time per request (us), layer sum + residual = client latency:".into());
    let mut sum = 0.0;
    for (name, (ns, calls)) in &layer {
        if *name == "route.route" && !fanout {
            continue;
        }
        let us = *ns as f64 / 1e3 / n;
        sum += us;
        r.line(format!("  {name:<24} {us:>10.3}   ({calls} spans)"));
    }
    r.line(format!("  {:<24} {residual:>10.3}", "residual"));
    r.line(format!("  {:<24} {:>10.3}   (client {client_mean:.3})", "sum", sum + residual));
    let marks: Vec<String> =
        mark_by_depth.iter().map(|(d, v)| format!("d{d}={:.3}ms", mean(v))).collect();
    r.line(format!("star::mark by nesting depth (0 = catalog views): {}", marks.join(" ")));
    r.line(format!(
        "server METRICS over the traced requests: queue_wait mean {:.2} us, probe_sql mean {:.2} us, \
         lock read mean {:.2} us",
        diff("ufilter_queue_wait_seconds", ""),
        diff("ufilter_check_stage_duration_seconds", "{stage=\"probe_sql\"}"),
        diff(lock, "{kind=\"read\"}"),
    ));
    let stage_total_ms = |stage: &str| -> f64 {
        let key =
            |k: &str| format!("ufilter_check_stage_duration_seconds_{k}{{stage=\"{stage}\"}}");
        let d = |k: &str| {
            metrics.get(&key(k)).copied().unwrap_or(0.0)
                - metrics_before.get(&key(k)).copied().unwrap_or(0.0)
        };
        d("sum") * 1e3 / n
    };
    let stages: Vec<String> = [
        "parse",
        "route",
        "validate",
        "non_injective",
        "independence",
        "star",
        "translate",
        "probe_sql",
    ]
    .iter()
    .map(|st| format!("{st}={:.3}", stage_total_ms(st)))
    .collect();
    r.line(format!("server stage time per request (ms): {}", stages.join(" ")));
    r.line(format!(
        "batch: parse_hit_ratio={:.4} groups_per_request={:.3}; independence: classified={} independent={}",
        frac(replica.parse_hits, replica.parses),
        replica.groups as f64 / n,
        c.non_injective,
        c.independent
    ));

    // Metrics outside PER_LAYER are zero or constant on some workload; they
    // are printed for the table but left out of the JSON result.
    let m = |r: &mut Report, name: &str, v: f64, unit: &str| {
        if PER_LAYER.contains(&name) {
            r.metric(name, v, unit, "per-layer");
        } else {
            r.line(format!("layer {name} = {v} {unit}"));
        }
    };
    m(r, "client_us", client_mean, "us");
    m(r, "proto.parse_us", per_req_us("proto.parse"), "us");
    m(r, "pool.queue_wait_p50_us", q_us("ufilter_queue_wait_seconds{quantile=\"0.5\"}"), "us");
    m(r, "pool.queue_wait_p99_us", q_us("ufilter_queue_wait_seconds{quantile=\"0.99\"}"), "us");
    m(r, "catalog.lock_hold_read_us", mean_us(&metrics, lock, "{kind=\"read\"}"), "us");
    m(r, "catalog.lock_hold_write_us", mean_us(&metrics, lock, "{kind=\"write\"}"), "us");
    m(r, "catalog.add_ms", mean(&add_ms), "ms");
    m(r, "xquery.update_parse_us", per_req_us("xquery.update_parse"), "us");
    m(r, "xquery.view_parse_ms", per_call_ms("xquery.view_parse", compiled), "ms");
    m(r, "batch.parse_hit_ratio", frac(replica.parse_hits, replica.parses), "ratio");
    m(r, "batch.groups_per_request", replica.groups as f64 / n, "count");
    m(
        r,
        "route.route_us",
        all.get("route.route").map(|(ns, _)| *ns as f64 / 1e3 / n).unwrap_or(0.0),
        "us",
    );
    m(r, "route.candidates_per_update", frac(rt.candidates, rt.updates), "count");
    m(r, "route.pruning_ratio", frac(rt.pruned, rt.views), "ratio");
    m(r, "route.fallback_frac", frac(rt.fallbacks, rt.updates), "ratio");
    m(r, "route.trie_mib", trie_mib, "MiB");
    m(r, "validate.resolve_us", per_req_us("validate.resolve"), "us");
    m(r, "validate.validate_us", per_req_us("validate.validate"), "us");
    m(r, "validate.invalid_frac", frac(c.invalid, c.actions.max(1)), "ratio");
    m(r, "star.non_injective_us", per_req_us("star.non_injective"), "us");
    m(r, "star.check_us", per_req_us("star.check"), "us");
    m(r, "star.reject_frac", frac(c.star_rejects, c.actions), "ratio");
    m(r, "star.mark_ms", per_call_ms("star.mark", compiled), "ms");
    m(r, "independence.classify_us", per_req_us("independence.classify"), "us");
    m(r, "independence.independent_frac", frac(c.independent, c.non_injective), "ratio");
    m(r, "translate.plan_us", per_req_us("translate.plan"), "us");
    m(r, "datacheck.us", per_req_us("datacheck.context") + per_req_us("datacheck.run"), "us");
    m(r, "datacheck.probes_per_update", frac(c.probes, rt.updates.max(reqs.len())), "count");
    m(r, "datacheck.probe_hit_ratio", frac(c.probe_hits, c.probes), "ratio");
    m(r, "rdb.probe_sql_us", per_req_us("rdb.probe_sql"), "us");
    m(r, "wire.encode_us", per_req_us("wire.encode"), "us");
    m(r, "wire.reply_bytes", replica.reply_bytes as f64 / n, "bytes");
    m(r, "asg.build_ms", per_call_ms("asg.build", compiled), "ms");
    m(r, "asg.nodes", nodes as f64 / compiled as f64, "count");
    m(r, "persist.append_us", mean_us(&metrics, "ufilter_persist_append_seconds", ""), "us");
    m(r, "persist.fsync_us", mean_us(&metrics, "ufilter_persist_fsync_seconds", ""), "us");
    m(r, "persist.replay_ms", per_call_ms("persist.replay", 1), "ms");
    m(r, "persist.hydrate_us", per_req_us("persist.hydrate"), "us");
    m(r, "residual_us", residual, "us");
    m(r, "trace.overhead_frac", traced_only_ns / untraced_ns - 1.0, "ratio");
    Ok(())
}
