//! The three workloads, measured over the wire with tracing off.

use std::path::{Path, PathBuf};

use ufilter_core::wire::escape;
use ufilter_route::wire_outcome_is_irrelevant;

use crate::answers::Answers;
use crate::inputs;
use crate::load::{self, Churn, OpenLoop};
use crate::server::Server;
use crate::stats::{mean, quantile};
use crate::{Report, Work};

/// Offered CHECK rate of `check-open` and `churn`: about a tenth of the
/// single-connection saturation rate (5-9k/s on 2 vCPUs). Nearer half of
/// it, a host slowdown pushed the lane close to saturation and the CHECK p50
/// of one run out to 14 ms; here it stays the check path's latency.
pub const CHECK_RATE: f64 = 500.0;
/// Durable add/drop pairs started per second on `churn`'s second connection.
pub const CHURN_RATE: f64 = 10.0;
/// Share of `--seconds` spent at the fixed rate; the rest of the CHECK
/// time goes to the saturation phase.
pub const FIXED: f64 = 0.65;
pub const SATURATE: f64 = 0.25;
/// Rounds the fixed-rate and saturation phases alternate over.
pub const ROUNDS: u64 = 8;
/// Sequential add/drop pairs timed on an idle server.
pub const IDLE_ADDS: usize = 100;
/// Server spawns per run; `setup_s` is their median.
pub const SPAWNS: usize = 7;

/// A CHECK request line and the (view, update) it carries.
fn check_lines(items: &[(String, String)]) -> Vec<String> {
    items.iter().map(|(v, u)| format!("CHECK {v} {}", escape(u))).collect()
}

/// Compare every reply of an open-loop phase with its known answer; print
/// the first mismatches. Returns the mismatch count.
fn verify_checks(
    answers: &mut Answers,
    items: &[(String, String)],
    run: &OpenLoop,
) -> Result<usize, String> {
    let mut bad = 0;
    for (k, reply) in run.replies.iter().enumerate() {
        let (view, update) = &items[k];
        let want = format!("OK {}", answers.expected(view, update)?);
        if *reply != want {
            if bad < 3 {
                eprintln!(
                    "mismatch: CHECK {view} {update:?}\n  served   {reply}\n  expected {want}"
                );
            }
            bad += 1;
        }
    }
    Ok(bad)
}

/// The workload record: what was run, and the measured input properties
/// a later gain may depend on.
fn record(
    r: &mut Report,
    seed: u64,
    views: usize,
    db: &ufilter_rdb::Db,
    pairs: &[(String, String)],
    stats: &std::collections::HashMap<String, u64>,
    candidates_per_update: f64,
) {
    let rows: usize = db.schema().tables.iter().map(|t| db.row_count(&t.name)).sum();
    let distinct: std::collections::HashSet<&(String, String)> = pairs.iter().collect();
    let hits = stats.get("probe_hits").copied().unwrap_or(0) as f64;
    let misses = stats.get("probe_misses").copied().unwrap_or(0) as f64;
    let depths: Vec<String> = [0, 50, 100, 200, 300]
        .iter()
        .map(|d| format!("d{d}={}", inputs::CHURN_CYCLE.iter().filter(|x| *x == d).count() * 10))
        .collect();
    r.line(format!(
        "record: seed={seed} views={views} db_rows={rows} workers={} nproc={} flush=fsync-before-ack \
         repeated_pairs={:.4} probe_hit_ratio={:.4} candidates_per_update={candidates_per_update:.3} \
         add_depth_mix_pct=[{}]",
        crate::server::WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        1.0 - distinct.len() as f64 / pairs.len().max(1) as f64,
        hits / (hits + misses).max(1.0),
        depths.join(" ")
    ));
}

fn add_quantiles(adds: &[(f64, usize)]) -> (f64, f64) {
    let ms: Vec<f64> = adds.iter().map(|a| a.0).collect();
    (quantile(&ms, 0.5), quantile(&ms, 0.9))
}

fn print_phase(r: &mut Report, label: &str, run: &OpenLoop) {
    r.line(format!(
        "{label}: rate={:.0}/s sent={} p50_us={:.1} p99_us={:.1} (samples={}, beyond p99={}) \
         lag_p50_us={:.1} lag_max_us={:.1} backlog_growing={}",
        run.rate,
        run.sent,
        quantile(&run.lat_us, 0.5),
        quantile(&run.lat_us, 0.99),
        run.lat_us.len(),
        run.lat_us.len() / 100,
        run.lag_p50_us,
        run.lag_max_us,
        run.backlog_growing
    ));
}

/// `check-open` (`churn = false`) and `churn` (`churn = true`).
pub fn check_workload(
    work: &Work,
    seed: u64,
    secs: f64,
    churn: bool,
    r: &mut Report,
) -> Result<(), String> {
    let db = inputs::database(inputs::CHECK_SCALE, seed);
    let sql = work.write("tpch.sql", &inputs::render_sql(&db))?;
    let views = inputs::check_views();
    let manifest = work.manifest(&views)?;
    let mut answers = Answers::new(db.clone(), &views);
    let fixed_secs = FIXED * secs;
    // Enough requests for the fixed phase and a saturation phase at up to
    // 20k requests per second.
    let need = (CHECK_RATE * fixed_secs * 1.3) as usize + (20_000.0 * SATURATE * secs) as usize;
    let items = inputs::check_stream(seed, need);
    let lines = check_lines(&items);
    let adds = inputs::churn_adds(seed, (CHURN_RATE * secs * 1.5) as usize + IDLE_ADDS);

    let mut setup = Vec::new();
    let spawn = |setup: &mut Vec<f64>| -> Result<Server, String> {
        let dir = work.data_dir(setup.len(), None)?;
        let s = Server::spawn(&work.server_bin, &sql, Some(&manifest), Some(&dir))?;
        setup.push(s.setup_s);
        Ok(s)
    };

    // Phases 1 and 2, interleaved over ROUNDS rounds on two live servers so
    // that both sample the whole run (the host's speed drifts within
    // seconds): the fixed offered rate on one server, saturation on the
    // other. Saturation sends back to back with one request in flight (the
    // generator's own discipline): the offered rate above which the
    // fixed-rate phase's backlog must grow.
    let fixed_server = spawn(&mut setup)?;
    let sat_server = spawn(&mut setup)?;
    let (mut offset, mut add_offset) = (0, 0);
    let (mut lat_us, mut fixed_adds, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        for saturate in [false, true] {
            let churn_side = Churn { adds: &adds[add_offset..], rate: CHURN_RATE };
            let (server, rate, phase_secs) = if saturate {
                (&sat_server, f64::INFINITY, SATURATE * secs / ROUNDS as f64)
            } else {
                (&fixed_server, CHECK_RATE, FIXED * secs / ROUNDS as f64)
            };
            let run = load::open_loop(
                server,
                &lines[offset..],
                rate,
                phase_secs,
                seed ^ round,
                churn.then_some(&churn_side),
            )?;
            let bad = verify_checks(&mut answers, &items[offset..], &run)?;
            r.count(run.sent + run.adds.len(), bad + run.add_failures);
            offset += run.sent;
            add_offset += run.adds.len();
            if saturate {
                rates.push(run.sent as f64 / run.elapsed_s);
                r.line(format!(
                    "saturation: sent={} -> {:.1}/s",
                    run.sent,
                    run.sent as f64 / run.elapsed_s
                ));
                continue;
            }
            print_phase(r, "fixed", &run);
            if !run.valid() {
                return Err(format!(
                    "invalid run: generator lag p50 {:.0} us or growing backlog at the fixed rate",
                    run.lag_p50_us
                ));
            }
            lat_us.extend(run.lat_us);
            fixed_adds.extend(run.adds);
        }
    }
    let rss = fixed_server.peak_rss_mib()?;
    let stats = fixed_server.stats()?;
    fixed_server.shutdown()?;
    sat_server.shutdown()?;
    record(r, seed, views.len(), &db, &items[..offset], &stats, 1.0);
    let max_rps = quantile(&rates, 0.5);

    // Phase 3: the write path. `churn` measured it under the CHECK stream;
    // `check-open` times the same adds on an idle server.
    let (add_ms, add_src) = if churn {
        (fixed_adds, "under the CHECK stream")
    } else {
        let server = spawn(&mut setup)?;
        let (ms, failures) = load::sequential_adds(&server, &adds[..IDLE_ADDS])?;
        server.shutdown()?;
        r.count(ms.len(), failures);
        (ms, "on an idle server")
    };
    while setup.len() < SPAWNS {
        spawn(&mut setup)?.shutdown()?;
    }

    let (add_p50, add_p90) = add_quantiles(&add_ms);
    let p50 = quantile(&lat_us, 0.5);
    let p90 = quantile(&lat_us, 0.9);
    r.line(format!(
        "check.p50_us = {p50:.1} us, check.p90_us = {p90:.1} us, check.p99_us = {:.1} us ({} samples, {} beyond p99)",
        quantile(&lat_us, 0.99),
        lat_us.len(),
        lat_us.len() / 100
    ));
    r.line(format!("check.max_rps = {max_rps:.1} 1/s (saturation rounds: {rates:.0?})"));
    r.line(format!("add.p50_ms = {add_p50:.3} ms, add.p90_ms = {add_p90:.3} ms"));
    r.line(format!("rectangle-confirmed accepted updates: {}", answers.rectangles));
    r.line(format!("adds {add_src}: n={} by depth {}", add_ms.len(), depth_table(&add_ms)));
    r.common(&setup, rss);
    r.metric("req.p50_us", p50, "us", "check.p50_us");
    r.metric("add.p90_ms", add_p90, "ms", "add.p90_ms");
    Ok(())
}

fn depth_table(adds: &[(f64, usize)]) -> String {
    let mut parts = Vec::new();
    for depth in [0, 50, 100, 200, 300] {
        let ms: Vec<f64> = adds.iter().filter(|a| a.1 == depth).map(|a| a.0).collect();
        if !ms.is_empty() {
            parts.push(format!("d{depth}={:.2}ms", mean(&ms)));
        }
    }
    parts.join(" ")
}

/// The view a fan-out update addresses: its family by shape, its partition
/// by key (mirrors `tpch::many_views`' range partitioning).
pub fn addressed_view(update: &str) -> Result<String, String> {
    let scale = ufilter_tpch::Scale::mb(inputs::FANOUT_SCALE);
    let n = inputs::FANOUT_VIEWS;
    let key: usize = update
        .split("text() = \"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .and_then(|k| k.parse().ok())
        .ok_or_else(|| format!("no key in fan-out update {update:?}"))?;
    let cust_n = (n / 2).max(1);
    let ord_n = (n / 3).max(usize::from(n > 1));
    let geo_n = n.saturating_sub(cust_n + ord_n);
    let (family, parts, universe) = if update.contains("/customer") {
        ("cust", cust_n, scale.customers)
    } else if update.contains("/order") {
        ("ord", ord_n, scale.customers * scale.orders_per_customer)
    } else {
        ("geo", geo_n, 25)
    };
    let width = universe.max(1).div_ceil(parts).max(1);
    Ok(format!("{family}_p{:03}", key / width))
}

/// Check one BATCHALL reply: the addressed view is a candidate with its
/// known outcome, every other candidate reports irrelevant. Returns the
/// number of updates whose items disagree.
pub fn verify_batch(
    answers: &mut Answers,
    batch: &[String],
    reply: &[String],
) -> Result<usize, String> {
    let mut per_update: Vec<Vec<(&str, &str)>> = vec![Vec::new(); batch.len()];
    for line in reply {
        let Some(rest) = line.strip_prefix("ITEM ") else { continue };
        let mut parts = rest.splitn(3, ' ');
        let (Some(i), Some(view), Some(outcome)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("malformed item {line:?}"));
        };
        let i: usize = i.parse().map_err(|_| format!("bad index in {line:?}"))?;
        per_update.get_mut(i).ok_or("item index out of range")?.push((view, outcome));
    }
    let mut bad = 0;
    for (u, items) in batch.iter().zip(&per_update) {
        let addressed = addressed_view(u)?;
        let want = answers.expected(&addressed, u)?;
        let got: Vec<&str> =
            items.iter().filter(|(v, _)| *v == addressed).map(|(_, o)| *o).collect();
        let others_ok = items
            .iter()
            .filter(|(v, _)| *v != addressed)
            .all(|(_, o)| wire_outcome_is_irrelevant(o));
        if got.join("\t") != want || !others_ok {
            if bad < 3 {
                eprintln!("mismatch: BATCHALL item {u:?}\n  served   {items:?}\n  expected {addressed} {want}");
            }
            bad += 1;
        }
    }
    Ok(bad)
}

/// Build the fan-out workload's durable catalog directory: every view
/// compiled once and appended with a single fsync (untimed set-up).
pub fn build_fanout_store(
    dir: &Path,
    views: &[(String, String)],
    db: &ufilter_rdb::Db,
) -> Result<(), String> {
    use ufilter_core::persist::{encode_artifact, CatalogStore, LogRecord};
    let mut records = Vec::with_capacity(views.len());
    for (name, text) in views {
        let f = ufilter_core::UFilter::compile(text, db.schema())
            .map_err(|e| format!("{name}: {e}"))?
            .with_config(crate::trace::CONFIG);
        let sig = ufilter_route::ViewSignature::of(&f.asg);
        records.push(LogRecord::Add {
            name: name.clone(),
            view_text: canonical(text),
            deps: f.asg.relations.clone(),
            cached: false,
            artifact: encode_artifact(&f, &sig),
        });
    }
    let mut store = CatalogStore::open(dir).map_err(|e| e.to_string())?;
    store.append_all(&records).map_err(|e| e.to_string())
}

/// Whitespace runs outside string literals collapsed to one space: the
/// catalog's canonical view text for comment-free views.
pub fn canonical(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let (mut space, mut quote) = (false, None);
    for c in text.trim().chars() {
        if let Some(q) = quote {
            out.push(c);
            if c == q {
                quote = None;
            }
            continue;
        }
        if c.is_whitespace() {
            space = true;
            continue;
        }
        if space && !out.is_empty() {
            out.push(' ');
        }
        space = false;
        if c == '"' || c == '\'' {
            quote = Some(c);
        }
        out.push(c);
    }
    out
}

/// `fanout-batch`.
pub fn fanout_workload(work: &Work, seed: u64, secs: f64, r: &mut Report) -> Result<(), String> {
    let db = inputs::database(inputs::FANOUT_SCALE, seed);
    let sql = work.write("tpch.sql", &inputs::render_sql(&db))?;
    let views = inputs::fanout_views();
    let template = work.dir.join("catalog-template");
    build_fanout_store(&template, &views, &db)?;
    let mut answers = Answers::new(db.clone(), &views);
    let batches = inputs::fanout_batches(seed, 4000);
    let adds = inputs::churn_adds(seed, IDLE_ADDS);

    let mut setup = Vec::new();
    let spawn = |setup: &mut Vec<f64>| -> Result<Server, String> {
        let dir = work.data_dir(setup.len(), Some(&template))?;
        let s = Server::spawn(&work.server_bin, &sql, None, Some(&dir))?;
        setup.push(s.setup_s);
        Ok(s)
    };

    let server = spawn(&mut setup)?;
    let mut conn = server.connect()?;
    let requests: Vec<String> = batches.iter().map(|b| load::batchall_request(b)).collect();
    let mut lat_ms = Vec::new();
    let mut replies = Vec::new();
    let started = std::time::Instant::now();
    let budget = std::time::Duration::from_secs_f64(0.85 * secs);
    while started.elapsed() < budget && replies.len() < requests.len() {
        let sent = std::time::Instant::now();
        let reply = conn.request_block(&requests[replies.len()], true)?;
        lat_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        replies.push(reply);
    }
    let elapsed = started.elapsed().as_secs_f64();
    drop(conn);
    let rss = server.peak_rss_mib()?;
    let stats = server.stats()?;
    let (add_ms, failures) = load::sequential_adds(&server, &adds)?;
    server.shutdown()?;
    while setup.len() < SPAWNS {
        spawn(&mut setup)?.shutdown()?;
    }

    let mut bad = 0;
    let mut candidates = 0;
    for (batch, reply) in batches.iter().zip(&replies) {
        bad += verify_batch(&mut answers, batch, reply)?;
        candidates += reply.iter().filter(|l| l.starts_with("ITEM ")).count();
    }
    let updates = replies.len() * inputs::BATCH_SIZE;
    let pairs: Vec<(String, String)> =
        batches[..replies.len()].iter().flatten().map(|u| (String::new(), u.clone())).collect();
    record(r, seed, views.len(), &db, &pairs, &stats, candidates as f64 / updates.max(1) as f64);
    r.count(updates, bad);
    r.count(add_ms.len(), failures);
    let (add_p50, add_p90) = add_quantiles(&add_ms);
    r.line(format!(
        "batchall: requests={} updates={updates} elapsed_s={elapsed:.3} candidate_items_per_update={:.3}",
        replies.len(),
        candidates as f64 / updates.max(1) as f64
    ));
    r.line(format!("rectangle-confirmed accepted updates: {}", answers.rectangles));
    r.line(format!(
        "adds on the 20k-view catalog: n={} by depth {}",
        add_ms.len(),
        depth_table(&add_ms)
    ));
    r.common(&setup, rss);
    r.line(format!(
        "batchall.p50_ms = {:.3} ms, batchall.p95_ms = {:.3} ms, batchall.p99_ms = {:.3} ms \
         ({} requests), batchall.updates_per_s = {:.1} 1/s",
        quantile(&lat_ms, 0.5),
        quantile(&lat_ms, 0.95),
        quantile(&lat_ms, 0.99),
        lat_ms.len(),
        updates as f64 / elapsed
    ));
    r.metric("req.p50_us", quantile(&lat_ms, 0.5) * 1e3, "us", "batchall.p50_ms x 1000");
    r.line(format!("add.p50_ms = {add_p50:.3} ms, add.p90_ms = {add_p90:.3} ms"));
    r.metric("add.p90_ms", add_p90, "ms", "add.p90_ms");
    Ok(())
}

/// Copy every file of `from` into `to`, creating `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let dest: PathBuf = to.join(entry.file_name());
        std::fs::copy(entry.path(), &dest).map_err(|e| e.to_string())?;
    }
    Ok(())
}
