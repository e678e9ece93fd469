//! The traced replica: the benchmark's own spans around each layer's public
//! calls, and an in-process copy of the check path built from those calls.
//!
//! Spans are kept in memory and folded into per-layer self time (a span's
//! duration minus its direct children's) once the traced run ends. The
//! replica mirrors `UFilter::run_resolved` step by step, so its outcome for
//! every request can be compared with the served wire outcome.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use ufilter_asg::AsgNodeKind;
use ufilter_core::datacheck::{self, Strategy};
use ufilter_core::independence::{self, Verdict};
use ufilter_core::probe::{build_probe, path_info, SelectSpec};
use ufilter_core::star::{self, StarMode, StarVerdict};
use ufilter_core::target::{resolve, ResolvedAction};
use ufilter_core::translate::build_plan;
use ufilter_core::{validate, CheckOutcome, CheckStep, UFilter, UFilterConfig};
use ufilter_rdb::{ColRef, Db, ResultSet, Row};
use ufilter_xquery::UpdateStmt;

/// The pipeline configuration `ufilter serve` runs with by default.
pub const CONFIG: UFilterConfig =
    UFilterConfig { mode: StarMode::Refined, strategy: Strategy::Outside };

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// In-memory span recorder. A disabled tracer never reads the clock.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), request: 0 }
    }

    /// Spans opened from now on belong to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` (the innermost open one).
    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Per span name: (total self time in ns, span count).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns) - child_ns[i];
            e.1 += 1;
        }
        out
    }

    /// Duration of every root span named `name`, in ns.
    pub fn root_durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }
}

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub actions: usize,
    pub invalid: usize,
    pub star_rejects: usize,
    pub non_injective: usize,
    pub independent: usize,
    pub probes: usize,
    pub probe_hits: usize,
}

/// The replica's probe cache: the same keying (probe SQL) and `TAB_`
/// freshness rule as `ufilter_core::ProbeCache`.
#[derive(Default)]
pub struct ReplicaCache {
    entries: HashMap<String, ResultSet>,
    materialized: HashMap<String, String>,
}

type Prepared = (Vec<ufilter_core::Condition>, ufilter_core::TranslationPlan);

/// Check `u` against `filter` through the layers' public functions, in the
/// order `UFilter::run` calls them. Returns the per-action outcomes.
pub fn check(
    t: &mut Tracer,
    c: &mut Counts,
    filter: &UFilter,
    u: &UpdateStmt,
    db: &mut Db,
    cache: &mut ReplicaCache,
) -> Vec<CheckOutcome> {
    let resolved = t.span("validate.resolve", || resolve(&filter.asg, u));
    let actions = match resolved {
        Ok(a) => a,
        Err(reason) => {
            c.invalid += 1;
            return vec![CheckOutcome::Invalid(reason)];
        }
    };
    let mut prepared: Vec<Prepared> = Vec::new();
    let mut outcomes = Vec::new();
    for action in &actions {
        c.actions += 1;
        match prepare(t, c, filter, action, db, cache) {
            Ok(p) => prepared.push(p),
            Err(o) => outcomes.push(o),
        }
    }
    if !outcomes.is_empty() {
        for (conditions, plan) in prepared {
            outcomes.push(CheckOutcome::Translatable { conditions, translation: plan.sql() });
        }
        return outcomes;
    }
    let mut failed = false;
    for ((conditions, plan), action) in prepared.into_iter().zip(&actions) {
        if failed {
            outcomes.push(CheckOutcome::Untranslatable {
                step: CheckStep::DataPoint,
                reason: "earlier action of the same update was rejected".into(),
            });
            continue;
        }
        let report = t.span("datacheck.run", || match filter.config.strategy {
            Strategy::Outside => datacheck::run_outside(db, &plan, false),
            Strategy::Hybrid => datacheck::run_hybrid(db, &plan, false),
            Strategy::Internal => {
                datacheck::run_internal(db, &filter.asg, &filter.schema, action, &plan, false)
            }
        });
        match report.rejected {
            Some((step, reason)) => {
                failed = true;
                outcomes.push(CheckOutcome::Untranslatable { step, reason });
            }
            None => {
                outcomes.push(CheckOutcome::Translatable { conditions, translation: plan.sql() })
            }
        }
    }
    outcomes
}

fn prepare(
    t: &mut Tracer,
    c: &mut Counts,
    filter: &UFilter,
    action: &ResolvedAction,
    db: &mut Db,
    cache: &mut ReplicaCache,
) -> Result<Prepared, CheckOutcome> {
    let (asg, schema) = (&filter.asg, &filter.schema);
    if let Err(reason) = t.span("validate.validate", || validate(asg, action)) {
        c.invalid += 1;
        return Err(CheckOutcome::Invalid(reason));
    }
    let blunt = t.span("star.non_injective", || star::non_injective_check(asg, schema, action));
    if let Some(reason) = blunt {
        c.non_injective += 1;
        let verdict = t.span("independence.classify", || {
            independence::classify(asg, schema, &filter.marking, &filter.read_sets, action)
        });
        let reason = match verdict {
            Verdict::Independent => None,
            Verdict::Dependent { blocker } => {
                Some(format!("{reason}; independence: dependent on {blocker}"))
            }
            Verdict::Unknown { blocker } => {
                Some(format!("{reason}; independence: unknown, blocked by {blocker}"))
            }
        };
        match reason {
            Some(reason) => {
                return Err(CheckOutcome::Untranslatable { step: CheckStep::NonInjective, reason })
            }
            None => c.independent += 1,
        }
    }
    let verdict = t.span("star.check", || {
        star::check(asg, &filter.marking, schema, action, filter.config.mode)
    });
    let conditions = match verdict {
        StarVerdict::Untranslatable(reason) => {
            c.star_rejects += 1;
            return Err(CheckOutcome::Untranslatable { step: CheckStep::Star, reason });
        }
        StarVerdict::Ok(conditions) => conditions,
    };
    let span = t.begin("datacheck.context");
    let context = context_check(t, c, filter, action, db, cache);
    t.end(span);
    let (probe, rows, tab) = context?;
    let plan = t.span("translate.plan", || {
        build_plan(asg, &filter.marking, schema, action, probe, &rows, tab)
    })?;
    Ok((conditions, plan))
}

type Context = (Option<ufilter_rdb::Select>, Vec<(Vec<ColRef>, Row)>, Option<String>);

fn context_check(
    t: &mut Tracer,
    c: &mut Counts,
    filter: &UFilter,
    action: &ResolvedAction,
    db: &mut Db,
    cache: &mut ReplicaCache,
) -> Result<Context, CheckOutcome> {
    let asg = &filter.asg;
    let ctx = asg.node(action.context_node);
    if ctx.kind == AsgNodeKind::Root {
        return Ok((None, Vec::new(), None));
    }
    let covers = |info: &ufilter_core::probe::PathInfo| {
        action
            .predicates
            .iter()
            .all(|(col, _, _)| info.relations.iter().any(|r| r.eq_ignore_ascii_case(&col.table)))
    };
    let mut info = path_info(asg, action.context_node);
    if !covers(&info) {
        let deeper = path_info(asg, action.node);
        if covers(&deeper) {
            info = deeper;
        }
    }
    let preds = datacheck::relevant_preds(&info, &action.predicates);
    let probe = build_probe(&filter.schema, &info, &preds, &SelectSpec::Keys);
    let sql = probe.to_string();
    c.probes += 1;
    let hit = cache.entries.contains_key(&sql);
    let rs = match cache.entries.get(&sql) {
        Some(rs) => {
            c.probe_hits += 1;
            rs.clone()
        }
        None => {
            let rs = t.span("rdb.probe_sql", || db.query(&probe)).map_err(|e| {
                CheckOutcome::Untranslatable { step: CheckStep::DataContext, reason: e.to_string() }
            })?;
            cache.entries.insert(sql.clone(), rs.clone());
            rs
        }
    };
    if rs.is_empty() {
        return Err(CheckOutcome::Untranslatable {
            step: CheckStep::DataContext,
            reason: format!(
                "the <{}> element the update addresses does not exist in the view",
                ctx.tag
            ),
        });
    }
    let tab = if filter.config.strategy != Strategy::Hybrid {
        let name = format!("TAB_{}", ctx.tag);
        if !(hit && cache.materialized.get(&name) == Some(&sql)) {
            if t.span("rdb.probe_sql", || db.materialize(&name, &probe)).is_ok() {
                cache.materialized.insert(name.clone(), sql);
            } else {
                cache.materialized.remove(&name);
            }
        }
        Some(name)
    } else {
        None
    };
    let rows = rs.rows.into_iter().map(|r| (rs.columns.clone(), r)).collect();
    Ok((Some(probe), rows, tab))
}
