//! View-query generator: schema-aware ASTs spanning the supported surface
//! (FLWR nesting, join/local/aggregate predicates, `distinct()`, aggregate
//! and static elements, comment injection) while staying inside the
//! ASG-compilable subset — FOR sources are always base-table scans, every
//! projection names a real column, and every predicate classifies as a
//! join, a local comparison or an aggregate gate.
//!
//! Alongside the AST the generator records the *region structure* (which
//! element tags correspond to which table's rows), which the update
//! generator uses to aim inserts/deletes/replaces at real view regions.

use ufilter_rdb::{CmpOp, Value};
use ufilter_xquery::{
    AggFunc, AggregateExpr, Content, ElementCtor, Flwr, ForBinding, Operand, PathExpr, Predicate,
    Source, ViewQuery,
};

use crate::gen_schema::{ColTy, GenSchema, GenTable, Lit};
use crate::rng::FuzzRng;

const DOC: &str = "default.xml";

/// A projected column element inside a region.
#[derive(Debug, Clone)]
pub struct RegionCol {
    /// Element tag (== column name).
    pub tag: String,
    pub ty: ColTy,
}

/// A constant local predicate on the region's primary table, recorded so
/// the update generator can aim *domain-disjoint* predicates at the same
/// column (the independence analysis's Distinct-region rescue).
#[derive(Debug, Clone)]
pub struct GenPred {
    /// Column name on the region's primary table.
    pub col: String,
    pub op: CmpOp,
    pub value: Value,
}

/// One FLWR-constructed element of the view and what it projects.
#[derive(Debug, Clone)]
pub struct Region {
    /// Constructor tag.
    pub tag: String,
    /// Tag path from the view root down to this region's elements.
    pub steps: Vec<String>,
    /// The region's primary bound table.
    pub table: String,
    /// Projected key column tag, if the key is projected.
    pub key_tag: Option<String>,
    /// Projected non-key column elements.
    pub cols: Vec<RegionCol>,
    /// Nested plain constructors grouping a joined parent table:
    /// `(tag, parent table, its projected columns)`.
    pub groups: Vec<(String, String, Vec<RegionCol>)>,
    /// Nested FLWR regions.
    pub children: Vec<Region>,
    /// Whether the primary binding is `distinct(...)`.
    pub distinct: bool,
    /// Constant local membership predicates on the primary table.
    pub preds: Vec<GenPred>,
    /// Column compared against an aggregate gate, if the region has one.
    pub gate_col: Option<String>,
}

impl Region {
    /// This region and every nested region, depth-first.
    pub fn flatten<'a>(&'a self, out: &mut Vec<&'a Region>) {
        out.push(self);
        for c in &self.children {
            c.flatten(out);
        }
    }
}

/// A standalone aggregate the view projects (the BookStats shape). The
/// update generator's bias mode aims value writes at — and away from —
/// the operand column.
#[derive(Debug, Clone)]
pub struct GenAggregate {
    /// The aggregated table.
    pub table: String,
    /// The operand column; `None` for row counts (`count(table)`).
    pub column: Option<String>,
}

/// A generated view: registration name, AST, region metadata, and whether
/// the rendered text carries an injected comment.
#[derive(Debug, Clone)]
pub struct GenView {
    pub name: String,
    pub query: ViewQuery,
    pub regions: Vec<Region>,
    /// Standalone aggregates projected at the view root.
    pub aggregates: Vec<GenAggregate>,
    pub comment: bool,
}

impl GenView {
    /// The text registered with the catalog (print + optional comment —
    /// comments must strip to whitespace, so the parse is unchanged).
    pub fn text(&self) -> String {
        let printed = ufilter_xquery::print_view_query(&self.query);
        if self.comment {
            printed.replacen('\n', " (: fuzz :)\n", 1)
        } else {
            printed
        }
    }

    /// All regions, nested ones included.
    pub fn all_regions(&self) -> Vec<&Region> {
        let mut out = Vec::new();
        for r in &self.regions {
            r.flatten(&mut out);
        }
        out
    }
}

/// Generate one view over `schema`. `idx` keeps names unique per plan.
pub fn generate(rng: &mut FuzzRng, schema: &GenSchema, idx: usize) -> GenView {
    generate_with(rng, schema, idx, false)
}

/// Bias mode for the independence-acceptance stream: every view projects
/// at least one standalone aggregate (usually over the first region's own
/// table, so region-aimed updates land in the blunt non-injective gate),
/// `distinct()` bindings and local predicates are more frequent, and the
/// recorded [`GenAggregate`]/[`GenPred`] metadata lets the update
/// generator aim at — or provably away from — the read-sets.
pub fn generate_aggregated(rng: &mut FuzzRng, schema: &GenSchema, idx: usize) -> GenView {
    generate_with(rng, schema, idx, true)
}

/// Deep/wide profile for the compile side (marking equivalence, compile
/// scaling): 2–8 sibling root FLWRs (wide), each under a chain of up to 24
/// static wrapper elements (deep), so STAR's Rule 1 sees non-root parents
/// and Rules 2–3 see many unrelated regions. It draws from `rng` alone and
/// leaves [`generate`]'s stream untouched.
pub fn generate_deep_wide(rng: &mut FuzzRng, schema: &GenSchema, idx: usize) -> GenView {
    let (mut varc, mut tagc) = (0usize, 0usize);
    let mut content: Vec<Content> = Vec::new();
    let mut regions: Vec<Region> = Vec::new();
    for _ in 0..rng.int(2, 8) {
        let table = &schema.tables[rng.index(schema.tables.len())];
        let wrappers: Vec<String> = (0..rng.int(0, 24))
            .map(|_| {
                tagc += 1;
                format!("w{tagc}")
            })
            .collect();
        let (flwr, region) =
            gen_flwr(rng, schema, table, wrappers.clone(), &mut varc, &mut tagc, 0, None);
        let mut item = Content::Flwr(flwr);
        for tag in wrappers.into_iter().rev() {
            item = Content::Element(ElementCtor { tag, content: vec![item] });
        }
        content.push(item);
        regions.push(region);
    }
    GenView {
        name: format!("v{idx}"),
        query: ViewQuery { root_tag: format!("V{idx}"), content },
        regions,
        aggregates: Vec::new(),
        comment: false,
    }
}

/// Per-FLWR knobs for the aggregated bias mode. `None` everywhere in the
/// unbiased generator, whose RNG stream must stay byte-identical (corpus
/// `.case` seeds replay through it).
#[derive(Debug, Clone, Copy)]
struct FlwrBias {
    /// Probability the primary binding is `distinct(...)`.
    distinct_p: f64,
    /// Probability a local predicate pins the key column with a value
    /// drawn from real rows — satisfiable, and harmless to value writes.
    key_pred_p: f64,
    /// Project every data column, so the update generator always has a
    /// non-operand column left to write after the avoid set is removed.
    project_all: bool,
}

fn generate_with(rng: &mut FuzzRng, schema: &GenSchema, idx: usize, bias: bool) -> GenView {
    let mut varc = 0usize;
    let mut tagc = 0usize;
    let mut content: Vec<Content> = Vec::new();
    let mut regions: Vec<Region> = Vec::new();
    let mut aggregates: Vec<GenAggregate> = Vec::new();

    let n_flwrs = if rng.chance(if bias { 0.6 } else { 0.3 }) { 2 } else { 1 };
    for i in 0..n_flwrs {
        let t = rng.index(schema.tables.len());
        // Bias: a second FLWR usually rescans the first region's table, so
        // a distinct() binding on one side gives the independence
        // analysis's domain-disjointness rescue a shape to prove.
        let same_table = bias && i == 1 && rng.chance(0.85);
        let table = if same_table {
            schema.table(&regions[0].table).expect("region table exists")
        } else {
            &schema.tables[t]
        };
        // Bias keeps the first (update-target) region injective and fully
        // projected so value writes can flip, and makes a same-table
        // second region a frequent *partially projected* distinct() donor
        // — partial, so a write the rescue admits is not also projected at
        // a second view position.
        let profile = match (bias, same_table) {
            (false, _) => None,
            (true, true) => Some(FlwrBias { distinct_p: 0.7, key_pred_p: 0.0, project_all: false }),
            (true, false) => {
                Some(FlwrBias { distinct_p: 0.08, key_pred_p: 0.65, project_all: true })
            }
        };
        let (flwr, region) =
            gen_flwr(rng, schema, table, Vec::new(), &mut varc, &mut tagc, 0, profile);
        content.push(Content::Flwr(flwr));
        regions.push(region);
    }
    let push_agg = |rng: &mut FuzzRng,
                    forced: Option<&GenTable>,
                    tagc: &mut usize,
                    content: &mut Vec<Content>,
                    aggregates: &mut Vec<GenAggregate>| {
        if let Some(agg) = gen_aggregate(rng, schema, forced) {
            *tagc += 1;
            aggregates.push(GenAggregate { table: agg.table.clone(), column: agg.column.clone() });
            content.push(Content::Element(ElementCtor {
                tag: format!("stat{tagc}"),
                content: vec![Content::Aggregate(agg)],
            }));
        }
    };
    if rng.chance(if bias { 1.0 } else { 0.3 }) {
        // Bias aims the aggregate at a region's own table so updates on
        // that region must pass through the independence analysis.
        let forced = if bias && rng.chance(0.75) { schema.table(&regions[0].table) } else { None };
        push_agg(rng, forced, &mut tagc, &mut content, &mut aggregates);
    }
    if bias && rng.chance(0.35) {
        push_agg(rng, None, &mut tagc, &mut content, &mut aggregates);
    }
    if rng.chance(0.2) {
        tagc += 1;
        content.push(Content::Element(ElementCtor {
            tag: format!("meta{tagc}"),
            content: vec![Content::Text("generated".into())],
        }));
    }

    GenView {
        name: format!("v{idx}"),
        query: ViewQuery { root_tag: format!("V{idx}"), content },
        regions,
        aggregates,
        comment: rng.chance(0.3),
    }
}

/// A FLWR over `table` plus its region record. `steps` is the tag path of
/// the enclosing constructors.
#[allow(clippy::too_many_arguments)]
fn gen_flwr(
    rng: &mut FuzzRng,
    schema: &GenSchema,
    table: &GenTable,
    steps: Vec<String>,
    varc: &mut usize,
    tagc: &mut usize,
    depth: usize,
    bias: Option<FlwrBias>,
) -> (Flwr, Region) {
    let var = format!("v{varc}");
    *varc += 1;
    let distinct = rng.chance(bias.map_or(0.12, |b| b.distinct_p));
    let mut bindings = vec![ForBinding {
        var: var.clone(),
        source: Source::Table { doc: DOC.into(), table: table.name.clone() },
        distinct,
    }];
    let mut predicates: Vec<Predicate> = Vec::new();

    // Optional join with the FK parent (book ⋈ publisher shape).
    let parent_join = match &table.fk {
        Some(fk) if rng.chance(0.45) => {
            let pvar = format!("v{varc}");
            *varc += 1;
            bindings.push(ForBinding {
                var: pvar.clone(),
                source: Source::Table { doc: DOC.into(), table: fk.parent.clone() },
                distinct: false,
            });
            predicates.push(Predicate {
                lhs: Operand::Path(PathExpr { var: var.clone(), steps: vec![fk.column.clone()] }),
                op: CmpOp::Eq,
                rhs: Operand::Path(PathExpr {
                    var: pvar.clone(),
                    steps: vec![fk.parent_key.clone()],
                }),
            });
            Some((pvar, fk.parent.clone()))
        }
        _ => None,
    };

    // Local predicates on the primary table (bias guarantees at least one,
    // giving the disjoint-predicate update strategy something to miss).
    let mut local_preds: Vec<GenPred> = Vec::new();
    for _ in 0..rng.int(if bias.is_some() { 1 } else { 0 }, 2) {
        if let Some(p) = gen_local_pred(rng, table, &var, bias.map_or(0.0, |b| b.key_pred_p)) {
            if let Some(g) = const_pred(&p) {
                local_preds.push(g);
            }
            predicates.push(p);
        }
    }
    // Occasional aggregate gate.
    let mut gate_col: Option<String> = None;
    if rng.chance(0.1) {
        if let Some(p) = gen_agg_pred(rng, table, &var) {
            if let Operand::Path(path) = &p.lhs {
                gate_col = path.steps.first().cloned();
            }
            predicates.push(p);
        }
    }

    // RETURN constructor.
    *tagc += 1;
    let tag = format!("r{}{}", table.name, tagc);
    let mut ret_inner: Vec<Content> = Vec::new();
    let mut region = Region {
        tag: tag.clone(),
        steps: {
            let mut s = steps.clone();
            s.push(tag.clone());
            s
        },
        table: table.name.clone(),
        key_tag: None,
        cols: Vec::new(),
        groups: Vec::new(),
        children: Vec::new(),
        distinct,
        preds: local_preds,
        gate_col,
    };

    // Bias always projects the key: keyed update predicates then pin a
    // real row, so the data-context existence checks pass.
    if rng.chance(if bias.is_some() { 1.0 } else { 0.85 }) {
        ret_inner.push(Content::Projection(PathExpr {
            var: var.clone(),
            steps: vec![table.key.clone()],
        }));
        region.key_tag = Some(table.key.clone());
    }
    if !table.cols.is_empty() {
        let k = if bias.is_some_and(|b| b.project_all) {
            table.cols.len()
        } else {
            rng.int(1, table.cols.len() as i64) as usize
        };
        for i in rng.subset(table.cols.len(), k) {
            let c = &table.cols[i];
            let mut psteps = vec![c.name.clone()];
            // Rare text() projection: renders the value as a bare text
            // node, so it is not a column element of the region.
            if rng.chance(if bias.is_some() { 0.0 } else { 0.08 }) {
                psteps.push("text()".into());
                ret_inner.push(Content::Projection(PathExpr { var: var.clone(), steps: psteps }));
            } else {
                ret_inner.push(Content::Projection(PathExpr { var: var.clone(), steps: psteps }));
                region.cols.push(RegionCol { tag: c.name.clone(), ty: c.ty });
            }
        }
    }

    // Group the joined parent's columns under a nested plain constructor.
    if let Some((pvar, ptable)) = &parent_join {
        if rng.chance(0.7) {
            let parent = schema.table(ptable).expect("parent table exists");
            *tagc += 1;
            let gtag = format!("g{}{}", parent.name, tagc);
            let mut gcols = vec![RegionCol { tag: parent.key.clone(), ty: ColTy::Str }];
            let mut gcontent = vec![Content::Projection(PathExpr {
                var: pvar.clone(),
                steps: vec![parent.key.clone()],
            })];
            if !parent.cols.is_empty() {
                let c = &parent.cols[rng.index(parent.cols.len())];
                gcontent.push(Content::Projection(PathExpr {
                    var: pvar.clone(),
                    steps: vec![c.name.clone()],
                }));
                gcols.push(RegionCol { tag: c.name.clone(), ty: c.ty });
            }
            ret_inner.push(Content::Element(ElementCtor { tag: gtag.clone(), content: gcontent }));
            region.groups.push((gtag, parent.name.clone(), gcols));
        }
    }

    // Nested FLWR over an FK child, correlated to this row (book → review).
    if depth < 2 {
        let children = schema.children_of(&table.name);
        if !children.is_empty() && rng.chance(0.45) {
            let child = children[rng.index(children.len())];
            let nested = bias.map(|b| FlwrBias { distinct_p: 0.05, ..b });
            let (mut cf, creg) =
                gen_flwr(rng, schema, child, region.steps.clone(), varc, tagc, depth + 1, nested);
            let fk = child.fk.as_ref().expect("child has an FK");
            cf.predicates.insert(
                0,
                Predicate {
                    lhs: Operand::Path(PathExpr {
                        var: cf.bindings[0].var.clone(),
                        steps: vec![fk.column.clone()],
                    }),
                    op: CmpOp::Eq,
                    rhs: Operand::Path(PathExpr {
                        var: var.clone(),
                        steps: vec![fk.parent_key.clone()],
                    }),
                },
            );
            ret_inner.push(Content::Flwr(cf));
            region.children.push(creg);
        }
    }

    let flwr = Flwr {
        bindings,
        predicates,
        ret: vec![Content::Element(ElementCtor { tag, content: ret_inner })],
    };
    (flwr, region)
}

/// The recordable `(col, op, literal)` form of a generated predicate.
fn const_pred(p: &Predicate) -> Option<GenPred> {
    let Operand::Path(path) = &p.lhs else { return None };
    let Operand::Literal(v) = &p.rhs else { return None };
    if path.steps.len() != 1 {
        return None;
    }
    Some(GenPred { col: path.steps[0].clone(), op: p.op, value: v.clone() })
}

/// `$var/col θ literal`, with the literal drawn near the table's actual
/// values so predicates are satisfiable about half the time.
/// `key_pred_p > 0` (bias mode only — it draws extra randomness) diverts
/// that share of predicates onto the key column with a real row's value:
/// always satisfiable, and never in the way of a data-column write.
fn gen_local_pred(
    rng: &mut FuzzRng,
    table: &GenTable,
    var: &str,
    key_pred_p: f64,
) -> Option<Predicate> {
    if key_pred_p > 0.0 && !table.rows.is_empty() && rng.chance(key_pred_p) {
        let v = table.rows[rng.index(table.rows.len())][0].text();
        let op = if rng.chance(0.7) { CmpOp::Ne } else { CmpOp::Eq };
        return Some(Predicate {
            lhs: Operand::Path(PathExpr { var: var.to_string(), steps: vec![table.key.clone()] }),
            op,
            rhs: Operand::Literal(Value::Str(v)),
        });
    }
    let names = table.column_names();
    let col = names[rng.index(names.len())].clone();
    let ty = table.column_ty(&col)?;
    let col_pos = names.iter().position(|n| *n == col)?;
    let (op, lit) = match ty {
        ColTy::Str => {
            let v = if rng.chance(0.6) && !table.rows.is_empty() {
                table.rows[rng.index(table.rows.len())][col_pos].text()
            } else {
                "zinc".to_string()
            };
            let op = if rng.chance(0.7) { CmpOp::Eq } else { CmpOp::Ne };
            (op, Value::Str(v))
        }
        ColTy::Int => (num_op(rng), Value::Int(rng.int(-10, 80))),
        ColTy::Double => (num_op(rng), Value::Double(rng.int(-10, 90) as f64)),
    };
    Some(Predicate {
        lhs: Operand::Path(PathExpr::new(var, vec![col.as_str()])),
        op,
        rhs: Operand::Literal(lit),
    })
}

fn num_op(rng: &mut FuzzRng) -> CmpOp {
    *rng.pick(&[CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge])
}

/// An aggregate gate: `$v/num ≤ max(...)` when the table has a numeric
/// column, `count(...) > 0` otherwise.
fn gen_agg_pred(rng: &mut FuzzRng, table: &GenTable, var: &str) -> Option<Predicate> {
    let numeric = table.numeric_cols();
    if let Some(c) = numeric.first() {
        let func = if rng.chance(0.5) { AggFunc::Max } else { AggFunc::Min };
        let op = if func == AggFunc::Max { CmpOp::Le } else { CmpOp::Ge };
        Some(Predicate {
            lhs: Operand::Path(PathExpr::new(var, vec![c.name.as_str()])),
            op,
            rhs: Operand::Aggregate(AggregateExpr {
                func,
                doc: DOC.into(),
                table: table.name.clone(),
                column: Some(c.name.clone()),
            }),
        })
    } else {
        Some(Predicate {
            lhs: Operand::Aggregate(AggregateExpr {
                func: AggFunc::Count,
                doc: DOC.into(),
                table: table.name.clone(),
                column: None,
            }),
            op: CmpOp::Gt,
            rhs: Operand::Literal(Value::Int(0)),
        })
    }
}

/// A standalone aggregate over `forced` or a random table (the BookStats
/// shape).
fn gen_aggregate(
    rng: &mut FuzzRng,
    schema: &GenSchema,
    forced: Option<&GenTable>,
) -> Option<AggregateExpr> {
    let t = match forced {
        Some(t) => t,
        None => &schema.tables[rng.index(schema.tables.len())],
    };
    let numeric = t.numeric_cols();
    if numeric.is_empty() || rng.chance(0.4) {
        return Some(AggregateExpr {
            func: AggFunc::Count,
            doc: DOC.into(),
            table: t.name.clone(),
            column: None,
        });
    }
    let c = numeric[rng.index(numeric.len())];
    let func = *rng.pick(&[AggFunc::Sum, AggFunc::Avg, AggFunc::Max, AggFunc::Min]);
    Some(AggregateExpr {
        func,
        doc: DOC.into(),
        table: t.name.clone(),
        column: Some(c.name.clone()),
    })
}

/// Type-correct fresh value for a column (used by the update generator).
pub fn fresh_value(rng: &mut FuzzRng, ty: ColTy) -> Lit {
    match ty {
        ColTy::Str => {
            Lit::Str(["coral", "ivory", "umber", "sable", "mauve"][rng.index(5)].to_string())
        }
        ColTy::Int => Lit::Int(rng.int(1, 99)),
        ColTy::Double => Lit::Double(rng.int(100, 9900) as f64 / 100.0),
    }
}
