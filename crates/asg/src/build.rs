//! Building the view ASG from a view query plus the relational schema
//! (§3.2; computed "similarly as in SilkRoute").

use ufilter_rdb::sat::Domain;
use ufilter_rdb::{ColRef, DatabaseSchema};
use ufilter_xquery::{Content, Flwr, Predicate, Source, ViewQuery};

use crate::closure::Closure;
use crate::graph::*;

/// ASG construction failure: the query is outside the supported subset or
/// inconsistent with the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsgError {
    /// Human-readable cause.
    pub message: String,
}

impl AsgError {
    /// An error carrying `m` as its message.
    pub fn new(m: impl Into<String>) -> AsgError {
        AsgError { message: m.into() }
    }
}

impl std::fmt::Display for AsgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ASG construction error: {}", self.message)
    }
}

impl std::error::Error for AsgError {}

/// Variable scope during construction.
#[derive(Debug, Clone, Default)]
struct Scope {
    /// var → relation bindings visible here (inner shadows outer).
    vars: Vec<(String, String)>,
    /// UCBinding of the nearest enclosing root/internal node.
    ucb: Vec<String>,
    /// Non-correlation predicates visible here (for leaf check merging).
    preds: Vec<LocalPred>,
}

impl Scope {
    fn table_of(&self, var: &str) -> Option<&str> {
        self.vars.iter().rev().find(|(v, _)| v == var).map(|(_, t)| t.as_str())
    }
}

/// Build the view ASG of Fig. 8 from the query of Fig. 3(a).
pub fn build_view_asg(q: &ViewQuery, schema: &DatabaseSchema) -> Result<ViewAsg, AsgError> {
    let mut asg = ViewAsg::new(q.root_tag.clone());
    asg.relations = q.relations();
    for r in &asg.relations.clone() {
        if schema.table(r).is_none() {
            return Err(AsgError::new(format!("view references unknown relation {r}")));
        }
    }
    let root = asg.root();
    let scope = Scope::default();
    let mut b = Builder { schema, asg };
    b.content(root, &q.content, &scope)?;
    let mut asg = b.asg;
    compute_upbindings(&mut asg);
    asg.refresh_non_injective_summary();
    Ok(asg)
}

/// What a FLWR's bindings and predicates give the nodes it constructs.
struct FlwrHead {
    /// Scope of the RETURN body: the new variables, the FLWR's local
    /// predicates, and the UCBinding of the constructed nodes.
    inner_scope: Scope,
    bindings: Vec<(String, String)>,
    conditions: Vec<JoinCond>,
    local_preds: Vec<LocalPred>,
    agg_deps: Vec<AggSource>,
    gate_cols: Vec<ColRef>,
}

struct Builder<'a> {
    schema: &'a DatabaseSchema,
    asg: ViewAsg,
}

impl<'a> Builder<'a> {
    fn content(
        &mut self,
        parent: AsgNodeId,
        items: &[Content],
        scope: &Scope,
    ) -> Result<(), AsgError> {
        for item in items {
            match item {
                Content::Text(_) => {} // literal text carries no schema
                Content::Projection(p) => {
                    self.projection(parent, p, scope, Card::One)?;
                }
                Content::Aggregate(a) => {
                    self.aggregate(parent, a, Card::One)?;
                }
                Content::Element(e) => {
                    // A directly-constructed element: internal node with
                    // cardinality 1, inheriting the scope's UCBinding (vC2).
                    let id = self.asg.push(AsgNodeKind::Internal, e.tag.clone());
                    self.asg.attach(parent, id);
                    {
                        let node = self.asg.node_mut(id);
                        node.card = Card::One;
                        node.ucbinding = scope.ucb.clone();
                    }
                    self.content(id, &e.content, scope)?;
                }
                Content::Flwr(f) => {
                    self.flwr(parent, f, scope)?;
                }
            }
        }
        Ok(())
    }

    /// Bind a FLWR's variables and classify its predicates. Kept out of
    /// [`Builder::flwr`] so the recursion through nested RETURN bodies
    /// carries a small stack frame per level.
    fn flwr_head(&self, f: &Flwr, scope: &Scope) -> Result<FlwrHead, AsgError> {
        // Bind variables.
        let mut inner = scope.clone();
        let mut new_tables: Vec<String> = Vec::new();
        let mut bindings: Vec<(String, String)> = Vec::new();
        for b in &f.bindings {
            let table = match &b.source {
                Source::Table { table, .. } => table.clone(),
                Source::Relative(p) => {
                    return Err(AsgError::new(format!(
                        "FOR ${} ranges over the relative path ${}/{} — outside the \
                         SilkRoute view-forest subset the ASG supports",
                        b.var,
                        p.var,
                        p.steps.join("/")
                    )))
                }
            };
            let t = self
                .schema
                .table(&table)
                .ok_or_else(|| AsgError::new(format!("unknown relation {table}")))?;
            inner.vars.push((b.var.clone(), t.name.clone()));
            bindings.push((b.var.clone(), t.name.clone()));
            if !new_tables.iter().any(|x| x.eq_ignore_ascii_case(&t.name)) {
                new_tables.push(t.name.clone());
            }
        }
        // Classify predicates.
        let mut conditions: Vec<JoinCond> = Vec::new();
        let mut local_preds: Vec<LocalPred> = Vec::new();
        let mut agg_deps: Vec<AggSource> = Vec::new();
        let mut gate_cols: Vec<ColRef> = Vec::new();
        for p in &f.predicates {
            match self.classify_pred(p, &inner)? {
                Classified::Join(j) => conditions.push(j),
                Classified::Local(l) => local_preds.push(l),
                Classified::AggGate(sources, cols) => {
                    for s in sources {
                        if !agg_deps.contains(&s) {
                            agg_deps.push(s);
                        }
                    }
                    for c in cols {
                        if !gate_cols.contains(&c) {
                            gate_cols.push(c);
                        }
                    }
                }
            }
        }
        let mut inner_scope = inner.clone();
        inner_scope.preds.extend(local_preds.iter().cloned());

        // UCBinding of nodes this FLWR constructs.
        let mut ucb = scope.ucb.clone();
        for t in &new_tables {
            if !ucb.iter().any(|x| x.eq_ignore_ascii_case(t)) {
                ucb.push(t.clone());
            }
        }
        inner_scope.ucb = ucb;

        Ok(FlwrHead { inner_scope, bindings, conditions, local_preds, agg_deps, gate_cols })
    }

    fn flwr(&mut self, parent: AsgNodeId, f: &Flwr, scope: &Scope) -> Result<(), AsgError> {
        let FlwrHead { inner_scope, bindings, conditions, local_preds, agg_deps, gate_cols } =
            self.flwr_head(f, scope)?;
        let ucb = &inner_scope.ucb;

        // Nodes created from here on belong to this FLWR's output region:
        // remember the low-water mark so the `distinct` / aggregate-gate
        // marks below can sweep exactly the region's nodes.
        let first_new = self.asg.len();
        let distinct = f.bindings.iter().any(|b| b.distinct);

        for item in &f.ret {
            match item {
                Content::Element(e) => {
                    let id = self.asg.push(AsgNodeKind::Internal, e.tag.clone());
                    self.asg.attach(parent, id);
                    {
                        let node = self.asg.node_mut(id);
                        node.card = Card::Many;
                        node.conditions = conditions.clone();
                        node.ucbinding = ucb.clone();
                        node.bindings = bindings.clone();
                        node.local_preds = local_preds.clone();
                    }
                    self.content(id, &e.content, &inner_scope)?;
                }
                Content::Projection(p) => {
                    // Bare projection in RETURN: a repeated simple element.
                    self.projection(parent, p, &inner_scope, Card::Many)?;
                }
                Content::Aggregate(a) => {
                    self.aggregate(parent, a, Card::Many)?;
                }
                Content::Flwr(nested) => {
                    self.flwr(parent, nested, &inner_scope)?;
                }
                Content::Text(_) => {}
            }
        }
        // Distinct FLWRs range over *deduplicated* rows: every node the
        // region constructs is non-injective output. Aggregate predicates
        // gate the whole region's view membership.
        if distinct || !agg_deps.is_empty() {
            for i in first_new..self.asg.len() {
                let node = self.asg.node_mut(AsgNodeId(i));
                if distinct {
                    node.non_injective = true;
                }
                for a in &agg_deps {
                    if !node.agg_deps.contains(a) {
                        node.agg_deps.push(a.clone());
                    }
                }
                for c in &gate_cols {
                    if !node.gate_cols.contains(c) {
                        node.gate_cols.push(c.clone());
                    }
                }
            }
        }
        Ok(())
    }

    /// Build a `vA` node for an aggregate expression, validating its scan
    /// against the schema. `sum`/`avg` need a numeric column; any column
    /// named must exist.
    fn aggregate(
        &mut self,
        parent: AsgNodeId,
        a: &ufilter_xquery::AggregateExpr,
        card: Card,
    ) -> Result<AsgNodeId, AsgError> {
        let source = self.agg_source(a)?;
        let id = self.asg.push(AsgNodeKind::Aggregate, format!("{source}"));
        self.asg.attach(parent, id);
        let node = self.asg.node_mut(id);
        node.card = card;
        node.non_injective = true;
        node.agg = Some(source);
        Ok(id)
    }

    /// Validate an aggregate expression's scan and lower it to the
    /// graph-side [`AggSource`].
    fn agg_source(&self, a: &ufilter_xquery::AggregateExpr) -> Result<AggSource, AsgError> {
        let t = self
            .schema
            .table(&a.table)
            .ok_or_else(|| AsgError::new(format!("unknown relation {} in {a}", a.table)))?;
        let column = match &a.column {
            None => None,
            Some(col) => {
                let c = t.column_named(col).ok_or_else(|| {
                    AsgError::new(format!("relation {} has no attribute {col} in {a}", t.name))
                })?;
                let numeric =
                    matches!(c.ty, ufilter_rdb::DataType::Int | ufilter_rdb::DataType::Double);
                if matches!(a.func, ufilter_xquery::AggFunc::Sum | ufilter_xquery::AggFunc::Avg)
                    && !numeric
                {
                    return Err(AsgError::new(format!(
                        "{}() needs a numeric column, {}.{} is {}",
                        a.func, t.name, c.name, c.ty
                    )));
                }
                Some(c.name.clone())
            }
        };
        Ok(AggSource { func: a.func.name().to_string(), table: t.name.clone(), column })
    }

    fn projection(
        &mut self,
        parent: AsgNodeId,
        p: &ufilter_xquery::PathExpr,
        scope: &Scope,
        base_card: Card,
    ) -> Result<(), AsgError> {
        let table = scope
            .table_of(&p.var)
            .ok_or_else(|| AsgError::new(format!("unbound variable ${} in projection", p.var)))?
            .to_string();
        let attr = p
            .attribute()
            .ok_or_else(|| AsgError::new(format!("unsupported projection path {p}")))?;
        let schema = self.schema.table(&table).expect("bound to known table");
        let col = schema
            .column_named(attr)
            .ok_or_else(|| AsgError::new(format!("relation {table} has no attribute {attr}")))?;
        let not_null = schema.is_not_null(attr);
        let nullable_card = if not_null { Card::One } else { Card::Opt };
        let card = if base_card == Card::Many { Card::Many } else { nullable_card };

        // Merged check domain: relational CHECK atoms + scope predicates.
        let mut check = Domain::default();
        for c in &schema.checks {
            for conj in c.expr.conjuncts() {
                if let Some((cr, op, v)) = conj.as_column_literal() {
                    if cr.column.eq_ignore_ascii_case(attr) {
                        check.constrain(op, v);
                    }
                }
            }
        }
        for lp in &scope.preds {
            if lp.column.matches(&table, attr) {
                check.constrain(lp.op, &lp.value);
            }
        }

        // `$v/col` materializes as `<col>value</col>`; `$v/col/text()`
        // materializes as a bare text node with no element wrapper. The
        // graph must mirror that distinction, or fragment validation would
        // admit a `<col>` element the view can never reproduce.
        let leaf_parent = if p.steps.last().is_some_and(|s| s == "text()") {
            parent
        } else {
            let tag_id = self.asg.push(AsgNodeKind::Tag, col.name.clone());
            self.asg.attach(parent, tag_id);
            self.asg.node_mut(tag_id).card = card;
            tag_id
        };
        let leaf_id = self.asg.push(AsgNodeKind::Leaf, "text()".to_string());
        self.asg.attach(leaf_parent, leaf_id);
        {
            let leaf = self.asg.node_mut(leaf_id);
            leaf.card = nullable_card;
            leaf.leaf = Some(LeafInfo {
                name: ColRef::new(schema.name.clone(), col.name.clone()),
                ty: col.ty,
                not_null,
                check,
            });
        }
        Ok(())
    }

    fn classify_pred(&self, p: &Predicate, scope: &Scope) -> Result<Classified, AsgError> {
        let qualify = |path: &ufilter_xquery::PathExpr| -> Result<ColRef, AsgError> {
            let table = scope.table_of(&path.var).ok_or_else(|| {
                AsgError::new(format!("unbound variable ${} in predicate", path.var))
            })?;
            let attr = path
                .attribute()
                .ok_or_else(|| AsgError::new(format!("unsupported predicate path {path}")))?;
            let schema = self.schema.table(table).expect("bound");
            let col = schema.column_named(attr).ok_or_else(|| {
                AsgError::new(format!("relation {table} has no attribute {attr}"))
            })?;
            Ok(ColRef::new(schema.name.clone(), col.name.clone()))
        };
        // Aggregate comparisons (`$b/bid = max(…)`, `count(…) > 10`) gate
        // membership on a value no static probe can evaluate: record the
        // scans so the check pipeline classifies updates into (or onto) the
        // gated region conservatively. Any path side must still bind.
        let aggs = p.aggregates();
        if !aggs.is_empty() {
            let mut cols = Vec::new();
            for side in [&p.lhs, &p.rhs] {
                if let ufilter_xquery::Operand::Path(path) = side {
                    cols.push(qualify(path)?);
                }
            }
            return Ok(Classified::AggGate(
                aggs.into_iter().map(|a| self.agg_source(a)).collect::<Result<Vec<_>, _>>()?,
                cols,
            ));
        }
        if let Some((a, op, b)) = p.as_correlation() {
            if op != ufilter_rdb::CmpOp::Eq {
                // Non-equality correlations fall outside proper-Join
                // analysis; record both sides as a join condition anyway so
                // Rule 1 sees (and rejects) them.
            }
            return Ok(Classified::Join(JoinCond { left: qualify(a)?, right: qualify(b)? }));
        }
        if let Some((path, op, v)) = p.as_non_correlation() {
            return Ok(Classified::Local(LocalPred {
                column: qualify(path)?,
                op,
                value: v.clone(),
            }));
        }
        Err(AsgError::new(format!("unsupported predicate shape: {p}")))
    }
}

enum Classified {
    Join(JoinCond),
    Local(LocalPred),
    /// An aggregate-gated predicate: the scans it references plus the
    /// path-side columns it compares against them.
    AggGate(Vec<AggSource>, Vec<ColRef>),
}

/// `UPBinding(v)`: the relations owning the leaf attributes in `v`'s
/// subtree, ordered by `rel(DEF_V)` (§3.2's worked values). One bottom-up
/// pass: each node's relation set is its own leaf/aggregate relation merged
/// with its children's sets, so no subtree is walked twice.
fn compute_upbindings(asg: &mut ViewAsg) {
    // Sets hold ranks in `rel(DEF_V)`; `names` keeps each relation's
    // schema spelling, which is what the leaves carry.
    let order = asg.relations.clone();
    let mut names: Vec<Option<String>> = vec![None; order.len()];
    let mut below: Vec<Vec<usize>> = vec![Vec::new(); asg.len()];
    let tour = asg.tour();
    for &id in tour.order().iter().rev() {
        let node = asg.node(id);
        let mut set = Vec::new();
        // Aggregate values construct subtree content from their scanned
        // relation too.
        for table in
            node.leaf.iter().map(|l| &l.name.table).chain(node.agg.iter().map(|a| &a.table))
        {
            let rank = order
                .iter()
                .position(|o| o.eq_ignore_ascii_case(table))
                .expect("rel(DEF_V) lists every relation the view binds or aggregates");
            names[rank].get_or_insert_with(|| table.clone());
            set.push(rank);
        }
        for c in &node.children {
            set.append(&mut below[c.0]);
        }
        set.sort_unstable();
        set.dedup();
        if matches!(node.kind, AsgNodeKind::Root | AsgNodeKind::Internal) {
            let rels = set.iter().map(|&r| names[r].clone().expect("ranked from a leaf")).collect();
            asg.node_mut(id).upbinding = rels;
        }
        below[id.0] = set;
    }
}

/// The closure `v+` of a view-ASG node (§5.1.2): leaves of the subtree,
/// with `*`/`+` children as starred groups and `1`/`?` children flattened.
pub fn view_closure(asg: &ViewAsg, id: AsgNodeId) -> Closure {
    let tour = asg.tour();
    subtree_closures(asg, tour.subtree(id), |_, _| {})
}

/// Compute the closure of every node in `preorder` (one whole subtree, in
/// preorder) bottom-up in one pass: each child's closure is built once and
/// then moved into its parent's. `visit` sees every node's closure once, as
/// soon as it is complete; the subtree root's closure is returned.
pub fn subtree_closures(
    asg: &ViewAsg,
    preorder: &[AsgNodeId],
    mut visit: impl FnMut(AsgNodeId, &Closure),
) -> Closure {
    let mut memo: Vec<Option<Closure>> = vec![None; asg.len()];
    for &id in preorder.iter().rev() {
        let node = asg.node(id);
        let closure = if let Some(leaf) = &node.leaf {
            Closure::leaf(&format!("{}.{}", leaf.name.table, leaf.name.column))
        } else if let Some(agg) = &node.agg {
            // An aggregate value is a pseudo-leaf that no base-side closure
            // can ever contain, so any node whose closure includes it
            // compares non-equivalent to its mapping closure — conservatively
            // Dirty.
            Closure::leaf(&format!("agg:{agg}"))
        } else {
            let mut out = Closure::default();
            for c in &node.children {
                let cc = memo[c.0].take().expect("children follow their parent in preorder");
                if asg.node(*c).card.is_starred() {
                    out.add_group(cc);
                } else {
                    out.absorb(cc);
                }
            }
            out
        };
        visit(id, &closure);
        memo[id.0] = Some(closure);
    }
    memo[preorder[0].0].take().expect("the subtree root is visited last")
}
