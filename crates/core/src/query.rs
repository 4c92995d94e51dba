//! Declarative queries on view objects (paper §3's query model).
//!
//! A [`VoQuery`] attaches predicates to nodes of the object and may add
//! *cardinality conditions* over set-valued children (Figure 4's request —
//! "graduate courses with less than 5 students having enrolled" — is a
//! predicate on the pivot plus a count condition on the STUDENT node).
//!
//! Semantics:
//! - the **pivot predicate** selects candidate instances;
//! - a **node predicate** on a non-pivot node filters which child tuples
//!   are bound into the instance. When every edge from the pivot down to
//!   the node is direct, it also selects instances: an instance qualifies
//!   only if, before any pruning, it binds at least one tuple at that node
//!   that satisfies the predicate. Each such node is tested on its own.
//!   A predicate on a node behind a contracted edge only prunes;
//! - a **count condition** on a node keeps only instances where the total
//!   number of tuples bound to that node, after pruning, compares as
//!   required;
//! - an **exists condition** keeps only instances that bind at least one
//!   tuple to the node after pruning.
//!
//! The paper answers such a query by composing it with the object's
//! structure. [`VoQuery::execute_planned`] does that in three steps, with
//! the object plan the caller already holds:
//!
//! 1. **Pivot access path.** When the pivot predicate's top-level
//!    conjuncts bind every primary-key attribute by `=` to a literal of
//!    that attribute's declared type, one `Table::get` fetches the only
//!    candidate (a *point get*). Anything else reads the pivot relation in
//!    one scan that evaluates the predicate on each tuple, in primary-key
//!    order, and counts one full scan in [`vo_relational::stats`].
//! 2. **Binding.** The candidates are instantiated set-at-a-time by
//!    [`instantiate_many_planned`].
//! 3. **Filtering.** The node-predicate selection above, then pruning,
//!    count and exists conditions, `ORDER BY` and `LIMIT`.
//!
//! [`VoQuery::pivot_plan`] renders the same composition as one
//! relational plan that joins the direct-chain nodes. It is not on the
//! request path.

use crate::instance::{instantiate_many_planned, plan_object, ObjectPlan, VoInstance};
use crate::object::{NodeId, ViewObject};
use std::collections::BTreeMap;
use vo_relational::predicate::resolve_column;
use vo_relational::prelude::*;
use vo_structural::prelude::*;

/// Comparison applied by a count condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountCondition {
    /// The node whose bound-tuple count is tested.
    pub node: NodeId,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand count.
    pub count: usize,
}

impl CountCondition {
    fn holds(&self, n: usize) -> bool {
        let (a, b) = (n, self.count);
        match self.op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// A query over one view object.
#[derive(Debug, Clone, Default)]
pub struct VoQuery {
    /// Per-node tuple predicates (attribute names are the node relation's).
    pub node_predicates: BTreeMap<NodeId, Expr>,
    /// Cardinality conditions evaluated per instance.
    pub count_conditions: Vec<CountCondition>,
    /// Nodes that must bind at least one tuple.
    pub must_exist: Vec<NodeId>,
    /// Order instances by these pivot attributes (ascending).
    pub order_by: Vec<String>,
    /// Keep at most this many instances.
    pub limit: Option<usize>,
}

impl VoQuery {
    /// The empty query (selects every instance whole).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a predicate on `node`'s tuples.
    pub fn with_predicate(mut self, node: NodeId, pred: Expr) -> Self {
        let entry = self
            .node_predicates
            .remove(&node)
            .map(|e| e.and(pred.clone()))
            .unwrap_or(pred);
        self.node_predicates.insert(node, entry);
        self
    }

    /// Add a count condition on `node`.
    pub fn with_count(mut self, node: NodeId, op: CmpOp, count: usize) -> Self {
        self.count_conditions
            .push(CountCondition { node, op, count });
        self
    }

    /// Require at least one tuple bound to `node`.
    pub fn with_exists(mut self, node: NodeId) -> Self {
        self.must_exist.push(node);
        self
    }

    /// Order resulting instances by pivot attributes (ascending).
    pub fn with_order_by(mut self, attrs: &[&str]) -> Self {
        self.order_by.extend(attrs.iter().map(|s| (*s).to_owned()));
        self
    }

    /// Keep at most `n` instances.
    pub fn with_limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// The composition as one relational plan returning the *pivot keys*
    /// of candidate instances: the pivot predicate as a select, and each
    /// predicated or must-exist node reached through direct edges as a
    /// chain of joins. Count conditions and contracted nodes stay
    /// instance-side. Requests run [`VoQuery::execute_planned`] instead;
    /// this rendering shows what the composition means relationally.
    pub fn pivot_plan(&self, schema: &StructuralSchema, object: &ViewObject) -> Result<Plan> {
        let pivot_rel = object.pivot();
        let pivot_schema = schema.catalog().relation(pivot_rel)?;
        let mut plan = Plan::scan(pivot_rel);
        if let Some(pred) = self.node_predicates.get(&0) {
            plan = plan.select(qualify(pred, pivot_rel));
        }
        // join in each predicated or must-exist node connected by a chain
        // of direct edges to the pivot
        for node in object.nodes() {
            if node.id == 0 {
                continue;
            }
            let relevant =
                self.node_predicates.contains_key(&node.id) || self.must_exist.contains(&node.id);
            if !relevant {
                continue;
            }
            let Some(steps) = direct_chain(object, node.id) else {
                continue; // contracted edges are handled instance-side
            };
            let mut sub = plan;
            for step in steps {
                let t = step.resolve(schema)?;
                let on: Vec<(String, String)> = t
                    .source_attrs()
                    .iter()
                    .zip(t.target_attrs())
                    .map(|(a, b)| (format!("{}.{a}", t.source()), format!("{}.{b}", t.target())))
                    .collect();
                sub = sub.join(Plan::scan(t.target()), on);
            }
            if let Some(pred) = self.node_predicates.get(&node.id) {
                sub = sub.select(qualify(pred, &node.relation));
            }
            plan = sub;
        }
        let key_cols: Vec<String> = pivot_schema
            .key_names()
            .iter()
            .map(|k| format!("{pivot_rel}.{k}"))
            .collect();
        Ok(plan.project(key_cols).distinct())
    }

    /// Execute with an object plan prepared here by [`plan_object`].
    /// Callers that cache plans use [`VoQuery::execute_planned`].
    pub fn execute(
        &self,
        schema: &StructuralSchema,
        object: &ViewObject,
        db: &Database,
    ) -> Result<Vec<VoInstance>> {
        self.execute_planned(object, db, &plan_object(schema, object, db)?)
    }

    /// Execute with a prepared object plan: select the pivots (point get
    /// or counted scan), instantiate them with `plan`, then filter, order
    /// and limit (see the module docs).
    pub fn execute_planned(
        &self,
        object: &ViewObject,
        db: &Database,
        plan: &ObjectPlan,
    ) -> Result<Vec<VoInstance>> {
        let pivots = self.select_pivots(object, db)?;
        let instances = instantiate_many_planned(object, db, plan, &pivots)?;
        self.filter(object, db, instances, &self.node_filters(object, db)?)
    }

    /// The candidate pivot tuples, in primary-key order.
    fn select_pivots<'d>(&self, object: &ViewObject, db: &'d Database) -> Result<Vec<&'d Tuple>> {
        let table = db.table(object.pivot())?;
        // `relation.attribute` columns: the predicate resolves exactly as
        // it would in a select over the relation's scan
        let columns: Vec<String> = table
            .schema()
            .attributes()
            .iter()
            .map(|a| format!("{}.{}", object.pivot(), a.name))
            .collect();
        let pred = qualify(
            self.node_predicates.get(&0).unwrap_or(&Expr::True),
            object.pivot(),
        );
        let holds =
            |t: &Tuple| -> Result<bool> { Ok(pred.eval_truth(&columns, t.values())?.is_true()) };
        if let Some(key) = point_key(&pred, table.schema(), &columns) {
            return Ok(match table.get(&key) {
                Some(t) if holds(t)? => vec![t],
                _ => Vec::new(),
            });
        }
        vo_relational::stats::count_full_scan();
        let mut out = Vec::new();
        for t in table.scan() {
            if holds(t)? {
                out.push(t);
            }
        }
        Ok(out)
    }

    /// The non-pivot node predicates, resolved against their relations.
    fn node_filters(&self, object: &ViewObject, db: &Database) -> Result<Vec<NodeFilter<'_>>> {
        self.node_predicates
            .iter()
            .filter(|(&node, _)| node != 0)
            .map(|(&node, pred)| {
                let schema = db.table(&object.node(node).relation)?.schema();
                Ok(NodeFilter {
                    node,
                    pred,
                    columns: schema.attributes().iter().map(|a| a.name.clone()).collect(),
                    selects: direct_chain(object, node).is_some(),
                })
            })
            .collect()
    }

    /// Keep the instances that pass every selecting node filter, prune
    /// each filtered node's unmatched tuples, apply count/exists
    /// conditions, then order and limit.
    fn filter(
        &self,
        object: &ViewObject,
        db: &Database,
        instances: Vec<VoInstance>,
        filters: &[NodeFilter<'_>],
    ) -> Result<Vec<VoInstance>> {
        let mut out = Vec::new();
        'instances: for mut inst in instances {
            for f in filters.iter().filter(|f| f.selects) {
                if !f.bound_in(&inst)? {
                    continue 'instances;
                }
            }
            for f in filters {
                let mut err = None;
                prune_children(&mut inst.root, f.node, &mut |t: &Tuple| {
                    f.matches(t).unwrap_or_else(|e| {
                        err.get_or_insert(e);
                        false
                    })
                });
                if let Some(e) = err {
                    return Err(e);
                }
            }
            let counts_hold = self
                .count_conditions
                .iter()
                .all(|c| c.holds(inst.tuples_of(c.node).len()));
            if counts_hold
                && self
                    .must_exist
                    .iter()
                    .all(|&n| !inst.tuples_of(n).is_empty())
            {
                out.push(inst);
            }
        }
        if !self.order_by.is_empty() {
            let pivot_schema = db.table(object.pivot())?.schema();
            let idx: Vec<usize> = self
                .order_by
                .iter()
                .map(|a| pivot_schema.index_of(a))
                .collect::<Result<_>>()?;
            out.sort_by(|a, b| {
                idx.iter()
                    .map(|&i| a.root.tuple.get(i).cmp(b.root.tuple.get(i)))
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        if let Some(n) = self.limit {
            out.truncate(n);
        }
        Ok(out)
    }
}

/// A non-pivot node predicate with the column names of its relation.
struct NodeFilter<'q> {
    node: NodeId,
    pred: &'q Expr,
    columns: Vec<String>,
    /// Every edge from the pivot to the node is direct, so the predicate
    /// selects instances as well as pruning them.
    selects: bool,
}

impl NodeFilter<'_> {
    fn matches(&self, t: &Tuple) -> Result<bool> {
        Ok(self.pred.eval_truth(&self.columns, t.values())?.is_true())
    }

    /// True when `inst` binds at least one matching tuple at the node.
    fn bound_in(&self, inst: &VoInstance) -> Result<bool> {
        for t in inst.tuples_of(self.node) {
            if self.matches(t)? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// The key a (qualified) pivot predicate pins: every primary-key
/// attribute bound by a top-level `attribute = literal` conjunct whose
/// literal has the attribute's declared type. `None` sends the query to
/// the scan, as does a reference to a column the relation lacks (the scan
/// reports that error exactly as the relational select would).
fn point_key(pred: &Expr, schema: &RelationSchema, columns: &[String]) -> Option<Key> {
    let resolves = |c: &str| resolve_column(columns, c).ok();
    if schema.key_indices().is_empty()
        || pred
            .referenced_columns()
            .into_iter()
            .any(|c| resolves(c).is_none())
    {
        return None;
    }
    let mut conjuncts = Vec::new();
    flatten_and(pred, &mut conjuncts);
    let values = schema.key_indices().iter().map(|&k| {
        let ty = schema.attributes()[k].ty;
        conjuncts.iter().find_map(|c| match c {
            Expr::Cmp(CmpOp::Eq, l, r) => match (l.as_ref(), r.as_ref()) {
                (Expr::Attr(a), Expr::Lit(v)) | (Expr::Lit(v), Expr::Attr(a))
                    if v.data_type() == Some(ty) && resolves(a) == Some(k) =>
                {
                    Some(v.clone())
                }
                _ => None,
            },
            _ => None,
        })
    });
    values.collect::<Option<Vec<Value>>>().map(Key::new)
}

fn flatten_and<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::And(l, r) => {
            flatten_and(l, out);
            flatten_and(r, out);
        }
        other => out.push(other),
    }
}

/// Keep only children of `node_id` anywhere in the subtree whose tuple
/// passes `keep`.
fn prune_children(
    inst: &mut crate::instance::VoInstanceNode,
    node_id: NodeId,
    keep: &mut dyn FnMut(&Tuple) -> bool,
) {
    for (_, children) in inst.children.iter_mut() {
        children.retain(|c| c.node != node_id || keep(&c.tuple));
        for c in children.iter_mut() {
            prune_children(c, node_id, keep);
        }
    }
}

/// The steps from the pivot to `node` when *every* edge on the way is
/// direct; `None` if any edge is contracted.
fn direct_chain(object: &ViewObject, node: NodeId) -> Option<Vec<crate::object::Step>> {
    let mut rev: Vec<crate::object::Step> = Vec::new();
    let mut at = node;
    while let Some(parent) = object.node(at).parent {
        let edge = object.node(at).edge.as_ref()?;
        if !edge.is_direct() {
            return None;
        }
        rev.push(edge.steps[0].clone());
        at = parent;
    }
    rev.reverse();
    Some(rev)
}

/// Qualify an expression's bare attribute references with a relation name
/// so it can run over scan output (`rel.attr` columns).
fn qualify(expr: &Expr, relation: &str) -> Expr {
    match expr {
        Expr::Attr(a) => {
            if a.contains('.') {
                Expr::Attr(a.clone())
            } else {
                Expr::Attr(format!("{relation}.{a}"))
            }
        }
        Expr::Lit(v) => Expr::Lit(v.clone()),
        Expr::Cmp(op, l, r) => Expr::Cmp(
            *op,
            Box::new(qualify(l, relation)),
            Box::new(qualify(r, relation)),
        ),
        Expr::And(l, r) => qualify(l, relation).and(qualify(r, relation)),
        Expr::Or(l, r) => qualify(l, relation).or(qualify(r, relation)),
        Expr::Not(e) => qualify(e, relation).not(),
        Expr::IsNull(e) => qualify(e, relation).is_null(),
        Expr::True => Expr::True,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treegen::{generate_omega, generate_omega_prime};
    use crate::university::university_database;

    fn node_id(o: &ViewObject, rel: &str) -> NodeId {
        o.nodes().iter().find(|n| n.relation == rel).unwrap().id
    }

    #[test]
    fn figure_4_query_returns_cs345() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let stu = node_id(&omega, "STUDENT");
        // graduate courses with fewer than 5 students enrolled
        let q = VoQuery::new()
            .with_predicate(0, Expr::attr("level").eq(Expr::lit("graduate")))
            .with_count(stu, CmpOp::Lt, 5);
        let hits = q.execute(&schema, &omega, &db).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key(&schema, &omega).unwrap(), Key::single("CS345"));
    }

    #[test]
    fn empty_query_returns_everything() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let hits = VoQuery::new().execute(&schema, &omega, &db).unwrap();
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn child_predicate_prunes_children_not_instances() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let gra = node_id(&omega, "GRADES");
        let q = VoQuery::new().with_predicate(gra, Expr::attr("grade").eq(Expr::lit("A")));
        let hits = q.execute(&schema, &omega, &db).unwrap();
        // CS101 instance survives (joins via plan) only if it has an A — it
        // has only Bs, so the join filters it out of candidates
        let ids: Vec<Key> = hits
            .iter()
            .map(|h| h.key(&schema, &omega).unwrap())
            .collect();
        assert!(ids.contains(&Key::single("CS345")));
        assert!(ids.contains(&Key::single("EE282")));
        assert!(!ids.contains(&Key::single("CS101")));
        // and the CS345 instance carries only its A grades
        let cs345 = hits
            .iter()
            .find(|h| h.key(&schema, &omega).unwrap() == Key::single("CS345"))
            .unwrap();
        assert_eq!(cs345.tuples_of(gra).len(), 3);
    }

    #[test]
    fn count_condition_operators() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let stu = node_id(&omega, "STUDENT");
        let count = |op, n| {
            VoQuery::new()
                .with_count(stu, op, n)
                .execute(&schema, &omega, &db)
                .unwrap()
                .len()
        };
        assert_eq!(count(CmpOp::Eq, 3), 1); // CS345
        assert_eq!(count(CmpOp::Ge, 6), 2); // CS101 (8), EE282 (6)
        assert_eq!(count(CmpOp::Ne, 3), 2);
        assert_eq!(count(CmpOp::Le, 8), 3);
        assert_eq!(count(CmpOp::Gt, 8), 0);
    }

    #[test]
    fn must_exist_filters() {
        let (schema, mut db) = university_database();
        db.insert(
            "COURSES",
            vec!["X1".into(), "Empty".into(), "graduate".into(), Value::Null],
        )
        .unwrap();
        let omega = generate_omega(&schema).unwrap();
        let gra = node_id(&omega, "GRADES");
        let q = VoQuery::new().with_exists(gra);
        let hits = q.execute(&schema, &omega, &db).unwrap();
        assert_eq!(hits.len(), 3); // X1 excluded
    }

    #[test]
    fn predicate_on_contracted_node_filters_instance_side() {
        let (schema, db) = university_database();
        let op = generate_omega_prime(&schema).unwrap();
        let stu = node_id(&op, "STUDENT");
        let q =
            VoQuery::new().with_predicate(stu, Expr::attr("degree_program").eq(Expr::lit("PhD")));
        let hits = q.execute(&schema, &op, &db).unwrap();
        // every course instance remains, but only PhD students are bound
        for h in &hits {
            for t in h.tuples_of(stu) {
                let sschema = db.table("STUDENT").unwrap().schema().clone();
                assert_eq!(
                    t.get_named(&sschema, "degree_program").unwrap(),
                    &Value::text("PhD")
                );
            }
        }
    }

    #[test]
    fn pivot_plan_composes_joins() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let gra = node_id(&omega, "GRADES");
        let q = VoQuery::new()
            .with_predicate(0, Expr::attr("level").eq(Expr::lit("graduate")))
            .with_predicate(gra, Expr::attr("grade").eq(Expr::lit("A")));
        let plan = q.pivot_plan(&schema, &omega).unwrap();
        assert!(plan.relations().contains(&"GRADES"));
        let rs = db.execute(&plan).unwrap();
        assert_eq!(rs.len(), 2); // CS345 and EE282 have A grades and are graduate
    }

    #[test]
    fn conjunction_of_predicates_on_same_node() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let q = VoQuery::new()
            .with_predicate(0, Expr::attr("level").eq(Expr::lit("graduate")))
            .with_predicate(0, Expr::attr("dept_name").eq(Expr::lit("Computer Science")));
        let hits = q.execute(&schema, &omega, &db).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn child_predicates_select_independently() {
        // X9 has an A grade from an MS student and a B grade from a PhD
        // student: it binds an A grade and it binds a PhD student, but no A
        // grade of a PhD student
        let (schema, mut db) = university_database();
        db.insert(
            "COURSES",
            vec![
                "X9".into(),
                "Seminar".into(),
                "graduate".into(),
                Value::Null,
            ],
        )
        .unwrap();
        db.insert("GRADES", vec!["X9".into(), 2.into(), "A".into()])
            .unwrap();
        db.insert("GRADES", vec!["X9".into(), 1.into(), "B".into()])
            .unwrap();
        let omega = generate_omega(&schema).unwrap();
        let (gra, stu) = (node_id(&omega, "GRADES"), node_id(&omega, "STUDENT"));
        let q = VoQuery::new()
            .with_predicate(0, Expr::attr("course_id").eq(Expr::lit("X9")))
            .with_predicate(gra, Expr::attr("grade").eq(Expr::lit("A")))
            .with_predicate(stu, Expr::attr("degree_program").eq(Expr::lit("PhD")));
        let hits = q.execute(&schema, &omega, &db).unwrap();
        assert_eq!(hits.len(), 1);
        // pruning keeps the A grade; its student is MS and goes
        assert_eq!(hits[0].tuples_of(gra).len(), 1);
        assert!(hits[0].tuples_of(stu).is_empty());
        // the joined composition binds GRADES once for both nodes, so it
        // asks for an A grade of a PhD student and finds none
        let keys = db.execute(&q.pivot_plan(&schema, &omega).unwrap()).unwrap();
        assert!(keys.rows.is_empty());
    }

    #[test]
    fn key_equality_is_a_point_get_and_other_selections_scan() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let plan = plan_object(&schema, &omega, &db).unwrap();
        let scans = |q: VoQuery| {
            let before = vo_relational::stats::snapshot().full_scans;
            let n = q.execute_planned(&omega, &db, &plan).unwrap().len();
            (n, vo_relational::stats::snapshot().full_scans - before)
        };
        let key =
            |v: Value| VoQuery::new().with_predicate(0, Expr::attr("course_id").eq(Expr::Lit(v)));
        // other tests may scan concurrently, so only the scan side can be
        // checked exactly here: it is never zero
        assert_eq!(scans(key("CS345".into())).0, 1);
        assert_eq!(scans(key("nope".into())).0, 0);
        let (n, s) = scans(key(5.into()));
        assert_eq!((n, s >= 1), (0, true), "a wrong-typed literal scans");
        let (n, s) =
            scans(VoQuery::new().with_predicate(0, Expr::attr("level").eq(Expr::lit("graduate"))));
        assert_eq!((n, s >= 1), (2, true));
        assert!(point_key(
            &qualify(&Expr::attr("course_id").eq(Expr::lit("CS345")), "COURSES"),
            db.table("COURSES").unwrap().schema(),
            &[
                "COURSES.course_id".into(),
                "COURSES.title".into(),
                "COURSES.level".into(),
                "COURSES.dept_name".into()
            ],
        )
        .is_some());
    }

    /// The read path this module had before pivot selection moved to
    /// point gets and counted scans, kept as the oracle: the composed
    /// relational plan selects the pivot keys, the same engine
    /// instantiates them, and the same filter runs with the node-predicate
    /// selection left to the plan's joins.
    fn composed_oracle(
        q: &VoQuery,
        schema: &StructuralSchema,
        object: &ViewObject,
        db: &Database,
        plan: &ObjectPlan,
    ) -> Vec<VoInstance> {
        let keys = db.execute(&q.pivot_plan(schema, object).unwrap()).unwrap();
        let pivot = db.table(object.pivot()).unwrap();
        let candidates: Vec<&Tuple> = keys
            .rows
            .iter()
            .filter_map(|row| pivot.get(&Key::new(row.clone())))
            .collect();
        let instances = instantiate_many_planned(object, db, plan, &candidates).unwrap();
        let mut filters = q.node_filters(object, db).unwrap();
        for f in &mut filters {
            f.selects = false;
        }
        q.filter(object, db, instances, &filters).unwrap()
    }

    /// True when the composed plan binds one relation at two places (the
    /// pivot plus every relation on each joined chain, in join order).
    /// Its predicates then resolve against the first binding, so nodes
    /// stop being tested independently and the oracle does not apply.
    fn composition_rebinds_a_relation(q: &VoQuery, object: &ViewObject) -> bool {
        let mut bound = vec![object.pivot().to_owned()];
        for node in object.nodes().iter().skip(1) {
            if !q.node_predicates.contains_key(&node.id) && !q.must_exist.contains(&node.id) {
                continue;
            }
            let mut chain = Vec::new();
            let mut at = node.id;
            while let Some(parent) = object.node(at).parent {
                chain.push(object.node(at).relation.clone());
                at = parent;
            }
            if direct_chain(object, node.id).is_some() {
                bound.extend(chain.into_iter().rev());
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        !bound.iter().all(|r| seen.insert(r))
    }

    fn random_tuple<'d>(rng: &mut SmallRng, db: &'d Database, rel: &str) -> &'d Tuple {
        let t = db.table(rel).unwrap();
        t.scan().nth(rng.gen_range(0..t.len())).unwrap()
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// A seeded query over `object` whose literals come from the data.
    fn random_query(rng: &mut SmallRng, object: &ViewObject, db: &Database) -> VoQuery {
        let course = random_tuple(rng, db, "COURSES").clone();
        let id = Expr::attr("course_id");
        let pivot = match rng.gen_range(0..7) {
            0 => None,
            1 => Some(id.eq(Expr::Lit(course.get(0).clone()))),
            2 => Some(id.eq(Expr::lit("C99-9"))),
            3 => Some(id.eq(Expr::lit(rng.gen_range_i64(0..3)))), // wrong type
            4 => {
                let a = ["level", "dept_name"][rng.gen_range(0..2)];
                let i = if a == "level" { 2 } else { 3 };
                Some(Expr::attr(a).eq(Expr::Lit(course.get(i).clone())))
            }
            5 => {
                let i = rng.gen_range(0..4);
                let attr = ["course_id", "title", "level", "dept_name"][i];
                let op = OPS[rng.gen_range(2..6)];
                Some(Expr::Cmp(
                    op,
                    Box::new(Expr::attr(attr)),
                    Box::new(Expr::Lit(course.get(i).clone())),
                ))
            }
            _ => {
                // the level of another course: the key may be pinned
                // while the rest of the predicate fails
                let other = random_tuple(rng, db, "COURSES");
                Some(
                    Expr::attr("level")
                        .eq(Expr::Lit(other.get(2).clone()))
                        .and(id.eq(Expr::Lit(course.get(0).clone()))),
                )
            }
        };
        let mut q = VoQuery::new();
        if let Some(p) = pivot {
            q = q.with_predicate(0, p);
        }
        let n = object.nodes().len();
        for _ in 0..rng.gen_range(0..3) {
            let node = object.node(1 + rng.gen_range(0..n - 1));
            let t = random_tuple(rng, db, &node.relation);
            let schema = db.table(&node.relation).unwrap().schema();
            let i = rng.gen_range(0..t.values().len());
            let pred = Expr::Cmp(
                OPS[rng.gen_range(0..6)],
                Box::new(Expr::attr(schema.attributes()[i].name.clone())),
                Box::new(Expr::Lit(t.get(i).clone())),
            );
            q = q.with_predicate(node.id, pred);
        }
        if rng.gen_range(0..4) == 0 {
            q = q.with_exists(1 + rng.gen_range(0..n - 1));
        }
        if rng.gen_range(0..4) == 0 {
            let node = 1 + rng.gen_range(0..n - 1);
            q = q.with_count(node, OPS[rng.gen_range(0..6)], rng.gen_range(0..6));
        }
        if rng.gen_range(0..3) == 0 {
            q = q.with_order_by(&[["title", "level", "dept_name"][rng.gen_range(0..3)]]);
        }
        if rng.gen_range(0..3) == 0 {
            q = q.with_limit(rng.gen_range(0..12));
        }
        q
    }

    #[test]
    fn execute_matches_the_composed_plan_on_seeded_queries() {
        let (schema, db) = crate::university::university_scaled(6, 7);
        let objects = [
            generate_omega(&schema).unwrap(),
            generate_omega_prime(&schema).unwrap(),
        ];
        let plans: Vec<ObjectPlan> = objects
            .iter()
            .map(|o| plan_object(&schema, o, &db).unwrap())
            .collect();
        let render =
            |v: &[VoInstance]| Json::Arr(v.iter().map(|i| i.to_json()).collect()).compact();
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let (mut compared, mut rebinding, mut nonempty) = (0, 0, 0);
        let mut seen = BTreeMap::<&str, usize>::new();
        for i in 0..400 {
            let (object, plan) = (&objects[i % 2], &plans[i % 2]);
            let q = random_query(&mut rng, object, &db);
            let got = q.execute_planned(object, &db, plan).unwrap();
            if composition_rebinds_a_relation(&q, object) {
                rebinding += 1;
                continue;
            }
            let want = composed_oracle(&q, &schema, object, &db, plan);
            assert_eq!(render(&got), render(&want), "query {i}: {q:?}");
            compared += 1;
            nonempty += usize::from(!got.is_empty());
            let pivot = q
                .node_predicates
                .get(&0)
                .map(|p| p.to_string())
                .unwrap_or_default();
            for (tag, hit) in [
                ("key", pivot.contains("course_id =")),
                (
                    "wrong-typed key",
                    pivot.contains("course_id = 0")
                        || pivot.contains("course_id = 1")
                        || pivot.contains("course_id = 2"),
                ),
                (
                    "non-key",
                    !pivot.is_empty() && !pivot.contains("course_id ="),
                ),
                (
                    "direct child",
                    q.node_predicates
                        .keys()
                        .any(|&n| n != 0 && direct_chain(object, n).is_some()),
                ),
                (
                    "contracted child",
                    q.node_predicates
                        .keys()
                        .any(|&n| n != 0 && direct_chain(object, n).is_none()),
                ),
                ("exists", !q.must_exist.is_empty()),
                ("count", !q.count_conditions.is_empty()),
                ("order", !q.order_by.is_empty()),
                ("limit", q.limit.is_some()),
            ] {
                *seen.entry(tag).or_default() += usize::from(hit);
            }
        }
        assert!(
            compared >= 200,
            "only {compared} queries compared ({rebinding} rebinding)"
        );
        assert!(
            nonempty >= compared / 4,
            "{nonempty} of {compared} queries returned instances"
        );
        assert!(
            seen.values().all(|&n| n > 0),
            "uncovered query shapes: {seen:?}"
        );
    }
}
