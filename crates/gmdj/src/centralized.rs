//! Centralized reference evaluation of GMDJ expressions.
//!
//! Evaluates a whole [`GmdjExpr`] on a single site holding the entire detail
//! relation — the behaviour a conventional (non-distributed) OLAP engine
//! would produce. The distributed executor in `skalla-core` is validated
//! against this evaluator (paper Theorem 3: Alg. GMDJDistribEval computes
//! the same result).

use skalla_storage::Catalog;
use skalla_types::{Relation, Result, SkallaError};

use crate::eval::{eval_gmdj_full, EvalOptions};
use crate::op::{BaseSpec, GmdjExpr};

/// Evaluate `expr` against the tables in `catalog` (each detail name binds
/// to the full relation) on the row-at-a-time interpreter, so a
/// differential test against it checks the compiled kernels the sites run
/// rather than comparing them with themselves.
pub fn eval_expr_centralized(expr: &GmdjExpr, catalog: &Catalog) -> Result<Relation> {
    let opts = EvalOptions {
        compiled: false,
        ..Default::default()
    };
    eval_expr_centralized_opts(expr, catalog, &opts)
}

/// [`eval_expr_centralized`] with explicit evaluation options.
pub fn eval_expr_centralized_opts(
    expr: &GmdjExpr,
    catalog: &Catalog,
    opts: &EvalOptions,
) -> Result<Relation> {
    let default_detail = catalog.get(&expr.detail_name)?;

    let mut current: Relation = match &expr.base {
        BaseSpec::DistinctProject { cols } => default_detail.distinct_project(cols)?,
        BaseSpec::Relation(r) => r.clone(),
    };

    for (k, op) in expr.ops.iter().enumerate() {
        let detail = catalog.get(expr.detail_for_op(k))?;
        let (next, _) = eval_gmdj_full(&current, &detail, detail.schema(), op, opts)?;
        current = next;
    }

    // Sanity: the result has exactly as many tuples as the base-values
    // relation (a defining property of the GMDJ, paper §2.2).
    let expected = current.len();
    if expr.ops.is_empty() && expected == 0 {
        return Err(SkallaError::exec("empty GMDJ expression"));
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;
    use crate::op::{GmdjBlock, GmdjOp};
    use skalla_expr::Expr;
    use skalla_storage::Table;
    use skalla_types::{DataType, Schema, Value};

    fn catalog() -> Catalog {
        let schema = Schema::from_pairs([
            ("sas", DataType::Int64),
            ("das", DataType::Int64),
            ("nb", DataType::Int64),
        ])
        .unwrap()
        .into_arc();
        let flow = Table::from_rows(
            schema,
            &[
                vec![Value::Int(1), Value::Int(10), Value::Int(100)],
                vec![Value::Int(1), Value::Int(10), Value::Int(300)],
                vec![Value::Int(2), Value::Int(20), Value::Int(50)],
                vec![Value::Int(1), Value::Int(20), Value::Int(75)],
            ],
        )
        .unwrap();
        let mut c = Catalog::new();
        c.register("flow", flow);
        c
    }

    /// Paper Example 1: total flows and flows with NB ≥ average, per
    /// (SAS, DAS).
    fn example1() -> GmdjExpr {
        let md1 = GmdjOp::new(vec![GmdjBlock::new(
            vec![
                AggSpec::count_star("cnt1"),
                AggSpec::sum(Expr::detail(2), "sum1").unwrap(),
            ],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::base(1).eq(Expr::detail(1))),
        )]);
        let md2 = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("cnt2")],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::base(1).eq(Expr::detail(1)))
                .and(Expr::detail(2).ge(Expr::base(3).div(Expr::base(2)))),
        )]);
        GmdjExpr::new(
            BaseSpec::DistinctProject { cols: vec![0, 1] },
            "flow",
            vec![md1, md2],
            vec![0, 1],
        )
        .unwrap()
    }

    #[test]
    fn example1_end_to_end() {
        let out = eval_expr_centralized(&example1(), &catalog())
            .unwrap()
            .sorted();
        assert_eq!(
            out.schema().names(),
            vec!["sas", "das", "cnt1", "sum1", "cnt2"]
        );
        assert_eq!(
            out.row(0),
            &vec![
                Value::Int(1),
                Value::Int(10),
                Value::Int(2),
                Value::Int(400),
                Value::Int(1)
            ]
        );
        assert_eq!(
            out.row(1),
            &vec![
                Value::Int(1),
                Value::Int(20),
                Value::Int(1),
                Value::Int(75),
                Value::Int(1)
            ]
        );
        assert_eq!(
            out.row(2),
            &vec![
                Value::Int(2),
                Value::Int(20),
                Value::Int(1),
                Value::Int(50),
                Value::Int(1)
            ]
        );
    }

    #[test]
    fn result_has_one_row_per_base_tuple() {
        let c = catalog();
        let e = example1();
        let base_size = c
            .get("flow")
            .unwrap()
            .distinct_project(&[0, 1])
            .unwrap()
            .len();
        let out = eval_expr_centralized(&e, &c).unwrap();
        assert_eq!(out.len(), base_size);
    }

    #[test]
    fn explicit_base_relation_is_respected() {
        let c = catalog();
        let base_schema = Schema::from_pairs([("sas", DataType::Int64)])
            .unwrap()
            .into_arc();
        let base =
            Relation::new(base_schema, vec![vec![Value::Int(1)], vec![Value::Int(42)]]).unwrap();
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("c")],
            Expr::base(0).eq(Expr::detail(0)),
        )]);
        let e = GmdjExpr::new(BaseSpec::Relation(base), "flow", vec![op], vec![0]).unwrap();
        let out = eval_expr_centralized(&e, &c).unwrap().sorted();
        assert_eq!(out.row(0), &vec![Value::Int(1), Value::Int(3)]);
        assert_eq!(out.row(1), &vec![Value::Int(42), Value::Int(0)]);
    }

    #[test]
    fn missing_table_is_reported() {
        let e = example1();
        let empty = Catalog::new();
        assert!(eval_expr_centralized(&e, &empty).is_err());
    }
}
