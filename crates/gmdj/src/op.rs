//! The GMDJ operator and chained GMDJ expressions.

use std::fmt;
use std::sync::Arc;

use skalla_expr::{analysis, Expr};
use skalla_types::{DataType, Field, Relation, Result, Schema, SkallaError};

use crate::agg::AggSpec;

/// Name of the piggybacked `COUNT(*) WHERE θ₁ ∨ … ∨ θₘ` column used for
/// distribution-independent group reduction (paper Proposition 1): a site
/// ships only base tuples whose match count is positive.
pub const MATCH_COUNT_COL: &str = "__rng_count";

/// One `(lᵢ, θᵢ)` pair of a GMDJ: a list of aggregates all guarded by the
/// same condition.
#[derive(Debug, Clone, PartialEq)]
pub struct GmdjBlock {
    /// The aggregates `lᵢ = (fᵢ₁, …, fᵢₙ)`.
    pub aggs: Vec<AggSpec>,
    /// The condition `θᵢ(b, r)`.
    pub theta: Expr,
}

impl GmdjBlock {
    /// Construct a block.
    pub fn new(aggs: Vec<AggSpec>, theta: Expr) -> GmdjBlock {
        GmdjBlock { aggs, theta }
    }
}

/// One `MD(B, R, (l₁, …, lₘ), (θ₁, …, θₘ))` application (paper
/// Definition 1). The base `B` and detail `R` are supplied at evaluation
/// time; the operator is the list of blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct GmdjOp {
    /// The blocks `(lᵢ, θᵢ)`.
    pub blocks: Vec<GmdjBlock>,
    /// Detail-table override for this operator. `None` uses the expression's
    /// default detail relation (the common case; the paper notes the detail
    /// relation *may* change between rounds).
    pub detail_name: Option<String>,
}

impl GmdjOp {
    /// An operator with the expression's default detail relation.
    pub fn new(blocks: Vec<GmdjBlock>) -> GmdjOp {
        GmdjOp {
            blocks,
            detail_name: None,
        }
    }

    /// An operator reading a specific detail table.
    pub fn with_detail(blocks: Vec<GmdjBlock>, detail: impl Into<String>) -> GmdjOp {
        GmdjOp {
            blocks,
            detail_name: Some(detail.into()),
        }
    }

    /// All conditions `θ₁, …, θₘ`.
    pub fn thetas(&self) -> Vec<&Expr> {
        self.blocks.iter().map(|b| &b.theta).collect()
    }

    /// All aggregate specs, in block order.
    pub fn all_aggs(&self) -> impl Iterator<Item = &AggSpec> {
        self.blocks.iter().flat_map(|b| b.aggs.iter())
    }

    /// Total number of aggregates.
    pub fn num_aggs(&self) -> usize {
        self.blocks.iter().map(|b| b.aggs.len()).sum()
    }

    /// The finalized output fields appended to the base schema by this
    /// operator.
    pub fn output_fields(&self, detail: &Schema) -> Result<Vec<Field>> {
        self.all_aggs().map(|a| a.output_field(detail)).collect()
    }

    /// The sub-aggregate state fields shipped during distributed rounds.
    pub fn state_fields(&self, detail: &Schema) -> Result<Vec<Field>> {
        let mut out = Vec::new();
        for a in self.all_aggs() {
            out.extend(a.state_fields(detail)?);
        }
        Ok(out)
    }

    /// Total state width (columns) across all aggregates.
    pub fn state_width(&self) -> usize {
        self.all_aggs().map(|a| a.state_width()).sum()
    }

    /// The columns of an `ncols`-wide detail relation this operator reads
    /// — every θ and every aggregate argument — as a
    /// [`skalla_storage::projection`], and the operator rewritten onto
    /// that projection. A projected scan decodes `cols` and evaluates the
    /// rewritten operator over them, with the same result as the original
    /// over every column. A column out of range is a schema error.
    pub fn project_detail(&self, ncols: usize) -> Result<(Vec<usize>, GmdjOp)> {
        let mut used = Vec::new();
        for b in &self.blocks {
            used.extend(analysis::detail_cols_used(&b.theta));
            for e in b.aggs.iter().filter_map(|a| a.arg.as_ref()) {
                used.extend(analysis::detail_cols_used(e));
            }
        }
        let (cols, at) = skalla_storage::projection(&used, ncols);
        if at.contains(&None) {
            return Err(SkallaError::schema(format!(
                "operator reads a detail column out of {ncols}: {used:?}"
            )));
        }
        let to_projected = |c: usize| cols.binary_search(&c).expect("collected above");
        let remap = |e: &Expr| e.remap_cols(None, Some(&to_projected));
        let blocks = self
            .blocks
            .iter()
            .map(|b| GmdjBlock {
                aggs: b
                    .aggs
                    .iter()
                    .map(|a| AggSpec {
                        arg: a.arg.as_ref().map(remap),
                        ..a.clone()
                    })
                    .collect(),
                theta: remap(&b.theta),
            })
            .collect();
        let op = GmdjOp {
            blocks,
            detail_name: self.detail_name.clone(),
        };
        Ok((cols, op))
    }
}

impl fmt::Display for GmdjOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MD[")?;
        for (i, b) in self.blocks.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            for (j, a) in b.aggs.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, " WHERE {}", b.theta)?;
        }
        write!(f, "]")
    }
}

/// How the initial base-values relation `B₀` is obtained.
#[derive(Debug, Clone, PartialEq)]
pub enum BaseSpec {
    /// `B₀ = π_cols(R)` (distinct projection of the detail relation) — the
    /// shape of the paper's Example 1 and the precondition of
    /// Proposition 2's base-synchronization elimination.
    DistinctProject {
        /// Column indices of the detail relation to project.
        cols: Vec<usize>,
    },
    /// An explicit base-values relation supplied by the client (e.g. a
    /// dimension table held at the coordinator).
    Relation(Relation),
}

/// A chained GMDJ expression
/// `MDₙ(⋯ MD₁(B₀, R, l̄₁, θ̄₁) ⋯, R, l̄ₙ, θ̄ₙ)` over a named detail
/// relation, with declared key attributes `K ⊆ B₀`.
#[derive(Debug, Clone, PartialEq)]
pub struct GmdjExpr {
    /// How to compute `B₀`.
    pub base: BaseSpec,
    /// Default detail relation name (each site binds it to its local
    /// partition).
    pub detail_name: String,
    /// The chained operators `MD₁, …, MDₙ` (at least one).
    pub ops: Vec<GmdjOp>,
    /// Key column indices of `B₀` (uniquely determining a base tuple; used
    /// for synchronization, paper Theorem 1).
    pub key: Vec<usize>,
}

impl GmdjExpr {
    /// Construct and sanity-check an expression.
    pub fn new(
        base: BaseSpec,
        detail_name: impl Into<String>,
        ops: Vec<GmdjOp>,
        key: Vec<usize>,
    ) -> Result<GmdjExpr> {
        if ops.is_empty() {
            return Err(SkallaError::plan(
                "GMDJ expression needs at least one operator",
            ));
        }
        let base_width = match &base {
            BaseSpec::DistinctProject { cols } => cols.len(),
            BaseSpec::Relation(r) => r.schema().len(),
        };
        if key.iter().any(|&k| k >= base_width) {
            return Err(SkallaError::plan("key column out of base-relation range"));
        }
        Ok(GmdjExpr {
            base,
            detail_name: detail_name.into(),
            ops,
            key,
        })
    }

    /// Schema of `B₀` given the detail schema.
    pub fn base_schema(&self, detail: &Schema) -> Result<Schema> {
        match &self.base {
            BaseSpec::DistinctProject { cols } => detail.project(cols),
            BaseSpec::Relation(r) => Ok((**r.schema()).clone()),
        }
    }

    /// Schema of `B_k` — the base relation after applying the first `k`
    /// operators (finalized outputs appended). `k = 0` gives `B₀`.
    pub fn base_schema_after(&self, detail: &Schema, k: usize) -> Result<Schema> {
        let mut schema = self.base_schema(detail)?;
        for op in &self.ops[..k] {
            schema = schema.extended(&op.output_fields(detail)?)?;
        }
        Ok(schema)
    }

    /// Schema of the final result.
    pub fn output_schema(&self, detail: &Schema) -> Result<Schema> {
        self.base_schema_after(detail, self.ops.len())
    }

    /// Validate the whole expression against a detail schema: every θ and
    /// aggregate argument must typecheck against the base schema at its
    /// round.
    pub fn validate(&self, detail: &Schema) -> Result<()> {
        for (k, op) in self.ops.iter().enumerate() {
            let base_k = self.base_schema_after(detail, k)?;
            for block in &op.blocks {
                let t = skalla_expr::typecheck::infer_type(&block.theta, &base_k, detail)?;
                if t != DataType::Bool {
                    return Err(SkallaError::type_error(format!(
                        "condition `{}` has type {t}, expected BOOL",
                        block.theta
                    )));
                }
                for a in &block.aggs {
                    a.output_type(detail)?;
                }
            }
        }
        // Output names must be unique overall.
        let out = self.output_schema(detail)?;
        let _ = out;
        Ok(())
    }

    /// Number of GMDJ operators (`m` in the paper; evaluation uses `m + 1`
    /// rounds without optimizations).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// The detail table name used by operator `k`.
    pub fn detail_for_op(&self, k: usize) -> &str {
        self.ops[k]
            .detail_name
            .as_deref()
            .unwrap_or(&self.detail_name)
    }

    /// Convenience: the `Arc`'d output schema.
    pub fn output_schema_arc(&self, detail: &Schema) -> Result<Arc<Schema>> {
        Ok(Arc::new(self.output_schema(detail)?))
    }
}

impl fmt::Display for GmdjExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.base {
            BaseSpec::DistinctProject { cols } => {
                write!(f, "B0 = distinct π{cols:?}({})", self.detail_name)?
            }
            BaseSpec::Relation(r) => write!(f, "B0 = <relation, {} rows>", r.len())?,
        }
        for (i, op) in self.ops.iter().enumerate() {
            write!(f, " |> MD{}{}", i + 1, op)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use skalla_types::DataType;

    fn detail() -> Schema {
        Schema::from_pairs([
            ("sas", DataType::Int64),
            ("das", DataType::Int64),
            ("nb", DataType::Int64),
        ])
        .unwrap()
    }

    #[test]
    fn project_detail_collects_and_remaps_detail_columns() {
        // θ reads detail columns 4 and 1, the aggregate argument column 6.
        let op = GmdjOp::with_detail(
            vec![GmdjBlock::new(
                vec![
                    AggSpec::count_star("n"),
                    AggSpec::sum(Expr::detail(6).mul(Expr::lit(2)), "s").unwrap(),
                ],
                Expr::base(0)
                    .eq(Expr::detail(4))
                    .and(Expr::detail(1).gt(Expr::base(1))),
            )],
            "other",
        );
        let (cols, projected) = op.project_detail(7).unwrap();
        assert_eq!(cols, vec![1, 4, 6]);
        let want = GmdjOp::with_detail(
            vec![GmdjBlock::new(
                vec![
                    AggSpec::count_star("n"),
                    AggSpec::sum(Expr::detail(2).mul(Expr::lit(2)), "s").unwrap(),
                ],
                Expr::base(0)
                    .eq(Expr::detail(1))
                    .and(Expr::detail(0).gt(Expr::base(1))),
            )],
            "other",
        );
        assert_eq!(projected, want);
        // An operator that reads no detail column projects onto none.
        let base_only = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("n")],
            Expr::base(0).gt(Expr::lit(1)),
        )]);
        let (cols, projected) = base_only.project_detail(7).unwrap();
        assert!(cols.is_empty());
        assert_eq!(projected, base_only);
        // A detail column past the relation's width is an error.
        assert!(op.project_detail(6).is_err());
    }

    /// The paper's Example 1 expression.
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
        // θ₂ references sum1/cnt1 (base cols 2, 3 after MD₁).
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
    fn schema_evolution_example1() {
        let e = example1();
        let d = detail();
        assert_eq!(e.base_schema(&d).unwrap().names(), vec!["sas", "das"]);
        assert_eq!(
            e.base_schema_after(&d, 1).unwrap().names(),
            vec!["sas", "das", "cnt1", "sum1"]
        );
        assert_eq!(
            e.output_schema(&d).unwrap().names(),
            vec!["sas", "das", "cnt1", "sum1", "cnt2"]
        );
        e.validate(&d).unwrap();
        assert_eq!(e.num_ops(), 2);
    }

    #[test]
    fn validation_catches_type_errors() {
        let d = detail();
        // θ references sum1 before it exists (base col 2 in round 1 of a
        // 2-column base).
        let md1 = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("c")],
            Expr::base(2).gt(Expr::lit(0)),
        )]);
        let e = GmdjExpr::new(
            BaseSpec::DistinctProject { cols: vec![0, 1] },
            "flow",
            vec![md1],
            vec![0],
        )
        .unwrap();
        assert!(e.validate(&d).is_err());

        // Non-boolean θ.
        let md = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("c")],
            Expr::detail(2).add(Expr::lit(1)),
        )]);
        let e = GmdjExpr::new(
            BaseSpec::DistinctProject { cols: vec![0] },
            "flow",
            vec![md],
            vec![0],
        )
        .unwrap();
        assert!(e.validate(&d).is_err());
    }

    #[test]
    fn construction_guards() {
        assert!(GmdjExpr::new(
            BaseSpec::DistinctProject { cols: vec![0] },
            "flow",
            vec![],
            vec![0]
        )
        .is_err());
        assert!(GmdjExpr::new(
            BaseSpec::DistinctProject { cols: vec![0] },
            "flow",
            vec![GmdjOp::new(vec![])],
            vec![5]
        )
        .is_err());
    }

    #[test]
    fn op_accessors() {
        let e = example1();
        let d = detail();
        let op = &e.ops[0];
        assert_eq!(op.num_aggs(), 2);
        assert_eq!(op.state_width(), 2); // count + sum, both width 1
        assert_eq!(op.thetas().len(), 1);
        assert_eq!(op.output_fields(&d).unwrap().len(), 2);
        assert_eq!(op.state_fields(&d).unwrap().len(), 2);
        assert_eq!(e.detail_for_op(0), "flow");

        let avg_op = GmdjOp::with_detail(
            vec![GmdjBlock::new(
                vec![AggSpec::new(AggFunc::Avg, Expr::detail(2), "a").unwrap()],
                Expr::lit(true),
            )],
            "other",
        );
        assert_eq!(avg_op.state_width(), 2);
        let e2 = GmdjExpr::new(
            BaseSpec::DistinctProject { cols: vec![0] },
            "flow",
            vec![avg_op],
            vec![0],
        )
        .unwrap();
        assert_eq!(e2.detail_for_op(0), "other");
    }

    #[test]
    fn explicit_base_relation() {
        let rel_schema = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        let rel = Relation::empty(rel_schema);
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("c")],
            Expr::base(0).eq(Expr::detail(0)),
        )]);
        let e = GmdjExpr::new(BaseSpec::Relation(rel), "flow", vec![op], vec![0]).unwrap();
        let d = detail();
        assert_eq!(e.base_schema(&d).unwrap().names(), vec!["k"]);
        e.validate(&d).unwrap();
    }

    #[test]
    fn display_mentions_structure() {
        let e = example1();
        let s = e.to_string();
        assert!(s.contains("B0 = distinct"));
        assert!(s.contains("MD1"));
        assert!(s.contains("MD2"));
        assert!(s.contains("COUNT(*) AS cnt1"));
    }
}
