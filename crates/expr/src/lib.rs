#![warn(missing_docs)]

//! # skalla-expr
//!
//! The scalar expression language used by Skalla GMDJ conditions and
//! aggregate arguments, together with the static analyses that drive the
//! paper's distributed-evaluation optimizations.
//!
//! A GMDJ condition `θ(b, r)` relates a tuple `b` of the *base-values*
//! relation `B` to a tuple `r` of the *detail* relation `R` (paper §2.2,
//! Definition 1). Expressions therefore reference two tuple contexts:
//! [`Expr::BaseCol`] and [`Expr::DetailCol`].
//!
//! Modules:
//!
//! * [`expr`] — the AST ([`Expr`], [`BinOp`], [`UnOp`]) and constructors.
//! * [`builder`] — name-resolved construction against a pair of schemas.
//! * [`mod@eval`] — evaluation with SQL-style ternary null semantics.
//! * [`typecheck`] — static result-type inference.
//! * [`analysis`] — conjunct decomposition, column-reference sets, equality
//!   key extraction, and key-equality entailment (used by Theorem 1 /
//!   Proposition 2 / Corollary 1 of the paper).
//! * [`interval`] — interval arithmetic over `f64`.
//! * [`linear`] — extraction of linear forms `Σ aᵢ·col + c` from expressions.
//! * [`reduction`] — derivation of the coordinator-side group-reduction
//!   predicate `¬ψᵢ(b)` from `θ` and a site constraint `φᵢ` (Theorem 4,
//!   Example 2).

pub mod analysis;
pub mod builder;
pub mod compile;
pub mod eval;
pub mod expr;
pub mod interval;
pub mod linear;
pub mod reduction;
pub mod simplify;
pub mod typecheck;

pub use analysis::{
    base_cols_used, conjuncts, detail_bounds, detail_cols_used, equality_pairs, DetailBounds,
    EqualityPair,
};
pub use builder::ExprBuilder;
pub use compile::{
    gather_f64_rows, gather_i64_rows, BaseColumns, Batch, ColSlice, ColumnBatch, CompiledPred,
    CompiledScalar, Lanes, ScalarLanes, BATCH_ROWS,
};
pub use eval::{eval, eval_base, eval_detail, eval_predicate};
pub use expr::{BinOp, Expr, UnOp};
pub use interval::Interval;
pub use linear::LinearForm;
pub use reduction::{derive_group_filter, ColumnConstraint, SiteConstraint};
pub use simplify::simplify;
