//! Compilation of typed expressions into vectorized kernels.
//!
//! The tree-walking interpreter in [`crate::eval()`] materializes a `Value`
//! per AST node per row. Following the vectorized-execution design of
//! MonetDB/X100 (Boncz et al., CIDR 2005), this module lowers a
//! type-checked [`Expr`] into a tree of *type-specialized kernels* that
//! operate on columnar batches (~[`BATCH_ROWS`] rows at a time): each
//! kernel consumes and produces [`Lanes`] — a typed value vector plus
//! null/error masks — so the hot loop is a tight monomorphic pass over
//! `&[i64]` / `&[f64]` slices instead of per-row enum dispatch.
//!
//! ## Semantics
//!
//! Compiled evaluation is *bit-compatible* with the interpreter:
//!
//! * SQL three-valued logic: nulls propagate through arithmetic and
//!   comparisons; `AND`/`OR` are Kleene with the interpreter's
//!   short-circuit behaviour (a definite `FALSE` left operand of `AND`
//!   masks errors in the right operand, mirroring lazy evaluation).
//! * Comparisons use the same total order as [`Value`]'s `Ord`:
//!   float/float via [`total_cmp_f64`], mixed int/float via the exact
//!   [`cmp_int_float`] (no lossy `as f64` cast).
//! * Runtime errors (division by zero, integer overflow, …) are tracked
//!   per lane in an error mask instead of aborting the batch. Callers
//!   resolve error lanes by re-running the interpreter on just those rows,
//!   which surfaces the interpreter's exact error (or its value, for rows
//!   where e.g. short-circuiting avoids the error).
//!
//! ## Coverage
//!
//! `compile` returns `None` for expressions outside the supported subset
//! (e.g. `IN` sets with float needles); callers fall back to the
//! interpreter. Supported expressions cover every construct the planner
//! emits for datacube and TPC-R workloads.

use std::cmp::Ordering;
use std::sync::Arc;

use skalla_types::{
    cmp_int_float, exact_i64, total_cmp_f64, DataType, Result, Schema, SkallaError, Value,
};

use crate::expr::{BinOp, Expr, UnOp};

/// Number of rows processed per batch. Large enough to amortize per-batch
/// allocations, small enough to keep all lanes in L1/L2 cache.
pub const BATCH_ROWS: usize = 1024;

/// A zero-copy typed view of a contiguous range of column data.
#[derive(Debug, Clone, Copy)]
pub enum ColSlice<'a> {
    /// Int64 data.
    I64(&'a [i64]),
    /// Float64 data.
    F64(&'a [f64]),
    /// Utf8 data.
    Str(&'a [Arc<str>]),
    /// Bool data.
    Bool(&'a [bool]),
}

/// A zero-copy view of one column over a batch of rows: typed data plus an
/// optional validity mask (`nulls[i]` is `true` when row `i` is NULL; the
/// data slot at a null position holds an arbitrary placeholder).
#[derive(Debug, Clone, Copy)]
pub struct ColumnBatch<'a> {
    /// The typed data slice.
    pub data: ColSlice<'a>,
    /// Null mask, absent when the range contains no nulls.
    pub nulls: Option<&'a [bool]>,
}

impl ColumnBatch<'_> {
    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        match self.data {
            ColSlice::I64(v) => v.len(),
            ColSlice::F64(v) => v.len(),
            ColSlice::Str(v) => v.len(),
            ColSlice::Bool(v) => v.len(),
        }
    }

    /// `true` when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when row `i` of the batch is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.is_some_and(|m| m[i])
    }

    /// Materialize the value at row `i` of the batch.
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColSlice::I64(v) => Value::Int(v[i]),
            ColSlice::F64(v) => Value::Float(v[i]),
            ColSlice::Str(v) => Value::Str(v[i].clone()),
            ColSlice::Bool(v) => Value::Bool(v[i]),
        }
    }
}

/// A batch of detail rows: one [`ColumnBatch`] per column, all of length
/// `len`.
#[derive(Debug, Clone)]
pub struct Batch<'a> {
    /// Per-column views.
    pub cols: Vec<ColumnBatch<'a>>,
    /// Number of rows.
    pub len: usize,
}

impl<'a> Batch<'a> {
    /// Assemble a batch from column views (all must have `len` rows).
    pub fn new(cols: Vec<ColumnBatch<'a>>, len: usize) -> Batch<'a> {
        debug_assert!(cols.iter().all(|c| c.len() == len));
        Batch { cols, len }
    }
}

/// The vectorized result of one kernel over one batch: a typed value per
/// lane plus null and error masks.
///
/// Mask precedence is `errs` over `nulls` over `vals`: when `errs[i]` is
/// set the other two slots for lane `i` are meaningless, and when
/// `nulls[i]` is set `vals[i]` is meaningless.
#[derive(Debug, Clone)]
pub struct Lanes<T> {
    /// Per-lane values.
    pub vals: Vec<T>,
    /// Per-lane null flags.
    pub nulls: Vec<bool>,
    /// Per-lane deferred runtime errors (resolved by re-running the
    /// interpreter on the flagged rows).
    pub errs: Vec<bool>,
}

impl<T: Clone> Lanes<T> {
    fn fill(v: T, n: usize) -> Lanes<T> {
        Lanes {
            vals: vec![v; n],
            nulls: vec![false; n],
            errs: vec![false; n],
        }
    }

    fn all_null(placeholder: T, n: usize) -> Lanes<T> {
        Lanes {
            vals: vec![placeholder; n],
            nulls: vec![true; n],
            errs: vec![false; n],
        }
    }

    fn all_err(placeholder: T, n: usize) -> Lanes<T> {
        Lanes {
            vals: vec![placeholder; n],
            nulls: vec![false; n],
            errs: vec![true; n],
        }
    }

    /// `true` when lane `i` holds a definite (non-null, non-error) value.
    pub fn ok(&self, i: usize) -> bool {
        !self.errs[i] && !self.nulls[i]
    }

    /// `true` when any lane carries a deferred error.
    pub fn has_errs(&self) -> bool {
        self.errs.iter().any(|&e| e)
    }
}

impl<T> Default for Lanes<T> {
    fn default() -> Lanes<T> {
        Lanes {
            vals: Vec::new(),
            nulls: Vec::new(),
            errs: Vec::new(),
        }
    }
}

/// Gather column `col` of a run of row slices into float lanes.
///
/// `Value::Float` fills `vals`, `Value::Null` sets the null mask, and any
/// other variant sets the error mask (callers that pre-validate their rows
/// never observe one). The output lanes are cleared and refilled, so a
/// caller can reuse one scratch `Lanes` across batches.
pub fn gather_f64_rows(rows: &[&[Value]], col: usize, out: &mut Lanes<f64>) {
    out.vals.clear();
    out.nulls.clear();
    out.errs.clear();
    out.vals.reserve(rows.len());
    out.nulls.reserve(rows.len());
    out.errs.reserve(rows.len());
    for row in rows {
        match &row[col] {
            Value::Float(x) => {
                out.vals.push(*x);
                out.nulls.push(false);
                out.errs.push(false);
            }
            Value::Null => {
                out.vals.push(0.0);
                out.nulls.push(true);
                out.errs.push(false);
            }
            _ => {
                out.vals.push(0.0);
                out.nulls.push(false);
                out.errs.push(true);
            }
        }
    }
}

/// Gather column `col` of a run of row slices into integer lanes; the
/// same masking contract as [`gather_f64_rows`], for `Value::Int`.
pub fn gather_i64_rows(rows: &[&[Value]], col: usize, out: &mut Lanes<i64>) {
    out.vals.clear();
    out.nulls.clear();
    out.errs.clear();
    out.vals.reserve(rows.len());
    out.nulls.reserve(rows.len());
    out.errs.reserve(rows.len());
    for row in rows {
        match &row[col] {
            Value::Int(x) => {
                out.vals.push(*x);
                out.nulls.push(false);
                out.errs.push(false);
            }
            Value::Null => {
                out.vals.push(0);
                out.nulls.push(true);
                out.errs.push(false);
            }
            _ => {
                out.vals.push(0);
                out.nulls.push(false);
                out.errs.push(true);
            }
        }
    }
}

/// Evaluation context: where lanes read base and detail columns from.
///
/// Batch mode evaluates one base tuple against every row of the batch.
/// Pair mode evaluates a list of (detail row, base group) pairs: lane `k`
/// reads batch row `rows[k]` and group `groups[k]` of [`BaseColumns`].
struct Ctx<'a, 'b> {
    base: BaseSrc<'a>,
    batch: &'a Batch<'b>,
    /// Batch row of each lane; `None` when lane `i` is batch row `i`.
    rows: Option<&'a [u32]>,
    /// Number of lanes.
    n: usize,
}

#[derive(Clone, Copy)]
enum BaseSrc<'a> {
    /// One base tuple, broadcast to every lane.
    Row(&'a [Value]),
    /// Typed base columns, gathered per lane at these groups.
    Groups(&'a BaseColumns, &'a [u32]),
}

/// A base relation as typed columns over its groups, for pair-mode
/// evaluation ([`CompiledPred::eval_pairs`]): base-side operands are then
/// per-group constants read by index instead of a `Value` match per pair.
///
/// Column `c` holds lanes of the schema's declared type. A value of any
/// other variant becomes an error lane, which callers resolve through the
/// interpreter exactly as in batch mode.
#[derive(Debug, Clone)]
pub struct BaseColumns {
    cols: Vec<ScalarLanes>,
}

impl BaseColumns {
    /// Lay out `rows` (tuples of `schema`) column by column.
    pub fn new<'r, I>(rows: I, schema: &Schema) -> BaseColumns
    where
        I: IntoIterator<Item = &'r [Value]> + Clone,
    {
        let cols = schema
            .fields()
            .iter()
            .enumerate()
            .map(|(c, f)| {
                let cells = rows.clone().into_iter().map(move |r| r.get(c));
                match f.dtype {
                    DataType::Int64 => ScalarLanes::I64(typed_lanes(cells, 0, |v| match v {
                        Value::Int(x) => Some(*x),
                        _ => None,
                    })),
                    DataType::Float64 => ScalarLanes::F64(typed_lanes(cells, 0.0, |v| match v {
                        Value::Float(x) => Some(*x),
                        _ => None,
                    })),
                    DataType::Utf8 => {
                        ScalarLanes::Str(typed_lanes(cells, Arc::from(""), |v| match v {
                            Value::Str(s) => Some(s.clone()),
                            _ => None,
                        }))
                    }
                    DataType::Bool => ScalarLanes::Bool(typed_lanes(cells, false, |v| match v {
                        Value::Bool(b) => Some(*b),
                        _ => None,
                    })),
                }
            })
            .collect();
        BaseColumns { cols }
    }
}

/// One typed lane per cell: `typed` values, NULLs (and missing cells'
/// placeholders) masked null, anything else an error lane.
fn typed_lanes<'r, T: Clone>(
    cells: impl Iterator<Item = Option<&'r Value>>,
    placeholder: T,
    typed: impl Fn(&Value) -> Option<T>,
) -> Lanes<T> {
    let mut out = Lanes::default();
    for cell in cells {
        let (v, null, err) = match cell {
            Some(Value::Null) => (placeholder.clone(), true, false),
            Some(v) => match typed(v) {
                Some(x) => (x, false, false),
                None => (placeholder.clone(), false, true),
            },
            None => (placeholder.clone(), false, true),
        };
        out.vals.push(v);
        out.nulls.push(null);
        out.errs.push(err);
    }
    out
}

// ---------------------------------------------------------------------------
// Typed kernel trees
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum I64Kernel {
    Const(i64),
    Base(usize),
    Detail(usize),
    Add(Box<(I64Kernel, I64Kernel)>),
    Sub(Box<(I64Kernel, I64Kernel)>),
    Mul(Box<(I64Kernel, I64Kernel)>),
    Mod(Box<(I64Kernel, I64Kernel)>),
    Neg(Box<I64Kernel>),
}

#[derive(Debug, Clone)]
enum F64Kernel {
    Const(f64),
    Base(usize),
    Detail(usize),
    FromI64(Box<I64Kernel>),
    Add(Box<(F64Kernel, F64Kernel)>),
    Sub(Box<(F64Kernel, F64Kernel)>),
    Mul(Box<(F64Kernel, F64Kernel)>),
    Div(Box<(F64Kernel, F64Kernel)>),
    Neg(Box<F64Kernel>),
}

#[derive(Debug, Clone)]
enum StrKernel {
    Const(Arc<str>),
    Base(usize),
    Detail(usize),
}

#[derive(Debug, Clone, Copy)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn from_bin(op: BinOp) -> Option<CmpOp> {
        Some(match op {
            BinOp::Eq => CmpOp::Eq,
            BinOp::Ne => CmpOp::Ne,
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            _ => return None,
        })
    }

    fn apply(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }
}

#[derive(Debug, Clone)]
enum BoolKernel {
    Const(bool),
    Base(usize),
    Detail(usize),
    CmpI(CmpOp, Box<(I64Kernel, I64Kernel)>),
    CmpF(CmpOp, Box<(F64Kernel, F64Kernel)>),
    CmpIF(CmpOp, Box<(I64Kernel, F64Kernel)>),
    CmpFI(CmpOp, Box<(F64Kernel, I64Kernel)>),
    CmpS(CmpOp, Box<(StrKernel, StrKernel)>),
    CmpB(CmpOp, Box<(BoolKernel, BoolKernel)>),
    And(Box<(BoolKernel, BoolKernel)>),
    Or(Box<(BoolKernel, BoolKernel)>),
    Not(Box<BoolKernel>),
    IsNullI(Box<I64Kernel>),
    IsNullF(Box<F64Kernel>),
    IsNullS(Box<StrKernel>),
    IsNullB(Box<BoolKernel>),
    InSetI(Box<I64Kernel>, Vec<i64>),
    InSetS(Box<StrKernel>, Vec<Arc<str>>),
}

// ---------------------------------------------------------------------------
// Kernel evaluation
// ---------------------------------------------------------------------------

/// Lanes of detail column `c`, whose data is `data` when it has the
/// expected type: the batch rows as they are, or gathered in pair mode.
fn detail_lanes<T: Clone>(
    ctx: &Ctx<'_, '_>,
    c: usize,
    data: impl Fn(ColSlice<'_>) -> Option<&[T]>,
    placeholder: T,
) -> Lanes<T> {
    let n = ctx.n;
    let Some((col, vals)) = ctx
        .batch
        .cols
        .get(c)
        .and_then(|col| Some((col, data(col.data)?)))
    else {
        return Lanes::all_err(placeholder, n);
    };
    match ctx.rows {
        None => Lanes {
            vals: vals.to_vec(),
            nulls: col.nulls.map_or_else(|| vec![false; n], <[bool]>::to_vec),
            errs: vec![false; n],
        },
        Some(rows) => Lanes {
            vals: rows.iter().map(|&r| vals[r as usize].clone()).collect(),
            nulls: match col.nulls {
                Some(m) => rows.iter().map(|&r| m[r as usize]).collect(),
                None => vec![false; n],
            },
            errs: vec![false; n],
        },
    }
}

/// Lanes of base column `i`: the base tuple's value broadcast, or in pair
/// mode each lane's group's value. `row` types a tuple's value (`None` for
/// a variant other than the compiled type); `col` picks the column's lanes
/// when they have the compiled type.
fn base_lanes<T: Clone>(
    ctx: &Ctx<'_, '_>,
    i: usize,
    row: impl Fn(&Value) -> Option<T>,
    col: impl Fn(&ScalarLanes) -> Option<&Lanes<T>>,
    placeholder: T,
) -> Lanes<T> {
    let n = ctx.n;
    match ctx.base {
        BaseSrc::Row(b) => match b.get(i) {
            Some(Value::Null) => Lanes::all_null(placeholder, n),
            Some(v) => match row(v) {
                Some(x) => Lanes::fill(x, n),
                None => Lanes::all_err(placeholder, n),
            },
            None => Lanes::all_err(placeholder, n),
        },
        BaseSrc::Groups(cols, groups) => match cols.cols.get(i).and_then(col) {
            Some(l) => Lanes {
                vals: groups.iter().map(|&g| l.vals[g as usize].clone()).collect(),
                nulls: groups.iter().map(|&g| l.nulls[g as usize]).collect(),
                errs: groups.iter().map(|&g| l.errs[g as usize]).collect(),
            },
            None => Lanes::all_err(placeholder, n),
        },
    }
}

/// Lane-wise arithmetic with error (`None`) detection; nulls propagate.
fn arith<T: Copy>(mut l: Lanes<T>, r: Lanes<T>, f: impl Fn(T, T) -> Option<T>) -> Lanes<T> {
    for i in 0..l.vals.len() {
        if l.errs[i] || r.errs[i] {
            l.errs[i] = true;
        } else if l.nulls[i] || r.nulls[i] {
            l.nulls[i] = true;
        } else {
            match f(l.vals[i], r.vals[i]) {
                Some(v) => l.vals[i] = v,
                None => l.errs[i] = true,
            }
        }
    }
    l
}

fn cmp_lanes<A, B>(
    op: CmpOp,
    l: &Lanes<A>,
    r: &Lanes<B>,
    ord: impl Fn(&A, &B) -> Ordering,
) -> Lanes<bool> {
    let n = l.vals.len();
    let mut out = Lanes::fill(false, n);
    for i in 0..n {
        if l.errs[i] || r.errs[i] {
            out.errs[i] = true;
        } else if l.nulls[i] || r.nulls[i] {
            out.nulls[i] = true;
        } else {
            out.vals[i] = op.apply(ord(&l.vals[i], &r.vals[i]));
        }
    }
    out
}

/// Kleene AND with the interpreter's short-circuit error behaviour: a
/// definite FALSE left operand masks right-operand errors.
fn and_lanes(l: &Lanes<bool>, r: &Lanes<bool>) -> Lanes<bool> {
    let n = l.vals.len();
    let mut out = Lanes::fill(false, n);
    for i in 0..n {
        if l.errs[i] {
            out.errs[i] = true;
        } else if !l.nulls[i] && !l.vals[i] {
            // definite FALSE: rhs never evaluated by the interpreter
        } else if r.errs[i] {
            out.errs[i] = true;
        } else if !r.nulls[i] && !r.vals[i] {
            // FALSE
        } else if l.nulls[i] || r.nulls[i] {
            out.nulls[i] = true;
        } else {
            out.vals[i] = true;
        }
    }
    out
}

/// Kleene OR, dual of [`and_lanes`] (definite TRUE short-circuits).
fn or_lanes(l: &Lanes<bool>, r: &Lanes<bool>) -> Lanes<bool> {
    let n = l.vals.len();
    let mut out = Lanes::fill(false, n);
    for i in 0..n {
        if l.errs[i] {
            out.errs[i] = true;
        } else if !l.nulls[i] && l.vals[i] {
            out.vals[i] = true;
        } else if r.errs[i] {
            out.errs[i] = true;
        } else if !r.nulls[i] && r.vals[i] {
            out.vals[i] = true;
        } else if l.nulls[i] || r.nulls[i] {
            out.nulls[i] = true;
        }
    }
    out
}

fn is_null_lanes<T>(l: &Lanes<T>) -> Lanes<bool> {
    let n = l.vals.len();
    let mut out = Lanes::fill(false, n);
    for i in 0..n {
        if l.errs[i] {
            out.errs[i] = true;
        } else {
            out.vals[i] = l.nulls[i];
        }
    }
    out
}

impl I64Kernel {
    fn eval(&self, ctx: &Ctx<'_, '_>) -> Lanes<i64> {
        let n = ctx.n;
        match self {
            I64Kernel::Const(x) => Lanes::fill(*x, n),
            I64Kernel::Base(i) => base_lanes(
                ctx,
                *i,
                |v| match v {
                    Value::Int(x) => Some(*x),
                    _ => None,
                },
                |l| match l {
                    ScalarLanes::I64(l) => Some(l),
                    _ => None,
                },
                0,
            ),
            I64Kernel::Detail(c) => detail_lanes(
                ctx,
                *c,
                |d| match d {
                    ColSlice::I64(v) => Some(v),
                    _ => None,
                },
                0,
            ),
            I64Kernel::Add(p) => arith(p.0.eval(ctx), p.1.eval(ctx), i64::checked_add),
            I64Kernel::Sub(p) => arith(p.0.eval(ctx), p.1.eval(ctx), i64::checked_sub),
            I64Kernel::Mul(p) => arith(p.0.eval(ctx), p.1.eval(ctx), i64::checked_mul),
            I64Kernel::Mod(p) => arith(p.0.eval(ctx), p.1.eval(ctx), |a, b| {
                if b == 0 {
                    None
                } else {
                    Some(a.rem_euclid(b))
                }
            }),
            I64Kernel::Neg(k) => {
                let mut l = k.eval(ctx);
                for i in 0..n {
                    if l.ok(i) {
                        match l.vals[i].checked_neg() {
                            Some(v) => l.vals[i] = v,
                            None => l.errs[i] = true,
                        }
                    }
                }
                l
            }
        }
    }
}

impl F64Kernel {
    fn eval(&self, ctx: &Ctx<'_, '_>) -> Lanes<f64> {
        let n = ctx.n;
        match self {
            F64Kernel::Const(x) => Lanes::fill(*x, n),
            F64Kernel::Base(i) => base_lanes(
                ctx,
                *i,
                |v| match v {
                    Value::Float(x) => Some(*x),
                    _ => None,
                },
                |l| match l {
                    ScalarLanes::F64(l) => Some(l),
                    _ => None,
                },
                0.0,
            ),
            F64Kernel::Detail(c) => detail_lanes(
                ctx,
                *c,
                |d| match d {
                    ColSlice::F64(v) => Some(v),
                    _ => None,
                },
                0.0,
            ),
            F64Kernel::FromI64(k) => {
                let l = k.eval(ctx);
                Lanes {
                    vals: l.vals.iter().map(|&v| v as f64).collect(),
                    nulls: l.nulls,
                    errs: l.errs,
                }
            }
            F64Kernel::Add(p) => arith(p.0.eval(ctx), p.1.eval(ctx), |a, b| Some(a + b)),
            F64Kernel::Sub(p) => arith(p.0.eval(ctx), p.1.eval(ctx), |a, b| Some(a - b)),
            F64Kernel::Mul(p) => arith(p.0.eval(ctx), p.1.eval(ctx), |a, b| Some(a * b)),
            F64Kernel::Div(p) => arith(p.0.eval(ctx), p.1.eval(ctx), |a, b| {
                if b == 0.0 {
                    None
                } else {
                    Some(a / b)
                }
            }),
            F64Kernel::Neg(k) => {
                let mut l = k.eval(ctx);
                for i in 0..n {
                    if l.ok(i) {
                        l.vals[i] = -l.vals[i];
                    }
                }
                l
            }
        }
    }
}

impl StrKernel {
    fn eval(&self, ctx: &Ctx<'_, '_>) -> Lanes<Arc<str>> {
        let empty: Arc<str> = Arc::from("");
        match self {
            StrKernel::Const(s) => Lanes::fill(s.clone(), ctx.n),
            StrKernel::Base(i) => base_lanes(
                ctx,
                *i,
                |v| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                },
                |l| match l {
                    ScalarLanes::Str(l) => Some(l),
                    _ => None,
                },
                empty,
            ),
            StrKernel::Detail(c) => detail_lanes(
                ctx,
                *c,
                |d| match d {
                    ColSlice::Str(v) => Some(v),
                    _ => None,
                },
                empty,
            ),
        }
    }
}

impl BoolKernel {
    fn eval(&self, ctx: &Ctx<'_, '_>) -> Lanes<bool> {
        let n = ctx.n;
        match self {
            BoolKernel::Const(b) => Lanes::fill(*b, n),
            BoolKernel::Base(i) => base_lanes(
                ctx,
                *i,
                |v| match v {
                    Value::Bool(b) => Some(*b),
                    _ => None,
                },
                |l| match l {
                    ScalarLanes::Bool(l) => Some(l),
                    _ => None,
                },
                false,
            ),
            BoolKernel::Detail(c) => detail_lanes(
                ctx,
                *c,
                |d| match d {
                    ColSlice::Bool(v) => Some(v),
                    _ => None,
                },
                false,
            ),
            BoolKernel::CmpI(op, p) => {
                cmp_lanes(*op, &p.0.eval(ctx), &p.1.eval(ctx), |a, b| a.cmp(b))
            }
            BoolKernel::CmpF(op, p) => cmp_lanes(*op, &p.0.eval(ctx), &p.1.eval(ctx), |a, b| {
                total_cmp_f64(*a, *b)
            }),
            BoolKernel::CmpIF(op, p) => cmp_lanes(*op, &p.0.eval(ctx), &p.1.eval(ctx), |a, b| {
                cmp_int_float(*a, *b)
            }),
            BoolKernel::CmpFI(op, p) => cmp_lanes(*op, &p.0.eval(ctx), &p.1.eval(ctx), |a, b| {
                cmp_int_float(*b, *a).reverse()
            }),
            BoolKernel::CmpS(op, p) => {
                cmp_lanes(*op, &p.0.eval(ctx), &p.1.eval(ctx), |a, b| a.cmp(b))
            }
            BoolKernel::CmpB(op, p) => {
                cmp_lanes(*op, &p.0.eval(ctx), &p.1.eval(ctx), |a, b| a.cmp(b))
            }
            BoolKernel::And(p) => and_lanes(&p.0.eval(ctx), &p.1.eval(ctx)),
            BoolKernel::Or(p) => or_lanes(&p.0.eval(ctx), &p.1.eval(ctx)),
            BoolKernel::Not(k) => {
                let mut l = k.eval(ctx);
                for i in 0..n {
                    if l.ok(i) {
                        l.vals[i] = !l.vals[i];
                    }
                }
                l
            }
            BoolKernel::IsNullI(k) => is_null_lanes(&k.eval(ctx)),
            BoolKernel::IsNullF(k) => is_null_lanes(&k.eval(ctx)),
            BoolKernel::IsNullS(k) => is_null_lanes(&k.eval(ctx)),
            BoolKernel::IsNullB(k) => is_null_lanes(&k.eval(ctx)),
            BoolKernel::InSetI(k, hay) => {
                let l = k.eval(ctx);
                let mut out = Lanes::fill(false, n);
                for i in 0..n {
                    if l.errs[i] {
                        out.errs[i] = true;
                    } else if l.nulls[i] {
                        out.nulls[i] = true;
                    } else {
                        out.vals[i] = hay.binary_search(&l.vals[i]).is_ok();
                    }
                }
                out
            }
            BoolKernel::InSetS(k, hay) => {
                let l = k.eval(ctx);
                let mut out = Lanes::fill(false, n);
                for i in 0..n {
                    if l.errs[i] {
                        out.errs[i] = true;
                    } else if l.nulls[i] {
                        out.nulls[i] = true;
                    } else {
                        out.vals[i] = hay.binary_search(&l.vals[i]).is_ok();
                    }
                }
                out
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ScalarKernel {
    I64(I64Kernel),
    F64(F64Kernel),
    Str(StrKernel),
    Bool(BoolKernel),
}

fn to_f64(k: ScalarKernel) -> Option<F64Kernel> {
    match k {
        ScalarKernel::I64(k) => Some(F64Kernel::FromI64(Box::new(k))),
        ScalarKernel::F64(k) => Some(k),
        _ => None,
    }
}

fn compile_kernel(e: &Expr, base: &Schema, detail: &Schema) -> Option<ScalarKernel> {
    use ScalarKernel as K;
    Some(match e {
        Expr::Lit(Value::Int(x)) => K::I64(I64Kernel::Const(*x)),
        Expr::Lit(Value::Float(x)) => K::F64(F64Kernel::Const(*x)),
        Expr::Lit(Value::Str(s)) => K::Str(StrKernel::Const(s.clone())),
        Expr::Lit(Value::Bool(b)) => K::Bool(BoolKernel::Const(*b)),
        // NULL literals fail typechecking; the interpreter handles them.
        Expr::Lit(Value::Null) => return None,
        Expr::BaseCol(i) => match base.fields().get(*i)?.dtype {
            DataType::Int64 => K::I64(I64Kernel::Base(*i)),
            DataType::Float64 => K::F64(F64Kernel::Base(*i)),
            DataType::Utf8 => K::Str(StrKernel::Base(*i)),
            DataType::Bool => K::Bool(BoolKernel::Base(*i)),
        },
        Expr::DetailCol(i) => match detail.fields().get(*i)?.dtype {
            DataType::Int64 => K::I64(I64Kernel::Detail(*i)),
            DataType::Float64 => K::F64(F64Kernel::Detail(*i)),
            DataType::Utf8 => K::Str(StrKernel::Detail(*i)),
            DataType::Bool => K::Bool(BoolKernel::Detail(*i)),
        },
        Expr::Binary { op, lhs, rhs } => {
            let l = compile_kernel(lhs, base, detail)?;
            let r = compile_kernel(rhs, base, detail)?;
            compile_binary(*op, l, r)?
        }
        Expr::Unary { op, expr } => {
            let k = compile_kernel(expr, base, detail)?;
            match op {
                UnOp::Neg => match k {
                    K::I64(k) => K::I64(I64Kernel::Neg(Box::new(k))),
                    K::F64(k) => K::F64(F64Kernel::Neg(Box::new(k))),
                    _ => return None,
                },
                UnOp::Not => match k {
                    K::Bool(k) => K::Bool(BoolKernel::Not(Box::new(k))),
                    _ => return None,
                },
                UnOp::IsNull => K::Bool(match k {
                    K::I64(k) => BoolKernel::IsNullI(Box::new(k)),
                    K::F64(k) => BoolKernel::IsNullF(Box::new(k)),
                    K::Str(k) => BoolKernel::IsNullS(Box::new(k)),
                    K::Bool(k) => BoolKernel::IsNullB(Box::new(k)),
                }),
            }
        }
        Expr::InSet { expr, set } => {
            let k = compile_kernel(expr, base, detail)?;
            match k {
                // An integer needle can only equal Int members or Float
                // members whose value is exactly an integer.
                K::I64(k) => {
                    let mut hay: Vec<i64> = set
                        .iter()
                        .filter_map(|v| match v {
                            Value::Int(x) => Some(*x),
                            Value::Float(f) => exact_i64(*f),
                            _ => None,
                        })
                        .collect();
                    hay.sort_unstable();
                    hay.dedup();
                    K::Bool(BoolKernel::InSetI(Box::new(k), hay))
                }
                // A string needle can only equal Str members.
                K::Str(k) => {
                    let mut hay: Vec<Arc<str>> = set
                        .iter()
                        .filter_map(|v| match v {
                            Value::Str(s) => Some(s.clone()),
                            _ => None,
                        })
                        .collect();
                    hay.sort();
                    hay.dedup();
                    K::Bool(BoolKernel::InSetS(Box::new(k), hay))
                }
                // Exact float/bool set semantics stay on the interpreter.
                _ => return None,
            }
        }
    })
}

fn compile_binary(op: BinOp, l: ScalarKernel, r: ScalarKernel) -> Option<ScalarKernel> {
    use ScalarKernel as K;
    if op.is_comparison() {
        let c = CmpOp::from_bin(op)?;
        return Some(K::Bool(match (l, r) {
            (K::I64(a), K::I64(b)) => BoolKernel::CmpI(c, Box::new((a, b))),
            (K::F64(a), K::F64(b)) => BoolKernel::CmpF(c, Box::new((a, b))),
            (K::I64(a), K::F64(b)) => BoolKernel::CmpIF(c, Box::new((a, b))),
            (K::F64(a), K::I64(b)) => BoolKernel::CmpFI(c, Box::new((a, b))),
            (K::Str(a), K::Str(b)) => BoolKernel::CmpS(c, Box::new((a, b))),
            (K::Bool(a), K::Bool(b)) => BoolKernel::CmpB(c, Box::new((a, b))),
            _ => return None,
        }));
    }
    Some(match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => match (l, r) {
            (K::I64(a), K::I64(b)) => {
                let p = Box::new((a, b));
                K::I64(match op {
                    BinOp::Add => I64Kernel::Add(p),
                    BinOp::Sub => I64Kernel::Sub(p),
                    _ => I64Kernel::Mul(p),
                })
            }
            (a, b) => {
                let p = Box::new((to_f64(a)?, to_f64(b)?));
                K::F64(match op {
                    BinOp::Add => F64Kernel::Add(p),
                    BinOp::Sub => F64Kernel::Sub(p),
                    _ => F64Kernel::Mul(p),
                })
            }
        },
        // Division always runs in f64, matching the interpreter's `as_f64`
        // of both operands.
        BinOp::Div => K::F64(F64Kernel::Div(Box::new((to_f64(l)?, to_f64(r)?)))),
        BinOp::Mod => match (l, r) {
            (K::I64(a), K::I64(b)) => K::I64(I64Kernel::Mod(Box::new((a, b)))),
            _ => return None,
        },
        BinOp::And => match (l, r) {
            (K::Bool(a), K::Bool(b)) => K::Bool(BoolKernel::And(Box::new((a, b)))),
            _ => return None,
        },
        BinOp::Or => match (l, r) {
            (K::Bool(a), K::Bool(b)) => K::Bool(BoolKernel::Or(Box::new((a, b)))),
            _ => return None,
        },
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Public compiled programs
// ---------------------------------------------------------------------------

/// The typed lanes produced by a [`CompiledScalar`] over one batch.
#[derive(Debug, Clone)]
pub enum ScalarLanes {
    /// Int64 lanes.
    I64(Lanes<i64>),
    /// Float64 lanes.
    F64(Lanes<f64>),
    /// Utf8 lanes.
    Str(Lanes<Arc<str>>),
    /// Bool lanes.
    Bool(Lanes<bool>),
}

impl ScalarLanes {
    /// Number of lanes.
    pub fn len(&self) -> usize {
        match self {
            ScalarLanes::I64(l) => l.vals.len(),
            ScalarLanes::F64(l) => l.vals.len(),
            ScalarLanes::Str(l) => l.vals.len(),
            ScalarLanes::Bool(l) => l.vals.len(),
        }
    }

    /// `true` when there are no lanes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when lane `i` carries a deferred error.
    pub fn is_err(&self, i: usize) -> bool {
        match self {
            ScalarLanes::I64(l) => l.errs[i],
            ScalarLanes::F64(l) => l.errs[i],
            ScalarLanes::Str(l) => l.errs[i],
            ScalarLanes::Bool(l) => l.errs[i],
        }
    }

    /// `true` when lane `i` is NULL (meaningless when the lane is an
    /// error — check [`ScalarLanes::is_err`] first).
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ScalarLanes::I64(l) => l.nulls[i],
            ScalarLanes::F64(l) => l.nulls[i],
            ScalarLanes::Str(l) => l.nulls[i],
            ScalarLanes::Bool(l) => l.nulls[i],
        }
    }

    /// `true` when any lane carries a deferred error.
    pub fn has_errs(&self) -> bool {
        match self {
            ScalarLanes::I64(l) => l.has_errs(),
            ScalarLanes::F64(l) => l.has_errs(),
            ScalarLanes::Str(l) => l.has_errs(),
            ScalarLanes::Bool(l) => l.has_errs(),
        }
    }

    /// Overwrite lane `i` with an interpreter-produced value (used when
    /// resolving deferred error lanes). Integers coerce into float lanes,
    /// matching the interpreter's `as_f64` contexts.
    pub fn set(&mut self, i: usize, v: &Value) -> Result<()> {
        match (&mut *self, v) {
            (_, Value::Null) => match self {
                ScalarLanes::I64(l) => {
                    l.nulls[i] = true;
                    l.errs[i] = false;
                }
                ScalarLanes::F64(l) => {
                    l.nulls[i] = true;
                    l.errs[i] = false;
                }
                ScalarLanes::Str(l) => {
                    l.nulls[i] = true;
                    l.errs[i] = false;
                }
                ScalarLanes::Bool(l) => {
                    l.nulls[i] = true;
                    l.errs[i] = false;
                }
            },
            (ScalarLanes::I64(l), Value::Int(x)) => {
                l.vals[i] = *x;
                l.nulls[i] = false;
                l.errs[i] = false;
            }
            (ScalarLanes::F64(l), Value::Float(x)) => {
                l.vals[i] = *x;
                l.nulls[i] = false;
                l.errs[i] = false;
            }
            (ScalarLanes::F64(l), Value::Int(x)) => {
                l.vals[i] = *x as f64;
                l.nulls[i] = false;
                l.errs[i] = false;
            }
            (ScalarLanes::Str(l), Value::Str(s)) => {
                l.vals[i] = s.clone();
                l.nulls[i] = false;
                l.errs[i] = false;
            }
            (ScalarLanes::Bool(l), Value::Bool(b)) => {
                l.vals[i] = *b;
                l.nulls[i] = false;
                l.errs[i] = false;
            }
            _ => {
                return Err(SkallaError::type_error(format!(
                    "cannot patch compiled lane with {v}"
                )))
            }
        }
        Ok(())
    }
}

/// A compiled scalar program (e.g. an aggregate argument): evaluates to one
/// typed value per detail row of a batch.
#[derive(Debug, Clone)]
pub struct CompiledScalar {
    kernel: ScalarKernel,
}

impl CompiledScalar {
    /// Lower `expr` into a typed kernel tree against the given schemas, or
    /// `None` when the expression falls outside the compiled subset.
    pub fn compile(expr: &Expr, base: &Schema, detail: &Schema) -> Option<CompiledScalar> {
        Some(CompiledScalar {
            kernel: compile_kernel(expr, base, detail)?,
        })
    }

    /// The static result type of the program.
    pub fn data_type(&self) -> DataType {
        match &self.kernel {
            ScalarKernel::I64(_) => DataType::Int64,
            ScalarKernel::F64(_) => DataType::Float64,
            ScalarKernel::Str(_) => DataType::Utf8,
            ScalarKernel::Bool(_) => DataType::Bool,
        }
    }

    /// Evaluate over one batch against the current base tuple.
    pub fn eval_batch(&self, base_row: &[Value], batch: &Batch<'_>) -> ScalarLanes {
        let ctx = Ctx {
            base: BaseSrc::Row(base_row),
            batch,
            rows: None,
            n: batch.len,
        };
        match &self.kernel {
            ScalarKernel::I64(k) => ScalarLanes::I64(k.eval(&ctx)),
            ScalarKernel::F64(k) => ScalarLanes::F64(k.eval(&ctx)),
            ScalarKernel::Str(k) => ScalarLanes::Str(k.eval(&ctx)),
            ScalarKernel::Bool(k) => ScalarLanes::Bool(k.eval(&ctx)),
        }
    }
}

/// A compiled predicate program: evaluates to a boolean selection per
/// detail row of a batch.
///
/// The produced [`Lanes`] follow SQL `WHERE` semantics when reduced to a
/// selection bit: a row is selected iff `vals[i] && !nulls[i] && !errs[i]`.
/// Error lanes must be resolved through the interpreter before the
/// selection is trusted (see module docs).
#[derive(Debug, Clone)]
pub struct CompiledPred {
    kernel: BoolKernel,
}

impl CompiledPred {
    /// Lower a boolean `expr` into a predicate kernel, or `None` when the
    /// expression falls outside the compiled subset (including non-boolean
    /// expressions).
    pub fn compile(expr: &Expr, base: &Schema, detail: &Schema) -> Option<CompiledPred> {
        match compile_kernel(expr, base, detail)? {
            ScalarKernel::Bool(kernel) => Some(CompiledPred { kernel }),
            _ => None,
        }
    }

    /// Evaluate over one batch against the current base tuple.
    pub fn eval_batch(&self, base_row: &[Value], batch: &Batch<'_>) -> Lanes<bool> {
        self.kernel.eval(&Ctx {
            base: BaseSrc::Row(base_row),
            batch,
            rows: None,
            n: batch.len,
        })
    }

    /// Evaluate over (detail row, base group) pairs: lane `k` pairs batch
    /// row `rows[k]` with group `groups[k]` of `base`. Only the pairs a
    /// caller names are evaluated, so a hash probe's candidates cost one
    /// lane each instead of one batch per base tuple.
    pub fn eval_pairs(
        &self,
        base: &BaseColumns,
        groups: &[u32],
        batch: &Batch<'_>,
        rows: &[u32],
    ) -> Lanes<bool> {
        debug_assert_eq!(groups.len(), rows.len());
        self.kernel.eval(&Ctx {
            base: BaseSrc::Groups(base, groups),
            batch,
            rows: Some(rows),
            n: rows.len(),
        })
    }

    /// `true` when no lane of any evaluation can be an error lane, so the
    /// interpreter raises on no row either: the predicate does no
    /// arithmetic that can fail (integer overflow, division or modulo by
    /// zero) and reads no base column (whose values may differ from the
    /// declared type). Batches are assumed to match the detail schema the
    /// predicate was compiled against.
    pub fn infallible(&self) -> bool {
        !self.kernel.can_err()
    }
}

impl I64Kernel {
    fn can_err(&self) -> bool {
        !matches!(self, I64Kernel::Const(_) | I64Kernel::Detail(_))
    }
}

impl F64Kernel {
    fn can_err(&self) -> bool {
        match self {
            F64Kernel::Const(_) | F64Kernel::Detail(_) => false,
            F64Kernel::Base(_) | F64Kernel::Div(_) => true,
            F64Kernel::FromI64(k) => k.can_err(),
            F64Kernel::Add(p) | F64Kernel::Sub(p) | F64Kernel::Mul(p) => {
                p.0.can_err() || p.1.can_err()
            }
            F64Kernel::Neg(k) => k.can_err(),
        }
    }
}

impl StrKernel {
    fn can_err(&self) -> bool {
        matches!(self, StrKernel::Base(_))
    }
}

impl BoolKernel {
    fn can_err(&self) -> bool {
        match self {
            BoolKernel::Const(_) | BoolKernel::Detail(_) => false,
            BoolKernel::Base(_) => true,
            BoolKernel::CmpI(_, p) => p.0.can_err() || p.1.can_err(),
            BoolKernel::CmpF(_, p) => p.0.can_err() || p.1.can_err(),
            BoolKernel::CmpIF(_, p) => p.0.can_err() || p.1.can_err(),
            BoolKernel::CmpFI(_, p) => p.0.can_err() || p.1.can_err(),
            BoolKernel::CmpS(_, p) => p.0.can_err() || p.1.can_err(),
            BoolKernel::CmpB(_, p) | BoolKernel::And(p) | BoolKernel::Or(p) => {
                p.0.can_err() || p.1.can_err()
            }
            BoolKernel::Not(k) | BoolKernel::IsNullB(k) => k.can_err(),
            BoolKernel::IsNullI(k) | BoolKernel::InSetI(k, _) => k.can_err(),
            BoolKernel::IsNullF(k) => k.can_err(),
            BoolKernel::IsNullS(k) | BoolKernel::InSetS(k, _) => k.can_err(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use skalla_types::Field;

    fn base_schema() -> Schema {
        Schema::new(vec![
            Field::new("bi", DataType::Int64),
            Field::new("bf", DataType::Float64),
            Field::new("bs", DataType::Utf8),
        ])
        .unwrap()
    }

    fn detail_schema() -> Schema {
        Schema::new(vec![
            Field::new("di", DataType::Int64),
            Field::new("df", DataType::Float64),
            Field::new("ds", DataType::Utf8),
            Field::new("db", DataType::Bool),
        ])
        .unwrap()
    }

    /// A hand-built 4-row batch with nulls in every column.
    struct Owned {
        ints: Vec<i64>,
        floats: Vec<f64>,
        strs: Vec<Arc<str>>,
        bools: Vec<bool>,
        int_nulls: Vec<bool>,
        float_nulls: Vec<bool>,
    }

    impl Owned {
        fn new() -> Owned {
            Owned {
                ints: vec![1, 0, -5, i64::MAX],
                floats: vec![1.5, 0.0, -0.0, f64::NAN],
                strs: vec![
                    Arc::from("a"),
                    Arc::from("b"),
                    Arc::from(""),
                    Arc::from("zz"),
                ],
                bools: vec![true, false, true, false],
                int_nulls: vec![false, true, false, false],
                float_nulls: vec![false, false, true, false],
            }
        }

        fn batch(&self) -> Batch<'_> {
            Batch::new(
                vec![
                    ColumnBatch {
                        data: ColSlice::I64(&self.ints),
                        nulls: Some(&self.int_nulls),
                    },
                    ColumnBatch {
                        data: ColSlice::F64(&self.floats),
                        nulls: Some(&self.float_nulls),
                    },
                    ColumnBatch {
                        data: ColSlice::Str(&self.strs),
                        nulls: None,
                    },
                    ColumnBatch {
                        data: ColSlice::Bool(&self.bools),
                        nulls: None,
                    },
                ],
                4,
            )
        }

        fn row(&self, i: usize) -> Vec<Value> {
            let b = self.batch();
            (0..4).map(|c| b.cols[c].value(i)).collect()
        }
    }

    /// Compiled lanes must agree with the interpreter on every lane: same
    /// value/null where the interpreter succeeds, error lane where it
    /// errors.
    fn check_agreement(expr: &Expr, base_row: &[Value]) {
        let owned = Owned::new();
        let batch = owned.batch();
        let compiled = CompiledScalar::compile(expr, &base_schema(), &detail_schema())
            .unwrap_or_else(|| panic!("`{expr}` should compile"));
        let lanes = compiled.eval_batch(base_row, &batch);
        for i in 0..batch.len {
            let r = owned.row(i);
            match eval(expr, base_row, &r) {
                Err(_) => assert!(lanes.is_err(i), "`{expr}` lane {i}: expected error lane"),
                Ok(v) => {
                    assert!(!lanes.is_err(i), "`{expr}` lane {i}: unexpected error lane");
                    let got = match &lanes {
                        ScalarLanes::I64(l) if !l.nulls[i] => Value::Int(l.vals[i]),
                        ScalarLanes::F64(l) if !l.nulls[i] => Value::Float(l.vals[i]),
                        ScalarLanes::Str(l) if !l.nulls[i] => Value::Str(l.vals[i].clone()),
                        ScalarLanes::Bool(l) if !l.nulls[i] => Value::Bool(l.vals[i]),
                        _ => Value::Null,
                    };
                    assert_eq!(got, v, "`{expr}` lane {i}");
                }
            }
        }
    }

    #[test]
    fn arithmetic_and_comparisons_agree_with_interpreter() {
        let base_row = vec![Value::Int(3), Value::Float(2.5), Value::str("m")];
        let exprs = [
            Expr::detail(0).add(Expr::lit(1)),
            Expr::detail(0).mul(Expr::detail(0)),
            Expr::detail(0).sub(Expr::base(0)),
            Expr::detail(1).add(Expr::detail(0)),
            Expr::detail(1).div(Expr::detail(0)),
            Expr::detail(0).rem(Expr::lit(3)),
            Expr::detail(0).neg(),
            Expr::detail(1).neg(),
            Expr::detail(0).lt(Expr::base(0)),
            Expr::detail(1).ge(Expr::base(1)),
            Expr::detail(0).eq(Expr::detail(1)),
            Expr::detail(1).ne(Expr::detail(0)),
            Expr::detail(2).eq(Expr::base(2)),
            Expr::detail(2).lt(Expr::lit("b")),
            Expr::detail(3).eq(Expr::lit(true)),
            Expr::detail(0).is_null(),
            Expr::detail(1).is_null(),
            Expr::detail(3).not(),
            Expr::detail(0)
                .gt(Expr::lit(0))
                .and(Expr::detail(1).lt(Expr::lit(2.0))),
            Expr::detail(0)
                .is_null()
                .or(Expr::detail(1).gt(Expr::lit(0.0))),
            Expr::detail(0).in_set([Value::Int(1), Value::Int(-5), Value::Float(7.0)]),
            Expr::detail(2).in_set([Value::str("a"), Value::str("zz")]),
        ];
        for e in &exprs {
            check_agreement(e, &base_row);
        }
    }

    #[test]
    fn null_base_columns_broadcast_null() {
        let base_row = vec![Value::Null, Value::Null, Value::Null];
        for e in [
            Expr::base(0).add(Expr::detail(0)),
            Expr::base(1).lt(Expr::detail(1)),
            Expr::base(2).eq(Expr::detail(2)),
            Expr::base(0).is_null(),
        ] {
            check_agreement(&e, &base_row);
        }
    }

    #[test]
    fn deferred_errors_match_interpreter_errors() {
        let base_row = vec![Value::Int(3), Value::Float(2.5), Value::str("m")];
        // Division by zero on lanes where detail(0) == 0.
        check_agreement(&Expr::detail(1).div(Expr::detail(0)), &base_row);
        // Integer overflow on the i64::MAX lane.
        check_agreement(&Expr::detail(0).add(Expr::lit(1)), &base_row);
        check_agreement(&Expr::detail(0).mul(Expr::lit(2)), &base_row);
        // Modulo by zero.
        check_agreement(&Expr::detail(0).rem(Expr::detail(0)), &base_row);
    }

    #[test]
    fn short_circuit_masks_rhs_errors() {
        let base_row = vec![Value::Int(3), Value::Float(2.5), Value::str("m")];
        // rhs divides by detail(0), which is 0 on lane 1 — but lane 1's
        // needle is NULL, and FALSE lhs lanes must mask the error anyway.
        let e = Expr::lit(false).and(Expr::detail(1).div(Expr::detail(0)).gt(Expr::lit(0)));
        check_agreement(&e, &base_row);
        let e = Expr::lit(true).or(Expr::detail(1).div(Expr::detail(0)).gt(Expr::lit(0)));
        check_agreement(&e, &base_row);
        // Without the guard the error lanes must surface.
        let e = Expr::lit(true).and(Expr::detail(1).div(Expr::detail(0)).gt(Expr::lit(0)));
        check_agreement(&e, &base_row);
    }

    #[test]
    fn mismatched_base_values_defer_to_interpreter() {
        // Schema says Int64 but the row carries a Float: every lane defers.
        let owned = Owned::new();
        let batch = owned.batch();
        let e = Expr::base(0).add(Expr::detail(0));
        let compiled = CompiledScalar::compile(&e, &base_schema(), &detail_schema()).unwrap();
        let lanes = compiled.eval_batch(&[Value::Float(1.5)], &batch);
        for i in 0..batch.len {
            assert!(lanes.is_err(i));
        }
    }

    #[test]
    fn unsupported_expressions_do_not_compile() {
        let b = base_schema();
        let d = detail_schema();
        // NULL literal.
        assert!(CompiledScalar::compile(&Expr::Lit(Value::Null), &b, &d).is_none());
        // Float needle IN set.
        let e = Expr::detail(1).in_set([Value::Float(1.5)]);
        assert!(CompiledScalar::compile(&e, &b, &d).is_none());
        // Type errors.
        assert!(CompiledScalar::compile(&Expr::detail(2).add(Expr::lit(1)), &b, &d).is_none());
        assert!(CompiledScalar::compile(&Expr::detail(2).lt(Expr::lit(1)), &b, &d).is_none());
        assert!(CompiledScalar::compile(&Expr::detail(0).not(), &b, &d).is_none());
        // Out-of-range columns.
        assert!(CompiledScalar::compile(&Expr::base(9), &b, &d).is_none());
        assert!(CompiledScalar::compile(&Expr::detail(9), &b, &d).is_none());
        // Non-boolean predicates.
        assert!(CompiledPred::compile(&Expr::detail(0), &b, &d).is_none());
        // Modulo over floats.
        assert!(CompiledScalar::compile(&Expr::detail(1).rem(Expr::lit(2)), &b, &d).is_none());
    }

    #[test]
    fn predicate_selection_bits() {
        let owned = Owned::new();
        let batch = owned.batch();
        // di > 0: lane 0 true, lane 1 null (reject), lane 2 false, lane 3 true.
        let e = Expr::detail(0).gt(Expr::lit(0));
        let pred = CompiledPred::compile(&e, &base_schema(), &detail_schema()).unwrap();
        let lanes = pred.eval_batch(&[], &batch);
        let sel: Vec<bool> = (0..4).map(|i| lanes.ok(i) && lanes.vals[i]).collect();
        assert_eq!(sel, vec![true, false, false, true]);
    }

    #[test]
    fn scalar_lanes_patching() {
        let owned = Owned::new();
        let batch = owned.batch();
        let e = Expr::detail(0).add(Expr::lit(1));
        let compiled = CompiledScalar::compile(&e, &base_schema(), &detail_schema()).unwrap();
        let mut lanes = compiled.eval_batch(&[], &batch);
        assert!(lanes.has_errs()); // i64::MAX + 1 overflows on lane 3
        lanes.set(3, &Value::Int(42)).unwrap();
        assert!(!lanes.has_errs());
        lanes.set(3, &Value::Null).unwrap();
        assert!(lanes.is_null(3));
        assert!(lanes.set(3, &Value::str("x")).is_err());
        assert_eq!(lanes.len(), 4);
        assert!(!lanes.is_empty());
    }

    #[test]
    fn batch_views_expose_values() {
        let owned = Owned::new();
        let batch = owned.batch();
        assert_eq!(batch.cols[0].len(), 4);
        assert!(!batch.cols[0].is_empty());
        assert!(batch.cols[0].is_null(1));
        assert_eq!(batch.cols[0].value(1), Value::Null);
        assert_eq!(batch.cols[0].value(0), Value::Int(1));
        assert_eq!(batch.cols[2].value(3), Value::str("zz"));
        assert_eq!(batch.cols[3].value(0), Value::Bool(true));
        assert_eq!(batch.cols[1].value(0), Value::Float(1.5));
    }
}
