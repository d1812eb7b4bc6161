//! Differential property tests for the compiled kernel path.
//!
//! The vectorized kernels of `skalla_expr::compile` must agree with the
//! row-at-a-time interpreter *bit for bit* — including NULL propagation,
//! SQL three-valued logic, and `-0.0`/overflow edge cases — on arbitrary
//! expressions and data. Lanes the compiler flags as deferred errors are
//! exempt (production resolves them by re-running the interpreter), but a
//! non-error lane must match the interpreter exactly, and the whole-GMDJ
//! differential below requires the compiled evaluator and the interpreter
//! to return identical relations (or both to fail), mirroring the existing
//! `nested_loop_agrees_with_hash` test.

use proptest::prelude::*;

use skalla::expr::{eval, CompiledPred, CompiledScalar, Expr, ScalarLanes};
use skalla::gmdj::{eval_gmdj_full, eval_gmdj_sub, EvalOptions};
use skalla::prelude::*;

fn detail_schema() -> std::sync::Arc<Schema> {
    Schema::from_pairs([
        ("g", DataType::Int64),
        ("v", DataType::Int64),
        ("f", DataType::Float64),
        ("s", DataType::Utf8),
        ("b", DataType::Bool),
    ])
    .unwrap()
    .into_arc()
}

fn base_schema() -> std::sync::Arc<Schema> {
    Schema::from_pairs([("k", DataType::Int64), ("w", DataType::Float64)])
        .unwrap()
        .into_arc()
}

type RowTuple = (i64, Option<i64>, Option<f64>, String, Option<bool>);

/// Detail rows with NULLs in every nullable column and float edge values.
fn arb_rows() -> impl Strategy<Value = Vec<RowTuple>> {
    prop::collection::vec(
        (
            -3i64..3,
            prop::option::of(-100i64..100),
            prop::option::of(prop_oneof![-100.0f64..100.0, Just(0.0f64), Just(-0.0f64),]),
            "[ab]{0,2}",
            prop::option::of(any::<bool>()),
        ),
        1..40,
    )
}

fn build_table(rows: &[RowTuple]) -> Table {
    let data: Vec<Vec<Value>> = rows
        .iter()
        .map(|(g, v, f, s, b)| {
            vec![
                Value::Int(*g),
                v.map_or(Value::Null, Value::Int),
                f.map_or(Value::Null, Value::Float),
                Value::str(s.as_str()),
                b.map_or(Value::Null, Value::Bool),
            ]
        })
        .collect();
    Table::from_rows(detail_schema(), &data).unwrap()
}

fn arb_base_row() -> impl Strategy<Value = Vec<Value>> {
    (prop::option::of(-5i64..5), prop::option::of(-10.0f64..10.0)).prop_map(|(k, w)| {
        vec![
            k.map_or(Value::Null, Value::Int),
            w.map_or(Value::Null, Value::Float),
        ]
    })
}

/// Arbitrary expressions over the detail schema (cols 0..5), the two base
/// columns, and literals of every type including NULL. Many draws are
/// ill-typed on purpose: the compiler must either refuse them or defer to
/// the interpreter, never silently diverge.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::lit),
        (-4.0f64..4.0).prop_map(Expr::lit),
        any::<bool>().prop_map(Expr::lit),
        Just(Expr::Lit(Value::Null)),
        "[ab]{0,2}".prop_map(|s| Expr::lit(s.as_str())),
        (0usize..5).prop_map(Expr::detail),
        (0usize..2).prop_map(Expr::base),
    ];
    leaf.prop_recursive(3, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), 0usize..11).prop_map(|(a, b, k)| match k {
                0 => a.add(b),
                1 => a.sub(b),
                2 => a.mul(b),
                3 => a.div(b),
                4 => a.rem(b),
                5 => a.eq(b),
                6 => a.ne(b),
                7 => a.lt(b),
                8 => a.le(b),
                9 => a.gt(b),
                _ => a.ge(b),
            }),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(|a| a.not()),
            inner.clone().prop_map(|a| a.neg()),
            inner.clone().prop_map(|a| a.is_null()),
            (inner, prop::collection::vec(-5i64..5, 1..4))
                .prop_map(|(a, vs)| a.in_set(vs.into_iter().map(Value::Int))),
        ]
    })
}

/// Detail-only scalar expressions, used as aggregate arguments.
fn arb_agg_arg() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::lit),
        (-4.0f64..4.0).prop_map(Expr::lit),
        Just(Expr::detail(1)),
        Just(Expr::detail(2)),
    ];
    leaf.prop_recursive(2, 16, 2, |inner| {
        (inner.clone(), inner, 0usize..4).prop_map(|(a, b, k)| match k {
            0 => a.add(b),
            1 => a.sub(b),
            2 => a.mul(b),
            _ => a.div(b),
        })
    })
}

/// Assert that every non-error lane matches the interpreter exactly.
/// Error lanes are the compiler's explicit "ask the interpreter" signal,
/// so they carry no agreement obligation.
fn assert_scalar_lanes_agree(expr: &Expr, base_row: &[Value], table: &Table, lanes: &ScalarLanes) {
    assert_eq!(lanes.len(), table.len());
    for i in 0..table.len() {
        if lanes.is_err(i) {
            continue;
        }
        let row = table.row(i);
        let got = eval(expr, base_row, &row)
            .unwrap_or_else(|e| panic!("interpreter errored on non-error lane {i}: {e}"));
        if lanes.is_null(i) {
            assert_eq!(got, Value::Null, "lane {i} null mismatch for {expr}");
            continue;
        }
        match (lanes, &got) {
            (ScalarLanes::I64(l), Value::Int(v)) => assert_eq!(l.vals[i], *v, "lane {i}: {expr}"),
            (ScalarLanes::F64(l), Value::Float(v)) => assert_eq!(
                l.vals[i].to_bits(),
                v.to_bits(),
                "lane {i} not bit-identical for {expr}"
            ),
            (ScalarLanes::Str(l), Value::Str(v)) => {
                assert_eq!(&l.vals[i], v, "lane {i}: {expr}")
            }
            (ScalarLanes::Bool(l), Value::Bool(v)) => assert_eq!(l.vals[i], *v, "lane {i}: {expr}"),
            (_, other) => panic!("lane type mismatch for {expr}: interpreter produced {other}"),
        }
    }
}

/// Residuals for the hash-path differential: one to three conjuncts,
/// mostly well typed so the block compiles — numeric comparisons over
/// arithmetic that can divide by zero, reading detail columns, the base's
/// `k` and `w`, and literals (`-0.0` included); a string comparison
/// against the base's `s`; a NULL test; a bare boolean column; a
/// multiplication that overflows on some rows; a disjunction — plus an
/// arbitrary [`arb_expr`] draw.
fn arb_residual() -> impl Strategy<Value = Expr> {
    let conjunct = prop_oneof![
        arb_cmp(),
        arb_cmp(),
        arb_cmp(),
        Just(Expr::detail(3).ge(Expr::base(2))),
        Just(Expr::detail(1).is_null().not()),
        Just(Expr::detail(4)),
        // Overflows on the rows with |v| ≥ 93 only.
        Just(
            Expr::detail(1)
                .mul(Expr::lit(100_000_000_000_000_000i64))
                .gt(Expr::lit(0))
        ),
        (arb_cmp(), arb_cmp()).prop_map(|(a, b)| a.or(b)),
        arb_expr(),
    ];
    prop::collection::vec(conjunct, 1..4).prop_map(Expr::conjunction)
}

/// A comparison of two [`arb_num`] operands.
fn arb_cmp() -> impl Strategy<Value = Expr> {
    (arb_num(), arb_num(), 0usize..6).prop_map(|(a, b, k)| match k {
        0 => a.eq(b),
        1 => a.ne(b),
        2 => a.lt(b),
        3 => a.le(b),
        4 => a.gt(b),
        _ => a.ge(b),
    })
}

/// Numeric operands for [`arb_residual`]'s comparisons.
fn arb_num() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::lit),
        prop_oneof![-4.0f64..4.0, Just(-0.0f64)].prop_map(Expr::lit),
        Just(Expr::detail(1)),
        Just(Expr::detail(2)),
        Just(Expr::base(0)),
        Just(Expr::base(1)),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        (inner.clone(), inner, 0usize..6).prop_map(|(a, b, k)| match k {
            0 | 1 => a.add(b),
            2 | 3 => a.sub(b),
            4 => a.mul(b),
            _ => a.div(b),
        })
    })
}

/// A detail-table-shaped base relation for the hash-path differential:
/// the distinct values of the join key's detail columns, each group given
/// a base float `w` (NULL and `-0.0` included) for the residual to read.
///
/// `key_pick` chooses the equi-join:
/// 0. `b.k = r.g` — one integer key;
/// 1. `b.k = r.v` — a nullable key, so NULL detail keys and a NULL base
///    group both occur;
/// 2. `b.k = r.g` with the base holding `k` as a float (`0` as `-0.0`), so
///    integer detail keys must meet equal floats;
/// 3. `b.k = r.g AND b.s = r.s` — two keys, one a string;
/// 4. `b.k = r.g` over groups on `(g, v)`, so one key probes several
///    groups;
/// 5. `b.k = r.f` with `k` each float group truncated to an integer, so
///    float detail keys (`0.0` and `-0.0` among them) must meet equal
///    integers, and one key can name several groups.
///
/// Returns the base (schema `k, w, s`) and the key conjuncts.
fn hash_base(table: &Table, key_pick: usize, ws: &[Option<f64>]) -> (Relation, Expr) {
    let schema = |k: DataType| {
        Schema::from_pairs([("k", k), ("w", DataType::Float64), ("s", DataType::Utf8)])
            .unwrap()
            .into_arc()
    };
    let (cols, key_type, theta) = match key_pick {
        0 => (vec![0], DataType::Int64, Expr::base(0).eq(Expr::detail(0))),
        1 => (vec![1], DataType::Int64, Expr::base(0).eq(Expr::detail(1))),
        2 => (
            vec![0],
            DataType::Float64,
            Expr::base(0).eq(Expr::detail(0)),
        ),
        3 => (
            vec![0, 3],
            DataType::Int64,
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::detail(3).eq(Expr::base(2))),
        ),
        4 => (
            vec![0, 1],
            DataType::Int64,
            Expr::base(0).eq(Expr::detail(0)),
        ),
        _ => (vec![2], DataType::Int64, Expr::base(0).eq(Expr::detail(2))),
    };
    let groups = table.distinct_project(&cols).unwrap();
    let rows = groups
        .rows()
        .iter()
        .enumerate()
        .map(|(j, g)| {
            let k = match (&g[0], key_pick) {
                (Value::Int(0), 2) => Value::Float(-0.0),
                (Value::Int(x), 2) => Value::Float(*x as f64),
                (Value::Float(f), 5) => Value::Int(f.trunc() as i64),
                (k, _) => k.clone(),
            };
            let w = ws[j % ws.len()].map_or(Value::Null, Value::Float);
            let s = match key_pick {
                3 => g[1].clone(),
                _ => Value::str("a"),
            };
            vec![k, w, s]
        })
        .collect();
    (Relation::new(schema(key_type), rows).unwrap(), theta)
}

/// Bit-strict, order-strict relation equality: floats compared by bit
/// pattern (`Value` equality would identify `-0.0` with `0.0`).
fn assert_bits_eq(a: &Relation, b: &Relation) {
    assert_eq!(a.schema(), b.schema());
    assert_eq!(a.len(), b.len());
    for (i, (ra, rb)) in a.rows().iter().zip(b.rows()).enumerate() {
        for (va, vb) in ra.iter().zip(rb) {
            match (va, vb) {
                (Value::Float(x), Value::Float(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "row {i}: {va:?} vs {vb:?}")
                }
                _ => assert_eq!(va, vb, "row {i}"),
            }
        }
    }
}

proptest! {
    /// Hash-strategy blocks with a residual: θ is equi-join keys plus an
    /// arbitrary residual over base and detail columns, in either order.
    /// The compiled probe — typed keys, hoisted detail-only filter, the
    /// rest checked per probed pair — must return exactly the
    /// interpreter's sub-aggregates and match counts, rows unsorted and
    /// floats bit for bit, or both must fail.
    #[test]
    fn gmdj_hash_residual_agrees_with_interpreter(
        rows in arb_rows(),
        key_pick in 0usize..6,
        ws in prop::collection::vec(
            prop::option::of(prop_oneof![-10.0f64..10.0, Just(0.0f64), Just(-0.0f64)]),
            1..5,
        ),
        residual in arb_residual(),
        residual_first in any::<bool>(),
        arg in arb_agg_arg(),
        func_pick in 0usize..5,
    ) {
        let table = build_table(&rows);
        let (base, keys) = hash_base(&table, key_pick, &ws);
        let agg = match func_pick {
            0 => AggSpec::sum(arg, "a").unwrap(),
            1 => AggSpec::avg(arg, "a").unwrap(),
            2 => AggSpec::min(arg, "a").unwrap(),
            3 => AggSpec::max(arg, "a").unwrap(),
            _ => AggSpec::count_star("a"),
        };
        let theta = if residual_first { residual.and(keys) } else { keys.and(residual) };
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("c"), agg],
            theta,
        )]);
        let schema = detail_schema();
        let opts = EvalOptions { with_match_count: true, ..Default::default() };
        let compiled = eval_gmdj_sub(&base, &table, &schema, &op, &opts);
        let interpreted = eval_gmdj_sub(
            &base,
            &table,
            &schema,
            &op,
            &EvalOptions { compiled: false, ..opts },
        );
        match (compiled, interpreted) {
            (Ok((a, sa)), Ok((b, sb))) => {
                assert_bits_eq(&a, &b);
                prop_assert_eq!(sa.matches, sb.matches);
                prop_assert_eq!(sa.blocks_hashed, 1);
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!(
                "compiled and interpreted paths disagree on outcome: {:?} vs {:?}",
                a.map(|(r, _)| r),
                b.map(|(r, _)| r),
            ),
        }
    }

    /// Compiled predicates agree with the interpreter on every non-error
    /// lane: same definite boolean, same NULLs (three-valued logic).
    #[test]
    fn compiled_pred_agrees_with_interpreter(
        rows in arb_rows(),
        base_row in arb_base_row(),
        expr in arb_expr(),
    ) {
        let table = build_table(&rows);
        if let Some(pred) = CompiledPred::compile(&expr, &base_schema(), &detail_schema()) {
            let batch = table.batch(0, table.len());
            let lanes = pred.eval_batch(&base_row, &batch);
            prop_assert_eq!(lanes.vals.len(), table.len());
            for i in 0..table.len() {
                if lanes.errs[i] {
                    continue;
                }
                let row = table.row(i);
                let got = eval(&expr, &base_row, &row)
                    .unwrap_or_else(|e| panic!("interpreter errored on non-error lane {i}: {e}"));
                if lanes.nulls[i] {
                    prop_assert_eq!(got, Value::Null, "lane {} of {}", i, &expr);
                } else {
                    prop_assert_eq!(got, Value::Bool(lanes.vals[i]), "lane {} of {}", i, &expr);
                }
            }
        }
    }

    /// Compiled scalar kernels agree with the interpreter bit-for-bit
    /// (floats compared by bit pattern, so `-0.0` vs `0.0` and NaN payloads
    /// count as differences).
    #[test]
    fn compiled_scalar_agrees_with_interpreter(
        rows in arb_rows(),
        base_row in arb_base_row(),
        expr in arb_expr(),
    ) {
        let table = build_table(&rows);
        if let Some(scalar) = CompiledScalar::compile(&expr, &base_schema(), &detail_schema()) {
            let batch = table.batch(0, table.len());
            let lanes = scalar.eval_batch(&base_row, &batch);
            assert_scalar_lanes_agree(&expr, &base_row, &table, &lanes);
        }
    }

    /// Whole-GMDJ differential: evaluating with the compiled path enabled
    /// and disabled yields identical results — or both paths fail. This is
    /// the end-to-end guarantee the per-kernel tests build toward.
    #[test]
    fn gmdj_compiled_agrees_with_interpreter(
        rows in arb_rows(),
        theta in arb_expr(),
        arg in arb_agg_arg(),
        func_pick in 0usize..5,
    ) {
        let table = build_table(&rows);
        let base = table.distinct_project(&[0]).unwrap();
        let agg = match func_pick {
            0 => AggSpec::sum(arg, "a").unwrap(),
            1 => AggSpec::avg(arg, "a").unwrap(),
            2 => AggSpec::min(arg, "a").unwrap(),
            3 => AggSpec::max(arg, "a").unwrap(),
            _ => AggSpec::count_star("a"),
        };
        // θ references base column 0 (the group key) plus arbitrary
        // structure; base column 1 does not exist here, so clamp it away.
        let theta = Expr::base(0).eq(Expr::detail(0)).or(theta);
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("c"), agg],
            theta,
        )]);
        let schema = detail_schema();
        let compiled = eval_gmdj_full(&base, &table, &schema, &op, &EvalOptions::default());
        let interpreted = eval_gmdj_full(
            &base,
            &table,
            &schema,
            &op,
            &EvalOptions { compiled: false, ..Default::default() },
        );
        match (compiled, interpreted) {
            (Ok((a, _)), Ok((b, _))) => prop_assert_eq!(a.sorted(), b.sorted()),
            (Err(_), Err(_)) => {} // both reject (e.g. ill-typed θ): agreement
            (a, b) => panic!(
                "compiled and interpreted paths disagree on outcome: {:?} vs {:?}",
                a.map(|(r, _)| r),
                b.map(|(r, _)| r),
            ),
        }
    }
}

/// A detail-only conjunct runs ahead of the probe only where it passes
/// conjuncts that cannot raise. Here the residual first divides by the
/// join key, which is 0 for group 0, and then tests `r.v < 0`, FALSE on
/// every row: the interpreter raises on the pair that probes group 0, so
/// the compiled block must raise too; without such a row neither raises.
#[test]
fn hash_residual_hoists_only_past_infallible_conjuncts() {
    let base = Relation::new(
        base_schema(),
        vec![
            vec![Value::Int(0), Value::Float(0.0)],
            vec![Value::Int(1), Value::Float(1.0)],
        ],
    )
    .unwrap();
    let theta = Expr::base(0)
        .eq(Expr::detail(0))
        .and(Expr::detail(1).div(Expr::base(0)).gt(Expr::lit(0)))
        .and(Expr::detail(1).lt(Expr::lit(0)));
    let op = GmdjOp::new(vec![GmdjBlock::new(vec![AggSpec::count_star("c")], theta)]);
    let row = |g: i64| (g, Some(5), Some(1.0), "a".to_string(), None);
    let interpreted = EvalOptions {
        compiled: false,
        ..Default::default()
    };
    for (rows, raises) in [(vec![row(1), row(0)], true), (vec![row(1), row(2)], false)] {
        let table = build_table(&rows);
        let schema = detail_schema();
        let (compiled, stats) =
            match eval_gmdj_sub(&base, &table, &schema, &op, &Default::default()) {
                Ok((rel, stats)) => (Ok(rel), stats),
                Err(e) => (Err(e), Default::default()),
            };
        let oracle = eval_gmdj_sub(&base, &table, &schema, &op, &interpreted).map(|(r, _)| r);
        assert_eq!(compiled.is_err(), raises, "{compiled:?}");
        assert_eq!(oracle.is_err(), raises, "{oracle:?}");
        if !raises {
            assert_eq!(compiled.unwrap(), oracle.unwrap());
            assert_eq!(stats.blocks_compiled, 1);
        }
    }
}

/// The paper's §5 shapes whose later `MD`s carry a residual after the
/// equi-join — fig2 (`r.extendedprice >= b.avg1` per customer), fig4 (the
/// same per city), fig3 (`r.quantity > 30`) and the out-of-core
/// recent window (an `orderdate` range per nation) — run every block of
/// every round on compiled kernels, over in-memory and segment-backed
/// sites, unoptimized and fully optimized, and answer exactly like the
/// centralized interpreter. Nation partitioning keeps each group's rows
/// at one site in generation order, so even float averages agree bit
/// for bit.
#[test]
fn paper_shapes_run_compiled_end_to_end() {
    use skalla::tpcr::{
        generate, generate_to_dir, partition_by_nation, TpcrConfig, CITYNAME_COL, CUSTNAME_COL,
        EXTENDEDPRICE_COL, ORDERDATE_COL, QUANTITY_COL, TIMELINE_DAYS,
    };
    use skalla_bench::queries::date_range_query;
    use skalla_bench::{coalescible_query, correlated_query};
    const SITES: usize = 4;
    const NATIONNAME_COL: usize = 6;

    let config = TpcrConfig {
        time_ordered: true,
        ..TpcrConfig::scale(0.05)
    };
    let table = generate(&config);
    let parts = partition_by_nation(&table, SITES).unwrap();
    let dir = std::env::temp_dir().join(format!("skalla-paper-shapes-{}", std::process::id()));
    let paths: Vec<String> = generate_to_dir(&config, SITES, 256, &dir)
        .unwrap()
        .iter()
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    let mut full = Catalog::new();
    full.register("tpcr", table);
    let catalogs: Vec<Catalog> = parts
        .parts
        .iter()
        .map(|p| {
            let mut c = Catalog::new();
            c.register("tpcr", p.clone());
            c
        })
        .collect();
    let in_memory = DistributedWarehouse::launch(catalogs.clone(), CostModel::free()).unwrap();
    let on_disk = DistributedWarehouse::launch(catalogs, CostModel::free()).unwrap();
    on_disk.load_segments("tpcr", &paths).unwrap();
    let dist = DistributionInfo::from_partitioning(&parts);

    let hi = TIMELINE_DAYS - 45;
    let shapes = [
        (
            "fig2",
            correlated_query(CUSTNAME_COL, EXTENDEDPRICE_COL).unwrap(),
        ),
        (
            "fig4",
            correlated_query(CITYNAME_COL, EXTENDEDPRICE_COL).unwrap(),
        ),
        (
            "fig3",
            coalescible_query(CUSTNAME_COL, EXTENDEDPRICE_COL, QUANTITY_COL, 30.0).unwrap(),
        ),
        (
            "recent-window",
            date_range_query(NATIONNAME_COL, QUANTITY_COL, ORDERDATE_COL, hi - 90, hi).unwrap(),
        ),
    ];
    for (name, expr) in &shapes {
        let truth = eval_expr_centralized(expr, &full).unwrap().sorted();
        let plans = [
            ("unoptimized", DistPlan::unoptimized(expr.clone())),
            (
                "optimized",
                plan_query(expr, &dist, OptFlags::all()).unwrap().0,
            ),
        ];
        for (tag, wh) in [("in-memory", &in_memory), ("segments", &on_disk)] {
            for (opt, plan) in &plans {
                let ctx = format!("{name} {tag} {opt}");
                let (result, m) = wh.execute(plan).unwrap();
                assert_eq!(result.sorted(), truth, "{ctx}");
                assert!(m.total_blocks_compiled() > 0, "{ctx}");
                assert_eq!(m.total_blocks_interpreted(), 0, "{ctx}");
                assert_eq!(m.total_segments_scanned() > 0, tag == "segments", "{ctx}");
            }
        }
    }
    in_memory.shutdown().unwrap();
    on_disk.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
