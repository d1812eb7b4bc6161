//! Differential tests for the out-of-core segment store (PR 9).
//!
//! The segment path must be *invisible* to query semantics: scanning a
//! table from compressed on-disk segments — with or without zone-map
//! pruning, whole or through a row window, serial or chunked — has to
//! produce bit-for-bit the answer of the in-memory evaluation. These
//! properties drive randomized tables through every encoding edge the
//! format has (NULL runs, `-0.0`/NaN/±∞ floats, RLE run boundaries,
//! dictionary strings, segment-edge row counts) and compare against the
//! in-memory evaluator, treating any diverging bit as a failure.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use skalla::expr::Expr;
use skalla::gmdj::{
    eval_gmdj_dual_source, eval_gmdj_sub, eval_gmdj_sub_segments, AggSpec, EvalOptions, GmdjBlock,
    GmdjOp,
};
use skalla::storage::{write_segments, ScanSource, SegmentFile, Table};
use skalla::types::{DataType, Relation, Schema, Value};

/// Unique scratch path per proptest case (cases run concurrently).
fn scratch_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "skalla-segtest-{tag}-{}-{n}.seg",
        std::process::id()
    ))
}

fn schema() -> std::sync::Arc<Schema> {
    Schema::from_pairs([
        ("k", DataType::Int64),
        ("f", DataType::Float64),
        ("s", DataType::Utf8),
        ("b", DataType::Bool),
    ])
    .unwrap()
    .into_arc()
}

/// A float generator biased toward the values that break naive codecs and
/// naive comparisons: negative zero, NaN, both infinities.
fn arb_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(-0.0f64),
        Just(0.0f64),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        -100.0f64..100.0,
        -1.0f64..1.0,
    ]
}

/// Rows generated as *runs* — `(len, k, f, s, b)` repeated `len` times —
/// so columns contain the repeated stretches the RLE and dictionary
/// encoders trigger on, with run boundaries landing at arbitrary offsets
/// relative to segment boundaries. `None` cells become NULLs.
fn arb_runs() -> impl Strategy<Value = Vec<Vec<Value>>> {
    let run = (
        1usize..6,
        0i64..4,
        prop::option::of(arb_float()),
        prop::option::of(0usize..3),
        any::<bool>(),
    );
    prop::collection::vec(run, 1..30).prop_map(|runs| {
        let mut rows = Vec::new();
        for (len, k, f, s, b) in runs {
            for _ in 0..len {
                rows.push(vec![
                    Value::Int(k),
                    f.map_or(Value::Null, Value::Float),
                    s.map_or(Value::Null, |i| Value::str(["ab", "cd", "ef"][i])),
                    Value::Bool(b),
                ]);
            }
        }
        rows
    })
}

/// Bit-strict relation comparison: equal schemas, row counts and row
/// widths, every value equal, and floats agreeing on raw bits (`Value`
/// equality identifies `-0.0` with `0.0` and NaN with itself, which would
/// mask codec bugs here). Panics propagate to proptest, which shrinks.
fn assert_bits_eq(a: &Relation, b: &Relation, ctx: &str) {
    assert_eq!(a.schema(), b.schema(), "{ctx}: schema");
    assert_eq!(a.len(), b.len(), "{ctx}: row count");
    for (i, (ra, rb)) in a.rows().iter().zip(b.rows()).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{ctx}: row {i} width");
        for (va, vb) in ra.iter().zip(rb) {
            match (va, vb) {
                (Value::Float(x), Value::Float(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: row {i}: {va:?} vs {vb:?}")
                }
                _ => assert_eq!(va, vb, "{ctx}: row {i}"),
            }
        }
    }
}

/// COUNT + AVG(f) per distinct `k`, filtered by `f ≤ t` — the AVG carries
/// float state (sum + count), and the `f ≤ t` bound is what the zone maps
/// prune on.
fn filtered_op(t: f64) -> GmdjOp {
    GmdjOp::new(vec![GmdjBlock::new(
        vec![
            AggSpec::count_star("cnt"),
            AggSpec::avg(Expr::detail(1), "avg").unwrap(),
        ],
        Expr::base(0)
            .eq(Expr::detail(0))
            .and(Expr::detail(1).le(Expr::lit(t))),
    )])
}

/// The operator shapes a column-projected segment scan must get right,
/// each with the base columns it groups by: [`filtered_op`], and ops
/// reading no detail column (θ on the base alone), one, one away from index
/// 0 (so the rewrite onto the projection is not the identity), several
/// read by different blocks, and every column; and a correlated residual
/// whose key matches several groups, checked per probed pair against a
/// base column after a detail-only filter. `f ≤ t` bounds give the zone
/// maps something to prune on.
fn op_shapes(t: f64) -> Vec<(&'static str, Vec<usize>, GmdjOp)> {
    let by_k = || Expr::base(0).eq(Expr::detail(0));
    let by_s = || Expr::base(0).eq(Expr::detail(2));
    vec![
        ("filtered", vec![0], filtered_op(t)),
        (
            "none",
            vec![0],
            GmdjOp::new(vec![GmdjBlock::new(
                vec![AggSpec::count_star("n")],
                Expr::base(0).ge(Expr::lit(1)),
            )]),
        ),
        (
            "one",
            vec![0],
            GmdjOp::new(vec![GmdjBlock::new(
                vec![
                    AggSpec::count_star("n"),
                    AggSpec::sum(Expr::detail(0), "sk").unwrap(),
                ],
                by_k(),
            )]),
        ),
        (
            "one-shifted",
            vec![2],
            GmdjOp::new(vec![GmdjBlock::new(vec![AggSpec::count_star("n")], by_s())]),
        ),
        (
            "several",
            vec![2],
            GmdjOp::new(vec![
                GmdjBlock::new(
                    vec![
                        AggSpec::count_star("n"),
                        AggSpec::avg(Expr::detail(1), "avg").unwrap(),
                    ],
                    by_s().and(Expr::detail(1).le(Expr::lit(t))),
                ),
                GmdjBlock::new(
                    vec![AggSpec::count_star("nb")],
                    by_s().and(Expr::detail(3).eq(Expr::lit(true))),
                ),
            ]),
        ),
        (
            "every",
            vec![0],
            GmdjOp::new(vec![GmdjBlock::new(
                vec![
                    AggSpec::count_star("n"),
                    AggSpec::avg(Expr::detail(1), "avg").unwrap(),
                    AggSpec::max(Expr::detail(2), "ms").unwrap(),
                ],
                by_k()
                    .and(Expr::detail(3).eq(Expr::lit(false)))
                    .and(Expr::detail(1).le(Expr::lit(t))),
            )]),
        ),
        (
            "correlated",
            vec![0, 2],
            GmdjOp::new(vec![GmdjBlock::new(
                vec![
                    AggSpec::count_star("n"),
                    AggSpec::avg(Expr::detail(1), "avg").unwrap(),
                ],
                by_k()
                    .and(Expr::detail(1).le(Expr::lit(t)))
                    .and(Expr::detail(2).ge(Expr::base(1))),
            )]),
        ),
    ]
}

proptest! {
    /// Writing a table as compressed segments and reading it back is the
    /// identity, bit for bit — NULL runs, NaN/-0.0/±∞ floats, dictionary
    /// strings, and every generated row count (including exact segment
    /// multiples) included.
    #[test]
    fn segment_round_trip_is_bit_exact(
        rows in arb_runs(),
        seg_rows in 1usize..24,
    ) {
        let table = Table::from_rows(schema(), &rows).unwrap();
        let path = scratch_path("roundtrip");
        let summary = write_segments(&path, &table, seg_rows).unwrap();
        let file = SegmentFile::open(&path).unwrap();

        prop_assert_eq!(summary.rows, table.len());
        prop_assert_eq!(file.total_rows(), table.len());
        prop_assert_eq!(file.num_segments(), table.len().div_ceil(seg_rows));
        let back = file.read_all().unwrap();
        drop(file);
        std::fs::remove_file(&path).ok();

        let decoded: Vec<Vec<Value>> = (0..back.len()).map(|i| back.row(i)).collect();
        let a = Relation::new(table.schema().clone(), rows).unwrap();
        let b = Relation::new(back.schema().clone(), decoded).unwrap();
        assert_bits_eq(&b, &a, "decoded table");
    }

    /// The segmented evaluator — pruned and unpruned, decoding only the
    /// columns each operator shape reads — agrees bit for bit, row order
    /// included, with the in-memory evaluator over every column. Pruning
    /// on never skips a segment containing a matching row (else the
    /// aggregates would differ), the scanned/pruned counters always
    /// account for every segment, and every scanned segment verifies all
    /// four of its chunks, read or not.
    #[test]
    fn segmented_eval_matches_in_memory(
        rows in arb_runs(),
        seg_rows in 1usize..24,
        t in -50.0f64..50.0,
    ) {
        let table = Table::from_rows(schema(), &rows).unwrap();
        let opts = EvalOptions { with_match_count: true, ..Default::default() };

        let path = scratch_path("eval");
        write_segments(&path, &table, seg_rows).unwrap();
        let file = SegmentFile::open(&path).unwrap();

        for (name, base_cols, op) in op_shapes(t) {
            let base = table.distinct_project(&base_cols).unwrap();
            let (mem, _) = eval_gmdj_sub(&base, &table, table.schema(), &op, &opts).unwrap();
            for prune in [false, true] {
                let ctx = format!("{name} prune {prune}");
                let (seg, sc) =
                    eval_gmdj_sub_segments(&base, &file, &op, &opts, prune, None).unwrap();
                assert_bits_eq(&seg, &mem, &ctx);
                prop_assert_eq!(
                    (sc.segments_scanned + sc.segments_pruned) as usize,
                    file.num_segments(),
                    "{}: every segment is either scanned or pruned", ctx
                );
                prop_assert_eq!(sc.blocks_verified, 4 * sc.segments_scanned, "{}", ctx);
                if !prune {
                    prop_assert_eq!(sc.segments_pruned, 0);
                }
            }
        }
        drop(file);
        std::fs::remove_file(&path).ok();
    }

    /// Scanning a row *window* of the segment file matches evaluating the
    /// same slice of the in-memory table — fragment addressing (skew
    /// splits, failover) must not change answers either.
    #[test]
    fn segmented_window_matches_in_memory_slice(
        rows in arb_runs(),
        seg_rows in 1usize..24,
        t in -50.0f64..50.0,
        cut in (0usize..97, 0usize..97),
    ) {
        let table = Table::from_rows(schema(), &rows).unwrap();
        let (mut lo, mut hi) = (cut.0 % (table.len() + 1), cut.1 % (table.len() + 1));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let window = table.row_range(lo, hi).unwrap();
        let opts = EvalOptions::default();

        let path = scratch_path("window");
        write_segments(&path, &table, seg_rows).unwrap();
        let file = SegmentFile::open(&path).unwrap();

        for (name, base_cols, op) in op_shapes(t) {
            let base = table.distinct_project(&base_cols).unwrap();
            let mem = eval_gmdj_dual_source(&base, &ScanSource::of_table(&window), &op, &opts, false)
                .unwrap();
            for prune in [false, true] {
                let ctx = format!("{name} prune {prune}: windowed");
                let source = ScanSource::of_segments(&file, Some((lo, hi)));
                let seg = eval_gmdj_dual_source(&base, &source, &op, &opts, prune).unwrap();
                assert_bits_eq(&seg.full, &mem.full, &ctx);
                prop_assert_eq!(&seg.states, &mem.states, "{} states", ctx);
                prop_assert_eq!(&seg.match_counts, &mem.match_counts, "{} match counts", ctx);
            }
        }
        drop(file);
        std::fs::remove_file(&path).ok();
    }
}

/// 10 000 rows, above the parallel threshold, with `f` rising in row order
/// so that `f ≤ t` bounds prune whole segments.
fn parallel_table() -> Table {
    let rows: Vec<Vec<Value>> = (0..10_000)
        .map(|i| {
            vec![
                Value::Int(i % 7),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    // Sums of these are order-sensitive in f64: any
                    // re-association between chunks changes final bits.
                    Value::Float((i as f64) * 0.1 + 1.0 / ((i % 13 + 1) as f64))
                },
                Value::str(["ab", "cd", "ef"][(i % 3) as usize]),
                Value::Bool(i % 2 == 0),
            ]
        })
        .collect();
    Table::from_rows(schema(), &rows).unwrap()
}

/// The chunked out-of-core scan reproduces the in-memory *parallel*
/// dispatch bit for bit: above the parallel threshold both paths cut the
/// scan at identical worker boundaries (which never align with segment
/// boundaries here) and merge partial states in identical order — for
/// every operator shape's projected decode, whole and windowed (window
/// edges inside segments), pruned and not.
#[test]
fn parallel_segmented_scan_is_bit_exact() {
    let table = parallel_table();
    let path = scratch_path("parallel");
    write_segments(&path, &table, 769).unwrap(); // prime: no boundary ever aligns
    let file = SegmentFile::open(&path).unwrap();

    for (name, base_cols, op) in op_shapes(640.0) {
        let base = table.distinct_project(&base_cols).unwrap();
        for range in [None, Some((1234, 9876))] {
            let (lo, hi) = range.unwrap_or((0, table.len()));
            let window = table.row_range(lo, hi).unwrap();
            for par in [1usize, 2, 3, 8] {
                let opts = EvalOptions {
                    parallelism: par,
                    with_match_count: true,
                    ..Default::default()
                };
                let (mem, _) = eval_gmdj_sub(&base, &window, table.schema(), &op, &opts).unwrap();
                for prune in [false, true] {
                    let ctx = format!("{name} range {range:?} par {par} prune {prune}");
                    let (seg, sc) =
                        eval_gmdj_sub_segments(&base, &file, &op, &opts, prune, range).unwrap();
                    assert_bits_eq(&seg, &mem, &ctx);
                    assert_eq!(sc.blocks_verified, 4 * sc.segments_scanned, "{ctx}");
                    // Only these shapes bound `f` in every block.
                    if prune && (name == "filtered" || name == "every") {
                        assert!(
                            sc.segments_pruned > 0,
                            "{ctx}: f ≤ 640 prunes the later segments"
                        );
                    }
                }
            }
        }
    }
    drop(file);
    std::fs::remove_file(&path).ok();
}

/// Segment-edge row counts: exactly one segment, exactly full segments,
/// one row over, one row under, and a single-row table all round-trip and
/// evaluate identically.
#[test]
fn segment_edge_row_counts() {
    let schema = schema();
    for n in [1usize, 15, 16, 17, 32, 33] {
        let rows: Vec<Vec<Value>> = (0..n as i64)
            .map(|i| {
                vec![
                    Value::Int(i % 3),
                    Value::Float(-0.0),
                    Value::Null,
                    Value::Bool(false),
                ]
            })
            .collect();
        let table = Table::from_rows(schema.clone(), &rows).unwrap();
        let path = scratch_path("edge");
        write_segments(&path, &table, 16).unwrap();
        let file = SegmentFile::open(&path).unwrap();
        assert_eq!(file.num_segments(), n.div_ceil(16));
        let back = file.read_all().unwrap();
        let decoded: Vec<Vec<Value>> = (0..back.len()).map(|i| back.row(i)).collect();
        assert_eq!(decoded, rows);
        // -0.0 must survive with its sign bit.
        for i in 0..n {
            match back.column(1).get(i) {
                Value::Float(f) => assert!(f.to_bits() == (-0.0f64).to_bits()),
                v => panic!("expected float, got {v:?}"),
            }
        }

        let base = table.distinct_project(&[0]).unwrap();
        let op = filtered_op(1.0);
        let opts = EvalOptions::default();
        let (mem, _) = eval_gmdj_sub(&base, &table, table.schema(), &op, &opts).unwrap();
        let (seg, _) = eval_gmdj_sub_segments(&base, &file, &op, &opts, true, None).unwrap();
        assert_eq!(seg.sorted(), mem.sorted(), "n = {n}");
        drop(file);
        std::fs::remove_file(&path).ok();
    }
}

/// End to end through the warehouse: sites scanning projected segment
/// files answer a `BASE DISTINCT` over a two-column key given out of
/// schema order exactly like the centralized in-memory evaluation —
/// flat and replicated placement (whose base round also sketches the key
/// columns off disk), serial and parallel site scans, pruning on and off.
#[test]
fn projected_warehouse_matches_centralized() {
    use skalla::prelude::{
        eval_expr_centralized, parse_query, partition_by_hash, Catalog, CostModel, DistPlan,
        DistributedWarehouse, FaultPlan,
    };
    const SITES: usize = 3;
    let table = parallel_table();
    let schemas = std::collections::HashMap::from([("t".to_string(), schema())]);
    // The rounds read columns 1–3 of 0–3, so the rewrite onto the
    // projection is not the identity. COUNT and MAX only: the coordinator
    // merges site sums in its own order, so float sums need not match a
    // centralized scan bit for bit.
    let expr = parse_query(
        "BASE DISTINCT b, s FROM t;
         MD COUNT(*) AS n, MAX(f) AS mf WHERE b.s = r.s AND b.b = r.b AND r.f <= 640;
         MD COUNT(*) AS top WHERE b.b = r.b AND b.s = r.s AND r.f >= b.mf - 50;",
        &schemas,
    )
    .unwrap();
    let mut full = Catalog::new();
    full.register("t", table.clone());
    let truth = eval_expr_centralized(&expr, &full).unwrap().sorted();

    let parts = partition_by_hash(&table, 2, SITES).unwrap();
    let dir = std::env::temp_dir().join(format!("skalla-segtest-wh-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<String> = (0..SITES)
        .map(|site| {
            let path = dir.join(format!("t-{site}.seg"));
            write_segments(&path, &parts.parts[site], 500).unwrap();
            path.to_string_lossy().into_owned()
        })
        .collect();
    let catalogs: Vec<Catalog> = parts
        .parts
        .iter()
        .map(|p| {
            let mut c = Catalog::new();
            c.register("t", p.clone());
            c
        })
        .collect();
    let flat = DistributedWarehouse::launch(catalogs, CostModel::free()).unwrap();
    let replicated = DistributedWarehouse::launch_replicated(
        "t",
        &parts,
        2,
        CostModel::free(),
        FaultPlan::none(),
    )
    .unwrap();
    for (tag, wh) in [("flat", &flat), ("replicated", &replicated)] {
        wh.load_segments("t", &paths).unwrap();
        for site_parallelism in [1, 2] {
            for segment_prune in [false, true] {
                let ctx = format!("{tag} par {site_parallelism} prune {segment_prune}");
                let mut plan = DistPlan::unoptimized(expr.clone());
                plan.site_parallelism = site_parallelism;
                plan.segment_prune = segment_prune;
                let (result, m) = wh.execute(&plan).unwrap();
                assert_eq!(result.sorted(), truth, "{ctx}");
                assert!(m.total_segments_scanned() > 0, "{ctx}");
                assert_eq!(
                    m.total_blocks_verified(),
                    4 * m.total_segments_scanned(),
                    "{ctx}"
                );
                assert_eq!(m.total_segments_pruned() > 0, segment_prune, "{ctx}");
            }
        }
    }
    flat.shutdown().unwrap();
    replicated.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every segment read is counted, in every round kind and through every
/// topology: each read CRC-checks all of a segment's chunks, so
/// `blocks_verified` is the schema width times `segments_scanned` in each
/// round. The `BASE DISTINCT` round reads every segment of every site file
/// once for its key columns, and once more for the skew sketch when the
/// placement is replicated; the tree sums its leaves' counts.
#[test]
fn every_segment_read_is_counted() {
    use skalla::core::TieredWarehouse;
    use skalla::prelude::{
        parse_query, partition_by_hash, Catalog, CostModel, DistPlan, DistributedWarehouse,
        ExecMetrics, FaultPlan,
    };
    const SITES: usize = 4;
    let table = parallel_table();
    let schemas = std::collections::HashMap::from([("t".to_string(), schema())]);
    let expr = parse_query(
        "BASE DISTINCT s FROM t;
         MD COUNT(*) AS n WHERE b.s = r.s;
         MD COUNT(*) AS hot WHERE b.s = r.s AND r.f >= 100;",
        &schemas,
    )
    .unwrap();
    let parts = partition_by_hash(&table, 2, SITES).unwrap();
    let dir = std::env::temp_dir().join(format!("skalla-segtest-count-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<String> = (0..SITES)
        .map(|site| {
            let path = dir.join(format!("t-{site}.seg"));
            write_segments(&path, &parts.parts[site], 300).unwrap();
            path.to_string_lossy().into_owned()
        })
        .collect();
    let segments: u64 = paths
        .iter()
        .map(|p| SegmentFile::open(p).unwrap().num_segments() as u64)
        .sum();
    let in_memory: Vec<Catalog> = parts
        .parts
        .iter()
        .map(|p| {
            let mut c = Catalog::new();
            c.register("t", p.clone());
            c
        })
        .collect();
    let on_disk: Vec<Catalog> = paths
        .iter()
        .map(|p| {
            let mut c = Catalog::new();
            c.register_segments("t", std::sync::Arc::new(SegmentFile::open(p).unwrap()));
            c
        })
        .collect();
    let check = |m: &ExecMetrics, base_reads: u64, ctx: &str| {
        let base = m.rounds.iter().find(|r| r.label == "base").unwrap();
        assert_eq!(base.segments_scanned, base_reads, "{ctx}");
        for r in &m.rounds {
            assert_eq!(
                r.blocks_verified,
                4 * r.segments_scanned,
                "{ctx} {}",
                r.label
            );
        }
        // Both MD rounds scan every segment too (no pruning).
        assert_eq!(
            m.total_segments_scanned(),
            base_reads + 2 * segments,
            "{ctx}"
        );
    };
    let mut plan = DistPlan::unoptimized(expr);
    plan.segment_prune = false;

    let flat = DistributedWarehouse::launch(in_memory, CostModel::free()).unwrap();
    flat.load_segments("t", &paths).unwrap();
    check(&flat.execute(&plan).unwrap().1, segments, "flat");
    flat.shutdown().unwrap();

    let replicated = DistributedWarehouse::launch_replicated(
        "t",
        &parts,
        2,
        CostModel::free(),
        FaultPlan::none(),
    )
    .unwrap();
    replicated.load_segments("t", &paths).unwrap();
    // Failover mode addresses partitions, which is what turns on sketches.
    let mut failover = plan.clone();
    failover.retry.degraded = skalla::prelude::DegradedMode::Failover;
    let (_, m) = replicated.execute(&failover).unwrap();
    check(&m, 2 * segments, "replicated");
    replicated.shutdown().unwrap();

    for fanout in [2, 3] {
        let tiered = TieredWarehouse::launch(on_disk.clone(), fanout, CostModel::free()).unwrap();
        let (_, m) = tiered.execute(&plan).unwrap();
        check(&m, segments, &format!("tiered fanout {fanout}"));
        tiered.shutdown().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A failover request naming two segment-backed partitions plus a
/// row-range fragment of a third, with the fragment's edges inside
/// segments, scans every window out-of-core: a site's answer equals the
/// in-memory evaluation over the union of the same rows bit for bit, row
/// order included, serial and parallel, pruned and not, and every segment
/// read is counted with all of its chunks.
#[test]
fn multi_fragment_segment_request_is_projected_pruned_and_counted() {
    use skalla::core::message::Message;
    use skalla::core::site::run_site;
    use skalla::net::{CostModel, SimNetwork};
    use skalla::prelude::{parse_query, partition_by_hash, Catalog, DistPlan};
    use skalla::storage::{partition_table_name, PartFrag};
    const SEG_ROWS: usize = 293;

    let table = parallel_table();
    let parts = partition_by_hash(&table, 0, 3).unwrap();
    let dir = std::env::temp_dir().join(format!("skalla-segtest-frags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut catalog = Catalog::new();
    for (p, part) in parts.parts.iter().enumerate() {
        let path = dir.join(format!("t-{p}.seg"));
        write_segments(&path, part, SEG_ROWS).unwrap();
        let file = std::sync::Arc::new(SegmentFile::open(&path).unwrap());
        catalog.register_segments(partition_table_name("t", p), file);
    }
    let frag = PartFrag {
        part: 1,
        frag: 1,
        of: 3,
    };
    let frags = vec![PartFrag::whole(2), PartFrag::whole(0), frag];
    let (lo, hi) = frag.row_bounds(parts.parts[1].len());
    assert!(
        lo % SEG_ROWS != 0 && hi % SEG_ROWS != 0,
        "edges inside segments"
    );
    let union = Table::concat(&[
        parts.parts[2].clone(),
        parts.parts[0].clone(),
        parts.parts[1].row_range(lo, hi).unwrap(),
    ])
    .unwrap();
    let schemas = std::collections::HashMap::from([("t".to_string(), schema())]);
    let expr = parse_query(
        "BASE DISTINCT s FROM t;
         MD COUNT(*) AS n, SUM(f) AS sf WHERE b.s = r.s;
         MD COUNT(*) AS low, AVG(f) AS af WHERE b.s = r.s AND r.f <= 300;",
        &schemas,
    )
    .unwrap();
    let base = union.distinct_project(&[2]).unwrap();

    let (_net, mut eps) = SimNetwork::full_mesh(2, CostModel::free());
    let site_ep = eps.pop().unwrap();
    let coord = eps.pop().unwrap();
    let site = std::thread::spawn(move || run_site(site_ep, catalog));
    let mut epoch = 0;
    for par in [1, 2] {
        for prune in [false, true] {
            epoch += 1;
            let mut plan = DistPlan::unoptimized(expr.clone());
            plan.site_parallelism = par;
            plan.segment_prune = prune;
            coord
                .send(1, Message::Plan(plan.clone()).to_wire_framed(epoch, 0))
                .unwrap();
            for (k, op) in expr.ops.iter().enumerate() {
                let ctx = format!("op {k} par {par} prune {prune}");
                let request = Message::Round {
                    op_idx: k as u32,
                    base: base.clone(),
                    parts: Some(frags.clone()),
                    task: 0,
                };
                coord
                    .send(1, request.to_wire_framed(epoch, k as u32 + 1))
                    .unwrap();
                let env = coord.recv().unwrap();
                let (_, _, reply) = Message::from_wire_framed(&env.payload).unwrap();
                let Message::Fragment {
                    rel,
                    last,
                    counters,
                    ..
                } = reply
                else {
                    panic!("{ctx}: {reply:?}");
                };
                assert!(last, "{ctx}: unblocked replies are one chunk");
                assert!(!plan.rounds[k].site_group_reduction);
                let opts = EvalOptions {
                    parallelism: par,
                    ..Default::default()
                };
                let (want, _) = eval_gmdj_sub(&base, &union, union.schema(), op, &opts).unwrap();
                assert_bits_eq(&rel, &want, &ctx);
                assert!(counters.segments_scanned > 0, "{ctx}");
                assert_eq!(
                    counters.blocks_verified,
                    4 * counters.segments_scanned,
                    "{ctx}"
                );
                assert_eq!(counters.segments_pruned > 0, prune && k == 1, "{ctx}");
            }
        }
    }
    coord
        .send(1, Message::Shutdown.to_wire_framed(epoch, 0))
        .unwrap();
    site.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
