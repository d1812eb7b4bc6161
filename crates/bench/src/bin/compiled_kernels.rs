//! Compiled-vs-interpreted kernel benchmark (the PR 3 baseline).
//!
//! Runs the site-local sub-aggregate accumulation — the hot loop of
//! Alg. GMDJDistribEval — over TPCR data twice per workload: once through
//! the compiled batch kernels (`EvalOptions::default()`) and once through
//! the row-at-a-time interpreter (`compiled: false`). Three workloads cover
//! both compiled plans:
//!
//! * `sub-aggregate-scan` — a band-histogram GMDJ (range θ, no equi-join
//!   conjuncts) that exercises the nested plan: a [`CompiledPred`]
//!   selection bitmap per base tuple per batch. This is the
//!   "interpreted-vs-compiled sub-aggregate scan" headline number.
//! * `hash-equijoin` — the §5 single-GMDJ query shape (COUNT + AVG per
//!   customer), exercising the hash plan with batched argument kernels and
//!   typed accumulators.
//! * `hash-residual` — fig2's second `MD` (COUNT of each customer's lines
//!   priced at or above the customer's average, over the first `MD`'s
//!   output): the hash probe plus a correlated residual checked on the
//!   probed pairs, with the average a per-group constant.
//!
//! A distributed run of the single-GMDJ query is included for the bytes
//! shipped and the `blocks_compiled` counter surfaced in `ExecMetrics`.
//! Results go to stdout and to a machine-readable JSON file (default
//! `BENCH_3.json`) so future PRs have a perf baseline.
//!
//! Usage: `compiled_kernels [--scale F] [--sites N] [--iters N]
//! [--out PATH] [--check]` — `--check` exits nonzero unless the scan
//! speedup and the hash-residual speedup are each ≥ 3×.
//!
//! [`CompiledPred`]: skalla_expr::CompiledPred

use std::time::Instant;

use skalla_bench::harness::{arg_f64, arg_flag, arg_usize};
use skalla_bench::{correlated_query, single_gmdj_query, ExperimentSetup};
use skalla_core::DistPlan;
use skalla_expr::Expr;
use skalla_gmdj::{
    eval_gmdj_full, eval_gmdj_sub, AggSpec, EvalOptions, EvalStats, GmdjBlock, GmdjOp,
};
use skalla_tpcr::{CUSTNAME_COL, EXTENDEDPRICE_COL};
use skalla_types::{DataType, Relation, Schema, Value};

/// One workload's measurements, compiled vs interpreted.
struct Measurement {
    name: &'static str,
    strategy: &'static str,
    groups: usize,
    interpreted_s: f64,
    compiled_s: f64,
    blocks_compiled: u32,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.interpreted_s / self.compiled_s
    }

    fn json(&self, detail_rows: usize) -> String {
        let rows = detail_rows as f64;
        format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"strategy\": \"{}\",\n",
                "      \"groups\": {},\n",
                "      \"interpreted_s\": {:.6},\n",
                "      \"compiled_s\": {:.6},\n",
                "      \"interpreted_rows_per_s\": {:.0},\n",
                "      \"compiled_rows_per_s\": {:.0},\n",
                "      \"speedup\": {:.2},\n",
                "      \"blocks_compiled\": {}\n",
                "    }}"
            ),
            self.name,
            self.strategy,
            self.groups,
            self.interpreted_s,
            self.compiled_s,
            rows / self.interpreted_s,
            rows / self.compiled_s,
            self.speedup(),
            self.blocks_compiled,
        )
    }
}

/// Time `op` over (`base`, table) in both modes, best-of-`iters` after one
/// untimed warm-up run each (so neither mode pays the process's first
/// touches of its allocations), checking that the two paths produce
/// identical relations and that the compiled run actually took the
/// compiled path.
fn measure(
    name: &'static str,
    strategy: &'static str,
    setup: &ExperimentSetup,
    base: &Relation,
    op: &GmdjOp,
    iters: usize,
) -> Measurement {
    let schema = setup.table.schema();
    let compiled_opts = EvalOptions::default();
    let interpreted_opts = EvalOptions {
        compiled: false,
        ..Default::default()
    };

    let time = |opts: &EvalOptions| -> (f64, Relation, EvalStats) {
        eval_gmdj_sub(base, &setup.table, schema, op, opts).expect("warm-up eval_gmdj_sub");
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..iters.max(1) {
            let t0 = Instant::now();
            let (rel, stats) =
                eval_gmdj_sub(base, &setup.table, schema, op, opts).expect("eval_gmdj_sub");
            best = best.min(t0.elapsed().as_secs_f64());
            out = Some((rel, stats));
        }
        let (rel, stats) = out.expect("at least one iteration");
        (best, rel, stats)
    };

    let (compiled_s, compiled_rel, compiled_stats) = time(&compiled_opts);
    let (interpreted_s, interpreted_rel, interpreted_stats) = time(&interpreted_opts);

    assert_eq!(
        compiled_rel.sorted(),
        interpreted_rel.sorted(),
        "{name}: compiled and interpreted sub-aggregates disagree"
    );
    assert!(
        compiled_stats.blocks_compiled > 0,
        "{name}: compiled run fell back to the interpreter"
    );
    assert_eq!(
        interpreted_stats.blocks_compiled, 0,
        "{name}: interpreted run used compiled kernels"
    );

    Measurement {
        name,
        strategy,
        groups: base.len(),
        interpreted_s,
        compiled_s,
        blocks_compiled: compiled_stats.blocks_compiled,
    }
}

/// Base relation of `n_bands` equal-width `[lo, hi)` bands covering the
/// table's `extendedprice` range — the datacube-style histogram dimension.
fn price_bands(setup: &ExperimentSetup, n_bands: usize) -> Relation {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for row in 0..setup.table.len() {
        if let Value::Float(p) = setup.table.row(row)[EXTENDEDPRICE_COL] {
            lo = lo.min(p);
            hi = hi.max(p);
        }
    }
    let width = (hi - lo) / n_bands as f64;
    let schema = Schema::from_pairs([("lo", DataType::Float64), ("hi", DataType::Float64)])
        .expect("band schema")
        .into_arc();
    let rows = (0..n_bands)
        .map(|i| {
            let band_lo = lo + width * i as f64;
            // Nudge the last bound past the max so it lands in a band.
            let band_hi = if i + 1 == n_bands {
                hi + 1.0
            } else {
                lo + width * (i + 1) as f64
            };
            vec![Value::Float(band_lo), Value::Float(band_hi)]
        })
        .collect();
    Relation::from_rows_unchecked(schema, rows)
}

/// The band-histogram GMDJ: COUNT, AVG, MIN, MAX of `extendedprice` per
/// price band. θ has no equi-join conjuncts, so evaluation is a full scan
/// per band — the nested compiled plan.
fn band_scan_op() -> GmdjOp {
    let price = || Expr::detail(EXTENDEDPRICE_COL);
    let theta = price().ge(Expr::base(0)).and(price().lt(Expr::base(1)));
    GmdjOp::new(vec![GmdjBlock::new(
        vec![
            AggSpec::count_star("cnt"),
            AggSpec::avg(price(), "avg").expect("avg"),
            AggSpec::min(price(), "min").expect("min"),
            AggSpec::max(price(), "max").expect("max"),
        ],
        theta,
    )])
}

/// The §5 single-GMDJ shape: COUNT + AVG of `extendedprice` per customer,
/// joined on the grouping attribute — the hash compiled plan.
fn equijoin_op() -> GmdjOp {
    GmdjOp::new(vec![GmdjBlock::new(
        vec![
            AggSpec::count_star("cnt"),
            AggSpec::avg(Expr::detail(EXTENDEDPRICE_COL), "avg").expect("avg"),
        ],
        Expr::base(0).eq(Expr::detail(CUSTNAME_COL)),
    )])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = arg_f64(&args, "--scale", 0.5);
    let n_sites = arg_usize(&args, "--sites", 4);
    let iters = arg_usize(&args, "--iters", 3);
    let check = arg_flag(&args, "--check");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_3.json".to_string());

    let setup = ExperimentSetup::new(scale, n_sites).expect("setup");
    let detail_rows = setup.table.len();
    println!("# compiled kernels vs interpreter (scale {scale}, {detail_rows} detail rows, best of {iters})");
    println!(
        "{:<20} {:>8} {:>7} {:>13} {:>11} {:>14} {:>12} {:>8}",
        "workload",
        "strategy",
        "groups",
        "interpreted_s",
        "compiled_s",
        "interp rows/s",
        "comp rows/s",
        "speedup"
    );

    let bands = price_bands(&setup, 16);
    let customers = setup
        .table
        .distinct_project(&[CUSTNAME_COL])
        .expect("distinct customers");
    // fig2: its first MD's output (customer, cnt1, avg1) is the second's
    // base.
    let fig2 = correlated_query(CUSTNAME_COL, EXTENDEDPRICE_COL).expect("fig2");
    let (averages, _) = eval_gmdj_full(
        &customers,
        &setup.table,
        setup.table.schema(),
        &fig2.ops[0],
        &EvalOptions::default(),
    )
    .expect("fig2 first MD");
    let workloads = [
        measure(
            "sub-aggregate-scan",
            "nested",
            &setup,
            &bands,
            &band_scan_op(),
            iters,
        ),
        measure(
            "hash-equijoin",
            "hash",
            &setup,
            &customers,
            &equijoin_op(),
            iters,
        ),
        measure(
            "hash-residual",
            "hash",
            &setup,
            &averages,
            &fig2.ops[1],
            iters,
        ),
    ];
    for m in &workloads {
        println!(
            "{:<20} {:>8} {:>7} {:>13.4} {:>11.4} {:>14.0} {:>12.0} {:>7.2}x",
            m.name,
            m.strategy,
            m.groups,
            m.interpreted_s,
            m.compiled_s,
            detail_rows as f64 / m.interpreted_s,
            detail_rows as f64 / m.compiled_s,
            m.speedup(),
        );
    }

    // Distributed context: bytes shipped and the blocks_compiled counter
    // surfaced through ExecMetrics (sites run the compiled path by default).
    let expr = single_gmdj_query(CUSTNAME_COL, EXTENDEDPRICE_COL).expect("query");
    let wh = setup.launch().expect("launch");
    let (_, metrics) = wh
        .execute(&DistPlan::unoptimized(expr))
        .expect("distributed run");
    wh.shutdown().expect("shutdown");
    let (bytes_down, bytes_up) = (metrics.total_bytes_down(), metrics.total_bytes_up());
    let (bc, bi) = (
        metrics.total_blocks_compiled(),
        metrics.total_blocks_interpreted(),
    );
    println!(
        "# distributed single-gmdj ({n_sites} sites): {bytes_down} B down, {bytes_up} B up, \
         {bc} blocks compiled, {bi} interpreted"
    );
    assert!(bc > 0, "distributed run reported no compiled blocks");

    let scan_speedup = workloads[0].speedup();
    let residual_speedup = workloads[2].speedup();
    let workload_json: Vec<String> = workloads.iter().map(|m| m.json(detail_rows)).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"compiled_kernels\",\n",
            "  \"generated_by\": \"cargo run --release -p skalla-bench --bin compiled_kernels\",\n",
            "  \"scale\": {},\n",
            "  \"sites\": {},\n",
            "  \"iters\": {},\n",
            "  \"detail_rows\": {},\n",
            "  \"workloads\": [\n{}\n  ],\n",
            "  \"scan_speedup\": {:.2},\n",
            "  \"residual_speedup\": {:.2},\n",
            "  \"distributed\": {{\n",
            "    \"query\": \"single-gmdj\",\n",
            "    \"bytes_down\": {},\n",
            "    \"bytes_up\": {},\n",
            "    \"blocks_compiled\": {},\n",
            "    \"blocks_interpreted\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        scale,
        n_sites,
        iters,
        detail_rows,
        workload_json.join(",\n"),
        scan_speedup,
        residual_speedup,
        bytes_down,
        bytes_up,
        bc,
        bi,
    );
    std::fs::write(&out, &json).expect("write JSON");
    println!("# wrote {out}");

    if check {
        assert!(
            scan_speedup >= 3.0,
            "sub-aggregate scan speedup {scan_speedup:.2}x is below the 3x floor"
        );
        assert!(
            residual_speedup >= 3.0,
            "hash-residual speedup {residual_speedup:.2}x is below the 3x floor"
        );
        println!(
            "# check passed: scan speedup {scan_speedup:.2}x >= 3x, \
             hash-residual speedup {residual_speedup:.2}x >= 3x"
        );
    }
}
