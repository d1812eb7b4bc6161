//! Out-of-core segment scan benchmark with zone-map pruning (PR 9).
//!
//! PR 9 moves site storage out of core: each partition lives on disk as a
//! sequence of fixed-row-count compressed columnar segments whose footers
//! carry per-column zone maps (min/max/null-count). A GMDJ round decodes
//! one segment at a time — peak memory is a single segment plus the
//! aggregate states — and, when a block's condition bounds a detail
//! column, consults the zone maps first and skips every segment the
//! footer proves irrelevant, saving both the read and the decode.
//!
//! This bench generates a time-ordered TPCR table *straight to disk*
//! (`generate_to_dir` streams rows into per-site segment writers; the
//! full table is never materialized on the data path), launches a
//! warehouse whose site catalogs are segment-backed, and runs a selective
//! date-range GMDJ query twice: zone-map pruning off (every segment is
//! decoded) and on. Time-ordered generation gives each segment a narrow
//! `orderdate` window, so a "last N days" predicate lets the footers
//! refute the bulk of the file — the natural shape of an append-mostly
//! fact table queried on recent history.
//!
//! Every run is compared bit-for-bit against the centralized in-memory
//! evaluation of the same query over the identical table (`generate`
//! and `generate_to_dir` share one seeded row stream, so the on-disk
//! bytes decode to exactly the in-memory rows). Chunked segment scans
//! thread one running accumulator through the fold, so even float
//! aggregates agree to the last bit — pruning is exercised as a pure
//! optimization with no licence to change answers.
//!
//! The headline metric is **round time**: Σ over rounds of the maximum
//! per-site compute seconds — the parallel critical path a barrier
//! execution waits on. Sites report thread-CPU seconds, so the
//! comparison holds even when the host has fewer cores than sites.
//!
//! Usage: `segment_bench [--scale F] [--sites N] [--segment-rows N]
//! [--days N] [--iters N] [--out PATH] [--check]`.
//!
//! `--check` exits nonzero unless all of:
//!   1. every run (pruned and unpruned) is bit-exact vs the centralized
//!      in-memory evaluation;
//!   2. the zone maps pruned more than half of the eligible segment
//!      visits — those of the `MD` rounds; the `BASE DISTINCT` round
//!      reads every segment's key column and can prune none;
//!   3. the pruned scan's round time is ≥ 1.3× faster than the unpruned
//!      out-of-core scan. The round time sums every round, the
//!      unprunable `BASE DISTINCT` round included, so the margin is thin
//!      now that the `MD` round runs on compiled kernels: BENCH_9.json
//!      reads 1.57× at the default shape, and CI's `--scale 0.5 --iters 2`
//!      reads 1.36–1.53× on a quiet 2-core host and can fall below 1.3×
//!      when the host is busy.

use std::sync::Arc;
use std::time::Instant;

use skalla_bench::harness::{arg_f64, arg_flag, arg_usize};
use skalla_bench::queries::{date_range_query, TPCR_TABLE};
use skalla_core::{DistPlan, DistributedWarehouse, ExecMetrics};
use skalla_gmdj::eval_expr_centralized;
use skalla_net::CostModel;
use skalla_storage::{Catalog, SegmentFile};
use skalla_tpcr::{
    generate, generate_to_dir, TpcrConfig, NATIONKEY_COL, ORDERDATE_COL, QUANTITY_COL,
    TIMELINE_DAYS,
};
use skalla_types::{Relation, Value};

/// Bit-strict comparison of two (sorted) relations: `Value` equality
/// identifies `-0.0` with `0.0`; exactness here means the bits agree.
fn assert_bits_eq(a: &Relation, b: &Relation, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: row count");
    for (i, (ra, rb)) in a.rows().iter().zip(b.rows()).enumerate() {
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

struct Measurement {
    /// Round time: Σ per-round max site compute seconds (best of iters).
    round_s: f64,
    /// Measured wall seconds (best of iters).
    wall_s: f64,
    /// Metrics of the best pass, for the segment counters.
    metrics: ExecMetrics,
}

/// Run `plan` `iters` times on `wh`, assert exactness against `expected`
/// every pass, and keep the pass with the smallest round time.
fn measure(
    wh: &DistributedWarehouse,
    plan: &DistPlan,
    expected: &Relation,
    iters: usize,
    ctx: &str,
) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        let (rel, metrics) = wh.execute(plan).expect("execute");
        let wall_s = t0.elapsed().as_secs_f64();
        assert_bits_eq(&rel.sorted(), expected, ctx);
        let round_s = metrics.site_compute_s();
        if best.as_ref().is_none_or(|b| round_s < b.round_s) {
            best = Some(Measurement {
                round_s,
                wall_s,
                metrics,
            });
        }
    }
    best.expect("at least one iteration")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = arg_f64(&args, "--scale", 2.0);
    let sites = arg_usize(&args, "--sites", 4).max(1);
    let segment_rows = arg_usize(&args, "--segment-rows", 2048).max(1);
    let days = arg_usize(&args, "--days", 150) as i64;
    let iters = arg_usize(&args, "--iters", 5);
    let check = arg_flag(&args, "--check");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_9.json".to_string());

    let lo = (TIMELINE_DAYS - days).max(0);
    println!(
        "# out-of-core zone-map pruning: TPCR scale {scale} (time-ordered), {sites} sites, \
         {segment_rows}-row segments, last {days} days of {TIMELINE_DAYS}, best of {iters}"
    );

    // Stream the table to per-site segment files — the full table is never
    // materialized on this path.
    let cfg = TpcrConfig::scale(scale).with_time_ordered(true);
    let dir = std::env::temp_dir().join(format!("skalla-segment-bench-{}", std::process::id()));
    let paths = generate_to_dir(&cfg, sites, segment_rows, &dir).expect("generate to dir");

    let mut catalogs = Vec::with_capacity(sites);
    let mut total_segments = 0usize;
    let mut total_rows = 0usize;
    for p in &paths {
        let file = SegmentFile::open(p).expect("open segments");
        total_segments += file.num_segments();
        total_rows += file.total_rows();
        let mut c = Catalog::new();
        c.register_segments(TPCR_TABLE, Arc::new(file));
        catalogs.push(c);
    }

    // Centralized in-memory reference over the identical row stream.
    let expr = date_range_query(
        NATIONKEY_COL,
        QUANTITY_COL,
        ORDERDATE_COL,
        lo,
        TIMELINE_DAYS,
    )
    .expect("query");
    let mut full = Catalog::new();
    full.register(TPCR_TABLE, generate(&cfg));
    let expected = eval_expr_centralized(&expr, &full)
        .expect("centralized eval")
        .sorted();

    let wh = DistributedWarehouse::launch(catalogs, CostModel::lan_2002()).expect("launch");
    let pruned_plan = DistPlan::unoptimized(expr.clone());
    let unpruned_plan = DistPlan::unoptimized(expr).with_segment_prune(false);

    // Warmup: prime the page cache and JIT both paths once.
    let (warm, _) = wh.execute(&unpruned_plan).expect("warmup");
    assert_bits_eq(&warm.sorted(), &expected, "warmup");

    let unpruned = measure(&wh, &unpruned_plan, &expected, iters, "prune off");
    let pruned = measure(&wh, &pruned_plan, &expected, iters, "prune on");
    wh.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&dir).ok();

    // Only the MD rounds can prune: the BASE DISTINCT round reads the key
    // column of every segment, whatever the predicate.
    let (p_sc, p_pr) = pruned
        .metrics
        .rounds
        .iter()
        .filter(|r| r.label != "base")
        .fold((0, 0), |(sc, pr), r| {
            (sc + r.segments_scanned, pr + r.segments_pruned)
        });
    let visits = p_sc + p_pr;
    let pruned_frac = if visits > 0 {
        p_pr as f64 / visits as f64
    } else {
        0.0
    };
    let speedup = unpruned.round_s / pruned.round_s;

    println!(
        "{:<14} {:>9} {:>9} {:>12} {:>12} {:>9} {:>9} {:>6}",
        "path", "rows", "segments", "round_s", "wall_s", "scanned", "pruned", "vs"
    );
    let row = |label: &str, m: &Measurement, vs: f64| {
        println!(
            "{:<14} {:>9} {:>9} {:>12.4} {:>12.4} {:>9} {:>9} {:>5.2}x",
            label,
            total_rows,
            total_segments,
            m.round_s,
            m.wall_s,
            m.metrics.total_segments_scanned(),
            m.metrics.total_segments_pruned(),
            vs,
        );
    };
    row("prune off", &unpruned, 1.0);
    row("prune on", &pruned, speedup);
    println!(
        "# zone maps pruned {p_pr}/{visits} eligible segment visits ({:.0}%); \
         round-time speedup {speedup:.2}x",
        pruned_frac * 100.0
    );

    let path_json = |m: &Measurement| {
        format!(
            concat!(
                "{{\n",
                "    \"round_s\": {:.6},\n",
                "    \"wall_s\": {:.6},\n",
                "    \"segments_scanned\": {},\n",
                "    \"segments_pruned\": {}\n",
                "  }}"
            ),
            m.round_s,
            m.wall_s,
            m.metrics.total_segments_scanned(),
            m.metrics.total_segments_pruned(),
        )
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"segment_bench\",\n",
            "  \"generated_by\": \"cargo run --release -p skalla-bench --bin segment_bench\",\n",
            "  \"scale\": {},\n",
            "  \"sites\": {},\n",
            "  \"segment_rows\": {},\n",
            "  \"days\": {},\n",
            "  \"iters\": {},\n",
            "  \"rows\": {},\n",
            "  \"segments\": {},\n",
            "  \"prune_off\": {},\n",
            "  \"prune_on\": {},\n",
            "  \"pruned_fraction\": {:.3},\n",
            "  \"round_time_speedup\": {:.2},\n",
            "  \"exact_vs_centralized\": true\n",
            "}}\n"
        ),
        scale,
        sites,
        segment_rows,
        days,
        iters,
        total_rows,
        total_segments,
        path_json(&unpruned),
        path_json(&pruned),
        pruned_frac,
        speedup,
    );
    std::fs::write(&out, &json).expect("write JSON");
    println!("# wrote {out}");

    if check {
        assert!(
            pruned_frac > 0.5,
            "zone maps pruned only {p_pr}/{visits} segment visits \
             ({:.0}% <= 50%) on the last-{days}-days predicate",
            pruned_frac * 100.0
        );
        assert!(
            speedup >= 1.3,
            "pruned round time speedup {speedup:.2}x is below the 1.3x floor \
             (unpruned {:.4}s vs pruned {:.4}s)",
            unpruned.round_s,
            pruned.round_s
        );
        println!(
            "# check passed: {:.0}% pruned > 50%, {speedup:.2}x >= 1.3x, \
             all runs bit-exact vs centralized",
            pruned_frac * 100.0
        );
    }
}
