//! The in-process workloads — `paper-mix`, `tiered` and `out-of-core` —
//! driven by one closed-loop client: the benchmark's own thread calls the
//! coordinator and sends the next query when the previous one returned.

use std::sync::Arc;
use std::time::Instant;

use skalla_core::{DistPlan, DistributedWarehouse, ExecMetrics, TieredWarehouse};
use skalla_gmdj::GmdjExpr;
use skalla_net::{CostModel, SimNetwork};
use skalla_planner::DistributionInfo;
use skalla_storage::{Catalog, Partitioning, SegmentFile, Table};
use skalla_tpcr::{
    generate, partition_by_nation, TpcrConfig, CITYNAME_COL, CUSTNAME_COL, EXTENDEDPRICE_COL,
    NATIONKEY_COL, ORDERDATE_COL, QUANTITY_COL, TIMELINE_DAYS,
};
use skalla_types::Relation;

use crate::check::{bytes_agree, root_rows_up, same_answer, segment_accounting, theorem2, Checks};
use crate::data::{
    data_seed, site_catalogs, Answers, ExecSums, LinkDelta, PlanCtx, Query, Rng, RowFilter, TABLE,
};
use crate::measure::{peak_rss_mb, percentile, sliced_timings, Metrics, Phase};
use crate::probe::{self, ScratchDir};
use crate::trace::Tracer;
use crate::{Opts, Outcome};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperMix,
    Tiered,
    OutOfCore,
}

/// Sites of the paper's setup (§5.1: eight sites, partitioned on nation).
const SITES: usize = 8;
/// Leaves per mid-tier in `tiered`: 8 leaves under 2 mid-tiers.
const FANOUT: usize = 4;
/// TPC-R scale of `paper-mix` and `tiered` (1.0 = 60 000 rows).
const MIX_SCALE: f64 = 0.5;
/// TPC-R scale and sites of `out-of-core`.
const OOC_SCALE: f64 = 1.0;
const OOC_SITES: usize = 4;
/// Rounds of the query mix per second of `--seconds`, about what this
/// host completes: at 15 s, 450 and 480 queries, so each third of a run
/// holds well over 100 latencies.
const MIX_ROUNDS_PER_S: f64 = 3.0;
const OOC_ROUNDS_PER_S: f64 = 4.0;
/// Untimed passes over every distinct query before the measured phase.
const WARMUP_PASSES: usize = 2;

fn correlated(shape: &'static str, col: &str, group: usize) -> Query {
    Query {
        shape,
        text: format!(
            "BASE DISTINCT {col} FROM tpcr;
             MD COUNT(*) AS cnt1, AVG(extendedprice) AS avg1 WHERE b.{col} = r.{col};
             MD COUNT(*) AS cnt2 WHERE b.{col} = r.{col} AND r.extendedprice >= b.avg1;"
        ),
        counts: vec![
            ("cnt1", RowFilter::All),
            (
                "cnt2",
                RowFilter::AtLeastGroupAvg {
                    group,
                    measure: EXTENDEDPRICE_COL,
                    over: Box::new(RowFilter::All),
                },
            ),
        ],
    }
}

/// The paper's §5 shapes and how many of each one round of the mix holds.
/// By latency the shapes rank single-nation < fig4 < fig2 < fig3; with
/// shares of 20/10/40/30% the mix's p50 falls mid-way through fig2's
/// latencies and its p90 two thirds of the way through fig3's.
fn paper_mix() -> Vec<(Query, usize)> {
    vec![
        (correlated("fig2-custname", "custname", CUSTNAME_COL), 4),
        (correlated("fig4-cityname", "cityname", CITYNAME_COL), 1),
        (
            Query {
                shape: "fig3-coalescible",
                text: "BASE DISTINCT custname FROM tpcr;
                       MD COUNT(*) AS cnt1, AVG(extendedprice) AS avg1
                          WHERE b.custname = r.custname;
                       MD COUNT(*) AS cnt2, AVG(extendedprice) AS avg2
                          WHERE b.custname = r.custname AND r.quantity > 30;"
                    .to_string(),
                counts: vec![
                    ("cnt1", RowFilter::All),
                    ("cnt2", RowFilter::Above(QUANTITY_COL, 30.0)),
                ],
            },
            3,
        ),
        (
            Query {
                shape: "single-nation",
                text: "BASE DISTINCT nationname FROM tpcr;
                       MD COUNT(*) AS cnt, AVG(extendedprice) AS avg
                          WHERE b.nationname = r.nationname;"
                    .to_string(),
                counts: vec![("cnt", RowFilter::All)],
            },
            2,
        ),
    ]
}

/// Width in days of each `out-of-core` recent window.
const WINDOW_DAYS: i64 = 90;

/// `out-of-core`: six fixed recent date windows — 90-day windows ending 0,
/// 45, …, 225 days before the end of the timeline — which zone maps
/// prune, and full-history scans that decode every segment. A window
/// overlaps one or two segments of each site file depending on where the
/// seed's data puts the segment boundaries; six windows average that
/// out. With shares of 75/25% the mix's p50 falls two thirds of the way
/// through the windows' latencies and its p90 mid-way through the scans'.
fn ooc_mix() -> Vec<(Query, usize)> {
    let mut mix = Vec::new();
    for back in (0..6).map(|k| 45 * k) {
        let hi = (TIMELINE_DAYS - back) as f64;
        let lo = hi - WINDOW_DAYS as f64;
        mix.push((
            Query {
                shape: "recent-window",
                text: format!(
                    "BASE DISTINCT nationname FROM tpcr;
                     MD COUNT(*) AS cnt, AVG(quantity) AS avg_qty
                        WHERE b.nationname = r.nationname
                          AND r.orderdate >= {lo} AND r.orderdate < {hi};"
                ),
                counts: vec![("cnt", RowFilter::Within(ORDERDATE_COL, lo, hi))],
            },
            1,
        ));
    }
    mix.push((
        Query {
            shape: "full-history",
            text: "BASE DISTINCT custname FROM tpcr;
                   MD COUNT(*) AS cnt, SUM(extendedprice) AS rev
                      WHERE b.custname = r.custname;"
                .to_string(),
            counts: vec![("cnt", RowFilter::All)],
        },
        2,
    ));
    mix
}

enum Engine {
    Flat(DistributedWarehouse),
    Tiered(TieredWarehouse),
}

impl Engine {
    fn network(&self) -> &SimNetwork {
        match self {
            Engine::Flat(w) => w.network(),
            Engine::Tiered(w) => w.network(),
        }
    }

    /// Sites the coordinator addresses: the sites, or the mid-tiers.
    fn children(&self) -> usize {
        match self {
            Engine::Flat(w) => w.num_sites(),
            Engine::Tiered(w) => w.num_mid_tiers(),
        }
    }

    /// Execute `plan`; returns the answer, its metrics, and the seconds
    /// spent in the coordinator's calls (begin plus every step when
    /// traced, the execute call otherwise).
    fn run(&self, plan: &DistPlan, tr: &mut Tracer) -> (Relation, ExecMetrics, f64) {
        let t = Instant::now();
        let out = match self {
            Engine::Flat(w) if tr.enabled() => tr.span("core.execute", |tr| {
                let mut run = tr.span("core.begin", |_| w.begin(plan))?;
                while !tr.span("core.step", |_| run.step())? {}
                run.into_result()
            }),
            Engine::Flat(w) => w.execute(plan),
            Engine::Tiered(w) => tr.span("core.tiered_execute", |_| w.execute(plan)),
        };
        let (rel, m) = out.unwrap_or_else(|e| panic!("query failed: {e}"));
        (rel, m, t.elapsed().as_secs_f64())
    }

    fn shutdown(self) {
        match self {
            Engine::Flat(w) => w.shutdown(),
            Engine::Tiered(w) => w.shutdown(),
        }
        .expect("warehouse shuts down");
    }
}

/// Planned queries bound to a launched engine.
struct Bound {
    engine: Engine,
    queries: Vec<Query>,
    exprs: Vec<GmdjExpr>,
    plans: Vec<DistPlan>,
}

impl Bound {
    fn new(engine: Engine, queries: Vec<Query>, ctx: &PlanCtx, tr: &mut Tracer) -> Bound {
        let exprs: Vec<GmdjExpr> = queries.iter().map(|q| ctx.parse(&q.text, tr)).collect();
        let plans = exprs.iter().map(|e| ctx.plan(e, tr)).collect();
        Bound {
            engine,
            queries,
            exprs,
            plans,
        }
    }
}

struct Loaded {
    bound: Bound,
    /// One round of the mix, as indices into `queries`.
    round: Vec<usize>,
    ctx: PlanCtx,
    cfg: TpcrConfig,
    /// In-memory workloads: the generated table and its partitions.
    table: Option<(Table, Partitioning)>,
    /// `out-of-core`: the site segment files and their directory.
    files: Vec<Arc<SegmentFile>>,
    _dir: Option<ScratchDir>,
}

fn load(kind: Kind, seed: u64, tr: &mut Tracer, layers: &mut Metrics) -> Loaded {
    let (mix, cfg) = match kind {
        Kind::OutOfCore => (
            ooc_mix(),
            TpcrConfig::scale(OOC_SCALE)
                .with_seed(data_seed(seed))
                .with_time_ordered(true),
        ),
        _ => (
            paper_mix(),
            TpcrConfig::scale(MIX_SCALE).with_seed(data_seed(seed)),
        ),
    };
    let mut round = Vec::new();
    for (i, (_, weight)) in mix.iter().enumerate() {
        round.extend(std::iter::repeat_n(i, *weight));
    }
    let queries: Vec<Query> = mix.into_iter().map(|(q, _)| q).collect();

    let (engine, ctx, table, files, dir) = if kind == Kind::OutOfCore {
        let dir = ScratchDir::new("ooc");
        let (write_s, open_s, files) = probe::write_segments(&cfg, OOC_SITES, &dir.0);
        layers.add("tpcr.generate_to_dir_s", write_s, "s");
        layers.add("storage.segment_open_s", open_s, "s");
        let mut stats = files[0].table_stats();
        for f in &files[1..] {
            stats.merge(&f.table_stats());
        }
        let catalogs: Vec<Catalog> = files
            .iter()
            .map(|f| {
                let mut c = Catalog::new();
                c.register_segments(TABLE, f.clone());
                c
            })
            .collect();
        // Nation partitioning is declared without per-site value sets,
        // as for any segment-backed load: deriving them would scan the
        // data this mode keeps on disk.
        let ctx = PlanCtx {
            schemas: [(TABLE.to_string(), files[0].schema().clone())].into(),
            dist: DistributionInfo {
                num_sites: OOC_SITES,
                partition_col: Some(NATIONKEY_COL),
                is_partition_attribute: true,
                site_constraints: None,
                replication: 1,
                partition_info: None,
            },
            stats,
        };
        let wh = DistributedWarehouse::launch(catalogs, CostModel::lan_2002()).expect("launch");
        (Engine::Flat(wh), ctx, None, files, Some(dir))
    } else {
        let t = Instant::now();
        let table = generate(&cfg);
        layers.add("tpcr.generate_s", t.elapsed().as_secs_f64(), "s");
        let t = Instant::now();
        let parts = partition_by_nation(&table, SITES).expect("partition");
        layers.add("storage.partition_s", t.elapsed().as_secs_f64(), "s");
        let ctx = PlanCtx::for_partitioned(&table, &parts);
        let catalogs = site_catalogs(&parts);
        let engine = match kind {
            Kind::Tiered => Engine::Tiered(
                TieredWarehouse::launch(catalogs, FANOUT, CostModel::lan_2002())
                    .expect("tree launch"),
            ),
            _ => Engine::Flat(
                DistributedWarehouse::launch(catalogs, CostModel::lan_2002()).expect("launch"),
            ),
        };
        (engine, ctx, Some((table, parts)), Vec::new(), None)
    };
    Loaded {
        bound: Bound::new(engine, queries, &ctx, tr),
        round,
        ctx,
        cfg,
        table,
        files,
        _dir: dir,
    }
}

/// What one pass over the query order measured.
#[derive(Default)]
struct Pass {
    latencies: Vec<f64>,
    /// Seconds from the start of the pass to each completion.
    done_at: Vec<f64>,
    exec: ExecSums,
    links: LinkDelta,
    core_s: f64,
    wall_s: f64,
    cpu_s: f64,
}

impl Pass {
    fn queries(&self) -> f64 {
        self.latencies.len().max(1) as f64
    }
}

/// Checks and answers gathered across passes.
#[derive(Default)]
struct Seen {
    answers: Answers,
    checks: Checks,
    /// `out-of-core`: each query's distinct per-round (scanned, pruned)
    /// segment counts.
    segment_profiles: Vec<(usize, Vec<(u64, u64)>)>,
}

fn pass(l: &Bound, kind: Kind, order: &[usize], tr: &mut Tracer, seen: &mut Seen) -> Pass {
    let net = l.engine.network();
    let nodes = net.num_nodes();
    let mut p = Pass::default();
    let phase = Phase::start();
    for (n, &qi) in order.iter().enumerate() {
        tr.set_query(n as u64);
        let before = net.stats();
        let t = Instant::now();
        let (rel, m, core_s) = l.engine.run(&l.plans[qi], tr);
        let latency = t.elapsed().as_secs_f64();
        let d = LinkDelta::between(&before, &net.stats(), nodes);

        p.latencies.push(latency);
        p.done_at.push(phase.elapsed_s());
        p.exec.add(&m);
        p.core_s += core_s;
        p.links.add(&d);

        let shape = l.queries[qi].shape;
        let checks = &mut seen.checks;
        let groups = rel.len();
        checks.record(
            shape,
            theorem2(&m, l.exprs[qi].ops.len(), l.engine.children(), groups),
        );
        match kind {
            Kind::Tiered => {
                checks.record(shape, bytes_agree(d.root, &m));
                checks.record(shape, root_rows_up(&m, l.engine.children(), groups));
            }
            _ => checks.record(shape, bytes_agree(d.total(), &m)),
        }
        if kind == Kind::OutOfCore {
            let profile: Vec<(u64, u64)> = m
                .rounds
                .iter()
                .map(|r| (r.segments_scanned, r.segments_pruned))
                .collect();
            if !seen.segment_profiles.contains(&(qi, profile.clone())) {
                seen.segment_profiles.push((qi, profile));
            }
        }
        seen.answers.record(qi, rel);
    }
    (p.wall_s, p.cpu_s) = phase.stop();
    p
}

/// Which segment of each site file holds each generated row, so the
/// segments that hold a row matching `filter` can be counted.
fn segments_holding(full: &Table, files: &[Arc<SegmentFile>], filter: &RowFilter) -> u64 {
    let sites = files.len();
    let mut next_row = vec![0usize; sites];
    let mut holding: Vec<Vec<bool>> = files
        .iter()
        .map(|f| vec![false; f.num_segments()])
        .collect();
    let nation = full.column(NATIONKEY_COL);
    for i in 0..full.len() {
        let site = (nation.get(i).as_int().expect("nationkey is an integer") as usize) % sites;
        let pos = next_row[site];
        next_row[site] += 1;
        if filter.passes(full, i) {
            let f = &files[site];
            let seg = (0..f.num_segments())
                .rfind(|&s| f.segment_row_start(s) <= pos)
                .expect("row inside the file");
            holding[site][seg] = true;
        }
    }
    holding.iter().flatten().filter(|&&h| h).count() as u64
}

/// One line per shape: its share of the order and its latency quartiles,
/// to see where the mix's p50 and p90 fall.
pub fn shape_latencies(queries: &[Query], order: &[usize], latencies: &[f64]) -> Vec<String> {
    let mut shapes: Vec<&str> = Vec::new();
    for q in queries {
        if !shapes.contains(&q.shape) {
            shapes.push(q.shape);
        }
    }
    shapes
        .into_iter()
        .map(|shape| {
            let lat: Vec<f64> = order
                .iter()
                .zip(latencies)
                .filter(|(&qi, _)| queries[qi].shape == shape)
                .map(|(_, &l)| l * 1e3)
                .collect();
            format!(
                "{shape:<22} {:>5.1}% of queries, latency ms p25 {:.3} p50 {:.3} p75 {:.3}",
                100.0 * lat.len() as f64 / order.len().max(1) as f64,
                percentile(&lat, 25.0),
                percentile(&lat, 50.0),
                percentile(&lat, 75.0)
            )
        })
        .collect()
}

pub fn run(kind: Kind, opts: &Opts) -> Outcome {
    let mut tr = Tracer::new(false);
    let mut layers = Metrics::default();
    let l = load(kind, opts.seed, &mut tr, &mut layers);
    let setup_s = opts.start.elapsed().as_secs_f64();

    let b = &l.bound;
    let mut seen = Seen::default();
    for _ in 0..WARMUP_PASSES {
        let all: Vec<usize> = (0..b.queries.len()).collect();
        pass(b, kind, &all, &mut tr, &mut seen);
    }
    let per_s = if kind == Kind::OutOfCore {
        OOC_ROUNDS_PER_S
    } else {
        MIX_ROUNDS_PER_S
    };
    // A traced run makes two passes (plain, traced) of half as many rounds.
    let rounds = ((opts.seconds as f64 * per_s).ceil() as usize / (1 + opts.trace as usize)).max(1);
    let mut rng = Rng::new(opts.seed.wrapping_add(1));
    let mut order = Vec::with_capacity(rounds * l.round.len());
    for _ in 0..rounds {
        let mut r = l.round.clone();
        rng.shuffle(&mut r);
        order.extend(r);
    }

    let plain = pass(b, kind, &order, &mut tr, &mut seen);
    let traced = opts.trace.then(|| {
        let mut t = Tracer::new(true);
        let p = pass(b, kind, &order, &mut t, &mut seen);
        (p, t)
    });
    let peak_rss = peak_rss_mb();

    // Oracle data from here on: the peak RSS above does not include it.
    let t = Instant::now();
    let regenerated;
    let (full, parts) = match &l.table {
        Some((table, parts)) => (table, parts),
        None => {
            let full = generate(&l.cfg);
            let gen_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let parts = partition_by_nation(&full, OOC_SITES).expect("partition");
            layers.add("tpcr.generate_s", gen_s, "s");
            layers.add("storage.partition_s", t.elapsed().as_secs_f64(), "s");
            regenerated = (full, parts);
            (&regenerated.0, &regenerated.1)
        }
    };
    seen.answers
        .check(&b.queries, &l.ctx, full, &mut seen.checks);
    if kind == Kind::Tiered {
        let flat = DistributedWarehouse::launch(site_catalogs(parts), CostModel::lan_2002())
            .expect("flat launch");
        for (qi, q) in b.queries.iter().enumerate() {
            let (want, _) = flat.execute(&b.plans[qi]).expect("flat execute");
            let got = seen.answers.first(qi).expect("every query ran");
            seen.checks.record(q.shape, same_answer(&got, &want));
        }
        flat.shutdown().expect("flat shutdown");
    }
    if kind == Kind::OutOfCore {
        let total: u64 = l.files.iter().map(|f| f.num_segments() as u64).sum();
        for (qi, rounds) in &seen.segment_profiles {
            let filter = &b.queries[*qi].counts[0].1;
            let needed = segments_holding(full, &l.files, filter);
            let full_history = matches!(filter, RowFilter::All);
            seen.checks.record(
                b.queries[*qi].shape,
                segment_accounting(rounds, total, needed, full_history),
            );
        }
    }

    let mut out = Outcome {
        attempted: order.len() as u64 * if opts.trace { 2 } else { 1 },
        checks: seen.checks,
        metrics: Metrics::default(),
        spans: None,
        notes: shape_latencies(&b.queries, &order, &plain.latencies),
    };
    out.notes.push(match &l.table {
        Some((t, parts)) => format!("{} rows on {} sites", t.len(), parts.num_sites()),
        None => format!(
            "{} rows in {} segments of up to {} rows on {} sites",
            l.files.iter().map(|f| f.total_rows()).sum::<usize>(),
            l.files.iter().map(|f| f.num_segments()).sum::<usize>(),
            probe::SEGMENT_ROWS,
            l.files.len()
        ),
    });
    match traced {
        None => {
            let n = plain.queries();
            let m = &mut out.metrics;
            m.add("setup_s", setup_s, "s");
            let (qps, p50, p90) = sliced_timings(&plain.done_at, &plain.latencies);
            m.add("qps", qps, "1/s");
            m.add("latency_p50_ms", p50, "ms");
            m.add("latency_p90_ms", p90, "ms");
            m.add("cpu_ms_per_query", plain.cpu_s * 1e3 / n, "ms");
            m.add("bytes_per_query", plain.links.total() as f64 / n, "bytes");
            m.add("peak_rss_mb", peak_rss, "MiB");
        }
        Some((tp, spans)) => {
            layer_metrics(
                &l,
                kind,
                opts.seed,
                &mut out.checks,
                &plain,
                &tp,
                &mut layers,
            );
            out.metrics = layers;
            out.spans = Some(spans);
        }
    }
    l.bound.engine.shutdown();
    out
}

/// The per-layer figures of a traced run: counters of the traced pass,
/// layer replays on this workload's inputs, and the tracing overhead.
fn layer_metrics(
    l: &Loaded,
    kind: Kind,
    seed: u64,
    checks: &mut Checks,
    plain: &Pass,
    tp: &Pass,
    m: &mut Metrics,
) {
    let q = tp.queries();
    let e = &tp.exec;
    // Storage and generator replays: `out-of-core` measured its own set-up;
    // the in-memory workloads write their table as segments here.
    let scratch;
    let files: &[Arc<SegmentFile>] = if kind == Kind::OutOfCore {
        &l.files
    } else {
        let dir = ScratchDir::new("probe");
        let (write_s, open_s, files) = probe::write_segments(&l.cfg, SITES, &dir.0);
        m.add("tpcr.generate_to_dir_s", write_s, "s");
        m.add("storage.segment_open_s", open_s, "s");
        scratch = (dir, files);
        &scratch.1
    };
    probe::segment_reads(probe::largest(files), m);
    m.add(
        "storage.segments_scanned_per_query",
        e.per_query(e.segments_scanned),
        "count",
    );
    m.add(
        "storage.segments_pruned_per_query",
        e.per_query(e.segments_pruned),
        "count",
    );
    m.add(
        "storage.blocks_verified_per_query",
        e.per_query(e.blocks_verified),
        "count",
    );

    // The site scan replays the first query's first operator.
    match &l.table {
        Some((_, parts)) => {
            let part = parts.parts.iter().max_by_key(|p| p.len()).expect("sites");
            probe::site_eval_table(part, &l.bound.exprs[0], m);
        }
        None => {
            let full = l
                .bound
                .queries
                .iter()
                .position(|q| q.shape == "full-history");
            let expr = &l.bound.exprs[full.expect("out-of-core has a full-history query")];
            probe::site_eval_segments(probe::largest(files), expr, m);
        }
    }
    probe::planner_and_wire(&l.ctx, &l.bound.queries, m);

    add_net_core(tp, m);

    crate::serve::layer_probe(seed, checks, m);
    m.add(
        "trace.overhead_pct",
        (tp.wall_s / q / (plain.wall_s / plain.queries()) - 1.0) * 100.0,
        "%",
    );
}

/// `net.*` and `core.*` figures of a traced pass: link counters and the
/// measured `ExecMetrics` fields, per query.
fn add_net_core(tp: &Pass, m: &mut Metrics) {
    let q = tp.queries();
    let e = &tp.exec;
    m.add(
        "net.bytes_down_per_query",
        tp.links.down as f64 / q,
        "bytes",
    );
    m.add("net.bytes_up_per_query", tp.links.up as f64 / q, "bytes");
    m.add(
        "net.messages_per_query",
        tp.links.messages as f64 / q,
        "count",
    );
    m.add(
        "net.root_link_bytes_per_query",
        tp.links.root as f64 / q,
        "bytes",
    );
    m.add(
        "core.round_ms",
        tp.core_s * 1e3 / e.rounds.max(1) as f64,
        "ms",
    );
    m.add("core.rounds_per_query", e.per_query(e.rounds), "count");
    m.add("core.site_compute_max_ms", e.ms(e.site_max_s), "ms");
    m.add("core.site_compute_total_ms", e.ms(e.site_total_s), "ms");
    m.add("core.coord_compute_ms", e.ms(e.coord_s), "ms");
    m.add("core.sync_decode_ms", e.ms(e.sync_decode_s), "ms");
    m.add("core.sync_merge_ms", e.ms(e.sync_merge_s), "ms");
    m.add("core.sync_finalize_ms", e.ms(e.sync_finalize_s), "ms");
    m.add(
        "core.unlabeled_ms",
        e.ms(e.wall_s - e.site_max_s - e.coord_s),
        "ms",
    );
}

/// `net.*` and `core.*` for a workload whose coordinator the benchmark
/// cannot reach (`adhoc-serve`): `queries` replayed once each, traced, on
/// a flat warehouse over `parts`.
pub fn core_replay(parts: &Partitioning, ctx: &PlanCtx, queries: Vec<Query>, m: &mut Metrics) {
    let mut tr = Tracer::new(true);
    let wh =
        DistributedWarehouse::launch(site_catalogs(parts), CostModel::lan_2002()).expect("launch");
    let b = Bound::new(Engine::Flat(wh), queries, ctx, &mut tr);
    let order: Vec<usize> = (0..b.queries.len()).collect();
    let p = pass(&b, Kind::PaperMix, &order, &mut tr, &mut Seen::default());
    add_net_core(&p, m);
    b.engine.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The segments holding matching rows, found from the generated rows,
    /// are every segment for a full-history filter and a few for a narrow
    /// window on time-ordered data.
    #[test]
    fn segments_holding_follows_the_generated_rows() {
        let cfg = TpcrConfig::scale(0.05).with_seed(9).with_time_ordered(true);
        let dir = ScratchDir::new("test-holding");
        let (_, _, files) = probe::write_segments(&cfg, 2, &dir.0);
        let full = generate(&cfg);
        let total: u64 = files.iter().map(|f| f.num_segments() as u64).sum();
        assert_eq!(segments_holding(&full, &files, &RowFilter::All), total);
        let window = RowFilter::Within(ORDERDATE_COL, 2400.0, 2490.0);
        let some = segments_holding(&full, &files, &window);
        assert!(some > 0 && some < total, "{some} of {total}");
    }
}
