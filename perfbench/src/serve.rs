//! `adhoc-serve`: one `Server::start` with the default `ServeConfig`,
//! driven by two closed-loop TCP sessions.
//!
//! Four requests in five are first-time texts from a seeded parameter
//! sweep; the fifth repeats one of the four its session just sent. The
//! repeated entry was inserted at most eight requests earlier, far inside
//! the cache's FIFO capacity, so every repeat is a hit and every
//! first-time text a miss.

use std::collections::HashSet;
use std::sync::Barrier;
use std::time::Instant;

use skalla_serve::{ServeClient, ServeConfig, Server};
use skalla_tpcr::{
    generate, partition_by_nation, TpcrConfig, CUSTNAME_COL, EXTENDEDPRICE_COL, ORDERDATE_COL,
};

use crate::check::{Check, Checks};
use crate::data::{Answers, PlanCtx, Query, Rng, RowFilter};
use crate::inproc;
use crate::measure::{peak_rss_mb, percentile, sliced_timings, Metrics, Phase};
use crate::probe;
use crate::trace::Tracer;
use crate::{Opts, Outcome};

const SESSIONS: usize = 2;
/// Column index of `discount` in the TPC-R schema.
const DISCOUNT_COL: usize = 16;
/// First-time requests per repeat.
const FRESH_PER_BLOCK: usize = 4;
/// Request blocks (four first-time texts and one repeat) per session per
/// second of `--seconds`: 360 requests a second, about what this host
/// serves.
const BLOCKS_PER_S: f64 = 36.0;
/// Distinct queries replayed in-process for the `core.*` and `net.*`
/// figures of a traced run.
const REPLAY_QUERIES: usize = 24;

/// The `n`-th first-time text: template `n % 3`, parameters unique in
/// `n` (the sweep stays distinct for `n` below 19 200).
fn sweep(n: u64, off: [u64; 3]) -> Query {
    match n % 3 {
        0 => {
            let lo = ((off[0] + 7 * n) % 2400) as f64;
            let hi = lo + 90.0 + 30.0 * ((n / 2400) % 8) as f64;
            Query {
                shape: "nation-window",
                text: format!(
                    "BASE DISTINCT nationname FROM tpcr;
                     MD COUNT(*) AS orders, SUM(extendedprice) AS rev
                        WHERE b.nationname = r.nationname
                          AND r.orderdate >= {lo} AND r.orderdate < {hi};"
                ),
                counts: vec![("orders", RowFilter::Within(ORDERDATE_COL, lo, hi))],
            }
        }
        1 => {
            let floor = (1000 + (off[1] + 13 * n) % 60_000) as f64;
            let over = RowFilter::AtLeast(EXTENDEDPRICE_COL, floor);
            Query {
                shape: "customer-above-floor",
                text: format!(
                    "BASE DISTINCT custname FROM tpcr;
                     MD COUNT(*) AS c, AVG(extendedprice) AS a
                        WHERE b.custname = r.custname AND r.extendedprice >= {floor};
                     MD COUNT(*) AS hi
                        WHERE b.custname = r.custname AND r.extendedprice >= b.a;"
                ),
                counts: vec![
                    ("c", over.clone()),
                    (
                        "hi",
                        RowFilter::AtLeastGroupAvg {
                            group: CUSTNAME_COL,
                            measure: EXTENDEDPRICE_COL,
                            over: Box::new(over),
                        },
                    ),
                ],
            }
        }
        _ => {
            let before = (200 + (off[2] + 11 * n) % 2300) as f64;
            let discount = (2 + (n / 2300) % 9) as f64 / 100.0;
            Query {
                shape: "clerk-discounted",
                text: format!(
                    "BASE DISTINCT clerk FROM tpcr;
                     MD COUNT(*) AS c, MAX(extendedprice) AS mx
                        WHERE b.clerk = r.clerk
                          AND r.orderdate < {before} AND r.discount <= {discount};"
                ),
                counts: vec![(
                    "c",
                    RowFilter::And(vec![
                        RowFilter::Below(ORDERDATE_COL, before),
                        RowFilter::AtMost(DISCOUNT_COL, discount),
                    ]),
                )],
            }
        }
    }
}

struct Req {
    query: usize,
    repeat: bool,
}

/// The requests of one run: warm-up and measured lists per session.
struct Plan {
    queries: Vec<Query>,
    warmup: Vec<Vec<Req>>,
    /// One or two measured passes (traced runs repeat the phase with
    /// fresh texts), each a list per session.
    passes: Vec<Vec<Vec<Req>>>,
}

fn requests(seed: u64, blocks: usize, passes: usize) -> Plan {
    let mut rng = Rng::new(seed);
    let off = [rng.below(2400), rng.below(60_000), rng.below(2300)];
    let mut queries = Vec::new();
    let fresh = |queries: &mut Vec<Query>| {
        queries.push(sweep(queries.len() as u64, off));
        queries.len() - 1
    };
    let warmup = (0..SESSIONS)
        .map(|_| {
            (0..3)
                .map(|_| Req {
                    query: fresh(&mut queries),
                    repeat: false,
                })
                .collect()
        })
        .collect();
    let mut all = Vec::new();
    for _ in 0..passes {
        let mut sessions: Vec<Vec<Req>> = (0..SESSIONS).map(|_| Vec::new()).collect();
        for _ in 0..blocks {
            for reqs in sessions.iter_mut() {
                let block: Vec<usize> = (0..FRESH_PER_BLOCK).map(|_| fresh(&mut queries)).collect();
                reqs.extend(block.iter().map(|&query| Req {
                    query,
                    repeat: false,
                }));
                reqs.push(Req {
                    query: block[rng.below(FRESH_PER_BLOCK as u64) as usize],
                    repeat: true,
                });
            }
        }
        all.push(sessions);
    }
    let distinct: HashSet<&str> = queries.iter().map(|q| q.text.as_str()).collect();
    assert_eq!(distinct.len(), queries.len(), "the sweep repeated a text");
    Plan {
        queries,
        warmup,
        passes: all,
    }
}

/// One reply as the client saw it.
struct Sample {
    query: usize,
    latency_s: f64,
    /// Seconds from the start of the measured phase to the reply.
    done_at: f64,
    exec_s: f64,
    hit: bool,
    bytes: u64,
}

/// Bytes the server's one-line summary reports (`… | D B down, U B up | …`).
fn summary_bytes(summary: &str) -> Option<u64> {
    let field = |suffix: &str| -> Option<u64> {
        let end = summary.find(suffix)?;
        summary[..end].rsplit([' ', '|']).next()?.parse().ok()
    };
    Some(field(" B down")? + field(" B up")?)
}

#[derive(Default)]
struct Session {
    samples: Vec<Sample>,
    busy: u64,
    answers: Answers,
    checks: Checks,
}

fn serve_requests(
    client: &mut ServeClient,
    queries: &[Query],
    reqs: &[Req],
    origin: Instant,
    tr: &mut Tracer,
    out: &mut Session,
) {
    for r in reqs {
        let q = &queries[r.query];
        tr.set_query(r.query as u64);
        let t = Instant::now();
        let (reply, busy) = tr
            .span("serve.query_with_retry", |_| {
                client.query_with_retry(&q.text, 1000)
            })
            .unwrap_or_else(|e| panic!("serve query failed: {e}"));
        let latency_s = t.elapsed().as_secs_f64();
        let done_at = origin.elapsed().as_secs_f64();
        let predicted: Check = if reply.cache_hit == r.repeat {
            Ok(())
        } else {
            Err(format!(
                "cache_hit = {}, repeat = {}",
                reply.cache_hit, r.repeat
            ))
        };
        out.checks.record(q.shape, predicted);
        let bytes = summary_bytes(&reply.summary);
        out.checks.record(
            q.shape,
            bytes
                .map(|_| ())
                .ok_or_else(|| format!("no bytes in {:?}", reply.summary)),
        );
        out.samples.push(Sample {
            query: r.query,
            latency_s,
            done_at,
            exec_s: reply.wall_s,
            hit: reply.cache_hit,
            bytes: bytes.unwrap_or(0),
        });
        out.busy += u64::from(busy);
        out.answers.record(r.query, reply.rows);
    }
}

/// What serving a [`Plan`] measured, per measured pass.
struct ServedPass {
    wall_s: f64,
    cpu_s: f64,
    samples: Vec<Sample>,
    busy: u64,
    hits: u64,
    misses: u64,
}

/// Everything serving a [`Plan`] produced.
struct Served {
    passes: Vec<ServedPass>,
    answers: Answers,
    checks: Checks,
    /// Spans of the second pass, the traced one.
    spans: Tracer,
    /// Read after the passes, before any oracle data exists.
    peak_rss: f64,
}

/// Serve `plan` on `server` through `clients` (one per session): warm-up,
/// then each pass with the sessions started together; the second pass is
/// traced. Shuts the server down.
fn serve_plan(server: Server, mut clients: Vec<ServeClient>, plan: &Plan) -> Served {
    let mut out = Served {
        passes: Vec::new(),
        answers: Answers::default(),
        checks: Checks::default(),
        spans: Tracer::new(true),
        peak_rss: 0.0,
    };
    for (client, reqs) in clients.iter_mut().zip(&plan.warmup) {
        let mut s = Session::default();
        let mut notrace = Tracer::new(false);
        serve_requests(
            client,
            &plan.queries,
            reqs,
            Instant::now(),
            &mut notrace,
            &mut s,
        );
        out.answers.absorb(s.answers);
        out.checks.absorb(s.checks);
    }
    for (p, pass) in plan.passes.iter().enumerate() {
        let traced = p == 1;
        let before = server.stats();
        let start = Barrier::new(SESSIONS + 1);
        let origin = Instant::now();
        let ((wall_s, cpu_s), sessions) = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(pass)
                .map(|(client, reqs)| {
                    let (queries, start) = (&plan.queries, &start);
                    scope.spawn(move || {
                        let mut tr = Tracer::new(traced);
                        let mut s = Session::default();
                        start.wait();
                        serve_requests(client, queries, reqs, origin, &mut tr, &mut s);
                        (s, tr)
                    })
                })
                .collect();
            start.wait();
            let phase = Phase::start();
            let sessions: Vec<(Session, Tracer)> = handles
                .into_iter()
                .map(|h| h.join().expect("session thread"))
                .collect();
            (phase.stop(), sessions)
        });
        let after = server.stats();
        let mut served = ServedPass {
            wall_s,
            cpu_s,
            samples: Vec::new(),
            busy: 0,
            hits: after.cache.hits - before.cache.hits,
            misses: after.cache.misses - before.cache.misses,
        };
        for (s, tr) in sessions {
            served.samples.extend(s.samples);
            served.busy += s.busy;
            out.answers.absorb(s.answers);
            out.checks.absorb(s.checks);
            if traced {
                out.spans.absorb(tr);
            }
        }
        let repeats = pass.iter().flatten().filter(|r| r.repeat).count() as u64;
        let fresh = pass.iter().flatten().count() as u64 - repeats;
        out.checks.record(
            "cache",
            if (served.hits, served.misses) == (repeats, fresh) {
                Ok(())
            } else {
                Err(format!(
                    "{} hits / {} misses, expected {repeats} / {fresh}",
                    served.hits, served.misses
                ))
            },
        );
        out.checks.record(
            "sched",
            if after.sched.failed == 0 {
                Ok(())
            } else {
                Err(format!("{} queries failed", after.sched.failed))
            },
        );
        out.passes.push(served);
    }
    out.peak_rss = peak_rss_mb();
    drop(clients);
    server.shutdown().expect("server shuts down");
    out
}

/// Start the default server and connect one client per session.
fn start_server() -> (Server, Vec<ServeClient>) {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let clients = (0..SESSIONS)
        .map(|_| ServeClient::connect(server.local_addr()).expect("client connects"))
        .collect();
    (server, clients)
}

/// The server's data (`ServeConfig` has no seed), generated again for the
/// oracle: `(table, partitions, planning inputs, generate s, partition s)`.
fn oracle_data() -> (
    skalla_storage::Table,
    skalla_storage::Partitioning,
    PlanCtx,
    f64,
    f64,
) {
    let cfg = ServeConfig::default();
    let t = Instant::now();
    let full = generate(&TpcrConfig::scale(cfg.scale));
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let parts = partition_by_nation(&full, cfg.sites).expect("partition");
    let partition_s = t.elapsed().as_secs_f64();
    let ctx = PlanCtx::for_partitioned(&full, &parts);
    (full, parts, ctx, generate_s, partition_s)
}

/// `serve.*`, `sched.*` and `cache.*` figures of one served pass.
fn add_serve_layers(pass: &ServedPass, m: &mut Metrics) {
    let misses_of = |f: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
        pass.samples.iter().filter(|s| !s.hit).map(f).collect()
    };
    m.add(
        "serve.exec_ms",
        percentile(&misses_of(&|s| s.exec_s), 50.0) * 1e3,
        "ms",
    );
    m.add(
        "serve.overhead_ms",
        percentile(&misses_of(&|s| s.latency_s - s.exec_s), 50.0) * 1e3,
        "ms",
    );
    let hit_lat: Vec<f64> = pass
        .samples
        .iter()
        .filter(|s| s.hit)
        .map(|s| s.latency_s)
        .collect();
    m.add(
        "serve.hit_latency_p50_ms",
        percentile(&hit_lat, 50.0) * 1e3,
        "ms",
    );
    m.add("sched.busy_retries", pass.busy as f64, "count");
    m.add("cache.hits", pass.hits as f64, "count");
    m.add("cache.misses", pass.misses as f64, "count");
}

/// Request blocks per session of the serve probe in the other workloads'
/// traced runs.
const PROBE_BLOCKS: usize = 40;

/// The serve layer's figures in another workload's traced run: a short
/// `adhoc-serve` pass — the default server, two sessions, the same sweep,
/// every reply checked against the oracle.
pub fn layer_probe(seed: u64, checks: &mut Checks, m: &mut Metrics) {
    let (server, clients) = start_server();
    let plan = requests(seed, PROBE_BLOCKS, 1);
    let served = serve_plan(server, clients, &plan);
    let (full, _, ctx, _, _) = oracle_data();
    served.answers.check(&plan.queries, &ctx, &full, checks);
    checks.absorb(served.checks);
    add_serve_layers(&served.passes[0], m);
}

pub fn run(opts: &Opts) -> Outcome {
    let (server, clients) = start_server();
    let setup_s = opts.start.elapsed().as_secs_f64();

    // A traced run makes two passes (plain, traced) of half as many blocks.
    let passes = 1 + opts.trace as usize;
    let blocks = ((opts.seconds as f64 * BLOCKS_PER_S).ceil() as usize / passes).max(1);
    let plan = requests(opts.seed, blocks, passes);
    let mut served = serve_plan(server, clients, &plan);

    let (full, parts, ctx, generate_s, partition_s) = oracle_data();
    served
        .answers
        .check(&plan.queries, &ctx, &full, &mut served.checks);

    let attempted: u64 = plan.passes.iter().flatten().flatten().count() as u64;
    let mut metrics = Metrics::default();
    let plain = &served.passes[0];
    let n = plain.samples.len() as f64;
    if opts.trace {
        let m = &mut metrics;
        let traced = &served.passes[1];
        m.add("tpcr.generate_s", generate_s, "s");
        m.add("storage.partition_s", partition_s, "s");
        let cfg = ServeConfig::default();
        let dir = probe::ScratchDir::new("probe");
        let (write_s, open_s, files) =
            probe::write_segments(&TpcrConfig::scale(cfg.scale), cfg.sites, &dir.0);
        m.add("tpcr.generate_to_dir_s", write_s, "s");
        m.add("storage.segment_open_s", open_s, "s");
        probe::segment_reads(probe::largest(&files), m);
        m.add("storage.segments_scanned_per_query", 0.0, "count");
        m.add("storage.segments_pruned_per_query", 0.0, "count");
        m.add("storage.blocks_verified_per_query", 0.0, "count");
        let mut notrace = Tracer::new(false);
        let expr = ctx.parse(&plan.queries[1].text, &mut notrace);
        let part = parts.parts.iter().max_by_key(|p| p.len()).expect("sites");
        probe::site_eval_table(part, &expr, m);
        let sample: Vec<Query> = plan.queries[..REPLAY_QUERIES.min(plan.queries.len())].to_vec();
        probe::planner_and_wire(&ctx, &sample, m);
        inproc::core_replay(&parts, &ctx, sample, m);
        add_serve_layers(traced, m);
        m.add(
            "trace.overhead_pct",
            (traced.wall_s / traced.samples.len() as f64 / (plain.wall_s / n) - 1.0) * 100.0,
            "%",
        );
    } else {
        let m = &mut metrics;
        let latencies: Vec<f64> = plain.samples.iter().map(|s| s.latency_s).collect();
        let done_at: Vec<f64> = plain.samples.iter().map(|s| s.done_at).collect();
        let (qps, p50, p90) = sliced_timings(&done_at, &latencies);
        m.add("setup_s", setup_s, "s");
        m.add("qps", qps, "1/s");
        m.add("latency_p50_ms", p50, "ms");
        m.add("latency_p90_ms", p90, "ms");
        m.add("cpu_ms_per_query", plain.cpu_s * 1e3 / n, "ms");
        let bytes: u64 = plain.samples.iter().map(|s| s.bytes).sum();
        m.add("bytes_per_query", bytes as f64 / n, "bytes");
        m.add("peak_rss_mb", served.peak_rss, "MiB");
    }
    let (misses, hits): (Vec<&Sample>, Vec<&Sample>) = plain.samples.iter().partition(|s| !s.hit);
    let mut notes = inproc::shape_latencies(
        &plan.queries,
        &misses.iter().map(|s| s.query).collect::<Vec<_>>(),
        &misses.iter().map(|s| s.latency_s).collect::<Vec<_>>(),
    );
    let hit_ms: Vec<f64> = hits.iter().map(|s| s.latency_s * 1e3).collect();
    notes.push(format!(
        "{} cache hits, latency ms p25 {:.3} p50 {:.3} p75 {:.3} (shares above are of misses)",
        hits.len(),
        percentile(&hit_ms, 25.0),
        percentile(&hit_ms, 50.0),
        percentile(&hit_ms, 75.0)
    ));
    Outcome {
        attempted,
        checks: served.checks,
        metrics,
        spans: opts.trace.then_some(served.spans),
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discount_column_matches_the_schema() {
        let schema = skalla_tpcr::tpcr_schema();
        assert_eq!(schema.index_of("discount").unwrap(), DISCOUNT_COL);
    }

    #[test]
    fn summary_bytes_parse() {
        let s = "2 rounds | 120 B down, 3400 B up | modeled 0.1s | wall 0.0030s";
        assert_eq!(summary_bytes(s), Some(3520));
        assert_eq!(
            summary_bytes("0 rounds | 0 B down, 0 B up | wall 0s"),
            Some(0)
        );
        assert_eq!(summary_bytes("garbage"), None);
    }

    #[test]
    fn every_repeat_follows_its_first_send() {
        let plan = requests(5, 10, 2);
        assert_eq!(plan.passes.len(), 2);
        for reqs in plan.passes.iter().flatten() {
            assert_eq!(reqs.len(), 10 * (FRESH_PER_BLOCK + 1));
            for (i, r) in reqs.iter().enumerate() {
                if r.repeat {
                    let back = &reqs[i.saturating_sub(FRESH_PER_BLOCK)..i];
                    assert!(back.iter().any(|b| b.query == r.query && !b.repeat));
                }
            }
        }
    }
}
