//! Inputs shared by the workloads: the seeded sequence generator, query
//! shapes with the benchmark's own row counts, server-style planning, and
//! the centralized oracle.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use skalla_core::{DistPlan, ExecMetrics};
use skalla_gmdj::{eval_expr_centralized, GmdjExpr};
use skalla_net::{CostModel, TransferStats, WireDecode, WireEncode, WireReader};
use skalla_planner::{choose_plan, parse_query, DistributionInfo};
use skalla_storage::{Catalog, Partitioning, Table, TableStats};
use skalla_tpcr::{CITYNAME_COL, CUSTKEY_COL, CUSTNAME_COL, NATIONKEY_COL};
use skalla_types::{Relation, Schema, Value};

use crate::check::{count_total, same_answer, Checks};
use crate::trace::Tracer;

/// The detail-table name every query reads.
pub const TABLE: &str = "tpcr";

/// SplitMix64: the benchmark's own seeded sequence (query order, windows,
/// parameters). The data generator has its own seeded stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_4000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The generator seed of a workload seed (never the generator's default,
/// so every run's data is drawn for it).
pub fn data_seed(seed: u64) -> u64 {
    Rng::new(seed).next_u64()
}

/// Which generated rows a `COUNT(*)` output counts, evaluated by the
/// benchmark's own loop, never by the engine.
#[derive(Clone, Debug)]
pub enum RowFilter {
    All,
    /// `col > x`.
    Above(usize, f64),
    /// `col >= x`.
    AtLeast(usize, f64),
    /// `col < x`.
    Below(usize, f64),
    /// `col <= x`.
    AtMost(usize, f64),
    /// `lo <= col < hi`.
    Within(usize, f64, f64),
    /// Every filter passes.
    And(Vec<RowFilter>),
    /// `measure >= AVG(measure)` over the row's `group`, the average taken
    /// over the group's rows that pass `over`.
    AtLeastGroupAvg {
        group: usize,
        measure: usize,
        over: Box<RowFilter>,
    },
}

fn num(t: &Table, col: usize, i: usize) -> f64 {
    match t.column(col).get(i) {
        Value::Int(x) => x as f64,
        Value::Float(x) => x,
        other => panic!("column {col} is numeric in the TPC-R schema, got {other:?}"),
    }
}

impl RowFilter {
    /// Count the rows of `t` this filter passes.
    pub fn count(&self, t: &Table) -> u64 {
        match self {
            RowFilter::AtLeastGroupAvg {
                group,
                measure,
                over,
            } => {
                let mut acc: HashMap<Value, (f64, u64)> = HashMap::new();
                for i in 0..t.len() {
                    if over.passes(t, i) {
                        let e = acc.entry(t.column(*group).get(i)).or_default();
                        e.0 += num(t, *measure, i);
                        e.1 += 1;
                    }
                }
                (0..t.len())
                    .filter(|&i| {
                        acc.get(&t.column(*group).get(i))
                            .is_some_and(|&(s, n)| num(t, *measure, i) >= s / n as f64)
                    })
                    .count() as u64
            }
            _ => (0..t.len()).filter(|&i| self.passes(t, i)).count() as u64,
        }
    }

    /// Whether row `i` passes. Group-average filters need the whole table
    /// and are evaluated by [`RowFilter::count`] only.
    pub fn passes(&self, t: &Table, i: usize) -> bool {
        match *self {
            RowFilter::All => true,
            RowFilter::Above(c, x) => num(t, c, i) > x,
            RowFilter::AtLeast(c, x) => num(t, c, i) >= x,
            RowFilter::Below(c, x) => num(t, c, i) < x,
            RowFilter::AtMost(c, x) => num(t, c, i) <= x,
            RowFilter::Within(c, lo, hi) => (lo..hi).contains(&num(t, c, i)),
            RowFilter::And(ref fs) => fs.iter().all(|f| f.passes(t, i)),
            RowFilter::AtLeastGroupAvg { .. } => unreachable!("counted as a whole"),
        }
    }
}

/// One query text and the `COUNT(*)` columns the benchmark recounts.
#[derive(Clone, Debug)]
pub struct Query {
    pub shape: &'static str,
    pub text: String,
    pub counts: Vec<(&'static str, RowFilter)>,
}

/// The parse → `choose_plan` pipeline of the server, over the same
/// planning inputs it derives from the generated table.
pub struct PlanCtx {
    pub schemas: HashMap<String, Arc<Schema>>,
    pub dist: DistributionInfo,
    pub stats: TableStats,
}

impl PlanCtx {
    /// Planning inputs as `skalla-serve` builds them: table statistics
    /// and per-site value constraints for the nationkey column family.
    pub fn for_partitioned(table: &Table, parts: &Partitioning) -> PlanCtx {
        let constraints =
            parts.site_constraints_for(&[NATIONKEY_COL, CUSTKEY_COL, CUSTNAME_COL, CITYNAME_COL]);
        let dist = DistributionInfo::with_constraints(
            parts.num_sites(),
            Some(NATIONKEY_COL),
            true,
            constraints,
        )
        .expect("one constraint per site");
        PlanCtx {
            schemas: HashMap::from([(TABLE.to_string(), table.schema().clone())]),
            dist,
            stats: TableStats::collect(table),
        }
    }

    pub fn parse(&self, text: &str, tr: &mut Tracer) -> GmdjExpr {
        tr.span("planner.parse_query", |_| parse_query(text, &self.schemas))
            .unwrap_or_else(|e| panic!("benchmark query does not parse: {e}\n{text}"))
    }

    pub fn plan(&self, expr: &GmdjExpr, tr: &mut Tracer) -> DistPlan {
        tr.span("planner.choose_plan", |_| {
            choose_plan(expr, &self.dist, &self.stats, &CostModel::lan_2002())
        })
        .unwrap_or_else(|e| panic!("benchmark query does not plan: {e}"))
        .0
    }
}

/// One catalog per site with its partition registered as [`TABLE`].
pub fn site_catalogs(parts: &Partitioning) -> Vec<Catalog> {
    parts
        .parts
        .iter()
        .map(|p| {
            let mut c = Catalog::new();
            c.register(TABLE, p.clone());
            c
        })
        .collect()
}

/// Bytes moved by one query, split by direction over every link, plus the
/// coordinator's (node 0) own links. Node ids grow down the topology, so a
/// link `src < dst` carries traffic down.
#[derive(Default, Clone, Copy)]
pub struct LinkDelta {
    pub down: u64,
    pub up: u64,
    pub messages: u64,
    pub root: u64,
}

impl LinkDelta {
    pub fn between(before: &TransferStats, after: &TransferStats, nodes: usize) -> LinkDelta {
        let d = after.diff(before);
        let mut out = LinkDelta {
            root: d.bytes_from(0) + d.bytes_to(0),
            messages: d.total_messages(),
            ..LinkDelta::default()
        };
        for src in 0..nodes {
            for dst in 0..nodes {
                let b = d.link(src as _, dst as _).bytes;
                if src < dst {
                    out.down += b;
                } else {
                    out.up += b;
                }
            }
        }
        out
    }

    pub fn add(&mut self, other: &LinkDelta) {
        self.down += other.down;
        self.up += other.up;
        self.messages += other.messages;
        self.root += other.root;
    }

    pub fn total(&self) -> u64 {
        self.down + self.up
    }
}

/// Per-query sums of the measured `ExecMetrics` fields (never the modeled
/// ones).
#[derive(Default)]
pub struct ExecSums {
    pub queries: u64,
    pub rounds: u64,
    pub wall_s: f64,
    pub site_max_s: f64,
    pub site_total_s: f64,
    pub coord_s: f64,
    pub sync_decode_s: f64,
    pub sync_merge_s: f64,
    pub sync_finalize_s: f64,
    pub segments_scanned: u64,
    pub segments_pruned: u64,
    pub blocks_verified: u64,
}

impl ExecSums {
    pub fn add(&mut self, m: &ExecMetrics) {
        self.queries += 1;
        self.rounds += m.num_rounds() as u64;
        self.wall_s += m.wall_s;
        self.site_max_s += m.site_compute_s();
        self.site_total_s += m.rounds.iter().map(|r| r.site_compute_total_s).sum::<f64>();
        self.coord_s += m.coord_compute_s();
        self.sync_decode_s += m.sync_decode_s();
        self.sync_merge_s += m.sync_merge_s();
        self.sync_finalize_s += m.sync_finalize_s();
        self.segments_scanned += m.total_segments_scanned();
        self.segments_pruned += m.total_segments_pruned();
        self.blocks_verified += m.total_blocks_verified();
    }

    /// Per-query mean of a seconds sum, in ms.
    pub fn ms(&self, total_s: f64) -> f64 {
        total_s * 1e3 / self.queries.max(1) as f64
    }

    pub fn per_query(&self, count: u64) -> f64 {
        count as f64 / self.queries.max(1) as f64
    }
}

/// Distinct answers seen per query, keyed by an exact fingerprint, so each
/// distinct value is checked against the oracle once. Answers are kept in
/// their wire encoding, so holding them adds little to the peak RSS.
#[derive(Default)]
pub struct Answers(BTreeMap<(usize, u64), Vec<u8>>);

impl Answers {
    pub fn record(&mut self, query: usize, rel: Relation) {
        let fp = crate::check::fingerprint(&rel);
        self.0
            .entry((query, fp))
            .or_insert_with(|| rel.to_wire().to_vec());
    }

    fn of(&self, query: usize) -> impl Iterator<Item = Relation> + '_ {
        self.0
            .range((query, 0)..=(query, u64::MAX))
            .map(|(_, b)| Relation::decode(&mut WireReader::new(b)).expect("own encoding"))
    }

    /// Check every distinct answer of every query against the centralized
    /// oracle over `full`, and its `COUNT(*)` totals against the
    /// benchmark's own counts over `full`'s rows.
    /// The queries are split over the host's cores: this runs after the
    /// measured phase, and on `adhoc-serve` it evaluates thousands of texts.
    pub fn check(&self, queries: &[Query], plan: &PlanCtx, full: &Table, checks: &mut Checks) {
        let mut catalog = Catalog::new();
        catalog.register(TABLE, full.clone());
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        let chunk = queries.len().div_ceil(threads).max(1);
        let parts: Vec<Checks> = std::thread::scope(|s| {
            let handles: Vec<_> = queries
                .chunks(chunk)
                .enumerate()
                .map(|(c, qs)| {
                    let catalog = &catalog;
                    s.spawn(move || {
                        let mut checks = Checks::default();
                        let mut notrace = Tracer::new(false);
                        for (i, q) in qs.iter().enumerate() {
                            let answers: Vec<Relation> = self.of(c * chunk + i).collect();
                            if answers.is_empty() {
                                continue;
                            }
                            let expr = plan.parse(&q.text, &mut notrace);
                            let want =
                                eval_expr_centralized(&expr, catalog).expect("oracle evaluates");
                            for got in &answers {
                                checks.record(q.shape, same_answer(got, &want));
                            }
                            for (col, filter) in &q.counts {
                                checks.record(q.shape, count_total(&want, col, filter.count(full)));
                            }
                        }
                        checks
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("oracle thread"))
                .collect()
        });
        for p in parts {
            checks.absorb(p);
        }
    }

    /// Add another client's answers.
    pub fn absorb(&mut self, other: Answers) {
        for (k, r) in other.0 {
            self.0.entry(k).or_insert(r);
        }
    }

    /// One answer of `query`, if it ran.
    pub fn first(&self, query: usize) -> Option<Relation> {
        self.of(query).next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_tpcr::{generate, TpcrConfig, EXTENDEDPRICE_COL, ORDERDATE_COL};

    #[test]
    fn rng_is_seeded() {
        let (mut a, mut b, mut c) = (Rng::new(1), Rng::new(1), Rng::new(2));
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
        let mut v: Vec<u32> = (0..10).collect();
        a.shuffle(&mut v);
        v.sort();
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn row_filters_count_by_hand() {
        let t = generate(&TpcrConfig::scale(0.02).with_seed(3));
        let n = t.len() as u64;
        assert_eq!(RowFilter::All.count(&t), n);
        let early = RowFilter::Below(ORDERDATE_COL, 1000.0).count(&t);
        let late = RowFilter::AtLeast(ORDERDATE_COL, 1000.0).count(&t);
        assert_eq!(early + late, n);
        assert_eq!(
            RowFilter::Within(ORDERDATE_COL, 0.0, 1000.0).count(&t),
            early
        );
        let above = RowFilter::AtLeastGroupAvg {
            group: CUSTNAME_COL,
            measure: EXTENDEDPRICE_COL,
            over: Box::new(RowFilter::All),
        }
        .count(&t);
        assert!(above > 0 && above < n);
    }

    /// The oracle path end to end: the true answer passes; a dropped
    /// group, a perturbed sum and a wrong own count each fail.
    #[test]
    fn oracle_check_catches_wrong_answers() {
        let t = generate(&TpcrConfig::scale(0.02).with_seed(4));
        let parts = skalla_tpcr::partition_by_nation(&t, 2).unwrap();
        let ctx = PlanCtx::for_partitioned(&t, &parts);
        let q = Query {
            shape: "t",
            text: "BASE DISTINCT nationname FROM tpcr;
                   MD COUNT(*) AS cnt, SUM(extendedprice) AS rev
                      WHERE b.nationname = r.nationname;"
                .to_string(),
            counts: vec![("cnt", RowFilter::All)],
        };
        let mut catalog = Catalog::new();
        catalog.register(TABLE, t.clone());
        let expr = ctx.parse(&q.text, &mut Tracer::new(false));
        let truth = eval_expr_centralized(&expr, &catalog).unwrap();
        let verdict = |rel: Relation, q: &Query| {
            let mut answers = Answers::default();
            answers.record(0, rel);
            let mut checks = Checks::default();
            answers.check(std::slice::from_ref(q), &ctx, &t, &mut checks);
            checks.ok()
        };
        assert!(verdict(truth.clone(), &q));

        let mut dropped = truth.clone();
        dropped.rows_mut().pop();
        assert!(!verdict(dropped, &q));

        let mut perturbed = truth.clone();
        let rev = perturbed.schema().index_of("rev").unwrap();
        if let Value::Float(x) = &mut perturbed.rows_mut()[0][rev] {
            *x *= 1.0 + 1e-6;
        }
        assert!(!verdict(perturbed, &q));

        let miscounted = Query {
            counts: vec![("cnt", RowFilter::Below(ORDERDATE_COL, 1000.0))],
            ..q.clone()
        };
        assert!(!verdict(truth, &miscounted));
    }
}
