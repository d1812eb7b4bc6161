//! Layer replays for traced runs: each probe calls one crate's public
//! function on the workload's own inputs, repeats it, and reports the
//! median. They run after the measured phase and never touch its figures.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use skalla_core::message::Message;
use skalla_core::DistPlan;
use skalla_gmdj::{eval_gmdj_sub, eval_gmdj_sub_segments, BaseSpec, EvalOptions, GmdjExpr};
use skalla_storage::{SegmentFile, Table};
use skalla_tpcr::{generate_to_dir, TpcrConfig};
use skalla_types::Relation;

use crate::data::{PlanCtx, Query};
use crate::measure::{percentile, Metrics};
use crate::trace::Tracer;

/// Repetitions of each probed call.
const REPS: usize = 15;

/// Rows per segment for every segment file the benchmark writes.
pub const SEGMENT_ROWS: usize = 1024;

/// Median seconds of `REPS` calls of `f`.
fn median_s(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    percentile(&samples, 50.0)
}

/// `planner.parse_ms`, `planner.choose_plan_ms`, `net.plan_encode_ms` and
/// `net.plan_decode_ms`: the median per call over the workload's texts.
pub fn planner_and_wire(ctx: &PlanCtx, queries: &[Query], out: &mut Metrics) {
    let mut tr = Tracer::new(false);
    let exprs: Vec<GmdjExpr> = queries
        .iter()
        .map(|q| ctx.parse(&q.text, &mut tr))
        .collect();
    let plans: Vec<DistPlan> = exprs.iter().map(|e| ctx.plan(e, &mut tr)).collect();
    let n = queries.len() as f64;
    let parse = median_s(|| {
        for q in queries {
            std::hint::black_box(ctx.parse(&q.text, &mut tr));
        }
    });
    let choose = median_s(|| {
        for e in &exprs {
            std::hint::black_box(ctx.plan(e, &mut tr));
        }
    });
    let wires: Vec<_> = plans
        .iter()
        .map(|p| Message::Plan(p.clone()).to_wire())
        .collect();
    let encode = median_s(|| {
        for p in &plans {
            std::hint::black_box(Message::Plan(p.clone()).to_wire());
        }
    });
    let decode = median_s(|| {
        for w in &wires {
            std::hint::black_box(Message::from_wire(w).expect("plan decodes"));
        }
    });
    out.add("planner.parse_ms", parse * 1e3 / n, "ms");
    out.add("planner.choose_plan_ms", choose * 1e3 / n, "ms");
    out.add("net.plan_encode_ms", encode * 1e3 / n, "ms");
    out.add("net.plan_decode_ms", decode * 1e3 / n, "ms");
}

fn base_of(expr: &GmdjExpr, detail: &Table) -> Relation {
    match &expr.base {
        BaseSpec::DistinctProject { cols } => {
            detail.distinct_project(cols).expect("base columns exist")
        }
        BaseSpec::Relation(r) => r.clone(),
    }
}

/// `gmdj.site_eval_ms` and `gmdj.rows_per_s`: one site's sub-aggregate
/// scan of `expr`'s first operator over `part`, in memory.
pub fn site_eval_table(part: &Table, expr: &GmdjExpr, out: &mut Metrics) {
    let base = base_of(expr, part);
    let opts = EvalOptions::default();
    let s = median_s(|| {
        std::hint::black_box(
            eval_gmdj_sub(&base, part, part.schema(), &expr.ops[0], &opts).expect("site scan"),
        );
    });
    out.add("gmdj.site_eval_ms", s * 1e3, "ms");
    out.add("gmdj.rows_per_s", part.len() as f64 / s, "rows/s");
}

/// [`site_eval_table`] over a segment file, with zone-map pruning on.
pub fn site_eval_segments(file: &SegmentFile, expr: &GmdjExpr, out: &mut Metrics) {
    let base = base_of(expr, &file.read_all().expect("segments decode"));
    let opts = EvalOptions::default();
    let s = median_s(|| {
        std::hint::black_box(
            eval_gmdj_sub_segments(&base, file, &expr.ops[0], &opts, true, None)
                .expect("segment scan"),
        );
    });
    out.add("gmdj.site_eval_ms", s * 1e3, "ms");
    out.add("gmdj.rows_per_s", file.total_rows() as f64 / s, "rows/s");
}

/// `storage.segment_decode_ms` (every segment of `file`) and
/// `storage.verify_ms` (the CRC scrub of `file`).
pub fn segment_reads(file: &SegmentFile, out: &mut Metrics) {
    let decode = median_s(|| {
        for i in 0..file.num_segments() {
            std::hint::black_box(file.read_segment(i).expect("segment decodes"));
        }
    });
    let verify = median_s(|| {
        std::hint::black_box(file.verify().expect("segments verify"));
    });
    out.add("storage.segment_decode_ms", decode * 1e3, "ms");
    out.add("storage.verify_ms", verify * 1e3, "ms");
}

/// A segment directory under [`crate::OUT_DIR`], removed when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        ScratchDir(PathBuf::from(crate::OUT_DIR).join(format!("{tag}-{}", std::process::id())))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Write `cfg`'s rows as per-site segment files under `dir` and open them:
/// `(generate_to_dir seconds, open seconds, files)`.
pub fn write_segments(
    cfg: &TpcrConfig,
    sites: usize,
    dir: &Path,
) -> (f64, f64, Vec<Arc<SegmentFile>>) {
    let t = Instant::now();
    let paths = generate_to_dir(cfg, sites, SEGMENT_ROWS, dir).expect("segments written");
    let write_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let files = paths
        .iter()
        .map(|p| Arc::new(SegmentFile::open(p).expect("segment file opens")))
        .collect();
    (write_s, t.elapsed().as_secs_f64(), files)
}

/// The largest of `files` by rows.
pub fn largest(files: &[Arc<SegmentFile>]) -> &SegmentFile {
    files
        .iter()
        .max_by_key(|f| f.total_rows())
        .expect("at least one site")
}
