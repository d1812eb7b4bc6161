//! End-to-end benchmark of the Skalla workspace: four OLAP workloads, each
//! checked against the centralized oracle on every run.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for what each workload and metric measures.

mod check;
mod data;
mod inproc;
mod measure;
mod probe;
mod serve;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use check::Checks;
use inproc::Kind;
use measure::{json_number, Metrics};
use trace::Tracer;

/// Where runs write trace files and temporary segment directories,
/// relative to the directory the benchmark runs in.
pub const OUT_DIR: &str = ".bench_out";

const WORKLOADS: [&str; 4] = ["paper-mix", "tiered", "adhoc-serve", "out-of-core"];

/// Printed with `--trace 0`, in this order, on every workload.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "qps",
    "latency_p50_ms",
    "latency_p90_ms",
    "cpu_ms_per_query",
    "bytes_per_query",
    "peak_rss_mb",
];

/// Printed with `--trace 1` on every workload (in any order).
const PER_LAYER: [&str; 35] = [
    "tpcr.generate_s",
    "storage.partition_s",
    "tpcr.generate_to_dir_s",
    "storage.segment_open_s",
    "storage.segment_decode_ms",
    "storage.verify_ms",
    "storage.segments_scanned_per_query",
    "storage.segments_pruned_per_query",
    "storage.blocks_verified_per_query",
    "gmdj.site_eval_ms",
    "gmdj.rows_per_s",
    "planner.parse_ms",
    "planner.choose_plan_ms",
    "net.plan_encode_ms",
    "net.plan_decode_ms",
    "net.bytes_down_per_query",
    "net.bytes_up_per_query",
    "net.messages_per_query",
    "net.root_link_bytes_per_query",
    "core.round_ms",
    "core.rounds_per_query",
    "core.site_compute_max_ms",
    "core.site_compute_total_ms",
    "core.coord_compute_ms",
    "core.sync_decode_ms",
    "core.sync_merge_ms",
    "core.sync_finalize_ms",
    "core.unlabeled_ms",
    "serve.exec_ms",
    "serve.overhead_ms",
    "serve.hit_latency_p50_ms",
    "sched.busy_retries",
    "cache.hits",
    "cache.misses",
    "trace.overhead_pct",
];

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Process start, as near as `main` can take it.
    pub start: Instant,
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub attempted: u64,
    pub checks: Checks,
    pub metrics: Metrics,
    /// The traced pass's spans (`--trace 1`).
    pub spans: Option<Tracer>,
    /// Lines printed before the result, prefixed with `#`.
    pub notes: Vec<String>,
}

fn parse_args(start: Instant) -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == key)
            .ok_or(format!("missing {key}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{key} needs a value"))
    };
    let number = |key: &str| -> Result<u64, String> {
        value(key)?.parse().map_err(|e| format!("{key}: {e}"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must lie in 1..=600".to_string());
    }
    Ok(Opts {
        workload,
        seed: number("--seed")?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        start,
    })
}

/// Write the spans to a JSON-lines file and print each traced crate's self
/// time per query.
fn report_spans(opts: &Opts, spans: &Tracer, queries: f64) {
    let path =
        PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", opts.workload, opts.seed));
    match spans.write_jsonl(&path) {
        Ok(()) => println!(
            "# {} spans written to {}",
            spans.spans().len(),
            path.display()
        ),
        Err(e) => println!("# could not write {}: {e}", path.display()),
    }
    let self_time = trace::self_time_by_layer(spans.spans());
    println!("# self time per query, traced pass:");
    for (layer, s) in &self_time {
        println!("#   {layer:<10} {:>10.4} ms", s * 1e3 / queries);
    }
}

fn main() {
    let start = Instant::now();
    let opts = match parse_args(start) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut out = match opts.workload.as_str() {
        "paper-mix" => inproc::run(Kind::PaperMix, &opts),
        "tiered" => inproc::run(Kind::Tiered, &opts),
        "out-of-core" => inproc::run(Kind::OutOfCore, &opts),
        _ => serve::run(&opts),
    };
    if let Some(spans) = out.spans.take() {
        // Each traced run measures the same count twice (plain, traced).
        report_spans(&opts, &spans, out.attempted as f64 / 2.0);
    }
    let expected: &[&str] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut got: Vec<&str> = out.metrics.0.iter().map(|m| m.name).collect();
    let mut want = expected.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "metric set of {}", opts.workload);

    for n in &out.notes {
        println!("# {n}");
    }
    for m in &out.metrics.0 {
        println!("{:<36} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
    println!(
        "# {} checks run, {} failed",
        out.checks.run,
        out.checks.failures.len()
    );
    for f in &out.checks.failures {
        println!("# FAILED {f}");
    }
    // No query may fail: one that errors aborts the run before this line.
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": 0, \"metrics\": {}}}",
        out.checks.ok(),
        out.attempted,
        out.metrics.to_json()
    );
}
