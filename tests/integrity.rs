//! End-to-end storage integrity: checksummed segments under seeded
//! disk-fault injection, corruption failover, and `\scrub` repair.
//!
//! The integrity contract, checked differentially against the in-memory
//! centralized evaluator:
//!
//! * a corrupted segment block is *always* caught by its CRC and surfaces
//!   as a typed [`SkallaError::SegmentCorrupt`] — never a panic, never a
//!   silently wrong tuple;
//! * under [`DegradedMode::Failover`] with replicated partitions, the
//!   coordinator re-plans the damaged partition onto a ring replica and
//!   the answer is bit-for-bit the fault-free one;
//! * without replicas the degradation ladder holds: `Fail` errors, and
//!   `Partial` answers from the survivors with honest `coverage k/n`;
//! * `scrub()` finds every injected corruption off the query path,
//!   quarantines the damaged file, and repairs it from a replica so
//!   later queries run clean.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use skalla::prelude::*;
use skalla::storage::{write_segments, DiskFaultGuard, DiskFaultPlan, SegmentFile};

// ------------------------------------------------------------- fixtures

const ROWS: usize = 280;
const SITES: usize = 4;
const SEG_ROWS: usize = 24;

fn flow_schema() -> std::sync::Arc<Schema> {
    Schema::from_pairs([("k", DataType::Int64), ("v", DataType::Int64)])
        .unwrap()
        .into_arc()
}

fn table() -> Table {
    let data: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| vec![Value::Int((i % 7) as i64), Value::Int(i as i64)])
        .collect();
    Table::from_rows(flow_schema(), &data).unwrap()
}

/// Base round plus two synchronized GMDJ rounds, so corruption can strike
/// during any synchronization of the query.
fn query() -> GmdjExpr {
    let schemas = HashMap::from([("flow".to_string(), flow_schema())]);
    parse_query(
        "BASE DISTINCT k FROM flow;
         MD COUNT(*) AS c, SUM(v) AS s WHERE b.k = r.k;
         MD COUNT(*) AS hi WHERE b.k = r.k AND r.v >= b.s / b.c;",
        &schemas,
    )
    .unwrap()
}

fn partitioning() -> Partitioning {
    partition_by_hash(&table(), 0, SITES).unwrap()
}

fn ground_truth() -> Relation {
    let mut full = Catalog::new();
    full.register("flow", table());
    eval_expr_centralized(&query(), &full).unwrap().sorted()
}

fn retry(degraded: DegradedMode) -> RetryPolicy {
    RetryPolicy {
        deadline: Duration::from_millis(150),
        max_retries: 1,
        backoff: 1.0,
        degraded,
    }
}

/// A unique scratch dir per call; tests run concurrently and installed
/// fault plans are scoped by path prefix, so sharing one dir would
/// cross-contaminate.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("skalla-integrity-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write one segment file per partition under `dir` and return the paths
/// in site order. Any installed fault plan scoped to `dir` (or a file)
/// injects during these writes.
fn write_partition_files(dir: &std::path::Path) -> Vec<String> {
    let parts = partitioning();
    (0..SITES)
        .map(|site| {
            let path = dir.join(format!("flow-{site}.seg"));
            write_segments(&path, &parts.parts[site], SEG_ROWS).unwrap();
            path.to_string_lossy().into_owned()
        })
        .collect()
}

/// Replicated warehouse whose plain `flow` scans come from segment files
/// on disk while the `__part::` replica copies stay in memory — exactly
/// the layout corruption failover and scrub repair need.
fn launch_segment_backed(paths: &[String]) -> DistributedWarehouse {
    let wh = DistributedWarehouse::launch_replicated(
        "flow",
        &partitioning(),
        2,
        CostModel::free(),
        FaultPlan::none(),
    )
    .unwrap();
    let loaded = wh.load_segments("flow", paths).unwrap();
    assert_eq!(loaded.iter().sum::<u64>(), ROWS as u64);
    wh
}

fn run(
    wh: &DistributedWarehouse,
    degraded: DegradedMode,
) -> skalla::types::Result<(Relation, ExecMetrics)> {
    let mut plan = DistPlan::unoptimized(query());
    plan.retry = retry(degraded);
    wh.execute(&plan).map(|(r, m)| (r.sorted(), m))
}

// -------------------------------------------------- corruption failover

/// The deterministic fault matrix for one case: damage the named victim
/// sites' files (scoped full-rate plans, so firing does not depend on
/// the scratch path) and return the query outcome under failover. Bit
/// flips are write-path faults — installed before the files are written;
/// short reads are read-path faults on clean files.
fn run_with_victims(tag: &str, victims: &[usize], kind: FaultKind) -> (Relation, ExecMetrics) {
    let dir = scratch_dir(tag);
    let parts = partitioning();
    let mut guards = Vec::new();
    // Install write-path plans first so the victim files are born bad.
    for &v in victims {
        let victim = dir.join(format!("flow-{v}.seg"));
        let plan = match kind {
            FaultKind::Bitflip => DiskFaultPlan::seeded(v as u64).with_bitflip_rate(1.0),
            FaultKind::ShortRead => DiskFaultPlan::seeded(v as u64).with_short_read_rate(1.0),
        };
        guards.push(plan.install(&victim));
    }
    let paths = write_partition_files(&dir);
    assert_eq!(parts.parts.len(), SITES);
    let wh = launch_segment_backed(&paths);
    let out = run(&wh, DegradedMode::Failover).unwrap();
    wh.shutdown().unwrap();
    drop(guards);
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[derive(Clone, Copy)]
enum FaultKind {
    Bitflip,
    ShortRead,
}

/// The tentpole differential: across a matrix of victim sets (every
/// single site, plus both non-adjacent pairs — ring replication keeps a
/// live copy of every partition) and both persistent fault kinds, every
/// corrupted block is caught by its CRC, the damaged partition is
/// re-planned onto a replica, and the answer is bit-for-bit the
/// centralized one.
#[test]
fn corrupted_segments_fail_over_bit_exactly() {
    let truth = ground_truth();
    let cases: &[&[usize]] = &[&[0], &[1], &[2], &[3], &[0, 2], &[1, 3]];
    let mut total_verified = 0u64;
    for (i, victims) in cases.iter().enumerate() {
        for kind in [FaultKind::Bitflip, FaultKind::ShortRead] {
            let (result, m) = run_with_victims("failover", victims, kind);
            assert_eq!(result, truth, "case {i} {victims:?} diverged");
            assert_eq!(m.parts_lost, 0, "case {i}");
            assert!(m.checksum_failures > 0, "case {i}: no corruption detected");
            assert!(m.failovers >= 1, "case {i}: corruption without failover");
            // Every scan streams from disk, failover unions included, and
            // each segment read counts the blocks its CRCs passed.
            for r in &m.rounds {
                assert_eq!(
                    r.blocks_verified,
                    2 * r.segments_scanned,
                    "case {i} {}",
                    r.label
                );
            }
            total_verified += m.total_blocks_verified();
        }
    }
    assert!(total_verified > 0, "no clean block was ever CRC-verified");
}

#[test]
fn corruption_failover_is_deterministic() {
    // Same plans, same paths → the same blocks are damaged and the same
    // failover decisions fire; both runs agree with each other and with
    // the centralized truth.
    let a = run_with_victims("determ", &[1], FaultKind::Bitflip);
    let b = run_with_victims("determ", &[1], FaultKind::Bitflip);
    assert!(a.1.checksum_failures > 0);
    assert_eq!(a.0, b.0);
    assert_eq!(a.0, ground_truth());
    assert_eq!(a.1.checksum_failures, b.1.checksum_failures);
}

// ------------------------------------------------------ degradation ladder

/// Without replicas there is nowhere to fail over: `Fail` must surface a
/// typed error and `Partial` must answer from the survivors with honest
/// coverage — never a panic, never a silently wrong answer.
#[test]
fn unreplicated_corruption_degrades_per_ladder() {
    let dir = scratch_dir("ladder");
    let paths = write_partition_files(&dir);
    // Damage exactly site 3's file: the plan is scoped to that one path,
    // and `PathBuf::starts_with` matches whole components only, so the
    // sibling files roll no dice at all.
    let victim = std::path::PathBuf::from(&paths[2]);
    std::fs::remove_file(&victim).unwrap();
    let guard = DiskFaultPlan::seeded(9)
        .with_bitflip_rate(1.0)
        .install(&victim);
    write_segments(&victim, &partitioning().parts[2], SEG_ROWS).unwrap();

    let catalogs: Vec<Catalog> = partitioning()
        .parts
        .iter()
        .map(|p| {
            let mut c = Catalog::new();
            c.register("flow", p.clone());
            c
        })
        .collect();
    let wh = DistributedWarehouse::launch(catalogs, CostModel::free()).unwrap();
    wh.load_segments("flow", &paths).unwrap();

    // Fail: a typed error names the corruption; nothing panics.
    let err = run(&wh, DegradedMode::Fail).unwrap_err();
    assert!(
        err.to_string().contains("corrupt") || err.to_string().contains("checksum"),
        "untyped degradation error: {err}"
    );

    // Partial: the three clean sites answer, coverage says 3/4.
    let (partial, m) = run(&wh, DegradedMode::Partial).unwrap();
    assert_eq!(
        m.coverage,
        Some(Coverage {
            responded: 3,
            total: 4
        })
    );
    assert!(m.checksum_failures > 0);
    // The partial answer is the centralized answer over the surviving
    // partitions — honest, not fabricated.
    let mut survivors = Catalog::new();
    let parts = partitioning();
    let mut merged = skalla::storage::TableBuilder::new(flow_schema());
    for (i, p) in parts.parts.iter().enumerate() {
        if i != 2 {
            for r in 0..p.len() {
                merged.push_row(&p.row(r)).unwrap();
            }
        }
    }
    survivors.register("flow", merged.finish());
    let expected = eval_expr_centralized(&query(), &survivors)
        .unwrap()
        .sorted();
    assert_eq!(partial, expected);

    wh.shutdown().unwrap();
    drop(guard);
    std::fs::remove_dir_all(&dir).ok();
}

/// Torn footer writes and stale footer reads are caught at *open*, so a
/// damaged directory is refused at load time with a typed error — it can
/// never be swapped in at all.
#[test]
fn torn_and_stale_footers_are_refused_at_load() {
    for (tag, plan, install_before_write) in [
        (
            "torn",
            DiskFaultPlan::seeded(3).with_torn_write_rate(1.0),
            true,
        ),
        (
            "stale",
            DiskFaultPlan::seeded(4).with_stale_footer_rate(1.0),
            false,
        ),
    ] {
        let dir = scratch_dir(tag);
        let guard: DiskFaultGuard;
        let paths = if install_before_write {
            guard = plan.install(&dir);
            write_partition_files(&dir)
        } else {
            let p = write_partition_files(&dir);
            guard = plan.install(&dir);
            p
        };
        let wh = DistributedWarehouse::launch_replicated(
            "flow",
            &partitioning(),
            2,
            CostModel::free(),
            FaultPlan::none(),
        )
        .unwrap();
        let err = wh.load_segments("flow", &paths).unwrap_err();
        assert!(err.is_corrupt(), "{tag}: untyped load error: {err}");
        // The failed load left the in-memory tables bound: queries still
        // answer exactly.
        let (result, _) = run(&wh, DegradedMode::Fail).unwrap();
        assert_eq!(result, ground_truth(), "{tag}");
        wh.shutdown().unwrap();
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ------------------------------------------------------------------ scrub

/// `scrub()` detects 100% of injected corruptions off the query path,
/// quarantines each damaged file, and repairs it from a ring replica;
/// afterwards the same warehouse answers bit-exactly with zero checksum
/// failures.
#[test]
fn scrub_detects_quarantines_and_repairs() {
    let dir = scratch_dir("scrub");
    let paths = write_partition_files(&dir);
    // Corrupt exactly sites 1 and 4 by rewriting their files under
    // file-scoped plans. Repairs write to a fresh generation path
    // (`<path>.r<epoch>`), which escapes the file scope, so the repair
    // itself cannot be re-corrupted by the same plan.
    let parts = partitioning();
    let mut guards = Vec::new();
    for site in [0usize, 3] {
        let victim = std::path::PathBuf::from(&paths[site]);
        std::fs::remove_file(&victim).unwrap();
        guards.push(
            DiskFaultPlan::seeded(site as u64)
                .with_bitflip_rate(1.0)
                .install(&victim),
        );
        write_segments(&victim, &parts.parts[site], SEG_ROWS).unwrap();
    }

    let wh = launch_segment_backed(&paths);
    let summary = wh.scrub().unwrap();
    assert_eq!(summary.tables_scanned, SITES as u64);
    assert_eq!(summary.quarantined, 2, "{}", summary.summary());
    assert_eq!(summary.repaired, 2, "{}", summary.summary());
    assert!(summary.failures.is_empty(), "{}", summary.summary());
    assert!(summary.blocks_verified > 0);

    // The damaged files were set aside, not deleted: forensics keep the
    // `.quarantined` copy while fresh-generation files serve queries.
    for site in [0usize, 3] {
        assert!(
            std::path::Path::new(&format!("{}.quarantined", paths[site])).exists(),
            "site {site}: no quarantined copy"
        );
    }

    // Post-repair queries run clean — no checksum failures, exact answer.
    let (result, m) = run(&wh, DegradedMode::Fail).unwrap();
    assert_eq!(result, ground_truth());
    assert_eq!(m.checksum_failures, 0);
    assert!(m.total_blocks_verified() > 0);

    // A second scrub over the repaired warehouse finds nothing to do.
    let clean = wh.scrub().unwrap();
    assert_eq!(clean.quarantined, 0);
    assert_eq!(clean.repaired, 0);
    assert!(clean.failures.is_empty());

    wh.shutdown().unwrap();
    drop(guards);
    std::fs::remove_dir_all(&dir).ok();
}

/// On an *unreplicated* warehouse scrub still detects and quarantines,
/// but with no replica to copy from the repair honestly fails and says
/// so — it never fabricates data.
#[test]
fn scrub_without_replicas_reports_unrepairable() {
    let dir = scratch_dir("scrub-unrep");
    let paths = write_partition_files(&dir);
    let victim = std::path::PathBuf::from(&paths[1]);
    std::fs::remove_file(&victim).unwrap();
    let guard = DiskFaultPlan::seeded(2)
        .with_bitflip_rate(1.0)
        .install(&victim);
    write_segments(&victim, &partitioning().parts[1], SEG_ROWS).unwrap();

    let catalogs: Vec<Catalog> = partitioning()
        .parts
        .iter()
        .map(|p| {
            let mut c = Catalog::new();
            c.register("flow", p.clone());
            c
        })
        .collect();
    let wh = DistributedWarehouse::launch(catalogs, CostModel::free()).unwrap();
    wh.load_segments("flow", &paths).unwrap();

    let summary = wh.scrub().unwrap();
    assert_eq!(summary.quarantined, 1);
    assert_eq!(summary.repaired, 0);
    assert_eq!(summary.failures.len(), 1, "{}", summary.summary());

    wh.shutdown().unwrap();
    drop(guard);
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------- direct damage

/// Flipping raw bytes on disk *after* a clean load — damage the fault
/// injector didn't decide — is caught just the same: the CRC does not
/// care how the bits went bad.
#[test]
fn out_of_band_byte_damage_fails_over() {
    let dir = scratch_dir("oob");
    let paths = write_partition_files(&dir);
    let wh = launch_segment_backed(&paths);

    // Flip one byte inside a segment *body* of site 2's file: probe
    // offsets until the file still opens (header and footer intact) but
    // fails block verification — damage a query scan must trip over.
    let victim = &paths[1];
    let orig = std::fs::read(victim).unwrap();
    let mut hit_body = false;
    for off in (0..orig.len()).step_by(7) {
        let mut bytes = orig.clone();
        bytes[off] ^= 0x40;
        std::fs::write(victim, &bytes).unwrap();
        if let Ok(f) = SegmentFile::open(victim) {
            if f.verify().is_err() {
                hit_body = true;
                break;
            }
        }
    }
    assert!(hit_body, "no probed offset landed in a segment body");

    let (result, m) = run(&wh, DegradedMode::Failover).unwrap();
    assert_eq!(result, ground_truth());
    assert!(m.checksum_failures >= 1);
    assert!(m.failovers >= 1);

    wh.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------ projected scans

/// `flow` plus a `note` column that [`query`] never reads: a projected
/// scan decodes only `k` and `v`, yet must still check `note`'s CRCs.
fn wide_schema() -> std::sync::Arc<Schema> {
    Schema::from_pairs([
        ("k", DataType::Int64),
        ("v", DataType::Int64),
        ("note", DataType::Utf8),
    ])
    .unwrap()
    .into_arc()
}

fn wide_partitioning() -> Partitioning {
    let data: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| {
            vec![
                Value::Int((i % 7) as i64),
                Value::Int(i as i64),
                Value::str(format!("note-{}", i % 5)),
            ]
        })
        .collect();
    let table = Table::from_rows(wide_schema(), &data).unwrap();
    partition_by_hash(&table, 0, SITES).unwrap()
}

fn wide_query() -> GmdjExpr {
    let schemas = HashMap::from([("flow".to_string(), wide_schema())]);
    let text = "BASE DISTINCT k FROM flow;
         MD COUNT(*) AS c, SUM(v) AS s WHERE b.k = r.k;
         MD COUNT(*) AS hi WHERE b.k = r.k AND r.v >= b.s / b.c;";
    parse_query(text, &schemas).unwrap()
}

/// Byte offset, in the file at `path`, of the first sealed byte of column
/// `col`'s chunk in segment `seg` (chunks are framed as `u64` length,
/// `u32` CRC32C, bytes).
fn chunk_start(path: &str, seg: usize, col: usize) -> usize {
    let bytes = std::fs::read(path).unwrap();
    let mut pos = SegmentFile::open(path).unwrap().meta(seg).offset as usize;
    for _ in 0..col {
        let len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        pos += 12 + len as usize;
    }
    pos + 12
}

/// A flipped bit in a column chunk the query never decodes still fails
/// that segment's scan with a typed `SegmentCorrupt` and goes through the
/// degradation ladder: `Fail` errors, `Failover` answers bit-exactly from
/// a replica. On clean files every scanned segment verifies all of its
/// chunks — as many blocks as the schema has columns — not just the
/// columns it decodes.
#[test]
fn corruption_in_an_unread_column_still_fails_the_scan() {
    let parts = wide_partitioning();
    let mut full = Catalog::new();
    full.register("flow", Table::concat(&parts.parts).unwrap());
    let truth = eval_expr_centralized(&wide_query(), &full)
        .unwrap()
        .sorted();
    let dir = scratch_dir("unread-col");
    let paths: Vec<String> = (0..SITES)
        .map(|site| {
            let path = dir.join(format!("flow-{site}.seg"));
            write_segments(&path, &parts.parts[site], SEG_ROWS).unwrap();
            path.to_string_lossy().into_owned()
        })
        .collect();
    let run_wide = |wh: &DistributedWarehouse, degraded| {
        let mut plan = DistPlan::unoptimized(wide_query());
        plan.retry = retry(degraded);
        wh.execute(&plan).map(|(r, m)| (r.sorted(), m))
    };
    let catalogs: Vec<Catalog> = parts
        .parts
        .iter()
        .map(|p| {
            let mut c = Catalog::new();
            c.register("flow", p.clone());
            c
        })
        .collect();
    let plain = DistributedWarehouse::launch(catalogs, CostModel::free()).unwrap();
    plain.load_segments("flow", &paths).unwrap();
    let replicated = DistributedWarehouse::launch_replicated(
        "flow",
        &parts,
        2,
        CostModel::free(),
        FaultPlan::none(),
    )
    .unwrap();
    replicated.load_segments("flow", &paths).unwrap();

    // Clean: every scanned segment verified all three of its chunks.
    let (result, m) = run_wide(&plain, DegradedMode::Fail).unwrap();
    assert_eq!(result, truth);
    assert!(m.total_segments_scanned() > 0);
    assert_eq!(m.total_blocks_verified(), 3 * m.total_segments_scanned());

    // Damage `note` (column 2) in segment 0 of site 2's file, on disk
    // after the load, as out-of-band damage would.
    let victim = &paths[1];
    let mut bytes = std::fs::read(victim).unwrap();
    bytes[chunk_start(victim, 0, 2) + 2] ^= 0x20;
    std::fs::write(victim, &bytes).unwrap();
    let file = SegmentFile::open(victim).unwrap();
    let err = file.read_columns(0, &[0, 1]).unwrap_err();
    assert!(matches!(err, SkallaError::SegmentCorrupt(_)), "{err}");
    assert!(
        file.read_columns(1, &[0, 1]).is_ok(),
        "other segments stay readable"
    );

    let err = run_wide(&plain, DegradedMode::Fail).unwrap_err();
    assert!(
        err.to_string().contains("corrupt") || err.to_string().contains("checksum"),
        "untyped degradation error: {err}"
    );
    let (result, m) = run_wide(&replicated, DegradedMode::Failover).unwrap();
    assert_eq!(result, truth);
    assert!(m.checksum_failures >= 1);
    assert!(m.failovers >= 1);
    assert_eq!(m.parts_lost, 0);

    plain.shutdown().unwrap();
    replicated.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A tiered launch learns schemas from segment footers, as the flat launch
/// does, so a flipped bit in a data chunk is not read at launch: both
/// launches succeed, and the damage surfaces at query time as the same
/// typed corruption error, through the mid-tier.
#[test]
fn tiered_launch_leaves_corruption_to_the_query() {
    let dir = scratch_dir("tiered-launch");
    let paths = write_partition_files(&dir);
    let victim = &paths[1];
    let mut bytes = std::fs::read(victim).unwrap();
    bytes[chunk_start(victim, 0, 1) + 2] ^= 0x20;
    std::fs::write(victim, &bytes).unwrap();
    let catalogs: Vec<Catalog> = paths
        .iter()
        .map(|p| {
            let mut c = Catalog::new();
            c.register_segments("flow", std::sync::Arc::new(SegmentFile::open(p).unwrap()));
            c
        })
        .collect();

    let flat = DistributedWarehouse::launch(catalogs.clone(), CostModel::free()).unwrap();
    let err = run(&flat, DegradedMode::Fail).unwrap_err();
    assert!(matches!(err, SkallaError::SegmentCorrupt(_)), "flat: {err}");
    flat.shutdown().unwrap();

    let tiered = skalla::core::TieredWarehouse::launch(catalogs, 2, CostModel::free()).unwrap();
    let mut plan = DistPlan::unoptimized(query());
    plan.retry = retry(DegradedMode::Fail);
    let err = tiered.execute(&plan).unwrap_err();
    assert!(
        matches!(err, SkallaError::SegmentCorrupt(_)),
        "tiered: {err}"
    );
    tiered.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------- soak
// Run explicitly; CI smokes it in release.

/// ≥16 seeded disk-fault cases, every one required to agree bit-for-bit
/// with the centralized answer under failover. The victim set and fault
/// kind derive from the seed, so the matrix is reproducible seed by
/// seed; victims are never ring-adjacent, so every partition keeps one
/// live replica.
#[test]
#[ignore = "soak: run with --ignored (CI runs it in release as a smoke)"]
fn soak_seeded_disk_fault_matrix() {
    let truth = ground_truth();
    let started = std::time::Instant::now();
    let mut total_failures = 0u64;
    for seed in 0..16u64 {
        let first = (seed % 4) as usize;
        let victims: Vec<usize> = if seed % 3 == 0 {
            vec![first, (first + 2) % 4]
        } else {
            vec![first]
        };
        let kind = if seed % 2 == 0 {
            FaultKind::Bitflip
        } else {
            FaultKind::ShortRead
        };
        let (result, m) = run_with_victims("soak", &victims, kind);
        assert_eq!(result, truth, "seed {seed} victims {victims:?}");
        assert_eq!(m.parts_lost, 0, "seed {seed}");
        assert!(m.checksum_failures > 0, "seed {seed}: nothing injected");
        total_failures += m.checksum_failures;
    }
    assert!(total_failures >= 16);
    assert!(
        started.elapsed() < Duration::from_secs(300),
        "soak exceeded its time bound: {:?}",
        started.elapsed()
    );
}
