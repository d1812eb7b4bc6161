//! Fault injection end-to-end: the coordinator's deadline/retry/degradation
//! machinery must mask message drop, duplication, and delay completely, and
//! must handle site crashes according to the configured [`DegradedMode`] —
//! all deterministically under a fixed fault seed.

use std::collections::HashMap;
use std::time::Duration;

use skalla::core::TieredWarehouse;
use skalla::prelude::*;

fn flow_schema() -> std::sync::Arc<Schema> {
    Schema::from_pairs([("k", DataType::Int64), ("v", DataType::Int64)])
        .unwrap()
        .into_arc()
}

/// A small fact table with enough groups to give every site work.
fn table(rows: usize) -> Table {
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![Value::Int((i % 7) as i64), Value::Int(i as i64)])
        .collect();
    Table::from_rows(flow_schema(), &data).unwrap()
}

/// A two-operator query so execution spans the base round plus a
/// synchronized GMDJ round (several coordinator↔site exchanges).
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

/// Four per-site catalogs holding a hash partitioning of `table(rows)`.
fn catalogs(rows: usize) -> Vec<Catalog> {
    let parts = partition_by_hash(&table(rows), 0, 4).unwrap();
    parts
        .parts
        .iter()
        .map(|p| {
            let mut c = Catalog::new();
            c.register("flow", p.clone());
            c
        })
        .collect()
}

/// A retry policy tight enough for tests: dropped messages are retransmitted
/// after 250 ms rather than the default 10 s.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        deadline: Duration::from_millis(250),
        max_retries: 8,
        backoff: 1.5,
        degraded: DegradedMode::Fail,
    }
}

fn ground_truth() -> Relation {
    let mut full = Catalog::new();
    full.register("flow", table(280));
    eval_expr_centralized(&query(), &full).unwrap().sorted()
}

fn run_with_faults(faults: FaultPlan, retry: RetryPolicy) -> (Relation, ExecMetrics) {
    let wh =
        DistributedWarehouse::launch_with_faults(catalogs(280), CostModel::free(), faults).unwrap();
    let mut plan = DistPlan::unoptimized(query());
    plan.retry = retry;
    let (result, metrics) = wh.execute(&plan).unwrap();
    wh.shutdown().unwrap();
    (result.sorted(), metrics)
}

#[test]
fn lossy_network_produces_exact_result() {
    // 20% of unreliable messages dropped on every link: retransmission must
    // recover every round and the result must match the fault-free run.
    let faults = FaultPlan::seeded(0xD05E).with_drop_rate(0.2);
    let (result, metrics) = run_with_faults(faults, fast_retry());
    assert_eq!(result, ground_truth());
    assert_eq!(
        metrics.coverage,
        Some(Coverage {
            responded: 4,
            total: 4
        })
    );
}

#[test]
fn lossy_runs_are_deterministic() {
    // Same seed, same topology, same traffic: two independent warehouses
    // must agree bit-for-bit on the answer.
    let faults = FaultPlan::seeded(0xD05E).with_drop_rate(0.2);
    let (a, _) = run_with_faults(faults.clone(), fast_retry());
    let (b, _) = run_with_faults(faults, fast_retry());
    assert_eq!(a, b);
}

#[test]
fn duplicated_messages_are_discarded() {
    // 40% duplication: duplicate replies must be dropped by sequence
    // numbers, duplicate requests deduplicated by the sites' reply cache.
    let faults = FaultPlan::seeded(0xD0B1E).with_dup_rate(0.4);
    let (result, _) = run_with_faults(faults, fast_retry());
    assert_eq!(result, ground_truth());
}

#[test]
fn delayed_and_reordered_messages_are_tolerated() {
    // Half of all receives are held back behind later traffic (reordering).
    // Epoch/round framing plus sequence numbers must keep the answer exact.
    let faults = FaultPlan::seeded(0xDE1A).with_delay_rate(0.5);
    let (result, _) = run_with_faults(faults, fast_retry());
    assert_eq!(result, ground_truth());
}

#[test]
fn everything_at_once_still_answers() {
    // Drop + duplicate + delay together, still a full-coverage exact answer.
    let faults = FaultPlan::seeded(0xA11)
        .with_drop_rate(0.15)
        .with_dup_rate(0.2)
        .with_delay_rate(0.3);
    let (result, metrics) = run_with_faults(faults, fast_retry());
    assert_eq!(result, ground_truth());
    assert!(metrics.coverage.unwrap().is_complete());
}

#[test]
fn crashed_site_fails_cleanly_naming_the_site() {
    // Site 2 (network node 2) is dead on arrival. Under DegradedMode::Fail
    // the query must error within the deadline budget and name the site.
    let faults = FaultPlan::seeded(1).with_crash(2, 0);
    let wh =
        DistributedWarehouse::launch_with_faults(catalogs(280), CostModel::free(), faults).unwrap();
    let mut plan = DistPlan::unoptimized(query());
    plan.retry = RetryPolicy {
        deadline: Duration::from_millis(100),
        max_retries: 1,
        backoff: 1.0,
        degraded: DegradedMode::Fail,
    };
    let start = std::time::Instant::now();
    let err = wh.execute(&plan).unwrap_err().to_string();
    assert!(err.contains("site 2"), "error should name the site: {err}");
    // Fail-fast: worst case is the initial window plus one retry window.
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "took {:?}",
        start.elapsed()
    );
    wh.shutdown().unwrap();
}

#[test]
fn degraded_partial_reports_coverage() {
    // Same crash, DegradedMode::Partial: the coordinator synchronizes the
    // three live sites and reports coverage 3/4 in the metrics.
    let faults = FaultPlan::seeded(1).with_crash(2, 0);
    let wh =
        DistributedWarehouse::launch_with_faults(catalogs(280), CostModel::free(), faults).unwrap();
    let mut plan = DistPlan::unoptimized(query());
    plan.retry = RetryPolicy {
        deadline: Duration::from_millis(100),
        max_retries: 1,
        backoff: 1.0,
        degraded: DegradedMode::Partial,
    };
    let (result, metrics) = wh.execute(&plan).unwrap();
    wh.shutdown().unwrap();

    let cov = metrics.coverage.expect("partial run must report coverage");
    assert_eq!(
        cov,
        Coverage {
            responded: 3,
            total: 4
        }
    );
    assert!(!cov.is_complete());
    assert_eq!(cov.to_string(), "3/4");
    assert!(metrics.summary().contains("3/4"), "{}", metrics.summary());

    // The partial answer is exactly the centralized answer over the three
    // surviving partitions (site 2 owns catalog index 1).
    let parts = partition_by_hash(&table(280), 0, 4).unwrap();
    let mut survivors = TableBuilder::new(flow_schema());
    for (i, p) in parts.parts.iter().enumerate() {
        if i != 1 {
            for row in p.iter_rows() {
                survivors.push_row(&row).unwrap();
            }
        }
    }
    let mut partial_catalog = Catalog::new();
    partial_catalog.register("flow", survivors.finish());
    let expected = eval_expr_centralized(&query(), &partial_catalog)
        .unwrap()
        .sorted();
    assert_eq!(result.sorted(), expected);
}

#[test]
fn tree_leaf_crash_fails_cleanly_through_the_mid_tier() {
    // Four leaves under two mid-tiers (fanout 2): root 0, mids 1–2, leaves
    // 3–6. Leaf 4 (catalog 1, cluster of mid 1) is dead on arrival. The
    // mid-tier's recv deadline converts the hang into an Error reply, and
    // the root's ladder fails the query cleanly within the retry budget.
    let faults = FaultPlan::seeded(2).with_crash(4, 0);
    let tw =
        TieredWarehouse::launch_with_faults(catalogs(280), 2, CostModel::free(), faults).unwrap();
    let mut plan = DistPlan::unoptimized(query());
    plan.retry = RetryPolicy {
        deadline: Duration::from_millis(100),
        max_retries: 1,
        backoff: 1.0,
        degraded: DegradedMode::Fail,
    };
    let start = std::time::Instant::now();
    let err = tw.execute(&plan).unwrap_err().to_string();
    assert!(err.contains("site"), "error should name the path: {err}");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "took {:?}",
        start.elapsed()
    );
    tw.shutdown().unwrap();
}

#[test]
fn tree_leaf_crash_degrades_to_the_surviving_cluster() {
    // Same crash under DegradedMode::Partial: the root drops mid-tier 1's
    // whole cluster (leaves 3–4, catalogs 0–1) and synchronizes the
    // surviving cluster — coverage 1/2 mid-tiers, answer exactly the
    // centralized result over the surviving partitions.
    let faults = FaultPlan::seeded(2).with_crash(4, 0);
    let tw =
        TieredWarehouse::launch_with_faults(catalogs(280), 2, CostModel::free(), faults).unwrap();
    let mut plan = DistPlan::unoptimized(query());
    plan.retry = RetryPolicy {
        deadline: Duration::from_millis(100),
        max_retries: 1,
        backoff: 1.0,
        degraded: DegradedMode::Partial,
    };
    let (result, metrics) = tw.execute(&plan).unwrap();
    tw.shutdown().unwrap();

    let cov = metrics.coverage.expect("partial run must report coverage");
    assert_eq!(
        cov,
        Coverage {
            responded: 1,
            total: 2
        }
    );

    let parts = partition_by_hash(&table(280), 0, 4).unwrap();
    let mut survivors = TableBuilder::new(flow_schema());
    for (i, p) in parts.parts.iter().enumerate() {
        if i >= 2 {
            for row in p.iter_rows() {
                survivors.push_row(&row).unwrap();
            }
        }
    }
    let mut partial_catalog = Catalog::new();
    partial_catalog.register("flow", survivors.finish());
    let expected = eval_expr_centralized(&query(), &partial_catalog)
        .unwrap()
        .sorted();
    assert_eq!(result.sorted(), expected);
}

#[test]
fn partial_with_all_sites_dead_is_an_error() {
    // Partial degradation still refuses to fabricate an answer from nothing.
    let faults = FaultPlan::seeded(5)
        .with_crash(1, 0)
        .with_crash(2, 0)
        .with_crash(3, 0)
        .with_crash(4, 0);
    let wh =
        DistributedWarehouse::launch_with_faults(catalogs(80), CostModel::free(), faults).unwrap();
    let mut plan = DistPlan::unoptimized(query());
    plan.retry = RetryPolicy {
        deadline: Duration::from_millis(50),
        max_retries: 0,
        backoff: 1.0,
        degraded: DegradedMode::Partial,
    };
    let err = wh.execute(&plan).unwrap_err().to_string();
    assert!(err.contains("every site failed"), "{err}");
    wh.shutdown().unwrap();
}

#[test]
fn base_row_order_is_independent_of_arrival_order() {
    // The base round unions the sites' fragments in site order before
    // `distinct` keeps first occurrences, so the answer's row order — not
    // only its row set — is the fault-free run's, whatever order drops,
    // duplicates and delays deliver the fragments in. Through two
    // mid-tiers the sites' replies race each other even fault-free, so
    // repeated tiered runs must agree on the order too. Every value is an
    // integer, so only the order can differ.
    let mut plan = DistPlan::unoptimized(query());
    plan.retry = fast_retry();
    let flat = |faults: FaultPlan| {
        let wh = DistributedWarehouse::launch_with_faults(catalogs(280), CostModel::free(), faults)
            .unwrap();
        let (result, _) = wh.execute(&plan).unwrap();
        wh.shutdown().unwrap();
        result
    };
    let want = flat(FaultPlan::none());
    assert_eq!(want.sorted(), ground_truth());
    for faults in [
        FaultPlan::seeded(0xD0B1E).with_dup_rate(0.4),
        FaultPlan::seeded(0xDE1A).with_delay_rate(0.5),
        FaultPlan::seeded(0xA11)
            .with_drop_rate(0.15)
            .with_dup_rate(0.2)
            .with_delay_rate(0.3),
    ] {
        let ctx = format!("{faults:?}");
        assert_eq!(flat(faults), want, "flat, {ctx}");
    }
    for run in 0..4 {
        let tw = TieredWarehouse::launch(catalogs(280), 2, CostModel::free()).unwrap();
        let (result, _) = tw.execute(&plan).unwrap();
        tw.shutdown().unwrap();
        assert_eq!(result, want, "tiered run {run}");
    }
}

#[test]
fn tree_masks_network_faults_bit_for_bit() {
    // Every tier masks drops, duplicates and delays with the root's own
    // collection engine: through two mid-tiers the answer — row order
    // included — is the fault-free flat run's. Duplicates at a 5% rate
    // used to double or lose groups through the mid-tier.
    let mut plan = DistPlan::unoptimized(query());
    plan.retry = fast_retry();
    let wh = DistributedWarehouse::launch(catalogs(280), CostModel::free()).unwrap();
    let (want, _) = wh.execute(&plan).unwrap();
    wh.shutdown().unwrap();
    assert_eq!(want.sorted(), ground_truth());
    let dups = (1..=6).map(|seed| FaultPlan::seeded(seed).with_dup_rate(0.05));
    for faults in dups.chain([
        FaultPlan::seeded(0xD0B1E).with_dup_rate(0.4),
        FaultPlan::seeded(0xD05E).with_drop_rate(0.2),
        FaultPlan::seeded(0xDE1A).with_delay_rate(0.5),
        FaultPlan::seeded(0xA11)
            .with_drop_rate(0.15)
            .with_dup_rate(0.2)
            .with_delay_rate(0.3),
    ]) {
        let ctx = format!("{faults:?}");
        let tw = TieredWarehouse::launch_with_faults(catalogs(280), 2, CostModel::free(), faults)
            .unwrap();
        let (got, metrics) = tw.execute(&plan).unwrap();
        tw.shutdown().unwrap();
        assert_eq!(got, want, "{ctx}");
        assert!(metrics.coverage.unwrap().is_complete(), "{ctx}");
    }
}
