//! Failure handling: site-side errors must surface as coordinator errors,
//! not hangs or wrong results, and the warehouse must stay usable.

use std::collections::HashMap;

use skalla::core::TieredWarehouse;
use skalla::prelude::*;

fn flow_schema() -> std::sync::Arc<Schema> {
    Schema::from_pairs([("k", DataType::Int64), ("v", DataType::Int64)])
        .unwrap()
        .into_arc()
}

fn table(rows: usize) -> Table {
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![Value::Int((i % 5) as i64), Value::Int(i as i64)])
        .collect();
    Table::from_rows(flow_schema(), &data).unwrap()
}

fn query(table_name: &str) -> GmdjExpr {
    let schemas = HashMap::from([(table_name.to_string(), flow_schema())]);
    parse_query(
        &format!(
            "BASE DISTINCT k FROM {table_name};
             MD COUNT(*) AS c, SUM(v) AS s WHERE b.k = r.k;"
        ),
        &schemas,
    )
    .unwrap()
}

#[test]
fn missing_table_at_one_site_is_reported() {
    // Site 0 has the table; site 1 does not.
    let t = table(50);
    let mut c0 = Catalog::new();
    c0.register("flow", t.clone());
    let mut c1 = Catalog::new();
    c1.register("other", t); // wrong name

    // Launch succeeds (schemas recorded from whichever site has them)…
    let wh = DistributedWarehouse::launch(vec![c0, c1], CostModel::free()).unwrap();
    // …but execution must fail cleanly with a site error.
    let err = wh
        .execute(&DistPlan::unoptimized(query("flow")))
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("site"), "error should name the site: {msg}");
    assert!(msg.contains("flow"), "error should name the table: {msg}");
    wh.shutdown().unwrap();
}

#[test]
fn unknown_table_in_query_fails_before_any_round() {
    let t = table(50);
    let mut c = Catalog::new();
    c.register("flow", t);
    let wh = DistributedWarehouse::launch(vec![c], CostModel::free()).unwrap();
    let before = wh.network().stats().total_messages();
    let err = wh
        .execute(&DistPlan::unoptimized(query("nope")))
        .unwrap_err();
    assert!(matches!(err, SkallaError::NotFound(_)));
    // Planning-time failure: nothing was sent.
    assert_eq!(wh.network().stats().total_messages(), before);
    wh.shutdown().unwrap();
}

#[test]
fn runtime_division_by_zero_propagates() {
    // θ divides by an aggregate that is zero for some group: the site's
    // evaluation error must surface at the coordinator.
    let schema = flow_schema();
    let t = Table::from_rows(
        schema.clone(),
        &[vec![Value::Int(1), Value::Int(0)]], // sum(v) = 0 for group 1
    )
    .unwrap();
    let mut c = Catalog::new();
    c.register("flow", t);

    let schemas = HashMap::from([("flow".to_string(), schema)]);
    let q = parse_query(
        "BASE DISTINCT k FROM flow;
         MD SUM(v) AS s WHERE b.k = r.k;
         MD COUNT(*) AS c2 WHERE b.k = r.k AND r.v / b.s > 0;",
        &schemas,
    )
    .unwrap();

    let wh = DistributedWarehouse::launch(vec![c], CostModel::free()).unwrap();
    let err = wh.execute(&DistPlan::unoptimized(q)).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    wh.shutdown().unwrap();
}

#[test]
fn warehouse_survives_a_failed_query() {
    // After a failed execution the same warehouse must run the next query.
    let t = table(60);
    let mut c = Catalog::new();
    c.register("flow", t.clone());
    let wh = DistributedWarehouse::launch(vec![c], CostModel::free()).unwrap();

    assert!(wh.execute(&DistPlan::unoptimized(query("nope"))).is_err());
    let (result, _) = wh.execute(&DistPlan::unoptimized(query("flow"))).unwrap();
    assert_eq!(result.len(), 5);

    let mut full = Catalog::new();
    full.register("flow", t);
    assert_eq!(
        result.sorted(),
        eval_expr_centralized(&query("flow"), &full)
            .unwrap()
            .sorted()
    );
    wh.shutdown().unwrap();
}

#[test]
fn stale_replies_from_aborted_queries_are_discarded() {
    // Site 1 errors immediately (missing table) while site 2 is still
    // computing; the coordinator aborts, and site 2's late reply must not
    // leak into the next query. Epoch tagging guarantees this regardless
    // of scheduling; run several iterations to exercise interleavings.
    let t = table(4000);
    let parts = partition_by_hash(&t, 0, 2).unwrap();
    let mut c0 = Catalog::new();
    c0.register("flow", parts.parts[0].clone());
    c0.register("slow", parts.parts[0].clone());
    let mut c1 = Catalog::new();
    // Site 1 lacks `flow` entirely but has `slow`.
    c1.register("slow", parts.parts[1].clone());

    let wh = DistributedWarehouse::launch(vec![c0, c1], CostModel::free()).unwrap();
    for _ in 0..5 {
        // Fails: site 1 has no `flow` (site 0's reply may arrive late).
        assert!(wh.execute(&DistPlan::unoptimized(query("flow"))).is_err());
        // The next query over `slow` must be correct despite stragglers.
        let (result, _) = wh.execute(&DistPlan::unoptimized(query("slow"))).unwrap();
        let mut full = Catalog::new();
        full.register("slow", t.clone());
        assert_eq!(
            result.sorted(),
            eval_expr_centralized(&query("slow"), &full)
                .unwrap()
                .sorted()
        );
    }
    wh.shutdown().unwrap();
}

#[test]
fn duplicated_requests_are_answered_once() {
    // Every unreliable message is duplicated: sites see each request twice
    // and must serve the duplicate from the per-(epoch, round) reply cache;
    // the coordinator must discard the duplicate replies by sequence number.
    let t = table(200);
    let parts = partition_by_hash(&t, 0, 2).unwrap();
    let catalogs: Vec<Catalog> = parts
        .parts
        .iter()
        .map(|p| {
            let mut c = Catalog::new();
            c.register("flow", p.clone());
            c
        })
        .collect();
    let faults = FaultPlan::seeded(21).with_dup_rate(1.0);
    let wh = DistributedWarehouse::launch_with_faults(catalogs, CostModel::free(), faults).unwrap();

    let mut full = Catalog::new();
    full.register("flow", t);
    let expected = eval_expr_centralized(&query("flow"), &full)
        .unwrap()
        .sorted();
    // Twice on the same warehouse: the reply cache must roll over between
    // epochs rather than replaying the previous query's answers.
    for _ in 0..2 {
        let (result, _) = wh.execute(&DistPlan::unoptimized(query("flow"))).unwrap();
        assert_eq!(result.sorted(), expected);
    }
    wh.shutdown().unwrap();
}

#[test]
fn held_back_replies_from_previous_epochs_are_discarded() {
    // Aggressive delay keeps a holdback queue of stragglers alive across
    // query boundaries; epoch/round framing must keep every query exact.
    let t = table(300);
    let parts = partition_by_hash(&t, 0, 2).unwrap();
    let catalogs: Vec<Catalog> = parts
        .parts
        .iter()
        .map(|p| {
            let mut c = Catalog::new();
            c.register("flow", p.clone());
            c
        })
        .collect();
    let faults = FaultPlan::seeded(33).with_delay_rate(0.7);
    let wh = DistributedWarehouse::launch_with_faults(catalogs, CostModel::free(), faults).unwrap();

    let mut full = Catalog::new();
    full.register("flow", t);
    let expected = eval_expr_centralized(&query("flow"), &full)
        .unwrap()
        .sorted();
    for _ in 0..5 {
        let (result, _) = wh.execute(&DistPlan::unoptimized(query("flow"))).unwrap();
        assert_eq!(result.sorted(), expected);
    }
    wh.shutdown().unwrap();
}

#[test]
fn tree_propagates_site_errors() {
    let t = table(50);
    let mut c0 = Catalog::new();
    c0.register("flow", t.clone());
    let mut c1 = Catalog::new();
    c1.register("other", t);

    let tw = TieredWarehouse::launch(vec![c0, c1], 1, CostModel::free()).unwrap();
    let err = tw
        .execute(&DistPlan::unoptimized(query("flow")))
        .unwrap_err();
    assert!(err.to_string().contains("flow"), "{err}");
    tw.shutdown().unwrap();
}

#[test]
fn tree_launch_rejects_differing_schemas() {
    // The flat and the tiered launch collect schemas the same way: a table
    // whose schema differs between sites is refused before any thread
    // starts.
    let mut c0 = Catalog::new();
    c0.register("flow", table(10));
    let other = Schema::from_pairs([("k", DataType::Int64)])
        .unwrap()
        .into_arc();
    let mut c1 = Catalog::new();
    c1.register("flow", Table::empty(other));
    let catalogs = vec![c0, c1];
    let err = DistributedWarehouse::launch(catalogs.clone(), CostModel::free())
        .err()
        .expect("flat launch must refuse");
    assert!(err.to_string().contains("differing schemas"), "{err}");
    for fanout in [1, 2] {
        let err = TieredWarehouse::launch(catalogs.clone(), fanout, CostModel::free())
            .err()
            .expect("tiered launch must refuse");
        assert!(err.to_string().contains("differing schemas"), "{err}");
    }
}

#[test]
fn invalid_plans_rejected_without_execution() {
    let t = table(20);
    let mut c = Catalog::new();
    c.register("flow", t);
    let wh = DistributedWarehouse::launch(vec![c], CostModel::free()).unwrap();

    // local_only on the final round is invalid.
    let mut plan = DistPlan::unoptimized(query("flow"));
    plan.rounds.last_mut().unwrap().local_only = true;
    assert!(matches!(wh.execute(&plan), Err(SkallaError::Plan(_))));

    // Mismatched round count.
    let mut plan = DistPlan::unoptimized(query("flow"));
    plan.rounds.clear();
    assert!(matches!(wh.execute(&plan), Err(SkallaError::Plan(_))));
    wh.shutdown().unwrap();
}
