//! Concurrent query scheduler: fair, round-granular multiplexing of many
//! client queries over one shared set of site engines.
//!
//! The paper's architecture (§5) has many analysts issuing GMDJ queries
//! against shared warehouse sites. This module is the admission and
//! scheduling layer that makes that safe on the reproduction's engine:
//!
//! * **Bounded admission with backpressure.** At most
//!   [`SchedConfig::queue_depth`] queries are admitted (queued +
//!   executing) at once. [`QueryScheduler::try_submit`] reports
//!   [`Admission::Busy`] when the bound is hit — the serving layer turns
//!   that into an explicit busy response so clients back off instead of
//!   piling unbounded work onto the coordinator.
//!   [`QueryScheduler::submit`] blocks until a slot frees.
//! * **Fair round-robin interleaving.** A single executor thread owns the
//!   warehouse and steps up to [`SchedConfig::max_interleave`] admitted
//!   [`QueryRun`]s one synchronization round at a time, round-robin.
//!   Theorem 1 makes the interleave sound: between rounds a query's whole
//!   state is its synchronized base-result at the coordinator, so site
//!   engines can serve another query's round in between. Per-run epochs
//!   and reliable plan re-installs (see [`QueryRun`]) keep the
//!   interleaved rounds isolated.
//! * **Result caching.** Before execution, the plan is looked up in a
//!   [`ResultCache`] keyed by the checkpoint WAL's plan fingerprint; a
//!   hit replies immediately without touching the sites and sets
//!   [`ExecMetrics::cache_hits`]. Completed queries with complete
//!   coverage are inserted; partial results never are.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use skalla_types::{Relation, Result, SkallaError};

use crate::cache::{CacheStats, PlanKey, ResultCache};
use crate::metrics::ExecMetrics;
use crate::plan::DistPlan;
use crate::warehouse::{DistributedWarehouse, QueryRun};

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Admission bound: queued plus executing queries (clamped to ≥ 1).
    /// Submissions beyond it are rejected with [`Admission::Busy`].
    pub queue_depth: usize,
    /// How many admitted queries the executor interleaves at once
    /// (clamped to ≥ 1). `1` degenerates to strict FIFO execution.
    pub max_interleave: usize,
    /// Result-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            queue_depth: 64,
            max_interleave: 4,
            cache_capacity: 128,
        }
    }
}

/// Outcome of a non-blocking submission.
pub enum Admission {
    /// The query was admitted; await its result on the ticket.
    Admitted(QueryTicket),
    /// The admission queue is full — back off and retry.
    Busy,
}

/// The reply handle for a submitted query.
pub struct QueryTicket {
    rx: Receiver<Result<(Relation, ExecMetrics)>>,
}

impl QueryTicket {
    /// Block until the query finishes (or fails).
    pub fn wait(self) -> Result<(Relation, ExecMetrics)> {
        self.rx
            .recv()
            .map_err(|_| SkallaError::exec("scheduler shut down before the query finished"))?
    }
}

/// Aggregate scheduler counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Queries accepted into the admission queue.
    pub submitted: u64,
    /// Non-blocking submissions rejected with [`Admission::Busy`].
    pub rejected: u64,
    /// Queries answered successfully (cache hits included).
    pub completed: u64,
    /// Queries that ended in an error reply.
    pub failed: u64,
    /// The configured admission bound.
    pub queue_depth: usize,
    /// Queries currently admitted (queued + executing).
    pub in_flight: usize,
}

struct Ticket {
    plan: DistPlan,
    reply: Sender<Result<(Relation, ExecMetrics)>>,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
}

struct Shared {
    /// Queries currently admitted; guarded so admission is exact, with
    /// `freed` signaled on every release for blocking submitters.
    admitted: Mutex<usize>,
    freed: Condvar,
    depth: usize,
    caching: bool,
    cache: Mutex<ResultCache>,
    counters: Counters,
}

/// The serving layer's query scheduler; see the module docs.
///
/// Clone-free sharing: wrap it in an `Arc` and hand it to every session
/// thread — all methods take `&self`.
pub struct QueryScheduler {
    shared: Arc<Shared>,
    wh: Arc<DistributedWarehouse>,
    tx: Mutex<Option<Sender<Ticket>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl QueryScheduler {
    /// Start the executor thread over `wh`.
    pub fn launch(wh: Arc<DistributedWarehouse>, cfg: SchedConfig) -> QueryScheduler {
        let depth = cfg.queue_depth.max(1);
        let interleave = cfg.max_interleave.max(1);
        let shared = Arc::new(Shared {
            admitted: Mutex::new(0),
            freed: Condvar::new(),
            depth,
            caching: cfg.cache_capacity > 0,
            cache: Mutex::new(ResultCache::new(cfg.cache_capacity)),
            counters: Counters::default(),
        });
        let (tx, rx) = channel::<Ticket>();
        let sh = Arc::clone(&shared);
        let wh2 = Arc::clone(&wh);
        let worker = std::thread::spawn(move || worker_loop(&wh2, rx, &sh, interleave));
        QueryScheduler {
            shared,
            wh,
            tx: Mutex::new(Some(tx)),
            worker: Mutex::new(Some(worker)),
        }
    }

    /// Submit without blocking: [`Admission::Busy`] when the admission
    /// queue is full.
    pub fn try_submit(&self, plan: DistPlan) -> Result<Admission> {
        {
            let mut admitted = self.shared.admitted.lock().expect("admission lock");
            if *admitted >= self.shared.depth {
                self.shared
                    .counters
                    .rejected
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(Admission::Busy);
            }
            *admitted += 1;
        }
        self.enqueue(plan).map(Admission::Admitted)
    }

    /// Submit, blocking until an admission slot frees up.
    pub fn submit(&self, plan: DistPlan) -> Result<QueryTicket> {
        {
            let mut admitted = self.shared.admitted.lock().expect("admission lock");
            while *admitted >= self.shared.depth {
                admitted = self.shared.freed.wait(admitted).expect("admission lock");
            }
            *admitted += 1;
        }
        self.enqueue(plan)
    }

    fn enqueue(&self, plan: DistPlan) -> Result<QueryTicket> {
        let (reply, rx) = channel();
        let tx = self.tx.lock().expect("sender lock");
        let sent = tx
            .as_ref()
            .ok_or_else(|| SkallaError::exec("scheduler is shut down"))
            .and_then(|tx| {
                tx.send(Ticket { plan, reply })
                    .map_err(|_| SkallaError::exec("scheduler executor is gone"))
            });
        match sent {
            Ok(()) => {
                self.shared
                    .counters
                    .submitted
                    .fetch_add(1, Ordering::Relaxed);
                Ok(QueryTicket { rx })
            }
            Err(e) => {
                release_slot(&self.shared);
                Err(e)
            }
        }
    }

    /// Drop every cached result. Must be called whenever site data
    /// changes — the cache key fingerprints the plan, not the data.
    pub fn invalidate_cache(&self) {
        self.shared.cache.lock().expect("cache lock").invalidate();
    }

    /// Replace `table` with fresh on-disk segment files at every site
    /// (site *i* opens `paths[i-1]`) and drop every cached result, as one
    /// atomic step from the queries' point of view: the call drains
    /// in-flight queries first and holds new admissions out until both the
    /// swap and the invalidation are done. A query admitted after this
    /// returns can therefore neither scan half-swapped data nor be
    /// answered from a result computed against the old data. Returns
    /// per-site row counts of the new files.
    ///
    /// Every incoming file's checksums (header, footer, and all column
    /// blocks) are verified *before* any site swaps, so a corrupt
    /// directory is refused whole: either all sites rebind to verified
    /// files or the previous binding stays live everywhere.
    pub fn reload_segments(&self, table: &str, paths: &[String]) -> Result<Vec<u64>> {
        for p in paths {
            let f = skalla_storage::SegmentFile::open(p)?;
            f.verify().map_err(|e| {
                SkallaError::corrupt(format!("refusing reload: {e} (table `{table}`)"))
            })?;
        }
        let admitted = self.shared.admitted.lock().expect("admission lock");
        let _quiesced = self
            .shared
            .freed
            .wait_while(admitted, |n| *n > 0)
            .expect("admission lock");
        let rows = self.wh.load_segments(table, paths)?;
        self.shared.cache.lock().expect("cache lock").invalidate();
        Ok(rows)
    }

    /// Result-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.lock().expect("cache lock").stats()
    }

    /// Scheduler counters.
    pub fn stats(&self) -> SchedStats {
        let c = &self.shared.counters;
        SchedStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            queue_depth: self.shared.depth,
            in_flight: *self.shared.admitted.lock().expect("admission lock"),
        }
    }

    /// Stop accepting queries, drain the ones already admitted, and join
    /// the executor.
    pub fn shutdown(&self) -> Result<()> {
        drop(self.tx.lock().expect("sender lock").take());
        if let Some(h) = self.worker.lock().expect("worker lock").take() {
            h.join()
                .map_err(|_| SkallaError::exec("scheduler executor panicked"))?;
        }
        Ok(())
    }
}

impl Drop for QueryScheduler {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

struct Active<'w> {
    id: u64,
    run: QueryRun<'w>,
    reply: Sender<Result<(Relation, ExecMetrics)>>,
    /// `Some` iff caching is enabled for this query (the key is computed
    /// once, shared by the lookup on admission and the insert on
    /// completion).
    key: Option<PlanKey>,
    /// The plan's requested sync worker count, the ceiling for the
    /// window-aware scaling in [`worker_loop`].
    sync_workers: usize,
}

/// The executor: pull admitted tickets, step active runs round-robin one
/// synchronization round at a time, reply and release the admission slot
/// on completion. Exits once the scheduler handle is dropped *and* every
/// admitted query has been drained.
fn worker_loop(wh: &DistributedWarehouse, rx: Receiver<Ticket>, sh: &Shared, interleave: usize) {
    let mut active: Vec<Active<'_>> = Vec::new();
    let mut next_id = 0u64;
    let mut rr = 0usize;
    // The run whose plan the sites currently hold. `QueryRun::new`
    // installs the plan at begin, so every admission transfers ownership;
    // stepping a run that is not the owner re-installs its plan first.
    let mut engine_owner: Option<u64> = None;
    let mut disconnected = false;
    loop {
        // Fill the interleave window from the admission queue.
        while active.len() < interleave && !disconnected {
            match rx.try_recv() {
                Ok(t) => {
                    if let Some(a) = admit(wh, sh, &mut next_id, t) {
                        engine_owner = Some(a.id);
                        active.push(a);
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => disconnected = true,
            }
        }
        if active.is_empty() {
            if disconnected {
                return;
            }
            // Idle: block until the next submission (or shutdown).
            match rx.recv() {
                Ok(t) => {
                    if let Some(a) = admit(wh, sh, &mut next_id, t) {
                        engine_owner = Some(a.id);
                        active.push(a);
                    }
                    continue;
                }
                Err(_) => return,
            }
        }
        // Step the next run in round-robin order.
        if rr >= active.len() {
            rr = 0;
        }
        let window = active.len();
        let a = &mut active[rr];
        if engine_owner != Some(a.id) {
            a.run.mark_plan_stale();
        }
        engine_owner = Some(a.id);
        // Split the sync worker budget across the interleave window: N
        // concurrently stepped runs each get ~1/N of their requested
        // workers (never below 1), so a full window does not oversubscribe
        // the host with N full worker pools. Results are unaffected —
        // sync output is bit-for-bit invariant to the worker count — and
        // the cache key was computed from the plan at admission, before
        // this adjustment.
        a.run
            .set_coord_parallelism((a.sync_workers / window).max(1));
        match a.run.step() {
            Ok(false) => rr += 1,
            Ok(true) => {
                let done = active.remove(rr);
                finish(sh, done);
            }
            Err(e) => {
                let failed = active.remove(rr);
                answer(sh, &failed.reply, Err(e));
            }
        }
    }
}

/// Admit one ticket: answer from the cache if possible, otherwise begin a
/// run. Returns `None` when the ticket was already answered (hit or
/// begin-error).
fn admit<'w>(
    wh: &'w DistributedWarehouse,
    sh: &Shared,
    next_id: &mut u64,
    t: Ticket,
) -> Option<Active<'w>> {
    let key = if sh.caching {
        let key = PlanKey::of(&t.plan);
        let cached = sh.cache.lock().expect("cache lock").lookup(&key);
        if let Some(rel) = cached {
            // Synthetic metrics: no rounds ran, nothing crossed the wire.
            let m = ExecMetrics {
                cost_model: Some(wh.network().cost_model()),
                cache_hits: 1,
                ..ExecMetrics::default()
            };
            answer(sh, &t.reply, Ok((rel, m)));
            return None;
        }
        Some(key)
    } else {
        None
    };
    match wh.begin(&t.plan) {
        Ok(run) => {
            *next_id += 1;
            Some(Active {
                id: *next_id,
                run,
                reply: t.reply,
                key,
                sync_workers: t.plan.coord_parallelism,
            })
        }
        Err(e) => {
            answer(sh, &t.reply, Err(e));
            None
        }
    }
}

/// Reply to a completed run, caching its result when eligible.
fn finish(sh: &Shared, a: Active<'_>) {
    let res = a.run.into_result().map(|(rel, mut m)| {
        if let Some(key) = &a.key {
            m.cache_misses = 1;
            // `insert` refuses partial coverage, so a degraded answer
            // can never be replayed as an exact one.
            sh.cache
                .lock()
                .expect("cache lock")
                .insert(key, rel.clone(), m.coverage);
        }
        (rel, m)
    });
    answer(sh, &a.reply, res);
}

/// Count a query's outcome and free its admission slot, then send the
/// reply. In that order, a client that reads [`QueryScheduler::stats`] as
/// soon as its `wait` returns sees its own query counted and no longer in
/// flight.
fn answer(
    sh: &Shared,
    reply: &Sender<Result<(Relation, ExecMetrics)>>,
    res: Result<(Relation, ExecMetrics)>,
) {
    let counter = match res {
        Ok(_) => &sh.counters.completed,
        Err(_) => &sh.counters.failed,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    release_slot(sh);
    let _ = reply.send(res);
}

fn release_slot(sh: &Shared) {
    let mut admitted = sh.admitted.lock().expect("admission lock");
    *admitted = admitted.saturating_sub(1);
    drop(admitted);
    sh.freed.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_expr::Expr;
    use skalla_gmdj::{eval_expr_centralized, AggSpec, BaseSpec, GmdjBlock, GmdjExpr, GmdjOp};
    use skalla_net::CostModel;
    use skalla_storage::{partition_by_hash, Catalog, Table};
    use skalla_types::{DataType, Schema, Value};

    fn flow_schema() -> Arc<Schema> {
        Schema::from_pairs([
            ("sas", DataType::Int64),
            ("das", DataType::Int64),
            ("nb", DataType::Int64),
        ])
        .unwrap()
        .into_arc()
    }

    fn flow_table(rows: usize) -> Table {
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                vec![
                    Value::Int((i % 7) as i64),
                    Value::Int((i % 5) as i64),
                    Value::Int((i * 13 % 101) as i64),
                ]
            })
            .collect();
        Table::from_rows(flow_schema(), &data).unwrap()
    }

    fn warehouse(n_sites: usize, rows: usize) -> (Arc<DistributedWarehouse>, Catalog) {
        let t = flow_table(rows);
        let parts = partition_by_hash(&t, 0, n_sites).unwrap();
        let catalogs: Vec<Catalog> = parts
            .parts
            .iter()
            .map(|p| {
                let mut c = Catalog::new();
                c.register("flow", p.clone());
                c
            })
            .collect();
        let mut full = Catalog::new();
        full.register("flow", t);
        (
            Arc::new(DistributedWarehouse::launch(catalogs, CostModel::free()).unwrap()),
            full,
        )
    }

    /// A one-operator query whose aggregate threshold varies, so each `k`
    /// is a distinct plan (and distinct cache key).
    fn query(k: i64) -> GmdjExpr {
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("cnt")],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::detail(2).ge(Expr::lit(k))),
        )]);
        GmdjExpr::new(
            BaseSpec::DistinctProject { cols: vec![0] },
            "flow",
            vec![op],
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn interleaved_queries_match_serial_execution() {
        let (wh, full) = warehouse(3, 240);
        let sched = Arc::new(QueryScheduler::launch(
            Arc::clone(&wh),
            SchedConfig {
                queue_depth: 16,
                max_interleave: 4,
                cache_capacity: 0,
            },
        ));
        let ks: Vec<i64> = (0..8).collect();
        let handles: Vec<_> = ks
            .iter()
            .map(|&k| {
                let sched = Arc::clone(&sched);
                std::thread::spawn(move || {
                    let plan = DistPlan::unoptimized(query(k));
                    sched.submit(plan).unwrap().wait().unwrap()
                })
            })
            .collect();
        for (k, h) in ks.iter().zip(handles) {
            let (rel, m) = h.join().unwrap();
            let cent = eval_expr_centralized(&query(*k), &full).unwrap();
            assert_eq!(rel.sorted(), cent.sorted(), "query k={k}");
            assert!(m.coverage.unwrap().is_complete());
        }
        let s = sched.stats();
        assert_eq!(s.submitted, 8);
        assert_eq!(s.completed, 8);
        assert_eq!(s.failed, 0);
        sched.shutdown().unwrap();
        drop(sched);
        Arc::try_unwrap(wh).ok().unwrap().shutdown().unwrap();
    }

    #[test]
    fn repeated_plan_hits_cache_until_invalidated() {
        let (wh, _full) = warehouse(2, 120);
        let sched = QueryScheduler::launch(Arc::clone(&wh), SchedConfig::default());
        let plan = DistPlan::unoptimized(query(50));

        let (r1, m1) = sched.submit(plan.clone()).unwrap().wait().unwrap();
        assert_eq!(m1.cache_misses, 1);
        assert_eq!(m1.cache_hits, 0);

        let (r2, m2) = sched.submit(plan.clone()).unwrap().wait().unwrap();
        assert_eq!(m2.cache_hits, 1);
        assert_eq!(m2.cache_misses, 0);
        assert_eq!(m2.num_rounds(), 0); // never touched the sites
        assert_eq!(r1.sorted(), r2.sorted());

        sched.invalidate_cache();
        let (r3, m3) = sched.submit(plan).unwrap().wait().unwrap();
        assert_eq!(m3.cache_misses, 1);
        assert_eq!(r1.sorted(), r3.sorted());

        let cs = sched.cache_stats();
        assert_eq!(cs.hits, 1);
        assert_eq!(cs.invalidations, 1);
        sched.shutdown().unwrap();
        drop(sched);
        Arc::try_unwrap(wh).ok().unwrap().shutdown().unwrap();
    }

    /// The stale-cache regression: once a table is reloaded from disk,
    /// a result cached against the old data must never be served again.
    #[test]
    fn reload_segments_evicts_stale_cached_results() {
        let (wh, _full) = warehouse(2, 120);
        let sched = QueryScheduler::launch(Arc::clone(&wh), SchedConfig::default());
        let plan = DistPlan::unoptimized(query(50));

        let (r1, m1) = sched.submit(plan.clone()).unwrap().wait().unwrap();
        assert_eq!(m1.cache_misses, 1);
        let (_r2, m2) = sched.submit(plan.clone()).unwrap().wait().unwrap();
        assert_eq!(m2.cache_hits, 1);

        // The data changes: each site's partition is replaced by a
        // segment file holding twice the rows. The cached answer for the
        // same plan is now wrong.
        let new = flow_table(240);
        let parts = partition_by_hash(&new, 0, 2).unwrap();
        let dir = std::env::temp_dir().join(format!("skalla-sched-reload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let paths: Vec<String> = parts
            .parts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let path = dir.join(format!("flow-{i}.seg"));
                skalla_storage::write_segments(&path, p, 64).unwrap();
                path.to_string_lossy().into_owned()
            })
            .collect();
        let per_site = sched.reload_segments("flow", &paths).unwrap();
        assert_eq!(per_site.iter().sum::<u64>(), 240);

        // Same plan again: must re-execute against the new data, not
        // replay the stale cached relation.
        let (r3, m3) = sched.submit(plan).unwrap().wait().unwrap();
        assert_eq!(m3.cache_hits, 0);
        assert_eq!(m3.cache_misses, 1);
        let mut full = Catalog::new();
        full.register("flow", new);
        let cent = eval_expr_centralized(&query(50), &full).unwrap();
        assert_eq!(r3.sorted(), cent.sorted());
        assert_ne!(r1.sorted(), r3.sorted(), "stale answer served after reload");

        sched.shutdown().unwrap();
        drop(sched);
        Arc::try_unwrap(wh).ok().unwrap().shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn admission_queue_backpressure() {
        let (wh, _full) = warehouse(2, 200);
        let sched = QueryScheduler::launch(
            Arc::clone(&wh),
            SchedConfig {
                queue_depth: 2,
                max_interleave: 2,
                cache_capacity: 0,
            },
        );
        // Fire 10 submissions back-to-back: at most 2 can be admitted at
        // once, and the executor cannot finish a multi-round distributed
        // query within the microseconds between submissions.
        let mut tickets = Vec::new();
        let mut busy = 0;
        for k in 0..10 {
            match sched.try_submit(DistPlan::unoptimized(query(k))).unwrap() {
                Admission::Admitted(t) => tickets.push(t),
                Admission::Busy => busy += 1,
            }
        }
        assert!(busy > 0, "expected at least one Busy rejection");
        assert!(!tickets.is_empty());
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(sched.stats().rejected, busy);
        sched.shutdown().unwrap();
        drop(sched);
        Arc::try_unwrap(wh).ok().unwrap().shutdown().unwrap();
    }

    /// Stats are exact the moment `wait` returns: the outcome is counted
    /// and the slot freed before the reply is sent, on hits, misses and
    /// failures alike.
    #[test]
    fn stats_are_current_when_wait_returns() {
        let (wh, _full) = warehouse(2, 40);
        let sched = QueryScheduler::launch(Arc::clone(&wh), SchedConfig::default());
        let (mut completed, mut failed) = (0, 0);
        for i in 0..300i64 {
            let plan = if i % 10 == 9 {
                // Names a table no site holds: the run fails.
                let mut e = query(0);
                e.detail_name = "missing".into();
                DistPlan::unoptimized(e)
            } else {
                // Eight distinct plans, so most submissions are cache hits.
                DistPlan::unoptimized(query(i % 8))
            };
            match sched.submit(plan).unwrap().wait() {
                Ok(_) => completed += 1,
                Err(_) => failed += 1,
            }
            let s = sched.stats();
            assert_eq!(
                (s.completed, s.failed, s.in_flight),
                (completed, failed, 0),
                "after {i}"
            );
        }
        assert_eq!(failed, 30);
        sched.shutdown().unwrap();
        drop(sched);
        Arc::try_unwrap(wh).ok().unwrap().shutdown().unwrap();
    }

    #[test]
    fn shutdown_drains_admitted_queries() {
        let (wh, _full) = warehouse(2, 100);
        let sched = QueryScheduler::launch(Arc::clone(&wh), SchedConfig::default());
        let t1 = sched.submit(DistPlan::unoptimized(query(1))).unwrap();
        let t2 = sched.submit(DistPlan::unoptimized(query(2))).unwrap();
        sched.shutdown().unwrap();
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
        assert!(sched.submit(DistPlan::unoptimized(query(3))).is_err());
        drop(sched);
        Arc::try_unwrap(wh).ok().unwrap().shutdown().unwrap();
    }
}
