//! The distributed warehouse: coordinator-side execution of
//! Alg. GMDJDistribEval.
//!
//! [`DistributedWarehouse::launch`] spawns one worker thread per site, each
//! owning its local catalog, connected through the simulated network.
//! [`DistributedWarehouse::execute`] then drives a [`DistPlan`] through its
//! rounds exactly as the paper's Fig. 1 (right) describes: ship base
//! (fragments) down, evaluate sub-aggregates at the sites, synchronize the
//! base-result structure at the coordinator, repeat.
//!
//! [`DistributedWarehouse::execute_ship_all`] is the anti-baseline: ship all
//! detail data to the coordinator and evaluate centrally — the strategy
//! whose transfer volume Theorem 2 shows Skalla never needs.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use skalla_expr::{eval_base, Expr};
use skalla_gmdj::{eval_expr_centralized, AggSpec, GmdjExpr};
use skalla_net::{CostModel, Endpoint, Envelope, FaultPlan, NodeId, SimNetwork, TransferStats};
use skalla_storage::{
    load_imbalance, partition_table_name, plan_splits, replicate_catalogs, write_segments, Catalog,
    PartFrag, PartSketch, Partitioning, ReplicaMap,
};
use skalla_types::{DataType, Field, Relation, Result, Schema, SkallaError, Value};

use crate::baseresult::BaseResult;
use crate::checkpoint::{plan_fingerprint, CheckpointRecord, CheckpointWal};
use crate::message::{Message, ScrubEntry, SiteCounters};
use crate::metrics::{Coverage, ExecMetrics, RoundMetrics};
use crate::plan::{BaseRound, DegradedMode, DistPlan, RetryPolicy, Segment};
use crate::site::run_site;
use crate::sync::{ShardedSync, SyncOptions, SyncOutput, SyncSpec, SyncStats};

/// The structure a segment's fragments are synchronized into, at the root
/// and at every mid-tier: the serial [`BaseResult`] or the sharded
/// pipeline, per [`DistPlan::coord_parallelism`].
pub(crate) enum Syncer {
    Serial {
        x: BaseResult,
        allow_new: bool,
        /// Render raw states ([`SyncOutput::State`]) instead of finalized
        /// outputs.
        state: bool,
    },
    Sharded(ShardedSync),
}

impl Syncer {
    /// Build the engine `plan` asks for, seeded with the synchronized base
    /// (or empty when `seed` is `None`). The only place that picks between
    /// the serial and the sharded engine.
    pub(crate) fn new(plan: &DistPlan, spec: SyncSpec, seed: Option<&Relation>) -> Result<Syncer> {
        if plan.coord_parallelism > 1 {
            let opts = SyncOptions::for_workers(plan.coord_parallelism);
            let opts = match plan.sync_shards {
                Some(s) => opts.with_shards(s),
                None => opts,
            };
            return Ok(Syncer::Sharded(ShardedSync::new(spec, seed, opts)?));
        }
        let (fields, state) = match spec.output {
            SyncOutput::Finalized(fields) => (fields, false),
            SyncOutput::State => (Vec::new(), true),
        };
        let x = match seed {
            Some(base) => BaseResult::from_base(base, &spec.key_cols, spec.specs, fields)?,
            None => BaseResult::empty(spec.base_schema, &spec.key_cols, spec.specs, fields),
        };
        Ok(Syncer::Serial {
            x,
            allow_new: spec.allow_new,
            state,
        })
    }

    /// Fold one fragment chunk in (Theorem 1).
    pub(crate) fn merge(&mut self, h: Relation) -> Result<()> {
        match self {
            Syncer::Serial { x, allow_new, .. } => x.merge_fragment(&h, *allow_new),
            Syncer::Sharded(s) => s.merge_chunk(h),
        }
    }

    /// The synchronized relation, plus the pipeline's stats when sharded.
    pub(crate) fn finish(self) -> Result<(Relation, Option<SyncStats>)> {
        match self {
            Syncer::Serial { x, state: true, .. } => Ok((x.to_state_relation()?, None)),
            Syncer::Serial { x, .. } => Ok((x.finalize()?, None)),
            Syncer::Sharded(s) => s.finish().map(|(rel, stats)| (rel, Some(stats))),
        }
    }
}

/// Each table's schema across the sites' catalogs: the global metadata
/// every root coordinator keeps. Segment-backed names are read from footer
/// metadata, so launch never materializes an out-of-core table; a table
/// whose schema differs between sites is an error.
pub(crate) fn collect_schemas(catalogs: &[Catalog]) -> Result<HashMap<String, Arc<Schema>>> {
    let mut schemas: HashMap<String, Arc<Schema>> = HashMap::new();
    for c in catalogs {
        for name in c.table_names() {
            let s = c.schema_of(name)?;
            match schemas.get(name) {
                None => {
                    schemas.insert(name.to_string(), s);
                }
                Some(existing) if **existing == *s => {}
                Some(_) => {
                    return Err(SkallaError::schema(format!(
                        "table `{name}` has differing schemas across sites"
                    )))
                }
            }
        }
    }
    Ok(schemas)
}

/// Rows per segment when a scrub repair rewrites a partition to a fresh
/// segment file. Matches the default out-of-core generation granularity;
/// repairs are correctness-critical, not layout-critical.
const REPAIR_SEGMENT_ROWS: usize = 4096;

/// What a [`DistributedWarehouse::scrub`] pass found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubSummary {
    /// Segment-backed tables whose checksums were verified, across all
    /// sites.
    pub tables_scanned: u64,
    /// Column blocks whose CRCs checked out.
    pub blocks_verified: u64,
    /// Corrupt segment files detected, renamed `*.quarantined`, and
    /// unregistered at their site.
    pub quarantined: u64,
    /// Quarantined tables successfully rebuilt from a surviving replica
    /// and rebound at the damaged site.
    pub repaired: u64,
    /// Human-readable reports for corruption that could *not* be
    /// repaired (no replica map, no surviving replica, or the repair
    /// round itself failed). Empty when every quarantine was repaired.
    pub failures: Vec<String>,
}

impl ScrubSummary {
    /// One-line operator summary, used by the CLI `\scrub` command.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "scrub: {} table(s), {} block(s) verified, {} quarantined, {} repaired",
            self.tables_scanned, self.blocks_verified, self.quarantined, self.repaired
        );
        for f in &self.failures {
            s.push_str("\n  !! ");
            s.push_str(f);
        }
        s
    }
}

/// A running distributed data warehouse: `n` site threads plus this
/// coordinator handle.
pub struct DistributedWarehouse {
    pub(crate) net: SimNetwork,
    /// The coordinator's endpoint and its children: the sites, or the
    /// mid-tiers of a [`TieredWarehouse`](crate::TieredWarehouse).
    pub(crate) link: Collector,
    pub(crate) handles: Vec<JoinHandle<()>>,
    pub(crate) schemas: HashMap<String, Arc<Schema>>,
    /// Query epoch: stamped on every request, echoed by sites; replies
    /// from an aborted earlier query are recognized and dropped. A
    /// failover re-plan bumps it mid-query, so stale fragments computed
    /// under the old partition assignment can never be merged twice.
    pub(crate) epoch: AtomicU64,
    /// Partition→host replica placement, present when the warehouse was
    /// launched via [`DistributedWarehouse::launch_replicated`]. Required
    /// for [`DegradedMode::Failover`].
    pub(crate) replicas: Option<ReplicaMap>,
    /// Per-table partition cardinalities learned from the sketches sites
    /// ship with round replies. Persists across queries, so a warehouse
    /// that has seen one query over a skewed table can split its hot
    /// partitions from the very first round of the next query.
    pub(crate) skew_loads: Mutex<HashMap<String, Vec<u64>>>,
}

impl DistributedWarehouse {
    /// Launch one site per catalog. The coordinator records each table's
    /// schema (global metadata every warehouse coordinator has).
    pub fn launch(catalogs: Vec<Catalog>, cost: CostModel) -> Result<DistributedWarehouse> {
        Self::launch_with_faults(catalogs, cost, FaultPlan::none())
    }

    /// [`DistributedWarehouse::launch`] with deterministic fault injection:
    /// the [`FaultPlan`] is threaded into every network endpoint, so the
    /// coordinator's deadline/retry/degradation machinery can be exercised
    /// reproducibly.
    pub fn launch_with_faults(
        catalogs: Vec<Catalog>,
        cost: CostModel,
        faults: FaultPlan,
    ) -> Result<DistributedWarehouse> {
        if catalogs.is_empty() {
            return Err(SkallaError::plan("warehouse needs at least one site"));
        }
        let schemas = collect_schemas(&catalogs)?;
        let n = catalogs.len();
        let (net, mut endpoints) = SimNetwork::full_mesh_with_faults(n + 1, cost, faults);
        // endpoints[0] is the coordinator; 1..=n are the sites.
        let handles = endpoints
            .drain(1..)
            .zip(catalogs)
            .map(|(ep, catalog)| std::thread::spawn(move || run_site(ep, catalog)))
            .collect();
        let coord = endpoints.pop().expect("coordinator endpoint");
        Ok(Self::with_root(net, coord, n, handles, schemas))
    }

    /// The root coordinator on `coord` (node 0) over children `1..=children`
    /// — sites, or the mid-tiers of a tree — with `handles` the threads it
    /// joins at shutdown.
    pub(crate) fn with_root(
        net: SimNetwork,
        coord: Endpoint,
        children: usize,
        handles: Vec<JoinHandle<()>>,
        schemas: HashMap<String, Arc<Schema>>,
    ) -> DistributedWarehouse {
        DistributedWarehouse {
            net,
            link: Collector::new(coord, (1..=children as NodeId).collect(), None),
            handles,
            schemas,
            epoch: AtomicU64::new(0),
            replicas: None,
            skew_loads: Mutex::new(HashMap::new()),
        }
    }

    /// Launch a warehouse where `table`'s partitions are `replication`-way
    /// replicated across the sites (ring placement: partition *p* lives on
    /// sites *p..p+r−1* mod *n*). Site *i*'s plain `table` is still its
    /// primary partition — fault-free execution is byte-identical to an
    /// unreplicated launch — but every hosted copy is also addressable by
    /// partition number, which is what lets the coordinator re-plan a
    /// round onto surviving replicas under [`DegradedMode::Failover`].
    pub fn launch_replicated(
        table: &str,
        parts: &Partitioning,
        replication: usize,
        cost: CostModel,
        faults: FaultPlan,
    ) -> Result<DistributedWarehouse> {
        let (catalogs, map) = replicate_catalogs(table, parts, replication)?;
        let mut wh = Self::launch_with_faults(catalogs, cost, faults)?;
        wh.replicas = Some(map);
        Ok(wh)
    }

    /// The replica placement map, if this warehouse was launched
    /// replicated.
    pub fn replica_map(&self) -> Option<&ReplicaMap> {
        self.replicas.as_ref()
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.link.children.len()
    }

    /// The simulated network (for stats inspection).
    pub fn network(&self) -> &SimNetwork {
        &self.net
    }

    /// Schema of a named detail table.
    pub fn table_schema(&self, name: &str) -> Result<Arc<Schema>> {
        self.schemas
            .get(name)
            .cloned()
            .ok_or_else(|| SkallaError::not_found(format!("table `{name}`")))
    }

    /// Frame and send one message. `reliable` sends bypass injected
    /// drop/duplicate/delay faults (used by the serving layer to
    /// re-install plans when the engine is handed between interleaved
    /// queries, where a dropped install would silently corrupt results).
    fn send_framed(
        &self,
        site: NodeId,
        msg: &Message,
        epoch: u64,
        round: u32,
        reliable: bool,
    ) -> Result<()> {
        let frame = msg.to_wire_framed(epoch, round);
        if reliable {
            self.link.ep.send_reliable(site, frame)
        } else {
            self.link.ep.send(site, frame)
        }
    }
}

/// One coordinator's side of its links: the endpoint it sends requests and
/// collects replies on, and its children's node ids. The root (over sites
/// or mid-tiers) and every mid-tier (over its cluster) run the same
/// collection engine, [`Collector::collect_round`], through it.
pub(crate) struct Collector {
    pub(crate) ep: Endpoint,
    pub(crate) children: Vec<NodeId>,
    /// A mid-tier's parent (`None` at the root). A frame from it for a
    /// newer `(epoch, round)`, or a `Shutdown`, ends the collection in
    /// progress and is parked in `superseded` for the mid-tier to serve
    /// next; other parent frames are duplicates or stragglers.
    parent: Option<NodeId>,
    superseded: Mutex<Option<Envelope>>,
}

impl Collector {
    pub(crate) fn new(ep: Endpoint, children: Vec<NodeId>, parent: Option<NodeId>) -> Collector {
        Collector {
            ep,
            children,
            parent,
            superseded: Mutex::new(None),
        }
    }

    /// [`Collector::collect_round`] for an exchange that needs every
    /// child's reply and keeps no ledger: no failover, and `retry` (a
    /// `Fail` policy) bounds how long a silent child may hold it.
    pub(crate) fn collect_all(
        &self,
        epoch: u64,
        round: u32,
        retry: &RetryPolicy,
        resend_plan: Option<&Message>,
        requests: Vec<(NodeId, Message)>,
        sink: &mut dyn FnMut(NodeId, Message) -> Result<()>,
    ) -> Result<()> {
        self.collect_round(
            epoch,
            round,
            retry,
            resend_plan,
            requests,
            &mut HashSet::new(),
            &mut BTreeMap::new(),
            &mut 0.0,
            &mut 0,
            None,
            sink,
        )?;
        Ok(())
    }

    /// Pass `Shutdown` to every child, reliably. A child whose channel is
    /// already gone has nothing left to shut down.
    pub(crate) fn shutdown_children(&self, epoch: u64, round: u32) {
        for &c in &self.children {
            let _ = self
                .ep
                .send_reliable(c, Message::Shutdown.to_wire_framed(epoch, round));
        }
    }

    /// The parent frame that ended the last collection early, if any.
    pub(crate) fn take_superseded(&self) -> Option<Envelope> {
        self.superseded.lock().take()
    }

    /// Send one round's requests and collect every reply, enforcing the
    /// retry policy's per-round deadline.
    ///
    /// Accepted in-order reply messages are handed to `sink`; duplicated
    /// frames and replayed chunks are discarded by sequence number, so the
    /// sink's (non-idempotent) merge sees each chunk exactly once. When a
    /// round's deadline expires, the plan and request are re-sent to every
    /// silent site (sites replay served rounds from a reply cache, so this
    /// is always safe) with exponential backoff. A site that exhausts the
    /// budget — or whose channel is gone — is handled per the degraded
    /// mode: [`DegradedMode::Fail`] errors naming the site,
    /// [`DegradedMode::Partial`] records it in `dead` and the round
    /// completes from the remaining sites.
    ///
    /// With a [`FailoverRound`] (replicated launch +
    /// [`DegradedMode::Failover`]) the round is fault-transparent instead:
    /// replies are *staged* per site and only merged once the site's final
    /// chunk arrives, so a lost site's partial reply is discarded whole and
    /// its partitions are re-requested from surviving replicas via
    /// [`DistributedWarehouse::run_failover`] under a fresh epoch.
    ///
    /// Every request transmission (first send, retry, or failover restart)
    /// increments the site's entry in `attempts`, feeding the per-site
    /// retry histogram in [`ExecMetrics`].
    ///
    /// Seconds spent decoding reply frames off the wire are accumulated
    /// into `decode_s`, separately from whatever the sink does with the
    /// decoded message.
    /// `epoch` is the calling query run's private epoch: concurrent runs
    /// each allocate their own from the warehouse-global counter, so a
    /// site's reply cache can never replay one query's round to another.
    /// The returned epoch is the (possibly failover-bumped) epoch the
    /// round finished under, which the caller must adopt.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn collect_round(
        &self,
        epoch: u64,
        round: u32,
        retry: &RetryPolicy,
        resend_plan: Option<&Message>,
        requests: Vec<(NodeId, Message)>,
        dead: &mut HashSet<NodeId>,
        attempts: &mut BTreeMap<NodeId, u32>,
        decode_s: &mut f64,
        checksum_failures: &mut u64,
        mut failover: Option<&mut FailoverRound<'_>>,
        sink: &mut dyn FnMut(NodeId, Message) -> Result<()>,
    ) -> Result<u64> {
        let round_start = Instant::now();
        let mut st = RoundState {
            epoch,
            round,
            prog: requests
                .iter()
                .map(|(s, _)| (*s, SiteProgress::default()))
                .collect(),
            reqs: requests.into_iter().collect(),
            staged: BTreeMap::new(),
        };
        let offload_armed = failover
            .as_deref()
            .is_some_and(|fo| fo.offload_factor.is_some());
        let mut lost: Vec<NodeId> = Vec::new();
        for (site, req) in &st.reqs {
            *attempts.entry(*site).or_default() += 1;
            if self
                .ep
                .send(*site, req.to_wire_framed(st.epoch, round))
                .is_err()
            {
                lost.push(*site);
            }
        }
        self.handle_lost(
            lost,
            retry,
            dead,
            &mut st,
            failover.as_deref_mut(),
            attempts,
            resend_plan,
        )?;
        let mut timeouts = 0u32;
        while st.prog.values().any(|p| !p.done) {
            let window = retry.deadline_for_attempt(timeouts);
            let mut deadline = Instant::now() + window;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                // With offload armed, wake every couple of milliseconds to
                // check for stragglers instead of blocking out the full
                // attempt window.
                let wait = if offload_armed {
                    remaining.min(Duration::from_millis(2))
                } else {
                    remaining
                };
                let env = match self.ep.try_recv_for(wait) {
                    Ok(Some(env)) => env,
                    Ok(None) => {
                        if let (true, Some(fo)) = (offload_armed, failover.as_deref_mut()) {
                            self.maybe_offload(&mut st, fo, dead, round_start, attempts);
                            // Poll tick: the loop head breaks once the real
                            // attempt window has expired.
                            continue;
                        }
                        break; // attempt window expired
                    }
                    Err(e) => {
                        // Every peer endpoint is gone: no reply can ever
                        // arrive for the remaining sites.
                        if retry.degraded == DegradedMode::Fail {
                            return Err(e);
                        }
                        let silent = pending_sites(&st.prog);
                        self.handle_lost(
                            silent,
                            retry,
                            dead,
                            &mut st,
                            failover.as_deref_mut(),
                            attempts,
                            resend_plan,
                        )?;
                        break;
                    }
                };
                let t_decode = Instant::now();
                let decoded = Message::from_wire_framed(&env.payload);
                *decode_s += t_decode.elapsed().as_secs_f64();
                let Ok((e, r, msg)) = decoded else {
                    continue; // unparseable frame: treated as loss, retry recovers
                };
                if Some(env.src) == self.parent {
                    if matches!(msg, Message::Shutdown) || (e, r) > (st.epoch, round) {
                        *self.superseded.lock() = Some(env);
                        return Err(SkallaError::exec("collection superseded by its parent"));
                    }
                    continue; // a duplicate of the current request, or a straggler
                }
                if e != st.epoch || r != round {
                    continue; // straggler from an aborted query, earlier
                              // round, or pre-failover wave
                }
                let src = env.src;
                match st.prog.get(&src) {
                    Some(p) if !p.done => {}
                    // Not a participant, or a duplicate after completion.
                    _ => continue,
                }
                if let Message::Error { msg, corrupt } = msg {
                    // A checksum failure is deterministic — re-reading the
                    // same bytes fails the same way — so corrupt replies
                    // skip the retry budget entirely and go straight to
                    // failover (replicas are bit-identical) or the
                    // degradation ladder.
                    if corrupt {
                        *checksum_failures += 1;
                    }
                    let exhausted = corrupt || {
                        let p = st.prog.get_mut(&src).expect("participant checked");
                        p.error_retries += 1;
                        p.error_retries > retry.max_retries
                    };
                    if exhausted {
                        if failover.is_some() {
                            // The site keeps failing; its replicas may not.
                            self.handle_lost(
                                vec![src],
                                retry,
                                dead,
                                &mut st,
                                failover.as_deref_mut(),
                                attempts,
                                resend_plan,
                            )?;
                            continue;
                        }
                        match retry.degraded {
                            DegradedMode::Fail => {
                                let m = format!("site {src}: {msg}");
                                return Err(if corrupt {
                                    SkallaError::corrupt(m)
                                } else {
                                    SkallaError::exec(m)
                                });
                            }
                            // A persistently erroring site (e.g. a mid-tier
                            // whose cluster lost a leaf) degrades like a
                            // silent one: drop it and keep the survivors.
                            DegradedMode::Partial | DegradedMode::Failover => {
                                self.site_lost(src, retry, dead, &mut st.prog)?;
                                continue;
                            }
                        }
                    }
                    *attempts.entry(src).or_default() += 1;
                    if self.resend(src, resend_plan, &st).is_err() {
                        self.handle_lost(
                            vec![src],
                            retry,
                            dead,
                            &mut st,
                            failover.as_deref_mut(),
                            attempts,
                            resend_plan,
                        )?;
                    }
                    continue;
                }
                let Some((seq, last)) = reply_seq_last(&msg) else {
                    return Err(SkallaError::exec(format!(
                        "site {src}: expected round reply, got {msg:?}"
                    )));
                };
                {
                    let p = st.prog.get_mut(&src).expect("participant checked");
                    if reply_task(&msg) != p.task {
                        continue; // reply for a superseded assignment
                    }
                    if seq != p.expected_seq {
                        continue; // duplicated or replayed chunk
                    }
                    p.expected_seq += 1;
                    if last {
                        p.done = true;
                        p.done_at = Some(Instant::now());
                    }
                }
                match failover.as_deref_mut() {
                    // Under failover, chunks are staged and only merged
                    // once the site's reply is complete: a site lost
                    // mid-reply leaves nothing behind to roll back.
                    Some(fo) => {
                        st.staged.entry(src).or_default().push(msg);
                        if last {
                            for m in st.staged.remove(&src).unwrap_or_default() {
                                sink(src, m)?;
                            }
                            // The site's partitions are now served; a later
                            // failure of this site costs nothing this round.
                            fo.site_parts.remove(&src);
                            // First complete side of an offload offer wins:
                            // the loser's staged chunks are discarded whole
                            // and it owes nothing further this round.
                            if let Some(i) = fo
                                .offers
                                .iter()
                                .position(|o| o.laggard == src || o.helper == src)
                            {
                                let o = fo.offers.swap_remove(i);
                                let loser = if o.helper == src {
                                    fo.events.offload_wins += 1;
                                    // The helper just served the laggard's
                                    // residual work.
                                    fo.site_parts.remove(&o.laggard);
                                    o.laggard
                                } else {
                                    o.helper
                                };
                                st.staged.remove(&loser);
                                if let Some(p) = st.prog.get_mut(&loser) {
                                    p.done = true;
                                }
                            }
                        }
                    }
                    None => sink(src, msg)?,
                }
                // Replies are flowing; extend this attempt's window.
                deadline = Instant::now() + window;
                if st.prog.values().all(|p| p.done) {
                    break;
                }
            }
            let silent = pending_sites(&st.prog);
            if silent.is_empty() {
                break;
            }
            timeouts += 1;
            if timeouts > retry.max_retries {
                if let Some(fo) = failover.as_deref_mut() {
                    self.run_failover(silent, fo, dead, &mut st, attempts, resend_plan)?;
                    // The re-planned wave earns a fresh deadline budget;
                    // this terminates because every failover permanently
                    // removes at least one site.
                    timeouts = 0;
                } else {
                    match retry.degraded {
                        DegradedMode::Fail => {
                            return Err(SkallaError::exec(format!(
                                "site {} did not respond within {:?} after {} retries",
                                silent[0], window, retry.max_retries
                            )));
                        }
                        DegradedMode::Partial | DegradedMode::Failover => {
                            for s in silent {
                                self.site_lost(s, retry, dead, &mut st.prog)?;
                            }
                        }
                    }
                }
            } else {
                let mut lost = Vec::new();
                for s in silent {
                    *attempts.entry(s).or_default() += 1;
                    if self.resend(s, resend_plan, &st).is_err() {
                        lost.push(s);
                    }
                }
                self.handle_lost(
                    lost,
                    retry,
                    dead,
                    &mut st,
                    failover.as_deref_mut(),
                    attempts,
                    resend_plan,
                )?;
            }
        }
        Ok(st.epoch)
    }

    /// Mid-round straggler offload: once at least half the round's sites
    /// have delivered their final chunk, a site lagging
    /// `offload_factor ×` the median completion time has its residual
    /// fragments duplicated to one idle replica host under a fresh task
    /// id. Both sides keep computing; the first to finish wins and the
    /// other's staged reply is discarded whole (see the acceptance path in
    /// `collect_round`). A laggard gets at most one outstanding offer, and
    /// the helper must host every owed fragment's partition — answers are
    /// bit-for-bit unchanged because replicas are bit-identical and the
    /// task-id check keeps the two assignments from ever mixing.
    fn maybe_offload(
        &self,
        st: &mut RoundState,
        fo: &mut FailoverRound<'_>,
        dead: &HashSet<NodeId>,
        round_start: Instant,
        attempts: &mut BTreeMap<NodeId, u32>,
    ) {
        let Some(factor) = fo.offload_factor else {
            return;
        };
        let mut done_times: Vec<f64> = st
            .prog
            .values()
            .filter_map(|p| p.done_at)
            .map(|t| t.duration_since(round_start).as_secs_f64())
            .collect();
        if done_times.len() * 2 < st.prog.len() {
            return; // not enough finishers to estimate the round's pace
        }
        done_times.sort_by(f64::total_cmp);
        let median = done_times[done_times.len() / 2];
        if round_start.elapsed().as_secs_f64() < factor * median {
            return;
        }
        let laggards: Vec<NodeId> = st
            .prog
            .iter()
            .filter(|(s, p)| {
                !p.done
                    && !fo
                        .offers
                        .iter()
                        .any(|o| o.laggard == **s || o.helper == **s)
            })
            .map(|(s, _)| *s)
            .collect();
        for laggard in laggards {
            let owed = match fo.site_parts.get(&laggard) {
                Some(fs) if !fs.is_empty() => fs.clone(),
                _ => continue,
            };
            // The idle site that finished earliest, hosts every owed
            // fragment's partition, and is not already part of an offer.
            let helper = st
                .prog
                .iter()
                .filter(|(s, p)| {
                    **s != laggard
                        && p.done
                        && p.done_at.is_some()
                        && !dead.contains(s)
                        && !fo
                            .offers
                            .iter()
                            .any(|o| o.laggard == **s || o.helper == **s)
                        && owed.iter().all(|f| {
                            fo.replicas
                                .hosts_of(f.part as usize)
                                .contains(&(**s as usize - 1))
                        })
                })
                .min_by_key(|(s, p)| (p.done_at.expect("filtered"), **s))
                .map(|(s, _)| *s);
            let Some(helper) = helper else {
                continue;
            };
            let task = fo.next_task;
            fo.next_task += 1;
            let Ok(req) = (fo.mk_request)(&owed, task) else {
                continue;
            };
            if self
                .ep
                .send(helper, req.to_wire_framed(st.epoch, st.round))
                .is_err()
            {
                // The helper's channel is gone; the normal loss paths
                // will detect and handle its death.
                continue;
            }
            st.reqs.insert(helper, req);
            st.prog.insert(
                helper,
                SiteProgress {
                    task,
                    ..SiteProgress::default()
                },
            );
            *attempts.entry(helper).or_default() += 1;
            fo.offers.push(OffloadOffer { laggard, helper });
            fo.events.offloads += 1;
        }
    }

    /// Route sites that are gone for good either to the failover re-plan
    /// (when this round runs one) or to the degraded-mode ladder.
    #[allow(clippy::too_many_arguments)]
    fn handle_lost(
        &self,
        lost: Vec<NodeId>,
        retry: &RetryPolicy,
        dead: &mut HashSet<NodeId>,
        st: &mut RoundState,
        failover: Option<&mut FailoverRound<'_>>,
        attempts: &mut BTreeMap<NodeId, u32>,
        resend_plan: Option<&Message>,
    ) -> Result<()> {
        if lost.is_empty() {
            return Ok(());
        }
        match failover {
            Some(fo) => self.run_failover(lost, fo, dead, st, attempts, resend_plan),
            None => {
                for s in lost {
                    self.site_lost(s, retry, dead, &mut st.prog)?;
                }
                Ok(())
            }
        }
    }

    /// Re-plan the current wave after `lost` sites failed (Failover rung):
    /// write them off, reassign their unserved partitions to the next
    /// surviving replica in ring order, bump the query epoch — so
    /// fragments computed under the old assignment, in flight or replayed
    /// from a site's reply cache, can never be merged — and restart every
    /// site that still owes partitions with a request rebuilt for the new
    /// assignment. Staged chunks of restarted sites are discarded;
    /// together with reply staging this keeps the invariant that each
    /// partition's detail tuples are folded into the synchronized
    /// base-result exactly once. A partition with no surviving replica is
    /// dropped from the round (Partial semantics, reported as `parts_lost`).
    fn run_failover(
        &self,
        lost: Vec<NodeId>,
        fo: &mut FailoverRound<'_>,
        dead: &mut HashSet<NodeId>,
        st: &mut RoundState,
        attempts: &mut BTreeMap<NodeId, u32>,
        resend_plan: Option<&Message>,
    ) -> Result<()> {
        let t = Instant::now();
        // Outstanding offload offers are void: the epoch bump below
        // invalidates any in-flight offer replies, and restarts below are
        // issued under task 0. Helpers not owing partitions of their own
        // drop back to done.
        for o in std::mem::take(&mut fo.offers) {
            st.staged.remove(&o.helper);
            if let Some(p) = st.prog.get_mut(&o.helper) {
                p.done = true;
            }
        }
        let mut worklist = lost;
        let res = loop {
            for site in std::mem::take(&mut worklist) {
                if !dead.insert(site) {
                    continue;
                }
                fo.events.failovers += 1;
                st.staged.remove(&site);
                st.reqs.remove(&site);
                if let Some(p) = st.prog.get_mut(&site) {
                    p.done = true;
                }
                if dead.len() == self.children.len() {
                    break;
                }
                // Fragment-granular re-plan: only the dead site's unserved
                // fragments move, each to the next surviving host of its
                // partition in ring order. A fragment with no surviving
                // host is dropped; the partition-level fix-up below
                // accounts the loss once per partition.
                for frag in fo.site_parts.remove(&site).unwrap_or_default() {
                    let next = fo
                        .replicas
                        .hosts_of(frag.part as usize)
                        .iter()
                        .map(|&h| (h + 1) as NodeId)
                        .find(|h| !dead.contains(h));
                    if let Some(h) = next {
                        fo.site_parts.entry(h).or_default().push(frag);
                        fo.events.parts_reassigned += 1;
                    }
                }
                // Ownership fix-up: partitions assigned to the dead site
                // move to their next surviving replica (feeding the next
                // round's layout and the coverage report), or are lost.
                for part in 0..fo.assignment.len() {
                    if fo.assignment[part] != Some(site) {
                        continue;
                    }
                    let next = fo
                        .replicas
                        .hosts_of(part)
                        .iter()
                        .map(|&h| (h + 1) as NodeId)
                        .find(|h| !dead.contains(h));
                    fo.assignment[part] = next;
                    if next.is_none() {
                        fo.events.parts_lost += 1;
                    }
                }
            }
            if dead.len() == self.children.len() {
                break Err(SkallaError::exec("every site failed; no result possible"));
            }
            // Everything computed so far under the old assignment is stale.
            st.epoch = fo.epochs.fetch_add(1, Ordering::Relaxed) + 1;
            // Restart every site that still owes fragments — including
            // previously-done sites that just inherited some (only the
            // inherited fragments are requested; their own are already
            // merged). Restarts are the round's authoritative wave again,
            // so they run under task 0.
            let restart: Vec<(NodeId, Vec<PartFrag>)> = fo
                .site_parts
                .iter()
                .map(|(s, ps)| (*s, ps.clone()))
                .collect();
            for (site, mut parts) in restart {
                parts.sort_unstable();
                parts.dedup();
                fo.site_parts.insert(site, parts.clone());
                let req = (fo.mk_request)(&parts, 0)?;
                st.staged.remove(&site);
                st.prog.insert(site, SiteProgress::default());
                st.reqs.insert(site, req);
                *attempts.entry(site).or_default() += 1;
                let send = || -> Result<()> {
                    if let Some(p) = resend_plan {
                        self.ep.send(site, p.to_wire_framed(st.epoch, st.round))?;
                    }
                    self.ep
                        .send(site, st.reqs[&site].to_wire_framed(st.epoch, st.round))
                };
                if send().is_err() {
                    worklist.push(site);
                }
            }
            if worklist.is_empty() {
                break Ok(());
            }
        };
        fo.events.failover_s += t.elapsed().as_secs_f64();
        res
    }

    /// Re-send the plan (sites may have lost the original broadcast) and
    /// the site's round request, under the round's current epoch.
    fn resend(&self, site: NodeId, plan: Option<&Message>, st: &RoundState) -> Result<()> {
        if let Some(p) = plan {
            self.ep.send(site, p.to_wire_framed(st.epoch, st.round))?;
        }
        let req = st.reqs.get(&site).expect("resend target was a participant");
        self.ep.send(site, req.to_wire_framed(st.epoch, st.round))
    }

    /// A site is gone for good (crashed channel or exhausted budget) and
    /// no failover is possible: fail the query or degrade, per the policy.
    /// [`DegradedMode::Failover`] without an applicable replica map falls
    /// back to Partial semantics — the next rung of the ladder.
    fn site_lost(
        &self,
        site: NodeId,
        retry: &RetryPolicy,
        dead: &mut HashSet<NodeId>,
        prog: &mut BTreeMap<NodeId, SiteProgress>,
    ) -> Result<()> {
        match retry.degraded {
            DegradedMode::Fail => Err(SkallaError::exec(format!(
                "site {site} is unreachable (crashed or disconnected)"
            ))),
            DegradedMode::Partial | DegradedMode::Failover => {
                if let Some(p) = prog.get_mut(&site) {
                    if p.expected_seq > 0 && !p.done {
                        // Some of the site's chunks were already folded into
                        // the synchronized structure; the merge cannot be
                        // rolled back (documented limitation — see
                        // docs/FAULT_MODEL.md; the Failover rung stages
                        // chunks precisely to avoid this).
                        return Err(SkallaError::exec(format!(
                            "site {site} was lost mid-reply; partially merged \
                             chunks cannot be rolled back"
                        )));
                    }
                    p.done = true;
                }
                dead.insert(site);
                if dead.len() == self.children.len() {
                    return Err(SkallaError::exec("every site failed; no result possible"));
                }
                Ok(())
            }
        }
    }
}

impl DistributedWarehouse {
    #[allow(clippy::too_many_arguments)]
    fn round_metrics_from(
        &self,
        label: impl Into<String>,
        before: &TransferStats,
        site_times: &[f64],
        coord_compute_s: f64,
        groups: usize,
        rows_down: u64,
        rows_up: u64,
    ) -> RoundMetrics {
        let delta = self.net.stats().diff(before);
        let cost = self.net.cost_model();
        RoundMetrics {
            label: label.into(),
            bytes_down: delta.bytes_from(0),
            bytes_up: delta.bytes_to(0),
            rows_down,
            rows_up,
            messages: delta.total_messages(),
            site_compute_max_s: site_times.iter().copied().fold(0.0, f64::max),
            site_compute_total_s: site_times.iter().sum(),
            coord_compute_s,
            comm_modeled_s: delta.serial_time(&cost),
            sites: site_times.len(),
            groups,
            ..RoundMetrics::default()
        }
    }

    /// Execute a distributed plan; returns the final relation and the cost
    /// breakdown.
    pub fn execute(&self, plan: &DistPlan) -> Result<(Relation, ExecMetrics)> {
        self.execute_inner(plan, None)
    }

    /// [`DistributedWarehouse::execute`] with round-granular checkpointing.
    ///
    /// After every synchronization the coordinator appends the
    /// synchronized base-result to `wal`; before executing, it consults
    /// `wal` for the latest intact record of this exact plan (matched by
    /// [`plan_fingerprint`]) and resumes from the last completed
    /// synchronization — Theorem 1 makes that relation the entire query
    /// state, so a coordinator that crashed between rounds re-executes at
    /// most the one round that was in flight. The number of
    /// synchronizations restored is reported as
    /// [`ExecMetrics::resumed_syncs`]; a corrupt, torn, or missing WAL
    /// restores nothing and the query re-executes from the start. A WAL
    /// whose last record already covers every synchronization yields the
    /// final result after only a plan broadcast.
    pub fn execute_with_checkpoints(
        &self,
        plan: &DistPlan,
        wal: &CheckpointWal,
    ) -> Result<(Relation, ExecMetrics)> {
        self.execute_inner(plan, Some(wal))
    }

    fn execute_inner(
        &self,
        plan: &DistPlan,
        wal: Option<&CheckpointWal>,
    ) -> Result<(Relation, ExecMetrics)> {
        let mut run = QueryRun::new(self, plan, wal, false)?;
        while !run.step()? {}
        run.into_result()
    }

    /// Begin a resumable, round-granular execution of `plan` for the
    /// serving layer.
    ///
    /// The returned [`QueryRun`] advances exactly one synchronization
    /// round per [`QueryRun::step`] call, so an admission scheduler can
    /// interleave rounds from many concurrent queries over the same site
    /// engines — Theorem 1 guarantees the synchronized base-result held
    /// by the run *is* the whole query state between rounds. Each run
    /// allocates a private epoch, and plan (re-)installs use reliable
    /// sends; see [`QueryRun`] for the isolation argument.
    pub fn begin(&self, plan: &DistPlan) -> Result<QueryRun<'_>> {
        QueryRun::new(self, plan, None, true)
    }

    /// The ship-all-detail-data baseline: every site sends its raw
    /// partition(s) to the coordinator, which evaluates the expression
    /// centrally. Skalla never does this — Theorem 2 bounds its transfers
    /// by the *result* size, while this baseline transfers the *fact
    /// relation*.
    pub fn execute_ship_all(&self, expr: &GmdjExpr) -> Result<(Relation, ExecMetrics)> {
        let mut epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let wall_start = Instant::now();
        let mut names: Vec<&str> = vec![expr.detail_name.as_str()];
        for op in &expr.ops {
            if let Some(n) = &op.detail_name {
                if !names.contains(&n.as_str()) {
                    names.push(n);
                }
            }
        }

        let before = self.net.stats();
        let mut catalog = Catalog::new();
        let mut site_times: Vec<f64> = vec![0.0; self.num_sites()];
        // The baseline takes no plan, so it runs under the default retry
        // policy (fail on an unresponsive site).
        let retry = RetryPolicy::default();
        let mut dead: HashSet<NodeId> = HashSet::new();
        let mut attempts: BTreeMap<NodeId, u32> = BTreeMap::new();
        let mut round_no: u32 = 0;
        let mut decode_s = 0.0;
        let mut checksum_failures = 0u64;
        for name in names {
            round_no += 1;
            let requests: Vec<(NodeId, Message)> = (1..=self.num_sites() as NodeId)
                .map(|s| {
                    (
                        s,
                        Message::ShipAllRequest {
                            table: name.to_string(),
                        },
                    )
                })
                .collect();
            let schema = self.table_schema(name)?;
            let mut builder = skalla_storage::TableBuilder::new(schema);
            epoch = self.link.collect_round(
                epoch,
                round_no,
                &retry,
                None,
                requests,
                &mut dead,
                &mut attempts,
                &mut decode_s,
                &mut checksum_failures,
                None,
                &mut |src, msg| {
                    let Message::ShipAllData { rel, compute_s } = msg else {
                        return Err(SkallaError::exec("expected ShipAllData"));
                    };
                    site_times[src as usize - 1] += compute_s;
                    for row in rel.rows() {
                        builder.push_row(row)?;
                    }
                    Ok(())
                },
            )?;
            catalog.register(name, builder.finish());
        }

        let rows_shipped: u64 = catalog
            .table_names()
            .iter()
            .map(|n| catalog.get(n).map(|t| t.len() as u64).unwrap_or(0))
            .sum();
        let t = Instant::now();
        let result = eval_expr_centralized(expr, &catalog)?;
        let groups = result.len();
        let coord_s = t.elapsed().as_secs_f64();

        let mut metrics = ExecMetrics {
            cost_model: Some(self.net.cost_model()),
            coverage: Some(Coverage {
                responded: self.num_sites() - dead.len(),
                total: self.num_sites(),
            }),
            site_attempts: attempts,
            checksum_failures,
            ..ExecMetrics::default()
        };
        let mut rm = self.round_metrics_from(
            "ship-all",
            &before,
            &site_times,
            coord_s + decode_s,
            groups,
            0,
            rows_shipped,
        );
        rm.sync_decode_s = decode_s;
        metrics.rounds.push(rm);
        metrics.wall_s = wall_start.elapsed().as_secs_f64();
        Ok((result, metrics))
    }

    /// Rebind `table` at every site to a fresh on-disk segment file —
    /// site *i* (1-based) opens `paths[i-1]` and registers it under the
    /// plain table name, replacing whatever backed it before (in-memory
    /// or an older segment file). The replacement must keep the table's
    /// schema. Returns per-site row counts once every site has opened and
    /// validated its file.
    ///
    /// Results cached from earlier queries over `table` are stale after
    /// this returns; callers holding a result cache must invalidate it
    /// (the serving layer's `QueryScheduler::reload_segments` does so).
    pub fn load_segments(&self, table: &str, paths: &[String]) -> Result<Vec<u64>> {
        if paths.len() != self.num_sites() {
            return Err(SkallaError::plan(format!(
                "{} segment paths for {} sites",
                paths.len(),
                self.num_sites()
            )));
        }
        if !self.schemas.contains_key(table) {
            return Err(SkallaError::not_found(format!("table `{table}`")));
        }
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        // Under replicated placement site i's file holds partition i - 1;
        // naming it lets the site bind the partition alias to the same
        // file, so partition-addressed scans stream from disk too.
        let replicated = self
            .replicas
            .as_ref()
            .is_some_and(|r| r.table == table && r.num_parts() == self.num_sites());
        let requests: Vec<(NodeId, Message)> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    i as NodeId + 1,
                    Message::LoadSegments {
                        table: table.to_string(),
                        path: p.clone(),
                        part: replicated.then_some(i as u64),
                    },
                )
            })
            .collect();
        let mut rows = vec![0u64; self.num_sites()];
        self.link.collect_all(
            epoch,
            0,
            &RetryPolicy::default(),
            None,
            requests,
            &mut |src, msg| {
                let Message::SegmentsLoaded { rows: r } = msg else {
                    return Err(SkallaError::exec(format!(
                        "site {src}: expected SegmentsLoaded, got {msg:?}"
                    )));
                };
                rows[src as usize - 1] = r;
                Ok(())
            },
        )?;
        Ok(rows)
    }

    /// Walk every registered segment file at every site, verifying block
    /// checksums off the query path.
    ///
    /// Each site CRC-checks all of its segment-backed tables
    /// ([`skalla_storage::SegmentFile::verify`] — no decode, no query
    /// interference), quarantines corrupt files (renamed
    /// `<path>.quarantined` and unregistered so no later query can read
    /// them), and reports per-table results. The coordinator then repairs
    /// each quarantined partition from a surviving replica: the
    /// partition's rows are re-fetched from a ring replica host
    /// (addressed by its partition-explicit catalog name), written to a
    /// *fresh-generation* segment path, and rebound at the damaged site.
    /// Repair requires a replicated launch whose replica map covers the
    /// damaged table and a surviving replica for the partition; otherwise
    /// the table stays quarantined and the failure is reported in
    /// [`ScrubSummary::failures`].
    pub fn scrub(&self) -> Result<ScrubSummary> {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let requests: Vec<(NodeId, Message)> = (1..=self.num_sites() as NodeId)
            .map(|s| (s, Message::ScrubRequest))
            .collect();
        let mut reports: Vec<(NodeId, ScrubEntry)> = Vec::new();
        self.link.collect_all(
            epoch,
            0,
            &RetryPolicy::default(),
            None,
            requests,
            &mut |src, msg| {
                let Message::ScrubReport { entries } = msg else {
                    return Err(SkallaError::exec(format!(
                        "site {src}: expected ScrubReport, got {msg:?}"
                    )));
                };
                reports.extend(entries.into_iter().map(|e| (src, e)));
                Ok(())
            },
        )?;
        let mut summary = ScrubSummary::default();
        for (site, e) in reports {
            summary.tables_scanned += 1;
            summary.blocks_verified += e.blocks;
            let Some(err) = e.error else { continue };
            summary.quarantined += 1;
            match self.repair_partition(site, &e.table, &e.path) {
                Ok(()) => summary.repaired += 1,
                Err(re) => summary.failures.push(format!(
                    "site {site} `{}`: {err}; not repaired: {re}",
                    e.table
                )),
            }
        }
        Ok(summary)
    }

    /// Repair one quarantined segment-backed table at `site`: re-fetch the
    /// site's primary partition from a surviving ring replica, write it to
    /// a fresh segment file, and rebind the table at the damaged site.
    ///
    /// The repair is written to a fresh-generation path
    /// (`<old>.r<epoch>`), never the original: deterministic disk-fault
    /// plans key their decisions on the file path, so re-using the
    /// corrupted path could deterministically re-corrupt the repair.
    fn repair_partition(&self, site: NodeId, table: &str, old_path: &str) -> Result<()> {
        let r = self
            .replicas
            .as_ref()
            .filter(|r| r.table == table && r.num_parts() == self.num_sites())
            .ok_or_else(|| {
                SkallaError::exec("no replica map covers the table; replication needed for repair")
            })?;
        let part = site as usize - 1;
        let donor = r
            .hosts_of(part)
            .iter()
            .map(|&h| (h + 1) as NodeId)
            .find(|&h| h != site)
            .ok_or_else(|| {
                SkallaError::exec(format!("partition {part} has no surviving replica"))
            })?;
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let retry = RetryPolicy::default();
        let schema = self.table_schema(table)?;
        let mut builder = skalla_storage::TableBuilder::new(schema);
        self.link.collect_all(
            epoch,
            0,
            &retry,
            None,
            vec![(
                donor,
                Message::ShipAllRequest {
                    table: partition_table_name(table, part),
                },
            )],
            &mut |_src, msg| {
                let Message::ShipAllData { rel, .. } = msg else {
                    return Err(SkallaError::exec("expected ShipAllData"));
                };
                for row in rel.rows() {
                    builder.push_row(row)?;
                }
                Ok(())
            },
        )?;
        let fresh = builder.finish();
        let path = format!("{old_path}.r{epoch}");
        write_segments(&path, &fresh, REPAIR_SEGMENT_ROWS)?;
        let mut rows_loaded = 0u64;
        self.link.collect_all(
            epoch,
            1,
            &retry,
            None,
            vec![(
                site,
                Message::LoadSegments {
                    table: table.to_string(),
                    path: path.clone(),
                    part: Some(part as u64),
                },
            )],
            &mut |src, msg| {
                let Message::SegmentsLoaded { rows } = msg else {
                    return Err(SkallaError::exec(format!(
                        "site {src}: expected SegmentsLoaded, got {msg:?}"
                    )));
                };
                rows_loaded = rows;
                Ok(())
            },
        )?;
        if rows_loaded != fresh.len() as u64 {
            return Err(SkallaError::exec(format!(
                "repair of `{table}` at site {site} loaded {rows_loaded} rows, wrote {}",
                fresh.len()
            )));
        }
        Ok(())
    }

    /// Shut down all site threads. Best-effort: the shutdown message is
    /// sent reliably (it bypasses injected drop/delay faults), and a site
    /// whose channel is already gone — e.g. crashed by fault injection —
    /// has nothing left to shut down.
    pub fn shutdown(mut self) -> Result<()> {
        self.link
            .shutdown_children(self.epoch.load(Ordering::Relaxed), 0);
        for h in self.handles.drain(..) {
            h.join()
                .map_err(|_| SkallaError::exec("site thread panicked"))?;
        }
        Ok(())
    }
}

/// A resumable, round-granular execution of one [`DistPlan`], created by
/// [`DistributedWarehouse::begin`].
///
/// Theorem 1 (§5) makes the synchronized base-result after round *k* the
/// *entire* query state — the property the checkpoint WAL already relies
/// on. `QueryRun` exploits the same property in the other direction:
/// because all cross-round state lives at the coordinator, an execution
/// can be suspended after any synchronization and another query's round
/// can run on the same site engines in between. The serving layer's
/// scheduler does exactly that, calling [`QueryRun::step`] round-robin
/// across admitted queries.
///
/// Isolation between interleaved runs rests on two mechanisms:
///
/// * **Epochs** — every run allocates a private epoch from the
///   warehouse-global counter. Sites echo the epoch on replies and key
///   their reply caches by `(epoch, round)`, so one query's fragments —
///   in flight, duplicated, or replayed from a cache — are never merged
///   into another query's synchronization.
/// * **Plan re-installs** — each site holds a single installed plan.
///   Whenever the scheduler hands the engines from one run to another it
///   calls [`QueryRun::mark_plan_stale`]; the next [`QueryRun::step`]
///   then re-installs this run's plan on every live site *reliably*
///   (bypassing injected drop/duplicate/delay faults) before issuing
///   requests, so no site ever computes a round under the wrong plan.
pub struct QueryRun<'a> {
    wh: &'a DistributedWarehouse,
    wal: Option<&'a CheckpointWal>,
    plan: DistPlan,
    /// The plan as shipped to sites (coordinator-only filters stripped).
    plan_msg: Message,
    /// This run's private epoch; a mid-run failover bumps it further.
    epoch: u64,
    /// Whether every live site currently has this run's plan installed.
    plan_installed: bool,
    /// Re-install plans with reliable sends (serving mode).
    reliable_plan: bool,
    dead: HashSet<NodeId>,
    /// Live partition→site assignment (replicated launches only).
    assignment: Vec<Option<NodeId>>,
    use_replicas: bool,
    events: FailoverEvents,
    metrics: ExecMetrics,
    /// The synchronized base-result so far — by Theorem 1, the entire
    /// query state between rounds.
    current: Option<Relation>,
    round_no: u32,
    fp: Option<u64>,
    base_syncs: u32,
    segments: Vec<Segment>,
    next_seg: usize,
    pending_base: bool,
    wall_start: Instant,
    done: bool,
}

impl<'a> QueryRun<'a> {
    fn new(
        wh: &'a DistributedWarehouse,
        plan: &DistPlan,
        wal: Option<&'a CheckpointWal>,
        reliable_plan: bool,
    ) -> Result<QueryRun<'a>> {
        // Each run gets a fresh epoch, so concurrent runs can never
        // confuse the sites' per-(epoch, round) reply caches.
        let epoch = wh.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        plan.validate()?;
        let expr = &plan.expr;
        let default_schema = wh.table_schema(&expr.detail_name)?;
        expr.validate(&default_schema)?;

        let wall_start = Instant::now();
        let mut metrics = ExecMetrics {
            cost_model: Some(wh.net.cost_model()),
            ..ExecMetrics::default()
        };

        // The Failover rung engages only when the warehouse is replicated,
        // the plan touches the replicated table exclusively, and there is
        // one primary partition per site (so the planner's per-site
        // group-reduction filters map 1:1 onto partitions). Otherwise
        // `DegradedMode::Failover` behaves as Partial — the next rung of
        // the degradation ladder.
        let use_replicas = wh.replicas.as_ref().is_some_and(|r| {
            plan.retry.degraded == DegradedMode::Failover
                && r.num_parts() == wh.num_sites()
                && std::iter::once(&expr.detail_name)
                    .chain(expr.ops.iter().filter_map(|op| op.detail_name.as_ref()))
                    .all(|n| *n == r.table)
        });
        let mut events = FailoverEvents::default();

        // Checkpointing: resume from the latest intact WAL record of this
        // exact plan, and append one record per completed synchronization.
        let fp = wal.map(|_| plan_fingerprint(plan));
        let resume = match (wal, fp) {
            (Some(w), Some(fp)) => w.load_latest(fp)?,
            _ => None,
        };
        let base_syncs = u32::from(matches!(plan.base_round, BaseRound::Distributed));
        let resume_synced = resume.as_ref().map_or(0, |r| r.synced);
        metrics.resumed_syncs = resume_synced;

        // Ship the plan. Coordinator-side group-reduction filters are
        // applied before shipping bases and never evaluated at the sites,
        // so they are stripped from the shipped copy (they can embed large
        // partition-value sets). A site whose channel is already gone is
        // either fatal or written off, per the degraded mode.
        let before = wh.net.stats();
        let mut site_plan = plan.clone();
        for r in &mut site_plan.rounds {
            r.coord_filters = None;
        }
        let plan_msg = Message::Plan(site_plan);
        let mut dead: HashSet<NodeId> = HashSet::new();
        for site in 1..=wh.num_sites() as NodeId {
            if wh
                .send_framed(site, &plan_msg, epoch, 0, reliable_plan)
                .is_err()
            {
                match plan.retry.degraded {
                    DegradedMode::Fail => {
                        return Err(SkallaError::exec(format!(
                            "site {site} is unreachable (crashed or disconnected)"
                        )))
                    }
                    DegradedMode::Partial | DegradedMode::Failover => {
                        dead.insert(site);
                        if dead.len() == wh.num_sites() {
                            return Err(SkallaError::exec("every site failed; no result possible"));
                        }
                    }
                }
            }
        }
        metrics
            .rounds
            .push(wh.round_metrics_from("plan", &before, &[], 0.0, 0, 0, 0));

        // Initial partition→site assignment: each partition on its primary
        // site, except where the primary was already unreachable at plan
        // broadcast — those start on the next live replica in ring order
        // (or nowhere, if none survives).
        let replicas = if use_replicas {
            wh.replicas.as_ref()
        } else {
            None
        };
        let assignment: Vec<Option<NodeId>> = match replicas {
            Some(r) => {
                events.failovers += dead.len() as u64;
                let a: Vec<Option<NodeId>> = (0..r.num_parts())
                    .map(|part| {
                        r.hosts_of(part)
                            .iter()
                            .map(|&h| (h + 1) as NodeId)
                            .find(|h| !dead.contains(h))
                    })
                    .collect();
                for (part, host) in a.iter().enumerate() {
                    match host {
                        None => events.parts_lost += 1,
                        Some(h) if *h != (r.primary(part) + 1) as NodeId => {
                            events.parts_reassigned += 1;
                        }
                        Some(_) => {}
                    }
                }
                a
            }
            None => Vec::new(),
        };

        // Base state. A checkpointed run whose record already covers the
        // base synchronization adopts the checkpointed state directly —
        // by Theorem 1 it is the whole query state — and skips the
        // already-synchronized segments.
        let mut current: Option<Relation> = match &plan.base_round {
            BaseRound::Coordinator(rel) => Some(rel.clone()),
            _ => None,
        };
        let pending_base = matches!(plan.base_round, BaseRound::Distributed) && resume_synced == 0;
        if let Some(rec) = &resume {
            if rec.synced > 0 {
                current = Some(rec.state.clone());
            }
        }
        let segments = plan.segments();
        let next_seg = (resume_synced.saturating_sub(base_syncs) as usize).min(segments.len());

        Ok(QueryRun {
            wh,
            wal,
            plan: plan.clone(),
            plan_msg,
            epoch,
            plan_installed: true,
            reliable_plan,
            dead,
            assignment,
            use_replicas,
            events,
            metrics,
            current,
            round_no: 0,
            fp,
            base_syncs,
            segments,
            next_seg,
            pending_base,
            wall_start,
            done: false,
        })
    }

    /// The replica map, when the Failover rung is engaged for this run.
    fn replica_ctx(&self) -> Option<&'a ReplicaMap> {
        let wh = self.wh;
        if self.use_replicas {
            wh.replicas.as_ref()
        } else {
            None
        }
    }

    /// The per-site fragment layout for a failover round: the uniform
    /// whole-partition assignment, unless the plan enables skew splitting
    /// and the learned load sketch flags a hot partition — then the
    /// balanced [`plan_splits`] layout, with hot partitions cut into row
    /// ranges across their surviving ring replicas. Exactness is
    /// unconditional: fragments are disjoint row ranges over bit-identical
    /// replicas, so per-group sub-aggregates merge additively exactly as
    /// cross-site fragments always have.
    fn plan_site_frags(&mut self, replicas: &ReplicaMap) -> BTreeMap<NodeId, Vec<PartFrag>> {
        let uniform = site_parts_from(&self.assignment);
        if !self.plan.skew.split {
            return uniform;
        }
        let loads = match self.wh.skew_loads.lock().get(&replicas.table) {
            Some(l) => l.clone(),
            None => return uniform, // no sketch yet: first round learns
        };
        let owners: Vec<Option<usize>> = self
            .assignment
            .iter()
            .map(|a| a.map(|h| h as usize - 1))
            .collect();
        let alive: Vec<bool> = (0..self.wh.num_sites())
            .map(|s| !self.dead.contains(&((s + 1) as NodeId)))
            .collect();
        match plan_splits(
            &loads,
            &owners,
            replicas,
            &alive,
            self.plan.skew.split_threshold,
            self.plan.skew.max_split,
        ) {
            Some((work, split)) => {
                self.metrics.parts_split += split.len() as u64;
                work.into_iter()
                    .map(|(s, fs)| ((s + 1) as NodeId, fs))
                    .collect()
            }
            None => uniform,
        }
    }

    /// Fold the sketches piggybacked on a round's replies into the
    /// warehouse's persistent per-table load cache (so the *next* round —
    /// or the next query — can split hot partitions) and into this run's
    /// skew metrics.
    fn absorb_sketches(&mut self, table: &str, sketches: &[PartSketch]) {
        if sketches.is_empty() {
            return;
        }
        let mut cache = self.wh.skew_loads.lock();
        let loads = cache.entry(table.to_string()).or_default();
        for sk in sketches {
            if loads.len() <= sk.part as usize {
                loads.resize(sk.part as usize + 1, 0);
            }
            loads[sk.part as usize] = sk.rows;
            let share = sk.top_share();
            if share > self.metrics.skew_top_share {
                self.metrics.skew_top_share = share;
            }
        }
        let ratio = load_imbalance(loads);
        if ratio > self.metrics.skew_ratio {
            self.metrics.skew_ratio = ratio;
        }
    }

    /// Another query's rounds ran on the site engines since this run's
    /// last step: this run's plan must be re-installed before its next
    /// round. Called by the scheduler on every engine handover.
    pub fn mark_plan_stale(&mut self) {
        self.plan_installed = false;
    }

    /// Adjust the coordinator's synchronization worker count for rounds
    /// that have not started yet. Safe at any step boundary: the sync
    /// result is bit-for-bit invariant to the worker count (arrival-index
    /// ordering), only the engine built at the *next* segment changes,
    /// and the shipped plan is untouched — sites never read this knob.
    /// The serving scheduler uses it to shrink per-query worker pools
    /// when many queries interleave on one executor.
    pub fn set_coord_parallelism(&mut self, workers: usize) {
        self.plan.coord_parallelism = workers.max(1);
    }

    /// Whether the run has finished (its result is ready).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Metrics accumulated so far (complete once [`QueryRun::is_done`]).
    pub fn metrics(&self) -> &ExecMetrics {
        &self.metrics
    }

    /// Re-install this run's plan on every live site. Send failures are
    /// deliberately ignored here: an unreachable site is detected by the
    /// next `collect_round`, which routes it through the degraded-mode
    /// ladder (or failover) exactly as a mid-round loss would be.
    fn ensure_plan(&mut self) {
        if self.plan_installed {
            return;
        }
        for site in 1..=self.wh.num_sites() as NodeId {
            if self.dead.contains(&site) {
                continue;
            }
            let _ = self.wh.send_framed(
                site,
                &self.plan_msg,
                self.epoch,
                self.round_no,
                self.reliable_plan,
            );
        }
        self.plan_installed = true;
    }

    /// Advance the run by exactly one synchronization round (the base
    /// round counts as one; the final call folds the bookkeeping and
    /// flips the run to done). Returns `true` once the run is finished
    /// and [`QueryRun::into_result`] may be called.
    pub fn step(&mut self) -> Result<bool> {
        if self.done {
            return Ok(true);
        }
        if self.pending_base {
            self.ensure_plan();
            self.pending_base = false;
            self.step_base()?;
        } else if self.next_seg < self.segments.len() {
            self.ensure_plan();
            let idx = self.next_seg;
            self.next_seg += 1;
            self.step_segment(idx)?;
        } else {
            self.finish_metrics();
            self.done = true;
        }
        Ok(self.done)
    }

    /// The distributed base round: every site computes its local base
    /// fragment, the coordinator unions and deduplicates.
    fn step_base(&mut self) -> Result<()> {
        let wh = self.wh;
        let replicas = self.replica_ctx();
        let skew = self.plan.skew;
        self.round_no += 1;
        let round_no = self.round_no;
        let before = wh.net.stats();
        let mut site_parts: BTreeMap<NodeId, Vec<PartFrag>> = BTreeMap::new();
        let requests: Vec<(NodeId, Message)> = match replicas {
            Some(r) => {
                site_parts = self.plan_site_frags(r);
                site_parts
                    .iter()
                    .map(|(s, ps)| {
                        (
                            *s,
                            Message::ComputeBase {
                                parts: Some(ps.clone()),
                                task: 0,
                            },
                        )
                    })
                    .collect()
            }
            None => (1..=wh.num_sites() as NodeId)
                .filter(|s| !self.dead.contains(s))
                .map(|s| {
                    (
                        s,
                        Message::ComputeBase {
                            parts: None,
                            task: 0,
                        },
                    )
                })
                .collect(),
        };
        let mk_base = |ps: &[PartFrag], task: u32| -> Result<Message> {
            Ok(Message::ComputeBase {
                parts: Some(ps.to_vec()),
                task,
            })
        };
        let mut fo_round = replicas.map(|r| FailoverRound {
            replicas: r,
            assignment: &mut self.assignment,
            site_parts,
            mk_request: &mk_base,
            epochs: &wh.epoch,
            events: &mut self.events,
            offload_factor: skew.offload.then_some(skew.offload_factor),
            next_task: 1,
            offers: Vec::new(),
        });
        let mut site_times = Vec::with_capacity(requests.len());
        let mut rows_up = 0u64;
        let mut frags: Vec<(NodeId, u32, Relation)> = Vec::new();
        let mut counters = SiteCounters::default();
        let mut decode_s = 0.0;
        self.epoch = wh.link.collect_round(
            self.epoch,
            round_no,
            &self.plan.retry,
            Some(&self.plan_msg),
            requests,
            &mut self.dead,
            &mut self.metrics.site_attempts,
            &mut decode_s,
            &mut self.metrics.checksum_failures,
            fo_round.as_mut(),
            &mut |src, msg| {
                let Message::BaseFragment {
                    rel,
                    compute_s,
                    task,
                    counters: c,
                } = msg
                else {
                    return Err(SkallaError::exec("expected BaseFragment"));
                };
                site_times.push(compute_s);
                rows_up += rel.len() as u64;
                counters += c;
                frags.push((src, task, rel));
                Ok(())
            },
        )?;
        drop(fo_round);
        if let Some(r) = replicas {
            let table = r.table.clone();
            self.absorb_sketches(&table, &counters.sketch);
        }
        let t = Instant::now();
        let b0 = union_distinct(frags)?;
        let coord_s = t.elapsed().as_secs_f64();
        let groups = b0.len();
        let mut rm = wh.round_metrics_from(
            "base",
            &before,
            &site_times,
            coord_s + decode_s,
            groups,
            0,
            rows_up,
        );
        rm.add_site_counters(&counters);
        rm.sync_decode_s = decode_s;
        self.metrics.rounds.push(rm);
        self.current = Some(b0);
        self.write_checkpoint(1)
    }

    /// One evaluation segment: ship (filtered) bases, collect
    /// sub-aggregate fragments, synchronize, checkpoint.
    fn step_segment(&mut self, seg_idx: usize) -> Result<()> {
        let wh = self.wh;
        let replicas = if self.use_replicas {
            wh.replicas.as_ref()
        } else {
            None
        };
        // The fragment layout is planned up front (it needs `&mut self`
        // for the split accounting) — uniform whole partitions, or the
        // skew-balanced split when the load sketch flags a hot one.
        let site_parts: BTreeMap<NodeId, Vec<PartFrag>> = match replicas {
            Some(r) => self.plan_site_frags(r),
            None => BTreeMap::new(),
        };
        let skew = self.plan.skew;
        let skew_table = replicas.map(|r| r.table.clone());
        let plan = &self.plan;
        let expr = &plan.expr;
        let default_schema = wh.table_schema(&expr.detail_name)?;
        let current = self.current.as_ref();
        let seg = self.segments[seg_idx].clone();
        let (start, end, label) = match seg {
            Segment::Standard { op } => (op, op, format!("round {}", op + 1)),
            Segment::LocalRun { start, end } => {
                (start, end, format!("local-run {}-{}", start + 1, end + 1))
            }
        };
        let local_base = start == 0 && matches!(plan.base_round, BaseRound::LocalOnly);
        let is_local_run = matches!(seg, Segment::LocalRun { .. });

        // Flattened aggregates + output fields + declared state types
        // for the segment.
        let mut specs: Vec<AggSpec> = Vec::new();
        let mut output_fields: Vec<Field> = Vec::new();
        let mut state_types: Vec<DataType> = Vec::new();
        for k in start..=end {
            let schema_k = wh.table_schema(expr.detail_for_op(k))?;
            for a in expr.ops[k].all_aggs() {
                state_types.extend(a.state_fields(&schema_k)?.into_iter().map(|f| f.dtype));
            }
            specs.extend(expr.ops[k].all_aggs().cloned());
            output_fields.extend(expr.ops[k].output_fields(&schema_k)?);
        }

        let before = wh.net.stats();
        let t_coord = Instant::now();

        let (base_schema, seed) = if local_base {
            (Arc::new(expr.base_schema(&default_schema)?), None)
        } else {
            let base = current.ok_or_else(|| SkallaError::exec("segment has no base relation"))?;
            (base.schema().clone(), Some(base))
        };
        let mut x = Syncer::new(
            plan,
            SyncSpec {
                base_schema,
                key_cols: expr.key.clone(),
                specs,
                state_types,
                output: SyncOutput::Finalized(output_fields),
                allow_new: local_base,
            },
            seed,
        )?;

        // Ship requests. For a multi-operator local run, a group must
        // reach site i if it could contribute to ANY operator in the
        // run, so per-site filters are the OR across the run's rounds —
        // and filtering is only possible when every round has filters.
        let filters: Option<Vec<Expr>> = if start == end {
            plan.rounds[start].coord_filters.clone()
        } else {
            let per_round: Option<Vec<&Vec<Expr>>> = plan.rounds[start..=end]
                .iter()
                .map(|r| r.coord_filters.as_ref())
                .collect();
            per_round.map(|rounds_filters| {
                (0..wh.num_sites())
                    .map(|i| {
                        skalla_expr::simplify(&Expr::disjunction(
                            rounds_filters.iter().map(|fs| fs[i].clone()),
                        ))
                    })
                    .collect()
            })
        };
        let filters = filters.as_ref();
        let mk_seg = |fs_req: &[PartFrag], task: u32| -> Result<Message> {
            let base_for_site: Option<Relation> = if local_base {
                None
            } else {
                let base =
                    current.ok_or_else(|| SkallaError::exec("segment has no base relation"))?;
                let frag = match filters {
                    Some(fs) => {
                        // Partition p's group filter is its primary
                        // site's (1:1 placement); a multi-partition
                        // request ships the union of its parts' groups.
                        // Fragments of the same partition share its
                        // filter, so part ids are deduplicated first.
                        let mut parts: Vec<u32> = fs_req.iter().map(|f| f.part).collect();
                        parts.sort_unstable();
                        parts.dedup();
                        let f = skalla_expr::simplify(&Expr::disjunction(
                            parts.iter().map(|&p| fs[p as usize].clone()),
                        ));
                        filter_base(base, &f)?
                    }
                    None => base.clone(),
                };
                Some(frag)
            };
            Ok(if is_local_run || local_base {
                Message::LocalRun {
                    start: start as u32,
                    end: end as u32,
                    base: base_for_site,
                    parts: Some(fs_req.to_vec()),
                    task,
                }
            } else {
                Message::Round {
                    op_idx: start as u32,
                    base: base_for_site.expect("standard round ships a base"),
                    parts: Some(fs_req.to_vec()),
                    task,
                }
            })
        };
        let mut requests: Vec<(NodeId, Message)> = Vec::with_capacity(wh.num_sites());
        let mut rows_down = 0u64;
        if replicas.is_some() {
            // Failover rounds address fragments explicitly; the
            // empty-fragment skip below is disabled so every partition
            // is requested somewhere and coverage stays exact.
            for (site, ps) in &site_parts {
                let msg = mk_seg(ps, 0)?;
                rows_down += match &msg {
                    Message::LocalRun { base, .. } => base.as_ref().map_or(0, |b| b.len() as u64),
                    Message::Round { base, .. } => base.len() as u64,
                    _ => 0,
                };
                requests.push((*site, msg));
            }
        } else {
            for site in 1..=wh.num_sites() as NodeId {
                if self.dead.contains(&site) {
                    continue;
                }
                let base_for_site: Option<Relation> = if local_base {
                    None
                } else {
                    let base = current.expect("checked above");
                    let frag = match filters {
                        Some(fs) => filter_base(base, &fs[site as usize - 1])?,
                        None => base.clone(),
                    };
                    if frag.is_empty() && filters.is_some() {
                        // This site cannot contribute to any group.
                        continue;
                    }
                    Some(frag)
                };
                rows_down += base_for_site.as_ref().map_or(0, |b| b.len() as u64);
                let msg = if is_local_run || local_base {
                    Message::LocalRun {
                        start: start as u32,
                        end: end as u32,
                        base: base_for_site,
                        parts: None,
                        task: 0,
                    }
                } else {
                    Message::Round {
                        op_idx: start as u32,
                        base: base_for_site.expect("standard round ships a base"),
                        parts: None,
                        task: 0,
                    }
                };
                requests.push((site, msg));
            }
        }
        let coord_prep_s = t_coord.elapsed().as_secs_f64();
        let mut fo_round = replicas.map(|r| FailoverRound {
            replicas: r,
            assignment: &mut self.assignment,
            site_parts,
            mk_request: &mk_seg,
            epochs: &wh.epoch,
            events: &mut self.events,
            offload_factor: skew.offload.then_some(skew.offload_factor),
            next_task: 1,
            offers: Vec::new(),
        });

        // Collect and synchronize. Fragments merge as they arrive —
        // with row blocking, chunks from fast sites are folded into X
        // while slower sites are still computing (paper §3.2). The
        // collector deduplicates chunks by sequence number, so the
        // non-idempotent merge is safe under retries and duplication.
        self.round_no += 1;
        let round_no = self.round_no;
        let mut coord_sync_s = 0.0;
        let mut decode_s = 0.0;
        let mut site_times = Vec::with_capacity(requests.len());
        let mut rows_up = 0u64;
        let mut counters = SiteCounters::default();
        self.epoch = wh.link.collect_round(
            self.epoch,
            round_no,
            &plan.retry,
            Some(&self.plan_msg),
            requests,
            &mut self.dead,
            &mut self.metrics.site_attempts,
            &mut decode_s,
            &mut self.metrics.checksum_failures,
            fo_round.as_mut(),
            &mut |src, msg| {
                let (h, compute_s, last, c) = match msg {
                    Message::Fragment {
                        rel,
                        compute_s,
                        last,
                        counters,
                        ..
                    } => (rel, compute_s, last, counters),
                    other => {
                        return Err(SkallaError::exec(format!(
                            "site {src}: expected round result, got {other:?}"
                        )))
                    }
                };
                counters += c;
                let t = Instant::now();
                rows_up += h.len() as u64;
                // Serial: the closure time IS the merge time. Sharded: it
                // is the router (validate + partition); merging happens
                // on the worker pool, overlapped with receive.
                x.merge(h)?;
                if last {
                    site_times.push(compute_s);
                }
                coord_sync_s += t.elapsed().as_secs_f64();
                Ok(())
            },
        )?;
        drop(fo_round);
        if let Some(table) = &skew_table {
            self.absorb_sketches(table, &counters.sketch);
        }
        let t_final = Instant::now();
        let (finalized, stats) = x.finish()?;
        let (merge_s, finalize_s, workers, shards, utilization, imbalance, sync_tail_s) =
            match stats {
                None => {
                    let fin_s = t_final.elapsed().as_secs_f64();
                    (coord_sync_s, fin_s, 1, 1, 0.0, 0.0, coord_sync_s + fin_s)
                }
                Some(stats) => (
                    stats.merge_busy_s,
                    stats.finalize_s,
                    stats.workers,
                    stats.shards,
                    stats.utilization(),
                    stats.imbalance(),
                    // The serialized (non-overlapped) coordinator cost:
                    // routing plus the drain after the last chunk.
                    coord_sync_s + stats.drain_s,
                ),
            };
        let groups = finalized.len();
        let mut rm = wh.round_metrics_from(
            label,
            &before,
            &site_times,
            coord_prep_s + decode_s + sync_tail_s,
            groups,
            rows_down,
            rows_up,
        );
        rm.add_site_counters(&counters);
        rm.sync_decode_s = decode_s;
        rm.sync_merge_s = merge_s;
        rm.sync_finalize_s = finalize_s;
        rm.sync_workers = workers;
        rm.sync_shards = shards;
        rm.sync_utilization = utilization;
        rm.sync_imbalance = imbalance;
        self.metrics.rounds.push(rm);
        self.current = Some(finalized);
        self.write_checkpoint(self.base_syncs + seg_idx as u32 + 1)
    }

    /// Append the current synchronized state to the WAL (when one is
    /// attached), under this run's epoch.
    fn write_checkpoint(&mut self, synced: u32) -> Result<()> {
        let (Some(w), Some(fp)) = (self.wal, self.fp) else {
            return Ok(());
        };
        let state = self
            .current
            .as_ref()
            .expect("checkpoint follows a synchronization");
        let t = Instant::now();
        w.append(&CheckpointRecord {
            fingerprint: fp,
            epoch: self.epoch,
            synced,
            state: state.clone(),
        })?;
        self.metrics.checkpoints += 1;
        self.metrics.checkpoint_s += t.elapsed().as_secs_f64();
        Ok(())
    }

    /// Fold the failover ledger and coverage into the metrics.
    fn finish_metrics(&mut self) {
        self.metrics.wall_s = self.wall_start.elapsed().as_secs_f64();
        self.metrics.failovers = self.events.failovers;
        self.metrics.parts_reassigned = self.events.parts_reassigned;
        self.metrics.parts_lost = self.events.parts_lost;
        self.metrics.failover_s = self.events.failover_s;
        self.metrics.offloads = self.events.offloads;
        self.metrics.offload_wins = self.events.offload_wins;
        self.metrics.coverage = Some(match self.replica_ctx() {
            // Under failover, coverage counts partitions: a dead site's
            // partitions stay in the answer as long as a replica survives.
            Some(r) => {
                let lost = self.assignment.iter().filter(|a| a.is_none()).count();
                Coverage {
                    responded: r.num_parts() - lost,
                    total: r.num_parts(),
                }
            }
            None => Coverage {
                responded: self.wh.num_sites() - self.dead.len(),
                total: self.wh.num_sites(),
            },
        });
    }

    /// Consume the finished run, yielding the result relation and the
    /// cost breakdown. Errors if the plan produced no result (or the run
    /// was not stepped to completion).
    pub fn into_result(self) -> Result<(Relation, ExecMetrics)> {
        if !self.done {
            return Err(SkallaError::exec("query run was not stepped to completion"));
        }
        let result = self
            .current
            .ok_or_else(|| SkallaError::exec("plan produced no result"))?;
        Ok((result, self.metrics))
    }
}

impl Drop for DistributedWarehouse {
    fn drop(&mut self) {
        // Best-effort teardown if the user forgot to call shutdown().
        self.link
            .shutdown_children(self.epoch.load(Ordering::Relaxed), 0);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Per-site reply progress within one collection round.
#[derive(Default)]
struct SiteProgress {
    /// The site's `last` chunk was accepted (or the site was written off).
    done: bool,
    /// Next chunk sequence number the coordinator will accept.
    expected_seq: u32,
    /// How many `Error` replies this site has been retried for.
    error_retries: u32,
    /// Work-assignment id the coordinator expects this site's replies to
    /// echo. The original wave is task 0; straggler-offload duplicates
    /// carry fresh ids, so a reply cached or in flight for a site's
    /// *earlier* assignment in the same round can never be merged against
    /// a newer one.
    task: u32,
    /// When the site's final chunk was accepted; feeds the offload
    /// policy's round-median completion time.
    done_at: Option<Instant>,
}

/// Mutable state of one collection round, shared between the retry loop
/// and the failover re-planner.
struct RoundState {
    /// Epoch this round's requests are framed with. A failover re-plan
    /// bumps it, instantly invalidating in-flight and cached replies
    /// computed under the old partition assignment.
    epoch: u64,
    round: u32,
    /// Current request per participating site (failover rewrites entries).
    reqs: BTreeMap<NodeId, Message>,
    prog: BTreeMap<NodeId, SiteProgress>,
    /// Chunks held back per site until its final chunk arrives (failover
    /// rounds only): a site lost mid-reply leaves nothing merged.
    staged: BTreeMap<NodeId, Vec<Message>>,
}

/// Failover and skew accounting across a query's rounds, folded into
/// [`ExecMetrics`] at the end of execution.
#[derive(Default)]
struct FailoverEvents {
    failovers: u64,
    parts_reassigned: u64,
    parts_lost: u64,
    failover_s: f64,
    offloads: u64,
    offload_wins: u64,
}

/// An in-flight straggler-offload offer: `helper` was asked to duplicate
/// `laggard`'s remaining work under a fresh task id; the first of the two
/// to deliver its final chunk wins and the other side's reply is
/// discarded whole.
struct OffloadOffer {
    laggard: NodeId,
    helper: NodeId,
}

/// Per-round failover context handed to `collect_round` when the Failover
/// rung is active.
pub(crate) struct FailoverRound<'a> {
    replicas: &'a ReplicaMap,
    /// Live partition→site assignment; `None` marks a partition with no
    /// surviving replica. Persists across rounds.
    assignment: &'a mut Vec<Option<NodeId>>,
    /// Partition fragments each site still owes *this* round; entries
    /// drain as sites deliver their final chunk, so a site that dies
    /// later never triggers re-requests for fragments already merged.
    site_parts: BTreeMap<NodeId, Vec<PartFrag>>,
    /// Rebuild a round request covering exactly the given fragments under
    /// the given task id (used when a failover re-plans the wave and when
    /// a straggler's residual work is offloaded).
    mk_request: &'a dyn Fn(&[PartFrag], u32) -> Result<Message>,
    /// The warehouse's epoch counter: a re-plan moves the round to a
    /// fresh epoch.
    epochs: &'a AtomicU64,
    events: &'a mut FailoverEvents,
    /// `Some(factor)` arms mid-round straggler offload: once half the
    /// round's sites are done, a site lagging `factor ×` the median
    /// completion time has its residual work duplicated to an idle
    /// replica host.
    offload_factor: Option<f64>,
    /// Next work-assignment id for offload duplicates (the original wave
    /// is task 0).
    next_task: u32,
    /// Offers outstanding this round.
    offers: Vec<OffloadOffer>,
}

/// Group a partition→site assignment by hosting site, as whole-partition
/// fragments.
fn site_parts_from(assignment: &[Option<NodeId>]) -> BTreeMap<NodeId, Vec<PartFrag>> {
    let mut m: BTreeMap<NodeId, Vec<PartFrag>> = BTreeMap::new();
    for (part, host) in assignment.iter().enumerate() {
        if let Some(h) = host {
            m.entry(*h).or_default().push(PartFrag::whole(part as u32));
        }
    }
    m
}

fn pending_sites(prog: &BTreeMap<NodeId, SiteProgress>) -> Vec<NodeId> {
    prog.iter()
        .filter(|(_, p)| !p.done)
        .map(|(s, _)| *s)
        .collect()
}

/// The `(seq, last)` pair of a round reply; `None` for non-reply messages.
/// Single-message replies are their own final chunk.
fn reply_seq_last(msg: &Message) -> Option<(u32, bool)> {
    match msg {
        Message::BaseFragment { .. }
        | Message::ShipAllData { .. }
        | Message::SegmentsLoaded { .. }
        | Message::ScrubReport { .. } => Some((0, true)),
        Message::Fragment { seq, last, .. } => Some((*seq, *last)),
        _ => None,
    }
}

/// The work-assignment id a reply echoes (0 for replies that predate the
/// task protocol, e.g. `ShipAllData`).
fn reply_task(msg: &Message) -> u32 {
    match msg {
        Message::BaseFragment { task, .. } | Message::Fragment { task, .. } => *task,
        _ => 0,
    }
}

/// The base round's synchronization: the union of the children's
/// `B₀ᵢ` fragments with duplicates removed. Fragments are unioned in
/// (sender, task) order, not arrival order: `distinct` keeps first
/// occurrences, so the base row order (and with it the output row order)
/// must not depend on which reply the network delivered first.
pub(crate) fn union_distinct(mut frags: Vec<(NodeId, u32, Relation)>) -> Result<Relation> {
    frags.sort_by_key(|&(src, task, _)| (src, task));
    let mut frags = frags.into_iter().map(|(_, _, rel)| rel);
    let mut combined = frags
        .next()
        .ok_or_else(|| SkallaError::exec("no base fragments received"))?;
    for rel in frags {
        combined.union_all(rel)?;
    }
    Ok(combined.distinct())
}

/// Apply a coordinator-side group-reduction filter to the base relation.
fn filter_base(base: &Relation, filter: &Expr) -> Result<Relation> {
    if *filter == Expr::lit(true) {
        return Ok(base.clone());
    }
    if *filter == Expr::lit(false) {
        return Ok(Relation::empty(base.schema().clone()));
    }
    let mut rows = Vec::new();
    for row in base.rows() {
        match eval_base(filter, row)? {
            Value::Bool(true) => rows.push(row.clone()),
            Value::Bool(false) | Value::Null => {}
            other => {
                return Err(SkallaError::type_error(format!(
                    "group filter evaluated to {other}"
                )))
            }
        }
    }
    Ok(Relation::from_rows_unchecked(base.schema().clone(), rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_expr::Expr;
    use skalla_gmdj::{AggSpec, BaseSpec, GmdjBlock, GmdjOp};
    use skalla_storage::{partition_by_hash, Table};
    use skalla_types::DataType;

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

    fn warehouse(n_sites: usize, rows: usize) -> (DistributedWarehouse, Catalog) {
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
            DistributedWarehouse::launch(catalogs, CostModel::free()).unwrap(),
            full,
        )
    }

    /// Example 1-shaped query (correlated: θ₂ references MD₁ outputs).
    fn example1() -> GmdjExpr {
        let md1 = GmdjOp::new(vec![GmdjBlock::new(
            vec![
                AggSpec::count_star("cnt1"),
                AggSpec::sum(Expr::detail(2), "sum1").unwrap(),
            ],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::base(1).eq(Expr::detail(1))),
        )]);
        let md2 = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("cnt2")],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::base(1).eq(Expr::detail(1)))
                .and(Expr::detail(2).ge(Expr::base(3).div(Expr::base(2)))),
        )]);
        GmdjExpr::new(
            BaseSpec::DistinctProject { cols: vec![0, 1] },
            "flow",
            vec![md1, md2],
            vec![0, 1],
        )
        .unwrap()
    }

    #[test]
    fn distributed_matches_centralized() {
        let (wh, full) = warehouse(4, 200);
        let expr = example1();
        let plan = DistPlan::unoptimized(expr.clone());
        let (dist, metrics) = wh.execute(&plan).unwrap();
        let cent = eval_expr_centralized(&expr, &full).unwrap();
        assert_eq!(dist.sorted(), cent.sorted());
        // plan + base + 2 rounds
        assert_eq!(metrics.num_rounds(), 4);
        assert!(metrics.total_bytes() > 0);
        wh.shutdown().unwrap();
    }

    #[test]
    fn single_site_works() {
        let (wh, full) = warehouse(1, 50);
        let expr = example1();
        let (dist, _) = wh.execute(&DistPlan::unoptimized(expr.clone())).unwrap();
        let cent = eval_expr_centralized(&expr, &full).unwrap();
        assert_eq!(dist.sorted(), cent.sorted());
        wh.shutdown().unwrap();
    }

    #[test]
    fn site_group_reduction_preserves_result_and_cuts_traffic() {
        let (wh, full) = warehouse(4, 300);
        let expr = example1();
        let base_plan = DistPlan::unoptimized(expr.clone());
        let (r1, m1) = wh.execute(&base_plan).unwrap();

        let mut reduced = base_plan.clone();
        for r in &mut reduced.rounds {
            r.site_group_reduction = true;
        }
        let (r2, m2) = wh.execute(&reduced).unwrap();
        assert_eq!(r1.sorted(), r2.sorted());
        assert_eq!(
            r1.sorted(),
            eval_expr_centralized(&expr, &full).unwrap().sorted()
        );
        // Groups are partitioned on sas (hash), so each site matches only a
        // fraction: upstream traffic must shrink.
        assert!(m2.total_bytes_up() < m1.total_bytes_up());
        wh.shutdown().unwrap();
    }

    #[test]
    fn ship_all_baseline_matches_and_ships_more() {
        let (wh, _full) = warehouse(4, 5000);
        let expr = example1();
        let (dist, dm) = wh.execute(&DistPlan::unoptimized(expr.clone())).unwrap();
        let (ship, sm) = wh.execute_ship_all(&expr).unwrap();
        assert_eq!(dist.sorted(), ship.sorted());
        // 5000 detail rows dwarf the 35-group result: Theorem 2 in action.
        assert!(sm.total_bytes_up() > dm.total_bytes_up());
        wh.shutdown().unwrap();
    }

    #[test]
    fn coordinator_base_relation_plan() {
        let (wh, full) = warehouse(3, 120);
        let base = Relation::new(
            Schema::from_pairs([("sas", DataType::Int64)])
                .unwrap()
                .into_arc(),
            (0..7).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::avg(Expr::detail(2), "avg_nb").unwrap()],
            Expr::base(0).eq(Expr::detail(0)),
        )]);
        let expr = GmdjExpr::new(BaseSpec::Relation(base), "flow", vec![op], vec![0]).unwrap();
        let (dist, _) = wh.execute(&DistPlan::unoptimized(expr.clone())).unwrap();
        let cent = eval_expr_centralized(&expr, &full).unwrap();
        assert_eq!(dist.sorted(), cent.sorted());
        wh.shutdown().unwrap();
    }

    #[test]
    fn filter_base_applies_predicates() {
        let base = Relation::new(
            Schema::from_pairs([("k", DataType::Int64)])
                .unwrap()
                .into_arc(),
            vec![vec![Value::Int(1)], vec![Value::Int(5)]],
        )
        .unwrap();
        assert_eq!(filter_base(&base, &Expr::lit(true)).unwrap().len(), 2);
        assert_eq!(filter_base(&base, &Expr::lit(false)).unwrap().len(), 0);
        let f = Expr::base(0).gt(Expr::lit(2));
        let out = filter_base(&base, &f).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0)[0], Value::Int(5));
        assert!(filter_base(&base, &Expr::base(0)).is_err());
    }

    #[test]
    fn launch_rejects_empty_and_mismatched() {
        assert!(DistributedWarehouse::launch(vec![], CostModel::free()).is_err());
        let mut c1 = Catalog::new();
        c1.register("t", Table::empty(flow_schema()));
        let mut c2 = Catalog::new();
        c2.register(
            "t",
            Table::empty(
                Schema::from_pairs([("x", DataType::Int64)])
                    .unwrap()
                    .into_arc(),
            ),
        );
        assert!(DistributedWarehouse::launch(vec![c1, c2], CostModel::free()).is_err());
    }

    #[test]
    fn metrics_breakdown_is_consistent() {
        let (wh, _) = warehouse(2, 100);
        let (_, m) = wh.execute(&DistPlan::unoptimized(example1())).unwrap();
        assert!(m.modeled_time_s() >= 0.0);
        assert!(m.wall_s > 0.0);
        assert_eq!(m.total_bytes(), m.total_bytes_down() + m.total_bytes_up());
        // Groups recorded on the final round equal the result size.
        assert!(m.rounds.last().unwrap().groups > 0);
        // MD₁ is a pure equi-join: both sites run it through compiled
        // kernels. MD₂ carries a correlated residual and stays interpreted.
        assert!(m.total_blocks_compiled() > 0);
        assert!(m.total_blocks_interpreted() > 0);
        assert!(m.summary().contains("compiled"));
        wh.shutdown().unwrap();
    }
}
