//! Multi-tier coordinator topology (paper §6 future work).
//!
//! The paper's conclusions propose "a multi-tiered coordinator architecture
//! or spanning-tree networks" as future research. This module implements a
//! two-level tree: the root coordinator talks to `k` **mid-tier
//! coordinators**, each of which fronts a cluster of sites. Mid-tiers relay
//! requests downward and — crucially — *pre-synchronize* their cluster's
//! fragments before forwarding one merged fragment upward. Sub-aggregate
//! state merges associatively (Theorem 1), so tiered synchronization is
//! exact, and the root link carries one fragment per cluster instead of one
//! per site.
//!
//! Limitations (documented, not silent): coordinator-side group-reduction
//! filters are per-*site* while the root only addresses mid-tiers, so
//! [`TieredWarehouse::execute`] ignores `coord_filters` (dropping a
//! reduction is always sound).

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use skalla_gmdj::AggSpec;
use skalla_net::{CostModel, Endpoint, FaultPlan, NodeId, SimNetwork};
use skalla_storage::Catalog;
use skalla_types::{DataType, Relation, Result, Schema, SkallaError};

use crate::baseresult::BaseResult;
use crate::message::{Message, SiteCounters};
use crate::metrics::ExecMetrics;
use crate::plan::{DistPlan, RetryPolicy};
use crate::site::run_site_with_parent;
use crate::sync::{ShardedSync, SyncOptions, SyncOutput, SyncSpec};
use crate::warehouse::DistributedWarehouse;

/// The structure a mid-tier pre-synchronizes its cluster's fragments into:
/// serial, or the sharded pipeline when the plan carries
/// `coord_parallelism > 1` (the same knob the root uses — every tier of the
/// tree runs the same synchronization engine).
enum ClusterSync {
    Serial(BaseResult),
    Sharded(ShardedSync),
}

/// A two-level warehouse: root coordinator → mid-tier coordinators → sites.
pub struct TieredWarehouse {
    root: DistributedWarehouse,
    num_mid: usize,
    num_leaf_sites: usize,
}

impl TieredWarehouse {
    /// Launch `catalogs.len()` sites clustered under mid-tier coordinators
    /// of at most `fanout` sites each.
    ///
    /// Node ids: root = 0, mid-tiers = 1..=k, sites = k+1..=k+n.
    pub fn launch(
        catalogs: Vec<Catalog>,
        fanout: usize,
        cost: CostModel,
    ) -> Result<TieredWarehouse> {
        Self::launch_with_faults(catalogs, fanout, cost, FaultPlan::none())
    }

    /// [`TieredWarehouse::launch`] with deterministic fault injection
    /// threaded into every link of the tree — root↔mid-tier and
    /// mid-tier↔site alike — so crashes inside a cluster can be exercised
    /// reproducibly. A crashed leaf surfaces at its mid-tier as a recv
    /// deadline (derived from the plan's retry policy) and travels upward
    /// as an `Error` reply, which the root handles through the same
    /// retry/degradation ladder as a flat warehouse.
    pub fn launch_with_faults(
        catalogs: Vec<Catalog>,
        fanout: usize,
        cost: CostModel,
        faults: FaultPlan,
    ) -> Result<TieredWarehouse> {
        let n = catalogs.len();
        if n == 0 {
            return Err(SkallaError::plan("warehouse needs at least one site"));
        }
        if fanout == 0 {
            return Err(SkallaError::plan("fanout must be positive"));
        }
        let k = n.div_ceil(fanout);

        let mut schemas: HashMap<String, Arc<Schema>> = HashMap::new();
        for c in &catalogs {
            for name in c.table_names() {
                let t = c.get(name)?;
                schemas
                    .entry(name.to_string())
                    .or_insert_with(|| t.schema().clone());
            }
        }

        let (net, mut endpoints) = SimNetwork::full_mesh_with_faults(1 + k + n, cost, faults);
        let mut site_endpoints: Vec<Endpoint> = endpoints.drain(1 + k..).collect();
        let mut mid_endpoints: Vec<Endpoint> = endpoints.drain(1..).collect();
        let coord = endpoints.pop().expect("root endpoint");

        let mut handles = Vec::with_capacity(k + n);

        // Sites report to their mid-tier parent.
        let mut children_of: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        for (i, catalog) in catalogs.into_iter().enumerate() {
            let site_id = (1 + k + i) as NodeId;
            let mid = i / fanout;
            children_of[mid].push(site_id);
            let parent = (1 + mid) as NodeId;
            let ep = site_endpoints.remove(0);
            debug_assert_eq!(ep.id(), site_id);
            handles.push(std::thread::spawn(move || {
                run_site_with_parent(ep, catalog, parent)
            }));
        }

        // Mid-tiers relay between the root and their cluster.
        for (mid, children) in children_of.into_iter().enumerate() {
            let ep = mid_endpoints.remove(0);
            debug_assert_eq!(ep.id(), (1 + mid) as NodeId);
            handles.push(std::thread::spawn(move || run_midtier(ep, children)));
        }

        let root = DistributedWarehouse {
            net,
            coord,
            handles,
            num_sites: k, // the root's children are the mid-tiers
            schemas,
            epoch: std::sync::atomic::AtomicU64::new(0),
            replicas: None,
            skew_loads: parking_lot::Mutex::new(HashMap::new()),
        };
        Ok(TieredWarehouse {
            root,
            num_mid: k,
            num_leaf_sites: n,
        })
    }

    /// Number of mid-tier coordinators.
    pub fn num_mid_tiers(&self) -> usize {
        self.num_mid
    }

    /// Number of leaf sites.
    pub fn num_leaf_sites(&self) -> usize {
        self.num_leaf_sites
    }

    /// The simulated network.
    pub fn network(&self) -> &SimNetwork {
        self.root.network()
    }

    /// Execute a plan through the tree. Coordinator-side filters are
    /// dropped (see module docs); every other optimization applies.
    pub fn execute(&self, plan: &DistPlan) -> Result<(Relation, ExecMetrics)> {
        let mut plan = plan.clone();
        for r in &mut plan.rounds {
            r.coord_filters = None;
        }
        self.root.execute(&plan)
    }

    /// The ship-all-detail baseline through the tree: mid-tiers union their
    /// cluster's raw partitions before forwarding.
    pub fn execute_ship_all(
        &self,
        expr: &skalla_gmdj::GmdjExpr,
    ) -> Result<(Relation, ExecMetrics)> {
        self.root.execute_ship_all(expr)
    }

    /// Shut down mid-tiers (which shut down their sites) and join all
    /// threads.
    pub fn shutdown(self) -> Result<()> {
        self.root.shutdown()
    }
}

/// The mid-tier relay loop.
fn run_midtier(endpoint: Endpoint, children: Vec<NodeId>) {
    let mut state = MidState {
        plan: None,
        epoch: 0,
        round: 0,
        shutdown_pending: Cell::new(false),
    };
    loop {
        let env = match endpoint.recv() {
            Ok(e) => e,
            Err(_) => return,
        };
        // Only root messages drive the relay; child replies are collected
        // synchronously inside each handler. A reply that arrives here is a
        // straggler from a timed-out collection (e.g. a live leaf answering
        // after a crashed sibling exhausted the recv budget) — drop it.
        if env.src != 0 {
            continue;
        }
        let (epoch, round, msg) = match Message::from_wire_framed(&env.payload) {
            Ok(m) => m,
            Err(e) => {
                let _ = endpoint.send(
                    0,
                    Message::Error {
                        msg: e.to_string(),
                        corrupt: false,
                    }
                    .to_wire_framed(0, 0),
                );
                continue;
            }
        };
        let shutdown = matches!(msg, Message::Shutdown);
        state.epoch = epoch;
        state.round = round;
        match state.handle(&endpoint, &children, msg) {
            Ok(responses) => {
                for resp in responses {
                    if endpoint.send(0, resp.to_wire_framed(epoch, round)).is_err() {
                        return;
                    }
                }
            }
            Err(e) => {
                let _ = endpoint.send(
                    0,
                    Message::Error {
                        msg: e.to_string(),
                        corrupt: e.is_corrupt(),
                    }
                    .to_wire_framed(epoch, round),
                );
            }
        }
        if shutdown {
            return;
        }
        if state.shutdown_pending.get() {
            let _ = state.handle(&endpoint, &children, Message::Shutdown);
            return;
        }
    }
}

struct MidState {
    plan: Option<DistPlan>,
    /// Epoch of the request currently being relayed (stamped on downward
    /// forwards, used to filter child replies).
    epoch: u64,
    /// Round number of the request currently being relayed (echoed by the
    /// children and back to the root).
    round: u32,
    /// Set when the root's `Shutdown` arrives while a child collection is
    /// still waiting (the root gave up on the query). The collection
    /// stops and the relay loop passes the shutdown on; dropping it would
    /// leave this mid-tier and its leaves blocked in `recv` and the
    /// root's `shutdown` join hung.
    shutdown_pending: Cell<bool>,
}

impl MidState {
    fn handle(&mut self, ep: &Endpoint, children: &[NodeId], msg: Message) -> Result<Vec<Message>> {
        match &msg {
            Message::Plan(p) => {
                self.broadcast(ep, children, &msg)?;
                self.plan = Some(p.clone());
                Ok(Vec::new())
            }
            Message::Shutdown => {
                for &c in children {
                    let _ = ep.send(c, Message::Shutdown.to_wire_framed(self.epoch, self.round));
                }
                Ok(Vec::new())
            }
            Message::ComputeBase { task, .. } => {
                self.broadcast(ep, children, &msg)?;
                // Unioned in child order, not arrival order, so the
                // cluster's distinct base has one row order on every run.
                let mut frags: Vec<(NodeId, Relation)> = Vec::with_capacity(children.len());
                let mut max_s: f64 = 0.0;
                let mut sketches = Vec::new();
                for _ in children {
                    match self.recv_from(ep)? {
                        (
                            src,
                            Message::BaseFragment {
                                rel,
                                compute_s,
                                sketch,
                                ..
                            },
                        ) => {
                            max_s = max_s.max(compute_s);
                            sketches.extend(sketch);
                            frags.push((src, rel));
                        }
                        (_, other) => {
                            return Err(SkallaError::exec(format!(
                                "mid-tier expected BaseFragment, got {other:?}"
                            )))
                        }
                    }
                }
                frags.sort_by_key(|&(src, _)| src);
                let mut frags = frags.into_iter().map(|(_, rel)| rel);
                let mut rel = frags
                    .next()
                    .ok_or_else(|| SkallaError::exec("mid-tier cluster is empty"))?;
                for r in frags {
                    rel.union_all(r)?;
                }
                let rel = rel.distinct();
                Ok(vec![Message::BaseFragment {
                    rel,
                    compute_s: max_s,
                    task: *task,
                    sketch: sketches,
                }])
            }
            Message::Round { op_idx, task, .. } => {
                self.relay_segment(ep, children, &msg, *op_idx, *op_idx, *task)
            }
            Message::LocalRun {
                start, end, task, ..
            } => self.relay_segment(ep, children, &msg, *start, *end, *task),
            Message::ScrubRequest => {
                // Fan the scrub out and concatenate the cluster's reports:
                // the root sees one flat entry list per mid-tier, exactly
                // as if the leaves were its direct children.
                self.broadcast(ep, children, &msg)?;
                let mut entries = Vec::new();
                for _ in children {
                    match self.recv(ep)? {
                        Message::ScrubReport { entries: e } => entries.extend(e),
                        other => {
                            return Err(SkallaError::exec(format!(
                                "mid-tier expected ScrubReport, got {other:?}"
                            )))
                        }
                    }
                }
                Ok(vec![Message::ScrubReport { entries }])
            }
            Message::ShipAllRequest { .. } => {
                self.broadcast(ep, children, &msg)?;
                let mut combined: Option<Relation> = None;
                let mut total_s = 0.0;
                for _ in children {
                    match self.recv(ep)? {
                        Message::ShipAllData { rel, compute_s } => {
                            total_s += compute_s;
                            match &mut combined {
                                None => combined = Some(rel),
                                Some(acc) => acc.union_all(rel)?,
                            }
                        }
                        other => {
                            return Err(SkallaError::exec(format!(
                                "mid-tier expected ShipAllData, got {other:?}"
                            )))
                        }
                    }
                }
                Ok(vec![Message::ShipAllData {
                    rel: combined.ok_or_else(|| SkallaError::exec("mid-tier cluster is empty"))?,
                    compute_s: total_s,
                }])
            }
            other => Err(SkallaError::exec(format!(
                "mid-tier received unexpected message {other:?}"
            ))),
        }
    }

    /// Forward a request to every child of the cluster, encoded once.
    fn broadcast(&self, ep: &Endpoint, children: &[NodeId], msg: &Message) -> Result<()> {
        let wire = msg.to_wire_framed(self.epoch, self.round);
        for &c in children {
            ep.send(c, wire.clone())?;
        }
        Ok(())
    }

    /// Relay a round (`start == end`) or local-run request over
    /// operators `start..=end` to the cluster, and answer with the
    /// cluster's pre-synchronized fragment.
    fn relay_segment(
        &self,
        ep: &Endpoint,
        children: &[NodeId],
        req: &Message,
        start: u32,
        end: u32,
        task: u32,
    ) -> Result<Vec<Message>> {
        let specs = self.segment_specs(start as usize, end as usize)?;
        self.broadcast(ep, children, req)?;
        let (rel, compute_s, counters) = self.merge_cluster(ep, children.len(), specs)?;
        Ok(vec![Message::Fragment {
            op: end,
            seq: 0,
            rel,
            compute_s,
            last: true,
            task,
            counters,
        }])
    }

    /// Collect one child reply, bounded by the plan's full retry budget
    /// (the sum of every attempt window). A crashed or silent child turns
    /// into an error instead of hanging the mid-tier forever; the error
    /// travels upward as an `Error` reply, where the root's own
    /// retry/degradation ladder takes over.
    fn recv(&self, ep: &Endpoint) -> Result<Message> {
        self.recv_from(ep).map(|(_, msg)| msg)
    }

    /// [`MidState::recv`], also naming the child that sent the reply.
    fn recv_from(&self, ep: &Endpoint) -> Result<(NodeId, Message)> {
        let deadline = Instant::now() + self.recv_budget();
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(SkallaError::exec(
                    "cluster child did not respond within the retry budget",
                ));
            }
            let Some(env) = ep.try_recv_for(remaining)? else {
                continue; // loop re-checks the deadline
            };
            let (epoch, round, msg) = Message::from_wire_framed(&env.payload)?;
            if env.src == 0 && matches!(msg, Message::Shutdown) {
                self.shutdown_pending.set(true);
                return Err(SkallaError::exec("mid-tier shut down mid-collection"));
            }
            if epoch != self.epoch || round != self.round {
                continue; // straggler from an aborted query or earlier round
            }
            if let Message::Error { msg, corrupt } = msg {
                let m = format!("site {}: {msg}", env.src);
                // Keep the corruption marker as the error crosses the
                // tier: the root skips its retry budget for it.
                return Err(if corrupt {
                    SkallaError::corrupt(m)
                } else {
                    SkallaError::exec(m)
                });
            }
            return Ok((env.src, msg));
        }
    }

    /// The total time this mid-tier will wait on any one child reply:
    /// the installed plan's attempt windows summed (so the subtree never
    /// gives up before the root would), or the default policy's budget
    /// when no plan is installed (ship-all).
    fn recv_budget(&self) -> Duration {
        let default_retry = RetryPolicy::default();
        let retry = self.plan.as_ref().map_or(&default_retry, |p| &p.retry);
        (0..=retry.max_retries)
            .map(|a| retry.deadline_for_attempt(a))
            .sum()
    }

    /// Flattened aggregate specs for the segment `start..=end`.
    fn segment_specs(&self, start: usize, end: usize) -> Result<Vec<AggSpec>> {
        let plan = self
            .plan
            .as_ref()
            .ok_or_else(|| SkallaError::exec("no plan installed at mid-tier"))?;
        if end >= plan.expr.ops.len() || start > end {
            return Err(SkallaError::exec("segment out of range at mid-tier"));
        }
        let mut specs = Vec::new();
        for op in &plan.expr.ops[start..=end] {
            specs.extend(op.all_aggs().cloned());
        }
        Ok(specs)
    }

    /// Pre-synchronize the cluster's fragments (handles row-blocked chunks)
    /// and return the merged state relation, the slowest child time, and
    /// the cluster's summed counters (their skew sketches relayed upward,
    /// so the root still learns per-partition loads through the tree).
    fn merge_cluster(
        &self,
        ep: &Endpoint,
        num_children: usize,
        specs: Vec<AggSpec>,
    ) -> Result<(Relation, f64, SiteCounters)> {
        let plan = self.plan.as_ref().expect("checked in segment_specs");
        let key = plan.expr.key.clone();
        let workers = plan.coord_parallelism;
        let sync_shards = plan.sync_shards;
        let state_width: usize = specs.iter().map(AggSpec::state_width).sum();

        let mut x: Option<ClusterSync> = None;
        let mut pending = num_children;
        let mut max_s: f64 = 0.0;
        let mut counters = SiteCounters::default();
        while pending > 0 {
            let (h, compute_s, last, c) = match self.recv(ep)? {
                Message::Fragment {
                    rel,
                    compute_s,
                    last,
                    counters,
                    ..
                } => (rel, compute_s, last, counters),
                other => {
                    return Err(SkallaError::exec(format!(
                        "mid-tier expected round result, got {other:?}"
                    )))
                }
            };
            counters += c;
            if last {
                max_s = max_s.max(compute_s);
                pending -= 1;
            }
            let x = match &mut x {
                Some(x) => x,
                None => {
                    // Lazily shape the structure from the first fragment:
                    // its schema is base columns followed by state columns.
                    if h.schema().len() < state_width {
                        return Err(SkallaError::exec("fragment narrower than aggregate state"));
                    }
                    let base_width = h.schema().len() - state_width;
                    let base_cols: Vec<usize> = (0..base_width).collect();
                    let base_schema = Arc::new(h.schema().project(&base_cols)?);
                    let sync = if workers > 1 {
                        // Declared state types come off the fragment's
                        // schema tail (site ship schemas carry them).
                        let state_types: Vec<DataType> = h.schema().fields()[base_width..]
                            .iter()
                            .map(|f| f.dtype)
                            .collect();
                        ClusterSync::Sharded(ShardedSync::new(
                            SyncSpec {
                                base_schema,
                                key_cols: key.clone(),
                                specs: specs.clone(),
                                state_types,
                                output: SyncOutput::State,
                                allow_new: true,
                            },
                            None,
                            match sync_shards {
                                Some(s) => SyncOptions::for_workers(workers).with_shards(s),
                                None => SyncOptions::for_workers(workers),
                            },
                        )?)
                    } else {
                        ClusterSync::Serial(BaseResult::empty(
                            base_schema,
                            &key,
                            specs.clone(),
                            Vec::new(),
                        ))
                    };
                    x = Some(sync);
                    x.as_mut().expect("just set")
                }
            };
            match x {
                ClusterSync::Serial(b) => b.merge_fragment(&h, true)?,
                ClusterSync::Sharded(s) => s.merge_chunk(h)?,
            }
        }
        let merged = match x {
            Some(ClusterSync::Serial(b)) => b.to_state_relation()?,
            Some(ClusterSync::Sharded(s)) => s.finish()?.0,
            None => return Err(SkallaError::exec("mid-tier cluster produced no fragments")),
        };
        Ok((merged, max_s, counters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The root's `Shutdown` can reach a mid-tier while it is still
    /// waiting on its cluster: the relay must pass it on and exit, not
    /// drop it as a straggler.
    #[test]
    fn shutdown_during_collection_reaches_the_leaves() {
        let (_net, mut eps) = SimNetwork::full_mesh(3, CostModel::free());
        let leaf = eps.pop().expect("leaf endpoint");
        let mid = eps.pop().expect("mid-tier endpoint");
        let root = eps.pop().expect("root endpoint");
        let relay = std::thread::spawn(move || run_midtier(mid, vec![2]));
        // The leaf never answers, so the mid-tier is still collecting
        // (for the default retry budget, minutes) when the shutdown
        // arrives right behind the request.
        let req = Message::ComputeBase {
            parts: None,
            task: 0,
        };
        root.send(1, req.to_wire_framed(1, 1)).unwrap();
        root.send_reliable(1, Message::Shutdown.to_wire_framed(1, 0))
            .unwrap();
        let got: Vec<Message> = (0..2)
            .map(|_| {
                let env = leaf.recv_timeout(Duration::from_secs(10)).unwrap();
                Message::from_wire_framed(&env.payload).unwrap().2
            })
            .collect();
        assert_eq!(got, vec![req, Message::Shutdown]);
        relay.join().unwrap();
    }
}
