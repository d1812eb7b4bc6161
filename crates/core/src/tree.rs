//! Multi-tier coordinator topology (paper §6 future work).
//!
//! The paper's conclusions propose "a multi-tiered coordinator architecture
//! or spanning-tree networks" as future research. This module implements a
//! two-level tree: the root coordinator talks to `k` **mid-tier
//! coordinators**, each of which fronts a cluster of sites. By Theorem 1's
//! associativity a mid-tier is just a coordinator over its cluster whose
//! output is one sub-aggregate fragment, and it runs as one. Towards its
//! parent it is a site: the same serve loop (plan install, one-entry
//! `(epoch, round, task)` reply cache, `Shutdown`). Towards its cluster it
//! is the root: it collects every request with the root's own collection
//! engine (per-child sequence numbers, re-requests, the retry ladder) and
//! folds the replies with the root's sync engine into the state relation
//! it ships upward. The root link carries one fragment per cluster instead
//! of one per site.
//!
//! Deadlines nest. A mid-tier collects under the shipped [`RetryPolicy`]
//! with every attempt window scaled down, so that all of them together
//! take half the root's first window. A leaf still silent after them fails
//! the cluster with an `Error` reply, and the root's ladder decides —
//! retry, fail, or degrade by whole clusters — before its own first window
//! ends. A newer request or a `Shutdown` from the root ends a collection
//! in progress.
//!
//! Limitations (documented, not silent): coordinator-side group-reduction
//! filters are per-*site* while the root only addresses mid-tiers, so
//! [`TieredWarehouse::execute`] ignores `coord_filters` (dropping a
//! reduction is always sound); and the tree has two levels.

use std::sync::Arc;

use skalla_gmdj::AggSpec;
use skalla_net::{CostModel, Endpoint, Envelope, FaultPlan, NodeId, SimNetwork};
use skalla_storage::Catalog;
use skalla_types::{Relation, Result, SkallaError};

use crate::message::{Message, SiteCounters};
use crate::metrics::ExecMetrics;
use crate::plan::{DegradedMode, DistPlan, RetryPolicy};
use crate::site::{run_site_with_parent, serve_parent, ChildNode};
use crate::sync::{SyncOutput, SyncSpec};
use crate::warehouse::{collect_schemas, union_distinct, Collector, DistributedWarehouse, Syncer};

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
    /// mid-tier↔site alike. Every tier masks drops, duplicates and delays
    /// with the same retry machinery; a leaf lost for good fails its
    /// cluster, which the root handles through the same
    /// retry/degradation ladder as a lost site of a flat warehouse.
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
        let schemas = collect_schemas(&catalogs)?;

        let (net, mut endpoints) = SimNetwork::full_mesh_with_faults(1 + k + n, cost, faults);
        let site_endpoints = endpoints.split_off(1 + k);
        let mid_endpoints = endpoints.split_off(1);
        let coord = endpoints.pop().expect("root endpoint");

        // Sites report to their mid-tier parent.
        let mut handles = Vec::with_capacity(k + n);
        let mut children_of: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        for (i, (ep, catalog)) in site_endpoints.into_iter().zip(catalogs).enumerate() {
            let mid = i / fanout;
            children_of[mid].push(ep.id());
            let parent = (1 + mid) as NodeId;
            handles.push(std::thread::spawn(move || {
                run_site_with_parent(ep, catalog, parent)
            }));
        }
        for (ep, children) in mid_endpoints.into_iter().zip(children_of) {
            handles.push(std::thread::spawn(move || run_midtier(ep, children)));
        }

        Ok(TieredWarehouse {
            root: DistributedWarehouse::with_root(net, coord, k, handles, schemas),
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

/// The mid-tier loop: serve the root (node 0) as a site would, collecting
/// each request from the cluster `children`.
fn run_midtier(endpoint: Endpoint, children: Vec<NodeId>) {
    let link = Collector::new(endpoint, children, Some(0));
    serve_parent(&mut MidTier { link, plan: None }, 0);
}

/// The policy a mid-tier collects its cluster under: the shipped policy's
/// retries and backoff, with every attempt window scaled so that all of
/// them together take half the parent's first window. It never degrades:
/// a leaf lost after the retries fails the cluster, and the parent's
/// ladder decides.
fn cluster_policy(parent: &RetryPolicy) -> RetryPolicy {
    let total: f64 = (0..=parent.max_retries)
        .map(|a| parent.deadline_for_attempt(a).as_secs_f64())
        .sum();
    let scale = if total > 0.0 {
        parent.deadline.as_secs_f64() / (2.0 * total)
    } else {
        0.0
    };
    RetryPolicy {
        deadline: parent.deadline.mul_f64(scale),
        degraded: DegradedMode::Fail,
        ..*parent
    }
}

/// A mid-tier coordinator: its link to the cluster, and the installed plan.
struct MidTier {
    link: Collector,
    /// The installed plan, kept as the `Plan` message re-sent to a child
    /// with each retried request.
    plan: Option<Message>,
}

impl MidTier {
    fn plan(&self) -> Result<&DistPlan> {
        match &self.plan {
            Some(Message::Plan(p)) => Ok(p),
            _ => Err(SkallaError::exec("no plan installed at mid-tier")),
        }
    }

    /// Collect `req` from every child with the root's engine under the
    /// cluster policy, handing each accepted reply to `sink`.
    fn collect(
        &self,
        epoch: u64,
        round: u32,
        req: &Message,
        sink: &mut dyn FnMut(NodeId, Message) -> Result<()>,
    ) -> Result<()> {
        // The root runs a query's rounds under the plan's policy and every
        // other exchange (ship-all, scrub) under the default one.
        let default = RetryPolicy::default();
        let shipped = match (req, self.plan()) {
            (Message::ShipAllRequest { .. } | Message::ScrubRequest, _) | (_, Err(_)) => &default,
            (_, Ok(p)) => &p.retry,
        };
        let retry = cluster_policy(shipped);
        let requests = self
            .link
            .children
            .iter()
            .map(|&c| (c, req.clone()))
            .collect();
        self.link
            .collect_all(epoch, round, &retry, self.plan.as_ref(), requests, sink)
    }

    /// Pre-synchronize the cluster's fragments for operators
    /// `start..=end` into the one fragment a site would have sent for the
    /// whole cluster: base columns, then raw states.
    fn presync(
        &self,
        epoch: u64,
        round: u32,
        req: &Message,
        (start, end): (u32, u32),
        task: u32,
    ) -> Result<Message> {
        let plan = self.plan()?;
        let ops = plan
            .expr
            .ops
            .get(start as usize..=end as usize)
            .ok_or_else(|| SkallaError::exec("segment out of range at mid-tier"))?;
        let specs: Vec<AggSpec> = ops.iter().flat_map(|op| op.all_aggs().cloned()).collect();
        let state_width: usize = specs.iter().map(AggSpec::state_width).sum();
        let mut sync: Option<Syncer> = None;
        let mut compute_s: f64 = 0.0;
        let mut counters = SiteCounters::default();
        self.collect(epoch, round, req, &mut |_, reply| {
            let Message::Fragment {
                rel,
                compute_s: s,
                last,
                counters: c,
                ..
            } = reply
            else {
                return Err(unexpected(&reply));
            };
            counters += c;
            if last {
                compute_s = compute_s.max(s);
            }
            if sync.is_none() {
                // Shaped from the first fragment (a mid-tier holds no
                // table schemas): base columns, then the declared state
                // types.
                let schema = rel.schema();
                let base_width = schema
                    .len()
                    .checked_sub(state_width)
                    .ok_or_else(|| SkallaError::exec("fragment narrower than aggregate state"))?;
                let base_cols: Vec<usize> = (0..base_width).collect();
                let spec = SyncSpec {
                    base_schema: Arc::new(schema.project(&base_cols)?),
                    key_cols: plan.expr.key.clone(),
                    specs: specs.clone(),
                    state_types: schema.fields()[base_width..]
                        .iter()
                        .map(|f| f.dtype)
                        .collect(),
                    output: SyncOutput::State,
                    allow_new: true,
                };
                sync = Some(Syncer::new(plan, spec, None)?);
            }
            sync.as_mut().expect("built above").merge(rel)
        })?;
        let sync =
            sync.ok_or_else(|| SkallaError::exec("mid-tier cluster produced no fragments"))?;
        Ok(Message::Fragment {
            op: end,
            seq: 0,
            rel: sync.finish()?.0,
            compute_s,
            last: true,
            task,
            counters,
        })
    }
}

fn unexpected(reply: &Message) -> SkallaError {
    SkallaError::exec(format!("mid-tier got an unexpected reply {reply:?}"))
}

impl ChildNode for MidTier {
    fn endpoint(&self) -> &Endpoint {
        &self.link.ep
    }

    fn install(&mut self, plan: DistPlan, epoch: u64, round: u32) {
        let msg = Message::Plan(plan);
        let frame = msg.to_wire_framed(epoch, round);
        // A child this misses is re-sent the plan with its next request.
        for &c in &self.link.children {
            let _ = self.link.ep.send(c, frame.clone());
        }
        self.plan = Some(msg);
    }

    fn handle(&mut self, epoch: u64, round: u32, msg: Message) -> Result<Vec<Message>> {
        let reply = match &msg {
            Message::ComputeBase { task, .. } => {
                let mut frags = Vec::with_capacity(self.link.children.len());
                let mut compute_s: f64 = 0.0;
                let mut counters = SiteCounters::default();
                self.collect(epoch, round, &msg, &mut |src, reply| {
                    let Message::BaseFragment {
                        rel,
                        compute_s: s,
                        counters: c,
                        ..
                    } = reply
                    else {
                        return Err(unexpected(&reply));
                    };
                    compute_s = compute_s.max(s);
                    counters += c;
                    frags.push((src, 0, rel));
                    Ok(())
                })?;
                Message::BaseFragment {
                    rel: union_distinct(frags)?,
                    compute_s,
                    task: *task,
                    counters,
                }
            }
            Message::Round { op_idx, task, .. } => {
                self.presync(epoch, round, &msg, (*op_idx, *op_idx), *task)?
            }
            Message::LocalRun {
                start, end, task, ..
            } => self.presync(epoch, round, &msg, (*start, *end), *task)?,
            // The cluster's scrub reports, concatenated: the root sees one
            // flat entry list per mid-tier, as if the leaves were its own.
            Message::ScrubRequest => {
                let mut entries = Vec::new();
                self.collect(epoch, round, &msg, &mut |_, reply| match reply {
                    Message::ScrubReport { entries: e } => {
                        entries.extend(e);
                        Ok(())
                    }
                    other => Err(unexpected(&other)),
                })?;
                Message::ScrubReport { entries }
            }
            Message::ShipAllRequest { .. } => {
                let mut parts: Vec<(NodeId, Relation)> = Vec::new();
                let mut compute_s = 0.0;
                self.collect(epoch, round, &msg, &mut |src, reply| match reply {
                    Message::ShipAllData { rel, compute_s: s } => {
                        compute_s += s;
                        parts.push((src, rel));
                        Ok(())
                    }
                    other => Err(unexpected(&other)),
                })?;
                parts.sort_by_key(|&(src, _)| src);
                let mut parts = parts.into_iter().map(|(_, rel)| rel);
                let mut rel = parts
                    .next()
                    .ok_or_else(|| SkallaError::exec("mid-tier cluster is empty"))?;
                for r in parts {
                    rel.union_all(r)?;
                }
                Message::ShipAllData { rel, compute_s }
            }
            other => {
                return Err(SkallaError::exec(format!(
                    "mid-tier received unexpected message {other:?}"
                )))
            }
        };
        Ok(vec![reply])
    }

    fn shutdown(&self, epoch: u64, round: u32) {
        self.link.shutdown_children(epoch, round);
    }

    fn take_superseded(&self) -> Option<Envelope> {
        self.link.take_superseded()
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

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

    /// A newer request from the root ends a collection the root has given
    /// up on: the mid-tier must pass it on to the leaves, not drop it as a
    /// straggler while it waits out the stale one.
    #[test]
    fn newer_request_ends_a_stale_collection() {
        let (_net, mut eps) = SimNetwork::full_mesh(3, CostModel::free());
        let leaf = eps.pop().expect("leaf endpoint");
        let mid = eps.pop().expect("mid-tier endpoint");
        let root = eps.pop().expect("root endpoint");
        let mid_tier = std::thread::spawn(move || run_midtier(mid, vec![2]));
        let req = Message::ComputeBase {
            parts: None,
            task: 0,
        };
        let epoch_of =
            |env: skalla_net::Envelope| Message::from_wire_framed(&env.payload).unwrap().0;
        // The leaf never answers the epoch-1 request.
        root.send(1, req.to_wire_framed(1, 1)).unwrap();
        let first = leaf.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(epoch_of(first), 1);
        root.send(1, req.to_wire_framed(2, 1)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        // Re-requests of epoch 1 may come first; epoch 2 must follow.
        while epoch_of(leaf.recv_timeout(deadline - Instant::now()).unwrap()) != 2 {}
        root.send_reliable(1, Message::Shutdown.to_wire_framed(2, 0))
            .unwrap();
        mid_tier.join().unwrap();
    }

    /// All of a mid-tier's attempt windows together take half the root's
    /// first window, whatever the shipped policy.
    #[test]
    fn cluster_windows_fit_in_half_the_parent_window() {
        let fast = RetryPolicy {
            deadline: Duration::from_millis(250),
            max_retries: 8,
            backoff: 1.5,
            degraded: DegradedMode::Partial,
        };
        for parent in [RetryPolicy::default(), fast] {
            let child = cluster_policy(&parent);
            let total: Duration = (0..=child.max_retries)
                .map(|a| child.deadline_for_attempt(a))
                .sum();
            let half = parent.deadline_for_attempt(0) / 2;
            assert!(total.abs_diff(half) < Duration::from_micros(1), "{total:?}");
            assert_eq!(child.max_retries, parent.max_retries);
            assert_eq!(child.degraded, DegradedMode::Fail);
        }
        // The default policy: a 10 s first window at the root, 150 s in
        // all; a mid-tier collection is done within 5 s.
        assert_eq!(
            cluster_policy(&RetryPolicy::default()).deadline,
            Duration::from_secs(1) / 3
        );
    }
}
