//! The Skalla site worker.
//!
//! Each site is an OS thread owning its local [`Catalog`] (its partition of
//! the warehouse's fact relations) and an [`Endpoint`] into the simulated
//! network. The worker answers coordinator requests until it receives
//! [`Message::Shutdown`]. Failures are reported back as [`Message::Error`]
//! rather than crashing the fabric.

use std::hash::{Hash, Hasher};
use std::ops::Range;

use bytes::Bytes;
use skalla_gmdj::{
    eval_gmdj_dual_source, eval_gmdj_sub_source, BaseSpec, EvalOptions, EvalStats, GmdjExpr,
    MATCH_COUNT_COL,
};
use skalla_net::{Endpoint, Envelope, NodeId};
use skalla_storage::{
    partition_table_name, Catalog, DistinctRows, PartFrag, PartSketch, Piece, ScanSource,
    SegmentFile, SpaceSaving, Table,
};
use skalla_types::{Relation, Result, Schema, SkallaError, Value};

use crate::message::{Message, ScrubEntry, SiteCounters};
use crate::plan::DistPlan;

/// The clock behind every `compute_s` a site reports: per-thread CPU
/// seconds. Sites are threads of one process sharing the host's cores,
/// but they model machines that each own theirs — a wall clock would
/// charge a site for time the OS spent running its neighbours, which
/// inverts every comparison that changes how much sites overlap (a
/// skew-balanced layout looks *slower* than a stragglered one on a
/// small host). Thread CPU time is what the modeled cluster would
/// measure; `RoundMetrics::site_compute_max_s` stays the true parallel
/// critical path at any host core count.
fn site_clock_s() -> f64 {
    crate::sync::thread_cpu_s()
}

/// Run the site worker loop until shutdown. Intended to be the body of a
/// spawned thread; the coordinator is node 0.
pub fn run_site(endpoint: Endpoint, catalog: Catalog) {
    run_site_with_parent(endpoint, catalog, 0)
}

/// [`run_site`] replying to an arbitrary parent node — used by the
/// multi-tier topology, where sites report to a mid-tier coordinator.
pub fn run_site_with_parent(endpoint: Endpoint, catalog: Catalog, parent: NodeId) {
    let mut site = SiteState {
        endpoint,
        catalog,
        plan: None,
    };
    serve_parent(&mut site, parent);
}

/// A node that serves one parent through [`serve_parent`]: a leaf site, or
/// a mid-tier coordinator in front of its cluster.
pub(crate) trait ChildNode {
    /// The endpoint the node hears its parent on.
    fn endpoint(&self) -> &Endpoint;
    /// Install a plan (a mid-tier also passes it on to its cluster).
    fn install(&mut self, plan: DistPlan, epoch: u64, round: u32);
    /// Answer one request from the parent.
    fn handle(&mut self, epoch: u64, round: u32, msg: Message) -> Result<Vec<Message>>;
    /// The parent's `Shutdown` arrived; the loop exits after this.
    fn shutdown(&self, _epoch: u64, _round: u32) {}
    /// A parent frame that cut the last request short. It is served next,
    /// and the cut request gets no reply: the parent has moved on.
    fn take_superseded(&self) -> Option<Envelope> {
        None
    }
}

/// Serve `parent` until it sends `Shutdown` or the fabric goes away. Plan
/// installs produce no reply; every other request is answered, with an
/// [`Message::Error`] when it fails.
pub(crate) fn serve_parent(node: &mut impl ChildNode, parent: NodeId) {
    // One-entry reply cache keyed by `(epoch, round, task)`, holding the
    // encoded reply frames. The parent re-sends a round request when its
    // deadline expires; a node that already served that exact round
    // replays its reply (the original may have been lost in transit)
    // instead of recomputing. One entry suffices: the parent never moves
    // to round r+1 before round r is settled, so a duplicate can only
    // concern the latest round served — the task id keeps a
    // straggler-offload assignment from replaying the site's reply for a
    // different work set in that round.
    let mut reply_cache: Option<(u64, u32, u32, Vec<Bytes>)> = None;
    let mut next: Option<Envelope> = None;
    loop {
        let env = match next.take() {
            Some(env) => env,
            None => match node.endpoint().recv() {
                Ok(e) => e,
                Err(_) => return, // fabric torn down (or this node was crashed)
            },
        };
        if env.src != parent {
            continue; // a mid-tier's straggler: a child reply after its collection ended
        }
        let (epoch, round, msg) = match Message::from_wire_framed(&env.payload) {
            Ok(m) => m,
            Err(e) => {
                let err = Message::Error {
                    msg: e.to_string(),
                    corrupt: false,
                };
                let _ = node.endpoint().send(parent, err.to_wire_framed(0, 0));
                continue;
            }
        };
        match msg {
            Message::Shutdown => {
                node.shutdown(epoch, round);
                return;
            }
            // Plan installs are idempotent and produce no reply; they
            // bypass the cache so a re-sent Plan + request pair still
            // answers the request.
            Message::Plan(p) => {
                node.install(p, epoch, round);
                continue;
            }
            _ => {}
        }
        let task = request_task(&msg);
        let frames = match &reply_cache {
            Some((ce, cr, ct, cached)) if (*ce, *cr, *ct) == (epoch, round, task) => cached.clone(),
            _ => match node.handle(epoch, round, msg) {
                Ok(responses) => {
                    let frames: Vec<Bytes> = responses
                        .iter()
                        .map(|m| m.to_wire_framed(epoch, round))
                        .collect();
                    reply_cache = Some((epoch, round, task, frames.clone()));
                    frames
                }
                Err(e) => match node.take_superseded() {
                    Some(env) => {
                        next = Some(env);
                        continue;
                    }
                    // Errors are not cached: a retried request recomputes,
                    // which also re-fails for deterministic errors but lets
                    // transient conditions clear.
                    None => vec![Message::Error {
                        msg: e.to_string(),
                        corrupt: e.is_corrupt(),
                    }
                    .to_wire_framed(epoch, round)],
                },
            },
        };
        for frame in frames {
            if node.endpoint().send(parent, frame).is_err() {
                return;
            }
        }
    }
}

/// The work-assignment id a request carries (0 for messages that predate
/// the task protocol, e.g. `ShipAllRequest`).
fn request_task(msg: &Message) -> u32 {
    match msg {
        Message::ComputeBase { task, .. }
        | Message::Round { task, .. }
        | Message::LocalRun { task, .. } => *task,
        _ => 0,
    }
}

/// A site: its endpoint and its mutable local state.
struct SiteState {
    endpoint: Endpoint,
    catalog: Catalog,
    plan: Option<DistPlan>,
}

impl ChildNode for SiteState {
    fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    fn install(&mut self, plan: DistPlan, _epoch: u64, _round: u32) {
        self.plan = Some(plan);
    }

    fn handle(&mut self, _epoch: u64, _round: u32, msg: Message) -> Result<Vec<Message>> {
        match msg {
            Message::ComputeBase { parts, task } => {
                self.compute_base(parts.as_deref(), task).map(|m| vec![m])
            }
            Message::Round {
                op_idx,
                base,
                parts,
                task,
            } => self.round(op_idx as usize, base, parts.as_deref(), task),
            Message::LocalRun {
                start,
                end,
                base,
                parts,
                task,
            } => self.local_run(start as usize, end as usize, base, parts.as_deref(), task),
            Message::LoadSegments { table, path, part } => {
                let file = std::sync::Arc::new(SegmentFile::open(&path)?);
                let rows = file.total_rows() as u64;
                // Under replicated placement the same rows are also the
                // site's primary partition: bind the mangled alias to the
                // same file, so partition-addressed scans stream from
                // disk exactly like plain-name scans.
                if let Some(p) = part {
                    self.catalog
                        .register_segments(partition_table_name(&table, p as usize), file.clone());
                }
                self.catalog.register_segments(table, file);
                Ok(vec![Message::SegmentsLoaded { rows }])
            }
            Message::ShipAllRequest { table } => {
                let started = site_clock_s();
                let t = self.catalog.get(&table)?;
                let rel = t.to_relation();
                Ok(vec![Message::ShipAllData {
                    rel,
                    compute_s: site_clock_s() - started,
                }])
            }
            Message::ScrubRequest => Ok(vec![self.scrub()]),
            other => Err(SkallaError::exec(format!(
                "site received unexpected message {other:?}"
            ))),
        }
    }
}

impl SiteState {
    /// Verify every segment-backed catalog entry's checksums off the query
    /// path. A corrupt file is quarantined — renamed to
    /// `<path>.quarantined` and unregistered — so queries get a typed miss
    /// instead of bad bytes until the coordinator repairs the partition
    /// from a replica.
    fn scrub(&mut self) -> Message {
        let names: Vec<String> = self
            .catalog
            .table_names()
            .into_iter()
            .map(str::to_string)
            .collect();
        // Group segment-backed entries by file: under replicated
        // placement one file is registered under both the plain table
        // name and the primary-partition alias — it is a single disk
        // artifact, verified (and quarantined) once.
        let mut files: Vec<(std::path::PathBuf, std::sync::Arc<SegmentFile>, Vec<String>)> =
            Vec::new();
        for name in names {
            let Some(file) = self.catalog.get_segments(&name) else {
                continue;
            };
            let path = file.path().to_path_buf();
            match files.iter_mut().find(|(p, _, _)| *p == path) {
                Some((_, _, ns)) => ns.push(name),
                None => files.push((path, file, vec![name])),
            }
        }
        let mut entries = Vec::new();
        for (path, file, mut names) in files {
            // Report under the plain name when both are bound — that is
            // the name the coordinator's replica map addresses repairs
            // by.
            names.sort_by_key(|n| n.starts_with("__part::"));
            let name = names[0].clone();
            let entry = match file.verify() {
                Ok(blocks) => ScrubEntry {
                    table: name,
                    path: path.display().to_string(),
                    blocks,
                    error: None,
                },
                Err(e) => {
                    drop(file);
                    let mut q = path.as_os_str().to_owned();
                    q.push(".quarantined");
                    let _ = std::fs::rename(&path, std::path::PathBuf::from(q));
                    // Every name bound to the file must go: a surviving
                    // alias would keep serving the quarantined bytes
                    // through its still-open handle.
                    for n in &names {
                        self.catalog.unregister(n);
                    }
                    ScrubEntry {
                        table: name,
                        path: path.display().to_string(),
                        blocks: 0,
                        error: Some(e.to_string()),
                    }
                }
            };
            entries.push(entry);
        }
        Message::ScrubReport { entries }
    }

    fn plan(&self) -> Result<&DistPlan> {
        self.plan
            .as_ref()
            .ok_or_else(|| SkallaError::exec("no plan installed at site"))
    }

    fn expr(&self) -> Result<&GmdjExpr> {
        Ok(&self.plan()?.expr)
    }

    /// Per-partition sketches for the partitions a request names. `rows`
    /// is the *whole* partition's cardinality (the site hosts the full
    /// replica even when asked for a fragment of it), so coordinator-side
    /// load estimates are exact regardless of how the request was sliced.
    /// When `heavy_cols` is given, a space-saving heavy-hitter sketch over
    /// those columns is gathered from the requested row ranges, counting
    /// its segment reads.
    fn part_sketches(
        &self,
        name: &str,
        parts: Option<&[PartFrag]>,
        heavy_cols: Option<&[usize]>,
        counters: &mut SiteCounters,
    ) -> Result<Vec<PartSketch>> {
        // The replication-unaware protocol has no partition ids to report.
        let Some(fs) = parts else {
            return Ok(Vec::new());
        };
        let mut out: Vec<PartSketch> = Vec::new();
        // One sketch per partition, accumulated across that partition's
        // fragments (a split partition sends several row ranges to one
        // site; its heavy hitters are a property of the partition, not of
        // any single slice).
        let mut sketches: Vec<SpaceSaving> = Vec::new();
        let mut stats = EvalStats::default();
        for f in fs {
            let part = self
                .catalog
                .source(name, Some(&[PartFrag::whole(f.part)]))?;
            if out.last().map(|s| s.part) != Some(f.part) {
                out.push(PartSketch {
                    part: f.part,
                    rows: part.rows() as u64,
                    heavy: Vec::new(),
                });
                sketches.push(SpaceSaving::new(HEAVY_HITTER_CAP));
            }
            if let Some(cols) = heavy_cols {
                let (start, end) = f.row_bounds(part.rows());
                let ss = sketches.last_mut().expect("just pushed");
                sketch_keys(&part, start..end, cols, ss, &mut stats)?;
            }
        }
        *counters += SiteCounters::of_eval(&stats);
        for (sk, ss) in out.iter_mut().zip(&sketches) {
            sk.heavy = ss.top();
        }
        Ok(out)
    }

    /// Compute the local `B₀ᵢ` fragment.
    fn compute_base(&self, parts: Option<&[PartFrag]>, task: u32) -> Result<Message> {
        let started = site_clock_s();
        let expr = self.expr()?;
        let mut counters = SiteCounters::default();
        let rel = self.local_base(expr, parts, &mut counters)?;
        let heavy_cols = match &expr.base {
            BaseSpec::DistinctProject { cols } => Some(cols.clone()),
            BaseSpec::Relation(_) => None,
        };
        counters.sketch = self.part_sketches(
            &expr.detail_name,
            parts,
            heavy_cols.as_deref(),
            &mut counters,
        )?;
        Ok(Message::BaseFragment {
            rel,
            compute_s: site_clock_s() - started,
            task,
            counters,
        })
    }

    /// The local distinct base, counting the segments it reads.
    fn local_base(
        &self,
        expr: &GmdjExpr,
        parts: Option<&[PartFrag]>,
        counters: &mut SiteCounters,
    ) -> Result<Relation> {
        let BaseSpec::DistinctProject { cols } = &expr.base else {
            return Err(SkallaError::exec(
                "coordinator asked a site to compute an explicit base relation",
            ));
        };
        let source = self.catalog.source(&expr.detail_name, parts)?;
        let mut stats = EvalStats::default();
        let base = distinct_keys(&source, cols, &mut stats)?;
        *counters += SiteCounters::of_eval(&stats);
        Ok(base)
    }

    /// One standard round: sub-aggregates for operator `op_idx` over the
    /// shipped base fragment. Row blocking (if enabled in the plan) splits
    /// the reply into chunks, all but the last flagged `last: false`.
    fn round(
        &self,
        op_idx: usize,
        base: Relation,
        parts: Option<&[PartFrag]>,
        task: u32,
    ) -> Result<Vec<Message>> {
        let started = site_clock_s();
        let plan = self.plan()?;
        let op = plan
            .expr
            .ops
            .get(op_idx)
            .ok_or_else(|| SkallaError::exec(format!("operator {op_idx} out of range")))?;
        let reduce = plan.rounds[op_idx].site_group_reduction;
        let source = self
            .catalog
            .source(plan.expr.detail_for_op(op_idx), parts)?;
        let opts = EvalOptions {
            with_match_count: reduce,
            parallelism: plan.site_parallelism,
            ..Default::default()
        };
        let (h, stats) = eval_gmdj_sub_source(&base, &source, op, &opts, plan.segment_prune)?;
        let h = if reduce { strip_unmatched(h)? } else { h };
        // Cardinality-only sketches (O(#parts)): the coordinator refreshes
        // its load estimates from every reply, not just base rounds.
        let mut counters = SiteCounters::of_eval(&stats);
        counters.sketch =
            self.part_sketches(plan.expr.detail_for_op(op_idx), parts, None, &mut counters)?;
        Ok(fragments(
            op_idx,
            h,
            plan.block_rows,
            task,
            site_clock_s() - started,
            counters,
        ))
    }

    /// A synchronization-reduced local run: evaluate operators
    /// `start..=end` against local data with no intermediate
    /// synchronization, shipping all sub-aggregate states at the end.
    fn local_run(
        &self,
        start: usize,
        end: usize,
        base: Option<Relation>,
        parts: Option<&[PartFrag]>,
        task: u32,
    ) -> Result<Vec<Message>> {
        let started = site_clock_s();
        let plan = self.plan()?;
        let expr = &plan.expr;
        if end >= expr.ops.len() || start > end {
            return Err(SkallaError::exec(format!(
                "local run {start}..={end} out of range"
            )));
        }
        // Site-side group reduction is only sound here when the coordinator
        // already knows the groups (base was shipped); with a local base the
        // shipped rows are the only record of the group's existence.
        let reduce = base.is_some()
            && plan.rounds[start..=end]
                .iter()
                .any(|r| r.site_group_reduction);

        // The round's counters describe its operator scans: one visit per
        // segment and operator. The local base's key-column reads are not
        // counted.
        let base_rel = match base {
            Some(b) => b,
            None => self.local_base(expr, parts, &mut SiteCounters::default())?,
        };
        let n = base_rel.len();

        let mut acc_states: Vec<Vec<Value>> = vec![Vec::new(); n];
        let mut total_matches = vec![0u64; n];
        let mut current = base_rel.clone();
        let mut state_fields = Vec::new();
        let mut counters = SiteCounters::default();

        for k in start..=end {
            let op = &expr.ops[k];
            let source = self.catalog.source(expr.detail_for_op(k), parts)?;
            let opts = EvalOptions {
                parallelism: plan.site_parallelism,
                ..Default::default()
            };
            state_fields.extend(op.state_fields(source.schema())?);
            let dual = eval_gmdj_dual_source(&current, &source, op, &opts, plan.segment_prune)?;
            counters += SiteCounters::of_eval(&dual.stats);
            for (i, st) in dual.states.iter().enumerate() {
                acc_states[i].extend(st.iter().cloned());
                total_matches[i] += dual.match_counts[i];
            }
            current = dual.full;
        }

        // Ship: original base part ++ concatenated run states.
        let mut fields = base_rel.schema().fields().to_vec();
        fields.extend(state_fields);
        let schema = std::sync::Arc::new(Schema::new(fields)?);
        let mut rows = Vec::with_capacity(n);
        for (i, b) in base_rel.rows().iter().enumerate() {
            if reduce && total_matches[i] == 0 {
                continue;
            }
            let mut row = b.clone();
            row.extend(acc_states[i].iter().cloned());
            rows.push(row);
        }
        let ship = Relation::from_rows_unchecked(schema, rows);
        counters.sketch = self.part_sketches(&expr.detail_name, parts, None, &mut counters)?;
        Ok(fragments(
            end,
            ship,
            plan.block_rows,
            task,
            site_clock_s() - started,
            counters,
        ))
    }
}

/// Space-saving counter capacity for the heavy-hitter sketch shipped with
/// base replies: enough to expose a handful of dominant groups without
/// bloating the frame.
const HEAVY_HITTER_CAP: usize = 8;

/// Deterministic 64-bit hash of the group-key columns of a detail row.
/// Only used for sketching — collisions merely blur the skew estimate.
/// Hash row `i`'s group key straight off the columns (type-tagged, `Null`
/// for out-of-range indices). Columnar so the sketch scan never
/// materializes rows it only needs two columns of.
fn hash_group_cols(cols: &[Option<&skalla_storage::Column>], i: usize) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for c in cols {
        match c.map(|c| c.get(i)) {
            None | Some(Value::Null) => 0u8.hash(&mut h),
            Some(Value::Int(v)) => {
                1u8.hash(&mut h);
                v.hash(&mut h);
            }
            Some(Value::Float(v)) => {
                2u8.hash(&mut h);
                v.to_bits().hash(&mut h);
            }
            Some(Value::Str(s)) => {
                3u8.hash(&mut h);
                s.as_bytes().hash(&mut h);
            }
            Some(Value::Bool(b)) => {
                4u8.hash(&mut h);
                b.hash(&mut h);
            }
        }
    }
    h.finish()
}

/// Walk source rows `rows` reading only the columns `cols` name, and hand
/// `f` each piece's table, its rows, and where each entry of `cols` sits
/// in that table (`None` when out of range). Nothing is pruned; every
/// segment read is counted into `stats`.
fn scan_keys(
    source: &ScanSource<'_>,
    rows: Range<usize>,
    cols: &[usize],
    stats: &mut EvalStats,
    mut f: impl FnMut(&Table, Range<usize>, &[Option<usize>]),
) -> Result<()> {
    let (read, at) = skalla_storage::projection(cols, source.schema().len());
    // An in-memory piece holds every column.
    let whole: Vec<Option<usize>> = at.iter().map(|p| p.map(|p| read[p])).collect();
    source.scan(
        rows,
        &read,
        |_| false,
        |piece| {
            stats.count(&piece);
            match piece {
                Piece::Table(t, rows) => f(t, rows, &whole),
                Piece::Segment(t, rows, _) => f(t, rows, &at),
                Piece::Pruned => {}
            }
            Ok(())
        },
    )
}

/// The distinct rows of `source` projected onto `cols`, in first-seen
/// order — the local `BASE DISTINCT`.
fn distinct_keys(
    source: &ScanSource<'_>,
    cols: &[usize],
    stats: &mut EvalStats,
) -> Result<Relation> {
    let schema = std::sync::Arc::new(source.schema().project(cols)?);
    let mut distinct = DistinctRows::default();
    // `project` accepted `cols`, so every key column is in range.
    scan_keys(source, 0..source.rows(), cols, stats, |t, rows, at| {
        let at: Vec<usize> = at.iter().flatten().copied().collect();
        distinct.offer(t, rows, &at);
    })?;
    Ok(distinct.into_relation(schema))
}

/// Offer the group-key hash of source rows `rows` to the heavy-hitter
/// sketch.
fn sketch_keys(
    source: &ScanSource<'_>,
    rows: Range<usize>,
    cols: &[usize],
    ss: &mut SpaceSaving,
    stats: &mut EvalStats,
) -> Result<()> {
    scan_keys(source, rows, cols, stats, |t, rows, at| {
        let key_cols: Vec<_> = at.iter().map(|p| p.map(|p| t.column(p))).collect();
        for i in rows {
            ss.offer(hash_group_cols(&key_cols, i));
        }
    })
}

/// A round's or local run's reply: `rel` row-blocked into
/// [`Message::Fragment`] chunks, with the compute time and counters on
/// the final chunk only.
fn fragments(
    op: usize,
    rel: Relation,
    block_rows: Option<usize>,
    task: u32,
    compute_s: f64,
    counters: SiteCounters,
) -> Vec<Message> {
    let mut tail = Some((compute_s, counters));
    chunk_relation(rel, block_rows)
        .into_iter()
        .enumerate()
        .map(|(seq, (chunk, last))| {
            let (compute_s, counters) = if last {
                tail.take().unwrap_or_default()
            } else {
                Default::default()
            };
            Message::Fragment {
                op: op as u32,
                seq: seq as u32,
                rel: chunk,
                compute_s,
                last,
                task,
                counters,
            }
        })
        .collect()
}

/// Split a relation into `(chunk, is_last)` pieces of at most `block_rows`
/// rows. With `None` (or an empty relation) a single `last` piece is
/// returned, so every reply carries exactly one `last: true` message.
fn chunk_relation(rel: Relation, block_rows: Option<usize>) -> Vec<(Relation, bool)> {
    let Some(block) = block_rows else {
        return vec![(rel, true)];
    };
    let block = block.max(1);
    if rel.len() <= block {
        return vec![(rel, true)];
    }
    let schema = rel.schema().clone();
    let rows = rel.into_rows();
    let mut out = Vec::with_capacity(rows.len() / block + 1);
    let mut iter = rows.into_iter().peekable();
    while iter.peek().is_some() {
        let chunk: Vec<_> = iter.by_ref().take(block).collect();
        out.push((Relation::from_rows_unchecked(schema.clone(), chunk), false));
    }
    if let Some(last) = out.last_mut() {
        last.1 = true;
    }
    out
}

/// Drop rows with `__rng_count = 0` and remove the counter column
/// (Proposition 1's site-side reduction).
fn strip_unmatched(h: Relation) -> Result<Relation> {
    let count_idx = h.schema().index_of(MATCH_COUNT_COL)?;
    let keep: Vec<usize> = (0..h.schema().len()).filter(|&i| i != count_idx).collect();
    let schema = std::sync::Arc::new(h.schema().project(&keep)?);
    let rows = h
        .rows()
        .iter()
        .filter(|r| r[count_idx] != Value::Int(0))
        .map(|r| keep.iter().map(|&i| r[i].clone()).collect())
        .collect();
    Ok(Relation::from_rows_unchecked(schema, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_types::DataType;

    #[test]
    fn strip_unmatched_filters_and_projects() {
        let schema = Schema::from_pairs([
            ("k", DataType::Int64),
            ("cnt", DataType::Int64),
            (MATCH_COUNT_COL, DataType::Int64),
        ])
        .unwrap()
        .into_arc();
        let h = Relation::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(3), Value::Int(3)],
                vec![Value::Int(2), Value::Int(0), Value::Int(0)],
                vec![Value::Int(3), Value::Int(1), Value::Int(1)],
            ],
        )
        .unwrap();
        let out = strip_unmatched(h).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().names(), vec!["k", "cnt"]);
        assert_eq!(out.row(0), &vec![Value::Int(1), Value::Int(3)]);
        assert_eq!(out.row(1), &vec![Value::Int(3), Value::Int(1)]);
    }

    /// The out-of-core base and sketch scans decode only the key columns,
    /// yet see exactly the in-memory rows: the same distinct rows in the
    /// same first-seen order and the same heavy hitters, for unsorted,
    /// repeated and out-of-range key lists, whole files and row windows.
    #[test]
    fn projected_key_scans_match_in_memory() {
        let schema = Schema::from_pairs([
            ("k", DataType::Int64),
            ("x", DataType::Float64),
            ("s", DataType::Utf8),
            ("q", DataType::Int64),
        ])
        .unwrap()
        .into_arc();
        let rows: Vec<Vec<Value>> = (0..500i64)
            .map(|i| {
                vec![
                    Value::Int(i % 7),
                    Value::Float(i as f64),
                    Value::str(["a", "b", "c"][(i % 3) as usize]),
                    Value::Int(i / 50),
                ]
            })
            .collect();
        let table = Table::from_rows(schema, &rows).unwrap();
        let path =
            std::env::temp_dir().join(format!("skalla-site-keyscan-{}.seg", std::process::id()));
        skalla_storage::write_segments(&path, &table, 64).unwrap();
        let file = SegmentFile::open(&path).unwrap();
        for cols in [&[2, 0][..], &[0, 2], &[3], &[3, 2, 1, 0]] {
            for range in [None, Some((37, 301)), Some((64, 128)), Some((5, 5))] {
                let (lo, hi) = range.unwrap_or((0, table.len()));
                let window = table.row_range(lo, hi).unwrap();
                let want = window.distinct_project(cols).unwrap();
                let mut stats = EvalStats::default();
                let source = ScanSource::of_segments(&file, range);
                let got = distinct_keys(&source, cols, &mut stats).unwrap();
                assert_eq!(got.schema(), want.schema());
                assert_eq!(got.rows(), want.rows(), "{cols:?} {range:?}");
                let in_memory = ScanSource::of_table(&window);
                let mem = distinct_keys(&in_memory, cols, &mut EvalStats::default()).unwrap();
                assert_eq!(mem.rows(), want.rows(), "{cols:?} {range:?}");
                // Every segment overlapping the window is read once, and
                // all four of its chunks are checked.
                let reads = if lo < hi {
                    (hi - 1) / 64 - lo / 64 + 1
                } else {
                    0
                };
                assert_eq!(stats.segments_scanned, reads as u64, "{range:?}");
                assert_eq!(stats.blocks_verified, 4 * reads as u64, "{range:?}");
            }
        }
        for cols in [&[2, 0][..], &[3, 9], &[0, 2, 0]] {
            let key_cols: Vec<_> = cols
                .iter()
                .map(|&c| (c < table.schema().len()).then(|| table.column(c)))
                .collect();
            let mut want = SpaceSaving::new(HEAVY_HITTER_CAP);
            for i in 37..301 {
                want.offer(hash_group_cols(&key_cols, i));
            }
            let mut got = SpaceSaving::new(HEAVY_HITTER_CAP);
            let mut stats = EvalStats::default();
            let source = ScanSource::of_segments(&file, None);
            sketch_keys(&source, 37..301, cols, &mut got, &mut stats).unwrap();
            assert_eq!(stats.segments_scanned, 5);
            assert_eq!(got.top(), want.top(), "{cols:?}");
            let mut mem = SpaceSaving::new(HEAVY_HITTER_CAP);
            let in_memory = ScanSource::of_table(&table);
            sketch_keys(&in_memory, 37..301, cols, &mut mem, &mut stats).unwrap();
            assert_eq!(mem.top(), want.top(), "{cols:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn site_state_requires_plan() {
        let (_net, mut eps) = skalla_net::SimNetwork::full_mesh(1, skalla_net::CostModel::free());
        let state = SiteState {
            endpoint: eps.pop().expect("site endpoint"),
            catalog: Catalog::new(),
            plan: None,
        };
        assert!(state.plan().is_err());
        let r = state.round(0, Relation::empty(Schema::empty().into_arc()), None, 0);
        assert!(r.is_err());
    }

    #[test]
    fn chunking_splits_and_flags_last() {
        let schema = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        let rel = Relation::new(
            schema.clone(),
            (0..10).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
        // No blocking: one last piece.
        let whole = chunk_relation(rel.clone(), None);
        assert_eq!(whole.len(), 1);
        assert!(whole[0].1);
        assert_eq!(whole[0].0.len(), 10);
        // Block of 4: 4 + 4 + 2, only final flagged last.
        let chunks = chunk_relation(rel.clone(), Some(4));
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].0.len(), 4);
        assert_eq!(chunks[2].0.len(), 2);
        assert_eq!(
            chunks.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
            vec![false, false, true]
        );
        // Rows preserved in order.
        assert_eq!(chunks[1].0.row(0)[0], Value::Int(4));
        // Block ≥ len: single last piece. Zero clamps to one row per chunk.
        assert_eq!(chunk_relation(rel.clone(), Some(100)).len(), 1);
        assert_eq!(chunk_relation(rel.clone(), Some(0)).len(), 10);
        // Empty relation: still one last piece.
        let empty = Relation::empty(schema);
        let chunks = chunk_relation(empty, Some(4));
        assert_eq!(chunks.len(), 1);
        assert!(chunks[0].1);
    }
}
