//! Local evaluation of one GMDJ operator.
//!
//! Conventional SQL group-by machinery does not apply to GMDJs because the
//! `RNG` sets of different base tuples may overlap (paper §2.2). The
//! evaluator here follows the centralized algorithms of [2, 7]:
//!
//! * **Hash strategy** — when `θᵢ` contains equi-join conjuncts
//!   `b.k = r.j`, index the base relation on those columns, probe with each
//!   detail tuple, and check the residual condition per candidate. This
//!   makes the common grouping conditions linear in `|R|`.
//! * **Nested-loop strategy** — the general fallback: every `(r, b)` pair is
//!   tested against `θᵢ`.
//!
//! Two output modes:
//!
//! * [`eval_gmdj_sub`] produces the *sub-aggregate* relation `Hᵢ` shipped to
//!   the coordinator during distributed rounds (state columns, optionally
//!   plus the `__rng_count` match counter of Proposition 1).
//! * [`eval_gmdj_full`] produces finalized output columns (used by the
//!   centralized reference evaluator); [`eval_gmdj_dual_source`] produces
//!   both, for local-only runs under synchronization reduction.
//!
//! Every evaluation is one scan of a [`ScanSource`] — an in-memory table,
//! a segment file, or a site's union of partition windows over both —
//! through one loop, so where the rows live never changes an answer.

use std::sync::Arc;

use skalla_expr::{analysis, eval_detail, eval_predicate, DetailBounds, Expr};
use skalla_storage::segment::{zone_may_contain_str, zone_may_overlap, SegmentFile, SegmentMeta};
use skalla_storage::{ColumnStats, HashIndex, Piece, ScanSource, Table};
use skalla_types::{DataType, Field, Relation, Result, Row, Schema, Value};

use crate::compiled::{compile_block, CompiledBlock, Detail};
use crate::op::{GmdjOp, MATCH_COUNT_COL};

/// Strategy selection for one GMDJ block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalStrategy {
    /// Hash when the condition has equi-join conjuncts, nested loop
    /// otherwise.
    #[default]
    Auto,
    /// Force the nested-loop strategy.
    NestedLoop,
    /// Force the hash strategy (error if no equi-join conjuncts exist — the
    /// caller should know).
    Hash,
}

/// Options for local evaluation.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Strategy selection.
    pub strategy: LocalStrategy,
    /// Piggyback a `__rng_count` column counting θ-matches per base tuple
    /// (distribution-independent group reduction, Proposition 1). Only
    /// meaningful in sub-aggregate mode.
    pub with_match_count: bool,
    /// Intra-site parallelism: split the detail scan across this many
    /// threads, each accumulating private sub-aggregate state, then merge
    /// (Theorem 1 applied *within* a site — state merging is associative).
    /// `0` or `1` evaluates serially.
    pub parallelism: usize,
    /// Use compiled batch kernels (`skalla_expr::compile`) when the detail
    /// source is columnar and the block's condition and aggregate arguments
    /// fall inside the compiled subset; blocks outside it fall back to the
    /// row-at-a-time interpreter automatically. On by default.
    pub compiled: bool,
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            strategy: LocalStrategy::default(),
            with_match_count: false,
            parallelism: 0,
            compiled: true,
        }
    }
}

/// Below this many detail rows the thread fan-out costs more than it saves.
const PARALLEL_MIN_ROWS: usize = 4096;

/// Counters describing one local evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Detail rows scanned (per block).
    pub detail_rows_scanned: u64,
    /// `(b, r)` pairs that satisfied a θ.
    pub matches: u64,
    /// Blocks evaluated with the hash strategy.
    pub blocks_hashed: u32,
    /// Blocks evaluated with the nested-loop strategy.
    pub blocks_nested: u32,
    /// Blocks evaluated through compiled batch kernels (a subset of the
    /// hashed/nested counts, which record the join strategy regardless of
    /// execution mode).
    pub blocks_compiled: u32,
    /// Segment reads: one per segment a scan decoded.
    pub segments_scanned: u64,
    /// Segments skipped because their zone maps refuted every block's θ.
    pub segments_pruned: u64,
    /// Column chunks whose CRC32C was verified by those reads (every
    /// column of each read segment, decoded or not).
    pub blocks_verified: u64,
}

impl EvalStats {
    /// Count one piece of a [`ScanSource::scan`]: a decoded segment is one
    /// read, which CRC-checked every chunk of the segment; a pruned one
    /// was not read. In-memory pieces read no segment.
    pub fn count(&mut self, piece: &Piece<'_>) {
        match piece {
            Piece::Segment(_, _, chunks) => {
                self.segments_scanned += 1;
                self.blocks_verified += chunks;
            }
            Piece::Pruned => self.segments_pruned += 1,
            Piece::Table(..) => {}
        }
    }
}

impl std::ops::AddAssign for EvalStats {
    fn add_assign(&mut self, o: EvalStats) {
        self.detail_rows_scanned += o.detail_rows_scanned;
        self.matches += o.matches;
        self.blocks_hashed += o.blocks_hashed;
        self.blocks_nested += o.blocks_nested;
        self.blocks_compiled += o.blocks_compiled;
        self.segments_scanned += o.segments_scanned;
        self.segments_pruned += o.segments_pruned;
        self.blocks_verified += o.blocks_verified;
    }
}

/// Row access to a detail relation, columnar or row-oriented: what the
/// OLAP base builders ([`crate::olap`]) read.
pub trait DetailSource: Sync {
    /// Number of rows.
    fn num_rows(&self) -> usize;
    /// Materialize row `i`.
    fn get_row(&self, i: usize) -> Row;
}

impl DetailSource for Table {
    fn num_rows(&self) -> usize {
        self.len()
    }
    fn get_row(&self, i: usize) -> Row {
        self.row(i)
    }
}

impl DetailSource for Relation {
    fn num_rows(&self) -> usize {
        self.len()
    }
    fn get_row(&self, i: usize) -> Row {
        self.row(i).clone()
    }
}

/// Evaluate `op` over (`base`, `detail`) producing **sub-aggregate state**
/// columns: schema = base fields ++ state fields (++ `__rng_count`).
/// `detail_schema` is `detail`'s schema.
pub fn eval_gmdj_sub(
    base: &Relation,
    detail: &Table,
    detail_schema: &Schema,
    op: &GmdjOp,
    opts: &EvalOptions,
) -> Result<(Relation, EvalStats)> {
    debug_assert_eq!(**detail.schema(), *detail_schema);
    eval_gmdj_sub_source(base, &ScanSource::of_table(detail), op, opts, false)
}

/// [`eval_gmdj_sub`] over rows `range` (all when `None`) of a segment
/// file, pruning segments by their zone maps when `prune` is set.
pub fn eval_gmdj_sub_segments(
    base: &Relation,
    file: &SegmentFile,
    op: &GmdjOp,
    opts: &EvalOptions,
    prune: bool,
    range: Option<(usize, usize)>,
) -> Result<(Relation, EvalStats)> {
    eval_gmdj_sub_source(base, &ScanSource::of_segments(file, range), op, opts, prune)
}

/// [`eval_gmdj_sub`] over any [`ScanSource`]: the site's `MD` round.
/// `prune` lets segment windows skip segments whose zone maps refute
/// every block's θ; pruned segments contribute no matches, so
/// `__rng_count` semantics are unchanged.
pub fn eval_gmdj_sub_source(
    base: &Relation,
    source: &ScanSource<'_>,
    op: &GmdjOp,
    opts: &EvalOptions,
    prune: bool,
) -> Result<(Relation, EvalStats)> {
    let (states, match_counts, stats) = accumulate(base, source, op, opts, prune)?;
    let rel = shape_sub(base, source.schema(), op, opts, &states, &match_counts)?;
    Ok((rel, stats))
}

/// Shape accumulated states as the sub-aggregate relation `Hᵢ`:
/// base fields ++ state fields (++ `__rng_count`).
fn shape_sub(
    base: &Relation,
    detail_schema: &Schema,
    op: &GmdjOp,
    opts: &EvalOptions,
    states: &[Vec<Value>],
    match_counts: &[u64],
) -> Result<Relation> {
    let mut fields = base.schema().fields().to_vec();
    fields.extend(op.state_fields(detail_schema)?);
    if opts.with_match_count {
        fields.push(Field::new(MATCH_COUNT_COL, DataType::Int64));
    }
    let schema = Arc::new(Schema::new(fields)?);

    let mut rows = Vec::with_capacity(base.len());
    for (i, b) in base.rows().iter().enumerate() {
        let mut row = b.clone();
        row.extend(states[i].iter().cloned());
        if opts.with_match_count {
            row.push(Value::Int(match_counts[i] as i64));
        }
        rows.push(row);
    }
    Ok(Relation::from_rows_unchecked(schema, rows))
}

/// Shape accumulated states as the finalized relation:
/// base fields ++ output fields.
fn shape_full(
    base: &Relation,
    detail_schema: &Schema,
    op: &GmdjOp,
    states: &[Vec<Value>],
) -> Result<Relation> {
    let mut fields = base.schema().fields().to_vec();
    fields.extend(op.output_fields(detail_schema)?);
    let schema = Arc::new(Schema::new(fields)?);

    let mut rows = Vec::with_capacity(base.len());
    for (i, b) in base.rows().iter().enumerate() {
        let mut row = b.clone();
        let mut offset = 0;
        for spec in op.all_aggs() {
            let w = spec.state_width();
            row.push(spec.finalize(&states[i][offset..offset + w])?);
            offset += w;
        }
        rows.push(row);
    }
    Ok(Relation::from_rows_unchecked(schema, rows))
}

/// Evaluate `op` over (`base`, `detail`) producing **finalized** output
/// columns: schema = base fields ++ output fields. `detail_schema` is
/// `detail`'s schema.
pub fn eval_gmdj_full(
    base: &Relation,
    detail: &Table,
    detail_schema: &Schema,
    op: &GmdjOp,
    opts: &EvalOptions,
) -> Result<(Relation, EvalStats)> {
    let (states, _, stats) = accumulate(base, &ScanSource::of_table(detail), op, opts, false)?;
    let rel = shape_full(base, detail_schema, op, &states)?;
    Ok((rel, stats))
}

/// Result of [`eval_gmdj_dual_source`]: both views of one accumulation
/// pass.
#[derive(Debug, Clone)]
pub struct DualResult {
    /// Finalized relation (base fields ++ output fields) — the base for the
    /// next operator in a local-only run.
    pub full: Relation,
    /// Raw per-base-row aggregate state (concatenated across aggregates) —
    /// the sub-aggregates to ship to the coordinator.
    pub states: Vec<Vec<Value>>,
    /// θ-match count per base row (`|RNG| > 0` detection, Proposition 1).
    pub match_counts: Vec<u64>,
    /// Evaluation counters.
    pub stats: EvalStats,
}

/// Evaluate `op` once over `source`, pruning as [`eval_gmdj_sub_source`]
/// does, and return both the finalized relation and the raw
/// sub-aggregate state. Used by sites executing a synchronization-reduced
/// local run (paper §4.3): the finalized view feeds the next operator
/// locally while the state columns are what ultimately gets shipped.
pub fn eval_gmdj_dual_source(
    base: &Relation,
    source: &ScanSource<'_>,
    op: &GmdjOp,
    opts: &EvalOptions,
    prune: bool,
) -> Result<DualResult> {
    let (states, match_counts, stats) = accumulate(base, source, op, opts, prune)?;
    let full = shape_full(base, source.schema(), op, &states)?;
    Ok(DualResult {
        full,
        states,
        match_counts,
        stats,
    })
}

/// Per-base-row aggregate state, the θ-match counts, and scan counters —
/// the raw product of one accumulation pass.
type Accumulated = (Vec<Vec<Value>>, Vec<u64>, EvalStats);

/// The one scan: accumulate `op` over every row of `source`.
///
/// The rows are cut into worker ranges — one when the options are serial
/// or the source is too small to amortize a fan-out, else `parallelism`
/// equal ranges, each on its own thread with private state. A range walks
/// its pieces in row order through one running [`Fold`], built once per
/// range: `op` is rewritten onto the columns it reads
/// ([`GmdjOp::project_detail`]), in-memory windows are read in place
/// through that projection, segments are decoded to just those columns,
/// and — under `prune` — segments whose zone maps refute every block are
/// skipped unread. Ranges then merge in worker order. The fold order
/// depends only on the row order and the range cuts, never on where the
/// rows live, so a table, its segment file and any union of windows over
/// them agree bit for bit, non-associative float rounding included;
/// pruned segments contribute identity, which is rounding-neutral.
///
/// A segment straddling two ranges is read once by each, and each read
/// is counted; at `parallelism` 1 every visited segment is read once.
fn accumulate(
    base: &Relation,
    source: &ScanSource<'_>,
    op: &GmdjOp,
    opts: &EvalOptions,
    prune: bool,
) -> Result<Accumulated> {
    let bounds: Vec<DetailBounds> = if prune {
        op.blocks
            .iter()
            .map(|b| analysis::detail_bounds(&b.theta))
            .collect()
    } else {
        Vec::new()
    };
    let refuted = |meta: &SegmentMeta| {
        !bounds.is_empty() && bounds.iter().all(|b| zones_refute(&meta.zones, b))
    };
    let (cols, projected) = op.project_detail(source.schema().len())?;
    let detail_schema = source.schema().project(&cols)?;
    let n = source.rows();
    let par = opts.parallelism.max(1);
    let chunk = if par == 1 || n < PARALLEL_MIN_ROWS.max(2 * par) {
        n.max(1)
    } else {
        n.div_ceil(par)
    };
    let scan_range = |lo: usize| -> Result<Accumulated> {
        let mut fold = Fold::new(base, &projected, &detail_schema, opts);
        source.scan(lo..n.min(lo + chunk), &cols, refuted, |piece| {
            fold.stats.count(&piece);
            match piece {
                Piece::Table(table, rows) => fold.feed(&Detail {
                    table,
                    cols: Some(&cols),
                    rows,
                }),
                Piece::Segment(table, rows, _) => fold.feed(&Detail {
                    table,
                    cols: None,
                    rows,
                }),
                Piece::Pruned => Ok(()),
            }
        })?;
        Ok(fold.finish())
    };
    let starts: Vec<usize> = (0..n.max(1)).step_by(chunk).collect();
    let partials: Vec<Result<Accumulated>> = if starts.len() == 1 {
        vec![scan_range(0)]
    } else {
        let scan_range = &scan_range;
        std::thread::scope(|scope| {
            let handles: Vec<_> = starts
                .iter()
                .map(|&lo| scope.spawn(move || scan_range(lo)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(skalla_types::SkallaError::exec("worker panicked")))
                })
                .collect()
        })
    };

    let mut iter = partials.into_iter();
    let (mut states, mut match_counts, mut stats) = iter.next().expect("at least one range")?;
    for partial in iter {
        let (pstates, pcounts, pstats) = partial?;
        merge_partial_states(op, &mut states, &mut match_counts, pstates, &pcounts)?;
        stats += pstats;
    }
    Ok((states, match_counts, stats))
}

/// Merge a partial accumulation into `states`/`match_counts` (Theorem 1:
/// sub-aggregate state merging is associative, so worker ranges combine
/// in any grouping).
fn merge_partial_states(
    op: &GmdjOp,
    states: &mut [Vec<Value>],
    match_counts: &mut [u64],
    pstates: Vec<Vec<Value>>,
    pcounts: &[u64],
) -> Result<()> {
    for (i, pstate) in pstates.into_iter().enumerate() {
        let state = &mut states[i];
        let mut off = 0;
        for spec in op.all_aggs() {
            let w = spec.state_width();
            spec.merge(&mut state[off..off + w], &pstate[off..off + w])?;
            off += w;
        }
        match_counts[i] += pcounts[i];
    }
    Ok(())
}

/// Fresh per-base-row aggregate states (every aggregate at its identity).
fn init_states(base: &Relation, op: &GmdjOp) -> Vec<Vec<Value>> {
    let total_width = op.state_width();
    (0..base.len())
        .map(|_| {
            let mut s = Vec::with_capacity(total_width);
            for spec in op.all_aggs() {
                s.extend(spec.init_state());
            }
            s
        })
        .collect()
}

/// How one block runs over a worker range.
enum BlockFold {
    /// Lowered onto compiled kernels, with typed state.
    Compiled(Box<CompiledBlock>),
    /// Interpreted, probing an index of the base groups with each detail
    /// row and checking `residual` (absent when θ is only the pairs) per
    /// candidate.
    Hash {
        detail_key_cols: Vec<usize>,
        residual: Option<Expr>,
        index: HashIndex,
    },
    /// Interpreted, testing θ on every (base, detail) pair.
    Nested,
}

/// One worker range's running accumulation of an operator: each block's
/// strategy, join index and compiled kernels are set up once, then every
/// piece of the range folds into the same state. Feeding a scan in
/// consecutive stretches is *bit-identical* to one call over their
/// concatenation — every row updates the same running state in the same
/// order, so even non-associative float rounding agrees. [`accumulate`]
/// depends on this.
struct Fold<'a> {
    base: &'a Relation,
    op: &'a GmdjOp,
    /// Per block: how it runs, and the state offset of its first aggregate.
    blocks: Vec<(BlockFold, usize)>,
    states: Vec<Vec<Value>>,
    match_counts: Vec<u64>,
    stats: EvalStats,
    /// Whether any rows were fed (a range whose segments were all pruned
    /// evaluates no block).
    fed: bool,
}

impl<'a> Fold<'a> {
    /// Set up `op` (over detail rows of `detail_schema`) for one range.
    fn new(
        base: &'a Relation,
        op: &'a GmdjOp,
        detail_schema: &Schema,
        opts: &EvalOptions,
    ) -> Fold<'a> {
        let mut blocks = Vec::with_capacity(op.blocks.len());
        let mut off = 0;
        for block in &op.blocks {
            let pairs = match opts.strategy {
                LocalStrategy::Auto | LocalStrategy::Hash => analysis::equality_pairs(&block.theta),
                LocalStrategy::NestedLoop => Vec::new(),
            };
            let compiled = opts
                .compiled
                .then(|| compile_block(block, &pairs, base, detail_schema, off))
                .flatten();
            let fold = match compiled {
                Some(cb) => BlockFold::Compiled(Box::new(cb)),
                None if pairs.is_empty() => BlockFold::Nested,
                None => {
                    let base_key_cols: Vec<usize> = pairs.iter().map(|p| p.base_col).collect();
                    let residual = analysis::residual_without_pairs(&block.theta, &pairs);
                    BlockFold::Hash {
                        detail_key_cols: pairs.iter().map(|p| p.detail_col).collect(),
                        residual: (residual != Expr::lit(true)).then_some(residual),
                        index: HashIndex::build_from_rows(base.rows().iter(), &base_key_cols),
                    }
                }
            };
            blocks.push((fold, off));
            off += block.aggs.iter().map(|a| a.state_width()).sum::<usize>();
        }
        Fold {
            base,
            op,
            blocks,
            states: init_states(base, op),
            match_counts: vec![0; base.len()],
            stats: EvalStats::default(),
            fed: false,
        }
    }

    /// Accumulate every row of `detail`, continuing from the running state.
    fn feed(&mut self, detail: &Detail<'_>) -> Result<()> {
        self.fed = true;
        let base = self.base;
        let n_detail = detail.rows.len();
        for (block, (fold, block_off)) in self.op.blocks.iter().zip(&mut self.blocks) {
            self.stats.detail_rows_scanned += n_detail as u64;
            let (index, detail_key_cols, residual) = match fold {
                BlockFold::Compiled(cb) => {
                    cb.run(block, base, detail, &mut self.match_counts, &mut self.stats)?;
                    continue;
                }
                BlockFold::Hash {
                    detail_key_cols,
                    residual,
                    index,
                } => (Some(&*index), &detail_key_cols[..], residual.as_ref()),
                BlockFold::Nested => (None, &[][..], None),
            };

            // Precompute per-detail-row argument values for each aggregate in
            // the block (arguments are detail-only, so this is shared across all
            // matching base tuples).
            let mut arg_vals: Vec<Option<Vec<Value>>> = Vec::with_capacity(block.aggs.len());
            for spec in &block.aggs {
                match &spec.arg {
                    None => arg_vals.push(None),
                    Some(e) => {
                        let mut vals = Vec::with_capacity(n_detail);
                        for i in 0..n_detail {
                            vals.push(eval_detail(e, &detail.row(i))?);
                        }
                        arg_vals.push(Some(vals));
                    }
                }
            }

            let mut hit = |bi: usize, i: usize| -> Result<()> {
                self.stats.matches += 1;
                self.match_counts[bi] += 1;
                accumulate_row(block, *block_off, &mut self.states[bi], &arg_vals, i)
            };
            match index {
                Some(index) => {
                    let mut key: Row = Vec::with_capacity(detail_key_cols.len());
                    for i in 0..n_detail {
                        let r = detail.row(i);
                        key.clear();
                        // NULL keys never join (SQL equality semantics).
                        if detail_key_cols.iter().any(|&c| r[c].is_null()) {
                            continue;
                        }
                        key.extend(detail_key_cols.iter().map(|&c| r[c].clone()));
                        for &bi in index.get(&key) {
                            let bi = bi as usize;
                            let b = &base.rows()[bi];
                            if residual.map_or(Ok(true), |e| eval_predicate(e, b, &r))? {
                                hit(bi, i)?;
                            }
                        }
                    }
                }
                None => {
                    for i in 0..n_detail {
                        let r = detail.row(i);
                        for (bi, b) in base.rows().iter().enumerate() {
                            if eval_predicate(&block.theta, b, &r)? {
                                hit(bi, i)?;
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The range's accumulation: compiled blocks' typed state converted
    /// into `Value` cells, and each block counted once if rows were fed.
    fn finish(mut self) -> Accumulated {
        for (fold, _) in &self.blocks {
            if self.fed {
                match fold {
                    BlockFold::Compiled(cb) => {
                        if cb.is_hash() {
                            self.stats.blocks_hashed += 1;
                        } else {
                            self.stats.blocks_nested += 1;
                        }
                        self.stats.blocks_compiled += 1;
                    }
                    BlockFold::Hash { .. } => self.stats.blocks_hashed += 1,
                    BlockFold::Nested => self.stats.blocks_nested += 1,
                }
            }
            if let BlockFold::Compiled(cb) = fold {
                cb.write_states(&mut self.states);
            }
        }
        (self.states, self.match_counts, self.stats)
    }
}

/// `true` when the zone maps prove no row of the segment can satisfy the
/// bounds (every bound is a *necessary* condition on matching rows, so one
/// refuted bound refutes the whole conjunction).
fn zones_refute(zones: &[ColumnStats], bounds: &DetailBounds) -> bool {
    bounds
        .num
        .iter()
        .any(|(c, iv)| zones.get(*c).is_some_and(|z| !zone_may_overlap(z, iv)))
        || bounds
            .str_eq
            .iter()
            .any(|(c, s)| zones.get(*c).is_some_and(|z| !zone_may_contain_str(z, s)))
}

fn accumulate_row(
    block: &crate::op::GmdjBlock,
    block_off: usize,
    state: &mut [Value],
    arg_vals: &[Option<Vec<Value>>],
    detail_row: usize,
) -> Result<()> {
    let mut off = block_off;
    for (spec, vals) in block.aggs.iter().zip(arg_vals) {
        let w = spec.state_width();
        let v = match vals {
            None => &Value::Null, // COUNT(*): value unused
            Some(vs) => &vs[detail_row],
        };
        spec.accumulate(&mut state[off..off + w], v)?;
        off += w;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;
    use crate::op::GmdjBlock;
    use skalla_storage::Table;

    fn detail_schema() -> Arc<Schema> {
        Schema::from_pairs([
            ("sas", DataType::Int64),
            ("das", DataType::Int64),
            ("nb", DataType::Int64),
        ])
        .unwrap()
        .into_arc()
    }

    fn flow() -> Table {
        Table::from_rows(
            detail_schema(),
            &[
                vec![Value::Int(1), Value::Int(10), Value::Int(100)],
                vec![Value::Int(1), Value::Int(10), Value::Int(300)],
                vec![Value::Int(2), Value::Int(20), Value::Int(50)],
                vec![Value::Int(1), Value::Int(20), Value::Int(75)],
            ],
        )
        .unwrap()
    }

    fn base() -> Relation {
        flow().distinct_project(&[0, 1]).unwrap()
    }

    fn count_sum_op() -> GmdjOp {
        GmdjOp::new(vec![GmdjBlock::new(
            vec![
                AggSpec::count_star("cnt"),
                AggSpec::sum(Expr::detail(2), "sum").unwrap(),
            ],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::base(1).eq(Expr::detail(1))),
        )])
    }

    #[test]
    fn full_eval_groups_correctly() {
        let (out, stats) = eval_gmdj_full(
            &base(),
            &flow(),
            &detail_schema(),
            &count_sum_op(),
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.schema().names(), vec!["sas", "das", "cnt", "sum"]);
        let sorted = out.sorted();
        // (1,10): cnt 2, sum 400; (1,20): cnt 1, sum 75; (2,20): cnt 1, sum 50.
        assert_eq!(
            sorted.row(0),
            &vec![
                Value::Int(1),
                Value::Int(10),
                Value::Int(2),
                Value::Int(400)
            ]
        );
        assert_eq!(
            sorted.row(1),
            &vec![Value::Int(1), Value::Int(20), Value::Int(1), Value::Int(75)]
        );
        assert_eq!(
            sorted.row(2),
            &vec![Value::Int(2), Value::Int(20), Value::Int(1), Value::Int(50)]
        );
        assert_eq!(stats.blocks_hashed, 1);
        assert_eq!(stats.blocks_nested, 0);
        assert_eq!(stats.matches, 4);
    }

    #[test]
    fn nested_loop_agrees_with_hash() {
        let opts_nl = EvalOptions {
            strategy: LocalStrategy::NestedLoop,
            ..Default::default()
        };
        let (a, sa) = eval_gmdj_full(
            &base(),
            &flow(),
            &detail_schema(),
            &count_sum_op(),
            &EvalOptions::default(),
        )
        .unwrap();
        let (b, sb) = eval_gmdj_full(
            &base(),
            &flow(),
            &detail_schema(),
            &count_sum_op(),
            &opts_nl,
        )
        .unwrap();
        assert_eq!(a.sorted(), b.sorted());
        assert_eq!(sa.matches, sb.matches);
        assert_eq!(sb.blocks_nested, 1);
    }

    #[test]
    fn sub_eval_ships_state_and_match_count() {
        let opts = EvalOptions {
            with_match_count: true,
            ..Default::default()
        };
        let (out, _) =
            eval_gmdj_sub(&base(), &flow(), &detail_schema(), &count_sum_op(), &opts).unwrap();
        assert_eq!(
            out.schema().names(),
            vec!["sas", "das", "cnt", "sum", MATCH_COUNT_COL]
        );
        // Every group matched at least once here.
        for r in out.rows() {
            assert!(r[4].as_int().unwrap() > 0);
        }
    }

    #[test]
    fn unmatched_groups_have_zero_match_count() {
        // Base has a group that the (empty-ish) detail can't match.
        let extra_base = {
            let mut b = base();
            b.push(vec![Value::Int(99), Value::Int(99)]).unwrap();
            b
        };
        let opts = EvalOptions {
            with_match_count: true,
            ..Default::default()
        };
        let (out, _) = eval_gmdj_sub(
            &extra_base,
            &flow(),
            &detail_schema(),
            &count_sum_op(),
            &opts,
        )
        .unwrap();
        let unmatched: Vec<_> = out
            .rows()
            .iter()
            .filter(|r| r[0] == Value::Int(99))
            .collect();
        assert_eq!(unmatched.len(), 1);
        assert_eq!(unmatched[0][4], Value::Int(0)); // __rng_count
        assert_eq!(unmatched[0][2], Value::Int(0)); // COUNT over empty = 0
        assert_eq!(unmatched[0][3], Value::Null); // SUM over empty = NULL
    }

    #[test]
    fn correlated_condition_uses_prior_aggregates() {
        // Base already carries cnt/sum; θ₂: nb >= sum/cnt (Example 1 round 2).
        let (b1, _) = eval_gmdj_full(
            &base(),
            &flow(),
            &detail_schema(),
            &count_sum_op(),
            &EvalOptions::default(),
        )
        .unwrap();
        let md2 = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("cnt2")],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::base(1).eq(Expr::detail(1)))
                .and(Expr::detail(2).ge(Expr::base(3).div(Expr::base(2)))),
        )]);
        let (out, _) = eval_gmdj_full(
            &b1,
            &flow(),
            &detail_schema(),
            &md2,
            &EvalOptions::default(),
        )
        .unwrap();
        let sorted = out.sorted();
        // (1,10): avg 200 → nb ∈ {100,300}, only 300 ≥ 200 → cnt2 = 1.
        assert_eq!(sorted.row(0)[4], Value::Int(1));
        // (1,20): avg 75 → 75 ≥ 75 → 1. (2,20): avg 50 → 1.
        assert_eq!(sorted.row(1)[4], Value::Int(1));
        assert_eq!(sorted.row(2)[4], Value::Int(1));
    }

    #[test]
    fn multi_block_op_accumulates_separately() {
        let op = GmdjOp::new(vec![
            GmdjBlock::new(
                vec![AggSpec::count_star("all_cnt")],
                Expr::base(0).eq(Expr::detail(0)),
            ),
            GmdjBlock::new(
                vec![AggSpec::count_star("big_cnt")],
                Expr::base(0)
                    .eq(Expr::detail(0))
                    .and(Expr::detail(2).gt(Expr::lit(90))),
            ),
        ]);
        let b = flow().distinct_project(&[0]).unwrap();
        let (out, _) =
            eval_gmdj_full(&b, &flow(), &detail_schema(), &op, &EvalOptions::default()).unwrap();
        let sorted = out.sorted();
        // sas=1: 3 rows, 2 with nb>90; sas=2: 1 row, 0 with nb>90.
        assert_eq!(
            sorted.row(0),
            &vec![Value::Int(1), Value::Int(3), Value::Int(2)]
        );
        assert_eq!(
            sorted.row(1),
            &vec![Value::Int(2), Value::Int(1), Value::Int(0)]
        );
    }

    #[test]
    fn null_join_keys_never_match() {
        let schema = detail_schema();
        let t = Table::from_rows(
            schema.clone(),
            &[
                vec![Value::Int(1), Value::Int(10), Value::Int(5)],
                vec![Value::Null, Value::Int(10), Value::Int(7)],
            ],
        )
        .unwrap();
        let b = Relation::new(
            Arc::new(schema.project(&[0]).unwrap()),
            vec![vec![Value::Int(1)], vec![Value::Null]],
        )
        .unwrap();
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("c")],
            Expr::base(0).eq(Expr::detail(0)),
        )]);
        // Hash and nested loop must agree: NULL = NULL is not TRUE.
        for strat in [LocalStrategy::Auto, LocalStrategy::NestedLoop] {
            let opts = EvalOptions {
                strategy: strat,
                ..Default::default()
            };
            let (out, _) = eval_gmdj_full(&b, &t, &schema, &op, &opts).unwrap();
            let sorted = out.sorted();
            assert_eq!(sorted.row(0), &vec![Value::Null, Value::Int(0)]);
            assert_eq!(sorted.row(1), &vec![Value::Int(1), Value::Int(1)]);
        }
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        // Large enough to cross PARALLEL_MIN_ROWS, with float AVG state to
        // exercise partial-state merging.
        let schema = detail_schema();
        let rows: Vec<Vec<Value>> = (0..10_000)
            .map(|i| {
                vec![
                    Value::Int(i % 13),
                    Value::Int(i % 7),
                    Value::Int((i * 31) % 997),
                ]
            })
            .collect();
        let t = Table::from_rows(schema.clone(), &rows).unwrap();
        let b = t.distinct_project(&[0, 1]).unwrap();
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![
                AggSpec::count_star("c"),
                AggSpec::sum(Expr::detail(2), "s").unwrap(),
                AggSpec::min(Expr::detail(2), "mn").unwrap(),
                AggSpec::max(Expr::detail(2), "mx").unwrap(),
                AggSpec::avg(Expr::detail(2), "av").unwrap(),
            ],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::base(1).eq(Expr::detail(1))),
        )]);
        let serial = eval_gmdj_full(&b, &t, &schema, &op, &EvalOptions::default()).unwrap();
        for par in [2usize, 3, 8] {
            let opts = EvalOptions {
                parallelism: par,
                ..Default::default()
            };
            let (out, stats) = eval_gmdj_full(&b, &t, &schema, &op, &opts).unwrap();
            assert_eq!(out.sorted(), serial.0.sorted(), "parallelism {par}");
            assert_eq!(stats.matches, serial.1.matches);
            assert_eq!(stats.detail_rows_scanned, serial.1.detail_rows_scanned);
        }
        // Match counts survive parallel merging too.
        let opts = EvalOptions {
            parallelism: 4,
            with_match_count: true,
            ..Default::default()
        };
        let (sub_par, _) = eval_gmdj_sub(&b, &t, &schema, &op, &opts).unwrap();
        let opts_serial = EvalOptions {
            with_match_count: true,
            ..Default::default()
        };
        let (sub_ser, _) = eval_gmdj_sub(&b, &t, &schema, &op, &opts_serial).unwrap();
        assert_eq!(sub_par.sorted(), sub_ser.sorted());
    }

    #[test]
    fn small_inputs_stay_serial() {
        // Below the threshold the parallel request falls back to the serial
        // path (observable only through identical results — this pins the
        // no-crash behaviour for tiny inputs and parallelism > rows).
        let opts = EvalOptions {
            parallelism: 64,
            ..Default::default()
        };
        let (out, _) =
            eval_gmdj_full(&base(), &flow(), &detail_schema(), &count_sum_op(), &opts).unwrap();
        let (reference, _) = eval_gmdj_full(
            &base(),
            &flow(),
            &detail_schema(),
            &count_sum_op(),
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(out.sorted(), reference.sorted());
    }

    /// The default options route supported blocks through compiled kernels;
    /// disabling compilation must give identical results and identical
    /// strategy counters.
    #[test]
    fn compiled_path_agrees_with_interpreter() {
        let op = GmdjOp::new(vec![
            GmdjBlock::new(
                vec![
                    AggSpec::count_star("c"),
                    AggSpec::sum(Expr::detail(2), "s").unwrap(),
                    AggSpec::min(Expr::detail(2), "mn").unwrap(),
                    AggSpec::max(Expr::detail(2), "mx").unwrap(),
                    AggSpec::avg(Expr::detail(2), "av").unwrap(),
                ],
                Expr::base(0)
                    .eq(Expr::detail(0))
                    .and(Expr::base(1).eq(Expr::detail(1))),
            ),
            GmdjBlock::new(
                vec![AggSpec::count_star("big")],
                Expr::base(0)
                    .eq(Expr::detail(0))
                    .and(Expr::detail(2).gt(Expr::lit(60))),
            ),
        ]);
        let compiled_opts = EvalOptions::default();
        assert!(compiled_opts.compiled);
        let interp_opts = EvalOptions {
            compiled: false,
            ..Default::default()
        };
        let (a, sa) =
            eval_gmdj_full(&base(), &flow(), &detail_schema(), &op, &compiled_opts).unwrap();
        let (b, sb) =
            eval_gmdj_full(&base(), &flow(), &detail_schema(), &op, &interp_opts).unwrap();
        assert_eq!(a.sorted(), b.sorted());
        assert_eq!(sa.matches, sb.matches);
        assert_eq!(sa.blocks_hashed, sb.blocks_hashed);
        // Block 1 is a pure equi-join; block 2 carries a hash residual,
        // which the compiled probe checks on its probed pairs. Both compile.
        assert_eq!(sa.blocks_compiled, 2);
        assert_eq!(sb.blocks_compiled, 0);
    }

    /// A nested-loop block with an inequality-only θ compiles to a
    /// predicate-bitmap scan.
    #[test]
    fn compiled_nested_loop_predicate() {
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("lt_cnt")],
            Expr::detail(2).lt(Expr::base(2)),
        )]);
        let b = Relation::new(
            Arc::new(
                Schema::from_pairs([
                    ("sas", DataType::Int64),
                    ("das", DataType::Int64),
                    ("cap", DataType::Int64),
                ])
                .unwrap(),
            ),
            vec![
                vec![Value::Int(1), Value::Int(10), Value::Int(80)],
                vec![Value::Int(2), Value::Int(20), Value::Int(500)],
            ],
        )
        .unwrap();
        let (out, stats) =
            eval_gmdj_full(&b, &flow(), &detail_schema(), &op, &EvalOptions::default()).unwrap();
        assert_eq!(stats.blocks_compiled, 1);
        assert_eq!(stats.blocks_nested, 1);
        let sorted = out.sorted();
        // nb values: 100, 300, 50, 75 → (<80): 2 rows; (<500): 4 rows.
        assert_eq!(sorted.row(0)[3], Value::Int(2));
        assert_eq!(sorted.row(1)[3], Value::Int(4));
        // Interpreter agrees.
        let (out2, s2) = eval_gmdj_full(
            &b,
            &flow(),
            &detail_schema(),
            &op,
            &EvalOptions {
                compiled: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.sorted(), out2.sorted());
        assert_eq!(s2.blocks_compiled, 0);
    }

    /// Parallel fan-out hands each worker a table window; the compiled path
    /// must count once per worker-block and still merge correctly.
    #[test]
    fn parallel_compiled_matches_serial() {
        let schema = detail_schema();
        let rows: Vec<Vec<Value>> = (0..8_192)
            .map(|i| {
                vec![
                    Value::Int(i % 5),
                    Value::Int(i % 3),
                    Value::Int((i * 37) % 211),
                ]
            })
            .collect();
        let t = Table::from_rows(schema.clone(), &rows).unwrap();
        let b = t.distinct_project(&[0, 1]).unwrap();
        let op = count_sum_op();
        let serial = eval_gmdj_full(&b, &t, &schema, &op, &EvalOptions::default()).unwrap();
        assert_eq!(serial.1.blocks_compiled, 1);
        let opts = EvalOptions {
            parallelism: 4,
            ..Default::default()
        };
        let (out, stats) = eval_gmdj_full(&b, &t, &schema, &op, &opts).unwrap();
        assert_eq!(out.sorted(), serial.0.sorted());
        assert!(stats.blocks_compiled >= 1);
    }

    /// NULL detail values flow through compiled kernels: null join keys
    /// never match, and null aggregate arguments are skipped by SUM.
    #[test]
    fn compiled_handles_null_keys_and_args() {
        let schema = detail_schema();
        let t = Table::from_rows(
            schema.clone(),
            &[
                vec![Value::Int(1), Value::Int(10), Value::Int(5)],
                vec![Value::Null, Value::Int(10), Value::Int(7)],
                vec![Value::Int(1), Value::Int(10), Value::Null],
            ],
        )
        .unwrap();
        let b = Relation::new(
            Arc::new(schema.project(&[0]).unwrap()),
            vec![vec![Value::Int(1)], vec![Value::Null]],
        )
        .unwrap();
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![
                AggSpec::count_star("c"),
                AggSpec::sum(Expr::detail(2), "s").unwrap(),
            ],
            Expr::base(0).eq(Expr::detail(0)),
        )]);
        let (out, stats) = eval_gmdj_full(&b, &t, &schema, &op, &EvalOptions::default()).unwrap();
        assert_eq!(stats.blocks_compiled, 1);
        let sorted = out.sorted();
        // NULL base key matches nothing; group 1 sees rows {5, NULL}.
        assert_eq!(
            sorted.row(0),
            &vec![Value::Null, Value::Int(0), Value::Null]
        );
        assert_eq!(
            sorted.row(1),
            &vec![Value::Int(1), Value::Int(2), Value::Int(5)]
        );
    }

    fn write_flow_segments(name: &str, t: &Table, seg_rows: usize) -> SegmentFile {
        let dir =
            std::env::temp_dir().join(format!("skalla-gmdj-seg-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.seg");
        skalla_storage::write_segments(&path, t, seg_rows).unwrap();
        SegmentFile::open(&path).unwrap()
    }

    #[test]
    fn segmented_eval_matches_in_memory() {
        let schema = detail_schema();
        let rows: Vec<Vec<Value>> = (0..5_000)
            .map(|i| {
                vec![
                    Value::Int(i % 13),
                    Value::Int(i % 7),
                    Value::Int(i), // monotone → prunable under range θ
                ]
            })
            .collect();
        let t = Table::from_rows(schema.clone(), &rows).unwrap();
        let b = t.distinct_project(&[0, 1]).unwrap();
        let file = write_flow_segments("match", &t, 512);
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![
                AggSpec::count_star("c"),
                AggSpec::sum(Expr::detail(2), "s").unwrap(),
            ],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::base(1).eq(Expr::detail(1)))
                .and(Expr::detail(2).lt(Expr::lit(1000))),
        )]);
        let opts = EvalOptions {
            with_match_count: true,
            ..Default::default()
        };
        let (mem, _) = eval_gmdj_sub(&b, &t, &schema, &op, &opts).unwrap();
        let (seg, sc) = eval_gmdj_sub_segments(&b, &file, &op, &opts, true, None).unwrap();
        assert_eq!(seg.sorted(), mem.sorted());
        // nb < 1000 covers segments 0..2 (rows 0..1024): 2 scanned, 8 pruned.
        assert_eq!(sc.segments_scanned, 2);
        assert_eq!(sc.segments_pruned, 8);
        // Pruning off scans everything and still agrees.
        let (seg2, sc2) = eval_gmdj_sub_segments(&b, &file, &op, &opts, false, None).unwrap();
        assert_eq!(seg2.sorted(), mem.sorted());
        assert_eq!(sc2.segments_scanned, 10);
        assert_eq!(sc2.segments_pruned, 0);
    }

    #[test]
    fn segmented_range_matches_row_range() {
        let schema = detail_schema();
        let rows: Vec<Vec<Value>> = (0..3_000)
            .map(|i| {
                vec![
                    Value::Int(i % 5),
                    Value::Int(i % 3),
                    Value::Int(i * 7 % 999),
                ]
            })
            .collect();
        let t = Table::from_rows(schema.clone(), &rows).unwrap();
        let b = t.distinct_project(&[0]).unwrap();
        let file = write_flow_segments("range", &t, 256);
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::sum(Expr::detail(2), "s").unwrap()],
            Expr::base(0).eq(Expr::detail(0)),
        )]);
        let opts = EvalOptions::default();
        // A window cutting through segment interiors (300..2050).
        let window = t.row_range(300, 2050).unwrap();
        let (mem, _) = eval_gmdj_full(&b, &window, &schema, &op, &opts).unwrap();
        let source = ScanSource::of_segments(&file, Some((300, 2050)));
        let dual_seg = eval_gmdj_dual_source(&b, &source, &op, &opts, true).unwrap();
        assert_eq!(dual_seg.full.sorted(), mem.sorted());
        // Rows 300..2050 touch segments 1..=8 of 12.
        let sc = dual_seg.stats;
        assert_eq!(sc.segments_scanned + sc.segments_pruned, 8);
        let dual_mem =
            eval_gmdj_dual_source(&b, &ScanSource::of_table(&window), &op, &opts, false).unwrap();
        assert_eq!(dual_seg.full.sorted(), dual_mem.full.sorted());
        assert_eq!(dual_seg.states, dual_mem.states);
        assert_eq!(dual_seg.match_counts, dual_mem.match_counts);
    }

    #[test]
    fn segmented_pruning_never_drops_matches() {
        // NaN/-0.0 payloads + a predicate riding the run boundary: the zone
        // check must keep every segment that holds a matching row.
        let schema = Schema::from_pairs([("g", DataType::Int64), ("x", DataType::Float64)])
            .unwrap()
            .into_arc();
        let rows: Vec<Vec<Value>> = (0..2_000)
            .map(|i| {
                vec![
                    Value::Int(i % 4),
                    if i % 41 == 0 {
                        Value::Float(f64::NAN)
                    } else if i % 29 == 0 {
                        Value::Float(-0.0)
                    } else if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Float((i as f64) - 1000.0)
                    },
                ]
            })
            .collect();
        let t = Table::from_rows(schema.clone(), &rows).unwrap();
        let b = t.distinct_project(&[0]).unwrap();
        let file = write_flow_segments("nan", &t, 128);
        for theta_extra in [
            Expr::detail(1).ge(Expr::lit(0.0)),
            Expr::detail(1).lt(Expr::lit(-500.0)),
            Expr::detail(1).eq(Expr::lit(-0.0)),
        ] {
            let op = GmdjOp::new(vec![GmdjBlock::new(
                vec![AggSpec::count_star("c")],
                Expr::base(0).eq(Expr::detail(0)).and(theta_extra),
            )]);
            let opts = EvalOptions::default();
            let (mem, _) = eval_gmdj_full(&b, &t, &schema, &op, &opts).unwrap();
            let source = ScanSource::of_segments(&file, None);
            let seg = eval_gmdj_dual_source(&b, &source, &op, &opts, true).unwrap();
            assert_eq!(seg.full.sorted(), mem.sorted());
        }
    }

    #[test]
    fn empty_detail_yields_identity_aggregates() {
        let t = Table::empty(detail_schema());
        let (out, stats) = eval_gmdj_full(
            &base(),
            &t,
            &detail_schema(),
            &count_sum_op(),
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        for r in out.rows() {
            assert_eq!(r[2], Value::Int(0));
            assert_eq!(r[3], Value::Null);
        }
        assert_eq!(stats.matches, 0);
    }
}
