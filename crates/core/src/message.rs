//! The coordinator ↔ site protocol and its wire encoding.
//!
//! Every message is serialized with the `skalla-net` wire format before it
//! crosses the simulated network, so the byte counts reported by
//! [`skalla_net::TransferStats`] are exactly what a real deployment would
//! ship. Plans (including their expressions) are encoded here as well —
//! Skalla "translates OLAP queries into distributed evaluation plans which
//! are shipped to individual sites" (paper abstract).
//!
//! Encoding of the `skalla-expr` / `skalla-gmdj` types lives here as free
//! functions (the orphan rule prevents implementing `skalla-net`'s traits
//! on those crates' types from the outside).

use std::ops::AddAssign;

use bytes::{BufMut, Bytes, BytesMut};
use skalla_expr::{BinOp, Expr, UnOp};
use skalla_gmdj::{AggFunc, AggSpec, BaseSpec, EvalStats, GmdjBlock, GmdjExpr, GmdjOp};
use skalla_net::wire::{put_str, put_varint};
use skalla_net::{WireDecode, WireEncode, WireReader};
use skalla_storage::{PartFrag, PartSketch};
use skalla_types::{Relation, Result, SkallaError, Value};

use crate::plan::{
    BaseRound, DegradedMode, DistPlan, OptFlags, RetryPolicy, RoundSpec, SkewPolicy,
};

/// Protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Ship the evaluation plan to a site (sent once per query).
    Plan(DistPlan),
    /// Ask a site to compute its local `B₀ᵢ` fragment.
    ComputeBase {
        /// Which partition fragments of the detail relation to cover.
        /// `None` means the site's own primary partition (the
        /// replication-unaware protocol); `Some(fs)` restricts the
        /// computation to the named replicated partition fragments — used
        /// by failover to re-request a dead site's partitions from a
        /// surviving replica host, and by skew-aware splitting to hand out
        /// row-range slices of a hot partition.
        parts: Option<Vec<PartFrag>>,
        /// Work-assignment id within `(epoch, round)`. The original
        /// request is task 0; straggler-offload duplicates get fresh ids
        /// so the coordinator can tell a helper's reply from the
        /// laggard's. Sites echo it on every reply chunk.
        task: u32,
    },
    /// A site's base fragment plus its measured compute time.
    BaseFragment {
        /// The local distinct projection.
        rel: Relation,
        /// Site compute seconds.
        compute_s: f64,
        /// Echo of the request's task id.
        task: u32,
        /// The base scan's segment reads, and the per-partition
        /// cardinality + heavy-hitter sketches gathered during it, shipped
        /// so the coordinator can detect skew.
        counters: SiteCounters,
    },
    /// Evaluate operator `op_idx` against the shipped base (standard
    /// round).
    Round {
        /// Operator index.
        op_idx: u32,
        /// The base(-fragment) relation to aggregate against.
        base: Relation,
        /// Detail partition fragments to aggregate over; `None` means the
        /// site's primary partition (see [`Message::ComputeBase`]).
        parts: Option<Vec<PartFrag>>,
        /// Work-assignment id (see [`Message::ComputeBase`]).
        task: u32,
    },
    /// A site's reply to a [`Message::Round`] or a [`Message::LocalRun`] —
    /// possibly one of several row-blocked chunks. Both requests answer
    /// with the same shape (Theorem 1): base columns followed by the
    /// sub-aggregate state columns of every operator evaluated, which the
    /// coordinator merges into its synchronized structure.
    Fragment {
        /// The last operator index the fragment covers: the round's
        /// operator, or the end of the local run.
        op: u32,
        /// Chunk sequence number (0-based). The coordinator's merge is not
        /// idempotent, so it accepts a chunk only when `seq` matches the
        /// next expected value for the sender — duplicated or replayed
        /// chunks are discarded.
        seq: u32,
        /// Base columns ++ sub-aggregate state columns.
        rel: Relation,
        /// Site compute seconds (reported on the final chunk).
        compute_s: f64,
        /// `false` while more chunks follow (row blocking).
        last: bool,
        /// Echo of the request's task id.
        task: u32,
        /// Scan counters and partition sketches (reported on the final
        /// chunk; [`SiteCounters::default`] on earlier chunks).
        counters: SiteCounters,
    },
    /// Evaluate operators `start..=end` locally without intermediate
    /// synchronization (synchronization reduction).
    LocalRun {
        /// First operator index.
        start: u32,
        /// Last operator index (inclusive).
        end: u32,
        /// The base to start from; `None` means compute `B₀ᵢ` locally
        /// (Proposition 2).
        base: Option<Relation>,
        /// Detail partition fragments to aggregate over; `None` means the
        /// site's primary partition (see [`Message::ComputeBase`]).
        parts: Option<Vec<PartFrag>>,
        /// Work-assignment id (see [`Message::ComputeBase`]).
        task: u32,
    },
    /// Baseline only: ship the named raw detail table to the coordinator
    /// (what Skalla never does — used to demonstrate Theorem 2).
    ShipAllRequest {
        /// Table to ship.
        table: String,
    },
    /// The raw detail data (baseline only).
    ShipAllData {
        /// The site's full partition, as rows.
        rel: Relation,
        /// Site compute seconds.
        compute_s: f64,
    },
    /// Terminate the site worker.
    Shutdown,
    /// A site-side failure, reported back to the coordinator.
    Error {
        /// Human-readable description.
        msg: String,
        /// `true` when the failure is a storage-integrity one
        /// ([`skalla_types::SkallaError::SegmentCorrupt`]): deterministic,
        /// so the coordinator skips retries and goes straight to the
        /// degradation ladder.
        corrupt: bool,
    },
    /// Back `table` with the on-disk segment file at `path` (out-of-core
    /// mode), replacing any previous catalog entry under that name. Sent
    /// at load time and by live data reloads; a reload answers with
    /// [`Message::SegmentsLoaded`] so the serving layer knows when to
    /// invalidate its result cache.
    LoadSegments {
        /// Catalog name to (re)bind — the plain table name, or a mangled
        /// partition name under replicated placement.
        table: String,
        /// Path of the segment file on the site's local disk.
        path: String,
        /// Under replicated placement, the partition number the file
        /// holds: the site co-registers the file under the mangled
        /// `__part::<table>::<part>` alias, so partition-addressed scans
        /// stream from disk exactly like plain-name scans do.
        part: Option<u64>,
    },
    /// Acknowledge a [`Message::LoadSegments`]: the file was opened and
    /// its footer validated.
    SegmentsLoaded {
        /// Total rows of the newly bound segment file.
        rows: u64,
    },
    /// Walk every segment-backed catalog entry, verify all block
    /// checksums off the query path, and quarantine corrupt files
    /// (rename to `<path>.quarantined` + unregister). Answered with
    /// [`Message::ScrubReport`].
    ScrubRequest,
    /// A site's scrub findings, one entry per segment-backed table.
    ScrubReport {
        /// Per-table verification outcomes.
        entries: Vec<ScrubEntry>,
    },
}

/// One segment-backed catalog entry's scrub outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubEntry {
    /// Catalog name the file backs (possibly a mangled partition name).
    pub table: String,
    /// On-disk path of the segment file.
    pub path: String,
    /// Column chunks whose CRC32C was verified (zero when the file was
    /// found corrupt).
    pub blocks: u64,
    /// `None` if every checksum matched; `Some(description)` if the file
    /// was found corrupt and quarantined.
    pub error: Option<String>,
}

/// What a site reports about the work behind one reply
/// ([`Message::Fragment`] or [`Message::BaseFragment`]), summed across
/// operators, sites and tiers with `+=`. This struct holds the only wire
/// encoding of these fields; a new site counter touches it, its producer
/// in [`crate::site`], and [`RoundMetrics`](crate::metrics::RoundMetrics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteCounters {
    /// GMDJ blocks evaluated through compiled kernels.
    pub blocks_compiled: u64,
    /// GMDJ blocks that fell back to the row-at-a-time interpreter.
    pub blocks_interpreted: u64,
    /// Out-of-core segments decoded (zero for in-memory details).
    pub segments_scanned: u64,
    /// Out-of-core segments skipped by zone-map pruning.
    pub segments_pruned: u64,
    /// Column chunks whose CRC32C was verified during the scan.
    pub blocks_verified: u64,
    /// Per-partition cardinality sketches, so the coordinator refreshes
    /// its skew load estimates from every reply.
    pub sketch: Vec<PartSketch>,
}

impl SiteCounters {
    /// The counters of one local scan: a GMDJ evaluation, or a site's key
    /// scan, which counts its segment reads the same way.
    pub(crate) fn of_eval(stats: &EvalStats) -> SiteCounters {
        SiteCounters {
            blocks_compiled: u64::from(stats.blocks_compiled),
            blocks_interpreted: u64::from(
                stats.blocks_hashed + stats.blocks_nested - stats.blocks_compiled,
            ),
            segments_scanned: stats.segments_scanned,
            segments_pruned: stats.segments_pruned,
            blocks_verified: stats.blocks_verified,
            sketch: Vec::new(),
        }
    }
}

impl AddAssign for SiteCounters {
    fn add_assign(&mut self, o: SiteCounters) {
        self.blocks_compiled += o.blocks_compiled;
        self.blocks_interpreted += o.blocks_interpreted;
        self.segments_scanned += o.segments_scanned;
        self.segments_pruned += o.segments_pruned;
        self.blocks_verified += o.blocks_verified;
        self.sketch.extend(o.sketch);
    }
}

impl WireEncode for SiteCounters {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.blocks_compiled);
        put_varint(buf, self.blocks_interpreted);
        encode_sketches(&self.sketch, buf);
        put_varint(buf, self.segments_scanned);
        put_varint(buf, self.segments_pruned);
        put_varint(buf, self.blocks_verified);
    }
}

impl WireDecode for SiteCounters {
    fn decode(r: &mut WireReader<'_>) -> Result<SiteCounters> {
        Ok(SiteCounters {
            blocks_compiled: r.varint()?,
            blocks_interpreted: r.varint()?,
            sketch: decode_sketches(r)?,
            segments_scanned: r.varint()?,
            segments_pruned: r.varint()?,
            blocks_verified: r.varint()?,
        })
    }
}

impl Message {
    /// Serialize to wire bytes.
    pub fn to_wire(&self) -> Bytes {
        let mut buf = BytesMut::new();
        encode_message(self, &mut buf);
        buf.freeze()
    }

    /// Deserialize from wire bytes.
    pub fn from_wire(bytes: &[u8]) -> Result<Message> {
        let mut r = WireReader::new(bytes);
        let m = decode_message(&mut r)?;
        if !r.is_empty() {
            return Err(SkallaError::net("trailing bytes after message"));
        }
        Ok(m)
    }

    /// Serialize with a query-epoch and round-number frame.
    ///
    /// When a query aborts mid-round (a site error fails the execution
    /// fast), slower sites may still be computing; their replies arrive
    /// during the *next* query. The coordinator stamps every request with
    /// an epoch, sites echo it, and stale-epoch replies are discarded.
    ///
    /// The round number identifies the synchronization round within the
    /// epoch (base round is 0, operator rounds follow). Sites use it to
    /// deduplicate re-sent requests — the coordinator re-sends a round
    /// request when its deadline expires, and a site that already served
    /// `(epoch, round)` replays its cached reply instead of recomputing.
    pub fn to_wire_framed(&self, epoch: u64, round: u32) -> Bytes {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, epoch);
        put_varint(&mut buf, u64::from(round));
        encode_message(self, &mut buf);
        buf.freeze()
    }

    /// Deserialize an epoch+round-framed message.
    pub fn from_wire_framed(bytes: &[u8]) -> Result<(u64, u32, Message)> {
        let mut r = WireReader::new(bytes);
        let epoch = r.varint()?;
        let round = r.varint()? as u32;
        let m = decode_message(&mut r)?;
        if !r.is_empty() {
            return Err(SkallaError::net("trailing bytes after message"));
        }
        Ok((epoch, round, m))
    }
}

fn put_f64(buf: &mut BytesMut, v: f64) {
    buf.put_slice(&v.to_le_bytes());
}

/// Encode a partition-fragment reference (three varints).
pub fn encode_part_frag(f: &PartFrag, buf: &mut BytesMut) {
    put_varint(buf, u64::from(f.part));
    put_varint(buf, u64::from(f.frag));
    put_varint(buf, u64::from(f.of));
}

/// Decode a partition-fragment reference, rejecting degenerate splits.
pub fn decode_part_frag(r: &mut WireReader<'_>) -> Result<PartFrag> {
    let part = r.varint()? as u32;
    let frag = r.varint()? as u32;
    let of = r.varint()? as u32;
    if of == 0 || frag >= of {
        return Err(SkallaError::net(format!(
            "invalid fragment {frag}/{of} of partition {part}"
        )));
    }
    Ok(PartFrag { part, frag, of })
}

fn encode_opt_frags(parts: &Option<Vec<PartFrag>>, buf: &mut BytesMut) {
    match parts {
        None => buf.put_u8(0),
        Some(fs) => {
            buf.put_u8(1);
            put_varint(buf, fs.len() as u64);
            for f in fs {
                encode_part_frag(f, buf);
            }
        }
    }
}

fn decode_opt_frags(r: &mut WireReader<'_>) -> Result<Option<Vec<PartFrag>>> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let n = r.varint()? as usize;
            let mut fs = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                fs.push(decode_part_frag(r)?);
            }
            Ok(Some(fs))
        }
        other => Err(SkallaError::net(format!("invalid fragments byte {other}"))),
    }
}

/// Encode a per-partition cardinality + heavy-hitter sketch.
pub fn encode_part_sketch(s: &PartSketch, buf: &mut BytesMut) {
    put_varint(buf, u64::from(s.part));
    put_varint(buf, s.rows);
    put_varint(buf, s.heavy.len() as u64);
    for &(key, count) in &s.heavy {
        put_varint(buf, key);
        put_varint(buf, count);
    }
}

/// Decode a per-partition sketch.
pub fn decode_part_sketch(r: &mut WireReader<'_>) -> Result<PartSketch> {
    let part = r.varint()? as u32;
    let rows = r.varint()?;
    let n = r.varint()? as usize;
    let mut heavy = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        heavy.push((r.varint()?, r.varint()?));
    }
    Ok(PartSketch { part, rows, heavy })
}

fn encode_sketches(ss: &[PartSketch], buf: &mut BytesMut) {
    put_varint(buf, ss.len() as u64);
    for s in ss {
        encode_part_sketch(s, buf);
    }
}

fn decode_sketches(r: &mut WireReader<'_>) -> Result<Vec<PartSketch>> {
    let n = r.varint()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(decode_part_sketch(r)?);
    }
    Ok(out)
}

fn encode_message(m: &Message, buf: &mut BytesMut) {
    match m {
        Message::Plan(p) => {
            buf.put_u8(0);
            encode_plan(p, buf);
        }
        Message::ComputeBase { parts, task } => {
            buf.put_u8(1);
            encode_opt_frags(parts, buf);
            put_varint(buf, u64::from(*task));
        }
        Message::BaseFragment {
            rel,
            compute_s,
            task,
            counters,
        } => {
            buf.put_u8(2);
            rel.encode(buf);
            put_f64(buf, *compute_s);
            put_varint(buf, u64::from(*task));
            counters.encode(buf);
        }
        Message::Round {
            op_idx,
            base,
            parts,
            task,
        } => {
            buf.put_u8(3);
            put_varint(buf, u64::from(*op_idx));
            base.encode(buf);
            encode_opt_frags(parts, buf);
            put_varint(buf, u64::from(*task));
        }
        Message::Fragment {
            op,
            seq,
            rel,
            compute_s,
            last,
            task,
            counters,
        } => {
            buf.put_u8(4);
            put_varint(buf, u64::from(*op));
            put_varint(buf, u64::from(*seq));
            rel.encode(buf);
            put_f64(buf, *compute_s);
            last.encode(buf);
            put_varint(buf, u64::from(*task));
            counters.encode(buf);
        }
        Message::LocalRun {
            start,
            end,
            base,
            parts,
            task,
        } => {
            buf.put_u8(5);
            put_varint(buf, u64::from(*start));
            put_varint(buf, u64::from(*end));
            base.encode(buf);
            encode_opt_frags(parts, buf);
            put_varint(buf, u64::from(*task));
        }
        // Tag 6 is unused.
        Message::ShipAllRequest { table } => {
            buf.put_u8(7);
            put_str(buf, table);
        }
        Message::ShipAllData { rel, compute_s } => {
            buf.put_u8(8);
            rel.encode(buf);
            put_f64(buf, *compute_s);
        }
        Message::Shutdown => buf.put_u8(9),
        Message::Error { msg, corrupt } => {
            buf.put_u8(10);
            put_str(buf, msg);
            corrupt.encode(buf);
        }
        Message::LoadSegments { table, path, part } => {
            buf.put_u8(11);
            put_str(buf, table);
            put_str(buf, path);
            // Biased varint: 0 is `None`, p + 1 is `Some(p)`.
            put_varint(buf, part.map_or(0, |p| p + 1));
        }
        Message::SegmentsLoaded { rows } => {
            buf.put_u8(12);
            put_varint(buf, *rows);
        }
        Message::ScrubRequest => buf.put_u8(13),
        Message::ScrubReport { entries } => {
            buf.put_u8(14);
            put_varint(buf, entries.len() as u64);
            for e in entries {
                put_str(buf, &e.table);
                put_str(buf, &e.path);
                put_varint(buf, e.blocks);
                match &e.error {
                    None => buf.put_u8(0),
                    Some(msg) => {
                        buf.put_u8(1);
                        put_str(buf, msg);
                    }
                }
            }
        }
    }
}

fn decode_message(r: &mut WireReader<'_>) -> Result<Message> {
    match r.u8()? {
        0 => Ok(Message::Plan(decode_plan(r)?)),
        1 => Ok(Message::ComputeBase {
            parts: decode_opt_frags(r)?,
            task: r.varint()? as u32,
        }),
        2 => Ok(Message::BaseFragment {
            rel: Relation::decode(r)?,
            compute_s: r.f64()?,
            task: r.varint()? as u32,
            counters: SiteCounters::decode(r)?,
        }),
        3 => Ok(Message::Round {
            op_idx: r.varint()? as u32,
            base: Relation::decode(r)?,
            parts: decode_opt_frags(r)?,
            task: r.varint()? as u32,
        }),
        4 => Ok(Message::Fragment {
            op: r.varint()? as u32,
            seq: r.varint()? as u32,
            rel: Relation::decode(r)?,
            compute_s: r.f64()?,
            last: bool::decode(r)?,
            task: r.varint()? as u32,
            counters: SiteCounters::decode(r)?,
        }),
        5 => Ok(Message::LocalRun {
            start: r.varint()? as u32,
            end: r.varint()? as u32,
            base: Option::<Relation>::decode(r)?,
            parts: decode_opt_frags(r)?,
            task: r.varint()? as u32,
        }),
        7 => Ok(Message::ShipAllRequest { table: r.string()? }),
        8 => Ok(Message::ShipAllData {
            rel: Relation::decode(r)?,
            compute_s: r.f64()?,
        }),
        9 => Ok(Message::Shutdown),
        10 => Ok(Message::Error {
            msg: r.string()?,
            corrupt: bool::decode(r)?,
        }),
        11 => Ok(Message::LoadSegments {
            table: r.string()?,
            path: r.string()?,
            part: match r.varint()? {
                0 => None,
                p => Some(p - 1),
            },
        }),
        12 => Ok(Message::SegmentsLoaded { rows: r.varint()? }),
        13 => Ok(Message::ScrubRequest),
        14 => {
            let n = r.varint()? as usize;
            let mut entries = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let table = r.string()?;
                let path = r.string()?;
                let blocks = r.varint()?;
                let error = match r.u8()? {
                    0 => None,
                    1 => Some(r.string()?),
                    other => {
                        return Err(SkallaError::net(format!(
                            "invalid scrub-error byte {other}"
                        )))
                    }
                };
                entries.push(ScrubEntry {
                    table,
                    path,
                    blocks,
                    error,
                });
            }
            Ok(Message::ScrubReport { entries })
        }
        other => Err(SkallaError::net(format!("invalid message tag {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Expression encoding
// ---------------------------------------------------------------------------

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Mod => 4,
        BinOp::Eq => 5,
        BinOp::Ne => 6,
        BinOp::Lt => 7,
        BinOp::Le => 8,
        BinOp::Gt => 9,
        BinOp::Ge => 10,
        BinOp::And => 11,
        BinOp::Or => 12,
    }
}

fn binop_from_tag(t: u8) -> Result<BinOp> {
    Ok(match t {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Mod,
        5 => BinOp::Eq,
        6 => BinOp::Ne,
        7 => BinOp::Lt,
        8 => BinOp::Le,
        9 => BinOp::Gt,
        10 => BinOp::Ge,
        11 => BinOp::And,
        12 => BinOp::Or,
        other => return Err(SkallaError::net(format!("invalid binop tag {other}"))),
    })
}

fn unop_tag(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
        UnOp::IsNull => 2,
    }
}

fn unop_from_tag(t: u8) -> Result<UnOp> {
    Ok(match t {
        0 => UnOp::Neg,
        1 => UnOp::Not,
        2 => UnOp::IsNull,
        other => return Err(SkallaError::net(format!("invalid unop tag {other}"))),
    })
}

/// Encode an expression tree.
pub fn encode_expr(e: &Expr, buf: &mut BytesMut) {
    match e {
        Expr::Lit(v) => {
            buf.put_u8(0);
            v.encode(buf);
        }
        Expr::BaseCol(i) => {
            buf.put_u8(1);
            put_varint(buf, *i as u64);
        }
        Expr::DetailCol(i) => {
            buf.put_u8(2);
            put_varint(buf, *i as u64);
        }
        Expr::Binary { op, lhs, rhs } => {
            buf.put_u8(3);
            buf.put_u8(binop_tag(*op));
            encode_expr(lhs, buf);
            encode_expr(rhs, buf);
        }
        Expr::Unary { op, expr } => {
            buf.put_u8(4);
            buf.put_u8(unop_tag(*op));
            encode_expr(expr, buf);
        }
        Expr::InSet { expr, set } => {
            buf.put_u8(5);
            encode_expr(expr, buf);
            put_varint(buf, set.len() as u64);
            for v in set {
                v.encode(buf);
            }
        }
    }
}

/// Decode an expression tree.
pub fn decode_expr(r: &mut WireReader<'_>) -> Result<Expr> {
    match r.u8()? {
        0 => Ok(Expr::Lit(Value::decode(r)?)),
        1 => Ok(Expr::BaseCol(r.varint()? as usize)),
        2 => Ok(Expr::DetailCol(r.varint()? as usize)),
        3 => {
            let op = binop_from_tag(r.u8()?)?;
            let lhs = decode_expr(r)?;
            let rhs = decode_expr(r)?;
            Ok(Expr::binary(op, lhs, rhs))
        }
        4 => {
            let op = unop_from_tag(r.u8()?)?;
            let expr = decode_expr(r)?;
            Ok(Expr::Unary {
                op,
                expr: Box::new(expr),
            })
        }
        5 => {
            let expr = decode_expr(r)?;
            let n = r.varint()? as usize;
            let mut set = std::collections::BTreeSet::new();
            for _ in 0..n {
                set.insert(Value::decode(r)?);
            }
            Ok(Expr::InSet {
                expr: Box::new(expr),
                set,
            })
        }
        other => Err(SkallaError::net(format!("invalid expr tag {other}"))),
    }
}

// ---------------------------------------------------------------------------
// GMDJ / plan encoding
// ---------------------------------------------------------------------------

fn aggfunc_tag(f: AggFunc) -> u8 {
    match f {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Avg => 2,
        AggFunc::Min => 3,
        AggFunc::Max => 4,
    }
}

fn aggfunc_from_tag(t: u8) -> Result<AggFunc> {
    Ok(match t {
        0 => AggFunc::Count,
        1 => AggFunc::Sum,
        2 => AggFunc::Avg,
        3 => AggFunc::Min,
        4 => AggFunc::Max,
        other => return Err(SkallaError::net(format!("invalid aggfunc tag {other}"))),
    })
}

fn encode_agg(a: &AggSpec, buf: &mut BytesMut) {
    buf.put_u8(aggfunc_tag(a.func));
    match &a.arg {
        None => buf.put_u8(0),
        Some(e) => {
            buf.put_u8(1);
            encode_expr(e, buf);
        }
    }
    put_str(buf, &a.name);
}

fn decode_agg(r: &mut WireReader<'_>) -> Result<AggSpec> {
    let func = aggfunc_from_tag(r.u8()?)?;
    let arg = match r.u8()? {
        0 => None,
        1 => Some(decode_expr(r)?),
        other => return Err(SkallaError::net(format!("invalid agg-arg byte {other}"))),
    };
    let name = r.string()?;
    Ok(AggSpec { func, arg, name })
}

fn encode_op(op: &GmdjOp, buf: &mut BytesMut) {
    put_varint(buf, op.blocks.len() as u64);
    for b in &op.blocks {
        put_varint(buf, b.aggs.len() as u64);
        for a in &b.aggs {
            encode_agg(a, buf);
        }
        encode_expr(&b.theta, buf);
    }
    match &op.detail_name {
        None => buf.put_u8(0),
        Some(n) => {
            buf.put_u8(1);
            put_str(buf, n);
        }
    }
}

fn decode_op(r: &mut WireReader<'_>) -> Result<GmdjOp> {
    let nb = r.varint()? as usize;
    let mut blocks = Vec::with_capacity(nb.min(256));
    for _ in 0..nb {
        let na = r.varint()? as usize;
        let mut aggs = Vec::with_capacity(na.min(256));
        for _ in 0..na {
            aggs.push(decode_agg(r)?);
        }
        let theta = decode_expr(r)?;
        blocks.push(GmdjBlock::new(aggs, theta));
    }
    let detail_name = match r.u8()? {
        0 => None,
        1 => Some(r.string()?),
        other => {
            return Err(SkallaError::net(format!(
                "invalid detail-name byte {other}"
            )))
        }
    };
    Ok(GmdjOp {
        blocks,
        detail_name,
    })
}

/// Encode a whole GMDJ expression.
pub fn encode_gmdj_expr(e: &GmdjExpr, buf: &mut BytesMut) {
    match &e.base {
        BaseSpec::DistinctProject { cols } => {
            buf.put_u8(0);
            cols.encode(buf);
        }
        BaseSpec::Relation(rel) => {
            buf.put_u8(1);
            rel.encode(buf);
        }
    }
    put_str(buf, &e.detail_name);
    put_varint(buf, e.ops.len() as u64);
    for op in &e.ops {
        encode_op(op, buf);
    }
    e.key.encode(buf);
}

/// Decode a whole GMDJ expression.
pub fn decode_gmdj_expr(r: &mut WireReader<'_>) -> Result<GmdjExpr> {
    let base = match r.u8()? {
        0 => BaseSpec::DistinctProject {
            cols: Vec::<usize>::decode(r)?,
        },
        1 => BaseSpec::Relation(Relation::decode(r)?),
        other => return Err(SkallaError::net(format!("invalid base-spec tag {other}"))),
    };
    let detail_name = r.string()?;
    let n = r.varint()? as usize;
    let mut ops = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        ops.push(decode_op(r)?);
    }
    let key = Vec::<usize>::decode(r)?;
    Ok(GmdjExpr {
        base,
        detail_name,
        ops,
        key,
    })
}

fn encode_plan(p: &DistPlan, buf: &mut BytesMut) {
    encode_gmdj_expr(&p.expr, buf);
    match &p.base_round {
        BaseRound::Distributed => buf.put_u8(0),
        BaseRound::LocalOnly => buf.put_u8(1),
        BaseRound::Coordinator(rel) => {
            buf.put_u8(2);
            rel.encode(buf);
        }
    }
    put_varint(buf, p.rounds.len() as u64);
    for rspec in &p.rounds {
        rspec.site_group_reduction.encode(buf);
        match &rspec.coord_filters {
            None => buf.put_u8(0),
            Some(fs) => {
                buf.put_u8(1);
                put_varint(buf, fs.len() as u64);
                for f in fs {
                    encode_expr(f, buf);
                }
            }
        }
        rspec.local_only.encode(buf);
    }
    p.flags.coalesce.encode(buf);
    p.flags.site_group_reduction.encode(buf);
    p.flags.coord_group_reduction.encode(buf);
    p.flags.sync_reduction.encode(buf);
    match p.block_rows {
        None => buf.put_u8(0),
        Some(b) => {
            buf.put_u8(1);
            put_varint(buf, b as u64);
        }
    }
    put_varint(buf, p.site_parallelism as u64);
    put_varint(buf, p.coord_parallelism as u64);
    // 0 encodes "engine default" (a real override is clamped to ≥ 1).
    put_varint(buf, p.sync_shards.unwrap_or(0) as u64);
    put_f64(buf, p.retry.deadline.as_secs_f64());
    put_varint(buf, u64::from(p.retry.max_retries));
    put_f64(buf, p.retry.backoff);
    buf.put_u8(match p.retry.degraded {
        DegradedMode::Fail => 0,
        DegradedMode::Partial => 1,
        DegradedMode::Failover => 2,
    });
    p.skew.split.encode(buf);
    put_f64(buf, p.skew.split_threshold);
    put_varint(buf, p.skew.max_split as u64);
    p.skew.offload.encode(buf);
    put_f64(buf, p.skew.offload_factor);
    p.segment_prune.encode(buf);
}

fn decode_plan(r: &mut WireReader<'_>) -> Result<DistPlan> {
    let expr = decode_gmdj_expr(r)?;
    let base_round = match r.u8()? {
        0 => BaseRound::Distributed,
        1 => BaseRound::LocalOnly,
        2 => BaseRound::Coordinator(Relation::decode(r)?),
        other => return Err(SkallaError::net(format!("invalid base-round tag {other}"))),
    };
    let n = r.varint()? as usize;
    let mut rounds = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        let site_group_reduction = bool::decode(r)?;
        let coord_filters = match r.u8()? {
            0 => None,
            1 => {
                let m = r.varint()? as usize;
                let mut fs = Vec::with_capacity(m.min(256));
                for _ in 0..m {
                    fs.push(decode_expr(r)?);
                }
                Some(fs)
            }
            other => return Err(SkallaError::net(format!("invalid filters byte {other}"))),
        };
        let local_only = bool::decode(r)?;
        rounds.push(RoundSpec {
            site_group_reduction,
            coord_filters,
            local_only,
        });
    }
    let flags = OptFlags {
        coalesce: bool::decode(r)?,
        site_group_reduction: bool::decode(r)?,
        coord_group_reduction: bool::decode(r)?,
        sync_reduction: bool::decode(r)?,
    };
    let block_rows = match r.u8()? {
        0 => None,
        1 => Some(r.varint()? as usize),
        other => return Err(SkallaError::net(format!("invalid block-rows byte {other}"))),
    };
    let site_parallelism = r.varint()? as usize;
    let coord_parallelism = r.varint()? as usize;
    let sync_shards = match r.varint()? as usize {
        0 => None,
        s => Some(s),
    };
    let deadline_s = r.f64()?;
    if !deadline_s.is_finite() || deadline_s < 0.0 {
        return Err(SkallaError::net(format!(
            "invalid retry deadline {deadline_s}"
        )));
    }
    let max_retries = r.varint()? as u32;
    let backoff = r.f64()?;
    if !backoff.is_finite() {
        return Err(SkallaError::net(format!("invalid retry backoff {backoff}")));
    }
    let degraded = match r.u8()? {
        0 => DegradedMode::Fail,
        1 => DegradedMode::Partial,
        2 => DegradedMode::Failover,
        other => {
            return Err(SkallaError::net(format!(
                "invalid degraded-mode tag {other}"
            )))
        }
    };
    let retry = RetryPolicy {
        deadline: std::time::Duration::from_secs_f64(deadline_s),
        max_retries,
        backoff,
        degraded,
    };
    let split = bool::decode(r)?;
    let split_threshold = r.f64()?;
    let max_split = r.varint()? as usize;
    let offload = bool::decode(r)?;
    let offload_factor = r.f64()?;
    if !split_threshold.is_finite() || !offload_factor.is_finite() {
        return Err(SkallaError::net(format!(
            "invalid skew policy knobs {split_threshold}/{offload_factor}"
        )));
    }
    let skew = SkewPolicy {
        split,
        split_threshold,
        max_split,
        offload,
        offload_factor,
    };
    let segment_prune = bool::decode(r)?;
    Ok(DistPlan {
        expr,
        base_round,
        rounds,
        flags,
        block_rows,
        site_parallelism,
        coord_parallelism,
        sync_shards,
        retry,
        skew,
        segment_prune,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_types::{DataType, Schema};

    fn example_expr() -> GmdjExpr {
        let md1 = GmdjOp::new(vec![GmdjBlock::new(
            vec![
                AggSpec::count_star("cnt1"),
                AggSpec::sum(Expr::detail(2), "sum1").unwrap(),
                AggSpec::avg(Expr::detail(2), "avg1").unwrap(),
            ],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::base(1).eq(Expr::detail(1))),
        )]);
        let md2 = GmdjOp::with_detail(
            vec![GmdjBlock::new(
                vec![AggSpec::count_star("cnt2")],
                Expr::base(0)
                    .eq(Expr::detail(0))
                    .and(Expr::detail(2).ge(Expr::base(3).div(Expr::base(2))))
                    .and(Expr::base(1).in_set([Value::Int(1), Value::str("x")]))
                    .or(Expr::detail(1).is_null().not()),
            )],
            "flow2",
        );
        GmdjExpr::new(
            BaseSpec::DistinctProject { cols: vec![0, 1] },
            "flow",
            vec![md1, md2],
            vec![0, 1],
        )
        .unwrap()
    }

    fn round_trip(m: &Message) {
        let bytes = m.to_wire();
        let back = Message::from_wire(&bytes).unwrap();
        assert_eq!(&back, m);
    }

    #[test]
    fn plan_round_trips() {
        let mut plan = DistPlan::unoptimized(example_expr());
        plan.rounds[0].site_group_reduction = true;
        plan.rounds[0].coord_filters = Some(vec![
            Expr::base(0).in_set([Value::Int(1), Value::Int(2)]),
            Expr::lit(false),
        ]);
        plan.rounds[0].local_only = true;
        plan.base_round = BaseRound::LocalOnly;
        plan.flags = OptFlags::all();
        plan.block_rows = Some(128);
        plan.site_parallelism = 4;
        plan.coord_parallelism = 3;
        plan.retry = RetryPolicy {
            deadline: std::time::Duration::from_millis(250),
            max_retries: 5,
            backoff: 1.5,
            degraded: DegradedMode::Partial,
        };
        plan.skew = SkewPolicy {
            split: true,
            split_threshold: 1.75,
            max_split: 4,
            offload: true,
            offload_factor: 2.5,
        };
        plan.segment_prune = false;
        round_trip(&Message::Plan(plan));
    }

    /// A standard-round reply, a local-run reply and a non-final chunk.
    fn reply_examples(rel: &Relation) -> [Message; 3] {
        [
            Message::Fragment {
                op: 3,
                seq: 0,
                rel: rel.clone(),
                compute_s: 1.5,
                last: true,
                task: 0,
                counters: SiteCounters {
                    blocks_compiled: 2,
                    blocks_interpreted: 1,
                    segments_scanned: 5,
                    segments_pruned: 11,
                    blocks_verified: 35,
                    sketch: vec![PartSketch {
                        part: 1,
                        rows: 99,
                        heavy: Vec::new(),
                    }],
                },
            },
            Message::Fragment {
                op: 2,
                seq: 1,
                rel: rel.clone(),
                compute_s: 0.0,
                last: true,
                task: 0,
                counters: SiteCounters {
                    blocks_compiled: 3,
                    blocks_interpreted: 0,
                    segments_scanned: 2,
                    segments_pruned: 6,
                    blocks_verified: 10,
                    sketch: Vec::new(),
                },
            },
            Message::Fragment {
                op: 3,
                seq: 17,
                rel: rel.clone(),
                compute_s: 0.0,
                last: false,
                task: 1,
                counters: SiteCounters::default(),
            },
        ]
    }

    /// The paper's transfer metric is counted in these bytes: a change to
    /// the reply encoding that moves them moves every byte figure.
    #[test]
    fn fragment_wire_length_is_pinned() {
        let schema = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        let rel = Relation::new(schema, vec![vec![Value::Int(7)]]).unwrap();
        let lens: Vec<usize> = reply_examples(&rel)
            .iter()
            .map(|m| m.to_wire().len())
            .collect();
        assert_eq!(lens, vec![29, 26, 26]);
        // A base reply from an in-memory site, and one that read 61
        // segments of a 20-column file: the counters add 5 and 6 bytes to
        // the 18 this reply took without them.
        let base = |counters| Message::BaseFragment {
            rel: rel.clone(),
            compute_s: 0.5,
            task: 0,
            counters,
        };
        let out_of_core = SiteCounters {
            segments_scanned: 61,
            blocks_verified: 61 * 20,
            ..SiteCounters::default()
        };
        let lens: Vec<usize> = [base(SiteCounters::default()), base(out_of_core)]
            .iter()
            .map(|m| m.to_wire().len())
            .collect();
        assert_eq!(lens, vec![23, 24]);
    }

    #[test]
    fn relation_messages_round_trip() {
        let schema = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        let rel = Relation::new(schema, vec![vec![Value::Int(7)]]).unwrap();
        round_trip(&Message::BaseFragment {
            rel: rel.clone(),
            compute_s: 0.125,
            task: 0,
            counters: SiteCounters::default(),
        });
        round_trip(&Message::Round {
            op_idx: 3,
            base: rel.clone(),
            parts: None,
            task: 0,
        });
        round_trip(&Message::Round {
            op_idx: 3,
            base: rel.clone(),
            parts: Some(vec![PartFrag::whole(1), PartFrag::whole(3)]),
            task: 2,
        });
        for m in reply_examples(&rel) {
            round_trip(&m);
        }
        round_trip(&Message::LocalRun {
            start: 0,
            end: 2,
            base: Some(rel.clone()),
            parts: None,
            task: 0,
        });
        round_trip(&Message::LocalRun {
            start: 0,
            end: 0,
            base: None,
            parts: Some(vec![PartFrag::whole(0)]),
            task: 0,
        });
        round_trip(&Message::ShipAllRequest {
            table: "flow".into(),
        });
        round_trip(&Message::LoadSegments {
            table: "flow__p3".into(),
            path: "/data/site3/flow.seg".into(),
            part: None,
        });
        round_trip(&Message::LoadSegments {
            table: "flow".into(),
            path: "/data/site3/flow.seg".into(),
            part: Some(2),
        });
        round_trip(&Message::SegmentsLoaded { rows: 123_456 });
        round_trip(&Message::ShipAllData {
            rel,
            compute_s: 2.0,
        });
        round_trip(&Message::ComputeBase {
            parts: None,
            task: 0,
        });
        round_trip(&Message::ComputeBase {
            parts: Some(vec![PartFrag::whole(2)]),
            task: 0,
        });
        round_trip(&Message::Shutdown);
        round_trip(&Message::Error {
            msg: "boom".into(),
            corrupt: false,
        });
        round_trip(&Message::Error {
            msg: "segment corrupt: bad crc".into(),
            corrupt: true,
        });
        round_trip(&Message::ScrubRequest);
        round_trip(&Message::ScrubReport {
            entries: vec![
                ScrubEntry {
                    table: "flow__p0".into(),
                    path: "/data/site0/flow.seg".into(),
                    blocks: 40,
                    error: None,
                },
                ScrubEntry {
                    table: "flow__p1".into(),
                    path: "/data/site0/flow1.seg".into(),
                    blocks: 12,
                    error: Some("chunk checksum mismatch".into()),
                },
            ],
        });
        round_trip(&Message::ScrubReport {
            entries: Vec::new(),
        });
    }

    #[test]
    fn sketch_and_range_frames_round_trip() {
        let schema = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        let rel = Relation::new(schema, vec![vec![Value::Int(7)]]).unwrap();
        // Row-range fragments of a split hot partition.
        round_trip(&Message::ComputeBase {
            parts: Some(vec![
                PartFrag {
                    part: 5,
                    frag: 0,
                    of: 4,
                },
                PartFrag {
                    part: 5,
                    frag: 3,
                    of: 4,
                },
                PartFrag::whole(2),
            ]),
            task: 7,
        });
        // Heavy-hitter sketches on a base reply.
        round_trip(&Message::BaseFragment {
            rel,
            compute_s: 0.5,
            task: 3,
            counters: SiteCounters {
                segments_scanned: 4,
                blocks_verified: 80,
                sketch: vec![
                    PartSketch {
                        part: 0,
                        rows: 1_000_000,
                        heavy: vec![(0xdead_beef, 750_000), (17, 1_000)],
                    },
                    PartSketch {
                        part: 9,
                        rows: 42,
                        heavy: Vec::new(),
                    },
                ],
                ..SiteCounters::default()
            },
        });
        // Degenerate fragments are rejected at decode time.
        for bad in [
            PartFrag {
                part: 1,
                frag: 0,
                of: 0,
            },
            PartFrag {
                part: 1,
                frag: 2,
                of: 2,
            },
        ] {
            let mut buf = BytesMut::new();
            encode_part_frag(&bad, &mut buf);
            let mut r = WireReader::new(&buf);
            assert!(decode_part_frag(&mut r).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn coordinator_base_round_trips() {
        let schema = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        let rel = Relation::new(schema, vec![vec![Value::Int(1)]]).unwrap();
        let e = GmdjExpr::new(
            BaseSpec::Relation(rel.clone()),
            "flow",
            vec![GmdjOp::new(vec![GmdjBlock::new(
                vec![AggSpec::count_star("c")],
                Expr::base(0).eq(Expr::detail(0)),
            )])],
            vec![0],
        )
        .unwrap();
        let plan = DistPlan::unoptimized(e);
        round_trip(&Message::Plan(plan));
    }

    #[test]
    fn expr_kinds_round_trip() {
        let exprs = [
            Expr::lit(1)
                .add(Expr::lit(2.5))
                .sub(Expr::lit(3))
                .mul(Expr::lit(4)),
            Expr::base(0).div(Expr::detail(1)).rem(Expr::lit(7)),
            Expr::base(0)
                .ne(Expr::lit(1))
                .or(Expr::base(1).le(Expr::lit(2))),
            Expr::base(2)
                .ge(Expr::lit(0))
                .and(Expr::base(2).lt(Expr::lit(9))),
            Expr::lit("s").eq(Expr::detail(0)),
            Expr::base(0).neg().is_null(),
            Expr::lit(true).not(),
            Expr::detail(3).in_set([Value::Null, Value::Bool(true), Value::Float(1.5)]),
        ];
        for e in &exprs {
            let mut buf = BytesMut::new();
            encode_expr(e, &mut buf);
            let mut r = WireReader::new(&buf);
            let back = decode_expr(&mut r).unwrap();
            assert!(r.is_empty());
            assert_eq!(&back, e);
        }
    }

    #[test]
    fn frame_prefix_round_trips() {
        let m = Message::ComputeBase {
            parts: None,
            task: 0,
        };
        let bytes = m.to_wire_framed(42, 7);
        let (e, round, back) = Message::from_wire_framed(&bytes).unwrap();
        assert_eq!(e, 42);
        assert_eq!(round, 7);
        assert_eq!(back, m);
        assert!(Message::from_wire_framed(&[]).is_err());
        // A frame without a message body is rejected.
        assert!(Message::from_wire_framed(&[42]).is_err());
    }

    #[test]
    fn corrupt_messages_rejected() {
        assert!(Message::from_wire(&[200]).is_err());
        assert!(Message::from_wire(&[]).is_err());
        // Valid message + trailing garbage.
        let mut bytes = Message::ComputeBase {
            parts: None,
            task: 0,
        }
        .to_wire()
        .to_vec();
        bytes.push(0);
        assert!(Message::from_wire(&bytes).is_err());
        // Truncated plan.
        let plan_bytes = Message::Plan(DistPlan::unoptimized(example_expr())).to_wire();
        assert!(Message::from_wire(&plan_bytes[..plan_bytes.len() / 2]).is_err());
    }
}
