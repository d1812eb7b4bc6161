//! Persistent columnar segment store.
//!
//! Fact partitions are written to disk as fixed-row-count **segments**: each
//! segment holds one compressed chunk per column (run-length encoding for
//! sorted or low-cardinality columns, dictionary encoding for strings, raw
//! typed vectors as fallback — smallest encoding wins, chosen per column per
//! segment). A footer carries a per-segment *zone map* — the exact
//! [`ColumnStats`] (min/max/distinct/null-count) of every column, collected
//! by the same machinery the warehouse catalog uses — so scans can skip
//! whole segments whose value ranges provably cannot satisfy a predicate,
//! before a single byte of the body is decoded.
//!
//! File layout (format v2; all integers little-endian):
//!
//! ```text
//! "SKSEG2\0\0"                                  header magic
//! u64 ncols; per column: u16 name_len, name, u8 dtype
//! u32 header_crc                                 CRC32C of all bytes above
//! segment bodies, back to back
//! footer: u64 total_rows, u64 nsegs,
//!         per segment: u64 offset, u64 byte_len, u64 rows,
//!                      per column: opt min, opt max, u64 distinct, u64 nulls
//! u32 footer_crc                                 CRC32C of the footer bytes
//! u64 footer_len                                 (bytes, footer only)
//! "SKSEGEND"                                     tail magic
//! ```
//!
//! Each segment body is one *framed chunk* per column: `u64` chunk length,
//! `u32` CRC32C of the chunk bytes, then the chunk (`u8` encoding tag, `u8`
//! has-nulls flag + bit-packed null bitmap, payload). Every chunk's CRC is
//! verified *before* its bytes are decoded, so a flipped bit or a short
//! read surfaces as a typed [`SkallaError::SegmentCorrupt`] — never a panic
//! or a silently wrong column. NULL rows keep their in-memory default slots
//! (`0`/`0.0`/`""`/`false`) in the payload so decode reproduces the
//! in-memory [`Column`] bit for bit.
//!
//! **Atomic publication:** the writer streams to `<path>.tmp` and
//! [`SegmentWriter::finish`] fsyncs, renames over the final path, and
//! fsyncs the parent directory — a crash mid-generation can leave a stale
//! `.tmp` behind but never a torn file at the published name.
//!
//! Reads go through positioned I/O (`pread`): a [`SegmentFile`] is cheap to
//! open (header + footer only, both CRC-verified) and can be shared across
//! site threads behind an `Arc`; [`SegmentFile::read_columns`] materializes
//! exactly one segment's rows, projected onto the columns a scan reads, as
//! a [`Table`], which is the unit of out-of-core scanning. It CRC-checks
//! every chunk of the segment, read or not, and decodes only the projected
//! ones; [`SegmentFile::read_segment`] is its all-columns case.
//! [`SegmentFile::verify`] checks every chunk CRC without materializing
//! anything — the scrub path.
//!
//! Deterministic disk-fault injection (bit-flips, torn writes, short
//! reads, stale footers) hooks into the write and read paths here; see
//! [`crate::fault`].

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use skalla_expr::Interval;
use skalla_types::{cmp_int_float, DataType, Result, Schema, SkallaError, Value};

use crate::column::Column;
use crate::crc::crc32c;
use crate::fault::disk_faults_for;
use crate::stats::ColumnStats;
use crate::table::Table;

/// Default rows per segment: small enough that a handful of segments cover a
/// TPC-R partition (so pruning has granularity), large enough that the
/// compiled 1024-row batch kernels amortize decode.
pub const DEFAULT_SEGMENT_ROWS: usize = 4096;

const HEADER_MAGIC: &[u8; 8] = b"SKSEG2\0\0";
const TAIL_MAGIC: &[u8; 8] = b"SKSEGEND";

/// Tail frame: u32 footer CRC + u64 footer length + 8-byte magic.
const TAIL_LEN: u64 = 4 + 8 + 8;

const ENC_RAW: u8 = 0;
const ENC_RLE: u8 = 1;
const ENC_DICT: u8 = 2;

fn io_err(op: &str, path: &Path, e: std::io::Error) -> SkallaError {
    SkallaError::exec(format!("segment {op} {}: {e}", path.display()))
}

/// A read-path I/O failure: the file is unreadable or shorter than its own
/// metadata claims — both are integrity failures, typed as such so the
/// coordinator never wastes retries on them.
fn read_err(path: &Path, e: std::io::Error) -> SkallaError {
    SkallaError::corrupt(format!("segment read {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Little-endian byte helpers.

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked cursor over a byte buffer.
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| SkallaError::corrupt("segment file truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn get_len(&mut self, what: &str) -> Result<usize> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .ok()
            .filter(|&n| n <= self.buf.len())
            .ok_or_else(|| SkallaError::corrupt(format!("segment {what} count {v} out of range")))
    }
}

fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i >> 3] |= 1 << (i & 7);
        }
    }
    out
}

fn unpack_bits(bytes: &[u8], n: usize) -> Vec<bool> {
    (0..n)
        .map(|i| bytes[i >> 3] & (1 << (i & 7)) != 0)
        .collect()
}

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Utf8 => 2,
        DataType::Bool => 3,
    }
}

fn tag_dtype(tag: u8) -> Result<DataType> {
    match tag {
        0 => Ok(DataType::Int64),
        1 => Ok(DataType::Float64),
        2 => Ok(DataType::Utf8),
        3 => Ok(DataType::Bool),
        t => Err(SkallaError::corrupt(format!(
            "unknown segment dtype tag {t}"
        ))),
    }
}

fn put_opt_value(out: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        None => out.push(0),
        Some(Value::Int(i)) => {
            out.push(1);
            put_i64(out, *i);
        }
        Some(Value::Float(f)) => {
            out.push(2);
            put_u64(out, f.to_bits());
        }
        Some(Value::Str(s)) => {
            out.push(3);
            put_u32(out, s.len() as u32);
            out.extend_from_slice(s.as_bytes());
        }
        Some(Value::Bool(b)) => {
            out.push(4);
            out.push(u8::from(*b));
        }
        // Null never appears as a min/max (stats skip NULLs).
        Some(Value::Null) => out.push(0),
    }
}

fn get_opt_value(r: &mut ByteReader) -> Result<Option<Value>> {
    Ok(match r.get_u8()? {
        0 => None,
        1 => Some(Value::Int(r.get_i64()?)),
        2 => Some(Value::Float(f64::from_bits(r.get_u64()?))),
        3 => {
            let n = r.get_u32()? as usize;
            let bytes = r.take(n)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| SkallaError::corrupt("segment zone map holds invalid utf8"))?;
            Some(Value::str(s))
        }
        4 => Some(Value::Bool(r.get_u8()? != 0)),
        t => return Err(SkallaError::corrupt(format!("unknown zone value tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Column chunk encode/decode.

/// Number of runs of equal adjacent elements under `eq`.
fn run_count<T>(vs: &[T], eq: impl Fn(&T, &T) -> bool) -> usize {
    let mut runs = 0;
    let mut i = 0;
    while i < vs.len() {
        let mut j = i + 1;
        while j < vs.len() && eq(&vs[i], &vs[j]) {
            j += 1;
        }
        runs += 1;
        i = j;
    }
    runs
}

fn for_each_run<T>(vs: &[T], eq: impl Fn(&T, &T) -> bool, mut f: impl FnMut(u64, &T)) {
    let mut i = 0;
    while i < vs.len() {
        let mut j = i + 1;
        while j < vs.len() && eq(&vs[i], &vs[j]) {
            j += 1;
        }
        f((j - i) as u64, &vs[i]);
        i = j;
    }
}

fn encode_nulls(out: &mut Vec<u8>, col: &Column) {
    match col.null_mask() {
        None => out.push(0),
        Some(mask) => {
            out.push(1);
            out.extend_from_slice(&pack_bits(mask));
        }
    }
}

/// Append one column chunk (encoding tag, null bitmap, payload) to `out`.
fn encode_column(col: &Column, out: &mut Vec<u8>) {
    let rows = col.len();
    if let Some(vs) = col.raw_i64s() {
        let runs = run_count(vs, |a, b| a == b);
        if 8 + 16 * runs < 8 * rows {
            out.push(ENC_RLE);
            encode_nulls(out, col);
            put_u64(out, runs as u64);
            for_each_run(
                vs,
                |a, b| a == b,
                |count, v| {
                    put_u64(out, count);
                    put_i64(out, *v);
                },
            );
        } else {
            out.push(ENC_RAW);
            encode_nulls(out, col);
            for &v in vs {
                put_i64(out, v);
            }
        }
    } else if let Some(vs) = col.raw_f64s() {
        // Runs compare by bit pattern so -0.0/0.0 and NaN payloads round-trip
        // exactly.
        let beq = |a: &f64, b: &f64| a.to_bits() == b.to_bits();
        let runs = run_count(vs, beq);
        if 8 + 16 * runs < 8 * rows {
            out.push(ENC_RLE);
            encode_nulls(out, col);
            put_u64(out, runs as u64);
            for_each_run(vs, beq, |count, v| {
                put_u64(out, count);
                put_u64(out, v.to_bits());
            });
        } else {
            out.push(ENC_RAW);
            encode_nulls(out, col);
            for &v in vs {
                put_u64(out, v.to_bits());
            }
        }
    } else if let Some(vs) = col.raw_strs() {
        // Dictionary: unique strings in first-seen order, then per-row codes
        // (themselves RLE'd when that is smaller).
        let mut codes: Vec<u32> = Vec::with_capacity(rows);
        let mut index: HashMap<&str, u32> = HashMap::new();
        let mut entries: Vec<&Arc<str>> = Vec::new();
        for s in vs {
            let next = entries.len() as u32;
            let code = *index.entry(&**s).or_insert_with(|| {
                entries.push(s);
                next
            });
            codes.push(code);
        }
        let raw_size: usize = vs.iter().map(|s| 4 + s.len()).sum();
        let entries_size: usize = 4 + entries.iter().map(|s| 4 + s.len()).sum::<usize>();
        let code_runs = run_count(&codes, |a, b| a == b);
        let codes_rle = 8 + 12 * code_runs;
        let codes_raw = 4 * rows;
        let dict_size = entries_size + 1 + codes_raw.min(codes_rle);
        if dict_size < raw_size {
            out.push(ENC_DICT);
            encode_nulls(out, col);
            put_u32(out, entries.len() as u32);
            for s in &entries {
                put_u32(out, s.len() as u32);
                out.extend_from_slice(s.as_bytes());
            }
            if codes_rle < codes_raw {
                out.push(ENC_RLE);
                put_u64(out, code_runs as u64);
                for_each_run(
                    &codes,
                    |a, b| a == b,
                    |count, c| {
                        put_u64(out, count);
                        put_u32(out, *c);
                    },
                );
            } else {
                out.push(ENC_RAW);
                for &c in &codes {
                    put_u32(out, c);
                }
            }
        } else {
            out.push(ENC_RAW);
            encode_nulls(out, col);
            for s in vs {
                put_u32(out, s.len() as u32);
                out.extend_from_slice(s.as_bytes());
            }
        }
    } else {
        let vs = col.raw_bools().expect("exhaustive column types");
        let runs = run_count(vs, |a, b| a == b);
        if 8 + 9 * runs < rows.div_ceil(8) {
            out.push(ENC_RLE);
            encode_nulls(out, col);
            put_u64(out, runs as u64);
            for_each_run(
                vs,
                |a, b| a == b,
                |count, v| {
                    put_u64(out, count);
                    out.push(u8::from(*v));
                },
            );
        } else {
            out.push(ENC_RAW);
            encode_nulls(out, col);
            out.extend_from_slice(&pack_bits(vs));
        }
    }
}

fn decode_column(r: &mut ByteReader, dtype: DataType, rows: usize) -> Result<Column> {
    let enc = r.get_u8()?;
    let mask = match r.get_u8()? {
        0 => None,
        _ => Some(unpack_bits(r.take(rows.div_ceil(8))?, rows)),
    };
    let bad_enc = || SkallaError::corrupt(format!("invalid encoding {enc} for {dtype} chunk"));
    let col = match dtype {
        DataType::Int64 => {
            let mut vs: Vec<i64> = Vec::with_capacity(rows);
            match enc {
                ENC_RAW => {
                    for _ in 0..rows {
                        vs.push(r.get_i64()?);
                    }
                }
                ENC_RLE => {
                    let runs = r.get_len("run")?;
                    for _ in 0..runs {
                        let count = r.get_u64()?;
                        let v = r.get_i64()?;
                        extend_run(&mut vs, v, count, rows)?;
                    }
                }
                _ => return Err(bad_enc()),
            }
            check_rows(vs.len(), rows)?;
            Column::from_i64(vs)
        }
        DataType::Float64 => {
            let mut vs: Vec<f64> = Vec::with_capacity(rows);
            match enc {
                ENC_RAW => {
                    for _ in 0..rows {
                        vs.push(f64::from_bits(r.get_u64()?));
                    }
                }
                ENC_RLE => {
                    let runs = r.get_len("run")?;
                    for _ in 0..runs {
                        let count = r.get_u64()?;
                        let v = f64::from_bits(r.get_u64()?);
                        extend_run(&mut vs, v, count, rows)?;
                    }
                }
                _ => return Err(bad_enc()),
            }
            check_rows(vs.len(), rows)?;
            Column::from_f64(vs)
        }
        DataType::Utf8 => {
            let mut vs: Vec<Arc<str>> = Vec::with_capacity(rows);
            match enc {
                ENC_RAW => {
                    for _ in 0..rows {
                        vs.push(read_str(r)?);
                    }
                }
                ENC_DICT => {
                    let n = r.get_u32()? as usize;
                    let mut entries: Vec<Arc<str>> = Vec::with_capacity(n);
                    for _ in 0..n {
                        entries.push(read_str(r)?);
                    }
                    let entry = |c: u32| -> Result<Arc<str>> {
                        entries
                            .get(c as usize)
                            .cloned()
                            .ok_or_else(|| SkallaError::corrupt("dictionary code out of range"))
                    };
                    match r.get_u8()? {
                        ENC_RAW => {
                            for _ in 0..rows {
                                let c = r.get_u32()?;
                                vs.push(entry(c)?);
                            }
                        }
                        ENC_RLE => {
                            let runs = r.get_len("run")?;
                            for _ in 0..runs {
                                let count = r.get_u64()?;
                                let v = entry(r.get_u32()?)?;
                                extend_run(&mut vs, v, count, rows)?;
                            }
                        }
                        _ => return Err(bad_enc()),
                    }
                }
                _ => return Err(bad_enc()),
            }
            check_rows(vs.len(), rows)?;
            Column::from_arc_strs(vs)
        }
        DataType::Bool => {
            let mut vs: Vec<bool> = Vec::with_capacity(rows);
            match enc {
                ENC_RAW => {
                    vs = unpack_bits(r.take(rows.div_ceil(8))?, rows);
                }
                ENC_RLE => {
                    let runs = r.get_len("run")?;
                    for _ in 0..runs {
                        let count = r.get_u64()?;
                        let v = r.get_u8()? != 0;
                        extend_run(&mut vs, v, count, rows)?;
                    }
                }
                _ => return Err(bad_enc()),
            }
            check_rows(vs.len(), rows)?;
            Column::from_bools(vs)
        }
    };
    col.with_null_mask(mask)
}

fn read_str(r: &mut ByteReader) -> Result<Arc<str>> {
    let n = r.get_u32()? as usize;
    let bytes = r.take(n)?;
    std::str::from_utf8(bytes)
        .map(Arc::from)
        .map_err(|_| SkallaError::corrupt("segment chunk holds invalid utf8"))
}

fn extend_run<T: Clone>(vs: &mut Vec<T>, v: T, count: u64, rows: usize) -> Result<()> {
    let count = usize::try_from(count)
        .ok()
        .filter(|&c| vs.len() + c <= rows)
        .ok_or_else(|| SkallaError::corrupt("RLE run overflows segment row count"))?;
    let new_len = vs.len() + count;
    vs.resize(new_len, v);
    Ok(())
}

fn check_rows(got: usize, want: usize) -> Result<()> {
    if got == want {
        Ok(())
    } else {
        Err(SkallaError::corrupt(format!(
            "segment chunk decoded {got} rows, expected {want}"
        )))
    }
}

/// Read one framed column chunk (`u64` length, `u32` CRC32C, bytes) and
/// verify its checksum. Returns the chunk bytes only if they are exactly
/// what the writer sealed.
fn read_chunk<'a>(r: &mut ByteReader<'a>, path: &Path) -> Result<&'a [u8]> {
    let len = r.get_len("chunk byte")?;
    let want = r.get_u32()?;
    let chunk = r.take(len)?;
    if crc32c(chunk) != want {
        return Err(SkallaError::corrupt(format!(
            "chunk checksum mismatch in {}",
            path.display()
        )));
    }
    Ok(chunk)
}

// ---------------------------------------------------------------------------
// Writer.

/// Summary returned by [`SegmentWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentWriteSummary {
    /// Total rows written.
    pub rows: usize,
    /// Number of segments.
    pub segments: usize,
    /// Final file size in bytes.
    pub bytes: u64,
}

/// Streaming writer: rows (or whole tables) go in, a segment is flushed to
/// disk every `segment_rows` rows, so peak memory is one segment regardless
/// of table size.
pub struct SegmentWriter {
    file: BufWriter<File>,
    /// Where bytes actually go until `finish` renames them into place.
    tmp_path: PathBuf,
    /// The published name; also the key fault plans are matched against.
    final_path: PathBuf,
    schema: Arc<Schema>,
    segment_rows: usize,
    buf: Vec<Column>,
    buf_rows: usize,
    offset: u64,
    total_rows: u64,
    segs: Vec<SegmentMeta>,
    published: bool,
}

fn fresh_columns(schema: &Schema, cap: usize) -> Vec<Column> {
    schema
        .fields()
        .iter()
        .map(|f| Column::with_capacity(f.dtype, cap))
        .collect()
}

impl SegmentWriter {
    /// Create (truncating) a segment file at `path` for `schema`, flushing a
    /// segment every `segment_rows` rows.
    pub fn create(
        path: impl AsRef<Path>,
        schema: Arc<Schema>,
        segment_rows: usize,
    ) -> Result<SegmentWriter> {
        let final_path = path.as_ref().to_path_buf();
        if schema.is_empty() {
            return Err(SkallaError::schema(
                "segment file needs at least one column",
            ));
        }
        if segment_rows == 0 {
            return Err(SkallaError::exec("segment_rows must be positive"));
        }
        let file_name = final_path
            .file_name()
            .ok_or_else(|| SkallaError::exec("segment path has no file name"))?
            .to_string_lossy()
            .into_owned();
        let tmp_path = final_path.with_file_name(format!("{file_name}.tmp"));
        let file = File::create(&tmp_path).map_err(|e| io_err("create", &tmp_path, e))?;
        let mut file = BufWriter::new(file);
        let mut header = Vec::new();
        header.extend_from_slice(HEADER_MAGIC);
        put_u64(&mut header, schema.len() as u64);
        for f in schema.fields() {
            put_u16(&mut header, f.name.len() as u16);
            header.extend_from_slice(f.name.as_bytes());
            header.push(dtype_tag(f.dtype));
        }
        let header_crc = crc32c(&header);
        put_u32(&mut header, header_crc);
        file.write_all(&header)
            .map_err(|e| io_err("write", &tmp_path, e))?;
        let buf = fresh_columns(&schema, segment_rows);
        Ok(SegmentWriter {
            file,
            tmp_path,
            final_path,
            schema,
            segment_rows,
            buf,
            buf_rows: 0,
            offset: header.len() as u64,
            total_rows: 0,
            segs: Vec::new(),
            published: false,
        })
    }

    /// The schema the writer was created with.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Append one row (values in schema order; `Value::Null` allowed).
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(SkallaError::schema(format!(
                "row of {} values against schema of {} columns",
                row.len(),
                self.schema.len()
            )));
        }
        for (col, v) in self.buf.iter_mut().zip(row) {
            col.push(v.clone())?;
        }
        self.buf_rows += 1;
        if self.buf_rows == self.segment_rows {
            self.flush_segment()?;
        }
        Ok(())
    }

    /// Append a whole table (bulk column copies, no per-value dispatch).
    pub fn write_table(&mut self, table: &Table) -> Result<()> {
        if table.schema().fields() != self.schema.fields() {
            return Err(SkallaError::schema("segment write of mismatched schema"));
        }
        let mut done = 0;
        while done < table.len() {
            let take = (self.segment_rows - self.buf_rows).min(table.len() - done);
            for (c, col) in self.buf.iter_mut().enumerate() {
                col.append_range(table.column(c), done, done + take)?;
            }
            self.buf_rows += take;
            done += take;
            if self.buf_rows == self.segment_rows {
                self.flush_segment()?;
            }
        }
        Ok(())
    }

    fn flush_segment(&mut self) -> Result<()> {
        if self.buf_rows == 0 {
            return Ok(());
        }
        // Satellite: zone maps come from the catalog's own stats collector —
        // one typed pass, no second stats implementation.
        let zones: Vec<ColumnStats> = self.buf.iter().map(ColumnStats::collect).collect();
        let mut body = Vec::new();
        let mut chunk = Vec::new();
        for col in &self.buf {
            chunk.clear();
            encode_column(col, &mut chunk);
            put_u64(&mut body, chunk.len() as u64);
            put_u32(&mut body, crc32c(&chunk));
            body.extend_from_slice(&chunk);
        }
        // Seeded write-time fault: a flipped bit that lands on disk and stays
        // there, exactly like a firmware or cable error would leave it.
        if let Some(plan) = disk_faults_for(&self.final_path) {
            if let Some(pos) = plan.bitflip_for(&self.final_path, self.segs.len()) {
                let bit = (pos % (body.len() as u64 * 8)) as usize;
                body[bit >> 3] ^= 1 << (bit & 7);
            }
        }
        self.file
            .write_all(&body)
            .map_err(|e| io_err("write", &self.tmp_path, e))?;
        self.segs.push(SegmentMeta {
            offset: self.offset,
            byte_len: body.len() as u64,
            rows: self.buf_rows,
            zones,
        });
        self.offset += body.len() as u64;
        self.total_rows += self.buf_rows as u64;
        self.buf = fresh_columns(&self.schema, self.segment_rows);
        self.buf_rows = 0;
        Ok(())
    }

    /// Flush the tail segment, write the CRC-sealed zone-map footer, then
    /// publish atomically: fsync the tmp file, rename it over the final
    /// path, and fsync the parent directory. A crash anywhere before the
    /// rename leaves only a `.tmp` file — never a torn file at the
    /// published name.
    pub fn finish(mut self) -> Result<SegmentWriteSummary> {
        self.flush_segment()?;
        let mut footer = Vec::new();
        put_u64(&mut footer, self.total_rows);
        put_u64(&mut footer, self.segs.len() as u64);
        for seg in &self.segs {
            put_u64(&mut footer, seg.offset);
            put_u64(&mut footer, seg.byte_len);
            put_u64(&mut footer, seg.rows as u64);
            for z in &seg.zones {
                put_opt_value(&mut footer, &z.min);
                put_opt_value(&mut footer, &z.max);
                put_u64(&mut footer, z.distinct as u64);
                put_u64(&mut footer, z.null_count as u64);
            }
        }
        let footer_len = footer.len() as u64;
        let footer_crc = crc32c(&footer);
        put_u32(&mut footer, footer_crc);
        put_u64(&mut footer, footer_len);
        footer.extend_from_slice(TAIL_MAGIC);
        // Seeded write-time fault: a torn write that loses the tail of the
        // footer frame, as if power failed mid-write (the rename below
        // still "succeeds" — that is the point: the checksum, not the
        // publication protocol, must catch it).
        if let Some(plan) = disk_faults_for(&self.final_path) {
            if let Some(dropped) = plan.torn_write_for(&self.final_path) {
                let keep = footer.len().saturating_sub(dropped);
                footer.truncate(keep);
            }
        }
        self.file
            .write_all(&footer)
            .map_err(|e| io_err("write", &self.tmp_path, e))?;
        self.file
            .flush()
            .map_err(|e| io_err("flush", &self.tmp_path, e))?;
        self.file
            .get_ref()
            .sync_all()
            .map_err(|e| io_err("fsync", &self.tmp_path, e))?;
        std::fs::rename(&self.tmp_path, &self.final_path)
            .map_err(|e| io_err("publish", &self.final_path, e))?;
        self.published = true;
        let parent = match self.final_path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        // Make the rename itself durable. Best-effort: some filesystems
        // refuse directory fsync, and the data is already safe in the file.
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
        Ok(SegmentWriteSummary {
            rows: self.total_rows as usize,
            segments: self.segs.len(),
            bytes: self.offset + footer.len() as u64,
        })
    }
}

impl Drop for SegmentWriter {
    fn drop(&mut self) {
        // Abandoned writer (error path, panic, or caller never called
        // `finish`): remove the tmp file so half-written bytes cannot be
        // mistaken for a segment later.
        if !self.published {
            let _ = std::fs::remove_file(&self.tmp_path);
        }
    }
}

/// Write `table` to `path` as one segment file (convenience wrapper).
pub fn write_segments(
    path: impl AsRef<Path>,
    table: &Table,
    segment_rows: usize,
) -> Result<SegmentWriteSummary> {
    let mut w = SegmentWriter::create(path, table.schema().clone(), segment_rows)?;
    w.write_table(table)?;
    w.finish()
}

// ---------------------------------------------------------------------------
// Reader.

/// Per-segment metadata: body location plus the zone map.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentMeta {
    /// Byte offset of the segment body in the file.
    pub offset: u64,
    /// Encoded body length in bytes.
    pub byte_len: u64,
    /// Rows in this segment.
    pub rows: usize,
    /// Zone map: exact per-column stats, in schema order.
    pub zones: Vec<ColumnStats>,
}

/// An open segment file: schema + zone maps in memory, bodies on disk, read
/// on demand with positioned I/O. Shareable across threads behind an `Arc`.
#[derive(Debug)]
pub struct SegmentFile {
    file: File,
    path: PathBuf,
    schema: Arc<Schema>,
    total_rows: usize,
    segs: Vec<SegmentMeta>,
    /// Starting global row index of each segment.
    row_starts: Vec<usize>,
}

impl SegmentFile {
    /// Open a segment file, reading only its header and footer — both
    /// CRC-verified before a single parsed value is trusted.
    pub fn open(path: impl AsRef<Path>) -> Result<SegmentFile> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path).map_err(|e| io_err("open", &path, e))?;
        let flen = file.metadata().map_err(|e| io_err("stat", &path, e))?.len();
        let bad = |what: &str| SkallaError::corrupt(format!("{}: {what}", path.display()));
        // Minimum: header magic + ncols + header crc, footer (two u64s for
        // an empty file), tail frame.
        if flen < (HEADER_MAGIC.len() + 8 + 4) as u64 + 16 + TAIL_LEN {
            return Err(bad("not a segment file (too short)"));
        }
        let mut tail = [0u8; TAIL_LEN as usize];
        file.read_exact_at(&mut tail, flen - TAIL_LEN)
            .map_err(|e| read_err(&path, e))?;
        if &tail[12..] != TAIL_MAGIC {
            return Err(bad("not a segment file (bad tail magic)"));
        }
        let footer_crc = u32::from_le_bytes(tail[..4].try_into().unwrap());
        let footer_len = u64::from_le_bytes(tail[4..12].try_into().unwrap());
        if footer_len > flen - TAIL_LEN {
            return Err(bad("corrupt footer length"));
        }
        let mut footer = vec![0u8; footer_len as usize];
        file.read_exact_at(&mut footer, flen - TAIL_LEN - footer_len)
            .map_err(|e| read_err(&path, e))?;
        // Seeded read-time fault: the device returns an old version of the
        // footer block (lost-write / misdirected-read). Modeled by
        // inverting its tail — unlike zeroing, that changes the bytes no
        // matter what the footer held, so the recorded CRC cannot match.
        if let Some(plan) = disk_faults_for(&path) {
            if plan.stale_footer_for(&path) {
                let n = footer.len();
                for b in &mut footer[n.saturating_sub(8)..] {
                    *b = !*b;
                }
            }
        }
        if crc32c(&footer) != footer_crc {
            return Err(bad("footer checksum mismatch"));
        }

        // Header: magic + schema + CRC. The header is tiny; 64 KiB covers
        // any real schema.
        let mut head = vec![0u8; (flen.min(64 * 1024)) as usize];
        file.read_exact_at(&mut head, 0)
            .map_err(|e| read_err(&path, e))?;
        let mut hr = ByteReader::new(&head);
        if hr.take(8)? != HEADER_MAGIC {
            return Err(bad("not a segment file (bad header magic)"));
        }
        let ncols = hr.get_len("column")?;
        let mut fields = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let nlen = hr.get_u16()? as usize;
            let name = std::str::from_utf8(hr.take(nlen)?)
                .map_err(|_| bad("column name holds invalid utf8"))?
                .to_string();
            let dtype = tag_dtype(hr.get_u8()?)?;
            fields.push(skalla_types::Field::new(name, dtype));
        }
        let header_crc = crc32c(&head[..hr.pos]);
        if hr.get_u32()? != header_crc {
            return Err(bad("header checksum mismatch"));
        }
        let schema = Schema::new(fields)?.into_arc();

        // Footer: row counts + zone maps.
        let mut fr = ByteReader::new(&footer);
        let total_rows =
            usize::try_from(fr.get_u64()?).map_err(|_| bad("corrupt total row count"))?;
        let nsegs = fr.get_len("segment")?;
        let mut segs = Vec::with_capacity(nsegs);
        let mut row_starts = Vec::with_capacity(nsegs);
        let mut row_start = 0usize;
        for _ in 0..nsegs {
            let offset = fr.get_u64()?;
            let byte_len = fr.get_u64()?;
            let rows =
                usize::try_from(fr.get_u64()?).map_err(|_| bad("corrupt segment row count"))?;
            if offset.checked_add(byte_len).is_none_or(|end| end > flen) {
                return Err(bad("segment body out of file bounds"));
            }
            let mut zones = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let min = get_opt_value(&mut fr)?;
                let max = get_opt_value(&mut fr)?;
                let distinct = fr.get_u64()? as usize;
                let null_count = fr.get_u64()? as usize;
                zones.push(ColumnStats {
                    min,
                    max,
                    distinct,
                    null_count,
                });
            }
            segs.push(SegmentMeta {
                offset,
                byte_len,
                rows,
                zones,
            });
            row_starts.push(row_start);
            row_start += rows;
        }
        if row_start != total_rows {
            return Err(bad("segment row counts disagree with total"));
        }
        Ok(SegmentFile {
            file,
            path,
            schema,
            total_rows,
            segs,
            row_starts,
        })
    }

    /// The file's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The path this file was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segs.len()
    }

    /// Total rows across all segments.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Metadata (including the zone map) of segment `i`.
    pub fn meta(&self, i: usize) -> &SegmentMeta {
        &self.segs[i]
    }

    /// All segment metadata, in file order.
    pub fn metas(&self) -> &[SegmentMeta] {
        &self.segs
    }

    /// Global row index of the first row of segment `i`.
    pub fn segment_row_start(&self, i: usize) -> usize {
        self.row_starts[i]
    }

    /// Approximate whole-file statistics assembled from the footer's zone
    /// maps — no segment body is read. `min`/`max`/`null_count` are exact;
    /// `distinct` is an upper bound (per-segment counts summed, capped at
    /// the row count), good enough for the planner's cost estimates.
    pub fn table_stats(&self) -> crate::stats::TableStats {
        let mut stats = crate::stats::TableStats {
            rows: 0,
            columns: vec![
                crate::stats::ColumnStats {
                    min: None,
                    max: None,
                    distinct: 0,
                    null_count: 0,
                };
                self.schema.len()
            ],
        };
        for seg in &self.segs {
            stats.merge(&crate::stats::TableStats {
                rows: seg.rows,
                columns: seg.zones.clone(),
            });
        }
        stats
    }

    /// Read segment `i`'s body bytes, applying any installed short-read
    /// fault (the un-arrived suffix reads back as zeros, as a failed DMA
    /// would leave it).
    fn read_body(&self, i: usize) -> Result<Vec<u8>> {
        let meta = &self.segs[i];
        let mut body = vec![0u8; meta.byte_len as usize];
        self.file
            .read_exact_at(&mut body, meta.offset)
            .map_err(|e| read_err(&self.path, e))?;
        if let Some(plan) = disk_faults_for(&self.path) {
            if let Some(permille) = plan.short_read_for(&self.path, i) {
                let keep = (body.len() as u64 * permille / 1000) as usize;
                for b in &mut body[keep..] {
                    *b = 0;
                }
            }
        }
        Ok(body)
    }

    /// Decode segment `i` into an in-memory table (one positioned read):
    /// [`SegmentFile::read_columns`] of every column.
    pub fn read_segment(&self, i: usize) -> Result<Table> {
        let all: Vec<usize> = (0..self.schema.len()).collect();
        self.read_columns(i, &all)
    }

    /// Decode only columns `cols` (strictly increasing schema indices) of
    /// segment `i`, as a table under the projected schema — the
    /// out-of-core scan's one decoder. Every column chunk of the segment
    /// still has its CRC32C verified, the unread ones too: those are
    /// checked and skipped by their framed length, so a flipped bit fails
    /// the segment whichever columns a query reads.
    pub fn read_columns(&self, i: usize, cols: &[usize]) -> Result<Table> {
        if i >= self.segs.len() {
            return Err(SkallaError::exec(format!("segment {i} out of range")));
        }
        let ncols = self.schema.len();
        if cols.windows(2).any(|w| w[0] >= w[1]) || cols.last().is_some_and(|&c| c >= ncols) {
            return Err(SkallaError::exec(format!(
                "column list {cols:?} is not strictly increasing within {ncols} columns"
            )));
        }
        let schema = if cols.len() == ncols {
            self.schema.clone()
        } else {
            Arc::new(self.schema.project(cols)?)
        };
        let rows = self.segs[i].rows;
        let body = self.read_body(i)?;
        let mut r = ByteReader::new(&body);
        let mut wanted = cols.iter().peekable();
        let mut out = Vec::with_capacity(cols.len());
        for (c, f) in self.schema.fields().iter().enumerate() {
            let chunk = read_chunk(&mut r, &self.path)?;
            if wanted.next_if_eq(&&c).is_some() {
                out.push(decode_column(&mut ByteReader::new(chunk), f.dtype, rows)?);
            }
        }
        Table::from_columns_with_len(schema, out, rows)
    }

    /// Verify every column chunk's CRC in the whole file without decoding
    /// or materializing anything — the scrub path: a
    /// [`SegmentFile::read_columns`] of no columns per segment. Returns the
    /// number of blocks (column chunks) verified; any mismatch is a typed
    /// [`SkallaError::SegmentCorrupt`].
    pub fn verify(&self) -> Result<u64> {
        for i in 0..self.segs.len() {
            self.read_columns(i, &[])?;
        }
        Ok((self.segs.len() * self.schema.len()) as u64)
    }

    /// Decode the whole file into one in-memory table.
    pub fn read_all(&self) -> Result<Table> {
        if self.segs.is_empty() {
            return Ok(Table::empty(self.schema.clone()));
        }
        let parts = (0..self.segs.len())
            .map(|i| self.read_segment(i))
            .collect::<Result<Vec<_>>>()?;
        Table::concat(&parts)
    }
}

/// Turn a column list into a projected read: the columns of an
/// `ncols`-wide schema that [`SegmentFile::read_columns`] decodes for
/// `cols` (the in-range ones, sorted and deduplicated, as it requires),
/// and where each entry of `cols` lands in that projection (`None` when
/// out of range).
pub fn projection(cols: &[usize], ncols: usize) -> (Vec<usize>, Vec<Option<usize>>) {
    let mut read: Vec<usize> = cols.iter().copied().filter(|&c| c < ncols).collect();
    read.sort_unstable();
    read.dedup();
    let at = cols.iter().map(|c| read.binary_search(c).ok()).collect();
    (read, at)
}

// ---------------------------------------------------------------------------
// Zone-map pruning.

/// Largest `f64` strictly below `x` (bit-twiddling `nextafter`).
fn next_down(x: f64) -> f64 {
    if x.is_nan() || x == f64::NEG_INFINITY {
        return x;
    }
    if x == 0.0 {
        return -f64::from_bits(1);
    }
    let bits = x.to_bits();
    f64::from_bits(if bits >> 63 == 0 { bits - 1 } else { bits + 1 })
}

/// Smallest `f64` strictly above `x`.
fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1);
    }
    let bits = x.to_bits();
    f64::from_bits(if bits >> 63 == 0 { bits + 1 } else { bits - 1 })
}

/// An `f64` lower bound ≤ `i` (exact below 2^53, widened conservatively
/// above, where `i as f64` may round up).
fn widen_lo(i: i64) -> f64 {
    let f = i as f64;
    if cmp_int_float(i, f).is_lt() {
        next_down(f)
    } else {
        f
    }
}

/// An `f64` upper bound ≥ `i`.
fn widen_hi(i: i64) -> f64 {
    let f = i as f64;
    if cmp_int_float(i, f).is_gt() {
        next_up(f)
    } else {
        f
    }
}

/// Zone check: can a segment whose column has stats `z` contain a non-null
/// value inside `iv`? Conservative: `true` means "maybe" — `false` is a
/// proof of emptiness and licenses skipping the segment.
///
/// NULLs never satisfy a comparison predicate, so an all-null column
/// (`min == None`) is prunable. Floats use `Value`'s total order, where NaN
/// with the sign bit clear sorts after `+inf` (and a negative-bit NaN before
/// `-inf`): a positive-NaN *minimum* means every value is NaN — also
/// prunable, since comparisons never match NaN — while a NaN *maximum* just
/// makes the zone unbounded on that side. Integer bounds beyond 2^53 are
/// widened outward so the `as f64` rounding can never fake a disjointness.
pub fn zone_may_overlap(z: &ColumnStats, iv: &Interval) -> bool {
    let (Some(min), Some(max)) = (&z.min, &z.max) else {
        return false;
    };
    let lo = match min {
        Value::Int(i) => Some(widen_lo(*i)),
        Value::Float(f) if f.is_nan() => {
            if f.is_sign_negative() {
                None // -NaN sorts first: no lower bound on the rest.
            } else {
                return false; // min is +NaN ⇒ every value is NaN.
            }
        }
        Value::Float(f) => Some(*f),
        _ => return true, // non-numeric column: never prune on intervals
    };
    let hi = match max {
        Value::Int(i) => Some(widen_hi(*i)),
        Value::Float(f) if f.is_nan() => {
            if f.is_sign_negative() {
                return false; // max is -NaN ⇒ every value is NaN.
            } else {
                None // +NaN sorts last: no upper bound on the rest.
            }
        }
        Value::Float(f) => Some(*f),
        _ => return true,
    };
    let zone = match (lo, hi) {
        (Some(lo), Some(hi)) => Interval::closed(lo, hi),
        (Some(lo), None) => Interval::at_least(lo),
        (None, Some(hi)) => Interval::at_most(hi),
        (None, None) => Interval::unbounded(),
    };
    !iv.intersect(&zone).is_empty()
}

/// Zone check for string equality: can the segment contain string `s`?
pub fn zone_may_contain_str(z: &ColumnStats, s: &str) -> bool {
    match (&z.min, &z.max) {
        (Some(Value::Str(lo)), Some(Value::Str(hi))) => &**lo <= s && s <= &**hi,
        (None, _) | (_, None) => false,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("skalla-seg-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("t.seg")
    }

    fn sample_table(rows: i64) -> Table {
        let schema = Schema::from_pairs([
            ("k", DataType::Int64),
            ("x", DataType::Float64),
            ("s", DataType::Utf8),
            ("b", DataType::Bool),
            ("n", DataType::Int64),
        ])
        .unwrap()
        .into_arc();
        let rows: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                vec![
                    Value::Int(i / 10), // sorted, low cardinality → RLE
                    if i % 17 == 0 {
                        Value::Float(f64::NAN)
                    } else if i % 13 == 0 {
                        Value::Float(-0.0)
                    } else {
                        Value::Float(i as f64 * 0.5)
                    },
                    Value::str(["alpha", "beta", "gamma"][(i % 3) as usize]),
                    Value::Bool(i % 2 == 0),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int(-i)
                    },
                ]
            })
            .collect();
        Table::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn round_trips_bit_for_bit() {
        let t = sample_table(1000);
        let path = tmp("roundtrip");
        // 128 rows/segment → 8 segments, last one short (1000 = 7×128 + 104).
        let summary = write_segments(&path, &t, 128).unwrap();
        assert_eq!(summary.rows, 1000);
        assert_eq!(summary.segments, 8);
        let f = SegmentFile::open(&path).unwrap();
        assert_eq!(f.num_segments(), 8);
        assert_eq!(f.total_rows(), 1000);
        assert_eq!(f.meta(7).rows, 104);
        assert_eq!(f.segment_row_start(7), 896);
        let back = f.read_all().unwrap();
        assert_eq!(back.schema().fields(), t.schema().fields());
        assert_eq!(back.len(), t.len());
        for i in 0..t.len() {
            for c in 0..t.schema().len() {
                let (a, b) = (t.column(c).get(i), back.column(c).get(i));
                // Bit-strict: NaN payload and -0.0 sign must survive.
                match (&a, &b) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits(), "row {i} col {c}");
                    }
                    _ => assert_eq!(a, b, "row {i} col {c}"),
                }
            }
        }
    }

    #[test]
    fn push_row_matches_write_table() {
        let t = sample_table(300);
        let (pa, pb) = (tmp("rows"), tmp("table"));
        let mut w = SegmentWriter::create(&pa, t.schema().clone(), 64).unwrap();
        for i in 0..t.len() {
            let row: Vec<Value> = (0..t.schema().len()).map(|c| t.column(c).get(i)).collect();
            w.push_row(&row).unwrap();
        }
        w.finish().unwrap();
        write_segments(&pb, &t, 64).unwrap();
        assert_eq!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
    }

    #[test]
    fn compression_beats_raw_on_runs_and_dicts() {
        let schema = Schema::from_pairs([("r", DataType::Int64), ("d", DataType::Utf8)])
            .unwrap()
            .into_arc();
        let rows: Vec<Vec<Value>> = (0..4096)
            .map(|i| {
                vec![
                    Value::Int(i / 512),
                    Value::str(["aaaaaaaaaa", "bbbbbbbbbb"][(i % 2) as usize]),
                ]
            })
            .collect();
        let t = Table::from_rows(schema, &rows).unwrap();
        let path = tmp("compress");
        let summary = write_segments(&path, &t, 4096).unwrap();
        // Raw would be ≥ 4096×8 + 4096×14 bytes; RLE + dict shrink far below.
        assert!(
            summary.bytes < 4096 * 8,
            "expected compression, got {} bytes",
            summary.bytes
        );
        let back = SegmentFile::open(&path).unwrap().read_all().unwrap();
        assert_eq!(back.len(), 4096);
        assert_eq!(back.column(0).get(4095), Value::Int(7));
        assert_eq!(back.column(1).get(1), Value::str("bbbbbbbbbb"));
    }

    #[test]
    fn zone_maps_match_catalog_stats() {
        let t = sample_table(1000);
        let path = tmp("zones");
        write_segments(&path, &t, 250).unwrap();
        let f = SegmentFile::open(&path).unwrap();
        for i in 0..f.num_segments() {
            let seg = f.read_segment(i).unwrap();
            let expect = crate::stats::TableStats::collect(&seg);
            assert_eq!(f.meta(i).zones, expect.columns, "segment {i}");
        }
    }

    #[test]
    fn empty_table_round_trips() {
        let schema = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        let t = Table::empty(schema);
        let path = tmp("empty");
        let summary = write_segments(&path, &t, 16).unwrap();
        assert_eq!(summary.segments, 0);
        let f = SegmentFile::open(&path).unwrap();
        assert_eq!(f.total_rows(), 0);
        assert_eq!(f.read_all().unwrap().len(), 0);
    }

    #[test]
    fn rejects_corrupt_files() {
        let path = tmp("corrupt");
        std::fs::write(&path, b"definitely not a segment file").unwrap();
        assert!(SegmentFile::open(&path).unwrap_err().is_corrupt());
        let t = sample_table(100);
        write_segments(&path, &t, 32).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff; // break tail magic
        std::fs::write(&path, &bytes).unwrap();
        assert!(SegmentFile::open(&path).unwrap_err().is_corrupt());
    }

    #[test]
    fn header_and_footer_checksums_catch_flips() {
        let t = sample_table(100);
        let path = tmp("hf-crc");
        write_segments(&path, &t, 32).unwrap();
        let good = std::fs::read(&path).unwrap();
        let mut bad = good.clone();
        bad[10] ^= 0x40; // inside the header's column count
        std::fs::write(&path, &bad).unwrap();
        let e = SegmentFile::open(&path).unwrap_err();
        assert!(e.is_corrupt(), "{e}");
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - TAIL_LEN as usize - 1] ^= 0x01; // last footer byte
        std::fs::write(&path, &bad).unwrap();
        let e = SegmentFile::open(&path).unwrap_err();
        assert!(e.is_corrupt(), "{e}");
    }

    #[test]
    fn chunk_checksum_catches_body_flips() {
        let t = sample_table(100);
        let path = tmp("body-crc");
        write_segments(&path, &t, 100).unwrap();
        let off = SegmentFile::open(&path).unwrap().meta(0).offset as usize;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[off + 14] ^= 0x10; // inside the first chunk's sealed bytes
        std::fs::write(&path, &bytes).unwrap();
        // Header and footer are intact, so open still succeeds…
        let f = SegmentFile::open(&path).unwrap();
        // …but every decode path reports typed corruption, never bad data.
        assert!(f.read_segment(0).unwrap_err().is_corrupt());
        assert!(f.read_all().unwrap_err().is_corrupt());
        assert!(f.verify().unwrap_err().is_corrupt());
    }

    /// Bit-strict table equality: schema, length, and every cell (NaN
    /// payloads and the sign of -0.0 included).
    fn assert_tables_bit_equal(a: &Table, b: &Table) {
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.len(), b.len());
        for c in 0..a.schema().len() {
            for r in 0..a.len() {
                match (a.column(c).get(r), b.column(c).get(r)) {
                    (Value::Float(x), Value::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                    (x, y) => assert_eq!(x, y, "row {r} col {c}"),
                }
            }
        }
    }

    #[test]
    fn read_columns_of_every_column_is_read_segment() {
        let t = sample_table(300);
        let path = tmp("cols-all");
        write_segments(&path, &t, 128).unwrap();
        let f = SegmentFile::open(&path).unwrap();
        for i in 0..f.num_segments() {
            let all = f.read_columns(i, &[0, 1, 2, 3, 4]).unwrap();
            assert_tables_bit_equal(&all, &f.read_segment(i).unwrap());
            assert!(Arc::ptr_eq(all.schema(), f.schema()));
        }
    }

    #[test]
    fn read_columns_of_a_subset_is_the_projection() {
        let t = sample_table(300);
        let path = tmp("cols-subset");
        write_segments(&path, &t, 128).unwrap();
        let f = SegmentFile::open(&path).unwrap();
        let subsets: [&[usize]; 6] = [&[], &[0], &[4], &[1, 2], &[0, 3, 4], &[1, 2, 3, 4]];
        for i in 0..f.num_segments() {
            let whole = f.read_segment(i).unwrap();
            for cols in subsets {
                let got = f.read_columns(i, cols).unwrap();
                assert_tables_bit_equal(&got, &whole.project(cols).unwrap());
                // Zero columns still carry the segment's row count.
                assert_eq!(got.len(), f.meta(i).rows, "segment {i} cols {cols:?}");
            }
        }
    }

    #[test]
    fn projection_sorts_dedups_and_maps_back() {
        let (read, at) = projection(&[3, 1, 3, 7, 0], 5);
        assert_eq!(read, vec![0, 1, 3]);
        assert_eq!(at, vec![Some(2), Some(1), Some(2), None, Some(0)]);
        let (read, at) = projection(&[], 5);
        assert!(read.is_empty() && at.is_empty());
    }

    #[test]
    fn read_columns_rejects_bad_column_lists() {
        let t = sample_table(100);
        let path = tmp("cols-bad");
        write_segments(&path, &t, 64).unwrap();
        let f = SegmentFile::open(&path).unwrap();
        for cols in [&[2, 1][..], &[1, 1], &[0, 5], &[usize::MAX]] {
            let e = f.read_columns(0, cols).unwrap_err();
            assert!(
                !e.is_corrupt(),
                "{cols:?}: a caller error, not corruption: {e}"
            );
        }
        assert!(f.read_columns(f.num_segments(), &[0]).is_err());
    }

    #[test]
    fn read_columns_verifies_the_chunks_it_skips() {
        let t = sample_table(100);
        let path = tmp("cols-skip-crc");
        write_segments(&path, &t, 100).unwrap();
        let off = SegmentFile::open(&path).unwrap().meta(0).offset as usize;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[off + 14] ^= 0x10; // inside column 0's sealed bytes
        std::fs::write(&path, &bytes).unwrap();
        let f = SegmentFile::open(&path).unwrap();
        // Column 0 is never decoded here, but its CRC is still checked.
        for cols in [&[][..], &[3], &[1, 2, 4]] {
            assert!(
                f.read_columns(0, cols).unwrap_err().is_corrupt(),
                "{cols:?}"
            );
        }
    }

    #[test]
    fn verify_counts_all_blocks() {
        let t = sample_table(300);
        let path = tmp("verify");
        write_segments(&path, &t, 100).unwrap();
        let f = SegmentFile::open(&path).unwrap();
        // 3 segments × 5 columns.
        assert_eq!(f.verify().unwrap(), 15);
    }

    #[test]
    fn abandoned_writer_leaves_nothing_published() {
        let t = sample_table(50);
        let path = tmp("abandon");
        let tmp_path = path.with_file_name("t.seg.tmp");
        {
            let mut w = SegmentWriter::create(&path, t.schema().clone(), 16).unwrap();
            w.write_table(&t).unwrap();
            assert!(tmp_path.exists());
            // Dropped without finish: simulated crash mid-generation.
        }
        assert!(!path.exists());
        assert!(!tmp_path.exists());
        write_segments(&path, &t, 16).unwrap();
        assert!(path.exists());
        assert!(!tmp_path.exists());
        assert_eq!(SegmentFile::open(&path).unwrap().total_rows(), 50);
    }

    #[test]
    fn injected_bitflip_is_caught_and_typed() {
        let t = sample_table(200);
        let path = tmp("bitflip-fault");
        let _g = crate::fault::DiskFaultPlan::seeded(7)
            .with_bitflip_rate(1.0)
            .install(path.parent().unwrap());
        write_segments(&path, &t, 64).unwrap();
        let f = SegmentFile::open(&path).unwrap();
        for i in 0..f.num_segments() {
            assert!(f.read_segment(i).unwrap_err().is_corrupt(), "segment {i}");
        }
        assert!(f.verify().unwrap_err().is_corrupt());
    }

    #[test]
    fn injected_torn_write_is_caught_at_open() {
        let t = sample_table(100);
        let path = tmp("torn-fault");
        let _g = crate::fault::DiskFaultPlan::seeded(3)
            .with_torn_write_rate(1.0)
            .install(path.parent().unwrap());
        write_segments(&path, &t, 32).unwrap();
        assert!(SegmentFile::open(&path).unwrap_err().is_corrupt());
    }

    #[test]
    fn injected_stale_footer_is_caught_at_open() {
        let t = sample_table(100);
        let path = tmp("stale-fault");
        write_segments(&path, &t, 32).unwrap();
        // The file on disk is good; the fault is a read-time stale block.
        let _g = crate::fault::DiskFaultPlan::seeded(5)
            .with_stale_footer_rate(1.0)
            .install(path.parent().unwrap());
        assert!(SegmentFile::open(&path).unwrap_err().is_corrupt());
    }

    #[test]
    fn injected_short_read_never_returns_wrong_data() {
        let t = sample_table(200);
        let path = tmp("short-fault");
        write_segments(&path, &t, 64).unwrap();
        let good = SegmentFile::open(&path).unwrap().read_all().unwrap();
        let _g = crate::fault::DiskFaultPlan::seeded(11)
            .with_short_read_rate(1.0)
            .install(path.parent().unwrap());
        let f = SegmentFile::open(&path).unwrap();
        let mut failures = 0;
        for i in 0..f.num_segments() {
            match f.read_segment(i) {
                // A short read that only lost already-zero padding decodes
                // correctly; anything else must be typed corruption.
                Ok(seg) => {
                    let start = f.segment_row_start(i);
                    for r in 0..seg.len() {
                        for c in 0..seg.schema().len() {
                            let (a, b) = (seg.column(c).get(r), good.column(c).get(start + r));
                            match (&a, &b) {
                                (Value::Float(x), Value::Float(y)) => {
                                    assert_eq!(x.to_bits(), y.to_bits());
                                }
                                _ => assert_eq!(a, b),
                            }
                        }
                    }
                }
                Err(e) => {
                    assert!(e.is_corrupt(), "{e}");
                    failures += 1;
                }
            }
        }
        assert!(
            failures > 0,
            "rate-1.0 short reads never tripped a checksum"
        );
    }

    fn zi(min: i64, max: i64) -> ColumnStats {
        ColumnStats {
            min: Some(Value::Int(min)),
            max: Some(Value::Int(max)),
            distinct: 2,
            null_count: 0,
        }
    }

    #[test]
    fn zone_overlap_basics() {
        let z = zi(10, 20);
        assert!(zone_may_overlap(&z, &Interval::at_least(15.0)));
        assert!(zone_may_overlap(&z, &Interval::closed(20.0, 30.0)));
        assert!(!zone_may_overlap(&z, &Interval::at_least(20.5)));
        assert!(!zone_may_overlap(&z, &Interval::greater_than(20.0)));
        assert!(!zone_may_overlap(&z, &Interval::at_most(9.0)));
        assert!(zone_may_overlap(&z, &Interval::singleton(10.0)));
        // All-null zone is always prunable.
        let all_null = ColumnStats {
            min: None,
            max: None,
            distinct: 0,
            null_count: 5,
        };
        assert!(!zone_may_overlap(&all_null, &Interval::unbounded()));
    }

    #[test]
    fn zone_overlap_handles_nan_and_big_ints() {
        // All-NaN float column: min is (positive) NaN → prunable.
        let z = ColumnStats {
            min: Some(Value::Float(f64::NAN)),
            max: Some(Value::Float(f64::NAN)),
            distinct: 1,
            null_count: 0,
        };
        assert!(!zone_may_overlap(&z, &Interval::unbounded()));
        // NaN max with a real min: unbounded above, still bounded below.
        let z = ColumnStats {
            min: Some(Value::Float(5.0)),
            max: Some(Value::Float(f64::NAN)),
            distinct: 3,
            null_count: 0,
        };
        assert!(zone_may_overlap(&z, &Interval::at_least(1e300)));
        assert!(!zone_may_overlap(&z, &Interval::at_most(4.5)));
        // i64 beyond 2^53: `as f64` rounds; bounds must widen, not shrink.
        let big = (1i64 << 60) + 1; // rounds down to 2^60 as f64
        let z = zi(big, big);
        assert!(zone_may_overlap(&z, &Interval::closed(big as f64, 1e19)));
        let below = (1i64 << 60) - 1; // rounds up to 2^60
        let z = zi(i64::MIN, below);
        assert!(zone_may_overlap(&z, &Interval::at_least(below as f64)));
    }

    #[test]
    fn zone_string_equality() {
        let z = ColumnStats {
            min: Some(Value::str("delhi")),
            max: Some(Value::str("osaka")),
            distinct: 4,
            null_count: 0,
        };
        assert!(zone_may_contain_str(&z, "lima"));
        assert!(zone_may_contain_str(&z, "delhi"));
        assert!(!zone_may_contain_str(&z, "zagreb"));
        assert!(!zone_may_contain_str(&z, "cairo"));
    }
}
