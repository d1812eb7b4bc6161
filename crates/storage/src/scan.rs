//! The rows one site scan reads: [`ScanSource`].
//!
//! A request names a detail relation and, under replicated placement, the
//! partition fragments it covers. Whether those rows sit in memory, in a
//! segment file on disk, or in a failover union of both, a scan sees one
//! row-ordered list of windows and walks it through
//! [`ScanSource::scan`]. [`Catalog::source`](crate::Catalog::source)
//! resolves a request into a source.

use std::ops::Range;
use std::sync::Arc;

use skalla_types::{Result, Schema, SkallaError};

use crate::segment::{SegmentFile, SegmentMeta};
use crate::table::Table;

/// The rows one scan reads: a row-ordered list of windows over in-memory
/// tables and segment files, all under one schema. Row `i` of the source
/// is row `i` of the windows' concatenation.
#[derive(Debug, Clone)]
pub struct ScanSource<'a> {
    schema: Arc<Schema>,
    windows: Vec<Window<'a>>,
    rows: usize,
}

/// One window of a [`ScanSource`]: rows `start..end` of its backing data.
#[derive(Debug, Clone, Copy)]
enum Window<'a> {
    /// An in-memory table: read in place, no zone maps, never pruned.
    Table(&'a Table, usize, usize),
    /// A segment file (global row offsets): decoded one segment at a time
    /// through [`SegmentFile::read_columns`], pruned by zone maps.
    Segments(&'a SegmentFile, usize, usize),
}

/// What a scan hands its consumer, in row order.
#[derive(Debug)]
pub enum Piece<'t> {
    /// Rows `rows` of an in-memory table holding every column.
    Table(&'t Table, Range<usize>),
    /// Rows `rows` of one segment, decoded to the scan's column list: one
    /// read, which CRC-checked `chunks` column chunks.
    Segment(&'t Table, Range<usize>, u64),
    /// One segment whose zone map refuted the scan: not read.
    Pruned,
}

impl<'a> ScanSource<'a> {
    /// All rows of an in-memory table.
    pub fn of_table(table: &'a Table) -> ScanSource<'a> {
        ScanSource {
            schema: table.schema().clone(),
            windows: vec![Window::Table(table, 0, table.len())],
            rows: table.len(),
        }
    }

    /// Rows `range` (all rows when `None`) of a segment file.
    pub fn of_segments(file: &'a SegmentFile, range: Option<(usize, usize)>) -> ScanSource<'a> {
        let whole = ScanSource {
            schema: file.schema().clone(),
            windows: vec![Window::Segments(file, 0, file.total_rows())],
            rows: file.total_rows(),
        };
        match range {
            Some(rows) => whole.narrow(rows),
            None => whole,
        }
    }

    /// Rows `lo..hi` of a one-window source.
    pub(crate) fn narrow(mut self, (lo, hi): (usize, usize)) -> ScanSource<'a> {
        debug_assert_eq!(self.windows.len(), 1);
        if let Some(Window::Table(_, s, e) | Window::Segments(_, s, e)) = self.windows.first_mut() {
            *e = *s + hi;
            *s += lo;
        }
        self.rows = hi - lo;
        self
    }

    /// Append `other`'s windows. A window that continues the last one over
    /// the same data merges into it, so a run of adjacent fragments reads
    /// a segment they share once.
    pub(crate) fn append(&mut self, other: ScanSource<'a>) -> Result<()> {
        if *other.schema != *self.schema {
            return Err(SkallaError::schema(
                "fragments of one request have different schemas",
            ));
        }
        for w in other.windows {
            match (self.windows.last_mut(), w) {
                (Some(Window::Table(a, _, end)), Window::Table(b, s, e))
                    if std::ptr::eq(*a, b) && *end == s =>
                {
                    *end = e
                }
                (Some(Window::Segments(a, _, end)), Window::Segments(b, s, e))
                    if std::ptr::eq(*a, b) && *end == s =>
                {
                    *end = e
                }
                _ => self.windows.push(w),
            }
        }
        self.rows += other.rows;
        Ok(())
    }

    /// The schema every window shares.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Total rows across the windows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Walk source rows `rows` in row order, handing `f` one [`Piece`] per
    /// stretch of an in-memory window and per segment of a segment window.
    /// A segment whose zone map `refuted` rejects is reported as
    /// [`Piece::Pruned`] and not read; any other is decoded to `cols`
    /// (strictly increasing) and read once per call, even when only part
    /// of it lies in `rows`.
    pub fn scan(
        &self,
        rows: Range<usize>,
        cols: &[usize],
        refuted: impl Fn(&SegmentMeta) -> bool,
        mut f: impl FnMut(Piece<'_>) -> Result<()>,
    ) -> Result<()> {
        let mut at = 0;
        for w in &self.windows {
            let (start, end) = match *w {
                Window::Table(_, s, e) | Window::Segments(_, s, e) => (s, e),
            };
            // This window's share of `rows`, in its own row offsets.
            let lo = rows.start.max(at) - at + start;
            let hi = rows.end.min(at + end - start).saturating_sub(at) + start;
            at += end - start;
            if lo >= hi {
                continue;
            }
            match *w {
                Window::Table(t, _, _) => f(Piece::Table(t, lo..hi))?,
                Window::Segments(file, _, _) => {
                    for i in 0..file.num_segments() {
                        let s = file.segment_row_start(i);
                        let e = s + file.meta(i).rows;
                        if e <= lo || s >= hi {
                            continue;
                        }
                        if refuted(file.meta(i)) {
                            f(Piece::Pruned)?;
                            continue;
                        }
                        let t = file.read_columns(i, cols)?;
                        let chunks = file.schema().len() as u64;
                        f(Piece::Segment(&t, lo.max(s) - s..hi.min(e) - s, chunks))?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_types::{DataType, Value};

    fn table(n: i64) -> Table {
        let schema = Schema::from_pairs([("k", DataType::Int64), ("v", DataType::Int64)])
            .unwrap()
            .into_arc();
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(-i)])
            .collect();
        Table::from_rows(schema, &rows).unwrap()
    }

    /// Rows of `source` in `rows`, column 0, as the scan hands them out,
    /// plus the number of segment reads.
    fn walk(source: &ScanSource<'_>, rows: Range<usize>) -> (Vec<Value>, usize) {
        let (mut out, mut reads) = (Vec::new(), 0);
        source
            .scan(
                rows,
                &[0],
                |_| false,
                |p| {
                    let (t, r) = match p {
                        Piece::Table(t, r) => (t, r),
                        Piece::Segment(t, r, chunks) => {
                            assert_eq!(chunks, 2);
                            reads += 1;
                            (t, r)
                        }
                        Piece::Pruned => unreachable!("nothing is refuted"),
                    };
                    out.extend(r.map(|i| t.column(0).get(i)));
                    Ok(())
                },
            )
            .unwrap();
        (out, reads)
    }

    /// A union of a segment window, an in-memory window and a second
    /// segment window walks the concatenated rows in order for every row
    /// range, reading each overlapped segment once; adjacent windows over
    /// the same data merge.
    #[test]
    fn windows_walk_in_row_order() {
        let t = table(100);
        let path = std::env::temp_dir().join(format!("skalla-scan-{}.seg", std::process::id()));
        crate::write_segments(&path, &t, 16).unwrap();
        let file = SegmentFile::open(&path).unwrap();
        let mut source = ScanSource::of_segments(&file, Some((10, 40)));
        source.append(ScanSource::of_table(&t)).unwrap();
        source
            .append(ScanSource::of_segments(&file, Some((90, 95))))
            .unwrap();
        source
            .append(ScanSource::of_segments(&file, Some((95, 100))))
            .unwrap();
        assert_eq!(source.windows.len(), 3);
        assert_eq!(source.rows(), 140);
        let want: Vec<Value> = (10..40)
            .chain(0..100)
            .chain(90..100)
            .map(Value::Int)
            .collect();
        for (lo, hi) in [(0, 140), (0, 0), (5, 33), (29, 131), (130, 140)] {
            let (got, reads) = walk(&source, lo..hi);
            assert_eq!(got, want[lo..hi].to_vec(), "{lo}..{hi}");
            // The source rows each segment read covers: file rows 10..40
            // lie in segments 0..=2, file rows 90..100 in segments 5..=6.
            let segs = [(0, 6), (6, 22), (22, 30), (130, 136), (136, 140)];
            let seg_reads = segs.iter().filter(|&&(s, e)| lo < e && hi > s).count();
            assert_eq!(reads, seg_reads, "{lo}..{hi}");
        }
        let mut other = ScanSource::of_table(&t);
        let narrow = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        assert!(other
            .append(ScanSource::of_table(&Table::empty(narrow)))
            .is_err());
        std::fs::remove_file(&path).ok();
    }
}
