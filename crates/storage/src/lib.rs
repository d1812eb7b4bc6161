#![warn(missing_docs)]

//! # skalla-storage
//!
//! Columnar storage for Skalla local data warehouses.
//!
//! Each Skalla *site* holds a partition of the conceptual fact relation in a
//! [`Table`]: an immutable-schema, append-only columnar store. The paper uses
//! AT&T's Daytona DBMS as the local warehouse engine; this crate (together
//! with the GMDJ evaluator in `skalla-gmdj`) is our from-scratch substitute.
//!
//! Modules:
//!
//! * [`mod@column`] — typed column vectors with null support.
//! * [`table`] — the columnar [`Table`], row accessors, filters, projections.
//! * [`partition`] — hash/range/value partitioning used to spread a fact
//!   relation across sites, plus extraction of per-partition value
//!   constraints (the `φᵢ` fed to the group-reduction analysis).
//! * [`index`] — hash indexes on key columns.
//! * [`catalog`] — a name → table map per site, and the one resolution of
//!   a request's `(name, parts)` into the rows it scans.
//! * [`scan`] — [`ScanSource`], those rows: a row-ordered list of
//!   in-memory table windows and segment-file windows, walked by every
//!   site scan.
//! * [`sketch`] — per-partition cardinality + space-saving heavy-hitter
//!   sketches and the hot-partition fragment planner behind skew-aware
//!   round execution.
//! * [`segment`] — the persistent columnar segment store: compressed
//!   fixed-row-count segments (RLE/dictionary/raw) with per-segment
//!   zone-map footers, positioned-I/O readers, and the zone overlap
//!   checks behind out-of-core segment pruning. Every column chunk and
//!   the footer are CRC32C-sealed, and files publish atomically
//!   (tmp + fsync + rename).
//! * [`crc`] — hand-rolled std-only CRC32C, the block checksum.
//! * [`fault`] — seeded, deterministic disk-fault injection (bit-flips,
//!   torn writes, short reads, stale footers), the storage twin of
//!   `skalla-net::fault`.

pub mod catalog;
pub mod column;
pub mod crc;
pub mod fault;
pub mod index;
pub mod partition;
pub mod scan;
pub mod segment;
pub mod sketch;
pub mod stats;
pub mod table;

pub use catalog::Catalog;
pub use column::Column;
pub use crc::{crc32c, crc32c_append};
pub use fault::{disk_faults_for, DiskFaultGuard, DiskFaultPlan};
pub use index::HashIndex;
pub use partition::{
    partition_by_hash, partition_by_ranges, partition_by_values, partition_table_name,
    replicate_catalogs, PartFrag, Partitioning, ReplicaMap,
};
pub use scan::{Piece, ScanSource};
pub use segment::{
    projection, write_segments, zone_may_contain_str, zone_may_overlap, SegmentFile, SegmentMeta,
    SegmentWriteSummary, SegmentWriter, DEFAULT_SEGMENT_ROWS,
};
pub use sketch::{load_imbalance, plan_splits, PartSketch, SpaceSaving};
pub use stats::{ColumnStats, TableStats};
pub use table::{DistinctRows, Table, TableBuilder};
