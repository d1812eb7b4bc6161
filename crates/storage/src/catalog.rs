//! Per-site table catalogs.

use std::collections::HashMap;
use std::sync::Arc;

use skalla_types::{Result, Schema, SkallaError};

use crate::partition::{partition_table_name, PartFrag};
use crate::scan::ScanSource;
use crate::segment::SegmentFile;
use crate::table::Table;

/// A name → table map. Each Skalla site owns one catalog holding its local
/// partitions of the warehouse's fact relations. A name can additionally be
/// backed by an on-disk [`SegmentFile`] (out-of-core mode): scans then
/// stream segments from disk instead of touching an in-memory table.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
    segments: HashMap<String, Arc<SegmentFile>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table under `name`, replacing any previous entry
    /// (including a segment-backed one).
    pub fn register(&mut self, name: impl Into<String>, table: Table) {
        let name = name.into();
        self.segments.remove(&name);
        self.tables.insert(name, Arc::new(table));
    }

    /// Register an already-shared table.
    pub fn register_arc(&mut self, name: impl Into<String>, table: Arc<Table>) {
        let name = name.into();
        self.segments.remove(&name);
        self.tables.insert(name, table);
    }

    /// Look up a table by name, materializing a segment-backed one in
    /// full (every column of every segment, unpruned and uncounted). Two
    /// callers still need that: a site answering `ShipAllRequest` (the
    /// ship-everything anti-baseline) and the centralized oracle
    /// (`eval_expr_centralized`). No site scan may call it; scans read
    /// through [`Catalog::source`].
    pub fn get(&self, name: &str) -> Result<Arc<Table>> {
        if let Some(t) = self.tables.get(name) {
            return Ok(t.clone());
        }
        if let Some(f) = self.segments.get(name) {
            return Ok(Arc::new(f.read_all()?));
        }
        Err(SkallaError::not_found(format!("table `{name}`")))
    }

    /// The rows a request names, as one [`ScanSource`] — the only place
    /// that maps a request onto catalog entries. `parts: None` is the
    /// replication-unaware protocol: every row registered under `name`
    /// (the site's primary partition). `Some(fs)` names partition
    /// fragments, registered under their [`partition_table_name`]s (see
    /// [`crate::replicate_catalogs`]); each contributes its
    /// [`PartFrag::row_bounds`] window, in list order. Failover uses this
    /// to hand a dead site's partitions to a surviving replica host, and
    /// skew-aware splitting to spread a hot partition over several hosts:
    /// replicas are bit-identical with identical row order, so a fragment
    /// denotes the same rows on every host. In-memory entries become
    /// in-place table windows, segment-backed ones segment windows.
    pub fn source(&self, name: &str, parts: Option<&[PartFrag]>) -> Result<ScanSource<'_>> {
        let Some(fs) = parts else {
            return self.whole(name);
        };
        let mut frags = fs.iter().map(|f| {
            let whole = self.whole(&partition_table_name(name, f.part as usize))?;
            let rows = f.row_bounds(whole.rows());
            Ok::<_, SkallaError>(whole.narrow(rows))
        });
        let mut source = frags
            .next()
            .ok_or_else(|| SkallaError::exec("request names an empty fragment list"))??;
        for frag in frags {
            source.append(frag?)?;
        }
        Ok(source)
    }

    /// Every row registered under `name`.
    fn whole(&self, name: &str) -> Result<ScanSource<'_>> {
        if let Some(t) = self.tables.get(name) {
            return Ok(ScanSource::of_table(t));
        }
        if let Some(f) = self.segments.get(name) {
            return Ok(ScanSource::of_segments(f, None));
        }
        Err(SkallaError::not_found(format!("table `{name}`")))
    }

    /// Schema of a registered name — from footer metadata for
    /// segment-backed names, so out-of-core tables are never materialized
    /// just to learn their shape.
    pub fn schema_of(&self, name: &str) -> Result<Arc<Schema>> {
        if let Some(t) = self.tables.get(name) {
            return Ok(t.schema().clone());
        }
        if let Some(f) = self.segments.get(name) {
            return Ok(f.schema().clone());
        }
        Err(SkallaError::not_found(format!("table `{name}`")))
    }

    /// Back `name` with an on-disk segment file. Any in-memory table under
    /// the same name is dropped — the segment store is now authoritative,
    /// so a stale copy cannot shadow it.
    pub fn register_segments(&mut self, name: impl Into<String>, file: Arc<SegmentFile>) {
        let name = name.into();
        self.tables.remove(&name);
        self.segments.insert(name, file);
    }

    /// The segment file backing `name`, if it is segment-backed.
    pub fn get_segments(&self, name: &str) -> Option<Arc<SegmentFile>> {
        self.segments.get(name).cloned()
    }

    /// Drop `name` entirely (in-memory and/or segment-backed). Used by the
    /// scrub path to quarantine a corrupt segment file: once unregistered,
    /// queries fail with `NotFound` instead of re-reading bad bytes.
    pub fn unregister(&mut self, name: &str) {
        self.tables.remove(name);
        self.segments.remove(name);
    }

    /// `true` if `name` is registered (in-memory or segment-backed).
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name) || self.segments.contains_key(name)
    }

    /// Names of all registered tables (in-memory and segment-backed), sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .tables
            .keys()
            .chain(self.segments.keys())
            .map(String::as_str)
            .collect();
        names.sort_unstable();
        names
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len() + self.segments.len()
    }

    /// `true` if no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty() && self.segments.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_types::{DataType, Schema};

    fn tiny() -> Table {
        Table::empty(
            Schema::from_pairs([("a", DataType::Int64)])
                .unwrap()
                .into_arc(),
        )
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.register("flow", tiny());
        assert!(c.contains("flow"));
        assert!(c.get("flow").is_ok());
        assert!(c.get("other").is_err());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn register_replaces() {
        let mut c = Catalog::new();
        c.register("t", tiny());
        let shared = Arc::new(tiny());
        c.register_arc("t", shared.clone());
        assert!(Arc::ptr_eq(&c.get("t").unwrap(), &shared));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn names_sorted() {
        let mut c = Catalog::new();
        c.register("b", tiny());
        c.register("a", tiny());
        assert_eq!(c.table_names(), vec!["a", "b"]);
    }
}
