//! The benchmark's output checks. Each check is a pure function that
//! returns `Err(reason)` on a wrong input, so the tests below can feed it
//! one and see it fail.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use skalla_core::ExecMetrics;
use skalla_types::{Relation, Value};

/// Relative tolerance for floats compared against the centralized oracle:
/// loose enough that a change of summation order or an exact summation
/// still passes, tight enough that a perturbed sum fails.
pub const FLOAT_REL_TOL: f64 = 1e-9;

pub type Check = Result<(), String>;

/// Tally of checks run and the reasons of those that failed.
#[derive(Default)]
pub struct Checks {
    pub run: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, context: &str, result: Check) {
        self.run += 1;
        if let Err(why) = result {
            if self.failures.len() < 20 {
                self.failures.push(format!("{context}: {why}"));
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.run += other.run;
        for f in other.failures {
            if self.failures.len() < 20 {
                self.failures.push(f);
            }
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x - y).abs() <= FLOAT_REL_TOL * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

/// `got` holds the same rows as `want`, in any order: integers, strings
/// and booleans equal, floats within [`FLOAT_REL_TOL`].
pub fn same_answer(got: &Relation, want: &Relation) -> Check {
    if got.schema().names() != want.schema().names() {
        return Err(format!(
            "columns {:?}, expected {:?}",
            got.schema().names(),
            want.schema().names()
        ));
    }
    if got.len() != want.len() {
        return Err(format!("{} groups, expected {}", got.len(), want.len()));
    }
    let (g, w) = (got.sorted(), want.sorted());
    for (i, (rg, rw)) in g.rows().iter().zip(w.rows()).enumerate() {
        if rg.len() != rw.len() || rg.iter().zip(rw).any(|(a, b)| !value_eq(a, b)) {
            return Err(format!("row {i}: {rg:?}, expected {rw:?}"));
        }
    }
    Ok(())
}

/// Σ COUNT(*) of column `col` equals `expected`, the benchmark's own count
/// of matching generated rows.
pub fn count_total(rel: &Relation, col: &str, expected: u64) -> Check {
    let idx = rel.schema().index_of(col).map_err(|e| e.to_string())?;
    let total: i64 = rel
        .rows()
        .iter()
        .map(|r| r[idx].as_int().map_err(|e| e.to_string()))
        .sum::<Result<i64, String>>()?;
    if u64::try_from(total) == Ok(expected) {
        Ok(())
    } else {
        Err(format!(
            "Σ {col} = {total}, own count of matching rows = {expected}"
        ))
    }
}

/// Theorem 2: tuples moved ≤ Σᵢ 2·sᵢ·|Q| + s₀·|Q| with `ops` GMDJ
/// operators and `sites` children of the coordinator.
pub fn theorem2(m: &ExecMetrics, ops: usize, sites: usize, groups: usize) -> Check {
    let (s, q) = (sites as u64, groups as u64);
    let bound = ops as u64 * 2 * s * q + s * q;
    let moved = m.total_rows_down() + m.total_rows_up();
    if moved <= bound {
        Ok(())
    } else {
        Err(format!("{moved} tuples moved, Theorem 2 bound {bound}"))
    }
}

/// Link bytes counted by the network equal the bytes the coordinator's
/// metrics report.
pub fn bytes_agree(network_bytes: u64, m: &ExecMetrics) -> Check {
    if network_bytes == m.total_bytes() {
        Ok(())
    } else {
        Err(format!(
            "network counted {network_bytes} B, ExecMetrics::total_bytes() = {}",
            m.total_bytes()
        ))
    }
}

/// Tiered: every round ships at most one fragment of ≤ |Q| rows per
/// mid-tier over the root links.
pub fn root_rows_up(m: &ExecMetrics, mids: usize, groups: usize) -> Check {
    let cap = (mids * groups) as u64;
    match m.rounds.iter().find(|r| r.rows_up > cap) {
        None => Ok(()),
        Some(r) => Err(format!(
            "round {}: {} rows up the root links > {mids} mid-tiers × {groups} groups",
            r.label, r.rows_up
        )),
    }
}

/// Segment accounting of one query, given its per-round (scanned, pruned)
/// counts: every round that visited segments visited each of the `total`
/// segments once; `full_history` queries prune nothing; and no round
/// scanned fewer than `needed`, the segments the generated rows put a
/// matching row in.
pub fn segment_accounting(
    rounds: &[(u64, u64)],
    total: u64,
    needed: u64,
    full_history: bool,
) -> Check {
    let visiting: Vec<&(u64, u64)> = rounds.iter().filter(|(sc, pr)| sc + pr > 0).collect();
    if visiting.is_empty() {
        return Err("no round visited a segment".to_string());
    }
    for &(sc, pr) in visiting {
        if sc + pr != total {
            return Err(format!(
                "{sc} scanned + {pr} pruned ≠ {total} segments in the files"
            ));
        }
        if full_history && pr != 0 {
            return Err(format!("full-history query pruned {pr}"));
        }
        if sc < needed {
            return Err(format!(
                "scanned {sc} < {needed} segments holding a matching row"
            ));
        }
    }
    Ok(())
}

/// Order-independent fingerprint of a result, exact to the float bit, so
/// repeated answers are compared to the oracle once per distinct value.
pub fn fingerprint(rel: &Relation) -> u64 {
    let mut rows: Vec<u64> = rel
        .rows()
        .iter()
        .map(|row| {
            let mut h = DefaultHasher::new();
            for v in row {
                match v {
                    Value::Null => 0u8.hash(&mut h),
                    Value::Int(x) => (1u8, x).hash(&mut h),
                    Value::Float(x) => (2u8, x.to_bits()).hash(&mut h),
                    Value::Str(s) => (3u8, s.as_ref()).hash(&mut h),
                    Value::Bool(b) => (4u8, b).hash(&mut h),
                }
            }
            h.finish()
        })
        .collect();
    rows.sort_unstable();
    let mut h = DefaultHasher::new();
    rows.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_core::RoundMetrics;
    use skalla_types::{DataType, Schema};

    fn rel(rows: Vec<(&str, i64, f64)>) -> Relation {
        let schema = Schema::from_pairs([
            ("g", DataType::Utf8),
            ("cnt", DataType::Int64),
            ("avg", DataType::Float64),
        ])
        .unwrap()
        .into_arc();
        Relation::new(
            schema,
            rows.into_iter()
                .map(|(g, c, a)| vec![Value::str(g), Value::Int(c), Value::Float(a)])
                .collect(),
        )
        .unwrap()
    }

    fn oracle() -> Relation {
        rel(vec![("a", 3, 1.5), ("b", 2, 2.25), ("c", 5, 10.0)])
    }

    #[test]
    fn answer_check_accepts_reordering_and_rounding() {
        let got = rel(vec![
            ("c", 5, 10.0 * (1.0 + 1e-12)),
            ("a", 3, 1.5),
            ("b", 2, 2.25),
        ]);
        assert!(same_answer(&got, &oracle()).is_ok());
    }

    #[test]
    fn answer_check_rejects_dropped_group() {
        let got = rel(vec![("a", 3, 1.5), ("c", 5, 10.0)]);
        assert!(same_answer(&got, &oracle()).is_err());
    }

    #[test]
    fn answer_check_rejects_perturbed_sum() {
        let got = rel(vec![
            ("a", 3, 1.5),
            ("b", 2, 2.25 * (1.0 + 1e-6)),
            ("c", 5, 10.0),
        ]);
        assert!(same_answer(&got, &oracle()).is_err());
    }

    #[test]
    fn answer_check_rejects_wrong_count_or_key() {
        let got = rel(vec![("a", 4, 1.5), ("b", 2, 2.25), ("c", 5, 10.0)]);
        assert!(same_answer(&got, &oracle()).is_err());
        let got = rel(vec![("a", 3, 1.5), ("x", 2, 2.25), ("c", 5, 10.0)]);
        assert!(same_answer(&got, &oracle()).is_err());
    }

    #[test]
    fn count_check_rejects_miscount() {
        assert!(count_total(&oracle(), "cnt", 10).is_ok());
        assert!(count_total(&oracle(), "cnt", 11).is_err());
        assert!(count_total(&oracle(), "nope", 10).is_err());
    }

    fn round(rows_down: u64, rows_up: u64, bytes: u64, scanned: u64, pruned: u64) -> RoundMetrics {
        RoundMetrics {
            label: "r".to_string(),
            rows_down,
            rows_up,
            bytes_down: bytes,
            bytes_up: bytes,
            segments_scanned: scanned,
            segments_pruned: pruned,
            ..RoundMetrics::default()
        }
    }

    fn metrics(rounds: Vec<RoundMetrics>) -> ExecMetrics {
        ExecMetrics {
            rounds,
            ..ExecMetrics::default()
        }
    }

    #[test]
    fn theorem2_rejects_excess_tuples() {
        // One operator, 4 sites, 10 groups: bound 2·4·10 + 4·10 = 120.
        let ok = metrics(vec![round(40, 40, 0, 0, 0), round(0, 40, 0, 0, 0)]);
        assert!(theorem2(&ok, 1, 4, 10).is_ok());
        let over = metrics(vec![round(40, 40, 0, 0, 0), round(0, 41, 0, 0, 0)]);
        assert!(theorem2(&over, 1, 4, 10).is_err());
    }

    #[test]
    fn byte_check_rejects_mismatch() {
        let m = metrics(vec![round(0, 0, 100, 0, 0)]);
        assert!(bytes_agree(200, &m).is_ok());
        assert!(bytes_agree(199, &m).is_err());
    }

    #[test]
    fn root_link_check_rejects_a_fragment_per_leaf() {
        let m = metrics(vec![round(0, 20, 0, 0, 0)]);
        assert!(root_rows_up(&m, 2, 10).is_ok());
        let leafy = metrics(vec![round(0, 80, 0, 0, 0)]);
        assert!(root_rows_up(&leafy, 2, 10).is_err());
    }

    #[test]
    fn segment_check_rejects_miscounted_segment() {
        let m = [(0, 0), (3, 9)];
        assert!(segment_accounting(&m, 12, 3, false).is_ok());
        // One visit too few, one too many.
        assert!(segment_accounting(&m, 13, 3, false).is_err());
        assert!(segment_accounting(&m, 11, 3, false).is_err());
        // A segment holding a matching row was pruned.
        assert!(segment_accounting(&m, 12, 4, false).is_err());
        // A full-history query pruned.
        assert!(segment_accounting(&m, 12, 3, true).is_err());
        assert!(segment_accounting(&[], 12, 0, false).is_err());
    }

    #[test]
    fn fingerprint_ignores_order_not_bits() {
        let a = oracle();
        let b = rel(vec![("c", 5, 10.0), ("b", 2, 2.25), ("a", 3, 1.5)]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = rel(vec![
            ("c", 5, 10.000000000000002),
            ("b", 2, 2.25),
            ("a", 3, 1.5),
        ]);
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn tally_counts_failures() {
        let mut c = Checks::default();
        c.record("x", Ok(()));
        c.record("y", Err("bad".to_string()));
        assert_eq!(c.run, 2);
        assert!(!c.ok());
        assert_eq!(c.failures, vec!["y: bad".to_string()]);
    }
}
