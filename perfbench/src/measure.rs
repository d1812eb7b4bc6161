//! Process-level measurements (CPU time, peak RSS), order statistics, and
//! the named metrics a run reports.

use std::time::Instant;

/// `struct rusage` from `<sys/resource.h>` on Linux: two `timeval`s
/// followed by fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_s: i64,
    utime_us: i64,
    stime_s: i64,
    stime_us: i64,
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> RUsage {
    let mut u = RUsage::default();
    // SAFETY: `u` is a live, writable `struct rusage` with the Linux
    // layout declared above; getrusage writes at most that many bytes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    u
}

/// User plus system CPU seconds of the whole process (every thread).
pub fn cpu_s() -> f64 {
    let u = rusage();
    (u.utime_s + u.stime_s) as f64 + (u.utime_us + u.stime_us) as f64 * 1e-6
}

/// The process's high-water resident set size, in MiB: `VmHWM` of
/// `/proc/self/status`. (`ru_maxrss` is no use here: Linux carries the
/// parent's peak across `fork` and `exec`, so under `cargo run` it reports
/// cargo's footprint.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Wall and CPU time of one measured phase.
pub struct Phase {
    wall: Instant,
    cpu_s: f64,
}

impl Phase {
    pub fn start() -> Phase {
        Phase {
            wall: Instant::now(),
            cpu_s: cpu_s(),
        }
    }

    /// Wall seconds since [`Phase::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// `(wall seconds, CPU seconds)` since [`Phase::start`].
    pub fn stop(&self) -> (f64, f64) {
        (self.elapsed_s(), cpu_s() - self.cpu_s)
    }
}

/// Latencies each slice of a measured phase holds at least, so that its
/// p90 has 15 samples beyond it.
pub const MIN_SLICE: usize = 150;

/// Throughput, p50 and p90 latency of a measured phase, each the median
/// of its values over consecutive equal-count slices of the completions —
/// as many as keep [`MIN_SLICE`] each, from 3 to 9 — so a slow spell of
/// the host that hits a few slices does not move them. `done_at[i]` is
/// seconds from the phase start to completion `i`, whose latency is
/// `latency_s[i]`. Returns `(per s, ms, ms)`.
pub fn sliced_timings(done_at: &[f64], latency_s: &[f64]) -> (f64, f64, f64) {
    let mut c: Vec<(f64, f64)> = done_at
        .iter()
        .copied()
        .zip(latency_s.iter().copied())
        .collect();
    c.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = c.len();
    let slices = (n / MIN_SLICE).clamp(3, 9).min(n);
    let (mut rate, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..slices {
        let (lo, hi) = (k * n / slices, (k + 1) * n / slices);
        let start = if lo == 0 { 0.0 } else { c[lo - 1].0 };
        rate.push((hi - lo) as f64 / (c[hi - 1].0 - start));
        let lat: Vec<f64> = c[lo..hi].iter().map(|x| x.1 * 1e3).collect();
        p50.push(percentile(&lat, 50.0));
        p90.push(percentile(&lat, 90.0));
    }
    (
        percentile(&rate, 50.0),
        percentile(&p50, 50.0),
        percentile(&p90, 50.0),
    )
}

/// Nearest-rank percentile `p` (0–100) of `xs`; 0 for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics, printed as `name value unit` lines and as
/// the JSON `metrics` object.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(self.0.iter().all(|m| m.name != name), "{name} twice");
        self.0.push(Metric { name, value, unit });
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (which no metric should produce)
/// become 0 so the line stays valid JSON.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn sliced_timings_ignore_one_slow_slice() {
        // 300 completions, 10 per second, 100 ms each; the last third is
        // twice as slow.
        let mut t: Vec<f64> = (1..=300).map(|i| i as f64 * 0.1).collect();
        let mut lat = vec![0.1; 300];
        for i in 200..300 {
            t[i] += (i - 199) as f64 * 0.1;
            lat[i] = 0.2;
        }
        let (qps, p50, p90) = sliced_timings(&t, &lat);
        assert!((qps - 10.0).abs() < 1e-9);
        assert!((p50 - 100.0).abs() < 1e-9 && (p90 - 100.0).abs() < 1e-9);
        assert_eq!(sliced_timings(&[], &[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_s();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_s() > before);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn json_numbers_round_trip() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
