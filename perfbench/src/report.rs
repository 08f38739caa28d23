//! What one benchmark process prints: operations attempted and failed,
//! a digest of its outputs, and named measurements with their units.

use std::fmt::Write as _;

/// Measurements and correctness tallies of one benchmark process.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    digest: String,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Count one operation or correctness check; a failure is logged to
    /// stderr and counted.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Record a digest of the process's outputs, so that repeated
    /// processes on one seed can be compared.
    pub fn digest(&mut self, digest: String) {
        self.digest = digest;
    }

    /// Record one measurement.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// One JSON line. Non-finite values are dropped, never printed.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"attempted\":{},\"failed\":{},\"digest\":\"{}\",\"metrics\":{{",
            self.attempted, self.failed, self.digest
        );
        let finite = self.metrics.iter().filter(|(_, v, _)| v.is_finite());
        for (i, (name, value, unit)) in finite.enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `p` in `[0, 1]` of `values` (NaN when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Hex rendering of a 64-bit digest.
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}
