//! How the benchmark summarises timings: `manic_stats`' quantile (linear
//! interpolation between order statistics) for medians and percentiles, and
//! the rule for the tail worth printing.

pub use manic_stats::{median, quantile};

/// The highest percentile with at least ten samples beyond it, as
/// `(percent, value)`; `None` when that would fall at or below the median
/// (fewer than 21 samples).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 21 {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

/// `n=… min=… p25=… p50=… p<tail>=…` for the human-readable part of the report.
pub fn describe(xs: &[f64], unit: &str) -> String {
    if xs.is_empty() {
        return "n=0".to_string();
    }
    let mut out = format!(
        "n={} min={:.4} p25={:.4} p50={:.4} {unit}",
        xs.len(),
        quantile(xs, 0.0),
        quantile(xs, 0.25),
        median(xs)
    );
    if let Some((pct, v)) = tail(xs) {
        out.push_str(&format!(" p{pct:.4}={v:.4} {unit}"));
    }
    out
}
