//! Order statistics, trend fits and process memory.

/// The `p`-th percentile (0..=100) of `xs` by the nearest-rank rule
/// (0 for an empty sample).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs` (mean of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs` (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A tail latency: the percentile, its value and the sample it came from.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// Percentile (e.g. 99).
    pub pct: u32,
    /// Value at that percentile.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// The `want` percentile when at least ten samples lie beyond it, else the
/// highest of p99/p95/p90/p75/p50 that has ten beyond it.
pub fn tail(xs: &[f64], want: u32) -> Tail {
    let n = xs.len();
    let pct = std::iter::once(want)
        .chain([99, 95, 90, 75, 50].into_iter().filter(|&p| p < want))
        .find(|&p| n * (100 - p as usize) / 100 >= 10)
        .unwrap_or(50);
    Tail {
        pct,
        value: percentile(xs, pct as f64),
        n,
    }
}

/// Least-squares slope of `ys` over `xs` (0 when undetermined).
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let mx = mean(&xs[..n]);
    let my = mean(&ys[..n]);
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for i in 0..n {
        sxy += (xs[i] - mx) * (ys[i] - my);
        sxx += (xs[i] - mx) * (xs[i] - mx);
    }
    if sxx > 0.0 {
        sxy / sxx
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 99).pct, 99);
        assert_eq!(tail(&xs[..100], 99).pct, 90);
        assert_eq!(tail(&xs[..100], 90).pct, 90);
        assert_eq!(tail(&xs[..60], 90).pct, 75);
    }

    #[test]
    fn slope_of_a_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        assert!((slope(&xs, &ys) - 2.0).abs() < 1e-12);
    }
}
