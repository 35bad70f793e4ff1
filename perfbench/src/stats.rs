//! Order statistics over latency samples and telemetry histograms.

use std::collections::BTreeMap;

use telemetry::HistogramSnapshot;

/// Quantile `q` of sorted samples, linearly interpolated between the
/// two nearest order statistics. 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The highest of 99, 95, 90, 75 and 50 that leaves at least ten
/// samples above it (50 when even that does not hold).
pub fn tail_percentile(n: usize) -> f64 {
    for p in [99, 95, 90, 75] {
        if n * (100 - p) >= 1000 {
            return p as f64;
        }
    }
    50.0
}

/// Latency samples in µs, kept as counts in log buckets 0.5% wide.
/// Only buckets that hold a sample take memory, so a recorder per
/// sub-window costs little however many sub-windows a run has (its
/// peak RSS is one of the reported metrics). Quantiles interpolate
/// inside the bucket, so they carry ~0.25% relative error.
#[derive(Debug, Clone, Default)]
pub struct LatHist {
    counts: BTreeMap<u32, u32>,
    n: u64,
}

const LH_MIN_US: f64 = 0.01;
const LH_GROWTH: f64 = 1.005;

impl LatHist {
    pub fn record(&mut self, us: f64) {
        let i = if us <= LH_MIN_US {
            0
        } else {
            ((us / LH_MIN_US).ln() / LH_GROWTH.ln()) as u32 + 1
        };
        *self.counts.entry(i).or_default() += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn merge(&mut self, other: &LatHist) {
        for (i, c) in &other.counts {
            *self.counts.entry(*i).or_default() += c;
        }
        self.n += other.n;
    }

    fn bounds(i: u32) -> (f64, f64) {
        if i == 0 {
            return (0.0, LH_MIN_US);
        }
        let lo = LH_MIN_US * LH_GROWTH.powi(i as i32 - 1);
        (lo, lo * LH_GROWTH)
    }

    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.n as f64;
        let mut seen = 0.0;
        let mut last = 0;
        for (&i, &c) in &self.counts {
            last = i;
            if seen + c as f64 >= target {
                let (lo, hi) = Self::bounds(i);
                return lo + (hi - lo) * ((target - seen) / c as f64).clamp(0.0, 1.0);
            }
            seen += c as f64;
        }
        Self::bounds(last).1
    }

    /// Samples above `us`.
    pub fn count_above(&self, us: f64) -> u64 {
        self.counts
            .iter()
            .filter(|(i, _)| Self::bounds(**i).0 >= us)
            .map(|(_, c)| *c as u64)
            .sum()
    }
}

/// Median, tail and sample count of one latency population.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
}

pub fn summarize(h: &LatHist) -> Summary {
    let tail_pct = tail_percentile(h.len() as usize);
    Summary {
        n: h.len() as usize,
        p50: h.quantile(0.5),
        tail: h.quantile(tail_pct / 100.0),
        tail_pct,
    }
}

/// Quantile of a log₂-bucketed histogram, interpolated linearly inside
/// the bucket that holds it (bucket `i ≥ 1` spans `[2^(i-1), 2^i)`).
pub fn hist_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * h.count as f64;
    let mut seen = 0.0;
    for (i, &b) in h.buckets.iter().enumerate() {
        if b == 0 {
            continue;
        }
        if seen + b as f64 >= target {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u64 << (i - 1)) as f64;
            let hi = lo * 2.0;
            return lo + (hi - lo) * ((target - seen) / b as f64);
        }
        seen += b as f64;
    }
    h.mean() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(5), 50.0);
    }

    #[test]
    fn latency_histogram_is_within_its_bucket_width() {
        let mut h = LatHist::default();
        for v in 1..=1000 {
            h.record(v as f64);
        }
        let m = h.quantile(0.5);
        assert!((m - 500.0).abs() / 500.0 < 0.006, "{m}");
        assert_eq!(h.count_above(2000.0), 0);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_bucket() {
        let mut h = HistogramSnapshot::default();
        for v in [100u64, 110, 120, 127] {
            h.record(v);
        }
        let m = hist_quantile(&h, 0.5);
        assert!((64.0..128.0).contains(&m), "{m}");
    }
}
