//! Time-series bucketing.
//!
//! The paper's time-axis figures aggregate per-packet outcomes into
//! fixed-width buckets: Fig. 4-1 buckets packet delivery into one-second
//! intervals; Fig. 5-1 buckets TCP goodput the same way. [`TimeSeries`]
//! performs that aggregation, and [`Sample`] carries each point out to the
//! experiment harness for printing.

use crate::stats::OnlineStats;
use crate::time::{SimDuration, SimTime};

/// One aggregated bucket of a time series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Start of the bucket interval.
    pub t: SimTime,
    /// Mean of values folded into the bucket (0.0 if the bucket is empty).
    pub mean: f64,
    /// Sum of values folded into the bucket.
    pub sum: f64,
    /// Number of values folded into the bucket.
    pub count: u64,
}

/// Aggregates `(time, value)` observations into fixed-width buckets.
///
/// ```
/// use hint_sim::{SimTime, SimDuration};
/// use hint_sim::series::TimeSeries;
///
/// let mut ts = TimeSeries::new(SimDuration::from_secs(1));
/// ts.push(SimTime::from_millis(100), 1.0);
/// ts.push(SimTime::from_millis(900), 0.0);
/// ts.push(SimTime::from_millis(1500), 1.0);
/// let samples = ts.finish();
/// assert_eq!(samples.len(), 2);
/// assert_eq!(samples[0].mean, 0.5);
/// assert_eq!(samples[1].mean, 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct TimeSeries {
    width: SimDuration,
    buckets: Vec<OnlineStats>,
}

impl TimeSeries {
    /// Create a series with the given bucket width.
    ///
    /// # Panics
    /// Panics if `width` is zero (configuration bug).
    pub fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "bucket width must be positive");
        TimeSeries {
            width,
            buckets: Vec::new(),
        }
    }

    /// Fold the observation `value` at time `t` into its bucket.
    pub fn push(&mut self, t: SimTime, value: f64) {
        let idx = (t.as_micros() / self.width.as_micros()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize_with(idx + 1, OnlineStats::new);
        }
        self.buckets[idx].push(value);
    }

    /// Bucket width.
    pub fn width(&self) -> SimDuration {
        self.width
    }

    /// Number of buckets allocated so far (trailing empty buckets between
    /// observations count; buckets after the last observation do not).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True if no observation has been pushed.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Produce the bucket sequence. Empty buckets appear with
    /// `count == 0` and `mean == 0.0` so the time axis stays uniform.
    pub fn finish(&self) -> Vec<Sample> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| Sample {
                t: SimTime::from_micros(i as u64 * self.width.as_micros()),
                mean: b.mean(),
                sum: b.mean() * b.count() as f64,
                count: b.count(),
            })
            .collect()
    }
}

/// Render a sequence of `(x, y)` pairs as a compact ASCII sparkline-style
/// table row — used by the experiment battery to make figures readable in
/// a terminal without a plotting stack.
pub fn ascii_plot(points: &[(f64, f64)], width: usize, label: &str) -> String {
    if points.is_empty() {
        return format!("{label}: (no data)");
    }
    let ymin = points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let ymax = points.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let span = (ymax - ymin).max(1e-12);
    // Resample to `width` columns by nearest point.
    let mut row = String::with_capacity(width);
    for c in 0..width {
        let frac = c as f64 / (width.max(2) - 1) as f64;
        let idx = (frac * (points.len() - 1) as f64).round() as usize;
        let norm = (points[idx].1 - ymin) / span;
        let g = (norm * (glyphs.len() - 1) as f64).round() as usize;
        row.push(glyphs[g.min(glyphs.len() - 1)]);
    }
    format!("{label} [{ymin:.3}..{ymax:.3}] |{row}|")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_aggregate_means() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.push(SimTime::from_millis(0), 2.0);
        ts.push(SimTime::from_millis(500), 4.0);
        ts.push(SimTime::from_millis(2500), 10.0);
        let s = ts.finish();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].mean, 3.0);
        assert_eq!(s[0].count, 2);
        assert_eq!(s[1].count, 0); // gap bucket present with zero count
        assert_eq!(s[2].mean, 10.0);
        assert_eq!(s[2].t, SimTime::from_secs(2));
    }

    #[test]
    fn sum_tracks_totals() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.push(SimTime::from_millis(10), 1.0);
        ts.push(SimTime::from_millis(20), 1.0);
        ts.push(SimTime::from_millis(30), 1.0);
        let s = ts.finish();
        assert!((s[0].sum - 3.0).abs() < 1e-12);
    }

    #[test]
    fn boundary_lands_in_next_bucket() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.push(SimTime::from_secs(1), 7.0);
        let s = ts.finish();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].count, 0);
        assert_eq!(s[1].mean, 7.0);
    }

    #[test]
    #[should_panic]
    fn zero_width_rejected() {
        let _ = TimeSeries::new(SimDuration::ZERO);
    }

    #[test]
    fn ascii_plot_handles_edges() {
        assert!(ascii_plot(&[], 10, "x").contains("no data"));
        let flat = vec![(0.0, 1.0), (1.0, 1.0)];
        let s = ascii_plot(&flat, 8, "flat");
        assert!(s.contains("flat"));
        let ramp: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, i as f64)).collect();
        let s = ascii_plot(&ramp, 20, "ramp");
        assert!(s.contains('@') && s.contains(' '));
    }
}
