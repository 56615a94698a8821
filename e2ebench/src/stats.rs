//! The benchmark's own statistics: median, quartiles, the tail
//! percentile rule and the fastest repetition of each step.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so the figures a run prints agree with a
//! spread computed over several runs in Python. The tail percentile is
//! the highest one that still has at least [`TAIL_SAMPLES`] samples beyond
//! it, read by nearest rank.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Median, quartiles and the tail of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples` (any order). `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        let median = median_sorted(&sorted)?;
        let (q1, q3) = quartiles_sorted(&sorted);
        Some(Summary {
            count: sorted.len(),
            q1,
            median,
            q3,
        })
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median of sorted samples (mean of the two middle ones for an even
/// count).
pub fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Median of samples in any order.
pub fn median(samples: &[f64]) -> Option<f64> {
    median_sorted(&sorted(samples))
}

/// First and third quartile of sorted samples, as Python's
/// `statistics.quantiles(data, n=4)` computes them. A single sample is its
/// own quartiles.
pub fn quartiles_sorted(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    // Python's formula verbatim, extrapolation at tiny counts included.
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_SAMPLES`] of `count` samples beyond it, or `None` when even the
/// median has fewer.
pub fn tail_percentile(count: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| samples_beyond(count, p) >= TAIL_SAMPLES)
}

/// Samples strictly beyond the nearest-rank `p`th percentile of `count`
/// samples.
fn samples_beyond(count: usize, p: f64) -> usize {
    count.saturating_sub(nearest_rank(count, p))
}

/// 1-based nearest rank of the `p`th percentile among `count` samples
/// (the tolerance keeps `99.9 / 100 * 10000` at rank 9990).
fn nearest_rank(count: usize, p: f64) -> usize {
    ((p / 100.0 * count as f64 - 1e-9).ceil() as usize).clamp(1, count.max(1))
}

/// The nearest-rank `p`th percentile of samples in any order, or `None`
/// unless at least [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || samples_beyond(samples.len(), p) < TAIL_SAMPLES {
        return None;
    }
    let sorted = sorted(samples);
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// Records `sample` as the time of repeated step `step`: `fastest[step]`
/// keeps the lowest time seen for it. Steps arrive in order from 0, so a
/// step seen for the first time is the next one.
pub fn keep_fastest(fastest: &mut Vec<f64>, step: usize, sample: f64) {
    match fastest.get_mut(step) {
        Some(best) => *best = best.min(sample),
        None => {
            debug_assert_eq!(step, fastest.len());
            fastest.push(sample);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_sorted(&data);
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let (q1, q3) = quartiles_sorted(&[1.0, 2.0, 3.0, 4.0]);
        assert!(close(q1, 1.25) && close(q3, 3.75), "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles_sorted(&[1.0, 2.0]);
        assert!(close(q1, 0.75) && close(q3, 2.25), "{q1} {q3}");
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles_sorted(&[1.0, 2.0, 3.0]);
        assert!(close(q1, 1.0) && close(q3, 3.0), "{q1} {q3}");
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        let summary = Summary::of(&[5.0, 1.0, 9.0, 3.0, 7.0]).unwrap();
        assert!(close(summary.q1, 2.0) && close(summary.q3, 8.0));
        assert_eq!(summary.median, 5.0);
    }

    #[test]
    fn a_single_sample_is_its_own_summary() {
        let summary = Summary::of(&[0.5]).unwrap();
        assert_eq!(summary.count, 1);
        assert_eq!((summary.q1, summary.median, summary.q3), (0.5, 0.5, 0.5));
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn p99_needs_a_thousand_samples_and_reads_by_nearest_rank() {
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&short, 99.0), None, "only 9 samples beyond");
        let data: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        // Rank 990 of 1000: exactly ten samples (991..=1000) lie beyond.
        assert_eq!(percentile(&data, 99.0), Some(990.0));
        assert_eq!(percentile(&data, 50.0), Some(500.0));
    }

    #[test]
    fn each_step_keeps_its_fastest_repetition() {
        let mut fastest = Vec::new();
        for (step, ms) in [3.0, 5.0, 4.0].into_iter().enumerate() {
            keep_fastest(&mut fastest, step, ms);
        }
        for (step, ms) in [2.0, 9.0, 4.5].into_iter().enumerate() {
            keep_fastest(&mut fastest, step, ms);
        }
        assert_eq!(fastest, vec![2.0, 5.0, 4.0]);
    }
}
