//! Order statistics over measured samples.

/// The nearest-rank percentile of `sorted` (ascending): the smallest
/// sample with at least `p` of the samples at or below it, i.e. the
/// sample at 1-based rank `ceil(p · n)`, clamped to `1..=n`. `None` when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Sorts samples ascending (total order; the benchmark never records NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The median (nearest rank) of unsorted samples; `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 0.5).unwrap_or(0.0)
}

/// A share `num / den`, or `0.0` when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The fastest `share` of each group's samples, the same number from
/// every group (at least one), pooled and sorted. Empty when any group
/// is.
pub fn fastest_of_each(groups: &[Vec<f64>], share: f64) -> Vec<f64> {
    let Some(n) = groups.iter().map(Vec::len).min().filter(|&n| n > 0) else {
        return Vec::new();
    };
    let keep = ((share * n as f64).ceil() as usize).clamp(1, n);
    let mut kept = Vec::with_capacity(keep * groups.len());
    for g in groups {
        kept.extend_from_slice(&sorted(g.clone())[..keep]);
    }
    sorted(kept)
}

/// The median, over `parts` consecutive equal stretches of `samples`
/// (in the order they were taken; a remainder is dropped), of each
/// stretch's percentile `p`. With fewer samples than stretches, the
/// percentile of them all.
pub fn median_of_stretches(samples: &[f64], parts: usize, p: f64) -> f64 {
    let at = |xs: &[f64]| percentile(&sorted(xs.to_vec()), p).unwrap_or(0.0);
    let n = samples.len() / parts.max(1);
    if n == 0 {
        return at(samples);
    }
    let each: Vec<f64> = samples.chunks_exact(n).take(parts).map(at).collect();
    median(&each)
}

/// Per-operation samples cut into consecutive windows of a fixed number
/// of operations, each window timed.
///
/// A shared 2-vCPU host can alternate, for seconds at a time, between a
/// fast state and one about 1.6× slower, whatever the program does. A whole run's median
/// therefore mostly measures how long the host spent in each state.
/// [`fastest`](Windows::fastest) keeps the least-disturbed windows, which
/// measure the program.
#[derive(Debug, Clone)]
pub struct Windows {
    per_window: usize,
    samples: Vec<f64>,
    seconds: Vec<f64>,
    opened: std::time::Instant,
}

/// The samples of the windows [`Windows::fastest`] kept.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Kept {
    /// Their samples, sorted.
    pub samples: Vec<f64>,
    /// Their total wall time, seconds.
    pub seconds: f64,
    /// Windows kept, of windows closed.
    pub windows: (usize, usize),
}

impl Kept {
    /// Operations per second over the kept windows.
    pub fn rate(&self) -> f64 {
        ratio(self.samples.len() as f64, self.seconds)
    }

    /// Percentile of the kept samples; `0.0` when none.
    pub fn at(&self, p: f64) -> f64 {
        percentile(&self.samples, p).unwrap_or(0.0)
    }
}

impl Windows {
    /// Windows of `per_window` operations; the first opens now.
    pub fn new(per_window: usize) -> Windows {
        Windows {
            per_window: per_window.max(1),
            samples: Vec::new(),
            seconds: Vec::new(),
            opened: std::time::Instant::now(),
        }
    }

    /// Records one finished operation's sample, closing the window when
    /// it is full.
    pub fn push(&mut self, sample: f64) {
        self.push_at(sample, std::time::Instant::now());
    }

    fn push_at(&mut self, sample: f64, now: std::time::Instant) {
        self.samples.push(sample);
        if self.samples.len().is_multiple_of(self.per_window) {
            self.seconds
                .push(now.duration_since(self.opened).as_secs_f64());
            self.opened = now;
        }
    }

    /// Drops the samples of the window still open and opens a new one
    /// now, so that a pause between measured stretches is never timed.
    pub fn reopen(&mut self) {
        let closed = self.seconds.len() * self.per_window;
        self.samples.truncate(closed);
        self.opened = std::time::Instant::now();
    }

    /// Every sample recorded, in order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The samples of the `share` of closed windows that ran fastest
    /// (shortest wall time), at least one window. A trailing partial
    /// window is never kept.
    pub fn fastest(&self, share: f64) -> Kept {
        let n = self.seconds.len();
        if n == 0 {
            return Kept::default();
        }
        let keep = ((share * n as f64).ceil() as usize).clamp(1, n);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| self.seconds[a].total_cmp(&self.seconds[b]));
        let mut kept = Kept {
            windows: (keep, n),
            ..Kept::default()
        };
        for &w in &order[..keep] {
            kept.seconds += self.seconds[w];
            let lo = w * self.per_window;
            kept.samples
                .extend_from_slice(&self.samples[lo..lo + self.per_window]);
        }
        kept.samples.sort_by(f64::total_cmp);
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_rule() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        // 10 samples: p99 is the largest, p50 the 5th.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.99), Some(10.0));
        assert_eq!(percentile(&ten, 0.5), Some(5.0));
        // 1001 samples: p99 has ten samples beyond it.
        let big: Vec<f64> = (1..=1001).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Some(991.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn median_of_stretch_percentiles() {
        // Three stretches of 100: the middle one is slow throughout.
        let xs: Vec<f64> = (0..300)
            .map(|i| f64::from(i % 100 + 1) * if (100..200).contains(&i) { 2.0 } else { 1.0 })
            .collect();
        assert_eq!(median_of_stretches(&xs, 3, 0.99), 99.0);
        assert_eq!(median_of_stretches(&xs, 1, 0.99), 194.0);
        assert_eq!(median_of_stretches(&xs[..2], 3, 0.5), 1.0);
        assert_eq!(median_of_stretches(&[], 3, 0.5), 0.0);
    }

    #[test]
    fn keeps_as_many_of_each_group() {
        let groups = vec![
            (1..=100).rev().map(f64::from).collect::<Vec<_>>(),
            (101..=150).map(f64::from).collect(),
        ];
        // 2% of the smaller group is one sample each.
        assert_eq!(fastest_of_each(&groups, 0.02), vec![1.0, 101.0]);
        assert_eq!(
            fastest_of_each(&groups, 0.1),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 101.0, 102.0, 103.0, 104.0, 105.0]
        );
        assert_eq!(fastest_of_each(&groups, 0.0).len(), 2);
        assert!(fastest_of_each(&[vec![1.0], vec![]], 0.5).is_empty());
        assert!(fastest_of_each(&[], 0.5).is_empty());
    }

    use std::time::{Duration, Instant};

    #[test]
    fn keeps_the_fastest_whole_windows() {
        let mut w = Windows::new(2);
        let t0 = w.opened;
        let at = |ms| t0 + Duration::from_millis(ms);
        // Windows take 10, 40, 20 ms; a partial window trails.
        w.push_at(1.0, at(5));
        w.push_at(2.0, at(10));
        w.push_at(9.0, at(30));
        w.push_at(8.0, at(50));
        w.push_at(3.0, at(60));
        w.push_at(4.0, at(70));
        w.push_at(100.0, at(71));
        let kept = w.fastest(0.5);
        assert_eq!(kept.windows, (2, 3));
        assert_eq!(kept.samples, vec![1.0, 2.0, 3.0, 4.0]);
        assert!((kept.seconds - 0.030).abs() < 1e-9);
        assert!((kept.rate() - 4.0 / 0.030).abs() < 1e-6);
        assert_eq!(w.fastest(0.0).windows, (1, 3));
        assert_eq!(Windows::new(5).fastest(0.2), Kept::default());
        // Reopening drops the partial window.
        w.reopen();
        assert_eq!(w.samples().len(), 6);
        let later = Instant::now();
        assert!(w.opened >= later - Duration::from_secs(1));
    }
}
