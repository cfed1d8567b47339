//! Percentiles under the ten-beyond rule, and iteration failure
//! accounting.

/// Samples a reported percentile must leave above it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1)`) of `samples`, refused unless
/// at least [`MIN_BEYOND`] samples lie above it: p50 needs 20 samples,
/// p90 needs 100.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "percentile must lie in (0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n - rank.min(n) < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples leaves fewer than {MIN_BEYOND} beyond it",
            (q * 100.0).round()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Planned against completed iterations, summed over epochs. A
/// planned iteration that never ran — the epoch ended early, however
/// quietly — is a failure, and so is one that ran to a non-finite loss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterTally {
    pub planned: usize,
    pub completed: usize,
    pub nonfinite: usize,
}

impl IterTally {
    /// Add one epoch: `planned` iterations expected from the seed count
    /// and batch size, `losses` one per iteration that completed.
    pub fn add_epoch(&mut self, planned: usize, losses: impl IntoIterator<Item = f32>) {
        self.planned += planned;
        for loss in losses {
            self.completed += 1;
            self.nonfinite += usize::from(!loss.is_finite());
        }
    }

    pub fn failed(&self) -> usize {
        self.planned.saturating_sub(self.completed) + self.nonfinite
    }

    /// Share of planned iterations that completed with a finite loss.
    pub fn ok_ratio(&self) -> f64 {
        if self.planned == 0 {
            return 0.0;
        }
        1.0 - self.failed().min(self.planned) as f64 / self.planned as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_refused_below_100_samples() {
        assert!(percentile(&ramp(99), 0.9).is_err());
        assert_eq!(percentile(&ramp(100), 0.9), Ok(90.0));
        assert_eq!(percentile(&ramp(200), 0.9), Ok(180.0));
    }

    #[test]
    fn p50_needs_20_samples() {
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs = ramp(120);
        xs.reverse();
        assert_eq!(percentile(&xs, 0.9), Ok(108.0));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn truncated_epoch_counts_as_failed() {
        let mut t = IterTally::default();
        t.add_epoch(12, vec![1.0; 12]);
        assert_eq!(t.failed(), 0);
        assert_eq!(t.ok_ratio(), 1.0);
        // a producer that stopped after 3 of 12 iterations ends the
        // epoch without an error: the 9 missing iterations are failures
        t.add_epoch(12, vec![1.0; 3]);
        assert_eq!(t.failed(), 9);
        assert_eq!(t.ok_ratio(), 1.0 - 9.0 / 24.0);
    }

    #[test]
    fn nonfinite_loss_counts_as_failed() {
        let mut t = IterTally::default();
        t.add_epoch(4, [0.5, f32::NAN, f32::INFINITY, 0.4]);
        assert_eq!(t.failed(), 2);
        assert_eq!(t.ok_ratio(), 0.5);
    }

    #[test]
    fn empty_tally_is_not_ok() {
        assert_eq!(IterTally::default().ok_ratio(), 0.0);
    }
}
