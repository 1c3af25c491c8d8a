//! Order statistics for reported timings.
//!
//! An end-to-end timing is reported as a trimmed mean and its tail as a
//! percentile, and a tail is only trusted when at least [`MIN_BEYOND`]
//! samples lie beyond it: with fewer, a single outlier decides the value.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order) at quantile `q` in
/// `(0, 1)`: the smallest sample with at least `q · n` samples at or
/// below it, i.e. one-based rank `ceil(q · n)`.
///
/// # Errors
///
/// Refuses (with a message naming the shortfall) when fewer than
/// [`MIN_BEYOND`] samples lie beyond the chosen rank, or when `q` is not
/// inside `(0, 1)`.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("quantile {q} is not inside (0, 1)"));
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed \
             (the run is too short for this tail)",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Smallest sample count whose nearest-rank `q` percentile keeps
/// [`MIN_BEYOND`] samples beyond it.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n: &usize| n - ((q * n as f64).ceil() as usize).max(1) >= MIN_BEYOND)
        .expect("some sample count always suffices for q < 1")
}

/// Share of samples [`trimmed_mean`] drops at each end.
const TRIM: f64 = 0.25;

/// Mean of `samples` (any order) after dropping `floor(TRIM · n)` of the
/// lowest and as many of the highest.
///
/// Unlike a quantile, it moves smoothly with the share of slow samples
/// when the samples come from two speeds, and unlike the plain mean it
/// ignores stalls that delay fewer than a quarter of the samples.
///
/// # Errors
///
/// Refuses an empty sample.
pub fn trimmed_mean(samples: &[f64]) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("trimmed mean of no samples".into());
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (TRIM * sorted.len() as f64) as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    Ok(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Median (nearest rank) of a non-empty sample; used for kernel and
/// set-up repetitions, where no tail is reported.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[samples.len().div_ceil(2) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helper has to sort.
        (0..n).map(|i| ((i * 7) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceil_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.50).unwrap(), 50.0);
        assert_eq!(percentile(&s, 0.90).unwrap(), 90.0);
        assert_eq!(percentile(&s, 0.899).unwrap(), 90.0);
        assert_eq!(percentile(&s, 0.001).unwrap(), 1.0);
    }

    #[test]
    fn refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        // p90 of 100 leaves exactly 10 beyond: accepted.
        assert!(percentile(&ramp(100), 0.90).is_ok());
        // p90 of 99 leaves 9 beyond: refused.
        let err = percentile(&ramp(99), 0.90).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        // p99 needs 1000 samples.
        assert!(percentile(&ramp(999), 0.99).is_err());
        assert!(percentile(&ramp(1000), 0.99).is_ok());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn rejects_degenerate_quantiles() {
        assert!(percentile(&ramp(100), 0.0).is_err());
        assert!(percentile(&ramp(100), 1.0).is_err());
        assert!(percentile(&ramp(100), f64::NAN).is_err());
    }

    #[test]
    fn min_samples_matches_the_refusal_rule() {
        for q in [0.5, 0.9, 0.95, 0.99] {
            let n = min_samples_for(q);
            assert!(percentile(&ramp(n), q).is_ok(), "q={q} n={n}");
            assert!(percentile(&ramp(n - 1), q).is_err(), "q={q} n={n}");
        }
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.99), 1000);
    }

    #[test]
    fn trimmed_mean_drops_each_end() {
        // 1..=100 shuffled: 26..=75 are kept, whose mean is 50.5.
        assert_eq!(trimmed_mean(&ramp(100)).unwrap(), 50.5);
        // Stalls delaying a fifth of the samples are cut off.
        let mut s = vec![10.0; 16];
        s.extend([1e6; 4]);
        assert_eq!(trimmed_mean(&s).unwrap(), 10.0);
        // Too few samples to drop any: the plain mean.
        assert_eq!(trimmed_mean(&[4.0, 1.0, 7.0]).unwrap(), 4.0);
        assert!(trimmed_mean(&[]).is_err());
    }

    #[test]
    fn trimmed_mean_follows_the_share_of_slow_samples() {
        // Two speeds, 40 and 70: between a quarter and three quarters slow,
        // each 10% more slow samples raises the trimmed mean by the same
        // 10 × 30 / 50 (50 samples are kept), where the median would jump
        // by the whole 30 at once.
        let at = |slow: usize| {
            let s: Vec<f64> = (0..100)
                .map(|i| if i < slow { 70.0 } else { 40.0 })
                .collect();
            trimmed_mean(&s).unwrap()
        };
        for slow in (25..=65).step_by(10) {
            let step = at(slow + 10) - at(slow);
            assert!(
                (step - 30.0 * 10.0 / 50.0).abs() < 1e-9,
                "slow {slow}: step {step}"
            );
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
