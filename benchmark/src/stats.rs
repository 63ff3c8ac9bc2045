//! Order statistics over timing samples.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count); `NAN`
/// for no samples, so a missing measurement can never pass for a fast one.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of a latency distribution: the highest percentile, capped at
/// p90, that still has at least ten samples beyond it, returned as
/// `(value, percentile)`. With fewer than twenty samples no percentile
/// above the median qualifies and the median itself is returned — so a
/// workload of a handful of seconds-long repetitions reports its median
/// twice rather than a maximum dressed up as a percentile.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    if n < 20 {
        return (median(samples), 0.5);
    }
    let p90 = (n * 9).div_ceil(10) - 1;
    let i = p90.min(n - 11);
    (v[i], (i + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled deterministically so the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 900 samples: p90 is sample 810 of 1..=900, with 90 beyond.
        assert_eq!(tail(&ramp(900)), (810.0, 0.9));
        // 100 samples: p90 has exactly ten beyond it.
        assert_eq!(tail(&ramp(100)), (90.0, 0.9));
        // 50 samples: p90 would leave five beyond; the rule backs off to
        // the 40th sample (p80), which has ten.
        assert_eq!(tail(&ramp(50)), (40.0, 0.8));
        // Twenty samples: only the tenth has ten beyond it.
        assert_eq!(tail(&ramp(20)), (10.0, 0.5));
    }

    #[test]
    fn tail_of_a_handful_of_repetitions_is_the_median() {
        let reps = [2.1, 2.0, 2.4, 2.2, 2.3];
        assert_eq!(tail(&reps), (2.2, 0.5));
    }
}
