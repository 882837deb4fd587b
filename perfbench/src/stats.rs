//! Order statistics over measured samples.

/// The median (mean of the middle pair for even counts); `None` when
/// empty. Infinite samples (failed frames) sort last.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_SAMPLES: usize = 10;

/// A tail percentile with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in `(0, 100]`.
    pub pct: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// Total samples.
    pub n: usize,
}

/// The highest percentile, capped at p99, that still has at least
/// [`TAIL_SAMPLES`] samples beyond it (nearest-rank). `None` when there
/// are too few samples for any such percentile. Infinite samples
/// (failed frames) sort last, so failures push the tail up.
pub fn tail_percentile(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest-rank p99 index, pulled down until TAIL_SAMPLES lie beyond.
    let p99 = ((0.99 * n as f64).ceil() as usize).max(1) - 1;
    let idx = p99.min(n - 1 - TAIL_SAMPLES);
    Some(Tail { pct: 100.0 * (idx + 1) as f64 / n as f64, value: v[idx], n })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn large_samples_report_p99() {
        let t = tail_percentile(&ramp(2000)).unwrap();
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.n, 2000);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: nearest-rank p99 is sample 990, exactly 10 beyond.
        let t = tail_percentile(&ramp(1000)).unwrap();
        assert_eq!((t.value, t.pct), (990.0, 99.0));
        // 500 samples: p99 would leave 5 beyond, so fall back to the
        // 490th sample (p98), which leaves exactly 10.
        let t = tail_percentile(&ramp(500)).unwrap();
        assert_eq!(t.value, 490.0);
        assert_eq!(t.pct, 98.0);
        let beyond = ramp(500).iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_SAMPLES);
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail_percentile(&ramp(10)), None);
        let t = tail_percentile(&ramp(11)).unwrap();
        assert_eq!(t.value, 1.0);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut v = ramp(1000);
        for x in v.iter_mut().take(20) {
            *x = f64::INFINITY;
        }
        let t = tail_percentile(&v).unwrap();
        assert!(t.value.is_infinite(), "20 failures in 1000 put p99 at infinity");
        assert_eq!(median(&v), Some(520.5));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
