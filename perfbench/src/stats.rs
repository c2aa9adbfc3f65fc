//! Order statistics over latency samples.
//!
//! A failed or refused operation is recorded as `f64::INFINITY`, so it
//! counts as missing every latency limit and pushes the percentiles up
//! instead of vanishing from the sample.

/// The median (mean of the two middle values for an even count), or
/// `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail percentile and the value at it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `99.0`.
    pub pct: f64,
    /// The sample value at that percentile.
    pub value: f64,
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_PCTS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile at or below `want` that has at least ten
/// samples beyond it, by nearest rank. A sample too small for any tail
/// reports its median rank. `None` for an empty sample.
pub fn tail(samples: &[f64], want: f64) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = |pct: f64| ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let pct = TAIL_PCTS
        .iter()
        .copied()
        .filter(|&p| p <= want)
        .find(|&p| n - rank(p) >= 10)
        .unwrap_or(50.0);
    Some(Tail {
        pct,
        value: sorted[rank(pct) - 1],
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 24 samples support no p99 (it would be the maximum); p50 has
        // twelve beyond it, p75 only six.
        let v: Vec<f64> = (1..=24).map(f64::from).collect();
        let t = tail(&v, 99.0).unwrap();
        assert_eq!(t.pct, 50.0);
        assert_eq!(t.value, 12.0);

        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 99.0).unwrap();
        assert_eq!((t.pct, t.value), (99.0, 990.0));

        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v, 99.0).unwrap();
        assert_eq!((t.pct, t.value), (95.0, 190.0));
    }

    #[test]
    fn failures_sort_last() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.extend([f64::INFINITY; 12]);
        assert_eq!(tail(&v, 90.0).unwrap().value, f64::INFINITY);
        assert!(median(&v).unwrap().is_finite());
    }
}
