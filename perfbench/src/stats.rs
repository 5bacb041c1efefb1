//! The benchmark's own arithmetic: percentiles, geomeans, the serve-latency
//! ledger check and metric-name validity.

/// Samples a percentile must leave above its rank before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p`% of all samples at or below it. `None` when
/// there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The highest whole percentile, up to `wanted`, whose nearest rank over
/// `n` samples leaves at least [`TAIL_SUPPORT`] samples beyond it. `None`
/// when not even the median is supported.
pub fn supported_percentile(n: usize, wanted: u32) -> Option<u32> {
    (50..=wanted).rev().find(|&p| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        n >= rank + TAIL_SUPPORT
    })
}

/// Median of unsorted samples (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Typical latency over heterogeneous requests repeated across passes: the
/// median of each class (`samples[class]`), then the geometric mean across
/// classes, so no percentile ever straddles two classes. `None` when a
/// class is empty or its median is not positive.
pub fn class_median_geomean(samples: &[Vec<f64>]) -> Option<f64> {
    let per_class: Option<Vec<f64>> = samples.iter().map(|c| median(c)).collect();
    geomean(&per_class?)
}

/// Geometric mean of positive ratios; `None` when empty or when any ratio
/// is not a positive finite number.
pub fn geomean(ratios: &[f64]) -> Option<f64> {
    if ratios.is_empty() || ratios.iter().any(|r| !(r.is_finite() && *r > 0.0)) {
        return None;
    }
    Some((ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp())
}

/// The serve-latency ledger for one request: the client-observed round
/// trip must cover the server's own prepare and execute time. Returns the
/// remainder (wire, codec, queue and handoff) in microseconds, or `None`
/// when the reply claims more server time than the round trip took.
pub fn overhead_micros(rtt_micros: u64, prepare_micros: u64, execute_micros: u64) -> Option<u64> {
    rtt_micros.checked_sub(prepare_micros.checked_add(execute_micros)?)
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        let small = [3.0, 7.0, 9.0];
        assert_eq!(percentile(&small, 50.0), Some(7.0));
        assert_eq!(percentile(&small, 34.0), Some(7.0));
        assert_eq!(percentile(&small, 33.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(1000, 99), Some(99));
        assert_eq!(supported_percentile(999, 99), Some(98));
        assert_eq!(supported_percentile(80, 99), Some(87));
        assert_eq!(supported_percentile(20, 99), Some(50));
        assert_eq!(supported_percentile(19, 99), None);
        assert_eq!(supported_percentile(0, 99), None);
        for n in [20, 57, 200, 1234] {
            let p = supported_percentile(n, 99).expect("supported") as usize;
            let rank = (p * n).div_ceil(100);
            assert!(n - rank >= TAIL_SUPPORT, "n={n} p={p}");
        }
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[2.0, 8.0]).expect("defined");
        assert!((g - 4.0).abs() < 1e-12);
        let one = geomean(&[1.5]).expect("defined");
        assert!((one - 1.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn class_medians() {
        let classes = vec![vec![2.0, 1.0, 90.0], vec![8.0]];
        let g = class_median_geomean(&classes).expect("defined");
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(class_median_geomean(&[vec![1.0], vec![]]), None);
        assert_eq!(class_median_geomean(&[]), None);
    }

    #[test]
    fn ledger_overhead_sum() {
        assert_eq!(overhead_micros(1000, 300, 600), Some(100));
        assert_eq!(overhead_micros(900, 300, 600), Some(0));
        assert_eq!(overhead_micros(899, 300, 600), None);
        assert_eq!(overhead_micros(10, u64::MAX, 1), None);
    }

    #[test]
    fn metric_names() {
        for ok in ["setup_s", "chgraph.execute_ms.gla", "serve.rtt_ms.p99", "9lives", "a-b"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "has space", "ms/s", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
