//! Order statistics and the reporting rules every workload shares.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile of `sorted` (ascending, non-empty) at `permille`
/// thousandths: the value at rank `⌈permille·n/1000⌉` (integer arithmetic,
/// so p99 of 1000 samples is exactly rank 990), and how many samples lie
/// beyond that rank.
fn nearest_rank(sorted: &[f64], permille: usize) -> (f64, usize) {
    let n = sorted.len();
    let rank = (permille * n).div_ceil(1000).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// Percentiles a tail is reported at, highest first, in thousandths.
/// Two are left out on purpose, because a workload's sample count sits
/// right at their thresholds and the reported percentile (and with it
/// the metric) would flip from run to run: p99.9 (10 000 samples; a
/// serve-mixed run holds 13 000–25 000 requests) and p75 (40 samples; a
/// solve-large run holds 35–60 interacts).
const TAIL_PERMILLE: &[usize] = &[990, 950, 900, 500];

/// A tail latency: the percentile it was read at, its value and the
/// sample count it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub n: usize,
}

/// The highest of p99, p95, p90 and p50 of `xs` that has at least
/// ten samples beyond it (p99 needs ≥ 1000 samples, p50 ≥ 20); `None`
/// when even the median has fewer than ten samples beyond it — then no
/// tail is measurable.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    TAIL_PERMILLE.iter().find_map(|&q| {
        if v.is_empty() {
            return None;
        }
        let (value, beyond) = nearest_rank(&v, q);
        (beyond >= 10).then_some(Tail {
            percentile: q as f64 / 10.0,
            value,
            n: v.len(),
        })
    })
}

/// Throughput of a workload whose repetitions each complete `ops_per_rep`
/// operations: ops per median repetition time, so one stalled repetition
/// on a shared host moves it no more than any other single sample.
pub fn median_throughput(ops_per_rep: f64, rep_seconds: &[f64]) -> f64 {
    ops_per_rep / median(rep_seconds)
}

/// `BENCHMARK.json`'s metric-name rule: a letter or digit first,
/// then at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `BENCHMARK.json`'s unit rule: 1 to 16 of letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn no_tail_with_fewer_than_ten_samples_beyond_the_median() {
        // 19 samples: the median (rank 10) has only 9 beyond it
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&[1.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let t = tail(&ramp(20)).expect("p50 has 10 beyond");
        assert_eq!((t.percentile, t.value, t.n), (50.0, 10.0, 20));
        // 60 samples: p75 would have 15 beyond, but it is not a candidate
        let t = tail(&ramp(60)).expect("tail");
        assert_eq!((t.percentile, t.value), (50.0, 30.0));
        // 999 samples: p99 is rank 990 with 9 beyond, so p95 is reported
        let t = tail(&ramp(999)).expect("tail");
        assert_eq!(t.percentile, 95.0);
        let t = tail(&ramp(1000)).expect("tail");
        assert_eq!((t.percentile, t.value), (99.0, 990.0));
        // p99 stays the reported tail however many samples a run holds
        let t = tail(&ramp(10_000)).expect("tail");
        assert_eq!((t.percentile, t.value), (99.0, 9900.0));
    }

    #[test]
    fn every_reported_tail_has_ten_samples_beyond_it() {
        for n in 1..2500 {
            let xs = ramp(n);
            if let Some(t) = tail(&xs) {
                let beyond = xs.iter().filter(|&&x| x > t.value).count();
                assert!(beyond >= 10, "n={n}: {t:?} has {beyond} beyond");
            } else {
                assert!(n < 20, "n={n} has a median with >=10 beyond");
            }
        }
    }

    #[test]
    fn throughput_uses_the_median_repetition_not_the_total() {
        // one stalled scan (10 s) among four 2 s scans of 1200 windows
        let scans = [2.0, 2.0, 10.0, 2.0, 2.0];
        assert_eq!(median_throughput(1200.0, &scans), 600.0);
        // a total-time rate would have read 1200·5/18 ≈ 333
        assert!(median_throughput(1200.0, &scans) > 1200.0 * 5.0 / 18.0);
    }

    #[test]
    fn metric_names_follow_the_benchmark_charset() {
        for ok in ["setup_s", "engine.solve_s", "p99", "9lives", "a-b.c_d"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn units_follow_the_benchmark_charset() {
        for ok in ["s", "1/s", "GFLOP/s", "MiB", "%", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "seventeen_letters", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
