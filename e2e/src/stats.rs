//! Statistics helpers: medians and quartiles for run-to-run spread,
//! nearest-rank percentiles that refuse to outrun their sample, and the
//! rate-at-limit scan.

/// Median of `values` (mean of the two middle values for even counts).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so a
/// spread computed here matches one computed from the printed values.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the benchmark's bounds are judged against. `None` with fewer than two
/// values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Why a percentile was not reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples available.
    pub have: usize,
    /// Samples the requested percentile needs.
    pub need: usize,
}

/// Nearest-rank percentile `pct` (0 < pct < 100) of an ascending-sorted
/// sample.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_TAIL_SAMPLES`] samples would lie beyond
/// the reported value: a p99 of 200 samples is the second-largest value,
/// not a percentile.
pub fn percentile(sorted: &[u64], pct: f64) -> Result<u64, TooFewSamples> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    let need = (MIN_TAIL_SAMPLES as f64 / (1.0 - pct / 100.0)).ceil() as usize;
    if n < need {
        return Err(TooFewSamples { have: n, need });
    }
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    Ok(sorted[rank.clamp(1, n) - 1])
}

/// Median and tail of a latency sample, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples summarised.
    pub n: usize,
    /// Median (interpolated between the two middle samples).
    pub p50: f64,
    /// The tail percentile actually reported: 99 when the sample supports
    /// it, otherwise the highest of 95/90/75 that does.
    pub tail_pct: f64,
    /// Value at `tail_pct` (nearest rank).
    pub tail: f64,
}

/// Summarises a latency sample (any order). `None` when the sample is too
/// small to support even a p75 with [`MIN_TAIL_SAMPLES`] beyond it.
pub fn summarize(samples: &mut [u64]) -> Option<LatencySummary> {
    samples.sort_unstable();
    let n = samples.len();
    let (tail_pct, tail) = [99.0, 95.0, 90.0, 75.0]
        .iter()
        .find_map(|p| percentile(samples, *p).ok().map(|v| (*p, v as f64)))?;
    let mid = n / 2;
    let p50 = if n % 2 == 1 {
        samples[mid] as f64
    } else {
        (samples[mid - 1] as f64 + samples[mid] as f64) / 2.0
    };
    Some(LatencySummary {
        n,
        p50,
        tail_pct,
        tail,
    })
}

/// One point of a latency-versus-rate curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePoint {
    /// Injected rate (messages per virtual second).
    pub rate: f64,
    /// Tail latency of the messages injected at this rate.
    pub tail_latency: f64,
    /// Whether the backlog was larger at the end of the rate step than at
    /// its start.
    pub backlog_grew: bool,
}

/// The highest rate among the points that meet `limit` with no growing
/// backlog, whatever order the points come in. `None` when no point does.
///
/// Each point is judged alone: a failing point at a lower rate does not
/// disqualify a passing one above it. On a repeated ramp the lowest steps
/// can fail because they still drain the backlog the previous cycle's top
/// left, which says nothing about the rates after them.
pub fn rate_at_limit(points: &[RatePoint], limit: f64) -> Option<f64> {
    points
        .iter()
        .filter(|p| p.tail_latency <= limit && !p.backlog_grew)
        .map(|p| p.rate)
        .max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99.0), Ok(990));
        assert_eq!(percentile(&v, 50.0), Ok(500));
        assert_eq!(percentile(&v, 75.0), Ok(750));
    }

    #[test]
    fn percentile_refuses_a_tail_it_cannot_support() {
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(
            percentile(&v, 99.0),
            Err(TooFewSamples {
                have: 999,
                need: 1000
            })
        );
        assert!(percentile(&v, 95.0).is_ok());
        let small: Vec<u64> = (1..=39).collect();
        assert!(percentile(&small, 75.0).is_err());
        assert!(percentile(&(1..=40).collect::<Vec<u64>>(), 75.0).is_ok());
    }

    #[test]
    fn summary_reports_the_highest_supported_tail_with_its_count() {
        let mut big: Vec<u64> = (1..=2000).rev().collect();
        let s = summarize(&mut big).unwrap();
        assert_eq!((s.n, s.tail_pct, s.tail), (2000, 99.0, 1980.0));
        assert_eq!(s.p50, 1000.5);

        let mut mid: Vec<u64> = (1..=300).collect();
        let s = summarize(&mut mid).unwrap();
        assert_eq!((s.n, s.tail_pct, s.tail), (300, 95.0, 285.0));

        let mut tiny: Vec<u64> = (1..=12).collect();
        assert_eq!(summarize(&mut tiny), None);
    }

    fn curve(points: &[(f64, f64, bool)]) -> Vec<RatePoint> {
        points
            .iter()
            .map(|&(rate, tail_latency, backlog_grew)| RatePoint {
                rate,
                tail_latency,
                backlog_grew,
            })
            .collect()
    }

    #[test]
    fn rate_at_limit_never_exceeds() {
        let c = curve(&[
            (100.0, 900.0, false),
            (200.0, 950.0, false),
            (300.0, 990.0, false),
        ]);
        assert_eq!(rate_at_limit(&c, 3000.0), Some(300.0));
    }

    #[test]
    fn rate_at_limit_exceeds_then_recovers() {
        // The first steps still drain an inherited backlog.
        let c = curve(&[
            (100.0, 5200.0, false),
            (200.0, 3400.0, false),
            (300.0, 1000.0, false),
            (400.0, 1100.0, false),
            (500.0, 4000.0, true),
        ]);
        assert_eq!(rate_at_limit(&c, 3000.0), Some(400.0));
    }

    #[test]
    fn rate_at_limit_exceeds_and_stays() {
        let c = curve(&[
            (100.0, 900.0, false),
            (200.0, 1000.0, false),
            (300.0, 3500.0, false),
            (400.0, 6000.0, true),
            (500.0, 9000.0, true),
        ]);
        assert_eq!(rate_at_limit(&c, 3000.0), Some(200.0));
        // Latency inside the limit is not enough while the backlog grows.
        let growing = curve(&[(100.0, 900.0, false), (200.0, 950.0, true)]);
        assert_eq!(rate_at_limit(&growing, 3000.0), Some(100.0));
        assert_eq!(rate_at_limit(&curve(&[(100.0, 9e9, true)]), 3000.0), None);
    }
}
