//! Sample statistics the benchmark reports: percentiles with the tail
//! rule, and SLO accounting over request outcomes.

/// Percentiles the tail metrics may fall back to, highest first.
const TAIL_LADDER: [f64; 5] = [0.99, 0.98, 0.95, 0.90, 0.75];

/// Samples a percentile needs beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `ceil(q * n)` samples at or below it. `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(q.clamp(0.0, 1.0), sorted.len()).max(1) - 1])
}

/// `ceil(q * n)`, immune to `q * n` landing a rounding error above an
/// integer.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil().max(0.0) as usize).min(n)
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// strictly beyond its rank in a sample of `n`; the median when even p75
/// is unsupported.
pub fn tail_q(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| n - rank(q, n) >= MIN_BEYOND)
        .unwrap_or(0.5)
}

/// Median and tail of a sample, with the percentile the tail used.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile's value (see [`tail_q`]).
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_q: f64,
}

/// Summarizes an unsorted sample (zeros when empty).
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = tail_q(v.len());
    Summary {
        n: v.len(),
        p50: quantile(&v, 0.5).unwrap_or(0.0),
        tail: quantile(&v, q).unwrap_or(0.0),
        tail_q: q,
    }
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// How one sent request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Reached `Done`.
    Done,
    /// Reached `Failed`, or its stream closed without a terminal event.
    Failed,
    /// The front end refused it at submission (queue full).
    Refused,
}

/// What the client observed for one request of the open-loop phase.
#[derive(Clone, Debug, PartialEq)]
pub struct Observed {
    /// Terminal status.
    pub status: Status,
    /// Due time to first token, in ms (None without a first token).
    pub ttft_ms: Option<f64>,
    /// Gaps between consecutive answer tokens, in ms.
    pub gaps_ms: Vec<f64>,
    /// The answer differed from the lone-engine oracle.
    pub mismatch: bool,
}

impl Observed {
    /// True when the request met both latency limits and was answered
    /// correctly. Failed, refused and mismatched requests are misses.
    pub fn meets(&self, ttft_limit_ms: f64, itl_limit_ms: f64) -> bool {
        self.status == Status::Done
            && !self.mismatch
            && self.ttft_ms.is_some_and(|t| t <= ttft_limit_ms)
            && self.gaps_ms.iter().all(|&g| g <= itl_limit_ms)
    }
}

/// Share of *sent* requests that met both limits (0 when none was sent).
pub fn slo_attainment(obs: &[Observed], ttft_limit_ms: f64, itl_limit_ms: f64) -> f64 {
    if obs.is_empty() {
        return 0.0;
    }
    let met = obs
        .iter()
        .filter(|o| o.meets(ttft_limit_ms, itl_limit_ms))
        .count();
    met as f64 / obs.len() as f64
}

/// (failed + refused + answer mismatches) / sent.
pub fn error_rate(obs: &[Observed]) -> f64 {
    if obs.is_empty() {
        return 0.0;
    }
    let bad = obs
        .iter()
        .filter(|o| o.status != Status::Done || o.mismatch)
        .count();
    bad as f64 / obs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_q(1000), 0.99);
        assert_eq!(tail_q(999), 0.98);
        assert_eq!(tail_q(500), 0.98);
        assert_eq!(tail_q(499), 0.95);
        assert_eq!(tail_q(200), 0.95);
        assert_eq!(tail_q(100), 0.90);
        assert_eq!(tail_q(40), 0.75);
        assert_eq!(tail_q(39), 0.5);
        assert_eq!(tail_q(0), 0.5);
        // Exactly ten samples lie beyond the chosen rank.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = quantile(&v, tail_q(v.len())).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > p).count(), 10);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), Some(2.0));
        assert_eq!(quantile(&v, 0.75), Some(3.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!((s.n, s.p50, s.tail_q), (3, 3.0, 0.5));
    }

    fn ok(ttft: f64, gaps: &[f64]) -> Observed {
        Observed {
            status: Status::Done,
            ttft_ms: Some(ttft),
            gaps_ms: gaps.to_vec(),
            mismatch: false,
        }
    }

    #[test]
    fn failed_refused_and_mismatched_requests_miss_the_slo() {
        let mut wrong = ok(1.0, &[]);
        wrong.mismatch = true;
        let failed = Observed {
            status: Status::Failed,
            ttft_ms: Some(1.0),
            gaps_ms: vec![],
            mismatch: false,
        };
        let refused = Observed {
            status: Status::Refused,
            ttft_ms: None,
            gaps_ms: vec![],
            mismatch: false,
        };
        let obs = vec![
            ok(10.0, &[1.0, 2.0]), // meets
            ok(10.0, &[]),         // meets: single-token answer
            ok(60.0, &[1.0]),      // TTFT over the limit
            ok(10.0, &[1.0, 9.0]), // one gap over the limit
            wrong,
            failed,
            refused,
        ];
        assert!((slo_attainment(&obs, 50.0, 5.0) - 2.0 / 7.0).abs() < 1e-12);
        assert!((error_rate(&obs) - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(slo_attainment(&[], 50.0, 5.0), 0.0);
    }
}
