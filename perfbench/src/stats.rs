//! The benchmark's own statistics: medians, quartiles, the p99 rule and
//! request failure accounting.

/// Median of `values` (mean of the two middle values for an even count),
/// as Python's `statistics.median` computes it. `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative when the clamp moved `j` up: Python extrapolates too.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile could not be reported.
#[derive(Debug, Clone, PartialEq)]
pub enum TailError {
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the percentile.
    TooFewSamples { samples: usize, beyond: usize },
    /// The percentile falls on a failed request, which has no latency.
    Failed,
}

/// The `q` quantile (nearest rank) of `samples`, refused unless at least
/// [`MIN_BEYOND`] samples lie beyond it. Failed requests are `+inf`, so
/// they can raise a percentile but never lower it.
pub fn tail(samples: &[f64], q: f64) -> Result<f64, TailError> {
    let sorted = sorted(samples);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TailError::TooFewSamples { samples: n, beyond });
    }
    let value = sorted[rank - 1];
    if value.is_finite() {
        Ok(value)
    } else {
        Err(TailError::Failed)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// One logged attempt: its latency in seconds (`+inf` when it failed) and
/// the caller's request kind.
#[derive(Debug, Clone, Copy)]
struct Sample {
    secs: f64,
    kind: u8,
}

/// Client-side ledger of requests: every attempt lands here exactly once.
///
/// Its storage is sized before the load starts and never grows, so
/// logging a request allocates nothing: the ledger holds the same
/// [`RequestLog::reserved_bytes`] whether it logged ten requests or a
/// million, and a heap figure taken during the load can leave it out.
#[derive(Debug, Default, Clone)]
pub struct RequestLog {
    samples: Vec<Sample>,
    /// Attempts answered 200.
    pub ok: u64,
    /// Attempts answered 304.
    pub not_modified: u64,
    /// Attempts answered with any other status.
    pub bad_status: u64,
    /// Attempts that ended in a transport error (refused, reset, timeout,
    /// a connection closed mid-response).
    pub transport_errors: u64,
}

impl RequestLog {
    /// A ledger with room for `attempts` attempts.
    pub fn with_capacity(attempts: usize) -> RequestLog {
        RequestLog {
            samples: Vec::with_capacity(attempts),
            ..RequestLog::default()
        }
    }

    /// No room for another attempt: the caller must stop issuing requests.
    pub fn is_full(&self) -> bool {
        self.samples.len() == self.samples.capacity()
    }

    /// Heap bytes the ledger holds, however many attempts it logged.
    pub fn reserved_bytes(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<Sample>()
    }

    fn push(&mut self, kind: u8, secs: f64) {
        debug_assert!(!self.is_full(), "request log full: check is_full first");
        self.samples.push(Sample { secs, kind });
    }

    /// Record an answered request of `kind`. Only 200 and 304 count as
    /// answers; anything else (a 429 shed, a 503, a 500) is a missed
    /// request.
    pub fn answered(&mut self, kind: u8, status: u16, secs: f64) {
        match status {
            200 => self.ok += 1,
            304 => self.not_modified += 1,
            _ => {
                self.bad_status += 1;
                self.push(kind, f64::INFINITY);
                return;
            }
        }
        self.push(kind, secs);
    }

    /// Record a request of `kind` that never got a complete response.
    pub fn transport_error(&mut self, kind: u8) {
        self.transport_errors += 1;
        self.push(kind, f64::INFINITY);
    }

    /// Latency in seconds of every attempt; failures are `+inf`.
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.secs).collect()
    }

    /// [`RequestLog::latencies`] of the attempts of one kind.
    pub fn latencies_of(&self, kind: u8) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.secs)
            .collect()
    }

    /// Attempts recorded.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Attempts that did not end in a 200 or 304.
    pub fn failed(&self) -> u64 {
        self.bad_status + self.transport_errors
    }

    /// Fold another client's ledger into this one (after the load: this
    /// may allocate).
    pub fn merge(&mut self, other: RequestLog) {
        self.samples.extend(other.samples);
        self.ok += other.ok;
        self.not_modified += other.not_modified;
        self.bad_status += other.bad_status;
        self.transport_errors += other.transport_errors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&v).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            tail(&v, 0.99),
            Err(TailError::TooFewSamples {
                samples: 999,
                beyond: 9
            })
        );
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Ok(990.0));
        assert_eq!(tail(&v, 0.5), Ok(500.0));
        assert!(tail(&[], 0.5).is_err());
    }

    #[test]
    fn shed_errors_and_dropped_connections_are_misses_not_fast_samples() {
        let mut log = RequestLog::with_capacity(1002);
        for _ in 0..990 {
            log.answered(0, 200, 0.040);
        }
        for status in [429, 503, 500] {
            log.answered(1, status, 0.0001);
        }
        for _ in 0..7 {
            log.transport_error(1);
        }
        assert_eq!(log.attempted(), 1000);
        assert_eq!(log.failed(), 10);
        // The fast error replies did not pull the median down.
        assert_eq!(tail(&log.latencies(), 0.5), Ok(0.040));
        // Ten misses fill the whole tail beyond p99: p99 is a miss.
        assert_eq!(tail(&log.latencies(), 0.99), Ok(0.040));
        log.transport_error(1);
        assert_eq!(tail(&log.latencies(), 0.99), Err(TailError::Failed));
        // Per kind, too, a miss is infinitely slow.
        assert_eq!(log.latencies_of(0), vec![0.040; 990]);
        assert!(log.latencies_of(1).iter().all(|s| s.is_infinite()));
        let mut other = RequestLog::with_capacity(1);
        other.answered(2, 304, 0.001);
        assert!(other.is_full());
        log.merge(other);
        assert_eq!(
            (log.attempted(), log.failed(), log.not_modified),
            (1002, 11, 1)
        );
        assert_eq!(log.latencies_of(2), vec![0.001]);
    }

    #[test]
    fn logging_requests_allocates_nothing_so_the_heap_peak_ignores_their_number() {
        // A heap peak taken during the load counts the ledger's reserved
        // bytes, which the serve workload subtracts. Logging itself must
        // add nothing, or the figure would grow with the request rate.
        const ROOM: usize = 100_000;
        for n in [10, 1_000, ROOM] {
            let mut log = RequestLog::with_capacity(ROOM);
            let reserved = log.reserved_bytes();
            let (allocs, ()) = crate::count_allocs(|| {
                for i in 0..n {
                    match i % 3 {
                        0 => log.answered(0, 200, 0.001),
                        1 => log.answered(2, 304, 0.0005),
                        _ => log.transport_error(1),
                    }
                }
            });
            assert_eq!(allocs, 0, "logging {n} requests allocated");
            assert_eq!(log.reserved_bytes(), reserved);
            assert_eq!(reserved, ROOM * 16);
            assert_eq!((log.attempted(), log.is_full()), (n as u64, n == ROOM));
        }
    }
}
