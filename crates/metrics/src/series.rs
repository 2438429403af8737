//! Fixed-width time-bucketed series.
//!
//! Fig. 8 of the paper plots average latency and aggregate throughput over
//! the run duration; [`TimeSeries`] accumulates per-bucket sums/counts so the
//! harness can emit those curves. Buckets are allocated lazily as samples
//! arrive, so long runs with idle phases stay cheap.

use simkit::{SimDuration, SimTime};

/// One accumulation bucket.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bucket {
    /// Number of samples in the bucket.
    pub count: u64,
    /// Sum of sample values (interpretation is up to the caller: latency in
    /// ns, bytes, …).
    pub sum: u128,
}

impl Bucket {
    /// Mean value of the bucket, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A time series of fixed-width buckets starting at a configurable origin.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    origin: SimTime,
    width: SimDuration,
    buckets: Vec<Bucket>,
}

impl TimeSeries {
    /// Creates a series with buckets of `width` starting at `origin`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(origin: SimTime, width: SimDuration) -> Self {
        assert!(!width.is_zero(), "bucket width must be non-zero");
        TimeSeries {
            origin,
            width,
            buckets: Vec::new(),
        }
    }

    fn bucket_index(&self, at: SimTime) -> Option<usize> {
        if at < self.origin {
            return None;
        }
        Some(((at - self.origin).as_nanos() / self.width.as_nanos()) as usize)
    }

    /// Records `value` at time `at`. Samples before the origin are dropped
    /// (warm-up discard).
    pub fn record(&mut self, at: SimTime, value: u64) {
        let Some(idx) = self.bucket_index(at) else {
            return;
        };
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, Bucket::default());
        }
        let b = &mut self.buckets[idx];
        b.count += 1;
        b.sum += value as u128;
    }

    /// Records a latency sample (value = nanoseconds).
    pub fn record_latency(&mut self, at: SimTime, latency: SimDuration) {
        self.record(at, latency.as_nanos());
    }

    /// Bucket width.
    pub fn width(&self) -> SimDuration {
        self.width
    }

    /// Series origin.
    pub fn origin(&self) -> SimTime {
        self.origin
    }

    /// All buckets, oldest first (trailing empty buckets included only if a
    /// later sample forced their allocation).
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Iterates `(bucket_start_time, bucket)`.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &Bucket)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, b)| (self.origin + self.width * i as u64, b))
    }

    /// Per-bucket mean values (e.g. average latency per second).
    pub fn means(&self) -> Vec<f64> {
        self.buckets.iter().map(Bucket::mean).collect()
    }

    /// Per-bucket rates: `sum / width_secs` (e.g. bytes/s when values are
    /// bytes, IOPS when values are 1).
    pub fn rates(&self) -> Vec<f64> {
        let secs = self.width.as_secs_f64();
        self.buckets.iter().map(|b| b.sum as f64 / secs).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn samples_land_in_right_bucket() {
        let mut s = TimeSeries::new(SimTime::ZERO, SimDuration::from_millis(10));
        s.record(ms(0), 1);
        s.record(ms(9), 1);
        s.record(ms(10), 1);
        s.record(ms(25), 1);
        assert_eq!(s.buckets().len(), 3);
        assert_eq!(s.buckets()[0].count, 2);
        assert_eq!(s.buckets()[1].count, 1);
        assert_eq!(s.buckets()[2].count, 1);
    }

    #[test]
    fn pre_origin_samples_dropped() {
        let mut s = TimeSeries::new(ms(100), SimDuration::from_millis(10));
        s.record(ms(50), 7);
        assert!(s.buckets().is_empty());
        s.record(ms(100), 7);
        assert_eq!(s.buckets().len(), 1);
    }

    #[test]
    fn means_and_rates() {
        let mut s = TimeSeries::new(SimTime::ZERO, SimDuration::from_secs(1));
        s.record(ms(100), 10);
        s.record(ms(200), 30);
        assert_eq!(s.means(), vec![20.0]);
        assert_eq!(s.rates(), vec![40.0]);
    }

    #[test]
    fn iter_reports_bucket_starts() {
        let mut s = TimeSeries::new(ms(5), SimDuration::from_millis(10));
        s.record(ms(27), 1);
        let starts: Vec<SimTime> = s.iter().map(|(t, _)| t).collect();
        assert_eq!(starts, vec![ms(5), ms(15), ms(25)]);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        let _ = TimeSeries::new(SimTime::ZERO, SimDuration::ZERO);
    }
}
