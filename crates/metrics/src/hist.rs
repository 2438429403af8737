//! Log-bucketed latency histogram.
//!
//! Latencies in these experiments span five orders of magnitude (a few µs up
//! to hundreds of ms), so a linear histogram is hopeless and storing raw
//! samples is wasteful for multi-million-I/O runs. [`LatencyHistogram`] uses
//! the HdrHistogram bucketing scheme: values are grouped by binary order of
//! magnitude, each split into `2^precision_bits` sub-buckets, which bounds
//! the relative quantization error by `2^-precision_bits`.

use simkit::SimDuration;

/// Number of sub-bucket bits; relative error ≤ 2⁻⁷ ≈ 0.8 %.
const PRECISION_BITS: u32 = 7;
const SUB_BUCKETS: usize = 1 << PRECISION_BITS;
/// Buckets per order ≥ 1: only the top half of the sub-buckets is reachable.
const HALF: usize = SUB_BUCKETS / 2;

/// A histogram of [`SimDuration`] samples with ~0.8 % relative error.
///
/// Memory is proportional to the occupied bucket range, not to the largest
/// sample: the counts cover exactly the flat bucket indices from the
/// smallest to the largest sample seen, so a tenant that completed two I/Os
/// holds a handful of buckets.
///
/// # Examples
///
/// ```
/// use dd_metrics::LatencyHistogram;
/// use simkit::SimDuration;
///
/// let mut h = LatencyHistogram::new();
/// for us in 1..=1000u64 {
///     h.record(SimDuration::from_micros(us));
/// }
/// let p50 = h.percentile(50.0).as_micros_f64();
/// assert!((p50 - 500.0).abs() / 500.0 < 0.02);
/// ```
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    /// `counts[i]` counts samples in flat bucket `base + i` (see
    /// [`LatencyHistogram::index_of`]); empty until the first sample.
    counts: Vec<u64>,
    /// Flat index of `counts[0]`.
    base: usize,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Vec::new(),
            base: 0,
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Maps a value to its flat bucket index, HdrHistogram style: `ns`
    /// itself below [`SUB_BUCKETS`], else `order * HALF + sub`. The index
    /// is monotone in the value.
    fn index_of(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        // Highest bit position above the sub-bucket range decides the order.
        let order = (63 - ns.leading_zeros()) as usize - (PRECISION_BITS as usize - 1);
        // For order ≥ 1 only the top half of the sub-buckets
        // [SUB_BUCKETS/2, SUB_BUCKETS) is populated, as in HdrHistogram.
        let sub = (ns >> order) as usize;
        debug_assert!((HALF..SUB_BUCKETS).contains(&sub));
        order * HALF + sub
    }

    /// Reconstructs a representative value (bucket midpoint) from a flat
    /// index.
    fn value_of(idx: usize) -> u64 {
        if idx < SUB_BUCKETS {
            return idx as u64;
        }
        let order = idx / HALF - 1;
        let base = ((HALF + idx % HALF) as u64) << order;
        // Midpoint of the bucket span to halve the max error.
        base + (1u64 << order) / 2
    }

    /// Records one sample.
    pub fn record(&mut self, sample: SimDuration) {
        let ns = sample.as_nanos();
        let idx = Self::index_of(ns);
        // Below `base` the subtraction wraps, so one bounds check covers
        // both sides of the window.
        match self.counts.get_mut(idx.wrapping_sub(self.base)) {
            Some(c) => *c += 1,
            None => self.record_outside(idx),
        }
        self.total += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Counts one sample whose bucket lies outside the window.
    #[cold]
    #[inline(never)]
    fn record_outside(&mut self, idx: usize) {
        self.widen(idx, idx);
        self.counts[idx - self.base] += 1;
    }

    /// Grows the window, exactly, to cover flat indices `[lo, hi]`.
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.base = lo;
        }
        let below = self.base.saturating_sub(lo);
        let above = (hi + 1).saturating_sub(self.base + self.counts.len());
        if below + above == 0 {
            return;
        }
        let len = self.counts.len();
        self.counts.reserve_exact(below + above);
        self.counts.resize(len + below + above, 0);
        if below > 0 {
            self.counts.copy_within(..len, below);
            self.counts[..below].fill(0);
            self.base = lo;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Arithmetic mean of the samples (exact, not quantized).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / self.total as u128) as u64)
    }

    /// Smallest recorded sample (exact).
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Largest recorded sample (exact).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Value at percentile `p ∈ [0, 100]`, within the quantization error.
    pub fn percentile(&self, p: f64) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let v = Self::value_of(self.base + i);
                return SimDuration::from_nanos(v.clamp(self.min_ns, self.max_ns));
            }
        }
        SimDuration::from_nanos(self.max_ns)
    }

    /// Convenience accessors for the percentiles the paper reports.
    pub fn p50(&self) -> SimDuration {
        self.percentile(50.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> SimDuration {
        self.percentile(99.0)
    }

    /// 99.9th percentile — the paper's headline tail metric.
    pub fn p999(&self) -> SimDuration {
        self.percentile(99.9)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if !other.counts.is_empty() {
            self.widen(other.base, other.base + other.counts.len() - 1);
            let at = other.base - self.base;
            for (dst, &c) in self.counts[at..].iter_mut().zip(&other.counts) {
                *dst += c;
            }
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.counts.clear();
        self.base = 0;
        self.total = 0;
        self.sum_ns = 0;
        self.min_ns = u64::MAX;
        self.max_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(99.0), SimDuration::ZERO);
    }

    #[test]
    fn single_sample_everywhere() {
        let mut h = LatencyHistogram::new();
        h.record(us(123));
        for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p).as_micros_f64();
            assert!((v - 123.0).abs() / 123.0 < 0.01, "p{p} = {v}");
        }
        assert_eq!(h.min(), us(123));
        assert_eq!(h.max(), us(123));
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(us(100));
        h.record(us(300));
        assert_eq!(h.mean(), us(200));
    }

    #[test]
    fn uniform_percentiles() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(SimDuration::from_micros(v));
        }
        for (p, expect) in [(50.0, 5_000.0), (90.0, 9_000.0), (99.0, 9_900.0)] {
            let got = h.percentile(p).as_micros_f64();
            assert!(
                (got - expect).abs() / expect < 0.02,
                "p{p}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn percentiles_monotone() {
        let mut h = LatencyHistogram::new();
        let mut rng = simkit::SimRng::new(11);
        for _ in 0..10_000 {
            h.record(SimDuration::from_nanos(rng.gen_range(100_000_000) + 1));
        }
        let mut last = SimDuration::ZERO;
        for p in 1..=100 {
            let v = h.percentile(p as f64);
            assert!(v >= last, "p{p} regressed");
            last = v;
        }
    }

    #[test]
    fn tail_dominated_distribution() {
        let mut h = LatencyHistogram::new();
        for _ in 0..999 {
            h.record(us(10));
        }
        h.record(us(100_000));
        let p999 = h.p999().as_micros_f64();
        assert!(p999 > 90_000.0, "p999={p999}");
        let p50 = h.p50().as_micros_f64();
        assert!((p50 - 10.0).abs() < 1.0);
    }

    #[test]
    fn merge_equals_combined() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        let mut rng = simkit::SimRng::new(5);
        for i in 0..2000 {
            let v = SimDuration::from_nanos(rng.gen_range(10_000_000) + 1);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.mean(), both.mean());
        assert_eq!(a.p999(), both.p999());
    }

    #[test]
    fn reset_empties() {
        let mut h = LatencyHistogram::new();
        h.record(us(5));
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn quantization_error_bounded() {
        let mut h = LatencyHistogram::new();
        for ns in [1u64, 127, 128, 129, 1 << 20, (1 << 30) + 12345] {
            h.reset();
            h.record(SimDuration::from_nanos(ns));
            let got = h.percentile(50.0).as_nanos() as f64;
            let err = (got - ns as f64).abs() / ns as f64;
            assert!(err <= 0.01, "ns={ns} got={got} err={err}");
        }
    }

    #[test]
    fn window_holds_only_occupied_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(us(250));
        assert_eq!(h.counts.len(), 1);
        assert_eq!(h.counts.capacity(), 1);
        // Span [a, b], reached from the middle so the window grows both ways.
        let (a, b) = (3u64, 40_000_000u64);
        for ns in [1_000_000, b, a, 70_000] {
            h.record(SimDuration::from_nanos(ns));
        }
        let want = LatencyHistogram::index_of(b) - LatencyHistogram::index_of(a) + 1;
        assert_eq!(h.counts.len(), want);
        assert_eq!(h.counts.capacity(), want);
        // Merging a narrower histogram keeps the window exact.
        let mut inner = LatencyHistogram::new();
        inner.record(us(9));
        h.merge(&inner);
        assert_eq!(h.counts.len(), want);
    }
}
