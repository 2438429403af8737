//! Log-bucketed latency histogram.
//!
//! Latencies in these experiments span five orders of magnitude (a few µs up
//! to hundreds of ms), so a linear histogram is hopeless and storing raw
//! samples is wasteful for multi-million-I/O runs. [`LatencyHistogram`] uses
//! the HdrHistogram bucketing scheme: values are grouped by binary order of
//! magnitude, each split into `2^precision_bits` sub-buckets, which bounds
//! the relative quantization error by `2^-precision_bits`.
//!
//! A histogram costs what its samples cost. It starts *sparse*: up to
//! eight occupied buckets, each one packed `u64` (flat index and count),
//! sorted by index. The ninth occupied bucket, or a merge with a dense
//! histogram, turns it one way into a *dense* window of counts from its
//! smallest occupied bucket to its largest; `reset` returns it to sparse.
//! A fleet tenant with a few completions spread over milliseconds so holds
//! a few words, not hundreds of empty buckets.

use simkit::SimDuration;

/// Number of sub-bucket bits; relative error ≤ 2⁻⁷ ≈ 0.8 %.
const PRECISION_BITS: u32 = 7;
const SUB_BUCKETS: usize = 1 << PRECISION_BITS;
/// Buckets per order ≥ 1: only the top half of the sub-buckets is reachable.
const HALF: usize = SUB_BUCKETS / 2;

/// Occupied buckets a sparse histogram holds before it turns dense.
const SPARSE_MAX: usize = 8;
/// A sparse entry packs the flat index above the count: `index_of(u64::MAX)`
/// is 3 775, below 2¹², so the index takes the top 12 bits. The 52-bit
/// count holds 4.5 × 10¹⁵ samples, far more than any run records.
const COUNT_BITS: u32 = 52;
const COUNT_MASK: u64 = (1 << COUNT_BITS) - 1;
/// `base` of a sparse histogram: `idx.wrapping_sub(SPARSE)` exceeds any
/// window length for every flat index, so the dense fast path in `record`
/// always misses and falls into the cold path.
const SPARSE: usize = usize::MAX / 2;

/// A histogram of [`SimDuration`] samples with ~0.8 % relative error.
///
/// Memory is proportional to the occupied buckets, not to the largest
/// sample. Up to eight occupied buckets are held as one packed word each;
/// past that, the counts cover exactly the flat bucket indices from the
/// smallest to the largest sample seen. A tenant that completed two I/Os
/// holds two words, however far apart its samples lie.
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
    /// Dense: `counts[i]` counts samples in flat bucket `base + i` (see
    /// [`LatencyHistogram::index_of`]), never empty. Sparse: at most
    /// [`SPARSE_MAX`] entries `index << COUNT_BITS | count`, ascending by
    /// index, one per occupied bucket.
    counts: Vec<u64>,
    /// Dense: flat index of `counts[0]`. Sparse: [`SPARSE`].
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
            base: SPARSE,
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

    fn is_sparse(&self) -> bool {
        self.base == SPARSE
    }

    /// Occupied (and, when dense, empty) buckets as `(flat index, count)`,
    /// ascending by index.
    fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let sparse = self.is_sparse();
        self.counts.iter().enumerate().map(move |(i, &c)| {
            if sparse {
                ((c >> COUNT_BITS) as usize, c & COUNT_MASK)
            } else {
                (self.base + i, c)
            }
        })
    }

    /// Records one sample.
    pub fn record(&mut self, sample: SimDuration) {
        let ns = sample.as_nanos();
        let idx = Self::index_of(ns);
        // Below `base` the subtraction wraps, so one bounds check covers
        // both sides of the window; a sparse `base` misses it for every
        // index.
        match self.counts.get_mut(idx.wrapping_sub(self.base)) {
            Some(c) => *c += 1,
            None => self.add(idx, 1),
        }
        self.total += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Adds `n` samples to flat bucket `idx`, in either form: the path of
    /// a sample the dense fast path in `record` missed, and of a merge.
    #[cold]
    #[inline(never)]
    fn add(&mut self, idx: usize, n: u64) {
        if self.is_sparse() && self.add_sparse(idx, n) {
            return;
        }
        self.widen(idx, idx);
        self.counts[idx - self.base] += n;
    }

    /// Adds `n` samples to a sparse histogram's bucket `idx`. False, with
    /// nothing changed, when that needs a ninth entry.
    fn add_sparse(&mut self, idx: usize, n: u64) -> bool {
        let at = self
            .counts
            .binary_search_by_key(&idx, |&e| (e >> COUNT_BITS) as usize);
        let entry = match at {
            Ok(i) => &mut self.counts[i],
            Err(_) if self.counts.len() == SPARSE_MAX => return false,
            Err(i) => {
                self.counts.reserve_exact(1);
                self.counts.insert(i, (idx as u64) << COUNT_BITS);
                &mut self.counts[i]
            }
        };
        debug_assert!(
            n <= COUNT_MASK - (*entry & COUNT_MASK),
            "bucket count overflow"
        );
        *entry += n;
        true
    }

    /// Makes the histogram dense, if it is not, and grows the window,
    /// exactly, to cover flat indices `[lo, hi]`.
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.is_sparse() {
            self.densify(lo, hi);
            return;
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

    /// Turns a sparse histogram into the exact dense window over its
    /// entries and `[lo, hi]`, reusing the vector's allocation.
    fn densify(&mut self, lo: usize, hi: usize) {
        let mut entries = [(0usize, 0u64); SPARSE_MAX];
        let k = self.counts.len();
        for (slot, b) in entries.iter_mut().zip(self.buckets()) {
            *slot = b;
        }
        let entries = &entries[..k];
        let lo = entries.first().map_or(lo, |&(i, _)| i.min(lo));
        let hi = entries.last().map_or(hi, |&(i, _)| i.max(hi));
        self.counts.clear();
        self.counts.reserve_exact(hi - lo + 1);
        self.counts.resize(hi - lo + 1, 0);
        self.base = lo;
        for &(i, c) in entries {
            self.counts[i - lo] = c;
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
        for (idx, c) in self.buckets() {
            seen += c;
            if seen >= rank {
                let v = Self::value_of(idx);
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

    /// Merges another histogram into this one. Merging a dense histogram
    /// makes this one dense.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.is_sparse() {
            for (idx, c) in other.buckets() {
                self.add(idx, c);
            }
        } else {
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

    /// Clears all samples; the histogram is sparse again and keeps its
    /// allocation.
    pub fn reset(&mut self) {
        self.counts.clear();
        self.base = SPARSE;
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
    fn sparse_holds_one_entry_per_occupied_bucket() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.counts.capacity(), 0);
        // k ≤ SPARSE_MAX distinct buckets, far apart and out of order,
        // hold exactly k entries, however wide their span.
        let samples = [
            3_000_000u64,
            80_000,
            40_000_000,
            3,
            80_000,
            900,
            1 << 40,
            127,
        ];
        for (k, &ns) in samples.iter().enumerate() {
            h.record(SimDuration::from_nanos(ns));
            let distinct = 1 + k - usize::from(k >= 4);
            assert!(h.is_sparse());
            assert_eq!(h.counts.len(), distinct);
            assert_eq!(h.counts.capacity(), distinct);
        }
        assert_eq!(h.counts.len(), 7);
        assert_eq!(h.percentile(0.0), SimDuration::from_nanos(3));
        assert_eq!(h.p50(), h.percentile(50.0));
        // The eighth distinct bucket still fits; the ninth turns it dense.
        h.record(us(2));
        assert!(h.is_sparse());
        assert_eq!(h.counts.len(), SPARSE_MAX);
        h.record(us(5));
        assert!(!h.is_sparse());
        // Reset returns it to sparse, keeping the allocation.
        let cap = h.counts.capacity();
        h.reset();
        assert!(h.is_sparse() && h.counts.is_empty());
        assert_eq!(h.counts.capacity(), cap);
        h.record(us(7));
        assert_eq!(h.counts.len(), 1);
    }

    #[test]
    fn window_holds_only_occupied_buckets() {
        let mut h = LatencyHistogram::new();
        // Span [a, b], reached from the middle so the window grows both
        // ways; the first SPARSE_MAX buckets stay sparse, the ninth
        // (`a`) turns the histogram into the dense window.
        let (a, b) = (3u64, 40_000_000u64);
        let middle = [
            250_000u64, 1_000_000, 70_000, 90_000, 110_000, 130_000, 150_000,
        ];
        for ns in middle {
            h.record(SimDuration::from_nanos(ns));
        }
        assert!(h.is_sparse());
        h.record(SimDuration::from_nanos(b));
        assert!(h.is_sparse());
        h.record(SimDuration::from_nanos(a));
        assert!(!h.is_sparse());
        let want = LatencyHistogram::index_of(b) - LatencyHistogram::index_of(a) + 1;
        assert_eq!(h.base, LatencyHistogram::index_of(a));
        assert_eq!(h.counts.len(), want);
        assert_eq!(h.counts.capacity(), want);
        // Dense from here on: a sample below the window grows it down,
        // exactly.
        h.record(SimDuration::from_nanos(1));
        let want = want + LatencyHistogram::index_of(a) - 1;
        assert_eq!(h.counts.len(), want);
        assert_eq!(h.counts.capacity(), want);
        // Merging a narrower histogram keeps the window exact.
        let mut inner = LatencyHistogram::new();
        inner.record(us(9));
        h.merge(&inner);
        assert_eq!(h.counts.len(), want);
        // Merging a dense histogram into a sparse one makes the window
        // that covers both.
        let mut sparse = LatencyHistogram::new();
        sparse.record(SimDuration::from_nanos(1 << 40));
        sparse.merge(&h);
        assert!(!sparse.is_sparse());
        let want = LatencyHistogram::index_of(1 << 40) - LatencyHistogram::index_of(1) + 1;
        assert_eq!(sparse.counts.len(), want);
        assert_eq!(sparse.counts.capacity(), want);
    }
}
