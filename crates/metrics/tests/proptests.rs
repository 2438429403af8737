//! Property-based tests of the measurement layer (dd-check harness).
//!
//! DESIGN §7 names "histogram percentile monotonicity" as a workspace
//! invariant: tail-latency claims (p99/p99.9 tables in every figure) are
//! only trustworthy if the percentile estimator is ordered and bounded.

use dd_check::{check, prop_assert, prop_assert_eq};
use dd_metrics::LatencyHistogram;
use simkit::SimDuration;

/// Percentiles are monotone in `p` and bounded by min/max; count, mean and
/// extremes are consistent with the recorded samples.
#[test]
fn histogram_percentiles_monotone_and_bounded() {
    check("histogram_percentiles_monotone_and_bounded", |c| {
        let samples = c.vec_of(1, 300, |c| c.u64_in(1, 100_000_000));
        let mut h = LatencyHistogram::new();
        for &ns in &samples {
            h.record(SimDuration::from_nanos(ns));
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        // Monotone sweep across the percentile axis.
        let mut last = SimDuration::ZERO;
        for p in [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            prop_assert!(v >= last, "percentile({p}) regressed");
            last = v;
        }
        // Named percentiles agree with the sweep and with each other.
        prop_assert!(h.p50() <= h.p99());
        prop_assert!(h.p99() <= h.p999());
        // Min/max bracket every percentile up to quantization error (the
        // histogram is log-bucketed with ≤ 0.8 % relative error).
        let tol = |v: u64| v + v / 64 + 1;
        prop_assert!(h.min().as_nanos() <= tol(lo) && lo <= tol(h.min().as_nanos()));
        prop_assert!(h.max().as_nanos() <= tol(hi) && hi <= tol(h.max().as_nanos()));
        prop_assert!(h.percentile(100.0) <= SimDuration::from_nanos(tol(hi)));
        prop_assert!(
            SimDuration::from_nanos(lo)
                <= SimDuration::from_nanos(tol(h.percentile(0.0).as_nanos()))
        );
        // Mean sits within [min, max].
        prop_assert!(
            h.mean() >= h.min() && h.mean() <= SimDuration::from_nanos(tol(h.max().as_nanos()))
        );
        Ok(())
    });
}

/// Merging histograms adds counts and keeps percentiles within the merged
/// envelope.
#[test]
fn histogram_merge_conserves() {
    check("histogram_merge_conserves", |c| {
        let xs = c.vec_of(1, 200, |c| c.u64_in(1, 10_000_000));
        let ys = c.vec_of(1, 200, |c| c.u64_in(1, 10_000_000));
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for &ns in &xs {
            a.record(SimDuration::from_nanos(ns));
        }
        for &ns in &ys {
            b.record(SimDuration::from_nanos(ns));
        }
        let (amin, amax) = (a.min(), a.max());
        let (bmin, bmax) = (b.min(), b.max());
        a.merge(&b);
        prop_assert_eq!(a.count(), (xs.len() + ys.len()) as u64);
        prop_assert_eq!(a.min(), amin.min(bmin));
        prop_assert_eq!(a.max(), amax.max(bmax));
        for p in [50.0, 99.0, 99.9] {
            let v = a.percentile(p);
            prop_assert!(v >= a.min() && v <= a.max());
        }
        Ok(())
    });
}

/// The dense layout `LatencyHistogram` used before its counts became a
/// window over the occupied buckets: one 128-entry row per binary order,
/// from order 0 up to the largest sample. Test-only reference; the compact
/// histogram must answer every query exactly as this does.
///
/// `dense` models the form the compact histogram should be in: dense once
/// more than eight buckets are occupied or a dense histogram was merged
/// in, sparse again after a reset.
#[derive(Clone)]
struct DenseHistogram {
    counts: Vec<[u64; 128]>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
    dense: bool,
}

impl DenseHistogram {
    fn new() -> Self {
        DenseHistogram {
            counts: Vec::new(),
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            dense: false,
        }
    }

    /// Buckets holding at least one sample.
    fn occupied(&self) -> usize {
        self.counts.iter().flatten().filter(|&&c| c > 0).count()
    }

    fn index_of(ns: u64) -> (usize, usize) {
        if ns < 128 {
            return (0, ns as usize);
        }
        let order = (63 - ns.leading_zeros()) as usize - 6;
        (order, (ns >> order) as usize)
    }

    fn value_of(order: usize, sub: usize) -> u64 {
        if order == 0 {
            return sub as u64;
        }
        (((64 + sub % 64) as u64) << order) + (1u64 << order) / 2
    }

    fn record(&mut self, ns: u64) {
        let (order, sub) = Self::index_of(ns);
        if self.counts.len() <= order {
            self.counts.resize(order + 1, [0; 128]);
        }
        self.counts[order][sub] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.dense |= self.occupied() > 8;
    }

    fn merge(&mut self, other: &DenseHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), [0; 128]);
        }
        for (order, subs) in other.counts.iter().enumerate() {
            for (sub, &c) in subs.iter().enumerate() {
                self.counts[order][sub] += c;
            }
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.dense |= other.dense || self.occupied() > 8;
    }

    fn reset(&mut self) {
        *self = DenseHistogram::new();
    }

    fn mean(&self) -> u64 {
        if self.total == 0 {
            return 0;
        }
        (self.sum_ns / self.total as u128) as u64
    }

    fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min_ns
        }
    }

    fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (order, subs) in self.counts.iter().enumerate() {
            for (sub, &c) in subs.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return Self::value_of(order, sub).clamp(self.min_ns, self.max_ns);
                }
            }
        }
        self.max_ns
    }
}

/// Every query of `h` equals the dense reference's answer: count, mean,
/// min, max, p99.9 and, when `all_p`, every integer percentile (otherwise
/// only p0, p50 and p100, which keeps per-step checks cheap).
fn same_as_dense(h: &LatencyHistogram, d: &DenseHistogram, all_p: bool) -> dd_check::CheckResult {
    prop_assert_eq!(h.count(), d.total);
    prop_assert_eq!(h.mean().as_nanos(), d.mean());
    prop_assert_eq!(h.min().as_nanos(), d.min());
    prop_assert_eq!(h.max().as_nanos(), d.max_ns);
    prop_assert_eq!(h.p999().as_nanos(), d.percentile(99.9));
    let ps: Vec<u32> = if all_p {
        (0..=100).collect()
    } else {
        vec![0, 50, 100]
    };
    for p in ps {
        prop_assert_eq!(
            h.percentile(p as f64).as_nanos(),
            d.percentile(p as f64),
            "p{}",
            p
        );
    }
    Ok(())
}

/// One sample from a value band: 0 = around zero (sub-bucket range, with
/// 0 ns itself likely), 1 = µs-to-ms latencies, 2 = 2^40 ns and above,
/// 3 = any of these.
fn sample_in(c: &mut dd_check::Case, band: u8) -> u64 {
    let band = if band == 3 { c.u8_in(0, 3) } else { band };
    match band {
        0 if c.bool_with(0.3) => 0,
        0 => c.u64_in(0, 300),
        1 => c.u64_in(1_000, 100_000_000),
        _ => c.u64_in(1 << 40, u64::MAX),
    }
}

/// Where one histogram's samples come from: a value band (band 3 spans
/// enough buckets to go dense within a few samples), or a palette of 1–12
/// values drawn from one. A palette of at most eight buckets keeps the
/// histogram sparse until a merge; a wider one crosses the limit
/// mid-stream.
enum Source {
    Band(u8),
    Palette(Vec<u64>),
}

impl Source {
    fn draw(c: &mut dd_check::Case) -> Source {
        let band = c.u8_in(0, 4);
        if c.bool_with(0.5) {
            Source::Band(band)
        } else {
            Source::Palette(c.vec_of(1, 13, |c| sample_in(c, band)))
        }
    }

    fn sample(&self, c: &mut dd_check::Case) -> u64 {
        match self {
            Source::Band(b) => sample_in(c, *b),
            Source::Palette(vs) => vs[c.usize_in(0, vs.len())],
        }
    }
}

/// Which form transitions the oracle property exercised, over all cases.
#[derive(Clone, Copy, Default, Debug)]
struct Coverage {
    cases: u64,
    /// Histograms that ended a case sparse with samples in them.
    stayed_sparse: u64,
    /// Records that turned a sparse histogram dense.
    crossed: u64,
    /// Merges by (target dense, source dense).
    merges: [[u64; 2]; 2],
    /// Resets by the form they left.
    resets: [u64; 2],
}

/// The compact histogram is an exact stand-in for the dense layout in
/// either of its forms: count, mean, min, max, every integer percentile
/// and p99.9 agree after each step of a random script of records
/// (including ones below the current window), merges in all four
/// sparse/dense pairings and into an empty histogram, and resets followed
/// by reuse. Histograms that stay sparse, and ones that cross the
/// eight-bucket limit mid-stream, both occur; a run of the default 64
/// cases or more must exercise every transition.
#[test]
fn histogram_matches_dense_oracle() {
    let cov = std::cell::Cell::new(Coverage::default());
    let tally = |f: &dyn Fn(&mut Coverage)| {
        let mut t = cov.get();
        f(&mut t);
        cov.set(t);
    };
    check("histogram_matches_dense_oracle", |c| {
        tally(&|t| t.cases += 1);
        // Per-histogram sources: equal bands overlap, distinct ones are
        // disjoint (band 3 mixes both).
        let srcs = [Source::draw(c), Source::draw(c)];
        let mut hs = [LatencyHistogram::new(), LatencyHistogram::new()];
        let mut ds = [DenseHistogram::new(), DenseHistogram::new()];
        let steps = c.len_in(1, 120);
        for _ in 0..steps {
            let who = c.usize_in(0, 2);
            match c.u8_in(0, 10) {
                0..=4 => {
                    let ns = srcs[who].sample(c);
                    let was_dense = ds[who].dense;
                    hs[who].record(SimDuration::from_nanos(ns));
                    ds[who].record(ns);
                    if !was_dense && ds[who].dense {
                        tally(&|t| t.crossed += 1);
                    }
                }
                5 => {
                    // Below the current window: the grow-down path (a
                    // palette source stays within its palette).
                    let ns = match (&srcs[who], ds[who].min()) {
                        (Source::Palette(_), _) => srcs[who].sample(c),
                        (_, 0) => 0,
                        (_, lo) => c.u64_in(0, lo),
                    };
                    hs[who].record(SimDuration::from_nanos(ns));
                    ds[who].record(ns);
                }
                6 | 7 => {
                    let (src_h, src_d) = (hs[1 - who].clone(), ds[1 - who].clone());
                    let pairing = (ds[who].dense as usize, src_d.dense as usize);
                    tally(&|t| t.merges[pairing.0][pairing.1] += 1);
                    hs[who].merge(&src_h);
                    ds[who].merge(&src_d);
                }
                8 => {
                    let mut h = LatencyHistogram::new();
                    let mut d = DenseHistogram::new();
                    h.merge(&hs[who]);
                    d.merge(&ds[who]);
                    same_as_dense(&h, &d, true)?;
                }
                _ => {
                    same_as_dense(&hs[who], &ds[who], true)?;
                    let form = ds[who].dense as usize;
                    tally(&|t| t.resets[form] += 1);
                    hs[who].reset();
                    ds[who].reset();
                }
            }
            same_as_dense(&hs[who], &ds[who], false)?;
        }
        for d in &ds {
            if !d.dense && d.total > 0 {
                tally(&|t| t.stayed_sparse += 1);
            }
        }
        same_as_dense(&hs[0], &ds[0], true)?;
        same_as_dense(&hs[1], &ds[1], true)
    });
    let t = cov.get();
    if t.cases >= 64 {
        let seen = [
            t.stayed_sparse,
            t.crossed,
            t.merges[0][0],
            t.merges[0][1],
            t.merges[1][0],
            t.merges[1][1],
            t.resets[0],
            t.resets[1],
        ];
        assert!(seen.iter().all(|&n| n > 0), "uncovered transition: {t:?}");
    }
}
