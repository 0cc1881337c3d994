//! The metric math, kept apart from the workloads so it can be checked on
//! synthetic data: the latency histogram, its percentile and sample count, how a
//! failed operation enters a latency distribution, and medians and
//! quartiles of per-slice figures.

/// Latency recorded for an operation that failed (budget exhausted or a
/// wrong result): larger than any limit, so a failed op misses every one.
pub const FAILED_LATENCY: u64 = u64::MAX;

/// A percentile read off a [`Histogram`], with the counts that say how
/// much to trust it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The value at the nearest rank `ceil(p * n)`, interpolated
    /// linearly within its bucket.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: u64,
    /// Samples in buckets above the percentile's: it is only reported as
    /// meaningful when at least ten samples lie beyond it.
    pub beyond: u64,
}

/// Sub-buckets per power of two: a value is known to within 1/128 of
/// itself.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values from 2^MAX_EXP on (about 18 minutes in ns) share the last
/// bucket, with [`FAILED_LATENCY`].
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) << SUB_BITS;

/// A log-linear histogram of `u64` samples (HdrHistogram-style): exact
/// below 128, then 128 buckets per power of two. Fixed size, so the
/// memory a run uses does not grow with the number of ops it measures.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    if e >= MAX_EXP {
        return BUCKETS - 1;
    }
    let m = v >> (e - SUB_BITS); // in SUB..2*SUB
    (((e - SUB_BITS + 1) as usize) << SUB_BITS) + (m - SUB) as usize
}

/// The smallest value of bucket `b`, and the next bucket's.
fn bucket_range(b: usize) -> (u64, u64) {
    if b < SUB as usize {
        return (b as u64, b as u64 + 1);
    }
    let k = (b >> SUB_BITS) as u32; // e - SUB_BITS + 1
    let m = (b as u64 & (SUB - 1)) + SUB;
    ((m << (k - 1)), (m + 1) << (k - 1))
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, o: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.n += o.n;
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 1); `None` if empty. A rank
    /// that lands in the last bucket reads as [`FAILED_LATENCY`].
    pub fn percentile(&self, p: f64) -> Option<Percentile> {
        assert!(p > 0.0 && p <= 1.0, "percentile {p} outside (0, 1]");
        if self.n == 0 {
            return None;
        }
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                let value = if b == BUCKETS - 1 {
                    FAILED_LATENCY as f64
                } else {
                    let (lo, hi) = bucket_range(b);
                    lo as f64
                        + (hi - lo - 1) as f64 * (rank - below - 1) as f64
                            / c.max(2).saturating_sub(1) as f64
                };
                return Some(Percentile {
                    value,
                    samples: self.n,
                    beyond: self.n - below - c,
                });
            }
            below += c;
        }
        unreachable!("rank {rank} within {} samples", self.n)
    }
}

/// The `q` quantile of `xs` (0 ≤ q ≤ 1), interpolating linearly between
/// order statistics; `NaN` if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of positive `xs`; `NaN` if empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `part / whole`, or 0 when nothing happened (`whole == 0`).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(samples: impl IntoIterator<Item = u64>) -> Histogram {
        let mut h = Histogram::default();
        for s in samples {
            h.record(s);
        }
        h
    }

    #[test]
    fn p99_is_nearest_rank_and_reports_its_tail() {
        let p = hist((1..=1000).rev()).percentile(0.99).unwrap();
        assert_eq!(p.value, 990.0, "interpolated within its 4-wide bucket");
        assert_eq!(p.samples, 1000);
        // 991..=1000 lie beyond, but 991 shares 990's bucket: the count is
        // conservative, never more than the true one.
        assert_eq!(p.beyond, 9);
        let p = hist(std::iter::repeat_n(50, 990).chain([900; 10]))
            .percentile(0.99)
            .unwrap();
        assert_eq!(
            (p.value, p.beyond),
            (50.0, 10),
            "ten samples beyond p99 at n = 1000"
        );

        let p = hist(1..=100).percentile(0.99).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (99.0, 100, 1));

        assert_eq!(hist([7]).percentile(0.99).unwrap().value, 7.0);
        assert_eq!(Histogram::default().percentile(0.99), None);
    }

    #[test]
    fn buckets_hold_values_to_within_one_part_in_128() {
        for v in [
            0,
            1,
            127,
            128,
            129,
            1000,
            4095,
            4096,
            123_456,
            10_000_000_000,
        ] {
            let (lo, hi) = bucket_range(bucket(v));
            assert!(lo <= v && v < hi, "{v} in [{lo}, {hi})");
            assert!(
                (hi - lo) as f64 <= (v as f64 / 128.0).max(1.0),
                "{v}: width {}",
                hi - lo
            );
        }
        for b in 1..BUCKETS - 1 {
            assert_eq!(
                bucket_range(b - 1).1,
                bucket_range(b).0,
                "buckets tile the line"
            );
        }
        let p = hist(std::iter::repeat_n(100_000, 50))
            .percentile(0.99)
            .unwrap();
        assert!((p.value - 100_000.0).abs() <= 100_000.0 / 128.0);
    }

    #[test]
    fn ties_are_not_counted_beyond_the_percentile() {
        let mut s = vec![5u64; 200];
        s.push(9);
        let p = hist(s).percentile(0.99).unwrap();
        assert_eq!((p.value, p.beyond), (5.0, 1));
    }

    #[test]
    fn failed_ops_miss_every_latency_limit() {
        // 985 fast ops and 15 failures: more than 1% failed, so p99 is the
        // failure marker, not a finite latency.
        let mut h = hist(std::iter::repeat_n(100, 985));
        for _ in 0..15 {
            h.record(FAILED_LATENCY);
        }
        assert_eq!(h.percentile(0.99).unwrap().value, FAILED_LATENCY as f64);
        // With 5 failures p99 stays finite but the failures sit beyond it.
        let mut h = hist(std::iter::repeat_n(100, 995));
        for _ in 0..5 {
            h.record(FAILED_LATENCY);
        }
        let p = h.percentile(0.99).unwrap();
        assert_eq!((p.value, p.beyond), (100.0, 5));
    }

    #[test]
    fn quantiles_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!((quantile(&xs, 0.25), quantile(&xs, 0.75)), (2.0, 4.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!((quantile(&xs, 0.0), quantile(&xs, 1.0)), (1.0, 5.0));
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }
}
