//! Serving metrics: lock-free atomic counters and fixed-bucket latency
//! histograms, cheap enough to record on every request and snapshot from a
//! STATS request without pausing the workers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    pub fn incr(&self) {
        // ordering: Relaxed — pure event count; readers only need an
        // eventually consistent total, never cross-counter coherence.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        // ordering: Relaxed — same as `incr`.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        // ordering: Relaxed — snapshot reads tolerate slight staleness.
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two latency buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` microseconds, so the top bucket starts at ~9 minutes —
/// far beyond any serving deadline.
pub const HISTOGRAM_BUCKETS: usize = 30;

/// A fixed-bucket (power-of-two microsecond) latency histogram.  Recording
/// is one relaxed atomic add; quantiles are computed from a snapshot, so
/// p50/p95/p99 cost nothing until asked for.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }

    fn bucket_of(us: u64) -> usize {
        // ilog2 of the clamped sample; sample 0 lands in bucket 0.
        let clamped = us.max(1);
        ((63 - clamped.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    pub fn record(&self, latency: Duration) {
        self.record_us(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    pub fn record_us(&self, us: u64) {
        // ordering: Relaxed — independent statistical counters; a snapshot
        // that tears between them is still a valid histogram.
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed); // ordering: same — independent counter
        self.sum_us.fetch_add(us, Ordering::Relaxed); // ordering: same — independent counter
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            // ordering: Relaxed — see `record_us`.
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed), // ordering: see `record_us`
            sum_us: self.sum_us.load(Ordering::Relaxed), // ordering: see `record_us`
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`], with quantile queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    pub count: u64,
    pub sum_us: u64,
}

impl HistogramSnapshot {
    /// The quantile in microseconds: locate the bucket holding rank
    /// `ceil(q * count)` and interpolate linearly *within* it by the
    /// rank's position among the bucket's samples.  Returns 0 for an
    /// empty histogram.
    ///
    /// The interpolation matters at power-of-two bucket edges: reporting
    /// every in-bucket rank as the bucket's upper edge collapses p50, p95
    /// and p99 to one value whenever the bulk of samples shares a bucket,
    /// which is the common case for a tight latency distribution.  Spread
    /// uniformly across the bucket instead, the quantiles stay distinct
    /// and each is still within the bucket that truly contains its rank.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let clamped = q.clamp(0.0, 1.0);
        let rank = ((clamped * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                // Bucket 0 spans [0, 2) µs; bucket i ≥ 1 spans
                // [2^i, 2^(i+1)) µs — lower edge `lower`, width `width`.
                let (lower, width) = if i == 0 {
                    (0, 2)
                } else {
                    (1u64 << i, 1u64 << i)
                };
                // 1-based position of the rank among this bucket's n
                // samples, placed at the *midpoint* of its 1/n-wide slot:
                // (2·in_rank − 1)·width / (2n).  Upper-edge placement
                // (in_rank·width/n) reports a lone sample at the bucket's
                // top — overstating p50 by up to ~2× for a one-sample
                // bucket — while midpoints stay unbiased for any count.
                let in_rank = rank - seen;
                let offset = ((2 * u128::from(in_rank) - 1) * u128::from(width)
                    / (2 * u128::from(n))) as u64;
                return (lower + offset).min(lower + width - 1);
            }
            seen += n;
        }
        (1u64 << HISTOGRAM_BUCKETS) - 1
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }
}

/// All counters the server maintains.  One instance per server, shared by
/// every reader and worker thread.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Connections accepted.
    pub connections: Counter,
    /// Requests decoded (inline and queued alike).
    pub requests: Counter,
    /// Non-error responses written.
    pub responses_ok: Counter,
    /// Typed error responses written (including sheds).
    pub responses_error: Counter,
    /// Requests shed by admission control (work queue full).
    pub shed: Counter,
    /// Searches that returned a degraded (partial) result.
    pub degraded: Counter,
    /// Frames rejected by the codec.
    pub bad_frames: Counter,
    /// Faults the injection plan actually fired.
    pub faults_injected: Counter,
    /// End-to-end search latency (arrival to reply encoding).
    pub search_latency: LatencyHistogram,
}

impl ServeMetrics {
    pub fn new() -> Self {
        ServeMetrics::default()
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        let lat = self.search_latency.snapshot();
        StatsSnapshot {
            connections: self.connections.get(),
            requests: self.requests.get(),
            responses_ok: self.responses_ok.get(),
            responses_error: self.responses_error.get(),
            shed: self.shed.get(),
            degraded: self.degraded.get(),
            bad_frames: self.bad_frames.get(),
            faults_injected: self.faults_injected.get(),
            searches: lat.count,
            search_p50_us: lat.quantile_us(0.50),
            search_p95_us: lat.quantile_us(0.95),
            search_p99_us: lat.quantile_us(0.99),
        }
    }
}

/// The wire-encodable snapshot a STATS request returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub connections: u64,
    pub requests: u64,
    pub responses_ok: u64,
    pub responses_error: u64,
    pub shed: u64,
    pub degraded: u64,
    pub bad_frames: u64,
    pub faults_injected: u64,
    pub searches: u64,
    pub search_p50_us: u64,
    pub search_p95_us: u64,
    pub search_p99_us: u64,
}

impl StatsSnapshot {
    /// Number of u64 fields on the wire; the codec encodes/decodes exactly
    /// this many, in `as_fields` order.
    pub const FIELD_COUNT: usize = 12;

    pub fn as_fields(&self) -> [u64; Self::FIELD_COUNT] {
        [
            self.connections,
            self.requests,
            self.responses_ok,
            self.responses_error,
            self.shed,
            self.degraded,
            self.bad_frames,
            self.faults_injected,
            self.searches,
            self.search_p50_us,
            self.search_p95_us,
            self.search_p99_us,
        ]
    }

    pub fn from_fields(fields: &[u64; Self::FIELD_COUNT]) -> Self {
        StatsSnapshot {
            connections: fields[0],
            requests: fields[1],
            responses_ok: fields[2],
            responses_error: fields[3],
            shed: fields[4],
            degraded: fields[5],
            bad_frames: fields[6],
            faults_injected: fields[7],
            searches: fields[8],
            search_p50_us: fields[9],
            search_p95_us: fields[10],
            search_p99_us: fields[11],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 0);
        assert_eq!(LatencyHistogram::bucket_of(2), 1);
        assert_eq!(LatencyHistogram::bucket_of(3), 1);
        assert_eq!(LatencyHistogram::bucket_of(1024), 10);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_bracket_samples() {
        let h = LatencyHistogram::new();
        for us in [100u64, 200, 300, 400, 50_000] {
            h.record_us(us);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        // p50 over {100,200,300,400,50_000}: rank 3 → 300µs bucket
        // [256,512), first of that bucket's two samples sits at the
        // midpoint of the lower half → 256 + 256/4.
        assert_eq!(snap.quantile_us(0.50), 320);
        // p99 lands in the 50ms sample's bucket [32768, 65536); the sole
        // sample interpolates to the bucket midpoint, not the upper edge.
        assert_eq!(snap.quantile_us(0.99), 32_768 + 16_384);
        assert!(snap.mean_us() > 0.0);
    }

    #[test]
    fn quantiles_within_one_bucket_stay_distinct() {
        // 100 samples, all in bucket [1024, 2048).  Reporting the bucket's
        // upper edge for every rank would collapse p50 = p95 = p99 = 2047;
        // within-bucket interpolation keeps them distinct and ordered.
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record_us(1500);
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile_us(0.50), 1024 + (2 * 50 - 1) * 1024 / 200);
        assert_eq!(snap.quantile_us(0.95), 1024 + (2 * 95 - 1) * 1024 / 200);
        assert_eq!(snap.quantile_us(0.99), 1024 + (2 * 99 - 1) * 1024 / 200);
        let (p50, p95, p99) = (
            snap.quantile_us(0.50),
            snap.quantile_us(0.95),
            snap.quantile_us(0.99),
        );
        assert!(p50 < p95 && p95 < p99 && p99 < 2048);
    }

    #[test]
    fn single_sample_reports_its_bucket_midpoint() {
        // Rank 1-of-1 used to interpolate to `width` — the bucket's upper
        // edge — so a lone 1500µs sample reported p50 = 2047µs, ~2× the
        // bucket's lower edge.  The midpoint rule pins it to 1536µs.
        let h = LatencyHistogram::new();
        h.record_us(1500);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        for q in [0.01, 0.50, 0.99] {
            assert_eq!(snap.quantile_us(q), 1024 + 512);
        }
    }

    #[test]
    fn two_samples_split_the_bucket_into_quarters() {
        // Two samples in [1024, 2048): midpoints of the two half-slots
        // land at the bucket's first and third quartile.
        let h = LatencyHistogram::new();
        h.record_us(1100);
        h.record_us(1900);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.quantile_us(0.50), 1024 + 256);
        assert_eq!(snap.quantile_us(0.99), 1024 + 768);
    }

    #[test]
    fn zero_microsecond_samples_interpolate_inside_bucket_zero() {
        let h = LatencyHistogram::new();
        for us in [0u64, 0, 1, 1] {
            h.record_us(us);
        }
        let snap = h.snapshot();
        // Bucket 0 spans [0, 2): every quantile stays below 2µs.
        assert!(snap.quantile_us(0.99) <= 1);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!(snap.quantile_us(0.5), 0);
        assert_eq!(snap.mean_us(), 0.0);
    }

    #[test]
    fn stats_field_roundtrip() {
        let snap = StatsSnapshot {
            connections: 1,
            requests: 2,
            responses_ok: 3,
            responses_error: 4,
            shed: 5,
            degraded: 6,
            bad_frames: 7,
            faults_injected: 8,
            searches: 9,
            search_p50_us: 10,
            search_p95_us: 11,
            search_p99_us: 12,
        };
        assert_eq!(StatsSnapshot::from_fields(&snap.as_fields()), snap);
    }
}
