//! Log-bucketed histograms recorded into per-thread slots ([`PerSlot`]).
//!
//! Buckets are powers of two: bucket `i` (for `i >= 1`) holds values `v` with
//! `2^(i-1) <= v < 2^i`; bucket 0 holds exactly zero. Recording touches only
//! the calling thread's padded slot (one relaxed `fetch_add` plus a
//! `fetch_max`), so concurrent recorders never share a cache line. Quantiles
//! are extracted from the merged bucket counts and are therefore exact up to
//! bucket resolution (a factor of two), which is the right fidelity for
//! latency distributions spanning nanoseconds to milliseconds.

use crate::slot::PerSlot;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: bucket 0 for zero, buckets 1..=64 for each bit
/// length of a `u64`.
pub const NUM_BUCKETS: usize = 65;

/// Bucket index of a value: its bit length (0 for 0).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket.
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// One slot's view of a histogram.
pub(crate) struct HistSlot {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistSlot {
    fn default() -> Self {
        HistSlot {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The shared core of a named histogram; handles hold it behind an `Arc`.
pub(crate) type HistogramCore = PerSlot<HistSlot>;

impl HistogramCore {
    #[inline]
    pub(crate) fn record(&self, value: u64) {
        let slot = self.mine();
        slot.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(value, Ordering::Relaxed);
        slot.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Merges every thread's slot into one distribution.
    pub(crate) fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        let mut count = 0;
        let mut sum = 0u64;
        let mut max = 0;
        for slot in self.iter() {
            if slot.count.load(Ordering::Relaxed) == 0 {
                continue;
            }
            for (merged, bucket) in buckets.iter_mut().zip(slot.buckets.iter()) {
                *merged += bucket.load(Ordering::Relaxed);
            }
            count += slot.count.load(Ordering::Relaxed);
            sum = sum.wrapping_add(slot.sum.load(Ordering::Relaxed));
            max = max.max(slot.max.load(Ordering::Relaxed));
        }
        HistogramSnapshot {
            name: name.to_string(),
            buckets,
            count,
            sum,
            max,
        }
    }
}

/// Immutable merged view of a histogram: total bucket counts plus the derived
/// count/sum/max, from which quantiles are computed on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Merged per-bucket counts (`buckets[i]` counts values of bit length `i`).
    pub buckets: [u64; NUM_BUCKETS],
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of all recorded values (wrapping).
    pub sum: u64,
    /// Largest recorded value (exact, not bucket-rounded).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot with the given name.
    pub fn empty(name: &str) -> Self {
        HistogramSnapshot {
            name: name.to_string(),
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, exact up to bucket resolution:
    /// the upper bound of the bucket containing the rank-`ceil(q*count)`
    /// sample, clamped to the observed maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket-resolution).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (bucket-resolution).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (bucket-resolution).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merges another snapshot's distribution into this one (used for
    /// per-shard rollups).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn record_and_quantiles() {
        let core = HistogramCore::default();
        for v in 1..=100u64 {
            core.record(v);
        }
        let snap = core.snapshot("t");
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum, 5050);
        assert_eq!(snap.max, 100);
        // Ranks 1..=100; p50 falls in bucket of bit length 6 ([32, 63]).
        assert_eq!(snap.p50(), 63);
        // p99 and the top land in [64, 127], clamped to the observed max.
        assert_eq!(snap.p99(), 100);
        assert_eq!(snap.quantile(1.0), 100);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let snap = HistogramCore::default().snapshot("e");
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn cross_thread_records_merge() {
        let core = std::sync::Arc::new(HistogramCore::default());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let c = core.clone();
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        c.record(t * 250 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = core.snapshot("m");
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.max, 999);
    }

    #[test]
    fn merge_combines_distributions() {
        let a = HistogramCore::default();
        let b = HistogramCore::default();
        a.record(10);
        b.record(1000);
        let mut sa = a.snapshot("x");
        let sb = b.snapshot("x");
        sa.merge(&sb);
        assert_eq!(sa.count, 2);
        assert_eq!(sa.max, 1000);
        assert_eq!(sa.sum, 1010);
    }
}
