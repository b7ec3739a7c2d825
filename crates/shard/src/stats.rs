//! Aggregated persistence statistics across shard pools.
//!
//! A sharded object spreads its state over N independent NVM pools, but the
//! quantities the paper reasons about (persistent fences per operation) are
//! properties of the *logical* object. [`AggregateWindow`] opens one per-thread
//! [`OpWindow`] per pool and closes them into a single merged delta, so fence
//! audits can assert the Theorem 5.1 bounds across all shards at once.

use nvm_sim::{NvmPool, OpWindow, TelemetrySnapshot, ThreadStatsSnapshot};

/// A scoped window over the calling thread's persistence counters on *every*
/// pool of a sharded object.
pub struct AggregateWindow<'a> {
    windows: Vec<OpWindow<'a>>,
}

impl<'a> AggregateWindow<'a> {
    /// Opens a window on each pool.
    pub fn open(pools: &'a [NvmPool]) -> Self {
        AggregateWindow {
            windows: pools.iter().map(|p| p.stats().op_window()).collect(),
        }
    }

    /// Closes all windows and returns the merged per-thread delta.
    pub fn close(self) -> ThreadStatsSnapshot {
        self.windows
            .into_iter()
            .map(|w| w.close())
            .fold(ThreadStatsSnapshot::default(), |acc, d| acc.merge(&d))
    }

    /// Peeks at the merged delta without consuming the window.
    pub fn peek(&self) -> ThreadStatsSnapshot {
        let deltas: Vec<ThreadStatsSnapshot> = self.windows.iter().map(|w| w.peek()).collect();
        ThreadStatsSnapshot::merge_all(deltas.iter())
    }
}

/// Merged global counters (all threads) across a set of pools.
pub fn merged_global_stats(pools: &[NvmPool]) -> ThreadStatsSnapshot {
    let globals: Vec<ThreadStatsSnapshot> = pools.iter().map(|p| p.stats().snapshot()).collect();
    ThreadStatsSnapshot::merge_all(globals.iter())
}

/// Merged telemetry rollup across a set of pools, deduplicated by sink: the
/// per-shard pools of a partitioned [`nvm_sim::PmemConfig`] share one sink
/// (snapshot it once), while independently provisioned pools with distinct
/// sinks have their distributions combined. Returns `None` when no pool has
/// telemetry enabled.
pub fn merged_telemetry(pools: &[NvmPool]) -> Option<TelemetrySnapshot> {
    let mut seen_sinks = Vec::new();
    let mut merged: Option<TelemetrySnapshot> = None;
    for pool in pools {
        let telemetry = pool.telemetry();
        if !telemetry.is_enabled() || seen_sinks.contains(&telemetry.sink_id()) {
            continue;
        }
        seen_sinks.push(telemetry.sink_id());
        let snap = telemetry.snapshot();
        match &mut merged {
            Some(m) => m.merge(&snap),
            None => merged = Some(snap),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_sim::PmemConfig;

    fn pools(n: usize) -> Vec<NvmPool> {
        PmemConfig::with_capacity(1 << 20)
            .partition(n)
            .into_iter()
            .map(NvmPool::new)
            .collect()
    }

    #[test]
    fn aggregate_window_sums_across_pools() {
        let pools = pools(3);
        // Allocation persists allocator metadata (its own fences); keep it
        // outside the window so the window sees exactly our persists.
        let addrs: Vec<_> = pools.iter().map(|p| p.alloc(64).unwrap()).collect();
        let w = AggregateWindow::open(&pools);
        for (i, (p, addr)) in pools.iter().zip(&addrs).enumerate() {
            p.write_u64(*addr, i as u64);
            p.flush(*addr, 8);
            p.fence().unwrap();
        }
        let d = w.close();
        assert_eq!(d.persistent_fences, 3);
        assert_eq!(d.flushes, 3);
    }

    #[test]
    fn aggregate_window_peek_does_not_consume() {
        let pools = pools(2);
        let addr = pools[0].alloc(64).unwrap();
        let w = AggregateWindow::open(&pools);
        pools[0].write_u64(addr, 1);
        pools[0].flush(addr, 8);
        pools[0].fence().unwrap();
        assert_eq!(w.peek().persistent_fences, 1);
        pools[1].fence().unwrap(); // no pending flush: not persistent
        let d = w.close();
        assert_eq!(d.persistent_fences, 1);
        assert_eq!(d.fences, 2);
    }

    #[test]
    fn merged_telemetry_deduplicates_shared_sinks() {
        use nvm_sim::Telemetry;
        // Partitioned config: all shards share one sink.
        let telemetry = Telemetry::enabled();
        let shared: Vec<NvmPool> = PmemConfig::with_capacity(1 << 20)
            .telemetry(telemetry.clone())
            .partition(2)
            .into_iter()
            .map(NvmPool::new)
            .collect();
        telemetry.counter("x").add(5);
        let merged = merged_telemetry(&shared).expect("enabled sink");
        assert_eq!(merged.counter("x").unwrap().value, 5, "not double-counted");

        // Distinct sinks: values combine.
        let t1 = Telemetry::enabled();
        let t2 = Telemetry::enabled();
        t1.counter("x").add(1);
        t2.counter("x").add(2);
        let distinct = vec![
            NvmPool::new(PmemConfig::with_capacity(1 << 20).telemetry(t1)),
            NvmPool::new(PmemConfig::with_capacity(1 << 20).telemetry(t2)),
        ];
        let merged = merged_telemetry(&distinct).expect("enabled sinks");
        assert_eq!(merged.counter("x").unwrap().value, 3);

        // Disabled everywhere: no snapshot.
        assert!(merged_telemetry(&pools(2)).is_none());
    }

    #[test]
    fn merged_global_stats_cover_all_threads() {
        let pools = pools(2);
        let addr0 = pools[0].alloc(64).unwrap();
        let addr1 = pools[1].alloc(64).unwrap();
        let before = merged_global_stats(&pools);
        let p1 = pools[1].clone();
        std::thread::spawn(move || {
            p1.write_u64(addr1, 7);
            p1.flush(addr1, 8);
            p1.fence().unwrap();
        })
        .join()
        .unwrap();
        pools[0].write_u64(addr0, 9);
        pools[0].flush(addr0, 8);
        pools[0].fence().unwrap();
        let merged = merged_global_stats(&pools);
        assert_eq!(merged.delta(&before).persistent_fences, 2);
    }
}
