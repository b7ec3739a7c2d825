//! The simulated persistent-memory region: load/store/flush/fence/crash.

use crate::armed::{ArmedCrash, ArmedKind};
use crate::backend::PmemBackend;
use crate::cache::ShardedMemory;
use crate::device::Poison;
use crate::error::NvmError;
use crate::fault::{self, FsyncFault, PwriteFault};
use crate::layout::{line_range, PAddr};
use crate::pending::PendingFlushes;
use crate::policy::{PmemConfig, WritebackPolicy};
use crate::stats::FenceStats;
use onll_telemetry::Histogram;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};

/// What kind of persistence events an armed crash counts down on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTrigger {
    /// Crash after `n` further store instructions (any thread).
    AfterStores(u64),
    /// Crash after `n` further flush instructions (any thread).
    AfterFlushes(u64),
    /// Crash after `n` further fence instructions (any thread).
    AfterFences(u64),
    /// Crash after `n` further persistence events of any kind (store, flush or
    /// fence, any thread).
    AfterEvents(u64),
}

/// Token returned by a backend's `crash`. Passing it to `restart` documents
/// (and type-checks) that a recovery phase follows a crash.
#[derive(Debug)]
#[must_use = "a crash must be followed by restart before the backend is used again"]
pub struct CrashToken {
    crash_index: u64,
}

impl CrashToken {
    /// Creates a token for the `crash_index`-th crash of a backend. Intended
    /// for [`crate::PmemBackend`] implementors; a token is only accepted by the
    /// backend whose most recent crash produced the same index.
    pub fn new(crash_index: u64) -> Self {
        CrashToken { crash_index }
    }

    /// The crash ordinal this token was issued for.
    pub fn crash_index(&self) -> u64 {
        self.crash_index
    }
}

/// A simulated byte-addressable persistent-memory region.
///
/// All accesses follow the paper's model (Section 2.1):
///
/// * [`NvmRegion::write`] / [`NvmRegion::read`] hit the simulated cache;
/// * [`NvmRegion::flush`] marks lines for asynchronous write-back (free);
/// * [`NvmRegion::fence`] drains the calling thread's pending write-backs and is
///   counted as a *persistent fence* iff at least one was pending;
/// * [`NvmRegion::crash`] drops the cache, applies pending flushes probabilistically
///   (an asynchronous write-back may or may not have completed when power failed),
///   and freezes the region until [`NvmRegion::restart`].
pub struct NvmRegion {
    cfg: PmemConfig,
    memory: ShardedMemory,
    stats: FenceStats,
    /// Per-thread pending flushes: line -> contents captured at flush time.
    pending: PendingFlushes,
    /// When true, the machine has "lost power": all subsequent persistence
    /// operations are ignored (the issuing instructions never happened).
    frozen: AtomicBool,
    armed: ArmedCrash,
    /// The region's write-pending queue: persistent-fence drains serialize per
    /// region (a DIMM has one WPQ), while drains on *different* regions — e.g.
    /// the per-shard pools of a sharded object — proceed in parallel. Only
    /// taken when a non-zero `fence_penalty` is configured.
    persist_queue: Mutex<()>,
    eviction_rng: Mutex<StdRng>,
    crash_count: Mutex<u64>,
    /// Set by a permanent injected fault: later fallible fences fail fast
    /// with the original cause, mirroring the file backend's poisoning.
    poison: Poison,
    /// Wall time of every persistent fence ("sim.fence_ns"); disabled handles
    /// when the config carries no sink.
    fence_hist: Histogram,
    /// Time spent draining the simulated write-pending queue — the serialized
    /// `fence_penalty` stall ("sim.wpq_drain_ns").
    wpq_hist: Histogram,
}

impl NvmRegion {
    /// Creates a fresh region with the given configuration. All bytes read as zero.
    pub fn new(cfg: PmemConfig) -> Self {
        let eviction_seed = match cfg.policy {
            WritebackPolicy::RandomEviction { seed, .. } => seed,
            _ => cfg.crash_seed ^ 0x9E3779B97F4A7C15,
        };
        cfg.fault_plan.bind_telemetry(&cfg.telemetry);
        NvmRegion {
            eviction_rng: Mutex::new(StdRng::seed_from_u64(eviction_seed)),
            poison: Poison::default(),
            memory: ShardedMemory::new(),
            stats: FenceStats::new(),
            pending: PendingFlushes::new(cfg.crash_seed),
            frozen: AtomicBool::new(false),
            armed: ArmedCrash::new(),
            persist_queue: Mutex::new(()),
            crash_count: Mutex::new(0),
            fence_hist: cfg.telemetry.histogram("sim.fence_ns"),
            wpq_hist: cfg.telemetry.histogram("sim.wpq_drain_ns"),
            cfg,
        }
    }

    /// The region's configuration.
    pub fn config(&self) -> &PmemConfig {
        &self.cfg
    }

    /// Region capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.cfg.capacity
    }

    /// Persistence-event statistics for this region.
    pub fn stats(&self) -> &FenceStats {
        &self.stats
    }

    /// True if the region is currently "powered off" (a crash was injected and
    /// [`NvmRegion::restart`] has not yet been called).
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::SeqCst)
    }

    fn check_bounds(&self, addr: PAddr, len: usize) {
        assert!(
            addr.checked_add(len as u64)
                .is_some_and(|end| end <= self.cfg.capacity),
            "NVM access out of bounds: addr={addr:#x} len={len} capacity={:#x}",
            self.cfg.capacity
        );
    }

    fn tick_armed(&self, kind: ArmedKind) {
        self.armed.tick(kind, || {
            let _ = self.crash();
        });
    }

    /// Arms an automatic crash that fires after the given number of further
    /// persistence events. Used by the crash-injection harness to stop the world in
    /// the middle of an operation without the operation's cooperation.
    pub fn arm_crash(&self, trigger: CrashTrigger) {
        self.armed.arm(trigger);
    }

    /// Disarms a previously armed crash (no-op if none is armed).
    pub fn disarm_crash(&self) {
        self.armed.disarm();
    }

    /// Writes `data` at `addr`. The write is satisfied in the (volatile) cache; it
    /// is **not** durable until flushed and fenced (modulo the write-back policy).
    pub fn write(&self, addr: PAddr, data: &[u8]) {
        self.check_bounds(addr, data.len());
        if self.is_frozen() {
            // The machine is off: the instruction never executes.
            return;
        }
        self.stats.record_store(data.len());
        self.memory.store(addr, data);
        match self.cfg.policy {
            WritebackPolicy::RandomEviction { probability, .. } => {
                let mut rng = self.eviction_rng.lock();
                for line in line_range(addr, data.len()) {
                    if rng.gen_bool(probability.clamp(0.0, 1.0))
                        && self.memory.write_back_cached(line)
                    {
                        self.stats.record_writeback(1);
                    }
                }
            }
            WritebackPolicy::OnlyOnFence | WritebackPolicy::EagerOnFlush => {}
        }
        self.tick_armed(ArmedKind::Stores);
    }

    /// Reads `buf.len()` bytes at `addr` (cache first, then durable contents).
    pub fn read(&self, addr: PAddr, buf: &mut [u8]) {
        self.check_bounds(addr, buf.len());
        self.stats.record_load();
        if self.is_frozen() {
            // Post-crash reads observe the durable image only.
            self.memory.read_durable(addr, buf);
        } else {
            self.memory.read(addr, buf);
        }
    }

    /// Reads `len` bytes at `addr` into a fresh vector.
    pub fn read_vec(&self, addr: PAddr, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.read(addr, &mut buf);
        buf
    }

    /// Reads the *durable* contents only — what a crash at this instant would
    /// preserve. Intended for tests and the recovery path.
    pub fn read_durable(&self, addr: PAddr, buf: &mut [u8]) {
        self.check_bounds(addr, buf.len());
        self.memory.read_durable(addr, buf);
    }

    /// Issues an asynchronous write-back (`clwb`-style flush) for the cache lines
    /// covering `[addr, addr+len)`. Free in the paper's cost model; the data is not
    /// guaranteed durable until a subsequent [`NvmRegion::fence`] by this thread.
    pub fn flush(&self, addr: PAddr, len: usize) {
        self.check_bounds(addr, len);
        if self.is_frozen() || len == 0 {
            return;
        }
        if !self.cfg.flush_penalty.is_zero() {
            spin_for(self.cfg.flush_penalty);
        }
        let lines = self.pending.with_mine(|pending| {
            // Capture the value the asynchronous write-back would persist. On
            // real hardware a clwb writes back the line contents at some point
            // between the flush and the next fence; capturing at flush time is
            // the *minimal* (most adversarial) guarantee.
            let mut lines = 0u64;
            for line in line_range(addr, len) {
                pending.insert(line, self.memory.snapshot_line(line));
                lines += 1;
            }
            lines
        });
        self.stats.record_flush(lines);
        if matches!(self.cfg.policy, WritebackPolicy::EagerOnFlush) {
            // Model the asynchronous write-back completing immediately. The pending
            // set is still kept so that the next fence counts as persistent.
            for line in line_range(addr, len) {
                if self.memory.write_back_cached(line) {
                    self.stats.record_writeback(1);
                }
            }
        }
        self.tick_armed(ArmedKind::Flushes);
    }

    /// Issues a fence: stalls until all of the calling thread's pending asynchronous
    /// write-backs complete. Returns `true` if this was a **persistent** fence
    /// (i.e. at least one flush was pending), which is the expensive case the paper
    /// counts.
    ///
    /// When a non-zero `fence_penalty` is configured, the drain latency is
    /// charged under the region's write-pending queue: persistent fences on the
    /// *same* region serialize (one WPQ per DIMM), persistent fences on
    /// *different* regions — e.g. per-shard pools — overlap. The stall blocks
    /// instead of spinning (for penalties long enough for the OS timer), so a
    /// host with fewer cores than worker threads still exhibits the modeled
    /// persistence concurrency; see [`PmemConfig::fence_penalty`].
    pub fn fence(&self) -> bool {
        self.fence_checked()
            .expect("sim fence hit an injected fault; use the fallible PmemBackend fence")
    }

    /// Fallible fence: like [`NvmRegion::fence`], but consults the configured
    /// [`crate::FaultPlan`] the way the file backend does — the per-thread
    /// drain counts as one pwrite event and one fsync event. A torn write
    /// persists only a prefix of the pending lines (sorted by address, so the
    /// prefix is seed-deterministic); permanent faults poison the region so
    /// later fences fail fast with the original cause.
    pub fn fence_checked(&self) -> Result<bool, NvmError> {
        if self.is_frozen() {
            return Ok(false);
        }
        if let Some(e) = self.poison.get() {
            return Err(e);
        }
        let fence_timer = self.fence_hist.start_timer();
        let mut fault: Result<(), NvmError> = Ok(());
        // Write-backs are applied while holding the (per-thread, uncontended)
        // pending lock; `flush` takes the same pending-then-shard lock order.
        let (persistent, lines) = self.pending.with_mine(|pending| {
            let lines = pending.len() as u64;
            if !self.cfg.fault_plan.is_armed() {
                for (line, contents) in pending.drain() {
                    self.memory.write_back(line, &contents);
                }
            } else {
                // Deterministic order so a torn prefix is replayable from the
                // plan's seed regardless of map iteration order.
                let mut drained: Vec<_> = pending.drain().collect();
                drained.sort_unstable_by_key(|(line, _)| *line);
                let total = drained.len();
                let keep = match self.cfg.fault_plan.on_pwrite(total) {
                    PwriteFault::None => total,
                    PwriteFault::Error { transient } => {
                        fault = Err(fault::injected_error(
                            std::path::Path::new("<sim>"),
                            transient,
                        ));
                        0
                    }
                    PwriteFault::Torn { keep } => {
                        fault = Err(fault::torn_error(
                            std::path::Path::new("<sim>"),
                            keep,
                            total,
                        ));
                        keep
                    }
                };
                for (line, contents) in drained.into_iter().take(keep) {
                    self.memory.write_back(line, &contents);
                }
                if fault.is_ok() {
                    if let FsyncFault::Error { transient } = self.cfg.fault_plan.on_fsync() {
                        fault = Err(fault::injected_error(
                            std::path::Path::new("<sim>"),
                            transient,
                        ));
                    }
                }
            }
            (lines > 0, lines)
        });
        if let Err(e) = fault {
            if !fault::error_is_transient(&e) {
                self.poison.set(&e);
            }
            return Err(e);
        }
        self.stats.record_fence(persistent, lines);
        if persistent && !self.cfg.fence_penalty.is_zero() {
            let wpq_timer = self.wpq_hist.start_timer();
            let _wpq = self.persist_queue.lock();
            block_for(self.cfg.fence_penalty);
            wpq_timer.stop();
        }
        if persistent {
            fence_timer.stop();
        }
        self.tick_armed(ArmedKind::Fences);
        Ok(persistent)
    }

    /// Convenience: write, flush and fence in one call (a "persist" of `data`).
    /// Costs exactly one persistent fence.
    pub fn persist(&self, addr: PAddr, data: &[u8]) {
        self.write(addr, data);
        self.flush(addr, data.len());
        self.fence();
    }

    /// Injects a full-system crash:
    ///
    /// 1. every *pending* flush (issued but not yet fenced, by any thread) is
    ///    applied to the durable store with the configured probability — an
    ///    asynchronous write-back may or may not have completed when power failed;
    /// 2. the volatile cache is discarded;
    /// 3. the region is frozen: persistence instructions issued by still-running
    ///    threads are ignored (they happen "after the machine lost power").
    ///
    /// Returns a [`CrashToken`] to be passed to [`NvmRegion::restart`].
    pub fn crash(&self) -> CrashToken {
        // Freeze first so concurrent operations stop having effects while we build
        // the durable image.
        self.frozen.store(true, Ordering::SeqCst);
        let prob = self.cfg.apply_pending_at_crash_probability;
        for (line, contents) in self.pending.drain_at_crash(prob) {
            self.memory.write_back(line, &contents);
        }
        self.memory.drop_cache();
        self.stats.record_crash();
        let mut count = self.crash_count.lock();
        *count += 1;
        CrashToken::new(*count)
    }

    /// Restarts the machine after a crash: the cache is empty, durable contents are
    /// whatever survived, and persistence instructions work again.
    pub fn restart(&self, token: CrashToken) {
        let count = self.crash_count.lock();
        assert_eq!(
            token.crash_index(),
            *count,
            "restart token does not match the most recent crash"
        );
        drop(count);
        self.disarm_crash();
        self.frozen.store(false, Ordering::SeqCst);
    }

    /// Number of crashes injected so far.
    pub fn crash_count(&self) -> u64 {
        *self.crash_count.lock()
    }

    /// Number of lines currently resident in the simulated cache (diagnostics).
    pub fn cached_lines(&self) -> usize {
        self.memory.cached_lines()
    }

    /// Number of lines with durable contents (diagnostics).
    pub fn durable_lines(&self) -> usize {
        self.memory.durable_lines()
    }

    /// Number of flushes issued by the calling thread that have not been fenced yet.
    pub fn my_pending_flushes(&self) -> usize {
        self.pending.with_mine(|pending| pending.len())
    }
}

// The simulator satisfies the backend contract trivially: it *is* the model
// the contract is phrased in. Inherent methods keep their richer signatures
// (e.g. diagnostics); the trait impl delegates.
impl PmemBackend for NvmRegion {
    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn capacity(&self) -> u64 {
        NvmRegion::capacity(self)
    }

    fn config(&self) -> &PmemConfig {
        NvmRegion::config(self)
    }

    fn stats(&self) -> &FenceStats {
        NvmRegion::stats(self)
    }

    fn write(&self, addr: PAddr, data: &[u8]) {
        NvmRegion::write(self, addr, data)
    }

    fn read(&self, addr: PAddr, buf: &mut [u8]) {
        NvmRegion::read(self, addr, buf)
    }

    fn read_durable(&self, addr: PAddr, buf: &mut [u8]) {
        NvmRegion::read_durable(self, addr, buf)
    }

    fn flush(&self, addr: PAddr, len: usize) {
        NvmRegion::flush(self, addr, len)
    }

    fn fence(&self) -> Result<bool, NvmError> {
        // The simulator has no real IO, but it honors injected faults: the
        // fallible path consults the configured `FaultPlan`. The inherent
        // `fence` keeps the plain-bool signature for direct users (and panics
        // if a fault strikes, pointing them here).
        NvmRegion::fence_checked(self)
    }

    fn crash(&self) -> CrashToken {
        NvmRegion::crash(self)
    }

    fn restart(&self, token: CrashToken) {
        NvmRegion::restart(self, token)
    }

    fn arm_crash(&self, trigger: CrashTrigger) {
        NvmRegion::arm_crash(self, trigger)
    }

    fn disarm_crash(&self) {
        NvmRegion::disarm_crash(self)
    }

    fn is_frozen(&self) -> bool {
        NvmRegion::is_frozen(self)
    }

    fn crash_count(&self) -> u64 {
        NvmRegion::crash_count(self)
    }

    fn my_pending_flushes(&self) -> usize {
        NvmRegion::my_pending_flushes(self)
    }
}

fn spin_for(d: std::time::Duration) {
    let start = std::time::Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Charges a modeled latency. Short penalties spin (sub-timer-resolution
/// precision); longer ones sleep so the stalled "core" yields the host CPU —
/// on machines with fewer cores than simulated processors, spinning would make
/// every pool's stall compete for the same core and serialize globally,
/// which is exactly the artifact that flattened the sharded scaling curve.
fn block_for(d: std::time::Duration) {
    const SLEEP_THRESHOLD: std::time::Duration = std::time::Duration::from_micros(10);
    if d >= SLEEP_THRESHOLD {
        std::thread::sleep(d);
    } else {
        spin_for(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> NvmRegion {
        NvmRegion::new(PmemConfig::with_capacity(1 << 20))
    }

    #[test]
    fn write_read_roundtrip() {
        let r = region();
        r.write(100, &[1, 2, 3, 4, 5]);
        assert_eq!(r.read_vec(100, 5), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_write_panics() {
        let r = NvmRegion::new(PmemConfig::with_capacity(64));
        r.write(60, &[0u8; 8]);
    }

    #[test]
    fn unfenced_write_is_lost_on_crash() {
        let r = region();
        r.write(0, &[7u8; 8]);
        let t = r.crash();
        r.restart(t);
        assert_eq!(r.read_vec(0, 8), vec![0u8; 8]);
    }

    #[test]
    fn flushed_and_fenced_write_survives_crash() {
        let r = region();
        r.write(0, &[7u8; 8]);
        r.flush(0, 8);
        let persistent = r.fence();
        assert!(persistent);
        let t = r.crash();
        r.restart(t);
        assert_eq!(r.read_vec(0, 8), vec![7u8; 8]);
    }

    #[test]
    fn fence_without_pending_flush_is_not_persistent() {
        let r = region();
        assert!(!r.fence());
        r.write(0, &[1]);
        assert!(!r.fence(), "write without flush leaves nothing pending");
        r.flush(0, 1);
        assert!(r.fence());
        assert_eq!(r.stats().persistent_fences(), 1);
        assert_eq!(r.stats().fences(), 3);
    }

    #[test]
    fn flush_pending_at_crash_never_applied_with_probability_zero() {
        let cfg = PmemConfig::with_capacity(1 << 20).apply_pending_at_crash(0.0);
        let r = NvmRegion::new(cfg);
        r.write(0, &[9u8; 8]);
        r.flush(0, 8);
        // No fence: pending flush must NOT be applied when probability is 0.
        let t = r.crash();
        r.restart(t);
        assert_eq!(r.read_vec(0, 8), vec![0u8; 8]);
    }

    #[test]
    fn flush_pending_at_crash_always_applied_with_probability_one() {
        let cfg = PmemConfig::with_capacity(1 << 20).apply_pending_at_crash(1.0);
        let r = NvmRegion::new(cfg);
        r.write(0, &[9u8; 8]);
        r.flush(0, 8);
        let t = r.crash();
        r.restart(t);
        assert_eq!(r.read_vec(0, 8), vec![9u8; 8]);
    }

    #[test]
    fn flush_captures_value_at_flush_time() {
        // A store after the flush must not be persisted by a subsequent fence of the
        // earlier flush (adversarial, minimal-guarantee semantics).
        let r = region();
        r.write(0, &[1u8; 8]);
        r.flush(0, 8);
        r.write(0, &[2u8; 8]);
        r.fence();
        let t = r.crash();
        r.restart(t);
        assert_eq!(r.read_vec(0, 8), vec![1u8; 8]);
    }

    #[test]
    fn eager_policy_makes_flush_durable_without_fence() {
        let cfg = PmemConfig::with_capacity(1 << 20)
            .policy(WritebackPolicy::EagerOnFlush)
            .apply_pending_at_crash(0.0);
        let r = NvmRegion::new(cfg);
        r.write(0, &[3u8; 4]);
        r.flush(0, 4);
        let t = r.crash();
        r.restart(t);
        assert_eq!(r.read_vec(0, 4), vec![3u8; 4]);
    }

    #[test]
    fn eager_policy_still_counts_persistent_fences() {
        let cfg = PmemConfig::with_capacity(1 << 20).policy(WritebackPolicy::EagerOnFlush);
        let r = NvmRegion::new(cfg);
        r.write(0, &[3u8; 4]);
        r.flush(0, 4);
        assert!(r.fence());
        assert_eq!(r.stats().persistent_fences(), 1);
    }

    #[test]
    fn random_eviction_can_persist_unflushed_stores() {
        let cfg = PmemConfig::with_capacity(1 << 20)
            .policy(WritebackPolicy::RandomEviction {
                probability: 1.0,
                seed: 42,
            })
            .apply_pending_at_crash(0.0);
        let r = NvmRegion::new(cfg);
        r.write(0, &[4u8; 4]);
        let t = r.crash();
        r.restart(t);
        assert_eq!(r.read_vec(0, 4), vec![4u8; 4]);
    }

    #[test]
    fn persist_helper_is_one_persistent_fence() {
        let r = region();
        let w = r.stats().op_window();
        r.persist(128, &[1, 2, 3]);
        let d = w.close();
        assert_eq!(d.persistent_fences, 1);
        assert_eq!(d.fences, 1);
        assert_eq!(d.flushes, 1);
    }

    #[test]
    fn operations_while_frozen_are_ignored() {
        let r = region();
        r.persist(0, &[1u8; 4]);
        let t = r.crash();
        // Writes after the crash must not have any effect nor be counted.
        let fences_before = r.stats().fences();
        r.write(0, &[9u8; 4]);
        r.flush(0, 4);
        r.fence();
        assert_eq!(r.stats().fences(), fences_before);
        r.restart(t);
        assert_eq!(r.read_vec(0, 4), vec![1u8; 4]);
    }

    #[test]
    fn armed_crash_fires_after_n_stores() {
        let r = region();
        r.arm_crash(CrashTrigger::AfterStores(2));
        r.write(0, &[1]);
        assert!(!r.is_frozen());
        r.write(1, &[2]);
        assert!(r.is_frozen());
        assert_eq!(r.crash_count(), 1);
    }

    #[test]
    fn armed_crash_on_any_event() {
        let r = region();
        r.arm_crash(CrashTrigger::AfterEvents(3));
        r.write(0, &[1]);
        r.flush(0, 1);
        assert!(!r.is_frozen());
        r.fence();
        assert!(r.is_frozen());
    }

    #[test]
    fn disarm_prevents_the_crash() {
        let r = region();
        r.arm_crash(CrashTrigger::AfterStores(1));
        r.disarm_crash();
        r.write(0, &[1]);
        assert!(!r.is_frozen());
    }

    #[test]
    #[should_panic(expected = "restart token")]
    fn restart_with_stale_token_panics() {
        let r = region();
        let t1 = r.crash();
        r.restart(t1);
        let _t2 = r.crash();
        // Build a forged stale token.
        let stale = CrashToken::new(1);
        r.restart(stale);
    }

    #[test]
    fn fences_by_different_threads_are_independent() {
        let r = std::sync::Arc::new(region());
        r.write(0, &[1u8; 8]);
        r.flush(0, 8);
        // Another thread's fence does not drain this thread's pending flushes.
        let r2 = r.clone();
        std::thread::spawn(move || {
            assert!(!r2.fence());
        })
        .join()
        .unwrap();
        assert_eq!(r.my_pending_flushes(), 1);
        assert!(r.fence());
    }

    #[test]
    fn concurrent_writers_to_disjoint_lines() {
        let r = std::sync::Arc::new(region());
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                let addr = i * 64;
                r.write(addr, &[i as u8 + 1; 64]);
                r.flush(addr, 64);
                r.fence();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let t = r.crash();
        r.restart(t);
        for i in 0..4u64 {
            assert_eq!(r.read_vec(i * 64, 64), vec![i as u8 + 1; 64]);
        }
        assert_eq!(r.stats().persistent_fences(), 4);
    }

    #[test]
    fn read_durable_view_ignores_cache() {
        let r = region();
        r.persist(0, &[1u8; 4]);
        r.write(0, &[2u8; 4]);
        let mut buf = [0u8; 4];
        r.read_durable(0, &mut buf);
        assert_eq!(buf, [1u8; 4]);
        let mut buf2 = [0u8; 4];
        r.read(0, &mut buf2);
        assert_eq!(buf2, [2u8; 4]);
    }
}
