//! A process may start any number of threads over its lifetime, and run more
//! threads at once than there are per-thread slots, without losing fence
//! accounting or durability — on both backends.
//!
//! Each fence drains exactly the calling thread's flushes (the paper's
//! per-process fence), so every thread's one flush + fence must be one
//! persistent fence, and its line must survive a crash.

use nvm_sim::{BackendSpec, NvmPool, PAddr, PmemConfig, ScratchDir, CACHE_LINE_SIZE};
use onll_telemetry::MAX_SLOTS;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A pool on `spec` with `lines` zeroed cache lines allocated for the
/// threads; pending flushes never survive a crash, so only fenced data does.
fn pool_with_lines(spec: &BackendSpec, lines: usize) -> (NvmPool, PAddr) {
    let cfg = PmemConfig::with_capacity(4 << 20).apply_pending_at_crash(0.0);
    let pool = NvmPool::provision(spec, cfg, "many-threads").unwrap();
    let base = pool.alloc(lines * CACHE_LINE_SIZE).unwrap();
    (pool, base)
}

fn line_of(base: PAddr, i: usize) -> PAddr {
    base + (i * CACHE_LINE_SIZE) as PAddr
}

/// Thread `i`'s write: one flushed line, then one fence.
fn write_flush_fence(pool: &NvmPool, base: PAddr, i: usize) -> bool {
    pool.write_u64(line_of(base, i), i as u64 + 1);
    pool.flush(line_of(base, i), 8);
    pool.fence().unwrap()
}

fn assert_all_durable(pool: &NvmPool, base: PAddr, n: usize) {
    pool.crash_and_restart();
    for i in 0..n {
        assert_eq!(
            pool.read_u64(line_of(base, i)),
            i as u64 + 1,
            "thread {i}'s fenced write was lost"
        );
    }
}

/// Waits until `n` threads have arrived. Unlike `std::sync::Barrier` it
/// gives up after a minute, so a thread that panicked before arriving fails
/// the test instead of hanging it.
fn rendezvous(arrived: &AtomicUsize, n: usize) {
    arrived.fetch_add(1, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(60);
    while arrived.load(Ordering::SeqCst) < n {
        assert!(Instant::now() < deadline, "a thread never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn thousand_short_lived_threads(spec: &BackendSpec) {
    const THREADS: usize = 1000;
    let (pool, base) = pool_with_lines(spec, THREADS);
    let before = pool.stats().persistent_fences();
    // Waves of a few live threads at a time, so exited threads' slots are
    // leased again many times over.
    for wave in 0..THREADS / 8 {
        std::thread::scope(|s| {
            for i in wave * 8..(wave + 1) * 8 {
                let pool = &pool;
                s.spawn(move || {
                    assert!(write_flush_fence(pool, base, i), "fence {i} not persistent");
                    assert_eq!(pool.backend().my_pending_flushes(), 0);
                });
            }
        });
    }
    assert_eq!(pool.stats().persistent_fences() - before, THREADS as u64);
    assert_all_durable(&pool, base, THREADS);
}

/// More live threads than slots: some share a slot, and each sharer's fence
/// must drain its own line and no other.
fn more_live_threads_than_slots(spec: &BackendSpec) {
    const THREADS: usize = 300;
    const { assert!(THREADS > MAX_SLOTS) };
    let (pool, base) = pool_with_lines(spec, THREADS);
    let before = pool.stats().persistent_fences();
    let (leased, flushed) = (AtomicUsize::new(0), AtomicUsize::new(0));
    std::thread::scope(|s| {
        for i in 0..THREADS {
            let (pool, leased, flushed) = (&pool, &leased, &flushed);
            s.spawn(move || {
                // Every thread leases (or shares) a slot while all are alive.
                assert_eq!(pool.backend().my_pending_flushes(), 0);
                rendezvous(leased, THREADS);
                pool.write_u64(line_of(base, i), i as u64 + 1);
                pool.flush(line_of(base, i), 8);
                // All 300 threads now have one line pending at once.
                rendezvous(flushed, THREADS);
                assert_eq!(pool.backend().my_pending_flushes(), 1);
                assert!(pool.fence().unwrap(), "fence {i} not persistent");
                assert_eq!(pool.backend().my_pending_flushes(), 0);
            });
        }
    });
    assert_eq!(pool.stats().persistent_fences() - before, THREADS as u64);
    assert_all_durable(&pool, base, THREADS);
}

#[test]
fn thousand_short_lived_threads_sim() {
    thousand_short_lived_threads(&BackendSpec::Sim);
}

#[test]
fn thousand_short_lived_threads_file() {
    let dir = ScratchDir::new("many-threads").unwrap();
    thousand_short_lived_threads(&BackendSpec::file(dir.path()));
}

#[test]
fn more_live_threads_than_slots_sim() {
    more_live_threads_than_slots(&BackendSpec::Sim);
}

#[test]
fn more_live_threads_than_slots_file() {
    let dir = ScratchDir::new("many-threads-shared").unwrap();
    more_live_threads_than_slots(&BackendSpec::file(dir.path()));
}

#[test]
fn exiting_threads_thread_locals_may_still_fence() {
    // A thread-local whose destructor persists data runs after the thread's
    // slot lease is returned. It must not panic (which would abort the
    // process), its fence must be persistent, and its line durable.
    static PERSISTENT: AtomicUsize = AtomicUsize::new(0);
    struct PersistOnExit(Arc<NvmPool>, PAddr);
    impl Drop for PersistOnExit {
        fn drop(&mut self) {
            if write_flush_fence(&self.0, self.1, 0) {
                PERSISTENT.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    thread_local!(static ON_EXIT: std::cell::RefCell<Option<PersistOnExit>> = const {
        std::cell::RefCell::new(None)
    });
    let (pool, base) = pool_with_lines(&BackendSpec::Sim, 1);
    let pool = Arc::new(pool);
    let p = pool.clone();
    std::thread::spawn(move || {
        ON_EXIT.with(|slot| *slot.borrow_mut() = Some(PersistOnExit(p.clone(), base)));
        p.stats().my_persistent_fences(); // lease a slot after ON_EXIT exists
    })
    .join()
    .unwrap();
    assert_eq!(PERSISTENT.load(Ordering::SeqCst), 1);
    assert_all_durable(&pool, base, 1);
}
