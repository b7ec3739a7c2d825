//! The workspace's one per-thread slot allocator, and [`PerSlot`], the padded
//! per-slot array every per-thread structure is built on. While at most
//! [`MAX_SLOTS`] threads are alive each owns its slot; beyond that, threads
//! share slots rather than fail, so per-slot structures must stay correct
//! under sharing: atomic sums do, and others key by [`ThreadSlot::thread`].

use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::ThreadId;

/// Number of slots in every [`PerSlot`].
pub const MAX_SLOTS: usize = 256;

/// Bit `i` is set while a thread owns slot `i`. Returning a slot is a
/// `Release` and leasing it an `Acquire`, so a slot's next holder sees every
/// relaxed write its previous holder made to per-slot values.
static LEASED: [AtomicU64; MAX_SLOTS / 64] = [const { AtomicU64::new(0) }; MAX_SLOTS / 64];
static LEASES: AtomicU64 = AtomicU64::new(1);

/// The calling thread's place in every [`PerSlot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSlot {
    /// Index into every [`PerSlot`]; the thread's own while at most
    /// [`MAX_SLOTS`] threads are alive.
    pub index: usize,
    /// The thread, which tells apart the sharers of one slot.
    pub thread: ThreadId,
    /// Serial number of this lease, never reused: tells a slot's holder from
    /// the exited threads that held it before.
    pub lease: u64,
}

impl ThreadSlot {
    /// The calling thread in slot `index`, else in its shared slot.
    fn new(index: Option<usize>) -> Self {
        let thread = std::thread::current().id();
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        ThreadSlot {
            index: index.unwrap_or_else(|| hasher.hash_one(thread) as usize % MAX_SLOTS),
            thread,
            lease: LEASES.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// A thread's slot; dropped at thread exit, which returns an owned slot.
struct Lease {
    slot: ThreadSlot,
    owned: bool,
}

impl Lease {
    fn take() -> Lease {
        let lowest_free = |bits: u64| (!bits).trailing_zeros() as usize;
        let owned = LEASED.iter().enumerate().find_map(|(w, word)| {
            word.fetch_update(Ordering::Acquire, Ordering::Relaxed, |bits| {
                (bits != u64::MAX).then(|| bits | 1 << lowest_free(bits))
            })
            .ok()
            .map(|bits| w * 64 + lowest_free(bits))
        });
        Lease {
            slot: ThreadSlot::new(owned),
            owned: owned.is_some(),
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if self.owned {
            let i = self.slot.index;
            LEASED[i / 64].fetch_and(!(1 << (i % 64)), Ordering::Release);
        }
    }
}

thread_local! {
    static LEASE: Lease = Lease::take();
}

/// The calling thread's slot: the lowest free one, leased on first use and
/// returned when the thread exits, or a shared one (its id's hash) when none
/// is free. Code run while the thread's thread-locals are destroyed, after
/// the lease is returned, also gets the shared one; it never panics.
#[inline]
pub fn current_slot() -> ThreadSlot {
    LEASE
        .try_with(|lease| lease.slot)
        .unwrap_or_else(|_| ThreadSlot::new(None))
}

#[repr(align(128))]
struct Padded<T>(T);

/// One `T` per slot, each on its own cache lines so threads writing their
/// own slots never share a line.
pub struct PerSlot<T> {
    slots: Box<[Padded<T>]>,
}

impl<T: Default> Default for PerSlot<T> {
    fn default() -> Self {
        PerSlot {
            slots: (0..MAX_SLOTS).map(|_| Padded(T::default())).collect(),
        }
    }
}

impl<T> PerSlot<T> {
    /// The value of slot `index`.
    #[inline]
    pub fn get(&self, index: usize) -> &T {
        &self.slots[index].0
    }

    /// The calling thread's value.
    #[inline]
    pub fn mine(&self) -> &T {
        self.get(current_slot().index)
    }

    /// Every slot's value, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().map(|p| &p.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Mutex};

    /// Serializes the tests that count slots: one holding every slot would
    /// make another's threads share.
    static SLOT_COUNTING: Mutex<()> = Mutex::new(());

    /// The slots of `n` threads that are all alive at once.
    fn slots_of_live_threads(n: usize) -> Vec<ThreadSlot> {
        let barrier = Barrier::new(n);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    s.spawn(|| {
                        let slot = current_slot();
                        barrier.wait();
                        slot
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn slot_is_stable_within_a_thread() {
        assert_eq!(current_slot(), current_slot());
    }

    #[test]
    fn live_threads_get_distinct_slots_in_range() {
        let _serial = SLOT_COUNTING.lock().unwrap();
        let mut slots: Vec<usize> = slots_of_live_threads(16).iter().map(|s| s.index).collect();
        assert!(slots.iter().all(|&s| s < MAX_SLOTS));
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 16);
    }

    #[test]
    fn slot_is_reused_after_its_thread_exits() {
        let _serial = SLOT_COUNTING.lock().unwrap();
        // Threads of concurrently running tests may take the freed index
        // first; retry until a successor lands on its predecessor's index.
        let reused = (0..1000).any(|_| {
            let first = std::thread::spawn(current_slot).join().unwrap();
            let second = std::thread::spawn(current_slot).join().unwrap();
            assert_ne!(first.thread, second.thread);
            assert_ne!(first.lease, second.lease);
            first.index == second.index
        });
        assert!(reused, "an exited thread's slot was never leased again");
    }

    #[test]
    fn more_live_threads_than_slots_share_in_range() {
        let _serial = SLOT_COUNTING.lock().unwrap();
        let n = MAX_SLOTS + 44;
        let slots = slots_of_live_threads(n);
        assert!(slots.iter().all(|s| s.index < MAX_SLOTS));
        let mut leases: Vec<u64> = slots.iter().map(|s| s.lease).collect();
        leases.sort_unstable();
        leases.dedup();
        assert_eq!(leases.len(), n, "every thread gets its own lease serial");
    }

    #[test]
    fn thread_local_teardown_falls_back_to_a_shared_slot() {
        // Asserting inside a thread-local destructor would abort the process,
        // so the destructor reports and the test thread checks.
        static SEEN: Mutex<Vec<ThreadSlot>> = Mutex::new(Vec::new());
        struct TouchOnExit;
        impl Drop for TouchOnExit {
            fn drop(&mut self) {
                let mut seen = SEEN.lock().unwrap();
                seen.push(current_slot());
                seen.push(current_slot());
            }
        }
        thread_local!(static LATE: TouchOnExit = const { TouchOnExit });
        let leased = std::thread::spawn(|| {
            // Thread-locals are destroyed in reverse order of first use, so
            // `LATE` outlives the lease and its destructor sees it gone.
            LATE.with(|_| ());
            current_slot()
        })
        .join()
        .unwrap();
        let seen = SEEN.lock().unwrap();
        let [a, b] = seen[..] else {
            panic!("destructor saw {seen:?}")
        };
        assert!(a.index < MAX_SLOTS);
        assert_eq!((a.thread, a.index), (b.thread, b.index), "one shared slot");
        assert_eq!(a.thread, leased.thread);
        assert_ne!(a.lease, leased.lease, "the lease was already returned");
    }
}
