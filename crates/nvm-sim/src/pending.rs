//! Flushed-but-unfenced cache lines per issuing thread, for both backends.
//! Sharers of one [`PerSlot`] slot keep entries keyed by `ThreadId`, so a
//! fence drains, and waits for, only its own thread's lines.

use crate::cache::{Line, LineMap};
use onll_telemetry::{current_slot, PerSlot};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::thread::ThreadId;

pub(crate) struct PendingFlushes {
    slots: PerSlot<Mutex<Vec<(ThreadId, LineMap)>>>,
    /// Decides which pending write-backs complete before a crash.
    crash_rng: Mutex<StdRng>,
}

impl PendingFlushes {
    pub(crate) fn new(crash_seed: u64) -> Self {
        PendingFlushes {
            slots: PerSlot::default(),
            crash_rng: Mutex::new(StdRng::seed_from_u64(crash_seed)),
        }
    }

    /// Runs `f` on the calling thread's pending lines (line index -> contents
    /// captured at flush time), under the lock of its slot.
    pub(crate) fn with_mine<R>(&self, f: impl FnOnce(&mut LineMap) -> R) -> R {
        let me = current_slot();
        let mut entries = self.slots.get(me.index).lock();
        // This thread's entry, else an empty one (an exited thread's, or a
        // sharer's with nothing pending, who takes another later), else new.
        let i = entries
            .iter()
            .position(|(t, _)| *t == me.thread)
            .or_else(|| entries.iter().position(|(_, lines)| lines.is_empty()))
            .unwrap_or_else(|| {
                entries.push((me.thread, LineMap::default()));
                entries.len() - 1
            });
        entries[i].0 = me.thread;
        f(&mut entries[i].1)
    }

    /// A crash: drains every thread's pending lines and returns, sorted by
    /// line, those whose asynchronous write-back completed before power
    /// failed, each independently with probability `p`.
    pub(crate) fn drain_at_crash(&self, p: f64) -> Vec<(u64, Line)> {
        let p = p.clamp(0.0, 1.0);
        let mut rng = self.crash_rng.lock();
        let mut completed = Vec::new();
        for slot in self.slots.iter() {
            for (_, lines) in slot.lock().iter_mut() {
                completed.extend(
                    lines
                        .drain()
                        .filter(|_| p >= 1.0 || (p > 0.0 && rng.gen_bool(p))),
                );
            }
        }
        completed.sort_unstable_by_key(|(line, _)| *line);
        completed
    }
}
