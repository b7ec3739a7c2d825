//! A file-backed [`PmemBackend`]: real durability via `pwrite` + `fsync`.
//!
//! The cost model maps onto a plain file as follows:
//!
//! * **Stores** land in a process-local image (the "cache") — a `SIGKILL`ed
//!   process loses them, exactly like power loss clears a CPU cache.
//! * **Flushes** capture the affected cache lines at flush time (the same
//!   minimal guarantee as the simulator) and mark them pending write-back.
//! * **Fences** drain the calling thread's pending lines with `pwrite` and
//!   issue one `fsync` — the real-hardware analogue of draining write-backs.
//!   A fence with nothing pending issues no syscall and is not persistent.
//! * **Crash/restart** (simulated) freeze the backend, optionally apply
//!   pending flushes with the configured probability, and reload the image
//!   from the file — while a *real* crash (process death) needs no simulation:
//!   whatever was fenced is in the file, and [`FileBackend::open`] recovers it.
//!
//! What is real and what is simulated: a fenced line survives **process
//! death** unconditionally (it was `fsync`ed). Lines written back *without* a
//! fence (eager/eviction policies, or pending flushes applied at a simulated
//! crash) reach the OS page cache and therefore also survive process death,
//! but only the `fsync` behind a persistent fence would survive power loss —
//! the same distinction the simulator draws between the volatile cache and
//! the durable store.
//!
//! # Storage modes
//!
//! A backend either owns a private file ([`FileBackend::create`] /
//! [`FileBackend::open`]) or occupies a segment of a shared
//! [`PersistDevice`](crate::PersistDevice)
//! ([`FileBackend::create_on_device`] / [`FileBackend::open_on_device`]).
//! On a device, `fence` enqueues into the device's group-commit queue instead
//! of issuing a private fsync, so concurrent fences from many pools coalesce
//! into one durability point — see the `device` module docs for the
//! completion rule.
//!
//! # Error handling
//!
//! The first pwrite/fsync failure (full disk, EIO) **poisons** the backend:
//! the failing fence returns the typed [`NvmError::Io`] and every later fence
//! fails fast with the same cause, so the caller can surface it instead of
//! the process aborting mid-test. Read-path failures (pread at recovery) are
//! still fatal — there is no volatile fallback to serve reads from.

use crate::armed::{ArmedCrash, ArmedKind};
use crate::backend::PmemBackend;
use crate::cache::Line;
use crate::device::{sync_file, write_lines_at, PersistDevice, Poison};
use crate::error::NvmError;
use crate::fault::{self, AbortPoint, FaultPlan};
use crate::layout::{line_range, PAddr, CACHE_LINE_SIZE};
use crate::pending::PendingFlushes;
use crate::policy::{PmemConfig, WritebackPolicy};
use crate::region::{CrashToken, CrashTrigger};
use crate::stats::FenceStats;
use onll_telemetry::Histogram;
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

pub(crate) use crate::device::io_err;

/// Makes `path`'s directory entry durable by fsyncing its parent directory
/// (a no-op on platforms where directories cannot be opened for syncing).
pub(crate) fn sync_parent_dir(path: &Path) -> Result<(), NvmError> {
    #[cfg(unix)]
    {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                let dir = File::open(parent).map_err(|e| io_err(parent, e))?;
                dir.sync_all().map_err(|e| io_err(parent, e))?;
            }
        }
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Where a backend's durable bytes live: a private file, or a segment of a
/// shared group-commit device.
enum Store {
    Own {
        /// The backing file; all IO seeks under this lock.
        file: Mutex<File>,
        poison: Poison,
    },
    Device {
        device: PersistDevice,
        /// This backend's segment base within the device file.
        base: u64,
    },
}

/// A [`PmemBackend`] backed by a regular file (see the module docs for the
/// mapping of the cost model onto file IO and the two storage modes).
pub struct FileBackend {
    cfg: PmemConfig,
    path: PathBuf,
    store: Store,
    /// The process-local image of the whole pool — the "cache". Lost on
    /// process death; rebuilt from the file by [`FileBackend::open`].
    image: RwLock<Box<[u8]>>,
    /// Per-thread pending flushes: line index -> contents captured at flush.
    pending: PendingFlushes,
    stats: FenceStats,
    frozen: AtomicBool,
    armed: ArmedCrash,
    eviction_rng: Mutex<StdRng>,
    crash_count: Mutex<u64>,
    /// Device work of a persistent fence — pwrites + fsync, measured *after*
    /// the file lock is held ("file.fence_ns"). Lock-wait is deliberately
    /// excluded: under contention it measures the convoy, not the device
    /// (that component is "file.lock_wait_ns" / "device.queue_wait_ns").
    fence_hist: Histogram,
    /// Wall time of the `fsync` alone ("file.fsync_ns") — the real durability
    /// barrier, and the quantity fsync-coalescing work needs distributions of.
    fsync_hist: Histogram,
    /// Time spent waiting for the file lock before a fence's IO starts
    /// ("file.lock_wait_ns") — own-file mode's convoy component.
    lock_wait_hist: Histogram,
    /// The config's scheduled IO faults (and the [`crate::DEVICE_ABORT_ENV`]
    /// abort shim), consulted by every own-file IO; device-mode fences consult
    /// the shared [`PersistDevice`]'s plan instead.
    faults: FaultPlan,
}

impl FileBackend {
    /// Creates (or truncates) the backing file at `path` and returns a fresh,
    /// all-zero backend of `cfg.capacity` bytes.
    pub fn create(path: impl Into<PathBuf>, cfg: PmemConfig) -> Result<Self, NvmError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err(&path, e))?;
            }
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        file.set_len(cfg.capacity).map_err(|e| io_err(&path, e))?;
        // fsync of the pool file alone does not make the *directory entry*
        // durable: without syncing the parent directory, a power loss right
        // after creation can forget the file existed — and with it every
        // subsequently fenced line. Process death does not need this; power
        // loss does, and the module docs promise it.
        sync_parent_dir(&path)?;
        let image = vec![0u8; cfg.capacity as usize].into_boxed_slice();
        Ok(Self::from_parts(path, Store::own(file), image, cfg))
    }

    /// Opens an existing backing file, loading its durable contents into the
    /// process-local image — the recovery entry point after a process restart.
    pub fn open(path: impl Into<PathBuf>, cfg: PmemConfig) -> Result<Self, NvmError> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        // Tolerate a file shorter than the configured capacity (e.g. created
        // with a smaller config): the missing tail reads as zero, like the
        // simulator's untouched lines.
        let disk_len = file.metadata().map_err(|e| io_err(&path, e))?.len();
        if disk_len < cfg.capacity {
            file.set_len(cfg.capacity).map_err(|e| io_err(&path, e))?;
        }
        let mut image = vec![0u8; cfg.capacity as usize];
        file.seek(SeekFrom::Start(0))
            .map_err(|e| io_err(&path, e))?;
        file.read_exact(&mut image).map_err(|e| io_err(&path, e))?;
        Ok(Self::from_parts(
            path,
            Store::own(file),
            image.into_boxed_slice(),
            cfg,
        ))
    }

    /// Creates a fresh, all-zero backend occupying segment `label` of the
    /// shared `device`. Fences coalesce with every other pool on the device.
    pub fn create_on_device(
        device: &PersistDevice,
        label: &str,
        cfg: PmemConfig,
    ) -> Result<Self, NvmError> {
        let base = device.create_segment(label, cfg.capacity)?;
        let image = vec![0u8; cfg.capacity as usize].into_boxed_slice();
        let path = device.path().to_path_buf();
        let store = Store::Device {
            device: device.clone(),
            base,
        };
        Ok(Self::from_parts(path, store, image, cfg))
    }

    /// Reopens segment `label` of the shared `device`, loading its durable
    /// contents — the recovery entry point for device-resident pools.
    pub fn open_on_device(
        device: &PersistDevice,
        label: &str,
        cfg: PmemConfig,
    ) -> Result<Self, NvmError> {
        let base = device.open_segment(label, cfg.capacity)?;
        let mut image = vec![0u8; cfg.capacity as usize];
        device.read_at(base, 0, &mut image)?;
        let path = device.path().to_path_buf();
        let store = Store::Device {
            device: device.clone(),
            base,
        };
        Ok(Self::from_parts(path, store, image.into_boxed_slice(), cfg))
    }

    fn from_parts(path: PathBuf, store: Store, image: Box<[u8]>, cfg: PmemConfig) -> Self {
        let eviction_seed = match cfg.policy {
            WritebackPolicy::RandomEviction { seed, .. } => seed,
            _ => cfg.crash_seed ^ 0x9E3779B97F4A7C15,
        };
        let faults = cfg.fault_plan.clone();
        faults.bind_telemetry(&cfg.telemetry);
        faults.arm_abort_from_env();
        FileBackend {
            path,
            store,
            image: RwLock::new(image),
            pending: PendingFlushes::new(cfg.crash_seed),
            stats: FenceStats::new(),
            frozen: AtomicBool::new(false),
            armed: ArmedCrash::new(),
            eviction_rng: Mutex::new(StdRng::seed_from_u64(eviction_seed)),
            crash_count: Mutex::new(0),
            fence_hist: cfg.telemetry.histogram("file.fence_ns"),
            fsync_hist: cfg.telemetry.histogram("file.fsync_ns"),
            lock_wait_hist: cfg.telemetry.histogram("file.lock_wait_ns"),
            faults,
            cfg,
        }
    }

    /// The backing file's path (the device file's path in device mode).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True when this backend's fences ride a shared device's group commit.
    pub fn is_coalesced(&self) -> bool {
        matches!(self.store, Store::Device { .. })
    }

    /// Fail the next `n` pwrites with a permanent (poisoning) synthetic EIO —
    /// a thin wrapper over the backend's [`FaultPlan`] (own-file mode injects
    /// on this backend's plan, device mode on the shared device's).
    pub fn inject_pwrite_errors(&self, n: u32) {
        match &self.store {
            Store::Own { .. } => self.faults.fail_next_pwrites(n as u64),
            Store::Device { device, .. } => device.inject_pwrite_errors(n),
        }
    }

    /// Fail the next `n` fsyncs with a permanent (poisoning) synthetic EIO.
    pub fn inject_fsync_errors(&self, n: u32) {
        match &self.store {
            Store::Own { .. } => self.faults.fail_next_fsyncs(n as u64),
            Store::Device { device, .. } => device.inject_fsync_errors(n),
        }
    }

    /// The fault plan this backend's own-file IO consults (device-mode fences
    /// consult [`PersistDevice::fault_plan`] instead).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    fn poison(&self) -> &Poison {
        match &self.store {
            Store::Own { poison, .. } => poison,
            Store::Device { device, .. } => device.poison(),
        }
    }

    fn check_bounds(&self, addr: PAddr, len: usize) {
        assert!(
            addr.checked_add(len as u64)
                .is_some_and(|end| end <= self.cfg.capacity),
            "NVM access out of bounds: addr={addr:#x} len={len} capacity={:#x}",
            self.cfg.capacity
        );
    }

    /// Asynchronous write-back (eviction/eager policies): reaches the page
    /// cache, no fsync, no durability promise. On IO failure the lines simply
    /// stay volatile — a permanent error is remembered so the next fence
    /// surfaces it; a transient injected fault costs only this write-back.
    fn write_back(&self, lines: &[(u64, Line)]) {
        if lines.is_empty() {
            return;
        }
        let result = match &self.store {
            Store::Own { file, .. } => {
                let mut file = file.lock();
                write_lines_at(&mut file, &self.path, 0, lines, &self.faults)
            }
            Store::Device { device, base } => device.write_now(*base, lines),
        };
        match result {
            Ok(()) => self.stats.record_writeback(lines.len() as u64),
            Err(e) => {
                if !fault::error_is_transient(&e) {
                    self.poison().set(&e);
                }
            }
        }
    }

    /// Captures line `line` from the current image.
    fn snapshot_line(&self, line: u64) -> Line {
        let image = self.image.read();
        let start = (line * CACHE_LINE_SIZE as u64) as usize;
        let end = (start + CACHE_LINE_SIZE).min(image.len());
        let mut out = [0u8; CACHE_LINE_SIZE];
        out[..end - start].copy_from_slice(&image[start..end]);
        out
    }

    /// The durability point of a persistent fence: pwrites + one fsync
    /// (own-file mode), or a ride on the device's group commit.
    fn fence_io(&self, drained: Vec<(u64, Line)>) -> Result<(), NvmError> {
        match &self.store {
            Store::Own { file, poison } => {
                let lock_timer = self.lock_wait_hist.start_timer();
                let mut file = file.lock();
                lock_timer.stop();
                let fence_timer = self.fence_hist.start_timer();
                let result = write_lines_at(&mut file, &self.path, 0, &drained, &self.faults)
                    .and_then(|_| {
                        // Same abort points as the device's group commit,
                        // so the kill-9 matrix can arm crashes inside the
                        // pwrite→fsync window on private files too.
                        self.faults.abort_tick(AbortPoint::AfterPwrites);
                        // The real durability barrier: the fence is not
                        // done until the kernel confirms the data reached
                        // stable storage.
                        let fsync_timer = self.fsync_hist.start_timer();
                        let r = sync_file(&file, &self.path, &self.faults);
                        fsync_timer.stop();
                        r?;
                        self.faults.abort_tick(AbortPoint::AfterFsync);
                        Ok(())
                    });
                fence_timer.stop();
                if let Err(e) = &result {
                    // A transient injected fault fails this fence but not the
                    // backend: the device "recovered", later fences succeed.
                    if !fault::error_is_transient(e) {
                        poison.set(e);
                    }
                }
                result
            }
            Store::Device { device, base } => device.submit_fence(*base, drained),
        }
    }

    /// Immediate pwrite+fsync outside any queue — the simulated-crash settle
    /// path (must not park on a possibly-poisoned commit queue).
    fn settle_now(&self, lines: &[(u64, Line)]) {
        let result = match &self.store {
            Store::Own { file, .. } => {
                let mut file = file.lock();
                write_lines_at(&mut file, &self.path, 0, lines, &self.faults)
                    .and_then(|_| sync_file(&file, &self.path, &self.faults))
            }
            Store::Device { device, base } => device.persist_now(*base, lines),
        };
        if let Err(e) = result {
            if !fault::error_is_transient(&e) {
                self.poison().set(&e);
            }
        }
    }
}

impl Store {
    fn own(file: File) -> Store {
        Store::Own {
            file: Mutex::new(file),
            poison: Poison::default(),
        }
    }
}

impl PmemBackend for FileBackend {
    fn backend_name(&self) -> &'static str {
        "file"
    }

    fn capacity(&self) -> u64 {
        self.cfg.capacity
    }

    fn config(&self) -> &PmemConfig {
        &self.cfg
    }

    fn stats(&self) -> &FenceStats {
        &self.stats
    }

    fn write(&self, addr: PAddr, data: &[u8]) {
        self.check_bounds(addr, data.len());
        if self.is_frozen() {
            return;
        }
        self.stats.record_store(data.len());
        {
            let mut image = self.image.write();
            image[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        }
        if let WritebackPolicy::RandomEviction { probability, .. } = self.cfg.policy {
            // Model spontaneous cache eviction: the line reaches the file (OS
            // page cache) early, without an fsync.
            let mut evicted = Vec::new();
            {
                let mut rng = self.eviction_rng.lock();
                for line in line_range(addr, data.len()) {
                    if rng.gen_bool(probability.clamp(0.0, 1.0)) {
                        evicted.push(line);
                    }
                }
            }
            if !evicted.is_empty() {
                let lines: Vec<(u64, Line)> = evicted
                    .into_iter()
                    .map(|l| (l, self.snapshot_line(l)))
                    .collect();
                self.write_back(&lines);
            }
        }
        self.armed.tick(ArmedKind::Stores, || {
            let _ = self.crash();
        });
    }

    fn read(&self, addr: PAddr, buf: &mut [u8]) {
        self.check_bounds(addr, buf.len());
        self.stats.record_load();
        if self.is_frozen() {
            // Post-crash reads observe the durable (on-disk) image only.
            self.read_durable_inner(addr, buf);
        } else {
            let image = self.image.read();
            buf.copy_from_slice(&image[addr as usize..addr as usize + buf.len()]);
        }
    }

    fn read_durable(&self, addr: PAddr, buf: &mut [u8]) {
        self.check_bounds(addr, buf.len());
        self.read_durable_inner(addr, buf);
    }

    fn flush(&self, addr: PAddr, len: usize) {
        self.check_bounds(addr, len);
        if self.is_frozen() || len == 0 {
            return;
        }
        // Capture at flush time: stores issued after this flush must not ride
        // along (contract item 2).
        let captured: Vec<(u64, Line)> = line_range(addr, len)
            .map(|line| (line, self.snapshot_line(line)))
            .collect();
        self.pending
            .with_mine(|pending| pending.extend(captured.iter().copied()));
        self.stats.record_flush(captured.len() as u64);
        if matches!(self.cfg.policy, WritebackPolicy::EagerOnFlush) {
            // The asynchronous write-back completes immediately (no fsync);
            // the pending set is kept so the next fence counts as persistent.
            self.write_back(&captured);
        }
        self.armed.tick(ArmedKind::Flushes, || {
            let _ = self.crash();
        });
    }

    fn fence(&self) -> Result<bool, NvmError> {
        if self.is_frozen() {
            return Ok(false);
        }
        if let Some(e) = self.poison().get() {
            // An earlier IO failure: fail fast with the original cause rather
            // than pretending the new bytes could become durable.
            return Err(e);
        }
        let mut drained: Vec<(u64, Line)> = self.pending.with_mine(|p| p.drain().collect());
        drained.sort_unstable_by_key(|(l, _)| *l);
        let persistent = !drained.is_empty();
        let lines = drained.len() as u64;
        if persistent {
            self.fence_io(drained)?;
        }
        self.stats.record_fence(persistent, lines);
        self.armed.tick(ArmedKind::Fences, || {
            let _ = self.crash();
        });
        Ok(persistent)
    }

    fn crash(&self) -> CrashToken {
        // Freeze first so concurrent operations stop having effects while we
        // settle the durable image.
        self.frozen.store(true, Ordering::SeqCst);
        let applied = self
            .pending
            .drain_at_crash(self.cfg.apply_pending_at_crash_probability);
        if !applied.is_empty() {
            self.settle_now(&applied);
        }
        self.stats.record_crash();
        let mut count = self.crash_count.lock();
        *count += 1;
        CrashToken::new(*count)
    }

    fn restart(&self, token: CrashToken) {
        {
            let count = self.crash_count.lock();
            assert_eq!(
                token.crash_index(),
                *count,
                "restart token does not match the most recent crash"
            );
        }
        self.disarm_crash();
        // The "cache" is lost: rebuild the image from the durable file, like a
        // freshly restarted process would. Reload failure is fatal — there is
        // nothing to serve reads from without the durable image.
        {
            let mut image = self.image.write();
            match &self.store {
                Store::Own { file, .. } => {
                    let mut file = file.lock();
                    file.seek(SeekFrom::Start(0))
                        .and_then(|_| file.read_exact(&mut image[..]))
                        .unwrap_or_else(|e| {
                            panic!("reload of {} failed: {e}", self.path.display())
                        });
                }
                Store::Device { device, base } => {
                    device
                        .read_at(*base, 0, &mut image[..])
                        .unwrap_or_else(|e| {
                            panic!("reload of {} failed: {e}", self.path.display())
                        });
                }
            }
        }
        self.frozen.store(false, Ordering::SeqCst);
    }

    fn arm_crash(&self, trigger: CrashTrigger) {
        self.armed.arm(trigger);
    }

    fn disarm_crash(&self) {
        self.armed.disarm();
    }

    fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::SeqCst)
    }

    fn crash_count(&self) -> u64 {
        *self.crash_count.lock()
    }

    fn my_pending_flushes(&self) -> usize {
        self.pending.with_mine(|pending| pending.len())
    }
}

impl FileBackend {
    fn read_durable_inner(&self, addr: PAddr, buf: &mut [u8]) {
        match &self.store {
            Store::Own { file, .. } => {
                let mut file = file.lock();
                file.seek(SeekFrom::Start(addr))
                    .and_then(|_| file.read_exact(buf))
                    .unwrap_or_else(|e| panic!("pread of {} failed: {e}", self.path.display()));
            }
            Store::Device { device, base } => {
                device
                    .read_at(*base, addr, buf)
                    .unwrap_or_else(|e| panic!("pread of {} failed: {e}", self.path.display()));
            }
        }
    }
}

impl std::fmt::Debug for FileBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileBackend")
            .field("path", &self.path)
            .field("capacity", &self.cfg.capacity)
            .field("coalesced", &self.is_coalesced())
            .field("frozen", &self.is_frozen())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ScratchDir;

    fn backend(name: &str, cfg: PmemConfig) -> (FileBackend, ScratchDir) {
        let dir = ScratchDir::new(&format!("filebackend-{name}")).unwrap();
        let b = FileBackend::create(dir.path().join("pool.pmem"), cfg).unwrap();
        (b, dir)
    }

    fn small() -> PmemConfig {
        PmemConfig::with_capacity(1 << 20).apply_pending_at_crash(0.0)
    }

    #[test]
    fn write_read_roundtrip() {
        let (b, _t) = backend("roundtrip", small());
        b.write(100, &[1, 2, 3, 4, 5]);
        let mut buf = [0u8; 5];
        b.read(100, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn unfenced_write_is_lost_on_crash() {
        let (b, _t) = backend("unfenced", small());
        b.write(0, &[7u8; 8]);
        let t = b.crash();
        b.restart(t);
        let mut buf = [0u8; 8];
        b.read(0, &mut buf);
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn fenced_write_survives_crash_and_reopen() {
        let dir = ScratchDir::new("filebackend-fenced").unwrap();
        let path = dir.path().join("pool.pmem");
        let b = FileBackend::create(&path, small()).unwrap();
        b.persist(64, &[9u8; 16]).unwrap();
        let t = b.crash();
        b.restart(t);
        let mut buf = [0u8; 16];
        b.read(64, &mut buf);
        assert_eq!(buf, [9u8; 16]);
        // Simulated process restart: drop everything, reopen from disk.
        drop(b);
        let b = FileBackend::open(&path, small()).unwrap();
        let mut buf = [0u8; 16];
        b.read(64, &mut buf);
        assert_eq!(buf, [9u8; 16]);
    }

    #[test]
    fn flush_captures_value_at_flush_time() {
        let (b, _t) = backend("capture", small());
        b.write(0, &[1u8; 8]);
        b.flush(0, 8);
        b.write(0, &[2u8; 8]);
        b.fence().unwrap();
        let t = b.crash();
        b.restart(t);
        let mut buf = [0u8; 8];
        b.read(0, &mut buf);
        assert_eq!(buf, [1u8; 8], "post-flush store must not ride along");
    }

    #[test]
    fn fence_without_pending_is_not_persistent_and_skips_fsync() {
        let (b, _t) = backend("nofsync", small());
        assert!(!b.fence().unwrap());
        b.write(0, &[1]);
        assert!(
            !b.fence().unwrap(),
            "write without flush leaves nothing pending"
        );
        b.flush(0, 1);
        assert!(b.fence().unwrap());
        assert_eq!(b.stats().persistent_fences(), 1);
        assert_eq!(b.stats().fences(), 3);
    }

    #[test]
    fn pending_flush_dropped_or_applied_at_crash_per_probability() {
        let (b, _t) = backend("pending0", small());
        b.write(0, &[9u8; 8]);
        b.flush(0, 8);
        let t = b.crash();
        b.restart(t);
        let mut buf = [0u8; 8];
        b.read(0, &mut buf);
        assert_eq!(buf, [0u8; 8], "probability 0: pending flush dropped");

        let (b, _t) = backend(
            "pending1",
            PmemConfig::with_capacity(1 << 20).apply_pending_at_crash(1.0),
        );
        b.write(0, &[9u8; 8]);
        b.flush(0, 8);
        let t = b.crash();
        b.restart(t);
        b.read(0, &mut buf);
        assert_eq!(buf, [9u8; 8], "probability 1: pending flush applied");
    }

    #[test]
    fn operations_while_frozen_are_ignored() {
        let (b, _t) = backend("frozen", small());
        b.persist(0, &[1u8; 4]).unwrap();
        let t = b.crash();
        let fences_before = b.stats().fences();
        b.write(0, &[9u8; 4]);
        b.flush(0, 4);
        assert!(!b.fence().unwrap(), "frozen fence is a silent no-op");
        assert_eq!(b.stats().fences(), fences_before);
        b.restart(t);
        let mut buf = [0u8; 4];
        b.read(0, &mut buf);
        assert_eq!(buf, [1u8; 4]);
    }

    #[test]
    fn armed_crash_fires_after_n_stores() {
        let (b, _t) = backend("armed", small());
        b.arm_crash(CrashTrigger::AfterStores(2));
        b.write(0, &[1]);
        assert!(!b.is_frozen());
        b.write(1, &[2]);
        assert!(b.is_frozen());
        assert_eq!(b.crash_count(), 1);
    }

    #[test]
    fn fences_by_different_threads_are_independent() {
        let (b, _t) = backend("threads", small());
        let b = std::sync::Arc::new(b);
        b.write(0, &[1u8; 8]);
        b.flush(0, 8);
        let b2 = b.clone();
        std::thread::spawn(move || {
            assert!(!b2.fence().unwrap());
        })
        .join()
        .unwrap();
        assert_eq!(b.my_pending_flushes(), 1);
        assert!(b.fence().unwrap());
    }

    #[test]
    fn eager_policy_writes_back_without_fence() {
        let (b, _t) = backend(
            "eager",
            PmemConfig::with_capacity(1 << 20)
                .policy(WritebackPolicy::EagerOnFlush)
                .apply_pending_at_crash(0.0),
        );
        b.write(0, &[3u8; 4]);
        b.flush(0, 4);
        let t = b.crash();
        b.restart(t);
        let mut buf = [0u8; 4];
        b.read(0, &mut buf);
        assert_eq!(buf, [3u8; 4]);
    }

    #[test]
    fn random_eviction_can_persist_unflushed_stores() {
        let (b, _t) = backend(
            "evict",
            PmemConfig::with_capacity(1 << 20)
                .policy(WritebackPolicy::RandomEviction {
                    probability: 1.0,
                    seed: 42,
                })
                .apply_pending_at_crash(0.0),
        );
        b.write(0, &[4u8; 4]);
        let t = b.crash();
        b.restart(t);
        let mut buf = [0u8; 4];
        b.read(0, &mut buf);
        assert_eq!(buf, [4u8; 4]);
    }

    #[test]
    fn read_durable_sees_only_fenced_data() {
        let (b, _t) = backend("durableview", small());
        b.persist(0, &[1u8; 4]).unwrap();
        b.write(0, &[2u8; 4]);
        let mut buf = [0u8; 4];
        b.read_durable(0, &mut buf);
        assert_eq!(buf, [1u8; 4]);
        b.read(0, &mut buf);
        assert_eq!(buf, [2u8; 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_write_panics() {
        let (b, _t) = backend("oob", PmemConfig::with_capacity(CACHE_LINE_SIZE as u64));
        b.write(60, &[0u8; 8]);
    }

    #[test]
    fn open_missing_file_is_an_error() {
        let dir = ScratchDir::new("filebackend-missing").unwrap();
        let err = FileBackend::open(dir.path().join("nope.pmem"), small()).unwrap_err();
        assert!(matches!(err, NvmError::Io { .. }), "{err:?}");
    }

    #[test]
    fn injected_eio_poisons_backend_with_typed_error() {
        let (b, _t) = backend("eio", small());
        b.inject_fsync_errors(1);
        b.write(0, &[1u8; 8]);
        b.flush(0, 8);
        let err = b.fence().unwrap_err();
        assert!(matches!(err, NvmError::Io { .. }), "{err:?}");
        // Poisoned: later fences fail fast with the original cause instead of
        // claiming durability the device never confirmed.
        b.write(64, &[2u8; 8]);
        b.flush(64, 8);
        let err2 = b.fence().unwrap_err();
        assert!(err2.to_string().contains("injected EIO"), "{err2}");
    }

    #[test]
    fn injected_pwrite_error_is_surfaced_too() {
        let (b, _t) = backend("eio-pwrite", small());
        b.inject_pwrite_errors(1);
        b.write(0, &[1u8; 8]);
        b.flush(0, 8);
        assert!(matches!(b.fence(), Err(NvmError::Io { .. })));
    }

    #[test]
    fn device_backed_pool_round_trips_and_reopens() {
        let dir = ScratchDir::new("filebackend-device").unwrap();
        let dev_path = dir.path().join("pool.dev");
        let cfg = small();
        {
            let device = PersistDevice::handle(&dev_path, &cfg).unwrap();
            let b = FileBackend::create_on_device(&device, "seg", cfg.clone()).unwrap();
            assert!(b.is_coalesced());
            b.persist(128, &[5u8; 8]).unwrap();
            let t = b.crash();
            b.restart(t);
            let mut buf = [0u8; 8];
            b.read(128, &mut buf);
            assert_eq!(buf, [5u8; 8]);
        }
        // Process restart: a fresh device handle recovers the segment.
        let device = PersistDevice::handle(&dev_path, &cfg).unwrap();
        let b = FileBackend::open_on_device(&device, "seg", cfg).unwrap();
        let mut buf = [0u8; 8];
        b.read(128, &mut buf);
        assert_eq!(buf, [5u8; 8]);
    }

    #[test]
    fn device_fence_durability_matches_private_file_semantics() {
        let dir = ScratchDir::new("filebackend-device-sem").unwrap();
        let cfg = small();
        let device = PersistDevice::handle(dir.path().join("pool.dev"), &cfg).unwrap();
        let b = FileBackend::create_on_device(&device, "seg", cfg).unwrap();
        // Unfenced write lost on crash, fenced write kept — same as own-file.
        b.write(0, &[7u8; 8]);
        b.persist(64, &[8u8; 8]).unwrap();
        let t = b.crash();
        b.restart(t);
        let mut buf = [0u8; 8];
        b.read(0, &mut buf);
        assert_eq!(buf, [0u8; 8], "unfenced write must not survive");
        b.read(64, &mut buf);
        assert_eq!(buf, [8u8; 8], "fenced write must survive");
    }
}
