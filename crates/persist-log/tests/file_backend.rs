//! The single-fence log on the file backend: identical crash properties, real
//! on-disk durability.
//!
//! The log code is backend-agnostic (it only speaks `NvmPool`); these tests
//! pin that down by re-running the core crash property against a file-backed
//! pool and by reopening the pool from disk — the path a restarted process
//! takes — to recover the same entries.

use nvm_sim::{BackendSpec, CrashTrigger, NvmPool, PmemConfig, ScratchDir};
use persist_log::{LogConfig, PersistentLog};
use proptest::prelude::*;

fn file_pool(label: &str) -> (NvmPool, BackendSpec, ScratchDir) {
    let dir = ScratchDir::new(&format!("plog-{label}")).unwrap();
    let spec = BackendSpec::file(dir.path());
    let pool = NvmPool::provision(
        &spec,
        PmemConfig::with_capacity(16 << 20).apply_pending_at_crash(0.0),
        "log",
    )
    .unwrap();
    (pool, spec, dir)
}

#[test]
fn appended_entries_survive_a_pool_reopen_from_disk() {
    let (pool, spec, _cleanup) = file_pool("reopen");
    let cfg = LogConfig::for_processes(2)
        .op_slot_size(16)
        .capacity_entries(64);
    let base = pool.alloc(PersistentLog::region_size(&cfg)).unwrap();
    let mut log = PersistentLog::create(pool.clone(), cfg.clone(), base);
    for i in 0..10u64 {
        let own = vec![i as u8; 8];
        log.append(&[&own], i + 1).unwrap();
    }
    drop(log);
    drop(pool);

    // A restarted process: nothing shared but the file.
    let reopened = NvmPool::reopen(
        &spec,
        PmemConfig::with_capacity(16 << 20).apply_pending_at_crash(0.0),
        "log",
    )
    .unwrap();
    let (_log, entries) = PersistentLog::open(reopened, cfg, base);
    assert_eq!(entries.len(), 10);
    for (k, entry) in entries.iter().enumerate() {
        assert_eq!(entry.execution_index, k as u64 + 1);
        assert_eq!(entry.op(0), &vec![k as u8; 8][..]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn file_backend_recovery_yields_a_prefix_of_completed_appends(
        payload_seeds in proptest::collection::vec(0u8..255, 1..20),
        crash_after_events in 1u64..200,
    ) {
        let (pool, _spec, _cleanup) = file_pool("crash");
        let cfg = LogConfig::for_processes(2).op_slot_size(16).capacity_entries(64);
        let base = pool.alloc(PersistentLog::region_size(&cfg)).unwrap();
        let mut log = PersistentLog::create(pool.clone(), cfg.clone(), base);

        pool.arm_crash(CrashTrigger::AfterEvents(crash_after_events));
        let mut completed = 0usize;
        for (i, seed) in payload_seeds.iter().enumerate() {
            let own = vec![*seed; 8];
            let _ = log.append(&[&own], i as u64 + 1);
            if pool.is_frozen() {
                break;
            }
            completed = i + 1;
        }
        pool.disarm_crash();
        pool.crash_and_restart();

        let (_reopened, entries) = PersistentLog::open(pool, cfg, base);
        prop_assert!(entries.len() <= payload_seeds.len());
        prop_assert!(
            entries.len() >= completed,
            "a completed append was lost on the file backend: {} recovered < {} completed",
            entries.len(),
            completed
        );
        for (k, entry) in entries.iter().enumerate() {
            prop_assert_eq!(entry.execution_index, k as u64 + 1);
            prop_assert_eq!(entry.op(0), &vec![payload_seeds[k]; 8][..]);
        }
    }
}
