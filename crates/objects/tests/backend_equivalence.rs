//! Cross-backend equivalence properties: the same recorded workload driven
//! against the simulator and the file backend recovers to an identical
//! materialized state, identical durable prefix and identical recovered
//! operation identities — for every object specification in this crate, with
//! and without an adversarial mid-run crash.
//!
//! (The mirror of `checkpoint_equivalence.rs`, with the backend rather than
//! the checkpoint schedule as the varied dimension.)

use durable_objects::{
    AppendLogOp, AppendLogSpec, CounterOp, CounterSpec, KvOp, KvSpec, QueueOp, QueueSpec,
    RegisterOp, RegisterSpec, SetOp, SetSpec, StackOp, StackSpec,
};
use nvm_sim::{BackendSpec, CrashTrigger, NvmPool, PmemConfig, ScratchDir};
use onll::{replay, Durable, OnllConfig, OpId, SnapshotSpec};
use proptest::prelude::*;

/// What one backend's run + crash + recovery observed.
#[derive(Debug, PartialEq)]
struct RunOutcome<S> {
    attempted: u64,
    durable_index: u64,
    recovered_ops: Vec<(u64, OpId)>,
    state: S,
}

/// Drives `ops` on `pool`, crashing after `crash_after_events` persistence
/// events if given, then power-cycles and recovers.
fn drive<S>(pool: NvmPool, ops: &[S::UpdateOp], crash_after_events: Option<u64>) -> RunOutcome<S>
where
    S: SnapshotSpec + PartialEq + std::fmt::Debug,
{
    let cfg = OnllConfig::named("xb").log_capacity(ops.len() + 8);
    let object = Durable::<S>::create(pool.clone(), cfg.clone()).unwrap();
    if let Some(n) = crash_after_events {
        pool.arm_crash(CrashTrigger::AfterEvents(n));
    }
    let mut attempted = 0u64;
    {
        let mut handle = object.register().unwrap();
        for op in ops {
            if pool.is_frozen() {
                break;
            }
            attempted += 1;
            let result = handle.try_update(op.clone());
            if pool.is_frozen() {
                break;
            }
            result.unwrap();
        }
    }
    let token = pool.crash();
    pool.disarm_crash();
    pool.restart(token);
    drop(object);
    let (recovered, report) = Durable::<S>::recover(pool, cfg).unwrap();
    RunOutcome {
        attempted,
        durable_index: report.durable_index,
        recovered_ops: report.recovered_ops,
        state: recovered.materialize(),
    }
}

/// The core property: both backends, driven identically, agree on everything
/// observable after recovery — and that agreed state is the sequential replay
/// of the durable prefix.
fn assert_backend_equivalence<S>(ops: &[S::UpdateOp], crash_after_events: Option<u64>)
where
    S: SnapshotSpec + PartialEq + std::fmt::Debug,
{
    // Crash outcomes must be bit-for-bit deterministic for the comparison, so
    // pending flushes are dropped on both backends (probability 0).
    let pmem = || PmemConfig::with_capacity(32 << 20).apply_pending_at_crash(0.0);

    let sim = drive::<S>(NvmPool::new(pmem()), ops, crash_after_events);

    let dir = ScratchDir::new("xb-eq").unwrap();
    let spec = BackendSpec::file(dir.path());
    let pool = NvmPool::provision(&spec, pmem(), "xb").unwrap();
    let file = drive::<S>(pool, ops, crash_after_events);

    assert_eq!(
        sim.durable_index, file.durable_index,
        "durable prefix diverged between backends"
    );
    assert_eq!(
        sim.recovered_ops, file.recovered_ops,
        "recovered operation identities diverged between backends"
    );
    assert_eq!(sim.state, file.state, "materialized state diverged");
    assert!(sim.durable_index <= sim.attempted.max(file.attempted));

    // Both equal the sequential replay of the durable prefix.
    let expected: S = replay::<S>(ops[..sim.durable_index as usize].iter());
    assert_eq!(
        sim.state, expected,
        "state is not the durable-prefix replay"
    );

    // The file backend's durable image is real: reopening the pool from disk
    // (as a restarted process would) recovers the same state again.
    let reopened = NvmPool::reopen(&spec, pmem(), "xb").unwrap();
    let (again, report) = Durable::<S>::recover(
        reopened,
        OnllConfig::named("xb").log_capacity(ops.len() + 8),
    )
    .unwrap();
    assert_eq!(report.durable_index, file.durable_index);
    assert_eq!(again.materialize(), file.state, "on-disk image diverged");
}

/// Crash points: none (clean run) or after a sampled number of events.
fn crash_point(raw: u16, ops: usize) -> Option<u64> {
    if raw.is_multiple_of(3) {
        None
    } else {
        // Events scale with ops; land the crash somewhere inside the run.
        Some(1 + (raw as u64 % (ops as u64 * 12 + 1)))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn counter_equivalent_across_backends(
        raw_ops in proptest::collection::vec((0u8..3, -50i64..50), 1..48),
        raw_crash in proptest::strategy::any::<u16>(),
    ) {
        let ops: Vec<CounterOp> = raw_ops
            .iter()
            .map(|(tag, amount)| match tag {
                0 => CounterOp::Increment,
                1 => CounterOp::Add(*amount),
                _ => CounterOp::Reset,
            })
            .collect();
        assert_backend_equivalence::<CounterSpec>(&ops, crash_point(raw_crash, ops.len()));
    }

    #[test]
    fn register_equivalent_across_backends(
        raw_ops in proptest::collection::vec((0u8..2, 0u64..8, 0u64..8), 1..48),
        raw_crash in proptest::strategy::any::<u16>(),
    ) {
        let ops: Vec<RegisterOp> = raw_ops
            .iter()
            .map(|(tag, a, b)| match tag {
                0 => RegisterOp::Write(*a),
                _ => RegisterOp::Cas { expected: *a, new: *b },
            })
            .collect();
        assert_backend_equivalence::<RegisterSpec>(&ops, crash_point(raw_crash, ops.len()));
    }

    #[test]
    fn stack_equivalent_across_backends(
        raw_ops in proptest::collection::vec((0u8..2, 0u64..100), 1..48),
        raw_crash in proptest::strategy::any::<u16>(),
    ) {
        let ops: Vec<StackOp> = raw_ops
            .iter()
            .map(|(tag, v)| if *tag == 0 { StackOp::Push(*v) } else { StackOp::Pop })
            .collect();
        assert_backend_equivalence::<StackSpec>(&ops, crash_point(raw_crash, ops.len()));
    }

    #[test]
    fn queue_equivalent_across_backends(
        raw_ops in proptest::collection::vec((0u8..2, 0u64..100), 1..48),
        raw_crash in proptest::strategy::any::<u16>(),
    ) {
        let ops: Vec<QueueOp> = raw_ops
            .iter()
            .map(|(tag, v)| if *tag == 0 { QueueOp::Enqueue(*v) } else { QueueOp::Dequeue })
            .collect();
        assert_backend_equivalence::<QueueSpec>(&ops, crash_point(raw_crash, ops.len()));
    }

    #[test]
    fn set_equivalent_across_backends(
        raw_ops in proptest::collection::vec((0u8..2, 0u64..16), 1..48),
        raw_crash in proptest::strategy::any::<u16>(),
    ) {
        let ops: Vec<SetOp> = raw_ops
            .iter()
            .map(|(tag, k)| if *tag == 0 { SetOp::Add(*k) } else { SetOp::Remove(*k) })
            .collect();
        assert_backend_equivalence::<SetSpec>(&ops, crash_point(raw_crash, ops.len()));
    }

    #[test]
    fn kv_equivalent_across_backends(
        raw_ops in proptest::collection::vec((0u8..2, 0u8..8, 0u8..8), 1..40),
        raw_crash in proptest::strategy::any::<u16>(),
    ) {
        let ops: Vec<KvOp> = raw_ops
            .iter()
            .map(|(tag, k, v)| {
                if *tag == 0 {
                    KvOp::Put(format!("key-{k}"), format!("value-{v}"))
                } else {
                    KvOp::Delete(format!("key-{k}"))
                }
            })
            .collect();
        assert_backend_equivalence::<KvSpec>(&ops, crash_point(raw_crash, ops.len()));
    }

    #[test]
    fn append_log_equivalent_across_backends(
        raw_ops in proptest::collection::vec((1u8..20, proptest::strategy::any::<u8>()), 1..32),
        raw_crash in proptest::strategy::any::<u16>(),
    ) {
        let ops: Vec<AppendLogOp> = raw_ops
            .iter()
            .map(|(len, byte)| AppendLogOp::Append(vec![*byte; *len as usize]))
            .collect();
        assert_backend_equivalence::<AppendLogSpec>(&ops, crash_point(raw_crash, ops.len()));
    }
}
