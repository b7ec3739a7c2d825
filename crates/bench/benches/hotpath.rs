//! Hot-path microbench: the non-fence cost of an update.
//!
//! The paper proves one persistent fence per update is *inherent* (Theorem 6.3),
//! which makes everything else on the update path overhead this repository can
//! and should drive towards zero. This bench measures that overhead directly,
//! per single-op update on the sim backend:
//!
//! * **ops/s** — wall-clock update throughput of one handle (no fence penalty,
//!   so the number is pure software cost);
//! * **allocs/update** — heap allocations per update, counted by a wrapping
//!   global allocator (the trace node itself is one unavoidable allocation);
//! * **bytes written/update** — bytes stored to NVM per update (the
//!   write-amplification the variable-length entry format attacks);
//! * **lines flushed/update** — cache lines covered by flush instructions;
//! * **fences/update** — audited against the Theorem 5.1 bound: the bench
//!   **panics** if an individual-mode scenario exceeds 1.0, which is what the
//!   CI perf-smoke step relies on (a noise-immune invariant, unlike a raw
//!   throughput threshold).
//!
//! Writes `BENCH_hotpath.json` at the workspace root next to the other bench
//! artifacts. The `baseline` block records the same measurements taken at the
//! commit *before* the hot-path overhaul (fixed-geometry entries, allocating
//! persist path) so the artifact itself documents the improvement.
//!
//! ```text
//! cargo bench -p onll-bench --bench hotpath
//! ```

use durable_objects::{CounterOp, CounterSpec, KvOp, KvSpec};
use nvm_sim::PmemConfig;
use onll::{Durable, OnllConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Global allocator wrapper counting allocation events (alloc + realloc).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const OPS: usize = 200_000;
const GROUP: usize = 16;

struct Measurement {
    scenario: &'static str,
    ops: u64,
    ops_per_sec: f64,
    allocs_per_update: f64,
    bytes_written_per_update: f64,
    lines_flushed_per_update: f64,
    fences_per_update: f64,
}

fn pool() -> nvm_sim::NvmPool {
    // No fence penalty: the bench isolates software overhead, not the
    // (configurable) simulated hardware stall.
    nvm_sim::NvmPool::new(PmemConfig::with_capacity(8 << 30))
}

/// Runs `ops` updates through `run` and measures the per-update hot-path cost.
fn measure(
    scenario: &'static str,
    stats: &nvm_sim::FenceStats,
    updates: u64,
    run: impl FnOnce(),
) -> Measurement {
    let before = stats.snapshot();
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    run();
    let elapsed = start.elapsed();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let delta = stats.snapshot().delta(&before);
    let m = Measurement {
        scenario,
        ops: updates,
        ops_per_sec: updates as f64 / elapsed.as_secs_f64().max(1e-9),
        allocs_per_update: allocs as f64 / updates as f64,
        bytes_written_per_update: delta.stored_bytes as f64 / updates as f64,
        lines_flushed_per_update: delta.flushed_lines as f64 / updates as f64,
        fences_per_update: delta.inherent_fences() as f64 / updates as f64,
    };
    println!(
        "{:<16} {:>12.0} ops/s  {:>6.2} allocs/up  {:>8.1} B/up  {:>6.2} lines/up  {:>6.4} fences/up",
        m.scenario,
        m.ops_per_sec,
        m.allocs_per_update,
        m.bytes_written_per_update,
        m.lines_flushed_per_update,
        m.fences_per_update
    );
    m
}

/// Single-op counter updates: the minimal persist hot path (fixed-size op).
fn counter_single() -> Measurement {
    let pool = pool();
    let obj = Durable::<CounterSpec>::create(
        pool.clone(),
        OnllConfig::named("hot-counter").log_capacity(OPS + 2048),
    )
    .expect("create");
    let mut handle = obj.register().expect("register");
    // Warm up scratch buffers / map capacity outside the measured window.
    for _ in 0..1024 {
        handle.update(CounterOp::Increment);
    }
    measure("counter_single", pool.stats(), OPS as u64, || {
        for _ in 0..OPS {
            handle.update(CounterOp::Increment);
        }
    })
}

/// Single-op KV puts at the default geometry: a realistic variable-size op.
fn kv_single() -> Measurement {
    let pool = pool();
    let obj = Durable::<KvSpec>::create(
        pool.clone(),
        OnllConfig::named("hot-kv").log_capacity(OPS + 2048),
    )
    .expect("create");
    let mut handle = obj.register().expect("register");
    // Pre-generate the operations so driver-side string construction is not
    // attributed to the persist path.
    let mut ops: Vec<KvOp> = (0..OPS)
        .map(|i| KvOp::Put(format!("key-{}", i % 8192), format!("value-{i}")))
        .collect();
    for i in 0..1024 {
        handle.update(KvOp::Put(format!("warm-{i}"), "x".into()));
    }
    measure("kv_single", pool.stats(), OPS as u64, || {
        for op in ops.drain(..) {
            handle.update(op);
        }
    })
}

/// Fence-amortized groups of 16 counter updates: the batching layer's hot path.
fn counter_group() -> Measurement {
    let pool = pool();
    let obj = Durable::<CounterSpec>::create(
        pool.clone(),
        OnllConfig::named("hot-group")
            .log_capacity(OPS / GROUP + 2048)
            .group_persist(GROUP),
    )
    .expect("create");
    let mut handle = obj.register().expect("register");
    for _ in 0..64 {
        handle.update_group(vec![CounterOp::Increment; GROUP]);
    }
    measure("counter_group16", pool.stats(), OPS as u64, || {
        for _ in 0..OPS / GROUP {
            handle.update_group(vec![CounterOp::Increment; GROUP]);
        }
    })
}

fn json_row(m: &Measurement) -> String {
    format!(
        "{{\"scenario\": \"{}\", \"ops\": {}, \"ops_per_sec\": {:.1}, \"allocs_per_update\": {:.3}, \"bytes_written_per_update\": {:.1}, \"lines_flushed_per_update\": {:.3}, \"fences_per_update\": {:.4}}}",
        m.scenario,
        m.ops,
        m.ops_per_sec,
        m.allocs_per_update,
        m.bytes_written_per_update,
        m.lines_flushed_per_update,
        m.fences_per_update
    )
}

fn write_artifact(measurements: &[Measurement]) -> std::io::Result<std::path::PathBuf> {
    let mut json = String::from("{\n  \"bench\": \"hotpath\",\n  \"backend\": \"sim\",\n");
    json.push_str("  \"fence_penalty_ns\": 0,\n");
    json.push_str(
        "  \"baseline\": {\n    \"note\": \"measured at the fixed-geometry HEAD before the hot-path overhaul (PR 3)\",\n    \"results\": [\n",
    );
    for (i, row) in BASELINE.iter().enumerate() {
        json.push_str("      ");
        json.push_str(row);
        json.push_str(if i + 1 == BASELINE.len() { "\n" } else { ",\n" });
    }
    json.push_str("    ]\n  },\n  \"results\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str("    ");
        json.push_str(&json_row(m));
        json.push_str(if i + 1 == measurements.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    json.push_str("  ]\n}\n");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()?
        .join("BENCH_hotpath.json");
    std::fs::write(&path, json)?;
    Ok(path)
}

/// The before-measurement this PR's acceptance criteria compare against,
/// captured by running this very bench at the pre-overhaul HEAD on the same
/// machine (fixed-geometry entries, allocating persist path).
const BASELINE: &[&str] = &[
    "{\"scenario\": \"counter_single\", \"ops\": 200000, \"ops_per_sec\": 289032.0, \"allocs_per_update\": 10.00, \"bytes_written_per_update\": 256.0, \"lines_flushed_per_update\": 4.00, \"fences_per_update\": 1.0}",
    "{\"scenario\": \"kv_single\", \"ops\": 200000, \"ops_per_sec\": 33973.0, \"allocs_per_update\": 12.01, \"bytes_written_per_update\": 1024.0, \"lines_flushed_per_update\": 16.00, \"fences_per_update\": 1.0}",
    "{\"scenario\": \"counter_group16\", \"ops\": 200000, \"ops_per_sec\": 369423.0, \"allocs_per_update\": 4.63, \"bytes_written_per_update\": 220.0, \"lines_flushed_per_update\": 3.44, \"fences_per_update\": 0.0625}",
];

fn main() {
    println!("hotpath bench ({OPS} single-op updates per scenario, sim backend, no fence penalty)");
    let measurements = vec![counter_single(), kv_single(), counter_group()];
    for m in &measurements {
        if m.scenario.ends_with("_single") {
            assert!(
                m.fences_per_update <= 1.0,
                "{}: {} fences/update exceeds the Theorem 5.1 bound of 1",
                m.scenario,
                m.fences_per_update
            );
        }
    }
    match write_artifact(&measurements) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("\nfailed to write BENCH_hotpath.json: {e}");
            std::process::exit(1);
        }
    }
}
