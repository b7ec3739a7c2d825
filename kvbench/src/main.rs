//! The `kvbench` binary: load generator and checker for `onll_server`.
//!
//! ```text
//! kvbench --workload put_hot|get_mostly --seed N --seconds S
//!         --trace 0|1 --server-bin PATH --work-dir DIR --store-dir DIR
//! ```
//!
//! `--trace 0` measures the end-to-end metrics against a spawned server
//! process (see [`e2e`]); `--trace 1` splits the same requests by layer (see
//! [`traced`]). The last line of stdout is the JSON result. A correctness
//! failure (a read that misses an acknowledged write, before or after a
//! SIGKILL restart) prints `"correct": false`, the reasons on stderr, and
//! exits with code 3.

mod e2e;
mod load;
mod proc;
mod report;
mod traced;
mod workload;

use std::path::PathBuf;
use std::time::Duration;
use workload::Workload;

/// Exit code of a run that printed its result but failed a correctness
/// check.
const INCORRECT: i32 = 3;

/// The whole run must end well inside the caller's per-run limit.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    work_dir: PathBuf,
    /// Where the servers' store directories go (a tmpfs when the caller
    /// could mount one).
    store_dir: PathBuf,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: kvbench --workload put_hot|get_mostly --seed N --seconds S \
         --trace 0|1 --server-bin PATH --work-dir DIR --store-dir DIR"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut work_dir = None;
    let mut store_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage("missing flag value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).unwrap_or_else(|| usage("bad --workload")))
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 60.0) {
                    usage("--seconds must be in (0, 60]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--store-dir" => store_dir = Some(PathBuf::from(value)),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        server_bin: server_bin.unwrap_or_else(|| usage("--server-bin is required")),
        work_dir: work_dir.unwrap_or_else(|| usage("--work-dir is required")),
        store_dir: store_dir.unwrap_or_else(|| usage("--store-dir is required")),
    }
}

/// Kills every spawned server and exits non-zero if the run overstays.
fn start_watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("error: run exceeded {}s; aborting", WATCHDOG.as_secs());
        for pid in proc::live_children() {
            let _ = std::process::Command::new("kill")
                .args(["-9", &pid.to_string()])
                .status();
        }
        std::process::exit(4);
    });
}

fn main() {
    let args = parse_args();
    // The load generator and the server each get a CPU of their own, so they
    // do not compete for one, and the scheduler cannot move them between
    // placements that differ in wake-up cost. Threads created from here on
    // inherit the client CPU; a spawned server moves to the server CPU.
    match proc::placement() {
        Some(p) if proc::pin_to(p.client_cpu) => {
            eprintln!(
                "placement: client on CPU {}, server on CPU {}",
                p.client_cpu, p.server_cpu
            )
        }
        _ => eprintln!("placement: unpinned (fewer than two usable CPUs)"),
    }
    start_watchdog();
    for dir in [&args.work_dir, &args.store_dir] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let result = if args.trace {
        traced::run(
            &args.server_bin,
            &args.work_dir,
            &args.store_dir,
            args.workload,
            args.seed,
            args.seconds,
        )
    } else {
        e2e::run(
            &args.server_bin,
            &args.store_dir,
            args.workload,
            args.seed,
            args.seconds,
        )
    };
    match result {
        Ok(report) => {
            for problem in &report.problems {
                eprintln!("correctness failure: {problem}");
            }
            println!("checks {}", report.checks_json());
            println!("{}", report.to_json());
            if !report.correct {
                std::process::exit(INCORRECT);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
