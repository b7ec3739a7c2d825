//! The `onll_server` child process and the `/proc` counters read from
//! outside it.

use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, OnceLock};

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SC_CLK_TCK: i32 = 2;
const SC_PAGESIZE: i32 = 30;

/// A CPU affinity mask of up to 1024 CPUs.
type CpuMask = [u64; 16];

/// Where the benchmark's threads and the server run: two distinct CPUs the
/// process may use, or `None` when it may use only one.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    pub client_cpu: usize,
    pub server_cpu: usize,
}

/// The placement, taken from the first two CPUs in the process's affinity
/// mask at first use.
pub fn placement() -> Option<Placement> {
    static PLACEMENT: OnceLock<Option<Placement>> = OnceLock::new();
    *PLACEMENT.get_or_init(|| {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let mut cpus = (0..mask.len() * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1);
        Some(Placement {
            client_cpu: cpus.next()?,
            server_cpu: cpus.next()?,
        })
    })
}

/// Restricts the calling thread, and the threads and processes it creates
/// afterwards, to `cpu`. Async-signal-safe (one system call), so it may run
/// between fork and exec. Returns false if the kernel refused.
pub fn pin_to(cpu: usize) -> bool {
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes from the array.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Moves the calling thread to the server CPU, if there is one.
pub fn pin_to_server_cpu() {
    if let Some(p) = placement() {
        pin_to(p.server_cpu);
    }
}

/// Children still running, so the watchdog can kill them before exiting.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Pids of every server child not yet reaped.
pub fn live_children() -> Vec<u32> {
    LIVE.lock().expect("child registry poisoned").clone()
}

/// A running `onll_server serve` on a store directory.
pub struct ServerProcess {
    child: Child,
    pub port: u16,
}

impl ServerProcess {
    /// Spawns the server on `dir` and waits for its `READY <port> <n>` line.
    /// The child's stderr is inherited, so its diagnostics (e.g. "checkpoint
    /// failed") reach the benchmark's stderr.
    pub fn spawn(bin: &Path, dir: &Path) -> Result<Self, String> {
        let mut command = Command::new(bin);
        if let Some(p) = placement() {
            // SAFETY: the closure makes one system call and touches no
            // memory the parent's other threads could hold locked.
            unsafe {
                command.pre_exec(move || {
                    pin_to(p.server_cpu);
                    Ok(())
                });
            }
        }
        let mut child = command
            .arg("serve")
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        LIVE.lock()
            .expect("child registry poisoned")
            .push(child.id());
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut server = ServerProcess { child, port: 0 };
        let fields: Vec<&str> = line.split_whitespace().collect();
        match (read, fields.as_slice()) {
            (Ok(_), ["READY", port, _recovered]) => {
                server.port = port
                    .parse()
                    .map_err(|_| format!("bad READY line {line:?}"))?;
                Ok(server)
            }
            _ => {
                server.kill();
                Err(format!("server did not report READY (got {line:?})"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    /// SIGKILL, then reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let pid = self.child.id();
        LIVE.lock()
            .expect("child registry poisoned")
            .retain(|&p| p != pid);
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

fn read_proc(pid: u32, file: &str) -> String {
    std::fs::read_to_string(format!("/proc/{pid}/{file}")).unwrap_or_default()
}

/// User plus system CPU time of `pid`, in seconds.
pub fn cpu_seconds(pid: u32) -> f64 {
    let stat = read_proc(pid, "stat");
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    // SAFETY: sysconf only reads a process-wide configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1);
    ticks as f64 / hz as f64
}

/// Resident set size of `pid`, in bytes.
pub fn rss_bytes(pid: u32) -> u64 {
    let pages: u64 = read_proc(pid, "statm")
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0);
    // SAFETY: sysconf only reads a process-wide configuration value.
    let page = unsafe { sysconf(SC_PAGESIZE) }.max(1) as u64;
    pages * page
}

/// Write-family syscalls `pid` has issued (`syscw` in `/proc/<pid>/io`).
pub fn write_syscalls(pid: u32) -> u64 {
    field_value(&read_proc(pid, "io"), "syscw:")
}

/// Voluntary plus involuntary context switches over every live thread.
pub fn context_switches(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .filter_map(|t| t.ok())
        .map(|t| {
            let status = std::fs::read_to_string(t.path().join("status")).unwrap_or_default();
            field_value(&status, "voluntary_ctxt_switches:")
                + field_value(&status, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

fn field_value(text: &str, label: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(label))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Host-wide CPU time stolen by the hypervisor for other guests, in seconds
/// summed over CPUs (`steal` in `/proc/stat`).
pub fn host_steal() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // SAFETY: sysconf only reads a process-wide configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    fields.get(7).copied().unwrap_or(0) as f64 / hz
}

/// The counters read around a measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub steal_s: f64,
    pub cpu_s: f64,
    pub rss: u64,
    pub write_syscalls: u64,
    pub ctx_switches: u64,
}

impl ProcSample {
    pub fn take(pid: u32) -> Self {
        ProcSample {
            steal_s: host_steal(),
            cpu_s: cpu_seconds(pid),
            rss: rss_bytes(pid),
            write_syscalls: write_syscalls(pid),
            ctx_switches: context_switches(pid),
        }
    }
}
