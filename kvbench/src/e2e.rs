//! The untraced run: end-to-end metrics of a real `onll_server` process.
//!
//! 1. Set-up, [`SETUPS`] or more times: spawn a server on a fresh store
//!    directory, wait for `READY`, preload every key. The last set-up is
//!    kept; `setup_s` is the median.
//! 2. Put-only workloads run a read phase of half of [`READ_SECONDS`]:
//!    both connections GET their own keys in order, timed as below. With a
//!    second such phase after step 3, it gives their GET metrics. GET
//!    latency over loopback shifts for seconds at a time with where the
//!    scheduler puts client and server threads, so the two halves sample it
//!    half a minute apart.
//! 3. The measured phase: [`WARMUP`], then the seeded closed loop for the
//!    requested seconds in [`WINDOW`]-long windows, with `STATS` and `/proc`
//!    read at every window boundary.
//! 4. Put-only workloads: the second read phase.
//! 5. A read-back pass: every key once, checked against its last
//!    acknowledged value.
//! 6. Recovery, [`RECOVERIES`] times: SIGKILL, restart on the same
//!    directory, wait for `READY`, read every key back. `recovery_s` is the
//!    median.
//!
//! Throughput and latency percentiles are medians over a phase's windows:
//! host interference (CPU time stolen by the hypervisor, or a neighbour on
//! the same core) comes in bursts of seconds, and the median keeps a burst
//! inside a few windows from moving the run's figure. Counter ratios (fences,
//! CPU time per op, RSS growth) span the whole phase. stderr logs every
//! window with its host steal (`steal` in `/proc/stat`), so interference can
//! be told from the program's own behaviour.

use crate::load::{self, Stop, Tally};
use crate::proc::{ProcSample, ServerProcess};
use crate::report::{median, percentile, ratio, Report};
use crate::workload::{Model, OpStream, Workload, CONNECTIONS};
use onll_server::client::ServerStats;
use onll_server::ResilientSession;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run: at least [`SETUPS`], and more while they have taken
/// less than [`SETUP_SECONDS`] in all, up to [`MAX_SETUPS`]. The median is
/// reported; cheap set-ups get more samples.
pub const SETUPS: usize = 5;
pub const SETUP_SECONDS: f64 = 2.0;
pub const MAX_SETUPS: usize = 20;
/// Kill-and-restart cycles per run (the median is reported). One restart
/// takes about 0.15 s and varies by a fifth, so the median needs many.
pub const RECOVERIES: usize = 15;
/// Closed-loop run before timing starts, so file blocks, page cache and
/// allocator pools are warm.
pub const WARMUP: Duration = Duration::from_secs(2);
/// Width of one measurement window.
pub const WINDOW: Duration = Duration::from_millis(500);
/// Length of the two read phases of put-only workloads together.
pub const READ_SECONDS: f64 = 12.0;

/// Every PUT's previous value and every GET's value in the closed loop.
pub const READ_YOUR_WRITES: &str = "read_your_writes";
/// Every key once, after the closed loop.
pub const READ_BACK: &str = "read_back";
/// Every key once, after each SIGKILL and restart.
pub const AFTER_RESTART: &str = "after_restart";

/// A server with its store preloaded and one connected session per
/// connection.
pub struct Loaded {
    pub server: ServerProcess,
    pub sessions: Vec<ResilientSession>,
    pub setup_s: f64,
}

/// Removes a store directory left by an earlier set-up.
pub fn clear(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", dir.display())),
    }
}

/// Spawns a server on a fresh `dir` and preloads it.
pub fn set_up(bin: &Path, dir: &Path, workload: Workload, seed: u64) -> Result<Loaded, String> {
    clear(dir)?;
    let started = Instant::now();
    let server = ServerProcess::spawn(bin, dir)?;
    let sessions = load::preload_sessions(&server.addr(), seed, workload.keys())?;
    Ok(Loaded {
        server,
        sessions,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// The closed loop's streams and expected state, one per connection.
pub fn fresh_streams(workload: Workload, seed: u64) -> (Vec<OpStream>, Vec<Model>) {
    (0..CONNECTIONS)
        .map(|conn| {
            (
                OpStream::new(seed, workload, conn),
                Model::preloaded(seed, workload.keys(), conn),
            )
        })
        .unzip()
}

/// A measured phase: the ops it acknowledged, and the server's counters at
/// every window boundary.
pub struct Phase {
    pub warmup: Tally,
    pub tally: Tally,
    pub sessions: Vec<ResilientSession>,
    pub models: Vec<Model>,
    pub width: Duration,
    /// `(STATS, /proc)` at the start of each window and at the end.
    pub samples: Vec<(ServerStats, ProcSample)>,
}

/// Runs `streams` on their sessions for `warmup`, then measures them for
/// `seconds` in windows of `width`.
pub fn measure(
    server: &ServerProcess,
    sessions: Vec<ResilientSession>,
    (streams, models): (Vec<OpStream>, Vec<Model>),
    warmup: Duration,
    seconds: f64,
    width: Duration,
) -> Result<Phase, String> {
    let addr = server.addr();
    let sample = || -> Result<(ServerStats, ProcSample), String> {
        Ok((load::server_stats(&addr)?, ProcSample::take(server.pid())))
    };
    let windows = ((seconds / width.as_secs_f64()).round() as u32).max(1);
    let mut samples = Vec::with_capacity(windows as usize + 1);
    let started = Instant::now() + warmup;
    let deadline = started + width * windows;
    let results: Vec<(Tally, Tally, Model, ResilientSession)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .zip(streams)
            .zip(models)
            .enumerate()
            .map(|(conn, ((mut session, mut stream), mut model))| {
                scope.spawn(move || {
                    let mut run = |stop| {
                        load::run_ops(
                            &mut session,
                            conn,
                            &mut stream,
                            &mut model,
                            stop,
                            started,
                            None,
                        )
                    };
                    let warmup = run(Stop::At(started));
                    let tally = run(Stop::At(deadline));
                    (warmup, tally, model, session)
                })
            })
            .collect();
        for window in 0..=windows {
            let boundary = started + width * window;
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            samples.push(sample()?);
        }
        Ok::<_, String>(
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect(),
        )
    })?;
    let mut phase = Phase {
        warmup: Tally::default(),
        tally: Tally::default(),
        sessions: Vec::new(),
        models: Vec::new(),
        width,
        samples,
    };
    for (w, t, m, s) in results {
        phase.warmup.merge(w);
        phase.tally.merge(t);
        phase.models.push(m);
        phase.sessions.push(s);
    }
    Ok(phase)
}

/// One window's acknowledged latencies in ns, sorted.
#[derive(Clone, Default)]
pub struct Window {
    pub puts: Vec<u64>,
    pub gets: Vec<u64>,
}

impl Window {
    fn ops(&self) -> usize {
        self.puts.len() + self.gets.len()
    }
}

/// The median over `windows` of each window's `p`-quantile of the
/// latencies `pick` chooses, skipping windows that have none.
pub fn window_median(windows: &[Window], pick: fn(&Window) -> &[u64], p: f64) -> f64 {
    median(
        windows
            .iter()
            .map(pick)
            .filter(|ns| !ns.is_empty())
            .map(|ns| percentile(ns, p))
            .collect(),
    )
}

pub fn puts(w: &Window) -> &[u64] {
    &w.puts
}

pub fn gets(w: &Window) -> &[u64] {
    &w.gets
}

/// A phase's figures: throughput in ops/s and PUT latencies in ns as the
/// median over its windows, and the server's counters from the phase's
/// first sample to its last.
pub struct Figures {
    pub throughput: f64,
    pub put_p50_ns: f64,
    pub put_p99_ns: f64,
    pub fences_per_put: f64,
    pub cpu_us_per_op: f64,
}

impl Phase {
    /// The acknowledged ops by the window they completed in. Ops completed
    /// after the last boundary count in the last window.
    pub fn windows(&self) -> Vec<Window> {
        let width_ms = self.width.as_millis().max(1) as u32;
        let mut windows = vec![Window::default(); self.samples.len() - 1];
        let last = windows.len() - 1;
        let at = |end: u32| ((end / width_ms) as usize).min(last);
        let t = &self.tally;
        for (&ns, &end) in t.put_ns.iter().zip(&t.put_end_ms) {
            windows[at(end)].puts.push(ns);
        }
        for (&ns, &end) in t.get_ns.iter().zip(&t.get_end_ms) {
            windows[at(end)].gets.push(ns);
        }
        for w in &mut windows {
            w.puts.sort_unstable();
            w.gets.sort_unstable();
        }
        windows
    }

    pub fn figures(&self, windows: &[Window]) -> Figures {
        let ops = self.tally.acked() as f64;
        let (s0, p0) = self.samples.first().expect("phase start sample");
        let (s1, p1) = self.samples.last().expect("phase end sample");
        let fences = (s1.persistent_fences - s0.persistent_fences)
            - (s1.maintenance_fences - s0.maintenance_fences);
        let width = self.width.as_secs_f64();
        Figures {
            throughput: median(windows.iter().map(|w| w.ops() as f64 / width).collect()),
            put_p50_ns: window_median(windows, puts, 0.50),
            put_p99_ns: window_median(windows, puts, 0.99),
            fences_per_put: ratio(fences as f64, self.tally.put_ns.len() as f64),
            cpu_us_per_op: ratio((p1.cpu_s - p0.cpu_s) * 1e6, ops),
        }
    }

    /// Logs every window to stderr: host CPU time stolen, server CPU time,
    /// and the count, p50 and p99 of its PUTs and of its GETs.
    pub fn log_windows(&self, what: &str, windows: &[Window]) {
        eprintln!("{what}: {}ms windows", self.width.as_millis());
        for (i, (w, pair)) in windows.iter().zip(self.samples.windows(2)).enumerate() {
            let ((_, p0), (_, p1)) = (&pair[0], &pair[1]);
            eprintln!(
                "  window {i:2}: steal {:.2}s  cpu {:.2}s  put {:6} {:7.1} {:7.1}us  get {:6} {:7.1} {:7.1}us",
                p1.steal_s - p0.steal_s,
                p1.cpu_s - p0.cpu_s,
                w.puts.len(),
                percentile(&w.puts, 0.5) / 1e3,
                percentile(&w.puts, 0.99) / 1e3,
                w.gets.len(),
                percentile(&w.gets, 0.5) / 1e3,
                percentile(&w.gets, 0.99) / 1e3,
            );
        }
    }
}

/// Reads every connection's keys back once, in parallel.
pub fn read_back(
    targets: &mut [ResilientSession],
    models: &mut [Model],
    workload: Workload,
) -> Tally {
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter_mut()
            .zip(models.iter_mut())
            .enumerate()
            .map(|(conn, (target, model))| {
                scope.spawn(move || {
                    let mut stream = OpStream::read_back(workload, conn);
                    let pass = Stop::Ops(stream.owned());
                    load::run_ops(target, conn, &mut stream, model, pass, Instant::now(), None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("read-back thread panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    for t in tallies {
        tally.merge(t);
    }
    tally
}

/// Folds a tally's failures and mismatches into the report, counting its
/// acknowledged values under `check`.
pub fn account(report: &mut Report, tally: &Tally, check: &'static str, what: &str) {
    report.checked(check, tally.acked());
    report.attempted += tally.attempted;
    report.failed += tally.failed;
    if tally.mismatches > 0 {
        report.fail(format!(
            "{what}: {} mismatches, first: {}",
            tally.mismatches,
            tally.first_problem.as_deref().unwrap_or("?")
        ));
    } else if let Some(problem) = &tally.first_problem {
        eprintln!("{what}: {} failed ops, first: {problem}", tally.failed);
    }
}

/// A read phase of a put-only workload: both connections GET their own keys
/// in order for half of [`READ_SECONDS`]. Adds its windows to
/// `get_windows` and returns the sessions and models for the next phase.
fn read_phase(
    server: &ServerProcess,
    sessions: Vec<ResilientSession>,
    models: Vec<Model>,
    workload: Workload,
    report: &mut Report,
    get_windows: &mut Vec<Window>,
    what: &str,
) -> Result<(Vec<ResilientSession>, Vec<Model>), String> {
    let reads = (0..CONNECTIONS)
        .map(|conn| OpStream::read_back(workload, conn))
        .collect();
    let phase = measure(
        server,
        sessions,
        (reads, models),
        Duration::ZERO,
        READ_SECONDS / 2.0,
        WINDOW,
    )?;
    account(report, &phase.tally, READ_YOUR_WRITES, what);
    let windows = phase.windows();
    phase.log_windows(what, &windows);
    get_windows.extend(windows);
    Ok((phase.sessions, phase.models))
}

fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

pub fn run(
    bin: &Path,
    stores: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let dir = stores.join("store");
    let keys = workload.keys();
    let mut report = Report::new();

    let mut setup_times: Vec<f64> = Vec::with_capacity(MAX_SETUPS);
    let mut loaded: Option<Loaded> = None;
    while setup_times.len() < SETUPS
        || (setup_times.iter().sum::<f64>() < SETUP_SECONDS && setup_times.len() < MAX_SETUPS)
    {
        // Dropping the previous set-up kills its server before the next one
        // reuses the directory.
        drop(loaded.take());
        let l = set_up(bin, &dir, workload, seed)?;
        setup_times.push(l.setup_s);
        loaded = Some(l);
    }
    let Loaded {
        mut server,
        sessions,
        ..
    } = loaded.expect("at least one set-up");
    let rss_after_setup = ProcSample::take(server.pid()).rss;

    let (streams, models) = fresh_streams(workload, seed);
    let mut get_windows = Vec::new();
    let (sessions, models) = if workload.has_gets() {
        (sessions, models)
    } else {
        read_phase(
            &server,
            sessions,
            models,
            workload,
            &mut report,
            &mut get_windows,
            "read phase 1",
        )?
    };
    let mut main = measure(
        &server,
        sessions,
        (streams, models),
        WARMUP,
        seconds,
        WINDOW,
    )?;
    account(&mut report, &main.warmup, READ_YOUR_WRITES, "warm-up");
    account(&mut report, &main.tally, READ_YOUR_WRITES, "measured phase");
    let main_windows = main.windows();
    main.log_windows("measured phase", &main_windows);
    let sessions = std::mem::take(&mut main.sessions);
    let models = std::mem::take(&mut main.models);
    let (mut sessions, mut models) = if workload.has_gets() {
        get_windows.clone_from(&main_windows);
        (sessions, models)
    } else {
        read_phase(
            &server,
            sessions,
            models,
            workload,
            &mut report,
            &mut get_windows,
            "read phase 2",
        )?
    };
    let checked = read_back(&mut sessions, &mut models, workload);
    account(&mut report, &checked, READ_BACK, "read-back of every key");
    drop(sessions);

    let mut expected = Model::preloaded(seed, keys, 0);
    for model in models {
        expected.absorb(model);
    }
    let mut recovery_times = Vec::with_capacity(RECOVERIES);
    for _ in 0..RECOVERIES {
        let started = Instant::now();
        server.kill();
        server = ServerProcess::spawn(bin, &dir)?;
        recovery_times.push(started.elapsed().as_secs_f64());
        let mut sessions: Vec<ResilientSession> = (0..CONNECTIONS)
            .map(|conn| load::session(&server.addr(), conn))
            .collect();
        let mut models = vec![expected.clone(); CONNECTIONS];
        let checked = read_back(&mut sessions, &mut models, workload);
        account(
            &mut report,
            &checked,
            AFTER_RESTART,
            "read-back after SIGKILL and restart",
        );
    }
    drop(server);
    clear(&dir)?;

    let main_figures = main.figures(&main_windows);
    let t = &main.tally;
    let (_, first) = main.samples.first().expect("phase start sample");
    let (_, last) = main.samples.last().expect("phase end sample");
    report.metric("throughput_ops_s", main_figures.throughput, "ops/s");
    report.metric("put_p50_us", us(main_figures.put_p50_ns), "us");
    report.metric("put_p99_us", us(main_figures.put_p99_ns), "us");
    report.metric(
        "get_p50_us",
        us(window_median(&get_windows, gets, 0.50)),
        "us",
    );
    report.metric(
        "get_p99_us",
        us(window_median(&get_windows, gets, 0.99)),
        "us",
    );
    report.metric(
        "success_rate",
        ratio(t.acked() as f64, t.attempted as f64),
        "ratio",
    );
    report.metric("fences_per_put", main_figures.fences_per_put, "1/put");
    report.metric("setup_s", median(setup_times), "s");
    report.metric("recovery_s", median(recovery_times), "s");
    report.metric(
        "server_rss_mb",
        rss_after_setup as f64 / (1u64 << 20) as f64,
        "MiB",
    );
    report.metric(
        "rss_growth_bytes_per_put",
        ratio(last.rss as f64 - first.rss as f64, t.put_ns.len() as f64),
        "B/put",
    );
    report.metric("server_cpu_us_per_op", main_figures.cpu_us_per_op, "us/op");
    Ok(report)
}
