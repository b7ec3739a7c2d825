//! The closed loop: one thread per connection sends its next request only
//! after the previous reply, checks every reply against the expected-state
//! model, and times each call.

use crate::workload::{key_name, preload_value, Model, Op, OpStream, CONNECTIONS};
use durable_objects::{KvOp, KvRead, KvSpec, KvValue};
use onll_server::client::ServerStats;
use onll_server::wire::{self, Reply, Request};
use onll_server::{ResilientSession, RetryPolicy};
use onll_shard::ShardedServiceClient;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Retry budget of one operation. A failing op (e.g. a `LogFull` the server
/// flags retryable) is counted as failed after this long instead of stalling
/// the run.
pub const OP_DEADLINE: Duration = Duration::from_secs(1);

/// A key-value endpoint the loop can drive: a TCP session, or the server's
/// service called directly.
pub trait KvTarget {
    /// Writes `key`; returns the previous value.
    fn put(&mut self, key: &str, value: &str) -> Result<Option<String>, String>;
    fn get(&mut self, key: &str) -> Result<Option<String>, String>;
    /// Retries made so far (reconnects plus resends).
    fn retries(&self) -> u64 {
        0
    }
}

fn plain_value(value: KvValue) -> Result<Option<String>, String> {
    match value {
        KvValue::Value(v) => Ok(v),
        other => Err(format!("unexpected reply value {other:?}")),
    }
}

/// A resilient wire session for connection `conn` with the bounded per-op
/// deadline.
pub fn session(addr: &str, conn: usize) -> ResilientSession {
    let policy = RetryPolicy::with_deadline(OP_DEADLINE).seed(0xB0A7 + conn as u64);
    ResilientSession::new(addr, conn as u32, policy)
}

impl KvTarget for ResilientSession {
    fn put(&mut self, key: &str, value: &str) -> Result<Option<String>, String> {
        let (prev, _, _) = ResilientSession::put(self, key, value).map_err(|e| e.to_string())?;
        plain_value(prev)
    }

    fn get(&mut self, key: &str) -> Result<Option<String>, String> {
        plain_value(ResilientSession::get(self, key).map_err(|e| e.to_string())?)
    }

    fn retries(&self) -> u64 {
        ResilientSession::retries(self)
    }
}

/// The server's own service path, without TCP: what a connection handler
/// calls for a PUT (`submit_routed_with_id`) and a GET (`read_snapshot`).
pub struct Direct(pub ShardedServiceClient<KvSpec>);

impl KvTarget for Direct {
    fn put(&mut self, key: &str, value: &str) -> Result<Option<String>, String> {
        let key = key.to_string();
        let shard = self.0.shard_of(&key);
        let op_id = self.0.shard_client(shard).peek_next_op_id();
        let (prev, _, _) = self
            .0
            .submit_routed_with_id(op_id, KvOp::Put(key, value.to_string()))
            .map_err(|e| e.to_string())?;
        plain_value(prev)
    }

    fn get(&mut self, key: &str) -> Result<Option<String>, String> {
        plain_value(self.0.read_snapshot(&KvRead::Get(key.to_string())))
    }
}

/// One benchmark-side span. Spans of one request share `id`, across passes.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where a loop records spans, and the span names for its PUT and GET calls.
pub struct SpanSink<'a> {
    pub put_name: &'static str,
    pub get_name: &'static str,
    pub spans: &'a mut Vec<Span>,
}

impl<'a> SpanSink<'a> {
    /// A sink naming PUT spans `names.0` and GET spans `names.1`.
    pub fn new(spans: &'a mut Vec<Span>, names: (&'static str, &'static str)) -> Self {
        SpanSink {
            put_name: names.0,
            get_name: names.1,
            spans,
        }
    }
}

/// What one connection's loop observed. `*_end_ms[i]` is when the `i`th
/// acknowledged op of its kind completed, in milliseconds since the loop's
/// epoch.
#[derive(Debug, Default)]
pub struct Tally {
    pub put_ns: Vec<u64>,
    pub get_ns: Vec<u64>,
    pub put_end_ms: Vec<u32>,
    pub get_end_ms: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub first_problem: Option<String>,
    pub retries: u64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.put_ns.extend(other.put_ns);
        self.get_ns.extend(other.get_ns);
        self.put_end_ms.extend(other.put_end_ms);
        self.get_end_ms.extend(other.get_end_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.retries += other.retries;
        if self.first_problem.is_none() {
            self.first_problem = other.first_problem;
        }
    }

    pub fn acked(&self) -> u64 {
        (self.put_ns.len() + self.get_ns.len()) as u64
    }

    fn put_acked(&mut self, ns: u64, end_ms: u32) {
        self.put_ns.push(ns);
        self.put_end_ms.push(end_ms);
    }

    fn get_acked(&mut self, ns: u64, end_ms: u32) {
        self.get_ns.push(ns);
        self.get_end_ms.push(end_ms);
    }

    fn problem(&mut self, what: String) {
        if self.first_problem.is_none() {
            self.first_problem = Some(what);
        }
    }

    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.problem(what);
    }
}

/// When a loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    At(Instant),
    Ops(u64),
}

/// Runs `stream` against `target` until `stop`. Every PUT's returned previous
/// value and every GET's value must match `model` (read-your-writes on the
/// connection's own keys). Times are taken relative to `epoch`.
#[allow(clippy::too_many_arguments)]
pub fn run_ops(
    target: &mut impl KvTarget,
    conn: usize,
    stream: &mut OpStream,
    model: &mut Model,
    stop: Stop,
    epoch: Instant,
    mut sink: Option<SpanSink<'_>>,
) -> Tally {
    let mut tally = Tally::default();
    let retries_before = target.retries();
    loop {
        match stop {
            Stop::At(deadline) if Instant::now() >= deadline => break,
            Stop::Ops(n) if tally.attempted >= n => break,
            _ => {}
        }
        let op = stream.next_op();
        let (key, put_value) = match &op {
            Op::Put { key, value } => (*key, Some(value.as_str())),
            Op::Get { key } => (*key, None),
        };
        let name = key_name(key);
        tally.attempted += 1;
        let t0 = Instant::now();
        let result = match put_value {
            Some(value) => target.put(&name, value),
            None => target.get(&name),
        };
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        let end_ms = (t1 - epoch).as_millis() as u32;
        if let Some(sink) = sink.as_mut() {
            sink.spans.push(Span {
                // The n-th request of a connection in a pass: passes replay
                // the same stream, so a request keeps its id across them.
                id: ((conn as u64) << 48) | sink.spans.len() as u64,
                name: if put_value.is_some() {
                    sink.put_name
                } else {
                    sink.get_name
                },
                start_ns: (t0 - epoch).as_nanos() as u64,
                end_ns: (t1 - epoch).as_nanos() as u64,
            });
        }
        match (result, put_value) {
            (Ok(prev), Some(value)) => {
                if !model.observe(key, prev.as_deref()) {
                    tally.mismatch(format!(
                        "PUT {name} returned previous value {prev:?}, not the last acknowledged one"
                    ));
                }
                model.acked(key, value);
                tally.put_acked(ns, end_ms);
            }
            (Ok(seen), None) => {
                if !model.observe(key, seen.as_deref()) {
                    tally.mismatch(format!(
                        "GET {name} returned {seen:?}, not the last acknowledged value"
                    ));
                }
                tally.get_acked(ns, end_ms);
            }
            (Err(e), value) => {
                tally.failed += 1;
                if let Some(value) = value {
                    model.unknown(key, value);
                }
                tally.problem(format!("{name}: {e}"));
            }
        }
    }
    tally.retries = target.retries() - retries_before;
    tally
}

/// Sessions that write the preload: the server's default session count, so
/// set-up runs at the server's full combining width. Session `i` writes the
/// keys `k` with `k % PRELOAD_SESSIONS == i`.
pub const PRELOAD_SESSIONS: usize = 8;

/// Writes session `slot`'s share of the preload into a fresh store. Set-up
/// must complete without a single error.
pub fn preload(
    target: &mut impl KvTarget,
    seed: u64,
    keys: usize,
    slot: usize,
) -> Result<(), String> {
    for key in (slot..keys).step_by(PRELOAD_SESSIONS) {
        let name = key_name(key);
        match target.put(&name, &preload_value(seed, key)) {
            Ok(None) => {}
            Ok(Some(prev)) => {
                return Err(format!(
                    "preload of {name} found a value {prev:?} in a fresh store"
                ))
            }
            Err(e) => return Err(format!("preload of {name} failed: {e}")),
        }
    }
    Ok(())
}

/// Preloads every key over [`PRELOAD_SESSIONS`] parallel sessions and returns
/// the connected sessions of the measured connections, index `i` for
/// connection `i`.
pub fn preload_sessions(
    addr: &str,
    seed: u64,
    keys: usize,
) -> Result<Vec<ResilientSession>, String> {
    let mut sessions: Vec<ResilientSession> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PRELOAD_SESSIONS)
            .map(|slot| {
                scope.spawn(move || {
                    let mut s = session(addr, slot);
                    preload(&mut s, seed, keys, slot).map(|()| s)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("preload thread panicked"))
            .collect::<Result<_, _>>()
    })?;
    sessions.truncate(CONNECTIONS);
    Ok(sessions)
}

/// The server's `STATS` counters, asked on a connection that claims no
/// session slot.
pub fn server_stats(addr: &str) -> Result<ServerStats, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    wire::write_request(&mut stream, &Request::Stats).map_err(|e| e.to_string())?;
    match wire::read_reply(&mut stream).map_err(|e| e.to_string())? {
        Reply::StatsOk {
            persistent_fences,
            maintenance_fences,
            batches,
            combined_ops,
            timeouts,
            busy_rejects,
            degraded_shards,
            snapshot_reads,
            latest_reads,
        } => Ok(ServerStats {
            persistent_fences,
            maintenance_fences,
            batches,
            combined_ops,
            timeouts,
            busy_rejects,
            degraded_shards,
            snapshot_reads,
            latest_reads,
        }),
        other => Err(format!("unexpected STATS reply {other:?}")),
    }
}
