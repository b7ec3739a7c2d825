//! The traced run: the same seed and op stream, split by layer.
//!
//! Passes, in order:
//!
//! 0. **Untraced.** A spawned `onll_server` process, as in the untraced run,
//!    for a third of the seconds: the baseline of `trace.overhead_pct`, and
//!    the server's write syscalls and context switches read from `/proc`.
//! 1. **TCP.** The server hosted in this process through its public API
//!    (`OnllServer::open` with telemetry enabled, `serve` on a loopback
//!    listener), driven over TCP for a third of the seconds with a span
//!    around every client call. The program's telemetry histograms and its
//!    `merged_stats`, `batch_stats` and `read_stats` are read on both sides.
//! 2. **Direct.** The same ops, as many per connection as pass 1 sent,
//!    through `service().client_for(i)`: `submit_routed_with_id` for PUT and
//!    `read_snapshot` for GET, each call in a span with the same request id
//!    as in pass 1.
//! 3. **Codec.** The same ops' request and reply frames through
//!    `wire::{write,read}_{request,reply}` on an in-memory buffer.
//!
//! Put-only workloads add the read-back sweep to passes 1 and 2, so the GET
//! rows exist for every workload. Enabled telemetry slows the hot path, so
//! these numbers attribute time; they are not for claims.

use crate::e2e::{self, account, clear, READ_YOUR_WRITES};
use crate::load::{self, Direct, Span, SpanSink, Stop, Tally};
use crate::proc;
use crate::report::{mean, percentile, ratio, Report};
use crate::workload::{key_name, Model, Op, OpStream, Workload, CONNECTIONS};
use durable_objects::{KvSpec, KvValue};
use nvm_sim::{HistogramSnapshot, Telemetry, TelemetrySnapshot, ThreadStatsSnapshot};
use onll::{OpId, ReadStats};
use onll_server::wire::{self, Reply, Request};
use onll_server::{OnllServer, ResilientSession, ServerConfig};
use onll_shard::ShardedServiceClient;
use std::io::Write;
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

/// Requests whose spans are written out (the first ones of each pass).
const SPANS_WRITTEN: usize = 50_000;

/// Reads per connection in the read-back sweep of put-only workloads.
const SWEEP_GETS: u64 = 10_000;

/// The program's counters at one instant.
struct Counters {
    telemetry: TelemetrySnapshot,
    nvm: ThreadStatsSnapshot,
    batches: (u64, u64),
    reads: ReadStats,
}

impl Counters {
    fn take(server: &OnllServer, telemetry: &Telemetry) -> Self {
        Counters {
            telemetry: telemetry.snapshot(),
            nvm: server.store().merged_stats(),
            batches: server.service().batch_stats(),
            reads: server.service().read_stats(),
        }
    }
}

/// Counter and histogram differences between two [`Counters`].
struct Delta<'a> {
    before: &'a Counters,
    after: &'a Counters,
}

impl Delta<'_> {
    fn hist(&self, name: &str) -> HistogramSnapshot {
        let mut h = self
            .after
            .telemetry
            .histogram(name)
            .cloned()
            .unwrap_or_else(|| HistogramSnapshot::empty(name));
        if let Some(b) = self.before.telemetry.histogram(name) {
            for (a, b) in h.buckets.iter_mut().zip(b.buckets.iter()) {
                *a -= b;
            }
            h.count -= b.count;
            h.sum = h.sum.wrapping_sub(b.sum);
        }
        h
    }

    fn counter(&self, name: &str) -> u64 {
        let value = |c: &Counters| c.telemetry.counter(name).map_or(0, |c| c.value);
        value(self.after) - value(self.before)
    }
}

/// One connection's share of a traced pass.
struct PassOutput {
    tally: Tally,
    sweep: Tally,
    ops: u64,
    model: Model,
    spans: Vec<Span>,
}

/// Drives one connection: the op loop until `stop`, then (put-only
/// workloads) the read-back sweep, spans named after `names`.
#[allow(clippy::too_many_arguments)]
fn drive(
    target: &mut impl load::KvTarget,
    conn: usize,
    workload: Workload,
    seed: u64,
    mut model: Model,
    stop: Stop,
    epoch: Instant,
    names: (&'static str, &'static str),
) -> PassOutput {
    let mut spans = Vec::new();
    let mut stream = OpStream::new(seed, workload, conn);
    let tally = load::run_ops(
        target,
        conn,
        &mut stream,
        &mut model,
        stop,
        epoch,
        Some(SpanSink::new(&mut spans, names)),
    );
    let ops = tally.attempted;
    let sweep = if workload.has_gets() {
        Tally::default()
    } else {
        let mut reads = OpStream::read_back(workload, conn);
        let gets = Stop::Ops(SWEEP_GETS.max(reads.owned()));
        load::run_ops(
            target,
            conn,
            &mut reads,
            &mut model,
            gets,
            epoch,
            Some(SpanSink::new(&mut spans, names)),
        )
    };
    PassOutput {
        tally,
        sweep,
        ops,
        model,
        spans,
    }
}

/// A whole pass: every connection's output merged, with per-connection op
/// counts and models kept in connection order.
struct Pass {
    tally: Tally,
    sweep: Tally,
    ops: Vec<u64>,
    models: Vec<Model>,
    spans: Vec<Span>,
}

fn merge(outputs: Vec<PassOutput>) -> Pass {
    let mut pass = Pass {
        tally: Tally::default(),
        sweep: Tally::default(),
        ops: Vec::new(),
        models: Vec::new(),
        spans: Vec::new(),
    };
    for o in outputs {
        pass.tally.merge(o.tally);
        pass.sweep.merge(o.sweep);
        pass.ops.push(o.ops);
        pass.models.push(o.model);
        pass.spans.extend(o.spans.into_iter().take(SPANS_WRITTEN));
    }
    pass
}

/// Claims session slot `conn` on the service, waiting for the TCP
/// handler that held it to notice its connection closed.
fn direct_client(server: &OnllServer, conn: usize) -> Result<ShardedServiceClient<KvSpec>, String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match server.service().client_for(conn) {
            Ok(client) => return Ok(client),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("claim service slot {conn}: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Mean request and reply encode and decode times, and bytes, per op.
struct Codec {
    encode_ns: f64,
    decode_ns: f64,
    bytes_per_op: f64,
}

/// Encodes and decodes the frames of each connection's first `ops[conn]` ops.
fn codec_pass(workload: Workload, seed: u64, ops: &[u64]) -> Result<Codec, String> {
    let mut frames = Vec::new();
    for (conn, &n) in ops.iter().enumerate() {
        let mut stream = OpStream::new(seed, workload, conn);
        for seq in 1..=n {
            let (request, value) = match stream.next_op() {
                Op::Put { key, value } => (
                    Request::Put {
                        op_id: OpId::new(conn as u32 + 1, seq),
                        key: key_name(key),
                        value: value.clone(),
                    },
                    value,
                ),
                Op::Get { key } => (Request::Get { key: key_name(key) }, format!("{seq:016x}")),
            };
            let reply = Reply::Value {
                shard: 0,
                value: KvValue::Value(Some(value)),
            };
            frames.push((request, reply));
        }
    }
    let n = frames.len().max(1) as f64;
    let err = |e: wire::WireError| format!("codec pass: {e}");
    let mut requests: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
    let mut replies: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
    let started = Instant::now();
    for (request, reply) in &frames {
        let mut req = Vec::with_capacity(64);
        wire::write_request(&mut req, request).map_err(err)?;
        let mut rep = Vec::with_capacity(64);
        wire::write_reply(&mut rep, reply).map_err(err)?;
        requests.push(req);
        replies.push(rep);
    }
    let encode = started.elapsed();
    let started = Instant::now();
    for ((req, rep), (request, reply)) in requests.iter().zip(&replies).zip(&frames) {
        let decoded_request = wire::read_request(&mut req.as_slice()).map_err(err)?;
        let decoded_reply = wire::read_reply(&mut rep.as_slice()).map_err(err)?;
        if &decoded_request != request || &decoded_reply != reply {
            return Err("codec pass: a frame did not round-trip".into());
        }
    }
    let decode = started.elapsed();
    let bytes: usize = requests.iter().chain(&replies).map(Vec::len).sum();
    Ok(Codec {
        encode_ns: encode.as_nanos() as f64 / n,
        decode_ns: decode.as_nanos() as f64 / n,
        bytes_per_op: bytes as f64 / n,
    })
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?,
    );
    let io = |e: std::io::Error| format!("write {}: {e}", path.display());
    writeln!(out, "request_id\tspan\tstart_ns\tend_ns").map_err(io)?;
    for s in spans {
        writeln!(out, "{:#x}\t{}\t{}\t{}", s.id, s.name, s.start_ns, s.end_ns).map_err(io)?;
    }
    out.flush().map_err(io)
}

fn all_latencies(t: &Tally) -> Vec<u64> {
    t.put_ns.iter().chain(&t.get_ns).copied().collect()
}

pub fn run(
    bin: &Path,
    work: &Path,
    stores: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let share = Duration::from_secs_f64(seconds / 3.0);
    let keys = workload.keys();
    let mut report = Report::new();

    // Pass 0: untraced, out of process.
    let dir = stores.join("store");
    let loaded = e2e::set_up(bin, &dir, workload, seed)?;
    // No warm-up: pass 1 has none either, and this pass is its baseline.
    let base = e2e::measure(
        &loaded.server,
        loaded.sessions,
        e2e::fresh_streams(workload, seed),
        Duration::ZERO,
        share.as_secs_f64(),
        e2e::WINDOW,
    )?;
    drop(loaded.server);
    clear(&dir)?;
    account(&mut report, &base.tally, READ_YOUR_WRITES, "untraced pass");
    let base_mean = mean(&all_latencies(&base.tally));
    let (_, p0) = base.samples.first().expect("phase start sample");
    let (_, p1) = base.samples.last().expect("phase end sample");
    let base_acked = base.tally.acked() as f64;

    // Passes 1-3: in process, telemetry on.
    let dir = stores.join("store-traced");
    clear(&dir)?;
    let telemetry = Telemetry::enabled();
    let mut config = ServerConfig::new(&dir);
    config.telemetry = telemetry.clone();
    // The server's threads (checkpointers from `open`, connection handlers
    // from `serve`) inherit the server CPU from the thread that creates them.
    let (server, _) = std::thread::spawn(move || {
        proc::pin_to_server_cpu();
        OnllServer::open(config)
    })
    .join()
    .expect("server open thread panicked")
    .map_err(|e| format!("open server: {e}"))?;
    let listener =
        TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind loopback listener: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("listener address: {e}"))?
        .to_string();
    let epoch = Instant::now();

    let passes = std::thread::scope(|scope| {
        let serving = scope.spawn(|| {
            proc::pin_to_server_cpu();
            server.serve(listener)
        });
        let passes = (|| {
            let sessions = load::preload_sessions(&addr, seed, keys)?;
            let before = Counters::take(&server, &telemetry);
            let deadline = Instant::now() + share;
            let tcp: Vec<(PassOutput, ResilientSession)> = std::thread::scope(|s| {
                let handles: Vec<_> = sessions
                    .into_iter()
                    .enumerate()
                    .map(|(conn, mut session)| {
                        s.spawn(move || {
                            let model = Model::preloaded(seed, keys, conn);
                            let out = drive(
                                &mut session,
                                conn,
                                workload,
                                seed,
                                model,
                                Stop::At(deadline),
                                epoch,
                                ("client.put", "client.get"),
                            );
                            (out, session)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("TCP pass thread panicked"))
                    .collect()
            });
            let after = Counters::take(&server, &telemetry);
            let (outputs, sessions): (Vec<PassOutput>, Vec<ResilientSession>) =
                tcp.into_iter().unzip();
            // Closing the sessions frees their service slots for pass 2.
            drop(sessions);
            let tcp = merge(outputs);

            let direct: Vec<PassOutput> = {
                let clients: Vec<_> = (0..CONNECTIONS)
                    .map(|conn| direct_client(&server, conn))
                    .collect::<Result<_, _>>()?;
                std::thread::scope(|s| {
                    let handles: Vec<_> = clients
                        .into_iter()
                        .zip(tcp.models.iter().cloned())
                        .zip(tcp.ops.iter().copied())
                        .enumerate()
                        .map(|(conn, ((client, model), ops))| {
                            s.spawn(move || {
                                drive(
                                    &mut Direct(client),
                                    conn,
                                    workload,
                                    seed,
                                    model,
                                    Stop::Ops(ops),
                                    epoch,
                                    ("shard.submit", "shard.read_snapshot"),
                                )
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("direct pass thread panicked"))
                        .collect()
                })
            };
            Ok::<_, String>((before, after, tcp, merge(direct)))
        })();
        server.health().request_shutdown();
        let served = serving.join().expect("serve thread panicked");
        passes.and_then(|p| {
            served.map_err(|e| format!("serve: {e}"))?;
            Ok(p)
        })
    })?;
    drop(server);
    clear(&dir)?;
    let (before, after, tcp, direct) = passes;
    let Pass {
        tally: tcp_tally,
        sweep: tcp_sweep,
        ops,
        mut spans,
        ..
    } = tcp;
    let Pass {
        tally: direct_tally,
        sweep: direct_sweep,
        spans: direct_spans,
        ..
    } = direct;
    for (tally, what) in [
        (&tcp_tally, "traced TCP pass"),
        (&tcp_sweep, "traced TCP read-back"),
        (&direct_tally, "direct pass"),
        (&direct_sweep, "direct read-back"),
    ] {
        account(&mut report, tally, READ_YOUR_WRITES, what);
    }
    spans.extend(direct_spans);
    write_spans(
        &work.join(format!("spans-{}-seed{seed}.tsv", workload.name())),
        &spans,
    )?;
    let codec = codec_pass(workload, seed, &ops)?;

    let d = Delta {
        before: &before,
        after: &after,
    };
    let (tcp_gets, direct_gets) = if workload.has_gets() {
        (&tcp_tally.get_ns, &direct_tally.get_ns)
    } else {
        (&tcp_sweep.get_ns, &direct_sweep.get_ns)
    };
    let puts = tcp_tally.put_ns.len() as f64;
    let put_client = mean(&tcp_tally.put_ns);
    let put_direct = mean(&direct_tally.put_ns);
    let get_client = mean(tcp_gets);
    let get_direct = mean(direct_gets);
    let phases = [
        "phase.order_ns",
        "phase.persist_ns",
        "phase.linearize_ns",
        "phase.response_ns",
    ];
    let phase_sum: f64 = phases.iter().map(|p| d.hist(p).mean()).sum();
    let publish = d.hist("combine.snapshot_publish_ns");
    let fence = d.hist("file.fence_ns");
    let nvm_fences = d.after.nvm.persistent_fences - d.before.nvm.persistent_fences;
    let nvm_maint = d.after.nvm.maintenance_fences - d.before.nvm.maintenance_fences;
    let reads = (
        d.after.reads.snapshot_reads - d.before.reads.snapshot_reads,
        d.after.reads.latest_reads - d.before.reads.latest_reads,
    );
    let (batches, combined) = (
        d.after.batches.0 - d.before.batches.0,
        d.after.batches.1 - d.before.batches.1,
    );
    let mut sorted_submit = direct_tally.put_ns.clone();
    sorted_submit.sort_unstable();
    let mut sorted_read = direct_gets.clone();
    sorted_read.sort_unstable();
    let us = 1e-3;

    report.metric(
        "client.retries_per_op",
        ratio(
            (tcp_tally.retries + tcp_sweep.retries) as f64,
            (tcp_tally.attempted + tcp_sweep.attempted) as f64,
        ),
        "1/op",
    );
    report.metric("wire.encode_ns", codec.encode_ns, "ns");
    report.metric("wire.decode_ns", codec.decode_ns, "ns");
    report.metric("wire.bytes_per_op", codec.bytes_per_op, "B/op");
    report.metric(
        "server.put_overhead_us",
        (put_client - put_direct) * us,
        "us",
    );
    report.metric(
        "server.get_overhead_us",
        (get_client - get_direct) * us,
        "us",
    );
    report.metric("server.read_ns", d.hist("server.read_ns").mean(), "ns");
    report.metric(
        "shard.submit_p50_us",
        percentile(&sorted_submit, 0.50) * us,
        "us",
    );
    report.metric(
        "shard.submit_p99_us",
        percentile(&sorted_submit, 0.99) * us,
        "us",
    );
    report.metric(
        "shard.read_snapshot_p50_ns",
        percentile(&sorted_read, 0.50),
        "ns",
    );
    report.metric(
        "shard.read_snapshot_p99_ns",
        percentile(&sorted_read, 0.99),
        "ns",
    );
    report.metric(
        "combine.riders_per_batch",
        ratio(combined as f64, batches as f64),
        "ops/batch",
    );
    report.metric(
        "combine.submit_ns",
        d.hist("combine.submit_ns").mean(),
        "ns",
    );
    for p in phases {
        report.metric(p, d.hist(p).mean(), "ns");
    }
    report.metric(
        "combine.snapshot_publish_p50_ns",
        publish.p50() as f64,
        "ns",
    );
    report.metric(
        "combine.snapshot_publish_p99_ns",
        publish.p99() as f64,
        "ns",
    );
    report.metric(
        "reads.snapshot_share",
        ratio(reads.0 as f64, (reads.0 + reads.1) as f64),
        "ratio",
    );
    for c in ["ckpt.stage_ns", "ckpt.publish_ns", "ckpt.truncate_ns"] {
        report.metric(c, d.hist(c).mean(), "ns");
    }
    report.metric(
        "ckpt.checkpoints_per_kput",
        ratio(d.counter("ckpt.checkpoints") as f64 * 1e3, puts),
        "1/kput",
    );
    report.metric("log.entry_bytes", d.hist("log.entry_bytes").mean(), "B");
    report.metric(
        "log.ops_per_entry",
        d.hist("log.ops_per_entry").mean(),
        "ops/entry",
    );
    report.metric("file.fence_ns", fence.mean(), "ns");
    report.metric("file.fsync_ns", d.hist("file.fsync_ns").mean(), "ns");
    report.metric(
        "file.lock_wait_ns",
        d.hist("file.lock_wait_ns").mean(),
        "ns",
    );
    report.metric(
        "nvm.persistent_fences_per_put",
        ratio(nvm_fences as f64, puts),
        "1/put",
    );
    report.metric(
        "nvm.maintenance_fences_per_put",
        ratio(nvm_maint as f64, puts),
        "1/put",
    );
    report.metric(
        "nvm.flushed_lines_per_put",
        ratio(
            (d.after.nvm.flushed_lines - d.before.nvm.flushed_lines) as f64,
            puts,
        ),
        "lines/put",
    );
    report.metric(
        "nvm.stored_bytes_per_put",
        ratio(
            (d.after.nvm.stored_bytes - d.before.nvm.stored_bytes) as f64,
            puts,
        ),
        "B/put",
    );
    report.metric(
        "proc.write_syscalls_per_op",
        ratio((p1.write_syscalls - p0.write_syscalls) as f64, base_acked),
        "1/op",
    );
    report.metric(
        "proc.ctx_switches_per_op",
        ratio((p1.ctx_switches - p0.ctx_switches) as f64, base_acked),
        "1/op",
    );

    // The waterfall, from pass 1 alone so its rows share one set of
    // requests. PUT: client span → wire+server (the client span less the
    // server-side submit) → shard/core (`combine.submit_ns`) → core spans
    // (`phase.*` plus snapshot publication) → file fence, which sits inside
    // `phase.persist_ns`. What the core spans leave of the submit is
    // unattributed. GET: client span → wire+server → the handler-timed
    // snapshot read (`server.read_ns`).
    let submit = d.hist("combine.submit_ns").mean();
    let core_spans = phase_sum + publish.mean();
    let read = d.hist("server.read_ns").mean();
    report.metric("waterfall.put.client_us", put_client * us, "us");
    report.metric(
        "waterfall.put.wire_server_us",
        (put_client - submit) * us,
        "us",
    );
    report.metric("waterfall.put.shard_core_us", submit * us, "us");
    report.metric("waterfall.put.core_spans_us", core_spans * us, "us");
    report.metric("waterfall.put.fence_us", fence.mean() * us, "us");
    report.metric("waterfall.get.client_us", get_client * us, "us");
    report.metric(
        "waterfall.get.wire_server_us",
        (get_client - read) * us,
        "us",
    );
    report.metric("waterfall.get.shard_read_us", read * us, "us");
    report.metric(
        "waterfall.unattributed_us",
        (submit - core_spans) * us,
        "us",
    );
    report.metric(
        "trace.overhead_pct",
        (ratio(mean(&all_latencies(&tcp_tally)), base_mean) - 1.0) * 100.0,
        "%",
    );
    Ok(report)
}
