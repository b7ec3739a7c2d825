//! Loopback integration tests against a **real** `onll_server` process.
//!
//! Everything here crosses a process boundary: the store lives in the spawned
//! server, the clients live in this test, and the only shared state is the
//! wire protocol (and, for the restart test, the on-disk pool files). Covered:
//!
//! * concurrent sessions submitting through the per-shard combiners,
//! * a client that disconnects mid-request and retries on a fresh connection
//!   using resolve + replay-under-the-same-identity (exactly-once),
//! * session slot reuse after disconnects,
//! * a long run of short-lived connections (one handler thread each),
//! * fence accounting visible through `STATS`.

use remembering_consistently::nvm::ScratchDir;
use remembering_consistently::objects::KvValue;
use remembering_consistently::server::{RetryOutcome, WireClient};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

const SERVER_BIN: &str = env!("CARGO_BIN_EXE_onll_server");

/// A spawned server process, killed on drop. `addr` is read from the child's
/// `READY <port> <recovered>` line.
struct ServerProcess {
    child: Child,
    addr: String,
    recovered: u64,
}

impl ServerProcess {
    fn spawn(dir: &std::path::Path, shards: usize, clients: usize) -> Self {
        let mut child = Command::new(SERVER_BIN)
            .arg("serve")
            .arg("--dir")
            .arg(dir)
            .args(["--shards", &shards.to_string()])
            .args(["--clients", &clients.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn onll_server");
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read READY line");
        let parts: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(parts.first(), Some(&"READY"), "unexpected line: {line}");
        let port: u16 = parts[1].parse().expect("port");
        let recovered: u64 = parts[2].parse().expect("recovered total");
        ServerProcess {
            child,
            addr: format!("127.0.0.1:{port}"),
            recovered,
        }
    }

    fn kill(mut self) {
        self.child.kill().expect("SIGKILL server");
        self.child.wait().expect("reap server");
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn value_of(v: &KvValue) -> Option<&str> {
    match v {
        KvValue::Value(s) => s.as_deref(),
        KvValue::Len(_) => panic!("expected a value, got a length"),
    }
}

#[test]
fn concurrent_sessions_combine_and_read_back() {
    let dir = ScratchDir::new("server-loopback").unwrap();
    let server = ServerProcess::spawn(dir.path(), 2, 8);
    assert_eq!(
        server.recovered, 0,
        "fresh directory must create, not recover"
    );

    let sessions: u32 = 4;
    let ops_per_session: usize = 40;
    std::thread::scope(|scope| {
        for conn in 0..sessions {
            let addr = server.addr.clone();
            scope.spawn(move || {
                let mut client =
                    WireClient::connect_with_retry(&addr, conn, 10).expect("connect session");
                for k in 0..ops_per_session {
                    let key = format!("c{conn}-k{k}");
                    let (prev, shard, op_id) =
                        client.put(&key, &format!("v{k}")).expect("durable put");
                    assert_eq!(value_of(&prev), None, "{key} written twice");
                    assert_eq!(op_id.pid, conn + 1, "identity pid is the session slot");
                    assert!(shard < client.num_shards());
                }
            });
        }
    });

    // Every write is visible through a fresh session, and the identity spaces
    // advanced: each session burned ops_per_session sequence numbers.
    let mut reader = WireClient::connect_with_retry(&server.addr, 0, 10).expect("reconnect");
    for conn in 0..sessions {
        for k in 0..ops_per_session {
            let key = format!("c{conn}-k{k}");
            let got = reader.get(&key).expect("get");
            assert_eq!(value_of(&got), Some(format!("v{k}").as_str()), "{key}");
        }
    }
    let stats = reader.stats().expect("stats");
    assert_eq!(stats.combined_ops, sessions as u64 * ops_per_session as u64);
    assert!(
        stats.batches <= stats.combined_ops,
        "batches combine one or more ops each"
    );
    server.kill();
}

/// The exactly-once path without a server crash: the *client* vanishes
/// mid-request (reply unread), reconnects on the same session index, resolves
/// the in-flight identity, and replays it only if it never executed. Whatever
/// the interleaving, the final state reflects exactly one application.
#[test]
fn disconnect_mid_request_resolves_then_replays_exactly_once() {
    let dir = ScratchDir::new("server-disconnect").unwrap();
    let server = ServerProcess::spawn(dir.path(), 2, 4);

    // Warm the session so the replayed op is not the identity space's first.
    let mut client = WireClient::connect_with_retry(&server.addr, 1, 10).expect("connect");
    client.put("warm", "w").expect("warm put");

    // Fire a put and abandon the socket without reading the reply. The server
    // may or may not have committed it by the time we reconnect — both paths
    // must end in exactly one application.
    let (shard, op_id) = client.send_put("inflight", "first").expect("send");
    client.abandon();

    let mut retry = WireClient::connect_with_retry(&server.addr, 1, 20).expect("reconnect");
    assert_eq!(
        retry.shard_of("inflight"),
        shard,
        "routing is deterministic"
    );
    let outcome = retry.resolve(shard, op_id).expect("resolve");
    match outcome {
        RetryOutcome::Executed(v) => {
            // Committed before the disconnect: the previous value must be the
            // fresh key's None, and the state must show it.
            assert_eq!(value_of(&v), None);
        }
        RetryOutcome::Unknown => {
            let (prev, replay_shard) = retry
                .put_with_id(op_id, "inflight", "first")
                .expect("replay under the same identity");
            assert_eq!(replay_shard, shard);
            assert_eq!(value_of(&prev), None);
        }
        RetryOutcome::Truncated => panic!("nothing was checkpointed, truncation impossible"),
    }
    let got = retry.get("inflight").expect("get");
    assert_eq!(value_of(&got), Some("first"));

    // The replayed identity now resolves Executed — a second retry would not
    // double-apply.
    assert_eq!(
        retry.resolve(shard, op_id).expect("re-resolve"),
        RetryOutcome::Executed(KvValue::Value(None))
    );

    // The identity space moved past the replayed op: the next update gets a
    // fresh identity and commits normally.
    let (_, _, next_id) = retry.put("inflight", "second").expect("follow-up");
    if retry.shard_of("inflight") == shard {
        assert!(next_id.seq > op_id.seq, "fresh identity after a replay");
    }
    let got = retry.get("inflight").expect("get");
    assert_eq!(value_of(&got), Some("second"));
    server.kill();
}

/// Kill-9 the server mid-request, restart it on the same directory, and run
/// the client recovery protocol. The acknowledged op must survive; the
/// in-flight op must resolve Executed or Unknown and end applied exactly once.
#[test]
fn server_kill9_restart_replays_unacked_identity_exactly_once() {
    let dir = ScratchDir::new("server-kill9-loopback").unwrap();
    let server = ServerProcess::spawn(dir.path(), 2, 4);

    let mut client = WireClient::connect_with_retry(&server.addr, 0, 10).expect("connect");
    let (_, acked_shard, acked_id) = client.put("acked", "safe").expect("acked put");
    let (inflight_shard, inflight_id) = client.send_put("inflight", "maybe").expect("send");
    // SIGKILL with the request possibly mid-fence. The reply may or may not
    // ever arrive; we don't read it.
    server.kill();
    drop(client);

    let server = ServerProcess::spawn(dir.path(), 2, 4);
    assert!(
        server.recovered >= 1,
        "the acknowledged op must be durable, recovered only {}",
        server.recovered
    );
    let mut retry = WireClient::connect_with_retry(&server.addr, 0, 20).expect("reconnect");

    // The acknowledged identity is stable across the crash.
    assert_eq!(
        retry.resolve(acked_shard, acked_id).expect("resolve acked"),
        RetryOutcome::Executed(KvValue::Value(None))
    );
    let got = retry.get("acked").expect("get acked");
    assert_eq!(value_of(&got), Some("safe"));

    // The in-flight identity either committed before the kill or is safely
    // replayable.
    match retry
        .resolve(inflight_shard, inflight_id)
        .expect("resolve inflight")
    {
        RetryOutcome::Executed(v) => assert_eq!(value_of(&v), None),
        RetryOutcome::Unknown => {
            let (prev, _) = retry
                .put_with_id(inflight_id, "inflight", "maybe")
                .expect("replay");
            assert_eq!(value_of(&prev), None);
        }
        RetryOutcome::Truncated => panic!("nothing was checkpointed, truncation impossible"),
    }
    let got = retry.get("inflight").expect("get inflight");
    assert_eq!(value_of(&got), Some("maybe"));
    assert_eq!(
        retry
            .resolve(inflight_shard, inflight_id)
            .expect("re-resolve"),
        RetryOutcome::Executed(KvValue::Value(None))
    );
    server.kill();
}

/// The server runs one handler thread per connection, and each handler
/// flushes and fences on the shard pools. A long run of short-lived
/// connections must keep being served: per-thread state is recycled when a
/// handler exits, so the number of connections over the server's lifetime
/// has no cap.
#[test]
fn thousand_sequential_connections_are_all_served() {
    let dir = ScratchDir::new("server-many-conns").unwrap();
    let clients = 4;
    let server = ServerProcess::spawn(dir.path(), 2, clients);
    let conns: u32 = 1000;
    let addr = server.addr.clone();
    let (done, finished) = mpsc::channel();
    let clients_loop = std::thread::spawn(move || {
        for conn in 0..conns {
            let mut client = WireClient::connect_with_retry(&addr, conn % clients as u32, 20)
                .unwrap_or_else(|e| panic!("connection {conn}: {e}"));
            let key = format!("k{conn}");
            let (prev, _, _) = client
                .put(&key, &format!("v{conn}"))
                .unwrap_or_else(|e| panic!("connection {conn}: put: {e}"));
            assert_eq!(value_of(&prev), None, "{key} written twice");
            let got = client
                .get(&key)
                .unwrap_or_else(|e| panic!("connection {conn}: get: {e}"));
            assert_eq!(value_of(&got), Some(format!("v{conn}").as_str()), "{key}");
        }
        done.send(()).unwrap();
    });
    // A server that stops answering must fail the test, not hang it; killing
    // the server (on drop) then unblocks the client loop.
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(120)) {
        panic!("the server stopped answering before {conns} connections");
    }
    if let Err(panic) = clients_loop.join() {
        std::panic::resume_unwind(panic);
    }
    let mut reader = WireClient::connect_with_retry(&server.addr, 0, 20).expect("reconnect");
    let stats = reader.stats().expect("STATS after the run");
    assert_eq!(stats.combined_ops, conns as u64);
    server.kill();
}
