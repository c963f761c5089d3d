//! Integration tests for the daemon with a stub handler: admission
//! control, disconnect resilience, caching, routing, clean shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use ptk_obs::QueryFlight;
use ptk_serve::{QueryHandler, Server, ServerConfig, ServerHandle};

/// Echoes statements; errors on `boom`; panics on `explode`; counts
/// executions so cache tests can prove the handler was bypassed on a hit.
/// A `?stats=` echo is not timing-free, as a real stats body is not.
/// `block` gates execution so admission tests can wedge every worker
/// deterministically.
struct StubHandler {
    entered: AtomicUsize,
    executions: AtomicUsize,
    gate: Mutex<bool>,
    released: Condvar,
}

impl StubHandler {
    fn new() -> StubHandler {
        StubHandler {
            entered: AtomicUsize::new(0),
            executions: AtomicUsize::new(0),
            gate: Mutex::new(false),
            released: Condvar::new(),
        }
    }

    fn close_gate(&self) {
        *self.gate.lock().unwrap() = true;
    }

    fn open_gate(&self) {
        *self.gate.lock().unwrap() = false;
        self.released.notify_all();
    }
}

impl QueryHandler for &'static StubHandler {
    fn execute(
        &self,
        statement: &str,
        stats: Option<&str>,
        flight: &mut QueryFlight,
    ) -> Result<(String, bool), String> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        flight.plan = format!("stub({statement})");
        flight.semantics = "stub".to_owned();
        flight.counters.insert("stub.calls".to_owned(), 1);
        let mut blocked = self.gate.lock().unwrap();
        while *blocked {
            let (guard, timeout) = self
                .released
                .wait_timeout(blocked, Duration::from_secs(10))
                .unwrap();
            blocked = guard;
            if timeout.timed_out() {
                break;
            }
        }
        drop(blocked);
        self.executions.fetch_add(1, Ordering::SeqCst);
        if statement.contains("boom") {
            return Err(format!("cannot execute '{statement}'"));
        }
        if statement.contains("explode") {
            panic!("stub handler exploded on '{statement}'");
        }
        match stats {
            Some(mode) => Ok((format!("echo: {statement}\nstats: {mode}\n"), false)),
            None => Ok((format!("echo: {statement}\n"), true)),
        }
    }
}

fn leak_handler() -> &'static StubHandler {
    Box::leak(Box::new(StubHandler::new()))
}

fn spawn(handler: &'static StubHandler, config: ServerConfig) -> ServerHandle {
    Server::new(handler, config)
        .spawn("127.0.0.1:0")
        .expect("bind loopback")
}

/// One raw HTTP round trip; returns the full response text.
fn roundtrip(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

fn post_sql(addr: SocketAddr, statement: &str) -> String {
    roundtrip(
        addr,
        &format!(
            "POST /sql HTTP/1.1\r\nContent-Length: {}\r\n\r\n{statement}",
            statement.len()
        ),
    )
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line")
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("")
}

fn metrics_text(addr: SocketAddr) -> String {
    let response = roundtrip(addr, "GET /metrics HTTP/1.1\r\n\r\n");
    body_of(&response).to_owned()
}

fn metric_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
        .unwrap_or(0)
}

#[test]
fn health_metrics_and_routing() {
    let handle = spawn(leak_handler(), ServerConfig::default());
    let addr = handle.addr();

    let health = roundtrip(addr, "GET /health HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&health), 200);
    assert!(body_of(&health).contains("\"epoch\":1"), "{health}");

    let ok = post_sql(addr, "SELECT 1");
    assert_eq!(status_of(&ok), 200);
    assert_eq!(body_of(&ok), "echo: SELECT 1\n");

    let err = post_sql(addr, "boom");
    assert_eq!(status_of(&err), 400);
    assert!(
        body_of(&err).contains("\"code\":\"query\""),
        "structured error: {err}"
    );

    let missing = roundtrip(addr, "GET /nope HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&missing), 404);
    let wrong_method = roundtrip(addr, "GET /sql HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&wrong_method), 405);
    let garbage = roundtrip(addr, "complete nonsense\r\n\r\n");
    assert_eq!(status_of(&garbage), 400);

    let metrics = metrics_text(addr);
    assert!(
        metric_value(&metrics, "ptk_serve_requests") >= 4,
        "{metrics}"
    );
    assert_eq!(metric_value(&metrics, "ptk_serve_query_errors"), 1);
    assert!(metric_value(&metrics, "ptk_serve_http_errors") >= 3);

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn handler_panic_answers_500_and_the_lone_worker_serves_on() {
    // One worker: its lane runs inline in `Server::run`, so an uncaught
    // panic would leave the daemon accepting with nobody answering.
    let config = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let handle = spawn(leak_handler(), config);
    let addr = handle.addr();

    for _ in 0..2 {
        // Twice: a panicked response is never cached.
        let response = post_sql(addr, "SELECT explode");
        assert_eq!(status_of(&response), 500, "{response}");
        let body = body_of(&response);
        assert_valid_json(body);
        assert!(
            body.contains("\"code\":\"internal\"") && body.contains("panicked"),
            "{body}"
        );
    }
    let next = post_sql(addr, "SELECT 1");
    assert_eq!(status_of(&next), 200, "the worker must survive: {next}");
    assert_eq!(body_of(&next), "echo: SELECT 1\n");

    let queries = roundtrip(addr, "GET /debug/queries HTTP/1.1\r\n\r\n");
    let body = body_of(&queries);
    assert_valid_json(body);
    assert_eq!(body.matches("\"outcome\":\"panic\"").count(), 2, "{body}");
    assert!(
        body.contains("\"label\":\"SELECT explode\"")
            && body.contains("\"plan\":\"stub(SELECT explode)\""),
        "the panicked statement's record keeps what the handler filled in: {body}"
    );
    let metrics = metrics_text(addr);
    assert_eq!(metric_value(&metrics, "ptk_serve_panics"), 2, "{metrics}");

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn cache_hits_bypass_the_handler() {
    let handler = leak_handler();
    let handle = spawn(handler, ServerConfig::default());
    let addr = handle.addr();

    let first = post_sql(addr, "SELECT cached");
    assert_eq!(status_of(&first), 200);
    assert!(first.contains("X-Ptk-Cache: miss\r\n"), "{first}");

    let second = post_sql(addr, "SELECT cached");
    assert_eq!(status_of(&second), 200);
    assert!(second.contains("X-Ptk-Cache: hit\r\n"), "{second}");
    assert_eq!(
        body_of(&first),
        body_of(&second),
        "hit serves identical bytes"
    );
    assert_eq!(
        handler.executions.load(Ordering::SeqCst),
        1,
        "second request must not re-execute"
    );

    // A stats surface embeds wall-clock timings: never cached.
    let stats = roundtrip(
        addr,
        "POST /sql?stats=text HTTP/1.1\r\nContent-Length: 8\r\n\r\nSELECT 2",
    );
    assert!(stats.contains("X-Ptk-Cache: uncacheable\r\n"), "{stats}");

    let metrics = metrics_text(addr);
    assert_eq!(metric_value(&metrics, "ptk_serve_cache_hits"), 1);
    assert_eq!(metric_value(&metrics, "ptk_serve_cache_misses"), 1);
    assert_eq!(metric_value(&metrics, "ptk_serve_cache_uncacheable"), 1);

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn client_disconnect_mid_request_keeps_daemon_serving() {
    let handle = spawn(leak_handler(), ServerConfig::default());
    let addr = handle.addr();

    // Send only the request line, then hang up before the blank line.
    for _ in 0..3 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /sql HTTP/1.1\r\n")
            .expect("partial write");
        drop(stream);
    }
    // Connect and send nothing at all.
    drop(TcpStream::connect(addr).expect("connect"));

    // The daemon must still answer real queries afterwards.
    let ok = post_sql(addr, "SELECT survived");
    assert_eq!(status_of(&ok), 200);
    assert_eq!(body_of(&ok), "echo: SELECT survived\n");

    let metrics = metrics_text(addr);
    assert!(
        metric_value(&metrics, "ptk_serve_client_disconnects") >= 1,
        "disconnects must be recorded: {metrics}"
    );

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn client_hanging_up_before_its_response_is_counted() {
    let handler = leak_handler();
    // One worker, so the hung-up request is answered before the next.
    let config = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let handle = spawn(handler, config);
    let addr = handle.addr();

    // The whole request is read, and the client hangs up while the
    // handler is held: the 200 then goes to a closed socket, whose reset
    // the daemon must see although its one write of the response succeeds.
    handler.close_gate();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /sql HTTP/1.1\r\nContent-Length: 8\r\n\r\nSELECT 1")
        .expect("send request");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handler.entered.load(Ordering::SeqCst) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "worker never picked up the request"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(stream);
    handler.open_gate();

    let ok = post_sql(addr, "SELECT survived");
    assert_eq!(status_of(&ok), 200);
    let metrics = metrics_text(addr);
    assert_eq!(
        metric_value(&metrics, "ptk_serve_client_disconnects"),
        1,
        "{metrics}"
    );

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn full_queue_rejects_with_429() {
    let handler = leak_handler();
    let config = ServerConfig {
        threads: 1,
        queue_capacity: 1,
        timeout_ms: 30_000,
        ..ServerConfig::default()
    };
    let handle = spawn(handler, config);
    let addr = handle.addr();

    // Wedge the single worker on a gated request. Once the handler has
    // entered execute(), the worker is provably busy and the queue empty.
    handler.close_gate();
    let wedged = std::thread::spawn(move || post_sql(addr, "SELECT wedged"));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handler.entered.load(Ordering::SeqCst) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "worker never picked up the wedge request"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Five more connections against a busy worker and a one-slot queue:
    // exactly one can queue, the rest must bounce with 429.
    let overflow: Vec<_> = (0..5)
        .map(|_| std::thread::spawn(move || post_sql(addr, "SELECT overflow")))
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    handler.open_gate();
    assert_eq!(status_of(&wedged.join().unwrap()), 200);
    let statuses: Vec<u16> = overflow
        .into_iter()
        .map(|t| {
            let response = t.join().unwrap();
            if status_of(&response) == 429 {
                assert!(
                    body_of(&response).contains("\"code\":\"overloaded\""),
                    "{response}"
                );
            }
            status_of(&response)
        })
        .collect();
    let rejected = statuses.iter().filter(|&&s| s == 429).count();
    let served = statuses.iter().filter(|&&s| s == 200).count();
    assert!(rejected >= 1, "at least one must bounce: {statuses:?}");
    assert_eq!(
        rejected + served,
        5,
        "nothing else may happen: {statuses:?}"
    );

    let metrics = metrics_text(addr);
    assert!(metric_value(&metrics, "ptk_serve_rejected_queue_full") >= 1);

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn slow_requests_time_out_with_408() {
    let config = ServerConfig {
        threads: 1,
        timeout_ms: 150,
        ..ServerConfig::default()
    };
    let handle = spawn(leak_handler(), config);
    let addr = handle.addr();

    // Open a connection and never finish the request: the read times out.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /sql HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial")
        .expect("partial request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert_eq!(status_of(&response), 408);
    assert!(
        body_of(&response).contains("\"code\":\"timeout\""),
        "{response}"
    );

    // And the daemon still serves afterwards.
    let ok = post_sql(addr, "SELECT after_timeout");
    assert_eq!(status_of(&ok), 200);

    let metrics = metrics_text(addr);
    assert!(metric_value(&metrics, "ptk_serve_rejected_timeout") >= 1);

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn oversized_requests_get_413() {
    let config = ServerConfig {
        max_request_bytes: 128,
        ..ServerConfig::default()
    };
    let handle = spawn(leak_handler(), config);
    let addr = handle.addr();

    let big = "x".repeat(1024);
    let response = post_sql(addr, &big);
    assert_eq!(status_of(&response), 413);
    assert!(
        body_of(&response).contains("\"code\":\"too_large\""),
        "{response}"
    );

    handle.shutdown().expect("clean shutdown");
}

/// A minimal JSON syntax checker (values, objects, arrays, strings with
/// escapes, numbers, literals). Returns the rest of the input after one
/// complete value; the caller asserts it is empty.
fn json_value(s: &str) -> Result<&str, String> {
    let s = s.trim_start();
    let mut chars = s.char_indices();
    match chars.next().map(|(_, c)| c) {
        Some('{') => {
            let mut rest = s[1..].trim_start();
            if let Some(after) = rest.strip_prefix('}') {
                return Ok(after);
            }
            loop {
                rest = json_value(rest)?; // key (validated as a value; must be a string in practice)
                rest = rest.trim_start();
                rest = rest
                    .strip_prefix(':')
                    .ok_or_else(|| format!("expected ':' at {rest:.20}"))?;
                rest = json_value(rest)?;
                rest = rest.trim_start();
                if let Some(after) = rest.strip_prefix(',') {
                    rest = after.trim_start();
                    continue;
                }
                return rest
                    .strip_prefix('}')
                    .ok_or_else(|| format!("expected '}}' at {rest:.20}"));
            }
        }
        Some('[') => {
            let mut rest = s[1..].trim_start();
            if let Some(after) = rest.strip_prefix(']') {
                return Ok(after);
            }
            loop {
                rest = json_value(rest)?;
                rest = rest.trim_start();
                if let Some(after) = rest.strip_prefix(',') {
                    rest = after.trim_start();
                    continue;
                }
                return rest
                    .strip_prefix(']')
                    .ok_or_else(|| format!("expected ']' at {rest:.20}"));
            }
        }
        Some('"') => {
            let mut escaped = false;
            for (i, c) in chars {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    return Ok(&s[i + 1..]);
                }
            }
            Err("unterminated string".to_owned())
        }
        Some(c) if c == '-' || c.is_ascii_digit() => {
            let end = s
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(s.len());
            s[..end]
                .parse::<f64>()
                .map_err(|e| format!("bad number {}: {e}", &s[..end]))?;
            Ok(&s[end..])
        }
        _ => {
            for lit in ["true", "false", "null"] {
                if let Some(rest) = s.strip_prefix(lit) {
                    return Ok(rest);
                }
            }
            Err(format!("unexpected token at {s:.20}"))
        }
    }
}

fn assert_valid_json(body: &str) {
    match json_value(body) {
        Ok(rest) => assert!(rest.trim().is_empty(), "trailing garbage: {rest:.40}"),
        Err(e) => panic!("invalid JSON ({e}): {body:.200}"),
    }
}

#[test]
fn debug_endpoints_expose_pool_config_and_queries() {
    let config = ServerConfig {
        threads: 2,
        flight_capacity: 8,
        slow_ms: Some(5_000),
        ..ServerConfig::default()
    };
    let handle = spawn(leak_handler(), config);
    let addr = handle.addr();

    let ok = post_sql(addr, "SELECT traced");
    assert_eq!(status_of(&ok), 200);
    let err = post_sql(addr, "boom");
    assert_eq!(status_of(&err), 400);

    let queries = roundtrip(addr, "GET /debug/queries HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&queries), 200);
    let body = body_of(&queries);
    assert_valid_json(body);
    assert!(
        body.contains("\"label\":\"SELECT traced\"")
            && body.contains("\"plan\":\"stub(SELECT traced)\"")
            && body.contains("\"counters\":{\"stub.calls\":1}"),
        "handler-filled flight fields must surface: {body}"
    );
    assert!(
        body.contains("\"outcome\":\"query_error\""),
        "failed statements leave records too: {body}"
    );
    assert!(
        !body.contains("nanos"),
        "/debug/queries must be timing-free: {body}"
    );

    let pool = roundtrip(addr, "GET /debug/pool HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&pool), 200);
    assert_valid_json(body_of(&pool));
    assert!(
        body_of(&pool).contains("\"threads\":2")
            && body_of(&pool).contains("\"flight_capacity\":8"),
        "{pool}"
    );

    let config_body = roundtrip(addr, "GET /debug/config HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&config_body), 200);
    assert_valid_json(body_of(&config_body));
    assert!(
        body_of(&config_body).contains("\"slow_ms\":5000"),
        "{config_body}"
    );

    let wrong_method = roundtrip(addr, "POST /debug/queries HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&wrong_method), 405);

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn debug_queries_is_byte_stable_across_pool_widths() {
    let mut renderings = Vec::new();
    for threads in [1, 2, 4] {
        let config = ServerConfig {
            threads,
            ..ServerConfig::default()
        };
        let handle = spawn(leak_handler(), config);
        let addr = handle.addr();
        // The same strictly sequential request mix on every width: two
        // misses, one hit, one query error, one 404.
        assert_eq!(status_of(&post_sql(addr, "SELECT a")), 200);
        assert_eq!(status_of(&post_sql(addr, "SELECT b")), 200);
        assert_eq!(status_of(&post_sql(addr, "SELECT a")), 200);
        assert_eq!(status_of(&post_sql(addr, "boom")), 400);
        assert_eq!(
            status_of(&roundtrip(addr, "GET /nope HTTP/1.1\r\n\r\n")),
            404
        );
        let queries = roundtrip(addr, "GET /debug/queries HTTP/1.1\r\n\r\n");
        assert_eq!(status_of(&queries), 200);
        renderings.push((threads, body_of(&queries).to_owned()));
        handle.shutdown().expect("clean shutdown");
    }
    let (_, reference) = &renderings[0];
    assert!(reference.contains("\"cache\":\"hit\""), "{reference}");
    for (threads, rendering) in &renderings[1..] {
        assert_eq!(
            rendering, reference,
            "flight records must be bit-identical at width {threads}"
        );
    }
}

#[test]
fn admission_overflow_records_outcome_rejected() {
    let handler = leak_handler();
    let config = ServerConfig {
        threads: 1,
        queue_capacity: 1,
        timeout_ms: 30_000,
        ..ServerConfig::default()
    };
    let handle = spawn(handler, config);
    let addr = handle.addr();

    handler.close_gate();
    let wedged = std::thread::spawn(move || post_sql(addr, "SELECT wedged"));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handler.entered.load(Ordering::SeqCst) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "worker never picked up the wedge request"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let overflow: Vec<_> = (0..5)
        .map(|_| std::thread::spawn(move || post_sql(addr, "SELECT overflow")))
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    handler.open_gate();
    assert_eq!(status_of(&wedged.join().unwrap()), 200);
    let rejected_responses = overflow
        .into_iter()
        .map(|t| t.join().unwrap())
        .filter(|r| status_of(r) == 429)
        .count();
    assert!(rejected_responses >= 1, "at least one 429 expected");

    let queries = roundtrip(addr, "GET /debug/queries HTTP/1.1\r\n\r\n");
    let body = body_of(&queries);
    assert_valid_json(body);
    let recorded_rejections = body.matches("\"outcome\":\"rejected\"").count();
    assert_eq!(
        recorded_rejections, rejected_responses,
        "every 429 must leave a flight record: {body}"
    );
    assert!(
        body.contains("\"label\":\"(admission queue full)\""),
        "{body}"
    );

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn latency_percentiles_appear_on_metrics() {
    let handle = spawn(leak_handler(), ServerConfig::default());
    let addr = handle.addr();
    assert_eq!(status_of(&post_sql(addr, "SELECT timed")), 200);
    let metrics = metrics_text(addr);
    for series in [
        "ptk_serve_latency_ms_p50",
        "ptk_serve_latency_ms_p95",
        "ptk_serve_latency_ms_p99",
        "ptk_serve_latency_ms_max",
    ] {
        assert!(
            metrics.lines().any(|l| l.starts_with(series)),
            "missing {series}:\n{metrics}"
        );
    }
    assert!(
        metrics.contains("# HELP ptk_serve_latency_ms "),
        "histogram HELP line missing:\n{metrics}"
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn flight_ring_stays_bounded_under_load() {
    let config = ServerConfig {
        flight_capacity: 4,
        ..ServerConfig::default()
    };
    let handle = spawn(leak_handler(), config);
    let addr = handle.addr();
    for i in 0..10 {
        assert_eq!(status_of(&post_sql(addr, &format!("SELECT {i}"))), 200);
    }
    let queries = roundtrip(addr, "GET /debug/queries HTTP/1.1\r\n\r\n");
    let body = body_of(&queries);
    assert_valid_json(body);
    assert_eq!(
        body.matches("\"id\":").count(),
        4,
        "ring must hold exactly its capacity: {body}"
    );
    assert!(
        body.contains("\"label\":\"SELECT 9\""),
        "newest records survive: {body}"
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn shutdown_drains_and_joins_at_all_widths() {
    for threads in [1, 2, 4] {
        let config = ServerConfig {
            threads,
            ..ServerConfig::default()
        };
        let handle = spawn(leak_handler(), config);
        let addr = handle.addr();
        let ok = post_sql(addr, "SELECT width");
        assert_eq!(status_of(&ok), 200);
        handle.shutdown().expect("clean shutdown");
        // The port is released once run() returns.
        assert!(
            TcpStream::connect(addr).is_err() || {
                // Another process may have grabbed the port; either way the
                // daemon no longer answers.
                true
            }
        );
    }
}
