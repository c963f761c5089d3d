//! End-to-end tests for `ptk serve`: concurrent responses must be
//! byte-identical to one-shot `ptk sql` output at every pool width, cache
//! hits must serve the same bytes without re-executing, and the malformed
//! sweep must produce structured errors while the daemon keeps serving.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const PANDA_CSV: &str = "prob,rule,duration,rid
0.3,,25,R1
0.4,b,21,R2
0.5,b,13,R3
1.0,,12,R4
0.8,e,17,R5
0.2,e,11,R6
";

/// The mixed statement batch every client fires: single exact queries, a
/// `;`-batch, an ascending scan, an EXPLAIN, and two non-PT-k semantics —
/// each with and without `WHERE`, so concurrent requests share the table's
/// ranked views and select from them. `duration > 12` drops R4 and R6,
/// leaving rule `e` one member; the filtered batch shares one selection.
const STATEMENTS: [&str; 12] = [
    "SELECT TOP 2 FROM t ORDER BY duration DESC WITH PROBABILITY >= 0.35",
    "SELECT TOP 1 FROM t ORDER BY duration DESC WITH PROBABILITY >= 0.5",
    "SELECT TOP 2 FROM t ORDER BY duration DESC WITH PROBABILITY >= 0.35; \
     SELECT TOP 3 FROM t ORDER BY duration DESC WITH PROBABILITY >= 0.2",
    "SELECT TOP 2 FROM t ORDER BY duration ASC WITH PROBABILITY >= 0.3",
    "EXPLAIN SELECT TOP 2 FROM t ORDER BY duration DESC WITH PROBABILITY >= 0.35",
    "SELECT TOP 2 FROM t ORDER BY duration DESC RANK BY U_TOPK",
    "SELECT TOP 2 FROM t ORDER BY duration DESC RANK BY GLOBAL_TOPK",
    "SELECT TOP 2 FROM t WHERE duration > 12 ORDER BY duration DESC WITH PROBABILITY >= 0.3",
    "SELECT TOP 2 FROM t WHERE duration > 12 ORDER BY duration DESC WITH PROBABILITY >= 0.3; \
     SELECT TOP 3 FROM t WHERE duration > 12 ORDER BY duration DESC WITH PROBABILITY >= 0.2",
    "SELECT TOP 2 FROM t WHERE duration < 20 ORDER BY duration ASC WITH PROBABILITY >= 0.2",
    "EXPLAIN SELECT TOP 2 FROM t WHERE duration > 12 ORDER BY duration DESC RANK BY U_KRANKS",
    "SELECT TOP 2 FROM t WHERE duration > 12 ORDER BY duration DESC RANK BY GLOBAL_TOPK",
];

struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

impl TempFile {
    fn as_str(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ptk-serve-parity-{tag}-{}-{n}", std::process::id()))
}

fn write_csv() -> TempFile {
    let path = temp_path("data");
    std::fs::write(&path, PANDA_CSV).unwrap();
    TempFile(path)
}

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_owned()).collect()
}

/// Starts `ptk serve` through the real CLI dispatcher on an OS-assigned
/// port, waits for the ready file, and returns the address plus the
/// blocked server thread.
struct Daemon {
    addr: String,
    join: std::thread::JoinHandle<Result<String, String>>,
    _ready: TempFile,
}

fn start_daemon(file: &str, threads: usize, extra: &[&str]) -> Daemon {
    let ready = TempFile(temp_path("ready"));
    let threads = threads.to_string();
    let mut argv = vec![
        "serve",
        file,
        "--addr",
        "127.0.0.1:0",
        "--threads",
        &threads,
        "--ready-file",
        ready.as_str(),
    ];
    argv.extend_from_slice(extra);
    let argv = args(&argv);
    let join = std::thread::spawn(move || ptk_cli::run(&argv));
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&ready.0) {
            let text = text.trim();
            if !text.is_empty() {
                break text.to_owned();
            }
        }
        assert!(
            Instant::now() < deadline,
            "server never wrote the ready file"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    Daemon {
        addr,
        join,
        _ready: ready,
    }
}

impl Daemon {
    fn shutdown(self) {
        let response = http(
            &self.addr,
            "POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(status_of(&response), 200, "{response}");
        let output = self.join.join().unwrap().expect("server exits cleanly");
        assert!(output.contains("shutdown complete"), "{output}");
    }
}

fn http(addr: &str, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

fn post_sql(addr: &str, statement: &str) -> String {
    post_sql_at(addr, "/sql", statement)
}

fn post_sql_at(addr: &str, target: &str, statement: &str) -> String {
    http(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{statement}",
            statement.len()
        ),
    )
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in: {response}"))
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("")
}

#[test]
fn concurrent_responses_match_one_shot_cli_at_every_width() {
    let file = write_csv();
    for threads in [1usize, 2, 4] {
        let t = threads.to_string();
        let baselines: Vec<String> = STATEMENTS
            .iter()
            .map(|stmt| {
                ptk_cli::run(&args(&["sql", file.as_str(), stmt, "--threads", &t]))
                    .expect("one-shot baseline")
            })
            .collect();

        let daemon = start_daemon(file.as_str(), threads, &[]);
        let addr = daemon.addr.clone();
        std::thread::scope(|scope| {
            for _client in 0..3 {
                let addr = &addr;
                let baselines = &baselines;
                scope.spawn(move || {
                    for (stmt, baseline) in STATEMENTS.iter().zip(baselines) {
                        let response = post_sql(addr, stmt);
                        assert_eq!(status_of(&response), 200, "{response}");
                        assert_eq!(
                            body_of(&response),
                            baseline,
                            "served bytes must equal `ptk sql` output \
                             (threads={threads}, stmt={stmt})"
                        );
                    }
                });
            }
        });
        daemon.shutdown();
    }
}

#[test]
fn second_identical_request_is_a_cache_hit_with_identical_body() {
    let file = write_csv();
    let daemon = start_daemon(file.as_str(), 2, &[]);
    let addr = &daemon.addr;
    let stmt = STATEMENTS[0];

    let first = post_sql(addr, stmt);
    assert_eq!(status_of(&first), 200);
    assert!(first.contains("X-Ptk-Cache: miss\r\n"), "{first}");
    let second = post_sql(addr, stmt);
    assert!(second.contains("X-Ptk-Cache: hit\r\n"), "{second}");
    assert_eq!(body_of(&first), body_of(&second));

    // A stats surface embeds timings and must bypass the cache, twice.
    for _ in 0..2 {
        let stats = post_sql_at(addr, "/sql?stats=json", stmt);
        assert_eq!(status_of(&stats), 200);
        assert!(stats.contains("X-Ptk-Cache: uncacheable\r\n"), "{stats}");
    }

    let metrics = http(addr, "GET /metrics HTTP/1.1\r\n\r\n");
    assert!(metrics.contains("ptk_serve_cache_hits 1"), "{metrics}");
    assert!(metrics.contains("ptk_serve_cache_misses 1"), "{metrics}");
    assert!(
        metrics.contains("ptk_serve_cache_uncacheable 2"),
        "{metrics}"
    );
    daemon.shutdown();
}

#[test]
fn statements_differing_only_in_semantics_never_share_a_cache_slot() {
    let file = write_csv();
    let daemon = start_daemon(file.as_str(), 2, &[]);
    let addr = &daemon.addr;
    // Identical except for the RANK BY clause: each must miss on first
    // sight (distinct statements) and return distinct bodies.
    let ukranks = "SELECT TOP 2 FROM t ORDER BY duration DESC RANK BY U_KRANKS";
    let global = "SELECT TOP 2 FROM t ORDER BY duration DESC RANK BY GLOBAL_TOPK";

    let first = post_sql(addr, ukranks);
    assert_eq!(status_of(&first), 200, "{first}");
    assert!(first.contains("X-Ptk-Cache: miss\r\n"), "{first}");

    let other = post_sql(addr, global);
    assert_eq!(status_of(&other), 200, "{other}");
    assert!(other.contains("X-Ptk-Cache: miss\r\n"), "{other}");
    assert_ne!(
        body_of(&first),
        body_of(&other),
        "different semantics must serve different answers"
    );

    // Re-asking the first statement is a hit with the same bytes.
    let again = post_sql(addr, ukranks);
    assert!(again.contains("X-Ptk-Cache: hit\r\n"), "{again}");
    assert_eq!(body_of(&first), body_of(&again));
    daemon.shutdown();
}

/// The value of counter `name` on a `/metrics` response, if it is there.
fn counter<'a>(metrics: &'a str, name: &str) -> Option<&'a str> {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
}

#[test]
fn only_a_timing_free_success_is_cached() {
    let file = write_csv();
    let daemon = start_daemon(file.as_str(), 2, &[]);
    let addr = &daemon.addr;

    // EXPLAIN ANALYZE prints the run's timings: never cached, at any
    // semantics, however often it is asked.
    for analyze in [
        "EXPLAIN ANALYZE SELECT TOP 2 FROM t ORDER BY duration DESC WITH PROBABILITY >= 0.35",
        "EXPLAIN ANALYZE SELECT TOP 2 FROM t ORDER BY duration DESC RANK BY U_KRANKS",
    ] {
        for _ in 0..2 {
            let response = post_sql(addr, analyze);
            assert_eq!(status_of(&response), 200, "{response}");
            assert!(
                response.contains("X-Ptk-Cache: uncacheable\r\n"),
                "{response}"
            );
        }
    }

    // A `?stats=` request leaves nothing in the cache: the plain request
    // after it misses, and its body is the one-shot output.
    let stmt = STATEMENTS[1];
    let stats = post_sql_at(addr, "/sql?stats=json", stmt);
    assert_eq!(status_of(&stats), 200, "{stats}");
    assert!(stats.contains("X-Ptk-Cache: uncacheable\r\n"), "{stats}");
    let baseline = ptk_cli::run(&args(&["sql", file.as_str(), stmt, "--threads", "2"]))
        .expect("one-shot baseline");
    for disposition in ["miss", "hit"] {
        let plain = post_sql(addr, stmt);
        assert_eq!(status_of(&plain), 200, "{plain}");
        assert!(
            plain.contains(&format!("X-Ptk-Cache: {disposition}\r\n")),
            "{plain}"
        );
        assert_eq!(body_of(&plain), baseline);
    }

    // A failed statement is never cached: it fails again.
    for _ in 0..2 {
        let response = post_sql(
            addr,
            "SELECT TOP 0 FROM t ORDER BY duration DESC WITH PROBABILITY >= 0.5",
        );
        assert_eq!(status_of(&response), 400, "{response}");
        assert!(!response.contains("X-Ptk-Cache"), "{response}");
    }

    // An unknown `?stats=` mode is a query error.
    let bad_stats = post_sql_at(addr, "/sql?stats=yaml", "x");
    assert_eq!(status_of(&bad_stats), 400);
    assert!(body_of(&bad_stats).contains("stats must be"), "{bad_stats}");
    assert_eq!(
        body_of(&bad_stats),
        "{\"error\":{\"code\":\"query\",\"message\":\
         \"stats must be text, json or prom, got 'yaml'\"}}\n"
    );
    let queries = http(addr, "GET /debug/queries HTTP/1.1\r\n\r\n");
    assert!(
        body_of(&queries)
            .contains("\"outcome\":\"query_error\",\"cache\":\"none\",\"label\":\"x\""),
        "{queries}"
    );

    let metrics = http(addr, "GET /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(
        counter(&metrics, "ptk_serve_cache_hits"),
        Some("1"),
        "{metrics}"
    );
    assert_eq!(
        counter(&metrics, "ptk_serve_cache_misses"),
        Some("1"),
        "{metrics}"
    );
    assert_eq!(
        counter(&metrics, "ptk_serve_cache_uncacheable"),
        Some("5"),
        "{metrics}"
    );
    assert_eq!(
        counter(&metrics, "ptk_serve_query_errors"),
        Some("3"),
        "{metrics}"
    );
    daemon.shutdown();
}

#[test]
fn malformed_sweep_yields_structured_errors_and_daemon_survives() {
    let file = write_csv();
    let daemon = start_daemon(file.as_str(), 2, &["--timeout-ms", "30000"]);
    let addr = &daemon.addr;

    // Every statement-level failure: structured 400 with the query code.
    for bad in [
        "SELECT TOP 2 FROM t ORDER BY duration DESC WITH PROBABILITY >= 0",
        "SELECT TOP 2 FROM t ORDER BY duration DESC WITH PROBABILITY >= 1.5",
        "SELECT TOP 2 FROM t ORDER BY duration DESC WITH PROBABILITY >= NaN",
        "SELECT TOP 0 FROM t ORDER BY duration DESC WITH PROBABILITY >= 0.5",
        "SELECT TOP 2 FROM t ORDER BY no_such_column DESC WITH PROBABILITY >= 0.5",
        "SELECT TOP 2 FROM t ORDER BY duration DESC RANK BY NONSENSE",
        "SELECT UTOPK 2 FROM t ORDER BY duration DESC RANK BY U_TOPK",
        "SELECT TOP 2 FROM t ORDER BY duration DESC RANK BY U_TOPK WITH PROBABILITY >= 0.5",
        "completely not sql",
        "",
    ] {
        let response = post_sql(addr, bad);
        assert_eq!(status_of(&response), 400, "{bad:?} -> {response}");
        assert!(
            body_of(&response).contains("\"error\":{\"code\":\"query\""),
            "{bad:?} -> {response}"
        );
    }

    // Truncated request: promised 50 body bytes, delivered 5, then EOF.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /sql HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert_eq!(status_of(&response), 400, "{response}");
    assert!(
        body_of(&response).contains("\"code\":\"bad_request\""),
        "{response}"
    );
    drop(stream);

    // Mid-response disconnect: hang up right after the request line.
    for _ in 0..3 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"POST /sql HTTP/1.1\r\n").unwrap();
        drop(stream);
    }

    // The daemon survived all of it and still answers correctly.
    let ok = post_sql(addr, STATEMENTS[0]);
    assert_eq!(status_of(&ok), 200, "{ok}");
    let metrics = http(addr, "GET /metrics HTTP/1.1\r\n\r\n");
    assert!(metrics.contains("ptk_serve_query_errors"), "{metrics}");
    assert!(
        metrics.contains("ptk_serve_client_disconnects"),
        "{metrics}"
    );
    daemon.shutdown();
}

#[test]
fn serve_flag_validation() {
    let file = write_csv();
    let err = ptk_cli::run(&args(&["serve"])).unwrap_err();
    assert!(err.contains("usage: ptk serve"), "{err}");
    let err = ptk_cli::run(&args(&["serve", file.as_str(), "--queue", "0"])).unwrap_err();
    assert!(err.contains("--queue must be >= 1"), "{err}");
    let err = ptk_cli::run(&args(&["serve", file.as_str(), "--threads", "0"])).unwrap_err();
    assert!(err.contains("--threads"), "{err}");
    let err = ptk_cli::run(&args(&["serve", file.as_str(), "--addr", "256.0.0.1:1"])).unwrap_err();
    assert!(err.contains("cannot bind"), "{err}");
}
