//! The resident query daemon: accept loop, admission control, worker pool,
//! routing, and the result cache, keyed on the statement text.
//!
//! ## Architecture
//!
//! One acceptor thread pushes connections into a bounded queue; `threads`
//! workers (scheduled on the `ptk-par` pool, one lane per worker) pop and
//! serve them, one request per connection. Admission control is the queue
//! bound (overflow is answered `429` immediately) plus a per-request
//! timeout covering queue wait and request read (`408`). Execution itself
//! is never preempted — a query that has started runs to completion, which
//! keeps the engine free of cancellation points. A handler that panics
//! fails only its own request: the panic is caught, answered `500`,
//! recorded with outcome `panic`, and the worker lane serves on.
//!
//! The daemon is generic over a [`QueryHandler`] so the HTTP machinery,
//! admission control and cache stay zero-dependency; the `ptk serve` CLI
//! command supplies the handler that parses the SQL dialect and routes
//! statements through `PtkPlan`/`PtkExecutor`, byte-identical to the
//! one-shot `ptk sql` path. The handler's one execution also says whether
//! its body may be cached: a miss runs the statement once, and nothing
//! else decides what a served body depends on.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self as unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ptk_obs::{FlightRecorder, Metrics, QueryFlight, QueryRecord, Recorder, Snapshot};
use ptk_par::ThreadPool;

use crate::cache::ResultCache;
use crate::http::{self, ReadError, Request};

/// Metric names recorded by the daemon (all under the `serve.` prefix, so
/// `/metrics` renders them as `ptk_serve_*`).
pub mod counters {
    /// Requests fully read off the wire.
    pub const REQUESTS: &str = "serve.requests";
    /// Requests answered `200`.
    pub const RESPONSES_OK: &str = "serve.responses_ok";
    /// Statements the handler rejected (answered `400` with a structured
    /// JSON error).
    pub const QUERY_ERRORS: &str = "serve.query_errors";
    /// Statements whose handler panicked (answered `500` with a structured
    /// JSON error; the worker lane keeps serving).
    pub const PANICS: &str = "serve.panics";
    /// Malformed HTTP requests (truncated, garbage, oversized).
    pub const HTTP_ERRORS: &str = "serve.http_errors";
    /// Connections rejected `429` because the admission queue was full.
    pub const REJECTED_QUEUE_FULL: &str = "serve.rejected.queue_full";
    /// Requests rejected `408` (queue wait or request read exceeded the
    /// per-request timeout).
    pub const REJECTED_TIMEOUT: &str = "serve.rejected.timeout";
    /// Clients that hung up mid-request or mid-response. Never fatal.
    pub const CLIENT_DISCONNECTS: &str = "serve.client_disconnects";
    /// Result-cache hits.
    pub const CACHE_HITS: &str = "serve.cache.hits";
    /// Cacheable requests that had to execute.
    pub const CACHE_MISSES: &str = "serve.cache.misses";
    /// Requests that can never be cached (non-deterministic surfaces:
    /// `?stats=`, `EXPLAIN ANALYZE`).
    pub const CACHE_UNCACHEABLE: &str = "serve.cache.uncacheable";
    /// Admission-queue depth observed at enqueue time (histogram).
    pub const QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Wall-clock execution time of handled statements (span timing).
    pub const REQUEST_SPAN: &str = "serve.request";
    /// End-to-end request latency in milliseconds (histogram; the
    /// `/metrics` exposition derives `_p50`/`_p95`/`_p99`/`_max` gauges
    /// from its log-scale buckets). Observed for *every* response the
    /// daemon writes, including rejections.
    pub const LATENCY_MS: &str = "serve.latency_ms";
}

/// Executes statements for the daemon. Implementations must be callable
/// from many worker threads at once (`Sync`).
pub trait QueryHandler: Sync {
    /// Executes `statement`, returning the full response body — exactly
    /// the text the one-shot CLI would print for the same statement —
    /// and whether that body is timing-free. `stats` is the request's
    /// `?stats=` parameter as sent: the handler appends the metrics
    /// snapshot the same way the `--stats` flag does, or rejects a mode
    /// it does not know as an error.
    ///
    /// The daemon caches a timing-free body under the statement text
    /// alone, so such a body must depend on nothing else that can change
    /// while the daemon runs. A body that embeds wall-clock timings
    /// (`?stats=`, `EXPLAIN ANALYZE`) answers `false`; the daemon then
    /// counts it uncacheable. A `?stats=` request never reads or fills
    /// the cache, whatever the handler answers.
    ///
    /// `flight` is the request's flight record in progress: the handler
    /// fills in what only it can know — plan description, semantics,
    /// `k`/thresholds, the width-independent plan fingerprint, the stop
    /// reason and the per-query counter delta. The daemon has already set
    /// the label and owns the envelope (outcome, cache state, timings).
    /// Implementations that track nothing can leave it untouched.
    ///
    /// # Errors
    /// A human-readable message for an unknown `stats` mode or any parse,
    /// bind, plan or execution failure; the daemon renders it as a
    /// structured `400` JSON error.
    fn execute(
        &self,
        statement: &str,
        stats: Option<&str>,
        flight: &mut QueryFlight,
    ) -> Result<(String, bool), String>;
}

/// Daemon tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads serving requests (the `ptk-par` pool width).
    pub threads: usize,
    /// Bounded admission queue: connections waiting for a worker beyond
    /// this are answered `429` without queuing.
    pub queue_capacity: usize,
    /// Per-request budget in milliseconds, covering admission-queue wait
    /// plus reading the request; exceeding it yields `408`.
    pub timeout_ms: u64,
    /// Result-cache capacity in responses; `0` disables caching. Keys are
    /// statement texts, so they add at most this many times
    /// `max_request_bytes` of memory.
    pub cache_capacity: usize,
    /// Upper bound on a request's total size in bytes.
    pub max_request_bytes: usize,
    /// Slow-query threshold in milliseconds: a request whose end-to-end
    /// latency reaches it is logged to stderr with its full flight record
    /// (timings included) and plan description. `None` disables the log.
    pub slow_ms: Option<u64>,
    /// Capacity of the query flight-recorder ring served by
    /// `GET /debug/queries` (clamped to ≥ 1; the recorder is always on).
    pub flight_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: 2,
            queue_capacity: 64,
            timeout_ms: 10_000,
            cache_capacity: 256,
            max_request_bytes: 64 * 1024,
            slow_ms: None,
            flight_capacity: 256,
        }
    }
}

/// What a worker tells the dispatch loop after a connection.
enum Disposition {
    /// Keep serving.
    Continue,
    /// A `POST /shutdown` was served: stop accepting, drain, exit.
    Shutdown,
}

/// The resident query daemon. See the module docs for the architecture.
pub struct Server<H> {
    handler: H,
    config: ServerConfig,
    metrics: Metrics,
    cache: ResultCache,
    flight: FlightRecorder,
    stop: AtomicBool,
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    available: Condvar,
}

impl<H: QueryHandler> Server<H> {
    /// A daemon serving `handler` under `config`. Nothing listens until
    /// [`Server::run`] or [`Server::spawn`].
    pub fn new(handler: H, config: ServerConfig) -> Server<H> {
        Server {
            handler,
            config,
            metrics: Metrics::new(),
            cache: ResultCache::new(config.cache_capacity),
            flight: FlightRecorder::new(config.flight_capacity),
            stop: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        }
    }

    /// A point-in-time copy of the daemon's metrics (what `/metrics`
    /// renders via `Snapshot::to_prometheus`).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// The daemon's query flight recorder (what `GET /debug/queries`
    /// renders, timing-free).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Serves on `listener` until a `POST /shutdown` request arrives,
    /// then drains the admission queue and returns.
    pub fn run(&self, listener: TcpListener) -> io::Result<()> {
        let addr = listener.local_addr()?;
        let pool = ThreadPool::new(self.config.threads);
        std::thread::scope(|scope| {
            let acceptor = scope.spawn(|| self.accept_loop(&listener));
            let lanes: Vec<usize> = (0..self.config.threads).collect();
            // One item per worker: each pool lane runs a drain loop until
            // shutdown. With a single thread the loop runs inline here.
            pool.parallel_map(&lanes, |_, _| self.worker_loop(addr));
            acceptor.join().expect("acceptor thread panicked");
        });
        Ok(())
    }

    /// Binds `addr` (e.g. `127.0.0.1:0`) and serves on a background
    /// thread. The returned handle knows the bound address and can shut
    /// the daemon down cleanly.
    pub fn spawn(self, addr: &str) -> io::Result<ServerHandle>
    where
        H: Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let join = std::thread::spawn(move || self.run(listener));
        Ok(ServerHandle { addr: local, join })
    }

    fn accept_loop(&self, listener: &TcpListener) {
        for stream in listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let mut queue = self.queue.lock().expect("admission queue lock");
            if queue.len() >= self.config.queue_capacity {
                drop(queue);
                self.reject_overloaded(stream);
                continue;
            }
            self.metrics
                .observe(counters::QUEUE_DEPTH, queue.len() as f64);
            queue.push_back((stream, Instant::now()));
            drop(queue);
            self.available.notify_one();
        }
        // Wake every parked worker so all observe the stop flag.
        self.available.notify_all();
    }

    /// Answers `429` on the acceptor thread without queuing. The request
    /// is drained best-effort first so the close does not race the
    /// client's own write with a TCP reset.
    fn reject_overloaded(&self, mut stream: TcpStream) {
        let started = Instant::now();
        self.metrics.add(counters::REJECTED_QUEUE_FULL, 1);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let mut scratch = [0u8; 4096];
        let _ = stream.read(&mut scratch);
        // Recorded before the 429 is written (the convention everywhere:
        // a client that saw the response can trust the record exists).
        self.finish(
            "rejected",
            "none",
            control_flight("(admission queue full)"),
            Duration::ZERO,
            Duration::ZERO,
            started.elapsed(),
        );
        let body = http::error_body("overloaded", "admission queue is full; retry with backoff");
        if http::write_response(&mut stream, 429, "application/json", &[], &body).is_ok() {
            drain(&stream);
        }
    }

    fn worker_loop(&self, addr: SocketAddr) {
        while let Some((stream, enqueued)) = self.next_connection() {
            if let Disposition::Shutdown = self.handle_connection(stream, enqueued) {
                self.stop.store(true, Ordering::SeqCst);
                // Unblock the acceptor (it may be parked in accept()).
                let _ = TcpStream::connect(addr);
                self.available.notify_all();
            }
        }
    }

    /// Pops the next queued connection; returns `None` once the daemon is
    /// stopping and the queue has drained.
    fn next_connection(&self) -> Option<(TcpStream, Instant)> {
        let mut queue = self.queue.lock().expect("admission queue lock");
        loop {
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            // The timeout guards the startup race where stop is set between
            // the emptiness check and the wait.
            let (guard, _) = self
                .available
                .wait_timeout(queue, Duration::from_millis(50))
                .expect("admission queue lock");
            queue = guard;
        }
    }

    fn handle_connection(&self, mut stream: TcpStream, enqueued: Instant) -> Disposition {
        let timeout = Duration::from_millis(self.config.timeout_ms.max(1));
        let queue_wait = enqueued.elapsed();
        if queue_wait >= timeout {
            self.metrics.add(counters::REJECTED_TIMEOUT, 1);
            self.finish(
                "timeout",
                "none",
                control_flight("(admission queue timeout)"),
                queue_wait,
                Duration::ZERO,
                enqueued.elapsed(),
            );
            self.respond(
                &mut stream,
                408,
                "application/json",
                &[],
                &http::error_body("timeout", "request timed out in the admission queue"),
            );
            return Disposition::Continue;
        }
        let _ = stream.set_read_timeout(Some(timeout - queue_wait));
        let _ = stream.set_write_timeout(Some(timeout));

        let request = match http::read_request(&mut stream, self.config.max_request_bytes) {
            Ok(request) => request,
            Err(ReadError::Disconnect) => {
                self.metrics.add(counters::CLIENT_DISCONNECTS, 1);
                self.finish(
                    "disconnect",
                    "none",
                    control_flight("(client hung up mid-request)"),
                    queue_wait,
                    Duration::ZERO,
                    enqueued.elapsed(),
                );
                return Disposition::Continue;
            }
            Err(ReadError::Timeout) => {
                self.metrics.add(counters::REJECTED_TIMEOUT, 1);
                self.finish(
                    "timeout",
                    "none",
                    control_flight("(request read timeout)"),
                    queue_wait,
                    Duration::ZERO,
                    enqueued.elapsed(),
                );
                self.respond(
                    &mut stream,
                    408,
                    "application/json",
                    &[],
                    &http::error_body("timeout", "timed out reading the request"),
                );
                return Disposition::Continue;
            }
            Err(ReadError::TooLarge) => {
                self.metrics.add(counters::HTTP_ERRORS, 1);
                self.finish(
                    "http_error",
                    "none",
                    control_flight("(oversized request)"),
                    queue_wait,
                    Duration::ZERO,
                    enqueued.elapsed(),
                );
                self.respond(
                    &mut stream,
                    413,
                    "application/json",
                    &[],
                    &http::error_body(
                        "too_large",
                        &format!("request exceeds {} bytes", self.config.max_request_bytes),
                    ),
                );
                if drain(&stream) {
                    self.metrics.add(counters::CLIENT_DISCONNECTS, 1);
                }
                return Disposition::Continue;
            }
            Err(ReadError::BadRequest(message)) => {
                self.metrics.add(counters::HTTP_ERRORS, 1);
                self.finish(
                    "http_error",
                    "none",
                    control_flight("(malformed request)"),
                    queue_wait,
                    Duration::ZERO,
                    enqueued.elapsed(),
                );
                self.respond(
                    &mut stream,
                    400,
                    "application/json",
                    &[],
                    &http::error_body("bad_request", &message),
                );
                if drain(&stream) {
                    self.metrics.add(counters::CLIENT_DISCONNECTS, 1);
                }
                return Disposition::Continue;
            }
        };

        self.metrics.add(counters::REQUESTS, 1);
        let label = format!("{} {}", request.method, request.path);
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/sql") => {
                self.serve_sql(&mut stream, &request, queue_wait, enqueued);
                Disposition::Continue
            }
            ("GET", "/metrics") => {
                self.metrics.add(counters::RESPONSES_OK, 1);
                self.finish_control("ok", &label, queue_wait, enqueued);
                let body = self.metrics.snapshot().to_prometheus();
                self.respond(&mut stream, 200, "text/plain; version=0.0.4", &[], &body);
                Disposition::Continue
            }
            ("GET", "/health") => {
                self.metrics.add(counters::RESPONSES_OK, 1);
                self.finish_control("ok", &label, queue_wait, enqueued);
                // The snapshot never changes while the daemon runs, so its
                // epoch is always 1.
                let body = format!(
                    "{{\"status\":\"ok\",\"epoch\":1,\"cached\":{}}}\n",
                    self.cache.len()
                );
                self.respond(&mut stream, 200, "application/json", &[], &body);
                Disposition::Continue
            }
            ("GET", "/debug/queries") => {
                self.metrics.add(counters::RESPONSES_OK, 1);
                // Rendered before this request is itself recorded, so a
                // scrape never observes itself.
                let mut body = self.flight.to_json(false);
                body.push('\n');
                self.finish_control("ok", &label, queue_wait, enqueued);
                self.respond(&mut stream, 200, "application/json", &[], &body);
                Disposition::Continue
            }
            ("GET", "/debug/pool") => {
                self.metrics.add(counters::RESPONSES_OK, 1);
                let queue_depth = self.queue.lock().expect("admission queue lock").len();
                let body = format!(
                    "{{\"threads\":{},\"queue_capacity\":{},\"queue_depth\":{},\
                     \"cache_entries\":{},\"cache_capacity\":{},\
                     \"flight_records\":{},\"flight_capacity\":{}}}\n",
                    self.config.threads,
                    self.config.queue_capacity,
                    queue_depth,
                    self.cache.len(),
                    self.config.cache_capacity,
                    self.flight.len(),
                    self.flight.capacity()
                );
                self.finish_control("ok", &label, queue_wait, enqueued);
                self.respond(&mut stream, 200, "application/json", &[], &body);
                Disposition::Continue
            }
            ("GET", "/debug/config") => {
                self.metrics.add(counters::RESPONSES_OK, 1);
                self.finish_control("ok", &label, queue_wait, enqueued);
                let body = self.config_json();
                self.respond(&mut stream, 200, "application/json", &[], &body);
                Disposition::Continue
            }
            ("POST", "/shutdown") => {
                self.metrics.add(counters::RESPONSES_OK, 1);
                self.finish_control("ok", &label, queue_wait, enqueued);
                self.respond(&mut stream, 200, "application/json", &[], "{\"ok\":true}\n");
                Disposition::Shutdown
            }
            (
                _,
                "/sql" | "/metrics" | "/health" | "/shutdown" | "/debug/queries" | "/debug/pool"
                | "/debug/config",
            ) => {
                self.metrics.add(counters::HTTP_ERRORS, 1);
                self.finish_control("http_error", &label, queue_wait, enqueued);
                self.respond(
                    &mut stream,
                    405,
                    "application/json",
                    &[],
                    &http::error_body("method_not_allowed", "wrong method for this endpoint"),
                );
                Disposition::Continue
            }
            (_, path) => {
                self.metrics.add(counters::HTTP_ERRORS, 1);
                self.finish_control("http_error", &label, queue_wait, enqueued);
                self.respond(
                    &mut stream,
                    404,
                    "application/json",
                    &[],
                    &http::error_body("not_found", &format!("no such endpoint: {path}")),
                );
                Disposition::Continue
            }
        }
    }

    /// Serves `POST /sql`, recording the flight (before the response is
    /// written, so records of a sequential client land in request order).
    fn serve_sql(
        &self,
        stream: &mut TcpStream,
        request: &Request,
        queue_wait: Duration,
        enqueued: Instant,
    ) {
        let statement = request.body.trim();
        let mut flight = control_flight(&bounded_label(statement));
        if statement.is_empty() {
            self.metrics.add(counters::QUERY_ERRORS, 1);
            flight.label = "(empty statement)".to_owned();
            self.finish(
                "query_error",
                "none",
                flight,
                queue_wait,
                Duration::ZERO,
                enqueued.elapsed(),
            );
            self.respond(
                stream,
                400,
                "application/json",
                &[],
                &http::error_body("query", "empty statement"),
            );
            return;
        }
        // A `?stats=` body carries the run's timings, so the request
        // neither reads nor fills the cache. The handler validates the mode.
        let stats = request.param("stats");
        if stats.is_none() {
            if let Some(body) = self.cache.get(statement) {
                self.metrics.add(counters::CACHE_HITS, 1);
                self.metrics.add(counters::RESPONSES_OK, 1);
                self.finish(
                    "ok",
                    "hit",
                    flight,
                    queue_wait,
                    Duration::ZERO,
                    enqueued.elapsed(),
                );
                self.respond(stream, 200, "text/plain", &[("X-Ptk-Cache", "hit")], &body);
                return;
            }
        }

        // A handler panic is isolated to its request: caught here, it
        // becomes a 500 and a flight record, and the lane serves on.
        let started = Instant::now();
        let outcome = unwind::catch_unwind(AssertUnwindSafe(|| {
            self.handler.execute(statement, stats, &mut flight)
        }));
        let exec = started.elapsed();
        self.metrics.record_nanos(
            counters::REQUEST_SPAN,
            u64::try_from(exec.as_nanos()).unwrap_or(u64::MAX),
        );
        match outcome {
            Ok(Ok((body, timing_free))) => {
                let cache_state = if timing_free && stats.is_none() {
                    self.metrics.add(counters::CACHE_MISSES, 1);
                    self.cache.insert(statement, Arc::new(body.clone()));
                    "miss"
                } else {
                    self.metrics.add(counters::CACHE_UNCACHEABLE, 1);
                    "uncacheable"
                };
                self.metrics.add(counters::RESPONSES_OK, 1);
                self.finish(
                    "ok",
                    cache_state,
                    flight,
                    queue_wait,
                    exec,
                    enqueued.elapsed(),
                );
                self.respond(
                    stream,
                    200,
                    "text/plain",
                    &[("X-Ptk-Cache", cache_state)],
                    &body,
                );
            }
            Ok(Err(message)) => {
                self.metrics.add(counters::QUERY_ERRORS, 1);
                self.finish(
                    "query_error",
                    "none",
                    flight,
                    queue_wait,
                    exec,
                    enqueued.elapsed(),
                );
                self.respond(
                    stream,
                    400,
                    "application/json",
                    &[],
                    &http::error_body("query", &message),
                );
            }
            Err(payload) => {
                // Counted, recorded with outcome `panic`, answered `500`,
                // never cached.
                self.metrics.add(counters::PANICS, 1);
                self.finish(
                    "panic",
                    "none",
                    flight,
                    queue_wait,
                    exec,
                    enqueued.elapsed(),
                );
                let reason = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string panic payload");
                self.respond(
                    stream,
                    500,
                    "application/json",
                    &[],
                    &http::error_body("internal", &format!("query handler panicked: {reason}")),
                );
            }
        }
    }

    /// Records one finished request into the flight ring, feeds the
    /// end-to-end latency histogram, and emits the slow-query log line
    /// when the configured threshold is reached. Every response path —
    /// including rejections written on the acceptor thread — funnels
    /// through here, so the recorder misses nothing.
    fn finish(
        &self,
        outcome: &str,
        cache: &str,
        flight: QueryFlight,
        queue_wait: Duration,
        exec: Duration,
        total: Duration,
    ) {
        let total_ms = total.as_secs_f64() * 1e3;
        self.metrics.observe(counters::LATENCY_MS, total_ms);
        let slow = self.config.slow_ms.filter(|&t| total_ms >= t as f64);
        let logged = slow.map(|_| flight.clone());
        let queue_wait_nanos = duration_nanos(queue_wait);
        let exec_nanos = duration_nanos(exec);
        let total_nanos = duration_nanos(total);
        let id = self.flight.record(
            outcome,
            cache,
            flight,
            queue_wait_nanos,
            exec_nanos,
            total_nanos,
        );
        if let (Some(threshold), Some(flight)) = (slow, logged) {
            let record = QueryRecord {
                id,
                outcome: outcome.to_owned(),
                cache: cache.to_owned(),
                flight,
                queue_wait_nanos,
                exec_nanos,
                total_nanos,
            };
            eprintln!(
                "[ptk-serve] slow query #{id}: {total_ms:.3} ms (threshold {threshold} ms) {}",
                record.to_json(true)
            );
        }
    }

    /// [`Server::finish`] for requests that never reached the SQL surface
    /// (metrics scrapes, debug endpoints, routing errors).
    fn finish_control(&self, outcome: &str, label: &str, queue_wait: Duration, enqueued: Instant) {
        self.finish(
            outcome,
            "none",
            control_flight(label),
            queue_wait,
            Duration::ZERO,
            enqueued.elapsed(),
        );
    }

    /// The daemon's effective configuration as one JSON object (what
    /// `GET /debug/config` serves).
    fn config_json(&self) -> String {
        let c = &self.config;
        let slow_ms = match c.slow_ms {
            Some(v) => v.to_string(),
            None => "null".to_owned(),
        };
        format!(
            "{{\"threads\":{},\"queue_capacity\":{},\"timeout_ms\":{},\
             \"cache_capacity\":{},\"max_request_bytes\":{},\
             \"slow_ms\":{slow_ms},\"flight_capacity\":{}}}\n",
            c.threads,
            c.queue_capacity,
            c.timeout_ms,
            c.cache_capacity,
            c.max_request_bytes,
            c.flight_capacity
        )
    }

    /// Writes a response; a failed write is a client disconnect — counted,
    /// never propagated, so one hung-up client cannot take the daemon or
    /// its worker down (the same policy as the CLI's EPIPE handling).
    ///
    /// The response leaves in one write, which lands in the socket's
    /// buffer even when the client has hung up; the client's reset then
    /// arrives as the socket's pending error, read here.
    fn respond(
        &self,
        stream: &mut TcpStream,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, &str)],
        body: &str,
    ) {
        let sent = http::write_response(stream, status, content_type, extra_headers, body);
        if sent.is_err() || matches!(stream.take_error(), Ok(Some(_))) {
            self.metrics.add(counters::CLIENT_DISCONNECTS, 1);
        }
    }
}

/// A flight carrying only a label: what the recorder keeps for requests
/// that never reached the SQL surface.
fn control_flight(label: &str) -> QueryFlight {
    QueryFlight {
        label: label.to_owned(),
        ..QueryFlight::default()
    }
}

/// Truncates a statement for use as a flight label, so one enormous
/// request cannot bloat the bounded ring (the full statement still
/// executes).
fn bounded_label(statement: &str) -> String {
    const MAX_LABEL_BYTES: usize = 200;
    if statement.len() <= MAX_LABEL_BYTES {
        return statement.to_owned();
    }
    let mut cut = MAX_LABEL_BYTES;
    while !statement.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}…", &statement[..cut])
}

/// Saturating nanosecond count of a duration.
fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Half-closes the write side, then reads off anything the client sent
/// that the request parser never consumed (an oversized body, say). A
/// close with unread bytes in the receive buffer becomes a TCP reset that
/// can destroy the response before the client reads it; this keeps error
/// replies deliverable. Bounded so a firehosing client cannot pin a
/// worker.
///
/// Returns whether the client reset the connection meanwhile: it hung up
/// before the response reached it.
fn drain(stream: &TcpStream) -> bool {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut scratch = [0u8; 4096];
    let mut reference = stream;
    for _ in 0..16 {
        match reference.read(&mut scratch) {
            Ok(0) => break,
            Err(e) => return e.kind() == io::ErrorKind::ConnectionReset,
            Ok(_) => {}
        }
    }
    false
}

/// A running daemon started by [`Server::spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    join: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port `0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a clean shutdown (`POST /shutdown`) and waits for the
    /// daemon to drain and exit.
    pub fn shutdown(self) -> io::Result<()> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.write_all(b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n")?;
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        drop(stream);
        self.join
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}
