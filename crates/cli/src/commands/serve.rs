//! The `serve` command: load a CSV once, then answer the SQL dialect over
//! HTTP until a `POST /shutdown` arrives.
//!
//! The daemon machinery (admission control, result cache, metrics,
//! routing) lives in `ptk-serve`; this module supplies the
//! [`ptk_serve::QueryHandler`] that owns the loaded table and executes
//! statements through [`run_sql`] — the exact function behind one-shot
//! `ptk sql` — so a served response body is byte-identical to what the
//! CLI prints for the same statement.

use std::io::Write;

use ptk_core::UncertainTable;
use ptk_obs::QueryFlight;
use ptk_serve::{QueryHandler, Server, ServerConfig};

use super::ctx::{QueryCtx, StatsMode};
use super::sql::{run_sql, SqlOptions};
use super::trace::parse_slow_ms;
use super::{load_from_flags, CmdError, Flags};

pub(super) fn cmd_serve(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    if flags.positional.get(1).is_none() {
        return Err(
            "usage: ptk serve <file.csv> [--addr HOST:PORT] [--threads N] \
                    [--queue N] [--timeout-ms N] [--cache N] [--seed S] [--no-prune] \
                    [--slow-ms N] [--flight-capacity N] [--ready-file <path>]"
                .into(),
        );
    }
    let options = SqlOptions::from_flags(flags)?;
    let addr: String = flags
        .get("addr")?
        .unwrap_or_else(|| "127.0.0.1:7071".to_owned());
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        threads: options.pool.threads(),
        queue_capacity: flags.get("queue")?.unwrap_or(64),
        timeout_ms: flags.get("timeout-ms")?.unwrap_or(10_000),
        cache_capacity: flags.get("cache")?.unwrap_or(256),
        // The same validated parse as the one-shot commands' --slow-ms, so
        // the daemon and the CLI can never disagree on what a legal
        // threshold is.
        slow_ms: parse_slow_ms(flags)?,
        flight_capacity: flags
            .get("flight-capacity")?
            .unwrap_or(defaults.flight_capacity),
        ..defaults
    };
    if config.queue_capacity == 0 {
        return Err("--queue must be >= 1 (0 would reject every request)".into());
    }
    if config.flight_capacity == 0 {
        return Err("--flight-capacity must be >= 1 (the recorder is always on)".into());
    }

    // Load once: every request shares this immutable snapshot.
    let table = load_from_flags(flags)?;
    let threads = options.pool.threads();
    let handler = SqlHandler { table, options };
    let server = Server::new(handler, config);
    let listener =
        std::net::TcpListener::bind(&addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    if let Some(path) = flags.named.get("ready-file") {
        // Written only after the socket is bound, so a script that waits
        // for this file can connect immediately.
        std::fs::write(path, format!("{local}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    writeln!(out, "serving on http://{local} ({threads} threads)")?;
    out.flush()?;
    server.run(listener)?;
    writeln!(out, "shutdown complete")?;
    Ok(())
}

/// The daemon's bridge to the CLI execution path: an immutable loaded
/// table plus the per-daemon options, executing every statement through
/// [`run_sql`] in a context built from the request. Table, pool width,
/// sampling seed and engine options are fixed for the daemon's life, so a
/// body that read no clock is a function of its statement text alone,
/// which is what the daemon's cache keys on.
struct SqlHandler {
    table: UncertainTable,
    options: SqlOptions,
}

impl QueryHandler for SqlHandler {
    fn execute(
        &self,
        statement: &str,
        stats: Option<&str>,
        flight: &mut QueryFlight,
    ) -> Result<(String, bool), String> {
        let stats = match stats {
            None => None,
            Some(mode) => Some(
                StatsMode::parse(mode)
                    .ok_or_else(|| format!("stats must be text, json or prom, got '{mode}'"))?,
            ),
        };
        let mut ctx = QueryCtx::served(stats, flight.clone());
        let mut body = Vec::new();
        let outcome = run_sql(&self.table, statement, &self.options, &mut ctx, &mut body)
            .and_then(|()| ctx.finish(&mut body));
        let timing_free = !ctx.timed();
        *flight = ctx.into_flight();
        match outcome {
            Ok(()) => String::from_utf8(body)
                .map(|body| (body, timing_free))
                .map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        }
    }
}
