//! # `ptk-cli` — command-line front end
//!
//! Loads uncertain tables from CSV files and answers PT-k, U-TopK and
//! U-KRanks queries from the shell. See [`USAGE`] or run `ptk help`.
//!
//! ## CSV format
//!
//! The first row is a header. Two columns are special:
//!
//! * `prob` (required) — the tuple's membership probability in `(0, 1]`;
//! * `rule` (optional) — a label; tuples sharing a non-empty label form a
//!   multi-tuple generation rule (mutually exclusive alternatives).
//!
//! Every other column is data. Values parse as integers, then floats, then
//! text; empty cells are nulls.
//!
//! ```csv
//! prob,rule,duration,rid
//! 0.3,,25,R1
//! 0.4,x1,21,R2
//! 0.5,x1,13,R3
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod commands;
pub mod csv;
pub mod load;

/// The CLI usage text.
pub const USAGE: &str = "\
ptk — probabilistic threshold top-k queries on uncertain data

USAGE:
  ptk query   <file.csv> --k <K[,K…]> --p <P[,P…]> --rank-by <col> [--asc]
              [--semantics ptk|u_topk|u_kranks|global_topk|expected_rank]
              [--method exact|sampling|naive] [--where <col><op><value>]
              [--stats text|json|prom] [--threads N] [--no-prune] [--explain]
              [--trace <file> [--trace-format chrome|logical]] [--slow-ms N]
              [--audit] [--seed S]
  ptk utopk | ukranks | erank <file.csv> --k <K> --rank-by <col> [--asc]
              [--where <col><op><value>] [--threads N] [--no-prune]
              [--stats text|json|prom]
              [--trace <file> [--trace-format chrome|logical]] [--slow-ms N]
              [--audit]
  ptk inspect <file.csv | file.run>
  ptk worlds  <file.csv> --rank-by <col> [--asc] [--limit N] [--max-worlds N]
  ptk sql     <file.csv> '<[EXPLAIN [ANALYZE]] SELECT TOP k … statement>[; …]'
              [--stats text|json|prom] [--threads N] [--no-prune]
              [--trace <file> [--trace-format chrome|logical]] [--slow-ms N]
              [--audit] [--seed S]
  ptk serve   <file.csv> [--addr HOST:PORT] [--threads N] [--queue N]
              [--timeout-ms N] [--cache N] [--seed S] [--no-prune]
              [--slow-ms N] [--flight-capacity N] [--ready-file <path>]
  ptk pack    <file.csv> --rank-by <col> --out <file.run> [--block-size B]
  ptk scan    <file.run> --k <K> --p <P> [--stats text|json|prom]
              [--semantics ptk|u_topk|u_kranks|global_topk|expected_rank]
              [--pool-frames N]
              [--trace <file> [--trace-format chrome|logical]] [--slow-ms N]
              [--audit]
  ptk trace-check <trace.json>
  ptk generate synthetic [--tuples N] [--rules M] [--seed S] [--rule-span W]
  ptk generate iip       [--tuples N] [--rules M] [--seed S]
              [--out <file.run> [--block-size B] [--rank-by <col>]]
  ptk help

The CSV must have a `prob` column (membership probability) and may have a
`rule` column (tuples sharing a non-empty label are mutually exclusive).
`--where` accepts one comparison, e.g. --where 'duration>=12' (operators:
=, !=, <, <=, >, >=). `generate` writes CSV to stdout. `utopk`, `ukranks`
and `erank` answer `query --semantics u_topk|u_kranks|expected_rank`;
`utopk` and `ukranks` print the same listing, `erank` its own. `--stats` appends the run's metrics snapshot
(counters, histograms, phase timings) after the answer, as aligned text,
one JSON line, or a Prometheus exposition page.

`--semantics` (query, scan) selects the ranking semantics the engine
answers with: `ptk` (the default, needs `--p`), `u_topk`, `u_kranks`,
`global_topk` or `expected_rank`. Under `ptk sql` the same choice is the
statement's `RANK BY <semantics>` clause on a `SELECT TOP` query (the
legacy `SELECT UTOPK|UKRANKS|GLOBALTOPK|ERANK` kind keywords still parse).
Every semantics runs through one generating-function scan of the ranked
view. PT-k, `global_topk`, `u_kranks` and `expected_rank` stop early once
no unseen tuple can change the answer (`--no-prune` scans in full, to the
same answer) — `expected_rank` only over a table, since a run file does
not carry the total mass it needs, so `scan` reads one in full; `u_topk`
stops, pruning or not, once no vector ending deeper can beat its best. EXPLAIN says which
stop a plan runs. Thresholds (`--p` / `WITH PROBABILITY`) parameterize
PT-k only.

`--explain` (query; the `EXPLAIN ANALYZE` statement prefix under `ptk sql`)
executes the query and prints the plan annotated per stage with the run's
actual counters and wall time — the same counter names `--stats` renders.
Every query command (query, sql, scan, utopk, ukranks, erank) takes
`--stats`, `--trace`, `--trace-format`, `--slow-ms` and `--audit`, and
prints their views after the answer in that order: trace file and slow
log, stats, audit line. A command refuses any flag it does not read,
and `query` any its method does not: `--threads` and `--no-prune` need
`--method exact` (the default), `--seed` needs `--method sampling`.
`--trace <file>` captures a structured event trace of the run: `chrome`
format is Chrome trace-event JSON (load it in Perfetto or chrome://tracing;
validate it offline with `ptk trace-check`), `logical` is a timing-free
text rendering that is bit-identical at every thread count. `--slow-ms N`
(N >= 1 — the same validation `serve --slow-ms` runs) prints a per-stage
trace summary to stderr when the run takes >= N ms. `--audit` appends the
query's flight record as one timing-free JSON line —
statement label, plan, semantics, k/thresholds, plan fingerprint, stop
reason and the full per-query counter delta (pruning attribution included)
— bit-identical at every thread count; the same record every served query
leaves in the daemon's flight ring.

Comma lists in --k/--p (query) or `;`-separated SELECT TOP statements
(sql) form a batch: every (k, p) combination is planned up front and the
batch executor evaluates the plans across a worker pool sharing one
ranked view. `--threads` sizes the pool (default: the PTK_THREADS
environment variable, else 1), as it sizes `serve`'s workers. A single
statement (one k and one p, or one SELECT) is a one-plan batch: it runs
on the calling thread and starts no worker, whatever `--threads` says.
Answers are bit-identical at every thread count — threads only change
wall-clock time. Batched sql statements must be exact PT-k queries
sharing one WHERE and ORDER BY.

`--no-prune` (query, sql, utopk, ukranks, erank; exact method only)
disables the paper's §4.4
pruning rules and the Global-Topk / U-KRanks stop, so every tuple is
evaluated and all answer probabilities are reported. Each query runs as
one scan whatever `--threads` says, so its answer, counters and trace are
the same at every thread count. Its memory follows the rules still open
at each rank, not the scan depth: on rank-local rules, which
`generate synthetic --rule-span W` produces (each rule's members inside a
random W-rank window), a full scan keeps only a short stretch of DP
rows.

`pack` writes a run file of fixed B-byte blocks (`--block-size B`,
default 4096), each with a directory entry carrying its record count, max
membership probability, score range and rule flags. `scan` streams a run
through a pinned buffer pool (`--pool-frames` bounds resident frames) and
the PT-k executor skips the full decode of rule-free blocks whose max
probability is already under the Theorem 3(1) bound — bit-identical
answers, fewer decoded bytes (`--stats` counters `access.block.*`).
`inspect <file.run>` prints the block directory. `generate … --out
file.run` packs a dataset directly.

`serve` loads the CSV once and answers the same SQL dialect over a minimal
HTTP/1.1 + JSON surface until `POST /shutdown`: `POST /sql` (statement in
the body, optional `?stats=text|json|prom`), `GET /metrics` (Prometheus),
`GET /health`. Responses are byte-identical to `ptk sql` output; errors are
`{\"error\":{\"code\":…,\"message\":…}}`. `--queue` bounds the admission
queue (overflow → 429), `--timeout-ms` bounds queue wait + request read
(→ 408), `--cache` sizes the result cache keyed on the statement text.
`--ready-file` writes the bound address after listen, for scripts using
`--addr 127.0.0.1:0`. Every request (successes, errors, rejections)
leaves a flight record in a bounded ring (`--flight-capacity`,
default 256) served timing-free by `GET /debug/queries`, next to
`GET /debug/pool` (pool/queue/cache occupancy) and `GET /debug/config`;
`/metrics` adds per-request latency percentile gauges (p50/p95/p99/max),
and `--slow-ms N` logs each request at or over N ms to stderr with its
full flight record and plan.

EXAMPLES:
  ptk query sightings.csv --k 10 --p 0.5 --rank-by drifted_days
  ptk query sightings.csv --k 10,20,50 --p 0.3,0.5 --rank-by drifted_days \
    --threads 4
  ptk sql sightings.csv \
    'SELECT TOP 10 FROM s ORDER BY drifted_days DESC WITH PROBABILITY >= 0.5'
  ptk generate iip --tuples 1000 --rules 200 > sightings.csv
";

/// Entry point shared by the binary and the tests: runs a full command line
/// (without the program name) and returns the output text.
///
/// # Errors
/// Returns a human-readable message for any parse, IO or query error.
pub fn run(args: &[String]) -> Result<String, String> {
    commands::dispatch(args)
}
