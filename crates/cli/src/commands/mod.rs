//! Command parsing and dispatch.
//!
//! Each command family lives in its own submodule — `query` (view-based
//! queries and table introspection), `sql` (the statement language),
//! `scan` (packed run files and progressive retrieval), `gen`
//! (dataset generation) — with the shared rendering helpers in `render`
//! and the one observability context every query command records into in
//! `ctx`. This module owns the flag parser, the error type, and the
//! dispatcher, with the table of commands and the flags each one reads.

use std::collections::HashMap;
use std::io::{self, Write};

use ptk_core::{ComparisonOp, Predicate, Ranking, SortDirection, UncertainTable};

use crate::load::{load_table, parse_value};
use crate::USAGE;

mod ctx;
mod gen;
mod query;
mod render;
mod scan;
mod serve;
mod sql;
mod trace;

/// Failure modes of a CLI command.
#[derive(Debug)]
pub enum CmdError {
    /// Bad arguments, unreadable input, or a query failure — reported on
    /// stderr with exit code 1.
    Usage(String),
    /// The output sink failed. A [`io::ErrorKind::BrokenPipe`] here is the
    /// conventional Unix signal that the consumer has seen enough
    /// (`ptk … | head`) and must exit the process cleanly, not panic.
    Io(io::Error),
}

impl CmdError {
    /// True when the error is a broken pipe on the output sink.
    pub fn is_broken_pipe(&self) -> bool {
        matches!(self, CmdError::Io(e) if e.kind() == io::ErrorKind::BrokenPipe)
    }
}

impl From<String> for CmdError {
    fn from(message: String) -> CmdError {
        CmdError::Usage(message)
    }
}

impl From<&str> for CmdError {
    fn from(message: &str) -> CmdError {
        CmdError::Usage(message.to_owned())
    }
}

impl From<io::Error> for CmdError {
    fn from(error: io::Error) -> CmdError {
        CmdError::Io(error)
    }
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmdError::Usage(message) => f.write_str(message),
            CmdError::Io(error) => write!(f, "writing output: {error}"),
        }
    }
}

impl std::error::Error for CmdError {}

/// Parsed command-line flags: positional arguments and `--key value` pairs.
#[derive(Debug, Default)]
struct Flags {
    positional: Vec<String>,
    named: HashMap<String, String>,
    /// Every flag name given, switches included, in command-line order.
    given: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: [&str; 4] = ["asc", "audit", "explain", "no-prune"];

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            flags.given.push(name.to_owned());
            if !SWITCHES.contains(&name) {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{name} requires a value"))?;
                flags.named.insert(name.to_owned(), value.clone());
            }
        } else {
            flags.positional.push(arg.clone());
        }
    }
    Ok(flags)
}

impl Flags {
    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.named.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot parse '{raw}'")),
        }
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// A required flag whose value may be a comma-separated list
    /// (`--k 10,20,50`). A single value parses as a one-element list, so
    /// callers can treat every flag as a list uniformly.
    fn require_list<T: std::str::FromStr>(&self, name: &str) -> Result<Vec<T>, String> {
        let raw = self
            .named
            .get(name)
            .ok_or_else(|| format!("--{name} is required"))?;
        raw.split(',')
            .map(|part| {
                let part = part.trim();
                if part.is_empty() {
                    return Err(format!(
                        "--{name}: empty item in list '{raw}' — remove the \
                         stray comma"
                    ));
                }
                part.parse()
                    .map_err(|_| format!("--{name}: cannot parse '{part}'"))
            })
            .collect()
    }

    fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|s| s == name)
    }
}

/// Builds the worker pool for batch execution: `--threads N` wins, else the
/// `PTK_THREADS` environment variable, else a single worker. Thread count
/// never affects answers — only wall-clock time. Both sources are strictly
/// validated: `0`, negative values and non-numbers are errors, not silent
/// fallbacks to a default.
fn pool_from_flags(flags: &Flags) -> Result<ptk_par::ThreadPool, String> {
    match flags.named.get("threads") {
        Some(raw) => ptk_par::parse_thread_count(raw)
            .map(ptk_par::ThreadPool::new)
            .map_err(|e| format!("--threads: {e}")),
        None => ptk_par::threads_from_env_strict(1).map(ptk_par::ThreadPool::new),
    }
}

/// Engine options from flags: `--no-prune` turns off the §4.4 pruning rules
/// so every tuple of the ranked view is evaluated and every probability is
/// reported. Each query still runs as one scan; `--threads N` spreads the
/// queries of a batch, not one query's scan.
fn engine_options_from_flags(flags: &Flags) -> ptk_engine::EngineOptions {
    if flags.switch("no-prune") {
        ptk_engine::EngineOptions::without_pruning(ptk_engine::SharingVariant::Lazy)
    } else {
        ptk_engine::EngineOptions::default()
    }
}

/// The ranking semantics selected by `--semantics` (default: PT-k). The
/// parser folds case and `_`/`-` separators, so `u_topk`, `U-TopK` and
/// `UTOPK` all name the same semantics.
fn semantics_from_flags(flags: &Flags) -> Result<ptk_engine::RankSemantics, String> {
    match flags.named.get("semantics") {
        None => Ok(ptk_engine::RankSemantics::Ptk),
        Some(raw) => ptk_engine::RankSemantics::parse(raw).ok_or_else(|| {
            format!(
                "--semantics: unknown ranking semantics '{raw}' \
                 (ptk | u_topk | u_kranks | global_topk | expected_rank)"
            )
        }),
    }
}

/// The `--where` predicate, a clause of the form `<column><op><value>`;
/// without the flag, every tuple qualifies.
fn where_from_flags(flags: &Flags, table: &UncertainTable) -> Result<Predicate, String> {
    let Some(clause) = flags.named.get("where") else {
        return Ok(Predicate::True);
    };
    // Longest operators first so `<=` wins over `<`.
    const OPS: [(&str, ComparisonOp); 6] = [
        ("!=", ComparisonOp::Ne),
        ("<=", ComparisonOp::Le),
        (">=", ComparisonOp::Ge),
        ("=", ComparisonOp::Eq),
        ("<", ComparisonOp::Lt),
        (">", ComparisonOp::Gt),
    ];
    for (symbol, op) in OPS {
        if let Some(at) = clause.find(symbol) {
            let column_name = clause[..at].trim();
            let value_text = clause[at + symbol.len()..].trim();
            let column = table
                .column_index(column_name)
                .ok_or_else(|| format!("unknown column '{column_name}'"))?;
            return Ok(Predicate::Compare {
                column,
                op,
                value: parse_value(value_text),
            });
        }
    }
    Err(format!(
        "cannot parse --where '{clause}' (expected <col><op><value>)"
    ))
}

fn build_ranking(flags: &Flags, table: &UncertainTable) -> Result<Ranking, String> {
    let column_name: String = flags.require("rank-by")?;
    let column = table
        .column_index(&column_name)
        .ok_or_else(|| format!("unknown column '{column_name}'"))?;
    let direction = if flags.switch("asc") {
        SortDirection::Ascending
    } else {
        SortDirection::Descending
    };
    Ok(Ranking::by_column(column, direction))
}

fn load_from_flags(flags: &Flags) -> Result<UncertainTable, String> {
    let path = flags.positional.get(1).ok_or("missing CSV file argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    load_table(&text)
}

/// The observability flags every query command reads (see `ctx`).
const OBSERVE: &str = "stats audit trace trace-format slow-ms";
/// What the ranking commands read besides [`OBSERVE`]. `utopk`, `ukranks`
/// and `erank` read `--p`, `--semantics`, `--explain` and a non-exact
/// `--method` only to refuse them with their own message.
const RANK: &str = "k p rank-by asc where semantics method threads no-prune explain";

/// What runs a command.
type Run = fn(&Flags, &mut dyn Write) -> Result<(), CmdError>;

/// Every command: its name, what runs it, and the flags it reads,
/// switches included, in space-separated groups. A flag outside them is
/// refused before the command runs, so one it cannot act on never passes
/// silently; one it reads only to refuse (`--rule-span` on `generate
/// iip`) keeps its own message.
const COMMANDS: &[(&str, Run, &[&str])] = &[
    ("query", query::cmd_query, &[RANK, "seed", OBSERVE]),
    ("utopk", query::cmd_utopk, &[RANK, OBSERVE]),
    ("ukranks", query::cmd_ukranks, &[RANK, OBSERVE]),
    ("erank", query::cmd_erank, &[RANK, OBSERVE]),
    ("inspect", query::cmd_inspect, &[]),
    (
        "worlds",
        query::cmd_worlds,
        &["rank-by asc limit max-worlds"],
    ),
    ("sql", sql::cmd_sql, &["threads no-prune seed", OBSERVE]),
    (
        "serve",
        serve::cmd_serve,
        &["addr threads queue timeout-ms cache seed no-prune slow-ms flight-capacity ready-file"],
    ),
    // A run file is always in descending score order: no `--asc`.
    ("pack", scan::cmd_pack, &["rank-by out block-size"]),
    (
        "scan",
        scan::cmd_scan,
        &["k p semantics pool-frames", OBSERVE],
    ),
    ("trace-check", trace::cmd_trace_check, &[]),
    (
        "generate",
        gen::cmd_generate,
        &["tuples rules seed rule-span out block-size rank-by"],
    ),
    ("help", help, &[]),
];

fn help(_: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    Ok(out.write_all(USAGE.as_bytes())?)
}

/// Executes a full command line (without the program name), writing the
/// result to `out`.
///
/// # Errors
/// [`CmdError::Usage`] for any parse, input or query failure, and for a
/// flag the command does not read; [`CmdError::Io`] when `out` rejects a
/// write (check [`CmdError::is_broken_pipe`] to exit cleanly under
/// `ptk … | head`).
pub fn dispatch_to(args: &[String], out: &mut dyn Write) -> Result<(), CmdError> {
    let flags = parse_flags(args)?;
    let Some(name) = flags.positional.first() else {
        return help(&flags, out);
    };
    let Some(&(_, run, reads)) = COMMANDS.iter().find(|(command, ..)| command == name) else {
        return Err(format!("unknown command '{name}'\n\n{USAGE}").into());
    };
    let reads = |flag: &String| {
        reads
            .iter()
            .flat_map(|group| group.split(' '))
            .any(|f| f == flag)
    };
    if let Some(flag) = flags.given.iter().find(|flag| !reads(flag)) {
        return Err(format!("{name} takes no --{flag} (see `ptk help`)").into());
    }
    run(&flags, out)
}

/// Executes a full command line (without the program name) and returns the
/// output text. Buffered convenience wrapper over [`dispatch_to`] for tests
/// and embedding.
///
/// # Errors
/// Returns a human-readable message for any parse, IO or query failure.
pub fn dispatch(args: &[String]) -> Result<String, String> {
    let mut buffer = Vec::new();
    match dispatch_to(args, &mut buffer) {
        Ok(()) => Ok(String::from_utf8(buffer).expect("command output is UTF-8")),
        Err(error) => Err(error.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    fn panda_file() -> tempfile::TempPath {
        tempfile::csv(
            "prob,rule,duration,rid
0.3,,25,R1
0.4,b,21,R2
0.5,b,13,R3
1.0,,12,R4
0.8,e,17,R5
0.2,e,11,R6
",
        )
    }

    /// Minimal temp-file helper (std-only).
    mod tempfile {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        pub struct TempPath(pub PathBuf);
        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        impl TempPath {
            pub fn as_str(&self) -> &str {
                self.0.to_str().unwrap()
            }
        }

        static COUNTER: AtomicU64 = AtomicU64::new(0);

        pub fn csv(content: &str) -> TempPath {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("ptk-cli-test-{}-{n}.csv", std::process::id()));
            std::fs::write(&path, content).unwrap();
            TempPath(path)
        }

        /// A fresh path with the given extension; nothing is created, and
        /// whatever the test writes there is removed on drop.
        pub fn path(ext: &str) -> TempPath {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            TempPath(
                std::env::temp_dir().join(format!("ptk-cli-test-{}-{n}.{ext}", std::process::id())),
            )
        }
    }

    #[test]
    fn help_is_default() {
        assert!(dispatch(&[]).unwrap().contains("USAGE"));
        assert!(dispatch(&args(&["help"])).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn query_exact_matches_paper_example() {
        let file = panda_file();
        let out = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "2",
            "--p",
            "0.35",
            "--rank-by",
            "duration",
        ]))
        .unwrap();
        assert!(out.contains("3 tuples pass"), "{out}");
        assert!(
            out.contains("R2") && out.contains("R3") && out.contains("R5"),
            "{out}"
        );
        assert!(!out.contains("R1,") && !out.contains("R4") && !out.contains("R6"));
    }

    #[test]
    fn query_methods_agree() {
        let file = panda_file();
        for method in ["exact", "sampling", "naive"] {
            let out = dispatch(&args(&[
                "query",
                file.as_str(),
                "--k",
                "2",
                "--p",
                "0.35",
                "--rank-by",
                "duration",
                "--method",
                method,
            ]))
            .unwrap();
            assert!(out.contains("3 tuples pass"), "{method}: {out}");
        }
    }

    #[test]
    fn query_stats_json_on_every_method() {
        let file = panda_file();
        for method in ["exact", "sampling", "naive"] {
            let out = dispatch(&args(&[
                "query",
                file.as_str(),
                "--k",
                "2",
                "--p",
                "0.35",
                "--rank-by",
                "duration",
                "--method",
                method,
                "--stats",
                "json",
            ]))
            .unwrap();
            let json = out.lines().last().unwrap();
            assert!(
                json.starts_with('{') && json.ends_with('}'),
                "{method}: {out}"
            );
            assert!(json.contains("\"counters\""), "{method}: {out}");
            assert!(json.contains("\"engine.answers\":3"), "{method}: {out}");
        }
    }

    #[test]
    fn query_batch_runs_the_cross_product() {
        let file = panda_file();
        let out = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "2,3",
            "--p",
            "0.35,0.6",
            "--rank-by",
            "duration",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("batch of 4 queries"), "{out}");
        assert!(out.contains("(2 threads)"), "{out}");
        // Each single-query answer block reappears verbatim inside the
        // batch: same header (behind the `-- ` prefix), same rows.
        for (k, p) in [("2", "0.35"), ("2", "0.6"), ("3", "0.35"), ("3", "0.6")] {
            let single = dispatch(&args(&[
                "query",
                file.as_str(),
                "--k",
                k,
                "--p",
                p,
                "--rank-by",
                "duration",
            ]))
            .unwrap();
            let mut lines = single.lines();
            let header = lines.next().unwrap();
            assert!(out.contains(&format!("-- {header}")), "k={k} p={p}: {out}");
            for row in lines {
                assert!(out.contains(row), "k={k} p={p} missing row {row}: {out}");
            }
        }
    }

    #[test]
    fn query_batch_stats_merges_all_queries() {
        let file = panda_file();
        let out = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "2",
            "--p",
            "0.35,0.6,0.9",
            "--rank-by",
            "duration",
            "--stats",
            "json",
        ]))
        .unwrap();
        let json = out.lines().last().unwrap();
        assert!(json.starts_with('{') && json.ends_with('}'), "{out}");
        assert!(json.contains("\"engine.scanned\""), "{out}");
        // Three queries, each scanning the shared 6-tuple view.
        assert!(json.contains("\"engine.scanned\":18"), "{out}");
    }

    #[test]
    fn query_batch_rejects_non_exact_methods_and_bad_flags() {
        let file = panda_file();
        let err = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "2,3",
            "--p",
            "0.35",
            "--rank-by",
            "duration",
            "--method",
            "sampling",
        ]))
        .unwrap_err();
        assert!(err.contains("exact-only"), "{err}");
        let err = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "2,,3",
            "--p",
            "0.35",
            "--rank-by",
            "duration",
        ]))
        .unwrap_err();
        assert!(err.contains("--k: empty item in list '2,,3'"), "{err}");
        let err = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "2,3,",
            "--p",
            "0.35",
            "--rank-by",
            "duration",
        ]))
        .unwrap_err();
        assert!(err.contains("--k: empty item in list '2,3,'"), "{err}");
        let err = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "2",
            "--p",
            "0.35,",
            "--rank-by",
            "duration",
        ]))
        .unwrap_err();
        assert!(err.contains("--p: empty item in list '0.35,'"), "{err}");
        let err = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "2",
            "--p",
            ",0.35",
            "--rank-by",
            "duration",
        ]))
        .unwrap_err();
        assert!(err.contains("--p: empty item in list ',0.35'"), "{err}");
        let err = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "2",
            "--p",
            "0.35,0.4",
            "--rank-by",
            "duration",
            "--threads",
            "0",
        ]))
        .unwrap_err();
        assert!(
            err.contains("--threads: thread count must be >= 1"),
            "{err}"
        );
        // The single-query and single-statement paths validate it too.
        let err = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "2",
            "--p",
            "0.35",
            "--rank-by",
            "duration",
            "--threads",
            "0",
        ]))
        .unwrap_err();
        assert!(
            err.contains("--threads: thread count must be >= 1"),
            "{err}"
        );
        let err = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT TOP 2 FROM panda ORDER BY duration WITH PROBABILITY >= 0.35",
            "--threads",
            "0",
        ]))
        .unwrap_err();
        assert!(
            err.contains("--threads: thread count must be >= 1"),
            "{err}"
        );
    }

    #[test]
    fn sql_batch_shares_one_view_across_statements() {
        let file = panda_file();
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT TOP 2 FROM panda ORDER BY duration WITH PROBABILITY >= 0.35; \
             SELECT TOP 3 FROM panda ORDER BY duration WITH PROBABILITY >= 0.6",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("batch of 2 statements"), "{out}");
        assert!(out.contains("pass Pr^2 >= 0.35"), "{out}");
        assert!(out.contains("pass Pr^3 >= 0.6"), "{out}");
        // A trailing semicolon is not a second statement.
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT TOP 2 FROM panda ORDER BY duration WITH PROBABILITY >= 0.35;",
        ]))
        .unwrap();
        assert!(out.contains("3 tuples pass"), "{out}");
        assert!(!out.contains("batch of"), "{out}");
    }

    #[test]
    fn sql_batch_validates_its_statements() {
        let file = panda_file();
        let err = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT TOP 2 FROM panda ORDER BY duration; \
             SELECT TOP 2 FROM panda ORDER BY rid",
        ]))
        .unwrap_err();
        assert!(
            err.contains("statement 2") && err.contains("ORDER BY"),
            "{err}"
        );
        let err = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT TOP 2 FROM panda ORDER BY duration; \
             SELECT UTOPK 2 FROM panda ORDER BY duration",
        ]))
        .unwrap_err();
        assert!(err.contains("only SELECT TOP"), "{err}");
        let err = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT TOP 2 FROM panda ORDER BY duration; \
             SELECT TOP 2 FROM panda ORDER BY duration USING naive",
        ]))
        .unwrap_err();
        assert!(err.contains("exact-only"), "{err}");
        let err = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT TOP 2 FROM panda ORDER BY duration; \
             EXPLAIN SELECT TOP 2 FROM panda ORDER BY duration",
        ]))
        .unwrap_err();
        assert!(err.contains("EXPLAIN cannot be batched"), "{err}");
        let err = dispatch(&args(&["sql", file.as_str(), " ; "])).unwrap_err();
        assert!(err.contains("empty statement"), "{err}");
    }

    #[test]
    fn query_stats_text_and_bad_mode() {
        let file = panda_file();
        let out = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "2",
            "--p",
            "0.35",
            "--rank-by",
            "duration",
            "--stats",
            "text",
        ]))
        .unwrap();
        assert!(out.contains("engine.scanned"), "{out}");
        let err = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "2",
            "--p",
            "0.35",
            "--rank-by",
            "duration",
            "--stats",
            "xml",
        ]))
        .unwrap_err();
        assert!(err.contains("--stats"), "{err}");
    }

    #[test]
    fn broken_pipe_is_io_not_panic() {
        /// A consumer that hangs up immediately, like `head -0`.
        struct ClosedPipe;
        impl std::io::Write for ClosedPipe {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "consumer closed",
                ))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let file = panda_file();
        let err = dispatch_to(
            &args(&[
                "query",
                file.as_str(),
                "--k",
                "2",
                "--p",
                "0.35",
                "--rank-by",
                "duration",
            ]),
            &mut ClosedPipe,
        )
        .unwrap_err();
        assert!(err.is_broken_pipe(), "{err:?}");

        // Usage failures are not broken pipes: the process must still exit 1.
        let err = dispatch_to(&args(&["frobnicate"]), &mut ClosedPipe).unwrap_err();
        assert!(!err.is_broken_pipe(), "{err:?}");
        assert!(matches!(err, CmdError::Usage(_)), "{err:?}");
    }

    #[test]
    fn query_with_where_clause() {
        let file = panda_file();
        let out = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "2",
            "--p",
            "0.1",
            "--rank-by",
            "duration",
            "--where",
            "duration>=13",
        ]))
        .unwrap();
        // Only R1, R2, R3, R5 survive the predicate.
        assert!(!out.contains("R4") && !out.contains("R6"), "{out}");
    }

    #[test]
    fn utopk_and_ukranks_run() {
        // The paper's §1 answers, pinned byte for byte: U-Top2 <R5, R3> at
        // 0.28, U-KRanks R5 at both ranks, expected rank R5 then R2.
        let file = panda_file();
        let run = |command: &str| {
            dispatch(&args(&[
                command,
                file.as_str(),
                "--k",
                "2",
                "--rank-by",
                "duration",
            ]))
            .unwrap()
        };
        assert_eq!(
            run("utopk"),
            "most probable top-2 vector (probability 0.280000):\n\
             \x20 rank    3  membership=0.800  [17, R5]\n\
             \x20 rank    4  membership=0.500  [13, R3]\n"
        );
        let semantics_path = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "2",
            "--rank-by",
            "duration",
            "--semantics",
            "u_topk",
        ]))
        .unwrap();
        assert_eq!(run("utopk"), semantics_path);
        assert_eq!(
            run("ukranks"),
            "most probable tuple at each rank:\n\
             \x20 rank   1: ranked position    3, probability 0.3360  [17, R5]\n\
             \x20 rank   2: ranked position    3, probability 0.3680  [17, R5]\n"
        );
        assert_eq!(
            run("erank"),
            "top-2 by expected rank (Cormode et al. semantics):\n\
             \x20 expected rank     1.20  ranked position    3  membership=0.800  [17, R5]\n\
             \x20 expected rank     2.00  ranked position    2  membership=0.400  [21, R2]\n"
        );
        let err = dispatch(&args(&[
            "utopk",
            file.as_str(),
            "--k",
            "0",
            "--rank-by",
            "duration",
        ]))
        .unwrap_err();
        assert_eq!(err, "top-k queries require k >= 1");
    }

    #[test]
    fn ukranks_and_the_semantics_path_agree_on_a_rank_no_world_fills() {
        // At most three of these tuples exist together (the 0.9 and 0.08
        // rows share a rule), so rank 4 has probability exactly 0 for
        // everyone: the first ranked position keeps it, on both paths.
        let file = tempfile::csv("prob,rule,score\n0.19,,4\n0.9,r,3\n0.36,,2\n0.08,r,1\n");
        let expected = "most probable tuple at each rank:\n\
                        \x20 rank   1: ranked position    2, probability 0.7290  [3]\n\
                        \x20 rank   2: ranked position    3, probability 0.2693  [2]\n\
                        \x20 rank   3: ranked position    3, probability 0.0616  [2]\n\
                        \x20 rank   4: ranked position    1, probability 0.0000  [4]\n";
        let ukranks = dispatch(&args(&[
            "ukranks",
            file.as_str(),
            "--k",
            "4",
            "--rank-by",
            "score",
        ]))
        .unwrap();
        assert_eq!(ukranks, expected);
        let semantics = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "4",
            "--rank-by",
            "score",
            "--semantics",
            "u_kranks",
        ]))
        .unwrap();
        assert_eq!(semantics, expected);
    }

    /// Overwrites 8 bytes at `field` (8: score, 16: probability) of the
    /// record at `rank` in a run file, and rewrites its block's checksum
    /// in the directory, so the record checks, not the checksum, must
    /// catch the value. A run ends with its blocks, each directory entry
    /// (36 bytes, checksum last) sits before them, and the header holds
    /// the block size at byte 8 and the record count at byte 12.
    fn rewrite_record(bytes: &mut [u8], rank: usize, field: usize, value: f64) {
        let block_size = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let tuples = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let capacity = block_size / 24;
        let blocks = tuples.div_ceil(capacity);
        let data_start = bytes.len() - blocks * block_size;
        let (b, slot) = (rank / capacity, rank % capacity);
        let frame = data_start + b * block_size;
        let at = frame + slot * 24 + field;
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        let entry = data_start - (blocks - b) * 36;
        let records = u32::from_le_bytes(bytes[entry..entry + 4].try_into().unwrap()) as usize;
        let crc = ptk_access::crc32(&bytes[frame..frame + records * 24]);
        bytes[entry + 32..entry + 36].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn a_corrupt_record_fails_the_scan_instead_of_answering_short() {
        let (_table, run) = synthetic_run();
        let clean = std::fs::read(&run.0).unwrap();
        let scans: [&[&str]; 2] = [
            &["--k", "10", "--p", "0.3"],
            &["--k", "10", "--semantics", "global_topk"],
        ];
        for scan in scans {
            let mut argv = vec!["scan", run.as_str()];
            argv.extend_from_slice(scan);
            assert!(dispatch(&args(&argv)).is_ok(), "clean file: {scan:?}");
        }
        // A probability above 1 and a NaN score, under a checksum that
        // matches, fail both scans: neither may pass for a clean early stop.
        for (field, value) in [(16, 2.0), (8, f64::NAN)] {
            let mut bytes = clean.clone();
            rewrite_record(&mut bytes, 5, field, value);
            std::fs::write(&run.0, &bytes).unwrap();
            for scan in scans {
                let mut argv = vec!["scan", run.as_str()];
                argv.extend_from_slice(scan);
                let err = dispatch(&args(&argv)).unwrap_err();
                assert!(err.contains("record 5"), "{value} {scan:?}: {err}");
                assert!(!err.contains("checksum"), "{value} {scan:?}: {err}");
            }
        }
    }

    /// No checksum covers a run file's rule masses. Overwritten with 0,
    /// -1 or 1e-300 (the clean answer has 11 rows), every mass of a run
    /// fails the scan with an error naming a rule, never a shorter
    /// answer.
    #[test]
    fn a_corrupt_rule_mass_fails_the_scan_instead_of_answering_wrong() {
        let (_table, run) = synthetic_run();
        let scan = || dispatch(&args(&["scan", run.as_str(), "--k", "10", "--p", "0.3"]));
        let clean = std::fs::read(&run.0).unwrap();
        let answer = scan().unwrap();
        assert!(answer.contains("11 tuples pass"), "{answer}");
        // The rule count sits at byte 20, the masses follow it.
        let rules = u32::from_le_bytes(clean[20..24].try_into().unwrap());
        for mass in [0.0, -1.0, 1e-300] {
            let mut bytes = clean.clone();
            for r in 0..rules as usize {
                let at = 24 + 8 * r;
                bytes[at..at + 8].copy_from_slice(&f64::to_le_bytes(mass));
            }
            std::fs::write(&run.0, &bytes).unwrap();
            let err = scan().unwrap_err();
            assert!(
                err.contains("corrupt run file") && err.contains(" rule "),
                "{mass}: {err}"
            );
        }
    }

    #[test]
    fn pack_and_scan_roundtrip() {
        let file = panda_file();
        let run_path =
            std::env::temp_dir().join(format!("ptk-cli-pack-{}.run", std::process::id()));
        let run_str = run_path.to_str().unwrap().to_owned();
        let out = dispatch(&args(&[
            "pack",
            file.as_str(),
            "--rank-by",
            "duration",
            "--out",
            &run_str,
        ]))
        .unwrap();
        assert!(out.contains("packed 6 tuples (2 rules)"), "{out}");
        let out = dispatch(&args(&["scan", &run_str, "--k", "2", "--p", "0.35"])).unwrap();
        assert!(out.contains("3 tuples pass"), "{out}");
        // Rows 1, 4, 2 are R2, R5, R3 in CSV order.
        assert!(
            out.contains("row      1") && out.contains("row      4"),
            "{out}"
        );
        // --stats json surfaces the file-access counters.
        let out = dispatch(&args(&[
            "scan", &run_str, "--k", "2", "--p", "0.35", "--stats", "json",
        ]))
        .unwrap();
        let json = out.lines().last().unwrap();
        assert!(json.contains("\"access.file.bytes_read\""), "{out}");
        assert!(json.contains("\"engine.scanned\""), "{out}");
        // An empty table packs into no block, and says so.
        let empty = tempfile::csv("prob,duration\n");
        let out = dispatch(&args(&[
            "pack",
            empty.as_str(),
            "--rank-by",
            "duration",
            "--out",
            &run_str,
        ]))
        .unwrap();
        assert!(out.contains("packed 0 tuples (0 rules)"), "{out}");
        assert!(out.contains("(0 blocks of 4096 B)"), "{out}");
        let _ = std::fs::remove_file(&run_path);
    }

    #[test]
    fn pack_block_size_scans_paged_and_bit_identical_to_one_block() {
        let file = panda_file();
        let (one, v2) = (tempfile::path("run"), tempfile::path("run"));
        let out = dispatch(&args(&[
            "pack",
            file.as_str(),
            "--rank-by",
            "duration",
            "--out",
            one.as_str(),
        ]))
        .unwrap();
        // The default block size holds the whole table.
        assert!(out.contains("(1 blocks of 4096 B)"), "{out}");
        let out = dispatch(&args(&[
            "pack",
            file.as_str(),
            "--rank-by",
            "duration",
            "--out",
            v2.as_str(),
            "--block-size",
            "48",
        ]))
        .unwrap();
        // 6 records at 2 per 48-byte block.
        assert!(
            out.contains("packed 6 tuples (2 rules)") && out.contains("3 blocks of 48 B"),
            "{out}"
        );
        let scan = |run: &str, extra: &[&str]| {
            let mut argv = args(&["scan", run, "--k", "2", "--p", "0.35"]);
            argv.extend(extra.iter().map(|s| (*s).to_owned()));
            dispatch(&argv)
        };
        // Three blocks answer byte-for-byte like one.
        assert_eq!(
            scan(one.as_str(), &[]).unwrap(),
            scan(v2.as_str(), &[]).unwrap()
        );
        // Even with a single-frame pool forcing eviction on every block.
        assert_eq!(
            scan(one.as_str(), &[]).unwrap(),
            scan(v2.as_str(), &["--pool-frames", "1"]).unwrap()
        );
        // Stats surface the block counters.
        let out = scan(v2.as_str(), &["--stats", "json"]).unwrap();
        let json = out.lines().last().unwrap();
        assert!(json.contains("\"access.block.read\""), "{out}");
        assert!(json.contains("\"access.block.pool_miss\""), "{out}");
        assert!(json.contains("\"access.block.decode_bytes\""), "{out}");
        // Flag validation.
        let err = scan(v2.as_str(), &["--pool-frames", "0"]).unwrap_err();
        assert!(err.contains("--pool-frames must be at least 1"), "{err}");
        // The semantics path pages too, identically to the one block.
        let sem = |run: &str| {
            dispatch(&args(&[
                "scan",
                run,
                "--k",
                "2",
                "--semantics",
                "u_topk",
                "--stats",
                "json",
            ]))
            .unwrap()
        };
        let (a, b) = (sem(one.as_str()), sem(v2.as_str()));
        assert_eq!(a.lines().next().unwrap(), b.lines().next().unwrap());
        assert!(
            b.lines().last().unwrap().contains("access.block.read"),
            "{b}"
        );
    }

    #[test]
    fn corrupt_block_is_an_error_not_a_short_answer() {
        let file = panda_file();
        let run = tempfile::path("run");
        dispatch(&args(&[
            "pack",
            file.as_str(),
            "--rank-by",
            "duration",
            "--out",
            run.as_str(),
            "--block-size",
            "48",
        ]))
        .unwrap();
        // Flip a byte inside block 0's records (the data section is the
        // trailing 3 x 48 B): the cursor dies at rank 0 and the scan must
        // report the checksum, not "0 tuples pass".
        let mut bytes = std::fs::read(run.as_str()).unwrap();
        let n = bytes.len();
        bytes[n - 144] ^= 0xFF;
        std::fs::write(run.as_str(), &bytes).unwrap();
        let err = dispatch(&args(&["scan", run.as_str(), "--k", "2", "--p", "0.35"])).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        let err = dispatch(&args(&[
            "scan",
            run.as_str(),
            "--k",
            "2",
            "--semantics",
            "u_topk",
        ]))
        .unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    /// U-TopK pulls its records on demand: a corrupt block inside the
    /// ranks its search reads fails the scan with the checksum error, never
    /// a short vector, and one past that depth is never read, as for an
    /// early-stopped PT-k scan. Expected rank reads a run file in full (it
    /// reports no total mass), so it fails on either.
    #[test]
    fn on_demand_u_topk_fails_on_a_bad_block_it_reads_and_only_then() {
        let csv = dispatch(&args(&[
            "generate",
            "synthetic",
            "--tuples",
            "600",
            "--rules",
            "60",
            "--seed",
            "17",
        ]))
        .unwrap();
        let file = tempfile::csv(&csv);
        let run = tempfile::path("run");
        dispatch(&args(&[
            "pack",
            file.as_str(),
            "--rank-by",
            "score",
            "--out",
            run.as_str(),
            "--block-size",
            "1024",
        ]))
        .unwrap();
        let scan = |semantics: &str| {
            dispatch(&args(&[
                "scan",
                run.as_str(),
                "--k",
                "5",
                "--semantics",
                semantics,
            ]))
        };
        let clean = scan("u_topk").unwrap();
        // 42 records a block: the search reads inside block 0 alone.
        assert!(clean.contains("streamed 14 of 600 records"), "{clean}");
        // The data section is the file's tail: 15 blocks of 1024 B.
        let pristine = std::fs::read(run.as_str()).unwrap();
        let data_start = pristine.len() - 15 * 1024;
        let corrupt = |offset: usize| {
            let mut bytes = pristine.clone();
            bytes[offset] ^= 0xFF;
            std::fs::write(run.as_str(), &bytes).unwrap();
        };
        // A bad score byte in block 0's first record, which the search reads.
        corrupt(data_start + 8);
        for semantics in ["u_topk", "expected_rank"] {
            let err = scan(semantics).unwrap_err();
            assert!(err.contains("checksum"), "{semantics}: {err}");
        }
        // A bad score byte in the last block, which it never reads.
        corrupt(data_start + 14 * 1024 + 8);
        assert_eq!(scan("u_topk").unwrap(), clean);
        let err = scan("expected_rank").unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn inspect_prints_the_block_directory() {
        let file = panda_file();
        let run = tempfile::path("run");
        dispatch(&args(&[
            "pack",
            file.as_str(),
            "--rank-by",
            "duration",
            "--out",
            run.as_str(),
            "--block-size",
            "48",
        ]))
        .unwrap();
        let out = dispatch(&args(&["inspect", run.as_str()])).unwrap();
        assert!(out.contains("run file (v2, block-native)"), "{out}");
        assert!(out.contains("tuples:     6"), "{out}");
        assert!(out.contains("block size: 48 B (2 records/block)"), "{out}");
        assert!(out.contains("blocks:     3"), "{out}");
        // Ranked order is R1(25) R2(21) R5(17) R3(13) R4(12) R6(11): rule
        // b spans blocks 0-1, rule e spans 1-2, so only the final block is
        // a rule-closed cut and none is rule-free.
        assert!(out.contains("block    0: ranks        0..1"), "{out}");
        assert!(out.contains("max-p 0.4000"), "{out}");
        assert!(out.contains("rule-closed"), "{out}");
        // A file of the retired flat format fails with the repack hint:
        // its 20-byte header (magic, record count, rule count), then one
        // rule mass.
        let v1 = tempfile::path("run");
        let mut header = b"PTKRUN01".to_vec();
        header.extend(0u64.to_le_bytes());
        header.extend(1u32.to_le_bytes());
        header.extend(0.5f64.to_le_bytes());
        std::fs::write(&v1.0, header).unwrap();
        let err = dispatch(&args(&["inspect", v1.as_str()])).unwrap_err();
        assert!(err.contains("PTKRUN01"), "{err}");
        assert!(
            err.contains("repack the table from its CSV with `ptk pack`"),
            "{err}"
        );
    }

    /// A frame holds a block of any size `pack` writes: runs packed at
    /// 128 KiB and at the 1 MiB ceiling scan like a 4 KiB packing, and
    /// `inspect` prints their directory.
    #[test]
    fn a_run_of_any_packable_block_size_scans_and_inspects() {
        let (table, small) = synthetic_run();
        let scans: [&[&str]; 2] = [
            &["--k", "10", "--p", "0.3"],
            &[
                "--k",
                "10",
                "--semantics",
                "global_topk",
                "--pool-frames",
                "2",
            ],
        ];
        let scan = |run: &str, extra: &[&str]| {
            let mut argv = vec!["scan", run];
            argv.extend_from_slice(extra);
            dispatch(&args(&argv)).unwrap()
        };
        for size in ["131072", "1048576"] {
            let big = tempfile::path("run");
            let out = dispatch(&args(&[
                "pack",
                table.as_str(),
                "--rank-by",
                "score",
                "--out",
                big.as_str(),
                "--block-size",
                size,
            ]))
            .unwrap();
            assert!(out.contains(&format!("(1 blocks of {size} B)")), "{out}");
            for extra in scans {
                assert_eq!(
                    scan(big.as_str(), extra),
                    scan(small.as_str(), extra),
                    "{size}"
                );
            }
            let out = dispatch(&args(&["inspect", big.as_str()])).unwrap();
            assert!(out.contains(&format!("block size: {size} B")), "{out}");
            assert!(out.contains("blocks:     1\n"), "{out}");
            assert!(out.contains("block    0: ranks        0..1999"), "{out}");
        }
    }

    #[test]
    fn generate_packs_directly_to_a_run_file() {
        let run = tempfile::path("run");
        let out = dispatch(&args(&[
            "generate",
            "synthetic",
            "--tuples",
            "200",
            "--rules",
            "10",
            "--seed",
            "7",
            "--out",
            run.as_str(),
            "--block-size",
            "1024",
        ]))
        .unwrap();
        assert!(
            out.contains("generated and packed 200 tuples (10 rules)"),
            "{out}"
        );
        assert!(out.contains("5 blocks of 1024 B"), "{out}");
        let out = dispatch(&args(&["scan", run.as_str(), "--k", "5", "--p", "0.2"])).unwrap();
        assert!(out.contains("tuples pass"), "{out}");
        // --block-size alone is an error, not silently ignored.
        let err = dispatch(&args(&[
            "generate",
            "synthetic",
            "--tuples",
            "10",
            "--rules",
            "1",
            "--block-size",
            "1024",
        ]))
        .unwrap_err();
        assert!(err.contains("--block-size requires --out"), "{err}");
    }

    #[test]
    fn missing_file_and_flag_errors_are_clear() {
        let err = dispatch(&args(&[
            "query",
            "/nonexistent.csv",
            "--k",
            "2",
            "--p",
            "0.5",
            "--rank-by",
            "x",
        ]))
        .unwrap_err();
        assert!(err.contains("/nonexistent.csv"), "{err}");
        let file = panda_file();
        let err = dispatch(&args(&["erank", file.as_str(), "--rank-by", "duration"])).unwrap_err();
        assert!(err.contains("--k is required"), "{err}");
        let err = dispatch(&args(&[
            "scan",
            "/nonexistent.run",
            "--k",
            "2",
            "--p",
            "0.5",
        ]))
        .unwrap_err();
        assert!(!err.is_empty());
        let err = dispatch(&args(&["pack", file.as_str(), "--rank-by", "duration"])).unwrap_err();
        assert!(err.contains("--out is required"), "{err}");
    }

    /// `scan` feeds --k/--p straight into the streaming engine, which
    /// planned infallibly before `PtkPlan::try_new` existed: `--k 0` or a
    /// threshold outside (0, 1] was a panic, not an error.
    #[test]
    fn scan_rejects_invalid_k_and_p_without_panicking() {
        let err = dispatch(&args(&["scan", "ignored.run", "--k", "0", "--p", "0.5"])).unwrap_err();
        assert!(err.contains("k >= 1"), "{err}");
        for bad_p in ["0", "1.5", "NaN"] {
            let err =
                dispatch(&args(&["scan", "ignored.run", "--k", "2", "--p", bad_p])).unwrap_err();
            assert!(err.contains("(0, 1]"), "--p {bad_p}: {err}");
        }
    }

    #[test]
    fn scan_rejects_non_run_files() {
        let file = panda_file();
        let err = dispatch(&args(&["scan", file.as_str(), "--k", "2", "--p", "0.5"])).unwrap_err();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn sql_command_matches_flag_form() {
        let file = panda_file();
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT TOP 2 FROM panda ORDER BY duration DESC WITH PROBABILITY >= 0.35",
        ]))
        .unwrap();
        assert!(out.contains("3 tuples pass"), "{out}");
        assert!(
            out.contains("R2") && out.contains("R5") && out.contains("R3"),
            "{out}"
        );
        // Where clause + sampling method.
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT TOP 2 FROM panda WHERE duration >= 13 ORDER BY duration USING naive",
        ]))
        .unwrap();
        assert!(!out.contains("R4") && !out.contains("R6"), "{out}");
        // Parse errors surface.
        let err = dispatch(&args(&["sql", file.as_str(), "SELECT"])).unwrap_err();
        assert!(err.contains("query kind"), "{err}");
        // Other statement kinds.
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT UTOPK 2 FROM panda ORDER BY duration",
        ]))
        .unwrap();
        assert!(out.contains("0.280000"), "{out}");
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT UKRANKS 2 FROM panda ORDER BY duration",
        ]))
        .unwrap();
        assert!(out.contains("rank   1"), "{out}");
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT ERANK 3 FROM panda ORDER BY duration",
        ]))
        .unwrap();
        assert!(out.contains("expected rank"), "{out}");
        // EXPLAIN reports plan and stats.
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "EXPLAIN SELECT TOP 2 FROM panda ORDER BY duration WITH PROBABILITY >= 0.35",
        ]))
        .unwrap();
        assert!(out.contains("plan:") && out.contains("stats:"), "{out}");
    }

    #[test]
    fn sql_explain_prints_the_executor_pipeline() {
        // EXPLAIN surfaces the lowered PtkPlan stage list.
        let file = panda_file();
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "EXPLAIN SELECT TOP 2 FROM panda ORDER BY duration WITH PROBABILITY >= 0.35",
        ]))
        .unwrap();
        assert!(out.contains("ranked-retrieval"), "{out}");
        assert!(out.contains("RC+LR"), "{out}");
        assert!(out.contains("emit[p >= 0.35]"), "{out}");
    }

    #[test]
    fn sql_stats_json_appends_snapshot() {
        let file = panda_file();
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT TOP 2 FROM panda ORDER BY duration DESC WITH PROBABILITY >= 0.35",
            "--stats",
            "json",
        ]))
        .unwrap();
        let json = out.lines().last().unwrap();
        assert!(json.contains("\"engine.scanned\""), "{out}");
    }

    /// A served statement times its listing only when `?stats=` asks: the
    /// daemon's flight record alone keeps a counters-only recorder, which
    /// reads no clock.
    #[test]
    fn a_served_statement_times_its_render_only_under_stats() {
        let table =
            crate::load::load_table(&std::fs::read_to_string(panda_file().as_str()).unwrap())
                .unwrap();
        let options = sql::SqlOptions {
            pool: ptk_par::ThreadPool::new(1),
            engine: ptk_engine::EngineOptions::default(),
            seed: 0,
        };
        let statement = "SELECT TOP 2 FROM panda ORDER BY duration WITH PROBABILITY >= 0.35";
        for stats in [None, Some(ctx::StatsMode::Json)] {
            let mut ctx = ctx::QueryCtx::served(stats, ptk_obs::QueryFlight::default());
            let mut body = Vec::new();
            sql::run_sql(&table, statement, &options, &mut ctx, &mut body).unwrap();
            let snapshot = ctx.snapshot();
            assert!(snapshot.counter("engine.scanned") > 0, "{stats:?}");
            assert_eq!(ctx.recorder().enabled(), stats.is_some(), "{stats:?}");
            if stats.is_some() {
                assert_eq!(snapshot.timings[ctx::RENDER_SPAN].count, 1);
            } else {
                assert!(snapshot.timings.is_empty(), "{:?}", snapshot.timings);
            }
        }
    }

    #[test]
    fn erank_runs() {
        let file = panda_file();
        let out = dispatch(&args(&[
            "erank",
            file.as_str(),
            "--k",
            "3",
            "--rank-by",
            "duration",
        ]))
        .unwrap();
        assert!(out.contains("expected rank"), "{out}");
        assert_eq!(out.lines().count(), 4, "{out}");
    }

    #[test]
    fn worlds_enumerates_small_tables() {
        let file = panda_file();
        let out = dispatch(&args(&["worlds", file.as_str(), "--rank-by", "duration"])).unwrap();
        assert!(out.contains("12 possible worlds"), "{out}");
        assert!(out.contains("total probability: 1.000000000"), "{out}");
        // Budget enforcement.
        let err = dispatch(&args(&[
            "worlds",
            file.as_str(),
            "--rank-by",
            "duration",
            "--max-worlds",
            "3",
        ]))
        .unwrap_err();
        assert!(err.contains("budget"), "{err}");
    }

    #[test]
    fn inspect_reports_shape() {
        let file = panda_file();
        let out = dispatch(&args(&["inspect", file.as_str()])).unwrap();
        assert!(out.contains("tuples:            6"), "{out}");
        assert!(out.contains("multi-tuple rules: 2"), "{out}");
        assert!(out.contains("possible worlds:   1.200e1\n"), "{out}");
    }

    #[test]
    fn world_counts_past_f64_render_from_logs() {
        // 1141 independents and 10 rules: about 1.464e348 worlds, past
        // f64::MAX, which a product in f64 printed as `inf`.
        let text = dispatch(&args(&[
            "generate",
            "synthetic",
            "--tuples",
            "1200",
            "--rules",
            "10",
        ]))
        .unwrap();
        let file = tempfile::csv(&text);
        let out = dispatch(&args(&["inspect", file.as_str()])).unwrap();
        assert!(out.contains("possible worlds:   1.464e348\n"), "{out}");
        let err = dispatch(&args(&["worlds", file.as_str(), "--rank-by", "score"])).unwrap_err();
        assert!(
            err.starts_with("enumeration of 1.464e348 possible worlds exceeds the budget of 10000"),
            "{err}"
        );
    }

    #[test]
    fn generate_roundtrips_through_load() {
        let out = dispatch(&args(&[
            "generate",
            "synthetic",
            "--tuples",
            "50",
            "--rules",
            "5",
            "--seed",
            "3",
        ]))
        .unwrap();
        let table = crate::load::load_table(&out).unwrap();
        assert_eq!(table.len(), 50);
        assert_eq!(table.rules().len(), 5);

        let out = dispatch(&args(&[
            "generate", "iip", "--tuples", "60", "--rules", "10",
        ]))
        .unwrap();
        let table = crate::load::load_table(&out).unwrap();
        assert_eq!(table.len(), 60);
    }

    #[test]
    fn flag_errors_are_friendly() {
        let file = panda_file();
        let err = dispatch(&args(&["query", file.as_str(), "--k"])).unwrap_err();
        assert!(err.contains("--k requires a value"));
        let err = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "two",
            "--p",
            "0.3",
            "--rank-by",
            "duration",
        ]))
        .unwrap_err();
        assert!(err.contains("cannot parse 'two'"));
        let err = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "2",
            "--p",
            "0.3",
            "--rank-by",
            "nope",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown column"));
    }

    #[test]
    fn commands_refuse_flags_they_do_not_read() {
        let (table, run) = synthetic_run();
        // `scan` runs neither EXPLAIN, nor a pruning switch, nor a WHERE,
        // nor a pool: the first of them is named, not dropped.
        let err = dispatch(&args(&[
            "scan",
            run.as_str(),
            "--k",
            "5",
            "--p",
            "0.3",
            "--explain",
            "--no-prune",
            "--where",
            "score<5",
            "--threads",
            "3",
        ]))
        .unwrap_err();
        assert!(err.contains("scan takes no --explain"), "{err}");
        let err = dispatch(&args(&[
            "query",
            table.as_str(),
            "--k",
            "5",
            "--p",
            "0.3",
            "--rank-by",
            "score",
            "--bogus",
            "1",
            "--pool-frames",
            "3",
        ]))
        .unwrap_err();
        assert!(err.contains("query takes no --bogus"), "{err}");
        // A flag a command reads only to refuse it keeps its own message.
        let err = dispatch(&args(&[
            "utopk",
            table.as_str(),
            "--k",
            "5",
            "--rank-by",
            "score",
            "--semantics",
            "u_kranks",
        ]))
        .unwrap_err();
        assert!(
            err.contains("--semantics belongs to query and scan"),
            "{err}"
        );
        let err = dispatch(&args(&[
            "query",
            table.as_str(),
            "--k",
            "5",
            "--p",
            "0.3",
            "--rank-by",
            "score",
            "--semantics",
            "u_topk",
        ]))
        .unwrap_err();
        assert!(err.contains("takes no --p"), "{err}");
        let err = dispatch(&args(&["generate", "iip", "--rule-span", "8"])).unwrap_err();
        assert!(err.contains("generate synthetic only"), "{err}");
        let err = dispatch(&args(&[
            "generate",
            "synthetic",
            "--tuples",
            "100",
            "--rules",
            "5",
            "--rule-span",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("--rule-span must be at least 1"), "{err}");
        // A run file is always packed in descending score order.
        let run = tempfile::path("run");
        let err = dispatch(&args(&[
            "pack",
            table.as_str(),
            "--rank-by",
            "score",
            "--asc",
            "--out",
            run.as_str(),
        ]))
        .unwrap_err();
        assert!(err.contains("pack takes no --asc"), "{err}");
    }

    /// A generator asked for more rule members than tuples refuses the
    /// request (exit 1) instead of panicking (exit 101).
    #[test]
    fn generate_refuses_more_rule_members_than_tuples() {
        let err = dispatch(&args(&[
            "generate",
            "synthetic",
            "--tuples",
            "5",
            "--rules",
            "2",
        ]))
        .unwrap_err();
        assert!(
            err.ends_with(" rule members exceed 5 tuples; lower `rules` or `rule_size_mean`"),
            "{err}"
        );
        let err =
            dispatch(&args(&["generate", "iip", "--tuples", "5", "--rules", "3"])).unwrap_err();
        assert!(err.ends_with("rule members exceed 5 tuples"), "{err}");
        // Packing straight to a run file checks first, too.
        let run = tempfile::path("run");
        let err = dispatch(&args(&[
            "generate",
            "synthetic",
            "--tuples",
            "5",
            "--rules",
            "2",
            "--out",
            run.as_str(),
        ]))
        .unwrap_err();
        assert!(err.contains("exceed 5 tuples"), "{err}");
    }

    /// `query` reads `--no-prune` and `--threads` on the exact engine only,
    /// and `--seed` under sampling only: on every other path each is
    /// refused, never dropped.
    #[test]
    fn query_refuses_flags_its_method_does_not_read() {
        let csv = dispatch(&args(&[
            "generate",
            "synthetic",
            "--tuples",
            "500",
            "--rules",
            "60",
            "--seed",
            "11",
        ]))
        .unwrap();
        let file = tempfile::csv(&csv);
        let query = |extra: &[&str]| {
            let mut argv = vec![
                "query",
                file.as_str(),
                "--k",
                "5",
                "--p",
                "0.3",
                "--rank-by",
                "score",
            ];
            argv.extend_from_slice(extra);
            dispatch(&args(&argv))
        };
        for (extra, expected) in [
            (
                &["--method", "sampling", "--no-prune", "--threads", "3"][..],
                "--no-prune requires --method exact",
            ),
            (
                &["--method", "sampling", "--threads", "3"],
                "--threads requires --method exact",
            ),
            (
                &["--method", "naive", "--no-prune"],
                "--no-prune requires --method exact",
            ),
            (
                &["--method", "exact", "--seed", "9"],
                "--seed requires --method sampling",
            ),
            (&["--seed", "9"], "--seed requires --method sampling"),
            (
                &["--method", "naive", "--seed", "9"],
                "--seed requires --method sampling",
            ),
            (
                &["--k", "5,10", "--seed", "9"],
                "--seed requires --method sampling",
            ),
        ] {
            let err = query(extra).unwrap_err();
            assert!(err.contains(expected), "{extra:?}: {err}");
        }
        let err = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "5",
            "--rank-by",
            "score",
            "--semantics",
            "u_topk",
            "--seed",
            "9",
        ]))
        .unwrap_err();
        assert!(err.contains("--seed requires --method sampling"), "{err}");
        // Each flag still runs where it is read.
        query(&["--method", "sampling", "--seed", "9"]).unwrap();
        query(&["--no-prune", "--threads", "3"]).unwrap();
        query(&["--k", "5,10", "--no-prune", "--threads", "2"]).unwrap();
    }

    fn query_args(file: &str, extra: &[&str]) -> Vec<String> {
        let mut base = args(&[
            "query",
            file,
            "--k",
            "2",
            "--p",
            "0.35",
            "--rank-by",
            "duration",
        ]);
        base.extend(extra.iter().map(|s| (*s).to_owned()));
        base
    }

    #[test]
    fn no_prune_reports_every_probability_and_keeps_the_answers() {
        let file = panda_file();
        let pruned = dispatch(&query_args(file.as_str(), &[])).unwrap();
        let full = dispatch(&query_args(file.as_str(), &["--no-prune"])).unwrap();
        // Same answer set, but the full scan reports it scanned everything.
        assert!(full.contains("3 tuples pass"), "{full}");
        assert!(full.contains("scanned 6 of 6 tuples"), "{full}");
        for row in pruned.lines().skip(1) {
            assert!(full.contains(row), "missing row {row}: {full}");
        }
        // The sql form takes the same switch.
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT TOP 2 FROM panda ORDER BY duration WITH PROBABILITY >= 0.35",
            "--no-prune",
        ]))
        .unwrap();
        assert!(out.contains("scanned 6 of 6"), "{out}");
        assert!(out.contains("3 tuples pass"), "{out}");
    }

    #[test]
    fn no_prune_single_query_is_identical_at_every_thread_count() {
        // A dataset with rank-local rules, the regime where the DP arena
        // keeps only the rows after the first open rule-tuple.
        let csv = dispatch(&args(&[
            "generate",
            "synthetic",
            "--tuples",
            "400",
            "--rules",
            "60",
            "--seed",
            "11",
            "--rule-span",
            "8",
        ]))
        .unwrap();
        let file = tempfile::csv(&csv);
        let run = |threads: &str| {
            dispatch(&args(&[
                "query",
                file.as_str(),
                "--k",
                "10",
                "--p",
                "0.3",
                "--rank-by",
                "score",
                "--no-prune",
                "--threads",
                threads,
                "--stats",
                "json",
            ]))
            .unwrap()
        };
        let sequential = run("1");
        for threads in ["2", "4"] {
            let wide = run(threads);
            // Every line before the stats snapshot (whose timings differ by
            // construction) is bit-identical: header, rows, probabilities.
            let body = |s: &str| s.rsplit_once('\n').map(|(b, _)| b.to_owned()).unwrap();
            let (a, b) = (body(sequential.trim_end()), body(wide.trim_end()));
            assert_eq!(a, b, "threads={threads}");
        }

        // The query and the same statement under `sql` write the same
        // logical trace at every width.
        let statement = "SELECT TOP 10 FROM t ORDER BY score WITH PROBABILITY >= 0.3";
        for command in [
            &[
                "query",
                file.as_str(),
                "--k",
                "10",
                "--p",
                "0.3",
                "--rank-by",
                "score",
            ][..],
            &["sql", file.as_str(), statement][..],
        ] {
            let trace_at = |threads: &str| {
                let trace = tempfile::path("txt");
                let mut argv = command.to_vec();
                argv.extend([
                    "--no-prune",
                    "--threads",
                    threads,
                    "--trace",
                    trace.as_str(),
                    "--trace-format",
                    "logical",
                ]);
                dispatch(&args(&argv)).unwrap();
                std::fs::read_to_string(&trace.0).unwrap()
            };
            let sequential = trace_at("1");
            assert!(sequential.contains("B retrieval"), "{sequential}");
            for threads in ["2", "4"] {
                assert_eq!(
                    trace_at(threads),
                    sequential,
                    "{} at --threads {threads}",
                    command[0]
                );
            }
        }
    }

    #[test]
    fn query_stats_prom_renders_exposition_lines() {
        let file = panda_file();
        let out = dispatch(&query_args(file.as_str(), &["--stats", "prom"])).unwrap();
        // Counter lines are a pure function of the query (timings are not,
        // but their names are).
        assert!(out.contains("# TYPE ptk_engine_answers counter"), "{out}");
        assert!(out.contains("ptk_engine_answers 3"), "{out}");
        assert!(out.contains("ptk_engine_scanned 6"), "{out}");
        assert!(out.contains("ptk_engine_query_nanos_total"), "{out}");
        let err = dispatch(&query_args(file.as_str(), &["--stats", "nagios"])).unwrap_err();
        assert!(err.contains("'text', 'json' or 'prom'"), "{err}");
    }

    #[test]
    fn query_trace_exports_chrome_json_that_trace_check_accepts() {
        let file = panda_file();
        let trace = tempfile::path("json");
        let out = dispatch(&query_args(file.as_str(), &["--trace", trace.as_str()])).unwrap();
        assert!(out.contains("3 tuples pass"), "{out}");
        let json = std::fs::read_to_string(&trace.0).unwrap();
        assert!(json.contains("\"traceEvents\""), "{json}");
        let report = dispatch(&args(&["trace-check", trace.as_str()])).unwrap();
        assert!(report.contains("valid Chrome trace"), "{report}");
    }

    #[test]
    fn query_trace_logical_is_stable_and_timing_free() {
        let file = panda_file();
        let (a, b) = (tempfile::path("txt"), tempfile::path("txt"));
        for t in [&a, &b] {
            dispatch(&query_args(
                file.as_str(),
                &["--trace", t.as_str(), "--trace-format", "logical"],
            ))
            .unwrap();
        }
        let first = std::fs::read_to_string(&a.0).unwrap();
        assert_eq!(first, std::fs::read_to_string(&b.0).unwrap());
        assert!(first.contains("B query"), "{first}");
        assert!(first.contains("E query"), "{first}");
        assert!(first.contains("i answer"), "{first}");
    }

    #[test]
    fn batch_trace_logical_is_identical_across_thread_counts() {
        let file = panda_file();
        let (one, four) = (tempfile::path("txt"), tempfile::path("txt"));
        for (threads, t) in [("1", &one), ("4", &four)] {
            let out = dispatch(&args(&[
                "query",
                file.as_str(),
                "--k",
                "2,3",
                "--p",
                "0.35,0.6",
                "--rank-by",
                "duration",
                "--threads",
                threads,
                "--trace",
                t.as_str(),
                "--trace-format",
                "logical",
            ]))
            .unwrap();
            assert!(out.contains("batch of 4 queries"), "{out}");
        }
        let text = std::fs::read_to_string(&one.0).unwrap();
        assert_eq!(text, std::fs::read_to_string(&four.0).unwrap());
        // One span per query, in plan order.
        for q in 0..4 {
            assert!(text.contains(&format!("q{q} #0 B query")), "{text}");
        }
    }

    #[test]
    fn query_explain_prints_the_annotated_plan() {
        let file = panda_file();
        let out = dispatch(&query_args(file.as_str(), &["--explain"])).unwrap();
        assert!(out.contains("ranked-retrieval: scanned=6"), "{out}");
        assert!(out.contains("dp[RC+LR, k=2]:"), "{out}");
        assert!(out.contains("total: scanned=6"), "{out}");
        assert!(out.contains("ms]"), "timings annotated: {out}");
        let err = dispatch(&query_args(
            file.as_str(),
            &["--explain", "--method", "sampling"],
        ))
        .unwrap_err();
        assert!(err.contains("requires --method exact"), "{err}");
    }

    #[test]
    fn sql_explain_analyze_matches_the_stats_snapshot() {
        let file = panda_file();
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "EXPLAIN ANALYZE SELECT TOP 2 FROM panda ORDER BY duration WITH PROBABILITY >= 0.35",
            "--stats",
            "json",
        ]))
        .unwrap();
        assert!(out.contains("3 tuples pass"), "{out}");
        assert!(out.contains("ranked-retrieval: scanned=6"), "{out}");
        assert!(out.contains("answers=3"), "{out}");
        assert!(out.contains("ms]"), "{out}");
        // The annotation reads the very counters --stats renders, so the
        // two outputs agree by construction.
        let json = out.lines().last().unwrap();
        assert!(json.contains("\"engine.answers\":3"), "{out}");
        assert!(json.contains("\"engine.scanned\":6"), "{out}");

        let err = dispatch(&args(&[
            "sql",
            file.as_str(),
            "EXPLAIN ANALYZE SELECT TOP 2 FROM panda ORDER BY duration USING naive",
        ]))
        .unwrap_err();
        assert!(err.contains("requires the exact method"), "{err}");
        // EXPLAIN ANALYZE covers the non-PT-k semantics too, annotating the
        // generating-function stage with the run's counters.
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "EXPLAIN ANALYZE SELECT UTOPK 2 FROM panda ORDER BY duration",
        ]))
        .unwrap();
        assert!(out.contains("probability 0.280000"), "{out}");
        // U-TopK reads only the scan records: no gf row is maintained,
        // and its search pulls the 4 ranks it needs of the 6.
        assert!(!out.contains("gf["), "{out}");
        assert!(out.contains("ranked-retrieval: scanned=4"), "{out}");
        assert!(
            out.contains("\nu-topk[closed-form vector]: answers=2"),
            "{out}"
        );
        // U-KRanks maintains the row and names its stop with the depth.
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "EXPLAIN ANALYZE SELECT UKRANKS 2 FROM panda ORDER BY duration",
        ]))
        .unwrap();
        assert!(out.contains("gf[RC+LR, k=2]:"), "{out}");
        assert!(
            out.contains("stop[ub every 64]: scanned=6 stop=none"),
            "{out}"
        );
        assert!(
            out.contains("u-kranks[argmax per rank]: answers=2"),
            "{out}"
        );
    }

    #[test]
    fn trace_flag_validation() {
        let file = panda_file();
        let err = dispatch(&query_args(file.as_str(), &["--trace-format", "logical"])).unwrap_err();
        assert!(err.contains("--trace-format requires --trace"), "{err}");
        let trace = tempfile::path("json");
        let err = dispatch(&query_args(
            file.as_str(),
            &["--trace", trace.as_str(), "--trace-format", "xml"],
        ))
        .unwrap_err();
        assert!(err.contains("'chrome' or 'logical'"), "{err}");
        let err = dispatch(&query_args(
            file.as_str(),
            &["--trace", trace.as_str(), "--method", "naive"],
        ))
        .unwrap_err();
        assert!(err.contains("not instrumented"), "{err}");
    }

    #[test]
    fn trace_check_rejects_missing_and_invalid_files() {
        let err = dispatch(&args(&["trace-check", "/nonexistent.json"])).unwrap_err();
        assert!(err.contains("/nonexistent.json"), "{err}");
        let junk = tempfile::csv("not json at all");
        let err = dispatch(&args(&["trace-check", junk.as_str()])).unwrap_err();
        assert!(err.contains("invalid trace"), "{err}");
        let err = dispatch(&args(&["trace-check"])).unwrap_err();
        assert!(err.contains("missing trace file"), "{err}");
    }

    /// A synthetic CSV table with its packing at the default block size,
    /// kept alive together for the scan tests.
    fn synthetic_run() -> (tempfile::TempPath, tempfile::TempPath) {
        let csv = dispatch(&args(&[
            "generate",
            "synthetic",
            "--tuples",
            "2000",
            "--rules",
            "200",
            "--seed",
            "13",
        ]))
        .unwrap();
        let table = tempfile::csv(&csv);
        let run = tempfile::path("run");
        dispatch(&args(&[
            "pack",
            table.as_str(),
            "--rank-by",
            "score",
            "--out",
            run.as_str(),
        ]))
        .unwrap();
        (table, run)
    }

    /// `ptk scan --trace` traces the engine's decisions, not only the run
    /// source: the query span, its stop mark and the file reads share one
    /// trace.
    #[test]
    fn scan_trace_reaches_the_executor() {
        let (_table, run) = synthetic_run();
        let (logical, chrome) = (tempfile::path("txt"), tempfile::path("json"));
        for (trace, format) in [(&logical, "logical"), (&chrome, "chrome")] {
            dispatch(&args(&[
                "scan",
                run.as_str(),
                "--k",
                "5",
                "--p",
                "0.3",
                "--trace",
                trace.as_str(),
                "--trace-format",
                format,
            ]))
            .unwrap();
        }
        let text = std::fs::read_to_string(&logical.0).unwrap();
        assert!(text.contains("q0 #2 B query"), "{text}");
        assert!(text.contains("i stop rule=upper-bound"), "{text}");
        assert!(text.contains("i file-read"), "{text}");
        assert!(text.contains("E query scanned=64"), "{text}");
        let report = dispatch(&args(&["trace-check", chrome.as_str()])).unwrap();
        assert!(report.contains("valid Chrome trace"), "{report}");
    }

    /// Every query command honours `--stats`, `--audit`, `--trace`,
    /// `--trace-format` and `--slow-ms`, through the one context: the
    /// trace file is written and validates, the stats section and the
    /// audit line follow the answer, and a bad trace format is refused.
    #[test]
    fn every_query_path_honours_the_observability_flags() {
        let (table, run) = synthetic_run();
        let table = table.as_str();
        let ptk = "SELECT TOP 5 FROM t ORDER BY score WITH PROBABILITY >= 0.3";
        let batch = format!("{ptk}; SELECT TOP 9 FROM t ORDER BY score WITH PROBABILITY >= 0.2");
        let rank = ["--rank-by", "score"];
        let paths: Vec<(&str, Vec<&str>)> = vec![
            ("query", vec!["query", table, "--k", "5", "--p", "0.3"]),
            (
                "query batch",
                vec!["query", table, "--k", "5,9", "--p", "0.3"],
            ),
            (
                "query --semantics",
                vec!["query", table, "--k", "5", "--semantics", "u_kranks"],
            ),
            ("sql", vec!["sql", table, ptk]),
            (
                "sql RANK BY",
                vec![
                    "sql",
                    table,
                    "SELECT TOP 5 FROM t ORDER BY score RANK BY GLOBAL_TOPK",
                ],
            ),
            ("sql batch", vec!["sql", table, &batch]),
            ("scan", vec!["scan", run.as_str(), "--k", "5", "--p", "0.3"]),
            (
                "scan --semantics",
                vec!["scan", run.as_str(), "--k", "5", "--semantics", "u_kranks"],
            ),
            ("utopk", vec!["utopk", table, "--k", "3"]),
            ("ukranks", vec!["ukranks", table, "--k", "3"]),
            ("erank", vec!["erank", table, "--k", "3"]),
        ];
        for (path, base) in paths {
            let mut argv = base.clone();
            if matches!(base[0], "query" | "utopk" | "ukranks" | "erank") {
                argv.extend(rank);
            }
            let trace = tempfile::path("json");
            let mut traced = argv.clone();
            traced.extend([
                "--stats",
                "text",
                "--audit",
                "--trace",
                trace.as_str(),
                "--slow-ms",
                "100000",
            ]);
            let out = dispatch(&args(&traced)).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(
                out.contains("\ncounter   engine.scanned = "),
                "{path}: no stats section in {out}"
            );
            assert!(
                out.contains("\nspan      cli.render: count=1 "),
                "{path}: no render span in {out}"
            );
            let audit = out.lines().last().unwrap();
            assert!(
                audit.starts_with("audit: {"),
                "{path}: no audit line in {out}"
            );
            let report = dispatch(&args(&["trace-check", trace.as_str()]))
                .unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(report.contains("valid Chrome trace"), "{path}: {report}");
            let json = std::fs::read_to_string(&trace.0).unwrap();
            assert!(json.contains("\"name\":\"query\""), "{path}: {json}");

            argv.extend(["--trace", trace.as_str(), "--trace-format", "xml"]);
            let err = dispatch(&args(&argv)).unwrap_err();
            assert!(err.contains("'chrome' or 'logical'"), "{path}: {err}");
        }
    }

    /// `utopk`, `ukranks` and `erank` share `query --semantics`'s front:
    /// `--where` filters the table, the pool flags are validated, and
    /// flags they cannot honour are refused.
    #[test]
    fn ranking_commands_honour_where_and_refuse_what_they_cannot_run() {
        let (table, _run) = synthetic_run();
        let table = table.as_str();
        let ranked = |argv: &[&str]| {
            let mut argv = argv.to_vec();
            argv.extend(["--rank-by", "score", "--k", "3"]);
            dispatch(&args(&argv))
        };
        // The tuples (last bracketed column) and their order, per row.
        let tuples = |out: &str| -> Vec<String> {
            out.lines()
                .skip(1)
                .map(|l| l.rsplit_once('[').unwrap().1.to_owned())
                .collect()
        };
        let filtered = ranked(&["erank", table, "--where", "score<1000"]).unwrap();
        let query = ranked(&[
            "query",
            table,
            "--semantics",
            "expected_rank",
            "--where",
            "score<1000",
        ])
        .unwrap();
        assert_eq!(tuples(&filtered), tuples(&query), "{filtered}\n{query}");
        assert_eq!(tuples(&filtered), ["982]", "942]", "786]"], "{filtered}");
        let whole = ranked(&["erank", table]).unwrap();
        assert_ne!(tuples(&whole), tuples(&filtered), "--where was ignored");
        for command in ["utopk", "ukranks", "erank"] {
            for (extra, expected) in [
                (&["--threads", "0"][..], "--threads"),
                (&["--p", "0.3"], "takes no --p"),
                (&["--explain"], "takes no --explain"),
                (&["--semantics", "ptk"], "--semantics belongs to"),
                (&["--method", "sampling"], "exact engine"),
            ] {
                let mut argv = vec![command, table];
                argv.extend(extra);
                let err = ranked(&argv).unwrap_err();
                assert!(err.contains(expected), "{command} {extra:?}: {err}");
            }
            // --no-prune scans in full, to the same answer.
            assert_eq!(
                ranked(&[command, table, "--no-prune"]).unwrap(),
                ranked(&[command, table]).unwrap(),
                "{command}"
            );
        }
    }

    #[test]
    fn scan_trace_captures_source_open_and_reads() {
        let file = panda_file();
        let run = tempfile::path("run");
        dispatch(&args(&[
            "pack",
            file.as_str(),
            "--rank-by",
            "duration",
            "--out",
            run.as_str(),
        ]))
        .unwrap();
        let trace = tempfile::path("txt");
        let out = dispatch(&args(&[
            "scan",
            run.as_str(),
            "--k",
            "2",
            "--p",
            "0.35",
            "--trace",
            trace.as_str(),
            "--trace-format",
            "logical",
        ]))
        .unwrap();
        assert!(out.contains("3 tuples pass"), "{out}");
        let text = std::fs::read_to_string(&trace.0).unwrap();
        assert!(text.contains("B source-open"), "{text}");
        assert!(text.contains("i file-read"), "{text}");
    }

    #[test]
    fn slow_ms_keeps_stdout_clean_and_rejects_bad_thresholds() {
        // The summary goes to stderr; stdout must stay the plain answer.
        let file = panda_file();
        let out = dispatch(&query_args(file.as_str(), &["--slow-ms", "10000"])).unwrap();
        assert!(out.contains("3 tuples pass"), "{out}");
        assert!(!out.contains("slow query"), "{out}");
        // Zero, negatives and garbage all get the same pointed error — the
        // identical validation `ptk serve --slow-ms` runs.
        for bad in ["0", "-3", "fast"] {
            let err = dispatch(&query_args(file.as_str(), &["--slow-ms", bad])).unwrap_err();
            assert!(
                err.contains("--slow-ms must be a positive integer (milliseconds)")
                    && err.contains(bad),
                "{err}"
            );
        }
    }

    #[test]
    fn audit_line_is_bit_identical_across_thread_widths() {
        let file = panda_file();
        let mut lines = Vec::new();
        for threads in ["1", "2", "4", "8"] {
            let out = dispatch(&query_args(
                file.as_str(),
                &["--audit", "--no-prune", "--threads", threads],
            ))
            .unwrap();
            let line = out
                .lines()
                .find(|l| l.starts_with("audit: {"))
                .unwrap_or_else(|| panic!("no audit line in {out}"))
                .to_owned();
            assert!(line.contains("\"outcome\":\"ok\""), "{line}");
            assert!(line.contains("\"semantics\":\"PTK\""), "{line}");
            assert!(line.contains("\"engine.scanned\":"), "{line}");
            assert!(line.contains("\"fingerprint\":\""), "{line}");
            assert!(!line.contains("nanos"), "timing leaked: {line}");
            lines.push(line);
        }
        assert!(
            lines.windows(2).all(|w| w[0] == w[1]),
            "audit lines differ across widths: {lines:#?}"
        );
    }

    #[test]
    fn sql_audit_records_plan_stop_and_counters() {
        let file = panda_file();
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT TOP 2 FROM panda ORDER BY duration WITH PROBABILITY >= 0.35",
            "--audit",
        ]))
        .unwrap();
        assert!(out.contains("tuples pass"), "{out}");
        let line = out.lines().find(|l| l.starts_with("audit: {")).unwrap();
        assert!(line.contains("\"ks\":[2]"), "{line}");
        assert!(line.contains("\"thresholds\":[0.35]"), "{line}");
        assert!(line.contains("\"plan\":\""), "{line}");
        assert!(line.contains("\"engine.evaluated\":"), "{line}");
        // Batches record one flight covering every member.
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT TOP 2 FROM panda ORDER BY duration WITH PROBABILITY >= 0.35; \
             SELECT TOP 3 FROM panda ORDER BY duration WITH PROBABILITY >= 0.2",
            "--audit",
        ]))
        .unwrap();
        let line = out.lines().find(|l| l.starts_with("audit: {")).unwrap();
        assert!(line.contains("\"ks\":[2,3]"), "{line}");
        assert!(line.contains("\"thresholds\":[0.35,0.2]"), "{line}");
    }

    /// A `RANK BY` query that stops early says so in its flight record, on
    /// every path that answers one: `sql`, `query --semantics` and
    /// `scan --semantics`.
    #[test]
    fn rank_by_audit_records_the_stop() {
        let csv = dispatch(&args(&[
            "generate",
            "synthetic",
            "--tuples",
            "500",
            "--rules",
            "60",
            "--seed",
            "11",
        ]))
        .unwrap();
        let file = tempfile::csv(&csv);
        let audit = |argv: &[&str]| {
            let out = dispatch(&args(argv)).unwrap();
            out.lines()
                .find(|l| l.starts_with("audit: {"))
                .unwrap()
                .to_owned()
        };
        for semantics in ["GLOBAL_TOPK", "U_KRANKS", "EXPECTED_RANK"] {
            let line = audit(&[
                "sql",
                file.as_str(),
                &format!("SELECT TOP 5 FROM t ORDER BY score RANK BY {semantics}"),
                "--audit",
            ]);
            assert!(line.contains("\"stop\":\"UpperBound\""), "{line}");
            assert!(line.contains("\"engine.stop.upper_bound\":1"), "{line}");
            if semantics == "EXPECTED_RANK" {
                // It stops on its prefix-mass floor at the third check,
                // reading no coefficient rows.
                assert!(line.contains("\"engine.dp_cells\":0"), "{line}");
                assert!(line.contains("\"engine.scanned\":192"), "{line}");
            }
        }
        let line = audit(&[
            "query",
            file.as_str(),
            "--k",
            "5",
            "--rank-by",
            "score",
            "--semantics",
            "u_kranks",
            "--audit",
        ]);
        assert!(line.contains("\"stop\":\"UpperBound\""), "{line}");
        let run = tempfile::path("run");
        dispatch(&args(&[
            "pack",
            file.as_str(),
            "--rank-by",
            "score",
            "--out",
            run.as_str(),
            "--block-size",
            "1024",
        ]))
        .unwrap();
        let line = audit(&[
            "scan",
            run.as_str(),
            "--k",
            "5",
            "--semantics",
            "global_topk",
            "--audit",
        ]);
        assert!(line.contains("\"stop\":\"UpperBound\""), "{line}");
    }

    #[test]
    fn scan_audit_carries_pool_residency_counters() {
        let file = panda_file();
        let run = tempfile::path("run");
        dispatch(&args(&[
            "pack",
            file.as_str(),
            "--rank-by",
            "duration",
            "--out",
            run.as_str(),
            "--block-size",
            "48",
        ]))
        .unwrap();
        let out = dispatch(&args(&[
            "scan",
            run.as_str(),
            "--k",
            "2",
            "--p",
            "0.35",
            "--pool-frames",
            "1",
            "--audit",
        ]))
        .unwrap();
        let line = out.lines().find(|l| l.starts_with("audit: {")).unwrap();
        assert!(line.contains("\"access.block.pin\":"), "{line}");
        assert!(line.contains("\"engine.scanned\":"), "{line}");
    }

    /// Golden EXPLAIN output for a `RANK BY` statement: the plan line must
    /// render the actual generating-function semantics stages, not the PT-k
    /// `dp[..]` pipeline — the gf rows for a semantics that reads them,
    /// and the stop for one with a sound bound.
    #[test]
    fn sql_explain_renders_the_semantics_stage() {
        let file = panda_file();
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "EXPLAIN SELECT TOP 2 FROM panda ORDER BY duration RANK BY U_KRANKS",
        ]))
        .unwrap();
        assert!(
            out.contains(
                "plan: Selection::new (ranked range of the shared view) -> \
                 ranked-retrieval -> rule-compression -> gf[RC+LR, k=2] -> \
                 stop[ub every 64] -> u-kranks[argmax per rank]\n"
            ),
            "{out}"
        );
        assert!(out.contains("stats: view of 6 tuples / 2 rules"), "{out}");
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "EXPLAIN SELECT TOP 2 FROM panda ORDER BY duration RANK BY EXPECTED_RANK",
        ]))
        .unwrap();
        assert!(
            out.contains(
                "plan: Selection::new (ranked range of the shared view) -> \
                 ranked-retrieval -> rule-compression -> stop[ub every 64] -> \
                 expected-rank[closed form]\n"
            ),
            "{out}"
        );
        // The PT-k EXPLAIN stays byte-for-byte on its historical pipeline.
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "EXPLAIN SELECT TOP 2 FROM panda ORDER BY duration RANK BY PTK WITH PROBABILITY >= 0.35",
        ]))
        .unwrap();
        assert!(out.contains("dp[RC+LR, k=2]"), "{out}");
        assert!(out.contains("emit[p >= 0.35]"), "{out}");
    }

    /// Golden EXPLAIN output for a filtered statement: a comparison of
    /// the ranked column with a number selects a ranked range, any other
    /// predicate (here the same cut spelled with `NOT`) runs once per
    /// tuple; the answer and the stats line are the same.
    #[test]
    fn sql_explain_names_the_selection_it_ran() {
        let file = panda_file();
        let explain = |condition: &str| {
            dispatch(&args(&[
                "sql",
                file.as_str(),
                &format!(
                    "EXPLAIN SELECT TOP 2 FROM panda WHERE {condition} \
                     ORDER BY duration WITH PROBABILITY >= 0.35"
                ),
            ]))
            .unwrap()
        };
        let answer = "3 tuples pass Pr^2 >= 0.35 (exact; scanned 4 of 4 tuples)\n  \
                      rank    2  Pr^k=0.4000  membership=0.400  [21, R2]\n  \
                      rank    3  Pr^k=0.7040  membership=0.800  [17, R5]\n  \
                      rank    4  Pr^k=0.3800  membership=0.500  [13, R3]\n";
        let pipeline = "ranked-retrieval -> rule-compression -> dp[RC+LR, k=2] -> \
                        pruning[T3-T5, ub every 64] -> emit[p >= 0.35]\n\
                        stats: scanned 4, evaluated 4, pruned 0 (membership 0, rule 0), \
                        dp entries 3, stop None\n";
        assert_eq!(
            explain("duration >= 13"),
            format!("{answer}plan: Selection::new (ranked range of the shared view) -> {pipeline}")
        );
        assert_eq!(
            explain("NOT duration < 13"),
            format!(
                "{answer}plan: Selection::new (predicate over the shared ranked view) -> \
                 {pipeline}"
            )
        );
    }

    #[test]
    fn sql_rank_by_matches_legacy_kind_keywords() {
        // `RANK BY <semantics>` on a TOP statement answers identically to
        // the legacy kind keyword — same engine path, same bytes.
        let file = panda_file();
        for (legacy, rank_by) in [
            ("SELECT UTOPK 2 FROM panda ORDER BY duration", "U_TOPK"),
            ("SELECT UKRANKS 2 FROM panda ORDER BY duration", "U_KRANKS"),
            (
                "SELECT ERANK 2 FROM panda ORDER BY duration",
                "EXPECTED_RANK",
            ),
            (
                "SELECT GLOBALTOPK 2 FROM panda ORDER BY duration",
                "GLOBAL_TOPK",
            ),
        ] {
            let a = dispatch(&args(&["sql", file.as_str(), legacy])).unwrap();
            let b = dispatch(&args(&[
                "sql",
                file.as_str(),
                &format!("SELECT TOP 2 FROM panda ORDER BY duration RANK BY {rank_by}"),
            ]))
            .unwrap();
            assert_eq!(a, b, "RANK BY {rank_by}");
        }
    }

    #[test]
    fn sql_global_topk_matches_table_3() {
        // Global-Top2 on the panda data: R5 (Pr^2 = 0.704), then R2 (0.4).
        let file = panda_file();
        let out = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT TOP 2 FROM panda ORDER BY duration RANK BY GLOBAL_TOPK",
        ]))
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "top-2 by top-k probability:", "{out}");
        assert!(
            lines[1].contains("Pr^k = 0.7040") && lines[1].contains("R5"),
            "{out}"
        );
        assert!(
            lines[2].contains("Pr^k = 0.4000") && lines[2].contains("R2"),
            "{out}"
        );
    }

    #[test]
    fn query_semantics_flag_answers_each_semantics() {
        let file = panda_file();
        let run = |semantics: &str, k: &str| {
            dispatch(&args(&[
                "query",
                file.as_str(),
                "--k",
                k,
                "--rank-by",
                "duration",
                "--semantics",
                semantics,
            ]))
            .unwrap()
        };
        let out = run("u_topk", "2");
        assert!(out.contains("probability 0.280000"), "{out}");
        assert!(out.contains("R5") && out.contains("R3"), "{out}");
        let out = run("u_kranks", "2");
        assert!(out.contains("rank   1") && out.contains("0.3360"), "{out}");
        let out = run("global_topk", "2");
        assert!(out.contains("Pr^k = 0.7040"), "{out}");
        let out = run("expected_rank", "3");
        assert!(out.contains("expected rank"), "{out}");
        // The flag output matches the equivalent RANK BY statement.
        let flag = run("u_kranks", "2");
        let stmt = dispatch(&args(&[
            "sql",
            file.as_str(),
            "SELECT TOP 2 FROM panda ORDER BY duration RANK BY U_KRANKS",
        ]))
        .unwrap();
        assert_eq!(flag, stmt);
    }

    #[test]
    fn query_semantics_flag_validation() {
        let file = panda_file();
        let base = |extra: &[&str]| {
            let mut argv = args(&["query", file.as_str(), "--rank-by", "duration"]);
            argv.extend(extra.iter().map(|s| (*s).to_owned()));
            dispatch(&argv)
        };
        let err = base(&["--k", "2", "--semantics", "nonsense"]).unwrap_err();
        assert!(
            err.contains("unknown ranking semantics 'nonsense'"),
            "{err}"
        );
        let err = base(&["--k", "2", "--p", "0.3", "--semantics", "u_topk"]).unwrap_err();
        assert!(err.contains("takes no --p"), "{err}");
        let err = base(&["--k", "2,3", "--semantics", "u_topk"]).unwrap_err();
        assert!(err.contains("batch executor is PT-k only"), "{err}");
        let err = base(&["--k", "2", "--semantics", "u_topk", "--method", "naive"]).unwrap_err();
        assert!(err.contains("only on the exact engine"), "{err}");
        let err = base(&["--k", "0", "--semantics", "u_topk"]).unwrap_err();
        assert!(err.contains("k >= 1"), "{err}");
    }

    #[test]
    fn scan_semantics_flag_streams_the_run_file() {
        let file = panda_file();
        let run = tempfile::path("run");
        dispatch(&args(&[
            "pack",
            file.as_str(),
            "--rank-by",
            "duration",
            "--out",
            run.as_str(),
        ]))
        .unwrap();
        let out = dispatch(&args(&[
            "scan",
            run.as_str(),
            "--k",
            "2",
            "--semantics",
            "u_topk",
        ]))
        .unwrap();
        // R5 and R3 are CSV rows 4 and 2.
        assert!(out.contains("probability 0.280000"), "{out}");
        assert!(
            out.contains("row      4") && out.contains("row      2"),
            "{out}"
        );
        // The search pulls 4 of the 6 records; expected rank over a run
        // file, which reports no total mass, reads all 6.
        assert!(out.contains("streamed 4 of 6 records"), "{out}");
        let out = dispatch(&args(&[
            "scan",
            run.as_str(),
            "--k",
            "2",
            "--semantics",
            "expected_rank",
            "--stats",
            "json",
        ]))
        .unwrap();
        assert!(
            out.contains("top-2 by expected rank (streamed 6 of 6 records)"),
            "{out}"
        );
        let json = out.lines().last().unwrap();
        assert!(json.contains("\"engine.gf.rows_incremental\""), "{out}");
        let err = dispatch(&args(&[
            "scan",
            run.as_str(),
            "--k",
            "2",
            "--p",
            "0.3",
            "--semantics",
            "u_topk",
        ]))
        .unwrap_err();
        assert!(err.contains("takes no --p"), "{err}");
    }

    #[test]
    fn where_parse_errors() {
        let file = panda_file();
        let err = dispatch(&args(&[
            "query",
            file.as_str(),
            "--k",
            "2",
            "--p",
            "0.3",
            "--rank-by",
            "duration",
            "--where",
            "garbage",
        ]))
        .unwrap_err();
        assert!(err.contains("--where"), "{err}");
    }
}
