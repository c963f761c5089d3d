//! Full-text goldens of the CLI's timing-free renderings: the `--audit`
//! line of every query path, the `--trace-format logical` file of a
//! single and a batch `ptk query`, and the answer listing (full stdout) of
//! every listing command. The audit lines and traces must be
//! byte-identical at every pool width, so every case that takes
//! `--threads` runs at 1 and 4.
//!
//! The goldens live in `tests/goldens/`: `audit_lines.txt` holds one
//! `<case>\t<audit line>` per line; `listings.txt` holds each listing case
//! as a `### <case>` line followed by the command's stdout.

use std::path::PathBuf;

fn run(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
    ptk_cli::run(&args).unwrap_or_else(|e| panic!("ptk {args:?}: {e}"))
}

/// A scratch directory holding a 200-tuple synthetic table and its packing
/// in 512-byte blocks, removed on drop.
struct Fixture(PathBuf);

impl Fixture {
    fn new(name: &str) -> Fixture {
        let dir =
            std::env::temp_dir().join(format!("ptk-renderings-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fixture = Fixture(dir);
        let csv = run(&[
            "generate",
            "synthetic",
            "--tuples",
            "200",
            "--rules",
            "30",
            "--seed",
            "7",
        ]);
        std::fs::write(fixture.path("t.csv"), csv).unwrap();
        let table = fixture.path("t.csv");
        run(&[
            "pack",
            &table,
            "--rank-by",
            "score",
            "--out",
            &fixture.path("t2.run"),
            "--block-size",
            "512",
        ]);
        fixture
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).to_str().unwrap().to_owned()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn panda_path() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/panda.csv");
    path.to_str().unwrap().to_owned()
}

fn golden_audit(case: &str) -> &'static str {
    include_str!("goldens/audit_lines.txt")
        .lines()
        .find_map(|line| line.strip_prefix(case)?.strip_prefix('\t'))
        .unwrap_or_else(|| panic!("no golden for {case}"))
}

fn audit_line(args: &[&str]) -> String {
    let out = run(args);
    out.lines()
        .find(|l| l.starts_with("audit: "))
        .unwrap_or_else(|| panic!("no audit line in {out}"))
        .to_owned()
}

#[test]
fn audit_lines_match_their_goldens() {
    let fx = Fixture::new("audit");
    let table = fx.path("t.csv");
    let panda = panda_path();
    let mut cases: Vec<(String, Vec<String>)> = Vec::new();
    let mut case = |name: &str, args: &[&str]| {
        cases.push((
            name.to_owned(),
            args.iter().map(|s| (*s).to_owned()).collect(),
        ));
    };
    case(
        "query_exact",
        &[
            "query",
            &table,
            "--k",
            "5",
            "--p",
            "0.3",
            "--rank-by",
            "score",
        ],
    );
    case(
        "query_batch",
        &[
            "query",
            &table,
            "--k",
            "5,10",
            "--p",
            "0.3,0.5",
            "--rank-by",
            "score",
        ],
    );
    for semantics in ["u_topk", "u_kranks", "global_topk", "expected_rank"] {
        case(
            &format!("query_{semantics}"),
            &[
                "query",
                &table,
                "--k",
                "5",
                "--rank-by",
                "score",
                "--semantics",
                semantics,
            ],
        );
    }
    case(
        "query_sampling",
        &[
            "query",
            &table,
            "--k",
            "5",
            "--p",
            "0.3",
            "--rank-by",
            "score",
            "--method",
            "sampling",
        ],
    );
    case(
        "query_naive",
        &[
            "query",
            &panda,
            "--k",
            "2",
            "--p",
            "0.35",
            "--rank-by",
            "duration",
            "--method",
            "naive",
        ],
    );
    for (tag, filter) in [("plain", ""), ("where", " WHERE score <= 150")] {
        let ptk = format!("SELECT TOP 5 FROM t{filter} ORDER BY score WITH PROBABILITY >= 0.3");
        let rank_by = format!("SELECT TOP 5 FROM t{filter} ORDER BY score RANK BY U_KRANKS");
        let batch =
            format!("{ptk}; SELECT TOP 10 FROM t{filter} ORDER BY score WITH PROBABILITY >= 0.5");
        case(&format!("sql_ptk_{tag}"), &["sql", &table, &ptk]);
        case(&format!("sql_rankby_{tag}"), &["sql", &table, &rank_by]);
        case(&format!("sql_batch_{tag}"), &["sql", &table, &batch]);
    }
    for threads in ["1", "4"] {
        for (name, args) in &cases {
            let mut argv: Vec<&str> = args.iter().map(String::as_str).collect();
            argv.push("--audit");
            // The sampling and naive methods take no `--threads`.
            if !argv.contains(&"--method") {
                argv.extend(["--threads", threads]);
            }
            assert_eq!(
                audit_line(&argv),
                golden_audit(name),
                "{name} at --threads {threads}"
            );
        }
    }

    let file = fx.path("t2.run");
    for (name, extra) in [
        ("scan_ptk_v2", ["--p", "0.3"]),
        ("scan_global_topk_v2", ["--semantics", "global_topk"]),
        ("scan_u_topk_v2", ["--semantics", "u_topk"]),
    ] {
        let mut argv = vec!["scan", &file, "--k", "5"];
        argv.extend(extra);
        argv.push("--audit");
        assert_eq!(audit_line(&argv), golden_audit(name), "{name}");
    }
}

#[test]
fn logical_traces_match_their_goldens() {
    let fx = Fixture::new("trace");
    let table = fx.path("t.csv");
    let trace = fx.path("trace.txt");
    for (golden, k, p) in [
        (include_str!("goldens/query_trace.txt"), "5", "0.3"),
        (include_str!("goldens/batch_trace.txt"), "5,10", "0.3,0.5"),
    ] {
        for threads in ["1", "4"] {
            run(&[
                "query",
                &table,
                "--k",
                k,
                "--p",
                p,
                "--rank-by",
                "score",
                "--threads",
                threads,
                "--trace",
                &trace,
                "--trace-format",
                "logical",
            ]);
            assert_eq!(
                std::fs::read_to_string(&trace).unwrap(),
                golden,
                "--k {k} --p {p} at --threads {threads}"
            );
        }
    }
}

/// The golden listing of `case`: the lines after its `### <case>` header,
/// up to the next header.
fn golden_listing(case: &str) -> String {
    let header = format!("### {case}\n");
    let golden = include_str!("goldens/listings.txt");
    let start = golden
        .find(&header)
        .unwrap_or_else(|| panic!("no golden listing for {case}"))
        + header.len();
    let end = golden[start..]
        .find("\n### ")
        .map_or(golden.len(), |at| start + at + 1);
    golden[start..end].to_owned()
}

/// The answer-listing cases: every listing command over the 200-tuple
/// fixture and the paper's panda table, each pinned to its full stdout.
fn listing_cases(fx: &Fixture) -> Vec<(String, Vec<String>)> {
    let table = fx.path("t.csv");
    let panda = panda_path();
    let mut cases: Vec<(String, Vec<String>)> = Vec::new();
    let mut case = |name: &str, args: &[&str]| {
        cases.push((
            name.to_owned(),
            args.iter().map(|s| (*s).to_owned()).collect(),
        ));
    };
    for (tag, file, column, filter, k, p) in [
        ("t", table.as_str(), "score", "score <= 150", "5", "0.3"),
        (
            "panda",
            panda.as_str(),
            "duration",
            "loc = 'B'",
            "2",
            "0.35",
        ),
    ] {
        let top = |k: &str| format!("SELECT TOP {k} FROM {tag}");
        let ptk = format!("{} ORDER BY {column} WITH PROBABILITY >= {p}", top(k));
        let ptk_where = format!(
            "{} WHERE {filter} ORDER BY {column} WITH PROBABILITY >= {p}",
            top(k)
        );
        let batch = format!(
            "{ptk}; {} ORDER BY {column} WITH PROBABILITY >= 0.5; {} ORDER BY {column} \
             WITH PROBABILITY >= 0.1",
            top("1"),
            top("3")
        );
        case(&format!("sql_ptk_{tag}"), &["sql", file, &ptk]);
        case(&format!("sql_ptk_where_{tag}"), &["sql", file, &ptk_where]);
        case(
            &format!("sql_batch_{tag}"),
            &["sql", file, &batch, "--threads", "1"],
        );
        for rank_by in ["PTK", "U_TOPK", "U_KRANKS", "GLOBAL_TOPK", "EXPECTED_RANK"] {
            let statement = format!("{} ORDER BY {column} RANK BY {rank_by}", top(k));
            case(
                &format!("sql_rankby_{}_{tag}", rank_by.to_lowercase()),
                &["sql", file, &statement],
            );
        }
        case(
            &format!("sql_explain_{tag}"),
            &["sql", file, &format!("EXPLAIN {ptk_where}")],
        );
        case(
            &format!("sql_explain_rankby_{tag}"),
            &[
                "sql",
                file,
                &format!("EXPLAIN {} ORDER BY {column} RANK BY U_KRANKS", top(k)),
            ],
        );

        let query = ["query", file, "--k", k, "--rank-by", column];
        case(
            &format!("query_exact_{tag}"),
            &[&query[..], &["--p", p]].concat(),
        );
        case(
            &format!("query_sampling_{tag}"),
            &[
                &query[..],
                &["--p", p, "--method", "sampling", "--seed", "3"],
            ]
            .concat(),
        );
        for semantics in ["u_topk", "u_kranks", "global_topk", "expected_rank"] {
            case(
                &format!("query_{semantics}_{tag}"),
                &[&query[..], &["--semantics", semantics]].concat(),
            );
        }
        for command in ["utopk", "ukranks", "erank"] {
            case(
                &format!("{command}_{tag}"),
                &[command, file, "--k", k, "--rank-by", column],
            );
        }
    }
    case(
        "query_batch_t",
        &[
            "query",
            &table,
            "--k",
            "5,10",
            "--p",
            "0.3,0.5",
            "--rank-by",
            "score",
            "--threads",
            "1",
        ],
    );
    case(
        "query_naive_panda",
        &[
            "query",
            &panda,
            "--k",
            "2",
            "--p",
            "0.35",
            "--rank-by",
            "duration",
            "--method",
            "naive",
        ],
    );
    let file = fx.path("t2.run");
    case("scan_ptk_v2", &["scan", &file, "--k", "5", "--p", "0.3"]);
    for semantics in ["u_topk", "u_kranks", "global_topk", "expected_rank"] {
        case(
            &format!("scan_{semantics}_v2"),
            &["scan", &file, "--k", "5", "--semantics", semantics],
        );
    }
    case(
        "worlds_panda",
        &["worlds", &panda, "--rank-by", "duration", "--limit", "10"],
    );
    case("inspect_v2", &["inspect", &fx.path("t2.run")]);
    cases
}

#[test]
fn answer_listings_match_their_goldens() {
    let fx = Fixture::new("listings");
    let cases = listing_cases(&fx);
    for (name, args) in &cases {
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        assert_eq!(run(&argv), golden_listing(name), "{name}: ptk {argv:?}");
    }
    let pinned = include_str!("goldens/listings.txt")
        .lines()
        .filter(|line| line.starts_with("### "))
        .count();
    assert_eq!(pinned, cases.len(), "every golden listing has a case");
}
