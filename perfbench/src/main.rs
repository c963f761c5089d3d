//! `ptk-perfbench`: ptk's end-to-end and per-layer benchmark.
//!
//! ```text
//! ptk-perfbench --workload <serve-mixed|serve-hot|scan-paged> --seed <n>
//!               --seconds <s> --trace <0|1> --ptk <path to ptk binary>
//!               --workdir <dir> [--out <results.jsonl>]
//! ```
//!
//! Usually launched through `perfbench/run.py`, which builds the release
//! `ptk` binary and this benchmark first. Every run generates its inputs
//! from `--seed`, checks every answer it can, prints each metric by name
//! and unit, appends a result record (metrics plus run context) to the
//! result file, and ends stdout with one JSON summary line. With
//! `--trace 0` it measures the end-to-end metrics; with `--trace 1` it
//! replays a fixed prefix of the same input stream with spans around each
//! layer's public calls and reports the per-layer metrics.

mod daemon;
mod gen;
mod paged;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use report::{Json, Report};

/// Settings shared by every workload.
pub struct RunCtx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub ptk: PathBuf,
    pub workdir: PathBuf,
}

/// Closed-loop clients. One: the host is a few cores of a shared machine,
/// and a second client (with a second daemon worker to serve it) makes
/// the run measure the scheduler more than the program.
pub const CLIENTS: usize = 1;

impl RunCtx {
    /// A seed for one input stream, derived from the run seed.
    pub fn stream_seed(&self, stream: u64) -> u64 {
        ptk_core::rng::derive_seed(self.seed, stream)
    }

    /// A file in the working directory, unique to this workload and seed.
    pub fn file(&self, suffix: &str) -> PathBuf {
        self.workdir
            .join(format!("{}-{}{suffix}", self.workload, self.seed))
    }
}

fn parse_args() -> Result<(RunCtx, PathBuf), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).cloned()
    };
    let need = |v: Option<String>, flag: &str| v.ok_or(format!("missing {flag}"));
    let workload = need(get("--workload"), "--workload")?;
    let seed = need(get("--seed"), "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need(get("--seconds"), "--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match need(get("--trace"), "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let ptk = PathBuf::from(need(get("--ptk"), "--ptk")?);
    let workdir = PathBuf::from(need(get("--workdir"), "--workdir")?);
    let out = get("--out").map_or_else(|| workdir.join("results.jsonl"), PathBuf::from);
    Ok((
        RunCtx {
            workload,
            seed,
            seconds: Duration::from_secs_f64(seconds),
            trace,
            ptk,
            workdir,
        },
        out,
    ))
}

fn main() {
    let (ctx, out) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.workdir) {
        eprintln!("perfbench: {}: {e}", ctx.workdir.display());
        std::process::exit(2);
    }
    let outcome = match ctx.workload.as_str() {
        "serve-mixed" => serve::run(&ctx, &serve::MIXED),
        "serve-hot" => serve::run(&ctx, &serve::HOT),
        "scan-paged" => paged::run(&ctx),
        other => Err(format!(
            "unknown workload '{other}' (serve-mixed | serve-hot | scan-paged)"
        )),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            std::process::exit(1);
        }
    };

    for check in &report.checks {
        let verdict = if check.ok { "ok" } else { "FAILED" };
        println!("check {:<28} {verdict}: {}", check.name, check.detail);
    }
    for why in &report.failures {
        println!("failure: {why}");
    }
    for &(name, value, unit) in &report.observed {
        println!("observed {name:<25} {value:>14.6} {unit}");
    }
    for (name, unit, value) in report.listed(ctx.trace) {
        println!("{name:<34} {value:>14.6} {unit}");
    }
    if let Err(e) = append_record(&ctx, &out, &report) {
        eprintln!("perfbench: {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("{}", report.summary_line(ctx.trace));
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Appends this run's record — run context, every metric, design checks —
/// to the result file read by `run.py compare`.
fn append_record(ctx: &RunCtx, out: &std::path::Path, report: &Report) -> std::io::Result<()> {
    use std::io::Write as _;
    let metrics = report
        .listed(ctx.trace)
        .into_iter()
        .map(|(name, unit, value)| {
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        });
    let counters = report
        .listed(ctx.trace)
        .into_iter()
        .filter(|(name, _, _)| ctx.trace && report::is_work_counter(name))
        .map(|(name, _, value)| (name, Json::Int(value as u64)));
    let checks = report.checks.iter().map(|c| {
        (
            c.name,
            Json::obj([("ok", Json::Bool(c.ok)), ("detail", Json::str(&c.detail))]),
        )
    });
    let observed = report.observed.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    });
    let mut context = vec![
        (
            "commit".to_owned(),
            Json::str(std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        ("workload".to_owned(), Json::str(&ctx.workload)),
        ("seed".to_owned(), Json::Int(ctx.seed)),
        ("seconds".to_owned(), Json::Num(ctx.seconds.as_secs_f64())),
        ("trace".to_owned(), Json::Bool(ctx.trace)),
        (
            "nproc".to_owned(),
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("clients".to_owned(), Json::Int(CLIENTS as u64)),
    ];
    context.extend(report.context.iter().cloned());
    let record = Json::obj([
        ("workload", Json::str(&ctx.workload)),
        ("seed", Json::Int(ctx.seed)),
        ("trace", Json::Bool(ctx.trace)),
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Int(report.attempted)),
        ("failed", Json::Int(report.failed)),
        ("metrics", Json::obj(metrics)),
        ("counters", Json::obj(counters)),
        ("observed", Json::obj(observed)),
        ("checks", Json::obj(checks)),
        ("context", Json::Obj(context)),
    ]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out)?;
    writeln!(file, "{}", record.render())
}
