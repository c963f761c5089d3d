//! What a run reports: its metrics (every name and unit fixed here, the
//! same set `BENCHMARK.json` lists), its design checks, its run context,
//! and the JSON it prints and appends to the result file.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ptk_obs::Snapshot;

use crate::gen::Kind;
use crate::stats;

/// End-to-end metrics, reported by every workload with `--trace 0`. The
/// latencies are over each distinct request's *best* latency in the run
/// (see [`Report::latencies`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_best_p50_ms", "ms"),
    ("query_best_p90_ms", "ms"),
    ("ptk_best_p50_ms", "ms"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// a workload bypasses reports 0 (with its ratio bases, also 0).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("load.table_ms", "ms"),
    ("load.rows", "count"),
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("view.build_ms", "ms"),
    ("view.tuples", "count"),
    ("plan.us", "us"),
    ("exec.ptk_ms", "ms"),
    ("exec.rankby_ms", "ms"),
    ("exec.batch_ms", "ms"),
    ("engine.scanned", "count"),
    ("engine.evaluated", "count"),
    ("engine.answers", "count"),
    ("engine.dp_cells", "count"),
    ("engine.entries_recomputed", "count"),
    ("engine.pruned_membership", "count"),
    ("engine.pruned_rule", "count"),
    ("engine.gf.rows_incremental", "count"),
    ("engine.gf.rows_refolded", "count"),
    ("engine.stop.upper_bound", "count"),
    ("engine.stop.total_topk", "count"),
    ("engine.source_tuples", "count"),
    ("engine.scan_fraction", "ratio"),
    ("engine.answers_per_evaluated", "ratio"),
    ("batch.tasks", "count"),
    ("batch.steals", "count"),
    ("batch.segments", "count"),
    ("access.pack_ms", "ms"),
    ("access.open_ms", "ms"),
    ("access.file_bytes", "B"),
    ("access.tuples", "count"),
    ("access.bytes_per_tuple", "B/tuple"),
    ("access.cursor_ms", "ms"),
    ("access.block.read", "count"),
    ("access.block.skip", "count"),
    ("access.block.decode_bytes", "B"),
    ("access.block.pool_hit", "count"),
    ("access.block.pool_miss", "count"),
    ("access.block.evict", "count"),
    ("access.pool_hit_ratio", "ratio"),
    ("access.decode_bytes_per_scanned", "B/tuple"),
    ("serve.rtt_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.server_latency_p50_ms", "ms"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.uncacheable", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.query_errors", "count"),
    ("trace.requests", "count"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer counters that count work, so they repeat exactly across runs
/// of one seed. (`batch.steals` is left out: which worker steals depends
/// on OS scheduling.)
pub fn is_work_counter(name: &str) -> bool {
    let work = [
        "engine.",
        "access.block.",
        "batch.",
        "serve.cache.",
        "view.tuples",
        "load.rows",
    ];
    work.iter().any(|p| name.starts_with(p))
        && !name.ends_with("_ratio")
        && !matches!(
            name,
            "batch.steals" | "engine.scan_fraction" | "engine.answers_per_evaluated"
        )
}

/// A minimal JSON value, for writing only.
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // Shortest round-trip form; JSON has no NaN or infinities.
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Str(s) => escape(out, s),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One per-run design check: a property the workload must have for its
/// numbers to mean what the workload claims.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run produces.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why failed requests failed (first few), for the log.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub checks: Vec<Check>,
    /// Run context for the result file.
    pub context: Vec<(String, Json)>,
    /// Measurements printed and recorded beside the listed metrics.
    pub observed: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn observe(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.observed.push((name, value, unit));
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.context.push((key.to_owned(), value));
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The reported metric set for this mode: every listed metric, 0 where
    /// the workload never touched the layer.
    pub fn listed(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        let list = if trace { PER_LAYER } else { END_TO_END };
        list.iter()
            .map(|&(name, unit)| (name, unit, self.metrics.get(name).copied().unwrap_or(0.0)))
            .collect()
    }

    /// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn summary_line(&self, trace: bool) -> String {
        let metrics = self.listed(trace).into_iter().map(|(name, unit, value)| {
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

/// One timed request of the closed-loop client.
pub struct Sample {
    pub ms: f64,
    pub kind: Kind,
    /// Which distinct request (statement or query) was sent.
    pub request: u32,
}

impl Report {
    /// The latency metrics of a timed loop that sends each distinct request
    /// several times, spread over the run.
    ///
    /// The end-to-end latencies are taken over each request's best (lowest)
    /// latency in the run. The host is a share of a machine whose other
    /// tenants slow it by up to ~60% for seconds at a time; that only ever
    /// adds latency, so a request's fastest send is its cost on a quiet
    /// machine, and percentiles over those repeat from run to run where
    /// percentiles over every send follow the neighbours. The tail is the
    /// highest percentile up to p90 with ten requests beyond it. The raw
    /// percentiles and the throughput over `wall` seconds are printed and
    /// recorded beside them, with the sample counts behind each.
    pub fn latencies(&mut self, samples: &[Sample], wall: f64) -> Result<(), String> {
        let mut raw: Vec<f64> = samples.iter().map(|s| s.ms).collect();
        raw.sort_by(f64::total_cmp);
        let mut best: BTreeMap<u32, (f64, Kind, u64)> = BTreeMap::new();
        for s in samples {
            let entry = best.entry(s.request).or_insert((s.ms, s.kind, 0));
            entry.0 = entry.0.min(s.ms);
            entry.2 += 1;
        }
        let sorted = |kind: Option<Kind>| {
            let mut v: Vec<f64> = best
                .values()
                .filter(|b| kind.is_none_or(|k| b.1 == k))
                .map(|b| b.0)
                .collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let all = sorted(None);
        let too_few = |what: &str, n: usize| format!("{n} {what}: too few for a tail percentile");
        // The best-latency tail stops at p90: past it, the ten or so
        // heaviest statements a seed happens to draw decide the figure.
        let tail = stats::tail(&all, 90).ok_or_else(|| too_few("distinct requests", all.len()))?;
        let raw_tail = stats::tail(&raw, 99).ok_or_else(|| too_few("requests", raw.len()))?;
        self.set("query_best_p50_ms", stats::percentile(&all, 50));
        self.set("query_best_p90_ms", tail.value);
        self.observe("query_p50_ms", stats::percentile(&raw, 50), "ms");
        self.observe("query_p99_ms", raw_tail.value, "ms");
        self.observe("throughput_qps", raw.len() as f64 / wall, "req/s");
        let sends: Vec<f64> = best.values().map(|b| b.2 as f64).collect();
        let mut counts = vec![
            (
                "query".to_owned(),
                Json::obj([
                    ("samples", Json::Int(raw.len() as u64)),
                    ("tail_pct", Json::Int(u64::from(raw_tail.pct))),
                    ("tail_beyond", Json::Int(raw_tail.beyond as u64)),
                ]),
            ),
            (
                "query_best".to_owned(),
                Json::obj([
                    ("requests", Json::Int(all.len() as u64)),
                    ("sends_min", Json::Num(stats::lowest(&sends))),
                    ("sends_median", Json::Num(stats::median(&sends))),
                    ("p50_beyond", Json::Int(stats::beyond(all.len(), 50) as u64)),
                    ("tail_pct", Json::Int(u64::from(tail.pct))),
                    ("tail_beyond", Json::Int(tail.beyond as u64)),
                ]),
            ),
        ];
        for kind in [Kind::Ptk, Kind::RankBy, Kind::Batch] {
            let v = sorted(Some(kind));
            if v.is_empty() {
                continue;
            }
            let p50 = stats::percentile(&v, 50);
            match kind {
                Kind::Ptk => self.set("ptk_best_p50_ms", p50),
                Kind::RankBy => self.observe("rankby_best_p50_ms", p50, "ms"),
                Kind::Batch => self.observe("batch_best_p50_ms", p50, "ms"),
            }
            counts.push((
                format!("{}_best", kind.label()),
                Json::obj([
                    ("requests", Json::Int(v.len() as u64)),
                    ("p50_beyond", Json::Int(stats::beyond(v.len(), 50) as u64)),
                ]),
            ));
        }
        self.note("percentile_samples", Json::Obj(counts));
        self.note("timed_wall_s", Json::Num(wall));
        let error_rate = stats::ratio(self.failed as f64, self.attempted as f64);
        self.observe("error_rate", error_rate, "fraction");
        Ok(())
    }

    /// The engine and batch-scheduler work counters, and their ratios with
    /// the bases beside them. `source_tuples` is the sum over executed
    /// plans of the tuples their scan could reach.
    pub fn engine(&mut self, engine: &Snapshot, source_tuples: u64) {
        for name in [
            "engine.scanned",
            "engine.evaluated",
            "engine.answers",
            "engine.dp_cells",
            "engine.entries_recomputed",
            "engine.pruned_membership",
            "engine.pruned_rule",
            "engine.gf.rows_incremental",
            "engine.gf.rows_refolded",
            "engine.stop.upper_bound",
            "engine.stop.total_topk",
        ] {
            self.set(name, engine.counter(name) as f64);
        }
        for name in ["batch.tasks", "batch.steals", "batch.segments"] {
            self.set(name, engine.scheduler_value(name) as f64);
        }
        let count = |name| engine.counter(name) as f64;
        self.set("engine.source_tuples", source_tuples as f64);
        self.set(
            "engine.scan_fraction",
            stats::ratio(count("engine.scanned"), source_tuples as f64),
        );
        self.set(
            "engine.answers_per_evaluated",
            stats::ratio(count("engine.answers"), count("engine.evaluated")),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_compactly_and_escapes() {
        let j = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::str("x\"y\n")),
            ("c", Json::Int(3)),
            ("d", Json::Num(f64::NAN)),
        ]);
        assert_eq!(j.render(), r#"{"a":1.5,"b":"x\"y\n","c":3,"d":null}"#);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the benchmark does not report"
        );
    }

    #[test]
    fn work_counters_exclude_timings_ratios_and_steals() {
        assert!(is_work_counter("engine.dp_cells"));
        assert!(is_work_counter("access.block.skip"));
        assert!(is_work_counter("serve.cache.hits"));
        assert!(!is_work_counter("serve.cache.hit_ratio"));
        assert!(!is_work_counter("batch.steals"));
        assert!(!is_work_counter("exec.ptk_ms"));
        assert!(!is_work_counter("engine.scan_fraction"));
    }
}
