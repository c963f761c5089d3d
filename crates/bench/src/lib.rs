//! # `ptk-bench` — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§6); each prints
//! the paper's rows/series as a markdown table and writes CSV under
//! `target/experiments/`. `EXPERIMENTS.md` at the workspace root records
//! paper-vs-measured for every experiment.
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_3` | Tables 1–3 (possible worlds & top-2 probabilities) |
//! | `table4_walkthrough` | Table 4 + Examples 2–4 (the DP walkthrough) |
//! | `fig2_reorder` | Figure 2 / Example 5 (reordering costs) |
//! | `table5_6_iip` | Tables 5–6 (IIP query comparison, §6.1) |
//! | `fig4_scan_depth` | Figure 4 (scan depth, 4 panels) |
//! | `fig5_runtime` | Figure 5 (runtime, 4 panels) |
//! | `fig6_quality` | Figure 6 (sampling approximation quality) |
//! | `fig7_scalability` | Figure 7 (scalability, 2 panels) |
//! | `all_experiments` | everything above, in order |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Display;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

/// A tabular experiment report: printed as markdown, persisted as CSV.
#[derive(Debug, Clone)]
pub struct Report {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report with the given experiment name and column headers.
    pub fn new(name: &str, columns: &[&str]) -> Report {
        Report {
            name: name.to_owned(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (already formatted).
    ///
    /// # Panics
    /// Panics if the row arity does not match the header.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Prints the report as a markdown table.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        println!("\n## {}\n", self.name);
        let fmt_row = |cells: &[String]| {
            let body: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("| {} |", body.join(" | "));
        };
        fmt_row(&self.columns);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            fmt_row(row);
        }
    }

    /// Writes the report as CSV under `target/experiments/<name>.csv` and
    /// returns the path. Errors are reported but not fatal (the printed
    /// table is the primary artifact).
    pub fn save_csv(&self) -> Option<PathBuf> {
        let dir = PathBuf::from("target/experiments");
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return None;
        }
        let path = dir.join(format!("{}.csv", self.name));
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        match fs::write(&path, out) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", path.display());
                None
            }
        }
    }

    /// Prints and saves the report.
    pub fn finish(&self) {
        self.print();
        if let Some(path) = self.save_csv() {
            println!("\n(saved to {})", path.display());
        }
    }
}

/// The shared workload sweeps of §6.2: every Figure 4/5 panel varies one
/// knob of the default configuration (20,000 tuples, 2,000 rules,
/// memberships `N(0.5, 0.2)`, rule probabilities `N(0.7, 0.2)`, rule sizes
/// `N(5, 2)`, `k = 200`, `p = 0.3`).
pub mod sweeps {
    use ptk_datagen::{SyntheticConfig, SyntheticDataset};
    use ptk_sampling::{SamplingOptions, StopCriterion};

    /// Default query depth.
    pub const DEFAULT_K: usize = 200;
    /// Default probability threshold.
    pub const DEFAULT_P: f64 = 0.3;
    /// Seed used by every figure (deterministic reports).
    pub const SEED: u64 = 20080407;

    /// Panel (a): expectation of the membership probability.
    pub fn prob_means() -> Vec<f64> {
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    }

    /// Panel (b): rule complexity (mean rule size).
    pub fn rule_sizes() -> Vec<f64> {
        vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    }

    /// Panel (c): query depth k.
    pub fn ks() -> Vec<usize> {
        vec![50, 100, 200, 400, 600, 800, 1000]
    }

    /// Panel (d): probability threshold p.
    pub fn ps() -> Vec<f64> {
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    }

    /// The default dataset with one knob overridden.
    pub fn dataset(tuple_prob_mean: f64, rule_size_mean: f64) -> SyntheticDataset {
        SyntheticDataset::generate(&SyntheticConfig {
            tuple_prob_mean,
            rule_size_mean,
            seed: SEED,
            ..Default::default()
        })
    }

    /// The sampling configuration used by the figure harnesses: progressive
    /// stopping with the paper's flavour of (d, φ).
    pub fn sampling_options() -> SamplingOptions {
        SamplingOptions {
            stop: StopCriterion::Progressive {
                d: 500,
                phi: 0.002,
                max_units: 20_000,
            },
            seed: SEED,
        }
    }
}

/// Runs `f` and returns its result together with the elapsed milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64() * 1e3)
}

/// A machine-readable benchmark artifact: repeated wall-clock laps plus an
/// optional [`ptk_obs::Snapshot`] of the run's metrics, written as
/// `target/experiments/BENCH_<experiment>.json`.
///
/// Wall-clock numbers are summarized as median and interquartile range
/// (robust against scheduler noise); the embedded metrics snapshot excludes
/// timing sections, so it is bit-deterministic for a fixed seed and can be
/// diffed across machines.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    experiment: String,
    laps_ms: Vec<f64>,
    metrics: Option<ptk_obs::Snapshot>,
    /// Experiment-specific members, each a name and a raw JSON value.
    fields: Vec<(String, String)>,
}

impl BenchRecord {
    /// Starts a record for the named experiment.
    pub fn new(experiment: &str) -> BenchRecord {
        BenchRecord {
            experiment: experiment.to_owned(),
            laps_ms: Vec::new(),
            metrics: None,
            fields: Vec::new(),
        }
    }

    /// Runs `f`, appending its wall time as one lap, and returns its result.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (value, ms) = time_ms(f);
        self.laps_ms.push(ms);
        value
    }

    /// Appends an externally measured lap, in milliseconds.
    pub fn lap_ms(&mut self, ms: f64) {
        self.laps_ms.push(ms);
    }

    /// Attaches the run's metrics snapshot (timing sections are dropped at
    /// serialization time to keep the artifact deterministic).
    pub fn set_metrics(&mut self, snapshot: ptk_obs::Snapshot) {
        self.metrics = Some(snapshot);
    }

    /// Adds the member `name` to the record, holding `json`, which must
    /// be one JSON value.
    pub fn field(&mut self, name: &str, json: String) {
        self.fields.push((name.to_owned(), json));
    }

    /// Linear-interpolation quantile of the recorded laps (`q` in `[0, 1]`).
    fn quantile_ms(&self, q: f64) -> f64 {
        if self.laps_ms.is_empty() {
            return 0.0;
        }
        let mut sorted = self.laps_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = q * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    }

    /// Median wall time over the laps, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.quantile_ms(0.5)
    }

    /// Interquartile range of the laps, in milliseconds.
    pub fn iqr_ms(&self) -> f64 {
        self.quantile_ms(0.75) - self.quantile_ms(0.25)
    }

    /// Serializes the record as one JSON object.
    pub fn to_json(&self) -> String {
        let laps: Vec<String> = self.laps_ms.iter().map(|ms| format!("{ms:.3}")).collect();
        let mut out = format!(
            "{{\"experiment\":\"{}\",\"laps\":{},\"laps_ms\":[{}],\"median_ms\":{:.3},\"iqr_ms\":{:.3}",
            self.experiment,
            self.laps_ms.len(),
            laps.join(","),
            self.median_ms(),
            self.iqr_ms(),
        );
        if let Some(snapshot) = &self.metrics {
            out.push_str(",\"metrics\":");
            out.push_str(&snapshot.to_json(false));
        }
        for (name, json) in &self.fields {
            out.push_str(&format!(",\"{name}\":{json}"));
        }
        out.push('}');
        out
    }

    /// Writes `target/experiments/BENCH_<experiment>.json` and returns the
    /// path. Errors are reported but not fatal, matching [`Report::save_csv`].
    pub fn write(&self) -> Option<PathBuf> {
        let dir = PathBuf::from("target/experiments");
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return None;
        }
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        match fs::write(&path, self.to_json() + "\n") {
            Ok(()) => {
                println!("(bench record saved to {})", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

/// Formats a float with the given number of decimals (report helper).
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrip() {
        let mut r = Report::new("unit_test_report", &["a", "b"]);
        r.row(&[&1, &"x"]);
        r.row(&[&2.5, &"yy"]);
        assert_eq!(r.rows.len(), 2);
        r.print();
        let path = r.save_csv().unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b\n1,x\n2.5,yy\n"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn report_rejects_bad_arity() {
        let mut r = Report::new("bad", &["a", "b"]);
        r.row(&[&1]);
    }

    #[test]
    fn time_ms_measures() {
        let (v, ms) = time_ms(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(ms >= 4.0);
    }

    #[test]
    fn fmt_decimals() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(2.0, 0), "2");
    }

    #[test]
    fn bench_record_summaries_and_json() {
        let mut record = BenchRecord::new("unit_test_bench");
        for ms in [4.0, 1.0, 3.0, 2.0, 100.0] {
            record.lap_ms(ms);
        }
        assert_eq!(record.median_ms(), 3.0);
        assert_eq!(record.iqr_ms(), 2.0); // q1 = 2, q3 = 4

        use ptk_obs::Recorder as _;
        let metrics = ptk_obs::Metrics::new();
        metrics.add("engine.scanned", 7);
        metrics.record_nanos("engine.query", 1_000);
        record.set_metrics(metrics.snapshot());
        record.field("pool", "{\"hit\":[0,7]}".into());

        let json = record.to_json();
        assert!(
            json.contains("\"experiment\":\"unit_test_bench\""),
            "{json}"
        );
        assert!(json.contains("\"laps\":5"), "{json}");
        assert!(json.contains("\"median_ms\":3.000"), "{json}");
        assert!(json.contains("\"engine.scanned\":7"), "{json}");
        // Timing sections are dropped for determinism.
        assert!(!json.contains("nanos"), "{json}");
        assert!(json.ends_with(",\"pool\":{\"hit\":[0,7]}}"), "{json}");

        let path = record.write().unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.trim_end(), json);
        assert!(path.ends_with("BENCH_unit_test_bench.json"), "{path:?}");
    }

    #[test]
    fn bench_record_empty_is_safe() {
        let record = BenchRecord::new("empty");
        assert_eq!(record.median_ms(), 0.0);
        assert_eq!(record.iqr_ms(), 0.0);
        assert!(record.to_json().contains("\"laps_ms\":[]"));
    }
}
