//! A hermetic, dependency-free subset of the [criterion] benchmarking API.
//!
//! The workspace builds with zero external dependencies (see DESIGN.md §7),
//! so the `[[bench]]` targets in `ptk-bench` link against this shim instead
//! of crates.io's criterion. It implements exactly the surface those
//! benches use — `criterion_group!` / `criterion_main!`, benchmark groups,
//! `BenchmarkId`, `Bencher::iter` — with a simple but honest measurement
//! loop: a fixed warm-up, then `sample_size` timed samples, reporting the
//! median and the interquartile range. It produces no HTML reports and no
//! statistical regression analysis; if you need those, swap the
//! `ptk-bench` dependency back to crates.io criterion where a registry is
//! available — the bench sources compile unchanged against either.
//!
//! [criterion]: https://docs.rs/criterion
//!
//! ## Measurement model
//!
//! `Bencher::iter(f)` times batches of calls to `f`, growing the batch
//! until one batch takes ≥ 1 ms (so per-iteration overhead of the clock
//! amortizes away), then records `sample_size` batch timings. The per-call
//! estimate is `median(batch time / batch size)`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::{self, Display};
use std::time::{Duration, Instant};

/// The benchmark driver: create one (via [`Criterion::default`]), hand it
/// to the functions named in [`criterion_group!`], and let
/// [`criterion_main!`] run them.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        println!("\n{}", name.into());
        BenchmarkGroup {
            _criterion: self,
            sample_size: 50,
        }
    }

    /// Benchmarks a standalone function (an implicit single-entry group).
    pub fn bench_function<F>(&mut self, name: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&name.to_string(), 50, f);
        self
    }
}

/// A group of benchmarks sharing a prefix and sampling configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    _criterion: &'c mut Criterion,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark (min 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(10);
        self
    }

    /// Benchmarks a function under an id within this group.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("  {id}"), self.sample_size, f);
        self
    }

    /// Benchmarks a function with an explicit input value; the closure
    /// receives the [`Bencher`] and a reference to the input.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(&format!("  {id}"), self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (prints nothing extra; provided for API parity).
    pub fn finish(&mut self) {}
}

/// A two-part benchmark identifier: function name and input parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    name: String,
    parameter: String,
}

impl BenchmarkId {
    /// An id made of a function name and an input parameter.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            name: name.into(),
            parameter: parameter.to_string(),
        }
    }

    /// An id carrying only the input parameter.
    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            name: String::new(),
            parameter: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.name.is_empty() {
            write!(f, "{}", self.parameter)
        } else {
            write!(f, "{}/{}", self.name, self.parameter)
        }
    }
}

/// Passed to every benchmark closure; call [`Bencher::iter`] exactly once.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    /// Median per-iteration time of the routine, once measured.
    result: Option<Sample>,
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    median: Duration,
    low: Duration,
    high: Duration,
    iterations: u64,
}

impl Bencher {
    /// Measures `routine`, auto-scaling the batch size so clock overhead
    /// is negligible.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up + batch sizing: grow until one batch costs >= 1 ms.
        let mut batch: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(1) || batch >= 1 << 20 {
                break;
            }
            batch *= 2;
        }

        let mut times: Vec<Duration> = (0..self.sample_size)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..batch {
                    std::hint::black_box(routine());
                }
                start.elapsed() / u32::try_from(batch).unwrap_or(u32::MAX)
            })
            .collect();
        times.sort_unstable();
        self.result = Some(Sample {
            median: times[times.len() / 2],
            low: times[times.len() / 4],
            high: times[times.len() - 1 - times.len() / 4],
            iterations: batch * self.sample_size as u64,
        });
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, sample_size: usize, mut f: F) {
    let mut bencher = Bencher {
        sample_size,
        result: None,
    };
    f(&mut bencher);
    match bencher.result {
        Some(s) => println!(
            "{label}: median {} (IQR {} .. {}, {} iterations)",
            format_duration(s.median),
            format_duration(s.low),
            format_duration(s.high),
            s.iterations
        ),
        None => println!("{label}: no measurement (Bencher::iter never called)"),
    }
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Declares a benchmark group: a runner function calling each listed
/// benchmark function with a shared [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_id_formats_like_criterion() {
        assert_eq!(BenchmarkId::new("dp", 100).to_string(), "dp/100");
        assert_eq!(BenchmarkId::from_parameter(7).to_string(), "7");
    }

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher {
            sample_size: 10,
            result: None,
        };
        // Each input goes through black_box: release builds would otherwise
        // fold the sum to a constant (or a closed form under a nanosecond),
        // leaving nothing to time.
        b.iter(|| (0..1000u64).map(std::hint::black_box).sum::<u64>());
        let s = b.result.expect("iter records a sample");
        assert!(s.median > Duration::ZERO);
        assert!(s.low <= s.median && s.median <= s.high);
    }

    #[test]
    fn group_api_composes() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim_smoke");
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("sum", 64), &64u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.bench_function("id", |b| b.iter(|| 1 + 1));
        group.finish();
    }
}
