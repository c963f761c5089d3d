//! # `ptk-par` — the zero-dependency parallel runtime
//!
//! A scoped thread pool over [`std::thread`] with **deterministic
//! scheduling**: the *initial* assignment of work items to workers is a
//! pure function of `(n_items, threads)`, the work-stealing victim order is
//! a pure function of `(round, worker id)`, and results are always
//! collected in item order. Because every work item is a pure function of
//! its index and input, *which* worker ends up running an item can never
//! leak into the result vector — two runs of the same workload on the same
//! pool produce bit-identical results regardless of how the OS schedules
//! the workers, and regardless of who stole what. The repo-wide
//! determinism policy (DESIGN.md §7/§10) extends to every parallel path
//! built on this crate.
//!
//! The pool is *scoped*: workers are spawned inside [`std::thread::scope`]
//! per parallel region, so closures may borrow from the caller's stack
//! without `'static` bounds, `Arc`, or unsafe lifetime erasure (the
//! workspace forbids `unsafe`). A [`ThreadPool`] is thus a scheduling
//! policy plus a thread budget, not a set of persistent OS threads; for the
//! coarse-grained regions the PT-k stack runs (whole queries, sampling
//! quotas, serve lanes), spawn cost is noise.
//!
//! There is one primitive, [`ThreadPool::parallel_map`]: one result per
//! item, in item order. Worker `w` of `T` starts on its own lane, items
//! `w, w + T, w + 2T, …`, then *steals* unclaimed items from the other
//! lanes in a fixed victim order, so skewed per-item costs do not
//! serialize on the slowest lane. [`ThreadPool::parallel_map_stats`] is
//! the same region reporting its [`StealStats`].
//!
//! ```
//! use ptk_par::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.parallel_map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

/// The environment variable consulted by [`threads_from_env`] (and through
/// it the CLI's `--threads` default): the number of worker threads parallel
/// paths should use when the caller does not say otherwise.
pub const THREADS_ENV: &str = "PTK_THREADS";

/// Emits the lenient-fallback warning at most once per process: batch and
/// bench entry points call [`threads_from_env`] repeatedly, and a malformed
/// `PTK_THREADS` should not flood stderr.
static LENIENT_WARNING: Once = Once::new();

/// The number of worker threads requested via [`THREADS_ENV`], or
/// `default` when the variable is unset or empty. A set-but-malformed value
/// (`"abc"`, `"0"`) also falls back to `default`, but *warns on stderr
/// once per process* — a typo in the environment must not silently
/// single-thread (or mis-size) a production deployment. On every input the
/// strict reader accepts, this lenient reader returns the same count.
pub fn threads_from_env(default: usize) -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(raw) if !raw.trim().is_empty() => match parse_thread_count(&raw) {
            Ok(n) => n,
            Err(e) => {
                LENIENT_WARNING.call_once(|| {
                    eprintln!("warning: {THREADS_ENV}: {e}; falling back to {default} thread(s)");
                });
                default
            }
        },
        _ => default,
    }
}

/// Parses a thread-count string into a positive worker budget, with a
/// clear error for zero, empty, or unparsable input. This is the strict
/// counterpart to [`threads_from_env`]'s silent fallback, shared by the
/// CLI's `--threads` flag and [`threads_from_env_strict`].
pub fn parse_thread_count(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err(format!("thread count must be >= 1, got '{trimmed}'")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "invalid thread count '{trimmed}': expected a positive integer"
        )),
    }
}

/// Like [`threads_from_env`], but strict: an unset or empty [`THREADS_ENV`]
/// yields `default`, while a set-but-invalid value (zero or unparsable) is
/// reported as an error naming the variable instead of being silently
/// ignored.
pub fn threads_from_env_strict(default: usize) -> Result<usize, String> {
    match std::env::var(THREADS_ENV) {
        Ok(raw) if !raw.trim().is_empty() => {
            parse_thread_count(&raw).map_err(|e| format!("{THREADS_ENV}: {e}"))
        }
        _ => Ok(default),
    }
}

/// The parallelism the host advertises ([`std::thread::available_parallelism`]),
/// falling back to 1 when the host cannot say.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Scheduling facts from one [`ThreadPool::parallel_map_stats`]
/// region. These describe *runtime* behaviour — `stolen` depends on OS
/// timing — so they are reported out-of-band and must never feed into
/// deterministic results (the PT-k snapshot keeps them in a separate
/// scheduler section excluded from deterministic renderings).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Workers actually spawned (0 when the region ran inline on the
    /// caller's thread). Never exceeds `min(threads, n_items)`.
    pub workers_spawned: u64,
    /// Total items executed in the region.
    pub tasks: u64,
    /// Items that ran on a thief instead of their home lane.
    pub stolen: u64,
}

/// A scoped thread pool: a fixed worker budget plus the deterministic
/// scheduling primitives described in the crate docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool running work on up to `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> ThreadPool {
        assert!(threads > 0, "at least one thread is required");
        ThreadPool { threads }
    }

    /// A pool sized from [`THREADS_ENV`], defaulting to a single worker —
    /// parallelism in this stack is opt-in, never ambient.
    pub fn from_env() -> ThreadPool {
        ThreadPool::new(threads_from_env(1))
    }

    /// The worker budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, one result per item, in item order, on
    /// the pool's **deterministic work-stealing** schedule. `f` receives
    /// the item's index alongside the item.
    ///
    /// Scheduling is deterministic in the only sense that matters for this
    /// stack: the *initial* lane assignment is a pure function of
    /// `(len, threads)` (item `i` belongs to lane `i % workers`), the
    /// *victim order* is a pure function of `(round, worker id)` — after
    /// draining its own lane front to back, worker `w` steals from lane
    /// `(w + r) % workers` in round `r`, scanning the victim's lane back to
    /// front — and every item is claimed exactly once through an atomic
    /// flag. Which worker ends up running an item *does* depend on timing,
    /// but `f` must be a pure function of `(index, item)` (as everywhere in
    /// this crate), and results are scattered back into item order, so the
    /// returned vector is bit-identical across runs, pool widths, and steal
    /// interleavings. A single-worker pool (or a single item) runs inline
    /// on the caller's thread: the same `f` on the same items in the same
    /// order.
    pub fn parallel_map<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        self.parallel_map_stats(items, f).0
    }

    /// [`ThreadPool::parallel_map`] plus a [`StealStats`] report for
    /// observability: how many workers were actually spawned and how many
    /// items ran on a thief instead of their home lane. The stats are
    /// runtime scheduling facts — *not* deterministic — and must never be
    /// folded into deterministic outputs.
    pub fn parallel_map_stats<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> (Vec<R>, StealStats) {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            let out: Vec<R> = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
            let stats = StealStats {
                workers_spawned: 0,
                tasks: items.len() as u64,
                stolen: 0,
            };
            return (out, stats);
        }
        // One claim flag per item. A relaxed swap is sufficient: the single
        // atomic RMW decides which worker runs the item, and the scope join
        // publishes every worker's results before they are read.
        let claims: Vec<AtomicBool> = (0..items.len()).map(|_| AtomicBool::new(false)).collect();
        let claims = &claims;
        let f = &f;
        let per_worker: Vec<(Vec<(usize, R)>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut got: Vec<(usize, R)> =
                            Vec::with_capacity(items.len() / workers + 1);
                        let mut stolen = 0u64;
                        // Own lane first, front to back.
                        let mut i = w;
                        while i < items.len() {
                            if !claims[i].swap(true, Ordering::Relaxed) {
                                got.push((i, f(i, &items[i])));
                            }
                            i += workers;
                        }
                        // Then steal: round r targets lane (w + r) % workers,
                        // scanned back to front so thieves collide with the
                        // victim's own front-to-back progress as late as
                        // possible.
                        for r in 1..workers {
                            let v = (w + r) % workers;
                            let lane_len = (items.len() - v).div_ceil(workers);
                            for j in (0..lane_len).rev() {
                                let i = v + j * workers;
                                if !claims[i].swap(true, Ordering::Relaxed) {
                                    got.push((i, f(i, &items[i])));
                                    stolen += 1;
                                }
                            }
                        }
                        (got, stolen)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool workers do not panic"))
                .collect()
        });
        // Scatter back into item order: determinism lives here, not in who
        // ran what.
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        let mut stolen_total = 0u64;
        for (got, stolen) in per_worker {
            stolen_total += stolen;
            for (i, r) in got {
                debug_assert!(slots[i].is_none(), "item {i} claimed twice");
                slots[i] = Some(r);
            }
        }
        let out: Vec<R> = slots
            .into_iter()
            .map(|s| s.expect("every item is claimed exactly once"))
            .collect();
        let stats = StealStats {
            workers_spawned: workers as u64,
            tasks: items.len() as u64,
            stolen: stolen_total,
        };
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_thread_pool_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn parallel_map_is_in_item_order_at_every_width() {
        let items: Vec<u64> = (0..23).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.threads(), threads);
            let got = pool.parallel_map(&items, |i, &x| {
                assert_eq!(items[i], x, "index is the item's own");
                x * 3 + 1
            });
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_borrows_stack_data() {
        let data = vec![String::from("a"), String::from("bb")];
        let lens = ThreadPool::new(2).parallel_map(&data, |_, s| s.len());
        assert_eq!(lens, vec![1, 2]);
    }

    #[test]
    fn results_are_bit_deterministic_across_runs() {
        // f64 work gathered in item order: repeated runs must agree bit
        // for bit, whatever the OS did to the workers.
        let items: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let pool = ThreadPool::new(7);
        let work = |_: usize, &x: &f64| (x.sin() * x.cos()).to_bits();
        let a = pool.parallel_map(&items, work);
        let b = pool.parallel_map(&items, work);
        assert_eq!(a, b);
        // And identical to the sequential pool: scheduling never leaks
        // into values.
        let c = ThreadPool::new(1).parallel_map(&items, work);
        assert_eq!(a, c);
    }

    #[test]
    fn threads_from_env_parses_and_falls_back() {
        // Process-global env: use one distinct value and restore.
        std::env::remove_var(THREADS_ENV);
        assert_eq!(threads_from_env(3), 3);
        std::env::set_var(THREADS_ENV, "5");
        assert_eq!(threads_from_env(3), 5);
        assert_eq!(ThreadPool::from_env().threads(), 5);
        std::env::set_var(THREADS_ENV, "0");
        assert_eq!(threads_from_env(3), 3);
        std::env::set_var(THREADS_ENV, "lots");
        assert_eq!(threads_from_env(3), 3);
        // The strict reader errors on set-but-invalid values (this lives in
        // the same test because the env var is process-global).
        let err = threads_from_env_strict(3).unwrap_err();
        assert!(err.contains(THREADS_ENV), "error names the variable: {err}");
        assert!(err.contains("lots"), "error echoes the value: {err}");
        std::env::set_var(THREADS_ENV, "0");
        let err = threads_from_env_strict(3).unwrap_err();
        assert!(err.contains(">= 1"), "zero is rejected loudly: {err}");
        std::env::set_var(THREADS_ENV, "5");
        assert_eq!(threads_from_env_strict(3), Ok(5));
        std::env::set_var(THREADS_ENV, "  ");
        assert_eq!(threads_from_env_strict(3), Ok(3), "empty acts as unset");
        assert_eq!(threads_from_env(3), 3, "lenient agrees: empty is unset");
        // On every input the strict path accepts, the lenient path must
        // return the same count — the two readers may only diverge on how
        // they *report* malformed input (error vs. warn-and-default).
        for raw in ["1", "2", "5", " 16 ", "64", "\t8\n"] {
            std::env::set_var(THREADS_ENV, raw);
            let strict = threads_from_env_strict(3).expect("valid input");
            assert_eq!(
                threads_from_env(3),
                strict,
                "lenient and strict disagree on valid input {raw:?}"
            );
        }
        // Malformed input: strict errors, lenient falls back (warning once
        // on stderr — the value contract is what we can assert here).
        for raw in ["abc", "0", "-2", "1.5"] {
            std::env::set_var(THREADS_ENV, raw);
            assert!(
                threads_from_env_strict(3).is_err(),
                "strict rejects {raw:?}"
            );
            assert_eq!(threads_from_env(3), 3, "lenient defaults on {raw:?}");
        }
        std::env::remove_var(THREADS_ENV);
        assert_eq!(threads_from_env_strict(3), Ok(3));
        assert_eq!(ThreadPool::from_env().threads(), 1);
    }

    #[test]
    fn stealing_matches_sequential_at_every_width() {
        let items: Vec<f64> = (0..97).map(|i| i as f64 * 0.37 - 3.0).collect();
        let work = |i: usize, &x: &f64| (x.sin() * (i as f64 + 1.0).ln()).to_bits();
        let reference: Vec<u64> = items.iter().enumerate().map(|(i, x)| work(i, x)).collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = ThreadPool::new(threads);
            let (got, stats) = pool.parallel_map_stats(&items, work);
            assert_eq!(got, reference, "threads={threads}");
            assert_eq!(stats.tasks, items.len() as u64);
            assert!(stats.workers_spawned <= threads.min(items.len()) as u64);
            assert!(stats.stolen <= stats.tasks);
            if threads == 1 {
                assert_eq!(stats.workers_spawned, 0, "width 1 runs inline");
                assert_eq!(stats.stolen, 0);
            }
            // And repeated runs are bit-identical whatever was stolen.
            assert_eq!(pool.parallel_map(&items, work), reference);
        }
        // Degenerate shapes.
        let empty: Vec<f64> = Vec::new();
        assert!(ThreadPool::new(4).parallel_map(&empty, work).is_empty());
        let one = [2.0f64];
        assert_eq!(
            ThreadPool::new(4).parallel_map(&one, work),
            vec![work(0, &2.0)]
        );
    }

    #[test]
    fn stealing_balances_adversarially_skewed_costs() {
        // One very expensive item among trivial ones: under static strided
        // assignment every other lane idles; under stealing the other
        // workers drain the cheap items. We can only assert values here
        // (timing is the bench's job), but this shape is the motivating
        // case so it gets its own correctness pin.
        let mut costs = vec![1u64; 33];
        costs[4] = 200_000;
        let work =
            |_: usize, &c: &u64| (0..c).fold(0u64, |acc, v| acc ^ v.wrapping_mul(2654435761));
        let reference: Vec<u64> = costs.iter().map(|c| work(0, c)).collect();
        for threads in [2, 4, 8] {
            let got = ThreadPool::new(threads).parallel_map(&costs, work);
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn no_primitive_spawns_more_workers_than_items() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::thread::ThreadId;
        // Pin for min(threads, n_items) scope sizing: with 3 items and a
        // 64-thread budget, a region must touch at most 3 distinct threads
        // (workers run on their own thread; an inline region runs on the
        // caller's, still one thread).
        let items = [10u8, 20, 30];
        let pool = ThreadPool::new(64);
        let run = |region: &str, go: &dyn Fn(&(dyn Fn() + Sync))| {
            let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
            let note = || {
                seen.lock().unwrap().insert(std::thread::current().id());
            };
            go(&note);
            let distinct = seen.lock().unwrap().len();
            assert!(
                distinct <= items.len(),
                "{region}: {distinct} workers for {} items",
                items.len()
            );
        };
        run("parallel_map", &|note| {
            pool.parallel_map(&items, |_, _| note());
        });
        run("parallel_map_stats", &|note| {
            let (_, stats) = pool.parallel_map_stats(&items, |_, _| note());
            assert!(stats.workers_spawned <= items.len() as u64);
        });
    }

    #[test]
    fn parse_thread_count_is_strict() {
        assert_eq!(parse_thread_count("4"), Ok(4));
        assert_eq!(parse_thread_count(" 16 "), Ok(16));
        assert!(parse_thread_count("0").unwrap_err().contains(">= 1"));
        assert!(parse_thread_count("").is_err());
        assert!(parse_thread_count("-2").is_err());
        assert!(parse_thread_count("four").unwrap_err().contains("four"));
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
