//! Deterministic memory accounting for loading a table and ranking it.
//!
//! A counting global allocator (the only `unsafe` in this test binary; the
//! library crates forbid it) tallies, per thread, every allocation and
//! reallocation and the peak of live heap bytes. Two generated tables with
//! the same rules, of 10k and 20k rows, are loaded from CSV text and
//! ranked. The table keeps its rows in flat arrays and the view writes its
//! tuples straight into one shared array, so:
//!
//! * doubling the rows adds a few array regrowths, not an allocation per
//!   row (a row of its own, or a per-row `Vec` of values, would add 10k);
//! * the peak stays within a per-tuple budget set from the flat layout: 36
//!   bytes of table and 32 of view per tuple, the view's 12 bytes of
//!   transients, and the growth slack of the table's arrays.
//!
//! A third load keeps the rows and quadruples the rules: a rule costs the
//! list of its members and its label's copy, not a collection per group
//! while loading and a set per rule to check it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ptk_cli::load::{load_table, save_table};
use ptk_core::Ranking;
use ptk_datagen::{SyntheticConfig, SyntheticDataset};

/// What this thread has allocated since the last [`reset`].
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    /// Allocations plus reallocations.
    allocations: u64,
    /// Bytes allocated and not yet freed (negative when blocks from before
    /// the reset are freed).
    live: isize,
    /// The largest `live` seen. A reallocation counts its new block before
    /// freeing the old one, as a move would hold both.
    peak: isize,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { allocations: 0, live: 0, peak: 0 })
    };
}

fn record(allocated: usize, freed: usize) {
    // `try_with`: a thread's last frees may come after its locals are gone.
    let _ = TALLY.try_with(|cell| {
        let mut t = cell.get();
        if allocated > 0 {
            t.allocations += 1;
            t.live += allocated as isize;
            t.peak = t.peak.max(t.live);
        }
        t.live -= freed as isize;
        cell.set(t);
    });
}

fn reset() {
    TALLY.with(|cell| cell.set(Tally::default()));
}

fn tally() -> Tally {
    TALLY.with(Cell::get)
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only a const-initialized thread-local
// `Cell` of plain integers, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        // SAFETY: the caller keeps `GlobalAlloc::alloc`'s contract, which is
        // `System`'s too.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        // SAFETY: the caller keeps `GlobalAlloc::alloc_zeroed`'s contract, which is
        // `System`'s too.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, layout.size());
        // SAFETY: the caller keeps `GlobalAlloc::dealloc`'s contract, which is
        // `System`'s too.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, layout.size());
        // SAFETY: the caller keeps `GlobalAlloc::realloc`'s contract, which is
        // `System`'s too.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Rules of both tables: the same count and, from the same seed, the same
/// drawn sizes, so the rule bookkeeping allocates alike in both.
const RULES: usize = 500;

/// The CSV text of a synthetic table of `tuples` rows (one score column)
/// with `rules` rules.
fn csv(tuples: usize, rules: usize) -> String {
    let dataset = SyntheticDataset::generate(&SyntheticConfig {
        tuples,
        rules,
        ..SyntheticConfig::default()
    });
    save_table(&dataset.table)
}

/// Loads `text` and ranks the table by its score: the tally of the two.
fn load_and_rank(text: &str) -> Tally {
    reset();
    let table = load_table(text).expect("a saved table loads");
    let view = table
        .ranked(&Ranking::descending(0))
        .expect("the score column ranks");
    let tally = tally();
    assert!(view.len() == table.len() && view.rules().len() == RULES);
    tally
}

#[test]
fn doubling_the_rows_adds_regrowths_not_allocations_per_row() {
    let (small, large) = (csv(10_000, RULES), csv(20_000, RULES));
    let small = load_and_rank(&small);
    let large = load_and_rank(&large);
    // Each growing array doubles once more; allow a few more for the
    // allocator-facing details of sorting and hashing.
    let extra = large.allocations.saturating_sub(small.allocations);
    assert!(
        extra <= 16,
        "20k rows made {extra} more allocations than 10k ({small:?} vs {large:?})"
    );
}

#[test]
fn peak_heap_per_tuple_fits_the_flat_layout() {
    for tuples in [10_000, 20_000] {
        let text = csv(tuples, RULES);
        let tally = load_and_rank(&text);
        let per_tuple = tally.peak as f64 / tuples as f64;
        // 36 B of table arrays at up to 1.64x capacity (59 B), 32 B of
        // view, 12 B of view transients, the rules: about 105 B. A row
        // allocated on its own, or a view copied after it is built, costs
        // 50 B or more a tuple on top.
        assert!(
            per_tuple <= 128.0,
            "{tuples} rows peaked at {per_tuple:.1} B a tuple ({tally:?})"
        );
    }
}

#[test]
fn a_rule_costs_at_most_three_allocations() {
    let (few, many) = (RULES, 4 * RULES);
    let load = |rules: usize| {
        let text = csv(20_000, rules);
        reset();
        let table = load_table(&text).expect("a saved table loads");
        let loaded = tally();
        assert_eq!(table.rules().len(), rules);
        loaded
    };
    let (few_tally, many_tally) = (load(few), load(many));
    let extra = many_tally.allocations.saturating_sub(few_tally.allocations);
    let added = (many - few) as u64;
    assert!(
        extra <= 3 * added,
        "{added} more rules made {extra} more allocations ({few_tally:?} vs {many_tally:?})"
    );
}
