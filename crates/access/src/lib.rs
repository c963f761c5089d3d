//! # `ptk-access` — progressive ranked retrieval
//!
//! Section 4.4 of the paper assumes tuples satisfying the query predicate
//! can be **retrieved progressively in the ranking order** — it cites
//! Fagin's Threshold Algorithm (TA) as the retrieval layer — so the pruning
//! rules can *stop retrieval* long before the whole table is read. This
//! crate is that retrieval layer:
//!
//! * [`RankedSource`] — the pull interface the streaming engine consumes:
//!   tuples arrive one by one in non-increasing score order, each carrying
//!   its membership probability and (optionally) a generation-rule key;
//! * [`ViewSource`] — adapter over a materialized
//!   [`RankedView`](ptk_core::RankedView);
//! * [`SelectionSource`] — a scan over a query's
//!   [`Selection`](ptk_core::Selection) of a table's shared ranked view,
//!   delivering what a `ViewSource` over the materialized selection would;
//! * [`SortedVecSource`] — a sorted in-memory list built directly from
//!   `(score, probability, rule)` triples;
//! * [`TaSource`] — a middleware in the spirit of Fagin, Lotem and Naor's
//!   TA: several per-attribute sorted lists, a monotone aggregation
//!   function, and an emit-in-order loop that only descends the lists as
//!   far as the consumer actually pulls;
//! * [`PagedRun`] / [`write_run_blocked`] — on-disk sorted runs, so
//!   tables larger than memory can still be scanned in ranking order. A
//!   run (format `PTKRUN02`) is a sequence of fixed-size blocks carrying
//!   per-block record counts, max membership probability, score ranges
//!   and rule flags, read through a pinned [`BufferPool`] so the executor
//!   can *skip a block's decode* when the paper's Theorem 3(1) bound
//!   already prunes everything in it. Every scan reads a prefix of the
//!   ranked run, so the pool evicts the deepest block first and the
//!   leading blocks stay resident across scans;
//! * [`ByteBuf`] — the in-repo byte read/write cursor behind the run-file
//!   codec (the workspace builds hermetically, without the `bytes` crate).
//!
//! ```
//! use ptk_access::{RankedSource, SortedVecSource};
//!
//! let mut source = SortedVecSource::from_unsorted(vec![
//!     (13.0, 0.5, Some(1)),
//!     (25.0, 0.3, None),
//!     (21.0, 0.4, Some(1)),
//! ]).unwrap();
//! let first = source.next_ranked().unwrap();
//! assert_eq!(first.score, 25.0); // highest score first
//! assert_eq!(source.retrieved(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod block;
mod bytebuf;
mod source;
mod ta;

/// Metric names this crate records into a
/// [`Recorder`](ptk_obs::Recorder) (see `DESIGN.md` §8).
pub mod counters {
    /// Bytes read from a run file (header, rule table and record chunks).
    pub const FILE_BYTES_READ: &str = "access.file.bytes_read";
    /// Records decoded from a run file.
    pub const FILE_RECORDS: &str = "access.file.records";
    /// Run files opened.
    pub const FILE_OPENS: &str = "access.file.opens";
    /// Blocks of a run file entered for full decode.
    pub const BLOCK_READ: &str = "access.block.read";
    /// Blocks of a run file whose decode was skipped (only the
    /// probability stripe was read, under a block-level pruning bound).
    pub const BLOCK_SKIP: &str = "access.block.skip";
    /// Bytes actually decoded from block frames (24 per full record,
    /// 8 per stripe-skipped record) — the savings a block skip buys.
    pub const BLOCK_DECODE_BYTES: &str = "access.block.decode_bytes";
    /// Buffer-pool lookups served by a resident frame.
    pub const POOL_HIT: &str = "access.block.pool_hit";
    /// Buffer-pool lookups that had to fetch the block from disk.
    pub const POOL_MISS: &str = "access.block.pool_miss";
    /// Frame pins taken by scan cursors (each pin is matched by an unpin
    /// when the cursor moves on).
    pub const POOL_PIN: &str = "access.block.pin";
    /// Resident frames evicted to make room for a fetched block.
    pub const POOL_EVICT: &str = "access.block.evict";
    /// TA rounds of sorted access (one cursor step on every list).
    pub const TA_ROUNDS: &str = "access.ta.rounds";
    /// Individual sorted accesses across all lists.
    pub const TA_SORTED_ACCESSES: &str = "access.ta.sorted_accesses";
    /// Tuples emitted by the TA middleware in ranking order.
    pub const TA_EMITTED: &str = "access.ta.emitted";
}

pub use block::{
    crc32, run_format, write_run_blocked, BlockMeta, BufferPool, PagedCursor, PagedRun, PoolConfig,
    DEFAULT_BLOCK_BYTES, DEFAULT_FRAME_BYTES, DEFAULT_POOL_FRAMES, MAX_BLOCK_BYTES,
    MIN_BLOCK_BYTES,
};
pub use bytebuf::ByteBuf;
pub use source::{
    BlockBounds, RankedSource, RuleKey, SelectionSource, SnapshotSource, SortedVecCursor,
    SortedVecSource, SourceTuple, ViewSource,
};
pub use ta::{AggregateFn, SortedList, TaSource};
