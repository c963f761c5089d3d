//! Run files: paged ranked retrieval through a pinned buffer pool.
//!
//! A run holds a table's tuples in ranking order, split into fixed-size
//! **blocks** carrying per-block bounds (record count, max membership
//! probability, score range, rule flags), so the executor can consult the
//! bounds *before* decoding and skip a block's decode entirely when
//! Theorem 3(1) certifies every record in it would be pruned (only the
//! 8-byte probability stripe is read then, since pruned tuples still join
//! later tuples' dominant sets).
//!
//! ## Format (little-endian)
//!
//! ```text
//! magic       8 bytes   b"PTKRUN02"
//! block_size  u32       bytes per block frame (24..=1 MiB)
//! tuples      u64       record count
//! rules       u32       rule count
//! masses      rules×f64 total membership mass per rule key
//! layout      per rule: count u32, then count×u64 ascending scan ranks
//!                       of the rule's members (drives the engine's
//!                       aggressive/lazy reordering, bit-identically to
//!                       the in-memory sources)
//! directory   blocks × { records: u32, flags: u32, max_prob: f64,
//!                        score_first: f64, score_last: f64, crc32: u32 }
//!                       (36 bytes per entry)
//! data        blocks × block_size bytes; each frame holds `records`
//!                       24-byte records { id: u32, rule: u32,
//!                       score: f64, prob: f64 }, zero-padded to the
//!                       frame size; crc32 (IEEE) covers the record bytes
//! ```
//!
//! A file of the retired flat format, with no block directory, is refused
//! at open with a hint to repack it from its CSV.
//!
//! `blocks = ceil(tuples / (block_size / 24))`; every block is full except
//! possibly the last. Scores are non-increasing across the whole file;
//! the directory stores each block's first/last score so overlap between
//! consecutive rank ranges is detected at open.
//!
//! Reading is paged: [`PagedRun`] holds the directory, rule table and a
//! small [`BufferPool`] of pinned frames, which evicts the deepest block
//! first so the leading blocks every scan shares stay resident;
//! [`PagedCursor`] (a [`RankedSource`]) decodes records lazily from the
//! pooled frames as the scan advances, so memory use is
//! `O(pool + directory)`, not `O(file)`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use ptk_core::TupleId;
use ptk_obs::{Mark, Noop, Payload, SharedRecorder, Stage};

use crate::bytebuf::ByteBuf;
use crate::counters;
use crate::source::{BlockBounds, RankedSource, RuleKey, SourceTuple};

const MAGIC_V2: &[u8; 8] = b"PTKRUN02";
const MAGIC_V1: &[u8; 8] = b"PTKRUN01";
/// magic (8) + block_size (4) + tuples (8) + rules (4).
const HEADER_BYTES: u64 = 24;
const RECORD_BYTES: usize = 4 + 4 + 8 + 8;
const DIR_ENTRY_BYTES: u64 = 36;
const NO_RULE: u32 = u32::MAX;
const FLAG_RULE_FREE: u32 = 1;
const FLAG_RULE_CLOSED: u32 = 2;
const KNOWN_FLAGS: u32 = FLAG_RULE_FREE | FLAG_RULE_CLOSED;
/// Sentinel block id for an empty buffer-pool frame.
const EMPTY_FRAME: u64 = u64::MAX;

/// Smallest writable block: one record.
pub const MIN_BLOCK_BYTES: u32 = RECORD_BYTES as u32;
/// Largest writable block (1 MiB).
pub const MAX_BLOCK_BYTES: u32 = 1 << 20;
/// Default block size for writers (4 KiB — the issue's target range is
/// 4–64 KiB).
pub const DEFAULT_BLOCK_BYTES: u32 = 4096;
/// Default buffer-pool frame budget.
pub const DEFAULT_POOL_FRAMES: usize = 64;
/// Default bytes per buffer-pool frame (64 KiB — the top of the target
/// block-size range; larger blocks need an explicitly larger frame).
pub const DEFAULT_FRAME_BYTES: usize = 64 << 10;

/// IEEE CRC-32 slice-by-16 lookup tables (polynomial `0xEDB88320`), built
/// at compile time so the codec stays dependency-free. Table 0 is the
/// classic byte-at-a-time table; table `t` gives a byte's contribution
/// after `t` more zero bytes, so one step of [`crc32`] folds 16 bytes.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Reads the 8-byte magic of `path` and reports which run-file format it
/// carries: `Some(2)` for a run [`PagedRun`] reads, `Some(1)` for the
/// retired flat format it refuses with a repack hint, `None` for anything
/// else — including unreadable or too-short files, so callers route to an
/// opener whose error names the real problem.
pub fn run_format(path: &Path) -> Option<u32> {
    let mut magic = [0u8; 8];
    File::open(path)
        .and_then(|mut f| f.read_exact(&mut magic))
        .ok()?;
    match &magic {
        m if m == MAGIC_V2 => Some(2),
        m if m == MAGIC_V1 => Some(1),
        _ => None,
    }
}

/// IEEE CRC-32 of `bytes` (the checksum in each directory entry), 16 bytes
/// per step: the running CRC is folded into the step's first four bytes,
/// and byte `j` of the step is looked up in table `15 - j`. The tail
/// shorter than a step goes a byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut steps = bytes.chunks_exact(16);
    for step in &mut steps {
        let mut s = [0u8; 16];
        s.copy_from_slice(step);
        let head = c ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        s[..4].copy_from_slice(&head.to_le_bytes());
        c = s
            .iter()
            .enumerate()
            .fold(0, |acc, (j, &b)| acc ^ t[15 - j][b as usize]);
    }
    for &b in steps.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Every validation failure names the offending byte offset and what was
/// expected vs. found there, so a corrupt file can be diagnosed with a hex
/// dump instead of a debugger.
fn corrupt(
    offset: u64,
    field: impl std::fmt::Display,
    expected: impl std::fmt::Display,
    found: impl std::fmt::Display,
) -> io::Error {
    invalid(format!(
        "corrupt run file at byte {offset}: {field}: expected {expected}, found {found}"
    ))
}

/// Largest rule mass a packer writes: members' probabilities may sum a
/// few ulps above 1 (renormalized confidences), never more.
const MAX_RULE_MASS: f64 = 1.0 + 1e-9;

/// Validates rule `rule`'s mass, read at byte `offset` of a run file's
/// header. The packers write the sum of the rule's member probabilities,
/// so it is never NaN, never negative and never above [`MAX_RULE_MASS`].
fn check_rule_mass(offset: u64, rule: u64, mass: f64) -> io::Result<f64> {
    // NaN-safe: a NaN mass is in no range.
    if (0.0..=MAX_RULE_MASS).contains(&mass) {
        return Ok(mass);
    }
    Err(corrupt(
        offset,
        format!("rule {rule} mass"),
        "a value in [0, 1 + 1e-9]",
        format!("{mass:?}"),
    ))
}

/// Validates the probability `prob` of record `record` (a member of rule
/// `rule`, read at byte `offset`) against the rule's stored `mass`. The
/// mass is a sum of non-negative terms, this probability among them, so
/// no member of a valid file exceeds it: the check is exact.
fn check_member(offset: u64, record: u64, rule: u32, prob: f64, mass: f64) -> io::Result<()> {
    if prob <= mass {
        return Ok(());
    }
    Err(corrupt(
        offset,
        format!("record {record} probability"),
        format!("<= rule {rule} mass {mass:?}"),
        prob,
    ))
}

/// One entry of a run file's block directory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockMeta {
    /// Records stored in the block (equal to the block capacity for every
    /// block except possibly the last).
    pub records: u32,
    /// No record in the block belongs to a generation rule — the
    /// precondition for skipping the block's decode under Theorem 3(1).
    /// [`PagedRun::open`] refuses the flag on a block holding a rank that
    /// the rule layout lists.
    pub rule_free: bool,
    /// No generation rule spans the block's trailing boundary (every rule
    /// seen at or before this block has all members at or before it), as
    /// `ptk inspect` reports. No reader depends on it.
    pub rule_closed: bool,
    /// Largest membership probability among the block's records.
    pub max_prob: f64,
    /// Score of the block's first (highest-ranked) record.
    pub score_first: f64,
    /// Score of the block's last record.
    pub score_last: f64,
    /// IEEE CRC-32 over the block's record bytes.
    pub crc: u32,
}

impl BlockMeta {
    fn flags(&self) -> u32 {
        (if self.rule_free { FLAG_RULE_FREE } else { 0 })
            | (if self.rule_closed {
                FLAG_RULE_CLOSED
            } else {
                0
            })
    }
}

/// Sorts `rows` (`(score, probability, rule)` triples; ids are assigned by
/// input order) and writes them as a run file of `block_size`-byte blocks
/// at `path`.
///
/// The file is streamed: the header and rule layout, a zeroed directory
/// placeholder, then each block through one reused frame buffer; the
/// directory is written last, over its placeholder. Memory is the rows'
/// sort order, the rule layout, the directory and one block, not the
/// file. Every input check runs before the file is created, so a refused
/// input leaves no file behind; an IO error mid-write leaves a short file
/// or one whose directory is still zeroed, and [`PagedRun::open`] refuses
/// both.
///
/// # Errors
/// Fails on IO errors, a block size outside
/// [`MIN_BLOCK_BYTES`]`..=`[`MAX_BLOCK_BYTES`], more than `u32::MAX` rows
/// (ids and rule member counts are stored as `u32`), probabilities
/// outside `(0, 1]`, a rule key equal to `u32::MAX` (reserved), or a rule
/// whose total mass exceeds 1.
pub fn write_run_blocked(
    path: &Path,
    rows: &[(f64, f64, Option<u32>)],
    block_size: u32,
) -> io::Result<()> {
    if !(MIN_BLOCK_BYTES..=MAX_BLOCK_BYTES).contains(&block_size) {
        return Err(invalid(format!(
            "block size {block_size} outside {MIN_BLOCK_BYTES}..={MAX_BLOCK_BYTES} bytes"
        )));
    }
    if u32::try_from(rows.len()).is_err() {
        return Err(invalid("too many rows"));
    }
    let mut rule_count = 0u32;
    for (_, prob, rule) in rows {
        if !(*prob > 0.0 && *prob <= 1.0) {
            return Err(invalid(format!(
                "membership probability {prob} outside (0, 1]"
            )));
        }
        if let Some(r) = rule {
            if *r == NO_RULE {
                return Err(invalid("rule key u32::MAX is reserved"));
            }
            rule_count = rule_count.max(r + 1);
        }
    }
    // Masses accumulate in input order — the same float-summation order as
    // SortedVecSource, so Theorem 3(2) sees bit-identical rule masses on
    // every path.
    let mut masses = vec![0.0f64; rule_count as usize];
    for (_, prob, rule) in rows {
        if let Some(r) = rule {
            masses[*r as usize] += prob;
        }
    }
    for (r, &mass) in masses.iter().enumerate() {
        if mass > MAX_RULE_MASS {
            return Err(invalid(format!("rule {r} has total mass {mass} > 1")));
        }
    }
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| rows[b].0.total_cmp(&rows[a].0).then(a.cmp(&b)));
    let mut rule_ranks: Vec<Vec<u64>> = vec![Vec::new(); rule_count as usize];
    for (rank, &i) in order.iter().enumerate() {
        if let Some(r) = rows[i].2 {
            rule_ranks[r as usize].push(rank as u64);
        }
    }

    let capacity = block_size as usize / RECORD_BYTES;
    let blocks = rows.len().div_ceil(capacity);
    // Which blocks have a rule spanning their trailing boundary.
    let mut spanned = vec![false; blocks];
    for ranks in &rule_ranks {
        if let (Some(&first), Some(&last)) = (ranks.first(), ranks.last()) {
            for flag in spanned
                .iter_mut()
                .take(last as usize / capacity)
                .skip(first as usize / capacity)
            {
                *flag = true;
            }
        }
    }
    let mut out = BufWriter::new(File::create(path)?);
    let dir_start = {
        let mut buf = ByteBuf::with_capacity(HEADER_BYTES as usize + masses.len() * 8);
        buf.put_slice(MAGIC_V2);
        buf.put_u32_le(block_size);
        buf.put_u64_le(rows.len() as u64);
        buf.put_u32_le(rule_count);
        for &m in &masses {
            buf.put_f64_le(m);
        }
        for ranks in &rule_ranks {
            buf.put_u32_le(ranks.len() as u32);
            for &r in ranks {
                buf.put_u64_le(r);
            }
        }
        out.write_all(buf.as_slice())?;
        buf.len() as u64
    };
    let dir_bytes = blocks as u64 * DIR_ENTRY_BYTES;
    io::copy(&mut io::repeat(0).take(dir_bytes), &mut out)?;

    let mut directory = ByteBuf::with_capacity(dir_bytes as usize);
    let mut frame = vec![0u8; block_size as usize];
    for (b, &spans_boundary) in spanned.iter().enumerate() {
        let lo = b * capacity;
        let hi = (lo + capacity).min(rows.len());
        let mut max_prob = 0.0f64;
        let mut rule_free = true;
        for (slot, rank) in (lo..hi).enumerate() {
            let i = order[rank];
            let (score, prob, rule) = rows[i];
            let id = u32::try_from(i).expect("row count bounded above");
            let off = slot * RECORD_BYTES;
            frame[off..off + 4].copy_from_slice(&id.to_le_bytes());
            frame[off + 4..off + 8].copy_from_slice(&rule.unwrap_or(NO_RULE).to_le_bytes());
            frame[off + 8..off + 16].copy_from_slice(&score.to_le_bytes());
            frame[off + 16..off + 24].copy_from_slice(&prob.to_le_bytes());
            max_prob = max_prob.max(prob);
            rule_free &= rule.is_none();
        }
        let records = hi - lo;
        // Zero-pad past the records: the frame still holds the previous
        // block's bytes there.
        frame[records * RECORD_BYTES..].fill(0);
        let meta = BlockMeta {
            records: records as u32,
            rule_free,
            rule_closed: !spans_boundary,
            max_prob,
            score_first: rows[order[lo]].0,
            score_last: rows[order[hi - 1]].0,
            crc: crc32(&frame[..records * RECORD_BYTES]),
        };
        directory.put_u32_le(meta.records);
        directory.put_u32_le(meta.flags());
        directory.put_f64_le(meta.max_prob);
        directory.put_f64_le(meta.score_first);
        directory.put_f64_le(meta.score_last);
        directory.put_u32_le(meta.crc);
        out.write_all(&frame)?;
    }
    // `BufWriter` flushes the data blocks before it seeks.
    out.seek(SeekFrom::Start(dir_start))?;
    out.write_all(directory.as_slice())?;
    out.flush()
}

/// Sizing of a [`BufferPool`]: how many frames, and how many bytes each
/// frame can hold. The product bounds the reader's paged memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Frame budget (at least 1). Frames are created as blocks are
    /// fetched, so a budget above the run's block count costs nothing.
    pub frames: usize,
    /// Bytes per frame; opening a file whose block size exceeds this fails
    /// with a pointed error instead of silently blowing the budget.
    pub frame_bytes: usize,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            frames: DEFAULT_POOL_FRAMES,
            frame_bytes: DEFAULT_FRAME_BYTES,
        }
    }
}

struct Frame {
    /// Block held by the frame, or [`EMPTY_FRAME`].
    block: u64,
    data: Vec<u8>,
    pins: u32,
}

/// A pool of block frames, at most its budget of them, with pin/unpin
/// and rank-priority replacement: a fetch takes an invalidated frame if
/// there is one, else a new frame while the budget allows, else the
/// *unpinned* frame holding the highest block number. Pinned frames are never
/// evicted, so a cursor can hold a decoded position across calls without
/// copying.
///
/// Block numbers are rank order, and a [`PagedCursor`] starts at rank 0
/// and only moves forward: a scan that needs block `b + 1` has already
/// needed block `b`, so the deepest resident block is the one the next
/// scan needs last, if at all. Evicting it keeps the leading blocks every
/// scan shares: with one scan at a time and `F` frames, the first `F - 1`
/// blocks stay resident and one frame cycles through the deeper ones.
/// Least-recently-used replacement keeps the previous scan's tail
/// instead, which the next scan reads last. Frames are created on first
/// use, so memory follows the blocks fetched, not the budget.
///
/// Lookups and replacement read an index, never the frames: a map from
/// each resident block to its frame, in block order, and a free list of
/// invalidated frames. A lookup is one map probe, and an eviction walks
/// the map from its deepest end past the pinned frames (one per live
/// cursor), so a block costs the same at any budget.
pub struct BufferPool {
    frames: Vec<Frame>,
    /// Resident block -> the frame holding it.
    by_block: BTreeMap<u64, usize>,
    /// Invalidated frames, taken before the pool grows.
    free: Vec<usize>,
    budget: usize,
    evictions: u64,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("frames", &self.budget)
            .field("resident", &self.resident())
            .finish_non_exhaustive()
    }
}

impl BufferPool {
    /// An empty pool with a budget of `config.frames.max(1)` frames.
    pub fn new(config: &PoolConfig) -> BufferPool {
        BufferPool {
            frames: Vec::new(),
            by_block: BTreeMap::new(),
            free: Vec::new(),
            budget: config.frames.max(1),
            evictions: 0,
        }
    }

    /// Total frame budget.
    pub fn frames(&self) -> usize {
        self.budget
    }

    /// Frames currently holding a block.
    pub fn resident(&self) -> usize {
        self.by_block.len()
    }

    /// The frame holding `block`, if resident.
    pub fn get(&self, block: u64) -> Option<usize> {
        self.by_block.get(&block).copied()
    }

    /// Claims a frame for `block`, which is not resident, evicting
    /// deterministically (see the type docs). The caller fills the frame
    /// via `frame_mut`.
    ///
    /// # Errors
    /// Fails when every frame is pinned.
    pub fn assign(&mut self, block: u64) -> io::Result<usize> {
        debug_assert!(block != EMPTY_FRAME && !self.by_block.contains_key(&block));
        let idx = if let Some(idx) = self.free.pop() {
            idx
        } else if self.frames.len() < self.budget {
            self.frames.push(Frame {
                block: EMPTY_FRAME,
                data: Vec::new(),
                pins: 0,
            });
            self.frames.len() - 1
        } else {
            let deepest = self
                .by_block
                .iter()
                .rev()
                .find(|&(_, &i)| self.frames[i].pins == 0)
                .map(|(&b, &i)| (b, i));
            let Some((evicted, idx)) = deepest else {
                return Err(io::Error::other(format!(
                    "buffer pool exhausted: all {} frames are pinned; raise --pool-frames",
                    self.budget
                )));
            };
            self.by_block.remove(&evicted);
            self.evictions += 1;
            idx
        };
        self.frames[idx].block = block;
        self.by_block.insert(block, idx);
        Ok(idx)
    }

    /// Resident blocks displaced so far to make room for a fetch — the
    /// price of a frame budget smaller than the working set.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Pins frame `idx`, which holds a block (a pinned frame is never
    /// evicted).
    pub fn pin(&mut self, idx: usize) {
        debug_assert_ne!(self.frames[idx].block, EMPTY_FRAME);
        self.frames[idx].pins += 1;
    }

    /// Releases one pin on frame `idx`.
    pub fn unpin(&mut self, idx: usize) {
        self.frames[idx].pins = self.frames[idx].pins.saturating_sub(1);
    }

    /// The bytes held by frame `idx`.
    pub fn frame(&self, idx: usize) -> &[u8] {
        &self.frames[idx].data
    }

    fn frame_mut(&mut self, idx: usize) -> &mut Vec<u8> {
        &mut self.frames[idx].data
    }

    /// Marks frame `idx`, which is unpinned, empty (used when a fill fails
    /// mid-way, so a half-written frame is never served as a hit).
    pub fn invalidate(&mut self, idx: usize) {
        let frame = &mut self.frames[idx];
        debug_assert_eq!(frame.pins, 0, "an invalidated frame is unpinned");
        if frame.block != EMPTY_FRAME {
            self.by_block.remove(&frame.block);
            frame.block = EMPTY_FRAME;
            self.free.push(idx);
        }
    }
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// A run file opened for paged reading: directory, rule
/// table and a [`BufferPool`] in memory, record data on disk. Hand out
/// scan cursors with [`PagedRun::cursor`]; each cursor pins the frame it
/// is positioned in, so concurrent cursors need at most one frame each.
/// The pool outlives the cursors: it keeps the run's leading blocks, the
/// ones every scan starts with, resident from one scan to the next, and
/// a block fetched again after its eviction is checksummed again.
pub struct PagedRun {
    file: RefCell<File>,
    pool: RefCell<BufferPool>,
    directory: Vec<BlockMeta>,
    rule_masses: Vec<f64>,
    rule_ranks: Vec<Vec<usize>>,
    tuples: u64,
    block_size: usize,
    /// Records per block.
    capacity: u64,
    data_start: u64,
    recorder: SharedRecorder,
}

impl std::fmt::Debug for PagedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedRun")
            .field("tuples", &self.tuples)
            .field("blocks", &self.directory.len())
            .field("block_size", &self.block_size)
            .field("rules", &self.rule_masses.len())
            .finish_non_exhaustive()
    }
}

impl PagedRun {
    /// Opens a run file and validates its header, rule layout and block
    /// directory (see [`PagedRun::open_recorded`]).
    ///
    /// # Errors
    /// Fails on IO errors or a malformed file; every validation error
    /// names the offending byte offset and expected-vs-found values.
    pub fn open(path: &Path, pool: PoolConfig) -> io::Result<PagedRun> {
        PagedRun::open_recorded(path, pool, Arc::new(Noop))
    }

    /// Like [`PagedRun::open`], recording access metrics (block reads and
    /// skips, decode bytes, pool hits/misses, file bytes) into `recorder`.
    /// When `recorder` carries a tracer ([`ptk_obs::Recorder::tracer`]),
    /// the open becomes a [`Stage::SourceOpen`] span carrying the run's
    /// tuple and rule counts, closed on error too so the trace stays
    /// balanced, and every block frame fetched from disk emits a
    /// [`Mark::FileRead`] instant — so a flame trace shows exactly which
    /// blocks the paged scan touched.
    ///
    /// The header's `tuples` and `rules` fields are *untrusted input*: no
    /// allocation is sized from them before a bound against the actual
    /// file length holds, and after the rule layout is read the exact file
    /// length (`prefix + blocks×block_size`) is enforced, so a truncated
    /// or inflated file is rejected at open instead of failing mid-scan.
    /// No checksum covers the rule masses, so each must lie in
    /// `[0, 1 + 1e-9]`, and the cursor fails on a rule member above its
    /// rule's mass.
    ///
    /// # Errors
    /// Fails on IO errors or a malformed file.
    pub fn open_recorded(
        path: &Path,
        pool: PoolConfig,
        recorder: SharedRecorder,
    ) -> io::Result<PagedRun> {
        let Some(tracer) = recorder.tracer() else {
            return PagedRun::read_layout(path, pool, recorder);
        };
        let _ = tracer.begin(Stage::SourceOpen);
        let opened = PagedRun::read_layout(path, pool, Arc::clone(&recorder));
        let payload = match &opened {
            Ok(run) => Payload::Source {
                tuples: run.tuples,
                rules: run.rule_masses.len() as u64,
            },
            Err(_) => Payload::None,
        };
        tracer.end(Stage::SourceOpen, payload);
        opened
    }

    /// Opens the run file and validates its header, rule layout and block
    /// directory; see [`PagedRun::open_recorded`].
    fn read_layout(
        path: &Path,
        pool: PoolConfig,
        recorder: SharedRecorder,
    ) -> io::Result<PagedRun> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut reader = BufReader::new(file);
        let mut header = [0u8; HEADER_BYTES as usize];
        reader.read_exact(&mut header).map_err(|_| {
            corrupt(
                0,
                "header",
                format!("at least {HEADER_BYTES} bytes"),
                file_len,
            )
        })?;
        let mut head = ByteBuf::from_vec(header.to_vec());
        let mut magic = [0u8; 8];
        head.copy_to_slice(&mut magic);
        if &magic == MAGIC_V1 {
            return Err(invalid(
                "flat run file (magic PTKRUN01): this format is no longer read — repack the \
                 table from its CSV with `ptk pack`",
            ));
        }
        if &magic != MAGIC_V2 {
            return Err(corrupt(
                0,
                "magic",
                String::from_utf8_lossy(MAGIC_V2),
                format!("{magic:02x?}"),
            ));
        }
        let block_size = head.get_u32_le();
        if !(MIN_BLOCK_BYTES..=MAX_BLOCK_BYTES).contains(&block_size) {
            return Err(corrupt(
                8,
                "block size",
                format!("{MIN_BLOCK_BYTES}..={MAX_BLOCK_BYTES}"),
                block_size,
            ));
        }
        if block_size as usize > pool.frame_bytes {
            return Err(invalid(format!(
                "run file block size {block_size} B exceeds the buffer-pool frame size {} B; \
                 raise the pool's frame budget or repack with a smaller --block-size",
                pool.frame_bytes
            )));
        }
        let tuples = head.get_u64_le();
        let rules = head.get_u32_le() as u64;
        // Coarse bounds before any allocation sized from untrusted counts:
        // the data section alone needs >= tuples×24 bytes and the rule
        // table rules×8, so both are capped by the file length.
        tuples
            .checked_mul(RECORD_BYTES as u64)
            .filter(|floor| floor.saturating_add(HEADER_BYTES) <= file_len)
            .ok_or_else(|| {
                corrupt(
                    12,
                    "record count",
                    format!(
                        "at most {} for a {file_len}-byte file",
                        file_len.saturating_sub(HEADER_BYTES) / RECORD_BYTES as u64
                    ),
                    tuples,
                )
            })?;
        let mass_bytes = rules
            .checked_mul(8)
            .filter(|b| b.saturating_add(HEADER_BYTES) <= file_len)
            .ok_or_else(|| {
                corrupt(
                    20,
                    "rule count",
                    format!(
                        "at most {} for a {file_len}-byte file",
                        file_len.saturating_sub(HEADER_BYTES) / 8
                    ),
                    rules,
                )
            })?;
        let mut rule_masses = Vec::with_capacity(rules as usize);
        for r in 0..rules {
            let at = HEADER_BYTES + r * 8;
            let mass = read_f64(&mut reader)
                .map_err(|_| corrupt(at, format!("rule {r} mass"), "8 bytes", "end of file"))?;
            rule_masses.push(check_rule_mass(at, r, mass)?);
        }
        let mut off = HEADER_BYTES + mass_bytes;
        let mut rule_ranks: Vec<Vec<usize>> = Vec::with_capacity(rules as usize);
        let mut total_members = 0u64;
        for r in 0..rules {
            let count = read_u32(&mut reader).map_err(|_| {
                corrupt(
                    off,
                    format!("rule {r} member count"),
                    "4 bytes",
                    "end of file",
                )
            })?;
            total_members += count as u64;
            if total_members > tuples {
                return Err(corrupt(
                    off,
                    format!("rule {r} member count"),
                    format!("cumulative members <= {tuples} records"),
                    count,
                ));
            }
            off += 4;
            let mut ranks = Vec::with_capacity(count as usize);
            let mut prev: Option<u64> = None;
            for m in 0..count {
                let rank = read_u64(&mut reader).map_err(|_| {
                    corrupt(
                        off,
                        format!("rule {r} member {m} rank"),
                        "8 bytes",
                        "end of file",
                    )
                })?;
                if rank >= tuples || prev.is_some_and(|p| rank <= p) {
                    return Err(corrupt(
                        off,
                        format!("rule {r} member {m} rank"),
                        format!("ascending and < {tuples}"),
                        rank,
                    ));
                }
                prev = Some(rank);
                off += 8;
                ranks.push(rank as usize);
            }
            rule_ranks.push(ranks);
        }
        let capacity = (block_size as usize / RECORD_BYTES) as u64;
        let blocks = tuples.div_ceil(capacity);
        let dir_start = off;
        let data_start = blocks
            .checked_mul(DIR_ENTRY_BYTES)
            .and_then(|dir| dir.checked_add(dir_start))
            .ok_or_else(|| corrupt(12, "record count", "an addressable directory", tuples))?;
        let expected = blocks
            .checked_mul(block_size as u64)
            .and_then(|data| data.checked_add(data_start))
            .ok_or_else(|| corrupt(12, "record count", "an addressable data section", tuples))?;
        if expected != file_len {
            return Err(corrupt(
                dir_start,
                "directory and data sections",
                format!(
                    "{} bytes ({blocks} blocks of {block_size} B + directory)",
                    expected - dir_start
                ),
                format!("{} bytes", file_len.saturating_sub(dir_start)),
            ));
        }
        let mut directory = Vec::with_capacity(blocks as usize);
        let mut prev_last: Option<f64> = None;
        for b in 0..blocks {
            let e = dir_start + b * DIR_ENTRY_BYTES;
            let entry_err = |_| {
                corrupt(
                    e,
                    format!("block {b} directory entry"),
                    "36 bytes",
                    "end of file",
                )
            };
            let records = read_u32(&mut reader).map_err(entry_err)?;
            let flags = read_u32(&mut reader).map_err(entry_err)?;
            let max_prob = read_f64(&mut reader).map_err(entry_err)?;
            let score_first = read_f64(&mut reader).map_err(entry_err)?;
            let score_last = read_f64(&mut reader).map_err(entry_err)?;
            let crc = read_u32(&mut reader).map_err(entry_err)?;
            let expect_records = if b + 1 == blocks {
                tuples - (blocks - 1) * capacity
            } else {
                capacity
            };
            if records as u64 != expect_records {
                return Err(corrupt(
                    e,
                    format!("block {b} record count"),
                    expect_records,
                    records,
                ));
            }
            if flags & !KNOWN_FLAGS != 0 {
                return Err(corrupt(
                    e + 4,
                    format!("block {b} flags"),
                    "bits 0-1 only",
                    flags,
                ));
            }
            if !(max_prob > 0.0 && max_prob <= 1.0) {
                return Err(corrupt(
                    e + 8,
                    format!("block {b} max probability"),
                    "a value in (0, 1]",
                    max_prob,
                ));
            }
            // NaN-safe: a NaN score in the directory fails both checks.
            if score_first.is_nan() || score_last.is_nan() || score_first < score_last {
                return Err(corrupt(
                    e + 16,
                    format!("block {b} score range"),
                    format!("score_first >= score_last {score_last}"),
                    score_first,
                ));
            }
            if let Some(p) = prev_last {
                if score_first > p {
                    return Err(corrupt(
                        e + 16,
                        format!("block {b} rank range"),
                        format!("score_first <= previous block's last score {p}"),
                        score_first,
                    ));
                }
            }
            prev_last = Some(score_last);
            directory.push(BlockMeta {
                records,
                rule_free: flags & FLAG_RULE_FREE != 0,
                rule_closed: flags & FLAG_RULE_CLOSED != 0,
                max_prob,
                score_first,
                score_last,
                crc,
            });
        }
        // The block-skip path absorbs a rule-free block's records as
        // independents, so the flag must not cover a rank the layout lists.
        for (r, ranks) in rule_ranks.iter().enumerate() {
            for &rank in ranks {
                let b = rank as u64 / capacity;
                let meta = &directory[b as usize];
                if meta.rule_free {
                    return Err(corrupt(
                        dir_start + b * DIR_ENTRY_BYTES + 4,
                        format!("block {b} flags"),
                        format!("no rule-free bit, as rule {r} lists rank {rank} in the block"),
                        meta.flags(),
                    ));
                }
            }
        }
        recorder.add(counters::FILE_OPENS, 1);
        recorder.add(counters::FILE_BYTES_READ, data_start);
        Ok(PagedRun {
            file: RefCell::new(reader.into_inner()),
            pool: RefCell::new(BufferPool::new(&pool)),
            directory,
            rule_masses,
            rule_ranks,
            tuples,
            block_size: block_size as usize,
            capacity,
            data_start,
            recorder,
        })
    }

    /// Total records in the run.
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Bytes per block frame.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The block directory, in rank order.
    pub fn directory(&self) -> &[BlockMeta] {
        &self.directory
    }

    /// Total membership mass of rule `r`, if the run knows it.
    pub fn rule_mass(&self, rule: RuleKey) -> Option<f64> {
        self.rule_masses.get(rule.0 as usize).copied()
    }

    /// Number of rule keys in the run's rule table.
    pub fn rules(&self) -> usize {
        self.rule_masses.len()
    }

    /// A fresh scan cursor positioned before the first (highest-score)
    /// record.
    pub fn cursor(&self) -> PagedCursor<'_> {
        PagedCursor {
            run: self,
            rank: 0,
            last_score: f64::INFINITY,
            pinned: None,
            dead: false,
            error: None,
        }
    }

    /// Fetches block `b` into the pool (or finds it resident), verifies
    /// its checksum on a miss, pins the frame, and returns the frame
    /// index. The caller owns one unpin.
    fn load_pinned(&self, b: u64) -> io::Result<usize> {
        let mut pool = self.pool.borrow_mut();
        if let Some(idx) = pool.get(b) {
            self.recorder.add(counters::POOL_HIT, 1);
            self.recorder.add(counters::POOL_PIN, 1);
            pool.pin(idx);
            return Ok(idx);
        }
        self.recorder.add(counters::POOL_MISS, 1);
        let before = pool.evictions();
        let idx = pool.assign(b)?;
        let displaced = pool.evictions() - before;
        if displaced > 0 {
            self.recorder.add(counters::POOL_EVICT, displaced);
        }
        let off = self.data_start + b * self.block_size as u64;
        let fill = (|| -> io::Result<()> {
            let mut file = self.file.borrow_mut();
            file.seek(SeekFrom::Start(off))?;
            let frame = pool.frame_mut(idx);
            frame.clear();
            frame.resize(self.block_size, 0);
            file.read_exact(frame).map_err(|_| {
                corrupt(
                    off,
                    format!("block {b}"),
                    format!("{} bytes", self.block_size),
                    "truncated block",
                )
            })
        })();
        if let Err(e) = fill {
            pool.invalidate(idx);
            return Err(e);
        }
        let meta = &self.directory[b as usize];
        let payload = meta.records as usize * RECORD_BYTES;
        let found = crc32(&pool.frame(idx)[..payload]);
        if found != meta.crc {
            pool.invalidate(idx);
            return Err(corrupt(
                off,
                format!("block {b} checksum"),
                format!("{:#010x}", meta.crc),
                format!("{found:#010x}"),
            ));
        }
        self.recorder
            .add(counters::FILE_BYTES_READ, self.block_size as u64);
        if let Some(t) = self.recorder.tracer() {
            t.instant(Mark::FileRead {
                bytes: self.block_size as u64,
            });
        }
        self.recorder.add(counters::POOL_PIN, 1);
        pool.pin(idx);
        Ok(idx)
    }
}

/// A scan cursor over a [`PagedRun`] — the paged [`RankedSource`]. The
/// cursor keeps the frame it is positioned in pinned across calls; frames
/// are fetched (and checksummed) lazily as the scan crosses block
/// boundaries, and [`RankedSource::skip_block`] decodes only the 8-byte
/// probability stripe of blocks the executor has already decided to prune.
pub struct PagedCursor<'r> {
    run: &'r PagedRun,
    /// Global rank of the next record to consume.
    rank: u64,
    last_score: f64,
    /// `(block, frame index)` of the pinned frame, if any.
    pinned: Option<(u64, usize)>,
    /// A decode or IO error ends the stream permanently (use
    /// [`PagedCursor::try_next`] to observe errors as they happen, or
    /// [`PagedCursor::take_error`] after a scan).
    dead: bool,
    /// The error that killed the stream, held for [`PagedCursor::take_error`].
    error: Option<io::Error>,
}

impl std::fmt::Debug for PagedCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedCursor")
            .field("rank", &self.rank)
            .field("tuples", &self.run.tuples)
            .finish_non_exhaustive()
    }
}

impl Drop for PagedCursor<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

impl<'r> PagedCursor<'r> {
    fn release(&mut self) {
        if let Some((_, idx)) = self.pinned.take() {
            self.run.pool.borrow_mut().unpin(idx);
        }
    }

    /// Pins the frame for block `b`, releasing the previous pin.
    fn ensure_frame(&mut self, b: u64) -> io::Result<usize> {
        if let Some((held, idx)) = self.pinned {
            if held == b {
                return Ok(idx);
            }
            self.release();
        }
        let idx = self.run.load_pinned(b)?;
        self.pinned = Some((b, idx));
        Ok(idx)
    }

    /// The error that ended the stream, if any. The infallible
    /// [`RankedSource`] methods (`next_ranked`, `skip_block`) report an IO
    /// or corruption error as end-of-stream; callers that must not
    /// mistake a truncated scan for a clean early stop check here after
    /// the scan.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Fallible form of [`RankedSource::next_ranked`]: decoding errors are
    /// surfaced instead of ending the stream.
    ///
    /// # Errors
    /// Fails on IO errors, checksum mismatches, records contradicting
    /// their block's directory entry (probability above the block maximum,
    /// score outside the block's range or out of order, a rule key missing
    /// from the rule layout), or a rule member above its rule's mass.
    pub fn try_next(&mut self) -> io::Result<Option<SourceTuple>> {
        if self.dead || self.rank >= self.run.tuples {
            return Ok(None);
        }
        let b = self.rank / self.run.capacity;
        let slot = (self.rank % self.run.capacity) as usize;
        let idx = self.ensure_frame(b)?;
        if slot == 0 {
            // First record decoded from this block: the block is "read"
            // (fully decoded), as opposed to "skipped" (stripe-decoded).
            self.run.recorder.add(counters::BLOCK_READ, 1);
        }
        let meta = &self.run.directory[b as usize];
        let mut rec = [0u8; RECORD_BYTES];
        rec.copy_from_slice(
            &self.run.pool.borrow().frame(idx)[slot * RECORD_BYTES..(slot + 1) * RECORD_BYTES],
        );
        let rec_off =
            self.run.data_start + b * self.run.block_size as u64 + (slot * RECORD_BYTES) as u64;
        let id = u32::from_le_bytes(rec[0..4].try_into().unwrap());
        let rule = u32::from_le_bytes(rec[4..8].try_into().unwrap());
        let score = f64::from_le_bytes(rec[8..16].try_into().unwrap());
        let prob = f64::from_le_bytes(rec[16..24].try_into().unwrap());
        if !(prob > 0.0 && prob <= 1.0) {
            return Err(corrupt(
                rec_off + 16,
                format!("record {} probability", self.rank),
                "a value in (0, 1]",
                prob,
            ));
        }
        // Both sides were validated non-NaN (above, and at open).
        if prob > meta.max_prob {
            return Err(corrupt(
                rec_off + 16,
                format!("record {} probability", self.rank),
                format!("<= block {b} max {}", meta.max_prob),
                prob,
            ));
        }
        if score > self.last_score || !(score <= meta.score_first && score >= meta.score_last) {
            return Err(corrupt(
                rec_off + 8,
                format!("record {} score", self.rank),
                format!(
                    "non-increasing within block {b} range [{}, {}]",
                    meta.score_last, meta.score_first
                ),
                score,
            ));
        }
        if rule != NO_RULE {
            let listed = self
                .run
                .rule_ranks
                .get(rule as usize)
                .is_some_and(|ranks| ranks.binary_search(&(self.rank as usize)).is_ok());
            if !listed {
                return Err(corrupt(
                    rec_off + 4,
                    format!("record {} rule", self.rank),
                    format!("a rule whose layout lists rank {}", self.rank),
                    rule,
                ));
            }
            check_member(
                rec_off + 16,
                self.rank,
                rule,
                prob,
                self.run.rule_masses[rule as usize],
            )?;
        }
        self.last_score = score;
        self.rank += 1;
        self.run.recorder.add(counters::FILE_RECORDS, 1);
        self.run
            .recorder
            .add(counters::BLOCK_DECODE_BYTES, RECORD_BYTES as u64);
        Ok(Some(SourceTuple {
            id: TupleId::new(id as usize),
            score,
            prob,
            rule: (rule != NO_RULE).then_some(RuleKey(rule)),
        }))
    }

    /// Fallible form of [`RankedSource::skip_block`]: consumes up to `max`
    /// records of the current block, decoding *only* the probability
    /// stripe (8 of 24 bytes per record) and appending it to `probs`.
    ///
    /// # Errors
    /// Fails on IO errors, checksum mismatches, or a probability outside
    /// `(0, 1]` / above the block's directory maximum. On error, `probs`
    /// is left truncated to its length at entry.
    pub fn try_skip(&mut self, max: usize, probs: &mut Vec<f64>) -> io::Result<usize> {
        if self.dead || self.rank >= self.run.tuples || max == 0 {
            return Ok(0);
        }
        let base = probs.len();
        let b = self.rank / self.run.capacity;
        let slot = (self.rank % self.run.capacity) as usize;
        let meta = self.run.directory[b as usize];
        let take = max.min(meta.records as usize - slot);
        let idx = self.ensure_frame(b)?;
        if slot == 0 {
            self.run.recorder.add(counters::BLOCK_SKIP, 1);
        }
        {
            let pool = self.run.pool.borrow();
            let frame = pool.frame(idx);
            for s in slot..slot + take {
                let off = s * RECORD_BYTES + 16;
                let prob = f64::from_le_bytes(frame[off..off + 8].try_into().unwrap());
                if !(prob > 0.0 && prob <= 1.0 && prob <= meta.max_prob) {
                    probs.truncate(base);
                    let rec_off = self.run.data_start + b * self.run.block_size as u64 + off as u64;
                    return Err(corrupt(
                        rec_off,
                        format!("record {} probability", self.rank + (s - slot) as u64),
                        format!("a value in (0, 1] and <= block {b} max {}", meta.max_prob),
                        prob,
                    ));
                }
                probs.push(prob);
            }
        }
        self.rank += take as u64;
        if slot + take == meta.records as usize {
            // The block is exhausted without decoding scores; its directory
            // bound keeps the cursor's order check exact for what follows.
            self.last_score = meta.score_last;
        }
        self.run
            .recorder
            .add(counters::BLOCK_DECODE_BYTES, 8 * take as u64);
        Ok(take)
    }
}

impl RankedSource for PagedCursor<'_> {
    /// Streams the next record. IO and corruption errors end the stream
    /// (use [`PagedCursor::try_next`] to observe them).
    fn next_ranked(&mut self) -> Option<SourceTuple> {
        match self.try_next() {
            Ok(t) => t,
            Err(e) => {
                self.dead = true;
                self.error = Some(e);
                None
            }
        }
    }

    fn rule_mass(&self, rule: RuleKey) -> Option<f64> {
        self.run.rule_masses.get(rule.0 as usize).copied()
    }

    fn rule_len(&self, rule: RuleKey) -> Option<usize> {
        let ranks = self.run.rule_ranks.get(rule.0 as usize)?;
        (!ranks.is_empty()).then_some(ranks.len())
    }

    fn rule_member_rank(&self, rule: RuleKey, member: usize) -> Option<usize> {
        self.run
            .rule_ranks
            .get(rule.0 as usize)?
            .get(member)
            .copied()
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.run.tuples as usize)
    }

    fn block_bounds(&self) -> Option<BlockBounds> {
        if self.dead || self.rank >= self.run.tuples {
            return None;
        }
        let b = self.rank / self.run.capacity;
        let slot = (self.rank % self.run.capacity) as usize;
        let meta = &self.run.directory[b as usize];
        Some(BlockBounds {
            records: meta.records as usize - slot,
            max_prob: meta.max_prob,
            rule_free: meta.rule_free,
        })
    }

    fn skip_block(&mut self, max: usize, probs: &mut Vec<f64>) -> usize {
        match self.try_skip(max, probs) {
            Ok(n) => n,
            Err(e) => {
                self.dead = true;
                self.error = Some(e);
                0
            }
        }
    }

    fn retrieved(&self) -> usize {
        self.rank as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct TempFile(PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
    fn temp() -> TempFile {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        TempFile(
            std::env::temp_dir().join(format!("ptk-block-test-{}-{n}.run", std::process::id())),
        )
    }

    type Row = (f64, f64, Option<u32>);

    fn panda_rows() -> Vec<Row> {
        vec![
            (25.0, 0.3, None),
            (21.0, 0.4, Some(0)),
            (13.0, 0.5, Some(0)),
            (12.0, 1.0, None),
            (17.0, 0.8, Some(1)),
            (11.0, 0.2, Some(1)),
        ]
    }

    fn small_pool() -> PoolConfig {
        PoolConfig {
            frames: 2,
            frame_bytes: DEFAULT_FRAME_BYTES,
        }
    }

    /// The byte-at-a-time CRC-32 the sliced [`crc32`] must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// The whole-buffer form of [`write_run_blocked`]: the data section is
    /// built in memory, checksummed with [`crc32_bytewise`], and written
    /// after the header and directory. The streaming writer must write
    /// exactly its bytes.
    fn write_run_blocked_whole(path: &Path, rows: &[Row], block_size: u32) -> io::Result<()> {
        if !(MIN_BLOCK_BYTES..=MAX_BLOCK_BYTES).contains(&block_size) {
            return Err(invalid("block size"));
        }
        let mut rule_count = 0u32;
        for (_, prob, rule) in rows {
            if !(*prob > 0.0 && *prob <= 1.0) {
                return Err(invalid("membership probability"));
            }
            if let Some(r) = rule {
                if *r == NO_RULE {
                    return Err(invalid("rule key u32::MAX is reserved"));
                }
                rule_count = rule_count.max(r + 1);
            }
        }
        let mut masses = vec![0.0f64; rule_count as usize];
        for (_, prob, rule) in rows {
            if let Some(r) = rule {
                masses[*r as usize] += prob;
            }
        }
        if masses.iter().any(|&m| m > MAX_RULE_MASS) {
            return Err(invalid("rule mass"));
        }
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| rows[b].0.total_cmp(&rows[a].0).then(a.cmp(&b)));
        let mut rule_ranks: Vec<Vec<u64>> = vec![Vec::new(); rule_count as usize];
        for (rank, &i) in order.iter().enumerate() {
            if let Some(r) = rows[i].2 {
                rule_ranks[r as usize].push(rank as u64);
            }
        }
        let capacity = block_size as usize / RECORD_BYTES;
        let blocks = rows.len().div_ceil(capacity);
        let mut spanned = vec![false; blocks];
        for ranks in &rule_ranks {
            if let (Some(&first), Some(&last)) = (ranks.first(), ranks.last()) {
                for flag in spanned
                    .iter_mut()
                    .take(last as usize / capacity)
                    .skip(first as usize / capacity)
                {
                    *flag = true;
                }
            }
        }
        let mut data = vec![0u8; blocks * block_size as usize];
        let mut metas: Vec<BlockMeta> = Vec::with_capacity(blocks);
        for b in 0..blocks {
            let lo = b * capacity;
            let hi = (lo + capacity).min(rows.len());
            let frame = &mut data[b * block_size as usize..(b + 1) * block_size as usize];
            let mut max_prob = 0.0f64;
            let mut rule_free = true;
            for (slot, rank) in (lo..hi).enumerate() {
                let i = order[rank];
                let (score, prob, rule) = rows[i];
                let off = slot * RECORD_BYTES;
                frame[off..off + 4].copy_from_slice(&(i as u32).to_le_bytes());
                frame[off + 4..off + 8].copy_from_slice(&rule.unwrap_or(NO_RULE).to_le_bytes());
                frame[off + 8..off + 16].copy_from_slice(&score.to_le_bytes());
                frame[off + 16..off + 24].copy_from_slice(&prob.to_le_bytes());
                max_prob = max_prob.max(prob);
                rule_free &= rule.is_none();
            }
            let records = hi - lo;
            metas.push(BlockMeta {
                records: records as u32,
                rule_free,
                rule_closed: !spanned[b],
                max_prob,
                score_first: rows[order[lo]].0,
                score_last: rows[order[hi - 1]].0,
                crc: crc32_bytewise(&frame[..records * RECORD_BYTES]),
            });
        }
        let mut buf = ByteBuf::new();
        buf.put_slice(MAGIC_V2);
        buf.put_u32_le(block_size);
        buf.put_u64_le(rows.len() as u64);
        buf.put_u32_le(rule_count);
        for &m in &masses {
            buf.put_f64_le(m);
        }
        for ranks in &rule_ranks {
            buf.put_u32_le(ranks.len() as u32);
            for &r in ranks {
                buf.put_u64_le(r);
            }
        }
        for m in &metas {
            buf.put_u32_le(m.records);
            buf.put_u32_le(m.flags());
            buf.put_f64_le(m.max_prob);
            buf.put_f64_le(m.score_first);
            buf.put_f64_le(m.score_last);
            buf.put_u32_le(m.crc);
        }
        buf.put_slice(&data);
        std::fs::write(path, buf.as_slice())
    }

    /// A seeded table: `head` rows with high scores, grouped into rules of
    /// two to four members, then `tail` rule-free rows with low scores
    /// and probabilities. Scores repeat, so ties reach the id order.
    fn seeded_rows(seed: u64, head: usize, tail: usize) -> Vec<Row> {
        use ptk_core::rng::{RngCore, SeedableRng, SplitMix64};
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut unit = move || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let mut rows = Vec::with_capacity(head + tail);
        let mut rule = 0u32;
        while rows.len() < head {
            let members = 2 + (unit() * 3.0) as usize;
            for _ in 0..members.min(head - rows.len()) {
                let score = 1000.0 + (unit() * 64.0).floor();
                let prob = (1.0 - unit()) / members as f64;
                let member_rule = (unit() < 0.8).then_some(rule);
                rows.push((score, prob, member_rule));
            }
            rule += 1;
        }
        for _ in 0..tail {
            let score = (unit() * 900.0).floor() / 4.0;
            rows.push((score, (1.0 - unit()) * 0.2, None));
        }
        rows
    }

    /// FNV-1a over a file's bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value; it is
        // shorter than one 16-byte step.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Two steps and an 11-byte tail; then 256 steps and no tail (zlib's
        // values).
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        let ramp: Vec<u8> = (0..16).flat_map(|_| 0..=255u8).collect();
        assert_eq!(crc32(&ramp), 0xA291_2082);
    }

    #[test]
    fn sliced_crc32_equals_the_byte_loop_at_every_length_and_offset() {
        use ptk_core::rng::{RngCore, SeedableRng, SplitMix64};
        let mut rng = SplitMix64::seed_from_u64(0x5EED_C3C3);
        let bytes: Vec<u8> = (0..(64 << 10) + 16).map(|_| rng.next_u64() as u8).collect();
        let lengths = (0..=1100).chain((0..200).map(|_| (rng.next_u64() % (64 << 10)) as usize));
        for len in lengths {
            for start in 0..16 {
                let s = &bytes[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} at offset {start}");
            }
        }
    }

    #[test]
    fn every_single_byte_flip_changes_the_checksum() {
        let block: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        let clean = crc32(&block);
        let mut flipped = block.clone();
        for pos in 0..block.len() {
            flipped[pos] ^= 0xFF;
            assert_ne!(crc32(&flipped), clean, "flip at byte {pos}");
            flipped[pos] ^= 0xFF;
        }
    }

    #[test]
    fn streaming_writer_writes_the_whole_buffer_writers_bytes() {
        let tables: [(&str, Vec<Row>); 4] = [
            ("empty", Vec::new()),
            ("one record", vec![(3.5, 0.25, Some(0))]),
            ("rule-spanning", seeded_rows(7, 600, 0)),
            ("strong head, long tail", seeded_rows(8, 40, 3000)),
        ];
        let (streamed, whole) = (temp(), temp());
        for (name, rows) in &tables {
            for bs in [24, 48, 100, 1024, 4096, 65536] {
                write_run_blocked(&streamed.0, rows, bs).unwrap();
                write_run_blocked_whole(&whole.0, rows, bs).unwrap();
                let got = std::fs::read(&streamed.0).unwrap();
                assert!(
                    got == std::fs::read(&whole.0).unwrap(),
                    "{name} at {bs} B blocks: {} bytes differ from the whole-buffer writer's",
                    got.len()
                );
            }
        }
    }

    /// The length and digest were recorded from the whole-buffer writer
    /// before the writer streamed, so the writer and its test reference
    /// cannot drift together.
    #[test]
    fn packed_seeded_table_keeps_its_digest() {
        let f = temp();
        write_run_blocked(&f.0, &seeded_rows(11, 300, 2700), 1024).unwrap();
        let bytes = std::fs::read(&f.0).unwrap();
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (79_496, 0x015C_C4CC_5837_5814)
        );
    }

    #[test]
    fn roundtrip_preserves_rank_order_across_block_sizes() {
        for bs in [MIN_BLOCK_BYTES, 48, 1024, DEFAULT_BLOCK_BYTES] {
            let f = temp();
            write_run_blocked(&f.0, &panda_rows(), bs).unwrap();
            let run = PagedRun::open(&f.0, small_pool()).unwrap();
            assert_eq!(run.tuples(), 6);
            assert!((run.rule_mass(RuleKey(0)).unwrap() - 0.9).abs() < 1e-12);
            assert!((run.rule_mass(RuleKey(1)).unwrap() - 1.0).abs() < 1e-12);
            let mut cur = run.cursor();
            let all: Vec<SourceTuple> = std::iter::from_fn(|| cur.next_ranked()).collect();
            let scores: Vec<f64> = all.iter().map(|t| t.score).collect();
            assert_eq!(scores, vec![25.0, 21.0, 17.0, 13.0, 12.0, 11.0], "bs={bs}");
            let ids: Vec<usize> = all.iter().map(|t| t.id.index()).collect();
            assert_eq!(ids, vec![0, 1, 4, 2, 3, 5]);
            assert_eq!(all[1].rule, Some(RuleKey(0)));
            assert_eq!(all[0].rule, None);
            assert_eq!(cur.retrieved(), 6);
        }
    }

    #[test]
    fn directory_carries_block_bounds() {
        let f = temp();
        // 48-byte blocks: two records per block, three blocks.
        write_run_blocked(&f.0, &panda_rows(), 48).unwrap();
        let run = PagedRun::open(&f.0, small_pool()).unwrap();
        let dir = run.directory();
        assert_eq!(dir.len(), 3);
        assert_eq!(dir.iter().map(|m| m.records).collect::<Vec<_>>(), [2, 2, 2]);
        assert_eq!(dir[0].max_prob, 0.4);
        assert_eq!(dir[1].max_prob, 0.8);
        assert_eq!(dir[2].max_prob, 1.0);
        assert_eq!(dir[0].score_first, 25.0);
        assert_eq!(dir[0].score_last, 21.0);
        assert_eq!(dir[2].score_last, 11.0);
        assert!(!dir[0].rule_free && !dir[1].rule_free && !dir[2].rule_free);
        // Rule 0 spans ranks 1..=3 (blocks 0-1), rule 1 spans 2..=5
        // (blocks 1-2): only the trailing block is rule-closed.
        assert_eq!(
            dir.iter().map(|m| m.rule_closed).collect::<Vec<_>>(),
            [false, false, true]
        );
    }

    #[test]
    fn rule_layout_round_trips() {
        let f = temp();
        write_run_blocked(&f.0, &panda_rows(), 48).unwrap();
        let run = PagedRun::open(&f.0, small_pool()).unwrap();
        let cur = run.cursor();
        assert_eq!(cur.rule_len(RuleKey(0)), Some(2));
        assert_eq!(cur.rule_member_rank(RuleKey(0), 0), Some(1));
        assert_eq!(cur.rule_member_rank(RuleKey(0), 1), Some(3));
        assert_eq!(cur.rule_member_rank(RuleKey(1), 0), Some(2));
        assert_eq!(cur.rule_member_rank(RuleKey(1), 1), Some(5));
        assert_eq!(cur.rule_member_rank(RuleKey(1), 2), None);
        assert_eq!(cur.rule_len(RuleKey(7)), None);
        assert_eq!(cur.len_hint(), Some(6));
    }

    #[test]
    fn skip_block_decodes_only_the_probability_stripe() {
        use ptk_obs::Metrics;
        let f = temp();
        let rows: Vec<(f64, f64, Option<u32>)> =
            (0..100).map(|i| (1000.0 - i as f64, 0.25, None)).collect();
        // 240-byte blocks: 10 records per block, 10 blocks.
        write_run_blocked(&f.0, &rows, 240).unwrap();
        let metrics = Arc::new(Metrics::new());
        let run =
            PagedRun::open_recorded(&f.0, small_pool(), Arc::clone(&metrics) as SharedRecorder)
                .unwrap();
        let mut cur = run.cursor();
        // Decode the first block fully, then stripe-skip the second.
        for _ in 0..10 {
            cur.next_ranked().unwrap();
        }
        let bounds = cur.block_bounds().unwrap();
        assert_eq!(bounds.records, 10);
        assert_eq!(bounds.max_prob, 0.25);
        assert!(bounds.rule_free);
        let mut probs = Vec::new();
        assert_eq!(cur.skip_block(4, &mut probs), 4, "capped by max");
        assert_eq!(cur.block_bounds().unwrap().records, 6, "mid-block bounds");
        assert_eq!(cur.skip_block(100, &mut probs), 6, "capped by the block");
        assert_eq!(probs, vec![0.25; 10]);
        assert_eq!(cur.retrieved(), 20);
        // The scan continues exactly after the skipped block.
        let next = cur.next_ranked().unwrap();
        assert_eq!(next.score, 1000.0 - 20.0);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(counters::BLOCK_READ), 2);
        assert_eq!(snap.counter(counters::BLOCK_SKIP), 1);
        // 11 full decodes (24 B) + 10 stripe decodes (8 B).
        assert_eq!(snap.counter(counters::BLOCK_DECODE_BYTES), 11 * 24 + 10 * 8);
    }

    #[test]
    fn pool_hits_and_misses_are_counted() {
        use ptk_obs::Metrics;
        let f = temp();
        write_run_blocked(&f.0, &panda_rows(), 48).unwrap();
        let metrics = Arc::new(Metrics::new());
        let run = PagedRun::open_recorded(
            &f.0,
            PoolConfig {
                frames: 4,
                frame_bytes: DEFAULT_FRAME_BYTES,
            },
            Arc::clone(&metrics) as SharedRecorder,
        )
        .unwrap();
        let mut cur = run.cursor();
        while cur.next_ranked().is_some() {}
        drop(cur);
        // One miss per block; the pinned frame serves every record after
        // the first in a block without a pool lookup.
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(counters::POOL_MISS), 3);
        assert_eq!(snap.counter(counters::POOL_HIT), 0);
        // The file counters: one open, six records, and the bytes before
        // the data section (header 24 + masses 16 + layout 40 + directory
        // 108) plus three 48-byte blocks.
        assert_eq!(snap.counter(counters::FILE_OPENS), 1);
        assert_eq!(snap.counter(counters::FILE_RECORDS), 6);
        assert_eq!(snap.counter(counters::FILE_BYTES_READ), 188 + 3 * 48);
        // A second scan finds all three blocks resident.
        let mut again = run.cursor();
        while again.next_ranked().is_some() {}
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(counters::POOL_MISS), 3);
        assert_eq!(snap.counter(counters::POOL_HIT), 3);
    }

    /// A case where rank priority and least-recently-used replacement
    /// disagree: block 11 was used last, block 10 first, and rank priority
    /// still evicts block 11, the deeper one.
    #[test]
    fn eviction_takes_the_deepest_block_not_the_least_recent() {
        let mut pool = BufferPool::new(&PoolConfig {
            frames: 2,
            frame_bytes: 64,
        });
        let a = pool.assign(10).unwrap();
        let b = pool.assign(11).unwrap();
        assert_ne!(a, b, "empty frames fill before any eviction");
        assert_eq!(pool.get(11), Some(b));
        let c = pool.assign(12).unwrap();
        assert_eq!(c, b, "the frame of the deepest block is evicted");
        assert_eq!(pool.get(11), None, "evicted block is gone");
        assert_eq!(pool.get(10), Some(a), "the leading block survives");
        assert_eq!(pool.evictions(), 1);
    }

    /// Frames are created on first use: a budget far above the blocks
    /// fetched allocates only the frames they take, and an invalidated
    /// frame is reused before the pool grows.
    #[test]
    fn frames_are_created_as_blocks_arrive() {
        let mut pool = BufferPool::new(&PoolConfig {
            frames: usize::MAX,
            frame_bytes: 64,
        });
        assert_eq!((pool.frames(), pool.resident()), (usize::MAX, 0));
        for block in 0..5 {
            assert_eq!(pool.assign(block).unwrap(), block as usize);
        }
        pool.invalidate(2);
        assert_eq!(pool.assign(7).unwrap(), 2, "the invalidated frame first");
        assert_eq!(pool.assign(8).unwrap(), 5, "then a new frame");
        assert_eq!((pool.frames.len(), pool.resident()), (6, 6));
        assert_eq!(pool.evictions(), 0);
    }

    /// A second full scan finds the first `frames - 1` blocks resident:
    /// the deepest block is evicted each time, so the leading blocks
    /// survive the first scan's tail.
    #[test]
    fn a_second_scan_hits_the_resident_prefix() {
        use ptk_obs::Metrics;
        let f = temp();
        let rows: Vec<Row> = (0..50).map(|i| (50.0 - i as f64, 0.5, None)).collect();
        // 48-byte blocks: two records per block, 25 blocks.
        write_run_blocked(&f.0, &rows, 48).unwrap();
        let metrics = Arc::new(Metrics::new());
        let run = PagedRun::open_recorded(
            &f.0,
            PoolConfig {
                frames: 8,
                frame_bytes: DEFAULT_FRAME_BYTES,
            },
            Arc::clone(&metrics) as SharedRecorder,
        )
        .unwrap();
        let scan = || {
            let before = metrics.snapshot();
            let mut cur = run.cursor();
            assert_eq!(std::iter::from_fn(|| cur.next_ranked()).count(), 50);
            let after = metrics.snapshot();
            let delta = |name| after.counter(name) - before.counter(name);
            (delta(counters::POOL_HIT), delta(counters::POOL_MISS))
        };
        assert_eq!(scan(), (0, 25));
        assert_eq!(scan(), (7, 18));
        assert_eq!(scan(), (7, 18));
        // 25 + 18 + 18 misses, of which the first 8 filled empty frames.
        assert_eq!(metrics.snapshot().counter(counters::POOL_EVICT), 53);
    }

    /// A block evicted after a clean scan is read and checksummed again on
    /// its next fetch: a byte flipped on disk since then fails that scan at
    /// the block.
    #[test]
    fn a_refetched_block_is_checksummed_again() {
        let f = temp();
        let rows: Vec<Row> = (0..50).map(|i| (50.0 - i as f64, 0.5, None)).collect();
        write_run_blocked(&f.0, &rows, 48).unwrap();
        let len = std::fs::metadata(&f.0).unwrap().len();
        let run = PagedRun::open(
            &f.0,
            PoolConfig {
                frames: 8,
                frame_bytes: DEFAULT_FRAME_BYTES,
            },
        )
        .unwrap();
        let mut cur = run.cursor();
        assert_eq!(std::iter::from_fn(|| cur.next_ranked()).count(), 50);
        assert!(cur.take_error().is_none());
        drop(cur);
        // Blocks 0-6 and 24 are resident; flip a probability byte of block
        // 10's first record, which the next scan must fetch again.
        let at = len - 25 * 48 + 10 * 48 + 16;
        let mut file = std::fs::OpenOptions::new().write(true).open(&f.0).unwrap();
        file.seek(SeekFrom::Start(at)).unwrap();
        file.write_all(&[0xFF]).unwrap();
        let mut cur = run.cursor();
        assert_eq!(std::iter::from_fn(|| cur.next_ranked()).count(), 20);
        let err = cur.take_error().expect("a checksum error").to_string();
        assert!(err.contains("block 10 checksum"), "{err}");
    }

    /// The pool before its index: every lookup and every replacement scans
    /// the created frames. [`BufferPool`] must make the same choices.
    struct LinearPool {
        /// `(block, pins)` per created frame.
        frames: Vec<(u64, u32)>,
        budget: usize,
        evictions: u64,
    }

    impl LinearPool {
        fn get(&self, block: u64) -> Option<usize> {
            self.frames.iter().position(|f| f.0 == block)
        }

        fn assign(&mut self, block: u64) -> Option<usize> {
            // `EMPTY_FRAME` is the highest block number, so an invalidated
            // frame is taken ahead of every resident one.
            let deepest = self
                .frames
                .iter()
                .enumerate()
                .filter(|(_, f)| f.1 == 0)
                .max_by_key(|(_, f)| f.0)
                .map(|(i, f)| (i, f.0));
            let idx = match deepest {
                Some((i, EMPTY_FRAME)) => i,
                _ if self.frames.len() < self.budget => {
                    self.frames.push((EMPTY_FRAME, 0));
                    self.frames.len() - 1
                }
                Some((i, _)) => {
                    self.evictions += 1;
                    i
                }
                None => return None,
            };
            self.frames[idx].0 = block;
            Some(idx)
        }

        /// Resident blocks with their pins, in block order.
        fn resident(&self) -> Vec<(u64, u32)> {
            let mut held: Vec<_> = self
                .frames
                .iter()
                .copied()
                .filter(|f| f.0 != EMPTY_FRAME)
                .collect();
            held.sort_unstable();
            held
        }
    }

    /// Seeded random sequences of `assign`, `get`, `pin`, `unpin` and
    /// `invalidate`, each addressed by block as the paged reader uses
    /// them (a block is assigned only when not resident, a frame is
    /// invalidated only when unpinned): after every operation both pools
    /// hold the same blocks with the same pins and have evicted as often.
    #[test]
    fn the_indexed_pool_chooses_like_the_linear_scan() {
        use ptk_core::rng::{RngCore, SeedableRng, SplitMix64};
        for budget in [1, 2, 3, 5, 8] {
            for seed in 0..8u64 {
                let mut rng = SplitMix64::seed_from_u64(seed * 31 + budget as u64);
                let mut pool = BufferPool::new(&PoolConfig {
                    frames: budget,
                    frame_bytes: 64,
                });
                let mut linear = LinearPool {
                    frames: Vec::new(),
                    budget,
                    evictions: 0,
                };
                let blocks = 2 * budget as u64 + 4;
                for step in 0..2_000 {
                    let block = rng.next_u64() % blocks;
                    let ctx = format!("budget {budget} seed {seed} step {step} block {block}");
                    match (rng.next_u64() % 5, linear.get(block)) {
                        (0, None) => {
                            let got = pool.assign(block).ok().map(|_| ());
                            assert_eq!(got, linear.assign(block).map(|_| ()), "{ctx}: assign");
                        }
                        (1, held) => assert_eq!(pool.get(block).is_some(), held.is_some(), "{ctx}"),
                        (2, Some(i)) => {
                            pool.pin(pool.get(block).unwrap());
                            linear.frames[i].1 += 1;
                        }
                        (3, Some(i)) => {
                            pool.unpin(pool.get(block).unwrap());
                            linear.frames[i].1 = linear.frames[i].1.saturating_sub(1);
                        }
                        (4, Some(i)) if linear.frames[i].1 == 0 => {
                            pool.invalidate(pool.get(block).unwrap());
                            linear.frames[i].0 = EMPTY_FRAME;
                        }
                        _ => continue,
                    }
                    let held: Vec<_> = pool
                        .by_block
                        .iter()
                        .map(|(&b, &i)| (b, pool.frames[i].pins))
                        .collect();
                    assert_eq!(held, linear.resident(), "{ctx}: resident blocks");
                    assert_eq!(pool.resident(), held.len(), "{ctx}");
                    assert_eq!(pool.evictions(), linear.evictions, "{ctx}: evictions");
                }
                assert!(
                    linear.evictions > 0,
                    "budget {budget} seed {seed}: no eviction"
                );
            }
        }
    }

    #[test]
    fn pinned_frames_are_never_evicted() {
        let mut pool = BufferPool::new(&PoolConfig {
            frames: 2,
            frame_bytes: 64,
        });
        let a = pool.assign(10).unwrap();
        pool.pin(a);
        let b = pool.assign(11).unwrap();
        pool.pin(b);
        let err = pool.assign(12).unwrap_err();
        assert!(err.to_string().contains("all 2 frames are pinned"), "{err}");
        pool.unpin(b);
        assert_eq!(pool.assign(12).unwrap(), b, "only the unpinned frame moves");
        assert_eq!(pool.get(10), Some(a));
    }

    #[test]
    fn single_frame_pool_pages_a_whole_scan() {
        use ptk_obs::Metrics;
        let f = temp();
        let rows: Vec<(f64, f64, Option<u32>)> =
            (0..50).map(|i| (50.0 - i as f64, 0.5, None)).collect();
        write_run_blocked(&f.0, &rows, 48).unwrap();
        let metrics = Arc::new(Metrics::new());
        let run = PagedRun::open_recorded(
            &f.0,
            PoolConfig {
                frames: 1,
                frame_bytes: DEFAULT_FRAME_BYTES,
            },
            Arc::clone(&metrics) as SharedRecorder,
        )
        .unwrap();
        let mut cur = run.cursor();
        let mut n = 0;
        while let Some(t) = cur.next_ranked() {
            assert_eq!(t.prob, 0.5);
            n += 1;
        }
        assert_eq!(n, 50);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(counters::POOL_MISS), 25);
        // 25 blocks enter the single frame: the first fill is free, the
        // other 24 displace the previous resident.
        assert_eq!(snap.counter(counters::POOL_EVICT), 24);
        // One pin per block entered (hit or miss).
        assert_eq!(snap.counter(counters::POOL_PIN), 25);
    }

    #[test]
    fn pool_counts_evictions_but_not_initial_fills() {
        let mut pool = BufferPool::new(&PoolConfig {
            frames: 2,
            frame_bytes: 64,
        });
        pool.assign(10).unwrap();
        pool.assign(11).unwrap();
        assert_eq!(pool.evictions(), 0, "filling empty frames is not eviction");
        pool.assign(12).unwrap();
        pool.assign(13).unwrap();
        assert_eq!(pool.evictions(), 2);
    }

    #[test]
    fn two_cursors_on_one_frame_exhaust_the_pool() {
        let f = temp();
        write_run_blocked(&f.0, &panda_rows(), 48).unwrap();
        let run = PagedRun::open(
            &f.0,
            PoolConfig {
                frames: 1,
                frame_bytes: DEFAULT_FRAME_BYTES,
            },
        )
        .unwrap();
        let mut a = run.cursor();
        let mut b = run.cursor();
        // Both cursors share the single frame while in block 0.
        assert!(b.next_ranked().is_some());
        assert!(a.next_ranked().is_some());
        assert!(a.next_ranked().is_some());
        // Cursor a now needs block 1, but the sole frame stays pinned by b.
        let err = a.try_next().unwrap_err();
        assert!(err.to_string().contains("frames are pinned"), "{err}");
        drop(b);
        assert!(a.try_next().unwrap().is_some(), "pin released on drop");
    }

    /// Every refused input is refused before the file is created, so none
    /// leaves a file behind. The one check not exercised here is the row
    /// count (more than `u32::MAX` rows), since such a table cannot be
    /// built in a test; it runs with the others, ahead of `File::create`.
    #[test]
    fn write_validates_its_input() {
        let f = temp();
        let refused: [(&[Row], u32); 6] = [
            (&[(1.0, 0.0, None)], 4096),
            (&[(1.0, 1.5, None)], 4096),
            (&[(1.0, 0.5, Some(u32::MAX))], 4096),
            (&[(1.0, 0.7, Some(0)), (2.0, 0.7, Some(0))], 4096),
            (&panda_rows(), 23),
            (&panda_rows(), MAX_BLOCK_BYTES + 1),
        ];
        for (rows, block_size) in refused {
            assert!(write_run_blocked(&f.0, rows, block_size).is_err());
            assert!(
                !f.0.exists(),
                "a refused pack ({} rows at {block_size} B) wrote a file",
                rows.len()
            );
        }
    }

    /// The writer fills the directory last, over a zeroed placeholder: a
    /// pack cut short after its data blocks leaves a file of the right
    /// length that the open still refuses.
    #[test]
    fn an_unfilled_directory_is_refused_at_open() {
        let f = temp();
        write_run_blocked(&f.0, &panda_rows(), 48).unwrap();
        let mut bytes = std::fs::read(&f.0).unwrap();
        // Header 24 + masses 16 + layout 40: the directory is at 80..188.
        bytes[80..188].fill(0);
        std::fs::write(&f.0, &bytes).unwrap();
        let err = PagedRun::open(&f.0, small_pool()).unwrap_err().to_string();
        assert!(
            err.contains("at byte 80: block 0 record count: expected 2, found 0"),
            "{err}"
        );
    }

    /// One flipped byte anywhere in the data section: inside a block's
    /// records the walk stops at that block on its checksum; inside a
    /// frame's zero padding, which no checksum covers and no reader
    /// decodes, the walk streams every record unchanged.
    #[test]
    fn a_flipped_data_byte_fails_its_block_or_changes_nothing() {
        let f = temp();
        let rows = seeded_rows(13, 60, 140);
        assert_eq!(rows.len(), 200);
        // 512-byte blocks: 21 records (504 B) and 8 B of padding each; the
        // tenth block holds the last 11 records.
        write_run_blocked(&f.0, &rows, 512).unwrap();
        let mut bytes = std::fs::read(&f.0).unwrap();
        let walk = |cur: &mut PagedCursor<'_>| {
            std::iter::from_fn(|| cur.next_ranked())
                .map(|t| (t.id, t.score.to_bits(), t.prob.to_bits(), t.rule))
                .collect::<Vec<_>>()
        };
        let run = PagedRun::open(&f.0, small_pool()).unwrap();
        assert_eq!(run.directory().len(), 10);
        let all = walk(&mut run.cursor());
        assert_eq!(all.len(), 200);
        drop(run);
        let data_start = bytes.len() - 10 * 512;
        for pos in data_start..bytes.len() {
            bytes[pos] ^= 0xFF;
            std::fs::write(&f.0, &bytes).unwrap();
            bytes[pos] ^= 0xFF;
            let (block, at) = ((pos - data_start) / 512, (pos - data_start) % 512);
            let records = if block == 9 { 11 } else { 21 };
            let run = PagedRun::open(&f.0, small_pool()).unwrap();
            let mut cur = run.cursor();
            let streamed = walk(&mut cur);
            if at < records * RECORD_BYTES {
                assert_eq!(streamed[..], all[..block * 21], "flip at byte {pos}");
                let err = cur.take_error().expect("a checksum error").to_string();
                assert!(
                    err.contains(&format!("block {block} checksum")),
                    "flip at byte {pos}: {err}"
                );
            } else {
                assert_eq!(streamed, all, "padding flip at byte {pos}");
                assert!(cur.take_error().is_none(), "padding flip at byte {pos}");
            }
        }
    }

    #[test]
    fn empty_run_round_trips() {
        let f = temp();
        write_run_blocked(&f.0, &[], 4096).unwrap();
        let run = PagedRun::open(&f.0, small_pool()).unwrap();
        assert_eq!(run.tuples(), 0);
        assert!(run.directory().is_empty());
        let mut cur = run.cursor();
        assert!(cur.next_ranked().is_none());
        assert!(cur.block_bounds().is_none());
    }

    /// A flat-format file is refused by its magic. Its header is written
    /// by hand: the magic, a record count and a rule count (20 bytes),
    /// then one rule mass, so the file passes the 24-byte header read and
    /// reaches the magic check.
    #[test]
    fn open_rejects_v1_files_with_a_pointed_error() {
        let f = temp();
        let mut header = ByteBuf::new();
        header.put_slice(b"PTKRUN01");
        header.put_u64_le(0);
        header.put_u32_le(1);
        header.put_f64_le(0.5);
        std::fs::write(&f.0, header.as_slice()).unwrap();
        let err = PagedRun::open(&f.0, small_pool()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("PTKRUN01"), "{err}");
        assert!(err.to_string().contains("`ptk pack`"), "{err}");
        assert_eq!(run_format(&f.0), Some(1));
    }

    #[test]
    fn open_rejects_trailing_garbage() {
        let f = temp();
        write_run_blocked(&f.0, &panda_rows(), 48).unwrap();
        let mut bytes = std::fs::read(&f.0).unwrap();
        bytes.extend_from_slice(b"junk");
        std::fs::write(&f.0, &bytes).unwrap();
        let err = PagedRun::open(&f.0, small_pool()).unwrap_err();
        assert!(err.to_string().contains("corrupt run file"), "{err}");
    }

    #[test]
    fn a_traced_open_closes_the_span_on_error() {
        use ptk_obs::{Metrics, RingSink, SharedSink, Tracer};
        let f = temp();
        std::fs::write(&f.0, b"NOTARUN!xxxxxxxxxxxxxxxxxxx").unwrap();
        let sink = Arc::new(RingSink::new(8));
        let tracer = Tracer::new(Arc::clone(&sink) as SharedSink, 0, 0);
        let recorder = Arc::new(Metrics::counters_only().with_tracer(tracer));
        assert!(PagedRun::open_recorded(&f.0, small_pool(), recorder).is_err());
        // The debug drop guard would panic here if the span leaked open.
        let events = sink.events();
        assert_eq!(events.len(), 2, "begin + end despite the error");
    }

    /// Overwrites the bytes at `field` (4: rule, 8: score, 16:
    /// probability) of the record at `rank` in a packed file, and rewrites
    /// its block's checksum in the directory, so the record checks, not
    /// the checksum, must catch the value.
    fn rewrite_record(bytes: &mut [u8], rank: usize, field: usize, value: &[u8]) {
        let block_size = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let tuples = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let capacity = block_size / RECORD_BYTES;
        let blocks = tuples.div_ceil(capacity);
        let data_start = bytes.len() - blocks * block_size;
        let (b, slot) = (rank / capacity, rank % capacity);
        let frame = data_start + b * block_size;
        let at = frame + slot * RECORD_BYTES + field;
        bytes[at..at + value.len()].copy_from_slice(value);
        let entry = data_start - (blocks - b) * DIR_ENTRY_BYTES as usize;
        let records = u32::from_le_bytes(bytes[entry..entry + 4].try_into().unwrap()) as usize;
        let crc = crc32(&bytes[frame..frame + records * RECORD_BYTES]);
        bytes[entry + 32..entry + 36].copy_from_slice(&crc.to_le_bytes());
    }

    /// Record 2's score, then its probability, with the checksum made to
    /// match: a NaN score slips past a plain `>` order check, and the
    /// record after the corrupt one is intact, so a reader that skipped on
    /// would deliver it.
    #[test]
    fn a_corrupt_record_ends_the_stream_for_good() {
        for (field, value) in [(8, f64::NAN), (16, 2.0)] {
            let f = temp();
            write_run_blocked(&f.0, &panda_rows(), DEFAULT_BLOCK_BYTES).unwrap();
            let mut bytes = std::fs::read(&f.0).unwrap();
            rewrite_record(&mut bytes, 2, field, &value.to_le_bytes());
            std::fs::write(&f.0, &bytes).unwrap();
            let run = PagedRun::open(&f.0, small_pool()).unwrap();
            let mut cur = run.cursor();
            assert!(cur.take_error().is_none());
            assert!(cur.next_ranked().is_some());
            assert!(cur.next_ranked().is_some());
            assert!(cur.next_ranked().is_none(), "{value}");
            assert!(cur.next_ranked().is_none(), "{value}: read past the error");
            assert_eq!(cur.retrieved(), 2);
            let err = cur.take_error().expect("the error is held");
            assert!(err.to_string().contains("record 2"), "{err}");
            assert!(!err.to_string().contains("checksum"), "{err}");
            assert!(cur.take_error().is_none());
        }
    }

    #[test]
    fn open_rejects_bad_magic_with_offset_and_expectation() {
        let f = temp();
        std::fs::write(&f.0, b"NOTARUN!xxxxxxxxxxxxxxxxxxx").unwrap();
        let err = PagedRun::open(&f.0, small_pool()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("at byte 0"), "{msg}");
        assert!(msg.contains("magic"), "{msg}");
        assert!(msg.contains("PTKRUN02"), "{msg}");
    }

    #[test]
    fn open_rejects_truncated_blocks() {
        let f = temp();
        write_run_blocked(&f.0, &panda_rows(), 48).unwrap();
        let bytes = std::fs::read(&f.0).unwrap();
        std::fs::write(&f.0, &bytes[..bytes.len() - 10]).unwrap();
        let err = PagedRun::open(&f.0, small_pool()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("corrupt run file at byte"),
            "{err}"
        );
    }

    #[test]
    fn open_rejects_oversized_counts_without_allocating() {
        let f = temp();
        write_run_blocked(&f.0, &panda_rows(), 48).unwrap();
        let clean = std::fs::read(&f.0).unwrap();
        // Claim 2^60 tuples in a 332-byte file.
        let mut bytes = clean.clone();
        bytes[12..20].copy_from_slice(&(1u64 << 60).to_le_bytes());
        std::fs::write(&f.0, &bytes).unwrap();
        let err = PagedRun::open(&f.0, small_pool()).unwrap_err();
        assert!(err.to_string().contains("at byte 12"), "{err}");
        // Claim u32::MAX rules (a ~34 GB rule table).
        let mut bytes = clean.clone();
        bytes[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&f.0, &bytes).unwrap();
        let err = PagedRun::open(&f.0, small_pool()).unwrap_err();
        assert!(err.to_string().contains("at byte 20"), "{err}");
    }

    /// The block crc32 does not cover the header's rule masses: a mass
    /// outside `[0, 1 + 1e-9]` fails the open, and one below a member's
    /// probability fails the scan at that member.
    #[test]
    fn rule_masses_are_checked_at_open_and_against_their_members() {
        let f = temp();
        write_run_blocked(&f.0, &panda_rows(), 48).unwrap();
        let clean = std::fs::read(&f.0).unwrap();
        let with_mass = |rule: usize, mass: f64| {
            let mut bytes = clean.clone();
            let at = 24 + rule * 8;
            bytes[at..at + 8].copy_from_slice(&mass.to_le_bytes());
            std::fs::write(&f.0, &bytes).unwrap();
        };
        for bad in [f64::NAN, -1.0, 1.5, 1.0 + 1e-8] {
            with_mass(1, bad);
            let err = PagedRun::open(&f.0, small_pool()).unwrap_err();
            assert!(err.to_string().contains("at byte 32: rule 1 mass"), "{err}");
        }
        // Rule 1 holds 0.8 (rank 2) and 0.2 (rank 5).
        for understated in [0.0, 1e-300, 0.5] {
            with_mass(1, understated);
            let run = PagedRun::open(&f.0, small_pool()).unwrap();
            let mut cur = run.cursor();
            assert!(cur.try_next().unwrap().is_some());
            assert!(cur.try_next().unwrap().is_some());
            let err = cur.try_next().unwrap_err().to_string();
            assert!(
                err.contains(&format!(
                    "record 2 probability: expected <= rule 1 mass {understated:?}, found 0.8"
                )),
                "{err}"
            );
        }
        // A mass equal to its largest member passes: the check is exact.
        with_mass(1, 0.8);
        let run = PagedRun::open(&f.0, small_pool()).unwrap();
        let mut cur = run.cursor();
        assert_eq!(std::iter::from_fn(|| cur.next_ranked()).count(), 6);
        assert!(cur.take_error().is_none());
    }

    /// The panda rows at 48 B blocks: rule 0 lists ranks 1 and 3, rule 1
    /// ranks 2 and 5, so every block holds a rule member. A rule-free flag
    /// set on any of them is refused at open, naming the block, the rule
    /// and the rank, before the block-skip path can absorb that member as
    /// an independent.
    #[test]
    fn open_refuses_a_rule_free_flag_over_a_listed_rank() {
        let f = temp();
        write_run_blocked(&f.0, &panda_rows(), 48).unwrap();
        let clean = std::fs::read(&f.0).unwrap();
        // The directory follows header 24 + masses 16 + layout 40 bytes;
        // each entry's flags sit 4 bytes in.
        for (b, rule, rank) in [(0, 0, 1), (1, 0, 3), (2, 1, 5)] {
            let at = 80 + 36 * b + 4;
            let mut bytes = clean.clone();
            assert_eq!(bytes[at] & 1, 0, "block {b} holds a rule member");
            bytes[at] |= 1;
            std::fs::write(&f.0, &bytes).unwrap();
            let err = PagedRun::open(&f.0, small_pool()).unwrap_err().to_string();
            assert!(
                err.contains(&format!(
                    "at byte {at}: block {b} flags: expected no rule-free bit, \
                     as rule {rule} lists rank {rank} in the block"
                )),
                "{err}"
            );
        }
    }

    /// A record naming a rule whose layout does not list its rank, under a
    /// checksum that matches, ends the stream with an error naming it.
    #[test]
    fn a_record_outside_its_rules_layout_is_rejected() {
        let f = temp();
        write_run_blocked(&f.0, &panda_rows(), 48).unwrap();
        let mut bytes = std::fs::read(&f.0).unwrap();
        // Rank 0 is independent; rule 0 lists ranks 1 and 3.
        rewrite_record(&mut bytes, 0, 4, &0u32.to_le_bytes());
        std::fs::write(&f.0, &bytes).unwrap();
        let run = PagedRun::open(&f.0, small_pool()).unwrap();
        let mut cur = run.cursor();
        let err = cur.try_next().unwrap_err().to_string();
        assert!(
            err.contains("record 0 rule: expected a rule whose layout lists rank 0, found 0"),
            "{err}"
        );
        assert!(cur.next_ranked().is_none());
    }

    #[test]
    fn bad_block_checksum_is_reported_with_offset() {
        let f = temp();
        write_run_blocked(&f.0, &panda_rows(), 48).unwrap();
        let mut bytes = std::fs::read(&f.0).unwrap();
        // Flip one byte inside block 1's records. Prefix: header 24 +
        // masses 16 + layout 40 + directory 108 = 188; block 1 at 236.
        let target = 188 + 48 + 20;
        bytes[target] ^= 0xFF;
        std::fs::write(&f.0, &bytes).unwrap();
        let run = PagedRun::open(&f.0, small_pool()).unwrap();
        let mut cur = run.cursor();
        // Block 0 decodes fine; block 1 fails its checksum.
        assert!(cur.try_next().unwrap().is_some());
        assert!(cur.try_next().unwrap().is_some());
        let err = cur.try_next().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("block 1 checksum"), "{msg}");
        assert!(msg.contains("at byte 236"), "{msg}");
        assert!(msg.contains("expected 0x"), "{msg}");
        // The stream (lossy interface) then ends rather than looping.
        assert!(cur.next_ranked().is_none());

        // Through the lossy interface alone, the error is held for
        // take_error so a caller can tell corruption from a clean stop.
        let mut cur = run.cursor();
        let streamed = std::iter::from_fn(|| cur.next_ranked()).count();
        assert_eq!(streamed, 2);
        let held = cur.take_error().expect("deferred error");
        assert!(held.to_string().contains("block 1 checksum"), "{held}");
        assert!(cur.take_error().is_none());
    }

    #[test]
    fn rank_range_overlap_is_rejected_at_open() {
        let f = temp();
        write_run_blocked(&f.0, &panda_rows(), 48).unwrap();
        let mut bytes = std::fs::read(&f.0).unwrap();
        // Directory starts at 80; entry 1 at 116; score_first at +16.
        let off = 80 + 36 + 16;
        bytes[off..off + 8].copy_from_slice(&23.0f64.to_le_bytes());
        // Keep the entry's own range coherent (score_last stays 13).
        std::fs::write(&f.0, &bytes).unwrap();
        let err = PagedRun::open(&f.0, small_pool()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("rank range"), "{msg}");
        assert!(msg.contains(&format!("at byte {}", off)), "{msg}");
        assert!(msg.contains("previous block's last score 21"), "{msg}");
    }

    #[test]
    fn oversized_block_is_rejected_against_the_frame_budget() {
        let f = temp();
        write_run_blocked(&f.0, &panda_rows(), 1024).unwrap();
        let err = PagedRun::open(
            &f.0,
            PoolConfig {
                frames: 4,
                frame_bytes: 512,
            },
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("block size 1024 B exceeds"), "{msg}");
        assert!(msg.contains("frame size 512 B"), "{msg}");
    }

    #[test]
    fn record_contradicting_the_directory_max_is_rejected() {
        let f = temp();
        write_run_blocked(&f.0, &panda_rows(), 48).unwrap();
        let mut bytes = std::fs::read(&f.0).unwrap();
        // Rewrite block 0's directory max_prob below its records' probs
        // and fix the entry so open-time checks pass.
        let off = 80 + 8;
        bytes[off..off + 8].copy_from_slice(&0.2f64.to_le_bytes());
        std::fs::write(&f.0, &bytes).unwrap();
        let run = PagedRun::open(&f.0, small_pool()).unwrap();
        let mut cur = run.cursor();
        let err = cur.try_next().unwrap_err();
        assert!(err.to_string().contains("block 0 max"), "{err}");
        let mut probs = Vec::new();
        let mut cur2 = run.cursor();
        assert!(cur2.try_skip(2, &mut probs).is_err(), "stripe checks too");
        assert!(probs.is_empty(), "failed skip leaves no partial probs");
    }

    #[test]
    fn a_traced_recorder_sees_the_open_span_and_block_reads() {
        use ptk_obs::{
            to_chrome_json, validate_chrome_trace, Metrics, RingSink, SharedSink, Tracer,
        };
        let f = temp();
        write_run_blocked(&f.0, &panda_rows(), 48).unwrap();
        let sink = Arc::new(RingSink::new(64));
        let tracer = Tracer::new(Arc::clone(&sink) as SharedSink, 0, 0);
        let recorder = Arc::new(Metrics::counters_only().with_tracer(tracer));
        let run = PagedRun::open_recorded(&f.0, small_pool(), recorder).unwrap();
        let mut cur = run.cursor();
        while cur.next_ranked().is_some() {}
        drop(cur);
        let events = sink.events();
        let check = validate_chrome_trace(&to_chrome_json(&events)).unwrap();
        assert_eq!(check.begins, 1, "one source-open span");
        assert_eq!(check.ends, 1);
        assert_eq!(check.instants, 3, "one read mark per block");
        let text = ptk_obs::render_logical(&events);
        assert!(text.contains("B source-open"), "{text}");
        assert!(text.contains("tuples=6 rules=2"), "{text}");
        assert!(text.contains("i file-read bytes=48"), "{text}");
    }
}
