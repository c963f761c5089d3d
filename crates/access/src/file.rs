//! On-disk sorted runs: ranked retrieval from files.
//!
//! A *run* is a file holding tuples sorted by score descending, in a
//! compact binary format. [`write_run`] sorts and persists rows;
//! [`FileSource`] streams them back through a bounded read buffer, so the
//! streaming engine can answer PT-k queries over tables that never fit in
//! memory — and, thanks to the pruning rules, usually reads only the head
//! of the file.
//!
//! ## Format (little-endian)
//!
//! ```text
//! magic     8 bytes   b"PTKRUN01"
//! tuples    u64       record count
//! rules     u32       rule count
//! masses    rules×f64 total membership mass per rule key
//! records   tuples × { id: u32, rule: u32 (u32::MAX = none),
//!                      score: f64, prob: f64 }   (24 bytes each)
//! ```

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use ptk_core::TupleId;
use ptk_obs::{Mark, Noop, Payload, SharedRecorder, Stage};

use crate::block::{check_member, check_rule_mass, corrupt, MAX_RULE_MASS};
use crate::bytebuf::ByteBuf;
use crate::counters;
use crate::source::{RankedSource, RuleKey, SourceTuple};

const MAGIC: &[u8; 8] = b"PTKRUN01";
const HEADER_BYTES: u64 = 8 + 8 + 4;
const RECORD_BYTES: usize = 4 + 4 + 8 + 8;
/// Records decoded per buffered read.
const READ_CHUNK: usize = 1024;
const NO_RULE: u32 = u32::MAX;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Sorts `rows` (`(score, probability, rule)` triples; ids are assigned by
/// input order) and writes them as a run file at `path`.
///
/// # Errors
/// Fails on IO errors, probabilities outside `(0, 1]`, a rule key equal to
/// `u32::MAX` (reserved), or a rule whose total mass exceeds 1.
pub fn write_run(path: &Path, rows: &[(f64, f64, Option<u32>)]) -> io::Result<()> {
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

    let mut out = BufWriter::new(File::create(path)?);
    let mut buf = ByteBuf::with_capacity(8 + 8 + 4 + masses.len() * 8);
    buf.put_slice(MAGIC);
    buf.put_u64_le(rows.len() as u64);
    buf.put_u32_le(rule_count);
    for &m in &masses {
        buf.put_f64_le(m);
    }
    out.write_all(buf.as_slice())?;
    buf.clear();
    for &i in &order {
        let (score, prob, rule) = rows[i];
        buf.put_u32_le(u32::try_from(i).map_err(|_| invalid("too many rows"))?);
        buf.put_u32_le(rule.unwrap_or(NO_RULE));
        buf.put_f64_le(score);
        buf.put_f64_le(prob);
        if buf.len() >= RECORD_BYTES * READ_CHUNK {
            out.write_all(buf.as_slice())?;
            buf.clear();
        }
    }
    out.write_all(buf.as_slice())?;
    out.flush()
}

/// A [`RankedSource`] streaming a run file written by [`write_run`],
/// decoding records through a bounded buffer (memory use is independent of
/// the file size).
pub struct FileSource {
    reader: BufReader<File>,
    buffer: ByteBuf,
    remaining: u64,
    rule_masses: Vec<f64>,
    last_score: f64,
    retrieved: usize,
    recorder: SharedRecorder,
    /// The error that ended the stream, held for [`FileSource::take_error`].
    /// Once set, the stream stays ended.
    error: Option<io::Error>,
    dead: bool,
}

impl std::fmt::Debug for FileSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileSource")
            .field("remaining", &self.remaining)
            .field("rules", &self.rule_masses.len())
            .field("retrieved", &self.retrieved)
            .finish_non_exhaustive()
    }
}

impl FileSource {
    /// Opens a run file and validates its header (see
    /// [`FileSource::open_recorded`] for the validation performed).
    ///
    /// # Errors
    /// Fails on IO errors or a malformed header.
    pub fn open(path: &Path) -> io::Result<FileSource> {
        FileSource::open_recorded(path, Arc::new(Noop))
    }

    /// Like [`FileSource::open`], recording retrieval metrics (bytes read,
    /// records decoded) into `recorder`. When `recorder` carries a tracer
    /// ([`ptk_obs::Recorder::tracer`]), the header read becomes a
    /// [`Stage::SourceOpen`] span carrying the run's tuple and rule counts,
    /// closed on error too so the trace stays balanced, and every buffered
    /// refill emits a [`Mark::FileRead`] instant with the bytes read — so
    /// a flame trace shows exactly how far into the file the pruned scan
    /// reached.
    ///
    /// The header's `tuples` and `rules` fields are *untrusted input*:
    /// before any allocation sized from them, they are checked against the
    /// actual file length (`header + rules×8 + tuples×24` must equal it
    /// exactly), so a corrupt or truncated file yields a decode error
    /// instead of an OOM-sized allocation or a short read mid-stream.
    /// Nothing checksums the rule masses, so each must lie in
    /// `[0, 1 + 1e-9]`, and [`FileSource::try_next`] fails on a rule
    /// member above its rule's mass.
    ///
    /// # Errors
    /// Fails on IO errors or a malformed header.
    pub fn open_recorded(path: &Path, recorder: SharedRecorder) -> io::Result<FileSource> {
        let Some(tracer) = recorder.tracer() else {
            return FileSource::read_header(path, recorder);
        };
        let _ = tracer.begin(Stage::SourceOpen);
        let opened = FileSource::read_header(path, Arc::clone(&recorder));
        let payload = match &opened {
            Ok(src) => Payload::Source {
                tuples: src.remaining,
                rules: src.rule_masses.len() as u64,
            },
            Err(_) => Payload::None,
        };
        tracer.end(Stage::SourceOpen, payload);
        opened
    }

    /// Opens the run file and validates its header and rule table; see
    /// [`FileSource::open_recorded`].
    fn read_header(path: &Path, recorder: SharedRecorder) -> io::Result<FileSource> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut reader = BufReader::new(file);
        let mut header = [0u8; HEADER_BYTES as usize];
        reader.read_exact(&mut header).map_err(|_| {
            corrupt(
                0,
                "header",
                format!("{HEADER_BYTES} bytes"),
                format!("{file_len} (truncated header)"),
            )
        })?;
        let mut head = ByteBuf::from_vec(header.to_vec());
        let mut magic = [0u8; 8];
        head.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            if &magic == b"PTKRUN02" {
                return Err(invalid(
                    "block-native run file (magic PTKRUN02): FileSource reads the v1 format — \
                     open it with the paged reader (PagedRun), which `ptk scan` selects \
                     automatically",
                ));
            }
            return Err(corrupt(
                0,
                "magic",
                "\"PTKRUN01\"",
                format!("{magic:02x?} (not a ptk run file, bad magic)"),
            ));
        }
        let remaining = head.get_u64_le();
        let rule_count = head.get_u32_le() as usize;
        let rule_bytes = rule_count as u64 * 8;
        let expected = remaining
            .checked_mul(RECORD_BYTES as u64)
            .and_then(|record_bytes| record_bytes.checked_add(HEADER_BYTES + rule_bytes))
            .ok_or_else(|| {
                invalid(format!(
                    "corrupt header: {remaining} records / {rule_count} rules overflow the \
                     addressable file size"
                ))
            })?;
        if expected != file_len {
            return Err(corrupt(
                8,
                "record/rule counts",
                format!(
                    "a {expected}-byte file ({remaining} records at byte 8, {rule_count} rules \
                     at byte 16)"
                ),
                format!("{file_len} bytes"),
            ));
        }
        let mut mass_bytes = vec![0u8; rule_count * 8];
        reader.read_exact(&mut mass_bytes).map_err(|_| {
            corrupt(
                HEADER_BYTES,
                "rule mass table",
                format!("{rule_count}x8 bytes"),
                "end of file (truncated rule table)",
            )
        })?;
        let mut masses = ByteBuf::from_vec(mass_bytes);
        let rule_masses = (0..rule_count as u64)
            .map(|r| check_rule_mass(HEADER_BYTES + r * 8, r, masses.get_f64_le()))
            .collect::<io::Result<Vec<f64>>>()?;
        recorder.add(counters::FILE_OPENS, 1);
        recorder.add(counters::FILE_BYTES_READ, HEADER_BYTES + rule_bytes);
        Ok(FileSource {
            reader,
            buffer: ByteBuf::new(),
            remaining,
            rule_masses,
            last_score: f64::INFINITY,
            retrieved: 0,
            recorder,
            error: None,
            dead: false,
        })
    }

    /// Records left to stream.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// File offset of the next record to decode (the record about to be
    /// delivered), for error reporting.
    fn record_offset(&self) -> u64 {
        HEADER_BYTES
            + self.rule_masses.len() as u64 * 8
            + self.retrieved as u64 * RECORD_BYTES as u64
    }

    fn refill(&mut self) -> io::Result<()> {
        let want = (self.remaining as usize).min(READ_CHUNK) * RECORD_BYTES;
        let mut chunk = vec![0u8; want];
        let at = self.record_offset() + self.buffer.len() as u64;
        self.reader.read_exact(&mut chunk).map_err(|_| {
            corrupt(
                at,
                "records",
                format!("{want} bytes"),
                "end of file (truncated records)",
            )
        })?;
        self.recorder.add(counters::FILE_BYTES_READ, want as u64);
        if let Some(t) = self.recorder.tracer() {
            t.instant(Mark::FileRead { bytes: want as u64 });
        }
        self.buffer.put_slice(&chunk);
        Ok(())
    }

    /// The error that ended the stream, if any. [`RankedSource::next_ranked`]
    /// reports an IO or corruption error as end-of-stream; callers that
    /// must not mistake a truncated scan for a clean early stop check here
    /// after the scan.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Fallible form of [`RankedSource::next_ranked`]: decoding errors are
    /// surfaced instead of ending the stream.
    ///
    /// # Errors
    /// Fails on IO errors, truncation, or corruption: a probability outside
    /// `(0, 1]`, a NaN or out-of-order score, an unknown rule key, or a
    /// rule member above its rule's mass.
    pub fn try_next(&mut self) -> io::Result<Option<SourceTuple>> {
        if self.dead || self.remaining == 0 {
            return Ok(None);
        }
        if self.buffer.len() < RECORD_BYTES {
            self.refill()?;
        }
        let rec_off = self.record_offset();
        let id = self.buffer.get_u32_le();
        let rule = self.buffer.get_u32_le();
        let score = self.buffer.get_f64_le();
        let prob = self.buffer.get_f64_le();
        if !(prob > 0.0 && prob <= 1.0) {
            return Err(corrupt(
                rec_off + 16,
                format!("record {} probability", self.retrieved),
                "a value in (0, 1]",
                prob,
            ));
        }
        if score.is_nan() || score > self.last_score {
            return Err(corrupt(
                rec_off + 8,
                format!("record {} score", self.retrieved),
                format!(
                    "<= previous score {} (scores out of order)",
                    self.last_score
                ),
                score,
            ));
        }
        if rule != NO_RULE {
            let Some(&mass) = self.rule_masses.get(rule as usize) else {
                return Err(corrupt(
                    rec_off + 4,
                    format!("record {} rule key", self.retrieved),
                    format!("< {} or u32::MAX", self.rule_masses.len()),
                    rule,
                ));
            };
            check_member(rec_off + 16, self.retrieved as u64, rule, prob, mass)?;
        }
        self.last_score = score;
        self.remaining -= 1;
        self.retrieved += 1;
        self.recorder.add(counters::FILE_RECORDS, 1);
        Ok(Some(SourceTuple {
            id: TupleId::new(id as usize),
            score,
            prob,
            rule: (rule != NO_RULE).then_some(RuleKey(rule)),
        }))
    }
}

impl RankedSource for FileSource {
    /// Streams the next record. An IO or corruption error ends the stream
    /// for good (use [`FileSource::try_next`] to observe errors as they
    /// happen, or [`FileSource::take_error`] after a scan).
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
        self.rule_masses.get(rule.0 as usize).copied()
    }

    fn len_hint(&self) -> Option<usize> {
        // The header promises the full record count; what is left is that
        // promise minus what has already streamed out.
        Some(self.retrieved + self.remaining as usize)
    }

    fn retrieved(&self) -> usize {
        self.retrieved
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
        TempFile(std::env::temp_dir().join(format!("ptk-run-test-{}-{n}.run", std::process::id())))
    }

    fn panda_rows() -> Vec<(f64, f64, Option<u32>)> {
        vec![
            (25.0, 0.3, None),
            (21.0, 0.4, Some(0)),
            (13.0, 0.5, Some(0)),
            (12.0, 1.0, None),
            (17.0, 0.8, Some(1)),
            (11.0, 0.2, Some(1)),
        ]
    }

    #[test]
    fn roundtrip_preserves_order_and_metadata() {
        let f = temp();
        write_run(&f.0, &panda_rows()).unwrap();
        let mut src = FileSource::open(&f.0).unwrap();
        assert_eq!(src.remaining(), 6);
        assert!((src.rule_mass(RuleKey(0)).unwrap() - 0.9).abs() < 1e-12);
        assert!((src.rule_mass(RuleKey(1)).unwrap() - 1.0).abs() < 1e-12);
        let all: Vec<SourceTuple> = std::iter::from_fn(|| src.next_ranked()).collect();
        let scores: Vec<f64> = all.iter().map(|t| t.score).collect();
        assert_eq!(scores, vec![25.0, 21.0, 17.0, 13.0, 12.0, 11.0]);
        let ids: Vec<usize> = all.iter().map(|t| t.id.index()).collect();
        assert_eq!(ids, vec![0, 1, 4, 2, 3, 5]);
        assert_eq!(all[1].rule, Some(RuleKey(0)));
        assert_eq!(all[0].rule, None);
        assert_eq!(src.retrieved(), 6);
        assert_eq!(src.remaining(), 0);
    }

    #[test]
    fn large_run_streams_in_chunks() {
        let f = temp();
        let rows: Vec<(f64, f64, Option<u32>)> =
            (0..10_000).map(|i| (i as f64, 0.5, None)).collect();
        write_run(&f.0, &rows).unwrap();
        let mut src = FileSource::open(&f.0).unwrap();
        let mut count = 0;
        let mut last = f64::INFINITY;
        while let Some(t) = src.next_ranked() {
            assert!(t.score <= last);
            last = t.score;
            count += 1;
        }
        assert_eq!(count, 10_000);
    }

    #[test]
    fn write_validates() {
        let f = temp();
        assert!(write_run(&f.0, &[(1.0, 0.0, None)]).is_err());
        assert!(write_run(&f.0, &[(1.0, 1.5, None)]).is_err());
        assert!(write_run(&f.0, &[(1.0, 0.5, Some(u32::MAX))]).is_err());
        assert!(write_run(&f.0, &[(1.0, 0.7, Some(0)), (2.0, 0.7, Some(0))]).is_err());
    }

    #[test]
    fn open_rejects_bad_magic() {
        let f = temp();
        std::fs::write(&f.0, b"NOTARUN!xxxxxxxxxxxxxxxxxxx").unwrap();
        let err = FileSource::open(&f.0).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn open_rejects_v2_files_with_a_pointed_error() {
        let f = temp();
        crate::block::write_run_blocked(&f.0, &panda_rows(), 4096).unwrap();
        let err = FileSource::open(&f.0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("PTKRUN02"), "{err}");
        assert!(err.to_string().contains("paged reader"), "{err}");
    }

    #[test]
    fn errors_name_the_offending_byte_offset() {
        let f = temp();
        write_run(&f.0, &panda_rows()).unwrap();
        let mut bytes = std::fs::read(&f.0).unwrap();
        // Record 1 (after the 20-byte header and two rule masses) starts at
        // byte 60; its probability field sits at byte 76.
        bytes[76..84].copy_from_slice(&7.0f64.to_le_bytes());
        std::fs::write(&f.0, &bytes).unwrap();
        let mut src = FileSource::open(&f.0).unwrap();
        assert!(src.try_next().unwrap().is_some());
        let err = src.try_next().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("at byte 76"), "{msg}");
        assert!(msg.contains("expected a value in (0, 1]"), "{msg}");
        assert!(msg.contains("found 7"), "{msg}");
    }

    #[test]
    fn open_rejects_truncation() {
        let f = temp();
        write_run(&f.0, &panda_rows()).unwrap();
        let bytes = std::fs::read(&f.0).unwrap();
        std::fs::write(&f.0, &bytes[..bytes.len() - 10]).unwrap();
        // Caught at open: the header promises more bytes than the file holds.
        let err = FileSource::open(&f.0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("corrupt run file"), "{err}");
    }

    #[test]
    fn open_rejects_trailing_garbage() {
        let f = temp();
        write_run(&f.0, &panda_rows()).unwrap();
        let mut bytes = std::fs::read(&f.0).unwrap();
        bytes.extend_from_slice(b"junk");
        std::fs::write(&f.0, &bytes).unwrap();
        let err = FileSource::open(&f.0).unwrap_err();
        assert!(err.to_string().contains("corrupt run file"), "{err}");
    }

    #[test]
    fn open_rejects_oversized_rule_count_without_allocating() {
        let f = temp();
        write_run(&f.0, &panda_rows()).unwrap();
        let mut bytes = std::fs::read(&f.0).unwrap();
        // Claim u32::MAX rules (a ~34 GB rule table) in a 168-byte file:
        // before the fix this allocated vec![0u8; rule_count * 8] upfront.
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&f.0, &bytes).unwrap();
        let err = FileSource::open(&f.0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn open_rejects_oversized_tuple_count() {
        let f = temp();
        write_run(&f.0, &panda_rows()).unwrap();
        let mut bytes = std::fs::read(&f.0).unwrap();
        for claimed in [u64::MAX, 1 << 60, 7] {
            bytes[8..16].copy_from_slice(&claimed.to_le_bytes());
            std::fs::write(&f.0, &bytes).unwrap();
            let err = FileSource::open(&f.0).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "claimed {claimed}");
        }
    }

    #[test]
    fn open_recorded_counts_bytes_and_records() {
        use ptk_obs::Metrics;
        let f = temp();
        write_run(&f.0, &panda_rows()).unwrap();
        let metrics = std::sync::Arc::new(Metrics::new());
        let mut src =
            FileSource::open_recorded(&f.0, std::sync::Arc::clone(&metrics) as SharedRecorder)
                .unwrap();
        while let Some(_t) = src.next_ranked() {}
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(counters::FILE_OPENS), 1);
        assert_eq!(snap.counter(counters::FILE_RECORDS), 6);
        // Header (20) + 2 rule masses (16) + 6 records (144).
        assert_eq!(snap.counter(counters::FILE_BYTES_READ), 20 + 16 + 144);
    }

    #[test]
    fn a_traced_recorder_sees_the_open_span_and_read_marks() {
        use ptk_obs::{
            to_chrome_json, validate_chrome_trace, Metrics, RingSink, SharedSink, Tracer,
        };
        let f = temp();
        write_run(&f.0, &panda_rows()).unwrap();
        let sink = Arc::new(RingSink::new(64));
        let tracer = Tracer::new(Arc::clone(&sink) as SharedSink, 0, 0);
        let recorder = Arc::new(Metrics::counters_only().with_tracer(tracer));
        let mut src = FileSource::open_recorded(&f.0, recorder).unwrap();
        while let Some(_t) = src.next_ranked() {}
        drop(src);
        let events = sink.events();
        let check = validate_chrome_trace(&to_chrome_json(&events)).unwrap();
        assert_eq!(check.begins, 1, "one source-open span");
        assert_eq!(check.ends, 1);
        assert_eq!(check.instants, 1, "one refill for six records");
        let text = ptk_obs::render_logical(&events);
        assert!(text.contains("B source-open"), "{text}");
        assert!(text.contains("tuples=6 rules=2"), "{text}");
        assert!(text.contains("i file-read bytes=144"), "{text}");
    }

    #[test]
    fn a_traced_open_closes_the_span_on_error() {
        use ptk_obs::{Metrics, RingSink, SharedSink, Tracer};
        let f = temp();
        std::fs::write(&f.0, b"NOTARUN!xxxxxxxxxxxxxxxxxxx").unwrap();
        let sink = Arc::new(RingSink::new(8));
        let tracer = Tracer::new(Arc::clone(&sink) as SharedSink, 0, 0);
        let recorder = Arc::new(Metrics::counters_only().with_tracer(tracer));
        assert!(FileSource::open_recorded(&f.0, recorder).is_err());
        // The debug drop guard would panic here if the span leaked open.
        let events = sink.events();
        assert_eq!(events.len(), 2, "begin + end despite the error");
    }

    #[test]
    fn corrupted_scores_are_detected() {
        let f = temp();
        write_run(&f.0, &panda_rows()).unwrap();
        let mut bytes = std::fs::read(&f.0).unwrap();
        // Bump the second record's score above the first's.
        let record2 = 8 + 8 + 4 + 2 * 8 + RECORD_BYTES;
        let score_off = record2 + 8;
        bytes[score_off..score_off + 8].copy_from_slice(&1e9f64.to_le_bytes());
        std::fs::write(&f.0, &bytes).unwrap();
        let mut src = FileSource::open(&f.0).unwrap();
        assert!(src.try_next().unwrap().is_some());
        assert!(src.try_next().is_err());
    }

    #[test]
    fn a_corrupt_record_ends_the_stream_for_good() {
        // Record 2's score, then its probability: a NaN score slips past a
        // plain `>` order check, and the record after the corrupt one is
        // intact, so a reader that skipped on would deliver it.
        let record2 = 8 + 8 + 4 + 2 * 8 + 2 * RECORD_BYTES;
        for (offset, value) in [(record2 + 8, f64::NAN), (record2 + 16, 2.0)] {
            let f = temp();
            write_run(&f.0, &panda_rows()).unwrap();
            let mut bytes = std::fs::read(&f.0).unwrap();
            bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
            std::fs::write(&f.0, &bytes).unwrap();
            let mut src = FileSource::open(&f.0).unwrap();
            assert!(src.take_error().is_none());
            assert!(src.next_ranked().is_some());
            assert!(src.next_ranked().is_some());
            assert!(src.next_ranked().is_none(), "{value}");
            assert!(src.next_ranked().is_none(), "{value}: read past the error");
            assert_eq!(src.retrieved(), 2);
            let err = src.take_error().expect("the error is held");
            assert!(err.to_string().contains("record 2"), "{err}");
            assert!(src.take_error().is_none());
        }
    }

    /// A rule mass outside `[0, 1 + 1e-9]` fails the open, and one below a
    /// member's probability fails the scan at that member.
    #[test]
    fn rule_masses_are_checked_at_open_and_against_their_members() {
        let f = temp();
        write_run(&f.0, &panda_rows()).unwrap();
        let clean = std::fs::read(&f.0).unwrap();
        let with_mass = |rule: usize, mass: f64| {
            let mut bytes = clean.clone();
            let at = 20 + rule * 8;
            bytes[at..at + 8].copy_from_slice(&mass.to_le_bytes());
            std::fs::write(&f.0, &bytes).unwrap();
        };
        for bad in [f64::NAN, -1.0, 1.5, 1.0 + 1e-8] {
            with_mass(1, bad);
            let err = FileSource::open(&f.0).unwrap_err();
            assert!(err.to_string().contains("at byte 28: rule 1 mass"), "{err}");
        }
        // Rule 1 holds 0.8 (rank 2) and 0.2 (rank 5).
        for understated in [0.0, 1e-300, 0.5] {
            with_mass(1, understated);
            let mut src = FileSource::open(&f.0).unwrap();
            assert_eq!(std::iter::from_fn(|| src.next_ranked()).count(), 2);
            let err = src.take_error().expect("the error is held").to_string();
            assert!(
                err.contains(&format!(
                    "record 2 probability: expected <= rule 1 mass {understated:?}, found 0.8"
                )),
                "{err}"
            );
        }
        // A mass equal to its largest member passes: the check is exact.
        with_mass(1, 0.8);
        let mut src = FileSource::open(&f.0).unwrap();
        assert_eq!(std::iter::from_fn(|| src.next_ranked()).count(), 6);
        assert!(src.take_error().is_none());
    }

    #[test]
    fn empty_run() {
        let f = temp();
        write_run(&f.0, &[]).unwrap();
        let mut src = FileSource::open(&f.0).unwrap();
        assert!(src.next_ranked().is_none());
        assert_eq!(src.remaining(), 0);
    }
}
