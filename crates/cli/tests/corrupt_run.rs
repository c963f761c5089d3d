//! A corrupt block-native run file: `ptk scan` exits 1 with an error that
//! names what is wrong and prints nothing on stdout, never a short or
//! wrong answer.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn ptk(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ptk"))
        .args(args)
        .output()
        .expect("ptk runs")
}

/// A 200-tuple synthetic table with 20 rules packed at 512 B blocks (21
/// records each, 10 blocks that end the file) into a directory of its own.
/// Returns the directory and the run file's path; the clean file scans.
fn packed_run(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ptk-corrupt-run-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("t.csv");
    let run = dir.join("t.run");
    let table = ptk(&[
        "generate",
        "synthetic",
        "--tuples",
        "200",
        "--rules",
        "20",
        "--seed",
        "3",
    ]);
    assert!(table.status.success(), "{table:?}");
    std::fs::write(&csv, &table.stdout).unwrap();
    let pack = ptk(&[
        "pack",
        csv.to_str().unwrap(),
        "--rank-by",
        "score",
        "--out",
        run.to_str().unwrap(),
        "--block-size",
        "512",
    ]);
    assert!(pack.status.success(), "{pack:?}");
    let clean = scan(&run);
    assert!(clean.status.success(), "{clean:?}");
    (dir, run)
}

fn scan(run: &Path) -> Output {
    ptk(&["scan", run.to_str().unwrap(), "--k", "5", "--p", "0.3"])
}

/// Scans `run` and asserts exit 1, `needle` in the error and an empty
/// stdout.
fn assert_refused(run: &Path, needle: &str) {
    let scan = scan(run);
    let stderr = String::from_utf8_lossy(&scan.stderr);
    assert_eq!(scan.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(needle), "{needle:?} not in {stderr}");
    assert!(scan.stdout.is_empty(), "no answer printed: {scan:?}");
}

const BLOCKS: usize = 10;
const BLOCK_BYTES: usize = 512;
const RECORD_BYTES: usize = 24;
const DIR_ENTRY_BYTES: usize = 36;

/// The offset of block 0's frame.
fn data_start(bytes: &[u8]) -> usize {
    bytes.len() - BLOCKS * BLOCK_BYTES
}

/// The offset of block `b`'s directory entry.
fn entry(bytes: &[u8], b: usize) -> usize {
    data_start(bytes) - (BLOCKS - b) * DIR_ENTRY_BYTES
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

#[test]
fn scan_of_a_flipped_record_byte_exits_1_naming_the_block_checksum() {
    let (dir, run) = packed_run("crc");
    // Flip a byte of block 0's first record.
    let mut bytes = std::fs::read(&run).unwrap();
    let block0 = data_start(&bytes);
    bytes[block0 + 10] ^= 0xFF;
    std::fs::write(&run, &bytes).unwrap();
    assert_refused(&run, "block 0 checksum");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A rule-free flag on a block that holds a rule member would let the
/// block-skip path absorb that member as an independent: `ptk scan`
/// refuses the file at open instead, naming the block.
#[test]
fn scan_of_a_rule_free_flag_over_a_rule_member_exits_1_naming_the_block() {
    let (dir, run) = packed_run("flag");
    let clean = std::fs::read(&run).unwrap();
    let mut refused = 0;
    for b in 0..BLOCKS {
        let flags = entry(&clean, b) + 4;
        if u32_at(&clean, flags) & 1 != 0 {
            continue;
        }
        let mut bytes = clean.clone();
        bytes[flags] |= 1;
        std::fs::write(&run, &bytes).unwrap();
        assert_refused(
            &run,
            &format!("block {b} flags: expected no rule-free bit, as rule "),
        );
        refused += 1;
    }
    assert!(refused > 0, "no block holds a rule member");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A record that names a rule whose layout does not list its rank, under a
/// checksum that matches, fails the scan naming the record.
#[test]
fn scan_of_a_record_outside_its_rules_layout_exits_1_naming_the_record() {
    let (dir, run) = packed_run("rule");
    let mut bytes = std::fs::read(&run).unwrap();
    let rules = u32_at(&bytes, 20);
    let start = data_start(&bytes);
    let records = 200;
    let capacity = BLOCK_BYTES / RECORD_BYTES;
    // The first rule member, moved to the next rule, whose layout lists
    // other ranks: each rank belongs to one rule at most.
    let rank = (0..records)
        .find(|&r| {
            let at = start + (r / capacity) * BLOCK_BYTES + (r % capacity) * RECORD_BYTES;
            u32_at(&bytes, at + 4) != u32::MAX
        })
        .expect("the table has rule members");
    let (b, slot) = (rank / capacity, rank % capacity);
    let frame = start + b * BLOCK_BYTES;
    let at = frame + slot * RECORD_BYTES + 4;
    let other = (u32_at(&bytes, at) + 1) % rules;
    bytes[at..at + 4].copy_from_slice(&other.to_le_bytes());
    let held = u32_at(&bytes, entry(&bytes, b)) as usize;
    let crc = ptk_access::crc32(&bytes[frame..frame + held * RECORD_BYTES]);
    let crc_at = entry(&bytes, b) + 32;
    bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&run, &bytes).unwrap();
    assert_refused(
        &run,
        &format!(
            "record {rank} rule: expected a rule whose layout lists rank {rank}, found {other}"
        ),
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
