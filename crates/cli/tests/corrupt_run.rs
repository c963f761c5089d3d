//! A block-native run file with one flipped record byte: `ptk scan` exits 1
//! and names the block whose checksum failed, never a short answer.

use std::process::{Command, Output};

fn ptk(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ptk"))
        .args(args)
        .output()
        .expect("ptk runs")
}

#[test]
fn scan_of_a_flipped_record_byte_exits_1_naming_the_block_checksum() {
    let dir = std::env::temp_dir().join(format!("ptk-corrupt-run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("t.csv");
    let run = dir.join("t.run");
    let (csv_arg, run_arg) = (csv.to_str().unwrap(), run.to_str().unwrap());

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
        csv_arg,
        "--rank-by",
        "score",
        "--out",
        run_arg,
        "--block-size",
        "512",
    ]);
    assert!(pack.status.success(), "{pack:?}");
    let clean = ptk(&["scan", run_arg, "--k", "5", "--p", "0.3"]);
    assert!(clean.status.success(), "{clean:?}");

    // 200 records at 21 per 512-byte block fill 10 blocks, which end the
    // file; flip a byte of block 0's first record.
    let mut bytes = std::fs::read(&run).unwrap();
    let block0 = bytes.len() - 10 * 512;
    bytes[block0 + 10] ^= 0xFF;
    std::fs::write(&run, &bytes).unwrap();
    let scan = ptk(&["scan", run_arg, "--k", "5", "--p", "0.3"]);
    let stderr = String::from_utf8_lossy(&scan.stderr);
    assert_eq!(scan.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("block 0 checksum"), "{stderr}");
    assert!(scan.stdout.is_empty(), "no answer printed: {scan:?}");

    std::fs::remove_dir_all(&dir).unwrap();
}
