//! The correctness check must bite: outputs of one seed checked against
//! another seed's committed digests count as failed cells and a non-zero
//! exit, while the matching digests pass. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

/// Runs one production pass of `serving-sweep` at seed 1, checked against
/// the digests committed for `expect_seed`; returns the exit code and the
/// result line.
fn run(expect_seed: u64) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "serving-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .args(["--expect-seed", &expect_seed.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code().expect("exited normally"), last)
}

fn field(line: &str, key: &str) -> u64 {
    let at = line.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
    line[at..].split(|c: char| !c.is_ascii_digit()).next().unwrap().parse().unwrap()
}

#[test]
fn matching_digests_pass() {
    let (code, line) = run(1);
    assert_eq!(code, 0, "{line}");
    assert!(line.contains("\"correct\": true"), "{line}");
    assert_eq!(field(&line, "failed"), 0);
}

#[test]
fn another_seeds_digests_fail_every_cell() {
    let (code, line) = run(2);
    assert_ne!(code, 0, "{line}");
    assert!(line.contains("\"correct\": false"), "{line}");
    assert_eq!(field(&line, "failed"), field(&line, "attempted"));
    assert!(field(&line, "failed") > 0);
}
