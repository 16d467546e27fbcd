//! The serving-sweep subcommands of `figures` are pinned end to end: each
//! preset, run through the real binary with the arguments the CI smoke
//! jobs use, reproduces the committed `artifacts/sweeps/` (and, for the
//! flagless `figures overload`, `artifacts/overload/`) stdout, JSON and
//! CSV byte for byte, at `--jobs 1` and at `--jobs 4`. These pin the CLI
//! presets themselves — their default axes, columns and summaries — not a
//! test-side mirror of them.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn committed(rel: &str) -> String {
    std::fs::read_to_string(repo_root().join(rel))
        .unwrap_or_else(|e| panic!("missing committed artifact {rel}: {e}"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kus-cli-presets-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `figures ARGS --jobs N --json .. --csv ..` from the repo root and
/// returns (stdout, json, csv).
fn run_figures(tag: &str, args: &[&str], jobs: usize) -> (String, String, String) {
    let dir = temp_dir(&format!("{tag}-j{jobs}"));
    let (json, csv) = (dir.join("out.json"), dir.join("out.csv"));
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .current_dir(repo_root())
        .args(args)
        .arg("--jobs")
        .arg(jobs.to_string())
        .arg("--json")
        .arg(&json)
        .arg("--csv")
        .arg(&csv)
        .output()
        .expect("figures runs");
    assert!(
        out.status.success(),
        "figures {args:?} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |p: &Path| std::fs::read_to_string(p).expect("artifact written");
    let got = (String::from_utf8(out.stdout).expect("utf-8 stdout"), read(&json), read(&csv));
    let _ = std::fs::remove_dir_all(&dir);
    got
}

/// Asserts that `figures ARGS` reproduces `<stem>.{txt,json,csv}` at
/// `--jobs 1` and `--jobs 4`.
fn assert_pinned(tag: &str, args: &[&str], stem: &str) {
    for jobs in [1, 4] {
        let (stdout, json, csv) = run_figures(tag, args, jobs);
        assert_eq!(
            stdout,
            committed(&format!("{stem}.txt")),
            "{stem}.txt diverged at --jobs {jobs}"
        );
        assert_eq!(
            json,
            committed(&format!("{stem}.json")),
            "{stem}.json diverged at --jobs {jobs}"
        );
        assert_eq!(csv, committed(&format!("{stem}.csv")), "{stem}.csv diverged at --jobs {jobs}");
    }
}

#[test]
fn load_preset_reproduces_pinned_artifacts() {
    assert_pinned(
        "load",
        &["load", "--service", "memcached", "--rates", "500k,2m,4m", "--requests", "200"],
        "artifacts/sweeps/load",
    );
}

#[test]
fn net_preset_reproduces_pinned_artifacts() {
    assert_pinned(
        "net",
        &[
            "net",
            "--service",
            "echo",
            "--topos",
            "rpc,fanout4",
            "--rates",
            "250k,1m,3m",
            "--requests",
            "200",
        ],
        "artifacts/sweeps/net",
    );
}

#[test]
fn blame_preset_reproduces_pinned_artifacts() {
    assert_pinned(
        "blame",
        &[
            "blame",
            "--service",
            "echo",
            "--topos",
            "fanout4",
            "--rates",
            "250k,1m,2m",
            "--requests",
            "200",
        ],
        "artifacts/sweeps/blame",
    );
}

#[test]
fn scenario_matrix_preset_reproduces_pinned_artifacts() {
    assert_pinned("scenario-matrix", &["scenario-matrix"], "artifacts/sweeps/scenario-matrix");
}

#[test]
fn flagless_overload_preset_reproduces_committed_artifacts() {
    assert_pinned("overload", &["overload"], "artifacts/overload/overload");
}

/// `figures overload --faults PLAN` injects the platform fault plan into
/// every matrix cell, like `load`/`net`/`blame` do, while the retry pair
/// keeps its fixed latency-spike plan (and the flagless run stays pinned
/// above).
#[test]
fn overload_faults_flag_reaches_the_matrix_cells() {
    let dir = temp_dir("overload-faults");
    let plan = dir.join("plan.toml");
    std::fs::write(&plan, "latency_spike_prob = 0.2\nlatency_spike_ns = 5000\n")
        .expect("plan written");
    let (stdout, json, _) =
        run_figures("overload-faults", &["overload", "--faults", plan.to_str().unwrap()], 2);
    let _ = std::fs::remove_dir_all(&dir);
    assert_ne!(json, committed("artifacts/overload/overload.json"), "--faults was ignored");
    let split =
        |s: &str| s.lines().map(String::from).partition::<Vec<_>, _>(|l| l.starts_with("retry "));
    let ((retry, rows), (pinned_retry, pinned_rows)) =
        (split(&stdout), split(&committed("artifacts/overload/overload.txt")));
    assert_ne!(rows, pinned_rows, "matrix rows must see the plan");
    assert_eq!(retry.len(), 2);
    assert_eq!(retry, pinned_retry, "the retry pair runs its own fixed plan");
}
