//! A simulator run gives its memory back.
//!
//! Back-to-back runs of one serving experiment in one process must not
//! grow the resident set: every component, callback and trace buffer a
//! run builds is freed when its report is returned. A reference cycle
//! among the platform's scheduled callbacks would instead leak one working
//! set per run.
//!
//! Linux-only: the resident set is read from `/proc/self/status` (`VmRSS`,
//! in kB, so no page-size assumption); other platforms skip the check.

use kus_scenario::Scenario;

/// The memcached software-queue cell at 2 M rps on 2 cores x 8 fibers:
/// the serving cell with the largest per-run working set.
const CELL: &str = r#"
name = "run-memory swq 2000000rps"
seed = 1

[traffic]
arrival = "poisson"
rate_rps = 2000000.0
requests = 4000

[service]
kind = "memcached"

[platform]
mechanism = "swq"
cores = 2
fibers_per_core = 8
use_replay_device = false
"#;

/// Resident set in bytes, or `None` where `/proc/self/status` is missing.
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb << 10)
}

#[test]
fn back_to_back_runs_do_not_grow_the_resident_set() {
    if rss_bytes().is_none() {
        eprintln!("skipped: no /proc/self/status on this platform");
        return;
    }
    let exp = Scenario::from_toml(CELL).expect("valid cell").experiment().expect("valid experiment");
    let mut rss = Vec::new();
    for _ in 0..6 {
        let report = exp.run();
        assert!(report.accesses > 0, "the cell served nothing");
        drop(report);
        rss.push(rss_bytes().expect("checked above"));
    }
    let grown = rss[5].saturating_sub(rss[1]);
    let mb = |b: u64| b as f64 / (1 << 20) as f64;
    let trail: Vec<String> = rss.iter().map(|&b| format!("{:.1}", mb(b))).collect();
    assert!(
        grown < 5 << 20,
        "resident set grew {:.1} MB from run 2 to run 6 (MB after each run: {})",
        mb(grown),
        trail.join(", ")
    );
}
