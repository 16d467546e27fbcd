//! The `figures --profile` pipeline: the paper's §4 diagnoses replayed as
//! profiled acceptance scenarios, executed on the sweep pool.
//!
//! Three fixed scenarios, one per mechanism, each engineered to hit the
//! bottleneck the paper attributes to it:
//!
//! - **on-demand** at the paper's default latency: cores block on device
//!   loads (and pay the 2 µs switch when they yield), so the profiler must
//!   blame device wait / context switching;
//! - **prefetch** with MLP beyond the 10 line-fill buffers: the LFB window
//!   pins at capacity, so the profiler must report `lfb_saturated`;
//! - **software queue** with the descriptor ring sized exactly at the peak
//!   outstanding descriptors and the fetcher throttled to single-descriptor
//!   bursts: the ring pins at capacity and requests spend their sojourn
//!   queued, so the profiler must report ring saturation or
//!   queueing-dominated blame.
//!
//! The suite runs through [`run_cells`], so its JSON artifact is
//! byte-identical across `--jobs` values — that is what CI diffs.

use std::fmt::Write as _;

use kus_core::prelude::*;
use kus_sim::trace::json_escape;
use kus_workloads::{Microbench, MicrobenchConfig};

use crate::sweep::{run_cells, SweepCell, SweepOptions};

/// One named profiled scenario plus the verdicts it is expected to fire.
pub struct ProfileScenario {
    /// Stable scenario name (used in artifact paths and dashboards).
    pub name: &'static str,
    /// Verdict names of which at least one must appear in the profile —
    /// the paper's diagnosis for this configuration.
    pub expect: &'static [&'static str],
    /// The runnable experiment (profiling enabled).
    pub exp: Experiment,
}

/// The three acceptance scenarios, in fixed order, all seeded with `seed`.
pub fn profile_scenarios(seed: u64) -> Vec<ProfileScenario> {
    let base = || PlatformConfig::paper_default().without_replay_device().seed(seed).profiled();

    let ondemand = Experiment::new(
        "profile/ondemand-blocked",
        base().mechanism(Mechanism::OnDemand).fibers_per_core(4),
        || {
            Microbench::new(MicrobenchConfig {
                work_count: 100,
                mlp: 2,
                iters_per_fiber: 10,
                writes_per_iter: 0,
            })
        },
    )
    .expect("valid scenario config");

    let prefetch = Experiment::new(
        "profile/prefetch-lfb",
        base().mechanism(Mechanism::Prefetch).fibers_per_core(4),
        || {
            Microbench::new(MicrobenchConfig {
                work_count: 100,
                mlp: 16,
                iters_per_fiber: 10,
                writes_per_iter: 0,
            })
        },
    )
    .expect("valid scenario config");

    let swq = Experiment::new(
        "profile/swq-saturated",
        // Ring sized exactly at the peak outstanding descriptors
        // (fibers × MLP): it pins at capacity — the saturation the
        // profiler must flag — without overflowing (RingFull is a hard
        // config error in the access path, not graceful backpressure).
        base()
            .mechanism(Mechanism::SoftwareQueue)
            .cores(2)
            .fibers_per_core(8)
            .swq_ring_capacity(32)
            .swq_fetch_burst(1),
        || {
            Microbench::new(MicrobenchConfig {
                work_count: 100,
                mlp: 4,
                iters_per_fiber: 16,
                writes_per_iter: 0,
            })
        },
    )
    .expect("valid scenario config");

    vec![
        ProfileScenario {
            name: "ondemand-blocked",
            expect: &["device_wait_bound", "context_switch_bound"],
            exp: ondemand,
        },
        ProfileScenario { name: "prefetch-lfb", expect: &["lfb_saturated"], exp: prefetch },
        ProfileScenario {
            name: "swq-saturated",
            expect: &["ring_saturated", "queueing_bound"],
            exp: swq,
        },
    ]
}

/// One executed scenario: its profile, or why it failed.
pub struct ProfileOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// The §4 verdicts expected of this scenario (any-of).
    pub expect: &'static [&'static str],
    /// The profile, or the cell's error message.
    pub outcome: Result<ProfileReport, String>,
}

impl ProfileOutcome {
    /// Whether any expected verdict fired.
    pub fn matched(&self) -> bool {
        match &self.outcome {
            Ok(p) => self.expect.iter().any(|e| p.verdicts.iter().any(|v| v.name == *e)),
            Err(_) => false,
        }
    }
}

/// All executed scenarios, in [`profile_scenarios`] order.
pub struct ProfileSuite {
    /// Per-scenario outcomes.
    pub outcomes: Vec<ProfileOutcome>,
    /// Pool wall-clock (never part of any emitter output).
    pub wall_seconds: f64,
}

/// Runs the acceptance suite on the sweep pool.
pub fn run_profile_suite(seed: u64, opts: &SweepOptions) -> ProfileSuite {
    let scenarios = profile_scenarios(seed);
    let meta: Vec<(&'static str, &'static [&'static str])> =
        scenarios.iter().map(|s| (s.name, s.expect)).collect();
    let cells = scenarios.into_iter().map(|s| SweepCell::from_experiment(s.exp)).collect();
    let results = run_cells(cells, opts);
    let outcomes = results
        .cells
        .into_iter()
        .zip(meta)
        .map(|(c, (name, expect))| ProfileOutcome {
            name,
            expect,
            outcome: c.outcome.and_then(|r| {
                r.profile.ok_or_else(|| "run produced no ProfileReport".to_string())
            }),
        })
        .collect();
    ProfileSuite { outcomes, wall_seconds: results.wall_seconds }
}

impl ProfileSuite {
    /// Whether every scenario ran and fired an expected verdict.
    pub fn satisfied(&self) -> bool {
        self.outcomes.iter().all(|o| o.matched())
    }

    /// Deterministic JSON: one object per scenario in fixed order, each
    /// embedding the full [`ProfileReport`] JSON. Byte-identical across
    /// `--jobs` values and repeated same-seed runs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"scenarios\":[");
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"expect\":[", o.name);
            for (j, e) in o.expect.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{e}\"");
            }
            let _ = write!(out, "],\"matched\":{}", o.matched());
            match &o.outcome {
                Ok(p) => {
                    out.push_str(",\"ok\":true,\"profile\":");
                    out.push_str(&p.to_json());
                }
                Err(e) => {
                    let _ = write!(out, ",\"ok\":false,\"error\":\"{}\"", json_escape(e));
                }
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    /// Every scenario's text dashboard, concatenated in order.
    pub fn render_dashboards(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            match &o.outcome {
                Ok(p) => out.push_str(&p.dashboard(o.name)),
                Err(e) => {
                    let _ = writeln!(out, "profile: {} FAILED: {e}", o.name);
                }
            }
            let _ = writeln!(
                out,
                "  expected any of [{}]: {}",
                o.expect.join(", "),
                if o.matched() { "MATCHED" } else { "NOT MATCHED" }
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_fixed_and_profiled() {
        let s = profile_scenarios(7);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].name, "ondemand-blocked");
        assert_eq!(s[1].name, "prefetch-lfb");
        assert_eq!(s[2].name, "swq-saturated");
        for sc in &s {
            assert!(sc.exp.config().profile, "{}: profiling must be on", sc.name);
            assert!(!sc.expect.is_empty());
        }
    }

    #[test]
    fn suite_json_is_well_formed_and_reports_matches() {
        let suite = run_profile_suite(7, &SweepOptions::jobs(2));
        assert_eq!(suite.outcomes.len(), 3);
        let json = suite.to_json();
        assert!(json.starts_with("{\"scenarios\":[{\"name\":\"ondemand-blocked\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("\"ok\":true").count(), 3);
    }
}
