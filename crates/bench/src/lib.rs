//! # kus-bench — benchmark harness and the parallel sweep engine
//!
//! The `figures` binary is subcommand-only; shared
//! `--jobs/--seed/--json/--csv` flags parse uniformly across modes:
//!
//! - `cargo run --release -p kus-bench --bin figures [-- figures]
//!   [--fig figN] [--full] [--jobs N] [--json out.json]` (the default
//!   mode) regenerates the data series of every figure in the paper's
//!   evaluation (and the ablations) through the [`sweep`] engine and
//!   prints them as text tables.
//! - `figures sweep` runs a declarative configuration matrix from the
//!   command line (see `--help` in the binary's doc comment).
//! - `figures load`, `net`, `blame`, `overload` and `scenario-matrix`
//!   are presets of the one [`serving`] sweep — each an axis list, a
//!   column list and a post-processor list over the same axis product,
//!   row type and writer:
//!   - `load`: mechanism × offered rate; the throughput–latency curve and
//!     the saturation knee per mechanism;
//!   - `net`: front end (the dispatcher-only baseline, then NIC model ×
//!     tier topology) × offered rate; the knee per front end and its
//!     shift vs the baseline knee;
//!   - `blame`: mechanism × tier topology (the `direct` baseline first) ×
//!     offered rate; the critical tier per cell and its flips vs the
//!     baseline;
//!   - `overload`: admission policy × fault plan × offered rate; the
//!     degradation matrix with a graceful/brownout/collapse verdict per
//!     cell, plus the budgeted-vs-unbudgeted retry pair;
//!   - `scenario-matrix`: every compiled `scenarios/` world × every
//!     access mechanism.
//! - `figures scenario FILE` compiles one `kus-scenario` TOML world and
//!   runs it (a `[matrix]` scenario runs the overload preset,
//!   byte-identical to `figures overload`'s artifacts).
//! - `figures simbench` runs the [`simbench`] suite — event-core
//!   throughput scenarios on the timing-wheel simulator core vs the
//!   retained heap reference — writing the events/sec trajectory record
//!   and a byte-deterministic equivalence check artifact.
//! - `figures profile --out out.json` runs the [`profile`] acceptance
//!   suite — the paper's §4 diagnoses as profiled scenarios — printing
//!   each text dashboard and writing the byte-deterministic profile JSON.
//! - `cargo bench -p kus-bench` runs the wall-clock benchmarks: one scaled-
//!   down configuration per paper figure (so regressions in any modelled
//!   path show up as timing changes) plus microbenchmarks of the simulator
//!   substrate itself.

#![forbid(unsafe_code)]

pub mod harness;
pub mod profile;
pub mod serving;
pub mod simbench;
pub mod sweep;

pub use kus_workloads::figures;
pub use profile::{profile_scenarios, run_profile_suite, ProfileOutcome, ProfileScenario, ProfileSuite};
pub use serving::{
    load_scenario_dir, ServingCell, ServingOutcome, ServingResults, ServingRow, ServingSweep,
    KNEE_GOODPUT_FRACTION,
};
pub use simbench::{run_simbench, ScenarioResult, SimbenchResults};
pub use sweep::{
    run_cells, run_figures, run_sweep, CellResult, Key, SweepCell, SweepOptions, SweepResults,
    SweepSpec,
};
