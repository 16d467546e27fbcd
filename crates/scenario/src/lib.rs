//! # kus-scenario — declarative worlds for the killer-microsecond simulator
//!
//! One schema composes everything a serving experiment needs — arrival
//! process × key popularity × service × platform × queueing × SLOs ×
//! admission × retry × faults, plus an optional overload matrix — and one
//! two-phase pipeline turns it into something runnable:
//!
//! 1. **Parse** ([`ScenarioSpec::parse`]): TOML text → an unvalidated
//!    spec, with per-field line diagnostics and unknown keys rejected.
//!    The same spec is equally constructible in Rust via
//!    [`ScenarioSpec::new`] and its builders — TOML and the programmatic
//!    API are two front-ends to one type.
//! 2. **Compile** ([`Scenario::compile`]): validate every facet (errors
//!    name their section; no panicking paths, extending the
//!    `PlatformConfig::validate` posture) and freeze an immutable
//!    [`Scenario`] carrying the exact `LoadSpec` + `PlatformConfig` pair
//!    the runners consume, plus an FNV-1a identity fingerprint.
//!
//! A scenario that encodes today's defaults compiles to *exactly* today's
//! experiment — byte-identical artifacts — so the corpus under
//! `scenarios/` is a library of reproducible worlds, not a parallel
//! configuration system.
//!
//! ```
//! use kus_scenario::prelude::*;
//!
//! let sc = Scenario::from_toml(
//!     "name = \"calm\"\n\
//!      [traffic]\n\
//!      arrival = \"poisson\"\n\
//!      rate_rps = 2.0e6\n\
//!      requests = 64\n",
//! )
//! .expect("a valid scenario");
//! assert_eq!(sc.name(), "calm");
//! let report = sc.experiment().expect("builds").run();
//! assert!(!report.elapsed.is_zero());
//! ```
//!
//! Note on crate layering: `kus-scenario` sits *above* `kus-core` (it
//! depends on core, load, and workloads), so core's prelude cannot
//! re-export these types without a dependency cycle. Use
//! [`prelude`](crate::prelude) here instead — it includes everything
//! `kus_core::prelude` has, plus the load-generation and scenario types.

#![warn(missing_docs)]

pub mod error;
pub mod fault;
pub mod scenario;
pub mod spec;
pub mod toml;

pub use error::ScenarioError;
pub use scenario::Scenario;
pub use spec::{ExpectSpec, MatrixSpec, PlatformSpec, ScenarioSpec, ServiceSpec};

/// Everything needed to describe, compile, and run scenarios: the
/// superset of `kus_core::prelude` (which cannot re-export these types —
/// see the crate docs) plus the load and scenario vocabulary.
pub mod prelude {
    pub use kus_core::prelude::*;
    pub use kus_load::{
        AdmissionControl, ArrivalProcess, KeyPopularity, LoadSpec, NetConfig, NicModelKind,
        RetryPolicy, SloSpec, TierSpec, TierTopology,
    };

    pub use crate::error::ScenarioError;
    pub use crate::scenario::Scenario;
    pub use crate::spec::{ExpectSpec, MatrixSpec, PlatformSpec, ScenarioSpec, ServiceSpec};
}
