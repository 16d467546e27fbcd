//! The workload abstraction: what runs on the platform.

use std::future::Future;
use std::pin::Pin;

use kus_sim::trace::Categories;

use crate::dataset::Dataset;
use crate::exec::MemCtx;

/// A boxed fiber body.
pub type FiberFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A benchmark or application the platform can run.
///
/// The lifecycle is: [`build`](Workload::build) once (lay out the dataset),
/// then [`spawn`](Workload::spawn) once per `(core, fiber)` pair per phase.
/// Because the platform may run a recording phase and a measured phase,
/// `spawn` must be deterministic: the same `(core, fiber)` must produce a
/// fiber that performs the same access sequence in both phases.
pub trait Workload {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Lays out the workload's core data structures in the dataset.
    fn build(&mut self, data: &mut Dataset);

    /// Called before each phase's fibers are spawned with the run's shape;
    /// workloads use it to partition their iteration space.
    fn prepare(&mut self, cores: usize, fibers_per_core: usize) {
        let _ = (cores, fibers_per_core);
    }

    /// Creates the fiber body for `fiber` (of `fibers_total` on this core)
    /// on `core`.
    fn spawn(&self, core: usize, fiber: usize, fibers_total: usize, ctx: MemCtx) -> FiberFuture;

    /// Trace categories this workload's reports read after a run. A
    /// non-empty set turns the measured phase's tracer on and buffers
    /// those categories even when the configuration asks for no trace; a
    /// configuration that does ask (`trace` or `profile`) buffers
    /// everything. The default subscribes to nothing.
    fn subscribes(&self) -> Categories {
        Categories::NONE
    }
}
