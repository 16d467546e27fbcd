//! `paper-figures`: the deduplicated cell set of the fast-quality paper
//! figures Fig. 2 to Fig. 10, run untraced and reassembled into figures.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use kus_core::prelude::{Experiment, Runner};
use kus_core::RunReport;
use kus_workloads::figures::{registry, Quality, RegistryEntry};

use crate::report::Fnv;

/// One figure generator and the cells it requests.
pub struct Entry {
    pub gen: RegistryEntry,
    /// Indices into the cell list of every cell this figure requests.
    pub cells: Vec<usize>,
    /// The subset first requested by this figure, whose host time the
    /// figure is charged with.
    pub owned: Vec<usize>,
}

/// The collected figure plan.
pub struct Plan {
    pub quality: Quality,
    pub entries: Vec<Entry>,
}

/// Collects every figure's cells with a collecting runner, deduplicated
/// across figures by experiment fingerprint in first-request order.
pub fn collect(seed: u64) -> (Plan, Vec<Experiment>) {
    let quality = Quality { seed: Some(seed), ..Quality::fast() };
    let mut cells: Vec<Experiment> = Vec::new();
    let mut seen: HashMap<u64, usize> = HashMap::new();
    let mut entries = Vec::new();
    for gen in registry(false) {
        let runner = Runner::collecting();
        (gen.thunk)(&runner, quality);
        let (mut idx, mut owned) = (Vec::new(), Vec::new());
        for exp in runner.into_cells() {
            let i = *seen.entry(exp.fingerprint()).or_insert_with(|| {
                owned.push(cells.len());
                cells.push(exp);
                cells.len() - 1
            });
            idx.push(i);
        }
        entries.push(Entry { gen, cells: idx, owned });
    }
    (Plan { quality, entries }, cells)
}

/// One rendered panel's digest, or why the figure could not be assembled.
pub struct Panel {
    pub entry: usize,
    pub id: String,
    pub digest: Result<u64, String>,
}

/// Reassembles every figure from the pass's reports with a cached runner
/// and digests each rendered table.
pub fn assemble(plan: &Plan, reports: HashMap<u64, RunReport>) -> Vec<Panel> {
    let runner = Runner::cached(reports);
    let mut out = Vec::new();
    for (e, entry) in plan.entries.iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| (entry.gen.thunk)(&runner, plan.quality))) {
            Ok(figs) => out.extend(figs.iter().map(|f| Panel {
                entry: e,
                id: f.id.to_string(),
                digest: Ok(Fnv::new().eat(f.render_table().as_bytes()).finish()),
            })),
            Err(_) => out.push(Panel {
                entry: e,
                id: entry.gen.id.to_string(),
                digest: Err("figure assembly panicked".into()),
            }),
        }
    }
    out
}
