//! The parallel sweep engine: declarative configuration matrices executed
//! on a `std::thread` work-stealing pool.
//!
//! Every paper figure is a configuration matrix (mechanism × device latency
//! × MLP × fibers × seed) whose cells are independent deterministic
//! [`Experiment`] runs. This module expands such a matrix
//! ([`SweepSpec::expand`]) and executes it in parallel ([`run_cells`]) with:
//!
//! - **shared-nothing workers** — each cell constructs its entire `Sim`
//!   (with its `Rc`/`RefCell` internals) on the worker thread that runs it;
//!   only the [`Experiment`] *description* and the finished [`RunReport`]
//!   cross threads;
//! - **deterministic result ordering** — results are keyed by cell index
//!   and merged in matrix order, so every emitter below is byte-identical
//!   between `--jobs 1` and `--jobs N` (locked down by
//!   `tests/sweep_equivalence.rs`);
//! - **per-cell panic isolation** — a poisoned cell (or one whose
//!   configuration failed validation at expansion time) reports an error
//!   row instead of killing the sweep;
//! - **work stealing** — cells are striped round-robin across per-worker
//!   deques; an idle worker pops its own queue from the front and steals
//!   from the back of its victims', so a queue stuck behind one expensive
//!   cell (an 8-core record/replay run, say) drains through the rest of the
//!   pool;
//! - a **progress/ETA line** on stderr and machine-readable
//!   [JSON](SweepResults::to_json)/[CSV](SweepResults::to_csv) emitters for
//!   `BENCH_*.json`-style artifacts.
//!
//! The figure pipeline ([`run_figures`]) drives the engine through the
//! [`Runner`] protocol: a collect pass harvests every experiment a figure
//! set requests (deduplicated by fingerprint), the pool executes the unique
//! cells, and a cached pass re-assembles the figures from the results —
//! identical output to the serial path, minus the wall-clock.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use kus_core::prelude::*;
use kus_sim::trace::json_escape;
use kus_workloads::figures::{Figure, Quality, RegistryEntry};

/// One expanded matrix cell: a label plus either a runnable experiment or
/// the expansion-time validation error.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Human-readable cell label (base label + the axis values applied).
    pub label: String,
    /// The experiment, or why this cell cannot run.
    pub exp: Result<Experiment, String>,
}

impl SweepCell {
    /// Wraps a standalone experiment as a cell.
    pub fn from_experiment(exp: Experiment) -> SweepCell {
        SweepCell { label: exp.label().to_string(), exp: Ok(exp) }
    }
}

/// A declarative sweep: a base experiment and the axes to vary.
///
/// Empty axes keep the base configuration's value; non-empty axes multiply
/// into the job matrix in the fixed order *mechanism → device latency →
/// cores → fibers/core → SMT → LFBs → device-path credits → ring capacity →
/// fetch burst → ctx switch → seed* (seed innermost), which is also the
/// deterministic result order.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    base: Experiment,
    mechanisms: Vec<Mechanism>,
    device_latencies: Vec<Span>,
    cores: Vec<usize>,
    fibers_per_core: Vec<usize>,
    smt: Vec<usize>,
    lfb_counts: Vec<usize>,
    device_path_credits: Vec<usize>,
    swq_ring_capacities: Vec<usize>,
    swq_fetch_bursts: Vec<usize>,
    ctx_switches: Vec<Span>,
    seeds: Vec<u64>,
}

impl SweepSpec {
    /// A sweep over `base` with no axes (a single cell).
    pub fn new(base: Experiment) -> SweepSpec {
        SweepSpec {
            base,
            mechanisms: Vec::new(),
            device_latencies: Vec::new(),
            cores: Vec::new(),
            fibers_per_core: Vec::new(),
            smt: Vec::new(),
            lfb_counts: Vec::new(),
            device_path_credits: Vec::new(),
            swq_ring_capacities: Vec::new(),
            swq_fetch_bursts: Vec::new(),
            ctx_switches: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// Sweeps the access mechanism.
    pub fn mechanisms(mut self, v: &[Mechanism]) -> Self {
        self.mechanisms = v.to_vec();
        self
    }

    /// Sweeps the host-observed device latency.
    pub fn device_latencies(mut self, v: &[Span]) -> Self {
        self.device_latencies = v.to_vec();
        self
    }

    /// Sweeps the core count.
    pub fn cores(mut self, v: &[usize]) -> Self {
        self.cores = v.to_vec();
        self
    }

    /// Sweeps the fibers-per-core count.
    pub fn fibers_per_core(mut self, v: &[usize]) -> Self {
        self.fibers_per_core = v.to_vec();
        self
    }

    /// Sweeps the SMT context count.
    pub fn smt(mut self, v: &[usize]) -> Self {
        self.smt = v.to_vec();
        self
    }

    /// Sweeps the per-core LFB count.
    pub fn lfb_counts(mut self, v: &[usize]) -> Self {
        self.lfb_counts = v.to_vec();
        self
    }

    /// Sweeps the chip-level device-path queue capacity.
    pub fn device_path_credits(mut self, v: &[usize]) -> Self {
        self.device_path_credits = v.to_vec();
        self
    }

    /// Sweeps the SWQ request-ring capacity.
    pub fn swq_ring_capacities(mut self, v: &[usize]) -> Self {
        self.swq_ring_capacities = v.to_vec();
        self
    }

    /// Sweeps the SWQ descriptor fetch-burst size.
    pub fn swq_fetch_bursts(mut self, v: &[usize]) -> Self {
        self.swq_fetch_bursts = v.to_vec();
        self
    }

    /// Sweeps the user-mode context-switch cost.
    pub fn ctx_switches(mut self, v: &[Span]) -> Self {
        self.ctx_switches = v.to_vec();
        self
    }

    /// Sweeps the platform RNG seed.
    pub fn seeds(mut self, v: &[u64]) -> Self {
        self.seeds = v.to_vec();
        self
    }

    /// The number of cells this spec expands into.
    pub fn cell_count(&self) -> usize {
        fn n<T>(v: &[T]) -> usize {
            v.len().max(1)
        }
        n(&self.mechanisms)
            * n(&self.device_latencies)
            * n(&self.cores)
            * n(&self.fibers_per_core)
            * n(&self.smt)
            * n(&self.lfb_counts)
            * n(&self.device_path_credits)
            * n(&self.swq_ring_capacities)
            * n(&self.swq_fetch_bursts)
            * n(&self.ctx_switches)
            * n(&self.seeds)
    }

    /// Expands the matrix into cells, in matrix order (the axis order
    /// above, each a point list on the `axis_product`). Cells whose
    /// configuration fails [`PlatformConfig::validate`] become error cells
    /// (they report an error row; they never abort the sweep).
    pub fn expand(&self) -> Vec<SweepCell> {
        fn axis<T: Copy + std::fmt::Display + 'static>(
            axes: &mut Vec<Axis<PlatformConfig>>,
            name: &str,
            values: &[T],
            set: fn(PlatformConfig, T) -> PlatformConfig,
        ) {
            if !values.is_empty() {
                axes.push(
                    values
                        .iter()
                        .map(|&v| Point::new(format!("{name}={v}"), Vec::new(), move |c| set(c, v)))
                        .collect(),
                );
            }
        }
        let mut axes = Vec::new();
        axis(&mut axes, "mech", &self.mechanisms, PlatformConfig::mechanism);
        axis(&mut axes, "lat", &self.device_latencies, PlatformConfig::device_latency);
        axis(&mut axes, "cores", &self.cores, PlatformConfig::cores);
        axis(&mut axes, "fibers", &self.fibers_per_core, PlatformConfig::fibers_per_core);
        axis(&mut axes, "smt", &self.smt, PlatformConfig::smt);
        axis(&mut axes, "lfbs", &self.lfb_counts, PlatformConfig::lfbs);
        axis(&mut axes, "credits", &self.device_path_credits, PlatformConfig::device_path_credits);
        axis(&mut axes, "ring", &self.swq_ring_capacities, PlatformConfig::swq_ring_capacity);
        axis(&mut axes, "burst", &self.swq_fetch_bursts, PlatformConfig::swq_fetch_burst);
        axis(&mut axes, "ctx", &self.ctx_switches, PlatformConfig::ctx_switch);
        axis(&mut axes, "seed", &self.seeds, PlatformConfig::seed);
        axis_product(self.base.label(), self.base.config().clone(), &axes)
            .into_iter()
            .map(|c| SweepCell {
                exp: self.base.relabeled(c.label.clone(), c.state).map_err(|e| e.to_string()),
                label: c.label,
            })
            .collect()
    }
}

/// A row key value: what one axis point contributes to a row's identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Key {
    /// A name (mechanism, topology, policy, ...).
    Str(String),
    /// A number (an offered rate).
    Num(u64),
}

impl Key {
    /// The value as a table cell.
    pub fn text(&self) -> String {
        match self {
            Key::Str(s) => s.clone(),
            Key::Num(n) => n.to_string(),
        }
    }

    /// The value as a JSON scalar.
    pub fn json(&self) -> String {
        match self {
            Key::Str(s) => format!("\"{}\"", json_escape(s)),
            Key::Num(n) => n.to_string(),
        }
    }

    /// The value as a CSV field.
    pub fn csv(&self) -> String {
        match self {
            Key::Str(s) => csv_field(s),
            Key::Num(n) => n.to_string(),
        }
    }
}

/// One point on a sweep axis: the tag it appends to a cell label, the row
/// keys it sets, and the setter it applies to the cell state `S`.
pub(crate) struct Point<S> {
    /// Label fragment (`mech=swq`, `rate=250000rps`, ...; empty adds none).
    pub tag: String,
    /// Row keys this point sets, in column order.
    pub keys: Vec<(&'static str, Key)>,
    set: Box<dyn Fn(S) -> S>,
}

impl<S> Point<S> {
    /// A point tagging labels with `tag`, keying rows with `keys`, and
    /// editing the cell state with `set`.
    pub(crate) fn new(
        tag: impl Into<String>,
        keys: Vec<(&'static str, Key)>,
        set: impl Fn(S) -> S + 'static,
    ) -> Point<S> {
        Point { tag: tag.into(), keys, set: Box::new(set) }
    }
}

/// An ordered list of points; a sweep is the product of its axes.
pub(crate) type Axis<S> = Vec<Point<S>>;

/// One combination of an [`axis_product`]: the label, the row keys and the
/// state after every point's setter ran, in axis order.
#[derive(Clone)]
pub(crate) struct Combo<S> {
    /// Base label plus each point's tag, space-separated.
    pub label: String,
    /// Every point's keys, in axis order.
    pub keys: Vec<(&'static str, Key)>,
    /// The edited cell state.
    pub state: S,
}

/// The cartesian product of `axes` over `base`, first axis outermost (the
/// deterministic matrix order every emitter follows).
pub(crate) fn axis_product<S: Clone>(label: &str, base: S, axes: &[Axis<S>]) -> Vec<Combo<S>> {
    let mut combos = vec![Combo { label: label.to_string(), keys: Vec::new(), state: base }];
    for axis in axes {
        combos = combos
            .into_iter()
            .flat_map(|c| {
                axis.iter().map(move |p| {
                    let mut c = c.clone();
                    if !p.tag.is_empty() {
                        if !c.label.is_empty() {
                            c.label.push(' ');
                        }
                        c.label.push_str(&p.tag);
                    }
                    c.keys.extend(p.keys.iter().cloned());
                    c.state = (p.set)(c.state);
                    c
                })
            })
            .collect();
    }
    combos
}

/// Execution options for [`run_cells`].
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads (0 = one per available hardware thread).
    pub jobs: usize,
    /// Emit a progress/ETA line on stderr while the sweep runs.
    pub progress: bool,
}

impl SweepOptions {
    /// Options with an explicit job count and no progress line.
    pub fn jobs(jobs: usize) -> SweepOptions {
        SweepOptions { jobs, progress: false }
    }

    fn resolved_jobs(&self, cells: usize) -> usize {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let want = if self.jobs == 0 { hw } else { self.jobs };
        want.clamp(1, cells.max(1))
    }
}

/// One executed cell, in matrix order.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Cell index in matrix order.
    pub index: usize,
    /// Cell label.
    pub label: String,
    /// The configuration the cell ran (absent when expansion already
    /// failed).
    pub config: Option<PlatformConfig>,
    /// The report, or the panic/validation message for a poisoned cell.
    pub outcome: Result<RunReport, String>,
}

/// All results of one sweep, in matrix order.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// Per-cell results, indexed by matrix order.
    pub cells: Vec<CellResult>,
    /// Wall-clock seconds the pool spent (not part of any emitter output —
    /// the emitters must be byte-identical across job counts).
    pub wall_seconds: f64,
}

impl SweepResults {
    /// Successful (index, report) pairs, in matrix order.
    pub fn reports(&self) -> impl Iterator<Item = (&CellResult, &RunReport)> {
        self.cells.iter().filter_map(|c| c.outcome.as_ref().ok().map(|r| (c, r)))
    }

    /// Error rows, in matrix order.
    pub fn errors(&self) -> impl Iterator<Item = (&CellResult, &str)> {
        self.cells.iter().filter_map(|c| c.outcome.as_ref().err().map(|e| (c, e.as_str())))
    }

    /// Machine-readable JSON (one object per cell, matrix order).
    ///
    /// Byte-identical for a given cell set regardless of `--jobs`: every
    /// value is taken from the deterministic reports, floats are printed
    /// with fixed precision, and no timing or thread identity leaks in.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"index\":{},\"label\":\"{}\"", c.index, json_escape(&c.label)));
            if let Some(cfg) = &c.config {
                out.push_str(&format!(
                    ",\"mechanism\":\"{}\",\"backing\":\"{}\",\"device_latency_ns\":{},\"cores\":{},\"smt\":{},\"fibers_per_core\":{},\"lfbs\":{},\"device_path_credits\":{},\"swq_ring_capacity\":{},\"swq_fetch_burst\":{},\"ctx_switch_ns\":{},\"seed\":{}",
                    cfg.mechanism,
                    cfg.backing,
                    cfg.device_latency.as_ns(),
                    cfg.cores,
                    cfg.smt,
                    cfg.fibers_per_core,
                    cfg.core.lfb_count,
                    cfg.device_path_credits,
                    cfg.swq_ring_capacity,
                    cfg.swq_fetch_burst,
                    cfg.ctx_switch.as_ns(),
                    cfg.seed,
                ));
            }
            match &c.outcome {
                Ok(r) => {
                    out.push_str(&format!(
                        ",\"ok\":true,\"elapsed_ns\":{},\"work_insts\":{},\"accesses\":{},\"writes\":{},\"switches\":{},\"doorbells\":{},\"lfb_max\":{},\"device_path_max\":{},\"work_ipc\":{:.9}",
                        r.elapsed.as_ns(),
                        r.work_insts,
                        r.accesses,
                        r.writes,
                        r.switches,
                        r.doorbells,
                        r.lfb_max,
                        r.device_path_max,
                        r.work_ipc(),
                    ));
                    match &r.trace {
                        Some(t) => out.push_str(&format!(
                            ",\"trace_hash\":\"{:016x}\",\"trace_events\":{}",
                            t.hash, t.count
                        )),
                        None => out.push_str(",\"trace_hash\":null"),
                    }
                }
                Err(e) => {
                    out.push_str(&format!(",\"ok\":false,\"error\":\"{}\"", json_escape(e)));
                }
            }
            out.push('}');
            if i + 1 < self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Machine-readable CSV (header + one row per cell, matrix order).
    /// Deterministic for the same reasons as [`SweepResults::to_json`].
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "index,label,ok,mechanism,backing,device_latency_ns,cores,smt,fibers_per_core,lfbs,device_path_credits,seed,elapsed_ns,work_insts,accesses,work_ipc,trace_hash,error\n",
        );
        for c in &self.cells {
            let (mech, backing, lat, cores, smt, fibers, lfbs, credits, seed) = match &c.config {
                Some(cfg) => (
                    cfg.mechanism.to_string(),
                    cfg.backing.to_string(),
                    cfg.device_latency.as_ns().to_string(),
                    cfg.cores.to_string(),
                    cfg.smt.to_string(),
                    cfg.fibers_per_core.to_string(),
                    cfg.core.lfb_count.to_string(),
                    cfg.device_path_credits.to_string(),
                    cfg.seed.to_string(),
                ),
                None => Default::default(),
            };
            let (ok, elapsed, insts, accesses, ipc, hash, err) = match &c.outcome {
                Ok(r) => (
                    "true",
                    r.elapsed.as_ns().to_string(),
                    r.work_insts.to_string(),
                    r.accesses.to_string(),
                    format!("{:.9}", r.work_ipc()),
                    r.trace.as_ref().map(|t| format!("{:016x}", t.hash)).unwrap_or_default(),
                    String::new(),
                ),
                Err(e) => (
                    "false",
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    e.clone(),
                ),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                c.index,
                csv_field(&c.label),
                ok,
                mech,
                backing,
                lat,
                cores,
                smt,
                fibers,
                lfbs,
                credits,
                seed,
                elapsed,
                insts,
                accesses,
                ipc,
                hash,
                csv_field(&err),
            ));
        }
        out
    }
}

pub(crate) fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_string()
    }
}

/// Executes `cells` on a work-stealing pool and returns results in matrix
/// order. See the module docs for the execution guarantees.
pub fn run_cells(cells: Vec<SweepCell>, opts: &SweepOptions) -> SweepResults {
    let n = cells.len();
    let jobs = opts.resolved_jobs(n);
    let start = Instant::now();

    // Settle expansion-time failures immediately; only runnable cells are
    // striped across the worker deques.
    let mut slots: Vec<Mutex<Option<CellResult>>> = Vec::with_capacity(n);
    let mut runnable: Vec<(usize, &Experiment)> = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        match &c.exp {
            Ok(exp) => {
                slots.push(Mutex::new(None));
                runnable.push((i, exp));
            }
            Err(e) => slots.push(Mutex::new(Some(CellResult {
                index: i,
                label: c.label.clone(),
                config: None,
                outcome: Err(format!("invalid configuration: {e}")),
            }))),
        }
    }
    let queues: Vec<Mutex<VecDeque<(usize, &Experiment)>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for (k, job) in runnable.iter().enumerate() {
        queues[k % jobs].lock().unwrap().push_back(*job);
    }

    let done = AtomicUsize::new(0);
    let total = runnable.len();
    let progress = Mutex::new(());
    std::thread::scope(|s| {
        for w in 0..jobs {
            let queues = &queues;
            let slots = &slots;
            let cells = &cells;
            let done = &done;
            let progress = &progress;
            s.spawn(move || loop {
                // Own queue from the front; victims from the back.
                let mut job = queues[w].lock().unwrap().pop_front();
                if job.is_none() {
                    for v in 1..jobs {
                        job = queues[(w + v) % jobs].lock().unwrap().pop_back();
                        if job.is_some() {
                            break;
                        }
                    }
                }
                let Some((idx, exp)) = job else { break };
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| exp.run())).map_err(panic_message);
                *slots[idx].lock().unwrap() = Some(CellResult {
                    index: idx,
                    label: cells[idx].label.clone(),
                    config: Some(exp.config().clone()),
                    outcome,
                });
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                if opts.progress {
                    let _g = progress.lock().unwrap();
                    let elapsed = start.elapsed().as_secs_f64();
                    let eta = if finished > 0 {
                        elapsed / finished as f64 * (total - finished) as f64
                    } else {
                        0.0
                    };
                    eprint!(
                        "\r# sweep: {finished}/{total} cells ({:.0}%), elapsed {elapsed:.1}s, eta {eta:.1}s   ",
                        100.0 * finished as f64 / total.max(1) as f64,
                    );
                    if finished == total {
                        eprintln!();
                    }
                }
            });
        }
    });

    let results = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every cell settled"))
        .collect();
    SweepResults { cells: results, wall_seconds: start.elapsed().as_secs_f64() }
}

/// Expands and executes a [`SweepSpec`] in one call.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> SweepResults {
    run_cells(spec.expand(), opts)
}

/// Drives a figure registry through the engine: collect pass → parallel
/// execution of the deduplicated experiment set → cached re-assembly.
///
/// Returns the figures per registry entry (in registry order — identical to
/// running each entry serially with [`Runner::immediate`]) plus the raw
/// sweep results for the JSON/CSV emitters. A poisoned cell's figures
/// assemble against a zeroed placeholder report (its rows surface in
/// [`SweepResults::errors`]).
pub fn run_figures(
    entries: &[RegistryEntry],
    q: Quality,
    opts: &SweepOptions,
) -> (Vec<(&'static str, Vec<Figure>)>, SweepResults) {
    // Pass 1: harvest the experiment set (reports are zeroed placeholders).
    let collector = Runner::collecting();
    for e in entries {
        let _ = (e.thunk)(&collector, q);
    }
    let exps = collector.into_cells();
    if opts.progress {
        eprintln!("# sweep: {} unique cells from {} figure generators", exps.len(), entries.len());
    }

    // Pass 2: execute the unique cells on the pool.
    let fingerprints: Vec<u64> = exps.iter().map(|e| e.fingerprint()).collect();
    let placeholders: Vec<RunReport> =
        exps.iter().map(|e| RunReport::placeholder(e.config())).collect();
    let cells = exps.into_iter().map(SweepCell::from_experiment).collect();
    let results = run_cells(cells, opts);

    // Pass 3: re-assemble the figures from the cached reports.
    let mut cache: HashMap<u64, RunReport> = HashMap::new();
    for (i, c) in results.cells.iter().enumerate() {
        let report = match &c.outcome {
            Ok(r) => r.clone(),
            Err(e) => {
                eprintln!("# sweep: cell {} `{}` failed: {e}", c.index, c.label);
                placeholders[i].clone()
            }
        };
        cache.insert(fingerprints[i], report);
    }
    let cached = Runner::cached(cache);
    let figures = entries.iter().map(|e| (e.id, (e.thunk)(&cached, q))).collect();
    (figures, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_workloads::{Microbench, MicrobenchConfig};

    fn tiny_exp() -> Experiment {
        let mc = MicrobenchConfig { work_count: 50, mlp: 1, iters_per_fiber: 8, writes_per_iter: 0 };
        Experiment::new(
            "tiny",
            PlatformConfig::paper_default().without_replay_device(),
            move || Microbench::new(mc),
        )
        .unwrap()
    }

    #[test]
    fn expansion_order_and_count() {
        let spec = SweepSpec::new(tiny_exp())
            .mechanisms(&[Mechanism::OnDemand, Mechanism::Prefetch])
            .fibers_per_core(&[1, 2])
            .seeds(&[3, 4]);
        assert_eq!(spec.cell_count(), 8);
        let cells = spec.expand();
        assert_eq!(cells.len(), 8);
        // Matrix order: mechanism outermost, seed innermost.
        assert!(cells[0].label.contains("mech=on-demand"));
        assert!(cells[0].label.ends_with("seed=3"));
        assert!(cells[1].label.ends_with("seed=4"));
        assert!(cells[4].label.contains("mech=prefetch"));
        for c in &cells {
            assert!(c.exp.is_ok(), "{}", c.label);
        }
    }

    #[test]
    fn invalid_cells_become_error_rows() {
        let spec = SweepSpec::new(tiny_exp())
            .mechanisms(&[Mechanism::Prefetch, Mechanism::SoftwareQueue])
            .swq_ring_capacities(&[0]);
        let cells = spec.expand();
        assert_eq!(cells.len(), 2);
        assert!(cells[0].exp.is_ok(), "ring capacity is irrelevant to prefetch");
        assert!(cells[1].exp.is_err(), "swq with a zero ring must fail validation");
        let results = run_cells(cells, &SweepOptions::jobs(2));
        assert!(results.cells[0].outcome.is_ok());
        let err = results.cells[1].outcome.as_ref().unwrap_err();
        assert!(err.contains("swq_ring_capacity"), "{err}");
        assert_eq!(results.errors().count(), 1);
    }

    #[test]
    fn engine_matches_direct_runs() {
        let spec = SweepSpec::new(tiny_exp()).fibers_per_core(&[1, 2, 4]);
        let results = run_cells(spec.expand(), &SweepOptions::jobs(3));
        for (c, r) in results.reports() {
            let direct = c.config.as_ref().map(|cfg| {
                tiny_exp().with_config(cfg.clone()).unwrap().run()
            });
            let d = direct.expect("runnable cell has a config");
            assert_eq!(r.elapsed, d.elapsed, "{}", c.label);
            assert_eq!(r.work_insts, d.work_insts, "{}", c.label);
        }
    }

    #[test]
    fn json_and_csv_have_one_row_per_cell() {
        let spec = SweepSpec::new(tiny_exp()).seeds(&[1, 2]);
        let results = run_sweep(&spec, &SweepOptions::jobs(1));
        let json = results.to_json();
        assert_eq!(json.matches("\"index\":").count(), 2);
        assert!(json.contains("\"ok\":true"));
        let csv = results.to_csv();
        assert_eq!(csv.lines().count(), 3, "header + 2 rows");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(csv_field("a,b\"c"), "\"a,b\"\"c\"");
    }
}
