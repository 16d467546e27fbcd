//! End-to-end benchmark of the killer-usec simulator.
//!
//! One invocation runs one workload, serially on one thread, one cell after
//! another (a closed loop of one). It reaches each layer only through its
//! public functions and times those calls from outside:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-figures|serving-sweep|rpc-blame> --seed <n> \
//!     --seconds <s> --trace <0|1> [--expect-seed <m>] [--write-expected]
//! ```
//!
//! * `--trace 0` runs the production pass, each time in a fresh child
//!   process, until `--seconds` have gone by, and reports the end-to-end
//!   metrics.
//! * `--trace 1` runs the same production passes and then the traced pass,
//!   and reports the per-layer metrics.
//!
//! Host times of the production pass and of set-up are read at a reference
//! host speed, measured with a fixed loop timed beside the cells (see
//! [`reference`]), so a host that runs everything slower for a while does
//! not move them.
//!
//! Every cell is checked: it must not panic or error; serving cells must
//! conserve requests and RPC cells must build a blame report; in the
//! traced pass, the run counters must not depend on tracing or
//! profiling; and where digests are committed for the seed (see
//! `expected/`), the rendered figures or the report JSON and trace hash
//! must match them. The last stdout line is the JSON result; the metric
//! tables go to stderr. Any failed check exits with status 1.

mod paper;
mod reference;
mod report;
mod serving;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use kus_core::prelude::{Dataset, Experiment, Mechanism};
use kus_core::{RunReport, TraceReport};
use kus_load::{BlameReport, LoadReport, NetReport};
use kus_profile::ProfileReport;
use kus_sim::trace::Category;
use kus_sim::TraceEvent;

use reference::{scale, Reference};
use report::{median, peak_rss_mb, result_line, table, tail, Metrics};

/// Set-up is milliseconds long, so it is repeated and its median kept.
const SETUP_REPEATS: usize = 51;

/// Host seconds of cells between two timings of the reference loop.
const PROBE_EVERY_S: f64 = 0.1;

const MECH_NAMES: [&str; 3] = ["ondemand", "prefetch", "swq"];
const CATEGORIES: [(Category, &str); 9] = [
    (Category::Sim, "sim"),
    (Category::Mem, "mem"),
    (Category::Pcie, "pcie"),
    (Category::Device, "device"),
    (Category::Swq, "swq"),
    (Category::Fiber, "fiber"),
    (Category::Exec, "exec"),
    (Category::Load, "load"),
    (Category::Cpu, "cpu"),
];
const FIGURES: [&str; 9] =
    ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"];

fn mech_ix(m: Mechanism) -> usize {
    match m {
        Mechanism::OnDemand => 0,
        Mechanism::Prefetch => 1,
        Mechanism::SoftwareQueue => 2,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    PaperFigures,
    ServingSweep,
    RpcBlame,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper-figures" => Some(Workload::PaperFigures),
            "serving-sweep" => Some(Workload::ServingSweep),
            "rpc-blame" => Some(Workload::RpcBlame),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperFigures => "paper-figures",
            Workload::ServingSweep => "serving-sweep",
            Workload::RpcBlame => "rpc-blame",
        }
    }

    fn serving(self) -> bool {
        self != Workload::PaperFigures
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    expect_seed: u64,
    write_expected: bool,
    /// Internal: run one production pass and print its cell lines.
    one_pass: bool,
    /// Internal: run the traced pass on this one cell and print its line.
    traced_cell: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: Workload::PaperFigures,
        seed: 1,
        seconds: 20.0,
        trace: false,
        expect_seed: u64::MAX,
        write_expected: false,
        one_pass: false,
        traced_cell: None,
    };
    let mut workload = None;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--write-expected" || flag == "--one-pass" {
            a.write_expected |= flag == "--write-expected";
            a.one_pass |= flag == "--one-pass";
            i += 1;
            continue;
        }
        let v = argv.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || v.parse::<u64>().map_err(|_| format!("{flag}: `{v}` is not a whole number"));
        match flag {
            "--workload" => {
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?)
            }
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()? as f64,
            "--trace" => a.trace = num()? != 0,
            "--expect-seed" => a.expect_seed = num()?,
            "--traced-cell" => a.traced_cell = Some(num()? as usize),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
        i += 2;
    }
    a.workload = workload.ok_or("--workload is required")?;
    if a.expect_seed == u64::MAX {
        a.expect_seed = a.seed;
    }
    Ok(a)
}

/// Everything set-up produces: the cells, the figure plan, and the time
/// the scenario layer took.
struct Setup {
    cells: Vec<Experiment>,
    plan: Option<paper::Plan>,
    scenario: serving::ScenarioTimes,
}

fn setup(w: Workload, seed: u64) -> Result<Setup, String> {
    if w == Workload::PaperFigures {
        let (plan, cells) = paper::collect(seed);
        return Ok(Setup { cells, plan: Some(plan), scenario: Default::default() });
    }
    let rpc = w == Workload::RpcBlame;
    let mut times = serving::ScenarioTimes::default();
    let mut cells = Vec::new();
    for toml in serving::generate(seed, rpc) {
        cells.push(serving::compile(&toml, rpc, &mut times)?);
    }
    Ok(Setup { cells, plan: None, scenario: times })
}

/// The run counters the per-layer metrics report. Tracing and profiling
/// must leave them, and the fault report, unchanged (see [`run_digest`]).
#[derive(Debug, Default)]
struct Counts {
    elapsed_ps: u64,
    sim_events: u64,
    work_insts: u64,
    accesses: u64,
    writes: u64,
    switches: u64,
    doorbells: u64,
    lfb_max: u64,
    device_path_max: u64,
    device: [u64; 5],
    link: [u64; 4],
}

impl Counts {
    fn of(r: &RunReport) -> Counts {
        Counts {
            elapsed_ps: r.elapsed.as_ps(),
            sim_events: r.sim_events,
            work_insts: r.work_insts,
            accesses: r.accesses,
            writes: r.writes,
            switches: r.switches,
            doorbells: r.doorbells,
            lfb_max: r.lfb_max,
            device_path_max: r.device_path_max,
            device: r.device.map_or([0; 5], |d| {
                [d.responses, d.replayed, d.ondemand, d.deadline_misses, d.out_of_order]
            }),
            link: r.link.map_or([0; 4], |l| {
                [l.up_wire_bytes, l.up_payload_bytes, l.down_wire_bytes, l.down_payload_bytes]
            }),
        }
    }

    fn to_vec(&self) -> Vec<u64> {
        let mut v = vec![
            self.elapsed_ps,
            self.sim_events,
            self.work_insts,
            self.accesses,
            self.writes,
            self.switches,
            self.doorbells,
            self.lfb_max,
            self.device_path_max,
        ];
        v.extend(self.device.iter().chain(&self.link));
        v
    }

    fn from_slice(v: &[u64]) -> Option<Counts> {
        let (&[elapsed_ps, sim_events, work_insts, accesses, writes], v) = v.split_first_chunk()?;
        let (&[switches, doorbells, lfb_max, device_path_max], v) = v.split_first_chunk()?;
        let (&device, v) = v.split_first_chunk()?;
        Some(Counts {
            elapsed_ps,
            sim_events,
            work_insts,
            accesses,
            writes,
            switches,
            doorbells,
            lfb_max,
            device_path_max,
            device,
            link: v.try_into().ok()?,
        })
    }
}

/// A digest of every run counter and the fault report of a run.
fn run_digest(r: &RunReport) -> u64 {
    report::Fnv::new().eat(format!("{:?} {:?}", Counts::of(r), r.faults).as_bytes()).finish()
}

/// One cell of one production pass.
#[derive(Default)]
struct CellResult {
    /// Host seconds inside `Experiment::run`.
    run_s: f64,
    /// Host seconds for the whole cell: run plus harvest.
    cell_s: f64,
    /// Host seconds of the reference loop beside the cell: the mean of its
    /// timings just before and just after.
    ref_s: f64,
    /// Why the cell failed a check, if it did.
    failure: Option<String>,
    /// Simulated requests completed (dataset accesses for figure cells).
    requests: u64,
    trace_events: u64,
    /// Offered, completed and shed requests (serving cells).
    load: [u64; 3],
    /// [`run_digest`] of the report, compared with the traced pass.
    digest: u64,
    counts: Counts,
}

impl CellResult {
    fn line(&self) -> String {
        let mut f = [self.run_s, self.cell_s, self.ref_s].map(|v| format!("{v:?}")).to_vec();
        let ints =
            [u64::from(self.failure.is_some()), self.requests, self.trace_events, self.digest];
        f.extend(ints.iter().chain(&self.load).chain(&self.counts.to_vec()).map(u64::to_string));
        format!("cell {}", f.join(" "))
    }

    /// Parses [`CellResult::line`]; the failure reason stays in the child's
    /// stderr.
    fn parse(line: &str) -> Option<CellResult> {
        let mut f = line.strip_prefix("cell ")?.split(' ');
        let run_s = f.next()?.parse().ok()?;
        let cell_s = f.next()?.parse().ok()?;
        let ref_s = f.next()?.parse().ok()?;
        let ints: Vec<u64> = f.map(|v| v.parse().ok()).collect::<Option<_>>()?;
        let (&[failed, requests, trace_events, digest, o, c, s], counts) =
            ints.split_first_chunk()?;
        Some(CellResult {
            run_s,
            cell_s,
            ref_s,
            failure: (failed == 1).then(String::new),
            requests,
            trace_events,
            load: [o, c, s],
            digest,
            counts: Counts::from_slice(counts)?,
        })
    }
}

/// One production pass.
struct Pass {
    /// Host seconds of the pass, the reference loop's timings excluded.
    wall_s: f64,
    /// Peak resident memory of the process that ran the pass.
    peak_mb: f64,
    /// Median host seconds of the reference loop over the pass.
    ref_s: f64,
    cells: Vec<CellResult>,
}

/// Digests of the pass's deterministic outputs, each with the cells it
/// covers.
type Digests = Vec<(String, Result<u64, String>, Vec<usize>)>;

fn run_cell<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panicked".into())
    })
}

/// The order a pass runs its cells in: a fixed interleave (cell `i` at the
/// fractional part of `i` times the golden ratio) that spreads each
/// figure's, mechanism's or rate's cells over the whole pass, so a slow
/// stretch of the host does not fall on one group of cells only.
fn run_order(n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    order
}

fn production_pass(w: Workload, s: &Setup) -> (Pass, Digests) {
    let n = s.cells.len();
    let mut reference = Reference::new();
    let mut refs = vec![reference.time()];
    // Cells since the last timing of the reference loop, and their time.
    let (mut pending, mut since) = (Vec::new(), 0.0);
    let mut probe_s = 0.0;
    let start = Instant::now();
    let mut results: Vec<CellResult> = (0..n).map(|_| CellResult::default()).collect();
    let mut harvested = vec![None; n];
    let mut reports = HashMap::new();
    for (k, &i) in run_order(n).iter().enumerate() {
        let cell = &s.cells[i];
        let t = Instant::now();
        let run = run_cell(|| cell.run());
        let mut r = CellResult { run_s: t.elapsed().as_secs_f64(), ..Default::default() };
        match run {
            Err(e) => r.failure = Some(e),
            Ok(report) => {
                r.counts = Counts::of(&report);
                r.digest = run_digest(&report);
                r.trace_events = report.trace.as_ref().map_or(0, |t| t.count);
                if w.serving() {
                    let h = run_cell(|| serving::harvest(&report, w == Workload::RpcBlame))
                        .and_then(|h| h);
                    match h {
                        Ok(h) => {
                            r.requests = h.completed;
                            r.load = [h.offered, h.completed, h.shed];
                            harvested[i] = Some(h.digest);
                        }
                        Err(e) => r.failure = Some(e),
                    }
                } else {
                    r.requests = report.accesses;
                    reports.insert(cell.fingerprint(), report);
                }
            }
        }
        r.cell_s = t.elapsed().as_secs_f64();
        since += r.cell_s;
        results[i] = r;
        pending.push(i);
        if since >= PROBE_EVERY_S || k + 1 == n {
            let t = Instant::now();
            let before = refs[refs.len() - 1];
            let after = reference.time();
            refs.push(after);
            for &j in &pending {
                results[j].ref_s = (before + after) / 2.0;
            }
            (pending, since) = (Vec::new(), 0.0);
            probe_s += t.elapsed().as_secs_f64();
        }
    }
    let mut digests: Digests = Vec::new();
    for (i, d) in harvested.into_iter().enumerate() {
        if let Some(d) = d {
            digests.push((s.cells[i].label().to_string(), Ok(d), vec![i]));
        }
    }
    if let Some(plan) = &s.plan {
        for p in paper::assemble(plan, reports) {
            digests.push((p.id, p.digest, plan.entries[p.entry].cells.clone()));
        }
    }
    let wall_s = start.elapsed().as_secs_f64() - probe_s;
    (Pass { wall_s, peak_mb: peak_rss_mb(), ref_s: median(&refs), cells: results }, digests)
}

fn expected_path(w: Workload, seed: u64) -> String {
    format!("{}/expected/{}.seed{seed}.txt", env!("CARGO_MANIFEST_DIR"), w.name())
}

/// The committed digests for `seed`, if there are any.
fn load_expected(w: Workload, seed: u64) -> Option<BTreeMap<String, String>> {
    let text = std::fs::read_to_string(expected_path(w, seed)).ok()?;
    Some(
        text.lines()
            .filter_map(|l| l.split_once('\t'))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    )
}

fn write_expected(w: Workload, seed: u64, digests: &Digests) -> Result<(), String> {
    let mut text = String::new();
    for (key, d, _) in digests {
        let d = d.as_ref().map_err(|e| format!("{key}: {e}"))?;
        text.push_str(&format!("{key}\t{d:016x}\n"));
    }
    std::fs::write(expected_path(w, seed), text).map_err(|e| e.to_string())
}

/// Marks the cells whose outputs disagree with the committed digests.
fn check_digests(pass: &mut Pass, digests: &Digests, expected: Option<&BTreeMap<String, String>>) {
    for (key, d, cells) in digests {
        let verdict = match (d, expected) {
            (Err(e), _) => Some(e.clone()),
            (Ok(_), None) => None,
            (Ok(d), Some(exp)) => match exp.get(key) {
                Some(want) if *want == format!("{d:016x}") => None,
                Some(want) => Some(format!("{key}: digest {d:016x}, expected {want}")),
                None => Some(format!("{key}: no expected digest")),
            },
        };
        if let Some(v) = verdict {
            for &c in cells {
                pass.cells[c].failure.get_or_insert_with(|| v.clone());
            }
        }
    }
}

/// What the traced pass measures on one cell: host seconds of the
/// untraced and traced reruns and of each public call re-invoked on the
/// captured streams, per-category event counts and accounting classes of
/// the profiled rerun, and a digest of the run counters all three reruns
/// agreed on.
#[derive(Default)]
struct Traced {
    bare_s: f64,
    traced_s: f64,
    trace_build_s: f64,
    report_s: f64,
    net_s: f64,
    blame_s: f64,
    json_s: f64,
    profile_s: f64,
    dataset_s: f64,
    categories: [u64; 9],
    /// Simulated picoseconds per accounting class.
    classes: [u64; 6],
    counts: u64,
}

impl Traced {
    fn secs(&mut self) -> [&mut f64; 9] {
        [
            &mut self.bare_s,
            &mut self.traced_s,
            &mut self.trace_build_s,
            &mut self.report_s,
            &mut self.net_s,
            &mut self.blame_s,
            &mut self.json_s,
            &mut self.profile_s,
            &mut self.dataset_s,
        ]
    }

    fn into_line(mut self) -> String {
        let mut f: Vec<String> = self.secs().iter().map(|v| format!("{:?}", **v)).collect();
        f.extend(self.categories.iter().chain(&self.classes).map(u64::to_string));
        f.push(self.counts.to_string());
        format!("traced {}", f.join(" "))
    }

    fn from_line(line: &str) -> Option<Traced> {
        let mut f = line.strip_prefix("traced ")?.split(' ');
        let mut t = Traced::default();
        for v in t.secs() {
            *v = f.next()?.parse().ok()?;
        }
        for v in t.categories.iter_mut().chain(t.classes.iter_mut()) {
            *v = f.next()?.parse().ok()?;
        }
        t.counts = f.next()?.parse().ok()?;
        Some(t)
    }
}

fn end_of(events: &[TraceEvent]) -> kus_sim::Time {
    events.iter().map(|e| e.at).max().unwrap_or(kus_sim::Time::ZERO)
}

/// The traced pass on one cell: reruns it untraced, traced, and traced +
/// profiled, times the public harvest calls on the captured streams, and
/// checks that the run counters do not move.
fn traced_cell(w: Workload, cell: &Experiment) -> Result<Traced, String> {
    let mut t = Traced::default();
    let cfg = cell.config().clone();
    let mut bare = cfg.clone();
    bare.trace = false;
    bare.profile = false;
    bare.causal = false;
    // A production cell that runs untraced needs no untraced rerun: the
    // parent takes its production time instead (`bare_s` stays 0).
    let skip = usize::from(!(cfg.trace || cfg.profile || cfg.causal));
    let runs = [bare, cfg.clone().traced(), cfg.traced().profiled()];
    let mut digests = Vec::new();
    for (v, cfg) in runs.into_iter().enumerate().skip(skip) {
        let exp = cell.with_config(cfg).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let report = run_cell(|| exp.run())?;
        let secs = start.elapsed().as_secs_f64();
        digests.push(run_digest(&report));
        match v {
            0 => t.bare_s = secs,
            1 => {
                t.traced_s = secs;
                harvest_timings(w, report, &mut t);
            }
            _ => profile_totals(&report, &mut t),
        }
    }
    if digests.iter().any(|d| *d != digests[0]) {
        return Err("run counters differ between untraced, traced and profiled reruns".into());
    }
    t.counts = digests[0];
    let c = cell.config();
    let mut wl = cell.workload();
    let start = Instant::now();
    let mut data = Dataset::new(c.dataset_bytes, c.seed);
    wl.prepare(c.cores * c.smt, c.fibers_per_core);
    wl.build(&mut data);
    t.dataset_s = start.elapsed().as_secs_f64();
    Ok(t)
}

/// Re-invokes each harvest function on a traced run's stream.
fn harvest_timings(w: Workload, mut report: RunReport, t: &mut Traced) {
    let Some(trace) = report.trace.take() else {
        return;
    };
    let (hash, end) = (trace.hash, end_of(&trace.events));
    let start = Instant::now();
    let rebuilt = TraceReport::build(trace.events, end);
    t.trace_build_s = start.elapsed().as_secs_f64();
    assert_eq!(rebuilt.hash, hash, "rebuilt trace report hash");
    if !w.serving() {
        return;
    }
    let ev = &rebuilt.events;
    let start = Instant::now();
    let load = LoadReport::from_events(ev);
    t.report_s = start.elapsed().as_secs_f64();
    let mut json = Vec::new();
    if w == Workload::RpcBlame {
        let start = Instant::now();
        let net = NetReport::from_events(ev);
        t.net_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let blame = BlameReport::from_events(ev);
        t.blame_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        json.push(net.map(|n| n.to_json()));
        json.push(blame.map(|b| b.to_json()));
        t.json_s = start.elapsed().as_secs_f64();
    }
    let start = Instant::now();
    json.push(load.map(|l| l.to_json()));
    t.json_s += start.elapsed().as_secs_f64();
    std::hint::black_box(json);
}

/// Per-category event counts, the profile rebuild time, and the
/// simulated-time accounting classes of a profiled run.
fn profile_totals(report: &RunReport, t: &mut Traced) {
    let (Some(trace), Some(profile)) = (&report.trace, &report.profile) else {
        return;
    };
    for e in &trace.events {
        t.categories[e.cat as usize] += 1;
    }
    let start = Instant::now();
    let rebuilt = ProfileReport::build(&trace.events, profile.ctx.clone());
    t.profile_s = start.elapsed().as_secs_f64();
    for (k, (_, span)) in rebuilt.totals.classes().iter().enumerate() {
        t.classes[k] = span.as_ps();
    }
}

/// This program, as a child process for `a`'s workload and seed.
fn child(a: &Args) -> std::process::Command {
    let exe = std::env::current_exe().expect("the running program has a path");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", a.workload.name(), "--seed", &a.seed.to_string()])
        .stderr(std::process::Stdio::inherit());
    cmd
}

/// Runs one production pass in a child process. A simulator run does not
/// give its memory back, so a fresh process per pass keeps every pass's
/// memory and speed independent of the passes before it.
fn pass_in_child(a: &Args) -> Result<Pass, String> {
    let mut cmd = child(a);
    cmd.args(["--one-pass", "--expect-seed", &a.expect_seed.to_string()]);
    if a.write_expected {
        cmd.arg("--write-expected");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("production pass exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut cells = Vec::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("pass ") {
            let v: Vec<f64> = rest.split(' ').filter_map(|v| v.parse().ok()).collect();
            let &[wall_s, peak_mb, ref_s] = v.as_slice() else {
                return Err("malformed pass line".into());
            };
            return Ok(Pass { wall_s, peak_mb, ref_s, cells });
        }
        cells.push(CellResult::parse(line).ok_or_else(|| format!("malformed cell line `{line}`"))?);
    }
    Err("production pass printed no result".into())
}

/// The child side of [`pass_in_child`]: one checked production pass.
fn one_pass(a: &Args) -> i32 {
    let w = a.workload;
    let s = match setup(w, a.seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return 1;
        }
    };
    let (mut pass, digests) = production_pass(w, &s);
    if a.write_expected {
        if let Err(e) = write_expected(w, a.seed, &digests) {
            eprintln!("perfbench: writing expected digests: {e}");
            return 1;
        }
    }
    check_digests(&mut pass, &digests, load_expected(w, a.expect_seed).as_ref());
    for (cell, r) in s.cells.iter().zip(&pass.cells) {
        if let Some(why) = &r.failure {
            eprintln!("perfbench: check failed: {} ({why})", cell.label());
        }
        println!("{}", r.line());
    }
    println!("pass {:?} {:?} {:?}", pass.wall_s, pass.peak_mb, pass.ref_s);
    0
}

/// Totals of the traced pass over all cells.
#[derive(Default)]
struct TracedTotals {
    sum: Traced,
    /// Simulated picoseconds per mechanism and accounting class.
    shares: [[u64; 6]; 3],
    /// Cells that failed in the traced pass, with the reason.
    failures: Vec<(usize, String)>,
}

/// Runs the traced pass, one child process per cell. A simulator run does
/// not give its memory back, traced runs their event buffers included, so
/// a process per cell keeps the pass's footprint at one cell's.
fn traced_pass(a: &Args, s: &Setup, production: &Pass) -> TracedTotals {
    let mut out = TracedTotals::default();
    let mut shapes = HashSet::new();
    for (i, cell) in s.cells.iter().enumerate() {
        let run = child(a).args(["--traced-cell", &i.to_string()]).output();
        let t = run.map_err(|e| e.to_string()).and_then(|o| {
            let stdout = String::from_utf8_lossy(&o.stdout);
            stdout
                .lines()
                .last()
                .and_then(Traced::from_line)
                .filter(|_| o.status.success())
                .ok_or_else(|| format!("traced rerun exited with {}", o.status))
        });
        let mut t = match t {
            Ok(t) => t,
            Err(e) => {
                out.failures.push((i, e));
                continue;
            }
        };
        if t.bare_s == 0.0 {
            t.bare_s = production.cells[i].run_s;
        }
        if t.counts != production.cells[i].digest {
            out.failures.push((i, "reruns' run counters differ from the production pass".into()));
        }
        if !shapes.insert(cell.label().to_string()) {
            t.dataset_s = 0.0;
        }
        for (acc, v) in out.sum.secs().into_iter().zip(t.secs()) {
            *acc += *v;
        }
        for (acc, v) in out.sum.categories.iter_mut().zip(t.categories) {
            *acc += v;
        }
        for (acc, v) in out.shares[mech_ix(cell.config().mechanism)].iter_mut().zip(t.classes) {
            *acc += v;
        }
    }
    out
}

/// Pins the process, and the children it starts, to the lowest CPU it may
/// run on. On a shared two-vCPU host the two CPUs run this code at
/// different speeds, so a thread that lands on or migrates between them
/// makes whole runs faster or slower; one CPU takes that out.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t` of 1024 CPUs.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: pid 0 is the calling thread, and `size` is the exact byte
    // length of `mask`, which outlives the call.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(word) = mask.iter().position(|&w| w != 0) else {
        return;
    };
    let mut one = [0u64; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: as above, for `one`. A failure leaves the affinity unchanged.
    unsafe { sched_setaffinity(0, size, one.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() {}

fn main() {
    pin_to_one_cpu();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::process::exit(run(&args));
}

fn run(a: &Args) -> i32 {
    let w = a.workload;
    if a.one_pass {
        return one_pass(a);
    }
    if let Some(i) = a.traced_cell {
        let traced = setup(w, a.seed).and_then(|s| {
            let cell = s.cells.get(i).ok_or_else(|| format!("no cell {i}"))?;
            traced_cell(w, cell).map_err(|e| format!("{}: {e}", cell.label()))
        });
        return match traced {
            Ok(t) => {
                println!("{}", t.into_line());
                0
            }
            Err(e) => {
                eprintln!("perfbench: traced pass: {e}");
                1
            }
        };
    }

    // Set-up: seed to runnable cells, repeated; the median is reported.
    // Each repeat is scaled by the reference loop timed before and after.
    let mut reference = Reference::new();
    let mut before = reference.time();
    let mut setup_s = Vec::new();
    let (mut parse_ms, mut compile_ms) = (Vec::new(), Vec::new());
    let mut s = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let x = setup(w, a.seed);
        let secs = start.elapsed().as_secs_f64();
        let after = reference.time();
        let ref_s = (before + after) / 2.0;
        before = after;
        match x {
            Ok(x) => {
                setup_s.push(scale(secs, ref_s));
                parse_ms.push(scale(x.scenario.parse_s, ref_s) * 1e3);
                compile_ms.push(scale(x.scenario.compile_s, ref_s) * 1e3);
                s = Some(x);
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return 1;
            }
        }
    }
    let s = s.expect("set-up ran at least once");

    // Production pass: as users run it, repeated while time allows.
    if load_expected(w, a.expect_seed).is_none() && !a.write_expected {
        eprintln!(
            "perfbench: no committed digests for {} seed {}; digest check skipped",
            w.name(),
            a.expect_seed
        );
    }
    let mut passes: Vec<Pass> = Vec::new();
    let begin = Instant::now();
    loop {
        match pass_in_child(a) {
            Ok(pass) if pass.cells.len() == s.cells.len() => passes.push(pass),
            Ok(_) => {
                eprintln!("perfbench: production pass reported the wrong number of cells");
                return 1;
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return 1;
            }
        }
        if begin.elapsed().as_secs_f64() >= a.seconds {
            break;
        }
    }
    let traced = a.trace.then(|| traced_pass(a, &s, passes.last().expect("one pass ran")));

    let mut m = Metrics::default();
    let n_cells = s.cells.len();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    // Host times are read at the reference speed (see `reference`), and
    // per cell are medians over passes, so a slow moment of the host in
    // one pass moves only the cells it hit.
    let per_cell = |f: fn(&CellResult) -> f64| -> Vec<f64> {
        (0..n_cells)
            .map(|i| median(&passes.iter().map(|p| f(&p.cells[i])).collect::<Vec<_>>()))
            .collect()
    };
    let cell_s = per_cell(|c| scale(c.cell_s, c.ref_s));
    let run_s = per_cell(|c| scale(c.run_s, c.ref_s));
    let total = |v: &[f64], ix: &[usize]| ix.iter().map(|&i| v[i]).sum::<f64>();
    let all: Vec<usize> = (0..n_cells).collect();
    let cells_of = |mech: usize| -> Vec<usize> {
        (0..n_cells).filter(|&i| mech_ix(s.cells[i].config().mechanism) == mech).collect()
    };
    let last = passes.last().expect("one pass ran");

    // Figure assembly and the loop itself, outside any cell.
    let between =
        per_pass(&|p| scale(p.wall_s - p.cells.iter().map(|c| c.cell_s).sum::<f64>(), p.ref_s));
    m.e2e("wall_s", total(&cell_s, &all) + between, "s");
    m.e2e("setup_s", median(&setup_s), "s");
    m.e2e("cell_p50_ms", median(&cell_s) * 1e3, "ms");
    for (k, name) in MECH_NAMES.iter().enumerate() {
        let ix = cells_of(k);
        let requests: u64 = ix.iter().map(|&i| last.cells[i].requests).sum();
        m.e2e(format!("req_per_s.{name}"), requests as f64 / total(&cell_s, &ix), "1/s");
    }
    m.e2e("peak_rss_mb", per_pass(&|p| p.peak_mb), "MB");

    // Per-layer: the scenario layer (set-up) and the production pass.
    let sum = |f: &dyn Fn(&CellResult) -> u64| last.cells.iter().map(f).sum::<u64>();
    let attempted: u64 = passes.iter().map(|p| p.cells.len() as u64).sum();
    let mut failed: u64 =
        passes.iter().map(|p| p.cells.iter().filter(|c| c.failure.is_some()).count() as u64).sum();
    m.layer("scenario.parse_ms", median(&parse_ms), "ms");
    m.layer("scenario.compile_ms", median(&compile_ms), "ms");
    let run_total = total(&run_s, &all);
    m.layer("core.run_s", run_total, "s");
    for (k, name) in MECH_NAMES.iter().enumerate() {
        m.layer(format!("core.run_s.{name}"), total(&run_s, &cells_of(k)), "s");
    }
    m.layer("core.cells", n_cells as f64, "count");
    m.layer("host.wall_s", per_pass(&|p| p.wall_s), "s");
    m.layer("host.ref_ms", per_pass(&|p| p.ref_s) * 1e3, "ms");
    let pooled: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cells.iter().map(|c| scale(c.cell_s, c.ref_s) * 1e3))
        .collect();
    let (tail_ms, tail_pct) = tail(&pooled);
    m.layer("core.cell_tail_ms", tail_ms, "ms");
    m.layer("core.cell_tail_pct", tail_pct, "%");
    let TracedTotals { sum: t, shares, failures } = traced.unwrap_or_default();
    m.layer("core.dataset_build_ms", t.dataset_s * 1e3, "ms");
    m.layer("core.trace_build_ms", t.trace_build_s * 1e3, "ms");
    let sim_events = sum(&|c| c.counts.sim_events);
    m.layer("sim.events", sim_events as f64, "count");
    m.layer("sim.events_per_s", sim_events as f64 / run_total, "1/s");
    let trace_events = sum(&|c| c.trace_events);
    m.layer("sim.trace_events", trace_events as f64, "count");
    for (k, (_, name)) in CATEGORIES.iter().enumerate() {
        m.layer(format!("sim.trace_events.{name}"), t.categories[k] as f64, "count");
    }
    let event_bytes = std::mem::size_of::<TraceEvent>() as f64;
    m.layer("sim.trace_mb", trace_events as f64 * event_bytes / 1e6, "MB");
    m.layer("sim.trace_overhead", t.traced_s / t.bare_s, "ratio");
    m.layer("load.report_ms", t.report_s * 1e3, "ms");
    m.layer("load.net_report_ms", t.net_s * 1e3, "ms");
    m.layer("load.blame_ms", t.blame_s * 1e3, "ms");
    m.layer("load.json_ms", t.json_s * 1e3, "ms");
    let [offered, completed, shed] = [0, 1, 2].map(|k| sum(&|c| c.load[k]));
    m.layer("load.offered", offered as f64, "count");
    m.layer("load.completed", completed as f64, "count");
    m.layer("load.shed", shed as f64, "count");
    m.layer("load.goodput_frac", completed as f64 / offered as f64, "ratio");
    m.layer("load.trace_events_per_req", trace_events as f64 / offered as f64, "count");
    for (e, fig) in FIGURES.iter().enumerate() {
        let secs = s.plan.as_ref().map_or(0.0, |plan| total(&cell_s, &plan.entries[e].owned));
        m.layer(format!("workloads.{fig}_s"), secs, "s");
    }
    m.layer("profile.build_ms", t.profile_s * 1e3, "ms");
    for (k, class) in kus_profile::account::CLASS_NAMES.iter().enumerate() {
        for (mech, name) in MECH_NAMES.iter().enumerate() {
            let total: u64 = shares[mech].iter().sum();
            m.layer(
                format!("cpu.share.{class}.{name}"),
                shares[mech][k] as f64 / total as f64,
                "ratio",
            );
        }
    }
    m.layer("cpu.work_insts", sum(&|c| c.counts.work_insts) as f64, "count");
    m.layer("mem.accesses", sum(&|c| c.counts.accesses) as f64, "count");
    let max = |f: &dyn Fn(&CellResult) -> u64| last.cells.iter().map(f).max().unwrap_or(0) as f64;
    m.layer("mem.lfb_max", max(&|c| c.counts.lfb_max), "count");
    m.layer("mem.device_path_max", max(&|c| c.counts.device_path_max), "count");
    m.layer("fiber.switches", sum(&|c| c.counts.switches) as f64, "count");
    m.layer("swq.doorbells", sum(&|c| c.counts.doorbells) as f64, "count");
    let up_wire = sum(&|c| c.counts.link[0]);
    m.layer("pcie.up_wire_mb", up_wire as f64 / 1e6, "MB");
    m.layer("pcie.payload_frac", sum(&|c| c.counts.link[1]) as f64 / up_wire as f64, "ratio");
    m.layer("device.responses", sum(&|c| c.counts.device[0]) as f64, "count");
    m.layer("device.deadline_misses", sum(&|c| c.counts.device[3]) as f64, "count");

    for (i, why) in &failures {
        eprintln!("perfbench: check failed: {} ({why})", s.cells[*i].label());
    }
    failed += failures.len() as u64;
    let attempted = attempted + if a.trace { n_cells as u64 } else { 0 };
    m.layer("failed_frac", failed as f64 / attempted as f64, "ratio");

    eprintln!(
        "perfbench: {} seed {} — {} cells x {} production pass(es){}",
        w.name(),
        a.seed,
        n_cells,
        passes.len(),
        if a.trace { " + traced pass" } else { "" }
    );
    eprint!("{}", table("end-to-end (production pass)", &m.end_to_end));
    eprint!("{}", table("per-layer", &m.per_layer));
    let correct = failed == 0;
    let metrics = if a.trace { &m.per_layer } else { &m.end_to_end };
    println!("{}", result_line(correct, attempted, failed, metrics));
    if correct {
        0
    } else {
        1
    }
}
