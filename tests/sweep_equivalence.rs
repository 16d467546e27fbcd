//! The sweep engine's central guarantee: parallel execution is
//! *observationally invisible*. The same cell set run with `--jobs 1` and
//! `--jobs N` must produce byte-identical JSON/CSV artifacts and identical
//! per-cell trace fingerprints, and the figure pipeline must reproduce the
//! serial `Runner::immediate` output exactly. A panicking cell must poison
//! only its own row.

use kus_bench::serving::{load_sweep, ServingCell};
use kus_bench::sweep::{run_cells, run_figures, run_sweep, SweepCell, SweepOptions, SweepSpec};
use kus_core::prelude::*;
use kus_load::{service_factory, ArrivalProcess, EchoService, LoadSpec};
use kus_workloads::figures::{self, Quality};
use kus_workloads::{Microbench, MicrobenchConfig};

fn tiny_exp(traced: bool) -> Experiment {
    let mc = MicrobenchConfig { work_count: 80, mlp: 1, iters_per_fiber: 10, writes_per_iter: 0 };
    let mut cfg = PlatformConfig::paper_default().without_replay_device();
    if traced {
        cfg = cfg.traced();
    }
    Experiment::new("tiny", cfg, move || Microbench::new(mc)).unwrap()
}

fn spec(traced: bool) -> SweepSpec {
    SweepSpec::new(tiny_exp(traced))
        .mechanisms(&[Mechanism::OnDemand, Mechanism::Prefetch, Mechanism::SoftwareQueue])
        .fibers_per_core(&[1, 4])
        .seeds(&[1, 2])
}

/// Golden: `--jobs 1` and `--jobs 4` emit byte-identical artifacts, and
/// every cell's deterministic trace fingerprint matches between the runs.
#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let serial = run_sweep(&spec(true), &SweepOptions::jobs(1));
    let parallel = run_sweep(&spec(true), &SweepOptions::jobs(4));
    assert_eq!(serial.cells.len(), 12);
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.to_csv(), parallel.to_csv());
    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.index, p.index);
        assert_eq!(s.label, p.label);
        let (sr, pr) = (s.outcome.as_ref().unwrap(), p.outcome.as_ref().unwrap());
        let (st, pt) = (sr.trace.as_ref().unwrap(), pr.trace.as_ref().unwrap());
        assert_eq!(st.hash, pt.hash, "trace fingerprint diverged for {}", s.label);
        assert_eq!(st.count, pt.count);
    }
    // The artifacts really carry the fingerprints (not just nulls).
    assert!(serial.to_json().contains("\"trace_hash\":\""));
}

/// The figure pipeline (collect → pool → cached re-assembly) reproduces the
/// serial `Runner::immediate` figures exactly, at any job count.
#[test]
fn figure_pipeline_matches_serial_runner() {
    let q = Quality { iters: 40, ..Quality::fast() };
    let entries = figures::registry(false);
    let entries: Vec<_> =
        entries.into_iter().filter(|e| e.id == "fig3" || e.id == "fig8").collect();
    let (parallel, results) = run_figures(&entries, q, &SweepOptions::jobs(4));
    assert_eq!(results.errors().count(), 0);
    let serial = [("fig3", vec![figures::fig3(q)]), ("fig8", vec![figures::fig8(q)])];
    for ((pid, pfigs), (sid, sfigs)) in parallel.iter().zip(&serial) {
        assert_eq!(pid, sid);
        assert_eq!(pfigs.len(), sfigs.len());
        for (p, s) in pfigs.iter().zip(sfigs) {
            assert_eq!(p.id, s.id);
            for (ps, ss) in p.series.iter().zip(&s.series) {
                assert_eq!(ps.label, ss.label);
                // Bitwise float equality: same cells, same math, same order.
                for (pp, sp) in ps.points.iter().zip(&ss.points) {
                    assert_eq!(pp.x.to_bits(), sp.x.to_bits(), "{}/{}", p.id, ps.label);
                    assert_eq!(pp.y.to_bits(), sp.y.to_bits(), "{}/{}", p.id, ps.label);
                }
            }
        }
    }
}

/// The load sweep inherits the engine's guarantee wholesale: `--jobs 1`
/// and `--jobs 4` over the mechanism × rate matrix emit byte-identical
/// JSON and CSV, knees included.
#[test]
fn load_sweep_is_byte_identical_across_jobs() {
    let base = ServingCell {
        spec: LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 1.0 }).requests(80),
        cfg: PlatformConfig::paper_default().without_replay_device().cores(2).fibers_per_core(4),
        service: service_factory(|| EchoService::new(256)),
    };
    let mechs = [Mechanism::OnDemand, Mechanism::SoftwareQueue];
    let sweep = load_sweep("echo", base, &mechs, &[500_000, 4_000_000]);
    let serial = sweep.run(&SweepOptions::jobs(1));
    let parallel = sweep.run(&SweepOptions::jobs(4));
    assert_eq!(serial.rows.len(), 4);
    assert_eq!(serial.errors().count(), 0);
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.render_table(), parallel.render_table());
}

/// A workload that panics mid-build.
struct Poisoned;

impl Workload for Poisoned {
    fn name(&self) -> &'static str {
        "poisoned"
    }

    fn build(&mut self, _data: &mut Dataset) {
        panic!("injected test panic");
    }

    fn spawn(&self, _core: usize, _fiber: usize, _total: usize, _ctx: MemCtx) -> FiberFuture {
        unreachable!("build panics first")
    }
}

/// A panicking cell becomes an error row; its neighbours still complete,
/// in order, on every job count.
#[test]
fn panicking_cell_is_isolated() {
    for jobs in [1, 3] {
        let poisoned = Experiment::new(
            "poisoned",
            PlatformConfig::paper_default().without_replay_device(),
            || Poisoned,
        )
        .unwrap();
        let cells = vec![
            SweepCell::from_experiment(tiny_exp(false)),
            SweepCell::from_experiment(poisoned),
            SweepCell::from_experiment(tiny_exp(false)),
        ];
        let results = run_cells(cells, &SweepOptions::jobs(jobs));
        assert_eq!(results.cells.len(), 3);
        assert!(results.cells[0].outcome.is_ok());
        assert!(results.cells[2].outcome.is_ok());
        let err = results.cells[1].outcome.as_ref().unwrap_err();
        assert!(err.contains("injected test panic"), "jobs={jobs}: {err}");
        assert_eq!(results.reports().count(), 2);
        // The error row surfaces in both artifacts.
        assert!(results.to_json().contains("\"ok\":false"));
        assert!(results.to_csv().contains("injected test panic"));
    }
}

/// Identical runs of the two equal cells in the matrix produce identical
/// reports — the engine never lets one cell's state leak into another.
#[test]
fn repeated_cells_are_independent() {
    let cells = vec![
        SweepCell::from_experiment(tiny_exp(false)),
        SweepCell::from_experiment(tiny_exp(false)),
    ];
    let results = run_cells(cells, &SweepOptions::jobs(2));
    let reports: Vec<_> = results.reports().map(|(_, r)| r).collect();
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].elapsed, reports[1].elapsed);
    assert_eq!(reports[0].work_insts, reports[1].work_insts);
    assert_eq!(reports[0].accesses, reports[1].accesses);
}
