//! Regenerates the figures of the paper's evaluation as text tables, and
//! runs ad-hoc configuration sweeps, through the parallel sweep engine.
//!
//! Usage is subcommand-first; the shared flags `--jobs N` (worker
//! threads, 0 = one per hardware thread; output is byte-identical for any
//! N), `--seed S`, `--json PATH`, and `--csv PATH` are parsed in one
//! place and accepted by every mode that runs cells. The pre-subcommand
//! flag spellings (`--sweep`, `--load`, `--trace PATH`, ...) are gone —
//! invoke the subcommand by name.
//!
//! Figure mode (the default, or explicitly `figures figures`):
//!   figures                 # all figures, fast quality (idealized device)
//!   figures --full          # record/replay device, longer loops
//!   figures --fig fig3      # one figure (or a prefix, e.g. --fig fig10)
//!   figures --ablations     # the ablation studies as well
//!   figures --faults plan.toml  # inject the given fault plan into every run
//!
//! `figures sweep` (a declarative matrix over the microbenchmark):
//!   figures sweep --mech swq,prefetch --lat 1us,4us --fibers 1,8,24 \
//!           --cores 1,4 --seeds 1,2 --jobs 4 --json out.json
//!   Axis flags: --mech --lat --cores --fibers --smt --lfbs --credits
//!   --ring --burst --ctx --seeds (comma-separated lists; omitted axes keep
//!   the paper-default value). Latency/ctx values take ns/us suffixes.
//!   Cells print as `index label work_ipc` lines; --json/--csv emit the full
//!   machine-readable results (byte-identical across --jobs values).
//!
//! `figures trace` (Chrome traces and determinism hashes):
//!   figures trace --out out.json [--canonical NAME]  # write a Chrome
//!                               # trace of a canonical run (default
//!                               # swq-optimized) and exit
//!   figures trace --hash        # print each canonical run's trace hash
//!                               # (the determinism fingerprint) and exit
//!   Honours --seed; the hash lines are stable for a given seed, which is
//!   what CI diffs across two invocations.
//!
//! `figures profile` (the §4 acceptance suite: one profiled run per
//! mechanism, each expected to reproduce the paper's diagnosis):
//!   figures profile --out out.json [--speedscope STEM] [--seed S] [--jobs N]
//!   Prints each run's text dashboard, writes the suite's profile JSON
//!   to out.json (byte-identical across --jobs values and repeated
//!   same-seed runs — CI diffs it), and with --speedscope writes one
//!   speedscope flamegraph per run to STEM-<name>.speedscope.json.
//!   Exits non-zero when any run misses its expected verdict.
//!
//! `figures load` (a serving sweep: mechanism × offered Poisson rate):
//!   figures load --service memcached --mech ondemand,prefetch,swq \
//!           --rates 250k,500k,1m,2m,4m --requests 400 --queue-cap 64 \
//!           --cores 2 --fibers 8 --jobs 4 --json load.json --csv load.csv
//!   --service is echo | memcached | bloom (default memcached). --slo-p99 /
//!   --slo-p999 (ns/us suffixes) add an SLO verdict column. Rates accept
//!   k/m suffixes. Prints the throughput–latency curve (p50/p99/p999
//!   columns) and the saturation knee per mechanism; --json/--csv emit the
//!   full per-cell LoadReports, byte-identical across --jobs values.
//!
//! `figures net` (the front-end sweep: NIC model × tier topology ×
//! offered rate, with the dispatcher-only baseline alongside):
//!   figures net --service echo --nics dma,nanopu --topos rpc,fanout4 \
//!           --rates 250k,500k,1m,2m,3m --requests 400 --queue-cap 64 \
//!           --jobs 4 --json net.json --csv net.csv
//!   --nics is any of dma | nanopu; --topos is rpc | fanoutN (e.g.
//!   fanout4). Every run also sweeps `nic=off topo=direct` baseline cells
//!   at the same rates. Prints per-front-end throughput curves with the
//!   wire/NIC/steer/queue/service decomposition, the knee per front end,
//!   and the knee shift vs the baseline; --json/--csv emit the full
//!   per-cell LoadReports + NetReports, byte-identical across --jobs.
//!
//! `figures blame` (the causal critical-path sweep: mechanism × tier
//! topology × offered rate, with the zero-fanout baseline alongside):
//!   figures blame --service echo --mech ondemand,prefetch,swq \
//!           --topos fanout4 --rates 250k,1m,2m --requests 400 \
//!           --jobs 4 --json blame.json --csv blame.csv --trace blame.trace.json
//!   Every cell runs with the causal event class on; each request's span
//!   DAG is rebuilt from the trace and walked for its exact critical
//!   path (fan-in joins resolve to the max child). Prints the critical
//!   tier and its share per cell (overall and exact-p99 tail) and the
//!   critical-tier flips vs the `direct` baseline; --json/--csv emit the
//!   full per-cell BlameReports, byte-identical across --jobs values.
//!   --trace writes a Chrome trace of one representative fan-out run
//!   with causal flow arrows (open in Perfetto to see the waterfall).
//!
//! `figures overload` (a degradation sweep: admission policy × fault plan
//! × offered rate, plus the budgeted/unbudgeted retry pair):
//!   figures overload --service echo --policies static,deadline,adaptive \
//!           --rates 1m,3m --requests 400 --queue-cap 24 --slo-p99 46us \
//!           --jobs 4 --json overload.json --csv overload.csv \
//!           --bench BENCH_overload.json
//!   --policies is any of static | deadline | adaptive; the default axes
//!   are kus-scenario's `MatrixSpec::default()`. Prints the degradation
//!   matrix (goodput/shed/p99 and a graceful/brownout/collapse verdict per
//!   cell); --json/--csv emit the full per-cell reports and recovery
//!   analyses, byte-identical across --jobs values. --faults plan.toml
//!   injects the platform fault plan into every matrix cell (the retry
//!   pair always runs its own fixed latency-spike plan). --bench writes
//!   the wall-clock/events-per-second record (not deterministic —
//!   excluded from CI byte-diffs).
//!
//! `figures simbench` (the simulator-substrate throughput suite: the
//! timing-wheel event core vs the retained heap reference, measured live):
//!   figures simbench [--samples N] [--label wheel-slab] \
//!           [--bench artifacts/simbench/BENCH_simbench.json] \
//!           [--check artifacts/simbench/simbench_check.json]
//!   Prints the per-scenario events/sec table. --bench writes the
//!   wall-clock record with the trajectory history (an existing file's
//!   history is extended, not overwritten); --check writes the
//!   byte-deterministic equivalence artifact that CI diffs across two
//!   invocations. Exits non-zero if the cores diverge (that assertion
//!   panics first).
//!
//! `figures scenario` (one declarative TOML world, compiled and run):
//!   figures scenario scenarios/calm-poisson.toml [--jobs N] \
//!           [--json out.json] [--csv out.csv] [--bench BENCH.json]
//!   Compiles the file through kus-scenario and runs it. A scenario
//!   carrying a `[matrix]` section runs the full overload matrix (policy ×
//!   plan × rate) and emits exactly the `figures overload` artifacts; a
//!   plain scenario runs once and prints its LoadReport (--json emits it).
//!   A scenario carrying an `[expect]` section is an executable claim:
//!   the run exits non-zero when the observed degradation verdict, SLO
//!   outcome, or demonstrated goodput regresses below the expectation.
//!
//! `figures scenario-matrix` (score every mechanism across the corpus):
//!   figures scenario-matrix [--dir scenarios] [--mech ondemand,swq] \
//!           [--jobs N] [--json out.json] [--csv out.csv]
//!   Compiles every *.toml in the corpus directory (sorted by filename; a
//!   file that no longer parses fails the run), runs every scenario under
//!   every mechanism, and prints the scoreboard. Artifacts are
//!   byte-identical across --jobs values.

use kus_bench::profile::run_profile_suite;
use kus_bench::serving::{
    blame_sweep, load_scenario_dir, load_sweep, net_sweep, overload_sweep, scenario_matrix,
    ServingCell, ServingSweep, KNEE_GOODPUT_FRACTION,
};
use kus_bench::sweep::{run_figures, run_sweep, SweepOptions, SweepSpec};
use kus_core::prelude::*;
use kus_load::{
    service_factory, AdmissionControl, ArrivalProcess, EchoService, LoadSpec, NetConfig,
    NicModelKind, ServiceFactory, SloSpec, TierSpec,
};
use kus_scenario::{MatrixSpec, Scenario};
use kus_workloads::figures::{self, Quality};
use kus_workloads::trace_scenarios::{run_trace_scenario, trace_scenarios};
use kus_workloads::{
    BloomConfig, BloomService, MemcachedConfig, MemcachedService, Microbench, MicrobenchConfig,
};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The flags shared by every mode, parsed in exactly one place: `--jobs`
/// (worker threads), `--seed` (platform RNG override), and the `--json` /
/// `--csv` artifact paths.
struct Common {
    jobs: usize,
    seed: Option<u64>,
    json: Option<String>,
    csv: Option<String>,
}

fn common(args: &[String]) -> Common {
    let jobs = match flag_value(args, "--jobs") {
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| fail(format!("--jobs: expected an unsigned integer, got `{s}`"))),
        None => 0,
    };
    let seed = flag_value(args, "--seed").map(|s| {
        s.parse()
            .unwrap_or_else(|_| fail(format!("--seed: expected an unsigned integer, got `{s}`")))
    });
    Common { jobs, seed, json: flag_value(args, "--json"), csv: flag_value(args, "--csv") }
}

impl Common {
    fn opts(&self) -> SweepOptions {
        SweepOptions { jobs: self.jobs, progress: true }
    }
}

/// Writes an artifact, logging the path and a cell count.
fn write_artifact(flag: &str, path: &str, content: &str, cells: usize) {
    if let Err(e) = std::fs::write(path, content) {
        fail(format!("{flag}: cannot write {path}: {e}"));
    }
    eprintln!("# wrote {path} ({cells} cells)");
}

/// Parses `--flag a,b,c` into a vector via `parse`, exiting on bad input.
fn list<T>(args: &[String], flag: &str, parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
    match flag_value(args, flag) {
        None => Vec::new(),
        Some(s) => s
            .split(',')
            .filter(|p| !p.is_empty())
            .map(|p| {
                parse(p.trim()).unwrap_or_else(|| fail(format!("{flag}: cannot parse `{p}`")))
            })
            .collect(),
    }
}

/// Parses `--flag VALUE`, exiting on a value that does not parse.
fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    flag_value(args, flag)
        .map(|v| v.parse().unwrap_or_else(|_| fail(format!("{flag}: bad value `{v}`"))))
}

/// Parses `--flag SPAN` (ns/us suffixes), exiting on bad input.
fn span_flag(args: &[String], flag: &str) -> Option<Span> {
    flag_value(args, flag)
        .map(|s| parse_span(&s).unwrap_or_else(|| fail(format!("{flag}: bad `{s}`"))))
}

/// [`list`], or `default` when the flag is absent.
fn list_or<T: Clone>(
    args: &[String],
    flag: &str,
    parse: impl Fn(&str) -> Option<T>,
    default: &[T],
) -> Vec<T> {
    let v = list(args, flag, parse);
    if v.is_empty() {
        default.to_vec()
    } else {
        v
    }
}

fn parse_span(s: &str) -> Option<Span> {
    if let Some(v) = s.strip_suffix("us") {
        v.parse().ok().map(Span::from_us)
    } else if let Some(v) = s.strip_suffix("ns") {
        v.parse().ok().map(Span::from_ns)
    } else {
        s.parse().ok().map(Span::from_ns)
    }
}

fn parse_mech(s: &str) -> Option<Mechanism> {
    match s {
        "on-demand" | "ondemand" => Some(Mechanism::OnDemand),
        "prefetch" => Some(Mechanism::Prefetch),
        "swq" | "software-queue" => Some(Mechanism::SoftwareQueue),
        _ => None,
    }
}

const TRACE_SEED: u64 = 0xC0FFEE;

/// `figures trace`: `--out PATH` writes a Chrome trace, `--hash` prints
/// the canonical determinism hashes.
fn trace_sub(args: &[String]) -> i32 {
    let out = flag_value(args, "--out");
    let hash_only = args.iter().any(|a| a == "--hash");
    if out.is_none() && !hash_only {
        fail("trace: expected --out PATH or --hash".into());
    }
    let seed = common(args).seed.unwrap_or(TRACE_SEED);
    if hash_only {
        // One line per canonical run: `name hash event-count`.
        for s in trace_scenarios() {
            let r = run_trace_scenario(s.name, seed).expect("canonical scenario");
            let t = r.trace.expect("traced run");
            println!("{} {:016x} {}", s.name, t.hash, t.count);
        }
        return 0;
    }
    let path = out.expect("checked above");
    let canonical =
        flag_value(args, "--canonical").unwrap_or_else(|| "swq-optimized".into());
    let Some(r) = run_trace_scenario(&canonical, seed) else {
        eprintln!(
            "--canonical: unknown `{canonical}`; available: {}",
            trace_scenarios().iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
        );
        return 2;
    };
    let t = r.trace.as_ref().expect("traced run");
    let json = kus_sim::trace::chrome_json(&t.events);
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("--out: cannot write {path}: {e}");
        return 2;
    }
    eprintln!(
        "# {canonical}: {} events, hash {:016x}, {} -> {path}",
        t.count,
        t.hash,
        r.summary()
    );
    0
}

/// Builds the quality (and thus base config) from the shared CLI flags.
fn quality(args: &[String], com: &Common) -> Quality {
    let mut q = if args.iter().any(|a| a == "--full") { Quality::full() } else { Quality::fast() };
    if let Some(path) = flag_value(args, "--faults") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(format!("--faults: cannot read {path}: {e}")));
        q.faults = FaultPlan::parse_toml(&text)
            .unwrap_or_else(|e| fail(format!("--faults: invalid plan in {path}: {e}")));
    }
    q.seed = com.seed.or(q.seed);
    q
}

fn write_artifacts(com: &Common, results: &kus_bench::SweepResults) {
    if let Some(path) = &com.json {
        write_artifact("--json", path, &results.to_json(), results.cells.len());
    }
    if let Some(path) = &com.csv {
        write_artifact("--csv", path, &results.to_csv(), results.cells.len());
    }
}

/// `figures sweep`: a declarative matrix over the microbenchmark.
fn sweep_mode(args: &[String]) -> i32 {
    let com = common(args);
    let q = quality(args, &com);
    let mut cfg = PlatformConfig::paper_default();
    if !q.replay_device {
        cfg = cfg.without_replay_device();
    }
    if q.faults.is_active() {
        cfg = cfg.faults(q.faults);
    }
    let work: u32 = parsed(args, "--work").unwrap_or(100);
    let mc = MicrobenchConfig {
        work_count: work,
        mlp: 1,
        iters_per_fiber: q.iters,
        writes_per_iter: 0,
    };
    let base = Experiment::new(
        format!("ubench w={work} mlp=1 iters={} writes=0", mc.iters_per_fiber),
        cfg,
        move || Microbench::new(mc),
    )
    .unwrap_or_else(|e| fail(format!("base configuration invalid: {e}")));

    let spec = SweepSpec::new(base)
        .mechanisms(&list(args, "--mech", parse_mech))
        .device_latencies(&list(args, "--lat", parse_span))
        .cores(&list(args, "--cores", |s| s.parse().ok()))
        .fibers_per_core(&list(args, "--fibers", |s| s.parse().ok()))
        .smt(&list(args, "--smt", |s| s.parse().ok()))
        .lfb_counts(&list(args, "--lfbs", |s| s.parse().ok()))
        .device_path_credits(&list(args, "--credits", |s| s.parse().ok()))
        .swq_ring_capacities(&list(args, "--ring", |s| s.parse().ok()))
        .swq_fetch_bursts(&list(args, "--burst", |s| s.parse().ok()))
        .ctx_switches(&list(args, "--ctx", parse_span))
        .seeds(&list(args, "--seeds", |s| s.parse().ok()));

    let opts = com.opts();
    eprintln!("# sweep: {} cells, jobs={}", spec.cell_count(), opts.jobs);
    let results = run_sweep(&spec, &opts);
    eprintln!("# sweep: done in {:.2}s", results.wall_seconds);
    for c in &results.cells {
        match &c.outcome {
            Ok(r) => println!("{} {} work_ipc={:.6}", c.index, c.label, r.work_ipc()),
            Err(e) => println!("{} {} ERROR {e}", c.index, c.label),
        }
    }
    write_artifacts(&com, &results);
    i32::from(results.errors().count() > 0)
}

/// `figures profile`: the §4 acceptance suite (see the module docs).
fn profile_mode(args: &[String]) -> i32 {
    let path = flag_value(args, "--out")
        .unwrap_or_else(|| fail("--out: expected an output path".into()));
    let com = common(args);
    let seed: u64 = com.seed.unwrap_or(7);
    let opts = com.opts();
    eprintln!("# profile suite: 3 scenarios, seed={seed}, jobs={}", opts.jobs);
    let suite = run_profile_suite(seed, &opts);
    eprintln!("# profile suite: done in {:.2}s", suite.wall_seconds);
    print!("{}", suite.render_dashboards());
    if let Err(e) = std::fs::write(&path, suite.to_json()) {
        fail(format!("--out: cannot write {path}: {e}"));
    }
    eprintln!("# wrote {path} ({} scenarios)", suite.outcomes.len());
    if let Some(stem) = flag_value(args, "--speedscope") {
        for o in &suite.outcomes {
            if let Ok(p) = &o.outcome {
                let out = format!("{stem}-{}.speedscope.json", o.name);
                if let Err(e) = std::fs::write(&out, p.to_speedscope(o.name)) {
                    fail(format!("--speedscope: cannot write {out}: {e}"));
                }
                eprintln!("# wrote {out}");
            }
        }
    }
    i32::from(!suite.satisfied())
}

/// Resolves a `--service` value to its factory.
fn service_by_name(name: &str) -> ServiceFactory {
    match name {
        "echo" => service_factory(|| EchoService::new(4096)),
        "memcached" => MemcachedService::factory(MemcachedConfig::default()),
        "bloom" => BloomService::factory(BloomConfig::default()),
        other => fail(format!("--service: unknown `{other}` (echo | memcached | bloom)")),
    }
}

/// Parses an offered rate like `250000`, `250k`, or `1.5m` (requests/s).
fn parse_rate(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(v) = s.strip_suffix(['m', 'M']) {
        v.parse::<f64>().ok().map(|x| (x * 1e6) as u64)
    } else if let Some(v) = s.strip_suffix(['k', 'K']) {
        v.parse::<f64>().ok().map(|x| (x * 1e3) as u64)
    } else {
        s.parse().ok()
    }
}

const MECHANISMS: [Mechanism; 3] =
    [Mechanism::OnDemand, Mechanism::Prefetch, Mechanism::SoftwareQueue];

/// The base cell shared by the serving presets (`load`, `net`, `blame`,
/// `overload`): `--service` (default `service`) on 2 cores × `fibers`
/// fibers with the quality, `--faults`, `--seed`, `--cores` and `--fibers`
/// flags applied, and a spec with `--requests` (default 400) and
/// `--queue-cap` (default `queue`). Its arrival is a placeholder each rate
/// point replaces; SLO flags stay per subcommand.
fn serving_base(
    args: &[String],
    com: &Common,
    service: &str,
    fibers: usize,
    queue: usize,
) -> (String, ServingCell) {
    let q = quality(args, com);
    let mut cfg = PlatformConfig::paper_default().cores(2).fibers_per_core(fibers);
    if !q.replay_device {
        cfg = cfg.without_replay_device();
    }
    if q.faults.is_active() {
        cfg = cfg.faults(q.faults);
    }
    if let Some(seed) = q.seed {
        cfg = cfg.seed(seed);
    }
    if let Some(n) = parsed(args, "--cores") {
        cfg = cfg.cores(n);
    }
    if let Some(n) = parsed(args, "--fibers") {
        cfg = cfg.fibers_per_core(n);
    }
    let spec = LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 1.0 })
        .requests(parsed(args, "--requests").unwrap_or(400))
        .queue_capacity(parsed(args, "--queue-cap").unwrap_or(queue));
    let name = flag_value(args, "--service").unwrap_or_else(|| service.into());
    let service = service_by_name(&name);
    (name, ServingCell { spec, cfg, service })
}

/// Runs a serving preset: prints its table and writes its `--json` /
/// `--csv` artifacts (and, given `bench`, the non-deterministic `--bench`
/// record of that suite). Exits non-zero when any cell errored.
fn run_serving(
    what: &str,
    sweep: &ServingSweep,
    args: &[String],
    com: &Common,
    bench: Option<&str>,
) -> i32 {
    let opts = com.opts();
    eprintln!("# {what}: {} cells, jobs={}", sweep.cell_count(), opts.jobs);
    let results = sweep.run(&opts);
    eprintln!("# {what}: done in {:.2}s", results.wall_seconds);
    print!("{}", results.render_table());
    let cells = results.matrix().count();
    if let Some(path) = &com.json {
        write_artifact("--json", path, &results.to_json(), cells);
    }
    if let Some(path) = &com.csv {
        write_artifact("--csv", path, &results.to_csv(), cells);
    }
    if let (Some(suite), Some(path)) = (bench, flag_value(args, "--bench")) {
        if let Err(e) = std::fs::write(&path, results.bench_json(suite)) {
            fail(format!("--bench: cannot write {path}: {e}"));
        }
        eprintln!("# wrote {path}");
    }
    i32::from(results.errors().count() > 0)
}

/// `figures load`: a serving sweep over mechanism × offered Poisson rate.
fn load_mode(args: &[String]) -> i32 {
    let com = common(args);
    let (name, mut base) = serving_base(args, &com, "memcached", 8, 64);
    base.spec.slo = SloSpec {
        p99: span_flag(args, "--slo-p99"),
        p999: span_flag(args, "--slo-p999"),
        ..SloSpec::none()
    };
    let mechs = list_or(args, "--mech", parse_mech, &MECHANISMS);
    let rates = [250_000, 500_000, 1_000_000, 2_000_000, 2_500_000, 3_000_000, 4_000_000];
    let rates = list_or(args, "--rates", parse_rate, &rates);
    run_serving("load sweep", &load_sweep(&name, base, &mechs, &rates), args, &com, None)
}

/// Parses a NIC model name: `dma` | `nanopu`.
fn parse_nic(s: &str) -> Option<NicModelKind> {
    match s {
        "dma" => Some(NicModelKind::dma()),
        "nanopu" | "nano" => Some(NicModelKind::nanopu()),
        _ => None,
    }
}

/// Parses a tier topology: `rpc` or `fanoutN` (e.g. `fanout4`).
fn parse_topo(s: &str) -> Option<TierSpec> {
    match s {
        "rpc" => Some(TierSpec::rpc()),
        _ => s.strip_prefix("fanout").and_then(|w| w.parse().ok()).map(TierSpec::fanout),
    }
}

/// `figures net`: the front-end sweep (NIC model × tier topology × rate,
/// with dispatcher-only baseline cells at the same rates).
fn net_mode(args: &[String]) -> i32 {
    let com = common(args);
    let (name, mut base) = serving_base(args, &com, "echo", 8, 64);
    base.spec.slo = SloSpec { p99: span_flag(args, "--slo-p99"), ..SloSpec::none() };
    // The shared wire/steering knobs; the NIC model axis replaces `nic`.
    let mut net = NetConfig::on();
    if let Some(n) = parsed(args, "--rx-queues") {
        net = net.rx_queues(n);
    }
    if let Some(n) = parsed(args, "--flows") {
        net = net.flows(n);
    }
    if let Some(g) = parsed(args, "--link-gbps") {
        net = net.link_gbps(g);
    }
    if let Some(j) = span_flag(args, "--net-jitter") {
        net = net.jitter(j);
    }
    let nics = list_or(args, "--nics", parse_nic, &[NicModelKind::dma(), NicModelKind::nanopu()]);
    let topos = list_or(args, "--topos", parse_topo, &[TierSpec::rpc(), TierSpec::fanout(4)]);
    let rates =
        list_or(args, "--rates", parse_rate, &[250_000, 500_000, 1_000_000, 2_000_000, 3_000_000]);
    run_serving("net sweep", &net_sweep(&name, base, net, &nics, &topos, &rates), args, &com, None)
}

/// `figures blame`: the causal critical-path sweep (mechanism × tier
/// topology × rate, with the zero-fanout baseline alongside).
fn blame_mode(args: &[String]) -> i32 {
    let com = common(args);
    let (name, base) = serving_base(args, &com, "echo", 8, 64);
    let mechs = list_or(args, "--mech", parse_mech, &MECHANISMS);
    let topos = list_or(args, "--topos", parse_topo, &[TierSpec::fanout(4)]);
    let rates = list_or(args, "--rates", parse_rate, &[250_000, 1_000_000, 2_000_000]);
    let sweep = blame_sweep(&name, base.clone(), &mechs, &topos, &rates);
    let code = run_serving("blame sweep", &sweep, args, &com, None);
    if let Some(path) = flag_value(args, "--trace") {
        // One representative causal fan-out run at the first swept rate:
        // its Chrome trace carries the flow arrows that draw the fan-out
        // and join edges of the span DAG in Perfetto.
        let spec = LoadSpec {
            arrival: ArrivalProcess::Poisson { rate_rps: rates[0] as f64 },
            tiers: topos[0],
            ..base.spec
        };
        let exp = kus_load::load_experiment(
            "blame trace",
            spec,
            base.cfg.causal().traced(),
            base.service,
        )
        .unwrap_or_else(|e| fail(format!("--trace: {e}")));
        let run = exp.run();
        let t = run.trace.as_ref().expect("traced run");
        let arrows = kus_load::flow_arrows(&t.events);
        let json = kus_sim::trace::chrome_json_with_flows(&t.events, &arrows);
        write_artifact("--trace", &path, &json, arrows.len());
    }
    code
}

/// Parses an admission policy by name, with the parameters of the
/// overload defaults ([`MatrixSpec::default`]).
fn parse_policy(s: &str) -> Option<AdmissionControl> {
    MatrixSpec::default().policies.into_iter().find(|p| p.label() == s)
}

/// `figures overload`: the degradation sweep (policy × fault plan × rate,
/// [`MatrixSpec::default`]'s axes unless overridden, plus the retry pair).
fn overload_mode(args: &[String]) -> i32 {
    let com = common(args);
    // Few fibers so queue waits (the admission signal) actually build under
    // overload; the SLO bound sits between deadline-aware's worst drain
    // bucket and static's, which is what the degradation matrix contrasts.
    let (name, mut base) = serving_base(args, &com, "echo", 4, 24);
    base.spec.slo = SloSpec::none().p99(span_flag(args, "--slo-p99").unwrap_or(Span::from_us(46)));
    let mut m = MatrixSpec::default();
    m.policies = list_or(args, "--policies", parse_policy, &m.policies);
    m.rates = list_or(args, "--rates", parse_rate, &m.rates);
    run_serving("overload sweep", &overload_sweep(&name, base, &m), args, &com, Some("overload"))
}

/// `figures scenario FILE`: compile one declarative world and run it.
fn scenario_mode(args: &[String]) -> i32 {
    let file = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .cloned()
        .or_else(|| flag_value(args, "--file"))
        .unwrap_or_else(|| fail("scenario: expected a scenario .toml path".into()));
    let com = common(args);
    let text = std::fs::read_to_string(&file)
        .unwrap_or_else(|e| fail(format!("scenario: cannot read {file}: {e}")));
    let mut sc = Scenario::from_toml(&text)
        .unwrap_or_else(|e| fail(format!("scenario: {file}: {e}")));
    if let Some(seed) = com.seed {
        // --seed overrides even an explicit scenario seed, matching every
        // other mode.
        let spec = sc.spec().clone().seed(seed);
        sc = spec.compile().unwrap_or_else(|e| fail(format!("scenario: {file}: {e}")));
    }
    eprintln!(
        "# scenario {}: service={} fingerprint={:016x}",
        sc.name(),
        sc.service_name(),
        sc.fingerprint()
    );

    if let Some(m) = sc.matrix() {
        // A matrix scenario IS an overload sweep: same preset, same
        // artifacts, byte-for-byte.
        let sweep = overload_sweep(sc.service_name(), ServingCell::from(&sc), m);
        return run_serving("scenario matrix", &sweep, args, &com, Some("overload"));
    }

    let exp = sc.experiment().unwrap_or_else(|e| fail(format!("scenario: {file}: {e}")));
    let run = exp.run();
    let Some(report) = kus_load::LoadReport::from_run(&run) else {
        fail(format!("scenario: {file}: run produced no serving trace events"));
    };
    println!("{}", report.to_table());
    let net_report = kus_load::NetReport::from_run(&run);
    if let Some(n) = &net_report {
        println!("{}", n.to_table());
    }
    let slo = sc.load().slo;
    if slo.p99.is_some() || slo.p999.is_some() || slo.max_shed_fraction.is_some() {
        let v = slo.verdict(&report);
        println!("slo: {}", if v.pass { "pass" } else { "FAIL" });
    }
    // Executable claims: each stated `[expect]` entry is checked against
    // the observed run; any miss fails the invocation.
    let mut code = 0;
    if let Some(want) = sc.expect() {
        let status = |ok: bool| if ok { "ok" } else { "FAIL" };
        if let Some(v) = &want.verdict {
            let got = report.recovery(&slo).verdict.label();
            let ok = got == v;
            println!("expect verdict={v}: observed {got} [{}]", status(ok));
            code |= i32::from(!ok);
        }
        if let Some(pass) = want.slo_pass {
            let got = slo.verdict(&report).pass;
            let ok = got == pass;
            println!(
                "expect slo={}: observed {} [{}]",
                if pass { "pass" } else { "fail" },
                if got { "pass" } else { "fail" },
                status(ok),
            );
            code |= i32::from(!ok);
        }
        if let Some(rate) = want.knee_at_least {
            let ok = report.goodput_rps >= KNEE_GOODPUT_FRACTION * rate;
            println!(
                "expect knee_at_least={rate:.0} rps: goodput {:.0} rps [{}]",
                report.goodput_rps,
                status(ok),
            );
            code |= i32::from(!ok);
        }
        if want.wants_blame() {
            // Blame claims check the causal critical-path decomposition;
            // compile enabled the causal event class for this run.
            let blame = kus_load::BlameReport::from_run(&run)
                .unwrap_or_else(|| fail(format!("scenario: {file}: run produced no blameable requests")));
            println!();
            print!("{}", blame.to_table());
            let got = &blame.overall.critical_tier;
            let share = blame
                .overall
                .hops
                .iter()
                .find(|h| &h.hop == got)
                .map(|h| h.share)
                .unwrap_or(0.0);
            if let Some(tier) = &want.critical_tier {
                let ok = got == tier;
                println!("expect critical_tier={tier}: observed {got} [{}]", status(ok));
                code |= i32::from(!ok);
            }
            if let Some(min) = want.critical_share_at_least {
                let ok = share >= min;
                println!(
                    "expect critical_share_at_least={min:.2}: observed {share:.2} (tier {got}) [{}]",
                    status(ok),
                );
                code |= i32::from(!ok);
            }
        }
    }
    if let Some(path) = &com.json {
        let net_field = match &net_report {
            Some(n) => format!(",\n  \"net\": {}", n.to_json()),
            None => String::new(),
        };
        let json = format!(
            "{{\n  \"scenario\": \"{}\",\n  \"fingerprint\": \"{:016x}\",\n  \"report\": {}{}\n}}\n",
            sc.name(),
            sc.fingerprint(),
            report.to_json(),
            net_field,
        );
        write_artifact("--json", path, &json, 1);
    }
    code
}

/// `figures scenario-matrix`: compile the corpus, score every mechanism.
fn scenario_matrix_mode(args: &[String]) -> i32 {
    let dir = flag_value(args, "--dir").unwrap_or_else(|| "scenarios".into());
    let com = common(args);
    let scenarios = load_scenario_dir(std::path::Path::new(&dir))
        .unwrap_or_else(|e| fail(format!("scenario-matrix: {e}")));
    eprintln!("# scenario-matrix: {} scenarios from {dir}", scenarios.len());
    let sweep = scenario_matrix(&scenarios, &list_or(args, "--mech", parse_mech, &MECHANISMS));
    run_serving("scenario-matrix", &sweep, args, &com, None)
}

/// `figures simbench`: the simulator-substrate throughput suite.
fn simbench_mode(args: &[String]) -> i32 {
    let samples: u32 = parsed(args, "--samples").unwrap_or(3);
    let label = flag_value(args, "--label").unwrap_or_else(|| "wheel-slab".into());
    eprintln!("# simbench: {samples} samples per scenario per core");
    let results = kus_bench::simbench::run_simbench(samples);
    eprintln!("# simbench: done in {:.2}s", results.wall_seconds);
    print!("{}", results.render_table());
    if let Some(path) = flag_value(args, "--bench") {
        // Extend a previously committed trajectory instead of restarting it.
        let history = std::fs::read_to_string(&path).unwrap_or_default();
        let history = kus_bench::simbench::extract_history(&history).to_string();
        if let Err(e) = std::fs::write(&path, results.bench_json(&label, &history)) {
            fail(format!("--bench: cannot write {path}: {e}"));
        }
        eprintln!("# wrote {path}");
    }
    if let Some(path) = flag_value(args, "--check") {
        if let Err(e) = std::fs::write(&path, results.check_json()) {
            fail(format!("--check: cannot write {path}: {e}"));
        }
        eprintln!("# wrote {path}");
    }
    0
}

/// Figure mode: regenerate the paper's evaluation tables (the default).
fn figures_mode(args: &[String]) -> i32 {
    let com = common(args);
    let ablations = args.iter().any(|a| a == "--ablations");
    let only: Option<String> = flag_value(args, "--fig");
    let q = quality(args, &com);
    eprintln!(
        "# quality: iters={} replay_device={} faults={} (use --full for the paper methodology)",
        q.iters,
        q.replay_device,
        if q.faults.is_active() { "active" } else { "off" },
    );

    let include_ablations = ablations
        || only
            .as_deref()
            .map(|o| o.starts_with("ablation") || o.starts_with("ext"))
            .unwrap_or(false);
    let mut entries = figures::registry(include_ablations);
    if let Some(only) = &only {
        entries.retain(|e| e.id.starts_with(only.as_str()));
        if entries.is_empty() {
            fail(format!("--fig: no figure matches prefix `{only}`"));
        }
    }

    let (figsets, results) = run_figures(&entries, q, &com.opts());
    eprintln!(
        "# {} unique cells in {:.2}s ({} errors)",
        results.cells.len(),
        results.wall_seconds,
        results.errors().count(),
    );
    for (id, figs) in figsets {
        eprintln!("# {id}");
        for fig in figs {
            println!("{}", fig.render_table());
        }
    }
    write_artifacts(&com, &results);
    i32::from(results.errors().count() > 0)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Subcommand-first dispatch: the first non-flag argument names the
    // mode; a bare flag list runs figure mode.
    let sub = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .cloned();
    let code = match sub.as_deref() {
        Some(name) => {
            args.remove(0);
            match name {
                "sweep" => sweep_mode(&args),
                "load" => load_mode(&args),
                "net" => net_mode(&args),
                "blame" => blame_mode(&args),
                "overload" => overload_mode(&args),
                "trace" => trace_sub(&args),
                "profile" => profile_mode(&args),
                "simbench" => simbench_mode(&args),
                "scenario" => scenario_mode(&args),
                "scenario-matrix" => scenario_matrix_mode(&args),
                "figures" => figures_mode(&args),
                other => fail(format!(
                    "unknown subcommand `{other}` (sweep | load | net | blame | overload | \
                     trace | profile | simbench | scenario | scenario-matrix | figures)"
                )),
            }
        }
        None => figures_mode(&args),
    };
    std::process::exit(code);
}
