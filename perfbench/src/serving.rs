//! `serving-sweep` and `rpc-blame`: open-loop Poisson serving cells
//! written as scenario TOML and run through the scenario compiler.

use std::time::Instant;

use kus_core::prelude::Experiment;
use kus_core::RunReport;
use kus_load::{load_experiment, BlameReport, LoadReport, NetReport};
use kus_scenario::{Scenario, ScenarioSpec};

use crate::report::Fnv;

/// Requests per cell: open-loop Poisson arrivals in simulated time.
const REQUESTS: usize = 4000;

/// Offered rates for `serving-sweep`: below, at and above the memcached
/// knee (about 2 to 2.5 M rps on 2 cores x 8 fibers), so both the idle and
/// the shed paths run.
const SERVING_RATES: [u64; 5] = [1_000_000, 1_500_000, 2_000_000, 2_500_000, 3_500_000];

/// Offered rates for `rpc-blame`: the top rate sheds on every mechanism.
const RPC_RATES: [u64; 3] = [1_000_000, 2_500_000, 4_000_000];

/// Writes every cell of the workload as scenario TOML, seeded by `seed`.
pub fn generate(seed: u64, rpc: bool) -> Vec<String> {
    let mut out = Vec::new();
    let nics: &[&str] = if rpc { &["dma", "nanopu"] } else { &["off"] };
    for mech_name in crate::MECH_NAMES {
        for nic in nics {
            let rates: &[u64] = if rpc { &RPC_RATES } else { &SERVING_RATES };
            for rate in rates {
                let (name, service, extra) = if rpc {
                    (
                        format!("rpc-blame {mech_name} {nic} {rate}rps"),
                        "echo",
                        format!("\n[net]\nmodel = \"{nic}\"\n\n[tiers]\ntopology = \"fanout\"\nfanout = 4\n"),
                    )
                } else {
                    (format!("serving-sweep {mech_name} {rate}rps"), "memcached", String::new())
                };
                let toml = format!(
                    "name = \"{name}\"\nseed = {seed}\n\n\
                     [traffic]\narrival = \"poisson\"\nrate_rps = {rate}.0\nrequests = {REQUESTS}\n\n\
                     [service]\nkind = \"{service}\"\n\n\
                     [platform]\nmechanism = \"{mech_name}\"\ncores = 2\nfibers_per_core = 8\n\
                     use_replay_device = false\n{extra}"
                );
                out.push(toml);
            }
        }
    }
    out
}

/// Host seconds spent in the scenario layer while compiling the cells.
#[derive(Default, Clone, Copy)]
pub struct ScenarioTimes {
    pub parse_s: f64,
    pub compile_s: f64,
}

/// Parses and compiles one cell into its production experiment. RPC cells
/// turn the causal event class on so fan-out joins resolve to a shard.
pub fn compile(toml: &str, rpc: bool, t: &mut ScenarioTimes) -> Result<Experiment, String> {
    let start = Instant::now();
    let spec = ScenarioSpec::parse(toml).map_err(|e| e.to_string())?;
    let parsed = Instant::now();
    let sc = Scenario::compile(spec).map_err(|e| e.to_string())?;
    t.parse_s += (parsed - start).as_secs_f64();
    t.compile_s += parsed.elapsed().as_secs_f64();
    let cfg = if rpc { sc.cfg().clone().causal() } else { sc.cfg().clone() };
    load_experiment(sc.name(), sc.load(), cfg, sc.service()).map_err(|e| e.to_string())
}

/// What one serving cell yields after harvest.
pub struct Harvest {
    pub offered: u64,
    pub completed: u64,
    pub shed: u64,
    /// Digest of the report JSON and the trace hash.
    pub digest: u64,
}

/// Harvests a finished serving run the way a user does: the load report,
/// and for RPC cells the NIC and blame reports, all from the one trace.
/// Checks conservation; building the blame report runs its bit-exact
/// telescoping assertion.
pub fn harvest(report: &RunReport, rpc: bool) -> Result<Harvest, String> {
    let trace = report.trace.as_ref().ok_or("serving run carried no trace")?;
    let load = LoadReport::from_events(&trace.events).ok_or("no serving events in the trace")?;
    if load.offered != load.completed + load.shed {
        return Err(format!(
            "conservation: offered {} != completed {} + shed {}",
            load.offered, load.completed, load.shed
        ));
    }
    let mut digest = Fnv::new().eat(load.to_json().as_bytes());
    if rpc {
        let net = NetReport::from_events(&trace.events).ok_or("no NIC events in the trace")?;
        let blame = BlameReport::from_events(&trace.events).ok_or("no blame report")?;
        digest = digest.eat(net.to_json().as_bytes()).eat(blame.to_json().as_bytes());
    }
    Ok(Harvest {
        offered: load.offered,
        completed: load.completed,
        shed: load.shed,
        digest: digest.eat(&trace.hash.to_le_bytes()).finish(),
    })
}
