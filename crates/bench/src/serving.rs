//! The serving sweep: one engine behind every serving experiment.
//!
//! The paper's evaluation asks one question — which access mechanism hides
//! a µs-scale device under load — and every serving subcommand of
//! `figures` asks it over a different matrix. Each is a [`ServingSweep`]:
//!
//! - **axes** — ordered lists of `Point`s over a base [`ServingCell`]
//!   (load spec, platform, service). A point carries a label tag, the row
//!   keys it sets, and a setter; net's `nic=off topo=direct` baseline,
//!   blame's `direct` topology and a whole corpus [`Scenario`] are each
//!   just a point. The axes expand as one `axis_product` onto the
//!   [`run_cells`] pool; *appended* points (the closed-loop retry pair) run
//!   alongside the product without joining it;
//! - **rows** — one [`ServingRow`] per cell, keyed by its points, holding
//!   the [`LoadReport`] plus the [`NetReport`]/[`BlameReport`] its layout
//!   reads;
//! - **one writer** — a `Layout` of JSON, CSV and table columns renders
//!   every row the same way in all three formats;
//! - **post-processors** — `Post` summaries over the rows: saturation
//!   knees, knee shifts vs a baseline, critical-tier flips, and the retry
//!   pair.
//!
//! The presets ([`load_sweep`], [`net_sweep`], [`blame_sweep`],
//! [`overload_sweep`], [`scenario_matrix`]) are each an axis list, a
//! column list and a post-processor list. Every emitter is byte-identical
//! between `--jobs 1` and `--jobs N`, and the CLI presets reproduce the
//! committed `artifacts/sweeps/` and `artifacts/overload/` files (locked
//! down by `tests/cli_presets.rs`).

use std::fmt::Write as _;

use kus_core::prelude::{Mechanism, PlatformConfig, RunReport};
use kus_load::{
    load_experiment, AdmissionControl, ArrivalProcess, BlameReport, BlameTable, LoadReport,
    LoadSpec, NetConfig, NetReport, NicModelKind, RetryPolicy, ServiceFactory, TierSpec,
};
use kus_scenario::{MatrixSpec, Scenario};
use kus_sim::fault::FaultPlan;
use kus_sim::trace::json_escape;
use kus_sim::Span;

use crate::sweep::{axis_product, csv_field, run_cells, Axis, Key, Point, SweepCell, SweepOptions};

/// Goodput must stay within this fraction of the offered rate for a cell
/// to count as "keeping up" (see [`ServingResults::knees`]).
pub const KNEE_GOODPUT_FRACTION: f64 = 0.95;

/// The state one serving cell's axis points edit.
#[derive(Clone)]
pub struct ServingCell {
    /// Queueing, arrival, SLO, admission, net and tier parameters.
    pub spec: LoadSpec,
    /// The platform the cell runs on.
    pub cfg: PlatformConfig,
    /// The service the cell serves.
    pub service: ServiceFactory,
}

impl From<&Scenario> for ServingCell {
    fn from(sc: &Scenario) -> ServingCell {
        ServingCell { spec: sc.load(), cfg: sc.cfg().clone(), service: sc.service() }
    }
}

/// The analytics one serving cell yields.
#[derive(Debug, Clone)]
pub struct ServingOutcome {
    /// Admission-to-completion serving analytics.
    pub load: LoadReport,
    /// The per-stage wire decomposition (layouts that read it, NIC cells).
    pub net: Option<NetReport>,
    /// The causal critical-path decomposition (layouts that read it).
    pub blame: Option<BlameReport>,
}

/// One executed cell, in matrix order.
#[derive(Debug, Clone)]
pub struct ServingRow {
    /// Index in matrix order; `None` for an appended point.
    pub index: Option<usize>,
    /// Cell label: the sweep label plus each point's tag.
    pub label: String,
    /// Row keys, in axis order.
    pub keys: Vec<(&'static str, Key)>,
    /// The serving spec the cell ran (its SLO judges the row).
    pub spec: LoadSpec,
    /// The analytics, or the validation/panic message.
    pub outcome: Result<ServingOutcome, String>,
}

impl ServingRow {
    /// The row's value for key `name`.
    fn key(&self, name: &str) -> Option<&Key> {
        self.keys.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// The row's value for key `name` as text (empty when absent).
    fn text(&self, name: &str) -> String {
        self.key(name).map(Key::text).unwrap_or_default()
    }

    fn rate(&self) -> Option<u64> {
        match self.key("rate_rps") {
            Some(Key::Num(r)) => Some(*r),
            _ => None,
        }
    }

    /// Every key but the rate: the group a knee is measured over.
    fn group(&self) -> Vec<(&'static str, Key)> {
        self.keys.iter().filter(|(k, _)| *k != "rate_rps").cloned().collect()
    }
}

/// A column value of a row that ran.
type Value = fn(&ServingRow, &ServingOutcome) -> String;

/// A JSON or CSV column: its name and value.
type Column = (&'static str, Value);

/// How a table column pads its cells.
#[derive(Debug, Clone, Copy)]
enum Align {
    /// Left-aligned in the width.
    Left(usize),
    /// Right-aligned in the width.
    Right(usize),
    /// Unpadded, after a two-space gap (a trailing verdict column).
    Last,
}

/// A table column: its header, alignment and value.
type TableColumn = (&'static str, Align, Value);

/// A table key column: its header, alignment, and the keys it shows,
/// joined by `/`.
type KeyColumn = (&'static str, Align, &'static [&'static str]);

/// A summary over the rows, emitted after them.
#[derive(Debug, Clone, Copy)]
enum Post {
    /// The saturation knee per group of rows equal on every key but the
    /// rate (see [`ServingResults::knees`]).
    Knees,
    /// Each group's knee shift vs the group whose `key` is `baseline`.
    KneeShifts {
        /// The key naming the baseline group.
        key: &'static str,
        /// The baseline's value of `key`.
        baseline: &'static str,
    },
    /// Rows whose critical tier differs from the row equal on every key
    /// but `key`, where `key` is `baseline`.
    Flips {
        /// The key the baseline row differs in.
        key: &'static str,
        /// The baseline's value of `key`.
        baseline: &'static str,
    },
    /// The appended closed-loop retry pair.
    RetryPair,
}

/// How a sweep's rows are written: the one writer's column lists and
/// post-processors, plus the reports the columns read.
#[derive(Debug, Clone)]
struct Layout {
    /// The table's first line.
    title: String,
    /// The JSON `service` field (omitted when `None`).
    service: Option<String>,
    /// Whether the CSV carries the label column.
    csv_label: bool,
    /// JSON fields after `"ok":true`.
    json: &'static [Column],
    /// CSV columns after `ok`.
    csv: &'static [Column],
    /// Table key columns (also the error-row prefix).
    table_keys: &'static [KeyColumn],
    /// Table columns after the keys.
    table: &'static [TableColumn],
    /// Keys whose change starts a new table block.
    group: &'static [&'static str],
    /// Summaries after the rows.
    post: &'static [Post],
    /// Harvest a [`NetReport`] per cell (an error for NIC cells without one).
    net: bool,
    /// Harvest a [`BlameReport`] per cell (an error when there is none).
    blame: bool,
}

/// A serving sweep: a labelled base cell, its axes, appended points, and
/// the layout its rows are written in.
pub struct ServingSweep {
    label: String,
    base: ServingCell,
    axes: Vec<Axis<ServingCell>>,
    appended: Axis<ServingCell>,
    layout: Layout,
}

impl ServingSweep {
    /// A sweep over `base` with no axes; cell labels start with `label`.
    fn new(label: impl Into<String>, base: ServingCell, layout: Layout) -> ServingSweep {
        ServingSweep { label: label.into(), base, axes: Vec::new(), appended: Vec::new(), layout }
    }

    /// Appends an axis (the last axis varies fastest).
    fn axis(mut self, axis: Axis<ServingCell>) -> Self {
        self.axes.push(axis);
        self
    }

    /// Runs `points` alongside the product, each from the base cell.
    fn appended(mut self, points: Axis<ServingCell>) -> Self {
        self.appended = points;
        self
    }

    /// The number of product cells (appended points excluded).
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(Vec::len).product()
    }

    /// Expands the product and the appended points, executes them on the
    /// shared pool, and harvests one row per cell.
    pub fn run(&self, opts: &SweepOptions) -> ServingResults {
        let mut combos = axis_product(&self.label, self.base.clone(), &self.axes);
        let matrix = combos.len();
        combos.extend(axis_product(
            &self.label,
            self.base.clone(),
            std::slice::from_ref(&self.appended),
        ));
        let cells = combos
            .iter()
            .map(|c| SweepCell {
                label: c.label.clone(),
                exp: load_experiment(
                    &c.label,
                    c.state.spec,
                    c.state.cfg.clone(),
                    c.state.service.clone(),
                )
                .map_err(|e| e.to_string()),
            })
            .collect();
        let results = run_cells(cells, opts);
        let mut sim_events = 0;
        let rows = results
            .cells
            .into_iter()
            .zip(combos)
            .map(|(c, combo)| ServingRow {
                index: (c.index < matrix).then_some(c.index),
                label: c.label,
                outcome: c.outcome.and_then(|r| {
                    sim_events += r.sim_events;
                    self.harvest(&r, &combo.state.spec)
                }),
                keys: combo.keys,
                spec: combo.state.spec,
            })
            .collect();
        ServingResults {
            layout: self.layout.clone(),
            key_names: self
                .axes
                .iter()
                .filter_map(|a| a.first())
                .flat_map(|p| p.keys.iter().map(|k| k.0))
                .collect(),
            rows,
            sim_events,
            wall_seconds: results.wall_seconds,
        }
    }

    fn harvest(&self, r: &RunReport, spec: &LoadSpec) -> Result<ServingOutcome, String> {
        let load = LoadReport::from_run(r).ok_or("run produced no serving trace events")?;
        let net = if self.layout.net { NetReport::from_run(r) } else { None };
        if self.layout.net && spec.net.enabled && net.is_none() {
            return Err("NIC-enabled run produced no net trace events".into());
        }
        let blame = match self.layout.blame {
            true => Some(BlameReport::from_run(r).ok_or("run produced no blameable requests")?),
            false => None,
        };
        Ok(ServingOutcome { load, net, blame })
    }
}

/// A critical-tier flip (see [`ServingResults::flips`]).
#[derive(Debug, Clone)]
struct Flip<'a> {
    /// The flipped row.
    row: &'a ServingRow,
    /// The baseline row's critical tier.
    baseline_tier: &'a str,
    /// The flipped row's critical tier.
    tier: &'a str,
}

/// Row keys minus the rate, with the knee (or knee shift) measured over
/// them.
pub type Group<T> = (Vec<(&'static str, Key)>, T);

/// All rows of one serving sweep, in matrix order (appended points last).
#[derive(Debug, Clone)]
pub struct ServingResults {
    layout: Layout,
    /// Key names in axis order (the CSV key columns).
    key_names: Vec<&'static str>,
    /// Per-cell rows.
    pub rows: Vec<ServingRow>,
    /// Simulator events executed across all cells (throughput numerator).
    pub sim_events: u64,
    /// Wall-clock seconds (never part of the deterministic emitters).
    pub wall_seconds: f64,
}

impl ServingResults {
    /// Error rows, in matrix order (appended points included).
    pub fn errors(&self) -> impl Iterator<Item = (&ServingRow, &str)> {
        self.rows.iter().filter_map(|r| r.outcome.as_ref().err().map(|e| (r, e.as_str())))
    }

    /// The product rows, in matrix order.
    pub fn matrix(&self) -> impl Iterator<Item = &ServingRow> {
        self.rows.iter().filter(|r| r.index.is_some())
    }

    /// The appended-point rows.
    fn appended(&self) -> impl Iterator<Item = &ServingRow> {
        self.rows.iter().filter(|r| r.index.is_none())
    }

    /// The saturation knee per group of consecutive rows equal on every
    /// key but the rate: the highest swept rate whose measured goodput
    /// reached [`KNEE_GOODPUT_FRACTION`] of the *nominal* offered rate. The
    /// nominal rate is the yardstick because a finite open-loop run
    /// eventually drains its queue — completions match admissions even
    /// deep into saturation, so goodput-vs-measured-offered would never
    /// fall below one until the shed path engages. `None` means the group
    /// kept up with no swept rate.
    pub fn knees(&self) -> Vec<Group<Option<u64>>> {
        let mut out: Vec<Group<Option<u64>>> = Vec::new();
        for r in self.matrix() {
            let group = r.group();
            if out.last().map(|g| &g.0) != Some(&group) {
                out.push((group, None));
            }
            if let (Ok(o), Some(rate)) = (&r.outcome, r.rate()) {
                if o.load.goodput_rps >= KNEE_GOODPUT_FRACTION * rate as f64 {
                    out.last_mut().expect("pushed above").1 = Some(rate);
                }
            }
        }
        out
    }

    /// The knee of the group whose `key` is `baseline`, and each other
    /// group's knee shift vs it in requests/second (negative: the knee
    /// moved down). Groups where either knee is unmeasured are omitted.
    fn knee_shifts(&self, key: &str, baseline: &str) -> (Option<u64>, Vec<Group<i64>>) {
        let is_base = |g: &[(&str, Key)]| g.iter().any(|(k, v)| *k == key && v.text() == baseline);
        let knees = self.knees();
        let base = knees.iter().find(|g| is_base(&g.0)).and_then(|g| g.1);
        let Some(b) = base else { return (None, Vec::new()) };
        let shifts = knees
            .into_iter()
            .filter(|g| !is_base(&g.0))
            .filter_map(|(g, k)| k.map(|r| (g, r as i64 - b as i64)))
            .collect();
        (base, shifts)
    }

    /// Critical-tier flips, in matrix order: every row whose `key` is not
    /// `baseline` and whose overall critical tier differs from that of the
    /// row equal on every other key whose `key` is `baseline`.
    fn flips(&self, key: &str, baseline: &str) -> Vec<Flip<'_>> {
        fn tier(r: &ServingRow) -> Option<&str> {
            r.outcome.as_ref().ok()?.blame.as_ref().map(|b| b.overall.critical_tier.as_str())
        }
        let same_but_key = |a: &ServingRow, b: &ServingRow| {
            a.keys.len() == b.keys.len()
                && a.keys.iter().zip(&b.keys).all(|(x, y)| x.0 == key || x == y)
        };
        let mut out = Vec::new();
        for r in self.matrix().filter(|r| r.text(key) != baseline) {
            let Some(t) = tier(r) else { continue };
            let base = self.matrix().find(|b| b.text(key) == baseline && same_but_key(r, b));
            let Some(bt) = base.and_then(tier) else { continue };
            if t != bt {
                out.push(Flip { row: r, baseline_tier: bt, tier: t });
            }
        }
        out
    }

    /// Machine-readable JSON: the service, one object per product row
    /// (matrix order) with its keys and the layout's fields, then each
    /// post-processor's sections. Byte-identical for a given cell set
    /// regardless of `--jobs`.
    pub fn to_json(&self) -> String {
        let l = &self.layout;
        let mut sections: Vec<(&str, String)> = Vec::new();
        if let Some(s) = &l.service {
            sections.push(("service", format!("\"{}\"", json_escape(s))));
        }
        let cells = self.matrix().map(|r| {
            let head = format!(
                "\"index\":{},\"label\":\"{}\",",
                r.index.unwrap_or_default(),
                json_escape(&r.label)
            );
            json_object(head + &keys_json(&r.keys), r, l.json)
        });
        sections.push(("cells", json_array(cells)));
        for post in l.post {
            post.json(self, &mut sections);
        }
        let body: Vec<String> = sections.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }

    /// Machine-readable CSV: header plus one row per cell, appended points
    /// last with an empty index and empty cells for keys they lack.
    pub fn to_csv(&self) -> String {
        let l = &self.layout;
        let mut head = vec!["index"];
        if l.csv_label {
            head.push("label");
        }
        head.extend(&self.key_names);
        head.push("ok");
        head.extend(l.csv.iter().map(|c| c.0));
        head.push("error");
        let mut out = head.join(",") + "\n";
        for r in &self.rows {
            let mut f = vec![r.index.map(|i| i.to_string()).unwrap_or_default()];
            if l.csv_label {
                f.push(csv_field(&r.label));
            }
            f.extend(self.key_names.iter().map(|k| r.key(k).map(Key::csv).unwrap_or_default()));
            match &r.outcome {
                Ok(o) => {
                    f.push("true".into());
                    f.extend(l.csv.iter().map(|c| (c.1)(r, o)));
                    f.push(String::new());
                }
                Err(e) => {
                    f.push("false".into());
                    f.extend(l.csv.iter().map(|_| String::new()));
                    f.push(csv_field(e));
                }
            }
            out += &f.join(",");
            out.push('\n');
        }
        out
    }

    /// The product rows as a text table in blocks per group, followed by
    /// the post-processors' summary lines.
    pub fn render_table(&self) -> String {
        let l = &self.layout;
        let heads = l.table_keys.iter().map(|c| (c.0.to_string(), c.1));
        let mut out = format!("{}\n", l.title);
        out += &table_line(heads.chain(l.table.iter().map(|c| (c.0.to_string(), c.1))));
        let mut last: Option<Vec<String>> = None;
        for r in self.matrix() {
            let group: Vec<String> = l.group.iter().map(|k| r.text(k)).collect();
            if last.as_ref() != Some(&group) {
                if last.is_some() {
                    out.push('\n');
                }
                last = Some(group);
            }
            let keys = l.table_keys.iter().map(|(_, a, names)| {
                (names.iter().map(|k| r.text(k)).collect::<Vec<_>>().join("/"), *a)
            });
            match &r.outcome {
                Ok(o) => out += &table_line(keys.chain(l.table.iter().map(|c| ((c.2)(r, o), c.1)))),
                Err(e) => {
                    out += table_line(keys).trim_end_matches('\n');
                    let _ = writeln!(out, " ERROR {e}");
                }
            }
        }
        let footer: String = l.post.iter().map(|p| p.table(self)).collect();
        if !footer.is_empty() {
            out.push('\n');
            out += &footer;
        }
        out
    }

    /// A `BENCH_<suite>.json` performance record: cell count, total
    /// simulator events, wall-clock, and events/second. Unlike the other
    /// emitters this is *not* byte-deterministic (it carries wall-clock);
    /// CI excludes it from artifact diffs.
    pub fn bench_json(&self, suite: &str) -> String {
        let eps =
            if self.wall_seconds > 0.0 { self.sim_events as f64 / self.wall_seconds } else { 0.0 };
        format!(
            "{{\"suite\":\"{suite}\",\"cells\":{},\"sim_events\":{},\"wall_seconds\":{:.3},\"events_per_sec\":{:.0}}}\n",
            self.rows.len(),
            self.sim_events,
            self.wall_seconds,
            eps,
        )
    }
}

impl Post {
    fn json(&self, res: &ServingResults, out: &mut Vec<(&'static str, String)>) {
        match *self {
            Post::Knees => {
                let knees = res.knees();
                let items = knees
                    .iter()
                    .map(|(g, k)| format!("{{{},\"knee_rps\":{}}}", keys_json(g), json_opt(*k)));
                out.push(("knees", json_array(items)));
            }
            Post::KneeShifts { key, baseline } => {
                let (base, shifts) = res.knee_shifts(key, baseline);
                out.push(("baseline_knee_rps", json_opt(base)));
                let items =
                    shifts.iter().map(|(g, s)| format!("{{{},\"shift_rps\":{s}}}", keys_json(g)));
                out.push(("knee_shifts", json_array(items)));
            }
            Post::Flips { key, baseline } => {
                let items = res.flips(key, baseline).into_iter().map(|f| {
                    let keys = keys_json(&f.row.keys);
                    format!(
                        "{{{keys},\"baseline_tier\":\"{}\",\"tier\":\"{}\"}}",
                        f.baseline_tier, f.tier
                    )
                });
                out.push(("flips", json_array(items)));
            }
            Post::RetryPair => {
                let items = res.appended().map(|r| {
                    let head = format!(
                        "\"label\":\"{}\",\"budgeted\":{}",
                        json_escape(&r.label),
                        budgeted(r)
                    );
                    json_object(head, r, RETRY_JSON)
                });
                out.push(("retry_pair", json_array(items)));
            }
        }
    }

    fn table(&self, res: &ServingResults) -> String {
        let mut out = String::new();
        match *self {
            Post::Knees => {
                for (g, knee) in res.knees() {
                    let _ = match knee {
                        Some(r) => writeln!(out, "knee {}: {r} rps", group_text(&g)),
                        None => writeln!(out, "knee {}: below the swept range", group_text(&g)),
                    };
                }
            }
            Post::KneeShifts { key, baseline } => {
                for (g, shift) in res.knee_shifts(key, baseline).1 {
                    let _ =
                        writeln!(out, "knee shift {} vs baseline: {shift:+} rps", group_text(&g));
                }
            }
            Post::Flips { key, baseline } => {
                let flips = res.flips(key, baseline);
                if flips.is_empty() {
                    let _ = writeln!(out, "no critical-tier flips vs the {baseline} baseline");
                }
                for f in flips {
                    let rate = f.row.rate().unwrap_or_default();
                    let g = group_text(&f.row.group());
                    let _ =
                        writeln!(out, "flip {g} @ {rate} rps: {} -> {}", f.baseline_tier, f.tier);
                }
            }
            Post::RetryPair => {
                for r in res.appended() {
                    let _ = match &r.outcome {
                        Ok(o) => writeln!(
                            out,
                            "retry {:<10} amplification {:.3}x  retries {}  timeouts {}  p99 {}",
                            r.text("plan"),
                            o.load.retry_amplification,
                            o.load.retries,
                            o.load.client_timeouts,
                            o.load.latency.p99,
                        ),
                        Err(e) => writeln!(out, "retry {} ERROR {e}", r.label),
                    };
                }
            }
        }
        out
    }
}

const RETRY_JSON: &[Column] = &[
    ("retry_amplification", |_, o| format!("{:.6}", o.load.retry_amplification)),
    ("retries", |_, o| o.load.retries.to_string()),
    ("timeouts", |_, o| o.load.client_timeouts.to_string()),
    REPORT,
];

/// `{HEAD,"ok":true,FIELDS}` for a row that ran, `{HEAD,"ok":false,"error":..}`
/// for one that did not.
fn json_object(head: String, r: &ServingRow, fields: &[Column]) -> String {
    let mut out = format!("{{{head}");
    match &r.outcome {
        Ok(o) => {
            out.push_str(",\"ok\":true");
            for (name, value) in fields {
                let _ = write!(out, ",\"{name}\":{}", value(r, o));
            }
        }
        Err(e) => {
            let _ = write!(out, ",\"ok\":false,\"error\":\"{}\"", json_escape(e));
        }
    }
    out + "}"
}

fn budgeted(r: &ServingRow) -> bool {
    r.text("plan") == "budgeted"
}

fn keys_json(keys: &[(&str, Key)]) -> String {
    keys.iter().map(|(k, v)| format!("\"{k}\":{}", v.json())).collect::<Vec<_>>().join(",")
}

fn group_text(keys: &[(&str, Key)]) -> String {
    keys.iter().map(|(_, v)| v.text()).collect::<Vec<_>>().join("/")
}

fn json_opt(v: Option<impl std::fmt::Display>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// A JSON array of pre-rendered items, one per line, in the emitters'
/// indentation.
fn json_array(items: impl Iterator<Item = String>) -> String {
    let items: Vec<String> = items.map(|i| format!("    {i}")).collect();
    match items.is_empty() {
        true => "[\n  ]".to_string(),
        false => format!("[\n{}\n  ]", items.join(",\n")),
    }
}

fn table_line(cells: impl Iterator<Item = (String, Align)>) -> String {
    let mut out = String::new();
    for (i, (text, align)) in cells.enumerate() {
        if i > 0 {
            out.push_str(if matches!(align, Align::Last) { "  " } else { " " });
        }
        let _ = match align {
            Align::Left(w) => write!(out, "{text:<w$}"),
            Align::Right(w) => write!(out, "{text:>w$}"),
            Align::Last => write!(out, "{text}"),
        };
    }
    out + "\n"
}

// ---- axes ------------------------------------------------------------

/// The access-mechanism axis (`mech=<name>`, key `mechanism`).
fn mechanism_axis(mechs: &[Mechanism]) -> Axis<ServingCell> {
    mechs
        .iter()
        .map(|&m| {
            Point::new(
                format!("mech={m}"),
                vec![("mechanism", Key::Str(m.to_string()))],
                move |mut c: ServingCell| {
                    c.cfg = c.cfg.mechanism(m);
                    c
                },
            )
        })
        .collect()
}

/// The open-loop Poisson rate axis (`rate=<n>rps`, key `rate_rps`).
fn rate_axis(rates: &[u64]) -> Axis<ServingCell> {
    rates
        .iter()
        .map(|&r| {
            Point::new(
                format!("rate={r}rps"),
                vec![("rate_rps", Key::Num(r))],
                move |mut c: ServingCell| {
                    c.spec.arrival = ArrivalProcess::Poisson { rate_rps: r as f64 };
                    c
                },
            )
        })
        .collect()
}

fn tiers_point(prefix: &str, nic: Option<NetConfig>, tiers: TierSpec) -> Point<ServingCell> {
    let topo = tiers.topology.name();
    let mut keys = vec![("topology", Key::Str(topo.into()))];
    if let Some(n) = nic {
        let name = if n.enabled { n.nic.name() } else { "off" };
        keys.insert(0, ("nic", Key::Str(name.into())));
    }
    Point::new(format!("{prefix}topo={topo}"), keys, move |mut c: ServingCell| {
        c.spec.tiers = tiers;
        if let Some(net) = nic {
            c.spec.net = net;
        }
        c
    })
}

/// The front-end axis: the `nic=off topo=direct` baseline, then each NIC
/// model (over `net`'s wire knobs) × tier topology (keys `nic`, `topology`).
fn front_end_axis(net: NetConfig, nics: &[NicModelKind], topos: &[TierSpec]) -> Axis<ServingCell> {
    let mut axis = vec![tiers_point("nic=off ", Some(NetConfig::default()), TierSpec::direct())];
    for &nic in nics {
        for &tiers in topos {
            let net = NetConfig { enabled: true, nic, ..net };
            axis.push(tiers_point(&format!("nic={} ", nic.name()), Some(net), tiers));
        }
    }
    axis
}

/// The tier-topology axis with the zero-fanout `direct` baseline first
/// (`topo=<name>`, key `topology`).
fn topology_axis(topos: &[TierSpec]) -> Axis<ServingCell> {
    std::iter::once(TierSpec::direct())
        .chain(topos.iter().copied())
        .map(|t| tiers_point("", None, t))
        .collect()
}

/// The admission-policy axis (`policy=<label>`, key `policy`).
fn policy_axis(policies: &[AdmissionControl]) -> Axis<ServingCell> {
    policies
        .iter()
        .map(|&p| {
            Point::new(
                format!("policy={}", p.label()),
                vec![("policy", Key::Str(p.label().into()))],
                move |mut c: ServingCell| {
                    c.spec.admission = p;
                    c
                },
            )
        })
        .collect()
}

/// The serving-fault-plan axis (`plan=<name>`, key `plan`).
fn plan_axis(plans: &[(String, FaultPlan)]) -> Axis<ServingCell> {
    plans
        .iter()
        .map(|(name, plan)| {
            let plan = *plan;
            Point::new(
                format!("plan={name}"),
                vec![("plan", Key::Str(name.clone()))],
                move |mut c: ServingCell| {
                    c.spec.faults = plan;
                    c
                },
            )
        })
        .collect()
}

/// The closed-loop retry pair: the same clients against a latency-spiking
/// device, with and without a 10% retry budget (`retry=<name>`, keys
/// `policy=retry`, `plan=<name>`). The device, not the dispatcher,
/// misbehaves here — the pair always runs this fixed latency-spike plan,
/// whatever fault plan the base platform carries.
fn retry_pair() -> Axis<ServingCell> {
    let pair = [
        ("budgeted", RetryPolicy::budgeted(Span::from_us(8), 4, 0.1, Span::from_us(2))),
        ("unbudgeted", RetryPolicy::unbudgeted(Span::from_us(8), 4, Span::from_us(2))),
    ];
    pair.into_iter()
        .map(|(name, retry)| {
            let keys = vec![("policy", Key::Str("retry".into())), ("plan", Key::Str(name.into()))];
            Point::new(format!("retry={name}"), keys, move |mut c: ServingCell| {
                c.spec.arrival = ArrivalProcess::ClosedLoop { users: 4, think: Span::from_us(2) };
                c.spec.requests = 40;
                c.spec.retry = retry;
                c.cfg = c.cfg.faults(FaultPlan::none().with_latency_spikes(0.3, Span::from_us(40)));
                c
            })
        })
        .collect()
}

/// The corpus axis: each point replaces the whole cell with a compiled
/// scenario's (tag `<name>`, keys `scenario`, `fingerprint`).
fn scenario_axis(scenarios: &[Scenario]) -> Axis<ServingCell> {
    scenarios
        .iter()
        .map(|sc| {
            let keys = vec![
                ("scenario", Key::Str(sc.name().into())),
                ("fingerprint", Key::Str(format!("{:016x}", sc.fingerprint()))),
            ];
            let (name, sc) = (sc.name().to_string(), sc.clone());
            Point::new(name, keys, move |_| ServingCell::from(&sc))
        })
        .collect()
}

// ---- columns ---------------------------------------------------------

const OFFERED: Column = ("offered", |_, o| o.load.offered.to_string());
const COMPLETED: Column = ("completed", |_, o| o.load.completed.to_string());
const SHED: Column = ("shed", |_, o| o.load.shed.to_string());
const GOODPUT: Column = ("goodput_rps", |_, o| format!("{:.6}", o.load.goodput_rps));
const P50_NS: Column = ("p50_ns", |_, o| o.load.latency.p50.as_ns().to_string());
const P99_NS: Column = ("p99_ns", |_, o| o.load.latency.p99.as_ns().to_string());
const P999_NS: Column = ("p999_ns", |_, o| o.load.latency.p999.as_ns().to_string());
const REPORT: Column = ("report", |_, o| o.load.to_json());

const T_GOODPUT: TableColumn =
    ("goodput", Align::Right(12), |_, o| format!("{:.0}", o.load.goodput_rps));
const T_SHED: TableColumn =
    ("shed%", Align::Right(7), |_, o| format!("{:.2}%", 100.0 * o.load.shed_fraction()));
const T_P50: TableColumn = ("p50", Align::Right(10), |_, o| o.load.latency.p50.to_string());
const T_P99: TableColumn = ("p99", Align::Right(10), |_, o| o.load.latency.p99.to_string());
const RATE_12: KeyColumn = ("rate_rps", Align::Right(12), &["rate_rps"]);

fn slo_pass(r: &ServingRow, o: &ServingOutcome) -> bool {
    r.spec.slo.verdict(&o.load).pass
}

/// The SLO verdict of a row whose spec declares one.
fn declared_slo_pass(r: &ServingRow, o: &ServingOutcome) -> Option<bool> {
    let slo = r.spec.slo;
    let declared = slo.p99.is_some() || slo.p999.is_some() || slo.max_shed_fraction.is_some();
    declared.then(|| slo_pass(r, o))
}

fn pass_fail(pass: bool) -> String {
    if pass { "pass" } else { "FAIL" }.into()
}

fn stage_p99(o: &ServingOutcome, stage: fn(&NetReport) -> Span) -> String {
    o.net.as_ref().map(|n| stage(n).as_ns().to_string()).unwrap_or_default()
}

fn critical_share(t: &BlameTable) -> f64 {
    t.hops.iter().find(|h| h.hop == t.critical_tier).map_or(0.0, |h| h.share)
}

fn blame(o: &ServingOutcome) -> &BlameReport {
    o.blame.as_ref().expect("blame layouts harvest a blame report")
}

// ---- presets ---------------------------------------------------------

/// The load preset: mechanism × offered rate, one throughput–latency curve
/// per mechanism with its saturation knee.
pub fn load_sweep(
    service: &str,
    base: ServingCell,
    mechs: &[Mechanism],
    rates: &[u64],
) -> ServingSweep {
    let title = format!(
        "# load sweep: service={service} arrival=poisson requests={} queue={} (knee = goodput >= {:.0}% of nominal rate)",
        base.spec.requests,
        base.spec.queue_capacity,
        100.0 * KNEE_GOODPUT_FRACTION,
    );
    let layout = Layout {
        title,
        service: Some(service.into()),
        csv_label: true,
        json: &[("slo_pass", |r, o| slo_pass(r, o).to_string()), REPORT],
        csv: &[
            OFFERED,
            COMPLETED,
            SHED,
            ("offered_rps", |_, o| format!("{:.6}", o.load.offered_rps)),
            GOODPUT,
            P50_NS,
            ("p90_ns", |_, o| o.load.latency.p90.as_ns().to_string()),
            P99_NS,
            P999_NS,
            ("max_ns", |_, o| o.load.latency.max.as_ns().to_string()),
            ("queue_wait_p99_ns", |_, o| o.load.queue_wait.p99.as_ns().to_string()),
            ("queue_depth_max", |_, o| o.load.queue_depth_max.to_string()),
            ("slo_pass", |r, o| slo_pass(r, o).to_string()),
        ],
        table_keys: &[("mechanism", Align::Left(14), &["mechanism"]), RATE_12],
        table: &[
            T_GOODPUT,
            T_SHED,
            T_P50,
            T_P99,
            ("p999", Align::Right(10), |_, o| o.load.latency.p999.to_string()),
            ("max", Align::Right(10), |_, o| o.load.latency.max.to_string()),
            ("slo", Align::Last, |r, o| pass_fail(slo_pass(r, o))),
        ],
        group: &["mechanism"],
        post: &[Post::Knees],
        net: false,
        blame: false,
    };
    ServingSweep::new(service, base, layout).axis(mechanism_axis(mechs)).axis(rate_axis(rates))
}

/// The net preset: front end (the dispatcher-only baseline, then NIC model
/// × tier topology) × offered rate, with each front end's knee and its
/// shift vs the baseline knee.
pub fn net_sweep(
    service: &str,
    base: ServingCell,
    net: NetConfig,
    nics: &[NicModelKind],
    topos: &[TierSpec],
    rates: &[u64],
) -> ServingSweep {
    let title = format!(
        "# net sweep: service={service} requests={} queue={} (knee = goodput >= {:.0}% of nominal rate)",
        base.spec.requests,
        base.spec.queue_capacity,
        100.0 * KNEE_GOODPUT_FRACTION,
    );
    let layout = Layout {
        title,
        service: Some(service.into()),
        csv_label: true,
        json: &[REPORT, ("net", |_, o| json_opt(o.net.as_ref().map(NetReport::to_json)))],
        csv: &[
            OFFERED,
            COMPLETED,
            SHED,
            GOODPUT,
            P50_NS,
            P99_NS,
            P999_NS,
            ("wire_p99_ns", |_, o| stage_p99(o, |n| n.wire.p99)),
            ("rx_wait_p99_ns", |_, o| stage_p99(o, |n| n.rx_wait.p99)),
            ("nic_p99_ns", |_, o| stage_p99(o, |n| n.nic.p99)),
            ("steer_p99_ns", |_, o| stage_p99(o, |n| n.steer.p99)),
            ("net_queue_p99_ns", |_, o| stage_p99(o, |n| n.queue_wait.p99)),
            ("service_p99_ns", |_, o| stage_p99(o, |n| n.service.p99)),
            ("tx_p99_ns", |_, o| stage_p99(o, |n| n.tx.p99)),
            ("e2e_p50_ns", |_, o| stage_p99(o, |n| n.e2e.p50)),
            ("e2e_p99_ns", |_, o| stage_p99(o, |n| n.e2e.p99)),
            ("e2e_p999_ns", |_, o| stage_p99(o, |n| n.e2e.p999)),
        ],
        table_keys: &[("front end", Align::Left(22), &["nic", "topology"]), RATE_12],
        table: &[
            T_GOODPUT,
            T_SHED,
            T_P50,
            T_P99,
            ("e2e_p99", Align::Right(10), |_, o| {
                o.net.as_ref().map_or("-".into(), |n| n.e2e.p99.to_string())
            }),
            ("wire_p99", Align::Right(10), |_, o| {
                o.net.as_ref().map_or("-".into(), |n| n.wire.p99.to_string())
            }),
        ],
        group: &["nic", "topology"],
        post: &[Post::Knees, Post::KneeShifts { key: "nic", baseline: "off" }],
        net: true,
        blame: false,
    };
    ServingSweep::new(service, base, layout)
        .axis(front_end_axis(net, nics, topos))
        .axis(rate_axis(rates))
}

/// The blame preset: mechanism × tier topology (the `direct` baseline
/// first) × offered rate with the causal event class on, asking which tier
/// owns each cell's critical path and where the chain moved it.
pub fn blame_sweep(
    service: &str,
    mut base: ServingCell,
    mechs: &[Mechanism],
    topos: &[TierSpec],
    rates: &[u64],
) -> ServingSweep {
    base.cfg = base.cfg.causal();
    let title = format!(
        "# blame sweep: service={service} requests={} (critical tier = largest critical-path share)",
        base.spec.requests,
    );
    let layout = Layout {
        title,
        service: Some(service.into()),
        csv_label: true,
        json: &[REPORT, ("blame", |_, o| blame(o).to_json())],
        csv: &[
            ("requests", |_, o| blame(o).requests.to_string()),
            ("truncated", |_, o| blame(o).truncated.to_string()),
            ("critical_tier", |_, o| blame(o).overall.critical_tier.clone()),
            ("critical_share", |_, o| format!("{:.6}", critical_share(&blame(o).overall))),
            ("tail_tier", |_, o| blame(o).tail.critical_tier.clone()),
            ("tail_share", |_, o| format!("{:.6}", critical_share(&blame(o).tail))),
        ],
        table_keys: &[
            ("mech/topo", Align::Left(24), &["mechanism", "topology"]),
            ("rate_rps", Align::Right(10), &["rate_rps"]),
        ],
        table: &[
            ("tier", Align::Right(14), |_, o| blame(o).overall.critical_tier.clone()),
            ("share", Align::Right(7), |_, o| {
                format!("{:.1}%", 100.0 * critical_share(&blame(o).overall))
            }),
            ("tail tier", Align::Right(14), |_, o| blame(o).tail.critical_tier.clone()),
            ("share", Align::Right(7), |_, o| {
                format!("{:.1}%", 100.0 * critical_share(&blame(o).tail))
            }),
            ("trunc", Align::Right(6), |_, o| blame(o).truncated.to_string()),
        ],
        group: &["mechanism", "topology"],
        post: &[Post::Flips { key: "topology", baseline: "direct" }],
        net: false,
        blame: true,
    };
    ServingSweep::new(service, base, layout)
        .axis(mechanism_axis(mechs))
        .axis(topology_axis(topos))
        .axis(rate_axis(rates))
}

fn recovery_verdict(r: &ServingRow, o: &ServingOutcome) -> String {
    o.load.recovery(&r.spec.slo).verdict.to_string()
}

/// The overload preset: admission policy × fault plan × offered rate from
/// `m` (a `[matrix]` section, or [`MatrixSpec::default`] for `figures
/// overload`), each cell judged graceful/brownout/collapse/unstable by
/// [`LoadReport::recovery`], plus the closed-loop retry pair when `m`
/// asks for it.
pub fn overload_sweep(service: &str, base: ServingCell, m: &MatrixSpec) -> ServingSweep {
    let title = format!(
        "# overload sweep: service={service} requests={} queue={} (verdict = recovery analysis against the spec SLO)",
        base.spec.requests, base.spec.queue_capacity,
    );
    let layout = Layout {
        title,
        service: Some(service.into()),
        csv_label: true,
        json: &[
            ("verdict", |r, o| format!("\"{}\"", recovery_verdict(r, o))),
            ("recovery", |r, o| o.load.recovery(&r.spec.slo).to_json()),
            REPORT,
        ],
        csv: &[
            // Appended retry-pair rows carry no recovery verdict.
            ("verdict", |r, o| r.index.map(|_| recovery_verdict(r, o)).unwrap_or_default()),
            COMPLETED,
            SHED,
            ("shed_queue_full", |_, o| o.load.shed_queue_full.to_string()),
            ("shed_deadline", |_, o| o.load.shed_deadline.to_string()),
            ("shed_admission", |_, o| o.load.shed_admission.to_string()),
            GOODPUT,
            P99_NS,
            ("retries", |_, o| o.load.retries.to_string()),
            ("retry_amplification", |_, o| format!("{:.6}", o.load.retry_amplification)),
            ("crashes", |_, o| o.load.crashes.to_string()),
            ("dispatcher_stalls", |_, o| o.load.dispatcher_stalls.to_string()),
        ],
        table_keys: &[
            ("policy", Align::Left(10), &["policy"]),
            ("plan", Align::Left(8), &["plan"]),
            RATE_12,
        ],
        table: &[
            T_GOODPUT,
            T_SHED,
            T_P99,
            ("crashes", Align::Right(8), |_, o| o.load.crashes.to_string()),
            ("stalls", Align::Right(7), |_, o| o.load.dispatcher_stalls.to_string()),
            ("verdict", Align::Last, recovery_verdict),
        ],
        group: &["policy"],
        post: &[Post::RetryPair],
        net: false,
        blame: false,
    };
    ServingSweep::new(service, base, layout)
        .axis(policy_axis(&m.policies))
        .axis(plan_axis(&m.plans))
        .axis(rate_axis(&m.rates))
        .appended(if m.retry_pair { retry_pair() } else { Vec::new() })
}

/// The scenario-matrix preset: every compiled scenario (corpus order) ×
/// every mechanism, so one table answers "which mechanism survives which
/// world". A scenario that declares no SLO is not judged.
///
/// # Panics
///
/// When `scenarios` is empty ([`load_scenario_dir`] never returns an
/// empty corpus).
pub fn scenario_matrix(scenarios: &[Scenario], mechs: &[Mechanism]) -> ServingSweep {
    let names: std::collections::BTreeSet<&str> = scenarios.iter().map(Scenario::name).collect();
    let layout = Layout {
        title: format!(
            "# scenario matrix: {} cells ({} scenarios x mechanisms)",
            scenarios.len() * mechs.len(),
            names.len(),
        ),
        service: None,
        csv_label: false,
        json: &[("slo_pass", |r, o| json_opt(declared_slo_pass(r, o))), REPORT],
        csv: &[
            OFFERED,
            COMPLETED,
            SHED,
            GOODPUT,
            P50_NS,
            P99_NS,
            P999_NS,
            ("slo_pass", |r, o| declared_slo_pass(r, o).map(|p| p.to_string()).unwrap_or_default()),
        ],
        table_keys: &[
            ("scenario", Align::Left(24), &["scenario"]),
            ("mechanism", Align::Left(10), &["mechanism"]),
        ],
        table: &[
            ("completed", Align::Right(9), |_, o| o.load.completed.to_string()),
            ("shed", Align::Right(9), |_, o| o.load.shed.to_string()),
            ("shed%", Align::Right(7), |_, o| format!("{:.1}%", 100.0 * o.load.shed_fraction())),
            ("goodput", Align::Right(10), |_, o| format!("{:.0}", o.load.goodput_rps)),
            ("p99", Align::Right(10), |_, o| format!("{}ns", o.load.latency.p99.as_ns())),
            ("slo", Align::Last, |r, o| declared_slo_pass(r, o).map_or("-".into(), pass_fail)),
        ],
        group: &["scenario"],
        post: &[],
        net: false,
        blame: false,
    };
    let base = ServingCell::from(scenarios.first().expect("a scenario matrix needs a corpus"));
    ServingSweep::new("", base, layout).axis(scenario_axis(scenarios)).axis(mechanism_axis(mechs))
}

/// Reads and compiles every `*.toml` in `dir`, sorted by filename, so the
/// corpus order (and therefore every emitter) is deterministic. Any file
/// that fails to parse or compile fails the whole load with the filename
/// attached — a corpus member that drifts from the schema is an error,
/// not a skip.
pub fn load_scenario_dir(dir: &std::path::Path) -> Result<Vec<Scenario>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut files: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .toml scenarios in {}", dir.display()));
    }
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let sc = Scenario::from_toml(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(sc);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_load::{service_factory, EchoService, SloSpec};

    const EXPECT_RAN: &str = "cell ran";

    fn tiny_base(requests: usize, queue: usize) -> ServingCell {
        ServingCell {
            spec: LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 1.0 })
                .requests(requests)
                .queue_capacity(queue),
            cfg: PlatformConfig::paper_default()
                .without_replay_device()
                .fibers_per_core(4)
                .dataset_bytes(1 << 20),
            service: service_factory(|| EchoService::new(64)),
        }
    }

    fn tiny_load(base: ServingCell) -> ServingSweep {
        load_sweep("echo", base, &[Mechanism::OnDemand, Mechanism::Prefetch], &[200_000, 5_000_000])
    }

    fn jobs_invariant(sweep: &ServingSweep) -> ServingResults {
        let serial = sweep.run(&SweepOptions::jobs(1));
        let pooled = sweep.run(&SweepOptions::jobs(4));
        assert_eq!(serial.to_json(), pooled.to_json());
        assert_eq!(serial.to_csv(), pooled.to_csv());
        assert_eq!(serial.render_table(), pooled.render_table());
        assert_eq!(serial.errors().count(), 0);
        serial
    }

    fn keys(r: &ServingRow) -> Vec<String> {
        r.keys.iter().map(|(_, v)| v.text()).collect()
    }

    #[test]
    fn sweep_is_mechanism_major_and_deterministic_across_jobs() {
        let sweep = tiny_load(tiny_base(80, 16));
        assert_eq!(sweep.cell_count(), 4);
        let serial = jobs_invariant(&sweep);
        assert_eq!(keys(&serial.rows[0]), ["on-demand", "200000"]);
        assert_eq!(keys(&serial.rows[3]), ["prefetch", "5000000"]);
    }

    #[test]
    fn prefetch_knee_is_at_or_above_on_demand() {
        let results = tiny_load(tiny_base(80, 16)).run(&SweepOptions::jobs(2));
        let knees = results.knees();
        assert_eq!(knees.len(), 2);
        let od = knees[0].1.unwrap_or(0);
        let pf = knees[1].1.unwrap_or(0);
        assert!(pf >= od, "prefetch knee {pf} below on-demand {od}");
        // At 200k rps both mechanisms keep up with four fibers.
        assert!(od >= 200_000, "on-demand should keep up at 200k rps");
    }

    #[test]
    fn overloaded_cells_report_sheds_and_slo_failures() {
        let mut base = tiny_base(80, 16);
        base.spec = base.spec.slo(SloSpec::none().p99(Span::from_us(3)));
        let results = tiny_load(base).run(&SweepOptions::jobs(2));
        // The 5M rps on-demand cell must be saturated.
        let hot = results.rows[1].outcome.as_ref().expect(EXPECT_RAN);
        assert!(hot.load.shed > 0, "5M rps on-demand must shed");
        let json = results.to_json();
        assert!(json.contains("\"knees\""));
        assert!(json.contains("\"slo_pass\":false"), "saturated cell should bust a 3us p99");
    }

    fn tiny_net() -> ServingSweep {
        let nics = [NicModelKind::dma(), NicModelKind::nanopu()];
        net_sweep(
            "echo",
            tiny_base(60, 16),
            NetConfig::on(),
            &nics,
            &[TierSpec::rpc()],
            &[200_000, 5_000_000],
        )
    }

    #[test]
    fn net_sweep_is_baseline_first_and_deterministic_across_jobs() {
        let sweep = tiny_net();
        assert_eq!(sweep.cell_count(), 6);
        let serial = jobs_invariant(&sweep);
        assert_eq!(keys(&serial.rows[0])[..2], ["off", "direct"]);
        assert_eq!(keys(&serial.rows[2])[..2], ["dma", "rpc"]);
        assert_eq!(keys(&serial.rows[4])[..2], ["nanopu", "rpc"]);
    }

    #[test]
    fn baseline_cells_carry_no_net_report_and_nic_cells_do() {
        let results = tiny_net().run(&SweepOptions::jobs(2));
        let base = results.rows[0].outcome.as_ref().expect("baseline ran");
        assert!(base.net.is_none(), "baseline must not see net events");
        let nic = results.rows[2].outcome.as_ref().expect("dma cell ran");
        let net = nic.net.as_ref().expect("NIC cell decomposes");
        assert!(net.packets > 0);
        assert!(net.e2e.p99 >= nic.load.latency.p99, "e2e includes the wire");
    }

    #[test]
    fn knees_and_shifts_reference_the_baseline() {
        let results = tiny_net().run(&SweepOptions::jobs(2));
        let knees = results.knees();
        assert_eq!(knees.len(), 3, "baseline + two NIC front ends");
        assert_eq!(
            knees[0].0,
            [("nic", Key::Str("off".into())), ("topology", Key::Str("direct".into()))]
        );
        let (base, shifts) = results.knee_shifts("nic", "off");
        assert!(base.is_some(), "200k rps must keep up");
        for (g, shift) in shifts {
            assert_ne!(g[0].1, Key::Str("off".into()));
            // Both swept rates resolve the same knee here; the shift is
            // bounded by the swept range either way.
            assert!(shift.abs() <= 5_000_000);
        }
        let json = results.to_json();
        assert!(json.contains("\"knee_shifts\""));
        assert!(json.contains("\"baseline_knee_rps\""));
    }

    fn tiny_blame() -> ServingSweep {
        blame_sweep(
            "echo",
            tiny_base(80, 16),
            &[Mechanism::OnDemand],
            &[TierSpec::fanout(4)],
            &[200_000, 2_000_000],
        )
    }

    #[test]
    fn blame_sweep_is_baseline_first_and_deterministic_across_jobs() {
        let sweep = tiny_blame();
        assert_eq!(sweep.cell_count(), 4);
        let serial = jobs_invariant(&sweep);
        assert_eq!(serial.rows[0].text("topology"), "direct");
        assert_eq!(serial.rows[2].text("topology"), "fanout");
    }

    #[test]
    fn fanout_cells_resolve_shard_blame_and_flip_vs_baseline() {
        let results = tiny_blame().run(&SweepOptions::jobs(2));
        let hops = |i: usize| {
            let o = results.rows[i].outcome.as_ref().expect(EXPECT_RAN);
            o.blame
                .as_ref()
                .expect("blame harvested")
                .overall
                .hops
                .iter()
                .map(|h| h.hop.clone())
                .collect::<Vec<_>>()
        };
        // The causal event class must resolve the join: some shard hop
        // appears in the fan-out cell's blame table.
        let fan = hops(2);
        assert!(
            fan.iter().any(|h| h.starts_with("rpc.shard")),
            "fan-out blame must name shard hops, got {fan:?}"
        );
        assert!(hops(0).iter().all(|h| !h.starts_with("rpc.")));
        // Every request decomposes exactly; the report exists for all cells.
        for r in &results.rows {
            let b = r.outcome.as_ref().expect(EXPECT_RAN).blame.as_ref().expect("blame harvested");
            assert_eq!(b.requests, b.completed + b.truncated);
        }
        assert!(results.to_json().contains("\"flips\""));
    }

    fn tiny_overload() -> ServingSweep {
        let mut base = tiny_base(150, 32);
        base.spec = base.spec.slo(SloSpec::none().p99(Span::from_us(40)));
        let mut m = MatrixSpec::default();
        m.policies.truncate(2);
        m.plans = vec![
            ("calm".into(), FaultPlan::none()),
            (
                "freeze".into(),
                FaultPlan::none().with_freeze_windows(
                    Span::from_us(60),
                    Span::from_us(25),
                    Span::from_us(20),
                ),
            ),
        ];
        m.rates = vec![2_000_000];
        overload_sweep("echo", base, &m)
    }

    #[test]
    fn sweep_is_policy_major_and_deterministic_across_jobs() {
        let sweep = tiny_overload();
        assert_eq!(sweep.cell_count(), 4);
        let serial = jobs_invariant(&sweep);
        assert_eq!(keys(&serial.rows[0])[..2], ["static", "calm"]);
        assert_eq!(keys(&serial.rows[3])[..2], ["deadline", "freeze"]);
        let pair: Vec<_> = serial.appended().collect();
        assert_eq!(pair.len(), 2);
        assert!(budgeted(pair[0]) && !budgeted(pair[1]));
        assert!(serial.sim_events > 0, "throughput record needs event counts");
    }

    #[test]
    fn budget_bounds_amplification_where_unbudgeted_amplifies() {
        let results = tiny_overload().run(&SweepOptions::jobs(2));
        let pair: Vec<_> =
            results.appended().map(|r| &r.outcome.as_ref().expect("ran").load).collect();
        let (budgeted, unbudgeted) = (pair[0], pair[1]);
        assert!(
            budgeted.retry_amplification < 1.2,
            "budgeted amplification {}",
            budgeted.retry_amplification
        );
        assert!(
            unbudgeted.retry_amplification > budgeted.retry_amplification,
            "unbudgeted {} must amplify beyond budgeted {}",
            unbudgeted.retry_amplification,
            budgeted.retry_amplification
        );
    }
}
