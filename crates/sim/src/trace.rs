//! Deterministic structured event tracing.
//!
//! A [`Tracer`] is a cheap clonable handle that every instrumented component
//! holds. Disabled (the default), it is a `None` and each emission costs one
//! branch. Enabled, every *emitted* event is folded into a running content
//! hash and count, straight from its fields; only events whose [`Category`]
//! is in the tracer's [`Categories`] set are also *buffered* for the
//! post-run reports. So [`Tracer::hash`] and [`Tracer::count`] describe the
//! whole stream whatever is buffered, while [`Tracer::take_events`] hands
//! over the buffered part of it.
//!
//! The design invariants that make traces usable as regression oracles:
//!
//! - **Inert**: tracing never schedules events, never draws from an RNG
//!   stream, and never feeds back into component state, so a traced run is
//!   bit-identical (in simulated behaviour) to an untraced one.
//! - **Deterministic**: events are emitted from simulation callbacks, which
//!   the [`Sim`](crate::Sim) kernel orders deterministically; the trace of a
//!   `(seed, config)` pair is therefore byte-stable across runs and builds.
//! - **Hashable**: [`Tracer::hash`] folds every emitted event into an
//!   FNV-1a-64 over the event's canonical binary encoding, so "same
//!   behaviour" can be asserted with a single integer while
//!   [`encode`]/[`decode`] keep a fully buffered stream inspectable when a
//!   hash test fails.
//!
//! Two exporters: [`chrome_json`] renders the Chrome `trace_event` format for
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev), and [`encode`]
//! produces the compact binary log the hash is defined over.
//!
//! Timestamps come from the shared simulation clock
//! ([`Sim::now_handle`](crate::Sim::now_handle)), so components can emit
//! without a `&Sim` in scope.
//!
//! Besides the always-on classes, two runtime-gated classes extend the
//! stream (and so its hash) when switched on: cycle accounting
//! ([`Tracer::set_profile`]) and causal spans ([`Tracer::set_causal`]).
//! With the `trace` cargo feature disabled (the default), the deep
//! per-access event class is compiled out: [`Tracer::set_verbose`] is a
//! no-op and [`Tracer::is_verbose`] is always false.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::time::{Span, Time};

/// Subsystem that emitted an event. The discriminant is part of the stable
/// binary encoding — append new categories, never reorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Category {
    /// Simulation kernel / platform lifecycle.
    Sim = 0,
    /// Cache hierarchy and line-fill buffers (`kus-mem`).
    Mem = 1,
    /// PCIe link TLPs (`kus-pcie`).
    Pcie = 2,
    /// Device datapath and request fetcher (`kus-device`).
    Device = 3,
    /// Software-queue descriptor lifecycle (`kus-swq` call sites).
    Swq = 4,
    /// Fiber scheduling and watchdog (`kus-fiber`).
    Fiber = 5,
    /// Executor-level recovery: deadlines, retries, failover (`kus-core`).
    Exec = 6,
    /// Request serving: arrivals, dispatch, sheds, completions (`kus-load`).
    Load = 7,
    /// Per-core cycle accounting: compute/stall/switch/poll spans emitted
    /// only when profiling is enabled (`kus-cpu`, `kus-core`).
    Cpu = 8,
}

impl Category {
    fn from_u8(v: u8) -> Option<Category> {
        use Category::*;
        Some(match v {
            0 => Sim,
            1 => Mem,
            2 => Pcie,
            3 => Device,
            4 => Swq,
            5 => Fiber,
            6 => Exec,
            7 => Load,
            8 => Cpu,
            _ => return None,
        })
    }

    /// Short lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            Category::Sim => "sim",
            Category::Mem => "mem",
            Category::Pcie => "pcie",
            Category::Device => "device",
            Category::Swq => "swq",
            Category::Fiber => "fiber",
            Category::Exec => "exec",
            Category::Load => "load",
            Category::Cpu => "cpu",
        }
    }
}

/// A set of [`Category`]s: which events a tracer buffers, or which a
/// consumer reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Categories(u16);

impl Categories {
    /// The empty set.
    pub const NONE: Categories = Categories(0);
    /// Every category.
    pub const ALL: Categories = Categories(u16::MAX);

    /// The set holding only `cat`.
    pub const fn only(cat: Category) -> Categories {
        Categories(1 << cat as u8)
    }

    /// Whether `cat` is in the set.
    pub const fn contains(self, cat: Category) -> bool {
        self.0 & (1 << cat as u8) != 0
    }

    /// Whether the set is empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Event shape, mirroring the Chrome `trace_event` phases we use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Phase {
    /// A point event (`ph: "i"`). `a0`/`a1` are free-form arguments.
    Instant = 0,
    /// A sampled counter (`ph: "C"`). `a0` is the counter value.
    Counter = 1,
    /// A span (`ph: "X"`). `a0` is a free-form argument, `a1` is the
    /// duration in picoseconds; `at` is the span start.
    Complete = 2,
}

impl Phase {
    fn from_u8(v: u8) -> Option<Phase> {
        Some(match v {
            0 => Phase::Instant,
            1 => Phase::Counter,
            2 => Phase::Complete,
            _ => return None,
        })
    }

    fn chrome(self) -> char {
        match self {
            Phase::Instant => 'i',
            Phase::Counter => 'C',
            Phase::Complete => 'X',
        }
    }
}

/// One trace event. `name` is a static string (e.g. `"swq.enqueue"`);
/// `track` selects the timeline row (host core, fetcher, link direction…);
/// `a0`/`a1` carry event-specific arguments (tags, occupancy levels,
/// durations) per the conventions documented in DESIGN.md §9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated timestamp of the event (span start for [`Phase::Complete`]).
    pub at: Time,
    /// Emitting subsystem.
    pub cat: Category,
    /// Event name, dot-namespaced within the category.
    pub name: &'static str,
    /// Event shape.
    pub phase: Phase,
    /// Timeline row (see DESIGN.md §9 for the track-id scheme).
    pub track: u32,
    /// First argument (tag, line index, counter value…).
    pub a0: u64,
    /// Second argument (occupancy after, duration in ps for `Complete`…).
    pub a1: u64,
}

impl TraceEvent {
    /// Canonical single-line rendering, shared by the golden-trace snapshots
    /// and failure diffs. Stable: changing this format invalidates goldens.
    pub fn render(&self) -> String {
        format!(
            "{:>12}ps {}/{} {:?} t={} a0={} a1={}",
            self.at.as_ps(),
            self.cat.label(),
            self.name,
            self.phase,
            self.track,
            self.a0,
            self.a1,
        )
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// An event decoded from the binary log: identical to [`TraceEvent`] except
/// the name is owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedEvent {
    /// Simulated timestamp.
    pub at: Time,
    /// Emitting subsystem.
    pub cat: Category,
    /// Event name.
    pub name: String,
    /// Event shape.
    pub phase: Phase,
    /// Timeline row.
    pub track: u32,
    /// First argument.
    pub a0: u64,
    /// Second argument.
    pub a1: u64,
}

impl DecodedEvent {
    /// Same rendering as [`TraceEvent::render`], so decoded streams compare
    /// textually equal to live ones.
    pub fn render(&self) -> String {
        format!(
            "{:>12}ps {}/{} {:?} t={} a0={} a1={}",
            self.at.as_ps(),
            self.cat.label(),
            self.name,
            self.phase,
            self.track,
            self.a0,
            self.a1,
        )
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Feeds one event's canonical byte form, field by field, to `sink`: the
/// bytes the content hash is defined over and the per-event record of the
/// binary log. The one definition of the layout for both.
fn write_record(e: &TraceEvent, mut sink: impl FnMut(&[u8])) {
    sink(&e.at.as_ps().to_le_bytes());
    sink(&[e.cat as u8, e.phase as u8]);
    sink(&e.track.to_le_bytes());
    sink(&(e.name.len() as u16).to_le_bytes());
    sink(e.name.as_bytes());
    sink(&e.a0.to_le_bytes());
    sink(&e.a1.to_le_bytes());
}

/// Folds one event into a running content hash, with no allocation.
fn fold_event(mut hash: u64, e: &TraceEvent) -> u64 {
    write_record(e, |bytes| hash = fnv1a(hash, bytes));
    hash
}

struct TraceState {
    hash: u64,
    count: u64,
    events: Vec<TraceEvent>,
}

struct TracerInner {
    clock: Rc<Cell<Time>>,
    state: RefCell<TraceState>,
    /// Categories whose events are kept in `state.events`; every emitted
    /// event is hashed and counted regardless.
    buffered: Categories,
    /// Cycle-accounting event class ([`Category::Cpu`] spans, occupancy
    /// counters). A *runtime* gate, unlike `verbose`: profiling changes the
    /// event stream (and so the hash), so it is opt-in per run and off for
    /// every golden-locked scenario.
    profile: Cell<bool>,
    /// Causal event class: per-child fan-out spans, egress spans, and the
    /// other anchors the span-DAG reconstruction needs. Like `profile`, a
    /// *runtime* gate: causal events extend the stream (and so the hash)
    /// deterministically, so it is opt-in per run and off for every
    /// golden-locked scenario.
    causal: Cell<bool>,
    #[cfg(feature = "trace")]
    verbose: Cell<bool>,
}

/// Handle to the (possibly disabled) trace sink. Clone freely: all clones
/// share one buffer. `Tracer::default()` is the disabled tracer.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<TracerInner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(off)"),
            Some(i) => {
                let s = i.state.borrow();
                write!(f, "Tracer(on, {} events, hash {:016x})", s.count, s.hash)
            }
        }
    }
}

impl Tracer {
    /// The disabled tracer: every emission is a single branch, nothing is
    /// recorded.
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer timestamping from `clock` (obtain one via
    /// [`Sim::now_handle`](crate::Sim::now_handle)) that buffers every
    /// event.
    pub fn new(clock: Rc<Cell<Time>>) -> Tracer {
        Tracer::buffering(clock, Categories::ALL)
    }

    /// An enabled tracer that hashes and counts every event but buffers
    /// only those in `buffered`. The hash and count are those of
    /// [`Tracer::new`] on the same stream.
    pub fn buffering(clock: Rc<Cell<Time>>, buffered: Categories) -> Tracer {
        Tracer {
            inner: Some(Rc::new(TracerInner {
                clock,
                state: RefCell::new(TraceState { hash: FNV_OFFSET, count: 0, events: Vec::new() }),
                buffered,
                profile: Cell::new(false),
                causal: Cell::new(false),
                #[cfg(feature = "trace")]
                verbose: Cell::new(false),
            })),
        }
    }

    /// Whether events are being recorded.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Enables the deep per-access event class (e.g. every L1 read). Only
    /// effective when compiled with the `trace` cargo feature; otherwise a
    /// no-op, so default builds never emit deep events and golden hashes
    /// stay identical across feature configurations.
    pub fn set_verbose(&self, on: bool) {
        #[cfg(feature = "trace")]
        if let Some(i) = &self.inner {
            i.verbose.set(on);
        }
        #[cfg(not(feature = "trace"))]
        let _ = on;
    }

    /// Enables the cycle-accounting event class: per-core compute / stall /
    /// context-switch / poll spans and resource-occupancy counters, the raw
    /// material of `kus-profile`. A runtime flag (no cargo feature): these
    /// events extend the stream and its hash, so profiled runs hash
    /// differently from plain traced runs — deterministically so.
    pub fn set_profile(&self, on: bool) {
        if let Some(i) = &self.inner {
            i.profile.set(on);
        }
    }

    /// Whether cycle-accounting events should be emitted. Always false for
    /// a disabled tracer.
    pub fn is_profile(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.profile.get())
    }

    /// Enables the causal event class: per-child fan-out completion spans,
    /// egress (`rpc.tx`) spans, and the other anchors from which a request's
    /// span DAG and critical path are reconstructed at harvest. A runtime
    /// flag like [`set_profile`](Self::set_profile): causal events extend the
    /// stream and its hash — deterministically — but never change simulated
    /// behaviour.
    pub fn set_causal(&self, on: bool) {
        if let Some(i) = &self.inner {
            i.causal.set(on);
        }
    }

    /// Whether causal events should be emitted. Always false for a disabled
    /// tracer.
    pub fn is_causal(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.causal.get())
    }

    /// Whether deep per-access events should be emitted.
    pub fn is_verbose(&self) -> bool {
        #[cfg(feature = "trace")]
        {
            self.inner.as_ref().is_some_and(|i| i.verbose.get())
        }
        #[cfg(not(feature = "trace"))]
        {
            false
        }
    }

    /// Records one event at the current simulated time. No-op when disabled.
    pub fn emit(&self, cat: Category, name: &'static str, phase: Phase, track: u32, a0: u64, a1: u64) {
        let Some(inner) = &self.inner else { return };
        let at = inner.clock.get();
        inner.record(TraceEvent { at, cat, name, phase, track, a0, a1 });
    }

    /// Emits an [`Phase::Instant`] event.
    pub fn instant(&self, cat: Category, name: &'static str, track: u32, a0: u64, a1: u64) {
        self.emit(cat, name, Phase::Instant, track, a0, a1);
    }

    /// Emits a [`Phase::Counter`] sample of `value`.
    pub fn counter(&self, cat: Category, name: &'static str, track: u32, value: u64) {
        self.emit(cat, name, Phase::Counter, track, value, 0);
    }

    /// Emits a [`Phase::Complete`] span that started at `start` and ends now.
    /// The duration lands in `a1` (picoseconds).
    pub fn complete_since(&self, cat: Category, name: &'static str, track: u32, start: Time, a0: u64) {
        let Some(inner) = &self.inner else { return };
        let dur = (inner.clock.get() - start).as_ps();
        inner.record(TraceEvent { at: start, cat, name, phase: Phase::Complete, track, a0, a1: dur });
    }

    /// Emits a [`Phase::Complete`] span over an explicit `[start, end]`
    /// interval, independent of the current clock. Needed by spans whose end
    /// is not "now" at emission time: a child completion recorded from a
    /// device callback, or an egress span that extends past the emitting
    /// instant. `end` earlier than `start` records a zero-length span.
    pub fn complete_span(&self, cat: Category, name: &'static str, track: u32, start: Time, end: Time, a0: u64) {
        let Some(inner) = &self.inner else { return };
        let dur = if end > start { (end - start).as_ps() } else { 0 };
        inner.record(TraceEvent { at: start, cat, name, phase: Phase::Complete, track, a0, a1: dur });
    }

    /// Running FNV-1a-64 content hash over all events emitted so far,
    /// buffered or not (the hash of the empty trace for a disabled tracer).
    pub fn hash(&self) -> u64 {
        match &self.inner {
            None => FNV_OFFSET,
            Some(i) => i.state.borrow().hash,
        }
    }

    /// Number of events emitted so far, buffered or not.
    pub fn count(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.state.borrow().count)
    }

    /// Moves the buffered events out, leaving the buffer empty; the hash
    /// and count keep running.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |i| std::mem::take(&mut i.state.borrow_mut().events))
    }
}

impl TracerInner {
    fn record(&self, e: TraceEvent) {
        let mut s = self.state.borrow_mut();
        s.hash = fold_event(s.hash, &e);
        s.count += 1;
        if self.buffered.contains(e.cat) {
            s.events.push(e);
        }
    }
}

/// Recomputes the content hash of an event slice; equals [`Tracer::hash`]
/// after those events were emitted.
pub fn hash_events(events: &[TraceEvent]) -> u64 {
    events.iter().fold(FNV_OFFSET, fold_event)
}

/// Magic header of the binary trace log (7 bytes magic + 1 byte version).
pub const TRACE_MAGIC: &[u8; 8] = b"KUSTRC\x00\x01";

/// Encodes events into the compact binary log: [`TRACE_MAGIC`], a `u64`
/// event count, then each event's canonical record (the bytes the content
/// hash is computed over).
pub fn encode(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + events.len() * 40);
    out.extend_from_slice(TRACE_MAGIC);
    out.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for e in events {
        write_record(e, |bytes| out.extend_from_slice(bytes));
    }
    out
}

/// Decoding failure: offset and description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace decode error at byte {}: {}", self.offset, self.what)
    }
}

/// Decodes a binary log produced by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<Vec<DecodedEvent>, DecodeError> {
    let err = |offset, what| DecodeError { offset, what };
    if bytes.len() < 16 {
        return Err(err(0, "truncated header"));
    }
    if &bytes[0..8] != TRACE_MAGIC {
        return Err(err(0, "bad magic"));
    }
    let count = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let mut pos = 16;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], DecodeError> {
        let s = bytes.get(*pos..*pos + n).ok_or(DecodeError { offset: *pos, what: "truncated record" })?;
        *pos += n;
        Ok(s)
    };
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let at = Time::from_ps(u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()));
        let cat_at = pos;
        let cat = Category::from_u8(take(&mut pos, 1)?[0]).ok_or(err(cat_at, "unknown category"))?;
        let phase_at = pos;
        let phase = Phase::from_u8(take(&mut pos, 1)?[0]).ok_or(err(phase_at, "unknown phase"))?;
        let track = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
        let name_at = pos;
        let name = std::str::from_utf8(take(&mut pos, name_len)?)
            .map_err(|_| err(name_at, "event name is not UTF-8"))?
            .to_string();
        let a0 = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let a1 = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        out.push(DecodedEvent { at, cat, name, phase, track, a0, a1 });
    }
    if pos != bytes.len() {
        return Err(err(pos, "trailing bytes after last record"));
    }
    Ok(out)
}

/// Timestamp in fractional microseconds, rendered without going through
/// floating point so the JSON is byte-deterministic.
fn chrome_ts(t: Time) -> String {
    let ps = t.as_ps();
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

/// Escapes `s` for a JSON string literal: quotes, backslashes and the
/// control characters (`\n`, `\r`, `\t` by name, the rest as `\u00XX`).
/// The one escaper of the workspace's hand-written JSON emitters.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A causal arrow between two points on the timeline, rendered as a Chrome
/// `trace_event` flow (`ph:"s"` → `ph:"f"`) so Perfetto draws the DAG edges
/// over the spans. `id` must be unique per arrow within one export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowArrow {
    /// Flow id binding the start and finish halves together.
    pub id: u64,
    /// Edge label (e.g. `"fanout"`, `"join"`).
    pub name: &'static str,
    /// Where the arrow leaves.
    pub from: Time,
    /// Track the arrow leaves from.
    pub from_track: u32,
    /// Where the arrow lands.
    pub to: Time,
    /// Track the arrow lands on.
    pub to_track: u32,
}

/// Renders events as Chrome `trace_event` JSON (the "JSON array format"),
/// loadable in `chrome://tracing` and Perfetto. Deterministic: the same
/// event stream yields byte-identical output.
pub fn chrome_json(events: &[TraceEvent]) -> String {
    chrome_json_with_flows(events, &[])
}

/// [`chrome_json`] plus causal [`FlowArrow`]s appended as flow-event pairs.
/// With an empty `flows` slice the output is byte-identical to
/// [`chrome_json`].
pub fn chrome_json_with_flows(events: &[TraceEvent], flows: &[FlowArrow]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96 + flows.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let name = json_escape(e.name);
        let cat = e.cat.label();
        let ts = chrome_ts(e.at);
        out.push_str(&format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{}\",\"ts\":{ts},\"pid\":0,\"tid\":{}",
            e.phase.chrome(),
            e.track,
        ));
        match e.phase {
            Phase::Instant => {
                out.push_str(&format!(",\"s\":\"t\",\"args\":{{\"a0\":{},\"a1\":{}}}", e.a0, e.a1));
            }
            Phase::Counter => {
                out.push_str(&format!(",\"args\":{{\"{name}\":{}}}", e.a0));
            }
            Phase::Complete => {
                out.push_str(&format!(",\"dur\":{},\"args\":{{\"a0\":{}}}", chrome_ts(Time::from_ps(e.a1)), e.a0));
            }
        }
        out.push('}');
    }
    for (i, f) in flows.iter().enumerate() {
        if !events.is_empty() || i > 0 {
            out.push_str(",\n");
        }
        let name = json_escape(f.name);
        out.push_str(&format!(
            "{{\"name\":\"{name}\",\"cat\":\"causal\",\"ph\":\"s\",\"id\":{},\"ts\":{},\"pid\":0,\"tid\":{}}},\n",
            f.id,
            chrome_ts(f.from),
            f.from_track,
        ));
        out.push_str(&format!(
            "{{\"name\":\"{name}\",\"cat\":\"causal\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"ts\":{},\"pid\":0,\"tid\":{}}}",
            f.id,
            chrome_ts(f.to),
            f.to_track,
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// A time-weighted occupancy profile derived from a stream of
/// `(timestamp, level)` samples: how long the tracked quantity (LFB entries
/// in use, ring slots pending, …) sat at each level.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OccupancyTimeline {
    /// `time_at_level[l]` is the total simulated time spent at level `l`.
    pub time_at_level: Vec<Span>,
    /// Highest level observed.
    pub max_level: u64,
    /// Number of level-change samples folded in.
    pub samples: u64,
}

impl OccupancyTimeline {
    /// Builds a timeline from `(time, level-after)` samples, assumed
    /// time-ordered, starting from level 0 at time zero and ending at `end`.
    pub fn from_samples(samples: impl IntoIterator<Item = (Time, u64)>, end: Time) -> OccupancyTimeline {
        let mut tl = OccupancyTimeline::default();
        let mut level = 0u64;
        let mut since = Time::ZERO;
        for (at, next) in samples {
            let at = at.min(end);
            tl.credit(level, at - since);
            level = next;
            since = at;
            tl.max_level = tl.max_level.max(next);
            tl.samples += 1;
        }
        if end > since {
            tl.credit(level, end - since);
        }
        tl
    }

    fn credit(&mut self, level: u64, dur: Span) {
        if dur == Span::ZERO {
            return;
        }
        let idx = level as usize;
        if self.time_at_level.len() <= idx {
            self.time_at_level.resize(idx + 1, Span::ZERO);
        }
        self.time_at_level[idx] += dur;
    }

    /// Total time covered by the profile.
    pub fn total(&self) -> Span {
        self.time_at_level.iter().fold(Span::ZERO, |a, &s| a + s)
    }

    /// Time-weighted mean level.
    pub fn mean(&self) -> f64 {
        let total = self.total().as_ps();
        if total == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .time_at_level
            .iter()
            .enumerate()
            .map(|(l, s)| l as f64 * s.as_ps() as f64)
            .sum();
        weighted / total as f64
    }

    /// Fraction of time spent at or above `level`.
    pub fn fraction_at_or_above(&self, level: u64) -> f64 {
        let total = self.total().as_ps();
        if total == 0 {
            return 0.0;
        }
        let above: u64 = self.time_at_level.iter().skip(level as usize).map(|s| s.as_ps()).sum();
        above as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;

    fn ev(at_ns: u64, name: &'static str, a0: u64) -> TraceEvent {
        TraceEvent {
            at: Time::ZERO + Span::from_ns(at_ns),
            cat: Category::Swq,
            name,
            phase: Phase::Instant,
            track: 0,
            a0,
            a1: 0,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        t.instant(Category::Sim, "x", 0, 1, 2);
        assert!(!t.is_on());
        assert_eq!(t.count(), 0);
        assert_eq!(t.hash(), FNV_OFFSET);
        assert!(t.take_events().is_empty());
    }

    #[test]
    fn tracer_timestamps_from_sim_clock() {
        let mut sim = Sim::new();
        let t = Tracer::new(sim.now_handle());
        let t2 = t.clone();
        sim.schedule_in(Span::from_ns(42), move |_| t2.instant(Category::Mem, "probe", 3, 7, 9));
        sim.run();
        let evs = t.take_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].at.as_ns(), 42);
        assert_eq!((evs[0].track, evs[0].a0, evs[0].a1), (3, 7, 9));
    }

    #[test]
    fn hash_matches_recomputation_and_is_order_sensitive() {
        let a = vec![ev(1, "a", 1), ev(2, "b", 2)];
        let b = vec![ev(2, "b", 2), ev(1, "a", 1)];
        assert_ne!(hash_events(&a), hash_events(&b));

        let sim = Sim::new();
        let t = Tracer::new(sim.now_handle());
        t.instant(Category::Swq, "a", 0, 1, 0);
        t.instant(Category::Swq, "b", 0, 2, 0);
        assert_eq!(t.hash(), hash_events(&t.take_events()));
        assert_eq!(t.count(), 2);
    }

    #[test]
    fn subscribed_tracer_hashes_and_counts_like_a_full_one() {
        let sim = Sim::new();
        let full = Tracer::new(sim.now_handle());
        let load = Tracer::buffering(sim.now_handle(), Categories::only(Category::Load));
        let none = Tracer::buffering(sim.now_handle(), Categories::NONE);
        for t in [&full, &load, &none] {
            t.instant(Category::Load, "load.arrive", 0, 1, 0);
            t.instant(Category::Swq, "swq.enqueue", 0, 1, 1);
            t.counter(Category::Mem, "lfb.occ", 2, 5);
            t.complete_since(Category::Load, "load.serve", 0, Time::ZERO, 1);
            t.complete_span(Category::Pcie, "tlp", 300, Time::ZERO, Time::from_ps(9), 64);
        }
        for t in [&load, &none] {
            assert_eq!((t.hash(), t.count()), (full.hash(), full.count()));
        }
        let all = full.take_events();
        assert_eq!(full.hash(), hash_events(&all));
        let loads: Vec<_> = all.iter().filter(|e| e.cat == Category::Load).copied().collect();
        assert_eq!(loads.len(), 2);
        assert_eq!(load.take_events(), loads, "the subscribed buffer is the filtered stream");
        assert!(none.take_events().is_empty());
        assert!(load.take_events().is_empty(), "take_events moves the buffer out");
        assert_eq!(load.count(), 5, "taking the buffer leaves the count alone");
    }

    #[test]
    fn binary_roundtrip_preserves_events() {
        let evs = vec![ev(5, "swq.enqueue", 17), ev(9, "swq.deliver", 17)];
        let bytes = encode(&evs);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.len(), 2);
        for (d, e) in decoded.iter().zip(&evs) {
            assert_eq!(d.render(), e.render());
            assert_eq!((d.at, d.cat, d.phase, d.track, d.a0, d.a1), (e.at, e.cat, e.phase, e.track, e.a0, e.a1));
            assert_eq!(d.name, e.name);
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let evs = vec![ev(5, "x", 1)];
        let mut bytes = encode(&evs);
        assert!(decode(&bytes[..10]).is_err(), "truncated header");
        bytes[0] = b'Z';
        assert!(decode(&bytes).is_err(), "bad magic");
        let mut ok = encode(&evs);
        ok.push(0);
        assert!(decode(&ok).is_err(), "trailing bytes");
    }

    #[test]
    fn chrome_json_is_parseable_shape() {
        let evs = vec![
            ev(1, "swq.enqueue", 3),
            TraceEvent {
                at: Time::from_ps(1_500_000),
                cat: Category::Device,
                name: "dev.resp",
                phase: Phase::Complete,
                track: 200,
                a0: 4,
                a1: 2_000_000,
            },
            TraceEvent {
                at: Time::from_ps(2_000_000),
                cat: Category::Mem,
                name: "lfb.occ",
                phase: Phase::Counter,
                track: 0,
                a0: 6,
                a1: 0,
            },
        ];
        let json = chrome_json(&evs);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ts\":1.500000"));
        assert!(json.contains("\"dur\":2.000000"));
        assert!(json.trim_end().ends_with("]}"));
        // Balanced braces/brackets (cheap well-formedness check, no JSON dep).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn occupancy_timeline_time_weighting() {
        let end = Time::ZERO + Span::from_ns(100);
        let samples = vec![
            (Time::ZERO + Span::from_ns(10), 1),
            (Time::ZERO + Span::from_ns(30), 2),
            (Time::ZERO + Span::from_ns(60), 0),
        ];
        let tl = OccupancyTimeline::from_samples(samples, end);
        assert_eq!(tl.max_level, 2);
        assert_eq!(tl.samples, 3);
        assert_eq!(tl.time_at_level[0], Span::from_ns(10 + 40));
        assert_eq!(tl.time_at_level[1], Span::from_ns(20));
        assert_eq!(tl.time_at_level[2], Span::from_ns(30));
        assert_eq!(tl.total(), Span::from_ns(100));
        let mean = tl.mean();
        assert!((mean - 0.8).abs() < 1e-9, "mean {mean}");
        let frac = tl.fraction_at_or_above(1);
        assert!((frac - 0.5).abs() < 1e-9, "frac {frac}");
    }

    #[test]
    fn occupancy_timeline_empty_samples() {
        let end = Time::ZERO + Span::from_ns(50);
        let tl = OccupancyTimeline::from_samples(std::iter::empty(), end);
        // No samples: the whole window is credited to the implicit level 0.
        assert_eq!(tl.samples, 0);
        assert_eq!(tl.max_level, 0);
        assert_eq!(tl.time_at_level, vec![Span::from_ns(50)]);
        assert_eq!(tl.total(), Span::from_ns(50));
        assert_eq!(tl.mean(), 0.0);

        // Degenerate window: nothing to credit at all.
        let tl = OccupancyTimeline::from_samples(std::iter::empty(), Time::ZERO);
        assert!(tl.time_at_level.is_empty());
        assert_eq!(tl.total(), Span::ZERO);
        assert_eq!(tl.mean(), 0.0);
        assert_eq!(tl.fraction_at_or_above(0), 0.0);
    }

    #[test]
    fn occupancy_timeline_end_before_last_sample() {
        // Samples past `end` are clamped: the level change at 80 ns lands on
        // the 60 ns boundary with zero duration at its new level, and the
        // timeline still totals exactly the window.
        let end = Time::ZERO + Span::from_ns(60);
        let samples = vec![
            (Time::ZERO + Span::from_ns(20), 3),
            (Time::ZERO + Span::from_ns(80), 7),
        ];
        let tl = OccupancyTimeline::from_samples(samples, end);
        assert_eq!(tl.samples, 2);
        assert_eq!(tl.max_level, 7, "clamping must not hide the observed level");
        assert_eq!(tl.time_at_level[0], Span::from_ns(20));
        assert_eq!(tl.time_at_level[3], Span::from_ns(40));
        assert_eq!(tl.total(), Span::from_ns(60), "total must equal the window despite clamping");
        assert_eq!(tl.fraction_at_or_above(7), 0.0);
    }

    #[test]
    fn occupancy_timeline_duplicate_timestamps() {
        // Two level changes at the same instant: the transient middle level
        // gets zero duration and must not be credited (no zero-width buckets),
        // but it still counts as a sample and can set max_level.
        let end = Time::ZERO + Span::from_ns(40);
        let samples = vec![
            (Time::ZERO + Span::from_ns(10), 5),
            (Time::ZERO + Span::from_ns(10), 2),
            (Time::ZERO + Span::from_ns(30), 0),
        ];
        let tl = OccupancyTimeline::from_samples(samples, end);
        assert_eq!(tl.samples, 3);
        assert_eq!(tl.max_level, 5);
        assert_eq!(tl.time_at_level[0], Span::from_ns(10 + 10));
        assert_eq!(tl.time_at_level[2], Span::from_ns(20));
        assert!(tl.time_at_level.get(5).is_none_or(|&s| s == Span::ZERO));
        assert_eq!(tl.total(), Span::from_ns(40));
    }

    #[test]
    fn profile_flag_is_runtime_gated() {
        let sim = Sim::new();
        let t = Tracer::new(sim.now_handle());
        assert!(!t.is_profile());
        t.set_profile(true);
        assert!(t.is_profile(), "profile class is a runtime flag, not a cargo feature");
        t.set_profile(false);
        assert!(!t.is_profile());
        let off = Tracer::off();
        off.set_profile(true);
        assert!(!off.is_profile(), "disabled tracer never profiles");
    }

    #[test]
    fn causal_flag_is_runtime_gated() {
        let sim = Sim::new();
        let t = Tracer::new(sim.now_handle());
        assert!(!t.is_causal());
        t.set_causal(true);
        assert!(t.is_causal(), "causal class is a runtime flag, not a cargo feature");
        t.set_causal(false);
        assert!(!t.is_causal());
        let off = Tracer::off();
        off.set_causal(true);
        assert!(!off.is_causal(), "disabled tracer never emits causal events");
    }

    #[test]
    fn complete_span_uses_explicit_interval() {
        let sim = Sim::new();
        let t = Tracer::new(sim.now_handle());
        let start = Time::from_ps(1_000);
        let end = Time::from_ps(4_500);
        t.complete_span(Category::Load, "rpc.hop", 3, start, end, 42);
        // Inverted interval: zero-length span, never a panic or underflow.
        t.complete_span(Category::Load, "rpc.hop", 3, end, start, 43);
        let evs = t.take_events();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].at, evs[0].a0, evs[0].a1), (start, 42, 3_500));
        assert_eq!(evs[0].phase, Phase::Complete);
        assert_eq!((evs[1].at, evs[1].a1), (end, 0));
        assert_eq!(t.hash(), hash_events(&evs), "explicit spans hash like any other event");
    }

    #[test]
    fn flow_export_extends_chrome_json_without_perturbing_it() {
        let evs = vec![ev(1, "swq.enqueue", 3)];
        assert_eq!(chrome_json(&evs), chrome_json_with_flows(&evs, &[]));
        let flows = vec![FlowArrow {
            id: 7,
            name: "fanout",
            from: Time::from_ps(1_000_000),
            from_track: 1,
            to: Time::from_ps(3_000_000),
            to_track: 2,
        }];
        let json = chrome_json_with_flows(&evs, &flows);
        assert!(json.contains("\"ph\":\"s\",\"id\":7,\"ts\":1.000000"));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":7,\"ts\":3.000000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Flows with no base events still form a valid array.
        let lone = chrome_json_with_flows(&[], &flows);
        assert_eq!(lone.matches('{').count(), lone.matches('}').count());
        assert!(lone.contains("\"ph\":\"s\""));
    }

    #[test]
    fn verbose_is_gated_by_feature() {
        let sim = Sim::new();
        let t = Tracer::new(sim.now_handle());
        assert!(!t.is_verbose());
        t.set_verbose(true);
        assert_eq!(t.is_verbose(), cfg!(feature = "trace"));
    }
}
