//! Seeded random op streams through one core, pinned by fingerprint, plus
//! edge cases of the core's op bookkeeping.
//!
//! Each stream drives a core the way an executor does: batches emitted from
//! the emit hook, dependences reaching back over earlier ops (retired ones
//! included), and idle gaps that let the pipeline drain. Every op's
//! (id, completion time), the core's counters and the hash of the core's
//! profile and deep trace events fold into one FNV-1a value pinned in
//! source, so a change to the bookkeeping that moves a completion instant,
//! an event or a counter shows here.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use kus_cpu::{Core, CoreConfig, FillPath, Op, OpId, OpKind};
use kus_mem::uncore::CreditQueue;
use kus_mem::LineAddr;
use kus_sim::event::EventFn;
use kus_sim::trace::Categories;
use kus_sim::{Clock, Observe, Sim, SimRng, Span, Time, Tracer};

/// One stream shape.
struct Shape {
    name: &'static str,
    config: CoreConfig,
    credits: usize,
    ops: u64,
    /// How far back, in op ids, a dependence may reach.
    reach: u64,
    /// Relative weights of work, load, prefetch, store, soft work, MMIO.
    mix: [u64; 6],
    /// Width of the window of lines the ops touch: a narrow one means
    /// merges, L1 hits and redundant prefetches.
    lines: u64,
    /// Chance that the feeder idles before its next batch.
    idle: f64,
}

fn shapes() -> Vec<Shape> {
    let small = CoreConfig {
        clock: Clock::from_ghz(2.0),
        rob_slots: 24,
        lfb_count: 2,
        emit_low_water_slots: 16,
        ..CoreConfig::default()
    };
    vec![
        Shape {
            name: "small rob, lfb and credits",
            config: small,
            credits: 1,
            ops: 1500,
            reach: 6,
            mix: [5, 4, 1, 1, 1, 0],
            lines: 64,
            idle: 0.05,
        },
        Shape {
            name: "deps past retirement",
            config: CoreConfig::default(),
            credits: 14,
            ops: 3000,
            reach: 400,
            mix: [6, 3, 1, 1, 1, 1],
            lines: 4096,
            idle: 0.3,
        },
        Shape {
            name: "soft work and mmio serialisation",
            config: CoreConfig::default(),
            credits: 14,
            ops: 2000,
            reach: 12,
            mix: [3, 1, 0, 0, 4, 2],
            lines: 512,
            idle: 0.1,
        },
        Shape {
            name: "merges and dropped prefetches",
            config: CoreConfig { lfb_count: 4, ..CoreConfig::default() },
            credits: 3,
            ops: 3000,
            reach: 30,
            mix: [2, 3, 5, 0, 0, 0],
            lines: 6,
            idle: 0.05,
        },
    ]
}

struct Feeder {
    core: Rc<RefCell<Core>>,
    rng: SimRng,
    next: OpId,
    total: u64,
    reach: u64,
    mix: [u64; 6],
    lines: u64,
    idle: f64,
    done: Rc<RefCell<Vec<(OpId, Time)>>>,
}

fn random_kind(f: &mut Feeder, id: OpId) -> OpKind {
    let total: u64 = f.mix.iter().sum();
    let mut pick = f.rng.below(total);
    let mut which = 0;
    while pick >= f.mix[which] {
        pick -= f.mix[which];
        which += 1;
    }
    // A window of lines sliding with the op ids keeps misses coming.
    let line = LineAddr::from_index(id / 8 + f.rng.below(f.lines));
    match which {
        0 => OpKind::Work { insts: 1 + f.rng.below(20) as u32 },
        1 => OpKind::Load { line },
        2 => OpKind::Prefetch { line },
        3 => OpKind::Store { line },
        4 => OpKind::SoftWork { span: Span::from_ns(5 + f.rng.below(60)) },
        _ => OpKind::Mmio { cost: Span::from_ns(50 + f.rng.below(250)) },
    }
}

/// Emits one batch, then re-arms itself on the emit hook or after an idle gap.
fn feed(f: Rc<RefCell<Feeder>>, sim: &mut Sim) {
    let core = {
        let st = &mut *f.borrow_mut();
        if st.next >= st.total {
            return;
        }
        let batch = 1 + st.rng.below(12);
        for _ in 0..batch.min(st.total - st.next) {
            let id = st.next;
            let kind = random_kind(st, id);
            let mut op = Op::new(kind);
            for _ in 0..st.rng.below(4) {
                if id > 0 {
                    let back = 1 + st.rng.below(st.reach.min(id));
                    op = op.after([id - back]);
                }
            }
            if matches!(kind, OpKind::SoftWork { .. }) && st.rng.chance(0.5) {
                op = op.profiled("cpu.poll");
            }
            let done = st.done.clone();
            op = op.on_complete(move |sim| done.borrow_mut().push((id, sim.now())));
            let core = st.core.clone();
            assert_eq!(Core::emit(&core, sim, op), id, "op ids are handed out in order");
            st.next += 1;
        }
        if st.rng.chance(st.idle) {
            let gap = Span::from_ns(st.rng.below(3000));
            let f2 = f.clone();
            sim.schedule_in(gap, move |sim| feed(f2, sim));
            return;
        }
        st.core.clone()
    };
    let f2 = f.clone();
    Core::set_emit_hook(&core, sim, move |sim| feed(f2, sim));
}

fn fnv(hash: u64, v: u64) -> u64 {
    v.to_le_bytes().iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Runs one shape to completion; returns its fingerprint.
fn run_stream(shape: &Shape, seed: u64) -> u64 {
    let mut sim = Sim::new();
    let rng = SimRng::from_seed(seed).split(shape.name);
    let launches = Rc::new(Cell::new(0u64));
    let fill: FillPath = {
        let launches = launches.clone();
        let lat = RefCell::new(rng.split("fill"));
        Rc::new(move |sim: &mut Sim, _core, _line, done: EventFn| {
            launches.set(launches.get() + 1);
            sim.schedule_in(Span::from_ns(200 + lat.borrow_mut().below(1500)), done);
        })
    };
    let credits = Rc::new(RefCell::new(CreditQueue::new("stream", shape.credits)));
    let core = Core::new(0, shape.config, credits, fill);
    let posted = Rc::new(Cell::new(0u64));
    {
        let posted = posted.clone();
        core.borrow_mut().set_store_path(Rc::new(move |_sim: &mut Sim, _core, line: LineAddr| {
            posted.set(posted.get().wrapping_mul(31).wrapping_add(line.index()));
        }));
    }
    let observe = Observe { deep: true, profile: true, causal: false, buffered: Categories::NONE };
    let tracer = Tracer::on(sim.now_handle(), observe);
    core.borrow_mut().set_tracer(tracer.clone());

    let done = Rc::new(RefCell::new(Vec::new()));
    let feeder = Rc::new(RefCell::new(Feeder {
        core: core.clone(),
        rng: rng.split("ops"),
        next: 0,
        total: shape.ops,
        reach: shape.reach,
        mix: shape.mix,
        lines: shape.lines,
        idle: shape.idle,
        done: done.clone(),
    }));
    sim.schedule_now(move |sim| feed(feeder, sim));
    sim.run();

    let c = core.borrow();
    assert_eq!(c.in_flight(), 0, "{}: every op retires", shape.name);
    assert_eq!(c.retired_ops.get(), shape.ops, "{}", shape.name);
    let done = done.borrow();
    assert_eq!(done.len() as u64, shape.ops, "{}: every op completes once", shape.name);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for &(id, at) in done.iter() {
        h = fnv(fnv(h, id), at.as_ps());
    }
    for v in [
        c.retired_ops.get(),
        c.retired_work_insts.get(),
        c.loads.get(),
        c.stores.get(),
        c.prefetches.get(),
        c.load_merges.get(),
        c.dropped_prefetches.get(),
        launches.get(),
        posted.get(),
        sim.now().as_ps(),
        tracer.hash(),
        tracer.count(),
    ] {
        h = fnv(h, v);
    }
    h
}

#[test]
fn random_op_streams_pinned_in_source() {
    // Recorded from the hash-map core that preceded the op window; any
    // bookkeeping change must reproduce every completion instant exactly.
    let pins: [(&str, u64); 4] = [
        ("small rob, lfb and credits", 0xd6d4616ccccfc87f),
        ("deps past retirement", 0xb8c6490706952484),
        ("soft work and mmio serialisation", 0xd86ff45c1cebb5e9),
        ("merges and dropped prefetches", 0xb70fa920215460f1),
    ];
    let got: Vec<(&str, u64)> = shapes().iter().map(|s| (s.name, run_stream(s, 1))).collect();
    assert_eq!(got, pins);
}

#[test]
fn random_op_streams_are_deterministic() {
    for s in shapes() {
        assert_eq!(run_stream(&s, 7), run_stream(&s, 7), "{}", s.name);
    }
}

/// A core with a fixed-latency fill path.
fn rig(config: CoreConfig, fill_latency: Span) -> (Sim, Rc<RefCell<Core>>) {
    let credits = Rc::new(RefCell::new(CreditQueue::new("test-path", 14)));
    let fill: FillPath = Rc::new(move |sim: &mut Sim, _core, _line, done: EventFn| {
        sim.schedule_in(fill_latency, done)
    });
    (Sim::new(), Core::new(0, config, credits, fill))
}

fn ghz1() -> CoreConfig {
    CoreConfig { clock: Clock::from_ghz(1.0), work_ipc: 1.0, ..CoreConfig::default() }
}

/// Records the completion instant of an op in `at`.
fn stamp(op: Op, at: &Rc<Cell<Option<Time>>>) -> Op {
    let at = at.clone();
    op.on_complete(move |sim| at.set(Some(sim.now())))
}

#[test]
fn dependence_on_a_retired_op_is_satisfied() {
    let (mut sim, core) = rig(ghz1(), Span::from_us(1));
    let a = Core::emit(&core, &mut sim, Op::new(OpKind::Load { line: LineAddr::from_index(1) }));
    sim.run();
    assert_eq!(core.borrow().in_flight(), 0);
    let t0 = sim.now();
    let b_done = Rc::new(Cell::new(None));
    let b =
        Core::emit(&core, &mut sim, stamp(Op::new(OpKind::Work { insts: 8 }).after([a]), &b_done));
    assert_eq!(b, a + 1);
    sim.run();
    // Dispatched and started at once: 8 cycles of work, no wait on `a`.
    assert_eq!(b_done.get(), Some(t0 + Span::from_ns(8)));
    assert_eq!(core.borrow().retired_ops.get(), 2);
}

#[test]
fn dependence_on_an_op_retiring_in_the_same_instant() {
    let (mut sim, core) = rig(ghz1(), Span::from_us(1));
    let a_done = Rc::new(Cell::new(None));
    let (b_done, c_done) = (Rc::new(Cell::new(None)), Rc::new(Cell::new(None)));
    let (core2, b2, c2, a2) = (core.clone(), b_done.clone(), c_done.clone(), a_done.clone());
    let a = Core::emit(
        &core,
        &mut sim,
        Op::new(OpKind::Work { insts: 4 }).on_complete(move |sim| {
            a2.set(Some(sim.now()));
            // `a` is complete but not yet retired here...
            Core::emit(&core2, sim, stamp(Op::new(OpKind::Work { insts: 4 }).after([0]), &b2));
            // ...and retired by the time this event runs, in the same instant.
            let core3 = core2.clone();
            sim.schedule_now(move |sim| {
                assert_eq!(core3.borrow().retired_ops.get(), 1, "a retired before c is emitted");
                Core::emit(
                    &core3,
                    sim,
                    stamp(Op::new(OpKind::Work { insts: 4 }).after([0, 1]), &c2),
                );
            });
        }),
    );
    assert_eq!(a, 0);
    sim.run();
    let ta = a_done.get().expect("a completes");
    // b starts as it is emitted; c waits only on b.
    assert_eq!(b_done.get(), Some(ta + Span::from_ns(4)));
    assert_eq!(c_done.get(), Some(ta + Span::from_ns(8)));
    assert_eq!(core.borrow().retired_ops.get(), 3);
    assert_eq!(core.borrow().in_flight(), 0);
}

#[test]
fn full_drain_then_new_emits_continue_the_ids() {
    let (mut sim, core) = rig(ghz1(), Span::from_ns(300));
    for round in 0..3u64 {
        let first = round * 5;
        for i in 0..5u64 {
            let mut op = Op::new(OpKind::Load { line: LineAddr::from_index(round * 5 + i) });
            if first > 0 {
                // Reach back into the previous, fully retired round.
                op = op.after([first - 1, first - 5]);
            }
            if i > 0 {
                op = op.after([first + i - 1]);
            }
            assert_eq!(Core::emit(&core, &mut sim, op), first + i);
        }
        assert_eq!(core.borrow().in_flight(), 5);
        sim.run();
        assert_eq!(core.borrow().in_flight(), 0, "round {round} drains");
        assert_eq!(core.borrow().retired_ops.get(), first + 5);
    }
}

#[test]
fn debug_dump_and_in_flight_show_the_rob_and_the_queue() {
    let config = CoreConfig { rob_slots: 32, emit_low_water_slots: 32, ..ghz1() };
    let (mut sim, core) = rig(config, Span::from_us(1));
    let ld = Core::emit(&core, &mut sim, Op::new(OpKind::Load { line: LineAddr::from_index(0) }));
    Core::emit_work(&core, &mut sim, 200, &[ld]);
    sim.set_horizon(Time::ZERO + Span::from_ns(500));
    sim.run();
    // The load holds the ROB head; the first 32-slot chunk does not fit
    // beside it, so all seven chunks wait in the dispatch queue.
    assert_eq!(core.borrow().in_flight(), 8);
    let dump = core.borrow().debug_dump();
    let mut lines = dump.lines();
    let head = lines.next().expect("summary line");
    assert!(
        head.starts_with("core 0: rob_used=1 queued_slots=200 dispatch_q=7 lfb=1/10 lfb_waiters=0"),
        "{dump}"
    );
    assert_eq!(
        lines.next(),
        Some("  rob[0] op0 Load { line: LineAddr(0) } dispatched=true done=false pending_deps=0"),
        "{dump}"
    );
    assert_eq!(lines.next(), Some("  dispatch_q front: op1 Work { insts: 32 } slots=32"), "{dump}");
    assert_eq!(lines.next(), None, "{dump}");
    assert_eq!(
        format!("{:?}", core.borrow()),
        "Core { id: 0, rob_used: 1, queued: 7, retired_ops: 0 }"
    );

    sim.set_horizon(Time::MAX);
    sim.run();
    assert_eq!(core.borrow().in_flight(), 0);
    let dump = core.borrow().debug_dump();
    assert!(dump.starts_with("core 0: rob_used=0 queued_slots=0 dispatch_q=0 lfb=0/10"), "{dump}");
    assert_eq!(dump.lines().count(), 1, "{dump}");
}
