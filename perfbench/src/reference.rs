//! The reference loop: a fixed piece of host work, timed beside the
//! simulator's, that says how fast the host runs at that moment.
//!
//! On a shared host the same production pass was measured taking from
//! 11.3 s to 19.9 s within a few minutes, with the process on one CPU
//! and its CPU time tracking its wall time: the host itself ran slower,
//! not the process less often. A small event loop shaped like the
//! simulator's (a binary heap of timestamped events, random reads and
//! writes over a table, a small allocation now and then) slows with it.
//! Dividing a host time by the loop's time taken just before and after
//! it, and scaling by [`REFERENCE_S`], gives seconds at one fixed host
//! speed. Over four minutes of passes, one process each, the spread
//! between passes (quartile distance over median) fell from 21% to 5% on
//! the `rpc-blame` cells and from 34% to 10% on a seventh of the figure
//! cells. A 256 KiB table tracked the host best: 2 MiB did no better on
//! the figure cells and half as well on the RPC cells; 16 MiB did worse on
//! the RPC cells, and mixing in reads of a 64 MiB table worse on the
//! figure cells.
//! The loop is part of the benchmark and never changes with the
//! simulator, so a slower simulator still reads slower.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The loop's time on an unloaded 2-vCPU build host. It only fixes the
/// scale: scaled times read close to that host's seconds.
pub const REFERENCE_S: f64 = 0.005;

/// Events the loop handles per timing, about [`REFERENCE_S`] of work, in
/// [`ROUNDS`] equal rounds.
const STEPS: u64 = 125_000;

/// A timing is the fastest of this many rounds times their number, so a
/// round that lost the CPU for a moment does not count.
const ROUNDS: u32 = 3;

/// 256 KiB of state.
const TABLE_WORDS: usize = 1 << 15;

pub struct Reference {
    table: Vec<u64>,
}

impl Reference {
    /// A loop whose table is already touched, so the first timing does not
    /// pay for page faults.
    pub fn new() -> Reference {
        let mut r = Reference { table: vec![0; TABLE_WORDS] };
        r.time();
        r
    }

    /// Runs the loop and returns its host seconds. The table is read
    /// through first, untimed, so the timing does not depend on how much of
    /// it the simulator's work before it left in the caches.
    pub fn time(&mut self) -> f64 {
        std::hint::black_box(self.table.iter().step_by(8).fold(0u64, |a, &v| a ^ v));
        let round = |r: &mut Reference| {
            let start = Instant::now();
            std::hint::black_box(r.run(STEPS / u64::from(ROUNDS)));
            start.elapsed().as_secs_f64()
        };
        let fastest = (0..ROUNDS).map(|_| round(self)).fold(f64::INFINITY, f64::min);
        fastest * f64::from(ROUNDS)
    }

    fn run(&mut self, steps: u64) -> u64 {
        let mask = self.table.len() - 1;
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = (0..64).map(|i| Reverse((i, i))).collect();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        for _ in 0..steps {
            let Reverse((at, id)) = heap.pop().expect("the heap never empties");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x ^ id) as usize & mask;
            self.table[j] = self.table[j].wrapping_add(at);
            acc = acc.wrapping_add(self.table[(j * 7 + 1) & mask]);
            heap.push(Reverse((at + (x & 1023), id)));
            if x & 15 == 0 {
                acc ^= std::hint::black_box(vec![acc; 8])[3];
            }
        }
        acc
    }
}

/// `secs` of host time at the reference speed, given the reference loop's
/// time `ref_s` measured beside it.
pub fn scale(secs: f64, ref_s: f64) -> f64 {
    if ref_s > 0.0 {
        secs * REFERENCE_S / ref_s
    } else {
        secs
    }
}
