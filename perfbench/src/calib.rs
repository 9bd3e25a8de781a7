//! Host-speed calibration.
//!
//! The benchmark runs on virtual CPUs of a shared host whose speed drifts,
//! by a quarter or more over tens of seconds, as other tenants come and
//! go; thread CPU time does not hide that. Each worker therefore times a
//! fixed reference kernel between its timed calls, every [`EVERY_S`] of
//! its CPU time, and each call's CPU time is reported at the nominal host
//! speed: scaled by [`NOMINAL_REF_S`] over the median kernel timing the
//! thread took around the call. A call made while the host was slow is
//! scaled down by as much as the kernel slowed; a slower allocator still
//! shows as slower, since the kernel does not run repository code.
//!
//! The kernel does the kind of work an allocator does: it builds a random
//! graph as adjacency lists, colours it greedily, runs a bit-vector
//! dataflow to a fixed point and fills and probes a hash map.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Mutex;

use crate::stats::{median, thread_cpu_s, Rng};

/// CPU seconds of one [`reference_kernel`] call at the nominal host speed
/// (about the median over runs on a 2-core Xeon VM).
const NOMINAL_REF_S: f64 = 0.0034;

/// Each thread re-times the kernel after this many CPU seconds of work.
const EVERY_S: f64 = 0.2;

/// Kernel timings per entry of a thread's timeline.
const BURST: usize = 3;

/// Timeline entries on each side of a timed call that scale it.
const AROUND: usize = 3;

/// CPU seconds above which a call is not scaled. Single reference timings
/// vary with the host's speed at that moment; a call this long averages
/// that over its own length, and scaling it by the timings at its two ends
/// only adds their variation.
const LONG_S: f64 = 10.0;

/// The reference kernel; returns a checksum so none of it is optimised
/// away.
fn reference_kernel() -> u64 {
    let mut rng = Rng::new(0x5EED, 0);
    let n = 1200;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for _ in 0..n * 8 {
        let (a, b) = (rng.below(n), rng.below(n));
        if a != b {
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(adj[v].len()));
    let mut colour = vec![u32::MAX; n];
    for &v in &order {
        let mut used = [false; 64];
        for &w in &adj[v] {
            if let Some(c) = used.get_mut(colour[w as usize] as usize) {
                *c = true;
            }
        }
        colour[v] = used.iter().position(|u| !u).unwrap_or(63) as u32;
    }

    // Backward liveness over a random control-flow graph of bit vectors.
    let (blocks, words) = (300, 16);
    let succ: Vec<[usize; 2]> = (0..blocks)
        .map(|_| [rng.below(blocks), rng.below(blocks)])
        .collect();
    let gen: Vec<Vec<u64>> = (0..blocks)
        .map(|_| {
            (0..words)
                .map(|_| rng.next_u64() & rng.next_u64())
                .collect()
        })
        .collect();
    let kill: Vec<Vec<u64>> = (0..blocks)
        .map(|_| (0..words).map(|_| rng.next_u64()).collect())
        .collect();
    let mut live_in = vec![vec![0u64; words]; blocks];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..blocks).rev() {
            for w in 0..words {
                let out = live_in[succ[b][0]][w] | live_in[succ[b][1]][w];
                let new = gen[b][w] | (out & !kill[b][w]);
                if new != live_in[b][w] {
                    live_in[b][w] = new;
                    changed = true;
                }
            }
        }
    }

    let mut map: HashMap<u64, u32> = HashMap::new();
    for (v, &c) in colour.iter().enumerate() {
        for &w in &adj[v] {
            *map.entry((v as u64) << 32 | w as u64).or_default() += c;
        }
    }
    let mut sum = map.len() as u64;
    for v in 0..n as u64 {
        sum = sum.wrapping_add(u64::from(*map.get(&(v << 32 | (v + 1))).unwrap_or(&0)));
    }
    live_in
        .iter()
        .flatten()
        .fold(sum, |acc, w| acc.rotate_left(5) ^ w)
}

/// Times one [`reference_kernel`] call in thread CPU seconds.
fn time_reference() -> f64 {
    let t = thread_cpu_s();
    std::hint::black_box(reference_kernel());
    thread_cpu_s() - t
}

/// Every thread's reference timeline: each entry is the median of
/// [`BURST`] kernel timings taken back to back.
static TIMELINES: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());

thread_local! {
    /// The calling thread's index in [`TIMELINES`].
    static TIMELINE: usize = {
        let mut all = TIMELINES.lock().expect("no thread panics holding it");
        all.push(Vec::new());
        all.len() - 1
    };
    /// The thread CPU time at which the calling thread next times the
    /// kernel.
    static DUE: Cell<f64> = const { Cell::new(f64::NEG_INFINITY) };
}

/// Where a timed call began in its thread's reference timeline.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    thread: usize,
    next: usize,
}

/// Call right before a timed call: times the kernel if the calling thread
/// has not done so in the last [`EVERY_S`] of its CPU time, and returns
/// the call's place in the thread's timeline.
pub fn mark() -> Mark {
    if DUE.with(|due| thread_cpu_s() >= due.get()) {
        record();
    }
    let thread = TIMELINE.with(|t| *t);
    let next = TIMELINES.lock().expect("no thread panics holding it")[thread].len();
    Mark { thread, next }
}

/// Call after the calling thread's last timed call: times the kernel, so
/// that call has a reference timing after it.
pub fn close() {
    record();
}

/// Adds a burst of kernel timings to the calling thread's timeline.
fn record() {
    let burst: Vec<f64> = (0..BURST).map(|_| time_reference()).collect();
    let thread = TIMELINE.with(|t| *t);
    TIMELINES.lock().expect("no thread panics holding it")[thread].push(median(&burst));
    DUE.with(|due| due.set(thread_cpu_s() + EVERY_S));
}

/// `secs` of CPU time, taken by a call timed from `mark`, at the nominal
/// host speed: scaled by [`NOMINAL_REF_S`] over the median of the
/// [`AROUND`] entries of the thread's timeline just before the call and
/// the [`AROUND`] just after it. A call longer than [`LONG_S`] is left as
/// measured. Call it once the thread has finished its timed calls.
pub fn at_nominal(mark: Mark, secs: f64) -> f64 {
    if secs > LONG_S {
        return secs;
    }
    let all = TIMELINES.lock().expect("no thread panics holding it");
    let timeline = &all[mark.thread];
    let end = (mark.next + AROUND).min(timeline.len());
    let around = &timeline[mark.next.saturating_sub(AROUND).min(end)..end];
    if around.is_empty() {
        return secs;
    }
    secs * NOMINAL_REF_S / median(around)
}

/// The median reference timing of the run so far, in CPU seconds
/// ([`NOMINAL_REF_S`] if none was taken).
pub fn reference_s() -> f64 {
    let all = TIMELINES.lock().expect("no thread panics holding it");
    let samples: Vec<f64> = all.iter().flatten().copied().collect();
    if samples.is_empty() {
        NOMINAL_REF_S
    } else {
        median(&samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(reference_kernel(), reference_kernel());
    }

    #[test]
    fn calls_scale_by_the_timings_around_them() {
        // Each test runs on a thread of its own, so it has its own timeline.
        let first = mark();
        let timeline = |m: Mark| TIMELINES.lock().unwrap()[m.thread].clone();
        assert_eq!(first.next, 1, "the first mark times the kernel");
        assert_eq!(timeline(first).len(), 1);
        // Not due again until EVERY_S of CPU time has passed.
        assert_eq!(mark().next, 1);
        close();
        let ref_s = median(&timeline(first));
        let scaled = at_nominal(first, 0.5);
        assert!((scaled - 0.5 * NOMINAL_REF_S / ref_s).abs() < 1e-12);
        assert_eq!(at_nominal(first, 2.0 * LONG_S), 2.0 * LONG_S);
    }
}
