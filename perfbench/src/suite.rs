//! Benchmark inputs: allocator families, the closed-loop workloads' cells,
//! and their set-up.

use ccra_analysis::{FrequencyInfo, InterpConfig, Value};
use ccra_ir::Program;
use ccra_machine::RegisterFile;
use ccra_regalloc::{AllocatorConfig, PriorityOrdering};
use ccra_workloads::{random_program, spec_program_scaled, FuzzConfig, Scale, SpecProgram};

use crate::stats::thread_cpu_s;

/// An allocator configuration the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// The improved allocator (SC + BS + PR).
    Improved,
    /// The improved allocator with incremental graph reconstruction.
    ImprovedRecon,
    /// Briggs-style optimistic coloring.
    Optimistic,
    /// Chow-style priority coloring (the paper's `Sorting` ordering).
    Priority,
    /// The CBH model.
    Cbh,
    /// The base Chaitin allocator.
    Base,
}

impl Family {
    /// The five families every workload runs.
    pub const FIVE: [Family; 5] = [
        Family::Improved,
        Family::ImprovedRecon,
        Family::Optimistic,
        Family::Priority,
        Family::Cbh,
    ];

    /// The allocator configuration.
    pub fn config(self) -> AllocatorConfig {
        match self {
            Family::Improved => AllocatorConfig::improved(),
            Family::ImprovedRecon => AllocatorConfig::improved().with_reconstruction(),
            Family::Optimistic => AllocatorConfig::optimistic(),
            Family::Priority => AllocatorConfig::priority(PriorityOrdering::Sorting),
            Family::Cbh => AllocatorConfig::cbh(),
            Family::Base => AllocatorConfig::base(),
        }
    }
}

/// One closed-loop request: allocate one program under one family and
/// register file.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Index into [`Suite::programs`].
    pub program: usize,
    /// The allocator family.
    pub family: Family,
    /// The register file.
    pub file: RegisterFile,
    /// Instructions in the program before allocation.
    pub instrs: usize,
    /// Whether the cell exhausts the spill-round bound (the known defect),
    /// which makes one allocation cost seconds: it is timed once per run
    /// while the other cells are timed repeatedly.
    pub once: bool,
}

/// A closed-loop workload's inputs.
pub struct Suite {
    /// The programs.
    pub programs: Vec<Program>,
    /// Each program's block frequencies.
    pub freqs: Vec<FrequencyInfo>,
    /// The value each original program returns (the replay oracle).
    pub expected: Vec<Option<Value>>,
    /// Every request of one pass.
    pub cells: Vec<Cell>,
    /// Whether the frequencies are interpreter profiles (where the cost
    /// model's estimate must equal the replayed overhead exactly).
    pub profiled: bool,
}

/// Where one set-up spent its time (thread CPU seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    /// The whole set-up.
    pub total_s: f64,
    /// The whole set-up at the nominal host speed (see [`crate::calib`]),
    /// once the run has its reference timings.
    pub nominal_s: f64,
    /// Generating the programs.
    pub gen_s: f64,
    /// Computing block frequencies.
    pub freq_s: f64,
    /// Running the original programs for their expected results.
    pub interp_s: f64,
    /// Instructions the interpreter executed there.
    pub interp_steps: u64,
}

/// The generator seed of every `large-fn` program: the reference seed the
/// scaling measurements were first taken on. It is fixed so the base
/// allocator's ~1k-instruction function keeps exhausting the spill-round
/// bound on every run.
pub const LARGE_FN_SEED: u64 = 7;

/// `large-fn` statement counts: about 220, 970 and 1,900 instructions.
pub const LARGE_FN_STMTS: [usize; 3] = [100, 400, 800];

/// The `large-fn` size (~970 instructions) at which the base allocator
/// exhausts the spill-round bound and degrades.
const BASE_DEFECT_STMTS: usize = 400;

/// Whether `family` exhausts the spill-round bound at `stmts`. On the pinned
/// ~970-instruction program, one thread of a 2-core Xeon VM takes about
/// 34 s (base), 26 s (optimistic) and 4 s (reconstruction) to reach the
/// bound and fall back.
fn exhausts_bound(family: Family, stmts: usize) -> bool {
    stmts == BASE_DEFECT_STMTS
        && matches!(
            family,
            Family::Base | Family::Optimistic | Family::ImprovedRecon
        )
}

/// Whether `large-fn` runs `family` at `stmts`. Base stops at the ~1k
/// function where it exhausts the spill-round bound. Optimistic and priority
/// stop there too: one ~2k allocation of theirs runs for minutes, past the
/// benchmark's per-run limit. Reconstruction exhausts the round bound at ~2k
/// as well (about 13 s), which the traced run's time limit cannot afford.
fn large_fn_runs(family: Family, stmts: usize) -> bool {
    stmts <= BASE_DEFECT_STMTS || matches!(family, Family::Improved | Family::Cbh)
}

fn instrs(p: &Program) -> usize {
    p.functions().map(|(_, f)| f.num_insts()).sum()
}

fn finish(
    programs: Vec<Program>,
    profiled: bool,
    cells: Vec<Cell>,
    gen_s: f64,
) -> (Suite, SetupCost) {
    let t = thread_cpu_s();
    let freqs: Vec<FrequencyInfo> = programs
        .iter()
        .map(|p| {
            if profiled {
                FrequencyInfo::profile(p).expect("benchmark programs terminate")
            } else {
                FrequencyInfo::estimate(p)
            }
        })
        .collect();
    let freq_s = thread_cpu_s() - t;
    let t = thread_cpu_s();
    let mut interp_steps = 0;
    let expected = programs
        .iter()
        .map(|p| {
            let stats =
                ccra_analysis::run(p, &InterpConfig::default()).expect("benchmark programs run");
            interp_steps += stats.steps;
            stats.result
        })
        .collect();
    let interp_s = thread_cpu_s() - t;
    let cost = SetupCost {
        total_s: gen_s + freq_s + interp_s,
        nominal_s: 0.0,
        gen_s,
        freq_s,
        interp_s,
        interp_steps,
    };
    let suite = Suite {
        programs,
        freqs,
        expected,
        cells,
        profiled,
    };
    (suite, cost)
}

/// `large-fn`: one-function random programs of ~220, ~970 and ~1,900
/// instructions on the full MIPS register file, static frequencies.
pub fn large_fn() -> (Suite, SetupCost) {
    let t = thread_cpu_s();
    let programs: Vec<Program> = LARGE_FN_STMTS
        .iter()
        .map(|&stmts| {
            let config = FuzzConfig {
                functions: 1,
                stmts_per_fn: stmts,
                ..FuzzConfig::default()
            };
            random_program(LARGE_FN_SEED, &config)
        })
        .collect();
    let gen_s = thread_cpu_s() - t;
    let mut cells = Vec::new();
    for (i, &stmts) in LARGE_FN_STMTS.iter().enumerate() {
        for family in Family::FIVE.into_iter().chain([Family::Base]) {
            if large_fn_runs(family, stmts) {
                cells.push(Cell {
                    program: i,
                    family,
                    file: RegisterFile::mips_full(),
                    instrs: instrs(&programs[i]),
                    once: exhausts_bound(family, stmts),
                });
            }
        }
    }
    finish(programs, false, cells, gen_s)
}

/// `spec-suite`: the 14 SPEC-like programs at scale 1.0 × the five
/// families × the 17-point register sweep, profile frequencies.
pub fn spec_suite() -> (Suite, SetupCost) {
    let t = thread_cpu_s();
    let programs: Vec<Program> = SpecProgram::ALL
        .iter()
        .map(|&p| spec_program_scaled(p, Scale(1.0)))
        .collect();
    let gen_s = thread_cpu_s() - t;
    let mut cells = Vec::new();
    for (i, p) in programs.iter().enumerate() {
        for family in Family::FIVE {
            for file in RegisterFile::paper_sweep() {
                cells.push(Cell {
                    program: i,
                    family,
                    file,
                    instrs: instrs(p),
                    once: false,
                });
            }
        }
    }
    finish(programs, true, cells, gen_s)
}

/// Whether two interpreter results are the same value (floats compared by
/// bits, so a NaN result matches itself).
pub fn same_value(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(Value::Int(x)), Some(Value::Int(y))) => x == y,
        (Some(Value::Float(x)), Some(Value::Float(y))) => x.to_bits() == y.to_bits(),
        (None, None) => true,
        _ => false,
    }
}

/// Maps `f` over `items` on `threads` threads, each with its own state
/// from `init`. Items are taken in order, so put the costliest first.
/// Returns the results in item order and every thread's final state.
pub fn par_map<T, R, S>(
    threads: usize,
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
{
    par_pull(threads, |i| items.get(i), init, |s, i, item| f(s, i, item))
}

/// Like [`par_map`], but item `i` is `next(i)`, taken while it is `Some`:
/// for work whose length is only known while it runs.
pub fn par_pull<T, R, S>(
    threads: usize,
    next: impl Fn(usize) -> Option<T> + Sync,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, T) -> R + Sync,
) -> (Vec<R>, Vec<S>)
where
    R: Send,
    S: Send,
{
    let taken = std::sync::atomic::AtomicUsize::new(0);
    let per_thread: Vec<(Vec<(usize, R)>, S)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut out = Vec::new();
                    loop {
                        let i = taken.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = next(i) else { break };
                        out.push((i, f(&mut state, i, item)));
                    }
                    (out, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker threads do not panic"))
            .collect()
    });
    let mut results: Vec<(usize, R)> = Vec::new();
    let mut states = Vec::new();
    for (out, state) in per_thread {
        results.extend(out);
        states.push(state);
    }
    results.sort_by_key(|(i, _)| *i);
    (results.into_iter().map(|(_, r)| r).collect(), states)
}
