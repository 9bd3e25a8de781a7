//! The correctness gate.
//!
//! Every allocation must pass the independent checker, the rewritten
//! program must return what the original returned when the interpreter
//! replays it, and under profile frequencies the cost model's weighted
//! overhead must equal the replay-measured overhead exactly. The checker
//! is timed (it is a layer users wait on); the replay is not.

use ccra_analysis::{FrequencyInfo, InterpConfig, Value};
use ccra_ir::Program;
use ccra_regalloc::{
    check_allocation, measured_overhead, FuncAllocation, Overhead, ProgramAllocation,
};

use crate::report::Report;
use crate::spans::{At, Recorder};
use crate::stats::thread_cpu_s;
use crate::suite::same_value;

/// What the gate found for one program allocation.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Seconds of CPU time the checker took to reach its verdicts.
    pub check_s: f64,
    /// Checker violations over every function.
    pub violations: usize,
    /// Functions allocated.
    pub funcs: usize,
    /// Functions that took the degraded fallback.
    pub degraded: usize,
    /// Instructions after allocation (spill code and markers included).
    pub instrs_after: usize,
    /// Overhead operations the interpreter replay executed.
    pub measured_ops: f64,
    /// Every gate failure, described.
    pub problems: Vec<String>,
}

/// One allocation of a program, as the gate sees it.
pub struct Allocated<'a> {
    /// A label for failure messages.
    pub label: String,
    /// The program before allocation.
    pub program: &'a Program,
    /// The frequencies the allocator saw.
    pub freq: &'a FrequencyInfo,
    /// The rewritten program.
    pub rewritten: &'a Program,
    /// Per-function results, by function id.
    pub per_func: &'a [FuncAllocation],
}

impl<'a> Allocated<'a> {
    /// The library's allocation `out` of `program`.
    pub fn of(
        label: String,
        program: &'a Program,
        freq: &'a FrequencyInfo,
        out: &'a ProgramAllocation,
    ) -> Self {
        Allocated {
            label,
            program,
            freq,
            rewritten: &out.program,
            per_func: &out.per_func,
        }
    }
}

/// Counts every gate failure in the report.
pub fn tally(verdicts: &[Verdict], report: &mut Report) {
    for p in verdicts.iter().flat_map(|v| &v.problems) {
        report.fail(p.clone());
    }
}

/// Runs the checker on every function, timing it; with a recorder, each
/// call gets a `regalloc.check` span.
pub fn check(a: &Allocated<'_>, mut rec: Option<(&mut Recorder, At)>) -> Verdict {
    let mut v = Verdict::default();
    for (i, (id, f)) in a.program.functions().enumerate() {
        let alloc = &a.per_func[id.index()];
        let body = a.rewritten.function(id);
        let t = thread_cpu_s();
        let result = match rec.as_mut() {
            Some((rec, at)) => {
                let at = At {
                    func: i as u32,
                    ..*at
                }
                .size_of(f);
                rec.time("regalloc.check", at, || {
                    check_allocation(f, body, a.freq.func(id), alloc)
                })
            }
            None => check_allocation(f, body, a.freq.func(id), alloc),
        };
        v.check_s += thread_cpu_s() - t;
        if let Err(violations) = result {
            v.violations += violations.len();
            v.problems.push(format!(
                "{}: checker found {} violation(s) in {}: {:?}",
                a.label,
                violations.len(),
                f.name(),
                violations.first()
            ));
        }
        v.funcs += 1;
        v.degraded += usize::from(alloc.degraded);
        v.instrs_after += body.num_insts();
    }
    v
}

/// Replays the rewritten program in the interpreter: it must return
/// `expected`, and with `profiled` frequencies execute exactly the
/// `weighted` overhead the cost model estimated.
pub fn replay(
    a: &Allocated<'_>,
    expected: &Option<Value>,
    weighted: Overhead,
    profiled: bool,
    v: &mut Verdict,
) {
    match ccra_analysis::run(a.rewritten, &InterpConfig::default()) {
        Ok(stats) => {
            if !same_value(&stats.result, expected) {
                v.problems.push(format!(
                    "{}: replay returned {:?}, the original {:?}",
                    a.label, stats.result, expected
                ));
            }
            let measured = measured_overhead(&stats);
            v.measured_ops = measured.total();
            if profiled && measured != weighted {
                v.problems.push(format!(
                    "{}: weighted overhead {weighted:?} != measured {measured:?}",
                    a.label
                ));
            }
        }
        Err(e) => v.problems.push(format!("{}: replay failed: {e}", a.label)),
    }
}
