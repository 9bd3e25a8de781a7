//! The closed-loop workloads (`large-fn`, `spec-suite`): each worker issues
//! the next allocation as soon as the previous one returns.

use std::time::Instant;

use ccra_regalloc::{allocate_program, AllocError, ProgramAllocation};

use crate::calib;
use crate::gate::{self, Allocated, Verdict};
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{geomean, loglog_slope, median, peak_rss_mb, quantile, thread_cpu_s, Rng};
use crate::suite::{par_map, par_pull, Family, SetupCost, Suite};
use crate::traced::{finish_traced, trace_request, Request};
use crate::{serve, setup_metrics, Options, SLO_MS, WORKERS};

/// Every cell not marked [`crate::suite::Cell::once`] (and every distinct
/// `serve-mixed` program) is timed at least this many times; its
/// allocation and checker times are the medians.
pub const MIN_SAMPLES: usize = 3;

/// The cells with those timed once (the costliest) first, then by size,
/// ties broken by a seed shuffle.
fn costliest_first(suite: &Suite, cells: &[usize], rng: &mut Rng) -> Vec<usize> {
    let mut order = cells.to_vec();
    rng.shuffle(&mut order);
    order.sort_by_key(|&i| {
        let c = &suite.cells[i];
        std::cmp::Reverse((c.once, c.instrs))
    });
    order
}

fn allocated<'a>(suite: &'a Suite, ci: usize, out: &'a ProgramAllocation) -> Allocated<'a> {
    let cell = &suite.cells[ci];
    Allocated::of(
        format!("cell {ci} ({:?}, program {})", cell.family, cell.program),
        &suite.programs[cell.program],
        &suite.freqs[cell.program],
        out,
    )
}

/// Records the allocation, checker and quality metrics every workload
/// shares, from each allocated program's size, allocation seconds and gate
/// verdict (and tallies the gate's failures).
pub fn alloc_metrics(instrs: &[usize], alloc_s: &[f64], verdicts: &[Verdict], report: &mut Report) {
    let per_s = |secs: &mut dyn Iterator<Item = f64>| {
        let rates: Vec<f64> = instrs
            .iter()
            .zip(secs)
            .map(|(&i, s)| i as f64 / s)
            .collect();
        geomean(&rates)
    };
    report.put(
        "alloc_instrs_per_s",
        per_s(&mut alloc_s.iter().copied()),
        "instr/s",
    );
    let alloc_ms: Vec<f64> = alloc_s.iter().map(|s| s * 1e3).collect();
    report.put("alloc_ms.p50", quantile(&alloc_ms, 0.5), "ms");
    report.put("alloc_ms.p99", quantile(&alloc_ms, 0.99), "ms");
    report.put(
        "check_instrs_per_s",
        per_s(&mut verdicts.iter().map(|v| v.check_s)),
        "instr/s",
    );
    gate::tally(verdicts, report);
    let sum = |f: fn(&Verdict) -> usize| verdicts.iter().map(f).sum::<usize>();
    let before: usize = instrs.iter().sum();
    report.put(
        "overhead_ops",
        verdicts.iter().map(|v| v.measured_ops).sum(),
        "count",
    );
    report.put(
        "code_growth_frac",
        (sum(|v| v.instrs_after) as f64 - before as f64) / before.max(1) as f64,
        "frac",
    );
    report.put(
        "degraded_frac",
        sum(|v| v.degraded) as f64 / sum(|v| v.funcs).max(1) as f64,
        "frac",
    );
    report.put(
        "check_fail_frac",
        sum(|v| usize::from(!v.problems.is_empty())) as f64 / verdicts.len().max(1) as f64,
        "frac",
    );
}

/// One timed allocation of a cell in a pass: its CPU seconds (with where
/// they began in the reference timeline) and the checker's verdict on it,
/// plus, on the cell's first pass, the allocation.
type Sample = (
    usize,
    usize,
    calib::Mark,
    f64,
    Result<(Verdict, Option<ProgramAllocation>), AllocError>,
);

/// The untraced run: timed passes over the cells on [`WORKERS`] threads,
/// then the untimed interpreter replay. The first pass takes every cell,
/// costliest first; later passes take the cells not timed once, until
/// [`MIN_SAMPLES`] passes are done and `--seconds` have passed. Every pass
/// runs the checker on the allocation it makes. Allocation and checker
/// calls are timed in thread CPU time, scaled to the nominal host speed
/// (see [`calib`]).
pub fn run(suite: &Suite, setups: &[SetupCost], opts: &Options, report: &mut Report) {
    let n = suite.cells.len();
    let mut rng = Rng::new(opts.seed, 1);
    let all: Vec<usize> = (0..n).collect();
    let first = costliest_first(suite, &all, &mut rng);
    let again: Vec<usize> = first
        .iter()
        .copied()
        .filter(|&ci| !suite.cells[ci].once)
        .collect();
    let start = Instant::now();
    let next = |i: usize| {
        if i < n {
            return Some((0, first[i]));
        }
        let k = i - n;
        let pass = 1 + k / again.len().max(1);
        let more = pass < MIN_SAMPLES || start.elapsed().as_secs_f64() < opts.seconds;
        (more && !again.is_empty()).then(|| (pass, again[k % again.len()]))
    };
    let (results, _): (Vec<Sample>, _) = par_pull(
        WORKERS,
        next,
        || (),
        |_, _, (pass, ci)| {
            let mark = calib::mark();
            let cell = &suite.cells[ci];
            let t = thread_cpu_s();
            let out = allocate_program(
                &suite.programs[cell.program],
                &suite.freqs[cell.program],
                cell.file,
                &cell.family.config(),
            );
            let secs = thread_cpu_s() - t;
            let checked = out.map(|out| {
                let verdict = gate::check(&allocated(suite, ci, &out), None);
                (verdict, (pass == 0).then_some(out))
            });
            (ci, pass, mark, secs, checked)
        },
    );
    println!(
        "{} allocations over {n} cells in {:.3} s",
        results.len(),
        start.elapsed().as_secs_f64()
    );
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut check_samples: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut outs: Vec<Option<(ProgramAllocation, Verdict)>> = vec![None; n];
    // A later pass that fails where the first passed is reported once,
    // with the cell's verdict.
    let mut later_problems: Vec<Vec<String>> = vec![Vec::new(); n];
    for (ci, pass, mark, secs, checked) in results {
        samples[ci].push(calib::at_nominal(mark, secs));
        let checked = checked.map(|(mut verdict, out)| {
            verdict.check_s = calib::at_nominal(mark, verdict.check_s);
            (verdict, out)
        });
        match (pass, checked) {
            (0, Ok((verdict, out))) => {
                check_samples[ci].push(verdict.check_s);
                outs[ci] = out.map(|out| (out, verdict));
            }
            (0, Err(e)) => report.fail(format!("cell {ci}: allocation failed: {e}")),
            (_, Ok((verdict, _))) => {
                check_samples[ci].push(verdict.check_s);
                if later_problems[ci].is_empty() {
                    later_problems[ci] = verdict.problems;
                }
            }
            (_, Err(e)) => {
                if later_problems[ci].is_empty() {
                    later_problems[ci] = vec![format!("cell {ci}: allocation failed: {e}")];
                }
            }
        }
    }
    for (ci, done) in outs.iter_mut().enumerate() {
        if let Some((_, verdict)) = done {
            verdict.check_s = median(&check_samples[ci]);
            if verdict.problems.is_empty() {
                verdict.problems = std::mem::take(&mut later_problems[ci]);
            }
        }
    }

    let gated: Vec<usize> = (0..n).filter(|&ci| outs[ci].is_some()).collect();
    let order = costliest_first(suite, &gated, &mut Rng::new(opts.seed, 2));
    let (mut verdicts, _) = par_map(
        WORKERS,
        &order,
        || (),
        |_, _, &ci| {
            let (out, verdict) = outs[ci].as_ref().expect("gated cells allocated");
            let cell = &suite.cells[ci];
            let mut verdict = verdict.clone();
            gate::replay(
                &allocated(suite, ci, out),
                &suite.expected[cell.program],
                out.overhead,
                suite.profiled,
                &mut verdict,
            );
            (ci, verdict)
        },
    );
    verdicts.sort_by_key(|(ci, _)| *ci);
    let verdicts: Vec<Verdict> = verdicts.into_iter().map(|(_, v)| v).collect();
    report.attempted = n as u64;

    let alloc_s: Vec<f64> = gated.iter().map(|&ci| median(&samples[ci])).collect();
    let instrs: Vec<usize> = gated.iter().map(|&ci| suite.cells[ci].instrs).collect();
    let e2e_ms: Vec<f64> = alloc_s
        .iter()
        .zip(&verdicts)
        .map(|(a, v)| (a + v.check_s) * 1e3)
        .collect();
    setup_metrics(setups, report);
    alloc_metrics(&instrs, &alloc_s, &verdicts, report);
    report.put(
        "alloc_growth_exp",
        growth_by_family(suite, &gated, &alloc_s),
        "exp",
    );
    report.put("e2e_ms.p50", quantile(&e2e_ms, 0.5), "ms");
    report.put("e2e_ms.p99", quantile(&e2e_ms, 0.99), "ms");
    report.put(
        "slo_met_frac",
        e2e_ms.iter().filter(|&&ms| ms <= SLO_MS).count() as f64 / n as f64,
        "frac",
    );
    report.put("failed_frac", (n - gated.len()) as f64 / n as f64, "frac");
    report.put("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// The median over families of each family's log-log slope of allocation
/// time against program size.
fn growth_by_family(suite: &Suite, cells: &[usize], alloc_s: &[f64]) -> f64 {
    let slopes: Vec<f64> = Family::FIVE
        .iter()
        .chain(&[Family::Base])
        .map(|&fam| {
            let pts: Vec<(f64, f64)> = cells
                .iter()
                .zip(alloc_s)
                .filter(|(&ci, _)| suite.cells[ci].family == fam)
                .map(|(&ci, &s)| (suite.cells[ci].instrs as f64, s))
                .collect();
            loglog_slope(&pts)
        })
        .filter(|s| *s != 0.0)
        .collect();
    median(&slopes)
}

/// The traced run: every cell once through the outside replay (with the
/// library's own result as the equality reference) and the gate, under
/// spans.
pub fn run_traced(
    suite: &Suite,
    setups: &[SetupCost],
    opts: &Options,
    report: &mut Report,
) -> Recorder {
    let epoch = Instant::now();
    let all: Vec<usize> = (0..suite.cells.len()).collect();
    let order = costliest_first(suite, &all, &mut Rng::new(opts.seed, 1));
    let (traced, recs) = par_map(
        WORKERS,
        &order,
        || Recorder::new(epoch),
        |rec, _, &ci| {
            let cell = &suite.cells[ci];
            let request = Request {
                label: format!("cell {ci}"),
                program: &suite.programs[cell.program],
                freq: &suite.freqs[cell.program],
                expected: &suite.expected[cell.program],
                file: &cell.file,
                config: cell.family.config(),
                profiled: suite.profiled,
            };
            trace_request(rec, ci as u64, request)
        },
    );
    report.attempted = traced.len() as u64;
    let rec = finish_traced(epoch, recs, traced, setups, report);
    serve::not_served(report);
    rec
}
