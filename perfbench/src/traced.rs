//! The traced run's per-request replay and the per-layer metrics derived
//! from its spans.

use std::collections::HashMap;
use std::time::Instant;

use ccra_analysis::{FrequencyInfo, Value};
use ccra_ir::Program;
use ccra_machine::{CostModel, RegisterFile};
use ccra_regalloc::{AllocError, AllocatorConfig, FuncAllocation, Overhead};

use crate::gate::{self, Allocated, Verdict};
use crate::replay::{reference_function, replay_function, replay_matches};
use crate::report::Report;
use crate::spans::{At, Recorder};
use crate::stats::{loglog_slope, median};
use crate::suite::SetupCost;

/// One program replayed from outside and allocated by the library.
pub struct Replay {
    /// The library's rewritten program.
    pub rewritten: Program,
    /// The library's per-function results, by function id.
    pub per_func: Vec<FuncAllocation>,
    /// The library's whole-program weighted overhead.
    pub weighted: Overhead,
    /// Seconds the library's own entry points took (the untraced
    /// reference for the tracing overhead).
    pub reference_s: f64,
    /// Functions whose replay differed from the library's result.
    pub mismatches: Vec<String>,
}

/// Allocates every function of `program` through the library and replays
/// it from outside under a span tree rooted at `at`.
///
/// # Errors
///
/// When the library's degraded fallback fails.
pub fn replay_program(
    program: &Program,
    freq: &FrequencyInfo,
    file: &RegisterFile,
    config: &AllocatorConfig,
    rec: &mut Recorder,
    at: At,
) -> Result<Replay, ccra_regalloc::AllocError> {
    let cost = CostModel::paper();
    let mut rewritten = Program::new();
    let mut per_func = Vec::new();
    let mut weighted = Overhead::zero();
    let mut reference_s = 0.0;
    let mut mismatches = Vec::new();
    for (i, (id, f)) in program.functions().enumerate() {
        let t = Instant::now();
        let reference = reference_function(f, freq.func(id), file, config, &cost)?;
        reference_s += t.elapsed().as_secs_f64();
        let at = At {
            func: i as u32,
            ..at
        }
        .size_of(f);
        let replayed = replay_function(f, freq.func(id), file, config, &cost, rec, at);
        if !replay_matches(&replayed, &reference) {
            mismatches.push(format!(
                "{} under {}: the outside replay differs from allocate_function",
                f.name(),
                config.label()
            ));
        }
        let (body, alloc) = reference.kept();
        weighted += alloc.overhead;
        rewritten.add_function(body);
        per_func.push(alloc);
    }
    if let Some(main) = program.main() {
        rewritten.set_main(main);
    }
    Ok(Replay {
        rewritten,
        per_func,
        weighted,
        reference_s,
        mismatches,
    })
}

/// One request of a traced run: a program to allocate and gate.
pub struct Request<'a> {
    /// A label for failure messages.
    pub label: String,
    /// The program.
    pub program: &'a Program,
    /// Its block frequencies.
    pub freq: &'a FrequencyInfo,
    /// The value the original program returns.
    pub expected: &'a Option<Value>,
    /// The register file.
    pub file: &'a RegisterFile,
    /// The allocator configuration.
    pub config: AllocatorConfig,
    /// Whether `freq` is an interpreter profile.
    pub profiled: bool,
}

/// What one traced request produced.
pub struct Traced {
    /// The request's label.
    pub label: String,
    /// The replay, or the library's error.
    pub replay: Result<Replay, AllocError>,
    /// The gate's verdict on the library's allocation.
    pub verdict: Option<Verdict>,
}

/// Replays `r` from outside under a `request` span numbered `req`, then
/// runs the gate (checker under spans, interpreter replay) on the result.
pub fn trace_request(rec: &mut Recorder, req: u64, r: Request<'_>) -> Traced {
    let at = At {
        req,
        func: 0,
        round: 0,
        size: r
            .program
            .functions()
            .map(|(_, f)| f.num_insts() as u64)
            .sum(),
        parent: None,
    };
    let root = rec.open("request", at);
    let at = at.under(root);
    let replay = replay_program(r.program, r.freq, r.file, &r.config, rec, at);
    let verdict = replay.as_ref().ok().map(|rp| {
        let a = Allocated {
            label: r.label.clone(),
            program: r.program,
            freq: r.freq,
            rewritten: &rp.rewritten,
            per_func: &rp.per_func,
        };
        let mut v = gate::check(&a, Some((&mut *rec, at)));
        gate::replay(&a, r.expected, rp.weighted, r.profiled, &mut v);
        v
    });
    rec.close(root);
    Traced {
        label: r.label,
        replay,
        verdict,
    }
}

/// Merges the workers' spans, fails the run on every replay mismatch,
/// allocation error and gate failure, and records the allocator, analysis,
/// checker and set-up layer metrics.
pub fn finish_traced(
    epoch: Instant,
    recs: Vec<Recorder>,
    traced: Vec<Traced>,
    setups: &[SetupCost],
    report: &mut Report,
) -> Recorder {
    let mut rec = Recorder::new(epoch);
    for r in recs {
        rec.absorb(r);
    }
    let mut reference_s = 0.0;
    let mut verdicts = Vec::new();
    for t in traced {
        match t.replay {
            Ok(r) => {
                reference_s += r.reference_s;
                for m in r.mismatches {
                    report.fail(format!("{}: {m}", t.label));
                }
            }
            Err(e) => report.fail(format!("{}: allocation failed: {e}", t.label)),
        }
        verdicts.extend(t.verdict);
    }
    gate::tally(&verdicts, report);
    rec.add(
        "regalloc.check.violations",
        verdicts.iter().map(|v| v.violations as f64).sum(),
    );
    layer_metrics(&rec, reference_s, report);
    let med = |f: fn(&SetupCost) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    report.put("workloads.gen_s", med(|s| s.gen_s), "s");
    report.put("analysis.freq.busy_s", med(|s| s.freq_s), "s");
    report.put("analysis.interp.busy_s", med(|s| s.interp_s), "s");
    report.put(
        "analysis.interp.steps",
        med(|s| s.interp_steps as f64),
        "count",
    );
    rec
}

/// Growth exponent of the spans named `name`, summed per
/// `(request, function, round)` and sized by the body they worked on.
fn growth(rec: &Recorder, name: &str) -> f64 {
    let mut per_key: HashMap<(u64, u32, u32), (f64, f64)> = HashMap::new();
    for s in rec.named(name) {
        let e = per_key
            .entry((s.req, s.func, s.round))
            .or_insert((0.0, 0.0));
        e.0 = s.size as f64;
        e.1 += s.secs();
    }
    let pts: Vec<(f64, f64)> = per_key.into_values().collect();
    loglog_slope(&pts)
}

/// Records every allocator, analysis and checker layer metric from the
/// merged spans of a traced run. `reference_s` is the untraced time of the
/// same allocations through the library's entry points.
fn layer_metrics(rec: &Recorder, reference_s: f64, report: &mut Report) {
    for layer in [
        "analysis.liveness",
        "analysis.webs",
        "regalloc.build",
        "regalloc.chaitin",
        "regalloc.priority",
        "regalloc.cbh",
        "regalloc.spill",
        "regalloc.reconstruct",
        "regalloc.rewrite",
        "regalloc.check",
    ] {
        report.put(format!("{layer}.busy_s"), rec.busy(layer), "s");
    }
    for layer in [
        "analysis.liveness",
        "analysis.webs",
        "regalloc.chaitin",
        "regalloc.check",
    ] {
        report.put(format!("{layer}.growth_exp"), growth(rec, layer), "exp");
    }
    for count in [
        "analysis.liveness.iterations",
        "analysis.webs.webs",
        "analysis.webs.refs",
        "regalloc.build.calls",
        "regalloc.build.graph_nodes",
        "regalloc.build.graph_edges",
        "regalloc.build.coalesced_webs",
        "regalloc.spill.ranges",
        "regalloc.spill.insts",
        "regalloc.reconstruct.calls",
        "regalloc.pipeline.rounds",
        "regalloc.pipeline.degraded",
        "regalloc.check.violations",
    ] {
        report.put(count, rec.count(count), "count");
    }

    // Build self time: each build minus the standalone liveness and webs
    // of the same body.
    let mut analysis: HashMap<(u64, u32, u32), f64> = HashMap::new();
    for s in rec
        .named("analysis.liveness")
        .chain(rec.named("analysis.webs"))
    {
        *analysis.entry((s.req, s.func, s.round)).or_insert(0.0) += s.secs();
    }
    let mut build_self = Vec::new();
    let (mut round1, mut later) = (0.0, 0.0);
    for s in rec.named("regalloc.build") {
        let own = s.secs() - analysis.get(&(s.req, s.func, s.round)).unwrap_or(&0.0);
        build_self.push((s.size as f64, own));
        if s.round <= 1 {
            round1 += s.secs();
        } else {
            later += s.secs();
        }
    }
    report.put(
        "regalloc.build.self_s",
        build_self.iter().map(|p| p.1).sum(),
        "s",
    );
    report.put("regalloc.build.round1_s", round1, "s");
    report.put("regalloc.build.later_rounds_s", later, "s");
    report.put(
        "regalloc.build.self_growth_exp",
        loglog_slope(&build_self),
        "exp",
    );

    report.put(
        "regalloc.pipeline.round_yield",
        rec.count("regalloc.pipeline.finished") / rec.count("regalloc.pipeline.rounds").max(1.0),
        "ratio",
    );
    // The pipeline's own time excludes the measurement-only analyses run
    // inside it.
    let pipeline =
        rec.busy("regalloc.pipeline") - rec.busy("analysis.liveness") - rec.busy("analysis.webs");
    report.put("regalloc.pipeline.busy_s", pipeline, "s");
    report.put(
        "regalloc.pipeline.self_s",
        rec.self_time("regalloc.pipeline"),
        "s",
    );
    report.put(
        "trace.overhead_frac",
        pipeline / reference_s.max(f64::MIN_POSITIVE) - 1.0,
        "frac",
    );
}
