//! The allocation loop, replayed from outside the library.
//!
//! [`replay_function`] drives the same public phases `allocate_function`
//! runs — `build_context`, one bank allocator per register class,
//! `insert_spill_code_traced` then `reconstruct_context` or `build_context`
//! per spill round, and finally `insert_overhead_markers` — with a span
//! around each call. It must produce the same rewritten body (or the same
//! error) as the library; [`reference_function`] gives the library's answer
//! and [`replay_matches`] compares the two.

use std::collections::HashMap;

use ccra_analysis::{FuncFreq, Liveness, Webs};
use ccra_ir::{Function, RegClass};
use ccra_machine::{CostModel, RegisterFile};
use ccra_regalloc::{
    allocate_bank_cbh, allocate_bank_chaitin, allocate_bank_priority, allocate_function,
    build_context, degraded_allocation, insert_overhead_markers, insert_spill_code_traced,
    reconstruct_context, AllocError, AllocatorConfig, AllocatorKind, FinalAssignment,
    FuncAllocation, FuncContext, NoopSink,
};

use crate::spans::{At, Recorder};

/// The library's result for one function: the strict attempt, and the
/// degraded fallback when the strict attempt failed.
pub struct Reference {
    /// What `allocate_function` returned.
    pub strict: Result<(Function, FuncAllocation), AllocError>,
    /// What `degraded_allocation` returned after a strict failure.
    pub degraded: Option<(Function, FuncAllocation)>,
}

impl Reference {
    /// The allocation `allocate_program` keeps.
    pub fn kept(self) -> (Function, FuncAllocation) {
        match (self.strict, self.degraded) {
            (Ok(done), _) => done,
            (Err(_), Some(done)) => done,
            (Err(e), None) => unreachable!("a failed strict attempt carries its fallback: {e}"),
        }
    }
}

/// Allocates `f` through the library's own entry points, exactly as
/// `allocate_program` does for one function.
///
/// # Errors
///
/// Only when the degraded fallback itself fails.
pub fn reference_function(
    f: &Function,
    freq: &FuncFreq,
    file: &RegisterFile,
    config: &AllocatorConfig,
    cost: &CostModel,
) -> Result<Reference, AllocError> {
    let strict = allocate_function(f, freq, file, config, cost);
    let degraded = match strict {
        Ok(_) => None,
        Err(_) => Some(degraded_allocation(f, freq, file, cost, &mut NoopSink)?),
    };
    Ok(Reference { strict, degraded })
}

/// What the outside replay of one function produced.
pub struct Replayed {
    /// The strict attempt: the rewritten body, or the error the library
    /// would report.
    pub strict: Result<Function, AllocError>,
    /// The degraded fallback's body when the strict attempt failed.
    pub degraded: Option<Function>,
}

/// Whether the replay reproduced the library's result exactly.
pub fn replay_matches(replayed: &Replayed, reference: &Reference) -> bool {
    let strict_equal = match (&replayed.strict, &reference.strict) {
        (Ok(body), Ok((ref_body, _))) => body == ref_body,
        (Err(e), Err(ref_e)) => e == ref_e,
        _ => false,
    };
    let kept_equal = match (&replayed.degraded, &reference.degraded) {
        (Some(body), Some((ref_body, _))) => body == ref_body,
        (None, None) => true,
        _ => false,
    };
    strict_equal && kept_equal
}

/// The span name of a configuration's bank allocator.
pub fn bank_span(config: &AllocatorConfig) -> &'static str {
    match config.kind {
        AllocatorKind::Chaitin | AllocatorKind::Optimistic => "regalloc.chaitin",
        AllocatorKind::Priority(_) => "regalloc.priority",
        AllocatorKind::Cbh => "regalloc.cbh",
    }
}

/// Replays the allocation of `f` under a `regalloc.pipeline` span nested
/// at `at`, falling back to the degraded allocation when the strict
/// attempt fails (as `allocate_program` does).
///
/// Standalone `Liveness::compute` and `Webs::compute` run on every body the
/// pipeline builds a graph for, inside `analysis.*` spans, so the build's
/// own share can be told apart. Rounds that reconstruct the graph
/// incrementally analyze nothing, so they get no standalone analysis. The
/// analyses are measurement-only work: the pipeline's own time is its span
/// minus those children.
pub fn replay_function(
    f: &Function,
    freq: &FuncFreq,
    file: &RegisterFile,
    config: &AllocatorConfig,
    cost: &CostModel,
    rec: &mut Recorder,
    at: At,
) -> Replayed {
    let pipe = rec.open("regalloc.pipeline", at);
    let inner = at.under(pipe);
    let mut rounds = 0;
    let strict = replay_strict(f, freq, file, config, cost, rec, inner, &mut rounds);
    let degraded = match &strict {
        Ok(_) => None,
        Err(_) => rec.time("regalloc.degraded", inner, || {
            degraded_allocation(f, freq, file, cost, &mut NoopSink)
                .ok()
                .map(|(body, _)| body)
        }),
    };
    rec.close(pipe);
    rec.add("regalloc.pipeline.rounds", f64::from(rounds));
    rec.add("regalloc.pipeline.functions", 1.0);
    if strict.is_ok() {
        rec.add("regalloc.pipeline.finished", 1.0);
    } else {
        rec.add("regalloc.pipeline.degraded", 1.0);
    }
    Replayed { strict, degraded }
}

/// Standalone liveness and webs on one round's body.
fn analyze(body: &Function, rec: &mut Recorder, at: At) {
    let at = at.size_of(body);
    let live = rec.time("analysis.liveness", at, || Liveness::compute(body));
    let webs = rec.time("analysis.webs", at, || Webs::compute(body));
    rec.add("analysis.liveness.iterations", f64::from(live.iterations()));
    rec.add("analysis.webs.webs", webs.len() as f64);
    rec.add("analysis.webs.refs", webs.total_refs() as f64);
}

fn build(
    body: &Function,
    freq: &FuncFreq,
    cost: &CostModel,
    rec: &mut Recorder,
    at: At,
) -> Result<FuncContext, AllocError> {
    let ctx = rec.time("regalloc.build", at.size_of(body), || {
        build_context(body, freq, cost)
    })?;
    rec.add("regalloc.build.calls", 1.0);
    rec.add("regalloc.build.graph_nodes", ctx.nodes.len() as f64);
    rec.add("regalloc.build.graph_edges", ctx.graph.num_edges() as f64);
    rec.add(
        "regalloc.build.coalesced_webs",
        ctx.webs.len().saturating_sub(ctx.nodes.len()) as f64,
    );
    Ok(ctx)
}

#[allow(clippy::too_many_arguments)]
fn replay_strict(
    f: &Function,
    freq: &FuncFreq,
    file: &RegisterFile,
    config: &AllocatorConfig,
    cost: &CostModel,
    rec: &mut Recorder,
    at: At,
    rounds: &mut u32,
) -> Result<Function, AllocError> {
    let mut body = f.clone();
    analyze(&body, rec, at.round(1));
    let mut ctx = build(&body, freq, cost, rec, at.round(1))?;
    let bank = bank_span(config);
    loop {
        *rounds += 1;
        let round = at.round(*rounds).size_of(&body);
        let mut colors = HashMap::new();
        let mut spilled = Vec::new();
        for class in RegClass::ALL {
            let res = rec.time(bank, round, || match config.kind {
                AllocatorKind::Chaitin | AllocatorKind::Optimistic => {
                    allocate_bank_chaitin(&ctx, class, file, config)
                }
                AllocatorKind::Priority(ordering) => {
                    allocate_bank_priority(&ctx, class, file, ordering)
                }
                AllocatorKind::Cbh => allocate_bank_cbh(&ctx, class, file),
            })?;
            colors.extend(res.colors);
            spilled.extend(res.spilled);
        }
        if spilled.is_empty() {
            let assignment = FinalAssignment { colors };
            rec.time("regalloc.rewrite", round, || {
                insert_overhead_markers(&mut body, &ctx, &assignment)
            });
            return Ok(body);
        }
        if *rounds >= config.max_spill_rounds {
            return Err(AllocError::SpillRoundsExceeded {
                func: f.name().to_string(),
                rounds: *rounds,
                remaining_uncolored: spilled.len(),
            });
        }
        let rewrite = rec.time("regalloc.spill", round, || {
            insert_spill_code_traced(&mut body, &ctx, &spilled)
        })?;
        rec.add("regalloc.spill.ranges", spilled.len() as f64);
        rec.add("regalloc.spill.insts", rewrite.inserted as f64);
        let next = at.round(*rounds + 1);
        ctx = if config.incremental_reconstruction {
            rec.add("regalloc.reconstruct.calls", 1.0);
            rec.time("regalloc.reconstruct", next, || {
                reconstruct_context(&ctx, &rewrite, &spilled, &body)
            })
        } else {
            analyze(&body, rec, next);
            build(&body, freq, cost, rec, next)?
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Family;
    use ccra_analysis::FrequencyInfo;
    use ccra_workloads::{random_program, spec_program_scaled, FuzzConfig, Scale, SpecProgram};
    use std::time::Instant;

    fn at() -> At {
        At {
            req: 0,
            func: 0,
            round: 0,
            size: 0,
            parent: None,
        }
    }

    /// Replays every function of `program` under `config` and `file`,
    /// asserting the library's result; returns the most rounds any strict
    /// attempt took (0 when one failed).
    fn assert_replay_equal(
        program: &ccra_ir::Program,
        freq: &FrequencyInfo,
        file: &RegisterFile,
        config: &AllocatorConfig,
    ) -> (u32, bool) {
        let cost = CostModel::paper();
        let mut rec = Recorder::new(Instant::now());
        let mut max_rounds = 0;
        let mut failed = false;
        for (id, f) in program.functions() {
            let reference = reference_function(f, freq.func(id), file, config, &cost)
                .expect("the degraded fallback succeeds");
            let replayed = replay_function(f, freq.func(id), file, config, &cost, &mut rec, at());
            assert!(
                replay_matches(&replayed, &reference),
                "{} under {} on {file:?}: the replay differs from allocate_function",
                f.name(),
                config.label()
            );
            match &reference.strict {
                Ok((_, alloc)) => max_rounds = max_rounds.max(alloc.rounds),
                Err(_) => failed = true,
            }
        }
        (max_rounds, failed)
    }

    #[test]
    fn replay_equals_allocate_function_for_every_family() {
        let spill_heavy = random_program(
            3,
            &FuzzConfig {
                functions: 2,
                stmts_per_fn: 60,
                ..FuzzConfig::default()
            },
        );
        let programs = [
            spill_heavy,
            spec_program_scaled(SpecProgram::Li, Scale(0.05)),
            spec_program_scaled(SpecProgram::Fpppp, Scale(0.05)),
        ];
        let families = Family::FIVE.iter().chain(&[Family::Base]);
        let mut multi_round = Vec::new();
        for &family in families {
            for program in &programs {
                let freq = FrequencyInfo::profile(program).expect("programs terminate");
                for file in [RegisterFile::minimum(), RegisterFile::mips_full()] {
                    let (rounds, _) = assert_replay_equal(program, &freq, &file, &family.config());
                    if rounds >= 3 {
                        multi_round.push(family);
                    }
                }
            }
        }
        for family in [Family::Improved, Family::ImprovedRecon, Family::Base] {
            assert!(
                multi_round.contains(&family),
                "{family:?} never needed three or more rounds; the test lost its spill case"
            );
        }
    }

    #[test]
    fn replay_reproduces_the_round_bound_error_and_the_fallback() {
        let program = random_program(
            3,
            &FuzzConfig {
                functions: 1,
                stmts_per_fn: 60,
                ..FuzzConfig::default()
            },
        );
        let freq = FrequencyInfo::profile(&program).expect("program terminates");
        for family in [Family::Improved, Family::ImprovedRecon] {
            let config = family.config().with_max_spill_rounds(1);
            let (_, failed) =
                assert_replay_equal(&program, &freq, &RegisterFile::minimum(), &config);
            assert!(failed, "{family:?}: one round must not converge here");
        }
    }
}
