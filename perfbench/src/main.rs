//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <large-fn|spec-suite|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run prints one `name value unit` line per metric and, as its last
//! line, a JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! replays the allocation loop from outside under spans, writes the spans
//! as JSON lines (`--spans <path>`, default
//! `perfbench-out/spans-<workload>-<seed>.jsonl`), and reports the
//! per-layer metrics. Any incorrect output makes the run exit with code 1.
//!
//! The benchmark drives `ccra-workloads`, `ccra-analysis` and
//! `ccra-regalloc` only through their public functions.

mod calib;
mod closed;
mod gate;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;
mod suite;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use suite::SetupCost;

/// The latency limit behind `slo_met_frac`, for every workload.
pub const SLO_MS: f64 = 250.0;
/// Each run sets up at least this many times, and until the set-ups add up
/// to [`SETUP_MIN_S`]; `setup_s` is their median.
const SETUPS: usize = 5;
/// See [`SETUPS`].
const SETUP_MIN_S: f64 = 0.5;
/// Threads for the gate and the traced replay: the two cores the
/// benchmark's run times are sized for.
pub const WORKERS: usize = 2;

/// The end-to-end metrics of the result line (`--trace 0`), as
/// `BENCHMARK.json` lists them. `degraded_frac`, `check_fail_frac` and
/// `failed_frac` are printed too, but they are 0 on a correct run of most
/// workloads, so they gate correctness instead of being compared.
/// `e2e_ms.p50` and `e2e_ms.p99` are printed too, but on `serve-mixed`
/// they are wall time, which time the shared host takes from the virtual
/// CPUs moves between runs by more than any bound the benchmark may set.
const END_TO_END: [&str; 10] = [
    "setup_s",
    "alloc_instrs_per_s",
    "alloc_ms.p50",
    "alloc_ms.p99",
    "check_instrs_per_s",
    "overhead_ops",
    "code_growth_frac",
    "peak_rss_mb",
    "alloc_growth_exp",
    "slo_met_frac",
];

/// The per-layer metrics of the result line (`--trace 1`).
const PER_LAYER: [&str; 52] = [
    "analysis.liveness.busy_s",
    "analysis.liveness.iterations",
    "analysis.liveness.growth_exp",
    "analysis.webs.busy_s",
    "analysis.webs.webs",
    "analysis.webs.refs",
    "analysis.webs.growth_exp",
    "regalloc.build.busy_s",
    "regalloc.build.self_s",
    "regalloc.build.calls",
    "regalloc.build.round1_s",
    "regalloc.build.later_rounds_s",
    "regalloc.build.graph_nodes",
    "regalloc.build.graph_edges",
    "regalloc.build.coalesced_webs",
    "regalloc.build.self_growth_exp",
    "regalloc.chaitin.busy_s",
    "regalloc.priority.busy_s",
    "regalloc.cbh.busy_s",
    "regalloc.chaitin.growth_exp",
    "regalloc.spill.busy_s",
    "regalloc.spill.ranges",
    "regalloc.spill.insts",
    "regalloc.reconstruct.busy_s",
    "regalloc.reconstruct.calls",
    "regalloc.rewrite.busy_s",
    "regalloc.pipeline.rounds",
    "regalloc.pipeline.round_yield",
    "regalloc.pipeline.degraded",
    "regalloc.pipeline.busy_s",
    "regalloc.pipeline.self_s",
    "regalloc.check.busy_s",
    "regalloc.check.violations",
    "regalloc.check.growth_exp",
    "analysis.freq.busy_s",
    "analysis.interp.busy_s",
    "analysis.interp.steps",
    "workloads.gen_s",
    "regalloc.driver.service_ms.p50",
    "regalloc.driver.service_ms.p99",
    "regalloc.driver.queue_ms.p50",
    "regalloc.driver.queue_ms.p99",
    "regalloc.driver.queue_depth.max",
    "regalloc.driver.busy_frac",
    "loadgen.lateness_ms.p99",
    "loadgen.poll_us.p50",
    "regalloc.cache.hits",
    "regalloc.cache.misses",
    "regalloc.cache.hit_frac",
    "regalloc.cache.evictions",
    "regalloc.cache.bytes",
    "trace.overhead_frac",
];

/// Command-line options.
pub struct Options {
    /// The workload name.
    pub workload: String,
    /// The input seed.
    pub seed: u64,
    /// How long the timed region runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <large-fn|spec-suite|serve-mixed> --seed <n> \
--seconds <s> --trace <0|1> [--spans <path>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for {flag}: {value}")),
                }
            }
            "--spans" => opts.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

/// Records `setup_s`, the median set-up of the run at the nominal host
/// speed, and the run's median reference timing (see [`calib`]).
pub fn setup_metrics(setups: &[SetupCost], report: &mut Report) {
    let totals: Vec<f64> = setups.iter().map(|s| s.nominal_s).collect();
    report.put("setup_s", stats::median(&totals), "s");
    report.put("host.ref_ms", calib::reference_s() * 1e3, "ms");
}

/// Repeats a set-up (see [`SETUPS`]), keeping the last result.
fn set_up<T>(mut f: impl FnMut() -> (T, SetupCost)) -> (T, Vec<SetupCost>) {
    let mut costs: Vec<(calib::Mark, SetupCost)> = Vec::new();
    loop {
        let mark = calib::mark();
        let (value, cost) = f();
        costs.push((mark, cost));
        let spent: f64 = costs.iter().map(|(_, c)| c.total_s).sum();
        if costs.len() >= SETUPS && (spent >= SETUP_MIN_S || costs.len() >= 200) {
            calib::close();
            let costs = costs
                .into_iter()
                .map(|(mark, c)| SetupCost {
                    nominal_s: calib::at_nominal(mark, c.total_s),
                    ..c
                })
                .collect();
            return (value, costs);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let spans = match opts.workload.as_str() {
        "large-fn" | "spec-suite" => {
            let large = opts.workload == "large-fn";
            let (suite, setups) = set_up(if large {
                suite::large_fn
            } else {
                suite::spec_suite
            });
            if opts.trace {
                Some(closed::run_traced(&suite, &setups, &opts, &mut report))
            } else {
                closed::run(&suite, &setups, &opts, &mut report);
                None
            }
        }
        "serve-mixed" => {
            let (stream, setups) = set_up(|| serve::setup(opts.seed, opts.seconds));
            serve::run(&stream, &setups, &opts, &mut report)
        }
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(rec) = spans {
        let path = opts.spans.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                "perfbench-out/spans-{}-{}.jsonl",
                opts.workload, opts.seed
            ))
        });
        if let Err(e) = rec.write_jsonl(&path) {
            eprintln!("cannot write spans to {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("spans {} written to {}", rec.spans.len(), path.display());
    }
    report.print(if opts.trace { &PER_LAYER } else { &END_TO_END });
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse(&args(
            "--workload spec-suite --seed 9 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("spec-suite", 9, 10.0, true)
        );
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--bogus 1")).is_err());
    }
}
