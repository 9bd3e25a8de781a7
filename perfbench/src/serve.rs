//! `serve-mixed`: an open-loop request stream into one `BatchService`
//! worker with a shared, undersized `AllocCache`.
//!
//! Every request is timed from the instant it was due, not from when the
//! generator got round to submitting it, and its completion is observed
//! from outside through `BatchHandle` polling — never through the
//! service's own histograms or request traces.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccra_analysis::{FrequencyInfo, InterpConfig, Value};
use ccra_ir::Program;
use ccra_machine::RegisterFile;
use ccra_regalloc::{
    allocate_program, AllocCache, BatchConfig, BatchHandle, BatchJob, BatchResult, BatchService,
    BatchStatus, ProgramAllocation,
};
use ccra_workloads::{random_program, FuzzConfig};

use crate::calib;
use crate::closed::{alloc_metrics, MIN_SAMPLES};
use crate::gate::{self, Allocated, Verdict};
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{loglog_slope, median, peak_rss_mb, quantile, thread_cpu_s, Rng};
use crate::suite::{par_map, Family, SetupCost};
use crate::traced::{finish_traced, trace_request, Request};
use crate::{setup_metrics, Options, SLO_MS, WORKERS};

/// Requests per second offered: the worker is busy about a quarter of the
/// time (measured), so queues form behind the large functions while the
/// median request still finds the worker free. At about 40% busy the
/// median already sat on the queueing knee: time the shared host stole
/// from the worker tripled it in some runs.
pub const RATE_PER_S: f64 = 40.0;
/// Share of requests that resubmit an earlier request's program byte for
/// byte, each picking a uniformly chosen earlier request: the share and
/// rule of the repository's resubmission smoke test (`loadgen --rerun 30`,
/// `eval::traffic::job_stream`).
pub const REPEAT_FRAC: f64 = 0.3;
/// Fresh programs come in blocks of this many, one per rank of the size
/// table (see [`stmts_of_rank`]).
pub const BLOCK: usize = 20;
/// The largest function, in generator statements (about 480
/// instructions).
pub const MAX_STMTS: usize = 200;
/// The shape of the bounded Pareto size distribution, the one the
/// repository's load generator draws job sizes from
/// (`eval::traffic::Rng::pareto`).
const PARETO_SHAPE: f64 = 1.5;
/// The cache budget: below the bytes the stream's fresh programs would
/// keep resident, so entries are evicted and some resubmissions miss (a
/// 20 s run evicts 360–396 of the 603–625 functions it stores).
pub const CACHE_BUDGET_BYTES: u64 = 4 << 20;
/// Latency quantiles are taken per window of this many seconds of due
/// times, and the run reports their median over the windows, so a burst of
/// interference from outside the benchmark moves one window, not the run.
const WINDOW_S: f64 = 2.0;
/// How long after the last due time unfinished requests may still
/// complete before they count as unfinished.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);
/// The generator's idle sleep between polls.
const POLL_SLEEP: Duration = Duration::from_micros(100);

/// The size, in generator statements, of the rank-`rank` function of a
/// block: the block's quantiles of a bounded Pareto distribution whose top
/// quantile is [`MAX_STMTS`]. With 20 ranks: 200, 96, 68, 55, 46, … 17.
pub fn stmts_of_rank(rank: usize) -> usize {
    let q = (2 * rank + 1) as f64;
    (MAX_STMTS as f64 * q.powf(-1.0 / PARETO_SHAPE)).round() as usize
}

/// One distinct program the stream can send.
pub struct Entry {
    /// The program.
    pub program: Program,
    /// Its allocator family.
    pub family: Family,
    /// Its interpreter profile (what the service allocates under).
    pub freq: FrequencyInfo,
    /// The value the original returns.
    pub expected: Option<Value>,
    /// Instructions before allocation.
    pub instrs: usize,
}

/// The stream: distinct programs plus the request schedule.
pub struct Stream {
    /// The distinct programs; requests refer to them by index.
    pub pool: Vec<Entry>,
    /// Per request: when it is due (from the stream's start) and which
    /// pool entry it sends.
    pub requests: Vec<(Duration, usize)>,
}

/// Builds the pool entry `i`: a one-function program of the size of rank
/// `i % BLOCK`, from fixed generator seeds, so every stream seed draws from
/// the same programs. Families rotate, so each block's largest function is
/// allocated by the improved allocator.
fn entry(i: usize) -> (Program, Family) {
    let config = FuzzConfig {
        functions: 1,
        stmts_per_fn: stmts_of_rank(i % BLOCK),
        ..FuzzConfig::default()
    };
    (
        random_program(10_000 + i as u64, &config),
        Family::FIVE[i % Family::FIVE.len()],
    )
}

/// Set-up: the pool and the seed's schedule for a `seconds`-long stream.
pub fn setup(seed: u64, seconds: f64) -> (Stream, SetupCost) {
    let total = (RATE_PER_S * seconds).round().max(2.0) as usize;
    let repeats = (REPEAT_FRAC * total as f64).round() as usize;
    let fresh = total - repeats;
    let t = thread_cpu_s();
    let programs: Vec<(Program, Family)> = (0..fresh).map(entry).collect();
    let gen_s = thread_cpu_s() - t;
    let t = thread_cpu_s();
    let freqs: Vec<FrequencyInfo> = programs
        .iter()
        .map(|(p, _)| FrequencyInfo::profile(p).expect("stream programs terminate"))
        .collect();
    let freq_s = thread_cpu_s() - t;
    let t = thread_cpu_s();
    let mut interp_steps = 0;
    let pool: Vec<Entry> = programs
        .into_iter()
        .zip(freqs)
        .map(|((program, family), freq)| {
            let stats = ccra_analysis::run(&program, &InterpConfig::default())
                .expect("stream programs run");
            interp_steps += stats.steps;
            let instrs = program.functions().map(|(_, f)| f.num_insts()).sum();
            Entry {
                program,
                family,
                freq,
                expected: stats.result,
                instrs,
            }
        })
        .collect();
    let interp_s = thread_cpu_s() - t;

    // The schedule: arrivals at a fixed interval, each a fresh program or
    // a resubmission of a uniformly chosen earlier request, mixed in a
    // seed-shuffled order (the first request is fresh). Fresh programs go
    // out in seed-shuffled blocks that each open with their largest
    // function, so large functions never arrive back to back and runs
    // differ by arrangement, not by how the tail clusters.
    let mut rng = Rng::new(seed, 3);
    let mut kinds: Vec<bool> = (0..total).map(|k| k < repeats).collect();
    rng.shuffle(&mut kinds);
    if let Some(first_fresh) = kinds.iter().position(|repeat| !repeat) {
        kinds.swap(0, first_fresh);
    }
    let mut blocks: Vec<Vec<usize>> = (0..fresh)
        .collect::<Vec<_>>()
        .chunks(BLOCK)
        .map(<[usize]>::to_vec)
        .collect();
    rng.shuffle(&mut blocks);
    let mut fresh_order = Vec::with_capacity(fresh);
    for mut block in blocks {
        rng.shuffle(&mut block[1..]);
        fresh_order.extend(block);
    }
    let mut fresh_order = fresh_order.into_iter();
    let mut requests: Vec<(Duration, usize)> = Vec::with_capacity(total);
    for (k, repeat) in kinds.into_iter().enumerate() {
        let idx = if repeat {
            requests[rng.below(k)].1
        } else {
            fresh_order
                .next()
                .expect("one fresh program per fresh request")
        };
        requests.push((Duration::from_secs_f64(k as f64 / RATE_PER_S), idx));
    }
    let cost = SetupCost {
        total_s: gen_s + freq_s + interp_s,
        nominal_s: 0.0,
        gen_s,
        freq_s,
        interp_s,
        interp_steps,
    };
    (Stream { pool, requests }, cost)
}

/// What the generator saw of one request.
struct Seen {
    due: Instant,
    submitted: Instant,
    id: Option<u64>,
    done: Option<Instant>,
}

/// What the open-loop generator measured.
struct Outcome {
    seen: Vec<Seen>,
    results: HashMap<u64, BatchResult>,
    poll_gaps_us: Vec<f64>,
    queue_depth_max: usize,
    wall_s: f64,
    end: Instant,
    cache: ccra_regalloc::CacheStats,
}

/// Marks every request whose result the service has stored since the last
/// look. The cheap queue-depth and in-flight counters say whether any
/// completion can be new before the result list is read.
fn poll(
    handle: &BatchHandle,
    seen: &mut [Seen],
    by_id: &HashMap<u64, usize>,
    done: &mut HashSet<u64>,
    submitted: usize,
) {
    let pending = submitted - done.len();
    if handle.queue_depth() + handle.in_flight() as usize >= pending {
        return;
    }
    let now = Instant::now();
    for (id, _, _) in handle.statuses() {
        if done.insert(id) {
            seen[by_id[&id]].done = Some(now);
        }
    }
}

fn drive(stream: &Stream) -> Outcome {
    let cache = Arc::new(AllocCache::with_budget(CACHE_BUDGET_BYTES));
    let service = BatchService::start(BatchConfig {
        workers: 1,
        queue_capacity: stream.requests.len() + 1,
        shard_workers: 1,
        trace_requests: false,
        cache: Some(Arc::clone(&cache)),
        ..BatchConfig::default()
    });
    let handle = service.handle();
    let start = Instant::now() + Duration::from_millis(20);
    let mut seen: Vec<Seen> = Vec::with_capacity(stream.requests.len());
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    let mut done: HashSet<u64> = HashSet::new();
    let mut poll_gaps_us = Vec::new();
    let mut queue_depth_max = 0;
    let mut last_poll: Option<Instant> = None;
    let last_due = start + stream.requests.last().map_or(Duration::ZERO, |r| r.0);
    loop {
        while let Some(&(offset, idx)) = stream.requests.get(seen.len()) {
            let due = start + offset;
            if Instant::now() < due {
                break;
            }
            let e = &stream.pool[idx];
            let job = BatchJob::new(
                format!("req-{}", seen.len()),
                e.program.clone(),
                RegisterFile::mips_full(),
                e.family.config(),
            );
            let id = service.submit(job).ok();
            if let Some(id) = id {
                by_id.insert(id, seen.len());
            }
            seen.push(Seen {
                due,
                submitted: Instant::now(),
                id,
                done: None,
            });
        }
        let now = Instant::now();
        if let Some(prev) = last_poll {
            poll_gaps_us.push((now - prev).as_secs_f64() * 1e6);
        }
        last_poll = Some(now);
        queue_depth_max = queue_depth_max.max(handle.queue_depth());
        poll(&handle, &mut seen, &by_id, &mut done, by_id.len());
        let all_sent = seen.len() == stream.requests.len();
        if all_sent && (done.len() == by_id.len() || Instant::now() > last_due + DRAIN_LIMIT) {
            break;
        }
        let sleep = stream
            .requests
            .get(seen.len())
            .map_or(POLL_SLEEP, |&(offset, _)| {
                (start + offset).saturating_duration_since(Instant::now())
            });
        std::thread::sleep(sleep.min(POLL_SLEEP));
    }
    let end = Instant::now();
    let wall_s = (end - start).as_secs_f64();
    for s in &seen {
        if let (Some(id), None) = (s.id, s.done) {
            handle.cancel(id);
        }
    }
    let results = service.shutdown().into_iter().map(|r| (r.id, r)).collect();
    Outcome {
        seen,
        results,
        poll_gaps_us,
        queue_depth_max,
        wall_s,
        end,
        cache: cache.stats(),
    }
}

/// The first completed result of every pool entry, and any resubmission
/// whose allocation differs from it.
fn first_results<'a>(
    stream: &Stream,
    out: &'a Outcome,
    report: &mut Report,
) -> Vec<Option<&'a BatchResult>> {
    let mut first: Vec<Option<&BatchResult>> = vec![None; stream.pool.len()];
    for (k, s) in out.seen.iter().enumerate() {
        let Some(r) = s.id.and_then(|id| out.results.get(&id)) else {
            continue;
        };
        let Some(alloc) = &r.allocation else {
            continue;
        };
        let idx = stream.requests[k].1;
        match first[idx] {
            None => first[idx] = Some(r),
            Some(f) => {
                if f.allocation.as_ref() != Some(alloc) {
                    report.fail(format!(
                        "request {k}: resubmission's allocation differs from the first"
                    ));
                }
            }
        }
    }
    first
}

fn allocated<'a>(stream: &'a Stream, i: usize, alloc: &'a ProgramAllocation) -> Allocated<'a> {
    let e = &stream.pool[i];
    Allocated::of(format!("pool entry {i}"), &e.program, &e.freq, alloc)
}

/// The median over [`WINDOW_S`] windows of due times of each window's
/// `q`-quantile of `(due offset s, latency ms)` samples.
fn windowed(samples: &[(f64, f64)], q: f64) -> f64 {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(at, ms) in samples {
        let w = (at / WINDOW_S) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(ms);
    }
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, q))
        .collect();
    median(&per_window)
}

/// Records the cache's counters.
fn cache_metrics(c: &ccra_regalloc::CacheStats, report: &mut Report) {
    report.put("regalloc.cache.hits", c.hits as f64, "count");
    report.put("regalloc.cache.misses", c.misses as f64, "count");
    report.put("regalloc.cache.hit_frac", c.hit_rate(), "frac");
    report.put("regalloc.cache.evictions", c.evictions as f64, "count");
    report.put("regalloc.cache.bytes", c.bytes as f64, "bytes");
}

/// The serving-layer metrics of the traced run, with their units.
const SERVING: [(&str, &str); 8] = [
    ("regalloc.driver.service_ms.p50", "ms"),
    ("regalloc.driver.service_ms.p99", "ms"),
    ("regalloc.driver.queue_ms.p50", "ms"),
    ("regalloc.driver.queue_ms.p99", "ms"),
    ("regalloc.driver.queue_depth.max", "count"),
    ("regalloc.driver.busy_frac", "frac"),
    ("loadgen.lateness_ms.p99", "ms"),
    ("loadgen.poll_us.p50", "us"),
];

/// Records the serving and cache layer metrics as 0 for a workload that
/// bypasses the service.
pub fn not_served(report: &mut Report) {
    for (name, unit) in SERVING {
        report.put(name, 0.0, unit);
    }
    cache_metrics(&ccra_regalloc::CacheStats::default(), report);
}

/// Runs the stream and records the end-to-end metrics (or, traced, the
/// per-layer ones).
pub fn run(
    stream: &Stream,
    setups: &[SetupCost],
    opts: &Options,
    report: &mut Report,
) -> Option<Recorder> {
    let out = drive(stream);
    let n = stream.requests.len();
    report.attempted = n as u64;
    let mut e2e_ms = Vec::with_capacity(n);
    let mut met = 0;
    let mut failed = 0;
    for (s, &(offset, _)) in out.seen.iter().zip(&stream.requests) {
        let result = s.id.and_then(|id| out.results.get(&id));
        let ok = matches!(
            result.map(|r| &r.status),
            Some(BatchStatus::Ok | BatchStatus::Degraded { .. })
        );
        let ms = match s.done {
            Some(done) if ok => (done - s.due).as_secs_f64() * 1e3,
            // A failed or unfinished request counts as waiting until the
            // generator gave up on it.
            _ => {
                failed += 1;
                (out.end - s.due).as_secs_f64() * 1e3
            }
        };
        met += usize::from(ok && ms <= SLO_MS);
        e2e_ms.push((offset.as_secs_f64(), ms));
    }
    if failed > 0 {
        report.fail_many(
            failed as u64,
            format!("{failed} of {n} requests failed or did not finish"),
        );
    }
    let first = first_results(stream, &out, report);
    let fresh: Vec<usize> = (0..stream.pool.len())
        .filter(|&i| first[i].is_some())
        .collect();
    let large = stream
        .requests
        .iter()
        .filter(|&&(_, i)| i % BLOCK == 0)
        .count();
    println!(
        "stream: {n} requests in {} latency windows, {} fresh, {large} of a \
         {MAX_STMTS}-statement function",
        (n as f64 / RATE_PER_S / WINDOW_S).ceil(),
        fresh.len(),
    );
    cache_metrics(&out.cache, report);

    if opts.trace {
        return Some(traced(stream, setups, &out, &first, &fresh, report));
    }
    let served = |i: usize| {
        first[i]
            .and_then(|r| r.allocation.as_ref())
            .expect("fresh entries completed")
    };
    // Allocation and checker costs are measured on this thread, in CPU
    // time scaled to the nominal host speed (see `calib`), away from the
    // queue; the latencies above carry the queueing. Every distinct
    // program is timed once in each of MIN_SAMPLES passes over them all,
    // and its times are the medians. The allocation must equal what the
    // service returned.
    let mut timed: Vec<(usize, calib::Mark, f64, f64)> = Vec::new();
    let mut checked: Vec<Verdict> = Vec::with_capacity(fresh.len());
    for pass in 0..MIN_SAMPLES {
        for (k, &i) in fresh.iter().enumerate() {
            let mark = calib::mark();
            let e = &stream.pool[i];
            let t = thread_cpu_s();
            let own = allocate_program(
                &e.program,
                &e.freq,
                RegisterFile::mips_full(),
                &e.family.config(),
            );
            let secs = thread_cpu_s() - t;
            let mut v = gate::check(&allocated(stream, i, served(i)), None);
            if own.as_ref().ok() != Some(served(i)) {
                v.problems.push(format!(
                    "pool entry {i}: the service's allocation differs from allocate_program's"
                ));
            }
            timed.push((k, mark, secs, v.check_s));
            if pass == 0 {
                checked.push(v);
            } else if checked[k].problems.is_empty() {
                checked[k].problems = v.problems;
            }
        }
    }
    calib::close();
    let mut alloc_samples: Vec<Vec<f64>> = vec![Vec::new(); fresh.len()];
    let mut check_samples: Vec<Vec<f64>> = vec![Vec::new(); fresh.len()];
    for (k, mark, secs, check_s) in timed {
        alloc_samples[k].push(calib::at_nominal(mark, secs));
        check_samples[k].push(calib::at_nominal(mark, check_s));
    }
    let alloc_s: Vec<f64> = alloc_samples.iter().map(|s| median(s)).collect();
    for (v, s) in checked.iter_mut().zip(&check_samples) {
        v.check_s = median(s);
    }
    let (verdicts, _) = par_map(
        WORKERS,
        &fresh,
        || (),
        |_, k, &i| {
            let alloc = served(i);
            let mut v = checked[k].clone();
            gate::replay(
                &allocated(stream, i, alloc),
                &stream.pool[i].expected,
                alloc.overhead,
                true,
                &mut v,
            );
            v
        },
    );
    let instrs: Vec<usize> = fresh.iter().map(|&i| stream.pool[i].instrs).collect();
    setup_metrics(setups, report);
    alloc_metrics(&instrs, &alloc_s, &verdicts, report);
    let growth: Vec<(f64, f64)> = instrs
        .iter()
        .map(|&i| i as f64)
        .zip(alloc_s.iter().copied())
        .collect();
    report.put("alloc_growth_exp", loglog_slope(&growth), "exp");
    report.put("e2e_ms.p50", windowed(&e2e_ms, 0.5), "ms");
    report.put("e2e_ms.p99", windowed(&e2e_ms, 0.99), "ms");
    report.put("slo_met_frac", met as f64 / n as f64, "frac");
    report.put("failed_frac", failed as f64 / n as f64, "frac");
    report.put("peak_rss_mb", peak_rss_mb(), "MiB");
    None
}

/// The traced run: the same stream for the serving and cache layers, then
/// every distinct program replayed from outside for the allocator layers.
fn traced(
    stream: &Stream,
    setups: &[SetupCost],
    out: &Outcome,
    first: &[Option<&BatchResult>],
    fresh: &[usize],
    report: &mut Report,
) -> Recorder {
    let epoch = Instant::now();
    let file = RegisterFile::mips_full();
    let (traced, recs) = par_map(
        WORKERS,
        fresh,
        || Recorder::new(epoch),
        |rec, _, &i| {
            let e = &stream.pool[i];
            let request = Request {
                label: format!("pool entry {i}"),
                program: &e.program,
                freq: &e.freq,
                expected: &e.expected,
                file: &file,
                config: e.family.config(),
                profiled: true,
            };
            trace_request(rec, i as u64, request)
        },
    );
    for (&i, t) in fresh.iter().zip(&traced) {
        let served = first[i].and_then(|b| b.allocation.as_ref());
        if let Ok(r) = &t.replay {
            if served.map(|a| (&a.program, &a.per_func)) != Some((&r.rewritten, &r.per_func)) {
                report.fail(format!(
                    "pool entry {i}: the service's allocation differs from the library's"
                ));
            }
        }
    }
    let rec = finish_traced(epoch, recs, traced, setups, report);

    let mut service_ms = Vec::new();
    let mut queue_ms = Vec::new();
    let mut lateness_ms = Vec::new();
    for s in &out.seen {
        lateness_ms.push((s.submitted - s.due).as_secs_f64() * 1e3);
        let (Some(r), Some(done)) = (s.id.and_then(|id| out.results.get(&id)), s.done) else {
            continue;
        };
        let service = r.micros as f64 * 1e-3;
        service_ms.push(service);
        queue_ms.push(((done - s.submitted).as_secs_f64() * 1e3 - service).max(0.0));
    }
    let values = [
        quantile(&service_ms, 0.5),
        quantile(&service_ms, 0.99),
        quantile(&queue_ms, 0.5),
        quantile(&queue_ms, 0.99),
        out.queue_depth_max as f64,
        service_ms.iter().sum::<f64>() * 1e-3 / out.wall_s,
        quantile(&lateness_ms, 0.99),
        median(&out.poll_gaps_us),
    ];
    for ((name, unit), value) in SERVING.into_iter().zip(values) {
        report.put(name, value, unit);
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_sizes_are_pareto_quantiles_capped_at_the_tail_size() {
        let sizes: Vec<usize> = (0..BLOCK).map(stmts_of_rank).collect();
        assert_eq!(sizes[..5], [200, 96, 68, 55, 46]);
        assert_eq!(sizes[BLOCK - 1], 17);
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn latency_quantiles_are_window_medians() {
        // Three windows; the middle one holds a burst that moves only it.
        let samples = [
            (0.1, 1.0),
            (0.2, 3.0),
            (2.5, 100.0),
            (2.6, 300.0),
            (4.1, 2.0),
            (4.2, 4.0),
        ];
        assert_eq!(windowed(&samples, 0.5), 3.0);
        assert_eq!(windowed(&samples, 1.0), 4.0);
        assert_eq!(windowed(&[], 0.5), 0.0);
    }

    #[test]
    fn schedules_are_a_function_of_the_seed() {
        let (stream, _) = setup(5, 2.0);
        assert_eq!(stream.requests, setup(5, 2.0).0.requests);
        assert_ne!(stream.requests, setup(6, 2.0).0.requests);
        // 80 requests: 56 fresh, each pool entry once, and 24 resent.
        assert_eq!(stream.pool.len(), 56);
        let mut sent = vec![0; stream.pool.len()];
        for &(_, i) in &stream.requests {
            sent[i] += 1;
        }
        assert!(sent.iter().all(|&n| n >= 1));
        assert_eq!(sent.iter().sum::<usize>(), 80);
        assert_eq!(
            stream.requests[0].1 % BLOCK,
            0,
            "a block's largest goes first"
        );
    }
}
