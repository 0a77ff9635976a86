//! The UniDM workspace benchmark: four workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from a separate traced run.
//!
//! See `README.md` in this directory for each workload's rationale and
//! the metric → layer → workload map.

pub mod lake;
pub mod metrics;
pub mod mix;
pub mod probe;
pub mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::time::Instant;

use unidm_bench::alloc_counter;

use crate::lake::{Iteration, Lake, LakeKind, LakeScale, Mode};
use crate::metrics::{per_layer, Report};
use crate::probe::{attribute, write_spans, Family, Layers, Recorder, Stage};
use crate::serve::{latency_quantile, Rung, Serve, ServeScale};
use crate::stats::{median, quantile};

/// Worker threads of every workload: pinned, never self-tuned.
pub const WORKERS: usize = 2;
/// Tier-0 cache shards: pinned, never read from the environment.
pub const SHARDS: usize = 8;
/// Passes per lake-warm iteration: the first from disk, the rest from
/// tier 0.
pub const WARM_PASSES: usize = 3;
/// Rows per sealed chunk of lake-stream's scale lake.
pub const CHUNK_ROWS: usize = 1024;
/// Chunks lake-stream's segment pager may keep resident.
pub const PAGE_BUDGET: usize = 8;
/// Tier-0 capacity on lake-stream.
pub const STREAM_CACHE_CAPACITY: usize = 1024;
/// Fewest set-ups per untraced run; `setup_s` is their median.
pub const MIN_SETUPS: usize = 3;
/// Set-ups repeat until they have taken this long in total (or
/// [`MAX_SETUPS`] ran), so a quick set-up is sampled more often.
pub const SETUP_SECONDS: f64 = 2.0;
/// Most set-ups per untraced run.
pub const MAX_SETUPS: usize = 9;
/// Fewest per-task latency samples of an untraced lake run, so that at
/// least ten lie beyond its p99.
pub const MIN_LATENCY_SAMPLES: usize = 1000;
/// Fewest timed iterations of an untraced run, whatever `--seconds` is
/// (on the lake workloads: of each kind, batch and pool).
pub const MIN_ITERATIONS: usize = 3;
/// Seed of the simulated model. The model stands in for a fixed hosted
/// LLM, so it does not vary with the workload seed: `--seed` varies the
/// data, the task mix, the arrivals and the recorded prompt streams.
pub const MODEL_SEED: u64 = 42;
/// Fault seed of the serving workload unless `--fault-seed` overrides
/// it: the repository's `serving` binary uses the same default, and a
/// fixed fault schedule keeps seed-to-seed spread to what the arrivals
/// and prompt streams bring.
pub const DEFAULT_FAULT_SEED: u64 = 7;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold pass over the task mix with a fresh tier 0 and store.
    LakeCold,
    /// The mix replayed from the set-up store, then from tier 0.
    LakeWarm,
    /// Imputation streamed over a spilled 10^6-row lake.
    LakeStream,
    /// Open-loop serving on the virtual clock.
    ServeOpen,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::LakeCold,
        Workload::LakeWarm,
        Workload::LakeStream,
        Workload::ServeOpen,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LakeCold => "lake-cold",
            Workload::LakeWarm => "lake-warm",
            Workload::LakeStream => "lake-stream",
            Workload::ServeOpen => "serve-open",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seed of the serving workload's fault schedule.
    pub fault_seed: u64,
    /// How long the timed phase runs, at least.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Lake workload sizes.
    pub lake: LakeScale,
    /// Serving workload sizes.
    pub serve: ServeScale,
    /// Directory for scratch files and the span log.
    pub out_dir: PathBuf,
}

impl Settings {
    /// The benchmark's sizes, writing under `.bench_out`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Settings {
            workload,
            seed,
            fault_seed: DEFAULT_FAULT_SEED,
            seconds,
            trace,
            lake: LakeScale::full(),
            serve: ServeScale::full(),
            out_dir: PathBuf::from(".bench_out"),
        }
    }
}

/// Runs one workload and returns its checked report.
///
/// # Errors
///
/// Any failed output check, violated accounting identity or I/O failure.
pub fn run(settings: &Settings) -> Result<Report, String> {
    let work = WorkDir::new(settings)?;
    match settings.workload {
        Workload::LakeCold => run_lake(settings, LakeKind::Cold, &work.0),
        Workload::LakeWarm => run_lake(settings, LakeKind::Warm, &work.0),
        Workload::LakeStream => run_lake(settings, LakeKind::Stream, &work.0),
        Workload::ServeOpen => run_serve(settings),
    }
}

/// A per-run scratch directory, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(settings: &Settings) -> Result<Self, String> {
        let dir = settings.out_dir.join(format!(
            "{}-seed{}-pid{}",
            settings.workload.name(),
            settings.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `setup` once when traced, otherwise [`MIN_SETUPS`] to
/// [`MAX_SETUPS`] times, and returns the last result with every set-up's
/// wall time. Each earlier result is dropped before the next set-up.
fn repeat_setup<T>(
    settings: &Settings,
    setup: impl Fn() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::new();
    let mut built = None;
    loop {
        drop(built.take());
        let started = Instant::now();
        built = Some(setup()?);
        seconds.push(started.elapsed().as_secs_f64());
        let enough = seconds.len() >= MIN_SETUPS && seconds.iter().sum::<f64>() >= SETUP_SECONDS;
        if settings.trace || enough || seconds.len() == MAX_SETUPS {
            break;
        }
    }
    Ok((built.expect("set-up ran"), seconds))
}

fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

fn spans_path(settings: &Settings) -> PathBuf {
    settings.out_dir.join(format!(
        "spans-{}-seed{}.tsv",
        settings.workload.name(),
        settings.seed
    ))
}

fn run_lake(settings: &Settings, kind: LakeKind, dir: &Path) -> Result<Report, String> {
    let setup = || Lake::setup(kind, settings.seed, settings.lake, dir);
    let (mut lake, setups) = repeat_setup(settings, setup)?;
    let mut reference = match kind {
        LakeKind::Warm => Some(lake.cold_reference()?),
        LakeKind::Stream => Some(lake.stream_reference()?),
        LakeKind::Cold => None,
    };
    let lake = lake;
    let mut check = |it: &Iteration| {
        let reference = reference.get_or_insert_with(|| it.answers[0].clone());
        lake.check(it, reference).map(|()| reference.clone())
    };

    if settings.trace {
        return trace_lake(settings, &lake, &mut check);
    }

    // Batch iterations, which give throughput, alternate with pool
    // iterations, which give per-task latencies.
    let baseline = alloc_counter::reset_peak_to_live();
    let started = Instant::now();
    let (mut batches, mut pools) = (Vec::new(), Vec::<Iteration>::new());
    let samples = |pools: &[Iteration]| pools.iter().map(|it| it.latencies_ms.len()).sum::<usize>();
    while pools.len() < MIN_ITERATIONS
        || samples(&pools) < MIN_LATENCY_SAMPLES
        || started.elapsed().as_secs_f64() < settings.seconds
    {
        for (mode, done) in [(Mode::Runner, &mut batches), (Mode::Pool(None), &mut pools)] {
            let it = lake.iterate(mode)?;
            check(&it)?;
            done.push(it);
        }
    }
    let peak_bytes = alloc_counter::peak_live_bytes().saturating_sub(baseline);
    let answers = check(&batches[0])?;

    let all = || batches.iter().chain(&pools);
    let attempted: u64 = all().map(|it| it.attempted).sum();
    let failed: u64 = all().map(|it| it.failed).sum();
    let per_task = |total: u64| total as f64 / attempted as f64;
    let latencies: Vec<f64> = pools
        .iter()
        .flat_map(|it| it.latencies_ms.iter().copied())
        .collect();
    let mut report = Report::new(attempted, failed);
    report.set("setup_s", median_of(setups));
    report.set(
        "tasks_per_s",
        median_of(batches.iter().map(Iteration::tasks_per_s)),
    );
    report.set(
        "model_calls_per_task",
        per_task(all().map(|it| it.model_calls).sum()),
    );
    report.set(
        "model_tokens_per_task",
        per_task(all().map(|it| it.model_tokens).sum()),
    );
    report.set("accuracy", lake.accuracy(&answers));
    report.set("peak_live_mib", peak_bytes as f64 / (1024.0 * 1024.0));
    report.set("latency_p99_ms", quantile(&latencies, 0.99).unwrap_or(0.0));
    Ok(report)
}

fn trace_lake(
    settings: &Settings,
    lake: &Lake,
    check: &mut dyn FnMut(&Iteration) -> Result<Vec<String>, String>,
) -> Result<Report, String> {
    let started = Instant::now();
    let mut rounds = Vec::new();
    let mut spans = (Vec::new(), Vec::new());
    while rounds.is_empty() || started.elapsed().as_secs_f64() < settings.seconds {
        let exec = lake.iterate(Mode::RunnerWindows)?;
        check(&exec)?;
        let plain = lake.iterate(Mode::Pool(None))?;
        check(&plain)?;
        let recorder = Recorder::default();
        let traced = lake.iterate(Mode::Pool(Some(&recorder)))?;
        check(&traced)?;
        spans = recorder.take();
        let layers = attribute(&spans.0, &spans.1);

        let mut round = layer_report(
            exec.attempted + plain.attempted + traced.attempted,
            exec.failed + plain.failed + traced.failed,
            &layers,
        );
        round.set("cache.lookups", traced.lookups as f64);
        round.set("cache.t0_hits", traced.cache.hits as f64);
        round.set("cache.coalesced", traced.cache.coalesced as f64);
        round.set(
            "cache.served_share",
            1.0 - traced.model_calls as f64 / traced.lookups.max(1) as f64,
        );
        if settings.workload != Workload::LakeStream {
            round.set("store.open_ms", traced.store_open_s * 1e3);
            round.set(
                "store.disk_pass_self_ms",
                ms(layers.first_pass_cache_self_ns),
            );
        }
        round.set("store.hits", traced.store.hits as f64);
        round.set("store.misses", traced.store.misses as f64);
        round.set("store.admitted", traced.store.admitted as f64);
        round.set("store.rejected", traced.store.rejected as f64);
        round.set("model.calls", traced.model_calls as f64);
        round.set("model.tokens", traced.model_tokens as f64);
        round.set("exec.unique_tasks", exec.unique_tasks as f64);
        round.set("exec.coalesced_tasks", exec.coalesced_tasks as f64);
        round.set("exec.steals", exec.steals as f64);
        round.set("exec.idle_share", exec.idle_share);
        if settings.workload == Workload::LakeStream {
            round.set("exec.stream.partitions", exec.partitions as f64);
            round.set("exec.stream.coalesced_tasks", exec.coalesced_tasks as f64);
            round.set("tablestore.spill_ms", lake.spill_s * 1e3);
            round.set("tablestore.open_ms", lake.segment_open_s * 1e3);
            round.set(
                "tablestore.resident_chunks_max",
                exec.resident_chunks_max as f64,
            );
        }
        round.set("trace.wall_ms", traced.pass_s * 1e3);
        round.set(
            "trace.coverage",
            layers.self_sum_ns() as f64 / (WORKERS as f64 * traced.pass_s * 1e9),
        );
        round.set("trace.tasks_per_s", traced.tasks_per_s());
        round.set("trace.untraced_tasks_per_s", plain.tasks_per_s());
        rounds.push(round);
    }
    write_spans(&spans_path(settings), &spans.0, &spans.1).map_err(|e| format!("span log: {e}"))?;
    Ok(median_report(&rounds))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A per-layer report with every metric at 0 except those the span
/// attribution gives: stage, cache and model self times, the per-family
/// model figures and the self-time sum.
fn layer_report(attempted: u64, failed: u64, layers: &Layers) -> Report {
    let mut report = Report::new(attempted, failed);
    for (name, _) in per_layer() {
        report.set(&name, 0.0);
    }
    for stage in Stage::ALL {
        report.set(
            &format!("{}.self_ms", stage.name()),
            ms(layers.stage(stage)),
        );
    }
    report.set("cache.self_ms", ms(layers.cache_self_ns));
    report.set("model.self_ms", ms(layers.model_self_ns));
    for (i, family) in Family::ALL.into_iter().enumerate() {
        let name = family.name();
        report.set(
            &format!("model.{name}.calls"),
            layers.family_calls[i] as f64,
        );
        report.set(
            &format!("model.{name}.tokens"),
            layers.family_tokens[i] as f64,
        );
        report.set(&format!("model.{name}.self_ms"), ms(layers.family_ns[i]));
    }
    report.set("trace.self_sum_ms", ms(layers.self_sum_ns()));
    report
}

/// Every per-layer metric's median over `rounds`, with their operation
/// counts summed.
fn median_report(rounds: &[Report]) -> Report {
    let mut report = Report::new(
        rounds.iter().map(|r| r.attempted).sum(),
        rounds.iter().map(|r| r.failed).sum(),
    );
    for (name, _) in per_layer() {
        report.set(&name, median_of(rounds.iter().filter_map(|r| r.get(&name))));
    }
    report
}

fn run_serve(settings: &Settings) -> Result<Report, String> {
    let setup = || {
        Ok(Serve::setup(
            settings.seed,
            settings.fault_seed,
            settings.serve.clone(),
        ))
    };
    let (serve, setups) = repeat_setup(settings, setup)?;

    // Each rung's reference runs once with one replay worker. Every later
    // run of that rung must reproduce it, so a report depends neither on
    // the replay worker count nor on the rerun.
    let references: Vec<Rung> = serve
        .ladder()
        .iter()
        .map(|&permille| serve.rung(permille, 1, None))
        .collect();
    let check = |rung: &Rung| {
        let reference = references
            .iter()
            .find(|r| r.permille == rung.permille)
            .ok_or("a rung off the ladder ran")?;
        if rung.report.replay_mismatches != 0 {
            return Err(format!(
                "{} replay mismatches at {} permille",
                rung.report.replay_mismatches, rung.permille
            ));
        }
        if rung.report != reference.report
            || rung.report.trace_fnv() != reference.report.trace_fnv()
        {
            return Err(format!(
                "serving report at {} permille differs from its reference \
                 (trace fnv {:#x} vs {:#x})",
                rung.permille,
                rung.report.trace_fnv(),
                reference.report.trace_fnv()
            ));
        }
        Ok(())
    };
    // A reference trivially equals itself; this checks its replay.
    for reference in &references {
        check(reference)?;
    }
    let nominal = references
        .iter()
        .find(|r| r.permille == 1000)
        .ok_or("the ladder has no nominal rung")?;

    if settings.trace {
        return trace_serve(settings, &serve, &references, &check);
    }

    // The timed phase cycles through the ladder until `seconds` have
    // passed and every rung has run once.
    let ladder = serve.ladder();
    let baseline = alloc_counter::reset_peak_to_live();
    let started = Instant::now();
    let mut runs: Vec<Rung> = Vec::new();
    while runs.len() < ladder.len() || started.elapsed().as_secs_f64() < settings.seconds {
        let rung = serve.rung(ladder[runs.len() % ladder.len()], WORKERS, None);
        check(&rung)?;
        runs.push(rung);
    }
    let peak_bytes = alloc_counter::peak_live_bytes().saturating_sub(baseline);

    let attempted: u64 = runs.iter().map(|r| r.report.requests).sum();
    let failed: u64 = runs.iter().map(|r| r.report.errors).sum();
    let per_task = |total: u64| total as f64 / attempted as f64;
    let mut report = Report::new(attempted, failed);
    report.set("setup_s", median_of(setups));
    report.set(
        "tasks_per_s",
        median_of(runs.iter().map(|r| r.report.requests as f64 / r.wall_s)),
    );
    report.set(
        "model_calls_per_task",
        per_task(runs.iter().map(|r| r.model_calls).sum()),
    );
    report.set(
        "model_tokens_per_task",
        per_task(runs.iter().map(|r| r.model_tokens).sum()),
    );
    report.set("accuracy", 1.0 - failed as f64 / attempted as f64);
    report.set("peak_live_mib", peak_bytes as f64 / (1024.0 * 1024.0));
    report.set("latency_p99_ms", latency_quantile(nominal, 0.99));
    Ok(report)
}

fn trace_serve(
    settings: &Settings,
    serve: &Serve,
    references: &[Rung],
    check: &dyn Fn(&Rung) -> Result<(), String>,
) -> Result<Report, String> {
    let nominal = references
        .iter()
        .find(|r| r.permille == 1000)
        .ok_or("the ladder has no nominal rung")?;
    let started = Instant::now();
    let mut rounds = Vec::new();
    let mut spans = (Vec::new(), Vec::new());
    while rounds.is_empty() || started.elapsed().as_secs_f64() < settings.seconds {
        // One replay worker: the event loop and the replay verification
        // then run back to back, so no two model spans overlap in time.
        let plain = serve.rung(1000, 1, None);
        check(&plain)?;
        let recorder = Recorder::default();
        let traced = serve.rung(1000, 1, Some(&recorder));
        check(&traced)?;
        spans = recorder.take();
        let layers = attribute(&spans.0, &spans.1);

        let mut round = layer_report(
            plain.report.requests + traced.report.requests,
            plain.report.errors + traced.report.errors,
            &layers,
        );
        round.set("model.calls", traced.model_calls as f64);
        round.set("model.tokens", traced.model_tokens as f64);
        let backend = &traced.backend;
        round.set("backend.attempts", backend.attempts as f64);
        round.set("backend.retries", backend.retries as f64);
        round.set("backend.timeouts", backend.timeouts as f64);
        round.set("backend.rate_limited", backend.rate_limited as f64);
        round.set("backend.breaker_trips", backend.breaker_trips as f64);
        round.set(
            "backend.throttle_wait_ms",
            backend.throttle_wait_us as f64 / 1e3,
        );
        round.set("serve.run_ms", plain.wall_s * 1e3);
        round.set(
            "serve.replay_mismatches",
            traced.report.replay_mismatches as f64,
        );
        round.set("serve.slo_attainment", nominal.attainment());
        round.set("serve.max_rate_at_slo", serve.max_rate_at_slo(references));
        // Outside the program only the model boundary is visible: the rest
        // of a serving run is serve and backend self time together, so
        // coverage here is the model's share of the run.
        round.set("trace.wall_ms", traced.wall_s * 1e3);
        round.set(
            "trace.coverage",
            layers.self_sum_ns() as f64 / (traced.wall_s * 1e9),
        );
        round.set(
            "trace.tasks_per_s",
            traced.report.requests as f64 / traced.wall_s,
        );
        round.set(
            "trace.untraced_tasks_per_s",
            plain.report.requests as f64 / plain.wall_s,
        );
        rounds.push(round);
    }
    write_spans(&spans_path(settings), &spans.0, &spans.1).map_err(|e| format!("span log: {e}"))?;
    Ok(median_report(&rounds))
}
