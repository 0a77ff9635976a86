//! The closed-loop lake workloads: `lake-cold`, `lake-warm` and
//! `lake-stream`.
//!
//! Every iteration builds the same stack from outside the program:
//! a [`Probe`] above a fresh tier-0 [`PromptCache`], the cache (with a
//! [`CacheStore`] disk tier on the cold and warm workloads), and a
//! [`Probe`] below it in front of `MockLlm`. The batch runner drives the
//! throughput and exec passes; the pool passes drive each task through
//! [`UniDm::run`] from the benchmark's own worker pool, which times each
//! task and, when traced, gives its spans a task id.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use unidm::{
    BatchRunner, CacheStats, CacheStore, CanonLevel, PipelineConfig, PromptCache, RunOutput,
    StoreConfig, StoreStats, Task, UniDm, UniDmError,
};
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::scale::{ScaleSpec, TABLE_NAME as SCALE_TABLE};
use unidm_tablestore::{DataLake, Table};
use unidm_world::World;

use crate::mix::{lake_mix, scale_task, MixSize, Truth};
use crate::probe::{Boundary, Probe, Record, Recorder};
use crate::{
    CHUNK_ROWS, MODEL_SEED, PAGE_BUDGET, SHARDS, STREAM_CACHE_CAPACITY, WARM_PASSES, WORKERS,
};

/// Which lake workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LakeKind {
    /// Fresh tier 0 over a fresh store file: every unique prompt reaches
    /// the model and is offered to disk.
    Cold,
    /// The set-up store reopened under a fresh tier 0, then replayed
    /// from tier 0.
    Warm,
    /// Imputation streamed over a spilled 10^6-row segment.
    Stream,
}

/// Sizes of the lake workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LakeScale {
    /// The cold and warm task mix.
    pub mix: MixSize,
    /// One distinct task in this many is left out of the warm store at
    /// set-up: the new work a replayed batch brings, so the warm bill is
    /// small but never zero.
    pub holdout_every: usize,
    /// Rows of the scale lake.
    pub stream_rows: usize,
    /// Imputation tasks streamed per iteration.
    pub stream_tasks: usize,
    /// One streamed task in this many is queued again a partition later.
    pub stream_repeat_every: usize,
    /// Tasks per streaming partition.
    pub partition_tasks: usize,
}

impl LakeScale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        LakeScale {
            mix: MixSize {
                restaurant: 90,
                buy: 60,
                hospital: 90,
                beer: 60,
                stackoverflow: 60,
                duplicate_every: 8,
            },
            holdout_every: 16,
            stream_rows: 1_000_000,
            stream_tasks: 128,
            stream_repeat_every: 8,
            partition_tasks: 32,
        }
    }

    /// A size small enough for unit tests.
    pub fn tiny() -> Self {
        LakeScale {
            mix: MixSize {
                restaurant: 6,
                buy: 4,
                hospital: 6,
                beer: 4,
                stackoverflow: 4,
                duplicate_every: 4,
            },
            holdout_every: 4,
            stream_rows: 20_000,
            stream_tasks: 24,
            stream_repeat_every: 4,
            partition_tasks: 8,
        }
    }
}

/// How an iteration's passes are executed and observed.
#[derive(Debug, Clone, Copy)]
pub enum Mode<'r> {
    /// `BatchRunner::run_report` (or `run_streaming`), counters only.
    Runner,
    /// `BatchRunner`, with per-thread call windows above the cache.
    RunnerWindows,
    /// The benchmark's own pool over `UniDm::run`, optionally traced.
    Pool(Option<&'r Recorder>),
}

/// What one iteration did.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Wall time of the timed section: store open plus every pass.
    pub elapsed_s: f64,
    /// Wall time spent inside the passes.
    pub pass_s: f64,
    /// Wall time of each task's `UniDm::run`, ms (pool passes only).
    pub latencies_ms: Vec<f64>,
    /// Answers per pass ("" for a failed task).
    pub answers: Vec<Vec<String>>,
    /// Tasks executed.
    pub attempted: u64,
    /// Tasks that returned an error.
    pub failed: u64,
    /// Calls into the cache, counted above it.
    pub lookups: u64,
    /// Calls that reached the model, counted below the cache.
    pub model_calls: u64,
    /// Model calls per pass.
    pub pass_model_calls: Vec<u64>,
    /// Tokens of the completions that reached the model.
    pub model_tokens: u64,
    /// The tier-0 cache's counters.
    pub cache: CacheStats,
    /// The disk tier's counters (zero without a store).
    pub store: StoreStats,
    /// `CacheStore::open` wall time.
    pub store_open_s: f64,
    /// Unique tasks the batch runner's planner executed.
    pub unique_tasks: u64,
    /// Tasks the planner answered from a duplicate.
    pub coalesced_tasks: u64,
    /// Range steals of the work-stealing pool.
    pub steals: u64,
    /// Streaming partitions.
    pub partitions: u64,
    /// Most segment chunks resident at any sink call.
    pub resident_chunks_max: u64,
    /// Idle share of the batch runner's workers (exec pass only).
    pub idle_share: f64,
}

impl Iteration {
    /// Tasks completed per second of the timed section (the store open
    /// included).
    pub fn tasks_per_s(&self) -> f64 {
        self.attempted as f64 / self.elapsed_s
    }

    /// Checks the accounting identity, measured from outside:
    /// `lookups == tier-0 hits + coalesced + disk hits + model calls`,
    /// with lookups counted above the cache and model calls below it.
    pub fn check_identity(&self) -> Result<(), String> {
        let served = self.cache.hits as u64 + self.cache.coalesced as u64 + self.store.hits as u64;
        if self.lookups != served + self.model_calls || self.lookups != self.cache.lookups() as u64
        {
            return Err(format!(
                "accounting identity violated: {} lookups above the cache ({} by its own \
                 stats) != {} tier-0 hits + {} coalesced + {} disk hits + {} model calls",
                self.lookups,
                self.cache.lookups(),
                self.cache.hits,
                self.cache.coalesced,
                self.store.hits,
                self.model_calls
            ));
        }
        Ok(())
    }
}

/// A lake workload after set-up.
pub struct Lake {
    kind: LakeKind,
    scale: LakeScale,
    llm: MockLlm,
    pipeline: PipelineConfig,
    lake: DataLake,
    tasks: Vec<Task>,
    truths: Vec<Truth>,
    origins: Vec<usize>,
    /// The scale lake in memory, kept from set-up until the stream's
    /// materialized reference has been computed.
    memory: Option<Table>,
    dir: PathBuf,
    /// Wall time of `Table::spill_to` at set-up (stream only).
    pub spill_s: f64,
    /// Wall time of `Table::open_segment` at set-up (stream only).
    pub segment_open_s: f64,
}

impl Lake {
    /// Builds the workload's inputs from `seed` under `dir`: the mix and,
    /// for `Warm`, the populated store; for `Stream`, the spilled lake.
    pub fn setup(kind: LakeKind, seed: u64, scale: LakeScale, dir: &Path) -> Result<Lake, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("work dir {}: {e}", dir.display()))?;
        let world = World::generate(seed);
        let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), MODEL_SEED);
        let mut lake = Lake {
            kind,
            scale,
            llm,
            pipeline: PipelineConfig::paper_default(),
            lake: DataLake::new(),
            tasks: Vec::new(),
            truths: Vec::new(),
            origins: Vec::new(),
            memory: None,
            dir: dir.to_path_buf(),
            spill_s: 0.0,
            segment_open_s: 0.0,
        };
        match kind {
            LakeKind::Cold | LakeKind::Warm => {
                let mix = lake_mix(&world, seed, &scale.mix);
                lake.lake = mix.lake;
                lake.tasks = mix.tasks;
                lake.truths = mix.truths;
                lake.origins = mix.origins;
                if kind == LakeKind::Warm {
                    lake.populate_warm_store()?;
                }
            }
            LakeKind::Stream => lake.spill_stream_lake(seed)?,
        }
        Ok(lake)
    }

    fn warm_store_path(&self) -> PathBuf {
        self.dir.join("warm.udmcache")
    }

    fn iteration_store_path(&self) -> PathBuf {
        self.dir.join("iteration.udmcache")
    }

    fn populate_warm_store(&self) -> Result<(), String> {
        let path = self.warm_store_path();
        remove_if_present(&path)?;
        // Every `holdout_every`-th task of the unshuffled pool is left out,
        // so each dataset contributes its share of new work.
        let kept: Vec<Task> = self
            .tasks
            .iter()
            .zip(&self.origins)
            .filter(|(_, origin)| *origin % self.scale.holdout_every != 0)
            .map(|(task, _)| task.clone())
            .collect();
        let store = open_store(&path, self.llm.name())?;
        let cache = fresh_cache(&self.llm, usize::MAX).with_store(store);
        BatchRunner::new(&cache, self.pipeline)
            .with_workers(WORKERS)
            .run_report(&self.lake, &kept);
        Ok(())
    }

    fn spill_stream_lake(&mut self, seed: u64) -> Result<(), String> {
        let scale = self.scale;
        let spec = ScaleSpec::new(scale.stream_rows, seed).with_chunk_rows(CHUNK_ROWS);
        let path = self.dir.join("scale.udmseg");
        remove_if_present(&path)?;
        let table = spec.users_table();
        let started = Instant::now();
        let spilled = table
            .spill_to(&path, PAGE_BUDGET)
            .map_err(|e| format!("spill {}: {e}", path.display()))?;
        self.spill_s = started.elapsed().as_secs_f64();
        drop(spilled);
        self.memory = Some(table);
        let started = Instant::now();
        let opened = Table::open_segment(&path, PAGE_BUDGET)
            .map_err(|e| format!("open segment {}: {e}", path.display()))?;
        self.segment_open_s = started.elapsed().as_secs_f64();
        self.lake = [opened].into_iter().collect();

        // Targets spread evenly over the whole row range, so the pager
        // pages across the segment, with repeats a partition later.
        let targets: Vec<usize> = spec.target_rows().collect();
        let stride = (targets.len() / scale.stream_tasks).max(1);
        let rows: Vec<usize> = targets
            .into_iter()
            .step_by(stride)
            .take(scale.stream_tasks)
            .collect();
        for (i, &row) in rows.iter().enumerate() {
            self.tasks.push(scale_task(row));
            if i % scale.stream_repeat_every == scale.stream_repeat_every - 1 {
                self.tasks
                    .push(scale_task(rows[i + 1 - scale.partition_tasks.min(i + 1)]));
            }
        }
        Ok(())
    }

    /// The answers a cold pass over the whole task list gives (the
    /// `lake-cold` iteration, run once).
    pub(crate) fn cold_reference(&self) -> Result<Vec<String>, String> {
        let path = self.dir.join("reference.udmcache");
        remove_if_present(&path)?;
        let store = open_store(&path, self.llm.name())?;
        let cache = fresh_cache(&self.llm, usize::MAX).with_store(store);
        let report = BatchRunner::new(&cache, self.pipeline)
            .with_workers(WORKERS)
            .run_report(&self.lake, &self.tasks);
        Ok(report.results.into_iter().map(answer_of).collect())
    }

    /// The stream's reference: a materialized `run_report` over the
    /// scale lake held in memory, which every streamed pass must match.
    /// The synthdata truth of a masked city is out of the model's reach
    /// (chance level), so these answers also serve as the stream's ground
    /// truth. Frees the in-memory lake.
    pub(crate) fn stream_reference(&mut self) -> Result<Vec<String>, String> {
        let table = self
            .memory
            .take()
            .ok_or("the in-memory scale lake was already released")?;
        let memory: DataLake = [table].into_iter().collect();
        let cache = fresh_cache(&self.llm, STREAM_CACHE_CAPACITY);
        let answers: Vec<String> = BatchRunner::new(&cache, self.pipeline)
            .with_workers(WORKERS)
            .run_report(&memory, &self.tasks)
            .results
            .into_iter()
            .map(answer_of)
            .collect();
        self.truths = answers.iter().cloned().map(Truth::Exact).collect();
        Ok(answers)
    }

    /// Share of `answers` (one per task) that match the ground truth.
    pub(crate) fn accuracy(&self, answers: &[String]) -> f64 {
        let right = answers
            .iter()
            .zip(&self.truths)
            .filter(|(answer, truth)| truth.holds(answer))
            .count();
        right as f64 / self.truths.len() as f64
    }

    /// Runs one iteration of the workload with `mode`.
    pub fn iterate(&self, mode: Mode<'_>) -> Result<Iteration, String> {
        let recorder = match mode {
            Mode::Pool(recorder) => recorder,
            _ => None,
        };
        let below = Probe::new(&self.llm, Boundary::Below, Record::spans_or_count(recorder));

        // Untimed preparation of the iteration's store file.
        let store_path = match self.kind {
            LakeKind::Cold => {
                let path = self.iteration_store_path();
                remove_if_present(&path)?;
                Some(path)
            }
            LakeKind::Warm => {
                let path = self.iteration_store_path();
                std::fs::copy(self.warm_store_path(), &path)
                    .map_err(|e| format!("copy warm store: {e}"))?;
                Some(path)
            }
            LakeKind::Stream => None,
        };

        let mut it = Iteration::default();
        let started = Instant::now();
        let store = match &store_path {
            Some(path) => {
                let opened = Instant::now();
                let store = open_store(path, below.name())?;
                it.store_open_s = opened.elapsed().as_secs_f64();
                Some(store)
            }
            None => None,
        };
        let capacity = match self.kind {
            LakeKind::Stream => STREAM_CACHE_CAPACITY,
            _ => usize::MAX,
        };
        let mut cache = fresh_cache(&below, capacity);
        if let Some(store) = &store {
            cache = cache.with_store(store.clone());
        }
        let above_record = match mode {
            Mode::RunnerWindows => Record::windows(),
            _ => Record::spans_or_count(recorder),
        };
        let above = Probe::new(&cache, Boundary::Above, above_record);
        let passes = match self.kind {
            LakeKind::Warm => WARM_PASSES,
            _ => 1,
        };
        for pass in 0..passes {
            if let Some(recorder) = recorder {
                recorder.set_pass(pass as u32);
            }
            let calls_before = below.calls();
            let pass_start = Instant::now();
            let answers = match mode {
                Mode::Pool(recorder) => {
                    let unidm = UniDm::new(&above, self.pipeline);
                    let base = (pass * self.tasks.len()) as u32;
                    pool(&unidm, &self.lake, &self.tasks, recorder, base)
                        .into_iter()
                        .map(|(result, ms)| {
                            it.latencies_ms.push(ms);
                            count_failure(result, &mut it.failed)
                        })
                        .collect()
                }
                Mode::Runner | Mode::RunnerWindows => self.run_batch(&above, &mut it),
            };
            let pass_s = pass_start.elapsed().as_secs_f64();
            it.pass_s += pass_s;
            it.attempted += self.tasks.len() as u64;
            it.answers.push(answers);
            it.pass_model_calls.push(below.calls() - calls_before);
        }
        it.elapsed_s = started.elapsed().as_secs_f64();
        it.lookups = above.calls();
        it.model_calls = below.calls();
        it.model_tokens = below.tokens();
        it.cache = cache.stats();
        it.store = store.as_ref().map(CacheStore::stats).unwrap_or_default();
        if let Mode::RunnerWindows = mode {
            let capacity_ns = WORKERS as f64 * it.pass_s * 1e9;
            it.idle_share = 1.0 - above.window_busy_ns() as f64 / capacity_ns;
        }
        Ok(it)
    }

    /// One pass through the batch runner: `run_report` over the mix, or
    /// `run_streaming` over the scale lake.
    fn run_batch(&self, model: &dyn LanguageModel, it: &mut Iteration) -> Vec<String> {
        let runner = BatchRunner::new(model, self.pipeline)
            .with_workers(WORKERS)
            .with_dedup(true)
            .with_partition_tasks(self.scale.partition_tasks);
        if self.kind != LakeKind::Stream {
            let report = runner.run_report(&self.lake, &self.tasks);
            it.unique_tasks += report.unique_tasks as u64;
            it.coalesced_tasks += report.coalesced_tasks as u64;
            it.steals += report.steals as u64;
            return report
                .results
                .into_iter()
                .map(|r| count_failure(r, &mut it.failed))
                .collect();
        }
        let table = self.lake.table(SCALE_TABLE).expect("scale table in lake");
        let mut answers = Vec::with_capacity(self.tasks.len());
        let mut resident_max = 0;
        let mut failed = 0;
        let report = runner.run_streaming(&self.lake, self.tasks.iter().cloned(), |_, result| {
            resident_max = resident_max.max(table.resident_chunks());
            answers.push(count_failure(result, &mut failed));
        });
        it.failed += failed;
        it.resident_chunks_max = it.resident_chunks_max.max(resident_max as u64);
        it.unique_tasks += report.unique_tasks as u64;
        it.coalesced_tasks += report.coalesced_tasks as u64;
        it.steals += report.steals as u64;
        it.partitions += report.partitions as u64;
        answers
    }

    /// Checks an iteration against the reference answers and the
    /// workload's invariants.
    pub(crate) fn check(&self, it: &Iteration, reference: &[String]) -> Result<(), String> {
        it.check_identity()?;
        for (pass, answers) in it.answers.iter().enumerate() {
            if answers.as_slice() != reference {
                let first = answers
                    .iter()
                    .zip(reference)
                    .position(|(a, b)| a != b)
                    .unwrap_or(0);
                return Err(format!(
                    "pass {pass}: answers differ from the reference at task {first}"
                ));
            }
        }
        match self.kind {
            LakeKind::Cold if it.store.hits != 0 => Err("a fresh store served a disk hit".into()),
            LakeKind::Warm if it.pass_model_calls.iter().skip(1).any(|&c| c != 0) => Err(format!(
                "tier-0 replay passes reached the model: {:?} calls per pass",
                it.pass_model_calls
            )),
            LakeKind::Warm if it.store.hits == 0 => {
                Err("the warm pass was not served from disk".into())
            }
            _ => Ok(()),
        }
    }
}

fn open_store(path: &Path, model: &str) -> Result<CacheStore, String> {
    CacheStore::open(path, model, StoreConfig::default())
        .map_err(|e| format!("cache store {}: {e}", path.display()))
}

fn fresh_cache(model: &dyn LanguageModel, capacity: usize) -> PromptCache<'_> {
    PromptCache::new(model, capacity)
        .with_shards(SHARDS)
        .with_canonicalization(CanonLevel::TableStem)
}

fn answer_of(result: Result<RunOutput, UniDmError>) -> String {
    result.map(|output| output.answer).unwrap_or_default()
}

fn count_failure(result: Result<RunOutput, UniDmError>, failed: &mut u64) -> String {
    if result.is_err() {
        *failed += 1;
    }
    answer_of(result)
}

fn remove_if_present(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("remove {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

/// A pool task's result with its wall latency, ms.
type Timed = (Result<RunOutput, UniDmError>, f64);

/// Runs `tasks` on [`WORKERS`] threads that each take the next task from
/// a shared cursor, returning results in task order with each task's
/// wall latency. With a recorder, task `i` runs as task id `base + i`.
fn pool(
    unidm: &UniDm<'_>,
    lake: &DataLake,
    tasks: &[Task],
    recorder: Option<&Recorder>,
    base: u32,
) -> Vec<Timed> {
    let slots: Vec<OnceLock<Timed>> = tasks.iter().map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                let started = Instant::now();
                let result = match recorder {
                    Some(recorder) => recorder.task(base + i as u32, || unidm.run(lake, task)),
                    None => unidm.run(lake, task),
                };
                let ms = started.elapsed().as_secs_f64() * 1e3;
                slots[i]
                    .set((result, ms))
                    .expect("each slot is claimed once");
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot is filled"))
        .collect()
}
