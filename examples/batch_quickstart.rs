//! Batched quickstart: run a whole imputation workload through the
//! parallel batch engine with a canonicalizing prompt cache over a disk
//! store, then rerun it warm from that store.
//!
//! Where `quickstart` runs one task through `UniDm::run`, this example
//! builds a batch of tasks over one table, layers a [`PromptCache`] over
//! the model — sharded, and canonicalized at [`CanonLevel::TableStem`] so
//! every row shares the table-level retrieval entry — and fans the batch
//! out across the worker pool with [`BatchRunner`]. A [`CacheStore`] disk
//! tier beneath the cache keeps every completion as it is made; the same
//! workload then replays through a fresh cache and model over the
//! reopened store, answering entirely from disk, before any model call.
//!
//! ```text
//! cargo run --example batch_quickstart
//! ```

use unidm::{BatchRunner, CacheStore, CanonLevel, PipelineConfig, PromptCache, StoreConfig, Task};
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::imputation;
use unidm_tablestore::DataLake;
use unidm_world::World;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);

    // A 40-row imputation workload over the Restaurant benchmark table:
    // every target row is missing its city.
    let ds = imputation::restaurant(&world, 42, 40);
    let lake: DataLake = [ds.table.clone()].into_iter().collect();
    let tasks: Vec<Task> = ds
        .targets
        .iter()
        .map(|t| {
            Task::imputation(
                ds.table.name(),
                t.row,
                ds.target_attr.clone(),
                ds.key_attr.clone(),
            )
        })
        .collect();

    // The cache is itself a `LanguageModel`, so the runner threads it
    // under every worker transparently. Table-stem canonicalization folds
    // the per-row retrieval preambles into shared entries; the disk store
    // below it persists every fresh completion.
    let dir = std::env::temp_dir().join(format!("unidm-batch-quickstart-{}", std::process::id()));
    let store_path = dir.join("GPT-3-175B.udmcache");
    let store = CacheStore::open(&store_path, llm.name(), StoreConfig::default())?;
    let cache = PromptCache::unbounded(&llm)
        .with_shards(8)
        .with_canonicalization(CanonLevel::TableStem)
        .with_store(store);
    let runner = BatchRunner::new(&cache, PipelineConfig::paper_default().with_seed(42));
    println!(
        "Running {} imputation tasks on {} worker(s)...\n",
        tasks.len(),
        runner.workers()
    );
    let outputs = runner.run(&lake, &tasks);

    let mut correct = 0usize;
    let mut run_tokens = 0usize;
    for (out, target) in outputs.iter().zip(&ds.targets) {
        let out = out.as_ref().map_err(Clone::clone)?;
        if out.answer.eq_ignore_ascii_case(&target.truth.to_string()) {
            correct += 1;
        }
        // Per-run cost comes from the run's own meter, not a global diff.
        run_tokens += out.usage.total();
    }

    let stats = cache.stats();
    println!("Accuracy: {correct}/{} correct", outputs.len());
    println!("Logical tokens across runs: {run_tokens}");
    println!(
        "Tokens the model actually processed: {}",
        llm.usage().total()
    );
    println!(
        "Prompt cache ({} shards, {} canonicalization): {} hits / {} misses \
         ({:.0}% hit rate), {} tokens saved",
        cache.shards(),
        cache.level(),
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.tokens_saved,
    );

    // Warm-start a second run, as a new process would, from the store the
    // first run wrote — what a repeated eval run does with `--cache-dir`.
    println!("\nStore written to {}", store_path.display());
    drop(cache);
    let fresh_llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    let store = CacheStore::open(&store_path, fresh_llm.name(), StoreConfig::default())?;
    let warm = PromptCache::unbounded(&fresh_llm)
        .with_shards(8)
        .with_canonicalization(CanonLevel::TableStem)
        .with_store(store.clone());
    let warm_runner = BatchRunner::new(&warm, PipelineConfig::paper_default().with_seed(42));
    let warm_outputs = warm_runner.run(&lake, &tasks);
    let (warm_stats, disk) = (warm.stats(), store.stats());
    println!(
        "Warm start: {} entries on disk; rerun hit {} in memory and {} on disk, \
         {} model tokens",
        store.len(),
        warm_stats.hits,
        disk.hits,
        fresh_llm.usage().total(),
    );
    assert_eq!(disk.misses, 0, "the warm rerun never reaches the model");
    for (cold, warm) in outputs.iter().zip(&warm_outputs) {
        assert_eq!(
            cold.as_ref().map_err(Clone::clone)?.answer,
            warm.as_ref().map_err(Clone::clone)?.answer,
            "warm answers must match the cold run bit-for-bit"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
