//! Opt-in prompt caching for the experiment runners.
//!
//! Every table driver builds its model, then calls
//! [`CacheConfig::attach`] with a scenario name. When caching is enabled
//! the driver's LLM traffic flows through a sharded, canonicalizing
//! [`PromptCache`]. When a store directory is configured, the cache gets
//! a [`CacheStore`] disk tier at `<dir>/<model>.udmcache`: one
//! `UDMCACHE1` file per model, shared by every scenario and driver that
//! talks to that model. Every admitted miss is appended to it as it
//! happens, so there is nothing to save at the end of a run, and
//! repeating an eval run answers its repeated prompts before any model
//! call. The file carries the model name too, so a store written for one
//! model is never served to another ([`unidm::StoreError::ModelMismatch`]).
//!
//! A legacy per-scenario `<dir>/<scenario>.promptcache` v1 text snapshot
//! found on attach is imported into the store once
//! ([`CacheStore::import_v1`]; existing store entries win, so
//! re-attaching imports nothing).
//!
//! Caching is off by default: the paper tables are regenerated with exact
//! memoization semantics unless the caller opts in (the bench binaries
//! expose this as `--cache` / `--cache-dir`).

use std::path::PathBuf;

use unidm::{CacheStats, CacheStore, CanonLevel, PromptCache, StoreConfig, StoreStats};
use unidm_llm::LanguageModel;

/// Prompt-cache settings shared by every experiment driver.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheConfig {
    /// Whether drivers route their model traffic through a [`PromptCache`].
    pub enabled: bool,
    /// Canonicalization level of the attached caches.
    pub level: CanonLevel,
    /// Directory of the per-model `<model>.udmcache` disk-tier files;
    /// `None` keeps caches in memory only.
    pub store_dir: Option<PathBuf>,
}

impl CacheConfig {
    /// Caching enabled at [`CanonLevel::TableStem`] — the level that folds
    /// per-row retrieval prompts and lifts imputation hit rates an order
    /// of magnitude — with default sharding and no persistence.
    pub fn enabled() -> Self {
        CacheConfig {
            enabled: true,
            level: CanonLevel::TableStem,
            ..CacheConfig::default()
        }
    }

    /// Adds cross-run persistence: one disk-tier store per model under
    /// `dir` (created on first use).
    ///
    /// Stores are keyed by model name alone. Runs whose model answers
    /// differently under the same name (the simulated models depend on
    /// the world seed) need separate directories.
    pub fn with_store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Wraps `llm` according to this configuration.
    ///
    /// `scenario` names the workload (e.g. `"table1-seed42"`); it only
    /// locates a legacy v1 snapshot to migrate. A store that cannot be
    /// opened (mismatched model, stale format, I/O error) leaves the
    /// cache in memory only — a warm start is an optimization, never a
    /// correctness requirement.
    pub fn attach<'a>(&self, scenario: &str, llm: &'a dyn LanguageModel) -> AttachedCache<'a> {
        if !self.enabled {
            return AttachedCache {
                fallback: llm,
                cache: None,
                migrated: 0,
            };
        }
        let mut cache = PromptCache::unbounded(llm).with_canonicalization(self.level);
        let mut migrated = 0;
        if let Some(dir) = &self.store_dir {
            // The model name as a file stem: anything but ASCII
            // alphanumerics, `-`, `_` and `.` becomes `_`.
            let stem = llm.name().replace(
                |c: char| !c.is_ascii_alphanumeric() && !"-_.".contains(c),
                "_",
            );
            let path = dir.join(format!("{stem}.udmcache"));
            match CacheStore::open(&path, llm.name(), StoreConfig::default()) {
                Ok(store) => {
                    let legacy = dir.join(format!("{scenario}.promptcache"));
                    if legacy.exists() {
                        match std::fs::read_to_string(&legacy)
                            .map_err(unidm::StoreError::from)
                            .and_then(|text| store.import_v1(&text))
                        {
                            Ok(n) => migrated = n,
                            Err(e) => eprintln!("warning: not migrating {scenario} snapshot: {e}"),
                        }
                    }
                    cache = cache.with_store(store);
                }
                Err(e) => eprintln!(
                    "warning: disk tier disabled for {scenario} ({}): {e}",
                    path.display()
                ),
            }
        }
        AttachedCache {
            fallback: llm,
            cache: Some(cache),
            migrated,
        }
    }
}

/// A model reference optionally wrapped in a configured [`PromptCache`]
/// (see [`CacheConfig::attach`]).
pub struct AttachedCache<'a> {
    fallback: &'a dyn LanguageModel,
    cache: Option<PromptCache<'a>>,
    /// Legacy v1 snapshot entries imported into the disk tier on attach
    /// (0 when no store or no snapshot is configured, or when the store
    /// already held every entry).
    pub migrated: usize,
}

impl<'a> AttachedCache<'a> {
    /// The model the driver should talk to: the cache when enabled, the
    /// bare model otherwise.
    pub fn model(&self) -> &dyn LanguageModel {
        match &self.cache {
            Some(cache) => cache,
            None => self.fallback,
        }
    }

    /// Aggregated cache statistics, when caching is enabled.
    pub fn stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(PromptCache::stats)
    }

    /// Disk-tier statistics, when a store is attached.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.cache.as_ref().and_then(PromptCache::store_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_llm::{LlmProfile, MockLlm};
    use unidm_world::World;

    fn llm() -> MockLlm {
        MockLlm::new(&World::generate(7), LlmProfile::gpt3_175b(), 7)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("unidm-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disabled_config_passes_the_model_through() {
        let model = llm();
        let attached = CacheConfig::default().attach("t", &model);
        assert!(attached.stats().is_none());
        attached.model().complete("hello").unwrap();
        assert!(model.usage().total() > 0);
    }

    #[test]
    fn enabled_config_caches_and_persists_per_model() {
        let dir = temp_dir("persist");
        let config = CacheConfig::enabled().with_store_dir(&dir);

        let model = llm();
        let cold = config.attach("scenario-a", &model);
        cold.model().complete("a repeated prompt").unwrap();
        cold.model().complete("a repeated prompt").unwrap();
        assert_eq!(cold.stats().unwrap().hits, 1);
        drop(cold);
        assert!(dir.join("GPT-3-175B.udmcache").exists());

        // Any scenario over the same model reopens the same store: the
        // repeated prompt is served from disk before any model call.
        let fresh = llm();
        let warm = config.attach("scenario-b", &fresh);
        warm.model().complete("a repeated prompt").unwrap();
        assert_eq!(
            fresh.usage().total(),
            0,
            "warm run answers before any model call"
        );
        let (stats, store) = (warm.stats().unwrap(), warm.store_stats().unwrap());
        assert_eq!((stats.hits, stats.misses), (0, 1));
        assert_eq!(stats.misses, store.hits + store.misses, "tier identity");
        assert_eq!(store.hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_dir_shares_completions_across_scenarios_and_migrates_v1() {
        let dir = temp_dir("migrate");
        std::fs::create_dir_all(&dir).unwrap();
        let model = llm();
        let completion = model.complete("a migrated prompt").unwrap();
        std::fs::write(
            dir.join("scenario-a.promptcache"),
            format!(
                "unidm-prompt-cache v1\nmodel GPT-3-175B\nentries 1\np a migrated prompt\n\
                 c {}\nu {} {}\n",
                completion.text.replace('\\', "\\\\").replace('\n', "\\n"),
                completion.usage.prompt_tokens,
                completion.usage.completion_tokens,
            ),
        )
        .unwrap();

        let config = CacheConfig::enabled().with_store_dir(&dir);
        let second = config.attach("scenario-a", &model);
        assert_eq!(second.migrated, 1, "v1 snapshot migrates into the store");
        drop(second);
        let third = config.attach("scenario-a", &model);
        assert_eq!(third.migrated, 0, "migration is idempotent");
        drop(third);

        // A different scenario (no snapshot of its own, fresh tier 0)
        // reads the shared store and never calls the model.
        let fresh = llm();
        let other = config.attach("scenario-b", &fresh);
        assert_eq!(other.migrated, 0);
        let replay = other.model().complete("a migrated prompt").unwrap();
        assert_eq!(replay, completion);
        assert_eq!(
            fresh.usage().total(),
            0,
            "shared store answers across scenarios with zero model calls"
        );
        assert_eq!(other.store_stats().unwrap().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_model_snapshot_falls_back_to_cold() {
        let dir = temp_dir("mismatch");
        let config = CacheConfig::enabled().with_store_dir(&dir);
        let gpt3 = llm();
        let first = config.attach("shared", &gpt3);
        first.model().complete("alpha").unwrap();
        drop(first);
        std::fs::write(
            dir.join("shared.promptcache"),
            "unidm-prompt-cache v1\nmodel GPT-3-175B\nentries 1\np beta\nc B\nu 1 1\n",
        )
        .unwrap();

        // Two models in one directory get two files; neither the other
        // model's store nor its legacy snapshot is served.
        let gpt4 = MockLlm::new(&World::generate(7), LlmProfile::gpt4_turbo(), 7);
        let second = config.attach("shared", &gpt4);
        assert_eq!(second.migrated, 0, "wrong-model snapshot must not load");
        second.model().complete("alpha").unwrap();
        second.model().complete("beta").unwrap();
        assert_eq!(second.store_stats().unwrap().hits, 0, "cold start");
        assert!(gpt4.usage().total() > 0);
        drop(second);
        assert!(dir.join("GPT-3-175B.udmcache").exists());
        assert!(dir.join("GPT-4-Turbo.udmcache").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
