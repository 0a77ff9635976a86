//! Parallel batch execution: a work-stealing worker pool fanning
//! [`UniDm`] runs over many tasks, and a sharded, canonicalizing,
//! single-flight, disk-backed prompt cache deduplicating repeated LLM
//! calls.
//!
//! The paper's experiments (Tables 1–11) execute thousands of independent
//! pipeline runs per dataset. Two properties of the pipeline make batch
//! execution profitable:
//!
//! * **Independence** — each run is a pure function of `(model, config,
//!   lake, task)`, so runs can execute on any thread in any order and still
//!   produce bit-identical answers and per-run usage
//!   ([`BatchRunner`]).
//! * **Redundancy** — tasks on the same table issue near-identical
//!   retrieval (`p_rm`, `p_ri`) and parsing (`p_dp`) prompts; a
//!   prompt-level memo turns that redundancy into saved tokens and
//!   throughput ([`PromptCache`]).
//!
//! The cache composes four mechanisms, each independently tunable:
//!
//! * **Canonical keys** ([`crate::canon`]) — prompts are keyed by their
//!   canonical text, so whitespace variants and (at
//!   [`CanonLevel::TableStem`]) per-row retrieval preambles share entries.
//!   The lookup path runs [`CanonicalPrompt::canonicalize`], which borrows
//!   already-canonical prompts instead of copying them — a warm hit
//!   performs **zero heap allocations**.
//! * **Sharding** — the memo is split across N independently locked maps
//!   selected by key hash, so concurrent [`BatchRunner`] workers contend on
//!   1/N of the lock traffic.
//! * **Single-flight coalescing** — each shard keeps an in-flight table of
//!   canonical keys currently being completed. Concurrent duplicate
//!   lookups issue exactly **one** endpoint call: the first arrival leads,
//!   the rest block on the slot and share the leader's completion
//!   ([`CacheStats::coalesced`] counts them). Because misses complete the
//!   canonical text against a deterministic substrate, coalesced answers
//!   are bit-identical to what each caller would have fetched itself.
//! * **Persistence** — [`PromptCache::with_store`] attaches a
//!   [`CacheStore`] disk tier that every admitted miss is appended to, so
//!   a second eval run over the same file starts warm and answers its
//!   first prompts without any model call.
//!
//! [`BatchRunner`] adds scheduler-level deduplication on top: a
//! pre-dispatch planner groups byte-identical tasks, runs one
//! representative per group on the work-stealing pool, and copies the
//! representative's output to every duplicate slot — so duplicate tasks
//! never even reach the cache.
//!
//! ```
//! use unidm::{BatchRunner, PipelineConfig, PromptCache, Task};
//! use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
//! use unidm_tablestore::{DataLake, Table, Value};
//! use unidm_world::World;
//!
//! let world = World::generate(42);
//! let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 1);
//! let cache = PromptCache::unbounded(&llm);
//!
//! let mut cities = Table::builder("cities").columns(["city", "country", "timezone"]).build();
//! cities.push_row(vec![
//!     Value::text("Florence"), Value::text("Italy"), Value::text("Central European Time"),
//! ]).unwrap();
//! cities.push_row(vec![Value::text("Copenhagen"), Value::text("Denmark"), Value::Null]).unwrap();
//! let lake: DataLake = [cities].into_iter().collect();
//!
//! let tasks = vec![Task::imputation("cities", 1, "timezone", "city")];
//! let runner = BatchRunner::new(&cache, PipelineConfig::paper_default());
//! let outputs = runner.run(&lake, &tasks);
//! assert_eq!(outputs[0].as_ref().unwrap().answer, "Central European Time");
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use unidm_llm::{Completion, LanguageModel, LlmError, Usage};
use unidm_tablestore::DataLake;

use crate::canon::{CanonLevel, CanonicalPrompt};
use crate::dispatch::Dispatcher;
use crate::pipeline::{RunOutput, UniDm};
use crate::store::{CacheStore, StoreStats};
use crate::task::Task;
use crate::{PipelineConfig, UniDmError};

/// Hit/miss/saving statistics of a [`PromptCache`] (or of one shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Completions served from the cache.
    pub hits: usize,
    /// Tier-0 misses; a disk tier below may still serve them (see
    /// [`StoreStats::hits`]). With single-flight coalescing this counts
    /// **leaders only**, so for a fixed workload it equals the number of
    /// unique canonical keys completed — exactly, under every
    /// interleaving.
    pub misses: usize,
    /// Lookups that arrived while the same canonical key was already in
    /// flight and shared the leader's completion instead of issuing their
    /// own endpoint call. In a serial run this is always zero; under
    /// parallelism, `hits + coalesced` is exact while the split between
    /// the two depends on timing.
    pub coalesced: usize,
    /// Entries evicted to stay within capacity.
    pub evictions: usize,
    /// Tokens (prompt + completion) the model did not have to process
    /// because a hit — or a coalesced wait — short-circuited the call.
    pub tokens_saved: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (zero when nothing was looked up). Coalesced
    /// lookups count toward the numerator: they were served without an
    /// endpoint call of their own.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.coalesced + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / total as f64
        }
    }

    /// Total lookups accounted (hits, coalesced waits, and misses).
    pub fn lookups(&self) -> usize {
        self.hits + self.coalesced + self.misses
    }

    /// Adds another stats snapshot into this one (used to aggregate
    /// per-shard statistics).
    pub fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
        self.evictions += other.evictions;
        self.tokens_saved += other.tokens_saved;
    }
}

/// One memoized completion: the shared payload plus its second-chance bit.
#[derive(Debug)]
struct CacheEntry {
    completion: Arc<Completion>,
    /// Second-chance bit: set on every hit, cleared when the clock hand
    /// sweeps past. An entry is evicted only if the hand finds the bit
    /// clear — i.e. it was not used for a whole revolution.
    referenced: bool,
}

/// State of a single-flight slot.
enum SlotState {
    /// The leader is still completing the canonical text.
    Pending,
    /// The leader finished; every waiter shares this result.
    Done(Result<Arc<Completion>, LlmError>),
    /// The leader panicked before filling the slot; waiters must retry
    /// (and one of them becomes the new leader).
    Abandoned,
}

/// A single-flight slot: the rendezvous between the leader completing a
/// canonical key and the coalesced waiters blocked on it.
struct InFlight {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl InFlight {
    fn new() -> Arc<InFlight> {
        Arc::new(InFlight {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        })
    }

    /// Publishes the leader's result and wakes every waiter.
    fn fill(&self, result: Result<Arc<Completion>, LlmError>) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state = SlotState::Done(result);
        drop(state);
        self.ready.notify_all();
    }

    /// Marks the slot abandoned (leader panicked) and wakes every waiter.
    fn abandon(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state = SlotState::Abandoned;
        drop(state);
        self.ready.notify_all();
    }

    /// Blocks until the leader publishes; `None` means the slot was
    /// abandoned and the caller should retry its lookup.
    fn wait(&self) -> Option<Result<Arc<Completion>, LlmError>> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match &*state {
                SlotState::Pending => {
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                SlotState::Done(result) => return Some(result.clone()),
                SlotState::Abandoned => return None,
            }
        }
    }
}

#[derive(Default)]
struct CacheInner {
    /// canonical prompt text → memoized completion. Keyed by the owned
    /// text but probed with a borrowed `&str`, so a warm hit allocates
    /// nothing. `Arc<str>` so the eviction ring shares the key without a
    /// second copy of the text.
    entries: HashMap<Arc<str>, CacheEntry>,
    /// Second-chance eviction ring: every resident key, in insertion
    /// order, with `hand` pointing at the next eviction candidate. An
    /// evicted slot is reused in place by the entry that displaced it, so
    /// the ring never reallocates once the shard is full.
    ring: Vec<Arc<str>>,
    hand: usize,
    /// canonical prompt text → single-flight slot for keys currently
    /// being completed by a leader.
    inflight: HashMap<Box<str>, Arc<InFlight>>,
    stats: CacheStats,
}

impl CacheInner {
    /// Inserts (or refreshes) `text`, evicting one entry by second-chance
    /// when the shard is at `capacity`.
    ///
    /// Eviction is O(1) amortized: the clock hand sweeps the ring,
    /// clearing reference bits until it finds an entry not used since the
    /// last revolution — each resident entry is touched at most once per
    /// revolution, however full the shard is. The hit path refreshes
    /// recency by setting the reference bit in place — no ordered index,
    /// no allocation.
    ///
    /// Victim choice is deterministic for a deterministic operation
    /// order: the hand position and every reference bit are pure
    /// functions of the insert/hit sequence. `stats.evictions` stays
    /// exact — exactly one eviction per insert beyond capacity.
    fn insert(&mut self, text: &str, completion: Arc<Completion>, capacity: usize) {
        if let Some(entry) = self.entries.get_mut(text) {
            // Refresh in place (re-admission or a racing co-leader): the
            // key keeps its ring slot.
            entry.completion = completion;
            entry.referenced = true;
            return;
        }
        let key: Arc<str> = Arc::from(text);
        let entry = CacheEntry {
            completion,
            // A fresh entry starts unreferenced: it earns its second
            // chance on first re-use, so a one-pass scan of cold keys
            // cannot flush the referenced working set.
            referenced: false,
        };
        if self.entries.len() >= capacity {
            let slot = self.evict_one();
            self.ring[slot] = key.clone();
        } else {
            self.ring.push(key.clone());
        }
        self.entries.insert(key, entry);
    }

    /// Runs the clock hand until it claims a victim; removes the victim
    /// from the map and returns its (now free) ring slot.
    fn evict_one(&mut self) -> usize {
        debug_assert!(!self.ring.is_empty(), "eviction needs a resident entry");
        loop {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let key = self.ring[self.hand].clone();
            let entry = self
                .entries
                .get_mut(key.as_ref())
                .expect("every ring key is resident");
            if entry.referenced {
                entry.referenced = false;
                self.hand += 1;
            } else {
                let slot = self.hand;
                self.entries.remove(key.as_ref());
                self.stats.evictions += 1;
                self.hand += 1;
                return slot;
            }
        }
    }

    /// Drops every entry and resets the eviction ring (statistics kept).
    fn clear_entries(&mut self) {
        self.entries.clear();
        self.ring.clear();
        self.hand = 0;
    }
}

/// A concurrent prompt → completion memo layered over any
/// [`LanguageModel`].
///
/// The cache is itself a `LanguageModel`, so it slots transparently under
/// [`UniDm`] or [`BatchRunner`]: repeated prompts — retrieval and parsing
/// calls shared by tasks on the same table, duplicate final claims —
/// are answered from memory without consuming model tokens.
///
/// # Keying and canonicalization
///
/// Lookups go through [`CanonicalPrompt::canonicalize`] at the cache's
/// [`CanonLevel`] (default [`CanonLevel::Verbatim`], i.e. exact
/// memoization). At higher levels a miss completes the *canonical* prompt
/// text rather than the raw variant, which makes the memo a pure function
/// of the canonical key: whichever worker populates an entry, the stored
/// completion is identical, so serial and parallel batches stay
/// bit-for-bit equal even when many raw prompts fold into one entry.
///
/// # The warm hit path allocates nothing
///
/// An already-canonical prompt (every re-lookup of a canonical text, and
/// every rendered prompt that needs no rewriting) is borrowed by the
/// canonicalizer, hashed in the same scan, probed against the shard map by
/// `&str`, refreshed by setting its reference bit in place, and
/// answered by bumping the reference count of the stored
/// [`Arc<Completion>`]. No `String`, no node, no clone — zero heap
/// allocations end to end, which the bench suite asserts with a counting
/// allocator.
///
/// # Sharding and single-flight coalescing
///
/// Entries are distributed over [`PromptCache::shards`] independently
/// locked maps by key hash, cutting lock contention under
/// [`BatchRunner`] parallelism. Each shard also keeps an **in-flight
/// table**: when a miss is already being completed by another worker,
/// later arrivals of the same canonical key do not issue a second endpoint
/// call — they block on the leader's slot and share its completion
/// ([`CacheStats::coalesced`]). Statistics are counted per shard (exactly
/// — every counter update happens under its shard's lock) and aggregated
/// by [`PromptCache::stats`]; [`PromptCache::shard_stats`] exposes the
/// per-shard breakdown. Lookups never block on the underlying model except
/// when coalescing onto the same key: the shard lock is released while a
/// miss is being completed.
///
/// # Disk tier and persistence
///
/// [`PromptCache::with_store`] attaches a [`CacheStore`] — the merged,
/// versioned, append-only disk segment shared across scenarios — beneath
/// the shards. Tier-0 misses probe the store before reaching the model
/// (a disk hit populates tier 0 and costs zero model calls), and fresh
/// completions are offered back through the store's TinyLFU admission
/// filter, so a sequential scan cannot flush the disk-resident hot set.
/// Tier-0 hits never touch the store, preserving the zero-allocation
/// warm-hit path, and disk traffic is accounted separately in
/// [`StoreStats`] so [`CacheStats`] exactness is unaffected. The store is
/// the cache's only persistence: a second run that opens the same file
/// starts warm. Legacy v1 text snapshots are migrated into it by
/// [`CacheStore::import_v1`].
///
/// # Determinism and accounting
///
/// The deterministic substrate returns the same completion for the same
/// prompt, so serving a memoized (or coalesced) completion changes nothing
/// about answers or per-run usage — only about what the *inner* model
/// actually processed. Cached completions report the usage of the original
/// call, which keeps per-run accounting via [`unidm_llm::UsageMeter`]
/// identical with and without the cache; the inner model's own counter
/// only grows on leader misses, and the difference is tracked as
/// [`CacheStats::tokens_saved`]. For a fixed workload,
/// [`CacheStats::misses`] equals the number of unique canonical keys
/// completed — exactly, under every interleaving — because the in-flight
/// table guarantees one leader per key.
///
/// # Examples
///
/// ```
/// use unidm::{CanonLevel, PromptCache};
/// use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
/// use unidm_world::World;
///
/// let world = World::generate(42);
/// let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 1);
/// let cache = PromptCache::unbounded(&llm)
///     .with_shards(4)
///     .with_canonicalization(CanonLevel::Whitespace);
///
/// let a = cache.complete("The quick  brown fox").unwrap();
/// let b = cache.complete("The quick brown fox").unwrap(); // whitespace variant: hit
/// assert_eq!(a, b);
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().tokens_saved, a.usage.total());
/// ```
pub struct PromptCache<'a> {
    inner: &'a dyn LanguageModel,
    capacity: usize,
    shard_capacity: usize,
    level: CanonLevel,
    single_flight: bool,
    shards: Box<[Mutex<CacheInner>]>,
    /// Optional disk tier ([`CacheStore`]): tier-0 misses probe it before
    /// reaching the model, and fresh completions are offered back through
    /// its admission filter. The tier-0 hit path never touches it, so the
    /// zero-allocation warm hit is unchanged.
    store: Option<CacheStore>,
}

impl std::fmt::Debug for PromptCache<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PromptCache")
            .field("inner", &self.inner.name())
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("level", &self.level)
            .field("stats", &self.stats())
            .field("store", &self.store.as_ref().map(|s| s.path()))
            .finish()
    }
}

/// Default shard count: enough to keep eight batch workers off each
/// other's locks without fragmenting small caches.
const DEFAULT_SHARDS: usize = 8;

/// The shard count new caches start with: the `UNIDM_SHARDS` environment
/// variable when set to a positive integer (rounded up to a power of two —
/// this is how CI exercises shard-count sensitivity across the whole
/// suite) is authoritative; otherwise the count self-tunes to the machine,
/// [`std::thread::available_parallelism`] rounded up to a power of two and
/// clamped to `[`[`DEFAULT_SHARDS`]`, 64]` — wide boxes get proportionally
/// more locks, small caches never fragment below the historical default.
fn default_shards() -> usize {
    std::env::var("UNIDM_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|n| *n > 0)
        .map(usize::next_power_of_two)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().next_power_of_two())
                .unwrap_or(DEFAULT_SHARDS)
                .clamp(DEFAULT_SHARDS, 64)
        })
}

fn build_shards(n: usize) -> Box<[Mutex<CacheInner>]> {
    (0..n).map(|_| Mutex::new(CacheInner::default())).collect()
}

/// Disarms the in-flight slot if the leader unwinds before filling it, so
/// a panicking worker cannot wedge every thread coalesced onto its key.
struct LeaderGuard<'c> {
    shard: &'c Mutex<CacheInner>,
    slot: &'c Arc<InFlight>,
    text: &'c str,
    armed: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut state = self.shard.lock().unwrap_or_else(PoisonError::into_inner);
        state.inflight.remove(self.text);
        drop(state);
        self.slot.abandon();
    }
}

impl<'a> PromptCache<'a> {
    /// Creates a cache holding at most `capacity` completions (LRU
    /// eviction), split across the default shard count (the
    /// `UNIDM_SHARDS` environment variable when set; otherwise
    /// self-tuned from [`std::thread::available_parallelism`], at least
    /// 8).
    ///
    /// The capacity budget is divided evenly across shards (each shard
    /// gets at least one slot), so with very small capacities the
    /// effective bound is `shards × 1`; use [`PromptCache::with_shards`]
    /// to control the split.
    pub fn new(inner: &'a dyn LanguageModel, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut cache = PromptCache {
            inner,
            capacity,
            shard_capacity: 0,
            level: CanonLevel::Verbatim,
            single_flight: true,
            shards: build_shards(default_shards()),
            store: None,
        };
        cache.shard_capacity = cache.capacity_per_shard();
        cache
    }

    /// Creates a cache that never evicts.
    pub fn unbounded(inner: &'a dyn LanguageModel) -> Self {
        Self::new(inner, usize::MAX)
    }

    /// Sets the shard count (rounded up to a power of two, minimum 1) and
    /// redistributes any existing entries. Builder-style; intended at
    /// construction time.
    pub fn with_shards(mut self, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let entries = self.drain_entries();
        // Statistics survive the rebuild: fold the old shard counters into
        // the first new shard (aggregate stats stay exact; the per-shard
        // attribution of pre-rebuild traffic is no longer meaningful).
        let stats = self.stats();
        self.shards = build_shards(n);
        self.shard_capacity = self.capacity_per_shard();
        self.lock_shard(&self.shards[0]).stats = stats;
        self.readmit(entries);
        self
    }

    /// Sets the canonicalization level and re-keys any existing entries.
    /// Builder-style; intended at construction time.
    pub fn with_canonicalization(mut self, level: CanonLevel) -> Self {
        let entries = self.drain_entries();
        self.level = level;
        self.readmit(entries);
        self
    }

    /// Enables or disables cache-level single-flight coalescing (enabled
    /// by default). Builder-style; intended at construction time.
    ///
    /// Disable it when the cache sits above a pipelined
    /// [`crate::Dispatcher`]: dispatcher-registered workers must never
    /// block outside the dispatcher, and a single-flight waiter blocks in
    /// a cache slot the dispatcher's quiescence detection cannot see. The
    /// dispatcher performs its own per-prompt single-flight and memoizes
    /// successes, so endpoint calls still equal unique canonical keys —
    /// the coalescing just happens one layer lower. With single-flight
    /// off, [`CacheStats::misses`] counts every concurrent co-leader of a
    /// key rather than exactly one leader per key, so its exactness
    /// guarantee only holds in the default mode (or one layer lower, in
    /// [`crate::BackendStats`]).
    pub fn with_single_flight(mut self, single_flight: bool) -> Self {
        self.single_flight = single_flight;
        self
    }

    /// Attaches a disk tier ([`CacheStore`]) beneath the in-memory shards.
    /// Builder-style; intended at construction time.
    ///
    /// Tier-0 misses probe the store before reaching the model (a disk hit
    /// populates tier 0 and never calls the model), and fresh completions
    /// are offered back to the store through its TinyLFU admission filter.
    /// Tier-0 hits never touch the store, so the zero-allocation warm hit
    /// is unchanged. Disk-tier traffic is accounted in [`StoreStats`]
    /// (via [`PromptCache::store_stats`]), not [`CacheStats`]: the two
    /// tiers keep independent exact counters, and a disk hit counts as a
    /// tier-0 miss exactly like any other completion the cache had to
    /// fetch from below.
    pub fn with_store(mut self, store: CacheStore) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached disk tier, if any.
    pub fn store(&self) -> Option<&CacheStore> {
        self.store.as_ref()
    }

    /// A snapshot of the disk tier's counters, if a store is attached.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// Whether cache-level single-flight coalescing is enabled.
    pub fn single_flight(&self) -> bool {
        self.single_flight
    }

    /// The canonicalization level lookups run at.
    pub fn level(&self) -> CanonLevel {
        self.level
    }

    /// The number of independently locked shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The total completion capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn capacity_per_shard(&self) -> usize {
        if self.capacity == usize::MAX {
            usize::MAX
        } else {
            self.capacity.div_ceil(self.shards.len()).max(1)
        }
    }

    /// Resolves a tier-0 miss from the layers below: the disk tier first
    /// (a hit there never calls the model), then the inner model, offering
    /// a fresh completion back to the store's admission filter. Runs
    /// without any shard lock held.
    fn fetch_below(&self, text: &str) -> Result<Arc<Completion>, LlmError> {
        if let Some(store) = &self.store {
            if let Some(completion) = store.get(text) {
                return Ok(completion);
            }
        }
        let result = self.inner.complete(text);
        if let (Some(store), Ok(completion)) = (&self.store, &result) {
            store.offer(text, completion);
        }
        result
    }

    fn shard_for_hash(&self, hash: u64) -> &Mutex<CacheInner> {
        // Shard count is a power of two, so masking the stable FNV hash
        // picks a shard uniformly.
        let index = (hash as usize) & (self.shards.len() - 1);
        &self.shards[index]
    }

    /// Locks a shard, recovering from poison: the shard state is a plain
    /// map plus counters, valid at every instruction boundary, so a worker
    /// that panicked while holding the lock cannot leave it corrupt — and
    /// must not wedge every other worker of the batch.
    fn lock_shard<'s>(&self, shard: &'s Mutex<CacheInner>) -> MutexGuard<'s, CacheInner> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Removes every entry, returning them sorted by canonical prompt (so
    /// rebuilds are deterministic). Statistics are kept.
    fn drain_entries(&mut self) -> Vec<(Arc<str>, Arc<Completion>)> {
        let mut entries = Vec::new();
        for shard in self.shards.iter() {
            let mut state = self.lock_shard(shard);
            entries.extend(
                state
                    .entries
                    .drain()
                    .map(|(text, entry)| (text, entry.completion)),
            );
            state.ring.clear();
            state.hand = 0;
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Re-inserts drained entries under the current level/shard layout.
    fn readmit(&self, entries: Vec<(Arc<str>, Arc<Completion>)>) {
        for (text, completion) in entries {
            self.admit(&text, completion);
        }
    }

    /// Inserts a known-good completion under the canonical key of
    /// `prompt` without touching hit/miss counters.
    fn admit(&self, prompt: &str, completion: Arc<Completion>) {
        let canonical = CanonicalPrompt::canonicalize(prompt, self.level);
        let shard = self.shard_for_hash(canonical.hash64());
        self.lock_shard(shard)
            .insert(canonical.text(), completion, self.shard_capacity);
    }

    /// A snapshot of the aggregated hit/miss/eviction statistics.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in self.shards.iter() {
            total.merge(self.lock_shard(shard).stats);
        }
        total
    }

    /// Per-shard statistics, in shard order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|shard| self.lock_shard(shard).stats)
            .collect()
    }

    /// The canonical prompt texts currently memoized, sorted — the keys a
    /// warm lookup hits verbatim. Deterministic for a deterministic
    /// workload, whatever the shard layout.
    pub fn canonical_prompts(&self) -> Vec<String> {
        let mut texts: Vec<String> = self
            .shards
            .iter()
            .flat_map(|shard| {
                self.lock_shard(shard)
                    .entries
                    .keys()
                    .map(|text| text.to_string())
                    .collect::<Vec<_>>()
            })
            .collect();
        texts.sort();
        texts
    }

    /// Number of completions currently held across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| self.lock_shard(shard).entries.len())
            .sum()
    }

    /// Whether the cache holds no completions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries (statistics are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            self.lock_shard(shard).clear_entries();
        }
    }
}

impl LanguageModel for PromptCache<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        let canonical = CanonicalPrompt::canonicalize(prompt, self.level);
        let completion = self.complete_canonical(&canonical)?;
        // A v2 fold that reordered this request replays the canonical
        // completion permutation-corrected into the request's own element
        // order (identity-ordered requests — every canonical prompt, so
        // the whole warm fast path — skip this branch entirely).
        Ok(match canonical.replay() {
            None => completion,
            Some(fold) => Arc::new(fold.adapt(&completion)),
        })
    }

    fn usage(&self) -> Usage {
        // Tokens the inner model actually processed; cache hits do not
        // appear here. Per-run attribution happens in `UniDm::run`.
        self.inner.usage()
    }

    fn reset_usage(&self) {
        self.inner.reset_usage();
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
}

impl PromptCache<'_> {
    /// Completes the canonical text of `canonical` through the tiered
    /// cache: tier-0 hit, single-flight coalescing, disk-tier probe, and
    /// finally the model. The memoized entry is always the canonical
    /// completion — replay adaptation happens in
    /// [`LanguageModel::complete`] above, outside every lock.
    fn complete_canonical(
        &self,
        canonical: &CanonicalPrompt<'_>,
    ) -> Result<Arc<Completion>, LlmError> {
        let shard = self.shard_for_hash(canonical.hash64());
        let text = canonical.text();
        if !self.single_flight {
            // Coalescing disabled (the layer below — a pipelined
            // dispatcher — handles it): hit or straight to the model, no
            // in-flight slot a registered worker could block on.
            {
                let mut state = self.lock_shard(shard);
                if let Some(entry) = state.entries.get_mut(text) {
                    entry.referenced = true;
                    let completion = entry.completion.clone();
                    state.stats.hits += 1;
                    state.stats.tokens_saved += completion.usage.total();
                    return Ok(completion);
                }
                state.stats.misses += 1;
            }
            let result = self.fetch_below(text);
            if let Ok(completion) = &result {
                let mut state = self.lock_shard(shard);
                state.insert(text, completion.clone(), self.shard_capacity);
            }
            return result;
        }
        let slot = loop {
            // One locked section decides hit / coalesce / lead; everything
            // slow (waiting, completing) happens outside it.
            let waiting = {
                let mut state = self.lock_shard(shard);
                if let Some(entry) = state.entries.get_mut(text) {
                    entry.referenced = true;
                    let completion = entry.completion.clone();
                    state.stats.hits += 1;
                    state.stats.tokens_saved += completion.usage.total();
                    return Ok(completion);
                }
                match state.inflight.get(text) {
                    Some(slot) => {
                        let slot = slot.clone();
                        state.stats.coalesced += 1;
                        slot
                    }
                    None => {
                        let slot = InFlight::new();
                        state.inflight.insert(text.into(), slot.clone());
                        state.stats.misses += 1;
                        break slot;
                    }
                }
            };
            match waiting.wait() {
                Some(Ok(completion)) => {
                    // The leader's endpoint call covered this lookup too:
                    // account the share like a hit's saving.
                    self.lock_shard(shard).stats.tokens_saved += completion.usage.total();
                    return Ok(completion);
                }
                Some(Err(e)) => return Err(e),
                // Leader panicked before publishing: retry the lookup (one
                // of the waiters becomes the new leader).
                None => continue,
            }
        };
        // Leader: complete the canonical text without holding any lock —
        // concurrent workers on *other* keys must not serialize on the
        // model. The guard un-wedges waiters if this unwinds.
        let mut guard = LeaderGuard {
            shard,
            slot: &slot,
            text,
            armed: true,
        };
        let result = self.fetch_below(text);
        {
            let mut state = self.lock_shard(shard);
            if let Ok(completion) = &result {
                state.insert(text, completion.clone(), self.shard_capacity);
            }
            // Errors are not memoized: clearing the slot lets the next
            // lookup retry the model.
            state.inflight.remove(text);
        }
        guard.armed = false;
        slot.fill(result.clone());
        result
    }
}

/// What the pre-dispatch planner and the work-stealing pool did for one
/// batch, alongside the per-task results.
#[derive(Debug)]
pub struct BatchReport {
    /// One result per task, in task order — bit-for-bit identical to a
    /// serial loop over [`UniDm::run`].
    pub results: Vec<Result<RunOutput, UniDmError>>,
    /// Distinct task groups the planner found (each executed exactly
    /// once).
    pub unique_tasks: usize,
    /// Tasks that duplicated an earlier task byte-for-byte and received a
    /// copy of its representative's output instead of executing.
    pub coalesced_tasks: usize,
    /// Range-steal operations the work-stealing scheduler performed
    /// (0 in serial runs; timing-dependent under parallelism).
    pub steals: usize,
}

/// What [`BatchRunner::run_streaming`] planned and executed across all
/// partitions. The dedup counters are exact-equal to the
/// [`BatchReport`] counters [`BatchRunner::run_report`] would produce for
/// the same task sequence, whatever the partition size — duplicates are
/// coalesced across partition boundaries through a global memo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamReport {
    /// Total tasks consumed from the source.
    pub tasks: usize,
    /// Partitions the task stream was split into.
    pub partitions: usize,
    /// Distinct tasks that actually executed (equals
    /// [`BatchReport::unique_tasks`] over the whole sequence).
    pub unique_tasks: usize,
    /// Tasks answered from an earlier identical task's output without
    /// executing (equals [`BatchReport::coalesced_tasks`]).
    pub coalesced_tasks: usize,
    /// Range-steal operations across all partitions (timing-dependent
    /// under parallelism, like [`BatchReport::steals`]).
    pub steals: usize,
}

/// A work-stealing task queue over indices `0..total`: the index space is
/// pre-split into one contiguous range per worker, each packed into an
/// `AtomicU64` as `(cursor, end)`. Owners claim single indices from their
/// own range with a CAS; a worker whose range runs dry steals the upper
/// half of the fattest remaining victim range. Every index is claimed
/// exactly once under any interleaving, so results stay deterministic; the
/// stealing only changes *which worker* executes an index.
struct StealQueue {
    ranges: Vec<AtomicU64>,
    steals: AtomicUsize,
}

#[inline]
fn pack(cursor: u32, end: u32) -> u64 {
    (u64::from(cursor) << 32) | u64::from(end)
}

#[inline]
fn unpack(packed: u64) -> (u32, u32) {
    ((packed >> 32) as u32, packed as u32)
}

impl StealQueue {
    /// Splits `total` indices evenly across `workers` ranges.
    fn new(total: usize, workers: usize) -> StealQueue {
        assert!(total <= u32::MAX as usize, "batch too large for the queue");
        let total = total as u32;
        let workers = workers.max(1) as u32;
        let base = total / workers;
        let extra = total % workers;
        let mut ranges = Vec::with_capacity(workers as usize);
        let mut start = 0u32;
        for w in 0..workers {
            let len = base + u32::from(w < extra);
            ranges.push(AtomicU64::new(pack(start, start + len)));
            start += len;
        }
        StealQueue {
            ranges,
            steals: AtomicUsize::new(0),
        }
    }

    /// Claims the next index for worker `me`: from its own range while one
    /// lasts, then by stealing the upper half of the fattest victim.
    /// `None` means no work was visible anywhere — the caller can exit
    /// (remaining indices, if any, are owned by live workers).
    fn claim(&self, me: usize) -> Option<usize> {
        loop {
            // Drain the worker's own range first: sequential indices keep
            // a worker on one contiguous slice of the batch.
            let own = &self.ranges[me];
            let mut packed = own.load(Ordering::Acquire);
            loop {
                let (cursor, end) = unpack(packed);
                if cursor >= end {
                    break;
                }
                match own.compare_exchange_weak(
                    packed,
                    pack(cursor + 1, end),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Some(cursor as usize),
                    Err(now) => packed = now,
                }
            }
            // Own range dry: pick the victim with the most remaining work.
            let mut best: Option<(usize, u32, u32)> = None;
            for (victim, range) in self.ranges.iter().enumerate() {
                if victim == me {
                    continue;
                }
                let (cursor, end) = unpack(range.load(Ordering::Acquire));
                if cursor < end && best.is_none_or(|(_, c, e)| end - cursor > e - c) {
                    best = Some((victim, cursor, end));
                }
            }
            let (victim, cursor, end) = best?;
            // Steal the upper half [mid, end); the victim keeps [cursor,
            // mid). A failed CAS means the victim's range moved — rescan.
            let mid = cursor + (end - cursor) / 2;
            if self.ranges[victim]
                .compare_exchange(
                    pack(cursor, end),
                    pack(cursor, mid),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                self.steals.fetch_add(1, Ordering::Relaxed);
                self.ranges[me].store(pack(mid, end), Ordering::Release);
            }
        }
    }
}

/// A parallel batch executor for [`UniDm`] runs.
///
/// Before anything executes, a **dedup planner** groups byte-identical
/// tasks: each run is a pure function of `(model, config, lake, task)`, so
/// one representative per group executes and every duplicate slot receives
/// a copy of its output — duplicate tasks cost zero model calls and zero
/// cache lookups. The representatives then fan out across a pool of scoped
/// worker threads sharing one model reference, scheduled by a
/// **work-stealing queue**: each worker owns a contiguous range of the
/// unique tasks and steals half of the fattest remaining range when its
/// own runs dry, so a straggler range cannot serialize the tail of a
/// batch. Results come back in task order, each carrying its own
/// [`RunOutput::usage`] metered per run — never diffed from the model's
/// global counter — so the output is bit-for-bit identical to running the
/// same tasks serially, whatever the interleaving.
///
/// # Examples
///
/// ```
/// use unidm::{BatchRunner, PipelineConfig, Task};
/// use unidm_llm::{LlmProfile, MockLlm};
/// use unidm_tablestore::{DataLake, Table, Value};
/// use unidm_world::World;
///
/// let world = World::generate(42);
/// let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 1);
/// let mut cities = Table::builder("cities").columns(["city", "country", "timezone"]).build();
/// cities.push_row(vec![
///     Value::text("Florence"), Value::text("Italy"), Value::text("Central European Time"),
/// ]).unwrap();
/// cities.push_row(vec![Value::text("Copenhagen"), Value::text("Denmark"), Value::Null]).unwrap();
/// let lake: DataLake = [cities].into_iter().collect();
///
/// let tasks = vec![Task::imputation("cities", 1, "timezone", "city")];
/// let serial = BatchRunner::new(&llm, PipelineConfig::paper_default()).with_workers(1);
/// let parallel = serial.with_workers(4);
/// assert_eq!(
///     serial.answers(&lake, &tasks),
///     parallel.answers(&lake, &tasks),
///     "scheduling must not change answers",
/// );
/// ```
#[derive(Clone, Copy)]
pub struct BatchRunner<'a> {
    llm: &'a dyn LanguageModel,
    config: PipelineConfig,
    workers: usize,
    dedup: bool,
    pipeline: Option<&'a Dispatcher<'a>>,
    partition_tasks: usize,
}

impl std::fmt::Debug for BatchRunner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchRunner")
            .field("llm", &self.llm.name())
            .field("config", &self.config)
            .field("workers", &self.workers)
            .field("dedup", &self.dedup)
            .field("pipelined", &self.pipeline.is_some())
            .field("partition_tasks", &self.partition_tasks)
            .finish()
    }
}

/// Default tasks-per-partition window for [`BatchRunner::run_streaming`].
pub const DEFAULT_PARTITION_TASKS: usize = 256;

/// The worker count new runners start with: the `UNIDM_WORKERS`
/// environment variable when set to a positive integer is authoritative
/// (no cap — an override means the operator knows the machine); otherwise
/// one worker per available CPU, capped at 16 — the pipeline is
/// compute-light, so past that point more threads only add contention on
/// the shared model.
fn default_workers() -> usize {
    std::env::var("UNIDM_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|n| *n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(16)
        })
}

impl<'a> BatchRunner<'a> {
    /// Creates a runner with the self-tuned worker count (`UNIDM_WORKERS`
    /// when set; otherwise one per available CPU, capped at 16) and the
    /// dedup planner enabled.
    pub fn new(llm: &'a dyn LanguageModel, config: PipelineConfig) -> Self {
        BatchRunner {
            llm,
            config,
            workers: default_workers(),
            dedup: true,
            pipeline: None,
            partition_tasks: DEFAULT_PARTITION_TASKS,
        }
    }

    /// Overrides the tasks-per-partition window
    /// [`BatchRunner::run_streaming`] plans and dispatches at a time
    /// (default [`DEFAULT_PARTITION_TASKS`], minimum 1). Smaller windows
    /// lower peak memory; larger windows give each dispatch wave more
    /// parallelism to chew on.
    pub fn with_partition_tasks(mut self, tasks: usize) -> Self {
        self.partition_tasks = tasks.max(1);
        self
    }

    /// The tasks-per-partition window streaming runs use.
    pub fn partition_tasks(&self) -> usize {
        self.partition_tasks
    }

    /// Overrides the worker count (`1` executes serially on the calling
    /// thread).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enables or disables the pre-dispatch dedup planner (enabled by
    /// default). With it off, duplicate tasks execute individually — their
    /// results are still identical, they just pay for their own runs
    /// (modulo prompt-cache hits further down the stack).
    pub fn with_dedup(mut self, dedup: bool) -> Self {
        self.dedup = dedup;
        self
    }

    /// Runs the batch in **pipelined mode** against an event-driven
    /// [`Dispatcher`]: every worker registers with the dispatcher for the
    /// whole batch and claims the next unique task from a shared cursor
    /// the moment its previous one finishes — continuous admission into
    /// the dispatcher's in-flight window instead of whole-batch barriers.
    /// The dedup planner still runs first, so duplicate tasks never reach
    /// the dispatcher at all.
    ///
    /// The `llm` this runner drives must bottom out in `dispatcher` — that
    /// is how worker calls become reactor events. Any [`PromptCache`]
    /// layered between them must have cache-level single-flight disabled
    /// ([`PromptCache::with_single_flight`]): registered workers must
    /// never block outside the dispatcher, and the dispatcher coalesces
    /// duplicate prompts itself.
    pub fn with_pipeline(mut self, dispatcher: &'a Dispatcher<'a>) -> Self {
        self.pipeline = Some(dispatcher);
        self
    }

    /// The dispatcher batches run against in pipelined mode, if any.
    pub fn pipeline(&self) -> Option<&'a Dispatcher<'a>> {
        self.pipeline
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether the pre-dispatch dedup planner is enabled.
    pub fn dedup(&self) -> bool {
        self.dedup
    }

    /// The pipeline configuration the workers run with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs every task over `lake`, returning one result per task in task
    /// order.
    ///
    /// Individual task failures do not abort the batch: each slot carries
    /// its own `Result`, mirroring what a serial loop over
    /// [`UniDm::run`] would collect.
    pub fn run(&self, lake: &DataLake, tasks: &[Task]) -> Vec<Result<RunOutput, UniDmError>> {
        self.run_report(lake, tasks).results
    }

    /// Like [`BatchRunner::run`], but also reports what the planner and
    /// the work-stealing scheduler did.
    pub fn run_report(&self, lake: &DataLake, tasks: &[Task]) -> BatchReport {
        // Pre-dispatch dedup: group byte-identical tasks (`Task: Eq +
        // Hash`) so each group executes exactly once. The plan depends
        // only on the task list, never on scheduling.
        let mut reps: Vec<usize> = Vec::new();
        let mut assign: Vec<usize> = Vec::with_capacity(tasks.len());
        if self.dedup {
            let mut positions: HashMap<&Task, usize> = HashMap::new();
            for (index, task) in tasks.iter().enumerate() {
                match positions.get(task) {
                    Some(&position) => assign.push(position),
                    None => {
                        positions.insert(task, reps.len());
                        assign.push(reps.len());
                        reps.push(index);
                    }
                }
            }
        } else {
            reps = (0..tasks.len()).collect();
            assign = (0..tasks.len()).collect();
        }
        let unique_tasks = reps.len();
        let coalesced_tasks = tasks.len() - unique_tasks;

        let (rep_results, steals) = self.execute_reps(lake, tasks, &reps);

        let results = if coalesced_tasks == 0 {
            rep_results
        } else {
            assign
                .iter()
                .map(|&position| rep_results[position].clone())
                .collect()
        };
        BatchReport {
            results,
            unique_tasks,
            coalesced_tasks,
            steals,
        }
    }

    /// Executes the representative tasks `reps` (indices into `tasks`) on
    /// the configured execution path — serial, pipelined-dispatcher, or
    /// work-stealing pool — returning one result per representative in
    /// representative order plus the steal count. Shared by the
    /// materialized ([`BatchRunner::run_report`]) and streaming
    /// ([`BatchRunner::run_streaming`]) drivers, which is what keeps their
    /// answers byte-identical.
    fn execute_reps(
        &self,
        lake: &DataLake,
        tasks: &[Task],
        reps: &[usize],
    ) -> (Vec<Result<RunOutput, UniDmError>>, usize) {
        let workers = self.workers.min(reps.len());
        if workers <= 1 {
            // Serial runs register too when pipelined: a lone long-lived
            // registration is equivalent to transient registration, and it
            // keeps the two modes symmetrical.
            let _registration = self.pipeline.map(|dispatcher| dispatcher.register());
            let unidm = UniDm::new(self.llm, self.config);
            (
                reps.iter()
                    .map(|&index| unidm.run(lake, &tasks[index]))
                    .collect::<Vec<_>>(),
                0,
            )
        } else if let Some(dispatcher) = self.pipeline {
            // Pipelined mode: no range ownership, no stealing — a single
            // shared cursor hands each worker the next unique task as soon
            // as it finishes the previous one, so a freshly ready task
            // flows into an open in-flight slot while stragglers are still
            // pending. Workers hold dispatcher registrations for the whole
            // batch, so the reactor only advances virtual time when every
            // worker is parked inside it (quiescence).
            let slots: Vec<OnceLock<Result<RunOutput, UniDmError>>> =
                reps.iter().map(|_| OnceLock::new()).collect();
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let cursor = &cursor;
                    let slots = &slots;
                    let reps = &reps;
                    scope.spawn(move || {
                        let _registration = dispatcher.register();
                        let unidm = UniDm::new(self.llm, self.config);
                        loop {
                            let position = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&index) = reps.get(position) else {
                                break;
                            };
                            let result = unidm.run(lake, &tasks[index]);
                            slots[position]
                                .set(result)
                                .expect("slot claimed exactly once");
                        }
                    });
                }
            });
            (
                slots
                    .into_iter()
                    .map(|slot| slot.into_inner().expect("every slot filled"))
                    .collect(),
                0,
            )
        } else {
            let slots: Vec<OnceLock<Result<RunOutput, UniDmError>>> =
                reps.iter().map(|_| OnceLock::new()).collect();
            let queue = StealQueue::new(reps.len(), workers);
            std::thread::scope(|scope| {
                for me in 0..workers {
                    let queue = &queue;
                    let slots = &slots;
                    let reps = &reps;
                    scope.spawn(move || {
                        let unidm = UniDm::new(self.llm, self.config);
                        while let Some(position) = queue.claim(me) {
                            let result = unidm.run(lake, &tasks[reps[position]]);
                            slots[position]
                                .set(result)
                                .expect("slot claimed exactly once");
                        }
                    });
                }
            });
            (
                slots
                    .into_iter()
                    .map(|slot| slot.into_inner().expect("every slot filled"))
                    .collect(),
                queue.steals.load(Ordering::Relaxed),
            )
        }
    }

    /// Runs a task **stream** partition-by-partition under bounded memory
    /// instead of materializing the full task vector: at most
    /// [`BatchRunner::partition_tasks`] tasks are resident at a time, each
    /// window is planned and dispatched on the same execution path as
    /// [`BatchRunner::run_report`] (serial, pipelined dispatcher, or
    /// work-stealing pool), and every result is handed to `sink` with its
    /// global task index, in task order, as soon as its partition
    /// completes.
    ///
    /// With the dedup planner enabled, duplicates are coalesced across
    /// partition boundaries through a memo of each distinct task's output,
    /// so the [`StreamReport`] counters — and every answer — are
    /// exact-equal to what `run_report` would produce for the same
    /// sequence. The memo grows with the number of *distinct* tasks; for
    /// strictly row-count-independent memory over a lake-sized stream,
    /// disable dedup ([`BatchRunner::with_dedup`]) and rely on the prompt
    /// cache below.
    pub fn run_streaming<I, F>(&self, lake: &DataLake, tasks: I, mut sink: F) -> StreamReport
    where
        I: IntoIterator<Item = Task>,
        F: FnMut(usize, Result<RunOutput, UniDmError>),
    {
        enum Plan {
            /// Answered by a previous partition's representative.
            Memo(Arc<Result<RunOutput, UniDmError>>),
            /// Position in this partition's representative list.
            Rep(usize),
        }

        let mut memo: HashMap<Task, Arc<Result<RunOutput, UniDmError>>> = HashMap::new();
        let mut source = tasks.into_iter();
        let mut buffer: Vec<Task> = Vec::with_capacity(self.partition_tasks);
        let mut next_index = 0usize;
        let mut partitions = 0usize;
        let mut unique_tasks = 0usize;
        let mut steals = 0usize;
        loop {
            buffer.clear();
            while buffer.len() < self.partition_tasks {
                match source.next() {
                    Some(task) => buffer.push(task),
                    None => break,
                }
            }
            if buffer.is_empty() {
                break;
            }
            partitions += 1;

            // Per-partition plan: same first-occurrence-is-representative
            // rule as the materialized planner, with the memo extending it
            // across partition boundaries.
            let mut plan: Vec<Plan> = Vec::with_capacity(buffer.len());
            let mut reps: Vec<usize> = Vec::new();
            if self.dedup {
                let mut local: HashMap<&Task, usize> = HashMap::new();
                for (i, task) in buffer.iter().enumerate() {
                    if let Some(cached) = memo.get(task) {
                        plan.push(Plan::Memo(cached.clone()));
                    } else if let Some(&position) = local.get(task) {
                        plan.push(Plan::Rep(position));
                    } else {
                        local.insert(task, reps.len());
                        plan.push(Plan::Rep(reps.len()));
                        reps.push(i);
                    }
                }
            } else {
                reps = (0..buffer.len()).collect();
                plan = (0..buffer.len()).map(Plan::Rep).collect();
            }
            unique_tasks += reps.len();

            let (rep_results, partition_steals) = self.execute_reps(lake, &buffer, &reps);
            steals += partition_steals;
            let rep_results: Vec<Arc<Result<RunOutput, UniDmError>>> =
                rep_results.into_iter().map(Arc::new).collect();
            if self.dedup {
                for (position, &i) in reps.iter().enumerate() {
                    memo.insert(buffer[i].clone(), rep_results[position].clone());
                }
            }

            for slot in plan {
                let result = match slot {
                    Plan::Memo(cached) => (*cached).clone(),
                    Plan::Rep(position) => (*rep_results[position]).clone(),
                };
                sink(next_index, result);
                next_index += 1;
            }
        }
        StreamReport {
            tasks: next_index,
            partitions,
            unique_tasks,
            coalesced_tasks: next_index - unique_tasks,
            steals,
        }
    }

    /// Like [`BatchRunner::run`], but flattens each result to its answer
    /// text (empty string on error) — the shape the accuracy harnesses
    /// consume.
    pub fn answers(&self, lake: &DataLake, tasks: &[Task]) -> Vec<String> {
        self.run(lake, tasks)
            .into_iter()
            .map(|r| r.map(|o| o.answer).unwrap_or_default())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_llm::protocol::SerializedRecord;
    use unidm_llm::{LlmProfile, MockLlm};
    use unidm_synthdata::{imputation, tableqa};
    use unidm_world::World;

    fn setup() -> (World, MockLlm) {
        let world = World::generate(7);
        let llm = MockLlm::new(&world, LlmProfile::gpt4_turbo(), 1);
        (world, llm)
    }

    fn imputation_tasks(ds: &unidm_synthdata::ImputationDataset, n: usize) -> Vec<Task> {
        ds.targets
            .iter()
            .take(n)
            .map(|t| Task::imputation(ds.table.name(), t.row, "city", "name"))
            .collect()
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 30);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let tasks = imputation_tasks(&ds, 30);
        let config = PipelineConfig::paper_default();

        let serial = BatchRunner::new(&llm, config)
            .with_workers(1)
            .run(&lake, &tasks);
        let parallel = BatchRunner::new(&llm, config)
            .with_workers(6)
            .run(&lake, &tasks);

        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            let s = s.as_ref().expect("serial run ok");
            let p = p.as_ref().expect("parallel run ok");
            assert_eq!(s.answer, p.answer);
            assert_eq!(
                s.usage, p.usage,
                "per-run usage must not depend on scheduling"
            );
        }
    }

    #[test]
    fn per_run_usage_ignores_other_runs_on_shared_model() {
        // Run the same task twice against a model whose global counter
        // already moved: metered per-run usage must be identical, proving
        // it is not derived from the global counter.
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 5);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let unidm = UniDm::new(&llm, PipelineConfig::paper_default());
        let task = Task::imputation("restaurants", ds.targets[0].row, "city", "name");
        let first = unidm.run(&lake, &task).unwrap();
        llm.complete("unrelated traffic from another tenant")
            .unwrap();
        let second = unidm.run(&lake, &task).unwrap();
        assert_eq!(first.usage, second.usage);
        assert!(first.usage.total() > 0);
    }

    #[test]
    fn batch_preserves_order_and_isolates_failures() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 6);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let mut tasks = imputation_tasks(&ds, 6);
        // Poison the middle of the batch with a reference to a missing
        // table; its neighbours must still succeed.
        tasks.insert(3, Task::imputation("no_such_table", 0, "a", "b"));
        let results = BatchRunner::new(&llm, PipelineConfig::paper_default())
            .with_workers(4)
            .run(&lake, &tasks);
        assert_eq!(results.len(), 7);
        assert!(matches!(results[3], Err(UniDmError::Table(_))));
        for (i, r) in results.iter().enumerate() {
            if i != 3 {
                assert!(r.is_ok(), "slot {i} should have survived the poisoned slot");
            }
        }
    }

    #[test]
    fn dedup_planner_folds_duplicate_tasks() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 8);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let base = imputation_tasks(&ds, 8);
        // Interleave three copies of the workload: 24 tasks, 8 unique.
        let mut tasks = Vec::new();
        for i in 0..24 {
            tasks.push(base[i % 8].clone());
        }
        let config = PipelineConfig::paper_default();

        // Reference: planner off, serial.
        llm.reset_usage();
        let plain = BatchRunner::new(&llm, config)
            .with_workers(1)
            .with_dedup(false)
            .run(&lake, &tasks);
        let plain_tokens = llm.usage().total();

        llm.reset_usage();
        let report = BatchRunner::new(&llm, config)
            .with_workers(4)
            .run_report(&lake, &tasks);
        let dedup_tokens = llm.usage().total();

        assert_eq!(report.unique_tasks, 8);
        assert_eq!(report.coalesced_tasks, 16);
        assert_eq!(report.results.len(), 24);
        for (a, b) in plain.iter().zip(&report.results) {
            let a = a.as_ref().unwrap();
            let b = b.as_ref().unwrap();
            assert_eq!(a.answer, b.answer, "copied results must be identical");
            assert_eq!(a.usage, b.usage, "copied usage must be identical");
        }
        assert_eq!(
            dedup_tokens * 3,
            plain_tokens,
            "deduped batch pays for each unique task exactly once"
        );
    }

    #[test]
    fn pipelined_batch_matches_serial_and_accounts_exactly() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 20);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let tasks = imputation_tasks(&ds, 20);
        let config = PipelineConfig::paper_default();

        let reference = BatchRunner::new(&llm, config)
            .with_workers(1)
            .answers(&lake, &tasks);

        let backend = crate::BackendConfig::resilient(7)
            .without_breaker()
            .with_pipelined();
        let dispatcher = Dispatcher::new(&llm, backend);
        let cache = PromptCache::unbounded(&dispatcher).with_single_flight(false);
        let report = BatchRunner::new(&cache, config)
            .with_workers(4)
            .with_pipeline(&dispatcher)
            .run_report(&lake, &tasks);
        let answers: Vec<String> = report
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().answer.clone())
            .collect();
        assert_eq!(
            answers, reference,
            "pipelined continuous admission must not change answers"
        );
        assert_eq!(report.steals, 0, "pipelined mode does not range-steal");

        // Exact accounting through the stack: every cache miss became one
        // dispatcher call, and every call either launched a fresh request
        // or coalesced onto a pending/memoized one — nothing double-fires.
        let stats = dispatcher.stats();
        assert_eq!(stats.calls, stats.attempts + stats.dispatch_coalesced);
        assert_eq!(stats.calls as usize, cache.stats().misses);
        assert!(stats.attempts > 0);
        assert_eq!(stats.failures, 0);
    }

    #[test]
    fn cache_without_single_flight_still_hits_and_skips_memoizing_errors() {
        let (_, llm) = setup();
        let cache = PromptCache::unbounded(&llm).with_single_flight(false);
        assert!(!cache.single_flight());
        let a = cache.complete("The quick brown fox").unwrap();
        let b = cache.complete("The quick brown fox").unwrap();
        assert_eq!(a, b, "hit must return the memoized completion verbatim");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(llm.usage(), a.usage, "inner model completed exactly once");
        assert!(cache.complete("  ").is_err());
        assert!(cache.complete("  ").is_err(), "errors are not memoized");
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn runner_defaults_self_tune_from_the_machine() {
        let (_, llm) = setup();
        let runner = BatchRunner::new(&llm, PipelineConfig::paper_default());
        assert_eq!(runner.workers(), default_workers());
        assert!(runner.workers() >= 1);
        assert!(runner.pipeline().is_none());
    }

    #[test]
    fn steal_queue_claims_every_index_exactly_once() {
        for (total, workers) in [(0usize, 3usize), (1, 4), (7, 2), (64, 8), (100, 3)] {
            let queue = StealQueue::new(total, workers);
            let claimed: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
            std::thread::scope(|scope| {
                for me in 0..workers {
                    let queue = &queue;
                    let claimed = &claimed;
                    scope.spawn(move || {
                        while let Some(index) = queue.claim(me) {
                            claimed[index].fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            for (index, count) in claimed.iter().enumerate() {
                assert_eq!(
                    count.load(Ordering::Relaxed),
                    1,
                    "index {index} of {total} over {workers} workers"
                );
            }
        }
    }

    #[test]
    fn cache_hits_repeated_prompts_and_saves_tokens() {
        let (_, llm) = setup();
        let cache = PromptCache::unbounded(&llm);
        let a = cache.complete("The quick brown fox").unwrap();
        assert_eq!(
            cache.stats(),
            CacheStats {
                misses: 1,
                ..CacheStats::default()
            }
        );
        let b = cache.complete("The quick brown fox").unwrap();
        assert_eq!(a, b, "hit must return the memoized completion verbatim");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.tokens_saved, a.usage.total());
        // The inner model processed the prompt exactly once.
        assert_eq!(llm.usage(), a.usage);
    }

    #[test]
    fn disk_tier_serves_cold_process_without_model_calls() {
        use crate::store::{CacheStore, StoreConfig};
        let dir = std::env::temp_dir().join(format!("udm-exec-tier-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.udmstore");
        let _ = std::fs::remove_file(&path);
        let (_, llm) = setup();

        // First process: misses go to the model and are offered to the
        // disk tier (admit-all below capacity).
        let warm = {
            let store = CacheStore::open(&path, llm.name(), StoreConfig::default()).unwrap();
            let cache = PromptCache::unbounded(&llm).with_store(store);
            let a = cache.complete("The quick brown fox").unwrap();
            let b = cache.complete("The quick brown fox").unwrap();
            assert_eq!(a, b);
            let stats = cache.store_stats().unwrap();
            assert_eq!(
                (stats.hits, stats.misses, stats.admitted),
                (0, 1, 1),
                "tier-0 hit must not touch the store"
            );
            a
        };
        let calls_after_first = llm.usage();

        // Second process (fresh tier 0, same file): the disk tier answers
        // and the model is never called.
        let store = CacheStore::open(&path, llm.name(), StoreConfig::default()).unwrap();
        let cache = PromptCache::unbounded(&llm).with_store(store);
        let replay = cache.complete("The quick brown fox").unwrap();
        assert_eq!(replay.text, warm.text);
        assert_eq!(replay.usage, warm.usage, "disk hit replays original usage");
        assert_eq!(
            llm.usage(),
            calls_after_first,
            "warm replay from disk uses zero model calls"
        );
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 1),
            "a disk hit is a tier-0 miss: CacheStats stays tier-0-exact"
        );
        assert_eq!(cache.store_stats().unwrap().hits, 1);
        // The disk hit populated tier 0: the next lookup is a warm hit.
        let again = cache.complete("The quick brown fox").unwrap();
        assert_eq!(again, replay);
        assert_eq!(cache.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let (_, llm) = setup();
        // One shard so the LRU policy is global and observable.
        let cache = PromptCache::new(&llm, 2).with_shards(1);
        cache.complete("prompt one").unwrap();
        cache.complete("prompt two").unwrap();
        // Touch "prompt one" so "prompt two" becomes the LRU victim.
        cache.complete("prompt one").unwrap();
        cache.complete("prompt three").unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // "one" and "three" hit; "two" was evicted and misses again.
        let before = cache.stats();
        cache.complete("prompt one").unwrap();
        cache.complete("prompt three").unwrap();
        cache.complete("prompt two").unwrap();
        let after = cache.stats();
        assert_eq!(after.hits - before.hits, 2);
        assert_eq!(after.misses - before.misses, 1);
    }

    #[test]
    fn eviction_is_second_chance_exact_and_deterministic() {
        let (_, llm) = setup();
        // One shard, capacity 4: the clock hand's sweep is observable.
        let cache = PromptCache::new(&llm, 4).with_shards(1);
        for p in ["alpha", "beta", "gamma", "delta"] {
            cache.complete(p).unwrap();
        }
        // Touch alpha: its reference bit buys one revolution of survival.
        cache.complete("alpha").unwrap();
        cache.complete("epsilon").unwrap();
        // Hand: alpha referenced (bit spent), beta unreferenced -> victim.
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(
            cache.canonical_prompts(),
            vec!["alpha", "delta", "epsilon", "gamma"],
            "beta is the second-chance victim"
        );
        // Touch gamma, insert another: hand clears gamma, claims delta.
        cache.complete("gamma").unwrap();
        cache.complete("zeta").unwrap();
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(
            cache.canonical_prompts(),
            vec!["alpha", "epsilon", "gamma", "zeta"],
            "delta is the next victim; referenced gamma survives"
        );

        // Exactness under a distinct-key scan: one eviction per insert
        // beyond capacity, the occupancy pinned at capacity — however
        // long the scan runs (the hand is O(1) amortized per miss).
        let scan = PromptCache::new(&llm, 4).with_shards(1);
        for i in 0..100 {
            scan.complete(&format!("scan key {i}")).unwrap();
        }
        assert_eq!(scan.len(), 4);
        assert_eq!(scan.stats().evictions, 96, "exactly inserts - capacity");

        // Determinism: the victim sequence is a pure function of the
        // operation order.
        let replay = || {
            let cache = PromptCache::new(&llm, 4).with_shards(1);
            for i in 0..40 {
                cache.complete(&format!("det key {}", i % 11)).unwrap();
                if i % 3 == 0 {
                    cache
                        .complete(&format!("det key {}", (i + 1) % 11))
                        .unwrap();
                }
            }
            (cache.canonical_prompts(), cache.stats().evictions)
        };
        assert_eq!(replay(), replay(), "same ops, same survivors");
    }

    #[test]
    fn cache_propagates_model_errors() {
        let (_, llm) = setup();
        let cache = PromptCache::unbounded(&llm);
        assert!(cache.complete("  ").is_err());
        assert_eq!(cache.len(), 0, "errors must not be memoized");
        // The in-flight slot is cleared, so a retry reaches the model
        // again rather than deadlocking or caching the error.
        assert!(cache.complete("  ").is_err());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn sharded_cache_distributes_entries_and_aggregates_stats() {
        let (_, llm) = setup();
        let cache = PromptCache::unbounded(&llm).with_shards(4);
        assert_eq!(cache.shards(), 4);
        for i in 0..32 {
            cache
                .complete(&format!("distinct prompt number {i}"))
                .unwrap();
        }
        for i in 0..32 {
            cache
                .complete(&format!("distinct prompt number {i}"))
                .unwrap();
        }
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert!(
            per_shard.iter().filter(|s| s.misses > 0).count() >= 2,
            "32 distinct prompts should spread over several shards: {per_shard:?}"
        );
        let mut folded = CacheStats::default();
        for s in &per_shard {
            folded.merge(*s);
        }
        assert_eq!(folded, cache.stats(), "aggregate must equal shard sum");
        assert_eq!((folded.hits, folded.misses), (32, 32));
        assert_eq!(cache.len(), 32);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let (_, llm) = setup();
        assert_eq!(PromptCache::unbounded(&llm).with_shards(3).shards(), 4);
        assert_eq!(PromptCache::unbounded(&llm).with_shards(1).shards(), 1);
        assert_eq!(PromptCache::unbounded(&llm).with_shards(0).shards(), 1);
        // The startup default honors UNIDM_SHARDS (the CI matrix sets it).
        assert_eq!(PromptCache::unbounded(&llm).shards(), default_shards());
        assert!(default_shards().is_power_of_two());
    }

    #[test]
    fn rebuilding_shards_keeps_entries() {
        let (_, llm) = setup();
        let cache = PromptCache::unbounded(&llm);
        cache.complete("alpha").unwrap();
        cache.complete("beta").unwrap();
        cache.complete("alpha").unwrap();
        let stats_before = cache.stats();
        let cache = cache
            .with_shards(2)
            .with_canonicalization(CanonLevel::Whitespace);
        assert_eq!(cache.len(), 2, "entries survive reconfiguration");
        assert_eq!(
            cache.stats(),
            stats_before,
            "statistics survive reconfiguration"
        );
        let before = llm.usage();
        cache.complete("alpha").unwrap();
        assert_eq!(llm.usage(), before, "re-keyed entry still hits");
    }

    #[test]
    fn canonicalized_cache_folds_whitespace_variants() {
        let (_, llm) = setup();
        let cache = PromptCache::unbounded(&llm).with_canonicalization(CanonLevel::Whitespace);
        let a = cache.complete("The quick  brown fox").unwrap();
        let b = cache.complete(" The quick brown fox ").unwrap();
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cached_batch_same_answers_fewer_model_tokens() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 25);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let tasks = imputation_tasks(&ds, 25);
        let config = PipelineConfig::paper_default();

        llm.reset_usage();
        let plain = BatchRunner::new(&llm, config)
            .with_workers(4)
            .run(&lake, &tasks);
        let plain_tokens = llm.usage().total();

        llm.reset_usage();
        let cache = PromptCache::unbounded(&llm);
        let cached = BatchRunner::new(&cache, config)
            .with_workers(4)
            .run(&lake, &tasks);
        let cached_tokens = llm.usage().total();

        for (a, b) in plain.iter().zip(&cached) {
            assert_eq!(a.as_ref().unwrap().answer, b.as_ref().unwrap().answer);
        }
        let stats = cache.stats();
        assert!(
            stats.hits + stats.coalesced > 0,
            "tasks on one table must share prompts"
        );
        assert!(
            cached_tokens < plain_tokens,
            "cache should save model tokens: {cached_tokens} vs {plain_tokens}"
        );
    }

    #[test]
    fn concurrency_smoke_all_task_kinds_share_one_model() {
        let (world, llm) = setup();
        let imp = imputation::restaurant(&world, 3, 4);
        let qa = tableqa::medals(&world, 3, 8, 3);
        let docs = unidm_synthdata::extraction::nba_players(&world, 3);
        let lake: DataLake = [imp.table.clone(), qa.table.clone()].into_iter().collect();

        let rec = |pairs: &[(&str, &str)]| {
            SerializedRecord::new(
                pairs
                    .iter()
                    .map(|(a, v)| ((*a).to_string(), (*v).to_string()))
                    .collect(),
            )
        };
        let mut tasks = vec![
            Task::Transformation {
                examples: vec![
                    ("20000101".into(), "2000-01-01".into()),
                    ("19991231".into(), "1999-12-31".into()),
                ],
                input: "20210315".into(),
            },
            Task::ErrorDetection {
                table: "restaurants".into(),
                row: 0,
                attr: "city".into(),
            },
            Task::EntityResolution {
                a: rec(&[("name", "Blue Bottle"), ("city", "Oakland")]),
                b: rec(&[("name", "Blue Bottle Coffee"), ("city", "Oakland")]),
                pool: vec![(
                    rec(&[("name", "Ritual")]),
                    rec(&[("name", "Ritual Coffee")]),
                    true,
                )],
            },
            Task::JoinDiscovery {
                left_name: "fifa_ranking.country_abrv".into(),
                left_values: vec!["GER".into(), "ITA".into(), "FRA".into()],
                right_name: "countries.ISO".into(),
                right_values: vec!["GER".into(), "ITA".into(), "IND".into()],
            },
            Task::Extraction {
                document: docs.docs[0].text.clone(),
                attr: "height".into(),
            },
            Task::TableQa {
                table: "medals".into(),
                question: qa.questions[0].question.clone(),
            },
        ];
        tasks.extend(imputation_tasks(&imp, 4));

        let cache = PromptCache::new(&llm, 256);
        let runner = BatchRunner::new(&cache, PipelineConfig::paper_default()).with_workers(7);
        let serial = runner.with_workers(1).run(&lake, &tasks);
        let parallel = runner.run(&lake, &tasks);
        for (kind, (s, p)) in tasks
            .iter()
            .map(Task::kind)
            .zip(serial.iter().zip(&parallel))
        {
            let s = s
                .as_ref()
                .unwrap_or_else(|e| panic!("{kind:?} serial failed: {e}"));
            let p = p
                .as_ref()
                .unwrap_or_else(|e| panic!("{kind:?} parallel failed: {e}"));
            assert_eq!(
                s.answer, p.answer,
                "{kind:?} answer must not depend on scheduling"
            );
            assert_eq!(
                s.usage, p.usage,
                "{kind:?} usage must not depend on scheduling"
            );
        }
    }
}
