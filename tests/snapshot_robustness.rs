//! Robustness of the one-shot v1 snapshot migration
//! ([`CacheStore::import_v1`]), the only code that still reads the retired
//! `.promptcache` text format: corrupt documents must surface a clean
//! [`StoreError`] (never panic) and leave the store untouched, escapes
//! must round-trip into the binary store, and a capacity-bounded store
//! file must stay bounded across repeated scenario runs.

use std::path::{Path, PathBuf};

use unidm::{CacheStore, PromptCache, StoreConfig, StoreError};
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_world::World;

/// The model the fixture was written over.
const MODEL: &str = "GPT-3-175B";

/// A v1 snapshot with three entries, exercising every escape the format
/// defines (`\n`, `\r`, `\\`).
const FIXTURE: &str = "unidm-prompt-cache v1\nmodel GPT-3-175B\nentries 3\n\
                       p alpha prompt\nc alpha answer\nu 3 2\n\
                       p beta prompt\\nwith a second line\nc beta\\r\\nanswer\nu 8 4\n\
                       p gamma prompt with \\\\ escapes\nc gamma \\\\n answer\nu 6 3\n";

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("unidm-v1-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("cache.udmcache")
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// A store at `path` holding the fixture's three entries.
fn populated(path: &Path) -> CacheStore {
    let store = CacheStore::open(path, MODEL, StoreConfig::default()).unwrap();
    assert_eq!(store.import_v1(FIXTURE).unwrap(), 3);
    store
}

/// Asserts that importing `doc` into a populated store fails cleanly and
/// changes nothing: same entries, same file bytes, still serving hits.
fn assert_rejected_and_untouched(tag: &str, doc: &str, expect_format: bool) {
    let path = temp_store(tag);
    let store = populated(&path);
    let prompts_before = store.canonical_prompts();
    let bytes_before = std::fs::read(&path).unwrap();
    let err = store
        .import_v1(doc)
        .expect_err("corrupt snapshot must fail");
    match (&err, expect_format) {
        (StoreError::Format(_), true) | (StoreError::ModelMismatch { .. }, false) => {}
        _ => panic!("unexpected error class for {doc:?}: {err}"),
    }
    // Errors must be printable: callers log them.
    assert!(!err.to_string().is_empty());
    assert_eq!(
        store.canonical_prompts(),
        prompts_before,
        "nothing admitted"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes_before,
        "file untouched"
    );
    assert_eq!(store.get("alpha prompt").unwrap().text, "alpha answer");
    cleanup(&path);
}

#[test]
fn truncation_at_every_line_is_a_clean_error() {
    let lines: Vec<&str> = FIXTURE.lines().collect();
    let path = temp_store("truncate");
    let store = CacheStore::open(&path, MODEL, StoreConfig::default()).unwrap();
    // Every strict prefix that cuts into the document (header alone is
    // also incomplete) must fail cleanly without panicking.
    for keep in 0..lines.len() {
        let truncated = lines[..keep].join("\n");
        let err = store
            .import_v1(&truncated)
            .expect_err("truncated snapshot must fail");
        assert!(
            matches!(err, StoreError::Format(_)),
            "prefix of {keep} lines: {err}"
        );
        assert!(store.is_empty(), "prefix of {keep} lines admitted entries");
    }
    cleanup(&path);
}

#[test]
fn garbled_documents_are_clean_errors_that_leave_the_cache_untouched() {
    let garbled = [
        // Wrong version / header.
        FIXTURE.replacen("v1", "v0", 1),
        FIXTURE.replacen("v1", "v2", 1),
        "not a snapshot at all".to_string(),
        String::new(),
        // Corrupted structure.
        FIXTURE.replacen("entries 3", "entries banana", 1),
        FIXTURE.replacen("entries 3", "entries 99", 1),
        FIXTURE.replacen("\np ", "\nx ", 1),
        FIXTURE.replacen("\nc ", "\nq ", 1),
        FIXTURE.replacen("\nu ", "\nu banana ", 1),
        format!("{FIXTURE}rogue trailing line\n"),
        // Binary noise in the body.
        FIXTURE.replacen("\nc ", "\n\u{0}\u{1}\u{2} ", 1),
    ];
    for doc in &garbled {
        assert_rejected_and_untouched("garbled", doc, true);
    }
}

#[test]
fn wrong_model_snapshot_is_refused_without_side_effects() {
    let foreign = FIXTURE.replacen("GPT-3-175B", "GPT-4-Turbo", 1);
    assert_rejected_and_untouched("foreign", &foreign, false);
}

#[test]
fn undeclared_entry_count_is_rejected_not_partially_admitted() {
    // Declare more entries than the body holds: the parser must reject the
    // document as a whole, admitting none of the (valid) leading entries.
    let path = temp_store("overdeclared");
    let store = CacheStore::open(&path, MODEL, StoreConfig::default()).unwrap();
    let bytes_before = std::fs::read(&path).unwrap();
    let overdeclared = FIXTURE.replacen("entries 3", "entries 4", 1);
    assert!(matches!(
        store.import_v1(&overdeclared),
        Err(StoreError::Format(_))
    ));
    assert!(store.is_empty(), "import must not keep the valid prefix");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes_before,
        "file untouched"
    );
    cleanup(&path);
}

#[test]
fn v1_escapes_round_trip_through_import() {
    let path = temp_store("escapes");
    drop(populated(&path));
    // Reopened from the binary store: the unescaped text survives as is.
    let store = CacheStore::open(&path, MODEL, StoreConfig::default()).unwrap();
    let beta = store.get("beta prompt\nwith a second line").unwrap();
    assert_eq!(beta.text, "beta\r\nanswer");
    assert_eq!(
        (beta.usage.prompt_tokens, beta.usage.completion_tokens),
        (8, 4)
    );
    let gamma = store.get("gamma prompt with \\ escapes").unwrap();
    assert_eq!(
        gamma.text, "gamma \\n answer",
        "an escaped backslash stays literal"
    );
    assert_eq!(store.stats().hits, 2);
    cleanup(&path);
}

#[test]
fn store_file_is_bounded_across_repeated_scenario_runs() {
    // Repeated eval runs must not grow the persisted file without bound:
    // with a capacity configured, the store holds at most that many
    // entries and compaction keeps the file at that size, however much
    // fresh traffic each run adds.
    let path = temp_store("bounded");
    let model = MockLlm::new(&World::generate(7), LlmProfile::gpt3_175b(), 7);
    let config = StoreConfig::default().with_max_entries(20);

    let mut sizes = Vec::new();
    for round in 0..4 {
        let store = CacheStore::open(&path, model.name(), config).unwrap();
        let cache = PromptCache::unbounded(&model).with_store(store.clone());
        for i in 0..15 {
            // Fresh prompts every round: an unbounded store would grow by
            // 15 entries per round.
            cache.complete(&format!("round {round} query {i}")).unwrap();
        }
        store.compact().unwrap();
        assert!(
            store.len() <= 20,
            "round {round}: store holds {} > capacity 20",
            store.len()
        );
        sizes.push(std::fs::metadata(&path).unwrap().len());
    }
    let max = *sizes.iter().max().unwrap();
    let min = *sizes.iter().min().unwrap();
    assert!(
        max <= min * 2,
        "store byte size must plateau, not grow: {sizes:?}"
    );
    let reopened = CacheStore::open(&path, model.name(), config).unwrap();
    assert!(reopened.len() <= 20);
    cleanup(&path);
}
