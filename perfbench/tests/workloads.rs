//! The benchmark's own tests: every workload at a tiny size emits every
//! named metric with its unit, the gap rule maps each prompt family to
//! its stage, the accounting identity holds on a cold and a warm pass,
//! and the lake mix queues exactly one task in `duplicate_every` twice.

use std::path::PathBuf;

use perfbench::lake::{Iteration, Lake, LakeKind, LakeScale, Mode};
use perfbench::metrics::{per_layer, END_TO_END};
use perfbench::mix::lake_mix;
use perfbench::probe::{attribute, classify, stage_of, Boundary, Family, Span, Stage, TaskSpan};
use perfbench::serve::ServeScale;
use perfbench::{run, Settings, Workload};
use unidm_llm::protocol::{
    render_cloze, render_pcq, render_pdp, render_pri, render_prm, Claim, SerializedRecord, TaskKind,
};
use unidm_world::World;

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn tiny(workload: Workload, trace: bool) -> Settings {
    let mut settings = Settings::new(workload, 3, 0.0, trace);
    settings.lake = LakeScale::tiny();
    settings.serve = ServeScale::tiny();
    settings.out_dir = scratch(&format!("run-{}-{trace}", workload.name()));
    settings
}

/// Checks that `line` carries `name` with `unit`, as the result line
/// renders it.
fn assert_metric(line: &str, name: &str, unit: &str) {
    let start = line
        .find(&format!("\"{name}\": {{\"value\": "))
        .unwrap_or_else(|| panic!("{name} missing from {line}"));
    let rest = &line[start..];
    let end = rest.find('}').expect("metric object closes");
    assert!(
        rest[..end].ends_with(&format!("\"unit\": \"{unit}\"")),
        "{name} lacks unit {unit}: {}",
        &rest[..=end]
    );
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let settings = tiny(workload, trace);
            let report =
                run(&settings).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
            let line = report.finish(trace).expect("complete report");
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(report.attempted > 0);
            assert_eq!(report.failed, 0, "{} failed operations", workload.name());
            if trace {
                for (name, unit) in per_layer() {
                    assert_metric(&line, &name, unit);
                }
            } else {
                for (name, unit) in END_TO_END {
                    assert_metric(&line, name, unit);
                    assert!(
                        report.get(name).is_some_and(|v| v > 0.0),
                        "{} reports {name} = {:?}",
                        workload.name(),
                        report.get(name)
                    );
                }
            }
        }
    }
}

#[test]
fn the_gap_rule_maps_each_family_to_its_stage() {
    assert_eq!(stage_of(Family::Prm), Stage::MetaWise);
    assert_eq!(stage_of(Family::Pri), Stage::InstanceWise);
    assert_eq!(stage_of(Family::Pdp), Stage::Parsing);
    assert_eq!(stage_of(Family::Pcq), Stage::Prompting);
    assert_eq!(stage_of(Family::Answer), Stage::Prompting);

    let record = SerializedRecord::new(vec![
        ("city".into(), "Florence".into()),
        ("country".into(), "Italy".into()),
    ]);
    let claim = Claim {
        task: TaskKind::Imputation,
        context: "Florence belongs to the country Italy.".into(),
        query: "Milan belongs to the country ?".into(),
    };
    let prompts = [
        (
            render_prm(TaskKind::Imputation, "Milan, country", &["city".into()]),
            Family::Prm,
        ),
        (
            render_pri(
                TaskKind::Imputation,
                "Milan, country",
                std::slice::from_ref(&record),
            ),
            Family::Pri,
        ),
        (render_pdp(std::slice::from_ref(&record)), Family::Pdp),
        (render_pcq(&claim), Family::Pcq),
        (render_cloze(&claim), Family::Answer),
    ];
    for (prompt, family) in &prompts {
        assert_eq!(classify(prompt), *family, "{prompt}");
    }

    // One task issuing the five families in pipeline order. Gap k before
    // call k is (k + 1) ms; each call takes 10 ms in the cache, of which
    // 4 ms is in the model; bookkeeping takes 1 ms after each call.
    let ms = 1_000_000;
    let mut spans = Vec::new();
    let mut now = 0;
    for (k, (prompt, _)) in prompts.iter().enumerate() {
        now += (k as u64 + 1) * ms;
        let id = 2 * k as u32 + 1;
        spans.push(Span {
            id,
            parent: 0,
            task: 7,
            pass: 0,
            boundary: Boundary::Above,
            start_ns: now,
            end_ns: now + 10 * ms,
            book_end_ns: now + 11 * ms,
            tokens: 0,
            prompt: prompt.clone(),
        });
        spans.push(Span {
            id: id + 1,
            parent: id,
            task: 7,
            pass: 0,
            boundary: Boundary::Below,
            start_ns: now + 3 * ms,
            end_ns: now + 7 * ms,
            book_end_ns: now + 7 * ms,
            tokens: 100,
            prompt: prompt.clone(),
        });
        now += 11 * ms;
    }
    let task = TaskSpan {
        task: 7,
        pass: 0,
        start_ns: 0,
        end_ns: now + 2 * ms,
    };
    let layers = attribute(&spans, &[task]);
    assert_eq!(layers.stage(Stage::MetaWise), ms);
    assert_eq!(layers.stage(Stage::InstanceWise), 2 * ms);
    assert_eq!(layers.stage(Stage::Parsing), 3 * ms);
    // p_cq's gap, the answer's gap and the 2 ms tail.
    assert_eq!(layers.stage(Stage::Prompting), (4 + 5 + 2) * ms);
    assert_eq!(layers.cache_self_ns, 5 * 6 * ms);
    assert_eq!(layers.model_self_ns, 5 * 4 * ms);
    assert_eq!(layers.family_calls, [1; 5]);
    assert_eq!(layers.family_tokens, [100; 5]);
    assert_eq!(layers.overhead_ns, 5 * ms);
    assert_eq!(layers.busy_ns, layers.self_sum_ns() + layers.overhead_ns);
}

fn identity_pass(kind: LakeKind) -> Iteration {
    let dir = scratch(&format!("identity-{kind:?}"));
    let lake = Lake::setup(kind, 5, LakeScale::tiny(), &dir).expect("set-up");
    let it = lake.iterate(Mode::Runner).expect("iteration");
    it.check_identity().expect("identity holds");
    assert!(it.lookups > 0);
    assert_eq!(it.failed, 0);
    let _ = std::fs::remove_dir_all(&dir);
    it
}

#[test]
fn the_accounting_identity_holds_on_a_cold_and_a_warm_pass() {
    let cold = identity_pass(LakeKind::Cold);
    assert_eq!(cold.store.hits, 0, "a fresh store has nothing to hit");
    assert!(cold.model_calls > 0);
    assert_eq!(cold.store.admitted as u64, cold.model_calls);

    let warm = identity_pass(LakeKind::Warm);
    assert!(
        warm.store.hits > 0,
        "the first warm pass is served from disk"
    );
    assert!(
        warm.pass_model_calls[1..].iter().all(|&calls| calls == 0),
        "tier-0 passes reach the model: {:?}",
        warm.pass_model_calls
    );
    assert!(warm.model_calls < cold.model_calls);

    // A miscount anywhere breaks the identity.
    let mut broken = warm.clone();
    broken.model_calls += 1;
    assert!(broken.check_identity().is_err());
}

#[test]
fn the_lake_mix_queues_one_task_in_every_duplicate_every_twice() {
    let size = LakeScale::full().mix;
    for seed in 0..8 {
        let mix = lake_mix(&World::generate(seed), seed, &size);
        let unique = mix.origins.iter().max().expect("a non-empty mix") + 1;
        let mut seen = vec![Vec::new(); unique];
        for (at, &origin) in mix.origins.iter().enumerate() {
            seen[origin].push(at);
        }
        assert!(seen.iter().all(|at| !at.is_empty()), "a task went missing");
        assert!(
            seen.iter().all(|at| at.len() <= 2),
            "seed {seed}: a task was queued 3 times"
        );
        let twice: Vec<usize> = (0..unique).filter(|&o| seen[o].len() == 2).collect();
        assert_eq!(
            twice.len(),
            unique.div_ceil(size.duplicate_every),
            "seed {seed}"
        );
        assert_eq!(mix.tasks.len(), unique + twice.len());
        for origin in twice {
            let (first, second) = (seen[origin][0], seen[origin][1]);
            assert_eq!(mix.tasks[first], mix.tasks[second]);
            assert_eq!(mix.truths[first], mix.truths[second]);
        }
    }
}
