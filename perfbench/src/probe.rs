//! Probes at the two model boundaries, and the gap rule that turns their
//! spans into per-layer self times.
//!
//! A [`Probe`] is a pass-through [`LanguageModel`]. The benchmark puts one
//! *above* the `PromptCache` (what the pipeline calls) and one *below* it
//! (what reaches `MockLlm`), so nothing inside the program is
//! instrumented. Every probe counts calls and tokens. In a traced run it
//! also records one [`Span`] per call into a [`Recorder`]; in the exec
//! pass it keeps each worker thread's first and last call instants
//! instead, which is how the batch runner's idle share is measured from
//! outside.
//!
//! Bookkeeping (copying the prompt, taking the log lock) happens after a
//! span's end and is timed separately, so it is charged to no layer: it
//! shows up as the gap between the self-time sum and the busy time.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use unidm_llm::protocol::{parse_pcq, parse_pdp, parse_pri, parse_prm};
use unidm_llm::{Completion, LanguageModel, LatencyProfile, LlmError, Usage};

/// Task id of a span recorded outside any benchmark-driven task.
pub const NO_TASK: u32 = u32::MAX;

thread_local! {
    /// The task the current thread is running (set by [`Recorder::task`]).
    static TASK: Cell<u32> = const { Cell::new(NO_TASK) };
    /// Id of the above-cache span open on this thread (0 when none).
    static OPEN_ABOVE: Cell<u32> = const { Cell::new(0) };
}

/// Which model boundary a probe sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Between the pipeline and the prompt cache.
    Above,
    /// Between the prompt cache and the model.
    Below,
}

impl Boundary {
    /// The span name written to the span log.
    pub fn span_name(self) -> &'static str {
        match self {
            Boundary::Above => "cache.complete",
            Boundary::Below => "model.complete",
        }
    }
}

/// The five prompt families of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Meta-wise retrieval (`p_rm`).
    Prm,
    /// Instance-wise retrieval (`p_ri`).
    Pri,
    /// Context data parsing (`p_dp`).
    Pdp,
    /// Cloze-question construction (`p_cq`).
    Pcq,
    /// The final target prompt.
    Answer,
}

impl Family {
    /// Every family, in pipeline order.
    pub const ALL: [Family; 5] = [
        Family::Prm,
        Family::Pri,
        Family::Pdp,
        Family::Pcq,
        Family::Answer,
    ];

    /// The family's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Family::Prm => "p_rm",
            Family::Pri => "p_ri",
            Family::Pdp => "p_dp",
            Family::Pcq => "p_cq",
            Family::Answer => "answer",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Classifies a prompt with the protocol's public parsers. Anything that
/// is none of the four structured prompts is the final target prompt.
pub fn classify(prompt: &str) -> Family {
    if parse_prm(prompt).is_some() {
        Family::Prm
    } else if parse_pri(prompt).is_some() {
        Family::Pri
    } else if parse_pdp(prompt).is_some() {
        Family::Pdp
    } else if parse_pcq(prompt).is_some() {
        Family::Pcq
    } else {
        Family::Answer
    }
}

/// The pipeline stages self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `retrieval::meta_wise`.
    MetaWise,
    /// `retrieval::instance_wise`.
    InstanceWise,
    /// `parsing`.
    Parsing,
    /// `prompting` (cloze construction, the answer call and what follows
    /// it).
    Prompting,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 4] = [
        Stage::MetaWise,
        Stage::InstanceWise,
        Stage::Parsing,
        Stage::Prompting,
    ];

    /// The stage's metric name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Stage::MetaWise => "retrieval.meta_wise",
            Stage::InstanceWise => "retrieval.instance_wise",
            Stage::Parsing => "parsing",
            Stage::Prompting => "prompting",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The gap rule: the interval before a call is charged to the stage that
/// sends that call's prompt family.
pub fn stage_of(family: Family) -> Stage {
    match family {
        Family::Prm => Stage::MetaWise,
        Family::Pri => Stage::InstanceWise,
        Family::Pdp => Stage::Parsing,
        Family::Pcq | Family::Answer => Stage::Prompting,
    }
}

/// One call across a model boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u32,
    /// The enclosing above-cache span for a below-cache call (0: none).
    pub parent: u32,
    /// The benchmark task that made the call ([`NO_TASK`] outside one).
    pub task: u32,
    /// The pass of the iteration the call belongs to.
    pub pass: u32,
    /// Which boundary recorded it.
    pub boundary: Boundary,
    /// Call start, ns since the recorder's origin.
    pub start_ns: u64,
    /// Call end.
    pub end_ns: u64,
    /// End of the probe's own bookkeeping after the call.
    pub book_end_ns: u64,
    /// Tokens of the completion (0 on error).
    pub tokens: u64,
    /// The prompt, classified after the run.
    pub prompt: String,
}

/// One benchmark-driven `UniDm::run`.
#[derive(Debug, Clone, Copy)]
pub struct TaskSpan {
    /// Task id.
    pub task: u32,
    /// Pass of the iteration.
    pub pass: u32,
    /// Run start, ns since the recorder's origin.
    pub start_ns: u64,
    /// Run end.
    pub end_ns: u64,
}

/// In-memory span log shared by the probes of one traced iteration.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU32,
    pass: AtomicU32,
    spans: Mutex<Vec<Span>>,
    tasks: Mutex<Vec<TaskSpan>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            pass: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            tasks: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Marks the start of pass `pass`; later spans carry it.
    pub fn set_pass(&self, pass: u32) {
        self.pass.store(pass, Ordering::SeqCst);
    }

    /// Runs `work` as task `task` on this thread, recording its span.
    pub fn task<T>(&self, task: u32, work: impl FnOnce() -> T) -> T {
        TASK.with(|t| t.set(task));
        let start_ns = self.now_ns();
        let out = work();
        let end_ns = self.now_ns();
        TASK.with(|t| t.set(NO_TASK));
        self.tasks
            .lock()
            .expect("task log lock poisoned")
            .push(TaskSpan {
                task,
                pass: self.pass.load(Ordering::SeqCst),
                start_ns,
                end_ns,
            });
        out
    }

    /// The spans and task spans recorded so far.
    pub fn take(&self) -> (Vec<Span>, Vec<TaskSpan>) {
        let spans = std::mem::take(&mut *self.spans.lock().expect("span log lock poisoned"));
        let tasks = std::mem::take(&mut *self.tasks.lock().expect("task log lock poisoned"));
        (spans, tasks)
    }
}

/// What a probe records beyond its call and token counters.
#[derive(Debug)]
pub enum Record<'a> {
    /// Counters only (untraced runs).
    Count,
    /// Per-thread first-call start and last-call end, ns since `origin`.
    Windows {
        /// Time origin of the windows.
        origin: Instant,
        /// Thread → (first start, last end).
        windows: Mutex<HashMap<ThreadId, (u64, u64)>>,
    },
    /// One span per call into a shared log.
    Spans(&'a Recorder),
}

impl<'a> Record<'a> {
    /// Spans into `recorder` when there is one, counters otherwise.
    pub fn spans_or_count(recorder: Option<&'a Recorder>) -> Self {
        match recorder {
            Some(recorder) => Record::Spans(recorder),
            None => Record::Count,
        }
    }

    /// A fresh per-thread window log.
    pub fn windows() -> Self {
        Record::Windows {
            origin: Instant::now(),
            windows: Mutex::new(HashMap::new()),
        }
    }
}

/// A pass-through model that counts, and optionally records, every call.
pub struct Probe<'a> {
    inner: &'a dyn LanguageModel,
    boundary: Boundary,
    record: Record<'a>,
    calls: AtomicU64,
    tokens: AtomicU64,
}

impl<'a> Probe<'a> {
    /// Wraps `inner` at `boundary`.
    pub fn new(inner: &'a dyn LanguageModel, boundary: Boundary, record: Record<'a>) -> Self {
        Probe {
            inner,
            boundary,
            record,
            calls: AtomicU64::new(0),
            tokens: AtomicU64::new(0),
        }
    }

    /// Calls forwarded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Tokens (prompt plus completion) of the completions returned so far.
    pub fn tokens(&self) -> u64 {
        self.tokens.load(Ordering::Relaxed)
    }

    /// Sum over threads of (last call end − first call start), ns: the
    /// time each worker was between its first and its last call. 0 unless
    /// the probe records [`Record::Windows`].
    pub fn window_busy_ns(&self) -> u64 {
        match &self.record {
            Record::Windows { windows, .. } => windows
                .lock()
                .expect("window lock poisoned")
                .values()
                .map(|&(first, last)| last - first)
                .sum(),
            _ => 0,
        }
    }

    fn count(&self, result: &Result<Arc<Completion>, LlmError>) -> u64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let tokens = result.as_ref().map(|c| c.usage.total() as u64).unwrap_or(0);
        self.tokens.fetch_add(tokens, Ordering::Relaxed);
        tokens
    }
}

impl LanguageModel for Probe<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        match &self.record {
            Record::Count => {
                let result = self.inner.complete(prompt);
                self.count(&result);
                result
            }
            Record::Windows { origin, windows } => {
                let start = origin.elapsed().as_nanos() as u64;
                let result = self.inner.complete(prompt);
                let end = origin.elapsed().as_nanos() as u64;
                self.count(&result);
                let mut windows = windows.lock().expect("window lock poisoned");
                let window = windows
                    .entry(std::thread::current().id())
                    .or_insert((start, end));
                window.0 = window.0.min(start);
                window.1 = window.1.max(end);
                result
            }
            Record::Spans(recorder) => {
                let id = recorder.next_id.fetch_add(1, Ordering::Relaxed);
                let (parent, outer) = match self.boundary {
                    Boundary::Above => (0, OPEN_ABOVE.with(|open| open.replace(id))),
                    Boundary::Below => (OPEN_ABOVE.with(Cell::get), 0),
                };
                let start_ns = recorder.now_ns();
                let result = self.inner.complete(prompt);
                let end_ns = recorder.now_ns();
                if self.boundary == Boundary::Above {
                    OPEN_ABOVE.with(|open| open.set(outer));
                }
                let tokens = self.count(&result);
                let span = Span {
                    id,
                    parent,
                    task: TASK.with(Cell::get),
                    pass: recorder.pass.load(Ordering::SeqCst),
                    boundary: self.boundary,
                    start_ns,
                    end_ns,
                    book_end_ns: end_ns,
                    tokens,
                    prompt: prompt.to_owned(),
                };
                let mut spans = recorder.spans.lock().expect("span log lock poisoned");
                spans.push(span);
                let last = spans.len() - 1;
                spans[last].book_end_ns = recorder.now_ns();
                result
            }
        }
    }

    fn usage(&self) -> Usage {
        self.inner.usage()
    }

    fn reset_usage(&self) {
        self.inner.reset_usage();
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn latency_profile(&self) -> LatencyProfile {
        self.inner.latency_profile()
    }
}

/// Per-layer totals of one traced iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// Self time per [`Stage`], ns.
    pub stage_ns: [u64; 4],
    /// Time inside the cache minus the time inside the model below it.
    pub cache_self_ns: u64,
    /// Cache self time during pass 0 (the pass that probes the disk tier).
    pub first_pass_cache_self_ns: u64,
    /// Time inside the model.
    pub model_self_ns: u64,
    /// Model calls, tokens and self time per [`Family`].
    pub family_calls: [u64; 5],
    /// Tokens per family.
    pub family_tokens: [u64; 5],
    /// Model self time per family, ns.
    pub family_ns: [u64; 5],
    /// Sum of task run durations, ns.
    pub busy_ns: u64,
    /// Probe bookkeeping time (charged to no layer), ns.
    pub overhead_ns: u64,
}

impl Layers {
    /// The sum of every layer's self time, ns.
    pub fn self_sum_ns(&self) -> u64 {
        self.stage_ns.iter().sum::<u64>() + self.cache_self_ns + self.model_self_ns
    }

    /// Self time of `stage`, ns.
    pub fn stage(&self, stage: Stage) -> u64 {
        self.stage_ns[stage.index()]
    }
}

/// Attributes the spans of one traced iteration to layers.
///
/// Within a task, the interval from the previous boundary event (the
/// task's start, or the end of the previous above-cache call's
/// bookkeeping) to an above-cache call is charged to the stage that
/// sends that call's family ([`stage_of`]). The tail after the last
/// call goes to `prompting`, which assembles the run's output. Model
/// self time is the duration of below-cache spans; cache self time is
/// each above-cache span minus the below-cache spans nested in it.
pub fn attribute(spans: &[Span], tasks: &[TaskSpan]) -> Layers {
    let mut layers = Layers::default();
    let mut nested_ns: HashMap<u32, u64> = HashMap::new();
    let mut by_task: HashMap<u32, Vec<(&Span, Family)>> = HashMap::new();
    for span in spans {
        let family = classify(&span.prompt);
        layers.overhead_ns += span.book_end_ns - span.end_ns;
        match span.boundary {
            Boundary::Below => {
                let ns = span.end_ns - span.start_ns;
                layers.model_self_ns += ns;
                layers.family_calls[family.index()] += 1;
                layers.family_tokens[family.index()] += span.tokens;
                layers.family_ns[family.index()] += ns;
                if span.parent != 0 {
                    *nested_ns.entry(span.parent).or_default() += span.book_end_ns - span.start_ns;
                }
            }
            Boundary::Above => by_task.entry(span.task).or_default().push((span, family)),
        }
    }
    for calls in by_task.values_mut() {
        calls.sort_by_key(|(span, _)| span.start_ns);
        for (span, _) in calls.iter() {
            let own = (span.end_ns - span.start_ns)
                .saturating_sub(nested_ns.get(&span.id).copied().unwrap_or(0));
            layers.cache_self_ns += own;
            if span.pass == 0 {
                layers.first_pass_cache_self_ns += own;
            }
        }
    }
    for task in tasks {
        layers.busy_ns += task.end_ns - task.start_ns;
        let mut previous = task.start_ns;
        for (span, family) in by_task.get(&task.task).map(Vec::as_slice).unwrap_or(&[]) {
            layers.stage_ns[stage_of(*family).index()] += span.start_ns.saturating_sub(previous);
            previous = span.book_end_ns;
        }
        layers.stage_ns[Stage::Prompting.index()] += task.end_ns.saturating_sub(previous);
    }
    layers
}

/// Writes the span log as tab-separated lines: name, id, parent, task,
/// pass, start ns, end ns, family.
pub fn write_spans(
    path: &std::path::Path,
    spans: &[Span],
    tasks: &[TaskSpan],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "name\tid\tparent\ttask\tpass\tstart_ns\tend_ns\tfamily"
    )?;
    for task in tasks {
        writeln!(
            out,
            "unidm.run\t-\t-\t{}\t{}\t{}\t{}\t-",
            task.task, task.pass, task.start_ns, task.end_ns
        )?;
    }
    for span in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            span.boundary.span_name(),
            span.id,
            span.parent,
            span.task,
            span.pass,
            span.start_ns,
            span.end_ns,
            classify(&span.prompt).name()
        )?;
    }
    out.flush()
}
