//! The open-loop `serve-open` workload.
//!
//! The ten-tenant mix of recorded scenario prompt streams arrives on
//! seeded Poisson, bursty and diurnal processes, with moderate faults,
//! through `BackendConfig::resilient` on the virtual clock — the shape the
//! repository's `serving` binary builds. Each iteration runs the mix at
//! every rung of a fixed ladder of rate multipliers; latency and SLO
//! figures are read from the nominal rung, and the highest rung that
//! meets the stated attainment with no growing backlog is the maximum
//! rate.

use std::collections::HashMap;
use std::time::Instant;

use unidm::serve::{ArrivalProcess, EventKind, ServeConfig, ServeReport, ServeSim, TenantSpec};
use unidm::{BackendConfig, BackendStats};
use unidm_eval::streams::{record_streams, PromptStream};
use unidm_llm::{FaultPlan, LlmProfile, MockLlm};
use unidm_world::World;

use crate::probe::{Boundary, Probe, Record, Recorder};
use crate::stats::quantile;
use crate::MODEL_SEED;

/// Concurrent service slots. The nominal mix keeps about 10% of them
/// busy; attainment holds up to about 2.5x nominal (see the README).
const SERVERS: u32 = 16;

/// Per-tenant SLOs cycle through tight, standard and relaxed, µs.
const SLOS_US: [u64; 3] = [300_000, 1_000_000, 5_000_000];

/// Nominal per-tenant rate of tenant `i`, milli-requests per second.
fn nominal_rate_milli(i: usize) -> u64 {
    400 + i as u64 * 150
}

/// The attainment the maximum rate must sustain. Below the saturation
/// knee (about 2.5x nominal) attainment stays near 0.83, capped by the
/// tight-SLO tenants; past it, it falls off steeply.
const TARGET_ATTAINMENT: f64 = 0.78;

/// A rung has a growing backlog when the last request finishes more than
/// this long after the last arrival (the relaxed SLO).
const MAX_DRAIN_US: u64 = 5_000_000;

/// Sizes of the serving workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeScale {
    /// Eval queries recorded per scenario stream.
    pub stream_queries: usize,
    /// Requests each tenant injects per rung.
    pub requests_per_tenant: u32,
    /// Rate multipliers, permille of the nominal rates, ascending; must
    /// contain 1000.
    pub ladder_permille: Vec<u64>,
}

impl ServeScale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        ServeScale {
            stream_queries: 6,
            requests_per_tenant: 600,
            ladder_permille: vec![1000, 2500, 3000, 3500],
        }
    }

    /// A size small enough for unit tests.
    pub fn tiny() -> Self {
        ServeScale {
            stream_queries: 2,
            requests_per_tenant: 12,
            ladder_permille: vec![1000, 3000],
        }
    }
}

/// One rung of one iteration.
#[derive(Debug, Clone)]
pub(crate) struct Rung {
    /// Rate multiplier, permille.
    pub permille: u64,
    /// The simulator's report.
    pub report: ServeReport,
    /// Wall time of `ServeSim::run`.
    pub wall_s: f64,
    /// Calls that reached the model.
    pub model_calls: u64,
    /// Tokens of those calls.
    pub model_tokens: u64,
    /// The backend's counters.
    pub backend: BackendStats,
}

impl Rung {
    /// Offered rate of this rung, requests per virtual second.
    pub fn offered_per_s(&self, tenants: usize) -> f64 {
        let nominal: u64 = (0..tenants).map(nominal_rate_milli).sum();
        nominal as f64 * self.permille as f64 / 1e6
    }

    /// Pooled end-to-end latencies of every request, ms, in trace order.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut arrived: HashMap<(u32, u32), u64> = HashMap::new();
        let mut latencies = Vec::with_capacity(self.report.requests as usize);
        for event in &self.report.trace {
            match event.kind {
                EventKind::Arrival => {
                    arrived.insert((event.tenant, event.seq), event.at_us);
                }
                EventKind::Done { .. } => {
                    let at = arrived[&(event.tenant, event.seq)];
                    latencies.push((event.at_us - at) as f64 / 1e3);
                }
                EventKind::Start => {}
            }
        }
        latencies
    }

    /// SLO attainment; failed requests count as misses.
    pub fn attainment(&self) -> f64 {
        self.report.slo_met as f64 / self.report.requests as f64
    }

    /// Whether the last completion lands within [`MAX_DRAIN_US`] of the
    /// last arrival.
    pub fn backlog_drains(&self) -> bool {
        let last_arrival = self
            .report
            .trace
            .iter()
            .filter(|e| e.kind == EventKind::Arrival)
            .map(|e| e.at_us)
            .max()
            .unwrap_or(0);
        self.report.makespan_us.saturating_sub(last_arrival) <= MAX_DRAIN_US
    }
}

/// The serving workload after set-up.
pub(crate) struct Serve {
    seed: u64,
    fault_seed: u64,
    scale: ServeScale,
    llm: MockLlm,
    streams: Vec<PromptStream>,
}

impl Serve {
    /// Records the tenant mix's prompt streams and builds the model.
    pub fn setup(seed: u64, fault_seed: u64, scale: ServeScale) -> Serve {
        let world = World::generate(seed);
        Serve {
            seed,
            fault_seed,
            llm: MockLlm::new(&world, LlmProfile::gpt3_175b(), MODEL_SEED),
            streams: record_streams(seed, scale.stream_queries),
            scale,
        }
    }

    /// Number of tenants.
    fn tenants(&self) -> usize {
        self.streams.len()
    }

    /// The ladder, permille of nominal.
    pub fn ladder(&self) -> &[u64] {
        &self.scale.ladder_permille
    }

    fn sim(&self, permille: u64, workers: usize) -> ServeSim {
        let mut sim = ServeSim::new(
            ServeConfig::new(self.seed)
                .with_servers(SERVERS)
                .with_workers(workers),
        );
        for (i, stream) in self.streams.iter().enumerate() {
            let arrival = match i % 3 {
                0 => ArrivalProcess::Poisson,
                1 => ArrivalProcess::Bursty {
                    burst: 4 + i as u32,
                },
                _ => ArrivalProcess::Diurnal {
                    period_us: 60_000_000,
                },
            };
            sim = sim.tenant(
                TenantSpec::new(stream.scenario, stream.prompts.clone())
                    .with_arrival(arrival)
                    .with_rate_milli_per_s(nominal_rate_milli(i) * permille / 1000)
                    .with_requests(self.scale.requests_per_tenant)
                    .with_slo_us(SLOS_US[i % SLOS_US.len()]),
            );
        }
        sim
    }

    /// Runs the mix at `permille` of nominal with `workers` replay
    /// workers against a fresh resilient stack over the model.
    pub fn rung(&self, permille: u64, workers: usize, recorder: Option<&Recorder>) -> Rung {
        let below = Probe::new(&self.llm, Boundary::Below, Record::spans_or_count(recorder));
        let backend = BackendConfig::resilient(self.fault_seed)
            .with_faults(FaultPlan::moderate(self.fault_seed));
        let stack = backend.wrap(&below);
        let sim = self.sim(permille, workers);
        let started = Instant::now();
        let report = sim.run(&stack);
        let wall_s = started.elapsed().as_secs_f64();
        Rung {
            permille,
            report,
            wall_s,
            model_calls: below.calls(),
            model_tokens: below.tokens(),
            backend: stack.stats().unwrap_or_default(),
        }
    }

    /// The highest offered rate that meets [`TARGET_ATTAINMENT`] with a
    /// draining backlog, on the ladder's attainment curve taken as linear
    /// between rungs: the crossing of the target between the last rung
    /// that meets it and the next, or the top rung when every rung does.
    /// Interpolating keeps the figure from jumping a whole rung when one
    /// seed lands just either side of the target. 0 when no rung meets it.
    pub fn max_rate_at_slo(&self, rungs: &[Rung]) -> f64 {
        let tenants = self.tenants();
        let meets = |r: &Rung| r.attainment() >= TARGET_ATTAINMENT && r.backlog_drains();
        let mut best = 0.0;
        for (i, rung) in rungs.iter().enumerate() {
            if !meets(rung) {
                continue;
            }
            best = rung.offered_per_s(tenants);
            if let Some(next) = rungs.get(i + 1).filter(|next| !meets(next)) {
                let (a1, a2) = (rung.attainment(), next.attainment());
                if a2 < a1 {
                    let share = ((a1 - TARGET_ATTAINMENT) / (a1 - a2)).clamp(0.0, 1.0);
                    best += share * (next.offered_per_s(tenants) - best);
                }
                break;
            }
        }
        best
    }
}

/// The `p`-quantile of a rung's pooled latencies, ms.
pub(crate) fn latency_quantile(rung: &Rung, p: f64) -> f64 {
    quantile(&rung.latencies_ms(), p).unwrap_or(0.0)
}
