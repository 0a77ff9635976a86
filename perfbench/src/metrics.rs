//! The metric catalogue and the result line.
//!
//! Every run prints every metric of its mode: the end-to-end set when
//! untraced, the per-layer set when traced. [`Report::finish`] refuses a
//! report whose names differ from the catalogue, so a workload cannot
//! silently drop or invent a metric.

use crate::probe::{Family, Stage};

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("model_calls_per_task", "calls/task"),
    ("model_tokens_per_task", "tokens/task"),
    ("accuracy", "share"),
    ("peak_live_mib", "MiB"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics that are not per stage or per prompt family:
/// (name, unit).
const LAYER_FIXED: [(&str, &str); 38] = [
    ("cache.self_ms", "ms"),
    ("cache.lookups", "count"),
    ("cache.t0_hits", "count"),
    ("cache.coalesced", "count"),
    ("cache.served_share", "share"),
    ("store.open_ms", "ms"),
    ("store.disk_pass_self_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.admitted", "count"),
    ("store.rejected", "count"),
    ("model.calls", "count"),
    ("model.tokens", "count"),
    ("model.self_ms", "ms"),
    ("exec.unique_tasks", "count"),
    ("exec.coalesced_tasks", "count"),
    ("exec.steals", "count"),
    ("exec.idle_share", "share"),
    ("exec.stream.partitions", "count"),
    ("exec.stream.coalesced_tasks", "count"),
    ("tablestore.spill_ms", "ms"),
    ("tablestore.open_ms", "ms"),
    ("tablestore.resident_chunks_max", "count"),
    ("backend.attempts", "count"),
    ("backend.retries", "count"),
    ("backend.timeouts", "count"),
    ("backend.rate_limited", "count"),
    ("backend.breaker_trips", "count"),
    ("backend.throttle_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.replay_mismatches", "count"),
    ("serve.slo_attainment", "share"),
    ("serve.max_rate_at_slo", "1/s"),
    ("trace.self_sum_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.coverage", "share"),
    ("trace.tasks_per_s", "1/s"),
    ("trace.untraced_tasks_per_s", "1/s"),
];

/// Every per-layer metric: (name, unit).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Stage::ALL
        .iter()
        .map(|stage| (format!("{}.self_ms", stage.name()), "ms"))
        .collect();
    names.extend(LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)));
    for family in Family::ALL {
        for (what, unit) in [("calls", "count"), ("tokens", "count"), ("self_ms", "ms")] {
            names.push((format!("model.{}.{what}", family.name()), unit));
        }
    }
    names
}

/// The metrics of one run, with its operation counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Operations (tasks or requests) the run attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    values: Vec<(String, f64)>,
}

impl Report {
    /// An empty report.
    pub fn new(attempted: u64, failed: u64) -> Self {
        Report {
            attempted,
            failed,
            values: Vec::new(),
        }
    }

    /// Sets metric `name` (last write wins).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Renders the result line, checking the names against the catalogue
    /// of the mode (`traced` selects the per-layer set).
    pub fn finish(&self, traced: bool) -> Result<String, String> {
        let catalogue: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        if self.attempted == 0 {
            return Err("the run attempted no operation".into());
        }
        let mut fields = Vec::with_capacity(catalogue.len());
        for (name, unit) in &catalogue {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        if let Some((extra, _)) = self
            .values
            .iter()
            .find(|(n, _)| !catalogue.iter().any(|(c, _)| c == n))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}
