//! The endpoint-policy core every client driver shares: one circuit
//! breaker, one token bucket, one retry backoff, one endpoint and one
//! fault tally.
//!
//! [`crate::backend::ResilientBackend`] (blocking),
//! [`crate::dispatch::Dispatcher`] (reactor) and
//! [`crate::route::RoutedBackend`] (blocking, one breaker and bucket per
//! replica) keep their own locking, clocks and stats, and make every
//! policy decision here. Nothing in this module reads a clock: the state
//! machines take `now_us` and return a decision, which a blocking driver
//! sleeps on and the reactor schedules.

use std::sync::{Arc, Mutex, MutexGuard};

use unidm_llm::{
    AttemptSample, Clock, Dice, FaultPlan, FaultStats, LanguageModel, LlmError, SimBackend,
};

use crate::backend::{BreakerPolicy, RetryPolicy};
use crate::route::AimdPolicy;

/// One micro-token: buckets account in millionths of a token so refill
/// arithmetic is exact integers at any rate.
pub(crate) const TOKEN: u64 = 1_000_000;

/// A circuit breaker: after `failure_threshold` consecutive failures it
/// opens for `cooldown_us`. The first admission after the cooldown is a
/// half-open probe: the failure count is only reset by a success, so one
/// more failure re-opens the breaker at once.
#[derive(Debug)]
pub(crate) struct Breaker {
    policy: BreakerPolicy,
    consecutive_failures: u32,
    /// `Some` while open: the time the cooldown ends.
    open_until_us: Option<u64>,
}

impl Breaker {
    pub(crate) fn new(policy: BreakerPolicy) -> Self {
        Breaker {
            policy,
            consecutive_failures: 0,
            open_until_us: None,
        }
    }

    /// `Ok` to proceed, `Err(remaining cooldown)` to fail fast. An expired
    /// cooldown half-opens the breaker, admitting the caller as a probe.
    pub(crate) fn admit(&mut self, now_us: u64) -> Result<(), u64> {
        match self.open_until_us {
            Some(until) if now_us < until => Err(until - now_us),
            _ => {
                self.open_until_us = None;
                Ok(())
            }
        }
    }

    pub(crate) fn success(&mut self) {
        self.consecutive_failures = 0;
        self.open_until_us = None;
    }

    /// Records a failure; returns whether the breaker tripped
    /// (transitioned to open) on this failure.
    pub(crate) fn failure(&mut self, now_us: u64) -> bool {
        self.consecutive_failures += 1;
        if self.consecutive_failures < self.policy.failure_threshold {
            return false;
        }
        let tripped = self.open_until_us.is_none();
        self.open_until_us = Some(now_us + self.policy.cooldown_us);
        tripped
    }
}

/// A token bucket in integer micro-tokens: `rate_per_sec` tokens drip in
/// per second up to `burst` tokens of headroom.
///
/// A token is taken in one of two ways. [`Bucket::take`] serves blocking
/// drivers: it takes a token now or says how long to sleep before asking
/// again. [`Bucket::grant`] serves the reactor: it always commits a token
/// and returns the time it will have dripped in, pushing the bucket's
/// accounting horizon ahead of `now`; the horizon never rewinds.
#[derive(Debug)]
pub(crate) struct Bucket {
    rate_per_sec: u64,
    burst: u64,
    /// Current content in micro-tokens.
    units: u64,
    /// The time the bucket is accounted through.
    last_us: u64,
    /// The bounds AIMD moves the rate within (`None`: a fixed rate).
    aimd: Option<AimdPolicy>,
}

impl Bucket {
    /// A full bucket at `now_us`. Rate and burst are clamped to at least
    /// 1: a zero rate never refills and a zero burst caps the content
    /// below one token, so either would stall every caller forever.
    pub(crate) fn new(rate_per_sec: u64, burst: u64, now_us: u64) -> Self {
        let burst = burst.max(1);
        Bucket {
            rate_per_sec: rate_per_sec.max(1),
            burst,
            units: burst * TOKEN,
            last_us: now_us,
            aimd: None,
        }
    }

    /// A router endpoint's full bucket at `now_us`, starting at the
    /// policy's initial rate, which [`Bucket::increase`] and
    /// [`Bucket::decrease`] then move within the policy's bounds.
    pub(crate) fn adaptive(policy: AimdPolicy, now_us: u64) -> Self {
        Bucket {
            aimd: Some(policy),
            ..Bucket::new(policy.initial_per_sec, policy.burst, now_us)
        }
    }

    /// Adds what drips in over `elapsed_us`, capped at the burst.
    fn drip(&mut self, elapsed_us: u64) {
        let dripped = u128::from(elapsed_us) * u128::from(self.rate_per_sec);
        let cap = u128::from(self.burst) * u128::from(TOKEN);
        self.units = (u128::from(self.units) + dripped).min(cap) as u64;
    }

    fn refill(&mut self, now_us: u64) {
        if now_us > self.last_us {
            self.drip(now_us - self.last_us);
            self.last_us = now_us;
        }
    }

    /// Micro-seconds until one token will have dripped in.
    fn deficit_us(&self) -> u64 {
        (TOKEN - self.units).div_ceil(self.rate_per_sec)
    }

    /// Takes one token at `now_us`, or returns `Err(wait_us)`: exactly how
    /// long until one token will have dripped in.
    pub(crate) fn take(&mut self, now_us: u64) -> Result<(), u64> {
        self.refill(now_us);
        if self.units < TOKEN {
            return Err(self.deficit_us());
        }
        self.units -= TOKEN;
        Ok(())
    }

    /// Commits one token and returns the time at which it is available:
    /// the horizon when one is on hand (`now_us`, unless earlier grants
    /// pushed the horizon ahead), the future drip-in time otherwise.
    pub(crate) fn grant(&mut self, now_us: u64) -> u64 {
        self.refill(now_us);
        if self.units < TOKEN {
            let wait = self.deficit_us();
            self.drip(wait);
            self.last_us += wait;
        }
        self.units -= TOKEN;
        self.last_us
    }

    /// The sustained rate, in tokens per second.
    pub(crate) fn rate_per_sec(&self) -> u64 {
        self.rate_per_sec
    }

    /// AIMD additive increase on a success: raises the rate by the
    /// policy's step, capped at its ceiling. Returns whether it moved.
    pub(crate) fn increase(&mut self) -> bool {
        let Some(p) = self.aimd else { return false };
        if p.increase_per_sec == 0 || self.rate_per_sec >= p.max_per_sec {
            return false;
        }
        self.rate_per_sec = (self.rate_per_sec + p.increase_per_sec).min(p.max_per_sec);
        true
    }

    /// AIMD multiplicative decrease on a 429: halves the rate, floored at
    /// the policy's floor (and at 1, so the bucket keeps refilling).
    /// Returns whether it moved.
    pub(crate) fn decrease(&mut self) -> bool {
        let Some(p) = self.aimd else { return false };
        let floor = p.min_per_sec.max(1);
        if self.rate_per_sec <= floor {
            return false;
        }
        self.rate_per_sec = (self.rate_per_sec / 2).max(floor);
        true
    }
}

/// Backoff before retry `retry` (1-based) of `prompt` after `err`:
/// exponential from the policy base, capped, then jittered into
/// `[50%, 100%]` by a deterministic draw keyed on `(prompt, retry)`.
/// A server's `retry_after` hint and a breaker's remaining cooldown are
/// floors: sleeping less would burn a retry on a certain rejection.
pub(crate) fn backoff_us(
    policy: &RetryPolicy,
    dice: &Dice,
    prompt: &str,
    retry: u32,
    err: &LlmError,
) -> u64 {
    let doubled = policy
        .base_backoff_us
        .saturating_mul(1u64 << (retry - 1).min(32));
    let ceiling = doubled.min(policy.max_backoff_us);
    let jitter = dice.uniform(prompt, &format!("backoff-{retry}"));
    let backoff = ceiling / 2 + ((ceiling / 2) as f64 * jitter) as u64;
    match *err {
        LlmError::RateLimited { retry_after_us } => backoff.max(retry_after_us),
        LlmError::CircuitOpen { cooldown_us } => backoff.max(cooldown_us),
        _ => backoff,
    }
}

/// The endpoint under a driver: the caller's model directly, or a fault
/// injector the driver owns when a [`FaultPlan`] is configured.
pub(crate) enum Endpoint<'a> {
    Direct(&'a dyn LanguageModel),
    // Boxed: the injector carries its plan, schedule state and counters,
    // and the direct path should not pay its footprint.
    Sim(Box<SimBackend<'a>>),
}

impl<'a> Endpoint<'a> {
    /// `inner` behind a [`SimBackend`] on `clock` when `faults` is set.
    /// `tag` mixes an endpoint id into the fault schedule (replicas of a
    /// route); `None` keeps the untagged schedule of a single endpoint.
    pub(crate) fn new(
        inner: &'a dyn LanguageModel,
        faults: Option<FaultPlan>,
        clock: &Arc<dyn Clock>,
        tag: Option<u64>,
    ) -> Self {
        let Some(plan) = faults else {
            return Endpoint::Direct(inner);
        };
        let sim = SimBackend::with_clock(inner, plan, clock.clone());
        Endpoint::Sim(Box::new(match tag {
            Some(id) => sim.with_endpoint(id),
            None => sim,
        }))
    }

    pub(crate) fn model(&self) -> &dyn LanguageModel {
        match self {
            Endpoint::Direct(model) => *model,
            Endpoint::Sim(sim) => sim.as_ref(),
        }
    }

    /// One attempt without sleeping, for the reactor: the injector commits
    /// a schedule slot; a direct model is called at once and the latency
    /// derived from its latency profile.
    pub(crate) fn sample(&self, prompt: &str) -> AttemptSample {
        match self {
            Endpoint::Sim(sim) => sim.sample_attempt(prompt),
            Endpoint::Direct(model) => {
                let result = model.complete(prompt);
                let profile = model.latency_profile();
                let latency_us = match &result {
                    Ok(c) => profile.latency_us(c.usage),
                    Err(_) => profile.base_us,
                };
                AttemptSample { latency_us, result }
            }
        }
    }

    /// The injector's counters, when a fault plan is configured.
    pub(crate) fn fault_stats(&self) -> Option<FaultStats> {
        match self {
            Endpoint::Sim(sim) => Some(sim.stats()),
            Endpoint::Direct(_) => None,
        }
    }
}

/// Locks an optional policy's state (`None` when the policy is off).
pub(crate) fn lock<T>(state: &Option<Mutex<T>>) -> Option<MutexGuard<'_, T>> {
    state
        .as_ref()
        .map(|m| m.lock().expect("policy lock poisoned"))
}

/// A stats struct that counts endpoint faults by kind.
pub(crate) trait FaultTally {
    /// The timeout, 429 and 5xx counters, in that order.
    fn fault_counters(&mut self) -> [&mut u64; 3];

    /// Counts `err` under its kind; other errors count nowhere.
    fn tally(&mut self, err: &LlmError) {
        let [timeouts, rate_limited, transients] = self.fault_counters();
        match err {
            LlmError::Timeout { .. } => *timeouts += 1,
            LlmError::RateLimited { .. } => *rate_limited += 1,
            LlmError::Transient { .. } => *transients += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_waits_exactly_for_the_deficit() {
        let mut bucket = Bucket::new(10, 1, 0);
        assert_eq!(bucket.take(0), Ok(()));
        assert_eq!(bucket.take(0), Err(100_000), "one token per 100ms");
        assert_eq!(bucket.take(40_000), Err(60_000));
        assert_eq!(bucket.take(100_000), Ok(()));
    }

    #[test]
    fn grants_queue_into_the_future_and_never_rewind() {
        let mut bucket = Bucket::new(10, 1, 0);
        assert_eq!(bucket.grant(0), 0);
        assert_eq!(bucket.grant(0), 100_000);
        assert_eq!(bucket.grant(0), 200_000, "committed tokens stay committed");
        assert_eq!(bucket.grant(150_000), 300_000);
        assert_eq!(bucket.grant(1_000_000), 1_000_000, "idle time refills");
    }

    #[test]
    fn zero_rate_and_burst_are_clamped_to_one() {
        let mut bucket = Bucket::new(0, 0, 0);
        assert_eq!(bucket.rate_per_sec(), 1);
        assert_eq!(bucket.take(0), Ok(()));
        assert_eq!(bucket.take(0), Err(1_000_000));
        assert_eq!(bucket.take(1_000_000), Ok(()));
        assert_eq!(bucket.grant(1_000_000), 2_000_000);
    }

    #[test]
    fn aimd_moves_the_rate_within_its_bounds() {
        let policy = AimdPolicy {
            initial_per_sec: 64,
            min_per_sec: 0,
            max_per_sec: 33,
            increase_per_sec: 1,
            burst: 4,
        };
        let mut bucket = Bucket::adaptive(policy, 0);
        assert!(bucket.decrease());
        assert_eq!(bucket.rate_per_sec(), 32);
        assert!(bucket.increase());
        assert!(!bucket.increase(), "at the ceiling");
        for _ in 0..10 {
            bucket.decrease();
        }
        assert_eq!(bucket.rate_per_sec(), 1, "a zero floor still refills");
        let mut fixed = Bucket::new(8, 1, 0);
        assert!(!fixed.increase() && !fixed.decrease(), "no policy, no AIMD");
        let frozen = AimdPolicy::fixed(8, 1);
        assert!(
            !Bucket::adaptive(frozen, 0).increase(),
            "a zero step freezes"
        );
    }

    #[test]
    fn breaker_opens_half_opens_and_recloses() {
        let mut breaker = Breaker::new(BreakerPolicy {
            failure_threshold: 2,
            cooldown_us: 100,
        });
        assert!(!breaker.failure(0));
        assert!(breaker.failure(0), "the threshold trips it");
        assert_eq!(breaker.admit(40), Err(60));
        assert_eq!(breaker.admit(100), Ok(()), "cooldown over: a probe");
        assert!(breaker.failure(100), "a failed probe re-opens at once");
        assert_eq!(breaker.admit(150), Err(50));
        assert_eq!(breaker.admit(200), Ok(()));
        breaker.success();
        assert!(!breaker.failure(200), "success resets the count");
    }

    #[test]
    fn backoff_honors_hints_as_floors() {
        let policy = RetryPolicy::default();
        let dice = Dice::new(1);
        let plain = backoff_us(&policy, &dice, "p", 1, &LlmError::Timeout { elapsed_us: 0 });
        assert!((50_000..=100_000).contains(&plain), "{plain}");
        let hinted = LlmError::RateLimited {
            retry_after_us: 5_000_000,
        };
        assert_eq!(backoff_us(&policy, &dice, "p", 1, &hinted), 5_000_000);
        let open = LlmError::CircuitOpen { cooldown_us: 7 };
        assert_eq!(backoff_us(&policy, &dice, "p", 1, &open), plain);
    }
}
