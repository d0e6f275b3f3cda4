//! A heterogeneous **serving fleet**: N independently configured
//! [`LlmBackend`] replicas behind one [`RoutePolicyKind`].
//!
//! The paper's deployments are homogeneous — one [`crate::SimServer`]
//! models every GPU. Real massive-agent serving is not: a site mixes
//! hardware generations, dedicates latency-bounded replicas to
//! interactive traffic, and swaps routing policies per experiment. A
//! [`Fleet`] models exactly that: each replica is its own backend (a
//! virtual-time simulated engine, a latency-replay engine, an instant
//! test stub — anything implementing [`LlmBackend`]), and the fleet
//! itself implements [`LlmBackend`], so it plugs into the threaded
//! runtime anywhere a single backend does.
//!
//! The architecture is a strict layering:
//!
//! ```text
//! LlmBackend (trait)  ←  replica: SimServer / replay / instant / custom
//!        ↑
//!   Fleet::call  →  RoutePolicyKind::route(req, views) → budget check → replica.call
//! ```
//!
//! Deployments are described declaratively by [`FleetConfig`] (the
//! fleet-level generalization of [`crate::ServerConfig`]) and built with
//! [`FleetConfig::build`].
//!
//! # Fault tolerance and the retry-safety invariant
//!
//! A replica may carry a `fail_after` budget ([`ReplicaSpec::fail_after`]):
//! it serves that many attempts, then fails for good — a crashed engine.
//! The fleet's call path is a retry loop: the attempt that hits the
//! budget takes the replica down, and the call re-routes to a live peer,
//! so a dead replica **sheds load** instead of stalling the out-of-order
//! cluster that issued the call.
//!
//! The invariant that makes retrying safe: **the budget is checked before
//! the replica backend is invoked**. Attempt indices are claimed
//! atomically, and only a claim within the budget ever reaches
//! `backend.call` — so a failed attempt provably produced no backend
//! state and can be re-routed without duplicating work. A call reaches a
//! backend exactly once, on the worker thread that issued it: the fleet
//! starts no threads of its own.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::backend::{InstantBackend, LlmBackend, RealtimeSimBackend};
use crate::observer::{AttemptOutcome, CallObserver};
use crate::prefix::{PrefixStats, PrefixTracker};
use crate::replay::{LatencyProfile, ReplayBackend};
use crate::request::{Lane, LlmRequest, LlmResponse};
use crate::router::{ReplicaView, RoutePolicyKind};
use crate::server::ServerConfig;

/// Placeholder filling the unused tail of a call's routing views.
const NO_VIEW: ReplicaView = ReplicaView {
    id: 0,
    outstanding: 0,
    outstanding_tokens: 0,
    interactive: false,
    available: false,
};

/// How one fleet replica is backed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BackendSpec {
    /// A virtual-time [`crate::SimServer`] paced against the wall clock
    /// ([`RealtimeSimBackend`]) at `time_scale` virtual seconds per
    /// wall-clock second.
    Sim {
        /// Engine deployment config (usually 1 replica — the fleet is
        /// the data-parallel layer now).
        cfg: ServerConfig,
        /// Virtual seconds per wall-clock second.
        time_scale: f64,
    },
    /// A [`ReplayBackend`] over a recorded latency distribution;
    /// `time_scale` of `None` means unpaced (no sleeping).
    Replay {
        /// The recorded distribution to replay.
        profile: LatencyProfile,
        /// Sampling seed (same seed → same per-request latencies).
        seed: u64,
        /// Virtual µs per wall-clock µs, or `None` to never sleep.
        time_scale: Option<f64>,
    },
    /// An [`InstantBackend`] (tests and routing-overhead benches).
    Instant,
}

impl BackendSpec {
    fn build(&self) -> Arc<dyn LlmBackend> {
        match self {
            BackendSpec::Sim { cfg, time_scale } => {
                Arc::new(RealtimeSimBackend::new(cfg.clone(), *time_scale))
            }
            BackendSpec::Replay {
                profile,
                seed,
                time_scale,
            } => Arc::new(match time_scale {
                Some(scale) => ReplayBackend::new(profile.clone(), *seed, *scale),
                None => ReplayBackend::unpaced(profile.clone(), *seed),
            }),
            BackendSpec::Instant => Arc::new(InstantBackend::new()),
        }
    }
}

/// One replica slot of a [`FleetConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSpec {
    /// The backend behind this replica.
    pub backend: BackendSpec,
    /// Tag the replica for interactive traffic (consumed by
    /// [`RoutePolicyKind::LaneAware`]; other policies ignore it).
    pub interactive: bool,
    /// Attempts served before the replica fails for good (`None`, the
    /// default: it never fails).
    fail_after: Option<u64>,
}

impl ReplicaSpec {
    /// A simulated-engine replica (see [`BackendSpec::Sim`]).
    pub fn sim(cfg: ServerConfig, time_scale: f64) -> Self {
        ReplicaSpec {
            backend: BackendSpec::Sim { cfg, time_scale },
            interactive: false,
            fail_after: None,
        }
    }

    /// A latency-replay replica (see [`BackendSpec::Replay`]).
    pub fn replay(profile: LatencyProfile, seed: u64, time_scale: Option<f64>) -> Self {
        ReplicaSpec {
            backend: BackendSpec::Replay {
                profile,
                seed,
                time_scale,
            },
            interactive: false,
            fail_after: None,
        }
    }

    /// An instant replica (see [`BackendSpec::Instant`]).
    pub fn instant() -> Self {
        ReplicaSpec {
            backend: BackendSpec::Instant,
            interactive: false,
            fail_after: None,
        }
    }

    /// Tags the replica for interactive traffic.
    pub fn interactive(mut self) -> Self {
        self.interactive = true;
        self
    }

    /// Fails the replica for good after it has served `attempts`
    /// attempts: the next one takes it down and is re-routed (see the
    /// module docs).
    pub fn fail_after(mut self, attempts: u64) -> Self {
        self.fail_after = Some(attempts);
        self
    }
}

fn default_prefix_lru_entries() -> u32 {
    4096
}

/// Declarative description of a heterogeneous serving fleet — the
/// fleet-level counterpart of [`ServerConfig`].
///
/// # Example
///
/// ```
/// use aim_llm::{presets, FleetConfig, LatencyProfile, ReplicaSpec, RoutePolicyKind, ServerConfig};
///
/// let sim = ServerConfig::from_preset(presets::tiny_test(), 1, true);
/// let fleet = FleetConfig::new("mixed", RoutePolicyKind::RoundRobin)
///     .with_replica(ReplicaSpec::sim(sim, 1_000_000.0))
///     .with_replica(ReplicaSpec::replay(LatencyProfile::constant("prod", 150_000), 7, None))
///     .build();
/// assert_eq!(fleet.metrics().replicas.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Human-readable fleet name (for reports).
    pub name: String,
    /// Routing policy.
    pub policy: RoutePolicyKind,
    /// Replica slots, in id order.
    pub replicas: Vec<ReplicaSpec>,
    /// Capacity of each replica's fleet-level prefix LRU, in cache keys
    /// (agents + templates) — the residency model behind the per-replica
    /// hit-rate counters.
    pub prefix_lru_entries: u32,
}

impl FleetConfig {
    /// Creates an empty fleet description.
    pub fn new(name: impl Into<String>, policy: RoutePolicyKind) -> Self {
        FleetConfig {
            name: name.into(),
            policy,
            replicas: Vec::new(),
            prefix_lru_entries: default_prefix_lru_entries(),
        }
    }

    /// Appends a replica slot.
    pub fn with_replica(mut self, replica: ReplicaSpec) -> Self {
        self.replicas.push(replica);
        self
    }

    /// Sets the per-replica prefix LRU capacity (see
    /// [`FleetConfig::prefix_lru_entries`]).
    pub fn with_prefix_lru_entries(mut self, entries: u32) -> Self {
        self.prefix_lru_entries = entries;
        self
    }

    /// Instantiates the fleet.
    ///
    /// # Panics
    ///
    /// Panics if the config has no replicas or more than
    /// [`Fleet::MAX_REPLICAS`].
    pub fn build(self) -> Fleet {
        assert!(
            !self.replicas.is_empty(),
            "fleet needs at least one replica"
        );
        assert!(
            self.replicas.len() <= Fleet::MAX_REPLICAS,
            "fleet of {} replicas exceeds the maximum of {}",
            self.replicas.len(),
            Fleet::MAX_REPLICAS
        );
        let prefix_entries = self.prefix_lru_entries.max(1) as usize;
        Fleet {
            name: self.name,
            policy: self.policy,
            cursor: AtomicUsize::new(0),
            replicas: self
                .replicas
                .iter()
                .map(|spec| {
                    let backend = spec.backend.build();
                    FleetReplica {
                        description: backend.describe(),
                        backend,
                        interactive: spec.interactive,
                        fail_after: spec.fail_after,
                        outstanding: AtomicUsize::new(0),
                        outstanding_tokens: AtomicU64::new(0),
                        peak_outstanding: AtomicUsize::new(0),
                        served: AtomicU64::new(0),
                        interactive_served: AtomicU64::new(0),
                        attempts: AtomicU64::new(0),
                        down: AtomicBool::new(false),
                        prefix: Mutex::new(PrefixTracker::new(prefix_entries)),
                        latency: LatencyHistogram::new(),
                    }
                })
                .collect(),
            observer: RwLock::new(None),
            observed: AtomicBool::new(false),
        }
    }
}

/// Number of log2 latency buckets (covers sub-µs through ~2^39 µs).
const LATENCY_BUCKETS: usize = 40;

/// Lock-free log2-bucketed wall-latency histogram.
struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, us: u64) {
        let b = (64 - us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    /// Upper bound (µs) of the bucket where the 99th percentile falls;
    /// 0 before any sample.
    fn p99_us(&self) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let mut cum = 0u64;
        for (b, &c) in counts.iter().enumerate() {
            cum += c;
            if cum * 100 >= total * 99 {
                return 1u64 << b;
            }
        }
        1u64 << (LATENCY_BUCKETS - 1)
    }
}

struct FleetReplica {
    backend: Arc<dyn LlmBackend>,
    interactive: bool,
    description: String,
    fail_after: Option<u64>,
    outstanding: AtomicUsize,
    /// Prompt + decode tokens of the calls currently in flight — the
    /// load estimate behind [`RoutePolicyKind::TokenWeighted`] routing.
    outstanding_tokens: AtomicU64,
    peak_outstanding: AtomicUsize,
    served: AtomicU64,
    interactive_served: AtomicU64,
    /// Attempts claimed against this replica (served + refused).
    attempts: AtomicU64,
    /// Set by the attempt that takes the replica down; from then on it is
    /// advertised unavailable and routed around.
    down: AtomicBool,
    /// Fleet-level prefix-cache residency model for this replica.
    prefix: Mutex<PrefixTracker>,
    latency: LatencyHistogram,
}

/// Snapshot of one replica's fleet-level counters.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct FleetReplicaMetrics {
    /// Replica id within the fleet.
    pub replica: usize,
    /// The replica backend's [`LlmBackend::describe`] string.
    pub description: String,
    /// Whether the replica is tagged interactive.
    pub interactive: bool,
    /// Calls completed by this replica.
    pub served: u64,
    /// Of those, calls on [`Lane::Interactive`].
    pub interactive_served: u64,
    /// Maximum concurrently in-flight calls observed.
    pub peak_outstanding: usize,
    /// Attempts claimed (served + refused).
    pub attempts: u64,
    /// Attempts that took the replica down: 0, or 1 once it has failed
    /// for good. Racing claims refused after that count only in
    /// `attempts`.
    pub failed: u64,
    /// Whether the replica has failed permanently.
    pub down: bool,
    /// Prefix-cache counters (hits are agent-keyed residency — see
    /// [`crate::PrefixTracker`]).
    pub prefix: PrefixStats,
    /// Upper bound (µs) of the log2 bucket holding the 99th-percentile
    /// wall latency of served calls; 0 before any call.
    pub p99_us: u64,
}

impl FleetReplicaMetrics {
    /// Prefix-cache hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        self.prefix.hit_rate()
    }
}

/// Snapshot of a whole fleet (see [`Fleet::metrics`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct FleetMetrics {
    /// Fleet name.
    pub name: String,
    /// Active routing policy name.
    pub policy: String,
    /// Per-replica counters, in replica-id order.
    pub replicas: Vec<FleetReplicaMetrics>,
}

impl FleetMetrics {
    /// Total calls served across replicas.
    pub fn total_served(&self) -> u64 {
        self.replicas.iter().map(|r| r.served).sum()
    }

    /// Whether every replica served at least one call.
    pub fn all_replicas_served(&self) -> bool {
        self.replicas.iter().all(|r| r.served > 0)
    }

    /// Fleet-wide prefix-cache hit rate in `[0, 1]` (hits and misses
    /// summed over replicas).
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.replicas.iter().fold((0u64, 0u64), |(h, m), r| {
            (h + r.prefix.hits, m + r.prefix.misses)
        });
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Worst per-replica p99 wall latency, µs.
    pub fn max_p99_us(&self) -> u64 {
        self.replicas.iter().map(|r| r.p99_us).max().unwrap_or(0)
    }

    /// Replicas that have failed for good (each counts its one failing
    /// attempt).
    pub fn total_failed(&self) -> u64 {
        self.replicas.iter().map(|r| r.failed).sum()
    }
}

/// The serving fleet: replicas + routing policy, itself an
/// [`LlmBackend`].
///
/// Worker threads call [`LlmBackend::call`]; the fleet snapshots per-
/// replica load and availability into [`ReplicaView`]s, asks its
/// [`RoutePolicyKind`] for a replica, checks the replica's `fail_after`
/// budget, and forwards the (blocking) call. An attempt past the budget
/// takes the replica down and is re-routed to a live one — see the
/// module docs for why retrying is always state-safe.
///
/// The fleet's own share of a call allocates nothing: the views live in
/// a stack array, which is why a fleet holds at most
/// [`Fleet::MAX_REPLICAS`] replicas. Counters
/// are lock-free; the locks the fleet takes per attempt are the routed
/// replica's prefix tracker and, once an observer is installed, a read
/// lock on it. A replica backend may lock inside its own `call` — a
/// [`RealtimeSimBackend`] serializes its callers on its engine's mutex.
pub struct Fleet {
    name: String,
    policy: RoutePolicyKind,
    /// Round-robin position (only [`RoutePolicyKind::RoundRobin`] moves
    /// it).
    cursor: AtomicUsize,
    replicas: Vec<FleetReplica>,
    /// Telemetry hook: sees every claimed attempt (begin/end). Read-locked
    /// on the call path — uncontended once installed, and never held
    /// across a backend call.
    observer: RwLock<Option<Arc<dyn CallObserver>>>,
    /// Fast-path gate for `observer`: an unobserved fleet pays one atomic
    /// load per attempt instead of a read-lock acquire.
    observed: AtomicBool,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("name", &self.name)
            .field("policy", &self.policy.as_str())
            .field("replicas", &self.replicas.len())
            .finish()
    }
}

impl Fleet {
    /// Most replicas one fleet may hold: a call snapshots its routing
    /// views into a stack array of this size.
    pub const MAX_REPLICAS: usize = 64;

    /// Per-replica counters so far.
    pub fn metrics(&self) -> FleetMetrics {
        FleetMetrics {
            name: self.name.clone(),
            policy: self.policy.as_str().to_string(),
            replicas: self
                .replicas
                .iter()
                .enumerate()
                .map(|(id, r)| FleetReplicaMetrics {
                    replica: id,
                    description: r.description.clone(),
                    interactive: r.interactive,
                    served: r.served.load(Ordering::Relaxed),
                    interactive_served: r.interactive_served.load(Ordering::Relaxed),
                    peak_outstanding: r.peak_outstanding.load(Ordering::Relaxed),
                    attempts: r.attempts.load(Ordering::Relaxed),
                    failed: u64::from(r.down.load(Ordering::Relaxed)),
                    down: r.down.load(Ordering::Relaxed),
                    prefix: r.prefix.lock().stats(),
                    p99_us: r.latency.p99_us(),
                })
                .collect(),
        }
    }

    #[cfg(test)]
    fn views(&self) -> Vec<ReplicaView> {
        let mut views = [NO_VIEW; Fleet::MAX_REPLICAS];
        self.views_into(&mut views).to_vec()
    }

    /// Routing snapshot, written into the front of `views`.
    fn views_into<'v>(
        &self,
        views: &'v mut [ReplicaView; Fleet::MAX_REPLICAS],
    ) -> &'v [ReplicaView] {
        for ((id, r), view) in self.replicas.iter().enumerate().zip(views.iter_mut()) {
            *view = ReplicaView {
                id,
                outstanding: r.outstanding.load(Ordering::Relaxed),
                outstanding_tokens: r.outstanding_tokens.load(Ordering::Relaxed),
                interactive: r.interactive,
                available: !r.down.load(Ordering::Relaxed),
            };
        }
        &views[..self.replicas.len()]
    }

    /// One attempt on replica `id`. Claims the attempt index, checks the
    /// `fail_after` budget, and only within it invokes the backend — the
    /// retry-safety invariant: a `None` return means the backend was
    /// never called, so no state exists to duplicate.
    fn attempt(&self, id: usize, req: &LlmRequest) -> Option<LlmResponse> {
        let replica = &self.replicas[id];
        let observer = if self.observed.load(Ordering::Acquire) {
            self.observer.read().clone()
        } else {
            None
        };
        let token = observer.as_ref().map(|o| o.begin_attempt(req, id as u32));
        let finish = |outcome: AttemptOutcome| {
            if let (Some(o), Some(t)) = (&observer, token) {
                o.end_attempt(t, req, id as u32, outcome);
            }
        };
        let attempt = replica.attempts.fetch_add(1, Ordering::Relaxed);
        if replica.fail_after.is_some_and(|n| attempt >= n) {
            // Only the claim that takes the replica down fails it. A
            // caller that routed here before that flip and claims past the
            // budget too is refused as if the replica were already down:
            // re-routed, and not a second failure.
            let first = replica
                .down
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok();
            finish(if first {
                AttemptOutcome::Failed
            } else {
                AttemptOutcome::Refused
            });
            return None;
        }
        let now = replica.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        replica
            .outstanding_tokens
            .fetch_add(req.total_tokens(), Ordering::Relaxed);
        replica.peak_outstanding.fetch_max(now, Ordering::Relaxed);
        replica.prefix.lock().observe(
            req.agent,
            req.template,
            req.input_tokens,
            req.shared_prefix_tokens,
        );
        let started = Instant::now();
        let resp = replica.backend.call(req);
        replica.latency.record(started.elapsed().as_micros() as u64);
        replica.outstanding.fetch_sub(1, Ordering::Relaxed);
        replica
            .outstanding_tokens
            .fetch_sub(req.total_tokens(), Ordering::Relaxed);
        replica.served.fetch_add(1, Ordering::Relaxed);
        if req.lane == Lane::Interactive {
            replica.interactive_served.fetch_add(1, Ordering::Relaxed);
        }
        finish(AttemptOutcome::Served);
        Some(resp)
    }
}

impl LlmBackend for Fleet {
    /// The retry loop: route → budget check → call, re-routing every
    /// refused attempt.
    ///
    /// A refusal always means the replica is down, and the views
    /// advertise a down replica unavailable, so the policy routes around
    /// it; each call therefore meets at most one refusal per replica.
    ///
    /// # Panics
    ///
    /// Panics when every replica has permanently failed — there is no
    /// replica left that could ever serve, so blocking forever would
    /// stall the simulation silently.
    fn call(&self, req: &LlmRequest) -> LlmResponse {
        let mut views = [NO_VIEW; Fleet::MAX_REPLICAS];
        loop {
            let id = self
                .policy
                .route(&self.cursor, req, self.views_into(&mut views));
            if let Some(resp) = self.attempt(id, req) {
                return resp;
            }
            assert!(
                !self.replicas.iter().all(|r| r.down.load(Ordering::Relaxed)),
                "fleet {}: every replica has permanently failed",
                self.name
            );
        }
    }

    fn describe(&self) -> String {
        let mut out = format!(
            "fleet({}, {}, {} replicas: ",
            self.name,
            self.policy.as_str(),
            self.replicas.len()
        );
        for (i, r) in self.replicas.iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            let _ = write!(out, "{}", r.description);
            if r.interactive {
                out.push_str(" [interactive]");
            }
            if r.fail_after.is_some() {
                out.push_str(" [faulted]");
            }
        }
        out.push(')');
        out
    }

    fn fleet_metrics(&self) -> Option<FleetMetrics> {
        Some(self.metrics())
    }

    fn install_observer(&self, observer: Arc<dyn CallObserver>) -> bool {
        *self.observer.write() = Some(observer);
        self.observed.store(true, Ordering::Release);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::request::{CallKind, RequestId};

    fn req(id: u64) -> LlmRequest {
        LlmRequest::new(RequestId(id), id as u32, 0, 20, 2, CallKind::Plan)
    }

    fn instant_fleet(n: usize, policy: RoutePolicyKind) -> Fleet {
        let mut cfg = FleetConfig::new("test", policy);
        for _ in 0..n {
            cfg = cfg.with_replica(ReplicaSpec::instant());
        }
        cfg.build()
    }

    #[test]
    fn round_robin_spreads_exactly() {
        let fleet = instant_fleet(3, RoutePolicyKind::RoundRobin);
        for i in 0..9 {
            fleet.call(&req(i));
        }
        let m = fleet.metrics();
        assert_eq!(m.total_served(), 9);
        assert!(m.replicas.iter().all(|r| r.served == 3), "{m:?}");
        assert!(m.all_replicas_served());
    }

    #[test]
    fn least_outstanding_balances_sequential_calls() {
        // Sequential calls always see zero outstanding, so the tie-break
        // sends everything to replica 0 — the documented behavior.
        let fleet = instant_fleet(2, RoutePolicyKind::LeastOutstanding);
        for i in 0..4 {
            fleet.call(&req(i));
        }
        let m = fleet.metrics();
        assert_eq!(m.replicas[0].served, 4);
        assert_eq!(m.replicas[1].served, 0);
    }

    #[test]
    fn lane_aware_splits_traffic_by_tag() {
        let fleet = FleetConfig::new("split", RoutePolicyKind::LaneAware)
            .with_replica(ReplicaSpec::instant())
            .with_replica(ReplicaSpec::instant().interactive())
            .build();
        for i in 0..6 {
            fleet.call(&req(i));
            fleet.call(&req(100 + i).interactive());
        }
        let m = fleet.metrics();
        assert_eq!(m.replicas[0].served, 6);
        assert_eq!(m.replicas[0].interactive_served, 0);
        assert_eq!(m.replicas[1].served, 6);
        assert_eq!(m.replicas[1].interactive_served, 6);
    }

    #[test]
    fn heterogeneous_fleet_mixes_backend_types() {
        let sim = ServerConfig::from_preset(presets::tiny_test(), 1, true);
        let fleet = FleetConfig::new("mixed", RoutePolicyKind::RoundRobin)
            .with_replica(ReplicaSpec::sim(sim, 100_000.0))
            .with_replica(ReplicaSpec::replay(
                LatencyProfile::constant("prod", 10),
                3,
                None,
            ))
            .build();
        for i in 0..4 {
            fleet.call(&req(i));
        }
        let m = fleet.metrics();
        assert!(m.all_replicas_served(), "{m:?}");
        assert!(m.replicas[0].description.contains("realtime-sim"));
        assert!(m.replicas[1].description.contains("replay"));
    }

    #[test]
    fn describe_lists_policy_and_replicas() {
        let fleet = FleetConfig::new("demo", RoutePolicyKind::LaneAware)
            .with_replica(ReplicaSpec::instant())
            .with_replica(ReplicaSpec::instant().interactive())
            .build();
        let d = fleet.describe();
        assert!(d.contains("fleet(demo, lane-aware, 2 replicas"), "{d}");
        assert!(d.contains("instant"), "{d}");
        assert!(d.contains("[interactive]"), "{d}");
        assert!(!d.contains("[faulted]"), "{d}");
    }

    #[test]
    fn describe_marks_faulted_replicas() {
        let fleet = FleetConfig::new("faulty", RoutePolicyKind::RoundRobin)
            .with_replica(ReplicaSpec::instant())
            .with_replica(ReplicaSpec::instant().fail_after(5))
            .build();
        assert!(fleet.describe().contains("[faulted]"));
    }

    #[test]
    fn concurrent_calls_track_outstanding_peaks() {
        let fleet = Arc::new(
            FleetConfig::new("conc", RoutePolicyKind::LeastOutstanding)
                .with_replica(ReplicaSpec::replay(
                    LatencyProfile::constant("ms", 1_000),
                    0,
                    Some(1.0), // 1 ms wall per call
                ))
                .with_replica(ReplicaSpec::replay(
                    LatencyProfile::constant("ms", 1_000),
                    0,
                    Some(1.0),
                ))
                .build(),
        );
        // All callers release together, so the 1 ms-wall calls overlap
        // and least-outstanding must spill past replica 0.
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8u64)
            .map(|i| {
                let fleet = Arc::clone(&fleet);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    fleet.call(&req(i));
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let m = fleet.metrics();
        assert_eq!(m.total_served(), 8);
        assert!(
            m.all_replicas_served(),
            "least-outstanding must overflow to replica 1 under concurrency: {m:?}"
        );
        assert!(m.replicas.iter().all(|r| r.peak_outstanding >= 1));
    }

    #[test]
    fn token_weighted_steers_around_heavy_inflight_work() {
        use crate::request::Lane;

        // Replica latencies are paced, so a heavy call parks its tokens
        // on a replica long enough for a second caller to observe them.
        let fleet = Arc::new(
            FleetConfig::new("tok", RoutePolicyKind::TokenWeighted)
                .with_replica(ReplicaSpec::replay(
                    LatencyProfile::constant("slow", 20_000),
                    0,
                    Some(1.0), // 20 ms wall
                ))
                .with_replica(ReplicaSpec::replay(
                    LatencyProfile::constant("slow", 20_000),
                    0,
                    Some(1.0),
                ))
                .build(),
        );
        // A 5000-token monster goes first (lands on replica 0 by the
        // id tie-break)…
        let heavy = {
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || {
                fleet.call(&LlmRequest::new(
                    RequestId(1),
                    0,
                    0,
                    4_900,
                    100,
                    CallKind::Converse,
                ));
            })
        };
        // Wait (bounded) until the heavy call's tokens are actually
        // registered on a replica — no sleep-based race with the spawned
        // thread's scheduling.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while fleet.views().iter().all(|v| v.outstanding_tokens == 0) {
            assert!(
                std::time::Instant::now() < deadline,
                "heavy call never registered its tokens"
            );
            std::thread::yield_now();
        }
        // …so a light call issued while it is in flight must route to
        // replica 1 even though both have one call outstanding — count
        // alone cannot distinguish them, tokens can.
        fleet.call(&LlmRequest::new(
            RequestId(2),
            1,
            0,
            40,
            8,
            CallKind::Perceive,
        ));
        heavy.join().unwrap();
        let m = fleet.metrics();
        assert_eq!(m.total_served(), 2);
        assert_eq!(
            m.replicas[1].served, 1,
            "light call must avoid the token-heavy replica: {m:?}"
        );
        // Once drained, the outstanding-token estimate returns to zero.
        let views: Vec<_> = fleet.views();
        assert!(views.iter().all(|v| v.outstanding_tokens == 0), "{views:?}");
        let _ = Lane::Background;
    }

    #[test]
    fn fail_after_sheds_load_and_serves_everything() {
        // Replica 0 dies after 3 attempts; every call must still be
        // answered, with the failure absorbed by one retry and all later
        // traffic shed to replica 1.
        let fleet = FleetConfig::new("shed", RoutePolicyKind::RoundRobin)
            .with_replica(ReplicaSpec::instant().fail_after(3))
            .with_replica(ReplicaSpec::instant())
            .build();
        for i in 0..12 {
            let r = fleet.call(&req(i));
            assert_eq!(r.output_tokens, 2);
        }
        let m = fleet.metrics();
        assert_eq!(m.total_served(), 12, "{m:?}");
        assert_eq!(m.replicas[0].served, 3, "exactly 3 attempts succeed");
        assert_eq!(m.replicas[0].failed, 1, "one attempt hit the failure");
        assert!(m.replicas[0].down);
        assert_eq!(m.replicas[1].served, 9, "the healthy replica absorbs");
        assert!(!m.replicas[1].down);
        assert_eq!(m.total_failed(), 1);
    }

    #[test]
    fn racing_claims_past_fail_after_take_the_replica_down_once() {
        // Both callers route to replica 0 (least-outstanding tie-break)
        // and meet in `begin_attempt` — after routing, before the claim —
        // so both claim past `fail_after(0)` before either marks it down.
        // Exactly one claim fails it; the other is refused as if the
        // replica were already down, and re-routed.
        struct Rendezvous {
            barrier: std::sync::Barrier,
            outcomes: Mutex<Vec<(u32, AttemptOutcome)>>,
        }
        impl CallObserver for Rendezvous {
            fn begin_attempt(&self, _: &LlmRequest, replica: u32) -> u64 {
                if replica == 0 {
                    self.barrier.wait();
                }
                0
            }
            fn end_attempt(&self, _: u64, _: &LlmRequest, replica: u32, o: AttemptOutcome) {
                self.outcomes.lock().push((replica, o));
            }
        }
        let fleet = FleetConfig::new("race", RoutePolicyKind::LeastOutstanding)
            .with_replica(ReplicaSpec::instant().fail_after(0))
            .with_replica(ReplicaSpec::instant())
            .build();
        let observer = Arc::new(Rendezvous {
            barrier: std::sync::Barrier::new(2),
            outcomes: Mutex::new(Vec::new()),
        });
        assert!(fleet.install_observer(Arc::clone(&observer) as Arc<dyn CallObserver>));
        std::thread::scope(|s| {
            for i in 0..2 {
                let fleet = &fleet;
                s.spawn(move || fleet.call(&req(i)));
            }
        });
        let m = fleet.metrics();
        assert!(m.replicas[0].down, "{m:?}");
        assert_eq!(
            m.replicas[0].failed, 1,
            "one failure, not one per racer: {m:?}"
        );
        assert_eq!(m.replicas[1].served, 2, "both calls re-routed: {m:?}");
        let mut at_zero: Vec<&str> = observer
            .outcomes
            .lock()
            .iter()
            .filter(|(r, _)| *r == 0)
            .map(|(_, o)| o.as_str())
            .collect();
        at_zero.sort_unstable();
        assert_eq!(at_zero, ["failed", "refused"]);
    }

    #[test]
    #[should_panic(expected = "every replica has permanently failed")]
    fn fully_failed_fleet_panics_instead_of_hanging() {
        let fleet = FleetConfig::new("dead", RoutePolicyKind::RoundRobin)
            .with_replica(ReplicaSpec::instant().fail_after(0))
            .build();
        fleet.call(&req(1));
    }

    #[test]
    fn prefix_counters_reward_affinity() {
        // Same agent, repeated calls: prefix-affinity pins the agent's
        // group to one replica, so every call after the first is a hit
        // there — the signal the city-fleet experiment sweeps.
        let fleet = instant_fleet(2, RoutePolicyKind::PrefixAffinity);
        let r = LlmRequest::new(RequestId(1), 42, 0, 200, 4, CallKind::Plan).with_template(1, 100);
        for _ in 0..8 {
            fleet.call(&r);
        }
        let m = fleet.metrics();
        let (active, idle): (Vec<_>, Vec<_>) = m.replicas.iter().partition(|rm| rm.served > 0);
        assert_eq!(active.len(), 1, "affinity must pin the group: {m:?}");
        assert_eq!(active[0].prefix.hits, 7);
        assert_eq!(active[0].prefix.misses, 1);
        assert!(active[0].hit_rate() > 0.8);
        assert_eq!(idle[0].prefix.hits + idle[0].prefix.misses, 0);
        assert!(m.hit_rate() > 0.8);
    }

    #[test]
    fn fleet_metrics_surface_through_backend_trait() {
        let fleet = instant_fleet(2, RoutePolicyKind::RoundRobin);
        fleet.call(&req(1));
        let b: &dyn LlmBackend = &fleet;
        let m = b.fleet_metrics().expect("fleets expose metrics");
        assert_eq!(m.total_served(), 1);
        assert_eq!(
            InstantBackend::new().fleet_metrics(),
            None,
            "plain backends expose no fleet metrics"
        );
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_fleet_rejected() {
        let _ = FleetConfig::new("empty", RoutePolicyKind::RoundRobin).build();
    }

    #[test]
    fn widest_fleet_retries_to_its_last_replica() {
        // 64 replicas, every one but the last dead on arrival: the call
        // walks all 63 failures, each taking its replica down, and lands
        // on replica 63.
        let mut cfg = FleetConfig::new("wide", RoutePolicyKind::LeastOutstanding);
        for _ in 0..Fleet::MAX_REPLICAS - 1 {
            cfg = cfg.with_replica(ReplicaSpec::instant().fail_after(0));
        }
        let fleet = cfg.with_replica(ReplicaSpec::instant()).build();
        assert_eq!(fleet.call(&req(1)).output_tokens, 2);
        let m = fleet.metrics();
        assert_eq!(m.total_failed(), 63, "{m:?}");
        assert_eq!(m.replicas[63].served, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the maximum of 64")]
    fn oversized_fleet_rejected() {
        let mut cfg = FleetConfig::new("huge", RoutePolicyKind::RoundRobin);
        for _ in 0..=Fleet::MAX_REPLICAS {
            cfg = cfg.with_replica(ReplicaSpec::instant());
        }
        let _ = cfg.build();
    }
}
