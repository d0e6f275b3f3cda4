use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::cost::CostModel;
use crate::prefix::PrefixTracker;
use crate::presets::Preset;
use crate::request::LlmRequest;
use crate::time::VirtualTime;

fn default_prefix_cache_entries() -> u32 {
    4096
}

/// Configuration of a [`SimServer`] deployment.
///
/// A deployment is `replicas` independent data-parallel engines, each
/// running the same model with the same [`CostModel`]. Tensor parallelism
/// is folded into the preset's cost model (a TP-4 replica occupies four
/// GPUs but appears here as one fast replica), matching the paper's L4
/// data-parallel and A100 hybrid (TP×DP) setups in §4.1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Human-readable deployment name (for reports).
    pub name: String,
    /// Number of data-parallel replicas.
    pub replicas: u32,
    /// Per-replica iteration cost model.
    pub cost: CostModel,
    /// Maximum concurrently running sequences per replica.
    pub max_running: u32,
    /// KV-cache capacity per replica, in tokens (reserve-on-admit).
    pub kv_capacity_tokens: u64,
    /// Maximum prefill tokens processed per iteration (chunked prefill).
    pub prefill_chunk: u32,
    /// Admit pending requests lowest-step-first (§3.5) instead of FIFO.
    pub priority_enabled: bool,
    /// Serve [`crate::Lane::Interactive`] requests ahead of background
    /// work — the hybrid interactive/offline deployment of paper §6.
    pub lane_aware: bool,
    /// With [`ServerConfig::lane_aware`]: batch slots per replica held
    /// back from background admission so interactive requests never wait
    /// for a background decode to drain (0 = priority only, no reserve).
    pub interactive_reserve: u32,
    /// Model automatic common-prefix caching (the SGLang feature the paper
    /// turned *off* for stable benchmarks, noting "enabling the cache
    /// generally provides about a 20% throughput gain", §4.1). When on,
    /// each replica keeps a bounded LRU of recently served prompt prefixes
    /// (per agent, plus per persona template for tagged requests — see
    /// [`crate::PrefixTracker`]) and skips re-prefilling the matched
    /// prefix. A hit therefore discounts prefill cost proportionally to
    /// the matched prefix length.
    pub prefix_caching: bool,
    /// Capacity of each replica's prefix LRU, in cache keys (agents +
    /// templates). Bounded because real KV-cache memory is: at city scale
    /// an agent's entry is evicted between its visits unless routing keeps
    /// the agent on one replica — which is exactly what
    /// [`crate::PrefixAffinity`] is for. Values ≤ 1 behave as a
    /// single-entry cache.
    #[serde(default = "default_prefix_cache_entries")]
    pub prefix_cache_entries: u32,
}

impl ServerConfig {
    /// Builds a config from a hardware/model [`Preset`].
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn from_preset(preset: Preset, replicas: u32, priority_enabled: bool) -> Self {
        assert!(replicas > 0, "at least one replica is required");
        ServerConfig {
            name: format!("{}x{}", replicas, preset.name),
            replicas,
            cost: preset.cost,
            max_running: preset.max_running,
            kv_capacity_tokens: preset.kv_capacity_tokens,
            prefill_chunk: preset.prefill_chunk,
            priority_enabled,
            lane_aware: false,
            interactive_reserve: 0,
            prefix_caching: false,
            prefix_cache_entries: default_prefix_cache_entries(),
        }
    }

    /// Enables the interactive lane with `reserve` batch slots per replica
    /// held back from background admission (see
    /// [`ServerConfig::lane_aware`]).
    ///
    /// # Panics
    ///
    /// Panics if `reserve >= max_running` — background work must keep at
    /// least one slot or the simulation starves.
    pub fn with_interactive_lane(mut self, reserve: u32) -> Self {
        assert!(
            reserve < self.max_running,
            "interactive reserve ({reserve}) must leave background slots (max_running {})",
            self.max_running
        );
        self.lane_aware = true;
        self.interactive_reserve = reserve;
        self
    }
}

/// A finished request reported by [`SimServer::advance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The original request.
    pub req: LlmRequest,
    /// Virtual time at which the request entered the server.
    pub submitted_at: VirtualTime,
    /// Virtual time at which the last token was produced.
    pub finished_at: VirtualTime,
    /// Replica that served the request.
    pub replica: usize,
}

impl Completion {
    /// End-to-end request latency (queueing + inference).
    pub fn latency(&self) -> VirtualTime {
        self.finished_at - self.submitted_at
    }
}

/// Cumulative per-replica counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct ReplicaMetrics {
    /// Microseconds spent inside iterations.
    pub busy_us: u64,
    /// Iterations executed.
    pub iterations: u64,
    /// Prefill tokens processed.
    pub prefill_tokens: u64,
    /// Decode tokens produced.
    pub decode_tokens: u64,
    /// Requests completed.
    pub completed: u64,
    /// Maximum concurrently running sequences observed.
    pub peak_running: u32,
    /// Prefill tokens skipped thanks to prefix caching.
    pub cached_prefill_tokens: u64,
    /// Admitted requests whose issuing agent's prefix was still resident
    /// in this replica's LRU (see [`crate::PrefixStats::hits`]).
    #[serde(default)]
    pub prefix_hits: u64,
    /// Admitted requests whose agent prefix was absent or evicted.
    #[serde(default)]
    pub prefix_misses: u64,
}

/// Aggregated view over all replicas (see [`SimServer::metrics`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct ServerMetrics {
    /// Per-replica counters, indexed by replica id.
    pub replicas: Vec<ReplicaMetrics>,
    /// Time-weighted integral of outstanding requests, µs·requests.
    /// Divide by the run's makespan (µs) to get the paper's "achieved
    /// parallelism" — the average number of outstanding LLM requests.
    pub outstanding_integral_us: f64,
    /// Requests submitted so far.
    pub submitted: u64,
    /// Requests completed so far.
    pub completed: u64,
}

impl ServerMetrics {
    /// Total busy time across replicas, µs.
    pub fn total_busy_us(&self) -> u64 {
        self.replicas.iter().map(|r| r.busy_us).sum()
    }

    /// Average GPU (replica) utilization over `makespan`.
    pub fn utilization(&self, makespan: VirtualTime) -> f64 {
        if makespan == VirtualTime::ZERO || self.replicas.is_empty() {
            return 0.0;
        }
        self.total_busy_us() as f64 / (makespan.as_micros() as f64 * self.replicas.len() as f64)
    }

    /// The paper's "achieved parallelism": average outstanding requests.
    pub fn achieved_parallelism(&self, makespan: VirtualTime) -> f64 {
        if makespan == VirtualTime::ZERO {
            return 0.0;
        }
        self.outstanding_integral_us / makespan.as_micros() as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PendKey {
    /// Lane rank (0 when the server is not lane-aware).
    lane: u8,
    priority: u64,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Pending {
    key: PendKey,
    req: LlmRequest,
    submitted_at: VirtualTime,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

#[derive(Debug, Clone)]
struct Running {
    req: LlmRequest,
    submitted_at: VirtualTime,
    prefilled: u32,
    decoded: u32,
    /// Prefill tokens assigned to the in-flight iteration.
    iter_prefill: u32,
    /// Whether this sequence decodes one token in the in-flight iteration.
    iter_decode: bool,
}

impl Running {
    fn target_output(&self) -> u32 {
        self.req.output_tokens.max(1)
    }
    fn kv_need(&self) -> u64 {
        self.req.input_tokens as u64 + self.target_output() as u64
    }
}

#[derive(Debug)]
struct Replica {
    id: usize,
    running: Vec<Running>,
    pending: BinaryHeap<Reverse<Pending>>,
    kv_reserved: u64,
    iter_end: Option<VirtualTime>,
    metrics: ReplicaMetrics,
    /// Bounded LRU of recently served prompt prefixes (agent + template
    /// keyed) — the cache a prefix hit discounts prefill against.
    prefix: PrefixTracker,
}

impl Replica {
    fn new(id: usize, prefix_entries: usize) -> Self {
        Replica {
            id,
            running: Vec::new(),
            pending: BinaryHeap::new(),
            kv_reserved: 0,
            iter_end: None,
            metrics: ReplicaMetrics::default(),
            prefix: PrefixTracker::new(prefix_entries),
        }
    }

    fn load(&self) -> (usize, u64) {
        (self.running.len() + self.pending.len(), self.kv_reserved)
    }
}

/// A virtual-time, continuous-batching LLM serving engine.
///
/// `SimServer` is driven by a discrete-event executor through three calls:
///
/// 1. [`SimServer::submit`] — enqueue a request at the current time;
/// 2. [`SimServer::next_event`] — the earliest time an iteration finishes;
/// 3. [`SimServer::advance`] — move the clock forward, collecting
///    completions that occur up to that time into a caller-owned buffer.
///
/// Iterations are atomic: once started, a batch runs to its computed end
/// time (no preemption — §3.5 notes preemption during inference is
/// avoided). Admission happens between iterations, honoring priority order,
/// `max_running`, and KV capacity.
///
/// # Example
///
/// ```
/// use aim_llm::{CallKind, CostModel, LlmRequest, RequestId, ServerConfig, SimServer, VirtualTime};
///
/// let cfg = ServerConfig {
///     name: "toy".into(),
///     replicas: 1,
///     cost: CostModel::new(1_000.0, 10.0, 100.0, 0.0),
///     max_running: 8,
///     kv_capacity_tokens: 100_000,
///     prefill_chunk: 512,
///     priority_enabled: true,
///     lane_aware: false,
///     interactive_reserve: 0,
///     prefix_caching: false,
///     prefix_cache_entries: 4096,
/// };
/// let mut s = SimServer::new(cfg);
/// s.submit(VirtualTime::ZERO, LlmRequest::new(RequestId(0), 0, 0, 100, 4, CallKind::Plan));
/// let mut done = Vec::new();
/// while let Some(t) = s.next_event() {
///     s.advance(t, &mut done);
/// }
/// assert_eq!(done.len(), 1);
/// assert!(done[0].finished_at > VirtualTime::ZERO);
/// ```
#[derive(Debug)]
pub struct SimServer {
    cfg: ServerConfig,
    replicas: Vec<Replica>,
    arrival_seq: u64,
    now: VirtualTime,
    outstanding: u64,
    outstanding_integral_us: f64,
    submitted: u64,
    completed: u64,
}

impl SimServer {
    /// Creates an idle server from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the config has zero replicas, zero `max_running`, or a
    /// cost model that could produce zero-length iterations with pending
    /// work (all coefficients zero).
    pub fn new(cfg: ServerConfig) -> Self {
        assert!(cfg.replicas > 0, "replicas must be positive");
        assert!(cfg.max_running > 0, "max_running must be positive");
        assert!(cfg.prefill_chunk > 0, "prefill_chunk must be positive");
        let prefix_entries = cfg.prefix_cache_entries.max(1) as usize;
        let replicas = (0..cfg.replicas as usize)
            .map(|id| Replica::new(id, prefix_entries))
            .collect();
        SimServer {
            cfg,
            replicas,
            arrival_seq: 0,
            now: VirtualTime::ZERO,
            outstanding: 0,
            outstanding_integral_us: 0.0,
            submitted: 0,
            completed: 0,
        }
    }

    /// The deployment configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Requests submitted but not yet completed.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// The server's current clock (last `submit`/`advance` time).
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    fn accrue(&mut self, to: VirtualTime) {
        debug_assert!(to >= self.now, "time must not move backwards");
        let dt = (to - self.now).as_micros() as f64;
        self.outstanding_integral_us += dt * self.outstanding as f64;
        self.now = to;
    }

    /// Enqueues `req` at time `now`, routing it to the least-loaded replica.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now` is earlier than a previously
    /// observed time (the DES driver must deliver events in order).
    pub fn submit(&mut self, now: VirtualTime, req: LlmRequest) {
        self.accrue(now);
        self.outstanding += 1;
        self.submitted += 1;
        let priority = if self.cfg.priority_enabled {
            req.step
        } else {
            0
        };
        let lane = if self.cfg.lane_aware {
            req.lane.rank()
        } else {
            0
        };
        let key = PendKey {
            lane,
            priority,
            seq: self.arrival_seq,
        };
        self.arrival_seq += 1;
        let target = self
            .replicas
            .iter()
            .min_by_key(|r| (r.load(), r.id))
            .map(|r| r.id)
            .expect("at least one replica");
        self.replicas[target].pending.push(Reverse(Pending {
            key,
            req,
            submitted_at: now,
        }));
        self.try_start(target, now);
    }

    /// Earliest pending iteration end, if any replica is busy.
    pub fn next_event(&self) -> Option<VirtualTime> {
        self.replicas.iter().filter_map(|r| r.iter_end).min()
    }

    /// Advances the clock to `now`, finishing any iterations that end at or
    /// before `now` and admitting new work, and appends the completed
    /// requests to `out` in deterministic order: iteration end, then
    /// replica id, then completion order within the iteration.
    ///
    /// `out` is the caller's to reuse, so a steady advance allocates
    /// nothing.
    pub fn advance(&mut self, now: VirtualTime, out: &mut Vec<Completion>) {
        // The earliest due iteration end goes first (ties to the lower
        // replica id), so the clock never steps back when `now` passes
        // several replicas' ends. Iterations may chain (end at or before
        // `now` and restart), so loop until none is due.
        while let Some((end, id)) = self
            .replicas
            .iter()
            .filter_map(|r| r.iter_end.filter(|&t| t <= now).map(|t| (t, r.id)))
            .min()
        {
            self.accrue(end);
            self.finish_iteration(id, end, out);
            self.try_start(id, end);
        }
        self.accrue(now);
    }

    /// Runs the server to completion, returning all remaining completions.
    /// Convenience for tests and offline analysis.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(t) = self.next_event() {
            self.advance(t, &mut out);
        }
        out
    }

    /// Cumulative metrics snapshot.
    pub fn metrics(&self) -> ServerMetrics {
        ServerMetrics {
            replicas: self.replicas.iter().map(|r| r.metrics).collect(),
            outstanding_integral_us: self.outstanding_integral_us,
            submitted: self.submitted,
            completed: self.completed,
        }
    }

    fn finish_iteration(&mut self, id: usize, end: VirtualTime, out: &mut Vec<Completion>) {
        let replica = &mut self.replicas[id];
        replica.iter_end = None;
        let mut i = 0;
        let mut finished_here = 0u64;
        while i < replica.running.len() {
            let r = &mut replica.running[i];
            r.prefilled += r.iter_prefill;
            r.iter_prefill = 0;
            if r.iter_decode {
                r.decoded += 1;
                r.iter_decode = false;
            }
            if r.decoded >= r.target_output() {
                let done = replica.running.remove(i);
                replica.kv_reserved -= done.kv_need();
                finished_here += 1;
                replica.metrics.completed += 1;
                out.push(Completion {
                    req: done.req,
                    submitted_at: done.submitted_at,
                    finished_at: end,
                    replica: id,
                });
            } else {
                i += 1;
            }
        }
        self.completed += finished_here;
        self.outstanding -= finished_here;
    }

    fn try_start(&mut self, id: usize, now: VirtualTime) {
        let cfg_max_running = self.cfg.max_running as usize;
        // Background admission stops short of the interactive reserve so a
        // latency-critical arrival never waits for a background decode to
        // drain (§6's hybrid deployment).
        let background_limit = if self.cfg.lane_aware {
            cfg_max_running
                .saturating_sub(self.cfg.interactive_reserve as usize)
                .max(1)
        } else {
            cfg_max_running
        };
        let cfg_kv = self.cfg.kv_capacity_tokens;
        let chunk = self.cfg.prefill_chunk;
        let cost = self.cfg.cost;
        let prefix_caching = self.cfg.prefix_caching;
        let replica = &mut self.replicas[id];
        if replica.iter_end.is_some() {
            return; // already mid-iteration; admission happens when it ends
        }
        // Admission: lowest (lane, priority, seq) first, bounded by batch
        // and KV. Interactive requests sort first, so stopping at a
        // background head never strands an interactive request behind it.
        while replica.running.len() < cfg_max_running {
            let Some(Reverse(head)) = replica.pending.peek() else {
                break;
            };
            if head.req.lane == crate::Lane::Background
                && self.cfg.lane_aware
                && replica.running.len() >= background_limit
            {
                break; // slots beyond this point are reserved
            }
            let need = head.req.input_tokens as u64 + head.req.output_tokens.max(1) as u64;
            if replica.kv_reserved + need > cfg_kv && !replica.running.is_empty() {
                break; // wait for KV to free up
            }
            let Reverse(p) = replica.pending.pop().expect("peeked");
            replica.kv_reserved += need;
            // Prefix caching: the matched prefix (this agent's recent
            // prompt, or the preamble shared by its persona template) is
            // already resident, so the discount is proportional to the
            // matched length — those tokens skip prefill entirely. The
            // LRU is bounded, so a replica that has not seen this agent
            // recently re-prefills from scratch.
            let prefilled = if prefix_caching {
                let matched = replica.prefix.observe(
                    p.req.agent,
                    p.req.template,
                    p.req.input_tokens,
                    p.req.shared_prefix_tokens,
                );
                let s = replica.prefix.stats();
                replica.metrics.prefix_hits = s.hits;
                replica.metrics.prefix_misses = s.misses;
                replica.metrics.cached_prefill_tokens += matched as u64;
                matched
            } else {
                0
            };
            replica.running.push(Running {
                req: p.req,
                submitted_at: p.submitted_at,
                prefilled,
                decoded: 0,
                iter_prefill: 0,
                iter_decode: false,
            });
        }
        if replica.running.is_empty() {
            return;
        }
        replica.metrics.peak_running = replica
            .metrics
            .peak_running
            .max(replica.running.len() as u32);
        // Assign this iteration's work: decode every prefill-complete
        // sequence; spend up to `chunk` tokens of prefill FCFS.
        let mut prefill_budget = chunk;
        let mut prefill_tokens = 0u32;
        let mut decode_seqs = 0u32;
        for r in &mut replica.running {
            if r.prefilled < r.req.input_tokens {
                let take = (r.req.input_tokens - r.prefilled).min(prefill_budget);
                r.iter_prefill = take;
                prefill_budget -= take;
                prefill_tokens += take;
            } else if r.decoded < r.target_output() {
                r.iter_decode = true;
                decode_seqs += 1;
            }
        }
        if prefill_tokens == 0 && decode_seqs == 0 {
            return; // nothing runnable (should not happen; defensive)
        }
        let dt = cost
            .iter_time(prefill_tokens, decode_seqs)
            .max(VirtualTime::from_micros(1));
        replica.iter_end = Some(now + dt);
        replica.metrics.busy_us += dt.as_micros();
        replica.metrics.iterations += 1;
        replica.metrics.prefill_tokens += prefill_tokens as u64;
        replica.metrics.decode_tokens += decode_seqs as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{CallKind, RequestId};

    fn toy_cfg(replicas: u32, priority: bool) -> ServerConfig {
        ServerConfig {
            name: "toy".into(),
            replicas,
            cost: CostModel::new(1_000.0, 10.0, 100.0, 0.0),
            max_running: 4,
            kv_capacity_tokens: 10_000,
            prefill_chunk: 512,
            priority_enabled: priority,
            lane_aware: false,
            interactive_reserve: 0,
            prefix_caching: false,
            prefix_cache_entries: 4096,
        }
    }

    fn req(id: u64, step: u64, input: u32, output: u32) -> LlmRequest {
        LlmRequest::new(
            RequestId(id),
            id as u32,
            step,
            input,
            output,
            CallKind::Plan,
        )
    }

    #[test]
    fn single_request_matches_isolated_latency() {
        let cfg = toy_cfg(1, true);
        let expected = cfg.cost.isolated_latency(100, 4, cfg.prefill_chunk);
        let mut s = SimServer::new(cfg);
        s.submit(VirtualTime::ZERO, req(0, 0, 100, 4));
        let done = s.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finished_at, expected);
        assert_eq!(done[0].latency(), expected, "submitted at t=0");
    }

    #[test]
    fn interactive_lane_jumps_the_backlog() {
        // One slot; a long request occupies the engine, a pile of
        // background work queues behind it, then an interactive request
        // arrives late. Lane-aware admission must serve it next.
        let mut cfg = toy_cfg(1, true).with_interactive_lane(0);
        cfg.max_running = 1;
        let mut s = SimServer::new(cfg);
        s.submit(VirtualTime::ZERO, req(0, 0, 300, 3)); // running
        for i in 1..=4 {
            s.submit(VirtualTime::from_micros(1), req(i, 0, 100, 3));
        }
        s.submit(
            VirtualTime::from_micros(2),
            req(99, u64::MAX, 100, 3).interactive(), // worst step priority
        );
        let done = s.drain();
        let order: Vec<u64> = done.iter().map(|c| c.req.id.0).collect();
        assert_eq!(order[0], 0, "running request is never preempted");
        assert_eq!(
            order[1], 99,
            "interactive must jump all background work: {order:?}"
        );
    }

    #[test]
    fn lane_ignored_when_not_aware() {
        let mut cfg = toy_cfg(1, false);
        cfg.max_running = 1;
        let mut s = SimServer::new(cfg);
        s.submit(VirtualTime::ZERO, req(0, 0, 300, 3));
        s.submit(VirtualTime::from_micros(1), req(1, 0, 100, 3));
        s.submit(VirtualTime::from_micros(2), req(2, 0, 100, 3).interactive());
        let done = s.drain();
        let order: Vec<u64> = done.iter().map(|c| c.req.id.0).collect();
        assert_eq!(order, vec![0, 1, 2], "FIFO when lanes are off");
    }

    #[test]
    fn interactive_reserve_holds_batch_slots() {
        // 4 slots with 2 reserved: a background flood may only fill 2, so
        // an interactive arrival is admitted at the very next iteration
        // boundary instead of waiting for a background decode to finish.
        let cfg = toy_cfg(1, true).with_interactive_lane(2);
        let mut s = SimServer::new(cfg);
        for i in 0..8 {
            s.submit(VirtualTime::ZERO, req(i, 0, 50, 40)); // long decodes
        }
        // Let a few iterations pass, then the player speaks.
        let mid = s.next_event().expect("busy");
        s.advance(mid, &mut Vec::new());
        assert!(
            s.replicas[0].running.len() <= 2,
            "background must not exceed max_running - reserve"
        );
        s.submit(mid, req(100, 0, 20, 2).interactive());
        let done = s.drain();
        let interactive = done.iter().find(|c| c.req.id.0 == 100).expect("completed");
        let first_bg_done = done
            .iter()
            .filter(|c| c.req.id.0 < 8)
            .map(|c| c.finished_at)
            .min()
            .expect("background completes");
        assert!(
            interactive.finished_at < first_bg_done,
            "reserved slots must let the interactive request overtake: {:?} vs {:?}",
            interactive.finished_at,
            first_bg_done
        );
    }

    #[test]
    fn reserve_never_starves_background() {
        let cfg = toy_cfg(1, true).with_interactive_lane(3); // 1 slot left
        let mut s = SimServer::new(cfg);
        for i in 0..5 {
            s.submit(VirtualTime::ZERO, req(i, 0, 50, 5));
        }
        assert_eq!(s.drain().len(), 5, "background still completes");
    }

    #[test]
    #[should_panic(expected = "must leave background slots")]
    fn full_reserve_rejected() {
        let _ = toy_cfg(1, true).with_interactive_lane(4);
    }

    #[test]
    fn completion_latency_includes_queueing() {
        let mut cfg = toy_cfg(1, true);
        cfg.max_running = 1;
        let mut s = SimServer::new(cfg);
        s.submit(VirtualTime::ZERO, req(0, 0, 200, 2));
        s.submit(VirtualTime::ZERO, req(1, 0, 200, 2));
        let done = s.drain();
        let second = done.iter().find(|c| c.req.id.0 == 1).unwrap();
        assert_eq!(second.submitted_at, VirtualTime::ZERO);
        assert!(
            second.latency() > done[0].latency(),
            "queued request's latency includes the wait"
        );
    }

    #[test]
    fn batching_beats_serial() {
        // 4 identical decode-heavy requests: batched completion must be much
        // faster than 4x the single-request latency.
        let cfg = toy_cfg(1, true);
        let single = cfg.cost.isolated_latency(10, 50, cfg.prefill_chunk);
        let mut s = SimServer::new(cfg);
        for i in 0..4 {
            s.submit(VirtualTime::ZERO, req(i, 0, 10, 50));
        }
        let done = s.drain();
        assert_eq!(done.len(), 4);
        let makespan = done.iter().map(|c| c.finished_at).max().unwrap();
        let serial = VirtualTime::from_micros(single.as_micros() * 4);
        assert!(
            makespan.as_micros() < serial.as_micros() / 2,
            "batched {makespan} vs serial {serial}"
        );
    }

    #[test]
    fn priority_admission_prefers_lower_steps() {
        // max_running=4; submit 8 requests while the replica is busy with a
        // long prefill, steps descending. With priority on, the four
        // lowest-step requests must finish before the four highest.
        let mut cfg = toy_cfg(1, true);
        cfg.max_running = 2;
        let mut s = SimServer::new(cfg);
        s.submit(VirtualTime::ZERO, req(99, 0, 512, 1)); // occupy the engine
        for i in 0..6u64 {
            s.submit(VirtualTime::from_micros(1), req(i, 100 - i, 50, 5));
        }
        let done = s.drain();
        let order: Vec<u64> = done.iter().map(|c| c.req.id.0).collect();
        let pos = |id: u64| order.iter().position(|x| *x == id).unwrap();
        // Request 5 has the lowest step (95), request 0 the highest (100).
        assert!(
            pos(5) < pos(0),
            "low-step request must complete first: {order:?}"
        );
        assert!(pos(4) < pos(1), "priority order violated: {order:?}");
    }

    #[test]
    fn fifo_when_priority_disabled() {
        let mut cfg = toy_cfg(1, false);
        cfg.max_running = 1;
        let mut s = SimServer::new(cfg);
        s.submit(VirtualTime::ZERO, req(0, 50, 50, 2));
        s.submit(VirtualTime::ZERO, req(1, 10, 50, 2)); // lower step, later arrival
        s.submit(VirtualTime::ZERO, req(2, 1, 50, 2));
        let done = s.drain();
        let order: Vec<u64> = done.iter().map(|c| c.req.id.0).collect();
        assert_eq!(order, vec![0, 1, 2], "FIFO must ignore steps");
    }

    #[test]
    fn kv_capacity_limits_admission() {
        let mut cfg = toy_cfg(1, true);
        cfg.kv_capacity_tokens = 250; // fits two of (100+5) but not three
        let mut s = SimServer::new(cfg);
        for i in 0..3 {
            s.submit(VirtualTime::ZERO, req(i, 0, 100, 5));
        }
        let done = s.drain();
        assert_eq!(done.len(), 3, "third request runs after KV frees");
        // KV allowed at most two of (100+5 reserved tokens) at once.
        assert_eq!(s.metrics().replicas[0].peak_running, 2);
    }

    #[test]
    fn oversized_request_still_admitted_alone() {
        let mut cfg = toy_cfg(1, true);
        cfg.kv_capacity_tokens = 50; // smaller than the request itself
        let mut s = SimServer::new(cfg);
        s.submit(VirtualTime::ZERO, req(0, 0, 100, 5));
        let done = s.drain();
        assert_eq!(done.len(), 1, "a lone oversized request must not deadlock");
    }

    #[test]
    fn routing_balances_across_replicas() {
        let cfg = toy_cfg(4, true);
        let mut s = SimServer::new(cfg);
        for i in 0..8 {
            s.submit(VirtualTime::ZERO, req(i, 0, 50, 5));
        }
        // Shortest-queue routing spreads the 8 requests 2 per replica
        // (running + pending, since the first admit starts an iteration).
        let loads: Vec<usize> = s
            .replicas
            .iter()
            .map(|r| r.running.len() + r.pending.len())
            .collect();
        assert_eq!(
            loads,
            vec![2, 2, 2, 2],
            "shortest-queue routing should balance"
        );
        let done = s.drain();
        assert_eq!(done.len(), 8);
        let m = s.metrics();
        assert!(m.replicas.iter().all(|r| r.completed == 2));
    }

    #[test]
    fn more_replicas_cut_makespan() {
        let mk = |replicas: u32| {
            let mut s = SimServer::new(toy_cfg(replicas, true));
            for i in 0..32 {
                s.submit(VirtualTime::ZERO, req(i, 0, 200, 20));
            }
            s.drain().iter().map(|c| c.finished_at).max().unwrap()
        };
        let t1 = mk(1);
        let t4 = mk(4);
        assert!(
            t4.as_micros() * 2 < t1.as_micros(),
            "4 replicas should be >2x faster: {t1} vs {t4}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut s = SimServer::new(toy_cfg(2, true));
            for i in 0..20 {
                s.submit(
                    VirtualTime::from_micros(i * 13),
                    req(
                        i,
                        (i * 7) % 5,
                        30 + (i as u32 * 17) % 200,
                        1 + (i as u32) % 9,
                    ),
                );
            }
            s.drain()
                .iter()
                .map(|c| (c.req.id.0, c.finished_at.as_micros(), c.replica))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn metrics_account_tokens_and_parallelism() {
        let mut s = SimServer::new(toy_cfg(1, true));
        s.submit(VirtualTime::ZERO, req(0, 0, 100, 10));
        s.submit(VirtualTime::ZERO, req(1, 0, 60, 4));
        let done = s.drain();
        let makespan = done.iter().map(|c| c.finished_at).max().unwrap();
        let m = s.metrics();
        assert_eq!(m.submitted, 2);
        assert_eq!(m.completed, 2);
        assert_eq!(m.replicas[0].prefill_tokens, 160);
        assert_eq!(m.replicas[0].decode_tokens, 14);
        let par = m.achieved_parallelism(makespan);
        assert!(par > 1.0 && par <= 2.0, "parallelism {par} out of range");
        let util = m.utilization(makespan);
        assert!(
            util > 0.9,
            "single busy replica should be ~fully utilized, got {util}"
        );
    }

    #[test]
    fn advance_between_events_is_safe() {
        let mut s = SimServer::new(toy_cfg(1, true));
        s.submit(VirtualTime::ZERO, req(0, 0, 100, 2));
        let mid = VirtualTime::from_micros(1);
        let mut done = Vec::new();
        s.advance(mid, &mut done);
        assert!(done.is_empty());
        assert_eq!(s.now(), mid);
        let done = s.drain();
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn advance_past_ends_out_of_replica_order_keeps_time_monotone() {
        // Replica 0 prefills a 512-token chunk (ends at 5120 µs), replica
        // 1 a 10-token prompt (ends at 1000 µs). One advance far past both
        // must process replica 1's end first instead of stepping the clock
        // back to it.
        let mut s = SimServer::new(ServerConfig::from_preset(
            crate::presets::tiny_test(),
            2,
            true,
        ));
        s.submit(VirtualTime::ZERO, req(0, 0, 4_000, 2));
        s.submit(VirtualTime::ZERO, req(1, 0, 10, 2));
        assert_eq!(
            s.replicas[0].iter_end,
            Some(VirtualTime::from_micros(5_120))
        );
        assert_eq!(
            s.replicas[1].iter_end,
            Some(VirtualTime::from_micros(1_000))
        );
        let mut done = Vec::new();
        s.advance(VirtualTime::from_secs_f64(1_000.0), &mut done);
        let order: Vec<u64> = done.iter().map(|c| c.req.id.0).collect();
        assert_eq!(order, vec![1, 0], "completions in finish-time order");
        assert!(done[0].finished_at < done[1].finished_at);
        assert_eq!(s.outstanding(), 0);
        assert_eq!(s.now(), VirtualTime::from_secs_f64(1_000.0));
    }

    #[test]
    fn prefix_caching_speeds_up_repeat_agents() {
        // The same agent issues 6 prompts sharing a persona prefix; with
        // caching on, later prefills shrink and the batch finishes sooner
        // (the paper reports ~20% throughput from SGLang's cache, §4.1).
        let run = |caching: bool| {
            let mut cfg = toy_cfg(1, true);
            cfg.prefix_caching = caching;
            let mut s = SimServer::new(cfg);
            let mut at = VirtualTime::ZERO;
            for i in 0..6 {
                s.submit(
                    at,
                    LlmRequest::new(RequestId(i), 7, 0, 400, 4, CallKind::Plan),
                );
                at = at + VirtualTime::from_micros(1);
            }
            let done = s.drain();
            let end = done.iter().map(|c| c.finished_at).max().unwrap();
            (end, s.metrics().replicas[0].cached_prefill_tokens)
        };
        let (cold, cached_off) = run(false);
        let (warm, cached_on) = run(true);
        assert_eq!(cached_off, 0);
        assert!(cached_on > 0, "cache must register hits");
        assert!(
            warm < cold,
            "caching must reduce completion time: {warm} vs {cold}"
        );
    }

    #[test]
    fn prefix_cache_is_per_agent() {
        let mut cfg = toy_cfg(1, true);
        cfg.prefix_caching = true;
        let mut s = SimServer::new(cfg);
        // Two different agents: neither benefits from the other's prefix.
        s.submit(
            VirtualTime::ZERO,
            LlmRequest::new(RequestId(0), 1, 0, 400, 2, CallKind::Plan),
        );
        let _ = s.drain();
        s.submit(
            s.now(),
            LlmRequest::new(RequestId(1), 2, 0, 400, 2, CallKind::Plan),
        );
        let _ = s.drain();
        assert_eq!(
            s.metrics().replicas[0].cached_prefill_tokens,
            0,
            "agent 2 must not reuse agent 1's prefix"
        );
    }

    #[test]
    fn prefix_cache_counts_hits_and_misses() {
        let mut cfg = toy_cfg(1, true);
        cfg.prefix_caching = true;
        let mut s = SimServer::new(cfg);
        for i in 0..4u64 {
            s.submit(
                s.now(),
                LlmRequest::new(RequestId(i), 9, 0, 300, 2, CallKind::Plan),
            );
            let _ = s.drain();
        }
        let m = s.metrics().replicas[0];
        assert_eq!(m.prefix_misses, 1, "only the cold call misses");
        assert_eq!(m.prefix_hits, 3);
        assert_eq!(m.cached_prefill_tokens, 3 * 300);
    }

    #[test]
    fn bounded_prefix_cache_evicts_between_agents() {
        // Capacity 1: two agents alternating always evict each other, so
        // the cache never helps — the bounded-LRU behavior affinity
        // routing exists to exploit.
        let mut cfg = toy_cfg(1, true);
        cfg.prefix_caching = true;
        cfg.prefix_cache_entries = 1;
        let mut s = SimServer::new(cfg);
        for i in 0..6u64 {
            let agent = (i % 2) as u32 + 1;
            s.submit(
                s.now(),
                LlmRequest::new(RequestId(i), agent, 0, 300, 2, CallKind::Plan),
            );
            let _ = s.drain();
        }
        let m = s.metrics().replicas[0];
        assert_eq!(m.prefix_hits, 0, "alternating agents thrash a 1-entry LRU");
        assert_eq!(m.cached_prefill_tokens, 0);
    }

    #[test]
    fn template_prefix_shared_across_agents() {
        // Different agents of one persona template share the preamble:
        // the second agent's prefill is discounted by the shared prefix
        // even though the agent itself is cold.
        let mut cfg = toy_cfg(1, true);
        cfg.prefix_caching = true;
        let mut s = SimServer::new(cfg);
        s.submit(
            VirtualTime::ZERO,
            LlmRequest::new(RequestId(0), 1, 0, 400, 2, CallKind::Plan).with_template(3, 250),
        );
        let _ = s.drain();
        s.submit(
            s.now(),
            LlmRequest::new(RequestId(1), 2, 0, 400, 2, CallKind::Plan).with_template(3, 250),
        );
        let _ = s.drain();
        let m = s.metrics().replicas[0];
        assert_eq!(m.prefix_hits, 0, "agent entries were both cold");
        assert_eq!(
            m.cached_prefill_tokens, 250,
            "the template preamble must be reused across agents"
        );
    }

    #[test]
    fn zero_output_treated_as_one_token() {
        let mut s = SimServer::new(toy_cfg(1, true));
        s.submit(VirtualTime::ZERO, req(0, 0, 10, 0));
        assert_eq!(s.drain().len(), 1);
    }
}
