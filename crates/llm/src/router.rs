//! Request routing for a heterogeneous serving [`Fleet`].
//!
//! The paper's deployments route data-parallel replicas with a single
//! hard-wired shortest-queue rule inside [`crate::SimServer`]. A *fleet*
//! generalizes that: replicas may be entirely different backends (different
//! presets, a latency-replay engine, a real HTTP endpoint…), and the
//! routing rule is one of the five [`RoutePolicyKind`]s, chosen per
//! experiment — routing/placement policy dominates at scale.
//!
//! [`Fleet`]: crate::Fleet

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::request::{Lane, LlmRequest};

/// Seed of [`RoutePolicyKind::PrefixAffinity`]'s group hash — chosen so
/// the five built-in city persona templates spread over small (2–4
/// replica) test fleets instead of all hashing onto one replica.
const AFFINITY_SEED: u64 = 0xA1;

/// A router's read-only view of one fleet replica at decision time.
/// Plain data, constructible by tests and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaView {
    /// Replica index within the fleet (stable across the run).
    pub id: usize,
    /// Calls currently in flight on this replica.
    pub outstanding: usize,
    /// Estimated tokens (prompt + decode) of the calls currently in
    /// flight on this replica — the load signal
    /// [`RoutePolicyKind::TokenWeighted`] routes on: a replica chewing one
    /// 4k-token conversation is busier than one serving three 60-token
    /// perceive calls.
    pub outstanding_tokens: u64,
    /// Whether the replica is tagged for interactive traffic (see
    /// [`RoutePolicyKind::LaneAware`]).
    pub interactive: bool,
    /// Whether the replica accepts traffic: `false` once it has failed
    /// for good (its `fail_after` budget ran out). Every policy routes
    /// among available replicas first and falls back to the full fleet
    /// only when none is available (the fleet then panics: no replica is
    /// left that could serve).
    pub available: bool,
}

/// The available subset of `replicas`, or all of them when none is
/// available (the caller still has to pick *something*; the fleet layer
/// handles a truly dead fleet).
fn available_or_all(replicas: &[ReplicaView]) -> impl Iterator<Item = &ReplicaView> + Clone {
    let any_available = replicas.iter().any(|r| r.available);
    replicas
        .iter()
        .filter(move |r| r.available || !any_available)
}

/// The fewest in-flight calls, ties broken by lowest id.
fn least_outstanding_of<'a>(replicas: impl Iterator<Item = &'a ReplicaView>) -> Option<usize> {
    replicas.min_by_key(|r| (r.outstanding, r.id)).map(|r| r.id)
}

/// SplitMix64 finalizer — a cheap, well-mixed hash for group→replica
/// assignment (the same mixer the replay backend keys latencies with).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fleet's routing policy (used by [`crate::FleetConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicyKind {
    /// Cycles through the replicas in order, ignoring load and lanes.
    ///
    /// The baseline: perfectly fair in request *count*, oblivious to
    /// heterogeneity — a slow replica gets the same share as a fast one,
    /// which is exactly the failure mode the other policies exist to fix.
    RoundRobin,
    /// Routes to the replica with the fewest in-flight calls (join the
    /// shortest queue), ties broken by lowest replica id (the default).
    ///
    /// On a heterogeneous fleet this is self-balancing: a fast replica
    /// drains its queue sooner, stays short, and therefore absorbs
    /// proportionally more traffic than a slow one.
    #[default]
    LeastOutstanding,
    /// Routes to the replica with the smallest **outstanding token
    /// estimate** (prompt + decode tokens of its in-flight calls), ties
    /// broken by fewest in-flight calls then lowest id.
    ///
    /// Call *count* is a poor load proxy for LLM serving: per-request
    /// cost is dominated by token volume, and the workload mixes 60-token
    /// perceive calls with multi-thousand-token conversation chains (the
    /// Fig. 1 stragglers). Weighting by the tokens a replica still has in
    /// flight sends the next heavy call to the replica that will actually
    /// drain first. With a homogeneous all-light load it degrades to
    /// [`RoutePolicyKind::LeastOutstanding`].
    TokenWeighted,
    /// Partitions the fleet by service class (paper §6's hybrid
    /// deployment, fleet-level): [`Lane::Interactive`] requests go to
    /// replicas tagged `interactive`, background requests to the untagged
    /// rest, each side balanced by least-outstanding.
    ///
    /// Degrades gracefully: if the partition a request belongs to is
    /// empty (no replica tagged, or all tagged), the whole fleet is
    /// eligible — the policy then behaves exactly like
    /// [`RoutePolicyKind::LeastOutstanding`].
    LaneAware,
    /// Routes every request of one **routing group** (persona template
    /// when tagged, issuing agent otherwise —
    /// [`LlmRequest::routing_group`]) to the same replica, so the group's
    /// shared prompt prefix stays resident in that replica's cache.
    ///
    /// The anchor replica is a seeded hash of the group
    /// (`splitmix64(seed ^ group) % fleet_size`), which spreads groups
    /// across the fleet without any shared mutable state — a pure
    /// function of (group, replica count), hence deterministic for a
    /// fixed replica set and stable across threads and runs. When the
    /// anchor is unavailable (failed for good), the request probes
    /// linearly to the next available replica — its group's prefix is
    /// re-seeded there, degrading hit rate but never stalling a cluster
    /// on a dead replica.
    ///
    /// This is the OpenCity observation operationalized: massive-city
    /// personas come from a small template pool, so same-template agents
    /// share a long preamble, and affinity converts that structure into
    /// per-replica prefix-cache hits — measurable via
    /// `FleetReplicaMetrics::hit_rate` and the `repro city-fleet` sweep.
    PrefixAffinity,
}

impl RoutePolicyKind {
    /// All shipped policies, in display order.
    pub const ALL: [RoutePolicyKind; 5] = [
        RoutePolicyKind::RoundRobin,
        RoutePolicyKind::LeastOutstanding,
        RoutePolicyKind::TokenWeighted,
        RoutePolicyKind::LaneAware,
        RoutePolicyKind::PrefixAffinity,
    ];

    /// Stable policy name (for logs, metrics, and CLI round-trips).
    pub fn as_str(self) -> &'static str {
        match self {
            RoutePolicyKind::RoundRobin => "round-robin",
            RoutePolicyKind::LeastOutstanding => "least-outstanding",
            RoutePolicyKind::TokenWeighted => "token-weighted",
            RoutePolicyKind::LaneAware => "lane-aware",
            RoutePolicyKind::PrefixAffinity => "prefix-affinity",
        }
    }

    /// Picks the replica that serves `req`: an index `< replicas.len()`.
    ///
    /// `replicas` must be non-empty and ordered by replica id. `cursor`
    /// is the fleet's round-robin position; only
    /// [`RoutePolicyKind::RoundRobin`] reads or advances it.
    pub fn route(self, cursor: &AtomicUsize, req: &LlmRequest, replicas: &[ReplicaView]) -> usize {
        const NON_EMPTY: &str = "fleet has at least one replica";
        match self {
            RoutePolicyKind::RoundRobin => {
                let n = available_or_all(replicas).count();
                let pick = cursor.fetch_add(1, Ordering::Relaxed) % n;
                available_or_all(replicas).nth(pick).expect(NON_EMPTY).id
            }
            RoutePolicyKind::LeastOutstanding => {
                least_outstanding_of(available_or_all(replicas)).expect(NON_EMPTY)
            }
            RoutePolicyKind::TokenWeighted => {
                available_or_all(replicas)
                    .min_by_key(|r| (r.outstanding_tokens, r.outstanding, r.id))
                    .expect(NON_EMPTY)
                    .id
            }
            RoutePolicyKind::LaneAware => {
                let wants_interactive = req.lane == Lane::Interactive;
                least_outstanding_of(
                    available_or_all(replicas).filter(|r| r.interactive == wants_interactive),
                )
                .or_else(|| least_outstanding_of(available_or_all(replicas)))
                .expect(NON_EMPTY)
            }
            RoutePolicyKind::PrefixAffinity => {
                let n = replicas.len();
                let anchor = (splitmix64(AFFINITY_SEED ^ req.routing_group()) % n as u64) as usize;
                // Linear probe from the anchor to the first available
                // replica; a fully-unavailable fleet falls back to the
                // anchor itself.
                (0..n)
                    .map(|i| (anchor + i) % n)
                    .find(|&i| replicas[i].available)
                    .unwrap_or(anchor)
            }
        }
    }
}

impl fmt::Display for RoutePolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{CallKind, RequestId};
    use crate::{FleetConfig, ReplicaSpec};

    use RoutePolicyKind::*;

    fn req(lane: Lane) -> LlmRequest {
        let r = LlmRequest::new(RequestId(1), 0, 0, 10, 2, CallKind::Plan);
        match lane {
            Lane::Interactive => r.interactive(),
            Lane::Background => r,
        }
    }

    fn views(outstanding: &[usize]) -> Vec<ReplicaView> {
        outstanding
            .iter()
            .enumerate()
            .map(|(id, &o)| ReplicaView {
                id,
                outstanding: o,
                outstanding_tokens: o as u64 * 100,
                interactive: false,
                available: true,
            })
            .collect()
    }

    /// Routes through `kind` with a fresh round-robin cursor.
    fn route(kind: RoutePolicyKind, r: &LlmRequest, v: &[ReplicaView]) -> usize {
        kind.route(&AtomicUsize::new(0), r, v)
    }

    #[test]
    fn round_robin_cycles() {
        let cursor = AtomicUsize::new(0);
        let v = views(&[5, 0, 0]);
        let picks: Vec<usize> = (0..6)
            .map(|_| RoundRobin.route(&cursor, &req(Lane::Background), &v))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2], "load must be ignored");
    }

    #[test]
    fn least_outstanding_picks_min_then_lowest_id() {
        let r = req(Lane::Background);
        assert_eq!(route(LeastOutstanding, &r, &views(&[3, 1, 2])), 1);
        assert_eq!(route(LeastOutstanding, &r, &views(&[2, 1, 1])), 1);
        assert_eq!(route(LeastOutstanding, &r, &views(&[0, 0, 0])), 0);
    }

    #[test]
    fn token_weighted_prefers_lightest_token_load() {
        let r = req(Lane::Background);
        // Token estimate dominates: replica 1 has more calls in flight
        // but fewer outstanding tokens.
        let mut v = views(&[1, 3]);
        v[0].outstanding_tokens = 5_000;
        v[1].outstanding_tokens = 400;
        assert_eq!(route(TokenWeighted, &r, &v), 1);
        // Token tie → fewest calls → lowest id (degrades to
        // least-outstanding on uniform loads).
        let mut v = views(&[2, 1, 1]);
        for r in &mut v {
            r.outstanding_tokens = 700;
        }
        assert_eq!(route(TokenWeighted, &r, &v), 1);
        assert_eq!(route(TokenWeighted, &r, &views(&[0, 0])), 0);
    }

    #[test]
    fn lane_aware_partitions_by_tag() {
        let mut v = views(&[0, 9]);
        v[1].interactive = true;
        assert_eq!(route(LaneAware, &req(Lane::Background), &v), 0);
        assert_eq!(
            route(LaneAware, &req(Lane::Interactive), &v),
            1,
            "interactive must go to the tagged replica even when loaded"
        );
    }

    #[test]
    fn lane_aware_degrades_to_least_outstanding() {
        // No replica tagged: interactive falls back to the whole fleet.
        assert_eq!(
            route(LaneAware, &req(Lane::Interactive), &views(&[2, 1])),
            1
        );
        // All tagged: background falls back likewise.
        let mut v = views(&[2, 1]);
        v[0].interactive = true;
        v[1].interactive = true;
        assert_eq!(route(LaneAware, &req(Lane::Background), &v), 1);
    }

    #[test]
    fn every_policy_avoids_unavailable_replicas() {
        let mut v = views(&[0, 9]);
        v[0].available = false;
        for kind in RoutePolicyKind::ALL {
            let cursor = AtomicUsize::new(0);
            for lane in [Lane::Background, Lane::Interactive] {
                for _ in 0..4 {
                    assert_eq!(
                        kind.route(&cursor, &req(lane), &v),
                        1,
                        "{kind}: replica 0 is unavailable"
                    );
                }
            }
        }
    }

    #[test]
    fn fully_unavailable_fleet_still_routes_somewhere() {
        let mut v = views(&[1, 2]);
        v[0].available = false;
        v[1].available = false;
        for kind in RoutePolicyKind::ALL {
            let pick = route(kind, &req(Lane::Background), &v);
            assert!(pick < v.len(), "{kind}: index out of range");
        }
    }

    #[test]
    fn round_robin_cycles_over_available_subset() {
        let cursor = AtomicUsize::new(0);
        let mut v = views(&[0, 0, 0]);
        v[1].available = false;
        let picks: Vec<usize> = (0..4)
            .map(|_| RoundRobin.route(&cursor, &req(Lane::Background), &v))
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn prefix_affinity_is_deterministic_and_groups_stick() {
        let cursor = AtomicUsize::new(0);
        let v = views(&[3, 0, 1, 0]);
        let r = req(Lane::Background).with_template(2, 100);
        let first = PrefixAffinity.route(&cursor, &r, &v);
        for _ in 0..10 {
            assert_eq!(
                PrefixAffinity.route(&cursor, &r, &v),
                first,
                "same group must pin"
            );
        }
        // A fresh cursor: identical assignment (affinity keeps no
        // mutable state).
        assert_eq!(route(PrefixAffinity, &r, &v), first);
        // Load never moves a group; only availability does.
        let mut loaded = v.clone();
        loaded[first].outstanding = 999;
        loaded[first].outstanding_tokens = 1 << 40;
        assert_eq!(PrefixAffinity.route(&cursor, &r, &loaded), first);
    }

    #[test]
    fn prefix_affinity_spreads_groups_and_probes_on_failure() {
        let v = views(&[0, 0]);
        // The five built-in city templates must not all collapse onto a
        // single replica of a 2-fleet (the constant seed is picked for
        // this; a collapse would make affinity == worst-case hotspot).
        let anchors: Vec<usize> = (0..5u32)
            .map(|t| {
                route(
                    PrefixAffinity,
                    &req(Lane::Background).with_template(t, 50),
                    &v,
                )
            })
            .collect();
        assert!(anchors.contains(&0) && anchors.contains(&1), "{anchors:?}");
        // Untagged requests group per agent and likewise spread.
        let by_agent: Vec<usize> = (0..16u32)
            .map(|a| {
                let r = LlmRequest::new(RequestId(1), a, 0, 10, 2, CallKind::Plan);
                route(PrefixAffinity, &r, &v)
            })
            .collect();
        assert!(by_agent.contains(&0) && by_agent.contains(&1));
        // When the anchor goes unavailable the group probes to the next
        // available replica instead of stalling.
        let t0 = req(Lane::Background).with_template(0, 50);
        let anchor = route(PrefixAffinity, &t0, &v);
        let mut degraded = v.clone();
        degraded[anchor].available = false;
        assert_eq!(route(PrefixAffinity, &t0, &degraded), 1 - anchor);
    }

    #[test]
    fn kind_roundtrip_and_names_match_policies() {
        let by_name = |s: &str| RoutePolicyKind::ALL.into_iter().find(|k| k.as_str() == s);
        for k in RoutePolicyKind::ALL {
            assert_eq!(by_name(k.as_str()), Some(k));
            assert_eq!(k.to_string(), k.as_str());
            let fleet = FleetConfig::new("names", k)
                .with_replica(ReplicaSpec::instant())
                .build();
            assert_eq!(
                fleet.metrics().policy,
                k.as_str(),
                "kind and fleet disagree"
            );
        }
        assert_eq!(by_name("nope"), None);
        assert_eq!(
            RoutePolicyKind::default(),
            RoutePolicyKind::LeastOutstanding
        );
    }
}
