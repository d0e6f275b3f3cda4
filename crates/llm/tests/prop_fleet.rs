//! Property tests for the fleet's prefix-cache accounting and
//! prefix-affinity routing: the lazy-deletion LRU must be *exactly* a
//! least-recently-observed cache (checked against a brute-force oracle),
//! an evicted prefix must never report a hit, hit/miss counters must be
//! exact over arbitrary prompt streams — including through a real
//! [`Fleet`] — and affinity routing must be a pure function of
//! (group, replica set).

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use aim_llm::{
    CallKind, Fleet, FleetConfig, LlmBackend, LlmRequest, PrefixLru, PrefixTracker, ReplicaSpec,
    ReplicaView, RequestId, RoutePolicyKind,
};
use proptest::prelude::*;

/// Brute-force least-recently-observed cache: a plain vector ordered by
/// recency (front = least recent), the executable spec `PrefixLru`'s
/// lazy-deletion implementation must match move for move.
struct OracleLru {
    cap: usize,
    /// `(key, cached_tokens)`, most recently observed at the back.
    entries: Vec<(u64, u32)>,
}

impl OracleLru {
    fn new(cap: usize) -> Self {
        OracleLru {
            cap,
            entries: Vec::new(),
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.entries.iter().any(|&(k, _)| k == key)
    }

    fn observe(&mut self, key: u64, tokens: u32) -> u32 {
        let matched = match self.entries.iter().position(|&(k, _)| k == key) {
            Some(pos) => {
                let (_, cached) = self.entries.remove(pos);
                self.entries.push((key, cached.max(tokens)));
                cached.min(tokens)
            }
            None => {
                self.entries.push((key, tokens));
                0
            }
        };
        if self.entries.len() > self.cap {
            self.entries.remove(0);
        }
        matched
    }
}

/// The tracker's documented composition, re-implemented on the oracle:
/// agent entry keyed by the raw id, template entry namespaced into the
/// top bit, hits counted on agent matches only.
struct OracleTracker {
    lru: OracleLru,
    hits: u64,
    misses: u64,
    matched_tokens: u64,
}

impl OracleTracker {
    fn new(cap: usize) -> Self {
        OracleTracker {
            lru: OracleLru::new(cap),
            hits: 0,
            misses: 0,
            matched_tokens: 0,
        }
    }

    fn observe(&mut self, agent: u32, template: Option<u32>, input: u32, shared: u32) -> u32 {
        let agent_matched = self.lru.observe(agent as u64, input);
        let template_matched = match template {
            Some(t) if shared > 0 => self.lru.observe((1u64 << 63) | t as u64, shared.min(input)),
            _ => 0,
        };
        if agent_matched > 0 {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        let matched = agent_matched.max(template_matched).min(input);
        self.matched_tokens += matched as u64;
        matched
    }
}

proptest! {
    /// The lazy-deletion LRU is indistinguishable from the brute-force
    /// least-recently-observed cache, observation for observation.
    #[test]
    fn lru_matches_brute_force_oracle(
        cap in 1usize..8,
        stream in proptest::collection::vec((0u64..12, 1u32..500), 1..200),
    ) {
        let mut lru = PrefixLru::new(cap);
        let mut oracle = OracleLru::new(cap);
        for (key, tokens) in stream {
            let got = lru.observe(key, tokens);
            let want = oracle.observe(key, tokens);
            prop_assert_eq!(got, want, "key {} tokens {}", key, tokens);
            prop_assert!(lru.len() <= cap, "resident set exceeded capacity");
            prop_assert_eq!(lru.len(), oracle.entries.len());
        }
    }

    /// An evicted prefix never matches: whenever the oracle says a key is
    /// not resident, the LRU must report a zero match for it.
    #[test]
    fn evicted_prefix_never_reports_a_hit(
        cap in 1usize..5,
        stream in proptest::collection::vec((0u64..10, 1u32..100), 1..300),
    ) {
        let mut lru = PrefixLru::new(cap);
        let mut oracle = OracleLru::new(cap);
        for (key, tokens) in stream {
            let resident = oracle.contains(key);
            let got = lru.observe(key, tokens);
            if !resident {
                prop_assert_eq!(got, 0, "key {} was absent/evicted yet matched", key);
            }
            oracle.observe(key, tokens);
        }
    }

    /// Tracker counters (hits, misses, matched tokens) are exact over
    /// arbitrary prompt streams, templated and not.
    #[test]
    fn tracker_counters_match_oracle(
        cap in 1usize..16,
        stream in proptest::collection::vec(
            (0u32..10, (0u32..5).prop_map(|v| v.checked_sub(1)), 1u32..800, 0u32..400),
            1..200,
        ),
    ) {
        let mut tracker = PrefixTracker::new(cap);
        let mut oracle = OracleTracker::new(cap);
        for (agent, template, input, shared) in stream {
            let got = tracker.observe(agent, template, input, shared);
            let want = oracle.observe(agent, template, input, shared);
            prop_assert_eq!(got, want);
        }
        let s = tracker.stats();
        prop_assert_eq!(s.hits, oracle.hits);
        prop_assert_eq!(s.misses, oracle.misses);
        prop_assert_eq!(s.matched_tokens, oracle.matched_tokens);
    }

    /// Prefix-affinity routing is a pure function of (routing group,
    /// replica set): deterministic across calls and across round-robin
    /// cursors, always in range, and never picks an unavailable replica
    /// while an available one exists.
    #[test]
    fn prefix_affinity_is_deterministic_and_respects_availability(
        agent in any::<u32>(),
        template in (any::<u32>(), any::<bool>()).prop_map(|(t, some)| some.then_some(t)),
        n in 1usize..8,
        avail_bits in any::<u8>(),
    ) {
        let views: Vec<ReplicaView> = (0..n)
            .map(|id| ReplicaView {
                id,
                outstanding: id,        // varying load must not matter
                outstanding_tokens: (id as u64) * 17,
                interactive: id % 2 == 0,
                available: avail_bits & (1 << id) != 0,
            })
            .collect();
        let mut req = LlmRequest::new(RequestId(1), agent, 0, 100, 4, CallKind::Plan);
        if let Some(t) = template {
            req = req.with_template(t, 50);
        }
        let policy = RoutePolicyKind::PrefixAffinity;
        let cursor = AtomicUsize::new(0);
        let pick = policy.route(&cursor, &req, &views);
        prop_assert!(pick < n, "route must stay in range");
        prop_assert_eq!(pick, policy.route(&cursor, &req, &views), "same cursor, same pick");
        prop_assert_eq!(
            pick,
            policy.route(&AtomicUsize::new(7), &req, &views),
            "fresh cursor, same pick"
        );
        if views.iter().any(|v| v.available) {
            prop_assert!(views[pick].available, "picked a dead replica over a live one");
        }
    }

    /// End to end through a real [`Fleet`]: sequential round-robin calls
    /// land on replica `i % n`, so each replica's hit/miss/matched
    /// counters must equal an oracle tracker fed exactly its share of the
    /// stream — including evictions from a deliberately tiny LRU.
    #[test]
    fn fleet_counters_match_oracle_under_round_robin(
        n in 1usize..4,
        lru_entries in 1u32..6,
        stream in proptest::collection::vec(
            (0u32..6, (0u32..4).prop_map(|v| v.checked_sub(1)), 1u32..300, 0u32..150),
            1..120,
        ),
    ) {
        let mut cfg = FleetConfig::new("prop", RoutePolicyKind::RoundRobin)
            .with_prefix_lru_entries(lru_entries);
        for _ in 0..n {
            cfg = cfg.with_replica(ReplicaSpec::instant());
        }
        let fleet: Arc<Fleet> = Arc::new(cfg.build());
        let mut oracles: Vec<OracleTracker> = (0..n)
            .map(|_| OracleTracker::new(lru_entries as usize))
            .collect();
        for (i, &(agent, template, input, shared)) in stream.iter().enumerate() {
            let mut req = LlmRequest::new(RequestId(i as u64), agent, 0, input, 2, CallKind::Plan);
            if let Some(t) = template {
                req = req.with_template(t, shared);
            }
            fleet.call(&req);
            oracles[i % n].observe(agent, template, input, if template.is_some() { shared } else { 0 });
        }
        let m = fleet.metrics();
        for (r, oracle) in m.replicas.iter().zip(&oracles) {
            prop_assert_eq!(r.prefix.hits, oracle.hits, "replica {} hits", r.replica);
            prop_assert_eq!(r.prefix.misses, oracle.misses, "replica {} misses", r.replica);
            prop_assert_eq!(
                r.prefix.matched_tokens,
                oracle.matched_tokens,
                "replica {} matched tokens",
                r.replica
            );
        }
    }
}
