//! Property tests for the serving simulator: conservation, monotonicity,
//! and determinism over arbitrary request mixes.

use aim_llm::{CallKind, CostModel, LlmRequest, RequestId, ServerConfig, SimServer, VirtualTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct ReqSpec {
    at_us: u64,
    step: u64,
    input: u32,
    output: u32,
}

fn arb_reqs(max: usize) -> impl Strategy<Value = Vec<ReqSpec>> {
    proptest::collection::vec(
        (0u64..500_000, 0u64..20, 1u32..2000, 0u32..64).prop_map(|(at_us, step, input, output)| {
            ReqSpec {
                at_us,
                step,
                input,
                output,
            }
        }),
        1..max,
    )
}

fn cfg(replicas: u32, max_running: u32, kv: u64, priority: bool) -> ServerConfig {
    ServerConfig {
        name: "prop".into(),
        replicas,
        cost: CostModel::new(2_000.0, 5.0, 150.0, 100.0),
        max_running,
        kv_capacity_tokens: kv,
        prefill_chunk: 256,
        priority_enabled: priority,
        lane_aware: false,
        interactive_reserve: 0,
        prefix_caching: false,
        prefix_cache_entries: 4096,
    }
}

fn run(cfg: ServerConfig, reqs: &[ReqSpec]) -> Vec<(u64, u64)> {
    let mut server = SimServer::new(cfg);
    let mut sorted = reqs.to_vec();
    sorted.sort_by_key(|r| r.at_us);
    let mut done = Vec::new();
    for (i, r) in sorted.iter().enumerate() {
        // Deliver any completions due before this arrival.
        while let Some(t) = server.next_event() {
            if t > VirtualTime::from_micros(r.at_us) {
                break;
            }
            server.advance(t, &mut done);
        }
        server.submit(
            VirtualTime::from_micros(r.at_us),
            LlmRequest::new(
                RequestId(i as u64),
                0,
                r.step,
                r.input,
                r.output,
                CallKind::Other,
            ),
        );
    }
    done.extend(server.drain());
    done.into_iter()
        .map(|c| (c.req.id.0, c.finished_at.as_micros()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every submitted request completes exactly once, never before its
    /// arrival plus its minimum possible service time.
    #[test]
    fn conservation_and_causality(reqs in arb_reqs(40), replicas in 1u32..4) {
        let done = run(cfg(replicas, 8, 1_000_000, true), &reqs);
        prop_assert_eq!(done.len(), reqs.len());
        let mut ids: Vec<u64> = done.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), reqs.len(), "duplicate completions");
        let mut sorted = reqs.clone();
        sorted.sort_by_key(|r| r.at_us);
        for (id, t) in &done {
            let r = &sorted[*id as usize];
            prop_assert!(*t > r.at_us, "completed before arrival");
        }
    }

    /// Identical inputs produce identical completions.
    #[test]
    fn deterministic(reqs in arb_reqs(30)) {
        let a = run(cfg(2, 8, 100_000, true), &reqs);
        let b = run(cfg(2, 8, 100_000, true), &reqs);
        prop_assert_eq!(a, b);
    }

    /// Tiny KV capacity never loses or duplicates requests and stays
    /// deterministic. (Timing under pressure is *not* monotone — deferring
    /// an admission can serendipitously help a later request, the classic
    /// scheduling anomaly — so only safety is asserted.)
    #[test]
    fn kv_pressure_is_safe(reqs in arb_reqs(24)) {
        let tight_a = run(cfg(1, 8, 2_048, true), &reqs);
        let tight_b = run(cfg(1, 8, 2_048, true), &reqs);
        prop_assert_eq!(tight_a.len(), reqs.len());
        let mut ids: Vec<u64> = tight_a.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), reqs.len());
        prop_assert_eq!(tight_a, tight_b);
    }

    /// For a simultaneous burst, adding replicas never increases the
    /// makespan by more than a few iteration boundaries. Strict
    /// monotonicity does NOT hold: the engine starts an iteration the
    /// moment the first request of the burst lands, so each replica can
    /// strand its first arrival in a lonely iteration while the
    /// single-replica deployment batches the same requests together — a
    /// Graham-type scheduling anomaly bounded by per-replica boundary
    /// misalignment, not a throughput loss.
    #[test]
    fn replicas_monotone_for_bursts_within_boundary_slack(reqs in arb_reqs(24)) {
        let burst: Vec<ReqSpec> =
            reqs.iter().map(|r| ReqSpec { at_us: 0, ..r.clone() }).collect();
        let one = run(cfg(1, 8, 1_000_000, true), &burst);
        let four = run(cfg(4, 8, 1_000_000, true), &burst);
        let end = |v: &[(u64, u64)]| v.iter().map(|(_, t)| *t).max().unwrap_or(0);
        // Slack: a handful of iteration floors (2 ms each) plus per-seq
        // decode boundary effects.
        let slack_us = 5 * 2_000 + 1_000;
        prop_assert!(
            end(&four) <= end(&one) + slack_us,
            "4 replicas {} vs 1 replica {} exceeds anomaly slack",
            end(&four),
            end(&one)
        );
    }

    /// Batch monotonicity of the cost model: more work never takes less
    /// time, and the floor is respected.
    #[test]
    fn cost_model_monotone(p in 0u32..4096, d in 0u32..256) {
        let m = CostModel::new(2_000.0, 5.0, 150.0, 100.0);
        let t = m.iter_time(p, d);
        prop_assert!(t >= m.iter_time(0, 0).min(t));
        prop_assert!(m.iter_time(p + 1, d) >= t);
        prop_assert!(m.iter_time(p, d + 1) >= t);
        prop_assert!(t.as_micros() >= 2_000);
    }
}
