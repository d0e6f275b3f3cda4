//! The routing table: every [`RoutePolicyKind`] routes one fixed request
//! stream over fixed replica views, and its picks must equal the
//! recorded table. The views vary in-flight calls, token load, lane tags
//! and availability, down to a fleet with no replica available; the
//! stream varies agent, persona template and lane. One round-robin
//! cursor runs through a policy's whole table, as a fleet's runs
//! through its calls.

use std::sync::atomic::AtomicUsize;

use aim_llm::{CallKind, LlmRequest, ReplicaView, RequestId, RoutePolicyKind};

/// Per replica: `(outstanding, outstanding_tokens, interactive,
/// available)`.
type Scenario = [(usize, u64, bool, bool); 4];

#[rustfmt::skip]
const SCENARIOS: [Scenario; 8] = [
    // Idle, untagged, all available.
    [(0, 0, false, true), (0, 0, false, true), (0, 0, false, true), (0, 0, false, true)],
    // Call count and token load disagree.
    [(3, 300, false, true), (1, 900, false, true), (2, 200, false, true), (1, 100, false, true)],
    // A token tie, broken by calls and then by id.
    [(2, 500, false, true), (1, 500, false, true), (1, 500, false, true), (0, 700, false, true)],
    // Two lanes: replicas 0 and 2 are tagged interactive.
    [(2, 40, true, true), (0, 10, false, true), (1, 900, true, true), (3, 20, false, true)],
    // Every replica tagged interactive.
    [(1, 100, true, true), (0, 300, true, true), (2, 50, true, true), (0, 200, true, true)],
    // Replicas 0 and 3 unavailable.
    [(0, 0, false, false), (2, 80, true, true), (1, 60, false, true), (0, 0, true, false)],
    // One replica left.
    [(5, 500, false, false), (0, 0, false, false), (4, 400, true, true), (1, 10, false, false)],
    // Nothing available: every policy must still name a replica.
    [(2, 20, true, false), (1, 90, false, false), (3, 10, true, false), (1, 30, false, false)],
];

/// Each policy's picks: one word per scenario, one digit per request of
/// [`stream`].
#[rustfmt::skip]
const EXPECTED: [(RoutePolicyKind, &str); 5] = [
    (RoutePolicyKind::RoundRobin,       "012301 230123 012301 230123 012301 121212 222222 230123"),
    (RoutePolicyKind::LeastOutstanding, "000000 111111 333333 111111 111111 222222 222222 111111"),
    (RoutePolicyKind::TokenWeighted,    "000000 333333 111111 111111 222222 222222 222222 222222"),
    (RoutePolicyKind::LaneAware,        "000000 111111 333333 121211 111111 212122 222222 101011"),
    (RoutePolicyKind::PrefixAffinity,   "202101 202101 202101 202101 202101 212111 222222 202101"),
];

fn views(scenario: &Scenario) -> Vec<ReplicaView> {
    scenario
        .iter()
        .enumerate()
        .map(
            |(id, &(outstanding, outstanding_tokens, interactive, available))| ReplicaView {
                id,
                outstanding,
                outstanding_tokens,
                interactive,
                available,
            },
        )
        .collect()
}

/// The request stream: `(agent, template, interactive)`.
fn stream() -> Vec<LlmRequest> {
    [
        (0, None, false),
        (1, None, true),
        (7, Some(0), false),
        (42, Some(3), true),
        (9, Some(1), false),
        (1_000, None, false),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (agent, template, interactive))| {
        let mut r = LlmRequest::new(RequestId(i as u64), agent, 0, 200, 8, CallKind::Plan);
        if let Some(t) = template {
            r = r.with_template(t, 100);
        }
        if interactive {
            r = r.interactive();
        }
        r
    })
    .collect()
}

#[test]
fn every_policy_reproduces_the_recorded_table() {
    let stream = stream();
    for (kind, want) in EXPECTED {
        let cursor = AtomicUsize::new(0);
        let words: Vec<String> = SCENARIOS
            .iter()
            .map(|scenario| {
                let views = views(scenario);
                stream
                    .iter()
                    .map(|r| {
                        let pick = kind.route(&cursor, r, &views);
                        char::from_digit(pick as u32, 10).expect("a four-replica pick")
                    })
                    .collect()
            })
            .collect();
        assert_eq!(words.join(" "), want, "{kind}");
    }
}
