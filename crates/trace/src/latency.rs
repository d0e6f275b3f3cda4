//! Mine **latency profiles** from traces: the export half of the
//! trace ↔ replay-serving loop.
//!
//! A [`aim_llm::ReplayBackend`] replays service latencies from a
//! [`LatencyProfile`]; this module produces such profiles from a workload
//! trace by replaying the trace's calls through the virtual-time
//! [`SimServer`] and recording each completion's end-to-end latency per
//! [`aim_llm::CallKind`]. `trace_tool latency` wraps [`mine`] on the
//! command line, and the resulting `.lat` file feeds straight back into a
//! fleet's replay replicas — so a heterogeneous fleet can mix simulated
//! engines with replicas that serve exactly the latency distribution a
//! reference deployment exhibited on this very workload.

use aim_llm::{LatencyProfile, LlmRequest, RequestId, ServerConfig, SimServer, VirtualTime};

use crate::format::Trace;

/// Replays `trace`'s calls through a [`SimServer`] configured by `cfg`
/// and collects per-kind completion latencies.
///
/// Calls arrive grouped by simulation step, `step_gap_us` apart — an
/// open-loop arrival process that exercises the server's queueing and
/// batching without needing a scheduler. A small gap models a saturated
/// out-of-order engine (latencies dominated by queueing), a large one an
/// idle engine (pure service latency).
///
/// # Panics
///
/// Panics if `cfg` is invalid for [`SimServer::new`].
pub fn mine(trace: &Trace, cfg: ServerConfig, step_gap_us: u64) -> LatencyProfile {
    let mut profile = LatencyProfile::new(format!(
        "{} @ {}",
        trace.meta().name.as_str(),
        cfg.name.as_str()
    ));
    let mut server = SimServer::new(cfg);
    let mut calls: Vec<_> = trace.calls().to_vec();
    calls.sort_by_key(|c| (c.step, c.agent, c.seq));
    let mut finished = Vec::new();
    for (i, c) in calls.iter().enumerate() {
        let at = VirtualTime::from_micros(c.step as u64 * step_gap_us);
        // Deliver completions due before this arrival.
        while let Some(t) = server.next_event() {
            if t > at {
                break;
            }
            server.advance(t, &mut finished);
            for done in finished.drain(..) {
                profile.push(done.req.kind, done.latency().as_micros());
            }
        }
        server.submit(
            at,
            LlmRequest::new(
                RequestId(i as u64),
                c.agent,
                c.step as u64,
                c.input_tokens,
                c.output_tokens,
                c.kind,
            ),
        );
    }
    for done in server.drain() {
        profile.push(done.req.kind, done.latency().as_micros());
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, GenConfig};
    use aim_llm::{presets, ReplayBackend};

    fn small_trace() -> Trace {
        gen::generate(&GenConfig {
            villes: 1,
            agents_per_ville: 8,
            seed: 11,
            window_start: gen::hour(12),
            window_len: 30,
        })
    }

    fn cfg() -> ServerConfig {
        ServerConfig::from_preset(presets::tiny_test(), 2, true)
    }

    #[test]
    fn mined_profile_covers_every_call() {
        let trace = small_trace();
        let profile = mine(&trace, cfg(), 1_000);
        assert_eq!(profile.len(), trace.calls().len(), "one sample per call");
        assert!(profile.mean_us() > 0.0, "tiny preset still takes time");
        assert!(profile.name().contains("test/tiny"));
    }

    #[test]
    fn mining_is_deterministic() {
        let trace = small_trace();
        assert_eq!(mine(&trace, cfg(), 1_000), mine(&trace, cfg(), 1_000));
    }

    #[test]
    fn tighter_arrivals_mean_more_queueing() {
        let trace = small_trace();
        let saturated = mine(&trace, cfg(), 10);
        let idle = mine(&trace, cfg(), 10_000_000);
        assert!(
            saturated.mean_us() > idle.mean_us(),
            "queueing must show up: {} vs {}",
            saturated.mean_us(),
            idle.mean_us()
        );
    }

    #[test]
    fn mined_profile_drives_a_replay_backend() {
        let trace = small_trace();
        let profile = mine(&trace, cfg(), 1_000);
        let backend = ReplayBackend::unpaced(profile.clone(), 42);
        let c = &trace.calls()[0];
        let req = LlmRequest::new(RequestId(0), c.agent, c.step as u64, 100, 5, c.kind);
        let drawn = backend.planned_latency_us(&req);
        assert!(
            profile.samples_for(c.kind).contains(&drawn),
            "replayed latency must come from the mined distribution"
        );
    }
}
