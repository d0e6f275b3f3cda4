//! Telemetry is an *observer*, not a participant: recording spans must
//! neither perturb scheduling nor invent work. Two properties pin that
//! down end to end:
//!
//! * **Determinism** — two identical seeded runs (one worker, instant
//!   backend) produce the identical order-normalized span structure:
//!   same span kinds with the same logical fields (agents, steps,
//!   cluster ids, request ids), same counters. Only timestamps — and
//!   the one counter that follows from them alone, how many helper
//!   threads the executor spawned — may differ between runs; the
//!   *structure* of what happened may not.
//! * **Decomposition discriminates policies** — the paper's core claim
//!   (§3.2) is that out-of-order execution removes global-barrier
//!   waiting. Running the same village against the same latency replay
//!   under GlobalSync and Spatiotemporal, the telemetry's blocked
//!   category must be strictly smaller under OOO, and both runs'
//!   four-way decompositions must cover ≥95% of the agent-time budget.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ai_metropolis::core::telemetry::{Counter, RunTelemetry, Telemetry};
use ai_metropolis::llm::{InstantBackend, LatencyProfile, LlmBackend, ReplayBackend};
use ai_metropolis::prelude::*;
use ai_metropolis::store::Db;
use ai_metropolis::world::program::VillageProgram;
use ai_metropolis::world::{clock_to_step, Village};

/// A [`VillageProgram`] whose request ids name the call — agent, step,
/// n-th call of that step — instead of being drawn from the program's one
/// shared counter. The members of a cluster may run side by side, so
/// which of two of them draws the lower number from a shared counter is
/// decided by the thread interleaving; these ids are not.
struct CallNamedIds(VillageProgram);

impl ClusterProgram<GridSpace> for CallNamedIds {
    type Action = <VillageProgram as ClusterProgram<GridSpace>>::Action;

    fn agent_step(&self, agent: AgentId, step: Step, llm: &dyn LlmBackend) -> Self::Action {
        let renamed = RenameCalls {
            inner: llm,
            calls: AtomicU64::new(0),
        };
        self.0.agent_step(agent, step, &renamed)
    }

    fn commit(
        &self,
        cluster: &Cluster,
        actions: Vec<(AgentId, Self::Action)>,
    ) -> Vec<(AgentId, Point)> {
        self.0.commit(cluster, actions)
    }
}

/// The backend one agent-step of [`CallNamedIds`] talks to.
struct RenameCalls<'a> {
    inner: &'a dyn LlmBackend,
    calls: AtomicU64,
}

impl LlmBackend for RenameCalls<'_> {
    fn call(&self, req: &LlmRequest) -> LlmResponse {
        let nth = self.calls.fetch_add(1, Ordering::Relaxed);
        assert!(nth < 1 << 8 && req.step < 1 << 24, "id fields overflow");
        let id = RequestId(u64::from(req.agent) << 32 | req.step << 8 | nth);
        self.inner.call(&LlmRequest { id, ..*req })
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Drives one observed village run — of the program `wrap` makes of the
/// village's — and returns its unified telemetry.
fn observed_run<P: ClusterProgram<GridSpace> + 'static>(
    seed: u64,
    policy: DependencyPolicy,
    backend: Arc<dyn LlmBackend>,
    workers: usize,
    steps: u32,
    wrap: impl FnOnce(VillageProgram) -> P,
) -> RunTelemetry {
    let start = clock_to_step(12, 0);
    let mut village = Village::generate(&VillageConfig {
        villes: 1,
        agents_per_ville: 12,
        seed,
    });
    village.run_lockstep(0, start, |_, _, _, _| {});
    let space = village.space();
    let program = VillageProgram::with_step_offset(village, start);
    let initial = program.initial_positions();
    let program = Arc::new(wrap(program));
    let mut sched = Scheduler::new(
        Arc::new(space),
        RuleParams::genagent(),
        policy,
        Arc::new(Db::new()),
        &initial,
        Step(steps),
    )
    .expect("scheduler");
    let report = run_threaded_observed(
        &mut sched,
        program,
        backend,
        ThreadedConfig {
            workers,
            priority_enabled: true,
        },
        None,
        Some(Arc::new(Telemetry::new())),
    )
    .expect("observed run");
    assert!(sched.is_done());
    report.telemetry.expect("telemetry sink was installed")
}

/// The order-normalized span structure: every span reduced to its
/// logical content (kind + ids, no timestamps, no track), sorted. Two
/// runs that did the same work have equal structures even if workers
/// interleaved differently in time.
///
/// Barrier-join waits are excluded: a `Blocked { reason: Barrier }`
/// span exists only when a member's finish-to-join gap is ≥ 1 µs, so
/// its *presence* is itself a wall-clock measurement — unlike every
/// other kind, whose presence is decided by the scheduling logic.
fn structure(rt: &RunTelemetry) -> Vec<String> {
    use ai_metropolis::core::telemetry::{BlockReason, SpanKind};
    let mut kinds: Vec<String> = rt
        .spans
        .iter()
        .filter(|s| {
            !matches!(
                s.kind,
                SpanKind::Blocked {
                    reason: BlockReason::Barrier,
                    ..
                }
            )
        })
        .map(|s| format!("{:?}", s.kind))
        .collect();
    kinds.sort();
    kinds
}

#[test]
fn identical_seeded_runs_have_identical_span_structure() {
    let run = || {
        observed_run(
            7,
            DependencyPolicy::Spatiotemporal,
            Arc::new(InstantBackend::new()),
            1,
            30,
            CallNamedIds,
        )
    };
    let (a, b) = (run(), run());

    assert_eq!(a.agents, b.agents);
    assert_eq!(a.dropped, 0, "test-sized runs must not overflow the buffer");
    assert_eq!(b.dropped, 0);
    // How many helper threads a run spawns is decided by which steps
    // happened to overlap — a wall-clock outcome, like the barrier
    // spans `structure` leaves out; every other counter is decided by
    // the work done.
    let logical = |rt: &RunTelemetry| -> Vec<(Counter, u64)> {
        rt.counters
            .iter()
            .copied()
            .filter(|(c, _)| *c != Counter::AgentThreadsSpawned)
            .collect()
    };
    assert_eq!(logical(&a), logical(&b), "counters diverged between runs");
    assert_eq!(
        structure(&a),
        structure(&b),
        "span structure diverged between identical seeded runs"
    );
    assert!(!a.spans.is_empty(), "an observed run records spans");
    assert!(
        a.decomposition.coverage() >= 0.95,
        "decomposition must cover ≥95% of the budget: {:?}",
        a.decomposition
    );
}

#[test]
fn ooo_blocks_strictly_less_than_lockstep() {
    // A latency replay with a heavy tail: most calls are fast, one in
    // four drags 12 ms. Under GlobalSync every agent waits for the
    // slowest conversation of the step; under Spatiotemporal only
    // spatial neighbors do.
    let profile = || {
        let mut p = LatencyProfile::new("tailed");
        for us in [200, 500, 1_000, 12_000] {
            p.push(ai_metropolis::llm::CallKind::Plan, us);
        }
        p
    };
    let steps = 8;
    let lockstep = observed_run(
        7,
        DependencyPolicy::GlobalSync,
        Arc::new(ReplayBackend::new(profile(), 64, 1.0)),
        4,
        steps,
        std::convert::identity,
    );
    let ooo = observed_run(
        7,
        DependencyPolicy::Spatiotemporal,
        Arc::new(ReplayBackend::new(profile(), 64, 1.0)),
        4,
        steps,
        std::convert::identity,
    );

    assert!(
        lockstep.decomposition.blocked_us > 0,
        "global barriers over a tailed replay must record blocked time: {:?}",
        lockstep.decomposition
    );
    assert!(
        ooo.decomposition.blocked_us < lockstep.decomposition.blocked_us,
        "OOO must block strictly less than lockstep: ooo {:?} vs lockstep {:?}",
        ooo.decomposition,
        lockstep.decomposition
    );
    for rt in [&lockstep, &ooo] {
        assert!(
            rt.decomposition.coverage() >= 0.95,
            "decomposition must cover ≥95% of the budget: {:?}",
            rt.decomposition
        );
    }
}
