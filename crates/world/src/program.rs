//! Live execution: the village as a [`ClusterProgram`] for the threaded
//! runtime.
//!
//! This is the "developer side" of the paper's interface (§2.1): the
//! engine schedules clusters; this program supplies `agent.proceed`
//! (= [`Village::plan_step`] + real blocking LLM calls) and
//! `world.resolve_conflict_and_commit` (= [`Village::commit_step`]).
//! The world lock is held only while planning and committing — never
//! across LLM calls — so cluster members genuinely overlap their
//! inference time.

use std::sync::atomic::{AtomicU64, Ordering};

use aim_core::exec::threaded::ClusterProgram;
use aim_core::scheduler::Cluster;
use aim_core::space::{GridSpace, Point};
use aim_core::{AgentId, Step};
use aim_llm::{LlmBackend, LlmRequest, RequestId};
use parking_lot::Mutex;

use crate::village::{StepPlan, Village};

/// Drives a [`Village`] under the threaded engine (see module docs).
#[derive(Debug)]
pub struct VillageProgram {
    village: Mutex<Village>,
    req_ids: AtomicU64,
    calls_made: AtomicU64,
    /// Scheduler steps are 0-based; the world may have been warmed up to
    /// an absolute step already. `world step = step_offset + cluster step`.
    step_offset: u32,
}

impl VillageProgram {
    /// Wraps a village for live execution starting at world step 0.
    pub fn new(village: Village) -> Self {
        Self::with_step_offset(village, 0)
    }

    /// Wraps a pre-warmed village: the scheduler's step 0 corresponds to
    /// absolute world step `step_offset`.
    pub fn with_step_offset(village: Village, step_offset: u32) -> Self {
        VillageProgram {
            village: Mutex::new(village),
            req_ids: AtomicU64::new(0),
            calls_made: AtomicU64::new(0),
            step_offset,
        }
    }

    /// Committed agent positions (for seeding the scheduler).
    pub fn initial_positions(&self) -> Vec<Point> {
        self.village.lock().positions()
    }

    /// Total LLM calls issued so far.
    pub fn calls_made(&self) -> u64 {
        self.calls_made.load(Ordering::Relaxed)
    }

    /// The world-step offset this program was built with.
    pub fn step_offset(&self) -> u32 {
        self.step_offset
    }

    /// Serializes the village's runtime state
    /// ([`Village::capture_state`]) under the world lock.
    ///
    /// Call from a quiesced executor (the threaded runtime's checkpoint
    /// barrier): the capture is then a commit-boundary cut consistent
    /// with the scheduler's store.
    pub fn capture_state(&self) -> bytes::Bytes {
        self.village.lock().capture_state()
    }

    /// Consumes the program, returning the final world.
    pub fn into_village(self) -> Village {
        self.village.into_inner()
    }
}

impl ClusterProgram<GridSpace> for VillageProgram {
    type Action = StepPlan;

    fn agent_step(&self, agent: AgentId, step: Step, llm: &dyn LlmBackend) -> StepPlan {
        // Plan under the world lock (cheap, reads committed state only)…
        let (plan, template) = {
            let village = self.village.lock();
            let plan = village.plan_step(agent.0, self.step_offset + step.0);
            (plan, village.persona(agent.0).template)
        };
        // …then issue the plan's LLM calls without holding it. Calls are
        // tagged with the persona template so prefix-affinity routing and
        // replica prefix caches see the shared preamble (modeled as half
        // the prompt: system prompt + archetype scaffold).
        for call in &plan.calls {
            let id = RequestId(self.req_ids.fetch_add(1, Ordering::Relaxed));
            llm.call(
                &LlmRequest::new(
                    id,
                    agent.0,
                    step.priority(),
                    call.input_tokens,
                    call.output_tokens,
                    call.kind,
                )
                .with_template(template, call.input_tokens / 2),
            );
            self.calls_made.fetch_add(1, Ordering::Relaxed);
        }
        plan
    }

    fn commit(
        &self,
        cluster: &Cluster,
        actions: Vec<(AgentId, StepPlan)>,
    ) -> Vec<(AgentId, Point)> {
        let mut plans: Vec<(u32, StepPlan)> = actions.into_iter().map(|(a, p)| (a.0, p)).collect();
        let mut village = self.village.lock();
        village.commit_batch(self.step_offset + cluster.step.0, &mut plans);
        plans
            .into_iter()
            .map(|(a, p)| (AgentId(a), p.move_to))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::village::VillageConfig;
    use aim_core::exec::threaded::{run_threaded_observed, ThreadedConfig};
    use aim_core::policy::DependencyPolicy;
    use aim_core::prelude::*;
    use aim_llm::InstantBackend;
    use aim_store::Db;
    use std::sync::Arc;

    fn run_live(policy: DependencyPolicy, steps: u32) -> Village {
        let village = Village::generate(&VillageConfig {
            villes: 1,
            agents_per_ville: 10,
            seed: 5,
        });
        let program = Arc::new(VillageProgram::new(village));
        let initial = program.initial_positions();
        let mut sched = Scheduler::new(
            Arc::new(GridSpace::new(100, 140)),
            RuleParams::genagent(),
            policy,
            Arc::new(Db::new()),
            &initial,
            Step(steps),
        )
        .unwrap();
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        run_threaded_observed(
            &mut sched,
            Arc::clone(&program),
            backend,
            ThreadedConfig::default(),
            None,
            None,
        )
        .unwrap();
        assert!(sched.is_done());
        assert!(sched.graph().validate().is_ok());
        Arc::try_unwrap(program).expect("sole owner").into_village()
    }

    #[test]
    fn live_village_runs_under_metropolis() {
        // A morning window: agents asleep → no calls, but world advances.
        let v = run_live(DependencyPolicy::Spatiotemporal, 20);
        assert_eq!(
            v.events().len(),
            0,
            "asleep at midnight: no events in 20 steps"
        );
    }
}
