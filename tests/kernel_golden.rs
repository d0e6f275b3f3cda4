//! Golden reference for the virtual-time drivers.
//!
//! `run_sim`, `run_spec_sim` and `run_hybrid_sim` are exact functions of
//! their event order (see `aim_core::exec`), so their whole output can be
//! pinned: two workloads are pushed through every driver × policy ×
//! executor configuration and each report is compared, field by field,
//! with a line recorded from the three stand-alone event loops that
//! preceded the shared kernel. A line that moves means the event order
//! moved. To re-record (only when a behaviour change is intended), run
//! with `KERNEL_GOLDEN_RECORD=1 cargo test --test kernel_golden -- --nocapture`
//! and paste the printed rows over the two `*_GOLDEN` tables.

use std::fmt::Write as _;
use std::sync::Arc;

use ai_metropolis::core::exec::hybrid::{run_hybrid_sim, InteractiveLoad, InteractiveReport};
use ai_metropolis::core::exec::sim::{run_sim, SimConfig};
use ai_metropolis::core::metrics::RunReport;
use ai_metropolis::core::spec::{run_spec_sim, SpecParams, SpecScheduler};
use ai_metropolis::core::{AgentId, Step};
use ai_metropolis::llm::{presets, ServerConfig, SimServer};
use ai_metropolis::prelude::*;
use ai_metropolis::store::Db;
use ai_metropolis::trace::{gen, oracle};
use ai_metropolis::world::clock_to_step;

/// Twelve agents pacing a 64-wide corridor in three lanes: each walks
/// east and west one cell per step between its own turning points, so
/// pairs drift into coupling range, travel together, and separate again.
/// Agent 0 carries one long call every eighth step (a straggler that
/// holds its neighbours back and makes run-ahead misspeculate); every
/// third agent-step issues no call at all.
struct Corridor;

impl Corridor {
    const AGENTS: u32 = 12;
    const STEPS: u32 = 48;

    /// Position after `t` moves (`t == 0` is the initial position).
    fn at(agent: AgentId, t: u32) -> Point {
        let a = agent.0;
        let span = 10 + 3 * (a % 4); // cells between the turning points
        let phase = (a * 5) % (2 * span);
        let k = (phase + t) % (2 * span);
        let offset = if k <= span { k } else { 2 * span - k };
        Point::new((4 * a + offset) as i32, (a % 3) as i32 * 3)
    }
}

impl Workload<Point> for Corridor {
    fn num_agents(&self) -> usize {
        Self::AGENTS as usize
    }
    fn target_step(&self) -> Step {
        Step(Self::STEPS)
    }
    fn initial_pos(&self, agent: AgentId) -> Point {
        Self::at(agent, 0)
    }
    fn calls(&self, agent: AgentId, step: Step) -> Vec<CallSpec> {
        let (a, s) = (agent.0, step.0);
        if a == 0 && s % 8 == 0 {
            return vec![CallSpec::new(600, 900, CallKind::Reflect)];
        }
        let n = (a + 2 * s) % 3;
        (0..n)
            .map(|i| {
                let kind = CallKind::ALL[((a + s + i) % 7) as usize];
                CallSpec::new(
                    60 + 37 * ((a + s) % 5) + 11 * i,
                    4 + (a * 3 + s + i) % 17,
                    kind,
                )
            })
            .collect()
    }
    fn pos_after(&self, agent: AgentId, step: Step) -> Point {
        Self::at(agent, step.0 + 1)
    }
}

/// The interaction oracle of a workload: per step, the pairs within
/// `radius_p` of each other at the step's start.
fn mine_oracle<W: Workload<Point>>(w: &W, radius_p: u32) -> OracleGraph {
    let n = w.num_agents() as u32;
    let start = |a: u32, s: u32| match s {
        0 => w.initial_pos(AgentId(a)),
        _ => w.pos_after(AgentId(a), Step(s - 1)),
    };
    let r2 = u64::from(radius_p) * u64::from(radius_p);
    let pairs: Vec<Vec<(u32, u32)>> = (0..w.target_step().0)
        .map(|s| {
            (0..n)
                .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                .filter(|&(a, b)| start(a, s).dist2(start(b, s)) <= r2)
                .collect()
        })
        .collect();
    OracleGraph::from_interactions(n as usize, &pairs)
}

/// A workload plus everything needed to mount it.
struct Case<'a> {
    name: &'a str,
    workload: &'a dyn Workload<Point>,
    space: GridSpace,
    rules: RuleParams,
    oracle: Arc<OracleGraph>,
}

impl Case<'_> {
    fn initial(&self) -> Vec<Point> {
        (0..self.workload.num_agents() as u32)
            .map(|a| self.workload.initial_pos(AgentId(a)))
            .collect()
    }

    fn scheduler(&self, policy: DependencyPolicy) -> Scheduler<GridSpace> {
        Scheduler::new(
            Arc::new(self.space),
            self.rules,
            policy,
            Arc::new(Db::new()),
            &self.initial(),
            self.workload.target_step(),
        )
        .unwrap()
    }

    fn spec_scheduler(&self, runahead: u32) -> SpecScheduler<GridSpace> {
        SpecScheduler::new(
            Arc::new(self.space),
            self.rules,
            SpecParams::new(runahead),
            Arc::new(Db::new()),
            &self.initial(),
            self.workload.target_step(),
        )
        .unwrap()
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Every compared field of one run on one line: scalars in the clear,
/// the bulky parts (server metrics, timeline) as FNV-1a digests.
fn fingerprint(r: &RunReport, chat: Option<&InteractiveReport>) -> String {
    let mut out = format!(
        "mk={} calls={} in={} out={}",
        r.makespan.as_micros(),
        r.total_calls,
        r.total_input_tokens,
        r.total_output_tokens
    );
    let s = &r.sched;
    write!(
        out,
        " sched={}/{}/{}/{}/{}/{}",
        s.clusters_emitted,
        s.agent_steps,
        s.watcher_wakes,
        s.blocked_evals,
        s.max_step_skew,
        s.max_cluster_size
    )
    .unwrap();
    if let Some(sr) = &r.spec {
        let mut h = Fnv::new();
        h.bytes(format!("{:?}", sr.stats).as_bytes());
        write!(
            out,
            " spec={}/{}/{}/{:016x} waste={}/{}/{}",
            sr.stats.emitted_spec,
            sr.stats.squashed_steps,
            sr.stats.poisoned_steps,
            h.0,
            sr.wasted_calls,
            sr.wasted_input_tokens,
            sr.wasted_output_tokens
        )
        .unwrap();
    }
    let mut h = Fnv::new();
    h.bytes(format!("{:?}", r.server.as_ref().expect("server metrics")).as_bytes());
    write!(out, " srv={:016x}", h.0).unwrap();
    if let Some(tl) = &r.timeline {
        let mut h = Fnv::new();
        for sp in &tl.spans {
            for x in [
                u64::from(sp.agent.0),
                u64::from(sp.step.0),
                sp.kind.index() as u64,
                sp.start.as_micros(),
                sp.end.as_micros(),
            ] {
                h.u64(x);
            }
        }
        for (step, at) in &tl.commits {
            h.u64(u64::from(step.0));
            h.u64(at.as_micros());
        }
        write!(
            out,
            " tl={}/{}/{:016x}",
            tl.spans.len(),
            tl.commits.len(),
            h.0
        )
        .unwrap();
    }
    if let Some(c) = chat {
        write!(
            out,
            " chat={}/{}/{}/{}/{}/{}",
            c.count, c.mean_us, c.p50_us, c.p95_us, c.p99_us, c.max_us
        )
        .unwrap();
    }
    out
}

fn sim_configs() -> [(&'static str, SimConfig); 5] {
    let timeline = SimConfig {
        record_timeline: true,
        ..SimConfig::default()
    };
    [
        ("default", timeline.clone()),
        (
            "single-thread",
            SimConfig {
                record_timeline: true,
                ..SimConfig::single_thread()
            },
        ),
        (
            "slots2",
            SimConfig {
                max_concurrent_clusters: Some(2),
                ..timeline.clone()
            },
        ),
        (
            "fifo",
            SimConfig {
                priority_ready_queue: false,
                ..timeline.clone()
            },
        ),
        // Backlog order is only observable once the worker slots are
        // contended.
        (
            "fifo-slots2",
            SimConfig {
                priority_ready_queue: false,
                max_concurrent_clusters: Some(2),
                ..timeline
            },
        ),
    ]
}

fn server(replicas: u32) -> SimServer {
    SimServer::new(ServerConfig::from_preset(
        presets::tiny_test(),
        replicas,
        true,
    ))
}

/// Runs `case` through every driver and returns `(run name, fingerprint)`.
fn run_case(case: &Case<'_>) -> Vec<(String, String)> {
    let mut rows = Vec::new();
    let policies = [
        DependencyPolicy::GlobalSync,
        DependencyPolicy::Spatiotemporal,
        DependencyPolicy::Oracle(Arc::clone(&case.oracle)),
        DependencyPolicy::NoDependency,
    ];
    for policy in policies {
        for (cfg_name, cfg) in sim_configs() {
            let mut sched = case.scheduler(policy.clone());
            let r = run_sim(&mut sched, case.workload, &mut server(2), &cfg).unwrap();
            assert!(sched.graph().validate().is_ok());
            rows.push((
                format!("{}/{}/{cfg_name}", case.name, policy.label()),
                fingerprint(&r, None),
            ));
        }
    }
    let timeline = sim_configs()[0].1.clone();
    let slots2 = sim_configs()[2].1.clone();
    for (runahead, cfg_name, cfg) in [
        (0, "default", &timeline),
        (4, "default", &timeline),
        (4, "slots2", &slots2),
    ] {
        let mut sched = case.spec_scheduler(runahead);
        let r = run_spec_sim(&mut sched, case.workload, &mut server(2), cfg).unwrap();
        rows.push((
            format!("{}/spec{runahead}/{cfg_name}", case.name),
            fingerprint(&r, None),
        ));
    }
    // The hybrid driver predates timeline support, so these rows pin it
    // without one.
    let plain = SimConfig::default();
    let plain_slots2 = SimConfig {
        max_concurrent_clusters: Some(2),
        ..SimConfig::default()
    };
    for (cfg_name, cfg) in [("default", &plain), ("slots2", &plain_slots2)] {
        let mut sched = case.scheduler(DependencyPolicy::Spatiotemporal);
        let mut lane = SimServer::new(
            ServerConfig::from_preset(presets::tiny_test(), 1, true).with_interactive_lane(2),
        );
        let load = InteractiveLoad::chat(50_000, 40, 13);
        let (r, chat) = run_hybrid_sim(&mut sched, case.workload, &mut lane, &load, cfg).unwrap();
        rows.push((
            format!("{}/hybrid/{cfg_name}", case.name),
            fingerprint(&r, Some(&chat)),
        ));
    }
    rows
}

fn check(rows: &[(String, String)], golden: &[(&str, &str)]) {
    if std::env::var_os("KERNEL_GOLDEN_RECORD").is_some() {
        for (name, fp) in rows {
            println!("    (\"{name}\", \"{fp}\"),");
        }
        return;
    }
    assert_eq!(rows.len(), golden.len(), "run count changed");
    for ((name, fp), (g_name, g_fp)) in rows.iter().zip(golden) {
        assert_eq!(name, g_name, "run order changed");
        assert_eq!(fp, g_fp, "{name} moved off its recorded output");
    }
}

#[test]
fn corridor_matches_recorded_drivers() {
    let case = Case {
        name: "corridor",
        workload: &Corridor,
        space: GridSpace::new(80, 10),
        rules: RuleParams::genagent(),
        oracle: Arc::new(mine_oracle(&Corridor, RuleParams::genagent().radius_p)),
    };
    let rows = run_case(&case);
    check(&rows, CORRIDOR_GOLDEN);
}

#[test]
fn lunch_hour_matches_recorded_drivers() {
    let trace = gen::generate(&gen::GenConfig {
        villes: 1,
        agents_per_ville: 25,
        seed: 22,
        window_start: clock_to_step(12, 0),
        window_len: 120,
    });
    let meta = trace.meta();
    let case = Case {
        name: "lunch",
        workload: &trace,
        space: GridSpace::new(meta.map_width, meta.map_height),
        rules: RuleParams::new(meta.radius_p, meta.max_vel),
        oracle: Arc::new(oracle::mine(&trace)),
    };
    let rows = run_case(&case);
    check(&rows, LUNCH_GOLDEN);
}

const CORRIDOR_GOLDEN: &[(&str, &str)] = &[
    (
        "corridor/parallel-sync/default",
        "mk=7364500 calls=576 in=82144 out=12228 sched=48/576/0/0/0/12 srv=ceb95b5a323eada9 tl=576/48/9cb5e6ad62e3694c",
    ),
    (
        "corridor/parallel-sync/single-thread",
        "mk=13237200 calls=576 in=82144 out=12228 sched=48/576/0/0/0/12 srv=67158037207465b3 tl=576/48/61bb9ac400592f25",
    ),
    (
        "corridor/parallel-sync/slots2",
        "mk=7364500 calls=576 in=82144 out=12228 sched=48/576/0/0/0/12 srv=ceb95b5a323eada9 tl=576/48/9cb5e6ad62e3694c",
    ),
    (
        "corridor/parallel-sync/fifo",
        "mk=7364500 calls=576 in=82144 out=12228 sched=48/576/0/0/0/12 srv=ceb95b5a323eada9 tl=576/48/9cb5e6ad62e3694c",
    ),
    (
        "corridor/parallel-sync/fifo-slots2",
        "mk=7364500 calls=576 in=82144 out=12228 sched=48/576/0/0/0/12 srv=ceb95b5a323eada9 tl=576/48/9cb5e6ad62e3694c",
    ),
    (
        "corridor/metropolis/default",
        "mk=6511990 calls=576 in=82144 out=12228 sched=314/576/228/145/27/7 srv=b94ab55536e8ae33 tl=576/314/3a14f4c3b5b1d22c",
    ),
    (
        "corridor/metropolis/single-thread",
        "mk=14035200 calls=576 in=82144 out=12228 sched=314/576/108/54/1/7 srv=67158037207465b3 tl=576/314/d08f34e7e1d29ac8",
    ),
    (
        "corridor/metropolis/slots2",
        "mk=6651130 calls=576 in=82144 out=12228 sched=314/576/175/87/23/7 srv=83103486f10e1f40 tl=576/314/1a94010fbd2bf0cf",
    ),
    (
        "corridor/metropolis/fifo",
        "mk=6511990 calls=576 in=82144 out=12228 sched=314/576/228/145/27/7 srv=b94ab55536e8ae33 tl=576/314/3a14f4c3b5b1d22c",
    ),
    (
        "corridor/metropolis/fifo-slots2",
        "mk=7046100 calls=576 in=82144 out=12228 sched=314/576/205/112/24/7 srv=e6276052dd5fdcaa tl=576/314/8cafd3297a2a51eb",
    ),
    (
        "corridor/oracle/default",
        "mk=6304560 calls=576 in=82144 out=12228 sched=443/576/0/0/45/5 srv=1dc4b6581fe45367 tl=576/443/8542057f224f2bf4",
    ),
    (
        "corridor/oracle/single-thread",
        "mk=14422200 calls=576 in=82144 out=12228 sched=443/576/0/0/1/5 srv=67158037207465b3 tl=576/443/222291cd20aa2b93",
    ),
    (
        "corridor/oracle/slots2",
        "mk=6854700 calls=576 in=82144 out=12228 sched=443/576/0/0/7/5 srv=4fc8e1a317b925b8 tl=576/443/eccec34bea7071bc",
    ),
    (
        "corridor/oracle/fifo",
        "mk=6304560 calls=576 in=82144 out=12228 sched=443/576/0/0/45/5 srv=1dc4b6581fe45367 tl=576/443/8542057f224f2bf4",
    ),
    (
        "corridor/oracle/fifo-slots2",
        "mk=7916570 calls=576 in=82144 out=12228 sched=443/576/0/0/23/5 srv=67490d9ae4b58f26 tl=576/443/b7b2ef99e2840c38",
    ),
    (
        "corridor/no-dependency/default",
        "mk=6298900 calls=576 in=82144 out=12228 sched=576/576/0/0/48/1 srv=240a4aced27f1477 tl=576/576/a14ca8e34819b305",
    ),
    (
        "corridor/no-dependency/single-thread",
        "mk=14821200 calls=576 in=82144 out=12228 sched=576/576/0/0/1/1 srv=67158037207465b3 tl=576/576/f897e4432071505a",
    ),
    (
        "corridor/no-dependency/slots2",
        "mk=7415490 calls=576 in=82144 out=12228 sched=576/576/0/0/7/1 srv=d935ff0efa8e1461 tl=576/576/661edb53b019635c",
    ),
    (
        "corridor/no-dependency/fifo",
        "mk=6298900 calls=576 in=82144 out=12228 sched=576/576/0/0/48/1 srv=240a4aced27f1477 tl=576/576/a14ca8e34819b305",
    ),
    (
        "corridor/no-dependency/fifo-slots2",
        "mk=8449200 calls=576 in=82144 out=12228 sched=576/576/0/0/20/1 srv=a4da974ccd97d26d tl=576/576/cdde5271f71aaa19",
    ),
    (
        "corridor/spec0/default",
        "mk=6511990 calls=576 in=82144 out=12228 sched=314/576/0/0/27/7 spec=0/0/0/837e54aa354704c7 waste=0/0/0 srv=b94ab55536e8ae33 tl=576/314/3a14f4c3b5b1d22c",
    ),
    (
        "corridor/spec4/default",
        "mk=6495470 calls=666 in=94730 out=13259 sched=373/664/0/166/34/7 spec=105/85/3/2e9c09772c18186c waste=90/12586/1031 srv=1a8f11cfba7a65b1 tl=666/371/fbc27518385ad00e",
    ),
    (
        "corridor/spec4/slots2",
        "mk=6587260 calls=633 in=90250 out=12912 sched=343/627/0/50/12/7 spec=57/46/5/4f7a87ccb7d960c2 waste=57/8106/684 srv=7eb0aa397754da91 tl=633/341/12c0fff11034fa4e",
    ),
    (
        "corridor/hybrid/default",
        "mk=7034650 calls=576 in=82144 out=12228 sched=314/576/227/142/27/7 srv=2308fed2fc6b9267 chat=40/106038.05/101439/142561/146551/146551",
    ),
    (
        "corridor/hybrid/slots2",
        "mk=7130990 calls=576 in=82144 out=12228 sched=314/576/171/86/22/7 srv=cdbe3dea295c2f32 chat=40/94871.8/94863/104140/106877/106877",
    ),
];

const LUNCH_GOLDEN: &[(&str, &str)] = &[
    (
        "lunch/parallel-sync/default",
        "mk=14956180 calls=1201 in=760339 out=23591 sched=120/3000/0/0/0/25 srv=fe8b3364edd34b0d tl=1201/120/021da59d394cb025",
    ),
    (
        "lunch/parallel-sync/single-thread",
        "mk=31727490 calls=1201 in=760339 out=23591 sched=120/3000/0/0/0/25 srv=af3bd457cce246b5 tl=1201/120/968c8c70c3299957",
    ),
    (
        "lunch/parallel-sync/slots2",
        "mk=14956180 calls=1201 in=760339 out=23591 sched=120/3000/0/0/0/25 srv=fe8b3364edd34b0d tl=1201/120/021da59d394cb025",
    ),
    (
        "lunch/parallel-sync/fifo",
        "mk=14956180 calls=1201 in=760339 out=23591 sched=120/3000/0/0/0/25 srv=fe8b3364edd34b0d tl=1201/120/021da59d394cb025",
    ),
    (
        "lunch/parallel-sync/fifo-slots2",
        "mk=14956180 calls=1201 in=760339 out=23591 sched=120/3000/0/0/0/25 srv=fe8b3364edd34b0d tl=1201/120/021da59d394cb025",
    ),
    (
        "lunch/metropolis/default",
        "mk=11326460 calls=1201 in=760339 out=23591 sched=1956/3000/1342/1092/71/11 srv=e94096251afba6af tl=1201/1956/5b48c6ef1846104b",
    ),
    (
        "lunch/metropolis/single-thread",
        "mk=37235490 calls=1201 in=760339 out=23591 sched=1956/3000/256/133/1/11 srv=af3bd457cce246b5 tl=1201/1956/bf88bfa9335f4074",
    ),
    (
        "lunch/metropolis/slots2",
        "mk=17208120 calls=1201 in=760339 out=23591 sched=1956/3000/266/159/12/11 srv=d634ff421479395b tl=1201/1956/d19532744fc5c941",
    ),
    (
        "lunch/metropolis/fifo",
        "mk=11326460 calls=1201 in=760339 out=23591 sched=1956/3000/1342/1092/71/11 srv=e94096251afba6af tl=1201/1956/5b48c6ef1846104b",
    ),
    (
        "lunch/metropolis/fifo-slots2",
        "mk=17979240 calls=1201 in=760339 out=23591 sched=1956/3000/499/361/29/11 srv=4d85c640a96c3f7c tl=1201/1956/29b608348537522d",
    ),
    (
        "lunch/oracle/default",
        "mk=10728050 calls=1201 in=760339 out=23591 sched=2118/3000/0/0/111/8 srv=d8ff70ee6f711483 tl=1201/2118/7a35c46a6b05fe23",
    ),
    (
        "lunch/oracle/single-thread",
        "mk=37721490 calls=1201 in=760339 out=23591 sched=2118/3000/0/0/1/8 srv=af3bd457cce246b5 tl=1201/2118/4436def35fde96a6",
    ),
    (
        "lunch/oracle/slots2",
        "mk=17567540 calls=1201 in=760339 out=23591 sched=2118/3000/0/0/9/8 srv=c2bb7abf91f7d6e0 tl=1201/2118/3bb6eb822b69a6ee",
    ),
    (
        "lunch/oracle/fifo",
        "mk=10728050 calls=1201 in=760339 out=23591 sched=2118/3000/0/0/111/8 srv=d8ff70ee6f711483 tl=1201/2118/7a35c46a6b05fe23",
    ),
    (
        "lunch/oracle/fifo-slots2",
        "mk=18224660 calls=1201 in=760339 out=23591 sched=2118/3000/0/0/27/8 srv=604327ad154a8900 tl=1201/2118/de90bc2733bae25e",
    ),
    (
        "lunch/no-dependency/default",
        "mk=6233330 calls=1201 in=760339 out=23591 sched=3000/3000/0/0/111/1 srv=5fef9b501afbecd6 tl=1201/3000/9cac69bd735c154d",
    ),
    (
        "lunch/no-dependency/single-thread",
        "mk=40367490 calls=1201 in=760339 out=23591 sched=3000/3000/0/0/1/1 srv=af3bd457cce246b5 tl=1201/3000/a9dad787b367361b",
    ),
    (
        "lunch/no-dependency/slots2",
        "mk=20198550 calls=1201 in=760339 out=23591 sched=3000/3000/0/0/4/1 srv=2a9044b92f324578 tl=1201/3000/2b80e16cb9499e44",
    ),
    (
        "lunch/no-dependency/fifo",
        "mk=6233330 calls=1201 in=760339 out=23591 sched=3000/3000/0/0/111/1 srv=5fef9b501afbecd6 tl=1201/3000/9cac69bd735c154d",
    ),
    (
        "lunch/no-dependency/fifo-slots2",
        "mk=20185800 calls=1201 in=760339 out=23591 sched=3000/3000/0/0/8/1 srv=4b379765cfb8ede2 tl=1201/3000/5cec277b8cb1671e",
    ),
    (
        "lunch/spec0/default",
        "mk=11326460 calls=1201 in=760339 out=23591 sched=1956/3000/0/0/71/11 spec=0/0/0/526bb6d62ebd7033 waste=0/0/0 srv=e94096251afba6af tl=1201/1956/5b48c6ef1846104b",
    ),
    (
        "lunch/spec4/default",
        "mk=11106250 calls=1233 in=779976 out=24280 sched=2002/3073/0/1104/74/11 spec=976/64/9/83d274cd8daeda8d waste=32/19637/689 srv=eee37603adbf6ad3 tl=1233/1999/34291a855ac3b725",
    ),
    (
        "lunch/spec4/slots2",
        "mk=17258460 calls=1207 in=763979 out=23688 sched=1965/3018/0/43/12/11 spec=123/18/0/59a7321f3944e19e waste=6/3640/97 srv=65afae19087a7e43 tl=1207/1965/80624e64eb79eadc",
    ),
    (
        "lunch/hybrid/default",
        "mk=14783120 calls=1201 in=760339 out=23591 sched=1956/3000/1345/1095/70/11 srv=ca886f0c76e52f87 chat=40/221483.05/218286/264991/276210/276210",
    ),
    (
        "lunch/hybrid/slots2",
        "mk=20265860 calls=1201 in=760339 out=23591 sched=1956/3000/265/160/12/11 srv=64d342112ed903ce chat=40/127020.8/127532/150338/150528/150528",
    ),
];
