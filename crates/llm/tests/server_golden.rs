//! Golden reference for the serving simulator.
//!
//! `SimServer` is an exact function of the calls that drive it, so a
//! seeded schedule of submits and advances can be pinned whole. Each case
//! folds into one FNV digest every completion (id, replica, submit and
//! finish instants) and `metrics()` after every `advance` (every replica
//! counter, the submitted and completed totals, and the outstanding-request
//! integral by its bits). A digest that moves means the server's timing,
//! admission, routing or accounting moved.
//!
//! The schedules only ever read the server through `advance`'s output and
//! `metrics()`, never through `next_event()`, so they issue the same calls
//! however the server groups its iterations into events. Every iteration
//! of the flat cost model lasts exactly 1 ms and most arrivals fall on the
//! millisecond grid, so many submits land exactly on an
//! iteration boundary: half of them after an `advance` to that instant,
//! half after an `advance` to the microsecond before it. To re-record
//! (only when a behaviour change is intended), run
//! `SERVER_GOLDEN_RECORD=1 cargo test -p aim-llm --test server_golden -- --nocapture`
//! and paste the printed rows over `GOLDEN`.

use aim_llm::{
    presets, CallKind, Completion, CostModel, LlmRequest, RequestId, ServerConfig, ServerMetrics,
    SimServer, VirtualTime,
};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn completion(&mut self, c: &Completion) {
        self.u64(c.req.id.0);
        self.u64(c.replica as u64);
        self.u64(c.submitted_at.as_micros());
        self.u64(c.finished_at.as_micros());
    }

    fn metrics(&mut self, m: &ServerMetrics) {
        self.u64(m.replicas.len() as u64);
        for r in &m.replicas {
            for x in [
                r.busy_us,
                r.iterations,
                r.prefill_tokens,
                r.decode_tokens,
                r.completed,
                u64::from(r.peak_running),
                r.cached_prefill_tokens,
                r.prefix_hits,
                r.prefix_misses,
            ] {
                self.u64(x);
            }
        }
        self.u64(m.outstanding_integral_us.to_bits());
        self.u64(m.submitted);
        self.u64(m.completed);
    }
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

/// A 1 ms floor over at most 400 µs of prefill (1 µs a token, 400-token
/// chunks) and 50 µs per decoding sequence: with at most 12 sequences
/// running, every iteration lasts exactly 1 ms, so a replica started on
/// the millisecond grid has every boundary on it.
fn floor(replicas: u32, max_running: u32, priority: bool) -> ServerConfig {
    ServerConfig {
        name: "floor".into(),
        replicas,
        cost: CostModel::new(1_000.0, 1.0, 50.0, 0.0),
        max_running,
        kv_capacity_tokens: 1_000_000,
        prefill_chunk: 400,
        priority_enabled: priority,
        lane_aware: false,
        interactive_reserve: 0,
        prefix_caching: false,
        prefix_cache_entries: 4096,
    }
}

struct Case {
    name: &'static str,
    cfg: ServerConfig,
    seed: u64,
    requests: u64,
    /// Distinct issuing agents.
    agents: u64,
    /// Prompt lengths drawn from `min_input..=max_input`, multiples of 10.
    min_input: u32,
    max_input: u32,
    /// One request in this many is interactive (0 = none).
    interactive_every: u64,
    /// Tag requests with one of three persona templates.
    templates: bool,
}

fn cases() -> Vec<Case> {
    let base = |name, cfg, seed| Case {
        name,
        cfg,
        seed,
        requests: 400,
        agents: 40,
        min_input: 10,
        max_input: 600,
        interactive_every: 0,
        templates: false,
    };
    let mut prefix = floor(1, 8, true);
    prefix.prefix_caching = true;
    prefix.prefix_cache_entries = 4;
    let mut kv_tight = floor(1, 8, true);
    kv_tight.kv_capacity_tokens = 1_300;
    // Iterations whose length follows their prefill and decode load, on
    // the 100 µs grid (10 µs a token, 100 µs a sequence, 500-token chunks).
    let mut varied = floor(1, 8, true);
    varied.cost = CostModel::new(1_000.0, 10.0, 100.0, 0.0);
    varied.prefill_chunk = 500;
    vec![
        base("floor-1r-priority", floor(1, 8, true), 1),
        base("floor-1r-fifo", floor(1, 8, false), 2),
        base("floor-8r-priority", floor(8, 8, true), 3),
        base("floor-8r-fifo", floor(8, 8, false), 4),
        Case {
            interactive_every: 5,
            ..base(
                "floor-2r-lane-reserve",
                floor(2, 6, true).with_interactive_lane(2),
                5,
            )
        },
        Case {
            agents: 6,
            templates: true,
            ..base("floor-1r-prefix-lru4", prefix, 6)
        },
        Case {
            min_input: 400,
            ..base("floor-1r-kv-tight", kv_tight, 7)
        },
        base("floor-1r-max-running-2", floor(1, 2, true), 8),
        base("varied-1r-priority", varied, 10),
        base(
            "l4-8r-priority",
            ServerConfig::from_preset(presets::l4_llama3_8b(), 8, true),
            9,
        ),
    ]
}

fn request(case: &Case, rng: &mut Lcg, id: u64) -> LlmRequest {
    let agent = rng.below(case.agents) as u32;
    let step = rng.below(20);
    let spread = u64::from((case.max_input - case.min_input) / 10 + 1);
    let input = case.min_input + 10 * rng.below(spread) as u32;
    let output = rng.below(40) as u32; // 0 is served as one token
    let mut req = LlmRequest::new(RequestId(id), agent, step, input, output, CallKind::Plan);
    if case.templates {
        req = req.with_template(agent % 3, 10 * (input / 20));
    }
    if case.interactive_every > 0 && rng.below(case.interactive_every) == 0 {
        req = req.interactive();
    }
    req
}

/// Drives `case`'s seeded schedule and returns its digest.
fn run(case: &Case) -> u64 {
    let mut rng = Lcg(case.seed);
    let mut server = SimServer::new(case.cfg.clone());
    let mut fnv = Fnv::new();
    let mut done = Vec::new();
    let mut advance = |server: &mut SimServer, fnv: &mut Fnv, to: u64| {
        server.advance(VirtualTime::from_micros(to), &mut done);
        for c in done.drain(..) {
            fnv.completion(&c);
        }
        fnv.metrics(&server.metrics());
    };
    // The last instant on the millisecond grid.
    let mut t = 0u64;
    let mut id = 0u64;
    while id < case.requests {
        // Mostly a few milliseconds, now and then a quiet spell the queues
        // drain in, and one instant in eight off the grid.
        t += 1_000
            * match rng.below(8) {
                0 => 0,
                1..=6 => rng.below(8),
                _ => 20 + rng.below(40),
            };
        let at = if rng.below(8) == 0 {
            t + 1 + rng.below(999)
        } else {
            t
        };
        // Half the submits see every boundary at `at` passed, half only
        // those before it.
        if rng.below(2) == 0 {
            advance(&mut server, &mut fnv, at);
        } else if at > server.now().as_micros() {
            advance(&mut server, &mut fnv, at - 1);
        }
        for _ in 0..=rng.below(4) {
            server.submit(VirtualTime::from_micros(at), request(case, &mut rng, id));
            id += 1;
        }
        if at > t {
            t += 1_000; // back on the grid, not before `at`
        }
    }
    while server.outstanding() > 0 {
        t += 100 * (1 + rng.below(80));
        advance(&mut server, &mut fnv, t);
    }
    fnv.0
}

#[test]
fn schedules_match_the_recorded_golden() {
    let rows: Vec<(&str, u64)> = cases().iter().map(|c| (c.name, run(c))).collect();
    if std::env::var_os("SERVER_GOLDEN_RECORD").is_some() {
        for (name, digest) in &rows {
            println!("    (\"{name}\", 0x{digest:016x}),");
        }
        return;
    }
    assert_eq!(rows.len(), GOLDEN.len(), "case count changed");
    for ((name, digest), (g_name, g_digest)) in rows.iter().zip(GOLDEN) {
        assert_eq!(name, g_name, "case order changed");
        assert_eq!(
            digest, g_digest,
            "{name} moved off its recorded digest: 0x{digest:016x}"
        );
    }
}

const GOLDEN: &[(&str, u64)] = &[
    ("floor-1r-priority", 0x769c66e1b2d33cdd),
    ("floor-1r-fifo", 0x835ff68174aab3f7),
    ("floor-8r-priority", 0xbf2f6a56a455bc49),
    ("floor-8r-fifo", 0x935a9d1377d6741f),
    ("floor-2r-lane-reserve", 0x3c69b9d42c0dde07),
    ("floor-1r-prefix-lru4", 0xe6e408eb52a132b0),
    ("floor-1r-kv-tight", 0xb5d1e9109722daa0),
    ("floor-1r-max-running-2", 0x458337e417c49a88),
    ("varied-1r-priority", 0x116fb398a3962aa1),
    ("l4-8r-priority", 0xe0d23fa6b236aebd),
];
