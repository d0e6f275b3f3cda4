//! Operational smoke runs for the live health plane.
//!
//! Two entry points, neither part of `repro all`:
//!
//! - [`run`] (`repro smoke`): a small observed city run that honors
//!   both live-operations flags — `--telemetry` and `--serve` — and,
//!   when serving, holds the HTTP endpoint open for a grace window
//!   after the run so external scrapers (CI `curl`) can still reach it.
//!   A healthy smoke run must end with the stall watchdog unfired.
//! - [`crash`] (`repro crash`): deliberately panics after overflowing a
//!   tiny telemetry buffer, exercising the flight-recorder panic hook
//!   end to end: the process dies with exit code 101 leaving
//!   `crash.telemetry` + `crash.trace.json` under the `--telemetry`
//!   directory for `trace_tool timeline --validate`.

use std::sync::Arc;

use aim_core::telemetry::{BlockReason, SpanKind, Telemetry};
use aim_world::city::{self, CityConfig};

use crate::experiments::city as city_exp;
use crate::harness::RunEnv;

/// Seconds the `--serve` endpoint stays up after the smoke run ends.
const SERVE_GRACE_SECS: u64 = 8;

/// Runs the observed mini-city smoke run.
///
/// # Panics
///
/// Panics on internal engine errors, a telemetry coverage failure, or a
/// fired stall watchdog.
pub fn run(env: &RunEnv) {
    let agents = if env.quick { 256 } else { 1_024 };
    let steps = if env.quick { 6 } else { 12 };
    let cfg = CityConfig {
        districts_x: 2,
        districts_y: 2,
        agents,
        seed: 77,
    };
    println!("smoke: generating {agents}-agent mini city ({steps} steps)…");
    let base = city::generate(&cfg);
    let sink = env.telemetry_sink();
    let serve = env.status_guard("smoke", agents, sink.as_ref(), None);
    let cell = city_exp::drive(&cfg, base, 4, steps, 3, sink);
    println!(
        "smoke: {:.2} s wall · {:.0} agent-steps/s · {} resident records · {} events",
        cell.wall_s, cell.steps_per_s, cell.resident, cell.events
    );
    if let Some(rt) = &cell.telemetry {
        env.export_telemetry("smoke", rt);
    }
    if let Some(guard) = serve {
        assert!(
            !guard.stalled(),
            "a healthy smoke run must not trip the stall watchdog"
        );
        eprintln!(
            "[serve] smoke: holding http://127.0.0.1:{} for {SERVE_GRACE_SECS} s…",
            guard.port()
        );
        std::thread::sleep(std::time::Duration::from_secs(SERVE_GRACE_SECS));
    }
}

/// Deliberately crashes with the flight recorder armed.
///
/// # Panics
///
/// Always — that is the experiment. The installed hook writes the crash
/// dumps before the unwind reaches the runtime.
pub fn crash(env: &RunEnv) {
    let dir = env
        .telemetry
        .clone()
        .unwrap_or_else(|| env.out_dir.join("crash"));
    // A deliberately tiny buffer: most of the recorded spans overflow
    // into the flight ring, so the dump proves the ring (not just the
    // live buffer) reaches disk.
    let telemetry = Arc::new(Telemetry::with_capacity(64));
    for i in 0..200u32 {
        let start = u64::from(i) * 120;
        telemetry.record_at(
            start,
            start + 90,
            SpanKind::Commit {
                cluster: u64::from(i % 4),
                step: i,
                members: 1,
            },
        );
        telemetry.record_at(
            start + 90,
            start + 110,
            SpanKind::Blocked {
                agent: i % 4,
                blocker: (i + 1) % 4,
                step: i,
                reason: BlockReason::Barrier,
            },
        );
    }
    aim_serve::flight::install_panic_hook(Arc::clone(&telemetry), dir.clone(), 4);
    eprintln!(
        "crash: panicking deliberately; expect {}/crash.telemetry and crash.trace.json",
        dir.display()
    );
    panic!("deliberate crash-experiment panic (this exit is the expected outcome)");
}
