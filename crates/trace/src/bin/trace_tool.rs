//! `trace_tool` — inspect, generate, slice, and replay AI Metropolis
//! trace files.
//!
//! ```text
//! trace_tool gen out.trc --villes 1 --seed 42 --start-hour 12 --hours 1
//! trace_tool info out.trc
//! trace_tool stats out.trc
//! trace_tool hourly out.trc
//! trace_tool window out.trc 0 60 sliced.trc
//! trace_tool replay out.trc --mode metropolis --gpus 4
//! trace_tool replay out.trc --mode spec:4 --gpus 8 --preset l4
//! trace_tool latency out.trc out.lat --preset l4 --gpus 2 --step-us 500000
//! trace_tool snapshot ckpt-00000040.aimsnap --validate
//! trace_tool timeline run.telemetry --out traces/ --validate
//! trace_tool stalls run.telemetry --top 10
//! trace_tool stalls --diff before.telemetry after.telemetry --fail-over 5
//! trace_tool top http://127.0.0.1:18080 --interval 2
//! ```
//!
//! `latency` exports the serving-latency distribution the trace induces
//! on a deployment as an `AIMLAT v1` profile, ready to be imported by
//! `aim_llm::ReplayBackend` (e.g. as a fleet replica).
//!
//! `snapshot` inspects an `AIMSNAP v1` checkpoint file (sections, record
//! counts, run metadata; the checksum is always verified on load);
//! `--validate` additionally restores the store, recovers the scheduler
//! from it, and checks the §3.2 validity condition plus the history
//! eviction invariant over the recovered graph.
//!
//! `timeline` loads an `AIMTEL v1` telemetry report (written by
//! `repro … --telemetry <dir>`), prints its summary (wall-clock
//! decomposition, per-phase histograms), and exports `trace.json`
//! (Perfetto / `chrome://tracing`) plus `spans.jsonl` next to the input
//! (or under `--out`); `--validate` re-reads the exported `trace.json`
//! and checks it parses as a well-formed trace-event file.
//!
//! `stalls` prints the top-K aggregated blocking edges — who waited on
//! whom, how often, for how long — the paper's blocked-time story for one
//! run. `stalls --diff` compares two runs; with `--fail-over PCT` it
//! exits nonzero when the blocked share regressed by more than PCT
//! percentage points — a CI tripwire for synchronization regressions.
//!
//! `top` is the live-operations dashboard: it polls a running
//! simulation's `/status` endpoint at an `http://` URL (the `aim-serve`
//! health plane, `repro … --serve PORT`), refreshing every `--interval`
//! seconds until `--count` renders have been printed (default:
//! forever). A finished run's `.telemetry` export is read by `timeline`
//! and `stalls`.

use aim_trace::{codec, gen, stats, Trace};

fn usage() -> ! {
    eprintln!(
        "usage:\n  trace_tool gen <out.trc> [--villes N] [--agents N] [--seed S] \
         [--start-hour H] [--hours H]\n  trace_tool info <file>\n  trace_tool stats <file>\n  \
         trace_tool hourly <file>\n  trace_tool window <file> <from-step> <len> <out.trc>\n  \
         trace_tool replay <file> [--mode single-thread|parallel-sync|metropolis|oracle|\
         no-dependency|spec:<k>] [--gpus N] [--preset l4|a100|mixtral|game|tiny] [--no-priority]\n  \
         trace_tool latency <file> <out.lat> [--preset l4|a100|mixtral|game|tiny] [--gpus N] \
         [--step-us U] [--no-priority]\n  \
         trace_tool snapshot <file.aimsnap> [--validate]\n  \
         trace_tool timeline <run.telemetry> [--out <dir>] [--validate]\n  \
         trace_tool stalls <run.telemetry> [--top K]\n  \
         trace_tool stalls --diff <a.telemetry> <b.telemetry> [--fail-over PCT]\n  \
         trace_tool top <http://host:port> [--interval S] [--count N]"
    );
    std::process::exit(2);
}

/// The value after a flag, parsed; a missing or malformed one is a
/// usage error.
fn flag_value<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn load(path: &str) -> Trace {
    match codec::load(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// The one preset table shared by `replay` and `latency`.
fn parse_preset(name: &str) -> aim_llm::Preset {
    use aim_llm::presets;
    match name {
        "l4" => presets::l4_llama3_8b(),
        "a100" => presets::a100_tp4_llama3_70b(),
        "mixtral" => presets::a100_tp2_mixtral_8x7b(),
        "game" => presets::l4_game_server(),
        "tiny" => presets::tiny_test(),
        _ => usage(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("info") if args.len() == 2 => cmd_info(&load(&args[1])),
        Some("stats") if args.len() == 2 => cmd_stats(&load(&args[1])),
        Some("hourly") if args.len() == 2 => cmd_hourly(&load(&args[1])),
        Some("window") if args.len() == 5 => cmd_window(&args[1..]),
        Some("replay") if args.len() >= 2 => cmd_replay(&args[1..]),
        Some("latency") if args.len() >= 3 => cmd_latency(&args[1..]),
        Some("snapshot") if args.len() >= 2 => cmd_snapshot(&args[1..]),
        Some("timeline") if args.len() >= 2 => cmd_timeline(&args[1..]),
        Some("stalls") if args.len() >= 2 => cmd_stalls(&args[1..]),
        Some("top") if args.len() >= 2 => cmd_top(&args[1..]),
        _ => usage(),
    }
}

fn load_telemetry(path: &str) -> aim_core::telemetry::RunTelemetry {
    match aim_trace::telemetry::load(path) {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_timeline(args: &[String]) {
    use aim_trace::telemetry as tel;

    let path = &args[0];
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut validate = false;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out_dir = Some(flag_value(&mut it)),
            "--validate" => validate = true,
            _ => usage(),
        }
    }
    let rt = load_telemetry(path);
    let dir = out_dir.unwrap_or_else(|| {
        let parent = std::path::Path::new(path).parent();
        parent.unwrap_or(std::path::Path::new(".")).to_path_buf()
    });
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error creating {}: {e}", dir.display());
        std::process::exit(1);
    }

    println!("run         : {path}");
    println!(
        "wall        : {:.3} s · {} agents · {} spans ({} dropped)",
        rt.wall_us as f64 / 1e6,
        rt.agents,
        rt.spans.len(),
        rt.dropped
    );
    println!(
        "sched       : {} clusters · {} agent-steps · skew {} · max cluster {}",
        rt.sched.clusters_emitted,
        rt.sched.agent_steps,
        rt.sched.max_step_skew,
        rt.sched.max_cluster_size
    );
    for (c, n) in &rt.counters {
        if *n > 0 {
            println!("counter     : {} = {n}", c.as_str());
        }
    }
    println!(
        "decompose   : {} (coverage {:.1}%)",
        rt.decomposition,
        100.0 * rt.decomposition.coverage()
    );
    if let Some(slowdown) = rt.slowdown_vs_critical() {
        println!("wall vs lb  : {slowdown:.2}×");
    }
    println!("phases      :");
    for (phase, h) in &rt.phases {
        println!(
            "  {:<11} {:>8} spans · mean {:>8} µs · p99 {:>8} µs · max {:>8} µs",
            phase.as_str(),
            h.count,
            h.mean_us(),
            h.p99_us(),
            h.max_us
        );
    }

    let json_path = dir.join("trace.json");
    let jsonl_path = dir.join("spans.jsonl");
    let write = |f: &dyn Fn(
        &mut std::io::BufWriter<std::fs::File>,
    ) -> Result<(), aim_trace::TraceError>,
                 p: &std::path::Path| {
        let file = match std::fs::File::create(p) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error creating {}: {e}", p.display());
                std::process::exit(1);
            }
        };
        let mut w = std::io::BufWriter::new(file);
        if let Err(e) = f(&mut w) {
            eprintln!("error writing {}: {e}", p.display());
            std::process::exit(1);
        }
    };
    write(&|w| tel::write_chrome_trace(&rt, w), &json_path);
    write(&|w| tel::write_jsonl(&rt, w), &jsonl_path);
    eprintln!(
        "wrote {} (open in Perfetto) and {}",
        json_path.display(),
        jsonl_path.display()
    );

    if validate {
        let text = match std::fs::read_to_string(&json_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error re-reading {}: {e}", json_path.display());
                std::process::exit(1);
            }
        };
        match tel::validate_chrome_trace(&text) {
            Ok(events) => println!("validate    : OK ({events} complete events)"),
            Err(e) => {
                eprintln!("VALIDATE FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn cmd_stalls(args: &[String]) {
    if args[0] == "--diff" {
        if args.len() < 3 {
            usage();
        }
        let mut fail_over: Option<f64> = None;
        let mut it = args[3..].iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--fail-over" => {
                    fail_over = Some(flag_value(&mut it))
                        .filter(|p: &f64| *p >= 0.0)
                        .or_else(|| usage());
                }
                _ => usage(),
            }
        }
        cmd_stalls_diff(&args[1], &args[2], fail_over);
        return;
    }
    let path = &args[0];
    let mut top = 10usize;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--top" => top = flag_value(&mut it),
            _ => usage(),
        }
    }
    let rt = load_telemetry(path);
    println!(
        "blocked     : {:.1}% of agent time ({} agents over {:.3} s)",
        100.0 * rt.decomposition.blocked_frac(),
        rt.agents,
        rt.wall_us as f64 / 1e6
    );
    if let Some(h) = rt.phase(aim_core::telemetry::Phase::Boundary) {
        println!(
            "boundary    : {} µs over {} message-boundary spans (dist workers)",
            h.total_us, h.count
        );
    }
    for t in &rt.worker_tracks {
        println!(
            "worker      : {} (track {}) · {} spans overflowed worker-side",
            t.name, t.track, t.dropped
        );
    }
    let edges = rt.stall_edges(top);
    if edges.is_empty() {
        println!("no blocking edges recorded — nothing ever waited");
        return;
    }
    println!(
        "{:<9} {:<9} {:<11} {:>7} {:>12}",
        "agent", "blocker", "reason", "waits", "total µs"
    );
    for e in edges {
        let fmt_id = |id: u32| {
            if id == u32::MAX {
                "*".to_string()
            } else {
                format!("a{id}")
            }
        };
        println!(
            "{:<9} {:<9} {:<11} {:>7} {:>12}",
            fmt_id(e.agent),
            fmt_id(e.blocker),
            e.reason.as_str(),
            e.count,
            e.total_us
        );
    }
}

/// `stalls --diff a b`: side-by-side stall decomposition of two runs for
/// regression triage — which phase grew, which counters moved. With
/// `--fail-over PCT`, exits nonzero when the blocked share grew by more
/// than PCT percentage points from `a` to `b`.
fn cmd_stalls_diff(path_a: &str, path_b: &str, fail_over: Option<f64>) {
    use aim_core::telemetry::Phase;

    let a = load_telemetry(path_a);
    let b = load_telemetry(path_b);
    println!("a           : {path_a}");
    println!("b           : {path_b}");
    let pct = |x: f64| 100.0 * x;
    let row = |label: &str, va: f64, vb: f64| {
        println!(
            "{label:<11} : {va:>7.1}% -> {vb:>7.1}%  ({:+.1} pp)",
            vb - va
        );
    };
    row(
        "llm",
        pct(a.decomposition.llm_frac()),
        pct(b.decomposition.llm_frac()),
    );
    row(
        "blocked",
        pct(a.decomposition.blocked_frac()),
        pct(b.decomposition.blocked_frac()),
    );
    row(
        "overhead",
        pct(a.decomposition.overhead_frac()),
        pct(b.decomposition.overhead_frac()),
    );
    row(
        "checkpoint",
        pct(a.decomposition.checkpoint_frac()),
        pct(b.decomposition.checkpoint_frac()),
    );
    println!(
        "wall        : {:>9.3} s -> {:>9.3} s  ({:+.1}%)",
        a.wall_us as f64 / 1e6,
        b.wall_us as f64 / 1e6,
        100.0 * (b.wall_us as f64 - a.wall_us as f64) / a.wall_us.max(1) as f64
    );
    println!("dropped     : {:>9} -> {:>9}", a.dropped, b.dropped);
    println!("phases      : (total µs per phase)");
    for phase in Phase::ALL {
        let ta = a.phase(phase).map_or(0, |h| h.total_us);
        let tb = b.phase(phase).map_or(0, |h| h.total_us);
        if ta == 0 && tb == 0 {
            continue;
        }
        println!(
            "  {:<11} {ta:>12} -> {tb:>12}  ({:+})",
            phase.as_str(),
            tb as i64 - ta as i64
        );
    }
    let counters: std::collections::BTreeSet<&str> = a
        .counters
        .iter()
        .chain(b.counters.iter())
        .map(|(c, _)| c.as_str())
        .collect();
    if !counters.is_empty() {
        println!("counters    :");
        for name in counters {
            let find = |rt: &aim_core::telemetry::RunTelemetry| {
                rt.counters
                    .iter()
                    .find(|(c, _)| c.as_str() == name)
                    .map_or(0, |(_, n)| *n)
            };
            let (na, nb) = (find(&a), find(&b));
            println!(
                "  {name:<18} {na:>12} -> {nb:>12}  ({:+})",
                nb as i64 - na as i64
            );
        }
    }
    if let Some(limit) = fail_over {
        let drift = pct(b.decomposition.blocked_frac()) - pct(a.decomposition.blocked_frac());
        if drift > limit {
            eprintln!("FAIL: blocked share regressed by {drift:+.1} pp (limit {limit:.1} pp)");
            std::process::exit(1);
        }
        println!("gate        : blocked drift {drift:+.1} pp within {limit:.1} pp");
    }
}

/// `top <url>`: the live-operations dashboard. Polls a running
/// simulation's `/status` endpoint every `--interval` seconds, `--count`
/// times (default: forever).
fn cmd_top(args: &[String]) {
    use std::num::NonZeroU64;

    let url = &args[0];
    if !url.starts_with("http://") {
        usage();
    }
    // Both flags take positive counts, so a 0 is a usage error.
    let mut interval = NonZeroU64::new(2).expect("2 is nonzero");
    let mut count: Option<NonZeroU64> = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--interval" => interval = flag_value(&mut it),
            "--count" => count = Some(flag_value(&mut it)),
            _ => usage(),
        }
    }
    for rendered in 1.. {
        top_live(url);
        if count.is_some_and(|n| n.get() == rendered) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_secs(interval.get()));
    }
}

/// Fetches `url`'s `/status` JSON over a plain TCP GET (the status
/// server speaks `Connection: close` HTTP/1.1) and prints a digest.
fn top_live(url: &str) {
    use std::io::{Read, Write};

    let host = url.trim_start_matches("http://");
    let host = host.split('/').next().unwrap_or(host);
    let mut stream = match std::net::TcpStream::connect(host) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error connecting to {host}: {e}");
            std::process::exit(1);
        }
    };
    let request = format!("GET /status HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n");
    let mut body = String::new();
    let ok = stream
        .write_all(request.as_bytes())
        .and_then(|()| stream.read_to_string(&mut body));
    if let Err(e) = ok {
        eprintln!("error talking to {host}: {e}");
        std::process::exit(1);
    }
    let body = body.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    // The digest scans scalar fields out of the JSON; anything missing
    // (a run without that subsystem attached) just doesn't print.
    let field = |key: &str| -> Option<String> {
        let pat = format!("\"{key}\":");
        let i = body.find(&pat)? + pat.len();
        let rest = &body[i..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"').to_string())
    };
    println!("--- {url} ---");
    if let (Some(label), Some(healthy)) = (field("label"), field("healthy")) {
        println!(
            "run         : {label} ({})",
            if healthy == "true" {
                "healthy"
            } else {
                "STALLED"
            }
        );
    }
    if let Some(uptime) = field("uptime_us").and_then(|v| v.parse::<u64>().ok()) {
        println!("uptime      : {:.1} s", uptime as f64 / 1e6);
    }
    if let (Some(spans), Some(dropped)) = (field("spans"), field("dropped")) {
        println!("spans       : {spans} recorded · {dropped} dropped");
    }
    let frac = |key: &str| field(key).and_then(|v| v.parse::<f64>().ok());
    if let (Some(llm), Some(blocked), Some(overhead), Some(ckpt)) = (
        frac("llm"),
        frac("blocked"),
        frac("overhead"),
        frac("checkpoint"),
    ) {
        println!(
            "decompose   : llm {:.1}% · blocked {:.1}% · overhead {:.1}% · checkpoint {:.1}%",
            100.0 * llm,
            100.0 * blocked,
            100.0 * overhead,
            100.0 * ckpt
        );
    }
    let alive = body.matches("\"alive\":true").count();
    let dead = body.matches("\"alive\":false").count();
    if alive + dead > 0 {
        println!("workers     : {alive} alive · {dead} severed");
    }
    if let Some(stalled) = field("stalled_us").and_then(|v| v.parse::<u64>().ok()) {
        println!(
            "STALL       : no commit for {:.1} s — see /status edges",
            stalled as f64 / 1e6
        );
    }
}

fn cmd_snapshot(args: &[String]) {
    use aim_core::checkpoint::{self, CheckpointMeta, PolicyTag, SECTION_META, SECTION_WORLD};
    use aim_core::depgraph::DepTracker;
    use aim_core::policy::DependencyPolicy;
    use aim_store::Snapshot;

    let path = &args[0];
    let mut validate = false;
    for flag in &args[1..] {
        match flag.as_str() {
            "--validate" => validate = true,
            _ => usage(),
        }
    }
    // Parsing verifies the magic and checksum unconditionally.
    let snap = match Snapshot::load(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            std::process::exit(1);
        }
    };
    let info = snap.info();
    println!("file        : {path}");
    println!("size        : {} bytes", info.total_bytes);
    println!("checksum    : {:#018x} (verified)", info.checksum);
    println!("db records  : {}", info.db_records);
    for (name, len) in &info.sections {
        println!("section     : {name} ({len} bytes)");
    }
    let meta = snap
        .section(SECTION_META)
        .cloned()
        .map(CheckpointMeta::decode);
    match &meta {
        None => println!("meta        : absent (raw store snapshot)"),
        Some(Err(e)) => {
            eprintln!("error decoding meta section: {e}");
            std::process::exit(1);
        }
        Some(Ok(m)) => {
            println!("agents      : {}", m.num_agents);
            println!("space       : {}x{}", m.width, m.height);
            println!(
                "rules       : radius_p={} max_vel={}",
                m.radius_p, m.max_vel
            );
            println!(
                "steps       : min={} max={} target={} (world offset {})",
                m.min_step, m.max_step, m.target_step, m.step_offset
            );
            println!("history     : {}", if m.history { "on" } else { "off" });
            println!("policy      : {:?}", m.policy);
            match m.shards {
                0 => println!("shards      : unsharded"),
                n => println!(
                    "shards      : {n} (membership sections: {})",
                    snap.sections_with_prefix("shard/").count()
                ),
            }
            println!(
                "world state : {}",
                if snap.section(SECTION_WORLD).is_some() {
                    "present"
                } else {
                    "absent"
                }
            );
        }
    }
    if !validate {
        return;
    }
    let Some(Ok(m)) = meta else {
        eprintln!("cannot --validate: snapshot has no run metadata");
        std::process::exit(1);
    };
    // Restore the store and recover the scheduler from it; any missing or
    // malformed record surfaces here. The recorded policy drives the
    // recovery; oracle snapshots carry no mined graph, so recover their
    // node table under a dependency-free stand-in.
    let policy_override = match m.policy {
        PolicyTag::Oracle => Some(DependencyPolicy::NoDependency),
        _ => None,
    };
    // Sharded snapshots recover through the membership sections (which
    // also cross-checks that they partition the agents); unsharded ones
    // through the plain path. Either way the downstream checks read the
    // same quantities.
    let (valid, floor, min_step, hist_records) = if m.shards > 0 {
        match checkpoint::resume_sharded(&snap, policy_override, None) {
            Ok((_, sched)) => (
                sched.graph().validate(),
                sched.graph().history_floor(),
                sched.graph().min_step(),
                sched.graph().history_records(),
            ),
            Err(e) => {
                eprintln!("VALIDATE FAILED: sharded scheduler recovery: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match checkpoint::resume(&snap, policy_override, None) {
            Ok((_, sched)) => (
                sched.graph().validate(),
                sched.graph().history_floor(),
                sched.graph().min_step(),
                sched.graph().history_records(),
            ),
            Err(e) => {
                eprintln!("VALIDATE FAILED: scheduler recovery: {e}");
                std::process::exit(1);
            }
        }
    };
    // The §3.2 validity condition is an invariant only of schedules that
    // respect the spatiotemporal rules; the ablation policies (oracle,
    // no-dependency) legitimately violate it.
    match m.policy {
        PolicyTag::Spatiotemporal | PolicyTag::GlobalSync => {
            if let Err(e) = valid {
                eprintln!("VALIDATE FAILED: {e}");
                std::process::exit(1);
            }
        }
        tag => println!("validity    : skipped ({tag:?} schedules are not bound by §3.2)"),
    }
    if m.history {
        if floor > min_step {
            eprintln!(
                "VALIDATE FAILED: history floor {floor} above min step {min_step} — \
                 a record a legal rollback could read was evicted"
            );
            std::process::exit(1);
        }
        println!("history     : {hist_records} resident records, floor {floor}");
    }
    println!("validate    : OK (store restored, scheduler recovered)");
}

fn cmd_latency(args: &[String]) {
    use aim_llm::ServerConfig;
    use aim_trace::latency;

    let out = &args[1];
    if out.starts_with('-') {
        // A forgotten <out.lat> would otherwise silently create a file
        // named after the next flag.
        usage();
    }
    let trace = load(&args[0]);
    let mut gpus = 1u32;
    let mut preset_name = "l4".to_string();
    let mut priority = true;
    let mut step_us = 1_000_000u64;
    let mut it = args[2..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--gpus" => gpus = flag_value(&mut it),
            "--step-us" => step_us = flag_value(&mut it),
            "--preset" => preset_name = flag_value(&mut it),
            "--no-priority" => priority = false,
            _ => usage(),
        }
    }
    let preset = parse_preset(&preset_name);
    let replicas = preset.replicas_for_gpus(gpus);
    let cfg = ServerConfig::from_preset(preset, replicas, priority);
    let profile = latency::mine(&trace, cfg, step_us);
    if let Err(e) = profile.save(out) {
        eprintln!("error writing {out}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "wrote {} latency samples (mean {:.1} ms) to {out}",
        profile.len(),
        profile.mean_us() / 1e3
    );
}

fn cmd_replay(args: &[String]) {
    use aim_core::prelude::*;
    use aim_llm::ServerConfig;
    use std::sync::Arc;

    let trace = load(&args[0]);
    let mut mode = "metropolis".to_string();
    let mut gpus = 1u32;
    let mut preset_name = "l4".to_string();
    let mut priority = true;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--mode" => mode = flag_value(&mut it),
            "--gpus" => gpus = flag_value(&mut it),
            "--preset" => preset_name = flag_value(&mut it),
            "--no-priority" => priority = false,
            _ => usage(),
        }
    }
    let preset = parse_preset(&preset_name);
    let meta = trace.meta();
    let replicas = preset.replicas_for_gpus(gpus);
    let single_thread = mode == "single-thread";
    let engine = Engine::builder(GridSpace::new(meta.map_width, meta.map_height))
        .rules(RuleParams::new(meta.radius_p, meta.max_vel))
        .server(ServerConfig::from_preset(preset, replicas, priority))
        .sim(SimConfig {
            serial_agents: single_thread,
            max_concurrent_clusters: if single_thread { Some(1) } else { Some(48) },
            priority_ready_queue: priority,
            ..SimConfig::default()
        });
    let engine = if let Some(budget) = mode.strip_prefix("spec:") {
        let budget: u32 = budget.parse().unwrap_or_else(|_| usage());
        engine.speculation(SpecParams::new(budget))
    } else {
        engine.policy(match mode.as_str() {
            "single-thread" | "parallel-sync" => DependencyPolicy::GlobalSync,
            "metropolis" => DependencyPolicy::Spatiotemporal,
            "oracle" => DependencyPolicy::Oracle(Arc::new(aim_trace::oracle::mine(&trace))),
            "no-dependency" => DependencyPolicy::NoDependency,
            _ => usage(),
        })
    };
    let mut report = engine.build().run_replay(&trace).expect("replay");
    if report.spec.is_none() {
        report.mode = mode.clone();
    }

    println!("mode             : {}", report.mode);
    println!("deployment       : {gpus} GPU(s), {replicas} replica(s) of {preset_name}");
    println!("completion time  : {:.1}s", report.makespan.as_secs_f64());
    println!("llm calls issued : {}", report.total_calls);
    println!(
        "tokens           : {} in / {} out",
        report.total_input_tokens, report.total_output_tokens
    );
    println!("parallelism      : {:.2}", report.achieved_parallelism);
    println!("gpu utilization  : {:.1}%", report.gpu_utilization * 100.0);
    println!("max step skew    : {}", report.sched.max_step_skew);
    if let Some(sr) = &report.spec {
        println!(
            "speculation      : {} run-ahead, {} squashed, {} poisoned, {:.2}% tokens wasted",
            sr.stats.emitted_spec,
            sr.stats.squashed_steps,
            sr.stats.poisoned_clusters,
            100.0 * sr.waste_fraction(report.total_input_tokens, report.total_output_tokens)
        );
    }
}

fn cmd_gen(args: &[String]) {
    let Some(out) = args.first() else { usage() };
    let mut cfg = gen::GenConfig {
        villes: 1,
        agents_per_ville: 25,
        seed: 42,
        window_start: gen::hour(12),
        window_len: gen::hour(1),
    };
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--villes" => cfg.villes = flag_value(&mut it),
            "--agents" => cfg.agents_per_ville = flag_value(&mut it),
            "--seed" => cfg.seed = flag_value(&mut it),
            "--start-hour" => cfg.window_start = gen::hour(flag_value(&mut it)),
            "--hours" => cfg.window_len = gen::hour(flag_value(&mut it)),
            _ => usage(),
        }
    }
    eprintln!(
        "generating {} agents, steps {}..{} (seed {})…",
        cfg.num_agents(),
        cfg.window_start,
        cfg.window_start + cfg.window_len,
        cfg.seed
    );
    let t = gen::generate(&cfg);
    if let Err(e) = codec::save(&t, out) {
        eprintln!("error writing {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {} calls to {out}", t.calls().len());
}

fn cmd_info(t: &Trace) {
    let m = t.meta();
    println!("name        : {}", m.name);
    println!("agents      : {}", m.num_agents);
    println!(
        "steps       : {} (absolute {}..{})",
        m.num_steps,
        m.start_step,
        m.start_step + m.num_steps
    );
    println!("map         : {}x{}", m.map_width, m.map_height);
    println!(
        "rules       : radius_p={} max_vel={}",
        m.radius_p, m.max_vel
    );
    println!("seed        : {}", m.seed);
    println!("llm calls   : {}", t.calls().len());
}

fn cmd_stats(t: &Trace) {
    let s = stats::compute(t);
    println!("total calls      : {}", s.total_calls);
    println!("mean input toks  : {:.1}", s.mean_input_tokens);
    println!("mean output toks : {:.1}", s.mean_output_tokens);
    println!("mean chain len   : {:.2}", s.mean_chain_len);
    println!("agent CV         : {:.2}", s.agent_cv);
    println!("avg deps/agent   : {:.2} (incl. self)", s.avg_dependencies);
    println!("by kind:");
    for (kind, count, frac) in stats::kind_mix(&s) {
        if count > 0 {
            println!("  {kind:<10} {count:>8}  ({:.1}%)", frac * 100.0);
        }
    }
}

fn cmd_hourly(t: &Trace) {
    let s = stats::compute(t);
    print!("{}", stats::render_hourly(&s, 50));
}

fn cmd_window(args: &[String]) {
    let t = load(&args[0]);
    let (Ok(from), Ok(len)) = (args[1].parse::<u32>(), args[2].parse::<u32>()) else {
        usage()
    };
    if from
        .checked_add(len)
        .is_none_or(|end| end > t.meta().num_steps)
        || len == 0
    {
        eprintln!(
            "window {from}+{len} out of range (trace has {} steps)",
            t.meta().num_steps
        );
        std::process::exit(1);
    }
    let w = t.window(from, len, format!("{}[{from}+{len}]", t.meta().name));
    if let Err(e) = codec::save(&w, &args[3]) {
        eprintln!("error writing {}: {e}", args[3]);
        std::process::exit(1);
    }
    eprintln!("wrote {} calls to {}", w.calls().len(), args[3]);
}
