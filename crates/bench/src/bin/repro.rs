//! The reproduction driver: `repro <experiment> [--quick] [--out DIR]
//! [--checkpoint-every K] [--resume SNAP] [--telemetry DIR]
//! [--serve PORT]`.

use aim_bench::experiments;
use aim_bench::harness::RunEnv;

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment> [--quick] [--out DIR] [--checkpoint-every K] [--resume SNAP] [--telemetry DIR] [--serve PORT]\n\
         experiments: calibrate city city-fleet fig1 fig2 fig3 fig4a fig4b fig4c fig5 fig6 fig7 tab1 ablate spec hybrid fleet longrun smoke crash all\n\
         checkpoint flags apply to experiments that checkpoint (longrun): --checkpoint-every\n\
         overrides the snapshot cadence, --resume restarts from an AIMSNAP v1 file;\n\
         --telemetry records runtime spans on threaded experiments (city, city-fleet) and\n\
         writes .telemetry + Perfetto trace.json files under DIR (see trace_tool timeline);\n\
         --serve exposes /metrics, /status, /healthz on 127.0.0.1:PORT for each observed\n\
         run, with worker heartbeats and the stall watchdog (needs --telemetry);\n\
         smoke is a small observed run for exercising the live flags; crash deliberately\n\
         panics with the flight recorder armed (exits 101 leaving crash.* dumps)"
    );
    std::process::exit(2);
}

/// The value after a flag, parsed; a missing or malformed one is a
/// usage error.
fn flag_value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut env = RunEnv::default();
    let mut exp: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => env.quick = true,
            "--out" => env.out_dir = flag_value(&mut it),
            "--checkpoint-every" => {
                env.checkpoint_every = Some(flag_value(&mut it))
                    .filter(|&k| k > 0)
                    .or_else(|| usage());
            }
            "--resume" => env.resume = Some(flag_value(&mut it)),
            "--telemetry" => env.telemetry = Some(flag_value(&mut it)),
            "--serve" => env.serve = Some(flag_value(&mut it)),
            name if !name.starts_with('-') && exp.is_none() => exp = Some(name.to_string()),
            _ => usage(),
        }
    }
    let Some(exp) = exp else { usage() };
    run(&exp, &env);
}

fn run(exp: &str, env: &RunEnv) {
    match exp {
        "ablate" => experiments::ablate::run(env),
        "calibrate" => experiments::calibrate::run(env),
        "city" => experiments::city::run(env),
        "city-fleet" => experiments::city_fleet::run(env),
        "fig1" => experiments::fig1::run(env),
        "fig2" => experiments::fig2::run(env),
        "fig3" => experiments::fig3::run(env),
        "fig4a" => experiments::fig4::run_a(env),
        "fig4b" => experiments::fig4::run_b(env),
        "fig4c" => experiments::fig4::run_c(env),
        "fig4" => {
            experiments::fig4::run_a(env);
            experiments::fig4::run_b(env);
            experiments::fig4::run_c(env);
        }
        "fig5" => experiments::fig5::run(env),
        "fig6" => experiments::fig6::run(env),
        "fig7" => experiments::fig7::run(env),
        "tab1" => experiments::tab1::run(env),
        "spec" => experiments::spec::run(env),
        "hybrid" => experiments::hybrid::run(env),
        "fleet" => experiments::fleet::run(env),
        "longrun" => experiments::longrun::run(env),
        "smoke" => experiments::smoke::run(env),
        "crash" => experiments::smoke::crash(env),
        "all" => {
            for e in [
                "calibrate",
                "city",
                "city-fleet",
                "fig1",
                "fig2",
                "fig3",
                "fig4a",
                "fig4b",
                "fig4c",
                "fig5",
                "fig6",
                "fig7",
                "tab1",
                "ablate",
                "spec",
                "hybrid",
                "fleet",
                "longrun",
            ] {
                println!("\n########## {e} ##########\n");
                run(e, env);
            }
        }
        _ => usage(),
    }
}
