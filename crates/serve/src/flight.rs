//! The crash flight recorder: dump the telemetry sink's retained span
//! tail when the process is going down.
//!
//! The [`Telemetry`] sink already keeps a bounded ring of the most
//! recent overflowed spans plus whatever the live buffers hold
//! ([`Telemetry::flight_tail`]); this module turns that tail into the
//! same on-disk artifacts a finished run exports — `crash.telemetry`
//! (AIMTEL, loadable by `trace_tool timeline`) and `crash.trace.json`
//! (Chrome trace) — from a panic hook or a severed-worker callback.
//!
//! Dump paths must never make a bad situation worse: every function
//! here reports failure through `Result` or stderr, never by
//! panicking (a panic inside a panic hook aborts the process).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use aim_core::telemetry::Telemetry;
use aim_trace::telemetry::{save, write_chrome_trace};

/// File name of the AIMTEL dump inside the crash directory.
pub const CRASH_TELEMETRY: &str = "crash.telemetry";
/// File name of the Chrome-trace dump inside the crash directory.
pub const CRASH_TRACE: &str = "crash.trace.json";

/// Writes the flight-recorder dump for `telemetry` into `dir`
/// (created if missing): [`CRASH_TELEMETRY`] then [`CRASH_TRACE`].
/// Returns both paths.
///
/// Copies the sink's live buffers (plus the overflow ring) into a
/// rebased [`RunTelemetry`](aim_core::telemetry::RunTelemetry) through
/// [`Telemetry::flight_report`]. Nothing is removed, so a run that
/// continues still exports every span at its end.
pub fn write_crash_dump(
    telemetry: &Telemetry,
    dir: &Path,
    agents: u32,
) -> io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let rt = telemetry.flight_report(agents);
    let telemetry_path = dir.join(CRASH_TELEMETRY);
    save(&rt, &telemetry_path).map_err(to_io)?;
    let trace_path = dir.join(CRASH_TRACE);
    let file = std::fs::File::create(&trace_path)?;
    let mut w = io::BufWriter::new(file);
    write_chrome_trace(&rt, &mut w).map_err(to_io)?;
    Ok((telemetry_path, trace_path))
}

fn to_io(e: aim_trace::TraceError) -> io::Error {
    io::Error::new(io::ErrorKind::Other, e.to_string())
}

/// Installs a panic hook that writes the flight-recorder dump into
/// `dir` before delegating to the previous hook (so the default
/// backtrace message still prints).
///
/// Process-global, like every panic hook: install it once, from the
/// binary that owns the run. The hook itself never panics — a failed
/// dump is reported on stderr and the unwind continues.
pub fn install_panic_hook(telemetry: Arc<Telemetry>, dir: PathBuf, agents: u32) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        match write_crash_dump(&telemetry, &dir, agents) {
            Ok((telemetry_path, trace_path)) => eprintln!(
                "[aim-serve] flight recorder dumped {} and {}",
                telemetry_path.display(),
                trace_path.display()
            ),
            Err(e) => eprintln!("[aim-serve] flight recorder dump failed: {e}"),
        }
        prev(info);
    }));
}
