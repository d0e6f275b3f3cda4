//! Line-oriented trace file format.
//!
//! The format is deliberately simple enough to inspect with a pager and to
//! parse without external dependencies:
//!
//! ```text
//! AIMTRACE v1
//! M name=<str> agents=<n> start=<s> steps=<k> w=<w> h=<h> rp=<r> mv=<v> seed=<seed>
//! I <agent> <x> <y>
//! C <agent> <step> <seq> <kind> <in> <out>
//! P <agent> <step> <x> <y>
//! ```
//!
//! `I` records give each agent's initial position; `P` records the
//! position after `<step>`, only when it changed. `P` records are sparse
//! (stationary agents are omitted); the reader reconstructs the dense
//! matrix. Call and position lines may interleave but must be grouped
//! non-decreasing by step for streaming writers (the reader tolerates
//! any order).
//!
//! The reader is the line-record reader `AIMTEL` telemetry files share:
//! blank lines and `#` comment lines are skipped, every field is parsed
//! at its own type (a `u32` field that does not fit is an error, not a
//! truncation), a record with a field too many is rejected, and every
//! error cites its line.
//!
//! The reader allocates in proportion to what it reads, not to what the
//! meta line declares: the agent table is built from the `I` records
//! (every agent needs one, so a file declaring more agents than it
//! holds is refused first), and a shape whose dense `(steps + 1) ×
//! agents` position matrix exceeds [`MAX_POSITIONS`] is refused before
//! anything is allocated for it.

use std::cmp::Ordering;
use std::io::{BufRead, Write};

use aim_core::space::Point;
use aim_core::telemetry::FieldReader;
use aim_llm::CallKind;

use crate::format::{Trace, TraceBuilder, TraceMeta};
use crate::lines::{Lines, Record};
use crate::TraceError;

const MAGIC: &str = "AIMTRACE v1";

/// The most positions a decoded trace may hold: its `(steps + 1) ×
/// agents` matrix, 1 GiB of points — over ten times a simulated day of
/// the 1 256-agent live city at ten-second steps.
pub const MAX_POSITIONS: u64 = 1 << 27;

/// Serializes `trace` to `w`.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_trace(trace: &Trace, w: &mut impl Write) -> Result<(), TraceError> {
    let m = trace.meta();
    writeln!(w, "{MAGIC}")?;
    writeln!(
        w,
        "M name={} agents={} start={} steps={} w={} h={} rp={} mv={} seed={}",
        m.name.replace(' ', "_"),
        m.num_agents,
        m.start_step,
        m.num_steps,
        m.map_width,
        m.map_height,
        m.radius_p,
        m.max_vel,
        m.seed
    )?;
    for agent in 0..m.num_agents {
        let p = trace.initial_position(agent);
        writeln!(w, "I {agent} {} {}", p.x, p.y)?;
    }
    for c in trace.calls() {
        writeln!(
            w,
            "C {} {} {} {} {} {}",
            c.agent,
            c.step,
            c.seq,
            c.kind.as_str(),
            c.input_tokens,
            c.output_tokens
        )?;
    }
    for step in 0..m.num_steps {
        for agent in 0..m.num_agents {
            let prev = if step == 0 {
                trace.initial_position(agent)
            } else {
                trace.position_after(agent, step - 1)
            };
            let cur = trace.position_after(agent, step);
            if cur != prev {
                writeln!(w, "P {agent} {step} {} {}", cur.x, cur.y)?;
            }
        }
    }
    Ok(())
}

/// Deserializes a trace written by [`write_trace`].
///
/// # Errors
///
/// Returns [`TraceError::Parse`] on any malformed line — a missing,
/// out-of-range or unknown field, or one too many — on a missing initial
/// position, and on a shape whose position matrix exceeds
/// [`MAX_POSITIONS`]; [`TraceError::Io`] on read failures.
pub fn read_trace(r: &mut impl BufRead) -> Result<Trace, TraceError> {
    let mut lines = Lines::open(r, MAGIC)?;
    let meta = match lines.next_record()? {
        Some(mut rec) => read_meta(&mut rec)?,
        None => return Err(TraceError::Parse("missing meta line".to_string())),
    };

    let n = meta.num_agents;
    let steps = meta.num_steps;
    let mut inits: Vec<(u32, Point)> = Vec::new();
    let mut calls = Vec::new();
    let mut moves: Vec<(u32, u32, Point)> = Vec::new();

    while let Some(mut rec) = lines.next_record()? {
        match rec.token("record tag")? {
            "I" => {
                let agent: u32 = rec.next("agent")?;
                let pos = Point::new(rec.next("x")?, rec.next("y")?);
                if agent >= n {
                    return Err(rec.err(format_args!("agent {agent} out of range")));
                }
                inits.push((agent, pos));
            }
            "C" => {
                let agent: u32 = rec.next("agent")?;
                let step: u32 = rec.next("step")?;
                let _seq: u32 = rec.next("seq")?;
                let kind = rec.choice("kind", &CallKind::ALL, CallKind::as_str)?;
                let input = rec.next("input tokens")?;
                let output = rec.next("output tokens")?;
                if agent >= n || step >= steps {
                    return Err(rec.err("call out of range"));
                }
                calls.push((agent, step, kind, input, output));
            }
            "P" => {
                let agent: u32 = rec.next("agent")?;
                let step: u32 = rec.next("step")?;
                let pos = Point::new(rec.next("x")?, rec.next("y")?);
                if agent >= n || step >= steps {
                    return Err(rec.err("position out of range"));
                }
                moves.push((step, agent, pos));
            }
            other => return Err(rec.err(format_args!("unknown record tag {other}"))),
        }
        rec.end()?;
    }
    // The agent table, from the `I` records read (an agent's last one
    // wins); the stable sort keeps each agent's records in file order.
    inits.sort_by_key(|&(agent, _)| agent);
    let mut initial = Vec::with_capacity(inits.len());
    for (agent, pos) in inits {
        match (agent as usize).cmp(&initial.len()) {
            Ordering::Less => *initial.last_mut().expect("sorted") = pos,
            Ordering::Equal => initial.push(pos),
            Ordering::Greater => break,
        }
    }
    if initial.len() < n as usize {
        return Err(TraceError::Parse(format!(
            "missing initial position for agent {}",
            initial.len()
        )));
    }

    // Rebuild dense positions from sparse moves.
    let mut builder = TraceBuilder::new(meta, &initial);
    for (agent, step, kind, input, output) in calls {
        builder.push_call(agent, step, kind, input, output);
    }
    moves.sort_by_key(|&(step, agent, _)| (step, agent));
    let mut cur = initial;
    let mut mi = 0usize;
    for step in 0..steps {
        while mi < moves.len() && moves[mi].0 == step {
            cur[moves[mi].1 as usize] = moves[mi].2;
            mi += 1;
        }
        builder.push_positions(&cur);
    }
    Ok(builder.finish())
}

fn read_meta(rec: &mut Record<'_>) -> Result<TraceMeta, TraceError> {
    if rec.token("meta line")? != "M" {
        return Err(rec.err("expected meta line starting with 'M '"));
    }
    let mut fields = std::collections::HashMap::new();
    while let Some((k, v)) = rec.pair()? {
        fields.insert(k, v);
    }
    let get = |k: &str| {
        fields
            .get(k)
            .ok_or_else(|| rec.err(format_args!("missing meta field {k}")))
    };
    let m = TraceMeta {
        name: fields
            .get("name")
            .map_or(String::new(), |n| n.replace('_', " ")),
        num_agents: rec.parse("agents", get("agents")?)?,
        start_step: rec.parse("start", get("start")?)?,
        num_steps: rec.parse("steps", get("steps")?)?,
        map_width: rec.parse("w", get("w")?)?,
        map_height: rec.parse("h", get("h")?)?,
        radius_p: rec.parse("rp", get("rp")?)?,
        max_vel: rec.parse("mv", get("mv")?)?,
        seed: rec.parse("seed", get("seed")?)?,
    };
    // The position matrix holds `(steps + 1) × agents` points (indexed
    // in `u32` arithmetic, which the bound keeps in range).
    let positions = (u64::from(m.num_steps) + 1) * u64::from(m.num_agents);
    if positions > MAX_POSITIONS {
        return Err(rec.err(format_args!(
            "{} steps of {} agents exceed the {MAX_POSITIONS}-position matrix bound",
            m.num_steps, m.num_agents
        )));
    }
    Ok(m)
}

/// Writes `trace` to a file path.
///
/// # Errors
///
/// Propagates I/O errors, including those of the final flush.
pub fn save(trace: &Trace, path: impl AsRef<std::path::Path>) -> Result<(), TraceError> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    write_trace(trace, &mut w)?;
    Ok(w.flush()?)
}

/// Reads a trace from a file path.
///
/// # Errors
///
/// Propagates I/O and parse errors.
pub fn load(path: impl AsRef<std::path::Path>) -> Result<Trace, TraceError> {
    let file = std::fs::File::open(path)?;
    let mut r = std::io::BufReader::new(file);
    read_trace(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::testutil::tiny;

    #[test]
    fn roundtrip_exact() {
        let t = tiny();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(&mut std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn text_is_human_readable() {
        let t = tiny();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("AIMTRACE v1\n"));
        assert!(text.contains("C 0 0 0 plan 100 10"));
        assert!(text.contains("I 1 9 9"));
        // Stationary agent rows are omitted (agent 1 moves every step,
        // agent 0 too, so all P records exist here); at least the count is
        // bounded by steps × agents.
        assert!(text.lines().filter(|l| l.starts_with("P ")).count() <= 6);
    }

    #[test]
    fn a_shape_overflowing_the_position_matrix_is_rejected() {
        // `(steps + 1) × agents` overflows `u32`, the position matrix's
        // own index arithmetic: a reader that took the shape on trust
        // overflowed (debug) or wrapped and pushed ~4·10⁹ rows (release).
        let text = "AIMTRACE v1\n\
                    M name=big agents=2 start=0 steps=4294967295 w=8 h=8 rp=1 mv=1 seed=0\n\
                    I 0 1 1\n\
                    I 1 2 2\n";
        let err = read_trace(&mut std::io::Cursor::new(text)).unwrap_err();
        assert!(
            matches!(&err, TraceError::Parse(msg) if msg.starts_with("line 2: ")),
            "{err}"
        );
    }

    #[test]
    fn a_declared_population_is_not_allocated_on_trust() {
        // One `I` record under a meta line declaring four billion agents
        // (one row: the matrix's `u32` index fits, 32 GB of table does
        // not — refused by the matrix bound) or a hundred million (within
        // the bound — refused because the records read name one agent).
        // Neither allocates for the declared population.
        for agents in [4_000_000_000u32, 100_000_000] {
            let text = format!(
                "AIMTRACE v1\n\
                 M name=big agents={agents} start=0 steps=0 w=8 h=8 rp=1 mv=1 seed=0\n\
                 I 0 1 1\n"
            );
            let started = std::time::Instant::now();
            let err = read_trace(&mut std::io::Cursor::new(text)).unwrap_err();
            assert!(matches!(err, TraceError::Parse(_)), "{err}");
            assert!(started.elapsed() < std::time::Duration::from_secs(1));
        }
    }

    #[test]
    fn a_missing_initial_position_is_named() {
        let text = "AIMTRACE v1\n\
                    M name=gap agents=3 start=0 steps=1 w=8 h=8 rp=1 mv=1 seed=0\n\
                    I 2 1 1\n\
                    I 0 1 1\n\
                    I 0 2 2\n";
        let err = read_trace(&mut std::io::Cursor::new(text)).unwrap_err();
        assert_eq!(
            err.to_string(),
            TraceError::Parse("missing initial position for agent 1".into()).to_string()
        );
    }

    /// A write error that only surfaces when the buffer is flushed (a
    /// small file on a full device) is the caller's error, not lost.
    #[cfg(target_os = "linux")]
    #[test]
    fn save_reports_a_late_write_error() {
        assert!(save(&tiny(), "/dev/full").is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut cur = std::io::Cursor::new(b"NOTATRACE\n".to_vec());
        assert!(matches!(read_trace(&mut cur), Err(TraceError::Parse(_))));
    }

    #[test]
    fn corrupt_lines_are_located() {
        let t = tiny();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("C 0 0 0 plan oops 10\n");
        let err = read_trace(&mut std::io::Cursor::new(text.as_bytes())).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line"), "error should cite the line: {msg}");
    }

    #[test]
    fn out_of_range_rejected() {
        let t = tiny();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("C 9 0 0 plan 10 10\n");
        assert!(matches!(
            read_trace(&mut std::io::Cursor::new(text.as_bytes())),
            Err(TraceError::Parse(_))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let t = tiny();
        let dir = std::env::temp_dir().join("aim-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.trc");
        save(&t, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn comments_and_blank_lines_tolerated() {
        let t = tiny();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("\n# a trailing comment\n");
        let back = read_trace(&mut std::io::Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(t, back);
    }
}
