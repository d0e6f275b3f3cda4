//! `AIMMSG v1`: the length-prefixed byte codec for the worker protocol.
//!
//! Frames the [`super::msg`] enums for byte transports (the phase-2
//! socket/pipe path): a stream opens with the [`PREAMBLE`], then carries
//! frames of
//!
//! ```text
//! u32 BE body length | body
//! body = tag byte | variant fields
//! ```
//!
//! Integers are big-endian via [`aim_store::codec`]; positions are
//! serialized by the run's [`Space`] (`encode_pos` / `decode_pos`), so
//! the wire format matches the workers' store records byte for byte.
//! Lists carry a `u32` count prefix; strings are length-prefixed UTF-8.
//!
//! A telemetry reply's spans are not laid out here: each is its times
//! and track, a tag byte (its [`Phase`]'s 1-based position in
//! [`Phase::ALL`]), then the payload fields of the span schema
//! ([`SpanKind::write_fields`] / [`SpanKind::read_fields`]) — integers
//! at their width, a flag or a value's index in one byte. The text
//! exporters in `aim-trace` walk the same schema.
//!
//! Controller requests use tags 1–11, worker replies tags 65–73 — the
//! disjoint ranges make a swapped stream fail loudly instead of
//! misparsing. Decoding verifies the frame is consumed exactly: trailing
//! bytes are a [`StoreError::Codec`] error, as are truncation, unknown
//! tags, and malformed positions. Both sides of the codec are pure
//! functions of the message and the space, so
//! `decode(encode(msg)) == msg` holds for every message — property-tested
//! below like the `AIMSNAP` snapshot format.

use std::convert::Infallible;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use aim_store::{codec, StoreError};

use crate::space::Space;
use crate::telemetry::{Counter, Field, FieldReader, Phase, Span, SpanKind};

use super::msg::{CtrlMsg, NodeRecord, Probe, ShardMsg, WireEdge};

/// Stream preamble exchanged once per connection before any frame.
pub const PREAMBLE: &[u8; 10] = b"AIMMSG v1\n";

// Controller-request tags (1–11).
const TAG_COMMIT: u8 = 1;
const TAG_ROLLBACK: u8 = 2;
const TAG_DEPART: u8 = 3;
const TAG_ARRIVE: u8 = 4;
const TAG_RELINK_QUERY: u8 = 5;
const TAG_EVICT_HISTORY: u8 = 6;
const TAG_QUIESCE: u8 = 7;
const TAG_RECOVER: u8 = 8;
const TAG_SHUTDOWN: u8 = 9;
const TAG_HARVEST_TELEMETRY: u8 = 10;
const TAG_HEARTBEAT: u8 = 11;

// Worker-reply tags (65–73).
const TAG_DONE: u8 = 65;
const TAG_DEPARTED: u8 = 66;
const TAG_EDGES: u8 = 67;
const TAG_EVICTED: u8 = 68;
const TAG_QUIESCED: u8 = 69;
const TAG_RECOVERED: u8 = 70;
const TAG_FAILED: u8 = 71;
const TAG_TELEMETRY: u8 = 72;
const TAG_HEARTBEAT_REPLY: u8 = 73;

fn get_u8(buf: &mut Bytes) -> Result<u8, StoreError> {
    if !buf.has_remaining() {
        return Err(StoreError::Codec("truncated frame: missing tag".into()));
    }
    Ok(buf.get_u8())
}

/// Reads a count prefix, bounded by the bytes actually present so a
/// corrupt count cannot force a huge allocation.
fn get_count(buf: &mut Bytes, what: &str) -> Result<usize, StoreError> {
    let n = codec::get_u32(buf)? as usize;
    if n > buf.remaining() {
        return Err(StoreError::Codec(format!(
            "corrupt {what} count {n} exceeds {} remaining bytes",
            buf.remaining()
        )));
    }
    Ok(n)
}

/// Decodes a position from the front of `buf` and advances past it.
fn get_pos<S: Space>(space: &S, buf: &mut Bytes) -> Result<S::Pos, StoreError> {
    let mut rest: &[u8] = buf;
    let pos = space.decode_pos(&mut rest)?;
    let used = buf.len() - rest.len();
    buf.advance(used);
    Ok(pos)
}

fn put_record<S: Space>(space: &S, r: &NodeRecord<S::Pos>, buf: &mut BytesMut) {
    codec::put_u32(buf, r.agent);
    codec::put_u32(buf, r.step);
    space.encode_pos(r.pos, buf);
    codec::put_u32(buf, r.history.len() as u32);
    for &(step, pos) in &r.history {
        codec::put_u32(buf, step);
        space.encode_pos(pos, buf);
    }
}

fn get_record<S: Space>(space: &S, buf: &mut Bytes) -> Result<NodeRecord<S::Pos>, StoreError> {
    let agent = codec::get_u32(buf)?;
    let step = codec::get_u32(buf)?;
    let pos = get_pos(space, buf)?;
    let n = get_count(buf, "history")?;
    let mut history = Vec::with_capacity(n);
    for _ in 0..n {
        let step = codec::get_u32(buf)?;
        let pos = get_pos(space, buf)?;
        history.push((step, pos));
    }
    Ok(NodeRecord {
        agent,
        step,
        pos,
        history,
    })
}

fn put_records<S: Space>(space: &S, records: &[NodeRecord<S::Pos>], buf: &mut BytesMut) {
    codec::put_u32(buf, records.len() as u32);
    for r in records {
        put_record(space, r, buf);
    }
}

fn get_records<S: Space>(
    space: &S,
    buf: &mut Bytes,
) -> Result<Vec<NodeRecord<S::Pos>>, StoreError> {
    let n = get_count(buf, "record list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_record(space, buf)?);
    }
    Ok(out)
}

fn put_states<S: Space>(space: &S, states: &[(u32, u32, S::Pos)], buf: &mut BytesMut) {
    codec::put_u32(buf, states.len() as u32);
    for &(agent, step, pos) in states {
        codec::put_u32(buf, agent);
        codec::put_u32(buf, step);
        space.encode_pos(pos, buf);
    }
}

fn get_states<S: Space>(space: &S, buf: &mut Bytes) -> Result<Vec<(u32, u32, S::Pos)>, StoreError> {
    let n = get_count(buf, "state list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let agent = codec::get_u32(buf)?;
        let step = codec::get_u32(buf)?;
        let pos = get_pos(space, buf)?;
        out.push((agent, step, pos));
    }
    Ok(out)
}

/// `AIMMSG` span fields: integers big-endian, a flag or a value's index
/// in one byte.
impl FieldReader for Bytes {
    type Error = StoreError;

    fn u32(&mut self, _: &'static str) -> Result<u32, StoreError> {
        codec::get_u32(self)
    }

    fn u64(&mut self, _: &'static str) -> Result<u64, StoreError> {
        codec::get_u64(self)
    }

    fn flag(&mut self, name: &'static str) -> Result<bool, StoreError> {
        match get_u8(self)? {
            0 => Ok(false),
            1 => Ok(true),
            bad => Err(StoreError::Codec(format!("invalid {name} flag {bad}"))),
        }
    }

    fn choice<T: Copy>(
        &mut self,
        name: &'static str,
        all: &[T],
        _: fn(T) -> &'static str,
    ) -> Result<T, StoreError> {
        let i = get_u8(self)?;
        all.get(usize::from(i))
            .copied()
            .ok_or_else(|| StoreError::Codec(format!("invalid {name} index {i}")))
    }
}

/// A span list: each span is its times and track, its kind's 1-based
/// position in [`Phase::ALL`] (the declaration order) as the tag, then
/// the fields of [`SpanKind::write_fields`].
fn put_spans(spans: &[Span], buf: &mut BytesMut) {
    codec::put_u32(buf, spans.len() as u32);
    for s in spans {
        codec::put_u64(buf, s.start_us);
        codec::put_u64(buf, s.end_us);
        codec::put_u32(buf, s.track);
        buf.put_u8(s.kind.phase() as u8 + 1);
        let Ok(()) = s.kind.write_fields(|_, field| {
            match field {
                Field::U32(v) => codec::put_u32(buf, v),
                Field::U64(v) => codec::put_u64(buf, v),
                Field::Flag(v) => buf.put_u8(u8::from(v)),
                Field::Choice(i, _) => buf.put_u8(i),
            }
            Ok::<(), Infallible>(())
        });
    }
}

fn get_spans(buf: &mut Bytes) -> Result<Vec<Span>, StoreError> {
    let n = get_count(buf, "span list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let start_us = codec::get_u64(buf)?;
        let end_us = codec::get_u64(buf)?;
        let track = codec::get_u32(buf)?;
        let tag = get_u8(buf)?;
        let phase = *Phase::ALL
            .get(usize::from(tag).wrapping_sub(1))
            .ok_or_else(|| StoreError::Codec(format!("unknown span kind tag {tag}")))?;
        out.push(Span {
            start_us,
            end_us,
            track,
            kind: SpanKind::read_fields(phase, buf)?,
        });
    }
    Ok(out)
}

fn put_counters(counters: &[(Counter, u64)], buf: &mut BytesMut) {
    codec::put_u32(buf, counters.len() as u32);
    for &(c, n) in counters {
        buf.put_u8(c as u8);
        codec::put_u64(buf, n);
    }
}

fn get_counters(buf: &mut Bytes) -> Result<Vec<(Counter, u64)>, StoreError> {
    let n = get_count(buf, "counter list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let c = buf.choice("counter", &Counter::ALL, Counter::as_str)?;
        out.push((c, codec::get_u64(buf)?));
    }
    Ok(out)
}

/// Finalizes a frame: length prefix followed by the body.
fn put_frame(body: BytesMut, out: &mut BytesMut) {
    codec::put_u32(out, body.len() as u32);
    out.extend_from_slice(&body);
}

/// Splits one length-prefixed frame body off `buf`.
fn take_frame(buf: &mut Bytes) -> Result<Bytes, StoreError> {
    let len = codec::get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(StoreError::Codec(format!(
            "truncated frame: need {len} body bytes, have {}",
            buf.remaining()
        )));
    }
    Ok(buf.split_to(len))
}

/// Rejects unconsumed frame bytes after a successful parse.
fn finish(body: &Bytes, what: &str) -> Result<(), StoreError> {
    if body.has_remaining() {
        return Err(StoreError::Codec(format!(
            "{} trailing bytes after {what} frame",
            body.remaining()
        )));
    }
    Ok(())
}

/// Appends one framed controller request to `out`.
pub fn encode_ctrl<S: Space>(space: &S, msg: &CtrlMsg<S::Pos>, out: &mut BytesMut) {
    let mut body = BytesMut::new();
    match msg {
        CtrlMsg::Commit { updates } => {
            body.put_u8(TAG_COMMIT);
            codec::put_u32(&mut body, updates.len() as u32);
            for &(agent, pos) in updates {
                codec::put_u32(&mut body, agent);
                space.encode_pos(pos, &mut body);
            }
        }
        CtrlMsg::Rollback { updates } => {
            body.put_u8(TAG_ROLLBACK);
            put_states(space, updates, &mut body);
        }
        CtrlMsg::Depart { agents } => {
            body.put_u8(TAG_DEPART);
            codec::put_u32_list(&mut body, agents);
        }
        CtrlMsg::Arrive { records } => {
            body.put_u8(TAG_ARRIVE);
            put_records(space, records, &mut body);
        }
        CtrlMsg::RelinkQuery { probes } => {
            body.put_u8(TAG_RELINK_QUERY);
            codec::put_u32(&mut body, probes.len() as u32);
            for p in probes {
                codec::put_u32(&mut body, p.agent);
                codec::put_u32(&mut body, p.step);
                space.encode_pos(p.pos, &mut body);
            }
        }
        CtrlMsg::EvictHistory { floor } => {
            body.put_u8(TAG_EVICT_HISTORY);
            codec::put_u32(&mut body, *floor);
        }
        CtrlMsg::Quiesce => body.put_u8(TAG_QUIESCE),
        CtrlMsg::Recover { expected } => {
            body.put_u8(TAG_RECOVER);
            codec::put_u32_list(&mut body, expected);
        }
        CtrlMsg::Shutdown => body.put_u8(TAG_SHUTDOWN),
        CtrlMsg::HarvestTelemetry { now_us } => {
            body.put_u8(TAG_HARVEST_TELEMETRY);
            codec::put_u64(&mut body, *now_us);
        }
        CtrlMsg::Heartbeat { now_us } => {
            body.put_u8(TAG_HEARTBEAT);
            codec::put_u64(&mut body, *now_us);
        }
    }
    put_frame(body, out);
}

/// Decodes one framed controller request from the front of `buf`.
///
/// # Errors
///
/// Returns [`StoreError::Codec`] on truncation, an unknown tag (including
/// a worker-reply tag), a malformed position, or trailing frame bytes.
pub fn decode_ctrl<S: Space>(space: &S, buf: &mut Bytes) -> Result<CtrlMsg<S::Pos>, StoreError> {
    let mut body = take_frame(buf)?;
    let tag = get_u8(&mut body)?;
    let msg = match tag {
        TAG_COMMIT => {
            let n = get_count(&mut body, "commit")?;
            let mut updates = Vec::with_capacity(n);
            for _ in 0..n {
                let agent = codec::get_u32(&mut body)?;
                let pos = get_pos(space, &mut body)?;
                updates.push((agent, pos));
            }
            CtrlMsg::Commit { updates }
        }
        TAG_ROLLBACK => CtrlMsg::Rollback {
            updates: get_states(space, &mut body)?,
        },
        TAG_DEPART => CtrlMsg::Depart {
            agents: codec::get_u32_list(&mut body)?,
        },
        TAG_ARRIVE => CtrlMsg::Arrive {
            records: get_records(space, &mut body)?,
        },
        TAG_RELINK_QUERY => {
            let n = get_count(&mut body, "probe")?;
            let mut probes = Vec::with_capacity(n);
            for _ in 0..n {
                let agent = codec::get_u32(&mut body)?;
                let step = codec::get_u32(&mut body)?;
                let pos = get_pos(space, &mut body)?;
                probes.push(Probe { agent, step, pos });
            }
            CtrlMsg::RelinkQuery { probes }
        }
        TAG_EVICT_HISTORY => CtrlMsg::EvictHistory {
            floor: codec::get_u32(&mut body)?,
        },
        TAG_QUIESCE => CtrlMsg::Quiesce,
        TAG_RECOVER => CtrlMsg::Recover {
            expected: codec::get_u32_list(&mut body)?,
        },
        TAG_SHUTDOWN => CtrlMsg::Shutdown,
        TAG_HARVEST_TELEMETRY => CtrlMsg::HarvestTelemetry {
            now_us: codec::get_u64(&mut body)?,
        },
        TAG_HEARTBEAT => CtrlMsg::Heartbeat {
            now_us: codec::get_u64(&mut body)?,
        },
        other => {
            return Err(StoreError::Codec(format!(
                "unknown controller message tag {other}"
            )))
        }
    };
    finish(&body, "controller")?;
    Ok(msg)
}

/// Appends one framed worker reply to `out`.
pub fn encode_shard<S: Space>(space: &S, msg: &ShardMsg<S::Pos>, out: &mut BytesMut) {
    let mut body = BytesMut::new();
    match msg {
        ShardMsg::Done => body.put_u8(TAG_DONE),
        ShardMsg::Departed { records } => {
            body.put_u8(TAG_DEPARTED);
            put_records(space, records, &mut body);
        }
        ShardMsg::Edges { edges } => {
            body.put_u8(TAG_EDGES);
            codec::put_u32(&mut body, edges.len() as u32);
            for e in edges {
                body.put_u8(u8::from(e.coupled));
                codec::put_u32(&mut body, e.a);
                codec::put_u32(&mut body, e.b);
            }
        }
        ShardMsg::Evicted { removed } => {
            body.put_u8(TAG_EVICTED);
            codec::put_u64(&mut body, *removed);
        }
        ShardMsg::Quiesced { states } => {
            body.put_u8(TAG_QUIESCED);
            put_states(space, states, &mut body);
        }
        ShardMsg::Recovered { states } => {
            body.put_u8(TAG_RECOVERED);
            put_states(space, states, &mut body);
        }
        ShardMsg::Telemetry {
            worker,
            now_us,
            spans,
            counters,
            dropped,
        } => {
            body.put_u8(TAG_TELEMETRY);
            codec::put_u32(&mut body, *worker);
            codec::put_u64(&mut body, *now_us);
            codec::put_u64(&mut body, *dropped);
            put_spans(spans, &mut body);
            put_counters(counters, &mut body);
        }
        ShardMsg::Heartbeat {
            worker,
            now_us,
            handled,
            last_step,
            members,
            dropped,
        } => {
            body.put_u8(TAG_HEARTBEAT_REPLY);
            codec::put_u32(&mut body, *worker);
            codec::put_u64(&mut body, *now_us);
            codec::put_u64(&mut body, *handled);
            codec::put_u32(&mut body, *last_step);
            codec::put_u32(&mut body, *members);
            codec::put_u64(&mut body, *dropped);
        }
        ShardMsg::Failed { message } => {
            body.put_u8(TAG_FAILED);
            codec::put_str(&mut body, message);
        }
    }
    put_frame(body, out);
}

/// Decodes one framed worker reply from the front of `buf`.
///
/// # Errors
///
/// Returns [`StoreError::Codec`] on truncation, an unknown tag (including
/// a controller-request tag), a malformed edge flag or position, or
/// trailing frame bytes.
pub fn decode_shard<S: Space>(space: &S, buf: &mut Bytes) -> Result<ShardMsg<S::Pos>, StoreError> {
    let mut body = take_frame(buf)?;
    let tag = get_u8(&mut body)?;
    let msg = match tag {
        TAG_DONE => ShardMsg::Done,
        TAG_DEPARTED => ShardMsg::Departed {
            records: get_records(space, &mut body)?,
        },
        TAG_EDGES => {
            let n = get_count(&mut body, "edge")?;
            let mut edges = Vec::with_capacity(n);
            for _ in 0..n {
                let coupled = match get_u8(&mut body)? {
                    0 => false,
                    1 => true,
                    bad => return Err(StoreError::Codec(format!("invalid edge kind flag {bad}"))),
                };
                let a = codec::get_u32(&mut body)?;
                let b = codec::get_u32(&mut body)?;
                edges.push(WireEdge { coupled, a, b });
            }
            ShardMsg::Edges { edges }
        }
        TAG_EVICTED => ShardMsg::Evicted {
            removed: codec::get_u64(&mut body)?,
        },
        TAG_QUIESCED => ShardMsg::Quiesced {
            states: get_states(space, &mut body)?,
        },
        TAG_RECOVERED => ShardMsg::Recovered {
            states: get_states(space, &mut body)?,
        },
        TAG_TELEMETRY => {
            let worker = codec::get_u32(&mut body)?;
            let now_us = codec::get_u64(&mut body)?;
            let dropped = codec::get_u64(&mut body)?;
            let spans = get_spans(&mut body)?;
            let counters = get_counters(&mut body)?;
            ShardMsg::Telemetry {
                worker,
                now_us,
                spans,
                counters,
                dropped,
            }
        }
        TAG_HEARTBEAT_REPLY => {
            let worker = codec::get_u32(&mut body)?;
            let now_us = codec::get_u64(&mut body)?;
            let handled = codec::get_u64(&mut body)?;
            let last_step = codec::get_u32(&mut body)?;
            let members = codec::get_u32(&mut body)?;
            let dropped = codec::get_u64(&mut body)?;
            ShardMsg::Heartbeat {
                worker,
                now_us,
                handled,
                last_step,
                members,
                dropped,
            }
        }
        TAG_FAILED => ShardMsg::Failed {
            message: codec::get_str(&mut body)?,
        },
        other => {
            return Err(StoreError::Codec(format!(
                "unknown worker message tag {other}"
            )))
        }
    };
    finish(&body, "worker")?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{GridSpace, Point};
    use crate::telemetry::BoundaryOp;
    use proptest::prelude::*;

    fn space() -> GridSpace {
        GridSpace::new(1000, 1000)
    }

    fn roundtrip_ctrl(msg: CtrlMsg<Point>) {
        let s = space();
        let mut buf = BytesMut::new();
        encode_ctrl(&s, &msg, &mut buf);
        let mut rd = Bytes::from(buf.freeze());
        let back = decode_ctrl(&s, &mut rd).expect("decode");
        assert_eq!(back, msg);
        assert_eq!(rd.remaining(), 0);
    }

    fn roundtrip_shard(msg: ShardMsg<Point>) {
        let s = space();
        let mut buf = BytesMut::new();
        encode_shard(&s, &msg, &mut buf);
        let mut rd = Bytes::from(buf.freeze());
        let back = decode_shard(&s, &mut rd).expect("decode");
        assert_eq!(back, msg);
        assert_eq!(rd.remaining(), 0);
    }

    #[test]
    fn fieldless_variants_roundtrip() {
        roundtrip_ctrl(CtrlMsg::Quiesce);
        roundtrip_ctrl(CtrlMsg::Shutdown);
        roundtrip_shard(ShardMsg::Done);
    }

    #[test]
    fn frames_concatenate_on_one_stream() {
        let s = space();
        let mut buf = BytesMut::new();
        encode_ctrl(&s, &CtrlMsg::EvictHistory { floor: 7 }, &mut buf);
        encode_ctrl(&s, &CtrlMsg::Quiesce, &mut buf);
        let mut rd = Bytes::from(buf.freeze());
        assert_eq!(
            decode_ctrl(&s, &mut rd).unwrap(),
            CtrlMsg::EvictHistory { floor: 7 }
        );
        assert_eq!(decode_ctrl(&s, &mut rd).unwrap(), CtrlMsg::Quiesce);
        assert_eq!(rd.remaining(), 0);
    }

    #[test]
    fn swapped_direction_is_rejected() {
        let s = space();
        let mut buf = BytesMut::new();
        encode_ctrl(&s, &CtrlMsg::<Point>::Quiesce, &mut buf);
        let mut rd = Bytes::from(buf.freeze());
        let err = decode_shard(&s, &mut rd).unwrap_err();
        assert!(err.to_string().contains("unknown worker message tag"));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let s = space();
        let mut body = BytesMut::new();
        body.put_u8(super::TAG_QUIESCE);
        body.put_u8(0xAA);
        let mut framed = BytesMut::new();
        put_frame(body, &mut framed);
        let mut rd = Bytes::from(framed.freeze());
        let err = decode_ctrl(&s, &mut rd).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"));
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let s = space();
        let mut buf = BytesMut::new();
        encode_ctrl(
            &s,
            &CtrlMsg::Commit {
                updates: vec![(3, Point::new(1, 2))],
            },
            &mut buf,
        );
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut rd = full.slice(..cut);
            assert!(
                decode_ctrl(&s, &mut rd).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn corrupt_count_is_rejected_not_oom() {
        let s = space();
        let mut body = BytesMut::new();
        body.put_u8(super::TAG_DEPART);
        // Claims u32::MAX agents with no body behind it.
        body.put_u32(u32::MAX);
        let mut framed = BytesMut::new();
        put_frame(body, &mut framed);
        let mut rd = Bytes::from(framed.freeze());
        assert!(decode_ctrl(&s, &mut rd).is_err());
    }

    fn span() -> Span {
        Span {
            start_us: 10,
            end_us: 40,
            track: 0,
            kind: SpanKind::Boundary {
                worker: 3,
                op: BoundaryOp::Apply,
                messages: 2,
            },
        }
    }

    fn telemetry_reply() -> ShardMsg<Point> {
        ShardMsg::Telemetry {
            worker: 3,
            now_us: 12_345,
            spans: vec![span()],
            counters: vec![(Counter::BoundaryMessages, 7)],
            dropped: 1,
        }
    }

    #[test]
    fn telemetry_reply_roundtrips_and_truncation_is_rejected() {
        let msg = telemetry_reply();
        roundtrip_shard(msg.clone());
        let s = space();
        let mut buf = BytesMut::new();
        encode_shard(&s, &msg, &mut buf);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut rd = full.slice(..cut);
            assert!(
                decode_shard(&s, &mut rd).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn bad_span_kind_tag_is_rejected() {
        let s = space();
        let mut body = BytesMut::new();
        body.put_u8(super::TAG_TELEMETRY);
        codec::put_u32(&mut body, 0); // worker
        codec::put_u64(&mut body, 0); // now_us
        codec::put_u64(&mut body, 0); // dropped
        codec::put_u32(&mut body, 1); // one span
        codec::put_u64(&mut body, 0); // start
        codec::put_u64(&mut body, 1); // end
        codec::put_u32(&mut body, 0); // track
        body.put_u8(200); // bogus span kind tag
        let mut framed = BytesMut::new();
        put_frame(body, &mut framed);
        let mut rd = Bytes::from(framed.freeze());
        let err = decode_shard(&s, &mut rd).unwrap_err();
        assert!(err.to_string().contains("unknown span kind tag"));
    }

    #[test]
    fn bad_counter_index_is_rejected() {
        let s = space();
        let mut body = BytesMut::new();
        body.put_u8(super::TAG_TELEMETRY);
        codec::put_u32(&mut body, 0); // worker
        codec::put_u64(&mut body, 0); // now_us
        codec::put_u64(&mut body, 0); // dropped
        codec::put_u32(&mut body, 0); // no spans
        codec::put_u32(&mut body, 1); // one counter
        body.put_u8(Counter::ALL.len() as u8); // first invalid index
        codec::put_u64(&mut body, 5);
        let mut framed = BytesMut::new();
        put_frame(body, &mut framed);
        let mut rd = Bytes::from(framed.freeze());
        let err = decode_shard(&s, &mut rd).unwrap_err();
        assert!(err.to_string().contains("invalid counter index"));
    }

    #[test]
    fn harvest_request_roundtrips_with_disjoint_tag() {
        roundtrip_ctrl(CtrlMsg::HarvestTelemetry { now_us: 987_654 });
        // The new request must stay on the controller side of the tag
        // split: decoding it as a worker reply fails loudly.
        let s = space();
        let mut buf = BytesMut::new();
        encode_ctrl(
            &s,
            &CtrlMsg::<Point>::HarvestTelemetry { now_us: 1 },
            &mut buf,
        );
        let mut rd = Bytes::from(buf.freeze());
        let err = decode_shard(&s, &mut rd).unwrap_err();
        assert!(err.to_string().contains("unknown worker message tag"));
    }

    fn heartbeat_reply() -> ShardMsg<Point> {
        ShardMsg::Heartbeat {
            worker: 5,
            now_us: 44_000,
            handled: 129,
            last_step: 17,
            members: 1250,
            dropped: 3,
        }
    }

    #[test]
    fn heartbeat_roundtrips_with_disjoint_tags() {
        roundtrip_ctrl(CtrlMsg::Heartbeat { now_us: 123_456 });
        roundtrip_shard(heartbeat_reply());
        // The request and reply must stay on their own sides of the tag
        // split: decoding either in the other direction fails loudly.
        let s = space();
        let mut buf = BytesMut::new();
        encode_ctrl(&s, &CtrlMsg::<Point>::Heartbeat { now_us: 1 }, &mut buf);
        let mut rd = Bytes::from(buf.freeze());
        let err = decode_shard(&s, &mut rd).unwrap_err();
        assert!(err.to_string().contains("unknown worker message tag"));
        let mut buf = BytesMut::new();
        encode_shard(&s, &heartbeat_reply(), &mut buf);
        let mut rd = Bytes::from(buf.freeze());
        let err = decode_ctrl(&s, &mut rd).unwrap_err();
        assert!(err.to_string().contains("unknown controller message tag"));
    }

    #[test]
    fn heartbeat_truncation_is_rejected() {
        let s = space();
        let mut buf = BytesMut::new();
        encode_shard(&s, &heartbeat_reply(), &mut buf);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut rd = full.slice(..cut);
            assert!(
                decode_shard(&s, &mut rd).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    fn arb_point() -> impl Strategy<Value = Point> {
        (-500i32..500, -500i32..500).prop_map(|(x, y)| Point::new(x, y))
    }

    fn arb_record() -> impl Strategy<Value = NodeRecord<Point>> {
        (
            0u32..10_000,
            0u32..1_000,
            arb_point(),
            proptest::collection::vec((0u32..1_000, arb_point()), 0..8),
        )
            .prop_map(|(agent, step, pos, history)| NodeRecord {
                agent,
                step,
                pos,
                history,
            })
    }

    fn arb_ctrl() -> impl Strategy<Value = CtrlMsg<Point>> {
        prop_oneof![
            proptest::collection::vec((0u32..10_000, arb_point()), 0..16)
                .prop_map(|updates| CtrlMsg::Commit { updates }),
            proptest::collection::vec((0u32..10_000, 0u32..1_000, arb_point()), 0..16)
                .prop_map(|updates| CtrlMsg::Rollback { updates }),
            proptest::collection::vec(0u32..10_000, 0..16)
                .prop_map(|agents| CtrlMsg::Depart { agents }),
            proptest::collection::vec(arb_record(), 0..8)
                .prop_map(|records| CtrlMsg::Arrive { records }),
            proptest::collection::vec(
                (0u32..10_000, 0u32..1_000, arb_point()).prop_map(|(agent, step, pos)| Probe {
                    agent,
                    step,
                    pos
                }),
                0..16
            )
            .prop_map(|probes| CtrlMsg::RelinkQuery { probes }),
            (0u32..1_000).prop_map(|floor| CtrlMsg::EvictHistory { floor }),
            Just(CtrlMsg::Quiesce),
            proptest::collection::vec(0u32..10_000, 0..16)
                .prop_map(|expected| CtrlMsg::Recover { expected }),
            Just(CtrlMsg::Shutdown),
            (0u64..1_000_000_000).prop_map(|now_us| CtrlMsg::HarvestTelemetry { now_us }),
            (0u64..1_000_000_000).prop_map(|now_us| CtrlMsg::Heartbeat { now_us }),
        ]
    }

    fn arb_telemetry_reply() -> impl Strategy<Value = ShardMsg<Point>> {
        (
            0u32..16,
            0u64..1_000_000_000,
            // Arbitrary spans through this frame are the `aim-trace`
            // span-schema suite's job; here the frame around them is.
            proptest::collection::vec(Just(span()), 0..4),
            proptest::collection::vec(
                (0usize..Counter::ALL.len(), 0u64..1_000).prop_map(|(i, n)| (Counter::ALL[i], n)),
                0..4,
            ),
            0u64..1_000,
        )
            .prop_map(
                |(worker, now_us, spans, counters, dropped)| ShardMsg::Telemetry {
                    worker,
                    now_us,
                    spans,
                    counters,
                    dropped,
                },
            )
    }

    fn arb_shard() -> impl Strategy<Value = ShardMsg<Point>> {
        prop_oneof![
            Just(ShardMsg::Done),
            proptest::collection::vec(arb_record(), 0..8)
                .prop_map(|records| ShardMsg::Departed { records }),
            proptest::collection::vec(
                (0u32..2, 0u32..10_000, 0u32..10_000).prop_map(|(coupled, a, b)| WireEdge {
                    coupled: coupled == 1,
                    a,
                    b
                }),
                0..16
            )
            .prop_map(|edges| ShardMsg::Edges { edges }),
            (0u64..1_000_000).prop_map(|removed| ShardMsg::Evicted { removed }),
            proptest::collection::vec((0u32..10_000, 0u32..1_000, arb_point()), 0..16)
                .prop_map(|states| ShardMsg::Quiesced { states }),
            proptest::collection::vec((0u32..10_000, 0u32..1_000, arb_point()), 0..16)
                .prop_map(|states| ShardMsg::Recovered { states }),
            (0u32..1_000).prop_map(|n| ShardMsg::Failed {
                message: format!("worker error ({n})"),
            }),
            arb_telemetry_reply(),
            (
                0u32..16,
                0u64..1_000_000_000,
                0u64..1_000_000,
                0u32..1_000,
                0u32..10_000,
                0u64..1_000
            )
                .prop_map(|(worker, now_us, handled, last_step, members, dropped)| {
                    ShardMsg::Heartbeat {
                        worker,
                        now_us,
                        handled,
                        last_step,
                        members,
                        dropped,
                    }
                }),
        ]
    }

    proptest! {
        #[test]
        fn every_ctrl_message_roundtrips(msg in arb_ctrl()) {
            roundtrip_ctrl(msg);
        }

        #[test]
        fn every_shard_message_roundtrips(msg in arb_shard()) {
            roundtrip_shard(msg);
        }

        #[test]
        fn ctrl_streams_roundtrip_in_order(msgs in proptest::collection::vec(arb_ctrl(), 0..6)) {
            let s = space();
            let mut buf = BytesMut::new();
            for m in &msgs {
                encode_ctrl(&s, m, &mut buf);
            }
            let mut rd = Bytes::from(buf.freeze());
            for m in &msgs {
                prop_assert_eq!(&decode_ctrl(&s, &mut rd).unwrap(), m);
            }
            prop_assert_eq!(rd.remaining(), 0);
        }
    }
}
