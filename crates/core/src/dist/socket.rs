//! Socket transport for the worker protocol.
//!
//! Carries `AIMMSG v1` frames ([`super::codec`]) over a byte stream so a
//! shard worker can live in a **separate process**: the worker process
//! binds a listener and runs [`serve_connection`] over its accepted
//! stream; the controller process connects a [`SocketLink`] and plugs it
//! in wherever a [`WorkerLink`] is expected. Both sides exchange the
//! [`PREAMBLE`] before the first frame, so a mis-wired stream fails
//! immediately instead of misparsing.
//!
//! Everything here is plain blocking `std::net` — no async runtime — and
//! I/O failures surface as [`StoreError::Io`], which the controller
//! treats exactly like a severed channel link (the worker's database
//! survives, so the [`super::msg::CtrlMsg::Recover`] handshake can heal
//! the shard).

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use aim_store::StoreError;

use crate::space::Space;

use super::codec::{decode_ctrl, decode_shard, encode_ctrl, encode_shard, PREAMBLE};
use super::msg::{CtrlMsg, ShardMsg};
use super::worker::{ShardWorker, WorkerLink};

/// Writes every frame encoded into `frames` with one write, and empties
/// it: a hand-off leaves the process whole.
fn write_frames(stream: &mut TcpStream, frames: &mut BytesMut) -> Result<(), StoreError> {
    stream.write_all(frames)?;
    stream.flush()?;
    frames.clear();
    Ok(())
}

/// Reads one length-prefixed frame (prefix included) into an owned
/// buffer, or `None` on a clean EOF at a frame boundary.
fn read_frame(stream: &mut impl Read) -> Result<Option<Bytes>, StoreError> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < len.len() {
        let n = stream.read(&mut len[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean EOF between frames
            }
            return Err(StoreError::Codec(
                "stream closed inside a frame length prefix".into(),
            ));
        }
        filled += n;
    }
    let body_len = u32::from_be_bytes(len) as usize;
    let mut buf = vec![0u8; 4 + body_len];
    buf[..4].copy_from_slice(&len);
    stream
        .read_exact(&mut buf[4..])
        .map_err(|e| StoreError::Codec(format!("stream closed inside a frame body: {e}")))?;
    Ok(Some(Bytes::from(buf)))
}

/// Exchanges the protocol preamble: writes ours, requires theirs.
fn handshake(stream: &mut TcpStream) -> Result<(), StoreError> {
    stream.write_all(PREAMBLE)?;
    stream.flush()?;
    let mut got = [0u8; PREAMBLE.len()];
    stream.read_exact(&mut got)?;
    if &got != PREAMBLE {
        return Err(StoreError::Codec(format!(
            "bad protocol preamble {:?}",
            String::from_utf8_lossy(&got)
        )));
    }
    Ok(())
}

/// Runs a worker's serve loop over one controller connection: handshake,
/// then hand-off by hand-off — decode every request frame that arrived
/// together → [`ShardWorker::handle_all`] → all replies in one write —
/// until a [`CtrlMsg::Shutdown`] has been acknowledged or the controller
/// disconnects at a frame boundary.
///
/// The stream does not mark where a hand-off ends, so the worker takes
/// one to be the frames it finds buffered once the first has arrived
/// (reading on while the last of them is incomplete). The controller
/// writes a hand-off with one write, which is what makes them arrive
/// together; should the transport split one anyway, its tail is served
/// as a hand-off of its own and the stop-at-first-failure rule does not
/// span the split — [`crate::dist::DistTracker`] does not rely on it,
/// a failed reply aborts the whole operation there.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on transport failure and
/// [`StoreError::Codec`] on a malformed or truncated frame. Request-level
/// failures do **not** end the loop — they are answered with
/// [`ShardMsg::Failed`] like any in-process worker.
pub fn serve_connection<S: Space>(
    mut stream: TcpStream,
    worker: &mut ShardWorker<S>,
) -> Result<(), StoreError> {
    handshake(&mut stream)?;
    let space = Arc::clone(worker.space());
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut requests = Vec::new();
    let mut replies = Vec::new();
    let mut out = BytesMut::new();
    while let Some(mut frame) = read_frame(&mut reader)? {
        requests.push(decode_ctrl(space.as_ref(), &mut frame)?);
        if !reader.buffer().is_empty() {
            continue; // more of this hand-off has already arrived
        }
        let last = requests.iter().any(|m| matches!(m, CtrlMsg::Shutdown));
        worker.handle_all(requests.drain(..), &mut replies);
        for reply in replies.drain(..) {
            encode_shard(space.as_ref(), &reply, &mut out);
        }
        write_frames(&mut stream, &mut out)?;
        if last {
            break;
        }
    }
    Ok(())
}

/// Controller-side [`WorkerLink`] over a TCP stream: each request is one
/// `AIMMSG v1` frame and each reply one frame back; the frames of a
/// hand-off are written with one write.
#[derive(Debug)]
pub struct SocketLink<S: Space> {
    worker: u32,
    space: Arc<S>,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Encoded frames of the requests queued since the last hand-off.
    queue: BytesMut,
    /// Requests handed over whose replies have not been read yet.
    owed: usize,
}

impl<S: Space> SocketLink<S> {
    /// Wraps a connected stream as the link to worker `worker`, running
    /// the preamble handshake.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on transport failure and
    /// [`StoreError::Codec`] if the peer does not speak `AIMMSG v1`.
    pub fn connect(worker: u32, space: Arc<S>, mut stream: TcpStream) -> Result<Self, StoreError> {
        handshake(&mut stream)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(SocketLink {
            worker,
            space,
            stream,
            reader,
            queue: BytesMut::new(),
            owed: 0,
        })
    }
}

impl<S: Space> WorkerLink<S::Pos> for SocketLink<S> {
    fn send(&mut self, msg: CtrlMsg<S::Pos>) -> Result<(), StoreError> {
        encode_ctrl(self.space.as_ref(), &msg, &mut self.queue);
        self.owed += 1;
        Ok(())
    }

    fn hand_off(&mut self) -> Result<(), StoreError> {
        if self.queue.is_empty() {
            return Ok(());
        }
        write_frames(&mut self.stream, &mut self.queue)
    }

    fn recv(&mut self) -> Result<ShardMsg<S::Pos>, StoreError> {
        self.hand_off()?;
        if self.owed == 0 {
            return Err(StoreError::Codec(format!(
                "shard worker {} owes no reply",
                self.worker
            )));
        }
        let frame = read_frame(&mut self.reader)?.ok_or_else(|| {
            StoreError::Codec(format!(
                "shard worker {} closed its stream mid-request",
                self.worker
            ))
        })?;
        self.owed -= 1;
        let mut rd = frame;
        let msg = decode_shard(self.space.as_ref(), &mut rd)?;
        if rd.len() > 0 {
            return Err(StoreError::Codec(format!(
                "shard worker {} sent {} bytes past its reply frame",
                self.worker,
                rd.len()
            )));
        }
        Ok(msg)
    }
}
