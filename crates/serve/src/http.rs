//! The embedded, dependency-free HTTP status server.
//!
//! Serves exactly three routes from a [`RunStatus`]:
//!
//! - `GET /healthz` — `200 ok` while healthy, `503 stalled` once the
//!   watchdog fires.
//! - `GET /metrics` — Prometheus text exposition.
//! - `GET /status` — JSON digest.
//!
//! A request line longer than 8 KiB is answered `414 URI Too Long`.
//!
//! Built on `std::net::TcpListener` with one accept thread plus one
//! ticker thread — no async runtime, no HTTP library, because the whole
//! surface is three GET routes with `Connection: close` semantics. Each
//! connection is served on a short-lived thread of its own, at most
//! [`MAX_IN_FLIGHT`] at once, so a client that connects and sends
//! nothing holds only its own slot; past the cap the accept thread
//! answers `503 busy` itself, spending at most [`BUSY_WAIT`] on it. The
//! ticker checks the stall watchdog a few times a second so it can fire
//! on schedule even when nobody scrapes.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::status::RunStatus;

/// How often the background ticker checks the stall watchdog.
const TICK_INTERVAL: Duration = Duration::from_millis(250);

/// The most request-line bytes one connection may send (8 KiB). A line
/// that reaches it unterminated is answered `414 URI Too Long`: the read
/// timeout restarts on every read, so without a cap a client trickling
/// bytes with no newline would grow the line without bound.
const MAX_REQUEST_LINE: u64 = 8 * 1024;

/// Connections served at once. Each one may wait up to its 2 s read
/// timeout on a silent client; a connection past the cap is answered
/// `503` by the accept thread.
const MAX_IN_FLIGHT: usize = 4;

/// The longest the accept thread spends answering one connection past
/// [`MAX_IN_FLIGHT`].
const BUSY_WAIT: Duration = Duration::from_millis(100);

/// A running status server. Binds on construction, serves from a
/// background thread, and shuts both threads down on [`Drop`].
#[derive(Debug)]
pub struct StatusServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
}

impl StatusServer {
    /// Binds `127.0.0.1:port` (pass port 0 for an ephemeral port, e.g.
    /// in tests) and starts serving `source`. The bind is loopback-only
    /// on purpose: this is an operator's local scrape surface, not a
    /// public API.
    pub fn start(port: u16, source: Arc<RunStatus>) -> io::Result<StatusServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let accept = {
            let stop = Arc::clone(&stop);
            let source = Arc::clone(&source);
            let in_flight = Arc::new(AtomicUsize::new(0));
            std::thread::Builder::new()
                .name("aim-serve-http".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        if in_flight.fetch_add(1, Ordering::AcqRel) >= MAX_IN_FLIGHT {
                            in_flight.fetch_sub(1, Ordering::AcqRel);
                            let _ = refuse_busy(&stream);
                            continue;
                        }
                        let (source, slots) = (Arc::clone(&source), Arc::clone(&in_flight));
                        let spawned = std::thread::Builder::new()
                            .name("aim-serve-conn".into())
                            .spawn(move || {
                                let _ = serve_one(stream, source.as_ref());
                                slots.fetch_sub(1, Ordering::AcqRel);
                            });
                        if spawned.is_err() {
                            in_flight.fetch_sub(1, Ordering::AcqRel);
                        }
                    }
                })?
        };
        let ticker = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("aim-serve-tick".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        source.tick();
                        std::thread::sleep(TICK_INTERVAL);
                    }
                })?
        };

        Ok(StatusServer {
            addr,
            stop,
            accept: Some(accept),
            ticker: Some(ticker),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port (useful with port 0).
    pub fn port(&self) -> u16 {
        self.addr.port()
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection; the stop
        // flag makes it exit before serving.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.ticker.take() {
            let _ = handle.join();
        }
    }
}

/// One response: status line, content type, body.
type Response = (&'static str, &'static str, String);

/// Reads one request line (at most [`MAX_REQUEST_LINE`] bytes), routes
/// it, writes one response, closes.
fn serve_one(stream: TcpStream, source: &RunStatus) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.take(MAX_REQUEST_LINE));
    let mut line = Vec::new();
    reader.read_until(b'\n', &mut line)?;
    let request_line = String::from_utf8_lossy(&line);
    // "GET /path HTTP/1.1" — tolerate missing version, reject non-GET.
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);

    let response = if reader.get_ref().limit() == 0 && !line.ends_with(b"\n") {
        (
            "414 URI Too Long",
            "text/plain; charset=utf-8",
            "request line too long\n".to_string(),
        )
    } else if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else {
        match path {
            "/healthz" => {
                if source.healthy() {
                    ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string())
                } else {
                    (
                        "503 Service Unavailable",
                        "text/plain; charset=utf-8",
                        "stalled\n".to_string(),
                    )
                }
            }
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                source.metrics(),
            ),
            "/status" => ("200 OK", "application/json", source.status_json()),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "unknown path; try /healthz, /metrics, /status\n".to_string(),
            ),
        }
    };

    respond(&reader.into_inner().into_inner(), response)
}

/// Answers `503 busy`, then reads what the client sent until it closes
/// (within [`BUSY_WAIT`]): closing over unread bytes would reset the
/// connection before the client reads the answer.
fn refuse_busy(stream: &TcpStream) -> io::Result<()> {
    stream.set_write_timeout(Some(BUSY_WAIT))?;
    stream.set_read_timeout(Some(BUSY_WAIT))?;
    respond(
        stream,
        (
            "503 Service Unavailable",
            "text/plain; charset=utf-8",
            "busy\n".to_string(),
        ),
    )?;
    stream.shutdown(Shutdown::Write)?;
    io::copy(&mut stream.take(MAX_REQUEST_LINE), &mut io::sink()).map(drop)
}

/// Writes `response` with `Connection: close`.
fn respond(mut stream: &TcpStream, (status, content_type, body): Response) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
