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
//! surface is three GET routes with `Connection: close` semantics. The
//! ticker checks the stall watchdog a few times a second so it can fire
//! on schedule even when nobody scrapes.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
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
            std::thread::Builder::new()
                .name("aim-serve-http".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        // Serve inline: responses are small strings and
                        // clients are curl/Prometheus, so a connection
                        // never blocks the loop for long.
                        let _ = serve_one(stream, source.as_ref());
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

    let (status, content_type, body) = if reader.get_ref().limit() == 0 && !line.ends_with(b"\n") {
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

    let mut stream = reader.into_inner().into_inner();
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
