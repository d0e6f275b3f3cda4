use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::request::{LlmRequest, LlmResponse, RequestId};
use crate::server::{Completion, ServerConfig, SimServer};
use crate::time::VirtualTime;

/// A blocking LLM inference backend, as seen by the threaded runtime's
/// worker threads (paper §3.6: workers talk to the serving engine through a
/// thin shim layer).
///
/// Implementations must be shareable across worker threads. The engine
/// never preempts an in-flight call (§3.5), so `call` simply blocks until
/// the response is available. Implement this trait to connect a real
/// serving engine (e.g. an OpenAI-compatible HTTP endpoint); this crate
/// ships [`InstantBackend`] for tests, [`RealtimeSimBackend`] (the
/// virtual-time simulator paced against the wall clock),
/// [`crate::ReplayBackend`] (recorded latency distributions), and
/// [`crate::Fleet`] (N heterogeneous replicas behind a routing policy).
pub trait LlmBackend: Send + Sync {
    /// Executes one request to completion.
    fn call(&self, req: &LlmRequest) -> LlmResponse;

    /// Human-readable backend description (for logs and reports).
    ///
    /// Required, deliberately: every backend must identify itself
    /// distinctively — the threaded runtime records it in its report and
    /// fleets display it per replica, so a generic fallback string would
    /// make heterogeneous deployments unreadable.
    fn describe(&self) -> String;

    /// Fleet-level counters, when this backend is a [`crate::Fleet`]
    /// (or wraps one). Plain backends return `None` — the default.
    ///
    /// This is how the threaded runtime surfaces per-replica routing,
    /// prefix-cache, and fault counters in its report without downcasting
    /// through `Arc<dyn LlmBackend>`.
    fn fleet_metrics(&self) -> Option<crate::FleetMetrics> {
        None
    }

    /// Installs a [`crate::CallObserver`] that will see every per-replica
    /// call attempt, when this backend is a [`crate::Fleet`] (or wraps
    /// one). Plain backends have no attempt structure to observe and
    /// return `false` — the default. Installing again replaces the
    /// previous observer.
    fn install_observer(&self, observer: std::sync::Arc<dyn crate::CallObserver>) -> bool {
        let _ = observer;
        false
    }

    /// Virtual seconds this backend simulates per wall-clock second, when
    /// it paces a simulated/replayed deployment against the wall clock
    /// (`None` — the default — for backends that serve in real time or
    /// never sleep). The fleet reads this to compress its wall-clock
    /// retry backoff by the same factor, so a quick-mode run doesn't
    /// sleep 100 virtual seconds to let a transient fault window pass.
    fn time_scale(&self) -> Option<f64> {
        None
    }
}

/// A backend that completes every call immediately.
///
/// Useful for scheduler-logic tests where serving time is irrelevant.
///
/// # Example
///
/// ```
/// use aim_llm::{CallKind, InstantBackend, LlmBackend, LlmRequest, RequestId};
///
/// let b = InstantBackend::new();
/// let r = b.call(&LlmRequest::new(RequestId(0), 0, 0, 100, 7, CallKind::Plan));
/// assert_eq!(r.output_tokens, 7);
/// assert_eq!(b.calls(), 1);
/// ```
#[derive(Debug, Default)]
pub struct InstantBackend {
    calls: std::sync::atomic::AtomicU64,
}

impl InstantBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of calls served so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl LlmBackend for InstantBackend {
    fn call(&self, req: &LlmRequest) -> LlmResponse {
        self.calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        LlmResponse {
            id: req.id,
            output_tokens: req.output_tokens,
        }
    }

    fn describe(&self) -> String {
        "instant".to_string()
    }
}

/// Waits shorter than this are spun off with `yield_now` instead of a
/// condvar sleep. It is Linux's default timer slack: the kernel may
/// stretch a timed sleep by this much, so a caller that parked for a
/// wait of a few ns would oversleep by up to 50 µs and, in practice,
/// only wake when another caller's pump released it.
const YIELD_BELOW: Duration = Duration::from_micros(50);

/// How long a caller parks while the engine has no iteration in flight.
/// The engine is never idle while a caller's request is in it, so this
/// only bounds a wait that nothing else would end.
const IDLE_POLL: Duration = Duration::from_millis(1);

struct RtInner {
    server: SimServer,
    /// Output tokens of finished requests, until their caller takes them.
    done: HashMap<RequestId, u32>,
    /// Reused buffer for [`SimServer::advance`].
    finished: Vec<Completion>,
    /// Callers asleep on `progressed`; nobody is notified when it is 0.
    parked: usize,
}

/// An [`LlmBackend`] that answers calls from the virtual-time
/// [`SimServer`], pacing completions against the wall clock.
///
/// One wall-clock second corresponds to [`RealtimeSimBackend::time_scale`]
/// virtual seconds, so demos can run a "realistic" deployment sped up by,
/// say, 100×. Multiple worker threads may call concurrently; their requests
/// batch inside the shared simulated engine exactly as they would in a real
/// continuous-batching server — so the *threaded* runtime exhibits the same
/// batching economics as the discrete-event runtime.
///
/// # Pacing
///
/// A call never returns before the wall clock reaches its request's
/// virtual finish time: the engine only ever advances to "wall now" in
/// virtual units. Every loaded run is therefore at least as slow as the
/// request's unloaded service time divided by the time scale.
///
/// # Waiting
///
/// One mutex guards the engine. A caller submits, then loops: take its
/// response if a pump has produced it, else wait for the engine's next
/// iteration end and *pump* — advance the engine to wall now. How it
/// waits depends on how far that end is:
///
/// * under 50 µs (Linux's default timer slack) it releases the lock,
///   `yield_now`s, re-locks and pumps itself. A condvar sleep that short
///   would be stretched to the slack; at city speed-ups (millions of
///   virtual seconds per wall second) nearly every wait is this short;
/// * otherwise it parks on a condvar until that end, and a caller that
///   times out pumps on its next pass.
///
/// Parked callers are counted under the lock, and a notify fires only
/// while one is parked: after a submit (a new iteration may end before
/// their deadline) or after a pump that finished a request (it may be
/// theirs). A notify costs a futex syscall whether or not anyone waits,
/// so nothing else notifies.
pub struct RealtimeSimBackend {
    inner: Mutex<RtInner>,
    progressed: Condvar,
    epoch: Instant,
    time_scale: f64,
    name: String,
}

impl fmt::Debug for RealtimeSimBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RealtimeSimBackend")
            .field("name", &self.name)
            .field("time_scale", &self.time_scale)
            .finish()
    }
}

impl RealtimeSimBackend {
    /// Creates a backend over `cfg`, running `time_scale` virtual seconds
    /// per wall-clock second.
    ///
    /// # Panics
    ///
    /// Panics if `time_scale` is not finite and positive.
    pub fn new(cfg: ServerConfig, time_scale: f64) -> Self {
        assert!(
            time_scale.is_finite() && time_scale > 0.0,
            "time_scale must be positive"
        );
        let name = format!("realtime-sim({}, {}x)", cfg.name, time_scale);
        RealtimeSimBackend {
            inner: Mutex::new(RtInner {
                server: SimServer::new(cfg),
                done: HashMap::new(),
                finished: Vec::new(),
                parked: 0,
            }),
            progressed: Condvar::new(),
            epoch: Instant::now(),
            time_scale,
            name,
        }
    }

    /// Virtual seconds simulated per wall-clock second.
    pub fn time_scale(&self) -> f64 {
        self.time_scale
    }

    fn wall_to_virtual(&self, wall: Duration) -> VirtualTime {
        VirtualTime::from_secs_f64(wall.as_secs_f64() * self.time_scale)
    }

    fn virtual_to_wall(&self, vt: VirtualTime) -> Duration {
        Duration::from_secs_f64(vt.as_secs_f64() / self.time_scale)
    }

    /// Advances the simulator to "wall now" (in virtual units, never
    /// backwards), stashing completions, and wakes parked callers if any
    /// request finished.
    fn pump(&self, inner: &mut RtInner) {
        let vt_now = self
            .wall_to_virtual(self.epoch.elapsed())
            .max(inner.server.now());
        inner.server.advance(vt_now, &mut inner.finished);
        if inner.finished.is_empty() {
            return;
        }
        let finished = inner.finished.drain(..);
        inner
            .done
            .extend(finished.map(|c| (c.req.id, c.req.output_tokens)));
        if inner.parked > 0 {
            self.progressed.notify_all();
        }
    }
}

impl LlmBackend for RealtimeSimBackend {
    fn call(&self, req: &LlmRequest) -> LlmResponse {
        let mut inner = self.inner.lock();
        self.pump(&mut inner);
        let now = inner.server.now();
        inner.server.submit(now, *req);
        if inner.parked > 0 {
            self.progressed.notify_all();
        }
        loop {
            if let Some(output_tokens) = inner.done.remove(&req.id) {
                return LlmResponse {
                    id: req.id,
                    output_tokens,
                };
            }
            let wait = match inner.server.next_event() {
                Some(t) => {
                    (self.epoch + self.virtual_to_wall(t)).saturating_duration_since(Instant::now())
                }
                None => IDLE_POLL,
            };
            if wait < YIELD_BELOW {
                if !wait.is_zero() {
                    drop(inner);
                    std::thread::yield_now();
                    inner = self.inner.lock();
                }
                self.pump(&mut inner);
            } else {
                inner.parked += 1;
                self.progressed.wait_for(&mut inner, wait);
                inner.parked -= 1;
            }
        }
    }

    fn describe(&self) -> String {
        self.name.clone()
    }

    fn time_scale(&self) -> Option<f64> {
        Some(self.time_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::request::CallKind;
    use std::sync::Arc;

    fn fast_cfg() -> ServerConfig {
        // tiny preset at 10_000x wall speed keeps the test fast.
        ServerConfig::from_preset(presets::tiny_test(), 2, true)
    }

    #[test]
    fn instant_backend_counts_calls() {
        let b = InstantBackend::new();
        for i in 0..5 {
            b.call(&LlmRequest::new(RequestId(i), 0, 0, 10, 3, CallKind::Other));
        }
        assert_eq!(b.calls(), 5);
        assert_eq!(b.describe(), "instant");
    }

    #[test]
    fn realtime_backend_serves_single_call() {
        let b = RealtimeSimBackend::new(fast_cfg(), 50_000.0);
        let r = b.call(&LlmRequest::new(RequestId(1), 0, 0, 100, 4, CallKind::Plan));
        assert_eq!(r.id, RequestId(1));
        assert_eq!(r.output_tokens, 4);
    }

    #[test]
    fn realtime_backend_serves_concurrent_calls() {
        let b = Arc::new(RealtimeSimBackend::new(fast_cfg(), 50_000.0));
        let threads: Vec<_> = (0..8u64)
            .map(|i| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let r = b.call(&LlmRequest::new(
                        RequestId(i),
                        i as u32,
                        i % 3,
                        50 + (i as u32) * 10,
                        2 + (i as u32) % 5,
                        CallKind::Converse,
                    ));
                    assert_eq!(r.id, RequestId(i));
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn loaded_calls_never_beat_their_unloaded_service_time() {
        // Prompts fit one prefill chunk, so sharing the engine can only
        // add or lengthen a request's iterations: its loaded latency is at
        // least its unloaded one, and pacing puts that much virtual time
        // between submit and return. 1 µs covers the two roundings of wall
        // time into virtual microseconds.
        const SCALE: f64 = 2_000.0;
        let cfg = fast_cfg();
        let (cost, chunk) = (cfg.cost, cfg.prefill_chunk);
        let b = Arc::new(RealtimeSimBackend::new(cfg, SCALE));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let (b, barrier) = (Arc::clone(&b), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    for k in 0..4u64 {
                        let input = 50 + 40 * t as u32;
                        let output = 1 + ((t + k) % 4) as u32;
                        let id = RequestId(t * 100 + k);
                        barrier.wait();
                        let started = Instant::now();
                        let r = b.call(&LlmRequest::new(
                            id,
                            t as u32,
                            k,
                            input,
                            output,
                            CallKind::Plan,
                        ));
                        let took_us = started.elapsed().as_secs_f64() * SCALE * 1e6;
                        let floor_us = cost.isolated_latency(input, output, chunk).as_micros();
                        assert_eq!(r.id, id);
                        assert!(
                            took_us >= floor_us as f64 - 1.0,
                            "call {id:?} returned after {took_us:.0} virtual µs, \
                             before its unloaded service time of {floor_us} µs"
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn parked_caller_is_released_by_another_callers_pump() {
        // In real time a 1000 µs iteration is 1 ms of wall time, far past
        // the yield bound, so the caller parks. The test then holds the
        // engine past the request's finish, so only the test's pump can
        // finish the request; after it the engine is idle, with no
        // iteration end left to wait for, and the caller must take the
        // response that pump stashed. A lost wake-up fails the
        // `recv_timeout` instead of hanging the test.
        let cfg = fast_cfg();
        let (cost, chunk) = (cfg.cost, cfg.prefill_chunk);
        let b = Arc::new(RealtimeSimBackend::new(cfg, 1.0));
        let req = LlmRequest::new(RequestId(7), 0, 0, 10, 1, CallKind::Plan);
        let (tx, rx) = std::sync::mpsc::channel();
        let caller = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || tx.send(b.call(&req)).unwrap())
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut inner = loop {
            let inner = b.inner.lock();
            if inner.parked == 1 {
                break inner;
            }
            drop(inner);
            assert!(Instant::now() < deadline, "the caller never parked");
            std::thread::yield_now();
        };
        // Nothing has pumped since the caller submitted at `now`.
        let finish = inner.server.now() + cost.isolated_latency(10, 1, chunk);
        let finish_wall = b.epoch + b.virtual_to_wall(finish) + Duration::from_millis(2);
        std::thread::sleep(finish_wall.saturating_duration_since(Instant::now()));
        b.pump(&mut inner);
        assert!(
            inner.done.contains_key(&RequestId(7)),
            "the pump finished it"
        );
        assert_eq!(inner.server.next_event(), None, "the engine is idle");
        drop(inner);
        let r = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a parked caller must take the response another caller pumped");
        assert_eq!(r.output_tokens, 1);
        caller.join().unwrap();
        let inner = b.inner.lock();
        assert_eq!(inner.parked, 0);
        assert!(inner.done.is_empty());
    }

    #[test]
    fn backend_is_object_safe() {
        let b: Box<dyn LlmBackend> = Box::new(InstantBackend::new());
        let r = b.call(&LlmRequest::new(RequestId(0), 0, 0, 1, 1, CallKind::Other));
        assert_eq!(r.output_tokens, 1);
    }
}
