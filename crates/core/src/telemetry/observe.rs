//! The wrappers that feed a sink from the serving side: every backend
//! call becomes an [`SpanKind::LlmCall`] span and every fleet attempt a
//! [`SpanKind::FleetAttempt`] span.

use std::sync::Arc;

use aim_llm::{AttemptOutcome, CallObserver, FleetMetrics, LlmBackend, LlmRequest, LlmResponse};

use super::schema::{Counter, SpanKind};
use super::sink::Telemetry;

/// An [`LlmBackend`] wrapper that records every call as an
/// [`SpanKind::LlmCall`] span, attributed to the issuing agent and step
/// straight off the request. Transparent otherwise: `describe`,
/// `fleet_metrics`, and `install_observer` all delegate.
pub struct TelemetryBackend {
    inner: Arc<dyn LlmBackend>,
    telemetry: Arc<Telemetry>,
}

impl std::fmt::Debug for TelemetryBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryBackend")
            .field("inner", &self.inner.describe())
            .finish()
    }
}

impl TelemetryBackend {
    /// Wraps `inner`, recording into `telemetry`'s shared buffer.
    pub fn new(inner: Arc<dyn LlmBackend>, telemetry: Arc<Telemetry>) -> TelemetryBackend {
        TelemetryBackend { inner, telemetry }
    }
}

impl LlmBackend for TelemetryBackend {
    fn call(&self, req: &LlmRequest) -> LlmResponse {
        let t0 = self.telemetry.start();
        let resp = self.inner.call(req);
        if let Some(t0) = t0 {
            self.telemetry.counter_add(Counter::LlmCalls, 1);
            self.telemetry.record(
                t0,
                SpanKind::LlmCall {
                    agent: req.agent,
                    step: req.step as u32,
                    request: req.id.0,
                    kind: req.kind,
                },
            );
        }
        resp
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn fleet_metrics(&self) -> Option<FleetMetrics> {
        self.inner.fleet_metrics()
    }

    fn install_observer(&self, observer: Arc<dyn CallObserver>) -> bool {
        self.inner.install_observer(observer)
    }
}

/// The [`CallObserver`] bridging the fleet's attempt hooks into
/// [`SpanKind::FleetAttempt`] spans — how retries show up on the trace,
/// linked to their parent LLM-call span by request id.
pub struct TelemetryObserver {
    telemetry: Arc<Telemetry>,
}

impl std::fmt::Debug for TelemetryObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryObserver").finish()
    }
}

impl TelemetryObserver {
    /// An observer recording into `telemetry`'s shared buffer.
    pub fn new(telemetry: Arc<Telemetry>) -> TelemetryObserver {
        TelemetryObserver { telemetry }
    }
}

impl CallObserver for TelemetryObserver {
    fn begin_attempt(&self, _req: &LlmRequest, _replica: u32) -> u64 {
        self.telemetry.start().unwrap_or(u64::MAX)
    }

    fn end_attempt(&self, token: u64, req: &LlmRequest, replica: u32, outcome: AttemptOutcome) {
        if token == u64::MAX {
            return; // opened while disabled
        }
        self.telemetry.counter_add(Counter::FleetAttempts, 1);
        self.telemetry.record(
            token,
            SpanKind::FleetAttempt {
                request: req.id.0,
                replica,
                hedge: false,
                outcome,
            },
        );
    }
}
