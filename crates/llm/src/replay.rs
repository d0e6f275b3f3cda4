//! Latency-replay serving: a backend that answers calls with latencies
//! drawn from a **recorded distribution** instead of a simulated engine.
//!
//! The paper closes by releasing its collected traces as a serving
//! benchmark (§1); this module is the consuming side of that loop. A
//! [`LatencyProfile`] holds per-[`CallKind`] service-latency samples —
//! mined from a real deployment's logs or exported by `trace_tool
//! latency` from a [`crate::SimServer`] replay — and [`ReplayBackend`]
//! serves every call by sampling that empirical distribution. Unlike
//! [`crate::SimServer`] it carries no queueing model: it replays what a
//! deployment *measured*, which makes it the right replica type for
//! calibrating a fleet against production numbers, and a deterministic,
//! dependency-free stand-in for a real engine.
//!
//! Sampling is keyed on the request identity, not on call order, so a
//! profile + seed fully determine every request's latency no matter how
//! worker threads interleave — the property the equivalence tests rely on.

use std::fmt;
use std::io::{BufRead, Error, ErrorKind, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::backend::LlmBackend;
use crate::request::{CallKind, LlmRequest, LlmResponse};

const MAGIC: &str = "AIMLAT v1";

/// An empirical service-latency distribution, bucketed per [`CallKind`].
///
/// Kinds with no samples of their own fall back to the pooled
/// distribution across all kinds; a completely empty profile samples 0 µs
/// (instant) — useful as a neutral element but usually a sign the export
/// step was skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyProfile {
    name: String,
    /// Samples in µs, indexed by [`CallKind::index`], insertion-ordered.
    samples: Vec<Vec<u64>>,
}

impl LatencyProfile {
    /// Creates an empty profile.
    pub fn new(name: impl Into<String>) -> Self {
        LatencyProfile {
            name: name.into(),
            samples: vec![Vec::new(); CallKind::ALL.len()],
        }
    }

    /// Creates a profile where every kind shares one latency — handy for
    /// tests and doctests.
    pub fn constant(name: impl Into<String>, latency_us: u64) -> Self {
        let mut p = LatencyProfile::new(name);
        for kind in CallKind::ALL {
            p.push(kind, latency_us);
        }
        p
    }

    /// Profile name (for logs and [`LlmBackend::describe`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one observed latency for `kind`, in µs.
    pub fn push(&mut self, kind: CallKind, latency_us: u64) {
        self.samples[kind.index()].push(latency_us);
    }

    /// Total recorded samples across all kinds.
    pub fn len(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// Whether the profile holds no samples at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The raw samples recorded for `kind` (no pooled fallback).
    pub fn samples_for(&self, kind: CallKind) -> &[u64] {
        &self.samples[kind.index()]
    }

    /// Mean latency over every sample, µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.samples.iter().flatten().sum();
        sum as f64 / self.len() as f64
    }

    /// Draws one latency for `kind` using `draw` as the randomness source
    /// (same `draw` → same latency, always).
    pub fn sample(&self, kind: CallKind, draw: u64) -> u64 {
        let own = &self.samples[kind.index()];
        if !own.is_empty() {
            return own[(draw % own.len() as u64) as usize];
        }
        let total = self.len() as u64;
        if total == 0 {
            return 0;
        }
        let mut idx = draw % total;
        for bucket in &self.samples {
            if (idx as usize) < bucket.len() {
                return bucket[idx as usize];
            }
            idx -= bucket.len() as u64;
        }
        unreachable!("index within total sample count")
    }

    /// Serializes the profile as `AIMLAT v1` text (one `L <kind> <µs>`
    /// line per sample — the same pager-friendly style as the trace
    /// format).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), Error> {
        writeln!(w, "{MAGIC}")?;
        // The name is the rest of the line, verbatim; only line breaks
        // (which would corrupt the record framing) are replaced.
        writeln!(w, "N {}", self.name.replace(['\n', '\r'], " "))?;
        for kind in CallKind::ALL {
            for us in &self.samples[kind.index()] {
                writeln!(w, "L {kind} {us}")?;
            }
        }
        Ok(())
    }

    /// Deserializes a profile written by [`LatencyProfile::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::InvalidData`] on malformed input and
    /// propagates read failures.
    pub fn read_from(r: &mut impl BufRead) -> Result<Self, Error> {
        let bad = |line_no: usize, msg: &str| {
            Error::new(ErrorKind::InvalidData, format!("line {line_no}: {msg}"))
        };
        let mut lines = r.lines().enumerate();
        let (_, first) = lines.next().ok_or_else(|| bad(1, "empty file"))?;
        if first?.trim() != MAGIC {
            return Err(bad(1, "bad magic (expected AIMLAT v1)"));
        }
        let mut profile = LatencyProfile::new("");
        for (no, line) in lines {
            let line = line?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('N') {
                if rest.is_empty() || rest.starts_with(' ') {
                    profile.name = rest.trim().to_string();
                    continue;
                }
            }
            let mut f = line.split_ascii_whitespace();
            match f.next().expect("nonempty line has a tag") {
                "L" => {
                    let kind = f
                        .next()
                        .and_then(CallKind::from_str_opt)
                        .ok_or_else(|| bad(no + 1, "missing or unknown kind"))?;
                    let us: u64 = f
                        .next()
                        .ok_or_else(|| bad(no + 1, "missing latency"))?
                        .parse()
                        .map_err(|_| bad(no + 1, "bad latency"))?;
                    profile.push(kind, us);
                }
                _ => return Err(bad(no + 1, "unknown record tag")),
            }
        }
        Ok(profile)
    }

    /// Writes the profile to a file path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), Error> {
        let file = std::fs::File::create(path)?;
        self.write_to(&mut std::io::BufWriter::new(file))
    }

    /// Reads a profile from a file path.
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse errors.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, Error> {
        let file = std::fs::File::open(path)?;
        Self::read_from(&mut std::io::BufReader::new(file))
    }
}

/// SplitMix64 — tiny, seedable, and good enough to decorrelate draws.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// An [`LlmBackend`] that serves calls with latencies replayed from a
/// [`LatencyProfile`].
///
/// Each call's latency is drawn deterministically from
/// `(seed, request id, agent, step)`, then — when the backend is *paced* —
/// slept out at `time_scale` virtual µs per wall-clock µs, exactly like
/// [`crate::RealtimeSimBackend`] paces the simulated engine. An *unpaced*
/// backend returns immediately (latency accounting still runs), which is
/// what scheduler tests want.
///
/// # Example
///
/// ```
/// use aim_llm::{CallKind, LatencyProfile, LlmBackend, LlmRequest, ReplayBackend, RequestId};
///
/// let mut profile = LatencyProfile::new("prod-l4");
/// profile.push(CallKind::Plan, 180_000);
/// profile.push(CallKind::Plan, 210_000);
/// let backend = ReplayBackend::unpaced(profile, 7);
/// let req = LlmRequest::new(RequestId(0), 3, 5, 640, 22, CallKind::Plan);
/// let lat = backend.planned_latency_us(&req);
/// assert!(lat == 180_000 || lat == 210_000);
/// assert_eq!(lat, backend.planned_latency_us(&req), "same request, same draw");
/// backend.call(&req);
/// assert_eq!(backend.metrics().calls, 1);
/// ```
pub struct ReplayBackend {
    profile: LatencyProfile,
    seed: u64,
    /// Virtual µs replayed per wall-clock µs; `None` = never sleep.
    time_scale: Option<f64>,
    calls: AtomicU64,
    replayed_us: AtomicU64,
}

impl fmt::Debug for ReplayBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplayBackend")
            .field("profile", &self.profile.name)
            .field("samples", &self.profile.len())
            .field("seed", &self.seed)
            .field("time_scale", &self.time_scale)
            .finish()
    }
}

/// Cumulative counters of a [`ReplayBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct ReplayMetrics {
    /// Calls served.
    pub calls: u64,
    /// Sum of replayed (virtual) latencies, µs.
    pub replayed_us: u64,
}

impl ReplayBackend {
    /// Creates a paced backend replaying `time_scale` virtual µs per
    /// wall-clock µs (e.g. `1000.0` replays a 200 ms latency as a 200 µs
    /// sleep).
    ///
    /// # Panics
    ///
    /// Panics if `time_scale` is not finite and positive.
    pub fn new(profile: LatencyProfile, seed: u64, time_scale: f64) -> Self {
        assert!(
            time_scale.is_finite() && time_scale > 0.0,
            "time_scale must be positive"
        );
        ReplayBackend {
            profile,
            seed,
            time_scale: Some(time_scale),
            calls: AtomicU64::new(0),
            replayed_us: AtomicU64::new(0),
        }
    }

    /// Creates a backend that accounts latencies but never sleeps.
    pub fn unpaced(profile: LatencyProfile, seed: u64) -> Self {
        ReplayBackend {
            profile,
            seed,
            time_scale: None,
            calls: AtomicU64::new(0),
            replayed_us: AtomicU64::new(0),
        }
    }

    /// The profile this backend replays.
    pub fn profile(&self) -> &LatencyProfile {
        &self.profile
    }

    /// The latency (µs) this backend will replay for `req` — a pure
    /// function of the profile, the seed, and the request identity.
    pub fn planned_latency_us(&self, req: &LlmRequest) -> u64 {
        // Chained (not XORed) mixes: XOR of two symmetric splitmix
        // outputs would collide for id/step-swapped requests.
        let key = splitmix64(
            splitmix64(self.seed ^ req.id.0) ^ ((req.agent as u64) << 32 | req.step & 0xffff_ffff),
        );
        self.profile.sample(req.kind, key)
    }

    /// Counters so far.
    pub fn metrics(&self) -> ReplayMetrics {
        ReplayMetrics {
            calls: self.calls.load(Ordering::Relaxed),
            replayed_us: self.replayed_us.load(Ordering::Relaxed),
        }
    }
}

impl LlmBackend for ReplayBackend {
    fn call(&self, req: &LlmRequest) -> LlmResponse {
        let latency_us = self.planned_latency_us(req);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.replayed_us.fetch_add(latency_us, Ordering::Relaxed);
        if let Some(scale) = self.time_scale {
            let wall = Duration::from_secs_f64(latency_us as f64 / 1e6 / scale);
            if !wall.is_zero() {
                std::thread::sleep(wall);
            }
        }
        LlmResponse {
            id: req.id,
            output_tokens: req.output_tokens,
        }
    }

    fn describe(&self) -> String {
        match self.time_scale {
            Some(scale) => format!(
                "replay({}, {} samples, seed {}, {scale}x)",
                self.profile.name,
                self.profile.len(),
                self.seed
            ),
            None => format!(
                "replay({}, {} samples, seed {}, unpaced)",
                self.profile.name,
                self.profile.len(),
                self.seed
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;

    fn profile() -> LatencyProfile {
        let mut p = LatencyProfile::new("unit test");
        p.push(CallKind::Plan, 100);
        p.push(CallKind::Plan, 200);
        p.push(CallKind::Converse, 50);
        p
    }

    fn req(id: u64, kind: CallKind) -> LlmRequest {
        LlmRequest::new(RequestId(id), id as u32, id, 10, 3, kind)
    }

    #[test]
    fn profile_roundtrips_through_codec() {
        let p = profile();
        let mut buf = Vec::new();
        p.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("AIMLAT v1\nN unit test\n"));
        assert!(text.contains("L plan 100"));
        let back = LatencyProfile::read_from(&mut std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(p, back, "name and samples survive the roundtrip");
    }

    #[test]
    fn awkward_names_roundtrip_verbatim() {
        // Underscores, spaces, and '@' must survive; line breaks are the
        // one thing sanitized (they would corrupt the record framing).
        for name in ["prod_l4", "day @ 2xtest/tiny", "", "  padded  "] {
            let p = LatencyProfile::constant(name, 7);
            let mut buf = Vec::new();
            p.write_to(&mut buf).unwrap();
            let back = LatencyProfile::read_from(&mut std::io::Cursor::new(&buf)).unwrap();
            assert_eq!(back.name(), name.trim(), "name {name:?} mangled");
        }
        let p = LatencyProfile::constant("two\nlines", 7);
        let mut buf = Vec::new();
        p.write_to(&mut buf).unwrap();
        let back = LatencyProfile::read_from(&mut std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(back.name(), "two lines");
    }

    #[test]
    fn profile_file_roundtrip() {
        let p = profile();
        let dir = std::env::temp_dir().join("aim-llm-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.lat");
        p.save(&path).unwrap();
        assert_eq!(LatencyProfile::load(&path).unwrap(), p);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_profiles_are_rejected_with_location() {
        for (text, needle) in [
            ("nope\n", "bad magic"),
            ("AIMLAT v1\nL plan ten\n", "line 2"),
            ("AIMLAT v1\nL warp 10\n", "unknown kind"),
            ("AIMLAT v1\nX 1\n", "unknown record"),
        ] {
            let err = LatencyProfile::read_from(&mut std::io::Cursor::new(text)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData);
            assert!(
                err.to_string().contains(needle),
                "{text:?} should mention {needle}, got: {err}"
            );
        }
    }

    #[test]
    fn sampling_uses_kind_bucket_with_pooled_fallback() {
        let p = profile();
        for draw in 0..16 {
            assert!([100, 200].contains(&p.sample(CallKind::Plan, draw)));
            // No Reflect samples: falls back to the pooled distribution.
            assert!([50, 100, 200].contains(&p.sample(CallKind::Reflect, draw)));
        }
        assert_eq!(LatencyProfile::new("empty").sample(CallKind::Plan, 9), 0);
    }

    #[test]
    fn constant_profile_covers_every_kind() {
        let p = LatencyProfile::constant("c", 42);
        for kind in CallKind::ALL {
            assert_eq!(p.sample(kind, 1234), 42);
        }
        assert_eq!(p.mean_us(), 42.0);
    }

    #[test]
    fn latency_is_deterministic_and_request_keyed() {
        let a = ReplayBackend::unpaced(profile(), 99);
        let b = ReplayBackend::unpaced(profile(), 99);
        for i in 0..64 {
            let r = req(i, CallKind::Plan);
            assert_eq!(a.planned_latency_us(&r), b.planned_latency_us(&r));
        }
        // A different seed must actually change some draws.
        let c = ReplayBackend::unpaced(profile(), 100);
        assert!(
            (0..64).any(|i| {
                let r = req(i, CallKind::Plan);
                a.planned_latency_us(&r) != c.planned_latency_us(&r)
            }),
            "seed must influence sampling"
        );
    }

    #[test]
    fn id_step_swapped_requests_do_not_collide() {
        // Regression: a symmetric (XOR-combined) key made (id=a, step=b)
        // and (id=b, step=a) replay identical latencies for agent 0.
        let mut p = LatencyProfile::new("wide");
        for i in 0..64 {
            p.push(CallKind::Plan, 1_000 + i);
        }
        let b = ReplayBackend::unpaced(p, 12345);
        let differs = (0..32u64).any(|i| {
            let x = LlmRequest::new(RequestId(i), 0, i + 1, 10, 2, CallKind::Plan);
            let y = LlmRequest::new(RequestId(i + 1), 0, i, 10, 2, CallKind::Plan);
            b.planned_latency_us(&x) != b.planned_latency_us(&y)
        });
        assert!(differs, "swapped id/step pairs must not always collide");
    }

    #[test]
    fn call_accounts_metrics() {
        let b = ReplayBackend::unpaced(profile(), 1);
        let mut expected = 0;
        for i in 0..10 {
            let r = req(i, CallKind::Converse);
            expected += b.planned_latency_us(&r);
            let resp = b.call(&r);
            assert_eq!(resp.output_tokens, 3);
        }
        let m = b.metrics();
        assert_eq!(m.calls, 10);
        assert_eq!(m.replayed_us, expected);
    }

    #[test]
    fn paced_backend_sleeps_scaled() {
        let b = ReplayBackend::new(LatencyProfile::constant("slow", 100_000), 0, 1_000.0);
        let start = std::time::Instant::now();
        b.call(&req(0, CallKind::Plan));
        let wall = start.elapsed();
        // 100 ms virtual at 1000x ≈ 100 µs wall; allow generous slack.
        assert!(wall >= Duration::from_micros(100), "must pace: {wall:?}");
        assert!(wall < Duration::from_millis(100), "must scale: {wall:?}");
    }

    #[test]
    fn describe_distinguishes_pacing() {
        let p = profile();
        assert!(ReplayBackend::unpaced(p.clone(), 1)
            .describe()
            .contains("unpaced"));
        assert!(ReplayBackend::new(p, 1, 500.0).describe().contains("500x"));
    }
}
