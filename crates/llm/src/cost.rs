use serde::{Deserialize, Serialize};

use crate::time::VirtualTime;

/// Analytical per-iteration cost model of one serving replica.
///
/// The model captures the two regimes that matter for batching studies:
///
/// * **memory-bound decode** — every iteration must stream the model
///   weights, so there is a latency *floor* ([`CostModel::iter_floor_us`])
///   that is paid regardless of batch size. Small batches therefore get
///   nearly "free" extra sequences, which is precisely the headroom the AI
///   Metropolis scheduler exploits by raising concurrency.
/// * **compute-bound work** — prefill tokens and (at large batch) decode
///   sequences scale linearly
///   ([`CostModel::prefill_us_per_token`], [`CostModel::decode_us_per_seq`]).
///
/// One iteration that prefills `p` tokens and decodes `d` sequences takes
///
/// ```text
/// t = iter_overhead_us + max(iter_floor_us,
///                            p · prefill_us_per_token + d · decode_us_per_seq)
/// ```
///
/// # Example
///
/// ```
/// use aim_llm::CostModel;
///
/// let m = CostModel::new(50_000.0, 270.0, 1_200.0, 500.0);
/// // Below the floor: 8 decode sequences still cost one floor iteration.
/// assert_eq!(m.iter_time(0, 8).as_micros(), 50_500);
/// // Saturation: beyond ~41 sequences the batch is compute-bound.
/// assert_eq!(m.saturation_batch(), 41);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Iteration latency floor in µs (weight streaming / kernel launch).
    pub iter_floor_us: f64,
    /// Marginal cost of one prefill token, µs.
    pub prefill_us_per_token: f64,
    /// Marginal cost of one decoding sequence per iteration, µs.
    pub decode_us_per_seq: f64,
    /// Fixed scheduling overhead per iteration, µs.
    pub iter_overhead_us: f64,
}

impl CostModel {
    /// Creates a cost model; all parameters in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative or not finite, or if
    /// `decode_us_per_seq` is zero (the saturation batch would diverge).
    pub fn new(
        iter_floor_us: f64,
        prefill_us_per_token: f64,
        decode_us_per_seq: f64,
        iter_overhead_us: f64,
    ) -> Self {
        for (name, v) in [
            ("iter_floor_us", iter_floor_us),
            ("prefill_us_per_token", prefill_us_per_token),
            ("decode_us_per_seq", decode_us_per_seq),
            ("iter_overhead_us", iter_overhead_us),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{name} must be finite and non-negative, got {v}"
            );
        }
        assert!(
            decode_us_per_seq > 0.0,
            "decode_us_per_seq must be positive"
        );
        CostModel {
            iter_floor_us,
            prefill_us_per_token,
            decode_us_per_seq,
            iter_overhead_us,
        }
    }

    /// Duration of one iteration prefilling `prefill_tokens` and decoding
    /// `decode_seqs` sequences.
    pub fn iter_time(&self, prefill_tokens: u32, decode_seqs: u32) -> VirtualTime {
        let work = prefill_tokens as f64 * self.prefill_us_per_token
            + decode_seqs as f64 * self.decode_us_per_seq;
        VirtualTime::from_micros_f64_ceil(self.iter_overhead_us + work.max(self.iter_floor_us))
    }

    /// Batch size at which decode transitions from memory- to compute-bound
    /// (`floor / decode_us_per_seq`, at least 1).
    pub fn saturation_batch(&self) -> u32 {
        ((self.iter_floor_us / self.decode_us_per_seq).floor() as u32).max(1)
    }

    /// Peak decode throughput in tokens/second, reached at or beyond the
    /// saturation batch.
    pub fn peak_decode_tok_per_s(&self) -> f64 {
        1e6 / self.decode_us_per_seq
    }

    /// Latency of a request run **alone** on an idle replica: chunked
    /// prefill followed by one iteration per output token. This is the
    /// building block of the paper's `critical` lower bound (§4.2), which
    /// charges each call its unloaded latency.
    pub fn isolated_latency(
        &self,
        input_tokens: u32,
        output_tokens: u32,
        chunk: u32,
    ) -> VirtualTime {
        let chunk = chunk.max(1);
        let mut t = VirtualTime::ZERO;
        let mut remaining = input_tokens;
        while remaining > 0 {
            let now = remaining.min(chunk);
            t += self.iter_time(now, 0);
            remaining -= now;
        }
        for _ in 0..output_tokens.max(1) {
            t += self.iter_time(0, 1);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(50_000.0, 270.0, 1_200.0, 500.0)
    }

    #[test]
    fn floor_dominates_small_batches() {
        let m = model();
        assert_eq!(m.iter_time(0, 1), m.iter_time(0, 10));
        assert!(m.iter_time(0, 100) > m.iter_time(0, 10));
    }

    #[test]
    fn prefill_scales_linearly_above_floor() {
        let m = model();
        let t1 = m.iter_time(1000, 0).as_micros() as f64;
        let t2 = m.iter_time(2000, 0).as_micros() as f64;
        // 1000 * 270 = 270k > floor, so doubling tokens roughly doubles work.
        assert!((t2 - 500.0) / (t1 - 500.0) > 1.9);
    }

    #[test]
    fn throughput_is_concave_and_saturates() {
        let m = model();
        // Decode tokens per microsecond at a running batch size.
        let throughput = |batch: u32| batch as f64 / m.iter_time(0, batch).as_micros() as f64;
        let t1 = throughput(1);
        let t8 = throughput(8);
        let sat = m.saturation_batch();
        let tsat = throughput(sat);
        let t4x = throughput(sat * 4);
        assert!(
            t8 > 7.0 * t1,
            "below saturation extra sequences are nearly free"
        );
        assert!(tsat > t8);
        // Beyond saturation throughput stops growing meaningfully (within 10%).
        assert!(t4x < tsat * 1.10);
        assert!((m.peak_decode_tok_per_s() - 1e6 / 1200.0).abs() < 1e-9);
    }

    #[test]
    fn isolated_latency_components() {
        let m = model();
        // 600 input tokens in one 512 + one 88 chunk, 2 output tokens.
        let t = m.isolated_latency(600, 2, 512);
        let prefill1 = m.iter_time(512, 0);
        let prefill2 = m.iter_time(88, 0);
        let decode = m.iter_time(0, 1);
        assert_eq!(t, prefill1 + prefill2 + decode + decode);
    }

    #[test]
    fn isolated_latency_zero_output_counts_one_iteration() {
        let m = model();
        assert_eq!(m.isolated_latency(0, 0, 512), m.iter_time(0, 1));
    }

    #[test]
    #[should_panic(expected = "decode_us_per_seq must be positive")]
    fn zero_decode_cost_rejected() {
        let _ = CostModel::new(1.0, 1.0, 0.0, 0.0);
    }

    #[test]
    fn saturation_batch_at_least_one() {
        let m = CostModel::new(1.0, 1.0, 100.0, 0.0);
        assert_eq!(m.saturation_batch(), 1);
    }
}
