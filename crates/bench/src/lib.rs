//! # aim-bench
//!
//! The reproduction harness: one experiment per table/figure of the AI
//! Metropolis paper, plus shared machinery (trace caching, run
//! orchestration, ASCII tables, CSV output).
//!
//! Run experiments with the `repro` binary:
//!
//! ```text
//! cargo run --release -p aim-bench --bin repro -- fig4a
//! cargo run --release -p aim-bench --bin repro -- all --quick
//! ```
//!
//! Results print as tables and are also written as CSV under
//! `target/repro/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod table;

pub use harness::{run_modes, run_one, Mode, RunEnv};
pub use table::Table;

/// Fixed CPU-bound calibration workload shared by the gated bench
/// targets (`calibration/spin` in every one of them).
///
/// Its measured time depends only on the machine's effective speed at
/// bench time — never on this repository's code — so `bench_gate` uses
/// the ratio of fresh to baseline calibration to normalize every other
/// benchmark before applying the regression threshold. That cancels
/// uniform machine drift (thermal throttling, a noisy neighbor on the
/// runner, a different CI machine class) which would otherwise make a
/// 5% gate flaky.
#[inline(never)]
pub fn calibration_spin() -> u64 {
    // ~100k xorshift64* steps: pure register arithmetic, no memory
    // traffic, deterministic instruction count.
    let mut x = 0x9e3779b97f4a7c15u64;
    let mut acc = 0u64;
    for _ in 0..100_000 {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        acc = acc.wrapping_add(x.wrapping_mul(0x2545f4914f6cdd1d));
    }
    acc
}
