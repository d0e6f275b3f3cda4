//! Calibration-paired timing: how host time is measured on a shared box.
//!
//! Neighbours on this sandbox slow the engine 1.3–2× for seconds at a
//! time, so the plain median of a run's rep times drifts 13–27 % between
//! runs of the same binary. CPU time equals wall time here (no help), and
//! a register-only spin loop does not feel the slow-downs. A kernel that
//! is allocation- and cache-bound like the engine does: so every timed
//! interval is bracketed `calib · work · calib`, its sample is the ratio
//! `work / mean(calib before, calib after)`, and a cost is reported as
//! the median ratio times a reference calibration time fixed in the
//! source.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// What one [`calib_mem`] costs on an undisturbed core of the reference
/// sandbox, in seconds. Only the *scale* of the calibrated rows depends
/// on it; it must never change, or every host row shifts.
pub const CALIB_REF_S: f64 = 0.040;

/// Operations of one [`calib_mem`] run (sized to ≈ 40 ms).
const CALIB_OPS: u32 = 260_000;

/// Kernel runs per bracket point. The kernel's own time is as noisy as
/// the work's, so a ratio is steadiest when about as long is spent
/// calibrating as working; three runs per point put a third of a
/// 0.3 s rep's time into calibration (README, "Calibration").
const CALIB_RUNS: u32 = 3;

/// Keys live in `0..CALIB_KEYS`, so the maps hold tens of thousands of
/// entries: well past the L2 cache.
const CALIB_KEYS: u64 = 1 << 16;

/// A multiply-xorshift hasher with a fixed seed: `HashMap`'s default
/// hasher is randomly keyed per process, which would make the kernel's
/// probe sequences (and so its cost) differ between runs.
#[derive(Default)]
struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        let mut h = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 32;
        self.0 = h;
    }
}

/// The fixed calibration kernel: a fixed-seed xorshift drives insert,
/// lookup and remove churn on a `BTreeMap<u64, Vec<u32>>` and a
/// `HashMap`, so its cost is set by the allocator and the cache
/// hierarchy — what the engine's own cost is set by — and by nothing in
/// this repository.
#[inline(never)]
pub fn calib_mem() -> u64 {
    let mut tree: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut table: HashMap<u64, u64, BuildHasherDefault<FixedHasher>> = HashMap::default();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut acc = 0u64;
    for i in 0..CALIB_OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % CALIB_KEYS;
        match x >> 61 {
            0..=3 => {
                tree.entry(key).or_default().push(i);
                table.insert(key, x);
            }
            4..=5 => {
                acc = acc.wrapping_add(tree.get(&key).map_or(0, |v| v.len() as u64));
                acc = acc.wrapping_add(table.get(&key).copied().unwrap_or(0));
            }
            _ => {
                acc = acc.wrapping_add(tree.remove(&key).map_or(0, |v| v.len() as u64));
                acc = acc.wrapping_add(table.remove(&key).unwrap_or(0));
            }
        }
    }
    black_box(acc.wrapping_add(tree.len() as u64 + table.len() as u64))
}

/// One timed interval with the calibration runs that bracket it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Wall time of the work, seconds.
    pub work_s: f64,
    /// Wall time of the calibration run before the work, seconds.
    pub calib_before_s: f64,
    /// Wall time of the calibration run after the work, seconds.
    pub calib_after_s: f64,
}

impl Sample {
    /// Mean of the two bracketing calibration times, seconds.
    pub fn calib_s(&self) -> f64 {
        (self.calib_before_s + self.calib_after_s) / 2.0
    }

    /// The work's cost in units of the calibration kernel.
    pub fn ratio(&self) -> f64 {
        self.work_s / self.calib_s()
    }

    /// The work's cost in calibrated seconds.
    pub fn calibrated_s(&self) -> f64 {
        self.ratio() * CALIB_REF_S
    }
}

/// The paired-ratio estimate of a cost from its samples: the median
/// ratio, scaled to calibrated seconds.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn calibrated_seconds(samples: &[Sample]) -> f64 {
    let ratios: Vec<f64> = samples.iter().map(Sample::ratio).collect();
    median(&ratios) * CALIB_REF_S
}

/// Times intervals `calib · work · calib · work · calib …`: each
/// calibration run is shared by the intervals on either side of it.
#[derive(Debug)]
pub struct Bracket {
    last_calib_s: f64,
}

impl Bracket {
    /// Runs the kernel once unmeasured (first-touch page faults), then
    /// once as the opening bracket.
    pub fn open() -> Self {
        calib_mem();
        Bracket {
            last_calib_s: time_calib(),
        }
    }

    /// Times `work` and the calibration run after it.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Sample) {
        let t0 = Instant::now();
        let out = work();
        let work_s = t0.elapsed().as_secs_f64();
        (out, self.close(work_s))
    }

    /// Closes the bracket around work that timed itself at `work_s`
    /// seconds and has just ended.
    pub fn close(&mut self, work_s: f64) -> Sample {
        let after = time_calib();
        let sample = Sample {
            work_s,
            calib_before_s: self.last_calib_s,
            calib_after_s: after,
        };
        self.last_calib_s = after;
        sample
    }
}

/// Mean wall time of one kernel run over a bracket point's runs.
fn time_calib() -> f64 {
    let t0 = Instant::now();
    for _ in 0..CALIB_RUNS {
        calib_mem();
    }
    t0.elapsed().as_secs_f64() / CALIB_RUNS as f64
}
