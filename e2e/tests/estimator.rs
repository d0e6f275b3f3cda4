//! The paired-ratio estimator against synthetic burst noise: a machine
//! whose speed drops 1.3–2× for seconds at a time, as neighbours on the
//! benchmark's sandbox make it do.

use aim_e2e::calib::{calibrated_seconds, Sample, CALIB_REF_S};
use aim_e2e::stats::median;

/// True cost of one rep on an undisturbed core, seconds.
const WORK_S: f64 = 0.300;

struct Xorshift(u64);

impl Xorshift {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A machine: alternating quiet and slowed stretches, each a few
/// seconds long, the slowed ones running `1.3..2.0` times slower.
struct Machine {
    /// `(ends_at, slowdown)` stretches in time order.
    stretches: Vec<(f64, f64)>,
    now: f64,
}

impl Machine {
    fn new(seed: u64, busy_share: f64) -> Self {
        let mut rng = Xorshift(seed);
        let mut stretches = Vec::new();
        let mut t = 0.0;
        while t < 400.0 {
            let quiet = (1.0 + 4.0 * rng.unit()) * (1.0 - busy_share) * 2.0;
            t += quiet;
            stretches.push((t, 1.0));
            let busy = (1.0 + 4.0 * rng.unit()) * busy_share * 2.0;
            t += busy;
            stretches.push((t, 1.3 + 0.7 * rng.unit()));
        }
        Machine {
            stretches,
            now: 0.0,
        }
    }

    /// Runs `cost` seconds of undisturbed work; returns the wall time.
    fn run(&mut self, mut cost: f64) -> f64 {
        let start = self.now;
        while cost > 1e-12 {
            let &(ends_at, slow) = self
                .stretches
                .iter()
                .find(|(e, _)| *e > self.now)
                .expect("schedule outlasts the test");
            let doable = (ends_at - self.now) / slow;
            let step = cost.min(doable);
            self.now += step * slow;
            cost -= step;
        }
        self.now - start
    }

    /// `calib · work · calib · work …`, as the benchmark brackets reps.
    fn reps(&mut self, n: usize) -> Vec<Sample> {
        let mut before = self.run(CALIB_REF_S);
        (0..n)
            .map(|_| {
                let work_s = self.run(WORK_S);
                let after = self.run(CALIB_REF_S);
                let s = Sample {
                    work_s,
                    calib_before_s: before,
                    calib_after_s: after,
                };
                before = after;
                s
            })
            .collect()
    }
}

#[test]
fn paired_ratio_recovers_the_cost_where_the_plain_median_drifts() {
    let raw_median = |s: &[Sample]| median(&s.iter().map(|x| x.work_s).collect::<Vec<_>>());
    // The same code on a mostly quiet and on a mostly slowed machine.
    let quiet = Machine::new(0x1234_5678_9abc_def1, 0.2).reps(40);
    let noisy = Machine::new(0x0fed_cba9_8765_4321, 0.8).reps(40);

    let drift = raw_median(&noisy) / raw_median(&quiet) - 1.0;
    assert!(
        drift > 0.15,
        "the noise must move the plain median by over 15 %, moved {:.1} %",
        100.0 * drift
    );
    for (name, samples) in [("quiet", &quiet), ("noisy", &noisy)] {
        let est = calibrated_seconds(samples);
        let err = (est / WORK_S - 1.0).abs();
        assert!(
            err < 0.03,
            "{name}: estimated {est:.4} s for a {WORK_S} s cost ({:.1} % off)",
            100.0 * err
        );
    }
}

#[test]
fn a_sample_is_its_work_over_the_mean_bracket() {
    let s = Sample {
        work_s: 0.6,
        calib_before_s: 0.05,
        calib_after_s: 0.07,
    };
    assert!((s.calib_s() - 0.06).abs() < 1e-12);
    assert!((s.ratio() - 10.0).abs() < 1e-9);
    assert!((s.calibrated_s() - 10.0 * CALIB_REF_S).abs() < 1e-9);
}
