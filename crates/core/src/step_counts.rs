//! A histogram of members per step: the step bounds of a set of agents,
//! without keeping its members in step order.

use std::collections::VecDeque;

/// How many members stand at each step, from the lowest step any member
/// stands at to the highest.
///
/// The counts are held densely from `base` on and trimmed of zeros at
/// both ends, so the bounds are the first and last slot, read in O(1).
/// An add or remove is O(1) amortised: each slot is pushed once and
/// trimmed once. Memory is one `u32` per step between the bounds, and
/// nothing is allocated once the histogram has spanned that many steps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct StepCounts {
    /// The step `counts[0]` counts; 0 when empty, so equal histograms
    /// compare equal.
    base: u32,
    /// Members per step from `base` on; the first and last are non-zero.
    counts: VecDeque<u32>,
}

impl StepCounts {
    /// Whether no member is counted.
    pub(crate) fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The lowest and highest step a member stands at; `None` when empty.
    pub(crate) fn bounds(&self) -> Option<(u32, u32)> {
        let span = self.counts.len() as u32;
        (span > 0).then(|| (self.base, self.base + (span - 1)))
    }

    /// Counts one more member at `step`.
    pub(crate) fn add(&mut self, step: u32) {
        if self.counts.is_empty() {
            self.base = step;
        }
        if step < self.base {
            for _ in step..self.base {
                self.counts.push_front(0);
            }
            self.base = step;
        }
        let i = (step - self.base) as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
    }

    /// Counts one member fewer at `step`.
    ///
    /// # Panics
    ///
    /// Panics, in release builds too, if no member is counted at `step`:
    /// the count must not wrap into a bound that holds no member.
    pub(crate) fn remove(&mut self, step: u32) {
        let slot = (step.checked_sub(self.base))
            .and_then(|i| self.counts.get_mut(i as usize))
            .filter(|count| **count > 0);
        let Some(count) = slot else {
            panic!("no member is counted at step {step}");
        };
        *count -= 1;
        // The top first: once it is trimmed, the front trim stops at a
        // counted step, so `base` never passes the highest one.
        while self.counts.back() == Some(&0) {
            self.counts.pop_back();
        }
        while self.counts.front() == Some(&0) {
            self.counts.pop_front();
            self.base += 1;
        }
        if self.counts.is_empty() {
            self.base = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::StepCounts;

    fn of(steps: &[u32]) -> StepCounts {
        let mut h = StepCounts::default();
        for &s in steps {
            h.add(s);
        }
        h
    }

    #[test]
    fn bounds_follow_the_extremes() {
        let mut h = StepCounts::default();
        assert!(h.is_empty());
        assert_eq!(h.bounds(), None);
        h.add(5);
        assert_eq!(h.bounds(), Some((5, 5)));
        h.add(9);
        h.add(2);
        assert_eq!(h.bounds(), Some((2, 9)));
        h.remove(9);
        assert_eq!(h.bounds(), Some((2, 5)));
        h.remove(2);
        assert_eq!(h.bounds(), Some((5, 5)));
    }

    #[test]
    fn removing_an_extreme_trims_the_zeros_behind_it() {
        let mut h = of(&[3, 4, 10, 20]);
        h.remove(20);
        assert_eq!(h.bounds(), Some((3, 10)));
        h.remove(3);
        h.remove(4);
        assert_eq!(h.bounds(), Some((10, 10)));
    }

    #[test]
    fn an_emptied_histogram_refills_anywhere() {
        let mut h = of(&[7, 7]);
        h.remove(7);
        h.remove(7);
        assert!(h.is_empty());
        assert_eq!(h, StepCounts::default(), "an empty histogram is canonical");
        h.add(1_000);
        assert_eq!(h.bounds(), Some((1_000, 1_000)));
        h.add(0);
        assert_eq!(h.bounds(), Some((0, 1_000)));
    }

    #[test]
    fn equal_counts_compare_equal_whatever_their_history() {
        let mut h = of(&[50, 0, 9]);
        h.remove(0);
        h.remove(50);
        h.add(9);
        assert_eq!(h, of(&[9, 9]));
        assert_ne!(h, of(&[9, 10]));
    }

    #[test]
    fn the_last_step_empties_without_overflow() {
        let mut h = of(&[u32::MAX]);
        assert_eq!(h.bounds(), Some((u32::MAX, u32::MAX)));
        h.remove(u32::MAX);
        assert!(h.is_empty());
    }

    #[test]
    #[should_panic(expected = "no member is counted at step 4")]
    fn removing_an_uncounted_interior_step_panics() {
        let mut h = of(&[3, 5]);
        h.remove(4);
    }

    #[test]
    #[should_panic(expected = "no member is counted at step 6")]
    fn removing_above_the_top_panics() {
        of(&[3, 5]).remove(6);
    }

    #[test]
    #[should_panic(expected = "no member is counted at step 2")]
    fn removing_below_the_base_panics() {
        of(&[3]).remove(2);
    }

    #[test]
    #[should_panic(expected = "no member is counted at step 0")]
    fn removing_from_an_empty_histogram_panics() {
        StepCounts::default().remove(0);
    }

    /// One operation on the histogram: add a member at a step, or remove
    /// one at the `k`-th counted step (modulo how many are counted).
    #[derive(Debug, Clone)]
    enum Op {
        Add(u32),
        Remove(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            // Steps near one another, as members in step are...
            (990u32..1_010).prop_map(Op::Add),
            // ...and rollback-sized jumps both ways.
            (0u32..2_000).prop_map(Op::Add),
            (0usize..64).prop_map(Op::Remove),
            (0usize..64).prop_map(Op::Remove),
        ]
    }

    proptest! {
        #[test]
        fn the_histogram_matches_a_btreemap_model(ops in proptest::collection::vec(op(), 0..200)) {
            let mut h = StepCounts::default();
            let mut model: BTreeMap<u32, u32> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Add(s) => {
                        h.add(s);
                        *model.entry(s).or_default() += 1;
                    }
                    Op::Remove(_) if model.is_empty() => continue,
                    Op::Remove(k) => {
                        let s = *model.keys().nth(k % model.len()).unwrap();
                        h.remove(s);
                        let count = model.get_mut(&s).unwrap();
                        *count -= 1;
                        if *count == 0 {
                            model.remove(&s);
                        }
                    }
                }
                let lo = model.keys().next().copied();
                let hi = model.keys().next_back().copied();
                prop_assert_eq!(h.bounds(), lo.zip(hi));
                prop_assert_eq!(h.is_empty(), model.is_empty());
                let rebuilt: Vec<u32> =
                    model.iter().flat_map(|(&s, &n)| std::iter::repeat_n(s, n as usize)).collect();
                prop_assert_eq!(&h, &of(&rebuilt));
            }
        }
    }
}
