//! A union-find over agent indices.
//!
//! [`DisjointSets`] groups elements into connected components of a pair
//! relation: the oracle policy's per-step interaction components
//! ([`crate::policy::OracleGraph`], which the critical-path miner reuses)
//! are built on it. The scheduler itself never batch-clusters: it
//! grows each cluster from the coupling edges the dependency tracker
//! maintains (paper §3.4).

/// A classic union-find (disjoint-set) structure with path compression and
/// union by size.
///
/// # Example
///
/// ```
/// use aim_core::cluster::DisjointSets;
///
/// let mut ds = DisjointSets::new(4);
/// ds.union(0, 1);
/// ds.union(2, 3);
/// assert!(ds.same(0, 1));
/// assert!(!ds.same(1, 2));
/// ```
#[derive(Debug, Clone)]
pub struct DisjointSets {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl DisjointSets {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Splits every set back into singletons, keeping the storage.
    pub fn reset(&mut self) {
        for (p, i) in self.parent.iter_mut().zip(0..) {
            *p = i;
        }
        self.size.fill(1);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] as usize != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`; returns `true` if they were
    /// distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        true
    }

    /// Whether `a` and `b` share a set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut ds = DisjointSets::new(5);
        assert!(!ds.same(0, 1));
        assert!(ds.union(0, 1));
        assert!(!ds.union(1, 0));
        ds.union(3, 4);
        assert!(ds.same(0, 1));
        assert!(ds.same(3, 4));
        assert!(!ds.same(0, 3));
        assert!(!ds.same(2, 4));
        ds.reset();
        assert!(!ds.same(0, 1));
        assert!(!ds.same(3, 4));
    }

    #[test]
    fn union_by_size_keeps_depth_small() {
        let mut ds = DisjointSets::new(1000);
        for i in 1..1000 {
            ds.union(0, i);
        }
        assert!((1..1000).all(|i| ds.same(0, i)));
    }
}
