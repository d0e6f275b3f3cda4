//! A union-find over agent indices.
//!
//! [`DisjointSets`] groups elements into connected components of a pair
//! relation: the oracle policy's per-step interaction components
//! ([`crate::policy`]) and the critical-path miner's groups of interacting
//! agents are built on it. The scheduler itself never batch-clusters: it
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
/// assert_eq!(ds.set_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DisjointSets {
    parent: Vec<u32>,
    size: Vec<u32>,
    sets: usize,
}

impl DisjointSets {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            sets: n,
        }
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
        self.sets -= 1;
        true
    }

    /// Whether `a` and `b` share a set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Current number of disjoint sets.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Groups elements by representative, each group sorted ascending;
    /// groups ordered by their smallest element.
    ///
    /// One O(n) pass: scanning elements in ascending order both discovers
    /// groups in smallest-member order and fills each group pre-sorted,
    /// so no hashing or sorting is needed (the root→group mapping is a
    /// dense scratch table indexed by representative).
    pub fn groups(&mut self) -> Vec<Vec<usize>> {
        let n = self.parent.len();
        let mut slot: Vec<u32> = vec![u32::MAX; n];
        let mut out: Vec<Vec<usize>> = Vec::with_capacity(self.sets);
        for i in 0..n {
            let r = self.find(i);
            let g = if slot[r] == u32::MAX {
                slot[r] = out.len() as u32;
                out.push(Vec::new());
                out.len() - 1
            } else {
                slot[r] as usize
            };
            out[g].push(i);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut ds = DisjointSets::new(5);
        assert_eq!(ds.set_count(), 5);
        assert!(ds.union(0, 1));
        assert!(!ds.union(1, 0));
        ds.union(3, 4);
        assert!(ds.same(0, 1));
        assert!(!ds.same(0, 3));
        assert_eq!(ds.set_count(), 3);
        assert_eq!(ds.groups(), vec![vec![0, 1], vec![2], vec![3, 4]]);
    }

    #[test]
    fn union_by_size_keeps_depth_small() {
        let mut ds = DisjointSets::new(1000);
        for i in 1..1000 {
            ds.union(0, i);
        }
        assert_eq!(ds.set_count(), 1);
        assert!(ds.same(1, 999));
    }
}
