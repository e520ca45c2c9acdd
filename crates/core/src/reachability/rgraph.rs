//! The reachability dag `R` over attached sets, with an incrementally
//! maintained transitive closure.
//!
//! MultiBags+ keeps `R` small (O(k) nodes and arcs for k `get_fut`
//! operations) and its closure exact, so queries are O(1). As in FutureRD
//! the closure is bit vectors updated with parallel bit operations: one
//! [`DynBitSet`] row of predecessors per node, and nothing else. An arc
//! `from -> to` unions `pred[from] ∪ {from}` into the row of every
//! descendant of `to` (`to` and each node whose row holds `to`). Nearly
//! every arc targets a fresh node (no outgoing arc yet), whose only
//! descendant is itself: one word-parallel row union. Otherwise (as for
//! `on_sync`'s `rf -> rs1` when both branches are attached) the rows are
//! scanned for the descendants, which is correct for any arc order. Either
//! way an arc costs at most k bit tests and k row unions, so the O(k) arcs
//! cost O(k²) row operations: Theorem 5.1's bound, counting a row union as
//! one parallel bit operation.

use crate::bitset::DynBitSet;
use serde::{Deserialize, Serialize};

/// Identifier of a node of `R` (an attached set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RNodeId(pub u32);

impl RNodeId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A dag with an exact, incrementally maintained transitive closure, stored
/// as predecessor rows only (see the module docs for the update rules).
#[derive(Debug, Clone, Default)]
pub struct RGraph {
    /// `pred[i]`: nodes with a (non-empty) path to `i`.
    pred: Vec<DynBitSet>,
    /// `has_succ[i]`: `i` has an outgoing arc, so arcs into it take the
    /// non-fresh path.
    has_succ: Vec<bool>,
    arcs: u64,
}

impl RGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.pred.len()
    }

    /// Number of arcs added (not counting arcs already implied by the
    /// closure, which are still stored but not re-counted).
    pub fn num_arcs(&self) -> u64 {
        self.arcs
    }

    /// Adds a node with no arcs and returns its id.
    pub fn add_node(&mut self) -> RNodeId {
        let id = RNodeId(self.pred.len() as u32);
        self.pred.push(DynBitSet::new());
        self.has_succ.push(false);
        id
    }

    /// Adds an arc `from -> to` and updates the transitive closure.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the arc would create a cycle; the
    /// execution order guarantees arcs always point forward in time.
    pub fn add_arc(&mut self, from: RNodeId, to: RNodeId) {
        debug_assert!(
            from != to && !self.reaches(to, from),
            "arc {from}->{to} would create a cycle in R"
        );
        self.arcs += 1;
        if self.reaches(from, to) {
            return;
        }
        let (from, to) = (from.index(), to.index());
        self.has_succ[from] = true;
        if !self.has_succ[to] {
            self.absorb(to, from);
            return;
        }
        // Acyclicity keeps `from` out of the descendants of `to` and `to`
        // out of `pred[from]`, so the scan sees every row as it was before
        // the arc.
        for d in 0..self.pred.len() {
            let row = &self.pred[d];
            if (d == to || row.get(to)) && !row.get(from) {
                self.absorb(d, from);
            }
        }
    }

    /// `pred[d] ∪= pred[from] ∪ {from}`, for `d != from`.
    fn absorb(&mut self, d: usize, from: usize) {
        let mut row = std::mem::take(&mut self.pred[d]);
        row.union_with(&self.pred[from]);
        row.set(from);
        self.pred[d] = row;
    }

    /// True iff there is a non-empty path `from -> to`.
    pub fn reaches(&self, from: RNodeId, to: RNodeId) -> bool {
        self.pred
            .get(to.index())
            .is_some_and(|p| p.get(from.index()))
    }

    /// Approximate heap usage of the closure (the predecessor rows) in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.pred.iter().map(DynBitSet::heap_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn shuffle<T>(v: &mut [T], state: &mut u64) {
        for i in (1..v.len()).rev() {
            v.swap(i, xorshift(state) as usize % (i + 1));
        }
    }

    /// Floyd–Warshall closure of `n` nodes under `arcs`.
    fn floyd_warshall(n: usize, arcs: &[(usize, usize)]) -> Vec<Vec<bool>> {
        let mut adj = vec![vec![false; n]; n];
        for &(i, j) in arcs {
            adj[i][j] = true;
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    adj[i][j] |= adj[i][k] && adj[k][j];
                }
            }
        }
        adj
    }

    /// Builds a graph of `n` nodes from `arcs`, checking it against
    /// Floyd–Warshall after every insertion; returns how many insertions
    /// targeted a node that already had successors and was not yet reached.
    fn check_insertions(n: usize, arcs: &[(usize, usize)]) -> usize {
        let mut g = RGraph::new();
        let nodes: Vec<_> = (0..n).map(|_| g.add_node()).collect();
        let mut closure = vec![vec![false; n]; n];
        let mut non_fresh = 0;
        for (k, &(from, to)) in arcs.iter().enumerate() {
            if closure[to].contains(&true) && !closure[from][to] {
                non_fresh += 1;
            }
            g.add_arc(nodes[from], nodes[to]);
            closure = floyd_warshall(n, &arcs[..=k]);
            for i in 0..n {
                for j in 0..n {
                    let got = g.reaches(nodes[i], nodes[j]);
                    assert_eq!(got, closure[i][j], "after arc {k}: ({i},{j})");
                }
            }
        }
        non_fresh
    }

    #[test]
    fn empty_graph_has_no_reachability() {
        let g = RGraph::new();
        assert_eq!(g.num_nodes(), 0);
        assert!(!g.reaches(RNodeId(0), RNodeId(1)));
    }

    #[test]
    fn direct_arc_is_reachable() {
        let mut g = RGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_arc(a, b);
        assert!(g.reaches(a, b));
        assert!(!g.reaches(b, a));
        assert!(!g.reaches(a, a));
        assert_eq!(g.num_arcs(), 1);
    }

    #[test]
    fn closure_is_transitive_in_both_directions() {
        // chain 0->1->2 and 3->4->5, then bridge 2->3.
        let arcs = [(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)];
        assert_eq!(check_insertions(6, &arcs), 1);
        let closure = floyd_warshall(6, &arcs);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(closure[i][j], i < j, "({i},{j})");
            }
        }
    }

    #[test]
    fn diamond_reachability() {
        let mut g = RGraph::new();
        let [a, b, c, d] = [(); 4].map(|_| g.add_node());
        g.add_arc(a, b);
        g.add_arc(a, c);
        g.add_arc(b, d);
        g.add_arc(c, d);
        assert!(g.reaches(a, d));
        assert!(!g.reaches(b, c));
        assert!(!g.reaches(c, b));
    }

    #[test]
    fn bridge_into_an_older_node_with_successors_reaches_its_descendants() {
        // Diamond 0 -> {1, 2} -> 3, then the newer node 4 bridged into 1,
        // which has a lower id and a successor, as in `on_sync`'s
        // `rf -> rs1`; the bridge 4 -> 3 is then implied.
        let arcs = [(0, 1), (0, 2), (1, 3), (2, 3), (4, 1), (4, 3)];
        assert_eq!(check_insertions(5, &arcs), 1);
    }

    #[test]
    fn redundant_arcs_do_not_break_closure() {
        let mut g = RGraph::new();
        let [a, b, c] = [(); 3].map(|_| g.add_node());
        g.add_arc(a, b);
        g.add_arc(b, c);
        g.add_arc(a, c); // already implied
        assert!(g.reaches(a, c));
        assert_eq!(g.num_arcs(), 3);
    }

    #[test]
    fn closure_matches_floyd_warshall_on_random_dags() {
        // Deterministic pseudo-random dag: arcs only from lower to higher
        // ids, inserted in that order.
        let n = 40usize;
        let mut state = 0x243f6a8885a308d3u64;
        let arcs: Vec<_> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .filter(|_| xorshift(&mut state) % 10 < 2)
            .collect();
        check_insertions(n, &arcs);
    }

    #[test]
    fn closure_matches_floyd_warshall_under_shuffled_arc_order() {
        // Random dags over a shuffled topological order, their arcs
        // inserted in shuffled order: arcs point into lower ids and into
        // nodes that already have successors.
        let n = 24usize;
        let mut non_fresh = 0;
        for seed in 1..=20u64 {
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15);
            let mut topo: Vec<usize> = (0..n).collect();
            shuffle(&mut topo, &mut state);
            let mut arcs: Vec<_> = (0..n)
                .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
                .filter(|_| xorshift(&mut state) % 10 < 2)
                .map(|(i, j)| (topo[i], topo[j]))
                .collect();
            shuffle(&mut arcs, &mut state);
            non_fresh += check_insertions(n, &arcs);
        }
        assert!(non_fresh > 0, "no insertion took the non-fresh path");
    }

    #[test]
    fn heap_bytes_grows_with_nodes() {
        let mut g = RGraph::new();
        let a = g.add_node();
        for _ in 0..200 {
            let b = g.add_node();
            g.add_arc(a, b);
        }
        assert!(g.heap_bytes() > 0);
    }
}
