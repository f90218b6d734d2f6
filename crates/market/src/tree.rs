//! Shared-prefix factoring of sampled price paths into a scenario tree.
//!
//! K sampled [`MarketPath`]s over an E-epoch horizon share long common
//! prefixes — mean-reverting spot paths diverge gradually, announced
//! cuts and traces not at all. A [`ScenarioTree`] factors the paths
//! into a prefix *forest*: one node per distinct quote-prefix, one edge
//! per epoch transition, each path ending at a leaf. A Monte-Carlo
//! solver can then solve every node **once** and branch its warm state
//! at the split points — one solve per edge instead of per path ×
//! epoch. A deterministic market degenerates to a single chain (one
//! root, E nodes, every path on the same leaf) with no predicate asking
//! whether it is one; coincidentally-identical sampled paths collapse
//! onto the same leaf for free.
//!
//! Two quotes are merged when their [`EpochQuote::solve_key`]s match —
//! every **solve-relevant** field bit-for-bit: the three price factors
//! and the interruption *probability*. The Bernoulli interruption
//! *event* flag is reporting-only (expected-cost charging uses the
//! probability) and is excluded from the key — callers re-derive
//! per-path events from [`crate::MarketScenario::path`] when reporting
//! replicas.

use crate::{EpochQuote, MarketPath};

/// One node of a [`ScenarioTree`]: a distinct quote-prefix of some
/// sampled path, at a fixed epoch.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// The previous epoch's node, `None` for a root (epoch-0 node).
    pub parent: Option<usize>,
    /// The epoch this node's quote applies to.
    pub epoch: usize,
    /// The node's quote, with the reporting-only `interrupted` flag
    /// normalized to `false` (it is not part of the node identity).
    pub quote: EpochQuote,
    /// Next-epoch nodes, in first-discovery (ascending path) order.
    pub children: Vec<usize>,
}

/// A prefix forest over K sampled paths. Nodes are stored
/// parent-before-child (roots first in path-discovery order), so a
/// single forward pass visits every parent before its children.
#[derive(Debug, Clone)]
pub struct ScenarioTree {
    /// Horizon length every path spans.
    pub epochs: usize,
    nodes: Vec<TreeNode>,
    roots: Vec<usize>,
    leaf_of_path: Vec<usize>,
}

impl ScenarioTree {
    /// Factors `paths` (all spanning the same horizon) into a prefix
    /// forest. O(K·E·B) where B is the mean branching factor (children
    /// are matched by linear scan — K is small).
    ///
    /// # Panics
    /// Panics if `paths` is empty, any path is empty, or the paths span
    /// different horizons.
    pub fn from_paths(paths: &[MarketPath]) -> ScenarioTree {
        assert!(!paths.is_empty(), "scenario tree needs at least one path");
        let epochs = paths[0].quotes.len();
        assert!(epochs > 0, "scenario tree needs at least one epoch");
        let mut tree = ScenarioTree {
            epochs,
            nodes: Vec::new(),
            roots: Vec::new(),
            leaf_of_path: Vec::with_capacity(paths.len()),
        };
        for path in paths {
            assert_eq!(
                path.quotes.len(),
                epochs,
                "every path must span the same horizon"
            );
            let mut at: Option<usize> = None;
            for (epoch, quote) in path.quotes.iter().enumerate() {
                let key = quote.solve_key();
                let siblings = match at {
                    None => &tree.roots,
                    Some(p) => &tree.nodes[p].children,
                };
                let found = siblings
                    .iter()
                    .copied()
                    .find(|&c| tree.nodes[c].quote.solve_key() == key);
                let node = match found {
                    Some(c) => c,
                    None => {
                        let idx = tree.nodes.len();
                        tree.nodes.push(TreeNode {
                            parent: at,
                            epoch,
                            quote: EpochQuote {
                                interrupted: false,
                                ..*quote
                            },
                            children: Vec::new(),
                        });
                        match at {
                            None => tree.roots.push(idx),
                            Some(p) => tree.nodes[p].children.push(idx),
                        }
                        idx
                    }
                };
                at = Some(node);
            }
            tree.leaf_of_path
                .push(at.expect("at least one epoch per path"));
        }
        tree
    }

    /// Every node, parent-before-child.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Total node count (= solves a tree-aware solver performs).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the tree has no nodes (never constructible via
    /// [`ScenarioTree::from_paths`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The leaf node path `j` ends at. Identical sampled paths share a
    /// leaf.
    pub fn leaf_of(&self, path: usize) -> usize {
        self.leaf_of_path[path]
    }

    /// Number of distinct leaves (= distinct quote sequences among the
    /// input paths).
    pub fn distinct_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.epoch == self.epochs - 1)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MarketScenario, PriceProcess, SpotMarket};

    fn sample(scenario: &MarketScenario, k: usize) -> Vec<MarketPath> {
        (0..k).map(|j| scenario.path(j)).collect()
    }

    /// The epoch-0 nodes: those without a parent.
    fn roots(tree: &ScenarioTree) -> usize {
        tree.nodes().iter().filter(|n| n.parent.is_none()).count()
    }

    /// The root→leaf node chain of path `j`, in epoch order.
    fn path_nodes(tree: &ScenarioTree, j: usize) -> Vec<usize> {
        let mut chain: Vec<usize> =
            std::iter::successors(Some(tree.leaf_of(j)), |&n| tree.nodes()[n].parent).collect();
        chain.reverse();
        chain
    }

    #[test]
    fn deterministic_market_degenerates_to_a_chain() {
        let m = MarketScenario::constant(6, 42);
        let tree = ScenarioTree::from_paths(&sample(&m, 8));
        assert_eq!(tree.len(), 6);
        assert_eq!(roots(&tree), 1);
        assert_eq!(tree.distinct_leaves(), 1);
        for j in 0..8 {
            assert_eq!(tree.leaf_of(j), 5);
            assert_eq!(path_nodes(&tree, j), vec![0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn volatile_market_still_shares_prefixes() {
        let m = MarketScenario::constant(6, 99)
            .with(PriceProcess::Spot(SpotMarket::with_volatility(0.5)));
        let paths = sample(&m, 16);
        let tree = ScenarioTree::from_paths(&paths);
        // The spot process pins epoch 0 to `start`, so all paths share
        // one root and the tree is strictly smaller than K·E.
        assert_eq!(roots(&tree), 1);
        assert!(tree.len() < 16 * 6, "tree {} nodes", tree.len());
        // Every path's chain reproduces its own quotes (solve-relevant
        // fields).
        for (j, p) in paths.iter().enumerate() {
            let chain = path_nodes(&tree, j);
            assert_eq!(chain.len(), 6);
            for (e, &n) in chain.iter().enumerate() {
                let node = &tree.nodes()[n];
                assert_eq!(node.epoch, e);
                assert_eq!(node.quote.factors, p.quotes[e].factors);
                assert_eq!(node.quote.interruption, p.quotes[e].interruption);
            }
        }
    }

    #[test]
    fn nodes_are_parent_before_child() {
        let m = MarketScenario::constant(5, 7)
            .with(PriceProcess::Spot(SpotMarket::discounted(0.5, 0.4)));
        let tree = ScenarioTree::from_paths(&sample(&m, 12));
        for (idx, node) in tree.nodes().iter().enumerate() {
            if let Some(p) = node.parent {
                assert!(p < idx, "node {idx} precedes its parent {p}");
            } else {
                assert_eq!(node.epoch, 0);
            }
            for &c in &node.children {
                assert!(c > idx);
                assert_eq!(tree.nodes()[c].parent, Some(idx));
            }
        }
    }

    #[test]
    fn identical_sampled_paths_share_a_leaf() {
        // Hand-build two identical paths plus one divergent path.
        let m = MarketScenario::constant(4, 1);
        let a = m.path(0);
        // A constant market: identical quotes. A sampled interruption
        // *event* is reporting-only: it must not split the prefix.
        let mut b = m.path(1);
        b.quotes[1].interrupted = true;
        let mut c = m.path(2);
        c.quotes[2].factors.compute = 0.5;
        let tree = ScenarioTree::from_paths(&[a, b, c]);
        assert_eq!(tree.leaf_of(0), tree.leaf_of(1));
        assert_ne!(tree.leaf_of(0), tree.leaf_of(2));
        assert_eq!(tree.distinct_leaves(), 2);
        // Shared prefix: epochs 0–1 are shared, 2–3 split.
        assert_eq!(tree.len(), 4 + 2);
    }

    #[test]
    #[should_panic(expected = "same horizon")]
    fn mismatched_horizons_panic() {
        let a = MarketScenario::constant(3, 1).path(0);
        let b = MarketScenario::constant(4, 1).path(0);
        ScenarioTree::from_paths(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn empty_path_set_panics() {
        ScenarioTree::from_paths(&[]);
    }
}
