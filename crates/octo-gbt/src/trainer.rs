//! Growing one regression tree with exact greedy split finding.
//!
//! The builder follows XGBoost's exact algorithm: per-feature row lists are
//! sorted by feature value at the root (`presort`, once per boosting call:
//! the dataset is fixed across its rounds), then *partitioned* (stably)
//! down the tree so no re-sorting happens at inner nodes. Rows whose feature
//! is missing never appear in that feature's list; their gradient mass is
//! recovered as `node_total − non_missing_total` and each candidate split is
//! scored twice — missing-left and missing-right — to learn the default
//! direction (the sparsity-aware algorithm).

use crate::dataset::Dataset;
use crate::params::GbtParams;
use crate::tree::{Node, Tree};

/// Gradient statistics of a row set.
#[derive(Debug, Clone, Copy, Default)]
struct GradStats {
    g: f64,
    h: f64,
}

impl GradStats {
    fn add(&mut self, g: f64, h: f64) {
        self.g += g;
        self.h += h;
    }

    fn minus(self, other: GradStats) -> GradStats {
        GradStats {
            g: self.g - other.g,
            h: self.h - other.h,
        }
    }

    /// XGBoost's structure score `G² / (H + λ)`.
    fn score(self, lambda: f64) -> f64 {
        self.g * self.g / (self.h + lambda)
    }
}

/// The winning split of a node, if any.
#[derive(Debug, Clone, Copy)]
struct BestSplit {
    feature: usize,
    threshold: f32,
    default_left: bool,
    gain: f64,
}

/// Per-node training state: the node's rows plus, for every feature, the
/// node's non-missing rows sorted by that feature's value.
struct NodeData {
    rows: Vec<u32>,
    sorted: Vec<Vec<u32>>,
    stats: GradStats,
}

/// Grows a single tree against fixed gradient/hessian vectors.
pub(crate) struct TreeBuilder<'a> {
    data: &'a Dataset,
    grad: &'a [f64],
    hess: &'a [f64],
    params: &'a GbtParams,
    /// Workhorse buffer: which side each row of the *current* node takes.
    /// Safe to share across the recursion because siblings own disjoint rows
    /// and every node writes its rows before reading them.
    goes_left: Vec<bool>,
}

impl<'a> TreeBuilder<'a> {
    pub(crate) fn new(
        data: &'a Dataset,
        grad: &'a [f64],
        hess: &'a [f64],
        params: &'a GbtParams,
    ) -> Self {
        debug_assert_eq!(data.n_rows(), grad.len());
        debug_assert_eq!(data.n_rows(), hess.len());
        TreeBuilder {
            data,
            grad,
            hess,
            params,
            goes_left: vec![false; data.n_rows()],
        }
    }

    /// Builds the tree. An empty dataset yields a single zero leaf.
    #[cfg(test)]
    pub(crate) fn build(self) -> Tree {
        let sorted = presort(self.data);
        self.build_presorted(sorted)
    }

    /// Builds the tree from the root's per-feature sorted row lists, as
    /// [`presort`] returns them for this builder's dataset. The lists
    /// depend only on the feature values, so a boosting call computes them
    /// once and hands every round a copy.
    pub(crate) fn build_presorted(mut self, sorted: Vec<Vec<u32>>) -> Tree {
        let n = self.data.n_rows();
        let mut tree = Tree::new(self.data.n_features());
        if n == 0 {
            tree.push(Node::Leaf { value: 0.0 });
            return tree;
        }
        debug_assert_eq!(sorted.len(), self.data.n_features());

        let rows: Vec<u32> = (0..n as u32).collect();
        let mut stats = GradStats::default();
        for i in 0..n {
            stats.add(self.grad[i], self.hess[i]);
        }
        let root = NodeData {
            rows,
            sorted,
            stats,
        };
        self.build_node(root, 0, &mut tree);
        tree
    }

    /// Recursively grows the subtree for `nd`, returning its arena index.
    fn build_node(&mut self, nd: NodeData, depth: usize, tree: &mut Tree) -> usize {
        if depth >= self.params.max_depth || nd.rows.len() < 2 {
            return tree.push(self.leaf(nd.stats));
        }
        let Some(best) = self.find_best_split(&nd) else {
            return tree.push(self.leaf(nd.stats));
        };

        let idx = tree.push(Node::Split {
            feature: best.feature,
            threshold: best.threshold,
            default_left: best.default_left,
            left: 0,
            right: 0,
        });
        tree.record_gain(best.feature, best.gain);

        let (left, right) = self.partition(nd, &best);
        let l = self.build_node(left, depth + 1, tree);
        let r = self.build_node(right, depth + 1, tree);
        tree.set_children(idx, l, r);
        idx
    }

    /// The optimal leaf weight `−G/(H+λ)`, shrunk by the learning rate.
    fn leaf(&self, stats: GradStats) -> Node {
        Node::Leaf {
            value: -stats.g / (stats.h + self.params.lambda) * self.params.eta,
        }
    }

    /// Exact greedy scan over every feature and threshold, scoring missing
    /// values in both directions.
    fn find_best_split(&self, nd: &NodeData) -> Option<BestSplit> {
        let parent_score = nd.stats.score(self.params.lambda);
        let mut best: Option<BestSplit> = None;

        for feat in 0..self.data.n_features() {
            let list = &nd.sorted[feat];
            if list.len() < 2 {
                continue; // no threshold can separate fewer than two values
            }
            let mut present = GradStats::default();
            for &r in list {
                present.add(self.grad[r as usize], self.hess[r as usize]);
            }
            let missing = nd.stats.minus(present);

            let mut left = GradStats::default();
            for w in 0..list.len().saturating_sub(1) {
                let r = list[w] as usize;
                left.add(self.grad[r], self.hess[r]);
                let v = self.data.value(r, feat);
                let v_next = self.data.value(list[w + 1] as usize, feat);
                if v == v_next {
                    continue; // can't separate equal values
                }
                let threshold = midpoint(v, v_next);

                // Candidate A: missing rows to the right.
                let l_a = left;
                let r_a = nd.stats.minus(left);
                self.consider(&mut best, feat, threshold, false, l_a, r_a, parent_score);

                // Candidate B: missing rows to the left.
                if missing.h > 0.0 || missing.g != 0.0 {
                    let mut l_b = left;
                    l_b.add(missing.g, missing.h);
                    let r_b = nd.stats.minus(l_b);
                    self.consider(&mut best, feat, threshold, true, l_b, r_b, parent_score);
                }
            }
        }
        best
    }

    /// Scores one candidate and keeps it if it beats the incumbent.
    #[allow(clippy::too_many_arguments)]
    fn consider(
        &self,
        best: &mut Option<BestSplit>,
        feature: usize,
        threshold: f32,
        default_left: bool,
        l: GradStats,
        r: GradStats,
        parent_score: f64,
    ) {
        let mcw = self.params.min_child_weight;
        if l.h < mcw || r.h < mcw {
            return;
        }
        let lambda = self.params.lambda;
        let gain = 0.5 * (l.score(lambda) + r.score(lambda) - parent_score) - self.params.gamma;
        if gain <= 1e-12 {
            return;
        }
        let better = match best {
            Some(b) => gain > b.gain,
            None => true,
        };
        if better {
            *best = Some(BestSplit {
                feature,
                threshold,
                default_left,
                gain,
            });
        }
    }

    /// Splits a node's rows and per-feature sorted lists by the chosen split,
    /// preserving sort order (stable partition).
    fn partition(&mut self, nd: NodeData, best: &BestSplit) -> (NodeData, NodeData) {
        let mut l_stats = GradStats::default();
        let mut r_stats = GradStats::default();
        let mut l_rows = Vec::with_capacity(nd.rows.len() / 2);
        let mut r_rows = Vec::with_capacity(nd.rows.len() / 2);
        for &row in &nd.rows {
            let v = self.data.value(row as usize, best.feature);
            let go_left = if v.is_nan() {
                best.default_left
            } else {
                v < best.threshold
            };
            self.goes_left[row as usize] = go_left;
            if go_left {
                l_stats.add(self.grad[row as usize], self.hess[row as usize]);
                l_rows.push(row);
            } else {
                r_stats.add(self.grad[row as usize], self.hess[row as usize]);
                r_rows.push(row);
            }
        }

        let n_feat = nd.sorted.len();
        let mut l_sorted = Vec::with_capacity(n_feat);
        let mut r_sorted = Vec::with_capacity(n_feat);
        for list in nd.sorted {
            let mut l = Vec::with_capacity(list.len() / 2);
            let mut r = Vec::with_capacity(list.len() / 2);
            for row in list {
                if self.goes_left[row as usize] {
                    l.push(row);
                } else {
                    r.push(row);
                }
            }
            l_sorted.push(l);
            r_sorted.push(r);
        }

        (
            NodeData {
                rows: l_rows,
                sorted: l_sorted,
                stats: l_stats,
            },
            NodeData {
                rows: r_rows,
                sorted: r_sorted,
                stats: r_stats,
            },
        )
    }
}

/// For every feature, the rows whose value is present, sorted by value
/// with the row index as a deterministic tie-break (values are never NaN
/// here): the root's sorted lists of the exact greedy algorithm.
pub(crate) fn presort(data: &Dataset) -> Vec<Vec<u32>> {
    (0..data.n_features())
        .map(|feat| {
            let mut list: Vec<u32> = (0..data.n_rows() as u32)
                .filter(|&r| !data.value(r as usize, feat).is_nan())
                .collect();
            list.sort_unstable_by(|&a, &b| {
                let va = data.value(a as usize, feat);
                let vb = data.value(b as usize, feat);
                va.partial_cmp(&vb).expect("non-NaN values").then(a.cmp(&b))
            });
            list
        })
        .collect()
}

/// A threshold strictly between two adjacent training values. Falls back to
/// the larger value when the midpoint rounds onto the smaller one (adjacent
/// floats).
fn midpoint(lo: f32, hi: f32) -> f32 {
    let mid = lo + (hi - lo) / 2.0;
    if mid > lo {
        mid
    } else {
        hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective;

    /// Builds gradient vectors for the logistic objective at margin 0.
    fn grads_at_zero(data: &Dataset) -> (Vec<f64>, Vec<f64>) {
        let g = (0..data.n_rows())
            .map(|i| objective::grad(0.0, data.label(i) as f64))
            .collect();
        let h = (0..data.n_rows()).map(|_| objective::hess(0.0)).collect();
        (g, h)
    }

    #[test]
    fn perfectly_separable_stump() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push_row(&[i as f32], if i < 5 { 0.0 } else { 1.0 });
        }
        let (g, h) = grads_at_zero(&d);
        let params = GbtParams {
            max_depth: 1,
            ..GbtParams::default()
        };
        let tree = TreeBuilder::new(&d, &g, &h, &params).build();
        assert_eq!(tree.depth(), 1);
        // The split should be between 4 and 5.
        match &tree.nodes()[0] {
            Node::Split {
                feature, threshold, ..
            } => {
                assert_eq!(*feature, 0);
                assert!(
                    *threshold > 4.0 && *threshold <= 5.0,
                    "threshold {threshold}"
                );
            }
            other => panic!("expected root split, got {other:?}"),
        }
        // Left leaf pushes toward class 0 (negative margin), right toward 1.
        assert!(tree.predict(&[0.0]) < 0.0);
        assert!(tree.predict(&[9.0]) > 0.0);
    }

    #[test]
    fn stump_gain_matches_brute_force() {
        // Random-ish fixed data; compare builder's chosen split against an
        // exhaustive O(n²) search over all (feature, boundary) candidates.
        let rows: &[(&[f32], f32)] = &[
            (&[0.3, 2.0], 0.0),
            (&[0.7, 1.0], 1.0),
            (&[0.1, 3.5], 0.0),
            (&[0.9, 0.5], 1.0),
            (&[0.5, 2.5], 1.0),
            (&[0.2, 1.5], 0.0),
            (&[0.8, 3.0], 0.0),
            (&[0.6, 0.8], 1.0),
        ];
        let mut d = Dataset::new(2);
        for (x, y) in rows {
            d.push_row(x, *y);
        }
        let (g, h) = grads_at_zero(&d);
        let params = GbtParams {
            max_depth: 1,
            min_child_weight: 0.0,
            ..GbtParams::default()
        };
        let lambda = params.lambda;

        // Brute force best gain.
        let total_g: f64 = g.iter().sum();
        let total_h: f64 = h.iter().sum();
        let parent = total_g * total_g / (total_h + lambda);
        let mut brute_best = f64::MIN;
        for feat in 0..2 {
            let mut vals: Vec<f32> = (0..d.n_rows()).map(|i| d.value(i, feat)).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for w in vals.windows(2) {
                if w[0] == w[1] {
                    continue;
                }
                let t = (w[0] + w[1]) / 2.0;
                let (mut gl, mut hl) = (0.0, 0.0);
                for i in 0..d.n_rows() {
                    if d.value(i, feat) < t {
                        gl += g[i];
                        hl += h[i];
                    }
                }
                let gr = total_g - gl;
                let hr = total_h - hl;
                let gain = 0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent);
                brute_best = brute_best.max(gain);
            }
        }

        let tree = TreeBuilder::new(&d, &g, &h, &params).build();
        // Recompute the builder's achieved gain from its recorded totals.
        let builder_gain: f64 = tree.feature_gain().iter().sum();
        assert!(
            (builder_gain - brute_best).abs() < 1e-9,
            "builder {builder_gain} vs brute force {brute_best}"
        );
    }

    #[test]
    fn missing_values_get_a_useful_default_direction() {
        // Feature is missing exactly for positive rows; present (value 1.0)
        // for negatives. A useful tree must route NaN away from the present
        // side. Needs a second distinct value so a threshold exists.
        let mut d = Dataset::new(1);
        for i in 0..20 {
            if i % 2 == 0 {
                d.push_row(&[f32::NAN], 1.0);
            } else {
                let v = if i % 4 == 1 { 1.0 } else { 2.0 };
                d.push_row(&[v], 0.0);
            }
        }
        let (g, h) = grads_at_zero(&d);
        let params = GbtParams {
            max_depth: 2,
            ..GbtParams::default()
        };
        let tree = TreeBuilder::new(&d, &g, &h, &params).build();
        let p_missing = tree.predict(&[f32::NAN]);
        let p_present = tree.predict(&[1.0]);
        assert!(
            p_missing > p_present,
            "missing rows (positive) should get higher margin: {p_missing} vs {p_present}"
        );
    }

    #[test]
    fn max_depth_zero_gives_prior_leaf() {
        let mut d = Dataset::new(1);
        d.push_row(&[1.0], 1.0);
        d.push_row(&[2.0], 1.0);
        d.push_row(&[3.0], 0.0);
        let (g, h) = grads_at_zero(&d);
        let params = GbtParams {
            max_depth: 0,
            ..GbtParams::default()
        };
        let tree = TreeBuilder::new(&d, &g, &h, &params).build();
        assert_eq!(tree.n_nodes(), 1);
        let total_g: f64 = g.iter().sum();
        let total_h: f64 = h.iter().sum();
        let expected = -total_g / (total_h + params.lambda) * params.eta;
        assert!((tree.predict(&[9.0]) - expected).abs() < 1e-12);
    }

    #[test]
    fn pure_node_does_not_split() {
        // All labels identical: every split gain is ~0, so a single leaf.
        let mut d = Dataset::new(2);
        for i in 0..8 {
            d.push_row(&[i as f32, (i * 7 % 5) as f32], 1.0);
        }
        let (g, h) = grads_at_zero(&d);
        let params = GbtParams::default();
        let tree = TreeBuilder::new(&d, &g, &h, &params).build();
        assert_eq!(tree.n_nodes(), 1, "pure node must stay a leaf");
    }

    #[test]
    fn gamma_suppresses_weak_splits() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push_row(&[i as f32], if i < 5 { 0.0 } else { 1.0 });
        }
        let (g, h) = grads_at_zero(&d);
        let params = GbtParams {
            max_depth: 3,
            gamma: 1e6, // absurdly high: no split can pay for itself
            ..GbtParams::default()
        };
        let tree = TreeBuilder::new(&d, &g, &h, &params).build();
        assert_eq!(tree.n_nodes(), 1);
    }

    #[test]
    fn empty_dataset_yields_zero_leaf() {
        let d = Dataset::new(3);
        let params = GbtParams::default();
        let tree = TreeBuilder::new(&d, &[], &[], &params).build();
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict(&[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn midpoint_always_strictly_above_lo() {
        assert!(midpoint(1.0, 2.0) > 1.0);
        assert!(midpoint(1.0, 2.0) <= 2.0);
        // Adjacent floats: midpoint may round down; must fall back to hi.
        let lo = 1.0f32;
        let hi = f32::from_bits(lo.to_bits() + 1);
        assert_eq!(midpoint(lo, hi), hi);
    }
}
