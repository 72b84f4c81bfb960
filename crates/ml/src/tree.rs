//! CART regression trees with variance-reduction splits.
//!
//! The building block of the random forest. Splits minimize the weighted
//! sum of squared errors of the two children; candidate features can be
//! subsampled per split (the `max_features` knob that decorrelates forest
//! members).
//!
//! A fit sorts each node's rows once per candidate feature, and the order
//! of tied rows fixes the float summation order of the split search. The
//! fitter keeps one tie rule: each sort is stable, the split search
//! re-sorts the previous candidate's order, and a split partitions the
//! node's own order. Sorting compares precomputed integer ranks of a
//! shared column-major copy of the data (see `Columns`), never floats, so
//! the trees match a stable `total_cmp` sort bit for bit.

use crate::{check_xy, MlError};
use tuna_stats::rng::Rng;

/// Hyperparameters for a single regression tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required in each child of a split.
    pub min_samples_leaf: usize,
    /// Minimum samples required to consider splitting a node.
    pub min_samples_split: usize,
    /// Number of candidate features per split; `None` means all.
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 24,
            min_samples_leaf: 1,
            min_samples_split: 2,
            max_features: None,
        }
    }
}

/// One node of a fitted tree. [`RegressionTree::nodes`] lists them in
/// build order: a split precedes its left subtree, which precedes its
/// right subtree, and node 0 is the root.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Predicts `value`, the mean target of the node's `n` training rows.
    Leaf { value: f64, n: usize },
    /// Rows with `row[feature] <= threshold` descend to `left`, the rest
    /// to `right`.
    Internal {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A training set laid out for fitting, built once per fit and shared by
/// every tree of a forest: column-major feature values, the targets, and
/// each column's dense rank. Two values of a column share a rank exactly
/// when `total_cmp` calls them equal, so sorting rows by rank orders them
/// as sorting by value would, without touching a float. Trees name rows
/// by id (their index in `x`), never by copy.
pub(crate) struct Columns<'a> {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    /// Column `f` is `values[f * rows..(f + 1) * rows]`.
    values: Vec<f64>,
    /// Laid out like `values`.
    ranks: Vec<u32>,
    /// Number of distinct ranks per column.
    distinct: Vec<usize>,
    y: &'a [f64],
}

impl<'a> Columns<'a> {
    /// Checks and lays out a training set.
    ///
    /// # Errors
    ///
    /// Returns an error if the training set is empty or ragged, or if row
    /// ids do not fit in a `u32`.
    pub(crate) fn new(x: &[Vec<f64>], y: &'a [f64]) -> Result<Self, MlError> {
        let (rows, cols) = check_xy(x, y)?;
        if u32::try_from(rows).is_err() {
            return Err(MlError::ShapeMismatch {
                detail: format!("{rows} rows exceed u32 row ids"),
            });
        }
        let mut values = Vec::with_capacity(rows * cols);
        for f in 0..cols {
            values.extend(x.iter().map(|row| row[f]));
        }
        let mut ranks = vec![0u32; rows * cols];
        let mut distinct = Vec::with_capacity(cols);
        let mut by_value: Vec<u32> = (0..rows as u32).collect();
        for (col, rank) in values.chunks_exact(rows).zip(ranks.chunks_exact_mut(rows)) {
            by_value.sort_unstable_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
            let mut r = 0;
            for w in 1..rows {
                let (prev, id) = (by_value[w - 1] as usize, by_value[w] as usize);
                if col[prev].total_cmp(&col[id]).is_ne() {
                    r += 1;
                }
                rank[id] = r;
            }
            distinct.push(r as usize + 1);
        }
        Ok(Columns {
            rows,
            cols,
            values,
            ranks,
            distinct,
            y,
        })
    }

    fn column(&self, f: usize) -> &[f64] {
        &self.values[f * self.rows..(f + 1) * self.rows]
    }

    fn rank(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.rows..(f + 1) * self.rows]
    }
}

/// Buffers one fit reuses for every node of every tree.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// The rows the next tree trains on, as ids into [`Columns`];
    /// duplicates are a bootstrap resample.
    pub(crate) ids: Vec<u32>,
    /// The split search's order of the node's rows.
    order: Vec<u32>,
    sorter: RankSorter,
}

/// Stable sorts of row ids by a column's ranks: the order a stable
/// `total_cmp` sort of the ids' values gives.
#[derive(Debug, Default)]
struct RankSorter {
    /// Per-rank counts, then next output slots (counting sort).
    counts: Vec<u32>,
    /// Keys `(rank << 32) | position` (keyed sort).
    keys: Vec<u64>,
    /// The pre-sort order both sorts gather from.
    gathered: Vec<u32>,
}

/// Runs up to this many rows sort by insertion.
const INSERTION_SORT_MAX: usize = 24;

impl RankSorter {
    /// Stably sorts `ids` by `data`'s ranks of feature `f`.
    fn sort(&mut self, ids: &mut [u32], data: &Columns, f: usize) {
        let rank = data.rank(f);
        let distinct = data.distinct[f];
        if ids.len() <= INSERTION_SORT_MAX {
            for i in 1..ids.len() {
                let id = ids[i];
                let r = rank[id as usize];
                let mut j = i;
                while j > 0 && rank[ids[j - 1] as usize] > r {
                    ids[j] = ids[j - 1];
                    j -= 1;
                }
                ids[j] = id;
            }
            return;
        }
        self.gathered.clear();
        self.gathered.extend_from_slice(ids);
        if distinct <= 2 * ids.len() {
            // Few ranks for the run's length: a counting sort, stable
            // because it scatters in input order.
            self.counts.clear();
            self.counts.resize(distinct, 0);
            for &id in ids.iter() {
                self.counts[rank[id as usize] as usize] += 1;
            }
            let mut start = 0;
            for c in &mut self.counts {
                (*c, start) = (start, start + *c);
            }
            for &id in &self.gathered {
                let slot = &mut self.counts[rank[id as usize] as usize];
                ids[*slot as usize] = id;
                *slot += 1;
            }
        } else {
            // Distinct keys, so the unstable sort equals the stable one.
            self.keys.clear();
            self.keys.extend(
                ids.iter()
                    .enumerate()
                    .map(|(pos, &id)| u64::from(rank[id as usize]) << 32 | pos as u64),
            );
            self.keys.sort_unstable();
            for (id, &key) in ids.iter_mut().zip(&self.keys) {
                *id = self.gathered[key as u32 as usize];
            }
        }
    }
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    params: TreeParams,
    nodes: Vec<Node>,
    n_features: usize,
    /// Total SSE reduction attributed to each feature (for importances).
    feature_gains: Vec<f64>,
}

impl RegressionTree {
    /// Fits a tree to `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the training set is empty or ragged.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        params: TreeParams,
        rng: &mut Rng,
    ) -> Result<Self, MlError> {
        let data = Columns::new(x, y)?;
        let mut ws = Workspace::default();
        ws.ids.extend(0..data.rows as u32);
        Ok(Self::fit_rows(&data, params, &mut ws, rng))
    }

    /// Fits a tree to the rows of `data` listed in `ws.ids`, in that
    /// order.
    ///
    /// Row order decides the float summation order, so the tree equals
    /// one fitted on the listed rows copied out in the same order. A
    /// repeated id stands for a repeated row: every per-row quantity is
    /// a function of the id.
    pub(crate) fn fit_rows(
        data: &Columns,
        params: TreeParams,
        ws: &mut Workspace,
        rng: &mut Rng,
    ) -> Self {
        let mut tree = RegressionTree {
            params,
            nodes: Vec::new(),
            n_features: data.cols,
            feature_gains: vec![0.0; data.cols],
        };
        let mut ids = std::mem::take(&mut ws.ids);
        tree.build(data, &mut ids, ws, 0, rng);
        ws.ids = ids;
        tree
    }

    /// Recursively builds the subtree over `ids`, returning its node id.
    fn build(
        &mut self,
        data: &Columns,
        ids: &mut [u32],
        ws: &mut Workspace,
        depth: usize,
        rng: &mut Rng,
    ) -> usize {
        let n = ids.len();
        let mean = ids.iter().map(|&i| data.y[i as usize]).sum::<f64>() / n as f64;

        let must_leaf = depth >= self.params.max_depth
            || n < self.params.min_samples_split
            || n < 2 * self.params.min_samples_leaf;
        if !must_leaf {
            if let Some((feature, threshold, gain, split_at)) = self.best_split(data, ids, ws, rng)
            {
                self.feature_gains[feature] += gain;
                // Partition in place: re-sort the node's own order (not
                // the split search's, whose ties were broken by earlier
                // candidate features) by the split feature.
                ws.sorter.sort(ids, data, feature);
                let (left_ids, right_ids) = ids.split_at_mut(split_at);
                let node_id = self.nodes.len();
                self.nodes.push(Node::Leaf { value: mean, n }); // Placeholder.
                let left = self.build(data, left_ids, ws, depth + 1, rng);
                let right = self.build(data, right_ids, ws, depth + 1, rng);
                self.nodes[node_id] = Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                };
                return node_id;
            }
        }
        let node_id = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean, n });
        node_id
    }

    /// Finds the best (feature, threshold) split by SSE reduction.
    ///
    /// Returns `(feature, threshold, gain, left_count)` or `None` when no
    /// split satisfies the leaf-size constraint or improves the SSE.
    fn best_split(
        &self,
        data: &Columns,
        ids: &[u32],
        ws: &mut Workspace,
        rng: &mut Rng,
    ) -> Option<(usize, f64, f64, usize)> {
        let n = ids.len();
        let y = data.y;
        let total_sum: f64 = ids.iter().map(|&i| y[i as usize]).sum();
        let total_sq: f64 = ids.iter().map(|&i| y[i as usize] * y[i as usize]).sum();
        let parent_sse = total_sq - total_sum * total_sum / n as f64;
        if parent_sse <= 1e-12 {
            return None; // Pure node.
        }

        let k = self
            .params
            .max_features
            .unwrap_or(self.n_features)
            .clamp(1, self.n_features);
        let features = if k == self.n_features {
            (0..self.n_features).collect::<Vec<_>>()
        } else {
            rng.sample_indices(self.n_features, k)
        };

        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<(usize, f64, f64, usize)> = None;
        // Not reset between features: each feature's order is a stable
        // sort of the previous one's, so its ties keep that order, and
        // tie order fixes the summation order below.
        let order = &mut ws.order;
        order.clear();
        order.extend_from_slice(ids);
        for &f in &features {
            ws.sorter.sort(order, data, f);
            let x = data.column(f);
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for pos in 0..n - 1 {
                let yi = y[order[pos] as usize];
                left_sum += yi;
                left_sq += yi * yi;
                let left_n = pos + 1;
                let right_n = n - left_n;
                if left_n < min_leaf || right_n < min_leaf {
                    continue;
                }
                let xv = x[order[pos] as usize];
                let xn = x[order[pos + 1] as usize];
                if xn <= xv {
                    continue; // Tied feature values cannot separate here.
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let left_sse = left_sq - left_sum * left_sum / left_n as f64;
                let right_sse = right_sq - right_sum * right_sum / right_n as f64;
                let gain = parent_sse - left_sse - right_sse;
                if gain > best.map_or(1e-12, |b| b.2) {
                    best = Some((f, 0.5 * (xv + xn), gain, left_n));
                }
            }
        }
        best
    }

    /// Predicts the target for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the training width.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.n_features, "feature width mismatch");
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value, .. } => return *value,
                Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// The nodes in build order (see [`Node`]).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes (internal + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Depth of the tree (root-only tree has depth 0).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Internal { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// Per-feature total SSE reduction (unnormalized importances).
    pub fn feature_gains(&self) -> &[f64] {
        &self.feature_gains
    }

    /// Number of features the tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 0 for x < 0.5, y = 10 for x >= 0.5.
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] < 0.5 { 0.0 } else { 10.0 })
            .collect();
        (xs, ys)
    }

    #[test]
    fn learns_step_function_exactly() {
        let (xs, ys) = step_data();
        let mut rng = Rng::seed_from(1);
        let t = RegressionTree::fit(&xs, &ys, TreeParams::default(), &mut rng).unwrap();
        assert_eq!(t.predict(&[0.2]), 0.0);
        assert_eq!(t.predict(&[0.9]), 10.0);
        // One split suffices for a pure step.
        assert_eq!(t.leaf_count(), 2);
    }

    #[test]
    fn constant_target_single_leaf() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let ys = vec![3.5; 50];
        let mut rng = Rng::seed_from(2);
        let t = RegressionTree::fit(&xs, &ys, TreeParams::default(), &mut rng).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[17.0]), 3.5);
    }

    #[test]
    fn respects_max_depth() {
        let mut rng = Rng::seed_from(3);
        let xs: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..256).map(|i| (i % 7) as f64).collect();
        let t = RegressionTree::fit(
            &xs,
            &ys,
            TreeParams {
                max_depth: 3,
                ..TreeParams::default()
            },
            &mut rng,
        )
        .unwrap();
        assert!(t.depth() <= 3, "depth {}", t.depth());
        assert!(t.leaf_count() <= 8);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let mut rng = Rng::seed_from(4);
        let xs: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let t = RegressionTree::fit(
            &xs,
            &ys,
            TreeParams {
                min_samples_leaf: 16,
                ..TreeParams::default()
            },
            &mut rng,
        )
        .unwrap();
        assert!(t.leaf_count() <= 4);
    }

    #[test]
    fn picks_informative_feature() {
        // Feature 1 is pure noise; feature 0 fully determines y.
        let mut rng = Rng::seed_from(5);
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 2) as f64, rng.next_f64()])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 100.0).collect();
        let t = RegressionTree::fit(&xs, &ys, TreeParams::default(), &mut rng).unwrap();
        assert!(t.feature_gains()[0] > t.feature_gains()[1] * 10.0);
    }

    #[test]
    fn prediction_interpolates_training_means() {
        let (xs, ys) = step_data();
        let mut rng = Rng::seed_from(6);
        let t = RegressionTree::fit(&xs, &ys, TreeParams::default(), &mut rng).unwrap();
        for x in &xs {
            let p = t.predict(x);
            assert!((0.0..=10.0).contains(&p));
        }
    }

    #[test]
    fn rejects_bad_input() {
        let mut rng = Rng::seed_from(7);
        assert!(matches!(
            RegressionTree::fit(&[], &[], TreeParams::default(), &mut rng),
            Err(MlError::EmptyTrainingSet)
        ));
        assert!(matches!(
            RegressionTree::fit(
                &[vec![1.0], vec![2.0]],
                &[1.0],
                TreeParams::default(),
                &mut rng
            ),
            Err(MlError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            RegressionTree::fit(
                &[vec![1.0], vec![2.0, 3.0]],
                &[1.0, 2.0],
                TreeParams::default(),
                &mut rng
            ),
            Err(MlError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn single_sample_is_leaf() {
        let mut rng = Rng::seed_from(8);
        let t = RegressionTree::fit(&[vec![1.0, 2.0]], &[5.0], TreeParams::default(), &mut rng)
            .unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[0.0, 0.0]), 5.0);
    }

    #[test]
    fn duplicate_feature_values_handled() {
        // All x identical: no valid split exists.
        let xs = vec![vec![1.0]; 10];
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut rng = Rng::seed_from(9);
        let t = RegressionTree::fit(&xs, &ys, TreeParams::default(), &mut rng).unwrap();
        assert_eq!(t.node_count(), 1);
        assert!((t.predict(&[1.0]) - 4.5).abs() < 1e-12);
    }
}
