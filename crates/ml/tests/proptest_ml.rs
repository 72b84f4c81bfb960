//! Property-based tests for the ML crate.

use proptest::prelude::*;
use tuna_ml::acquisition::{expected_improvement, probability_of_improvement};
use tuna_ml::forest::{FeatureSubsample, ForestParams, RandomForest};
use tuna_ml::linalg::{Cholesky, Matrix};
use tuna_ml::tree::{Node, RegressionTree, TreeParams};
use tuna_ml::Regressor;
use tuna_stats::rng::Rng;

/// The reference CART/forest fitter: a stable `total_cmp` sort of the
/// node's rows per candidate feature, over row-major rows, with each
/// bootstrap resample copied out row by row. The production fitter must
/// reproduce its trees, gains and predictions bit for bit.
mod oracle {
    use tuna_ml::forest::ForestParams;
    use tuna_ml::tree::{Node, TreeParams};
    use tuna_stats::rng::Rng;

    pub struct Tree {
        pub params: TreeParams,
        pub nodes: Vec<Node>,
        pub gains: Vec<f64>,
    }

    pub fn fit_tree(x: &[Vec<f64>], y: &[f64], params: TreeParams, rng: &mut Rng) -> Tree {
        let mut tree = Tree {
            params,
            nodes: Vec::new(),
            gains: vec![0.0; x[0].len()],
        };
        let mut indices: Vec<usize> = (0..x.len()).collect();
        build(&mut tree, x, y, &mut indices, 0, rng);
        tree
    }

    fn build(
        tree: &mut Tree,
        x: &[Vec<f64>],
        y: &[f64],
        indices: &mut [usize],
        depth: usize,
        rng: &mut Rng,
    ) -> usize {
        let n = indices.len();
        let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / n as f64;
        let must_leaf = depth >= tree.params.max_depth
            || n < tree.params.min_samples_split
            || n < 2 * tree.params.min_samples_leaf;
        if !must_leaf {
            if let Some((feature, threshold, gain, split_at)) =
                best_split(&tree.params, x, y, indices, rng)
            {
                tree.gains[feature] += gain;
                indices.sort_by(|&a, &b| x[a][feature].total_cmp(&x[b][feature]));
                let (left_idx, right_idx) = indices.split_at_mut(split_at);
                let node_id = tree.nodes.len();
                tree.nodes.push(Node::Leaf { value: mean, n });
                let left = build(tree, x, y, left_idx, depth + 1, rng);
                let right = build(tree, x, y, right_idx, depth + 1, rng);
                tree.nodes[node_id] = Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                };
                return node_id;
            }
        }
        tree.nodes.push(Node::Leaf { value: mean, n });
        tree.nodes.len() - 1
    }

    fn best_split(
        params: &TreeParams,
        x: &[Vec<f64>],
        y: &[f64],
        indices: &[usize],
        rng: &mut Rng,
    ) -> Option<(usize, f64, f64, usize)> {
        let n = indices.len();
        let n_features = x[0].len();
        let total_sum: f64 = indices.iter().map(|&i| y[i]).sum();
        let total_sq: f64 = indices.iter().map(|&i| y[i] * y[i]).sum();
        let parent_sse = total_sq - total_sum * total_sum / n as f64;
        if parent_sse <= 1e-12 {
            return None;
        }
        let k = params
            .max_features
            .unwrap_or(n_features)
            .clamp(1, n_features);
        let features = if k == n_features {
            (0..n_features).collect::<Vec<_>>()
        } else {
            rng.sample_indices(n_features, k)
        };
        let min_leaf = params.min_samples_leaf;
        let mut best: Option<(usize, f64, f64, usize)> = None;
        let mut order: Vec<usize> = indices.to_vec();
        for &f in &features {
            order.sort_by(|&a, &b| x[a][f].total_cmp(&x[b][f]));
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for pos in 0..n - 1 {
                let yi = y[order[pos]];
                left_sum += yi;
                left_sq += yi * yi;
                let left_n = pos + 1;
                let right_n = n - left_n;
                if left_n < min_leaf || right_n < min_leaf {
                    continue;
                }
                let xv = x[order[pos]][f];
                let xn = x[order[pos + 1]][f];
                if xn <= xv {
                    continue;
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

    pub fn fit_forest(x: &[Vec<f64>], y: &[f64], params: ForestParams, rng: &mut Rng) -> Vec<Tree> {
        let rows = x.len();
        let tree_params = TreeParams {
            max_features: params.feature_subsample.resolve(x[0].len()),
            ..params.tree
        };
        (0..params.n_trees)
            .map(|t| {
                let mut tree_rng = rng.fork(t as u64);
                if params.bootstrap {
                    let mut boot_x = Vec::with_capacity(rows);
                    let mut boot_y = Vec::with_capacity(rows);
                    for _ in 0..rows {
                        let i = tree_rng.below(rows);
                        boot_x.push(x[i].clone());
                        boot_y.push(y[i]);
                    }
                    fit_tree(&boot_x, &boot_y, tree_params, &mut tree_rng)
                } else {
                    fit_tree(x, y, tree_params, &mut tree_rng)
                }
            })
            .collect()
    }

    fn predict(nodes: &[Node], row: &[f64]) -> f64 {
        let mut node = 0;
        loop {
            match &nodes[node] {
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
                    }
                }
            }
        }
    }

    pub fn predict_stats(trees: &[Tree], row: &[f64]) -> (f64, f64) {
        let preds: Vec<f64> = trees.iter().map(|t| predict(&t.nodes, row)).collect();
        let n = preds.len() as f64;
        let mean = preds.iter().sum::<f64>() / n;
        let var = if preds.len() < 2 {
            0.0
        } else {
            preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / (n - 1.0)
        };
        (mean, var)
    }
}

/// A node with its floats as bits, so `-0.0`/`+0.0` and NaNs compare exactly.
fn node_bits(node: &Node) -> (usize, u64, usize, usize) {
    match node {
        Node::Leaf { value, n } => (usize::MAX, value.to_bits(), *n, 0),
        Node::Internal {
            feature,
            threshold,
            left,
            right,
        } => (*feature, threshold.to_bits(), *left, *right),
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// A training set full of ties: continuous columns, small-integer
/// columns, a one-hot block, a signed-zero column, duplicated rows and
/// integer-valued targets.
fn tied_data(rng: &mut Rng, rows: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let continuous = rng.below(4);
    let integer = rng.below(3);
    let one_hot = rng.below(5);
    let signed_zero = rng.chance(0.5);
    let integer_y = rng.chance(0.3);
    let mut xs: Vec<Vec<f64>> = Vec::with_capacity(rows);
    let mut ys = Vec::with_capacity(rows);
    for _ in 0..rows {
        if !xs.is_empty() && rng.chance(0.2) {
            let twin = rng.below(xs.len());
            xs.push(xs[twin].clone());
            ys.push(if rng.chance(0.5) {
                ys[twin]
            } else {
                rng.next_gaussian()
            });
            continue;
        }
        let mut row = Vec::new();
        row.extend((0..continuous).map(|_| rng.next_f64()));
        row.extend((0..integer).map(|_| rng.below(4) as f64));
        let hot = rng.below(one_hot + 1);
        row.extend((0..one_hot).map(|j| if j == hot { 1.0 } else { 0.0 }));
        if signed_zero || row.is_empty() {
            row.push([-0.0, 0.0, 1.0][rng.below(3)]);
        }
        xs.push(row);
        ys.push(if integer_y {
            rng.below(3) as f64
        } else {
            rng.next_gaussian()
        });
    }
    (xs, ys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forest_matches_reference_fitter_bit_for_bit(
        seed in any::<u64>(),
        rows in 1usize..90,
        n_trees in 1usize..6,
        subsample in 0usize..4,
        min_samples_leaf in 1usize..5,
        depth_choice in 0usize..3,
    ) {
        let mut rng = Rng::seed_from(seed);
        let (xs, ys) = tied_data(&mut rng, rows);
        let cols = xs[0].len();
        let params = ForestParams {
            n_trees,
            bootstrap: rng.chance(0.5),
            feature_subsample: match subsample {
                0 => FeatureSubsample::All,
                1 => FeatureSubsample::Sqrt,
                2 => FeatureSubsample::Third,
                _ => FeatureSubsample::Fixed(1 + rng.below(cols + 1)),
            },
            tree: TreeParams {
                max_depth: [2, 4, 24][depth_choice],
                min_samples_leaf,
                ..TreeParams::default()
            },
        };
        let fit_seed = rng.next_u64();
        let mut rf = RandomForest::new(params);
        rf.fit(&xs, &ys, &mut Rng::seed_from(fit_seed)).unwrap();
        let reference = oracle::fit_forest(&xs, &ys, params, &mut Rng::seed_from(fit_seed));

        prop_assert_eq!(rf.trees().len(), reference.len());
        for (tree, want) in rf.trees().iter().zip(&reference) {
            let got_nodes: Vec<_> = tree.nodes().iter().map(node_bits).collect();
            let want_nodes: Vec<_> = want.nodes.iter().map(node_bits).collect();
            prop_assert_eq!(got_nodes, want_nodes);
            prop_assert_eq!(bits(tree.feature_gains()), bits(&want.gains));
        }
        let probes = xs.iter().cloned().chain((0..8).map(|_| {
            (0..cols).map(|_| rng.next_f64() * 2.0 - 0.5).collect::<Vec<f64>>()
        }));
        for probe in probes {
            let (mean, var) = rf.predict_stats(&probe);
            let (want_mean, want_var) = oracle::predict_stats(&reference, &probe);
            prop_assert_eq!((mean.to_bits(), var.to_bits()), (want_mean.to_bits(), want_var.to_bits()));
        }

        // A lone tree on the full data takes the same path.
        let tree_seed = rng.next_u64();
        let tree = RegressionTree::fit(&xs, &ys, params.tree, &mut Rng::seed_from(tree_seed)).unwrap();
        let want = oracle::fit_tree(&xs, &ys, params.tree, &mut Rng::seed_from(tree_seed));
        let got_nodes: Vec<_> = tree.nodes().iter().map(node_bits).collect();
        let want_nodes: Vec<_> = want.nodes.iter().map(node_bits).collect();
        prop_assert_eq!(got_nodes, want_nodes);
        prop_assert_eq!(bits(tree.feature_gains()), bits(&want.gains));
    }

    #[test]
    fn cholesky_reconstructs_random_spd(seed in any::<u64>(), n in 1usize..10) {
        let mut rng = Rng::seed_from(seed);
        let b = Matrix::from_fn(n, n, |_, _| rng.next_gaussian());
        let mut a = b.matmul(&b.transpose());
        a.add_diagonal(n as f64 + 1.0);
        let ch = Cholesky::factor(&a).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose());
        for i in 0..n {
            for j in 0..n {
                prop_assert!((rec.get(i, j) - a.get(i, j)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn cholesky_solve_is_inverse(seed in any::<u64>(), n in 1usize..8) {
        let mut rng = Rng::seed_from(seed);
        let b = Matrix::from_fn(n, n, |_, _| rng.next_gaussian());
        let mut a = b.matmul(&b.transpose());
        a.add_diagonal(n as f64 + 1.0);
        let x_true: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let rhs = a.matvec(&x_true);
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&rhs);
        for (got, want) in x.iter().zip(&x_true) {
            prop_assert!((got - want).abs() < 1e-6);
        }
    }

    #[test]
    fn tree_predictions_bounded_by_targets(seed in any::<u64>(), n in 5usize..60) {
        let mut rng = Rng::seed_from(seed);
        let xs: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.next_f64(), rng.next_f64()]).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.next_gaussian() * 10.0).collect();
        let t = RegressionTree::fit(&xs, &ys, TreeParams::default(), &mut rng).unwrap();
        let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for _ in 0..16 {
            let p = t.predict(&[rng.next_f64(), rng.next_f64()]);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    #[test]
    fn forest_variance_nonnegative(seed in any::<u64>(), n in 5usize..40) {
        let mut rng = Rng::seed_from(seed);
        let xs: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.next_f64()]).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mut rf = RandomForest::new(ForestParams { n_trees: 8, ..ForestParams::default() });
        rf.fit(&xs, &ys, &mut rng).unwrap();
        for _ in 0..8 {
            let (_, v) = rf.predict_stats(&[rng.next_f64()]);
            prop_assert!(v >= 0.0);
        }
    }

    #[test]
    fn ei_nonnegative_everywhere(mean in -100.0f64..100.0, std in 0.0f64..50.0, best in -100.0f64..100.0, xi in 0.0f64..5.0) {
        prop_assert!(expected_improvement(mean, std, best, xi) >= 0.0);
    }

    #[test]
    fn ei_monotone_in_mean(std in 0.01f64..50.0, best in -10.0f64..10.0) {
        // Lower predicted cost => higher EI.
        let a = expected_improvement(best - 1.0, std, best, 0.0);
        let b = expected_improvement(best + 1.0, std, best, 0.0);
        prop_assert!(a >= b);
    }

    #[test]
    fn poi_is_probability(mean in -100.0f64..100.0, std in 0.0f64..50.0, best in -100.0f64..100.0) {
        let p = probability_of_improvement(mean, std, best, 0.0);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn forest_deterministic_given_seed(seed in any::<u64>()) {
        let mut data_rng = Rng::seed_from(seed);
        let xs: Vec<Vec<f64>> = (0..20).map(|_| vec![data_rng.next_f64()]).collect();
        let ys: Vec<f64> = (0..20).map(|_| data_rng.next_gaussian()).collect();
        let mut a = RandomForest::new(ForestParams { n_trees: 4, ..ForestParams::default() });
        let mut b = RandomForest::new(ForestParams { n_trees: 4, ..ForestParams::default() });
        a.fit(&xs, &ys, &mut Rng::seed_from(7)).unwrap();
        b.fit(&xs, &ys, &mut Rng::seed_from(7)).unwrap();
        prop_assert_eq!(a.predict(&[0.5]), b.predict(&[0.5]));
    }
}
