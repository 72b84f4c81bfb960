//! Criterion microbenchmarks for the hand-rolled ML stack.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tuna_ml::forest::{FeatureSubsample, ForestParams, RandomForest};
use tuna_ml::gp::{GaussianProcess, Kernel};
use tuna_ml::linalg::{Cholesky, Matrix};
use tuna_ml::Regressor;
use tuna_stats::rng::Rng;

fn make_data(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = Rng::seed_from(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.next_f64()).collect())
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| x.iter().sum::<f64>() + 0.1 * rng.next_gaussian())
        .collect();
    (xs, ys)
}

/// The noise adjuster's training set: 100 samples of 30 continuous
/// metrics plus a 10-wide one-hot machine block, target = relative error.
fn adjuster_data(seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = Rng::seed_from(seed);
    let xs: Vec<Vec<f64>> = (0..100)
        .map(|_| {
            let machine = rng.below(10);
            let mut row: Vec<f64> = (0..30).map(|_| rng.next_f64()).collect();
            row.extend((0..10).map(|m| if m == machine { 1.0 } else { 0.0 }));
            row
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 0.05 * (x[0] - 0.5) + 0.02 * x[30] + 0.01 * rng.next_gaussian())
        .collect();
    (xs, ys)
}

fn bench_forest(c: &mut Criterion) {
    let mut group = c.benchmark_group("random_forest");
    for &n in &[50usize, 200] {
        let (xs, ys) = make_data(n, 18, 1);
        group.bench_with_input(BenchmarkId::new("fit", n), &n, |b, _| {
            b.iter(|| {
                let mut rf = RandomForest::new(ForestParams::default());
                rf.fit(black_box(&xs), black_box(&ys), &mut Rng::seed_from(2))
                    .unwrap();
                rf
            })
        });
        let mut rf = RandomForest::new(ForestParams::default());
        rf.fit(&xs, &ys, &mut Rng::seed_from(2)).unwrap();
        let probe: Vec<f64> = (0..18).map(|i| i as f64 / 18.0).collect();
        group.bench_with_input(BenchmarkId::new("predict", n), &n, |b, _| {
            b.iter(|| rf.predict_stats(black_box(&probe)))
        });
    }
    let (xs, ys) = adjuster_data(4);
    let params = ForestParams {
        n_trees: 32,
        feature_subsample: FeatureSubsample::Third,
        ..ForestParams::default()
    };
    group.bench_function("fit_adjuster_100x40", |b| {
        b.iter(|| {
            let mut rf = RandomForest::new(params);
            rf.fit(black_box(&xs), black_box(&ys), &mut Rng::seed_from(2))
                .unwrap();
            rf
        })
    });
    group.finish();
}

fn bench_gp(c: &mut Criterion) {
    let mut group = c.benchmark_group("gaussian_process");
    group.sample_size(10);
    for &n in &[50usize, 150] {
        let (xs, ys) = make_data(n, 8, 3);
        group.bench_with_input(BenchmarkId::new("fit_hyperopt", n), &n, |b, _| {
            b.iter(|| {
                let mut gp = GaussianProcess::new(
                    Kernel::Matern52 {
                        lengthscale: 0.5,
                        signal_var: 1.0,
                    },
                    1e-3,
                )
                .unwrap();
                gp.fit_with_hyperopt(black_box(&xs), black_box(&ys))
                    .unwrap();
                gp
            })
        });
    }
    group.finish();
}

fn bench_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholesky");
    for &n in &[32usize, 128] {
        let mut rng = Rng::seed_from(5);
        let b_mat = Matrix::from_fn(n, n, |_, _| rng.next_gaussian());
        let mut a = b_mat.matmul(&b_mat.transpose());
        a.add_diagonal(n as f64);
        group.bench_with_input(BenchmarkId::new("factor", n), &n, |b, _| {
            b.iter(|| Cholesky::factor(black_box(&a)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_forest, bench_gp, bench_cholesky);
criterion_main!(benches);
