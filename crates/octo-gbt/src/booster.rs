//! The boosted ensemble.

use crate::dataset::Dataset;
use crate::objective;
use crate::params::GbtParams;
use crate::trainer::{presort, TreeBuilder};
use crate::tree::Tree;
use serde::{Deserialize, Serialize};

/// A gradient-boosted tree ensemble for binary classification.
///
/// Train once with [`Gbt::train`], or refresh an existing model on new data
/// with [`Gbt::train_continuation`] — the incremental-learning primitive the
/// paper's XGB policies are built on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gbt {
    trees: Vec<Tree>,
    params: GbtParams,
    base_margin: f64,
    n_features: usize,
}

/// Summary statistics from [`Gbt::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Mean binary cross-entropy.
    pub logloss: f64,
    /// Accuracy at the 0.5 discrimination threshold.
    pub accuracy: f64,
    /// Number of rows evaluated.
    pub n_rows: usize,
}

impl Gbt {
    /// Trains a fresh ensemble of `params.rounds` trees.
    ///
    /// Panics on invalid parameters (see [`GbtParams::validate`]).
    pub fn train(data: &Dataset, params: &GbtParams) -> Gbt {
        let mut model = Gbt::untrained(data, params);
        model.boost(data, params.rounds, None);
        model
    }

    /// [`Gbt::train`] that also fills `tree_sums` with every row's
    /// [`Gbt::tree_sum`] under the new model: the sums restart from
    /// [`Gbt::empty_tree_sum`] and each tree's output is added as the tree
    /// is built, so no row is walked through the ensemble afterwards.
    ///
    /// `tree_sums` holds one entry per row of `data`.
    pub fn train_cached(data: &Dataset, params: &GbtParams, tree_sums: &mut [f64]) -> Gbt {
        tree_sums.fill(Gbt::empty_tree_sum());
        let mut model = Gbt::untrained(data, params);
        model.boost(data, params.rounds, Some(tree_sums));
        model
    }

    fn untrained(data: &Dataset, params: &GbtParams) -> Gbt {
        params.validate().expect("invalid GbtParams");
        Gbt {
            trees: Vec::new(),
            params: params.clone(),
            base_margin: params.base_margin(),
            n_features: data.n_features(),
        }
    }

    /// Boosts `rounds` additional trees fitted to `data`, starting from the
    /// current model's margins (XGBoost's training continuation).
    ///
    /// `data` must have the same feature width the model was trained with.
    pub fn train_continuation(&mut self, data: &Dataset, rounds: usize) {
        self.check_width(data);
        self.boost(data, rounds, None);
    }

    /// [`Gbt::train_continuation`] for a caller that keeps every row's
    /// [`Gbt::tree_sum`] under the current model in `tree_sums`: the
    /// starting margins come from the sums instead of a walk of every
    /// tree, and each new tree's output is added to them.
    ///
    /// `tree_sums` holds one entry per row of `data`. The model, and the
    /// updated sums, are bit-identical to a [`Gbt::train_continuation`]
    /// followed by a recompute of [`Gbt::tree_sum`] on every row.
    pub fn train_continuation_cached(
        &mut self,
        data: &Dataset,
        rounds: usize,
        tree_sums: &mut [f64],
    ) {
        self.check_width(data);
        self.boost(data, rounds, Some(tree_sums));
    }

    fn check_width(&self, data: &Dataset) {
        assert_eq!(
            data.n_features(),
            self.n_features,
            "continuation data width {} != model width {}",
            data.n_features(),
            self.n_features
        );
    }

    fn boost(&mut self, data: &Dataset, rounds: usize, mut tree_sums: Option<&mut [f64]>) {
        if data.is_empty() || rounds == 0 {
            return;
        }
        let n = data.n_rows();
        let mut margins: Vec<f64> = match tree_sums.as_deref() {
            Some(sums) => {
                assert_eq!(sums.len(), n, "one tree sum per row");
                sums.iter().map(|&s| self.margin_from_tree_sum(s)).collect()
            }
            None => (0..n).map(|i| self.predict_margin(data.row(i))).collect(),
        };
        let sorted = presort(data);
        for _ in 0..rounds {
            let mut grad = Vec::with_capacity(n);
            let mut hess = Vec::with_capacity(n);
            for (i, &m) in margins.iter().enumerate() {
                grad.push(objective::grad(m, data.label(i) as f64));
                hess.push(objective::hess(m));
            }
            let tree =
                TreeBuilder::new(data, &grad, &hess, &self.params).build_presorted(sorted.clone());
            for (i, m) in margins.iter_mut().enumerate() {
                let out = tree.predict(data.row(i));
                *m += out;
                if let Some(sums) = tree_sums.as_deref_mut() {
                    sums[i] += out;
                }
            }
            self.trees.push(tree);
        }
    }

    /// The sum of the trees' outputs for one row, without the base margin:
    /// the left fold [`Gbt::predict_margin`] adds to the base margin.
    pub fn tree_sum(&self, row: &[f32]) -> f64 {
        debug_assert_eq!(row.len(), self.n_features);
        self.trees.iter().map(|t| t.predict(row)).sum()
    }

    /// The tree sum of an ensemble with no trees: the value a fold over
    /// tree outputs starts from.
    pub fn empty_tree_sum() -> f64 {
        std::iter::empty::<f64>().sum()
    }

    /// The margin of a row whose [`Gbt::tree_sum`] is `tree_sum`,
    /// bit-identical to [`Gbt::predict_margin`] of that row.
    pub fn margin_from_tree_sum(&self, tree_sum: f64) -> f64 {
        self.base_margin + tree_sum
    }

    /// The raw boosting margin (log-odds) for one row.
    pub fn predict_margin(&self, row: &[f32]) -> f64 {
        self.margin_from_tree_sum(self.tree_sum(row))
    }

    /// The predicted probability of the positive class for one row.
    pub fn predict_proba(&self, row: &[f32]) -> f64 {
        objective::sigmoid(self.predict_margin(row))
    }

    /// Probabilities for every row of a dataset.
    pub fn predict_proba_batch(&self, data: &Dataset) -> Vec<f64> {
        (0..data.n_rows())
            .map(|i| self.predict_proba(data.row(i)))
            .collect()
    }

    /// Logloss and accuracy of this model over a labelled dataset.
    pub fn evaluate(&self, data: &Dataset) -> EvalReport {
        let probs = self.predict_proba_batch(data);
        EvalReport {
            logloss: objective::logloss(&probs, data.labels()),
            accuracy: objective::accuracy(&probs, data.labels(), 0.5),
            n_rows: data.n_rows(),
        }
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Feature width the model expects.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The training parameters the model carries.
    pub fn params(&self) -> &GbtParams {
        &self.params
    }

    /// Gain-based feature importance, normalized to sum to 1 (all zeros if
    /// no split was ever made).
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for tree in &self.trees {
            for (f, g) in tree.feature_gain().iter().enumerate() {
                imp[f] += g;
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// Approximate in-memory footprint (§7.7 overhead reporting).
    pub fn approx_memory_bytes(&self) -> usize {
        std::mem::size_of::<Gbt>()
            + self
                .trees
                .iter()
                .map(|t| t.approx_memory_bytes())
                .sum::<usize>()
    }

    /// Drops the oldest trees so at most `max_trees` remain. Used by
    /// long-running incremental learners to bound memory; callers typically
    /// retrain soon after so predictions re-calibrate.
    pub fn truncate_oldest(&mut self, max_trees: usize) {
        let n = self.trees.len();
        if n > max_trees {
            self.trees.drain(0..n - max_trees);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two gaussian-ish blobs separated along a noisy linear boundary.
    fn blob_dataset(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(3);
        for _ in 0..n {
            let y = rng.gen_bool(0.5);
            let center = if y { 1.0 } else { -1.0 };
            let x0 = center + rng.gen_range(-0.8..0.8);
            let x1 = center * 0.5 + rng.gen_range(-0.8..0.8);
            let x2: f32 = rng.gen_range(-1.0..1.0); // pure noise
            d.push_row(&[x0 as f32, x1 as f32, x2], if y { 1.0 } else { 0.0 });
        }
        d
    }

    #[test]
    fn learns_separable_blobs() {
        let train = blob_dataset(1, 400);
        let test = blob_dataset(2, 200);
        let params = GbtParams {
            rounds: 20,
            max_depth: 4,
            ..GbtParams::default()
        };
        let model = Gbt::train(&train, &params);
        let report = model.evaluate(&test);
        assert!(report.accuracy > 0.9, "test accuracy {}", report.accuracy);
        assert_eq!(model.n_trees(), 20);
    }

    #[test]
    fn more_rounds_reduce_train_logloss() {
        let data = blob_dataset(3, 300);
        let short = Gbt::train(
            &data,
            &GbtParams {
                rounds: 2,
                ..GbtParams::default()
            },
        );
        let long = Gbt::train(
            &data,
            &GbtParams {
                rounds: 20,
                ..GbtParams::default()
            },
        );
        assert!(
            long.evaluate(&data).logloss < short.evaluate(&data).logloss,
            "boosting must reduce training loss"
        );
    }

    #[test]
    fn continuation_adds_trees_and_improves_on_new_data() {
        let old = blob_dataset(4, 200);
        let mut model = Gbt::train(
            &old,
            &GbtParams {
                rounds: 5,
                ..GbtParams::default()
            },
        );
        // "New" data with inverted labels: the refreshed model must adapt.
        let mut flipped = Dataset::new(3);
        for i in 0..old.n_rows() {
            flipped.push_row(old.row(i), 1.0 - old.label(i));
        }
        let before = model.evaluate(&flipped).logloss;
        model.train_continuation(&flipped, 15);
        let after = model.evaluate(&flipped).logloss;
        assert_eq!(model.n_trees(), 20);
        assert!(
            after < before,
            "continuation must adapt: {before} -> {after}"
        );
    }

    #[test]
    fn empty_training_yields_prior_model() {
        let d = Dataset::new(2);
        let model = Gbt::train(&d, &GbtParams::default());
        assert_eq!(model.n_trees(), 0);
        assert!((model.predict_proba(&[0.0, 0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn determinism_same_data_same_model() {
        let data = blob_dataset(5, 150);
        let p = GbtParams {
            rounds: 8,
            ..GbtParams::default()
        };
        let a = Gbt::train(&data, &p);
        let b = Gbt::train(&data, &p);
        for i in 0..data.n_rows() {
            assert_eq!(
                a.predict_margin(data.row(i)).to_bits(),
                b.predict_margin(data.row(i)).to_bits()
            );
        }
    }

    #[test]
    fn cached_training_matches_plain_training_and_recomputed_sums() {
        let data = blob_dataset(10, 150);
        let more = blob_dataset(11, 150);
        let p = GbtParams {
            rounds: 6,
            ..GbtParams::default()
        };
        let same_margins = |a: &Gbt, b: &Gbt, d: &Dataset| {
            (0..d.n_rows()).all(|i| {
                a.predict_margin(d.row(i)).to_bits() == b.predict_margin(d.row(i)).to_bits()
            })
        };
        let sums_are_exact = |m: &Gbt, sums: &[f64], d: &Dataset| {
            (0..d.n_rows()).all(|i| sums[i].to_bits() == m.tree_sum(d.row(i)).to_bits())
        };

        let mut plain = Gbt::train(&data, &p);
        let mut sums = vec![1.0; data.n_rows()]; // stale values are reset
        let mut cached = Gbt::train_cached(&data, &p, &mut sums);
        assert!(same_margins(&plain, &cached, &data));
        assert!(sums_are_exact(&cached, &sums, &data));

        let mut sums: Vec<f64> = (0..more.n_rows())
            .map(|i| cached.tree_sum(more.row(i)))
            .collect();
        plain.train_continuation(&more, 4);
        cached.train_continuation_cached(&more, 4, &mut sums);
        assert_eq!(cached.n_trees(), 10);
        assert!(same_margins(&plain, &cached, &more));
        assert!(sums_are_exact(&cached, &sums, &more));
        for (i, &sum) in sums.iter().enumerate() {
            assert_eq!(
                cached.margin_from_tree_sum(sum).to_bits(),
                cached.predict_margin(more.row(i)).to_bits()
            );
        }
    }

    #[test]
    fn empty_tree_sum_is_the_margin_offset_of_no_trees() {
        let model = Gbt::train(&Dataset::new(2), &GbtParams::default());
        assert_eq!(
            model.tree_sum(&[0.0, 0.0]).to_bits(),
            Gbt::empty_tree_sum().to_bits()
        );
    }

    #[test]
    fn noise_feature_has_lowest_importance() {
        let data = blob_dataset(6, 500);
        let model = Gbt::train(
            &data,
            &GbtParams {
                rounds: 10,
                max_depth: 4,
                ..GbtParams::default()
            },
        );
        let imp = model.feature_importance();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(
            imp[2] < imp[0],
            "noise feature should matter least: {imp:?}"
        );
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let data = blob_dataset(7, 100);
        let model = Gbt::train(&data, &GbtParams::default());
        let json = serde_json::to_string(&model).expect("serialize");
        let back: Gbt = serde_json::from_str(&json).expect("deserialize");
        for i in 0..data.n_rows() {
            assert_eq!(
                model.predict_margin(data.row(i)).to_bits(),
                back.predict_margin(data.row(i)).to_bits()
            );
        }
    }

    #[test]
    fn truncate_oldest_bounds_ensemble() {
        let data = blob_dataset(8, 100);
        let mut model = Gbt::train(
            &data,
            &GbtParams {
                rounds: 10,
                ..GbtParams::default()
            },
        );
        model.truncate_oldest(4);
        assert_eq!(model.n_trees(), 4);
        model.truncate_oldest(100); // no-op
        assert_eq!(model.n_trees(), 4);
    }

    #[test]
    fn memory_footprint_grows_with_trees() {
        let data = blob_dataset(9, 200);
        let small = Gbt::train(
            &data,
            &GbtParams {
                rounds: 1,
                ..GbtParams::default()
            },
        );
        let big = Gbt::train(
            &data,
            &GbtParams {
                rounds: 10,
                ..GbtParams::default()
            },
        );
        assert!(big.approx_memory_bytes() > small.approx_memory_bytes());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Predictions are finite probabilities for arbitrary inputs,
        /// including all-missing rows.
        #[test]
        fn prop_predictions_are_probabilities(
            seed in 0u64..1000,
            probe in proptest::collection::vec(
                proptest::option::of(-100.0f32..100.0), 3)
        ) {
            let data = blob_dataset(seed, 60);
            let model = Gbt::train(&data, &GbtParams {
                rounds: 4, ..GbtParams::default()
            });
            let row: Vec<f32> = probe.iter().map(|o| o.unwrap_or(f32::NAN)).collect();
            let p = model.predict_proba(&row);
            prop_assert!(p.is_finite());
            prop_assert!((0.0..=1.0).contains(&p));
        }

        /// Training never increases logloss on its own training set relative
        /// to the prior-only model.
        #[test]
        fn prop_training_beats_prior(seed in 0u64..500) {
            let data = blob_dataset(seed, 120);
            let prior = Gbt::train(&Dataset::new(3), &GbtParams::default());
            let probs_prior: Vec<f64> =
                (0..data.n_rows()).map(|i| prior.predict_proba(data.row(i))).collect();
            let prior_ll = crate::objective::logloss(&probs_prior, data.labels());

            let model = Gbt::train(&data, &GbtParams {
                rounds: 5, ..GbtParams::default()
            });
            prop_assert!(model.evaluate(&data).logloss <= prior_ll + 1e-9);
        }
    }
}
