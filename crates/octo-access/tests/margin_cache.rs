//! The learner's tree-sum cache against a from-scratch recompute.
//!
//! `IncrementalLearner` keeps every buffered row's sum of tree outputs and
//! trims its buffer in batches. A reference learner written the direct
//! way — trim the buffer on every observation, refresh with
//! `Gbt::train_continuation` / `Gbt::train`, which walk every row through
//! the whole ensemble — is driven through the same observation stream.
//! After every refresh both models must give bit-identical margins on
//! every buffered row, and both must have trained at the same points.

use octo_access::{FeatureConfig, IncrementalLearner, LearnerConfig, LearningMode};
use octo_common::{SimDuration, SimTime};
use octo_gbt::{Dataset, Gbt, GbtParams};

/// The learner's buffer and refresh logic, recomputing margins on every
/// training call.
struct Reference {
    cfg: LearnerConfig,
    model: Option<Gbt>,
    buffer: Dataset,
    last_refresh: Option<SimTime>,
    trainings: u64,
}

impl Reference {
    fn new(cfg: LearnerConfig) -> Self {
        let buffer = Dataset::new(cfg.features.n_features());
        Reference {
            cfg,
            model: None,
            buffer,
            last_refresh: None,
            trainings: 0,
        }
    }

    fn observe(&mut self, features: &[f32], label: bool, now: SimTime) {
        self.buffer
            .push_row(features, if label { 1.0 } else { 0.0 });
        self.buffer.truncate_front(self.cfg.buffer_max);
        if self.buffer.n_rows() < self.cfg.min_points {
            return;
        }
        let due = self
            .last_refresh
            .is_none_or(|t| now.duration_since(t) >= self.cfg.refresh_interval);
        if due {
            self.refresh(now);
        }
    }

    fn refresh(&mut self, now: SimTime) {
        match (self.cfg.mode, self.model.as_mut()) {
            (LearningMode::OneShot, Some(_)) => return,
            (LearningMode::Incremental, Some(model)) => {
                model.train_continuation(&self.buffer, self.cfg.gbt.rounds);
                if model.n_trees() > self.cfg.max_trees {
                    *model = Gbt::train(&self.buffer, &self.cfg.gbt);
                }
            }
            (LearningMode::Retrain, Some(_)) | (_, None) => {
                self.model = Some(Gbt::train(&self.buffer, &self.cfg.gbt));
            }
        }
        self.trainings += 1;
        self.last_refresh = Some(now);
    }
}

fn config(mode: LearningMode, buffer_max: usize, min_points: usize) -> LearnerConfig {
    LearnerConfig {
        features: FeatureConfig {
            k: 3,
            ..FeatureConfig::default()
        },
        gbt: GbtParams {
            rounds: 4,
            max_depth: 5,
            ..GbtParams::default()
        },
        mode,
        refresh_interval: SimDuration::from_mins(5),
        min_points,
        buffer_max,
        eval_window: 40,
        activation_error: 0.3,
        max_trees: 18,
    }
}

/// A deterministic stream with missing values and a concept that flips
/// halfway, so refreshes keep changing the model.
fn point(i: u64, width: usize) -> (Vec<f32>, bool) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let row: Vec<f32> = (0..width)
        .map(|f| {
            x ^= x >> 29;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 32;
            if x.is_multiple_of(9) && f > 0 {
                f32::NAN
            } else {
                (x % 1000) as f32 / 1000.0
            }
        })
        .collect();
    let label = (row[0] > 0.45) ^ (i >= 700) ^ x.is_multiple_of(17);
    (row, label)
}

/// Drives both learners through `n` observations and compares them after
/// every refresh. Returns the number of refreshes and whether the
/// reference ensemble ever shrank (a compaction).
fn drive(cfg: LearnerConfig, n: u64) -> (u64, bool) {
    let width = cfg.features.n_features();
    let mut cached = IncrementalLearner::new(cfg.clone());
    let mut reference = Reference::new(cfg);
    let mut compacted = false;
    for i in 0..n {
        let (x, y) = point(i, width);
        let now = SimTime::from_secs(i * 10);
        let trees_before = reference.model.as_ref().map_or(0, Gbt::n_trees);
        cached.observe(&x, y, now);
        reference.observe(&x, y, now);
        assert_eq!(cached.trainings(), reference.trainings, "point {i}");
        let Some(model) = reference.model.as_ref() else {
            assert!(cached.model().is_none(), "point {i}");
            continue;
        };
        compacted |= model.n_trees() < trees_before;
        let got = cached.model().expect("both learners trained");
        assert_eq!(got.n_trees(), model.n_trees(), "point {i}");
        if reference.last_refresh != Some(now) {
            continue;
        }
        for r in 0..reference.buffer.n_rows() {
            let row = reference.buffer.row(r);
            assert_eq!(
                got.predict_margin(row).to_bits(),
                model.predict_margin(row).to_bits(),
                "point {i}, buffer row {r}"
            );
        }
    }
    (reference.trainings, compacted)
}

#[test]
fn incremental_with_compaction_matches_recompute() {
    let (trainings, compacted) = drive(config(LearningMode::Incremental, 90, 30), 1_500);
    assert!(trainings > 20, "{trainings} refreshes");
    assert!(compacted, "max_trees must force compactions");
}

#[test]
fn retrain_matches_recompute() {
    let (trainings, _) = drive(config(LearningMode::Retrain, 90, 30), 900);
    assert!(trainings > 10, "{trainings} refreshes");
}

#[test]
fn one_shot_matches_recompute() {
    let (trainings, _) = drive(config(LearningMode::OneShot, 90, 30), 600);
    assert_eq!(trainings, 1);
}

#[test]
fn min_points_counts_only_the_retained_window() {
    // A window smaller than `min_points` never trains, however many rows
    // wait to be trimmed.
    let (trainings, _) = drive(config(LearningMode::Incremental, 20, 30), 200);
    assert_eq!(trainings, 0);
}
