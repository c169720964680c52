//! File access pattern modelling (paper §4).
//!
//! This crate turns the DFS's per-file access statistics into online
//! predictions of future accesses:
//!
//! * [`features`] — the Figure 4 feature pipeline: normalized time deltas
//!   over the last `k` accesses, creation time and file size, with `NaN`
//!   for missing entries.
//! * [`learner`] — an incremental GBT classifier with prequential
//!   (test-then-train) evaluation, an activation gate, and the three update
//!   modes Figure 16 compares (incremental / periodic retrain / one-shot).
//!   It caches each buffered row's sum of tree outputs, so a refresh boosts
//!   its `r` new trees without re-walking the buffer through the whole
//!   ensemble; the cache is pinned bit for bit against a recompute by
//!   `tests/margin_cache.rs`.
//! * [`predictor`] — [`predictor::AccessPredictor`] ties a class window `w`
//!   to a learner and generates training points exactly as §4.2 describes.
//! * [`eval`] — ROC curves and AUC for the §7.6 model studies.

pub mod eval;
pub mod features;
pub mod learner;
pub mod predictor;

pub use eval::{roc_curve, Confusion, RocCurve};
pub use features::FeatureConfig;
pub use learner::{IncrementalLearner, LearnerConfig, LearningMode};
pub use predictor::AccessPredictor;
