//! Heat-score watermark policies (ROADMAP item 4).
//!
//! The statistics registry maintains a per-file exponentially-decayed
//! **heat** score (reads and writes weighted, configurable half-life —
//! see [`octo_dfs::HeatConfig`]). This module classifies files into
//! **hot / warm / cold bands** against watermark thresholds and tiers on
//! the bands:
//!
//! * **Downgrade**: evict cold files first, then warm, coldest heat
//!   first; files currently in the hot band are exempt.
//! * **Upgrade**: the accessed file moves to memory when it is in the hot
//!   band (one file per access, like OSA).
//! * **Hybrid**: watermark bands gate *eligibility* while the XGB access
//!   predictor ranks the candidate window — ML-gated admission over
//!   watermark eviction; until the model warms up it degrades to the
//!   plain watermark order.
//!
//! Band membership has **hysteresis**: a file enters a band at the
//! `enter` threshold but only leaves it after its heat decays below
//! `enter × (1 − hysteresis)`. A score oscillating around one threshold
//! therefore cannot thrash a file between tiers: downgrade exempts the
//! hot band and upgrade requires it, and since heat is frozen within one
//! tiering run, no run can both evict and re-admit the same file.
//!
//! Bands are folded incrementally at access events. Between events heat
//! only decays (monotonically), so observing the pre-access trough
//! ([`octo_dfs::AccessStats::heat_before_last`]) and the post-access peak
//! reproduces exactly what a continuous observer would have seen —
//! the incremental fold *is* the from-scratch recomputation (property
//! tested in `tests/watermark_props.rs`).

use crate::framework::{
    effective_utilization, DowngradePolicy, TieringConfig, UpgradeChoice, UpgradePolicy,
};
use crate::parallel::{encode_f64, Candidate, PhasePlan, ScanBatch};
use crate::xgb::{sample_files, RunScores, DOWNGRADE_WINDOW, UPGRADE_WINDOW};
use octo_access::{AccessPredictor, LearnerConfig};
use octo_common::{ByteSize, DetRng, FileId, SimTime, StorageTier};
use octo_dfs::{EpochPool, TieredDfs};
use std::collections::{BTreeSet, HashMap};

/// A file's temperature band. Ordered cold → hot so `max` composes a
/// settle (decay-driven demotion) with an entry (access-driven
/// promotion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Band {
    /// At or below the cold watermark: first in the eviction order.
    Cold = 0,
    /// Between the watermarks.
    Warm = 1,
    /// At or above the hot watermark: upgrade-eligible, downgrade-exempt.
    Hot = 2,
}

impl Band {
    /// Ascending eviction priority: cold files go first.
    fn rank(self) -> u64 {
        self as u64
    }
}

/// The enter/exit thresholds of the hot and cold bands, derived from
/// [`TieringConfig`]: `exit = enter × (1 − hysteresis)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Watermarks {
    /// Heat at or above which a file enters the hot band.
    pub hot_enter: f64,
    /// Heat below which a hot file falls back to warm.
    pub hot_exit: f64,
    /// Heat at or below which a file enters the cold band.
    pub cold_enter: f64,
    /// Heat below which a warm file falls to cold.
    pub cold_exit: f64,
}

impl Watermarks {
    /// Watermarks from the policy configuration.
    pub fn from_config(cfg: &TieringConfig) -> Self {
        let h = cfg.watermark_hysteresis.clamp(0.0, 1.0);
        Watermarks {
            hot_enter: cfg.watermark_hot,
            hot_exit: cfg.watermark_hot * (1.0 - h),
            cold_enter: cfg.watermark_cold,
            cold_exit: cfg.watermark_cold * (1.0 - h),
        }
    }

    /// The band a heat value classifies into with no history (entry
    /// thresholds only).
    pub fn entry(&self, heat: f64) -> Band {
        if heat >= self.hot_enter {
            Band::Hot
        } else if heat > self.cold_enter {
            Band::Warm
        } else {
            Band::Cold
        }
    }

    /// Applies decay-driven demotion to a stored band: bands are only
    /// *left* downward once heat falls below the exit threshold —
    /// promotions happen exclusively through [`Watermarks::entry`] at
    /// access events.
    pub fn settle(&self, stored: Band, heat: f64) -> Band {
        let mut band = stored;
        if band == Band::Hot && heat < self.hot_exit {
            band = Band::Warm;
        }
        if band == Band::Warm && heat < self.cold_exit {
            band = Band::Cold;
        }
        band
    }
}

/// Incremental band bookkeeping shared by the watermark policies.
///
/// Folded at lifecycle events only: creation classifies the initial heat;
/// an access first settles the stored band against the pre-access trough
/// (the lowest heat since the previous event — decay is monotone), then
/// takes the entry of the post-access heat, keeping the higher band.
#[derive(Debug, Clone)]
pub struct BandTracker {
    marks: Watermarks,
    bands: HashMap<FileId, Band>,
}

impl BandTracker {
    /// A tracker for the given watermarks.
    pub fn new(marks: Watermarks) -> Self {
        BandTracker {
            marks,
            bands: HashMap::new(),
        }
    }

    /// The thresholds this tracker classifies against.
    pub fn marks(&self) -> &Watermarks {
        &self.marks
    }

    /// Classifies a newly committed file by its initial heat.
    pub fn on_created(&mut self, dfs: &TieredDfs, file: FileId) {
        let heat = dfs.file_stats(file).map_or(0.0, |s| s.heat_raw());
        self.bands.insert(file, self.marks.entry(heat));
    }

    /// Folds an access event: settle on the trough, promote on the peak.
    pub fn on_accessed(&mut self, dfs: &TieredDfs, file: FileId) {
        let Some(stats) = dfs.file_stats(file) else {
            return;
        };
        let stored = self.bands.get(&file).copied().unwrap_or(Band::Cold);
        let settled = self.marks.settle(stored, stats.heat_before_last());
        let band = settled.max(self.marks.entry(stats.heat_raw()));
        self.bands.insert(file, band);
    }

    /// Forgets a deleted file.
    pub fn on_deleted(&mut self, file: FileId) {
        self.bands.remove(&file);
    }

    /// The band observed at `now`: the stored band settled against the
    /// current decayed heat. Pure — safe to call from parallel shard
    /// scans.
    pub fn effective(&self, dfs: &TieredDfs, file: FileId, now: SimTime) -> Band {
        let stored = self.bands.get(&file).copied().unwrap_or(Band::Cold);
        let heat = dfs
            .file_stats(file)
            .map_or(0.0, |s| s.heat_value(now, dfs.heat_config()));
        self.marks.settle(stored, heat)
    }
}

/// The watermark eviction key: band first (cold before warm), coldest
/// heat next, file id last. Globally unique and order-normalized.
fn eviction_key(bands: &BandTracker, dfs: &TieredDfs, file: FileId, now: SimTime) -> [u64; 3] {
    let heat = dfs
        .file_stats(file)
        .map_or(0.0, |s| s.heat_value(now, dfs.heat_config()));
    let band = bands.effective(dfs, file, now);
    [band.rank(), encode_f64(heat), file.raw()]
}

/// The exhaustive watermark shard scan: band membership and heat are
/// frozen within one run, so each shard classifies its residents once and
/// the ascending (band, heat, id) merge is the serial victim sequence.
/// Hot-band files never become candidates.
fn watermark_scan_phases(
    bands: &BandTracker,
    window: usize,
    pool: &EpochPool,
    dfs: &TieredDfs,
    tier: StorageTier,
    now: SimTime,
    select: impl Fn(&TieredDfs, FileId, [u64; 3]) -> [u64; 3] + Sync,
) -> Vec<PhasePlan> {
    let shards = pool.scan_shards(dfs, |v| {
        let dfs = v.dfs();
        ScanBatch::sorted(
            v.files_on_tier(tier)
                .filter(|f| dfs.is_movable(*f) && bands.effective(dfs, *f, now) != Band::Hot)
                .map(|f| {
                    let order = eviction_key(bands, dfs, f, now);
                    Candidate {
                        order,
                        select: select(dfs, f, order),
                        file: f,
                    }
                })
                .collect(),
        )
    });
    vec![PhasePlan { window, shards }]
}

/// Watermark downgrade: evict cold-band files coldest-first; warm files
/// follow; hot files are exempt.
#[derive(Debug, Clone)]
pub struct WatermarkDowngrade {
    cfg: TieringConfig,
    bands: BandTracker,
}

impl WatermarkDowngrade {
    /// Watermark eviction with the config's thresholds and hysteresis.
    pub fn new(cfg: TieringConfig) -> Self {
        let bands = BandTracker::new(Watermarks::from_config(&cfg));
        WatermarkDowngrade { cfg, bands }
    }
}

impl DowngradePolicy for WatermarkDowngrade {
    fn name(&self) -> &'static str {
        "watermark"
    }

    fn start_downgrade(&mut self, dfs: &TieredDfs, tier: StorageTier, _now: SimTime) -> bool {
        effective_utilization(dfs, tier) > self.cfg.start_threshold
    }

    fn select_file(
        &mut self,
        dfs: &TieredDfs,
        tier: StorageTier,
        now: SimTime,
        skip: &BTreeSet<FileId>,
    ) -> Option<FileId> {
        // Band/heat order is unrelated to any maintained index order, so
        // this is a lazy scan over the resident set — no candidate Vec.
        dfs.files_on_tier(tier)
            .filter(|f| {
                !skip.contains(f)
                    && dfs.is_movable(*f)
                    && self.bands.effective(dfs, *f, now) != Band::Hot
            })
            .min_by_key(|f| eviction_key(&self.bands, dfs, *f, now))
    }

    fn stop_downgrade(&mut self, dfs: &TieredDfs, tier: StorageTier, _now: SimTime) -> bool {
        effective_utilization(dfs, tier) < self.cfg.stop_threshold
    }

    fn scan_phases(
        &self,
        pool: &EpochPool,
        dfs: &TieredDfs,
        tier: StorageTier,
        now: SimTime,
    ) -> Option<Vec<PhasePlan>> {
        Some(watermark_scan_phases(
            &self.bands,
            1,
            pool,
            dfs,
            tier,
            now,
            |_, _, order| order,
        ))
    }

    fn on_file_created(&mut self, dfs: &TieredDfs, file: FileId, _now: SimTime) {
        self.bands.on_created(dfs, file);
    }

    fn on_file_accessed(&mut self, dfs: &TieredDfs, file: FileId, _now: SimTime) {
        self.bands.on_accessed(dfs, file);
    }

    fn on_file_deleted(&mut self, file: FileId, _now: SimTime) {
        self.bands.on_deleted(file);
    }
}

/// Watermark upgrade: the accessed file moves to memory while it is in
/// the hot band (one file per access, like OSA).
#[derive(Debug, Clone)]
pub struct WatermarkUpgrade {
    bands: BandTracker,
}

impl WatermarkUpgrade {
    /// Watermark admission with the config's thresholds and hysteresis.
    pub fn new(cfg: TieringConfig) -> Self {
        WatermarkUpgrade {
            bands: BandTracker::new(Watermarks::from_config(&cfg)),
        }
    }
}

impl UpgradePolicy for WatermarkUpgrade {
    fn name(&self) -> &'static str {
        "watermark"
    }

    fn start_upgrade(&mut self, dfs: &TieredDfs, accessed: Option<FileId>, now: SimTime) -> bool {
        accessed.is_some_and(|f| {
            dfs.is_movable(f)
                && !dfs.file_fully_on_tier(f, StorageTier::Memory)
                && self.bands.effective(dfs, f, now) == Band::Hot
        })
    }

    fn select_upgrade(
        &mut self,
        dfs: &TieredDfs,
        accessed: Option<FileId>,
        _now: SimTime,
        already: &BTreeSet<FileId>,
    ) -> Option<UpgradeChoice> {
        let f = accessed?;
        if already.contains(&f) || !dfs.is_movable(f) {
            return None;
        }
        Some(UpgradeChoice {
            file: f,
            to: StorageTier::Memory,
        })
    }

    fn stop_upgrade(
        &mut self,
        _dfs: &TieredDfs,
        _now: SimTime,
        _scheduled: ByteSize,
        _count: u32,
    ) -> bool {
        true
    }

    fn on_file_created(&mut self, dfs: &TieredDfs, file: FileId, _now: SimTime) {
        self.bands.on_created(dfs, file);
    }

    fn on_file_accessed(&mut self, dfs: &TieredDfs, file: FileId, _now: SimTime) {
        self.bands.on_accessed(dfs, file);
    }

    fn on_file_deleted(&mut self, file: FileId, _now: SimTime) {
        self.bands.on_deleted(file);
    }
}

/// Hybrid downgrade: watermark bands gate eligibility (hot exempt) and
/// order the candidate window (cold first, coldest heat first); the XGB
/// predictor then evicts the window entry least likely to be accessed.
/// Until the model activates the select order degrades to the watermark
/// order itself.
pub struct HybridDowngrade {
    cfg: TieringConfig,
    bands: BandTracker,
    predictor: AccessPredictor,
    rng: DetRng,
}

impl HybridDowngrade {
    /// Builds the policy with its 6-hour-window predictor.
    pub fn new(cfg: TieringConfig, learner: LearnerConfig, seed: u64) -> Self {
        let bands = BandTracker::new(Watermarks::from_config(&cfg));
        HybridDowngrade {
            cfg,
            bands,
            predictor: AccessPredictor::new(DOWNGRADE_WINDOW, learner),
            rng: DetRng::seed_from_u64(seed),
        }
    }

    /// The select key of one candidate: the predictor's score when the
    /// model is live (lowest access probability evicts first, watermark
    /// order breaking ties), the watermark order itself during warm-up.
    fn select_key(&self, dfs: &TieredDfs, file: FileId, order: [u64; 3], now: SimTime) -> [u64; 3] {
        if !self.predictor.learner().is_active() {
            return order;
        }
        let p = dfs
            .file_stats(file)
            .and_then(|s| self.predictor.predict(s, now))
            .unwrap_or(0.0);
        [encode_f64(p), order[0], file.raw()]
    }
}

impl DowngradePolicy for HybridDowngrade {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn start_downgrade(&mut self, dfs: &TieredDfs, tier: StorageTier, _now: SimTime) -> bool {
        effective_utilization(dfs, tier) > self.cfg.start_threshold
    }

    fn select_file(
        &mut self,
        dfs: &TieredDfs,
        tier: StorageTier,
        now: SimTime,
        skip: &BTreeSet<FileId>,
    ) -> Option<FileId> {
        // The first `xgb_candidates` non-hot residents in watermark order
        // form the window; the predictor picks within it.
        let mut candidates: Vec<([u64; 3], FileId)> = dfs
            .files_on_tier(tier)
            .filter(|f| {
                !skip.contains(f)
                    && dfs.is_movable(*f)
                    && self.bands.effective(dfs, *f, now) != Band::Hot
            })
            .map(|f| (eviction_key(&self.bands, dfs, f, now), f))
            .collect();
        candidates.sort_unstable();
        candidates.truncate(self.cfg.xgb_candidates);
        candidates
            .into_iter()
            .min_by_key(|(order, f)| self.select_key(dfs, *f, *order, now))
            .map(|(_, f)| f)
    }

    fn stop_downgrade(&mut self, dfs: &TieredDfs, tier: StorageTier, _now: SimTime) -> bool {
        effective_utilization(dfs, tier) < self.cfg.stop_threshold
    }

    fn scan_phases(
        &self,
        pool: &EpochPool,
        dfs: &TieredDfs,
        tier: StorageTier,
        now: SimTime,
    ) -> Option<Vec<PhasePlan>> {
        Some(watermark_scan_phases(
            &self.bands,
            self.cfg.xgb_candidates,
            pool,
            dfs,
            tier,
            now,
            |dfs, f, order| self.select_key(dfs, f, order, now),
        ))
    }

    fn on_file_created(&mut self, dfs: &TieredDfs, file: FileId, _now: SimTime) {
        self.bands.on_created(dfs, file);
    }

    fn on_file_accessed(&mut self, dfs: &TieredDfs, file: FileId, now: SimTime) {
        self.bands.on_accessed(dfs, file);
        if let Some(stats) = dfs.file_stats(file) {
            self.predictor.on_file_access(stats, now);
        }
    }

    fn on_file_deleted(&mut self, file: FileId, _now: SimTime) {
        self.bands.on_deleted(file);
    }

    fn on_tick(&mut self, dfs: &TieredDfs, now: SimTime) {
        sample_files(
            &mut self.predictor,
            dfs,
            now,
            self.cfg.sample_files_per_tick,
            &mut self.rng,
        );
    }
}

/// Hybrid upgrade: XGB-gated admission over the watermark bands — among
/// the most recently used candidates, admit files the model scores above
/// the discrimination threshold *and* the bands do not classify cold.
/// During model warm-up it behaves exactly like [`WatermarkUpgrade`].
pub struct HybridUpgrade {
    cfg: TieringConfig,
    bands: BandTracker,
    predictor: AccessPredictor,
    rng: DetRng,
    scores: RunScores,
}

impl HybridUpgrade {
    /// Builds the policy with its 30-minute-window predictor.
    pub fn new(cfg: TieringConfig, learner: LearnerConfig, seed: u64) -> Self {
        let bands = BandTracker::new(Watermarks::from_config(&cfg));
        HybridUpgrade {
            cfg,
            bands,
            predictor: AccessPredictor::new(UPGRADE_WINDOW, learner),
            rng: DetRng::seed_from_u64(seed),
            scores: RunScores::default(),
        }
    }
}

impl UpgradePolicy for HybridUpgrade {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn start_upgrade(&mut self, dfs: &TieredDfs, accessed: Option<FileId>, now: SimTime) -> bool {
        if self.predictor.learner().is_active() {
            true // the inner loop scans candidates either way
        } else {
            // Warm-up fallback: watermark admission.
            accessed.is_some_and(|f| {
                dfs.is_movable(f)
                    && !dfs.file_fully_on_tier(f, StorageTier::Memory)
                    && self.bands.effective(dfs, f, now) == Band::Hot
            })
        }
    }

    fn select_upgrade(
        &mut self,
        dfs: &TieredDfs,
        accessed: Option<FileId>,
        now: SimTime,
        already: &BTreeSet<FileId>,
    ) -> Option<UpgradeChoice> {
        self.scores.begin(already);
        if !self.predictor.learner().is_active() {
            // Watermark fallback during warm-up.
            let f = accessed?;
            if already.contains(&f)
                || !dfs.is_movable(f)
                || dfs.file_fully_on_tier(f, StorageTier::Memory)
            {
                return None;
            }
            return Some(UpgradeChoice {
                file: f,
                to: StorageTier::Memory,
            });
        }
        // Highest-probability MRU candidate over the threshold that the
        // bands do not veto as cold.
        let mut best: Option<(FileId, f64)> = None;
        let candidates = dfs
            .mru_recency_iter()
            .map(|(_, f)| f)
            .filter(|f| {
                !already.contains(f)
                    && dfs.is_movable(*f)
                    && !dfs.file_fully_on_tier(*f, StorageTier::Memory)
            })
            .take(self.cfg.xgb_candidates);
        for f in candidates {
            if self.bands.effective(dfs, f, now) == Band::Cold {
                continue;
            }
            let Some(p) = self.scores.score(&self.predictor, dfs, f, now) else {
                continue;
            };
            if p <= self.cfg.xgb_threshold {
                continue;
            }
            if best.as_ref().is_none_or(|(_, bp)| p > *bp) {
                best = Some((f, p));
            }
        }
        best.map(|(file, _)| UpgradeChoice {
            file,
            to: StorageTier::Memory,
        })
    }

    fn stop_upgrade(
        &mut self,
        _dfs: &TieredDfs,
        _now: SimTime,
        scheduled: ByteSize,
        count: u32,
    ) -> bool {
        if !self.predictor.learner().is_active() {
            return true; // watermark fallback: one file per access
        }
        scheduled >= self.cfg.xgb_upgrade_limit || count >= 64
    }

    fn on_file_created(&mut self, dfs: &TieredDfs, file: FileId, _now: SimTime) {
        self.bands.on_created(dfs, file);
    }

    fn on_file_accessed(&mut self, dfs: &TieredDfs, file: FileId, now: SimTime) {
        self.bands.on_accessed(dfs, file);
        if let Some(stats) = dfs.file_stats(file) {
            self.predictor.on_file_access(stats, now);
        }
    }

    fn on_file_deleted(&mut self, file: FileId, _now: SimTime) {
        self.bands.on_deleted(file);
    }

    fn on_tick(&mut self, dfs: &TieredDfs, now: SimTime) {
        sample_files(
            &mut self.predictor,
            dfs,
            now,
            self.cfg.sample_files_per_tick,
            &mut self.rng,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marks() -> Watermarks {
        Watermarks::from_config(&TieringConfig::default())
    }

    #[test]
    fn default_watermarks_are_ordered() {
        let m = marks();
        assert!(m.hot_exit < m.hot_enter);
        assert!(m.cold_exit < m.cold_enter);
        assert!(m.cold_enter < m.hot_exit, "bands must not overlap");
    }

    #[test]
    fn entry_classifies_by_enter_thresholds() {
        let m = marks();
        assert_eq!(m.entry(5.0), Band::Hot);
        assert_eq!(m.entry(m.hot_enter), Band::Hot);
        assert_eq!(m.entry(1.0), Band::Warm);
        assert_eq!(m.entry(m.cold_enter), Band::Cold);
        assert_eq!(m.entry(0.0), Band::Cold);
    }

    #[test]
    fn settle_applies_hysteresis() {
        let m = marks();
        // A hot file stays hot down to hot_exit, then drops to warm.
        assert_eq!(m.settle(Band::Hot, m.hot_exit), Band::Hot);
        assert_eq!(m.settle(Band::Hot, m.hot_exit - 1e-9), Band::Warm);
        // Between entry and exit a warm file holds its band.
        assert_eq!(m.settle(Band::Warm, m.cold_exit), Band::Warm);
        assert_eq!(m.settle(Band::Warm, m.cold_exit - 1e-9), Band::Cold);
        // A hot file decayed to nothing falls straight through to cold.
        assert_eq!(m.settle(Band::Hot, 0.0), Band::Cold);
        // Settle never promotes.
        assert_eq!(m.settle(Band::Cold, 100.0), Band::Cold);
    }

    #[test]
    fn hysteresis_zero_collapses_exit_onto_enter() {
        let cfg = TieringConfig {
            watermark_hysteresis: 0.0,
            ..TieringConfig::default()
        };
        let m = Watermarks::from_config(&cfg);
        assert_eq!(m.hot_exit, m.hot_enter);
        assert_eq!(m.cold_exit, m.cold_enter);
    }
}
