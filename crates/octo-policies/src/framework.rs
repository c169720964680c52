//! The pluggable policy framework (paper §3.2, Algorithms 1 and 2).
//!
//! A policy answers the four decision points:
//!
//! 1. *when to start* the downgrade/upgrade process,
//! 2. *which file* to move,
//! 3. *how/where* to move it (target tier — node selection is delegated to
//!    the multi-objective placement policy, §5.3/§6.3),
//! 4. *when to stop* the process.
//!
//! plus lifecycle callbacks (file created / accessed / deleted, periodic
//! tick) through which stateful policies maintain weights or train models.
//!
//! [`TieringEngine`] is the Replication Manager's orchestration loop: it
//! runs Algorithm 1 and Algorithm 2 against a [`TieredDfs`], producing the
//! [`TransferId`]s whose I/O the cluster layer then simulates.

use crate::parallel::{PhasePlan, ScanBatch};
use octo_common::{ByteSize, FileId, SimDuration, SimTime, StorageTier};
use octo_dfs::{DowngradeTarget, EpochPool, TieredDfs, TransferId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Tunable thresholds shared by the built-in policies (paper defaults).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TieringConfig {
    /// Downgrading from a tier starts above this utilization (§5.1, 90%).
    pub start_threshold: f64,
    /// ... and stops below this utilization (§5.4, 85%).
    pub stop_threshold: f64,
    /// LRFU half-life `H` (Formula 1; §5.2, 6 hours).
    pub lrfu_half_life: SimDuration,
    /// LRFU upgrade weight threshold (§6.1, empirically 3).
    pub lrfu_upgrade_threshold: f64,
    /// EXD decay constant α per millisecond (§5.2; 1.16e-8 following Big
    /// SQL — interpreted per-ms, giving a ≈16.6 h half-life).
    pub exd_alpha: f64,
    /// LIFE / LFU-F old-file window (§5.2, e.g. 9 hours).
    pub pacman_window: SimDuration,
    /// How many LRU/MRU candidates the XGB policies score (§5.2/§6.1, 200).
    pub xgb_candidates: usize,
    /// XGB discrimination threshold (§6.1, 0.5).
    pub xgb_threshold: f64,
    /// XGB upgrade batch byte limit (§6.4, 1 GB).
    pub xgb_upgrade_limit: ByteSize,
    /// How many files the periodic tick samples for training data (§4.2).
    pub sample_files_per_tick: usize,
    /// Watermark family: heat at or above which a file *enters* the hot
    /// band (upgrade-eligible, downgrade-exempt).
    pub watermark_hot: f64,
    /// Watermark family: heat at or below which a file *enters* the cold
    /// band (first in the eviction order).
    pub watermark_cold: f64,
    /// Watermark family: relative width of the hysteresis bands. A file
    /// leaves a band only after its heat drops below `enter × (1 − h)`, so
    /// scores oscillating around a threshold do not thrash tiers.
    pub watermark_hysteresis: f64,
}

impl Default for TieringConfig {
    fn default() -> Self {
        TieringConfig {
            start_threshold: 0.90,
            stop_threshold: 0.85,
            lrfu_half_life: SimDuration::from_hours(6),
            lrfu_upgrade_threshold: 3.0,
            exd_alpha: 1.16e-8,
            pacman_window: SimDuration::from_hours(9),
            xgb_candidates: 200,
            xgb_threshold: 0.5,
            xgb_upgrade_limit: ByteSize::gb(1),
            sample_files_per_tick: 64,
            watermark_hot: 2.0,
            watermark_cold: 0.75,
            watermark_hysteresis: 0.25,
        }
    }
}

/// Effective utilization of a tier: committed bytes minus the bytes already
/// scheduled to leave it, over capacity. Policies must use this (not the raw
/// utilization) so a planning loop observes its own progress.
///
/// O(1): both terms are counters the DFS maintains incrementally (space
/// accounting at reserve/commit time, pending bytes at transfer
/// plan/complete/cancel time). Algorithm 1 calls this after *every*
/// scheduled move, so it must not scan the namespace.
pub fn effective_utilization(dfs: &TieredDfs, tier: StorageTier) -> f64 {
    let (committed, capacity) = dfs.tier_usage(tier);
    committed
        .saturating_sub(dfs.pending_outgoing(tier))
        .fraction_of(capacity)
}

/// Bytes currently scheduled to move off or be dropped from `tier`.
/// Delegates to the DFS's incrementally-maintained counter (O(1)).
pub fn pending_outgoing(dfs: &TieredDfs, tier: StorageTier) -> ByteSize {
    dfs.pending_outgoing(tier)
}

/// Movable downgrade candidates on a tier, ascending by id: committed files
/// with a live replica on `tier`, no transfer in flight, and not in `skip`.
///
/// This is the unordered candidate *set*; recency-ordered policies should
/// prefer [`lru_candidates`], which walks the maintained index instead of
/// allocating.
pub fn downgrade_candidates(
    dfs: &TieredDfs,
    tier: StorageTier,
    skip: &BTreeSet<FileId>,
) -> Vec<FileId> {
    dfs.files_on_tier(tier)
        .filter(|f| !skip.contains(f) && dfs.is_movable(*f))
        .collect()
}

/// Movable downgrade candidates on a tier in LRU order (least recently
/// used first, ties ascending by id): a lazy range-walk over the per-tier
/// recency index. Selecting the next victim is O(log n + skipped)
/// instead of a collect-and-sort over every resident file.
pub fn lru_candidates<'a>(
    dfs: &'a TieredDfs,
    tier: StorageTier,
    skip: &'a BTreeSet<FileId>,
) -> impl Iterator<Item = FileId> + 'a {
    dfs.tier_recency_iter(tier)
        .map(|(_, f)| f)
        .filter(move |f| !skip.contains(f) && dfs.is_movable(*f))
}

/// A downgrade policy: Algorithm 1's four decision points plus callbacks.
pub trait DowngradePolicy {
    /// Short identifier used in reports ("lru", "xgb", ...).
    fn name(&self) -> &'static str;

    /// Decision point 1: should the downgrade process start for `tier`?
    fn start_downgrade(&mut self, dfs: &TieredDfs, tier: StorageTier, now: SimTime) -> bool;

    /// Decision point 2: which file to downgrade next. `skip` holds files
    /// already attempted in this run.
    fn select_file(
        &mut self,
        dfs: &TieredDfs,
        tier: StorageTier,
        now: SimTime,
        skip: &BTreeSet<FileId>,
    ) -> Option<FileId>;

    /// Decision point 3: where the replicas go (default: let the placement
    /// policy choose among lower tiers, per §5.3).
    fn select_target(
        &mut self,
        _dfs: &TieredDfs,
        _file: FileId,
        _from: StorageTier,
    ) -> DowngradeTarget {
        DowngradeTarget::Auto
    }

    /// Decision point 4: should the process stop?
    fn stop_downgrade(&mut self, dfs: &TieredDfs, tier: StorageTier, now: SimTime) -> bool;

    /// A file was created and committed.
    fn on_file_created(&mut self, _dfs: &TieredDfs, _file: FileId, _now: SimTime) {}

    /// A file was accessed (statistics already updated).
    fn on_file_accessed(&mut self, _dfs: &TieredDfs, _file: FileId, _now: SimTime) {}

    /// A file was deleted.
    fn on_file_deleted(&mut self, _file: FileId, _now: SimTime) {}

    /// Periodic housekeeping (model training data sampling etc.).
    fn on_tick(&mut self, _dfs: &TieredDfs, _now: SimTime) {}

    /// The split form of one Algorithm 1 run: read-only per-shard
    /// candidate scans fanned out over `pool`, to be consumed by the
    /// engine's order-preserving merge/commit driver (see
    /// [`crate::parallel`]). Called after [`DowngradePolicy::start_downgrade`]
    /// returned `true` and before anything is planned, so scans observe
    /// exactly the state the serial loop's first selection would.
    ///
    /// The default returns `None` — no split form — and the pooled engine
    /// falls back to the serial select loop for this policy.
    fn scan_phases(
        &self,
        _pool: &EpochPool,
        _dfs: &TieredDfs,
        _tier: StorageTier,
        _now: SimTime,
    ) -> Option<Vec<PhasePlan>> {
        None
    }

    /// Extends a budget-truncated shard scan: resumes the shard's index
    /// walk strictly after `resume` and returns up to `budget` more
    /// candidates. Only called for shards whose previous
    /// [`ScanBatch::resume`] was set, so exhaustive-scan policies never
    /// need to implement it.
    fn rescan_shard(
        &self,
        _dfs: &TieredDfs,
        _tier: StorageTier,
        _now: SimTime,
        _shard: usize,
        _resume: (SimTime, FileId),
        _budget: usize,
    ) -> ScanBatch {
        unreachable!("policy set a resume cursor without implementing rescan_shard")
    }
}

/// Algorithm 1's serial select → plan → stop loop, after the policy
/// decided to start.
fn select_loop(
    policy: &mut dyn DowngradePolicy,
    dfs: &mut TieredDfs,
    tier: StorageTier,
    now: SimTime,
) -> Vec<TransferId> {
    let mut planned = Vec::new();
    let mut skip = BTreeSet::new();
    while let Some(file) = policy.select_file(dfs, tier, now, &skip) {
        skip.insert(file);
        let target = policy.select_target(dfs, file, tier);
        if let Ok(id) = dfs.plan_downgrade(file, tier, target) {
            planned.push(id);
        }
        if policy.stop_downgrade(dfs, tier, now) {
            break;
        }
    }
    planned
}

/// An upgrade request produced by Algorithm 2's inner loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpgradeChoice {
    /// File to move up.
    pub file: FileId,
    /// Destination tier.
    pub to: StorageTier,
}

/// An upgrade policy: Algorithm 2's decision points plus callbacks.
pub trait UpgradePolicy {
    /// Short identifier used in reports ("osa", "xgb", ...).
    fn name(&self) -> &'static str;

    /// Decision point 1: should the upgrade process start? `accessed` is the
    /// file whose access triggered the invocation (absent on the periodic
    /// proactive invocation).
    fn start_upgrade(&mut self, dfs: &TieredDfs, accessed: Option<FileId>, now: SimTime) -> bool;

    /// Decision points 2+3: next file to upgrade and its target tier.
    /// `already` holds files selected earlier in this run.
    fn select_upgrade(
        &mut self,
        dfs: &TieredDfs,
        accessed: Option<FileId>,
        now: SimTime,
        already: &BTreeSet<FileId>,
    ) -> Option<UpgradeChoice>;

    /// Decision point 4: stop after `scheduled` bytes across `count` files?
    fn stop_upgrade(
        &mut self,
        dfs: &TieredDfs,
        now: SimTime,
        scheduled: ByteSize,
        count: u32,
    ) -> bool;

    /// A file was created and committed.
    fn on_file_created(&mut self, _dfs: &TieredDfs, _file: FileId, _now: SimTime) {}

    /// A file was accessed (statistics already updated).
    fn on_file_accessed(&mut self, _dfs: &TieredDfs, _file: FileId, _now: SimTime) {}

    /// A file was deleted.
    fn on_file_deleted(&mut self, _file: FileId, _now: SimTime) {}

    /// Periodic housekeeping.
    fn on_tick(&mut self, _dfs: &TieredDfs, _now: SimTime) {}
}

/// The Replication Manager's policy orchestrator.
pub struct TieringEngine {
    downgrade: Option<Box<dyn DowngradePolicy>>,
    upgrade: Option<Box<dyn UpgradePolicy>>,
}

impl TieringEngine {
    /// An engine with both processes enabled. Pass `None` to disable one
    /// (the §7.3/§7.4 isolation experiments do exactly that).
    pub fn new(
        downgrade: Option<Box<dyn DowngradePolicy>>,
        upgrade: Option<Box<dyn UpgradePolicy>>,
    ) -> Self {
        TieringEngine { downgrade, upgrade }
    }

    /// An engine with no policies: plain OctopusFS.
    pub fn disabled() -> Self {
        TieringEngine {
            downgrade: None,
            upgrade: None,
        }
    }

    /// Names of the active policies, for reports.
    pub fn describe(&self) -> String {
        format!(
            "down={} up={}",
            self.downgrade.as_ref().map_or("none", |p| p.name()),
            self.upgrade.as_ref().map_or("none", |p| p.name())
        )
    }

    /// Runs Algorithm 1 for `tier` through the policy's serial
    /// [`DowngradePolicy::select_file`] loop, returning the transfers
    /// planned.
    ///
    /// This is the reference form of Algorithm 1: the victim sequences the
    /// split engine of [`TieringEngine::run_downgrade_pooled`] must
    /// reproduce are pinned against it. It serves callers that drive
    /// select-only policies directly (`dfsio`, `examples/custom_policy.rs`).
    pub fn run_downgrade(
        &mut self,
        dfs: &mut TieredDfs,
        tier: StorageTier,
        now: SimTime,
    ) -> Vec<TransferId> {
        let Some(policy) = self.downgrade.as_mut() else {
            return Vec::new();
        };
        if !policy.start_downgrade(dfs, tier, now) {
            return Vec::new();
        }
        select_loop(&mut **policy, dfs, tier, now)
    }

    /// Runs Algorithm 1 for `tier` with the candidate scan fanned out over
    /// `pool`, returning the transfers planned.
    ///
    /// The policy's [`DowngradePolicy::scan_phases`] split runs at every
    /// width: read-only shard scans (inline, in shard order, on a
    /// one-thread pool) merged and committed serially in shard order, so
    /// each candidate is scored once per run. The victims are
    /// byte-identical to [`TieringEngine::run_downgrade`] at any thread
    /// count (the determinism tests pin this against the golden digests).
    /// A policy without a split form falls back to the serial select loop.
    pub fn run_downgrade_pooled(
        &mut self,
        dfs: &mut TieredDfs,
        tier: StorageTier,
        now: SimTime,
        pool: &EpochPool,
    ) -> Vec<TransferId> {
        let Some(policy) = self.downgrade.as_mut() else {
            return Vec::new();
        };
        if !policy.start_downgrade(dfs, tier, now) {
            return Vec::new();
        }
        match policy.scan_phases(pool, dfs, tier, now) {
            Some(phases) => {
                crate::parallel::run_merge_commit(&mut **policy, dfs, tier, now, phases)
            }
            None => select_loop(&mut **policy, dfs, tier, now),
        }
    }

    /// Runs Algorithm 2, returning the transfers planned. `accessed` is the
    /// file being read (if this invocation piggybacks on an access).
    pub fn run_upgrade(
        &mut self,
        dfs: &mut TieredDfs,
        accessed: Option<FileId>,
        now: SimTime,
    ) -> Vec<TransferId> {
        let Some(policy) = self.upgrade.as_mut() else {
            return Vec::new();
        };
        let mut planned = Vec::new();
        if !policy.start_upgrade(dfs, accessed, now) {
            return planned;
        }
        let mut already = BTreeSet::new();
        let mut scheduled = ByteSize::ZERO;
        while let Some(choice) = policy.select_upgrade(dfs, accessed, now, &already) {
            already.insert(choice.file);
            if let Ok(id) = dfs.plan_upgrade(choice.file, choice.to) {
                scheduled += dfs
                    .transfer(id)
                    .map(|t| t.bytes_moving())
                    .unwrap_or(ByteSize::ZERO);
                planned.push(id);
            }
            if policy.stop_upgrade(dfs, now, scheduled, planned.len() as u32) {
                break;
            }
        }
        planned
    }

    /// Fans a file-created event out to both policies.
    pub fn notify_created(&mut self, dfs: &TieredDfs, file: FileId, now: SimTime) {
        if let Some(p) = self.downgrade.as_mut() {
            p.on_file_created(dfs, file, now);
        }
        if let Some(p) = self.upgrade.as_mut() {
            p.on_file_created(dfs, file, now);
        }
    }

    /// Fans a file-accessed event out to both policies.
    pub fn notify_accessed(&mut self, dfs: &TieredDfs, file: FileId, now: SimTime) {
        if let Some(p) = self.downgrade.as_mut() {
            p.on_file_accessed(dfs, file, now);
        }
        if let Some(p) = self.upgrade.as_mut() {
            p.on_file_accessed(dfs, file, now);
        }
    }

    /// Fans a file-deleted event out to both policies.
    pub fn notify_deleted(&mut self, file: FileId, now: SimTime) {
        if let Some(p) = self.downgrade.as_mut() {
            p.on_file_deleted(file, now);
        }
        if let Some(p) = self.upgrade.as_mut() {
            p.on_file_deleted(file, now);
        }
    }

    /// Fans the periodic tick out to both policies.
    pub fn tick(&mut self, dfs: &TieredDfs, now: SimTime) {
        if let Some(p) = self.downgrade.as_mut() {
            p.on_tick(dfs, now);
        }
        if let Some(p) = self.upgrade.as_mut() {
            p.on_tick(dfs, now);
        }
    }

    /// Whether a downgrade policy is installed.
    pub fn has_downgrade(&self) -> bool {
        self.downgrade.is_some()
    }

    /// Whether an upgrade policy is installed.
    pub fn has_upgrade(&self) -> bool {
        self.upgrade.is_some()
    }
}
