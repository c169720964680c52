//! `octoctl-tree`: the `octoctl daemon` cycle over a real directory tree.
//!
//! A tree of 64 KiB files is seeded across the three tier roots of an
//! `FsBackend` under `.perfbench-out/tree` in the working directory, on a
//! private tmpfs that `run.py` mounts there. Each cycle an application
//! step reads a skewed batch of files through `record_read` (the hot set
//! shifts every cycle) and either writes a burst of files onto the memory
//! tier (even cycles: the files the last odd cycle deleted, rewritten) or
//! deletes a burst of memory-resident files (odd cycles); then the daemon's
//! calls run: `plan_moves` and an unpaced `octoctl::execute_plan`. Even cycles therefore drain the memory tier and
//! odd cycles promote hot files into it. After every cycle each live file
//! must have exactly one copy, byte-identical to its seeded payload.

use crate::{peak_rss_mb, stats, thread_cpu_s, trace, Args, Outcome};
use octo_backend_fs::{FsBackend, FsBackendConfig};
use octo_common::{ByteSize, DetRng, PerTier, Result, SimTime, StorageTier, ZipfSampler};
use octo_dfs::backend::{FileRecord, StorageBackend, TierStatus};
use octo_policies::{plan_moves, PlannerConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::time::Instant;

const FILE_BYTES: usize = 64 * 1024;
/// Files in the seeded tree (128 MiB of payload).
const FILES: u64 = 2_000;
/// Tier capacities in files: memory holds a quarter of the tree.
const CAP_FILES: [u64; 3] = [500, 1_200, 4_000];
/// Seeded placement in files: memory starts at 84% (between the stop and
/// start thresholds), the SSD at 50%, the rest on HDD.
const SEED_FILES: [u64; 2] = [420, 600];
/// Files written to (even cycles) or deleted from (odd cycles) memory. An
/// even cycle rewrites the files the odd cycle before it deleted (the
/// first one writes `BURST` new files), so the run's set of paths stops
/// growing after the first cycle. So does the access-stats sidecar, which
/// keeps an entry for every path ever read, once the hot window has walked
/// the whole tree (~60 cycles); from then on a cycle costs the same however
/// long the run.
const BURST: usize = 32;
/// Recorded reads per cycle; most go to a Zipf-skewed hot window that
/// moves `SHIFT` files along the live list every cycle. Each read rewrites
/// the sidecar through a fresh temp file, so reads are most of the
/// workload's file creation.
const READS: usize = 100;
const HOT: usize = 64;
const SHIFT: usize = 32;
/// Logical time between cycles (one heat half-life).
const CYCLE_MS: u64 = 3_600_000;
/// A step is a pair of cycles, one draining memory and one promoting into
/// it, so every step does both. After every `OPEN_EVERY`-th step the
/// daemon's start-up runs: `FsBackend::open` on the tree with the sidecar
/// recorded so far. Its median on-CPU time is `setup_s`; spread over the
/// run, the opens sample the host over the whole run rather than one
/// moment of it. Seeding the tree is the benchmark's input generation, not
/// the program's work, and is not timed.
const STEP_CYCLES: usize = 2;
const OPEN_EVERY: usize = 4;
/// Mean seconds of one step (its reads, daemon cycles and opens; the
/// untimed checks come on top) measured over 92-step runs on a 2-core x86
/// host; a run drives `--seconds / NOMINAL_STEP_S` steps, at least
/// `MIN_STEPS`. The count depends on the arguments alone, so every run of
/// a seed plans the same moves.
const NOMINAL_STEP_S: f64 = 0.26;
const MIN_STEPS: usize = 12;

/// The payload of file number `id`: SplitMix64 words from `(seed, id)`.
fn payload(seed: u64, id: u64) -> Vec<u8> {
    let mut z = seed ^ id.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut out = Vec::with_capacity(FILE_BYTES);
    while out.len() < FILE_BYTES {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.extend_from_slice(&(x ^ (x >> 31)).to_le_bytes());
    }
    out
}

fn rel_path(id: u64) -> String {
    format!("d{:02}/f{id:06}.dat", id % 16)
}

fn io<T>(what: &str, path: &Path, r: std::io::Result<T>) -> std::result::Result<T, String> {
    r.map_err(|e| format!("{what} {}: {e}", path.display()))
}

/// The tree under test: the backend plus the application's view of which
/// files are live.
struct Tree {
    seed: u64,
    cfg: FsBackendConfig,
    backend: FsBackend,
    /// Live file ids in the order the hot window walks them.
    live: Vec<u64>,
    /// Ids the last odd cycle deleted, which the next even cycle rewrites.
    deleted: Vec<u64>,
    next_id: u64,
    rng: DetRng,
}

impl Tree {
    /// Seeds a fresh tree under `base` (which must be empty or absent) and
    /// opens the backend on it.
    fn seed(base: &Path, seed: u64) -> std::result::Result<Tree, String> {
        let cap = |files: u64| ByteSize::from_bytes(files * FILE_BYTES as u64);
        let cfg = FsBackendConfig::under(base, PerTier::from_fn(|t| cap(CAP_FILES[t.index()])));
        let mut rng = DetRng::seed_from_u64(seed ^ 0x7AEE);
        let mut live: Vec<u64> = (0..FILES).collect();
        // Fisher-Yates: a seeded placement and hot-window order.
        for i in (1..live.len()).rev() {
            live.swap(i, rng.index(i + 1));
        }
        for (n, &id) in live.iter().enumerate() {
            let tier = match n as u64 {
                n if n < SEED_FILES[0] => StorageTier::Memory,
                n if n < SEED_FILES[0] + SEED_FILES[1] => StorageTier::Ssd,
                _ => StorageTier::Hdd,
            };
            write_file(&cfg, tier, seed, id)?;
        }
        let backend = FsBackend::open(cfg.clone()).map_err(|e| e.to_string())?;
        let tree = Tree {
            seed,
            cfg,
            backend,
            live,
            deleted: Vec::new(),
            next_id: FILES,
            rng,
        };
        tree.verify(|_| true)
            .map_err(|e| format!("seeded tree: {e}"))?;
        tree.flush()?;
        Ok(tree)
    }

    /// Reopens the backend, as the daemon does on start; returns the
    /// open's on-CPU seconds.
    fn reopen(&mut self) -> std::result::Result<f64, String> {
        let c0 = thread_cpu_s();
        let b = trace::span("backend.open", || FsBackend::open(self.cfg.clone()))
            .map_err(|e| e.to_string())?;
        let secs = thread_cpu_s() - c0;
        self.backend = b;
        Ok(secs)
    }

    fn full_path(&self, tier: StorageTier, id: u64) -> PathBuf {
        self.cfg.roots.get(tier).join(rel_path(id))
    }

    /// The application's writes and deletes of cycle `c`.
    fn churn(&mut self, c: usize) -> std::result::Result<(), String> {
        if c.is_multiple_of(2) {
            let mut ids = std::mem::take(&mut self.deleted);
            while ids.len() < BURST {
                ids.push(self.next_id);
                self.next_id += 1;
            }
            for id in ids {
                write_file(&self.cfg, StorageTier::Memory, self.seed, id)?;
                self.live.push(id);
            }
        } else {
            // Delete the oldest memory-resident files.
            let mut keep = Vec::with_capacity(self.live.len());
            for &id in &self.live {
                let p = self.full_path(StorageTier::Memory, id);
                if self.deleted.len() < BURST && p.is_file() {
                    io("deleting", &p, std::fs::remove_file(&p))?;
                    self.deleted.push(id);
                } else {
                    keep.push(id);
                }
            }
            self.live = keep;
        }
        Ok(())
    }

    /// Makes the seeded payloads durable, so their write-back does not land
    /// inside the measured cycles (untimed; deleted trees never flush).
    fn flush(&self) -> std::result::Result<(), String> {
        for &id in &self.live {
            for tier in StorageTier::ALL {
                let p = self.full_path(tier, id);
                if p.is_file() {
                    let f = io("opening", &p, std::fs::File::open(&p))?;
                    io("syncing", &p, f.sync_all())?;
                }
            }
        }
        Ok(())
    }

    /// Checks every live file has exactly one copy, no temp file is left
    /// behind and nothing else is in the tier roots; and that each file
    /// `content` selects holds its payload.
    fn verify(&self, content: impl Fn(&str) -> bool) -> std::result::Result<(), String> {
        let mut found: BTreeMap<String, usize> = BTreeMap::new();
        for tier in StorageTier::ALL {
            let root = self.cfg.roots.get(tier);
            for dir in io("listing", root, std::fs::read_dir(root))? {
                let dir = io("listing", root, dir)?.path();
                for f in io("listing", &dir, std::fs::read_dir(&dir))? {
                    let name = io("listing", &dir, f)?.file_name();
                    let name = name.to_string_lossy();
                    if name.starts_with(".octo-tmp.") {
                        return Err(format!("temp file {} left in {}", name, dir.display()));
                    }
                    let d = dir.file_name().map(|d| d.to_string_lossy().into_owned());
                    *found
                        .entry(format!("{}/{name}", d.unwrap_or_default()))
                        .or_default() += 1;
                }
            }
        }
        if found.len() != self.live.len() || found.values().any(|&n| n != 1) {
            let extra = found.values().filter(|&&n| n != 1).count();
            return Err(format!(
                "{} paths on disk ({extra} with other than one copy) for {} live files",
                found.len(),
                self.live.len()
            ));
        }
        for &id in self.live.iter().filter(|&&id| content(&rel_path(id))) {
            let tier = StorageTier::ALL
                .into_iter()
                .find(|&t| self.full_path(t, id).is_file())
                .ok_or_else(|| format!("{} has no copy", rel_path(id)))?;
            let p = self.full_path(tier, id);
            if io("reading", &p, std::fs::read(&p))? != payload(self.seed, id) {
                return Err(format!(
                    "{} on {tier} differs from its payload",
                    rel_path(id)
                ));
            }
        }
        Ok(())
    }
}

/// Empties `base`, keeping the directory itself: `run.py` may have mounted
/// a tmpfs on it.
fn clear_tree(base: &Path) -> std::result::Result<(), String> {
    if !base.exists() {
        return Ok(());
    }
    for entry in io("clearing", base, std::fs::read_dir(base))? {
        let path = io("clearing", base, entry)?.path();
        if path.is_dir() {
            io("clearing", &path, std::fs::remove_dir_all(&path))?;
        } else {
            io("clearing", &path, std::fs::remove_file(&path))?;
        }
    }
    Ok(())
}

fn write_file(
    cfg: &FsBackendConfig,
    tier: StorageTier,
    seed: u64,
    id: u64,
) -> std::result::Result<(), String> {
    let p = cfg.roots.get(tier).join(rel_path(id));
    if let Some(dir) = p.parent() {
        io("creating", dir, std::fs::create_dir_all(dir))?;
    }
    io("writing", &p, std::fs::write(&p, payload(seed, id)))
}

/// A forwarding backend that records a span around each trait call.
struct Traced<'a>(&'a mut FsBackend);

impl StorageBackend for Traced<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn clock(&self) -> SimTime {
        self.0.clock()
    }
    fn list_files(&self) -> Result<Vec<FileRecord>> {
        trace::span("backend.list_files", || self.0.list_files())
    }
    fn tier_status(&self, tier: StorageTier) -> Result<TierStatus> {
        trace::span("backend.tier_status", || self.0.tier_status(tier))
    }
    fn copy_file(&mut self, path: &str, from: StorageTier, to: StorageTier) -> Result<ByteSize> {
        trace::span("backend.copy_file", || self.0.copy_file(path, from, to))
    }
    fn verify_copy(&self, path: &str, from: StorageTier, to: StorageTier) -> Result<ByteSize> {
        trace::span("backend.verify_copy", || self.0.verify_copy(path, from, to))
    }
    fn delete_replica(&mut self, path: &str, tier: StorageTier) -> Result<()> {
        trace::span("backend.delete_replica", || {
            self.0.delete_replica(path, tier)
        })
    }
    fn record_read(&mut self, path: &str, now: SimTime) -> Result<()> {
        trace::span("backend.record_read", || self.0.record_read(path, now))
    }
}

/// What one pass of cycles measured.
#[derive(Debug, Default)]
struct Pass {
    /// Wall and on-CPU time of each daemon cycle (plan + execute).
    cycle_ms: Vec<f64>,
    cycle_cpu_ms: Vec<f64>,
    record_us: Vec<f64>,
    /// On-CPU time of each `FsBackend::open` between steps.
    open_s: Vec<f64>,
    /// On-CPU time inside `execute_plan`.
    exec_cpu_s: f64,
    moves: u64,
    skipped: u64,
    bytes_moved: u64,
    /// Reads, and reads of files with a memory copy at the time.
    reads: u64,
    hits: u64,
    /// Sidecar bytes the reads wrote (each read rewrites the whole file).
    sidecar_bytes: u64,
    /// FNV-1a over every plan's JSON: two passes must plan identically.
    plan_digest: u64,
    attempted: u64,
    failed: u64,
}

impl Pass {
    fn secs(&self) -> f64 {
        (self.cycle_ms.iter().sum::<f64>() + self.record_us.iter().sum::<f64>() * 1e-3) * 1e-3
    }
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs `steps` steps of `STEP_CYCLES` cycles, routing the calls into the
/// backend through [`Traced`] (plain calls unless tracing is on).
fn pass(t: &mut Tree, steps: usize, out: &mut Outcome) -> std::result::Result<Pass, String> {
    let mut p = Pass {
        plan_digest: 0xcbf2_9ce4_8422_2325,
        ..Pass::default()
    };
    let planner = PlannerConfig::default();
    let never = AtomicBool::new(false);
    let zipf = ZipfSampler::new(HOT, 1.0);
    let sidecar = t.cfg.sidecar_path();
    for c in 0..steps * STEP_CYCLES {
        // The application: a skewed read batch, then its writes/deletes.
        let base = (c * SHIFT) % t.live.len();
        for k in 0..READS {
            let id = if t.rng.chance(0.8) {
                t.live[(base + zipf.sample(&mut t.rng)) % t.live.len()]
            } else {
                t.live[t.rng.index(t.live.len())]
            };
            let path = rel_path(id);
            let now = SimTime::from_millis(c as u64 * CYCLE_MS + k as u64 * 100 + 1);
            let hit = t.full_path(StorageTier::Memory, id).is_file();
            let t0 = Instant::now();
            let r = Traced(&mut t.backend).record_read(&path, now);
            p.record_us.push(t0.elapsed().as_secs_f64() * 1e6);
            p.attempted += 1;
            if let Err(e) = r {
                eprintln!("perfbench: record_read {path}: {e}");
                p.failed += 1;
            }
            p.reads += 1;
            p.hits += u64::from(hit);
            // Each record rewrites the whole sidecar.
            p.sidecar_bytes += std::fs::metadata(&sidecar).map_or(0, |m| m.len());
        }
        t.churn(c)?;

        // The daemon cycle: plan, then execute unpaced. Between the two,
        // untimed, a replan of the unchanged tree must render the same JSON.
        let t0 = Instant::now();
        let c0 = thread_cpu_s();
        let plan = trace::span("policies.plan", || {
            plan_moves(&Traced(&mut t.backend), &planner)
        })
        .map_err(|e| e.to_string())?;
        let plan_s = t0.elapsed().as_secs_f64();
        let plan_cpu = thread_cpu_s() - c0;
        let replan = plan_moves(&t.backend, &planner).map_err(|e| e.to_string())?;
        out.check(plan.to_json() == replan.to_json(), || {
            format!("two plans of the unchanged tree differ in cycle {c}")
        });
        let t1 = Instant::now();
        let c1 = thread_cpu_s();
        let report = trace::span("octoctl.execute", || {
            octoctl::execute_plan(&mut Traced(&mut t.backend), &plan, &never)
        });
        let exec_cpu = thread_cpu_s() - c1;
        let exec_s = t1.elapsed().as_secs_f64();
        p.cycle_ms.push((plan_s + exec_s) * 1e3);
        p.cycle_cpu_ms.push((plan_cpu + exec_cpu) * 1e3);
        p.exec_cpu_s += exec_cpu;

        p.attempted += plan.moves.len() as u64;
        let done = report.moved + report.skipped;
        p.failed += (report.skipped + plan.moves.len() - done) as u64;
        p.moves += report.moved as u64;
        p.skipped += report.skipped as u64;
        p.bytes_moved += report.bytes_moved;
        p.plan_digest = fnv1a(p.plan_digest, plan.to_json().as_bytes());
        for o in report.outcomes.iter().filter(|o| o.status != "moved") {
            eprintln!("perfbench: move {} {}: {}", o.path, o.status, o.detail);
        }
        out.check(!report.interrupted, || format!("cycle {c} was interrupted"));

        // Untimed: one copy of every live file, and the payload of every
        // file this cycle moved (the others are checked after the pass).
        let moved: std::collections::HashSet<&str> =
            report.outcomes.iter().map(|o| o.path.as_str()).collect();
        if let Err(e) = t.verify(|path| moved.contains(path)) {
            out.check(false, || format!("after cycle {c}: {e}"));
            return Ok(p);
        }
        if c % (STEP_CYCLES * OPEN_EVERY) == STEP_CYCLES * OPEN_EVERY - 1 {
            p.open_s.push(t.reopen()?);
        }
    }
    if let Err(e) = t.verify(|_| true) {
        out.check(false, || format!("after the last cycle: {e}"));
    }
    Ok(p)
}

pub fn run(args: &Args) -> std::result::Result<Outcome, String> {
    let mut out = Outcome::default();
    // `run.py` mounts a private tmpfs here when the host allows it.
    let base = args.out_dir.join("tree");
    let result = run_in(args, &base, &mut out);
    clear_tree(&base)?;
    result.map(|()| out)
}

fn run_in(args: &Args, base: &Path, out: &mut Outcome) -> std::result::Result<(), String> {
    clear_tree(base)?;
    let mut t = Tree::seed(base, args.seed)?;
    let steps = ((args.seconds / NOMINAL_STEP_S).round() as usize).max(MIN_STEPS);
    let p = pass(&mut t, steps, out)?;
    out.attempted += p.attempted;
    out.failed += p.failed;

    if args.trace {
        drop(t);
        clear_tree(base)?;
        trace::start();
        let mut t = Tree::seed(base, args.seed)?;
        let q = pass(&mut t, steps, out)?;
        let spans = trace::finish();
        out.attempted += q.attempted;
        out.failed += q.failed;
        out.check(q.plan_digest == p.plan_digest, || {
            "the traced pass planned other moves".into()
        });
        let aggs = trace::aggregate(&spans);
        crate::layer_self_times(out, &aggs);
        crate::write_spans(args, &spans)?;
        let agg = |name: &str| aggs.get(name).cloned().unwrap_or_default();
        let bytes = q.bytes_moved as f64;
        let copy = agg("backend.copy_file");
        let verify = agg("backend.verify_copy");
        out.set("trace.overhead_s", q.secs() - p.secs());
        out.set("policies.plan_ms", agg("policies.plan").p50_ns() * 1e-6);
        out.set("backend.open_ms", agg("backend.open").p50_ns() * 1e-6);
        out.set("backend.record_us_p50", stats::median(&q.record_us));
        out.set("backend.record_us_tail", stats::tail(&q.record_us).1);
        out.set(
            "backend.sidecar_bytes_per_record",
            q.sidecar_bytes as f64 / q.reads.max(1) as f64,
        );
        out.set(
            "backend.list_files_ms",
            agg("backend.list_files").p50_ns() * 1e-6,
        );
        out.set(
            "backend.tier_status_ms",
            agg("backend.tier_status").p50_ns() * 1e-6,
        );
        out.set(
            "backend.copy_mb_per_s",
            bytes / 1e6 / copy.total_s().max(1e-12),
        );
        out.set(
            "backend.verify_mb_per_s",
            bytes / 1e6 / verify.total_s().max(1e-12),
        );
        out.set(
            "backend.delete_us",
            agg("backend.delete_replica").p50_ns() * 1e-3,
        );
        out.set("octoctl.execute_s", agg("octoctl.execute").p50_ns() * 1e-9);
        out.set("octoctl.moves", q.moves as f64);
        out.set("octoctl.bytes_moved_mb", bytes / 1e6);
        out.set("octoctl.skipped", q.skipped as f64);
        out.set(
            "policies.moved_per_read",
            q.bytes_moved as f64 / (q.reads * FILE_BYTES as u64).max(1) as f64,
        );
        return Ok(());
    }

    out.set("setup_s", stats::median(&p.open_s));
    out.set("peak_rss_mb", peak_rss_mb());
    // On-CPU time, not wall time: every copy fsyncs its temp file, and the
    // device's flush would otherwise set these numbers (see NOTES.md).
    out.set("ops_per_s", p.moves as f64 / p.exec_cpu_s.max(1e-12));
    let step_ms: Vec<f64> = p
        .cycle_cpu_ms
        .chunks_exact(STEP_CYCLES)
        .map(|c| c.iter().sum())
        .collect();
    out.set("step_p50_ms", stats::median(&step_ms));
    out.set("step_tail_ms", stats::tail(&step_ms).1);
    out.set("byte_hit_ratio", p.hits as f64 / p.reads.max(1) as f64);
    eprintln!(
        "perfbench: {} cycles in {:.1} s, wall p50 {:.3} ms, {} moves ({} skipped), \
         record p50 {:.1} us, plan digest {:#x}",
        p.cycle_ms.len(),
        p.secs(),
        stats::median(&p.cycle_ms),
        p.moves,
        p.skipped,
        stats::median(&p.record_us),
        p.plan_digest
    );
    Ok(())
}
