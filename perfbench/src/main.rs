//! End-to-end and per-layer benchmark of the tiered-storage stack.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Runs one workload through the public APIs of the workspace crates,
//! checks the program's outputs, and prints a readable summary followed by
//! one JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics (from a separate traced pass) with `--trace 1`. `NOTES.md`
//! describes every workload and metric.

mod fb;
mod stats;
mod trace;
mod tree;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
    ("byte_hit_ratio", "ratio"),
];

/// Per-layer metrics from the traced run. A layer a workload never calls
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("self.workload_s", "s"),
    ("self.cluster_s", "s"),
    ("self.dfs_s", "s"),
    ("self.policies_s", "s"),
    ("self.backend_s", "s"),
    ("self.octoctl_s", "s"),
    ("workload.generate_ms", "ms"),
    ("cluster.new_ms", "ms"),
    ("cluster.run_s", "s"),
    ("cluster.tasks", "count"),
    ("cluster.sim_mean_job_s", "s"),
    ("cluster.sim_p99_read_s", "s"),
    ("ablation.octopusfs_s", "s"),
    ("ablation.lru_osa_s", "s"),
    ("ablation.xgb_xgb_s", "s"),
    ("ablation.learner_share", "ratio"),
    ("dfs.moved_gb", "GB"),
    ("policies.moved_per_read", "ratio"),
    ("policies.plan_ms", "ms"),
    ("backend.open_ms", "ms"),
    ("backend.record_us_p50", "us"),
    ("backend.record_us_tail", "us"),
    ("backend.sidecar_bytes_per_record", "bytes"),
    ("backend.list_files_ms", "ms"),
    ("backend.tier_status_ms", "ms"),
    ("backend.copy_mb_per_s", "MB/s"),
    ("backend.verify_mb_per_s", "MB/s"),
    ("backend.delete_us", "us"),
    ("octoctl.execute_s", "s"),
    ("octoctl.moves", "count"),
    ("octoctl.bytes_moved_mb", "MB"),
    ("octoctl.skipped", "count"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["fb-xgb", "octoctl-tree"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced mode writes spans and the tree workload keeps its
    /// directories (inside the working directory).
    pub out_dir: PathBuf,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (jobs, accesses, moves, records).
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Metric values by name (end-to-end or per-layer, by mode).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Self time per layer: a span's layer is its name up to the first `.`.
pub fn layer_self_times(out: &mut Outcome, aggs: &BTreeMap<&'static str, trace::Agg>) {
    for &(name, _) in PER_LAYER {
        if let Some(layer) = name
            .strip_prefix("self.")
            .and_then(|n| n.strip_suffix("_s"))
        {
            let ns: u64 = aggs
                .iter()
                .filter(|(span, _)| span.split('.').next() == Some(layer))
                .map(|(_, a)| a.self_ns)
                .sum();
            out.set(name, ns as f64 * 1e-9);
        }
    }
    out.set(
        "trace.spans",
        aggs.values().map(|a| a.count).sum::<u64>() as f64,
    );
}

/// Writes the traced run's spans under the output directory.
pub fn write_spans(args: &Args, spans: &[trace::Span]) -> Result<(), String> {
    let path = args.out_dir.join(format!("{}.spans.tsv", args.workload));
    let run_id = format!(
        "{}-seed{}-pid{}-{}",
        args.workload,
        args.seed,
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0)
    );
    trace::write_tsv(&path, &run_id, spans).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn peak_rss_mb() -> f64 {
    octo_experiments::scale::peak_rss_kb() as f64 / 1024.0
}

/// Seconds this thread has spent on a CPU (`CLOCK_THREAD_CPUTIME_ID`):
/// wall time minus the time it waited, for a device flush or for a core.
/// Unlike `/proc/thread-self/schedstat`, which the kernel brings up to date
/// only at a tick or a context switch, the clock includes the current slice.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 36.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(".perfbench-out"),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match args.workload.as_str() {
        "fb-xgb" => fb::run(&args),
        "octoctl-tree" => tree::run(&args),
        _ => unreachable!("workload validated in parse_args"),
    };
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut missing = Vec::new();
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            // A layer the workload never reaches did no work.
            None if args.trace => 0.0,
            None => {
                missing.push(name);
                continue;
            }
        };
        if !value.is_finite() {
            missing.push(name);
            continue;
        }
        println!("{:<34} {:>18.6} {unit}", name, value);
        fields.push(format!(
            r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#
        ));
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    for m in &missing {
        eprintln!("perfbench: metric {m} missing or not finite");
    }
    let correct = out.errors.is_empty() && missing.is_empty() && out.attempted > 0;
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
