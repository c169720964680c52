//! `fb-xgb`: the paper's FB trace at full fidelity under XGB-XGB, no
//! faults, cache off, through `ClusterSim::new` + `run`. The incremental
//! learner does nearly all the work.

use crate::{peak_rss_mb, stats, thread_cpu_s, trace, Args, Outcome};
use octo_cluster::{ClusterSim, RunReport, Scenario, SimConfig};
use octo_experiments::{report_digest, ExpSettings};
use octo_metrics::RunSummary;
use octo_workload::{generate, Trace, TraceKind, WorkloadConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A run replays `--seconds / SECONDS_PER_TRACE` independent traces (at
/// least one). The divisor is the mean replay time measured on the
/// reference host (2-core x86, see NOTES.md) over 45 traces, so a run's
/// replays take about `--seconds` there; the untimed checks come on top.
/// Traces differ by seed far more than replays of one trace differ by run,
/// so the run's metrics are taken over several traces.
const SECONDS_PER_TRACE: f64 = 6.5;

/// Rounds of a set-up batch: each batch sets up every trace of the run
/// this many times (about 40 ms at `--seconds 36`). One batch runs before
/// each replay and one after the last, so the median batch samples the
/// host over the whole run, not one moment of it.
const SETUP_ROUNDS: usize = 25;

/// The seed of a run's `i`-th trace: the run seed itself, then SplitMix64
/// draws from it, so runs with different seeds share no trace.
fn sub_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator and simulator inputs of one trace, from its seed alone.
fn inputs(seed: u64) -> (WorkloadConfig, SimConfig) {
    let s = ExpSettings::full(seed);
    (
        s.workload(TraceKind::Facebook),
        s.sim(Scenario::policy_pair("xgb", "xgb")),
    )
}

/// A finished replay: its wall time and report, or the panic message.
type Replay = Result<(f64, RunReport), String>;

/// Builds a simulator over `trace` and runs it to completion, catching a
/// panic so the caller can count it as a failed replay. The time covers
/// `run` only.
fn replay(cfg: SimConfig, trace: &Trace) -> Replay {
    let sim = trace::span("cluster.new", || ClusterSim::new(cfg, trace));
    let t1 = Instant::now();
    catch_unwind(AssertUnwindSafe(|| {
        trace::span("cluster.run", || sim.run())
    }))
    .map(|r| (t1.elapsed().as_secs_f64(), r))
    .map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into())
    })
}

/// Counts a replay's jobs against the attempts and checks every job
/// reached an outcome.
fn tally(out: &mut Outcome, trace: &Trace, r: &Replay) {
    out.attempted += trace.jobs.len() as u64;
    match r {
        Ok((_, rep)) => {
            out.failed += rep.jobs.iter().filter(|j| j.failed).count() as u64;
            out.check(rep.jobs.len() == trace.jobs.len(), || {
                format!("{} of {} jobs finished", rep.jobs.len(), trace.jobs.len())
            });
        }
        Err(msg) => {
            eprintln!("perfbench: replay panicked: {msg}");
            out.failed += trace.jobs.len() as u64;
        }
    }
}

/// Per-trace results of a run's replays. The replay rate is the median over
/// the run's traces, so a replay the machine disturbed cannot move it; the
/// simulated outcomes carry no measurement noise, only trace-to-trace
/// variation, and are means over the traces.
#[derive(Debug, Default)]
struct PerTrace {
    jobs_per_s: Vec<f64>,
    job_p50_ms: Vec<f64>,
    job_tail_ms: Vec<f64>,
    byte_hit_ratio: Vec<f64>,
}

impl PerTrace {
    fn add(&mut self, secs: f64, r: &RunReport) {
        let done: Vec<f64> = r
            .jobs
            .iter()
            .filter(|j| !j.failed)
            .map(|j| j.completion_secs() * 1e3)
            .collect();
        self.jobs_per_s.push(r.jobs.len() as f64 / secs);
        self.job_p50_ms.push(stats::median(&done));
        self.job_tail_ms.push(stats::tail(&done).1);
        self.byte_hit_ratio.push(byte_hit_ratio(r));
    }
}

/// Share of the bytes tasks read that came from the memory tier.
fn byte_hit_ratio(r: &RunReport) -> f64 {
    r.read_from_memory().as_bytes() as f64 / r.total_read().as_bytes().max(1) as f64
}

/// Sets up every trace of the run `SETUP_ROUNDS` times: generate it and
/// build its simulator. Returns the on-CPU seconds per set-up. Every round
/// must generate the same traces as the first (checked untimed).
fn setup_batch(
    inputs: &[(u64, WorkloadConfig, SimConfig)],
    generated: &[Trace],
    out: &mut Outcome,
) -> f64 {
    let mut cpu_s = 0.0;
    for _ in 0..SETUP_ROUNDS {
        for ((seed, wc, cfg), first) in inputs.iter().zip(generated) {
            let c0 = thread_cpu_s();
            let trace = generate(wc, *seed);
            drop(std::hint::black_box(ClusterSim::new(cfg.clone(), &trace)));
            cpu_s += thread_cpu_s() - c0;
            out.check(*first == trace, || {
                format!("seed {seed} generated two different traces")
            });
        }
    }
    cpu_s / (SETUP_ROUNDS * inputs.len()) as f64
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if args.trace {
        return traced(args, out);
    }
    let traces = ((args.seconds / SECONDS_PER_TRACE).round() as usize).max(1);
    let inputs: Vec<(u64, WorkloadConfig, SimConfig)> = (0..traces)
        .map(|i| {
            let seed = sub_seed(args.seed, i);
            let (wc, cfg) = inputs(seed);
            (seed, wc, cfg)
        })
        .collect();

    let generated: Vec<Trace> = inputs
        .iter()
        .map(|(seed, wc, _)| generate(wc, *seed))
        .collect();

    // Timed: one width-1 replay of each trace, with a set-up batch before
    // each and after the last.
    let mut setup_s = Vec::new();
    let mut per = PerTrace::default();
    let mut digest0 = None;
    for ((seed, _, cfg), trace) in inputs.iter().zip(&generated) {
        setup_s.push(setup_batch(&inputs, &generated, &mut out));
        let r = replay(cfg.clone(), trace);
        tally(&mut out, trace, &r);
        match r {
            Ok((secs, rep)) => {
                per.add(secs, &rep);
                digest0.get_or_insert(report_digest(&rep));
                let s = RunSummary::from_report(&rep);
                eprintln!(
                    "perfbench: seed {seed}: {} jobs {} tasks read {:.1} GB moved {:.1} GB \
                     bhr {:.4} replay {secs:.3} s digest {:#x}",
                    rep.jobs.len(),
                    rep.jobs.iter().map(|j| j.tasks.len()).sum::<usize>(),
                    rep.total_read().as_bytes() as f64 / 1e9,
                    s.bytes_moved as f64 / 1e9,
                    s.byte_hit_ratio,
                    report_digest(&rep)
                );
            }
            Err(_) if digest0.is_none() => digest0 = Some(0),
            Err(_) => {}
        }
    }
    setup_s.push(setup_batch(&inputs, &generated, &mut out));
    eprintln!(
        "perfbench: set-up batches (on-CPU ms per set-up) {:?}",
        setup_s
            .iter()
            .map(|s| (s * 1e6).round() / 1e3)
            .collect::<Vec<_>>()
    );

    // Untimed: the first trace again at epoch width 2 must digest the same.
    let (_, _, cfg) = &inputs[0];
    let wide = replay(
        SimConfig {
            epoch_threads: 2,
            ..cfg.clone()
        },
        &generated[0],
    );
    tally(&mut out, &generated[0], &wide);
    if let Ok((_, w)) = &wide {
        let (d1, d2) = (digest0.unwrap_or(0), report_digest(w));
        out.check(d1 == d2, || {
            format!("digest {d2:#x} at width 2, {d1:#x} at width 1")
        });
    }

    if per.jobs_per_s.is_empty() {
        return Err("every replay panicked".into());
    }
    out.set("setup_s", stats::median(&setup_s));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("ops_per_s", stats::median(&per.jobs_per_s));
    out.set("step_p50_ms", stats::mean(&per.job_p50_ms));
    out.set("step_tail_ms", stats::mean(&per.job_tail_ms));
    out.set("byte_hit_ratio", stats::mean(&per.byte_hit_ratio));
    Ok(out)
}

/// The traced mode, on the run's first trace: an untraced replay, the same
/// set-up and replay under spans, then the (untraced) ablation replays of
/// that trace under OctopusFS and LRU-OSA. Nothing is
/// traced inside `ClusterSim::run`, so `cluster.run` is a leaf span and
/// `self.cluster_s` includes the policies and the learner it calls.
fn traced(args: &Args, mut out: Outcome) -> Result<Outcome, String> {
    let (wc, cfg) = inputs(args.seed);
    let trace = generate(&wc, args.seed);
    let r = replay(cfg.clone(), &trace);
    tally(&mut out, &trace, &r);
    let (untraced_s, untraced) = r.map_err(|m| format!("untraced replay panicked: {m}"))?;

    trace::start();
    let again = trace::span("workload.generate", || generate(&wc, args.seed));
    let r = replay(cfg.clone(), &again);
    tally(&mut out, &again, &r);
    let (traced_s, rep) = r.map_err(|m| format!("traced replay panicked: {m}"))?;
    out.check(report_digest(&rep) == report_digest(&untraced), || {
        "the traced replay digests differently".into()
    });
    let spans = trace::finish();
    // The ablation replays run after the trace window, so `cluster.*` and
    // `self.cluster_s` cover the XGB-XGB replay alone.
    let s = ExpSettings::full(args.seed);
    for (name, scenario) in [
        ("ablation.octopusfs_s", Scenario::OctopusFs),
        ("ablation.lru_osa_s", Scenario::policy_pair("lru", "osa")),
    ] {
        let r = replay(s.sim(scenario), &trace);
        tally(&mut out, &trace, &r);
        let (secs, _) = r.map_err(|m| format!("{name} replay panicked: {m}"))?;
        out.set(name, secs);
    }
    out.set("ablation.xgb_xgb_s", untraced_s);
    let lru = out.metrics["ablation.lru_osa_s"];
    out.set("ablation.learner_share", (untraced_s - lru) / untraced_s);
    let aggs = trace::aggregate(&spans);
    crate::layer_self_times(&mut out, &aggs);
    crate::write_spans(args, &spans)?;

    let sum = RunSummary::from_report(&rep);
    let ms = |name: &str| aggs.get(name).map_or(0.0, |a| a.p50_ns() * 1e-6);
    out.set("trace.overhead_s", traced_s - untraced_s);
    out.set("workload.generate_ms", ms("workload.generate"));
    out.set("cluster.new_ms", ms("cluster.new"));
    out.set("cluster.run_s", traced_s);
    out.set(
        "cluster.tasks",
        rep.jobs.iter().map(|j| j.tasks.len()).sum::<usize>() as f64,
    );
    out.set("cluster.sim_mean_job_s", sum.mean_completion_secs);
    out.set("cluster.sim_p99_read_s", sum.p99_read_secs);
    out.set("dfs.moved_gb", sum.bytes_moved as f64 / 1e9);
    out.set(
        "policies.moved_per_read",
        sum.bytes_moved as f64 / rep.total_read().as_bytes().max(1) as f64,
    );
    Ok(out)
}
