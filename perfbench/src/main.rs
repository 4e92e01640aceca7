//! Wall-clock benchmark of the NTT-PIM workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! Runs one workload for about `--seconds`, checks every output against
//! the CPU golden model, prints a human summary, and ends with one JSON
//! line: the end-to-end metrics with `--trace 0`, or with `--trace 1` the
//! per-layer metrics of a traced replay of every executed batch (whose
//! spans are written to `--spans-dir`). See `perfbench/README.md`.

mod gen;
mod offline;
mod replay;
mod serve;
mod speed;
mod stats;
mod trace;

use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::engine::batch::{JobKind, NttJob};
use ntt_pim::engine::{CpuNttEngine, NttEngine};
use replay::{Replayer, RECONCILE_TOLERANCE};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics every workload reports (`BENCHMARK.json`).
const E2E: [&str; 6] = [
    "setup_s",
    "host_jobs_per_s",
    "sim_jobs_per_s",
    "latency_ms_p50",
    "latency_ms_p90",
    "peak_rss_mb",
];

/// Per-layer metrics of the traced run, with their units. A workload
/// that never reaches a layer reports 0 for it.
const LAYERS: [(&str, &str); 30] = [
    ("timing.schedule_ms", "ms"),
    ("timing.ns_per_cmd", "ns"),
    ("timing.bus_slots", "count"),
    ("timing.rank_acts", "count"),
    ("funcsim.exec_ms", "ms"),
    ("funcsim.load_read_ms", "ms"),
    ("funcsim.ns_per_cmd", "ns"),
    ("mapper.build_ms", "ms"),
    ("mapper.cmds", "count"),
    ("engine.plan_us", "us"),
    ("golden.verify_ms", "ms"),
    ("golden.lane_job_share", "share"),
    ("bus.run_ms_pim", "ms"),
    ("bus.run_ms_cpu_lanes", "ms"),
    ("bus.job_share_pim", "share"),
    ("bus.cost_error", "share"),
    ("service.submit_us_p50", "us"),
    ("service.batches", "count"),
    ("service.occupancy", "jobs"),
    ("service.overhead_ms_p50", "ms"),
    ("service.steals", "count"),
    ("service.rejected", "count"),
    ("gen.late_ms_p50", "ms"),
    ("gen.late_ms_max", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("batch_ms_p50", "ms"),
    ("batch_ms_p95", "ms"),
    ("wall_to_sim", "ratio"),
    ("error_rate", "share"),
];

#[derive(Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// What one workload run measured.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub lines: Vec<String>,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub replay: Option<Replayer>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Self {
            attempted,
            failed,
            lines: Vec::new(),
            e2e: Vec::new(),
            layers: Vec::new(),
            replay: None,
        }
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }
}

/// The simulated device every workload runs on: HBM2E-style, two atom
/// buffers, 2 channels × 2 ranks × 4 banks.
pub fn pim_config() -> PimConfig {
    PimConfig::hbm2e(2).with_topology(Topology::new(2, 2, 4))
}

/// The CPU golden model's answer for one job.
pub fn golden_output(job: &NttJob) -> Vec<u64> {
    let mut golden = CpuNttEngine::golden();
    let mut data = job.coeffs.clone();
    match &job.kind {
        JobKind::Forward | JobKind::SplitLarge => golden.forward(&mut data, job.q),
        JobKind::Inverse => golden.inverse(&mut data, job.q),
        JobKind::NegacyclicPolymul { rhs } => golden.negacyclic_polymul(&mut data, rhs, job.q),
    }
    .expect("generated jobs are valid for the golden model");
    data
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut spans_dir = PathBuf::from("perfbench/out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--spans-dir" => spans_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        spans_dir,
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    let tracer = args.trace.then(|| trace::Tracer::new(origin));
    let mut report = match args.workload.as_str() {
        "offline-mixed" => offline::run(args.seed, args.seconds, tracer),
        "serve-mixed" => serve::run(&serve::SERVE_MIXED, args.seed, args.seconds, tracer),
        "serve-small-hetero" => {
            serve::run(&serve::SERVE_SMALL_HETERO, args.seed, args.seconds, tracer)
        }
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    report
        .e2e
        .push(Metric::new("peak_rss_mb", "MiB", peak_rss_mb()));
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    let mut correct = report.failed == 0 && report.attempted > 0;

    let metrics = if args.trace {
        let replay = report
            .replay
            .take()
            .expect("a traced run replays its batches");
        let layers = replay.layer_metrics();
        let unattributed = layers.unattributed;
        report.layers.extend(
            layers
                .values
                .into_iter()
                .map(|(n, u, v)| Metric::new(n, u, v)),
        );
        for m in replay.mismatches.iter().take(5) {
            report.line(format!("REPLAY MISMATCH: {m}"));
        }
        correct &= replay.mismatches.is_empty();
        report.line(format!(
            "replay: {} mismatches; {:.2}% of replayed wall time outside layer spans (tolerance {:.0}%)",
            replay.mismatches.len(),
            unattributed * 100.0,
            RECONCILE_TOLERANCE * 100.0
        ));
        correct &= unattributed <= RECONCILE_TOLERANCE;
        let path = args
            .spans_dir
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match replay.tracer.write_tsv(&path) {
            Ok(()) => report.line(format!(
                "spans: {} written to {}",
                replay.tracer.spans.len(),
                path.display()
            )),
            Err(e) => report.line(format!("spans: could not write {}: {e}", path.display())),
        }
        report
            .layers
            .push(Metric::new("error_rate", "share", error_rate));
        let mut layers = Vec::new();
        for (name, unit) in LAYERS {
            let value = report
                .layers
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            layers.push(Metric::new(name, unit, value));
        }
        layers
    } else {
        report.e2e.clone()
    };

    for line in &report.lines {
        println!("{line}");
    }
    println!("end-to-end (tracing off):");
    for m in &report.e2e {
        println!("  {:<26} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("  {:<26} {:>16.4} share", "error_rate", error_rate);
    println!(
        "{}:",
        if args.trace {
            "per-layer (traced replay)"
        } else {
            "service and generator"
        }
    );
    for m in if args.trace { &metrics } else { &report.layers } {
        println!("  {:<26} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        assert!(
            E2E.iter().all(|n| metrics.iter().any(|m| m.name == *n)),
            "every end-to-end metric is measured"
        );
    }
    // JSON has no NaN or infinity: such a value is reported as 0 and
    // marks the run incorrect.
    correct &= metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
