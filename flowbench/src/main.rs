//! `flowbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! flowbench --workload NAME --seed N --seconds S --trace 0|1
//!           --bin-dir DIR --work-dir DIR
//! ```
//!
//! Runs one named workload against the shipped surfaces — the `router`
//! in front of two `served` shards over TCP, with the in-process
//! `asicgap` flow API as the reference — checks every output, and
//! prints one JSON object as the last line of stdout. With `--trace 0`
//! it carries every end-to-end metric; with `--trace 1` the run is
//! split into an untraced and a traced half and it carries every
//! per-layer metric (layers a workload does not exercise read 0).
//! Human-readable validity lines go to stderr. See `README.md` for the workloads and
//! what each metric means.

mod closure;
mod cluster;
mod route_batch;
mod serve_mix;
mod service;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the `served` and `router` binaries are.
    pub bin_dir: PathBuf,
    /// Scratch space for this run (shard cache dirs, span dumps).
    pub work_dir: PathBuf,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or correctness mismatch.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }
}

/// Every end-to-end metric, printed by every workload (`--trace 0`).
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_p50_ms", "ms"),
    ("run_p95_ms", "ms"),
    ("slo_ok_ratio", "share"),
    ("batch_rps", "ops/s"),
    ("qor_mhz_geomean", "MHz"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "share"),
];

/// Every per-layer metric (`--trace 1`).
const PER_LAYER: [(&str, &str); 38] = [
    ("frontend.busy_ms", "ms"),
    ("frontend.cells_per_s", "cells/s"),
    ("synth.busy_ms", "ms"),
    ("pipeline.busy_ms", "ms"),
    ("sizing.busy_ms", "ms"),
    ("place.busy_ms", "ms"),
    ("route.busy_ms", "ms"),
    ("route.iterations", "count"),
    ("route.overflow", "count"),
    ("route.wirelength_ratio", "ratio"),
    ("route.congested_iterations", "count"),
    ("route.congested_overflow", "count"),
    ("route.congested_s", "s"),
    ("sta.busy_ms", "ms"),
    ("sta.full_propagations", "count"),
    ("sta.pins_touched", "count"),
    ("equiv.busy_ms", "ms"),
    ("equiv.sat_cones", "count"),
    ("equiv.conflicts", "count"),
    ("autopilot.busy_ms", "ms"),
    ("autopilot.moves", "count"),
    ("autopilot.pins_per_move", "count"),
    ("flow.self_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.compute_ms", "ms"),
    ("serve.busy_rejections", "count"),
    ("serve.hit_ratio", "share"),
    ("serve.l2_hit_ratio", "share"),
    ("serve.load_refused", "count"),
    ("stage_cache.hit_ratio", "share"),
    ("stage_cache.synth_hit_ratio", "share"),
    ("stage_cache.place_hit_ratio", "share"),
    ("stage_cache.route_hit_ratio", "share"),
    ("cluster.put_us", "us"),
    ("cluster.get_us", "us"),
    ("router.forward_ms", "ms"),
    ("client.queue_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

fn usage() -> ! {
    eprintln!(
        "usage: flowbench --workload serve-mix|route-batch --seed N \
         --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace, bin_dir, work_dir) {
        (Some(workload), Some(seed), Some(seconds), Some(trace), Some(bin_dir), Some(work_dir)) => {
            Args {
                workload,
                seed,
                seconds,
                trace,
                bin_dir,
                work_dir,
            }
        }
        _ => usage(),
    }
}

fn json_line(report: &Report, trace: bool) -> Result<String, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match report.metrics.get(name) {
            Some(&v) => v,
            // A layer the workload never enters did no work.
            None if trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let mut args = parse_args();
    // The in-process flows (probes and correctness recomputes) run on a
    // two-thread pool; shards get their own setting.
    std::env::set_var("ASICGAP_THREADS", "2");
    args.work_dir = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("flowbench: cannot create {:?}: {e}", args.work_dir);
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "serve-mix" => serve_mix::run(&args),
        "route-batch" => route_batch::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let line = result.and_then(|report| {
        for p in &report.problems {
            eprintln!("FAILED: {p}");
        }
        json_line(&report, args.trace)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("flowbench: {e}");
            ExitCode::FAILURE
        }
    }
}
