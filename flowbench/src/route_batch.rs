//! `route-batch`: a closed loop of routed flows through the router.
//!
//! Two connections (one thread each) keep one request in flight each.
//! Every `RUN` is routed, on multipliers and two 32-bit datapaths across
//! four presets, with a fresh seed: the outcome cache never hits, the
//! synth (and pipeline) checkpoints warmed during set-up always hit on
//! either shard, and every request writes new place and route
//! artifacts to L2. Combinations repeat in seeded shuffled cycles so
//! each run sees the same mix.

use std::thread;
use std::time::{Duration, Instant};

use asicgap::{run_scenario_verified, DesignScenario, VerifyLevel, WireModel, WorkloadSpec};
use asicgap_serve::proto::{RunRequest, ScenarioPreset};

use crate::cluster::{Cluster, SHARDS};
use crate::service::{self, Ledger, Req};
use crate::stats::{beyond, median, ms, quantile, Deck, Rng};
use crate::trace::Tracer;
use crate::{Args, Report};

/// Sizes stop at `mult/16`, the largest multiplier that converged on
/// every one of 400 sampled seed and preset pairs. Routed with fresh
/// seeds, larger ones sometimes end at the 48-round negotiation cap
/// with overflow left, at 10-20 s per flow (`mult/18` on 1 pair in 400,
/// `mult/20` on about 2%, `mult/22` under the typical preset on most
/// seeds); one such flow stalls a connection for half a run. The traced
/// run records that defect with its congestion probe instead.
const WORKLOADS: [&str; 5] = ["mult/12", "mult/14", "mult/16", "ks/32", "alu/32"];
const PRESETS: [ScenarioPreset; 4] = [
    ScenarioPreset::TypicalAsic,
    ScenarioPreset::BestPracticeAsic,
    ScenarioPreset::Custom,
    ScenarioPreset::Grid(7),
];
const CONNS: usize = 2;
const SETUPS: usize = 3;

/// Latency limit for `slo_ok_ratio`, ms.
const SLO_MS: f64 = 300.0;

/// `qor_mhz_geomean` rates the first this-many requests of the
/// sequence (two full cycles), so a faster server that completes more
/// requests is rated on the same outcomes.
const QOR_PREFIX: usize = 2 * WORKLOADS.len() * PRESETS.len();

/// The congestion probe: the next multiplier size up.
const CONGESTED: &str = "mult/24";

fn run_req(w: usize, p: usize, wire_model: WireModel, seed: u64) -> RunRequest {
    RunRequest {
        preset: PRESETS[p],
        wire_model,
        verify: VerifyLevel::Off,
        seed,
        workload: WorkloadSpec::parse(WORKLOADS[w]).expect("benchmark workload names parse"),
        deadline_ms: 0,
    }
}

fn combos() -> impl Iterator<Item = (usize, usize)> {
    (0..WORKLOADS.len()).flat_map(|w| (0..PRESETS.len()).map(move |p| (w, p)))
}

/// Cluster up; every shard holds the synth and pipeline checkpoints of
/// every combination (sent straight to each shard, bypassing the ring).
fn set_up(
    args: &Args,
    warm: &[Req],
    ledger: &mut Ledger,
    report: &mut Report,
) -> Result<Cluster, String> {
    let cluster = Cluster::start(&args.bin_dir, &args.work_dir.join("cluster"))?;
    let per_shard = thread::scope(|s| {
        let handles: Vec<_> = cluster
            .shard_addrs
            .iter()
            .map(|&a| s.spawn(move || service::closed_loop(&[a], warm, 1, None, None)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    for d in per_shard.into_iter().flatten() {
        report.attempted += 1;
        ledger.check(&warm[d.idx], &d.reply, report);
    }
    Ok(cluster)
}

/// Enough fresh-seeded routed requests for any plausible rate.
fn sequence(rng: &mut Rng, seconds: f64) -> Vec<Req> {
    let n = (seconds * 200.0).ceil() as usize;
    let mut out = Vec::with_capacity(n);
    let mut cycle = Deck::new(combos().collect());
    while out.len() < n {
        let (w, p) = cycle.draw(rng);
        out.push(Req::Run(run_req(w, p, WireModel::Routed, rng.fresh_seed())));
    }
    out
}

/// Runs one closed-loop phase and sets the headline metrics; returns
/// the median latency and the distinct keys completed.
fn phase(
    cluster: &Cluster,
    reqs: &[Req],
    seconds: f64,
    ledger: &mut Ledger,
    report: &mut Report,
    tracer: Option<&Tracer>,
) -> Result<(f64, Vec<String>), String> {
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    let done = service::closed_loop(&[cluster.router_addr], reqs, CONNS, Some(stop), tracer)?;
    if done.is_empty() {
        return Err("no request completed".to_string());
    }
    let failed_before = report.failed;
    let mut latencies = Vec::with_capacity(done.len());
    let mut keys = Vec::new();
    let mut slo_ok = 0;
    for d in &done {
        report.attempted += 1;
        let latency = ms(d.end - d.start);
        latencies.push(latency);
        if ledger.check(&reqs[d.idx], &d.reply, report) {
            slo_ok += usize::from(latency <= SLO_MS);
            keys.push(reqs[d.idx].key());
        }
    }
    let n = done.len();
    let first = done.iter().map(|d| d.start).min().expect("non-empty");
    let last = done.iter().map(|d| d.end).max().expect("non-empty");
    let ok = n as u64 - (report.failed - failed_before);
    eprintln!(
        "route-batch: {n} requests; p50 {:.3} ms, p95 {:.3} ms (n={n}, {} beyond p95)",
        quantile(&latencies, 0.5),
        quantile(&latencies, 0.95),
        beyond(&latencies, 0.95),
    );
    report.set("run_p50_ms", quantile(&latencies, 0.5));
    report.set("run_p95_ms", quantile(&latencies, 0.95));
    report.set("slo_ok_ratio", slo_ok as f64 / n as f64);
    report.set("batch_rps", ok as f64 / (last - first).as_secs_f64());
    let prefix: Vec<String> = done
        .iter()
        .take(QOR_PREFIX)
        .map(|d| reqs[d.idx].key())
        .filter(|k| ledger.text(k).is_some())
        .collect();
    report.set("qor_mhz_geomean", service::qor(ledger, &prefix)?);
    Ok((median(&latencies), keys))
}

/// Routes the next multiplier size once, in process, and records how
/// the negotiation ends.
fn congestion_probe(report: &mut Report) -> Result<(), String> {
    let scenario = DesignScenario::typical_asic().with_wire_model(WireModel::Routed);
    let spec = WorkloadSpec::parse(CONGESTED).expect("literal workload");
    let t = Instant::now();
    let outcome = run_scenario_verified(&scenario, |lib| spec.build(lib), VerifyLevel::Off)
        .map_err(|e| format!("congestion probe: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    let route = outcome.route.ok_or("routed flow without a route summary")?;
    eprintln!(
        "route-batch: {CONGESTED} routed: {} iterations, overflow {}, {secs:.2} s",
        route.iterations, route.overflow
    );
    report.set("route.congested_iterations", route.iterations as f64);
    report.set("route.congested_overflow", route.overflow as f64);
    report.set("route.congested_s", secs);
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut ledger = Ledger::default();
    let warm: Vec<Req> = combos()
        .map(|(w, p)| Req::Run(run_req(w, p, WireModel::Hpwl, 1)))
        .collect();

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut up: Option<Cluster> = None;
    for i in 0..setups {
        if let Some(cluster) = up.take() {
            cluster.stop()?;
        }
        let t = Instant::now();
        up = Some(set_up(args, &warm, &mut ledger, &mut report)?);
        setup_s.push(t.elapsed().as_secs_f64());
        eprintln!("route-batch: set-up {i}: {:.3} s", setup_s[i]);
    }
    let cluster = up.expect("at least one set-up");
    report.set("setup_s", median(&setup_s));

    let mut rng = Rng::new(args.seed);
    let tracer = Tracer::new();
    if args.trace {
        let window = args.seconds / 2.0;
        let (untraced_p50, _) = phase(
            &cluster,
            &sequence(&mut rng, window),
            window,
            &mut ledger,
            &mut report,
            None,
        )?;
        let before = service::stats(cluster.router_addr)?;
        let reqs = sequence(&mut rng, window);
        let (traced_p50, keys) = phase(
            &cluster,
            &reqs,
            window,
            &mut ledger,
            &mut report,
            Some(&tracer),
        )?;
        let after = service::stats(cluster.router_addr)?;
        service::server_layers(&before, &after, &mut report);
        service::effort_layers(&ledger, &keys, &mut report)?;
        report.set(
            "trace.overhead_pct",
            (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        );
        report.set(
            "router.forward_ms",
            service::router_hop_ms(
                cluster.router_addr,
                &cluster.shard_addrs,
                &SHARDS,
                &warm,
                200,
            )?,
        );
        let sample: Vec<&RunRequest> = reqs
            .iter()
            .take(4)
            .map(|r| match r {
                Req::Run(r) => r,
                Req::Close(_) => unreachable!("route-batch sends RUNs only"),
            })
            .collect();
        service::cluster_layer(&sample, &args.work_dir.join("l2-probe"), &mut report)?;
        congestion_probe(&mut report)?;
    } else {
        let reqs = sequence(&mut rng, args.seconds);
        phase(
            &cluster,
            &reqs,
            args.seconds,
            &mut ledger,
            &mut report,
            None,
        )?;
    }
    report.set("peak_rss_mb", cluster.shard_peak_rss_mb()?);
    let checked =
        ledger.recompute_sample(&mut rng, 6, 0, args.trace.then_some(&tracer), &mut report);
    eprintln!("route-batch: {checked} distinct replies recomputed in process");
    if args.trace {
        service::recompute_layers(&tracer, &mut report);
        let path = args
            .work_dir
            .with_file_name(format!("spans-route-batch-seed{}.tsv", args.seed));
        tracer.write(&path).map_err(|e| format!("{path:?}: {e}"))?;
    }
    cluster.stop()?;
    report.set(
        "ok_ratio",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
    );
    Ok(report)
}
