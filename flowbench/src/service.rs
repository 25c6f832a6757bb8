//! What the two cluster workloads share: requests, the closed-loop
//! load generator, reply checking (byte identity, in-process recomputes
//! and the closure contract), result quality, and per-layer numbers
//! from `STATS` snapshots and recompute spans.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use asicgap::{
    run_scenario_observed, run_scenario_staged, ArtifactStore, FlowObserver, FlowStage, NoObserver,
    ScenarioOutcome,
};
use asicgap_cluster::SegmentStore;
use asicgap_serve::proto::{CloseRequest, Request, RunRequest, Source};
use asicgap_serve::{Client, ClientError, MetricsSnapshot, Response};

use crate::closure;
use crate::stats::{geomean, mean, median, Rng};
use crate::trace::{StageSpans, Tracer};
use crate::Report;

/// One request of a cluster workload.
#[derive(Debug, Clone)]
pub enum Req {
    Run(RunRequest),
    Close(CloseRequest),
}

impl Req {
    /// The wire frame body.
    pub fn body(&self) -> String {
        match self {
            Req::Run(r) => Request::Run(r.clone()).encode(),
            Req::Close(c) => Request::Close(c.clone()).encode(),
        }
    }

    /// The content-addressed identity the server caches under.
    pub fn key(&self) -> String {
        match self {
            Req::Run(r) => r.canonical_key(),
            Req::Close(c) => c.canonical_key(),
        }
    }

    /// The same request computed in this process with the monolithic
    /// flow API — the reference every served reply must match. With a
    /// tracer the call is one span, and each flow stage of a `RUN` a
    /// child span reported through the public `FlowObserver` hook.
    pub fn recompute(&self, tracer: Option<&Tracer>, request: u64) -> Result<String, String> {
        let name = match self {
            Req::Run(_) => "flow.run_scenario_observed",
            Req::Close(_) => "autopilot.close_timing",
        };
        let span = tracer.map(|t| (t, t.open(None, request, name)));
        let out = match self {
            Req::Run(r) => {
                let stages = span.map(|(tracer, parent)| StageSpans {
                    tracer,
                    parent,
                    request,
                });
                let obs: &dyn FlowObserver = match &stages {
                    Some(s) => s,
                    None => &NoObserver,
                };
                run_scenario_observed(&r.scenario(), |lib| r.workload.build(lib), r.verify, obs)
                    .map(|o| o.to_string())
            }
            Req::Close(c) => c
                .run
                .scenario()
                .close_timing(|lib| c.run.workload.build(lib), c.run.verify, &c.target())
                .map(|o| o.canonical_text()),
        };
        if let Some((t, id)) = span {
            t.close(id);
        }
        out.map_err(|e| e.to_string())
    }

    /// Sends the request on a blocking client.
    pub fn send(&self, client: &mut Client) -> Result<Reply, String> {
        let res = match self {
            Req::Run(r) => client.run(r.clone()),
            Req::Close(c) => client.close(c.clone()),
        };
        match res {
            Ok(Ok((source, text))) => Ok(Reply::Outcome(source, text)),
            Ok(Err(_retry_after)) => Ok(Reply::Busy),
            Err(ClientError::Server(message)) => Ok(Reply::Error(message)),
            Err(e) => Err(format!("transport: {e}")),
        }
    }
}

/// A decoded reply to a `RUN` or `CLOSE`.
#[derive(Debug, Clone)]
pub enum Reply {
    Outcome(Source, String),
    Busy,
    Error(String),
}

impl Reply {
    pub fn decode(body: &str) -> Reply {
        match Response::decode(body) {
            Ok(Response::Outcome { source, text }) => Reply::Outcome(source, text),
            Ok(Response::Busy { .. }) => Reply::Busy,
            Ok(Response::Error { message }) => Reply::Error(message),
            Ok(other) => Reply::Error(format!("unexpected reply {}", other.encode())),
            Err(e) => Reply::Error(format!("undecodable reply: {e}")),
        }
    }
}

/// One completed closed-loop call.
pub struct Done {
    pub idx: usize,
    pub start: Instant,
    pub end: Instant,
    pub reply: Reply,
}

/// Sends `reqs` in order over `conns` connections, each waiting for
/// its reply before taking the next request. Stops taking requests at
/// `stop` (if given); requests already sent are waited for. With a
/// tracer, each call is recorded as a `request` span as it completes.
pub fn closed_loop(
    addrs: &[SocketAddr],
    reqs: &[Req],
    conns: usize,
    stop: Option<Instant>,
    tracer: Option<&Tracer>,
) -> Result<Vec<Done>, String> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(reqs.len()));
    thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                let (next, done) = (&next, &done);
                let addr = addrs[c % addrs.len()];
                s.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect_retry(addr, Duration::from_secs(5))
                        .map_err(|e| format!("connect {addr}: {e}"))?;
                    loop {
                        if stop.is_some_and(|t| Instant::now() >= t) {
                            return Ok(());
                        }
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(idx) else {
                            return Ok(());
                        };
                        let start = Instant::now();
                        let reply = req.send(&mut client)?;
                        let end = Instant::now();
                        if let Some(t) = tracer {
                            t.record(None, idx as u64, "request", t.offset(start), t.offset(end));
                        }
                        done.lock().expect("results lock").push(Done {
                            idx,
                            start,
                            end,
                            reply,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop connection thread panicked"))
            .collect::<Result<Vec<()>, String>>()
    })?;
    let mut done = done.into_inner().expect("results lock");
    done.sort_by_key(|d| d.idx);
    Ok(done)
}

/// Every outcome text seen per canonical key: the byte-identity check.
#[derive(Default)]
pub struct Ledger {
    by_key: HashMap<String, (Req, String)>,
    /// Keys in first-seen order (deterministic sampling).
    order: Vec<String>,
}

impl Ledger {
    /// Checks one reply; a failure or a byte mismatch with an earlier
    /// reply for the same key fails the operation. True when the reply
    /// is good.
    pub fn check(&mut self, req: &Req, reply: &Reply, report: &mut Report) -> bool {
        let text = match reply {
            Reply::Outcome(_, text) => text,
            Reply::Busy => {
                report.fail("BUSY".to_string());
                return false;
            }
            Reply::Error(message) => {
                report.fail(format!("ERROR {message}"));
                return false;
            }
        };
        let key = req.key();
        match self.by_key.get(&key) {
            Some((_, first)) if first != text => {
                report.fail(format!("reply bytes differ for one key:\n{key}"));
                false
            }
            Some(_) => true,
            None => {
                self.by_key.insert(key.clone(), (req.clone(), text.clone()));
                self.order.push(key);
                true
            }
        }
    }

    pub fn text(&self, key: &str) -> Option<&str> {
        self.by_key.get(key).map(|(_, t)| t.as_str())
    }

    /// Checks that every distinct `CLOSE` outcome proved each committed
    /// move, then recomputes a seeded sample of distinct keys in process
    /// and compares bytes; each sampled `CLOSE` is also held to the
    /// whole closure contract. Returns how many keys were recomputed.
    pub fn recompute_sample(
        &self,
        rng: &mut Rng,
        runs: usize,
        closes: usize,
        tracer: Option<&Tracer>,
        report: &mut Report,
    ) -> usize {
        let mut run_keys: Vec<&String> = Vec::new();
        let mut close_keys: Vec<&String> = Vec::new();
        for key in &self.order {
            match self.by_key[key].0 {
                Req::Run(_) => run_keys.push(key),
                Req::Close(_) => close_keys.push(key),
            }
        }
        for key in &close_keys {
            closure::check_proofs(&self.by_key[*key].1, report);
        }
        rng.shuffle(&mut run_keys);
        rng.shuffle(&mut close_keys);
        run_keys.truncate(runs);
        close_keys.truncate(closes);
        let (mut checked, mut contracts, mut replayed) = (0, 0, 0);
        for key in run_keys.into_iter().chain(close_keys) {
            let (req, served) = &self.by_key[key];
            match req.recompute(tracer, checked as u64) {
                Ok(fresh) if &fresh == served => {}
                Ok(_) => report.fail(format!("served bytes differ from in-process:\n{key}")),
                Err(e) => report.fail(format!("in-process recompute failed: {e}")),
            }
            if let Req::Close(c) = req {
                replayed += closure::check_contract(c, served, report);
                contracts += 1;
            }
            checked += 1;
        }
        if contracts > 0 {
            eprintln!(
                "closure contract: {contracts} sampled CLOSE replies, {replayed} committed moves \
                 replayed"
            );
        }
        checked
    }
}

/// Shipped MHz of a `RUN` outcome, or closed MHz of a `CLOSE` outcome.
pub fn outcome_mhz(req: &Req, text: &str) -> Result<f64, String> {
    match req {
        Req::Run(_) => ScenarioOutcome::parse_canonical(text)
            .map(|o| o.shipped.value())
            .map_err(|e| e.to_string()),
        Req::Close(_) => {
            let ps: f64 = text
                .lines()
                .find_map(|l| l.strip_prefix("closed "))
                .and_then(|v| v.parse().ok())
                .ok_or("close outcome without a closed period")?;
            Ok(1e6 / ps)
        }
    }
}

/// Geomean of the shipped MHz over distinct outcome keys.
pub fn qor(ledger: &Ledger, keys: &[String]) -> Result<f64, String> {
    let mut mhz = Vec::with_capacity(keys.len());
    for key in keys {
        let (req, text) = &ledger.by_key[key];
        mhz.push(outcome_mhz(req, text)?);
    }
    if mhz.is_empty() {
        return Err("no outcomes to rate".to_string());
    }
    Ok(geomean(&mhz))
}

/// Effort counters parsed from distinct `RUN` outcomes (and `CLOSE`
/// traces): what the timer, checker, router and autopilot did.
pub fn effort_layers(ledger: &Ledger, keys: &[String], report: &mut Report) -> Result<(), String> {
    let mut full = Vec::new();
    let mut pins = Vec::new();
    let mut sat = Vec::new();
    let mut conflicts = Vec::new();
    let mut iterations = Vec::new();
    let mut overflow = 0u64;
    let mut wl = Vec::new();
    let mut moves = Vec::new();
    let mut move_pins = Vec::new();
    for key in keys {
        let (req, text) = &ledger.by_key[key];
        match req {
            Req::Run(_) => {
                let o = ScenarioOutcome::parse_canonical(text).map_err(|e| e.to_string())?;
                full.push(o.timing_effort.full_propagations as f64);
                pins.push(o.timing_effort.pins_touched as f64);
                if let Some(v) = o.verify_effort {
                    sat.push(v.sat_cones as f64);
                    conflicts.push(v.conflicts as f64);
                }
                if let Some(r) = o.route {
                    iterations.push(r.iterations as f64);
                    overflow += r.overflow;
                    wl.push(r.routed_um / r.hpwl_um);
                }
            }
            Req::Close(_) => {
                let trace = closure::trace(text)?;
                moves.push(trace.moves() as f64);
                if trace.moves() > 0 {
                    move_pins.push(trace.effort.pins_touched as f64 / trace.moves() as f64);
                }
            }
        }
    }
    report.set("sta.full_propagations", mean(&full));
    report.set("sta.pins_touched", mean(&pins));
    report.set("equiv.sat_cones", mean(&sat));
    report.set("equiv.conflicts", mean(&conflicts));
    report.set("route.iterations", mean(&iterations));
    report.set("route.overflow", overflow as f64);
    if !wl.is_empty() {
        report.set("route.wirelength_ratio", geomean(&wl));
    }
    report.set("autopilot.moves", mean(&moves));
    report.set("autopilot.pins_per_move", mean(&move_pins));
    Ok(())
}

/// `*.busy_ms` per-layer names, [`FlowStage::ALL`] order.
pub const STAGE_BUSY: [&str; 7] = [
    "synth.busy_ms",
    "pipeline.busy_ms",
    "sizing.busy_ms",
    "place.busy_ms",
    "route.busy_ms",
    "sta.busy_ms",
    "equiv.busy_ms",
];

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Per-layer numbers from the change between two cluster `STATS`
/// snapshots: per-stage busy time per completed flow, server wait,
/// admission rejections, and the hit ratios of each cache level.
pub fn server_layers(a: &MetricsSnapshot, b: &MetricsSnapshot, report: &mut Report) {
    let completed = (b.completed - a.completed).max(1) as f64;
    let mut compute_us = 0u64;
    for (i, stage) in FlowStage::ALL.iter().enumerate() {
        debug_assert_eq!(STAGE_BUSY[i].split('.').next(), Some(stage.label()));
        let us = b.stage_us[i].sum - a.stage_us[i].sum;
        compute_us += us;
        report.set(STAGE_BUSY[i], us as f64 / 1e3 / completed);
    }
    let latency_us = b.latency_us.sum - a.latency_us.sum;
    report.set("serve.compute_ms", compute_us as f64 / 1e3 / completed);
    report.set(
        "serve.wait_ms",
        (latency_us as f64 - compute_us as f64) / 1e3 / completed,
    );
    report.set(
        "serve.busy_rejections",
        (b.busy_rejections - a.busy_rejections) as f64,
    );
    report.set(
        "serve.hit_ratio",
        ratio(b.cache_hits - a.cache_hits, b.cache_misses - a.cache_misses),
    );
    report.set(
        "serve.l2_hit_ratio",
        ratio(b.l2_hits - a.l2_hits, b.l2_misses - a.l2_misses),
    );
    let (mut hits, mut misses) = (0, 0);
    for (i, name) in [
        (0, "stage_cache.synth_hit_ratio"),
        (2, "stage_cache.place_hit_ratio"),
        (3, "stage_cache.route_hit_ratio"),
    ] {
        let h = b.stage_cache[i].0 - a.stage_cache[i].0;
        let m = b.stage_cache[i].1 - a.stage_cache[i].1;
        report.set(name, ratio(h, m));
    }
    for i in 0..4 {
        hits += b.stage_cache[i].0 - a.stage_cache[i].0;
        misses += b.stage_cache[i].1 - a.stage_cache[i].1;
    }
    report.set("stage_cache.hit_ratio", ratio(hits, misses));
}

/// Per-layer numbers from the recompute spans: the autopilot's wall
/// per `CLOSE` (which reports no stage times to `STATS`) and the flow
/// time per `RUN` that no stage reports.
pub fn recompute_layers(tracer: &Tracer, report: &mut Report) {
    let totals = tracer.totals();
    if let Some(t) = totals.get("autopilot.close_timing") {
        report.set("autopilot.busy_ms", t.total_ms / t.count as f64);
    }
    if let Some(t) = totals.get("flow.run_scenario_observed") {
        report.set("flow.self_ms", t.self_ms / t.count as f64);
    }
}

pub fn stats(addr: SocketAddr) -> Result<MetricsSnapshot, String> {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("STATS: {e}"))
}

/// A segment store that times its own calls.
struct TimedStore {
    inner: SegmentStore,
    puts: Mutex<Vec<f64>>,
    hits: Mutex<Vec<f64>>,
}

impl ArtifactStore for TimedStore {
    fn get(&self, key: &str) -> Option<String> {
        let t = Instant::now();
        let v = self.inner.get(key);
        if v.is_some() {
            let us = t.elapsed().as_secs_f64() * 1e6;
            self.hits.lock().expect("timing lock").push(us);
        }
        v
    }

    fn put(&self, key: &str, value: &str) {
        let t = Instant::now();
        self.inner.put(key, value);
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.puts.lock().expect("timing lock").push(us);
    }
}

/// Times the L2 segment store (`cluster.put_us`, `cluster.get_us`) on
/// this workload's real artifacts: each sampled `RUN` is run staged
/// into a fresh store (writes), then again (reads that hit).
pub fn cluster_layer(
    sample: &[&RunRequest],
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let store = TimedStore {
        inner: SegmentStore::open(dir).map_err(|e| format!("segment store {dir:?}: {e}"))?,
        puts: Mutex::new(Vec::new()),
        hits: Mutex::new(Vec::new()),
    };
    for r in sample {
        for _ in 0..2 {
            run_scenario_staged(&r.scenario(), &r.workload, r.verify, &store)
                .map_err(|e| format!("staged run: {e}"))?;
        }
    }
    report.set(
        "cluster.put_us",
        mean(&store.puts.into_inner().expect("timing lock")),
    );
    report.set(
        "cluster.get_us",
        mean(&store.hits.into_inner().expect("timing lock")),
    );
    Ok(())
}

/// Median wall of `n` cached replies through the router minus the
/// same replies fetched straight from the owning shard.
pub fn router_hop_ms(
    router: SocketAddr,
    shards: &[SocketAddr],
    names: &[&str],
    cached: &[Req],
    n: usize,
) -> Result<f64, String> {
    let ring = asicgap_cluster::Ring::new(names.iter().copied()).ok_or("empty ring")?;
    let mut via_router = Client::connect(router).map_err(|e| e.to_string())?;
    let mut direct: Vec<Client> = shards
        .iter()
        .map(|&a| Client::connect(a).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let (mut hop, mut local) = (Vec::new(), Vec::new());
    for i in 0..n {
        let req = &cached[i % cached.len()];
        let owner = ring.place_index(&req.key());
        for (client, out) in [
            (&mut via_router, &mut hop),
            (&mut direct[owner], &mut local),
        ] {
            let t = Instant::now();
            match req.send(client)? {
                Reply::Outcome(..) => out.push(t.elapsed().as_secs_f64() * 1e3),
                other => return Err(format!("router hop probe: {other:?}")),
            }
        }
    }
    Ok(median(&hop) - median(&local))
}
