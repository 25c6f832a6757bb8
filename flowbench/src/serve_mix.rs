//! `serve-mix`: production-shaped traffic through the router.
//!
//! An open loop with seeded Poisson arrivals at a fixed rate, over two
//! connections (one thread each), into `router` → two `served` shards.
//! Requests are stratified in blocks of 20 so every seed sees the same
//! mix: 7 hot `RUN`s (outcome already in L2), 2 stage-cache resumes (a
//! hot `RUN` with the other wire model), 9 fresh `RUN`s (new seeds: full
//! computes), 1 hot and 1 fresh `CLOSE` under full verification.
//! About 20% of `RUN`s price wires by routing.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use asicgap::frontend::{load_design, DesignFormat};
use asicgap::netlist::generators::{xlarge, XlargeSpec};
use asicgap::netlist::yosys_json::to_yosys_json;
use asicgap::{ClosureTarget, DesignScenario, VerifyLevel, WireModel, WorkloadSpec};
use asicgap_serve::proto::{parse_frame, read_frame, CloseRequest, RunRequest, ScenarioPreset};

use crate::cluster::{Cluster, SHARDS};
use crate::service::{self, Ledger, Reply, Req};
use crate::stats::{beyond, median, ms, quantile, Deck, Rng};
use crate::trace::Tracer;
use crate::{Args, Report};

/// Offered load, requests/s: about half the closed-loop capacity of
/// this mix over two connections (21 requests/s on a 2-core host).
const RATE: f64 = 10.0;

/// Latency limit for `slo_ok_ratio`, ms from when a request was due.
const SLO_MS: f64 = 150.0;

const CONNS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

const FAMILIES: [&str; 8] = [
    "alu/8",
    "alu/16",
    "ks/16",
    "barrel/16",
    "cla/16",
    "rca/16",
    "mux/16",
    "parity/32",
];
const CLOSE_FAMILIES: [&str; 4] = ["alu/8", "alu/16", "ks/16", "barrel/16"];
const PRESETS: [ScenarioPreset; 4] = [
    ScenarioPreset::TypicalAsic,
    ScenarioPreset::BestPracticeAsic,
    ScenarioPreset::Custom,
    ScenarioPreset::Grid(6),
];

/// Closure targets sit this far above the open-loop frequency.
const CLOSE_STRETCH: f64 = 1.03;
const CLOSE_MOVES: u32 = 8;
const HOT_CLOSES: usize = 8;

#[derive(Clone, Copy)]
enum Class {
    Hot,
    Resume,
    Fresh,
    CloseHot,
    CloseFresh,
}

const BLOCK: [(Class, usize); 5] = [
    (Class::Hot, 7),
    (Class::Resume, 2),
    (Class::Fresh, 9),
    (Class::CloseHot, 1),
    (Class::CloseFresh, 1),
];

/// Seeded request material shared by every set-up of one run.
struct Inputs {
    hot_runs: Vec<RunRequest>,
    hot_closes: Vec<CloseRequest>,
    /// Target MHz per (close family, preset).
    targets: HashMap<(usize, usize), f64>,
}

fn workload(name: &str) -> WorkloadSpec {
    WorkloadSpec::parse(name).expect("benchmark workload names parse")
}

/// Request parameters drawn in balanced rounds, so every seed rates
/// the same mix of families, presets and wire models.
struct Draws {
    runs: Deck<(usize, usize)>,
    wires: Deck<WireModel>,
    closes: Deck<(usize, usize)>,
}

impl Draws {
    fn new() -> Draws {
        let pairs = |n: usize| -> Vec<(usize, usize)> {
            (0..n)
                .flat_map(|f| (0..PRESETS.len()).map(move |p| (f, p)))
                .collect()
        };
        let mut wires = vec![WireModel::Hpwl; 4];
        wires.push(WireModel::Routed);
        Draws {
            runs: Deck::new(pairs(FAMILIES.len())),
            wires: Deck::new(wires),
            closes: Deck::new(pairs(CLOSE_FAMILIES.len())),
        }
    }

    fn run(&mut self, rng: &mut Rng) -> RunRequest {
        let (f, p) = self.runs.draw(rng);
        RunRequest {
            preset: PRESETS[p],
            wire_model: self.wires.draw(rng),
            verify: if rng.below(2) == 0 {
                VerifyLevel::Off
            } else {
                VerifyLevel::Sim
            },
            seed: rng.fresh_seed(),
            workload: workload(FAMILIES[f]),
            deadline_ms: 0,
        }
    }

    fn close(&mut self, rng: &mut Rng, targets: &HashMap<(usize, usize), f64>) -> CloseRequest {
        let (f, p) = self.closes.draw(rng);
        CloseRequest {
            run: RunRequest {
                preset: PRESETS[p],
                wire_model: WireModel::Hpwl,
                verify: VerifyLevel::Full,
                seed: rng.fresh_seed(),
                workload: workload(CLOSE_FAMILIES[f]),
                deadline_ms: 0,
            },
            target_mhz: targets[&(f, p)],
            max_moves: CLOSE_MOVES,
        }
    }
}

impl Inputs {
    /// Probes each close family's open-loop frequency in process, then
    /// draws the hot set.
    fn generate(seed: u64, hot_runs: usize) -> Result<Inputs, String> {
        let mut targets = HashMap::new();
        for (f, family) in CLOSE_FAMILIES.iter().enumerate() {
            let spec = workload(family);
            for (p, preset) in PRESETS.iter().enumerate() {
                let probe = preset
                    .scenario()
                    .close_timing(
                        |lib| spec.build(lib),
                        VerifyLevel::Off,
                        &ClosureTarget::at(1.0),
                    )
                    .map_err(|e| format!("closure probe {family}: {e}"))?;
                targets.insert((f, p), probe.open_mhz().value() * CLOSE_STRETCH);
            }
        }
        let mut rng = Rng::new(seed ^ 0x4807);
        let mut draws = Draws::new();
        let hot_runs = (0..hot_runs).map(|_| draws.run(&mut rng)).collect();
        let hot_closes = (0..HOT_CLOSES)
            .map(|_| draws.close(&mut rng, &targets))
            .collect();
        Ok(Inputs {
            hot_runs,
            hot_closes,
            targets,
        })
    }

    fn hot(&self) -> Vec<Req> {
        self.hot_runs
            .iter()
            .cloned()
            .map(Req::Run)
            .chain(self.hot_closes.iter().cloned().map(Req::Close))
            .collect()
    }
}

/// One scheduled request: when it is due and on which connection.
struct Planned {
    req: Req,
    due: Duration,
    conn: usize,
}

/// Arrivals of a Poisson process at [`RATE`], conditioned on their
/// count over `seconds` (sorted uniform times), classes in shuffled
/// blocks. Resumes consume the hot set in order, each hot key once.
fn plan(
    rng: &mut Rng,
    draws: &mut Draws,
    inputs: &Inputs,
    resumed: &mut usize,
    seconds: f64,
) -> Vec<Planned> {
    let mut due: Vec<f64> = (0..(RATE * seconds).round() as usize)
        .map(|_| rng.unit() * seconds)
        .collect();
    due.sort_by(f64::total_cmp);
    let mut classes = Deck::new(
        BLOCK
            .iter()
            .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
            .collect(),
    );
    let mut out = Vec::with_capacity(due.len());
    for at in due {
        let req = match classes.draw(rng) {
            Class::Hot => Req::Run(inputs.hot_runs[rng.below(inputs.hot_runs.len())].clone()),
            Class::Resume => {
                let mut r = inputs.hot_runs[*resumed % inputs.hot_runs.len()].clone();
                *resumed += 1;
                r.wire_model = match r.wire_model {
                    WireModel::Hpwl => WireModel::Routed,
                    WireModel::Routed => WireModel::Hpwl,
                };
                Req::Run(r)
            }
            Class::Fresh => Req::Run(draws.run(rng)),
            Class::CloseHot => {
                Req::Close(inputs.hot_closes[rng.below(inputs.hot_closes.len())].clone())
            }
            Class::CloseFresh => Req::Close(draws.close(rng, &inputs.targets)),
        };
        out.push(Planned {
            req,
            due: Duration::from_secs_f64(at),
            conn: rng.below(CONNS),
        });
    }
    out
}

/// A request's life on the client side.
struct Record {
    idx: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    reply: Reply,
}

fn write_all_nb(stream: &mut TcpStream, mut bytes: &[u8]) -> Result<(), String> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(n) => bytes = &bytes[n..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                thread::sleep(Duration::from_micros(50))
            }
            Err(e) => return Err(format!("send: {e}")),
        }
    }
    Ok(())
}

/// Drives one pipelined connection: sends each request when due,
/// regardless of outstanding replies, and collects replies in order.
/// With a tracer, each reply is recorded as it arrives: a `request`
/// span from due to done, split into `client.queue` (until the
/// connection was free to carry it: replies arrive in order, so the
/// previous reply bounds it) and `cluster.call`.
fn drive(
    addr: SocketAddr,
    items: &[(usize, Instant, String)],
    stall_limit: Instant,
    tracer: Option<&Tracer>,
) -> Result<Vec<Record>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut outstanding: VecDeque<(usize, Instant, Instant)> = VecDeque::new();
    let mut records = Vec::with_capacity(items.len());
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0;
    let mut last_done: Option<Instant> = None;
    loop {
        let mut progressed = false;
        while next < items.len() && items[next].1 <= Instant::now() {
            let (idx, due, body) = &items[next];
            let mut frame = (body.len() as u32).to_be_bytes().to_vec();
            frame.extend_from_slice(body.as_bytes());
            write_all_nb(&mut stream, &frame)?;
            outstanding.push_back((*idx, *due, Instant::now()));
            next += 1;
            progressed = true;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".to_string()),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                progressed = true;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
        while let Some((body, used)) = parse_frame(&buf).map_err(|e| e.to_string())? {
            buf.drain(..used);
            let done = Instant::now();
            let (idx, due, sent) = outstanding.pop_front().ok_or("reply without request")?;
            if let Some(t) = tracer {
                let start = last_done.map_or(sent, |d| d.max(sent));
                let (r, at) = (idx as u64, |i| t.offset(i));
                let id = t.record(None, r, "request", at(due), at(done));
                t.record(Some(id), r, "client.queue", at(due), at(start));
                t.record(Some(id), r, "cluster.call", at(start), at(done));
            }
            last_done = Some(done);
            records.push(Record {
                idx,
                due,
                sent,
                done,
                reply: Reply::decode(&body),
            });
        }
        if next == items.len() && outstanding.is_empty() {
            return Ok(records);
        }
        if Instant::now() > stall_limit {
            return Err(format!("{} replies still missing", outstanding.len()));
        }
        if !progressed {
            let until_due = items.get(next).map_or(Duration::from_millis(20), |i| {
                i.1.saturating_duration_since(Instant::now())
            });
            let poll = if outstanding.is_empty() {
                Duration::from_millis(20)
            } else {
                Duration::from_micros(100)
            };
            thread::sleep(until_due.min(poll));
        }
    }
}

/// Runs one open-loop phase; returns records in plan order.
fn open_loop(
    addr: SocketAddr,
    plan: &[Planned],
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<Vec<Record>, String> {
    let t0 = Instant::now() + Duration::from_millis(50);
    let stall_limit = t0 + Duration::from_secs_f64(seconds + 60.0);
    let per_conn: Vec<Vec<(usize, Instant, String)>> = (0..CONNS)
        .map(|c| {
            plan.iter()
                .enumerate()
                .filter(|(_, p)| p.conn == c)
                .map(|(i, p)| (i, t0 + p.due, p.req.body()))
                .collect()
        })
        .collect();
    let mut records = thread::scope(|s| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|items| s.spawn(move || drive(addr, items, stall_limit, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?
    .into_iter()
    .flatten()
    .collect::<Vec<_>>();
    records.sort_by_key(|r| r.idx);
    Ok(records)
}

/// Cluster up, hot set computed and stored.
fn set_up(
    args: &Args,
    hot_runs: usize,
    ledger: &mut Ledger,
    report: &mut Report,
) -> Result<(Inputs, Cluster), String> {
    let inputs = Inputs::generate(args.seed, hot_runs)?;
    let cluster = Cluster::start(&args.bin_dir, &args.work_dir.join("cluster"))?;
    let hot = inputs.hot();
    for d in service::closed_loop(&[cluster.router_addr], &hot, CONNS, None, None)? {
        report.attempted += 1;
        ledger.check(&hot[d.idx], &d.reply, report);
    }
    Ok((inputs, cluster))
}

/// Headline numbers of one phase.
struct Phase {
    latencies: Vec<f64>,
    keys: Vec<String>,
}

fn score(
    plan: &[Planned],
    records: &[Record],
    ledger: &mut Ledger,
    report: &mut Report,
) -> Result<Phase, String> {
    let failed_before = report.failed;
    let mut latencies = Vec::with_capacity(records.len());
    let mut lags = Vec::with_capacity(records.len());
    let mut slo_ok = 0usize;
    let mut seen = HashSet::new();
    let mut keys = Vec::new();
    let mut sources: BTreeMap<&str, usize> = BTreeMap::new();
    let (mut first_due, mut last_done) = (None::<Instant>, None::<Instant>);
    for r in records {
        let req = &plan[r.idx].req;
        report.attempted += 1;
        let latency = ms(r.done - r.due);
        latencies.push(latency);
        lags.push(ms(r.sent.saturating_duration_since(r.due)));
        first_due = Some(first_due.map_or(r.due, |t| t.min(r.due)));
        last_done = Some(last_done.map_or(r.done, |t| t.max(r.done)));
        if let Reply::Outcome(source, _) = &r.reply {
            *sources.entry(source.name()).or_default() += 1;
        }
        if ledger.check(req, &r.reply, report) {
            if latency <= SLO_MS {
                slo_ok += 1;
            }
            let key = req.key();
            if seen.insert(key.clone()) {
                keys.push(key);
            }
        }
    }
    if latencies.is_empty() {
        return Err("no requests were scheduled".to_string());
    }
    let n = latencies.len();
    let window = (last_done.expect("non-empty") - first_due.expect("non-empty")).as_secs_f64();
    eprintln!(
        "serve-mix: {n} requests at {RATE}/s; p50 {:.3} ms, p95 {:.3} ms (n={n}, {} beyond p95); \
         generator lag p99 {:.3} ms; {} distinct outcomes; replies by source {sources:?}",
        quantile(&latencies, 0.5),
        quantile(&latencies, 0.95),
        beyond(&latencies, 0.95),
        quantile(&lags, 0.99),
        keys.len()
    );
    report.set("run_p50_ms", quantile(&latencies, 0.5));
    report.set("run_p95_ms", quantile(&latencies, 0.95));
    report.set("slo_ok_ratio", slo_ok as f64 / n as f64);
    report.set(
        "batch_rps",
        (n as u64 - (report.failed - failed_before)) as f64 / window,
    );
    Ok(Phase { latencies, keys })
}

/// The seeded SoC design, exported to Yosys JSON: the frontend probe's
/// input and the oversized `LOAD` payload.
fn soc_export(seed: u64) -> Result<(String, usize), String> {
    let scenario = DesignScenario::typical_asic();
    let lib = scenario.library.build(&scenario.technology);
    let soc = xlarge(&lib, &XlargeSpec::soc(seed)).map_err(|e| e.to_string())?;
    Ok((to_yosys_json(&soc, &lib), soc.instance_count()))
}

/// Times `frontend::load_design` on the SoC export in process; the
/// serve workloads only build generator netlists, so this is where the
/// frontend layer is measured.
fn frontend_probe(json: &str, cells: usize, report: &mut Report) -> Result<(), String> {
    let scenario = DesignScenario::typical_asic();
    let lib = scenario.library.build(&scenario.technology);
    let t = Instant::now();
    let netlist = load_design(DesignFormat::YosysJson, json, &lib).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    if netlist.instance_count() != cells {
        report.fail(format!(
            "frontend read {} cells back from a {cells}-cell export",
            netlist.instance_count()
        ));
    }
    report.set("frontend.busy_ms", secs * 1e3);
    report.set("frontend.cells_per_s", cells as f64 / secs);
    Ok(())
}

/// Sends the SoC export as one `LOAD` frame through the router; true
/// when the cluster refuses it without loading it.
fn load_probe(router: SocketAddr, json: &str) -> Result<bool, String> {
    let body = format!("LOAD {}\n{json}", DesignFormat::YosysJson.canonical());
    let mut s = TcpStream::connect(router).map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(Duration::from_secs(10)))
        .and_then(|_| s.set_read_timeout(Some(Duration::from_secs(10))))
        .map_err(|e| e.to_string())?;
    let header = u32::try_from(body.len())
        .map_err(|e| e.to_string())?
        .to_be_bytes();
    // A refusing server may hang up mid-send; its answer (or silence)
    // is what counts.
    let _ = s
        .write_all(&header)
        .and_then(|_| s.write_all(body.as_bytes()));
    let refused = match read_frame(&mut s) {
        Ok(Some(reply)) => !reply.starts_with("LOADED"),
        _ => true,
    };
    eprintln!(
        "serve-mix: LOAD of a {:.1} MB design export: {}",
        body.len() as f64 / 1e6,
        if refused { "refused" } else { "accepted" }
    );
    Ok(refused)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut ledger = Ledger::default();
    let phases: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let window = args.seconds / phases.len() as f64;
    // Two resumes per block of 20, each consuming one hot key, plus a
    // margin for the block left unfinished at the end of a phase.
    let resumes = (RATE * args.seconds * 2.0 / 20.0 * 1.25).ceil() as usize;
    let hot_runs = resumes.max(32);

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut up = None;
    for i in 0..setups {
        if let Some((_, cluster)) = up.take() {
            Cluster::stop(cluster)?;
        }
        let t = Instant::now();
        up = Some(set_up(args, hot_runs, &mut ledger, &mut report)?);
        setup_s.push(t.elapsed().as_secs_f64());
        eprintln!("serve-mix: set-up {i}: {:.3} s", setup_s[i]);
    }
    let (inputs, cluster) = up.expect("at least one set-up");
    report.set("setup_s", median(&setup_s));

    let mut rng = Rng::new(args.seed);
    let mut draws = Draws::new();
    let mut resumed = 0;
    let tracer = Tracer::new();
    let mut p50 = Vec::new();
    let mut traced_keys = Vec::new();
    let (mut before, mut after) = (None, None);
    for &traced in phases {
        let plan = plan(&mut rng, &mut draws, &inputs, &mut resumed, window);
        if traced {
            before = Some(service::stats(cluster.router_addr)?);
        }
        let records = open_loop(
            cluster.router_addr,
            &plan,
            window,
            traced.then_some(&tracer),
        )?;
        if traced {
            after = Some(service::stats(cluster.router_addr)?);
        }
        let phase = score(&plan, &records, &mut ledger, &mut report)?;
        p50.push(median(&phase.latencies));
        if traced {
            traced_keys = phase.keys.clone();
        }
        report.set("qor_mhz_geomean", service::qor(&ledger, &phase.keys)?);
    }
    report.set("peak_rss_mb", cluster.shard_peak_rss_mb()?);

    if let (Some(a), Some(b)) = (&before, &after) {
        service::server_layers(a, b, &mut report);
        service::effort_layers(&ledger, &traced_keys, &mut report)?;
        let totals = tracer.totals();
        if let Some(t) = totals.get("client.queue") {
            report.set("client.queue_ms", t.total_ms / t.count as f64);
        }
        report.set("trace.overhead_pct", (p50[1] - p50[0]) / p50[0] * 100.0);
        let hot: Vec<Req> = inputs
            .hot_runs
            .iter()
            .take(50)
            .cloned()
            .map(Req::Run)
            .collect();
        report.set(
            "router.forward_ms",
            service::router_hop_ms(
                cluster.router_addr,
                &cluster.shard_addrs,
                &SHARDS,
                &hot,
                200,
            )?,
        );
        let (json, cells) = soc_export(args.seed)?;
        let refused = load_probe(cluster.router_addr, &json)?;
        report.set("serve.load_refused", if refused { 1.0 } else { 0.0 });
        frontend_probe(&json, cells, &mut report)?;
    }
    let checked =
        ledger.recompute_sample(&mut rng, 24, 4, args.trace.then_some(&tracer), &mut report);
    eprintln!("serve-mix: {checked} distinct replies recomputed in process");
    if args.trace {
        service::recompute_layers(&tracer, &mut report);
        let sample: Vec<&RunRequest> = inputs.hot_runs.iter().take(8).collect();
        service::cluster_layer(&sample, &args.work_dir.join("l2-probe"), &mut report)?;
        let path = args
            .work_dir
            .with_file_name(format!("spans-serve-mix-seed{}.tsv", args.seed));
        tracer.write(&path).map_err(|e| format!("{path:?}: {e}"))?;
    }
    cluster.stop()?;
    report.set(
        "ok_ratio",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
    );
    Ok(report)
}
