//! The fleet workloads: their set-up, the untraced end-to-end pass and
//! the traced per-layer pass.

use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pan_tompkins::{simd_level_name, DetectorEngine};
use service::{Client, ServiceConfig, SessionEvent, SessionHub, SessionOutput};
use xbiosip::Evaluator;

use crate::fleet::{self, Reference, Rung, RungReport, Target};
use crate::inputs::{self, Named, Script};
use crate::search::{self, Search};
use crate::speed;
use crate::stats::{self, Digest};
use crate::trace::Tracer;
use crate::{host, ledger, Args, Metrics, Outcome};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 2] = ["fleet_steady", "fleet_churn"];

/// Records in a fleet's signal pool.
const SIGNALS: usize = 8;

/// Samples per record: 100 s at 200 Hz, the paper's simulation length.
const RECORD_LEN: usize = 20_000;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 11;

/// Saturated passes: at least this many per run, each playing the
/// nominal live count's sessions over this much signal, this many
/// times faster than real time. Saturated churn sessions do not
/// migrate: a migration is a synchronous round trip through the shard's
/// queue, which is deep when saturated, and the one generator thread
/// would stall every other session behind it.
const SATURATED_PASSES: usize = 3;
const STEADY_SATURATED_US: u64 = 2_000_000;
const CHURN_SATURATED_US: u64 = 6_000_000;
const SATURATE: u64 = 100;

/// `fleet_steady`: sessions per rung (offered = sessions × 200
/// samples/s) and the nominal rung.
const STEADY_RUNGS: [usize; 3] = [400, 800, 1600];
const STEADY_NOMINAL: usize = 2;
const STEADY_CONFIGS: [&str; 3] = ["A2", "B9", "B10"];

/// `fleet_churn`: live sessions per rung, the nominal rung, and the
/// share of sessions that migrate mid-stream.
const CHURN_RUNGS: [usize; 3] = [200, 400, 800];
const CHURN_NOMINAL: usize = 2;
const MIGRATE_PER_MILLE: u64 = 150;

/// Record length of the search probe a traced fleet run makes to fill
/// the core layer's metrics.
const PROBE_RECORD_LEN: usize = 4_000;

/// Runs the workload `args` names.
pub fn run(args: &Args) -> Outcome {
    let shards = host::nproc().saturating_sub(1).max(1);
    let mut header = vec![
        ("workload".to_string(), format!("\"{}\"", args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("nproc".to_string(), host::nproc().to_string()),
        ("simd".to_string(), format!("\"{}\"", simd_level_name())),
        (
            "rustc".to_string(),
            format!("\"{}\"", host::rustc_version()),
        ),
        ("shards".to_string(), shards.to_string()),
    ];
    let mut outcome = fleet_workload(args, args.workload == "fleet_churn", shards);
    header.append(&mut outcome.header);
    outcome.header = header;
    outcome
}

// ---------------------------------------------------------------------
// Fleets
// ---------------------------------------------------------------------

/// A running hub with its client and event receiver.
struct Hub {
    hub: SessionHub,
    client: Client,
    rx: Receiver<SessionEvent>,
}

struct FleetSetup {
    palette: Vec<Named>,
    signals: Vec<Vec<i32>>,
    /// Scripts of each rung, then of the saturated pass.
    scripts: Vec<Vec<Script>>,
    shards: usize,
    /// Where the generator and the shards run.
    placement: host::Placement,
    digest: u64,
}

impl FleetSetup {
    /// The generator's view of `hub`, which may be a fresh one.
    fn target<'a>(&'a self, hub: &'a Hub) -> Target<'a> {
        Target {
            client: &hub.client,
            rx: &hub.rx,
            palette: &self.palette,
            signals: &self.signals,
        }
    }

    /// Starts a hub sized for the largest rung and warms it up: one
    /// short session per configuration, so every engine is built on the
    /// shard before the clock starts.
    fn start_hub(&self, tracer: &mut Tracer) -> Hub {
        let open = tracer.begin("service", "hub_start", 0);
        let max_live = self.scripts.iter().map(Vec::len).max().unwrap_or(1);
        // Shard threads inherit the CPUs of the thread that spawns them.
        host::pin_current(&self.placement.shards);
        let mut hub = SessionHub::new(
            ServiceConfig::default()
                .with_shards(self.shards)
                .with_max_sessions_per_shard(2 * max_live + 64),
        );
        host::pin_current(&self.placement.generator);
        let client = hub.client();
        let rx = hub.take_events().expect("event receiver taken once");
        tracer.end(open, self.shards as u64);

        let open = tracer.begin("service", "warm_up", 0);
        let mut pending = 0;
        for n in &self.palette {
            let id = client.open(n.config).expect("a fresh hub accepts an open");
            client
                .push(id, &self.signals[0][..100])
                .expect("a fresh hub accepts a push");
            client.close(id).expect("a fresh hub accepts a close");
            pending += 1;
        }
        while pending > 0 {
            match rx.recv_timeout(Duration::from_secs(30)) {
                Ok(SessionEvent {
                    output: SessionOutput::Closed(_),
                    ..
                }) => pending -= 1,
                Ok(_) => {}
                Err(_) => break,
            }
        }
        tracer.end(open, self.palette.len() as u64);
        Hub { hub, client, rx }
    }
}

/// Live-session ladder of a fleet workload.
fn ladder(churn: bool) -> (&'static [usize], usize) {
    if churn {
        (&CHURN_RUNGS, CHURN_NOMINAL)
    } else {
        (&STEADY_RUNGS, STEADY_NOMINAL)
    }
}

/// A fleet's inputs, all derived from the seed.
struct FleetInputs {
    palette: Vec<Named>,
    signals: Vec<Vec<i32>>,
    /// Scripts of each rung, then of the saturated pass.
    scripts: Vec<Vec<Script>>,
    digest: u64,
}

/// The fleet's inputs: signal pool, palette, and the scripts of every
/// rung and of the saturated pass.
fn fleet_inputs(seed: u64, churn: bool, rung_us: u64, tracer: &mut Tracer) -> FleetInputs {
    let open = tracer.begin("ecg", "synth", 0);
    let signals: Vec<Vec<i32>> = (0..SIGNALS)
        .map(|i| inputs::record(seed, i, RECORD_LEN).samples().to_vec())
        .collect();
    tracer.end(open, (SIGNALS * RECORD_LEN) as u64);
    let palette = if churn {
        inputs::all_hardware()
    } else {
        inputs::named(&STEADY_CONFIGS)
    };
    let (rungs, nominal) = ladder(churn);
    let saturated_us = if churn {
        CHURN_SATURATED_US
    } else {
        STEADY_SATURATED_US
    };
    let plan = rungs
        .iter()
        .map(|&live| (live, rung_us))
        .chain([(rungs[nominal], saturated_us)]);
    let scripts: Vec<Vec<Script>> = plan
        .enumerate()
        .map(|(r, (live, stream_us))| {
            if churn {
                inputs::churn_scripts(
                    seed,
                    r as u64,
                    live,
                    stream_us,
                    palette.len(),
                    SIGNALS,
                    RECORD_LEN,
                    if r < rungs.len() {
                        MIGRATE_PER_MILLE
                    } else {
                        0
                    },
                )
            } else {
                // The saturated pass pushes each wave in session order. A
                // wave with staggered phases reaches the shard piecemeal,
                // and its starvation relief then demotes hundreds of
                // sessions at once: the ladder measures that defect.
                let chunks = (stream_us / 250_000) as usize;
                inputs::steady_scripts(
                    seed,
                    r as u64,
                    live,
                    chunks,
                    palette.len(),
                    SIGNALS,
                    RECORD_LEN,
                    r == rungs.len(),
                )
            }
        })
        .collect();
    let mut d = Digest::default();
    for s in &signals {
        d.samples(s);
    }
    for n in &palette {
        d.bytes(n.name.as_bytes());
    }
    for s in scripts.iter().flatten() {
        s.digest(&mut d);
    }
    FleetInputs {
        palette,
        signals,
        scripts,
        digest: d.value(),
    }
}

/// Length of one rung: the ladder takes half of `--seconds`, the
/// saturated passes the other half.
fn rung_us(args: &Args, churn: bool) -> u64 {
    args.seconds * 1_000_000 / 2 / ladder(churn).0.len() as u64
}

/// Key of a solo reference: scripts with equal keys stream identical
/// input and share one reference.
fn reference_key(s: &Script) -> (usize, usize, usize, u64) {
    let mut d = Digest::default();
    for &c in &s.chunks {
        d.u64(c as u64);
    }
    (s.config, s.signal, s.start, d.value())
}

/// The program's set-up, which `setup_s` times: record synthesis and a
/// warmed-up hub.
fn fleet_setup(args: &Args, churn: bool, shards: usize, tracer: &mut Tracer) -> (FleetSetup, Hub) {
    let FleetInputs {
        palette,
        signals,
        scripts,
        digest,
    } = fleet_inputs(args.seed, churn, rung_us(args, churn), tracer);
    let setup = FleetSetup {
        palette,
        signals,
        scripts,
        shards,
        placement: host::placement(),
        digest,
    };
    let hub = setup.start_hub(tracer);
    (setup, hub)
}

/// Every rung with the solo reference of each of its scripts, and the
/// saturated pass: the correctness oracle, built once and outside the
/// timed set-up.
fn references(setup: &FleetSetup, churn: bool, tracer: &mut Tracer) -> (Vec<Rung>, Rung) {
    let engines: Vec<Arc<DetectorEngine>> = setup
        .palette
        .iter()
        .map(|n| {
            tracer.time("pan_tompkins", "engine_build", 1, || {
                Arc::new(DetectorEngine::new(n.config))
            })
        })
        .collect();
    let mut memo: HashMap<(usize, usize, usize, u64), Arc<Reference>> = HashMap::new();
    let open = tracer.begin("pan_tompkins", "solo_reference", 0);
    let mut solo_samples = 0u64;
    let (lives, nominal) = ladder(churn);
    let mut rungs: Vec<Rung> = setup
        .scripts
        .iter()
        .zip(lives.iter().chain([&lives[nominal]]))
        .map(|(scripts, &live)| {
            let refs = scripts
                .iter()
                .map(|s| {
                    Arc::clone(memo.entry(reference_key(s)).or_insert_with(|| {
                        solo_samples += s.samples() as u64;
                        Arc::new(fleet::solo_reference(
                            &engines[s.config],
                            &setup.signals[s.signal],
                            s,
                        ))
                    }))
                })
                .collect();
            Rung {
                live,
                offered: (live as u64 * inputs::FS) as f64,
                scripts: scripts.clone(),
                refs,
                defer_closes: false,
            }
        })
        .collect();
    tracer.end(open, solo_samples);
    let saturated = rungs.pop().expect("the saturated pass's scripts");
    // Steady sessions are long-lived: their closes wait until the hub
    // has caught up, as a close drains its session's backlog on the
    // scalar path and the generator would otherwise close every session
    // far ahead of the hub. Churn closes stay in place.
    (rungs, saturated.saturated(SATURATE, !churn))
}

fn rung_line(r: &RungReport) -> String {
    let mut lat = r.latency_ms.clone();
    let mut lag = r.send_lag_ms.clone();
    let lat = stats::tail(&mut lat);
    let lag = stats::tail(&mut lag);
    format!(
        "rung live={} sessions={} offered={:.0}/s ingest={:.0}/s events={} \
         latency p50={:.2}ms p{}={:.2}ms send_lag p{}={:.3}ms refused={}/{} \
         hub_cpu={:.1}ns/sample late_depth={} lane_fill={:.2} demotions={} promotions={} \
         sustained={}",
        r.live,
        r.sessions,
        r.offered,
        r.ingest_rate,
        r.events,
        lat.map_or(f64::NAN, |t| t.p50),
        lat.map_or(0.0, |t| t.tail_pct),
        lat.map_or(f64::NAN, |t| t.tail),
        lag.map_or(0.0, |t| t.tail_pct),
        lag.map_or(f64::NAN, |t| t.tail),
        r.refused,
        r.attempted,
        r.hub_cpu_ns as f64 / r.ingested().max(1) as f64,
        r.late_depth,
        r.lane_fill.iter().sum::<f64>() / r.lane_fill.len().max(1) as f64,
        r.counter_delta(|s| s.demotions),
        r.counter_delta(|s| s.promotions),
        r.sustained()
    )
}

fn fleet_header(setup: &FleetSetup, churn: bool, outcome: &mut Outcome) {
    let (rungs, nominal) = ladder(churn);
    let ladder_json: Vec<String> = rungs
        .iter()
        .map(|l| (*l as u64 * inputs::FS).to_string())
        .collect();
    outcome.header.extend([
        (
            "rungs_samples_per_s".to_string(),
            format!("[{}]", ladder_json.join(", ")),
        ),
        (
            "nominal_samples_per_s".to_string(),
            (rungs[nominal] as u64 * inputs::FS).to_string(),
        ),
        (
            "configs".to_string(),
            format!(
                "[{}]",
                setup
                    .palette
                    .iter()
                    .map(|n| format!("\"{}\"", n.name))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "input_digest".to_string(),
            format!("\"{:016x}\"", setup.digest),
        ),
    ]);
}

fn check_rung(r: &RungReport, outcome: &mut Outcome) {
    outcome.attempted += r.sessions as u64;
    outcome.failures.extend(r.failed.iter().cloned());
    if r.events == 0 {
        outcome
            .failures
            .push(format!("rung live={}: no events to check", r.live));
    }
}

fn fleet_workload(args: &Args, churn: bool, shards: usize) -> Outcome {
    let mut outcome = Outcome::default();
    if args.trace {
        fleet_traced(args, churn, shards, &mut outcome);
        return outcome;
    }
    let mut off = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut setup: Option<(FleetSetup, Hub)> = None;
    for _ in 0..SETUPS {
        if let Some((_, old)) = setup.take() {
            old.hub.shutdown();
        }
        let t = Instant::now();
        setup = Some(fleet_setup(args, churn, shards, &mut off));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (setup, hub) = setup.expect("set up at least once");
    fleet_header(&setup, churn, &mut outcome);
    let (rungs, saturated) = references(&setup, churn, &mut off);

    // The ladder, below capacity: latency and the correctness gate.
    for rung in &rungs {
        let r = fleet::play(&setup.target(&hub), rung, &mut off, None);
        outcome.lines.push(rung_line(&r));
        check_rung(&r, &mut outcome);
    }
    hub.hub.shutdown();
    // Saturated passes for the rest of the time, each on a fresh hub:
    // capacity and CPU per sample, with the shard never waiting for
    // input. Before the first pass and after each one the reference
    // kernel times the shard's CPU, and the passes' totals are scaled
    // by its typical time (see `speed`). Totals, not medians: like the
    // kernel's mean, they follow the share of the run the host spent
    // slow.
    let until = Instant::now() + Duration::from_secs(args.seconds / 2);
    let shard_cpus = &setup.placement.shards;
    let mut kernel = speed::measure(shard_cpus);
    let (mut passes, mut ingested, mut wall_s, mut cpu_ns) = (0, 0, 0.0, 0);
    while passes < SATURATED_PASSES || Instant::now() < until {
        let hub = setup.start_hub(&mut off);
        let r = fleet::play(&setup.target(&hub), &saturated, &mut off, None);
        hub.hub.shutdown();
        kernel.extend(speed::measure(shard_cpus));
        outcome.lines.push(format!("saturated {}", rung_line(&r)));
        check_rung(&r, &mut outcome);
        passes += 1;
        ingested += r.ingested();
        wall_s += r.wall_s;
        cpu_ns += r.hub_cpu_ns;
    }
    let rate = ingested as f64 / wall_s;
    let cpu = cpu_ns as f64 / ingested.max(1) as f64;
    let kernel = speed::typical_ns(kernel);
    let scale = kernel / speed::REFERENCE_NS;
    outcome.lines.push(format!(
        "{passes} saturated passes: {rate:.0} samples/s, {cpu:.1} ns/sample of shard CPU; \
         reference kernel {kernel:.0} ns (scale {scale:.3})"
    ));

    let m = &mut outcome.metrics;
    m.insert(
        "throughput_ref_samples_per_s".into(),
        (rate * scale, "samples/s"),
    );
    m.insert("cpu_ref_ns_per_sample".into(), (cpu / scale, "ns"));
    m.insert("setup_s".into(), (stats::median(&mut setup_s), "s"));
    m.insert("peak_rss_mb".into(), (host::peak_rss_mb(), "MB"));
    outcome
}

/// Open, stream 10 s, snapshot, close, restore and close the twin.
fn lifecycle(
    target: &Target<'_>,
    tracer: &mut Tracer,
    config: pan_tompkins::PipelineConfig,
    signal: &[i32],
) -> Result<(), service::ServiceError> {
    let open = tracer.begin("service", "open", 0);
    let id = target.client.open(config);
    tracer.end(open, 1);
    let id = id?;
    for chunk in signal[..2_000].chunks(50) {
        target.client.push(id, chunk)?;
    }
    let snap = tracer.begin("service", "snapshot", 0);
    let blob = target.client.snapshot(id);
    tracer.end(snap, 1);
    let blob = blob?;
    target.client.close(id)?;
    let restore = tracer.begin("service", "restore", 0);
    let twin = target.client.restore(config, &blob);
    tracer.end(restore, blob.len() as u64);
    let close = tracer.begin("service", "close", 0);
    let closed = target.client.close(twin?);
    tracer.end(close, 1);
    closed
}

/// A fixed round of lifecycle calls on every palette configuration, so
/// `snapshot`/`restore` are measured on every workload.
fn control_probe(target: &Target<'_>, tracer: &mut Tracer, outcome: &mut Outcome) {
    const ROUNDS: usize = 4;
    let mut expected_closed = 0;
    for round in 0..ROUNDS {
        for (c, n) in target.palette.iter().enumerate() {
            let signal = &target.signals[(round + c) % target.signals.len()];
            match lifecycle(target, tracer, n.config, signal) {
                Ok(()) => expected_closed += 2,
                Err(e) => outcome.failures.push(format!("control probe: {e}")),
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while expected_closed > 0 && Instant::now() < deadline {
        if let Ok(ev) = target.rx.recv_timeout(Duration::from_millis(10)) {
            if matches!(ev.output, SessionOutput::Closed(_)) {
                expected_closed -= 1;
            }
        }
    }
}

/// Per-layer metrics of the service, from a traced rung's spans and the
/// hub's counters. `r` is the traced nominal rung; `saturated` is its
/// untraced saturated pass, where shard CPU time is work rather than
/// waiting for input.
fn service_metrics(
    tracer: &Tracer,
    r: &RungReport,
    saturated: &RungReport,
    lane_ns: f64,
    shards: usize,
    m: &mut Metrics,
) {
    let med = |name: &str, unit_ns: f64| {
        let mut v = tracer.durations("service", name, unit_ns);
        stats::median(&mut v)
    };
    let mut push = tracer.durations("service", "push", 1e3);
    let push = stats::tail(&mut push);
    m.insert(
        "service.push_us.p50".into(),
        (push.map_or(f64::NAN, |t| t.p50), "us"),
    );
    m.insert(
        "service.push_us.p99".into(),
        (push.map_or(f64::NAN, |t| t.tail), "us"),
    );
    m.insert(
        "service.accept_ratio".into(),
        (1.0 - r.refused as f64 / r.attempted.max(1) as f64, "ratio"),
    );
    m.insert("service.open_us".into(), (med("open", 1e3), "us"));
    m.insert("service.close_us".into(), (med("close", 1e3), "us"));
    m.insert("service.snapshot_ms".into(), (med("snapshot", 1e6), "ms"));
    m.insert("service.restore_ms".into(), (med("restore", 1e6), "ms"));
    m.insert(
        "service.event_drain_us".into(),
        (med("event_drain", 1e3), "us"),
    );
    let mut control = r.control_ms.clone();
    m.insert(
        "service.control_p99_ms".into(),
        (stats::tail(&mut control).map_or(f64::NAN, |t| t.tail), "ms"),
    );
    let mut lat = r.latency_ms.clone();
    let lat = stats::tail(&mut lat);
    m.insert(
        "service.event_latency_p50_ms".into(),
        (lat.map_or(f64::NAN, |t| t.p50), "ms"),
    );
    m.insert(
        "service.event_latency_p99_ms".into(),
        (lat.map_or(f64::NAN, |t| t.tail), "ms"),
    );
    let mut lag = r.send_lag_ms.clone();
    m.insert(
        "generator.send_lag_p99_ms".into(),
        (stats::tail(&mut lag).map_or(f64::NAN, |t| t.tail), "ms"),
    );
    m.insert(
        "service.shard_busy_share".into(),
        (
            r.hub_cpu_ns as f64 / (r.wall_s * 1e9 * shards as f64),
            "ratio",
        ),
    );
    let mut depths = r.depths.clone();
    depths.sort_by(f64::total_cmp);
    m.insert(
        "service.queue_depth_p99_samples".into(),
        (stats::percentile(&depths, 99.0), "samples"),
    );
    m.insert(
        "service.enqueue_to_ingest_p99_us".into(),
        (
            fleet::histogram_percentile_us(&r.enqueue_to_ingest(), 99.0),
            "us",
        ),
    );
    let fill = r.lane_fill.iter().sum::<f64>() / r.lane_fill.len().max(1) as f64;
    m.insert("service.lane_fill_ratio".into(), (fill, "ratio"));
    let per_k = 1000.0 / r.sessions.max(1) as f64;
    m.insert(
        "service.demotions_per_ksession".into(),
        (
            r.counter_delta(|s| s.demotions) as f64 * per_k,
            "1/ksession",
        ),
    );
    m.insert(
        "service.promotions_per_ksession".into(),
        (
            r.counter_delta(|s| s.promotions) as f64 * per_k,
            "1/ksession",
        ),
    );
    m.insert(
        "service.unexplained_share".into(),
        (
            1.0 - lane_ns * saturated.ingested() as f64 / saturated.hub_cpu_ns.max(1) as f64,
            "ratio",
        ),
    );
}

fn core_metrics(s: &Search, m: &mut Metrics) {
    let (satisfying, probes) = s.satisfying();
    m.insert("core.evaluations".into(), (s.evaluations as f64, "count"));
    m.insert(
        "core.satisfying_ratio".into(),
        (satisfying as f64 / probes.max(1) as f64, "ratio"),
    );
    m.insert("core.resilience_s".into(), (s.resilience_s, "s"));
    m.insert("core.generate_s".into(), (s.generate_s, "s"));
    m.insert("core.search_s".into(), (s.search_s, "s"));
}

/// Self time of every layer, and the trace's size.
fn trace_metrics(tracer: &Tracer, m: &mut Metrics) {
    let by_layer = tracer.self_ns_by_layer();
    for layer in [
        "bench",
        "ecg",
        "approx_arith",
        "pan_tompkins",
        "quality",
        "hwmodel",
        "core",
        "service",
    ] {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        m.insert(format!("selftime_ms.{layer}"), (ns as f64 / 1e6, "ms"));
    }
    m.insert("trace.spans".into(), (tracer.spans().len() as f64, "count"));
}

/// Writes the spans as JSON lines under `.bench_trace/`.
fn write_trace(args: &Args, tracer: &Tracer, outcome: &mut Outcome) {
    let dir = std::path::Path::new(".bench_trace");
    let file = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, tracer.to_jsonl())) {
        Ok(()) => outcome.lines.push(format!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            file.display()
        )),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", file.display()),
    }
}

fn fleet_traced(args: &Args, churn: bool, shards: usize, outcome: &mut Outcome) {
    let mut tracer = Tracer::new(true);
    let m = &mut outcome.metrics;
    ledger::compile(&mut tracer, m);
    let root = tracer.begin("bench", "workload", args.seed);
    let (setup, hub) = fleet_setup(args, churn, shards, &mut tracer);
    fleet_header(&setup, churn, outcome);
    let m = &mut outcome.metrics;
    let synth = tracer.durations("ecg", "synth", 1e6);
    m.insert("ecg.synth_ms".into(), (synth[0], "ms"));
    let (rungs, saturated) = references(&setup, churn, &mut tracer);

    let (_, nominal) = ladder(churn);
    let rung = &rungs[nominal];
    let mut off = Tracer::new(false);
    let target = setup.target(&hub);
    let untraced = fleet::play(&target, rung, &mut off, None);
    let traced = fleet::play(&target, rung, &mut tracer, None);
    control_probe(&target, &mut tracer, outcome);
    hub.hub.shutdown();
    let hub = setup.start_hub(&mut off);
    let saturated = fleet::play(&setup.target(&hub), &saturated, &mut off, None);
    hub.hub.shutdown();
    for r in [&untraced, &traced] {
        outcome.lines.push(rung_line(r));
        check_rung(r, outcome);
    }
    outcome
        .lines
        .push(format!("saturated {}", rung_line(&saturated)));
    check_rung(&saturated, outcome);
    let m = &mut outcome.metrics;
    let per_sample = |r: &RungReport| r.gen_cpu_ns as f64 / r.samples.max(1) as f64;
    m.insert(
        "trace.overhead_ratio".into(),
        (per_sample(&traced) / per_sample(&untraced), "ratio"),
    );

    // The core layer, on a short record of the same seed.
    let record = inputs::record(args.seed, 100, PROBE_RECORD_LEN);
    let evaluator = Evaluator::new(&record);
    let accuracy = search::exact_accuracy(&evaluator);
    let probe = search::run(&evaluator, accuracy, &mut tracer);
    outcome.failures.extend(probe.violations());
    outcome.attempted += 3;
    search_lines(&probe, outcome);
    let m = &mut outcome.metrics;
    core_metrics(&probe, m);

    ledger::kernels(&mut tracer, &setup.signals[0], m);
    ledger::scoring(&mut tracer, &evaluator, m);
    tracer.end(root, 1);
    let lane_ns = (m["pan_tompkins.lane_ns_per_lane_sample.exact.w16"].0
        + m["pan_tompkins.lane_ns_per_lane_sample.b9.w16"].0)
        / 2.0;
    service_metrics(&tracer, &traced, &saturated, lane_ns, shards, m);
    trace_metrics(&tracer, m);
    write_trace(args, &tracer, outcome);
}

/// The search probe's chosen designs and its digest.
fn search_lines(s: &Search, outcome: &mut Outcome) {
    for (o, c) in s.outcomes() {
        outcome.lines.push(format!(
            "  {c:?}: chose {:?} after {} probes ({} satisfying); peak accuracy {:.4}, PSNR {:.2} dB",
            o.config.lsb_vector(),
            o.explored.len(),
            o.satisfying(),
            o.report.peak_accuracy,
            o.report.psnr_db
        ));
    }
    outcome.lines.push(format!(
        "search digest {:016x}: {} evaluations in {:.3} s (resilience {:.3} s, Algorithm 1 {:.3} s)",
        s.digest(),
        s.evaluations,
        s.search_s,
        s.resilience_s,
        s.generate_s
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_alone_decides_the_inputs() {
        for churn in [false, true] {
            let digest =
                |seed| fleet_inputs(seed, churn, 8_000_000, &mut Tracer::new(false)).digest;
            assert_eq!(digest(1), digest(1));
            assert_ne!(digest(1), digest(2));
        }
    }
}
