//! The open-loop fleet: one generator thread plays every session's
//! script against a [`SessionHub`] on the schedule, whatever the hub is
//! doing, and checks every event and final result against a solo
//! [`StreamingQrsDetector`] fed the same chunks.
//!
//! Latency is measured from a chunk's *intended* send time, so a
//! generator that runs late (or a refused call that has to be retried)
//! shows up in the latency of every event it delays.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pan_tompkins::{DetectionResult, DetectorEngine, StreamEvent, StreamingQrsDetector};
use service::{Client, HubMetrics, ServiceError, SessionEvent, SessionId, SessionOutput};

use crate::host;
use crate::inputs::{Named, Script};
use crate::stats;
use crate::trace::Tracer;

/// The p99 event-latency limit a rung must meet, ms.
pub const LATENCY_LIMIT_MS: f64 = 1000.0;

/// How often the generator samples the hub's counters.
const SAMPLE_EVERY: Duration = Duration::from_millis(25);

/// How long the generator waits on the event channel before retrying a
/// refused call.
const BACKOFF: Duration = Duration::from_millis(1);

/// How long the generator waits for the last results of a rung.
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);

/// What a solo detector emits for one script.
#[derive(Debug)]
pub struct Reference {
    /// Every event with the index of the chunk whose push returned it
    /// (`chunks.len()` for events returned by `finish`).
    pub events: Vec<(StreamEvent, usize)>,
    /// The final result.
    pub result: DetectionResult,
}

/// Runs the solo reference for `script`: a fresh detector on `engine`,
/// fed exactly the script's chunks.
#[must_use]
pub fn solo_reference(engine: &Arc<DetectorEngine>, signal: &[i32], script: &Script) -> Reference {
    let mut det = StreamingQrsDetector::from_engine(Arc::clone(engine));
    let mut events = Vec::new();
    let mut at = script.start;
    for (k, &size) in script.chunks.iter().enumerate() {
        events.extend(det.push(&signal[at..at + size]).into_iter().map(|e| (e, k)));
        at += size;
    }
    let (trailing, result) = det.finish();
    events.extend(trailing.into_iter().map(|e| (e, script.chunks.len())));
    Reference { events, result }
}

/// One rung: a set of scripts played at one offered rate.
pub struct Rung {
    /// Sessions live at once.
    pub live: usize,
    /// Offered rate, samples/s (`live` × 200).
    pub offered: f64,
    /// Every session of the rung.
    pub scripts: Vec<Script>,
    /// The solo reference of each script.
    pub refs: Vec<Arc<Reference>>,
    /// Hold every close until the hub has ingested all pushed input.
    pub defer_closes: bool,
}

impl Rung {
    /// The same sessions and references, saturated: the schedule is
    /// compressed `factor`-fold, so every call falls due at once and the
    /// generator pushes as fast as the hub accepts input.
    #[must_use]
    pub fn saturated(&self, factor: u64, defer_closes: bool) -> Rung {
        Rung {
            live: self.live,
            offered: self.offered * factor as f64,
            scripts: self.scripts.iter().map(|s| s.compressed(factor)).collect(),
            refs: self.refs.clone(),
            defer_closes,
        }
    }
}

/// A deliberate generator stall, for the accounting self-test.
#[derive(Debug, Clone, Copy)]
pub struct Stall {
    /// The generator sleeps when the first action due at or after this
    /// time (µs after the rung starts) falls due.
    pub before_us: u64,
    /// For this long.
    pub length: Duration,
}

/// What playing one rung measured.
#[derive(Debug, Default)]
pub struct RungReport {
    /// Sessions live at once.
    pub live: usize,
    /// Sessions played in total.
    pub sessions: usize,
    /// Offered rate, samples/s.
    pub offered: f64,
    /// Event latency from the finalizing chunk's intended send time, ms.
    pub latency_ms: Vec<f64>,
    /// How late the generator issued each call, ms.
    pub send_lag_ms: Vec<f64>,
    /// `open`, `snapshot`, `restore` and `close`→`Closed` latency, ms.
    pub control_ms: Vec<f64>,
    /// Client calls attempted, refusals included.
    pub attempted: u64,
    /// Calls refused with `Busy` or `Capacity`.
    pub refused: u64,
    /// Samples pushed.
    pub samples: u64,
    /// Samples ingested per second, from the first due chunk until the
    /// last result arrived.
    pub ingest_rate: f64,
    /// CPU time of the shard threads, ns.
    pub hub_cpu_ns: u64,
    /// CPU time of the generator thread, ns.
    pub gen_cpu_ns: u64,
    /// Wall time of the rung, s.
    pub wall_s: f64,
    /// Largest hub queue depth seen in the second half of the rung,
    /// samples.
    pub late_depth: usize,
    /// Sampled hub queue depths, samples.
    pub depths: Vec<f64>,
    /// Sampled occupied / total lanes.
    pub lane_fill: Vec<f64>,
    /// Hub counters at the start and the end of the rung.
    pub before: Option<HubMetrics>,
    /// See `before`.
    pub after: Option<HubMetrics>,
    /// Sessions whose stream or result differed from the solo run.
    pub failed: Vec<String>,
    /// Events checked against the solo run.
    pub events: usize,
}

impl RungReport {
    /// p99 event latency, with every refused call counted as a miss.
    #[must_use]
    pub fn p99_with_refusals(&self) -> f64 {
        let mut all = self.latency_ms.clone();
        all.extend(std::iter::repeat_n(f64::INFINITY, self.refused as usize));
        all.sort_by(f64::total_cmp);
        stats::percentile(&all, 99.0)
    }

    /// Whether the rung meets the latency limit without a growing
    /// backlog (less than one second of offered input queued in its
    /// second half).
    #[must_use]
    pub fn sustained(&self) -> bool {
        self.failed.is_empty()
            && self.p99_with_refusals() <= LATENCY_LIMIT_MS
            && (self.late_depth as f64) <= self.offered
    }

    /// Samples the shard threads ingested during the rung.
    #[must_use]
    pub fn ingested(&self) -> u64 {
        match (&self.before, &self.after) {
            (Some(b), Some(a)) => a.samples_in() - b.samples_in(),
            _ => 0,
        }
    }

    /// Per-bucket counts of the hub's enqueue→ingest histogram over the
    /// rung.
    #[must_use]
    pub fn enqueue_to_ingest(&self) -> Vec<u64> {
        match (&self.before, &self.after) {
            (Some(b), Some(a)) => a
                .latency_histogram()
                .iter()
                .zip(b.latency_histogram())
                .map(|(x, y)| x - y)
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Sum of a per-shard counter's growth over the rung.
    #[must_use]
    pub fn counter_delta(&self, f: impl Fn(&service::ShardMetricsSnapshot) -> u64) -> u64 {
        match (&self.before, &self.after) {
            (Some(b), Some(a)) => {
                a.shards.iter().map(&f).sum::<u64>() - b.shards.iter().map(&f).sum::<u64>()
            }
            _ => 0,
        }
    }
}

/// Upper edge, µs, of the bucket holding the `pct` percentile of a
/// power-of-two histogram.
#[must_use]
pub fn histogram_percentile_us(counts: &[u64], pct: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    let rank = ((pct / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return (1u64 << (i + 1)) as f64;
        }
    }
    f64::INFINITY
}

#[derive(Debug, Clone, Copy)]
enum Action {
    Open,
    Push(usize),
    Migrate,
    Close,
}

/// Event bookkeeping of one rung.
struct Collector<'r> {
    t0: Instant,
    scripts: &'r [Script],
    refs: &'r [Arc<Reference>],
    /// Session id → (script, retired). A retired id was migrated away:
    /// what it emits after the snapshot is the flush of a stream that
    /// continues under the new id, and its `Closed` only acknowledges
    /// the close.
    ids: HashMap<u64, (usize, bool)>,
    cursor: Vec<usize>,
    /// Scripts already reported as failed.
    bad: Vec<bool>,
    done: usize,
    close_issued: HashMap<u64, Instant>,
    /// Deferred closes only: when the hub had ingested every pushed
    /// sample, and the shard threads' CPU time then.
    caught_up: Option<(Instant, u64)>,
    report: RungReport,
}

impl Collector<'_> {
    fn intended(&self, script: usize, chunk: usize) -> Instant {
        let s = &self.scripts[script];
        let due = s.due_us.get(chunk).copied().unwrap_or_else(|| s.close_us());
        self.t0 + Duration::from_micros(due)
    }

    fn fail(&mut self, s: usize, why: String) {
        if !self.bad[s] {
            self.bad[s] = true;
            self.report.failed.push(format!("session {s}: {why}"));
        }
    }

    fn on_event(&mut self, ev: SessionEvent, now: Instant) {
        let raw = ev.id.as_u64();
        let Some(&(s, retired)) = self.ids.get(&raw) else {
            self.report
                .failed
                .push(format!("output for unknown session {raw:#x}"));
            return;
        };
        match ev.output {
            SessionOutput::Event(_) if retired => {}
            SessionOutput::Event(e) => {
                let c = self.cursor[s];
                match self.refs[s].events.get(c) {
                    Some((want, chunk)) if *want == e => {
                        let late = now.saturating_duration_since(self.intended(s, *chunk));
                        self.report.latency_ms.push(late.as_secs_f64() * 1e3);
                        self.report.events += 1;
                        self.cursor[s] += 1;
                    }
                    other => {
                        let why = format!("event {c} is {e:?}, the solo run's is {other:?}");
                        self.fail(s, why);
                    }
                }
            }
            SessionOutput::Closed(result) => {
                if let Some(at) = self.close_issued.remove(&raw) {
                    let ms = now.saturating_duration_since(at).as_secs_f64() * 1e3;
                    self.report.control_ms.push(ms);
                }
                if retired {
                    return;
                }
                let want = &self.refs[s];
                if self.cursor[s] != want.events.len() {
                    let why = format!(
                        "{} of {} events before close",
                        self.cursor[s],
                        want.events.len()
                    );
                    self.fail(s, why);
                } else if *result != want.result {
                    self.fail(s, "final result differs from the solo run".to_string());
                }
                self.done += 1;
            }
        }
    }

    /// Takes every event already delivered; one `event_drain` span per
    /// non-empty batch.
    fn drain(&mut self, rx: &Receiver<SessionEvent>, tracer: &mut Tracer) {
        let start = Instant::now();
        let mut n = 0;
        while let Ok(ev) = rx.try_recv() {
            self.on_event(ev, Instant::now());
            n += 1;
        }
        if n > 0 {
            tracer.record("service", "event_drain", start, Instant::now(), 0, n);
        }
    }
}

/// The generator's view of the hub: the client, the event receiver and
/// the palette sessions are opened with.
pub struct Target<'a> {
    /// Session API.
    pub client: &'a Client,
    /// The hub's event fan-out.
    pub rx: &'a Receiver<SessionEvent>,
    /// Pipeline configurations, indexed by `Script::config`.
    pub palette: &'a [Named],
    /// Signals, indexed by `Script::signal`.
    pub signals: &'a [Vec<i32>],
}

/// Retries `call` while the hub refuses it, waiting on the event channel
/// in between. Counts every attempt and refusal.
fn retry<T>(
    col: &mut Collector<'_>,
    target: &Target<'_>,
    tracer: &mut Tracer,
    mut call: impl FnMut() -> Result<T, ServiceError>,
) -> Result<T, ServiceError> {
    loop {
        col.report.attempted += 1;
        match call() {
            Err(ServiceError::Busy | ServiceError::Capacity) => {
                col.report.refused += 1;
                // Back off on the event channel rather than spin: the
                // hub makes room as it ingests.
                if let Ok(ev) = target.rx.recv_timeout(BACKOFF) {
                    col.on_event(ev, Instant::now());
                }
                col.drain(target.rx, tracer);
            }
            other => return other,
        }
    }
}

/// Plays `rung` open loop and returns what it measured.
///
/// Every action runs at its due time or as soon after as the generator
/// can; between actions the generator blocks on the event channel, so
/// events are timestamped as they arrive.
#[allow(clippy::too_many_lines)]
pub fn play(
    target: &Target<'_>,
    rung: &Rung,
    tracer: &mut Tracer,
    stall: Option<Stall>,
) -> RungReport {
    let scripts = &rung.scripts;
    let mut actions: Vec<(u64, usize, Action)> = Vec::new();
    for (i, s) in scripts.iter().enumerate() {
        actions.push((s.open_us, i, Action::Open));
        for (k, &due) in s.due_us.iter().enumerate() {
            actions.push((due, i, Action::Push(k)));
            if s.migrate_after == Some(k) {
                actions.push((due, i, Action::Migrate));
            }
        }
        if !rung.defer_closes {
            actions.push((s.close_us(), i, Action::Close));
        }
    }
    if rung.defer_closes {
        // Due once the hub's queues are empty, in script order.
        actions.extend((0..scripts.len()).map(|i| (u64::MAX, i, Action::Close)));
    }
    // Stable: each script's actions keep their order.
    actions.sort_by_key(|a| a.0);
    let streaming_end_us = actions
        .iter()
        .rev()
        .find(|a| a.0 != u64::MAX)
        .map_or(0, |a| a.0);

    let mut col = Collector {
        t0: Instant::now(),
        scripts,
        refs: &rung.refs,
        ids: HashMap::with_capacity(scripts.len() * 2),
        cursor: vec![0; scripts.len()],
        bad: vec![false; scripts.len()],
        done: 0,
        close_issued: HashMap::new(),
        caught_up: None,
        report: RungReport {
            live: rung.live,
            sessions: scripts.len(),
            offered: rung.offered,
            before: Some(target.client.metrics()),
            ..RungReport::default()
        },
    };
    let mut live_ids: Vec<Option<SessionId>> = vec![None; scripts.len()];
    let mut offsets: Vec<usize> = scripts.iter().map(|s| s.start).collect();
    let hub_cpu0 = host::threads_cpu_ns("xbiosip-shard");
    let gen_cpu0 = host::thread_cpu_ns();
    let mut next_sample = Instant::now();
    let mut stall = stall;
    col.t0 = Instant::now();
    let first_due = col.t0
        + Duration::from_micros(
            scripts
                .iter()
                .filter_map(|s| s.due_us.first())
                .copied()
                .min()
                .unwrap_or(0),
        );
    let half = col.t0 + Duration::from_micros(streaming_end_us / 2);

    for &(due, i, action) in &actions {
        if due == u64::MAX && col.caught_up.is_none() {
            wait_until_ingested(&mut col, target, tracer);
        }
        let due_at = col.t0 + Duration::from_micros(due.min(streaming_end_us));
        loop {
            col.drain(target.rx, tracer);
            let now = Instant::now();
            if now >= next_sample {
                sample_hub(target.client, &mut col.report, now >= half);
                next_sample = now + SAMPLE_EVERY;
            }
            if now >= due_at {
                break;
            }
            let wait = (due_at - now).min(next_sample.saturating_duration_since(now));
            match target.rx.recv_timeout(wait) {
                Ok(ev) => col.on_event(ev, Instant::now()),
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {}
            }
        }
        if let Some(s) = stall.filter(|s| due >= s.before_us) {
            std::thread::sleep(s.length);
            stall = None;
        }
        col.report.send_lag_ms.push(
            Instant::now()
                .saturating_duration_since(due_at)
                .as_secs_f64()
                * 1e3,
        );
        let script = &scripts[i];
        let config = target.palette[script.config].config;
        let outcome = match action {
            Action::Open => {
                let start = Instant::now();
                let open = tracer.begin("service", "open", i as u64);
                let r = retry(&mut col, target, tracer, || target.client.open(config));
                tracer.end(open, 1);
                r.map(|id| {
                    col.report
                        .control_ms
                        .push(start.elapsed().as_secs_f64() * 1e3);
                    col.ids.insert(id.as_u64(), (i, false));
                    live_ids[i] = Some(id);
                })
            }
            Action::Push(k) => {
                let size = script.chunks[k];
                let chunk = &target.signals[script.signal][offsets[i]..offsets[i] + size];
                offsets[i] += size;
                col.report.samples += size as u64;
                let id = live_ids[i];
                let push = tracer.begin("service", "push", i as u64);
                let r = retry(&mut col, target, tracer, || match id {
                    Some(id) => target.client.push(id, chunk),
                    None => Err(ServiceError::Gone),
                });
                tracer.end(push, size as u64);
                r
            }
            Action::Migrate => migrate(&mut col, target, tracer, &mut live_ids, i),
            Action::Close => {
                let id = live_ids[i];
                let close = tracer.begin("service", "close", i as u64);
                let r = retry(&mut col, target, tracer, || match id {
                    Some(id) => target.client.close(id),
                    None => Err(ServiceError::Gone),
                });
                tracer.end(close, 1);
                if let Some(id) = id {
                    col.close_issued.insert(id.as_u64(), Instant::now());
                }
                r
            }
        };
        if let Err(e) = outcome {
            col.fail(i, format!("{action:?} failed: {e}"));
        }
    }

    let deadline = Instant::now() + DRAIN_DEADLINE;
    while col.done < scripts.len() && Instant::now() < deadline {
        match target.rx.recv_timeout(Duration::from_millis(5)) {
            Ok(ev) => col.on_event(ev, Instant::now()),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    if col.done < scripts.len() {
        col.report.failed.push(format!(
            "{} sessions never delivered their final result",
            scripts.len() - col.done
        ));
    }
    // A saturated pass ends when its input is ingested: the deferred
    // closes are not part of its work.
    let (end, hub_cpu1) = col
        .caught_up
        .unwrap_or_else(|| (Instant::now(), host::threads_cpu_ns("xbiosip-shard")));
    let mut report = col.report;
    report.hub_cpu_ns = hub_cpu1 - hub_cpu0;
    report.gen_cpu_ns = host::thread_cpu_ns() - gen_cpu0;
    report.after = Some(target.client.metrics());
    report.wall_s = end.duration_since(first_due).as_secs_f64();
    report.ingest_rate = report.ingested() as f64 / report.wall_s;
    report
}

/// `snapshot` → `close` → `restore`: the session continues under a new
/// id, and its old id's `Closed` only acknowledges the close.
fn migrate(
    col: &mut Collector<'_>,
    target: &Target<'_>,
    tracer: &mut Tracer,
    live_ids: &mut [Option<SessionId>],
    i: usize,
) -> Result<(), ServiceError> {
    let old = live_ids[i].ok_or(ServiceError::Gone)?;
    let config = target.palette[col.scripts[i].config].config;
    let start = Instant::now();
    let snap = tracer.begin("service", "snapshot", i as u64);
    let blob = retry(col, target, tracer, || target.client.snapshot(old));
    tracer.end(snap, 1);
    let blob = blob?;
    col.report
        .control_ms
        .push(start.elapsed().as_secs_f64() * 1e3);
    // Every event emitted before the snapshot was sent before its reply:
    // take them under the live id before retiring it.
    col.drain(target.rx, tracer);
    col.ids.insert(old.as_u64(), (i, true));
    let close = tracer.begin("service", "close", i as u64);
    let closed = retry(col, target, tracer, || target.client.close(old));
    tracer.end(close, 1);
    closed?;
    col.close_issued.insert(old.as_u64(), Instant::now());
    let start = Instant::now();
    let restore = tracer.begin("service", "restore", i as u64);
    let id = retry(col, target, tracer, || target.client.restore(config, &blob));
    tracer.end(restore, blob.len() as u64);
    let id = id?;
    col.report
        .control_ms
        .push(start.elapsed().as_secs_f64() * 1e3);
    col.ids.insert(id.as_u64(), (i, false));
    live_ids[i] = Some(id);
    Ok(())
}

/// Takes events until the hub's queues are empty.
fn wait_until_ingested(col: &mut Collector<'_>, target: &Target<'_>, tracer: &mut Tracer) {
    let deadline = Instant::now() + DRAIN_DEADLINE;
    while Instant::now() < deadline {
        let m = target.client.metrics();
        if m.shards.iter().all(|s| s.queue_depth_samples == 0) {
            break;
        }
        if let Ok(ev) = target.rx.recv_timeout(BACKOFF) {
            col.on_event(ev, Instant::now());
        }
        col.drain(target.rx, tracer);
    }
    col.caught_up = Some((Instant::now(), host::threads_cpu_ns("xbiosip-shard")));
}

fn sample_hub(client: &Client, report: &mut RungReport, late: bool) {
    let m = client.metrics();
    let depth: usize = m.shards.iter().map(|s| s.queue_depth_samples).sum();
    let (occupied, lanes) = m.lane_occupancy();
    report.depths.push(depth as f64);
    if lanes > 0 {
        report.lane_fill.push(occupied as f64 / lanes as f64);
    }
    if late {
        report.late_depth = report.late_depth.max(depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use service::{ServiceConfig, SessionHub};

    /// Plays `rung` on a fresh one-shard hub.
    fn play_fresh(
        rung: &Rung,
        palette: &[Named],
        signals: &[Vec<i32>],
        stall: Option<Stall>,
    ) -> RungReport {
        let mut hub = SessionHub::new(ServiceConfig::default().with_shards(1));
        let client = hub.client();
        let rx = hub.take_events().expect("event receiver taken once");
        let target = Target {
            client: &client,
            rx: &rx,
            palette,
            signals,
        };
        let report = play(&target, rung, &mut Tracer::new(false), stall);
        hub.shutdown();
        report
    }

    fn p99(values: &[f64]) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        stats::percentile(&v, 99.0)
    }

    /// The open-loop accounting: a stall in the generator must show up
    /// in event latency measured from the intended send time, and in
    /// the generator's own send lag.
    #[test]
    fn a_generator_stall_shows_in_latency_and_send_lag() {
        const SESSIONS: usize = 64;
        let palette = inputs::named(&["A2"]);
        let signals: Vec<Vec<i32>> = (0..4)
            .map(|i| inputs::record(5, i, 4_000).samples().to_vec())
            .collect();
        // Aligned phases: every session sends at the same instants, so a
        // stall just before one of them delays a whole wave by its full
        // length.
        let scripts = inputs::steady_scripts(5, 0, SESSIONS, 24, 1, signals.len(), 4_000, true);
        let engine = Arc::new(DetectorEngine::new(palette[0].config));
        let refs = scripts
            .iter()
            .map(|s| Arc::new(solo_reference(&engine, &signals[s.signal], s)))
            .collect();
        let rung = Rung {
            live: SESSIONS,
            offered: (SESSIONS as u64 * inputs::FS) as f64,
            scripts,
            refs,
            defer_closes: false,
        };
        let stall = Stall {
            before_us: rung.scripts[0].due_us[15],
            length: Duration::from_millis(1000),
        };
        let stall_ms = stall.length.as_secs_f64() * 1e3;

        let base = play_fresh(&rung, &palette, &signals, None);
        let stalled = play_fresh(&rung, &palette, &signals, Some(stall));
        assert!(base.failed.is_empty(), "{:?}", base.failed);
        assert!(stalled.failed.is_empty(), "{:?}", stalled.failed);
        assert_eq!(base.events, stalled.events);
        assert!(
            base.events > 200,
            "too few events to test a p99: {}",
            base.events
        );

        // The stalled wave's events are timed from when they were due, so
        // the p99 holds the whole stall; timed from the late send it
        // would stay near the base run's.
        let (lat_base, lat_stalled) = (p99(&base.latency_ms), p99(&stalled.latency_ms));
        assert!(lat_base < stall_ms / 10.0, "base p99 {lat_base:.2} ms");
        assert!(
            lat_stalled >= stall_ms,
            "p99 event latency rose from {lat_base:.2} ms to only {lat_stalled:.2} ms"
        );
        let lag = p99(&stalled.send_lag_ms);
        assert!(
            lag >= stall_ms,
            "p99 send lag {lag:.2} ms hides a {stall_ms} ms stall"
        );
        assert!(p99(&base.send_lag_ms) < stall_ms / 10.0);
    }
}
