//! The per-layer ledger of a traced run: timed calls into each layer's
//! public functions on the workload's own inputs, one span per batch of
//! calls with the work it did as the span's count.

use std::hint::black_box;
use std::sync::Arc;

use approx_arith::{ArithConfig, TapMultiplier};
use hwmodel::{CalibratedModel, StageCost};
use pan_tompkins::{
    DetectorEngine, LaneBank, OnlineClassifier, PipelineConfig, QrsDetector, StageKind,
    StreamingQrsDetector,
};
use quality::{PeakMatcher, Ssim};
use xbiosip::{EvalOptions, Evaluator};

use crate::inputs::{self, Named};
use crate::stats;
use crate::trace::Tracer;
use crate::Metrics;

/// The Pan-Tompkins low-pass filter taps.
const LPF_TAPS: [i64; 11] = [1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1];

/// Chunk size of the solo runs: 250 ms at 200 Hz.
const CHUNK: usize = 50;

fn exact_and_b9() -> [(&'static str, PipelineConfig); 2] {
    let named = inputs::named(&["A2", "B9"]);
    [("exact", named[0].config), ("b9", named[1].config)]
}

/// Compiles the multiplier of every stage of every hardware
/// configuration. Run first in a process, this is the cold compile
/// that set-up pays.
pub fn compile(tracer: &mut Tracer, m: &mut Metrics) {
    let configs = inputs::all_hardware();
    let open = tracer.begin("approx_arith", "compile", 0);
    for c in &configs {
        for stage in StageKind::ALL {
            black_box(ArithConfig::new(c.config.stage(stage)).compiled_multiplier());
        }
    }
    tracer.end(open, (configs.len() * 5) as u64);
    let ms = tracer.durations("approx_arith", "compile", 1e6);
    m.insert("approx_arith.compile_ms".into(), (ms[0], "ms"));
}

/// Runs every kernel-level measurement on `signal`.
#[allow(clippy::too_many_lines)]
pub fn kernels(tracer: &mut Tracer, signal: &[i32], m: &mut Metrics) {
    let xs: Vec<i64> = signal.iter().map(|&s| i64::from(s) << 4).collect();
    for (label, config) in exact_and_b9() {
        let mult = ArithConfig::new(config.stage(StageKind::Lpf)).compiled_multiplier();
        let taps: Vec<TapMultiplier> = LPF_TAPS
            .iter()
            .map(|&c| TapMultiplier::new(&mult, c))
            .collect();
        let name = if label == "exact" {
            "tap_mul.exact"
        } else {
            "tap_mul.b9"
        };
        let open = tracer.begin("approx_arith", name, 0);
        let mut acc = 0i64;
        for &x in &xs {
            for t in &taps {
                acc = acc.wrapping_add(t.mul_clamped(black_box(x)));
            }
        }
        black_box(acc);
        tracer.end(open, (xs.len() * taps.len()) as u64);
        m.insert(
            format!("approx_arith.tap_mul_ns.{label}"),
            (tracer.ns_per_unit("approx_arith", name), "ns"),
        );
    }

    let all_tables: usize = inputs::all_hardware()
        .iter()
        .map(|c| DetectorEngine::new(c.config).shared_table_bytes())
        .sum();
    m.insert(
        "approx_arith.shared_table_bytes.all".into(),
        (all_tables as f64, "bytes"),
    );

    for (label, config) in exact_and_b9() {
        let (build, solo, batch) = match label {
            "exact" => ("engine_build.exact", "solo.exact", "batch_detect.exact"),
            _ => ("engine_build.b9", "solo.b9", "batch_detect.b9"),
        };
        let mut engine = None;
        for _ in 0..5 {
            engine = Some(tracer.time("pan_tompkins", build, 1, || {
                Arc::new(DetectorEngine::new(config))
            }));
        }
        let engine = engine.expect("built five times");
        let mut builds = tracer.durations("pan_tompkins", build, 1e6);
        m.insert(
            format!("pan_tompkins.engine_build_ms.{label}"),
            (stats::median(&mut builds), "ms"),
        );
        if label == "b9" {
            m.insert(
                "approx_arith.shared_table_bytes.b9".into(),
                (engine.shared_table_bytes() as f64, "bytes"),
            );
        }

        for _ in 0..3 {
            let open = tracer.begin("pan_tompkins", solo, 0);
            let mut det = StreamingQrsDetector::from_engine(Arc::clone(&engine));
            let mut events = 0;
            for chunk in signal.chunks(CHUNK) {
                events += det.push(chunk).len();
            }
            black_box((events, det.finish()));
            tracer.end(open, signal.len() as u64);
        }
        m.insert(
            format!("pan_tompkins.solo_ns_per_sample.{label}"),
            (tracer.ns_per_unit("pan_tompkins", solo), "ns"),
        );

        for width in [1usize, 16] {
            let name = match (label, width) {
                ("exact", 1) => "lane.exact.w1",
                ("exact", _) => "lane.exact.w16",
                (_, 1) => "lane.b9.w1",
                _ => "lane.b9.w16",
            };
            let ticks = signal.len().saturating_sub(37 * width).min(8_000);
            let mut frames = Vec::with_capacity(ticks * width);
            for t in 0..ticks {
                frames.extend((0..width).map(|lane| signal[t + 37 * lane]));
            }
            let mut bank = LaneBank::new(Arc::clone(&engine), width);
            let open = tracer.begin("pan_tompkins", name, 0);
            let mut events = 0;
            for block in frames.chunks(CHUNK * width) {
                events += bank.push(block).len();
            }
            black_box(events);
            tracer.end(open, (ticks * width) as u64);
            m.insert(
                format!("pan_tompkins.lane_ns_per_lane_sample.{label}.w{width}"),
                (tracer.ns_per_unit("pan_tompkins", name), "ns"),
            );
        }

        for _ in 0..3 {
            tracer.time("pan_tompkins", batch, 1, || {
                black_box(QrsDetector::new(config).detect(signal))
            });
        }
        let mut ms = tracer.durations("pan_tompkins", batch, 1e6);
        m.insert(
            format!("pan_tompkins.batch_detect_ms.{label}"),
            (stats::median(&mut ms), "ms"),
        );
    }

    // The decision tail alone, over the exact pipeline's MWI trace.
    let exact = PipelineConfig::exact();
    let full = QrsDetector::new(exact).detect(signal);
    let mwi = &full.expect_signals().mwi;
    let open = tracer.begin("pan_tompkins", "decision", 0);
    let mut classifier = OnlineClassifier::for_config(&exact);
    let mut out = Vec::new();
    for &x in mwi {
        classifier.push(black_box(x), &mut out);
    }
    classifier.finish(&mut out);
    black_box(out.len());
    tracer.end(open, mwi.len() as u64);
    m.insert(
        "pan_tompkins.decision_ns_per_sample".into(),
        (tracer.ns_per_unit("pan_tompkins", "decision"), "ns"),
    );

    // The snapshot codec on a B9 detector 20 s into a stream.
    let b9 = exact_and_b9()[1].1;
    let engine = Arc::new(DetectorEngine::new(b9));
    let mut det = StreamingQrsDetector::from_engine(Arc::clone(&engine));
    black_box(det.push(&signal[..signal.len().min(4_000)]));
    const REPS: u64 = 200;
    let open = tracer.begin("pan_tompkins", "snapshot_encode", 0);
    let mut blob = Vec::new();
    for _ in 0..REPS {
        blob = det.snapshot().expect("a live detector snapshots");
    }
    tracer.end(open, REPS);
    let open = tracer.begin("pan_tompkins", "snapshot_restore", 0);
    for _ in 0..REPS {
        black_box(
            StreamingQrsDetector::restore(Arc::clone(&engine), black_box(&blob))
                .expect("own blob restores"),
        );
    }
    tracer.end(open, REPS);
    m.insert(
        "pan_tompkins.snapshot_encode_us".into(),
        (
            tracer.ns_per_unit("pan_tompkins", "snapshot_encode") / 1e3,
            "us",
        ),
    );
    m.insert(
        "pan_tompkins.snapshot_restore_us".into(),
        (
            tracer.ns_per_unit("pan_tompkins", "snapshot_restore") / 1e3,
            "us",
        ),
    );
    m.insert(
        "pan_tompkins.snapshot_blob_bytes".into(),
        (blob.len() as f64, "bytes"),
    );
}

/// Scoring and energy estimation as the evaluator does them, then whole
/// evaluations, on `evaluator`'s record.
pub fn scoring(tracer: &mut Tracer, evaluator: &Evaluator, m: &mut Metrics) {
    let signal = evaluator.record().samples();
    let [(_, exact), (_, b9)] = exact_and_b9();
    let full = |c: PipelineConfig| {
        QrsDetector::new(c.with_footprint(pan_tompkins::Footprint::Retain)).detect(signal)
    };
    let (reference, approx) = (full(exact), full(b9));
    let to_f64 = |v: &[i64]| v.iter().map(|&x| x as f64).collect::<Vec<f64>>();
    let ref_hpf = to_f64(&reference.expect_signals().hpf);
    let approx_hpf = to_f64(&approx.expect_signals().hpf);
    let (matcher, ssim) = (PeakMatcher::default(), Ssim::default());
    const REPS: u64 = 20;
    let open = tracer.begin("quality", "score", 0);
    for _ in 0..REPS {
        black_box(quality::psnr(&ref_hpf, black_box(&approx_hpf)));
        black_box(ssim.mean(&ref_hpf, black_box(&approx_hpf)));
        black_box(matcher.match_peaks(reference.r_peaks(), black_box(approx.r_peaks())));
    }
    tracer.end(open, REPS);
    m.insert(
        "quality.score_us".into(),
        (tracer.ns_per_unit("quality", "score") / 1e3, "us"),
    );

    let configs: Vec<Named> = inputs::all_hardware();
    let calibrated = CalibratedModel::paper();
    const ENERGY_REPS: usize = 200;
    let open = tracer.begin("hwmodel", "energy", 0);
    for _ in 0..ENERGY_REPS {
        for c in &configs {
            let stages: f64 = StageKind::ALL
                .iter()
                .map(|&k| {
                    StageCost::fir(k.multipliers(), k.adders(), c.config.stage(k))
                        .cost()
                        .energy_fj
                })
                .sum();
            black_box((
                stages,
                calibrated.end_to_end_reduction(c.config.lsb_vector()),
            ));
        }
    }
    tracer.end(open, (ENERGY_REPS * configs.len()) as u64);
    m.insert(
        "hwmodel.energy_us".into(),
        (tracer.ns_per_unit("hwmodel", "energy") / 1e3, "us"),
    );

    for _ in 0..3 {
        tracer.time("core", "evaluate.b9", 1, || {
            black_box(evaluator.evaluate_with(&b9, &EvalOptions::batch()).ok())
        });
    }
    let mut ms = tracer.durations("core", "evaluate.b9", 1e6);
    m.insert("core.evaluate_ms".into(), (stats::median(&mut ms), "ms"));
}
