//! The five Pan-Tompkins stages (paper Fig 3), each parameterised by the
//! stage's approximation triple — the per-sample *reference* datapath.
//!
//! All stages share the [`Stage`] streaming interface; the transfer
//! functions and operator counts follow the original Pan & Tompkins (1985)
//! integer realisation expanded to FIR form, which is what the paper's VHDL
//! implements and counts (§2, §4.2).
//!
//! Detection itself runs on the SoA kernels of [`crate::LaneBank`]: a solo
//! [`crate::StreamingQrsDetector`] is a one-lane bank and a batch
//! [`crate::QrsDetector::detect`] is one push of it. These stages are the
//! literal netlist walk, one sample and one tap at a time, that the lane
//! kernels are proven bit-identical against: [`detect_reference`] drives
//! them through the same decision tail, and the equivalence proptests, the
//! lane unit tests, and the `ext_lane_speed` gate compare every lane with
//! it. No detection path calls it.

pub mod derivative;
pub mod hpf;
pub mod lpf;
pub mod mwi;
pub mod squarer;

pub use derivative::Derivative;
pub use hpf::HighPassFilter;
pub use lpf::LowPassFilter;
pub use mwi::MovingWindowIntegrator;
pub use squarer::Squarer;

use approx_arith::OpCounter;

use crate::config::{PipelineConfig, StageKind};
use crate::detector::DetectionResult;
use crate::streaming::{DetectorTail, StreamEvent};

/// Streaming interface shared by all five stages.
pub trait Stage {
    /// Stage display name.
    fn name(&self) -> &'static str;

    /// Feeds one sample, returns this step's output.
    fn process(&mut self, x: i64) -> i64;

    /// Group delay in samples contributed by this stage.
    fn group_delay(&self) -> usize;

    /// Number of multiplier blocks in the stage netlist.
    fn multipliers(&self) -> u32;

    /// Number of adder blocks in the stage netlist.
    fn adders(&self) -> u32;

    /// Word-level operations performed so far.
    fn ops(&self) -> OpCounter;

    /// Multiplier operands clamped into the datapath range so far (see
    /// [`crate::ArithBackend::saturation_events`]).
    fn saturations(&self) -> u64;

    /// Additions whose exact sum wrapped the adder bus so far (see
    /// [`crate::ArithBackend::add_overflow_events`]).
    fn add_overflows(&self) -> u64;

    /// Clears signal state (delay lines), keeping configuration.
    fn reset(&mut self);

    /// Resets activity counters (ops, saturations, overflows), keeping
    /// configuration and signal state. `reset()` + `reset_counters()`
    /// returns the stage to its freshly-constructed observable state.
    fn reset_counters(&mut self);

    /// Processes a whole signal (convenience over [`Stage::process`]).
    fn process_signal(&mut self, signal: &[i64]) -> Vec<i64> {
        signal.iter().map(|x| self.process(*x)).collect()
    }
}

/// Runs `samples` through the scalar reference chain in `chunk`-sample
/// pushes: the five [`Stage::process`] walks feed the decision tail every
/// detector shares, which settles at each chunk boundary exactly as
/// [`crate::StreamingQrsDetector::push`] does. Returns the event stream
/// (trailing events included) and the final result, which the lane
/// kernels must reproduce bit for bit — for every configuration,
/// footprint, decision arithmetic and multiplier engine.
///
/// This is the oracle of the lane kernels, not a detection path: it is
/// slow by design (one multiplier-block walk per tap and sample).
#[must_use]
pub fn detect_reference(
    config: PipelineConfig,
    samples: &[i32],
    chunk: usize,
) -> (Vec<StreamEvent>, DetectionResult) {
    let engine = config.engine();
    let mut lpf = LowPassFilter::with_engine(config.stage(StageKind::Lpf), engine);
    let mut hpf = HighPassFilter::with_engine(config.stage(StageKind::Hpf), engine);
    let mut der = Derivative::with_engine(config.stage(StageKind::Derivative), engine);
    let mut sqr = Squarer::with_engine(config.stage(StageKind::Squarer), engine);
    let mut mwi = MovingWindowIntegrator::with_engine(config.stage(StageKind::Mwi), engine);
    let mut tail = DetectorTail::new(&config);
    let mut events = Vec::new();
    let mut outs: [Vec<i64>; 5] = Default::default();
    for chunk in samples.chunks(chunk.max(1)) {
        for out in &mut outs {
            out.clear();
        }
        for &x in chunk {
            let a = lpf.process(i64::from(x) << config.input_shift);
            let b = hpf.process(a);
            let c = der.process(b);
            let d = sqr.process(c);
            let e = mwi.process(d);
            for (out, v) in outs.iter_mut().zip([a, b, c, d, e]) {
                out.push(v);
            }
        }
        let [a, b, c, d, e] = &outs;
        tail.ingest_batch(1, 0, [a, b, c, d, e], None);
        tail.settle(false, config.max_misalignment(), &mut events);
    }
    tail.finish(config.max_misalignment(), &mut events);
    let stages: [&dyn Stage; 5] = [&lpf, &hpf, &der, &sqr, &mwi];
    let result = tail.take_result(
        stages.map(Stage::ops),
        stages.map(Stage::saturations),
        stages.map(Stage::add_overflows),
        stages.iter().map(|s| s.group_delay()).sum(),
    );
    (events, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_arith::StageArith;

    /// Every stage must satisfy the paper's operator-count table.
    #[test]
    fn operator_counts_match_paper() {
        let lpf = LowPassFilter::new(StageArith::exact());
        assert_eq!((lpf.multipliers(), lpf.adders()), (11, 10), "LPF");
        let hpf = HighPassFilter::new(StageArith::exact());
        assert_eq!((hpf.multipliers(), hpf.adders()), (32, 31), "HPF");
        let der = Derivative::new(StageArith::exact());
        assert_eq!((der.multipliers(), der.adders()), (4, 3), "DER");
        let sqr = Squarer::new(StageArith::exact());
        assert_eq!((sqr.multipliers(), sqr.adders()), (1, 0), "SQR");
        let mwi = MovingWindowIntegrator::new(StageArith::exact());
        assert_eq!((mwi.multipliers(), mwi.adders()), (0, 29), "MWI");
    }

    /// Total pipeline group delay stays fixed so detected peaks can be
    /// mapped back to raw-signal positions.
    #[test]
    fn total_group_delay() {
        let total = LowPassFilter::new(StageArith::exact()).group_delay()
            + HighPassFilter::new(StageArith::exact()).group_delay()
            + Derivative::new(StageArith::exact()).group_delay()
            + Squarer::new(StageArith::exact()).group_delay()
            + MovingWindowIntegrator::new(StageArith::exact()).group_delay();
        assert_eq!(total, (5 + 16 + 2) + 14);
    }
}
