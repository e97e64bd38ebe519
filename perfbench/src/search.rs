//! The XBioSiP methodology end to end, as `examples/design_space.rs` runs
//! it: per-stage resilience analysis, then Algorithm 1 on LPF+HPF under
//! a PSNR constraint, then on DER+SQR+MWI under the 0 % and <1 %
//! peak-accuracy-loss constraints.

use std::time::Instant;

use pan_tompkins::{PipelineConfig, StageKind};
use xbiosip::generation::{DesignGenerator, GenerationOutcome, StageSearchSpace};
use xbiosip::{EvalOptions, Evaluator, QualityConstraint, ResilienceProfile};

use crate::stats::Digest;
use crate::trace::Tracer;

/// PSNR the pre-processing design must keep, dB.
pub const MIN_PSNR_DB: f64 = 20.0;

/// One finished search.
pub struct Search {
    /// Algorithm 1 on LPF+HPF under `MinPsnr`.
    pub pre: GenerationOutcome,
    /// DER+SQR+MWI on top of `pre`, no peak-accuracy loss.
    pub lossless: GenerationOutcome,
    /// DER+SQR+MWI on top of `pre`, under 1 % peak-accuracy loss.
    pub lossy: GenerationOutcome,
    /// The three constraints, in the order above.
    pub constraints: [QualityConstraint; 3],
    /// Evaluations the search spent.
    pub evaluations: u64,
    /// Wall time of the resilience analysis, s.
    pub resilience_s: f64,
    /// Wall time of the three Algorithm 1 runs, s.
    pub generate_s: f64,
    /// Wall time of the whole search, s.
    pub search_s: f64,
}

impl Search {
    /// The three outcomes with their constraints.
    #[must_use]
    pub fn outcomes(&self) -> [(&GenerationOutcome, QualityConstraint); 3] {
        [
            (&self.pre, self.constraints[0]),
            (&self.lossless, self.constraints[1]),
            (&self.lossy, self.constraints[2]),
        ]
    }

    /// Digest of the chosen LSB vectors and the evaluation count: a perf
    /// change that alters the search result changes it.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for (o, _) in self.outcomes() {
            for l in o.config.lsb_vector() {
                d.u64(u64::from(l));
            }
        }
        d.u64(self.evaluations);
        d.value()
    }

    /// Outcomes whose chosen design misses its constraint.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        self.outcomes()
            .iter()
            .filter(|(o, c)| !c.is_satisfied_by(&o.report))
            .map(|(o, c)| format!("chosen design {:?} misses {c:?}", o.config.lsb_vector()))
            .collect()
    }

    /// Probes that satisfied their constraint, and all probes.
    #[must_use]
    pub fn satisfying(&self) -> (usize, usize) {
        self.outcomes().iter().fold((0, 0), |(s, n), (o, _)| {
            (s + o.satisfying(), n + o.explored.len())
        })
    }
}

/// Peak accuracy of the exact pipeline on the evaluator's record: the
/// base the accuracy-loss constraints are relative to.
#[must_use]
pub fn exact_accuracy(evaluator: &Evaluator) -> f64 {
    evaluator
        .evaluate_with(&PipelineConfig::exact(), &EvalOptions::batch())
        .map_or(0.0, |r| r.peak_accuracy)
}

/// Runs the methodology once.
#[must_use]
pub fn run(evaluator: &Evaluator, exact_accuracy: f64, tracer: &mut Tracer) -> Search {
    let evaluations0 = evaluator.evaluations();
    let t0 = Instant::now();
    let search = tracer.begin("core", "search", 0);

    let resilience = tracer.begin("core", "resilience", 0);
    let mut max_reduction = [0.0f64; 5];
    for stage in StageKind::ALL {
        let profile = tracer.time("core", "analyze", 1, || {
            ResilienceProfile::analyze(evaluator, stage)
        });
        max_reduction[stage.index()] = profile.max_energy_reduction();
    }
    tracer.end(resilience, 5);
    let resilience_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let generate = tracer.begin("core", "generate", 0);
    let (adds, mults) = DesignGenerator::paper_lists();
    let pre_constraint = QualityConstraint::MinPsnr(MIN_PSNR_DB);
    let pre = tracer.time("core", "algorithm1", 1, || {
        DesignGenerator::new(
            evaluator,
            pre_constraint,
            adds.clone(),
            mults.clone(),
            PipelineConfig::exact(),
        )
        .generate(vec![
            StageSearchSpace::even_lsbs(StageKind::Lpf, 16, max_reduction[0]),
            StageSearchSpace::even_lsbs(StageKind::Hpf, 16, max_reduction[1]),
        ])
    });
    let post = |constraint, tracer: &mut Tracer| {
        tracer.time("core", "algorithm1", 1, || {
            DesignGenerator::new(
                evaluator,
                constraint,
                adds.clone(),
                mults.clone(),
                pre.config,
            )
            .generate(vec![
                StageSearchSpace::even_lsbs(StageKind::Derivative, 4, max_reduction[2]),
                StageSearchSpace::even_lsbs(StageKind::Squarer, 8, max_reduction[3]),
                StageSearchSpace::even_lsbs(StageKind::Mwi, 16, max_reduction[4]),
            ])
        })
    };
    let lossless_constraint = QualityConstraint::MinPeakAccuracy(exact_accuracy);
    let lossy_constraint = QualityConstraint::MinPeakAccuracy(exact_accuracy * 0.99);
    let lossless = post(lossless_constraint, tracer);
    let lossy = post(lossy_constraint, tracer);
    tracer.end(generate, 3);
    let generate_s = t1.elapsed().as_secs_f64();

    let evaluations = evaluator.evaluations() - evaluations0;
    tracer.end(search, evaluations);
    Search {
        pre,
        lossless,
        lossy,
        constraints: [pre_constraint, lossless_constraint, lossy_constraint],
        evaluations,
        resilience_s,
        generate_s,
        search_s: t0.elapsed().as_secs_f64(),
    }
}
