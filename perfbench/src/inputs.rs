//! Everything a workload feeds the program, derived from `--seed` alone:
//! synthetic ECG records, the configuration palette, and each session's
//! script (chunking, send schedule, lifetime, migration point).

use ecg::{EcgRecord, EcgSynthesizer, NoiseConfig, SynthConfig};
use pan_tompkins::{Footprint, PipelineConfig};
use xbiosip::configs::{config_by_name, paper_configs, Realization};

use crate::stats::Digest;

/// Sampling rate of every record and session, Hz.
pub const FS: u64 = 200;

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Synthesises record `index` of `seed`: heart rate and the
/// synthesiser's own seed are drawn from `(seed, index)`; the noise
/// level cycles clean → ambulatory → noisy with the index, so every
/// seed's pool has the same mix.
#[must_use]
pub fn record(seed: u64, index: usize, n_samples: usize) -> EcgRecord {
    let mut rng = Rng::new(seed, 0x5EC0_0000 + index as u64);
    let noise = match index % 3 {
        0 => NoiseConfig::clean(),
        1 => NoiseConfig::ambulatory(),
        _ => NoiseConfig::noisy(),
    };
    EcgSynthesizer::new(SynthConfig {
        name: "perfbench",
        n_samples,
        heart_rate_bpm: 60.0 + 30.0 * rng.unit(),
        noise,
        seed: rng.next_u64(),
        ..SynthConfig::default()
    })
    .synthesize()
}

/// A named pipeline configuration from the paper's hardware table.
#[derive(Debug, Clone, Copy)]
pub struct Named {
    /// Paper label (`A2`, `B1`..`B14`).
    pub name: &'static str,
    /// The configuration, with bounded footprint (sessions keep no
    /// full-signal history).
    pub config: PipelineConfig,
}

/// The named hardware configurations, in the paper's order.
#[must_use]
pub fn named(names: &[&str]) -> Vec<Named> {
    names
        .iter()
        .filter_map(|n| config_by_name(n))
        .map(|c| Named {
            name: c.name,
            config: c.config.with_footprint(Footprint::Bounded),
        })
        .collect()
}

/// All 15 hardware configurations of the paper (A2, B1–B14).
#[must_use]
pub fn all_hardware() -> Vec<Named> {
    paper_configs()
        .into_iter()
        .filter(|c| c.realization == Realization::Hardware)
        .map(|c| Named {
            name: c.name,
            config: c.config.with_footprint(Footprint::Bounded),
        })
        .collect()
}

/// One session's life as the generator plays it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    /// Index into the palette.
    pub config: usize,
    /// Index into the signal pool.
    pub signal: usize,
    /// First sample of the signal the session streams.
    pub start: usize,
    /// Chunk sizes, in order.
    pub chunks: Vec<usize>,
    /// Intended send time of each chunk, µs after the rung starts: the
    /// moment the chunk's last sample exists on the wearable.
    pub due_us: Vec<u64>,
    /// When the session opens, µs after the rung starts.
    pub open_us: u64,
    /// Migrate (`snapshot` → `close` → `restore`) right after this chunk.
    pub migrate_after: Option<usize>,
}

impl Script {
    /// Samples the session streams.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.chunks.iter().sum()
    }

    /// When the session closes: right after its last chunk.
    #[must_use]
    pub fn close_us(&self) -> u64 {
        self.due_us.last().copied().unwrap_or(self.open_us)
    }

    /// The same session with its schedule compressed `factor`-fold.
    #[must_use]
    pub fn compressed(&self, factor: u64) -> Script {
        Script {
            due_us: self.due_us.iter().map(|t| t / factor).collect(),
            open_us: self.open_us / factor,
            ..self.clone()
        }
    }

    /// Folds the script into a digest.
    pub fn digest(&self, d: &mut Digest) {
        for v in [self.config, self.signal, self.start, self.chunks.len()] {
            d.u64(v as u64);
        }
        for (&c, &t) in self.chunks.iter().zip(&self.due_us) {
            d.u64(c as u64);
            d.u64(t);
        }
        d.u64(self.open_us);
        d.u64(self.migrate_after.map_or(u64::MAX, |m| m as u64));
    }
}

/// `fleet_steady`: `sessions` wearables each streaming `chunks` fixed
/// 250 ms chunks, with phases spread evenly over the chunk period in a
/// seeded order (or all aligned when `aligned`), configs and signals
/// assigned round robin, and each session starting at a seeded offset
/// into its signal.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn steady_scripts(
    seed: u64,
    rung: u64,
    sessions: usize,
    chunks: usize,
    palette: usize,
    signals: usize,
    signal_len: usize,
    aligned: bool,
) -> Vec<Script> {
    const CHUNK: usize = (FS / 4) as usize;
    const PERIOD_US: u64 = 250_000;
    /// Lead before the first chunk, so every session is open in time.
    const LEAD_US: u64 = 300_000;
    let mut rng = Rng::new(seed, 0x57EA_D000 + rung);
    // A seeded permutation of evenly spaced phases.
    let mut slots: Vec<u64> = (0..sessions as u64).collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (0..sessions)
        .map(|i| {
            let phase = if aligned {
                0
            } else {
                slots[i] * PERIOD_US / sessions as u64
            };
            Script {
                config: i % palette,
                signal: (i / palette) % signals,
                start: rng.below((signal_len - chunks * CHUNK) as u64 + 1) as usize,
                chunks: vec![CHUNK; chunks],
                due_us: (0..chunks as u64)
                    .map(|k| LEAD_US + phase + (k + 1) * PERIOD_US)
                    .collect(),
                open_us: 0,
                migrate_after: None,
            }
        })
        .collect()
}

/// BLE-style flush sizes of `fleet_churn`, in samples (25 ms – 1 s).
const BURSTS: [usize; 8] = [5, 8, 12, 20, 32, 50, 90, 200];

/// `fleet_churn`: `live` slots, each running back-to-back short sessions
/// for `duration_us`. Lifetimes, signal offsets, bursty chunk sizes, idle
/// gaps and migrations are all seeded; configs go round robin from a
/// seeded start, so every seed has the same mix. Every session streams
/// in real time, so the live count and the offered rate stay constant.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn churn_scripts(
    seed: u64,
    rung: u64,
    live: usize,
    duration_us: u64,
    palette: usize,
    signals: usize,
    signal_len: usize,
    migrate_per_mille: u64,
) -> Vec<Script> {
    let mut rng = Rng::new(seed, 0xC4E2_0000 + rung);
    let us_per_sample = 1_000_000 / FS;
    let first_config = rng.below(palette as u64) as usize;
    let mut scripts = Vec::new();
    for _ in 0..live {
        let mut t = rng.below(1_000_000);
        loop {
            // 2–6 s of signal, cut short by the end of the rung.
            let want = (2 * FS + rng.below(4 * FS)) as usize;
            let room = (duration_us.saturating_sub(t) / us_per_sample) as usize;
            let total = want.min(room);
            if total < 2 * BURSTS[BURSTS.len() - 1] {
                break;
            }
            let mut chunks = Vec::new();
            let mut due_us = Vec::new();
            let mut sent = 0usize;
            while sent < total {
                let size = BURSTS[rng.below(BURSTS.len() as u64) as usize].min(total - sent);
                sent += size;
                chunks.push(size);
                due_us.push(t + sent as u64 * us_per_sample);
            }
            let migrate_after = (rng.below(1000) < migrate_per_mille && chunks.len() > 2)
                .then(|| 1 + rng.below(chunks.len() as u64 - 2) as usize);
            let close = *due_us.last().unwrap_or(&t);
            scripts.push(Script {
                config: (first_config + scripts.len()) % palette,
                signal: rng.below(signals as u64) as usize,
                start: rng.below((signal_len - total) as u64) as usize,
                chunks,
                due_us,
                open_us: t,
                migrate_after,
            });
            // The next wearable in this slot connects after a short gap.
            t = close + rng.below(200_000);
        }
    }
    scripts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_stream_in_real_time() {
        for s in churn_scripts(7, 0, 20, 10_000_000, 15, 4, 20_000, 200) {
            let mut sent = 0;
            for (c, t) in s.chunks.iter().zip(&s.due_us) {
                sent += c;
                assert_eq!(*t, s.open_us + sent as u64 * 5_000);
            }
            assert!(s.close_us() <= 10_000_000);
            assert!(s.start + s.samples() <= 20_000);
        }
        let steady = steady_scripts(7, 0, 30, 8, 3, 4, 20_000, false);
        assert!(steady
            .iter()
            .all(|s| s.samples() == 400 && s.start + 400 <= 20_000));
        assert!(steady.iter().any(|s| s.start != steady[0].start));
        assert_eq!(steady[4].config, 1);
    }
}
