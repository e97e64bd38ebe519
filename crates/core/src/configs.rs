//! The hardware configurations evaluated in the paper's Fig 12: the
//! Raspberry Pi software baseline (A1), the accurate hardware design (A2),
//! and the fourteen approximate designs B1..B14 with their per-stage LSB
//! assignments, exactly as printed in the figure's table.

use pan_tompkins::PipelineConfig;

/// How a configuration is realised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Realization {
    /// Software on a Raspberry Pi 3 B+ (ARMv8), HDMI/WiFi off.
    Software,
    /// The synthesized (possibly approximate) hardware design.
    Hardware,
}

/// A named hardware/software configuration from Fig 12.
#[derive(Debug, Clone)]
pub struct NamedConfig {
    /// The paper's label (`A1`, `A2`, `B1`..`B14`).
    pub name: &'static str,
    /// Software or hardware realisation.
    pub realization: Realization,
    /// The pipeline configuration (all-exact for A1/A2).
    pub config: PipelineConfig,
}

impl NamedConfig {
    /// Per-stage LSB vector.
    #[must_use]
    pub fn lsbs(&self) -> [u32; 5] {
        self.config.lsb_vector()
    }
}

/// Energy overhead of the software baseline relative to the accurate ASIC:
/// "the energy consumption of A1 is ~7 orders of magnitude higher than the
/// energy consumption of A2" (paper §6.2).
pub const SOFTWARE_ENERGY_ORDERS: f64 = 7.0;

/// The sixteen configurations of Fig 12, in the paper's order.
///
/// The B-design LSB table is reproduced verbatim from the figure:
///
/// | design | LPF | HPF | DER | SQR | MWI |
/// |--------|-----|-----|-----|-----|-----|
/// | B1     | 10  | 8   | 0   | 0   | 0   |
/// | B2     | 10  | 12  | 0   | 0   | 0   |
/// | B3     | 12  | 8   | 0   | 0   | 0   |
/// | B4     | 12  | 12  | 0   | 0   | 0   |
/// | B5     | 0   | 0   | 2   | 8   | 16  |
/// | B6     | 0   | 0   | 4   | 8   | 16  |
/// | B7     | 10  | 8   | 2   | 8   | 16  |
/// | B8     | 10  | 8   | 4   | 8   | 16  |
/// | B9     | 10  | 12  | 2   | 8   | 16  |
/// | B10    | 10  | 12  | 4   | 8   | 16  |
/// | B11    | 12  | 8   | 2   | 8   | 16  |
/// | B12    | 12  | 8   | 4   | 8   | 16  |
/// | B13    | 12  | 12  | 2   | 8   | 16  |
/// | B14    | 12  | 12  | 4   | 8   | 16  |
#[must_use]
pub fn paper_configs() -> Vec<NamedConfig> {
    let b_designs: [(&'static str, [u32; 5]); 14] = [
        ("B1", [10, 8, 0, 0, 0]),
        ("B2", [10, 12, 0, 0, 0]),
        ("B3", [12, 8, 0, 0, 0]),
        ("B4", [12, 12, 0, 0, 0]),
        ("B5", [0, 0, 2, 8, 16]),
        ("B6", [0, 0, 4, 8, 16]),
        ("B7", [10, 8, 2, 8, 16]),
        ("B8", [10, 8, 4, 8, 16]),
        ("B9", [10, 12, 2, 8, 16]),
        ("B10", [10, 12, 4, 8, 16]),
        ("B11", [12, 8, 2, 8, 16]),
        ("B12", [12, 8, 4, 8, 16]),
        ("B13", [12, 12, 2, 8, 16]),
        ("B14", [12, 12, 4, 8, 16]),
    ];
    let mut configs = vec![
        NamedConfig {
            name: "A1",
            realization: Realization::Software,
            config: PipelineConfig::exact(),
        },
        NamedConfig {
            name: "A2",
            realization: Realization::Hardware,
            config: PipelineConfig::exact(),
        },
    ];
    configs.extend(b_designs.iter().map(|(name, lsbs)| NamedConfig {
        name,
        realization: Realization::Hardware,
        config: PipelineConfig::least_energy(*lsbs),
    }));
    configs
}

/// Looks up a configuration by its paper label.
#[must_use]
pub fn config_by_name(name: &str) -> Option<NamedConfig> {
    paper_configs().into_iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pan_tompkins::DetectorEngine;

    #[test]
    fn sixteen_configs_in_paper_order() {
        let configs = paper_configs();
        assert_eq!(configs.len(), 16);
        assert_eq!(configs[0].name, "A1");
        assert_eq!(configs[1].name, "A2");
        assert_eq!(configs[2].name, "B1");
        assert_eq!(configs[15].name, "B14");
    }

    #[test]
    fn a_configs_are_exact() {
        for name in ["A1", "A2"] {
            let c = config_by_name(name).expect("exists");
            assert!(c.config.is_exact(), "{name} not exact");
        }
        assert_eq!(
            config_by_name("A1").expect("exists").realization,
            Realization::Software
        );
        assert_eq!(
            config_by_name("A2").expect("exists").realization,
            Realization::Hardware
        );
    }

    #[test]
    fn b9_and_b10_match_figure_table() {
        assert_eq!(
            config_by_name("B9").expect("exists").lsbs(),
            [10, 12, 2, 8, 16]
        );
        assert_eq!(
            config_by_name("B10").expect("exists").lsbs(),
            [10, 12, 4, 8, 16]
        );
    }

    #[test]
    fn b_designs_split_into_three_families() {
        // B1-B4: pre-processing only; B5-B6: signal processing only;
        // B7-B14: both.
        for i in 1..=4 {
            let c = config_by_name(&format!("B{i}")).expect("exists");
            let l = c.lsbs();
            assert!(l[0] > 0 && l[1] > 0 && l[2] == 0 && l[3] == 0 && l[4] == 0);
        }
        for i in 5..=6 {
            let c = config_by_name(&format!("B{i}")).expect("exists");
            let l = c.lsbs();
            assert!(l[0] == 0 && l[1] == 0 && l[2] > 0);
        }
        for i in 7..=14 {
            let c = config_by_name(&format!("B{i}")).expect("exists");
            let l = c.lsbs();
            assert!(l[0] > 0 && l[2] > 0 && l[4] == 16);
        }
    }

    /// Every approximate FIR tap of the fourteen B-designs compiles to the
    /// periodic-error form, so a silent fallback to the full magnitude
    /// table fails here — and B9's shared tables stay within 64 KiB.
    #[test]
    fn every_b_design_tap_compiles_to_the_periodic_form() {
        let mut approx_taps = 0;
        for c in paper_configs().iter().filter(|c| c.name.starts_with('B')) {
            let engine = DetectorEngine::new(c.config);
            for program in [
                engine.lpf_program(),
                engine.hpf_program(),
                engine.der_program(),
            ] {
                if program.arith().is_exact() {
                    continue;
                }
                let taps = program.tap_mults().expect("compiled engine");
                for (tap, _) in taps.iter().zip(program.taps()).filter(|(_, &k)| k != 0) {
                    assert!(
                        tap.is_periodic(),
                        "{} {} tap {} fell back to the full table",
                        c.name,
                        program.name(),
                        tap.coeff()
                    );
                    approx_taps += 1;
                }
            }
            if c.name == "B9" {
                let bytes = engine.shared_table_bytes();
                assert!(bytes <= 64 * 1024, "B9 shared tables: {bytes} B");
            }
        }
        // B1-B4: LPF + HPF (11 + 32); B5-B6: DER (4 nonzero);
        // B7-B14: all three (47).
        assert_eq!(approx_taps, 4 * 43 + 2 * 4 + 8 * 47);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(config_by_name("B99").is_none());
    }

    #[test]
    fn software_overhead_is_seven_orders() {
        assert_eq!(SOFTWARE_ENERGY_ORDERS, 7.0);
    }
}
