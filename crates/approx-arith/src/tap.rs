//! Per-tap compiled products — the FIR hot-loop fast path.
//!
//! A FIR stage multiplies a *varying* sample by a *fixed* integer
//! coefficient on every tap, every cycle. The generic compiled engine
//! ([`CompiledMultiplier`]) still pays four 8×8 block lookups plus three
//! word-level accumulations per 16×16 product; with one operand pinned, the
//! whole multiplier collapses to a function of the sample magnitude alone.
//! [`TapMultiplier`] compiles that function once per distinct `(width,
//! approximated LSBs, elementary kinds, |coefficient|)` and shares the
//! result process-wide behind an `Arc`, exactly like the 8×8 block LUTs of
//! [`crate::compiled`] — so a grid search touching many designs reuses
//! every tap it has ever compiled for a configuration.
//!
//! # Periodic error
//!
//! An approximate multiplier only corrupts its `k` least-significant
//! output cells, and against a small fixed coefficient that corruption
//! depends only on the low bits of the sample magnitude. So a tap is
//! usually exactly
//!
//! ```text
//! |a ⊗ c| = |a|·|c| + err[|a| & (2^k' − 1)],   k' = min(k, width − 1)
//! ```
//!
//! with one shared `i32` error table of `2^k'` entries (a few KiB instead
//! of the 2^(width−1)+1-entry magnitude table). Compilation never *assumes*
//! this: it builds the full magnitude table with the compiled engine, keeps
//! the periodic form ([`TapMultiplier::is_periodic`]) only if one
//! exhaustive pass proves it equal on every magnitude, and otherwise keeps
//! the full table. Either way the table it built is a witness only; the
//! chosen form is what the cache holds.
//!
//! The compiled taps are an *evaluation* artifact only: the modeled
//! hardware is still the recursive multiplier netlist (census, error
//! bounds, and energy accounting are untouched), and the products are
//! bit-for-bit those of [`CompiledMultiplier::mul_signed_clamped`] — and
//! therefore of the bit-level [`crate::multiplier::RecursiveMultiplier`]
//! walk (the equivalence is exhaustively tested below and re-checked in CI
//! by the `ext_streaming_speed` gate).
//!
//! # Example
//!
//! ```
//! use approx_arith::{CompiledMultiplier, FullAdderKind, Mult2x2Kind, TapMultiplier};
//!
//! let mul = CompiledMultiplier::new(16, 8, Mult2x2Kind::V1, FullAdderKind::Ama5);
//! let tap = TapMultiplier::new(&mul, 6); // the LPF's centre coefficient
//! for sample in [-1234i64, -1, 0, 1, 777, 32767] {
//!     assert_eq!(tap.mul_clamped(sample), mul.mul_signed_clamped(sample, 6));
//! }
//! // The product is |a|·6 plus an error read from a 256-entry i32 table.
//! assert!(tap.is_periodic());
//! assert_eq!(tap.shared_table_bytes(), 256 * 4);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::compiled::CompiledMultiplier;
use crate::full_adder::FullAdderKind;
use crate::mult2x2::Mult2x2Kind;

/// Cache key of one compiled tap: `(operand width, approximated LSBs,
/// elementary multiplier, elementary adder, |coefficient|)`.
type TapKey = (u32, u32, Mult2x2Kind, FullAdderKind, u64);

/// Upper bound on cached taps. The five Pan-Tompkins stages use seven
/// distinct coefficient magnitudes, so even a full 17-point LSB sweep over
/// several module pairs stays far below this; overflow sheds one arbitrary
/// entry at a time (in-use tables stay alive behind their `Arc`s).
const TAP_CACHE_CAP: usize = 1024;

/// The shared, coefficient-magnitude-specific half of an approximate tap:
/// the representation compilation proved correct.
#[derive(Clone)]
enum SharedTap {
    /// `table[m] = m·|c| + err[m & mask]` for every magnitude `m`.
    Periodic { mask: u64, err: Arc<[i32]> },
    /// The full magnitude-indexed product table — the fallback when the
    /// error is not periodic (or does not fit `i32`).
    Lut(Arc<Vec<u32>>),
}

fn tap_cache() -> MutexGuard<'static, HashMap<TapKey, SharedTap>> {
    static CACHE: OnceLock<Mutex<HashMap<TapKey, SharedTap>>> = OnceLock::new();
    // Every entry is inserted whole, so a thread that panicked while
    // holding the lock cannot have left the map half-written: recover the
    // guard instead of failing every later tap compilation (engines are
    // built on service shard workers).
    CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Returns the shared form of a (non-exact) multiplier configuration
/// against a fixed coefficient magnitude, compiling and memoizing it on
/// first use.
fn shared_tap(multiplier: &CompiledMultiplier, coeff_mag: u64) -> SharedTap {
    let reference = multiplier.reference();
    let key = (
        multiplier.width(),
        multiplier.approx_lsbs(),
        reference.mult_kind(),
        reference.adder_kind(),
        coeff_mag,
    );
    if let Some(hit) = tap_cache().get(&key) {
        return hit.clone();
    }
    // Compile outside the lock so concurrent workers aren't serialized
    // behind a miss; a racing duplicate compilation is harmless.
    let built = compile_shared_tap(multiplier, coeff_mag);
    let mut cache = tap_cache();
    while cache.len() >= TAP_CACHE_CAP {
        let Some(victim) = cache.keys().next().copied() else {
            break;
        };
        cache.remove(&victim);
    }
    cache.entry(key).or_insert(built).clone()
}

/// Builds the magnitude-indexed product table by running the compiled
/// word-level engine once per sample magnitude, then keeps the periodic
/// form if it reproduces that table exactly.
fn compile_shared_tap(multiplier: &CompiledMultiplier, coeff_mag: u64) -> SharedTap {
    let limit = 1i64 << (multiplier.width() - 1);
    let table: Vec<u32> = (0..=limit)
        .map(|mag| {
            let p = multiplier.mul_signed_clamped(mag, coeff_mag as i64);
            debug_assert!((0..1i64 << (2 * multiplier.width())).contains(&p));
            // WIDTH: a magnitude product of two ≤16-bit operands (checked
            // just above) fits u32.
            p as u32
        })
        .collect();
    // The error can only depend on the bits below the approximated region;
    // capping at width − 1 keeps the error table no larger than the
    // magnitude table itself.
    let bits = multiplier.approx_lsbs().min(multiplier.width() - 1);
    match periodic_errors(&table, coeff_mag, bits) {
        Some(err) => SharedTap::Periodic {
            mask: (1u64 << bits) - 1,
            err: err.into(),
        },
        None => SharedTap::Lut(Arc::new(table)),
    }
}

/// The error table `err[r] = table[r] − r·c` over one period of `2^bits`
/// magnitudes, returned only if it fits `i32` and one exhaustive pass
/// proves `table[m] = m·c + err[m & (2^bits − 1)]` for *every* magnitude.
fn periodic_errors(table: &[u32], coeff_mag: u64, bits: u32) -> Option<Vec<i32>> {
    let period = 1usize << bits;
    let mask = period - 1;
    let c = i64::try_from(coeff_mag).ok()?;
    let exact = |m: usize| i64::try_from(m).ok().map(|m| m * c);
    let err = table
        .iter()
        .take(period)
        .enumerate()
        .map(|(m, &p)| i32::try_from(i64::from(p) - exact(m)?).ok())
        .collect::<Option<Vec<i32>>>()?;
    let holds = table
        .iter()
        .enumerate()
        .all(|(m, &p)| exact(m).map(|x| x + i64::from(err[m & mask])) == Some(i64::from(p)));
    holds.then_some(err)
}

/// How a tap multiplier evaluates against the coefficient's magnitude:
/// natively (exact configuration), as an exact product plus a periodic
/// error, or via the full magnitude table. The sign is exact in the
/// sign-magnitude core, so the coefficient's sign is applied afterwards.
#[derive(Clone)]
enum TapRepr {
    Exact,
    Periodic {
        mask: u64,
        err: Arc<[i32]>,
        /// `|clamped coefficient|`.
        coeff_mag: i64,
    },
    Lut(Arc<Vec<u32>>),
}

/// A multiplier specialised to one fixed coefficient: bit-for-bit
/// equivalent to [`CompiledMultiplier::mul_signed_clamped`] against that
/// coefficient, evaluated as one exact multiply plus one small table
/// lookup (or, for the rare non-periodic configuration, one lookup into
/// the full magnitude table).
///
/// The coefficient is clamped into the signed datapath range at
/// construction, the way the saturating fixed-point front-end
/// (`pan_tompkins::ArithBackend::mul`) clamps its operands;
/// [`TapMultiplier::coeff_saturates`] reports whether that happened so
/// callers can keep their per-operand saturation counters exact.
#[derive(Clone)]
pub struct TapMultiplier {
    coeff: i64,
    clamped_coeff: i64,
    width: u32,
    repr: TapRepr,
}

impl TapMultiplier {
    /// Compiles `multiplier` against `coeff`.
    #[must_use]
    pub fn new(multiplier: &CompiledMultiplier, coeff: i64) -> Self {
        let width = multiplier.width();
        let limit = 1i64 << (width - 1);
        let clamped_coeff = coeff.clamp(-limit, limit - 1);
        let repr = if multiplier.is_exact() {
            TapRepr::Exact
        } else {
            match shared_tap(multiplier, clamped_coeff.unsigned_abs()) {
                SharedTap::Periodic { mask, err } => TapRepr::Periodic {
                    mask,
                    err,
                    coeff_mag: clamped_coeff.abs(),
                },
                SharedTap::Lut(table) => TapRepr::Lut(table),
            }
        };
        Self {
            coeff,
            clamped_coeff,
            width,
            repr,
        }
    }

    /// The coefficient this tap was compiled for, as given.
    #[must_use]
    pub fn coeff(&self) -> i64 {
        self.coeff
    }

    /// The coefficient after the datapath clamp.
    #[must_use]
    pub fn clamped_coeff(&self) -> i64 {
        self.clamped_coeff
    }

    /// Whether the coefficient itself saturated into the datapath range
    /// (contributes one saturation event per multiplication).
    #[must_use]
    pub fn coeff_saturates(&self) -> bool {
        self.clamped_coeff != self.coeff
    }

    /// Operand width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Whether this tap evaluates natively (exact configuration).
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self.repr, TapRepr::Exact)
    }

    /// Whether this approximate tap evaluates in the periodic form — an
    /// exact multiply plus one small error-table gather. `false` for exact
    /// taps and for taps that fell back to the full magnitude table
    /// because no periodic form reproduces them.
    #[must_use]
    pub fn is_periodic(&self) -> bool {
        matches!(self.repr, TapRepr::Periodic { .. })
    }

    /// Bytes of the process-wide shared table this tap references — the
    /// periodic error table, or the full magnitude table for a fallback
    /// tap; 0 for exact taps, which evaluate natively. The table lives
    /// behind an `Arc` in the global cache and is shared by every tap
    /// compiled for the same `(width, LSBs, kinds, |coefficient|)`, so it
    /// is *not* per-detector state — memory accounting (e.g.
    /// `pan_tompkins::StreamingQrsDetector::state_bytes`) reports it
    /// separately; deduplicate across taps with [`TapMultiplier::table_id`].
    #[must_use]
    pub fn shared_table_bytes(&self) -> usize {
        match &self.repr {
            TapRepr::Exact => 0,
            TapRepr::Periodic { err, .. } => std::mem::size_of_val::<[i32]>(err),
            TapRepr::Lut(table) => table.len() * std::mem::size_of::<u32>(),
        }
    }

    /// Opaque identity of the shared table (taps compiled from the same
    /// cache entry return the same id), `None` for exact taps. Lets
    /// accounting sum [`TapMultiplier::shared_table_bytes`] without double
    /// counting a table referenced by several taps.
    #[must_use]
    pub fn table_id(&self) -> Option<usize> {
        match &self.repr {
            TapRepr::Exact => None,
            TapRepr::Periodic { err, .. } => Some(err.as_ptr() as usize),
            TapRepr::Lut(table) => Some(Arc::as_ptr(table) as usize),
        }
    }

    /// Multiplies a sample the caller has already clamped into
    /// `|a| ≤ 2^(width−1)` by the compiled coefficient — the same contract
    /// as [`CompiledMultiplier::mul_signed_clamped`] with the coefficient
    /// as second operand.
    #[must_use]
    #[inline]
    pub fn mul_clamped(&self, a: i64) -> i64 {
        let p = self.mul_magnitude_clamped(a);
        if self.clamped_coeff < 0 {
            -p
        } else {
            p
        }
    }

    /// [`TapMultiplier::mul_magnitude_clamped`] of every sample, each first
    /// saturated into the signed datapath range, written to `out` — the
    /// form lane kernels fill a row of products with.
    ///
    /// The representation is matched once per call, and each arm's loop
    /// inlines the per-sample form with its `match` folded away. A lane
    /// loop over the per-sample form keeps the `match` inside (its output
    /// may alias the tap), which cost ~5 % of `fleet_steady` throughput
    /// on a 2-vCPU AVX-512 host.
    pub fn mul_magnitude_saturating(&self, samples: &[i64], out: &mut [i64]) {
        let limit = 1i64 << (self.width - 1);
        let each = |out: &mut [i64]| {
            for (o, &a) in out.iter_mut().zip(samples) {
                *o = self.mul_magnitude_clamped(a.clamp(-limit, limit - 1));
            }
        };
        match &self.repr {
            TapRepr::Exact => each(out),
            TapRepr::Periodic { .. } => each(out),
            TapRepr::Lut(_) => each(out),
        }
    }

    /// [`TapMultiplier::mul_clamped`] against the coefficient's magnitude:
    /// the product carries the sign of `a` alone. Every tap of the same
    /// |coefficient| returns the same value, so a kernel can compute it
    /// once per sample and apply each tap's sign itself.
    #[must_use]
    #[inline]
    pub fn mul_magnitude_clamped(&self, a: i64) -> i64 {
        debug_assert!(a.abs() <= 1i64 << (self.width - 1));
        let mag = match &self.repr {
            TapRepr::Exact => return a * self.clamped_coeff.abs(),
            TapRepr::Periodic {
                mask,
                err,
                coeff_mag,
            } => {
                let m = a.unsigned_abs();
                // `m & mask` is always in range (the table has `mask + 1`
                // entries); the read is panic-free anyway, so the lane
                // loops that call this carry no panic path.
                let e = err.get((m & mask) as usize).copied().unwrap_or(0);
                // `m ≤ 2^(width−1)`, so the product cannot wrap.
                m as i64 * coeff_mag + i64::from(e)
            }
            TapRepr::Lut(table) => i64::from(table[a.unsigned_abs() as usize]),
        };
        if a < 0 {
            -mag
        } else {
            mag
        }
    }
}

impl fmt::Debug for TapMultiplier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TapMultiplier")
            .field("coeff", &self.coeff)
            .field("width", &self.width)
            .field("is_exact", &self.is_exact())
            .field("is_periodic", &self.is_periodic())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::RecursiveMultiplier;

    /// Every distinct coefficient magnitude appearing in the five
    /// Pan-Tompkins stage netlists (LPF 1..6, HPF 1/31, DER 1/2), both
    /// signs where the stages use them.
    const STAGE_COEFFS: [i64; 9] = [1, 2, 3, 4, 5, 6, 31, -1, -2];

    /// The satellite contract: an exhaustive 8-bit sweep proving the
    /// per-tap LUT path equals both the compiled word-level engine and the
    /// bit-level netlist walk for every elementary-module pair the stages
    /// can be configured with.
    #[test]
    fn exhaustive_8bit_sweep_matches_both_engines() {
        let limit = 1i64 << 7;
        for add in FullAdderKind::ALL {
            for mult in Mult2x2Kind::ALL {
                for k in [1u32, 4, 8, 12, 16] {
                    let bit = RecursiveMultiplier::new(8, k, mult, add);
                    let fast = CompiledMultiplier::from_recursive(&bit);
                    for &c in &STAGE_COEFFS {
                        let tap = TapMultiplier::new(&fast, c);
                        for a in -limit..=(limit - 1) {
                            let got = tap.mul_clamped(a);
                            let want_fast = fast.mul_signed_clamped(a, c);
                            assert_eq!(got, want_fast, "{mult} {add} k={k} c={c} a={a}");
                            let want_bit = bit.mul(a, c);
                            assert_eq!(
                                got, want_bit,
                                "vs bit-level: {mult} {add} k={k} c={c} a={a}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The production width: every sample magnitude of the 16-bit datapath
    /// against every stage coefficient, for every elementary-module pair
    /// across the approximation depths — periodic and fallback taps alike.
    #[test]
    fn exhaustive_16bit_magnitudes_match_compiled() {
        for add in FullAdderKind::ALL {
            for mult in Mult2x2Kind::ALL {
                for k in [2u32, 8, 12, 16] {
                    let fast = CompiledMultiplier::new(16, k, mult, add);
                    for &c in &STAGE_COEFFS {
                        let tap = TapMultiplier::new(&fast, c);
                        for mag in 0..=(1i64 << 15) {
                            assert_eq!(
                                tap.mul_clamped(mag),
                                fast.mul_signed_clamped(mag, c),
                                "{mult} {add} k={k} c={c} mag={mag}"
                            );
                            assert_eq!(
                                tap.mul_clamped(-mag),
                                fast.mul_signed_clamped(-mag, c),
                                "{mult} {add} k={k} c={c} mag=-{mag}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The fallback: 16-bit V1/AMA1 at k = 16 against c = 1 has no periodic
    /// error form (magnitude 2^15 aliases magnitude 0 under the capped
    /// mask and disagrees with it), so the tap keeps the full table — and
    /// still multiplies bit-for-bit like the compiled engine.
    #[test]
    fn non_periodic_tap_falls_back_to_full_table() {
        let fast = CompiledMultiplier::new(16, 16, Mult2x2Kind::V1, FullAdderKind::Ama1);
        let tap = TapMultiplier::new(&fast, 1);
        assert!(!tap.is_periodic(), "expected the table fallback");
        assert_eq!(tap.shared_table_bytes(), ((1 << 15) + 1) * 4);
        for mag in 0..=(1i64 << 15) {
            assert_eq!(
                tap.mul_clamped(mag),
                fast.mul_signed_clamped(mag, 1),
                "{mag}"
            );
            assert_eq!(
                tap.mul_clamped(-mag),
                fast.mul_signed_clamped(-mag, 1),
                "-{mag}"
            );
        }
    }

    /// A panic while the cache lock is held must not take tap compilation
    /// down with it: the next compile recovers the lock and still produces
    /// correct products.
    #[test]
    fn poisoned_cache_lock_still_compiles() {
        let poisoner = std::thread::spawn(|| {
            let _guard = tap_cache();
            panic!("poisoning the tap cache on purpose");
        });
        assert!(poisoner.join().is_err(), "the poisoning thread must panic");
        let fast = CompiledMultiplier::new(16, 7, Mult2x2Kind::V2, FullAdderKind::Ama2);
        let tap = TapMultiplier::new(&fast, -3);
        assert!(tap.is_periodic());
        for a in [-32768i64, -4097, -1, 0, 1, 255, 32767] {
            assert_eq!(tap.mul_clamped(a), fast.mul_signed_clamped(a, -3), "{a}");
        }
    }

    #[test]
    fn exact_configurations_multiply_natively() {
        let tap = TapMultiplier::new(&CompiledMultiplier::accurate(16), -7);
        assert!(tap.is_exact());
        assert_eq!(tap.mul_clamped(1234), -8638);
        assert_eq!(tap.mul_clamped(-3), 21);
    }

    #[test]
    fn tables_are_shared_between_identical_taps() {
        let fast = CompiledMultiplier::new(16, 6, Mult2x2Kind::V1, FullAdderKind::Ama3);
        let a = TapMultiplier::new(&fast, 5);
        let b = TapMultiplier::new(&fast, 5);
        let c = TapMultiplier::new(&fast, -5); // same magnitude, same table
        let err = |t: &TapMultiplier| match &t.repr {
            TapRepr::Periodic { err, .. } => Arc::clone(err),
            _ => panic!("approximate stage taps must compile to the periodic form"),
        };
        assert!(Arc::ptr_eq(&err(&a), &err(&b)));
        assert!(Arc::ptr_eq(&err(&a), &err(&c)));
        assert_eq!(err(&a).len(), 1 << 6, "one error entry per residue mod 2^k");
    }

    /// The slice form saturates each sample into the datapath range and
    /// then agrees with the per-sample form, for every representation.
    #[test]
    fn slice_form_saturates_and_matches_per_sample() {
        let samples = [
            -1i64 << 20,
            -32769,
            -32768,
            -4097,
            -1,
            0,
            1,
            255,
            32767,
            1 << 20,
        ];
        for (k, mult, add) in [
            (0, Mult2x2Kind::Accurate, FullAdderKind::Accurate),
            (8, Mult2x2Kind::V1, FullAdderKind::Ama5),
            (16, Mult2x2Kind::V1, FullAdderKind::Ama1),
        ] {
            let fast = CompiledMultiplier::new(16, k, mult, add);
            for c in [1, -3, 31] {
                let tap = TapMultiplier::new(&fast, c);
                let mut out = [0i64; 10];
                tap.mul_magnitude_saturating(&samples, &mut out);
                for (&a, &got) in samples.iter().zip(&out) {
                    let ca = a.clamp(-32768, 32767);
                    let want = fast.mul_signed_clamped(ca, c.abs());
                    assert_eq!(got, want, "{mult} {add} k={k} c={c} a={a}");
                    let signed = if c < 0 { -got } else { got };
                    assert_eq!(
                        signed,
                        tap.mul_clamped(ca),
                        "{mult} {add} k={k} c={c} a={a}"
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_coefficient_clamps_and_reports() {
        let fast = CompiledMultiplier::new(16, 8, Mult2x2Kind::V1, FullAdderKind::Ama5);
        let tap = TapMultiplier::new(&fast, 1 << 20);
        assert!(tap.coeff_saturates());
        assert_eq!(tap.clamped_coeff(), 32767);
        assert_eq!(tap.mul_clamped(3), fast.mul_signed_clamped(3, 32767));
        let in_range = TapMultiplier::new(&fast, 31);
        assert!(!in_range.coeff_saturates());
    }

    #[test]
    fn zero_coefficient_always_zero() {
        let fast = CompiledMultiplier::new(16, 12, Mult2x2Kind::V2, FullAdderKind::Ama1);
        let tap = TapMultiplier::new(&fast, 0);
        for a in [-32768i64, -1, 0, 1, 32767] {
            assert_eq!(tap.mul_clamped(a), fast.mul_signed_clamped(a, 0));
        }
    }

    #[test]
    fn table_accounting_reports_shared_identity() {
        let exact = CompiledMultiplier::new(16, 0, Mult2x2Kind::V1, FullAdderKind::Accurate);
        let native = TapMultiplier::new(&exact, 6);
        assert_eq!(native.shared_table_bytes(), 0);
        assert_eq!(native.table_id(), None);

        let approx = CompiledMultiplier::new(16, 8, Mult2x2Kind::V1, FullAdderKind::Ama5);
        let a = TapMultiplier::new(&approx, 6);
        let b = TapMultiplier::new(&approx, -6);
        // One `i32` error entry per residue of the magnitude mod 2^k.
        assert_eq!(a.shared_table_bytes(), (1 << 8) * 4);
        assert_eq!(a.table_id(), b.table_id(), "same table, same identity");
        let other = TapMultiplier::new(&approx, 31);
        assert_ne!(a.table_id(), other.table_id());
    }
}
