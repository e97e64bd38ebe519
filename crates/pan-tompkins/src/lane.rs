//! Multi-lane SoA stage kernels: N independent detector sessions advanced
//! in lockstep through one shared [`DetectorEngine`] — the crate's one
//! detection datapath. A solo [`crate::StreamingQrsDetector`] is a
//! one-lane bank, and batch [`crate::QrsDetector::detect`] is one
//! retaining push of it.
//!
//! A detector spends ~99% of its time in the five filter stages, and the
//! pipeline is embarrassingly lane-parallel across sessions (monitored
//! patients, leads, corpus records). A [`LaneBank`] exploits that: it
//! batches N [`DetectorTail`]s behind
//! structure-of-arrays stage state — one delay-line *row* per ring
//! position holding every lane's sample — so each tick walks the shared
//! compiled taps **once** and applies every tap to a contiguous lane
//! slice. The per-tap dispatch (tap lookup, zero-skip, coefficient
//! clamping) is amortized over all lanes, and the inner lane loops —
//! clamp, multiply (an approximate multiplier's products are computed once
//! per sample and coefficient magnitude, as the sample enters), and the
//! adder's closed form over adjacent memory — are register-blocked so the
//! compiler auto-vectorizes them.
//!
//! # Bit-identity contract
//!
//! Every lane's event stream and final [`DetectionResult`] are **bit
//! identical** to the scalar reference chain
//! [`crate::stages::detect_reference`] run over that lane's samples — the
//! per-sample, per-tap netlist walk of [`crate::stages`] — for every
//! chunking, decision arithmetic, footprint, and multiplier engine. The
//! kernels guarantee this by construction:
//!
//! * FIR products are taken in tap order and accumulated left-to-right
//!   exactly like the reference walk, so non-associative approximate
//!   adds see the same operand sequence. The ring cursor is shared across
//!   lanes — legal because an FIR output depends only on delay contents
//!   *relative* to the cursor, so a freshly zeroed lane column behaves
//!   exactly like a fresh filter (rotation invariance);
//! * the MWI sums its window in **storage order** (the netlist's 29-adder
//!   chain), which is *not* rotation invariant — so MWI write cursors are
//!   per-lane, letting a lane reset mid-run behave like a fresh session;
//! * per-sample operation counts are data-independent and therefore
//!   hoisted to per-lane tick counters, while saturation and overflow
//!   counts are data-dependent and kept in per-lane arrays updated inside
//!   the lane loops with the same branch-free tests the reference backend
//!   uses ([`sum_overflows`] is shared verbatim);
//! * everything downstream of the stages — classifier, alignment queue,
//!   event emission — is shared code: each lane owns the same
//!   [`DetectorTail`] the reference chain drives.
//!
//! The contract is enforced against the reference by the lane-axis cases
//! in `tests/streaming_equivalence.rs`, this module's unit tests, and CI's
//! `ext_lane_speed --check` gate, and pinned by the golden fixtures
//! (`golden_trace`, `golden_lanes`, `golden_snapshot`).

use std::cell::Cell;
use std::sync::Arc;

use approx_arith::{FullAdderKind, OpCounter, RippleCarryAdder};

use crate::arith::{div_round, sum_overflows, ArithCounters, ArithProgram};
use crate::detector::DetectionResult;
use crate::engine::DetectorEngine;
use crate::fir::FirProgram;
use crate::snapshot::{self, Reader, SnapshotError, Writer};
use crate::stages::mwi::WINDOW;
use crate::streaming::{DetectorTail, StreamEvent};

/// One [`StreamEvent`] attributed to the lane that emitted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneEvent {
    /// The emitting lane (column index in the pushed frames).
    pub lane: usize,
    /// The event — identical to what a solo detector fed the lane's
    /// samples emits.
    pub event: StreamEvent,
}

fn op_counter(muls: u64, adds: u64) -> OpCounter {
    let mut ops = OpCounter::new();
    ops.count_muls(muls);
    ops.count_adds(adds);
    ops
}

/// The widest vector feature set the running CPU offers for the stage
/// kernels.
///
/// rustc compiles the crate for the portable x86-64 baseline (SSE2),
/// which has no 64-bit vector multiply — so the auto-vectorized lane
/// loops run far below the machine's width. The bank therefore compiles
/// the *same* tick chain a second and third time under
/// `#[target_feature]` (AVX2, and AVX-512 with the `DQ` 64-bit multiply)
/// and picks the widest supported instance at runtime. The kernels are
/// pure two's-complement integer arithmetic, so every instance is
/// bit-identical by construction — dispatch only changes register width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimdLevel {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

#[cfg(target_arch = "x86_64")]
fn simd_level() -> SimdLevel {
    use std::sync::OnceLock;
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            SimdLevel::Avx512
        } else if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Baseline
        }
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_level() -> SimdLevel {
    SimdLevel::Baseline
}

/// The vector feature set the lane kernels will dispatch to on this host
/// (`"avx512"`, `"avx2"`, or `"baseline"`). Results are bit-identical
/// across levels — only throughput differs — so benchmarks and gates use
/// this to scale expectations to the machine's vector width.
#[must_use]
pub fn simd_level_name() -> &'static str {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => "avx512",
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => "avx2",
        SimdLevel::Baseline => "baseline",
    }
}

/// A stage adder as the register-blocked kernels evaluate it. The kernels
/// are generic over this trait and the adder's cell kind is matched once
/// per tick ([`with_block_adder!`]), so every instance inlines one
/// branch-free closed form the compiler can vectorize — instead of the
/// per-element kind dispatch of [`ArithProgram::add_raw`].
trait BlockAdd: Copy {
    /// The adder's result for `a + b`. `wrapped` is the exact sum wrapped
    /// into the bus and sign-extended, which the kernels compute anyway
    /// for the overflow test — and which *is* the exact adder's result.
    fn add(self, a: i64, b: i64, wrapped: i64) -> i64;
}

/// An exact adder block: plain wrap-around addition.
#[derive(Clone, Copy)]
struct WrapAdd;

impl BlockAdd for WrapAdd {
    #[inline(always)]
    fn add(self, _a: i64, _b: i64, wrapped: i64) -> i64 {
        wrapped
    }
}

/// An approximate adder block whose LSB cells are `AMA<KIND>`: the
/// word-level closed form of [`RippleCarryAdder::add`] with the kind
/// resolved at compile time.
#[derive(Clone, Copy)]
struct CellAdd<const KIND: u8> {
    adder: RippleCarryAdder,
    /// The adder's `width` significant bits.
    mask: u64,
    /// `64 − width`: the sign-extension shift.
    ext: u32,
}

impl<const KIND: u8> CellAdd<KIND> {
    fn new(adder: RippleCarryAdder) -> Self {
        Self {
            adder,
            mask: u64::MAX >> (64 - adder.width()),
            ext: 64 - adder.width(),
        }
    }
}

impl<const KIND: u8> BlockAdd for CellAdd<KIND> {
    #[inline(always)]
    fn add(self, a: i64, b: i64, _wrapped: i64) -> i64 {
        // Exactly `RippleCarryAdder::add`: wrap the operands into the bus,
        // run the kind's closed form, sign-extend from bit `width − 1`.
        let (a, b) = (a as u64 & self.mask, b as u64 & self.mask);
        let bits = match KIND {
            1 => self.adder.add_bits_ama1(a, b),
            2 => self.adder.add_bits_ama2(a, b),
            3 => self.adder.add_bits_ama3(a, b),
            4 => self.adder.add_bits_ama4(a, b),
            _ => self.adder.add_bits_ama5(a, b),
        };
        ((bits << self.ext) as i64) >> self.ext
    }
}

/// Binds `$add` to the [`BlockAdd`] form of `$adder` — one match on the
/// cell kind — and evaluates `$body` with it.
macro_rules! with_block_adder {
    ($adder:expr, |$add:ident| $body:expr) => {{
        let adder: RippleCarryAdder = $adder;
        if adder.is_exact() {
            let $add = WrapAdd;
            $body
        } else {
            match adder.kind() {
                FullAdderKind::Accurate => {
                    let $add = WrapAdd;
                    $body
                }
                FullAdderKind::Ama1 => {
                    let $add = CellAdd::<1>::new(adder);
                    $body
                }
                FullAdderKind::Ama2 => {
                    let $add = CellAdd::<2>::new(adder);
                    $body
                }
                FullAdderKind::Ama3 => {
                    let $add = CellAdd::<3>::new(adder);
                    $body
                }
                FullAdderKind::Ama4 => {
                    let $add = CellAdd::<4>::new(adder);
                    $body
                }
                FullAdderKind::Ama5 => {
                    let $add = CellAdd::<5>::new(adder);
                    $body
                }
            }
        }
    }};
}

/// Which tap walk a [`LaneFir`] runs — fixed per program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FirKernel {
    /// Exact multiplier and adder: the blocked kernel with native
    /// products and wrap-around sums.
    Exact,
    /// Compiled tap multipliers under an approximate multiplier or adder:
    /// the blocked kernel reading each tap's product from the
    /// product-class ring (see [`LaneFir::prods`]) and summing with the
    /// adder's closed form.
    Ring,
    /// The bit-level engine, which has no compiled taps: the per-element
    /// block dispatch of [`LaneFir::accumulate_generic`].
    Generic,
}

/// SoA FIR kernel: one shared program, N lanes of delay-line state laid
/// out row-major (`delay[pos * lanes + lane]`).
#[derive(Debug, Clone)]
struct LaneFir {
    program: Arc<FirProgram>,
    lanes: usize,
    /// Row-major ring delay line: row `r` holds every lane's sample at
    /// ring position `r`.
    delay: Vec<i64>,
    /// Shared lockstep ring cursor (safe across per-lane resets by
    /// rotation invariance; see the module docs).
    cursor: usize,
    /// Per-lane accumulator scratch.
    acc: Vec<i64>,
    /// Per-lane multiplier-operand saturation counts (data-dependent).
    sats: Vec<u64>,
    /// Per-lane adder overflow counts (data-dependent).
    ovfs: Vec<u64>,
    /// Hoisted per-tick op counts (data-independent, same every sample).
    muls_per_tick: u64,
    adds_per_tick: u64,
    /// Coefficient-side saturations per tick — constant per program.
    coeff_sats_per_tick: u64,
    mul_limit: i64,
    add_width: u32,
    /// The tap walk this program takes. The blocked kernels are branch-free
    /// clamp/multiply/gather/add loops the compiler auto-vectorizes; the
    /// generic loop dispatches through the block representations per
    /// element and cannot. All walks are bit-identical by construction.
    kernel: FirKernel,
    /// [`FirKernel::Ring`] only: every delayed sample's product with each
    /// distinct |coefficient| ("class"), signed by the sample, in the
    /// delay ring's row layout — `prods[(class * rows + row) * lanes +
    /// lane]`. A sample meets the same |coefficient| at every tap of that
    /// class, so its product is computed once, on entry: one
    /// [`approx_arith::TapMultiplier::mul_magnitude_clamped`] per class
    /// per sample instead of one per tap.
    prods: Vec<i64>,
    /// Per class: the first tap of that |coefficient|, whose multiplier
    /// computes the class products.
    classes: Vec<usize>,
    /// Per tap: the offset of its class's ring in [`LaneFir::prods`],
    /// `class * rows * lanes` (0 for zero taps and other kernels).
    tap_offsets: Vec<usize>,
}

impl LaneFir {
    fn new(program: Arc<FirProgram>, lanes: usize) -> Self {
        let rows = program.taps().len();
        let mul_limit = 1i64 << (program.arith().mul_width() - 1);
        let add_width = program.arith().adder_width();
        let nonzero = program.taps().iter().filter(|&&c| c != 0).count() as u64;
        let coeff_sats_per_tick = program
            .taps()
            .iter()
            .filter(|&&c| c != 0 && c.clamp(-mul_limit, mul_limit - 1) != c)
            .count() as u64;
        let kernel = if program.arith().is_exact() {
            FirKernel::Exact
        } else if program.tap_mults().is_some() {
            FirKernel::Ring
        } else {
            FirKernel::Generic
        };
        let mut classes: Vec<usize> = Vec::new();
        let mut class_mags: Vec<i64> = Vec::new();
        let mut tap_offsets = vec![0; rows];
        if kernel == FirKernel::Ring {
            for (t, &c) in program.taps().iter().enumerate() {
                // Zero taps are skipped by the walk: no class.
                if c == 0 {
                    continue;
                }
                let cb = c.clamp(-mul_limit, mul_limit - 1);
                let class = class_mags
                    .iter()
                    .position(|&m| m == cb.abs())
                    .unwrap_or_else(|| {
                        class_mags.push(cb.abs());
                        classes.push(t);
                        classes.len() - 1
                    });
                tap_offsets[t] = class * rows * lanes;
            }
        }
        // The blocked kernels' wrap-compare overflow test requires that no
        // operand can wrap i64: products bounded by a ≤32-bit multiplier,
        // sums by a ≤63-bit bus.
        debug_assert!(program.arith().mul_width() <= 32 && add_width <= 63);
        let mut fir = Self {
            delay: vec![0; rows * lanes],
            cursor: 0,
            acc: vec![0; lanes],
            sats: vec![0; lanes],
            ovfs: vec![0; lanes],
            muls_per_tick: nonzero,
            adds_per_tick: nonzero.saturating_sub(1),
            coeff_sats_per_tick,
            mul_limit,
            add_width,
            kernel,
            prods: vec![0; classes.len() * rows * lanes],
            classes,
            tap_offsets,
            lanes,
            program,
        };
        for lane in 0..lanes {
            fir.refresh_lane_products(lane);
        }
        fir
    }

    /// Advances every lane one sample: `x` is the lane row in, `out` the
    /// lane row of filter outputs.
    #[inline(always)]
    fn tick(&mut self, x: &[i64], out: &mut [i64]) {
        let lanes = self.lanes;
        let rows = self.program.taps().len();
        self.cursor = if self.cursor == 0 {
            rows - 1
        } else {
            self.cursor - 1
        };
        self.delay[self.cursor * lanes..(self.cursor + 1) * lanes].copy_from_slice(x);

        match self.kernel {
            FirKernel::Exact => return self.run_blocks::<false, _>(WrapAdd, out),
            FirKernel::Ring => {
                self.fill_products(self.cursor);
                return with_block_adder!(self.program.arith().adder(), |add| self
                    .run_blocks::<true, _>(add, out));
            }
            FirKernel::Generic => {}
        }
        let seeded = self.accumulate_generic();
        if !seeded {
            out.fill(0);
            return;
        }
        // The rescale mode is fixed per program; hoisting the match out
        // of the lane loop leaves each arm a branch-free (select-only)
        // loop body. Every arm computes exactly [`FirProgram::rescale`].
        match self.program.gain_shift() {
            Some(0) => out.copy_from_slice(&self.acc),
            Some(shift) => {
                let half = 1i64 << (shift - 1);
                for (o, &a) in out.iter_mut().zip(self.acc.iter()) {
                    *o = if a >= 0 {
                        (a + half) >> shift
                    } else {
                        -((-a + half) >> shift)
                    };
                }
            }
            None => {
                for (o, &a) in out.iter_mut().zip(self.acc.iter()) {
                    *o = self.program.rescale(a);
                }
            }
        }
    }

    /// The generic tap walk of the bit-level engine: products and sums go
    /// through the arithmetic block representations per element.
    /// Returns whether any nonzero tap seeded the accumulators.
    #[inline(always)]
    fn accumulate_generic(&mut self) -> bool {
        let lanes = self.lanes;
        let mul_limit = self.mul_limit;
        let add_width = self.add_width;
        let rows = self.program.taps().len();
        let cursor = self.cursor;
        let Self {
            program,
            delay,
            acc,
            sats,
            ovfs,
            ..
        } = self;
        let taps = program.taps();
        let arith = program.arith();

        // Wrapping row walk from the newest sample, exactly like the
        // scalar loop's wrapping index.
        let mut row = cursor;
        let mut first = true;
        for &c in taps {
            let frame = &delay[row * lanes..row * lanes + lanes];
            row += 1;
            if row == rows {
                row = 0;
            }
            if c == 0 {
                continue;
            }
            let cb = c.clamp(-mul_limit, mul_limit - 1);
            if first {
                // The first nonzero tap seeds the accumulator — no add,
                // no overflow test, matching the scalar `Option` chain.
                for ((slot, s), &a) in acc.iter_mut().zip(sats.iter_mut()).zip(frame) {
                    let ca = a.clamp(-mul_limit, mul_limit - 1);
                    *s += u64::from(ca != a);
                    *slot = arith.mul_raw_clamped(ca, cb);
                }
                first = false;
            } else {
                for (((slot, s), o), &a) in acc
                    .iter_mut()
                    .zip(sats.iter_mut())
                    .zip(ovfs.iter_mut())
                    .zip(frame)
                {
                    let ca = a.clamp(-mul_limit, mul_limit - 1);
                    *s += u64::from(ca != a);
                    let p = arith.mul_raw_clamped(ca, cb);
                    let sum = *slot;
                    *o += u64::from(sum_overflows(sum, p, add_width));
                    *slot = arith.add_raw(sum, p);
                }
            }
        }
        !first
    }

    /// Computes ring row `row`'s class products for every lane from the
    /// delayed samples: each class's tap multiplier against the clamped
    /// sample, signed by the sample alone (each tap applies its own sign).
    #[inline(always)]
    fn fill_products(&mut self, row: usize) {
        let lanes = self.lanes;
        let rows = self.program.taps().len();
        let Some(tap_mults) = self.program.tap_mults() else {
            return;
        };
        let x = &self.delay[row * lanes..(row + 1) * lanes];
        for (class, &t0) in self.classes.iter().enumerate() {
            let Some(tap) = tap_mults.get(t0) else {
                continue;
            };
            let base = (class * rows + row) * lanes;
            tap.mul_magnitude_saturating(x, &mut self.prods[base..base + lanes]);
        }
    }

    /// Recomputes one lane's class products for every ring row — after
    /// its delay column was reset or restored.
    fn refresh_lane_products(&mut self, lane: usize) {
        let lanes = self.lanes;
        let rows = self.program.taps().len();
        let mul_limit = self.mul_limit;
        let Some(tap_mults) = self.program.tap_mults() else {
            return;
        };
        for (class, &t0) in self.classes.iter().enumerate() {
            let Some(tap) = tap_mults.get(t0) else {
                continue;
            };
            for row in 0..rows {
                let ca = self.delay[row * lanes + lane].clamp(-mul_limit, mul_limit - 1);
                self.prods[(class * rows + row) * lanes + lane] = tap.mul_magnitude_clamped(ca);
            }
        }
    }

    /// Runs [`LaneFir::block`] over every lane of the tick: blocks of 16,
    /// 8 and 4 lanes, then single lanes, so the kernel's locals stay in
    /// vector registers and every lane loop has a compile-time trip count.
    #[inline(always)]
    fn run_blocks<const RING: bool, A: BlockAdd>(&mut self, add: A, out: &mut [i64]) {
        let lanes = self.lanes;
        let mut lane0 = 0;
        while lane0 + 16 <= lanes {
            self.block::<16, RING, A>(add, lane0, out);
            lane0 += 16;
        }
        while lane0 + 8 <= lanes {
            self.block::<8, RING, A>(add, lane0, out);
            lane0 += 8;
        }
        while lane0 + 4 <= lanes {
            self.block::<4, RING, A>(add, lane0, out);
            lane0 += 4;
        }
        while lane0 < lanes {
            self.block::<1, RING, A>(add, lane0, out);
            lane0 += 1;
        }
    }

    /// The register-blocked tap walk for lanes `lane0 .. lane0 + W` —
    /// bit-identical to [`LaneFir::accumulate_generic`] plus
    /// [`FirProgram::rescale`], with the per-element block dispatch
    /// replaced by arithmetic the compiler can vectorize:
    ///
    /// * the product of a clamped sample `ca` and clamped coefficient `cb`
    ///   is `ca * cb` when `RING` is false (an exact sign-magnitude
    ///   product is ordinary multiplication; no i64 overflow, since both
    ///   operands are clamped to the ≤ 32-bit datapath). When `RING` is
    ///   true it is the tap multiplier's product, read from the class ring
    ///   [`LaneFir::prods`] that [`LaneFir::fill_products`] fills as the
    ///   sample enters, and negated for a negative coefficient;
    /// * the sum is `add`'s closed form of the stage adder (for an exact
    ///   adder, the sum wrapped into the adder width and sign-extended,
    ///   which `(wrapping_add << k) >> k` reproduces);
    /// * the overflow test is the wrap-compare form of [`sum_overflows`],
    ///   the test the scalar backend and the generic loop use.
    ///
    /// The accumulator and counter arrays are `W`-sized locals, so they
    /// live in vector registers across the whole walk (one memory
    /// round-trip per tick, not per tap) and every lane loop has a
    /// compile-time trip count — no runtime vector-width or aliasing
    /// checks inside the tap loop.
    #[inline(always)]
    fn block<const W: usize, const RING: bool, A: BlockAdd>(
        &mut self,
        add: A,
        lane0: usize,
        out: &mut [i64],
    ) {
        let lanes = self.lanes;
        let mul_limit = self.mul_limit;
        let ext = 64 - self.add_width;
        let rows = self.program.taps().len();
        let taps = self.program.taps();

        let mut acc = [0i64; W];
        let mut sat = [0u64; W];
        let mut ovf = [0u64; W];
        let mut row = self.cursor;
        let mut first = true;
        for (&c, &offset) in taps.iter().zip(&self.tap_offsets) {
            let base = row * lanes + lane0;
            row += 1;
            if row == rows {
                row = 0;
            }
            if c == 0 {
                continue;
            }
            // A by-value `[i64; W]` row instead of a fallible `&[i64; W]`
            // cast: `copy_from_slice` of a W-slice into a W-array has no
            // failure path, and the locals stay in vector registers.
            let mut frame = [0i64; W];
            frame.copy_from_slice(&self.delay[base..base + W]);
            let cb = c.clamp(-mul_limit, mul_limit - 1);
            let mut prod = [0i64; W];
            if RING {
                // The class ring shares the delay ring's row layout.
                prod.copy_from_slice(&self.prods[offset + base..offset + base + W]);
                // Branch-free negation by the coefficient's sign.
                let flip = -i64::from(cb < 0);
                for p in &mut prod {
                    *p = (*p ^ flip) - flip;
                }
            }
            if first {
                // The first nonzero tap seeds the accumulator — no add,
                // no overflow test, matching the scalar `Option` chain.
                for k in 0..W {
                    let a = frame[k];
                    let ca = a.clamp(-mul_limit, mul_limit - 1);
                    sat[k] += u64::from(ca != a);
                    acc[k] = if RING { prod[k] } else { ca * cb };
                }
                first = false;
            } else {
                for k in 0..W {
                    let a = frame[k];
                    let ca = a.clamp(-mul_limit, mul_limit - 1);
                    sat[k] += u64::from(ca != a);
                    let p = if RING { prod[k] } else { ca * cb };
                    // `s` cannot wrap i64 (operands are bounded well below
                    // 2^62 by the ≤32-bit multiplier and ≤63-bit bus), so
                    // `wrapped != s` ⟺ `s` is outside the bus range ⟺
                    // [`sum_overflows`]`(acc[k], p, add_width)`.
                    let s = acc[k].wrapping_add(p);
                    let wrapped = (s << ext) >> ext;
                    ovf[k] += u64::from(wrapped != s);
                    acc[k] = add.add(acc[k], p, wrapped);
                }
            }
        }
        // Zip, not indexing: per-element bounds checks force the compiler
        // to scalarize the register block back out element by element.
        for (s, v) in self.sats[lane0..lane0 + W].iter_mut().zip(sat) {
            *s += v;
        }
        for (o, v) in self.ovfs[lane0..lane0 + W].iter_mut().zip(ovf) {
            *o += v;
        }
        let out = &mut out[lane0..lane0 + W];
        if first {
            out.fill(0);
            return;
        }
        // Rescale straight out of the register block — each arm computes
        // exactly [`FirProgram::rescale`].
        match self.program.gain_shift() {
            Some(0) => out.copy_from_slice(&acc),
            Some(shift) => {
                let half = 1i64 << (shift - 1);
                for (o, &a) in out.iter_mut().zip(acc.iter()) {
                    *o = if a >= 0 {
                        (a + half) >> shift
                    } else {
                        -((-a + half) >> shift)
                    };
                }
            }
            None => {
                for (o, &a) in out.iter_mut().zip(acc.iter()) {
                    *o = self.program.rescale(a);
                }
            }
        }
    }

    fn reset_lane(&mut self, lane: usize) {
        for row in self.delay.chunks_exact_mut(self.lanes) {
            row[lane] = 0;
        }
        self.refresh_lane_products(lane);
        self.sats[lane] = 0;
        self.ovfs[lane] = 0;
    }

    /// One lane's delay column, rotation-normalized newest sample first —
    /// the canonical snapshot order, independent of the shared cursor, so
    /// a lane's snapshot restores into any lane of any bank.
    fn lane_delay_snapshot(&self, lane: usize) -> Vec<i64> {
        let rows = self.program.taps().len();
        (0..rows)
            .map(|r| self.delay[((self.cursor + r) % rows) * self.lanes + lane])
            .collect()
    }

    /// Writes a newest-first ring snapshot into one lane's delay column at
    /// the bank's *current* shared cursor (legal by rotation invariance —
    /// an FIR output depends only on contents relative to the cursor).
    /// The caller must have validated `snap.len()` against the tap count.
    fn load_lane_delay_snapshot(&mut self, lane: usize, snap: &[i64]) {
        let rows = self.program.taps().len();
        debug_assert_eq!(snap.len(), rows);
        for (r, &v) in snap.iter().enumerate() {
            self.delay[((self.cursor + r) % rows) * self.lanes + lane] = v;
        }
        self.refresh_lane_products(lane);
    }

    fn heap_bytes(&self) -> usize {
        (self.delay.capacity() + self.acc.capacity() + self.prods.capacity())
            * std::mem::size_of::<i64>()
            + (self.sats.capacity() + self.ovfs.capacity()) * std::mem::size_of::<u64>()
            + self.classes.capacity() * std::mem::size_of::<usize>()
            + self.tap_offsets.capacity() * std::mem::size_of::<usize>()
    }
}

/// SoA squarer kernel: point-wise, one 16×16 multiplier per lane-sample.
#[derive(Debug, Clone)]
struct LaneSqr {
    program: Arc<ArithProgram>,
    sats: Vec<u64>,
    mul_limit: i64,
    exact: bool,
}

impl LaneSqr {
    fn new(program: Arc<ArithProgram>, lanes: usize) -> Self {
        let mul_limit = 1i64 << (program.mul_width() - 1);
        let exact = program.is_exact();
        Self {
            sats: vec![0; lanes],
            mul_limit,
            exact,
            program,
        }
    }

    #[inline(always)]
    fn tick(&mut self, x: &[i64], out: &mut [i64]) {
        let limit = self.mul_limit;
        if self.exact {
            // An exact square is `cv * cv` (see `LaneFir::block`
            // for the fast-path argument); the loop auto-vectorizes.
            for ((o, &v), s) in out.iter_mut().zip(x).zip(self.sats.iter_mut()) {
                let cv = v.clamp(-limit, limit - 1);
                *s += 2 * u64::from(cv != v);
                *o = cv * cv;
            }
            return;
        }
        for ((o, &v), s) in out.iter_mut().zip(x).zip(self.sats.iter_mut()) {
            let cv = v.clamp(-limit, limit - 1);
            // Both operands of the square clamp together, counting two
            // saturation events like the scalar backend.
            *s += 2 * u64::from(cv != v);
            *o = self.program.mul_raw_clamped(cv, cv);
        }
    }

    fn reset_lane(&mut self, lane: usize) {
        self.sats[lane] = 0;
    }

    fn heap_bytes(&self) -> usize {
        self.sats.capacity() * std::mem::size_of::<u64>()
    }
}

/// SoA moving-window-integrator kernel: slot-major window storage with
/// **per-lane** write cursors (the storage-order adder chain is not
/// rotation invariant, so resetting one lane must restart its cursor).
#[derive(Debug, Clone)]
struct LaneMwi {
    program: Arc<ArithProgram>,
    lanes: usize,
    /// Slot-major window: `window[slot * lanes + lane]`.
    window: Vec<i64>,
    cursor: Vec<usize>,
    ovfs: Vec<u64>,
    add_width: u32,
}

impl LaneMwi {
    fn new(program: Arc<ArithProgram>, lanes: usize) -> Self {
        let add_width = program.adder_width();
        // Same operand-width precondition as `LaneFir::new`: the squarer
        // feeding this stage is ≤32-bit, the bus ≤63-bit, so the
        // block-exact wrap-compare test cannot see an i64 wrap.
        debug_assert!(program.mul_width() <= 32 && add_width <= 63);
        Self {
            window: vec![0; WINDOW * lanes],
            cursor: vec![0; lanes],
            ovfs: vec![0; lanes],
            add_width,
            lanes,
            program,
        }
    }

    #[inline(always)]
    fn tick(&mut self, x: &[i64], out: &mut [i64]) {
        let lanes = self.lanes;
        for (lane, (&v, cur)) in x.iter().zip(self.cursor.iter_mut()).enumerate() {
            self.window[*cur * lanes + lane] = v;
            *cur = (*cur + 1) % WINDOW;
        }
        // The MWI has no multiplier, so every engine takes the blocked walk.
        with_block_adder!(self.program.adder(), |add| self.run_blocks(add, out))
    }

    /// Runs [`LaneMwi::block`] over every lane of the tick, in the lane
    /// blocks of [`LaneFir::run_blocks`].
    #[inline(always)]
    fn run_blocks<A: BlockAdd>(&mut self, add: A, out: &mut [i64]) {
        let lanes = self.lanes;
        let mut lane0 = 0;
        while lane0 + 16 <= lanes {
            self.block::<16, A>(add, lane0, out);
            lane0 += 16;
        }
        while lane0 + 8 <= lanes {
            self.block::<8, A>(add, lane0, out);
            lane0 += 8;
        }
        while lane0 + 4 <= lanes {
            self.block::<4, A>(add, lane0, out);
            lane0 += 4;
        }
        while lane0 < lanes {
            self.block::<1, A>(add, lane0, out);
            lane0 += 1;
        }
    }

    /// The storage-order 29-adder chain of the scalar netlist walk for
    /// lanes `lane0 .. lane0 + W`, with the accumulator and overflow
    /// counter held in `W`-sized locals (vector registers) across all
    /// [`WINDOW`] slots and every sum taken by `add`'s closed form of the
    /// stage adder — exactly [`ArithProgram::add_raw`].
    #[inline(always)]
    fn block<const W: usize, A: BlockAdd>(&mut self, add: A, lane0: usize, out: &mut [i64]) {
        let lanes = self.lanes;
        let ext = 64 - self.add_width;
        let window = &self.window;

        let mut acc = [0i64; W];
        acc.copy_from_slice(&window[lane0..lane0 + W]);
        let mut ovf = [0u64; W];
        for slot in 1..WINDOW {
            let base = slot * lanes + lane0;
            // Same by-value row idiom as `LaneFir::block`: no fallible
            // cast, contents land in vector registers.
            let mut row = [0i64; W];
            row.copy_from_slice(&window[base..base + W]);
            for k in 0..W {
                let v = row[k];
                // Same wrap-compare overflow test as `LaneFir::block` —
                // equivalent to [`sum_overflows`] because no operand can
                // wrap i64.
                let s = acc[k].wrapping_add(v);
                let wrapped = (s << ext) >> ext;
                ovf[k] += u64::from(wrapped != s);
                acc[k] = add.add(acc[k], v, wrapped);
            }
        }
        // Zip, not indexing — see `LaneFir::block`.
        for (o, v) in self.ovfs[lane0..lane0 + W].iter_mut().zip(ovf) {
            *o += v;
        }
        for (o, &a) in out[lane0..lane0 + W].iter_mut().zip(acc.iter()) {
            *o = div_round(a, WINDOW as i64);
        }
    }

    fn reset_lane(&mut self, lane: usize) {
        for row in self.window.chunks_exact_mut(self.lanes) {
            row[lane] = 0;
        }
        self.cursor[lane] = 0;
        self.ovfs[lane] = 0;
    }

    /// One lane's window column in storage (slot) order — the order the
    /// storage-order adder chain reads, so it resumes bit-identically.
    fn lane_window_snapshot(&self, lane: usize) -> Vec<i64> {
        (0..WINDOW)
            .map(|slot| self.window[slot * self.lanes + lane])
            .collect()
    }

    /// Loads a storage-order window column and re-derives the lane's write
    /// cursor from `samples_seen` (the tick loop writes then increments,
    /// so the cursor is always `samples_seen % WINDOW`). The caller must
    /// have validated `snap.len() == WINDOW`.
    fn load_lane_window(&mut self, lane: usize, snap: &[i64], samples_seen: usize) {
        debug_assert_eq!(snap.len(), WINDOW);
        for (slot, &v) in snap.iter().enumerate() {
            self.window[slot * self.lanes + lane] = v;
        }
        self.cursor[lane] = samples_seen % WINDOW;
    }

    fn heap_bytes(&self) -> usize {
        self.window.capacity() * std::mem::size_of::<i64>()
            + self.cursor.capacity() * std::mem::size_of::<usize>()
            + self.ovfs.capacity() * std::mem::size_of::<u64>()
    }
}

/// N independent streaming detector sessions advanced in lockstep through
/// one shared [`DetectorEngine`] — the fleet-throughput shape of
/// [`crate::StreamingQrsDetector`].
///
/// Feed interleaved frames (`frames[tick * lanes + lane]`) with
/// [`LaneBank::push`]; harvest a finished lane with
/// [`LaneBank::finish_lane`], which returns its trailing events and
/// [`DetectionResult`] and leaves the lane reset, ready for its next
/// record. Every lane is bit-identical to the scalar reference chain
/// (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pan_tompkins::{DetectorEngine, LaneBank, PipelineConfig, StreamingQrsDetector};
///
/// let mut signal = vec![0i32; 1400];
/// for beat in 0..7 {
///     let at = 150 + beat * 170;
///     signal[at - 1] = 120;
///     signal[at] = 240;
///     signal[at + 1] = 120;
/// }
/// let config = PipelineConfig::exact();
/// let engine = Arc::new(DetectorEngine::new(config));
/// let mut bank = LaneBank::new(Arc::clone(&engine), 2);
/// // Lane 0 carries the signal, lane 1 a flat lead.
/// let frames: Vec<i32> = signal.iter().flat_map(|&x| [x, 0]).collect();
/// let mut peaks = Vec::new();
/// for event in bank.push(&frames) {
///     if event.lane == 0 {
///         peaks.extend(event.event.r_peak());
///     }
/// }
/// let (trailing, result) = bank.finish_lane(0);
/// peaks.extend(trailing.iter().filter_map(|e| e.r_peak()));
/// let (_, solo) = StreamingQrsDetector::detect_chunked(config, &signal, 64);
/// assert_eq!(result, solo);
/// assert_eq!(peaks, solo.r_peaks());
/// ```
#[derive(Debug, Clone)]
pub struct LaneBank {
    engine: Arc<DetectorEngine>,
    lanes: usize,
    /// Per-lane samples since the lane's last reset — the basis for the
    /// hoisted (data-independent) op counts.
    ticks: Vec<u64>,
    lpf: LaneFir,
    hpf: LaneFir,
    der: LaneFir,
    sqr: LaneSqr,
    mwi: LaneMwi,
    tails: Vec<DetectorTail>,
    scratch_events: Vec<StreamEvent>,
}

/// Ticks the stage kernels advance between tail hand-offs. Large enough to
/// amortise the per-lane tail-call overhead across a block, small enough
/// that the six [`Scratch`] matrices stay cache-resident.
const BLOCK_TICKS: usize = 64;

/// Inter-stage scratch matrices: up to [`BLOCK_TICKS`] row-major lane rows
/// per stage input/output (`m[t * lanes + lane]`), so the stage kernels run
/// a whole block before the per-lane tails consume their columns.
#[derive(Debug, Default)]
struct Scratch {
    x0: Vec<i64>,
    a: Vec<i64>,
    b: Vec<i64>,
    c: Vec<i64>,
    d: Vec<i64>,
    e: Vec<i64>,
}

thread_local! {
    /// One [`Scratch`] per thread, lent to whichever bank is pushing. A
    /// bank holds no scratch between pushes, so a shard with hundreds of
    /// banks and one-lane solo detectors keeps one block of scratch hot in
    /// cache instead of ~3 KB per lane of cold ones.
    static SCRATCH: Cell<Scratch> = const {
        Cell::new(Scratch {
            x0: Vec::new(),
            a: Vec::new(),
            b: Vec::new(),
            c: Vec::new(),
            d: Vec::new(),
            e: Vec::new(),
        })
    };
}

impl LaneBank {
    /// Creates a bank of `lanes` fresh sessions over a shared engine.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    #[must_use]
    pub fn new(engine: Arc<DetectorEngine>, lanes: usize) -> Self {
        assert!(lanes >= 1, "LaneBank needs at least one lane");
        let config = *engine.config();
        Self {
            lpf: LaneFir::new(Arc::clone(engine.lpf_program()), lanes),
            hpf: LaneFir::new(Arc::clone(engine.hpf_program()), lanes),
            der: LaneFir::new(Arc::clone(engine.der_program()), lanes),
            sqr: LaneSqr::new(Arc::clone(engine.sqr_program()), lanes),
            mwi: LaneMwi::new(Arc::clone(engine.mwi_program()), lanes),
            tails: (0..lanes).map(|_| DetectorTail::new(&config)).collect(),
            ticks: vec![0; lanes],
            scratch_events: Vec::new(),
            lanes,
            engine,
        }
    }

    /// Number of lanes in the bank.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The shared engine every lane runs on.
    #[must_use]
    pub fn engine(&self) -> &Arc<DetectorEngine> {
        &self.engine
    }

    /// Samples the given lane has ingested since its last reset.
    #[must_use]
    pub fn samples_seen(&self, lane: usize) -> usize {
        self.tails[lane].samples_seen()
    }

    /// Feeds interleaved frames — `frames[t * lanes + lane]` is lane
    /// `lane`'s sample at tick `t` — and returns the events that became
    /// final, attributed to their lanes (grouped by lane, each lane's
    /// subsequence in emission order).
    ///
    /// # Panics
    ///
    /// Panics if `frames.len()` is not a multiple of the lane count.
    pub fn push(&mut self, frames: &[i32]) -> Vec<LaneEvent> {
        self.push_impl(frames, None)
    }

    /// Like [`LaneBank::push`], additionally appending each lane's HPF
    /// outputs (the paper's pre-processed signal) to `hpf_out[lane]` —
    /// the lane-batched counterpart of
    /// [`crate::StreamingQrsDetector::push_tapped`].
    ///
    /// # Panics
    ///
    /// Panics if `frames.len()` is not a multiple of the lane count or
    /// `hpf_out.len()` differs from it.
    pub fn push_tapped(&mut self, frames: &[i32], hpf_out: &mut [Vec<i64>]) -> Vec<LaneEvent> {
        assert_eq!(hpf_out.len(), self.lanes, "one HPF tap buffer per lane");
        self.push_impl(frames, Some(hpf_out))
    }

    /// Runs all five stage kernels over `ticks` rows of the scratch
    /// matrices, one tick at a time (each stage's delay line must advance
    /// before its next input row exists). The single definition every
    /// [`SimdLevel`] instance inlines — the multiversions below differ only
    /// in the vector features LLVM may use.
    #[inline(always)]
    fn stage_block(&mut self, m: &mut Scratch, ticks: usize) {
        let lanes = self.lanes;
        let Self {
            lpf,
            hpf,
            der,
            sqr,
            mwi,
            ..
        } = self;
        // The three FIR stages share one loop body, so every SIMD instance
        // holds a single copy of the FIR kernels.
        for t in 0..ticks {
            let (lo, hi) = (t * lanes, (t + 1) * lanes);
            for stage in 0..3 {
                let (fir, x, y) = match stage {
                    0 => (&mut *lpf, &m.x0[lo..hi], &mut m.a[lo..hi]),
                    1 => (&mut *hpf, &m.a[lo..hi], &mut m.b[lo..hi]),
                    _ => (&mut *der, &m.b[lo..hi], &mut m.c[lo..hi]),
                };
                fir.tick(x, y);
            }
            sqr.tick(&m.c[lo..hi], &mut m.d[lo..hi]);
            mwi.tick(&m.d[lo..hi], &mut m.e[lo..hi]);
        }
    }

    /// [`LaneBank::stage_block`] compiled with the AVX-512 feature set
    /// (`DQ` supplies the 64-bit vector multiply the baseline lacks).
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f`, `avx512dq`, and `avx512vl` —
    /// guaranteed when [`simd_level`] returns [`SimdLevel::Avx512`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    #[allow(unsafe_code)]
    // SAFETY: precondition — the executing CPU supports avx512f, avx512dq
    // and avx512vl; otherwise the vector instructions LLVM emits here are
    // undefined. The body is the safe `stage_block` (no raw pointers, no
    // intrinsics): the *only* obligation is the CPU-feature check, which
    // `stage_block_dispatch` performs via `simd_level()` before every call.
    unsafe fn stage_block_avx512(&mut self, m: &mut Scratch, ticks: usize) {
        self.stage_block(m, ticks);
    }

    /// [`LaneBank::stage_block`] compiled with AVX2 enabled.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2` — guaranteed when [`simd_level`]
    /// returns [`SimdLevel::Avx2`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    // SAFETY: precondition — the executing CPU supports avx2. The body is
    // the safe `stage_block`, so the feature check is the entire
    // obligation; `stage_block_dispatch` establishes it via `simd_level()`
    // before every call.
    unsafe fn stage_block_avx2(&mut self, m: &mut Scratch, ticks: usize) {
        self.stage_block(m, ticks);
    }

    #[inline]
    #[allow(unsafe_code)]
    fn stage_block_dispatch(&mut self, m: &mut Scratch, ticks: usize, level: SimdLevel) {
        match level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `simd_level()` returns `Avx512` only when
            // `is_x86_feature_detected!` confirmed avx512f+avx512dq+avx512vl
            // on the running CPU — exactly the kernel's precondition.
            SimdLevel::Avx512 => unsafe { self.stage_block_avx512(m, ticks) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `simd_level()` returns `Avx2` only when
            // `is_x86_feature_detected!("avx2")` held on the running CPU —
            // exactly the kernel's precondition.
            SimdLevel::Avx2 => unsafe { self.stage_block_avx2(m, ticks) },
            SimdLevel::Baseline => self.stage_block(m, ticks),
        }
    }

    fn push_impl(&mut self, frames: &[i32], taps: Option<&mut [Vec<i64>]>) -> Vec<LaneEvent> {
        self.ingest(frames, taps);
        let max_misalignment = self.engine.config().max_misalignment();
        let mut events = Vec::new();
        for (lane, tail) in self.tails.iter_mut().enumerate() {
            tail.settle(false, max_misalignment, &mut self.scratch_events);
            events.extend(
                self.scratch_events
                    .drain(..)
                    .map(|event| LaneEvent { lane, event }),
            );
        }
        events
    }

    /// The solo detector's push: a one-lane bank's frames are its samples,
    /// and its events need no lane attribution, so they settle straight
    /// into the returned vector.
    pub(crate) fn push_solo(
        &mut self,
        samples: &[i32],
        tap: Option<&mut Vec<i64>>,
    ) -> Vec<StreamEvent> {
        debug_assert_eq!(self.lanes, 1, "push_solo drives a one-lane bank");
        self.ingest(samples, tap.map(std::slice::from_mut));
        let mut events = Vec::new();
        self.tails[0].settle(false, self.engine.config().max_misalignment(), &mut events);
        events
    }

    /// Advances every lane through `frames` — stage kernels block by block,
    /// then each lane's tail ingests its column — without settling the
    /// alignment queues.
    fn ingest(&mut self, frames: &[i32], mut taps: Option<&mut [Vec<i64>]>) {
        let lanes = self.lanes;
        assert_eq!(
            frames.len() % lanes,
            0,
            "frames must be whole ticks: {} samples across {lanes} lanes",
            frames.len()
        );
        let shift = self.engine.config().input_shift;
        let level = simd_level();
        // Borrow the thread's scratch for the whole push; a thread already
        // tearing down its locals gets a fresh one instead of a panic.
        let mut m = SCRATCH.try_with(Cell::take).unwrap_or_default();
        for block in frames.chunks(BLOCK_TICKS * lanes) {
            let ticks = block.len() / lanes;
            let len = ticks * lanes;
            // xanalyze: begin-allow(alloc) — the thread's scratch grows to
            // one block (`BLOCK_TICKS` rows of its widest bank) and is
            // reused at that capacity by every later block and bank.
            m.x0.clear();
            m.x0.extend(block.iter().map(|&v| i64::from(v) << shift));
            m.a.resize(len, 0);
            m.b.resize(len, 0);
            m.c.resize(len, 0);
            m.d.resize(len, 0);
            m.e.resize(len, 0);
            // xanalyze: end-allow(alloc)
            self.stage_block_dispatch(&mut m, ticks, level);
            for (lane, tail) in self.tails.iter_mut().enumerate() {
                let tap = taps.as_mut().map(|t| &mut t[lane]);
                tail.ingest_batch(lanes, lane, [&m.a, &m.b, &m.c, &m.d, &m.e], tap);
            }
            for t in &mut self.ticks {
                *t += ticks as u64;
            }
        }
        let _ = SCRATCH.try_with(|s| s.set(m));
    }

    /// Ends one lane's stream: flushes its classifier and alignment queue
    /// (clipped at the record end, like the batch path), returns its
    /// trailing events and complete [`DetectionResult`], and resets the
    /// lane — column state, counters, tail — so it is immediately ready
    /// for its next record, bit-identical to a fresh session. Other lanes
    /// are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn finish_lane(&mut self, lane: usize) -> (Vec<StreamEvent>, DetectionResult) {
        assert!(lane < self.lanes, "lane {lane} of {} lanes", self.lanes);
        let config = *self.engine.config();
        let mut events = Vec::new();
        self.tails[lane].finish(config.max_misalignment(), &mut events);
        let (ops, saturations, add_overflows) = self.lane_counters(lane);
        let total_delay = self.engine.total_delay();
        let result = self.tails[lane].take_result(ops, saturations, add_overflows, total_delay);
        self.lpf.reset_lane(lane);
        self.hpf.reset_lane(lane);
        self.der.reset_lane(lane);
        self.sqr.reset_lane(lane);
        self.mwi.reset_lane(lane);
        self.ticks[lane] = 0;
        self.tails[lane].reset(&config);
        (events, result)
    }

    /// The five stages' data-independent op counts after `t` samples — the
    /// hoisted per-tick counts in per-stage form.
    fn stage_ops(&self, t: u64) -> [OpCounter; 5] {
        [
            op_counter(t * self.lpf.muls_per_tick, t * self.lpf.adds_per_tick),
            op_counter(t * self.hpf.muls_per_tick, t * self.hpf.adds_per_tick),
            op_counter(t * self.der.muls_per_tick, t * self.der.adds_per_tick),
            op_counter(t, 0),
            op_counter(0, t * (WINDOW as u64 - 1)),
        ]
    }

    /// One lane's per-stage `(ops, saturations, add_overflows)`: the
    /// hoisted counts materialized from its tick count, plus the
    /// data-dependent lane arrays.
    fn lane_counters(&self, lane: usize) -> ([OpCounter; 5], [u64; 5], [u64; 5]) {
        let t = self.ticks[lane];
        let saturations = [
            self.lpf.sats[lane] + t * self.lpf.coeff_sats_per_tick,
            self.hpf.sats[lane] + t * self.hpf.coeff_sats_per_tick,
            self.der.sats[lane] + t * self.der.coeff_sats_per_tick,
            self.sqr.sats[lane],
            0,
        ];
        let add_overflows = [
            self.lpf.ovfs[lane],
            self.hpf.ovfs[lane],
            self.der.ovfs[lane],
            0,
            self.mwi.ovfs[lane],
        ];
        (self.stage_ops(t), saturations, add_overflows)
    }

    /// Serializes one lane's live session into a versioned blob — the
    /// crate's one snapshot encoder ([`crate::StreamingQrsDetector::snapshot`]
    /// is this on its single lane): a lane snapshot restores into a solo
    /// detector, a solo snapshot into any bank lane, and lanes migrate
    /// between banks of different widths and SIMD levels — always resuming
    /// bit-identically. The lane's hoisted per-tick op counts are
    /// materialized into per-stage counters on the way out.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::LaneOutOfRange`] if `lane` is out of range.
    pub fn snapshot_lane(&self, lane: usize) -> Result<Vec<u8>, SnapshotError> {
        if lane >= self.lanes {
            return Err(SnapshotError::LaneOutOfRange {
                lane,
                lanes: self.lanes,
            });
        }
        if self.tails[lane].is_finished() {
            return Err(SnapshotError::Finished);
        }
        let mut w = Writer::new();
        w.put_seq_i64(&self.lpf.lane_delay_snapshot(lane));
        w.put_seq_i64(&self.hpf.lane_delay_snapshot(lane));
        w.put_seq_i64(&self.der.lane_delay_snapshot(lane));
        w.put_seq_i64(&self.mwi.lane_window_snapshot(lane));
        let (ops, saturations, add_overflows) = self.lane_counters(lane);
        for stage in 0..5 {
            w.put_u64(ops[stage].adds());
            w.put_u64(ops[stage].muls());
            w.put_u64(saturations[stage]);
            w.put_u64(add_overflows[stage]);
        }
        self.tails[lane].encode(&mut w);
        Ok(snapshot::seal(
            self.engine.config().fingerprint(),
            &w.into_body(),
        ))
    }

    /// Rebuilds one lane from a snapshot blob — taken from a solo
    /// [`crate::StreamingQrsDetector`] or any bank's [`LaneBank::snapshot_lane`]
    /// under the same configuration — replacing whatever session the lane
    /// was running. This is the crate's one snapshot decoder. Sibling lanes are untouched (the delay column is
    /// rewritten relative to the shared ring cursor, which is legal by
    /// rotation invariance; the MWI cursor is per-lane).
    ///
    /// Beyond the container checks, the decoder validates what the SoA
    /// kernels hoist: the blob's data-independent op counts must equal the
    /// counts its sample count implies, and the FIR saturation totals must
    /// contain the program's constant per-tick coefficient share.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; on error the lane keeps its previous state —
    /// corrupt input can never produce a silently-diverging lane.
    pub fn restore_lane(&mut self, lane: usize, blob: &[u8]) -> Result<(), SnapshotError> {
        if lane >= self.lanes {
            return Err(SnapshotError::LaneOutOfRange {
                lane,
                lanes: self.lanes,
            });
        }
        let config = *self.engine.config();
        let body = snapshot::open(blob, config.fingerprint())?;
        let mut r = Reader::new(body);
        let lpf_ring = r.take_seq_i64()?;
        let hpf_ring = r.take_seq_i64()?;
        let der_ring = r.take_seq_i64()?;
        let mwi_window = r.take_seq_i64()?;
        let mut counters = [ArithCounters::default(); 5];
        for c in &mut counters {
            let adds = r.take_u64()?;
            let muls = r.take_u64()?;
            c.ops.count_adds(adds);
            c.ops.count_muls(muls);
            c.mul_saturations = r.take_u64()?;
            c.add_overflows = r.take_u64()?;
        }
        let tail = DetectorTail::decode(&config, &mut r)?;
        r.finish()?;

        // Validate everything before touching the lane: a failed restore
        // must leave the previous session intact.
        if lpf_ring.len() != self.lpf.program.taps().len() {
            return Err(SnapshotError::Corrupt(
                "LPF delay ring has the wrong length",
            ));
        }
        if hpf_ring.len() != self.hpf.program.taps().len() {
            return Err(SnapshotError::Corrupt(
                "HPF delay ring has the wrong length",
            ));
        }
        if der_ring.len() != self.der.program.taps().len() {
            return Err(SnapshotError::Corrupt(
                "derivative delay ring has the wrong length",
            ));
        }
        if mwi_window.len() != WINDOW {
            return Err(SnapshotError::Corrupt("MWI window has the wrong length"));
        }
        let n = tail.samples_seen();
        let t = n as u64;
        for (c, expected) in counters.iter().zip(self.stage_ops(t)) {
            if c.ops != expected {
                return Err(SnapshotError::Corrupt(
                    "stage operation counts do not match the sample count",
                ));
            }
        }
        // The FIR totals fold in a constant coefficient-side share per
        // tick; the data-dependent remainder is what the lane arrays hold.
        let fir_sat = |total: u64, per_tick: u64| {
            total
                .checked_sub(t * per_tick)
                .ok_or(SnapshotError::Corrupt(
                    "FIR saturation count below the coefficient-side floor",
                ))
        };
        let lpf_sats = fir_sat(counters[0].mul_saturations, self.lpf.coeff_sats_per_tick)?;
        let hpf_sats = fir_sat(counters[1].mul_saturations, self.hpf.coeff_sats_per_tick)?;
        let der_sats = fir_sat(counters[2].mul_saturations, self.der.coeff_sats_per_tick)?;
        if counters[4].mul_saturations != 0 {
            return Err(SnapshotError::Corrupt(
                "MWI saturation count must be zero (the stage has no multipliers)",
            ));
        }
        if counters[3].add_overflows != 0 {
            return Err(SnapshotError::Corrupt(
                "squarer overflow count must be zero (the stage has no adders)",
            ));
        }

        self.lpf.load_lane_delay_snapshot(lane, &lpf_ring);
        self.hpf.load_lane_delay_snapshot(lane, &hpf_ring);
        self.der.load_lane_delay_snapshot(lane, &der_ring);
        self.mwi.load_lane_window(lane, &mwi_window, n);
        self.lpf.sats[lane] = lpf_sats;
        self.hpf.sats[lane] = hpf_sats;
        self.der.sats[lane] = der_sats;
        self.sqr.sats[lane] = counters[3].mul_saturations;
        self.lpf.ovfs[lane] = counters[0].add_overflows;
        self.hpf.ovfs[lane] = counters[1].add_overflows;
        self.der.ovfs[lane] = counters[2].add_overflows;
        self.mwi.ovfs[lane] = counters[4].add_overflows;
        self.ticks[lane] = t;
        self.tails[lane] = tail;
        Ok(())
    }

    /// Heap bytes of the bank's SoA stage state — the lane-shared kernels,
    /// excluding the tails. The block scratch is the thread's, not the
    /// bank's (see [`SCRATCH`]), and is billed to neither.
    fn soa_heap_bytes(&self) -> usize {
        self.lpf.heap_bytes()
            + self.hpf.heap_bytes()
            + self.der.heap_bytes()
            + self.sqr.heap_bytes()
            + self.mwi.heap_bytes()
            + self.ticks.capacity() * std::mem::size_of::<u64>()
    }

    /// Total live state of the whole bank in bytes: the struct, the SoA
    /// stage state, and every lane's tail. The shared engine is billed
    /// separately, once, via [`DetectorEngine::engine_bytes`].
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.soa_heap_bytes()
            + self
                .tails
                .iter()
                .map(|t| std::mem::size_of::<DetectorTail>() + t.heap_bytes())
                .sum::<usize>()
            + self.scratch_events.capacity() * std::mem::size_of::<StreamEvent>()
    }

    /// One lane's share of the live state: its slice of the SoA stage
    /// state plus its own tail — the marginal cost of one more session on
    /// the shared engine (~7.4 KB high-water for B9 under
    /// [`crate::Footprint::Bounded`], product-class ring included, in an
    /// 8-lane bank).
    #[must_use]
    pub fn lane_state_bytes(&self, lane: usize) -> usize {
        self.soa_heap_bytes() / self.lanes
            + std::mem::size_of::<DetectorTail>()
            + self.tails[lane].heap_bytes()
    }

    /// Bytes of the distinct process-wide shared per-tap product tables,
    /// billed once however many lanes run. See [`DetectorEngine::shared_table_bytes`].
    #[must_use]
    pub fn shared_table_bytes(&self) -> usize {
        self.engine.shared_table_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::MulEngine;
    use crate::config::{Footprint, PipelineConfig};
    use crate::stages::detect_reference;
    use crate::streaming::StreamingQrsDetector;
    use approx_arith::{Mult2x2Kind, StageArith};

    fn pulse_train(n: usize, period: usize, first: usize) -> Vec<i32> {
        let mut signal = vec![0i32; n];
        let mut at = first;
        while at + 4 < n {
            signal[at - 2] = -60;
            signal[at - 1] = 140;
            signal[at] = 260;
            signal[at + 1] = 120;
            signal[at + 2] = -80;
            at += period;
        }
        signal
    }

    fn interleave(lanes: &[Vec<i32>]) -> Vec<i32> {
        let n = lanes[0].len();
        assert!(lanes.iter().all(|s| s.len() == n));
        (0..n)
            .flat_map(|t| lanes.iter().map(move |s| s[t]))
            .collect()
    }

    /// Drives `signals` through a bank in `ticks_per_push`-tick pushes and
    /// returns each lane's full event stream and result.
    fn run_bank(
        config: PipelineConfig,
        signals: &[Vec<i32>],
        ticks_per_push: usize,
    ) -> Vec<(Vec<StreamEvent>, DetectionResult)> {
        let lanes = signals.len();
        let engine = Arc::new(DetectorEngine::new(config));
        let mut bank = LaneBank::new(engine, lanes);
        let frames = interleave(signals);
        let mut events: Vec<Vec<StreamEvent>> = vec![Vec::new(); lanes];
        for chunk in frames.chunks(ticks_per_push * lanes) {
            for le in bank.push(chunk) {
                events[le.lane].push(le.event);
            }
        }
        events
            .into_iter()
            .enumerate()
            .map(|(lane, mut evs)| {
                let (trailing, result) = bank.finish_lane(lane);
                evs.extend(trailing);
                (evs, result)
            })
            .collect()
    }

    #[test]
    fn every_lane_matches_its_solo_run_in_both_footprints() {
        let signals = vec![
            pulse_train(3000, 170, 200),
            pulse_train(3000, 160, 230),
            pulse_train(3000, 181, 260),
            vec![25i32; 3000],
        ];
        for footprint in [Footprint::Retain, Footprint::Bounded] {
            let config = PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(footprint);
            for lane_results in [
                run_bank(config, &signals, 1),
                run_bank(config, &signals, 64),
                run_bank(config, &signals, 4000),
            ] {
                for (lane, (events, result)) in lane_results.into_iter().enumerate() {
                    let (solo_events, solo_result) = detect_reference(config, &signals[lane], 64);
                    assert_eq!(events, solo_events, "{footprint:?} lane {lane} events");
                    assert_eq!(result, solo_result, "{footprint:?} lane {lane} result");
                }
            }
        }
    }

    #[test]
    fn bit_level_engine_lanes_match_solo_runs_too() {
        let signals = vec![pulse_train(1500, 170, 200), pulse_train(1500, 160, 230)];
        let config =
            PipelineConfig::least_energy([8, 10, 2, 8, 16]).with_engine(MulEngine::BitLevel);
        for (lane, (events, result)) in run_bank(config, &signals, 50).into_iter().enumerate() {
            let (solo_events, solo_result) = detect_reference(config, &signals[lane], 50);
            assert_eq!(events, solo_events, "lane {lane} events");
            assert_eq!(result, solo_result, "lane {lane} result");
        }
    }

    /// The blocked kernels against the scalar reference chain for every
    /// elementary-module pair: each adder kind's closed form, periodic and
    /// exact taps, and a table-fallback tap (V1/AMA1 at k = 16 against the
    /// LPF's |1|, which fills the class ring like any other tap), over 21
    /// lanes so every register block width (16, 4, 1) runs, with
    /// saturating lanes among them.
    #[test]
    fn blocked_kernels_match_solo_runs_for_every_module_pair() {
        let lanes = 21;
        let signals: Vec<Vec<i32>> = (0..lanes)
            .map(|l| {
                let gain = if l % 5 == 4 { 150 } else { 1 };
                pulse_train(1200, 150 + 3 * l, 160 + 5 * l)
                    .into_iter()
                    .map(|v| v * gain)
                    .collect()
            })
            .collect();
        for mult in Mult2x2Kind::ALL {
            for add in FullAdderKind::ALL {
                for lsbs in [[10, 12, 2, 8, 16], [16, 3, 16, 6, 20]] {
                    let stages = lsbs.map(|k| StageArith::new(k, mult, add));
                    let config = PipelineConfig::from_stages(stages);
                    let bank = LaneBank::new(Arc::new(DetectorEngine::new(config)), 1);
                    let want = if mult.is_accurate() && add.is_accurate() {
                        FirKernel::Exact
                    } else {
                        FirKernel::Ring
                    };
                    assert_eq!(bank.lpf.kernel, want, "{config}");
                    if (mult, add, lsbs[0]) == (Mult2x2Kind::V1, FullAdderKind::Ama1, 16) {
                        let fallback =
                            bank.lpf.program.tap_mults().is_some_and(|tm| {
                                tm.iter().any(|t| !t.is_exact() && !t.is_periodic())
                            });
                        assert!(fallback, "{config}: expected a table-fallback LPF tap");
                    }
                    for (lane, (events, result)) in
                        run_bank(config, &signals, 50).into_iter().enumerate()
                    {
                        let (solo_events, solo_result) =
                            detect_reference(config, &signals[lane], 50);
                        assert_eq!(events, solo_events, "{config} lane {lane} events");
                        assert_eq!(result, solo_result, "{config} lane {lane} result");
                    }
                }
            }
        }
    }

    /// Finishing one lane mid-run starts a fresh session in that lane
    /// without perturbing its neighbours — the MWI per-lane cursor and
    /// the FIR rotation invariance under one shared cursor.
    #[test]
    fn lane_reset_mid_run_behaves_like_fresh_session() {
        let config = PipelineConfig::exact();
        let first = pulse_train(2000, 170, 200);
        let second = pulse_train(2400, 181, 260);
        let long = pulse_train(4400, 160, 230);

        let engine = Arc::new(DetectorEngine::new(config));
        let mut bank = LaneBank::new(engine, 2);
        let mut lane0_first = Vec::new();
        let mut lane0_second = Vec::new();
        let mut lane1 = Vec::new();

        let frames: Vec<i32> = (0..2000).flat_map(|t| [first[t], long[t]]).collect();
        for le in bank.push(&frames) {
            match le.lane {
                0 => lane0_first.push(le.event),
                _ => lane1.push(le.event),
            }
        }
        let (trailing, result_first) = bank.finish_lane(0);
        lane0_first.extend(trailing);
        assert_eq!(bank.samples_seen(0), 0, "lane 0 should restart at zero");
        assert_eq!(bank.samples_seen(1), 2000, "lane 1 must be untouched");

        let frames: Vec<i32> = (0..2400)
            .flat_map(|t| [second[t], long[2000 + t]])
            .collect();
        for le in bank.push(&frames) {
            match le.lane {
                0 => lane0_second.push(le.event),
                _ => lane1.push(le.event),
            }
        }
        let (trailing, result_second) = bank.finish_lane(0);
        lane0_second.extend(trailing);
        let (trailing, result_long) = bank.finish_lane(1);
        lane1.extend(trailing);

        let (e, r) = detect_reference(config, &first, 500);
        assert_eq!((lane0_first, result_first), (e, r), "first record");
        let (e, r) = detect_reference(config, &second, 500);
        assert_eq!((lane0_second, result_second), (e, r), "reused lane");
        let (e, r) = detect_reference(config, &long, 500);
        assert_eq!((lane1, result_long), (e, r), "neighbour lane");
    }

    #[test]
    fn lane_tap_matches_scalar_tap() {
        let signals = vec![pulse_train(2200, 170, 200), pulse_train(2200, 160, 230)];
        let config =
            PipelineConfig::least_energy([4, 4, 2, 4, 8]).with_footprint(Footprint::Bounded);
        let engine = Arc::new(DetectorEngine::new(config));
        let mut bank = LaneBank::new(engine, 2);
        let mut taps = vec![Vec::new(), Vec::new()];
        let frames = interleave(&signals);
        for chunk in frames.chunks(2 * 33) {
            let _ = bank.push_tapped(chunk, &mut taps);
        }
        for (lane, signal) in signals.iter().enumerate() {
            let (_, reference) =
                detect_reference(config.with_footprint(Footprint::Retain), signal, 33);
            assert_eq!(
                taps[lane],
                reference.expect_signals().hpf,
                "lane {lane} HPF tap"
            );
        }
    }

    #[test]
    fn per_lane_state_is_bounded_and_engine_billed_once() {
        let config =
            PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded);
        let engine = Arc::new(DetectorEngine::new(config));
        let lanes = 8;
        let mut bank = LaneBank::new(Arc::clone(&engine), lanes);
        let signals: Vec<Vec<i32>> = (0..lanes)
            .map(|l| pulse_train(6000, 160 + 7 * l, 200 + 11 * l))
            .collect();
        let frames = interleave(&signals);
        let mut high_water = 0usize;
        for chunk in frames.chunks(lanes * 256) {
            let _ = bank.push(chunk);
            high_water = high_water.max(bank.lane_state_bytes(0));
        }
        // The marginal session cost stays at the scalar bounded budget,
        // with config and tap tables billed once to the engine.
        assert!(
            high_water < 12 * 1024,
            "per-lane high water {high_water} bytes"
        );
        assert!(high_water > 1024, "suspiciously small: {high_water}");
        assert!(bank.state_bytes() < lanes * 16 * 1024 + 4096);
        assert!(engine.engine_bytes() < 8 * 1024);
        assert_eq!(
            bank.shared_table_bytes(),
            engine.shared_table_bytes(),
            "lane bank must not re-bill the shared tables"
        );
    }

    #[test]
    #[should_panic(expected = "whole ticks")]
    fn ragged_frames_are_rejected() {
        let engine = Arc::new(DetectorEngine::new(PipelineConfig::exact()));
        let mut bank = LaneBank::new(engine, 4);
        let _ = bank.push(&[1, 2, 3]);
    }

    /// The tentpole migration contract: a lane snapshot restores into a
    /// solo session, and a solo snapshot into a lane of a *different-width*
    /// bank whose shared ring cursor is mid-rotation — both resuming
    /// bit-identically with the uninterrupted solo run.
    #[test]
    fn lane_and_solo_snapshots_interchange_bit_identically() {
        for config in [
            PipelineConfig::exact(),
            PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded),
        ] {
            let signal = pulse_train(3000, 170, 200);
            let sibling = pulse_train(3000, 160, 230);
            let (ref_events, ref_result) = detect_reference(config, &signal, 64);

            // Lane → solo at sample 1100.
            let engine = Arc::new(DetectorEngine::new(config));
            let mut bank = LaneBank::new(Arc::clone(&engine), 2);
            let mut events = Vec::new();
            let frames: Vec<i32> = (0..1100).flat_map(|t| [signal[t], sibling[t]]).collect();
            for le in bank.push(&frames) {
                if le.lane == 0 {
                    events.push(le.event);
                }
            }
            let blob = bank.snapshot_lane(0).expect("lane snapshot");
            let mut solo =
                StreamingQrsDetector::restore(Arc::clone(&engine), &blob).expect("solo restore");
            events.extend(solo.push(&signal[1100..]));
            let (trailing, result) = solo.finish();
            events.extend(trailing);
            assert_eq!(events, ref_events, "lane→solo events");
            assert_eq!(result, ref_result, "lane→solo result");

            // Solo → widest lane of a 3-lane bank at sample 700, with the
            // destination bank pre-warmed 500 ticks so the shared FIR
            // cursor sits mid-rotation when the session lands.
            let mut solo = StreamingQrsDetector::from_engine(Arc::clone(&engine));
            let mut events = solo.push(&signal[..700]);
            let blob = solo.snapshot().expect("solo snapshot");
            let mut bank = LaneBank::new(Arc::clone(&engine), 3);
            let warm: Vec<i32> = (0..500).flat_map(|t| [0, sibling[t], 0]).collect();
            let _ = bank.push(&warm);
            bank.restore_lane(2, &blob).expect("lane restore");
            assert_eq!(bank.samples_seen(2), 700, "restored lane sample count");
            let frames: Vec<i32> = (700..3000)
                .flat_map(|t| [0, sibling[t - 700], signal[t]])
                .collect();
            for le in bank.push(&frames) {
                if le.lane == 2 {
                    events.push(le.event);
                }
            }
            let (trailing, result) = bank.finish_lane(2);
            events.extend(trailing);
            assert_eq!(events, ref_events, "solo→lane events");
            assert_eq!(result, ref_result, "solo→lane result");
        }
    }

    /// Satellite 1: a finished lane re-seeds cleanly with a fresh *or* a
    /// restored session — bit-identical to the solo runs — while its
    /// sibling lane's stream is untouched, under an approximate bounded
    /// configuration.
    #[test]
    fn finished_lane_reseeds_fresh_or_restored_without_disturbing_siblings() {
        let config =
            PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded);
        let first = pulse_train(1600, 170, 200);
        let second = pulse_train(2000, 181, 260);
        let long = pulse_train(3200, 160, 230);
        let engine = Arc::new(DetectorEngine::new(config));

        // A donor solo session snapshotted 400 samples into `second`.
        let mut donor = StreamingQrsDetector::from_engine(Arc::clone(&engine));
        let mut lane0_second = donor.push(&second[..400]);
        let donor_blob = donor.snapshot().expect("donor snapshot");

        let mut bank = LaneBank::new(Arc::clone(&engine), 2);
        let mut lane0_first = Vec::new();
        let mut lane1 = Vec::new();
        let frames: Vec<i32> = (0..1600).flat_map(|t| [first[t], long[t]]).collect();
        for le in bank.push(&frames) {
            match le.lane {
                0 => lane0_first.push(le.event),
                _ => lane1.push(le.event),
            }
        }
        let (trailing, result_first) = bank.finish_lane(0);
        lane0_first.extend(trailing);

        // Re-seed the harvested lane with the donor's mid-record state.
        bank.restore_lane(0, &donor_blob).expect("re-seed restore");
        let frames: Vec<i32> = (0..2000 - 400)
            .flat_map(|t| [second[400 + t], long[1600 + t]])
            .collect();
        for le in bank.push(&frames) {
            match le.lane {
                0 => lane0_second.push(le.event),
                _ => lane1.push(le.event),
            }
        }
        let (trailing, result_second) = bank.finish_lane(0);
        lane0_second.extend(trailing);
        let (trailing, result_long) = bank.finish_lane(1);
        lane1.extend(trailing);

        let (e, r) = detect_reference(config, &first, 64);
        assert_eq!((lane0_first, result_first), (e, r), "first record");
        let (e, r) = detect_reference(config, &second, 64);
        assert_eq!((lane0_second, result_second), (e, r), "restored re-seed");
        let (e, r) = detect_reference(config, &long, 64);
        assert_eq!((lane1, result_long), (e, r), "sibling lane");
    }

    /// A failed restore — wrong lane, wrong config, tampered body — leaves
    /// the lane's previous session fully intact.
    #[test]
    fn failed_lane_restore_leaves_previous_session_intact() {
        let config = PipelineConfig::exact();
        let signal = pulse_train(2400, 170, 200);
        let engine = Arc::new(DetectorEngine::new(config));
        let mut bank = LaneBank::new(Arc::clone(&engine), 2);
        let mut events = Vec::new();
        let frames: Vec<i32> = (0..900).flat_map(|t| [signal[t], 0]).collect();
        for le in bank.push(&frames) {
            if le.lane == 0 {
                events.push(le.event);
            }
        }
        let blob = bank.snapshot_lane(0).expect("snapshot");

        assert!(matches!(
            bank.snapshot_lane(7),
            Err(SnapshotError::LaneOutOfRange { lane: 7, lanes: 2 })
        ));
        assert!(matches!(
            bank.restore_lane(7, &blob),
            Err(SnapshotError::LaneOutOfRange { lane: 7, lanes: 2 })
        ));

        // Wrong configuration: fingerprint mismatch.
        let other = PipelineConfig::least_energy([4, 4, 2, 4, 8]);
        let mut other_bank = LaneBank::new(Arc::new(DetectorEngine::new(other)), 1);
        assert!(matches!(
            other_bank.restore_lane(0, &blob),
            Err(SnapshotError::ConfigMismatch { .. })
        ));

        // Tampered body: flip one byte past the header.
        let mut bad = blob.clone();
        let at = crate::snapshot::HEADER_BYTES + 40;
        bad[at] ^= 0x55;
        assert!(matches!(
            bank.restore_lane(0, &bad),
            Err(SnapshotError::ChecksumMismatch)
        ));

        // The lane keeps streaming exactly as if nothing happened.
        let frames: Vec<i32> = (900..2400).flat_map(|t| [signal[t], 0]).collect();
        for le in bank.push(&frames) {
            if le.lane == 0 {
                events.push(le.event);
            }
        }
        let (trailing, result) = bank.finish_lane(0);
        events.extend(trailing);
        let (ref_events, ref_result) = detect_reference(config, &signal, 64);
        assert_eq!(events, ref_events, "events after failed restores");
        assert_eq!(result, ref_result, "result after failed restores");
    }
}
