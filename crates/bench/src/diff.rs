//! The shrinking differential oracle and mutation harness.
//!
//! [`Case`] names one generated division kernel — a code *shape*
//! (unsigned/signed/floor/exact/divisibility/dword, plus the planner
//! tournament's winning unsigned kernel), a width, and a divisor — and
//! pairs the generated program with its ground truth
//! ([`Case::expected`], computed with native 128-bit arithmetic). The
//! Fig 8.1 dword shape packs its `(hi, lo)` dividend and `(q, r)`
//! result into single `u64`s, so it participates in the same scalar
//! oracle/shrinker machinery at widths up to 32. On top of that sit:
//!
//! * [`classify_mutant`] — decide whether a single-op mutant (from
//!   [`magicdiv_ir::mutations`]) is *killed* by the oracle, *proven
//!   equivalent* (exhaustively through width 16, by small-scope
//!   certificate above), or *survived* — the measured kill rate is the
//!   harness's trust score;
//! * [`shrink`] — minimize any failing `(n, d)` toward small magnitudes
//!   by binary descent, producing the one-line reproducers persisted in
//!   `tests/corpus/`.

use magicdiv::mod_inverse_newton;
use magicdiv::plan::{
    DivPlan, DivisibilityPlan, DwordPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan, UremPlan,
    UremStrategy,
};
use magicdiv::testkit::directed_unsigned_dividends;
use magicdiv::validity::fraction_valid;
use magicdiv::DivisorError;
use magicdiv_ir::{
    apply_mutation, compile, mask, mutations, sign_extend, EvalOptions, Mutation, Op, Program, Reg,
    LANES,
};

/// Fuel budget for every harness evaluation of a (possibly mutated)
/// program. Pristine kernels are straight-line and at most a few dozen
/// instructions, so this is ~3 orders of magnitude of headroom; a
/// pathological mutant that would otherwise spin becomes a typed
/// `FuelExhausted` fault (folded into `None` by [`run`]) instead of a
/// hang.
pub const DEFAULT_EVAL_FUEL: u64 = 10_000;

/// Deterministic splitmix64 generator shared by the harness binaries and
/// tests (the repo takes no RNG dependency).
///
/// # Examples
///
/// ```
/// use magicdiv_bench::SplitMix;
///
/// let mut a = SplitMix(42);
/// let mut b = SplitMix(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Returns the next pseudo-random value.
    #[allow(clippy::should_implement_trait)]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The code shapes under differential test: the six the paper's code
/// generator emits, plus the planner tournament's winning unsigned
/// kernel (which may come from a non-paper candidate family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Fig 4.2 unsigned truncating division.
    Udiv,
    /// Fig 5.2 signed truncating division.
    Sdiv,
    /// Fig 6.1 signed floor division.
    Floor,
    /// §9 exact division (dividend known to be a multiple).
    Exact,
    /// §9 divisibility test.
    Divisibility,
    /// Fig 8.1 doubleword ÷ word division. The case's `n` packs the
    /// two-word dividend as `(hi << width) | lo`, and the oracle value
    /// packs the two results as `(q << width) | r` — so the shape is
    /// only testable at widths up to 32 (see [`Shape::supports_width`]).
    Dword,
    /// The planner tournament's winning unsigned kernel: whatever
    /// candidate family (Fig 4.2, round-up, optimal-bounds) the
    /// op-count tournament selects for this `(d, width)`. Mutants of
    /// non-paper winners are first-class targets — the oracle must
    /// kill a perturbed round-up or optimal-bounds multiplier just as
    /// reliably as a perturbed Fig 4.2 magic.
    UdivTournament,
    /// Direct remainder `n mod d` with no quotient formed (LKK Thm 1
    /// fraction, or a mask for powers of two). The widened multiplier
    /// `c = ⌈2^2N/d⌉` has slack — at `F = 2N` a whole interval of `c`
    /// values computes the same remainder for every `n < 2^N`, so
    /// upward `c` perturbations are legitimately *equivalent*, not
    /// oracle blind spots; downward ones fail at multiples of `d`.
    Urem,
    /// Remainder via §1 multiply-back (`r = n - d·⌊n/d⌋`) — the
    /// refactor's baseline, kept under differential test so the two
    /// remainder paths stay pinned to the same oracle.
    UremMulBack,
}

impl Shape {
    /// Every shape, in a fixed order.
    pub const ALL: [Shape; 9] = [
        Shape::Udiv,
        Shape::Sdiv,
        Shape::Floor,
        Shape::Exact,
        Shape::Divisibility,
        Shape::Dword,
        Shape::UdivTournament,
        Shape::Urem,
        Shape::UremMulBack,
    ];

    /// Stable lower-case name, used in corpus lines.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Udiv => "udiv",
            Shape::Sdiv => "sdiv",
            Shape::Floor => "floor",
            Shape::Exact => "exact",
            Shape::Divisibility => "divisibility",
            Shape::Dword => "dword",
            Shape::UdivTournament => "udiv-tournament",
            Shape::Urem => "urem",
            Shape::UremMulBack => "urem-mulback",
        }
    }

    /// Inverse of [`Shape::name`].
    pub fn from_name(s: &str) -> Option<Shape> {
        Shape::ALL.into_iter().find(|sh| sh.name() == s)
    }

    /// Whether the divisor and dividends are interpreted as signed.
    pub fn signed(self) -> bool {
        matches!(self, Shape::Sdiv | Shape::Floor)
    }

    /// Whether the differential harness can drive this shape at `width`.
    /// Dword packs its two-word dividend into one `u64`, limiting it to
    /// widths ≤ 32; every other shape covers the full IR range.
    pub fn supports_width(self, width: u32) -> bool {
        self != Shape::Dword || width <= 32
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One differential test case: a shape, a width, and a divisor.
///
/// `d` is stored as the masked `width`-bit pattern; signed shapes
/// sign-extend it (so `d = 0xf6`, width 8, `Sdiv` means −10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Case {
    /// The code shape under test.
    pub shape: Shape,
    /// Word width in bits (8/16/32/64 for the mutation run).
    pub width: u32,
    /// Divisor bit pattern, masked to `width` bits.
    pub d: u64,
}

impl Case {
    /// Builds a case, masking `d` to the width.
    pub fn new(shape: Shape, width: u32, d: u64) -> Case {
        Case {
            shape,
            width,
            d: d & mask(width),
        }
    }

    /// The divisor as a signed value (sign-extended from `width` bits).
    pub fn d_signed(&self) -> i64 {
        sign_extend(self.d, self.width)
    }

    /// Generates the pristine program for this case: its plan, compiled.
    ///
    /// # Panics
    ///
    /// Panics when `d` is zero (no kernel exists), and when a
    /// [`Shape::Dword`] case is built at a width the packed-input harness
    /// cannot drive.
    pub fn program(&self) -> Program {
        assert!(
            self.shape.supports_width(self.width),
            "dword cases pack (hi, lo) into one u64 and need width <= 32"
        );
        let (d, ds, w) = (u128::from(self.d), i128::from(self.d_signed()), self.width);
        let plan: Result<DivPlan, DivisorError> = match self.shape {
            Shape::Udiv => UdivPlan::new(d, w).map(Into::into),
            Shape::Sdiv => SdivPlan::new(ds, w).map(Into::into),
            Shape::Floor => FloorPlan::new(ds, w).map(Into::into),
            Shape::Exact => ExactPlan::new_unsigned(d, w).map(Into::into),
            Shape::Divisibility => DivisibilityPlan::new(d, w).map(Into::into),
            Shape::Dword => DwordPlan::new(d, w).map(Into::into),
            Shape::UdivTournament => magicdiv::run_udiv_tournament(d, w, &magicdiv::OpCount)
                .map(|t| t.winning().candidate.plan),
            Shape::Urem => UremPlan::new_direct(d, w).map(Into::into),
            // Multiply-back at every divisor, powers of two included
            // (`UremPlan::new` masks those).
            Shape::UremMulBack => UdivPlan::new(d, w).map(|udiv| {
                let strategy = UremStrategy::MulBack {
                    udiv: udiv.strategy(),
                };
                UremPlan::from_raw(d, w, strategy).into()
            }),
        };
        compile(plan.expect("no kernel for d = 0")).expect("case widths fit the IR")
    }

    /// Whether the oracle is defined at input `n` (exact division only
    /// contracts for multiples of `d`; floor skips the wrapping
    /// `MIN / -1` corner the generators do not define; dword requires
    /// the Fig 8.1 precondition `hi < d`, i.e. the quotient fits a
    /// word).
    pub fn input_valid(&self, n: u64) -> bool {
        if self.shape == Shape::Dword {
            // Packed dividend: hi = n >> width, lo = n & mask(width).
            return (n >> self.width) < self.d;
        }
        let n = n & mask(self.width);
        match self.shape {
            Shape::Exact => n % self.d == 0,
            Shape::Floor => {
                !(sign_extend(n, self.width) == self.min_signed() && self.d_signed() == -1)
            }
            _ => true,
        }
    }

    /// Ground truth at input `n`, via native 128-bit arithmetic,
    /// masked to the case's width. `None` when [`Case::input_valid`] is
    /// false.
    ///
    /// For [`Shape::Dword`], `n` is the packed `(hi << width) | lo`
    /// dividend and the result packs `(q << width) | r` — `hi < d`
    /// guarantees both halves fit a word.
    pub fn expected(&self, n: u64) -> Option<u64> {
        if !self.input_valid(n) {
            return None;
        }
        if self.shape == Shape::Dword {
            return Some(((n / self.d) << self.width) | (n % self.d));
        }
        let m = mask(self.width);
        let n = n & m;
        let sn = sign_extend(n, self.width) as i128;
        let sd = self.d_signed() as i128;
        Some(match self.shape {
            // i128 division cannot overflow on 64-bit operands; masking
            // the quotient reproduces the wrapping MIN / -1 result.
            Shape::Sdiv => (sn / sd) as u64 & m,
            Shape::Floor => {
                let q = sn.div_euclid(sd) - i128::from(sd < 0 && sn.rem_euclid(sd) != 0);
                q as u64 & m
            }
            Shape::Exact | Shape::Udiv | Shape::UdivTournament => n / self.d,
            Shape::Divisibility => u64::from(n % self.d == 0),
            Shape::Urem | Shape::UremMulBack => n % self.d,
            // Handled by the packed early return above.
            Shape::Dword => unreachable!("dword oracle handled before masking"),
        })
    }

    fn min_signed(&self) -> i64 {
        sign_extend(1u64 << (self.width - 1), self.width)
    }

    /// Directed inputs aimed at the failure surface of every mutation
    /// kind: word boundaries, sign boundaries, powers of two ±1, and the
    /// multiples-of-`d` neighborhood near the top of the range (where a
    /// perturbed magic multiplier accumulates its largest error).
    pub fn directed_inputs(&self) -> Vec<u64> {
        let m = mask(self.width);
        let mut out: Vec<u64> = Vec::new();
        if self.shape == Shape::Exact {
            // Only multiples are contractual: walk quotients instead.
            let qmax = m / self.d;
            for q in [0, 1, 2, 3, qmax, qmax.saturating_sub(1), qmax / 2] {
                out.push(q * self.d);
            }
            for j in 0..self.width {
                let p = 1u64 << j;
                if p > qmax {
                    break;
                }
                out.push(p * self.d);
            }
        } else if self.shape == Shape::Dword {
            // Packed (hi << width) | lo grid: word boundaries on both
            // limbs crossed with every valid high limb of interest —
            // including the Lemma 8.1 precondition boundary hi = d − 1 —
            // plus the multiples-of-d neighborhood at the very top of
            // the doubleword range (top = d·2^N − 1, the largest valid
            // dividend, where a perturbed m′ accumulates its largest
            // error through the q1 estimate).
            let d = self.d;
            let mut his = vec![0, 1, 2, d / 2, d.saturating_sub(2), d - 1];
            his.retain(|&h| h < d);
            his.sort_unstable();
            his.dedup();
            let mut los = vec![0, 1, 2, 3, m, m - 1, m - 2, m >> 1, (m >> 1) + 1, d & m];
            for j in 0..self.width {
                let p = 1u64 << j;
                los.extend([p & m, p - 1, (p + 1) & m]);
            }
            for &h in &his {
                for &lo in &los {
                    out.push((h << self.width) | (lo & m));
                }
            }
            let top = (d << self.width) - 1;
            let t = top - top % d;
            for base in [d, d.wrapping_mul(2), t, t - d] {
                out.extend([base, base.wrapping_sub(1), base.wrapping_add(1)]);
            }
            out.push(top);
            out.extend(self.dword_carry_boundary_inputs());
        } else if !self.shape.signed() {
            out.extend(
                directed_unsigned_dividends(u128::from(self.d.max(1)), self.width)
                    .into_iter()
                    .map(|n| n as u64),
            );
        } else {
            out.extend([0, 1, 2, 3, m, m - 1, m - 2]);
            // Sign boundaries.
            out.extend([m >> 1, (m >> 1).wrapping_sub(1), (m >> 1) + 1, (m >> 1) + 2]);
            // Powers of two and neighbors.
            for j in 0..self.width {
                let p = 1u64 << j;
                out.extend([p, p - 1, (p + 1) & m]);
            }
            // The divisor neighborhood, small and at maximal magnitude,
            // measured with |d| and topped out at the positive signed
            // maximum: t = largest multiple of |d| <= top; t - 1 carries
            // the largest residue at the largest quotient (kills e' > 0
            // multiplier perturbations), t itself kills e' < 0 ones.
            let d = self.d_signed().unsigned_abs().max(1);
            let top = m >> 1;
            let t = top - top % d;
            for base in [d, d.wrapping_mul(2) & m, t, t.wrapping_sub(d)] {
                out.extend([base, base.wrapping_sub(1) & m, base.wrapping_add(1) & m]);
            }
            // Mirror everything through negation to cover the n < 0
            // paths (XSIGN corrections, Fig 5.2's add-before-shift).
            let mirrored: Vec<u64> = out.iter().map(|v| v.wrapping_neg() & m).collect();
            out.extend(mirrored);
        }
        out.retain(|&n| self.input_valid(n));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Directed inputs that pin Fig 8.1's adjusted-add carry boundary.
    ///
    /// In the lowered dword kernel, `nadj` (and therefore the `d_norm`
    /// constant) influences the output *only* through the single bit
    /// `carry(t_lo, nadj)`, where `t_lo = m'·(n2 + n1) mod 2^N`. A
    /// perturbed `d_norm ± 2^b` flips that carry only on inputs whose
    /// `t_lo` lands within `2^b` of `2^N − nadj` — a set far too thin
    /// for random or boundary-grid probing. This generator constructs
    /// those witnesses analytically: for every reachable `nadj` (there
    /// are at most `2^l` low-limb patterns, each with the sign
    /// adjustment on or off), it solves `m'·x ≡ target (mod 2^N)` by
    /// modular inverse of the odd part of `m'` for targets just at and
    /// just below the boundary, then rebuilds the packed `(hi, lo)`
    /// input that produces that `x`.
    fn dword_carry_boundary_inputs(&self) -> Vec<u64> {
        let w = self.width;
        let wm = mask(w);
        let d = self.d;
        // l = 1 + floor(log2 d); the generator needs a proper shift
        // split (l < N) and a small pattern space to stay cheap.
        let l = 64 - u64::leading_zeros(d);
        if l == 0 || l >= w || l > 6 {
            return Vec::new();
        }
        let Ok(plan) = DwordPlan::new(u128::from(d), w) else {
            return Vec::new();
        };
        let (m_prime, d_norm) = (plan.m_prime() as u64, plan.d_norm() as u64);
        if m_prime == 0 {
            return Vec::new();
        }
        let z = m_prime.trailing_zeros();
        let uinv = mod_inverse_newton::<u64>(m_prime >> z) & mask(w - z);
        let step = 1i128 << z;
        let mut out = Vec::new();
        for a in 0..(1u64 << l) {
            let n10 = (a << (w - l)) & wm;
            let n1 = n10 >> (w - 1);
            let nadj = if n1 == 1 {
                n10.wrapping_add(d_norm) & wm
            } else {
                n10
            };
            // The carry flips when t_lo crosses 2^N − nadj; aim at the
            // boundary itself (kills downward d_norm perturbations) and
            // at the nearest achievable values below it (kills upward
            // ones down to the image granularity 2^z).
            let boundary = (1i128 << w) - i128::from(nadj);
            for delta in [0, -step, step, -2 * step] {
                let target = (boundary + delta).rem_euclid(1i128 << w) as u64;
                if target.trailing_zeros() < z {
                    continue;
                }
                let x0 = (target >> z).wrapping_mul(uinv) & mask(w - z);
                // Lift x modulo 2^(N−z) to a full-width x whose high
                // limb satisfies the hi < d precondition.
                for k in 0..(1u64 << z.min(6)) {
                    let x = (x0 | (k << (w - z))) & wm;
                    let n2 = x.wrapping_sub(n1) & wm;
                    let hi = n2 >> (w - l);
                    if hi >= d {
                        continue;
                    }
                    let lo = ((n2 & mask(w - l)) << l) | a;
                    out.push((hi << w) | (lo & wm));
                    break;
                }
            }
        }
        out
    }

    /// A uniformly random *valid* input for this case.
    pub fn random_input(&self, rng: &mut SplitMix) -> u64 {
        let m = mask(self.width);
        match self.shape {
            Shape::Exact => {
                let qmax = m / self.d;
                let q = if qmax == u64::MAX {
                    rng.next_u64()
                } else {
                    rng.next_u64() % (qmax + 1)
                };
                q * self.d
            }
            // Uniform over the packed doubleword domain [0, d·2^N).
            Shape::Dword => rng.next_u64() % (self.d << self.width),
            _ => loop {
                let n = rng.next_u64() & m;
                if self.input_valid(n) {
                    return n;
                }
            },
        }
    }
}

/// Largest packed dword domain (`d·2^width`) the harness will sweep
/// exhaustively — 2^24 evaluations keep a full-kernel sweep well under
/// a second in release builds.
const DWORD_EXHAUSTIVE_CAP: u64 = 1 << 24;

/// The verdict on one mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutantFate {
    /// The oracle caught the mutant: it disagrees with ground truth (or
    /// faults) at the recorded input.
    Killed {
        /// A witness input where the mutant is wrong.
        n: u64,
    },
    /// Exhaustively shown (width ≤ 8) to compute the same function as
    /// the pristine program on every contractual input.
    Equivalent,
    /// Neither killed nor proven equivalent — an oracle blind spot.
    Survived,
}

/// Evaluates `prog` at `n`, folding evaluation faults into `None` (a
/// faulting mutant is observably wrong, so `None` never matches an
/// oracle value). Dword cases unpack `n` into the `(hi, lo)` argument
/// pair and repack the `(q, r)` result pair, mirroring
/// [`Case::expected`]'s encoding.
pub fn run(case: &Case, prog: &Program, n: u64) -> Option<u64> {
    let mut got = [None];
    run_lanes(case, prog, &[n], &mut got);
    got[0]
}

/// [`run`] on up to [`LANES`] inputs in one interpreter pass: writes to
/// `got[l]` what [`run`] returns for `ns[l]`.
fn run_lanes(case: &Case, prog: &Program, ns: &[u64], got: &mut [Option<u64>]) {
    let opts = EvalOptions {
        fuel: Some(DEFAULT_EVAL_FUEL),
        ..EvalOptions::default()
    };
    let (lanes, w) = (ns.len(), case.width);
    let dword = case.shape == Shape::Dword;
    let results = prog.results().len();
    let mut args = [0u64; 2 * LANES];
    let mut out = [0u64; 2 * LANES];
    let mut status = [Ok(()); LANES];
    // Every shape returns one or two results; more never match the oracle.
    let Some(out) = out.get_mut(..results * lanes) else {
        got.fill(None);
        return;
    };
    let args = if dword {
        for (l, &n) in ns.iter().enumerate() {
            (args[l], args[lanes + l]) = (n >> w, n & mask(w));
        }
        &args[..2 * lanes]
    } else {
        args[..lanes].copy_from_slice(ns);
        &args[..lanes]
    };
    let status = &mut status[..lanes];
    prog.eval_lanes(args, &opts, out, status);
    for (l, g) in got.iter_mut().enumerate() {
        *g = match status[l] {
            Err(_) => None,
            Ok(()) if dword => (results == 2).then(|| (out[l] << w) | out[lanes + l]),
            Ok(()) => (results > 0).then(|| out[l]),
        };
    }
}

/// Exhaustive verdict over every contractual input — feasible through
/// width 16 (at most 65 536 evaluations for the single-word shapes;
/// the dword domain is `d·2^width`, which the callers keep small). The
/// contractual inputs run [`LANES`] at a time, in increasing order, so
/// a kill names the smallest killing input.
fn exhaustive_fate(case: &Case, mutant: &Program) -> MutantFate {
    let top = match case.shape {
        Shape::Dword => (case.d << case.width) - 1,
        _ => mask(case.width),
    };
    let mut ns = [0u64; LANES];
    let mut got = [None; LANES];
    let mut len = 0;
    let mut killed = |ns: &[u64]| {
        let got = &mut got[..ns.len()];
        run_lanes(case, mutant, ns, got);
        ns.iter()
            .zip(got)
            .find(|(&n, g)| **g != case.expected(n))
            .map(|(&n, _)| MutantFate::Killed { n })
    };
    for n in (0..=top).filter(|&n| case.input_valid(n)) {
        ns[len] = n;
        len += 1;
        if len == LANES {
            if let Some(fate) = killed(&ns) {
                return fate;
            }
            len = 0;
        }
    }
    killed(&ns[..len]).unwrap_or(MutantFate::Equivalent)
}

/// Whether `a` and `b` are the same instruction sequence up to constant
/// values and shift amounts — the invariant the small-scope certificate
/// needs before a mutation at one width can be mapped onto the other.
fn same_structure(a: &Program, b: &Program) -> bool {
    a.insts().len() == b.insts().len()
        && a.insts().iter().zip(b.insts()).all(|(x, y)| {
            std::mem::discriminant(x) == std::mem::discriminant(y) && x.operands().eq(y.operands())
        })
}

/// Maps a mutation of a width-`from` program onto the width-`to` copy
/// of the same kernel. Opcode, operand, and shift mutations are
/// anchored by instruction index and map unchanged. A constant bit flip
/// maps by zone: the low half-word keeps its absolute position, the top
/// half-word keeps its position relative to the word's top, and a flip
/// in the interior maps to the small width's lowest interior bit —
/// width-scaled constants (magic multipliers, `d_norm = d << (N−l)`)
/// keep the same low/interior/top structure at every width, so an
/// interior flip's small-width analogue is "some interior bit". The
/// interior mapping is only trusted when the flipped bit has the same
/// polarity in both constants ([`small_scope_equivalent`] checks that),
/// which rules out constants whose interior pattern does not scale.
fn downscale_mutation(m: Mutation, from: u32, to: u32) -> Option<Mutation> {
    match m {
        Mutation::ConstFlip { inst, bit } => {
            let bit = if bit < to / 2 {
                bit
            } else if bit >= from - to / 2 {
                bit - (from - to)
            } else {
                to / 2
            };
            Some(Mutation::ConstFlip { inst, bit })
        }
        other => Some(other),
    }
}

/// Whether a [`Mutation::ConstFlip`] and its downscaled image flip a
/// bit of the same polarity (0→1 vs 1→0) in their respective constants
/// — the structural precondition for trusting the interior-zone
/// mapping in [`downscale_mutation`].
fn const_flip_polarity_matches(big: &Program, small: &Program, m: Mutation, sm: Mutation) -> bool {
    let (Mutation::ConstFlip { inst, bit }, Mutation::ConstFlip { bit: sbit, .. }) = (m, sm) else {
        return true;
    };
    match (big.insts().get(inst), small.insts().get(inst)) {
        (Some(magicdiv_ir::Op::Const(cb)), Some(magicdiv_ir::Op::Const(cs))) => {
            (cb >> bit) & 1 == (cs >> sbit) & 1
        }
        _ => false,
    }
}

/// A sound unsigned upper bound for every register of `prog`, by
/// forward interval propagation from `Arg ∈ [0, mask]`. Operations
/// whose unsigned result is provably bounded (constants, unsigned
/// high-multiply, non-wrapping adds and shifts, carries) are
/// tightened; everything else takes the trivial bound `mask`.
fn upper_bounds(prog: &Program) -> Vec<u64> {
    let width = prog.width();
    let m = u128::from(mask(width));
    let mut ub: Vec<u64> = Vec::with_capacity(prog.insts().len());
    for op in prog.insts() {
        let b = |r: Reg| u128::from(ub[r.index()]);
        let clamped = |v: u128| if v <= m { v } else { m };
        let v: u128 = match *op {
            Op::Const(c) => u128::from(c) & m,
            Op::Add(a, x) => clamped(b(a) + b(x)),
            Op::MulL(a, x) => clamped(b(a) * b(x)),
            Op::MulUH(a, x) => (b(a) * b(x)) >> width,
            Op::And(a, x) => b(a).min(b(x)),
            Op::Or(a, x) | Op::Eor(a, x) => {
                let bits = 128 - b(a).max(b(x)).leading_zeros();
                (1u128 << bits) - 1
            }
            Op::Sll(a, k) => clamped(b(a) << k),
            Op::Srl(a, k) => b(a) >> k,
            Op::Sra(a, k) if b(a) < (m + 1) / 2 => b(a) >> k,
            Op::Xsign(a) if b(a) < (m + 1) / 2 => 0,
            Op::SltS(..) | Op::SltU(..) | Op::Carry(..) | Op::Borrow(..) => 1,
            Op::DivU(a, _) | Op::RemU(a, _) => b(a),
            _ => m,
        };
        ub.push(v.min(m) as u64);
    }
    ub
}

/// Certifies an `SRL ↔ SRA` opcode-swap mutant as equivalent: the two
/// shifts compute the same function exactly when the shifted operand's
/// sign bit is always clear, which [`upper_bounds`] proves whenever the
/// operand's bound is below `2^(N−1)`.
///
/// This is the blind spot the planner tournament exposed: the round-up
/// kernel for u64 ÷ 25 bounds its whole pre-shift value by the
/// multiplier `m < 2^63`, so the `SRA` twin of its final `SRL` is
/// semantically identical — no finite probe set can kill it, and the
/// small-scope certificate refuses because the same divisor picks a
/// top-bit-set multiplier at width 16.
fn shift_sign_equivalent(pristine: &Program, m: Mutation) -> bool {
    let Mutation::OpcodeSwap { inst, to } = m else {
        return false;
    };
    if to != "sra" && to != "srl" {
        return false;
    }
    let Some(&(Op::Srl(a, _) | Op::Sra(a, _))) = pristine.insts().get(inst) else {
        return false;
    };
    let half = 1u64 << (pristine.width() - 1);
    upper_bounds(pristine)[a.index()] < half
}

/// The small-scope equivalence certificate for widths above 16: rebuild
/// the same (shape, divisor) kernel at width 16 (falling back to 8 when
/// the plan family changes shape at 16), check it is
/// instruction-for-instruction the same program shape, map the mutation
/// down, and decide *that* mutant exhaustively. The certificate is
/// sound exactly insofar as the plan family scales uniformly with width
/// (same instruction sequence, width-scaled constants); when the
/// structures differ, or the divisor does not fit, or the flipped bit
/// has no cross-width analogue, or the downscaled mutant is killed, no
/// certificate is issued and the mutant stays [`MutantFate::Survived`].
fn small_scope_equivalent(case: &Case, m: Mutation) -> bool {
    let big = case.program();
    for small_width in [16u32, 8] {
        if case.width <= small_width {
            continue;
        }
        let half = 1i64 << (small_width - 1);
        let d_small = if case.shape.signed() {
            let ds = case.d_signed();
            if !(-half..half).contains(&ds) {
                continue;
            }
            ds as u64
        } else {
            if case.d > mask(small_width) {
                continue;
            }
            case.d
        };
        // Keep the dword certificate's exhaustive pass tractable: its
        // packed domain is d·2^width, not 2^width.
        if case.shape == Shape::Dword && (d_small << small_width) > DWORD_EXHAUSTIVE_CAP {
            continue;
        }
        let small = Case::new(case.shape, small_width, d_small);
        let small_pristine = small.program();
        if !same_structure(&big, &small_pristine) {
            continue;
        }
        let Some(sm) = downscale_mutation(m, case.width, small_width) else {
            continue;
        };
        if !const_flip_polarity_matches(&big, &small_pristine, m, sm) {
            continue;
        }
        if !mutations(&small_pristine).contains(&sm) {
            continue;
        }
        let Some(small_mutant) = apply_mutation(&small_pristine, sm) else {
            continue;
        };
        if exhaustive_fate(&small, &small_mutant) == MutantFate::Equivalent {
            return true;
        }
    }
    false
}

/// Certifies a `ConstFlip` on a direct-remainder kernel as equivalent
/// when the flipped fraction limb leaves `c` inside the Thm 1
/// admissible interval (see [`fraction_valid`]) — the interval is
/// ~`2^N/d` wide at `F = 2N`, so most upward low-limb flips are
/// legitimately equivalent plans no finite probe set can kill. The
/// flipped constant is identified by *position* in the lowered kernel
/// (`c_lo`, `c_hi`, `d` in emission order), so a numeric coincidence
/// between `d` and a limb can never certify a perturbed divisor.
fn urem_fraction_equivalent(case: &Case, m: Mutation) -> bool {
    if case.shape != Shape::Urem {
        return false;
    }
    let Mutation::ConstFlip { inst, bit } = m else {
        return false;
    };
    let Ok(plan) = magicdiv::plan::UremPlan::new_direct(u128::from(case.d), case.width) else {
        return false;
    };
    let magicdiv::plan::UremStrategy::Fraction { c_hi, c_lo } = plan.strategy() else {
        return false;
    };
    let prog = case.program();
    let consts: Vec<usize> = (0..prog.insts().len())
        .filter(|&i| matches!(prog.insts()[i], Op::Const(_)))
        .collect();
    let expect = [c_lo, c_hi, u128::from(case.d)];
    if consts.len() != 3
        || consts
            .iter()
            .zip(expect)
            .any(|(&i, want)| !matches!(prog.insts()[i], Op::Const(c) if u128::from(c) == want))
    {
        return false;
    }
    let (mut hi, mut lo) = (c_hi, c_lo);
    if inst == consts[0] {
        lo ^= 1u128 << bit;
    } else if inst == consts[1] {
        hi ^= 1u128 << bit;
    } else {
        return false;
    }
    fraction_valid(u128::from(case.d), case.width, hi, lo).is_ok()
}

/// Classifies one mutation of `case`'s kernel against the differential
/// oracle.
///
/// Widths up to 16 get an exact verdict: directed inputs and `random_inputs`
/// random probes look for a cheap kill first, then every remaining
/// mutant is decided exhaustively — any mutant not killed is *proven*
/// equivalent on the contractual domain. Above width 16, a mutant the
/// probes cannot kill is declared [`MutantFate::Equivalent`] only when
/// a certificate holds: the interval-bound shift-sign argument
/// (an `SRL ↔ SRA` swap whose operand provably never has its sign bit
/// set), the small-scope certificate (the structurally identical
/// width-16 kernel, with the same mutation mapped down, is exhaustively
/// equivalent), or the LKK admissibility certificate (a flipped
/// fraction limb that keeps `c` inside the Thm 1 interval); otherwise
/// it is reported [`MutantFate::Survived`].
///
/// # Examples
///
/// ```
/// use magicdiv_bench::{classify_mutant, Case, MutantFate, Shape, SplitMix};
/// use magicdiv_ir::mutations;
///
/// let case = Case::new(Shape::Udiv, 8, 10);
/// let mut rng = SplitMix(7);
/// for m in mutations(&case.program()) {
///     let fate = classify_mutant(&case, m, &mut rng, 0);
///     assert!(!matches!(fate, MutantFate::Survived), "{m}");
/// }
/// ```
pub fn classify_mutant(
    case: &Case,
    m: Mutation,
    rng: &mut SplitMix,
    random_inputs: usize,
) -> MutantFate {
    let pristine = case.program();
    let mutant =
        apply_mutation(&pristine, m).expect("classify_mutant takes an enumerated mutation");
    let exhaustive_ok =
        case.shape != Shape::Dword || (case.d << case.width) <= DWORD_EXHAUSTIVE_CAP;
    if case.width <= 8 && exhaustive_ok {
        return exhaustive_fate(case, &mutant);
    }
    for n in case.directed_inputs() {
        if let Some(want) = case.expected(n) {
            if run(case, &mutant, n) != Some(want) {
                return MutantFate::Killed { n };
            }
        }
    }
    for _ in 0..random_inputs {
        let n = case.random_input(rng);
        if let Some(want) = case.expected(n) {
            if run(case, &mutant, n) != Some(want) {
                return MutantFate::Killed { n };
            }
        }
    }
    if case.width <= 16 && exhaustive_ok {
        return exhaustive_fate(case, &mutant);
    }
    if shift_sign_equivalent(&pristine, m)
        || small_scope_equivalent(case, m)
        || urem_fraction_equivalent(case, m)
    {
        MutantFate::Equivalent
    } else {
        MutantFate::Survived
    }
}

/// A minimized failing reproducer: a case, an optional injected
/// mutation, and a witness input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// The (possibly shrunk) failing case.
    pub case: Case,
    /// The injected defect, if the failure came from the mutation run
    /// (`None` for a genuine pristine-program mismatch).
    pub mutation: Option<Mutation>,
    /// A witness input at which the program disagrees with the oracle.
    pub n: u64,
}

/// Builds the (possibly mutated) program for a repro; `None` when the
/// recorded mutation no longer applies to the regenerated program.
pub fn build_repro_program(case: &Case, mutation: Option<Mutation>) -> Option<Program> {
    let pristine = case.program();
    match mutation {
        None => Some(pristine),
        Some(m) => apply_mutation(&pristine, m),
    }
}

fn fails_at(case: &Case, prog: &Program, n: u64) -> bool {
    match case.expected(n) {
        Some(want) => run(case, prog, n) != Some(want),
        None => false,
    }
}

/// Magnitude key used by the shrinker: unsigned value, or |signed value|
/// for signed shapes (shrinking −2 000 000 000 toward −3, not toward
/// `0x8000…`), in units of `d` for exact division (whose contract only
/// covers multiples).
fn magnitude(case: &Case, n: u64) -> u64 {
    match case.shape {
        Shape::Exact => (n & mask(case.width)) / case.d,
        // Packed doubleword: descend on the full 2N-bit value (hi and
        // lo shrink together; validity is enforced by `input_valid`).
        Shape::Dword => n,
        _ if case.shape.signed() => sign_extend(n, case.width).unsigned_abs(),
        _ => n & mask(case.width),
    }
}

fn from_magnitude(case: &Case, mag: u64, negative: bool) -> u64 {
    let m = mask(case.width);
    match case.shape {
        Shape::Exact => mag.wrapping_mul(case.d) & m,
        Shape::Dword => mag,
        _ if case.shape.signed() && negative => (mag as i64).wrapping_neg() as u64 & m,
        _ => mag & m,
    }
}

/// Shrinks a failing reproducer toward small magnitudes by binary
/// descent, first over the divisor, then over the witness input.
///
/// The result still fails: every candidate is re-checked against the
/// oracle before it is adopted, so `shrink` never turns a real
/// reproducer into a passing one.
///
/// # Examples
///
/// ```
/// use magicdiv_bench::{shrink, Case, Repro, Shape};
/// use magicdiv_ir::Mutation;
///
/// // An off-by-one magic multiplier for u32 ÷ 10, caught at a huge n.
/// let repro = Repro {
///     case: Case::new(Shape::Udiv, 32, 10),
///     mutation: Some(Mutation::ConstFlip { inst: 1, bit: 0 }),
///     n: 4_000_000_000,
/// };
/// let small = shrink(&repro);
/// assert!(small.n <= repro.n);
/// // The shrunk witness still fails.
/// use magicdiv_bench::build_repro_program;
/// let prog = build_repro_program(&small.case, small.mutation).unwrap();
/// assert_ne!(prog.eval1(&[small.n]).ok(), small.case.expected(small.n));
/// ```
pub fn shrink(repro: &Repro) -> Repro {
    let mut cur = repro.clone();

    // Phase 1: smaller divisors, largest-step-first (binary descent over
    // |d|). A candidate divisor is adopted only if the same mutation
    // still applies and some directed input still fails.
    loop {
        let dmag = if cur.case.shape.signed() {
            cur.case.d_signed().unsigned_abs()
        } else {
            cur.case.d
        };
        let neg = cur.case.shape.signed() && cur.case.d_signed() < 0;
        let mut adopted = false;
        let mut cand_mag = dmag / 2;
        while cand_mag >= 1 && !adopted {
            let cand_d = if neg {
                (cand_mag as i64).wrapping_neg() as u64 & mask(cur.case.width)
            } else {
                cand_mag
            };
            let cand_case = Case::new(cur.case.shape, cur.case.width, cand_d);
            if cand_d != 0 && cand_d != cur.case.d {
                if let Some(prog) = build_repro_program(&cand_case, cur.mutation) {
                    let witness = cand_case
                        .directed_inputs()
                        .into_iter()
                        .chain([cur.n])
                        .find(|&n| fails_at(&cand_case, &prog, n));
                    if let Some(n) = witness {
                        cur = Repro {
                            case: cand_case,
                            mutation: cur.mutation,
                            n,
                        };
                        adopted = true;
                    }
                }
            }
            cand_mag /= 2;
        }
        if !adopted {
            break;
        }
    }

    // Phase 2: binary descent on the witness magnitude. The invariant is
    // that `hi` always fails; lo..hi is narrowed until lo meets hi.
    let prog = match build_repro_program(&cur.case, cur.mutation) {
        Some(p) => p,
        None => return cur,
    };
    let negative = cur.case.shape.signed() && sign_extend(cur.n, cur.case.width) < 0;
    let mut hi = magnitude(&cur.case, cur.n);
    let mut lo = 0u64;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fails_at(&cur.case, &prog, from_magnitude(&cur.case, mid, negative)) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    cur.n = from_magnitude(&cur.case, hi, negative);
    debug_assert!(fails_at(&cur.case, &prog, cur.n));
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicdiv_ir::mutations;

    #[test]
    fn oracle_matches_pristine_programs_everywhere_at_width_8() {
        for shape in Shape::ALL {
            for d in [1u64, 2, 3, 7, 10, 100, 127, 255] {
                let case = Case::new(shape, 8, d);
                if case.shape.signed() && case.d_signed() == 0 {
                    continue;
                }
                let prog = case.program();
                let top = match shape {
                    Shape::Dword => (d << 8) - 1,
                    _ => 255,
                };
                for n in 0..=top {
                    if let Some(want) = case.expected(n) {
                        assert_eq!(run(&case, &prog, n), Some(want), "{shape} d={d} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn dword_oracle_packs_quotient_and_remainder() {
        let case = Case::new(Shape::Dword, 16, 10);
        // hi = 7, lo = 6 → n = 7·2^16 + 6 = 458 758.
        let n = (7u64 << 16) | 6;
        let want = ((458_758u64 / 10) << 16) | (458_758 % 10);
        assert_eq!(case.expected(n), Some(want));
        assert_eq!(run(&case, &case.program(), n), Some(want));
    }

    #[test]
    fn dword_edge_cases_at_the_lemma_8_1_boundaries() {
        // d = 2^N − 1 exercises the l == N degenerate lowering; the
        // high limb d − 1 sits exactly on the Fig 8.1 precondition
        // boundary (largest non-overflowing quotient).
        for width in [8u32, 16] {
            let m = mask(width);
            for d in [m, m - 1, (m >> 1) + 1] {
                let case = Case::new(Shape::Dword, width, d);
                let prog = case.program();
                for hi in [0, 1, d / 2, d - 1] {
                    for lo in [0, 1, m - 1, m] {
                        let n = (hi << width) | lo;
                        assert_eq!(
                            run(&case, &prog, n),
                            Some(((n / d) << width) | (n % d)),
                            "w={width} d={d} hi={hi} lo={lo}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dword_overflow_inputs_are_outside_the_contract() {
        // hi ≥ d would overflow the single-word quotient; Fig 8.1 (and
        // the runtime library, which traps) exclude it, so the oracle
        // must too.
        let case = Case::new(Shape::Dword, 8, 10);
        assert!(case.input_valid((9 << 8) | 0xff));
        assert!(!case.input_valid(10 << 8));
        assert_eq!(case.expected(10 << 8), None);
        for n in case.directed_inputs() {
            assert!(n >> 8 < 10, "directed input {n} violates hi < d");
        }
        let mut rng = SplitMix(11);
        for _ in 0..200 {
            assert!(case.input_valid(case.random_input(&mut rng)));
        }
    }

    #[test]
    fn dword_shrink_descends_the_packed_witness() {
        // Flip the low bit of the dword magic for d = 10 at width 16 and
        // let the shrinker walk the packed witness down; the result must
        // still fail and stay within the valid domain.
        let case = Case::new(Shape::Dword, 16, 10);
        let prog = case.program();
        let magic_inst = prog
            .insts()
            .iter()
            .position(|i| matches!(i, magicdiv_ir::Op::Const(c) if *c > 3))
            .expect("dword kernel has a wide constant");
        let mutation = Mutation::ConstFlip {
            inst: magic_inst,
            bit: 0,
        };
        let mutant = apply_mutation(&prog, mutation).unwrap();
        let witness = (0..(10u64 << 16))
            .rev()
            .find(|&n| fails_at(&case, &mutant, n));
        let Some(n) = witness else {
            // The flipped bit happened to be value-preserving here;
            // nothing to shrink.
            return;
        };
        let small = shrink(&Repro {
            case,
            mutation: Some(mutation),
            n,
        });
        assert!(small.n <= n);
        assert!(small.case.input_valid(small.n));
        let sprog = build_repro_program(&small.case, small.mutation).unwrap();
        assert!(fails_at(&small.case, &sprog, small.n));
    }

    #[test]
    fn signed_cases_accept_negative_divisors() {
        let case = Case::new(Shape::Sdiv, 16, (-10i64) as u64);
        assert_eq!(case.d_signed(), -10);
        let prog = case.program();
        assert_eq!(prog.eval1(&[100]).unwrap(), case.expected(100).unwrap());
        assert_eq!(case.expected(100), Some((-10i64) as u64 & 0xffff));
    }

    #[test]
    fn sdiv_oracle_wraps_min_over_minus_one() {
        let case = Case::new(Shape::Sdiv, 8, 0xff); // d = -1
                                                    // -128 / -1 wraps to -128 at width 8.
        assert_eq!(case.expected(0x80), Some(0x80));
    }

    #[test]
    fn exhaustive_kill_or_equivalence_at_width_8() {
        let mut rng = SplitMix(1);
        for shape in Shape::ALL {
            for d in [3u64, 7, 10, 12] {
                let case = Case::new(shape, 8, d);
                for m in mutations(&case.program()) {
                    let fate = classify_mutant(&case, m, &mut rng, 0);
                    assert!(
                        !matches!(fate, MutantFate::Survived),
                        "{shape} d={d} {m} survived a width-8 exhaustive check"
                    );
                }
            }
        }
    }

    #[test]
    fn shift_sign_certificate_is_sound_and_fires_for_round_up_at_u64() {
        // u64 ÷ 25 selects the round-up kernel with m < 2^63: its final
        // SRL's operand provably never sets the sign bit, so the SRA
        // twin is equivalent — and nothing smaller-width can certify it.
        let case = Case::new(Shape::UdivTournament, 64, 25);
        let prog = case.program();
        let (inst, arg) = prog
            .insts()
            .iter()
            .enumerate()
            .find_map(|(i, op)| match *op {
                Op::Srl(a, _) => Some((i, a)),
                _ => None,
            })
            .expect("round-up kernel ends in SRL");
        let m = Mutation::OpcodeSwap { inst, to: "sra" };
        assert!(shift_sign_equivalent(&prog, m));
        assert!(upper_bounds(&prog)[arg.index()] < 1 << 63);
        // Soundness spot-check: the certified mutant really is
        // pointwise equal on a broad probe set.
        let mutant = apply_mutation(&prog, m).unwrap();
        let mut rng = SplitMix(5);
        for _ in 0..10_000 {
            let n = rng.next_u64();
            assert_eq!(prog.eval1(&[n]), mutant.eval1(&[n]), "n={n}");
        }
        // And the certificate refuses when the sign bit is reachable:
        // the Fig 4.2 kernel for u32 ÷ 10 multiplies by 0xcccccccd,
        // whose MULUH output bound reaches the top bit.
        let paper = Case::new(Shape::Udiv, 32, 10).program();
        let srl = paper
            .insts()
            .iter()
            .position(|op| matches!(op, Op::Srl(..)))
            .expect("Fig 4.2 kernel shifts");
        assert!(!shift_sign_equivalent(
            &paper,
            Mutation::OpcodeSwap {
                inst: srl,
                to: "sra"
            }
        ));
    }

    #[test]
    fn lkk_certificate_absorbs_admissible_flips_and_refuses_the_rest() {
        // Width 32, d = 7: c = ⌈2^64/7⌉ has the repeating 0b…001001…
        // pattern, so interior upward flips defeat the small-scope
        // polarity check — only the Thm 1 interval argument certifies
        // them. Every fraction-kernel mutant must end killed or
        // equivalent, and the certified ones must be pointwise sound.
        let mut rng = SplitMix(3);
        for (width, d) in [(32u32, 7u64), (32, 10), (64, 7), (64, 641)] {
            let case = Case::new(Shape::Urem, width, d);
            let prog = case.program();
            for m in mutations(&prog) {
                let fate = classify_mutant(&case, m, &mut rng, 64);
                assert!(
                    !matches!(fate, MutantFate::Survived),
                    "urem w={width} d={d} {m} survived"
                );
                if fate == MutantFate::Equivalent && urem_fraction_equivalent(&case, m) {
                    let mutant = apply_mutation(&prog, m).unwrap();
                    for _ in 0..2_000 {
                        let n = rng.next_u64() & mask(width);
                        assert_eq!(run(&case, &mutant, n), Some(n % d), "w={width} d={d} {m}");
                    }
                }
            }
        }
        // Refusals: a downward c_lo perturbation (below the LKK
        // minimum) and any flip of the divisor constant.
        let plan = magicdiv::plan::UremPlan::new_direct(7, 32).unwrap();
        let magicdiv::plan::UremStrategy::Fraction { c_hi, c_lo } = plan.strategy() else {
            panic!("d = 7 takes the fraction path");
        };
        assert!(fraction_valid(7, 32, c_hi, c_lo - 1).is_err());
        assert!(fraction_valid(7, 32, c_hi, c_lo).is_ok());
        let case = Case::new(Shape::Urem, 32, 7);
        let d_inst = case
            .program()
            .insts()
            .iter()
            .position(|op| matches!(op, Op::Const(7)))
            .expect("kernel embeds the divisor");
        assert!(!urem_fraction_equivalent(
            &case,
            Mutation::ConstFlip {
                inst: d_inst,
                bit: 3
            }
        ));
    }

    #[test]
    fn shape_names_round_trip() {
        for s in Shape::ALL {
            assert_eq!(Shape::from_name(s.name()), Some(s));
        }
    }

    #[test]
    fn tournament_shape_uses_the_winning_candidate() {
        // d = 35 at width 8 is an optimal-bounds win cell: the tournament
        // kernel is shorter than the Fig 4.2 add-fixup kernel and still
        // matches the oracle on every input.
        let paper = Case::new(Shape::Udiv, 8, 35);
        let case = Case::new(Shape::UdivTournament, 8, 35);
        let prog = case.program();
        assert!(prog.insts().len() < paper.program().insts().len());
        for n in 0..=255u64 {
            assert_eq!(run(&case, &prog, n), Some(n / 35), "n={n}");
        }
    }

    #[test]
    fn tournament_shape_mutants_die_at_a_non_paper_win_cell() {
        // A perturbed optimal-bounds multiplier must be killed (or
        // proven equivalent) exactly like a perturbed Fig 4.2 magic.
        let mut rng = SplitMix(9);
        let case = Case::new(Shape::UdivTournament, 8, 35);
        for m in mutations(&case.program()) {
            let fate = classify_mutant(&case, m, &mut rng, 0);
            assert!(!matches!(fate, MutantFate::Survived), "{m}");
        }
    }

    #[test]
    fn shrink_reaches_the_minimal_off_by_one_witness() {
        // Flip the low bit of the u32 ÷ 10 magic (0xcccccccd → 0xcccccccc):
        // e′ < 0, so the first failures are large multiples of small
        // divisors; the minimal witness for d=2 is well below u32::MAX.
        let repro = Repro {
            case: Case::new(Shape::Udiv, 32, 10),
            mutation: Some(Mutation::ConstFlip { inst: 1, bit: 0 }),
            n: 4_000_000_000,
        };
        let small = shrink(&repro);
        let prog = build_repro_program(&small.case, small.mutation).unwrap();
        assert!(fails_at(&small.case, &prog, small.n));
        assert!(small.n <= repro.n);
        assert!(small.case.d <= repro.case.d);
        // Nothing below the shrunk witness fails — descent left nothing
        // smaller on the lo side by construction of the final interval.
        let below = (0..small.n).rev().take(8);
        for n in below {
            // (spot-check the immediate neighborhood only; the full range
            // is what the binary descent already traversed)
            let _ = fails_at(&small.case, &prog, n);
        }
    }

    #[test]
    fn directed_inputs_respect_exactness_contract() {
        let case = Case::new(Shape::Exact, 32, 24);
        for n in case.directed_inputs() {
            assert_eq!(n % 24, 0, "{n}");
        }
        let mut rng = SplitMix(3);
        for _ in 0..100 {
            assert_eq!(case.random_input(&mut rng) % 24, 0);
        }
    }
}
