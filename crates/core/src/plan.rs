//! The planning layer: width-erased strategy selection shared by the
//! runtime divisors, the IR code generators and the cycle estimator.
//!
//! Each plan type is *pure data* — a strategy tag plus the precomputed
//! constants (magic multiplier, pre/post shifts, add indicator) for one
//! divisor at one bit width:
//!
//! | Plan | Paper figure | Selected for |
//! |---|---|---|
//! | [`UdivPlan`] | Fig 4.2 | unsigned truncating division |
//! | [`SdivPlan`] | Fig 5.2 | signed truncating division |
//! | [`FloorPlan`] | Fig 6.1 | signed floor division |
//! | [`ExactPlan`] | §9 | exact division / divisibility |
//! | [`DwordPlan`] | Fig 8.1 | doubleword ÷ word division |
//! | [`UremPlan`] | §1 / LKK Thm 1 | unsigned remainder (multiply-back or direct) |
//! | [`DivisibilityPlan`] | §9 / LKK §3 | unsigned divisibility test |
//!
//! This module is the **only** place that runs the paper's selection
//! logic (`CHOOSE_MULTIPLIER` dispatch, even-divisor pre-shift re-choose,
//! add-indicator overflow handling). The runtime divisor structs in
//! [`unsigned`](crate::UnsignedDivisor), [`signed`](crate::SignedDivisor),
//! [`floor`](crate::FloorDivisor) and [`exact`](crate::ExactUnsignedDivisor)
//! construct a plan in `new()` and cache its constants at their native
//! word type; `magicdiv-codegen` lowers the same plans to IR. A divisor
//! and the generated code can therefore never disagree about strategy.
//!
//! Constants are stored as `u128` (the widest supported word), masked to
//! the plan's width. The strategy enums are generic over that constant
//! type: the typed divisors hold the same enum at their native word,
//! converted once by `map`, so each code shape is defined only here.
//! Supported widths are `1..=64` (the IR's range, used by the code
//! generators at arbitrary widths) and exactly `128` (the runtime
//! divisors' widest type); widths 65–127 are rejected because no
//! doubleword substrate exists for them.

use core::fmt;

use crate::choose_multiplier::{choose_multiplier_at, choose_multiplier_dword};
use crate::error::DivisorError;

/// `2^width - 1` as a `u128`.
#[inline]
pub(crate) fn mask(width: u32) -> u128 {
    if width == 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

/// `⌈log2 d⌉` for `d >= 1`.
#[inline]
pub(crate) const fn ceil_log2(d: u128) -> u32 {
    if d == 1 {
        0
    } else {
        128 - (d - 1).leading_zeros()
    }
}

/// Whether plans exist at `width`: `1..=64` or exactly `128`.
fn width_supported(width: u32) -> bool {
    (1..=64).contains(&width) || width == 128
}

/// Whether the divisor with bit pattern `d_bits` fits a supported
/// `width`: as `uN`, or as `iN` (read as `d_bits as i128`) when `signed`.
fn divisor_fits(d_bits: u128, signed: bool, width: u32) -> bool {
    if !signed {
        return d_bits <= mask(width);
    }
    if width == 128 {
        return true;
    }
    let half = 1i128 << (width - 1);
    (-half..half).contains(&(d_bits as i128))
}

/// The one input check every plan constructor runs before selection:
/// the width is supported, the divisor is nonzero, and it fits the
/// width (as `iN` when `signed`, reading `d_bits as i128`).
fn check_divisor(d_bits: u128, signed: bool, width: u32) -> Result<(), DivisorError> {
    if !width_supported(width) {
        Err(DivisorError::UnsupportedWidth { width })
    } else if d_bits == 0 {
        Err(DivisorError::Zero)
    } else if !divisor_fits(d_bits, signed, width) {
        Err(DivisorError::OutOfRange {
            d_bits,
            signed,
            width,
        })
    } else {
        Ok(())
    }
}

/// The raw output of the Figure 6.2 multiplier selection, width-erased:
/// the low `width` bits of the multiplier, whether the full multiplier
/// fits in a word (`m < 2^width`), and the post-shift.
#[derive(Debug, Clone, Copy)]
struct MagicRaw {
    /// `m mod 2^width` — the full multiplier when `fits`, otherwise the
    /// paper's `m - 2^width` bit pattern.
    m_low: u128,
    /// `m < 2^width`.
    fits: bool,
    sh_post: u32,
}

/// Figure 6.2 at an arbitrary width: [`choose_multiplier_at`] up to
/// width 64, the doubleword body at width 128.
fn magic(d: u128, width: u32, prec: u32) -> MagicRaw {
    debug_assert!(d >= 1 && (width == 128 || d <= mask(width)));
    debug_assert!((1..=width).contains(&prec));
    let raw = match choose_multiplier_at(d, width, prec) {
        Some((m, sh_post)) => MagicRaw {
            m_low: m & mask(width),
            fits: m <= mask(width),
            sh_post,
        },
        // With `d` and `prec` in range, only width 128 is left.
        None => {
            let c = choose_multiplier_dword(d, prec);
            MagicRaw {
                m_low: c.multiplier_low_word(),
                fits: c.multiplier_fits_word(),
                sh_post: c.sh_post,
            }
        }
    };
    magicdiv_trace::event!("plan.choose_multiplier",
        "d" => d, "width" => width, "prec" => prec, "l" => ceil_log2(d),
        "m_low" => format!("{:#x}", raw.m_low), "fits" => raw.fits,
        "sh_post" => raw.sh_post, "paper" => "Fig 6.2 CHOOSE_MULTIPLIER");
    raw
}

/// Newton's iteration (the paper's (9.2)) for the inverse of an odd value
/// modulo `2^width`, width-erased.
fn mod_inverse(d_odd: u128, width: u32) -> u128 {
    debug_assert!(d_odd & 1 == 1);
    let m = mask(width);
    let mut inv = d_odd;
    let mut correct_bits = 3u32;
    while correct_bits < width {
        inv = inv.wrapping_mul(2u128.wrapping_sub(d_odd.wrapping_mul(inv))) & m;
        correct_bits *= 2;
    }
    magicdiv_trace::event!("plan.mod_inverse",
        "d_odd" => d_odd, "width" => width, "inverse" => format!("{:#x}", inv & m),
        "paper" => "§9 (9.2) Newton iteration");
    inv & m
}

/// The code shape Figure 4.2 selects for an unsigned divisor, with its
/// constants as `C`: `u128` in a plan, the native word in an
/// [`UnsignedDivisor`](crate::UnsignedDivisor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UdivStrategy<C = u128> {
    /// `d == 1`: the quotient is the dividend.
    Identity,
    /// `d == 2^sh`: a single logical right shift.
    Shift {
        /// The shift count `log2 d`.
        sh: u32,
    },
    /// `m < 2^N`: `q = SRL(MULUH(m, SRL(n, sh_pre)), sh_post)`.
    MulShift {
        /// The magic multiplier, `m < 2^N`.
        m: C,
        /// Pre-shift (log2 of the even part of `d`), often 0.
        sh_pre: u32,
        /// Post-shift applied to the high product half.
        sh_post: u32,
    },
    /// `m >= 2^N` (odd `d`): the add-fixup long sequence
    /// `t = MULUH(m - 2^N, n); q = SRL(t + SRL(n - t, 1), sh_post - 1)`.
    MulAddShift {
        /// The multiplier with its `2^N` bit removed.
        m_minus_pow2n: C,
        /// Post-shift (at least 1).
        sh_post: u32,
    },
    /// Round-*down* multiplier applied to `n + 1` (Li, arXiv 2412.03680):
    /// `q = SRL(MULUH(m, n) + carry(MULL(m, n) + m), sh_post)` — i.e.
    /// `⌊m(n+1)/2^(N+sh_post)⌋` with `m = ⌊2^(N+sh_post)/d⌋ < 2^N`. Never
    /// produced by the paper baseline; only a tournament candidate.
    MulRoundUp {
        /// The round-down magic multiplier, `m = ⌊2^(N+sh_post)/d⌋ < 2^N`.
        m: C,
        /// Post-shift applied to the fixed-up high product half.
        sh_post: u32,
    },
}

impl<C> UdivStrategy<C> {
    /// The same code shape with every constant converted by `f`.
    #[inline]
    pub fn map<D>(self, f: impl Fn(C) -> D) -> UdivStrategy<D> {
        match self {
            UdivStrategy::Identity => UdivStrategy::Identity,
            UdivStrategy::Shift { sh } => UdivStrategy::Shift { sh },
            UdivStrategy::MulShift { m, sh_pre, sh_post } => UdivStrategy::MulShift {
                m: f(m),
                sh_pre,
                sh_post,
            },
            UdivStrategy::MulAddShift {
                m_minus_pow2n,
                sh_post,
            } => UdivStrategy::MulAddShift {
                m_minus_pow2n: f(m_minus_pow2n),
                sh_post,
            },
            UdivStrategy::MulRoundUp { m, sh_post } => {
                UdivStrategy::MulRoundUp { m: f(m), sh_post }
            }
        }
    }
}

/// A complete unsigned-division plan: divisor, width and selected
/// strategy (Figure 4.2).
///
/// # Examples
///
/// ```
/// use magicdiv::plan::{UdivPlan, UdivStrategy};
///
/// // The paper's d = 10 at N = 32: multiply by (2^34+1)/5, shift by 3.
/// let plan = UdivPlan::new(10, 32)?;
/// assert_eq!(
///     plan.strategy(),
///     UdivStrategy::MulShift { m: ((1u128 << 34) + 1) / 5, sh_pre: 0, sh_post: 3 },
/// );
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UdivPlan {
    pub(crate) width: u32,
    pub(crate) d: u128,
    pub(crate) strategy: UdivStrategy,
}

impl UdivPlan {
    /// Runs the Figure 4.2 strategy selection for dividing by `d` at
    /// `width` bits.
    ///
    /// # Errors
    ///
    /// [`DivisorError::UnsupportedWidth`] when `width` is unsupported (see
    /// the module docs), [`DivisorError::Zero`] when `d == 0`, and
    /// [`DivisorError::OutOfRange`] when `d` does not fit in `width` bits.
    pub fn new(d: u128, width: u32) -> Result<Self, DivisorError> {
        check_divisor(d, false, width)?;
        let _span = magicdiv_trace::span("plan.udiv");
        magicdiv_trace::event!("plan.query",
            "shape" => "unsigned", "width" => width, "d" => d);
        if d == 1 {
            magicdiv_trace::event!("plan.decision",
                "strategy" => "identity", "why" => "d == 1 => q = n, no code",
                "paper" => "Fig 4.2 (d = 1)");
            return Ok(UdivPlan {
                width,
                d,
                strategy: UdivStrategy::Identity,
            });
        }
        if d.is_power_of_two() {
            // Fig 4.2 checks `d == 2^l` before touching the multiplier —
            // the shift path ignores m entirely (and for powers of two
            // the even-divisor re-choose below would produce
            // m == 2^N + 2^l, which never fits a word).
            magicdiv_trace::event!("plan.decision",
                "strategy" => "shift", "sh" => ceil_log2(d),
                "why" => "d == 2^sh => one logical right shift, multiplier never consulted",
                "paper" => "Fig 4.2 (power of two)");
            return Ok(UdivPlan {
                width,
                d,
                strategy: UdivStrategy::Shift { sh: ceil_log2(d) },
            });
        }
        let mut raw = magic(d, width, width);
        let mut sh_pre = 0;
        if !raw.fits && d & 1 == 0 {
            // Even divisor with an oversized multiplier: divide out the
            // even part with a pre-shift and re-choose at reduced
            // precision.
            let e = d.trailing_zeros();
            sh_pre = e;
            magicdiv_trace::event!("plan.prechoose",
                "e" => e,
                "why" => "m >= 2^N and d even => pre-shift out 2^e, re-choose at precision N-e",
                "paper" => "§4.2 (even divisors)");
            raw = magic(d >> e, width, width - e);
            debug_assert!(raw.fits, "reduced multiplier must fit in a word");
        }
        let strategy = if raw.fits {
            magicdiv_trace::event!("plan.decision",
                "strategy" => "mul_shift", "m" => format!("{:#x}", raw.m_low),
                "sh_pre" => sh_pre, "sh_post" => raw.sh_post,
                "why" => "m < 2^N => q = SRL(MULUH(m, SRL(n, sh_pre)), sh_post)",
                "paper" => "Fig 4.2 / Thm 4.2");
            UdivStrategy::MulShift {
                m: raw.m_low,
                sh_pre,
                sh_post: raw.sh_post,
            }
        } else {
            debug_assert!(raw.sh_post >= 1);
            magicdiv_trace::event!("plan.decision",
                "strategy" => "mul_add_shift",
                "m_minus_pow2n" => format!("{:#x}", raw.m_low), "sh_post" => raw.sh_post,
                "why" => "m >= 2^N (odd d) => add-shift fallback t + SRL(n - t, 1)",
                "paper" => "Fig 4.2 (m >= 2^N branch)");
            UdivStrategy::MulAddShift {
                m_minus_pow2n: raw.m_low,
                sh_post: raw.sh_post,
            }
        };
        Ok(UdivPlan { width, d, strategy })
    }

    /// Assembles a plan from raw parts *without* running Figure 4.2
    /// selection — the harness entry for pricing or certifying
    /// hypothetical plans (candidate generators, corrupted-multiplier
    /// certification tests). Nothing validates that `strategy` actually
    /// divides by `d`; run such a plan through a certifier before
    /// trusting it.
    pub fn from_raw(d: u128, width: u32, strategy: UdivStrategy) -> UdivPlan {
        UdivPlan { width, d, strategy }
    }

    /// This plan with bit `bit` (< 128) of its multiplier flipped, or a
    /// wrong shift when the strategy has no multiplier — the one
    /// fault-injection corruption the guard tests, the cache's chaos
    /// hook and the chaos campaign share.
    pub fn flip_bit(&self, bit: u32) -> UdivPlan {
        let mut plan = *self;
        match &mut plan.strategy {
            s @ UdivStrategy::Identity => *s = UdivStrategy::Shift { sh: 1 },
            UdivStrategy::Shift { sh } => *sh ^= 1,
            UdivStrategy::MulShift { m, .. }
            | UdivStrategy::MulAddShift {
                m_minus_pow2n: m, ..
            }
            | UdivStrategy::MulRoundUp { m, .. } => *m ^= 1u128 << bit,
        }
        plan
    }

    /// The bit width this plan was computed for.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The divisor.
    #[inline]
    pub fn divisor(&self) -> u128 {
        self.d
    }

    /// The selected code shape and its constants.
    #[inline]
    pub fn strategy(&self) -> UdivStrategy {
        self.strategy
    }
}

impl fmt::Display for UdivPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "udiv/{} d={}: ", self.width, self.d)?;
        match self.strategy {
            UdivStrategy::Identity => write!(f, "identity"),
            UdivStrategy::Shift { sh } => write!(f, "shift sh={sh}"),
            UdivStrategy::MulShift { m, sh_pre, sh_post } => {
                write!(f, "mul-shift m={m:#x} sh_pre={sh_pre} sh_post={sh_post}")
            }
            UdivStrategy::MulAddShift {
                m_minus_pow2n,
                sh_post,
            } => {
                write!(
                    f,
                    "mul-add-shift m-2^N={m_minus_pow2n:#x} sh_post={sh_post}"
                )
            }
            UdivStrategy::MulRoundUp { m, sh_post } => {
                write!(f, "mul-round-up m={m:#x} sh_post={sh_post}")
            }
        }
    }
}

/// The code shape Figure 5.2 selects for a signed divisor, with its
/// constants as `C`: the `N`-bit pattern in a `u128` in a plan, the
/// native signed word in a [`SignedDivisor`](crate::SignedDivisor).
/// Constants are the `|d|` sequence; [`SdivPlan::negate`] records the
/// final negation for `d < 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SdivStrategy<C = u128> {
    /// `|d| == 1`: copy (and negate when `d == -1`).
    Identity,
    /// `|d| == 2^l`: `q = SRA(n + SRL(SRA(n, l-1), N-l), l)`.
    Shift {
        /// `log2 |d|`.
        l: u32,
    },
    /// `m < 2^(N-1)`: `q = SRA(MULSH(m, n), sh_post) - XSIGN(n)`.
    MulShift {
        /// The magic multiplier (a positive `N`-bit pattern).
        m: C,
        /// Post-shift applied to the high product half.
        sh_post: u32,
    },
    /// `2^(N-1) <= m < 2^N`:
    /// `q = SRA(n + MULSH(m - 2^N, n), sh_post) - XSIGN(n)`.
    MulAddShift {
        /// `m` as an `N`-bit pattern — read as signed it is the negative
        /// `m - 2^N`.
        m_minus_pow2n: C,
        /// Post-shift applied after the add fixup.
        sh_post: u32,
    },
}

impl<C> SdivStrategy<C> {
    /// The same code shape with every constant converted by `f`.
    #[inline]
    pub fn map<D>(self, f: impl Fn(C) -> D) -> SdivStrategy<D> {
        match self {
            SdivStrategy::Identity => SdivStrategy::Identity,
            SdivStrategy::Shift { l } => SdivStrategy::Shift { l },
            SdivStrategy::MulShift { m, sh_post } => SdivStrategy::MulShift { m: f(m), sh_post },
            SdivStrategy::MulAddShift {
                m_minus_pow2n,
                sh_post,
            } => SdivStrategy::MulAddShift {
                m_minus_pow2n: f(m_minus_pow2n),
                sh_post,
            },
        }
    }
}

/// A complete signed truncating-division plan (Figure 5.2).
///
/// # Examples
///
/// ```
/// use magicdiv::plan::{SdivPlan, SdivStrategy};
///
/// let plan = SdivPlan::new(-3, 32)?;
/// assert!(plan.negate());
/// assert_eq!(
///     plan.strategy(),
///     SdivStrategy::MulShift { m: ((1u128 << 32) + 2) / 3, sh_post: 0 },
/// );
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SdivPlan {
    pub(crate) width: u32,
    pub(crate) d: i128,
    pub(crate) negate: bool,
    pub(crate) strategy: SdivStrategy,
}

impl SdivPlan {
    /// Runs the Figure 5.2 strategy selection for dividing by `d` at
    /// `width` bits.
    ///
    /// # Errors
    ///
    /// [`DivisorError::UnsupportedWidth`] when `width` is unsupported (see
    /// the module docs), [`DivisorError::Zero`] when `d == 0`, and
    /// [`DivisorError::OutOfRange`] when `d` does not fit in `width` bits
    /// as a signed value.
    pub fn new(d: i128, width: u32) -> Result<Self, DivisorError> {
        check_divisor(d as u128, true, width)?;
        let abs_d = d.unsigned_abs();
        let negate = d < 0;
        let _span = magicdiv_trace::span("plan.sdiv");
        magicdiv_trace::event!("plan.query",
            "shape" => "signed", "width" => width, "d" => d, "negate" => negate);
        let strategy = if abs_d == 1 {
            magicdiv_trace::event!("plan.decision",
                "strategy" => "identity", "negate" => negate,
                "why" => "|d| == 1 => copy (negated when d == -1)",
                "paper" => "Fig 5.2 (|d| = 1)");
            SdivStrategy::Identity
        } else if abs_d.is_power_of_two() {
            magicdiv_trace::event!("plan.decision",
                "strategy" => "shift", "l" => abs_d.trailing_zeros(), "negate" => negate,
                "why" => "|d| == 2^l => SRA with sign-bias fixup SRL(SRA(n, l-1), N-l)",
                "paper" => "Fig 5.2 (power of two |d|)");
            SdivStrategy::Shift {
                l: abs_d.trailing_zeros(),
            }
        } else {
            let raw = magic(abs_d, width, width - 1);
            debug_assert!(
                raw.fits,
                "prec = N-1 guarantees m < 2^N for non-power-of-two d"
            );
            if raw.m_low >> (width - 1) & 1 == 1 {
                magicdiv_trace::event!("plan.decision",
                    "strategy" => "mul_add_shift",
                    "m_minus_pow2n" => format!("{:#x}", raw.m_low),
                    "sh_post" => raw.sh_post, "negate" => negate,
                    "why" => "m >= 2^(N-1) => n + MULSH(m - 2^N, n) add fixup",
                    "paper" => "Fig 5.2 (large multiplier) / Thm 5.2");
                SdivStrategy::MulAddShift {
                    m_minus_pow2n: raw.m_low,
                    sh_post: raw.sh_post,
                }
            } else {
                magicdiv_trace::event!("plan.decision",
                    "strategy" => "mul_shift", "m" => format!("{:#x}", raw.m_low),
                    "sh_post" => raw.sh_post, "negate" => negate,
                    "why" => "m < 2^(N-1) => q = SRA(MULSH(m, n), sh_post) - XSIGN(n)",
                    "paper" => "Fig 5.2 / Thm 5.2");
                SdivStrategy::MulShift {
                    m: raw.m_low,
                    sh_post: raw.sh_post,
                }
            }
        };
        Ok(SdivPlan {
            width,
            d,
            negate,
            strategy,
        })
    }

    /// The bit width this plan was computed for.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The divisor (sign-extended).
    #[inline]
    pub fn divisor(&self) -> i128 {
        self.d
    }

    /// Whether the `|d|` quotient is negated at the end (`d < 0`).
    #[inline]
    pub fn negate(&self) -> bool {
        self.negate
    }

    /// The selected code shape and its constants (for `|d|`).
    #[inline]
    pub fn strategy(&self) -> SdivStrategy {
        self.strategy
    }
}

impl fmt::Display for SdivPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sdiv/{} d={}: ", self.width, self.d)?;
        match self.strategy {
            SdivStrategy::Identity => write!(f, "identity"),
            SdivStrategy::Shift { l } => write!(f, "shift l={l}"),
            SdivStrategy::MulShift { m, sh_post } => {
                write!(f, "mul-shift m={m:#x} sh_post={sh_post}")
            }
            SdivStrategy::MulAddShift {
                m_minus_pow2n,
                sh_post,
            } => {
                write!(
                    f,
                    "mul-add-shift m-2^N={m_minus_pow2n:#x} sh_post={sh_post}"
                )
            }
        }?;
        if self.negate {
            write!(f, " negate")?;
        }
        Ok(())
    }
}

/// The code shape selected for a signed floor division (Figure 6.1),
/// with its multiplier as `C` and the `d < 0` truncating division as
/// `Trunc`: a `u128` and an [`SdivPlan`] in a plan, the native unsigned
/// word and a [`SignedDivisor`](crate::SignedDivisor) in a
/// [`FloorDivisor`](crate::FloorDivisor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FloorStrategy<C = u128, Trunc = SdivPlan> {
    /// `d == 1`.
    Identity,
    /// `d == 2^l`, `d > 0`: `q = SRA(n, l)` — an arithmetic shift floors.
    Shift {
        /// `log2 d`.
        l: u32,
    },
    /// Constant `d > 2` (not a power of two), Figure 6.1:
    /// `nsign = XSIGN(n); q0 = MULUH(m, EOR(nsign, n));`
    /// `q = EOR(nsign, SRL(q0, sh_post))`.
    MulShift {
        /// The magic multiplier (unsigned, `m < 2^N`).
        m: C,
        /// Post-shift applied to the high product half.
        sh_post: u32,
    },
    /// `d < 0`: trunc division (by the embedded plan) plus the floor
    /// correction `q -= (r > 0)`.
    NegativeTrunc {
        /// The Figure 5.2 plan for the truncating division by `d`.
        trunc: Trunc,
    },
}

impl<C, Trunc> FloorStrategy<C, Trunc> {
    /// The same code shape with its multiplier converted by `f` and its
    /// truncating division by `trunc`.
    #[inline]
    pub fn map<D, T2>(
        self,
        f: impl FnOnce(C) -> D,
        trunc: impl FnOnce(Trunc) -> T2,
    ) -> FloorStrategy<D, T2> {
        match self {
            FloorStrategy::Identity => FloorStrategy::Identity,
            FloorStrategy::Shift { l } => FloorStrategy::Shift { l },
            FloorStrategy::MulShift { m, sh_post } => FloorStrategy::MulShift { m: f(m), sh_post },
            FloorStrategy::NegativeTrunc { trunc: t } => {
                FloorStrategy::NegativeTrunc { trunc: trunc(t) }
            }
        }
    }
}

/// A complete signed floor-division plan (Figure 6.1, with the `d < 0`
/// fallback through Figure 5.2).
///
/// # Examples
///
/// ```
/// use magicdiv::plan::{FloorPlan, FloorStrategy};
///
/// // §6's n mod 10 example multiplies by (2^33+3)/5 and shifts by 2.
/// let plan = FloorPlan::new(10, 32)?;
/// assert_eq!(
///     plan.strategy(),
///     FloorStrategy::MulShift { m: ((1u128 << 33) + 3) / 5, sh_post: 2 },
/// );
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FloorPlan {
    pub(crate) width: u32,
    pub(crate) d: i128,
    pub(crate) strategy: FloorStrategy,
}

impl FloorPlan {
    /// Runs the Figure 6.1 strategy selection for floor-dividing by `d`
    /// at `width` bits.
    ///
    /// # Errors
    ///
    /// [`DivisorError::UnsupportedWidth`] when `width` is unsupported (see
    /// the module docs), [`DivisorError::Zero`] when `d == 0`, and
    /// [`DivisorError::OutOfRange`] when `d` does not fit in `width` bits
    /// as a signed value.
    pub fn new(d: i128, width: u32) -> Result<Self, DivisorError> {
        check_divisor(d as u128, true, width)?;
        let _span = magicdiv_trace::span("plan.floor");
        magicdiv_trace::event!("plan.query",
            "shape" => "floor", "width" => width, "d" => d);
        let strategy = if d == 1 {
            magicdiv_trace::event!("plan.decision",
                "strategy" => "identity", "why" => "d == 1 => q = n",
                "paper" => "Fig 6.1 (d = 1)");
            FloorStrategy::Identity
        } else if d < 0 {
            magicdiv_trace::event!("plan.decision",
                "strategy" => "trunc_fixup",
                "why" => "d < 0 => truncate per Fig 5.2 then correct q -= (r > 0)",
                "paper" => "§6 (negative divisors)");
            FloorStrategy::NegativeTrunc {
                trunc: SdivPlan::new(d, width)?,
            }
        } else if (d as u128).is_power_of_two() {
            magicdiv_trace::event!("plan.decision",
                "strategy" => "shift", "l" => (d as u128).trailing_zeros(),
                "why" => "d == 2^l => arithmetic right shift already floors",
                "paper" => "Fig 6.1 (power of two)");
            FloorStrategy::Shift {
                l: (d as u128).trailing_zeros(),
            }
        } else {
            let raw = magic(d as u128, width, width - 1);
            debug_assert!(raw.fits, "Fig 6.1 asserts m < 2^N");
            magicdiv_trace::event!("plan.decision",
                "strategy" => "mul_shift", "m" => format!("{:#x}", raw.m_low),
                "sh_post" => raw.sh_post,
                "why" => "sign-fold: q = EOR(nsign, SRL(MULUH(m, EOR(nsign, n)), sh_post))",
                "paper" => "Fig 6.1 / Thm 6.1");
            FloorStrategy::MulShift {
                m: raw.m_low,
                sh_post: raw.sh_post,
            }
        };
        Ok(FloorPlan { width, d, strategy })
    }

    /// The bit width this plan was computed for.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The divisor (sign-extended).
    #[inline]
    pub fn divisor(&self) -> i128 {
        self.d
    }

    /// The selected code shape and its constants.
    #[inline]
    pub fn strategy(&self) -> FloorStrategy {
        self.strategy
    }
}

impl fmt::Display for FloorPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "floordiv/{} d={}: ", self.width, self.d)?;
        match self.strategy {
            FloorStrategy::Identity => write!(f, "identity"),
            FloorStrategy::Shift { l } => write!(f, "shift l={l}"),
            FloorStrategy::MulShift { m, sh_post } => {
                write!(f, "mul-shift m={m:#x} sh_post={sh_post}")
            }
            FloorStrategy::NegativeTrunc { trunc } => {
                write!(f, "trunc-then-fix [{trunc}]")
            }
        }
    }
}

/// A complete exact-division / divisibility plan (§9): the odd-part
/// inverse and the interval-test constants, for either signedness.
///
/// Writing `|d| = 2^e * d_odd`:
///
/// * `dinv` is the inverse of `d_odd` modulo `2^width`;
/// * unsigned: `qmax = ⌊(2^N - 1)/d⌋`, and `d | n` iff
///   `ROR(MULL(dinv, n), e) <= qmax`;
/// * signed: `qmax = 2^e * ⌊(2^(N-1) - 1)/|d|⌋` (the *scaled* bound), and
///   `d | n` iff `q0 + qmax <= 2*qmax && q0 & low_mask == 0` where
///   `q0 = MULL(dinv, n)` — except for `|d| = 2^e` where only the
///   low-bits check applies ([`is_pow2`](Self::is_pow2)).
///
/// # Examples
///
/// ```
/// use magicdiv::plan::ExactPlan;
///
/// // The paper's "divisible by 100" example at N = 32.
/// let plan = ExactPlan::new_signed(100, 32)?;
/// assert_eq!(plan.pre_shift(), 2);
/// assert_eq!(plan.inverse(), (19 * (1u128 << 32) + 1) / 25);
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExactPlan {
    pub(crate) width: u32,
    /// `|d|`.
    pub(crate) d_abs: u128,
    pub(crate) signed: bool,
    /// `d < 0` (signed plans only).
    pub(crate) negate: bool,
    /// log2 of the even part of `|d|`.
    pub(crate) e: u32,
    /// Inverse of the odd part modulo `2^width`.
    pub(crate) dinv: u128,
    /// Unsigned: `⌊(2^N - 1)/d⌋`. Signed: `2^e * ⌊(2^(N-1) - 1)/|d|⌋`.
    pub(crate) qmax: u128,
    /// `2^e - 1`.
    pub(crate) low_mask: u128,
    /// `|d| == 2^e` (signed interval test inapplicable).
    pub(crate) is_pow2: bool,
}

impl ExactPlan {
    /// Builds the §9 constants for exact unsigned division by `d` at
    /// `width` bits.
    ///
    /// # Errors
    ///
    /// [`DivisorError::UnsupportedWidth`] when `width` is unsupported (see
    /// the module docs), [`DivisorError::Zero`] when `d == 0`, and
    /// [`DivisorError::OutOfRange`] when `d` does not fit in `width` bits.
    pub fn new_unsigned(d: u128, width: u32) -> Result<Self, DivisorError> {
        check_divisor(d, false, width)?;
        let _span = magicdiv_trace::span("plan.exact");
        magicdiv_trace::event!("plan.query",
            "shape" => "exact_unsigned", "width" => width, "d" => d);
        let e = d.trailing_zeros();
        let d_odd = d >> e;
        let dinv = mod_inverse(d_odd, width);
        magicdiv_trace::event!("plan.decision",
            "strategy" => if d_odd == 1 { "exact_pow2" } else { "exact_inverse" },
            "e" => e, "dinv" => format!("{dinv:#x}"),
            "qmax" => format!("{:#x}", mask(width) / d),
            "why" => if d_odd == 1 {
                "d == 2^e => rotate-right e, divisibility is a low-bits test"
            } else {
                "q0 = ROR(MULL(dinv, n), e); d | n iff q0 <= qmax"
            },
            "paper" => "§9 (exact division / divisibility)");
        Ok(ExactPlan {
            width,
            d_abs: d,
            signed: false,
            negate: false,
            e,
            dinv,
            qmax: mask(width) / d,
            low_mask: (1u128 << e) - 1,
            is_pow2: d_odd == 1,
        })
    }

    /// Builds the §9 constants for exact signed division by `d` at
    /// `width` bits.
    ///
    /// # Errors
    ///
    /// [`DivisorError::UnsupportedWidth`] when `width` is unsupported (see
    /// the module docs), [`DivisorError::Zero`] when `d == 0`, and
    /// [`DivisorError::OutOfRange`] when `d` does not fit in `width` bits
    /// as a signed value.
    pub fn new_signed(d: i128, width: u32) -> Result<Self, DivisorError> {
        check_divisor(d as u128, true, width)?;
        let d_abs = d.unsigned_abs();
        let _span = magicdiv_trace::span("plan.exact");
        magicdiv_trace::event!("plan.query",
            "shape" => "exact_signed", "width" => width, "d" => d);
        let e = d_abs.trailing_zeros();
        let d_odd = d_abs >> e;
        let dinv = mod_inverse(d_odd, width);
        magicdiv_trace::event!("plan.decision",
            "strategy" => if d_odd == 1 { "exact_pow2" } else { "exact_inverse" },
            "e" => e, "dinv" => format!("{dinv:#x}"),
            "qmax" => format!("{:#x}", (mask(width - 1) / d_abs) << e),
            "negate" => d < 0,
            "why" => if d_odd == 1 {
                "|d| == 2^e => interval test inapplicable, only the low-bits check"
            } else {
                "q0 = MULL(dinv, n); d | n iff q0 + qmax <= 2*qmax and low bits vanish"
            },
            "paper" => "§9 (signed exact division)");
        Ok(ExactPlan {
            width,
            d_abs,
            signed: true,
            negate: d < 0,
            e,
            dinv,
            qmax: (mask(width - 1) / d_abs) << e,
            low_mask: (1u128 << e) - 1,
            is_pow2: d_odd == 1,
        })
    }

    /// The bit width this plan was computed for.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Whether this is a signed plan.
    #[inline]
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// `d < 0`: the exact quotient is negated at the end.
    #[inline]
    pub fn negate(&self) -> bool {
        self.negate
    }

    /// log2 of the even part of `|d|` (the final shift count).
    #[inline]
    pub fn pre_shift(&self) -> u32 {
        self.e
    }

    /// The inverse of the odd part of `|d|` modulo `2^width`.
    #[inline]
    pub fn inverse(&self) -> u128 {
        self.dinv
    }

    /// The divisibility interval bound (see the type docs for the
    /// signed/unsigned semantics).
    #[inline]
    pub fn qmax(&self) -> u128 {
        self.qmax
    }

    /// `2^e - 1`, masking the low bits that must vanish.
    #[inline]
    pub fn low_mask(&self) -> u128 {
        self.low_mask
    }

    /// `|d| == 2^e`.
    #[inline]
    pub fn is_pow2(&self) -> bool {
        self.is_pow2
    }
}

impl fmt::Display for ExactPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "exact{}/{} |d|={}: dinv={:#x} e={} qmax={:#x}",
            if self.signed { "s" } else { "u" },
            self.width,
            self.d_abs,
            self.dinv,
            self.e,
            self.qmax,
        )?;
        if self.negate {
            write!(f, " negate")?;
        }
        Ok(())
    }
}

/// A complete doubleword-by-word division plan: the Figure 8.1 constants
/// `(m', l, d_norm)` for dividing a `2N`-bit dividend by an invariant
/// `N`-bit divisor, quotient known to fit one word.
///
/// Unlike §4–§6, the multiplier rounds *down*
/// (`m' = ⌊(2^(N+l) - 1)/d⌋ - 2^N`, Lemma 8.1), so there is no strategy
/// dispatch: every divisor uses the same normalize/estimate/correct code
/// shape and the plan is pure constants.
///
/// # Examples
///
/// ```
/// use magicdiv::plan::DwordPlan;
///
/// let plan = DwordPlan::new(10, 32)?;
/// assert_eq!(plan.l(), 4);                     // 2^3 <= 10 < 2^4
/// assert_eq!(plan.d_norm(), 10 << 28);         // d shifted to the word top
/// assert_eq!(plan.m_prime(), 0x9999_9999);     // ⌊(2^36 - 1)/10⌋ - 2^32
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DwordPlan {
    pub(crate) width: u32,
    pub(crate) d: u128,
    /// `⌊(2^(N+l) - 1)/d⌋ - 2^N`.
    pub(crate) m_prime: u128,
    /// `1 + ⌊log2 d⌋`, so `2^(l-1) <= d < 2^l`.
    pub(crate) l: u32,
    /// `d` normalized to the top of the word: `SLL(d, N - l)`.
    pub(crate) d_norm: u128,
}

impl DwordPlan {
    /// Precomputes the Figure 8.1 constants for dividing doubleword
    /// dividends by `d` at `width`-bit limbs.
    ///
    /// # Errors
    ///
    /// [`DivisorError::UnsupportedWidth`] when `width` is unsupported (see
    /// the module docs), [`DivisorError::Zero`] when `d == 0`, and
    /// [`DivisorError::OutOfRange`] when `d` does not fit in `width` bits.
    pub fn new(d: u128, width: u32) -> Result<Self, DivisorError> {
        check_divisor(d, false, width)?;
        let _span = magicdiv_trace::span("plan.dword");
        magicdiv_trace::event!("plan.query",
            "shape" => "dword", "width" => width, "d" => d);
        let l = 128 - d.leading_zeros(); // 1 + ⌊log2 d⌋
                                         // m' = ⌊(2^(N+l) - 1)/d⌋ - 2^N. The numerator always fits in a
                                         // doubleword (N + l <= 2N); for N <= 64 that doubleword is u128,
                                         // for N = 128 it is DWord<u128>.
        let m_prime = if width <= 64 {
            let numerator = if width + l == 128 {
                u128::MAX
            } else {
                (1u128 << (width + l)) - 1
            };
            (numerator / d) - (1u128 << width)
        } else {
            let numerator = if l == 128 {
                magicdiv_dword::DWord::from_parts(u128::MAX, u128::MAX)
            } else {
                magicdiv_dword::DWord::pow2(128 + l).wrapping_sub_limb(1)
            };
            let (q, _) = numerator.div_rem_limb(d).expect("nonzero divisor");
            q.wrapping_sub(magicdiv_dword::DWord::from_hi(1)).lo()
        };
        let d_norm = (d << (width - l)) & mask(width);
        magicdiv_trace::event!("plan.dword",
            "width" => width, "d" => d, "l" => l,
            "m_prime" => format!("{m_prime:#x}"),
            "d_norm" => format!("{d_norm:#x}"),
            "why" => "normalize d to the word top, estimate q from HIGH(m' * n2)",
            "paper" => "Fig 8.1 (udword/uword division)");
        magicdiv_trace::event!("plan.decision",
            "strategy" => "dword",
            "why" => "multiplier rounds DOWN (m' = floor((2^(N+l)-1)/d) - 2^N), \
                      one code shape for every divisor",
            "paper" => "Lemma 8.1");
        Ok(DwordPlan {
            width,
            d,
            m_prime,
            l,
            d_norm,
        })
    }

    /// The limb width this plan was computed for (the dividend is `2N`
    /// bits).
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The divisor.
    #[inline]
    pub fn divisor(&self) -> u128 {
        self.d
    }

    /// `⌊(2^(N+l) - 1)/d⌋ - 2^N`, the Lemma 8.1 round-down multiplier.
    #[inline]
    pub fn m_prime(&self) -> u128 {
        self.m_prime
    }

    /// `1 + ⌊log2 d⌋`, so `2^(l-1) <= d < 2^l`.
    #[inline]
    pub fn l(&self) -> u32 {
        self.l
    }

    /// `d` normalized to the top of the word: `SLL(d, N - l)`.
    #[inline]
    pub fn d_norm(&self) -> u128 {
        self.d_norm
    }
}

impl fmt::Display for DwordPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "udword/{} d={}: m'={:#x} l={} d_norm={:#x}",
            self.width, self.d, self.m_prime, self.l, self.d_norm
        )
    }
}

/// The code shape selected for a direct unsigned remainder.
///
/// The paper computes `n mod d` quotient-first (`r = n - q*d`, one extra
/// `MULL` and subtract, §1). Lemire–Kaser–Kurz (arXiv 1902.01961, Thm 1)
/// show the remainder can instead be read straight off the *low* bits of
/// the fixed-point product: with `F = 2N` and `c = ⌈2^F/d⌉`, the fraction
/// `(n·c) mod 2^F` scaled by `d` yields `n mod d` exactly for every
/// `N`-bit `n`. Both paths are first-class here so the tournament can
/// price them against each other per width/divisor cell.
///
/// Constants are `C`: `u128` in a plan, the native word in an
/// [`UnsignedDivisor`](crate::UnsignedDivisor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UremStrategy<C = u128> {
    /// `d == 2^e`: `r = AND(n, 2^e - 1)` — no multiplier at all.
    Mask {
        /// `2^e - 1`.
        low_mask: C,
    },
    /// LKK Thm 1: `r = MULUH_2N((n·c) mod 2^2N, d)` with the doubleword
    /// fraction multiplier `c = ⌈2^2N/d⌉` split into `N`-bit limbs.
    Fraction {
        /// High limb of `c`: `⌊c / 2^N⌋` (always `>= 1`).
        c_hi: C,
        /// Low limb of `c`: `c mod 2^N`.
        c_lo: C,
    },
    /// Quotient-then-multiply-back (§1): the embedded Figure 4.2 quotient
    /// strategy followed by `r = n - q*d`.
    MulBack {
        /// The quotient plan whose result is multiplied back.
        udiv: UdivStrategy<C>,
    },
}

impl<C> UremStrategy<C> {
    /// The same code shape with every constant converted by `f`.
    #[inline]
    pub fn map<D>(self, f: impl Fn(C) -> D) -> UremStrategy<D> {
        match self {
            UremStrategy::Mask { low_mask } => UremStrategy::Mask {
                low_mask: f(low_mask),
            },
            UremStrategy::Fraction { c_hi, c_lo } => UremStrategy::Fraction {
                c_hi: f(c_hi),
                c_lo: f(c_lo),
            },
            UremStrategy::MulBack { udiv } => UremStrategy::MulBack { udiv: udiv.map(f) },
        }
    }
}

/// A complete unsigned-remainder plan: divisor, width and selected
/// strategy (multiply-back per §1, or the direct Lemire–Kaser–Kurz
/// fraction path).
///
/// # Examples
///
/// ```
/// use magicdiv::plan::{UremPlan, UremStrategy};
///
/// // LKK's c = ⌈2^64/10⌉ at N = 32, split into 32-bit limbs.
/// let plan = UremPlan::new_direct(10, 32)?;
/// let c = u64::MAX as u128 / 10 + 1;
/// assert_eq!(
///     plan.strategy(),
///     UremStrategy::Fraction { c_hi: c >> 32, c_lo: c & 0xffff_ffff },
/// );
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UremPlan {
    pub(crate) width: u32,
    pub(crate) d: u128,
    pub(crate) strategy: UremStrategy,
}

/// `c = ⌈2^2N/d⌉` for a non-power-of-two `d`, split into `N`-bit limbs
/// `(c_hi, c_lo)`. Since `d` does not divide `2^2N`, `⌈2^2N/d⌉ =
/// ⌊(2^2N - 1)/d⌋ + 1`, which keeps the numerator inside the available
/// doubleword (u128 for `N <= 64`, `DWord<u128>` for `N = 128`).
fn fraction_limbs(d: u128, width: u32) -> (u128, u128) {
    debug_assert!(!d.is_power_of_two());
    if width <= 64 {
        let c = mask(2 * width) / d + 1;
        (c >> width, c & mask(width))
    } else {
        let (q, _) = magicdiv_dword::DWord::from_parts(u128::MAX, u128::MAX)
            .div_rem_limb(d)
            .expect("nonzero divisor");
        let c = q.wrapping_add_limb(1);
        (c.hi(), c.lo())
    }
}

impl UremPlan {
    /// The paper-baseline remainder plan: a mask for powers of two,
    /// otherwise the Figure 4.2 quotient strategy multiplied back
    /// (`r = n - q*d`, §1).
    ///
    /// # Errors
    ///
    /// [`DivisorError::UnsupportedWidth`] when `width` is unsupported (see
    /// the module docs), [`DivisorError::Zero`] when `d == 0`, and
    /// [`DivisorError::OutOfRange`] when `d` does not fit in `width` bits.
    pub fn new(d: u128, width: u32) -> Result<Self, DivisorError> {
        check_divisor(d, false, width)?;
        let _span = magicdiv_trace::span("plan.urem");
        magicdiv_trace::event!("plan.query",
            "shape" => "urem", "width" => width, "d" => d);
        if d.is_power_of_two() {
            return Ok(Self::pow2(d, width));
        }
        let udiv = UdivPlan::new(d, width)?.strategy;
        magicdiv_trace::event!("plan.remainder",
            "strategy" => "urem_mulback", "width" => width, "d" => d,
            "why" => "baseline r = n - q*d: one extra MULL and SUB after the quotient",
            "paper" => "§1 (remainder by multiply-back)");
        Ok(UremPlan {
            width,
            d,
            strategy: UremStrategy::MulBack { udiv },
        })
    }

    /// The direct-remainder plan: a mask for powers of two, otherwise the
    /// Lemire–Kaser–Kurz fraction path — no quotient is ever formed.
    ///
    /// # Errors
    ///
    /// [`DivisorError::UnsupportedWidth`] when `width` is unsupported (see
    /// the module docs), [`DivisorError::Zero`] when `d == 0`, and
    /// [`DivisorError::OutOfRange`] when `d` does not fit in `width` bits.
    pub fn new_direct(d: u128, width: u32) -> Result<Self, DivisorError> {
        check_divisor(d, false, width)?;
        let _span = magicdiv_trace::span("plan.urem");
        magicdiv_trace::event!("plan.query",
            "shape" => "urem", "width" => width, "d" => d);
        if d.is_power_of_two() {
            return Ok(Self::pow2(d, width));
        }
        let (c_hi, c_lo) = fraction_limbs(d, width);
        magicdiv_trace::event!("plan.remainder",
            "strategy" => "urem_fraction", "width" => width, "d" => d,
            "c_hi" => format!("{c_hi:#x}"), "c_lo" => format!("{c_lo:#x}"),
            "why" => "c = ceil(2^2N/d); r = HIGH_2N((n*c mod 2^2N) * d) — remainder \
                      read off the fraction low bits, no quotient formed",
            "paper" => "Lemire-Kaser-Kurz arXiv 1902.01961 Thm 1");
        Ok(UremPlan {
            width,
            d,
            strategy: UremStrategy::Fraction { c_hi, c_lo },
        })
    }

    fn pow2(d: u128, width: u32) -> Self {
        let low_mask = d - 1;
        magicdiv_trace::event!("plan.remainder",
            "strategy" => "urem_mask", "width" => width, "d" => d,
            "low_mask" => format!("{low_mask:#x}"),
            "why" => "d == 2^e => r = AND(n, 2^e - 1), both paths degenerate to a mask",
            "paper" => "Lemire-Kaser-Kurz arXiv 1902.01961 (power-of-two case)");
        UremPlan {
            width,
            d,
            strategy: UremStrategy::Mask { low_mask },
        }
    }

    /// Assembles a plan from raw parts *without* selection — the harness
    /// entry for pricing or certifying hypothetical plans. Nothing
    /// validates that `strategy` actually computes `n mod d`; run such a
    /// plan through a certifier before trusting it.
    pub fn from_raw(d: u128, width: u32, strategy: UremStrategy) -> UremPlan {
        UremPlan { width, d, strategy }
    }

    /// The bit width this plan was computed for.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The divisor.
    #[inline]
    pub fn divisor(&self) -> u128 {
        self.d
    }

    /// The selected code shape and its constants.
    #[inline]
    pub fn strategy(&self) -> UremStrategy {
        self.strategy
    }
}

impl fmt::Display for UremPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "urem/{} d={}: ", self.width, self.d)?;
        match self.strategy {
            UremStrategy::Mask { low_mask } => write!(f, "mask low_mask={low_mask:#x}"),
            UremStrategy::Fraction { c_hi, c_lo } => {
                write!(f, "fraction c_hi={c_hi:#x} c_lo={c_lo:#x}")
            }
            UremStrategy::MulBack { udiv } => {
                let q = UdivPlan {
                    width: self.width,
                    d: self.d,
                    strategy: udiv,
                };
                write!(f, "mul-back [{q}]")
            }
        }
    }
}

/// The code shape selected for an unsigned divisibility test (`d | n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DivisibilityStrategy {
    /// `d == 2^e`: `d | n` iff `AND(n, 2^e - 1) == 0`.
    Mask {
        /// `2^e - 1`.
        low_mask: u128,
    },
    /// §9 rotate test: `d | n` iff `ROR(MULL(dinv, n), e) <= qmax`.
    InverseRotate {
        /// log2 of the even part of `d` (the rotate count).
        e: u32,
        /// Inverse of the odd part of `d` modulo `2^width`.
        dinv: u128,
        /// `⌊(2^N - 1)/d⌋`.
        qmax: u128,
    },
}

/// A complete unsigned divisibility-test plan: the §9 modular-inverse
/// rotate test promoted to a first-class shape (Lemire–Kaser–Kurz §3
/// derive the same test from the fraction view; Granlund–Montgomery §9
/// from exact division). The result of the lowered program is `1` when
/// `d | n` and `0` otherwise.
///
/// # Examples
///
/// ```
/// use magicdiv::plan::{DivisibilityPlan, DivisibilityStrategy};
///
/// let plan = DivisibilityPlan::new(10, 32)?;
/// match plan.strategy() {
///     DivisibilityStrategy::InverseRotate { e, qmax, .. } => {
///         assert_eq!(e, 1);
///         assert_eq!(qmax, u32::MAX as u128 / 10);
///     }
///     s => panic!("unexpected {s:?}"),
/// }
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DivisibilityPlan {
    pub(crate) width: u32,
    pub(crate) d: u128,
    pub(crate) strategy: DivisibilityStrategy,
}

impl DivisibilityPlan {
    /// Builds the divisibility-test constants for `d` at `width` bits.
    ///
    /// # Errors
    ///
    /// [`DivisorError::UnsupportedWidth`] when `width` is unsupported (see
    /// the module docs), [`DivisorError::Zero`] when `d == 0`, and
    /// [`DivisorError::OutOfRange`] when `d` does not fit in `width` bits.
    pub fn new(d: u128, width: u32) -> Result<Self, DivisorError> {
        check_divisor(d, false, width)?;
        let _span = magicdiv_trace::span("plan.divtest");
        magicdiv_trace::event!("plan.query",
            "shape" => "divtest", "width" => width, "d" => d);
        let strategy = if d.is_power_of_two() {
            magicdiv_trace::event!("plan.divisibility",
                "strategy" => "divtest_mask", "width" => width, "d" => d,
                "low_mask" => format!("{:#x}", d - 1),
                "why" => "d == 2^e => d | n iff the low e bits vanish",
                "paper" => "§9 (power-of-two divisors)");
            DivisibilityStrategy::Mask { low_mask: d - 1 }
        } else {
            let e = d.trailing_zeros();
            let dinv = mod_inverse(d >> e, width);
            let qmax = mask(width) / d;
            magicdiv_trace::event!("plan.divisibility",
                "strategy" => "divtest_inverse", "width" => width, "d" => d,
                "e" => e, "dinv" => format!("{dinv:#x}"), "qmax" => format!("{qmax:#x}"),
                "why" => "d | n iff ROR(MULL(dinv, n), e) <= qmax — one MULL, \
                          a rotate and a compare, no quotient",
                "paper" => "§9 rotate test / Lemire-Kaser-Kurz arXiv 1902.01961 §3");
            DivisibilityStrategy::InverseRotate { e, dinv, qmax }
        };
        Ok(DivisibilityPlan { width, d, strategy })
    }

    /// The bit width this plan was computed for.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The divisor.
    #[inline]
    pub fn divisor(&self) -> u128 {
        self.d
    }

    /// The selected code shape and its constants.
    #[inline]
    pub fn strategy(&self) -> DivisibilityStrategy {
        self.strategy
    }
}

impl fmt::Display for DivisibilityPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "divtest/{} d={}: ", self.width, self.d)?;
        match self.strategy {
            DivisibilityStrategy::Mask { low_mask } => {
                write!(f, "mask low_mask={low_mask:#x}")
            }
            DivisibilityStrategy::InverseRotate { e, dinv, qmax } => {
                write!(f, "inverse-rotate dinv={dinv:#x} e={e} qmax={qmax:#x}")
            }
        }
    }
}

/// Any division plan — the umbrella the tools print and the cycle
/// estimator prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DivPlan {
    /// Unsigned truncating division (Fig 4.2).
    Unsigned(UdivPlan),
    /// Signed truncating division (Fig 5.2).
    Signed(SdivPlan),
    /// Signed floor division (Fig 6.1).
    Floor(FloorPlan),
    /// Exact division / divisibility (§9).
    Exact(ExactPlan),
    /// Doubleword-by-word division (Fig 8.1).
    Dword(DwordPlan),
    /// Unsigned remainder (§1 multiply-back or LKK direct fraction).
    Urem(UremPlan),
    /// Unsigned divisibility test (§9 rotate / LKK §3).
    Divisibility(DivisibilityPlan),
}

impl DivPlan {
    /// The bit width the plan was computed for.
    #[inline]
    pub fn width(&self) -> u32 {
        match self {
            DivPlan::Unsigned(p) => p.width(),
            DivPlan::Signed(p) => p.width(),
            DivPlan::Floor(p) => p.width(),
            DivPlan::Exact(p) => p.width(),
            DivPlan::Dword(p) => p.width(),
            DivPlan::Urem(p) => p.width(),
            DivPlan::Divisibility(p) => p.width(),
        }
    }

    /// A short static name for the selected strategy, for tables and
    /// JSON reports.
    pub fn strategy_name(&self) -> &'static str {
        match self {
            DivPlan::Unsigned(p) => match p.strategy {
                UdivStrategy::Identity => "identity",
                UdivStrategy::Shift { .. } => "shift",
                UdivStrategy::MulShift { .. } => "mul_shift",
                UdivStrategy::MulAddShift { .. } => "mul_add_shift",
                UdivStrategy::MulRoundUp { .. } => "mul_round_up",
            },
            DivPlan::Signed(p) => match p.strategy {
                SdivStrategy::Identity => "identity",
                SdivStrategy::Shift { .. } => "shift",
                SdivStrategy::MulShift { .. } => "mul_shift",
                SdivStrategy::MulAddShift { .. } => "mul_add_shift",
            },
            DivPlan::Floor(p) => match p.strategy {
                FloorStrategy::Identity => "identity",
                FloorStrategy::Shift { .. } => "shift",
                FloorStrategy::MulShift { .. } => "mul_shift",
                FloorStrategy::NegativeTrunc { .. } => "trunc_fixup",
            },
            DivPlan::Exact(p) => {
                if p.is_pow2 {
                    "exact_pow2"
                } else {
                    "exact_inverse"
                }
            }
            DivPlan::Dword(_) => "dword",
            DivPlan::Urem(p) => match p.strategy {
                UremStrategy::Mask { .. } => "urem_mask",
                UremStrategy::Fraction { .. } => "urem_fraction",
                UremStrategy::MulBack { .. } => "urem_mulback",
            },
            DivPlan::Divisibility(p) => match p.strategy {
                DivisibilityStrategy::Mask { .. } => "divtest_mask",
                DivisibilityStrategy::InverseRotate { .. } => "divtest_inverse",
            },
        }
    }
}

impl fmt::Display for DivPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivPlan::Unsigned(p) => p.fmt(f),
            DivPlan::Signed(p) => p.fmt(f),
            DivPlan::Floor(p) => p.fmt(f),
            DivPlan::Exact(p) => p.fmt(f),
            DivPlan::Dword(p) => p.fmt(f),
            DivPlan::Urem(p) => p.fmt(f),
            DivPlan::Divisibility(p) => p.fmt(f),
        }
    }
}

/// `From` each plan kind into [`DivPlan`], and `TryFrom` back out. The
/// way out fails on any other kind and hands that plan back unchanged.
macro_rules! div_plan_kinds {
    ($($plan:ident => $variant:ident),* $(,)?) => {$(
        impl From<$plan> for DivPlan {
            fn from(p: $plan) -> Self {
                DivPlan::$variant(p)
            }
        }

        impl TryFrom<DivPlan> for $plan {
            type Error = DivPlan;

            fn try_from(plan: DivPlan) -> Result<Self, DivPlan> {
                match plan {
                    DivPlan::$variant(p) => Ok(p),
                    other => Err(other),
                }
            }
        }
    )*};
}

div_plan_kinds!(
    UdivPlan => Unsigned,
    SdivPlan => Signed,
    FloorPlan => Floor,
    ExactPlan => Exact,
    DwordPlan => Dword,
    UremPlan => Urem,
    DivisibilityPlan => Divisibility,
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_unsigned_examples() {
        // d = 10, N = 32: MulShift with m = (2^34+1)/5, sh_post = 3.
        let p = UdivPlan::new(10, 32).unwrap();
        assert_eq!(
            p.strategy(),
            UdivStrategy::MulShift {
                m: ((1u128 << 34) + 1) / 5,
                sh_pre: 0,
                sh_post: 3
            }
        );
        // d = 7, N = 32: the multiplier needs 33 bits — MulAddShift.
        let p = UdivPlan::new(7, 32).unwrap();
        let m = ((1u128 << 35) + 3) / 7;
        assert_eq!(
            p.strategy(),
            UdivStrategy::MulAddShift {
                m_minus_pow2n: m - (1 << 32),
                sh_post: 3
            }
        );
        // d = 14: even pre-shift re-choose at N - 1 bits.
        let p = UdivPlan::new(14, 32).unwrap();
        assert_eq!(
            p.strategy(),
            UdivStrategy::MulShift {
                m: ((1u128 << 34) + 5) / 7,
                sh_pre: 1,
                sh_post: 2
            }
        );
    }

    #[test]
    fn unsigned_matches_typed_selection_at_64_and_128() {
        // Width 64 and 128 route through choose_multiplier; sanity-check
        // the 2^64+1 factorization divisor the paper highlights.
        let p = UdivPlan::new(274177, 64).unwrap();
        assert_eq!(
            p.strategy(),
            UdivStrategy::MulShift {
                m: 67280421310721,
                sh_pre: 0,
                sh_post: 0
            }
        );
        let p = UdivPlan::new(10, 128).unwrap();
        match p.strategy() {
            UdivStrategy::MulShift { sh_post, .. } => assert_eq!(sh_post, 3),
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn signed_paper_examples() {
        let p = SdivPlan::new(3, 32).unwrap();
        assert_eq!(
            p.strategy(),
            SdivStrategy::MulShift {
                m: ((1u128 << 32) + 2) / 3,
                sh_post: 0
            }
        );
        assert!(!p.negate());
        let p = SdivPlan::new(7, 32).unwrap();
        assert_eq!(
            p.strategy(),
            SdivStrategy::MulAddShift {
                m_minus_pow2n: ((1u128 << 34) + 5) / 7,
                sh_post: 2
            }
        );
        let p = SdivPlan::new(-16, 32).unwrap();
        assert_eq!(p.strategy(), SdivStrategy::Shift { l: 4 });
        assert!(p.negate());
    }

    #[test]
    fn signed_min_divisor_fits() {
        // i32::MIN at width 32: |d| = 2^31 is a pow2 at the signed
        // boundary.
        let p = SdivPlan::new(i32::MIN as i128, 32).unwrap();
        assert_eq!(p.strategy(), SdivStrategy::Shift { l: 31 });
        assert!(p.negate());
    }

    #[test]
    fn floor_paper_example() {
        let p = FloorPlan::new(10, 32).unwrap();
        assert_eq!(
            p.strategy(),
            FloorStrategy::MulShift {
                m: ((1u128 << 33) + 3) / 5,
                sh_post: 2
            }
        );
        let p = FloorPlan::new(-10, 32).unwrap();
        match p.strategy() {
            FloorStrategy::NegativeTrunc { trunc } => {
                assert_eq!(trunc, SdivPlan::new(-10, 32).unwrap());
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn exact_paper_example() {
        // Inverse of 25 modulo 2^32 is (19*2^32 + 1)/25; d = 100 has e=2.
        let p = ExactPlan::new_signed(100, 32).unwrap();
        assert_eq!(p.pre_shift(), 2);
        assert_eq!(p.inverse(), (19u128 * (1 << 32) + 1) / 25);
        assert!(!p.is_pow2());
        let p = ExactPlan::new_unsigned(1 << 20, 64).unwrap();
        assert!(p.is_pow2());
        assert_eq!(p.pre_shift(), 20);
        assert_eq!(p.inverse(), 1);
    }

    /// The plans Figs 4.2, 5.2 and 6.1 select for each bit pattern in
    /// `ds` at `width` (read as `iN` by the signed shapes) pass their
    /// exact validity predicates.
    fn assert_selected_plans_valid(width: u32, ds: impl IntoIterator<Item = u128>) {
        use crate::validity::{floor_valid, sdiv_valid, udiv_valid};
        let unused = 128 - width;
        for d in ds {
            let p = UdivPlan::new(d, width).unwrap();
            assert_eq!(udiv_valid(&p), Ok(()), "{p}");
            let signed = ((d << unused) as i128) >> unused;
            let p = SdivPlan::new(signed, width).unwrap();
            assert_eq!(sdiv_valid(&p), Ok(()), "{p}");
            let p = FloorPlan::new(signed, width).unwrap();
            assert_eq!(floor_valid(&p), Ok(()), "{p}");
        }
    }

    #[test]
    fn selected_plans_are_valid_for_every_divisor_at_w8_and_w16() {
        assert_selected_plans_valid(8, 1..=mask(8));
        assert_selected_plans_valid(16, 1..=mask(16));
    }

    #[test]
    fn selected_plans_are_valid_for_sampled_divisors_at_w32_w64_w128() {
        use crate::testkit::interesting_unsigned_divisors;
        // The catalogs hold powers of two and their neighbours, so w64
        // covers 2^63 + 1, u64::MAX - 1 and u64::MAX: the 2^128 numerator.
        let catalogs: [Vec<u128>; 3] = [
            interesting_unsigned_divisors::<u32>()
                .into_iter()
                .map(u128::from)
                .collect(),
            interesting_unsigned_divisors::<u64>()
                .into_iter()
                .map(u128::from)
                .collect(),
            interesting_unsigned_divisors::<u128>(),
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u128;
        for (width, catalog) in [32, 64, 128].into_iter().zip(catalogs) {
            assert!(catalog.contains(&mask(width)));
            assert_selected_plans_valid(width, catalog);
            let sampled: Vec<u128> = (0..2_000)
                .map(|_| {
                    state = state
                        .wrapping_mul(0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645)
                        .wrapping_add(0x5851_f42d_4c95_7f2d_1405_7b7e_f767_814f);
                    // Spread the samples over every magnitude.
                    ((state & mask(width)) >> ((state >> 121) % u128::from(width))).max(1)
                })
                .collect();
            assert_selected_plans_valid(width, sampled);
        }
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(
            DivPlan::from(UdivPlan::new(10, 32).unwrap()).strategy_name(),
            "mul_shift"
        );
        assert_eq!(
            DivPlan::from(UdivPlan::new(8, 32).unwrap()).strategy_name(),
            "shift"
        );
        assert_eq!(
            DivPlan::from(ExactPlan::new_unsigned(12, 32).unwrap()).strategy_name(),
            "exact_inverse"
        );
        assert_eq!(
            DivPlan::from(DwordPlan::new(10, 32).unwrap()).strategy_name(),
            "dword"
        );
    }

    #[test]
    fn dword_plan_matches_paper_example() {
        // d = 10 at N = 32: l = 4, m' = ⌊(2^36 - 1)/10⌋ - 2^32, d_norm = 10·2^28.
        let p = DwordPlan::new(10, 32).unwrap();
        assert_eq!(p.l(), 4);
        assert_eq!(p.m_prime(), ((1u128 << 36) - 1) / 10 - (1u128 << 32));
        assert_eq!(p.d_norm(), 10u128 << 28);
        assert_eq!(p.divisor(), 10);
        assert_eq!(p.width(), 32);
        let s = format!("{p}");
        assert!(s.contains("udword/32"), "{s}");
    }

    #[test]
    fn dword_plan_boundary_divisors_every_width() {
        for width in [1u32, 2, 8, 16, 24, 32, 57, 64, 128] {
            let max = mask(width);
            for d in [1u128, 2, 3, max / 2 + 1, max - 1, max] {
                let d = d.clamp(1, max);
                let p = DwordPlan::new(d, width).unwrap();
                assert!((1..=width).contains(&p.l()), "d={d} w={width}: l={}", p.l());
                // d_norm is d shifted so its top bit reaches the word top.
                assert_eq!(
                    p.d_norm() >> (width - 1),
                    1,
                    "d={d} w={width}: d_norm={:#x} not normalized",
                    p.d_norm()
                );
                assert_eq!(p.d_norm(), (d << (width - p.l())) & mask(width));
                // m' fits one word (quotient is in [2^N, 2^(N+1))).
                assert!(p.m_prime() <= max, "d={d} w={width}");
            }
        }
    }

    #[test]
    fn dword_plan_zero_divisor_rejected() {
        assert!(DwordPlan::new(0, 32).is_err());
    }

    #[test]
    fn urem_plan_paper_baseline_embeds_udiv() {
        let p = UremPlan::new(10, 32).unwrap();
        match p.strategy() {
            UremStrategy::MulBack { udiv } => {
                assert_eq!(udiv, UdivPlan::new(10, 32).unwrap().strategy());
            }
            s => panic!("unexpected {s:?}"),
        }
        // Powers of two degenerate to a mask under both constructors.
        for d in [1u128, 2, 16, 1 << 31] {
            let p = UremPlan::new(d, 32).unwrap();
            assert_eq!(p.strategy(), UremStrategy::Mask { low_mask: d - 1 });
            assert_eq!(
                p.strategy(),
                UremPlan::new_direct(d, 32).unwrap().strategy()
            );
        }
    }

    #[test]
    fn urem_fraction_constants_match_lkk() {
        // c = ⌈2^2N/d⌉ split into N-bit limbs, at every machine width.
        for width in [8u32, 16, 32, 64] {
            for d in [3u128, 7, 10, 641] {
                if d > mask(width) {
                    continue;
                }
                let p = UremPlan::new_direct(d, width).unwrap();
                match p.strategy() {
                    UremStrategy::Fraction { c_hi, c_lo } => {
                        let c = (c_hi << width) | c_lo;
                        // d * c = d * ⌈2^2N/d⌉ lands in (2^2N, 2^2N + d].
                        let f = 2 * width;
                        let pow2f = if f == 128 { None } else { Some(1u128 << f) };
                        match pow2f {
                            Some(p2) => {
                                assert!(d * c > p2 && d * c <= p2 + d, "w={width} d={d}")
                            }
                            None => {
                                // 2N = 128: check via the remainder instead.
                                assert_eq!(c, u128::MAX / d + 1, "w={width} d={d}");
                            }
                        }
                        assert!(c_hi >= 1 && c_hi <= mask(width), "w={width} d={d}");
                        assert!(c_lo <= mask(width), "w={width} d={d}");
                    }
                    s => panic!("unexpected {s:?}"),
                }
            }
        }
        // Width 128 routes through the DWord substrate: spot-check d = 10
        // against ⌈2^256/10⌉ = (2^256 + 5)/10 computed limb-wise.
        let p = UremPlan::new_direct(10, 128).unwrap();
        match p.strategy() {
            UremStrategy::Fraction { c_hi, c_lo } => {
                // ⌊(2^256-1)/10⌋ + 1: hi = ⌊(2^128-1)/10⌋ rolled through.
                assert_eq!(c_hi, u128::MAX / 10);
                // low limb of ⌊(6·2^128 + (2^128-1))/10⌋ + 1.
                let (q, _) = magicdiv_dword::DWord::from_parts(u128::MAX % 10, u128::MAX)
                    .div_rem_limb(10)
                    .unwrap();
                assert_eq!(c_lo, q.lo().wrapping_add(1));
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn divisibility_plan_matches_exact_constants() {
        // The promoted rotate test must carry the same §9 constants the
        // exact-division plan derives.
        for (d, width) in [(10u128, 32u32), (12, 32), (100, 64), (7, 8), (255, 16)] {
            let p = DivisibilityPlan::new(d, width).unwrap();
            let x = ExactPlan::new_unsigned(d, width).unwrap();
            match p.strategy() {
                DivisibilityStrategy::InverseRotate { e, dinv, qmax } => {
                    assert_eq!(e, x.pre_shift(), "d={d}");
                    assert_eq!(dinv, x.inverse(), "d={d}");
                    assert_eq!(qmax, x.qmax(), "d={d}");
                }
                s => panic!("unexpected {s:?} for d={d}"),
            }
        }
        let p = DivisibilityPlan::new(64, 32).unwrap();
        assert_eq!(p.strategy(), DivisibilityStrategy::Mask { low_mask: 63 });
    }

    #[test]
    fn urem_divtest_strategy_names_are_stable() {
        assert_eq!(
            DivPlan::from(UremPlan::new(10, 32).unwrap()).strategy_name(),
            "urem_mulback"
        );
        assert_eq!(
            DivPlan::from(UremPlan::new_direct(10, 32).unwrap()).strategy_name(),
            "urem_fraction"
        );
        assert_eq!(
            DivPlan::from(UremPlan::new(8, 32).unwrap()).strategy_name(),
            "urem_mask"
        );
        assert_eq!(
            DivPlan::from(DivisibilityPlan::new(10, 32).unwrap()).strategy_name(),
            "divtest_inverse"
        );
        assert_eq!(
            DivPlan::from(DivisibilityPlan::new(16, 32).unwrap()).strategy_name(),
            "divtest_mask"
        );
    }

    #[test]
    fn display_renders() {
        let p = DivPlan::from(UdivPlan::new(10, 32).unwrap());
        let s = format!("{p}");
        assert!(s.contains("udiv/32"), "{s}");
        assert!(s.contains("mul-shift"), "{s}");
    }

    #[test]
    fn zero_divisors_rejected() {
        assert!(UdivPlan::new(0, 32).is_err());
        assert!(SdivPlan::new(0, 32).is_err());
        assert!(FloorPlan::new(0, 32).is_err());
        assert!(ExactPlan::new_unsigned(0, 32).is_err());
        assert!(ExactPlan::new_signed(0, 32).is_err());
        assert!(UremPlan::new(0, 32).is_err());
        assert!(UremPlan::new_direct(0, 32).is_err());
        assert!(DivisibilityPlan::new(0, 32).is_err());
    }

    #[test]
    fn try_from_div_plan_takes_back_its_own_kind_only() {
        let plans: [DivPlan; 7] = [
            UdivPlan::new(7, 32).unwrap().into(),
            SdivPlan::new(-7, 32).unwrap().into(),
            FloorPlan::new(-7, 32).unwrap().into(),
            ExactPlan::new_unsigned(12, 32).unwrap().into(),
            DwordPlan::new(10, 32).unwrap().into(),
            UremPlan::new_direct(10, 32).unwrap().into(),
            DivisibilityPlan::new(12, 32).unwrap().into(),
        ];
        fn kind<P: TryFrom<DivPlan, Error = DivPlan>>(plans: &[DivPlan; 7], own: usize)
        where
            DivPlan: From<P>,
        {
            for (i, &plan) in plans.iter().enumerate() {
                let want = if i == own { Ok(plan) } else { Err(plan) };
                assert_eq!(P::try_from(plan).map(DivPlan::from), want, "{plan}");
            }
        }
        kind::<UdivPlan>(&plans, 0);
        kind::<SdivPlan>(&plans, 1);
        kind::<FloorPlan>(&plans, 2);
        kind::<ExactPlan>(&plans, 3);
        kind::<DwordPlan>(&plans, 4);
        kind::<UremPlan>(&plans, 5);
        kind::<DivisibilityPlan>(&plans, 6);
    }

    #[test]
    fn unsupported_width_is_a_typed_error() {
        assert_eq!(
            UdivPlan::new(3, 100),
            Err(DivisorError::UnsupportedWidth { width: 100 })
        );
    }

    /// Every plan constructor at `(d, width)`: the six unsigned ones
    /// (reading `d as u128`), then the three signed ones.
    fn every_constructor(d: i128, width: u32) -> [Result<(), DivisorError>; 9] {
        let u = d as u128;
        [
            UdivPlan::new(u, width).map(drop),
            ExactPlan::new_unsigned(u, width).map(drop),
            DwordPlan::new(u, width).map(drop),
            UremPlan::new(u, width).map(drop),
            UremPlan::new_direct(u, width).map(drop),
            DivisibilityPlan::new(u, width).map(drop),
            SdivPlan::new(d, width).map(drop),
            FloorPlan::new(d, width).map(drop),
            ExactPlan::new_signed(d, width).map(drop),
        ]
    }

    #[test]
    fn out_of_range_inputs_are_typed_errors_from_every_constructor() {
        for width in [0u32, 65, 127, 129] {
            for d in [1i128, 3, -3] {
                for got in every_constructor(d, width) {
                    assert_eq!(got, Err(DivisorError::UnsupportedWidth { width }));
                }
            }
        }
        let out_of_range = |d: i128, signed, width| {
            Err(DivisorError::OutOfRange {
                d_bits: d as u128,
                signed,
                width,
            })
        };
        for width in 1u32..=64 {
            // Unsigned: one past the top of uN; the top itself fits.
            let (past, top) = (1i128 << width, mask(width) as i128);
            for got in &every_constructor(past, width)[..6] {
                assert_eq!(*got, out_of_range(past, false, width), "w={width}");
            }
            for got in &every_constructor(top, width)[..6] {
                assert_eq!(*got, Ok(()), "w={width}");
            }
            // Signed: one past each end of iN; both ends fit.
            let half = 1i128 << (width - 1);
            for d in [half, -half - 1] {
                for got in &every_constructor(d, width)[6..] {
                    assert_eq!(*got, out_of_range(d, true, width), "w={width} d={d}");
                }
            }
            for d in [half - 1, -half].into_iter().filter(|&d| d != 0) {
                for got in &every_constructor(d, width)[6..] {
                    assert_eq!(*got, Ok(()), "w={width} d={d}");
                }
            }
        }
        // Floor's shift path needs no multiplier, so only the up-front
        // check can refuse these.
        for (d, width) in [(128, 8), (1 << 40, 32)] {
            let got = FloorPlan::new(d, width).map(drop);
            assert_eq!(got, out_of_range(d, true, width));
        }
    }
}
