//! Guarded execution: self-verifying divisors with graceful degradation
//! to hardware division.
//!
//! The planning layer is proven correct at build time (mutation-tested
//! oracle, tournament certification), but nothing there defends the
//! *runtime* path: a corrupted magic constant — one flipped bit in a
//! multiplier sitting in live memory — silently yields wrong quotients,
//! and the optimal-bounds analysis (Lemire–Bartlett–Kaser, arXiv
//! 2012.12369) shows many winning constants sit exactly one bit from
//! incorrectness. This module wraps every divisor family in one
//! [`Guarded`] guard with a three-state machine:
//!
//! * **Verified** — construction ran a self-verification probe: an exact
//!   validity predicate on the constants the kernel holds
//!   ([`GuardKernel::valid`], from [`crate::validity`]), which proves the
//!   kernel right for every input or names one it gets wrong, plus a
//!   handful of boundary witnesses checked against native division,
//!   which exercise the kernel code itself; execution trusts the plan
//!   with zero per-call overhead;
//! * **Hardened** — execution additionally cross-checks every
//!   `sample_every`-th quotient against native division, chosen by a
//!   countdown with no locked read-modify-write and no division;
//! * **Demoted** — a cross-check mismatched: the instance permanently
//!   falls back to native (hardware) division, emits a
//!   `guard.demotion` trace event and charges the process-wide
//!   [`FaultBudget`]. The mismatching call itself already returns the
//!   *correct* (native) quotient — a detected fault is never served.
//!
//! The [`FaultBudget`] is a circuit breaker: once the configured number
//! of demotions is spent, further guarded constructions skip the probe
//! and start out demoted (`guard.circuit_open`), on the theory that a
//! process whose plan constants keep failing has a systemic memory
//! problem and should serve everything through hardware division until
//! it is recycled.
//!
//! The probe, the cross-check and the demotion are written once, in
//! [`Guarded`]; each family's kernel supplies only its plan, kernel
//! call, native reference, validity predicate and boundary witnesses
//! through [`GuardKernel`].
//! [`GuardedUnsignedDivisor`] and its four siblings name the five
//! instances.
//!
//! # Examples
//!
//! ```
//! use magicdiv::guard::{GuardPolicy, GuardState, GuardedUnsignedDivisor};
//!
//! let by7 = GuardedUnsignedDivisor::<u32>::new(7)?;
//! assert_eq!(by7.state(), GuardState::Verified);
//! assert_eq!(by7.divide(1000), 142);
//!
//! // A corrupted plan is caught by the construction probe: this one
//! // claims d = 7 is a power of two.
//! use magicdiv::plan::{UdivPlan, UdivStrategy};
//! let bad = UdivPlan::from_raw(7, 32, UdivStrategy::Shift { sh: 3 });
//! let err = GuardedUnsignedDivisor::<u32>::from_plan(&bad, &GuardPolicy::default());
//! assert!(err.is_err(), "probe must reject the wrong strategy");
//! # Ok::<(), magicdiv::Fault>(())
//! ```

use core::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use magicdiv_dword::{DWord, Limb};

use crate::error::{DivisorError, DwordDivError, Fault, FaultKind, FaultLayer};
use crate::exact::ExactUnsignedDivisor;
use crate::floor::FloorDivisor;
use crate::plan::{DivPlan, DwordPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan};
use crate::signed::SignedDivisor;
use crate::udword_div::DwordDivisor;
use crate::unsigned::UnsignedDivisor;
use crate::validity::{dword_valid, exact_valid, floor_valid, sdiv_valid, udiv_valid};
use crate::word::{SWord, UWord};

/// Where a guarded divisor sits in the Verified → Hardened → Demoted
/// state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardState {
    /// The construction probe passed; execution trusts the plan.
    Verified,
    /// Execution cross-checks a sampled fraction of quotients.
    Hardened,
    /// A cross-check failed; every call now uses native division.
    Demoted,
}

impl core::fmt::Display for GuardState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GuardState::Verified => write!(f, "verified"),
            GuardState::Hardened => write!(f, "hardened"),
            GuardState::Demoted => write!(f, "demoted"),
        }
    }
}

/// How a guarded divisor is executed. Every policy probes at
/// construction; the default never cross-checks at runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardPolicy {
    /// Cross-check every `sample_every`-th call in hardened mode;
    /// `0` disables runtime checks (the divisor starts Verified),
    /// `1` checks every call.
    ///
    /// For one caller the checked calls are exactly calls `0, k, 2k, …`.
    /// Concurrent callers share the countdown through plain relaxed
    /// loads and stores, so a racing call may repeat or skip a sample;
    /// the rate stays about one call in `k`.
    pub sample_every: u64,
}

impl GuardPolicy {
    /// The hardened preset: probe at construction, then cross-check
    /// every `sample_every`-th quotient at runtime.
    pub fn hardened(sample_every: u64) -> Self {
        GuardPolicy {
            sample_every: sample_every.max(1),
        }
    }
}

/// Process-wide demotion budget — the circuit breaker for guarded
/// execution.
///
/// Every demotion is recorded here; once `limit` demotions have been
/// spent, [`FaultBudget::exhausted`] turns true and new guarded
/// constructions start out demoted (native division) instead of probing
/// and hardening.
#[derive(Debug)]
pub struct FaultBudget {
    limit: AtomicU64,
    demotions: AtomicU64,
}

/// Default process-wide demotion budget.
pub const DEFAULT_FAULT_BUDGET: u64 = 1024;

impl FaultBudget {
    /// A budget allowing `limit` demotions before the circuit opens.
    pub const fn with_limit(limit: u64) -> Self {
        FaultBudget {
            limit: AtomicU64::new(limit),
            demotions: AtomicU64::new(0),
        }
    }

    /// Demotions recorded so far.
    pub fn demotions(&self) -> u64 {
        self.demotions.load(Ordering::Relaxed)
    }

    /// The configured limit.
    pub fn limit(&self) -> u64 {
        self.limit.load(Ordering::Relaxed)
    }

    /// Reconfigures the limit (e.g. for a chaos run or a test).
    pub fn set_limit(&self, limit: u64) {
        self.limit.store(limit, Ordering::Relaxed);
    }

    /// Whether the circuit is open (budget spent).
    pub fn exhausted(&self) -> bool {
        self.demotions() >= self.limit()
    }

    /// Typed check: `Err` with [`FaultKind::FaultBudgetExhausted`] when
    /// the circuit is open.
    ///
    /// # Errors
    ///
    /// [`FaultKind::FaultBudgetExhausted`] at [`FaultLayer::Guard`].
    pub fn check(&self) -> Result<(), Fault> {
        if self.exhausted() {
            Err(guard_fault(FaultKind::FaultBudgetExhausted {
                limit: self.limit(),
            }))
        } else {
            Ok(())
        }
    }

    /// Records one demotion, returning the new total. Emits
    /// `guard.circuit_open` when this demotion spends the budget.
    pub fn record_demotion(&self) -> u64 {
        let total = self.demotions.fetch_add(1, Ordering::Relaxed) + 1;
        if total == self.limit() {
            magicdiv_trace::event!("guard.circuit_open", "demotions" => total);
        }
        total
    }

    /// Clears the demotion count (chaos scenarios and tests run many
    /// induced demotions in one process).
    pub fn reset(&self) {
        self.demotions.store(0, Ordering::Relaxed);
    }
}

/// The process-wide [`FaultBudget`] every guarded divisor charges.
pub fn fault_budget() -> &'static FaultBudget {
    static BUDGET: FaultBudget = FaultBudget::with_limit(DEFAULT_FAULT_BUDGET);
    &BUDGET
}

const STATE_VERIFIED: u8 = 0;
const STATE_HARDENED: u8 = 1;
const STATE_DEMOTED: u8 = 2;

/// A fault at [`FaultLayer::Guard`].
fn guard_fault(kind: FaultKind) -> Fault {
    Fault {
        layer: FaultLayer::Guard,
        kind,
        at: None,
    }
}

/// Builds the [`Fault`] a failed self-check reports.
fn self_check_fault(n: u128, got: u128, want: u128) -> Fault {
    guard_fault(FaultKind::SelfCheckFailed { n, got, want })
}

/// What one divisor family contributes to [`Guarded`]: its plan, the
/// kernel call, the native reference, the validity predicate and the
/// probe's boundary witnesses. The probe, the sampled cross-check and
/// the demotion are [`Guarded`]'s.
pub trait GuardKernel: Sized {
    /// The width-erased plan the kernel is built from.
    type Plan: Copy + Into<DivPlan>;
    /// The divisor's word type.
    type Word: Copy;
    /// The argument of one guarded call.
    type Input: Copy;
    /// The result of one guarded call.
    type Output: Copy + PartialEq;
    /// The family's tag in `guard.probe` and `guard.demotion` events.
    const SHAPE: &'static str;
    /// The word width in bits; a plan of any other width is refused.
    const BITS: u32;

    /// Plans division by `d` at [`BITS`](Self::BITS) bits.
    ///
    /// # Errors
    ///
    /// [`DivisorError::Zero`] when `d == 0`.
    fn plan(d: Self::Word) -> Result<Self::Plan, DivisorError>;

    /// Builds the kernel from a plan of width [`BITS`](Self::BITS),
    /// together with its divisor.
    ///
    /// # Errors
    ///
    /// [`FaultKind::BadProgram`] for a plan this kernel does not run: a
    /// signed [`ExactPlan`] handed to the unsigned exact kernel.
    fn build(plan: &Self::Plan) -> Result<(Self, Self::Word), FaultKind>;

    /// The answer computed from the plan's (possibly corrupt) constants.
    fn planned(&self, n: Self::Input) -> Self::Output;

    /// The answer computed without the plan's constants.
    fn native(d: Self::Word, n: Self::Input) -> Self::Output;

    /// Whether the cross-check applies to `n`: a kernel whose contract
    /// covers only some inputs is not checked on the others.
    fn in_contract(_d: Self::Word, _n: Self::Input) -> bool {
        true
    }

    /// The family's validity predicate from [`crate::validity`], run on
    /// the constants this kernel holds: `Ok` proves
    /// [`planned`](Self::planned) equals [`native`](Self::native) on
    /// every input in contract.
    ///
    /// # Errors
    ///
    /// An input to report when the predicate cannot prove the kernel. It
    /// is a wrong answer for every family but doubleword, whose
    /// predicate also refuses some right constants.
    fn valid(&self) -> Result<(), Self::Input>;

    /// The probe's boundary witnesses, which run the kernel code on the
    /// inputs around `0`, `d` and the ends of the range.
    fn witnesses(d: Self::Word) -> impl Iterator<Item = Self::Input>;

    /// The self-check fault for a wrong answer `got` at `n`.
    fn mismatch(n: Self::Input, got: Self::Output, want: Self::Output) -> Fault;

    /// The divisor as the `d` field of a `guard.demotion` event.
    fn trace_d(d: Self::Word) -> magicdiv_trace::Value;
}

/// A divisor kernel `K` wrapped in the Verified → Hardened → Demoted
/// guard state machine.
#[derive(Debug)]
pub struct Guarded<K: GuardKernel> {
    kernel: K,
    d: K::Word,
    state: AtomicU8,
    /// Hardened calls left before the next cross-check: the call that
    /// reads `0` is checked and resets it to `sample_every - 1`.
    countdown: AtomicU64,
    sample_every: u64,
}

/// [`UnsignedDivisor`] under the guard (§4).
pub type GuardedUnsignedDivisor<T> = Guarded<UnsignedDivisor<T>>;
/// [`SignedDivisor`] under the guard (§5).
pub type GuardedSignedDivisor<S> = Guarded<SignedDivisor<S>>;
/// [`FloorDivisor`] under the guard (§6).
pub type GuardedFloorDivisor<S> = Guarded<FloorDivisor<S>>;
/// [`ExactUnsignedDivisor`] under the guard (§9). Its cross-check only
/// fires on multiples of `d`, the only inputs `divide_exact` answers.
pub type GuardedExactDivisor<T> = Guarded<ExactUnsignedDivisor<T>>;
/// [`DwordDivisor`] under the guard (§8). The native reference is
/// [`DWord::div_rem_limb`], schoolbook long division by one word (a
/// native double-width division up to 64-bit limbs), which is
/// independent of the Figure 8.1 constants being guarded.
pub type GuardedDwordDivisor<T> = Guarded<DwordDivisor<T>>;

impl<K: GuardKernel> Guarded<K> {
    /// Builds and probes a guarded divisor under the default policy
    /// (probe only, no runtime sampling).
    ///
    /// # Errors
    ///
    /// `DivideByZero` for `d == 0`; [`FaultKind::SelfCheckFailed`] when
    /// the probe catches a wrong answer.
    pub fn new(d: K::Word) -> Result<Self, Fault> {
        Self::from_plan(&K::plan(d)?, &GuardPolicy::default())
    }

    /// Wraps an existing plan (e.g. one served by the
    /// [`crate::cache::PlanCache`]), probing its constants first.
    ///
    /// # Errors
    ///
    /// [`FaultKind::UnsupportedWidth`] when the plan's width is not the
    /// word's; [`FaultKind::BadProgram`] when the kernel does not run the
    /// plan ([`GuardKernel::build`]); [`FaultKind::SelfCheckFailed`] when
    /// any probe witness gets a wrong answer — the typical symptom of a
    /// corrupted constant. All at [`FaultLayer::Guard`].
    pub fn from_plan(plan: &K::Plan, policy: &GuardPolicy) -> Result<Self, Fault> {
        let this = Self::from_plan_unprobed(plan, policy)?;
        if this.state() == GuardState::Demoted {
            return Ok(this); // circuit open: native division, no probe
        }
        let (ran, proved, outcome) = this.probe();
        magicdiv_trace::event!("guard.probe",
            "shape" => K::SHAPE,
            "width" => K::BITS,
            "witnesses" => ran,
            "proved" => u32::from(proved),
            "ok" => u32::from(outcome.is_ok()));
        outcome.map(|()| this)
    }

    /// Wraps a plan *without* probing it — the entry point
    /// fault-injection harnesses use to smuggle corrupted constants past
    /// construction so the runtime cross-check path can be exercised.
    ///
    /// # Errors
    ///
    /// [`FaultKind::UnsupportedWidth`] when the plan's width is not the
    /// word's; [`FaultKind::BadProgram`] when the kernel does not run the
    /// plan ([`GuardKernel::build`]). Both at [`FaultLayer::Guard`].
    pub fn from_plan_unprobed(plan: &K::Plan, policy: &GuardPolicy) -> Result<Self, Fault> {
        let width = Into::<DivPlan>::into(*plan).width();
        if width != K::BITS {
            return Err(guard_fault(FaultKind::UnsupportedWidth { width }));
        }
        let (kernel, d) = K::build(plan).map_err(guard_fault)?;
        Ok(Self::start(kernel, d, policy))
    }

    /// The guard around a built kernel, in the state the policy and the
    /// circuit breaker give a new guard.
    fn start(kernel: K, d: K::Word, policy: &GuardPolicy) -> Self {
        // The circuit breaker: once the budget is spent, start demoted.
        let state = if fault_budget().exhausted() {
            magicdiv_trace::event!("guard.circuit_bypass",
                "demotions" => fault_budget().demotions());
            STATE_DEMOTED
        } else if policy.sample_every > 0 {
            STATE_HARDENED
        } else {
            STATE_VERIFIED
        };
        Guarded {
            kernel,
            d,
            state: AtomicU8::new(state),
            countdown: AtomicU64::new(0),
            sample_every: policy.sample_every,
        }
    }

    /// The construction probe: the boundary witnesses up to the first
    /// wrong answer, then the validity predicate. Returns how many
    /// witnesses ran, whether the predicate proved the plan, and the
    /// first fault.
    fn probe(&self) -> (u32, bool, Result<(), Fault>) {
        // A sound but incomplete predicate (dword) may name an input the
        // kernel gets right; it still refuses the constants.
        let fault = |n| K::mismatch(n, self.kernel.planned(n), K::native(self.d, n));
        let mut ran = 0u32;
        let mut witnesses = Ok(());
        for n in K::witnesses(self.d) {
            ran += 1;
            if self.kernel.planned(n) != K::native(self.d, n) {
                witnesses = Err(fault(n));
                break;
            }
        }
        let proof = self.kernel.valid();
        (ran, proof.is_ok(), witnesses.and(proof.map_err(fault)))
    }

    /// The divisor this guard protects.
    #[inline]
    pub fn divisor(&self) -> K::Word {
        self.d
    }

    /// Current position in the state machine.
    pub fn state(&self) -> GuardState {
        match self.state.load(Ordering::Acquire) {
            STATE_VERIFIED => GuardState::Verified,
            STATE_HARDENED => GuardState::Hardened,
            _ => GuardState::Demoted,
        }
    }

    /// One guarded call. Demoted: the native answer. Otherwise the
    /// planned answer, which in hardened mode a sampled fraction of
    /// calls cross-checks against native; a mismatch demotes the
    /// instance and returns the *native* answer, so a detected fault is
    /// never served.
    fn run(&self, n: K::Input) -> K::Output {
        let state = self.state.load(Ordering::Acquire);
        if state == STATE_DEMOTED {
            return K::native(self.d, n);
        }
        let got = self.kernel.planned(n);
        if state == STATE_HARDENED && self.should_check() && K::in_contract(self.d, n) {
            let want = K::native(self.d, n);
            if got != want {
                self.demote(&K::mismatch(n, got, want));
                return want;
            }
        }
        got
    }

    /// Whether this hardened call should be cross-checked: one tick of
    /// the countdown. A relaxed load and store, not a locked
    /// read-modify-write, so two racing calls may both read the same
    /// value; that can repeat or skip a sample, never stop sampling.
    fn should_check(&self) -> bool {
        let left = self.countdown.load(Ordering::Relaxed);
        if left == 0 {
            let reset = self.sample_every.saturating_sub(1);
            self.countdown.store(reset, Ordering::Relaxed);
            return true;
        }
        self.countdown.store(left - 1, Ordering::Relaxed);
        false
    }

    /// Transitions to Demoted, charges the budget, emits the typed
    /// `guard.demotion` event carrying the offending divisor key `d`.
    fn demote(&self, fault: &Fault) {
        self.state.store(STATE_DEMOTED, Ordering::Release);
        fault_budget().record_demotion();
        magicdiv_trace::event!("guard.demotion",
            "shape" => K::SHAPE,
            "width" => K::BITS,
            "d" => K::trace_d(self.d),
            "why" => format!("{fault}"));
    }
}

// ---------------------------------------------------------------------------
// Unsigned (§4)
// ---------------------------------------------------------------------------

impl<T: UWord> GuardKernel for UnsignedDivisor<T> {
    type Plan = UdivPlan;
    type Word = T;
    type Input = T;
    type Output = T;
    const SHAPE: &'static str = "unsigned";
    const BITS: u32 = T::BITS;

    fn plan(d: T) -> Result<UdivPlan, DivisorError> {
        UdivPlan::new(d.to_u128(), T::BITS)
    }

    fn build(plan: &UdivPlan) -> Result<(Self, T), FaultKind> {
        let kernel = UnsignedDivisor::from_plan(plan);
        Ok((kernel, kernel.divisor()))
    }

    fn planned(&self, n: T) -> T {
        self.divide(n)
    }

    fn native(d: T, n: T) -> T {
        n.checked_div(d).unwrap_or(T::ZERO) // d != 0 by construction
    }

    fn valid(&self) -> Result<(), T> {
        udiv_valid(&self.plan()).map_err(T::from_u128_truncate)
    }

    fn witnesses(d: T) -> impl Iterator<Item = T> {
        let half = T::MAX.shr_full(1);
        [
            T::ZERO,
            T::ONE,
            d.wrapping_sub(T::ONE),
            d,
            d.wrapping_add(T::ONE),
            d.wrapping_add(d),
            T::MAX,
            T::MAX.wrapping_sub(T::ONE),
            half,
            half.wrapping_add(T::ONE),
        ]
        .into_iter()
    }

    fn mismatch(n: T, got: T, want: T) -> Fault {
        self_check_fault(n.to_u128(), got.to_u128(), want.to_u128())
    }

    fn trace_d(d: T) -> magicdiv_trace::Value {
        d.to_u128().into()
    }
}

impl<T: UWord> Guarded<UnsignedDivisor<T>> {
    /// Computes `⌊n / d⌋` under the guard.
    pub fn divide(&self, n: T) -> T {
        self.run(n)
    }

    /// Computes `n mod d` from the guarded quotient.
    pub fn remainder(&self, n: T) -> T {
        self.div_rem(n).1
    }

    /// Quotient and remainder together.
    pub fn div_rem(&self, n: T) -> (T, T) {
        let q = self.divide(n);
        (q, n.wrapping_sub(q.wrapping_mul(self.d)))
    }
}

// ---------------------------------------------------------------------------
// Signed trunc (§5) and floor (§6)
// ---------------------------------------------------------------------------

/// Native truncating division with hardware wrap on `MIN / -1` (the
/// only quotient `checked_div` refuses for `d != 0`).
fn native_trunc<S: SWord>(n: S, d: S) -> S {
    n.checked_div(d).unwrap_or(S::MIN)
}

/// Native floor division with hardware wrap on `MIN / -1`.
fn native_floor<S: SWord>(n: S, d: S) -> S {
    let (Some(q), Some(r)) = (n.checked_div(d), n.checked_rem(d)) else {
        return S::MIN;
    };
    if r != S::ZERO && (r < S::ZERO) != (d < S::ZERO) {
        q.wrapping_sub(S::ONE)
    } else {
        q
    }
}

/// The signed families' boundary witnesses (`MAX − 1` only for trunc).
fn signed_witnesses<S: SWord>(d: S, max_minus_one: bool) -> impl Iterator<Item = S> {
    let ws = [
        S::ZERO,
        S::ONE,
        S::MINUS_ONE,
        d,
        d.wrapping_neg(),
        d.wrapping_add(S::ONE),
        d.wrapping_sub(S::ONE),
        S::MIN,
        S::MIN.wrapping_add(S::ONE),
        S::MAX,
    ];
    let extra = max_minus_one.then(|| S::MAX.wrapping_sub(S::ONE));
    ws.into_iter().chain(extra)
}

/// The two signed families differ only in their plan, kernel, native
/// reference and whether `MAX − 1` is a boundary witness.
macro_rules! signed_kernel {
    ($kernel:ident, $plan:ident, $shape:literal, $native:ident, $valid:ident, $max_minus_one:literal) => {
        impl<S: SWord> GuardKernel for $kernel<S> {
            type Plan = $plan;
            type Word = S;
            type Input = S;
            type Output = S;
            const SHAPE: &'static str = $shape;
            const BITS: u32 = S::BITS;

            fn plan(d: S) -> Result<$plan, DivisorError> {
                $plan::new(d.to_i128(), S::BITS)
            }

            fn build(plan: &$plan) -> Result<(Self, S), FaultKind> {
                let kernel = $kernel::from_plan(plan);
                Ok((kernel, kernel.divisor()))
            }

            fn planned(&self, n: S) -> S {
                self.divide(n)
            }

            fn native(d: S, n: S) -> S {
                $native(n, d)
            }

            fn valid(&self) -> Result<(), S> {
                $valid(&self.plan()).map_err(S::from_i128_truncate)
            }

            fn witnesses(d: S) -> impl Iterator<Item = S> {
                signed_witnesses(d, $max_minus_one)
            }

            /// In two's-complement bits.
            fn mismatch(n: S, got: S, want: S) -> Fault {
                let bits = |x: S| x.as_unsigned().to_u128();
                self_check_fault(bits(n), bits(got), bits(want))
            }

            fn trace_d(d: S) -> magicdiv_trace::Value {
                d.to_i128().into()
            }
        }
    };
}

signed_kernel!(
    SignedDivisor,
    SdivPlan,
    "signed",
    native_trunc,
    sdiv_valid,
    true
);
signed_kernel!(
    FloorDivisor,
    FloorPlan,
    "floor",
    native_floor,
    floor_valid,
    false
);

impl<S: SWord> Guarded<SignedDivisor<S>> {
    /// Computes `TRUNC(n / d)` under the guard.
    pub fn divide(&self, n: S) -> S {
        self.run(n)
    }

    /// Computes the remainder (sign of the dividend) from the guarded
    /// quotient.
    pub fn remainder(&self, n: S) -> S {
        n.wrapping_sub(self.divide(n).wrapping_mul(self.d))
    }
}

impl<S: SWord> Guarded<FloorDivisor<S>> {
    /// Computes `⌊n / d⌋` (round toward `-∞`) under the guard.
    pub fn divide(&self, n: S) -> S {
        self.run(n)
    }

    /// Computes `n mod d` (sign of the divisor) from the guarded
    /// quotient.
    pub fn modulus(&self, n: S) -> S {
        n.wrapping_sub(self.divide(n).wrapping_mul(self.d))
    }
}

// ---------------------------------------------------------------------------
// Exact / divisibility (§9)
// ---------------------------------------------------------------------------

/// Which exact-division call a guarded input is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactOp {
    /// `divide_exact`: `n / d` for a multiple `n` of `d`.
    Quotient,
    /// `divides`: whether `d | n`, answered as `1` or `0`.
    Divides,
}

fn native_rem<T: UWord>(d: T, n: T) -> T {
    n.wrapping_sub(n.checked_div(d).unwrap_or(T::ZERO).wrapping_mul(d))
}

impl<T: UWord> GuardKernel for ExactUnsignedDivisor<T> {
    type Plan = ExactPlan;
    type Word = T;
    type Input = (ExactOp, T);
    type Output = T;
    const SHAPE: &'static str = "exact";
    const BITS: u32 = T::BITS;

    fn plan(d: T) -> Result<ExactPlan, DivisorError> {
        ExactPlan::new_unsigned(d.to_u128(), T::BITS)
    }

    fn build(plan: &ExactPlan) -> Result<(Self, T), FaultKind> {
        if plan.is_signed() {
            return Err(FaultKind::BadProgram(format!(
                "signed exact plan for the unsigned kernel: {plan}"
            )));
        }
        let kernel = ExactUnsignedDivisor::from_plan(plan);
        Ok((kernel, kernel.divisor()))
    }

    fn planned(&self, (op, n): (ExactOp, T)) -> T {
        match op {
            ExactOp::Quotient => self.divide_exact_unchecked(n),
            ExactOp::Divides => T::from_u128_truncate(self.divides(n).into()),
        }
    }

    fn native(d: T, (op, n): (ExactOp, T)) -> T {
        match op {
            ExactOp::Quotient => n.checked_div(d).unwrap_or(T::ZERO),
            ExactOp::Divides => T::from_u128_truncate((native_rem(d, n) == T::ZERO).into()),
        }
    }

    fn in_contract(d: T, (op, n): (ExactOp, T)) -> bool {
        op == ExactOp::Divides || native_rem(d, n) == T::ZERO
    }

    /// A wrong answer to `divide_exact` if there is one at the named
    /// dividend, else to `divides`.
    fn valid(&self) -> Result<(), (ExactOp, T)> {
        exact_valid(&self.plan()).map_err(|n| {
            let n = T::from_u128_truncate(n);
            let quotient = (ExactOp::Quotient, n);
            let d = self.divisor();
            if Self::in_contract(d, quotient) && self.planned(quotient) != Self::native(d, quotient)
            {
                quotient
            } else {
                (ExactOp::Divides, n)
            }
        })
    }

    /// For each probe quotient `q`: the exact quotient of `q·d`, the
    /// verdict that `d | q·d`, and — unless `d == 1` or it wraps to a
    /// multiple — the verdict that `d ∤ q·d + 1`.
    fn witnesses(d: T) -> impl Iterator<Item = (ExactOp, T)> {
        let qmax = T::MAX.checked_div(d).unwrap_or(T::ZERO);
        let boundary = [
            T::ZERO,
            T::ONE,
            qmax,
            qmax.shr_full(1),
            qmax.wrapping_sub(T::ONE),
        ];
        boundary.into_iter().flat_map(move |q| {
            let n = if q > qmax { qmax } else { q }.wrapping_mul(d);
            let off = n.wrapping_add(T::ONE);
            let not_multiple = d != T::ONE && native_rem(d, off) != T::ZERO;
            [
                Some((ExactOp::Quotient, n)),
                Some((ExactOp::Divides, n)),
                not_multiple.then_some((ExactOp::Divides, off)),
            ]
            .into_iter()
            .flatten()
        })
    }

    fn mismatch((_, n): (ExactOp, T), got: T, want: T) -> Fault {
        self_check_fault(n.to_u128(), got.to_u128(), want.to_u128())
    }

    fn trace_d(d: T) -> magicdiv_trace::Value {
        d.to_u128().into()
    }
}

impl<T: UWord> Guarded<ExactUnsignedDivisor<T>> {
    /// Computes `n / d` for `n` a multiple of `d`, under the guard.
    /// Inputs that are not multiples return native `n / d` (demoted) or
    /// the kernel's garbage value (otherwise), exactly as the unguarded
    /// contract documents.
    pub fn divide_exact(&self, n: T) -> T {
        self.run((ExactOp::Quotient, n))
    }

    /// Tests `d | n` under the guard.
    pub fn divides(&self, n: T) -> bool {
        self.run((ExactOp::Divides, n)) == T::ONE
    }
}

// ---------------------------------------------------------------------------
// Dword (§8)
// ---------------------------------------------------------------------------

impl<T: UWord> GuardKernel for DwordDivisor<T> {
    type Plan = DwordPlan;
    type Word = T;
    type Input = DWord<T>;
    type Output = (T, T);
    const SHAPE: &'static str = "dword";
    const BITS: u32 = T::BITS;

    fn plan(d: T) -> Result<DwordPlan, DivisorError> {
        DwordPlan::new(d.to_u128(), T::BITS)
    }

    fn build(plan: &DwordPlan) -> Result<(Self, T), FaultKind> {
        let kernel = DwordDivisor::from_plan(plan);
        Ok((kernel, kernel.divisor()))
    }

    /// Every guarded input has `HIGH(n) < d`, so the kernel's
    /// quotient-overflow error cannot occur here.
    fn planned(&self, n: DWord<T>) -> (T, T) {
        self.div_rem(n).unwrap_or((T::ZERO, T::ZERO))
    }

    fn native(d: T, n: DWord<T>) -> (T, T) {
        n.div_rem_limb(d)
            .map_or((T::ZERO, T::ZERO), |(q, r)| (q.lo(), r))
    }

    fn valid(&self) -> Result<(), DWord<T>> {
        dword_valid(&self.plan()).map_err(|(hi, lo)| {
            DWord::from_parts(T::from_u128_truncate(hi), T::from_u128_truncate(lo))
        })
    }

    fn witnesses(d: T) -> impl Iterator<Item = DWord<T>> {
        let his = [T::ZERO, T::ONE, d.shr_full(1), d.wrapping_sub(T::ONE)];
        let los = [T::ZERO, T::ONE, T::MAX, d.wrapping_sub(T::ONE)];
        his.into_iter()
            .filter(move |&hi| hi < d)
            .flat_map(move |hi| los.map(|lo| DWord::from_parts(hi, lo)))
    }

    fn mismatch(n: DWord<T>, got: (T, T), want: (T, T)) -> Fault {
        self_check_fault(n.lo().to_u128(), got.0.to_u128(), want.0.to_u128())
    }

    fn trace_d(d: T) -> magicdiv_trace::Value {
        d.to_u128().into()
    }
}

impl<T: UWord> Guarded<DwordDivisor<T>> {
    /// Divides the doubleword `n` under the guard.
    ///
    /// # Errors
    ///
    /// [`DwordDivError::QuotientOverflow`] when `HIGH(n) >= d`, exactly
    /// as the unguarded divisor.
    pub fn div_rem(&self, n: DWord<T>) -> Result<(T, T), DwordDivError> {
        if n.hi() >= self.d {
            return Err(DwordDivError::QuotientOverflow);
        }
        Ok(self.run(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verified_divisors_divide_correctly() {
        let g = GuardedUnsignedDivisor::<u32>::new(7).expect("probe passes");
        assert_eq!(g.state(), GuardState::Verified);
        for n in [0u32, 1, 6, 7, 8, 700, u32::MAX] {
            assert_eq!(g.divide(n), n / 7);
            assert_eq!(g.remainder(n), n % 7);
        }
        let s = GuardedSignedDivisor::<i32>::new(-7).expect("probe passes");
        for n in [0i32, 1, -1, 100, -100, i32::MIN, i32::MAX] {
            assert_eq!(s.divide(n), n.wrapping_div(-7));
        }
        let f = GuardedFloorDivisor::<i32>::new(10).expect("probe passes");
        assert_eq!(f.divide(-1), -1);
        assert_eq!(f.modulus(-1), 9);
        let e = GuardedExactDivisor::<u32>::new(12).expect("probe passes");
        assert_eq!(e.divide_exact(144), 12);
        assert!(e.divides(144));
        assert!(!e.divides(145));
        let dd = GuardedDwordDivisor::<u32>::new(10).expect("probe passes");
        let (q, r) = dd.div_rem(DWord::from_parts(7, 6)).expect("fits");
        assert_eq!(
            (q as u64, r as u64),
            (((7u64 << 32) + 6) / 10, ((7u64 << 32) + 6) % 10)
        );
    }

    #[test]
    fn zero_divisor_is_a_typed_fault() {
        let err = GuardedUnsignedDivisor::<u32>::new(0).unwrap_err();
        assert_eq!(err.layer, FaultLayer::Plan);
        assert_eq!(err.kind, FaultKind::DivideByZero);
    }

    #[test]
    fn wrong_width_plans_are_a_typed_fault() -> Result<(), DivisorError> {
        // Probed or not, the guard refuses the plan with a fault.
        fn refused<K: GuardKernel>(plan: K::Plan) {
            let policy = GuardPolicy::default();
            for built in [
                Guarded::<K>::from_plan(&plan, &policy),
                Guarded::<K>::from_plan_unprobed(&plan, &policy),
            ] {
                let err = built.err().expect("width mismatch must be refused");
                assert_eq!(err.layer, FaultLayer::Guard);
                assert_eq!(err.kind, FaultKind::UnsupportedWidth { width: 64 });
            }
        }
        refused::<UnsignedDivisor<u32>>(UdivPlan::new(7, 64)?);
        refused::<SignedDivisor<i32>>(SdivPlan::new(-7, 64)?);
        refused::<FloorDivisor<i32>>(FloorPlan::new(-7, 64)?);
        refused::<ExactUnsignedDivisor<u32>>(ExactPlan::new_unsigned(12, 64)?);
        refused::<DwordDivisor<u32>>(DwordPlan::new(10, 64)?);
        // Right width, but the unsigned exact kernel runs no signed plan.
        let signed = ExactPlan::new_signed(12, 32)?;
        let err = GuardedExactDivisor::<u32>::from_plan(&signed, &GuardPolicy::default())
            .expect_err("a signed exact plan must be refused");
        assert_eq!(err.layer, FaultLayer::Guard);
        assert!(matches!(err.kind, FaultKind::BadProgram(_)), "{err}");
        Ok(())
    }

    /// One family's bit-flip campaign at one width: for d ∈ {3, 7, 10,
    /// 641} and every bit of the word, `corrupt(d, bit)` flips that bit
    /// of the magic constant. Returns how many corrupt plans the probe
    /// rejects and how many hardened guards demote, asserting on the way
    /// that every answer served for `cases(d)` is right.
    fn flips<K: GuardKernel>(
        corrupt: impl Fn(u128, u32) -> K::Plan,
        cases: impl Fn(u128) -> Vec<(K::Input, K::Output)>,
    ) -> [u32; 2]
    where
        K::Output: core::fmt::Debug,
    {
        let mut counts = [0, 0];
        for d in [3, 7, 10, 641] {
            for bit in 0..K::BITS {
                let bad = corrupt(d, bit);
                let probed = Guarded::<K>::from_plan(&bad, &GuardPolicy::default());
                counts[0] += u32::from(probed.is_err());
                let g = Guarded::<K>::from_plan_unprobed(&bad, &GuardPolicy::hardened(1))
                    .expect("a plan of the kernel's width and shape");
                for (n, want) in cases(d) {
                    assert_eq!(g.run(n), want, "{} w{} d={d} bit={bit}", K::SHAPE, K::BITS);
                }
                counts[1] += u32::from(g.state() == GuardState::Demoted);
            }
        }
        counts
    }

    /// A family's counts over its three widths.
    fn sum(widths: [[u32; 2]; 3]) -> [u32; 2] {
        let [a, b, c] = widths;
        [a[0] + b[0] + c[0], a[1] + b[1] + c[1]]
    }

    fn unsigned_flips() -> [u32; 2] {
        sum([
            unsigned_at::<u16>(),
            unsigned_at::<u32>(),
            unsigned_at::<u64>(),
        ])
    }

    fn unsigned_at<T: UWord>() -> [u32; 2] {
        let max = T::MAX.to_u128();
        flips::<UnsignedDivisor<T>>(
            |d, bit| UdivPlan::new(d, T::BITS).expect("plan").flip_bit(bit),
            |d| {
                let ns = [0, 1, d - 1, d, d + 1, max / 2, max / 2 + 1, max - 1, max];
                ns.map(|n| (T::from_u128_truncate(n), T::from_u128_truncate(n / d)))
                    .to_vec()
            },
        )
    }

    /// Boundary dividends around `±d` and the ends of the signed range,
    /// with `q(n)` as the right answer.
    fn signed_cases<S: SWord>(d: u128, q: fn(i128, i128) -> i128) -> Vec<(S, S)> {
        let (d, min, max) = (d as i128, S::MIN.to_i128(), S::MAX.to_i128());
        let around_d = [-d - 1, -d, -1, 0, 1, d - 1, d, d + 1];
        let word = S::from_i128_truncate;
        [min, min + 1, max - 1, max]
            .into_iter()
            .chain(around_d)
            .map(|n| (word(n), word(q(n, d))))
            .collect()
    }

    fn signed_flips() -> [u32; 2] {
        sum([signed_at::<i16>(), signed_at::<i32>(), signed_at::<i64>()])
    }

    fn signed_at<S: SWord>() -> [u32; 2] {
        use crate::plan::SdivStrategy::{MulAddShift, MulShift};
        flips::<SignedDivisor<S>>(
            |d, bit| {
                let mut plan = SdivPlan::new(d as i128, S::BITS).expect("plan");
                if let MulShift { m, .. }
                | MulAddShift {
                    m_minus_pow2n: m, ..
                } = &mut plan.strategy
                {
                    *m ^= 1 << bit;
                }
                plan
            },
            |d| signed_cases::<S>(d, |n, d| n / d),
        )
    }

    fn floor_flips() -> [u32; 2] {
        sum([floor_at::<i16>(), floor_at::<i32>(), floor_at::<i64>()])
    }

    fn floor_at<S: SWord>() -> [u32; 2] {
        use crate::plan::FloorStrategy::MulShift;
        flips::<FloorDivisor<S>>(
            |d, bit| {
                let mut plan = FloorPlan::new(d as i128, S::BITS).expect("plan");
                if let MulShift { m, .. } = &mut plan.strategy {
                    *m ^= 1 << bit;
                }
                plan
            },
            |d| signed_cases::<S>(d, i128::div_euclid),
        )
    }

    fn exact_flips() -> [u32; 2] {
        sum([exact_at::<u16>(), exact_at::<u32>(), exact_at::<u64>()])
    }

    fn exact_at<T: UWord>() -> [u32; 2] {
        let word = T::from_u128_truncate;
        flips::<ExactUnsignedDivisor<T>>(
            |d, bit| {
                let mut plan = ExactPlan::new_unsigned(d, T::BITS).expect("plan");
                plan.dinv ^= 1 << bit;
                plan
            },
            |d| {
                let qmax = T::MAX.to_u128() / d;
                let mut cases = Vec::new();
                for q in [0, 1, 2, qmax / 2, qmax - 1, qmax] {
                    let off = (q * d + 1) & T::MAX.to_u128();
                    cases.push(((ExactOp::Quotient, word(q * d)), word(q)));
                    cases.push(((ExactOp::Divides, word(q * d)), T::ONE));
                    cases.push(((ExactOp::Divides, word(off)), word((off % d == 0).into())));
                }
                cases
            },
        )
    }

    fn dword_flips() -> [u32; 2] {
        sum([dword_at::<u16>(), dword_at::<u32>(), dword_at::<u64>()])
    }

    fn dword_at<T: UWord>() -> [u32; 2] {
        let word = T::from_u128_truncate;
        flips::<DwordDivisor<T>>(
            |d, bit| {
                let mut plan = DwordPlan::new(d, T::BITS).expect("plan");
                plan.m_prime ^= 1 << bit;
                plan
            },
            |d| {
                let mut cases = Vec::new();
                for hi in [0, 1, d / 2, d - 1] {
                    for lo in [0, 1, d - 1, T::MAX.to_u128()] {
                        let n = (hi << T::BITS) | lo;
                        let answer = (word(n / d), word(n % d));
                        cases.push((DWord::from_parts(word(hi), word(lo)), answer));
                    }
                }
                cases
            },
        )
    }

    /// Flips every bit of each family's magic constant (`m`, `dinv` or
    /// `m_prime`) at w16/w32/w64. Every served answer must be right, and
    /// the counts of probe rejections and demotions are pinned: a change
    /// to any family's witness set, native reference or check moves them.
    ///
    /// The predicates reject every flip that is wrong anywhere, so
    /// rejections exceed demotions (which see only the boundary cases).
    /// Unsigned, signed and floor reject all 448: no flip of their
    /// multipliers is harmless at these divisors. Exact accepts 3, the top
    /// bit of `dinv` for `d = 10` at each width, which multiplies only
    /// even dividends and so never reaches the result. Doubleword rejects
    /// all 448: its predicate asks for Lemma 8.1's exact `m'`.
    #[test]
    fn every_family_probes_and_demotes_bit_flipped_constants() {
        // Thousands of induced demotions: keep the circuit closed so
        // every construction probes.
        fault_budget().set_limit(u64::MAX);
        let before = fault_budget().demotions();
        let got = [
            unsigned_flips(),
            signed_flips(),
            floor_flips(),
            exact_flips(),
            dword_flips(),
        ];
        // [probe rejections, demotions] of 448 flips — 4 divisors ×
        // (16 + 32 + 64) bits — for unsigned, signed, floor, exact, dword.
        let pinned = [[448, 441], [448, 440], [448, 440], [445, 445], [448, 439]];
        assert_eq!(got, pinned);
        let demoted: u32 = got.iter().map(|c| c[1]).sum();
        let charged = fault_budget().demotions() - before;
        assert!(
            charged >= u64::from(demoted),
            "every demotion charges the budget"
        );
    }

    /// For each plan: does the probe accept it, and is it right on every
    /// input? An exact predicate makes the two agree; a sound one only
    /// ever refuses extra plans. Returns how many right plans the probe
    /// refuses, and asserts every rejection of a wrong plan names a
    /// dividend it really gets wrong — except for doubleword, whose
    /// predicate names the top of the range without proving it wrong.
    fn refused_but_right<K: GuardKernel>(
        plans: Vec<K::Plan>,
        inputs: impl Fn(K::Word) -> Vec<K::Input>,
    ) -> u32
    where
        K::Plan: core::fmt::Debug,
    {
        let mut refused = 0;
        for plan in plans {
            let (kernel, d) = K::build(&plan).expect("a plan the kernel runs");
            let right = inputs(d)
                .into_iter()
                .filter(|&n| K::in_contract(d, n))
                .all(|n| kernel.planned(n) == K::native(d, n));
            match Guarded::<K>::from_plan(&plan, &GuardPolicy::default()) {
                Ok(_) => assert!(right, "{} accepted a wrong plan: {plan:?}", K::SHAPE),
                Err(_) if right => refused += 1,
                Err(fault) => match fault.kind {
                    FaultKind::SelfCheckFailed { got, want, .. } => {
                        let named = K::SHAPE == "dword" || got != want;
                        assert!(named, "{} witness for {plan:?}", K::SHAPE);
                    }
                    other => panic!("{other:?}"),
                },
            }
        }
        refused
    }

    fn all_u16(_: u16) -> Vec<u16> {
        (0..=u16::MAX).collect()
    }

    fn all_i16(_: i16) -> Vec<i16> {
        (i16::MIN..=i16::MAX).collect()
    }

    /// Every input of the exact kernel: both calls on every dividend.
    fn all_exact_inputs(_: u16) -> Vec<(ExactOp, u16)> {
        (0..=u16::MAX)
            .flat_map(|n| [(ExactOp::Quotient, n), (ExactOp::Divides, n)])
            .collect()
    }

    /// Every dividend the w8 doubleword kernel accepts: `HIGH(n) < d`.
    fn all_dword_inputs(d: u8) -> Vec<DWord<u8>> {
        (0..d)
            .flat_map(|hi| (0..=u8::MAX).map(move |lo| DWord::from_parts(hi, lo)))
            .collect()
    }

    /// Every plan one of `plans` becomes with one bit of one constant
    /// flipped ([`crate::testkit::flip_constant`]), as a `P`, keeping
    /// those its kernel can run: `MulAddShift` needs `sh_post >= 1`, the
    /// exact kernel `e < N` and the doubleword kernel `l <= N`.
    fn flipped<P: Copy + Into<DivPlan> + TryFrom<DivPlan>>(
        plans: impl IntoIterator<Item = P>,
    ) -> Vec<P> {
        use crate::plan::UdivStrategy::MulAddShift;
        let runnable = |plan: &DivPlan| match plan {
            DivPlan::Unsigned(p) => !matches!(p.strategy, MulAddShift { sh_post: 0, .. }),
            DivPlan::Exact(p) => p.e < p.width,
            DivPlan::Dword(p) => p.l <= p.width,
            _ => true,
        };
        let mut out = Vec::new();
        for plan in plans.into_iter().map(Into::into) {
            for field in 0..5 {
                for bit in 0..plan.width() {
                    let flip = crate::testkit::flip_constant(plan, field, bit);
                    out.extend(flip.filter(runnable).and_then(|p| P::try_from(p).ok()));
                }
            }
        }
        out
    }

    /// Flips every bit of every constant of every family — at w16, and
    /// at w8 for doubleword, where the dividends are 16 bits — and
    /// compares the probe's verdict with exhaustive evaluation. The
    /// unsigned, signed, floor and exact predicates are exact on these
    /// flips: the probe refuses a plan iff some input gets a wrong
    /// answer. The doubleword predicate is sound, not exact: it asks for
    /// Lemma 8.1's constants, and the kernel's correction step absorbs
    /// many others. Of the doubleword flips it refuses 1552 right ones:
    /// 1513 of `d_norm` (which only feeds the quotient estimate), 31 of
    /// `m'` and 8 of `d`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "~100M kernel calls: a second in release")]
    fn probe_verdict_matches_exhaustive_evaluation() {
        fault_budget().set_limit(u64::MAX);
        let exact = |refused: u32, family: &str| assert_eq!(refused, 0, "{family}");
        let unsigned = [3u128, 7, 10, 641, 1000, 32_769, 60_000, 65_535];
        let plans = flipped(unsigned.map(|d| UdivPlan::new(d, 16).expect("plan")));
        exact(
            refused_but_right::<UnsignedDivisor<u16>>(plans, all_u16),
            "unsigned",
        );
        let signed = [3i128, -3, 7, -7, 10, -10, 641, -641, 1000, 32_767, -32_767];
        let plans = flipped(signed.map(|d| SdivPlan::new(d, 16).expect("plan")));
        exact(
            refused_but_right::<SignedDivisor<i16>>(plans, all_i16),
            "signed",
        );
        // Positive divisors take Fig 6.1; negative ones a trunc plan, whose
        // constants are flipped too.
        let floor = [
            3i128, 7, 10, 641, 1000, 32_767, -3, -7, -10, -641, -1000, -32_767,
        ];
        let plans = flipped(floor.map(|d| FloorPlan::new(d, 16).expect("plan")));
        exact(
            refused_but_right::<FloorDivisor<i16>>(plans, all_i16),
            "floor",
        );
        let exact_ds = [3u128, 7, 10, 12, 641, 1000, 40_000];
        let exact_plans = exact_ds.map(|d| ExactPlan::new_unsigned(d, 16).expect("plan"));
        let plans = flipped(exact_plans);
        exact(
            refused_but_right::<ExactUnsignedDivisor<u16>>(plans, all_exact_inputs),
            "exact",
        );
        let dword = (1..=255).map(|d| DwordPlan::new(d, 8).expect("plan"));
        let plans = flipped(dword);
        let dword_refused = refused_but_right::<DwordDivisor<u8>>(plans, all_dword_inputs);
        assert_eq!(dword_refused, 1552, "dword");
    }

    /// `[witnesses, proved, ok]` of the one `guard.probe` event that
    /// `from_plan` emits for `plan`.
    fn probe_event<K: GuardKernel>(plan: &K::Plan) -> [u64; 3] {
        use magicdiv_trace::{install, CaptureSink};
        let capture = std::sync::Arc::new(CaptureSink::new());
        {
            let _g = install(capture.clone());
            let _ = Guarded::<K>::from_plan(plan, &GuardPolicy::default());
        }
        let events = capture.named("guard.probe");
        assert_eq!(events.len(), 1, "one probe event per construction");
        ["witnesses", "proved", "ok"].map(|key| {
            let value = events[0].get(key).and_then(magicdiv_trace::Value::as_u64);
            value.expect("integer field")
        })
    }

    /// The probe event counts the boundary witnesses that actually ran,
    /// per family, and says whether the predicate proved the plan.
    #[test]
    fn probe_event_counts_the_witnesses_run_and_the_proof() -> Result<(), DivisorError> {
        fault_budget().set_limit(u64::MAX);
        let ok = |witnesses| [witnesses, 1, 1];
        assert_eq!(
            probe_event::<UnsignedDivisor<u32>>(&UdivPlan::new(7, 32)?),
            ok(10)
        );
        assert_eq!(
            probe_event::<SignedDivisor<i32>>(&SdivPlan::new(-7, 32)?),
            ok(11)
        );
        assert_eq!(
            probe_event::<FloorDivisor<i32>>(&FloorPlan::new(10, 32)?),
            ok(10)
        );
        // Five probe quotients, each with `q·d`, as a quotient and a
        // verdict, and the non-multiple `q·d + 1`.
        let exact = ExactPlan::new_unsigned(12, 32)?;
        assert_eq!(probe_event::<ExactUnsignedDivisor<u32>>(&exact), ok(15));
        // Four high words below d = 10, four low words each.
        assert_eq!(
            probe_event::<DwordDivisor<u32>>(&DwordPlan::new(10, 32)?),
            ok(16)
        );
        // Division by 8 for d = 7 first errs at the fourth witness, d
        // itself, and the predicate refuses it too.
        let shift = UdivPlan::from_raw(7, 32, crate::plan::UdivStrategy::Shift { sh: 3 });
        assert_eq!(probe_event::<UnsignedDivisor<u32>>(&shift), [4, 0, 0]);
        // Some multiplier flips pass all ten boundary witnesses: only the
        // proof refuses them.
        let mut proof_only = 0;
        for d in [3, 7, 10, 641] {
            let good = UdivPlan::new(d, 64)?;
            for bit in 0..64 {
                let event = probe_event::<UnsignedDivisor<u64>>(&good.flip_bit(bit));
                proof_only += u32::from(event == [10, 0, 0]);
            }
        }
        assert!(proof_only > 0, "no flip needed the proof");
        Ok(())
    }

    /// For one caller, hardened mode checks exactly calls `0, k, 2k, …`:
    /// after `calls` right answers, the first wrong one is caught (served
    /// native, and the guard demotes) iff `calls % k == 0`.
    #[test]
    fn hardened_checks_exactly_every_kth_call() {
        fault_budget().set_limit(u64::MAX);
        // Division by 8 for d = 7: right on 0, wrong on 7.
        let bad = UdivPlan::from_raw(7, 32, crate::plan::UdivStrategy::Shift { sh: 3 });
        for k in [1u64, 2, 3, 16, 1000] {
            for calls in 0..3 * k + 2 {
                let g = GuardedUnsignedDivisor::<u32>::from_plan_unprobed(
                    &bad,
                    &GuardPolicy::hardened(k),
                )
                .expect("a w32 unsigned plan");
                for _ in 0..calls {
                    assert_eq!(g.divide(0), 0);
                }
                let sampled = calls % k == 0;
                let (served, state) = if sampled {
                    (1, GuardState::Demoted)
                } else {
                    (0, GuardState::Hardened)
                };
                assert_eq!(g.divide(7), served, "k={k} calls={calls}");
                assert_eq!(g.state(), state, "k={k} calls={calls}");
            }
        }
    }

    /// Four threads, released together, share one `hardened(16)` guard
    /// over a plan wrong on every input they send. Racing on the
    /// countdown may repeat or skip a sample but never stops sampling, so
    /// the guard ends demoted.
    #[test]
    fn racing_callers_still_sample_and_demote() {
        fault_budget().set_limit(u64::MAX);
        // The identity for d = 7: wrong on every nonzero dividend.
        let bad = UdivPlan::from_raw(7, 32, crate::plan::UdivStrategy::Identity);
        let g = GuardedUnsignedDivisor::<u32>::from_plan_unprobed(&bad, &GuardPolicy::hardened(16))
            .expect("a w32 unsigned plan");
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    for n in 1..=10_000u32 {
                        let _ = g.divide(n);
                    }
                });
            }
        });
        assert_eq!(g.state(), GuardState::Demoted);
        assert_eq!(g.divide(700), 100);
    }

    #[test]
    fn budget_check_is_typed() {
        let b = FaultBudget::with_limit(2);
        assert!(b.check().is_ok());
        b.record_demotion();
        b.record_demotion();
        let err = b.check().unwrap_err();
        assert_eq!(err.layer, FaultLayer::Guard);
        assert_eq!(err.kind, FaultKind::FaultBudgetExhausted { limit: 2 });
        b.reset();
        assert!(b.check().is_ok());
    }
}
