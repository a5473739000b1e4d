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
//! * **Verified** — construction ran a self-verification probe (boundary
//!   plus seeded-random witnesses, each checked against native
//!   division); execution trusts the plan with zero per-call overhead;
//! * **Hardened** — execution additionally cross-checks every
//!   `sample_every`-th quotient against native division;
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
//! call, native reference and witness set through [`GuardKernel`].
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

/// How a guarded divisor is constructed and executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardPolicy {
    /// Seeded-random witnesses the construction probe adds to the
    /// boundary set.
    pub probe_witnesses: u32,
    /// Cross-check every `sample_every`-th call in hardened mode;
    /// `0` disables runtime checks (the divisor starts Verified),
    /// `1` checks every call.
    pub sample_every: u64,
    /// Seed for the probe's witness generator (deterministic).
    pub seed: u64,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy {
            probe_witnesses: 16,
            sample_every: 0,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl GuardPolicy {
    /// The hardened preset: probe at construction, then cross-check
    /// every `sample_every`-th quotient at runtime.
    pub fn hardened(sample_every: u64) -> Self {
        GuardPolicy {
            sample_every: sample_every.max(1),
            ..GuardPolicy::default()
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

/// splitmix64 — the same tiny deterministic generator the bench harness
/// uses, reimplemented here so the core crate stays dependency-free.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 128-bit witness from two splitmix draws.
fn splitmix128(state: &mut u64) -> u128 {
    (u128::from(splitmix(state)) << 64) | u128::from(splitmix(state))
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

/// `count` seeded-random 128-bit probe witnesses for the divisor whose
/// bit pattern is `d_bits`; each family truncates them to its word.
fn random_witnesses(policy: &GuardPolicy, d_bits: u128, count: u32) -> impl Iterator<Item = u128> {
    let mut rng = policy.seed ^ d_bits as u64;
    (0..count).map(move |_| splitmix128(&mut rng))
}

/// What one divisor family contributes to [`Guarded`]: its plan, the
/// kernel call, the native reference and the probe's witness set. The
/// probe, the sampled cross-check and the demotion are [`Guarded`]'s.
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
    fn build(plan: &Self::Plan) -> (Self, Self::Word);

    /// The answer computed from the plan's (possibly corrupt) constants.
    fn planned(&self, n: Self::Input) -> Self::Output;

    /// The answer computed without the plan's constants.
    fn native(d: Self::Word, n: Self::Input) -> Self::Output;

    /// Whether the cross-check applies to `n`: a kernel whose contract
    /// covers only some inputs is not checked on the others.
    fn in_contract(_d: Self::Word, _n: Self::Input) -> bool {
        true
    }

    /// The probe's witnesses: a boundary set, then seeded-random inputs.
    fn witnesses(d: Self::Word, policy: &GuardPolicy) -> Vec<Self::Input>;

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
    calls: AtomicU64,
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
/// [`DwordDivisor`] under the guard (§8). The native reference is the
/// portable shift-subtract division of [`magicdiv_dword`], which is
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
    /// word's; [`FaultKind::SelfCheckFailed`] when any probe witness
    /// gets a wrong answer — the typical symptom of a corrupted constant.
    /// Both at [`FaultLayer::Guard`].
    pub fn from_plan(plan: &K::Plan, policy: &GuardPolicy) -> Result<Self, Fault> {
        let width = Into::<DivPlan>::into(*plan).width();
        if width != K::BITS {
            return Err(guard_fault(FaultKind::UnsupportedWidth { width }));
        }
        let this = Self::from_plan_unprobed(plan, policy);
        if this.state() == GuardState::Demoted {
            return Ok(this); // circuit open: native division, no probe
        }
        let outcome = this.probe(policy);
        magicdiv_trace::event!("guard.probe",
            "shape" => K::SHAPE,
            "width" => K::BITS,
            "witnesses" => policy.probe_witnesses,
            "ok" => if outcome.is_ok() { 1u32 } else { 0u32 });
        outcome.map(|()| this)
    }

    /// Wraps a plan *without* probing it — the entry point
    /// fault-injection harnesses use to smuggle corrupted constants past
    /// construction so the runtime cross-check path can be exercised.
    ///
    /// # Panics
    ///
    /// Panics when the plan's width is not the word's.
    pub fn from_plan_unprobed(plan: &K::Plan, policy: &GuardPolicy) -> Self {
        let (kernel, d) = K::build(plan);
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
            calls: AtomicU64::new(0),
            sample_every: policy.sample_every,
        }
    }

    fn probe(&self, policy: &GuardPolicy) -> Result<(), Fault> {
        for n in K::witnesses(self.d, policy) {
            let got = self.kernel.planned(n);
            let want = K::native(self.d, n);
            if got != want {
                return Err(K::mismatch(n, got, want));
            }
        }
        Ok(())
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
        if self.state.load(Ordering::Acquire) == STATE_DEMOTED {
            return K::native(self.d, n);
        }
        let got = self.kernel.planned(n);
        if self.should_check() && K::in_contract(self.d, n) {
            let want = K::native(self.d, n);
            if got != want {
                self.demote(&K::mismatch(n, got, want));
                return want;
            }
        }
        got
    }

    /// Whether this call should be cross-checked (hardened mode only).
    fn should_check(&self) -> bool {
        if self.state.load(Ordering::Acquire) != STATE_HARDENED {
            return false;
        }
        let c = self.calls.fetch_add(1, Ordering::Relaxed);
        self.sample_every == 1 || c % self.sample_every == 0
    }

    /// Transitions to Demoted, charges the budget, emits the typed
    /// `guard.demotion` event carrying the offending divisor key `d`
    /// (the flight recorder's black-box dumps key on it).
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

    fn build(plan: &UdivPlan) -> (Self, T) {
        let kernel = UnsignedDivisor::from_plan(plan);
        (kernel, kernel.divisor())
    }

    fn planned(&self, n: T) -> T {
        self.divide(n)
    }

    fn native(d: T, n: T) -> T {
        n.checked_div(d).unwrap_or(T::ZERO) // d != 0 by construction
    }

    fn witnesses(d: T, policy: &GuardPolicy) -> Vec<T> {
        let half = T::MAX.shr_full(1);
        let mut ws = vec![
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
        ];
        let random = random_witnesses(policy, d.to_u128(), policy.probe_witnesses);
        ws.extend(random.map(T::from_u128_truncate));
        ws
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

/// Native truncating division with hardware wrap on `MIN / -1`.
fn native_trunc<S: SWord>(n: S, d: S) -> S {
    if n == S::MIN && d == S::MINUS_ONE {
        return S::MIN;
    }
    S::from_i128_truncate(n.to_i128() / d.to_i128())
}

/// Native floor division with hardware wrap on `MIN / -1`.
fn native_floor<S: SWord>(n: S, d: S) -> S {
    if n == S::MIN && d == S::MINUS_ONE {
        return S::MIN;
    }
    let (ni, di) = (n.to_i128(), d.to_i128());
    let q = ni / di;
    let r = ni % di;
    if r != 0 && (r < 0) != (di < 0) {
        S::from_i128_truncate(q - 1)
    } else {
        S::from_i128_truncate(q)
    }
}

/// The signed families' boundary witnesses (`MAX − 1` only for trunc),
/// then the seeded-random draws.
fn signed_witnesses<S: SWord>(d: S, policy: &GuardPolicy, max_minus_one: bool) -> Vec<S> {
    let mut ws = vec![
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
    if max_minus_one {
        ws.push(S::MAX.wrapping_sub(S::ONE));
    }
    let random = random_witnesses(policy, d.as_unsigned().to_u128(), policy.probe_witnesses);
    ws.extend(random.map(|x| S::from_unsigned(<S::Unsigned as Limb>::from_u128_truncate(x))));
    ws
}

/// The two signed families differ only in their plan, kernel, native
/// reference and whether `MAX − 1` is a boundary witness.
macro_rules! signed_kernel {
    ($kernel:ident, $plan:ident, $shape:literal, $native:ident, $max_minus_one:literal) => {
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

            fn build(plan: &$plan) -> (Self, S) {
                let kernel = $kernel::from_plan(plan);
                (kernel, kernel.divisor())
            }

            fn planned(&self, n: S) -> S {
                self.divide(n)
            }

            fn native(d: S, n: S) -> S {
                $native(n, d)
            }

            fn witnesses(d: S, policy: &GuardPolicy) -> Vec<S> {
                signed_witnesses(d, policy, $max_minus_one)
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

signed_kernel!(SignedDivisor, SdivPlan, "signed", native_trunc, true);
signed_kernel!(FloorDivisor, FloorPlan, "floor", native_floor, false);

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

    /// # Panics
    ///
    /// Panics when the plan is signed.
    fn build(plan: &ExactPlan) -> (Self, T) {
        let kernel = ExactUnsignedDivisor::from_plan(plan);
        (kernel, kernel.divisor())
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

    /// For each probe quotient `q`: the exact quotient of `q·d`, the
    /// verdict that `d | q·d`, and — unless `d == 1` or it wraps to a
    /// multiple — the verdict that `d ∤ q·d + 1`.
    fn witnesses(d: T, policy: &GuardPolicy) -> Vec<(ExactOp, T)> {
        let qmax = T::MAX.checked_div(d).unwrap_or(T::ZERO);
        let span = qmax.wrapping_add(T::ONE);
        let random = random_witnesses(policy, d.to_u128(), policy.probe_witnesses).map(|r| {
            let q = T::from_u128_truncate(r);
            if qmax == T::ZERO {
                T::ZERO
            } else {
                q.wrapping_sub(q.checked_div(span).unwrap_or(T::ZERO).wrapping_mul(span))
            }
        });
        let boundary = [
            T::ZERO,
            T::ONE,
            qmax,
            qmax.shr_full(1),
            qmax.wrapping_sub(T::ONE),
        ];
        let mut ws = Vec::new();
        for q in boundary.into_iter().chain(random) {
            let n = if q > qmax { qmax } else { q }.wrapping_mul(d);
            ws.extend([(ExactOp::Quotient, n), (ExactOp::Divides, n)]);
            let off = n.wrapping_add(T::ONE);
            if d != T::ONE && native_rem(d, off) != T::ZERO {
                ws.push((ExactOp::Divides, off));
            }
        }
        ws
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

    fn build(plan: &DwordPlan) -> (Self, T) {
        let kernel = DwordDivisor::from_plan(plan);
        (kernel, kernel.divisor())
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

    fn witnesses(d: T, policy: &GuardPolicy) -> Vec<DWord<T>> {
        let random = random_witnesses(policy, d.to_u128(), policy.probe_witnesses.div_ceil(4));
        let his = [T::ZERO, T::ONE, d.shr_full(1), d.wrapping_sub(T::ONE)];
        let los = [T::ZERO, T::ONE, T::MAX, d.wrapping_sub(T::ONE)];
        his.into_iter()
            .chain(random.map(T::from_u128_truncate))
            .filter(|&hi| hi < d)
            .flat_map(|hi| los.map(|lo| DWord::from_parts(hi, lo)))
            .collect()
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
        fn refused<K: GuardKernel>(plan: K::Plan) {
            let built = Guarded::<K>::from_plan(&plan, &GuardPolicy::default());
            let err = built.err().expect("width mismatch must be refused");
            assert_eq!(err.layer, FaultLayer::Guard);
            assert_eq!(err.kind, FaultKind::UnsupportedWidth { width: 64 });
        }
        refused::<UnsignedDivisor<u32>>(UdivPlan::new(7, 64)?);
        refused::<SignedDivisor<i32>>(SdivPlan::new(-7, 64)?);
        refused::<FloorDivisor<i32>>(FloorPlan::new(-7, 64)?);
        refused::<ExactUnsignedDivisor<u32>>(ExactPlan::new_unsigned(12, 64)?);
        refused::<DwordDivisor<u32>>(DwordPlan::new(10, 64)?);
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
                let g = Guarded::<K>::from_plan_unprobed(&bad, &GuardPolicy::hardened(1));
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
        let pinned = [[446, 441], [442, 440], [442, 440], [445, 445], [439, 439]];
        assert_eq!(got, pinned);
        let demoted: u32 = got.iter().map(|c| c[1]).sum();
        let charged = fault_budget().demotions() - before;
        assert!(
            charged >= u64::from(demoted),
            "every demotion charges the budget"
        );
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
