//! # magicdiv — Division by Invariant Integers using Multiplication
//!
//! A faithful, complete implementation of **Granlund & Montgomery,
//! "Division by Invariant Integers using Multiplication" (PLDI 1994)**:
//! replacing integer division by a constant or run-time invariant divisor
//! with a multiplication by a precomputed "magic" reciprocal plus a few
//! cheap instructions, on any two's-complement word width from 8 to 128
//! bits.
//!
//! ## What's here
//!
//! | Paper section | API |
//! |---|---|
//! | §4 unsigned division | [`UnsignedDivisor`] (Fig 4.2 constant strategy), [`InvariantUnsignedDivisor`] (Fig 4.1 branch-free) |
//! | §5 signed, round toward zero | [`SignedDivisor`] (Fig 5.2), [`InvariantSignedDivisor`] (Fig 5.1) |
//! | §6 signed, round toward −∞ | [`FloorDivisor`] (Fig 6.1), [`floor_div_via_trunc`], [`ceil_div_via_trunc`], [`mod_positive`] |
//! | §6.2 multiplier selection | [`choose_multiplier_at`] (Fig 6.2 as one `const fn` for `N <= 64`), [`choose_multiplier`] (typed, fallible; doubleword at `N = 128`) |
//! | strategy selection (all of the above) | [`plan`]: [`UdivPlan`], [`SdivPlan`], [`FloorPlan`], [`ExactPlan`], [`UremPlan`], [`DivisibilityPlan`], [`DivPlan`] |
//! | planner tournament (candidate families beyond the paper) | [`candidates`], [`tournament`]: [`run_udiv_tournament`], [`run_urem_tournament`]; the winner's plan goes to `from_plan` |
//! | §10 compile-time constants | [`ConstU32Divisor`], [`ConstU64Divisor`] (`const fn` Fig 4.2 into a [`UdivStrategy`]) |
//! | §7 floating point | [`trunc_div_f64`], [`unsigned_div_f64`] |
//! | §8 udword ÷ uword | [`DwordDivisor`] (Fig 8.1) |
//! | §9 exact division & divisibility | [`ExactUnsignedDivisor`], [`ExactSignedDivisor`], [`DivisibilityScanner`], [`mod_inverse_newton`], [`mod_inverse_bitwise`] |
//!
//! ## Quickstart
//!
//! ```
//! use magicdiv::{SignedDivisor, UnsignedDivisor};
//!
//! // Hoist the reciprocal out of the loop...
//! let by10 = UnsignedDivisor::<u32>::new(10)?;
//! let mut digits = Vec::new();
//! let mut x = 718_281_828u32;
//! while x != 0 {
//!     let (q, r) = by10.div_rem(x);   // no divide instruction
//!     digits.push(b'0' + r as u8);
//!     x = q;
//! }
//! digits.reverse();
//! assert_eq!(digits, b"718281828");
//!
//! // Signed divisors round toward zero, like C:
//! let by_neg3 = SignedDivisor::<i64>::new(-3)?;
//! assert_eq!(by_neg3.divide(7), -2);
//! # Ok::<(), magicdiv::DivisorError>(())
//! ```
//!
//! ## Design notes
//!
//! * Strategy selection lives in one place: the [`plan`] module. Every
//!   divisor's `new` builds a width-erased plan ([`UdivPlan`] & friends)
//!   and caches its constants at the native word type; the code
//!   generators in `magicdiv-codegen` and the cycle estimator in
//!   `magicdiv-simcpu` consume the *same* plans, so the layers cannot
//!   disagree about which sequence a divisor gets.
//! * Every divisor type precomputes its constants once (`new`) and then
//!   divides with straight-line integer code — one `MULUH`/`MULSH`, a few
//!   adds and shifts, exactly the operation counts the paper reports.
//! * All algorithms are generic over the machine word via [`UWord`] /
//!   [`SWord`]; `u128`/`i128` work too, using the portable doubleword
//!   arithmetic of [`magicdiv_dword`] where no wider native type exists.
//! * `MIN / -1` wraps (like the paper's code and like hardware);
//!   `checked_*` variants detect it.
//! * Division by zero is rejected at divisor construction
//!   ([`DivisorError::Zero`]) — there is no runtime zero check on the
//!   divide fast path, matching compiler usage.

// This repository *reimplements division*: clippy's suggestions to use the
// standard division helpers (div_ceil, is_multiple_of, ...) would replace
// the very algorithms under study.
#![allow(clippy::manual_div_ceil, clippy::manual_is_multiple_of)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod candidates;
mod choose_multiplier;
mod const_divisor;
mod error;
mod exact;
mod float;
mod floor;
pub mod guard;
pub mod plan;
mod signed;
pub mod testkit;
pub mod tournament;
mod udword_div;
mod unsigned;
pub mod validity;
mod word;

pub use crate::cache::{global_plan_cache, CacheStats, PlanCache};
pub use crate::candidates::{
    unsigned_generators, urem_candidates, Candidate, CandidateGen, CandidateSource,
};
pub use crate::choose_multiplier::{choose_multiplier, choose_multiplier_at, ChosenMultiplier};
pub use crate::const_divisor::{ConstU32Divisor, ConstU64Divisor};
pub use crate::error::{DivisorError, DwordDivError, Fault, FaultKind, FaultLayer};
pub use crate::exact::{
    mod_inverse_bitwise, mod_inverse_newton, DivisibilityScanner, ExactSignedDivisor,
    ExactUnsignedDivisor,
};
pub use crate::float::{trunc_div_f64, unsigned_div_f64, MAX_EXACT_BITS_F64};
pub use crate::floor::{ceil_div_via_trunc, floor_div_via_trunc, mod_positive, FloorDivisor};
pub use crate::guard::{
    fault_budget, FaultBudget, GuardKernel, GuardPolicy, GuardState, Guarded, GuardedDwordDivisor,
    GuardedExactDivisor, GuardedFloorDivisor, GuardedSignedDivisor, GuardedUnsignedDivisor,
};
pub use crate::plan::{
    DivPlan, DivisibilityPlan, ExactPlan, FloorPlan, SdivPlan, SdivStrategy, UdivPlan,
    UdivStrategy, UremPlan,
};
pub use crate::signed::{InvariantSignedDivisor, SignedDivisor};
pub use crate::tournament::{
    certify_plan, run_udiv_tournament, run_urem_tournament, ArithmeticCertifier, Certification,
    LossReason, OpCountScorer, Outcome, PlanCertifier, PlanScorer, Probes, ScoredCandidate,
    TournamentResult,
};
pub use crate::udword_div::DwordDivisor;
pub use crate::unsigned::{InvariantUnsignedDivisor, UnsignedDivisor};
pub use crate::word::{SWord, UWord};

// Re-export the doubleword substrate: DwordDivisor takes DWord dividends.
pub use magicdiv_dword::{DWord, Limb};

/// Convenience alias: unsigned 32-bit magic divisor.
pub type MagicU32 = UnsignedDivisor<u32>;
/// Convenience alias: unsigned 64-bit magic divisor.
pub type MagicU64 = UnsignedDivisor<u64>;
/// Convenience alias: signed 32-bit magic divisor (round toward zero).
pub type MagicI32 = SignedDivisor<i32>;
/// Convenience alias: signed 64-bit magic divisor (round toward zero).
pub type MagicI64 = SignedDivisor<i64>;
