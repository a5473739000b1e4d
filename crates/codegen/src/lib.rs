//! # magicdiv-codegen — the compiler side of the paper (§10–§11)
//!
//! Granlund & Montgomery implemented their division-by-invariant-integers
//! algorithms inside GCC 2.6. This crate reproduces that half of the work
//! on top of [`magicdiv_ir`]:
//!
//! * **Division code generation** — the code for one constant divisor
//!   is its `magicdiv::plan` plan (`UdivPlan` for Fig 4.2, `SdivPlan` for
//!   Fig 5.2, `FloorPlan` for Fig 6.1, `ExactPlan` and
//!   `DivisibilityPlan` for §9, `UremPlan`, `DwordPlan` for Fig 8.1)
//!   compiled by [`magicdiv_ir::compile`] — the same plans the runtime
//!   divisor types cache, so generated code and library divisors always
//!   agree on the code shape. This crate adds what is not one plan: the
//!   run-time-invariant forms [`gen_unsigned_div_invariant`] (Fig 4.1)
//!   and [`gen_signed_div_invariant`] (Fig 5.1), the quotient-and-remainder
//!   pair [`gen_unsigned_divrem`], the machine-tuned
//!   [`gen_unsigned_div_tuned`], and hardware-division baselines for the
//!   simulator. To embed one division in a larger program, call the
//!   family lowering ([`magicdiv_ir::lower_udiv`] and friends).
//! * **Multiplication by constants** — [`plan_mul_const`] /
//!   [`emit_mul_const`], the Bernstein-style shift/add/sub expansion the
//!   Alpha column of Table 11.1 relies on.
//! * **Target backends** — [`emit_assembly`] / [`emit_radix_loop`] for
//!   the four Table 11.1 architectures (Alpha, MIPS, POWER, SPARC),
//!   reproducing the shape of the paper's listings: no divide
//!   instruction, `multu`/`mfhi`, `umul`/`rd %y`, scaled adds.
//!
//! Every generated program is verified against the IR interpreter and
//! native division (exhaustively at width 8) in the test suites.
//!
//! # Examples
//!
//! ```
//! use magicdiv::plan::UdivPlan;
//! use magicdiv_codegen::{emit_assembly, emit_radix_loop, Target};
//! use magicdiv_ir::compile;
//!
//! // The Table 11.1 kernel: x / 10 with no divide instruction.
//! let prog = compile(UdivPlan::new(10, 32)?)?;
//! assert_eq!(prog.eval1(&[1994])?, 199);
//! assert!(!emit_assembly(&prog, Target::Mips, "div10").uses_divide());
//!
//! // And the full per-target loop listing.
//! let asm = emit_radix_loop(Target::Sparc, true);
//! assert!(!asm.uses_divide());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// This repository *reimplements division*: clippy's suggestions to use the
// standard division helpers (div_ceil, is_multiple_of, ...) would replace
// the very algorithms under study.
#![allow(clippy::manual_div_ceil, clippy::manual_is_multiple_of)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asmexec;
mod divgen;
mod machine;
mod mulconst;
mod radix;
mod targets;

pub use crate::asmexec::{
    execute_radix_listing, execute_radix_listing_with_limit, AsmError, AsmErrorKind,
    DEFAULT_STEP_LIMIT,
};
pub use crate::divgen::{
    gen_signed_div_hw, gen_signed_div_invariant, gen_unsigned_div_hw, gen_unsigned_div_invariant,
    gen_unsigned_divrem, gen_unsigned_divrem_hw,
};
pub use crate::machine::{gen_unsigned_div_tuned, MachineDesc};
pub use crate::mulconst::{
    emit_mul_const, expansion_profitable, plan_mul_const, plan_op_count, MulStep,
};
pub use crate::radix::{emit_radix_loop, radix_body, RadixStyle};
pub use crate::targets::{
    emit_assembly, emit_body, Assembly, EmittedBody, Ins, Line, Operand, Target,
};
