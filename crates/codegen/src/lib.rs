//! # magicdiv-codegen — the compiler side of the paper (§10–§11)
//!
//! Granlund & Montgomery implemented their division-by-invariant-integers
//! algorithms inside GCC 2.6. This crate reproduces that half of the work
//! on top of [`magicdiv_ir`]:
//!
//! * **Division code generation** — [`gen_unsigned_div`] (Fig 4.2),
//!   [`gen_unsigned_div_invariant`] (Fig 4.1), [`gen_signed_div`]
//!   (Fig 5.2), [`gen_floor_div`] (Fig 6.1), remainders by multiply-back,
//!   [`gen_exact_div`] and [`gen_divisibility_test`] (§9), plus
//!   hardware-division baselines for the simulator.
//!
//!   Strategy selection is **not** performed here: each generator builds
//!   a `magicdiv::plan` plan (`UdivPlan`, `SdivPlan`, `FloorPlan`,
//!   `ExactPlan`, …) and lowers it with [`magicdiv_ir::lower_plan`] — the
//!   same plans the runtime divisor types cache, so generated code and
//!   library divisors always agree on the code shape. An already-selected
//!   plan (a tournament winner, say) needs no generator: lower it with
//!   `lower_plan` and run [`magicdiv_ir::optimize`].
//!
//!   | Generator | Plan | `lower_plan` dispatches to |
//!   |---|---|---|
//!   | [`gen_unsigned_div`] / [`emit_unsigned_div`] | `UdivPlan` | [`magicdiv_ir::lower_udiv`] |
//!   | [`gen_signed_div`] / [`emit_signed_div`] | `SdivPlan` | [`magicdiv_ir::lower_sdiv`] |
//!   | [`gen_floor_div`] | `FloorPlan` | [`magicdiv_ir::lower_floor_div`] |
//!   | [`gen_exact_div`] | `ExactPlan` | [`magicdiv_ir::lower_exact_div`] |
//!   | [`gen_urem_direct`] / [`gen_unsigned_rem`] | `UremPlan` | [`magicdiv_ir::lower_urem`] |
//!   | [`gen_divisibility_test`] | `DivisibilityPlan` | [`magicdiv_ir::lower_divisibility`] |
//!   | [`gen_dword_div`] | `DwordPlan` | [`magicdiv_ir::lower_dword_div`] |
//!
//!   The `emit_*` forms call the family lowering directly, to embed one
//!   division in a larger program.
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
//! use magicdiv_codegen::{emit_radix_loop, gen_unsigned_div, Target};
//!
//! // The Table 11.1 kernel: x / 10 with no divide instruction.
//! let prog = gen_unsigned_div(10, 32);
//! assert_eq!(prog.eval1(&[1994]).unwrap(), 199);
//!
//! // And the full per-target loop listing.
//! let asm = emit_radix_loop(Target::Sparc, true);
//! assert!(!asm.uses_divide());
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
    emit_signed_div, emit_unsigned_div, gen_divisibility_test, gen_dword_div, gen_exact_div,
    gen_floor_div, gen_signed_div, gen_signed_div_hw, gen_signed_div_invariant, gen_unsigned_div,
    gen_unsigned_div_hw, gen_unsigned_div_invariant, gen_unsigned_divrem, gen_unsigned_divrem_hw,
    gen_unsigned_rem, gen_urem_direct,
};
pub use crate::machine::{gen_unsigned_div_tuned, MachineDesc};
pub use crate::mulconst::{
    emit_mul_const, expansion_profitable, plan_mul_const, plan_op_count, MulStep,
};
pub use crate::radix::{emit_radix_loop, radix_body, RadixStyle};
pub use crate::targets::{
    emit_assembly, emit_body, Assembly, EmittedBody, Ins, Line, Operand, Target,
};
