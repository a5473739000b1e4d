//! # magicdiv-ir — a tiny compiler IR over the paper's operation set
//!
//! Granlund & Montgomery implemented their algorithms inside GCC's
//! machine-independent code generation (§10). This crate is the equivalent
//! substrate for the reproduction: a straight-line SSA IR whose
//! instruction set is exactly the paper's Table 3.1 (`MULUH`, `MULSH`,
//! `MULL`, shifts, bit-ops, `XSIGN`, …) plus constants, arguments,
//! compares, and hardware division for baselines.
//!
//! * [`Builder`] / [`Program`] — construct and inspect programs;
//! * [`Program::eval_lanes`] — a bit-accurate interpreter at any width ≤ 64
//!   that runs a batch of inputs column by column ([`Program::eval`] and
//!   [`Program::eval1`] are its one-input calls),
//!   the oracle against which generated code is verified;
//! * [`optimize`] — constant folding, algebraic simplification, CSE and
//!   DCE (the "obvious simplifications" §3 asks of the optimizer);
//! * [`lower_plan`] — lower any [`magicdiv::plan`] division plan to the
//!   matching Table 3.1 sequence ([`lower_udiv`] and friends embed one
//!   family's sequence in a larger program);
//! * [`OpCounts`] — per-class operation counts, matching how the paper
//!   reports code-sequence costs.
//!
//! # Examples
//!
//! ```
//! use magicdiv_ir::{optimize, Builder, Op};
//!
//! // Unsigned division by 10 at N = 32 (the paper's Table 11.1 kernel).
//! let mut b = Builder::new(32, 1);
//! let n = b.arg(0);
//! let m = b.constant(0xcccc_cccd); // (2^34 + 1)/5
//! let hi = b.push(Op::MulUH(m, n));
//! let q = b.push(Op::Srl(hi, 3));
//! let prog = optimize(&b.finish([q]));
//!
//! for n in [0u64, 9, 10, 99, 1_000_000_007] {
//!     assert_eq!(prog.eval1(&[n]).unwrap(), n / 10);
//! }
//! assert_eq!(prog.op_counts().total_executed(), 2); // one mul, one shift
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod interp;
mod legalize;
mod lower;
mod mutate;
mod opt;
mod program;
mod schedule;

pub use crate::cost::{OpClass, OpCounts};
pub use crate::interp::{mask, sign_extend, EvalError, EvalOptions, LANES};
pub use crate::legalize::{legalize, TargetCaps};
pub use crate::lower::{
    lower_divisibility, lower_dword_div, lower_exact_div, lower_floor_div, lower_plan, lower_sdiv,
    lower_udiv, lower_urem,
};
pub use crate::mutate::{apply_mutation, mutations, Mutation};
pub use crate::opt::optimize;
pub use crate::program::{Builder, Op, OperandIter, Program, Reg};
pub use crate::schedule::{schedule, ScheduleWeights};
