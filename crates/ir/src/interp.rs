//! Bit-accurate interpreter for IR programs at any width up to 64.
//!
//! Values are carried zero-extended in `u64`; every operation masks its
//! result back to `N` bits, and signed operations sign-extend internally.
//! This is the oracle the code generator is verified against.

use core::fmt;

use magicdiv::{Fault, FaultKind, FaultLayer};

use crate::program::{Op, Program};

/// Interpreter failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EvalError {
    /// Wrong number of arguments supplied.
    ArgCount {
        /// Arguments the program declares.
        expected: u32,
        /// Arguments supplied to `eval`.
        got: usize,
    },
    /// A `DivU`/`DivS`/`RemU`/`RemS` instruction saw a zero divisor.
    DivideByZero {
        /// Index of the faulting instruction.
        at: usize,
    },
    /// A `DivS`/`RemS` instruction saw `iN::MIN / -1` while
    /// [`EvalOptions::trap_signed_overflow`] was set. The default mode
    /// wraps, like the paper's code sequences and real hardware.
    SignedOverflow {
        /// Index of the faulting instruction.
        at: usize,
    },
    /// More instructions executed than [`EvalOptions::fuel`] allows.
    FuelExhausted {
        /// The exhausted budget.
        limit: u64,
    },
    /// [`Program::eval1`] was given a program that does not return
    /// exactly one value.
    ResultCount {
        /// Results the caller expects.
        expected: usize,
        /// Results the program returns.
        got: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::ArgCount { expected, got } => {
                write!(f, "expected {expected} arguments, got {got}")
            }
            EvalError::DivideByZero { at } => write!(f, "division by zero at v{at}"),
            EvalError::SignedOverflow { at } => {
                write!(f, "signed division overflow (MIN / -1) at v{at}")
            }
            EvalError::FuelExhausted { limit } => {
                write!(f, "evaluation fuel of {limit} instructions exhausted")
            }
            EvalError::ResultCount { expected, got } => {
                write!(f, "expected {expected} result values, got {got}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<EvalError> for Fault {
    fn from(e: EvalError) -> Fault {
        let (kind, at) = match e {
            EvalError::ArgCount { expected, got } => (FaultKind::ArgCount { expected, got }, None),
            EvalError::DivideByZero { at } => (FaultKind::DivideByZero, Some(at)),
            EvalError::SignedOverflow { at } => (FaultKind::SignedOverflow, Some(at)),
            EvalError::FuelExhausted { limit } => (FaultKind::StepLimit { limit }, None),
            EvalError::ResultCount { .. } => (FaultKind::BadProgram(e.to_string()), None),
        };
        Fault {
            layer: FaultLayer::IrInterp,
            kind,
            at,
        }
    }
}

/// Evaluation policy knobs for [`Program::eval_with`].
///
/// The defaults reproduce [`Program::eval`]: unlimited fuel and wrapping
/// `MIN / -1` (the behaviour of the paper's generated sequences). The
/// differential harness runs oracles under an explicit fuel budget so a
/// mutated or malformed program can never hang a verification run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct EvalOptions {
    /// Maximum number of instructions to execute; `None` is unlimited.
    pub fuel: Option<u64>,
    /// Report [`EvalError::SignedOverflow`] on `iN::MIN / -1` instead of
    /// wrapping (hardware-trap semantics, e.g. x86 `idiv`).
    pub trap_signed_overflow: bool,
}

/// The all-ones mask for an `N`-bit word.
#[inline]
pub fn mask(width: u32) -> u64 {
    debug_assert!((1..=64).contains(&width));
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Sign-extends the low `width` bits of `x` into an `i64`.
#[inline]
pub fn sign_extend(x: u64, width: u32) -> i64 {
    debug_assert!((1..=64).contains(&width));
    let shift = 64 - width;
    ((x << shift) as i64) >> shift
}

/// Instructions [`Program::eval1`] evaluates in a stack buffer; longer
/// programs fall back to a heap buffer.
const EVAL1_STACK_SLOTS: usize = 64;

fn wide_mul(a: u64, b: u64) -> u128 {
    (a as u128) * (b as u128)
}

impl Program {
    /// Evaluates the program on `args`, returning the result values.
    ///
    /// # Errors
    ///
    /// [`EvalError::ArgCount`] on an argument-count mismatch;
    /// [`EvalError::DivideByZero`] when a hardware-division op divides by
    /// zero (magic-division programs contain no such ops and cannot fail
    /// this way).
    ///
    /// # Examples
    ///
    /// ```
    /// use magicdiv_ir::{Builder, Op};
    ///
    /// let mut b = Builder::new(8, 2);
    /// let s = b.push(Op::Add(b.arg(0), b.arg(1)));
    /// let p = b.finish([s]);
    /// assert_eq!(p.eval(&[200, 100]).unwrap(), vec![44]); // wraps mod 2^8
    /// ```
    pub fn eval(&self, args: &[u64]) -> Result<Vec<u64>, EvalError> {
        self.eval_with(args, &EvalOptions::default())
    }

    /// Evaluates the program under an explicit [`EvalOptions`] policy:
    /// an optional fuel budget and optional trapping `MIN / -1`.
    ///
    /// # Errors
    ///
    /// As [`Program::eval`], plus [`EvalError::FuelExhausted`] when the
    /// instruction budget runs out and [`EvalError::SignedOverflow`] when
    /// trapping is requested and a signed divide sees `iN::MIN / -1`.
    ///
    /// # Examples
    ///
    /// ```
    /// use magicdiv_ir::{Builder, EvalError, EvalOptions, Op};
    ///
    /// let mut b = Builder::new(8, 2);
    /// let q = b.push(Op::DivS(b.arg(0), b.arg(1)));
    /// let p = b.finish([q]);
    /// // Default mode wraps: -128 / -1 == -128 at width 8.
    /// assert_eq!(p.eval(&[0x80, 0xff]).unwrap(), vec![0x80]);
    /// let trap = EvalOptions { trap_signed_overflow: true, ..Default::default() };
    /// assert_eq!(
    ///     p.eval_with(&[0x80, 0xff], &trap),
    ///     Err(EvalError::SignedOverflow { at: 2 })
    /// );
    /// ```
    pub fn eval_with(&self, args: &[u64], opts: &EvalOptions) -> Result<Vec<u64>, EvalError> {
        let mut vals = vec![0u64; self.insts().len()];
        self.eval_into(args, opts, &mut vals)?;
        Ok(self.results().iter().map(|r| vals[r.index()]).collect())
    }

    /// Evaluates a single-result program, returning that value. Programs
    /// of up to 64 instructions are evaluated without touching the heap.
    ///
    /// # Errors
    ///
    /// As [`Program::eval`], plus [`EvalError::ResultCount`] when the
    /// program does not return exactly one value.
    pub fn eval1(&self, args: &[u64]) -> Result<u64, EvalError> {
        let [result] = self.results() else {
            return Err(EvalError::ResultCount {
                expected: 1,
                got: self.results().len(),
            });
        };
        let n = self.insts().len();
        let mut stack = [0u64; EVAL1_STACK_SLOTS];
        let mut heap = Vec::new();
        let vals = if n <= EVAL1_STACK_SLOTS {
            &mut stack[..n]
        } else {
            heap.resize(n, 0);
            &mut heap[..]
        };
        self.eval_into(args, &EvalOptions::default(), vals)?;
        Ok(vals[result.index()])
    }

    /// The interpreter: writes the value of instruction `i` to `vals[i]`
    /// (`vals` holds one slot per instruction).
    fn eval_into(
        &self,
        args: &[u64],
        opts: &EvalOptions,
        vals: &mut [u64],
    ) -> Result<(), EvalError> {
        if args.len() != self.arg_count() as usize {
            return Err(EvalError::ArgCount {
                expected: self.arg_count(),
                got: args.len(),
            });
        }
        let w = self.width();
        let m = mask(w);
        let min_signed = 1u64 << (w - 1).min(63); // bit pattern of iN::MIN
        let tracing = magicdiv_trace::enabled();
        let mut class_counts = [0u64; 8];
        for (i, op) in self.insts().iter().enumerate() {
            if let Some(fuel) = opts.fuel {
                if i as u64 >= fuel {
                    return Err(EvalError::FuelExhausted { limit: fuel });
                }
            }
            if tracing {
                class_counts[op.class().index()] += 1;
            }
            // Operands name earlier instructions only (SSA order); the
            // slice turns a forward reference into a bounds panic instead
            // of a read of an unwritten slot.
            let done = &vals[..i];
            let v = |r: crate::Reg| done[r.index()];
            let result = match *op {
                Op::Arg(k) => args[k as usize] & m,
                Op::Const(c) => c & m,
                Op::Add(a, b) => v(a).wrapping_add(v(b)),
                Op::Sub(a, b) => v(a).wrapping_sub(v(b)),
                Op::Neg(a) => v(a).wrapping_neg(),
                Op::MulL(a, b) => v(a).wrapping_mul(v(b)),
                Op::MulUH(a, b) => (wide_mul(v(a), v(b)) >> w) as u64,
                Op::MulSH(a, b) => {
                    let prod = (sign_extend(v(a), w) as i128) * (sign_extend(v(b), w) as i128);
                    (prod >> w) as u64
                }
                Op::And(a, b) => v(a) & v(b),
                Op::Or(a, b) => v(a) | v(b),
                Op::Eor(a, b) => v(a) ^ v(b),
                Op::Not(a) => !v(a),
                Op::Sll(a, n) => v(a) << n,
                Op::Srl(a, n) => v(a) >> n,
                Op::Sra(a, n) => (sign_extend(v(a), w) >> n) as u64,
                Op::Xsign(a) => (sign_extend(v(a), w) >> (w - 1).min(63)) as u64,
                Op::SltS(a, b) => u64::from(sign_extend(v(a), w) < sign_extend(v(b), w)),
                Op::SltU(a, b) => u64::from(v(a) < v(b)),
                // Values are stored masked, so the unsigned sum/difference
                // wraps iff it leaves the N-bit range.
                Op::Carry(a, b) => u64::from(u128::from(v(a)) + u128::from(v(b)) > u128::from(m)),
                Op::Borrow(a, b) => u64::from(v(a) < v(b)),
                Op::DivU(a, b) => v(a)
                    .checked_div(v(b))
                    .ok_or(EvalError::DivideByZero { at: i })?,
                Op::DivS(a, b) => {
                    let (x, y) = (sign_extend(v(a), w), sign_extend(v(b), w));
                    if y == 0 {
                        return Err(EvalError::DivideByZero { at: i });
                    }
                    if opts.trap_signed_overflow && v(a) == min_signed && y == -1 {
                        return Err(EvalError::SignedOverflow { at: i });
                    }
                    x.wrapping_div(y) as u64
                }
                Op::RemU(a, b) => v(a)
                    .checked_rem(v(b))
                    .ok_or(EvalError::DivideByZero { at: i })?,
                Op::RemS(a, b) => {
                    let (x, y) = (sign_extend(v(a), w), sign_extend(v(b), w));
                    if y == 0 {
                        return Err(EvalError::DivideByZero { at: i });
                    }
                    if opts.trap_signed_overflow && v(a) == min_signed && y == -1 {
                        return Err(EvalError::SignedOverflow { at: i });
                    }
                    x.wrapping_rem(y) as u64
                }
            };
            vals[i] = result & m;
        }
        if tracing {
            use crate::cost::OpClass;
            magicdiv_trace::event!("ir.eval",
                "width" => w,
                "executed" => class_counts[1..].iter().sum::<u64>(),
                "add_sub" => class_counts[OpClass::AddSub.index()],
                "shift" => class_counts[OpClass::Shift.index()],
                "bit_op" => class_counts[OpClass::BitOp.index()],
                "cmp" => class_counts[OpClass::Cmp.index()],
                "mul_low" => class_counts[OpClass::MulLow.index()],
                "mul_high" => class_counts[OpClass::MulHigh.index()],
                "div" => class_counts[OpClass::Div.index()]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;

    fn unop(width: u32, f: impl FnOnce(&mut Builder, crate::Reg) -> crate::Reg, x: u64) -> u64 {
        let mut b = Builder::new(width, 1);
        let a = b.arg(0);
        let r = f(&mut b, a);
        b.finish([r]).eval1(&[x]).unwrap()
    }

    fn binop(
        width: u32,
        f: impl FnOnce(&mut Builder, crate::Reg, crate::Reg) -> crate::Reg,
        x: u64,
        y: u64,
    ) -> u64 {
        let mut b = Builder::new(width, 2);
        let (a0, a1) = (b.arg(0), b.arg(1));
        let r = f(&mut b, a0, a1);
        b.finish([r]).eval1(&[x, y]).unwrap()
    }

    #[test]
    fn mask_and_sign_extend() {
        assert_eq!(mask(8), 0xff);
        assert_eq!(mask(64), u64::MAX);
        assert_eq!(sign_extend(0xff, 8), -1);
        assert_eq!(sign_extend(0x7f, 8), 127);
        assert_eq!(sign_extend(u64::MAX, 64), -1);
    }

    #[test]
    fn arithmetic_wraps_at_width() {
        assert_eq!(binop(8, |b, x, y| b.push(Op::Add(x, y)), 200, 100), 44);
        assert_eq!(binop(8, |b, x, y| b.push(Op::Sub(x, y)), 1, 2), 0xff);
        assert_eq!(unop(8, |b, x| b.push(Op::Neg(x)), 1), 0xff);
        assert_eq!(
            binop(16, |b, x, y| b.push(Op::MulL(x, y)), 0x8000, 3),
            0x8000
        );
    }

    #[test]
    fn mul_high_halves_match_oracles() {
        for w in [8u32, 16, 32, 57, 64] {
            let samples: Vec<u64> = vec![
                0,
                1,
                2,
                3,
                mask(w) / 3,
                mask(w) >> 1,
                (mask(w) >> 1) + 1,
                mask(w),
            ];
            for &a in &samples {
                for &b in &samples {
                    let uh = binop(w, |bb, x, y| bb.push(Op::MulUH(x, y)), a, b);
                    let expect_u = ((a as u128 * b as u128) >> w) as u64 & mask(w);
                    assert_eq!(uh, expect_u, "muluh {a} {b} w={w}");
                    let sh = binop(w, |bb, x, y| bb.push(Op::MulSH(x, y)), a, b);
                    let expect_s = (((sign_extend(a, w) as i128) * (sign_extend(b, w) as i128))
                        >> w) as u64
                        & mask(w);
                    assert_eq!(sh, expect_s, "mulsh {a} {b} w={w}");
                }
            }
        }
    }

    #[test]
    fn shifts_and_xsign() {
        assert_eq!(unop(8, |b, x| b.push(Op::Sra(x, 2)), 0x84), 0xe1);
        assert_eq!(unop(8, |b, x| b.push(Op::Srl(x, 2)), 0x84), 0x21);
        assert_eq!(unop(8, |b, x| b.push(Op::Sll(x, 2)), 0x84), 0x10);
        assert_eq!(unop(8, |b, x| b.push(Op::Xsign(x)), 0x80), 0xff);
        assert_eq!(unop(8, |b, x| b.push(Op::Xsign(x)), 0x7f), 0);
    }

    #[test]
    fn comparisons() {
        assert_eq!(binop(8, |b, x, y| b.push(Op::SltS(x, y)), 0xff, 0), 1); // -1 < 0
        assert_eq!(binop(8, |b, x, y| b.push(Op::SltU(x, y)), 0xff, 0), 0); // 255 > 0
        assert_eq!(binop(8, |b, x, y| b.push(Op::SltS(x, y)), 0, 0), 0);
    }

    #[test]
    fn divisions_and_zero_trap() {
        assert_eq!(binop(8, |b, x, y| b.push(Op::DivU(x, y)), 200, 7), 28);
        assert_eq!(binop(8, |b, x, y| b.push(Op::RemU(x, y)), 200, 7), 4);
        // -100 / 7 = -14 (trunc), rem -2.
        assert_eq!(
            binop(8, |b, x, y| b.push(Op::DivS(x, y)), 156, 7),
            (-14i64 as u64) & 0xff
        );
        assert_eq!(
            binop(8, |b, x, y| b.push(Op::RemS(x, y)), 156, 7),
            (-2i64 as u64) & 0xff
        );
        let mut b = Builder::new(8, 2);
        let d = b.push(Op::DivU(b.arg(0), b.arg(1)));
        let p = b.finish([d]);
        assert_eq!(p.eval(&[1, 0]), Err(EvalError::DivideByZero { at: 2 }));
    }

    #[test]
    fn signed_min_division_wraps() {
        // MIN / -1 wraps at the interpreted width, like the real ops.
        let q = binop(8, |b, x, y| b.push(Op::DivS(x, y)), 0x80, 0xff);
        assert_eq!(q, 0x80);
    }

    #[test]
    fn arg_count_checked() {
        let mut b = Builder::new(8, 2);
        let s = b.push(Op::Add(b.arg(0), b.arg(1)));
        let p = b.finish([s]);
        assert_eq!(
            p.eval(&[1]),
            Err(EvalError::ArgCount {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn multi_result_programs() {
        let mut b = Builder::new(32, 2);
        let q = b.push(Op::DivU(b.arg(0), b.arg(1)));
        let r = b.push(Op::RemU(b.arg(0), b.arg(1)));
        let p = b.finish([q, r]);
        assert_eq!(p.eval(&[1234, 10]).unwrap(), vec![123, 4]);
    }

    #[test]
    fn trap_mode_reports_min_over_minus_one() {
        let mut b = Builder::new(8, 2);
        let q = b.push(Op::DivS(b.arg(0), b.arg(1)));
        let r = b.push(Op::RemS(b.arg(0), b.arg(1)));
        let p = b.finish([q, r]);
        let trap = EvalOptions {
            trap_signed_overflow: true,
            ..Default::default()
        };
        assert_eq!(
            p.eval_with(&[0x80, 0xff], &trap),
            Err(EvalError::SignedOverflow { at: 2 })
        );
        // Any other operands are unaffected by the trap flag.
        assert_eq!(p.eval_with(&[0x80, 0x01], &trap).unwrap(), vec![0x80, 0]);
        // And the default mode wraps.
        assert_eq!(p.eval(&[0x80, 0xff]).unwrap(), vec![0x80, 0]);
    }

    #[test]
    fn fuel_budget_is_enforced() {
        let mut b = Builder::new(32, 1);
        let mut acc = b.arg(0);
        for _ in 0..10 {
            acc = b.push(Op::Add(acc, acc));
        }
        let p = b.finish([acc]);
        let short = EvalOptions {
            fuel: Some(5),
            ..Default::default()
        };
        assert_eq!(
            p.eval_with(&[1], &short),
            Err(EvalError::FuelExhausted { limit: 5 })
        );
        let enough = EvalOptions {
            fuel: Some(64),
            ..Default::default()
        };
        assert_eq!(p.eval_with(&[1], &enough).unwrap(), vec![1024]);
    }

    #[test]
    fn eval_errors_convert_to_faults() {
        let f: Fault = EvalError::DivideByZero { at: 7 }.into();
        assert_eq!(f.layer, FaultLayer::IrInterp);
        assert_eq!(f.kind, FaultKind::DivideByZero);
        assert_eq!(f.at, Some(7));
        let f: Fault = EvalError::FuelExhausted { limit: 9 }.into();
        assert_eq!(f.kind, FaultKind::StepLimit { limit: 9 });
        assert_eq!(f.at, None);
    }

    #[test]
    fn args_are_masked_on_entry() {
        let b = Builder::new(8, 1);
        let a = b.arg(0);
        let p = b.finish([a]);
        assert_eq!(p.eval1(&[0x1ff]).unwrap(), 0xff);
    }
}
