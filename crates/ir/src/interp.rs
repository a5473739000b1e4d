//! Bit-accurate interpreter for IR programs at any width up to 64.
//!
//! Values are carried zero-extended in `u64`; every operation masks its
//! result back to `N` bits, and signed operations sign-extend internally.
//! This is the oracle the code generator is verified against.
//!
//! There is one interpreter, [`Program::eval_lanes`]: it evaluates a
//! batch of inputs with one column of lane values per instruction, so
//! each opcode is dispatched once per batch rather than once per input.
//! [`Program::eval`], [`Program::eval_with`] and [`Program::eval1`] are
//! its one-lane calls.

use core::cell::RefCell;
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

/// Instructions a one-lane call ([`Program::eval`], [`Program::eval_with`],
/// [`Program::eval1`]) evaluates in a stack buffer; longer programs fall
/// back to a heap buffer.
const ONE_LANE_STACK_SLOTS: usize = 64;

/// The batch size the workspace's lane callers use: the tournament
/// judge and the mutation harness hand [`Program::eval_lanes`] at
/// most this many inputs at a time. Any lane count is accepted; this one
/// amortises the per-instruction dispatch while the value columns of a
/// typical kernel stay within a few tens of kilobytes.
pub const LANES: usize = 64;

thread_local! {
    /// The value columns [`Program::eval_lanes`] reuses from call to call,
    /// grown to the largest `instructions × lanes` seen on this thread.
    static LANE_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn wide_mul(a: u64, b: u64) -> u128 {
    (a as u128) * (b as u128)
}

/// Records `err` as a lane's error unless an earlier instruction already
/// faulted it: a lane reports its first fault, as a one-input run stops
/// there.
#[inline]
fn fault(status: &mut Result<(), EvalError>, err: EvalError) {
    if status.is_ok() {
        *status = Err(err);
    }
}

/// Applies `f` to every lane of one operand column.
#[inline(always)]
fn unary(out: &mut [u64], a: &[u64], m: u64, f: impl Fn(u64) -> u64) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x) & m;
    }
}

/// Applies `f` to every lane of two operand columns.
#[inline(always)]
fn binary(out: &mut [u64], a: &[u64], b: &[u64], m: u64, f: impl Fn(u64, u64) -> u64) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y) & m;
    }
}

/// Applies a faulting division `f` to every lane of two operand columns;
/// a lane whose division faults records the error and reads 0.
#[inline(always)]
fn divide(
    out: &mut [u64],
    a: &[u64],
    b: &[u64],
    status: &mut [Result<(), EvalError>],
    m: u64,
    f: impl Fn(u64, u64) -> Result<u64, EvalError>,
) {
    for (((o, &x), &y), s) in out.iter_mut().zip(a).zip(b).zip(status) {
        *o = match f(x, y) {
            Ok(v) => v & m,
            Err(e) => {
                fault(s, e);
                0
            }
        };
    }
}

impl Program {
    /// Evaluates the program on `args`, returning the result values. A
    /// one-lane call of [`Program::eval_lanes`].
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
    /// an optional fuel budget and optional trapping `MIN / -1`. A
    /// one-lane call of [`Program::eval_lanes`].
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
        self.eval_one_lane(args, opts, |vals| {
            self.results().iter().map(|r| vals[r.index()]).collect()
        })
    }

    /// Evaluates a single-result program, returning that value. A
    /// one-lane call of [`Program::eval_lanes`]; programs of up to 64
    /// instructions are evaluated without touching the heap.
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
        self.eval_one_lane(args, &EvalOptions::default(), |vals| vals[result.index()])
    }

    /// Evaluates the program on a batch of inputs, one per lane: each
    /// instruction is applied to a whole column of lane values at once.
    ///
    /// The lane count is `status.len()`. `args` holds one column per
    /// argument: `args[k * lanes + l]` is argument `k` of lane `l`. On
    /// return `status[l]` is what [`Program::eval_with`] returns for lane
    /// `l`'s arguments, without the values: `Ok(())`, or the same
    /// [`EvalError`] (`DivideByZero { at }`, `SignedOverflow { at }`,
    /// `FuelExhausted`, or `ArgCount` with `got = args.len() / lanes`).
    /// For every `Ok` lane, `out[r * lanes + l]` is its result `r`; an
    /// erring lane's outputs are unspecified.
    ///
    /// Each successful lane emits its own `ir.eval` trace event, in lane
    /// order, exactly as a one-input call would. The value columns live in
    /// a per-thread buffer that is reused from call to call.
    ///
    /// # Panics
    ///
    /// Panics when `out` does not hold one column per program result.
    ///
    /// # Examples
    ///
    /// ```
    /// use magicdiv_ir::{Builder, EvalError, EvalOptions, Op};
    ///
    /// let mut b = Builder::new(8, 2);
    /// let q = b.push(Op::DivU(b.arg(0), b.arg(1)));
    /// let p = b.finish([q]);
    /// // Three lanes: 200 / 7, 9 / 0 and 255 / 255.
    /// let args = [200, 9, 255, /* divisors */ 7, 0, 255];
    /// let mut out = [0; 3];
    /// let mut status = [Ok(()); 3];
    /// p.eval_lanes(&args, &EvalOptions::default(), &mut out, &mut status);
    /// assert_eq!(status, [Ok(()), Err(EvalError::DivideByZero { at: 2 }), Ok(())]);
    /// assert_eq!((out[0], out[2]), (28, 1));
    /// ```
    pub fn eval_lanes(
        &self,
        args: &[u64],
        opts: &EvalOptions,
        out: &mut [u64],
        status: &mut [Result<(), EvalError>],
    ) {
        let lanes = status.len();
        assert_eq!(
            out.len(),
            self.results().len() * lanes,
            "eval_lanes needs one output column per result"
        );
        let cells = self.insts().len() * lanes;
        let mut run = |vals: &mut Vec<u64>| {
            if vals.len() < cells {
                vals.resize(cells, 0);
            }
            let vals = &mut vals[..cells];
            self.run_lanes(args, opts, vals, status);
            for (col, r) in out.chunks_exact_mut(lanes.max(1)).zip(self.results()) {
                col.copy_from_slice(&vals[r.index() * lanes..][..lanes]);
            }
        };
        // A trace sink that evaluates a program from inside an event finds
        // the buffer taken and gets a fresh one.
        LANE_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut vals) => run(&mut vals),
            Err(_) => run(&mut Vec::new()),
        });
    }

    /// Runs one lane in a stack buffer (a heap one for long programs) and
    /// reads its values with `read`.
    fn eval_one_lane<T>(
        &self,
        args: &[u64],
        opts: &EvalOptions,
        read: impl FnOnce(&[u64]) -> T,
    ) -> Result<T, EvalError> {
        let n = self.insts().len();
        let mut stack = [0u64; ONE_LANE_STACK_SLOTS];
        let mut heap = Vec::new();
        let vals = if n <= ONE_LANE_STACK_SLOTS {
            &mut stack[..n]
        } else {
            heap.resize(n, 0);
            &mut heap[..]
        };
        let mut status = [Ok(())];
        self.run_lanes(args, opts, vals, &mut status);
        status[0].map(|()| read(vals))
    }

    /// The interpreter. With `lanes = status.len()`, writes lane `l`'s
    /// value of instruction `i` to `vals[i * lanes + l]` (`vals` holds one
    /// column per instruction) and each lane's first fault to `status`.
    fn run_lanes(
        &self,
        args: &[u64],
        opts: &EvalOptions,
        vals: &mut [u64],
        status: &mut [Result<(), EvalError>],
    ) {
        let lanes = status.len();
        if lanes == 0 {
            return;
        }
        status.fill(Ok(()));
        if args.len() != self.arg_count() as usize * lanes {
            status.fill(Err(EvalError::ArgCount {
                expected: self.arg_count(),
                got: args.len() / lanes,
            }));
            return;
        }
        let w = self.width();
        let m = mask(w);
        // The bit pattern of iN::MIN, when `MIN / -1` traps.
        let trap_min = opts.trap_signed_overflow.then_some(1u64 << (w - 1).min(63));
        let insts = self.insts();
        // A lane runs out of fuel at instruction `fuel` unless an earlier
        // instruction already faulted it.
        let executed = opts
            .fuel
            .map_or(insts.len(), |fuel| insts.len().min(fuel as usize));
        for (i, op) in insts[..executed].iter().enumerate() {
            // Operands name earlier instructions only (SSA order); the
            // split turns a forward reference into a bounds panic instead
            // of a read of an unwritten column.
            let (done, rest) = vals.split_at_mut(i * lanes);
            let out = &mut rest[..lanes];
            let col = |r: crate::Reg| &done[r.index() * lanes..][..lanes];
            let sx = |x: u64| sign_extend(x, w);
            match *op {
                Op::Arg(k) => unary(out, &args[k as usize * lanes..][..lanes], m, |x| x),
                Op::Const(c) => out.fill(c & m),
                Op::Add(a, b) => binary(out, col(a), col(b), m, u64::wrapping_add),
                Op::Sub(a, b) => binary(out, col(a), col(b), m, u64::wrapping_sub),
                Op::Neg(a) => unary(out, col(a), m, u64::wrapping_neg),
                Op::MulL(a, b) => binary(out, col(a), col(b), m, u64::wrapping_mul),
                Op::MulUH(a, b) => {
                    binary(out, col(a), col(b), m, |x, y| (wide_mul(x, y) >> w) as u64)
                }
                Op::MulSH(a, b) => binary(out, col(a), col(b), m, |x, y| {
                    ((sx(x) as i128 * sx(y) as i128) >> w) as u64
                }),
                Op::And(a, b) => binary(out, col(a), col(b), m, |x, y| x & y),
                Op::Or(a, b) => binary(out, col(a), col(b), m, |x, y| x | y),
                Op::Eor(a, b) => binary(out, col(a), col(b), m, |x, y| x ^ y),
                Op::Not(a) => unary(out, col(a), m, |x| !x),
                Op::Sll(a, n) => unary(out, col(a), m, |x| x << n),
                Op::Srl(a, n) => unary(out, col(a), m, |x| x >> n),
                Op::Sra(a, n) => unary(out, col(a), m, |x| (sx(x) >> n) as u64),
                Op::Xsign(a) => unary(out, col(a), m, |x| (sx(x) >> (w - 1).min(63)) as u64),
                Op::SltS(a, b) => binary(out, col(a), col(b), m, |x, y| u64::from(sx(x) < sx(y))),
                Op::SltU(a, b) => binary(out, col(a), col(b), m, |x, y| u64::from(x < y)),
                // Values are stored masked, so the unsigned sum/difference
                // wraps iff it leaves the N-bit range.
                Op::Carry(a, b) => binary(out, col(a), col(b), m, |x, y| {
                    u64::from(u128::from(x) + u128::from(y) > u128::from(m))
                }),
                Op::Borrow(a, b) => binary(out, col(a), col(b), m, |x, y| u64::from(x < y)),
                Op::DivU(a, b) => divide(out, col(a), col(b), status, m, |x, y| {
                    x.checked_div(y).ok_or(EvalError::DivideByZero { at: i })
                }),
                Op::RemU(a, b) => divide(out, col(a), col(b), status, m, |x, y| {
                    x.checked_rem(y).ok_or(EvalError::DivideByZero { at: i })
                }),
                Op::DivS(a, b) => divide(out, col(a), col(b), status, m, |x, y| {
                    signed_divide(x, y, w, trap_min, i, i64::wrapping_div)
                }),
                Op::RemS(a, b) => divide(out, col(a), col(b), status, m, |x, y| {
                    signed_divide(x, y, w, trap_min, i, i64::wrapping_rem)
                }),
            }
        }
        if executed < insts.len() {
            let limit = opts.fuel.unwrap_or_default();
            for s in status.iter_mut() {
                fault(s, EvalError::FuelExhausted { limit });
            }
        }
        if magicdiv_trace::enabled() && status.iter().any(Result::is_ok) {
            self.emit_eval_events(status);
        }
    }

    /// Emits one `ir.eval` event per successful lane, in lane order. A
    /// successful lane executed every instruction, so all carry the same
    /// per-class counts.
    fn emit_eval_events(&self, status: &[Result<(), EvalError>]) {
        use crate::cost::OpClass;
        let mut class_counts = [0u64; 8];
        for op in self.insts() {
            class_counts[op.class().index()] += 1;
        }
        for _ in status.iter().filter(|s| s.is_ok()) {
            magicdiv_trace::event!("ir.eval",
                "width" => self.width(),
                "executed" => class_counts[1..].iter().sum::<u64>(),
                "add_sub" => class_counts[OpClass::AddSub.index()],
                "shift" => class_counts[OpClass::Shift.index()],
                "bit_op" => class_counts[OpClass::BitOp.index()],
                "cmp" => class_counts[OpClass::Cmp.index()],
                "mul_low" => class_counts[OpClass::MulLow.index()],
                "mul_high" => class_counts[OpClass::MulHigh.index()],
                "div" => class_counts[OpClass::Div.index()]);
        }
    }
}

/// One lane of `DivS`/`RemS`: `f` on the sign-extended operands, after
/// the zero-divisor check and, when `trap_min` holds the `iN::MIN` bit
/// pattern, the `MIN / -1` check.
#[inline(always)]
fn signed_divide(
    x: u64,
    y: u64,
    w: u32,
    trap_min: Option<u64>,
    at: usize,
    f: impl Fn(i64, i64) -> i64,
) -> Result<u64, EvalError> {
    let (sx, sy) = (sign_extend(x, w), sign_extend(y, w));
    if sy == 0 {
        return Err(EvalError::DivideByZero { at });
    }
    if trap_min == Some(x) && sy == -1 {
        return Err(EvalError::SignedOverflow { at });
    }
    Ok(f(sx, sy) as u64)
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
        // The budget counts instructions: exactly enough runs, one short
        // does not.
        let len = p.insts().len() as u64;
        let exact = EvalOptions {
            fuel: Some(len),
            ..Default::default()
        };
        assert_eq!(p.eval_with(&[1], &exact).unwrap(), vec![1024]);
        let one_short = EvalOptions {
            fuel: Some(len - 1),
            ..Default::default()
        };
        assert_eq!(
            p.eval_with(&[1], &one_short),
            Err(EvalError::FuelExhausted { limit: len - 1 })
        );
    }

    #[test]
    fn the_first_fault_is_reported() {
        // v2 divides by zero; v3 traps on MIN / -1; the budget runs out
        // after v3. Each lane reports only its earliest fault.
        let mut b = Builder::new(8, 3);
        let q = b.push(Op::DivU(b.arg(0), b.arg(1)));
        let s = b.push(Op::DivS(b.arg(0), b.arg(2)));
        let p = b.finish([q, s]);
        let opts = EvalOptions {
            fuel: Some(5),
            trap_signed_overflow: true,
        };
        let zero_then_overflow = [0x80, 0, 0xff];
        assert_eq!(
            p.eval_with(&zero_then_overflow, &opts),
            Err(EvalError::DivideByZero { at: 3 })
        );
        assert_eq!(
            p.eval_with(&[0x80, 1, 0xff], &opts),
            Err(EvalError::SignedOverflow { at: 4 })
        );
        let starved = EvalOptions {
            fuel: Some(4),
            ..opts
        };
        assert_eq!(
            p.eval_with(&zero_then_overflow, &starved),
            Err(EvalError::DivideByZero { at: 3 })
        );
        assert_eq!(
            p.eval_with(&[0x80, 1, 0xff], &starved),
            Err(EvalError::FuelExhausted { limit: 4 })
        );
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
