//! The IR: values, operations, programs and the builder.

use core::fmt;

/// A value in a [`Program`] — the index of the instruction that produces
/// it (SSA style: every value is defined exactly once).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub(crate) u32);

impl Reg {
    /// The defining instruction's index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a register from a raw instruction index.
    ///
    /// Mostly useful for test generators; [`Builder::push`] still
    /// validates that every operand is defined before use, so a bad index
    /// cannot produce an ill-formed program.
    #[inline]
    pub fn from_index(i: usize) -> Reg {
        Reg(u32::try_from(i).expect("instruction index fits in u32"))
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One IR operation.
///
/// The set is exactly the paper's Table 3.1 (plus constants, arguments,
/// the relational `SLT` ops used by the §6 improvements, and hardware
/// division for baseline comparisons). Shift counts are compile-time
/// constants, as in all the paper's generated code.
// Deliberately exhaustive (no #[non_exhaustive]): backends and simulators
// must handle every operation, and the compiler should tell them when the
// set grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A program input (index into the argument list).
    Arg(u32),
    /// An N-bit constant (stored zero-extended in a `u64`).
    Const(u64),
    /// Two's-complement addition.
    Add(Reg, Reg),
    /// Two's-complement subtraction.
    Sub(Reg, Reg),
    /// Two's-complement negation.
    Neg(Reg),
    /// `MULL`: low half of the product (signedness-agnostic).
    MulL(Reg, Reg),
    /// `MULUH`: high half of the unsigned product.
    MulUH(Reg, Reg),
    /// `MULSH`: high half of the signed product.
    MulSH(Reg, Reg),
    /// Bitwise AND.
    And(Reg, Reg),
    /// Bitwise OR.
    Or(Reg, Reg),
    /// Bitwise exclusive OR.
    Eor(Reg, Reg),
    /// Bitwise complement.
    Not(Reg),
    /// `SLL`: logical left shift by a constant.
    Sll(Reg, u32),
    /// `SRL`: logical right shift by a constant.
    Srl(Reg, u32),
    /// `SRA`: arithmetic right shift by a constant.
    Sra(Reg, u32),
    /// `XSIGN`: −1 if negative else 0 (short for `SRA(x, N-1)`).
    Xsign(Reg),
    /// Signed set-less-than: 1 if `a < b` else 0.
    SltS(Reg, Reg),
    /// Unsigned set-less-than: 1 if `a < b` else 0.
    SltU(Reg, Reg),
    /// Carry out of the unsigned sum `a + b`: 1 if `a + b >= 2^N` else 0.
    ///
    /// The 2N-bit arithmetic of Fig 8.1 (§8) is decomposed into word ops;
    /// this is the add-with-carry primitive that propagates between limbs.
    /// Legalizes to `SLTU(ADD(a, b), a)` on targets without carry flags.
    Carry(Reg, Reg),
    /// Borrow out of the unsigned difference `a - b`: 1 if `a < b` else 0.
    ///
    /// The subtract-with-borrow twin of [`Op::Carry`]; legalizes to
    /// `SLTU(a, b)`.
    Borrow(Reg, Reg),
    /// Hardware unsigned division (baseline only; traps on zero).
    DivU(Reg, Reg),
    /// Hardware signed division, rounding toward zero (baseline only).
    DivS(Reg, Reg),
    /// Hardware unsigned remainder (baseline only).
    RemU(Reg, Reg),
    /// Hardware signed remainder (baseline only).
    RemS(Reg, Reg),
}

impl Op {
    /// The operand registers of this operation, in order.
    #[inline]
    pub fn operands(&self) -> OperandIter {
        use Op::*;
        let (a, b) = match *self {
            Arg(_) | Const(_) => (None, None),
            Neg(a) | Not(a) | Xsign(a) | Sll(a, _) | Srl(a, _) | Sra(a, _) => (Some(a), None),
            Add(a, b)
            | Sub(a, b)
            | MulL(a, b)
            | MulUH(a, b)
            | MulSH(a, b)
            | And(a, b)
            | Or(a, b)
            | Eor(a, b)
            | SltS(a, b)
            | SltU(a, b)
            | Carry(a, b)
            | Borrow(a, b)
            | DivU(a, b)
            | DivS(a, b)
            | RemU(a, b)
            | RemS(a, b) => (Some(a), Some(b)),
        };
        OperandIter { a, b }
    }

    /// Rewrites operand registers through `f` (used by the optimizer's
    /// remapping passes).
    pub(crate) fn map_operands(self, mut f: impl FnMut(Reg) -> Reg) -> Op {
        use Op::*;
        match self {
            Arg(i) => Arg(i),
            Const(c) => Const(c),
            Add(a, b) => Add(f(a), f(b)),
            Sub(a, b) => Sub(f(a), f(b)),
            Neg(a) => Neg(f(a)),
            MulL(a, b) => MulL(f(a), f(b)),
            MulUH(a, b) => MulUH(f(a), f(b)),
            MulSH(a, b) => MulSH(f(a), f(b)),
            And(a, b) => And(f(a), f(b)),
            Or(a, b) => Or(f(a), f(b)),
            Eor(a, b) => Eor(f(a), f(b)),
            Not(a) => Not(f(a)),
            Sll(a, n) => Sll(f(a), n),
            Srl(a, n) => Srl(f(a), n),
            Sra(a, n) => Sra(f(a), n),
            Xsign(a) => Xsign(f(a)),
            SltS(a, b) => SltS(f(a), f(b)),
            SltU(a, b) => SltU(f(a), f(b)),
            Carry(a, b) => Carry(f(a), f(b)),
            Borrow(a, b) => Borrow(f(a), f(b)),
            DivU(a, b) => DivU(f(a), f(b)),
            DivS(a, b) => DivS(f(a), f(b)),
            RemU(a, b) => RemU(f(a), f(b)),
            RemS(a, b) => RemS(f(a), f(b)),
        }
    }

    fn mnemonic(&self) -> &'static str {
        use Op::*;
        match self {
            Arg(_) => "arg",
            Const(_) => "const",
            Add(..) => "add",
            Sub(..) => "sub",
            Neg(..) => "neg",
            MulL(..) => "mull",
            MulUH(..) => "muluh",
            MulSH(..) => "mulsh",
            And(..) => "and",
            Or(..) => "or",
            Eor(..) => "eor",
            Not(..) => "not",
            Sll(..) => "sll",
            Srl(..) => "srl",
            Sra(..) => "sra",
            Xsign(..) => "xsign",
            SltS(..) => "slts",
            SltU(..) => "sltu",
            Carry(..) => "carry",
            Borrow(..) => "borrow",
            DivU(..) => "divu",
            DivS(..) => "divs",
            RemU(..) => "remu",
            RemS(..) => "rems",
        }
    }
}

/// Iterator over an operation's register operands (at most two).
#[derive(Debug, Clone)]
pub struct OperandIter {
    a: Option<Reg>,
    b: Option<Reg>,
}

impl Iterator for OperandIter {
    type Item = Reg;
    #[inline]
    fn next(&mut self) -> Option<Reg> {
        self.a.take().or_else(|| self.b.take())
    }
}

/// A straight-line IR program: a list of SSA instructions over an N-bit
/// word, with one or more result values.
///
/// # Examples
///
/// ```
/// use magicdiv_ir::{Builder, Op};
///
/// // q = SRL(MULUH(m, n), 3): unsigned division by 10 at N = 32.
/// let mut b = Builder::new(32, 1);
/// let n = b.arg(0);
/// let m = b.constant(0xcccc_cccd);
/// let hi = b.push(Op::MulUH(m, n));
/// let q = b.push(Op::Srl(hi, 3));
/// let prog = b.finish([q]);
/// assert_eq!(prog.eval(&[1234]).unwrap(), vec![123]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    width: u32,
    n_args: u32,
    insts: Vec<Op>,
    results: Vec<Reg>,
}

impl Program {
    /// The word width `N` in bits (1..=64).
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of declared arguments.
    #[inline]
    pub fn arg_count(&self) -> u32 {
        self.n_args
    }

    /// The instruction list, in definition order.
    #[inline]
    pub fn insts(&self) -> &[Op] {
        &self.insts
    }

    /// The result registers.
    #[inline]
    pub fn results(&self) -> &[Reg] {
        &self.results
    }

    /// Checks structural well-formedness: every operand refers to an
    /// earlier instruction (SSA dominance in a straight line), argument
    /// instructions are exactly the leading `Arg(0..n_args)` or reference
    /// valid indices, shift counts are in range, constants are masked, and
    /// every result register is defined.
    ///
    /// Returns a description of the first violation, or `Ok(())`. The
    /// optimizer, legalizer and scheduler all preserve validity (asserted
    /// in their tests).
    pub fn validate(&self) -> Result<(), String> {
        let m = crate::mask(self.width);
        for (i, op) in self.insts.iter().enumerate() {
            for r in op.operands() {
                if r.index() >= i {
                    return Err(format!("v{i} uses v{} defined at or after it", r.index()));
                }
            }
            match *op {
                Op::Arg(k) if k >= self.n_args => {
                    return Err(format!("v{i} reads argument #{k} of {}", self.n_args));
                }
                Op::Const(c) if c & !m != 0 => {
                    return Err(format!("v{i} constant {c:#x} exceeds {} bits", self.width));
                }
                Op::Sll(_, n) | Op::Srl(_, n) | Op::Sra(_, n) if n >= self.width => {
                    return Err(format!("v{i} shift count {n} out of range"));
                }
                _ => {}
            }
        }
        for r in &self.results {
            if r.index() >= self.insts.len() {
                return Err(format!("result {r} is not defined"));
            }
        }
        if self.results.is_empty() {
            return Err("program returns no values".into());
        }
        Ok(())
    }

    /// The instruction list and results, for the optimizer to rewrite in
    /// place.
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<Op>, &mut Vec<Reg>) {
        (&mut self.insts, &mut self.results)
    }

    pub(crate) fn from_raw(width: u32, n_args: u32, insts: Vec<Op>, results: Vec<Reg>) -> Self {
        Program {
            width,
            n_args,
            insts,
            results,
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fn({} args) -> {} values, N={}:",
            self.n_args,
            self.results.len(),
            self.width
        )?;
        for (i, op) in self.insts.iter().enumerate() {
            write!(f, "  v{i} = {}", op.mnemonic())?;
            match op {
                Op::Arg(k) => write!(f, " #{k}")?,
                Op::Const(c) => write!(f, " {c:#x}")?,
                Op::Sll(a, n) | Op::Srl(a, n) | Op::Sra(a, n) => write!(f, " {a}, {n}")?,
                _ => {
                    for (j, r) in op.operands().enumerate() {
                        if j > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, " {r}")?;
                    }
                }
            }
            writeln!(f)?;
        }
        write!(f, "  return")?;
        for r in &self.results {
            write!(f, " {r}")?;
        }
        Ok(())
    }
}

/// Incremental [`Program`] constructor.
///
/// Arguments must be declared up front (`Builder::new(width, n_args)`);
/// [`Builder::arg`] returns their registers. Every other instruction is
/// appended with [`Builder::push`] or a convenience method.
#[derive(Debug, Clone)]
pub struct Builder {
    width: u32,
    n_args: u32,
    insts: Vec<Op>,
}

impl Builder {
    /// Starts a program over `width`-bit words taking `n_args` arguments.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= width <= 64`.
    pub fn new(width: u32, n_args: u32) -> Self {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        let insts = (0..n_args).map(Op::Arg).collect();
        Builder {
            width,
            n_args,
            insts,
        }
    }

    /// The word width `N` in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Register holding argument `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn arg(&self, i: u32) -> Reg {
        assert!(i < self.n_args, "argument index out of range");
        Reg(i)
    }

    /// Appends `op` and returns its result register.
    ///
    /// # Panics
    ///
    /// Panics when an operand register is not yet defined, or a shift
    /// count is `>= width` (the paper's operations require
    /// `0 <= n <= N-1`).
    pub fn push(&mut self, op: Op) -> Reg {
        for r in op.operands() {
            assert!(
                (r.0 as usize) < self.insts.len(),
                "operand {r} not defined yet"
            );
        }
        if let Op::Sll(_, n) | Op::Srl(_, n) | Op::Sra(_, n) = op {
            assert!(
                n < self.width,
                "shift count {n} out of range for N={}",
                self.width
            );
        }
        // Stored constants are always masked to the word width — the
        // interpreter and optimizer rely on this invariant.
        let op = match op {
            Op::Const(c) => Op::Const(c & crate::mask(self.width)),
            other => other,
        };
        let reg = Reg(self.insts.len() as u32);
        self.insts.push(op);
        reg
    }

    /// Appends a constant (masked to the word width).
    pub fn constant(&mut self, value: u64) -> Reg {
        self.push(Op::Const(value))
    }

    /// Finishes the program with the given result registers.
    ///
    /// # Panics
    ///
    /// Panics when a result register is undefined or no results are given.
    pub fn finish(self, results: impl IntoIterator<Item = Reg>) -> Program {
        let results: Vec<Reg> = results.into_iter().collect();
        assert!(
            !results.is_empty(),
            "a program must return at least one value"
        );
        for r in &results {
            assert!((r.0 as usize) < self.insts.len(), "result {r} not defined");
        }
        Program::from_raw(self.width, self.n_args, self.insts, results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_regs() {
        let mut b = Builder::new(32, 2);
        assert_eq!(b.arg(0), Reg(0));
        assert_eq!(b.arg(1), Reg(1));
        let c = b.constant(5);
        assert_eq!(c, Reg(2));
        let s = b.push(Op::Add(b.arg(0), c));
        assert_eq!(s, Reg(3));
        let p = b.finish([s]);
        assert_eq!(p.insts().len(), 4);
        assert_eq!(p.arg_count(), 2);
    }

    #[test]
    fn constants_are_masked() {
        let mut b = Builder::new(8, 0);
        let c = b.constant(0x1ff);
        let p = b.finish([c]);
        assert_eq!(p.insts()[c.index()], Op::Const(0xff));
    }

    #[test]
    #[should_panic(expected = "not defined yet")]
    fn forward_reference_panics() {
        let mut b = Builder::new(32, 0);
        b.push(Op::Neg(Reg(5)));
    }

    #[test]
    #[should_panic(expected = "shift count")]
    fn oversized_shift_panics() {
        let mut b = Builder::new(16, 1);
        let a = b.arg(0);
        b.push(Op::Srl(a, 16));
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn oversized_width_panics() {
        let _ = Builder::new(65, 0);
    }

    #[test]
    fn display_is_readable() {
        let mut b = Builder::new(32, 1);
        let n = b.arg(0);
        let m = b.constant(0xcccc_cccd);
        let h = b.push(Op::MulUH(m, n));
        let q = b.push(Op::Srl(h, 3));
        let p = b.finish([q]);
        let text = p.to_string();
        assert!(text.contains("muluh"), "{text}");
        assert!(text.contains("srl"), "{text}");
        assert!(text.contains("0xcccccccd"), "{text}");
        assert!(text.contains("return v3"), "{text}");
    }

    #[test]
    fn operand_iter_orders() {
        let op = Op::Sub(Reg(3), Reg(7));
        let ops: Vec<Reg> = op.operands().collect();
        assert_eq!(ops, vec![Reg(3), Reg(7)]);
        assert_eq!(Op::Const(1).operands().count(), 0);
        assert_eq!(Op::Neg(Reg(0)).operands().count(), 1);
    }
}
