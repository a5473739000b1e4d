//! Assembly emission for the four architectures of Table 11.1: DEC Alpha,
//! MIPS, POWER and SPARC.
//!
//! The goal is to reproduce the *shape* of the paper's generated code —
//! the instruction kinds and counts, the absence of any divide
//! instruction, MIPS's `multu`/`mfhi` pair, SPARC's `umul`/`rd %y`, and
//! Alpha's scaled-add (`s4addq`/`s8addq`) expansion of the magic-constant
//! multiply — not 1994 GCC's exact register choices.
//!
//! Instruction selection is data: each target has a static table from
//! IR operation kind to an instruction template sequence whose holes are
//! filled from slots (destination, operands, shift count, width − 1).
//! Alpha at 32 bits has its own table. One loop walks the (already
//! optimized) IR with last-use register recycling and applies the rules;
//! explicit code handles only what a table cannot say: Alpha scaled-add
//! folding, x86 operand staging and immediates, and constant splitting.
//! The allocator keeps its state on the stack, and the straight-line
//! programs the paper generates never exceed a RISC temp pool.

use std::borrow::Cow;
use std::fmt;

use magicdiv_ir::{mask, Op, OpClass, Program, Reg};

/// One of the paper's four evaluation architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Target {
    /// DEC Alpha 21064: 64-bit, no integer divide instruction, scaled adds.
    Alpha,
    /// MIPS R3000/R4000: `multu` + `mfhi`, HI/LO registers.
    Mips,
    /// IBM POWER / PowerPC: `mulhwu`-style high multiply.
    Power,
    /// SPARC V8: `umul` + `rd %y`.
    Sparc,
    /// Intel x86 (386/486/Pentium — the Table 1.1 CISC rows): two-address
    /// code, multiply/divide through the implicit `EDX:EAX` pair.
    X86,
}

impl Target {
    /// All four targets, in the paper's column order.
    pub const ALL: [Target; 4] = [Target::Alpha, Target::Mips, Target::Power, Target::Sparc];

    /// Human-readable architecture name.
    pub fn name(self) -> &'static str {
        match self {
            Target::Alpha => "Alpha",
            Target::Mips => "MIPS",
            Target::Power => "POWER",
            Target::Sparc => "SPARC",
            Target::X86 => "x86",
        }
    }

    /// The allocatable temp registers, in allocation order, for a
    /// program that calls a division routine (`divides`) or not.
    fn temp_registers(self, divides: bool) -> &'static [&'static str] {
        match self {
            // Alpha's divide routines take their operands in $24/$25 and
            // return through $23, and they preserve the argument
            // registers: a program that divides allocates $18-$21
            // instead.
            Target::Alpha if divides => &[
                "$1", "$2", "$3", "$4", "$5", "$6", "$7", "$8", "$22", "$18", "$19", "$20", "$21",
            ],
            Target::Alpha => &[
                "$1", "$2", "$3", "$4", "$5", "$6", "$7", "$8", "$22", "$23", "$24", "$25",
            ],
            Target::Mips => &[
                "$4", "$5", "$6", "$7", "$8", "$9", "$10", "$11", "$12", "$13", "$14", "$15",
                "$24", "$25", "$2", "$3",
            ],
            Target::Power => &["3", "4", "5", "6", "7", "8", "9", "10", "11", "12"],
            Target::Sparc => &[
                "%o0", "%o1", "%o2", "%o3", "%o4", "%o5", "%g1", "%g2", "%g3", "%g4", "%l0", "%l1",
            ],
            // eax/edx are reserved: one-operand mul/div clobber them.
            Target::X86 => &["ecx", "ebx", "edi", "ebp"],
        }
    }

    /// The register holding argument `i` under the target's calling
    /// convention.
    ///
    /// # Panics
    ///
    /// Panics when the convention passes argument `i` on the stack (from
    /// the fifth argument on MIPS and the third on x86).
    pub fn arg_register(self, i: u32) -> &'static str {
        let regs: &[&str] = match self {
            Target::Alpha => &["$16", "$17", "$18", "$19", "$20", "$21"],
            Target::Mips => &["$4", "$5", "$6", "$7"],
            Target::Power => &["3", "4", "5", "6", "7", "8", "9", "10"],
            Target::Sparc => &["%o0", "%o1", "%o2", "%o3", "%o4", "%o5"],
            Target::X86 => &["eax", "edx"],
        };
        regs[i as usize]
    }

    /// The registers a function returns its two results in.
    fn return_registers(self) -> [&'static str; 2] {
        match self {
            Target::Alpha => ["$0", "$1"],
            Target::Mips => ["$2", "$3"],
            Target::Power => ["3", "4"],
            Target::Sparc => ["%o0", "%o1"],
            Target::X86 => ["eax", "edx"],
        }
    }

    /// The emission rules for a `width`-bit program.
    fn rules(self, width: u32) -> &'static Table {
        match self {
            Target::Alpha if width == 32 => &ALPHA_W32,
            Target::Alpha => &ALPHA,
            Target::Mips => &MIPS,
            Target::Power => &POWER,
            Target::Sparc => &SPARC,
            Target::X86 => &X86,
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One operand of an [`Ins`] template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A register or symbol name, rendered as is.
    Sym(&'static str),
    /// An integer rendered in decimal.
    Dec(u64),
    /// An integer rendered as a `0x`-prefixed hex immediate.
    Imm(u64),
}

impl From<&'static str> for Operand {
    fn from(name: &'static str) -> Operand {
        Operand::Sym(name)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Operand {
        Operand::Dec(u64::from(v))
    }
}

impl From<u64> for Operand {
    fn from(v: u64) -> Operand {
        Operand::Dec(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Operand::Sym(s) => f.write_str(s),
            Operand::Dec(v) => write!(f, "{v}"),
            Operand::Imm(v) => write!(f, "0x{v:x}"),
        }
    }
}

/// The most operands an [`Ins`] holds.
const MAX_OPERANDS: usize = 3;
/// The operand of an unused slot.
const BLANK: Operand = Operand::Sym("");

/// One machine instruction: a text template whose `{}` holes are filled,
/// in order, by up to three operands when the instruction is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ins {
    template: &'static str,
    ops: [Operand; MAX_OPERANDS],
    len: u8,
}

impl Ins {
    /// Builds an instruction from its template and operands (see
    /// [`ins!`]).
    ///
    /// # Panics
    ///
    /// Panics when given more than three operands. Debug builds also check
    /// that the template has one `{}` hole per operand.
    #[track_caller]
    pub(crate) fn new(template: &'static str, operands: &[Operand]) -> Ins {
        debug_assert_eq!(
            template.matches("{}").count(),
            operands.len(),
            "one operand per hole in {template:?}"
        );
        let mut ops = [BLANK; MAX_OPERANDS];
        ops[..operands.len()].copy_from_slice(operands);
        Ins {
            template,
            ops,
            len: operands.len() as u8,
        }
    }

    /// The operands, in template order.
    fn operands(&self) -> &[Operand] {
        &self.ops[..usize::from(self.len)]
    }

    /// `true` for a divide instruction or a call to a division routine.
    fn divides(&self) -> bool {
        let mn = self.template.split(' ').next().unwrap_or_default();
        let calls = |s: &str| s.contains("__div") || s.contains("__rem");
        mn.starts_with("div")
            || mn.starts_with("udiv")
            || mn.starts_with("sdiv")
            || calls(self.template)
            || self
                .operands()
                .iter()
                .any(|op| matches!(op, Operand::Sym(s) if calls(s)))
    }
}

impl fmt::Display for Ins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut pieces = self.template.split("{}");
        f.write_str(pieces.next().unwrap_or_default())?;
        for (op, piece) in self.operands().iter().zip(pieces) {
            write!(f, "{op}{piece}")?;
        }
        Ok(())
    }
}

/// Builds an [`Ins`] that reads like the text it renders:
/// `ins!("addq {},{},{}", ra, rb, dst)`.
macro_rules! ins {
    ($template:literal $(, $op:expr)* $(,)?) => {
        $crate::targets::Ins::new(
            $template,
            &[$($crate::targets::Operand::from($op)),*],
        )
    };
}
pub(crate) use ins;

/// One line of an assembly listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// A label, rendered flush left with a trailing `:`.
    Label(Cow<'static, str>),
    /// A comment, rendered as a tab-indented `# ` line.
    Comment(&'static str),
    /// A machine instruction, rendered tab-indented.
    Ins(Ins),
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Line::Label(name) => write!(f, "{name}:"),
            Line::Comment(text) => write!(f, "\t# {text}"),
            Line::Ins(ins) => write!(f, "\t{ins}"),
        }
    }
}

/// An emitted assembly listing. Its text is rendered by `Display`.
#[derive(Debug, Clone)]
pub struct Assembly {
    /// Which architecture the listing targets.
    pub target: Target,
    /// The listing, one typed line per text line.
    pub lines: Vec<Line>,
}

impl Assembly {
    /// Number of machine instructions (label and comment lines excluded).
    pub fn instruction_count(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| matches!(l, Line::Ins(_)))
            .count()
    }

    /// `true` if any instruction uses a divide mnemonic or calls a
    /// division routine (`__div*`, `__rem*`).
    pub fn uses_divide(&self) -> bool {
        self.lines
            .iter()
            .any(|l| matches!(l, Line::Ins(ins) if ins.divides()))
    }
}

impl fmt::Display for Assembly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in &self.lines {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

/// Emits `prog` as an assembly listing for `target`.
///
/// The 32-bit operation set is mapped per architecture; on Alpha (a 64-bit
/// machine) 32-bit programs are computed in 64-bit registers exactly as
/// the paper's Table 11.1 does, including expanding `MULUH` by a magic
/// constant into scaled adds when profitable.
///
/// # Panics
///
/// Panics if the program needs more simultaneously-live values than the
/// target's temp pool (never the case for the paper's sequences; the x86
/// pool of four is too small for the doubleword sequence).
///
/// # Examples
///
/// ```
/// use magicdiv::plan::UdivPlan;
/// use magicdiv_codegen::{emit_assembly, Target};
/// use magicdiv_ir::compile;
///
/// let prog = compile(UdivPlan::new(10, 32)?)?;
/// let asm = emit_assembly(&prog, Target::Mips, "udiv10");
/// assert!(asm.to_string().contains("multu"));
/// assert!(!asm.uses_divide());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn emit_assembly(prog: &Program, target: Target, name: &str) -> Assembly {
    let mut lines = Vec::with_capacity(2 * prog.insts().len() + 8);
    lines.push(Line::Label(Cow::Owned(name.to_owned())));
    Emitter::scope(prog, target, &mut lines, |e| {
        e.body();
        // Move results to return registers: a full-width table's
        // argument rule is a plain register move.
        let mv = target.rules(64)[Kind::Arg as usize];
        for (&r, ret) in prog.results().iter().zip(target.return_registers()) {
            let (src, ret) = (e.operand(r), Operand::Sym(ret));
            if src != ret {
                e.run(mv, ret, src, BLANK, 0);
            }
        }
    });
    let ret: &[&str] = match target {
        Target::Alpha => &["ret $31,($26),1"],
        Target::Mips => &["j $31"],
        Target::Power => &["br"],
        Target::Sparc => &["retl", "nop"],
        Target::X86 => &["ret"],
    };
    lines.extend(ret.iter().map(|&t| Line::Ins(Ins::new(t, &[]))));
    Assembly { target, lines }
}

/// A function body without prologue/epilogue: the instruction lines plus
/// where each result lives (used by the loop-kernel emitters).
#[derive(Debug, Clone)]
pub struct EmittedBody {
    /// Constant materializations (loop-invariant; emit before any loop).
    pub const_lines: Vec<Line>,
    /// The body's instruction and comment lines.
    pub lines: Vec<Line>,
    /// Each program result, in order: the register holding it, or on x86
    /// (which folds constants as immediates) the constant itself.
    pub results: Vec<Operand>,
}

/// Emits just the body of `prog` for `target` (no label, no return),
/// reporting where the results live.
pub fn emit_body(prog: &Program, target: Target) -> EmittedBody {
    let mut const_lines = Vec::with_capacity(2 * prog.insts().len());
    let (consts, results) = Emitter::scope(prog, target, &mut const_lines, |e| {
        let consts = e.body();
        (
            consts,
            prog.results().iter().map(|&r| e.operand(r)).collect(),
        )
    });
    let lines = const_lines.split_off(consts);
    EmittedBody {
        const_lines,
        lines,
        results,
    }
}

/// The IR operation kinds, in [`Op`] declaration order: the index of an
/// operation's rule in a [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Arg,
    Const,
    Add,
    Sub,
    Neg,
    MulL,
    MulUH,
    MulSH,
    And,
    Or,
    Eor,
    Not,
    Sll,
    Srl,
    Sra,
    Xsign,
    SltS,
    SltU,
    Carry,
    Borrow,
    DivU,
    DivS,
    RemU,
    RemS,
}

const KINDS: usize = Kind::RemS as usize + 1;

/// An operation's kind, its register operands and its shift count (0
/// for an operation without one).
fn decode(op: &Op) -> (Kind, Option<Reg>, Option<Reg>, u32) {
    let (kind, a, b, n) = match *op {
        Op::Arg(_) => (Kind::Arg, None, None, 0),
        Op::Const(_) => (Kind::Const, None, None, 0),
        Op::Add(a, b) => (Kind::Add, Some(a), Some(b), 0),
        Op::Sub(a, b) => (Kind::Sub, Some(a), Some(b), 0),
        Op::Neg(a) => (Kind::Neg, Some(a), None, 0),
        Op::MulL(a, b) => (Kind::MulL, Some(a), Some(b), 0),
        Op::MulUH(a, b) => (Kind::MulUH, Some(a), Some(b), 0),
        Op::MulSH(a, b) => (Kind::MulSH, Some(a), Some(b), 0),
        Op::And(a, b) => (Kind::And, Some(a), Some(b), 0),
        Op::Or(a, b) => (Kind::Or, Some(a), Some(b), 0),
        Op::Eor(a, b) => (Kind::Eor, Some(a), Some(b), 0),
        Op::Not(a) => (Kind::Not, Some(a), None, 0),
        Op::Sll(a, n) => (Kind::Sll, Some(a), None, n),
        Op::Srl(a, n) => (Kind::Srl, Some(a), None, n),
        Op::Sra(a, n) => (Kind::Sra, Some(a), None, n),
        Op::Xsign(a) => (Kind::Xsign, Some(a), None, 0),
        Op::SltS(a, b) => (Kind::SltS, Some(a), Some(b), 0),
        Op::SltU(a, b) => (Kind::SltU, Some(a), Some(b), 0),
        Op::Carry(a, b) => (Kind::Carry, Some(a), Some(b), 0),
        Op::Borrow(a, b) => (Kind::Borrow, Some(a), Some(b), 0),
        Op::DivU(a, b) => (Kind::DivU, Some(a), Some(b), 0),
        Op::DivS(a, b) => (Kind::DivS, Some(a), Some(b), 0),
        Op::RemU(a, b) => (Kind::RemU, Some(a), Some(b), 0),
        Op::RemS(a, b) => (Kind::RemS, Some(a), Some(b), 0),
    };
    (kind, a, b, n)
}

/// Where the operand filling one template hole comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// The destination register.
    D,
    /// The first operand: a register, an x86 immediate, or an argument's
    /// incoming register.
    A,
    /// The second operand.
    B,
    /// The shift count, in decimal.
    N,
    /// The word width minus one, in decimal.
    W1,
    /// No operand: pads a template's unused operand slots.
    Blank,
}

/// One step of an operation's emission rule.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// An instruction: its template, where each hole's operand comes
    /// from, and how many holes it has (see [`i`]).
    I(&'static str, [Src; MAX_OPERANDS], u8),
    /// A comment line.
    Note(&'static str),
    /// x86 two-address staging: `mov dst,a`, unless `a` already is `dst`.
    Stage,
    /// x86: an immediate operand that must be r/m is moved into `dst`,
    /// which then stands in for it.
    StageImm(Src),
}

use Src::{A, B, D, N, W1};
use Step::{Note, Stage, StageImm, I};

/// An instruction step: `template`'s holes are filled from `srcs`.
const fn i(template: &'static str, srcs: &[Src]) -> Step {
    let mut padded = [Src::Blank; MAX_OPERANDS];
    let mut k = 0;
    while k < srcs.len() {
        padded[k] = srcs[k];
        k += 1;
    }
    I(template, padded, srcs.len() as u8)
}

/// One emission rule per operation [`Kind`]. `Const` rules are empty:
/// constants are loaded before the body (see `Emitter::load_const`), or
/// on x86 folded as immediates.
type Table = [&'static [Step]; KINDS];

/// DEC Alpha at 64 bits, and at 8 and 16, whose values live in the low
/// bits of 64-bit registers.
const ALPHA: Table = [
    &[i("bis {},{},{}", &[A, A, D])],
    &[],
    &[i("addq {},{},{}", &[A, B, D])],
    &[i("subq {},{},{}", &[A, B, D])],
    &[i("subq $31,{},{}", &[A, D])],
    &[i("mulq {},{},{}", &[A, B, D])],
    &[i("umulh {},{},{}", &[A, B, D])],
    // No mulsh on Alpha: umulh + the §3 correction.
    &[
        i("umulh {},{},{}", &[A, B, D]),
        Note("mulsh correction: dst -= (a<0 ? b : 0) + (b<0 ? a : 0)"),
        i("sra {},63,$28", &[A]),
        i("and $28,{},$28", &[B]),
        i("subq {},$28,{}", &[D, D]),
        i("sra {},63,$28", &[B]),
        i("and $28,{},$28", &[A]),
        i("subq {},$28,{}", &[D, D]),
    ],
    &[i("and {},{},{}", &[A, B, D])],
    &[i("bis {},{},{}", &[A, B, D])],
    &[i("xor {},{},{}", &[A, B, D])],
    &[i("ornot $31,{},{}", &[A, D])],
    &[i("sll {},{},{}", &[A, N, D])],
    &[i("srl {},{},{}", &[A, N, D])],
    &[i("sra {},{},{}", &[A, N, D])],
    &[i("sra {},63,{}", &[A, D])],
    &[i("cmplt {},{},{}", &[A, B, D])],
    &[i("cmpult {},{},{}", &[A, B, D])],
    &[i("addq {},{},$28", &[A, B]), i("cmpult $28,{},{}", &[A, D])],
    &[i("cmpult {},{},{}", &[A, B, D])],
    // No divide instruction: a library call (the paper's Table 11.2
    // footnote).
    &[
        i("bis {},{},$24", &[A, A]),
        i("bis {},{},$25", &[B, B]),
        i("jsr $23,__divqu", &[]),
        i("bis $27,$27,{}", &[D]),
    ],
    &[
        i("bis {},{},$24", &[A, A]),
        i("bis {},{},$25", &[B, B]),
        i("jsr $23,__divq", &[]),
        i("bis $27,$27,{}", &[D]),
    ],
    &[
        i("bis {},{},$24", &[A, A]),
        i("bis {},{},$25", &[B, B]),
        i("jsr $23,__remqu", &[]),
        i("bis $27,$27,{}", &[D]),
    ],
    &[
        i("bis {},{},$24", &[A, A]),
        i("bis {},{},$25", &[B, B]),
        i("jsr $23,__remq", &[]),
        i("bis $27,$27,{}", &[D]),
    ],
];

/// Alpha at 32 bits: values run zero-extended in 64-bit registers, so
/// the argument is zero-extended (Table 11.1's `zapnot $16,15,$3`), a
/// high multiply is the 64-bit product shifted down, and left shifts,
/// arithmetic shifts and the carry work on the low 32 bits.
const ALPHA_W32: Table = {
    let mut t = ALPHA;
    t[Kind::Arg as usize] = &[i("zapnot {},15,{}", &[A, D])];
    t[Kind::MulUH as usize] = &[i("mulq {},{},{}", &[A, B, D]), i("srl {},32,{}", &[D, D])];
    t[Kind::MulSH as usize] = &[i("mulq {},{},{}", &[A, B, D]), i("sra {},32,{}", &[D, D])];
    t[Kind::Sll as usize] = &[i("sll {},{},{}", &[A, N, D]), i("zapnot {},15,{}", &[D, D])];
    // addl sign-extends bit 31 first.
    t[Kind::Sra as usize] = &[
        i("addl {},0,{}", &[A, D]),
        i("sra {},{},{}", &[D, N, D]),
        i("zapnot {},15,{}", &[D, D]),
    ];
    t[Kind::Xsign as usize] = &[
        i("addl {},0,{}", &[A, D]),
        i("sra {},31,{}", &[D, D]),
        i("zapnot {},15,{}", &[D, D]),
    ];
    // The carry is bit 32 of the exact 64-bit sum.
    t[Kind::Carry as usize] = &[i("addq {},{},$28", &[A, B]), i("srl $28,32,{}", &[D])];
    t
};

/// Alpha's scaled adds and subtract (`s4addq a,b,d` is `4*a + b`), by
/// whether the consumer subtracts and whether the folded shift is 3.
const SCALED: [[&[Step]; 2]; 2] = [
    [
        &[i("s4addq {},{},{}", &[A, B, D])],
        &[i("s8addq {},{},{}", &[A, B, D])],
    ],
    [
        &[i("s4subq {},{},{}", &[A, B, D])],
        &[i("s8subq {},{},{}", &[A, B, D])],
    ],
];

/// MIPS: `multu`/`mfhi` through HI/LO.
const MIPS: Table = [
    &[i("move {},{}", &[D, A])],
    &[],
    &[i("addu {},{},{}", &[D, A, B])],
    &[i("subu {},{},{}", &[D, A, B])],
    &[i("negu {},{}", &[D, A])],
    &[i("multu {},{}", &[A, B]), i("mflo {}", &[D])],
    &[i("multu {},{}", &[A, B]), i("mfhi {}", &[D])],
    &[i("mult {},{}", &[A, B]), i("mfhi {}", &[D])],
    &[i("and {},{},{}", &[D, A, B])],
    &[i("or {},{},{}", &[D, A, B])],
    &[i("xor {},{},{}", &[D, A, B])],
    &[i("nor {},{},$0", &[D, A])],
    &[i("sll {},{},{}", &[D, A, N])],
    &[i("srl {},{},{}", &[D, A, N])],
    &[i("sra {},{},{}", &[D, A, N])],
    &[i("sra {},{},{}", &[D, A, W1])],
    &[i("slt {},{},{}", &[D, A, B])],
    &[i("sltu {},{},{}", &[D, A, B])],
    // No carry flag: compare the wrapped sum against an addend.
    &[
        i("addu {},{},{}", &[D, A, B]),
        i("sltu {},{},{}", &[D, D, A]),
    ],
    &[i("sltu {},{},{}", &[D, A, B])],
    &[i("divu $0,{},{}", &[A, B]), i("mflo {}", &[D])],
    &[i("div $0,{},{}", &[A, B]), i("mflo {}", &[D])],
    &[i("divu $0,{},{}", &[A, B]), i("mfhi {}", &[D])],
    &[i("div $0,{},{}", &[A, B]), i("mfhi {}", &[D])],
];

/// POWER: three-address, destination first, `mulhwu` high multiplies.
const POWER: Table = [
    &[i("mr {},{}", &[D, A])],
    &[],
    &[i("a {},{},{}", &[D, A, B])],
    &[i("sf {},{},{}", &[D, B, A])],
    &[i("neg {},{}", &[D, A])],
    &[i("muls {},{},{}", &[D, A, B])],
    &[i("mulhwu {},{},{}", &[D, A, B])],
    &[i("mulhw {},{},{}", &[D, A, B])],
    &[i("and {},{},{}", &[D, A, B])],
    &[i("or {},{},{}", &[D, A, B])],
    &[i("xor {},{},{}", &[D, A, B])],
    &[i("sfi {},{},-1", &[D, A])],
    &[i("sli {},{},{}", &[D, A, N])],
    &[i("sri {},{},{}", &[D, A, N])],
    &[i("srai {},{},{}", &[D, A, N])],
    &[i("srai {},{},{}", &[D, A, W1])],
    // POWER lacks set-less-than; the classic expansion.
    &[
        Note("slt via subfc/subfe carry sequence"),
        i("slt.pseudo {},{},{}", &[D, A, B]),
    ],
    &[
        Note("slt via subfc/subfe carry sequence"),
        i("sltu.pseudo {},{},{}", &[D, A, B]),
    ],
    &[
        Note("carry-out via XER CA: a sets it, aze reads it"),
        i("a {},{},{}", &[D, A, B]),
        i("lil {},0", &[D]),
        i("aze {},{}", &[D, D]),
    ],
    &[
        Note("borrow = 1 - CA after subtract-from"),
        i("sf {},{},{}", &[D, B, A]),
        i("sfe {},{},{}", &[D, D, D]),
        i("neg {},{}", &[D, D]),
    ],
    &[i("divwu {},{},{}", &[D, A, B])],
    &[i("divw {},{},{}", &[D, A, B])],
    &[
        i("divwu {},{},{}", &[D, A, B]),
        i("muls {},{},{}", &[D, D, B]),
        i("sf {},{},{}", &[D, D, A]),
    ],
    &[
        i("divw {},{},{}", &[D, A, B]),
        i("muls {},{},{}", &[D, D, B]),
        i("sf {},{},{}", &[D, D, A]),
    ],
];

/// SPARC V8: three-address, destination last, `umul`/`rd %y`.
const SPARC: Table = [
    &[i("mov {},{}", &[A, D])],
    &[],
    &[i("add {},{},{}", &[A, B, D])],
    &[i("sub {},{},{}", &[A, B, D])],
    &[i("sub %g0,{},{}", &[A, D])],
    &[i("umul {},{},{}", &[A, B, D])],
    &[i("umul {},{},%g0", &[A, B]), i("rd %y,{}", &[D])],
    &[i("smul {},{},%g0", &[A, B]), i("rd %y,{}", &[D])],
    &[i("and {},{},{}", &[A, B, D])],
    &[i("or {},{},{}", &[A, B, D])],
    &[i("xor {},{},{}", &[A, B, D])],
    &[i("xnor {},%g0,{}", &[A, D])],
    &[i("sll {},{},{}", &[A, N, D])],
    &[i("srl {},{},{}", &[A, N, D])],
    &[i("sra {},{},{}", &[A, N, D])],
    &[i("sra {},{},{}", &[A, W1, D])],
    &[
        i("cmp {},{}", &[A, B]),
        i("addx %g0,0,{}", &[D]),
        Note("signed variant uses bl/set sequence on V8"),
    ],
    &[i("cmp {},{}", &[A, B]), i("addx %g0,0,{}", &[D])],
    &[i("addcc {},{},%g0", &[A, B]), i("addx %g0,0,{}", &[D])],
    &[i("cmp {},{}", &[A, B]), i("addx %g0,0,{}", &[D])],
    &[i("wr %g0,%g0,%y", &[]), i("udiv {},{},{}", &[A, B, D])],
    &[i("wr %g0,%g0,%y", &[]), i("sdiv {},{},{}", &[A, B, D])],
    &[
        i("wr %g0,%g0,%y", &[]),
        i("udiv {},{},{}", &[A, B, D]),
        i("smul {},{},{}", &[D, B, D]),
        i("sub {},{},{}", &[A, D, D]),
    ],
    &[
        i("wr %g0,%g0,%y", &[]),
        i("sdiv {},{},{}", &[A, B, D]),
        i("smul {},{},{}", &[D, B, D]),
        i("sub {},{},{}", &[A, D, D]),
    ],
];

/// x86: two-address code. Every value-producing op starts by staging
/// its first operand in `dst`; multiplies and divides go through
/// `EDX:EAX` (both outside the pool), and constants fold as `imm32`
/// operands (x86 has them; the pool only has four registers).
const X86: Table = [
    // eax is not in the pool, so the argument always moves.
    &[i("mov {},{}", &[D, A])],
    &[],
    &[Stage, i("add {},{}", &[D, B])],
    &[Stage, i("sub {},{}", &[D, B])],
    &[Stage, i("neg {}", &[D])],
    // imul r32, r/m32/imm32.
    &[Stage, i("imul {},{}", &[D, B])],
    // One-operand mul/imul: EDX:EAX = EAX * r/m32.
    &[
        i("mov eax,{}", &[A]),
        i("mul {}", &[B]),
        i("mov {},edx", &[D]),
    ],
    &[
        i("mov eax,{}", &[A]),
        i("imul {}", &[B]),
        i("mov {},edx", &[D]),
    ],
    &[Stage, i("and {},{}", &[D, B])],
    &[Stage, i("or {},{}", &[D, B])],
    &[Stage, i("xor {},{}", &[D, B])],
    &[Stage, i("not {}", &[D])],
    &[Stage, i("shl {},{}", &[D, N])],
    &[Stage, i("shr {},{}", &[D, N])],
    &[Stage, i("sar {},{}", &[D, N])],
    &[Stage, i("sar {},31", &[D])],
    // cmp's first operand must be r/m.
    &[
        StageImm(A),
        i("cmp {},{}", &[A, B]),
        i("setl dl", &[]),
        i("movzx {},dl", &[D]),
    ],
    &[
        StageImm(A),
        i("cmp {},{}", &[A, B]),
        i("setb dl", &[]),
        i("movzx {},dl", &[D]),
    ],
    // x86 has the real flag: add sets CF, setc materializes it.
    &[
        Stage,
        i("add {},{}", &[D, B]),
        i("setc dl", &[]),
        i("movzx {},dl", &[D]),
    ],
    // CF after cmp is the borrow.
    &[
        StageImm(A),
        i("cmp {},{}", &[A, B]),
        i("setb dl", &[]),
        i("movzx {},dl", &[D]),
    ],
    // The divisor must be r/m: an immediate is staged in dst, which is
    // read before the result overwrites it.
    &[
        i("mov eax,{}", &[A]),
        StageImm(B),
        i("xor edx,edx", &[]),
        i("div {}", &[B]),
        i("mov {},eax", &[D]),
    ],
    &[
        i("mov eax,{}", &[A]),
        StageImm(B),
        i("cdq", &[]),
        i("idiv {}", &[B]),
        i("mov {},eax", &[D]),
    ],
    &[
        i("mov eax,{}", &[A]),
        StageImm(B),
        i("xor edx,edx", &[]),
        i("div {}", &[B]),
        i("mov {},edx", &[D]),
    ],
    &[
        i("mov eax,{}", &[A]),
        StageImm(B),
        i("cdq", &[]),
        i("idiv {}", &[B]),
        i("mov {},edx", &[D]),
    ],
];

/// Allocation state of one value.
#[derive(Debug, Clone, Copy)]
struct Value {
    /// The register holding the value, numbered from 1 in pool order, or
    /// 0 for none.
    reg: u8,
    /// Alpha: 2 or 3 when the value is an `Sll` by that much folded into
    /// its one consumer's scaled add or subtract, else 0.
    fold: u8,
    /// Index of the instruction that reads the value last: the program
    /// length for a result or a constant (0, never consulted, when nothing
    /// reads it).
    last_use: u32,
    /// Reads by instructions and results.
    uses: u32,
}

impl Value {
    const FRESH: Value = Value {
        reg: 0,
        fold: 0,
        last_use: 0,
        uses: 0,
    };
}

/// Programs up to this many values keep their allocation state on the
/// stack; longer ones use one heap buffer.
const STACK_VALUES: usize = 64;
/// The largest temp pool (MIPS).
const MAX_POOL: usize = 16;

/// A linear scan over the IR with last-use register recycling, writing
/// one listing vector.
struct Emitter<'a> {
    target: Target,
    width: u32,
    insts: &'a [Op],
    rules: &'static Table,
    pool: &'static [&'static str],
    /// Free register numbers; allocation takes the last.
    free: [u8; MAX_POOL],
    n_free: usize,
    values: &'a mut [Value],
    out: &'a mut Vec<Line>,
}

impl Emitter<'_> {
    /// Runs `f` on an emitter for `prog` that appends to `out`.
    fn scope<R>(
        prog: &Program,
        target: Target,
        out: &mut Vec<Line>,
        f: impl FnOnce(&mut Emitter<'_>) -> R,
    ) -> R {
        let insts = prog.insts();
        let n = insts.len();
        let mut stack = [Value::FRESH; STACK_VALUES];
        let mut heap = Vec::new();
        let values = if n <= STACK_VALUES {
            &mut stack[..n]
        } else {
            heap.resize(n, Value::FRESH);
            &mut heap[..]
        };
        let end = n as u32;
        for (i, op) in insts.iter().enumerate() {
            for r in op.operands() {
                let v = &mut values[r.index()];
                v.last_use = i as u32;
                v.uses += 1;
            }
        }
        for r in prog.results() {
            let v = &mut values[r.index()];
            v.last_use = end; // live out
            v.uses += 1;
        }
        // Constants are hoisted out of loop kernels, so their registers
        // must never be recycled mid-body (iteration 2 would read a
        // clobbered register otherwise).
        for (v, op) in values.iter_mut().zip(insts) {
            if matches!(op, Op::Const(_)) {
                v.last_use = end;
            }
        }
        if target == Target::Alpha {
            // Fold an Sll by 2 or 3 into a scaled add only when its single
            // use is an Add (either operand) or the *scaled* (first)
            // operand of a Sub — s4subq computes 4*a - b, not a - 4*b. A
            // single use's index is its last use (a live-out value's
            // points past the end).
            for (i, op) in insts.iter().enumerate() {
                if let Op::Sll(_, sh @ (2 | 3)) = *op {
                    let v = &mut values[i];
                    let folds = v.uses == 1
                        && match insts.get(v.last_use as usize) {
                            Some(Op::Add(x, y)) => x.index() == i || y.index() == i,
                            Some(Op::Sub(x, _)) => x.index() == i,
                            _ => false,
                        };
                    if folds {
                        v.fold = sh as u8;
                    }
                }
            }
        }
        let divides = target == Target::Alpha && insts.iter().any(|op| op.class() == OpClass::Div);
        let pool = target.temp_registers(divides);
        let mut free = [0; MAX_POOL];
        for (slot, k) in free.iter_mut().zip((1..=pool.len() as u8).rev()) {
            *slot = k;
        }
        let mut e = Emitter {
            target,
            width: prog.width(),
            insts,
            rules: target.rules(prog.width()),
            pool,
            free,
            n_free: pool.len(),
            values,
            out,
        };
        f(&mut e)
    }

    /// Emits the constants, then the body; returns how many lines the
    /// constants took.
    fn body(&mut self) -> usize {
        let insts = self.insts;
        let start = self.out.len();
        // Pre-pass A: pin arguments to their calling-convention registers
        // when those registers are in the temp pool (MIPS/POWER/SPARC keep
        // x in the incoming register, as the paper's listings do).
        for (i, op) in insts.iter().enumerate() {
            if let Op::Arg(k) = *op {
                self.pin(i, self.target.arg_register(k));
            }
        }
        // Pre-pass B: materialize every constant, so constant registers
        // are claimed before any body instruction and (being live-out)
        // are never recycled — the loop emitters hoist these loads out of
        // the loop, which is only sound if no body instruction touches
        // them. (x86 folds constants as immediate operands instead.)
        if self.target != Target::X86 {
            for (i, op) in insts.iter().enumerate() {
                if let Op::Const(c) = *op {
                    let dst = self.alloc(i);
                    self.load_const(dst, c);
                }
            }
        }
        let consts = self.out.len() - start;
        for (i, op) in insts.iter().enumerate() {
            let (kind, a, b, n) = decode(op);
            let v = self.values[i];
            if kind == Kind::Const || (kind == Kind::Arg && v.reg != 0) {
                continue; // hoisted or an immediate; pinned in pre-pass A
            }
            if v.fold != 0 {
                // Folded into the consuming scaled add: emit nothing, but
                // keep the base live until the consumer.
                let base = &mut self.values[a.map_or(i, Reg::index)];
                base.last_use = base.last_use.max(v.last_use);
                continue;
            }
            self.emit_op(i, kind, a, b, n);
            self.release_dead(i, [a, b]);
        }
        consts
    }

    fn emit_op(&mut self, i: usize, kind: Kind, ra: Option<Reg>, rb: Option<Reg>, n: u32) {
        let fold = |r: Option<Reg>| r.map_or(0, |r| self.values[r.index()].fold);
        let (mut rule, fa, fb) = (self.rules[kind as usize], fold(ra), fold(rb));
        let operand = |r: Option<Reg>| r.map_or(BLANK, |r| self.operand(r));
        let (mut a, mut b) = if let Op::Arg(k) = self.insts[i] {
            (Operand::Sym(self.target.arg_register(k)), BLANK)
        } else if fa != 0 {
            // Alpha scaled-add folding: 4*x + y, 8*x + y, 4*x - y, 8*x - y.
            rule = SCALED[usize::from(kind == Kind::Sub)][usize::from(fa == 3)];
            (self.shift_base(ra), operand(rb))
        } else if fb != 0 {
            rule = SCALED[0][usize::from(fb == 3)];
            (self.shift_base(rb), operand(ra))
        } else {
            (operand(ra), operand(rb))
        };
        if matches!(kind, Kind::MulUH | Kind::MulSH) && matches!(b, Operand::Imm(_)) {
            // x86's one-operand multiply reads a register: a constant
            // goes in EAX instead (multiplication commutes).
            if matches!(a, Operand::Imm(_)) {
                unreachable!("const*const folds in the optimizer");
            }
            std::mem::swap(&mut a, &mut b);
        }
        let dst = self.alloc(i);
        if kind == Kind::Arg && a == dst {
            return; // already in its incoming register
        }
        self.run(rule, dst, a, b, n);
    }

    /// Appends `rule`'s lines for the given destination and operands.
    fn run(&mut self, rule: &[Step], dst: Operand, a: Operand, b: Operand, n: u32) {
        // The operand of each `Src`, in declaration order.
        let width_m1 = u64::from(self.width - 1);
        let mut slots = [
            dst,
            a,
            b,
            Operand::Dec(n.into()),
            Operand::Dec(width_m1),
            BLANK,
        ];
        for step in rule {
            match *step {
                I(template, srcs, len) => {
                    let ops = srcs.map(|src| slots[src as usize]);
                    self.out.push(Line::Ins(Ins { template, ops, len }));
                }
                Note(text) => self.out.push(Line::Comment(text)),
                Stage => {
                    if slots[A as usize] != dst {
                        let ins = ins!("mov {},{}", dst, slots[A as usize]);
                        self.out.push(Line::Ins(ins));
                    }
                }
                StageImm(src) => {
                    let op = &mut slots[src as usize];
                    if matches!(op, Operand::Imm(_)) {
                        let ins = ins!("mov {},{}", dst, *op);
                        self.out.push(Line::Ins(ins));
                        *op = dst;
                    }
                }
            }
        }
    }

    /// Splits a constant into the target's immediate forms.
    fn load_const(&mut self, dst: Operand, c: u64) {
        let c = c & mask(self.width);
        let (hi, lo) = ((c >> 16) & 0xffff, c & 0xffff);
        let mut emit = |ins: Ins| self.out.push(Line::Ins(ins));
        match self.target {
            Target::Alpha => {
                // lda/ldah build 32-bit constants; wider ones via shifts.
                // For listing purposes emit the canonical pair (or one lda).
                if c <= 0x7fff {
                    emit(ins!("lda {},{}", dst, c));
                } else if c <= 0xffff_ffff {
                    emit(ins!("ldah {},{}($31)", dst, hi));
                    if lo != 0 {
                        emit(ins!("lda {},{}({})", dst, lo, dst));
                    }
                } else {
                    emit(ins!("ldiq {},{}", dst, Operand::Imm(c))); // assembler macro
                }
            }
            Target::Mips if hi != 0 => {
                emit(ins!("lui {},{}", dst, Operand::Imm(hi)));
                if lo != 0 {
                    emit(ins!("ori {},{},{}", dst, dst, Operand::Imm(lo)));
                }
            }
            Target::Mips => emit(ins!("li {},{}", dst, Operand::Imm(lo))),
            Target::Power if hi != 0 => {
                emit(ins!("cau {},0,{}", dst, Operand::Imm(hi)));
                if lo != 0 {
                    emit(ins!("oril {},{},{}", dst, dst, Operand::Imm(lo)));
                }
            }
            Target::Power => emit(ins!("cal {},{}(0)", dst, Operand::Imm(lo))),
            Target::Sparc if c < 0x1000 => emit(ins!("mov {},{}", c, dst)),
            Target::Sparc => {
                emit(ins!("sethi %hi({}),{}", Operand::Imm(c), dst));
                if c & 0x3ff != 0 {
                    emit(ins!("or {},%lo({}),{}", dst, Operand::Imm(c), dst));
                }
            }
            Target::X86 => emit(ins!("mov {},{}", dst, Operand::Imm(c))),
        }
    }

    fn alloc(&mut self, value: usize) -> Operand {
        self.n_free = self
            .n_free
            .checked_sub(1)
            .expect("register pool exhausted (program too large for straight-line allocation)");
        let k = self.free[self.n_free];
        self.values[value].reg = k;
        self.name(k)
    }

    /// Claims the register `name` for `value` when it is free.
    fn pin(&mut self, value: usize, name: &str) {
        let free = &mut self.free[..self.n_free];
        if let Some(pos) = free
            .iter()
            .position(|&k| self.pool[usize::from(k) - 1] == name)
        {
            self.values[value].reg = free[pos];
            free.copy_within(pos + 1.., pos);
            self.n_free -= 1;
        }
    }

    /// Register number `k` (see [`Value::reg`]).
    fn name(&self, k: u8) -> Operand {
        Operand::Sym(self.pool[usize::from(k) - 1])
    }

    /// Where value `r` is read from: its register, or on x86 (which
    /// folds constants as immediates) the constant itself.
    fn operand(&self, r: Reg) -> Operand {
        match self.insts[r.index()] {
            Op::Const(c) if self.target == Target::X86 => Operand::Imm(c),
            _ => {
                let k = self.values[r.index()].reg;
                assert!(k != 0, "register allocator assigned every live value");
                self.name(k)
            }
        }
    }

    /// The register of a folded `Sll`'s shifted operand.
    fn shift_base(&self, r: Option<Reg>) -> Operand {
        match r.map(|r| self.insts[r.index()]) {
            Some(Op::Sll(base, _)) => self.operand(base),
            _ => unreachable!("only an Sll folds into a scaled add"),
        }
    }

    /// Frees the registers of the operands instruction `at` reads last.
    fn release_dead(&mut self, at: usize, operands: [Option<Reg>; 2]) {
        for r in operands.into_iter().flatten() {
            let v = &mut self.values[r.index()];
            if v.last_use == at as u32 && v.reg != 0 {
                self.free[self.n_free] = v.reg;
                self.n_free += 1;
                v.reg = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::divgen::gen_unsigned_divrem;
    use magicdiv::plan::{SdivPlan, UdivPlan};
    use magicdiv_ir::compile;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    /// The Table 11.1 kernel, `x / 10` at 32 bits.
    fn div10() -> Program {
        compile(UdivPlan::new(10, 32).expect("10 fits u32")).expect("w32 lowers")
    }

    #[test]
    fn every_template_has_one_slot_per_hole() {
        let tables = [&ALPHA, &ALPHA_W32, &MIPS, &POWER, &SPARC, &X86];
        let rules = tables
            .iter()
            .flat_map(|t| t.iter())
            .chain(SCALED.iter().flatten());
        for rule in rules {
            for step in rule.iter() {
                if let I(template, srcs, len) = *step {
                    let len = usize::from(len);
                    assert_eq!(template.matches("{}").count(), len, "{template}");
                    assert!(srcs[len..].iter().all(|&s| s == Src::Blank), "{template}");
                }
            }
        }
        for t in tables {
            assert!(t[Kind::Const as usize].is_empty());
        }
    }

    #[test]
    fn programs_past_the_stack_buffer_emit_like_short_ones() {
        // A chain of dependent adds of one constant: each add emits the
        // same lines, however long the chain, and 100 values take the
        // allocator's heap buffer.
        let chain = |len: usize| {
            let mut b = magicdiv_ir::Builder::new(32, 1);
            let c = b.constant(3);
            let mut x = b.arg(0);
            for _ in 0..len {
                x = b.push(Op::Add(x, c));
            }
            b.finish([x])
        };
        assert!(chain(100).insts().len() > STACK_VALUES);
        for t in [
            Target::Alpha,
            Target::Mips,
            Target::Power,
            Target::Sparc,
            Target::X86,
        ] {
            let count = |len| emit_assembly(&chain(len), t, "f").instruction_count();
            let per_add = (count(20) - count(10)) / 10;
            assert!(per_add >= 1, "{t}");
            assert_eq!(count(100), count(10) + 90 * per_add, "{t}");
        }
    }

    #[test]
    fn all_targets_emit_divide_free_magic_code() {
        for &t in &Target::ALL {
            let asm = emit_assembly(&div10(), t, "udiv10");
            assert!(!asm.uses_divide(), "{t}: {asm}");
            assert!(asm.instruction_count() >= 3, "{t}: {asm}");
        }
    }

    #[test]
    fn mips_uses_multu_mfhi() {
        let asm = emit_assembly(&div10(), Target::Mips, "f");
        let text = asm.to_string();
        assert!(text.contains("multu"), "{text}");
        assert!(text.contains("mfhi"), "{text}");
    }

    #[test]
    fn sparc_reads_y_register() {
        let asm = emit_assembly(&div10(), Target::Sparc, "f");
        let text = asm.to_string();
        assert!(text.contains("umul"), "{text}");
        assert!(text.contains("rd %y"), "{text}");
        assert!(text.contains("sethi"), "{text}");
    }

    #[test]
    fn power_uses_mulhwu() {
        let asm = emit_assembly(&div10(), Target::Power, "f");
        assert!(asm.to_string().contains("mulhwu"), "{asm}");
    }

    #[test]
    fn alpha_32bit_uses_full_product() {
        let asm = emit_assembly(&div10(), Target::Alpha, "f");
        let text = asm.to_string();
        assert!(text.contains("mulq"), "{text}");
        assert!(text.contains("srl"), "{text}");
        assert!(!asm.uses_divide());
    }

    #[test]
    fn alpha_hw_division_calls_library() {
        let prog = crate::divgen::gen_unsigned_div_hw(32);
        let asm = emit_assembly(&prog, Target::Alpha, "f");
        assert!(asm.uses_divide(), "{asm}");
        assert!(asm.to_string().contains("__divqu"), "{asm}");
    }

    #[test]
    fn signed_division_emits_everywhere() -> TestResult {
        for &t in &Target::ALL {
            for d in [3i128, -7, 16, -100] {
                let asm = emit_assembly(&compile(SdivPlan::new(d, 32)?)?, t, "sdiv");
                assert!(!asm.uses_divide(), "{t} d={d}: {asm}");
            }
        }
        Ok(())
    }

    #[test]
    fn divrem_emits_both_results() -> TestResult {
        let prog = gen_unsigned_divrem(&UdivPlan::new(10, 32)?)?;
        let text = emit_assembly(&prog, Target::Mips, "dr").to_string();
        // Two results moved into $2/$3 (or already there).
        assert!(text.contains("mfhi") || text.contains("mflo"), "{text}");
        Ok(())
    }

    #[test]
    fn register_pools_survive_long_programs() -> TestResult {
        // The d = 7 long sequence plus remainder on every target.
        let prog = gen_unsigned_divrem(&UdivPlan::new(7, 32)?)?;
        for &t in &Target::ALL {
            let asm = emit_assembly(&prog, t, "dr7");
            assert!(asm.instruction_count() > 0, "{t}");
        }
        Ok(())
    }

    #[test]
    fn alpha_divide_calls_clobber_no_live_value() {
        // Ten constants and both arguments live across a library divide:
        // `jsr $23,__divqu` and its operand copies into $24/$25 overwrite
        // those three registers, so no value may be allocated there.
        let mut b = magicdiv_ir::Builder::new(64, 2);
        let consts: Vec<Reg> = (1..=10).map(|c| b.constant(c * 1000 + 1)).collect();
        let mut x = b.push(Op::DivU(b.arg(0), b.arg(1)));
        for c in consts {
            x = b.push(Op::Add(x, c));
        }
        let text = emit_assembly(&b.finish([x]), Target::Alpha, "f").to_string();
        let clobbered = |line: &str| {
            ["$23", "$24", "$25"]
                .iter()
                .filter(|r| line.contains(*r))
                .count()
        };
        let lines: Vec<&str> = text.lines().filter(|l| clobbered(l) > 0).collect();
        // Only the two operand copies and the call name them, once each.
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines.iter().all(|l| clobbered(l) == 1), "{text}");
        assert!(lines[2].contains("jsr $23,__divqu"), "{text}");
    }
}
