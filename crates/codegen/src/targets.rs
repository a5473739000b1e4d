//! Assembly emission for the four architectures of Table 11.1: DEC Alpha,
//! MIPS, POWER and SPARC.
//!
//! The goal is to reproduce the *shape* of the paper's generated code —
//! the instruction kinds and counts, the absence of any divide
//! instruction, MIPS's `multu`/`mfhi` pair, SPARC's `umul`/`rd %y`, and
//! Alpha's scaled-add (`s4addq`/`s8addq`) expansion of the magic-constant
//! multiply — not 1994 GCC's exact register choices.
//!
//! Emission is a linear scan over the (already optimized) IR with
//! last-use register recycling; the straight-line programs the paper
//! generates never exceed a RISC temp pool.

use std::borrow::Cow;
use std::fmt;

use magicdiv_ir::{mask, Op, Program, Reg};

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

    /// The allocatable temp registers, in allocation order.
    fn temp_registers(self) -> &'static [&'static str] {
        match self {
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

/// One machine instruction: a text template whose `{}` holes are filled,
/// in order, by up to four operands when the instruction is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ins {
    template: &'static str,
    ops: [Operand; 4],
    len: u8,
}

impl Ins {
    /// Builds an instruction from its template and operands (see
    /// [`ins!`]).
    ///
    /// # Panics
    ///
    /// Panics when given more than four operands. Debug builds also check
    /// that the template has one `{}` hole per operand.
    #[track_caller]
    pub(crate) fn new(template: &'static str, operands: &[Operand]) -> Ins {
        debug_assert_eq!(
            template.matches("{}").count(),
            operands.len(),
            "one operand per hole in {template:?}"
        );
        let mut ops = [Operand::Sym(""); 4];
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

    /// The mnemonic: the template's first word, or the first operand when
    /// the template starts with a hole.
    fn mnemonic(&self) -> &'static str {
        let head = self.template.split(' ').next().unwrap_or_default();
        match (head, self.ops[0]) {
            ("{}", Operand::Sym(mn)) => mn,
            _ => head,
        }
    }

    /// `true` for a divide instruction or a call to a division routine.
    fn divides(&self) -> bool {
        let mn = self.mnemonic();
        mn.starts_with("div")
            || mn.starts_with("udiv")
            || mn.starts_with("sdiv")
            || self.operands().iter().any(|op| {
                matches!(op, Operand::Sym(s) if s.starts_with("__div") || s.starts_with("__rem"))
            })
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

struct Emitter {
    target: Target,
    lines: Vec<Line>,
    /// Constant materializations, kept separate so loop emitters can hoist
    /// them out of the loop body (as the paper's listings do).
    const_lines: Vec<Line>,
    emit_to_consts: bool,
    /// Free temp registers (reverse-ordered stack).
    free: Vec<&'static str>,
    /// value index -> currently assigned register.
    loc: Vec<Option<&'static str>>,
    /// value index -> index of its last use.
    last_use: Vec<usize>,
    use_count: Vec<usize>,
}

impl Emitter {
    fn new(target: Target, prog: &Program) -> Self {
        let n = prog.insts().len();
        let mut last_use = vec![usize::MAX; n];
        let mut use_count = vec![0usize; n];
        for (i, op) in prog.insts().iter().enumerate() {
            for r in op.operands() {
                last_use[r.index()] = i;
                use_count[r.index()] += 1;
            }
        }
        for r in prog.results() {
            last_use[r.index()] = n; // live out
            use_count[r.index()] += 1;
        }
        // Constants are hoisted out of loop kernels, so their registers
        // must never be recycled mid-body (iteration 2 would read a
        // clobbered register otherwise).
        for (i, op) in prog.insts().iter().enumerate() {
            if matches!(op, Op::Const(_)) {
                last_use[i] = n;
            }
        }
        Emitter {
            target,
            lines: Vec::with_capacity(2 * n),
            const_lines: Vec::new(),
            emit_to_consts: false,
            free: target.temp_registers().iter().rev().copied().collect(),
            loc: vec![None; n],
            last_use,
            use_count,
        }
    }

    fn emit(&mut self, ins: Ins) {
        if self.emit_to_consts {
            self.const_lines.push(Line::Ins(ins));
        } else {
            self.lines.push(Line::Ins(ins));
        }
    }

    fn comment(&mut self, text: &'static str) {
        self.lines.push(Line::Comment(text));
    }

    fn alloc(&mut self, value: usize) -> &'static str {
        let reg = self
            .free
            .pop()
            .expect("register pool exhausted (program too large for straight-line allocation)");
        self.loc[value] = Some(reg);
        reg
    }

    /// Claims a specific register from the pool for `value`; returns
    /// `false` when the register is not in the pool.
    fn alloc_specific(&mut self, value: usize, name: &str) -> bool {
        match self.free.iter().position(|&r| r == name) {
            Some(pos) => {
                self.loc[value] = Some(self.free.remove(pos));
                true
            }
            None => false,
        }
    }

    fn reg(&self, r: Reg) -> &'static str {
        self.loc[r.index()].expect("register allocator assigned every live value")
    }

    fn release_dead(&mut self, at: usize, op: &Op) {
        for r in op.operands() {
            if self.last_use[r.index()] == at {
                if let Some(reg) = self.loc[r.index()].take() {
                    self.free.push(reg);
                }
            }
        }
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
/// use magicdiv_codegen::{gen_unsigned_div, emit_assembly, Target};
///
/// let prog = gen_unsigned_div(10, 32);
/// let asm = emit_assembly(&prog, Target::Mips, "udiv10");
/// assert!(asm.to_string().contains("multu"));
/// assert!(!asm.uses_divide());
/// ```
pub fn emit_assembly(prog: &Program, target: Target, name: &str) -> Assembly {
    let body = emit_body(prog, target);
    let mut lines = Vec::with_capacity(body.const_lines.len() + body.lines.len() + 5);
    lines.push(Line::Label(Cow::Owned(name.to_owned())));
    lines.extend(body.const_lines);
    lines.extend(body.lines);
    // Move results to return registers.
    for (&src, dst) in body.results.iter().zip(target.return_registers()) {
        if src != Operand::Sym(dst) {
            lines.push(Line::Ins(match target {
                Target::Alpha => ins!("bis {},{},{}", src, src, dst),
                Target::Mips => ins!("move {},{}", dst, src),
                Target::Power => ins!("mr {},{}", dst, src),
                Target::Sparc => ins!("mov {},{}", src, dst),
                Target::X86 => ins!("mov {},{}", dst, src),
            }));
        }
    }
    let ret: &[Ins] = match target {
        Target::Alpha => &[ins!("ret $31,($26),1")],
        Target::Mips => &[ins!("j $31")],
        Target::Power => &[ins!("br")],
        Target::Sparc => &[ins!("retl"), ins!("nop")],
        Target::X86 => &[ins!("ret")],
    };
    lines.extend(ret.iter().copied().map(Line::Ins));
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
    let mut e = Emitter::new(target, prog);
    let w = prog.width();
    let insts = prog.insts();

    // Alpha fold map: value index -> (base reg value, shift) for an Sll by
    // 2 or 3 that is folded into a scaled add.
    let alpha_fold: Vec<Option<(Reg, u32)>> = if target == Target::Alpha {
        insts
            .iter()
            .enumerate()
            .map(|(i, op)| match *op {
                // Only fold when the single use is an Add (either operand)
                // or the *scaled* (first) operand of a Sub — s4subq
                // computes 4*a - b, not a - 4*b. A single use's index is
                // its last use (a live-out value's points past the end).
                Op::Sll(a, sh @ (2 | 3)) if e.use_count[i] == 1 => match insts.get(e.last_use[i]) {
                    Some(Op::Add(x, y)) if x.index() == i || y.index() == i => Some((a, sh)),
                    Some(Op::Sub(x, _)) if x.index() == i => Some((a, sh)),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    } else {
        Vec::new()
    };

    // Pre-pass A: pin arguments to their calling-convention registers
    // when those registers are in the temp pool (MIPS/POWER/SPARC keep x
    // in the incoming register, as the paper's listings do).
    for (i, op) in insts.iter().enumerate() {
        if let Op::Arg(k) = op {
            e.alloc_specific(i, target.arg_register(*k));
        }
    }
    // Pre-pass B: materialize every constant, so constant registers are
    // claimed before any body instruction and (being live-out) are never
    // recycled — the loop emitters hoist these loads out of the loop,
    // which is only sound if no body instruction touches them. (x86 folds
    // constants as immediate operands instead — it has imm32 forms and
    // only four free registers.)
    if target != Target::X86 {
        e.emit_to_consts = true;
        for (i, op) in insts.iter().enumerate() {
            if let Op::Const(c) = op {
                let dst = e.alloc(i);
                load_const(&mut e, dst, *c, w);
            }
        }
        e.emit_to_consts = false;
    }

    for (i, op) in insts.iter().enumerate() {
        if matches!(op, Op::Const(_)) && target != Target::X86 {
            continue; // materialized in the pre-pass
        }
        if matches!(op, Op::Arg(_)) && e.loc[i].is_some() {
            continue; // pinned to its incoming register in pre-pass A
        }
        if let Some(&Some((base, _))) = alpha_fold.get(i) {
            // Folded into the consuming scaled add; emit nothing, but the
            // base must stay live until the consumer — conservatively keep
            // our own last_use bookkeeping: extend base's last use.
            let consumer = e.last_use[i];
            if e.last_use[base.index()] < consumer {
                e.last_use[base.index()] = consumer;
            }
            continue;
        }
        emit_one(&mut e, prog, i, op, w, &alpha_fold);
        e.release_dead(i, op);
    }

    let results = prog
        .results()
        .iter()
        .map(|&r| match insts[r.index()] {
            Op::Const(c) if target == Target::X86 => Operand::Imm(c),
            _ => Operand::Sym(e.reg(r)),
        })
        .collect();
    EmittedBody {
        const_lines: e.const_lines,
        lines: e.lines,
        results,
    }
}

fn load_const(e: &mut Emitter, dst: &'static str, c: u64, width: u32) {
    let c = c & mask(width);
    match e.target {
        Target::Alpha => {
            // lda/ldah build 32-bit constants; wider ones via shifts. For
            // listing purposes emit the canonical pair (or one lda).
            if c <= 0x7fff {
                e.emit(ins!("lda {},{}", dst, c));
            } else if c <= 0xffff_ffff {
                let hi = (c >> 16) & 0xffff;
                let lo = c & 0xffff;
                e.emit(ins!("ldah {},{}($31)", dst, hi));
                if lo != 0 {
                    e.emit(ins!("lda {},{}({})", dst, lo, dst));
                }
            } else {
                e.emit(ins!("ldiq {},{}", dst, Operand::Imm(c))); // assembler macro
            }
        }
        Target::Mips => {
            let hi = (c >> 16) & 0xffff;
            let lo = c & 0xffff;
            if hi != 0 {
                e.emit(ins!("lui {},{}", dst, Operand::Imm(hi)));
                if lo != 0 {
                    e.emit(ins!("ori {},{},{}", dst, dst, Operand::Imm(lo)));
                }
            } else {
                e.emit(ins!("li {},{}", dst, Operand::Imm(lo)));
            }
        }
        Target::Power => {
            let hi = (c >> 16) & 0xffff;
            let lo = c & 0xffff;
            if hi != 0 {
                e.emit(ins!("cau {},0,{}", dst, Operand::Imm(hi)));
                if lo != 0 {
                    e.emit(ins!("oril {},{},{}", dst, dst, Operand::Imm(lo)));
                }
            } else {
                e.emit(ins!("cal {},{}(0)", dst, Operand::Imm(lo)));
            }
        }
        Target::Sparc => {
            if c < 0x1000 {
                e.emit(ins!("mov {},{}", c, dst));
            } else {
                e.emit(ins!("sethi %hi({}),{}", Operand::Imm(c), dst));
                if c & 0x3ff != 0 {
                    e.emit(ins!("or {},%lo({}),{}", dst, Operand::Imm(c), dst));
                }
            }
        }
        Target::X86 => {
            e.emit(ins!("mov {},{}", dst, Operand::Imm(c)));
        }
    }
}

#[allow(clippy::too_many_lines)]
fn emit_one(
    e: &mut Emitter,
    prog: &Program,
    i: usize,
    op: &Op,
    w: u32,
    alpha_fold: &[Option<(Reg, u32)>],
) {
    if e.target == Target::X86 {
        emit_one_x86(e, prog, i, op);
        return;
    }
    // Resolve an operand that may be a folded Alpha scaled shift.
    let scaled = |e: &Emitter, r: Reg| -> Option<(&'static str, u32)> {
        alpha_fold
            .get(r.index())
            .copied()
            .flatten()
            .map(|(base, sh)| (e.reg(base), sh))
    };
    match *op {
        Op::Arg(k) => {
            let argreg = e.target.arg_register(k);
            let dst = e.alloc(i);
            if dst != argreg {
                match e.target {
                    Target::Alpha => {
                        if w == 32 {
                            // zapnot zero-extends the 32-bit argument into
                            // the 64-bit working register (Table 11.1's
                            // `zapnot $16,15,$3`).
                            e.emit(ins!("zapnot {},15,{}", argreg, dst));
                        } else {
                            e.emit(ins!("bis {},{},{}", argreg, argreg, dst));
                        }
                    }
                    Target::Mips => e.emit(ins!("move {},{}", dst, argreg)),
                    Target::Power => e.emit(ins!("mr {},{}", dst, argreg)),
                    Target::Sparc => e.emit(ins!("mov {},{}", argreg, dst)),
                    Target::X86 => unreachable!("x86 uses emit_one_x86"),
                }
            }
        }
        Op::Const(c) => {
            let dst = e.alloc(i);
            load_const(e, dst, c, w);
        }
        Op::Add(a, b) => {
            // Alpha scaled-add folding: 4*x + y / 8*x + y.
            if e.target == Target::Alpha {
                if let Some((base, sh)) = scaled(e, a) {
                    let yb = e.reg(b);
                    let dst = e.alloc(i);
                    let mn = if sh == 2 { "s4addq" } else { "s8addq" };
                    e.emit(ins!("{} {},{},{}", mn, base, yb, dst));
                    return;
                }
                if let Some((base, sh)) = scaled(e, b) {
                    let ya = e.reg(a);
                    let dst = e.alloc(i);
                    let mn = if sh == 2 { "s4addq" } else { "s8addq" };
                    e.emit(ins!("{} {},{},{}", mn, base, ya, dst));
                    return;
                }
            }
            let (ra, rb) = (e.reg(a), e.reg(b));
            let dst = e.alloc(i);
            match e.target {
                Target::Alpha => e.emit(ins!("addq {},{},{}", ra, rb, dst)),
                Target::Mips => e.emit(ins!("addu {},{},{}", dst, ra, rb)),
                Target::Power => e.emit(ins!("a {},{},{}", dst, ra, rb)),
                Target::Sparc => e.emit(ins!("add {},{},{}", ra, rb, dst)),
                Target::X86 => unreachable!("x86 uses emit_one_x86"),
            }
        }
        Op::Sub(a, b) => {
            if e.target == Target::Alpha {
                if let Some((base, sh)) = scaled(e, a) {
                    let yb = e.reg(b);
                    let dst = e.alloc(i);
                    let mn = if sh == 2 { "s4subq" } else { "s8subq" };
                    e.emit(ins!("{} {},{},{}", mn, base, yb, dst));
                    return;
                }
            }
            let (ra, rb) = (e.reg(a), e.reg(b));
            let dst = e.alloc(i);
            match e.target {
                Target::Alpha => e.emit(ins!("subq {},{},{}", ra, rb, dst)),
                Target::Mips => e.emit(ins!("subu {},{},{}", dst, ra, rb)),
                Target::Power => e.emit(ins!("sf {},{},{}", dst, rb, ra)),
                Target::Sparc => e.emit(ins!("sub {},{},{}", ra, rb, dst)),
                Target::X86 => unreachable!("x86 uses emit_one_x86"),
            }
        }
        Op::Neg(a) => {
            let ra = e.reg(a);
            let dst = e.alloc(i);
            match e.target {
                Target::Alpha => e.emit(ins!("subq $31,{},{}", ra, dst)),
                Target::Mips => e.emit(ins!("negu {},{}", dst, ra)),
                Target::Power => e.emit(ins!("neg {},{}", dst, ra)),
                Target::Sparc => e.emit(ins!("sub %g0,{},{}", ra, dst)),
                Target::X86 => unreachable!("x86 uses emit_one_x86"),
            }
        }
        Op::MulL(a, b) => {
            let (ra, rb) = (e.reg(a), e.reg(b));
            let dst = e.alloc(i);
            match e.target {
                Target::Alpha => e.emit(ins!("mulq {},{},{}", ra, rb, dst)),
                Target::Mips => {
                    e.emit(ins!("multu {},{}", ra, rb));
                    e.emit(ins!("mflo {}", dst));
                }
                Target::Power => e.emit(ins!("muls {},{},{}", dst, ra, rb)),
                Target::Sparc => e.emit(ins!("umul {},{},{}", ra, rb, dst)),
                Target::X86 => unreachable!("x86 uses emit_one_x86"),
            }
        }
        Op::MulUH(a, b) => {
            let (ra, rb) = (e.reg(a), e.reg(b));
            let dst = e.alloc(i);
            match e.target {
                Target::Alpha => {
                    if w == 32 {
                        // 64-bit full product then a 32-bit shift down.
                        e.emit(ins!("mulq {},{},{}", ra, rb, dst));
                        e.emit(ins!("srl {},32,{}", dst, dst));
                    } else {
                        e.emit(ins!("umulh {},{},{}", ra, rb, dst));
                    }
                }
                Target::Mips => {
                    e.emit(ins!("multu {},{}", ra, rb));
                    e.emit(ins!("mfhi {}", dst));
                }
                Target::Power => e.emit(ins!("mulhwu {},{},{}", dst, ra, rb)),
                Target::Sparc => {
                    e.emit(ins!("umul {},{},%g0", ra, rb));
                    e.emit(ins!("rd %y,{}", dst));
                }
                Target::X86 => unreachable!("x86 uses emit_one_x86"),
            }
        }
        Op::MulSH(a, b) => {
            let (ra, rb) = (e.reg(a), e.reg(b));
            let dst = e.alloc(i);
            match e.target {
                Target::Alpha => {
                    if w == 32 {
                        e.emit(ins!("mulq {},{},{}", ra, rb, dst));
                        e.emit(ins!("sra {},32,{}", dst, dst));
                    } else {
                        // No mulsh on Alpha: umulh + the §3 correction.
                        e.emit(ins!("umulh {},{},{}", ra, rb, dst));
                        e.comment("mulsh correction: dst -= (a<0 ? b : 0) + (b<0 ? a : 0)");
                        e.emit(ins!("sra {},63,$28", ra));
                        e.emit(ins!("and $28,{},$28", rb));
                        e.emit(ins!("subq {},$28,{}", dst, dst));
                        e.emit(ins!("sra {},63,$28", rb));
                        e.emit(ins!("and $28,{},$28", ra));
                        e.emit(ins!("subq {},$28,{}", dst, dst));
                    }
                }
                Target::Mips => {
                    e.emit(ins!("mult {},{}", ra, rb));
                    e.emit(ins!("mfhi {}", dst));
                }
                Target::Power => e.emit(ins!("mulhw {},{},{}", dst, ra, rb)),
                Target::Sparc => {
                    e.emit(ins!("smul {},{},%g0", ra, rb));
                    e.emit(ins!("rd %y,{}", dst));
                }
                Target::X86 => unreachable!("x86 uses emit_one_x86"),
            }
        }
        Op::And(a, b) | Op::Or(a, b) | Op::Eor(a, b) => {
            let (ra, rb) = (e.reg(a), e.reg(b));
            let dst = e.alloc(i);
            let (alpha, mips, power, sparc) = match op {
                Op::And(..) => ("and", "and", "and", "and"),
                Op::Or(..) => ("bis", "or", "or", "or"),
                _ => ("xor", "xor", "xor", "xor"),
            };
            match e.target {
                Target::Alpha => e.emit(ins!("{} {},{},{}", alpha, ra, rb, dst)),
                Target::Mips => e.emit(ins!("{} {},{},{}", mips, dst, ra, rb)),
                Target::Power => e.emit(ins!("{} {},{},{}", power, dst, ra, rb)),
                Target::Sparc => e.emit(ins!("{} {},{},{}", sparc, ra, rb, dst)),
                Target::X86 => unreachable!("x86 uses emit_one_x86"),
            }
        }
        Op::Not(a) => {
            let ra = e.reg(a);
            let dst = e.alloc(i);
            match e.target {
                Target::Alpha => e.emit(ins!("ornot $31,{},{}", ra, dst)),
                Target::Mips => e.emit(ins!("nor {},{},$0", dst, ra)),
                Target::Power => e.emit(ins!("sfi {},{},-1", dst, ra)),
                Target::Sparc => e.emit(ins!("xnor {},%g0,{}", ra, dst)),
                Target::X86 => unreachable!("x86 uses emit_one_x86"),
            }
        }
        Op::Sll(a, n) | Op::Srl(a, n) | Op::Sra(a, n) => {
            let ra = e.reg(a);
            let dst = e.alloc(i);
            let kind = match op {
                Op::Sll(..) => 0,
                Op::Srl(..) => 1,
                _ => 2,
            };
            match e.target {
                Target::Alpha => {
                    // 32-bit programs run zero-extended in 64-bit regs:
                    // logical shifts need the 64-bit counts adjusted only
                    // for SRA (sign lives at bit 31). Keep it simple: for
                    // w == 32 sra first sign-extends with addl.
                    match kind {
                        0 => {
                            e.emit(ins!("sll {},{},{}", ra, n, dst));
                            if w == 32 {
                                e.emit(ins!("zapnot {},15,{}", dst, dst));
                            }
                        }
                        1 => e.emit(ins!("srl {},{},{}", ra, n, dst)),
                        _ => {
                            if w == 32 {
                                e.emit(ins!("addl {},0,{}", ra, dst)); // sign-extend
                                e.emit(ins!("sra {},{},{}", dst, n, dst));
                                e.emit(ins!("zapnot {},15,{}", dst, dst));
                            } else {
                                e.emit(ins!("sra {},{},{}", ra, n, dst));
                            }
                        }
                    }
                }
                Target::Mips => {
                    let mn = ["sll", "srl", "sra"][kind];
                    e.emit(ins!("{} {},{},{}", mn, dst, ra, n));
                }
                Target::Power => {
                    let mn = ["sli", "sri", "srai"][kind];
                    e.emit(ins!("{} {},{},{}", mn, dst, ra, n));
                }
                Target::Sparc => {
                    let mn = ["sll", "srl", "sra"][kind];
                    e.emit(ins!("{} {},{},{}", mn, ra, n, dst));
                }
                Target::X86 => unreachable!("x86 uses emit_one_x86"),
            }
        }
        Op::Xsign(a) => {
            let ra = e.reg(a);
            let dst = e.alloc(i);
            let n = w - 1;
            match e.target {
                Target::Alpha => {
                    if w == 32 {
                        e.emit(ins!("addl {},0,{}", ra, dst));
                        e.emit(ins!("sra {},31,{}", dst, dst));
                        e.emit(ins!("zapnot {},15,{}", dst, dst));
                    } else {
                        e.emit(ins!("sra {},63,{}", ra, dst));
                    }
                }
                Target::Mips => e.emit(ins!("sra {},{},{}", dst, ra, n)),
                Target::Power => e.emit(ins!("srai {},{},{}", dst, ra, n)),
                Target::Sparc => e.emit(ins!("sra {},{},{}", ra, n, dst)),
                Target::X86 => unreachable!("x86 uses emit_one_x86"),
            }
        }
        Op::SltS(a, b) | Op::SltU(a, b) => {
            let (ra, rb) = (e.reg(a), e.reg(b));
            let dst = e.alloc(i);
            let signed = matches!(op, Op::SltS(..));
            match e.target {
                Target::Alpha => {
                    let mn = if signed { "cmplt" } else { "cmpult" };
                    e.emit(ins!("{} {},{},{}", mn, ra, rb, dst));
                }
                Target::Mips => {
                    let mn = if signed { "slt" } else { "sltu" };
                    e.emit(ins!("{} {},{},{}", mn, dst, ra, rb));
                }
                Target::Power => {
                    // POWER lacks set-less-than; the classic expansion.
                    e.comment("slt via subfc/subfe carry sequence");
                    let mn = if signed { "slt.pseudo" } else { "sltu.pseudo" };
                    e.emit(ins!("{} {},{},{}", mn, dst, ra, rb));
                }
                Target::Sparc => {
                    e.emit(ins!("cmp {},{}", ra, rb));
                    e.emit(ins!("addx %g0,0,{}", dst));
                    if signed {
                        e.comment("signed variant uses bl/set sequence on V8");
                    }
                }
                Target::X86 => unreachable!("x86 uses emit_one_x86"),
            }
        }
        Op::Carry(a, b) => {
            // Carry-out of the unsigned word add (the Fig 8.1 doubleword
            // sums). Machines with a carry flag read it directly; the
            // others recompute it as an unsigned compare of the wrapped
            // sum against an addend.
            let (ra, rb) = (e.reg(a), e.reg(b));
            let dst = e.alloc(i);
            match e.target {
                Target::Alpha => {
                    if w == 32 {
                        // Zero-extended 32-bit operands: the carry is
                        // bit 32 of the exact 64-bit sum.
                        e.emit(ins!("addq {},{},$28", ra, rb));
                        e.emit(ins!("srl $28,32,{}", dst));
                    } else {
                        e.emit(ins!("addq {},{},$28", ra, rb));
                        e.emit(ins!("cmpult $28,{},{}", ra, dst));
                    }
                }
                Target::Mips => {
                    e.emit(ins!("addu {},{},{}", dst, ra, rb));
                    e.emit(ins!("sltu {},{},{}", dst, dst, ra));
                }
                Target::Power => {
                    e.comment("carry-out via XER CA: a sets it, aze reads it");
                    e.emit(ins!("a {},{},{}", dst, ra, rb));
                    e.emit(ins!("lil {},0", dst));
                    e.emit(ins!("aze {},{}", dst, dst));
                }
                Target::Sparc => {
                    e.emit(ins!("addcc {},{},%g0", ra, rb));
                    e.emit(ins!("addx %g0,0,{}", dst));
                }
                Target::X86 => unreachable!("x86 uses emit_one_x86"),
            }
        }
        Op::Borrow(a, b) => {
            // Borrow-out of the unsigned word subtract: exactly the
            // unsigned a < b compare.
            let (ra, rb) = (e.reg(a), e.reg(b));
            let dst = e.alloc(i);
            match e.target {
                Target::Alpha => e.emit(ins!("cmpult {},{},{}", ra, rb, dst)),
                Target::Mips => e.emit(ins!("sltu {},{},{}", dst, ra, rb)),
                Target::Power => {
                    e.comment("borrow = 1 - CA after subtract-from");
                    e.emit(ins!("sf {},{},{}", dst, rb, ra));
                    e.emit(ins!("sfe {},{},{}", dst, dst, dst));
                    e.emit(ins!("neg {},{}", dst, dst));
                }
                Target::Sparc => {
                    e.emit(ins!("cmp {},{}", ra, rb));
                    e.emit(ins!("addx %g0,0,{}", dst));
                }
                Target::X86 => unreachable!("x86 uses emit_one_x86"),
            }
        }
        Op::DivU(a, b) | Op::DivS(a, b) | Op::RemU(a, b) | Op::RemS(a, b) => {
            let (ra, rb) = (e.reg(a), e.reg(b));
            let dst = e.alloc(i);
            let (unsigned, rem) = match op {
                Op::DivU(..) => (true, false),
                Op::DivS(..) => (false, false),
                Op::RemU(..) => (true, true),
                _ => (false, true),
            };
            match e.target {
                Target::Alpha => {
                    // No divide instruction: a library call (the paper's
                    // Table 11.2 footnote).
                    let f = match (unsigned, rem) {
                        (true, false) => "__divqu",
                        (false, false) => "__divq",
                        (true, true) => "__remqu",
                        (false, true) => "__remq",
                    };
                    e.emit(ins!("bis {},{},$24", ra, ra));
                    e.emit(ins!("bis {},{},$25", rb, rb));
                    e.emit(ins!("jsr $23,{}", f));
                    e.emit(ins!("bis $27,$27,{}", dst));
                }
                Target::Mips => {
                    let mn = if unsigned { "divu" } else { "div" };
                    e.emit(ins!("{} $0,{},{}", mn, ra, rb));
                    e.emit(ins!("{} {}", if rem { "mfhi" } else { "mflo" }, dst));
                }
                Target::Power => {
                    let mn = if unsigned { "divwu" } else { "divw" };
                    e.emit(ins!("{} {},{},{}", mn, dst, ra, rb));
                    if rem {
                        e.emit(ins!("muls {},{},{}", dst, dst, rb));
                        e.emit(ins!("sf {},{},{}", dst, dst, ra));
                    }
                }
                Target::Sparc => {
                    let mn = if unsigned { "udiv" } else { "sdiv" };
                    e.emit(ins!("wr %g0,%g0,%y"));
                    e.emit(ins!("{} {},{},{}", mn, ra, rb, dst));
                    if rem {
                        e.emit(ins!("smul {},{},{}", dst, rb, dst));
                        e.emit(ins!("sub {},{},{}", ra, dst, dst));
                    }
                }
                Target::X86 => unreachable!("x86 uses emit_one_x86"),
            }
        }
    }
}

/// Two-address x86 emission: every value-producing op starts with a
/// `mov dst, src1`, multiplies and divides go through `EDX:EAX`,
/// constants fold as `imm32` operands (x86 has them; the pool only has
/// four registers once `eax`/`edx` are reserved for `mul`/`div`).
fn emit_one_x86(e: &mut Emitter, prog: &Program, i: usize, op: &Op) {
    // Resolve an operand to either its register or an immediate.
    let rm = |e: &Emitter, r: Reg| -> (Operand, bool) {
        match prog.insts()[r.index()] {
            Op::Const(c) => (Operand::Imm(c), true),
            _ => (Operand::Sym(e.reg(r)), false),
        }
    };
    let two_addr = |e: &mut Emitter, i: usize, mn: &'static str, a: Reg, b: Reg| {
        let (ra, a_imm) = rm(e, a);
        let (rb, _) = rm(e, b);
        let dst = e.alloc(i);
        // An immediate first operand always needs staging; a register one
        // only when allocation picked a different destination.
        if a_imm || Operand::Sym(dst) != ra {
            e.emit(ins!("mov {},{}", dst, ra));
        }
        e.emit(ins!("{} {},{}", mn, dst, rb));
    };
    let unary = |e: &mut Emitter, i: usize, mn: &'static str, a: Reg| {
        let (ra, _) = rm(e, a);
        let dst = e.alloc(i);
        if Operand::Sym(dst) != ra {
            e.emit(ins!("mov {},{}", dst, ra));
        }
        e.emit(ins!("{} {}", mn, dst));
    };
    let shift = |e: &mut Emitter, i: usize, mn: &'static str, a: Reg, n: u32| {
        let (ra, _) = rm(e, a);
        let dst = e.alloc(i);
        if Operand::Sym(dst) != ra {
            e.emit(ins!("mov {},{}", dst, ra));
        }
        e.emit(ins!("{} {},{}", mn, dst, n));
    };
    match *op {
        Op::Arg(k) => {
            let argreg = e.target.arg_register(k);
            let dst = e.alloc(i);
            // eax is not in the pool, so this always moves the argument
            // into a callee-chosen register (eax stays free for mul/div).
            e.emit(ins!("mov {},{}", dst, argreg));
        }
        Op::Const(_) => {
            // Folded as an immediate at each use; nothing to emit.
        }
        Op::Add(a, b) => two_addr(e, i, "add", a, b),
        Op::Sub(a, b) => two_addr(e, i, "sub", a, b),
        Op::And(a, b) => two_addr(e, i, "and", a, b),
        Op::Or(a, b) => two_addr(e, i, "or", a, b),
        Op::Eor(a, b) => two_addr(e, i, "xor", a, b),
        Op::MulL(a, b) => two_addr(e, i, "imul", a, b), // imul r32, r/m32/imm32
        Op::Neg(a) => unary(e, i, "neg", a),
        Op::Not(a) => unary(e, i, "not", a),
        Op::Sll(a, n) => shift(e, i, "shl", a, n),
        Op::Srl(a, n) => shift(e, i, "shr", a, n),
        Op::Sra(a, n) => shift(e, i, "sar", a, n),
        Op::Xsign(a) => shift(e, i, "sar", a, 31),
        Op::MulUH(a, b) | Op::MulSH(a, b) => {
            // One-operand mul/imul: EDX:EAX = EAX * r/m32. The r/m operand
            // must be a register, so when one side is a constant put it in
            // EAX (multiplication commutes).
            let mn = if matches!(op, Op::MulUH(..)) {
                "mul"
            } else {
                "imul"
            };
            let (ra, a_imm) = rm(e, a);
            let (rb, b_imm) = rm(e, b);
            let dst = e.alloc(i);
            match (a_imm, b_imm) {
                (false, false) | (true, false) => {
                    e.emit(ins!("mov eax,{}", ra));
                    e.emit(ins!("{} {}", mn, rb));
                }
                (false, true) => {
                    e.emit(ins!("mov eax,{}", rb));
                    e.emit(ins!("{} {}", mn, ra));
                }
                (true, true) => unreachable!("const*const folds in the optimizer"),
            }
            e.emit(ins!("mov {},edx", dst));
        }
        Op::SltU(a, b) | Op::SltS(a, b) => {
            let set = if matches!(op, Op::SltU(..)) {
                "setb"
            } else {
                "setl"
            };
            let (ra, a_imm) = rm(e, a);
            let (rb, _) = rm(e, b);
            let dst = e.alloc(i);
            if a_imm {
                // cmp's first operand must be r/m: stage the immediate.
                e.emit(ins!("mov {},{}", dst, ra));
                e.emit(ins!("cmp {},{}", dst, rb));
            } else {
                e.emit(ins!("cmp {},{}", ra, rb));
            }
            e.emit(ins!("{} dl", set));
            e.emit(ins!("movzx {},dl", dst));
        }
        Op::Carry(a, b) => {
            // x86 has the real flag: add sets CF, setc materializes it.
            let (ra, a_imm) = rm(e, a);
            let (rb, _) = rm(e, b);
            let dst = e.alloc(i);
            if a_imm || Operand::Sym(dst) != ra {
                e.emit(ins!("mov {},{}", dst, ra));
            }
            e.emit(ins!("add {},{}", dst, rb));
            e.emit(ins!("setc dl"));
            e.emit(ins!("movzx {},dl", dst));
        }
        Op::Borrow(a, b) => {
            // Same compare shape as unsigned set-less-than: CF after cmp
            // is the borrow.
            let (ra, a_imm) = rm(e, a);
            let (rb, _) = rm(e, b);
            let dst = e.alloc(i);
            if a_imm {
                e.emit(ins!("mov {},{}", dst, ra));
                e.emit(ins!("cmp {},{}", dst, rb));
            } else {
                e.emit(ins!("cmp {},{}", ra, rb));
            }
            e.emit(ins!("setb dl"));
            e.emit(ins!("movzx {},dl", dst));
        }
        Op::DivU(a, b) | Op::DivS(a, b) | Op::RemU(a, b) | Op::RemS(a, b) => {
            let (unsigned, rem) = match op {
                Op::DivU(..) => (true, false),
                Op::DivS(..) => (false, false),
                Op::RemU(..) => (true, true),
                _ => (false, true),
            };
            let (ra, _) = rm(e, a);
            let (rb, b_imm) = rm(e, b);
            let dst = e.alloc(i);
            e.emit(ins!("mov eax,{}", ra));
            let divisor = if b_imm {
                // The divisor must be r/m: stage it in dst (read before
                // dst is overwritten with the result).
                e.emit(ins!("mov {},{}", dst, rb));
                Operand::Sym(dst)
            } else {
                rb
            };
            if unsigned {
                e.emit(ins!("xor edx,edx"));
                e.emit(ins!("div {}", divisor));
            } else {
                e.emit(ins!("cdq"));
                e.emit(ins!("idiv {}", divisor));
            }
            e.emit(ins!("mov {},{}", dst, if rem { "edx" } else { "eax" }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::divgen::{gen_signed_div, gen_unsigned_div, gen_unsigned_divrem};

    #[test]
    fn all_targets_emit_divide_free_magic_code() {
        for &t in &Target::ALL {
            let prog = gen_unsigned_div(10, 32);
            let asm = emit_assembly(&prog, t, "udiv10");
            assert!(!asm.uses_divide(), "{t}: {asm}");
            assert!(asm.instruction_count() >= 3, "{t}: {asm}");
        }
    }

    #[test]
    fn mips_uses_multu_mfhi() {
        let asm = emit_assembly(&gen_unsigned_div(10, 32), Target::Mips, "f");
        let text = asm.to_string();
        assert!(text.contains("multu"), "{text}");
        assert!(text.contains("mfhi"), "{text}");
    }

    #[test]
    fn sparc_reads_y_register() {
        let asm = emit_assembly(&gen_unsigned_div(10, 32), Target::Sparc, "f");
        let text = asm.to_string();
        assert!(text.contains("umul"), "{text}");
        assert!(text.contains("rd %y"), "{text}");
        assert!(text.contains("sethi"), "{text}");
    }

    #[test]
    fn power_uses_mulhwu() {
        let asm = emit_assembly(&gen_unsigned_div(10, 32), Target::Power, "f");
        assert!(asm.to_string().contains("mulhwu"), "{asm}");
    }

    #[test]
    fn alpha_32bit_uses_full_product() {
        let asm = emit_assembly(&gen_unsigned_div(10, 32), Target::Alpha, "f");
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
    fn signed_division_emits_everywhere() {
        for &t in &Target::ALL {
            for d in [3i64, -7, 16, -100] {
                let asm = emit_assembly(&gen_signed_div(d, 32), t, "sdiv");
                assert!(!asm.uses_divide(), "{t} d={d}: {asm}");
            }
        }
    }

    #[test]
    fn divrem_emits_both_results() {
        let asm = emit_assembly(&gen_unsigned_divrem(10, 32), Target::Mips, "dr");
        let text = asm.to_string();
        // Two results moved into $2/$3 (or already there).
        assert!(text.contains("mfhi") || text.contains("mflo"), "{text}");
    }

    #[test]
    fn register_pools_survive_long_programs() {
        // The d = 7 long sequence plus remainder on every target.
        for &t in &Target::ALL {
            let prog = gen_unsigned_divrem(7, 32);
            let asm = emit_assembly(&prog, t, "dr7");
            assert!(asm.instruction_count() > 0, "{t}");
        }
    }
}
