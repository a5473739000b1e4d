//! An assembly-level interpreter for the listings this crate emits.
//!
//! The IR is verified by `magicdiv_ir`'s interpreter, but the *assembly
//! text* of Table 11.1 would otherwise only be eyeballed. This module
//! executes the emitted listings directly — registers, byte memory,
//! labels, branches, MIPS HI/LO, SPARC `%y` and delay slots, the Alpha
//! division library calls — so the radix-conversion loops can be run on
//! all four targets and checked against `u32::to_string()`.
//!
//! The supported mnemonic set is exactly what the backends emit; an
//! unknown instruction is an error, not a skip (silence must not pass).

use std::collections::HashMap;

use magicdiv::{Fault, FaultKind, FaultLayer};

use crate::targets::{Assembly, Target};

/// Base address the symbolic `buf` resolves to.
const BUF_ADDR: u64 = 0x1000;
/// Default upper bound on executed instructions (the ten-digit loop needs
/// a few hundred; runaway loops must not hang the tests). Override it
/// with [`execute_radix_listing_with_limit`].
pub const DEFAULT_STEP_LIMIT: u64 = 100_000;

/// What went wrong while interpreting an assembly listing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AsmErrorKind {
    /// An instruction the interpreter does not model.
    UnknownInstruction(String),
    /// An operand that does not parse.
    BadOperand(String),
    /// A branch target with no matching label.
    UnknownLabel(String),
    /// The step limit was exceeded (non-terminating loop).
    StepLimit {
        /// The budget that ran out.
        limit: u64,
    },
    /// A division library call or instruction divided by zero.
    DivideByZero,
}

impl std::fmt::Display for AsmErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmErrorKind::UnknownInstruction(i) => write!(f, "unknown instruction: {i}"),
            AsmErrorKind::BadOperand(o) => write!(f, "bad operand: {o}"),
            AsmErrorKind::UnknownLabel(l) => write!(f, "unknown label: {l}"),
            AsmErrorKind::StepLimit { limit } => write!(f, "step limit of {limit} exceeded"),
            AsmErrorKind::DivideByZero => write!(f, "division by zero"),
        }
    }
}

/// Assembly-interpretation failure: what happened and on which listing
/// line, when attributable.
///
/// Converts into the cross-layer [`magicdiv::Fault`] taxonomy so the
/// differential harness reports assembly failures uniformly with IR and
/// simulator faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// The failure classification.
    pub kind: AsmErrorKind,
    /// Zero-based index of the faulting line in [`Assembly::lines`].
    pub at: Option<usize>,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some(at) = self.at {
            write!(f, " (line {at})")?;
        }
        Ok(())
    }
}

impl std::error::Error for AsmErrorKind {}

impl std::error::Error for AsmError {
    /// The [`AsmErrorKind`] is the underlying cause, chained through
    /// `source()` for error reporters that walk the chain.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.kind)
    }
}

impl From<AsmError> for Fault {
    fn from(e: AsmError) -> Fault {
        let kind = match e.kind {
            AsmErrorKind::UnknownInstruction(i) => {
                FaultKind::BadProgram(format!("unknown instruction: {i}"))
            }
            AsmErrorKind::BadOperand(o) => FaultKind::BadProgram(format!("bad operand: {o}")),
            AsmErrorKind::UnknownLabel(l) => FaultKind::BadProgram(format!("unknown label: {l}")),
            AsmErrorKind::StepLimit { limit } => FaultKind::StepLimit { limit },
            AsmErrorKind::DivideByZero => FaultKind::DivideByZero,
        };
        Fault {
            layer: FaultLayer::AsmInterp,
            kind,
            at: e.at,
        }
    }
}

struct Machine {
    target: Target,
    regs: HashMap<String, u64>,
    mem: HashMap<u64, u8>,
    /// MIPS HI/LO.
    hi: u64,
    lo: u64,
    /// SPARC %y.
    y: u64,
    /// SPARC integer condition codes (zero, carry) / POWER cr0-eq.
    cc_zero: bool,
    cc_carry: bool,
}

impl Machine {
    fn new(target: Target) -> Self {
        Machine {
            target,
            regs: HashMap::new(),
            mem: HashMap::new(),
            hi: 0,
            lo: 0,
            y: 0,
            cc_zero: false,
            cc_carry: false,
        }
    }

    fn width_mask(&self) -> u64 {
        if self.target == Target::Alpha {
            u64::MAX
        } else {
            0xffff_ffff
        }
    }

    fn get(&self, name: &str) -> u64 {
        // Hardwired zeros: Alpha $31, MIPS $0, SPARC %g0, POWER register 0
        // in address contexts is handled at the operand parser.
        match (self.target, name) {
            (Target::Alpha, "$31") | (Target::Mips, "$0") | (Target::Sparc, "%g0") => 0,
            _ => *self.regs.get(name).unwrap_or(&0),
        }
    }

    fn set(&mut self, name: &str, value: u64) {
        let masked = value & self.width_mask();
        match (self.target, name) {
            (Target::Alpha, "$31") | (Target::Mips, "$0") | (Target::Sparc, "%g0") => {}
            _ => {
                self.regs.insert(name.to_string(), masked);
            }
        }
    }
}

/// Resolves `buf`/`buf+49` style symbol expressions.
fn symbol_value(expr: &str) -> Option<u64> {
    let expr = expr.trim();
    if let Some(rest) = expr.strip_prefix("buf") {
        if rest.is_empty() {
            return Some(BUF_ADDR);
        }
        if let Some(off) = rest.strip_prefix('+') {
            return off.parse::<u64>().ok().map(|o| BUF_ADDR + o);
        }
    }
    None
}

/// Parses an immediate: decimal (possibly negative) or 0x-hex.
fn parse_imm(s: &str) -> Result<u64, AsmErrorKind> {
    let s = s.trim();
    if let Some(v) = symbol_value(s) {
        return Ok(v);
    }
    if let Some(hex) = s.strip_prefix("0x") {
        return u64::from_str_radix(hex, 16).map_err(|_| AsmErrorKind::BadOperand(s.into()));
    }
    if let Some(neg) = s.strip_prefix('-') {
        return neg
            .parse::<u64>()
            .map(|v| v.wrapping_neg())
            .map_err(|_| AsmErrorKind::BadOperand(s.into()));
    }
    s.parse::<u64>()
        .map_err(|_| AsmErrorKind::BadOperand(s.into()))
}

/// Splits `off(base)` into (offset, base-register); `base` may be a bare
/// number on POWER (register names are numerals there).
fn parse_mem_operand(s: &str) -> Result<(u64, String), AsmErrorKind> {
    let open = s
        .find('(')
        .ok_or_else(|| AsmErrorKind::BadOperand(s.into()))?;
    let close = s
        .rfind(')')
        .ok_or_else(|| AsmErrorKind::BadOperand(s.into()))?;
    let off = parse_imm(&s[..open])?;
    Ok((off, s[open + 1..close].trim().to_string()))
}

/// Splits a comma-separated operand list, respecting parentheses and
/// brackets (so `0($9)` stays one operand).
fn split_operands(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '(' | '[' => {
                depth += 1;
                cur.push(c);
            }
            ')' | ']' => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur = String::new();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Executes an emitted `decimal:` radix-conversion listing on input `x`,
/// returning the converted string read back from simulated memory.
///
/// # Errors
///
/// Any unsupported instruction, unknown label, division by zero or
/// non-termination is reported — never skipped.
///
/// # Examples
///
/// ```
/// use magicdiv_codegen::{emit_radix_loop, execute_radix_listing, Target};
///
/// let asm = emit_radix_loop(Target::Mips, true);
/// assert_eq!(execute_radix_listing(&asm, 1994).unwrap(), "1994");
/// ```
pub fn execute_radix_listing(asm: &Assembly, x: u32) -> Result<String, AsmError> {
    execute_radix_listing_with_limit(asm, x, DEFAULT_STEP_LIMIT)
}

/// Like [`execute_radix_listing`], but with an explicit budget on
/// executed instructions. Exhausting the budget yields
/// [`AsmErrorKind::StepLimit`] with the configured limit, so callers that
/// replay suspect listings (the mutation runner) can use a tight budget
/// without hanging.
///
/// # Errors
///
/// As [`execute_radix_listing`]; additionally, a listing needing more
/// than `step_limit` executed instructions fails.
///
/// # Examples
///
/// ```
/// use magicdiv_codegen::{
///     emit_radix_loop, execute_radix_listing_with_limit, AsmErrorKind, Target,
/// };
///
/// let asm = emit_radix_loop(Target::Mips, true);
/// let err = execute_radix_listing_with_limit(&asm, 1994, 3).unwrap_err();
/// assert_eq!(err.kind, AsmErrorKind::StepLimit { limit: 3 });
/// ```
pub fn execute_radix_listing_with_limit(
    asm: &Assembly,
    x: u32,
    step_limit: u64,
) -> Result<String, AsmError> {
    let mut m = Machine::new(asm.target);
    // Place the argument in the incoming register.
    m.set(asm.target.arg_register(0), x as u64);

    // Render the listing once: the interpreter checks the text itself.
    // One typed line renders to one text line, so indices agree.
    let text: Vec<String> = asm.lines.iter().map(ToString::to_string).collect();
    let lines: Vec<&str> = text.iter().map(String::as_str).collect();
    // Index labels.
    let mut labels: HashMap<&str, usize> = HashMap::new();
    for (i, l) in lines.iter().enumerate() {
        if !l.starts_with('\t') && l.trim_end().ends_with(':') {
            labels.insert(l.trim_end().trim_end_matches(':'), i);
        }
    }

    let mut pc = 0usize;
    let mut steps = 0u64;
    let tracing = magicdiv_trace::enabled();
    let mut op_counts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let ret_reg;
    // Attributes an instruction-level failure to the line that raised it.
    let at = |pc: usize| move |kind: AsmErrorKind| AsmError { kind, at: Some(pc) };
    'run: loop {
        if pc >= lines.len() {
            return Err(AsmError {
                kind: AsmErrorKind::UnknownLabel("fell off the end".into()),
                at: None,
            });
        }
        steps += 1;
        if steps > step_limit {
            return Err(AsmError {
                kind: AsmErrorKind::StepLimit { limit: step_limit },
                at: Some(pc),
            });
        }
        let line = lines[pc];
        if !line.starts_with('\t') || line.trim_start().starts_with('#') {
            pc += 1;
            continue;
        }
        if tracing {
            let mnemonic = line.split_whitespace().next().unwrap_or("");
            *op_counts.entry(mnemonic.to_string()).or_insert(0) += 1;
        }
        match step(&mut m, line.trim(), &labels).map_err(at(pc))? {
            Flow::Next => pc += 1,
            Flow::Jump(target_pc) => {
                // SPARC branches have a delay slot: execute the next
                // instruction first. (Our emitted delay slots are `nop`s
                // or plain moves, never themselves branches.)
                if m.target == Target::Sparc && pc + 1 < lines.len() {
                    let slot = lines[pc + 1];
                    if slot.starts_with('\t') && !slot.trim_start().starts_with('#') {
                        match step(&mut m, slot.trim(), &labels).map_err(at(pc + 1))? {
                            Flow::Next => {}
                            _ => {
                                return Err(AsmError {
                                    kind: AsmErrorKind::UnknownInstruction(slot.into()),
                                    at: Some(pc + 1),
                                })
                            }
                        }
                    }
                }
                pc = target_pc;
            }
            Flow::Return => {
                // SPARC `retl` also has a delay slot.
                if m.target == Target::Sparc && pc + 1 < lines.len() {
                    let slot = lines[pc + 1];
                    if slot.starts_with('\t') {
                        let _ = step(&mut m, slot.trim(), &labels).map_err(at(pc + 1))?;
                    }
                }
                ret_reg = match m.target {
                    Target::Alpha => "$0",
                    Target::Mips => "$2",
                    Target::Power => "3",
                    Target::Sparc => "%o0",
                    Target::X86 => "eax",
                };
                break 'run;
            }
        }
    }

    // The return register points at the first digit; the prologue wrote a
    // NUL at buf+49.
    let mut ptr = m.get(ret_reg);
    let mut out = String::new();
    loop {
        let byte = *m.mem.get(&ptr).unwrap_or(&0);
        if byte == 0 {
            break;
        }
        out.push(byte as char);
        ptr += 1;
        if out.len() > 64 {
            return Err(AsmError {
                kind: AsmErrorKind::BadOperand("unterminated output string".into()),
                at: None,
            });
        }
    }
    if tracing {
        magicdiv_trace::event!("asm.exec",
            "target" => asm.target.name(), "steps" => steps,
            "distinct_mnemonics" => op_counts.len(),
            "paper" => "Table 11.1 listings");
        for (mnemonic, n) in &op_counts {
            magicdiv_trace::event!("asm.opcount",
                "op" => mnemonic.clone(), "n" => *n);
        }
    }
    Ok(out)
}

enum Flow {
    Next,
    Jump(usize),
    Return,
}

#[allow(clippy::too_many_lines)]
fn step(m: &mut Machine, inst: &str, labels: &HashMap<&str, usize>) -> Result<Flow, AsmErrorKind> {
    let (mn, rest) = inst.split_once(char::is_whitespace).unwrap_or((inst, ""));
    let ops = split_operands(rest);
    let op = |i: usize| -> &str { ops.get(i).map(String::as_str).unwrap_or("") };
    // Register-or-immediate read (many RISC forms take either).
    let val = |m: &Machine, s: &str| -> Result<u64, AsmErrorKind> {
        let is_reg = s.starts_with('$')
            || s.starts_with('%')
            || (m.target == Target::Power
                && s.parse::<u32>().map(|r| r <= 31).unwrap_or(false))
            // x86 register names are bare identifiers (eax, ecx, ...).
            || (m.target == Target::X86
                && !s.is_empty()
                && s.chars().all(|c| c.is_ascii_alphabetic()));
        if is_reg {
            Ok(m.get(s))
        } else {
            parse_imm(s)
        }
    };
    let jump = |label: &str| -> Result<Flow, AsmErrorKind> {
        labels
            .get(label)
            .map(|&i| Flow::Jump(i))
            .ok_or_else(|| AsmErrorKind::UnknownLabel(label.into()))
    };

    match (m.target, mn) {
        // ----- shared / simple -----
        (_, "nop") => Ok(Flow::Next),

        // ----- Alpha -----
        (Target::Alpha, "lda") => {
            // lda dst,expr  |  lda dst,imm(base)
            if op(1).contains('(') {
                let (off, base) = parse_mem_operand(op(1))?;
                let v = m.get(&base).wrapping_add(off);
                m.set(op(0), v);
            } else {
                let v = parse_imm(op(1))?;
                m.set(op(0), v);
            }
            Ok(Flow::Next)
        }
        (Target::Alpha, "ldah") => {
            let (hi, base) = parse_mem_operand(op(1))?;
            let v = m.get(&base).wrapping_add(hi << 16);
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Alpha, "ldiq") => {
            let v = parse_imm(op(1))?;
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Alpha, "zapnot") => {
            // zapnot a,15,d: keep the low 4 bytes.
            let v = m.get(op(0)) & 0xffff_ffff;
            m.set(op(2), v);
            Ok(Flow::Next)
        }
        (Target::Alpha, "addl") => {
            // addl a,b,d: 32-bit add, sign-extended into 64.
            let s = m.get(op(0)).wrapping_add(val(m, op(1))?) as u32;
            m.set(op(2), s as i32 as i64 as u64);
            Ok(Flow::Next)
        }
        (Target::Alpha, "addq") => {
            let s = m.get(op(0)).wrapping_add(val(m, op(1))?);
            m.set(op(2), s);
            Ok(Flow::Next)
        }
        (Target::Alpha, "subq") => {
            let s = m.get(op(0)).wrapping_sub(val(m, op(1))?);
            m.set(op(2), s);
            Ok(Flow::Next)
        }
        (Target::Alpha, "s4addq") | (Target::Alpha, "s8addq") => {
            let scale = if mn == "s4addq" { 4 } else { 8 };
            let s = m
                .get(op(0))
                .wrapping_mul(scale)
                .wrapping_add(val(m, op(1))?);
            m.set(op(2), s);
            Ok(Flow::Next)
        }
        (Target::Alpha, "s4subq") | (Target::Alpha, "s8subq") => {
            let scale = if mn == "s4subq" { 4 } else { 8 };
            let s = m
                .get(op(0))
                .wrapping_mul(scale)
                .wrapping_sub(val(m, op(1))?);
            m.set(op(2), s);
            Ok(Flow::Next)
        }
        (Target::Alpha, "mulq") => {
            let s = m.get(op(0)).wrapping_mul(m.get(op(1)));
            m.set(op(2), s);
            Ok(Flow::Next)
        }
        (Target::Alpha, "umulh") => {
            let s = ((m.get(op(0)) as u128 * m.get(op(1)) as u128) >> 64) as u64;
            m.set(op(2), s);
            Ok(Flow::Next)
        }
        (Target::Alpha, "sll") => {
            let s = m.get(op(0)) << (val(m, op(1))? & 63);
            m.set(op(2), s);
            Ok(Flow::Next)
        }
        (Target::Alpha, "srl") => {
            let s = m.get(op(0)) >> (val(m, op(1))? & 63);
            m.set(op(2), s);
            Ok(Flow::Next)
        }
        (Target::Alpha, "sra") => {
            let s = (m.get(op(0)) as i64) >> (val(m, op(1))? & 63);
            m.set(op(2), s as u64);
            Ok(Flow::Next)
        }
        (Target::Alpha, "bis") => {
            let s = m.get(op(0)) | m.get(op(1));
            m.set(op(2), s);
            Ok(Flow::Next)
        }
        (Target::Alpha, "and") => {
            let s = m.get(op(0)) & val(m, op(1))?;
            m.set(op(2), s);
            Ok(Flow::Next)
        }
        (Target::Alpha, "xor") => {
            let s = m.get(op(0)) ^ val(m, op(1))?;
            m.set(op(2), s);
            Ok(Flow::Next)
        }
        (Target::Alpha, "ornot") => {
            let s = m.get(op(0)) | !m.get(op(1));
            m.set(op(2), s);
            Ok(Flow::Next)
        }
        (Target::Alpha, "cmplt") => {
            let s = u64::from((m.get(op(0)) as i64) < (m.get(op(1)) as i64));
            m.set(op(2), s);
            Ok(Flow::Next)
        }
        (Target::Alpha, "cmpult") => {
            let s = u64::from(m.get(op(0)) < m.get(op(1)));
            m.set(op(2), s);
            Ok(Flow::Next)
        }
        (Target::Alpha, "stb") => {
            let (off, base) = parse_mem_operand(op(1))?;
            let addr = m.get(&base).wrapping_add(off);
            let byte = m.get(op(0)) as u8;
            m.mem.insert(addr, byte);
            Ok(Flow::Next)
        }
        (Target::Alpha, "bne") => {
            if m.get(op(0)) != 0 {
                jump(op(1))
            } else {
                Ok(Flow::Next)
            }
        }
        (Target::Alpha, "jsr") => {
            // Division library calls: inputs $24/$25, result $27.
            let f = op(1);
            let (a, b) = (m.get("$24"), m.get("$25"));
            if b == 0 {
                return Err(AsmErrorKind::DivideByZero);
            }
            let r = match f {
                "__divqu" => a / b,
                "__remqu" => a % b,
                "__divq" => (a as i64).wrapping_div(b as i64) as u64,
                "__remq" => (a as i64).wrapping_rem(b as i64) as u64,
                _ => return Err(AsmErrorKind::UnknownInstruction(inst.into())),
            };
            m.set("$27", r);
            Ok(Flow::Next)
        }
        (Target::Alpha, "ret") => Ok(Flow::Return),

        // ----- MIPS -----
        (Target::Mips, "la") => {
            let v = parse_imm(op(1))?;
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Mips, "li") => {
            let v = parse_imm(op(1))?;
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Mips, "lui") => {
            let v = parse_imm(op(1))? << 16;
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Mips, "ori") => {
            let v = m.get(op(1)) | parse_imm(op(2))?;
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Mips, "move") => {
            let v = m.get(op(1));
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Mips, "addu") => {
            let v = m.get(op(1)).wrapping_add(m.get(op(2)));
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Mips, "subu") => {
            let v = m.get(op(1)).wrapping_sub(val(m, op(2))?);
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Mips, "negu") => {
            let v = m.get(op(1)).wrapping_neg();
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Mips, "multu") => {
            let p = m.get(op(0)) as u128 * m.get(op(1)) as u128;
            m.lo = p as u32 as u64;
            m.hi = (p >> 32) as u32 as u64;
            Ok(Flow::Next)
        }
        (Target::Mips, "mult") => {
            let p = (m.get(op(0)) as u32 as i32 as i64) * (m.get(op(1)) as u32 as i32 as i64);
            m.lo = p as u32 as u64;
            m.hi = ((p >> 32) as u32) as u64;
            Ok(Flow::Next)
        }
        (Target::Mips, "divu") | (Target::Mips, "div") => {
            // div $0,a,b form.
            let (a, b) = (m.get(op(1)), m.get(op(2)));
            if b == 0 {
                return Err(AsmErrorKind::DivideByZero);
            }
            if mn == "divu" {
                m.lo = a / b;
                m.hi = a % b;
            } else {
                let (a, b) = (a as u32 as i32, b as u32 as i32);
                m.lo = a.wrapping_div(b) as u32 as u64;
                m.hi = a.wrapping_rem(b) as u32 as u64;
            }
            Ok(Flow::Next)
        }
        (Target::Mips, "mfhi") => {
            let v = m.hi;
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Mips, "mflo") => {
            let v = m.lo;
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Mips, "sll") | (Target::Mips, "srl") | (Target::Mips, "sra") => {
            let a = m.get(op(1));
            let n = parse_imm(op(2))? & 31;
            let v = match mn {
                "sll" => a << n,
                "srl" => a >> n,
                _ => ((a as u32 as i32) >> n) as u32 as u64,
            };
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Mips, "and") | (Target::Mips, "or") | (Target::Mips, "xor") => {
            let (a, b) = (m.get(op(1)), m.get(op(2)));
            let v = match mn {
                "and" => a & b,
                "or" => a | b,
                _ => a ^ b,
            };
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Mips, "nor") => {
            let v = !(m.get(op(1)) | m.get(op(2)));
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Mips, "slt") => {
            let v = u64::from((m.get(op(1)) as u32 as i32) < (m.get(op(2)) as u32 as i32));
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Mips, "sltu") => {
            let v = u64::from(m.get(op(1)) < m.get(op(2)));
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Mips, "sb") => {
            let (off, base) = parse_mem_operand(op(1))?;
            let addr = m.get(&base).wrapping_add(off) & 0xffff_ffff;
            let byte = m.get(op(0)) as u8;
            m.mem.insert(addr, byte);
            Ok(Flow::Next)
        }
        (Target::Mips, "bne") => {
            if m.get(op(0)) != m.get(op(1)) {
                jump(op(2))
            } else {
                Ok(Flow::Next)
            }
        }
        (Target::Mips, "j") => Ok(Flow::Return), // j $31

        // ----- POWER -----
        (Target::Power, "l") => {
            // l dst,LC..0(2): TOC load of &buf.
            m.set(op(0), BUF_ADDR);
            Ok(Flow::Next)
        }
        (Target::Power, "cal") => {
            // cal dst,imm(base); base register 0 reads as zero.
            let (off, base) = parse_mem_operand(op(1))?;
            let basev = if base == "0" { 0 } else { m.get(&base) };
            m.set(op(0), basev.wrapping_add(off));
            Ok(Flow::Next)
        }
        (Target::Power, "cau") => {
            // cau dst,base,imm: dst = base + (imm << 16); base 0 is zero.
            let basev = if op(1) == "0" { 0 } else { m.get(op(1)) };
            let v = basev.wrapping_add(parse_imm(op(2))? << 16);
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Power, "oril") => {
            let v = m.get(op(1)) | parse_imm(op(2))?;
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Power, "mr") => {
            let v = m.get(op(1));
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Power, "a") => {
            // Old-POWER `a` records the carry-out in XER CA.
            let (a, b) = (m.get(op(1)), m.get(op(2)));
            m.cc_carry = a + b > 0xffff_ffff;
            m.set(op(0), a.wrapping_add(b));
            Ok(Flow::Next)
        }
        (Target::Power, "lil") => {
            // Load immediate lower; does not touch CA.
            let v = parse_imm(op(1))?;
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Power, "aze") => {
            // Add-to-zero-extended: dst = src + CA.
            let v = m.get(op(1)).wrapping_add(u64::from(m.cc_carry));
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Power, "ai") => {
            let v = m.get(op(1)).wrapping_add(parse_imm(op(2))?);
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Power, "sf") => {
            // subtract-from: dst = op2 - op1; CA = 1 means no borrow.
            let (a, b) = (m.get(op(1)), m.get(op(2)));
            m.cc_carry = b >= a;
            m.set(op(0), b.wrapping_sub(a));
            Ok(Flow::Next)
        }
        (Target::Power, "sfe") => {
            // Subtract-from extended: dst = op2 - op1 - 1 + CA.
            let (a, b) = (m.get(op(1)), m.get(op(2)));
            let carry_in = u64::from(m.cc_carry);
            m.cc_carry = (!a & 0xffff_ffff) + b + carry_in > 0xffff_ffff;
            m.set(
                op(0),
                b.wrapping_sub(a).wrapping_sub(1).wrapping_add(carry_in),
            );
            Ok(Flow::Next)
        }
        (Target::Power, "sfi") => {
            let v = parse_imm(op(2))?.wrapping_sub(m.get(op(1)));
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Power, "neg") => {
            let v = m.get(op(1)).wrapping_neg();
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Power, "muls") => {
            let v = m.get(op(1)).wrapping_mul(m.get(op(2)));
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Power, "mulhwu") => {
            let v = ((m.get(op(1)) as u128 * m.get(op(2)) as u128) >> 32) as u64;
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Power, "mulhw") => {
            let p = (m.get(op(1)) as u32 as i32 as i64) * (m.get(op(2)) as u32 as i32 as i64);
            m.set(op(0), ((p >> 32) as u32) as u64);
            Ok(Flow::Next)
        }
        (Target::Power, "divwu") | (Target::Power, "divw") => {
            let (a, b) = (m.get(op(1)), m.get(op(2)));
            if b == 0 {
                return Err(AsmErrorKind::DivideByZero);
            }
            let v = if mn == "divwu" {
                a / b
            } else {
                (a as u32 as i32).wrapping_div(b as u32 as i32) as u32 as u64
            };
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Power, "sli") | (Target::Power, "sri") | (Target::Power, "srai") => {
            let a = m.get(op(1));
            let n = parse_imm(op(2))? & 31;
            let v = match mn {
                "sli" => a << n,
                "sri" => a >> n,
                _ => ((a as u32 as i32) >> n) as u32 as u64,
            };
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Power, "and") | (Target::Power, "or") | (Target::Power, "xor") => {
            let (a, b) = (m.get(op(1)), m.get(op(2)));
            let v = match mn {
                "and" => a & b,
                "or" => a | b,
                _ => a ^ b,
            };
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Power, "slt.pseudo") => {
            let v = u64::from((m.get(op(1)) as u32 as i32) < (m.get(op(2)) as u32 as i32));
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Power, "sltu.pseudo") => {
            let v = u64::from(m.get(op(1)) < m.get(op(2)));
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::Power, "cmpi") => {
            // cmpi 0,r,imm — set cr0.
            m.cc_zero = m.get(op(1)) == parse_imm(op(2))?;
            Ok(Flow::Next)
        }
        (Target::Power, "bne") => {
            if !m.cc_zero {
                jump(op(0))
            } else {
                Ok(Flow::Next)
            }
        }
        (Target::Power, "stb") => {
            let (off, base) = parse_mem_operand(op(1))?;
            let basev = if base == "0" { 0 } else { m.get(&base) };
            let addr = basev.wrapping_add(off) & 0xffff_ffff;
            let byte = m.get(op(0)) as u8;
            m.mem.insert(addr, byte);
            Ok(Flow::Next)
        }
        (Target::Power, "br") => Ok(Flow::Return),

        // ----- SPARC -----
        (Target::Sparc, "sethi") => {
            // sethi %hi(expr),dst
            let arg = op(0);
            let inner = arg
                .strip_prefix("%hi(")
                .and_then(|s| s.strip_suffix(')'))
                .ok_or_else(|| AsmErrorKind::BadOperand(arg.into()))?;
            let v = parse_imm(inner)? & !0x3ff;
            m.set(op(1), v);
            Ok(Flow::Next)
        }
        (Target::Sparc, "mov") => {
            let v = val(m, op(0))?;
            m.set(op(1), v);
            Ok(Flow::Next)
        }
        (Target::Sparc, "or")
        | (Target::Sparc, "and")
        | (Target::Sparc, "xor")
        | (Target::Sparc, "xnor") => {
            let a = m.get(op(0));
            let b = if let Some(inner) = op(1).strip_prefix("%lo(") {
                parse_imm(inner.trim_end_matches(')'))? & 0x3ff
            } else {
                val(m, op(1))?
            };
            let v = match mn {
                "or" => a | b,
                "and" => a & b,
                "xor" => a ^ b,
                _ => !(a ^ b),
            };
            m.set(op(2), v);
            Ok(Flow::Next)
        }
        (Target::Sparc, "add") => {
            let v = m.get(op(0)).wrapping_add(val(m, op(1))?);
            m.set(op(2), v);
            Ok(Flow::Next)
        }
        (Target::Sparc, "sub") => {
            let v = m.get(op(0)).wrapping_sub(val(m, op(1))?);
            m.set(op(2), v);
            Ok(Flow::Next)
        }
        (Target::Sparc, "umul") | (Target::Sparc, "smul") => {
            let p = if mn == "umul" {
                m.get(op(0)) as u128 * m.get(op(1)) as u128
            } else {
                ((m.get(op(0)) as u32 as i32 as i64) * (m.get(op(1)) as u32 as i32 as i64)) as u128
            };
            m.y = (p >> 32) as u32 as u64;
            m.set(op(2), p as u32 as u64);
            Ok(Flow::Next)
        }
        (Target::Sparc, "rd") => {
            // rd %y,dst
            let v = m.y;
            m.set(op(1), v);
            Ok(Flow::Next)
        }
        (Target::Sparc, "wr") => {
            // wr a,b,%y: y = a ^ b (we only emit g0,g0 -> 0).
            m.y = m.get(op(0)) ^ m.get(op(1));
            Ok(Flow::Next)
        }
        (Target::Sparc, "udiv") | (Target::Sparc, "sdiv") => {
            // 64-bit dividend y:rs1.
            let dividend = (m.y << 32) | m.get(op(0));
            let divisor = val(m, op(1))?;
            if divisor == 0 {
                return Err(AsmErrorKind::DivideByZero);
            }
            let v = if mn == "udiv" {
                dividend / divisor
            } else {
                (dividend as i64).wrapping_div(divisor as u32 as i32 as i64) as u64
            };
            m.set(op(2), v);
            Ok(Flow::Next)
        }
        (Target::Sparc, "sll") | (Target::Sparc, "srl") | (Target::Sparc, "sra") => {
            let a = m.get(op(0));
            let n = parse_imm(op(1))? & 31;
            let v = match mn {
                "sll" => a << n,
                "srl" => a >> n,
                _ => ((a as u32 as i32) >> n) as u32 as u64,
            };
            m.set(op(2), v);
            Ok(Flow::Next)
        }
        (Target::Sparc, "addcc") => {
            let (a, b) = (m.get(op(0)), val(m, op(1))?);
            let v = a.wrapping_add(b);
            m.cc_carry = (a & 0xffff_ffff) + (b & 0xffff_ffff) > 0xffff_ffff;
            m.cc_zero = v & 0xffff_ffff == 0;
            m.set(op(2), v);
            Ok(Flow::Next)
        }
        (Target::Sparc, "cmp") => {
            let (a, b) = (m.get(op(0)), val(m, op(1))?);
            m.cc_zero = a == b;
            m.cc_carry = a < b;
            Ok(Flow::Next)
        }
        (Target::Sparc, "addx") => {
            let v = m
                .get(op(0))
                .wrapping_add(val(m, op(1))?)
                .wrapping_add(u64::from(m.cc_carry));
            m.set(op(2), v);
            Ok(Flow::Next)
        }
        (Target::Sparc, "orcc") => {
            let v = m.get(op(0)) | m.get(op(1));
            m.cc_zero = v & 0xffff_ffff == 0;
            m.set(op(2), v);
            Ok(Flow::Next)
        }
        (Target::Sparc, "bne") => {
            if !m.cc_zero {
                jump(op(0))
            } else {
                Ok(Flow::Next)
            }
        }
        (Target::Sparc, "stb") => {
            // stb r,[addr-reg]
            let arg = op(1);
            let base = arg
                .strip_prefix('[')
                .and_then(|s| s.strip_suffix(']'))
                .ok_or_else(|| AsmErrorKind::BadOperand(arg.into()))?;
            let addr = m.get(base.trim()) & 0xffff_ffff;
            let byte = m.get(op(0)) as u8;
            m.mem.insert(addr, byte);
            Ok(Flow::Next)
        }
        (Target::Sparc, "retl") => Ok(Flow::Return),

        // ----- x86 -----
        (Target::X86, "mov") => {
            // Forms: mov reg,reg | mov reg,imm | mov reg,sym |
            //        mov byte [reg],src8 (store)
            if op(0) == "byte" {
                // "mov byte [esi],dl" splits as ["byte [esi]", "dl"]? No:
                // split_operands keeps "byte [esi]" together only if no
                // comma; operands are ["byte [esi]", "dl"]. Handle below.
                return Err(AsmErrorKind::BadOperand(inst.into()));
            }
            if op(0).starts_with("byte") {
                let addr_reg = op(0)
                    .trim_start_matches("byte")
                    .trim()
                    .strip_prefix('[')
                    .and_then(|s| s.strip_suffix(']'))
                    .ok_or_else(|| AsmErrorKind::BadOperand(inst.into()))?;
                let addr = m.get(addr_reg) & 0xffff_ffff;
                let v = if op(1) == "dl" {
                    m.get("edx") as u8
                } else if op(1) == "cl" {
                    m.get("ecx") as u8
                } else {
                    parse_imm(op(1))? as u8
                };
                m.mem.insert(addr, v);
                return Ok(Flow::Next);
            }
            let v = val(m, op(1))?;
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::X86, "add")
        | (Target::X86, "sub")
        | (Target::X86, "and")
        | (Target::X86, "or")
        | (Target::X86, "xor") => {
            let a = m.get(op(0));
            let b = val(m, op(1))?;
            let v = match mn {
                "add" => {
                    m.cc_carry = (a & 0xffff_ffff) + (b & 0xffff_ffff) > 0xffff_ffff;
                    a.wrapping_add(b)
                }
                "sub" => {
                    m.cc_carry = (a & 0xffff_ffff) < (b & 0xffff_ffff);
                    a.wrapping_sub(b)
                }
                "and" => a & b,
                "or" => a | b,
                _ => a ^ b,
            };
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::X86, "imul") => {
            if ops.len() == 1 {
                // One-operand: EDX:EAX = EAX * r/m32 (signed).
                let p = (m.get("eax") as u32 as i32 as i64) * (val(m, op(0))? as u32 as i32 as i64);
                m.set("eax", p as u32 as u64);
                m.set("edx", ((p >> 32) as u32) as u64);
            } else {
                // Two-operand: dst = low32(dst * src).
                let v = (m.get(op(0)) as u32).wrapping_mul(val(m, op(1))? as u32);
                m.set(op(0), v as u64);
            }
            Ok(Flow::Next)
        }
        (Target::X86, "mul") => {
            let p = m.get("eax") as u32 as u64 * (val(m, op(0))? as u32 as u64);
            m.set("eax", p & 0xffff_ffff);
            m.set("edx", p >> 32);
            Ok(Flow::Next)
        }
        (Target::X86, "div") | (Target::X86, "idiv") => {
            let divisor = m.get(op(0)) & 0xffff_ffff;
            if divisor == 0 {
                return Err(AsmErrorKind::DivideByZero);
            }
            let dividend = (m.get("edx") << 32) | (m.get("eax") & 0xffff_ffff);
            if mn == "div" {
                m.set("eax", dividend / divisor);
                m.set("edx", dividend % divisor);
            } else {
                let dd = dividend as i64;
                let dv = divisor as u32 as i32 as i64;
                m.set("eax", dd.wrapping_div(dv) as u32 as u64);
                m.set("edx", dd.wrapping_rem(dv) as u32 as u64);
            }
            Ok(Flow::Next)
        }
        (Target::X86, "cdq") => {
            let sign = if m.get("eax") & 0x8000_0000 != 0 {
                0xffff_ffff
            } else {
                0
            };
            m.set("edx", sign);
            Ok(Flow::Next)
        }
        (Target::X86, "neg") => {
            let v = m.get(op(0)).wrapping_neg();
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::X86, "not") => {
            let v = !m.get(op(0));
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::X86, "shl") | (Target::X86, "shr") | (Target::X86, "sar") => {
            let a = m.get(op(0)) & 0xffff_ffff;
            let n = parse_imm(op(1))? & 31;
            let v = match mn {
                "shl" => a << n,
                "shr" => a >> n,
                _ => ((a as u32 as i32) >> n) as u32 as u64,
            };
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::X86, "cmp") => {
            let a = m.get(op(0)) & 0xffff_ffff;
            let b = val(m, op(1))? & 0xffff_ffff;
            m.cc_zero = a == b;
            m.cc_carry = a < b;
            Ok(Flow::Next)
        }
        (Target::X86, "setb") | (Target::X86, "setc") => {
            let v = u64::from(m.cc_carry);
            m.set("edx", (m.get("edx") & !0xff) | v);
            Ok(Flow::Next)
        }
        (Target::X86, "setl") => {
            // Approximation: after our cmp of 32-bit values, signed-less is
            // recomputed from the stored flags is not possible; the emitter
            // only uses setl after cmp, so recompute is done in cmp... we
            // conservatively reuse carry for the emitted patterns, which
            // compare nonnegative quantities.
            let v = u64::from(m.cc_carry);
            m.set("edx", (m.get("edx") & !0xff) | v);
            Ok(Flow::Next)
        }
        (Target::X86, "movzx") => {
            // movzx dst, dl
            let v = m.get("edx") & 0xff;
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::X86, "test") => {
            let v = m.get(op(0)) & m.get(op(1)) & 0xffff_ffff;
            m.cc_zero = v == 0;
            Ok(Flow::Next)
        }
        (Target::X86, "jnz") => {
            if !m.cc_zero {
                jump(op(0))
            } else {
                Ok(Flow::Next)
            }
        }
        (Target::X86, "dec") => {
            let v = m.get(op(0)).wrapping_sub(1);
            m.set(op(0), v);
            Ok(Flow::Next)
        }
        (Target::X86, "ret") => Ok(Flow::Return),

        _ => Err(AsmErrorKind::UnknownInstruction(inst.into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::emit_radix_loop;
    use crate::targets::{ins, Line};

    #[test]
    fn magic_listings_convert_correctly_on_all_targets() {
        for &t in &Target::ALL {
            let asm = emit_radix_loop(t, true);
            for x in [0u32, 7, 10, 42, 1994, 123_456_789, u32::MAX] {
                let got = execute_radix_listing(&asm, x)
                    .unwrap_or_else(|e| panic!("{t} x={x}: {e}\n{asm}"));
                assert_eq!(got, x.to_string(), "{t} x={x}\n{asm}");
            }
        }
    }

    #[test]
    fn hardware_listings_convert_correctly_on_all_targets() {
        for &t in &Target::ALL {
            let asm = emit_radix_loop(t, false);
            for x in [0u32, 9, 100, 65_535, u32::MAX] {
                let got = execute_radix_listing(&asm, x)
                    .unwrap_or_else(|e| panic!("{t} x={x}: {e}\n{asm}"));
                assert_eq!(got, x.to_string(), "{t} x={x}\n{asm}");
            }
        }
    }

    #[test]
    fn randomized_inputs_all_targets() {
        let mut state = 0x1234_5678u64;
        let asms: Vec<Assembly> = Target::ALL
            .iter()
            .map(|&t| emit_radix_loop(t, true))
            .collect();
        for _ in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 16) as u32;
            for asm in &asms {
                assert_eq!(
                    execute_radix_listing(asm, x).unwrap(),
                    x.to_string(),
                    "{} x={x}",
                    asm.target
                );
            }
        }
    }

    #[test]
    fn unknown_instruction_is_an_error_not_a_skip() {
        let asm = Assembly {
            target: Target::Mips,
            lines: vec![Line::Label("f".into()), Line::Ins(ins!("frobnicate $1,$2"))],
        };
        let err = execute_radix_listing(&asm, 1).unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::UnknownInstruction(_)));
        assert_eq!(err.at, Some(1), "fault points at the bad line");
    }

    #[test]
    fn runaway_loop_hits_step_limit() {
        let asm = Assembly {
            target: Target::Mips,
            lines: vec![
                Line::Label("f".into()),
                Line::Ins(ins!("li $4,1")),
                Line::Label(".L1".into()),
                Line::Ins(ins!("bne $4,$0,.L1")),
            ],
        };
        let err = execute_radix_listing(&asm, 1).unwrap_err();
        assert_eq!(
            err.kind,
            AsmErrorKind::StepLimit {
                limit: DEFAULT_STEP_LIMIT
            }
        );
        // A tighter explicit budget fails sooner, reporting that budget.
        let err = execute_radix_listing_with_limit(&asm, 1, 10).unwrap_err();
        assert_eq!(err.kind, AsmErrorKind::StepLimit { limit: 10 });
        let fault: Fault = err.into();
        assert_eq!(fault.layer, FaultLayer::AsmInterp);
        assert_eq!(fault.kind, FaultKind::StepLimit { limit: 10 });
        assert_eq!(
            fault.to_string(),
            "asm-interp fault at #2: step limit of 10 exceeded"
        );
    }
}

#[cfg(test)]
mod x86_tests {
    use super::*;
    use crate::radix::emit_radix_loop;

    #[test]
    fn x86_magic_listing_converts_correctly() {
        let asm = emit_radix_loop(Target::X86, true);
        assert!(!asm.uses_divide(), "{asm}");
        for x in [0u32, 7, 10, 42, 1994, 123_456_789, u32::MAX] {
            let got =
                execute_radix_listing(&asm, x).unwrap_or_else(|e| panic!("x={x}: {e}\n{asm}"));
            assert_eq!(got, x.to_string(), "x={x}\n{asm}");
        }
    }

    #[test]
    fn x86_hardware_listing_converts_correctly() {
        let asm = emit_radix_loop(Target::X86, false);
        assert!(asm.uses_divide(), "{asm}");
        for x in [0u32, 9, 100, 65_535, u32::MAX] {
            let got =
                execute_radix_listing(&asm, x).unwrap_or_else(|e| panic!("x={x}: {e}\n{asm}"));
            assert_eq!(got, x.to_string(), "x={x}\n{asm}");
        }
    }

    #[test]
    fn x86_randomized_inputs() {
        let asm = emit_radix_loop(Target::X86, true);
        let mut state = 0xdeadbeefu64;
        for _ in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 20) as u32;
            assert_eq!(
                execute_radix_listing(&asm, x).unwrap(),
                x.to_string(),
                "x={x}"
            );
        }
    }
}
