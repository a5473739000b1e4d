//! The radix-conversion kernel of Figure 11.1 — "an example with
//! compile-time constant divisor that gets drastically faster on all
//! recent processor implementations" — as IR loop bodies and as the full
//! per-target assembly loops of Table 11.1.
//!
//! ```c
//! do { *--bp = '0' + x % 10; x /= 10; } while (x != 0);
//! ```

use magicdiv::plan::UdivPlan;
use magicdiv_ir::{lower_udiv, optimize, Builder, Op, Program};

use crate::mulconst::emit_mul_const;
use crate::targets::{emit_body, ins, Assembly, Line, Operand, Target};

/// How the per-digit `x / 10`, `x % 10` pair is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RadixStyle {
    /// The paper's optimization: magic-multiplier division, remainder by
    /// multiply-back (quotient shared by CSE, as GCC does in Table 11.1).
    Magic,
    /// Baseline: hardware divide + remainder instructions.
    Hardware,
    /// The Alpha 21064 variant: a 64-bit machine where even the magic
    /// multiply is expanded into shifts and scaled adds, because `mulq`
    /// costs 23 cycles (Table 11.1's left column).
    AlphaShiftAdd,
}

/// Builds the loop body as an IR program: argument `x`, results
/// `[x / 10, '0' + x % 10]`.
///
/// # Panics
///
/// Panics when `width` is not in `8..=64` (`AlphaShiftAdd` forces 64).
///
/// # Examples
///
/// ```
/// use magicdiv_codegen::{radix_body, RadixStyle};
///
/// let body = radix_body(32, RadixStyle::Magic);
/// assert_eq!(body.eval(&[4567]).unwrap(), vec![456, b'7' as u64]);
/// assert!(!body.op_counts().uses_divide());
/// ```
pub fn radix_body(width: u32, style: RadixStyle) -> Program {
    match style {
        RadixStyle::Magic => {
            let mut b = Builder::new(width, 1);
            let x = b.arg(0);
            let by10 = UdivPlan::new(10, width).expect("10 fits every width in 8..=64");
            let q = lower_udiv(&mut b, x, &by10);
            let ten = b.constant(10);
            let prod = b.push(Op::MulL(q, ten));
            let r = b.push(Op::Sub(x, prod));
            let zero = b.constant(b'0' as u64);
            let digit = b.push(Op::Add(r, zero));
            optimize(&b.finish([q, digit]))
        }
        RadixStyle::Hardware => {
            let mut b = Builder::new(width, 1);
            let x = b.arg(0);
            let ten = b.constant(10);
            let q = b.push(Op::DivU(x, ten));
            let r = b.push(Op::RemU(x, ten));
            let zero = b.constant(b'0' as u64);
            let digit = b.push(Op::Add(r, zero));
            optimize(&b.finish([q, digit]))
        }
        RadixStyle::AlphaShiftAdd => {
            // 64-bit registers, 32-bit values: q = (x * m) >> 35 with the
            // multiply expanded into shifts/adds; 10*q likewise.
            let width = 64;
            let m = ((1u64 << 34) + 1) / 5;
            let mut b = Builder::new(width, 1);
            let x = b.arg(0);
            let prod = emit_mul_const(&mut b, x, m);
            let q = b.push(Op::Srl(prod, 35));
            let back = emit_mul_const(&mut b, q, 10);
            let r = b.push(Op::Sub(x, back));
            let zero = b.constant(b'0' as u64);
            let digit = b.push(Op::Add(r, zero));
            optimize(&b.finish([q, digit]))
        }
    }
}

/// Emits the full Table 11.1-style radix-conversion loop for one target.
///
/// The listing mirrors the paper's figure: buffer setup, a tight `.L1`
/// loop computing digit and quotient (with **no divide instruction** in
/// the magic variants), a store-byte, and the loop-back branch.
///
/// # Examples
///
/// ```
/// use magicdiv_codegen::{emit_radix_loop, Target};
///
/// let asm = emit_radix_loop(Target::Mips, true);
/// assert!(!asm.uses_divide());
/// assert!(asm.to_string().contains("multu"));
/// ```
pub fn emit_radix_loop(target: Target, magic: bool) -> Assembly {
    let style = match (target, magic) {
        (Target::Alpha, true) => RadixStyle::AlphaShiftAdd,
        (_, true) => RadixStyle::Magic,
        (_, false) => RadixStyle::Hardware,
    };
    let width = if target == Target::Alpha { 64 } else { 32 };
    let body = radix_body(width, style);
    let emitted = emit_body(&body, target);
    let (q, digit) = (emitted.results[0], emitted.results[1]);

    // Prologue: bp = buf + BUFSIZE - 1; *bp = '\0'.
    let prologue = match target {
        Target::Alpha => vec![
            ins!("lda $2,buf"),
            ins!("addq $2,49,$9"),
            ins!("stb $31,0($9)"),
        ],
        Target::Mips => vec![ins!("la $16,buf+49"), ins!("sb $0,0($16)")],
        Target::Power => vec![
            ins!("l 30,LC..0(2)"),
            ins!("cal 30,49(30)"),
            ins!("stb 0,0(30)"),
        ],
        Target::Sparc => vec![
            ins!("sethi %hi(buf+49),%l7"),
            ins!("or %l7,%lo(buf+49),%l7"),
            ins!("stb %g0,[%l7]"),
        ],
        Target::X86 => vec![ins!("mov esi,buf+49"), ins!("mov byte [esi],0")],
    };
    // Store digit, decrement pointer, loop while q != 0, feeding q back
    // into the argument register.
    let x = Operand::Sym(target.arg_register(0));
    let mut epilogue = Vec::new();
    match target {
        Target::Alpha => {
            epilogue.push(ins!("subq $9,1,$9"));
            epilogue.push(ins!("stb {},0($9)", digit));
            epilogue.push(ins!("bis {},{},{}", q, q, x));
            epilogue.push(ins!("bne {},.L1", q));
            epilogue.push(ins!("bis $9,$9,$0"));
            epilogue.push(ins!("ret $31,($26),1"));
        }
        Target::Mips => {
            epilogue.push(ins!("subu $16,$16,1"));
            epilogue.push(ins!("sb {},0($16)", digit));
            if x != q {
                epilogue.push(ins!("move {},{}", x, q));
            }
            epilogue.push(ins!("bne {},$0,.L1", q));
            epilogue.push(ins!("move $2,$16"));
            epilogue.push(ins!("j $31"));
        }
        Target::Power => {
            epilogue.push(ins!("ai 30,30,-1"));
            epilogue.push(ins!("stb {},0(30)", digit));
            if x != q {
                epilogue.push(ins!("mr {},{}", x, q));
            }
            epilogue.push(ins!("cmpi 0,{},0", q));
            epilogue.push(ins!("bne .L1"));
            epilogue.push(ins!("mr 3,30"));
            epilogue.push(ins!("br"));
        }
        Target::Sparc => {
            epilogue.push(ins!("add %l7,-1,%l7"));
            epilogue.push(ins!("stb {},[%l7]", digit));
            if x != q {
                epilogue.push(ins!("mov {},{}", q, x));
            }
            epilogue.push(ins!("orcc {},%g0,%g0", q));
            epilogue.push(ins!("bne .L1"));
            epilogue.push(ins!("nop"));
            epilogue.push(ins!("retl"));
            epilogue.push(ins!("mov %l7,%o0"));
        }
        Target::X86 => {
            epilogue.push(ins!("dec esi"));
            // Stage the digit through edx so the store has a byte register
            // regardless of where allocation put it.
            epilogue.push(ins!("mov edx,{}", digit));
            epilogue.push(ins!("mov byte [esi],dl"));
            epilogue.push(ins!("mov {},{}", x, q));
            epilogue.push(ins!("test {},{}", q, q));
            epilogue.push(ins!("jnz .L1"));
            epilogue.push(ins!("mov eax,esi"));
            epilogue.push(ins!("ret"));
        }
    }

    let mut lines = vec![Line::Label("decimal".into())];
    lines.extend(prologue.into_iter().map(Line::Ins));
    // Loop-invariant constants load once, before the loop (as in the
    // paper's listings).
    lines.extend(emitted.const_lines);
    lines.push(Line::Label(".L1".into()));
    lines.extend(emitted.lines);
    lines.extend(epilogue.into_iter().map(Line::Ins));
    Assembly { target, lines }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the loop-body program repeatedly like Figure 11.1 and
    /// collects the digits.
    fn run_radix(body: &Program, mut x: u64) -> String {
        let m = magicdiv_ir::mask(body.width());
        x &= m;
        let mut digits = Vec::new();
        loop {
            let out = body.eval(&[x]).unwrap();
            digits.push(out[1] as u8 as char);
            x = out[0];
            if x == 0 {
                break;
            }
        }
        digits.reverse();
        digits.into_iter().collect()
    }

    #[test]
    fn all_styles_convert_correctly() {
        for style in [
            RadixStyle::Magic,
            RadixStyle::Hardware,
            RadixStyle::AlphaShiftAdd,
        ] {
            let width = if style == RadixStyle::AlphaShiftAdd {
                64
            } else {
                32
            };
            let body = radix_body(width, style);
            for x in [0u64, 7, 10, 42, 1994, 123456789, u32::MAX as u64] {
                assert_eq!(run_radix(&body, x), format!("{x}"), "{style:?} x={x}");
            }
        }
    }

    #[test]
    fn magic_body_shares_quotient() {
        let body = radix_body(32, RadixStyle::Magic);
        let c = body.op_counts();
        assert_eq!(c.mul_high, 1, "quotient multiply shared: {body}");
        assert!(!c.uses_divide());
    }

    #[test]
    fn alpha_style_has_no_multiply_at_all() {
        let body = radix_body(64, RadixStyle::AlphaShiftAdd);
        let c = body.op_counts();
        assert!(!c.uses_multiply(), "{body}");
        assert!(!c.uses_divide());
    }

    #[test]
    fn hardware_body_uses_divider() {
        let body = radix_body(32, RadixStyle::Hardware);
        assert!(body.op_counts().uses_divide());
    }

    #[test]
    fn loops_emit_for_all_targets() {
        for &t in &Target::ALL {
            let magic = emit_radix_loop(t, true);
            assert!(!magic.uses_divide(), "{t}: {magic}");
            let text = magic.to_string();
            assert!(text.contains(".L1:"), "{t}");
            assert!(text.contains("stb") || text.contains("sb "), "{t}: {text}");

            let hw = emit_radix_loop(t, false);
            assert!(hw.uses_divide(), "{t}: {hw}");
        }
    }

    #[test]
    fn alpha_magic_loop_uses_scaled_adds_not_mulq() {
        let asm = emit_radix_loop(Target::Alpha, true);
        let text = asm.to_string();
        assert!(!text.contains("mulq"), "{text}");
        assert!(
            text.contains("s4addq") || text.contains("s8addq") || text.contains("s4subq"),
            "{text}"
        );
    }
}
