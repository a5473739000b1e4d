//! The machine-independent optimizer: constant folding, algebraic
//! simplification, common-subexpression elimination and dead-code
//! elimination.
//!
//! The paper (§3) notes that its code generators "may produce expressions
//! such as `SRL(x, 0)` or `(x − y)` [with a zero operand]; the optimizer
//! should make the obvious simplifications" — this module is that
//! optimizer, built as a single forward value-numbering pass iterated to a
//! fixed point, followed by DCE.
//!
//! Value numbering needs no hash table: the programs are a few dozen
//! instructions, so looking an operation up is a scan of the new
//! instruction list. Every operation enters that list only through the
//! lookup, so the first match is the register a table would have
//! recorded, and the output is the same as a hash-based pass's.
//!
//! A pass works in buffers on the stack (on the heap for programs over
//! [`STACK_INSTS`] instructions). A pass that fires no rewrite and whose
//! DCE keeps every instruction has left the program as it was, so it
//! builds nothing; a pass that changes it rewrites the one output
//! program in place.

use crate::interp::{mask, sign_extend};
use crate::program::{Op, Program, Reg};

/// Programs up to this many instructions are optimized in stack buffers.
const STACK_INSTS: usize = 64;
/// Marks an instruction DCE drops.
const DEAD: Reg = Reg(u32::MAX);

/// Optimizes a program: folds constants, applies algebraic identities,
/// shares common subexpressions and drops dead code. Semantics are
/// preserved exactly (verified by the property tests below and in the
/// integration suite).
///
/// # Examples
///
/// ```
/// use magicdiv_ir::{optimize, Builder, Op};
///
/// let mut b = Builder::new(32, 1);
/// let x = b.arg(0);
/// let zero = b.constant(0);
/// let y = b.push(Op::Add(x, zero));   // x + 0
/// let z = b.push(Op::Srl(y, 0));      // >> 0
/// let p = b.finish([z]);
/// let opt = optimize(&p);
/// // Everything folds away; only the argument remains.
/// assert_eq!(opt.insts().len(), 1);
/// ```
pub fn optimize(program: &Program) -> Program {
    let _span = magicdiv_trace::span("ir.optimize");
    let n = program.insts().len();
    let mut stack_ops = [Op::Arg(0); STACK_INSTS];
    let mut stack_regs = [Reg(0); 2 * STACK_INSTS];
    let (mut heap_ops, mut heap_regs) = (Vec::new(), Vec::new());
    let (ops, regs) = if n <= STACK_INSTS {
        (&mut stack_ops[..n], &mut stack_regs[..2 * n])
    } else {
        heap_ops.resize(n, Op::Arg(0));
        heap_regs.resize(2 * n, Reg(0));
        (&mut heap_ops[..], &mut heap_regs[..])
    };
    let (remap, keep) = regs.split_at_mut(n);
    // The output, built by the first pass that changes the program and
    // rewritten in place by later ones.
    let mut out: Option<Program> = None;
    // Iterate simplify+CSE to a fixed point (each pass can expose more).
    for pass in 0..8 {
        let input = out.as_ref().unwrap_or(program);
        let stats = simplify_and_cse(input, ops, remap);
        let ops = &ops[..stats.len];
        let kept = dce(ops, input.results().iter().map(|r| remap[r.index()]), keep);
        // With no rewrite and nothing dead, the pass rebuilt its input.
        let changed = stats.folded + stats.copy_propagated + stats.cse_hits > 0 || kept < ops.len();
        magicdiv_trace::event!("ir.pass",
            "pass" => pass,
            "ops_before" => input.insts().len(),
            "ops_after" => kept,
            "folded" => stats.folded,
            "copy_propagated" => stats.copy_propagated,
            "cse_hits" => stats.cse_hits,
            "dce_removed" => ops.len() - kept,
            "changed" => changed);
        if !changed {
            break;
        }
        let next = out.get_or_insert_with(|| {
            let results = program.results().to_vec();
            Program::from_raw(program.width(), program.arg_count(), Vec::new(), results)
        });
        let (insts, results) = next.parts_mut();
        for r in results.iter_mut() {
            *r = keep[remap[r.index()].index()];
        }
        insts.clear();
        insts.extend(
            ops.iter()
                .zip(&*keep)
                .filter(|&(_, &k)| k != DEAD)
                .map(|(op, _)| op.map_operands(|r| keep[r.index()])),
        );
    }
    out.unwrap_or_else(|| program.clone())
}

/// Rewrites fired by one [`simplify_and_cse`] pass, reported through the
/// `ir.pass` trace event.
#[derive(Default)]
struct PassStats {
    /// Length of the simplified instruction list.
    len: usize,
    /// Operations folded to a `Const`.
    folded: usize,
    /// Operations replaced by an existing register (algebraic identity /
    /// copy propagation).
    copy_propagated: usize,
    /// Operations deduplicated by value numbering.
    cse_hits: usize,
}

/// One forward pass of constant folding, algebraic rewriting and value
/// numbering over `program`: writes the simplified instructions to the
/// front of `out` and each old register's new one to `remap`.
fn simplify_and_cse(program: &Program, out: &mut [Op], remap: &mut [Reg]) -> PassStats {
    let w = program.width();
    let m = mask(w);
    let mut stats = PassStats::default();
    for (i, op) in program.insts().iter().enumerate() {
        let original = op.map_operands(|r| remap[r.index()]);
        let simplified = &out[..stats.len];
        // Constant value of a (new) register, if known.
        let const_of = |r: Reg| match simplified[r.index()] {
            Op::Const(c) => Some(c),
            _ => None,
        };
        let mut regs = original.operands();
        let (ca, cb) = (
            regs.next().and_then(const_of),
            regs.next().and_then(const_of),
        );
        remap[i] = match simplify_op(original, w, m, ca, cb) {
            Rewrite::Use(r) => {
                stats.copy_propagated += 1;
                r
            }
            Rewrite::Emit(op) => {
                if matches!(op, Op::Const(_)) && !matches!(original, Op::Const(_)) {
                    stats.folded += 1;
                }
                // Value numbering: reuse the first identical operation.
                match simplified.iter().position(|o| *o == op) {
                    Some(j) => {
                        stats.cse_hits += 1;
                        Reg(j as u32)
                    }
                    None => {
                        out[stats.len] = op;
                        stats.len += 1;
                        Reg(stats.len as u32 - 1)
                    }
                }
            }
        };
    }
    stats
}

/// Result of rewriting one operation: either reuse an existing register
/// (copy propagation) or emit an operation (possibly folded to a `Const`).
enum Rewrite {
    Use(Reg),
    Emit(Op),
}

/// Rewrites one operation, given the constant values of its first and
/// second operands where they are known.
fn simplify_op(op: Op, w: u32, m: u64, ca: Option<u64>, cb: Option<u64>) -> Rewrite {
    use Op::*;
    use Rewrite::{Emit, Use};
    let fold = |v: u64| Emit(Const(v & m));
    let sx = |v: u64| sign_extend(v, w);
    match (op, ca, cb) {
        (Add(..), Some(x), Some(y)) => fold(x.wrapping_add(y)),
        (Add(a, _), _, Some(0)) => Use(a),
        (Add(_, b), Some(0), _) => Use(b),
        (Sub(..), Some(x), Some(y)) => fold(x.wrapping_sub(y)),
        (Sub(a, _), _, Some(0)) => Use(a),
        (Sub(a, b), ..) if a == b => Emit(Const(0)),
        (Neg(_), Some(x), _) => fold(x.wrapping_neg()),
        (MulL(..), Some(x), Some(y)) => fold(x.wrapping_mul(y)),
        (MulL(a, _), _, Some(1)) => Use(a),
        (MulL(_, b), Some(1), _) => Use(b),
        (MulUH(..), Some(x), Some(y)) => fold(((u128::from(x) * u128::from(y)) >> w) as u64),
        (MulSH(..), Some(x), Some(y)) => {
            fold(((i128::from(sx(x)) * i128::from(sx(y))) >> w) as u64)
        }
        (MulL(..) | MulUH(..) | MulSH(..), Some(0), _)
        | (MulL(..) | MulUH(..) | MulSH(..), _, Some(0)) => Emit(Const(0)),
        (And(..), Some(x), Some(y)) => fold(x & y),
        (Or(..), Some(x), Some(y)) => fold(x | y),
        (Eor(..), Some(x), Some(y)) => fold(x ^ y),
        (And(a, _), _, Some(y)) if y == m => Use(a),
        (And(_, b), Some(x), _) if x == m => Use(b),
        (And(..), Some(0), _) | (And(..), _, Some(0)) => Emit(Const(0)),
        (Or(a, _) | Eor(a, _), _, Some(0)) => Use(a),
        (Or(_, b) | Eor(_, b), Some(0), _) => Use(b),
        (And(a, b) | Or(a, b), ..) if a == b => Use(a),
        (Eor(a, b), ..) if a == b => Emit(Const(0)),
        (Not(_), Some(x), _) => fold(!x),
        (Sll(a, 0) | Srl(a, 0) | Sra(a, 0), ..) => Use(a),
        (Sll(_, n), Some(x), _) => fold(x << n),
        (Srl(_, n), Some(x), _) => fold(x >> n),
        (Sra(_, n), Some(x), _) => fold((sx(x) >> n) as u64),
        (Xsign(_), Some(x), _) => fold((sx(x) >> (w - 1).min(63)) as u64),
        (SltS(..), Some(x), Some(y)) => fold(u64::from(sx(x) < sx(y))),
        (SltU(..) | Borrow(..), Some(x), Some(y)) => fold(u64::from(x < y)),
        (Carry(..), Some(x), Some(y)) => {
            fold(u64::from(u128::from(x) + u128::from(y) > u128::from(m)))
        }
        // x + 0 never carries; x - 0 and x - x never borrow.
        (Carry(..), Some(0), _) | (Carry(..) | Borrow(..), _, Some(0)) => Emit(Const(0)),
        (Borrow(a, b), ..) if a == b => Emit(Const(0)),
        // Hardware division folds only when the divisor constant is
        // nonzero (folding a trap away would change semantics).
        (DivU(..), Some(x), Some(y)) if y != 0 => fold(x / y),
        (RemU(..), Some(x), Some(y)) if y != 0 => fold(x % y),
        (DivS(..), Some(x), Some(y)) if y != 0 => fold(sx(x).wrapping_div(sx(y)) as u64),
        (RemS(..), Some(x), Some(y)) if y != 0 => fold(sx(x).wrapping_rem(sx(y)) as u64),
        _ => Emit(op),
    }
}

/// Dead-code elimination over the simplified instructions `ops` whose
/// results are `results`: sets `keep[i]` to instruction `i`'s index in
/// the output, or [`DEAD`], and returns how many stay. Arguments always
/// stay, so the calling convention is stable.
fn dce(ops: &[Op], results: impl Iterator<Item = Reg>, keep: &mut [Reg]) -> usize {
    let keep = &mut keep[..ops.len()];
    keep.fill(DEAD);
    for r in results {
        keep[r.index()] = Reg(0);
    }
    // Operands precede their users, so one backward sweep marks every
    // instruction a result reaches.
    for (i, op) in ops.iter().enumerate().rev() {
        if keep[i] != DEAD || matches!(op, Op::Arg(_)) {
            keep[i] = Reg(0);
            for r in op.operands() {
                keep[r.index()] = Reg(0);
            }
        }
    }
    let mut kept = 0;
    for k in keep.iter_mut().filter(|k| **k != DEAD) {
        *k = Reg(kept);
        kept += 1;
    }
    kept as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;

    #[test]
    fn optimized_programs_validate() {
        let mut b = Builder::new(32, 2);
        let x = b.arg(0);
        let z = b.constant(0);
        let a = b.push(Op::Add(x, z));
        let s = b.push(Op::Srl(a, 0));
        let d = b.push(Op::MulUH(s, b.arg(1)));
        let prog = b.finish([d]);
        prog.validate().unwrap();
        optimize(&prog).validate().unwrap();
    }

    #[test]
    fn folds_constants() {
        let mut b = Builder::new(32, 0);
        let x = b.constant(6);
        let y = b.constant(7);
        let p = b.push(Op::MulL(x, y));
        let prog = b.finish([p]);
        let opt = optimize(&prog);
        assert_eq!(opt.insts(), &[Op::Const(42)]);
    }

    #[test]
    fn removes_zero_shifts_and_adds() {
        let mut b = Builder::new(32, 1);
        let x = b.arg(0);
        let z = b.constant(0);
        let a = b.push(Op::Add(x, z));
        let s = b.push(Op::Srl(a, 0));
        let prog = b.finish([s]);
        let opt = optimize(&prog);
        assert_eq!(opt.insts(), &[Op::Arg(0)]);
        assert_eq!(opt.results(), &[Reg(0)]);
    }

    #[test]
    fn cse_shares_subexpressions() {
        let mut b = Builder::new(32, 2);
        let (x, y) = (b.arg(0), b.arg(1));
        let s1 = b.push(Op::Add(x, y));
        let s2 = b.push(Op::Add(x, y));
        let prod = b.push(Op::MulL(s1, s2));
        let prog = b.finish([prod]);
        let opt = optimize(&prog);
        // add appears once, not twice.
        let adds = opt
            .insts()
            .iter()
            .filter(|o| matches!(o, Op::Add(..)))
            .count();
        assert_eq!(adds, 1);
    }

    #[test]
    fn cse_keeps_one_of_many_duplicates() {
        let mut b = Builder::new(32, 2);
        let (x, y) = (b.arg(0), b.arg(1));
        let sums: Vec<Reg> = (0..40).map(|_| b.push(Op::Add(x, y))).collect();
        let mut acc = sums[0];
        for &s in &sums[1..] {
            acc = b.push(Op::Eor(acc, s));
        }
        let prog = b.finish([acc, sums[39]]);
        let opt = optimize(&prog);
        let adds = opt
            .insts()
            .iter()
            .filter(|o| matches!(o, Op::Add(..)))
            .count();
        assert_eq!(adds, 1, "{opt}");
        for args in [[0, 0], [3, 4], [u32::MAX.into(), 1]] {
            assert_eq!(opt.eval(&args).unwrap(), prog.eval(&args).unwrap());
        }
    }

    /// A second `optimize` finds nothing left to do, for every lowered
    /// plan shape at every machine width.
    #[test]
    fn optimize_is_a_fixed_point_on_lowered_plans() {
        use magicdiv::plan::{
            DivPlan, DivisibilityPlan, DwordPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan,
            UremPlan,
        };
        let mut checked = 0;
        for w in [8u32, 16, 32, 64] {
            for d in [3u64, 7, 10, 641, (1 << (w - 1)) + 1] {
                if w < 64 && d >> w != 0 {
                    continue;
                }
                let (du, ds) = (u128::from(d), i128::from(d));
                // Signed shapes take ±d where it fits a signed w-bit word.
                let signed = d < 1 << (w - 1);
                let plans: [Option<DivPlan>; 10] = [
                    UdivPlan::new(du, w).ok().map(Into::into),
                    signed.then(|| SdivPlan::new(ds, w).unwrap().into()),
                    signed.then(|| SdivPlan::new(-ds, w).unwrap().into()),
                    signed.then(|| FloorPlan::new(ds, w).unwrap().into()),
                    signed.then(|| FloorPlan::new(-ds, w).unwrap().into()),
                    ExactPlan::new_unsigned(du, w).ok().map(Into::into),
                    UremPlan::new_direct(du, w).ok().map(Into::into),
                    UremPlan::new(du, w).ok().map(Into::into),
                    DivisibilityPlan::new(du, w).ok().map(Into::into),
                    DwordPlan::new(du, w).ok().map(Into::into),
                ];
                for plan in plans.into_iter().flatten() {
                    let once = crate::compile(plan).unwrap();
                    assert_eq!(optimize(&once), once, "{plan:?}");
                    checked += 1;
                }
            }
        }
        assert!(checked >= 4 * 5 * 7, "only {checked} plans lowered");
    }

    #[test]
    fn dce_drops_unused() {
        let mut b = Builder::new(32, 1);
        let x = b.arg(0);
        let _unused = b.push(Op::MulL(x, x));
        let keep = b.push(Op::Not(x));
        let prog = b.finish([keep]);
        let opt = optimize(&prog);
        assert!(opt.insts().iter().all(|o| !matches!(o, Op::MulL(..))));
    }

    #[test]
    fn does_not_fold_division_by_zero() {
        let mut b = Builder::new(32, 0);
        let one = b.constant(1);
        let zero = b.constant(0);
        let d = b.push(Op::DivU(one, zero));
        let prog = b.finish([d]);
        let opt = optimize(&prog);
        assert!(opt.insts().iter().any(|o| matches!(o, Op::DivU(..))));
        assert!(opt.eval(&[]).is_err());
    }

    #[test]
    fn x_minus_x_is_zero() {
        let mut b = Builder::new(32, 1);
        let x = b.arg(0);
        let z = b.push(Op::Sub(x, x));
        let prog = b.finish([z]);
        let opt = optimize(&prog);
        assert_eq!(opt.eval1(&[12345]).unwrap(), 0);
        assert!(opt.insts().iter().any(|o| matches!(o, Op::Const(0))));
    }

    #[test]
    fn preserves_semantics_on_magic_division_shape() {
        // The d = 10 sequence with a gratuitous +0 and >>0 sprinkled in.
        let mut b = Builder::new(32, 1);
        let n = b.arg(0);
        let zero = b.constant(0);
        let n2 = b.push(Op::Add(n, zero));
        let m = b.constant(0xcccc_cccd);
        let hi = b.push(Op::MulUH(m, n2));
        let hi2 = b.push(Op::Srl(hi, 0));
        let q = b.push(Op::Srl(hi2, 3));
        let prog = b.finish([q]);
        let opt = optimize(&prog);
        assert!(opt.insts().len() < prog.insts().len());
        for x in [0u64, 1, 9, 10, 1234, u32::MAX as u64] {
            assert_eq!(opt.eval1(&[x]).unwrap(), prog.eval1(&[x]).unwrap(), "{x}");
        }
        assert_eq!(opt.eval1(&[1234]).unwrap(), 123);
    }

    #[test]
    fn copy_of_argument_via_and_mask() {
        let mut b = Builder::new(16, 1);
        let x = b.arg(0);
        let ones = b.constant(0xffff);
        let a = b.push(Op::And(x, ones));
        let prog = b.finish([a]);
        let opt = optimize(&prog);
        assert_eq!(opt.insts(), &[Op::Arg(0)]);
    }

    #[test]
    fn fixed_point_reaches_deep_chains() {
        // ((x + 0) + 0) + 0 ... collapses fully.
        let mut b = Builder::new(32, 1);
        let mut cur = b.arg(0);
        let zero = b.constant(0);
        for _ in 0..10 {
            cur = b.push(Op::Add(cur, zero));
        }
        let prog = b.finish([cur]);
        let opt = optimize(&prog);
        assert_eq!(opt.insts(), &[Op::Arg(0)]);
    }
}
