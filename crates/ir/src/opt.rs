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

use crate::interp::{mask, sign_extend};
use crate::program::{Op, Program, Reg};

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
    let mut bufs = Buffers::default();
    // Iterate simplify+CSE to a fixed point (each pass can expose more).
    // The first pass reads `program` itself.
    let (mut current, mut changed) = run_pass(0, program, &mut bufs);
    for pass in 1..8 {
        if !changed {
            break;
        }
        (current, changed) = run_pass(pass, &current, &mut bufs);
    }
    current
}

/// One fixed-point pass of [`optimize`]: simplify and value-number, then
/// DCE. Returns the new program and whether it differs from `input`,
/// and reports the pass as an `ir.pass` event.
fn run_pass(pass: i32, input: &Program, bufs: &mut Buffers) -> (Program, bool) {
    let stats = simplify_and_cse(input, bufs);
    let simplified_len = bufs.simplified.len();
    let next = dce(input, bufs);
    let changed = next != *input;
    magicdiv_trace::event!("ir.pass",
        "pass" => pass,
        "ops_before" => input.insts().len(),
        "ops_after" => next.insts().len(),
        "folded" => stats.folded,
        "copy_propagated" => stats.copy_propagated,
        "cse_hits" => stats.cse_hits,
        "dce_removed" => simplified_len - next.insts().len(),
        "changed" => changed);
    (next, changed)
}

/// Working storage the passes of one [`optimize`] call share, so a pass
/// allocates only the program it returns.
#[derive(Default)]
struct Buffers {
    /// [`simplify_and_cse`]'s instruction list, which [`dce`] reads.
    simplified: Vec<Op>,
    /// [`simplify_and_cse`]'s result registers.
    results: Vec<Reg>,
    /// Old register → new register, rebuilt by each pass.
    remap: Vec<Reg>,
    /// [`dce`]'s liveness marks.
    live: Vec<bool>,
    /// [`dce`]'s work list.
    stack: Vec<usize>,
}

/// Rewrites fired by one [`simplify_and_cse`] pass, reported through the
/// `ir.pass` trace event.
#[derive(Default)]
struct PassStats {
    /// Operations folded to a `Const`.
    folded: usize,
    /// Operations replaced by an existing register (algebraic identity /
    /// copy propagation).
    copy_propagated: usize,
    /// Operations deduplicated by value numbering.
    cse_hits: usize,
}

/// One forward pass of constant folding, algebraic rewriting and value
/// numbering over `program`, into `bufs.simplified` and `bufs.results`.
fn simplify_and_cse(program: &Program, bufs: &mut Buffers) -> PassStats {
    let w = program.width();
    let m = mask(w);
    let out = &mut bufs.simplified;
    // Map from old register to new register.
    let remap = &mut bufs.remap;
    out.clear();
    remap.clear();

    let mut stats = PassStats::default();

    for op in program.insts() {
        let original = op.map_operands(|r| remap[r.index()]);
        // Constant value of a (new) register, if known.
        let const_of = |r: Reg| match out[r.index()] {
            Op::Const(c) => Some(c),
            _ => None,
        };
        let new_reg = match simplify_op(original, w, m, &const_of) {
            Rewrite::Use(r) => {
                stats.copy_propagated += 1;
                r
            }
            Rewrite::Emit(op) => {
                if matches!(op, Op::Const(_)) && !matches!(original, Op::Const(_)) {
                    stats.folded += 1;
                }
                // Value numbering: reuse the first identical operation.
                match out.iter().position(|o| *o == op) {
                    Some(i) => {
                        stats.cse_hits += 1;
                        Reg(i as u32)
                    }
                    None => {
                        out.push(op);
                        Reg(out.len() as u32 - 1)
                    }
                }
            }
        };
        remap.push(new_reg);
    }

    bufs.results.clear();
    bufs.results
        .extend(program.results().iter().map(|r| remap[r.index()]));
    stats
}

/// Result of rewriting one operation: either reuse an existing register
/// (copy propagation) or emit an operation (possibly folded to a `Const`).
enum Rewrite {
    Use(Reg),
    Emit(Op),
}

/// Rewrites one operation given operand constant-ness.
fn simplify_op(op: Op, w: u32, m: u64, const_of: &impl Fn(Reg) -> Option<u64>) -> Rewrite {
    use Op::*;
    let fold2 = |a: Reg, b: Reg, f: &dyn Fn(u64, u64) -> Option<u64>| -> Option<u64> {
        match (const_of(a), const_of(b)) {
            (Some(x), Some(y)) => f(x, y).map(|v| v & m),
            _ => None,
        }
    };

    match op {
        Add(a, b) => {
            if let Some(v) = fold2(a, b, &|x, y| Some(x.wrapping_add(y))) {
                return Rewrite::Emit(Const(v));
            }
            if const_of(b) == Some(0) {
                return Rewrite::Use(a);
            }
            if const_of(a) == Some(0) {
                return Rewrite::Use(b);
            }
            Rewrite::Emit(op)
        }
        Sub(a, b) => {
            if let Some(v) = fold2(a, b, &|x, y| Some(x.wrapping_sub(y))) {
                return Rewrite::Emit(Const(v));
            }
            if const_of(b) == Some(0) {
                return Rewrite::Use(a);
            }
            if a == b {
                return Rewrite::Emit(Const(0));
            }
            Rewrite::Emit(op)
        }
        Neg(a) => match const_of(a) {
            Some(x) => Rewrite::Emit(Const(x.wrapping_neg() & m)),
            None => Rewrite::Emit(op),
        },
        MulL(a, b) => {
            if let Some(v) = fold2(a, b, &|x, y| Some(x.wrapping_mul(y))) {
                return Rewrite::Emit(Const(v));
            }
            if const_of(b) == Some(1) {
                return Rewrite::Use(a);
            }
            if const_of(a) == Some(1) {
                return Rewrite::Use(b);
            }
            if const_of(a) == Some(0) || const_of(b) == Some(0) {
                return Rewrite::Emit(Const(0));
            }
            Rewrite::Emit(op)
        }
        MulUH(a, b) => {
            if let Some(v) = fold2(a, b, &|x, y| {
                Some((((x as u128) * (y as u128)) >> w) as u64)
            }) {
                return Rewrite::Emit(Const(v));
            }
            if const_of(a) == Some(0) || const_of(b) == Some(0) {
                return Rewrite::Emit(Const(0));
            }
            Rewrite::Emit(op)
        }
        MulSH(a, b) => {
            if let Some(v) = fold2(a, b, &|x, y| {
                Some((((sign_extend(x, w) as i128) * (sign_extend(y, w) as i128)) >> w) as u64)
            }) {
                return Rewrite::Emit(Const(v));
            }
            if const_of(a) == Some(0) || const_of(b) == Some(0) {
                return Rewrite::Emit(Const(0));
            }
            Rewrite::Emit(op)
        }
        And(a, b) => {
            if let Some(v) = fold2(a, b, &|x, y| Some(x & y)) {
                return Rewrite::Emit(Const(v));
            }
            if const_of(b) == Some(m) {
                return Rewrite::Use(a);
            }
            if const_of(a) == Some(m) {
                return Rewrite::Use(b);
            }
            if const_of(a) == Some(0) || const_of(b) == Some(0) {
                return Rewrite::Emit(Const(0));
            }
            if a == b {
                return Rewrite::Use(a);
            }
            Rewrite::Emit(op)
        }
        Or(a, b) => {
            if let Some(v) = fold2(a, b, &|x, y| Some(x | y)) {
                return Rewrite::Emit(Const(v));
            }
            if const_of(b) == Some(0) {
                return Rewrite::Use(a);
            }
            if const_of(a) == Some(0) {
                return Rewrite::Use(b);
            }
            if a == b {
                return Rewrite::Use(a);
            }
            Rewrite::Emit(op)
        }
        Eor(a, b) => {
            if let Some(v) = fold2(a, b, &|x, y| Some(x ^ y)) {
                return Rewrite::Emit(Const(v));
            }
            if const_of(b) == Some(0) {
                return Rewrite::Use(a);
            }
            if const_of(a) == Some(0) {
                return Rewrite::Use(b);
            }
            if a == b {
                return Rewrite::Emit(Const(0));
            }
            Rewrite::Emit(op)
        }
        Not(a) => match const_of(a) {
            Some(x) => Rewrite::Emit(Const(!x & m)),
            None => Rewrite::Emit(op),
        },
        Sll(a, 0) | Srl(a, 0) | Sra(a, 0) => Rewrite::Use(a),
        Sll(a, n) => match const_of(a) {
            Some(x) => Rewrite::Emit(Const((x << n) & m)),
            None => Rewrite::Emit(op),
        },
        Srl(a, n) => match const_of(a) {
            Some(x) => Rewrite::Emit(Const(x >> n)),
            None => Rewrite::Emit(op),
        },
        Sra(a, n) => match const_of(a) {
            Some(x) => Rewrite::Emit(Const((sign_extend(x, w) >> n) as u64 & m)),
            None => Rewrite::Emit(op),
        },
        Xsign(a) => match const_of(a) {
            Some(x) => Rewrite::Emit(Const((sign_extend(x, w) >> (w - 1).min(63)) as u64 & m)),
            None => Rewrite::Emit(op),
        },
        SltS(a, b) => fold2(a, b, &|x, y| {
            Some(u64::from(sign_extend(x, w) < sign_extend(y, w)))
        })
        .map(|v| Rewrite::Emit(Const(v)))
        .unwrap_or(Rewrite::Emit(op)),
        SltU(a, b) => fold2(a, b, &|x, y| Some(u64::from(x < y)))
            .map(|v| Rewrite::Emit(Const(v)))
            .unwrap_or(Rewrite::Emit(op)),
        Carry(a, b) => {
            if let Some(v) = fold2(a, b, &|x, y| {
                Some(u64::from(u128::from(x) + u128::from(y) > u128::from(m)))
            }) {
                return Rewrite::Emit(Const(v));
            }
            // x + 0 never carries.
            if const_of(a) == Some(0) || const_of(b) == Some(0) {
                return Rewrite::Emit(Const(0));
            }
            Rewrite::Emit(op)
        }
        Borrow(a, b) => {
            if let Some(v) = fold2(a, b, &|x, y| Some(u64::from(x < y))) {
                return Rewrite::Emit(Const(v));
            }
            // x - 0 and x - x never borrow.
            if const_of(b) == Some(0) || a == b {
                return Rewrite::Emit(Const(0));
            }
            Rewrite::Emit(op)
        }
        // Hardware division folds only when the divisor constant is
        // nonzero (folding a trap away would change semantics).
        DivU(a, b) => fold2(a, b, &|x, y| x.checked_div(y))
            .map(|v| Rewrite::Emit(Const(v)))
            .unwrap_or(Rewrite::Emit(op)),
        RemU(a, b) => fold2(a, b, &|x, y| x.checked_rem(y))
            .map(|v| Rewrite::Emit(Const(v)))
            .unwrap_or(Rewrite::Emit(op)),
        DivS(a, b) => fold2(a, b, &|x, y| {
            let (x, y) = (sign_extend(x, w), sign_extend(y, w));
            (y != 0).then(|| x.wrapping_div(y) as u64)
        })
        .map(|v| Rewrite::Emit(Const(v)))
        .unwrap_or(Rewrite::Emit(op)),
        RemS(a, b) => fold2(a, b, &|x, y| {
            let (x, y) = (sign_extend(x, w), sign_extend(y, w));
            (y != 0).then(|| x.wrapping_rem(y) as u64)
        })
        .map(|v| Rewrite::Emit(Const(v)))
        .unwrap_or(Rewrite::Emit(op)),
        Arg(_) | Const(_) => Rewrite::Emit(op),
    }
}

/// Dead-code elimination over [`simplify_and_cse`]'s output in `bufs`:
/// keeps only instructions reachable from the results, preserving
/// argument slots (arguments are always retained so the calling
/// convention stays stable). `program` supplies the width and signature.
fn dce(program: &Program, bufs: &mut Buffers) -> Program {
    let insts = &bufs.simplified;
    let n = insts.len();
    let live = &mut bufs.live;
    live.clear();
    live.resize(n, false);
    let stack = &mut bufs.stack;
    stack.clear();
    stack.extend(bufs.results.iter().map(|r| r.index()));
    while let Some(i) = stack.pop() {
        if live[i] {
            continue;
        }
        live[i] = true;
        for r in insts[i].operands() {
            stack.push(r.index());
        }
    }
    // Arguments always stay (they define the signature).
    for (i, op) in insts.iter().enumerate() {
        if matches!(op, Op::Arg(_)) {
            live[i] = true;
        }
    }
    let remap = &mut bufs.remap;
    remap.clear();
    let mut out: Vec<Op> = Vec::with_capacity(live.iter().filter(|&&l| l).count());
    for (op, &is_live) in insts.iter().zip(live.iter()) {
        if is_live {
            let new = Reg(out.len() as u32);
            out.push(op.map_operands(|r| remap[r.index()]));
            remap.push(new);
        } else {
            remap.push(Reg(u32::MAX)); // never read: not live, no live users
        }
    }
    let results = bufs.results.iter().map(|r| remap[r.index()]).collect();
    Program::from_raw(program.width(), program.arg_count(), out, results)
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
                    let once = optimize(&crate::lower_plan(&plan).unwrap());
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
