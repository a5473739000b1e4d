//! Randomized property tests over the core invariants (deterministic
//! splitmix64 driver — no external crates, so the suite builds offline):
//!
//! * `q * d + r == n` and `0 <= r < |d|`-style divrem laws for every
//!   divisor type, at the widths too large to sweep;
//! * agreement with native `/`, `%`, `div_euclid`;
//! * doubleword arithmetic vs the `u128` oracle;
//! * the optimizer preserves program semantics on random IR;
//! * round-trip and ordering laws for `choose_multiplier`.

// Divisibility *is* the subject under test; the stdlib helper would
// replace the checked identity with itself.
#![allow(clippy::manual_is_multiple_of)]

use magicdiv_suite::magicdiv::plan::{SdivPlan, UdivPlan};
use magicdiv_suite::magicdiv::{
    choose_multiplier, floor_div_via_trunc, mod_inverse_bitwise, mod_inverse_newton, trunc_div_f64,
    DWord, DwordDivisor, ExactSignedDivisor, ExactUnsignedDivisor, FloorDivisor,
    InvariantSignedDivisor, InvariantUnsignedDivisor, SignedDivisor, UnsignedDivisor,
};
use magicdiv_suite::magicdiv_ir::{
    compile, legalize, mask, optimize, schedule, Builder, Op, Program, Reg, ScheduleWeights,
    TargetCaps,
};

const CASES: usize = 512;
const IR_CASES: usize = 256;

/// splitmix64 — the same deterministic generator the verifier uses.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_u128(&mut self) -> u128 {
        ((self.next_u64() as u128) << 64) | self.next_u64() as u128
    }

    /// A value that is sometimes an edge case (small, power-of-two-ish,
    /// near MAX) and otherwise uniform — proptest's bias, by hand.
    fn edgy_u64(&mut self) -> u64 {
        match self.next_u64() % 8 {
            0 => self.next_u64() % 16,
            1 => {
                let k = self.next_u64() % 64;
                let p = 1u64 << k;
                [p, p.wrapping_sub(1), p.wrapping_add(1)][(self.next_u64() % 3) as usize]
            }
            2 => u64::MAX - self.next_u64() % 16,
            _ => self.next_u64(),
        }
    }

    fn edgy_u128(&mut self) -> u128 {
        match self.next_u64() % 8 {
            0 => self.next_u64() as u128 % 16,
            1 => {
                let k = self.next_u64() % 128;
                let p = 1u128 << k;
                [p, p.wrapping_sub(1), p.wrapping_add(1)][(self.next_u64() % 3) as usize]
            }
            2 => u128::MAX - self.next_u64() as u128 % 16,
            _ => self.next_u128(),
        }
    }
}

#[test]
fn unsigned_u32_matches_native() {
    let mut rng = Rng::new(0x7531);
    for _ in 0..CASES {
        let n = rng.edgy_u64() as u32;
        let d = (rng.edgy_u64() as u32).max(1);
        let cd = UnsignedDivisor::new(d).unwrap();
        let id = InvariantUnsignedDivisor::new(d).unwrap();
        assert_eq!(cd.divide(n), n / d);
        assert_eq!(id.divide(n), n / d);
        let (q, r) = cd.div_rem(n);
        assert_eq!(q * d + r, n);
        assert!(r < d);
    }
}

#[test]
fn unsigned_u64_matches_native() {
    let mut rng = Rng::new(0x7532);
    for _ in 0..CASES {
        let n = rng.edgy_u64();
        let d = rng.edgy_u64().max(1);
        let cd = UnsignedDivisor::new(d).unwrap();
        assert_eq!(cd.divide(n), n / d, "n={n} d={d}");
        assert_eq!(cd.remainder(n), n % d, "n={n} d={d}");
    }
}

#[test]
fn unsigned_u128_matches_native() {
    let mut rng = Rng::new(0x7533);
    for _ in 0..CASES {
        let n = rng.edgy_u128();
        let d = rng.edgy_u128().max(1);
        let cd = UnsignedDivisor::new(d).unwrap();
        let id = InvariantUnsignedDivisor::new(d).unwrap();
        assert_eq!(cd.divide(n), n / d, "n={n} d={d}");
        assert_eq!(id.divide(n), n / d, "n={n} d={d}");
    }
}

#[test]
fn signed_i64_matches_native() {
    let mut rng = Rng::new(0x7534);
    for _ in 0..CASES {
        let n = rng.edgy_u64() as i64;
        let d = rng.edgy_u64() as i64;
        if d == 0 {
            continue;
        }
        let cd = SignedDivisor::new(d).unwrap();
        let id = InvariantSignedDivisor::new(d).unwrap();
        assert_eq!(cd.divide(n), n.wrapping_div(d), "n={n} d={d}");
        assert_eq!(id.divide(n), n.wrapping_div(d), "n={n} d={d}");
        assert_eq!(cd.remainder(n), n.wrapping_rem(d), "n={n} d={d}");
    }
}

#[test]
fn signed_i128_matches_native() {
    let mut rng = Rng::new(0x7535);
    for _ in 0..CASES {
        let n = rng.edgy_u128() as i128;
        let d = rng.edgy_u128() as i128;
        if d == 0 {
            continue;
        }
        let cd = SignedDivisor::new(d).unwrap();
        assert_eq!(cd.divide(n), n.wrapping_div(d), "n={n} d={d}");
    }
}

#[test]
fn floor_division_laws_i64() {
    let mut rng = Rng::new(0x7536);
    for _ in 0..CASES {
        let n = rng.edgy_u64() as i64;
        let d = rng.edgy_u64() as i64;
        if d == 0 || (n == i64::MIN && d == -1) {
            continue;
        }
        let fd = FloorDivisor::new(d).unwrap();
        let (q, m) = fd.div_mod(n);
        // Reconstruction and modulus sign/size laws.
        assert_eq!(q.wrapping_mul(d).wrapping_add(m), n, "n={n} d={d}");
        if m != 0 {
            assert_eq!(m.signum(), d.signum(), "n={n} d={d}");
        }
        assert!(m.unsigned_abs() < d.unsigned_abs(), "n={n} d={d}");
        // Floor <= trunc relationship.
        let t = n.wrapping_div(d);
        assert!(q <= t, "n={n} d={d}");
        assert!(t - q <= 1, "n={n} d={d}");
        // Identity (6.1) agrees.
        assert_eq!(floor_div_via_trunc(n, d), q, "n={n} d={d}");
    }
}

#[test]
fn dword_matches_u128_oracle() {
    let mut rng = Rng::new(0x7537);
    for _ in 0..CASES {
        let a = rng.edgy_u128();
        let b = rng.edgy_u128();
        let sh = (rng.next_u64() % 128) as u32;
        let da = DWord::<u64>::from_u128_truncate(a);
        let db = DWord::<u64>::from_u128_truncate(b);
        assert_eq!(da.wrapping_add(db).to_u128(), a.wrapping_add(b));
        assert_eq!(da.wrapping_sub(db).to_u128(), a.wrapping_sub(b));
        assert_eq!(da.shl_full(sh).to_u128(), a << sh);
        assert_eq!(da.shr_full(sh).to_u128(), a >> sh);
        assert_eq!(da.sar_full(sh).to_u128(), ((a as i128) >> sh) as u128);
        assert_eq!(da.cmp(&db), a.cmp(&b));
    }
}

#[test]
fn dword_div_matches_u128_oracle() {
    let mut rng = Rng::new(0x7538);
    for _ in 0..CASES {
        let a = rng.edgy_u128();
        let d = rng.edgy_u64().max(1);
        let da = DWord::<u64>::from_u128_truncate(a);
        let (q, r) = da.div_rem_limb(d).unwrap();
        assert_eq!(q.to_u128(), a / d as u128, "a={a} d={d}");
        assert_eq!(r as u128, a % d as u128, "a={a} d={d}");
    }
}

#[test]
fn dword_divisor_fig8_1() {
    let mut rng = Rng::new(0x7539);
    for _ in 0..CASES {
        let hi = rng.edgy_u64();
        let lo = rng.edgy_u64();
        let d = rng.edgy_u64().max(1);
        if hi >= d {
            continue; // quotient must fit
        }
        let dd = DwordDivisor::new(d).unwrap();
        let n = ((hi as u128) << 64) | lo as u128;
        let (q, r) = dd.div_rem(DWord::from_parts(hi, lo)).unwrap();
        assert_eq!(q as u128, n / d as u128, "n={n} d={d}");
        assert_eq!(r as u128, n % d as u128, "n={n} d={d}");
    }
}

#[test]
fn exact_division_roundtrip_u64() {
    let mut rng = Rng::new(0x753a);
    for _ in 0..CASES {
        let q = rng.edgy_u64();
        let d = rng.edgy_u64().max(1);
        let n = q.wrapping_mul(d);
        let ed = ExactUnsignedDivisor::new(d).unwrap();
        // Exact multiplication may wrap; only test when it doesn't.
        if let Some(real) = q.checked_mul(d) {
            assert_eq!(ed.divide_exact(real), q, "q={q} d={d}");
            assert!(ed.divides(real), "q={q} d={d}");
        }
        // divides() is always a correct predicate, wrap or not.
        assert_eq!(
            ed.divides(n.wrapping_add(1)),
            n.wrapping_add(1) % d == 0,
            "q={q} d={d}"
        );
    }
}

#[test]
fn exact_signed_divides_predicate() {
    let mut rng = Rng::new(0x753b);
    for _ in 0..CASES {
        let n = rng.edgy_u64() as i64;
        let d = rng.edgy_u64() as i64;
        if d == 0 {
            continue;
        }
        let ed = ExactSignedDivisor::new(d).unwrap();
        assert_eq!(ed.divides(n), n % d == 0, "n={n} d={d}");
    }
}

#[test]
fn inverses_agree_and_invert() {
    let mut rng = Rng::new(0x753c);
    for _ in 0..CASES {
        let odd = rng.edgy_u64() | 1;
        let a = mod_inverse_newton(odd);
        assert_eq!(a, mod_inverse_bitwise(odd), "odd={odd}");
        assert_eq!(a.wrapping_mul(odd), 1, "odd={odd}");
    }
}

#[test]
fn float_path_agrees_in_range() {
    let mut rng = Rng::new(0x753d);
    for _ in 0..CASES {
        let n = (rng.next_u64() % (1u64 << 51)) as i64 - (1i64 << 50);
        let d = rng.edgy_u64() as i32;
        if d == 0 {
            continue;
        }
        // i32 divisor sign-extended: well within the ±2^50 exact window.
        let q = trunc_div_f64(n, d as i64);
        assert_eq!(q, Some(n / d as i64), "n={n} d={d}");
    }
}

#[test]
fn choose_multiplier_bound_u64() {
    let mut rng = Rng::new(0x753e);
    for _ in 0..CASES {
        let d = rng.edgy_u64().max(1);
        let prec = (rng.next_u64() % 64) as u32 + 1;
        let c = choose_multiplier(d, prec).unwrap();
        // The chosen sh_post never exceeds l, and l brackets d.
        assert!(c.sh_post <= c.l, "d={d} prec={prec}");
        if d > 1 {
            assert!(1u128 << (c.l - 1) < d as u128, "d={d} prec={prec}");
            assert!(d as u128 <= 1u128 << c.l, "d={d} prec={prec}");
        }
    }
}

#[test]
fn codegen_matches_native_u64() {
    let mut rng = Rng::new(0x753f);
    for _ in 0..CASES {
        let n = rng.edgy_u64();
        let d = rng.edgy_u64().max(1);
        let prog = compile(UdivPlan::new(d.into(), 64).unwrap()).unwrap();
        assert_eq!(prog.eval1(&[n]).unwrap(), n / d, "n={n} d={d}");
    }
}

#[test]
fn codegen_matches_native_i32() {
    let mut rng = Rng::new(0x7540);
    for _ in 0..CASES {
        let n = rng.edgy_u64() as i32;
        let d = rng.edgy_u64() as i32;
        if d == 0 {
            continue;
        }
        let prog = compile(SdivPlan::new(d.into(), 32).unwrap()).unwrap();
        let got = prog.eval1(&[(n as u32) as u64]).unwrap();
        assert_eq!(got as u32, n.wrapping_div(d) as u32, "n={n} d={d}");
    }
}

/// A random straight-line program over `n_args` arguments at `width`
/// bits, avoiding division ops (so evaluation cannot trap).
fn arb_program(rng: &mut Rng, width: u32, n_args: u32, max_len: usize) -> Program {
    let len = rng.next_u64() as usize % max_len.max(2) + 1;
    let mut b = Builder::new(width, n_args);
    let mut count = n_args;
    for _ in 0..len {
        let kind = (rng.next_u64() % 16) as u8;
        let cval = rng.next_u64();
        let a_raw = rng.next_u64() as u32;
        let b_raw = rng.next_u64() as u32;
        let pick = |raw: u32| Reg::from_index(raw as usize % count as usize);
        let a = pick(a_raw);
        let bb = pick(b_raw);
        let sh = a_raw % width;
        let op = match kind {
            0 => Op::Const(cval),
            1 => Op::Add(a, bb),
            2 => Op::Sub(a, bb),
            3 => Op::Neg(a),
            4 => Op::MulL(a, bb),
            5 => Op::MulUH(a, bb),
            6 => Op::MulSH(a, bb),
            7 => Op::And(a, bb),
            8 => Op::Or(a, bb),
            9 => Op::Eor(a, bb),
            10 => Op::Not(a),
            11 => Op::Sll(a, sh),
            12 => Op::Srl(a, sh),
            13 => Op::Carry(a, bb),
            14 => Op::Borrow(a, bb),
            _ => Op::Sra(a, sh),
        };
        b.push(op);
        count += 1;
    }
    let result = Reg::from_index(count as usize - 1);
    b.finish([result])
}

#[test]
fn optimizer_preserves_semantics() {
    let mut rng = Rng::new(0x8641);
    for _ in 0..IR_CASES {
        let prog = arb_program(&mut rng, 32, 2, 24);
        let (x, y) = (rng.next_u64(), rng.next_u64());
        let opt = optimize(&prog);
        assert!(opt.insts().len() <= prog.insts().len());
        opt.validate().unwrap();
        let args = [x & mask(32), y & mask(32)];
        assert_eq!(opt.eval(&args).unwrap(), prog.eval(&args).unwrap());
    }
}

#[test]
fn legalizer_preserves_semantics() {
    let mut rng = Rng::new(0x8642);
    for i in 0..IR_CASES {
        let prog = arb_program(&mut rng, 32, 2, 20);
        let (x, y) = (rng.next_u64(), rng.next_u64());
        let caps = match i % 3 {
            0 => TargetCaps {
                has_muluh: false,
                has_mulsh: true,
                has_sra: true,
                has_carry: true,
            },
            1 => TargetCaps {
                has_muluh: true,
                has_mulsh: false,
                has_sra: true,
                has_carry: false,
            },
            _ => TargetCaps {
                has_muluh: true,
                has_mulsh: false,
                has_sra: false,
                has_carry: false,
            },
        };
        let legal = legalize(&prog, caps);
        legal.validate().unwrap();
        let args = [x & mask(32), y & mask(32)];
        assert_eq!(legal.eval(&args).unwrap(), prog.eval(&args).unwrap());
    }
}

#[test]
fn scheduler_preserves_semantics() {
    let mut rng = Rng::new(0x8643);
    for _ in 0..IR_CASES {
        let prog = arb_program(&mut rng, 32, 2, 24);
        let (x, y) = (rng.next_u64(), rng.next_u64());
        let mul_lat = (rng.next_u64() % 39) as u32 + 1;
        let sched = schedule(
            &prog,
            ScheduleWeights {
                multiply: mul_lat,
                divide: 100,
                simple: 1,
            },
        );
        sched.validate().unwrap();
        assert_eq!(sched.insts().len(), prog.insts().len());
        let args = [x & mask(32), y & mask(32)];
        assert_eq!(sched.eval(&args).unwrap(), prog.eval(&args).unwrap());
    }
}

#[test]
fn pass_pipeline_composes() {
    let mut rng = Rng::new(0x8644);
    for _ in 0..IR_CASES {
        let prog = arb_program(&mut rng, 16, 2, 20);
        let (x, y) = (rng.next_u64(), rng.next_u64());
        // optimize ∘ schedule ∘ legalize ∘ optimize == identity semantics.
        let p1 = optimize(&prog);
        let p2 = legalize(
            &p1,
            TargetCaps {
                has_muluh: false,
                has_mulsh: true,
                has_sra: true,
                has_carry: false,
            },
        );
        let p3 = schedule(&p2, ScheduleWeights::default());
        let p4 = optimize(&p3);
        p4.validate().unwrap();
        let args = [x & mask(16), y & mask(16)];
        assert_eq!(p4.eval(&args).unwrap(), prog.eval(&args).unwrap());
    }
}
