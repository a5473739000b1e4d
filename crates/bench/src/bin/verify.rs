//! `verify` — the differential oracle harness: randomized cross-layer
//! checking, plus a mutation run that measures whether the oracle would
//! actually catch a wrong program.
//!
//! Three phases:
//!
//! 1. **Library layer** — for random `(n, d)`, native division and every
//!    `magicdiv` divisor type must agree (unsigned/signed/floor/exact/
//!    divisibility/dword at widths 8–64, library types also at 128).
//! 2. **Codegen layer** — generated IR programs, run through the
//!    interpreter, must agree with native division at widths including
//!    the odd ones (24/48/57); the Fig 8.1 dword shape rides along at
//!    the widths its packed-input oracle covers (≤ 32).
//! 3. **Mutation run** — every single-op mutant of every code shape at
//!    widths 8/16/32/64 must be *killed* by the oracle (exhaustively at
//!    width 8, directed + random above) or *proven equivalent*; the kill
//!    rate is reported.
//!
//! All mismatches are collected (not exit-on-first), each is shrunk to a
//! minimal `(n, d)` witness and persisted as a one-line reproducer under
//! `tests/corpus/`, and the run ends with a machine-readable JSON
//! summary on stdout. Exit status is nonzero if anything failed.
//! With `--trace`, each persisted reproducer also embeds the failing
//! replay's event stream (JSONL, `#`-commented so replay skips it).
//!
//! Usage:
//! `verify [iterations] [seed] [--corpus DIR] [--no-corpus-write] [--trace]`

#![allow(clippy::manual_is_multiple_of)]
use std::path::PathBuf;

use magicdiv::plan::{DivPlan, DwordPlan, SdivPlan, UdivPlan};
use magicdiv::{
    DWord, DwordDivisor, ExactSignedDivisor, ExactUnsignedDivisor, FloorDivisor,
    InvariantSignedDivisor, InvariantUnsignedDivisor, SignedDivisor, UnsignedDivisor,
};
use magicdiv_bench::{
    build_repro_program, classify_mutant, default_corpus_dir, run, shrink, write_entry_traced,
    Case, CorpusEntry, MutantFate, Repro, Shape, SplitMix,
};
use magicdiv_codegen::{gen_signed_div_invariant, gen_unsigned_div_invariant};
use magicdiv_ir::{mask, mutations, sign_extend, EvalOptions};
use magicdiv_trace::{install, JsonlSink};

/// How many failures are echoed in full before the rest are only counted.
const MAX_REPORTED: usize = 25;
/// Random probes per mutant at widths above the exhaustive range.
const RANDOM_PROBES_PER_MUTANT: usize = 64;

#[derive(Default)]
struct Collector {
    checks: u64,
    mismatches: u64,
    reported: Vec<String>,
    corpus_dir: Option<PathBuf>,
    corpus_written: Vec<PathBuf>,
    /// `--trace`: replay each shrunk failure under a [`JsonlSink`] and
    /// embed the event stream in the persisted reproducer.
    trace: bool,
}

impl Collector {
    fn fail(&mut self, why: String) {
        self.mismatches += 1;
        if self.reported.len() < MAX_REPORTED {
            eprintln!("MISMATCH: {why}");
            self.reported.push(why);
        }
    }

    fn check(&mut self, cond: bool, why: impl FnOnce() -> String) {
        self.checks += 1;
        if !cond {
            self.fail(why());
        }
    }

    /// Records a case-level failure: shrink it and persist the
    /// reproducer so the corpus replay test pins the fix. Under
    /// `--trace`, the shrunk witness is replayed once more with a
    /// [`JsonlSink`] installed and the captured interpreter event
    /// stream rides along in the reproducer file as `#` comments.
    fn fail_case(&mut self, repro: Repro) {
        let small = shrink(&repro);
        self.fail(format!(
            "{} (shrunk from n={})",
            CorpusEntry::from(small.clone()),
            repro.n
        ));
        let trace_blob = if self.trace {
            let sink = std::sync::Arc::new(JsonlSink::new());
            if let Some(prog) = build_repro_program(&small.case, small.mutation) {
                let _guard = install(sink.clone());
                let _ = run(&small.case, &prog, small.n);
            }
            Some(sink.finish())
        } else {
            None
        };
        if let Some(dir) = &self.corpus_dir {
            match write_entry_traced(dir, &CorpusEntry::from(small), trace_blob.as_deref()) {
                Ok(path) => self.corpus_written.push(path),
                Err(e) => eprintln!("warning: could not persist reproducer: {e}"),
            }
        }
    }
}

fn library_phase(c: &mut Collector, rng: &mut SplitMix, iterations: u64) {
    for i in 0..iterations {
        let n = rng.next_u64();
        let d = rng.next_u64();
        macro_rules! unsigned_at {
            ($t:ty) => {{
                let (nw, dw) = (n as $t, (d as $t).max(1));
                let cd = UnsignedDivisor::new(dw).expect("nonzero");
                let id = InvariantUnsignedDivisor::new(dw).expect("nonzero");
                c.check(cd.divide(nw) == nw / dw, || {
                    format!("u{} Fig4.2 {nw}/{dw}", <$t>::BITS)
                });
                c.check(id.divide(nw) == nw / dw, || {
                    format!("u{} Fig4.1 {nw}/{dw}", <$t>::BITS)
                });
                c.check(cd.remainder(nw) == nw % dw, || {
                    format!("u{} rem {nw}%{dw}", <$t>::BITS)
                });
                c.check(
                    cd.plan() == UdivPlan::new(dw as u128, <$t>::BITS).expect("nonzero"),
                    || format!("u{} plan mismatch d={dw}", <$t>::BITS),
                );
            }};
        }
        unsigned_at!(u8);
        unsigned_at!(u16);
        unsigned_at!(u32);
        unsigned_at!(u64);
        let n128 = (rng.next_u64() as u128) << 64 | n as u128;
        let d128 = ((rng.next_u64() as u128) << 64 | d as u128).max(1);
        let cd = UnsignedDivisor::new(d128).expect("nonzero");
        c.check(cd.divide(n128) == n128 / d128, || {
            format!("u128 {n128}/{d128}")
        });

        macro_rules! signed_at {
            ($t:ty) => {{
                let (nw, dw) = (n as $t, d as $t);
                if dw != 0 {
                    let cd = SignedDivisor::new(dw).expect("nonzero");
                    let id = InvariantSignedDivisor::new(dw).expect("nonzero");
                    c.check(cd.divide(nw) == nw.wrapping_div(dw), || {
                        format!("i{} Fig5.2 {nw}/{dw}", <$t>::BITS)
                    });
                    c.check(id.divide(nw) == nw.wrapping_div(dw), || {
                        format!("i{} Fig5.1 {nw}/{dw}", <$t>::BITS)
                    });
                    if !(nw == <$t>::MIN && dw == -1) {
                        let fd = FloorDivisor::new(dw).expect("nonzero");
                        let expect =
                            nw.div_euclid(dw) - (((dw < 0) && nw.rem_euclid(dw) != 0) as $t);
                        c.check(fd.divide(nw) == expect, || {
                            format!("i{} floor {nw}/{dw}", <$t>::BITS)
                        });
                        c.check(cd.div_euclid(nw) == nw.div_euclid(dw), || {
                            format!("i{} euclid {nw}/{dw}", <$t>::BITS)
                        });
                    }
                    let ed = ExactSignedDivisor::new(dw).expect("nonzero");
                    c.check(ed.divides(nw) == (nw.wrapping_rem(dw) == 0), || {
                        format!("i{} divides {nw}|{dw}", <$t>::BITS)
                    });
                    c.check(
                        cd.plan() == SdivPlan::new(dw as i128, <$t>::BITS).expect("nonzero"),
                        || format!("i{} plan mismatch d={dw}", <$t>::BITS),
                    );
                }
            }};
        }
        signed_at!(i8);
        signed_at!(i16);
        signed_at!(i32);
        signed_at!(i64);

        let dq = (d | 1).max(3);
        let q = n % (u64::MAX / dq);
        let ed = ExactUnsignedDivisor::new(dq).expect("nonzero");
        c.check(ed.divide_exact(q * dq) == q, || format!("exact {q}*{dq}"));

        // Fig 8.1 doubleword ÷ word: the runtime library against native
        // wide division, with the high limb reduced mod d to satisfy the
        // overflow precondition — and one probe that the precondition
        // violation really traps.
        macro_rules! dword_at {
            ($t:ty) => {{
                let dw = (d as $t).max(1);
                let hi = (n as $t) % dw;
                let lo = rng.next_u64() as $t;
                let dd = DwordDivisor::new(dw).expect("nonzero");
                let (q, r) = dd
                    .div_rem(DWord::from_parts(hi, lo))
                    .expect("hi < d cannot overflow");
                let wide = ((hi as u128) << <$t>::BITS) | lo as u128;
                c.check(
                    q as u128 == wide / dw as u128 && r as u128 == wide % dw as u128,
                    || format!("u{} Fig8.1 ({hi},{lo})/{dw}", <$t>::BITS),
                );
                c.check(dd.div_rem(DWord::from_parts(dw, lo)).is_err(), || {
                    format!("u{} Fig8.1 overflow hi={dw} not trapped", <$t>::BITS)
                });
            }};
        }
        dword_at!(u8);
        dword_at!(u16);
        dword_at!(u32);
        dword_at!(u64);

        if i % 50_000 == 0 && i > 0 {
            eprintln!("... {i} iterations, {} checks", c.checks);
        }
    }
}

fn codegen_phase(c: &mut Collector, rng: &mut SplitMix, gen_iters: u64) -> u64 {
    let mut cases = 0u64;
    for _ in 0..gen_iters {
        let draw = rng.next_u64();
        let width = [8u32, 16, 24, 32, 48, 57, 64][draw as usize % 7];
        let m = mask(width);
        let dw = (rng.next_u64() & m).max(1);
        // The Case-covered shapes: mismatches here shrink + persist.
        for shape in Shape::ALL {
            if !shape.supports_width(width) {
                continue;
            }
            let case = Case::new(shape, width, dw);
            if case.shape.signed() && case.d_signed() == 0 {
                continue;
            }
            cases += 1;
            let prog = case.program();
            let inputs: Vec<u64> = (0..16).map(|_| case.random_input(rng)).collect();
            for n in case.directed_inputs().into_iter().chain(inputs) {
                let Some(want) = case.expected(n) else {
                    continue;
                };
                c.checks += 1;
                if run(&case, &prog, n) != Some(want) {
                    c.fail_case(Repro {
                        case,
                        mutation: None,
                        n,
                    });
                    break;
                }
            }
        }
        // The invariant (Fig 4.1/5.1) forms exist only at machine widths.
        if [8, 16, 32, 64].contains(&width) {
            // Same fuel budget as the Case harness: a pathological
            // program becomes a typed FuelExhausted fault, not a hang.
            let opts = EvalOptions {
                fuel: Some(magicdiv_bench::DEFAULT_EVAL_FUEL),
                ..EvalOptions::default()
            };
            let (iprog, siprog) = match (
                gen_unsigned_div_invariant(dw, width),
                gen_signed_div_invariant(sign_extend(dw, width), width),
            ) {
                (Ok(i), Ok(s)) => (i, s),
                (i, s) => {
                    c.check(false, || {
                        format!("codegen inv w{width} d={dw}: {:?} {:?}", i.err(), s.err())
                    });
                    continue;
                }
            };
            for _ in 0..8 {
                let nraw = rng.next_u64() & m;
                c.check(
                    iprog.eval_with(&[nraw], &opts).ok().map(|out| out[0]) == Some(nraw / dw),
                    || format!("codegen inv u{width} {nraw}/{dw}"),
                );
                let ns = sign_extend(nraw, width);
                let ds = sign_extend(dw, width);
                c.check(
                    siprog.eval_with(&[nraw], &opts).ok().map(|out| out[0])
                        == Some(ns.wrapping_div(ds) as u64 & m),
                    || format!("codegen inv i{width} {ns}/{ds}"),
                );
            }
        }
    }
    cases
}

#[derive(Default, Clone, Copy)]
struct MutationTally {
    total: u64,
    killed: u64,
    equivalent: u64,
    survived: u64,
}

impl MutationTally {
    fn record(&mut self, fate: &MutantFate) {
        self.total += 1;
        match fate {
            MutantFate::Killed { .. } => self.killed += 1,
            MutantFate::Equivalent => self.equivalent += 1,
            MutantFate::Survived => self.survived += 1,
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"total\":{},\"killed\":{},\"equivalent\":{},\"survived\":{}}}",
            self.total, self.killed, self.equivalent, self.survived
        )
    }
}

/// The overall mutant tally plus one tally per mutation class
/// (`const-flip`, `shift-nudge`, `opcode-swap`, `operand-swap`), so the
/// JSON summary shows which fault classes the oracle is strong against.
#[derive(Default)]
struct MutationReport {
    overall: MutationTally,
    by_class: std::collections::BTreeMap<&'static str, MutationTally>,
}

fn mutation_phase(c: &mut Collector, rng: &mut SplitMix) -> (MutationReport, u64) {
    let mut report = MutationReport::default();
    let mut cases = 0u64;
    for width in [8u32, 16, 32, 64] {
        for shape in Shape::ALL {
            // Dword at width 64 cannot be packed into the u64 harness;
            // the `plan_consistency` tier-1 test covers that width
            // against the runtime library instead.
            if !shape.supports_width(width) {
                continue;
            }
            let divisors: &[i64] = if shape.signed() {
                &[3, 7, 10, -5, -12]
            } else {
                &[3, 7, 10, 12, 25]
            };
            for &d in divisors {
                let case = Case::new(shape, width, d as u64);
                cases += 1;
                let pristine = case.program();
                // The oracle must bless the pristine program before its
                // mutants mean anything.
                let mut pristine_ok = true;
                for n in case.directed_inputs() {
                    let Some(want) = case.expected(n) else {
                        continue;
                    };
                    c.checks += 1;
                    if run(&case, &pristine, n) != Some(want) {
                        c.fail_case(Repro {
                            case,
                            mutation: None,
                            n,
                        });
                        pristine_ok = false;
                        break;
                    }
                }
                if !pristine_ok {
                    continue;
                }
                for m in mutations(&pristine) {
                    let fate = classify_mutant(&case, m, rng, RANDOM_PROBES_PER_MUTANT);
                    report.overall.record(&fate);
                    report
                        .by_class
                        .entry(m.kind_name())
                        .or_default()
                        .record(&fate);
                    if matches!(fate, MutantFate::Survived) {
                        c.fail(format!(
                            "SURVIVOR: {shape} w={width} d={d} {m} — oracle blind spot"
                        ));
                    }
                }
            }
        }
        let t = report.overall;
        eprintln!(
            "... mutation run w={width}: {} mutants so far, {} killed, {} equivalent, {} survived",
            t.total, t.killed, t.equivalent, t.survived
        );
    }
    (report, cases)
}

fn main() {
    let mut iterations: u64 = 200_000;
    let mut seed: u64 = 0x5eed;
    let mut corpus_dir = Some(default_corpus_dir());
    let mut trace = false;
    let mut positional = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--corpus" => {
                corpus_dir = args.next().map(PathBuf::from);
                if corpus_dir.is_none() {
                    eprintln!("--corpus requires a directory");
                    std::process::exit(2);
                }
            }
            "--no-corpus-write" => corpus_dir = None,
            "--trace" => trace = true,
            _ => {
                let Ok(v) = arg.parse() else {
                    eprintln!("unrecognized argument `{arg}`");
                    std::process::exit(2);
                };
                match positional {
                    0 => iterations = v,
                    1 => seed = v,
                    _ => {
                        eprintln!("too many positional arguments");
                        std::process::exit(2);
                    }
                }
                positional += 1;
            }
        }
    }

    let started = std::time::Instant::now();
    let mut rng = SplitMix(seed);
    let mut c = Collector {
        corpus_dir,
        trace,
        ..Collector::default()
    };

    // Show the shared planning layer's choices for the classic divisors —
    // the same plans drive the library divisors and codegen verified below.
    eprintln!("plans from the shared selection layer:");
    for d in [3u128, 7, 10, 641] {
        for width in [8u32, 32, 64] {
            if d > (mask(width) as u128) {
                continue;
            }
            let plan = DivPlan::from(UdivPlan::new(d, width).expect("nonzero"));
            eprintln!("  d={d:<4} u{width:<3} [{}] {plan}", plan.strategy_name());
        }
    }
    // The Fig 8.1 plans ride the same layer.
    for d in [10u128, 641] {
        let plan = DivPlan::from(DwordPlan::new(d, 32).expect("nonzero"));
        eprintln!("  d={d:<4} u32  [{}] {plan}", plan.strategy_name());
    }

    library_phase(&mut c, &mut rng, iterations);
    let codegen_cases = codegen_phase(&mut c, &mut rng, (iterations / 200).max(50));
    let (report, mutation_cases) = mutation_phase(&mut c, &mut rng);
    let tally = report.overall;

    let kill_rate = if tally.total == 0 {
        1.0
    } else {
        (tally.killed + tally.equivalent) as f64 / tally.total as f64
    };
    let status = if c.mismatches == 0 { "ok" } else { "failed" };
    eprintln!(
        "verify: {status} — {} checks, {} mismatches; {} mutants: {} killed, {} equivalent, {} survived (seed {seed})",
        c.checks, c.mismatches, tally.total, tally.killed, tally.equivalent, tally.survived
    );
    let by_class: Vec<String> = report
        .by_class
        .iter()
        .map(|(class, t)| format!("\"{class}\":{}", t.to_json()))
        .collect();
    let duration_ms = started.elapsed().as_millis() as u64;
    // The machine-readable summary is the last stdout line (schema v3).
    println!(
        "{{\"version\":3,\"status\":\"{status}\",\"seed\":{seed},\"git_sha\":\"{}\",\
         \"duration_ms\":{duration_ms},\"checks\":{},\"cases\":{},\"mismatches\":{},\
         \"mutants\":{},\"mutants_by_class\":{{{}}},\
         \"kill_rate\":{kill_rate:.6},\"corpus_written\":{}}}",
        magicdiv_bench::git_sha(),
        c.checks,
        codegen_cases + mutation_cases,
        c.mismatches,
        tally.to_json(),
        by_class.join(","),
        c.corpus_written.len(),
    );
    if c.mismatches > 0 {
        std::process::exit(1);
    }
}
