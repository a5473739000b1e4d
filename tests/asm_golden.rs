//! Golden snapshot of the emitted assembly text.
//!
//! The corpus covers every shape the planner lowers (unsigned, signed,
//! floor, exact, urem direct and multiply-back, divisibility test,
//! doubleword) at widths 8/16/32/64 and divisors {1, 3, 7, 10, 641}
//! (−7 instead of 7 for signed and floor), as optimized IR plus raw IR
//! for |d| = 7, emitted on all five targets, and the radix-conversion
//! loop for every target × {magic, hardware}. Each entry records the
//! rendered listing, `instruction_count()` and `uses_divide()`; a listing
//! whose emission panics is recorded as the panic message.
//!
//! Regenerate after an intended change with
//! `UPDATE_GOLDEN=1 cargo test --test asm_golden`.

use std::cell::Cell;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Once;

use magicdiv_suite::magicdiv::plan::{
    DivPlan, DivisibilityPlan, DwordPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan, UremPlan,
};
use magicdiv_suite::magicdiv_codegen::{
    emit_assembly, emit_body, emit_radix_loop, Assembly, Line, Target,
};
use magicdiv_suite::magicdiv_ir::{lower_plan, optimize, Program};

const FIVE_TARGETS: [Target; 5] = [
    Target::Alpha,
    Target::Mips,
    Target::Power,
    Target::Sparc,
    Target::X86,
];

const SHAPES: [&str; 8] = [
    "unsigned", "signed", "floor", "exact", "urem", "urem_mb", "divtest", "dword",
];

/// One corpus entry: its name and the emitted listing, or the panic
/// message when emission panicked.
struct Listing {
    name: String,
    asm: Result<Assembly, String>,
}

fn divisors(shape: &str) -> [i64; 5] {
    if matches!(shape, "signed" | "floor") {
        [1, 3, -7, 10, 641]
    } else {
        [1, 3, 7, 10, 641]
    }
}

fn fits(shape: &str, d: i64, w: u32) -> bool {
    if matches!(shape, "signed" | "floor") {
        let half = 1i128 << (w - 1);
        (-half..half).contains(&(d as i128))
    } else {
        (d as u128) < (1u128 << w)
    }
}

/// Raw (unoptimized) IR for one shape at one divisor and width.
fn lower(shape: &str, d: i64, w: u32) -> Program {
    let (du, ds) = (d as u128, d as i128);
    let plan: Result<DivPlan, _> = match shape {
        "unsigned" => UdivPlan::new(du, w).map(Into::into),
        "signed" => SdivPlan::new(ds, w).map(Into::into),
        "floor" => FloorPlan::new(ds, w).map(Into::into),
        "exact" => ExactPlan::new_unsigned(du, w).map(Into::into),
        "urem" => UremPlan::new_direct(du, w).map(Into::into),
        "urem_mb" => UremPlan::new(du, w).map(Into::into),
        "divtest" => DivisibilityPlan::new(du, w).map(Into::into),
        "dword" => DwordPlan::new(du, w).map(Into::into),
        other => unreachable!("unknown shape {other}"),
    };
    lower_plan(&plan.expect("nonzero divisor")).expect("width within the IR limit")
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `emit`, turning a panic into its message. The expected panics
/// are kept off stderr; any other panic still reports normally.
fn catch(emit: impl FnOnce() -> Assembly) -> Result<Assembly, String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                previous(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(emit));
    QUIET.with(|q| q.set(false));
    result.map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".into())
    })
}

/// The division programs of the corpus, named by shape, width, divisor
/// and form, in snapshot order.
fn programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for shape in SHAPES {
        for w in [8, 16, 32, 64] {
            for d in divisors(shape) {
                if !fits(shape, d, w) {
                    continue;
                }
                let raw = lower(shape, d, w);
                out.push((format!("{shape} w{w} d={d} opt"), optimize(&raw)));
                if d.abs() == 7 {
                    out.push((format!("{shape} w{w} d={d} raw"), raw));
                }
            }
        }
    }
    out
}

fn corpus() -> Vec<Listing> {
    let mut out = Vec::new();
    for (name, prog) in programs() {
        for t in FIVE_TARGETS {
            out.push(Listing {
                name: format!("{name} {t}"),
                asm: catch(|| emit_assembly(&prog, t, "f")),
            });
        }
    }
    for t in FIVE_TARGETS {
        for magic in [true, false] {
            let style = if magic { "magic" } else { "hardware" };
            out.push(Listing {
                name: format!("radix {t} {style}"),
                asm: catch(|| emit_radix_loop(t, magic)),
            });
        }
    }
    out
}

fn snapshot(corpus: &[Listing]) -> String {
    let mut s = String::new();
    for l in corpus {
        writeln!(s, "== {}", l.name).expect("write to String");
        match &l.asm {
            Ok(asm) => {
                writeln!(
                    s,
                    "insts {} divide {}",
                    asm.instruction_count(),
                    asm.uses_divide()
                )
                .expect("write to String");
                s.push_str(&asm.to_string());
            }
            Err(msg) => writeln!(s, "panic: {msg}").expect("write to String"),
        }
    }
    s
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/asm_listings.txt")
}

#[test]
fn emitted_assembly_matches_golden_snapshot() {
    let got = snapshot(&corpus());
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if want != got {
        let (want_lines, got_lines): (Vec<_>, Vec<_>) =
            (want.lines().collect(), got.lines().collect());
        let first = want_lines
            .iter()
            .zip(&got_lines)
            .position(|(a, b)| a != b)
            .unwrap_or(want_lines.len().min(got_lines.len()));
        let from = first.saturating_sub(8);
        panic!(
            "{} diverged at line {}\nwant:\n{}\ngot:\n{}",
            path.display(),
            first + 1,
            want_lines[from..(first + 8).min(want_lines.len())].join("\n"),
            got_lines[from..(first + 8).min(got_lines.len())].join("\n"),
        );
    }
}

/// The text rule `instruction_count()` used to apply to rendered lines.
fn text_instruction_count(lines: &[&str]) -> usize {
    lines
        .iter()
        .filter(|l| {
            !l.trim_start().starts_with('#') && !l.trim_end().ends_with(':') && !l.trim().is_empty()
        })
        .count()
}

/// The text rule `uses_divide()` used to apply to rendered lines.
fn text_uses_divide(lines: &[&str]) -> bool {
    lines.iter().any(|l| {
        if !l.starts_with('\t') {
            return false; // label line
        }
        let t = l.trim_start();
        if t.starts_with('#') {
            return false;
        }
        t.starts_with("div")
            || t.starts_with("udiv")
            || t.starts_with("sdiv")
            || t.contains("__div")
            || t.contains("__rem")
    })
}

#[test]
fn typed_predicates_agree_with_the_text_rules() {
    let corpus = corpus();
    let mut divides = 0;
    for l in &corpus {
        let Ok(asm) = &l.asm else { continue };
        let text = asm.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            asm.lines.len(),
            "{}: one text line per typed line",
            l.name
        );
        assert_eq!(
            asm.instruction_count(),
            text_instruction_count(&lines),
            "{}:\n{text}",
            l.name
        );
        assert_eq!(
            asm.uses_divide(),
            text_uses_divide(&lines),
            "{}:\n{text}",
            l.name
        );
        divides += usize::from(asm.uses_divide());
    }
    // The hardware radix loops divide on every target, so both answers
    // of the divide rule are exercised.
    assert!(divides >= 5, "only {divides} listings divide");
}

/// The registers a function returns its results in, and the return
/// sequence.
fn epilogue(t: Target) -> ([&'static str; 2], &'static [&'static str]) {
    match t {
        Target::Alpha => (["$0", "$1"], &["ret $31,($26),1"]),
        Target::Mips => (["$2", "$3"], &["j $31"]),
        Target::Power => (["3", "4"], &["br"]),
        Target::Sparc => (["%o0", "%o1"], &["retl", "nop"]),
        _ => (["eax", "edx"], &["ret"]),
    }
}

/// The register an instruction's text names as its destination, by the
/// target's operand order, or `None` when it writes no pool register
/// (compares, and the multiplies and divides that write HI/LO or
/// EDX:EAX).
fn written_register(t: Target, text: &str) -> Option<&str> {
    let (mnemonic, rest) = text.trim().split_once(' ').unwrap_or((text.trim(), ""));
    let operands: Vec<&str> = rest.split(',').filter(|o| !o.is_empty()).collect();
    let first = operands.first().copied();
    match (t, mnemonic) {
        (Target::Alpha, "lda" | "ldah" | "ldiq" | "jsr") => first,
        (Target::Alpha | Target::Sparc, "cmp") => None,
        (Target::Alpha | Target::Sparc, _) => operands.last().copied(),
        (Target::Mips, "mult" | "multu") => None,
        (Target::Power | Target::Mips, _) => first,
        (_, "cmp" | "test" | "cdq") => None,
        (_, "mul" | "imul" | "div" | "idiv") if operands.len() == 1 => None,
        _ => first,
    }
}

#[test]
fn listings_are_label_constants_body_then_epilogue() {
    let mut checked = 0;
    for (name, prog) in programs() {
        for t in FIVE_TARGETS {
            let Ok(asm) = catch(|| emit_assembly(&prog, t, "f")) else {
                continue; // the recorded x86 register-pool panics
            };
            let body = emit_body(&prog, t);
            let at = |i: usize| &asm.lines[i.min(asm.lines.len())..];
            let (consts, lines) = (body.const_lines.len(), body.lines.len());
            assert_eq!(asm.lines[0], Line::Label("f".into()), "{name} {t}");
            assert_eq!(at(1)[..consts], body.const_lines[..], "{name} {t}");
            assert_eq!(at(1 + consts)[..lines], body.lines[..], "{name} {t}");
            // Then a move for each result outside its return register,
            // and the return.
            let tail: Vec<String> = at(1 + consts + lines)
                .iter()
                .map(|l| l.to_string())
                .collect();
            let (rets, ret) = epilogue(t);
            let moves: Vec<(String, &str)> = body
                .results
                .iter()
                .map(ToString::to_string)
                .zip(rets)
                .filter(|(src, ret)| src != ret)
                .collect();
            assert_eq!(tail.len(), moves.len() + ret.len(), "{name} {t}: {tail:?}");
            for (line, (src, dst)) in tail.iter().zip(&moves) {
                assert_eq!(written_register(t, line), Some(*dst), "{name} {t}: {line}");
                assert!(
                    line.split([' ', ',']).any(|o| o == src),
                    "{name} {t}: {line}"
                );
            }
            let ret_text: Vec<String> = ret.iter().map(|r| format!("\t{r}")).collect();
            assert_eq!(tail[moves.len()..], ret_text[..], "{name} {t}");
            // No body instruction writes a register holding a hoisted
            // constant: the radix loops load the constants once, before
            // the loop.
            let constant_regs: Vec<String> = body
                .const_lines
                .iter()
                .map(|l| l.to_string())
                .filter_map(|l| written_register(t, &l).map(str::to_owned))
                .collect();
            assert_eq!(constant_regs.is_empty(), consts == 0, "{name} {t}");
            for line in &body.lines {
                if let Line::Ins(ins) = line {
                    let text = ins.to_string();
                    let written = written_register(t, &text);
                    assert!(
                        written.is_none_or(|r| !constant_regs.iter().any(|c| c == r)),
                        "{name} {t}: {text} overwrites a constant register"
                    );
                }
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 920 - 23);
}
