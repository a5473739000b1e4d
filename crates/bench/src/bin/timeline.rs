//! `timeline` — shows, cycle by cycle, how the magic-division sequence
//! schedules on a chosen Table 1.1 machine vs. the hardware divide: the
//! visual form of the paper's latency argument.
//!
//! Usage: `cargo run -p magicdiv-bench --bin timeline -- [divisor] [cpu]`

use magicdiv::plan::UdivPlan;
use magicdiv_codegen::gen_unsigned_div_hw;
use magicdiv_ir::{compile, Program};
use magicdiv_simcpu::{find_model, trace_program, TimingModel};

fn main() {
    let d: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let cpu = std::env::args().nth(2).unwrap_or_else(|| "R3000".into());
    let Some(model) = find_model(&cpu) else {
        eprintln!("unknown CPU {cpu:?}; try e.g. R3000, Pentium, Alpha, Viking");
        std::process::exit(1);
    };
    let magic = match UdivPlan::new(d.into(), 32) {
        Ok(plan) => compile(plan),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    println!(
        "== {} (mul {} cy{}, div {} cy, issue width {}) ==",
        model.name,
        model.mul_high_cycles,
        if model.mul_pipelined {
            ", pipelined"
        } else {
            ""
        },
        model.div_cycles,
        model.issue_width
    );

    println!("\n-- magic division by {d} --");
    match magic {
        Ok(prog) => show(&prog, &model),
        Err(kind) => println!("({kind})"),
    }
    println!("\n-- hardware divide --");
    show(&gen_unsigned_div_hw(32), &model);
}

fn show(prog: &Program, model: &TimingModel) {
    let trace = trace_program(prog, model);
    let total = trace.iter().map(|t| t.complete).max().unwrap_or(0);
    let scale = 60.min(total.max(1)) as f64 / total.max(1) as f64;
    for t in &trace {
        let start = (t.issue as f64 * scale) as usize;
        let len = (((t.complete - t.issue).max(1)) as f64 * scale).ceil() as usize;
        println!(
            "  cycle {:>3}..{:<3} |{}{}| {}",
            t.issue,
            t.complete,
            " ".repeat(start),
            "#".repeat(len.max(1)),
            t.text
        );
    }
    println!("  total: {total} cycles");
}
