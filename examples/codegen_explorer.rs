//! Interactive code-generation explorer: show everything the compiler
//! side produces for a divisor — the strategy Figure 4.2/5.2 picks, the
//! IR, the assembly for all four Table 11.1 targets, and the simulated
//! cycle cost on every Table 1.1 machine.
//!
//! Run with: `cargo run --example codegen_explorer -- [divisor] [width]`
//! e.g. `cargo run --example codegen_explorer -- -7 32`

use magicdiv_suite::magicdiv::plan::{SdivPlan, UdivPlan};
use magicdiv_suite::magicdiv::{SignedDivisor, UnsignedDivisor};
use magicdiv_suite::magicdiv_codegen::{emit_assembly, gen_unsigned_div_hw, Target};
use magicdiv_suite::magicdiv_ir::compile;
use magicdiv_suite::magicdiv_simcpu::{cycles_for_program, table_1_1};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let d: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let width: u32 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    if d == 0 {
        eprintln!("divisor must be nonzero");
        std::process::exit(1);
    }

    println!("== Code generation for n / {d} at N = {width} ==\n");

    if d > 0 {
        if width == 32 {
            let ud = UnsignedDivisor::<u32>::new(d as u32).expect("nonzero");
            println!("unsigned strategy (Fig 4.2): {:?}", ud.strategy());
        } else if width == 64 {
            let ud = UnsignedDivisor::<u64>::new(d as u64).expect("nonzero");
            println!("unsigned strategy (Fig 4.2): {:?}", ud.strategy());
        }
    }
    if width == 32 {
        let sd = SignedDivisor::<i32>::new(d as i32).expect("nonzero");
        println!("signed strategy   (Fig 5.2): {:?}", sd.strategy());
    } else if width == 64 {
        let sd = SignedDivisor::<i64>::new(d).expect("nonzero");
        println!("signed strategy   (Fig 5.2): {:?}", sd.strategy());
    }

    let prog = if d > 0 {
        compile(UdivPlan::new(d as u128, width)?)?
    } else {
        compile(SdivPlan::new(d.into(), width)?)?
    };
    println!("\n-- IR ({}) --\n{prog}\n", prog.op_counts());

    println!("-- assembly, four targets --");
    for &t in &Target::ALL {
        println!("\n[{t}]");
        print!("{}", emit_assembly(&prog, t, "divide"));
    }

    println!("\n-- simulated cycles per quotient (Table 1.1 machines) --\n");
    let hw = gen_unsigned_div_hw(width.min(64));
    println!(
        "{:28} {:>8} {:>8} {:>8}",
        "machine", "magic", "divide", "speedup"
    );
    for model in table_1_1() {
        let magic = cycles_for_program(&prog, &model);
        let div = cycles_for_program(&hw, &model);
        println!(
            "{:28} {:>8} {:>8} {:>7.1}x",
            model.name,
            magic,
            div,
            div as f64 / magic as f64
        );
    }
    Ok(())
}
