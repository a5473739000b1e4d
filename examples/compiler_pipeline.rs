//! The full §10 compiler pipeline, end to end on one divisor:
//!
//! 1. generate the division code (Figure 4.2),
//! 2. legalize for a machine lacking unsigned multiply-high (the
//!    POWER/RIOS "signed only" footnote of Table 1.1),
//! 3. list-schedule for the machine's latencies,
//! 4. emit assembly — and for the radix loop, *execute the emitted text*
//!    with the assembly interpreter to prove the listing right.
//!
//! Run with: `cargo run --example compiler_pipeline -- [divisor]`

use magicdiv_suite::magicdiv::plan::UdivPlan;
use magicdiv_suite::magicdiv_codegen::{
    emit_radix_loop, execute_radix_listing, gen_unsigned_div_tuned, MachineDesc, Target,
};
use magicdiv_suite::magicdiv_ir::{compile, legalize, schedule, ScheduleWeights, TargetCaps};
use magicdiv_suite::magicdiv_simcpu::{cycles_for_program, find_model};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let d: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    if d == 0 || d > u64::from(u32::MAX) {
        eprintln!("divisor must be in 1..2^32");
        std::process::exit(1);
    }

    println!("== 1. Machine-independent code (Fig 4.2) for n / {d} ==\n");
    let prog = compile(UdivPlan::new(d.into(), 32)?)?;
    println!("{prog}\n   [{}]", prog.op_counts());

    println!("\n== 2. Legalized for POWER/RIOS (no unsigned multiply-high) ==\n");
    let legal = legalize(&prog, TargetCaps::POWER_RIOS);
    println!("{legal}\n   [{}]", legal.op_counts());
    for n in [0u64, 9, 1994, u32::MAX as u64] {
        assert_eq!(legal.eval1(&[n]).unwrap(), n / d);
    }
    println!("   (verified against native division)");

    println!("\n== 3. Scheduled for the R3000's pipelined 12-cycle multiplier ==\n");
    let r3000 = find_model("R3000").unwrap();
    let sched = schedule(
        &prog,
        ScheduleWeights {
            multiply: r3000.mul_high_cycles,
            divide: r3000.div_cycles,
            simple: 1,
        },
    );
    println!(
        "cycles on R3000: {} before, {} after scheduling",
        cycles_for_program(&prog, &r3000),
        cycles_for_program(&sched, &r3000)
    );

    println!("\n== 4. Machine-tuned for an Alpha-like machine (23-cycle multiply) ==\n");
    let alpha_like = MachineDesc {
        width: 32,
        mul_cycles: 23,
        div_cycles: 200,
        caps: TargetCaps::FULL,
        wide_registers: true,
    };
    let tuned = gen_unsigned_div_tuned(d, &alpha_like).expect("0 < d < 2^32 was checked above");
    println!(
        "tuned program uses multiply: {} ({} ops)",
        tuned.op_counts().uses_multiply(),
        tuned.op_counts().total_executed()
    );

    println!("\n== 5. Emitted radix loop, executed as assembly text ==\n");
    for target in [Target::Mips, Target::X86] {
        let asm = emit_radix_loop(target, true);
        let out = execute_radix_listing(&asm, 271_828_182).expect("listing executes");
        println!("{target}: decimal(271828182) = {out}");
        assert_eq!(out, "271828182");
    }
    println!("\nPipeline complete: generated, legalized, scheduled, emitted, executed.");
    Ok(())
}
