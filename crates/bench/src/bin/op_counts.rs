//! Regenerates the paper's **per-figure operation-count claims**:
//!
//! * Fig 4.1: "1 multiply, 2 adds/subtracts, and 2 shifts per quotient";
//! * Fig 5.1: "1 multiply, 3 adds, 2 shifts, and 1 bit op per quotient";
//! * d = 3 signed (§5 example): "one multiply, one shift, one subtract";
//! * §6 mod-10 example: "1 multiply, 4 shifts, 2 bit ops, 2 subtracts";
//! * §8: "two products (both halves of each) and 20–25 simple operations".
//!
//! Prints the generated sequence costs for a sweep of divisors on every
//! code generator, so the table's claims are visible at a glance.

use magicdiv::plan::{
    DivisibilityPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan, UremPlan, UremStrategy,
};
use magicdiv_bench::render_table;
use magicdiv_codegen::gen_unsigned_div_invariant;
use magicdiv_ir::compile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Operation counts for generated division sequences (N = 32) ==\n");
    let divisors: [i64; 12] = [1, 2, 3, 5, 7, 10, 14, 25, 100, 125, 641, 1_000_000_007];

    let mut rows = Vec::new();
    for &d in &divisors {
        let udiv = UdivPlan::new(d as u128, 32)?;
        let ud = compile(udiv)?.op_counts();
        let inv = gen_unsigned_div_invariant(d as u64, 32)?.op_counts();
        let sd = compile(SdivPlan::new(d.into(), 32)?)?.op_counts();
        let fd = compile(FloorPlan::new(d.into(), 32)?)?.op_counts();
        // Multiply-back at every divisor, powers of two included.
        let mul_back = UremStrategy::MulBack {
            udiv: udiv.strategy(),
        };
        let rem = compile(UremPlan::from_raw(d as u128, 32, mul_back))?.op_counts();
        rows.push(vec![
            d.to_string(),
            format!("{}", ud),
            inv.total_executed().to_string(),
            format!("{}", sd),
            fd.total_executed().to_string(),
            rem.total_executed().to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "d",
                "unsigned Fig 4.2 (ops by class)",
                "Fig 4.1 total",
                "signed Fig 5.2 (ops by class)",
                "Fig 6.1 total",
                "rem total",
            ],
            &rows
        )
    );

    println!("== Paper claims checked ==\n");
    let fig41 = gen_unsigned_div_invariant(7, 32)?.op_counts();
    println!(
        "Fig 4.1 (d=7):        {} -> claim: 1 multiply, 2 adds/subtracts, 2 shifts: {}",
        fig41,
        ok(fig41.mul_high == 1 && fig41.add_sub == 2 && fig41.shift == 2)
    );
    let d3 = compile(SdivPlan::new(3, 32)?)?.op_counts();
    println!(
        "signed d=3:           {} -> claim: one multiply, one shift, one subtract: {}",
        d3,
        ok(d3.mul_high == 1 && d3.shift == 1 && d3.add_sub == 1)
    );
    let d10 = compile(UdivPlan::new(10, 32)?)?.op_counts();
    println!(
        "unsigned d=10:        {} -> one multiply, one shift (Table 11.1 kernel): {}",
        d10,
        ok(d10.mul_high == 1 && d10.shift == 1 && d10.total_executed() == 2)
    );
    let exact = compile(ExactPlan::new_signed(100, 32)?)?.op_counts();
    println!(
        "exact d=100 (§9):     {} -> one MULL + one shift (+ sign fix): {}",
        exact,
        ok(exact.mul_low == 1 && !exact.uses_divide())
    );
    let divis = compile(DivisibilityPlan::new(100, 32)?)?.op_counts();
    println!(
        "divisibility by 100:  {} -> no multiply-high, no divide: {}",
        divis,
        ok(divis.mul_high == 0 && !divis.uses_divide())
    );
    Ok(())
}

fn ok(b: bool) -> &'static str {
    if b {
        "OK"
    } else {
        "MISMATCH"
    }
}
