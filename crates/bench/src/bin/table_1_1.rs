//! Regenerates **Table 1.1** — "Multiplication and division times on
//! different CPUs" — from the transcribed timing models, and appends:
//!
//! * the simulated cost of the magic d = 10 sequence on each model (the
//!   quantity the table motivates), and
//! * host-measured multiply/divide latencies as a modern datapoint
//!   showing the §1 discrepancy persists.

use magicdiv::plan::UdivPlan;
use magicdiv_bench::{measure_ns, render_table};
use magicdiv_codegen::gen_unsigned_div_hw;
use magicdiv_ir::compile;
use magicdiv_simcpu::{cycles_for_program, table_1_1, DivSupport};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Table 1.1: multiplication and division times on different CPUs ==\n");
    let magic10 = compile(UdivPlan::new(10, 32)?)?;
    let hw = gen_unsigned_div_hw(32);

    let rows: Vec<Vec<String>> = table_1_1()
        .iter()
        .map(|m| {
            let magic_cycles = cycles_for_program(&magic10, m);
            let div_cycles = cycles_for_program(&hw, m);
            vec![
                m.name.to_string(),
                m.year.to_string(),
                m.bits.to_string(),
                format!(
                    "{}{}",
                    m.mul_high_cycles,
                    if m.mul_pipelined { "p" } else { "" }
                ),
                format!(
                    "{}{}",
                    m.div_cycles,
                    if m.div_support == DivSupport::Software {
                        "s"
                    } else {
                        ""
                    }
                ),
                format!("{:.1}", m.div_to_mul_ratio()),
                magic_cycles.to_string(),
                format!("{:.1}x", div_cycles as f64 / magic_cycles as f64),
                m.notes.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Architecture/Implementation",
                "Year",
                "N",
                "HIGH(NxN)",
                "N/N divide",
                "div/mul",
                "magic d=10 (sim)",
                "speedup",
                "notes"
            ],
            &rows
        )
    );
    println!("p = pipelined multiplier; s = software (no direct hardware support)\n");

    println!("== Modern datapoint: this host ==\n");
    // Divide latency vs multiply latency on the machine running this
    // reproduction; the dependent chain defeats ILP so we see latency.
    let mul_ns = measure_ns(5_000_000, |i| {
        let mut x = i | 1;
        for _ in 0..8 {
            x = std::hint::black_box(x).wrapping_mul(0x9e3779b97f4a7c15);
        }
        x
    }) / 8.0;
    let div_ns = measure_ns(1_000_000, |i| {
        let mut x = i | 0x8000_0000_0000_0001;
        for _ in 0..8 {
            x = std::hint::black_box(u64::MAX - (i & 0xffff))
                / (std::hint::black_box(x) | 1).max(3);
        }
        x
    }) / 8.0;
    let magic_ns = {
        let d = magicdiv::UnsignedDivisor::<u64>::new(1_000_000_007).expect("nonzero");
        measure_ns(5_000_000, move |i| {
            let mut x = u64::MAX - i;
            for _ in 0..8 {
                x = d.divide(std::hint::black_box(x)).wrapping_add(i);
            }
            x
        }) / 8.0
    };
    println!("u64 multiply (dependent chain):      {mul_ns:>7.2} ns/op");
    println!("u64 hardware divide (dep. chain):    {div_ns:>7.2} ns/op");
    println!("u64 magic divide (dep. chain):       {magic_ns:>7.2} ns/op");
    println!(
        "\ndivide/multiply latency ratio on this host: {:.1}x (the paper's motivating gap)",
        div_ns / mul_ns
    );
    Ok(())
}
