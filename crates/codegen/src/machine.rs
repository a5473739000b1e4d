//! Machine-aware code generation — the §10 tuning decisions.
//!
//! "For some architectures, it is important to select a multiplication
//! instruction that has the smallest available precision. On other
//! architectures, the multiplication can be performed faster using a
//! sequence of additions, subtractions, and shifts."
//!
//! [`gen_unsigned_div_tuned`] takes a machine description and decides,
//! per divisor:
//!
//! * whether to keep the `MULUH` or expand the magic multiply into the
//!   Bernstein shift/add chain (profitable exactly when the chain is
//!   shorter than the machine's multiply latency — the Alpha 21064 case);
//! * whether the machine has the required multiply-high at all, inserting
//!   the §3 legalization otherwise (the POWER/RIOS "signed only" case);
//! * finally list-scheduling the result for the machine's latencies.

use magicdiv::plan::UdivPlan;
use magicdiv::{choose_multiplier_at, DivisorError};
use magicdiv_ir::{
    legalize, lower_udiv, mask, optimize, schedule, Builder, Op, Program, ScheduleWeights,
    TargetCaps,
};

use crate::mulconst::{emit_mul_const, expansion_profitable};

/// What the tuning pass needs to know about a machine. Convertible from
/// the simulator's `TimingModel` (field-by-field; this crate deliberately
/// doesn't depend on `magicdiv-simcpu` to keep the dependency graph a
/// DAG).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineDesc {
    /// Word width the generated code targets.
    pub width: u32,
    /// Cycles for a multiply (either half).
    pub mul_cycles: u32,
    /// Cycles for a hardware divide (or software routine).
    pub div_cycles: u32,
    /// Which Table 3.1 operations exist (§3 legalization inserted for the
    /// rest).
    pub caps: TargetCaps,
    /// Whether the machine is 64-bit, so 32-bit division can use a full
    /// 64-bit product (the Alpha trick).
    pub wide_registers: bool,
}

impl MachineDesc {
    /// A generic machine with everything available.
    pub fn generic(width: u32) -> Self {
        MachineDesc {
            width,
            mul_cycles: 10,
            div_cycles: 35,
            caps: TargetCaps::FULL,
            wide_registers: width < 64,
        }
    }
}

/// Generates tuned, legalized, scheduled code for `⌊n/d⌋` on `machine`.
///
/// # Errors
///
/// [`DivisorError::UnsupportedWidth`] when the machine's width is
/// outside `1..=64` (the IR's words), and [`DivisorError::Zero`] when `d`
/// masks to zero at that width (`d = 0`, or `d = 2^32` on a 32-bit
/// machine).
///
/// # Examples
///
/// ```
/// use magicdiv_codegen::{gen_unsigned_div_tuned, MachineDesc};
/// use magicdiv_ir::TargetCaps;
///
/// // An Alpha-like machine: wide registers, 23-cycle multiply.
/// let alpha = MachineDesc {
///     width: 32,
///     mul_cycles: 23,
///     div_cycles: 200,
///     caps: TargetCaps::FULL,
///     wide_registers: true,
/// };
/// let prog = gen_unsigned_div_tuned(10, &alpha)?;
/// assert!(!prog.op_counts().uses_multiply()); // expanded into shifts/adds
/// assert_eq!(prog.eval1(&[1994]).unwrap(), 199);
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
pub fn gen_unsigned_div_tuned(d: u64, machine: &MachineDesc) -> Result<Program, DivisorError> {
    let width = machine.width;
    if !(1..=64).contains(&width) {
        return Err(DivisorError::UnsupportedWidth { width });
    }
    let plan = UdivPlan::new(u128::from(d & mask(width)), width)?;
    let d = plan.divisor() as u64;

    // Try the wide-register shift/add expansion first (the Alpha trick):
    // only meaningful for non-power-of-two divisors whose magic multiply
    // is cheaper as a chain than as a multiply instruction.
    let expansion = (machine.wide_registers && width < 64 && !d.is_power_of_two() && d != 1)
        .then(|| wide_magic(d, width))
        .flatten()
        .filter(|&(m, _)| expansion_profitable(m, machine.mul_cycles));
    let prog = if let Some((m, sh)) = expansion {
        let mut b = Builder::new(64, 1);
        let x = b.arg(0);
        let prod = emit_mul_const(&mut b, x, m);
        let q = b.push(Op::Srl(prod, width + sh));
        optimize(&b.finish([q]))
    } else {
        let mut b = Builder::new(width, 1);
        let x = b.arg(0);
        let q = lower_udiv(&mut b, x, &plan);
        optimize(&b.finish([q]))
    };

    let legal = legalize(&prog, machine.caps);
    Ok(schedule(
        &optimize(&legal),
        ScheduleWeights {
            multiply: machine.mul_cycles,
            divide: machine.div_cycles,
            simple: 1,
        },
    ))
}

/// The Fig 6.2 multiplier ([`choose_multiplier_at`] at precision N) as a
/// value usable in a 64-bit register:
/// `q = (n * m) >> (N + sh)`. The product `n * m` must fit in 64 bits,
/// so this requires `m < 2^(64 - N)`; divisors whose reduced multiplier
/// is wider (the d = 7 family) return `None` and keep the standard
/// `MULUH` sequence.
fn wide_magic(d: u64, width: u32) -> Option<(u64, u32)> {
    debug_assert!(width < 64);
    let (m, sh_post) = choose_multiplier_at(d.into(), width, width)?;
    (m < 1 << (64 - width)).then_some((m as u64, sh_post))
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicdiv_ir::TargetCaps;

    fn alpha_like() -> MachineDesc {
        MachineDesc {
            width: 32,
            mul_cycles: 23,
            div_cycles: 200,
            caps: TargetCaps::FULL,
            wide_registers: true,
        }
    }

    fn viking_like() -> MachineDesc {
        MachineDesc {
            width: 32,
            mul_cycles: 5,
            div_cycles: 19,
            caps: TargetCaps::FULL,
            wide_registers: false,
        }
    }

    fn rios_like() -> MachineDesc {
        MachineDesc {
            width: 32,
            mul_cycles: 5,
            div_cycles: 19,
            caps: TargetCaps::POWER_RIOS,
            wide_registers: false,
        }
    }

    #[test]
    fn correct_on_all_machines_exhaustive_w8() {
        let machines = [
            MachineDesc::generic(8),
            MachineDesc {
                width: 8,
                mul_cycles: 23,
                div_cycles: 100,
                caps: TargetCaps::FULL,
                wide_registers: true,
            },
            MachineDesc {
                width: 8,
                mul_cycles: 5,
                div_cycles: 20,
                caps: TargetCaps::POWER_RIOS,
                wide_registers: false,
            },
        ];
        for m in &machines {
            for d in 1u64..=255 {
                let prog = gen_unsigned_div_tuned(d, m).unwrap();
                for n in (0u64..=255).step_by(3) {
                    assert_eq!(prog.eval1(&[n]).unwrap(), n / d, "{m:?} n={n} d={d}");
                }
            }
        }
    }

    #[test]
    fn divisor_masked_to_zero_is_an_error() {
        // The divisor is masked to the machine's width first, so a
        // nonzero runtime value can still be a zero divisor.
        for m in [alpha_like(), viking_like(), rios_like()] {
            assert_eq!(gen_unsigned_div_tuned(0, &m), Err(DivisorError::Zero));
            assert_eq!(gen_unsigned_div_tuned(1 << 32, &m), Err(DivisorError::Zero));
            assert_eq!(
                gen_unsigned_div_tuned((1 << 32) + 10, &m),
                gen_unsigned_div_tuned(10, &m)
            );
        }
        assert_eq!(
            gen_unsigned_div_tuned(0x300, &MachineDesc::generic(8)),
            Err(DivisorError::Zero)
        );
    }

    #[test]
    fn width_outside_the_ir_words_is_an_error() {
        for width in [0u32, 65, 128] {
            for m in [
                MachineDesc::generic(width),
                MachineDesc {
                    width,
                    ..alpha_like()
                },
            ] {
                for d in [0u64, 10, 1 << 32] {
                    assert_eq!(
                        gen_unsigned_div_tuned(d, &m),
                        Err(DivisorError::UnsupportedWidth { width }),
                        "{m:?} d={d}"
                    );
                }
            }
        }
    }

    #[test]
    fn alpha_expands_small_divisors() {
        for d in [3u64, 5, 10, 100] {
            let prog = gen_unsigned_div_tuned(d, &alpha_like()).unwrap();
            assert!(!prog.op_counts().uses_multiply(), "d={d}: {prog}");
            for n in [0u64, 1, d, 1994, u32::MAX as u64] {
                assert_eq!(prog.eval1(&[n]).unwrap(), n / d, "d={d} n={n}");
            }
        }
    }

    #[test]
    fn fast_multiplier_keeps_the_multiply() {
        for d in [3u64, 10, 1_000_000_007] {
            let prog = gen_unsigned_div_tuned(d, &viking_like()).unwrap();
            assert!(prog.op_counts().mul_high >= 1, "d={d}: {prog}");
        }
    }

    #[test]
    fn rios_gets_legalized_muluh() {
        // No unsigned multiply-high: the §3 identity must appear.
        let prog = gen_unsigned_div_tuned(10, &rios_like()).unwrap();
        assert!(prog.op_counts().mul_high >= 1);
        assert!(
            prog.insts().iter().all(|o| !matches!(o, Op::MulUH(..))),
            "{prog}"
        );
        for n in [0u64, 9, 10, 1994, u32::MAX as u64] {
            assert_eq!(prog.eval1(&[n]).unwrap(), n / 10, "n={n}");
        }
    }

    #[test]
    fn fast_wide_machine_keeps_the_multiply() {
        // Wide registers alone don't force expansion: with a 4-cycle
        // multiplier no shift/add chain is profitable.
        let fast_wide = MachineDesc {
            width: 32,
            mul_cycles: 4,
            div_cycles: 40,
            caps: TargetCaps::FULL,
            wide_registers: true,
        };
        for d in [3u64, 10, 2_654_435_761] {
            let prog = gen_unsigned_div_tuned(d, &fast_wide).unwrap();
            assert!(prog.op_counts().uses_multiply(), "d={d}: {prog}");
        }
    }

    #[test]
    fn expansion_decision_tracks_multiply_latency() {
        // The same divisor flips from expanded to multiplied as the
        // machine's multiplier gets faster — the §10 crossover.
        let mk = |mul_cycles| MachineDesc {
            width: 32,
            mul_cycles,
            div_cycles: 200,
            caps: TargetCaps::FULL,
            wide_registers: true,
        };
        let slow = gen_unsigned_div_tuned(10, &mk(23)).unwrap();
        let fast = gen_unsigned_div_tuned(10, &mk(3)).unwrap();
        assert!(!slow.op_counts().uses_multiply(), "{slow}");
        assert!(fast.op_counts().uses_multiply(), "{fast}");
    }
}
