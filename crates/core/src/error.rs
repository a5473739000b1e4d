//! Error types for divisor construction and doubleword division, plus the
//! unified [`Fault`] taxonomy shared by every execution layer.

use core::fmt;

/// Error building a precomputed divisor.
///
/// # Examples
///
/// ```
/// use magicdiv::{DivisorError, UnsignedDivisor};
///
/// assert_eq!(UnsignedDivisor::<u32>::new(0).unwrap_err(), DivisorError::Zero);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DivisorError {
    /// The divisor was zero; no reciprocal exists.
    Zero,
    /// No plan exists at this width: plans cover `1..=64` and exactly
    /// `128`.
    UnsupportedWidth {
        /// The offending width in bits.
        width: u32,
    },
    /// The divisor does not fit the requested width: above `2^N - 1`
    /// unsigned, or outside `iN` signed.
    OutOfRange {
        /// The divisor's bit pattern (a signed divisor as `d as u128`).
        d_bits: u128,
        /// Whether the divisor was read as signed.
        signed: bool,
        /// The requested width `N` in bits.
        width: u32,
    },
}

impl DivisorError {
    /// The [`FaultKind`] this construction error is, in the unified
    /// taxonomy.
    fn kind(self) -> FaultKind {
        match self {
            DivisorError::Zero => FaultKind::DivideByZero,
            DivisorError::UnsupportedWidth { width } => FaultKind::UnsupportedWidth { width },
            DivisorError::OutOfRange {
                d_bits,
                signed,
                width,
            } => FaultKind::DivisorOutOfRange {
                d_bits,
                signed,
                width,
            },
        }
    }
}

impl fmt::Display for DivisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivisorError::Zero => write!(f, "divisor is zero"),
            _ => self.kind().fmt(f),
        }
    }
}

impl core::error::Error for DivisorError {}

/// Error dividing a doubleword dividend (§8).
///
/// # Examples
///
/// ```
/// use magicdiv::{DwordDivisor, DwordDivError};
/// use magicdiv_dword::DWord;
///
/// let d = DwordDivisor::<u32>::new(10).unwrap();
/// // Quotient of 2^40 / 10 exceeds 32 bits? No — but (10 * 2^32) / 10 == 2^32 does.
/// let n = DWord::from_parts(10, 0);
/// assert_eq!(d.div_rem(n).unwrap_err(), DwordDivError::QuotientOverflow);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DwordDivError {
    /// The quotient does not fit in a single word; the §8 algorithm
    /// requires `n < d * 2^N`.
    QuotientOverflow,
}

impl fmt::Display for DwordDivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DwordDivError::QuotientOverflow => {
                write!(f, "quotient does not fit in a single word")
            }
        }
    }
}

impl core::error::Error for DwordDivError {}

/// Which execution layer reported a [`Fault`].
///
/// The reproduction has three layers that *run* division code: the IR
/// interpreter (`magicdiv-ir`), the assembly-listing interpreter
/// (`magicdiv-codegen`), and the cycle-cost simulator (`magicdiv-simcpu`).
/// Each reports failures through this shared taxonomy so the differential
/// harness can treat "layer X faulted at instruction I" uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultLayer {
    /// The planning layer (multiplier selection, candidate generation).
    Plan,
    /// The bit-accurate IR interpreter (`Program::eval`).
    IrInterp,
    /// The emitted-assembly interpreter (`execute_radix_listing`).
    AsmInterp,
    /// The cycle-cost CPU simulator.
    SimCpu,
    /// The guarded runtime-divisor layer (`magicdiv::guard`): probe and
    /// cross-check failures against native division.
    Guard,
    /// The shared plan cache (`magicdiv::cache`): poisoned entries or
    /// poisoned shard locks.
    Cache,
}

impl fmt::Display for FaultLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultLayer::Plan => write!(f, "plan"),
            FaultLayer::IrInterp => write!(f, "ir-interp"),
            FaultLayer::AsmInterp => write!(f, "asm-interp"),
            FaultLayer::SimCpu => write!(f, "simcpu"),
            FaultLayer::Guard => write!(f, "guard"),
            FaultLayer::Cache => write!(f, "cache"),
        }
    }
}

/// What went wrong, independent of which layer saw it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultKind {
    /// A division instruction (hardware baseline or library call) saw a
    /// zero divisor.
    DivideByZero,
    /// Two's-complement signed-division overflow (`iN::MIN / -1`) under a
    /// trapping evaluation mode. The default mode wraps, like the paper's
    /// generated code and like real hardware quotients.
    SignedOverflow,
    /// The configured step/fuel budget ran out before the program
    /// terminated.
    StepLimit {
        /// The budget that was exhausted.
        limit: u64,
    },
    /// Wrong number of arguments supplied to a program.
    ArgCount {
        /// Arguments the program declares.
        expected: u32,
        /// Arguments actually supplied.
        got: usize,
    },
    /// The program text itself is bad: unknown instruction, unparsable
    /// operand, missing label, or a structurally invalid IR program. Also
    /// a plan of a kind the layer does not run.
    BadProgram(String),
    /// The layer cannot model this word width (e.g. pricing a 128-bit
    /// plan on the 64-bit IR).
    UnsupportedWidth {
        /// The offending width in bits.
        width: u32,
    },
    /// A multiplier-selection precision outside `1..=N` (Figure 6.2's
    /// precondition: `prec` counts significant dividend bits and cannot
    /// exceed the word width).
    PrecisionOutOfRange {
        /// The offending precision.
        prec: u32,
        /// The word width `N` bounding it.
        width: u32,
    },
    /// A guarded divisor's self-verification (construction probe or
    /// hardened-mode sampled cross-check) found a quotient disagreeing
    /// with native division — the plan constants are corrupt.
    SelfCheckFailed {
        /// The witness dividend (bit pattern, zero-extended).
        n: u128,
        /// The quotient the plan produced (bit pattern).
        got: u128,
        /// The quotient native division produces (bit pattern).
        want: u128,
    },
    /// The divisor does not fit the requested width: above `2^N - 1`
    /// unsigned, or outside `iN` signed.
    DivisorOutOfRange {
        /// The divisor's bit pattern (a signed divisor as `d as u128`).
        d_bits: u128,
        /// Whether the divisor was read as signed.
        signed: bool,
        /// The requested width `N` in bits.
        width: u32,
    },
    /// A cached plan's stored checksum no longer matches its constants:
    /// the entry was corrupted in place and must not be served.
    CachePoisoned,
    /// The process-wide [`crate::guard::FaultBudget`] is exhausted: too
    /// many guarded divisors have demoted, and the circuit breaker now
    /// refuses hardened construction.
    FaultBudgetExhausted {
        /// The demotion budget that was exceeded.
        limit: u64,
    },
}

/// A typed execution fault: which layer, what kind, and where.
///
/// All three execution layers convert their local error types into this
/// one (`From<EvalError>`, `From<AsmError>`, and the fallible `simcpu`
/// entry points), so the `verify` differential harness and the mutation
/// runner report failures uniformly instead of panicking.
///
/// # Examples
///
/// ```
/// use magicdiv::{Fault, FaultKind, FaultLayer};
///
/// let f = Fault {
///     layer: FaultLayer::IrInterp,
///     kind: FaultKind::DivideByZero,
///     at: Some(3),
/// };
/// assert_eq!(f.to_string(), "ir-interp fault at #3: division by zero");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The execution layer that faulted.
    pub layer: FaultLayer,
    /// The fault classification.
    pub kind: FaultKind,
    /// Index of the faulting instruction (IR instruction index or
    /// assembly line index), when one is attributable.
    pub at: Option<usize>,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::DivideByZero => write!(f, "division by zero"),
            FaultKind::SignedOverflow => {
                write!(f, "signed division overflow (MIN / -1)")
            }
            FaultKind::StepLimit { limit } => {
                write!(f, "step limit of {limit} exceeded")
            }
            FaultKind::ArgCount { expected, got } => {
                write!(f, "expected {expected} arguments, got {got}")
            }
            FaultKind::BadProgram(why) => write!(f, "bad program: {why}"),
            FaultKind::UnsupportedWidth { width } => {
                write!(f, "unsupported width {width}")
            }
            FaultKind::PrecisionOutOfRange { prec, width } => {
                write!(f, "precision {prec} outside 1..={width}")
            }
            FaultKind::SelfCheckFailed { n, got, want } => {
                write!(f, "self-check failed at n={n}: got {got}, want {want}")
            }
            FaultKind::DivisorOutOfRange {
                d_bits,
                signed: true,
                width,
            } => write!(f, "divisor {} does not fit in i{width}", *d_bits as i128),
            FaultKind::DivisorOutOfRange { d_bits, width, .. } => {
                write!(f, "divisor {d_bits} does not fit in u{width}")
            }
            FaultKind::CachePoisoned => write!(f, "cached plan failed its checksum"),
            FaultKind::FaultBudgetExhausted { limit } => {
                write!(f, "fault budget of {limit} demotions exhausted")
            }
        }
    }
}

impl core::error::Error for FaultKind {}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} fault", self.layer)?;
        if let Some(at) = self.at {
            write!(f, " at #{at}")?;
        }
        write!(f, ": {}", self.kind)
    }
}

impl core::error::Error for Fault {
    /// The [`FaultKind`] is the underlying cause; exposing it through
    /// `source()` lets `anyhow`-style reporters walk the chain without
    /// parsing the rendered message.
    fn source(&self) -> Option<&(dyn core::error::Error + 'static)> {
        Some(&self.kind)
    }
}

impl From<DivisorError> for Fault {
    /// Lifts a construction error into the unified taxonomy at
    /// [`FaultLayer::Plan`]: `new(d).map_err(Fault::from)` gives any
    /// divisor family's constructor the one fault type used end to end.
    fn from(e: DivisorError) -> Fault {
        Fault {
            layer: FaultLayer::Plan,
            kind: e.kind(),
            at: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::error::Error;

    #[test]
    fn fault_chains_its_kind_as_source() {
        let f = Fault {
            layer: FaultLayer::SimCpu,
            kind: FaultKind::UnsupportedWidth { width: 128 },
            at: None,
        };
        assert_eq!(f.to_string(), "simcpu fault: unsupported width 128");
        let source = f.source().expect("kind is chained");
        assert_eq!(source.to_string(), "unsupported width 128");
    }

    #[test]
    fn divisor_errors_lift_to_their_fault_kinds_at_the_plan_layer() {
        let out_of_range = DivisorError::OutOfRange {
            d_bits: 300,
            signed: false,
            width: 8,
        };
        for (e, kind) in [
            (DivisorError::Zero, FaultKind::DivideByZero),
            (
                DivisorError::UnsupportedWidth { width: 65 },
                FaultKind::UnsupportedWidth { width: 65 },
            ),
            (
                out_of_range,
                FaultKind::DivisorOutOfRange {
                    d_bits: 300,
                    signed: false,
                    width: 8,
                },
            ),
        ] {
            let f = Fault::from(e);
            assert_eq!((f.layer, f.at), (FaultLayer::Plan, None));
            assert_eq!(f.kind, kind);
        }
    }

    #[test]
    fn divisor_errors_implement_error_with_stable_messages() {
        let z: &dyn Error = &DivisorError::Zero;
        assert_eq!(z.to_string(), "divisor is zero");
        let w: &dyn Error = &DivisorError::UnsupportedWidth { width: 100 };
        assert_eq!(w.to_string(), "unsupported width 100");
        let s: &dyn Error = &DivisorError::OutOfRange {
            d_bits: 586,
            signed: true,
            width: 8,
        };
        assert_eq!(s.to_string(), "divisor 586 does not fit in i8");
        let u: &dyn Error = &DivisorError::OutOfRange {
            d_bits: 1 << 40,
            signed: false,
            width: 32,
        };
        assert_eq!(u.to_string(), "divisor 1099511627776 does not fit in u32");
        let q: &dyn Error = &DwordDivError::QuotientOverflow;
        assert_eq!(q.to_string(), "quotient does not fit in a single word");
    }
}
