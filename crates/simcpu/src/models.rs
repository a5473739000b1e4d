//! Timing models transcribed from the paper's Table 1.1 (multiplication
//! and division times on different CPUs) and Table 11.2 (clock rates).
//!
//! We cannot run on 1985–1993 hardware; these models *are* the paper's own
//! published numbers, so pricing an instruction sequence against them
//! reproduces the evaluation's arithmetic exactly (see DESIGN.md §3 on
//! substitutions). Where Table 1.1 gives a range (e.g. 386: 9–38 cycles),
//! the model stores a representative midpoint, with the range kept in the
//! notes.

/// How integer division is provided on a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DivSupport {
    /// A hardware divide instruction.
    Hardware,
    /// No direct hardware support; a software (library) routine — the
    /// paper's `s` footnote. The Alpha 21064 is the famous case.
    Software,
}

/// One row of Table 1.1: a processor implementation's timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Architecture / implementation name as printed in the paper.
    pub name: &'static str,
    /// Year of introduction.
    pub year: u16,
    /// Word size in bits.
    pub bits: u32,
    /// Cycles for `HIGH(N-bit * N-bit)` — the upper product half.
    pub mul_high_cycles: u32,
    /// Cycles for a low-half multiply (usually the same unit).
    pub mul_low_cycles: u32,
    /// Cycles for an N-bit/N-bit divide.
    pub div_cycles: u32,
    /// Whether the divide is a hardware instruction or a software routine.
    pub div_support: DivSupport,
    /// `true` when the multiplier is pipelined (the paper's `p` footnote):
    /// independent instructions can execute during its latency.
    pub mul_pipelined: bool,
    /// Cycles for simple ALU operations (add/shift/bit-op/compare).
    pub simple_cycles: u32,
    /// Instructions issued per cycle (1 = scalar; the 1992-93 superscalars
    /// dual-issue).
    pub issue_width: u32,
    /// Clock rate in MHz where Table 11.2 reports one.
    pub mhz: Option<f64>,
    /// Qualifications from the paper's footnotes.
    pub notes: &'static str,
}

impl TimingModel {
    /// The Table 11.2 microseconds for `cycles` at this model's clock.
    ///
    /// Returns `None` when the paper gives no clock rate for the model.
    pub fn cycles_to_us(&self, cycles: u64) -> Option<f64> {
        self.mhz.map(|mhz| cycles as f64 / mhz)
    }

    /// Ratio of divide latency to high-multiply latency — the paper's §1
    /// motivation ("the cost of an integer division ... is several times
    /// that of an integer multiplication").
    pub fn div_to_mul_ratio(&self) -> f64 {
        self.div_cycles as f64 / self.mul_high_cycles as f64
    }
}

/// All Table 1.1 rows, in the paper's order.
pub fn table_1_1() -> Vec<TimingModel> {
    TABLE_1_1.to_vec()
}

/// The Table 1.1 rows [`table_1_1`] copies and [`find_model`] searches.
static TABLE_1_1: [TimingModel; 16] = [
    TimingModel {
        name: "Motorola MC68020",
        year: 1985,
        bits: 32,
        mul_high_cycles: 42,
        mul_low_cycles: 28,
        div_cycles: 77,
        div_support: DivSupport::Hardware,
        mul_pipelined: false,
        simple_cycles: 1,
        issue_width: 1,
        mhz: Some(25.0),
        notes: "mul 41-44; div 76-78 unsigned, 88-90 signed",
    },
    TimingModel {
        name: "Motorola MC68040",
        year: 1991,
        bits: 32,
        mul_high_cycles: 20,
        mul_low_cycles: 16,
        div_cycles: 44,
        div_support: DivSupport::Hardware,
        mul_pipelined: false,
        simple_cycles: 1,
        issue_width: 1,
        mhz: Some(25.0),
        notes: "",
    },
    TimingModel {
        name: "Intel 386",
        year: 1985,
        bits: 32,
        mul_high_cycles: 24,
        mul_low_cycles: 24,
        div_cycles: 38,
        div_support: DivSupport::Hardware,
        mul_pipelined: false,
        simple_cycles: 2,
        issue_width: 1,
        mhz: None,
        notes: "mul 9-38 (early-out)",
    },
    TimingModel {
        name: "Intel 486",
        year: 1989,
        bits: 32,
        mul_high_cycles: 27,
        mul_low_cycles: 27,
        div_cycles: 40,
        div_support: DivSupport::Hardware,
        mul_pipelined: false,
        simple_cycles: 1,
        issue_width: 1,
        mhz: None,
        notes: "mul 13-42 (early-out)",
    },
    TimingModel {
        name: "Intel Pentium",
        year: 1993,
        bits: 32,
        mul_high_cycles: 10,
        mul_low_cycles: 10,
        div_cycles: 46,
        div_support: DivSupport::Hardware,
        mul_pipelined: false,
        simple_cycles: 1,
        issue_width: 2,
        mhz: None,
        notes: "",
    },
    TimingModel {
        name: "SPARC Cypress CY7C601",
        year: 1989,
        bits: 32,
        mul_high_cycles: 40,
        mul_low_cycles: 40,
        div_cycles: 100,
        div_support: DivSupport::Software,
        mul_pipelined: false,
        simple_cycles: 1,
        issue_width: 1,
        mhz: None,
        notes: "div ~100s (software)",
    },
    TimingModel {
        name: "SPARC Viking",
        year: 1992,
        bits: 32,
        mul_high_cycles: 5,
        mul_low_cycles: 5,
        div_cycles: 19,
        div_support: DivSupport::Hardware,
        mul_pipelined: false,
        simple_cycles: 1,
        issue_width: 2,
        mhz: Some(40.0),
        notes: "",
    },
    TimingModel {
        name: "HP PA 83",
        year: 1985,
        bits: 32,
        mul_high_cycles: 45,
        mul_low_cycles: 45,
        div_cycles: 70,
        div_support: DivSupport::Software,
        mul_pipelined: false,
        simple_cycles: 1,
        issue_width: 1,
        mhz: None,
        notes: "both software (s)",
    },
    TimingModel {
        name: "HP PA 7000",
        year: 1990,
        bits: 32,
        mul_high_cycles: 3,
        mul_low_cycles: 3,
        div_cycles: 70,
        div_support: DivSupport::Software,
        mul_pipelined: false,
        simple_cycles: 1,
        issue_width: 1,
        mhz: Some(99.0),
        notes: "mul 3 in FP unit (excl. register moves); div ~70s",
    },
    TimingModel {
        name: "MIPS R3000",
        year: 1988,
        bits: 32,
        mul_high_cycles: 12,
        mul_low_cycles: 12,
        div_cycles: 35,
        div_support: DivSupport::Hardware,
        mul_pipelined: true,
        simple_cycles: 1,
        issue_width: 1,
        mhz: Some(40.0),
        notes: "mul 12p, div 35p (HI/LO pipelined)",
    },
    TimingModel {
        name: "MIPS R4000",
        year: 1991,
        bits: 64,
        mul_high_cycles: 20,
        mul_low_cycles: 20,
        div_cycles: 139,
        div_support: DivSupport::Hardware,
        mul_pipelined: true,
        simple_cycles: 1,
        issue_width: 1,
        mhz: Some(100.0),
        notes: "64-bit; mul 20p",
    },
    TimingModel {
        name: "POWER/RIOS I",
        year: 1989,
        bits: 32,
        mul_high_cycles: 5,
        mul_low_cycles: 5,
        div_cycles: 19,
        div_support: DivSupport::Hardware,
        mul_pipelined: false,
        simple_cycles: 1,
        issue_width: 1,
        mhz: Some(50.0),
        notes: "signed only (no unsigned mul-high/div)",
    },
    TimingModel {
        name: "PowerPC/MPC601",
        year: 1993,
        bits: 32,
        mul_high_cycles: 7,
        mul_low_cycles: 7,
        div_cycles: 36,
        div_support: DivSupport::Hardware,
        mul_pipelined: false,
        simple_cycles: 1,
        issue_width: 2,
        mhz: None,
        notes: "mul 5-10",
    },
    TimingModel {
        name: "DEC Alpha 21064",
        year: 1992,
        bits: 64,
        mul_high_cycles: 23,
        mul_low_cycles: 23,
        div_cycles: 200,
        div_support: DivSupport::Software,
        mul_pipelined: true,
        simple_cycles: 1,
        issue_width: 2,
        mhz: Some(133.0),
        notes: "no integer divide instruction; ~200s library routine",
    },
    TimingModel {
        name: "Motorola MC88100",
        year: 1989,
        bits: 32,
        mul_high_cycles: 17,
        mul_low_cycles: 17,
        div_cycles: 38,
        div_support: DivSupport::Software,
        mul_pipelined: false,
        simple_cycles: 1,
        issue_width: 1,
        mhz: None,
        notes: "mul-high 17s (software; only mull in hardware)",
    },
    TimingModel {
        name: "Motorola MC88110",
        year: 1992,
        bits: 32,
        mul_high_cycles: 3,
        mul_low_cycles: 3,
        div_cycles: 18,
        div_support: DivSupport::Hardware,
        mul_pipelined: true,
        simple_cycles: 1,
        issue_width: 2,
        mhz: None,
        notes: "",
    },
];

/// The Table 11.2 subset (rows with measured radix-conversion timings),
/// in the paper's order.
pub fn table_11_2_models() -> Vec<TimingModel> {
    let wanted = [
        "Motorola MC68020",
        "Motorola MC68040",
        "SPARC Viking",
        "HP PA 7000",
        "MIPS R3000",
        "MIPS R4000",
        "POWER/RIOS I",
        "DEC Alpha 21064",
    ];
    let all = table_1_1();
    wanted
        .iter()
        .map(|w| {
            all.iter()
                .find(|m| m.name == *w)
                .copied()
                .expect("model present in table_1_1")
        })
        .collect()
}

/// The paper's measured Table 11.2 numbers, for side-by-side printing:
/// `(name, mhz, us_with_division, us_without_division, speedup)`.
pub fn table_11_2_paper_numbers() -> Vec<(&'static str, f64, f64, f64, f64)> {
    vec![
        ("Motorola MC68020", 25.0, 39.0, 33.0, 1.2),
        ("Motorola MC68040", 25.0, 19.0, 14.0, 1.4),
        ("SPARC Viking", 40.0, 6.4, 3.2, 2.0),
        ("HP PA 7000", 99.0, 9.7, 2.1, 4.6),
        ("MIPS R3000", 40.0, 12.0, 7.3, 1.7),
        ("MIPS R4000", 100.0, 8.3, 2.4, 3.4),
        ("POWER/RIOS I", 50.0, 5.0, 3.5, 1.4),
        ("DEC Alpha 21064", 133.0, 22.0, 1.8, 12.0),
    ]
}

/// Looks a model up by (case-insensitive substring) name: the first
/// Table 1.1 row whose name contains `name` once both are lowercased.
/// Allocates nothing.
pub fn find_model(name: &str) -> Option<TimingModel> {
    // Every model name is ASCII, so only a needle whose every char
    // lowercases to one ASCII char can match, and none longer than the
    // longest name.
    let mut needle = [0u8; LONGEST_NAME];
    let mut len = 0;
    for c in name.chars() {
        let mut lower = c.to_lowercase();
        match (lower.next(), lower.next()) {
            (Some(l), None) if l.is_ascii() && len < LONGEST_NAME => needle[len] = l as u8,
            _ => return None,
        }
        len += 1;
    }
    let needle = &needle[..len];
    TABLE_1_1
        .iter()
        .find(|m| {
            let hay = m.name.as_bytes();
            hay.len() >= len
                && (0..=hay.len() - len).any(|i| hay[i..i + len].eq_ignore_ascii_case(needle))
        })
        .copied()
}

/// Bytes in the longest Table 1.1 model name.
const LONGEST_NAME: usize = 21;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_rows_like_the_paper() {
        assert_eq!(table_1_1().len(), 16);
    }

    #[test]
    fn discrepancy_grows_over_time() {
        // The paper's §1 claim: the mul/div gap has been growing. Compare
        // average div/mul ratio before and after 1990.
        let models = table_1_1();
        let (mut old, mut oldn, mut new, mut newn) = (0.0, 0, 0.0, 0);
        for m in &models {
            if m.year < 1990 {
                old += m.div_to_mul_ratio();
                oldn += 1;
            } else {
                new += m.div_to_mul_ratio();
                newn += 1;
            }
        }
        assert!(new / newn as f64 > old / oldn as f64);
    }

    #[test]
    fn alpha_has_no_divide() {
        let alpha = find_model("alpha").unwrap();
        assert_eq!(alpha.div_support, DivSupport::Software);
        assert!(alpha.div_cycles >= 100);
        assert!(alpha.mul_pipelined);
    }

    #[test]
    fn table_11_2_has_eight_rows_with_clocks() {
        let models = table_11_2_models();
        assert_eq!(models.len(), 8);
        assert!(models.iter().all(|m| m.mhz.is_some()));
        assert_eq!(models.len(), table_11_2_paper_numbers().len());
    }

    #[test]
    fn cycles_to_us() {
        let viking = find_model("viking").unwrap();
        assert_eq!(viking.cycles_to_us(400), Some(10.0)); // 400 cycles @ 40 MHz
        let pentium = find_model("pentium").unwrap();
        assert_eq!(pentium.cycles_to_us(100), None);
    }

    #[test]
    fn find_is_case_insensitive() {
        assert!(find_model("VIKING").is_some());
        assert!(find_model("nonexistent cpu").is_none());
    }

    #[test]
    fn find_matches_the_lowercased_substring_search() {
        // The lookup `find_model` replaced: lowercase both, then search.
        let allocating = |name: &str| {
            let needle = name.to_lowercase();
            table_1_1()
                .into_iter()
                .find(|m| m.name.to_lowercase().contains(&needle))
        };
        let mut names: Vec<String> = vec![
            String::new(),
            "r4000".into(),
            "MIPS R4000".into(),
            "mips r4000 ".into(),
            "Alpha".into(),
            "dec ALPHA 21064".into(),
            "pa".into(),
            "PA 7".into(),
            "hp pa 83".into(),
            "486".into(),
            "i".into(),
            " ".into(),
            "x".into(),
            // KELVIN SIGN lowercases to an ASCII 'k'; DOTTED CAPITAL I to
            // two chars, the second not ASCII.
            "VI\u{212a}ING".into(),
            "\u{130}ntel".into(),
            "ß".into(),
            "sparc cypress cy7c601x".into(),
        ];
        for m in table_1_1() {
            let n = m.name;
            names.extend([n.to_string(), n.to_uppercase(), n[1..].to_string()]);
            names.push(n[..n.len() - 1].to_lowercase());
        }
        for name in &names {
            assert_eq!(find_model(name), allocating(name), "{name:?}");
        }
        assert!(find_model("VI\u{212a}ING").is_some());
    }

    #[test]
    fn model_names_are_ascii_and_fit_the_lookup_buffer() {
        for m in table_1_1() {
            assert!(m.name.is_ascii(), "{}", m.name);
            assert!(m.name.len() <= LONGEST_NAME, "{}", m.name);
        }
        let longest = table_1_1().iter().map(|m| m.name.len()).max();
        assert_eq!(longest, Some(LONGEST_NAME));
    }
}
