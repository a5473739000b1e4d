//! The division families the request workloads serve, how their
//! operands are drawn, and the results they are checked against: native
//! division on wider types, never the library under test.

use magicdiv::cache::CacheStats;

use crate::rng::{bits, multiple, Rng};

/// One typed divisor family at one word size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    U64,
    U32,
    I64,
    I32,
    Floor64,
    Exact64,
    Dword64,
}

impl Family {
    pub const ALL: [Family; 7] = [
        Family::U64,
        Family::U32,
        Family::I64,
        Family::I32,
        Family::Floor64,
        Family::Exact64,
        Family::Dword64,
    ];

    /// A divisor for this family, as bits (signed ones as `i64 as u64`).
    pub fn divisor(self, rng: &mut Rng) -> u64 {
        match self {
            Family::U32 => rng.divisor(32),
            Family::I64 | Family::Floor64 => rng.signed_divisor(63) as u64,
            Family::I32 => rng.signed_divisor(31) as u64,
            Family::U64 | Family::Exact64 | Family::Dword64 => rng.divisor(64),
        }
    }

    /// The operands `(a, b)` of one op on divisor `d`, from the random
    /// words `v` and `w`. `a` is the dividend (the high word for dword);
    /// `b` is the low word for dword, and for exact 1 asks `divides`
    /// where 0 asks `divide_exact` of a multiple.
    pub fn operands(self, d: u64, v: u64, w: u64, divides: bool) -> (u64, u64) {
        match self {
            Family::U32 | Family::I32 => (v & 0xffff_ffff, 0),
            Family::Exact64 if divides => (v, 1),
            Family::Exact64 => (multiple(v, d), 0),
            // hi < 2^(bits(d)-1) <= d, so the quotient fits a word.
            Family::Dword64 => (v >> (65 - bits(d)), w),
            _ => (v, 0),
        }
    }

    /// The expected result of one op, in the bit layout the workloads
    /// store: the quotient's bits, `divides` as 0/1, and dword as
    /// `q << 64 | r`.
    pub fn expected(self, d: u64, a: u64, b: u64) -> u128 {
        let (sa, sd) = (i128::from(a as i64), i128::from(d as i64));
        match self {
            Family::U64 => u128::from(a / d),
            Family::U32 => u128::from(a as u32 / d as u32),
            Family::I64 => u128::from(trunc(sa, sd) as u64),
            Family::I32 => u128::from(trunc(i128::from(a as u32 as i32), sd) as u32),
            Family::Floor64 => u128::from(floor(sa, sd) as u64),
            Family::Exact64 if b == 0 => u128::from(a / d),
            Family::Exact64 => u128::from(a % d == 0),
            Family::Dword64 => {
                let n = (u128::from(a) << 64) | u128::from(b);
                let d = u128::from(d);
                ((n / d) << 64) | (n % d)
            }
        }
    }
}

/// Truncating signed division.
pub fn trunc(n: i128, d: i128) -> i128 {
    n / d
}

/// Floor division (round toward −∞).
pub fn floor(n: i128, d: i128) -> i128 {
    let q = n / d;
    if n % d != 0 && ((n < 0) != (d < 0)) {
        q - 1
    } else {
        q
    }
}

/// Cache-layer counters from two [`CacheStats`] snapshots.
pub fn cache_counters(
    before: CacheStats,
    after: CacheStats,
    requests: u64,
) -> Vec<(&'static str, f64)> {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let lookups = (hits + misses).max(1) as f64;
    vec![
        ("cache.hit_ratio", hits as f64 / lookups),
        (
            "cache.evictions_per_kreq",
            (after.evictions - before.evictions) as f64 * 1000.0 / requests.max(1) as f64,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operands_stay_in_range() {
        let mut rng = Rng::new(9);
        for _ in 0..10_000 {
            let d = Family::Dword64.divisor(&mut rng);
            let (hi, _) = Family::Dword64.operands(d, rng.next_u64(), 0, false);
            assert!(hi < d, "hi={hi} d={d}");
            let d = Family::Exact64.divisor(&mut rng);
            let (n, b) = Family::Exact64.operands(d, rng.next_u64(), 0, false);
            assert_eq!((n % d, b), (0, 0), "d={d}");
        }
    }

    #[test]
    fn floor_rounds_down() {
        assert_eq!(floor(7, 2), 3);
        assert_eq!(floor(-7, 2), -4);
        assert_eq!(floor(7, -2), -4);
        assert_eq!(floor(-7, -2), 3);
        assert_eq!(floor(-8, 2), -4);
        assert_eq!(trunc(-7, 2), -3);
    }
}
