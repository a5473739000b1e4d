//! Radix conversion — the paper's Figure 11.1 kernel and its
//! generalization to arbitrary bases.
//!
//! "The program converts a binary number to a decimal string. It
//! calculates one quotient and one remainder per output digit." Base
//! conversion is one of the §1 motivating workloads ("integer division is
//! used heavily in base conversions").

use std::sync::OnceLock;

use magicdiv::{DivisorError, UnsignedDivisor};

/// Figure 11.1's digit loop: writes the decimal digits of `x` into the
/// tail of `buf`, one quotient and one remainder per digit from
/// `div_rem`, and returns the index of the leading digit. The two paths
/// of every radix kernel differ only in the `div_rem` they pass.
#[inline(always)]
fn decimal_digits(mut x: u32, buf: &mut [u8; 10], div_rem: impl Fn(u32) -> (u32, u32)) -> usize {
    let mut i = buf.len();
    loop {
        let (q, r) = div_rem(x);
        i -= 1;
        buf[i] = b'0' + r as u8;
        x = q;
        if x == 0 {
            return i;
        }
    }
}

/// The baseline's division by ten: native `/` and `%`. The divisor is a
/// compile-time constant, so rustc may apply this paper to it itself.
#[inline(always)]
fn hw_div_rem10(x: u32) -> (u32, u32) {
    (x / 10, x % 10)
}

/// The plan-backed `/10` divisor. The divisor is a compile-time constant
/// here, exactly as in Fig 11.1, so it is planned once per process.
fn by10() -> &'static UnsignedDivisor<u32> {
    static BY10: OnceLock<UnsignedDivisor<u32>> = OnceLock::new();
    BY10.get_or_init(|| UnsignedDivisor::new(10).expect("10 != 0"))
}

/// Converts `x` to decimal with hardware division (the baseline of
/// Table 11.2's "time with division performed" column).
///
/// # Examples
///
/// ```
/// use magicdiv_workloads::decimal_baseline;
///
/// assert_eq!(decimal_baseline(0), "0");
/// assert_eq!(decimal_baseline(1994), "1994");
/// ```
pub fn decimal_baseline(x: u32) -> String {
    let mut buf = [0u8; 10];
    let i = decimal_digits(x, &mut buf, hw_div_rem10);
    String::from_utf8_lossy(&buf[i..]).into_owned()
}

/// Converts `x` to decimal with the division eliminated (Table 11.2's
/// "time with division eliminated" column): one magic multiply and one
/// multiply-back per digit.
///
/// # Examples
///
/// ```
/// use magicdiv_workloads::decimal_magic;
///
/// assert_eq!(decimal_magic(u32::MAX), u32::MAX.to_string());
/// ```
pub fn decimal_magic(x: u32) -> String {
    let by10 = by10();
    let mut buf = [0u8; 10];
    let i = decimal_digits(x, &mut buf, |x| by10.div_rem(x));
    String::from_utf8_lossy(&buf[i..]).into_owned()
}

/// Converts `x` to an arbitrary base (2–36) with a run-time invariant
/// divisor hoisted out of the digit loop — the §4 "run-time invariant"
/// use case.
///
/// # Errors
///
/// Returns [`DivisorError::Zero`] when `base < 2` (a base below two has
/// no positional representation; base 1's divisor would loop forever).
///
/// # Examples
///
/// ```
/// use magicdiv_workloads::to_base;
///
/// assert_eq!(to_base(255, 16)?, "ff");
/// assert_eq!(to_base(255, 2)?, "11111111");
/// assert_eq!(to_base(0, 7)?, "0");
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
pub fn to_base(mut x: u64, base: u32) -> Result<String, DivisorError> {
    if !(2..=36).contains(&base) {
        return Err(DivisorError::Zero);
    }
    let div = magicdiv::InvariantUnsignedDivisor::new(base as u64)?;
    const DIGITS: &[u8; 36] = b"0123456789abcdefghijklmnopqrstuvwxyz";
    let mut out = Vec::new();
    loop {
        let (q, r) = div.div_rem(x);
        out.push(DIGITS[r as usize]);
        x = q;
        if x == 0 {
            break;
        }
    }
    out.reverse();
    Ok(String::from_utf8(out).expect("digits are ASCII"))
}

/// Sums the decimal digit bytes (`b'0'..=b'9'`) of `count` values
/// starting at `start` with a golden-ratio stride, converting each with
/// either path: the bench harness's inner loop, returning a checksum so
/// the work cannot be optimized away. Each value runs the same digit loop
/// as [`decimal_magic`] / [`decimal_baseline`] into one stack buffer and
/// is summed from there, so nothing is allocated per value; the magic
/// path fetches its `/10` divisor once per call.
pub fn radix_checksum(start: u32, count: u32, magic: bool) -> u64 {
    if magic {
        let by10 = by10();
        digit_byte_sum(start, count, |x| by10.div_rem(x))
    } else {
        digit_byte_sum(start, count, hw_div_rem10)
    }
}

/// [`radix_checksum`]'s body for one `div_rem`.
#[inline(always)]
fn digit_byte_sum(start: u32, count: u32, div_rem: impl Fn(u32) -> (u32, u32)) -> u64 {
    let mut buf = [0u8; 10];
    let mut sum = 0u64;
    for i in 0..count {
        let x = start.wrapping_add(i.wrapping_mul(2_654_435_769)); // golden-ratio stride
        let first = decimal_digits(x, &mut buf, &div_rem);
        sum += buf[first..].iter().map(|&b| u64::from(b)).sum::<u64>();
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_paths_agree_with_std() {
        for x in [
            0u32,
            1,
            9,
            10,
            99,
            100,
            1994,
            123456789,
            u32::MAX,
            u32::MAX - 1,
        ] {
            assert_eq!(decimal_baseline(x), x.to_string());
            assert_eq!(decimal_magic(x), x.to_string());
        }
        let mut state = 1u32;
        for _ in 0..10_000 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            assert_eq!(decimal_magic(state), state.to_string());
        }
    }

    #[test]
    fn to_base_matches_format() {
        for x in [0u64, 1, 255, 1994, u32::MAX as u64, u64::MAX] {
            assert_eq!(to_base(x, 16).unwrap(), format!("{x:x}"));
            assert_eq!(to_base(x, 2).unwrap(), format!("{x:b}"));
            assert_eq!(to_base(x, 8).unwrap(), format!("{x:o}"));
            assert_eq!(to_base(x, 10).unwrap(), format!("{x}"));
        }
    }

    #[test]
    fn to_base_36_roundtrip() {
        for x in [0u64, 35, 36, 1295, 1296, u64::MAX] {
            let s = to_base(x, 36).unwrap();
            assert_eq!(u64::from_str_radix(&s, 36).unwrap(), x);
        }
    }

    #[test]
    fn invalid_bases_rejected() {
        assert!(to_base(5, 0).is_err());
        assert!(to_base(5, 1).is_err());
        assert!(to_base(5, 37).is_err());
    }

    /// Pins `radix_checksum` to the digit bytes of `x.to_string()` for
    /// every value it visits, on both paths.
    #[test]
    fn checksum_is_the_digit_byte_sum_of_to_string() {
        fn naive(start: u32, count: u32) -> u64 {
            (0..count)
                .map(|i| start.wrapping_add(i.wrapping_mul(2_654_435_769)))
                .flat_map(|x| x.to_string().into_bytes())
                .map(u64::from)
                .sum()
        }
        // 0 itself, a stride that wraps past u32::MAX on its second
        // value, and the top of the range.
        for start in [0u32, 1, 9, 10, 1994, u32::MAX - 5, u32::MAX] {
            for count in [0u32, 1, 2, 3, 257] {
                let want = naive(start, count);
                for magic in [true, false] {
                    assert_eq!(
                        radix_checksum(start, count, magic),
                        want,
                        "start={start} count={count} magic={magic}"
                    );
                }
            }
        }
    }

    #[test]
    fn checksums_agree_between_paths() {
        assert_eq!(
            radix_checksum(12345, 500, true),
            radix_checksum(12345, 500, false)
        );
    }
}
