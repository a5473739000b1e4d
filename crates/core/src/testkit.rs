//! Shared test utilities: edge-case catalogs and exhaustive checkers.
//!
//! Public so the codegen, simulator and integration-test crates can reuse
//! one catalog of "interesting" operands — the boundary values where
//! reciprocal algorithms historically break (powers of two and neighbors,
//! the Fermat-factor divisors 641 and 274177, `MIN`/`MAX`, and the paper's
//! worked examples).

#[cfg(test)]
use crate::plan::DivPlan;
use crate::word::{SWord, UWord};

/// Interesting unsigned divisors at width `T` (all nonzero).
///
/// # Examples
///
/// ```
/// use magicdiv::testkit::interesting_unsigned_divisors;
///
/// let ds = interesting_unsigned_divisors::<u32>();
/// assert!(ds.contains(&7));
/// assert!(ds.contains(&u32::MAX));
/// assert!(!ds.contains(&0));
/// ```
pub fn interesting_unsigned_divisors<T: UWord>() -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    // Small divisors, incl. the paper's 3, 5, 7, 9, 10, 14, 25, 100, 125.
    for small in 1u8..=127 {
        out.push(T::from_u8(small));
    }
    // Powers of two and their neighbors.
    for k in 0..T::BITS {
        let p = T::ONE.shl_full(k);
        out.push(p);
        out.push(p.wrapping_add(T::ONE));
        if p > T::ONE {
            out.push(p.wrapping_sub(T::ONE));
        }
    }
    // Fermat-number factors (zero-post-shift oddities) when they fit.
    for special in [641u128, 274177, 6700417, 67280421310721] {
        if special < (1u128 << T::BITS.min(127)) || T::BITS >= 128 {
            out.push(T::from_u128_truncate(special));
        }
    }
    // Top of the range.
    out.push(T::MAX);
    out.push(T::MAX.wrapping_sub(T::ONE));
    out.sort_unstable();
    out.dedup();
    out.retain(|&d| d != T::ZERO);
    out
}

/// Interesting unsigned dividends at width `T`, given a divisor `d`.
pub fn interesting_unsigned_dividends<T: UWord>(d: T) -> Vec<T> {
    let mut out: Vec<T> = vec![
        T::ZERO,
        T::ONE,
        d.wrapping_sub(T::ONE),
        d,
        d.wrapping_add(T::ONE),
        d.wrapping_mul(T::from_u8(2)),
        d.wrapping_mul(T::from_u8(2)).wrapping_sub(T::ONE),
        T::MAX,
        T::MAX.wrapping_sub(T::ONE),
        T::MAX.shr_full(1),
        T::MAX.shr_full(1).wrapping_add(T::ONE),
    ];
    for k in (0..T::BITS).step_by(3) {
        out.push(T::ONE.shl_full(k));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The directed boundary dividends for divisor `d` (`1 <= d < 2^width`)
/// at `width` bits (`1..=128`), sorted and deduplicated: the probes the
/// tournament judges run on a candidate and the differential harness
/// runs on every unsigned kernel.
///
/// They sit where a wrong constant or a wrong lowering first shows:
/// the word edges and the sign boundary, every power of two and its
/// neighbors, and the multiples-of-`d` neighborhood at both ends of the
/// range (`t = ⌊(2^N-1)/d⌋·d`: `t - 1` carries the largest residue at
/// the largest quotient). A walk of multiples `q·d ± 1` at power-of-two
/// quotients pins the band edges of the remainder fraction and of the
/// §9 threshold.
///
/// # Examples
///
/// ```
/// use magicdiv::testkit::directed_unsigned_dividends;
///
/// let ns = directed_unsigned_dividends(10, 32);
/// let t = u32::MAX as u128 / 10 * 10;
/// for n in [0, 9, 10, 11, t - 1, t, u32::MAX as u128] {
///     assert!(ns.contains(&n), "{n}");
/// }
/// ```
pub fn directed_unsigned_dividends(d: u128, width: u32) -> Vec<u128> {
    let m = crate::plan::mask(width);
    let half = m >> 1;
    let t = m - m % d;
    let q_top = m / d;
    // Three ascending runs of bases: the thirteen specials (reduced mod
    // 2^N and sorted), every power of two, and d times every power of
    // two up to q_top.
    let mut specials = [
        0,
        2,
        m,
        m - 1,
        half,
        half + 1,
        d,
        d.wrapping_mul(2),
        t,
        t - d,
        t.wrapping_add(d),
        t.wrapping_add(d.wrapping_mul(2)),
        q_top / 2 * d,
    ]
    .map(|b| b & m);
    specials.sort_unstable();
    let powers = (0..width).map(|j| 1u128 << j);
    let multiples = powers.clone().take_while(|&q| q <= q_top).map(|q| q * d);
    let bases = merge(merge(specials.into_iter(), powers), multiples);
    // Each base contributes itself and both neighbors. 0 and m are
    // bases, so the neighbors that wrap (m + 1 and 0 - 1) are already
    // there, and walking the bases in order, a neighbor is new exactly
    // when it is at least `next`, the smallest dividend not yet kept.
    let mut out = Vec::with_capacity(3 * (specials.len() + 2 * width as usize));
    let mut next = 0;
    for b in bases {
        let hi = b.saturating_add(1).min(m);
        out.extend(b.saturating_sub(1).max(next)..=hi);
        if hi == m {
            break; // every later base is within one of m
        }
        next = next.max(hi + 1);
    }
    out
}

/// Merges two ascending runs into one.
fn merge(
    a: impl Iterator<Item = u128>,
    b: impl Iterator<Item = u128>,
) -> impl Iterator<Item = u128> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if y < x => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

/// Interesting signed divisors at width `S` (all nonzero, both signs).
///
/// # Examples
///
/// ```
/// use magicdiv::testkit::interesting_signed_divisors;
///
/// let ds = interesting_signed_divisors::<i32>();
/// assert!(ds.contains(&-7));
/// assert!(ds.contains(&i32::MIN));
/// ```
pub fn interesting_signed_divisors<S: SWord>() -> Vec<S> {
    let mut out: Vec<S> = Vec::new();
    for small in 1i8..=125 {
        out.push(S::from_i128_truncate(small as i128));
        out.push(S::from_i128_truncate(-(small as i128)));
    }
    for k in 0..S::BITS - 1 {
        let p = 1i128 << k;
        out.push(S::from_i128_truncate(p));
        out.push(S::from_i128_truncate(-p));
        out.push(S::from_i128_truncate(p + 1));
        out.push(S::from_i128_truncate(-p - 1));
    }
    out.push(S::MIN);
    out.push(S::MIN.wrapping_add(S::ONE));
    out.push(S::MAX);
    out.push(S::MAX.wrapping_sub(S::ONE));
    out.sort_unstable();
    out.dedup();
    out.retain(|&d| d != S::ZERO);
    out
}

/// Interesting signed dividends at width `S`, given a divisor `d`.
pub fn interesting_signed_dividends<S: SWord>(d: S) -> Vec<S> {
    let mut out: Vec<S> = vec![
        S::ZERO,
        S::ONE,
        S::MINUS_ONE,
        d,
        d.wrapping_neg(),
        d.wrapping_add(S::ONE),
        d.wrapping_sub(S::ONE),
        S::MIN,
        S::MIN.wrapping_add(S::ONE),
        S::MAX,
        S::MAX.wrapping_sub(S::ONE),
    ];
    for k in (0..S::BITS - 1).step_by(3) {
        out.push(S::from_i128_truncate(1i128 << k));
        out.push(S::from_i128_truncate(-(1i128 << k)));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// `plan` with bit `bit` of its `field`-th constant flipped, or `None`
/// when the plan has no such field (or the field is a shift narrower
/// than `bit`). Constants are the divisor, multipliers, inverses,
/// masks and shift counts; a signed plan's negation is one more field,
/// flipped at bit 0, and a floor plan for `d < 0` flips its trunc
/// plan's fields after its own divisor.
#[cfg(test)]
pub(crate) fn flip_constant(plan: DivPlan, field: usize, bit: u32) -> Option<DivPlan> {
    use crate::plan::{FloorStrategy, SdivStrategy, UdivStrategy};
    let wide = 1u128 << bit;
    let narrow = 1u32.checked_shl(bit);
    let mut p = plan;
    match &mut p {
        DivPlan::Unsigned(u) => match (field, &mut u.strategy) {
            (0, _) => u.d ^= wide,
            (
                1,
                UdivStrategy::MulShift { m, .. }
                | UdivStrategy::MulAddShift {
                    m_minus_pow2n: m, ..
                }
                | UdivStrategy::MulRoundUp { m, .. },
            ) => *m ^= wide,
            (2, UdivStrategy::MulShift { sh_pre, .. }) => *sh_pre ^= narrow?,
            (
                3,
                UdivStrategy::MulShift { sh_post, .. }
                | UdivStrategy::MulAddShift { sh_post, .. }
                | UdivStrategy::MulRoundUp { sh_post, .. },
            ) => *sh_post ^= narrow?,
            _ => return None,
        },
        DivPlan::Signed(sd) => match (field, &mut sd.strategy) {
            (0, _) => sd.d ^= wide as i128,
            (3, _) if bit == 0 => sd.negate = !sd.negate,
            (
                1,
                SdivStrategy::MulShift { m, .. }
                | SdivStrategy::MulAddShift {
                    m_minus_pow2n: m, ..
                },
            ) => *m ^= wide,
            (
                2,
                SdivStrategy::MulShift { sh_post, .. } | SdivStrategy::MulAddShift { sh_post, .. },
            ) => *sh_post ^= narrow?,
            _ => return None,
        },
        DivPlan::Floor(f) => match (field, &mut f.strategy) {
            (0, _) => f.d ^= wide as i128,
            (1, FloorStrategy::MulShift { m, .. }) => *m ^= wide,
            (2, FloorStrategy::MulShift { sh_post, .. }) => *sh_post ^= narrow?,
            (1.., FloorStrategy::NegativeTrunc { trunc }) => {
                let DivPlan::Signed(flipped) = flip_constant((*trunc).into(), field - 1, bit)?
                else {
                    return None;
                };
                *trunc = flipped;
            }
            _ => return None,
        },
        DivPlan::Exact(x) => match field {
            0 => x.d_abs ^= wide,
            1 => x.dinv ^= wide,
            2 => x.qmax ^= wide,
            3 => x.low_mask ^= wide,
            4 => x.e ^= narrow?,
            _ => return None,
        },
        DivPlan::Dword(w) => match field {
            0 => w.d ^= wide,
            1 => w.m_prime ^= wide,
            2 => w.d_norm ^= wide,
            3 => w.l ^= narrow?,
            _ => return None,
        },
        _ => return None,
    }
    Some(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_are_nonzero_and_deduped() {
        let u = interesting_unsigned_divisors::<u16>();
        assert!(u.windows(2).all(|w| w[0] < w[1]));
        assert!(!u.contains(&0));
        let s = interesting_signed_divisors::<i16>();
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(!s.contains(&0));
        assert!(s.contains(&i16::MIN));
    }

    #[test]
    fn fermat_factors_present_where_they_fit() {
        assert!(interesting_unsigned_divisors::<u32>().contains(&641));
        assert!(interesting_unsigned_divisors::<u64>().contains(&274177));
        assert!(!interesting_unsigned_divisors::<u8>().contains(&0)); // truncation must not create zero
    }

    /// The bases of [`directed_unsigned_dividends`], unsorted and not yet
    /// reduced modulo 2^N: each contributes itself and both neighbors.
    fn directed_bases(d: u128, width: u32) -> Vec<u128> {
        let m = crate::plan::mask(width);
        let half = m >> 1;
        let t = m - m % d;
        let q_top = m / d;
        let mut bases = vec![
            0,
            2,
            m,
            m - 1,
            half,
            half + 1,
            d,
            d.wrapping_mul(2),
            t,
            t - d,
            t.wrapping_add(d),
            t.wrapping_add(d.wrapping_mul(2)),
            q_top / 2 * d,
        ];
        bases.extend((0..width).map(|j| 1u128 << j));
        bases.extend(
            (0..width)
                .map(|j| 1u128 << j)
                .take_while(|&q| q <= q_top)
                .map(|q| q * d),
        );
        bases
    }

    #[test]
    fn directed_dividends_are_every_base_neighbor_in_order() {
        // The definition: every base and both neighbors mod 2^N, sorted
        // and deduplicated.
        let by_sorting_all = |d: u128, width: u32| {
            let m = crate::plan::mask(width);
            let mut out: Vec<u128> = directed_bases(d, width)
                .into_iter()
                .flat_map(|b| [b.wrapping_sub(1), b, b.wrapping_add(1)])
                .map(|n| n & m)
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        for width in [1u32, 2, 3, 8, 16, 32, 64, 128] {
            let m = crate::plan::mask(width);
            let tops = [m, m - 1, m >> 1, (m >> 1) + 1, (m >> 1).saturating_sub(1)];
            let ds = (1..=300u128).chain(tops).chain([641, 274177, 6700417]);
            for d in ds.filter(|&d| d >= 1 && d <= m) {
                let got = directed_unsigned_dividends(d, width);
                assert_eq!(got, by_sorting_all(d, width), "d={d} w={width}");
            }
        }
    }

    #[test]
    fn dividends_include_boundaries() {
        let ns = interesting_unsigned_dividends::<u32>(10);
        for expect in [0, 1, 9, 10, 11, 19, 20, u32::MAX] {
            assert!(ns.contains(&expect), "{expect}");
        }
        let ss = interesting_signed_dividends::<i32>(10);
        for expect in [i32::MIN, -10, -1, 0, 1, 10, i32::MAX] {
            assert!(ss.contains(&expect), "{expect}");
        }
    }
}
