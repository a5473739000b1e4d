//! Batch division — whole-slice workloads over one invariant divisor.
//!
//! §1's motivating codes (hashing, graphics, base conversion) rarely
//! divide a single value: they divide *streams* by the same constant.
//! The plan-backed divisors expose [`div_slice`](UnsignedDivisor::div_slice)
//! and [`div_rem_slice`](UnsignedDivisor::div_rem_slice), which hoist the
//! strategy dispatch out of the loop — the per-element work is exactly
//! the paper's straight-line multiply/shift sequence. This module wraps
//! them in two throughput kernels (each paired with a hardware-division
//! baseline so the bench harness can time the difference):
//!
//! * [`histogram_magic`] — bucket a sample stream by `⌊n / width⌋`;
//! * [`split_timestamps_magic`] — split ticks into whole units plus a
//!   remainder, quotient and remainder produced per element.

use magicdiv::{DivisorError, UnsignedDivisor};

/// Samples divided per step of the histogram body: one stack buffer of
/// quotients, refilled chunk by chunk.
const HIST_CHUNK: usize = 256;
/// Independent counters per bucket. Sample `j` of a chunk counts into
/// lane `j % HIST_LANES`, so back-to-back samples that land in the same
/// bucket increment different words and do not wait on each other's
/// store. That case is common: with uniform `u64` samples and 64
/// buckets, any width below `2^58` clamps every sample into the last
/// bucket.
const HIST_LANES: usize = 8;

/// The body both histograms share: `divide` fills a quotient buffer
/// from each chunk of `samples`, and each quotient (clamped to the last
/// bucket) is counted into its lane's counter. The lanes of a bucket are
/// summed in place at the end.
#[inline(always)]
fn histogram_by(
    samples: &[u64],
    n_buckets: usize,
    mut divide: impl FnMut(&[u64], &mut [u64]),
) -> Vec<u64> {
    let last = n_buckets - 1;
    let mut counts = vec![0u64; n_buckets * HIST_LANES];
    // Bucket `b`'s lanes; the slice's length lets the clamped index skip
    // its bounds check.
    let lanes = &mut counts.as_chunks_mut::<HIST_LANES>().0[..=last];
    let mut quotients = [0u64; HIST_CHUNK];
    for chunk in samples.chunks(HIST_CHUNK) {
        let qs = &mut quotients[..chunk.len()];
        divide(chunk, qs);
        let mut groups = qs.chunks_exact(HIST_LANES);
        for group in &mut groups {
            for (lane, &q) in group.iter().enumerate() {
                lanes[(q as usize).min(last)][lane] += 1;
            }
        }
        for (lane, &q) in groups.remainder().iter().enumerate() {
            lanes[(q as usize).min(last)][lane] += 1;
        }
    }
    // Bucket `b` reads its own lanes (from `b * HIST_LANES >= b`) before
    // it writes index `b`, and every later bucket reads above `b`.
    for b in 0..n_buckets {
        counts[b] = counts[b * HIST_LANES..][..HIST_LANES].iter().sum();
    }
    counts.truncate(n_buckets);
    counts
}

/// Buckets every sample into `min(⌊n / bucket_width⌋, n_buckets - 1)`
/// with hardware division, returning the per-bucket counts.
///
/// # Examples
///
/// ```
/// use magicdiv_workloads::histogram_baseline;
///
/// let counts = histogram_baseline(&[0, 5, 10, 15, 99], 10, 3);
/// assert_eq!(counts, vec![2, 2, 1]);
/// ```
pub fn histogram_baseline(samples: &[u64], bucket_width: u64, n_buckets: usize) -> Vec<u64> {
    assert!(bucket_width > 0 && n_buckets > 0);
    histogram_by(samples, n_buckets, |ns, qs| {
        for (q, &n) in qs.iter_mut().zip(ns) {
            *q = n / bucket_width;
        }
    })
}

/// [`histogram_baseline`] via a plan-backed divisor: the same counting
/// body, with each stack chunk of samples divided by one
/// [`UnsignedDivisor::div_slice`] call instead of hardware division.
///
/// # Errors
///
/// Returns [`DivisorError::Zero`] when `bucket_width == 0`.
///
/// # Examples
///
/// ```
/// use magicdiv_workloads::{histogram_baseline, histogram_magic};
///
/// let samples: Vec<u64> = (0..500).map(|i| i * 37 % 1009).collect();
/// assert_eq!(
///     histogram_magic(&samples, 100, 8)?,
///     histogram_baseline(&samples, 100, 8),
/// );
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
pub fn histogram_magic(
    samples: &[u64],
    bucket_width: u64,
    n_buckets: usize,
) -> Result<Vec<u64>, DivisorError> {
    assert!(n_buckets > 0);
    let div = UnsignedDivisor::new(bucket_width)?;
    Ok(histogram_by(samples, n_buckets, |ns, qs| {
        div.div_slice(ns, qs)
    }))
}

/// Splits every tick count into `(whole units, leftover ticks)` with
/// hardware division — the timestamp-formatting inner loop.
pub fn split_timestamps_baseline(ticks: &[u64], per_unit: u64) -> (Vec<u64>, Vec<u64>) {
    assert!(per_unit > 0);
    let units = ticks.iter().map(|&t| t / per_unit).collect();
    let rest = ticks.iter().map(|&t| t % per_unit).collect();
    (units, rest)
}

/// [`split_timestamps_baseline`] via [`UnsignedDivisor::div_rem_slice`]:
/// one pass computes both outputs, the remainder by multiply-back (§1's
/// "one additional multiplication and subtraction" per element).
///
/// # Errors
///
/// Returns [`DivisorError::Zero`] when `per_unit == 0`.
pub fn split_timestamps_magic(
    ticks: &[u64],
    per_unit: u64,
) -> Result<(Vec<u64>, Vec<u64>), DivisorError> {
    let div = UnsignedDivisor::new(per_unit)?;
    let mut units = vec![0u64; ticks.len()];
    let mut rest = vec![0u64; ticks.len()];
    div.div_rem_slice(ticks, &mut units, &mut rest);
    Ok((units, rest))
}

/// The bench kernel: streams `n` pseudo-random samples through both batch
/// shapes and returns a checksum.
pub fn batch_kernel(n: u64, bucket_width: u64) -> u64 {
    let samples: Vec<u64> = (0..n)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let counts = histogram_magic(&samples, bucket_width.max(1), 64).expect("nonzero width");
    let (units, rest) = split_timestamps_magic(&samples, 1_000_000_007).expect("nonzero");
    let mut sum = 0u64;
    for c in counts {
        sum = sum.wrapping_add(c).rotate_left(1);
    }
    for (u, r) in units.iter().zip(&rest) {
        sum = sum.wrapping_add(u ^ r).rotate_left(1);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: u64) -> Vec<u64> {
        (0..n)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect()
    }

    #[test]
    fn histogram_matches_baseline() {
        let samples = stream(1000);
        for width in [1u64, 7, 10, 255, 1 << 40, u64::MAX] {
            assert_eq!(
                histogram_magic(&samples, width, 16).unwrap(),
                histogram_baseline(&samples, width, 16),
                "width={width}"
            );
        }
    }

    /// Both histograms equal a naive count across chunk and lane
    /// boundaries, for widths that spread the samples, that put them all
    /// in the last bucket, and for one bucket.
    #[test]
    fn histograms_equal_a_naive_count() {
        fn naive(samples: &[u64], width: u64, n_buckets: usize) -> Vec<u64> {
            let mut counts = vec![0u64; n_buckets];
            for &n in samples {
                counts[((n / width) as usize).min(n_buckets - 1)] += 1;
            }
            counts
        }
        let all = stream(4096);
        let lengths = [0, 1, HIST_CHUNK - 1, HIST_CHUNK, HIST_CHUNK + 1, 4096];
        let widths = [1u64, 2, 10, 1 << 32, 1 << 58, 1 << 63, u64::MAX];
        for len in lengths {
            let samples = &all[..len];
            for width in widths {
                for n_buckets in [1usize, 64] {
                    let want = naive(samples, width, n_buckets);
                    let at = format!("len={len} width={width} n_buckets={n_buckets}");
                    assert_eq!(
                        histogram_magic(samples, width, n_buckets).unwrap(),
                        want,
                        "{at}"
                    );
                    assert_eq!(histogram_baseline(samples, width, n_buckets), want, "{at}");
                }
            }
        }
    }

    #[test]
    fn timestamps_match_baseline() {
        let ticks = stream(500);
        for per_unit in [1u64, 60, 1000, 1_000_000_007] {
            assert_eq!(
                split_timestamps_magic(&ticks, per_unit).unwrap(),
                split_timestamps_baseline(&ticks, per_unit),
                "per_unit={per_unit}"
            );
        }
    }

    #[test]
    fn zero_divisor_is_an_error() {
        assert!(histogram_magic(&[1, 2], 0, 4).is_err());
        assert!(split_timestamps_magic(&[1, 2], 0).is_err());
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(batch_kernel(256, 10), batch_kernel(256, 10));
    }
}
