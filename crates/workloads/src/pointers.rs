//! Pointer subtraction — §9's motivating case for exact division: "an
//! example occurs in C when subtracting two pointers. Their numerical
//! difference is divided by the object size. The object size is a
//! compile-time constant" and the division is known to be exact.

use magicdiv::{DivisorError, ExactSignedDivisor};

/// Element-index arithmetic over records of a fixed byte size, computing
/// `(p - q) / size_of::<T>()` the way a compiler does — with the §9 exact
/// division (one `MULL`, one shift) instead of a full divide.
///
/// # Examples
///
/// ```
/// use magicdiv_workloads::PointerDiff;
///
/// // Records of 24 bytes (a non-power-of-two size: the interesting case).
/// let pd = PointerDiff::new(24)?;
/// assert_eq!(pd.element_offset(24 * 17, 24 * 3), 14);
/// assert_eq!(pd.element_offset(24 * 3, 24 * 17), -14);
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PointerDiff {
    size: i64,
    exact: ExactSignedDivisor<i64>,
}

impl PointerDiff {
    /// Builds the divider for objects of `size` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DivisorError::Zero`] when `size == 0` (zero-sized types
    /// don't support pointer arithmetic in C either).
    pub fn new(size: i64) -> Result<Self, DivisorError> {
        Ok(PointerDiff {
            size,
            exact: ExactSignedDivisor::new(size)?,
        })
    }

    /// `(p - q) / size` for byte addresses `p`, `q` that point into the
    /// same array (so the difference is an exact multiple of the size).
    ///
    /// # Panics
    ///
    /// Debug builds panic when the difference is not a multiple of the
    /// object size (i.e. the pointers don't belong to the same array).
    #[inline]
    pub fn element_offset(&self, p: i64, q: i64) -> i64 {
        self.exact.divide_exact(p.wrapping_sub(q))
    }

    /// Baseline with hardware division.
    #[inline]
    pub fn element_offset_baseline(&self, p: i64, q: i64) -> i64 {
        p.wrapping_sub(q) / self.size
    }
}

/// The bench kernel: walks two index sequences over a simulated array of
/// `n` records and sums element offsets.
pub fn pointer_diff_kernel(size: i64, n: i64, magic: bool) -> i64 {
    let pd = PointerDiff::new(size).expect("size > 0");
    let base = 0x1000i64;
    let mut sum = 0i64;
    for i in 0..n {
        let p = base + size * ((i * 7) % n);
        let q = base + size * ((i * 13) % n);
        sum = sum.wrapping_add(if magic {
            pd.element_offset(p, q)
        } else {
            pd.element_offset_baseline(p, q)
        });
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_small_sizes() {
        for size in 1i64..=64 {
            let pd = PointerDiff::new(size).unwrap();
            for a in -100i64..=100 {
                for b in [-50i64, 0, 37] {
                    let (p, q) = (a * size, b * size);
                    assert_eq!(pd.element_offset(p, q), a - b, "size={size} a={a} b={b}");
                    assert_eq!(
                        pd.element_offset_baseline(p, q),
                        a - b,
                        "size={size} a={a} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_agree() {
        for size in [1i64, 3, 8, 24, 56, 104] {
            assert_eq!(
                pointer_diff_kernel(size, 1000, true),
                pointer_diff_kernel(size, 1000, false),
                "size={size}"
            );
        }
    }

    #[test]
    fn zero_size_rejected() {
        assert!(PointerDiff::new(0).is_err());
    }
}
