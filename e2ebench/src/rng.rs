//! Seeded input generation. Every input a workload feeds the library is
//! drawn from here, so one `--seed` fixes the whole op stream.

/// splitmix64: tiny, fast, and good enough for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` by multiply-high (no division in the generator).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A divisor with a log-uniform number of significant bits in
    /// `2..=max_bits`, so small and large divisors are equally common and
    /// every plan strategy shows up. Never 0 or 1.
    pub fn divisor(&mut self, max_bits: u32) -> u64 {
        let bits = 2 + self.below(u64::from(max_bits - 1)) as u32;
        let top = 1u64 << (bits - 1);
        top | (self.next_u64() & (top - 1))
    }

    /// A signed divisor whose magnitude has `2..=max_bits` bits, either
    /// sign. Never 0 or ±1, so no `MIN / -1` edge is ever generated.
    pub fn signed_divisor(&mut self, max_bits: u32) -> i64 {
        let mag = self.divisor(max_bits) as i64;
        if self.next_u64() & 1 == 0 {
            mag
        } else {
            -mag
        }
    }
}

/// Mixes two words into a seed (for per-key and per-op generators).
pub fn mix(a: u64, b: u64) -> u64 {
    Rng::new(a ^ b.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Zipf(s = 1) over ranks `0..n`, sampled by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A multiple of `d` in range, from the random word `v`: the factor
/// has fewer than `64 - bits(d)` bits (none when `d` has all 64).
pub fn multiple(v: u64, d: u64) -> u64 {
    ((v >> (bits(d) - 1)) >> 1) * d
}

/// Significant bits of a nonzero word.
pub fn bits(x: u64) -> u32 {
    64 - x.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisors_cover_the_range_and_skip_trivial_values() {
        let mut rng = Rng::new(1);
        for _ in 0..10_000 {
            let d = rng.divisor(32);
            assert!((2..1u64 << 32).contains(&d), "{d}");
            let s = rng.signed_divisor(31);
            assert!(s.unsigned_abs() >= 2 && s.unsigned_abs() < 1 << 31, "{s}");
        }
        assert!((0..1000).any(|_| rng.divisor(64) > 1 << 62));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(512);
        let mut rng = Rng::new(7);
        let mut hist = vec![0u32; 512];
        for _ in 0..100_000 {
            hist[z.sample(&mut rng)] += 1;
        }
        // Rank 1 carries 1/H_512 ≈ 14.7% of the mass, rank 2 half that.
        assert!((13_500..16_000).contains(&hist[0]), "{}", hist[0]);
        assert!(hist[0] > hist[1] && hist[1] > hist[9]);
    }
}
