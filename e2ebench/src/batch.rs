//! `batch_kernels`: slice kernels and the workload kernels, one round per
//! window.
//!
//! Each batch costs one lookup, on a private cache that holds every
//! divisor set's plans, and then thousands of elements, so
//! the kernels do nearly all the work: this moves with kernel and
//! lowering changes (the u64 batch gap, direct remainder) and should not
//! move with cache changes. The oracle pass after each round is the same
//! round on hardware division, which is also the baseline it is compared
//! with.

use std::fmt::Display;

use magicdiv::cache::{CacheStats, PlanCache};
use magicdiv::{SignedDivisor, UnsignedDivisor};
use magicdiv_workloads::{
    bignum_kernel, calendar_kernel, count_divisible, count_divisible_baseline, graphics_kernel,
    hashing_kernel, histogram_baseline, histogram_magic, radix_checksum, Reduction,
};

use crate::harness::{lap, lap_n, span, Layer, Probe, Workload};
use crate::oracle;
use crate::rng::{mix, Rng};

const N: usize = 4096;
/// Rounds cycle through this many seeded divisor sets, so every run
/// averages over many plan strategies and its percentiles do not hinge
/// on a few sets.
const POOL: usize = 1024;
/// Room for the four cached plans of every set, with headroom for
/// uneven shards: no lookup misses after set-up.
const CACHE_CAPACITY: usize = 8 * POOL;
// Workload-kernel sizes keep each kernel to a few percent of a round, so
// the slice kernels stay a visible share.
const RADIX_COUNT: u32 = 256;
const HASH_KEYS: u64 = 256;
const HASH_LOOKUPS: u64 = 512;
/// Primes above twice `HASH_KEYS`: load factor just under one half.
const PRIMES: [u64; 12] = [521, 523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599];
const CAL_DAYS: i64 = 512;
const HIST_BUCKETS: usize = 64;
const BIGNUM_LIMBS: usize = 32;
const PIXELS: usize = 256;

/// Elements one round processes: the unit of `ns_per_op`.
const ELEMS: u64 = 5 * N as u64
    + RADIX_COUNT as u64
    + HASH_KEYS
    + HASH_LOOKUPS
    + CAL_DAYS as u64
    + 2 * N as u64
    + BIGNUM_LIMBS as u64
    + PIXELS as u64;

#[derive(Debug, Clone, Copy)]
struct Params {
    du32: u32,
    du64: u64,
    d_div_rem: u64,
    d_rem32: u32,
    di64: i64,
    radix_start: u32,
    prime: u64,
    cal_start: i64,
    hist_width: u64,
    count_d: u64,
}

/// What the workload kernels returned this round.
#[derive(Debug, Clone, Default, PartialEq)]
struct Sums {
    radix: u64,
    hashing: u64,
    calendar: i64,
    histogram: Vec<u64>,
    count: u64,
    bignum: u64,
    graphics: u64,
}

struct Buffers {
    u32s: Vec<u32>,
    u64s: Vec<u64>,
    i64s: Vec<i64>,
    count_in: Vec<u64>,
}

struct Outputs {
    div_u32: Vec<u32>,
    div_u64: Vec<u64>,
    q_u64: Vec<u64>,
    r_u64: Vec<u64>,
    rem_u32: Vec<u32>,
    div_i64: Vec<i64>,
    sums: Sums,
}

impl Outputs {
    fn new() -> Self {
        Outputs {
            div_u32: vec![0; N],
            div_u64: vec![0; N],
            q_u64: vec![0; N],
            r_u64: vec![0; N],
            rem_u32: vec![0; N],
            div_i64: vec![0; N],
            sums: Sums::default(),
        }
    }
}

pub struct BatchKernels {
    cache: PlanCache,
    params: Vec<Params>,
    input: Buffers,
    out: Outputs,
    base: Outputs,
    round: u64,
    round_ok: bool,
    faults: u64,
    stats0: CacheStats,
    round0: u64,
}

fn run_round<P: Probe>(
    cache: &PlanCache,
    k: Params,
    input: &Buffers,
    out: &mut Outputs,
    p: &mut P,
) -> Result<(), String> {
    let fault = |e: magicdiv::Fault| e.to_string();
    let plain = |e: magicdiv::DivisorError| e.to_string();
    let n = N as u32;

    let plan = lap(p, Layer::CacheHit, || cache.udiv(u128::from(k.du32), 32)).map_err(fault)?;
    let div = lap(p, Layer::FromPlan, || {
        UnsignedDivisor::<u32>::from_plan(&plan)
    });
    lap_n(p, Layer::DivSliceU32, n, || {
        div.div_slice(&input.u32s, &mut out.div_u32)
    });

    let plan = lap(p, Layer::CacheHit, || cache.udiv(u128::from(k.du64), 64)).map_err(fault)?;
    let div = lap(p, Layer::FromPlan, || {
        UnsignedDivisor::<u64>::from_plan(&plan)
    });
    lap_n(p, Layer::DivSliceU64, n, || {
        div.div_slice(&input.u64s, &mut out.div_u64)
    });

    let plan = lap(p, Layer::CacheHit, || {
        cache.udiv(u128::from(k.d_div_rem), 64)
    })
    .map_err(fault)?;
    let div = lap(p, Layer::FromPlan, || {
        UnsignedDivisor::<u64>::from_plan(&plan)
    });
    lap_n(p, Layer::DivRemSliceU64, n, || {
        div.div_rem_slice(&input.u64s, &mut out.q_u64, &mut out.r_u64)
    });

    // The direct-remainder divisor plans its own LKK fraction; there is
    // no cache accessor for it.
    let div = lap(p, Layer::PlanBuild, || {
        UnsignedDivisor::<u32>::new_direct_rem(k.d_rem32)
    })
    .map_err(plain)?;
    lap_n(p, Layer::RemSliceU32, n, || {
        div.rem_slice(&input.u32s, &mut out.rem_u32)
    });

    let plan = lap(p, Layer::CacheHit, || cache.sdiv(i128::from(k.di64), 64)).map_err(fault)?;
    let div = lap(p, Layer::FromPlan, || {
        SignedDivisor::<i64>::from_plan(&plan)
    });
    lap_n(p, Layer::DivSliceI64, n, || {
        div.div_slice(&input.i64s, &mut out.div_i64)
    });

    let s = &mut out.sums;
    s.radix = lap_n(p, Layer::Radix, RADIX_COUNT, || {
        radix_checksum(k.radix_start, RADIX_COUNT, true)
    });
    s.hashing = lap_n(p, Layer::Hashing, (HASH_KEYS + HASH_LOOKUPS) as u32, || {
        hashing_kernel(k.prime, HASH_KEYS, HASH_LOOKUPS, Reduction::DirectRemainder)
    });
    s.calendar = lap_n(p, Layer::Calendar, CAL_DAYS as u32, || {
        calendar_kernel(k.cal_start, CAL_DAYS, true)
    });
    s.histogram = lap_n(p, Layer::Histogram, n, || {
        histogram_magic(&input.u64s, k.hist_width, HIST_BUCKETS)
    })
    .map_err(plain)?;
    s.count = lap_n(p, Layer::CountDivisible, n, || {
        count_divisible(&input.count_in, k.count_d)
    })
    .map_err(plain)?;
    s.bignum = lap_n(p, Layer::Bignum, BIGNUM_LIMBS as u32, || {
        bignum_kernel(BIGNUM_LIMBS, true)
    });
    s.graphics = lap_n(p, Layer::Graphics, PIXELS as u32, || {
        graphics_kernel(PIXELS, true)
    });
    Ok(())
}

/// The same round on hardware division.
fn hardware_round(k: Params, input: &Buffers, out: &mut Outputs) {
    for (o, &n) in out.div_u32.iter_mut().zip(&input.u32s) {
        *o = n / k.du32;
    }
    for (o, &n) in out.div_u64.iter_mut().zip(&input.u64s) {
        *o = n / k.du64;
    }
    for ((q, r), &n) in out.q_u64.iter_mut().zip(&mut out.r_u64).zip(&input.u64s) {
        *q = n / k.d_div_rem;
        *r = n % k.d_div_rem;
    }
    for (o, &n) in out.rem_u32.iter_mut().zip(&input.u32s) {
        *o = n % k.d_rem32;
    }
    for (o, &n) in out.div_i64.iter_mut().zip(&input.i64s) {
        *o = oracle::trunc(i128::from(n), i128::from(k.di64)) as i64;
    }
    out.sums = Sums {
        radix: radix_checksum(k.radix_start, RADIX_COUNT, false),
        hashing: hashing_kernel(
            k.prime,
            HASH_KEYS,
            HASH_LOOKUPS,
            Reduction::HardwareRemainder,
        ),
        calendar: calendar_kernel(k.cal_start, CAL_DAYS, false),
        histogram: histogram_baseline(&input.u64s, k.hist_width, HIST_BUCKETS),
        count: count_divisible_baseline(&input.count_in, k.count_d),
        bignum: bignum_kernel(BIGNUM_LIMBS, false),
        graphics: graphics_kernel(PIXELS, false),
    };
}

/// Fails on the first element where a slice kernel disagrees with the
/// hardware round, naming the input and divisor.
fn compare<T: PartialEq + Display, I: Display>(
    round: u64,
    kernel: &str,
    got: &[T],
    want: &[T],
    input: &[I],
    d: impl Display,
) -> Result<(), String> {
    match got.iter().zip(want).position(|(g, w)| g != w) {
        None => Ok(()),
        Some(i) => Err(format!(
            "batch_kernels round {round} {kernel}[{i}]: n={} d={d}: got {}, want {}",
            input[i], got[i], want[i]
        )),
    }
}

impl Workload for BatchKernels {
    const SPANS_PER_OP: u64 = 24;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(mix(seed, 0xba7c));
        let params: Vec<Params> = (0..POOL)
            .map(|_| Params {
                du32: rng.divisor(32) as u32,
                du64: rng.divisor(64),
                d_div_rem: rng.divisor(64),
                d_rem32: rng.divisor(32) as u32,
                di64: rng.signed_divisor(63),
                radix_start: rng.next_u64() as u32,
                prime: PRIMES[rng.below(PRIMES.len() as u64) as usize],
                cal_start: rng.below(2_000_000) as i64 - 1_000_000,
                hist_width: rng.divisor(64),
                count_d: rng.divisor(8),
            })
            .collect();
        let input = Buffers {
            u32s: (0..N).map(|_| rng.next_u64() as u32).collect(),
            u64s: (0..N).map(|_| rng.next_u64()).collect(),
            i64s: (0..N).map(|_| rng.next_u64() as i64).collect(),
            count_in: (0..N).map(|_| rng.below(1 << 20)).collect(),
        };
        let cache = PlanCache::new(CACHE_CAPACITY);
        for k in &params {
            for (d, w) in [(u64::from(k.du32), 32), (k.du64, 64), (k.d_div_rem, 64)] {
                cache.udiv(u128::from(d), w).map_err(|e| e.to_string())?;
            }
            cache
                .sdiv(i128::from(k.di64), 64)
                .map_err(|e| e.to_string())?;
        }
        Ok(BatchKernels {
            cache,
            params,
            input,
            out: Outputs::new(),
            base: Outputs::new(),
            round: 0,
            round_ok: false,
            faults: 0,
            stats0: CacheStats::default(),
            round0: 0,
        })
    }

    fn window<P: Probe>(&mut self, p: &mut P) -> u64 {
        let k = self.params[(self.round % POOL as u64) as usize];
        p.op(self.round);
        p.begin(Layer::Request, 1);
        let res = run_round(&self.cache, k, &self.input, &mut self.out, p);
        p.end();
        self.round += 1;
        self.round_ok = res.is_ok();
        if let Err(e) = res {
            if self.faults == 0 {
                eprintln!("batch_kernels: fault in round {}: {e}", self.round - 1);
            }
            self.faults += 1;
        }
        ELEMS
    }

    fn check<P: Probe>(&mut self, p: &mut P) -> Result<(), String> {
        if !self.round_ok {
            return Ok(());
        }
        let k = self.params[((self.round - 1) % POOL as u64) as usize];
        span(p, Layer::Baseline, ELEMS as u32, || {
            hardware_round(k, &self.input, &mut self.base)
        });
        let (got, want, inp) = (&self.out, &self.base, &self.input);
        let round = self.round - 1;
        compare(
            round,
            "div_slice_u32",
            &got.div_u32,
            &want.div_u32,
            &inp.u32s,
            k.du32,
        )?;
        compare(
            round,
            "div_slice_u64",
            &got.div_u64,
            &want.div_u64,
            &inp.u64s,
            k.du64,
        )?;
        compare(
            round,
            "div_rem_slice_u64.q",
            &got.q_u64,
            &want.q_u64,
            &inp.u64s,
            k.d_div_rem,
        )?;
        compare(
            round,
            "div_rem_slice_u64.r",
            &got.r_u64,
            &want.r_u64,
            &inp.u64s,
            k.d_div_rem,
        )?;
        compare(
            round,
            "rem_slice_u32",
            &got.rem_u32,
            &want.rem_u32,
            &inp.u32s,
            k.d_rem32,
        )?;
        compare(
            round,
            "div_slice_i64",
            &got.div_i64,
            &want.div_i64,
            &inp.i64s,
            k.di64,
        )?;
        if got.sums != want.sums {
            return Err(format!(
                "batch_kernels round {} workload kernels with {k:?}: got {:?}, want {:?}",
                self.round - 1,
                got.sums,
                want.sums
            ));
        }
        Ok(())
    }

    fn faults(&self) -> u64 {
        self.faults
    }

    fn begin_counters(&mut self) {
        self.stats0 = self.cache.stats();
        self.round0 = self.round;
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let rounds = self.round - self.round0;
        oracle::cache_counters(self.stats0, self.cache.stats(), rounds)
    }

    fn fingerprint(&self) -> u64 {
        let mut h = 0;
        for k in &self.params {
            h = mix(h ^ k.du64 ^ k.d_div_rem, u64::from(k.du32) ^ k.di64 as u64);
            h = mix(h ^ k.hist_width ^ k.count_d, k.cal_start as u64 ^ k.prime);
        }
        let inputs = self.input.u64s.iter().chain(&self.input.count_in);
        inputs.fold(h, |h, &v| mix(h, v))
    }
}
