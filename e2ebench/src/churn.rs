//! `divisor_churn`: a stream of mostly new divisors through a private
//! 1024-entry cache, each wrapped in a hardened guard.
//!
//! Keys are uniform over 2^20, so almost every lookup misses: the
//! request plans, inserts, evicts, probes the guard and only then runs
//! 16 guarded ops. Writes sit beside reads on the same cache, so a
//! hit-path gain that costs the miss path shows here, and so does any
//! change to the guarded divisors.

use magicdiv::cache::{CacheStats, PlanCache};
use magicdiv::plan::{DivPlan, DwordPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan};
use magicdiv::{
    fault_budget, DWord, DivisorError, Fault, GuardPolicy, GuardedDwordDivisor,
    GuardedExactDivisor, GuardedFloorDivisor, GuardedSignedDivisor, GuardedUnsignedDivisor,
};

use crate::harness::{lap, span, Layer, Probe, Workload};
use crate::oracle::{self, Family};
use crate::rng::{mix, Rng};

const KEY_SPACE: u64 = 1 << 20;
const CACHE_CAPACITY: usize = 1024;
const STREAM: usize = 1 << 16;
const WINDOW: usize = 256;
/// Guarded ops per request; with `hardened(16)` one of them is
/// cross-checked against native division.
const OPS: usize = 16;
const POOL: usize = 4096;

#[derive(Debug, Clone, Copy)]
struct Request {
    family: Family,
    /// The divisor's bits (signed divisors as `i64 as u64`).
    d: u64,
    /// Offset of the request's dividends in the pool.
    n0: u32,
}

/// The `j`-th operands of a request: even ops of an exact request ask
/// `divide_exact`, odd ones `divides`.
fn operands(r: Request, pool: &[u64], j: usize) -> (u64, u64) {
    let v = pool[(r.n0 as usize + j) % POOL];
    r.family.operands(r.d, v, v.rotate_left(29), j % 2 == 1)
}

/// A cache lookup, relabelled as a miss when it had to plan. Reading
/// the counters is harness time, skipped out of the layers.
#[inline(always)]
fn lookup<P: Probe, T>(
    p: &mut P,
    cache: &PlanCache,
    f: impl FnOnce() -> Result<T, Fault>,
) -> Result<T, String> {
    let misses = if P::ON { cache.stats().misses } else { 0 };
    p.skip();
    let plan = lap(p, Layer::CacheHit, f);
    if P::ON && cache.stats().misses != misses {
        p.relabel(Layer::CacheMiss);
    }
    p.skip();
    plan.map_err(|e| e.to_string())
}

#[inline(always)]
fn guarded_ops<P: Probe>(
    p: &mut P,
    out: &mut [u128],
    mut op: impl FnMut(usize) -> Result<u128, String>,
) -> Result<(), String> {
    let res = out
        .iter_mut()
        .enumerate()
        .try_for_each(|(j, o)| op(j).map(|v| *o = v));
    p.lap(Layer::GuardOps, OPS as u32);
    res
}

fn serve<P: Probe>(
    cache: &PlanCache,
    policy: &GuardPolicy,
    pool: &[u64],
    r: Request,
    p: &mut P,
    out: &mut [u128],
) -> Result<(), String> {
    let fault = |e: Fault| e.to_string();
    let arg = |j| operands(r, pool, j);
    let (du, ds) = (u128::from(r.d), i128::from(r.d as i64));
    match r.family {
        Family::U32 => {
            let plan = lookup(p, cache, || cache.udiv(du, 32))?;
            let g = lap(p, Layer::GuardConstruct, || {
                GuardedUnsignedDivisor::<u32>::from_plan(&plan, policy)
            })
            .map_err(fault)?;
            guarded_ops(p, out, |j| Ok(u128::from(g.divide(arg(j).0 as u32))))
        }
        Family::U64 => {
            let plan = lookup(p, cache, || cache.udiv(du, 64))?;
            let g = lap(p, Layer::GuardConstruct, || {
                GuardedUnsignedDivisor::<u64>::from_plan(&plan, policy)
            })
            .map_err(fault)?;
            guarded_ops(p, out, |j| Ok(u128::from(g.divide(arg(j).0))))
        }
        Family::I64 => {
            let plan = lookup(p, cache, || cache.sdiv(ds, 64))?;
            let g = lap(p, Layer::GuardConstruct, || {
                GuardedSignedDivisor::<i64>::from_plan(&plan, policy)
            })
            .map_err(fault)?;
            guarded_ops(p, out, |j| Ok(u128::from(g.divide(arg(j).0 as i64) as u64)))
        }
        Family::I32 => {
            let plan = lookup(p, cache, || cache.sdiv(ds, 32))?;
            let g = lap(p, Layer::GuardConstruct, || {
                GuardedSignedDivisor::<i32>::from_plan(&plan, policy)
            })
            .map_err(fault)?;
            guarded_ops(p, out, |j| {
                Ok(u128::from(g.divide(arg(j).0 as u32 as i32) as u32))
            })
        }
        Family::Floor64 => {
            let plan = lookup(p, cache, || cache.floor(ds, 64))?;
            let g = lap(p, Layer::GuardConstruct, || {
                GuardedFloorDivisor::<i64>::from_plan(&plan, policy)
            })
            .map_err(fault)?;
            guarded_ops(p, out, |j| Ok(u128::from(g.divide(arg(j).0 as i64) as u64)))
        }
        Family::Exact64 => {
            let plan = lookup(p, cache, || cache.exact_unsigned(du, 64))?;
            let g = lap(p, Layer::GuardConstruct, || {
                GuardedExactDivisor::<u64>::from_plan(&plan, policy)
            })
            .map_err(fault)?;
            guarded_ops(p, out, |j| {
                let (a, b) = arg(j);
                Ok(u128::from(if b == 0 {
                    g.divide_exact(a)
                } else {
                    u64::from(g.divides(a))
                }))
            })
        }
        Family::Dword64 => {
            let plan = lookup(p, cache, || cache.dword(du, 64))?;
            let g = lap(p, Layer::GuardConstruct, || {
                GuardedDwordDivisor::<u64>::from_plan(&plan, policy)
            })
            .map_err(fault)?;
            guarded_ops(p, out, |j| {
                let (hi, lo) = arg(j);
                let (q, rem) = g
                    .div_rem(DWord::from_parts(hi, lo))
                    .map_err(|e| e.to_string())?;
                Ok((u128::from(q) << 64) | u128::from(rem))
            })
        }
    }
}

/// The plan constructor a miss runs, called directly.
fn build(r: Request) -> Result<DivPlan, DivisorError> {
    let (du, ds) = (u128::from(r.d), i128::from(r.d as i64));
    Ok(match r.family {
        Family::U32 => UdivPlan::new(du, 32)?.into(),
        Family::U64 => UdivPlan::new(du, 64)?.into(),
        Family::I64 => SdivPlan::new(ds, 64)?.into(),
        Family::I32 => SdivPlan::new(ds, 32)?.into(),
        Family::Floor64 => FloorPlan::new(ds, 64)?.into(),
        Family::Exact64 => ExactPlan::new_unsigned(du, 64)?.into(),
        Family::Dword64 => DwordPlan::new(du, 64)?.into(),
    })
}

pub struct DivisorChurn {
    cache: PlanCache,
    policy: GuardPolicy,
    pool: Vec<u64>,
    requests: Vec<Request>,
    pos: usize,
    window_start: usize,
    out: Vec<u128>,
    ok: Vec<bool>,
    next_op: u64,
    faults: u64,
    stats0: CacheStats,
    demotions0: u64,
    op0: u64,
}

impl DivisorChurn {
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

impl Workload for DivisorChurn {
    const SPANS_PER_OP: u64 = 5;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(mix(seed, 0xc4u64));
        let pool = (0..POOL).map(|_| rng.next_u64()).collect();
        let requests = (0..STREAM)
            .map(|_| {
                let key = rng.below(KEY_SPACE);
                let family = Family::ALL[(key % Family::ALL.len() as u64) as usize];
                // A hash of the key picks the divisor, so a key always
                // names the same divisor.
                let d = family.divisor(&mut Rng::new(mix(seed, key)));
                let n0 = rng.below(POOL as u64) as u32;
                Request { family, d, n0 }
            })
            .collect();
        Ok(DivisorChurn {
            cache: PlanCache::new(CACHE_CAPACITY),
            policy: GuardPolicy::hardened(16),
            pool,
            requests,
            pos: 0,
            window_start: 0,
            out: vec![0; WINDOW * OPS],
            ok: vec![false; WINDOW],
            next_op: 0,
            faults: 0,
            stats0: CacheStats::default(),
            demotions0: 0,
            op0: 0,
        })
    }

    fn window<P: Probe>(&mut self, p: &mut P) -> u64 {
        self.window_start = self.pos;
        for (ok, out) in self.ok.iter_mut().zip(self.out.chunks_exact_mut(OPS)) {
            let r = self.requests[self.pos];
            self.pos = (self.pos + 1) % STREAM;
            p.op(self.next_op);
            self.next_op += 1;
            p.begin(Layer::Request, 1);
            let res = serve(&self.cache, &self.policy, &self.pool, r, p, out);
            p.end();
            *ok = res.is_ok();
            if let Err(e) = res {
                if self.faults == 0 {
                    eprintln!("divisor_churn: fault on {:?} d={}: {e}", r.family, r.d);
                }
                self.faults += 1;
            }
            if P::ON && p.sampled() {
                // Outside the request: the constructor a miss runs.
                std::hint::black_box(span(p, Layer::PlanBuild, 1, || build(r)).is_ok());
            }
        }
        WINDOW as u64
    }

    fn check<P: Probe>(&mut self, _p: &mut P) -> Result<(), String> {
        for (i, (&ok, out)) in self.ok.iter().zip(self.out.chunks_exact(OPS)).enumerate() {
            if !ok {
                continue;
            }
            let r = self.requests[(self.window_start + i) % STREAM];
            for (j, &got) in out.iter().enumerate() {
                let (a, b) = operands(r, &self.pool, j);
                let want = r.family.expected(r.d, a, b);
                if got != want {
                    return Err(format!(
                        "divisor_churn op {} #{j}: {:?} d={} a={a} b={b}: got {got:#x}, want {want:#x}",
                        self.next_op - WINDOW as u64 + i as u64,
                        r.family,
                        r.d as i64,
                    ));
                }
            }
        }
        Ok(())
    }

    fn faults(&self) -> u64 {
        self.faults
    }

    fn begin_counters(&mut self) {
        self.stats0 = self.cache.stats();
        self.demotions0 = fault_budget().demotions();
        self.op0 = self.next_op;
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let requests = self.next_op - self.op0;
        let mut c = oracle::cache_counters(self.stats0, self.cache.stats(), requests);
        c.push((
            "guard.demotions",
            (fault_budget().demotions() - self.demotions0) as f64,
        ));
        c
    }

    fn fingerprint(&self) -> u64 {
        let mut h = self.pool.iter().fold(0, |h, &v| mix(h, v));
        for r in &self.requests {
            h = mix(h ^ r.d, u64::from(r.n0) ^ r.family as u64);
        }
        h
    }
}
