//! `service_hot`: warm requests through the process-wide plan cache.
//!
//! One request is a cache lookup, `from_plan` and one kernel call. The
//! 512 keys fit the 1024-entry global cache, so after set-up every
//! lookup hits: the request is dominated by the hit path (shard hash,
//! lock, map probe, checksum), which is what a front cache, cheaper
//! hashing or a checksum cut would move.

use magicdiv::cache::{global_plan_cache, plan_checksum, CacheStats};
use magicdiv::plan::DivPlan;
use magicdiv::{
    DWord, DwordDivisor, ExactUnsignedDivisor, FloorDivisor, SignedDivisor, UnsignedDivisor,
};

use crate::harness::{lap, span, Layer, Probe, Workload};
use crate::oracle::{self, Family};
use crate::rng::{mix, Rng, Zipf};

const KEYS: usize = 512;
const STREAM: usize = 1 << 16;
const WINDOW: usize = 1024;

/// Request share (percent) and key count of each family; the keys add
/// up to 512 in proportion to the shares.
const MIX: [(Family, u64, usize); 7] = [
    (Family::U64, 30, 154),
    (Family::U32, 20, 102),
    (Family::I64, 10, 51),
    (Family::I32, 10, 51),
    (Family::Floor64, 10, 51),
    (Family::Exact64, 10, 51),
    (Family::Dword64, 10, 52),
];

#[derive(Debug, Clone, Copy)]
struct Key {
    family: Family,
    /// The divisor's bits (signed divisors as `i64 as u64`).
    d: u64,
}

/// Operands as [`Family::operands`] draws them.
#[derive(Debug, Clone, Copy)]
struct Request {
    key: u32,
    a: u64,
    b: u64,
}

pub struct ServiceHot {
    keys: Vec<Key>,
    plans: Vec<DivPlan>,
    requests: Vec<Request>,
    pos: usize,
    window_start: usize,
    out: Vec<Option<u128>>,
    next_op: u64,
    faults: u64,
    stats0: CacheStats,
    op0: u64,
}

#[inline(always)]
fn serve<P: Probe>(k: Key, r: Request, p: &mut P) -> Result<u128, String> {
    let cache = global_plan_cache();
    let fault = |e: magicdiv::Fault| e.to_string();
    Ok(match k.family {
        Family::U64 => {
            let plan =
                lap(p, Layer::CacheHit, || cache.udiv(u128::from(k.d), 64)).map_err(fault)?;
            let div = lap(p, Layer::FromPlan, || {
                UnsignedDivisor::<u64>::from_plan(&plan)
            });
            u128::from(lap(p, Layer::KernelOp, || div.divide(r.a)))
        }
        Family::U32 => {
            let plan =
                lap(p, Layer::CacheHit, || cache.udiv(u128::from(k.d), 32)).map_err(fault)?;
            let div = lap(p, Layer::FromPlan, || {
                UnsignedDivisor::<u32>::from_plan(&plan)
            });
            u128::from(lap(p, Layer::KernelOp, || div.divide(r.a as u32)))
        }
        Family::I64 => {
            let d = i128::from(k.d as i64);
            let plan = lap(p, Layer::CacheHit, || cache.sdiv(d, 64)).map_err(fault)?;
            let div = lap(p, Layer::FromPlan, || {
                SignedDivisor::<i64>::from_plan(&plan)
            });
            u128::from(lap(p, Layer::KernelOp, || div.divide(r.a as i64)) as u64)
        }
        Family::I32 => {
            let d = i128::from(k.d as i64);
            let plan = lap(p, Layer::CacheHit, || cache.sdiv(d, 32)).map_err(fault)?;
            let div = lap(p, Layer::FromPlan, || {
                SignedDivisor::<i32>::from_plan(&plan)
            });
            u128::from(lap(p, Layer::KernelOp, || div.divide(r.a as u32 as i32)) as u32)
        }
        Family::Floor64 => {
            let d = i128::from(k.d as i64);
            let plan = lap(p, Layer::CacheHit, || cache.floor(d, 64)).map_err(fault)?;
            let div = lap(p, Layer::FromPlan, || FloorDivisor::<i64>::from_plan(&plan));
            u128::from(lap(p, Layer::KernelOp, || div.divide(r.a as i64)) as u64)
        }
        Family::Exact64 => {
            let plan = lap(p, Layer::CacheHit, || {
                cache.exact_unsigned(u128::from(k.d), 64)
            })
            .map_err(fault)?;
            let div = lap(p, Layer::FromPlan, || {
                ExactUnsignedDivisor::<u64>::from_plan(&plan)
            });
            u128::from(lap(p, Layer::KernelOp, || {
                if r.b == 0 {
                    div.divide_exact(r.a)
                } else {
                    u64::from(div.divides(r.a))
                }
            }))
        }
        Family::Dword64 => {
            let plan =
                lap(p, Layer::CacheHit, || cache.dword(u128::from(k.d), 64)).map_err(fault)?;
            let div = lap(p, Layer::FromPlan, || DwordDivisor::<u64>::from_plan(&plan));
            let (q, rem) = lap(p, Layer::KernelOp, || {
                div.div_rem(DWord::from_parts(r.a, r.b))
            })
            .map_err(|e| e.to_string())?;
            (u128::from(q) << 64) | u128::from(rem)
        }
    })
}

impl ServiceHot {
    fn plan_for(k: Key) -> Result<DivPlan, String> {
        let cache = global_plan_cache();
        let d = u128::from(k.d);
        let s = i128::from(k.d as i64);
        let plan = match k.family {
            Family::U64 => cache.udiv(d, 64).map(DivPlan::from),
            Family::U32 => cache.udiv(d, 32).map(DivPlan::from),
            Family::I64 => cache.sdiv(s, 64).map(DivPlan::from),
            Family::I32 => cache.sdiv(s, 32).map(DivPlan::from),
            Family::Floor64 => cache.floor(s, 64).map(DivPlan::from),
            Family::Exact64 => cache.exact_unsigned(d, 64).map(DivPlan::from),
            Family::Dword64 => cache.dword(d, 64).map(DivPlan::from),
        };
        plan.map_err(|e| format!("service_hot set-up, {:?} d={}: {e}", k.family, k.d))
    }
}

impl Workload for ServiceHot {
    const SPANS_PER_OP: u64 = 5;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(mix(seed, 0x5e41));
        let mut keys = Vec::with_capacity(KEYS);
        let mut first = Vec::with_capacity(MIX.len());
        for &(family, _, count) in &MIX {
            first.push(keys.len());
            let mut seen = std::collections::BTreeSet::new();
            while seen.len() < count {
                let d = family.divisor(&mut rng);
                if seen.insert(d) {
                    keys.push(Key { family, d });
                }
            }
        }
        let zipf: Vec<Zipf> = MIX.iter().map(|&(_, _, n)| Zipf::new(n)).collect();
        let requests = (0..STREAM)
            .map(|_| {
                let mut pick = rng.below(100);
                let f = MIX
                    .iter()
                    .position(|&(_, share, _)| {
                        let hit = pick < share;
                        pick = pick.wrapping_sub(share);
                        hit
                    })
                    .unwrap_or(0);
                let key = (first[f] + zipf[f].sample(&mut rng)) as u32;
                let k: Key = keys[key as usize];
                let (v, w, divides) = (rng.next_u64(), rng.next_u64(), rng.next_u64() & 1 == 1);
                let (a, b) = k.family.operands(k.d, v, w, divides);
                Request { key, a, b }
            })
            .collect();
        // A restarted service starts cold: empty the shared cache, then
        // warm it with every key.
        global_plan_cache().clear();
        let plans = keys
            .iter()
            .map(|&k| Self::plan_for(k))
            .collect::<Result<_, _>>()?;
        Ok(ServiceHot {
            keys,
            plans,
            requests,
            pos: 0,
            window_start: 0,
            out: vec![None; WINDOW],
            next_op: 0,
            faults: 0,
            stats0: CacheStats::default(),
            op0: 0,
        })
    }

    fn window<P: Probe>(&mut self, p: &mut P) -> u64 {
        self.window_start = self.pos;
        for slot in self.out.iter_mut() {
            let r = self.requests[self.pos];
            self.pos = (self.pos + 1) % STREAM;
            let k = self.keys[r.key as usize];
            p.op(self.next_op);
            self.next_op += 1;
            p.begin(Layer::Request, 1);
            let res = serve(k, r, p);
            p.end();
            *slot = match res {
                Ok(v) => Some(v),
                Err(e) => {
                    if self.faults == 0 {
                        eprintln!("service_hot: fault on {:?} d={}: {e}", k.family, k.d);
                    }
                    self.faults += 1;
                    None
                }
            };
            if P::ON && p.sampled() {
                // Outside the request: what the hit path's integrity
                // check costs on the plan it serves.
                let plan = &self.plans[r.key as usize];
                span(p, Layer::Checksum, 1, || plan_checksum(plan));
            }
        }
        WINDOW as u64
    }

    fn check<P: Probe>(&mut self, _p: &mut P) -> Result<(), String> {
        for (i, got) in self.out.iter().enumerate() {
            let r = self.requests[(self.window_start + i) % STREAM];
            let k = self.keys[r.key as usize];
            let want = k.family.expected(k.d, r.a, r.b);
            if let Some(got) = *got {
                if got != want {
                    return Err(format!(
                        "service_hot op {}: {:?} d={} a={} b={}: got {got:#x}, want {want:#x}",
                        self.next_op - WINDOW as u64 + i as u64,
                        k.family,
                        k.d as i64,
                        r.a,
                        r.b
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
        self.stats0 = global_plan_cache().stats();
        self.op0 = self.next_op;
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let requests = self.next_op - self.op0;
        oracle::cache_counters(self.stats0, global_plan_cache().stats(), requests)
    }

    fn fingerprint(&self) -> u64 {
        let mut h = 0u64;
        for r in &self.requests {
            let k = self.keys[r.key as usize];
            h = mix(h ^ k.d, r.a ^ r.b.rotate_left(7) ^ r.key as u64);
        }
        h
    }
}
