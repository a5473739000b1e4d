//! A concurrent, bounded, poisoning-resilient cache in front of the
//! plan constructors.
//!
//! Planning a divisor is cheap but not free (the tournament runs
//! candidate generation, certification and scoring); services that
//! divide by a recurring set of invariant divisors want to pay it once.
//! [`PlanCache`] memoizes [`DivPlan`]s behind sharded locks, with two
//! defenses the plain constructors don't need:
//!
//! * **Entry poisoning detection** — every cached entry carries an
//!   FNV-1a checksum over the plan's derived `Hash`, which covers every
//!   constant. A corrupted entry (a bit flipped in a stored magic
//!   multiplier, say) fails the checksum on its next hit, is evicted,
//!   counted (`cache.poisoned`) and rebuilt from scratch; the corrupt
//!   constants are never served.
//! * **Lock poisoning degradation** — if a writer panics while holding
//!   a shard lock, subsequent lookups on that shard bypass the cache
//!   entirely (`cache.lock_poisoned`) and build plans directly. The
//!   cache gets slower, never wrong.
//!
//! Capacity is bounded: each shard evicts its least-recently-stamped
//! entry once full, so a divisor-churning workload cannot grow the
//! cache without bound.
//!
//! # Examples
//!
//! ```
//! use magicdiv::cache::PlanCache;
//! use magicdiv::UnsignedDivisor;
//!
//! let cache = PlanCache::new(64);
//! let by7 = UnsignedDivisor::<u32>::from_plan(&cache.udiv(7, 32)?);
//! assert_eq!(by7.divide(1000), 142);
//! // Second lookup is a hit:
//! let _ = cache.udiv(7, 32)?;
//! assert_eq!(cache.stats().hits, 1);
//! # Ok::<(), magicdiv::Fault>(())
//! ```

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::error::{DivisorError, Fault, FaultKind, FaultLayer};
use crate::plan::{DivPlan, DwordPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan};

/// Number of independently locked shards. A power of two so the shard
/// index is a mask.
const SHARDS: usize = 16;

/// Which plan family a cache key addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum PlanShape {
    Udiv,
    Sdiv,
    Floor,
    ExactUnsigned,
    Dword,
}

/// Cache key: family, width and the divisor's full bit pattern (signed
/// divisors store `d as u128` so `-7` and `2^128 - 7` cannot collide
/// with an unsigned divisor — the shape tag separates them anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct CacheKey {
    shape: PlanShape,
    width: u32,
    d_bits: u128,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    plan: DivPlan,
    checksum: u64,
    stamp: u64,
}

/// FNV-1a, byte at a time: the shard hash and the entry checksum.
struct Fnv(u64);

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn fnv(x: &impl Hash) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    x.hash(&mut h);
    h.finish()
}

/// FNV-1a digest over the plan's derived [`Hash`], which covers every
/// constant it carries — the integrity check cached entries are
/// verified against on each hit.
pub fn plan_checksum(plan: &DivPlan) -> u64 {
    fnv(plan)
}

/// A plan family the cache memoizes: its key tag, its constructor from
/// the divisor's bit pattern, and the way back out of a [`DivPlan`].
trait Cached: Copy + Into<DivPlan> {
    const SHAPE: PlanShape;
    fn build(d_bits: u128, width: u32) -> Result<Self, DivisorError>;
    fn from_div_plan(plan: DivPlan) -> Option<Self>;
}

macro_rules! cached {
    ($plan:ty, $shape:ident, $variant:ident, $build:expr) => {
        impl Cached for $plan {
            const SHAPE: PlanShape = PlanShape::$shape;
            fn build(d_bits: u128, width: u32) -> Result<Self, DivisorError> {
                $build(d_bits, width)
            }
            fn from_div_plan(plan: DivPlan) -> Option<Self> {
                match plan {
                    DivPlan::$variant(p) => Some(p),
                    _ => None,
                }
            }
        }
    };
}

cached!(UdivPlan, Udiv, Unsigned, UdivPlan::new);
cached!(SdivPlan, Sdiv, Signed, |d, w| SdivPlan::new(d as i128, w));
cached!(FloorPlan, Floor, Floor, |d, w| FloorPlan::new(d as i128, w));
cached!(ExactPlan, ExactUnsigned, Exact, ExactPlan::new_unsigned);
cached!(DwordPlan, Dword, Dword, DwordPlan::new);

/// Counters a [`PlanCache`] accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a healthy cached entry.
    pub hits: u64,
    /// Lookups that built (and inserted) a fresh plan.
    pub misses: u64,
    /// Cached entries that failed their checksum and were rebuilt.
    pub poisoned: u64,
    /// Lookups that bypassed the cache because a shard lock was
    /// poisoned by a panicked writer.
    pub lock_poisoned: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

/// Sharded, bounded, self-checking memoization of [`DivPlan`]s.
///
/// See the [module docs](self) for the poisoning policy.
#[derive(Debug)]
pub struct PlanCache {
    shards: [Mutex<BTreeMap<CacheKey, Entry>>; SHARDS],
    per_shard_capacity: usize,
    stamp: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    poisoned: AtomicU64,
    lock_poisoned: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most (roughly) `capacity` plans; each of the
    /// 16 shards gets an equal slice, minimum one entry.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            shards: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            stamp: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            lock_poisoned: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_index(key: &CacheKey) -> usize {
        (fnv(key) as usize) & (SHARDS - 1)
    }

    /// The one lookup behind every accessor: serve a checksum-verified
    /// hit on the `P` for the divisor whose bit pattern is `d_bits`, or
    /// build, insert (evicting if full) and return it.
    fn lookup<P: Cached>(&self, d_bits: u128, width: u32) -> Result<P, Fault> {
        let key = CacheKey {
            shape: P::SHAPE,
            width,
            d_bits,
        };
        let shard = &self.shards[Self::shard_index(&key)];
        let mut map = match shard.lock() {
            Ok(map) => map,
            Err(_) => {
                // A writer panicked while holding this shard. The map's
                // contents are suspect and the lock stays poisoned, so
                // degrade to cache-bypass: always plan from scratch.
                self.lock_poisoned.fetch_add(1, Ordering::Relaxed);
                magicdiv_trace::event!("cache.lock_poisoned",
                    "width" => key.width);
                return Ok(P::build(d_bits, width)?);
            }
        };
        if let Some(entry) = map.get(&key) {
            let healthy = plan_checksum(&entry.plan) == entry.checksum;
            if let Some(plan) = P::from_div_plan(entry.plan).filter(|_| healthy) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                magicdiv_trace::event!("cache.hit",
                    "width" => key.width,
                    "d_bits" => key.d_bits);
                return Ok(plan);
            }
            // Corrupt entry: evict, count, fall through to rebuild.
            map.remove(&key);
            self.poisoned.fetch_add(1, Ordering::Relaxed);
            magicdiv_trace::event!("cache.poisoned",
                "width" => key.width,
                "d_bits" => key.d_bits);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            magicdiv_trace::event!("cache.miss",
                "width" => key.width,
                "d_bits" => key.d_bits);
        }
        let plan = P::build(d_bits, width)?;
        if map.len() >= self.per_shard_capacity {
            // Evict the oldest-stamped entry in this shard.
            if let Some(oldest) = map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k) {
                map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                magicdiv_trace::event!("cache.evicted", "width" => key.width);
            }
        }
        let stored = plan.into();
        map.insert(
            key,
            Entry {
                plan: stored,
                checksum: plan_checksum(&stored),
                stamp: self.stamp.fetch_add(1, Ordering::Relaxed),
            },
        );
        Ok(plan)
    }

    /// Cached [`UdivPlan`] for dividing by `d` at `width` bits.
    ///
    /// # Errors
    ///
    /// `DivideByZero` (as a [`Fault`]) when `d == 0`.
    ///
    /// # Panics
    ///
    /// Panics when `width` is unsupported or `d` does not fit, exactly
    /// as [`UdivPlan::new`].
    pub fn udiv(&self, d: u128, width: u32) -> Result<UdivPlan, Fault> {
        self.lookup(d, width)
    }

    /// Cached [`SdivPlan`] for dividing by `d` at `width` bits.
    ///
    /// # Errors
    ///
    /// `DivideByZero` when `d == 0`.
    ///
    /// # Panics
    ///
    /// As [`SdivPlan::new`].
    pub fn sdiv(&self, d: i128, width: u32) -> Result<SdivPlan, Fault> {
        self.lookup(d as u128, width)
    }

    /// Cached [`FloorPlan`] for floor-dividing by `d` at `width` bits.
    ///
    /// # Errors
    ///
    /// `DivideByZero` when `d == 0`.
    ///
    /// # Panics
    ///
    /// As [`FloorPlan::new`].
    pub fn floor(&self, d: i128, width: u32) -> Result<FloorPlan, Fault> {
        self.lookup(d as u128, width)
    }

    /// Cached unsigned [`ExactPlan`] for exact division by `d`.
    ///
    /// # Errors
    ///
    /// `DivideByZero` when `d == 0`.
    ///
    /// # Panics
    ///
    /// As [`ExactPlan::new_unsigned`].
    pub fn exact_unsigned(&self, d: u128, width: u32) -> Result<ExactPlan, Fault> {
        self.lookup(d, width)
    }

    /// Cached [`DwordPlan`] for doubleword division by `d`.
    ///
    /// # Errors
    ///
    /// `DivideByZero` when `d == 0`.
    ///
    /// # Panics
    ///
    /// As [`DwordPlan::new`].
    pub fn dword(&self, d: u128, width: u32) -> Result<DwordPlan, Fault> {
        self.lookup(d, width)
    }

    /// Lifetime counters plus the current entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
            lock_poisoned: self.lock_poisoned.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Live entries across all healthy shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .filter_map(|s| s.lock().ok())
            .map(|m| m.len())
            .sum()
    }

    /// `true` when no healthy shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry in every healthy shard (poisoned shards are
    /// left alone — they are bypassed anyway).
    pub fn clear(&self) {
        for shard in &self.shards {
            if let Ok(mut map) = shard.lock() {
                map.clear();
            }
        }
    }

    /// Typed poisoning probe for the cache layer.
    ///
    /// # Errors
    ///
    /// [`FaultKind::CachePoisoned`] at [`FaultLayer::Cache`] if any
    /// cached entry currently fails its checksum (without evicting it —
    /// this is a diagnostic, the next lookup repairs).
    pub fn check_integrity(&self) -> Result<(), Fault> {
        for shard in &self.shards {
            if let Ok(map) = shard.lock() {
                for entry in map.values() {
                    if plan_checksum(&entry.plan) != entry.checksum {
                        return Err(Fault {
                            layer: FaultLayer::Cache,
                            kind: FaultKind::CachePoisoned,
                            at: None,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    // -- chaos / fault-injection hooks -------------------------------------

    /// The key and shard of the cached [`UdivPlan`] for (`d`, `width`).
    fn udiv_shard(&self, d: u128, width: u32) -> (CacheKey, &Mutex<BTreeMap<CacheKey, Entry>>) {
        let key = CacheKey {
            shape: PlanShape::Udiv,
            width,
            d_bits: d,
        };
        (key, &self.shards[Self::shard_index(&key)])
    }

    /// Fault injection: flips one bit in the *stored* plan for
    /// (`d`, `width`) — the multiplier constant when the strategy has
    /// one, else the divisor — leaving the checksum stale. Returns
    /// `false` when the entry is absent or its shard lock is poisoned.
    ///
    /// The next [`udiv`](Self::udiv) for the same key must detect the
    /// corruption, evict and rebuild; this is how the chaos harness
    /// exercises the poisoning path.
    pub fn chaos_corrupt_udiv(&self, d: u128, width: u32) -> bool {
        let (key, shard) = self.udiv_shard(d, width);
        let Ok(mut map) = shard.lock() else {
            return false;
        };
        let Some(entry) = map.get_mut(&key) else {
            return false;
        };
        let DivPlan::Unsigned(plan) = &mut entry.plan else {
            return false;
        };
        *plan = plan.flip_bit(11);
        true
    }

    /// Fault injection: poisons the shard lock that would hold
    /// (`d`, `width`) by panicking (and catching the panic) while the
    /// lock is held. Returns `true` when the shard lock is poisoned
    /// afterwards.
    ///
    /// Subsequent lookups landing on that shard take the cache-bypass
    /// path: slower, still correct.
    // The panic below IS the injected fault, immediately caught; the
    // panic-freedom gate exempts it knowingly.
    #[allow(clippy::panic)]
    pub fn chaos_poison_lock_udiv(&self, d: u128, width: u32) -> bool {
        let (_, shard) = self.udiv_shard(d, width);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // Unwinding through `_guard` marks the mutex poisoned.
            std::panic::panic_any(ChaosLockPoison);
        }));
        shard.lock().is_err()
    }
}

/// Panic payload [`PlanCache::chaos_poison_lock_udiv`] unwinds with, so
/// an escaped injection is identifiable.
struct ChaosLockPoison;

/// The process-wide plan cache (capacity 1024), for callers that want
/// memoized planning without threading a [`PlanCache`] through their
/// plumbing.
pub fn global_plan_cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(|| PlanCache::new(1024))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let cache = PlanCache::new(64);
        let a = cache.udiv(7, 32).expect("plan");
        let b = cache.udiv(7, 32).expect("plan");
        assert_eq!(a, b);
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn signed_and_unsigned_keys_do_not_collide() {
        let cache = PlanCache::new(64);
        let _ = cache.sdiv(-7, 32).expect("plan");
        let u = cache.udiv((-7i128) as u128 & 0xffff_ffff, 32);
        // Different shapes: the second lookup must be a miss, not a hit
        // on the signed entry.
        assert!(u.is_ok());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn zero_divisor_is_typed_and_not_cached() {
        let cache = PlanCache::new(64);
        let err = cache.udiv(0, 32).expect_err("zero divides nothing");
        assert_eq!(err.kind, FaultKind::DivideByZero);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn capacity_is_bounded() {
        let cache = PlanCache::new(16); // 1 entry per shard
        for d in 1..200u128 {
            let _ = cache.udiv(d, 32).expect("plan");
        }
        assert!(cache.len() <= 16, "len={}", cache.len());
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn corrupted_entry_is_detected_evicted_and_rebuilt() {
        let cache = PlanCache::new(64);
        let good = cache.udiv(10, 32).expect("plan");
        assert!(cache.chaos_corrupt_udiv(10, 32), "entry exists");
        assert!(cache.check_integrity().is_err());
        let rebuilt = cache.udiv(10, 32).expect("rebuild");
        assert_eq!(rebuilt, good, "rebuilt plan matches the original");
        assert_eq!(cache.stats().poisoned, 1);
        assert!(cache.check_integrity().is_ok());
        // And the next lookup is a clean hit again.
        let _ = cache.udiv(10, 32).expect("plan");
        assert!(cache.stats().hits >= 1);
    }

    #[test]
    fn poisoned_lock_degrades_to_bypass() {
        let cache = PlanCache::new(64);
        let good = cache.udiv(10, 32).expect("plan");
        assert!(cache.chaos_poison_lock_udiv(10, 32));
        let after = cache.udiv(10, 32).expect("bypass build");
        assert_eq!(after, good);
        assert!(cache.stats().lock_poisoned >= 1);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = PlanCache::new(256);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for d in 1..100u128 {
                        let p = cache.udiv(d, 64).expect("plan");
                        assert_eq!(p, UdivPlan::new(d, 64).expect("plan"));
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.poisoned, 0);
        assert!(s.hits + s.misses >= 4 * 99);
    }

    #[test]
    fn checksum_distinguishes_all_constants() {
        let plans = [
            DivPlan::Unsigned(UdivPlan::new(7, 32).expect("plan")),
            DivPlan::Unsigned(UdivPlan::new(7, 64).expect("plan")),
            DivPlan::Unsigned(UdivPlan::new(10, 32).expect("plan")),
            DivPlan::Signed(SdivPlan::new(7, 32).expect("plan")),
            DivPlan::Signed(SdivPlan::new(-7, 32).expect("plan")),
            DivPlan::Floor(FloorPlan::new(7, 32).expect("plan")),
            DivPlan::Exact(ExactPlan::new_unsigned(7, 32).expect("plan")),
            DivPlan::Dword(DwordPlan::new(7, 32).expect("plan")),
        ];
        let sums: Vec<u64> = plans.iter().map(plan_checksum).collect();
        for i in 0..sums.len() {
            for j in (i + 1)..sums.len() {
                assert_ne!(sums[i], sums[j], "{:?} vs {:?}", plans[i], plans[j]);
            }
        }
    }
}
