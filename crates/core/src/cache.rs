//! A concurrent, bounded, poisoning-resilient cache in front of the
//! plan constructors.
//!
//! Planning a divisor is cheap but not free (the tournament runs
//! candidate generation, certification and scoring); services that
//! divide by a recurring set of invariant divisors want to pay it once.
//! [`PlanCache`] memoizes [`DivPlan`]s in sixteen locked shards, each a
//! `HashMap`, with two defenses the plain constructors don't need:
//!
//! * **Entry poisoning detection** — every cached entry carries a
//!   [`plan_checksum`] over the plan's derived `Hash`, which covers every
//!   constant. A corrupted entry (a bit flipped in a stored magic
//!   multiplier, say) fails the checksum on its next hit, is evicted,
//!   counted (`cache.poisoned`) and rebuilt from scratch; the corrupt
//!   constants are never served.
//! * **Lock poisoning degradation** — if a writer panics while holding
//!   a shard lock, subsequent lookups on that shard bypass the cache
//!   entirely (`cache.lock_poisoned`) and build plans directly. The
//!   cache gets slower, never wrong.
//!
//! One word-at-a-time digest, `WordHash`, serves three purposes: the
//! checksum, the shard index and the shard maps' own hashing. It takes
//! one multiply step per integer field, so a hit costs a few dozen
//! cycles of hashing rather than one step per byte.
//!
//! A miss builds its plan, and the plan constructor validates the key:
//! an unsupported width or a divisor that does not fit is a typed
//! [`Fault`], and such a key is never inserted, so hits pay nothing for
//! the check.
//!
//! Capacity is bounded: each shard evicts in FIFO order once full, so a
//! divisor-churning workload cannot grow the cache without bound. A hit
//! does not refresh an entry, so the victim is always the shard's oldest
//! insert. Each shard keeps its inserts in a queue of `(key, stamp)`
//! pairs, which makes an eviction O(1) instead of a scan over the
//! shard. Stamps are unique within a shard: a queued pair whose stamp no
//! longer matches its entry (evicted as poisoned, then rebuilt) is stale
//! and skipped.
//!
//! The counters and the stamp live in each shard and are updated under
//! the shard lock the lookup already holds, so a lookup pays no locked
//! read-modify-write for them; [`PlanCache::stats`] sums the shards.
//! Only the count of lookups that bypassed a poisoned lock is a shared
//! atomic, since those lookups hold no lock.
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

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::error::{DivisorError, Fault, FaultKind, FaultLayer};
use crate::plan::{DivPlan, DwordPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan};

/// Number of independently locked shards. A power of two so the shard
/// index is a bit field of the key's digest.
const SHARDS: usize = 16;

/// Which plan family a cache key addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// The word-at-a-time digest behind the checksum, the shard index and
/// the shard maps.
///
/// Every integer the derived `Hash` writes is one step,
/// `h = (rotl(h, 5) ^ w) * K` with `K` odd (a `u128` is two steps, low
/// word first). A step is a bijection in `h` for a fixed `w` and in `w`
/// for a fixed `h`. So two inputs that differ in exactly one word (a
/// multiplier with one bit flipped, say) always get different digests.
/// Multiplication carries only upward, so the high bits of the digest
/// are the well-mixed ones.
struct WordHash(u64);

impl WordHash {
    /// The odd multiplier of a step: `2^64 / φ`, rounded to odd.
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    #[inline]
    fn step(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(Self::K);
    }
}

impl Default for WordHash {
    #[inline]
    fn default() -> Self {
        WordHash(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for WordHash {
    /// Folds `bytes` in little-endian 8-byte words, the last one
    /// zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.step(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.step(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.step(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.step(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.step(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.step(i as u64);
        self.step((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.step(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.step(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

fn digest(x: &impl Hash) -> u64 {
    let mut h = WordHash::default();
    x.hash(&mut h);
    h.finish()
}

/// `WordHash` digest of the plan's derived [`Hash`], which covers
/// every constant it carries — the integrity check cached entries are
/// verified against on each hit. A corruption confined to one 64-bit
/// word of the plan (any single bit flip) always changes it.
pub fn plan_checksum(plan: &DivPlan) -> u64 {
    digest(plan)
}

/// One shard's map, hashed with the same `WordHash`.
///
/// Entries are boxed: the table keeps up to twice as many slots as
/// entries, and an empty 40-byte slot wastes far less memory than an
/// empty 144-byte inline entry would.
///
/// `WordHash` is unkeyed, so divisors chosen to collide could make one
/// shard's probes linear in its size. The per-shard capacity bounds
/// that size (64 entries in the global cache).
type ShardMap = HashMap<CacheKey, Box<Entry>, BuildHasherDefault<WordHash>>;

/// One queued insert: its key and its entry's stamp. Packed to 8-byte
/// alignment it takes 32 bytes, where a `(CacheKey, u64)` pair takes 48.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(8))]
struct Queued {
    d_bits: u128,
    stamp: u64,
    width: u32,
    shape: PlanShape,
}

impl Queued {
    fn key(self) -> CacheKey {
        CacheKey {
            shape: self.shape,
            width: self.width,
            d_bits: self.d_bits,
        }
    }
}

/// One shard: its map, the insertion-ordered queue eviction pops, the
/// next stamp and the shard's share of the lifetime counters.
#[derive(Debug, Default)]
struct Shard {
    map: ShardMap,
    /// Every insert, oldest first. A queued insert is live while its
    /// key's entry still carries its stamp; stale ones are skipped on
    /// eviction and dropped when the queue is compacted.
    fifo: VecDeque<Queued>,
    /// The stamp of the next insert, so each queue is in stamp order.
    stamp: u64,
    /// Counts `hits`, `misses`, `poisoned` and `evictions`; its
    /// `lock_poisoned` stays 0 (that count is the cache's).
    stats: CacheStats,
}

impl Shard {
    fn is_live(&self, q: Queued) -> bool {
        // Copied out: a closure may not borrow a packed field.
        let stamp = q.stamp;
        self.map.get(&q.key()).is_some_and(|e| e.stamp == stamp)
    }

    /// Removes the oldest live entry, returning whether there was one.
    fn evict_oldest(&mut self) -> bool {
        while let Some(q) = self.fifo.pop_front() {
            if self.is_live(q) {
                self.map.remove(&q.key());
                return true;
            }
        }
        false
    }

    /// Inserts an entry and queues it. A queue already holding twice
    /// `capacity` inserts is first compacted to its live ones, so it
    /// never holds more than that.
    fn insert(&mut self, key: CacheKey, entry: Entry, capacity: usize) {
        if self.fifo.len() >= 2 * capacity {
            let mut fifo = core::mem::take(&mut self.fifo);
            fifo.retain(|&q| self.is_live(q));
            self.fifo = fifo;
        }
        self.fifo.push_back(Queued {
            d_bits: key.d_bits,
            stamp: entry.stamp,
            width: key.width,
            shape: key.shape,
        });
        self.map.insert(key, Box::new(entry));
    }

    /// Drops every entry; the counters and the stamp live on.
    fn clear(&mut self) {
        self.map.clear();
        self.fifo.clear();
    }
}

/// A plan family the cache memoizes: its key tag and its constructor
/// from the divisor's bit pattern. The way back out of a stored
/// [`DivPlan`] is its `TryFrom`.
trait Cached: Copy + Into<DivPlan> + TryFrom<DivPlan> {
    const SHAPE: PlanShape;
    fn build(d_bits: u128, width: u32) -> Result<Self, DivisorError>;
}

macro_rules! cached {
    ($plan:ty, $shape:ident, $new:path, $d:ty) => {
        impl Cached for $plan {
            const SHAPE: PlanShape = PlanShape::$shape;
            fn build(d_bits: u128, width: u32) -> Result<Self, DivisorError> {
                $new(d_bits as $d, width)
            }
        }
    };
}

cached!(UdivPlan, Udiv, UdivPlan::new, u128);
cached!(SdivPlan, Sdiv, SdivPlan::new, i128);
cached!(FloorPlan, Floor, FloorPlan::new, i128);
cached!(ExactPlan, ExactUnsigned, ExactPlan::new_unsigned, u128);
cached!(DwordPlan, Dword, DwordPlan::new, u128);

/// Builds the `P` for (`d_bits`, `width`); the constructor's error is
/// reported at the cache layer.
fn build<P: Cached>(d_bits: u128, width: u32) -> Result<P, Fault> {
    P::build(d_bits, width).map_err(|e| Fault {
        layer: FaultLayer::Cache,
        ..Fault::from(e)
    })
}

/// Counters a [`PlanCache`] accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a healthy cached entry.
    pub hits: u64,
    /// Lookups that found no entry: each built and inserted a fresh
    /// plan, or was refused as an invalid key.
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
    shards: [Mutex<Shard>; SHARDS],
    per_shard_capacity: usize,
    lock_poisoned: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most (roughly) `capacity` plans; each of the
    /// 16 shards gets an equal slice, minimum one entry.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            shards: std::array::from_fn(|_| Mutex::default()),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            lock_poisoned: AtomicU64::new(0),
        }
    }

    /// The shard holding `key`: four high bits of its digest, where the
    /// multiply steps mix best. They sit just below the top seven, which
    /// the shard's `HashMap` tags its slots with, so keys sharing a shard
    /// still spread over all tag values.
    fn shard_index(key: &CacheKey) -> usize {
        (digest(key) >> (64 - 7 - SHARDS.trailing_zeros())) as usize & (SHARDS - 1)
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
        let mut shard = match shard.lock() {
            Ok(shard) => shard,
            Err(_) => {
                // A writer panicked while holding this shard. The map's
                // contents are suspect and the lock stays poisoned, so
                // degrade to cache-bypass: always plan from scratch.
                self.lock_poisoned.fetch_add(1, Ordering::Relaxed);
                magicdiv_trace::event!("cache.lock_poisoned",
                    "width" => key.width);
                return build(d_bits, width);
            }
        };
        if let Some(entry) = shard.map.get(&key) {
            let healthy = plan_checksum(&entry.plan) == entry.checksum;
            if let Some(plan) = P::try_from(entry.plan).ok().filter(|_| healthy) {
                shard.stats.hits += 1;
                magicdiv_trace::event!("cache.hit",
                    "width" => key.width,
                    "d_bits" => key.d_bits);
                return Ok(plan);
            }
            // Corrupt entry: evict, count, fall through to rebuild. Its
            // queued pair goes stale.
            shard.map.remove(&key);
            shard.stats.poisoned += 1;
            magicdiv_trace::event!("cache.poisoned",
                "width" => key.width,
                "d_bits" => key.d_bits);
        } else {
            shard.stats.misses += 1;
            magicdiv_trace::event!("cache.miss",
                "width" => key.width,
                "d_bits" => key.d_bits);
        }
        let plan = build::<P>(d_bits, width)?;
        if shard.map.len() >= self.per_shard_capacity && shard.evict_oldest() {
            shard.stats.evictions += 1;
            magicdiv_trace::event!("cache.evicted", "width" => key.width);
        }
        let stored = plan.into();
        let entry = Entry {
            plan: stored,
            checksum: plan_checksum(&stored),
            stamp: shard.stamp,
        };
        shard.stamp += 1;
        shard.insert(key, entry, self.per_shard_capacity);
        Ok(plan)
    }

    /// Cached [`UdivPlan`] for dividing by `d` at `width` bits.
    ///
    /// # Errors
    ///
    /// The plan constructor's error, at [`FaultLayer::Cache`]:
    /// [`FaultKind::DivideByZero`] when `d == 0`,
    /// [`FaultKind::UnsupportedWidth`] for a width outside `1..=64` and
    /// `128`, and [`FaultKind::DivisorOutOfRange`] when `d` does not fit
    /// in `width` bits.
    pub fn udiv(&self, d: u128, width: u32) -> Result<UdivPlan, Fault> {
        self.lookup(d, width)
    }

    /// Cached [`SdivPlan`] for dividing by `d` at `width` bits.
    ///
    /// # Errors
    ///
    /// As [`udiv`](Self::udiv), with `d` read as an `iN`.
    pub fn sdiv(&self, d: i128, width: u32) -> Result<SdivPlan, Fault> {
        self.lookup(d as u128, width)
    }

    /// Cached [`FloorPlan`] for floor-dividing by `d` at `width` bits.
    ///
    /// # Errors
    ///
    /// As [`udiv`](Self::udiv), with `d` read as an `iN`.
    pub fn floor(&self, d: i128, width: u32) -> Result<FloorPlan, Fault> {
        self.lookup(d as u128, width)
    }

    /// Cached unsigned [`ExactPlan`] for exact division by `d`.
    ///
    /// # Errors
    ///
    /// As [`udiv`](Self::udiv).
    pub fn exact_unsigned(&self, d: u128, width: u32) -> Result<ExactPlan, Fault> {
        self.lookup(d, width)
    }

    /// Cached [`DwordPlan`] for doubleword division by `d`.
    ///
    /// # Errors
    ///
    /// As [`udiv`](Self::udiv).
    pub fn dword(&self, d: u128, width: u32) -> Result<DwordPlan, Fault> {
        self.lookup(d, width)
    }

    /// Lifetime counters: the shards' counts summed, a poisoned shard's
    /// read through its lock all the same (each count is a whole `u64`
    /// increment, so a panicked writer leaves none half-updated).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            lock_poisoned: self.lock_poisoned.load(Ordering::Relaxed),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            total.hits += shard.stats.hits;
            total.misses += shard.stats.misses;
            total.poisoned += shard.stats.poisoned;
            total.evictions += shard.stats.evictions;
        }
        total
    }

    /// Live entries across all healthy shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .filter_map(|s| s.lock().ok())
            .map(|s| s.map.len())
            .sum()
    }

    /// `true` when no healthy shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry in every healthy shard (poisoned shards are
    /// left alone — they are bypassed anyway). The lifetime counters
    /// keep counting.
    pub fn clear(&self) {
        for shard in &self.shards {
            if let Ok(mut shard) = shard.lock() {
                shard.clear();
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
            if let Ok(shard) = shard.lock() {
                for entry in shard.map.values() {
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
    fn udiv_shard(&self, d: u128, width: u32) -> (CacheKey, &Mutex<Shard>) {
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
        let Ok(mut shard) = shard.lock() else {
            return false;
        };
        let Some(entry) = shard.map.get_mut(&key) else {
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
            let _guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            // Unwinding through `_guard` marks the mutex poisoned.
            std::panic::panic_any(ChaosLockPoison);
        }));
        shard.lock().is_err()
    }
}

/// Panic payload [`PlanCache::chaos_poison_lock_udiv`] unwinds with, so
/// an escaped injection is identifiable (a panic hook can silence this
/// payload and pass every other panic on).
pub struct ChaosLockPoison;

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

    /// Live keys of every shard, and the longest insertion queue.
    fn live_keys(cache: &PlanCache) -> (Vec<Vec<u128>>, usize) {
        let mut longest = 0;
        let keys = cache
            .shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("healthy shard");
                longest = longest.max(shard.fifo.len());
                let mut keys: Vec<u128> = shard.map.keys().map(|k| k.d_bits).collect();
                keys.sort_unstable();
                keys
            })
            .collect();
        (keys, longest)
    }

    /// A seeded stream of udiv lookups over 96 keys, with interleaved
    /// entry poisonings and clears, against a model in which each shard
    /// maps key → stamp and evicts its minimum stamp when full. After
    /// every step the live keys must agree and every queue must hold at
    /// most twice the per-shard capacity.
    #[test]
    fn fifo_eviction_matches_the_minimum_stamp_model() {
        let cache = PlanCache::new(64); // 4 entries per shard
        let cap = 4;
        let mut model: Vec<HashMap<u128, u64>> = vec![HashMap::new(); SHARDS];
        let mut corrupt = std::collections::HashSet::new();
        let (mut stamp, mut poisoned, mut evictions) = (0u64, 0u64, 0u64);
        let mut rng = 0x5eed_u64;
        for step in 0..20_000 {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (roll, d) = ((rng >> 33) % 100, (rng >> 45) % 96 + 1);
            let d = u128::from(d);
            let shard = PlanCache::shard_index(&CacheKey {
                shape: PlanShape::Udiv,
                width: 32,
                d_bits: d,
            });
            let m = &mut model[shard];
            if roll == 0 {
                cache.clear();
                model.iter_mut().for_each(HashMap::clear);
                corrupt.clear();
            } else if roll < 15 {
                // A corrupt entry stays live, with its stamp, until its
                // next lookup removes it and inserts it afresh. The
                // injection flips one bit, so a second one repairs it.
                assert_eq!(cache.chaos_corrupt_udiv(d, 32), m.contains_key(&d));
                if m.contains_key(&d) && !corrupt.remove(&d) {
                    corrupt.insert(d);
                }
            } else {
                cache.udiv(d, 32).expect("plan");
                if corrupt.remove(&d) && m.remove(&d).is_some() {
                    poisoned += 1;
                }
                if !m.contains_key(&d) {
                    if m.len() >= cap {
                        let oldest = *m.iter().min_by_key(|(_, s)| **s).expect("full").0;
                        m.remove(&oldest);
                        corrupt.remove(&oldest);
                        evictions += 1;
                    }
                    m.insert(d, stamp);
                    stamp += 1;
                }
            }
            let (live, longest) = live_keys(&cache);
            let want: Vec<Vec<u128>> = model
                .iter()
                .map(|m| {
                    let mut keys: Vec<u128> = m.keys().copied().collect();
                    keys.sort_unstable();
                    keys
                })
                .collect();
            assert_eq!(live, want, "step {step}");
            assert!(longest <= 2 * cap, "step {step}: queue of {longest}");
        }
        assert_eq!(core::mem::size_of::<Queued>(), 32);
        let stats = cache.stats();
        assert_eq!((stats.poisoned, stats.evictions), (poisoned, evictions));
        assert!(poisoned > 200 && evictions > 1000, "{stats:?}");
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
        assert_eq!(s.hits + s.misses, 4 * 99);
    }

    /// The lifetime counters are exact: `clear` keeps them, the counts of
    /// a shard whose lock is later poisoned still show, and a lookup
    /// that bypasses the poisoned lock counts only as `lock_poisoned`.
    #[test]
    fn counters_survive_clear_and_lock_poisoning() {
        let cache = PlanCache::new(64);
        for _ in 0..3 {
            cache.udiv(10, 32).expect("plan");
        }
        cache.clear();
        cache.udiv(10, 32).expect("plan");
        let before = cache.stats();
        let counted = CacheStats {
            hits: 2,
            misses: 2,
            ..CacheStats::default()
        };
        assert_eq!(before, counted);
        assert!(cache.chaos_poison_lock_udiv(10, 32));
        for _ in 0..5 {
            cache.udiv(10, 32).expect("bypass build");
        }
        let bypassed = CacheStats {
            lock_poisoned: 5,
            ..before
        };
        assert_eq!(cache.stats(), bypassed);
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

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        use crate::testkit::flip_constant;
        let mut flips = 0u32;
        for width in [16u32, 32, 64] {
            for d in [3u128, 7, 10, 641] {
                let plans: [DivPlan; 5] = [
                    UdivPlan::new(d, width).expect("plan").into(),
                    SdivPlan::new(d as i128, width).expect("plan").into(),
                    FloorPlan::new(d as i128, width).expect("plan").into(),
                    ExactPlan::new_unsigned(d, width).expect("plan").into(),
                    DwordPlan::new(d, width).expect("plan").into(),
                ];
                for plan in plans {
                    let sum = plan_checksum(&plan);
                    for field in 0..5 {
                        for bit in 0..width {
                            let Some(bad) = flip_constant(plan, field, bit) else {
                                continue;
                            };
                            assert_ne!(
                                plan_checksum(&bad),
                                sum,
                                "{plan:?} field {field} bit {bit}"
                            );
                            flips += 1;
                        }
                    }
                }
            }
        }
        // Every family has a divisor and a multiplier-sized constant at
        // every (width, d): at least two full-width fields per plan.
        assert!(flips >= 3 * 4 * 5 * 2 * 16, "flips={flips}");
    }

    #[test]
    fn udiv_keys_spread_over_every_shard() {
        for width in [32u32, 64] {
            let mut per_shard = [0usize; SHARDS];
            for d in 1..=1024u128 {
                per_shard[PlanCache::shard_index(&CacheKey {
                    shape: PlanShape::Udiv,
                    width,
                    d_bits: d,
                })] += 1;
            }
            let mean = 1024 / SHARDS;
            assert!(
                per_shard.iter().all(|&n| n > 0 && n <= 2 * mean),
                "w{width}: {per_shard:?}"
            );
        }
    }

    #[test]
    fn invalid_keys_are_typed_cache_faults_and_never_cached() {
        let cache = PlanCache::new(64);
        let fault = |kind| Err((FaultLayer::Cache, kind));
        let out_of_range = |d: i128, signed, width| {
            fault(FaultKind::DivisorOutOfRange {
                d_bits: d as u128,
                signed,
                width,
            })
        };
        // Every accessor at (d, width), as (layer, kind) on failure.
        let lookups = |d: i128, width: u32| {
            [
                cache.udiv(d as u128, width).map(|_| ()),
                cache.sdiv(d, width).map(|_| ()),
                cache.floor(d, width).map(|_| ()),
                cache.exact_unsigned(d as u128, width).map(|_| ()),
                cache.dword(d as u128, width).map(|_| ()),
            ]
            .map(|r| r.map_err(|f| (f.layer, f.kind)))
        };
        for width in [0u32, 65, 129] {
            for got in lookups(3, width) {
                assert_eq!(got, fault(FaultKind::UnsupportedWidth { width }));
            }
        }
        for width in [16u32, 32, 64] {
            let d = 1i128 << width;
            let [u, s, f, x, w] = lookups(d, width);
            for got in [u, x, w] {
                assert_eq!(got, out_of_range(d, false, width));
            }
            for got in [s, f] {
                assert_eq!(got, out_of_range(d, true, width));
            }
            // Signed: one past each end of iN; both ends themselves fit.
            let half = 1i128 << (width - 1);
            for d in [half, -half - 1] {
                for got in [
                    cache.sdiv(d, width).map(|_| ()),
                    cache.floor(d, width).map(|_| ()),
                ] {
                    let got = got.map_err(|f| (f.layer, f.kind));
                    assert_eq!(got, out_of_range(d, true, width));
                }
            }
            assert!(cache.sdiv(half - 1, width).is_ok());
            assert!(cache.floor(-half, width).is_ok());
        }
        assert_eq!(cache.len(), 6, "only the in-range signed keys are cached");
    }
}
