//! The guarded division service, end to end.
//!
//! The guard's contract has three clauses, each pinned here:
//!
//! 1. **Verified**: construction probes a plan against native division
//!    and refuses corrupt constants with a typed fault.
//! 2. **Hardened**: a corrupt plan that slips past the probe (or is
//!    corrupted *after* construction) is caught by the sampled runtime
//!    cross-check; the caller receives the native quotient and the
//!    divisor demotes to the hardware path.
//! 3. **Demoted**: once demoted — or once the process-wide fault
//!    budget trips the circuit breaker — every quotient comes from
//!    hardware division, bit-for-bit, for every divisor family. The
//!    differential sweep below runs over the mutation corpus's
//!    divisor/witness set (the "oracle corpus"), so the guarantee is
//!    checked on exactly the inputs that have broken this codebase
//!    before.
//!
//! The global fault budget is process-wide state; tests that depend on
//! the circuit's position serialize on [`BUDGET_LOCK`].

use std::sync::Mutex;

use magicdiv::plan::UdivPlan;
use magicdiv::{
    fault_budget, DWord, DwordDivisor, ExactUnsignedDivisor, Fault, FaultKind, FloorDivisor,
    GuardPolicy, GuardState, GuardedDwordDivisor, GuardedExactDivisor, GuardedFloorDivisor,
    GuardedSignedDivisor, GuardedUnsignedDivisor, PlanCache, SignedDivisor, UWord, UnsignedDivisor,
};
use magicdiv_bench::{corrupt_udiv_plan, default_corpus_dir, read_corpus};

/// Serializes tests that read or move the global circuit breaker.
static BUDGET_LOCK: Mutex<()> = Mutex::new(());

fn width_mask(width: u32) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

// --- clause 1: the probe refuses corrupt constants ---

fn probe_catches_or_hardening_contains<T: UWord>(d: u64, bit: u32) {
    let width = T::BITS;
    let good = UdivPlan::new(d as u128, width).expect("plan for nonzero divisor");
    let bad = corrupt_udiv_plan(&good, bit);
    match GuardedUnsignedDivisor::<T>::from_plan(&bad, &GuardPolicy::hardened(1)) {
        Err(fault) => {
            assert!(
                matches!(fault.kind, FaultKind::SelfCheckFailed { .. }),
                "probe rejection must be SelfCheckFailed, got {fault}"
            );
        }
        Ok(guarded) => {
            // The probe passed, so either the flip was semantically
            // harmless or its error set is sparse; hardening must keep
            // every served quotient equal to hardware regardless.
            let m = width_mask(width);
            for n in [0u64, 1, 2, d - 1, d, d + 1, m >> 1, m - 1, m] {
                let n = n & m;
                let q = guarded.divide(T::from_u128_truncate(n as u128));
                assert_eq!(q.to_u128(), (n / d) as u128, "d={d} bit={bit} n={n}");
            }
        }
    }
}

#[test]
fn probe_rejects_corrupted_plans_across_widths() {
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for d in [3u64, 7, 10, 641, 60_000] {
        for bit in 0..16 {
            probe_catches_or_hardening_contains::<u16>(d, bit);
        }
    }
    for d in [3u64, 7, 10, 641, 1_000_000] {
        for bit in 0..32 {
            probe_catches_or_hardening_contains::<u32>(d, bit);
        }
    }
    for d in [3u64, 7, 10, 641, u64::MAX / 3] {
        for bit in (0..64).step_by(3) {
            probe_catches_or_hardening_contains::<u64>(d, bit);
        }
    }
}

// --- clauses 2 & 3: demotion, then hardware parity on the oracle corpus ---

/// Forces a live corruption past construction, drives the divisor to
/// demotion, and pins every quotient — before, at, and after the
/// demotion point — to hardware division over `inputs`.
fn demoted_output_matches_hardware<T: UWord>(d: u64, inputs: &[u64]) {
    let width = T::BITS;
    let m = width_mask(width);
    let d = d & m;
    if d == 0 {
        return;
    }
    let good = UdivPlan::new(d as u128, width).expect("plan for nonzero divisor");
    // Some single-bit flips are semantically harmless; scan until one
    // actually bites (demotes). The planner always uses multiplier
    // strategies with live high bits for non-power-of-two divisors, so
    // the scan terminates long before the width runs out.
    let mut demoted = false;
    for bit in (0..width).rev() {
        let bad = corrupt_udiv_plan(&good, bit);
        let guarded =
            GuardedUnsignedDivisor::<T>::from_plan_unprobed(&bad, &GuardPolicy::hardened(1));
        for &n in inputs {
            let n = n & m;
            let q = guarded.divide(T::from_u128_truncate(n as u128));
            assert_eq!(
                q.to_u128(),
                (n / d) as u128,
                "guarded quotient diverged from hardware: d={d} bit={bit} n={n}"
            );
        }
        if guarded.state() == GuardState::Demoted {
            demoted = true;
            break;
        }
    }
    assert!(demoted, "no bit flip demoted d={d} at width {width}");
}

#[test]
fn post_demotion_output_pins_hardware_on_the_oracle_corpus() {
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let entries = read_corpus(&default_corpus_dir()).expect("corpus is readable");
    assert!(!entries.is_empty(), "oracle corpus must not be empty");
    for (_path, entry) in entries {
        let case = entry.case;
        // Drive each corpus case's divisor and witness input (plus the
        // case's directed boundary inputs) through a demoted guard.
        let mut inputs = case.directed_inputs();
        inputs.push(entry.n);
        match case.width {
            16 => demoted_output_matches_hardware::<u16>(case.d, &inputs),
            32 => demoted_output_matches_hardware::<u32>(case.d, &inputs),
            64 => demoted_output_matches_hardware::<u64>(case.d, &inputs),
            other => panic!("corpus case at unexpected width {other}"),
        }
    }
}

// --- clause 3: the circuit breaker degrades every family to hardware ---

#[test]
fn circuit_breaker_degrades_every_family_to_hardware() {
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let budget = fault_budget();
    let saved = budget.limit();
    budget.reset();
    budget.set_limit(0); // trip the breaker immediately

    // The breaker reports as a typed fault...
    let fault: Fault = budget.check().expect_err("breaker must be open");
    assert!(matches!(fault.kind, FaultKind::FaultBudgetExhausted { .. }));

    // ...and every guarded family constructs straight into Demoted,
    // serving hardware quotients.
    let gu = GuardedUnsignedDivisor::<u32>::new(7).expect("nonzero");
    assert_eq!(gu.state(), GuardState::Demoted);
    let gs = GuardedSignedDivisor::<i32>::new(-7).expect("nonzero");
    assert_eq!(gs.state(), GuardState::Demoted);
    let gf = GuardedFloorDivisor::<i32>::new(-7).expect("nonzero");
    assert_eq!(gf.state(), GuardState::Demoted);
    let ge = GuardedExactDivisor::<u32>::new(12).expect("nonzero");
    assert_eq!(ge.state(), GuardState::Demoted);
    let gd = GuardedDwordDivisor::<u32>::new(10).expect("nonzero");
    assert_eq!(gd.state(), GuardState::Demoted);

    for n in [
        0i64,
        1,
        -1,
        6,
        -6,
        7,
        -7,
        100,
        -100,
        i32::MAX as i64,
        i32::MIN as i64,
    ] {
        let ni = n as i32;
        if n >= 0 {
            let nu = n as u32;
            assert_eq!(gu.divide(nu), nu / 7);
            assert_eq!(ge.divides(nu), nu.is_multiple_of(12));
        }
        assert_eq!(gs.divide(ni), ni.wrapping_div(-7));
        // floor(n / -7), computed the long way in i64 so nothing wraps.
        let (q, r) = (ni as i64 / -7, ni as i64 % -7);
        let floor = if r != 0 && (r < 0) != (-7 < 0) {
            q - 1
        } else {
            q
        };
        assert_eq!(gf.divide(ni) as i64, floor, "floor d=-7 n={ni}");
    }
    for q in [0u32, 1, 5, u32::MAX / 12] {
        assert_eq!(ge.divide_exact(q * 12), q);
    }
    for (hi, lo) in [(0u32, 0u32), (0, 99), (3, 123_456_789), (9, u32::MAX)] {
        let n = DWord::from_parts(hi, lo);
        let wide = ((hi as u64) << 32) | lo as u64;
        let (q, r) = gd.div_rem(n).expect("hi < d");
        assert_eq!((q as u64, r as u64), (wide / 10, wide % 10));
    }

    budget.reset();
    budget.set_limit(saved);
}

// --- the plan cache in front of the constructors ---

#[test]
fn plan_cache_recovers_from_poisoning_and_serves_working_divisors() {
    let cache = PlanCache::new(64);

    // Divisors built through the cache divide exactly like divisors
    // built directly.
    for d in [1u32, 2, 3, 7, 10, 641, u32::MAX] {
        let cached = UnsignedDivisor::from_plan(&cache.udiv(d.into(), 32).expect("nonzero"));
        let direct = UnsignedDivisor::new(d).expect("nonzero");
        for n in [0u32, 1, d.wrapping_sub(1), d, u32::MAX] {
            assert_eq!(cached.divide(n), direct.divide(n));
        }
    }
    for d in [-7i32, 3, 127] {
        let cached = SignedDivisor::from_plan(&cache.sdiv(d.into(), 32).expect("nonzero"));
        let direct = SignedDivisor::new(d).expect("nonzero");
        for n in [i32::MIN, -100, -1, 0, 1, 100, i32::MAX] {
            assert_eq!(cached.divide(n), direct.divide(n));
        }
        let cached = FloorDivisor::from_plan(&cache.floor(d.into(), 32).expect("nonzero"));
        let direct = FloorDivisor::new(d).expect("nonzero");
        for n in [i32::MIN, -100, -1, 0, 1, 100, i32::MAX] {
            assert_eq!(cached.divide(n), direct.divide(n));
        }
    }
    let before = cache.stats();
    assert!(before.hits + before.misses > 0);

    // Poison an entry in place: the checksum walk detects it, evicts,
    // rebuilds, and the rebuilt divisor still divides correctly.
    assert!(cache.chaos_corrupt_udiv(7, 32));
    assert!(
        cache.check_integrity().is_err(),
        "corruption must be visible"
    );
    let rebuilt = UnsignedDivisor::<u32>::from_plan(&cache.udiv(7, 32).expect("nonzero"));
    assert_eq!(cache.stats().poisoned, before.poisoned + 1);
    for n in [0u32, 6, 7, 48, 49, u32::MAX] {
        assert_eq!(rebuilt.divide(n), n / 7);
    }
    assert!(
        cache.check_integrity().is_ok(),
        "cache healthy after rebuild"
    );

    // Poison a shard lock: lookups bypass the cache but stay correct.
    assert!(cache.chaos_poison_lock_udiv(10, 32));
    let bypassed = UnsignedDivisor::<u32>::from_plan(&cache.udiv(10, 32).expect("nonzero"));
    assert!(cache.stats().lock_poisoned > 0);
    for n in [0u32, 9, 10, 101, u32::MAX] {
        assert_eq!(bypassed.divide(n), n / 10);
    }

    // Zero stays a typed fault through the cache path too.
    let fault = cache.udiv(0, 32).expect_err("zero divisor");
    assert_eq!(fault.kind, FaultKind::DivideByZero);
}

#[test]
fn exact_divisor_family_survives_cache_round_trip() {
    let cache = PlanCache::new(16);
    for d in [3u64, 12, 1 << 20] {
        let plan = cache.exact_unsigned(d as u128, 64).expect("nonzero");
        let ex = ExactUnsignedDivisor::<u64>::from_plan(&plan);
        for q in [0u64, 1, 99, u64::MAX / d] {
            assert_eq!(ex.divide_exact(q * d), q);
        }
    }
    let dd = DwordDivisor::<u16>::from_plan(&cache.dword(9, 16).expect("nonzero"));
    let (q, r) = dd.div_rem(DWord::from_parts(4u16, 321u16)).expect("hi < d");
    let wide = (4u32 << 16) | 321;
    assert_eq!((q as u32, r as u32), (wide / 9, wide % 9));
}
