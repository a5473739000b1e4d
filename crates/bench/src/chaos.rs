//! # Chaos fault injection for the guarded division service
//!
//! Deterministic, seeded fault-injection campaign exercising every
//! defensive layer added by the guarded service:
//!
//! | Scenario | Injection | Expected reaction |
//! |---|---|---|
//! | `plan-bit-flip-probe` | flip one bit of a live plan constant, construct *probed* | probe rejects ([`FaultKind::SelfCheckFailed`]) or hardened checks demote |
//! | `plan-bit-flip-live` | same flip, construct *unprobed* at `sample_every = 1` | first wrong quotient is caught, native result served, divisor demoted |
//! | `cache-poisoning` | corrupt a cached plan's constants in place | checksum mismatch → evict, rebuild, `cache.poisoned` counter |
//! | `lock-poisoning` | panic a writer while holding a cache shard lock | shard bypassed, plans rebuilt fresh, `cache.lock_poisoned` counter |
//! | `fuel-exhaustion` | evaluate real kernels with a 1-step IR fuel / 3-step asm budget | typed [`FaultKind::StepLimit`] instead of a hang |
//! | `forced-demotion` | demote until the process [`FaultBudget`] trips | circuit opens, constructors degrade to hardware, typed [`FaultKind::FaultBudgetExhausted`] |
//!
//! Every injected fault must end in one of three outcome columns:
//! **detected & degraded** (the service noticed and served a correct
//! result anyway), **typed fault** (the service refused with a
//! [`Fault`]), or **harmless** (the flipped bit provably never changes
//! an output — verified by a differential sweep). The fourth column,
//! **silently wrong**, is the one the whole exercise exists to keep at
//! zero: a quotient served to the caller that disagrees with hardware
//! division.
//!
//! The campaign is seeded ([`SplitMix`]) and emits a timestamp-free
//! JSON report, so two runs at the same seed are byte-identical:
//! `scripts/check.sh` diffs one against the committed
//! `results/chaos.json`, and the `drift` bin compares two saved reports
//! counter by counter.
//!
//! [`FaultBudget`]: magicdiv::FaultBudget

use magicdiv::plan::UdivPlan;
use magicdiv::{
    fault_budget, Fault, FaultKind, GuardPolicy, GuardState, GuardedUnsignedDivisor, PlanCache,
    UWord,
};
use magicdiv_codegen::{emit_radix_loop, execute_radix_listing_with_limit, AsmErrorKind, Target};
use magicdiv_ir::{mask, EvalOptions};
use std::sync::{Mutex, PoisonError};

use crate::diff::{Case, Shape, SplitMix};
use crate::runmeta::git_sha;
use crate::CorpusEntry;

/// Widths the campaign sweeps. Every scenario class runs at each width
/// it supports, so the acceptance bar (≥ 5 fault classes × ≥ 3 widths)
/// is met structurally, not by accident.
pub const CHAOS_WIDTHS: [u32; 3] = [16, 32, 64];

/// Default seed for the fixed-seed smoke gate in `scripts/check.sh`.
pub const DEFAULT_CHAOS_SEED: u64 = 0xC4A0_5D1F;

/// Default number of rounds per (scenario, width) pair.
pub const DEFAULT_CHAOS_ROUNDS: u32 = 8;

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// SplitMix seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Rounds per (scenario, width) pair.
    pub rounds: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: DEFAULT_CHAOS_SEED,
            rounds: DEFAULT_CHAOS_ROUNDS,
        }
    }
}

/// Outcome tallies for one (scenario, width) cell.
#[derive(Debug, Clone)]
pub struct ScenarioTally {
    /// Scenario class name (stable across runs; keys the drift diff).
    pub name: &'static str,
    /// Operand width in bits.
    pub width: u32,
    /// Faults injected.
    pub injected: u64,
    /// Faults the service caught and degraded around, still returning
    /// correct results.
    pub detected_degraded: u64,
    /// Faults surfaced as a typed [`Fault`] (refused, not mis-served).
    pub typed_faults: u64,
    /// Injections that provably never change an output (differential
    /// sweep found no divergence and no guard reaction was required).
    pub harmless: u64,
    /// Wrong quotients served without any error signal. Must be zero.
    pub silent_wrong: u64,
}

impl ScenarioTally {
    fn new(name: &'static str, width: u32) -> Self {
        ScenarioTally {
            name,
            width,
            injected: 0,
            detected_degraded: 0,
            typed_faults: 0,
            harmless: 0,
            silent_wrong: 0,
        }
    }
}

/// Full campaign report. Top-level counter names match the drift
/// layer's chaos counter set, so two saved reports diff cleanly.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Seed the campaign ran with.
    pub seed: u64,
    /// Rounds per (scenario, width) pair.
    pub rounds: u32,
    /// Per-(scenario, width) tallies.
    pub scenarios: Vec<ScenarioTally>,
    /// Guard demotions observed across the campaign.
    pub guard_demotions: u64,
    /// Cache entries detected as poisoned (checksum mismatch).
    pub cache_poisoned: u64,
    /// Cache shard locks found poisoned and bypassed.
    pub cache_lock_poisoned: u64,
    /// Reproducers for any silently wrong quotient, in the corpus
    /// entry format so `tests/corpus_replay.rs` can replay them. Empty
    /// on a healthy run; otherwise the JSON report lists them as
    /// `repros`.
    pub repros: Vec<CorpusEntry>,
}

impl ChaosReport {
    /// Total faults injected.
    pub fn injected(&self) -> u64 {
        self.scenarios.iter().map(|s| s.injected).sum()
    }

    /// Total faults detected and degraded around.
    pub fn detected_degraded(&self) -> u64 {
        self.scenarios.iter().map(|s| s.detected_degraded).sum()
    }

    /// Total faults surfaced as typed errors.
    pub fn typed_faults(&self) -> u64 {
        self.scenarios.iter().map(|s| s.typed_faults).sum()
    }

    /// Total provably-harmless injections.
    pub fn harmless(&self) -> u64 {
        self.scenarios.iter().map(|s| s.harmless).sum()
    }

    /// Total silently wrong quotients. The gate: must be zero.
    pub fn silent_wrong(&self) -> u64 {
        self.scenarios.iter().map(|s| s.silent_wrong).sum()
    }

    /// Renders the deterministic JSON report (no timestamps, no
    /// durations): same seed → byte-identical output. Top-level keys
    /// `injected` / `detected_degraded` / `typed_faults` /
    /// `silent_wrong` / `guard_demotions` / `cache_poisoned` /
    /// `cache_lock_poisoned` are the drift layer's chaos counters. A
    /// `repros` array of corpus lines follows them only when a quotient
    /// was silently wrong, so a healthy report does not carry the key.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str("  \"kind\": \"chaos\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"rounds\": {},\n", self.rounds));
        out.push_str(&format!("  \"git_sha\": \"{}\",\n", git_sha()));
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"width\": {}, \"injected\": {}, \
                 \"detected_degraded\": {}, \"typed_faults\": {}, \
                 \"harmless\": {}, \"silent_wrong\": {}}}{}\n",
                s.name,
                s.width,
                s.injected,
                s.detected_degraded,
                s.typed_faults,
                s.harmless,
                s.silent_wrong,
                if i + 1 == self.scenarios.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"injected\": {},\n", self.injected()));
        out.push_str(&format!(
            "  \"detected_degraded\": {},\n",
            self.detected_degraded()
        ));
        out.push_str(&format!("  \"typed_faults\": {},\n", self.typed_faults()));
        out.push_str(&format!("  \"harmless\": {},\n", self.harmless()));
        out.push_str(&format!("  \"silent_wrong\": {},\n", self.silent_wrong()));
        out.push_str(&format!(
            "  \"guard_demotions\": {},\n",
            self.guard_demotions
        ));
        out.push_str(&format!("  \"cache_poisoned\": {},\n", self.cache_poisoned));
        out.push_str(&format!(
            "  \"cache_lock_poisoned\": {}",
            self.cache_lock_poisoned
        ));
        if !self.repros.is_empty() {
            let lines: Vec<String> = self.repros.iter().map(|r| format!("\"{r}\"")).collect();
            out.push_str(&format!(",\n  \"repros\": [{}]", lines.join(", ")));
        }
        out.push_str("\n}\n");
        out
    }

    /// Renders the human-readable summary table.
    pub fn render_text(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .scenarios
            .iter()
            .map(|s| {
                vec![
                    s.name.to_string(),
                    format!("w{}", s.width),
                    s.injected.to_string(),
                    s.detected_degraded.to_string(),
                    s.typed_faults.to_string(),
                    s.harmless.to_string(),
                    s.silent_wrong.to_string(),
                ]
            })
            .collect();
        let mut out = crate::render_table(
            &[
                "scenario",
                "width",
                "injected",
                "detected+degraded",
                "typed fault",
                "harmless",
                "SILENT WRONG",
            ],
            &rows,
        );
        out.push('\n');
        out.push_str(&format!(
            "seed 0x{:x}  rounds {}  injected {}  detected+degraded {}  typed {}  harmless {}\n",
            self.seed,
            self.rounds,
            self.injected(),
            self.detected_degraded(),
            self.typed_faults(),
            self.harmless(),
        ));
        out.push_str(&format!(
            "guard demotions {}  cache poisoned {}  cache locks poisoned {}\n",
            self.guard_demotions, self.cache_poisoned, self.cache_lock_poisoned,
        ));
        out.push_str(&format!(
            "silently wrong quotients: {}{}\n",
            self.silent_wrong(),
            if self.silent_wrong() == 0 {
                "  (every injected fault was detected, degraded, or typed)"
            } else {
                "  *** CHAOS GATE FAILURE ***"
            },
        ));
        out
    }
}

/// Flips one semantic bit in a `UdivPlan`'s strategy constants,
/// whatever strategy the planner tournament picked. `bit` is reduced
/// modulo the plan width so the flip always lands in a constant bit
/// that survives lowering into the target word type (multiplier
/// constants live in the low `width + 1` bits; anything above is
/// truncated away by `from_plan` and the injection would be a no-op).
pub fn corrupt_udiv_plan(plan: &UdivPlan, bit: u32) -> UdivPlan {
    plan.flip_bit(bit % plan.width())
}

fn random_divisor(rng: &mut SplitMix, width: u32) -> u64 {
    let m = mask(width);
    let d = rng.next_u64() & m;
    if d < 2 {
        3
    } else {
        d
    }
}

/// Sweep inputs: a boundary set plus seeded random dividends.
fn sweep_inputs(rng: &mut SplitMix, width: u32, count: usize) -> Vec<u64> {
    let m = mask(width);
    let mut ns = vec![0, 1, 2, m, m - 1, m >> 1, (m >> 1) + 1];
    while ns.len() < count {
        ns.push(rng.next_u64() & m);
    }
    ns
}

/// Scenario A/B core, monomorphised per width: flip a plan bit, then
/// drive the guarded divisor and classify what happened.
///
/// `probed` selects construction through the self-verification probe
/// (scenario A) or the unprobed back door that forces the corrupt plan
/// live (scenario B — models corruption *after* construction, e.g. a
/// bit-flip in resident plan memory).
fn run_bit_flip<T: UWord>(
    rng: &mut SplitMix,
    probed: bool,
    tally: &mut ScenarioTally,
    demotions: &mut u64,
    repros: &mut Vec<CorpusEntry>,
) {
    let width = T::BITS;
    let d = random_divisor(rng, width);
    let good = match UdivPlan::new(d as u128, width) {
        Ok(p) => p,
        Err(_) => return,
    };
    let bad = corrupt_udiv_plan(&good, rng.next_u64() as u32);
    tally.injected += 1;
    // Hardened at sample_every = 1: every quotient is cross-checked, so
    // a corrupt plan can degrade but never mis-serve.
    let policy = GuardPolicy::hardened(1);
    let guarded = if probed {
        match GuardedUnsignedDivisor::<T>::from_plan(&bad, &policy) {
            Ok(g) => g,
            Err(f) => {
                // The probe caught the corruption at construction time.
                if matches!(f.kind, FaultKind::SelfCheckFailed { .. }) {
                    tally.typed_faults += 1;
                } else {
                    tally.silent_wrong += 1; // wrong *kind* of failure
                }
                return;
            }
        }
    } else {
        match GuardedUnsignedDivisor::<T>::from_plan_unprobed(&bad, &policy) {
            Ok(g) => g,
            Err(_) => {
                // Refused: a plan the kernel does not run.
                tally.typed_faults += 1;
                return;
            }
        }
    };
    let mut wrong = false;
    for n in sweep_inputs(rng, width, 24) {
        let nt = T::from_u128_truncate(n as u128);
        let q = guarded.divide(nt);
        let native = n.checked_div(d).unwrap_or(0);
        if q.to_u128() != native as u128 {
            wrong = true;
            repros.push(CorpusEntry {
                case: Case::new(Shape::Udiv, width, d),
                mutation: None,
                n,
            });
        }
    }
    if wrong {
        tally.silent_wrong += 1;
    } else if guarded.state() == GuardState::Demoted {
        // The corruption produced at least one wrong raw quotient; the
        // hardened check caught it, served the native result, and fell
        // back to hardware for the rest of the sweep.
        tally.detected_degraded += 1;
        *demotions += 1;
    } else {
        // The flipped bit never changed an output across the sweep
        // (e.g. a low multiplier bit whose error is swallowed by the
        // post-shift): nothing to detect, nothing served wrong.
        tally.harmless += 1;
    }
}

/// Scenario C: corrupt a cached plan's constants in place and verify
/// the checksum walk detects it, evicts, and rebuilds correctly.
fn run_cache_poisoning(
    rng: &mut SplitMix,
    cache: &PlanCache,
    width: u32,
    tally: &mut ScenarioTally,
) {
    let d = random_divisor(rng, width);
    let good = match cache.udiv(d as u128, width) {
        Ok(p) => p,
        Err(_) => return,
    };
    if !cache.chaos_corrupt_udiv(d as u128, width) {
        return;
    }
    tally.injected += 1;
    let before = cache.stats().poisoned;
    match cache.udiv(d as u128, width) {
        Ok(rebuilt) if rebuilt == good && cache.stats().poisoned > before => {
            tally.detected_degraded += 1;
        }
        Ok(_) => tally.silent_wrong += 1,
        Err(_) => tally.typed_faults += 1,
    }
}

/// Scenario D: poison a shard lock via a panicking writer and verify
/// lookups degrade to cache-bypass with correct plans.
fn run_lock_poisoning(
    rng: &mut SplitMix,
    cache: &PlanCache,
    width: u32,
    tally: &mut ScenarioTally,
) {
    let d = random_divisor(rng, width);
    let good = match UdivPlan::new(d as u128, width) {
        Ok(p) => p,
        Err(_) => return,
    };
    if !cache.chaos_poison_lock_udiv(d as u128, width) {
        return;
    }
    tally.injected += 1;
    let before = cache.stats().lock_poisoned;
    match cache.udiv(d as u128, width) {
        Ok(p) if p == good && cache.stats().lock_poisoned > before => {
            tally.detected_degraded += 1;
        }
        Ok(_) => tally.silent_wrong += 1,
        Err(_) => tally.typed_faults += 1,
    }
}

/// Scenario E: starve real kernels of interpreter fuel and verify the
/// result is a typed `StepLimit` fault, never a hang or a bad value.
fn run_fuel_exhaustion(rng: &mut SplitMix, width: u32, tally: &mut ScenarioTally) {
    // IR layer: evaluate the planner's own kernel with fuel for a
    // single instruction.
    let d = {
        // Avoid d = 1 / powers of two, whose kernels can be a single op.
        let d = random_divisor(rng, width) | 1;
        if d == 1 {
            3
        } else {
            d
        }
    };
    let case = Case::new(Shape::Udiv, width, d);
    let prog = case.program();
    let n = case.random_input(rng);
    let opts = EvalOptions {
        fuel: Some(1),
        ..EvalOptions::default()
    };
    tally.injected += 1;
    match prog.eval_with(&[n], &opts) {
        Err(e) => {
            let fault = Fault::from(e);
            if matches!(fault.kind, FaultKind::StepLimit { .. }) {
                tally.typed_faults += 1;
            } else {
                tally.silent_wrong += 1;
            }
        }
        // A kernel this small finishing in one step means the budget
        // was never a constraint; the injection did not bite.
        Ok(_) => tally.harmless += 1,
    }
    // Asm layer: run the radix-conversion listing under a 3-step
    // budget (it needs thousands of steps to terminate).
    if width == 32 {
        let asm = emit_radix_loop(Target::Mips, true);
        tally.injected += 1;
        match execute_radix_listing_with_limit(&asm, rng.next_u64() as u32, 3) {
            Err(e) if matches!(e.kind, AsmErrorKind::StepLimit { .. }) => {
                tally.typed_faults += 1;
            }
            Err(_) => tally.silent_wrong += 1,
            Ok(_) => tally.harmless += 1,
        }
    }
}

/// Scenario F: force demotions until the process-wide fault budget
/// trips, then verify the circuit breaker refuses further guarded
/// construction (typed fault) while division itself stays correct.
fn run_forced_demotion(rng: &mut SplitMix, tally: &mut ScenarioTally, demotions: &mut u64) {
    let budget = fault_budget();
    let saved_limit = budget.limit();
    budget.reset();
    budget.set_limit(3);

    // Demote until the budget is spent. (Bounded: a flipped plan is
    // occasionally harmless, so a lucky streak must not spin forever.)
    for _ in 0..10_000 {
        if budget.exhausted() {
            break;
        }
        let d = random_divisor(rng, 32);
        let good = match UdivPlan::new(d as u128, 32) {
            Ok(p) => p,
            Err(_) => continue,
        };
        let bad = corrupt_udiv_plan(&good, rng.next_u64() as u32);
        tally.injected += 1;
        let Ok(g) =
            GuardedUnsignedDivisor::<u32>::from_plan_unprobed(&bad, &GuardPolicy::hardened(1))
        else {
            tally.typed_faults += 1;
            continue;
        };
        let mut wrong = false;
        for n in sweep_inputs(rng, 32, 24) {
            let q = g.divide(n as u32);
            if u64::from(q) != n / d {
                wrong = true;
            }
        }
        if wrong {
            tally.silent_wrong += 1;
        } else if g.state() == GuardState::Demoted {
            tally.detected_degraded += 1;
            *demotions += 1;
        } else {
            tally.harmless += 1;
        }
    }

    // The breaker must now surface as a typed fault...
    tally.injected += 1;
    match budget.check() {
        Err(f) if matches!(f.kind, FaultKind::FaultBudgetExhausted { .. }) => {
            tally.typed_faults += 1;
        }
        _ => tally.silent_wrong += 1,
    }

    // ...and guarded construction of a *healthy* divisor must open in
    // the Demoted state (skip the probe, go straight to hardware) yet
    // still divide correctly.
    tally.injected += 1;
    match GuardedUnsignedDivisor::<u32>::new(1000) {
        Ok(g) if g.state() == GuardState::Demoted => {
            let ok = sweep_inputs(rng, 32, 24)
                .iter()
                .all(|&n| u64::from(g.divide(n as u32)) == n / 1000);
            if ok {
                tally.detected_degraded += 1;
            } else {
                tally.silent_wrong += 1;
            }
        }
        Ok(_) => tally.silent_wrong += 1,
        Err(_) => tally.typed_faults += 1,
    }

    budget.reset();
    budget.set_limit(saved_limit);
}

/// Serializes campaigns: each one resets, trips and restores the
/// process-wide fault budget, so two on different threads would read
/// each other's demotions.
static CAMPAIGN: Mutex<()> = Mutex::new(());

/// Runs the full campaign. Pure function of `cfg`: it holds a
/// process-wide campaign lock for its whole run, so concurrent callers
/// take turns with the global fault budget, which is saved and restored.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    // A campaign that panicked left nothing behind that the next one
    // does not reset, so a poisoned lock is still usable.
    let _campaign = CAMPAIGN.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = SplitMix(cfg.seed);
    let mut scenarios = Vec::new();
    let mut demotions = 0u64;
    let mut repros = Vec::new();

    let budget = fault_budget();
    let saved_limit = budget.limit();
    budget.reset();

    // Guard layer: plan-constant bit flips, probed and live.
    for &w in &CHAOS_WIDTHS {
        let mut probe = ScenarioTally::new("plan-bit-flip-probe", w);
        let mut live = ScenarioTally::new("plan-bit-flip-live", w);
        for _ in 0..cfg.rounds {
            match w {
                16 => {
                    run_bit_flip::<u16>(&mut rng, true, &mut probe, &mut demotions, &mut repros);
                    run_bit_flip::<u16>(&mut rng, false, &mut live, &mut demotions, &mut repros);
                }
                32 => {
                    run_bit_flip::<u32>(&mut rng, true, &mut probe, &mut demotions, &mut repros);
                    run_bit_flip::<u32>(&mut rng, false, &mut live, &mut demotions, &mut repros);
                }
                _ => {
                    run_bit_flip::<u64>(&mut rng, true, &mut probe, &mut demotions, &mut repros);
                    run_bit_flip::<u64>(&mut rng, false, &mut live, &mut demotions, &mut repros);
                }
            }
        }
        scenarios.push(probe);
        scenarios.push(live);
    }

    // Cache layer: entry corruption and lock poisoning against a
    // campaign-local cache (keeps counters deterministic).
    let cache = PlanCache::new(256);
    for &w in &CHAOS_WIDTHS {
        let mut tally = ScenarioTally::new("cache-poisoning", w);
        for _ in 0..cfg.rounds {
            run_cache_poisoning(&mut rng, &cache, w, &mut tally);
        }
        scenarios.push(tally);
    }
    for &w in &CHAOS_WIDTHS {
        let mut tally = ScenarioTally::new("lock-poisoning", w);
        for _ in 0..cfg.rounds {
            run_lock_poisoning(&mut rng, &cache, w, &mut tally);
        }
        scenarios.push(tally);
    }

    // Interpreter layer: fuel exhaustion.
    for &w in &CHAOS_WIDTHS {
        let mut tally = ScenarioTally::new("fuel-exhaustion", w);
        for _ in 0..cfg.rounds {
            run_fuel_exhaustion(&mut rng, w, &mut tally);
        }
        scenarios.push(tally);
    }

    // Circuit breaker: forced demotion until the budget trips.
    let mut tally = ScenarioTally::new("forced-demotion", 32);
    run_forced_demotion(&mut rng, &mut tally, &mut demotions);
    scenarios.push(tally);

    budget.reset();
    budget.set_limit(saved_limit);

    let stats = cache.stats();
    ChaosReport {
        seed: cfg.seed,
        rounds: cfg.rounds,
        scenarios,
        guard_demotions: demotions,
        cache_poisoned: stats.poisoned,
        cache_lock_poisoned: stats.lock_poisoned,
        repros,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_finds_no_silent_wrong_quotients() {
        let report = run_chaos(&ChaosConfig {
            seed: 0x1234_5678,
            rounds: 4,
        });
        assert_eq!(
            report.silent_wrong(),
            0,
            "chaos gate: {:#?}",
            report.scenarios
        );
        assert!(report.repros.is_empty());
        assert!(report.injected() > 0);
        // Every injection landed in exactly one outcome column.
        assert_eq!(
            report.injected(),
            report.detected_degraded() + report.typed_faults() + report.harmless(),
        );
    }

    #[test]
    fn campaign_exercises_all_fault_classes() {
        let report = run_chaos(&ChaosConfig {
            seed: DEFAULT_CHAOS_SEED,
            rounds: 4,
        });
        let mut names: Vec<&str> = report.scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names,
            vec![
                "cache-poisoning",
                "forced-demotion",
                "fuel-exhaustion",
                "lock-poisoning",
                "plan-bit-flip-live",
                "plan-bit-flip-probe",
            ],
        );
        // Cross-check detectors actually fired.
        assert!(report.typed_faults() > 0, "no typed faults observed");
        assert!(report.detected_degraded() > 0, "no detect+degrade observed");
        assert!(report.cache_poisoned > 0, "cache poisoning never detected");
        assert!(
            report.cache_lock_poisoned > 0,
            "lock poisoning never detected"
        );
        assert!(report.guard_demotions > 0, "no demotions recorded");
    }

    #[test]
    fn report_is_deterministic_for_a_fixed_seed() {
        let cfg = ChaosConfig {
            seed: 42,
            rounds: 2,
        };
        let a = run_chaos(&cfg).to_json();
        let b = run_chaos(&cfg).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn report_json_carries_the_drift_counter_keys() {
        let report = run_chaos(&ChaosConfig { seed: 7, rounds: 1 });
        let json = crate::json::parse(&report.to_json()).expect("chaos report parses");
        for key in [
            "injected",
            "detected_degraded",
            "typed_faults",
            "silent_wrong",
            "guard_demotions",
            "cache_poisoned",
            "cache_lock_poisoned",
            "seed",
            "scenarios",
        ] {
            assert!(json.get(key).is_some(), "missing key {key}");
        }
    }

    /// A silently wrong quotient's reproducers are in the JSON report,
    /// one corpus line each; a healthy report has no `repros` key.
    #[test]
    fn report_json_lists_repros_only_when_there_are_any() {
        let mut report = run_chaos(&ChaosConfig { seed: 7, rounds: 1 });
        let healthy = crate::json::parse(&report.to_json()).expect("chaos report parses");
        assert!(healthy.get("repros").is_none());
        report.repros.push(CorpusEntry {
            case: Case::new(Shape::Udiv, 32, 7),
            mutation: None,
            n: 13,
        });
        let json = crate::json::parse(&report.to_json()).expect("chaos report parses");
        let repros = json.get("repros").and_then(|r| r.as_arr()).expect("repros");
        let lines: Vec<&str> = repros.iter().filter_map(|r| r.as_str()).collect();
        assert_eq!(lines, ["udiv w=32 d=7 n=13 mut=-"]);
    }

    #[test]
    fn corrupt_udiv_plan_always_changes_the_plan() {
        for d in [1u128, 2, 3, 7, 10, 641, 65_535] {
            let plan = UdivPlan::new(d, 32).expect("plan");
            for bit in [0u32, 5, 31, 63, 127] {
                assert_ne!(corrupt_udiv_plan(&plan, bit), plan, "d={d} bit={bit}");
            }
        }
    }
}
