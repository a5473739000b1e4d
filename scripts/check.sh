#!/usr/bin/env bash
# Repo gate: formatting, lints, offline dependency audit, tier-1 verify.
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p target

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== panic-freedom gate: no unwrap()/panic! in library or binary code =="
cargo clippy --workspace --lib --bins --offline -- \
    -D warnings -D clippy::unwrap_used -D clippy::panic

echo "== total plan constructors and generators: no assert!/assert_eq!/panic! outside tests =="
# Every plan constructor and code generator returns a typed DivisorError
# for a bad width or divisor; debug_assert! (internal invariants) stays
# allowed.
for file in crates/core/src/plan.rs crates/codegen/src/divgen.rs crates/codegen/src/machine.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$file" | grep -v '^[[:space:]]*//' |
        grep -nE '(^|[^_[:alnum:]])(assert|assert_eq|assert_ne|panic)!'; then
        echo "$file panics in non-test code" >&2
        exit 1
    fi
done

echo "== rustdoc gate (no broken, redundant or private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== offline dependency audit (no registry access) =="
cargo build --release --offline -p magicdiv -p magicdiv-ir \
    -p magicdiv-codegen -p magicdiv-simcpu

echo "== tier-1 verify: cargo build --release && cargo test -q =="
cargo build --release --offline
cargo test -q --offline

echo "== workspace tests: every crate's unit, integration and doc tests =="
cargo test -q --offline --workspace --release

echo "== examples (release; each must run to completion and exit 0) =="
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    cargo run --release --offline --quiet --example "$name" > /dev/null || {
        echo "example $name failed" >&2
        exit 1
    }
done

echo "== exact validity predicates match exhaustive evaluation at width 16 =="
cargo test -q --offline --release -p magicdiv -- --ignored predicates_match_exhaustive_evaluation_w16

echo "== IR lane interpreter matches one-input evaluation at every width-16 input (release) =="
cargo test -q --offline --release -p magicdiv-ir --test eval1 -- --ignored lanes_match_one_input_eval_exhaustive_w16

echo "== exhaustive u8 2-by-1 division step, exact guard verdicts at w16 and w8 (release) =="
cargo test -q --offline --release -p magicdiv-dword -- div_rem_wide
cargo test -q --offline --release -p magicdiv -- \
    probe_verdict_matches_exhaustive_evaluation \
    signed_floor_and_exact_predicates_match_the_kernels_at_w8

echo "== end-to-end benchmark package tests =="
cargo test -q --offline --manifest-path e2ebench/Cargo.toml

echo "== compile_pipeline smoke run (1 s; correct results, exact code_insts) =="
cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml --bin e2e -- \
    --workload compile_pipeline --seed 1 --seconds 1 --trace 0 \
    --out target/e2e_cp_ci.json > /dev/null
grep -q '"correct": true' target/e2e_cp_ci.json || {
    echo "compile_pipeline smoke run did not report correct results" >&2
    exit 1
}
grep -q '"code_insts": {"value": 18185,' target/e2e_cp_ci.json || {
    echo "compile_pipeline code_insts moved from 18185 (emitted code changed)" >&2
    exit 1
}

echo "== differential + mutation harness (fixed seed; corpus replay ran in tier-1) =="
cargo build --release --offline -p magicdiv-bench
./target/release/verify 20000 24029 --no-corpus-write

echo "== explain-plan goldens + trace-event pinning =="
cargo test -q --offline -p magicdiv-bench --test explain_golden
cargo test -q --offline -p magicdiv-simcpu --test trace_events

echo "== tournament goldens + winner drift gate (two same-build runs must agree) =="
cargo test -q --offline -p magicdiv-bench --test tournament_golden
for g in tournament_8_35 tournament_32_7 tournament_64_25; do
    test -s "crates/bench/tests/golden/$g.txt" || {
        echo "missing golden crates/bench/tests/golden/$g.txt" >&2
        echo "regenerate: UPDATE_GOLDEN=1 cargo test -p magicdiv-bench --test tournament_golden" >&2
        exit 1
    }
done

echo "== dword explain snapshots present at every machine width =="
for g in dword_8_10 dword_16_255 dword_32_10 dword_32_4294967295 dword_64_7; do
    test -s "crates/bench/tests/golden/$g.txt" || {
        echo "missing golden crates/bench/tests/golden/$g.txt" >&2
        echo "regenerate: UPDATE_GOLDEN=1 cargo test -p magicdiv-bench --test explain_golden" >&2
        exit 1
    }
done

echo "== remainder & divisibility explain snapshots present =="
for g in urem_32_16 urem_32_10 urem_64_7 divtest_16_8 divtest_32_10 divtest_64_7; do
    test -s "crates/bench/tests/golden/$g.txt" || {
        echo "missing golden crates/bench/tests/golden/$g.txt" >&2
        echo "regenerate: UPDATE_GOLDEN=1 cargo test -p magicdiv-bench --test explain_golden" >&2
        exit 1
    }
done

echo "== explain-plan JSON drift gate (two runs must agree byte-for-byte) =="
mkdir -p target
./target/release/magic explain 32 10 dword --json > target/explain_drift_a.jsonl
./target/release/magic explain 32 10 dword --json > target/explain_drift_b.jsonl
diff -u target/explain_drift_a.jsonl target/explain_drift_b.jsonl || {
    echo "magic explain --json is nondeterministic between runs" >&2
    exit 1
}

echo "== urem tournament drift gate (remainder scoreboard must be deterministic) =="
./target/release/magic explain 32 10 urem --json > target/urem_drift_a.jsonl
./target/release/magic explain 32 10 urem --json > target/urem_drift_b.jsonl
diff -u target/urem_drift_a.jsonl target/urem_drift_b.jsonl || {
    echo "magic explain urem --json is nondeterministic between runs" >&2
    exit 1
}
grep -q '"name":"plan.remainder"' target/urem_drift_a.jsonl || {
    echo "urem explain stream lost its plan.remainder event" >&2
    exit 1
}
grep -q '"name":"plan.tournament"' target/urem_drift_a.jsonl || {
    echo "urem explain stream carries no remainder-tournament scoreboard" >&2
    exit 1
}
diff -u results/explain_urem_32_10.jsonl target/urem_drift_a.jsonl || {
    echo "magic explain 32 10 urem --json moved from results/explain_urem_32_10.jsonl" >&2
    echo "(its 388 ir.eval events pin the certifier's evaluation stream)" >&2
    exit 1
}

echo "== magic explain rejects a divisor outside the width (exit 1, no panic) =="
status=0
./target/release/magic explain 8 586 signed > /dev/null 2> target/explain_range_ci.err || status=$?
test "$status" -eq 1 || {
    cat target/explain_range_ci.err >&2
    echo "magic explain 8 586 signed exited $status; a divisor outside i8 must be an error with exit 1" >&2
    exit 1
}
if grep -q 'panicked' target/explain_range_ci.err; then
    cat target/explain_range_ci.err >&2
    echo "magic explain 8 586 signed panicked instead of reporting the range error" >&2
    exit 1
fi

echo "== metrics exposition golden (same seed twice must reproduce results/metrics_42_2000.prom) =="
./target/release/magic metrics 42 2000 > target/expo_ci_a.prom
./target/release/magic metrics 42 2000 > target/expo_ci_b.prom
for expo in target/expo_ci_a.prom target/expo_ci_b.prom; do
    diff -u results/metrics_42_2000.prom "$expo" || {
        echo "magic metrics 42 2000 moved from the committed results/metrics_42_2000.prom" >&2
        echo "regenerate: ./target/release/magic metrics 42 2000 > results/metrics_42_2000.prom" >&2
        exit 1
    }
done
grep -q '^# TYPE ' target/expo_ci_a.prom || {
    echo "exposition carries no # TYPE lines" >&2
    exit 1
}
grep -q '{d="other"}' target/expo_ci_a.prom || {
    echo "exposition lost its bounded-cardinality {d=\"other\"} bucket" >&2
    exit 1
}

echo "== bench report drift gate (two bench runs must compare row for row) =="
rm -rf target/bench_drift_a target/bench_drift_b
mkdir -p target/bench_drift_a target/bench_drift_b
./target/release/bench 50 target/bench_drift_a/bench.json > /dev/null
./target/release/bench 50 target/bench_drift_b/bench.json > /dev/null
# Fold the exposition goldens in as .prom snapshots so the drift bin's
# metrics differ runs in CI too.
cp target/expo_ci_a.prom target/bench_drift_a/metrics.prom
cp target/expo_ci_b.prom target/bench_drift_b/metrics.prom
# The threshold is large on purpose: this gate checks that the reports
# are comparable, not how fast this host ran them.
./target/release/drift target/bench_drift_a target/bench_drift_b 1000 > target/bench_drift.txt || {
    cat target/bench_drift.txt >&2
    echo "drift found a bench row more than 1000% slower, or could not read a report" >&2
    exit 1
}
# Any note about bench.json means an unparseable report, a report
# without rows, or a row that vanished between the runs.
if grep -q '\[note\] bench\.json:' target/bench_drift.txt; then
    cat target/bench_drift.txt >&2
    echo "the two bench reports are not comparable row for row" >&2
    exit 1
fi
status=0
./target/release/drift target/bench_drift_a target/bench_drift_b 1000 junk > /dev/null 2>&1 || status=$?
test "$status" -eq 2 || {
    echo "drift with a fourth argument exited $status; it must print the usage and exit 2" >&2
    exit 1
}

echo "== calibration smoke run (tiny budget; report must parse) =="
./target/release/magic calibrate 20 2 target/calibration_ci.json > /dev/null

echo "== chaos smoke gate (fixed seed; zero silently wrong quotients) =="
# Exit 1 from `magic chaos` means an injected fault produced a quotient
# that was served without any error signal — the one outcome the
# guarded service exists to prevent.
./target/release/magic chaos 0xC4A05D1F 4 target/chaos_ci.json > /dev/null
grep -q '"silent_wrong": 0,' target/chaos_ci.json || {
    echo "chaos report does not pin silent_wrong to zero" >&2
    exit 1
}

echo "== chaos golden gate (fixed seed must reproduce results/chaos.json) =="
./target/release/magic chaos 0xC4A05D1F 8 target/chaos_golden.json > /dev/null 2> target/chaos_golden.err
diff <(grep -v '"git_sha"' results/chaos.json) <(grep -v '"git_sha"' target/chaos_golden.json) || {
    echo "fixed-seed chaos report moved from the committed results/chaos.json" >&2
    exit 1
}
# The lock-poisoning scenario's deliberate unwind must stay silent.
if grep -q 'panicked' target/chaos_golden.err; then
    cat target/chaos_golden.err >&2
    echo "magic chaos printed a panic" >&2
    exit 1
fi

echo "== Table 11.1 listing gate (the bin must reproduce results/table_11_1.txt) =="
./target/release/table_11_1 > target/table_11_1_ci.txt
diff -u results/table_11_1.txt target/table_11_1_ci.txt || {
    echo "table_11_1 output moved from the committed results/table_11_1.txt" >&2
    echo "regenerate: cargo run --release -p magicdiv-bench --bin table_11_1 > results/table_11_1.txt" >&2
    exit 1
}

echo "== magic constants gate (magic 10 32 must reproduce results/magic_d10.txt) =="
./target/release/magic 10 32 > target/magic_d10_ci.txt
diff -u results/magic_d10.txt target/magic_d10_ci.txt || {
    echo "magic 10 32 output moved from the committed results/magic_d10.txt" >&2
    echo "regenerate: ./target/release/magic 10 32 > results/magic_d10.txt" >&2
    exit 1
}
status=0
./target/release/magic 10 abc > /dev/null 2>&1 || status=$?
test "$status" -eq 2 || {
    echo "magic 10 abc exited $status; an unparseable width must print the usage and exit 2" >&2
    exit 1
}

echo "== chaos output gate (magic chaos writes only its named report) =="
tmp="$(mktemp -d)"
magic="$PWD/target/release/magic"
(cd "$tmp" && "$magic" chaos 0xC4A05D1F 2 "$tmp/r.json" > /dev/null)
left="$(cd "$tmp" && find . -mindepth 1 | sort)"
rm -rf "$tmp"
test "$left" = "./r.json" || {
    echo "magic chaos left more than its named report in its working directory:" >&2
    echo "$left" >&2
    exit 1
}

echo "== overhead budget gates (tracing-off stays free, hardened sampling stays cheap) =="
./target/release/bench overhead 2000 target/overhead_ci.json > /dev/null || {
    echo "overhead exceeded a pinned budget — see target/overhead_ci.json" >&2
    exit 1
}

echo "== all checks passed =="
