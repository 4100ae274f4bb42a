#!/usr/bin/env bash
# Full verification: tier-1 (release build + tests) plus smoke runs of
# the unified `repro` execution path — parallel and resumed sweeps must
# be byte-identical, audits clean, a panicking cell isolated to
# itself — and, last, the repo benchmark's smoke and unit tests:
# `benchmark/` is a package outside the workspace, so these are the only
# steps that notice a public-signature change that stops it compiling.
# Timing is not judged here; that is `benchmark/run.sh --all` on two
# commits, then `--compare`.
set -euo pipefail
cd "$(dirname "$0")/.."

# `section TITLE` opens a step and books the previous one's elapsed
# seconds; the summary at the end shows where the time went. Reported
# only: no step judges time.
timings=""
section_name=""
section() {
  if [ -n "$section_name" ]; then
    echo "-- ${section_name}: ${SECONDS}s"
    timings+="$(printf '%5ss  %s' "$SECONDS" "$section_name")"$'\n'
  fi
  section_name="$1"
  SECONDS=0
  [ -z "$1" ] || echo "== $1 =="
}

section "tier-1: release build"
cargo build --release

section "clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

section "workspace tests"
cargo test -q --workspace

cargo build --release -p slowcc-experiments --bin repro
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

section "target list from the registry (repro list)"
# Every target below comes from `repro list` itself, so a newly
# registered experiment is covered here without editing this script.
targets="$(./target/release/repro list \
  | awk '/^experiments:$/{f=1; next} /^aliases:$/{f=0} f{print $1}')"
if [ -z "$targets" ]; then
  echo "ERROR: repro list produced no targets"; exit 1
fi
echo "targets: $(echo "$targets" | tr '\n' ' ')"

section "an unknown option is named (repro --audit)"
# Auditing is not an option: every simulation keeps the books. A flag
# outside the five must be named, with the usage line, and fail.
if ./target/release/repro --quick --audit fig45 > "$tmp/unknown.txt" 2>&1; then
  echo "ERROR: repro --audit should have produced a nonzero exit"; exit 1
fi
grep -q 'unknown option `--audit`' "$tmp/unknown.txt"
grep -q '^usage: repro ' "$tmp/unknown.txt"
echo "repro --audit rejected as an unknown option, usage printed"

section "repro --quick smoke over all listed targets (--jobs 1 vs --jobs 8)"
# shellcheck disable=SC2086
./target/release/repro --quick $targets --jobs 1 --out "$tmp/j1" > "$tmp/stdout_j1.txt"
# shellcheck disable=SC2086
./target/release/repro --quick $targets --jobs 8 --out "$tmp/j8" > "$tmp/stdout_j8.txt"
diff -r "$tmp/j1" "$tmp/j8"
diff "$tmp/stdout_j1.txt" "$tmp/stdout_j8.txt"
echo "parallel output byte-identical to serial"

section "RFC conformance gate (repro conformance)"
# The specs/ tree must parse with unique requirement ids, zero
# dangling test links, and no MUST-level requirement left `untested`
# without a recorded `deviates` rationale. Any violation panics its
# cell (FAILED cell conformance/<file>), which makes this command —
# and therefore verify — exit nonzero.
./target/release/repro --quick conformance > "$tmp/conformance.txt"
grep -q "every MUST tested or deviates" "$tmp/conformance.txt"
for rfc in rfc1122 rfc2481 rfc3448 rfc5681 rfc6298 rfc6582; do
  grep -q "$rfc" "$tmp/conformance.txt"
done
echo "conformance ledger clean over all six RFCs"

section "audit line smoke (repro fig45)"
# Every simulation is audited; the closing audit: line goes to stderr.
# A violation fails its cell: nonzero exit and a failures.json record.
./target/release/repro --quick fig45 --out "$tmp/audit" > "$tmp/audit.txt" 2> "$tmp/audit_err.txt"
grep "^audit: " "$tmp/audit_err.txt"
grep -q " 0 timer leaks, 0 violations" "$tmp/audit_err.txt"
cmp "$tmp/audit/failures.json" results/failures.json
echo "fig45 audit clean, failures.json the committed empty report"

section "pop-order assertion on real cells (test-profile repro fig45)"
# Release builds compile out the event queue's strict pop-order
# debug_assert; the test profile (opt-level 2, debug assertions on)
# keeps it. Here it checks every pop of the fig45 cells, where TCP's
# re-armed retransmission timers push entries at reserved keys, and
# the output must be the release run's byte for byte.
cargo build --profile test -p slowcc-experiments --bin repro
./target/debug/repro --quick fig45 --out "$tmp/audit_checked" > "$tmp/audit_checked.txt" \
  2> "$tmp/audit_checked_err.txt"
cmp "$tmp/audit.txt" "$tmp/audit_checked.txt"
cmp <(grep "^audit: " "$tmp/audit_err.txt") <(grep "^audit: " "$tmp/audit_checked_err.txt")
diff -r "$tmp/audit" "$tmp/audit_checked"
echo "fig45 with debug assertions on: every pop in order, output identical to release"

section "targets with little or nothing to audit (fig11 fig20 conformance)"
# Nothing to audit is not a failure: exit 0 (set -e) and a clean line.
./target/release/repro --quick fig11 fig20 conformance --out "$tmp/audit_none" \
  > "$tmp/audit_none.txt" 2> "$tmp/audit_none_err.txt"
grep "^audit: " "$tmp/audit_none_err.txt"
grep -q " 0 timer leaks, 0 violations" "$tmp/audit_none_err.txt"
echo "fig11, fig20 and conformance exit 0 with a clean audit line"

section "chaos fault-injection smoke (repro chaos)"
# A violation in a chaos cell fails the cell; the audit line sums them.
./target/release/repro --quick chaos --out "$tmp/chaos" > "$tmp/chaos.txt" 2> "$tmp/chaos_err.txt"
# Same seeds, second run: must replay byte-identically.
./target/release/repro --quick chaos --out "$tmp/chaos2" > "$tmp/chaos2.txt" 2> "$tmp/chaos2_err.txt"
diff -r "$tmp/chaos" "$tmp/chaos2"
diff "$tmp/chaos.txt" "$tmp/chaos2.txt"
diff "$tmp/chaos_err.txt" "$tmp/chaos2_err.txt"
grep -q "all graceful" "$tmp/chaos.txt"
grep -q " 0 timer leaks, 0 violations" "$tmp/chaos_err.txt"
echo "chaos sweep audit-clean, bit-identical across runs"

section "resume replay smoke (fully cached rerun, byte-identical)"
./target/release/repro --quick fig3 fig45 --out "$tmp/resume_base" > "$tmp/resume_stdout1.txt"
cp -r "$tmp/resume_base" "$tmp/resume_before"
./target/release/repro --quick fig3 fig45 --out "$tmp/resume_base" --resume \
  > "$tmp/resume_stdout2.txt" 2> "$tmp/resume_stderr2.txt"
diff "$tmp/resume_stdout1.txt" "$tmp/resume_stdout2.txt"
diff -r "$tmp/resume_before" "$tmp/resume_base"
grep -q "cells already ok" "$tmp/resume_stderr2.txt"
echo "resumed run replayed every cell from cache, output byte-identical"

section "crash isolation: deliberate panic-cell fixture"
# A multi-cell figure rides along so the resume below demonstrably
# skips completed cells one by one rather than per target.
if ./target/release/repro --quick --out "$tmp/crash" fig45 panic-cell \
    > "$tmp/crash.txt" 2>&1; then
  echo "ERROR: panic-cell should have produced a nonzero exit"; exit 1
fi
grep -q "FAILED cell panic-cell/fixture" "$tmp/crash.txt"
grep -q '"panic-cell/fixture": {"status": "panicked"' "$tmp/crash/manifest.json"
# Every sibling figure cell survived the panic.
fig45_cells="$(grep -c '"fig45/' "$tmp/crash/manifest.json")"
fig45_ok="$(grep '"fig45/' "$tmp/crash/manifest.json" | grep -c '"status": "ok"')"
if [ "$fig45_cells" -lt 2 ] || [ "$fig45_cells" -ne "$fig45_ok" ]; then
  echo "ERROR: expected all $fig45_cells fig45 cells ok, got $fig45_ok"; exit 1
fi
# --resume skips each completed cell and re-runs only the failed one.
if ./target/release/repro --quick --out "$tmp/crash" --resume fig45 panic-cell \
    > "$tmp/resume.txt" 2>&1; then
  echo "ERROR: resumed panic-cell should still exit nonzero"; exit 1
fi
skips="$(grep -c "resume: skipping fig45/" "$tmp/resume.txt")"
if [ "$skips" -ne "$fig45_cells" ]; then
  echo "ERROR: resume skipped $skips of $fig45_cells completed fig45 cells"; exit 1
fi
grep -q "FAILED cell panic-cell/fixture" "$tmp/resume.txt"
echo "panic isolated per cell, manifest recorded, resume re-ran only the failure"

section "supervisor: failing cells classified, reports byte-stable across --jobs"
# panic-cell panics, hang-cell livelocks (zero-clock-advance loop) and
# slow-cell runs effectively forever; the budget unwinds the last two —
# threads joined, not abandoned — and each lands as one flat record in
# failures.json (panic / livelock / deadline) while every fig45 sibling
# still completes. Failure records carry no timing, so the whole --out
# tree, failures included, is identical at --jobs 1 and --jobs 2.
for jobs in 1 2; do
  if ./target/release/repro --quick --out "$tmp/sup$jobs" --jobs "$jobs" --cell-timeout 2 \
      fig45 panic-cell hang-cell slow-cell > "$tmp/sup$jobs.txt" 2>&1; then
    echo "ERROR: failing fixtures should have produced a nonzero exit"; exit 1
  fi
done
diff -r "$tmp/sup1" "$tmp/sup2"
grep -q '"hang-cell/fixture": {"status": "livelock"' "$tmp/sup1/manifest.json"
grep -q '"slow-cell/fixture": {"status": "timeout"' "$tmp/sup1/manifest.json"
grep -q '"cell": "panic-cell/fixture", "seed": 0, "class": "panic"' "$tmp/sup1/failures.json"
grep -q '"cell": "hang-cell/fixture", "seed": 0, "class": "livelock"' "$tmp/sup1/failures.json"
grep -q '"cell": "slow-cell/fixture", "seed": 0, "class": "deadline"' "$tmp/sup1/failures.json"
sup_cells="$(grep -c '"fig45/' "$tmp/sup1/manifest.json")"
sup_ok="$(grep '"fig45/' "$tmp/sup1/manifest.json" | grep -c '"status": "ok"')"
if [ "$sup_cells" -lt 2 ] || [ "$sup_cells" -ne "$sup_ok" ]; then
  echo "ERROR: expected all $sup_cells fig45 cells ok beside the failing cells, got $sup_ok"; exit 1
fi
echo "panic, livelock and deadline classified, siblings ok, --jobs 1 and 2 trees identical"

section "supervisor: SIGINT preemption is resumable byte-identically"
# Baseline fig3 sweep, then the same sweep plus a never-finishing cell:
# once every fig3 cell has landed in the manifest, SIGINT the process.
# It must exit 130 (interrupted, resumable), record the in-flight cell
# as interrupted, and a --resume of fig3 must replay to a byte-identical
# result as if the interruption never happened.
./target/release/repro --quick fig3 --out "$tmp/sig_base" > "$tmp/sig_base.txt"
fig3_cells="$(grep -c '"fig3/' "$tmp/sig_base/manifest.json")"
./target/release/repro --quick fig3 slow-cell --jobs 2 --out "$tmp/sig" \
  > "$tmp/sig.txt" 2> "$tmp/sig_err.txt" &
sig_pid=$!
for _ in $(seq 240); do
  done_cells="$(grep '"fig3/' "$tmp/sig/manifest.json" 2>/dev/null | grep -c '"status": "ok"' || true)"
  [ "$done_cells" = "$fig3_cells" ] && break
  sleep 0.25
done
if [ "${done_cells:-0}" != "$fig3_cells" ]; then
  kill "$sig_pid" 2>/dev/null || true
  echo "ERROR: fig3 cells did not complete before the SIGINT window"; exit 1
fi
kill -INT "$sig_pid"
rc=0; wait "$sig_pid" || rc=$?
if [ "$rc" -ne 130 ]; then
  echo "ERROR: interrupted sweep exited $rc, expected 130"; exit 1
fi
grep -q '"slow-cell/fixture": {"status": "interrupted"' "$tmp/sig/manifest.json"
./target/release/repro --quick fig3 --out "$tmp/sig" --resume > "$tmp/sig_resume.txt" 2>/dev/null
diff "$tmp/sig_resume.txt" "$tmp/sig_base.txt"
for f in "$tmp/sig_base"/fig3*; do
  diff "$f" "$tmp/sig/$(basename "$f")"
done
echo "SIGINT exited 130, in-flight cell recorded interrupted, resume byte-identical"

section "scenario DSL smoke (repro run vs registry twin vs committed fixture)"
# The declarative layer is a compilation target, not a second
# implementation: running the shipped chaos-twin TOML through
# `repro run` must produce bytes identical to the hidden registry twin
# compiled from the same spec, and both must match the committed
# fixture (so a silent physics or renderer drift fails verify).
./target/release/repro --quick run examples/scenarios/scenario-chaos-twin.toml \
  --out "$tmp/scn_toml" > /dev/null
./target/release/repro --quick scenario-chaos-twin --out "$tmp/scn_reg" > /dev/null
diff "$tmp/scn_toml/scenario_chaos_twin.json" "$tmp/scn_reg/scenario_chaos_twin.json"
diff "$tmp/scn_toml/scenario_chaos_twin.trace.seed1000.csv" \
     "$tmp/scn_reg/scenario_chaos_twin.trace.seed1000.csv"
diff "$tmp/scn_toml/scenario_chaos_twin.json" \
     examples/scenarios/expected/scenario_chaos_twin.json
diff "$tmp/scn_toml/scenario_chaos_twin.trace.seed1000.csv" \
     examples/scenarios/expected/scenario_chaos_twin.trace.seed1000.csv
# A malformed scenario must fail fast with a file:line diagnostic, not
# a panic and not a sweep.
if ./target/release/repro run examples/scenarios/malformed-queue.toml \
    > "$tmp/malformed.txt" 2>&1; then
  echo "ERROR: malformed scenario should have produced a nonzero exit"; exit 1
fi
grep -q 'malformed-queue.toml:12: `red_\*` keys are only valid' "$tmp/malformed.txt"
# So must an out-of-range value that an unchecked cast would have
# truncated into a plausible run.
if ./target/release/repro run examples/scenarios/malformed-pkt-size.toml \
    > "$tmp/malformed2.txt" 2>&1; then
  echo "ERROR: out-of-range pkt_size should have produced a nonzero exit"; exit 1
fi
grep -q 'malformed-pkt-size.toml:12: `pkt_size`' "$tmp/malformed2.txt"
echo "scenario run byte-identical to registry twin and committed fixture; malformed rejected"

section "repo benchmark smoke (benchmark/run.sh --smoke)"
# Builds the benchmark package against this tree and runs every
# workload briefly with its own checks: per-seed digest identity,
# link conservation, a clean audit, sweep and replay byte-identity.
benchmark/run.sh --smoke

section "repo benchmark tests (cargo test --manifest-path benchmark/Cargo.toml)"
# The benchmark package is outside the workspace, so the workspace test
# step above never runs its unit tests (quartiles, parsers, the verdict
# table, the committed BENCHMARK.json against its spec).
cargo test -q --offline --manifest-path benchmark/Cargo.toml

section ""
echo "== elapsed per section =="
printf '%s' "$timings"
echo "== verify OK =="
