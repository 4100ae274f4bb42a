#!/usr/bin/env bash
# Byte-identity against a revision: the ROADMAP's house rule (i) as one
# command.
#
#   scripts/same-bytes.sh [REV]      REV defaults to HEAD
#
# Builds `repro` and the repo benchmark from `git archive REV` (unpacked
# into a temporary directory, with its own target directory; the
# repository's `.git` is only read) and from the working tree, all
# offline. Then two checks, each against REV:
#
# * `repro --quick all` at `--jobs 1` on both and again on the working
#   tree at `--jobs 2`: stdout with `cmp`, the `--out` tree with `diff
#   -r`, and the closing `audit:` line with `cmp`. A REV whose usage
#   line still lists `--audit` gets that flag and prints the audit line
#   on stdout, where it is taken out before the stdout `cmp`; a binary
#   without the flag audits every run and prints the line on stderr.
# * the scenario DSL path, which `all` never runs: `repro --quick run F`
#   on both for every `examples/scenarios/*.toml` except the
#   `malformed-*` rejection fixtures (the working tree's files on both
#   sides), stdout plus exit code with `cmp` and the `--out` tree with
#   `diff -r`.
# * per-seed digests: `benchmark --workload W --seed S --seconds 1
#   --trace 0` for each simulation workload at seeds 1 and 2, comparing
#   the `events N packets N sim_digest X` part of the stderr summary.
#
# Exits 1 on any difference. Four release builds, so it is not part of
# verify.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-HEAD}"
commit="$(git rev-parse --verify "$rev^{commit}")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

build() { # build SOURCE_DIR TARGET_DIR
  (cd "$1" && CARGO_TARGET_DIR="$2" \
    cargo build --release --offline --quiet -p slowcc-experiments --bin repro &&
    CARGO_TARGET_DIR="$2" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
}

echo "== building repro and benchmark at $rev ($commit) =="
mkdir "$tmp/rev"
git archive "$commit" | tar -x -C "$tmp/rev"
build "$tmp/rev" "$tmp/rev-target"

echo "== building repro and benchmark from the working tree =="
build . "$PWD/target"

run() { # run NAME REPRO JOBS
  local flag=() usage
  usage="$("$2" --help 2>&1)"
  case "$usage" in *--audit*) flag=(--audit) ;; esac
  echo "== repro --quick all ${flag[*]:+${flag[*]} }--jobs $3 ($1) =="
  "$2" --quick all "${flag[@]}" --jobs "$3" --out "$tmp/$1.out" \
    > "$tmp/$1.stdout" 2> "$tmp/$1.err"
  if [ ${#flag[@]} -gt 0 ]; then
    grep '^audit: ' "$tmp/$1.stdout" > "$tmp/$1.audit" || true
    grep -v '^audit: ' "$tmp/$1.stdout" > "$tmp/$1.txt" || true
  else
    grep '^audit: ' "$tmp/$1.err" > "$tmp/$1.audit" || true
    mv "$tmp/$1.stdout" "$tmp/$1.txt"
  fi
}
run rev "$tmp/rev-target/release/repro" 1
run tree-j1 ./target/release/repro 1
run tree-j2 ./target/release/repro 2

status=0
for side in tree-j1 tree-j2; do
  if cmp "$tmp/rev.txt" "$tmp/$side.txt" && diff -r "$tmp/rev.out" "$tmp/$side.out" &&
    [ -s "$tmp/rev.audit" ] && cmp "$tmp/rev.audit" "$tmp/$side.audit"; then
    echo "$side: stdout, --out tree and audit line identical to $rev"
  else
    echo "$side: DIFFERS from $rev"
    status=1
  fi
done
echo "audit ($rev):  $(cat "$tmp/rev.audit")"
echo "audit (tree): $(cat "$tmp/tree-j1.audit")"

echo "== repro --quick run: every shipped scenario =="
for file in examples/scenarios/*.toml; do
  name="$(basename "$file" .toml)"
  case "$name" in malformed-*) continue ;; esac
  for side in rev tree; do
    if [ "$side" = rev ]; then bin="$tmp/rev-target/release/repro"; else bin=./target/release/repro; fi
    code=0
    "$bin" --quick run "$file" --out "$tmp/$name.$side.out" > "$tmp/$name.$side.txt" \
      2> "$tmp/$name.$side.err" || code=$?
    echo "exit $code" >> "$tmp/$name.$side.txt"
  done
  if cmp "$tmp/$name.rev.txt" "$tmp/$name.tree.txt" &&
    diff -r "$tmp/$name.rev.out" "$tmp/$name.tree.out"; then
    echo "scenario $name: stdout and --out tree identical to $rev"
  else
    echo "scenario $name: DIFFERS from $rev"
    status=1
  fi
done

digest() { # digest BENCHMARK WORKLOAD SEED
  "$1" --workload "$2" --seed "$3" --seconds 1 --trace 0 2>&1 >/dev/null |
    grep -o 'events [0-9]* packets [0-9]* sim_digest [0-9a-f]*'
}
echo "== per-seed digests: benchmark --seconds 1 --trace 0 =="
for workload in bulk-tcp bulk-tcp-traced flavor-mix forward-cbr wide-lot; do
  for seed in 1 2; do
    want="$(digest "$tmp/rev-target/release/benchmark" "$workload" "$seed")" || true
    got="$(digest ./target/release/benchmark "$workload" "$seed")" || true
    if [ -n "$want" ] && [ "$want" = "$got" ]; then
      echo "$workload seed $seed: $got"
    else
      echo "$workload seed $seed: DIFFERS ($rev: $want; tree: $got)"
      status=1
    fi
  done
done
exit "$status"
