#!/usr/bin/env bash
# Byte-identity against a revision: the ROADMAP's house rule (i) as one
# command.
#
#   scripts/same-bytes.sh [REV]      REV defaults to HEAD
#
# Builds `repro` from `git archive REV` (unpacked into a temporary
# directory, with its own target directory; the repository's `.git` is
# only read) and from the working tree, runs `repro --quick all --audit`
# at `--jobs 1` on both and again on the working tree at `--jobs 2`, and
# compares each working-tree run against REV: stdout with `cmp`, the
# `--out` tree with `diff -r`. Prints both audit lines; exits 1 on any
# difference. Two release builds, so it is not part of verify.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-HEAD}"
commit="$(git rev-parse --verify "$rev^{commit}")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== building repro at $rev ($commit) =="
mkdir "$tmp/rev"
git archive "$commit" | tar -x -C "$tmp/rev"
(cd "$tmp/rev" && CARGO_TARGET_DIR="$tmp/rev-target" \
  cargo build --release --offline --quiet -p slowcc-experiments --bin repro)

echo "== building repro from the working tree =="
cargo build --release --offline --quiet -p slowcc-experiments --bin repro

run() { # run NAME REPRO JOBS
  echo "== repro --quick all --audit --jobs $3 ($1) =="
  "$2" --quick all --audit --jobs "$3" --out "$tmp/$1.out" > "$tmp/$1.txt"
}
run rev "$tmp/rev-target/release/repro" 1
run tree-j1 ./target/release/repro 1
run tree-j2 ./target/release/repro 2

status=0
for side in tree-j1 tree-j2; do
  if cmp "$tmp/rev.txt" "$tmp/$side.txt" && diff -r "$tmp/rev.out" "$tmp/$side.out"; then
    echo "$side: stdout and --out tree identical to $rev"
  else
    echo "$side: DIFFERS from $rev"
    status=1
  fi
done
echo "audit ($rev):  $(grep "audit: " "$tmp/rev.txt")"
echo "audit (tree): $(grep "audit: " "$tmp/tree-j1.txt")"
exit "$status"
