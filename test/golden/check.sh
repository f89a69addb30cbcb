#!/bin/sh
# Diff the deterministic simulator outputs against their golden files in
# this directory, with the flags CI runs them with.
#
#   test/golden/check.sh [--update] [run-all] [koptsim] [chaos]
#
# run-all: experiments_run_all.txt (`experiments run --all`);
# koptsim: koptsim_default.txt (koptsim with default flags);
# chaos:   chaos_{seed42,seed1,seed2,storage_faults}.txt (300-run chaos
#          campaigns for seeds 42, 1 and 2, and seed 42 with storage faults).
# No target means all three.  --update rewrites the golden files from this
# build instead of diffing; a change that moves a pinned count does that
# on purpose and says why.  Exits 1 if any output differs.
set -eu
cd "$(dirname "$0")/../.."

update=false
targets=""
for arg in "$@"; do
  case "$arg" in
    --update) update=true ;;
    run-all | koptsim | chaos) targets="$targets $arg" ;;
    *)
      echo "usage: $0 [--update] [run-all] [koptsim] [chaos]" >&2
      exit 2
      ;;
  esac
done
[ -n "$targets" ] || targets="run-all koptsim chaos"

dune build bin/experiments.exe bin/koptsim.exe
bin=_build/default/bin
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0

# golden <file> <command...>
golden() {
  file=$1
  shift
  "$@" > "$out/$file"
  if $update; then
    cp "$out/$file" "test/golden/$file"
    echo "updated test/golden/$file"
  elif ! diff -u "test/golden/$file" "$out/$file"; then
    status=1
  fi
}

for target in $targets; do
  case "$target" in
    run-all) golden experiments_run_all.txt "$bin/experiments.exe" run --all ;;
    koptsim) golden koptsim_default.txt "$bin/koptsim.exe" ;;
    chaos)
      golden chaos_seed42.txt "$bin/experiments.exe" chaos --runs 300
      golden chaos_seed1.txt "$bin/experiments.exe" chaos --runs 300 --seed 1
      golden chaos_seed2.txt "$bin/experiments.exe" chaos --runs 300 --seed 2
      golden chaos_storage_faults.txt "$bin/experiments.exe" chaos --runs 300 --storage-faults
      ;;
  esac
done
exit $status
