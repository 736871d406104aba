#!/usr/bin/env bash
# Rewrites every bench/golden/<driver>.txt from the driver of the same name
# in a built tree. Run it only when a change is meant to alter a paper
# table, and say in CHANGES.md which figures moved and why.
#
# Usage: regen_paper_goldens.sh [build-dir]   (default: ./build)

set -eu

root="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
build_dir="${1:-$root/build}"

for golden in "$root"/bench/golden/*.txt; do
  name="$(basename "$golden" .txt)"
  driver="$build_dir/bench/$name"
  if [ ! -x "$driver" ]; then
    echo "regen_paper_goldens: missing driver $driver (build it first)" >&2
    exit 1
  fi
  "$driver" > "$golden"
  echo "wrote ${golden#"$root"/}"
done
