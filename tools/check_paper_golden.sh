#!/usr/bin/env bash
# Golden-output check for one paper-reproduction driver (ctest label `paper`).
#
# Runs the driver and diffs its stdout against the committed golden file.
# Only drivers whose output has no wall-time column have goldens
# (bench/golden/<driver>.txt); their output is a pure function of the
# library's answers and work counters, so any difference is a behaviour
# change. Regenerate deliberately with tools/regen_paper_goldens.sh and
# record why in CHANGES.md.
#
# Usage: check_paper_golden.sh <driver-binary> <golden-file>

set -u

if [ "$#" -ne 2 ]; then
  echo "usage: check_paper_golden.sh <driver-binary> <golden-file>" >&2
  exit 2
fi
driver="$1"
golden="$2"

actual="$(mktemp)"
trap 'rm -f "$actual"' EXIT
"$driver" > "$actual" || {
  echo "check_paper_golden: $driver exited with status $?" >&2
  exit 1
}
if ! diff -u "$golden" "$actual"; then
  echo "check_paper_golden: $(basename "$driver") output differs from" \
       "$golden" >&2
  exit 1
fi
echo "golden OK: $(basename "$driver")"
