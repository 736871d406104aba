#!/usr/bin/env bash
# Sanitizer sweep for the suites that exercise concurrency and crash paths.
#
# Builds the tree twice — `-DDCS_SANITIZE=address` and `=thread` — in
# dedicated build directories (so the instrumented objects never pollute the
# default ./build) and runs the `unit`, `chaos`, `crash`, `stress`,
# `examples` and `cabi` ctest labels under each. One command, fail-fast per
# step:
#
#   tools/run_sanitizers.sh            # both sanitizers
#   tools/run_sanitizers.sh address    # just one
#   tools/run_sanitizers.sh thread
#   tools/run_sanitizers.sh address thread undefined
#
# The crash label fork/execs the journaled worker and kills it mid-append;
# running it instrumented is the point — a recovery-path data race or a
# use-after-free in the journal teardown shows up here first. The stress
# label drives many store handles through one file's flock/append path, the
# examples label runs every facade program end to end, and the cabi label
# drives the service through the C ABI (submit, poll, wait, cancel, updates,
# drain and resume).
#
# Env knobs: JOBS (parallel build/test width, default nproc),
# BUILD_ROOT (where build-<sanitizer> dirs go, default the repo root).

set -eu

root="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
jobs="${JOBS:-$(nproc 2> /dev/null || echo 4)}"
build_root="${BUILD_ROOT:-$root}"

sanitizers=("$@")
if [ "${#sanitizers[@]}" -eq 0 ]; then
  sanitizers=(address thread)
fi
for sanitizer in "${sanitizers[@]}"; do
  case "$sanitizer" in
    address | thread | undefined) ;;
    *)
      echo "run_sanitizers: unknown sanitizer '$sanitizer'" \
           "(expected address, thread or undefined)" >&2
      exit 2
      ;;
  esac
done

labels='unit|chaos|crash|stress|examples|cabi'
for sanitizer in "${sanitizers[@]}"; do
  build_dir="$build_root/build-$sanitizer"
  echo "== [$sanitizer] configure -> $build_dir"
  cmake -B "$build_dir" -S "$root" -DDCS_SANITIZE="$sanitizer" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  echo "== [$sanitizer] build"
  cmake --build "$build_dir" -j "$jobs"
  echo "== [$sanitizer] ctest -L '$labels'"
  (cd "$build_dir" && ctest --output-on-failure -j "$jobs" -L "$labels")
done

echo "sanitizers OK: ${sanitizers[*]} x {$labels}"
