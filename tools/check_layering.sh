#!/usr/bin/env bash
# Layering check (tier-1, wired into ctest as `check_layering`).
#
# Facade rule: tools/ and examples/ program against the public surface only —
#   allowed:   api/*, graph/io.h, util/*
#   forbidden: core/*, densest/*, baseline/*, gen/*, store/*, and any
#              graph/* header other than graph/io.h
# The api/ layer re-exports what consumers legitimately need (Graph,
# DiscretizeSpec, solver knobs, dataset generators via api/datasets.h, the
# persistent store via api/artifact_store.h), so a forbidden include is
# always a layering bug, not a missing feature.
#
# Orphan rule: every src/**/*.h must be included by some file in src/,
# tools/, examples/, bench/, perfbench/ or include/ other than its own .cc —
# a library module only its own tests reach is dead code. The exceptions are
# listed in `oracles` below.
#
# Usage: check_layering.sh [repo-root]

set -u

root="${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}"

files=()
for f in "$root"/tools/*.cc "$root"/tools/*.cpp \
         "$root"/examples/*.cc "$root"/examples/*.cpp; do
  [ -e "$f" ] && files+=("$f")
done

if [ "${#files[@]}" -eq 0 ]; then
  echo "check_layering: no tool/example sources found under $root" >&2
  exit 1
fi

status=0
for f in "${files[@]}"; do
  violations=$(grep -nE \
    '^[[:space:]]*#[[:space:]]*include[[:space:]]*"(core|densest|baseline|gen|store)/' \
    "$f")
  graph_violations=$(grep -nE \
    '^[[:space:]]*#[[:space:]]*include[[:space:]]*"graph/' "$f" \
    | grep -v 'graph/io\.h')
  if [ -n "$violations$graph_violations" ]; then
    status=1
    echo "layering violation in ${f#"$root"/}:"
    [ -n "$violations" ] && echo "$violations"
    [ -n "$graph_violations" ] && echo "$graph_violations"
  fi
done

# Test oracles: exact and slow reference solvers the unit tests check the
# fast paths against. No library path calls them by design; they leave
# libdcs once they move under tests/.
oracles=(densest/exact.h densest/goldberg.h densest/max_clique.h)

headers=0
while IFS= read -r header; do
  rel="${header#"$root"/src/}"
  headers=$((headers + 1))
  printf '%s\n' "${oracles[@]}" | grep -qxF "$rel" && continue
  pattern="^[[:space:]]*#[[:space:]]*include[[:space:]]*\"${rel//./\\.}\""
  includers=$(grep -rlE "$pattern" "$root"/src "$root"/tools \
      "$root"/examples "$root"/bench "$root"/perfbench "$root"/include \
      2> /dev/null | grep -vxF "$root/src/${rel%.h}.cc")
  if [ -z "$includers" ]; then
    status=1
    echo "orphan module: src/$rel has no includer outside its own .cc" \
         "(delete it, or use it)"
  fi
done < <(find "$root/src" -name '*.h' | sort)

if [ "$status" -eq 0 ]; then
  echo "layering OK: ${#files[@]} tool/example sources include only api/," \
       "graph/io.h and util/ headers; each of $headers src/ headers has an" \
       "includer (${#oracles[@]} test oracles excepted)"
fi
exit "$status"
