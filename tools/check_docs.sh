#!/usr/bin/env bash
# Documentation guard (tier-1, wired into ctest as `check_docs`).
#
# Keeps the documentation layer honest, three ways:
#   1. every public api/ header opens with a file-level doc comment (the
#      headers are the API reference — see ARCHITECTURE.md);
#   2. every file path referenced by README.md / ARCHITECTURE.md exists
#      (src|tools|bench|examples|tests/... tokens, api/... header tokens,
#      root-level *.md);
#   3. every ctest label (`-L <label>`) and every CLI `--flag` the docs
#      mention actually exists — labels against the LABELS declarations in
#      the CMakeLists; flags (on dcs_mine lines and in inline `code spans`,
#      cmake/ctest lines aside) against dcs_mine's kFlagTable and the flags
#      tools/dcs_store.cc accepts.
#
# Usage: check_docs.sh [repo-root]

set -u

root="${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}"
docs=("$root/README.md" "$root/ARCHITECTURE.md")
status=0

fail() {
  echo "check_docs: $*" >&2
  status=1
}

# --- 1. api/ headers carry a file-level doc comment -------------------------
for header in "$root"/src/api/*.h; do
  if ! head -n 1 "$header" | grep -q '^//'; then
    fail "${header#"$root"/} lacks a file-level doc comment (must start with //)"
  fi
done

# --- 2. path references in the docs resolve ---------------------------------
for doc in "${docs[@]}"; do
  if [ ! -s "$doc" ]; then
    fail "missing doc file: ${doc#"$root"/}"
    continue
  fi
  rel="${doc#"$root"/}"

  # Repo-relative paths with an explicit top-level directory.
  while IFS= read -r path; do
    [ -e "$root/$path" ] || fail "$rel references missing file $path"
  done < <(grep -ohE '\b(src|tools|bench|examples|tests)/[A-Za-z0-9_./-]+\.(h|cc|cpp|sh|md|json|el)\b' "$doc" | sort -u)

  # Facade-style header tokens (api/mining.h, graph/io.h, ...) live in src/.
  # The lookbehind keeps tails of explicit paths (tests/core/foo_test.cc)
  # from matching; skipped gracefully where grep lacks PCRE.
  if echo | grep -qP '' 2> /dev/null; then
    while IFS= read -r path; do
      [ -e "$root/src/$path" ] || fail "$rel references missing header src/$path"
    done < <(grep -ohP '(?<![/A-Za-z0-9_.-])(api|core|graph|util|gen|densest|baseline)/[A-Za-z0-9_.-]+\.(h|cc)\b' "$doc" | sort -u)
  fi

  # Root-level markdown.
  while IFS= read -r path; do
    [ -e "$root/$path" ] || fail "$rel references missing root file $path"
  done < <(grep -ohE '\b[A-Z][A-Z_]+\.md\b' "$doc" | sort -u)
done

# --- 3a. ctest labels the docs name are declared ----------------------------
declared_labels=$(grep -rhoE 'LABELS [a-z_ ]+' \
    "$root/CMakeLists.txt" "$root"/*/CMakeLists.txt 2> /dev/null \
    | sed 's/^LABELS //' | tr ' ' '\n' | sort -u)
for doc in "${docs[@]}"; do
  [ -s "$doc" ] || continue
  rel="${doc#"$root"/}"
  while IFS= read -r label; do
    [ -z "$label" ] && continue
    if ! printf '%s\n' "$declared_labels" | grep -qx "$label"; then
      fail "$rel references undeclared ctest label '$label'"
    fi
  done < <(grep -ohE '\-L [a-z_]+' "$doc" | sed 's/^-L //' | sort -u)
done

# --- 3b. CLI flags the docs show exist ------------------------------------
known_flags=$( {
  grep -oE '^[[:space:]]*\{"--[a-z][a-z0-9-]*"' "$root/tools/dcs_mine.cc"
  grep -oE '"--[a-z][a-z0-9-]*"' "$root/tools/dcs_store.cc"
} | grep -oE -- '--[a-z0-9-]+' | sort -u)
for doc in "${docs[@]}"; do
  [ -s "$doc" ] || continue
  rel="${doc#"$root"/}"
  lines=$(grep -vE '(^|[^A-Za-z0-9_])(cmake|ctest)([^A-Za-z0-9_]|$)' "$doc")
  while IFS= read -r flag; do
    [ -z "$flag" ] && continue
    if ! printf '%s\n' "$known_flags" | grep -qxF -- "$flag"; then
      fail "$rel shows flag '$flag', which neither the kFlagTable in" \
           "tools/dcs_mine.cc nor tools/dcs_store.cc accepts"
    fi
  done < <( {
    printf '%s\n' "$lines" | grep 'dcs_mine'
    printf '%s\n' "$lines" | grep -oE '`[^`]+`'
  } | grep -oE -- '--[a-z][a-z0-9-]*' | sort -u)
done

if [ "$status" -eq 0 ]; then
  echo "docs OK: api/ headers documented; README/ARCHITECTURE references resolve"
fi
exit "$status"
