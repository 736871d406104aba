#!/usr/bin/env bash
# dcs_store CLI check (ctest `dcs_store_cli`, label unit).
#
# Mines a tiny edge-list pair with `dcs_mine --store --journal` to produce a
# real artifact store and job journal, then mines again over the same files:
# the `# store:` line must report no hit on the first run and a hit on the
# second, and the `# journal:` line appends and the recovered first job. The
# first run must leave one valid store record per pipeline record (no dead
# frame). Then pins the dcs_store exit-code contract: 0 for
# fsck / journal fsck / stat / ls on the fresh files and on 0-byte files
# once a handle has opened them, 1 for fsck once one
# payload byte is flipped, 2 on bad usage. `ls` must list pipeline rows
# only: the store holds no input-graph records. Also pins the dcs_mine usage
# paths: a missing value, an unknown flag and an invalid number all exit 2.
#
# Usage: dcs_store_cli_test.sh <dcs_mine> <dcs_store> <work-dir>

set -u

if [ "$#" -ne 3 ]; then
  echo "usage: $0 <dcs_mine> <dcs_store> <work-dir>" >&2
  exit 2
fi
mine="$1"
store_tool="$2"
dir="$3"
status=0

rm -rf "$dir"
mkdir -p "$dir"
printf '5\n0 1 1\n1 2 1\n0 2 1\n2 3 1\n3 4 1\n' > "$dir/g1.el"
printf '5\n0 1 2\n1 2 2\n0 2 2\n2 3 1\n' > "$dir/g2.el"
store="$dir/cache.dcs"
journal="$dir/jobs.dcsj"

if ! "$mine" --g1 "$dir/g1.el" --g2 "$dir/g2.el" --measure both \
     --store "$store" --journal "$journal" > "$dir/mine.out" 2>&1; then
  echo "dcs_store_cli: dcs_mine failed:" >&2
  cat "$dir/mine.out" >&2
  exit 1
fi

# The first run found an empty store; the second warm-boots from it and
# recovers the first run's job from the journal. The counters come from the
# store and the service.
first_hits=$(sed -n 's/^# store: \([0-9]*\) hits .*/\1/p' "$dir/mine.out")
if [ "$first_hits" != "0" ]; then
  echo "dcs_store_cli: first run over an empty store reports" \
       "'$first_hits' store hits, expected 0:" >&2
  cat "$dir/mine.out" >&2
  status=1
fi
# Every record the first run wrote is a live pipeline: the difference
# snapshot dcs_mine prints prepares the same entry the mine then reuses, so
# no superseded (dead) frame is left behind.
valid_records=$("$store_tool" fsck "$store" |
  sed -n 's/^valid records: *\([0-9]*\)$/\1/p')
pipeline_records=$("$store_tool" stat "$store" |
  sed -n 's/^pipeline records: *\([0-9]*\)$/\1/p')
if [ -z "$valid_records" ] || [ "$valid_records" != "$pipeline_records" ]; then
  echo "dcs_store_cli: first run left '$valid_records' valid records for" \
       "'$pipeline_records' pipeline records:" >&2
  "$store_tool" fsck "$store" >&2
  "$store_tool" stat "$store" >&2
  status=1
fi
if ! "$mine" --g1 "$dir/g1.el" --g2 "$dir/g2.el" --measure both \
     --store "$store" --journal "$journal" > "$dir/rerun.out" 2>&1; then
  echo "dcs_store_cli: dcs_mine re-run failed:" >&2
  cat "$dir/rerun.out" >&2
  exit 1
fi
store_hits=$(sed -n 's/^# store: \([0-9]*\) hits .*/\1/p' "$dir/rerun.out")
journal_appends=$(sed -n 's/^# journal: \([0-9]*\) appends, .*/\1/p' \
  "$dir/rerun.out")
journal_recovered=$(sed -n \
  's/^# journal: [0-9]* appends, \([0-9]*\) recovered jobs.*/\1/p' \
  "$dir/rerun.out")
if [ "${store_hits:-0}" -lt 1 ] || [ "${journal_appends:-0}" -lt 1 ] ||
   [ "${journal_recovered:-0}" -lt 1 ]; then
  echo "dcs_store_cli: re-run reports store hits '$store_hits'," \
       "journal appends '$journal_appends', recovered" \
       "'$journal_recovered'; expected >= 1 each:" >&2
  cat "$dir/rerun.out" >&2
  status=1
fi

# expect <exit code> <dcs_store args...>
expect() {
  local want="$1"
  shift
  "$store_tool" "$@" > "$dir/out.txt" 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "dcs_store_cli: 'dcs_store $*' exited $got, expected $want:" >&2
    cat "$dir/out.txt" >&2
    status=1
  fi
}

# Flips every bit of the file's last byte, which lies in the payload of its
# last frame.
flip_last_byte() {
  local file="$1"
  local offset=$(($(stat -c %s "$file") - 1))
  local byte
  byte=$(od -An -tu1 -j "$offset" -N1 "$file" | tr -d ' ')
  printf "$(printf '\\%03o' $((byte ^ 0xff)))" |
    dd of="$file" bs=1 seek="$offset" conv=notrunc status=none
}

expect 0 fsck "$store"
expect 0 fsck --quiet "$store"
expect 0 stat "$store"
expect 0 ls "$store"
if grep -q '^graph ' "$dir/out.txt" ||
   ! grep -q '^pipeline ' "$dir/out.txt"; then
  echo "dcs_store_cli: 'dcs_store ls' should list pipeline rows and no" \
       "graph row:" >&2
  cat "$dir/out.txt" >&2
  status=1
fi
expect 0 journal fsck "$journal"
expect 0 journal stat "$journal"
expect 0 journal ls "$journal"

# A 0-byte file, as a crash before the first write leaves one: opening it
# (here through stat) writes the superblock, so fsck then finds an empty,
# clean log instead of a missing superblock.
: > "$dir/empty.dcs"
: > "$dir/empty.dcsj"
expect 0 stat "$dir/empty.dcs"
expect 0 fsck "$dir/empty.dcs"
expect 0 journal stat "$dir/empty.dcsj"
expect 0 journal fsck "$dir/empty.dcsj"

# expect_mine <exit code> <stderr substring or ""> <dcs_mine args...>
expect_mine() {
  local want="$1"
  local needle="$2"
  shift 2
  "$mine" "$@" > "$dir/out.txt" 2> "$dir/err.txt"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "dcs_store_cli: 'dcs_mine $*' exited $got, expected $want:" >&2
    cat "$dir/err.txt" >&2
    status=1
  elif [ -n "$needle" ] && ! grep -qF -- "$needle" "$dir/err.txt"; then
    echo "dcs_store_cli: 'dcs_mine $*' stderr lacks '$needle':" >&2
    cat "$dir/err.txt" >&2
    status=1
  fi
}

pair=(--g1 "$dir/g1.el" --g2 "$dir/g2.el")
expect_mine 2 "flag '--g1' is missing its <edge-list> value" --g1
expect_mine 2 "unknown flag '--shared-cache'" "${pair[@]}" --shared-cache 4
expect_mine 2 "unknown flag '--fast-math'" "${pair[@]}" --fast-math
expect_mine 2 "--topk must be >= 1" "${pair[@]}" --topk 0
expect_mine 2 "invalid numeric value for --alpha: 'foo'" "${pair[@]}" \
  --alpha foo
expect_mine 0 "" "${pair[@]}" --quiet

flip_last_byte "$store"
flip_last_byte "$journal"
expect 1 fsck "$store"
expect 1 fsck --quiet "$store"
expect 1 journal fsck "$journal"
expect 1 fsck "$dir/missing.dcs"

expect 2
expect 2 fsck
expect 2 frobnicate "$store"
expect 2 stat --quiet "$store"
expect 2 journal ls "$journal" extra

if [ "$status" -eq 0 ]; then
  echo "dcs_store_cli OK: re-run reports store hits and journal" \
       "recovery; exit codes 0 clean, 1 corrupt, 2 usage;" \
       "dcs_mine usage errors exit 2"
fi
exit "$status"
