#!/usr/bin/env bash
# dcs_store CLI check (ctest `dcs_store_cli`, label unit).
#
# Mines a tiny edge-list pair with `dcs_mine --store --journal` to produce a
# real artifact store and job journal, then pins the dcs_store exit-code
# contract: 0 for fsck / journal fsck / stat / ls on the fresh files, 1 for
# fsck once one payload byte is flipped, 2 on bad usage.
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
expect 0 journal fsck "$journal"
expect 0 journal stat "$journal"
expect 0 journal ls "$journal"

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
  echo "dcs_store_cli OK: exit codes 0 clean, 1 corrupt, 2 usage"
fi
exit "$status"
