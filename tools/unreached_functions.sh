#!/usr/bin/env bash
# Lists the library functions that no program reaches.
#
# Builds libmca.a from src/ at -O0 with one section per function, then
# links every program (each bench/*.cpp, each examples/*.cpp, and
# mca_bench) against the whole archive with --gc-sections.  A strong
# (nm type T) mca:: function whose section every one of those links drops
# is reached by no program: only tests can call it.  Functions named in
# tools/unreached_allowlist.txt are not reported; each entry there is the
# name as this script prints it, then '#', the test that needs it and the
# fact that test checks.
#
# Prints one demangled name per unreached function and exits 1 if there
# is any, or if an allowlist entry has no reason or names a function that
# is reached (or gone); exits 0 otherwise.  Inline header functions are
# out of scope: the archive holds a copy of one only where it is used.
#
# Usage: tools/unreached_functions.sh    (no options; CXX picks the compiler)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
allowlist="$root/tools/unreached_allowlist.txt"
jobs="$(nproc 2>/dev/null || echo 2)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/lib" "$work/prog" "$work/gc"

export MCA_CXX="${CXX:-c++}" MCA_ROOT="$root" MCA_WORK="$work"
compile() {  # <source> <object>
  "$MCA_CXX" -std=c++20 -O0 -ffunction-sections -pthread -w \
    -I "$MCA_ROOT/src" -I "$MCA_ROOT/bench" -c "$1" -o "$2"
}
link() {  # <program> <object>... ; writes the library sections it dropped
  local name="$1"
  shift
  "$MCA_CXX" -pthread -o "$MCA_WORK/gc/$name" "$@" \
    -Wl,--gc-sections,--print-gc-sections \
    -Wl,--whole-archive "$MCA_WORK/libmca.a" -Wl,--no-whole-archive \
    2> "$MCA_WORK/gc/$name.log" || { cat "$MCA_WORK/gc/$name.log" >&2; return 1; }
  sed -n "s/.*removing unused section '\.text\.\([^']*\)' in file '.*libmca\.a(.*/\1/p" \
    "$MCA_WORK/gc/$name.log" | sort -u > "$MCA_WORK/gc/$name.dropped"
}
export -f compile link

# One line per translation unit ("source object"), and one per program
# ("name object...").
units="$work/units"
programs="$work/programs"
: > "$units"
: > "$programs"
for src in $(cd "$root" && find src -name '*.cpp' | sort); do
  echo "$root/$src $work/lib/$(echo "$src" | tr / _).o" >> "$units"
done
for src in "$root"/bench/*.cpp "$root"/examples/*.cpp; do
  name="$(basename "$(dirname "$src")")_$(basename "$src" .cpp)"
  echo "$src $work/prog/$name.o" >> "$units"
  echo "$name $work/prog/$name.o" >> "$programs"
done
line="mca_bench"
for src in "$root"/mca_bench/*.cpp; do
  object="$work/prog/mca_bench_$(basename "$src" .cpp).o"
  echo "$src $object" >> "$units"
  line+=" $object"
done
echo "$line" >> "$programs"

xargs -P "$jobs" -L 1 bash -c 'compile "$@"' _ < "$units" ||
  { echo "unreached_functions: the build failed" >&2; exit 2; }
ar rcs "$work/libmca.a" "$work"/lib/*.o
xargs -P "$jobs" -L 1 bash -c 'link "$@"' _ < "$programs" ||
  { echo "unreached_functions: a link failed" >&2; exit 2; }

# Sections every program dropped, kept to strong mca:: functions.
count="$(wc -l < "$programs")"
sort "$work"/gc/*.dropped | uniq -c | awk -v n="$count" '$1 == n { print $2 }' \
  > "$work/dropped_everywhere"
nm --defined-only "$work/libmca.a" | awk '$2 == "T" { print $3 }' | sort -u |
  comm -12 - "$work/dropped_everywhere" | c++filt | grep '^mca::' | sort -u \
  > "$work/unreached" || true

# The allowlist: "<name> # <test>: <fact>", blank lines and '#' lines skipped.
status=0
: > "$work/allowed"
if [ -f "$allowlist" ]; then
  while IFS= read -r entry; do
    case "$entry" in '' | '#'*) continue ;; esac
    name="$(echo "${entry%%#*}" | sed 's/[[:space:]]*$//')"
    reason="$(echo "${entry#*#}" | sed 's/^[[:space:]]*//')"
    if [ "$entry" = "${entry%%#*}" ] || [ -z "$reason" ]; then
      echo "unreached_allowlist.txt: '$name' gives no test and fact" >&2
      status=1
    elif ! grep -qxF -- "$name" "$work/unreached"; then
      echo "unreached_allowlist.txt: '$name' is reached or gone; drop it" >&2
      status=1
    fi
    echo "$name" >> "$work/allowed"
  done < "$allowlist"
fi

grep -vxF -f "$work/allowed" "$work/unreached" > "$work/reported" || true
cat "$work/reported"
reported="$(wc -l < "$work/reported")"
echo "unreached_functions: $reported unreached, $(wc -l < "$work/allowed")" \
     "allowlisted, $count programs linked" >&2
[ "$reported" -eq 0 ] || status=1
exit "$status"
