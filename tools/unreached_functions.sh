#!/usr/bin/env bash
# Lists the mca:: functions that no program reaches, inline ones included.
#
# Builds libmca.a from src/ and every program (each bench/*.cpp, each
# examples/*.cpp, and mca_bench) at -O0 with one section per function and
# -fkeep-inline-functions, so each object holds a copy of every inline
# function its headers define, used or not.  Links each program against
# the whole archive with --gc-sections.  A function is reached when its
# symbol survives (nm) in at least one linked program; an mca:: function
# that the archive or a program object defines and that survives in none
# is reached by no program: only tests can call it.
#
# Compiler-made functions are not reported, found two ways:
#   - a lambda's function-pointer thunk (_FUN) and conversion operator,
#     i.e. any member of a closure type other than its operator();
#   - an implicit constructor, destructor or assignment: GCC's line table
#     puts it on its class head, so a function whose debug line (nm -l)
#     opens a struct, class or union is taken as one.  The objects carry
#     DWARF 4 line tables: nm 2.40 names the wrong file for some DWARF 5
#     entries.
# The method sees only code in a header that a src/*.cpp or a program
# includes, and only the template instantiations some object makes.
# tests/unreached_functions_selftest.cmake runs it on a fixture.
#
# Functions named in tools/unreached_allowlist.txt are not reported; each
# entry there is the name as this script prints it, then '#', the test
# that needs it and the fact that test checks.  Prints one demangled name
# per unreached function and exits 1 if there is any, or if an allowlist
# entry has no reason or names a function that is reached (or gone);
# exits 0 otherwise.
#
# Usage: tools/unreached_functions.sh    (no options; CXX picks the compiler)
set -euo pipefail
shopt -s nullglob
export LC_ALL=C

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
allowlist="$root/tools/unreached_allowlist.txt"
jobs="$(nproc 2>/dev/null || echo 2)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/lib" "$work/prog" "$work/gc"

export MCA_CXX="${CXX:-c++}" MCA_ROOT="$root" MCA_WORK="$work"
compile() {  # <source> <object>
  "$MCA_CXX" -std=c++20 -O0 -ffunction-sections -fkeep-inline-functions \
    -g1 -gdwarf-4 -pthread -w -I "$MCA_ROOT/src" -I "$MCA_ROOT/bench" \
    -c "$1" -o "$2"
}
link() {  # <program> <object>... ; writes the function symbols it kept
  local name="$1"
  shift
  "$MCA_CXX" -pthread -o "$MCA_WORK/gc/$name" "$@" -Wl,--gc-sections \
    -Wl,--whole-archive "$MCA_WORK/libmca.a" -Wl,--no-whole-archive
  nm --defined-only "$MCA_WORK/gc/$name" | awk '$2 ~ /^[TtWw]$/ { print $3 }' |
    sort -u > "$MCA_WORK/gc/$name.kept"
  rm "$MCA_WORK/gc/$name"
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
line=""
for src in "$root"/mca_bench/*.cpp; do
  object="$work/prog/mca_bench_$(basename "$src" .cpp).o"
  echo "$src $object" >> "$units"
  line+=" $object"
done
[ -z "$line" ] || echo "mca_bench$line" >> "$programs"

xargs -P "$jobs" -L 1 bash -c 'compile "$@"' _ < "$units" ||
  { echo "unreached_functions: the build failed" >&2; exit 2; }
ar rcs "$work/libmca.a" "$work"/lib/*.o
xargs -P "$jobs" -L 1 bash -c 'link "$@"' _ < "$programs" ||
  { echo "unreached_functions: a link failed" >&2; exit 2; }

# Functions some object defines and no linked program kept, one line each
# as "<object> <mangled>\t<demangled>" (one object that defines it), kept
# to mca::.
sort -u "$work"/gc/*.kept > "$work/reached"
nm -A --defined-only "$work"/lib/*.o "$work"/prog/*.o |
  awk '$2 ~ /^[TtWw]$/ { sub(/:[^:]*$/, "", $1); print $3, $1 }' |
  sort -u -k1,1 | join -v1 - "$work/reached" | awk '{ print $2, $1 }' \
  > "$work/candidates"
cut -d' ' -f2 "$work/candidates" | c++filt |
  paste -d'\t' "$work/candidates" - | awk -F'\t' '$2 ~ /^mca::/' \
  > "$work/unreached_all"

# Drop the compiler-made: closure members other than operator(), then any
# function whose first line is a class head (GCC gives a line to only one
# of a constructor's two symbols, so the name goes if either is there).
: > "$work/lines"
for object in $(cut -d' ' -f1 "$work/unreached_all" | sort -u); do
  nm -l --defined-only "$object" | awk -F'\t' 'NF == 2 {
    split($1, f, " "); print f[3] "\t" $2 }' >> "$work/lines"
done
awk -F'\t' -v made="$work/made" '
  FNR == NR { sub(/ .*/, "", $2); where[$1] = $2; next }
  {
    split($1, pair, " ")
    name[$2]
    n = split($2, scope, /#[0-9]+\}::/)
    if (n > 1 && scope[n] !~ /^operator\(\)\(/) { compiler[$2]; next }
    file = where[pair[2]]; line = file
    sub(/:[0-9]+$/, "", file); sub(/.*:/, "", line)
    if (file != "" && !(file in read)) {
      read[file]
      for (i = 1; (getline text < file) > 0; i++) head[file, i] = text
      close(file)
    }
    if (head[file, line] ~ /^[ \t]*(struct|class|union)[ \t]/) compiler[$2]
  }
  END {
    for (f in name) if (f in compiler) dropped++; else print f
    print dropped + 0 > made
  }' "$work/lines" "$work/unreached_all" | sort > "$work/unreached"

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
     "allowlisted, $(cat "$work/made") compiler-made skipped," \
     "$(wc -l < "$programs") programs linked" >&2
[ "$reported" -eq 0 ] || status=1
exit "$status"
