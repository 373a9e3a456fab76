#!/usr/bin/env bash
# Reachability report: prints the attain:: functions of the library that no
# non-test binary keeps.
#
#   tools/unreached_symbols.sh <build-dir>            report only
#   tools/unreached_symbols.sh --check <build-dir>    report, then gate
#
# Builds, under <build-dir>, every example and bench binary and the
# e2e_bench binary at -O0 with one section per function, links them with
# --gc-sections, and compares the text symbols each binary keeps against
# those libattain_lib.a defines. A function listed is compiled into the
# library but dropped by the linker from every binary: nothing outside the
# tests calls it.
#
# Report mode exits 0 whenever the scan ran. Check mode exits 1 when the
# report lists a function that tools/unreached_symbols.allow does not, so
# a new function without a production caller fails the build. Allowlist
# entries the report no longer lists are printed as stale, without
# failing (a symbol's spelling can differ between compiler versions).
#
# Blind spots:
#  - virtual functions are kept through their vtable whenever the class is
#    used, whether or not anything calls them;
#  - header-only code (inline functions, templates) is emitted only where
#    it is used, so unused header code never appears in the library and
#    is invisible here.
# Library-local instantiations of std:: templates whose demangled return
# type is an attain:: type (std::forward<attain::...>) show up in the list
# too; read them as the attain:: code that instantiated them.
#
# JOBS sets the build parallelism (default 2).
set -euo pipefail

check=0
if [[ $# -eq 2 && $1 == --check ]]; then
  check=1
  shift
fi
if [[ $# -ne 1 ]]; then
  echo "usage: $0 [--check] <build-dir>" >&2
  exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
jobs=${JOBS:-2}
flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG= "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

targets=()
for src in "$repo"/bench/bench_*.cpp "$repo"/examples/*.cpp; do
  targets+=("$(basename "$src" .cpp)")
done

echo "building ${#targets[@]} example/bench binaries and e2e_bench under $out" >&2
cmake -S "$repo" -B "$out/main" "${flags[@]}" > "$out/main.configure.log"
cmake --build "$out/main" -j "$jobs" --target attain_lib "${targets[@]}" > "$out/main.build.log"
cmake -S "$repo/e2e_bench" -B "$out/e2e" "${flags[@]}" > "$out/e2e.configure.log"
cmake --build "$out/e2e" -j "$jobs" --target e2e_bench > "$out/e2e.build.log"

# Demangled names of defined text symbols (strong or weak) in the attain
# namespace, one per line.
text_symbols() {
  nm -C --defined-only "$@" 2> /dev/null |
    awk '$2 ~ /^[TtWw]$/ { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
    grep '^attain::' | sort -u
}

lib=$(find "$out/main" -name libattain_lib.a | head -n 1)
binaries=("$out/e2e/e2e_bench")
for t in "${targets[@]}"; do
  bin=$(find "$out/main" -type f -name "$t" -perm -u+x | head -n 1)
  [[ -n "$bin" ]] && binaries+=("$bin")
done

text_symbols "$lib" > "$out/library.txt"
text_symbols "${binaries[@]}" > "$out/kept.txt"
comm -23 "$out/library.txt" "$out/kept.txt" > "$out/unreached.txt"

cat "$out/unreached.txt"
echo "$(wc -l < "$out/unreached.txt") of $(wc -l < "$out/library.txt") attain:: functions" \
  "reach none of ${#binaries[@]} binaries" >&2

if [[ $check -eq 1 ]]; then
  # The allowlist: blocks separated by blank lines, each a "# reason" line
  # followed by the symbols it covers, one per line.
  allow="$repo/tools/unreached_symbols.allow"
  if ! awk '
      BEGIN { fresh = 1 }
      /^[[:space:]]*$/ { fresh = 1; next }
      fresh && !/^#/ { print FILENAME ":" NR ": symbol block without a # reason line"; bad = 1 }
      { fresh = 0 }
      END { exit bad }
    ' "$allow" >&2; then
    exit 1
  fi
  grep -v -e '^#' -e '^[[:space:]]*$' "$allow" | sort -u > "$out/allowed.txt"
  comm -23 "$out/unreached.txt" "$out/allowed.txt" > "$out/unlisted.txt"
  comm -13 "$out/unreached.txt" "$out/allowed.txt" > "$out/stale.txt"
  if [[ -s "$out/stale.txt" ]]; then
    echo "allowlisted but no longer reported (remove from $allow):" >&2
    sed 's/^/  /' "$out/stale.txt" >&2
  fi
  if [[ -s "$out/unlisted.txt" ]]; then
    echo "functions without a production caller and not in $allow:" >&2
    sed 's/^/  /' "$out/unlisted.txt" >&2
    echo "delete each, give it a caller in an example, bench or e2e_bench, move it" \
      "under tests/support/, or list it with a reason" >&2
    exit 1
  fi
  echo "every unreached function is allowlisted" >&2
fi
