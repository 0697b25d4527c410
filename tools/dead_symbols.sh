#!/usr/bin/env bash
# Dead-library-code gate. Builds the repo and the perfbench runner in
# Release with -ffunction-sections -fdata-sections -Wl,--gc-sections, so
# the linker drops every function no binary reaches. A strong text (`T`)
# symbol that a src/* archive defines but none of the linked executables
# (tests, benches, examples, tools and perfbench) keeps is dead code.
# Each one must either be deleted or be listed, with a one-line reason,
# in tools/dead_symbols.allow (typically: the compiler inlined or elided
# every call, so the out-of-line copy is dropped although the source
# needs it).
#
#   tools/dead_symbols.sh [build-dir]     (default: <repo>/build-gc)
#
# perfbench/ is configured straight from its own CMakeLists.txt into
# <build-dir>/perfbench; no file under perfbench/ is touched.
# Exit status: 0 clean, 1 an unlisted dead function (or a malformed
# allow line).
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
OUT="${1:-$ROOT/build-gc}"
ALLOW="$ROOT/tools/dead_symbols.allow"

GC=(-DCMAKE_BUILD_TYPE=Release
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
mkdir -p "$OUT"
log="$OUT/build.log"
if ! { cmake -B "$OUT/repo" -S "$ROOT" "${GC[@]}" &&
       cmake --build "$OUT/repo" -j "$JOBS" &&
       cmake -B "$OUT/perfbench" -S "$ROOT/perfbench" "${GC[@]}" &&
       cmake --build "$OUT/perfbench" -j "$JOBS" --target perfbench
     } >"$log" 2>&1; then
  tail -n 40 "$log"
  echo "gc-sections build failed (full log: $log)" >&2
  exit 1
fi

# "<library>\t<demangled symbol>" for every strong text symbol of src/*.
defined="$OUT/lib_symbols.txt"
for lib in "$OUT"/repo/src/*/libeverest_*.a; do
  name="$(basename "$lib" .a)"
  nm -C --defined-only "$lib" |
    awk -v lib="${name#lib}" '$2 == "T" { sub(/^[^ ]+ T /, ""); print lib "\t" $0 }'
done | sort -t $'\t' -k2 -u >"$defined"

# Every symbol any linked executable still defines.
kept="$OUT/kept_symbols.txt"
binaries=()
while IFS= read -r bin; do binaries+=("$bin"); done < <(
  find "$OUT"/repo/{tests,bench,examples,tools} -maxdepth 1 -type f -executable
  echo "$OUT/perfbench/perfbench")
for bin in "${binaries[@]}"; do
  nm -C --defined-only "$bin" | sed 's/^[^ ]* [^ ] //'
done | sort -u >"$kept"

# Allow list: "<demangled symbol> # <reason>"; blank lines and lines
# starting with '#' are comments.
allowed="$OUT/allowed_symbols.txt"
bad=0
: >"$allowed"
while IFS= read -r line; do
  case "$line" in ''|'#'*) continue ;; esac
  if [[ "$line" != *' # '?* ]]; then
    echo "dead_symbols.allow: no reason given: $line" >&2
    bad=1
    continue
  fi
  echo "${line%% # *}" | sed 's/[[:space:]]*$//' >>"$allowed"
done <"$ALLOW"
sort -u -o "$allowed" "$allowed"

dead="$OUT/dead_symbols.txt"
# Lines of $2 (library<TAB>symbol) whose symbol is not a line of $1.
not_in() {
  awk -F'\t' -v set="$1" 'BEGIN { while ((getline s < set) > 0) in_set[s] = 1 }
                          !($2 in in_set)' "$2"
}
not_in "$kept" "$defined" >"$dead"
unlisted="$(not_in "$allowed" "$dead")"
stale="$(cut -f2 "$dead" | sort | comm -13 - "$allowed")"

echo "${#binaries[@]} binaries, $(wc -l <"$defined") library functions," \
     "$(wc -l <"$dead") kept in none ($(wc -l <"$allowed") allowed)"
if [ -n "$stale" ]; then
  echo "note: allowed but no longer dead (drop from the allow list):"
  echo "$stale" | sed 's/^/  /'
fi
if [ -n "$unlisted" ]; then
  echo "dead library functions (delete them, or allow with a reason):"
  echo "$unlisted" | sed 's/^/  /'
  exit 1
fi
exit "$bad"
