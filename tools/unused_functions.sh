#!/usr/bin/env bash
# Lists the src/ library functions that no shipped binary links.
#
# Builds the src/ static libraries, every example, every bench and the
# perfbench benchmark with -ffunction-sections -fdata-sections and
# -Wl,--gc-sections, so each binary keeps only the functions it can
# reach. A strong function (nm type T) that some library defines but no
# binary contains is unused: only tests or nothing at all call it. The
# build is -O0 so that inlining never drops a function that is called,
# and the list does not depend on the compiler's inlining choices.
#
# Usage: tools/unused_functions.sh [--check] [build-dir]
#   build-dir  scratch build tree (default: build-unused); perfbench is
#              configured in build-dir/perfbench
#   (default)  print the unused functions, one demangled name a line
#   --check    exit 1 when an unused function is missing from
#              tools/unused_functions.allow; allowlisted names that are
#              linked again or no longer exist are reported, not fatal
set -euo pipefail

check=0
if [[ "${1:-}" == "--check" ]]; then
    check=1
    shift
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-build-unused}"
allow="$root/tools/unused_functions.allow"
jobs="$(nproc 2>/dev/null || echo 2)"

flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

# Runs a build step quietly; its log is shown only when it fails.
quiet() {
    mkdir -p "$build"
    if ! "$@" >"$build/unused_functions.log" 2>&1; then
        tail -n 40 "$build/unused_functions.log" >&2
        echo "unused_functions: build step failed: $*" >&2
        exit 2
    fi
}

quiet cmake -S "$root" -B "$build" "${flags[@]}" \
    -DCHRYSALIS_BUILD_TESTS=OFF -DCHRYSALIS_BUILD_TOOLS=OFF
quiet cmake --build "$build" -j "$jobs"
quiet cmake -S "$root/perfbench" -B "$build/perfbench" "${flags[@]}"
quiet cmake --build "$build/perfbench" -j "$jobs" --target perfbench

# Strong text symbols, demangled; "addr T name" -> "name".
strong_functions() {
    nm -C --defined-only "$@" 2>/dev/null | sed -n 's/^[0-9a-f]* T //p'
}

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mapfile -t libraries < <(find "$build/src" -name 'libchrysalis_*.a' | sort)
mapfile -t binaries < <(find "$build/examples" "$build/bench" \
    -maxdepth 1 -type f -perm -u+x | sort)
binaries+=("$build/perfbench/perfbench")
if (( ${#libraries[@]} == 0 || ${#binaries[@]} < 2 )); then
    echo "unused_functions: nothing built under $build" >&2
    exit 2
fi

strong_functions "${libraries[@]}" | sort -u >"$work/defined"
for binary in "${binaries[@]}"; do
    strong_functions "$binary"
done | sort -u >"$work/linked"
comm -23 "$work/defined" "$work/linked" >"$work/unused"

if (( ! check )); then
    cat "$work/unused"
    echo "unused_functions: $(wc -l <"$work/unused") of" \
         "$(wc -l <"$work/defined") library functions are linked by no" \
         "shipped binary (${#binaries[@]} binaries)" >&2
    exit 0
fi

grep -v -e '^#' -e '^$' "$allow" | sort -u >"$work/allowed"
comm -23 "$work/unused" "$work/allowed" >"$work/new"
comm -13 "$work/unused" "$work/allowed" >"$work/stale"
if [[ -s "$work/stale" ]]; then
    echo "unused_functions: allowlisted but linked or gone (drop them" \
         "from tools/unused_functions.allow):" >&2
    sed 's/^/  /' "$work/stale" >&2
fi
if [[ -s "$work/new" ]]; then
    echo "unused_functions: library functions linked by no shipped" \
         "binary and not allowlisted:" >&2
    sed 's/^/  /' "$work/new" >&2
    echo "Delete them, call them from a shipped path, or add them to" \
         "tools/unused_functions.allow with a reason." >&2
    exit 1
fi
echo "unused_functions: $(wc -l <"$work/unused") unused, all allowlisted"
