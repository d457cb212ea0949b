#!/usr/bin/env bash
# Fleet benchmark: builds ratt_bench (Release, into build-bench/), runs its
# statistics test, then runs the benchmark. From the repository root:
#
#   benchmark/run.sh                       every workload, seed 1: warm-up +
#                                          5 repetitions + 1 traced run each
#   benchmark/run.sh --seed 2 --history benchmark/history.jsonl
#   benchmark/run.sh --workload periodic_traced --seed 3 --seconds 20 --trace 0
#   benchmark/run.sh --compare A.json B.json
#
# Build output goes to stderr: the last stdout line of a --workload run is
# its JSON result. Result sets and traced-run span files land in build-bench/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build=build-bench

if [[ ! -f $build/build.ninja && ! -f $build/Makefile ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S benchmark -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target ratt_bench stats_test -j "$(nproc)" >&2
"$build/stats_test" >&2

sha="$(git describe --always --dirty 2>/dev/null || echo none)"
exec "$build/ratt_bench" --out-dir "$build" --golden benchmark/golden.json \
  --git-sha "$sha" "$@"
