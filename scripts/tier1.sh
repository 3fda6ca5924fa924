#!/usr/bin/env bash
# Tier-1 verify loop (same commands as .github/workflows/ci.yml and
# ROADMAP.md): configure, build, run every registered test.
#
# Usage: scripts/tier1.sh [CONFIG]
#   CONFIG is a CMake build type (default RelWithDebInfo, the historical
#   tier-1 loop; pass Release to exercise the -O2 leg) or one of the
#   sanitizer presets:
#     asan  — ASan+UBSan   (-DEASEML_SANITIZE=address,undefined)
#     tsan  — ThreadSanitizer (-DEASEML_SANITIZE=thread), which races the
#             async training executor, the multi-device pipeline, and the
#             selector engine's lock at 1 and 4 shards (the engine
#             harness in tests/engine/ — its lockstep runner and its raced
#             Next/Report/Cancel/RemoveTenant battery — and the
#             SnapshotStress readers in tests/obs/ run under every preset
#             via ctest)
#     lint  — static-analysis leg: builds tools/easeml_lint and runs it
#             over src/ (determinism & lock-discipline rules), then — when
#             the pinned Clang major (or any newer clang) is installed —
#             rebuilds the tree with -Wthread-safety -Wthread-safety-beta
#             promoted to errors, and runs clang-tidy over src/ with the
#             committed .clang-tidy. The Clang stages skip with a notice
#             when no clang is on PATH (the stock container is GCC-only);
#             CI installs the pinned major so they always run there.
#   Non-default configs use their own build directory (build-<config>) so
#   the configurations never clobber each other.
set -euo pipefail
cd "$(dirname "$0")/.."

# The Clang major the -Wthread-safety and clang-tidy stages are pinned to
# (the version CI installs); any clang >= this also works locally.
EASEML_CLANG_MAJOR="${EASEML_CLANG_MAJOR:-18}"

CONFIG="${1:-RelWithDebInfo}"
BUILD_DIR="build"
CMAKE_ARGS=()

if [[ "${CONFIG}" == "lint" ]]; then
  BUILD_DIR="build-lint"

  echo "== easeml_lint: determinism & lock-discipline rules over src/"
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
        -DEASEML_BUILD_TESTS=OFF -DEASEML_BUILD_BENCH=OFF \
        -DEASEML_BUILD_EXAMPLES=OFF
  cmake --build "${BUILD_DIR}" -j --target easeml_lint
  "${BUILD_DIR}/tools/easeml_lint" src/

  # Locate the pinned clang (clang-18 first, then a new-enough plain clang).
  CLANG_CXX=""
  if command -v "clang++-${EASEML_CLANG_MAJOR}" >/dev/null 2>&1; then
    CLANG_CXX="clang++-${EASEML_CLANG_MAJOR}"
  elif command -v clang++ >/dev/null 2>&1; then
    FOUND_MAJOR="$(clang++ -dumpversion | cut -d. -f1)"
    if [[ "${FOUND_MAJOR}" -ge "${EASEML_CLANG_MAJOR}" ]]; then
      CLANG_CXX="clang++"
    fi
  fi

  if [[ -n "${CLANG_CXX}" ]]; then
    echo "== clang thread-safety analysis (-Wthread-safety*, as errors)"
    cmake -B build-tsa -S . -DCMAKE_BUILD_TYPE=Release \
          -DCMAKE_CXX_COMPILER="${CLANG_CXX}" \
          -DEASEML_BUILD_BENCH=OFF -DEASEML_BUILD_EXAMPLES=OFF
    cmake --build build-tsa -j
  else
    echo "NOTICE: clang++-${EASEML_CLANG_MAJOR} (or newer) not found;" \
         "skipping the -Wthread-safety build. The annotations compile to" \
         "no-ops under GCC; CI runs this stage with the pinned clang."
  fi

  TIDY_BIN=""
  if command -v "clang-tidy-${EASEML_CLANG_MAJOR}" >/dev/null 2>&1; then
    TIDY_BIN="clang-tidy-${EASEML_CLANG_MAJOR}"
  elif command -v clang-tidy >/dev/null 2>&1; then
    TIDY_BIN="clang-tidy"
  fi
  if [[ -n "${TIDY_BIN}" && -n "${CLANG_CXX}" ]]; then
    echo "== clang-tidy over src/ (.clang-tidy config)"
    find src -name '*.cc' -print0 | sort -z | \
      xargs -0 "${TIDY_BIN}" -p build-tsa --warnings-as-errors='*'
  else
    echo "NOTICE: clang-tidy-${EASEML_CLANG_MAJOR} not found; skipping" \
         "the tidy stage (CI runs it with the pinned clang)."
  fi
  exit 0
fi

case "${CONFIG}" in
  asan)
    BUILD_DIR="build-asan"
    CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
                -DEASEML_SANITIZE=address,undefined)
    ;;
  tsan)
    BUILD_DIR="build-tsan"
    CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
                -DEASEML_SANITIZE=thread)
    ;;
  *)
    if [[ "${CONFIG}" != "RelWithDebInfo" ]]; then
      BUILD_DIR="build-$(echo "${CONFIG}" | tr '[:upper:]' '[:lower:]')"
    fi
    CMAKE_ARGS=(-DCMAKE_BUILD_TYPE="${CONFIG}")
    ;;
esac

cmake -B "${BUILD_DIR}" -S . "${CMAKE_ARGS[@]}"
cmake --build "${BUILD_DIR}" -j
cd "${BUILD_DIR}" && ctest --output-on-failure -j

# Figure-9 digit parity gate: a perf PR must leave the end-to-end ease.ml
# trajectory untouched — every printed digit of the fig09 summary table has
# to match BENCH_baseline.json exactly. The protocol is deterministic
# (seeded, no wall-clock dependence); only the google-benchmark timing
# section varies run to run, and the filter skips it. EASEML_BENCH_REPS is
# unset so an inherited speed-up override can never change the measured
# digits (the baseline is the 50-rep protocol).
echo "== fig09 digit parity vs BENCH_baseline.json"
env -u EASEML_BENCH_REPS ./bench/fig09_end_to_end --benchmark_filter='^$' \
  > fig09_parity.out
python3 - fig09_parity.out ../BENCH_baseline.json <<'PYEOF'
import json, re, sys
table = {}
for line in open(sys.argv[1]):
    m = re.match(r'\|\s*\S+\s*\|\s*(\S+)\s*\|\s*([0-9.]+)\s*\|'
                 r'\s*([0-9.]+)\s*\|\s*([0-9.]+)\s*\|', line)
    if m:
        table[m.group(1)] = (m.group(2), m.group(3), m.group(4))
base = json.load(open(sys.argv[2]))['figure9_summary']['strategies']
failures = []
for entry in base:
    want = tuple('%.5f' % entry[k]
                 for k in ('final_avg_loss', 'final_worst_loss', 'auc'))
    got = table.get(entry['strategy'])
    if got != want:
        failures.append((entry['strategy'], want, got))
if not table:
    failures.append(('<no fig09 table parsed>', None, None))
for name, want, got in failures:
    print('fig09 PARITY FAILURE:', name, 'expected', want, 'got', got)
if failures:
    sys.exit(1)
print('fig09 digits match BENCH_baseline.json for %d strategies' % len(base))
PYEOF

# EXT-DEVICES digit parity gate: the same check for the D > 1 path of
# sim::RunSimulation. bench/extension_multi_device prints one row per device
# count (1, 2, 4, 8), and every printed digit has to match the
# ext_devices_summary section of BENCH_baseline.json (the 30-rep default,
# so EASEML_BENCH_REPS is unset here too).
echo "== extension_multi_device digit parity vs BENCH_baseline.json"
env -u EASEML_BENCH_REPS ./bench/extension_multi_device \
  --benchmark_filter='^$' > ext_devices_parity.out
python3 - ext_devices_parity.out ../BENCH_baseline.json <<'PYEOF'
import json, re, sys
table = {}
for line in open(sys.argv[1]):
    m = re.match(r'\|\s*(\d+)\s*\|\s*([0-9.]+)\s*\|\s*([0-9.]+)\s*\|'
                 r'\s*([0-9.]+)\s*\|', line)
    if m:
        table[int(m.group(1))] = (m.group(2), m.group(3), m.group(4))
base = json.load(open(sys.argv[2]))['ext_devices_summary']['rows']
failures = []
for entry in base:
    want = tuple('%.5f' % entry[k]
                 for k in ('mean_auc', 'final_avg_loss', 'loss_at_25pct'))
    got = table.get(entry['devices'])
    if got != want:
        failures.append((entry['devices'], want, got))
extra = sorted(set(table) - {entry['devices'] for entry in base})
if extra:
    failures.append(('rows not in the baseline', None, extra))
if not table:
    failures.append(('<no EXT-DEVICES table parsed>', None, None))
for name, want, got in failures:
    print('EXT-DEVICES PARITY FAILURE:', name, 'expected', want, 'got', got)
if failures:
    sys.exit(1)
print('EXT-DEVICES digits match BENCH_baseline.json for %d device counts'
      % len(base))
PYEOF
