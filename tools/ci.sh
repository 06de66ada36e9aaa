#!/usr/bin/env bash
# Tier-1 verification, run locally or by CI: configure, build, and test the
# whole tree in both Debug and Release.
#
#   tools/ci.sh            # both configurations
#   tools/ci.sh Release    # one configuration
set -euo pipefail

cd "$(dirname "$0")/.."

configs=("$@")
if [ ${#configs[@]} -eq 0 ]; then
  configs=(Debug Release)
fi

jobs=$(nproc 2>/dev/null || echo 2)

for config in "${configs[@]}"; do
  build_dir="build-$(echo "${config}" | tr '[:upper:]' '[:lower:]')"
  echo "==> ${config}: configure"
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE="${config}"
  echo "==> ${config}: build"
  cmake --build "${build_dir}" -j "${jobs}"
  echo "==> ${config}: test"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
  if [ "${config}" = "Release" ]; then
    # Smoke-run the search-throughput bench (no timing assertions enforced
    # here; the SHAPE lines document the cache speedup, the bit-identity,
    # and the parallel-portfolio threads sweep) and archive its
    # machine-readable summary — threads_sweep section included — as a
    # build artifact.
    echo "==> ${config}: bench smoke (search throughput)"
    "./${build_dir}/bench_search_throughput" --quick \
        --json "${build_dir}/BENCH_search_throughput.json"
    # Part 3 (bound screens + metaheuristic islands) must be present in the
    # artifact: its search_pruning section records the prune sweep, the
    # bit-identity verdicts, and the greedy/anneal/tabu portfolio.
    grep -q '"search_pruning"' "${build_dir}/BENCH_search_throughput.json"
    # The sampling bench is the guardrail for the SIMD refill layer: it
    # exits 1 when the batched stream, a family's variates, or a replicated
    # simulation is not byte-identical to the scalar engine, so a
    # correctness regression fails CI here. Its speedup verdicts depend on
    # the host and do not gate.
    echo "==> ${config}: bench smoke (sampling throughput)"
    "./${build_dir}/bench_sampling_throughput" --quick \
        --json "${build_dir}/BENCH_sampling_throughput.json"
    # The serve load generator SHAPE-checks the pattern-store contract end
    # to end (warm responses byte-identical to the cold baseline, warm
    # requests/sec win) and reports rps + p50/p95/p99 for both runs.
    echo "==> ${config}: bench smoke (serve load)"
    "./${build_dir}/bench_serve_load" --quick \
        --json "${build_dir}/BENCH_serve_load.json"
    grep -q '"identical_responses":true' "${build_dir}/BENCH_serve_load.json"
    # The §7.7 state-space sweep exits 1 when a stationary solve misses its
    # residual bound or Gauss–Seidel disagrees with the dense LU reference,
    # so a failing sweep fails CI here. Its run-time line is SHAPE-INFO: the
    # timings depend on the host.
    echo "==> ${config}: bench smoke (sec77 state-space sweep)"
    "./${build_dir}/bench_sec77_runtime" --quick
    # The differential corpus slice already ran (and gated) as the
    # fuzz_smoke CTest above; re-emit its machine-readable report as a
    # build artifact next to the bench JSONs.
    echo "==> ${config}: fuzz corpus report"
    "./${build_dir}/streamflow_cli" fuzz --seed 1 --count 25 \
        --json "${build_dir}/FUZZ_report.json"
    echo "==> ${config}: bench summary artifacts"
    cat "${build_dir}/BENCH_search_throughput.json"
    cat "${build_dir}/BENCH_sampling_throughput.json"
    cat "${build_dir}/BENCH_serve_load.json"
    cat "${build_dir}/FUZZ_report.json"
  fi
done

# Static-analysis stage, mirroring the clang-static-analysis CI job. Each
# tool is availability-gated (with a loud skip notice) so the script stays
# runnable on gcc-only boxes: the thread-safety annotations compile as
# no-ops there, and only the clang toolchain can actually check them.
if command -v clang++ >/dev/null 2>&1; then
  echo "==> clang: configure + build (-Wthread-safety -Werror=thread-safety)"
  cmake -B build-clang -S . -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++
  cmake --build build-clang -j "${jobs}"
  echo "==> clang: test (includes the lint CTest)"
  ctest --test-dir build-clang --output-on-failure -j "${jobs}"

  # Mutation spot-check: deleting the SF_REQUIRES contract from
  # ThreadPool::work_done() must break the build, proving the annotations
  # are enforced rather than silently compiled away.
  echo "==> clang: thread-safety mutation spot-check"
  sed -i 's/bool work_done() const SF_REQUIRES(mutex_)/bool work_done() const/' \
      src/engine/thread_pool.hpp
  if cmake --build build-clang -j "${jobs}" --target streamflow \
      2> build-clang/mutation.log; then
    git checkout -- src/engine/thread_pool.hpp
    echo "ERROR: removing SF_REQUIRES from work_done() did not break the build"
    exit 1
  fi
  grep -q "thread-safety" build-clang/mutation.log
  git checkout -- src/engine/thread_pool.hpp
  cmake --build build-clang -j "${jobs}" --target streamflow

  if command -v run-clang-tidy >/dev/null 2>&1; then
    echo "==> clang-tidy (curated zero-warning baseline)"
    run-clang-tidy -p build-clang -quiet "$(pwd)/(src|tools|tests|bench)/.*"
  else
    echo "==> SKIP clang-tidy: run-clang-tidy not on PATH"
  fi

  if command -v clang-format >/dev/null 2>&1; then
    # tests/fixtures/ is excluded: the planted-violation fixtures pin exact
    # line numbers, so reformatting them would break test_lint.
    echo "==> clang-format (baseline check)"
    git ls-files 'src/**/*.cpp' 'src/**/*.hpp' 'tools/*.cpp' 'tools/*.hpp' \
        'tests/test_*.cpp' 'tests/support/*.cpp' 'tests/*.hpp' \
        'bench/*.cpp' 'bench/*.hpp' \
      | xargs clang-format --dry-run -Werror
  else
    echo "==> SKIP clang-format: not on PATH"
  fi
else
  echo "==> SKIP clang static-analysis stage: clang++ not on PATH"
  echo "    (thread-safety annotations compile as no-ops under gcc; the"
  echo "     clang-static-analysis CI job is the enforcing run)"
fi

echo "==> all configurations green"
