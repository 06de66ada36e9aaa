#!/usr/bin/env bash
# Tier-1 verification, run locally or by CI: configure, build, and test the
# whole tree in both Debug and Release. Both build with -Werror: the tree is
# warning-free under GCC, and a new warning fails here.
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
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE="${config}" \
      -DCMAKE_CXX_FLAGS=-Werror
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
    # to end (warm responses byte-identical to the cold baseline, median
    # warm/cold requests/sec over alternating passes) and reports rps +
    # p50/p95/p99 for both servers.
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
    # Every artifact must parse as JSON: an "inf" or a stray comma fails
    # here rather than in whoever downloads the artifact.
    echo "==> ${config}: bench summary artifacts"
    for artifact in BENCH_search_throughput BENCH_sampling_throughput \
                    BENCH_serve_load FUZZ_report; do
      python3 -m json.tool "${build_dir}/${artifact}.json" > /dev/null
      cat "${build_dir}/${artifact}.json"
    done
  fi
done

# Sanitizer stage, mirroring the parse steps of the address-sanitizer CI
# job: the text reader and the byte-mutation parse fuzzer run under
# ASan/UBSan, so a mutated input that reads out of bounds fails even when
# the right exception comes out.
echo "==> asan/ubsan: text reader + parse fuzzer"
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
    -DSTREAMFLOW_BUILD_BENCH=OFF -DSTREAMFLOW_BUILD_EXAMPLES=OFF
cmake --build build-asan -j "${jobs}" --target test_text_reader test_parse_fuzz
ctest --test-dir build-asan -R "test_text_reader|test_parse_fuzz" \
    --output-on-failure

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
