# CI corpus slice + determinism contract for `streamflow_cli fuzz`, run by
# CTest as
#   cmake -DCLI=<binary> -DWORK_DIR=<scratch dir> -P fuzz_smoke.cmake
#
# 1. Runs the fixed 25-scenario corpus slice (--seed 1) and requires zero
#    divergences, writing the JSON report to WORK_DIR for CI to archive.
# 2. Pins the determinism contract: the status digest is bit-identical
#    across --threads 1/2/8, and the full JSON report is bit-identical
#    across thread counts.
# 3. Smoke-tests --emit-corpus (fixture-regeneration path).

if(NOT DEFINED CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<binary> -DWORK_DIR=<dir> "
                      "-P fuzz_smoke.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_fuzz expect_rc out_var)
  execute_process(COMMAND "${CLI}" fuzz ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "streamflow_cli fuzz ${ARGN} exited ${rc} "
                        "(expected ${expect_rc})\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# The corpus slice: 25 scenarios span every regime five times and every law
# family at least twice. Zero divergences required (exit code 0), JSON
# report saved as the CI artifact.
run_fuzz(0 slice_out --seed 1 --count 25
         --json "${WORK_DIR}/fuzz_report.json"
         --divergence-dir "${WORK_DIR}/divergences")
if(NOT slice_out MATCHES "divergences=0")
  message(FATAL_ERROR "corpus slice reported divergences:\n${slice_out}")
endif()
if(NOT slice_out MATCHES "fail=0")
  message(FATAL_ERROR "corpus slice reported check failures:\n${slice_out}")
endif()
if(NOT EXISTS "${WORK_DIR}/fuzz_report.json")
  message(FATAL_ERROR "fuzz did not write the --json report")
endif()
if(EXISTS "${WORK_DIR}/divergences")
  message(FATAL_ERROR "a clean run must not create the divergence directory")
endif()

# Status digest: bit-identical across thread counts.
run_fuzz(0 digest_t1 --seed 1 --count 25 --threads 1 --digest)
run_fuzz(0 digest_t2 --seed 1 --count 25 --threads 2 --digest)
run_fuzz(0 digest_t8 --seed 1 --count 25 --threads 8 --digest)
if(NOT digest_t1 STREQUAL digest_t2 OR NOT digest_t1 STREQUAL digest_t8)
  message(FATAL_ERROR "fuzz digest differs across --threads:\n"
                      "--- 1 thread ---\n${digest_t1}\n"
                      "--- 2 threads ---\n${digest_t2}\n"
                      "--- 8 threads ---\n${digest_t8}")
endif()

# Full JSON report: bit-identical across thread counts.
run_fuzz(0 ignored --seed 1 --count 25 --threads 1
         --json "${WORK_DIR}/report_t1.json")
run_fuzz(0 ignored --seed 1 --count 25 --threads 2
         --json "${WORK_DIR}/report_t2.json")
file(READ "${WORK_DIR}/report_t1.json" json_t1)
file(READ "${WORK_DIR}/report_t2.json" json_t2)
if(NOT json_t1 STREQUAL json_t2)
  message(FATAL_ERROR "fuzz --json differs between --threads 1 and 2")
endif()

# --emit-corpus writes one parseable .scenario file per index.
run_fuzz(0 emit_out --seed 1 --count 5 --emit-corpus "${WORK_DIR}/corpus")
foreach(k RANGE 4)
  if(NOT EXISTS "${WORK_DIR}/corpus/s${k}.scenario")
    message(FATAL_ERROR "--emit-corpus did not write s${k}.scenario")
  endif()
endforeach()

message(STATUS "fuzz_smoke passed")
