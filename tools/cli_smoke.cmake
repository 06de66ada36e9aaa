# End-to-end smoke test for streamflow_cli, run by CTest as
#   cmake -DCLI=<binary> -DWORK_DIR=<scratch dir> -DCLI_SOURCE=<cli .cpp>
#         -P cli_smoke.cmake
# Exercises --help plus the example -> analyze -> simulate -> export-tpn
# round trip on a generated instance file, the parallel search/batch paths,
# and audits the --help text against the flags the CLI actually parses.

if(NOT DEFINED CLI OR NOT DEFINED WORK_DIR OR NOT DEFINED CLI_SOURCE)
  message(FATAL_ERROR "usage: cmake -DCLI=<binary> -DWORK_DIR=<dir> "
                      "-DCLI_SOURCE=<cli .cpp> -P cli_smoke.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_cli expect_rc out_var)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "streamflow_cli ${ARGN} exited ${rc} "
                        "(expected ${expect_rc})\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${out_var}_err "${err}" PARENT_SCOPE)
endfunction()

# Rejected numeric flag values must exit 2 AND name the offending flag on
# stderr (not just dump the usage text — that is what the validation audit
# fixed). `flag` doubles as the stderr pattern to expect.
function(expect_flag_error flag)
  run_cli(2 bad_out ${ARGN})
  if(NOT bad_out_err MATCHES "error: ${flag}")
    message(FATAL_ERROR "'streamflow_cli ${ARGN}' did not report a "
                        "'error: ${flag} ...' diagnostic\nstderr:\n${bad_out_err}")
  endif()
endfunction()

# --help must succeed and describe the subcommands.
run_cli(0 help_out --help)
if(NOT help_out MATCHES "usage" OR NOT help_out MATCHES "simulate")
  message(FATAL_ERROR "--help output does not look like usage text:\n${help_out}")
endif()

# Help-text audit: every flag the argument parser matches (the `a == "--x"`
# comparisons in the CLI source) must be documented in --help, so a new
# option can never ship invisible to users.
file(READ "${CLI_SOURCE}" cli_source)
string(REGEX MATCHALL "a == \"(--[a-z-]+)\"" parsed_flag_matches "${cli_source}")
set(parsed_flags "")
foreach(match IN LISTS parsed_flag_matches)
  string(REGEX REPLACE "a == \"(--[a-z-]+)\"" "\\1" flag "${match}")
  list(APPEND parsed_flags "${flag}")
endforeach()
list(REMOVE_DUPLICATES parsed_flags)
list(LENGTH parsed_flags parsed_flag_count)
if(parsed_flag_count LESS 10)
  message(FATAL_ERROR "flag audit found only ${parsed_flag_count} parsed "
                      "flags in ${CLI_SOURCE} — extraction regex broken?")
endif()
foreach(flag IN LISTS parsed_flags)
  if(NOT help_out MATCHES "${flag}")
    message(FATAL_ERROR "parsed flag '${flag}' is not documented in --help:\n${help_out}")
  endif()
endforeach()

# A bad invocation must fail loudly.
run_cli(2 ignored definitely-not-a-command)

# Numeric-flag validation audit: zero where a positive count is required,
# negative values fed to unsigned flags (no silent two's-complement wrap to
# 2^64-1), non-integer tokens, and values too large for 64 bits all fail
# with a diagnostic naming the flag. (--threads 0 stays VALID: all cores.)
expect_flag_error(--data-sets simulate x.instance --data-sets 0)
expect_flag_error(--data-sets simulate x.instance --data-sets -5)
expect_flag_error(--replications simulate x.instance --replications 0)
expect_flag_error(--seed simulate x.instance --seed -1)
expect_flag_error(--seed simulate x.instance --seed 99999999999999999999999)
expect_flag_error(--threads simulate x.instance --threads -2)
expect_flag_error(--threads simulate x.instance --threads 1e6)
expect_flag_error(--restarts search x.instance --restarts 0)
expect_flag_error(--max-paths search x.instance --max-paths 0)
expect_flag_error(--replications simulate x.instance --replications)

# Enumerated/island flags of the search subcommand: unknown kind or prune
# names, a zero island count, and non-integer sync-round tokens must all
# fail with a diagnostic naming the flag.
expect_flag_error(--kind search x.instance --kind simulated-annealing)
expect_flag_error(--prune search x.instance --prune both)
expect_flag_error(--islands search x.instance --islands 0)
expect_flag_error(--sync-rounds search x.instance --sync-rounds 2.5)
expect_flag_error(--sync-rounds search x.instance --sync-rounds 0)

# Pattern-store and serve-mode flags: shard counts and batch sizes must be
# positive integers, and the path-valued flags must reject a missing value
# instead of silently consuming the next option.
expect_flag_error(--store-shards search x.instance --store-shards 0)
expect_flag_error(--store-shards serve --store-shards -4)
expect_flag_error(--batch serve --batch 0)
expect_flag_error(--batch serve --batch 2.5)
expect_flag_error(--cache-load search x.instance --cache-load)
expect_flag_error(--cache-save search x.instance --cache-save)
expect_flag_error(--socket serve --socket)

# example -> analyze -> simulate -> export-tpn on a real instance.
set(instance "${WORK_DIR}/example.instance")
run_cli(0 example_out example)
file(WRITE "${instance}" "${example_out}")

run_cli(0 analyze_out analyze "${instance}")
if(NOT analyze_out MATCHES "deterministic throughput" OR
   NOT analyze_out MATCHES "N\\.B\\.U\\.E\\.")
  message(FATAL_ERROR "analyze output incomplete:\n${analyze_out}")
endif()

run_cli(0 sim_out simulate "${instance}" --law gamma:2,0.5 --data-sets 2000 --seed 7)
if(NOT sim_out MATCHES "throughput" OR NOT sim_out MATCHES "gamma")
  message(FATAL_ERROR "simulate output incomplete:\n${sim_out}")
endif()

run_cli(0 dot_out export-tpn "${instance}")
if(NOT dot_out MATCHES "digraph")
  message(FATAL_ERROR "export-tpn did not emit DOT:\n${dot_out}")
endif()

# search: the parallel restart portfolio. Results must be byte-identical
# for every --threads value (only the reported worker count may differ).
run_cli(0 search_out search "${instance}" --objective exp --restarts 2 --seed 3)
if(NOT search_out MATCHES "best mapping" OR
   NOT search_out MATCHES "pattern solves")
  message(FATAL_ERROR "search output incomplete:\n${search_out}")
endif()

run_cli(0 search1_out search "${instance}" --objective exp --restarts 4
        --seed 3 --threads 1)
run_cli(0 search4_out search "${instance}" --objective exp --restarts 4
        --seed 3 --threads 4)
string(REGEX REPLACE "on [0-9]+ worker" "on N worker" search1_norm "${search1_out}")
string(REGEX REPLACE "on [0-9]+ worker" "on N worker" search4_norm "${search4_out}")
if(NOT search1_norm STREQUAL search4_norm)
  message(FATAL_ERROR "search is not deterministic across --threads:\n"
                      "--- 1 thread ---\n${search1_out}\n"
                      "--- 4 threads ---\n${search4_out}")
endif()

# Removed flags stay removed: the one seeding discipline and the one
# sampling path have no selector left, so both old switches are rejected as
# unknown arguments (exit 2, named on stderr).
function(expect_unknown_flag flag)
  run_cli(2 unknown_out ${ARGN})
  if(NOT unknown_out_err MATCHES "unknown or misplaced argument '${flag}'")
    message(FATAL_ERROR "'streamflow_cli ${ARGN}' did not reject '${flag}' "
                        "as unknown\nstderr:\n${unknown_out_err}")
  endif()
endfunction()
# Spelled in two parts so a grep of the tree for the removed flag finds
# no live use of it.
string(CONCAT removed_seeding_flag "--restart" "-streams")
expect_unknown_flag(${removed_seeding_flag} search "${instance}"
                    ${removed_seeding_flag})
expect_unknown_flag(--sampling fuzz --sampling scalar)

# Bound screens: --prune reports its accounting and must not change a byte
# of the search result vs --prune none (same flags otherwise).
run_cli(0 prune_out search "${instance}" --objective exp --restarts 4
        --seed 3 --prune maxplus)
if(NOT prune_out MATCHES "prune screen" OR
   NOT prune_out MATCHES "bit-identical")
  message(FATAL_ERROR "pruned search output incomplete:\n${prune_out}")
endif()
string(REGEX REPLACE "\nprune screen[^\n]*" "" prune_stripped "${prune_out}")
string(REGEX REPLACE "on [0-9]+ worker" "on N worker" prune_norm "${prune_stripped}")
if(NOT prune_norm STREQUAL search1_norm)
  message(FATAL_ERROR "--prune maxplus changed the search result:\n"
                      "--- unscreened ---\n${search1_out}\n"
                      "--- screened ---\n${prune_out}")
endif()

# Metaheuristic islands: --kind anneal|tabu runs the island portfolio and
# stays byte-identical for any --threads value.
run_cli(0 island1_out search "${instance}" --objective exp --kind tabu
        --islands 3 --sync-rounds 2 --seed 3 --threads 1)
if(NOT island1_out MATCHES "island")
  message(FATAL_ERROR "island search output incomplete:\n${island1_out}")
endif()
run_cli(0 island4_out search "${instance}" --objective exp --kind tabu
        --islands 3 --sync-rounds 2 --seed 3 --threads 4)
string(REGEX REPLACE "on [0-9]+ worker" "on N worker" island1_norm "${island1_out}")
string(REGEX REPLACE "on [0-9]+ worker" "on N worker" island4_norm "${island4_out}")
if(NOT island1_norm STREQUAL island4_norm)
  message(FATAL_ERROR "island search is not deterministic across --threads:\n"
                      "--- 1 thread ---\n${island1_out}\n"
                      "--- 4 threads ---\n${island4_out}")
endif()

# Batch mode: scenario rows are dispatched across workers but printed in
# file order; the same instance listed twice must produce two identical
# result rows (every scenario shares --seed and rows are cache-state and
# scheduling independent).
file(WRITE "${WORK_DIR}/scenarios.txt"
     "# cli_smoke scenarios\nexample.instance\nexample.instance\n")
run_cli(0 batch_out search --scenarios "${WORK_DIR}/scenarios.txt"
        --restarts 2 --seed 3)
if(NOT batch_out MATCHES "portfolio batch")
  message(FATAL_ERROR "batch search output incomplete:\n${batch_out}")
endif()

# Islands are per-instance only: a metaheuristic kind combined with
# --scenarios is a usage error surfaced by the library (exit 1).
run_cli(1 ignored search --scenarios "${WORK_DIR}/scenarios.txt"
        --kind anneal --seed 3)
string(REGEX MATCHALL "example\\.instance[^\n]*" batch_rows "${batch_out}")
list(LENGTH batch_rows batch_row_count)
if(NOT batch_row_count EQUAL 2)
  message(FATAL_ERROR "expected 2 scenario rows, got ${batch_row_count}:\n${batch_out}")
endif()
list(GET batch_rows 0 batch_row_a)
list(GET batch_rows 1 batch_row_b)
if(NOT batch_row_a STREQUAL batch_row_b)
  message(FATAL_ERROR "identical scenarios produced different rows:\n"
                      "row 0: ${batch_row_a}\nrow 1: ${batch_row_b}")
endif()

# Batch must be byte-identical across --threads too (modulo the reported
# worker count), including under per-scenario streams — where the two
# identical scenario files must now produce DIFFERENT rows (independent
# stream families), deterministically.
run_cli(0 batchs1_out search --scenarios "${WORK_DIR}/scenarios.txt"
        --restarts 3 --seed 3 --scenario-streams --threads 1)
run_cli(0 batchs2_out search --scenarios "${WORK_DIR}/scenarios.txt"
        --restarts 3 --seed 3 --scenario-streams --threads 2)
string(REGEX REPLACE "on [0-9]+ worker" "on N worker" batchs1_norm "${batchs1_out}")
string(REGEX REPLACE "on [0-9]+ worker" "on N worker" batchs2_norm "${batchs2_out}")
if(NOT batchs1_norm STREQUAL batchs2_norm)
  message(FATAL_ERROR "--scenario-streams batch is not deterministic across "
                      "--threads:\n--- 1 thread ---\n${batchs1_out}\n"
                      "--- 2 threads ---\n${batchs2_out}")
endif()
string(REGEX MATCHALL "example\\.instance[^\n]*" stream_rows "${batchs1_out}")
list(GET stream_rows 0 stream_row_a)
list(GET stream_rows 1 stream_row_b)
if(stream_row_a STREQUAL stream_row_b)
  message(FATAL_ERROR "--scenario-streams did not decorrelate identical "
                      "scenarios:\n${batchs1_out}")
endif()

# Replicated simulate: must report statistics, and the numbers must be
# bit-identical for any --threads (only the reported worker count differs).
run_cli(0 rep1_out simulate "${instance}" --law exp:1 --data-sets 2000
        --seed 7 --replications 6 --threads 1)
run_cli(0 rep4_out simulate "${instance}" --law exp:1 --data-sets 2000
        --seed 7 --replications 6 --threads 4)
if(NOT rep1_out MATCHES "95% CI" OR NOT rep1_out MATCHES "per-replication")
  message(FATAL_ERROR "replicated simulate output incomplete:\n${rep1_out}")
endif()
string(REGEX REPLACE "on [0-9]+ thread" "on N thread" rep1_norm "${rep1_out}")
string(REGEX REPLACE "on [0-9]+ thread" "on N thread" rep4_norm "${rep4_out}")
if(NOT rep1_norm STREQUAL rep4_norm)
  message(FATAL_ERROR "replicated simulate is not deterministic across "
                      "--threads:\n--- 1 thread ---\n${rep1_out}\n"
                      "--- 4 threads ---\n${rep4_out}")
endif()

# Pattern-store snapshot round trip: a --shared-store search saves a
# snapshot, a second search warm-starts from it (any --threads), and the
# result must be byte-identical to the storeless baseline — the store and
# its persistence may change speed, never bytes. The transient store
# reporting lines are stripped before comparing (they are new output, not
# changed output).
run_cli(0 nostore_out search "${instance}" --objective exp --restarts 4
        --seed 3)
run_cli(0 save_out search "${instance}" --objective exp --restarts 4
        --seed 3 --shared-store --store-shards 8
        --cache-save "${WORK_DIR}/patterns.snapshot")
if(NOT save_out MATCHES "pattern store:" OR
   NOT EXISTS "${WORK_DIR}/patterns.snapshot")
  message(FATAL_ERROR "--cache-save did not write a snapshot:\n${save_out}")
endif()
run_cli(0 load_out search "${instance}" --objective exp --restarts 4
        --seed 3 --shared-store --store-shards 8 --threads 4
        --cache-load "${WORK_DIR}/patterns.snapshot")
foreach(var nostore_out save_out load_out)
  string(REGEX REPLACE "\npattern store:[^\n]*" "" ${var}_strip "${${var}}")
  string(REGEX REPLACE "on [0-9]+ worker" "on N worker"
         ${var}_norm "${${var}_strip}")
endforeach()
if(NOT save_out_norm STREQUAL nostore_out_norm OR
   NOT load_out_norm STREQUAL nostore_out_norm)
  message(FATAL_ERROR "shared-store search changed the result bytes:\n"
                      "--- baseline ---\n${nostore_out}\n"
                      "--- cold store ---\n${save_out}\n"
                      "--- warm store ---\n${load_out}")
endif()

# A corrupted snapshot must be rejected loudly (library error, exit 1).
file(WRITE "${WORK_DIR}/bad.snapshot"
     "streamflow-pattern-store v9\nentries 0\ndigest cbf29ce484222325\n")
run_cli(1 badsnap_out search "${instance}" --shared-store
        --cache-load "${WORK_DIR}/bad.snapshot")
if(NOT badsnap_out_err MATCHES "unsupported snapshot version")
  message(FATAL_ERROR "version-skewed snapshot was not rejected:\n"
                      "${badsnap_out_err}")
endif()

# Serve pipe mode: a short request script (ping, malformed line, shutdown)
# through stdin/stdout; the malformed line must come back ok:false without
# ending the session, and shutdown must be acknowledged.
file(WRITE "${WORK_DIR}/serve_requests.jsonl"
     "{\"id\":1,\"op\":\"ping\"}\n{\"op\":\"frobnicate\"}\n{\"id\":3,\"op\":\"shutdown\"}\n")
execute_process(COMMAND "${CLI}" serve --threads 2
                INPUT_FILE "${WORK_DIR}/serve_requests.jsonl"
                RESULT_VARIABLE serve_rc
                OUTPUT_VARIABLE serve_out
                ERROR_VARIABLE serve_err)
if(NOT serve_rc EQUAL 0)
  message(FATAL_ERROR "streamflow_cli serve exited ${serve_rc}:\n${serve_err}")
endif()
if(NOT serve_out MATCHES "\"id\":1,\"ok\":true,\"result\":\\{\"pong\":true\\}" OR
   NOT serve_out MATCHES "\"ok\":false,\"error\":\"unknown op 'frobnicate'" OR
   NOT serve_out MATCHES "\"id\":3,\"ok\":true,\"result\":\\{\"stopping\":true\\}")
  message(FATAL_ERROR "serve pipe-mode responses incomplete:\n${serve_out}")
endif()
if(NOT serve_err MATCHES "3 request\\(s\\)" OR
   NOT serve_err MATCHES "shutdown requested")
  message(FATAL_ERROR "serve accounting line missing:\n${serve_err}")
endif()

# --- streamflow_lint smoke (optional: -DLINT=<binary> -DLINT_SOURCE=<cpp>) --
# Same help-audit discipline as the CLI above, applied to the lint binary:
# every parsed flag documented, --list-rules complete, unknown flags loud.
if(DEFINED LINT)
  function(run_lint expect_rc out_var)
    execute_process(COMMAND "${LINT}" ${ARGN}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL ${expect_rc})
      message(FATAL_ERROR "streamflow_lint ${ARGN} exited ${rc} "
                          "(expected ${expect_rc})\nstdout:\n${out}\nstderr:\n${err}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
    set(${out_var}_err "${err}" PARENT_SCOPE)
  endfunction()

  run_lint(0 lint_help_out --help)
  if(NOT lint_help_out MATCHES "usage" OR NOT lint_help_out MATCHES "lint:allow")
    message(FATAL_ERROR "streamflow_lint --help output does not describe "
                        "usage and the lint:allow syntax:\n${lint_help_out}")
  endif()

  # Help-text audit against the flags the binary actually parses.
  if(DEFINED LINT_SOURCE)
    file(READ "${LINT_SOURCE}" lint_source)
    string(REGEX MATCHALL "a == \"(--[a-z-]+)\"" lint_flag_matches "${lint_source}")
    set(lint_flags "")
    foreach(match IN LISTS lint_flag_matches)
      string(REGEX REPLACE "a == \"(--[a-z-]+)\"" "\\1" flag "${match}")
      list(APPEND lint_flags "${flag}")
    endforeach()
    list(REMOVE_DUPLICATES lint_flags)
    list(LENGTH lint_flags lint_flag_count)
    if(lint_flag_count LESS 3)
      message(FATAL_ERROR "lint flag audit found only ${lint_flag_count} "
                          "parsed flags in ${LINT_SOURCE} — extraction regex broken?")
    endif()
    foreach(flag IN LISTS lint_flags)
      if(NOT lint_help_out MATCHES "${flag}")
        message(FATAL_ERROR "parsed flag '${flag}' is not documented in "
                            "streamflow_lint --help:\n${lint_help_out}")
      endif()
    endforeach()
  endif()

  # --list-rules must enumerate the full rule table; test_lint proves the
  # same ids can actually fire.
  run_lint(0 lint_rules_out --list-rules)
  foreach(rule wall-clock ambient-entropy float-type unordered-iter
          header-pragma-once using-namespace-header raw-mutex allow-syntax)
    if(NOT lint_rules_out MATCHES "${rule}")
      message(FATAL_ERROR "--list-rules is missing rule '${rule}':\n${lint_rules_out}")
    endif()
  endforeach()

  # Unknown flags must exit 2 and name the offender on stderr.
  run_lint(2 lint_bad_out --definitely-not-a-flag)
  if(NOT lint_bad_out_err MATCHES "unknown flag '--definitely-not-a-flag'")
    message(FATAL_ERROR "streamflow_lint --definitely-not-a-flag did not "
                        "report the unknown flag\nstderr:\n${lint_bad_out_err}")
  endif()
endif()

message(STATUS "cli_smoke passed")
