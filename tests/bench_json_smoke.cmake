# CTest script: run one bench binary and validate its BENCH_<id>.json
# artifact (exists, parses as JSON, has the stable schema fields). When
# -DCOLLECT=<collect_bench executable> is given, additionally aggregate the
# work dir into BENCH_SUMMARY.json and validate the summary.
#   cmake -DBENCH=<binary> -DBENCH_ID=<id> -DWORK_DIR=<dir> [-DCOLLECT=<exe>]
#         -P bench_json_smoke.cmake

if(NOT DEFINED BENCH OR NOT DEFINED BENCH_ID OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBENCH=<bin> -DBENCH_ID=<id> -DWORK_DIR=<dir> -P bench_json_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${BENCH}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

set(artifact "${WORK_DIR}/BENCH_${BENCH_ID}.json")
if(NOT EXISTS "${artifact}")
  message(FATAL_ERROR "bench did not write ${artifact}")
endif()

file(READ "${artifact}" payload)

# string(JSON ...) raises a hard error on malformed JSON — exactly what we
# want from a validity smoke test.
string(JSON bench_field GET "${payload}" "bench")
if(NOT bench_field STREQUAL "${BENCH_ID}")
  message(FATAL_ERROR "bench field is '${bench_field}', expected '${BENCH_ID}'")
endif()
string(JSON schema_version GET "${payload}" "schema_version")
if(NOT schema_version EQUAL 1)
  message(FATAL_ERROR "unexpected schema_version '${schema_version}'")
endif()
string(JSON n_tables LENGTH "${payload}" "tables")
if(n_tables LESS 1)
  message(FATAL_ERROR "no tables in ${artifact}")
endif()
string(JSON n_cols LENGTH "${payload}" "tables" 0 "columns")
string(JSON n_rows LENGTH "${payload}" "tables" 0 "rows")
if(n_cols LESS 1 OR n_rows LESS 1)
  message(FATAL_ERROR "first table is empty (${n_cols} cols x ${n_rows} rows)")
endif()

message(STATUS "bench_json_smoke: BENCH_${BENCH_ID}.json valid (${n_tables} tables, ${n_cols}x${n_rows})")

# E15 serial-residue guard: the relaxed-greedy pipeline is fully pool-backed
# — every rg.* phase span the run records must be one of the declared
# harvest/commit phases, and all of them must have fired. A new rg.* span
# outside this set means someone added a serial phase to the hot path. The
# set is the README's phase table; rg.snapshot times the per-phase CSR copy
# of G'_{i-1}, which ran outside every span before it had one.
if(BENCH_ID STREQUAL "E15")
  set(parallel_spans "rg.phase0" "rg.bins" "rg.cover" "rg.filter" "rg.select"
    "rg.cluster_graph" "rg.queries" "rg.redundancy" "rg.snapshot")
  string(JSON n_spans ERROR_VARIABLE sp_err LENGTH "${payload}" "obs" "spans")
  if(NOT sp_err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "E15 artifact lacks the obs spans block: ${sp_err}")
  endif()
  math(EXPR last_span "${n_spans} - 1")
  set(rg_seen "")
  foreach(s_idx RANGE ${last_span})
    string(JSON span_name MEMBER "${payload}" "obs" "spans" ${s_idx})
    if(NOT span_name MATCHES "^rg\\.")
      continue()
    endif()
    list(FIND parallel_spans "${span_name}" par_idx)
    if(par_idx EQUAL -1)
      message(FATAL_ERROR "E15 obs block records serial-residue phase '${span_name}' — "
        "every rg.* phase must run on the worker pool (harvest/commit)")
    endif()
    string(JSON span_count GET "${payload}" "obs" "spans" "${span_name}" "count")
    if(span_count GREATER 0)
      list(APPEND rg_seen "${span_name}")
    endif()
  endforeach()
  list(LENGTH parallel_spans n_expected)
  list(LENGTH rg_seen n_rg)
  if(NOT n_rg EQUAL n_expected)
    message(FATAL_ERROR "E15 obs block fired ${n_rg}/${n_expected} pool-backed rg.* phases "
      "(${rg_seen}) — a declared parallel phase went silent")
  endif()
  message(STATUS "bench_json_smoke: E15 rg.* spans all pool-backed (${n_rg}/${n_expected})")
endif()

if(DEFINED COLLECT)
  execute_process(
    COMMAND "${COLLECT}" "${WORK_DIR}"
    RESULT_VARIABLE crc
    OUTPUT_VARIABLE cout
    ERROR_VARIABLE cerr)
  if(NOT crc EQUAL 0)
    message(FATAL_ERROR "collect_bench failed (${crc})\nstdout:\n${cout}\nstderr:\n${cerr}")
  endif()
  set(summary_file "${WORK_DIR}/BENCH_SUMMARY.json")
  if(NOT EXISTS "${summary_file}")
    message(FATAL_ERROR "collect_bench did not write ${summary_file}")
  endif()
  file(READ "${summary_file}" summary)
  string(JSON summary_version GET "${summary}" "schema_version")
  if(NOT summary_version EQUAL 1)
    message(FATAL_ERROR "unexpected summary schema_version '${summary_version}'")
  endif()
  string(JSON summary_count GET "${summary}" "count")
  string(JSON n_benches LENGTH "${summary}" "benches")
  if(summary_count LESS 1 OR NOT n_benches EQUAL summary_count)
    message(FATAL_ERROR "summary count mismatch: count=${summary_count}, benches=${n_benches}")
  endif()
  string(JSON first_id GET "${summary}" "benches" 0 "bench")
  if(NOT first_id STREQUAL "${BENCH_ID}")
    message(FATAL_ERROR "summary first bench is '${first_id}', expected '${BENCH_ID}'")
  endif()
  message(STATUS "bench_json_smoke: BENCH_SUMMARY.json valid (${summary_count} benches)")
endif()
