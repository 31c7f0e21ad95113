# CTest script: run collect_bench over the fixture directories in
# tests/collect_bench/. Each fail_* directory breaks one check and must exit
# nonzero with the message listed below; pass/ must aggregate into a summary
# byte-identical to tests/collect_bench/pass_summary.json.
#   cmake -DCOLLECT=<collect_bench> -DFIXTURES=<tests/collect_bench>
#         -DWORK_DIR=<dir> -P collect_bench_fixtures.cmake

if(NOT DEFINED COLLECT OR NOT DEFINED FIXTURES OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCOLLECT=<exe> -DFIXTURES=<dir> -DWORK_DIR=<dir> -P collect_bench_fixtures.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(cases
  "fail_malformed=BENCH_E1.json: unexpected end of JSON input"
  "fail_schema_version=BENCH_E1.json has schema_version '2'"
  "fail_e6_rows=E6 has 8 records, expected >= 9"
  "fail_e9_hops=E9 row 1 max query hops (L8) is '51', expected <= 50 (1x L8 cap 2+ceil(tr/d))"
  "fail_e15_alloc=E15 meta alloc_free_steady_state is 'no', expected yes"
  "fail_e15_baseline_columns=E15 row 4 inc ms/ev is '1000', expected <= 7.155"
  "fail_e15_obs_overhead=E15 meta obs_overhead_pct is '4.5', expected <= 3"
  "fail_e15_batch_throughput=E15 best batch ev/s at n=100000 is 9000.5, expected >= 10000"
  "fail_e16_stretch=E16 meta stretch_ok is 'no', expected yes"
  "fail_e16_speedup=E16 row 1 speedup is '9.5', expected >= 10"
  "fail_e17_identical=E17 row 1 identical is 'no', expected yes"
  "fail_e17_rss=E17 meta peak_rss_mb is '400.5', expected <= 300.75"
  "fail_e12_speedup=E12 best speedup is 1.1, expected >= 1.2")
foreach(case IN LISTS cases)
  string(FIND "${case}" "=" eq)
  string(SUBSTRING "${case}" 0 ${eq} dir)
  math(EXPR msg_begin "${eq} + 1")
  string(SUBSTRING "${case}" ${msg_begin} -1 expected)
  execute_process(
    COMMAND "${COLLECT}" "${FIXTURES}/${dir}" "${WORK_DIR}/${dir}.json"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "collect_bench accepted ${dir}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  string(FIND "${err}" "collect_bench: " prefix_at)
  string(FIND "${err}" "${expected}" msg_at)
  if(prefix_at EQUAL -1 OR msg_at EQUAL -1)
    message(FATAL_ERROR "${dir}: wanted 'collect_bench: ...${expected}', got:\n${err}")
  endif()
  if(EXISTS "${WORK_DIR}/${dir}.json")
    message(FATAL_ERROR "${dir}: a failed run still wrote a summary")
  endif()
  message(STATUS "collect_bench_fixtures: ${dir} rejected as expected")
endforeach()

execute_process(
  COMMAND "${COLLECT}" "${FIXTURES}/pass" "${WORK_DIR}/pass.json"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "collect_bench rejected pass/ (${rc})\nstdout:\n${out}\nstderr:\n${err}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${WORK_DIR}/pass.json" "${FIXTURES}/pass_summary.json"
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR "pass/ summary differs from ${FIXTURES}/pass_summary.json")
endif()
message(STATUS "collect_bench_fixtures: pass/ summary matches byte for byte")
