# Aggregate all BENCH_<id>.json artifacts in a directory into one
# BENCH_SUMMARY.json, validating each artifact's schema on the way:
#
#   cmake -DDIR=<dir> [-DOUT=<file>] -P tools/collect_bench.cmake
#
# Output shape (consumed by perf-trajectory tooling and CI uploads):
#
#   { "schema_version": 1, "count": N,
#     "gates": [ {"artifact": "E15", "gate": "thread_scaling_speedup",
#                 "verdict": "passed"}, ... ],
#     "benches": [ <BENCH_E1.json payload>, ... ] }   # sorted by filename
#
# Every gate records a machine-readable verdict in "gates":
# "passed", or the reason it could not run — "skipped_1core" (fewer than 4
# cores at bench time), "skipped_quick" (quick-mode problem sizes),
# "skipped_no_nproc" (artifact predates nproc recording). A skip still
# warns in the log; the verdict row is what trajectory tooling consumes.
#
# Fails hard on malformed artifacts — aggregation doubles as validation.

if(NOT DEFINED DIR)
  message(FATAL_ERROR "usage: cmake -DDIR=<dir> [-DOUT=<file>] -P collect_bench.cmake")
endif()

# CMake math() is integral: convert a decimal string like "6.456" to integer
# microseconds for latency comparisons.
function(to_micro out val)
  if(val MATCHES "^([0-9]+)\\.([0-9]+)$")
    set(ip "${CMAKE_MATCH_1}")
    string(SUBSTRING "${CMAKE_MATCH_2}000000" 0 6 fp)
  elseif(val MATCHES "^([0-9]+)$")
    set(ip "${CMAKE_MATCH_1}")
    set(fp "000000")
  else()
    message(FATAL_ERROR "collect_bench: '${val}' is not a decimal number")
  endif()
  string(REGEX REPLACE "^0+" "" fp "${fp}")
  if(fp STREQUAL "")
    set(fp 0)
  endif()
  math(EXPR micro "${ip} * 1000000 + ${fp}")
  set(${out} "${micro}" PARENT_SCOPE)
endfunction()
if(NOT IS_DIRECTORY "${DIR}")
  message(FATAL_ERROR "collect_bench: '${DIR}' is not a directory")
endif()

# Append one machine-readable gate verdict (see the header comment) to the
# summary's "gates" array. Callers inside functions must re-export
# GATES_JSON to their own parent scope.
macro(record_gate artifact gate verdict)
  if(NOT GATES_JSON STREQUAL "")
    string(APPEND GATES_JSON ",\n")
  endif()
  string(APPEND GATES_JSON
    "{\"artifact\": \"${artifact}\", \"gate\": \"${gate}\", \"verdict\": \"${verdict}\"}")
endmacro()
set(GATES_JSON "")

# Thread-scaling table validation (E12/E15): the artifact must contain a
# table shaped (<size>, threads, <time>, speedup) — column 1 named "threads",
# last column "speedup" — with every row carrying threads >= 1 and a positive
# decimal speedup. Quick-mode artifacts emit the table too, so this check is
# unconditional for the benches that declare it.
function(check_thread_scaling payload artifact)
  string(JSON n_tables LENGTH "${payload}" "tables")
  math(EXPR last_table "${n_tables} - 1")
  set(found FALSE)
  foreach(t_idx RANGE ${last_table})
    string(JSON n_cols LENGTH "${payload}" "tables" ${t_idx} "columns")
    if(n_cols LESS 3)
      continue()
    endif()
    string(JSON col1 GET "${payload}" "tables" ${t_idx} "columns" 1)
    math(EXPR last_col "${n_cols} - 1")
    string(JSON col_last GET "${payload}" "tables" ${t_idx} "columns" ${last_col})
    if(NOT col1 STREQUAL "threads" OR NOT col_last STREQUAL "speedup")
      continue()
    endif()
    set(found TRUE)
    string(JSON n_rows LENGTH "${payload}" "tables" ${t_idx} "rows")
    if(n_rows LESS 1)
      message(FATAL_ERROR "collect_bench: ${artifact} thread-scaling table is empty")
    endif()
    math(EXPR last_row "${n_rows} - 1")
    set(max_speedup_us 0)
    foreach(row_idx RANGE ${last_row})
      string(JSON threads_cell GET "${payload}" "tables" ${t_idx} "rows" ${row_idx} 1)
      string(JSON speedup_cell GET "${payload}" "tables" ${t_idx} "rows" ${row_idx} ${last_col})
      if(NOT threads_cell MATCHES "^[0-9]+$" OR threads_cell LESS 1)
        message(FATAL_ERROR "collect_bench: ${artifact} thread-scaling row ${row_idx} has invalid "
          "threads '${threads_cell}'")
      endif()
      to_micro(speedup_us "${speedup_cell}")
      if(speedup_us LESS 1)
        message(FATAL_ERROR "collect_bench: ${artifact} thread-scaling row ${row_idx} has "
          "non-positive speedup '${speedup_cell}'")
      endif()
      if(speedup_us GREATER max_speedup_us)
        set(max_speedup_us "${speedup_us}")
      endif()
    endforeach()
    message(STATUS "collect_bench: ${artifact} thread-scaling table valid (${n_rows} rows)")
    # Speedup gate: on a machine with real parallelism, the best parallel
    # point must actually beat serial. On fewer than 4 cores the parallel
    # rows cannot win (a 1-core container runs every thread count at the
    # same speed minus scheduling overhead), so the gate is skipped — loudly,
    # never silently — keyed on the nproc the bench recorded at run time.
    string(JSON nproc ERROR_VARIABLE nproc_err GET "${payload}" "meta" "nproc")
    string(JSON is_quick ERROR_VARIABLE quick_err GET "${payload}" "meta" "quick")
    if(NOT nproc_err STREQUAL "NOTFOUND")
      record_gate("${artifact}" "thread_scaling_speedup" "skipped_no_nproc")
      message(WARNING "collect_bench: ${artifact} meta lacks nproc — skipping the "
        "thread-scaling speedup gate (verdict skipped_no_nproc)")
    elseif(quick_err STREQUAL "NOTFOUND" AND is_quick STREQUAL "yes")
      record_gate("${artifact}" "thread_scaling_speedup" "skipped_quick")
      message(WARNING "collect_bench: ${artifact} is a quick-mode artifact (problem sizes too "
        "small to scale) — skipping the thread-scaling speedup gate (verdict skipped_quick)")
    elseif(nproc LESS 4)
      record_gate("${artifact}" "thread_scaling_speedup" "skipped_1core")
      message(WARNING "collect_bench: ${artifact} ran on ${nproc} core(s) (< 4) — skipping the "
        "thread-scaling speedup gate (verdict skipped_1core)")
    elseif(max_speedup_us LESS 1200000)
      message(FATAL_ERROR "collect_bench: ${artifact} best thread-scaling speedup is "
        "${max_speedup_us}/1000000 on ${nproc} cores — expected >= 1.2x over serial")
    else()
      record_gate("${artifact}" "thread_scaling_speedup" "passed")
      message(STATUS "collect_bench: ${artifact} thread-scaling speedup gate passed "
        "(best ${max_speedup_us}/1000000 on ${nproc} cores)")
    endif()
  endforeach()
  if(NOT found)
    message(FATAL_ERROR "collect_bench: ${artifact} lacks a thread-scaling table "
      "(column 1 'threads', last column 'speedup')")
  endif()
  set(GATES_JSON "${GATES_JSON}" PARENT_SCOPE)
endfunction()
if(NOT DEFINED OUT)
  set(OUT "${DIR}/BENCH_SUMMARY.json")
endif()

file(GLOB artifacts "${DIR}/BENCH_*.json")
list(SORT artifacts)
# The summary itself (and google-benchmark native output, which has its own
# schema) are not aggregation inputs.
list(FILTER artifacts EXCLUDE REGEX "BENCH_SUMMARY\\.json$")

set(payloads "")
set(count 0)
set(ids "")
foreach(artifact IN LISTS artifacts)
  file(READ "${artifact}" payload)
  # Foreign-schema artifacts (bench_e12_runtime emits google-benchmark's
  # native JSON under the shared naming convention) have no "bench" field:
  # skip them rather than fail, so a full-sweep directory still aggregates.
  string(JSON id ERROR_VARIABLE id_err GET "${payload}" "bench")
  if(NOT id_err STREQUAL "NOTFOUND")
    message(STATUS "collect_bench: skipping ${artifact} (not a localspan artifact: ${id_err})")
    continue()
  endif()
  # For localspan-schema artifacts, aggregation doubles as validation: a
  # half-written artifact must not slip into the summary.
  string(JSON schema_version GET "${payload}" "schema_version")
  if(NOT schema_version EQUAL 1)
    message(FATAL_ERROR "collect_bench: ${artifact} has schema_version '${schema_version}'")
  endif()
  string(JSON n_tables LENGTH "${payload}" "tables")
  if(n_tables LESS 1)
    message(FATAL_ERROR "collect_bench: ${artifact} has no tables")
  endif()
  # E6 is the registry sweep: its first table must carry one uniform record
  # per registered algorithm — an "algo" first column, at least 9 rows, and a
  # non-empty algorithm name plus declared-guarantee cell in every row.
  if(id STREQUAL "E6")
    string(JSON first_col GET "${payload}" "tables" 0 "columns" 0)
    if(NOT first_col STREQUAL "algo")
      message(FATAL_ERROR "collect_bench: E6 first column is '${first_col}', expected 'algo'")
    endif()
    string(JSON n_cols LENGTH "${payload}" "tables" 0 "columns")
    string(JSON n_rows LENGTH "${payload}" "tables" 0 "rows")
    if(n_rows LESS 9)
      message(FATAL_ERROR "collect_bench: E6 has ${n_rows} algorithm records, expected >= 9")
    endif()
    math(EXPR last_row "${n_rows} - 1")
    math(EXPR declared_col "${n_cols} - 1")
    foreach(row_idx RANGE ${last_row})
      string(JSON algo_cell GET "${payload}" "tables" 0 "rows" ${row_idx} 0)
      string(JSON row_len LENGTH "${payload}" "tables" 0 "rows" ${row_idx})
      string(JSON declared_cell GET "${payload}" "tables" 0 "rows" ${row_idx} ${declared_col})
      if(algo_cell STREQUAL "" OR NOT row_len EQUAL n_cols OR declared_cell STREQUAL "")
        message(FATAL_ERROR "collect_bench: E6 row ${row_idx} malformed (algo='${algo_cell}', ${row_len}/${n_cols} cells)")
      endif()
    endforeach()
    message(STATUS "collect_bench: E6 per-algorithm records valid (${n_rows} algorithms)")
  endif()
  # E12 is the runtime-scaling bench; it must carry the parallel
  # construction scaling table (threads/speedup columns).
  if(id STREQUAL "E12")
    check_thread_scaling("${payload}" "E12")
  endif()
  # E15 is the dynamic-churn bench: its artifact must carry the workspace
  # perf fields (alloc-free steady state in meta, the certify-scope column,
  # the repair-path threads column, the static-build thread-scaling table),
  # and its full-mode n=2048 incremental latency is guarded against the
  # checked-in baseline (the repo's first perf-regression gate).
  if(id STREQUAL "E15")
    check_thread_scaling("${payload}" "E15")
    string(JSON alloc_free ERROR_VARIABLE af_err GET "${payload}" "meta" "alloc_free_steady_state")
    if(NOT af_err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "collect_bench: E15 meta lacks alloc_free_steady_state")
    endif()
    if(NOT alloc_free STREQUAL "yes")
      message(FATAL_ERROR "collect_bench: E15 alloc_free_steady_state is '${alloc_free}' — the "
        "workspace/certify steady state has started allocating")
    endif()
    string(JSON nproc_meta ERROR_VARIABLE nproc_meta_err GET "${payload}" "meta" "nproc")
    if(NOT nproc_meta_err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "collect_bench: E15 meta lacks nproc")
    endif()
    # Observability hygiene: the artifact must say whether the obs layer was
    # ambiently on, carry the measured off/on wall pair, and — in full mode —
    # prove that compiling the probes in costs <= 3% when enabled (quick-mode
    # cells are too small to time a single-digit percentage, so the gate is
    # skipped loudly there).
    string(JSON obs_enabled ERROR_VARIABLE oe_err GET "${payload}" "meta" "obs_enabled")
    if(NOT oe_err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "collect_bench: E15 meta lacks obs_enabled")
    endif()
    if(NOT obs_enabled MATCHES "^(yes|no)$")
      message(FATAL_ERROR "collect_bench: E15 meta obs_enabled is '${obs_enabled}', expected yes/no")
    endif()
    foreach(obs_key obs_off_ms obs_on_ms obs_overhead_pct)
      string(JSON obs_val ERROR_VARIABLE ov_err GET "${payload}" "meta" "${obs_key}")
      if(NOT ov_err STREQUAL "NOTFOUND")
        message(FATAL_ERROR "collect_bench: E15 meta lacks ${obs_key}")
      endif()
      to_micro(ignored "${obs_val}")  # must be a non-negative decimal
    endforeach()
    string(JSON obs_pct GET "${payload}" "meta" "obs_overhead_pct")
    string(JSON e15_quick ERROR_VARIABLE e15_quick_err GET "${payload}" "meta" "quick")
    to_micro(obs_pct_us "${obs_pct}")
    if(e15_quick_err STREQUAL "NOTFOUND" AND e15_quick STREQUAL "yes")
      message(WARNING "collect_bench: E15 is a quick-mode artifact — skipping the obs overhead "
        "gate (measured ${obs_pct}%)")
    elseif(obs_pct_us GREATER 3000000)
      message(FATAL_ERROR "collect_bench: E15 obs overhead is ${obs_pct}% at n=2048 — the "
        "observability layer must cost <= 3% (one branch per probe when off, cheap "
        "relaxed-atomic bumps when on)")
    else()
      message(STATUS "collect_bench: E15 obs overhead gate passed (${obs_pct}% <= 3%)")
    endif()
    # When the artifact embeds an obs snapshot, it must have the stable shape
    # (counters/gauges/histograms/spans members) so trajectory tooling can
    # rely on it.
    string(JSON obs_block ERROR_VARIABLE ob_err GET "${payload}" "obs")
    if(ob_err STREQUAL "NOTFOUND")
      foreach(obs_member counters gauges histograms spans)
        string(JSON obs_member_len ERROR_VARIABLE om_err LENGTH "${payload}" "obs" "${obs_member}")
        if(NOT om_err STREQUAL "NOTFOUND")
          message(FATAL_ERROR "collect_bench: E15 obs block lacks '${obs_member}': ${om_err}")
        endif()
      endforeach()
      message(STATUS "collect_bench: E15 obs block shape valid")
    endif()
    # Batched-ingestion table (apply_batch): identified by its 'batch'
    # column. Quick-mode artifacts carry it too, so the presence check is
    # unconditional; the 10^4 events/s floor applies only when an n=100000
    # row exists (full mode).
    string(JSON e15_tables LENGTH "${payload}" "tables")
    math(EXPR e15_last_table "${e15_tables} - 1")
    set(batch_tbl -1)
    foreach(t_idx RANGE ${e15_last_table})
      string(JSON bt_cols LENGTH "${payload}" "tables" ${t_idx} "columns")
      math(EXPR bt_last_col "${bt_cols} - 1")
      set(b_col -1)
      set(bt_threads_col -1)
      set(evs_col -1)
      foreach(col_idx RANGE ${bt_last_col})
        string(JSON col GET "${payload}" "tables" ${t_idx} "columns" ${col_idx})
        if(col STREQUAL "batch")
          set(b_col ${col_idx})
        elseif(col STREQUAL "threads")
          set(bt_threads_col ${col_idx})
        elseif(col STREQUAL "batch ev/s")
          set(evs_col ${col_idx})
        endif()
      endforeach()
      if(b_col EQUAL -1)
        continue()
      endif()
      if(bt_threads_col EQUAL -1 OR evs_col EQUAL -1)
        message(FATAL_ERROR "collect_bench: E15 batched-ingestion table lacks the "
          "'threads'/'batch ev/s' columns")
      endif()
      set(batch_tbl ${t_idx})
      string(JSON bt_rows LENGTH "${payload}" "tables" ${t_idx} "rows")
      if(bt_rows LESS 1)
        message(FATAL_ERROR "collect_bench: E15 batched-ingestion table is empty")
      endif()
      math(EXPR bt_last_row "${bt_rows} - 1")
      set(scale_rows 0)
      set(best_scale_evs_us 0)
      foreach(row_idx RANGE ${bt_last_row})
        string(JSON row_n GET "${payload}" "tables" ${t_idx} "rows" ${row_idx} 0)
        string(JSON batch_cell GET "${payload}" "tables" ${t_idx} "rows" ${row_idx} ${b_col})
        string(JSON threads_cell GET "${payload}" "tables" ${t_idx} "rows" ${row_idx} ${bt_threads_col})
        string(JSON evs_cell GET "${payload}" "tables" ${t_idx} "rows" ${row_idx} ${evs_col})
        if(NOT batch_cell MATCHES "^[0-9]+$" OR batch_cell LESS 1)
          message(FATAL_ERROR "collect_bench: E15 batched row ${row_idx} has invalid batch "
            "'${batch_cell}'")
        endif()
        if(NOT threads_cell MATCHES "^[0-9]+$" OR threads_cell LESS 1)
          message(FATAL_ERROR "collect_bench: E15 batched row ${row_idx} has invalid threads "
            "'${threads_cell}'")
        endif()
        to_micro(evs_us "${evs_cell}")
        if(evs_us LESS 1)
          message(FATAL_ERROR "collect_bench: E15 batched row ${row_idx} has non-positive "
            "'batch ev/s' '${evs_cell}'")
        endif()
        if(row_n EQUAL 100000)
          math(EXPR scale_rows "${scale_rows} + 1")
          if(evs_us GREATER best_scale_evs_us)
            set(best_scale_evs_us "${evs_us}")
          endif()
        endif()
      endforeach()
      if(scale_rows GREATER 0)
        # 10^4 events/s in integer micro-units.
        if(best_scale_evs_us LESS 10000000000)
          message(FATAL_ERROR "collect_bench: E15 batched ingestion at n=100000 peaks at "
            "${best_scale_evs_us}/1000000 events/s — expected >= 10000")
        endif()
        message(STATUS "collect_bench: E15 batched n=100000 throughput gate passed "
          "(${best_scale_evs_us}/1000000 events/s)")
      endif()
      message(STATUS "collect_bench: E15 batched-ingestion table valid (${bt_rows} rows)")
    endforeach()
    if(batch_tbl EQUAL -1)
      message(FATAL_ERROR "collect_bench: E15 lacks the batched-ingestion table "
        "(no table with a 'batch' column)")
    endif()
    string(JSON n_cols LENGTH "${payload}" "tables" 0 "columns")
    set(inc_col -1)
    set(scope_col -1)
    set(model_col -1)
    set(threads_col -1)
    math(EXPR last_col "${n_cols} - 1")
    foreach(col_idx RANGE ${last_col})
      string(JSON col GET "${payload}" "tables" 0 "columns" ${col_idx})
      if(col STREQUAL "inc ms/ev")
        set(inc_col ${col_idx})
      elseif(col STREQUAL "mean scope")
        set(scope_col ${col_idx})
      elseif(col STREQUAL "model")
        set(model_col ${col_idx})
      elseif(col STREQUAL "threads")
        set(threads_col ${col_idx})
      endif()
    endforeach()
    if(inc_col EQUAL -1 OR scope_col EQUAL -1 OR model_col EQUAL -1 OR threads_col EQUAL -1)
      message(FATAL_ERROR "collect_bench: E15 table lacks the 'inc ms/ev'/'mean scope'/'model'/'threads' columns")
    endif()
    # Regression guard: compare full-mode n=2048 rows against the checked-in
    # baseline artifact. Quick-mode artifacts carry no n=2048 row and skip
    # the comparison (the field validation above still applies).
    set(baseline_file "${CMAKE_CURRENT_LIST_DIR}/../bench/baselines/BENCH_E15.json")
    if(EXISTS "${baseline_file}")
      file(READ "${baseline_file}" baseline)
      string(JSON n_rows LENGTH "${payload}" "tables" 0 "rows")
      string(JSON nb_rows LENGTH "${baseline}" "tables" 0 "rows")
      math(EXPR last_row "${n_rows} - 1")
      math(EXPR nb_last_row "${nb_rows} - 1")
      foreach(row_idx RANGE ${last_row})
        string(JSON row_n GET "${payload}" "tables" 0 "rows" ${row_idx} 0)
        if(NOT row_n EQUAL 2048)
          continue()
        endif()
        string(JSON row_model GET "${payload}" "tables" 0 "rows" ${row_idx} ${model_col})
        string(JSON cur_inc GET "${payload}" "tables" 0 "rows" ${row_idx} ${inc_col})
        foreach(b_idx RANGE ${nb_last_row})
          string(JSON b_n GET "${baseline}" "tables" 0 "rows" ${b_idx} 0)
          string(JSON b_model GET "${baseline}" "tables" 0 "rows" ${b_idx} ${model_col})
          if(b_n EQUAL 2048 AND b_model STREQUAL row_model)
            string(JSON base_inc GET "${baseline}" "tables" 0 "rows" ${b_idx} ${inc_col})
            # Fail when cur > 1.25 * base, in integer microseconds.
            to_micro(cur_us "${cur_inc}")
            to_micro(base_us "${base_inc}")
            math(EXPR limit_us "(${base_us} * 125) / 100")
            if(cur_us GREATER limit_us)
              message(FATAL_ERROR "collect_bench: E15 inc ms/ev regression at n=2048/${row_model}: "
                "${cur_inc} ms vs baseline ${base_inc} ms (>25% regression)")
            endif()
            message(STATUS "collect_bench: E15 n=2048/${row_model} inc ms/ev ${cur_inc} within "
              "25% of baseline ${base_inc}")
          endif()
        endforeach()
      endforeach()
    endif()
  endif()
  # E16 is the query-serving bench: the artifact must carry the stretch
  # verdict (every served distance within the oracle's declared bound), the
  # oracle-vs-Dijkstra table with its speedup column, and the concurrent-
  # serving latency table. The speedup gate is algorithmic (labels vs a
  # per-query graph search), so unlike the thread-scaling gates it applies
  # regardless of core count — only quick mode (problem sizes too small for
  # a stable ratio at n=2048) skips it, loudly.
  if(id STREQUAL "E16")
    foreach(e16_key stretch_ok nproc quick)
      string(JSON e16_val ERROR_VARIABLE e16_err GET "${payload}" "meta" "${e16_key}")
      if(NOT e16_err STREQUAL "NOTFOUND")
        message(FATAL_ERROR "collect_bench: E16 meta lacks ${e16_key}")
      endif()
    endforeach()
    string(JSON e16_stretch GET "${payload}" "meta" "stretch_ok")
    if(NOT e16_stretch STREQUAL "yes")
      message(FATAL_ERROR "collect_bench: E16 stretch_ok is '${e16_stretch}' — a served "
        "distance fell outside [exact, bound * exact]")
    endif()
    string(JSON e16_quick GET "${payload}" "meta" "quick")
    # Table 0: oracle vs per-query Dijkstra. Locate the speedup column.
    string(JSON e16_cols LENGTH "${payload}" "tables" 0 "columns")
    math(EXPR e16_last_col "${e16_cols} - 1")
    set(e16_speedup_col -1)
    foreach(col_idx RANGE ${e16_last_col})
      string(JSON col GET "${payload}" "tables" 0 "columns" ${col_idx})
      if(col STREQUAL "speedup")
        set(e16_speedup_col ${col_idx})
      endif()
    endforeach()
    if(e16_speedup_col EQUAL -1)
      message(FATAL_ERROR "collect_bench: E16 table 0 lacks the 'speedup' column")
    endif()
    string(JSON e16_rows LENGTH "${payload}" "tables" 0 "rows")
    if(e16_rows LESS 1)
      message(FATAL_ERROR "collect_bench: E16 oracle-vs-Dijkstra table is empty")
    endif()
    math(EXPR e16_last_row "${e16_rows} - 1")
    if(e16_quick STREQUAL "yes")
      record_gate("E16" "oracle_speedup" "skipped_quick")
      message(WARNING "collect_bench: E16 is a quick-mode artifact (query counts too small "
        "for a stable ratio) — skipping the oracle speedup gates (verdict skipped_quick)")
    else()
      # Full mode: >= 10x at n=2048, >= 100x at n=100000 (when the row ran).
      foreach(row_idx RANGE ${e16_last_row})
        string(JSON row_n GET "${payload}" "tables" 0 "rows" ${row_idx} 0)
        string(JSON speedup_cell GET "${payload}" "tables" 0 "rows" ${row_idx} ${e16_speedup_col})
        to_micro(speedup_us "${speedup_cell}")
        if(row_n EQUAL 2048 AND speedup_us LESS 10000000)
          message(FATAL_ERROR "collect_bench: E16 oracle speedup at n=2048 is ${speedup_cell}x "
            "— expected >= 10x over per-query Dijkstra")
        endif()
        if(row_n EQUAL 100000 AND speedup_us LESS 100000000)
          message(FATAL_ERROR "collect_bench: E16 oracle speedup at n=100000 is "
            "${speedup_cell}x — expected >= 100x over per-query Dijkstra")
        endif()
      endforeach()
      record_gate("E16" "oracle_speedup" "passed")
      message(STATUS "collect_bench: E16 oracle speedup gates passed (${e16_rows} rows)")
    endif()
    # The concurrent-serving table: identified by its 'p99 us' column; every
    # row needs a positive qps and a p99 (bounded tail latency is the claim,
    # so the field must at least exist and parse).
    string(JSON e16_tables LENGTH "${payload}" "tables")
    math(EXPR e16_last_table "${e16_tables} - 1")
    set(e16_churn_tbl -1)
    foreach(t_idx RANGE ${e16_last_table})
      string(JSON ct_cols LENGTH "${payload}" "tables" ${t_idx} "columns")
      math(EXPR ct_last_col "${ct_cols} - 1")
      set(qps_col -1)
      set(p99_col -1)
      foreach(col_idx RANGE ${ct_last_col})
        string(JSON col GET "${payload}" "tables" ${t_idx} "columns" ${col_idx})
        if(col STREQUAL "qps")
          set(qps_col ${col_idx})
        elseif(col STREQUAL "p99 us")
          set(p99_col ${col_idx})
        endif()
      endforeach()
      if(p99_col EQUAL -1 OR qps_col EQUAL -1)
        continue()
      endif()
      set(e16_churn_tbl ${t_idx})
      string(JSON ct_rows LENGTH "${payload}" "tables" ${t_idx} "rows")
      if(ct_rows LESS 1)
        message(FATAL_ERROR "collect_bench: E16 concurrent-serving table is empty")
      endif()
      math(EXPR ct_last_row "${ct_rows} - 1")
      foreach(row_idx RANGE ${ct_last_row})
        string(JSON qps_cell GET "${payload}" "tables" ${t_idx} "rows" ${row_idx} ${qps_col})
        string(JSON p99_cell GET "${payload}" "tables" ${t_idx} "rows" ${row_idx} ${p99_col})
        to_micro(qps_us "${qps_cell}")
        to_micro(ignored "${p99_cell}")
        if(qps_us LESS 1)
          message(FATAL_ERROR "collect_bench: E16 concurrent row ${row_idx} has non-positive "
            "qps '${qps_cell}'")
        endif()
      endforeach()
      message(STATUS "collect_bench: E16 concurrent-serving table valid (${ct_rows} rows)")
    endforeach()
    if(e16_churn_tbl EQUAL -1)
      message(FATAL_ERROR "collect_bench: E16 lacks the concurrent-serving table "
        "(no table with 'qps' and 'p99 us' columns)")
    endif()
  endif()
  # E17 is the adversarial-async-network bench: its fault-matrix table must
  # carry the message-complexity ('transmissions') and convergence
  # ('convergence vtime') columns, and the robustness claim must hold on
  # every row — terminated=yes (the reliable protocol reached quiescence)
  # and identical=yes (the spanner is bit-identical to the sync build).
  if(id STREQUAL "E17")
    # E15/E16/E17 record meta.nproc uniformly, so trajectory tooling can
    # always key perf numbers on the core count of the run.
    string(JSON e17_nproc ERROR_VARIABLE e17_nproc_err GET "${payload}" "meta" "nproc")
    if(NOT e17_nproc_err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "collect_bench: E17 meta lacks nproc")
    endif()
    if(NOT e17_nproc MATCHES "^[0-9]+$" OR e17_nproc LESS 1)
      message(FATAL_ERROR "collect_bench: E17 meta nproc is '${e17_nproc}', expected a "
        "positive integer")
    endif()
    string(JSON e17_cols LENGTH "${payload}" "tables" 0 "columns")
    math(EXPR e17_last_col "${e17_cols} - 1")
    set(e17_trans_col -1)
    set(e17_conv_col -1)
    set(e17_term_col -1)
    set(e17_ident_col -1)
    foreach(col_idx RANGE ${e17_last_col})
      string(JSON col GET "${payload}" "tables" 0 "columns" ${col_idx})
      if(col STREQUAL "transmissions")
        set(e17_trans_col ${col_idx})
      elseif(col STREQUAL "convergence vtime")
        set(e17_conv_col ${col_idx})
      elseif(col STREQUAL "terminated")
        set(e17_term_col ${col_idx})
      elseif(col STREQUAL "identical")
        set(e17_ident_col ${col_idx})
      endif()
    endforeach()
    if(e17_trans_col EQUAL -1 OR e17_conv_col EQUAL -1)
      message(FATAL_ERROR "collect_bench: E17 table 0 lacks the 'transmissions'/"
        "'convergence vtime' columns")
    endif()
    if(e17_term_col EQUAL -1 OR e17_ident_col EQUAL -1)
      message(FATAL_ERROR "collect_bench: E17 table 0 lacks the 'terminated'/'identical' "
        "verdict columns")
    endif()
    string(JSON e17_rows LENGTH "${payload}" "tables" 0 "rows")
    if(e17_rows LESS 1)
      message(FATAL_ERROR "collect_bench: E17 fault-matrix table is empty")
    endif()
    math(EXPR e17_last_row "${e17_rows} - 1")
    foreach(row_idx RANGE ${e17_last_row})
      string(JSON term_cell GET "${payload}" "tables" 0 "rows" ${row_idx} ${e17_term_col})
      string(JSON ident_cell GET "${payload}" "tables" 0 "rows" ${row_idx} ${e17_ident_col})
      string(JSON trans_cell GET "${payload}" "tables" 0 "rows" ${row_idx} ${e17_trans_col})
      string(JSON conv_cell GET "${payload}" "tables" 0 "rows" ${row_idx} ${e17_conv_col})
      if(NOT term_cell STREQUAL "yes")
        message(FATAL_ERROR "collect_bench: E17 row ${row_idx} terminated='${term_cell}' — "
          "the reliable protocol failed to reach quiescence under this adversary")
      endif()
      if(NOT ident_cell STREQUAL "yes")
        message(FATAL_ERROR "collect_bench: E17 row ${row_idx} identical='${ident_cell}' — "
          "the async spanner diverged from the synchronous build")
      endif()
      to_micro(trans_us "${trans_cell}")
      if(trans_us LESS 1)
        message(FATAL_ERROR "collect_bench: E17 row ${row_idx} has non-positive "
          "'transmissions' '${trans_cell}'")
      endif()
      to_micro(conv_us "${conv_cell}")
      if(conv_us LESS 1)
        message(FATAL_ERROR "collect_bench: E17 row ${row_idx} has non-positive "
          "'convergence vtime' '${conv_cell}'")
      endif()
    endforeach()
    message(STATUS "collect_bench: E17 robustness verdicts hold on all ${e17_rows} rows")
    # Memory gate (ROADMAP 4a): relaxed-dist at meta.memory_n must peak at
    # <= 3x the RSS of relaxed on the same instance. Quick-mode artifacts
    # carry no memory run and skip, loudly.
    string(JSON e17_quick GET "${payload}" "meta" "quick")
    if(e17_quick STREQUAL "yes")
      record_gate("E17" "relaxed_dist_peak_rss" "skipped_quick")
      message(WARNING "collect_bench: E17 is a quick-mode artifact (no n=16384 memory run) — "
        "skipping the relaxed-dist peak RSS gate (verdict skipped_quick)")
    else()
      foreach(e17_key peak_rss_mb relaxed_peak_rss_mb)
        string(JSON e17_${e17_key} ERROR_VARIABLE e17_key_err GET "${payload}" "meta" "${e17_key}")
        if(NOT e17_key_err STREQUAL "NOTFOUND")
          message(FATAL_ERROR "collect_bench: E17 meta lacks ${e17_key}")
        endif()
      endforeach()
      to_micro(e17_peak_us "${e17_peak_rss_mb}")
      to_micro(e17_relaxed_us "${e17_relaxed_peak_rss_mb}")
      math(EXPR e17_rss_limit "3 * ${e17_relaxed_us}")
      if(e17_peak_us GREATER e17_rss_limit)
        message(FATAL_ERROR "collect_bench: E17 relaxed-dist peaks at ${e17_peak_rss_mb} MB, over "
          "3x relaxed's ${e17_relaxed_peak_rss_mb} MB — the distributed cover is no longer "
          "linear-memory")
      endif()
      record_gate("E17" "relaxed_dist_peak_rss" "passed")
      message(STATUS "collect_bench: E17 relaxed-dist peak RSS ${e17_peak_rss_mb} MB <= 3x "
        "relaxed's ${e17_relaxed_peak_rss_mb} MB")
    endif()
  endif()
  string(STRIP "${payload}" payload)
  if(count GREATER 0)
    string(APPEND payloads ",\n")
  endif()
  string(APPEND payloads "${payload}")
  math(EXPR count "${count} + 1")
  list(APPEND ids "${id}")
endforeach()

if(count EQUAL 0)
  message(FATAL_ERROR "collect_bench: no BENCH_*.json artifacts in ${DIR}")
endif()

file(WRITE "${OUT}" "{\n\"schema_version\": 1,\n\"count\": ${count},\n\"gates\": [\n${GATES_JSON}\n],\n\"benches\": [\n${payloads}\n]\n}\n")

# Self-check: the summary must itself parse, with count entries and a
# well-formed gates array (every verdict from the known vocabulary).
file(READ "${OUT}" summary)
string(JSON n_benches LENGTH "${summary}" "benches")
if(NOT n_benches EQUAL count)
  message(FATAL_ERROR "collect_bench: summary self-check failed (${n_benches} != ${count})")
endif()
string(JSON n_gates LENGTH "${summary}" "gates")
if(n_gates GREATER 0)
  math(EXPR last_gate "${n_gates} - 1")
  foreach(g_idx RANGE ${last_gate})
    string(JSON g_verdict GET "${summary}" "gates" ${g_idx} "verdict")
    if(NOT g_verdict MATCHES "^(passed|skipped_1core|skipped_quick|skipped_no_nproc)$")
      message(FATAL_ERROR "collect_bench: gate ${g_idx} has unknown verdict '${g_verdict}'")
    endif()
  endforeach()
endif()
message(STATUS "collect_bench: recorded ${n_gates} gate verdict(s)")

list(JOIN ids ", " id_list)
message(STATUS "collect_bench: wrote ${OUT} (${count} benches: ${id_list})")
