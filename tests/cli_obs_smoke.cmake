# Observability smoke test for localspan_cli, run as a CTest script:
#   cmake -DCLI=<path> -DWORK_DIR=<dir> -P cli_obs_smoke.cmake
#
# Drives the demo-mode batched dynamic pipeline with --trace/--obs-json and
# validates the exported artifacts with CMake's JSON parser: the Chrome
# trace must carry events on at least two distinct thread tracks (main +
# pool workers), and the metrics snapshot must carry the dyn.* counters the
# batch path is instrumented with. A per-event run must count each event
# exactly once. A relaxed-dist span run must report the relaxed-greedy phase
# spans (it drives the same phase loop). A relaxed span run on a fixed
# instance bounds the heap pops of the phase loop and of the stretch pass.

if(NOT DEFINED CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<localspan_cli> -DWORK_DIR=<dir> -P cli_obs_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${CLI}" dynamic --batch --threads 2 --n 512 --events 64
          --trace obs_trace.json --obs-json obs_stats.json
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "localspan_cli dynamic --batch exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT out MATCHES "final audit: PASS")
  message(FATAL_ERROR "dynamic --batch did not pass its final audit:\n${out}")
endif()
if(NOT out MATCHES "per-region harvest:")
  message(FATAL_ERROR "dynamic --batch did not print per-region obs stats:\n${out}")
endif()

foreach(artifact obs_trace.json obs_stats.json)
  if(NOT EXISTS "${WORK_DIR}/${artifact}")
    message(FATAL_ERROR "dynamic --batch did not create ${artifact}")
  endif()
endforeach()

# --- Chrome trace: parseable, with >= 2 distinct tids among the X events ---
file(READ "${WORK_DIR}/obs_trace.json" trace)
string(JSON n_events ERROR_VARIABLE ev_err LENGTH "${trace}" "traceEvents")
if(NOT ev_err STREQUAL "NOTFOUND")
  message(FATAL_ERROR "obs_trace.json has no traceEvents array: ${ev_err}")
endif()
if(n_events LESS 2)
  message(FATAL_ERROR "obs_trace.json has only ${n_events} trace events")
endif()
# CMake's string(JSON) reparses the whole document per GET, so scanning a
# many-thousand-event trace is quadratic; the first few hundred events
# already contain the metadata block and events from every track.
set(scan_cap 400)
math(EXPR last_event "${n_events} - 1")
if(last_event GREATER ${scan_cap})
  set(last_event ${scan_cap})
endif()
set(tids "")
set(x_events 0)
set(meta_events 0)
foreach(idx RANGE ${last_event})
  string(JSON ph GET "${trace}" "traceEvents" ${idx} "ph")
  string(JSON tid GET "${trace}" "traceEvents" ${idx} "tid")
  if(ph STREQUAL "X")
    math(EXPR x_events "${x_events} + 1")
    list(APPEND tids "${tid}")
    string(JSON dur GET "${trace}" "traceEvents" ${idx} "dur")
    if(dur LESS 0)
      message(FATAL_ERROR "obs_trace.json event ${idx} has negative duration ${dur}")
    endif()
  elseif(ph STREQUAL "M")
    math(EXPR meta_events "${meta_events} + 1")
  endif()
endforeach()
list(REMOVE_DUPLICATES tids)
list(LENGTH tids n_tracks)
if(x_events LESS 1)
  message(FATAL_ERROR "obs_trace.json has no complete (ph=X) events")
endif()
if(n_tracks LESS 2)
  message(FATAL_ERROR "obs_trace.json spans only ${n_tracks} thread track(s) — expected the "
    "main thread plus at least one pool worker at --threads 2")
endif()
if(meta_events LESS n_tracks)
  message(FATAL_ERROR "obs_trace.json has ${meta_events} thread_name metadata events for "
    "${n_tracks} tracks")
endif()

# --- Metrics snapshot: dyn.* counters and the per-region histograms -------
file(READ "${WORK_DIR}/obs_stats.json" stats)
string(JSON stats_enabled GET "${stats}" "enabled")
if(NOT stats_enabled STREQUAL "ON" AND NOT stats_enabled STREQUAL "true")
  message(FATAL_ERROR "obs_stats.json says enabled=${stats_enabled}")
endif()
foreach(counter dyn.events dyn.batches dyn.edges_added)
  string(JSON val ERROR_VARIABLE c_err GET "${stats}" "counters" "${counter}")
  if(NOT c_err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "obs_stats.json lacks counter '${counter}'")
  endif()
  if(val LESS 1)
    message(FATAL_ERROR "obs_stats.json counter ${counter} is ${val}, expected >= 1")
  endif()
endforeach()
foreach(hist dyn.regions dyn.region_ball dyn.region_harvest_us)
  string(JSON hcount ERROR_VARIABLE h_err GET "${stats}" "histograms" "${hist}" "count")
  if(NOT h_err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "obs_stats.json lacks histogram '${hist}'")
  endif()
  if(hcount LESS 1)
    message(FATAL_ERROR "obs_stats.json histogram ${hist} is empty")
  endif()
endforeach()
string(JSON batch_count GET "${stats}" "spans" "dyn.apply_batch" "count")
if(batch_count LESS 1)
  message(FATAL_ERROR "obs_stats.json has no dyn.apply_batch span")
endif()

# --- Per-event dynamic run: apply() runs the one-event window body, so ----
# each event counts once in dyn.events and once as a dyn.apply span, and no
# dyn.batches window is charged.
execute_process(
  COMMAND "${CLI}" dynamic --n 256 --events 32 --quiet --obs-json per_event_stats.json
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "localspan_cli dynamic (per-event) exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
file(READ "${WORK_DIR}/per_event_stats.json" per_event)
string(JSON ev_count GET "${per_event}" "counters" "dyn.events")
if(NOT ev_count EQUAL 32)
  message(FATAL_ERROR "per-event dynamic run counted dyn.events=${ev_count}, expected 32")
endif()
string(JSON batches ERROR_VARIABLE b_err GET "${per_event}" "counters" "dyn.batches")
if(b_err STREQUAL "NOTFOUND" AND NOT batches EQUAL 0)
  message(FATAL_ERROR "per-event dynamic run counted dyn.batches=${batches}, expected 0")
endif()
string(JSON apply_count GET "${per_event}" "spans" "dyn.apply" "count")
if(NOT apply_count EQUAL 32)
  message(FATAL_ERROR "per-event dynamic run recorded ${apply_count} dyn.apply spans, expected 32")
endif()

# --- relaxed-dist: the distributed driver emits the phase-loop spans -------
execute_process(
  COMMAND "${CLI}" gen --n 160 --alpha 0.75 --dim 2 --seed 3 --out dist.lsi
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "localspan_cli gen exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
execute_process(
  COMMAND "${CLI}" span --in dist.lsi --eps 0.5 --algo relaxed-dist --obs-json dist_stats.json
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "span --algo relaxed-dist exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
file(READ "${WORK_DIR}/dist_stats.json" dist_stats)
foreach(span rg.cover rg.queries)
  string(JSON span_count ERROR_VARIABLE s_err GET "${dist_stats}" "spans" "${span}" "count")
  if(NOT s_err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "relaxed-dist obs_stats lacks span '${span}'")
  endif()
  if(span_count LESS 1)
    message(FATAL_ERROR "relaxed-dist span ${span} has count ${span_count}, expected >= 1")
  endif()
endforeach()

# --- Search work of the phase loop: a timing-free guard ------------------
# A fixed instance, one thread. rg.heap_pops counts every heap pop of the
# relaxed-greedy searches, so it rises if a pass searches past what it
# needs (e.g. redundancy balls back at t1·max_w: 204319 pops here). Skipped
# singleton balls must still be counted: every cover center is a
# cluster-graph center.
execute_process(
  COMMAND "${CLI}" gen --n 2048 --alpha 0.75 --dim 2 --seed 3 --out work.lsi
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "localspan_cli gen exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
execute_process(
  COMMAND "${CLI}" span --in work.lsi --eps 0.5 --threads 1 --obs-json work_stats.json
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "span (search-work guard) exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
file(READ "${WORK_DIR}/work_stats.json" work_stats)
string(JSON heap_pops GET "${work_stats}" "counters" "rg.heap_pops")
set(max_heap_pops 150045)
if(heap_pops GREATER max_heap_pops)
  message(FATAL_ERROR "rg.heap_pops is ${heap_pops} on the n=2048 seed-3 instance, "
    "above ${max_heap_pops}: a phase searches further than before")
endif()
# The searches on the cluster graph H depend on its row order. H's rows
# list edges in commit order, so the count is exactly the one of H built
# edge by edge, not only bounded by it.
if(NOT heap_pops EQUAL max_heap_pops)
  message(FATAL_ERROR "rg.heap_pops is ${heap_pops} on the n=2048 seed-3 instance, "
    "not ${max_heap_pops}: the phase loop no longer runs the same searches")
endif()
# The load is a span of its own, once per command.
string(JSON io_load_count ERROR_VARIABLE io_load_err GET "${work_stats}" "spans" "io.load" "count")
if(io_load_err OR NOT io_load_count EQUAL 1)
  message(FATAL_ERROR "span --obs-json: io.load span count '${io_load_count}', expected 1 "
    "${io_load_err}")
endif()
# The stretch pass's witness searches stop once the checked endpoints of
# each vertex settle; draining every ball to 2·w_max took 104840 pops here.
string(JSON stretch_pops GET "${work_stats}" "counters" "stretch.heap_pops")
set(max_stretch_pops 36557)
if(stretch_pops GREATER max_stretch_pops)
  message(FATAL_ERROR "stretch.heap_pops is ${stretch_pops} on the n=2048 seed-3 instance, "
    "above ${max_stretch_pops}: the witness searches run past their endpoints")
endif()
string(JSON cover_centers GET "${work_stats}" "counters" "cover.centers")
string(JSON cg_centers GET "${work_stats}" "counters" "cg.centers")
if(NOT cover_centers EQUAL cg_centers)
  message(FATAL_ERROR "cover.centers=${cover_centers} but cg.centers=${cg_centers}: "
    "some cover ball went unrecorded")
endif()

message(STATUS "cli_obs_smoke: trace has ${x_events} events on ${n_tracks} tracks; all checks passed")
