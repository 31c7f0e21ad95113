# End-to-end smoke test for localspan_cli, run as a CTest script:
#   cmake -DCLI=<path> -DWORK_DIR=<dir> -P cli_smoke.cmake
#
# Drives the full gen -> span -> verify -> route pipeline on a tiny
# instance and checks exit codes plus the shape of stdout and of the
# exported artifacts.

if(NOT DEFINED CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<localspan_cli> -DWORK_DIR=<dir> -P cli_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_cli expect_rc out_var)
  execute_process(
    COMMAND "${CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL expect_rc)
    message(FATAL_ERROR "localspan_cli ${ARGN} exited ${rc} (expected ${expect_rc})\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# No arguments -> usage text on stderr, exit 1.
run_cli(1 usage_out)

# gen: writes the instance file and reports its size.
run_cli(0 gen_out gen --n 64 --alpha 0.75 --dim 2 --seed 7 --out tiny.lsi)
if(NOT gen_out MATCHES "wrote tiny\\.lsi: n=64, m=[0-9]+, policy=")
  message(FATAL_ERROR "gen output shape mismatch:\n${gen_out}")
endif()
if(NOT EXISTS "${WORK_DIR}/tiny.lsi")
  message(FATAL_ERROR "gen did not create tiny.lsi")
endif()

# span: builds the spanner and exports dot + csv.
run_cli(0 span_out span --in tiny.lsi --eps 0.5 --out-dot tiny.dot --out-csv tiny.csv)
if(NOT span_out MATCHES "spanner: [0-9]+ -> [0-9]+ edges, stretch [0-9.]+ \\(bound 1\\.50\\)")
  message(FATAL_ERROR "span output shape mismatch:\n${span_out}")
endif()
foreach(artifact tiny.dot tiny.csv)
  if(NOT EXISTS "${WORK_DIR}/${artifact}")
    message(FATAL_ERROR "span did not create ${artifact}")
  endif()
endforeach()

# verify: exit 0 means the spanner passed verification.
run_cli(0 verify_out verify --in tiny.lsi --eps 0.5)

# verify --threads: the stretch pass runs on a pool and prints the same
# report. The flag is accepted for a serial construction too (mst, whose
# stretch check takes the wide search).
run_cli(0 verify_t4_out verify --in tiny.lsi --eps 0.5 --threads 4)
if(NOT verify_t4_out STREQUAL verify_out)
  message(FATAL_ERROR "verify --threads 4 changed the report:\n${verify_out}\n${verify_t4_out}")
endif()
run_cli(0 mst_verify_out verify --in tiny.lsi --eps 64 --algo mst)
run_cli(0 mst_verify_t4_out verify --in tiny.lsi --eps 64 --algo mst --threads 4)
if(NOT mst_verify_t4_out STREQUAL mst_verify_out)
  message(FATAL_ERROR "verify --algo mst --threads 4 changed the report:\n${mst_verify_out}\n${mst_verify_t4_out}")
endif()

# span --threads 4: one registry team serves the construction and the
# measure pass, and the spanner and declared lines match the one-thread
# build's (the construction time aside).
foreach(algo relaxed ft-edge relaxed-dist)
  foreach(threads 1 4)
    run_cli(0 span_t_out span --in tiny.lsi --eps 0.5 --algo ${algo} --threads ${threads})
    string(REGEX MATCH "spanner: [^\n]*" spanner_line "${span_t_out}")
    string(REGEX REPLACE ", [0-9.]+ ms$" "" spanner_line "${spanner_line}")
    string(REGEX MATCH "declared: [^\n]*" declared_line "${span_t_out}")
    if(spanner_line STREQUAL "" OR declared_line STREQUAL "")
      message(FATAL_ERROR "span --algo ${algo} --threads ${threads} output shape mismatch:\n${span_t_out}")
    endif()
    set(span_lines_${threads} "${spanner_line}\n${declared_line}")
  endforeach()
  if(NOT span_lines_4 STREQUAL span_lines_1)
    message(FATAL_ERROR "span --algo ${algo} --threads 4 changed its lines:\n${span_lines_1}\n${span_lines_4}")
  endif()
endforeach()

# verify a transformed-metric algorithm: must compare against the reweighted
# reference (not Euclidean weights) and still pass.
run_cli(0 energy_verify_out verify --in tiny.lsi --eps 0.5 --algo energy)
if(NOT energy_verify_out MATCHES "transformed metric")
  message(FATAL_ERROR "verify --algo energy did not report the transformed metric:\n${energy_verify_out}")
endif()

# route: prints delivery/stretch lines for both topologies.
run_cli(0 route_out route --in tiny.lsi --eps 0.5 --trials 50)
if(NOT route_out MATCHES "spanner +greedy routing: delivery [0-9.]+%")
  message(FATAL_ERROR "route output shape mismatch:\n${route_out}")
endif()

# route on a corridor, whose draws hit other components: one thread and a
# 3-thread pool print the same lines, pinned to the plain-search harness's.
run_cli(0 corridor_gen_out gen --n 300 --alpha 0.75 --dim 2 --seed 5 --placement corridor
        --target-degree 5 --out corridor.lsi)
set(corridor_route_expected
    "max power  greedy routing: delivery 83.3%, mean stretch 1.025, mean hops 3.9\n"
    "spanner    greedy routing: delivery 83.3%, mean stretch 1.053, mean hops 5.3\n")
string(CONCAT corridor_route_expected ${corridor_route_expected})
foreach(threads 1 3)
  run_cli(0 corridor_route_out route --in corridor.lsi --eps 0.5 --trials 60 --threads ${threads})
  if(NOT corridor_route_out STREQUAL corridor_route_expected)
    message(FATAL_ERROR "route --threads ${threads} on the corridor changed its lines:\n${corridor_route_out}")
  endif()
endforeach()

# missing input file -> error exit.
run_cli(1 missing_out span --in does_not_exist.lsi --eps 0.5)

# unknown flag -> usage error naming the flag (no silent ignoring).
function(run_cli_err expect_pattern)
  execute_process(
    COMMAND "${CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "localspan_cli ${ARGN} exited ${rc} (expected 1)\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  if(NOT err MATCHES "${expect_pattern}")
    message(FATAL_ERROR "localspan_cli ${ARGN}: stderr does not match '${expect_pattern}':\n${err}")
  endif()
endfunction()

run_cli_err("unknown flag --bogus" span --in tiny.lsi --eps 0.5 --bogus 1)
run_cli_err("unknown flag --epz" verify --in tiny.lsi --epz 0.5)
run_cli_err("stray argument" gen extra --n 16 --out x.lsi)
# verify/route lend their one pool to the build: a threads option that
# names another count conflicts with it.
run_cli_err("differs from the lent pool" verify --in tiny.lsi --eps 0.5 --threads 2 --opt threads=3)

# unknown algorithm -> error naming the available ones.
run_cli_err("unknown algorithm 'nope'" span --in tiny.lsi --eps 0.5 --algo nope)

# unknown algorithm option -> rejected by the BuildRequest schema validation.
run_cli_err("does not accept option 'cones'" span --in tiny.lsi --eps 0.5 --algo yao --opt cones=9)

# malformed option value -> typed-accessor rejection.
run_cli_err("expected an integer" span --in tiny.lsi --eps 0.5 --algo yao --opt k=many)

# malformed / out-of-range numeric values -> strict full-string parsing,
# for flag values and option values alike (no silent truncation).
run_cli_err("--eps: expected a number" span --in tiny.lsi --eps 0.5x)
run_cli_err("option k: integer out of range" span --in tiny.lsi --eps 0.5 --algo yao --opt k=4294967304)

# flags the chosen algorithm cannot consume -> rejected, not dropped.
run_cli_err("--strict has no effect" span --in tiny.lsi --eps 0.5 --algo yao --strict)
run_cli_err("--seed has no effect" span --in tiny.lsi --eps 0.5 --algo yao --seed 7)

# repeated option -> rejected rather than silently last-wins.
run_cli_err("option 'k' given more than once" span --in tiny.lsi --eps 0.5 --algo yao --opt k=8 --opt k=12)

# gen rejects values it would otherwise silently replace by a default.
run_cli_err("--placement must be uniform, clustered or corridor, got 'bogus'"
            gen --n 16 --placement bogus --out x.lsi)
run_cli_err("--policy must be always, never, prob or threshold, got 'nope'"
            gen --n 16 --policy nope --out x.lsi)
run_cli_err("--p has no effect: policy 'always'" gen --n 16 --p 0.3 --out x.lsi)
run_cli_err("--p has no effect: policy 'never'" gen --n 16 --policy never --p 0.3 --out x.lsi)
run_cli(0 gen_prob_out gen --n 16 --policy prob --p 0.3 --out prob.lsi)

# --net-json writes the adversary knobs as parsed numbers, so option text
# such as ".1" or "+3" still gives a valid report.
run_cli(0 net_json_out span --in tiny.lsi --eps 0.5 --algo relaxed-dist --net async --loss .1
        --opt net-seed=+3 --net-json net.json)
file(READ "${WORK_DIR}/net.json" net_json)
string(JSON net_loss GET "${net_json}" adversary loss)
string(JSON net_seed GET "${net_json}" adversary net_seed)
string(JSON net_retries GET "${net_json}" adversary retries)
string(JSON net_posted GET "${net_json}" counters net.async.posted)
if(NOT net_loss EQUAL 0.1 OR NOT net_seed STREQUAL "3" OR NOT net_retries STREQUAL "24"
   OR NOT net_posted GREATER 0)
  message(FATAL_ERROR "--net-json report mismatch (loss ${net_loss}, net_seed ${net_seed}, "
                      "retries ${net_retries}, net.async.posted ${net_posted}):\n${net_json}")
endif()

# span through a non-default registry algorithm.
run_cli(0 yao_out span --in tiny.lsi --eps 0.5 --algo yao --opt k=9)
if(NOT yao_out MATCHES "spanner: [0-9]+ -> [0-9]+ edges")
  message(FATAL_ERROR "span --algo yao output shape mismatch:\n${yao_out}")
endif()

# --algo list enumerates the registry.
run_cli(0 list_out span --algo list)
if(NOT list_out MATCHES "registered algorithms \\(1?[0-9]+\\):" OR NOT list_out MATCHES "relaxed-dist")
  message(FATAL_ERROR "--algo list output shape mismatch:\n${list_out}")
endif()

# trace: generate a churn trace (JSON and binary) from the instance.
run_cli(0 trace_out trace --in tiny.lsi --model poisson --events 12 --seed 3 --out tiny_churn.json)
if(NOT trace_out MATCHES "wrote tiny_churn\\.json: model=poisson, 12 events")
  message(FATAL_ERROR "trace output shape mismatch:\n${trace_out}")
endif()
run_cli(0 trace_bin_out trace --in tiny.lsi --model failure --radius 1.0 --out tiny_churn.ctb)
foreach(artifact tiny_churn.json tiny_churn.ctb)
  if(NOT EXISTS "${WORK_DIR}/${artifact}")
    message(FATAL_ERROR "trace did not create ${artifact}")
  endif()
endforeach()

# dynamic: replay the trace with incremental repair; the independent final
# audit must certify the spanner (exit 0).
run_cli(0 dynamic_out dynamic --in tiny.lsi --churn tiny_churn.json --eps 0.5 --quiet
        --out-json tiny_dynamic.json)
if(NOT dynamic_out MATCHES "applied 12 events" OR NOT dynamic_out MATCHES "final audit: PASS")
  message(FATAL_ERROR "dynamic output shape mismatch:\n${dynamic_out}")
endif()
if(NOT EXISTS "${WORK_DIR}/tiny_dynamic.json")
  message(FATAL_ERROR "dynamic did not create tiny_dynamic.json")
endif()

# dynamic/serve reject flags the run would ignore: a demo-mode size next to
# the file that replaces the demo input, a seed with nothing left to seed,
# and a check level for full recomputes, which are never certified.
run_cli_err("dynamic: --n has no effect with --in" dynamic --in tiny.lsi --n 64 --eps 0.5)
run_cli_err("serve: --n has no effect with --in" serve --in tiny.lsi --n 64 --eps 0.5)
run_cli_err("dynamic: --events has no effect with --churn"
            dynamic --in tiny.lsi --churn tiny_churn.json --events 12 --eps 0.5)
run_cli_err("dynamic: --seed has no effect with --in and --churn"
            dynamic --in tiny.lsi --churn tiny_churn.json --seed 3 --eps 0.5)
run_cli_err("dynamic: --check has no effect with --baseline-full"
            dynamic --in tiny.lsi --churn tiny_churn.json --baseline-full --check full --eps 0.5)

# serve: reader threads query epoch-published snapshots while churn windows
# republish; the final audit checks the served distances and the spanner
# audit certifies the final spanner (exit 0 = both PASS).
run_cli(0 serve_out serve --n 256 --events 32 --readers 2 --queries 200 --quiet)
if(NOT serve_out MATCHES "epochs: " OR NOT serve_out MATCHES "final audit: [^\n]* -> PASS"
   OR NOT serve_out MATCHES "spanner audit: PASS")
  message(FATAL_ERROR "serve output shape mismatch:\n${serve_out}")
endif()
# The serving:, epochs: and final audit: lines depend only on the seeded
# trace, the pairs and the labels, which are bit-identical at every thread
# count.
run_cli(0 serve_t1_out serve --n 256 --events 32 --readers 2 --queries 200 --quiet --threads 1)
run_cli(0 serve_t4_out serve --n 256 --events 32 --readers 2 --queries 200 --quiet --threads 4)
foreach(v serve_t1_out serve_t4_out)
  string(REGEX MATCHALL "(serving|  epochs|final audit): [^\n]*" ${v} "${${v}}")
endforeach()
if(NOT serve_t1_out STREQUAL serve_t4_out OR NOT serve_t1_out MATCHES "final audit")
  message(FATAL_ERROR "serve differs across thread counts:\n${serve_t1_out}\n${serve_t4_out}")
endif()
# The oracle's levels and label entries are pinned to the two-pass build's
# (a cover search, then a label search, per center per level).
if(NOT serve_t1_out MATCHES "serving: n=256, 710 spanner edges, oracle 5 levels \\(4769 label entries, bound 5\\.00\\)")
  message(FATAL_ERROR "serve --n 256: oracle shape changed:\n${serve_t1_out}")
endif()

# unknown trace model -> error exit.
run_cli(1 badmodel_out trace --in tiny.lsi --model bogus --out x.json)

# An output file that cannot be opened is an error, not a "wrote" line.
run_cli_err("cannot open no_such_dir/x\\.dot" span --in tiny.lsi --eps 0.5 --out-dot no_such_dir/x.dot)
run_cli_err("cannot open no_such_dir/x\\.csv" span --in tiny.lsi --eps 0.5 --out-csv no_such_dir/x.csv)

# An explicit --batch 1 runs the per-event path, --out-json included, and
# prints what the run without --batch prints (timings aside). Only a bare
# --batch means 64-event windows.
run_cli(0 per_event_out dynamic --in tiny.lsi --churn tiny_churn.json --eps 0.5 --out-json b1.json)
run_cli(0 batch1_out dynamic --in tiny.lsi --churn tiny_churn.json --eps 0.5 --batch 1
        --out-json b1.json)
foreach(v per_event_out batch1_out)
  string(REGEX REPLACE "[0-9]+\\.[0-9]+ (ms|s|events/s)" "T \\1" ${v} "${${v}}")
endforeach()
if(NOT batch1_out MATCHES "t=[0-9.]+ +(join|leave) " OR NOT batch1_out STREQUAL per_event_out)
  message(FATAL_ERROR "dynamic --batch 1 differs from the per-event run:\n${per_event_out}\n${batch1_out}")
endif()

# Batched windows repair regions concurrently at --threads 4, yet the final
# topology and its audit match the one-thread run's.
foreach(threads 1 4)
  run_cli(0 batch_t${threads}_out dynamic --batch 32 --n 1024 --events 256 --quiet
          --threads ${threads})
  string(REGEX MATCHALL "final( audit)?: [^\n]*" batch_t${threads}_out "${batch_t${threads}_out}")
endforeach()
if(NOT batch_t1_out STREQUAL batch_t4_out OR NOT batch_t1_out MATCHES "final audit: PASS")
  message(FATAL_ERROR "dynamic --batch 32 differs across thread counts:\n${batch_t1_out}\n${batch_t4_out}")
endif()

# The flag parser: a flag given twice, a value after a switch, a flag the
# chosen model ignores, an out-of-range value and a bare value flag are
# usage errors naming the flag.
run_cli_err("span: --eps given more than once" span --in tiny.lsi --eps 0.5 --eps 3)
run_cli_err("gen: --out given more than once" gen --out a.lsi --out b.lsi)
run_cli_err("dynamic: --quiet is a switch and takes no value" dynamic --quiet 0)
run_cli_err("span: --strict is a switch and takes no value" span --in tiny.lsi --strict no)
run_cli_err("trace: --no-rejoin is a switch and takes no value" trace --in tiny.lsi --no-rejoin 0)
run_cli_err("trace: --speed has no effect: model 'poisson'"
            trace --in tiny.lsi --model poisson --speed 9)
run_cli_err("trace: --rejoin-time has no effect with --no-rejoin"
            trace --in tiny.lsi --model failure --no-rejoin --rejoin-time 3)
run_cli_err("trace: --events must be >= 0, got '-3'" trace --in tiny.lsi --events -3)
run_cli_err("trace: --dt must be > 0, got '0'" trace --in tiny.lsi --model waypoint --dt 0)
run_cli_err("serve: --batch needs a value" serve --batch)

# The usage text is generated from the flag tables: for every command, the
# flags it lists are the allowed list of its unknown-flag error.
execute_process(COMMAND "${CLI}" RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE usage_text)
# Keep list separators and brackets in help text from splitting lines.
string(REPLACE ";" "," usage_text "${usage_text}")
string(REPLACE "[" "(" usage_text "${usage_text}")
string(REPLACE "]" ")" usage_text "${usage_text}")
string(REPLACE "\n" ";" usage_lines "${usage_text}")
set(usage_cmd "")
set(usage_cmds "")
foreach(line IN LISTS usage_lines)
  if(line MATCHES "^([a-z]+): " AND NOT CMAKE_MATCH_1 STREQUAL "usage")
    set(usage_cmd "${CMAKE_MATCH_1}")
    list(APPEND usage_cmds "${usage_cmd}")
    set(usage_flags_${usage_cmd} "")
  elseif(line MATCHES "^  (--[a-z-]+)" AND NOT usage_cmd STREQUAL "")
    list(APPEND usage_flags_${usage_cmd} "${CMAKE_MATCH_1}")
  endif()
endforeach()
set(all_cmds gen span verify route trace dynamic serve)
if(NOT usage_cmds STREQUAL "${all_cmds}")
  message(FATAL_ERROR "usage lists commands '${usage_cmds}', expected '${all_cmds}':\n${usage_text}")
endif()
foreach(cmd IN LISTS all_cmds)
  execute_process(COMMAND "${CLI}" ${cmd} --no-such-flag WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT err MATCHES "unknown flag --no-such-flag \\(allowed: ([^)]*)\\)")
    message(FATAL_ERROR "${cmd} --no-such-flag: no allowed list in:\n${err}")
  endif()
  string(REGEX MATCHALL "--[a-z-]+" allowed "${CMAKE_MATCH_1}")
  set(listed ${usage_flags_${cmd}})
  list(SORT allowed)
  list(SORT listed)
  if(NOT listed STREQUAL allowed)
    message(FATAL_ERROR "usage of ${cmd} lists '${listed}' but ${cmd} accepts '${allowed}'")
  endif()
endforeach()

message(STATUS "cli_smoke: all checks passed")
