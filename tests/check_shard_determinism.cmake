# Sharded-simulation determinism check: the bench binary's deterministic
# mode (SPLITIO_SHARD_CHECK=1) must produce byte-identical output — client
# tables, shard-runtime stats, and the BENCHJSON line with its counter
# totals — when the same configuration runs twice, at two groupings of the
# workers onto shards. Also runs the negative control: a lookahead perturbed
# past the real RPC latency must be reported as causality violations and
# fail the run.
# Invoked by ctest; pass -DBENCH=<path-to-bench_hdfs_sharded>.
if(NOT DEFINED BENCH)
  message(FATAL_ERROR "pass -DBENCH=<path to bench_hdfs_sharded>")
endif()

# detect_leaks=0: the scenario stops at a time horizon with client
# coroutines still suspended (see check_determinism.cmake).
set(base_env ASAN_OPTIONS=detect_leaks=0 SPLITIO_SHARD_CHECK=1
    SPLITIO_SHARD_NODES=12 SPLITIO_SHARD_CLIENTS=2
    SPLITIO_SHARD_HORIZON_MS=200)

# One node per shard, then a coarser grouping: within each grouping two
# runs must match byte for byte.
foreach(grouping 1 3)
  set(reference "")
  foreach(run 1 2)
    execute_process(COMMAND ${CMAKE_COMMAND} -E env ${base_env}
                    SPLITIO_SHARD_GROUPING=${grouping}
                    ${BENCH} --seed 123
                    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "grouping=${grouping} run ${run} exited ${rc}")
    endif()
    string(REGEX MATCH "BENCHJSON [^\n]*" json "${out}")
    if(json STREQUAL "")
      message(FATAL_ERROR "no BENCHJSON line (grouping=${grouping})")
    endif()
    if(reference STREQUAL "")
      set(reference "${out}")
    elseif(NOT out STREQUAL reference)
      message(FATAL_ERROR "output differs between two runs at "
              "grouping=${grouping}")
    endif()
  endforeach()
endforeach()

# Negative control: the violation detector must catch a lookahead inflated
# past the RPC latency, and the run must fail.
execute_process(COMMAND ${CMAKE_COMMAND} -E env ${base_env}
                SPLITIO_SHARD_PERTURB=1 ${BENCH} --seed 123
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "perturbed lookahead was not caught (exit 0)")
endif()
string(FIND "${out}" "causality violations" viol_pos)
if(viol_pos EQUAL -1)
  message(FATAL_ERROR "perturbed run failed without naming violations")
endif()
message(STATUS "sharded runs byte-identical run to run; "
        "perturbed lookahead caught")
