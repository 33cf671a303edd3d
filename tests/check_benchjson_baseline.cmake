# BENCHJSON baseline pin: runs a bench binary (untraced, default seed) and
# requires its BENCHJSON line to match the committed expectation byte for
# byte. This is the repo's contract that instrumentation changes (tracing
# hooks, new counters, per-stack scopes) never drift the deterministic
# figure benches: any intentional change must update the committed file in
# tests/benchjson_baseline/ in the same commit that causes it.
# Invoked by ctest; pass -DBENCH=<path-to-binary> -DBASELINE=<expected file>,
# and -DCOMPARE_ALLOCS=OFF to leave the toolchain-dependent `allocs` fields
# out of the comparison.
if(NOT DEFINED BENCH)
  message(FATAL_ERROR "pass -DBENCH=<path to a bench binary>")
endif()
if(NOT DEFINED BASELINE)
  message(FATAL_ERROR "pass -DBASELINE=<path to expected BENCHJSON line>")
endif()
if(NOT EXISTS ${BASELINE})
  message(FATAL_ERROR "baseline file missing: ${BASELINE}")
endif()

# detect_leaks=0: see check_determinism.cmake.
execute_process(COMMAND ${CMAKE_COMMAND} -E env ASAN_OPTIONS=detect_leaks=0
                ${BENCH}
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench exited nonzero: ${rc}")
endif()

string(REGEX MATCH "BENCHJSON [^\n]*" actual "${out}")
if(actual STREQUAL "")
  message(FATAL_ERROR "no BENCHJSON line in bench output")
endif()

file(READ ${BASELINE} expected)
string(STRIP "${expected}" expected)
if(DEFINED COMPARE_ALLOCS AND NOT COMPARE_ALLOCS)
  string(REGEX REPLACE ",?\"allocs\":[0-9]+" "" actual "${actual}")
  string(REGEX REPLACE ",?\"allocs\":[0-9]+" "" expected "${expected}")
endif()
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "BENCHJSON drifted from committed baseline.\n"
          "expected: ${expected}\n"
          "actual:   ${actual}\n"
          "If the change is intentional, refresh ${BASELINE}.")
endif()
message(STATUS "BENCHJSON matches committed baseline")
