# Sharded runs are untraced: ShardContext parks the trace listeners and the
# metrics hub inside every shard (DESIGN.md §11), so a sharded bench run
# under --trace / --metrics records nothing. It must say so on stderr
# instead of leaving empty files without a word, and still exit 0.
# Invoked by ctest; pass -DBENCH=<path-to-bench_hdfs_sharded>
# -DWORKDIR=<scratch dir>.
if(NOT DEFINED BENCH)
  message(FATAL_ERROR "pass -DBENCH=<path to bench_hdfs_sharded>")
endif()
if(NOT DEFINED WORKDIR)
  message(FATAL_ERROR "pass -DWORKDIR=<scratch directory>")
endif()

file(MAKE_DIRECTORY ${WORKDIR})
set(spans ${WORKDIR}/spans.jsonl)
set(timeline ${WORKDIR}/timeline.jsonl)
file(REMOVE ${spans} ${timeline})

# detect_leaks=0: see check_determinism.cmake.
execute_process(COMMAND ${CMAKE_COMMAND} -E env ASAN_OPTIONS=detect_leaks=0
                SPLITIO_SHARD_CHECK=1 SPLITIO_SHARD_NODES=6
                SPLITIO_SHARD_CLIENTS=1 SPLITIO_SHARD_HORIZON_MS=50
                ${BENCH} --seed 123 --trace ${spans} --metrics ${timeline}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sharded bench exited ${rc}:\n${err}")
endif()
foreach(flag --trace --metrics)
  string(FIND "${err}"
         "warning: ${flag} recorded nothing (runs inside ShardGroup shards are untraced"
         pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "no '${flag} recorded nothing' warning; stderr:\n${err}")
  endif()
endforeach()
message(STATUS "sharded run under --trace/--metrics warned that it is untraced")
