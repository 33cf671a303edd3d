# bench_hdfs_sharded must reject out-of-range knobs with exit 2 and a
# message naming the variable: fewer workers than the replication factor
# used to loop forever placing a block, a zero grouping died of SIGFPE, a
# negative client count aborted on std::length_error, a zero horizon
# printed NaN MB/s, and a value that is not a number ran as 0.
# Invoked by ctest; pass -DBENCH=<path-to-bench_hdfs_sharded>.
if(NOT DEFINED BENCH)
  message(FATAL_ERROR "pass -DBENCH=<path to bench_hdfs_sharded>")
endif()

# Runs the bench with the environment in ARGN and requires exit 2 and a
# message naming `var`.
function(expect_rejected var)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env ${ARGN} ${BENCH}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc
                  TIMEOUT 20)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${ARGN}: expected exit 2, got '${rc}'")
  endif()
  string(FIND "${out}${err}" "${var}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${ARGN}: message does not name ${var}:\n${err}")
  endif()
endfunction()

expect_rejected(SPLITIO_SHARD_NODES SPLITIO_SHARD_NODES=2)
expect_rejected(SPLITIO_SHARD_NODES SPLITIO_SHARD_CHECK=1
                SPLITIO_SHARD_NODES=2)
expect_rejected(SPLITIO_SHARD_GROUPING SPLITIO_SHARD_CHECK=1
                SPLITIO_SHARD_GROUPING=0)
expect_rejected(SPLITIO_SHARD_CLIENTS SPLITIO_SHARD_CHECK=1
                SPLITIO_SHARD_CLIENTS=-1)
expect_rejected(SPLITIO_SHARD_HORIZON_MS SPLITIO_SHARD_HORIZON_MS=0)
expect_rejected(SPLITIO_SHARD_CLIENTS SPLITIO_SHARD_CHECK=1
                SPLITIO_SHARD_CLIENTS=abc)
message(STATUS "out-of-range shard knobs rejected with exit 2")
