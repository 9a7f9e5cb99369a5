# Runs bees_sim for every scheme against the serial server and two sharded
# clusters, under loss and cross-batch redundancy, and fails unless each
# scheme prints the same CSV line for all three: the cluster's fan-out
# merge is exact.
#
#   cmake -DBEES_SIM=<path to bees_sim> -P shard_invariance.cmake
if(NOT BEES_SIM)
  message(FATAL_ERROR "set BEES_SIM to the bees_sim binary")
endif()

set(run_flags --images 12 --csv --redundancy 0.25 --loss 0.2)
set(serial_flags "")
set(shards3_flags --shards 3)
set(shards4_flags --shards 4 --server-threads 4)

foreach(scheme Direct SmartEye MRC BEES BEES-EA)
  foreach(config serial shards3 shards4)
    execute_process(
      COMMAND "${BEES_SIM}" --scheme ${scheme} ${run_flags} ${${config}_flags}
      OUTPUT_VARIABLE csv
      ERROR_VARIABLE err
      RESULT_VARIABLE status)
    string(REPLACE ";" " " flags "${${config}_flags}")
    if(NOT status EQUAL 0)
      message(FATAL_ERROR
              "bees_sim --scheme ${scheme} ${flags} exited ${status}: ${err}")
    endif()
    if(config STREQUAL "serial")
      set(serial_csv "${csv}")
    elseif(NOT csv STREQUAL serial_csv)
      message(FATAL_ERROR "${scheme}: the serial server printed\n"
                          "${serial_csv}but ${flags} printed\n${csv}")
    endif()
  endforeach()
endforeach()
