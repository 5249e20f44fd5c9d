# ctest script for nf_inspect_perf_smoke: `nf-inspect perf` must read the
# committed BENCH_perf.json, compare both workloads and reach a verdict.
execute_process(
  COMMAND ${INSPECT} perf ${PERF}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nf-inspect perf found a regression between the last "
                      "two trajectory rows (exit ${rc}):\n${out}")
endif()
foreach(workload lossy_multiquery naive_collect)
  if(NOT out MATCHES "== ${workload}")
    message(FATAL_ERROR "nf-inspect perf did not compare ${workload}")
  endif()
endforeach()

# Consecutive rows compare B's change side with B's own parent side, so
# drift between the sessions that measured the rows cannot read as a
# regression.
execute_process(
  COMMAND ${INSPECT} perf --rows=0,1 ${PERF}
  RESULT_VARIABLE next_rc
  OUTPUT_VARIABLE next_out)
if(NOT next_rc EQUAL 0)
  message(FATAL_ERROR "rows 0,1 must compare within row 1's session and "
                      "pass (exit ${next_rc}):\n${next_out}")
endif()
if(NOT next_out MATCHES "base: row 1's parent side")
  message(FATAL_ERROR "rows 0,1 did not use row 1's parent side:\n"
                      "${next_out}")
endif()

execute_process(
  COMMAND ${INSPECT} perf --rows=0,0 ${PERF}
  RESULT_VARIABLE same_rc
  OUTPUT_VARIABLE same_out)
if(NOT same_rc EQUAL 0 OR same_out MATCHES "REGRESSED")
  message(FATAL_ERROR "a row compared with itself must not regress")
endif()

# Rows that are not consecutive compare change with change and say that
# they come from different sessions; the verdict itself may go either way.
execute_process(
  COMMAND ${INSPECT} perf --rows=0,2 ${PERF}
  RESULT_VARIABLE far_rc
  OUTPUT_VARIABLE far_out)
if(NOT (far_rc EQUAL 0 OR far_rc EQUAL 1) OR
   NOT far_out MATCHES "base: row 0's change side" OR
   NOT far_out MATCHES "caveat: rows 0 and 2 are not consecutive")
  message(FATAL_ERROR "rows 0,2 must compare change sides with a drift "
                      "caveat (exit ${far_rc}):\n${far_out}")
endif()

execute_process(
  COMMAND ${INSPECT} perf --rows=0,999999 ${PERF}
  RESULT_VARIABLE bad_rc
  OUTPUT_QUIET ERROR_QUIET)
if(NOT bad_rc EQUAL 2)
  message(FATAL_ERROR "a missing row must exit 2, got ${bad_rc}")
endif()
