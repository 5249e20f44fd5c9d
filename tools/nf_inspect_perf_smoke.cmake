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

execute_process(
  COMMAND ${INSPECT} perf --rows=0,0 ${PERF}
  RESULT_VARIABLE same_rc
  OUTPUT_VARIABLE same_out)
if(NOT same_rc EQUAL 0 OR same_out MATCHES "REGRESSED")
  message(FATAL_ERROR "a row compared with itself must not regress")
endif()

execute_process(
  COMMAND ${INSPECT} perf --rows=0,999999 ${PERF}
  RESULT_VARIABLE bad_rc
  OUTPUT_QUIET ERROR_QUIET)
if(NOT bad_rc EQUAL 2)
  message(FATAL_ERROR "a missing row must exit 2, got ${bad_rc}")
endif()
