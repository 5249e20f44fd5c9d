# ctest script: netfilter_sim must reject the flag ARG while parsing — exit
# 2 with the message ERROR on stderr — before it builds a workload.
execute_process(
  COMMAND ${SIM} ${ARG}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "netfilter_sim ${ARG} must exit 2, got ${rc}:\n"
                      "${out}${err}")
endif()
string(FIND "${err}" "${ERROR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "netfilter_sim ${ARG} did not print '${ERROR}' on "
                      "stderr:\n${err}")
endif()
if(out MATCHES "synthetic workload")
  message(FATAL_ERROR "netfilter_sim ${ARG} built a workload before "
                      "rejecting the flag:\n${out}")
endif()
