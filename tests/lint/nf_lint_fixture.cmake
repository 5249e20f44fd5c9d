# ctest driver for one nf-lint self-test fixture pair (golden-style, like
# tools/nf_inspect_smoke.cmake): the positive fixture must make CHECK fire
# (exit 1, report naming the check and the fixture), and the suppressed twin
# must lint clean (exit 0, zero findings). Variables: LINT (binary), CHECK
# (full check name), POS / OK (fixture paths).
execute_process(
  COMMAND ${LINT} --check=${CHECK} ${POS}
  RESULT_VARIABLE pos_rc
  OUTPUT_VARIABLE pos_out
  ERROR_VARIABLE pos_err)
if(NOT pos_rc EQUAL 1)
  message(FATAL_ERROR
    "positive fixture: expected exit 1, got ${pos_rc}\n${pos_out}${pos_err}")
endif()
if(NOT pos_out MATCHES "\\[${CHECK}\\]")
  message(FATAL_ERROR
    "positive fixture: report does not name [${CHECK}]\n${pos_out}")
endif()
get_filename_component(pos_name ${POS} NAME)
if(NOT pos_out MATCHES "${pos_name}")
  message(FATAL_ERROR
    "positive fixture: report does not cite ${pos_name}\n${pos_out}")
endif()

execute_process(
  COMMAND ${LINT} --check=${CHECK} ${OK}
  RESULT_VARIABLE ok_rc
  OUTPUT_VARIABLE ok_out
  ERROR_VARIABLE ok_err)
if(NOT ok_rc EQUAL 0)
  message(FATAL_ERROR
    "suppressed fixture: expected exit 0, got ${ok_rc}\n${ok_out}${ok_err}")
endif()
if(NOT ok_out MATCHES ": 0 findings")
  message(FATAL_ERROR
    "suppressed fixture: expected zero findings\n${ok_out}")
endif()
