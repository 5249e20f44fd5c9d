# ctest driver for nf-lint's baseline workflow: --write-baseline must
# capture the current findings, a re-run against that baseline must gate
# clean, and introducing a fresh violation must fail with a "new" finding.
# Variables: LINT (binary), FIXTURES (tests/lint source dir).
set(work ${CMAKE_CURRENT_BINARY_DIR}/nf_lint_baseline_work)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})
configure_file(${FIXTURES}/arena_map_pos.cpp ${work}/seeded.cpp COPYONLY)

execute_process(
  COMMAND ${LINT} --check=nf-arena-map
          --write-baseline=${work}/baseline.txt ${work}/seeded.cpp
  RESULT_VARIABLE write_rc
  OUTPUT_VARIABLE write_out)
if(NOT write_rc EQUAL 0)
  message(FATAL_ERROR "--write-baseline: expected exit 0, got ${write_rc}")
endif()
file(READ ${work}/baseline.txt baseline_text)
if(NOT baseline_text MATCHES "nf-arena-map\\|")
  message(FATAL_ERROR "baseline file lists no finding keys:\n${baseline_text}")
endif()

# Against the fresh baseline every finding is known: the gate passes.
execute_process(
  COMMAND ${LINT} --check=nf-arena-map
          --baseline=${work}/baseline.txt ${work}/seeded.cpp
  RESULT_VARIABLE known_rc
  OUTPUT_VARIABLE known_out)
if(NOT known_rc EQUAL 0)
  message(FATAL_ERROR
    "baselined findings must not gate: exit ${known_rc}\n${known_out}")
endif()
if(NOT known_out MATCHES "0 new vs")
  message(FATAL_ERROR "summary does not report 0 new:\n${known_out}")
endif()

# A newly introduced violation is not in the baseline: the gate fails.
file(APPEND ${work}/seeded.cpp
  "namespace fixture { std::map<NodeId, int> fresh_state; }\n")
execute_process(
  COMMAND ${LINT} --check=nf-arena-map
          --baseline=${work}/baseline.txt ${work}/seeded.cpp
  RESULT_VARIABLE new_rc
  OUTPUT_VARIABLE new_out)
if(NOT new_rc EQUAL 1)
  message(FATAL_ERROR
    "new finding must gate (exit 1), got ${new_rc}\n${new_out}")
endif()
if(NOT new_out MATCHES "1 new vs")
  message(FATAL_ERROR "summary does not report the new finding:\n${new_out}")
endif()
