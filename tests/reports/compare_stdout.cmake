# Runs one report binary and compares its stdout with a checked-in golden.
#   cmake -DBIN=<binary> -DGOLDEN=<golden.txt> -DACTUAL=<out.txt> -P compare_stdout.cmake
# Fails when the binary exits nonzero or its stdout differs from the golden
# by a single byte; the actual output is left at ACTUAL for inspection.

execute_process(COMMAND "${BIN}" OUTPUT_FILE "${ACTUAL}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${ACTUAL}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN} (actual output: ${ACTUAL})")
endif()
