# Runs COMMAND and fails unless it exits 0 and its stdout equals the file
# EXPECTED byte for byte. The actual output is left in ACTUAL for diffing.
#
#   cmake -DCOMMAND=<exe> -DEXPECTED=<file> -DACTUAL=<file> \
#         -P expect_stdout.cmake
execute_process(COMMAND ${COMMAND}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
file(WRITE ${ACTUAL} "${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${EXPECTED}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
    "stdout of ${COMMAND} differs from ${EXPECTED}; got ${ACTUAL}")
endif()
