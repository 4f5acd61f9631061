# Runs EXE with the space-separated ARGS and fails unless it exits with
# status EXPECT after writing exactly one line to stderr.  A crash
# reports a signal name instead of a status, so it fails too.
#
#   cmake -DEXE=path -DARGS="1.5 4" -DEXPECT=2 -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL EXPECT)
  message(FATAL_ERROR
          "${EXE} ${ARGS}: exit status '${status}', want ${EXPECT}\n${err}")
endif()
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT lines EQUAL 1)
  message(FATAL_ERROR
          "${EXE} ${ARGS}: want one stderr line, got ${lines}:\n${err}")
endif()
message(STATUS "${EXE} ${ARGS}: exit ${status}: ${err}")
