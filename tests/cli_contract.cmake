# CLI contract check, run as `cmake -DBIN=<binary> "-DARGS=<args>"
# "-DERROR=<message>" -P cli_contract.cmake`: BIN given ARGS (space
# separated) must exit 2 before running anything, so with nothing on stdout,
# and print exactly one stderr line, "error: " followed by a text that
# contains ERROR.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args} RESULT_VARIABLE status OUTPUT_VARIABLE out
                ERROR_VARIABLE err TIMEOUT 10)
string(FIND "${err}" "${ERROR}" at)
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT status EQUAL 2 OR NOT out STREQUAL "" OR NOT err MATCHES "^error: " OR at EQUAL -1
   OR NOT lines EQUAL 1)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${status}, want 2 with one \"error: ...${ERROR}\" "
                      "line and no stdout\nstdout: ${out}\nstderr: ${err}")
endif()
