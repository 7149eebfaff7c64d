# Runs PROGRAM with ARGS (one string, split like a shell command line) and
# fails unless the process exits with code EXPECTED:
#
#   cmake -DPROGRAM=<exe> "-DARGS=--points abc" -DEXPECTED=2 -P expect_exit.cmake
#
# A process killed by a signal (an uncaught exception aborts) reports a
# non-numeric RESULT_VARIABLE, which fails the comparison too.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${result}" STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit '${result}', expected ${EXPECTED}\n${err}")
endif()
