# Runs PROGRAM with ARGS plus `--report REPORT`, then CHECKER on REPORT, and
# fails unless both exit 0:
#
#   cmake -DPROGRAM=<sweep_cli> "-DARGS=--points 3" -DREPORT=<file>
#         -DCHECKER=<report_check> -P report_round_trip.cmake
file(REMOVE "${REPORT}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args} --report "${REPORT}"
                RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${result}" STREQUAL "0")
  message(FATAL_ERROR "${PROGRAM} ${ARGS} --report ${REPORT}: exit '${result}', expected 0\n${err}")
endif()
execute_process(COMMAND "${CHECKER}" "${REPORT}"
                RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${result}" STREQUAL "0")
  message(FATAL_ERROR "${CHECKER} ${REPORT}: exit '${result}', expected 0\n${out}${err}")
endif()
