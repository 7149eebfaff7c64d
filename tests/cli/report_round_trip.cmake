# Runs PROGRAM with ARGS plus `FLAG OUTPUT` (`--report <file>` or
# `--journal <file>`), then CHECKER on OUTPUT, and fails unless both exit 0:
#
#   cmake -DPROGRAM=<sweep_cli> "-DARGS=--points 3" -DFLAG=--report -DOUTPUT=<file>
#         -DCHECKER=<report_check> -P report_round_trip.cmake
file(REMOVE "${OUTPUT}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args} ${FLAG} "${OUTPUT}"
                RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${result}" STREQUAL "0")
  message(FATAL_ERROR "${PROGRAM} ${ARGS} ${FLAG} ${OUTPUT}: exit '${result}', expected 0\n${err}")
endif()
execute_process(COMMAND "${CHECKER}" "${OUTPUT}"
                RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${result}" STREQUAL "0")
  message(FATAL_ERROR "${CHECKER} ${OUTPUT}: exit '${result}', expected 0\n${out}${err}")
endif()
