# Runs PROGRAM in WORKDIR and fails unless its stdout is byte-identical to
# EXPECTED; with FILE set, also compares the file the program writes into
# WORKDIR under that name with EXPECTED_FILE:
#
#   cmake -DPROGRAM=<exe> -DWORKDIR=<dir> -DEXPECTED=<stdout snapshot>
#         [-DFILE=<name> -DEXPECTED_FILE=<file snapshot>] -P check_output.cmake
#
# The output stays in WORKDIR, so a failure can be diffed by hand. A PR that
# moves a number re-commits the snapshot, and the diff shows the move.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
get_filename_component(name "${PROGRAM}" NAME)
set(stdout "${WORKDIR}/${name}.txt")
execute_process(COMMAND "${PROGRAM}" WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE result OUTPUT_FILE "${stdout}" ERROR_VARIABLE err)
if(NOT "${result}" STREQUAL "0")
  message(FATAL_ERROR "${PROGRAM}: exit '${result}', expected 0\n${err}")
endif()
set(pairs "${stdout}|${EXPECTED}")
if(FILE)
  list(APPEND pairs "${WORKDIR}/${FILE}|${EXPECTED_FILE}")
endif()
foreach(pair IN LISTS pairs)
  string(REPLACE "|" ";" pair "${pair}")
  list(GET pair 0 got)
  list(GET pair 1 want)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${got}" "${want}"
                  RESULT_VARIABLE differs)
  if(NOT "${differs}" STREQUAL "0")
    message(FATAL_ERROR "${got} differs from the snapshot ${want}")
  endif()
endforeach()
