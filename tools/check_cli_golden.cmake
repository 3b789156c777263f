# Runs ${AOCI} with ${ARGS} (one space-separated string) and compares its
# stdout, stderr and exit status against the fixture ${GOLDEN}. With
# AOCI_UPDATE_GOLDEN=1 in the environment it rewrites the fixture instead
# (review the diff before committing, as for tests/GoldenTest.cpp).
#
#   cmake -DAOCI=build/tools/aoci -DARGS="run jess" -DGOLDEN=f -P check_cli_golden.cmake
separate_arguments(Args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${AOCI}" ${Args}
  OUTPUT_VARIABLE Out ERROR_VARIABLE Err RESULT_VARIABLE Status)
set(Actual "${Out}--- stderr ---\n${Err}--- exit status ${Status} ---\n")
if("$ENV{AOCI_UPDATE_GOLDEN}" STREQUAL "1")
  file(WRITE "${GOLDEN}" "${Actual}")
  message(STATUS "regenerated ${GOLDEN}")
  return()
endif()
file(READ "${GOLDEN}" Expected)
if(NOT Actual STREQUAL Expected)
  message(FATAL_ERROR "'aoci ${ARGS}' drifted from ${GOLDEN}; got:\n${Actual}")
endif()
