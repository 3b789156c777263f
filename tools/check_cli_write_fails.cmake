# Runs ${AOCI} with ${ARGS} (one space-separated string), its standard
# output sent to ${STDOUT} (default /dev/null), and passes only when it
# exits nonzero with ${PATTERN} on stderr and never says that anything was
# written or saved.
#
#   cmake -DAOCI=build/tools/aoci "-DARGS=run jess --profile-out /dev/full"
#     "-DPATTERN=cannot write '/dev/full'" -P check_cli_write_fails.cmake
separate_arguments(Args UNIX_COMMAND "${ARGS}")
if(NOT DEFINED STDOUT)
  set(STDOUT /dev/null)
endif()
execute_process(COMMAND "${AOCI}" ${Args}
  OUTPUT_FILE "${STDOUT}" ERROR_VARIABLE Err RESULT_VARIABLE Status)
if(Status EQUAL 0 OR NOT Err MATCHES "${PATTERN}" OR
   Err MATCHES "(written|saved) to")
  message(FATAL_ERROR "'aoci ${ARGS}' exited ${Status}; expected a failure "
    "with '${PATTERN}' and no success message. stderr:\n${Err}")
endif()
