# Runs ${AOCI} with ${ARGS} (one space-separated string) and passes only
# when it exits 1 with ${PATTERN} on stderr, so a crash, a silent success
# or the wrong diagnostic fails.
#
#   cmake -DAOCI=build/tools/aoci "-DARGS=run compress --policy bogus"
#     "-DPATTERN=unknown policy 'bogus'" -P check_cli_rejects.cmake
separate_arguments(Args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${AOCI}" ${Args}
  OUTPUT_QUIET ERROR_VARIABLE Err RESULT_VARIABLE Status)
if(NOT Status EQUAL 1 OR NOT Err MATCHES "${PATTERN}")
  message(FATAL_ERROR "'aoci ${ARGS}' exited ${Status}; expected 1 with "
    "'${PATTERN}' on stderr. stderr:\n${Err}")
endif()
