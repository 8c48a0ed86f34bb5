# Runs a bench with an argument it does not accept, in an empty working
# directory, and fails unless the bench exits 2 and leaves the directory
# empty.  Run by ctest as
#   cmake -DBENCH=<bench binary> -DARG=<argument>
#         -DWORK_DIR=<scratch directory> -P bench_rejects_unknown_flag.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${BENCH}" "${ARG}"
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE status
                TIMEOUT 300)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${BENCH} ${ARG}: expected exit status 2, got '${status}'")
endif()
file(GLOB written "${WORK_DIR}/*")
if(written)
  message(FATAL_ERROR "${BENCH} ${ARG}: wrote ${written} before rejecting the argument")
endif()
