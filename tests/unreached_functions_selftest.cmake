# Runs tools/unreached_functions.sh on tests/unreached_fixture and fails
# unless it exits 1 and prints exactly the fixture's expected.txt: its
# unreached inline member and unreached out-of-line function, and neither
# its compiler-made functions (an aggregate's implicit constructor, a
# lambda's thunk and conversion operator), its reached ones nor its
# allowlisted one.  Run by ctest as
#   cmake -DSOURCE_DIR=<repository> -DCXX=<C++ compiler>
#         -DWORK_DIR=<scratch directory> -P unreached_functions_selftest.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(COPY "${SOURCE_DIR}/tests/unreached_fixture/" DESTINATION "${WORK_DIR}")
file(COPY "${SOURCE_DIR}/tools/unreached_functions.sh"
     DESTINATION "${WORK_DIR}/tools")
set(ENV{CXX} "${CXX}")
execute_process(COMMAND bash "${WORK_DIR}/tools/unreached_functions.sh"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE reported
                ERROR_VARIABLE summary
                TIMEOUT 120)
file(READ "${WORK_DIR}/expected.txt" expected)
if(NOT status EQUAL 1 OR NOT reported STREQUAL expected)
  message(FATAL_ERROR "unreached_functions.sh on the fixture: exit status "
          "'${status}' (want 1)\nreported:\n${reported}\nexpected:\n"
          "${expected}\n${summary}")
endif()
