# Runs each test binary's --gtest_list_tests twice and fails when the
# two listings differ, naming the lines only the first run printed.
# Usage: cmake -P stable_test_names.cmake <test binary>...
set(unstable "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 3 ${last})
    set(binary "${CMAKE_ARGV${i}}")
    foreach(run 1 2)
        execute_process(COMMAND "${binary}" --gtest_list_tests
            OUTPUT_VARIABLE listing${run} RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "${binary} --gtest_list_tests: ${rc}")
        endif()
    endforeach()
    if(NOT listing1 STREQUAL listing2)
        string(REGEX MATCHALL "[^\n]+" only1 "${listing1}")
        string(REGEX MATCHALL "[^\n]+" lines2 "${listing2}")
        list(REMOVE_ITEM only1 ${lines2})
        list(JOIN only1 "\n  " only1)
        message(SEND_ERROR
            "${binary}: names change between runs:\n  ${only1}")
        list(APPEND unstable "${binary}")
    endif()
endforeach()
if(unstable)
    message(FATAL_ERROR "unstable test names in: ${unstable}")
endif()
