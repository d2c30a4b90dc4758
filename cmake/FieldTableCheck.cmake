# Compile check of the field-table proof (src/core/field_table.hh) on
# the fixtures in tests/field_table_fixtures/: complete.cc must
# compile; missing_row.cc (two structs, each with a member that has no
# row) and duplicate_row.cc must fail with their static_assert's own
# message, so a fixture that fails for any other reason fails here.
#
# Usage: cmake -DCXX=<compiler> -DSTD_FLAG=<-std=c++20>
#              -DINCLUDE=<repo>/src -DFIXTURES=<fixture dir>
#              -P FieldTableCheck.cmake

foreach(var CXX STD_FLAG INCLUDE FIXTURES)
    if(NOT ${var})
        message(FATAL_ERROR "FieldTableCheck.cmake: pass -D${var}=...")
    endif()
endforeach()

# check(<fixture> <message> <count>): compiles when <count> is 0, else
# fails with <message> at least <count> times.
function(check fixture message count)
    execute_process(
        COMMAND ${CXX} ${STD_FLAG} -fsyntax-only -I${INCLUDE}
            ${FIXTURES}/${fixture}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    if(count EQUAL 0)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "${fixture} must compile (exit ${rc}):\n${out}")
        endif()
        return()
    endif()
    string(REGEX MATCHALL "${message}" hits "${out}")
    list(LENGTH hits n)
    if(rc EQUAL 0 OR n LESS count)
        message(FATAL_ERROR "${fixture}: expected a failed compile with "
            "\"${message}\" at least ${count} time(s), got exit ${rc} "
            "and ${n}:\n${out}")
    endif()
endfunction()

check(complete.cc "" 0)
check(missing_row.cc "field table: a struct member has no row" 2)
check(duplicate_row.cc "field table: two rows name the same member" 1)
