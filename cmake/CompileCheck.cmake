# Compile check of the invariants the compiler proves, on the fixtures
# in tests/compile_fixtures/; each failing fixture must fail with its
# own message, so a fixture that fails for any other reason fails here.
#
#  - Field tables (src/core/field_table.hh): field_table_complete.cc
#    compiles; field_table_missing_row.cc (two structs, each with a
#    member that has no row) and field_table_duplicate_row.cc fail at
#    coversEveryMember()'s static_assert.
#  - Checked file I/O (src/trace/file_io.hh): file_io_checked.cc
#    compiles; file_io_raw_call.cc fails on the poisoned std::fclose,
#    and file_io_discarded_read.cc, which drops File::read's byte
#    count, fails under -Werror=unused-result.
#
# Usage: cmake -DCXX=<compiler> -DSTD_FLAG=<-std=c++20>
#              -DINCLUDE=<repo>/src -DFIXTURES=<fixture dir>
#              -P CompileCheck.cmake

foreach(var CXX STD_FLAG INCLUDE FIXTURES)
    if(NOT ${var})
        message(FATAL_ERROR "CompileCheck.cmake: pass -D${var}=...")
    endif()
endforeach()

# check(<fixture> <message> <count>): compiles when <count> is 0, else
# fails with <message> at least <count> times. Unused results are
# errors throughout.
function(check fixture message count)
    execute_process(
        COMMAND ${CXX} ${STD_FLAG} -fsyntax-only -Werror=unused-result
            -I${INCLUDE} ${FIXTURES}/${fixture}
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

check(field_table_complete.cc "" 0)
check(field_table_missing_row.cc "field table: a struct member has no row" 2)
check(field_table_duplicate_row.cc "field table: two rows name the same member" 1)
check(file_io_checked.cc "" 0)
check(file_io_raw_call.cc "poisoned" 1)
check(file_io_discarded_read.cc "unused-result" 1)
