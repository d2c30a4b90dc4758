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
#  - Determinism (src/core/determinism.hh), each fixture compiled
#    after the prelude: sim_determinism_good.cc compiles;
#    sim_determinism_bad.cc and campaign_determinism_bad.cc fail on
#    each line marked "// poisoned: <names>", naming each of <names>
#    where the compiler names poisoned identifiers (GCC does).
#    Then the scope guard: every source under SOURCE_DIR's src/ and
#    tools/ - and, when the compile db COMPDB holds any tests/ source
#    (the test suites are built), tests/oracles/ - that the SCOPE regex
#    matches has an entry in COMPDB that force-includes the prelude.
#
# Usage: cmake -DCXX=<compiler> -DSTD_FLAG=<-std=c++20>
#              -DINCLUDE=<repo>/src -DFIXTURES=<fixture dir>
#              -DSOURCE_DIR=<repo> -DCOMPDB=<compile_commands.json>
#              -DSCOPE=<UASIM_DETERMINISM_SCOPE>
#              -P CompileCheck.cmake

foreach(var CXX STD_FLAG INCLUDE FIXTURES SOURCE_DIR COMPDB SCOPE)
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

# check_prelude(<fixture>): compiled after the determinism prelude, a
# fixture with no "// poisoned: <names>" line compiles; otherwise each
# such line fails with "poisoned", naming each of <names> when the
# compiler's messages name the identifier.
function(check_prelude fixture)
    execute_process(
        COMMAND ${CXX} ${STD_FLAG} -fsyntax-only -I${INCLUDE}
            -include ${INCLUDE}/core/determinism.hh ${FIXTURES}/${fixture}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    # One list element per source line; ';' would split elements.
    file(READ ${FIXTURES}/${fixture} text)
    string(REPLACE ";" "," text "${text}")
    string(REGEX MATCHALL "[^\n]*\n" lines "${text}")
    set(line 0)
    set(marks 0)
    foreach(l IN LISTS lines)
        math(EXPR line "${line} + 1")
        if(NOT l MATCHES "// poisoned: ([^\n]*)")
            continue()
        endif()
        math(EXPR marks "${marks} + 1")
        string(REPLACE " " ";" names "${CMAKE_MATCH_1}")
        set(at "${fixture}:${line}:[0-9]+: error: [^\n]*poisoned")
        if(NOT out MATCHES "${at}")
            message(FATAL_ERROR "${fixture}:${line} must fail with "
                "\"poisoned\" after the determinism prelude:\n${out}")
        endif()
        foreach(name IN LISTS names)
            if(out MATCHES "poisoned \"" AND
               NOT out MATCHES "${at} \"${name}\"")
                message(FATAL_ERROR "${fixture}:${line} must fail on "
                    "the poisoned \"${name}\":\n${out}")
            endif()
        endforeach()
    endforeach()
    if(marks EQUAL 0 AND NOT rc EQUAL 0)
        message(FATAL_ERROR "${fixture} must compile after the "
            "determinism prelude (exit ${rc}):\n${out}")
    endif()
endfunction()

check_prelude(sim_determinism_good.cc)
check_prelude(sim_determinism_bad.cc)
check_prelude(campaign_determinism_bad.cc)

# The scope guard: each source the scope regex matches is compiled,
# and compiled with the prelude force-included.
file(READ ${COMPDB} db)
string(JSON entries LENGTH "${db}")
math(EXPR last "${entries} - 1")
foreach(i RANGE ${last})
    string(JSON file GET "${db}" ${i} file)
    string(JSON command GET "${db}" ${i} command)
    file(RELATIVE_PATH rel ${SOURCE_DIR} ${file})
    set(cmd_${rel} "${command}")
    if(rel MATCHES "^tests/")
        set(tests_built TRUE)
    endif()
endforeach()
set(globs ${SOURCE_DIR}/src/*.cc ${SOURCE_DIR}/tools/*.cc)
if(tests_built)
    list(APPEND globs ${SOURCE_DIR}/tests/oracles/*.cc)
endif()
file(GLOB_RECURSE sources RELATIVE ${SOURCE_DIR} ${globs})
set(scoped 0)
foreach(src IN LISTS sources)
    if(NOT src MATCHES "${SCOPE}")
        continue()
    endif()
    math(EXPR scoped "${scoped} + 1")
    if(NOT DEFINED cmd_${src})
        message(FATAL_ERROR "${src} is in the determinism scope but not "
            "in ${COMPDB}: build it with the prelude")
    endif()
    if(NOT "${cmd_${src}}" MATCHES
           "-include +\"?[^ ]*src/core/determinism\\.hh")
        message(FATAL_ERROR "${src} is in the determinism scope but is "
            "built without -include src/core/determinism.hh:\n"
            "${cmd_${src}}")
    endif()
endforeach()
if(scoped EQUAL 0)
    message(FATAL_ERROR "no source under ${SOURCE_DIR} matches the "
        "determinism scope ${SCOPE}")
endif()
