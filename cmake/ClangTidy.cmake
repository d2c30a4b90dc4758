# Run the curated .clang-tidy profile over every repo TU in the
# compile db; any finding fails. Invoked as a script:
#
#   cmake -DBUILD_DIR=build -DSOURCE_DIR=. [-DREQUIRE=1] \
#         -P cmake/ClangTidy.cmake
#
# With no clang-tidy on PATH the run is a skip (exit 0) so gcc-only
# hosts keep working; CI passes REQUIRE=1 to make absence fatal.

if(NOT BUILD_DIR OR NOT SOURCE_DIR)
    message(FATAL_ERROR "usage: cmake -DBUILD_DIR=<build> -DSOURCE_DIR=<repo> -P ClangTidy.cmake")
endif()
get_filename_component(BUILD_DIR "${BUILD_DIR}" ABSOLUTE)
get_filename_component(SOURCE_DIR "${SOURCE_DIR}" ABSOLUTE)

find_program(CLANG_TIDY NAMES
    clang-tidy
    clang-tidy-20 clang-tidy-19 clang-tidy-18 clang-tidy-17
    clang-tidy-16 clang-tidy-15 clang-tidy-14)
if(NOT CLANG_TIDY)
    if(REQUIRE)
        message(FATAL_ERROR "clang-tidy not found and REQUIRE=1 (install clang-tidy)")
    endif()
    message(STATUS "clang-tidy not found; skipping the tidy gate (CI runs it with REQUIRE=1)")
    return()
endif()

set(COMPDB "${BUILD_DIR}/compile_commands.json")
if(NOT EXISTS "${COMPDB}")
    message(FATAL_ERROR "${COMPDB} not found (configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON)")
endif()

# Shipped-code TUs (src/, tools/, bench/) plus the reference oracles
# the engine is diffed against (tests/oracles/, no gtest macros):
# _deps and build/ are not ours, and the rest of tests/ is gtest-macro
# territory where check false positives vary by clang-tidy version.
file(READ "${COMPDB}" _db)
string(JSON _n LENGTH "${_db}")
math(EXPR _last "${_n} - 1")
set(_files "")
foreach(_i RANGE ${_last})
    string(JSON _f GET "${_db}" ${_i} file)
    file(RELATIVE_PATH _rel "${SOURCE_DIR}" "${_f}")
    if(NOT _rel MATCHES "^(src|tools|bench|tests/oracles)/")
        continue()
    endif()
    list(APPEND _files "${_f}")
endforeach()
list(REMOVE_DUPLICATES _files)
list(SORT _files)
list(LENGTH _files _ntus)
if(_ntus EQUAL 0)
    message(FATAL_ERROR "no repo TUs found in ${COMPDB}")
endif()
message(STATUS "clang-tidy (${CLANG_TIDY}) over ${_ntus} TUs...")

# run-clang-tidy (same package) fans the TUs out across cores; the
# serial clang-tidy invocation is the fallback. Either way the
# finding lines have the same shape, so the matching below is shared.
find_program(RUN_CLANG_TIDY NAMES
    run-clang-tidy
    run-clang-tidy-20 run-clang-tidy-19 run-clang-tidy-18
    run-clang-tidy-17 run-clang-tidy-16 run-clang-tidy-15
    run-clang-tidy-14)
if(RUN_CLANG_TIDY)
    execute_process(
        COMMAND "${RUN_CLANG_TIDY}" -quiet -p "${BUILD_DIR}"
                -clang-tidy-binary "${CLANG_TIDY}" ${_files}
        OUTPUT_VARIABLE _out
        ERROR_VARIABLE _err
        RESULT_VARIABLE _rc)
else()
    execute_process(
        COMMAND "${CLANG_TIDY}" --quiet -p "${BUILD_DIR}" ${_files}
        OUTPUT_VARIABLE _out
        ERROR_VARIABLE _err
        RESULT_VARIABLE _rc)
endif()

# A hard clang-tidy error (bad config, TU that does not parse) is a
# tooling failure, not a finding.
if(_err MATCHES "error: |Error while processing|Error reading configuration")
    message(FATAL_ERROR "clang-tidy failed:\n${_err}")
endif()

# Deduplicate findings: the same header warning surfaces once per
# including TU.
string(REGEX MATCHALL "[^\n]*warning:[^\n]*\\[[a-z0-9.,-]+\\]" _lines "${_out}")
list(REMOVE_DUPLICATES _lines)
list(LENGTH _lines _count)

if(_count GREATER 0)
    foreach(_l IN LISTS _lines)
        message(STATUS "${_l}")
    endforeach()
    message(FATAL_ERROR "clang-tidy: ${_count} finding(s); the gate allows none - fix them")
endif()
message(STATUS "clang-tidy: no findings")
