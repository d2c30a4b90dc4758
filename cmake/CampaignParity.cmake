# Campaign shard/assemble parity: the acceptance gate for the campaign
# layer. Shards publish chunk artifacts only; one unsharded run over
# their chunk directory assembles BENCH_<name>.json.
#
#   1. Unsharded run -> WORK/full/BENCH_<name>.json (the reference).
#   2. Shards 0..2 of 3 into one shared WORK/shared: each executes
#      exactly one chunk and writes no BENCH_*.json.
#   3. One unsharded run over WORK/shared executes nothing, skips all
#      3 chunks, and its artifact must be a uasim-report Match against
#      both the reference and the committed baseline.
#   4. Cross-machine form: shards into WORK/m0..m2, their chunk
#      directories copied into WORK/union, then assembled. Same checks.
#   5. Recovery: delete one chunk of WORK/shared; the assemble run
#      executes exactly it and reproduces the step-3 artifact.
#   6. An out-of-range --shard must be rejected (exit 2).
#
# Usage: cmake -DSWEEP=<uasim-sweep> -DREPORT=<uasim-report>
#              -DCAMPAIGN=<file.conf> -DBASELINE=<BENCH_*.json>
#              -DNAME=<campaign-name> -DWORK=<dir>
#              -P CampaignParity.cmake

foreach(var SWEEP REPORT CAMPAIGN BASELINE NAME WORK)
    if(NOT ${var})
        message(FATAL_ERROR "CampaignParity.cmake: pass -D${var}=...")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

function(run_sweep out_var dir)
    execute_process(
        COMMAND ${SWEEP} run ${CAMPAIGN} --threads 2 --json ${dir} ${ARGN}
        OUTPUT_VARIABLE out
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${SWEEP} run ${ARGN} exited ${rc}\n${out}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Fail unless @p artifact is a uasim-report Match against @p base.
function(expect_match base artifact)
    execute_process(
        COMMAND ${REPORT} ${base} ${artifact}
        OUTPUT_VARIABLE out
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${artifact} differs from ${base} (exit ${rc})\n${out}")
    endif()
endfunction()

# Run shard i/3 into @p dir: exactly one chunk, no campaign artifact.
function(run_shard i dir)
    run_sweep(out ${dir} --shard ${i}/3)
    if(NOT out MATCHES "executed 1 chunk")
        message(FATAL_ERROR
            "shard ${i}/3 did not execute exactly one chunk:\n${out}")
    endif()
    file(GLOB bench ${dir}/BENCH_*.json)
    if(bench)
        message(FATAL_ERROR "shard ${i}/3 wrote ${bench}")
    endif()
endfunction()

# Assemble @p dir: nothing executes, and the artifact matches both the
# reference and the committed baseline.
function(assemble dir)
    run_sweep(out ${dir})
    if(NOT out MATCHES "executed 0 chunk\\(s\\), skipped 3")
        message(FATAL_ERROR
            "assembling ${dir} re-executed chunks:\n${out}")
    endif()
    expect_match(${WORK}/full/BENCH_${NAME}.json ${dir}/BENCH_${NAME}.json)
    expect_match(${BASELINE} ${dir}/BENCH_${NAME}.json)
endfunction()

# 1. The unsharded single-process reference run.
run_sweep(out_full ${WORK}/full)
if(NOT EXISTS ${WORK}/full/BENCH_${NAME}.json)
    message(FATAL_ERROR "unsharded run wrote no BENCH_${NAME}.json")
endif()

# 2-3. Shards into one shared directory, then assemble.
foreach(i RANGE 2)
    run_shard(${i} ${WORK}/shared)
endforeach()
assemble(${WORK}/shared)

# 4. Shards on separate "machines", chunk directories copied together.
foreach(i RANGE 2)
    run_shard(${i} ${WORK}/m${i})
    file(GLOB chunk_dirs ${WORK}/m${i}/${NAME}-*.chunks)
    file(COPY ${chunk_dirs} DESTINATION ${WORK}/union)
endforeach()
assemble(${WORK}/union)

# 5. Recovery: delete one published chunk; exactly it re-executes and
# the assembled artifact is reproduced.
file(GLOB chunk_files ${WORK}/shared/${NAME}-*.chunks/chunk-*.json)
list(LENGTH chunk_files n_chunks)
if(NOT n_chunks EQUAL 3)
    message(FATAL_ERROR "expected 3 published chunks, found: ${chunk_files}")
endif()
list(GET chunk_files 0 victim)
configure_file(${WORK}/shared/BENCH_${NAME}.json ${WORK}/assembled.json
               COPYONLY)
file(REMOVE ${victim})
run_sweep(out_redo ${WORK}/shared)
if(NOT out_redo MATCHES "executed 1 chunk\\(s\\), skipped 2")
    message(FATAL_ERROR
        "after deleting one chunk artifact, the assemble run did not "
        "re-execute exactly one chunk:\n${out_redo}")
endif()
if(NOT EXISTS ${victim})
    message(FATAL_ERROR "the re-executed chunk was not republished")
endif()
expect_match(${WORK}/assembled.json ${WORK}/shared/BENCH_${NAME}.json)

# 6. Out-of-range shard spec is a usage error.
execute_process(
    COMMAND ${SWEEP} run ${CAMPAIGN} --shard 3/3 --json ${WORK}/bad
    OUTPUT_VARIABLE ignored
    ERROR_VARIABLE ignored_err
    RESULT_VARIABLE rc_bad)
if(NOT rc_bad EQUAL 2)
    message(FATAL_ERROR
        "--shard 3/3 must exit 2 (usage error), exited ${rc_bad}")
endif()

file(REMOVE_RECURSE ${WORK})
message(STATUS
    "${NAME}: shards in a shared or copied-together chunk directory "
    "assemble bit-identically to the unsharded run; a deleted chunk "
    "re-executes alone")
