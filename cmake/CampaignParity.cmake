# Campaign shard/merge parity: the acceptance gate for the campaign
# layer.
#
#   1. Unsharded run -> WORK/full/BENCH_<name>.json
#   2. Shards 0..2 of 3 -> WORK/shards/BENCH_<name>.shard<i>of3.json,
#      each executing exactly one chunk.
#   3. `uasim-report merge` -> WORK/merged/BENCH_<name>.json, which
#      must be a uasim-report Match against both the unsharded
#      artifact (shard/merge bit-identity) and the committed baseline.
#   4. Resume: re-invoking shard 0 executes nothing and skips its one
#      published chunk; deleting that chunk artifact re-executes
#      exactly it and republishes a bit-identical shard artifact.
#   5. An out-of-range --shard must be rejected (exit 2).
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

# 1. The unsharded single-process reference run.
run_sweep(out_full ${WORK}/full)
if(NOT EXISTS ${WORK}/full/BENCH_${NAME}.json)
    message(FATAL_ERROR "unsharded run wrote no BENCH_${NAME}.json")
endif()

# 2. The 3-shard run (fresh chunk state: separate directory).
foreach(i RANGE 2)
    run_sweep(out_shard${i} ${WORK}/shards --shard ${i}/3)
    if(NOT EXISTS ${WORK}/shards/BENCH_${NAME}.shard${i}of3.json)
        message(FATAL_ERROR
            "shard ${i}/3 wrote no BENCH_${NAME}.shard${i}of3.json")
    endif()
    if(NOT out_shard${i} MATCHES "executed 1 chunk")
        message(FATAL_ERROR
            "shard ${i}/3 did not execute exactly one chunk:\n"
            "${out_shard${i}}")
    endif()
endforeach()

# 3. Merge and gate: vs the unsharded run, then vs the committed
# baseline.
execute_process(
    COMMAND ${REPORT} merge ${WORK}/merged ${WORK}/shards
    OUTPUT_VARIABLE out_merge
    RESULT_VARIABLE rc_merge)
if(NOT rc_merge EQUAL 0)
    message(FATAL_ERROR
        "uasim-report merge exited ${rc_merge}\n${out_merge}")
endif()
foreach(base ${WORK}/full/BENCH_${NAME}.json ${BASELINE})
    execute_process(
        COMMAND ${REPORT} ${base} ${WORK}/merged/BENCH_${NAME}.json
        OUTPUT_VARIABLE out_diff
        RESULT_VARIABLE rc_diff)
    if(NOT rc_diff EQUAL 0)
        message(FATAL_ERROR
            "merged artifact differs from ${base} "
            "(exit ${rc_diff})\n${out_diff}")
    endif()
endforeach()

# 4a. Resume: everything already published, nothing may re-execute.
run_sweep(out_resume ${WORK}/shards --shard 0/3)
if(NOT out_resume MATCHES "executed 0 chunk" OR
   NOT out_resume MATCHES "skipped 1 published chunk")
    message(FATAL_ERROR
        "re-invoked shard 0 did not skip its one published chunk:\n"
        "${out_resume}")
endif()

# 4b. Delete one published chunk artifact; exactly it must re-execute.
string(REGEX MATCH "chunk-[0-9a-f]+\\.json" chunk_file "${out_resume}")
if(NOT chunk_file)
    message(FATAL_ERROR
        "no chunk artifact name in sweep output:\n${out_resume}")
endif()
file(GLOB chunk_dirs ${WORK}/shards/${NAME}-*.chunks)
list(LENGTH chunk_dirs n_chunk_dirs)
if(NOT n_chunk_dirs EQUAL 1)
    message(FATAL_ERROR
        "expected one ${NAME}-<hash>.chunks dir, found: ${chunk_dirs}")
endif()
list(GET chunk_dirs 0 chunk_dir)
set(shard0 ${WORK}/shards/BENCH_${NAME}.shard0of3.json)
configure_file(${shard0} ${WORK}/shard0.before.json COPYONLY)
file(REMOVE ${chunk_dir}/${chunk_file})
run_sweep(out_redo ${WORK}/shards --shard 0/3)
if(NOT out_redo MATCHES "executed 1 chunk")
    message(FATAL_ERROR
        "after deleting one chunk artifact, shard 0 did not re-execute "
        "exactly one chunk:\n${out_redo}")
endif()

# The re-run must republish the shard artifact bit-identically.
execute_process(
    COMMAND ${REPORT} ${WORK}/shard0.before.json ${shard0}
    OUTPUT_VARIABLE out_republish
    RESULT_VARIABLE rc_republish)
if(NOT rc_republish EQUAL 0)
    message(FATAL_ERROR
        "republished shard artifact differs from the original "
        "(exit ${rc_republish})\n${out_republish}")
endif()

# 5. Out-of-range shard spec is a usage error.
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
    "${NAME}: 3-shard merge bit-identical to unsharded run; resume "
    "skips published chunks")
