# Machine-readable result gate: regenerate every bench's --quick
# BENCH_*.json artifact and require bit-identical simulated fields
# against the committed baselines/ - at --threads 1, at --threads 4,
# and (for the trace-cache benches) cold vs warm persistent store at
# --threads 1 and 4, after checking the cold run populated the store.
# Wall-time fields are informational and never gate (uasim-report
# enforces the split).
#
# Usage (the results_baseline ctest entry):
#   cmake -DBENCH_DIR=<bench bin dir> -DREPORT=<uasim-report>
#         -DBASELINES=<repo baselines dir> -DWORK=<scratch dir>
#         -DBENCHES=a,b,c -DCACHE_BENCHES=x,y -DOOO_BENCHES=x
#         -DVARIANTS=bench/--flag
#         -DSWEEP=<uasim-sweep> -DCAMPAIGNS=a.conf,b.conf
#         [-DUPDATE=1] -P ResultsBaseline.cmake
#
# OOO_BENCHES additionally run under "--timing-model ooo"; their
# model-suffixed BENCH_<bench>.ooo.json artifacts gate against their
# own committed baselines.
#
# VARIANTS are flag-selected alternate experiments of an existing
# bench ("bench/--flag" runs ${bench} --flag, which names its own
# artifact, e.g. BENCH_fig9_membw_sweep.json). Each variant gates
# under BOTH timing models, like an OOO_BENCHES entry.
#
# With -DUPDATE=1 the script regenerates the --threads 1 artifacts and
# rewrites the baselines (uasim-report --update-baselines) instead of
# diffing - the refresh path behind the update_baselines target.

foreach(var BENCH_DIR REPORT BASELINES WORK BENCHES)
    if(NOT ${var})
        message(FATAL_ERROR "ResultsBaseline.cmake: pass -D${var}=...")
    endif()
endforeach()

string(REPLACE "," ";" BENCHES "${BENCHES}")
string(REPLACE "," ";" CACHE_BENCHES "${CACHE_BENCHES}")
string(REPLACE "," ";" OOO_BENCHES "${OOO_BENCHES}")
string(REPLACE "," ";" VARIANTS "${VARIANTS}")
string(REPLACE "," ";" CAMPAIGNS "${CAMPAIGNS}")

file(REMOVE_RECURSE ${WORK})

# Run ${ARGN} --json ${WORK}/${outdir}: a bench or a uasim-sweep
# campaign, each writing its canonically named BENCH_*.json there. A
# bench on a non-default timing model ("--timing-model <model>") names
# its artifact BENCH_<bench>.<model>.json, so it pairs with its own
# committed baseline instead of the pipeline one; a campaign's
# BENCH_<campaign>.json gates against baselines/ like any bench's.
function(run_json outdir)
    execute_process(
        COMMAND ${ARGN} --json ${WORK}/${outdir}
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${ARGN} exited ${rc}\n${err}")
    endif()
endfunction()

# Diff two artifact sets with uasim-report; FATAL on any drift.
function(check_report what base current)
    execute_process(
        COMMAND ${REPORT} ${base} ${current}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "uasim-report: ${what}: exit ${rc}\n${out}")
    endif()
    message(STATUS "uasim-report: ${what}: match")
endfunction()

# The refresh regenerates the --threads 1 set only; the gate also
# reruns everything at --threads 4.
if(UPDATE)
    set(threads 1)
else()
    set(threads 1 4)
endif()

foreach(bench IN LISTS BENCHES)
    foreach(n IN LISTS threads)
        run_json(t${n} ${BENCH_DIR}/${bench} --quick --threads ${n})
    endforeach()
endforeach()
foreach(bench IN LISTS OOO_BENCHES)
    foreach(n IN LISTS threads)
        run_json(t${n} ${BENCH_DIR}/${bench} --quick --threads ${n}
                 --timing-model ooo)
    endforeach()
endforeach()
foreach(variant IN LISTS VARIANTS)
    string(REPLACE "/" ";" parts "${variant}")
    list(GET parts 0 bench)
    list(GET parts 1 flag)
    foreach(n IN LISTS threads)
        run_json(t${n} ${BENCH_DIR}/${bench} --quick ${flag}
                 --threads ${n})
        run_json(t${n} ${BENCH_DIR}/${bench} --quick ${flag}
                 --timing-model ooo --threads ${n})
    endforeach()
endforeach()
foreach(conf IN LISTS CAMPAIGNS)
    foreach(n IN LISTS threads)
        run_json(t${n} ${SWEEP} run ${conf} --threads ${n})
    endforeach()
endforeach()

if(UPDATE)
    # Model-suffixed artifacts are in the same set, so the --prune
    # refresh keeps (rather than retires) their baselines.
    execute_process(
        COMMAND ${REPORT} --update-baselines --prune ${BASELINES}
                ${WORK}/t1
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "uasim-report --update-baselines exited ${rc}")
    endif()
    file(REMOVE_RECURSE ${WORK})
    return()
endif()

check_report("baselines vs --threads 1" ${BASELINES} ${WORK}/t1)
check_report("baselines vs --threads 4" ${BASELINES} ${WORK}/t4)

foreach(bench IN LISTS CACHE_BENCHES)
    run_json(cachecold ${BENCH_DIR}/${bench} --quick --threads 1
             --trace-cache ${WORK}/store)
    file(GLOB entries ${WORK}/store/*.uatrace)
    if(NOT entries)
        message(FATAL_ERROR
            "${bench}: cold run left no *.uatrace entries in ${WORK}/store")
    endif()
    run_json(cachewarm ${BENCH_DIR}/${bench} --quick --threads 1
             --trace-cache ${WORK}/store)
    run_json(cachewarm4 ${BENCH_DIR}/${bench} --quick --threads 4
             --trace-cache ${WORK}/store)
    # Each cache bench against its committed baseline (file pair), so
    # the store path is gated against the same truth as the plain runs.
    check_report("baseline vs cold-store ${bench}"
        ${BASELINES}/BENCH_${bench}.json
        ${WORK}/cachecold/BENCH_${bench}.json)
endforeach()
if(CACHE_BENCHES)
    check_report("cold store vs warm store"
        ${WORK}/cachecold ${WORK}/cachewarm)
    check_report("cold store vs warm store --threads 4"
        ${WORK}/cachecold ${WORK}/cachewarm4)
endif()

file(REMOVE_RECURSE ${WORK})
