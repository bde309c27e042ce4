# Replays the committed 200-event soak through mlsc_serve at each thread
# count in THREADS (comma-separated) and fails unless every run exits 0
# and both its decision journal and its --print-state fingerprint equal
# the committed files byte for byte.  The journal pins every event's
# scope, reason, imbalance, scored pairs, forest hooks and Borůvka
# rounds; the fingerprint pins the end state's clusters, placements and
# loads.  On a mismatch the actual output stays in WORKDIR for diffing.
#
#   cmake -DEXE=<mlsc_serve> -DEVENTS=<jsonl> -DJOURNAL=<expected journal>
#         -DSTATE=<expected state> -DWORKDIR=<dir> -DTHREADS=1,3
#         -P serve_soak_golden.cmake
file(READ ${JOURNAL} expected_journal)
file(READ ${STATE} expected_state)
string(REPLACE "," ";" thread_counts "${THREADS}")
foreach(threads IN LISTS thread_counts)
  set(journal ${WORKDIR}/serve_soak_golden.t${threads}.jsonl)
  execute_process(
    COMMAND ${EXE} --replay ${EVENTS} --clients 8 --io 4 --storage 2
            --threads ${threads} --max-chunks 256 --check
            --journal ${journal} --print-state
    OUTPUT_VARIABLE actual_state RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} --threads ${threads} exited with ${rc}")
  endif()
  file(READ ${journal} actual_journal)
  if(NOT actual_journal STREQUAL expected_journal)
    message(FATAL_ERROR "--threads ${threads} journal differs: "
                        "diff ${JOURNAL} ${journal}")
  endif()
  if(NOT actual_state STREQUAL expected_state)
    file(WRITE ${WORKDIR}/serve_soak_golden.t${threads}.state
         "${actual_state}")
    message(FATAL_ERROR "--threads ${threads} end state differs: diff "
                        "${STATE} ${WORKDIR}/serve_soak_golden.t${threads}.state")
  endif()
endforeach()
