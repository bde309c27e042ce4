# A fault the service rejects is journaled and skipped, not fatal:
# replays register / fail@1ms:l1 (every client of the machine) / register
# through mlsc_serve and fails unless
#   - the run exits 0 and journals all three events, the fault with scope
#     "none" and a reason beginning "rejected:";
#   - its end state equals the end state of the two registers alone;
#   - --replay of its journal reproduces the journal and the end state
#     byte for byte.
#
#   cmake -DEXE=<mlsc_serve> -DWORKDIR=<dir> -P serve_rejected_fault.cmake
set(header "{\"schema\": \"mlsc-serve-event-v1\", \"seed\": 0, \"machine\": \"8/4/2\"}")
set(reg_a "{\"at_ms\": 0, \"event\": \"register\", \"id\": \"a\", \"workload\": \"hf\", \"size_factor\": 0.0625, \"clients\": 2}")
set(fault "{\"at_ms\": 1, \"event\": \"fault\", \"spec\": \"fail@1ms:l1\"}")
set(reg_b "{\"at_ms\": 2, \"event\": \"register\", \"id\": \"b\", \"workload\": \"astro\", \"size_factor\": 0.0625, \"clients\": 2}")
set(with_fault ${WORKDIR}/serve_rejected_fault.events.jsonl)
set(without_fault ${WORKDIR}/serve_rejected_fault.registers.jsonl)
file(WRITE ${with_fault} "${header}\n${reg_a}\n${fault}\n${reg_b}\n")
file(WRITE ${without_fault} "${header}\n${reg_a}\n${reg_b}\n")

# Runs mlsc_serve over `events`, writing `journal`; sets `state_var` to
# the --print-state fingerprint.
function(serve events journal state_var)
  execute_process(
    COMMAND ${EXE} --replay ${events} --clients 8 --io 4 --storage 2
            --max-chunks 256 --check --journal ${journal} --print-state
    OUTPUT_VARIABLE state RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} --replay ${events} exited with ${rc}")
  endif()
  set(${state_var} "${state}" PARENT_SCOPE)
endfunction()

set(journal ${WORKDIR}/serve_rejected_fault.journal.jsonl)
serve(${with_fault} ${journal} state_with_fault)
file(STRINGS ${journal} lines)
list(LENGTH lines count)
if(NOT count EQUAL 4)
  message(FATAL_ERROR "expected a header and 3 events in ${journal}, "
                      "got ${count} lines")
endif()
list(GET lines 2 fault_line)
if(NOT fault_line MATCHES "\"scope\":\"none\",\"reason\":\"rejected: ")
  message(FATAL_ERROR "the fault is not journaled as rejected: ${fault_line}")
endif()

serve(${without_fault} ${WORKDIR}/serve_rejected_fault.registers.journal.jsonl
      state_registers_only)
if(NOT state_with_fault STREQUAL state_registers_only)
  message(FATAL_ERROR "the rejected fault changed the end state")
endif()

set(replayed ${WORKDIR}/serve_rejected_fault.replayed.jsonl)
serve(${journal} ${replayed} state_replayed)
file(READ ${journal} journal_text)
file(READ ${replayed} replayed_text)
if(NOT journal_text STREQUAL replayed_text)
  message(FATAL_ERROR "--replay of the journal differs: "
                      "diff ${journal} ${replayed}")
endif()
if(NOT state_replayed STREQUAL state_with_fault)
  message(FATAL_ERROR "--replay of the journal ends in another state")
endif()
