# Runs EXE and fails unless it exits 0 and its stdout equals the file
# EXPECTED byte for byte.  On a mismatch the actual output is kept in
# ${EXE}.out for diffing.
#
#   cmake -DEXE=<binary> -DEXPECTED=<file> -P expect_output.cmake
execute_process(COMMAND ${EXE} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${EXE}.out "${actual}")
  message(FATAL_ERROR "output differs: diff ${EXPECTED} ${EXE}.out")
endif()
