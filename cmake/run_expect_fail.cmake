# Failure-path runner: executes CMD (with optional ;-separated ARGS) and
# fails unless the process exits with a NON-zero status AND prints EXPECT
# (verbatim) on stderr. This is the exit-code audit for the tools: every
# error path must both diagnose on stderr and report failure through the
# exit code — a tool that prints an error but exits 0 silently corrupts any
# script built on top of it.
#
# Optionally pass -DCODE=<n> to require one specific exit code (e.g. 2 for
# usage/config errors) instead of just "non-zero".
#
#   cmake -DCMD=<binary> [-DARGS=a;b;c] -DEXPECT=<substring> [-DCODE=2]
#         -P run_expect_fail.cmake
if(NOT DEFINED CMD OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "run_expect_fail.cmake needs -DCMD=... and -DEXPECT=...")
endif()

execute_process(COMMAND ${CMD} ${ARGS}
                OUTPUT_VARIABLE _out ERROR_VARIABLE _err RESULT_VARIABLE _rc)
message("exit code: ${_rc}")
if(NOT _out STREQUAL "")
  message("stdout: ${_out}")
endif()
message("stderr: ${_err}")
if(_rc EQUAL 0)
  message(FATAL_ERROR "${CMD} exited 0 on a failure path (must be non-zero)")
endif()
if(DEFINED CODE AND NOT _rc EQUAL "${CODE}")
  message(FATAL_ERROR "${CMD} exited ${_rc} (expected ${CODE})")
endif()
string(FIND "${_err}" "${EXPECT}" _pos)
if(_pos EQUAL -1)
  message(FATAL_ERROR "${CMD}: stderr does not contain \"${EXPECT}\"")
endif()
