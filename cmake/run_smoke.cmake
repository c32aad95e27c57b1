# Smoke-test runner: executes CMD (with optional ;-separated ARGS) and fails
# unless the process exits 0 AND its stdout/stderr contains EXPECT verbatim.
# CTest's PASS_REGULAR_EXPRESSION alone would ignore the exit code, so this
# script checks both.
#
#   cmake -DCMD=<binary> [-DARGS=a;b;c] -DEXPECT=<substring> -P run_smoke.cmake
#
# Optionally pass -DFILE=<path> -DFILE_EXPECT=<substring> to also require a
# file the command wrote to contain FILE_EXPECT verbatim.
if(NOT DEFINED CMD OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "run_smoke.cmake needs -DCMD=... and -DEXPECT=...")
endif()

execute_process(COMMAND ${CMD} ${ARGS}
                OUTPUT_VARIABLE _out ERROR_VARIABLE _err RESULT_VARIABLE _rc)
message("${_out}")
if(NOT _err STREQUAL "")
  message("${_err}")
endif()
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "${CMD} exited with ${_rc} (expected 0)")
endif()
string(FIND "${_out}\n${_err}" "${EXPECT}" _pos)
if(_pos EQUAL -1)
  message(FATAL_ERROR "${CMD}: output does not contain \"${EXPECT}\"")
endif()
if(DEFINED FILE)
  file(READ "${FILE}" _file)
  string(FIND "${_file}" "${FILE_EXPECT}" _pos)
  if(_pos EQUAL -1)
    message(FATAL_ERROR "${FILE} does not contain \"${FILE_EXPECT}\"")
  endif()
endif()
