# Runs a command and requires an exact exit code and, when MATCH is given,
# a regex match in its combined output: ctest's WILL_FAIL accepts any
# non-zero code, and PASS_REGULAR_EXPRESSION ignores the code altogether.
#
#   cmake -DEXPECT=<code> [-DMATCH=<regex>] -P expect_exit.cmake -- <cmd> [arg...]
set(cmd "")
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()

execute_process(COMMAND ${cmd} RESULT_VARIABLE code
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
message("${out}")
if(NOT code STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit code ${code}, expected ${EXPECT}")
endif()
if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match /${MATCH}/")
endif()
