# The serve tools reject a malformed numeric flag as a usage error (exit
# code 2) before glova_serve binds a port or glova_client connects: a port
# above 65535, a non-numeric, signed or over-large count.  Registered with
# ctest as glova_serve_flags:
#
#   cmake -DSERVE=<glova_serve> -DCLIENT=<glova_client> -DWORK=<scratch dir> \
#         -P tests/serve_flags.cmake
#
# No case passes a negative --workers: a build that reads it as SIZE_MAX
# starts threads until the process fails.

if(NOT SERVE OR NOT CLIENT OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DSERVE=... -DCLIENT=... -DWORK=... -P serve_flags.cmake")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

set(failures 0)
set(case 0)

# Run one command line that must exit 2 without leaving a port file or a
# spool directory behind.
function(expect_usage_error)
  math(EXPR n "${case} + 1")
  set(case ${n} PARENT_SCOPE)
  set(spool "${WORK}/spool-${n}")
  set(port_file "${WORK}/port-${n}")
  string(REPLACE "@SPOOL@" "${spool}" argv "${ARGN}")
  string(REPLACE "@PORT_FILE@" "${port_file}" argv "${argv}")
  execute_process(COMMAND ${argv} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err
                  TIMEOUT 5)
  if(NOT rc STREQUAL "2" OR EXISTS "${spool}" OR EXISTS "${port_file}"
     OR NOT err MATCHES "usage:")
    message(SEND_ERROR "expected a usage error (exit 2, nothing bound), got '${rc}' from: ${argv}")
    math(EXPR f "${failures} + 1")
    set(failures ${f} PARENT_SCOPE)
  endif()
endfunction()

set(serve "${SERVE}" --spool @SPOOL@ --port-file @PORT_FILE@)
expect_usage_error(${serve} --port 70000)
expect_usage_error(${serve} --port abc)
expect_usage_error(${serve} --port -1)
expect_usage_error(${serve} --port +80)
expect_usage_error(${serve} --workers abc)
expect_usage_error(${serve} --workers 257)
expect_usage_error(${serve} --max-jobs 1x)
expect_usage_error(${serve} --steps-per-quantum 99999999999999999999)
expect_usage_error(${serve} --checkpoint-every " 5")
expect_usage_error(${serve} --port)

expect_usage_error("${CLIENT}" --port 70000 list)
expect_usage_error("${CLIENT}" --port abc list)
expect_usage_error("${CLIENT}" --port 0 list)
expect_usage_error("${CLIENT}" --port 4464 --connect-timeout -1 list)
expect_usage_error("${CLIENT}" --port 4464 wait job-000001 soon)

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} of ${case} flag cases were not rejected as usage errors")
endif()
message(STATUS "all ${case} malformed flag cases exit 2 before binding or connecting")
