# Fails when the test count README.md quotes on its ctest line
# ("ctest --test-dir build          # N tests") differs from the count
# `ctest -N` lists for this build tree.
#
#   cmake -DREADME=<README.md> -DCTEST=<ctest> -DBUILD_DIR=<build tree>
#         -DWORK_DIR=<scratch dir> -P readme_test_count.cmake
#
# ctest -N writes Testing/Temporary/LastTest.log next to the tests it
# lists, which would clobber the log of the ctest run executing this
# script.  It therefore runs in WORK_DIR, whose CTestTestfile.cmake only
# points at BUILD_DIR.
foreach(var README CTEST BUILD_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "readme_test_count.cmake: -D${var}=... is required")
  endif()
endforeach()

file(READ "${README}" readme)
string(REGEX MATCH "ctest --test-dir build +# ([0-9]+) tests" line
       "${readme}")
if(NOT line)
  message(FATAL_ERROR
          "${README}: no '# N tests' count on the ctest --test-dir line")
endif()
set(quoted "${CMAKE_MATCH_1}")

file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/CTestTestfile.cmake" "subdirs(\"${BUILD_DIR}\")\n")
execute_process(COMMAND "${CTEST}" -N
                WORKING_DIRECTORY "${WORK_DIR}"
                OUTPUT_VARIABLE listing
                RESULT_VARIABLE status)
string(REGEX MATCH "Total Tests: ([0-9]+)" total "${listing}")
if(NOT status EQUAL 0 OR NOT total)
  message(FATAL_ERROR "ctest -N failed (status ${status}):\n${listing}")
endif()
set(listed "${CMAKE_MATCH_1}")

if(NOT quoted EQUAL listed)
  message(FATAL_ERROR
          "README.md quotes ${quoted} tests but ctest -N lists ${listed}; "
          "update the count on README.md's ctest line")
endif()
message(STATUS "README.md test count ${quoted} matches ctest -N")
