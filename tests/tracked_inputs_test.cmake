# Tracked-inputs check, run as a CTest (arguments: see CMakeLists.txt).
#
# Fails when any file under data/, tests/, src/, bench/ or examples/ is
# ignored by git: such a file builds and passes locally but is never
# committed, so a fresh checkout lacks it (.gitignore ignores *.csv with a
# single exception). Outside a git checkout of SOURCE_DIR it skips.

cmake_minimum_required(VERSION 3.20)

if(NOT SOURCE_DIR)
  message(FATAL_ERROR "usage: cmake -DSOURCE_DIR=... -P tracked_inputs_test.cmake")
endif()

find_program(GIT_EXECUTABLE git)
if(NOT GIT_EXECUTABLE)
  message(STATUS "tracked_inputs SKIPPED: git is not installed")
  return()
endif()
execute_process(COMMAND "${GIT_EXECUTABLE}" rev-parse --show-toplevel
                WORKING_DIRECTORY "${SOURCE_DIR}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE top ERROR_QUIET
                OUTPUT_STRIP_TRAILING_WHITESPACE)
file(REAL_PATH "${SOURCE_DIR}" source_real)
if(NOT rc EQUAL 0 OR NOT top)
  message(STATUS "tracked_inputs SKIPPED: ${SOURCE_DIR} is not a git checkout")
  return()
endif()
file(REAL_PATH "${top}" top_real)
if(NOT top_real STREQUAL source_real)
  message(STATUS "tracked_inputs SKIPPED: ${SOURCE_DIR} is not the top of "
                 "its git checkout (${top_real})")
  return()
endif()

execute_process(COMMAND "${GIT_EXECUTABLE}" ls-files --others --ignored
                        --exclude-standard -- data tests src bench examples
                WORKING_DIRECTORY "${SOURCE_DIR}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE ignored ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "git ls-files failed (${rc}): ${err}")
endif()
if(NOT ignored STREQUAL "")
  message(FATAL_ERROR "git-ignored files under the source directories "
          "(commit them or narrow .gitignore):\n${ignored}")
endif()
message(STATUS "tracked_inputs: no ignored file under data, tests, src, "
               "bench or examples")
