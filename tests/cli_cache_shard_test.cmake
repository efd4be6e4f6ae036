# CLI acceptance for the scenario runner, run as a CTest:
#
#   cmake -DLCG_RUN=<path to lcg_run> -DREADME=<path to README.md> \
#         -DWORK_DIR=<scratch dir> -P cli_cache_shard_test.cmake
#
# Pins, at the level of the real binary and real files:
#   1. Determinism and the result cache: the cold sweep runs at --jobs 1
#      and the --no-cache sweep at --jobs 8, and both render the same
#      bytes. A warm `--cache-dir` re-run reports 100% cache hits and
#      produces byte-identical CSV and JSONL output.
#   2. Concatenating `--shard 0/3 .. 2/3` outputs reproduces the unsharded
#      CSV byte for byte (shard runs are served from the shared cache,
#      proving shard/cache composition).
#   3. An empty shard (k >> job count) emits exactly the sweep-wide header.
#   4. --trace and --metrics are out-of-band: a traced run renders the same
#      bytes as a plain one, and the trace is one header line, span lines
#      with one runner/job span per job, then one final snapshot.
#   5. `--list` succeeds and README.md's scenario catalog (between the
#      scenario-table markers) equals `--list-md`.

cmake_minimum_required(VERSION 3.20)

if(NOT DEFINED LCG_RUN OR NOT DEFINED README OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DLCG_RUN=... -DREADME=... -DWORK_DIR=... -P cli_cache_shard_test.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(CACHE_DIR "${WORK_DIR}/rcache")

# run(<stderr-outvar> <output-file> args...): lcg_run must exit 0.
function(run errvar outfile)
  execute_process(
    COMMAND "${LCG_RUN}" --out "${outfile}" ${ARGN}
    RESULT_VARIABLE rc
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "lcg_run ${ARGN} failed (rc=${rc}):\n${err}")
  endif()
  set(${errvar} "${err}" PARENT_SCOPE)
endfunction()

function(assert_same_bytes a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${what}: '${a}' and '${b}' differ")
  endif()
endfunction()

# --- 1. cold (--jobs 1) vs warm vs --no-cache (--jobs 8) runs ---------------

run(cold_log "${WORK_DIR}/cold.csv" --cache-dir "${CACHE_DIR}" --jobs 1)
run(warm_log "${WORK_DIR}/warm.csv" --cache-dir "${CACHE_DIR}")
assert_same_bytes("${WORK_DIR}/cold.csv" "${WORK_DIR}/warm.csv"
                  "cold vs warm CSV")

if(cold_log MATCHES "from cache")
  message(FATAL_ERROR "cold run claims cache hits:\n${cold_log}")
endif()
string(REGEX MATCH "([0-9]+) job\\(s\\)" unused "${warm_log}")
set(njobs "${CMAKE_MATCH_1}")
if(NOT njobs OR njobs EQUAL 0)
  message(FATAL_ERROR "could not read the job count from:\n${warm_log}")
endif()
string(FIND "${warm_log}" "${njobs}/${njobs} from cache" hit_pos)
if(hit_pos EQUAL -1)
  message(FATAL_ERROR "warm run is not 100% cache hits (${njobs} jobs):\n${warm_log}")
endif()

# A cache-less run at eight workers must render the same bytes as the
# serial cold run, in both formats (--no-cache also proves the flag disables
# an explicit --cache-dir).
run(u1 "${WORK_DIR}/nocache.csv" --cache-dir "${CACHE_DIR}" --no-cache --quiet
    --jobs 8)
assert_same_bytes("${WORK_DIR}/cold.csv" "${WORK_DIR}/nocache.csv"
                  "--jobs 1 cached vs --jobs 8 --no-cache CSV")
run(u2 "${WORK_DIR}/warm.jsonl" --cache-dir "${CACHE_DIR}" --format jsonl --quiet)
run(u3 "${WORK_DIR}/nocache.jsonl" --format jsonl --quiet)
assert_same_bytes("${WORK_DIR}/warm.jsonl" "${WORK_DIR}/nocache.jsonl"
                  "cached vs uncached JSONL")

# --- 2. three-way shard concatenation ---------------------------------------

foreach(i RANGE 0 2)
  run(s${i} "${WORK_DIR}/shard${i}.csv" --shard ${i}/3
      --cache-dir "${CACHE_DIR}" --quiet)
endforeach()
file(READ "${WORK_DIR}/shard0.csv" s0)
file(READ "${WORK_DIR}/shard1.csv" s1)
file(READ "${WORK_DIR}/shard2.csv" s2)
file(WRITE "${WORK_DIR}/shards.csv" "${s0}${s1}${s2}")
assert_same_bytes("${WORK_DIR}/cold.csv" "${WORK_DIR}/shards.csv"
                  "unsharded vs concatenated 3-way shards CSV")

foreach(i RANGE 0 1)
  run(j${i} "${WORK_DIR}/shard${i}.jsonl" --shard ${i}/2
      --cache-dir "${CACHE_DIR}" --format jsonl --quiet)
endforeach()
file(READ "${WORK_DIR}/shard0.jsonl" j0)
file(READ "${WORK_DIR}/shard1.jsonl" j1)
file(WRITE "${WORK_DIR}/shards.jsonl" "${j0}${j1}")
assert_same_bytes("${WORK_DIR}/warm.jsonl" "${WORK_DIR}/shards.jsonl"
                  "unsharded vs concatenated 2-way shards JSONL")

# --- 3. an empty shard is exactly the sweep-wide header ---------------------

run(e "${WORK_DIR}/empty.csv" --shard 0/100000 --cache-dir "${CACHE_DIR}" --quiet)
file(READ "${WORK_DIR}/cold.csv" full_csv)
string(FIND "${full_csv}" "\n" nl_pos)
math(EXPR header_len "${nl_pos} + 1")
string(SUBSTRING "${full_csv}" 0 ${header_len} header)
file(READ "${WORK_DIR}/empty.csv" empty_csv)
if(NOT empty_csv STREQUAL header)
  message(FATAL_ERROR "empty shard is not header-only:\n${empty_csv}")
endif()

# --- 4. --trace and --metrics are out-of-band -------------------------------

run(u4 "${WORK_DIR}/plain.csv" --filter "game/*" --jobs 2 --quiet)
run(metrics_log "${WORK_DIR}/traced.csv" --filter "game/*" --jobs 2 --quiet
    --trace "${WORK_DIR}/trace.jsonl" --metrics)
assert_same_bytes("${WORK_DIR}/plain.csv" "${WORK_DIR}/traced.csv"
                  "plain vs --trace --metrics CSV")
if(NOT metrics_log MATCHES "== metrics ==")
  message(FATAL_ERROR "--metrics printed no summary:\n${metrics_log}")
endif()

# trace_fail(<message>): the trace is malformed.
macro(trace_fail what)
  message(FATAL_ERROR "trace.jsonl line ${line_no}: ${what}\n${line}")
endmacro()

file(READ "${WORK_DIR}/trace.jsonl" rest)
set(line_no 0)
set(job_spans 0)
set(snapshot_line -1)
while(NOT rest STREQUAL "")
  string(FIND "${rest}" "\n" nl)
  if(nl EQUAL -1)
    set(line "${rest}")
    set(rest "")
  else()
    string(SUBSTRING "${rest}" 0 ${nl} line)
    math(EXPR nl "${nl} + 1")
    string(SUBSTRING "${rest}" ${nl} -1 rest)
  endif()
  math(EXPR line_no "${line_no} + 1")
  string(JSON kind GET "${line}" kind)
  if(line_no EQUAL 1)
    string(JSON schema GET "${line}" schema)
    string(JSON trace_jobs GET "${line}" jobs)
    string(JSON host_threads GET "${line}" host_threads)
    string(JSON shard GET "${line}" shard)
    if(NOT kind STREQUAL "header" OR NOT schema EQUAL 1 OR
       NOT trace_jobs GREATER 0 OR host_threads LESS 1 OR
       NOT shard STREQUAL "0/1")
      trace_fail("bad header")
    endif()
  elseif(NOT snapshot_line EQUAL -1)
    trace_fail("a line after the snapshot")
  elseif(kind STREQUAL "snapshot")
    set(snapshot_line ${line_no})
    string(JSON run_job_count GET "${line}" counters runner/run_job)
    if(NOT run_job_count EQUAL trace_jobs)
      trace_fail("runner/run_job is ${run_job_count}, not ${trace_jobs}")
    endif()
  elseif(kind STREQUAL "span")
    string(JSON span_name GET "${line}" name)
    if(span_name STREQUAL "runner/job")
      math(EXPR job_spans "${job_spans} + 1")
      string(JSON span_scenario GET "${line}" attrs scenario)
      string(JSON span_cache GET "${line}" attrs cache)
      string(JSON span_dur GET "${line}" dur_us)
      if(span_scenario STREQUAL "" OR span_cache STREQUAL "" OR
         span_dur MATCHES "^-")
        trace_fail("runner/job span lacks scenario or cache attrs, or dur_us < 0")
      endif()
    endif()
  else()
    trace_fail("unknown kind '${kind}'")
  endif()
endwhile()
if(snapshot_line EQUAL -1)
  message(FATAL_ERROR "trace.jsonl has no final snapshot")
endif()
if(NOT job_spans EQUAL trace_jobs)
  message(FATAL_ERROR "${job_spans} runner/job spans for ${trace_jobs} jobs")
endif()

# --- 5. the catalog: --list runs, README's table equals --list-md ------------

execute_process(COMMAND "${LCG_RUN}" --list
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lcg_run --list failed (rc=${rc}):\n${err}")
endif()
execute_process(COMMAND "${LCG_RUN}" --list-md
                RESULT_VARIABLE rc OUTPUT_VARIABLE generated ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lcg_run --list-md failed (rc=${rc}):\n${err}")
endif()
file(READ "${README}" readme)
string(REGEX MATCH "<!-- scenario-table:begin -->[^\n]*\n(.*)<!-- scenario-table:end -->"
       unused "${readme}")
set(committed "${CMAKE_MATCH_1}")
if(NOT committed STREQUAL generated)
  file(WRITE "${WORK_DIR}/generated_catalog.md" "${generated}")
  message(FATAL_ERROR "README.md's scenario catalog differs from "
          "`lcg_run --list-md` (written to ${WORK_DIR}/generated_catalog.md); "
          "regenerate the table between the scenario-table markers")
endif()

message(STATUS "cli_cache_shard: ${njobs} jobs — --jobs 1 == --jobs 8, warm 100% hits, 3-way shard concat byte-identical, empty shard header-only; trace out-of-band and well-formed (${job_spans} job spans); README catalog in sync")
