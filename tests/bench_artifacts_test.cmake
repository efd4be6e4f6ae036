# Bench artifact acceptance, run as a CTest (arguments: see CMakeLists.txt).
#
# Each bench binary checks its own relations and exits 1 when one breaks.
# This script runs all three with --smoke, pins the keys of every record
# (top level and "obs") in the smoke output and in the committed
# BENCH_*.json, checks that the smoke output covers every backend, family,
# oracle and mode, that the committed BENCH_arena.json holds churn runs
# (one at n >= 120) that converged with joins, leaves and a zero deposit gap,
# and that every smoke arena record sharing (family, n, oracle, mode) with a
# committed one equals it in every work counter.

cmake_minimum_required(VERSION 3.20)

if(NOT WORK_DIR OR NOT SOURCE_DIR)
  message(FATAL_ERROR "usage: cmake -DBENCH_{BETWEENNESS,ARENA,PAYMENTS}=... "
          "-DSOURCE_DIR=... -DWORK_DIR=... -P bench_artifacts_test.cmake")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# members(<out> <json object>): its member names, sorted.
function(members out object)
  string(JSON count LENGTH "${object}")
  set(keys "")
  if(count GREATER 0)
    math(EXPR last "${count} - 1")
    foreach(k RANGE ${last})
      string(JSON key MEMBER "${object}" ${k})
      list(APPEND keys "${key}")
    endforeach()
  endif()
  list(SORT keys)
  set(${out} "${keys}" PARENT_SCOPE)
endfunction()

# check_records(<path> <bench> [field...]): every record has exactly the
# keys ${<bench>_keys} and "obs" keys ${<bench>_obs} ("<backend>" stands for
# the record's backend); each listed field takes exactly ${cover_<field>}.
function(check_records path bench)
  set(want_keys ${${bench}_keys})
  list(SORT want_keys)
  file(READ "${path}" json)
  string(JSON count LENGTH "${json}")
  if(count EQUAL 0)
    message(FATAL_ERROR "${path}: no records")
  endif()
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    string(JSON record GET "${json}" ${i})
    string(JSON obs GET "${record}" obs)
    string(JSON backend ERROR_VARIABLE unused GET "${record}" backend)
    members(keys "${record}")
    members(obs_keys "${obs}")
    string(REPLACE "<backend>" "${backend}" want_obs "${${bench}_obs}")
    list(SORT want_obs)
    if(NOT keys STREQUAL want_keys OR NOT obs_keys STREQUAL want_obs)
      message(FATAL_ERROR "${path} record ${i}: keys [${keys}] obs "
              "[${obs_keys}], expected [${want_keys}] obs [${want_obs}]")
    endif()
    foreach(field ${ARGN})
      string(JSON v GET "${record}" ${field})
      list(APPEND seen_${field} "${v}")
    endforeach()
  endforeach()
  foreach(field ${ARGN})
    list(REMOVE_DUPLICATES seen_${field})
    list(SORT seen_${field})
    set(want ${cover_${field}})
    list(SORT want)
    if(NOT seen_${field} STREQUAL want)
      message(FATAL_ERROR "${path}: ${field} takes [${seen_${field}}], "
              "expected [${want}]")
    endif()
  endforeach()
endfunction()

set(betweenness_keys n edges backend graph threads pivots host_hw_threads obs
    wall_ms speedup_vs_serial max_rel_error)
set(betweenness_obs graph/sweep_source_<backend>)
set(betweenness_cover backend)
set(arena_keys family n channels_start topology oracle order pivots mode
    rounds moves evaluations effective_sweeps pruned_candidates
    sweep_reduction converged joins leaves conservation_gap final_shape
    host_hw_threads obs wall_ms evals_per_ms)
set(arena_obs arena/sweep_full arena/build_forest arena/resweep_source
    arena/accumulate_source arena/run_support_bfs arena/prune_candidate)
set(arena_cover family oracle mode)
set(payments_keys n channels topology retry gossip_refresh payments delivered
    success_rate events host_hw_threads obs wall_ms payments_per_sec)
set(payments_obs traffic/attempt_payment traffic/deliver_payment
    traffic/fail_no_route traffic/fail_mid_flight traffic/timeout_payment
    traffic/retry_payment traffic/fail_lock traffic/process_event
    traffic/route_scan)
set(cover_backend serial parallel sampled)
set(cover_family static hetero churn)
set(cover_oracle greedy local)
set(cover_mode full incremental)

foreach(bench betweenness arena payments)
  string(TOUPPER "BENCH_${bench}" binary)
  set(smoke "${WORK_DIR}/BENCH_${bench}.json")
  execute_process(COMMAND "${${binary}}" --smoke --json "${smoke}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_${bench} --smoke failed (rc=${rc}):\n${out}${err}")
  endif()
  check_records("${smoke}" ${bench} ${${bench}_cover})
  check_records("${SOURCE_DIR}/BENCH_${bench}.json" ${bench})
endforeach()

# The committed BENCH_arena.json has converging churn at scale.
set(committed "${SOURCE_DIR}/BENCH_arena.json")
file(READ "${committed}" json)
string(JSON count LENGTH "${json}")
math(EXPR last "${count} - 1")
set(churn_records 0)
set(churn_max_n 0)
foreach(i RANGE ${last})
  foreach(field family n converged conservation_gap joins leaves)
    string(JSON ${field} GET "${json}" ${i} ${field})
  endforeach()
  if(NOT family STREQUAL "churn")
    continue()
  endif()
  math(EXPR churn_records "${churn_records} + 1")
  if(n GREATER churn_max_n)
    set(churn_max_n ${n})
  endif()
  if(NOT converged EQUAL 1 OR NOT conservation_gap EQUAL 0 OR
     NOT joins GREATER 0 OR NOT leaves GREATER 0)
    message(FATAL_ERROR "${committed} churn record ${i} (n=${n}): converged "
            "${converged}, gap ${conservation_gap}, joins ${joins}, leaves "
            "${leaves}; expected 1, 0, > 0, > 0")
  endif()
endforeach()
if(churn_max_n LESS 120)
  message(FATAL_ERROR "${committed}: ${churn_records} churn record(s), max "
          "n ${churn_max_n}; expected a churn record at n >= 120")
endif()

# Work-counter gate: every smoke arena record whose (family, n, oracle,
# mode) is also committed equals the committed record in every field, obs
# included, except the host-dependent wall_ms, evals_per_ms and
# host_hw_threads. The arena is deterministic, so any drift in rounds,
# moves, evaluations or the sweep ledger fails here.
set(smoke "${WORK_DIR}/BENCH_arena.json")
file(READ "${smoke}" smoke_json)
string(JSON smoke_count LENGTH "${smoke_json}")
math(EXPR smoke_last "${smoke_count} - 1")
set(pinned 0)
foreach(i RANGE ${smoke_last})
  string(JSON got GET "${smoke_json}" ${i})
  foreach(j RANGE ${last})
    string(JSON want GET "${json}" ${j})
    set(same_config TRUE)
    foreach(field family n oracle mode)
      string(JSON ${field} GET "${got}" ${field})
      string(JSON b GET "${want}" ${field})
      if(NOT ${field} STREQUAL b)
        set(same_config FALSE)
        break()
      endif()
    endforeach()
    if(NOT same_config)
      continue()
    endif()
    # Both records passed the key check above, so their members match.
    set(diffs "")
    members(keys "${want}")
    list(REMOVE_ITEM keys wall_ms evals_per_ms host_hw_threads obs)
    foreach(key ${keys})
      string(JSON a GET "${got}" ${key})
      string(JSON b GET "${want}" ${key})
      if(NOT a STREQUAL b)
        list(APPEND diffs "${key} ${b} -> ${a}")
      endif()
    endforeach()
    string(JSON got_obs GET "${got}" obs)
    string(JSON want_obs GET "${want}" obs)
    members(keys "${want_obs}")
    foreach(key ${keys})
      string(JSON a GET "${got_obs}" ${key})
      string(JSON b GET "${want_obs}" ${key})
      if(NOT a STREQUAL b)
        list(APPEND diffs "obs ${key} ${b} -> ${a}")
      endif()
    endforeach()
    if(diffs)
      list(JOIN diffs "; " diffs)
      message(FATAL_ERROR "smoke arena record ${i} (${family} n=${n} "
              "${oracle} ${mode}) differs from ${committed} record ${j} "
              "(committed -> smoke): ${diffs}")
    endif()
    math(EXPR pinned "${pinned} + 1")
    break()
  endforeach()
endforeach()
if(pinned EQUAL 0)
  message(FATAL_ERROR "no smoke arena record shares (family, n, oracle, "
          "mode) with ${committed}; the work-counter gate pins nothing")
endif()

message(STATUS "bench_artifacts: smoke runs exit 0, record keys pinned, "
        "${churn_records} committed churn records up to n=${churn_max_n}, "
        "${pinned} smoke arena records equal to their committed twins")
