# Drives `elitenet_cli serve` and `convert` end to end (run by the
# example_cli_serve ctest): writes a small edge list, pipes one request
# file through the unsharded engine and through a 2-shard router, converts
# the edge list to ENG2 in memory and through the streamed writer
# (byte-identical files), converts a snapshot onto itself, serves the
# snapshots with identical output, checks that an ELITENET_METRICS serve
# leaves the exporter's snapshot behind, and checks that bad serve and
# convert flags and bad rank counts exit 2 before any graph loads.
#
#   cmake -DCLI=<path to elitenet_cli> -DWORK=<scratch dir> -P cli_serve_test.cmake

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
# Mutual pair, cycle, tail to a sink.
file(WRITE "${WORK}/edges.txt" "0 1\n1 0\n1 2\n2 0\n2 3\n3 4\n")
file(WRITE "${WORK}/requests.txt"
  "ego 0\nego 4\ntopk 3\ndist 1 4\ndist 4 0\nneighbors 2 out 8\n"
  "neighbors 0 in\nfingerprint\nego 99\nfrobnicate 1\nego 1 @3\n"
  "#recent five\n# a plain comment\nego 2 !batch\nquit\nego 3\n")

function(serve_once graph out)
  execute_process(
    COMMAND "${CLI}" serve "${WORK}/${graph}" ${ARGN}
    INPUT_FILE "${WORK}/requests.txt"
    OUTPUT_FILE "${WORK}/${out}"
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serve ${ARGN} exited ${rc}:\n${err}")
  endif()
endfunction()

serve_once(edges.txt unsharded.out 2)
serve_once(edges.txt sharded.out --shards=2 --threads=2)
file(READ "${WORK}/unsharded.out" unsharded)
file(READ "${WORK}/sharded.out" sharded)
if(NOT unsharded STREQUAL sharded)
  message(FATAL_ERROR "sharded output differs:\n${unsharded}\n---\n${sharded}")
endif()
string(REGEX MATCHALL "\n" lines "${unsharded}")
list(LENGTH lines n)
if(NOT n EQUAL 13)
  message(FATAL_ERROR "expected 13 response lines, got ${n}:\n${unsharded}")
endif()

# ELITENET_METRICS names the exporter's file, and the exporter is its one
# writer: after an env-driven serve exits, the file still holds the final
# serving snapshot, not a bare registry dump written over it.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "ELITENET_METRICS=${WORK}/m.json"
          "${CLI}" serve "${WORK}/edges.txt" 1 --no-widx
  INPUT_FILE "${WORK}/requests.txt"
  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ELITENET_METRICS serve exited ${rc}:\n${err}")
endif()
file(READ "${WORK}/m.json" metrics)
foreach(key "\"stats\"" "\"burn_rates\"" "\"metrics\"")
  string(FIND "${metrics}" "${key}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "ELITENET_METRICS file lacks ${key}:\n${metrics}")
  endif()
endforeach()

# convert: the in-memory and the streamed (1 MiB budget) ENG2 writers must
# produce the same bytes, and the snapshot must serve what the text did.
function(convert_once out)
  execute_process(
    COMMAND "${CLI}" convert "${WORK}/edges.txt" "${WORK}/${out}" ${ARGN}
    OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "convert ${out} ${ARGN} exited ${rc}:\n${err}")
  endif()
endfunction()

convert_once(a.eng2)
convert_once(b.eng2 --budget-mb=1)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK}/a.eng2" "${WORK}/b.eng2"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "in-memory and streamed ENG2 files differ")
endif()
serve_once(a.eng2 snapshot.out 2)
file(READ "${WORK}/snapshot.out" snapshot)
if(NOT unsharded STREQUAL snapshot)
  message(FATAL_ERROR "ENG2 output differs:\n${unsharded}\n---\n${snapshot}")
endif()

# Converting a snapshot onto itself rewrites the file the input graph is
# mapped from: the writer's temp file + rename must leave the mapping
# intact and the same bytes behind.
execute_process(
  COMMAND "${CLI}" convert "${WORK}/a.eng2" "${WORK}/a.eng2"
  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "convert a.eng2 a.eng2 exited ${rc}:\n${err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK}/a.eng2" "${WORK}/b.eng2"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "converting a.eng2 onto itself changed its bytes")
endif()
serve_once(a.eng2 self.out 2)
file(READ "${WORK}/self.out" self)
if(NOT unsharded STREQUAL self)
  message(FATAL_ERROR "self-converted output differs:\n${unsharded}\n---\n${self}")
endif()

# Bad flags fail with exit 2 — even when the graph does not exist, since
# flags are parsed before the graph loads.
foreach(bad "--shards=abc" "--threads=0" "--sample=4294967296"
            "--flight-recorder=99999999999999999999" "--shard-threads=2"
            "--bogus")
  foreach(graph "${WORK}/edges.txt" "${WORK}/missing.txt")
    execute_process(COMMAND "${CLI}" serve "${graph}" ${bad}
      INPUT_FILE "${WORK}/requests.txt"
      OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "serve ${graph} ${bad} exited ${rc}, want 2")
    endif()
  endforeach()
endforeach()
# --budget-mb takes a MiB count whose byte size fits in 64 bits.
foreach(bad "--budget-mb=abc" "--budget-mb=-3" "--budget-mb="
            "--budget-mb=17592186044416" "--budget-mb=99999999999999999999"
            "--bogus")
  foreach(graph "${WORK}/edges.txt" "${WORK}/missing.txt")
    execute_process(COMMAND "${CLI}" convert "${graph}" "${WORK}/bad.eng2" ${bad}
      OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "convert ${graph} ${bad} exited ${rc}, want 2")
    endif()
  endforeach()
endforeach()
if(EXISTS "${WORK}/bad.eng2")
  message(FATAL_ERROR "a rejected convert wrote its output")
endif()
# rank's k is a count that fits in 32 bits; a good one prints the table.
foreach(bad "abc" "-5" "" "4294967296" "99999999999999999999")
  foreach(graph "${WORK}/edges.txt" "${WORK}/missing.txt")
    execute_process(COMMAND "${CLI}" rank "${graph}" "${bad}"
      OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "rank ${graph} '${bad}' exited ${rc}, want 2")
    endif()
  endforeach()
endforeach()
execute_process(COMMAND "${CLI}" rank "${WORK}/edges.txt" 4294967295
  OUTPUT_VARIABLE table ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT table MATCHES "pagerank")
  message(FATAL_ERROR "rank edges.txt 4294967295 exited ${rc}:\n${table}")
endif()
