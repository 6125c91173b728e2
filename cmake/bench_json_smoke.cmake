# Runs one bench with --json and asserts the output is valid JSON with the
# expected top-level shape: {"records": [...], "host": {...}, "metrics": {...}}.
# Invoked as
#   cmake -DBENCH_EXE=... -DJSON_OUT=... [-DEXTRA_ARGS=...] -P bench_json_smoke.cmake
# Uses cmake's string(JSON) (3.19+), so the shape check runs without any
# external JSON tooling in the image.
if(NOT DEFINED BENCH_EXE OR NOT DEFINED JSON_OUT)
  message(FATAL_ERROR "bench_json_smoke.cmake requires -DBENCH_EXE and -DJSON_OUT")
endif()

separate_arguments(extra_args UNIX_COMMAND "${EXTRA_ARGS}")
execute_process(
  COMMAND ${BENCH_EXE} --json ${JSON_OUT} ${extra_args}
  RESULT_VARIABLE run_result)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "${BENCH_EXE} exited with ${run_result}")
endif()

if(NOT EXISTS ${JSON_OUT})
  message(FATAL_ERROR "${BENCH_EXE} did not write ${JSON_OUT}")
endif()
file(READ ${JSON_OUT} json_text)

string(JSON records_type ERROR_VARIABLE json_err TYPE "${json_text}" records)
if(json_err)
  message(FATAL_ERROR "${JSON_OUT}: no 'records' member or invalid JSON: ${json_err}")
endif()
if(NOT records_type STREQUAL "ARRAY")
  message(FATAL_ERROR "${JSON_OUT}: 'records' is ${records_type}, expected ARRAY")
endif()

string(JSON metrics_type ERROR_VARIABLE json_err TYPE "${json_text}" metrics)
if(json_err)
  message(FATAL_ERROR "${JSON_OUT}: no 'metrics' member: ${json_err}")
endif()
if(NOT metrics_type STREQUAL "OBJECT")
  message(FATAL_ERROR "${JSON_OUT}: 'metrics' is ${metrics_type}, expected OBJECT")
endif()

# Every bench records the machine and build its numbers came from
# (bench_util.h WriteHostJson): a result without them cannot be compared.
string(JSON host_type ERROR_VARIABLE json_err TYPE "${json_text}" host)
if(json_err)
  message(FATAL_ERROR "${JSON_OUT}: no 'host' member: ${json_err}")
endif()
if(NOT host_type STREQUAL "OBJECT")
  message(FATAL_ERROR "${JSON_OUT}: 'host' is ${host_type}, expected OBJECT")
endif()
foreach(member_and_type nproc:NUMBER sse4_2:BOOLEAN avx2:BOOLEAN
                        build_type:STRING crc32c:STRING)
  string(REPLACE ":" ";" member_and_type "${member_and_type}")
  list(GET member_and_type 0 member)
  list(GET member_and_type 1 expected_type)
  string(JSON member_type ERROR_VARIABLE json_err TYPE "${json_text}"
         host ${member})
  if(json_err)
    message(FATAL_ERROR "${JSON_OUT}: host.${member} missing: ${json_err}")
  endif()
  if(NOT member_type STREQUAL expected_type)
    message(FATAL_ERROR "${JSON_OUT}: host.${member} is ${member_type}, expected ${expected_type}")
  endif()
endforeach()

# Benches that report multi-session results (bench_server) additionally
# carry a top-level "server" object; -DEXPECT_SERVER=ON makes its shape
# mandatory: both A/B configs present with numeric tail-latency members.
if(EXPECT_SERVER)
  string(JSON server_type ERROR_VARIABLE json_err TYPE "${json_text}" server)
  if(json_err)
    message(FATAL_ERROR "${JSON_OUT}: no 'server' member: ${json_err}")
  endif()
  if(NOT server_type STREQUAL "OBJECT")
    message(FATAL_ERROR "${JSON_OUT}: 'server' is ${server_type}, expected OBJECT")
  endif()
  foreach(config admission_on admission_off)
    foreach(member ok rejected deadline_kills p50_ms p99_ms qps)
      string(JSON member_type ERROR_VARIABLE json_err TYPE "${json_text}"
             server ${config} ${member})
      if(json_err)
        message(FATAL_ERROR "${JSON_OUT}: server.${config}.${member} missing: ${json_err}")
      endif()
      if(NOT member_type STREQUAL "NUMBER")
        message(FATAL_ERROR "${JSON_OUT}: server.${config}.${member} is ${member_type}, expected NUMBER")
      endif()
    endforeach()
  endforeach()
endif()

# The wire-protocol bench (bench_net) carries a top-level "net" object;
# -DEXPECT_NET=ON makes its shape mandatory: both the in-process baseline
# and the networked path present with numeric latency/throughput members.
if(EXPECT_NET)
  string(JSON net_type ERROR_VARIABLE json_err TYPE "${json_text}" net)
  if(json_err)
    message(FATAL_ERROR "${JSON_OUT}: no 'net' member: ${json_err}")
  endif()
  if(NOT net_type STREQUAL "OBJECT")
    message(FATAL_ERROR "${JSON_OUT}: 'net' is ${net_type}, expected OBJECT")
  endif()
  foreach(path in_process networked)
    foreach(member ok errors p50_ms p99_ms qps wall_s)
      string(JSON member_type ERROR_VARIABLE json_err TYPE "${json_text}"
             net ${path} ${member})
      if(json_err)
        message(FATAL_ERROR "${JSON_OUT}: net.${path}.${member} missing: ${json_err}")
      endif()
      if(NOT member_type STREQUAL "NUMBER")
        message(FATAL_ERROR "${JSON_OUT}: net.${path}.${member} is ${member_type}, expected NUMBER")
      endif()
    endforeach()
  endforeach()
endif()

string(JSON n_records LENGTH "${json_text}" records)
string(JSON n_metrics LENGTH "${json_text}" metrics)
message(STATUS "${JSON_OUT}: ${n_records} records, ${n_metrics} metrics — OK")
