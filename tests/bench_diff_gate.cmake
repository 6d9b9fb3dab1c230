# The bench_diff gate over small fixture files (tests/bench_diff/): each
# case runs bench_diff and checks its exit code.
#
#   cmake -DBENCH_DIFF=path/to/bench_diff -DFIXTURES=tests/bench_diff \
#         -P tests/bench_diff_gate.cmake
#
# baseline.json holds BM_A (100 ns) and BM_B (200 ns).  The cases: a clean
# run passes (0); a 2x-slower BM_B, a name only one file has, a baseline
# entry with no real_time against a slow current one, and a zero current
# time all fail under --fail (1); a debug-stamped file and a malformed
# --threshold are usage errors (2).
function(expect_exit expected)
  execute_process(COMMAND ${BENCH_DIFF} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code STREQUAL "${expected}")
    message(FATAL_ERROR "bench_diff ${ARGN}: exit ${code}, want ${expected}\n"
                        "${out}${err}")
  endif()
  message(STATUS "exit ${code}: bench_diff ${ARGN}")
endfunction()

set(F ${FIXTURES})
expect_exit(0 ${F}/baseline.json ${F}/clean.json --threshold=1.0 --fail)
expect_exit(1 ${F}/baseline.json ${F}/regression.json --threshold=1.0 --fail)
expect_exit(0 ${F}/baseline.json ${F}/regression.json --threshold=1.0)
expect_exit(1 ${F}/baseline.json ${F}/unmatched.json --threshold=1.0 --fail)
expect_exit(1 ${F}/missing_time.json ${F}/regression.json --threshold=1.0
            --fail)
expect_exit(1 ${F}/baseline.json ${F}/zero_time.json --threshold=1.0 --fail)
expect_exit(2 ${F}/baseline.json ${F}/debug.json --threshold=1.0 --fail)
expect_exit(2 ${F}/baseline.json ${F}/clean.json --threshold=abc --fail)
