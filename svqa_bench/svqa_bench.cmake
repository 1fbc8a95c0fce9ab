# svqa_bench: host-time benchmark of the whole SVQA pipeline, added to
# the SVQA build without editing the root CMakeLists.txt. Pass this file
# as the root project's include hook (run.py does):
#
#   cmake -S . -B build \
#         -DCMAKE_PROJECT_svqa_INCLUDE=$PWD/svqa_bench/svqa_bench.cmake
#
# CMake includes it right after the root project(svqa) call, and it
# defers creating the targets to the end of the root CMakeLists.txt. So
# they are root-directory targets: they get the root's compile options,
# sanitizer and -Werror settings, and link its svqa_core and
# svqa_trace_core.
#
# Two binaries from the same sources. svqa_bench reports the end-to-end
# metrics (--trace 0) on the default allocator. svqa_bench_traced adds
# the bench_common.h operator-new hook for exec.allocs_per_query and is
# used only for the per-layer metrics (--trace 1).
if(CMAKE_VERSION VERSION_LESS 3.19)
  message(FATAL_ERROR "svqa_bench needs CMake 3.19 or newer (cmake_language DEFER)")
endif()

function(svqa_bench_add_targets dir)
  foreach(target svqa_bench svqa_bench_traced)
    add_executable(${target} ${dir}/svqa_bench.cc ${dir}/inputs.cc)
    target_include_directories(${target} PRIVATE ${PROJECT_SOURCE_DIR}/bench)
    target_link_libraries(${target} PRIVATE svqa_core svqa_trace_core)
  endforeach()
  target_compile_definitions(svqa_bench_traced PRIVATE SVQA_BENCH_COUNT_ALLOCS)

  # `ctest -L bench`: every workload, untraced and traced, for one second
  # each; checks outputs and metric names, not timings.
  find_package(Python3 COMPONENTS Interpreter)
  if(Python3_Interpreter_FOUND)
    add_test(NAME svqa_bench_smoke
             COMMAND Python3::Interpreter ${dir}/smoke.py
                     $<TARGET_FILE:svqa_bench> $<TARGET_FILE:svqa_bench_traced>
                     ${PROJECT_SOURCE_DIR}/BENCHMARK.json)
    set_tests_properties(svqa_bench_smoke PROPERTIES LABELS bench)
  endif()
endfunction()

cmake_language(EVAL CODE
  "cmake_language(DEFER CALL svqa_bench_add_targets [[${CMAKE_CURRENT_LIST_DIR}]])")
