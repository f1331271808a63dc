# One binary per reproduced table / figure, plus google-benchmark
# microbenchmarks.  Each binary is standalone:
#   for b in build/bench/*; do $b; done
foreach(bench
    table1_registers table2_queues table3_stacks table4_trees table5_summary
    fig11_classification fig_theorem2_accessor fig_theorem3_shift
    fig_theorem4_chop fig_theorem5_sum tradeoff_sweep sc_gap ablations
    latency_distribution robustness campaign_runner)
  add_executable(${bench} bench/${bench}.cpp bench/bench_util.cpp)
  set_target_properties(${bench} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  target_link_libraries(${bench} PRIVATE
    lintime_adt lintime_sim lintime_core lintime_baseline lintime_lin
    lintime_shift lintime_clocksync lintime_harness lintime_campaign
    lintime_scenario)
endforeach()

# The runner resolves --campaign NAME against the checked-in corpus;
# latency_distribution runs the corpus's latency.toml.
foreach(bench campaign_runner latency_distribution)
  target_compile_definitions(${bench} PRIVATE
    LINTIME_SCENARIO_DIR="${CMAKE_SOURCE_DIR}/scenarios")
endforeach()

add_executable(micro_benchmarks bench/micro_benchmarks.cpp)
set_target_properties(micro_benchmarks PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
# The build-type stamp lands in the benchmark JSON context (custom main).
target_compile_definitions(micro_benchmarks PRIVATE LINTIME_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
target_link_libraries(micro_benchmarks PRIVATE
  lintime_adt lintime_sim lintime_core lintime_baseline lintime_lin
  lintime_shift lintime_clocksync lintime_harness
  benchmark::benchmark)
