// Campaign demo: load a declarative scenario file, expand it into a
// campaign, run every job on the worker pool, and emit machine-readable
// metrics.
//
// Demonstrates the scenario + campaign public API:
//   1. parse and validate a scenario file (scenario::load_scenario_file) --
//      every malformed construct is a hard "file:line: message" error,
//   2. expand it into jobs (scenario::expand): axes cartesian-expanded,
//      $references resolved, one harness::RunSpec per grid point,
//   3. execute the campaign (deterministic: results are keyed by job
//      index, so any --jobs count yields byte-identical output),
//   4. aggregate latencies and print / serialize the results.
//
// Build & run:  ./build/examples/campaign_demo [scenario.toml]
// (default: the checked-in scenarios/demo.toml)

#include <cstdio>

#include "campaign/executor.hpp"
#include "campaign/sink.hpp"
#include "scenario/expand.hpp"
#include "scenario/scenario.hpp"

#ifndef LINTIME_SCENARIO_DIR
#define LINTIME_SCENARIO_DIR "scenarios"
#endif

int main(int argc, char** argv) {
  namespace campaign = lintime::campaign;
  namespace scenario = lintime::scenario;

  const std::string path =
      argc > 1 ? argv[1] : std::string(LINTIME_SCENARIO_DIR) + "/demo.toml";

  scenario::ScenarioCampaign expanded;
  try {
    const auto sc = scenario::load_scenario_file(path);
    expanded = scenario::expand(sc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_demo: %s\n", e.what());
    return 1;
  }

  std::printf("scenario %s: %zu jobs (digest %s)\n\n", expanded.spec.name.c_str(),
              expanded.spec.jobs.size(), scenario::campaign_digest(expanded).c_str());

  campaign::ExecutorOptions opts;
  opts.jobs = 2;
  const auto result = campaign::run_campaign(expanded.spec, opts);

  std::printf("  %-28s %-14s %s\n", "job", "verdict", "mean latency per op");
  for (const auto& job : result.jobs) {
    std::string latencies;
    for (const auto& [op, m] : job.metrics.ops) {
      latencies += op + "=" + campaign::fmt_double(m.mean) + " ";
    }
    std::printf("  %-28s %-14s %s\n", job.name.c_str(), campaign::to_string(job.metrics.verdict),
                latencies.c_str());
  }

  const auto agg = result.aggregate();
  std::printf("\naggregate: %zu/%zu linearizable, %zu messages sent\n", agg.jobs_linearizable,
              agg.jobs_checked, agg.messages_sent);

  // The same result as JSON (what `campaign_runner --json` writes).
  std::printf("\nJSON (first 400 chars):\n%.400s...\n", campaign::to_json(result).c_str());

  return agg.jobs_failed == 0 && agg.jobs_linearizable == agg.jobs_checked ? 0 : 1;
}
