// Latency distributions under random (rather than worst-case) delays -- a
// systems-level companion to the tables: Algorithm 1's response times are
// timer-driven and therefore CONSTANT per class regardless of realized
// delays, while the centralized baseline's latency tracks the delay
// distribution.  Swept over delay spreads (u) and seeds.
//
// The sweep is the campaign of scenarios/latency.toml: its u x algorithm x
// seed grid expands to one job per (u, algo, seed), all executed by the
// campaign worker pool; per-op distributions are then pooled from the
// per-job latency samples.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "harness/runner.hpp"
#include "scenario/expand.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace lintime;

struct Dist {
  double min = 0, mean = 0, max = 0;
};

Dist pool(const campaign::CampaignResult& result, const std::string& algo, double u,
          const char* op) {
  std::vector<double> samples;
  for (const auto& job : result.jobs) {
    if (!job.ok) continue;
    bool match_algo = false, match_u = false;
    for (const auto& [k, v] : job.tags) {
      if (k == "algo" && v == algo) match_algo = true;
      if (k == "u" && std::stod(v) == u) match_u = true;
    }
    if (!match_algo || !match_u) continue;
    const auto it = job.metrics.ops.find(op);
    if (it == job.metrics.ops.end()) continue;
    samples.insert(samples.end(), it->second.samples.begin(), it->second.samples.end());
  }
  Dist d;
  if (samples.empty()) return d;
  d.min = *std::min_element(samples.begin(), samples.end());
  d.max = *std::max_element(samples.begin(), samples.end());
  for (const double s : samples) d.mean += s;
  d.mean /= static_cast<double>(samples.size());
  return d;
}

}  // namespace

int main() {
  const auto campaign =
      scenario::expand(scenario::load_scenario_file(LINTIME_SCENARIO_DIR "/latency.toml"));
  const auto result = campaign::run_campaign(campaign.spec);

  std::printf("Latency distributions under uniformly random delays in [d-u, d]\n");
  std::printf("(20 seeds x 6 ops/process; Algorithm 1 at X = (d-eps)/2; %zu campaign jobs)\n\n",
              result.jobs.size());

  for (const double u : {0.5, 2.0, 4.0}) {
    sim::ModelParams params{5, 10.0, u, 0.0};
    params.eps = params.optimal_eps();
    std::printf("u = %g (delays in [%g, %g], eps = %g):\n", u, params.min_delay(), params.d,
                params.eps);
    std::printf("  %-14s %-10s %26s %26s\n", "impl", "op", "min / mean / max",
                "class bound");
    for (const auto algo : {harness::AlgoKind::kAlgorithmOne, harness::AlgoKind::kCentralized}) {
      for (const char* op : {"enqueue", "peek", "dequeue"}) {
        const auto dist = pool(result, harness::to_string(algo), u, op);
        std::string bound = "2d = " + std::to_string(2 * params.d);
        if (algo == harness::AlgoKind::kAlgorithmOne) {
          const double X = (params.d - params.eps) / 2;
          bound = op == std::string("enqueue") ? "X+eps" : op == std::string("peek") ? "d-X"
                                                                                     : "d+eps";
          const double v = op == std::string("enqueue") ? X + params.eps
                           : op == std::string("peek")  ? params.d - X
                                                        : params.d + params.eps;
          bound += " = " + std::to_string(v);
        }
        std::printf("  %-14s %-10s %8.2f / %6.2f / %6.2f %28s\n",
                    harness::to_string(algo), op, dist.min, dist.mean, dist.max, bound.c_str());
      }
    }
    std::printf("\n");
  }
  std::printf("=> Algorithm 1's accessor/mutator latencies are delay-independent\n"
              "   (fixed timers); only OOPs may finish early under concurrency.\n"
              "   The centralized baseline's latency follows the delay distribution.\n");
  return 0;
}
