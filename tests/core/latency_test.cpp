// Lemma 4's exact response times, parameterized over the tradeoff X:
//   |AOP| = d - X,  |MOP| = X + eps,  |OOP| = d + eps (worst case; may
// complete early when another instance's execute timer drains it first).
// Across the tradeoff scenario's grid, every timer-driven response comes no
// earlier than its bound and less than one event-grid tick after it.

#include <gtest/gtest.h>

#include "adt/queue_type.hpp"
#include "adt/rmw_register_type.hpp"
#include "core/timing_policy.hpp"
#include "harness/runner.hpp"
#include "scenario/expand.hpp"
#include "scenario/scenario.hpp"

namespace lintime::core {
namespace {

using adt::Value;
using harness::Call;
using harness::RunSpec;

constexpr double kTol = 1e-9;

class LatencyTest : public ::testing::TestWithParam<double> {
 protected:
  sim::ModelParams params() const { return sim::ModelParams{4, 10.0, 2.0, 1.5}; }
  double X() const { return GetParam(); }
};

TEST_P(LatencyTest, PureAccessorTakesExactlyDMinusX) {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = params();
  spec.X = X();
  spec.calls = {Call{5.0, 1, "peek", Value::nil()}};
  const auto result = harness::execute(queue, spec);
  const auto& stats = result.stats_for("peek");
  EXPECT_NEAR(stats.min, spec.params.d - X(), kTol);
  EXPECT_NEAR(stats.max, spec.params.d - X(), kTol);
}

TEST_P(LatencyTest, PureMutatorTakesExactlyXPlusEps) {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = params();
  spec.X = X();
  spec.calls = {Call{5.0, 2, "enqueue", Value{1}}};
  const auto result = harness::execute(queue, spec);
  const auto& stats = result.stats_for("enqueue");
  EXPECT_NEAR(stats.min, X() + spec.params.eps, kTol);
  EXPECT_NEAR(stats.max, X() + spec.params.eps, kTol);
}

TEST_P(LatencyTest, MixedOpTakesExactlyDPlusEpsWhenSolo) {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = params();
  spec.X = X();
  spec.calls = {Call{5.0, 0, "dequeue", Value::nil()}};
  const auto result = harness::execute(queue, spec);
  const auto& stats = result.stats_for("dequeue");
  EXPECT_NEAR(stats.min, spec.params.d + spec.params.eps, kTol);
  EXPECT_NEAR(stats.max, spec.params.d + spec.params.eps, kTol);
}

TEST_P(LatencyTest, LatenciesIndependentOfActualMessageDelays) {
  // The response times are timer-driven; the adversary cannot slow them.
  adt::RmwRegisterType reg;
  for (const double delay : {8.0, 9.0, 10.0}) {
    RunSpec spec;
    spec.params = params();
    spec.X = X();
    spec.delays = std::make_shared<sim::ConstantDelay>(delay);
    spec.calls = {
        Call{0.0, 0, "write", Value{1}},
        Call{30.0, 1, "read", Value::nil()},
        Call{60.0, 2, "fetch_add", Value{1}},
    };
    const auto result = harness::execute(reg, spec);
    EXPECT_NEAR(result.stats_for("write").max, X() + spec.params.eps, kTol);
    EXPECT_NEAR(result.stats_for("read").max, spec.params.d - X(), kTol);
    EXPECT_NEAR(result.stats_for("fetch_add").max, spec.params.d + spec.params.eps, kTol);
  }
}

TEST_P(LatencyTest, MixedOpNeverExceedsDPlusEps) {
  // Under concurrency an OOP may respond early (drained by another
  // instance's execute timer) but never later than d + eps.
  adt::QueueType queue;
  RunSpec spec;
  spec.params = params();
  spec.X = X();
  const double e = spec.params.eps;
  spec.clock_offsets = {e / 2, -e / 2, 0.0, 0.0};
  spec.calls = {
      Call{0.0, 0, "enqueue", Value{1}},
      Call{0.0, 1, "dequeue", Value::nil()},
      Call{1.0, 2, "dequeue", Value::nil()},
      Call{2.0, 3, "enqueue", Value{2}},
  };
  const auto result = harness::execute(queue, spec);
  EXPECT_LE(result.stats_for("dequeue").max, spec.params.d + spec.params.eps + kTol);
}

INSTANTIATE_TEST_SUITE_P(XSweep, LatencyTest,
                         ::testing::Values(0.0, 1.0, 2.5, 5.0, 8.5),
                         [](const ::testing::TestParamInfo<double>& info) {
                           std::string name = "X" + std::to_string(info.param);
                           for (auto& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

TEST(TradeoffGridTest, TimerDrivenLatenciesReachTheirBounds) {
  // Pure accessors respond at one d - X timer and pure mutators at one
  // X + eps timer.  At n = 3, eps = 4/3 puts both off the 1e-9 event grid,
  // so a timer expiry rounded to the nearest grid point could fire up to
  // half a tick early; it must round up instead.  1e-12 absorbs the float
  // noise of subtracting two grid times.
  const auto campaign = scenario::expand(
      scenario::load_scenario_file(std::string(LINTIME_SCENARIO_DIR) + "/tradeoff.toml"));
  std::size_t checked = 0;
  for (const auto& job : campaign.spec.jobs) {
    const auto timing = TimingPolicy::standard(job.spec.params, job.spec.X);
    const auto result = harness::execute(*job.type, job.spec);
    for (const auto& op : result.record.ops) {
      const auto category = job.type->spec(op.op).category;
      if (category == adt::OpCategory::kMixed) continue;
      const double bound = category == adt::OpCategory::kPureAccessor ? timing.aop_bound()
                                                                        : timing.mop_bound();
      ASSERT_TRUE(op.complete()) << job.name;
      EXPECT_GE(op.latency(), bound - 1e-12) << job.name << " " << op.to_string();
      EXPECT_LT(op.latency(), bound + 1e-9) << job.name << " " << op.to_string();
      ++checked;
    }
  }
  EXPECT_GT(checked, 500u);
}

}  // namespace
}  // namespace lintime::core
