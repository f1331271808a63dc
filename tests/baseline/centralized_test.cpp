// The folklore centralized baseline: correctness, 2d worst-case latency,
// and linearizability under the property sweep.

#include "baseline/centralized.hpp"

#include <gtest/gtest.h>

#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "harness/runner.hpp"
#include "lin/checker.hpp"

namespace lintime::baseline {
namespace {

using adt::Value;
using harness::AlgoKind;
using harness::Call;
using harness::RunSpec;

RunSpec base_spec(int n = 4) {
  RunSpec spec;
  spec.params = sim::ModelParams{n, 10.0, 2.0, 1.5};
  spec.algo = AlgoKind::kCentralized;
  return spec;
}

TEST(CentralizedTest, RemoteOperationTakesTwoMessageDelays) {
  adt::RegisterType reg;
  auto spec = base_spec();
  spec.delays = std::make_shared<sim::ConstantDelay>(10.0);
  spec.calls = {Call{0.0, 1, "write", Value{5}}};
  const auto result = harness::execute(reg, spec);
  EXPECT_DOUBLE_EQ(result.stats_for("write").max, 20.0);  // 2d
}

TEST(CentralizedTest, CoordinatorOperationIsInstant) {
  adt::RegisterType reg;
  auto spec = base_spec();
  spec.calls = {Call{0.0, 0, "write", Value{5}}};
  const auto result = harness::execute(reg, spec);
  EXPECT_DOUBLE_EQ(result.stats_for("write").max, 0.0);
}

TEST(CentralizedTest, ValuesFlowThroughCoordinator) {
  adt::QueueType queue;
  auto spec = base_spec();
  spec.calls = {
      Call{0.0, 1, "enqueue", Value{1}},
      Call{30.0, 2, "enqueue", Value{2}},
      Call{60.0, 3, "dequeue", Value::nil()},
      Call{90.0, 1, "peek", Value::nil()},
  };
  const auto result = harness::execute(queue, spec);
  EXPECT_EQ(result.record.ops[2].ret, Value{1});
  EXPECT_EQ(result.record.ops[3].ret, Value{2});
}

TEST(CentralizedTest, ConcurrentOpsLinearizable) {
  adt::QueueType queue;
  auto spec = base_spec();
  spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 5);
  spec.scripts = harness::random_scripts(queue, 4, 5, 77);
  const auto result = harness::execute(queue, spec);
  EXPECT_TRUE(lin::check_linearizability(queue, result.record).linearizable);
}

TEST(CentralizedTest, WorstCaseLatencyBoundedByTwoD) {
  adt::QueueType queue;
  auto spec = base_spec();
  spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 11);
  spec.scripts = harness::random_scripts(queue, 4, 5, 13);
  const auto result = harness::execute(queue, spec);
  for (const auto& [op, stats] : harness::latency_by_op(result.record)) {
    EXPECT_LE(stats.max, 2 * spec.params.d + 1e-9) << op;
  }
}

TEST(CentralizedTest, SkewDoesNotAffectCorrectness) {
  adt::RegisterType reg;
  auto spec = base_spec();
  spec.clock_offsets = {0.75, -0.75, 0.0, 0.5};
  spec.calls = {
      Call{0.0, 1, "write", Value{9}},
      Call{40.0, 2, "read", Value::nil()},
  };
  const auto result = harness::execute(reg, spec);
  EXPECT_EQ(result.record.ops[1].ret, Value{9});
}

}  // namespace
}  // namespace lintime::baseline
