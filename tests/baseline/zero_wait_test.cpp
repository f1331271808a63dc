// The zero-wait UNSAFE baseline: instant responses, and -- importantly --
// demonstrably NOT linearizable under an adversarial schedule (this also
// guards the checker against vacuous passes).

#include "baseline/zero_wait.hpp"

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

TEST(ZeroWaitTest, InstantResponses) {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 2.0, 1.0};
  spec.algo = AlgoKind::kZeroWait;
  spec.calls = {Call{0.0, 0, "enqueue", Value{1}}, Call{5.0, 0, "dequeue", Value::nil()}};
  const auto result = harness::execute(queue, spec);
  for (const auto& [op, stats] : harness::latency_by_op(result.record)) {
    EXPECT_DOUBLE_EQ(stats.max, 0.0) << op;
  }
}

TEST(ZeroWaitTest, SingleProcessSequentialIsStillCorrect) {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 2.0, 1.0};
  spec.algo = AlgoKind::kZeroWait;
  spec.calls = {
      Call{0.0, 0, "enqueue", Value{1}},
      Call{1.0, 0, "enqueue", Value{2}},
      Call{2.0, 0, "dequeue", Value::nil()},
  };
  const auto result = harness::execute(queue, spec);
  EXPECT_EQ(result.record.ops[2].ret, Value{1});
}

TEST(ZeroWaitTest, StaleReadViolatesLinearizability) {
  // p0 writes and the write completes (instantly); p1 reads long before the
  // announcement arrives: the read returns 0 although it strictly follows
  // the completed write -- the classic non-linearizable pattern.
  adt::RegisterType reg;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 2.0, 1.0};
  spec.algo = AlgoKind::kZeroWait;
  spec.calls = {
      Call{0.0, 0, "write", Value{5}},
      Call{1.0, 1, "read", Value::nil()},
  };
  const auto result = harness::execute(reg, spec);
  EXPECT_EQ(result.record.ops[1].ret, Value{0});  // stale
  EXPECT_FALSE(lin::check_linearizability(reg, result.record).linearizable);
}

TEST(ZeroWaitTest, DoubleDequeueViolatesLinearizability) {
  // Both processes dequeue the same element before hearing of each other.
  adt::QueueType queue;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 2.0, 1.0};
  spec.algo = AlgoKind::kZeroWait;
  spec.calls = {
      Call{0.0, 0, "enqueue", Value{1}},
      Call{20.0, 1, "dequeue", Value::nil()},
      Call{21.0, 2, "dequeue", Value::nil()},
  };
  const auto result = harness::execute(queue, spec);
  EXPECT_EQ(result.record.ops[1].ret, Value{1});
  EXPECT_EQ(result.record.ops[2].ret, Value{1});  // duplicated delivery
  EXPECT_FALSE(lin::check_linearizability(queue, result.record).linearizable);
}

}  // namespace
}  // namespace lintime::baseline
