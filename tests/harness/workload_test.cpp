// Tests for the sharded serving workload generator's plan values.

#include "harness/workload.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adt/register_type.hpp"
#include "core/sharded_store.hpp"

namespace lintime::harness {
namespace {

/// No sharded plan may write the component register's initial value: a
/// write of it makes reads of that value ambiguous, and the key's history
/// then misses the fast monitors.  Covers every plan shape: uniform open
/// and closed loop, Zipf open and closed loop, and bursty arrivals.
TEST(ShardedWorkloadTest, NoPlanWritesTheComponentsInitialValue) {
  const adt::RegisterType reg;
  const core::ShardedStore store(reg, 64, 4);
  const adt::Value initial =
      reg.initial_state()->apply(adt::RegisterType::kRead, adt::Value::nil());
  const sim::ModelParams params{4, 10.0, 2.0, 0.0};

  struct Shape {
    const char* name;
    bool closed_loop;
    double zipf_theta;
    int burst;
  };
  const Shape shapes[] = {{"uniform-open", false, 0, 0},
                          {"uniform-closed", true, 0, 0},
                          {"zipf-open", false, 0.99, 0},
                          {"zipf-closed", true, 0.99, 0},
                          {"bursty-open", false, 0, 3}};

  for (const Shape& shape : shapes) {
    std::size_t writes = 0;
    std::size_t first_ops_written_by_proc0 = 0;  // where the value used to be 0
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      ShardedWorkloadGen::Options o;
      o.ops_per_proc = 25;
      o.seed = seed;
      o.closed_loop = shape.closed_loop;
      o.zipf_theta = shape.zipf_theta;
      o.burst = shape.burst;
      o.burst_gap = shape.burst > 0 ? 40.0 : 0;
      const WorkloadPlan plan = ShardedWorkloadGen(o).generate(store, params);

      std::vector<ScriptOp> ops;
      for (const auto& call : plan.calls) ops.push_back(ScriptOp{call.op, call.arg});
      for (const auto& script : plan.scripts) ops.insert(ops.end(), script.begin(), script.end());
      ASSERT_EQ(ops.size(), 100u) << shape.name;

      for (const auto& op : ops) {
        if (op.op != adt::RegisterType::kWrite) continue;
        ++writes;
        EXPECT_NE(*store.split(op.arg).inner, initial) << shape.name << " seed " << seed;
      }
      const ScriptOp& first = shape.closed_loop ? plan.scripts[0][0] : ops[0];
      if (first.op == adt::RegisterType::kWrite) ++first_ops_written_by_proc0;
    }
    EXPECT_GT(writes, 0u) << shape.name;
    EXPECT_GT(first_ops_written_by_proc0, 0u) << shape.name;
  }
}

}  // namespace
}  // namespace lintime::harness
