// Tests for the sharded serving workload generator's plans: the values they
// write, and pinned digests of the uniform open- and closed-loop plans.

#include "harness/workload.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "adt/fingerprint.hpp"
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

/// Streams a plan into `h`: every call's time (as its bit pattern), process,
/// op and argument, every script step, and the script start and gap.
void feed_plan(adt::FpHasher& h, const WorkloadPlan& plan) {
  h.mix(plan.calls.size());
  for (const Call& call : plan.calls) {
    h.mix(std::bit_cast<std::uint64_t>(call.when));
    h.mix(static_cast<std::uint64_t>(call.proc));
    h.mix_bytes(call.op);
    call.arg.feed(h);
  }
  h.mix(plan.scripts.size());
  for (const auto& script : plan.scripts) {
    h.mix(script.size());
    for (const ScriptOp& step : script) {
      h.mix_bytes(step.op);
      step.arg.feed(h);
    }
  }
  h.mix(std::bit_cast<std::uint64_t>(plan.script_start));
  h.mix(std::bit_cast<std::uint64_t>(plan.script_gap));
}

/// The uniform open- and closed-loop plans, pinned by digest over three
/// seeds and three sizes each.  The digests were recorded when these two
/// shapes still came from separate helper functions; the generator's one
/// loop must keep drawing the same plans (op spec, then key, per call).
TEST(ShardedWorkloadTest, UniformPlansMatchPinnedDigests) {
  const adt::RegisterType reg;
  const core::ShardedStore store(reg, 1000, 16);
  struct Case {
    int n;
    bool closed_loop;
    const char* digest;
  };
  const Case cases[] = {{4, false, "0285363e34a27cb95c4f7ddc82952428"},
                        {8, false, "77eb25d75a09fa6d873f53c3466df6d0"},
                        {4, true, "f650382e0604dbaac9cafd573a59c026"},
                        {8, true, "41398abd0fdecbbbaf9b313364037682"}};
  for (const Case& c : cases) {
    const sim::ModelParams params{c.n, 10.0, 2.0, 0.0};
    adt::FpHasher h;
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
      for (const int ops_per_proc : {1, 16, 250}) {
        ShardedWorkloadGen::Options o;
        o.ops_per_proc = ops_per_proc;
        o.seed = seed;
        o.closed_loop = c.closed_loop;
        o.think = c.closed_loop ? 3.5 : 0;
        feed_plan(h, ShardedWorkloadGen(o).generate(store, params));
      }
    }
    const adt::Fingerprint fp = h.finish();
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(fp.hi),
                  static_cast<unsigned long long>(fp.lo));
    EXPECT_EQ(std::string(buf), c.digest)
        << "n=" << c.n << (c.closed_loop ? " closed" : " open") << " loop";
  }
}

}  // namespace
}  // namespace lintime::harness
