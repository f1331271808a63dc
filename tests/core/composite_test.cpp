// Tests for multi-object composition: independent per-object Algorithm 1
// instances, the ProductType view, and the locality of linearizability
// (combined history linearizable <=> every per-object restriction is).

#include "core/composite.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "harness/runner.hpp"
#include "lin/checker.hpp"
#include "sim/world.hpp"

namespace lintime::core {
namespace {

using adt::Value;

TEST(QualifiedOpTest, ParseAndFormat) {
  const auto q = parse_qualified("2:enqueue");
  EXPECT_EQ(q.object, 2u);
  EXPECT_EQ(q.op, "enqueue");
  EXPECT_EQ(qualify(0, "read"), "0:read");
  EXPECT_THROW((void)parse_qualified("enqueue"), std::invalid_argument);
  EXPECT_THROW((void)parse_qualified(":x"), std::invalid_argument);
}

TEST(ProductTypeTest, NamespacedOpsAndIndependentState) {
  adt::QueueType queue;
  adt::RegisterType reg;
  ProductType product({&queue, &reg});

  EXPECT_EQ(product.ops().size(), queue.ops().size() + reg.ops().size());
  auto s = product.make_initial_state();
  s->apply("0:enqueue", Value{5});
  s->apply("1:write", Value{9});
  EXPECT_EQ(s->apply("0:peek", Value::nil()), Value{5});
  EXPECT_EQ(s->apply("1:read", Value::nil()), Value{9});
}

TEST(ProductTypeTest, CloneIsDeep) {
  adt::RegisterType reg;
  ProductType product({&reg, &reg});
  auto a = product.make_initial_state();
  auto b = a->clone();
  a->apply("0:write", Value{7});
  EXPECT_EQ(b->apply("0:read", Value::nil()), Value{0});
}

TEST(ProductTypeTest, EmptyProductRejected) {
  EXPECT_THROW(ProductType({}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Composite runs
// ---------------------------------------------------------------------------

struct CompositeRun {
  sim::RunRecord record;
  std::shared_ptr<sim::World> world;
};

/// `world_type` set makes the World resolve each name and call on_invoke_id.
CompositeRun run_composite(const ProductType& product, const sim::ModelParams& params,
                           const std::vector<harness::Call>& calls,
                           const adt::DataType* world_type = nullptr) {
  CompositeRun out;
  sim::WorldConfig config;
  config.type = world_type;
  config.params = params;
  config.delays = std::make_shared<sim::UniformRandomDelay>(params.min_delay(), params.d, 17);
  out.world = std::make_shared<sim::World>(config, [&](sim::ProcId) {
    return std::make_unique<CompositeProcess>(product,
                                              TimingPolicy::standard(params, 0.0));
  });
  for (const auto& call : calls) {
    out.world->invoke_at(call.when, call.proc, call.op, call.arg);
  }
  out.world->run();
  out.record = out.world->record();
  return out;
}

TEST(CompositeTest, OperationsRouteToTheRightObject) {
  adt::QueueType queue;
  adt::RegisterType reg;
  ProductType product({&queue, &reg});
  const auto run = run_composite(product, sim::ModelParams{3, 10.0, 2.0, 1.0},
                                 {{0.0, 0, "0:enqueue", Value{5}},
                                  {0.0, 1, "1:write", Value{9}},
                                  {40.0, 2, "0:dequeue", Value::nil()},
                                  {80.0, 2, "1:read", Value::nil()}});
  EXPECT_EQ(run.record.ops[2].ret, Value{5});
  EXPECT_EQ(run.record.ops[3].ret, Value{9});
}

TEST(CompositeTest, PerObjectLatenciesUnchangedByComposition) {
  // Hosting several objects must not slow any of them: an accessor on one
  // object keeps its d-X latency while the other object is busy.
  adt::QueueType queue;
  adt::RegisterType reg;
  ProductType product({&queue, &reg});
  const sim::ModelParams params{3, 10.0, 2.0, 1.0};
  const auto run = run_composite(product, params,
                                 {{0.0, 0, "0:enqueue", Value{1}},
                                  {0.0, 1, "1:read", Value::nil()},
                                  {0.0, 2, "1:write", Value{3}}});
  for (const auto& op : run.record.ops) {
    if (op.op == "1:read") {
      EXPECT_DOUBLE_EQ(op.latency(), params.d);  // d - X, X=0
    }
    if (op.op == "0:enqueue") {
      EXPECT_DOUBLE_EQ(op.latency(), params.eps);  // X + eps
    }
    if (op.op == "1:write") {
      EXPECT_DOUBLE_EQ(op.latency(), params.eps);
    }
  }
}

TEST(CompositeTest, LocalityCombinedAndRestrictionsAgree) {
  adt::QueueType queue;
  adt::RegisterType reg;
  ProductType product({&queue, &reg});
  const sim::ModelParams params{3, 10.0, 2.0, 1.0};

  std::vector<harness::Call> calls;
  // Interleaved concurrent traffic on both objects from all processes.
  for (int round = 0; round < 3; ++round) {
    const double t = round * 30.0;
    calls.push_back({t, 0, "0:enqueue", Value{round}});
    calls.push_back({t, 1, "1:write", Value{round * 10}});
    calls.push_back({t + 0.5, 2, round % 2 == 0 ? "0:peek" : "1:read", Value::nil()});
  }
  const auto run = run_composite(product, params, calls);

  // Combined history against the product spec.
  EXPECT_TRUE(lin::check_linearizability(product, run.record).linearizable);

  // Each restriction against its component spec (locality).
  const auto queue_ops = restrict_to_object(run.record.ops, 0);
  const auto reg_ops = restrict_to_object(run.record.ops, 1);
  EXPECT_EQ(queue_ops.size() + reg_ops.size(), run.record.ops.size());
  EXPECT_TRUE(lin::check_linearizability(queue, queue_ops).linearizable);
  EXPECT_TRUE(lin::check_linearizability(reg, reg_ops).linearizable);
}

TEST(CompositeTest, RestrictionStripsQualification) {
  std::vector<sim::OpRecord> ops(2);
  ops[0].op = "0:enqueue";
  ops[1].op = "1:read";
  const auto only0 = restrict_to_object(ops, 0);
  ASSERT_EQ(only0.size(), 1u);
  EXPECT_EQ(only0[0].op, "enqueue");
}

TEST(CompositeTest, InternedInvocationsRecordWhatNamedOnesRecord) {
  // By id, the process routes through ProductType::sub_op; by name, it
  // resolves the name first.  Every op category is exercised.
  adt::QueueType queue;
  adt::RegisterType reg;
  ProductType product({&queue, &reg});
  const sim::ModelParams params{3, 10.0, 2.0, 1.0};
  std::vector<harness::Call> calls;
  for (int round = 0; round < 4; ++round) {
    const double t = round * 30.0;
    calls.push_back({t, 0, "0:enqueue", Value{round}});
    calls.push_back({t, 1, "1:write", Value{round * 10}});
    calls.push_back({t + 0.5, 2, round % 2 == 0 ? "0:dequeue" : "1:read", Value::nil()});
  }
  const auto by_name = run_composite(product, params, calls);
  const auto by_id = run_composite(product, params, calls, &product);

  ASSERT_EQ(by_id.record.ops.size(), calls.size());
  ASSERT_EQ(by_name.record.ops.size(), calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const auto& a = by_name.record.ops[i];
    const auto& b = by_id.record.ops[i];
    EXPECT_EQ(b.proc, a.proc);
    EXPECT_EQ(b.op, a.op);
    EXPECT_EQ(b.arg, a.arg);
    EXPECT_EQ(b.ret, a.ret);
    EXPECT_EQ(b.invoke_real, a.invoke_real);
    EXPECT_EQ(b.response_real, a.response_real);
    EXPECT_EQ(b.uid, a.uid);
    ASSERT_TRUE(b.op_id.valid());
    EXPECT_EQ(product.spec(b.op_id).name, b.op);
  }
}

TEST(CompositeTest, SubInstancesShareNothing) {
  // Same component type twice: writes to object 0 are invisible to object 1.
  adt::RegisterType reg;
  ProductType product({&reg, &reg});
  const auto run = run_composite(product, sim::ModelParams{2, 10.0, 2.0, 1.0},
                                 {{0.0, 0, "0:write", Value{5}},
                                  {40.0, 1, "1:read", Value::nil()},
                                  {80.0, 1, "0:read", Value::nil()}});
  EXPECT_EQ(run.record.ops[1].ret, Value{0});  // object 1 untouched
  EXPECT_EQ(run.record.ops[2].ret, Value{5});
}

}  // namespace
}  // namespace lintime::core
